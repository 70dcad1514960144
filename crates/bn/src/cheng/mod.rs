//! The three-phase structure learner of Cheng, Greiner, Kelly, Bell & Liu
//! (Artificial Intelligence 137, 2002), with its first phase running on the
//! paper's parallel primitives.
//!
//! 1. **Drafting** ([`draft`]): compute mutual information for *all pairs*
//!    (the parallel all-pairs primitive), sort pairs with `I > ε`
//!    descending, and add an edge whenever its endpoints are not yet
//!    connected — a maximum-spanning-tree-flavored approximation. Pairs
//!    skipped because a path already existed are deferred to phase 2.
//! 2. **Thickening** ([`thicken`]): for every deferred pair, search for a
//!    separating set among the neighbors lying on connecting paths; if no
//!    conditioning set renders the pair independent, add the edge.
//! 3. **Thinning** ([`thin`]): for every edge whose endpoints remain
//!    connected without it, temporarily remove it and retry separation;
//!    independent pairs lose their edge permanently.
//!
//! A final orientation pass ([`orient`]) — v-structure detection from the
//! recorded separating sets plus Meek's rules — upgrades the skeleton to a
//! pattern (CPDAG). Cheng et al. orient edges similarly; the exact
//! procedure here follows the standard constraint-based formulation.

mod draft;
mod orient;
mod separate;
mod thicken;
mod thin;

pub use draft::draft;
pub use orient::orient;
pub use thicken::thicken;
pub use thin::thin;

use separate::Searches;
use thicken::thicken_packed;
use thin::thin_packed;

use crate::ci::CiTest;
use crate::graph::Ug;
use crate::pdag::PDag;
use core::fmt;
use std::collections::HashMap;
use wfbn_core::allpairs::MiMatrix;
use wfbn_core::construct::waitfree_build;
use wfbn_core::error::CoreError;
use wfbn_core::marginal::PackedTable;
use wfbn_core::potential::PotentialTable;
use wfbn_data::Dataset;

/// Separating sets discovered during learning, keyed by `(min, max)` pair.
pub type SepSets = HashMap<(usize, usize), Vec<usize>>;

/// Errors from the learner.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LearnError {
    /// An error from the core primitives.
    Core(CoreError),
}

impl fmt::Display for LearnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LearnError::Core(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for LearnError {}

impl From<CoreError> for LearnError {
    fn from(e: CoreError) -> Self {
        LearnError::Core(e)
    }
}

/// Counters describing what each phase did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseStats {
    /// Edges added by drafting.
    pub draft_edges: usize,
    /// Dependent pairs deferred from drafting to thickening.
    pub deferred_pairs: usize,
    /// Edges added by thickening.
    pub thickening_added: usize,
    /// Edges removed by thinning.
    pub thinning_removed: usize,
    /// Conditional-independence tests asked in phases 2–3, counting again
    /// the tests of a separation search answered from the memo.
    pub ci_tests: usize,
    /// Real passes over the packed table that those tests made: one per
    /// distinct (pair, cut) separation search whose tests collapse from the
    /// joint over its cut, one per test of such a search otherwise. A search
    /// answered from the memo makes none.
    pub ci_scans: usize,
    /// Separation searches answered from the learn's memo of earlier
    /// searches of the same pair over the same cut, without running a test.
    pub ci_memo_hits: usize,
}

/// Everything the learner produces.
#[derive(Debug, Clone)]
pub struct LearnResult {
    /// The all-pairs mutual-information matrix from phase 1.
    pub mi: MiMatrix,
    /// The learned undirected skeleton.
    pub skeleton: Ug,
    /// The learned pattern (v-structures + Meek propagation).
    pub cpdag: PDag,
    /// Separating sets found for independent pairs.
    pub sepsets: SepSets,
    /// Per-phase counters.
    pub stats: PhaseStats,
}

/// Configuration for the three-phase learner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChengLearner {
    /// Drafting threshold ε on mutual information (nats).
    pub epsilon: f64,
    /// CI decision rule for thickening/thinning.
    pub ci_test: CiTest,
    /// Worker threads for table construction, packing the one snapshot
    /// every phase of a learn reads, and all-pairs MI, which counts the
    /// snapshot's blocks. The CI tests run on the calling thread: the
    /// snapshot is scanned once per distinct (pair, cut) separation search,
    /// for the joint over the pair and the cut, and the search's tests
    /// collapse their joints from that one; a repeated search answers from
    /// the learn's memo.
    pub threads: usize,
    /// Largest conditioning-set size tried during separation search.
    pub max_condition_size: usize,
}

impl Default for ChengLearner {
    fn default() -> Self {
        Self {
            epsilon: 0.005,
            ci_test: CiTest::GTest { alpha: 0.01 },
            threads: 4,
            max_condition_size: 3,
        }
    }
}

impl ChengLearner {
    /// Runs all three phases plus orientation on `data`.
    pub fn learn(&self, data: &Dataset) -> Result<LearnResult, LearnError> {
        let table = waitfree_build(data, self.threads)?.table;
        self.learn_from_table(&table)
    }

    /// Runs the learner on an already-built potential table.
    pub fn learn_from_table(&self, table: &PotentialTable) -> Result<LearnResult, LearnError> {
        self.learn_with(table, Searches::default())
    }

    /// [`learn_from_table`](Self::learn_from_table) with `searches` as the
    /// memo that thickening and thinning share.
    pub(crate) fn learn_with(
        &self,
        table: &PotentialTable,
        mut searches: Searches,
    ) -> Result<LearnResult, LearnError> {
        if self.threads == 0 {
            return Err(CoreError::ZeroThreads.into());
        }
        let n = table.codec().num_vars();
        let mut stats = PhaseStats::default();
        let mut sepsets: SepSets = HashMap::new();

        // Every phase reads one packed, bit-sliced snapshot of the table.
        let packed = PackedTable::pack(table, self.threads)?;

        // ---- Phase 1: drafting (parallel all-pairs MI). ----
        let mi = packed.all_pairs_mi(self.threads);
        let (mut graph, deferred) = draft(&mi, self.epsilon);
        stats.draft_edges = graph.num_edges();
        stats.deferred_pairs = deferred.len();
        // Pairs below ε are marginally independent: empty separating set.
        for (i, j, v) in mi.iter_pairs() {
            if v <= self.epsilon {
                sepsets.insert((i, j), Vec::new());
            }
        }

        // ---- Phases 2–3: CI tests, sharing one memo of searches. ----
        stats.thickening_added = thicken_packed(
            &mut graph,
            &deferred,
            &packed,
            self.ci_test,
            self.max_condition_size,
            &mut searches,
            &mut sepsets,
            &mut stats,
        );
        stats.thinning_removed = thin_packed(
            &mut graph,
            &packed,
            self.ci_test,
            self.max_condition_size,
            &mut searches,
            &mut sepsets,
            &mut stats,
        );

        // ---- Orientation. ----
        let cpdag = orient(&graph, &sepsets);

        debug_assert_eq!(graph.num_nodes(), n);
        Ok(LearnResult {
            mi,
            skeleton: graph,
            cpdag,
            sepsets,
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::skeleton_report;
    use crate::repository;

    #[test]
    fn recovers_the_sprinkler_skeleton() {
        let net = repository::sprinkler();
        let data = net.sample(40_000, 71);
        let result = ChengLearner::default().learn(&data).unwrap();
        let truth = net.dag().skeleton();
        let report = skeleton_report(&truth, &result.skeleton);
        assert!(
            report.recall() >= 0.75 && report.precision() >= 0.75,
            "{report:?}, learned {:?}",
            result.skeleton.edges()
        );
    }

    #[test]
    fn recovers_the_cancer_skeleton() {
        let net = repository::cancer();
        let data = net.sample(80_000, 5);
        let learner = ChengLearner {
            epsilon: 0.0005,
            ..ChengLearner::default()
        };
        let result = learner.learn(&data).unwrap();
        let truth = net.dag().skeleton();
        let report = skeleton_report(&truth, &result.skeleton);
        // The Pollution→Cancer edge is extremely weak (0.1 prior × tiny
        // effect); allow one miss.
        assert!(report.false_positives <= 1, "{report:?}");
        assert!(report.false_negatives <= 1, "{report:?}");
    }

    #[test]
    fn asia_learning_is_reasonable() {
        let net = repository::asia();
        let data = net.sample(100_000, 17);
        let learner = ChengLearner {
            epsilon: 0.001,
            ..ChengLearner::default()
        };
        let result = learner.learn(&data).unwrap();
        let truth = net.dag().skeleton();
        let report = skeleton_report(&truth, &result.skeleton);
        // Asia has notoriously weak edges (VisitAsia–Tuberculosis); accept
        // a couple of misses but no wild over-connection.
        assert!(report.recall() >= 0.6, "{report:?}");
        assert!(report.precision() >= 0.6, "{report:?}");
    }

    #[test]
    fn independent_data_learns_an_empty_graph() {
        use wfbn_data::{Generator, Schema, UniformIndependent};
        let data = UniformIndependent::new(Schema::uniform(6, 2).unwrap()).generate(20_000, 3);
        let result = ChengLearner::default().learn(&data).unwrap();
        assert_eq!(
            result.skeleton.num_edges(),
            0,
            "learned {:?}",
            result.skeleton.edges()
        );
        assert_eq!(result.stats.draft_edges, 0);
    }

    #[test]
    fn chain_data_learns_a_chain() {
        use wfbn_data::{CorrelatedChain, Generator, Schema};
        let schema = Schema::uniform(6, 2).unwrap();
        let data = CorrelatedChain::new(schema, 0.8)
            .unwrap()
            .generate(60_000, 29);
        let result = ChengLearner::default().learn(&data).unwrap();
        // True skeleton: 0–1–2–3–4–5.
        let truth = Ug::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]).unwrap();
        let report = skeleton_report(&truth, &result.skeleton);
        assert_eq!(report.false_negatives, 0, "missed chain links: {report:?}");
        assert!(report.false_positives <= 1, "{report:?}");
        // A chain has no v-structures: the pattern should stay undirected.
        assert!(result.cpdag.directed_edges().len() <= 1);
    }

    #[test]
    fn collider_is_oriented() {
        // Ground truth 0 → 2 ← 1 with strong CPTs.
        use crate::cpt::Cpt;
        use crate::graph::Dag;
        use crate::network::BayesNet;
        use wfbn_data::Schema;
        let schema = Schema::uniform(3, 2).unwrap();
        let dag = Dag::from_edges(3, &[(0, 2), (1, 2)]).unwrap();
        let cpts = vec![
            Cpt::binary_root(0, 0.5).unwrap(),
            Cpt::binary_root(1, 0.5).unwrap(),
            // X2 ≈ noisy OR of parents. (An XOR collider would be
            // *pairwise* independent of each parent and thus invisible to
            // the drafting phase's pairwise MI — a known limitation of
            // Cheng et al.'s algorithm; noisy OR keeps pairwise signal.)
            Cpt::new(
                2,
                vec![0, 1],
                vec![2, 2],
                2,
                vec![0.9, 0.1, 0.2, 0.8, 0.2, 0.8, 0.05, 0.95],
            )
            .unwrap(),
        ];
        let net = BayesNet::new(schema, dag, cpts).unwrap();
        let data = net.sample(50_000, 41);
        let result = ChengLearner::default().learn(&data).unwrap();
        assert!(
            result.skeleton.has_edge(0, 2),
            "{:?}",
            result.skeleton.edges()
        );
        assert!(
            result.skeleton.has_edge(1, 2),
            "{:?}",
            result.skeleton.edges()
        );
        assert!(
            !result.skeleton.has_edge(0, 1),
            "{:?}",
            result.skeleton.edges()
        );
        assert!(result.cpdag.is_directed(0, 2), "collider arrow 0→2 missing");
        assert!(result.cpdag.is_directed(1, 2), "collider arrow 1→2 missing");
    }

    #[test]
    fn zero_threads_is_an_error() {
        use wfbn_data::{Generator, Schema, UniformIndependent};
        let data = UniformIndependent::new(Schema::uniform(3, 2).unwrap()).generate(100, 1);
        let learner = ChengLearner {
            threads: 0,
            ..ChengLearner::default()
        };
        assert!(learner.learn(&data).is_err());
    }
}
