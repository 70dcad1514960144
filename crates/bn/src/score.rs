//! Decomposable network scores (BIC / log-likelihood), computed through the
//! paper's primitives.
//!
//! The paper's related-work section (§III) describes the *other* paradigm
//! of structure learning: score-and-search. Its scores decompose per family
//! — `score(G) = Σ_v score(X_v | parents(X_v))` — and each family score
//! needs exactly the counts `N(x, pa)` that one Algorithm-3 marginalization
//! of the potential table produces. This module provides the BIC score
//!
//! ```text
//! BIC(G) = Σ_v [ Σ_{x,pa} N(x,pa) · ln( N(x,pa) / N(pa) ) ]
//!          − ln(m)/2 · Σ_v (r_v − 1) · ∏_{p∈pa(v)} r_p
//! ```
//!
//! with memoized family scores (hill climbing re-evaluates the same family
//! constantly), each counted from one packed snapshot of the table
//! ([`PackedTable`]) that the scorer takes once.

use crate::graph::Dag;
use std::cell::RefCell;
use std::collections::HashMap;
use wfbn_core::error::CoreError;
use wfbn_core::marginal::PackedTable;
use wfbn_core::potential::PotentialTable;
use wfbn_data::Schema;

/// A memoizing BIC scorer over one dataset's potential table.
///
/// # Examples
///
/// ```
/// use wfbn_bn::{repository, score::BicScorer, Dag};
/// use wfbn_core::construct::waitfree_build;
///
/// let net = repository::sprinkler();
/// let data = net.sample(20_000, 1);
/// let table = waitfree_build(&data, 2).unwrap().table;
/// let scorer = BicScorer::new(&table, data.schema(), 2).unwrap();
/// // The generating structure outscores the empty graph.
/// assert!(scorer.total_score(net.dag()) > scorer.total_score(&Dag::new(4)));
/// ```
pub struct BicScorer<'a> {
    table: PackedTable,
    schema: &'a Schema,
    /// Cache of family scores keyed by `(var, sorted parents)`.
    cache: RefCell<HashMap<(usize, Vec<usize>), f64>>,
}

impl<'a> BicScorer<'a> {
    /// Creates a scorer, packing `table` on `threads` workers; the table
    /// must be non-empty.
    pub fn new(
        table: &PotentialTable,
        schema: &'a Schema,
        threads: usize,
    ) -> Result<Self, CoreError> {
        if threads == 0 {
            return Err(CoreError::ZeroThreads);
        }
        if table.total_count() == 0 {
            return Err(CoreError::EmptyDataset);
        }
        Ok(Self {
            table: PackedTable::pack(table, threads)?,
            schema,
            cache: RefCell::new(HashMap::new()),
        })
    }

    /// BIC contribution of one family `X_var | parents` (parents in any
    /// order; deduplicated ordering is canonicalized internally).
    pub(crate) fn family_score(&self, var: usize, parents: &[usize]) -> f64 {
        let mut sorted_parents = parents.to_vec();
        sorted_parents.sort_unstable();
        let key = (var, sorted_parents.clone());
        if let Some(&cached) = self.cache.borrow().get(&key) {
            return cached;
        }

        let m = self.table.total_count() as f64;
        let r_v = self.schema.arity(var) as usize;
        // Family marginal, child-first layout.
        let mut family = vec![var];
        family.extend_from_slice(&sorted_parents);
        let counts = self
            .table
            .marginalize(&family)
            .expect("family vars validated by the DAG");

        let configs = counts.num_cells() / r_v;
        let mut loglik = 0.0;
        for config in 0..configs {
            let n_pa: u64 = (0..r_v).map(|s| counts.count_at(config * r_v + s)).sum();
            if n_pa == 0 {
                continue;
            }
            for s in 0..r_v {
                let n = counts.count_at(config * r_v + s);
                if n > 0 {
                    loglik += n as f64 * (n as f64 / n_pa as f64).ln();
                }
            }
        }
        let params = (r_v - 1) as f64 * configs as f64;
        let score = loglik - 0.5 * m.ln() * params;
        self.cache.borrow_mut().insert(key, score);
        score
    }

    /// Total BIC of a DAG (decomposable sum of family scores).
    pub fn total_score(&self, dag: &Dag) -> f64 {
        (0..self.schema.num_vars())
            .map(|v| self.family_score(v, dag.parents(v)))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repository;
    use wfbn_core::construct::waitfree_build;

    fn scorer_fixture(m: usize, seed: u64) -> (PotentialTable, Schema, crate::network::BayesNet) {
        let net = repository::sprinkler();
        let data = net.sample(m, seed);
        let table = waitfree_build(&data, 4).unwrap().table;
        (table, data.schema().clone(), net)
    }

    #[test]
    fn true_structure_outscores_perturbations() {
        let (table, schema, net) = scorer_fixture(60_000, 3);
        let scorer = BicScorer::new(&table, &schema, 2).unwrap();
        let true_score = scorer.total_score(net.dag());

        // Remove one true edge.
        let mut missing = Dag::new(4);
        for (u, v) in net.dag().edges() {
            if (u, v) != (0, 1) {
                missing.add_edge(u, v).unwrap();
            }
        }
        assert!(scorer.total_score(&missing) < true_score);

        // Add one spurious edge.
        let mut extra = net.dag().clone();
        extra.add_edge(0, 3).unwrap();
        assert!(scorer.total_score(&extra) < true_score);

        // Empty graph is far worse.
        assert!(scorer.total_score(&Dag::new(4)) < true_score - 100.0);
    }

    #[test]
    fn score_is_decomposable_and_parent_order_invariant() {
        let (table, schema, _) = scorer_fixture(10_000, 5);
        let scorer = BicScorer::new(&table, &schema, 2).unwrap();
        let a = scorer.family_score(3, &[1, 2]);
        let b = scorer.family_score(3, &[2, 1]);
        assert_eq!(a, b);
        // Decomposability: total = sum of families.
        let dag = Dag::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        let total = scorer.total_score(&dag);
        let by_hand: f64 = (0..4).map(|v| scorer.family_score(v, dag.parents(v))).sum();
        assert_eq!(total, by_hand);
    }

    #[test]
    fn cache_avoids_recomputation() {
        let (table, schema, net) = scorer_fixture(5_000, 7);
        let scorer = BicScorer::new(&table, &schema, 2).unwrap();
        let s1 = scorer.total_score(net.dag());
        let cached_after_first = scorer.cache.borrow().len();
        let s2 = scorer.total_score(net.dag());
        assert_eq!(s1, s2);
        // Every miss inserts a family, so a second pass that adds none was
        // answered from the cache alone.
        assert_eq!(
            scorer.cache.borrow().len(),
            cached_after_first,
            "second pass must be all hits"
        );
        assert!(cached_after_first >= 4);
    }

    #[test]
    fn i_equivalent_structures_score_equally() {
        // BIC is score-equivalent: the three chain orientations of Figure 1
        // must tie exactly.
        use wfbn_data::{CorrelatedChain, Generator};
        let schema = Schema::uniform(3, 2).unwrap();
        let data = CorrelatedChain::new(schema.clone(), 0.8)
            .unwrap()
            .generate(20_000, 9);
        let table = waitfree_build(&data, 2).unwrap().table;
        let scorer = BicScorer::new(&table, &schema, 2).unwrap();
        let chains = [
            Dag::from_edges(3, &[(0, 1), (1, 2)]).unwrap(),
            Dag::from_edges(3, &[(2, 1), (1, 0)]).unwrap(),
            Dag::from_edges(3, &[(1, 0), (1, 2)]).unwrap(),
        ];
        let scores: Vec<f64> = chains.iter().map(|g| scorer.total_score(g)).collect();
        assert!((scores[0] - scores[1]).abs() < 1e-6, "{scores:?}");
        assert!((scores[0] - scores[2]).abs() < 1e-6, "{scores:?}");
    }

    #[test]
    fn rejects_bad_inputs() {
        let (table, schema, _) = scorer_fixture(100, 1);
        assert!(matches!(
            BicScorer::new(&table, &schema, 0),
            Err(CoreError::ZeroThreads)
        ));
    }
}
