//! The separation search shared by thickening and thinning.
//!
//! Cheng et al.'s `try_to_separate` asks: does some conditioning set drawn
//! from the neighbors *on connecting paths* render `x` and `y` independent?
//! Conditioning on all path-neighbors of one endpoint blocks every indirect
//! trail (they form a cut), so candidates beyond that set never help.
//!
//! The search is exhaustive over subsets up to `max_condition_size` (small
//! cut-sets are both statistically preferable — fewer cells, more counts per
//! cell — and the common case in sparse graphs), and additionally tries the
//! full candidate cut if it exceeds that size, mirroring Cheng et al.'s
//! group-wise test.
//!
//! Every test of one search conditions on a subset of the same cut, so the
//! search scans the snapshot once, for the joint over `(x, y, cut…)`, and
//! collapses each test's joint from it. Subsets keep the cut's order, so a
//! collapsed joint is byte-identical to scanning for it directly. A cut
//! joint with more cells than the snapshot has entries would cost more to
//! collapse than to rescan (or cannot be materialized at all); such a
//! search scans once per test instead.
//!
//! For one snapshot, test and `max_condition_size`, a search is a pure
//! function of `(x, y, cut)`, and a learn meets some pairs again over an
//! unchanged cut (32–34 of about 243 searches on alarm-like data). The
//! searches of one learn share a [`Searches`] memo: a search runs once per
//! distinct `(x, y, cut)`, and a repeat answers from the memo and counts
//! the tests the first run asked.

use crate::cheng::{PhaseStats, SepSets};
use crate::ci::CiTest;
use crate::graph::Ug;
use std::collections::HashMap;
use wfbn_core::marginal::{MarginalTable, PackedTable};
use wfbn_core::potential::PotentialTable;

/// What one separation search found: the separating set (`None` if the
/// pair stayed dependent) and the number of tests the search asked.
type Found = (Option<Vec<usize>>, usize);

/// The memo of one learn's separation searches. Valid for one snapshot,
/// test and `max_condition_size`.
#[derive(Debug, Default)]
pub(crate) struct Searches {
    /// What each search found, keyed by `(x, y, cut)`.
    found: HashMap<(usize, usize, Vec<usize>), Found>,
    /// Empties `found` before every search, for the learn without a memo
    /// that tests compare against.
    #[cfg(test)]
    forget: bool,
}

/// The snapshot a public phase entry point packs for its own call.
pub(crate) fn pack(table: &PotentialTable, threads: usize) -> PackedTable {
    PackedTable::pack(table, threads).expect("the learner needs at least one thread")
}

/// Searches for a separating set for `(x, y)` in `graph`, scanning the
/// packed snapshot on the calling thread once for the joint over the pair
/// and its candidate cut, from which every test collapses its own.
///
/// Returns `Some(z)` with the first set found that makes the pair
/// independent under `test`, or `None` if every tried set leaves them
/// dependent. Counts its tests and scans into `stats.ci_tests` and
/// `stats.ci_scans`. A search `searches` already holds is not run again:
/// it counts the stored tests and one `stats.ci_memo_hits`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn separate(
    graph: &Ug,
    table: &PackedTable,
    x: usize,
    y: usize,
    test: CiTest,
    max_condition_size: usize,
    searches: &mut Searches,
    stats: &mut PhaseStats,
) -> Option<Vec<usize>> {
    // Candidate cut: path-neighbors of the endpoint with the smaller set
    // (either side's full set blocks all indirect trails).
    let cand_x = graph.path_neighbors(x, y);
    let cand_y = graph.path_neighbors(y, x);
    let cand = if cand_x.len() <= cand_y.len() {
        cand_x
    } else {
        cand_y
    };
    #[cfg(test)]
    if searches.forget {
        searches.found.clear();
    }
    let key = (x, y, cand);
    if let Some((sep, tests)) = searches.found.get(&key) {
        stats.ci_tests += tests;
        stats.ci_memo_hits += 1;
        return sep.clone();
    }
    let before = stats.ci_tests;
    let sep = search(table, x, y, test, max_condition_size, &key.2, stats);
    searches
        .found
        .insert(key, (sep.clone(), stats.ci_tests - before));
    sep
}

/// The search [`separate`] runs for `(x, y)` over the candidate cut `cand`.
fn search(
    table: &PackedTable,
    x: usize,
    y: usize,
    test: CiTest,
    max_condition_size: usize,
    cand: &[usize],
    stats: &mut PhaseStats,
) -> Option<Vec<usize>> {
    let probe = Probe::new(table, x, y, test, cand, stats);

    // Subset search, smallest first (size 0 = marginal re-test, which
    // matters when the draft used a different decision rule than `test`).
    let cap = max_condition_size.min(cand.len());
    let mut picks = Vec::new();
    for size in 0..=cap {
        if probe.independent_given_some(size, 0, &mut picks, stats) {
            return Some(picks.iter().map(|&i| cand[i]).collect());
        }
    }
    // Group test on the full cut when it is larger than the subset cap.
    if cand.len() > max_condition_size {
        let all: Vec<usize> = (0..cand.len()).collect();
        if probe.independent_given(&all, stats) {
            return Some(cand.to_vec());
        }
    }
    None
}

/// One pair's CI tests against one snapshot and one candidate cut.
struct Probe<'a> {
    table: &'a PackedTable,
    x: usize,
    y: usize,
    test: CiTest,
    cand: &'a [usize],
    /// The joint over `(x, y, cand…)`, when it has at most as many cells as
    /// the snapshot has entries.
    cut: Option<MarginalTable>,
}

impl<'a> Probe<'a> {
    /// Scans `table` for the cut joint, unless it is too wide to pay off.
    fn new(
        table: &'a PackedTable,
        x: usize,
        y: usize,
        test: CiTest,
        cand: &'a [usize],
        stats: &mut PhaseStats,
    ) -> Self {
        let mut order = vec![x, y];
        order.extend_from_slice(cand);
        let codec = table.codec();
        let cells = order
            .iter()
            .try_fold(1u64, |acc, &v| acc.checked_mul(codec.arity(v)));
        let cut = cells
            .filter(|&c| c <= table.num_entries() as u64)
            .and_then(|_| table.marginalize(&order).ok());
        stats.ci_scans += usize::from(cut.is_some());
        Self {
            table,
            x,
            y,
            test,
            cand,
            cut,
        }
    }

    /// Runs one test given the candidates at `picks` (increasing indices
    /// into the cut); `true` if it finds the pair independent.
    fn independent_given(&self, picks: &[usize], stats: &mut PhaseStats) -> bool {
        stats.ci_tests += 1;
        let outcome = match &self.cut {
            Some(cut) if picks.len() == self.cand.len() => self.test.decide(cut),
            Some(cut) => {
                let keep: Vec<usize> = [0, 1]
                    .into_iter()
                    .chain(picks.iter().map(|&i| i + 2))
                    .collect();
                self.test.decide(&cut.collapse(&keep))
            }
            None => {
                let z: Vec<usize> = picks.iter().map(|&i| self.cand[i]).collect();
                // x, y and z are distinct graph nodes by construction, so the
                // only error left is a joint too large to materialize (a wide
                // cut of many-valued variables). It cannot show independence:
                // the pair stays dependent and keeps its edge.
                match self.test.run(self.table, self.x, self.y, &z) {
                    Ok(outcome) => {
                        stats.ci_scans += 1;
                        outcome
                    }
                    Err(_) => return false,
                }
            }
        };
        !outcome.dependent
    }

    /// Recursively enumerates `size`-subsets of the cut from index `from`
    /// on; returns `true` (leaving the subset's indices in `picks`) as soon
    /// as one separates the pair.
    fn independent_given_some(
        &self,
        size: usize,
        from: usize,
        picks: &mut Vec<usize>,
        stats: &mut PhaseStats,
    ) -> bool {
        if size == 0 {
            return self.independent_given(picks, stats);
        }
        for i in from..self.cand.len() {
            picks.push(i);
            if self.independent_given_some(size - 1, i + 1, picks, stats) {
                return true;
            }
            picks.pop();
        }
        false
    }
}

/// Records a separating set under the canonical `(min, max)` key.
pub(crate) fn record_sepset(sepsets: &mut SepSets, x: usize, y: usize, z: Vec<usize>) {
    let key = (x.min(y), x.max(y));
    sepsets.insert(key, z);
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfbn_core::construct::waitfree_build;
    use wfbn_data::{CorrelatedChain, Generator, Schema};

    /// Packs `table` on `threads` workers and runs one separation search,
    /// adding its test count to `*ci_tests`.
    #[allow(clippy::too_many_arguments)]
    fn try_separate(
        graph: &Ug,
        table: &PotentialTable,
        x: usize,
        y: usize,
        test: CiTest,
        threads: usize,
        max_condition_size: usize,
        ci_tests: &mut usize,
    ) -> Option<Vec<usize>> {
        let packed = pack(table, threads);
        let mut stats = PhaseStats::default();
        let mut searches = Searches::default();
        let sep = separate(
            graph,
            &packed,
            x,
            y,
            test,
            max_condition_size,
            &mut searches,
            &mut stats,
        );
        *ci_tests += stats.ci_tests;
        sep
    }

    #[test]
    fn separates_chain_ends_through_the_middle() {
        let schema = Schema::uniform(3, 2).unwrap();
        let data = CorrelatedChain::new(schema, 0.85)
            .unwrap()
            .generate(50_000, 7);
        let table = waitfree_build(&data, 2).unwrap().table;
        let graph = Ug::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let mut tests = 0;
        let sep = try_separate(
            &graph,
            &table,
            0,
            2,
            CiTest::GTest { alpha: 0.01 },
            2,
            3,
            &mut tests,
        );
        assert_eq!(sep, Some(vec![1]));
        assert!(tests >= 2, "size-0 then size-1 tests expected");
    }

    #[test]
    fn adjacent_strongly_coupled_pair_cannot_be_separated() {
        let schema = Schema::uniform(3, 2).unwrap();
        let data = CorrelatedChain::new(schema, 0.9)
            .unwrap()
            .generate(50_000, 8);
        let table = waitfree_build(&data, 2).unwrap().table;
        let graph = Ug::from_edges(3, &[(0, 1), (1, 2), (0, 2)]).unwrap();
        let mut tests = 0;
        let sep = try_separate(
            &graph,
            &table,
            0,
            1,
            CiTest::GTest { alpha: 0.01 },
            2,
            3,
            &mut tests,
        );
        assert_eq!(sep, None);
    }

    #[test]
    fn a_cut_too_wide_to_materialize_keeps_the_pair_dependent() {
        // Y copies X; fifteen arity-4 noise variables each sit on an X–Y
        // path, so the full-cut group test needs a joint of 2·2·4¹⁵ = 2³²
        // cells, past what a marginal may materialize.
        use wfbn_data::{Dataset, UniformIndependent};
        let mut arities = vec![2u16, 2];
        arities.extend([4; 15]);
        let schema = Schema::new(arities).unwrap();
        let noise = UniformIndependent::new(schema.clone()).generate(2_000, 5);
        let rows: Vec<Vec<u16>> = noise
            .rows()
            .map(|r| {
                let mut row = r.to_vec();
                row[1] = row[0];
                row
            })
            .collect();
        let refs: Vec<&[u16]> = rows.iter().map(Vec::as_slice).collect();
        let data = Dataset::from_rows(schema, &refs).unwrap();
        let table = waitfree_build(&data, 2).unwrap().table;
        let edges: Vec<(usize, usize)> = (2..17).flat_map(|k| [(0, k), (k, 1)]).collect();
        let graph = Ug::from_edges(17, &edges).unwrap();
        let mut tests = 0;
        let sep = try_separate(
            &graph,
            &table,
            0,
            1,
            CiTest::GTest { alpha: 0.01 },
            2,
            1,
            &mut tests,
        );
        assert_eq!(sep, None);
        // The marginal test, fifteen singletons, then the group test.
        assert_eq!(tests, 17);
    }

    /// The search as it ran before grouping: every subset of the cut, in
    /// the same order, scans the snapshot through [`CiTest::run`].
    fn per_test_reference(
        graph: &Ug,
        table: &PackedTable,
        x: usize,
        y: usize,
        test: CiTest,
        max_condition_size: usize,
        ci_tests: &mut usize,
    ) -> Option<Vec<usize>> {
        fn subsets(
            cand: &[usize],
            size: usize,
            from: usize,
            acc: &mut Vec<usize>,
            out: &mut Vec<Vec<usize>>,
        ) {
            if size == 0 {
                out.push(acc.clone());
                return;
            }
            for i in from..cand.len() {
                acc.push(cand[i]);
                subsets(cand, size - 1, i + 1, acc, out);
                acc.pop();
            }
        }
        let (cand_x, cand_y) = (graph.path_neighbors(x, y), graph.path_neighbors(y, x));
        let cand = if cand_x.len() <= cand_y.len() {
            cand_x
        } else {
            cand_y
        };
        let mut tried = Vec::new();
        for size in 0..=max_condition_size.min(cand.len()) {
            subsets(&cand, size, 0, &mut Vec::new(), &mut tried);
        }
        if cand.len() > max_condition_size {
            tried.push(cand);
        }
        tried.into_iter().find(|z| {
            *ci_tests += 1;
            test.run(table, x, y, z).is_ok_and(|out| !out.dependent)
        })
    }

    #[test]
    fn grouped_search_matches_one_scan_per_test() {
        use crate::repository;
        let net = repository::alarm_like();
        let n = net.schema().num_vars();
        // A skeleton denser than the truth, so cuts hold several nodes.
        let mut edges = net.dag().skeleton().edges();
        edges.extend((0..n - 3).map(|v| (v, v + 3)));
        edges.sort_unstable();
        edges.dedup();
        let graph = Ug::from_edges(n, &edges).unwrap();
        let cases = [(5_000, 11, 3), (300, 12, 2)];
        let (mut grouped, mut fallbacks) = (0, 0);
        for (rows, seed, max_condition_size) in cases {
            let table = waitfree_build(&net.sample(rows, seed), 2).unwrap().table;
            let packed = pack(&table, 2);
            let mut searches = Searches::default();
            // Every pair twice through one memo: the second search of a
            // pair answers from the memo, without a scan, and still counts
            // the tests the first one asked.
            for round in 0..2 {
                for x in 0..n {
                    for y in x + 1..n {
                        if !graph.has_path(x, y) {
                            continue;
                        }
                        let test = CiTest::GTest { alpha: 0.01 };
                        let mut stats = PhaseStats::default();
                        let got = separate(
                            &graph,
                            &packed,
                            x,
                            y,
                            test,
                            max_condition_size,
                            &mut searches,
                            &mut stats,
                        );
                        let mut want_tests = 0;
                        let want = per_test_reference(
                            &graph,
                            &packed,
                            x,
                            y,
                            test,
                            max_condition_size,
                            &mut want_tests,
                        );
                        assert_eq!(
                            (got, stats.ci_tests),
                            (want, want_tests),
                            "round {round}, pair ({x}, {y})"
                        );
                        assert_eq!(stats.ci_memo_hits, round, "pair ({x}, {y})");
                        if round == 1 {
                            assert_eq!(stats.ci_scans, 0, "pair ({x}, {y})");
                        } else if stats.ci_tests > 1 {
                            // A grouped search scans once; the per-test
                            // fallback once per test.
                            grouped += usize::from(stats.ci_scans == 1);
                            fallbacks += usize::from(stats.ci_scans == stats.ci_tests);
                        }
                    }
                }
            }
        }
        // 300 rows leave fewer entries than some cuts have cells.
        assert!(
            grouped > 0 && fallbacks > 0,
            "grouped {grouped}, fallbacks {fallbacks}"
        );
    }

    #[test]
    fn a_learn_with_the_memo_equals_one_that_empties_it_before_every_search() {
        use crate::cheng::ChengLearner;
        use crate::repository;
        let net = repository::alarm_like();
        let table = waitfree_build(&net.sample(5_000, 4), 2).unwrap().table;
        let learner = ChengLearner {
            threads: 2,
            ..ChengLearner::default()
        };
        let memo = learner.learn_with(&table, Searches::default()).unwrap();
        let forgetful = Searches {
            forget: true,
            ..Searches::default()
        };
        let bare = learner.learn_with(&table, forgetful).unwrap();
        // A removal in thinning's first round makes it run a second.
        assert!(memo.stats.thinning_removed > 0, "{:?}", memo.stats);
        assert!(memo.stats.ci_memo_hits > 0, "{:?}", memo.stats);
        assert_eq!(bare.stats.ci_memo_hits, 0);
        assert!(memo.stats.ci_scans < bare.stats.ci_scans);
        assert_eq!(memo.skeleton, bare.skeleton);
        assert_eq!(memo.cpdag, bare.cpdag);
        assert_eq!(memo.sepsets, bare.sepsets);
        assert_eq!(memo.stats.ci_tests, bare.stats.ci_tests);
    }

    #[test]
    fn record_sepset_canonicalizes_keys() {
        let mut s = SepSets::new();
        record_sepset(&mut s, 5, 2, vec![3]);
        assert_eq!(s.get(&(2, 5)), Some(&vec![3]));
        assert!(!s.contains_key(&(5, 2)));
    }
}
