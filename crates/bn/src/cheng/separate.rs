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

use crate::cheng::SepSets;
use crate::ci::CiTest;
use crate::graph::Ug;
use wfbn_core::marginal::PackedTable;
use wfbn_core::potential::PotentialTable;

/// Searches for a separating set for `(x, y)` in `graph`.
///
/// Returns `Some(z)` with the first set found that makes the pair
/// independent under `test`, or `None` if every tried set leaves them
/// dependent. Increments `*ci_tests` once per executed test. Packs `table`
/// on `threads` workers first; the tests then scan the packed snapshot on
/// the calling thread.
///
/// # Panics
///
/// Panics if `threads == 0`.
#[allow(clippy::too_many_arguments)]
pub fn try_separate(
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
    separate(graph, &packed, x, y, test, max_condition_size, ci_tests)
}

/// The snapshot each Cheng phase takes once and runs all its tests on.
pub(crate) fn pack(table: &PotentialTable, threads: usize) -> PackedTable {
    PackedTable::pack(table, threads).expect("the learner needs at least one thread")
}

/// [`try_separate`] on an already packed table.
pub(crate) fn separate(
    graph: &Ug,
    table: &PackedTable,
    x: usize,
    y: usize,
    test: CiTest,
    max_condition_size: usize,
    ci_tests: &mut usize,
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
    let probe = Probe { table, x, y, test };

    // Subset search, smallest first (size 0 = marginal re-test, which
    // matters when the draft used a different decision rule than `test`).
    let cap = max_condition_size.min(cand.len());
    let mut subset = Vec::new();
    for size in 0..=cap {
        if probe.independent_given_some(&cand, size, 0, &mut subset, ci_tests) {
            return Some(subset);
        }
    }
    // Group test on the full cut when it is larger than the subset cap.
    if cand.len() > max_condition_size && probe.independent_given(&cand, ci_tests) {
        return Some(cand);
    }
    None
}

/// One pair's CI tests against one snapshot.
struct Probe<'a> {
    table: &'a PackedTable,
    x: usize,
    y: usize,
    test: CiTest,
}

impl Probe<'_> {
    /// Runs one test given `z`; `true` if it finds the pair independent.
    fn independent_given(&self, z: &[usize], ci_tests: &mut usize) -> bool {
        *ci_tests += 1;
        // x, y and z are distinct graph nodes by construction, so the only
        // error left is a joint too large to materialize (a wide cut of
        // many-valued variables). It cannot show independence: the pair
        // stays dependent and keeps its edge.
        self.test
            .run(self.table, self.x, self.y, z)
            .is_ok_and(|out| !out.dependent)
    }

    /// Recursively enumerates `size`-subsets of `cand[from..]`; returns
    /// `true` (leaving the subset in `acc`) as soon as one separates the
    /// pair.
    fn independent_given_some(
        &self,
        cand: &[usize],
        size: usize,
        from: usize,
        acc: &mut Vec<usize>,
        ci_tests: &mut usize,
    ) -> bool {
        if size == 0 {
            return self.independent_given(acc, ci_tests);
        }
        for i in from..cand.len() {
            acc.push(cand[i]);
            if self.independent_given_some(cand, size - 1, i + 1, acc, ci_tests) {
                return true;
            }
            acc.pop();
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

    #[test]
    fn record_sepset_canonicalizes_keys() {
        let mut s = SepSets::new();
        record_sepset(&mut s, 5, 2, vec![3]);
        assert_eq!(s.get(&(2, 5)), Some(&vec![3]));
        assert!(!s.contains_key(&(5, 2)));
    }
}
