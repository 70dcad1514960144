//! Phase 2 — thickening.
//!
//! Every pair the draft deferred (dependent by MI, but already connected)
//! gets a real conditional-independence examination: if no separating set
//! exists among the path-neighbors, the dependence is not explained by the
//! current graph and the edge is added. Pairs that *can* be separated stay
//! edgeless, and their separating set is recorded for orientation.

use crate::cheng::separate::{pack, record_sepset, separate, Searches};
use crate::cheng::{PhaseStats, SepSets};
use crate::ci::CiTest;
use crate::graph::Ug;
use wfbn_core::marginal::PackedTable;
use wfbn_core::potential::PotentialTable;

/// Runs the thickening phase; returns the number of edges added.
///
/// Packs `table` once, on `threads` workers. Each deferred pair's
/// separation search then scans that snapshot once on the calling thread,
/// for the joint over the pair and its candidate cut, and every CI test of
/// the search collapses its joint from that one. The call keeps its own
/// memo of searches, so a repeated (pair, cut) search is not run again.
///
/// # Panics
///
/// Panics if `threads == 0`.
#[allow(clippy::too_many_arguments)]
pub fn thicken(
    graph: &mut Ug,
    deferred: &[(usize, usize)],
    table: &PotentialTable,
    test: CiTest,
    threads: usize,
    max_condition_size: usize,
    sepsets: &mut SepSets,
    ci_tests: &mut usize,
) -> usize {
    let packed = pack(table, threads);
    let mut stats = PhaseStats::default();
    let added = thicken_packed(
        graph,
        deferred,
        &packed,
        test,
        max_condition_size,
        &mut Searches::default(),
        sepsets,
        &mut stats,
    );
    *ci_tests += stats.ci_tests;
    added
}

/// [`thicken`] on a snapshot the caller packed, with the caller's memo of
/// searches; counts its tests, scans and memo hits into `stats`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn thicken_packed(
    graph: &mut Ug,
    deferred: &[(usize, usize)],
    packed: &PackedTable,
    test: CiTest,
    max_condition_size: usize,
    searches: &mut Searches,
    sepsets: &mut SepSets,
    stats: &mut PhaseStats,
) -> usize {
    let mut added = 0;
    for &(x, y) in deferred {
        match separate(
            graph,
            packed,
            x,
            y,
            test,
            max_condition_size,
            searches,
            stats,
        ) {
            Some(z) => record_sepset(sepsets, x, y, z),
            None => {
                graph
                    .add_edge(x, y)
                    .expect("deferred pairs are valid nodes");
                added += 1;
            }
        }
    }
    added
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfbn_core::construct::waitfree_build;
    use wfbn_data::{CorrelatedChain, Generator, Schema};

    #[test]
    fn separable_deferred_pairs_stay_edgeless() {
        // Chain data, draft already holds the chain; the deferred pair
        // (0, 2) is separable by {1} and must not become an edge.
        let schema = Schema::uniform(4, 2).unwrap();
        let data = CorrelatedChain::new(schema, 0.85)
            .unwrap()
            .generate(60_000, 13);
        let table = waitfree_build(&data, 2).unwrap().table;
        let mut graph = Ug::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let deferred = vec![(0usize, 2usize), (1, 3), (0, 3)];
        let mut sepsets = SepSets::new();
        let mut tests = 0;
        let added = thicken(
            &mut graph,
            &deferred,
            &table,
            CiTest::GTest { alpha: 0.01 },
            2,
            3,
            &mut sepsets,
            &mut tests,
        );
        assert_eq!(added, 0, "edges: {:?}", graph.edges());
        assert_eq!(graph.num_edges(), 3);
        assert_eq!(sepsets.get(&(0, 2)), Some(&vec![1]));
        assert_eq!(sepsets.get(&(1, 3)), Some(&vec![2]));
        assert!(sepsets.contains_key(&(0, 3)));
        assert!(tests > 0);
    }

    #[test]
    fn truly_dependent_pair_gains_its_edge() {
        // Data where X0 and X2 are directly coupled but the draft linked
        // them only through X1 (which is noise): thickening must add 0–2.
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        use wfbn_data::Dataset;
        let schema = Schema::uniform(3, 2).unwrap();
        let mut rng = SmallRng::seed_from_u64(99);
        let mut rows = Vec::new();
        for _ in 0..40_000 {
            let a: u16 = rng.random_range(0..2);
            let c = if rng.random_bool(0.9) { a } else { 1 - a };
            // X1 weakly copies X0 so the pair (0,1) and (1,2) carry some MI.
            let b = if rng.random_bool(0.6) {
                a
            } else {
                rng.random_range(0..2)
            };
            rows.push([a, b, c]);
        }
        let refs: Vec<&[u16]> = rows.iter().map(|r| &r[..]).collect();
        let data = Dataset::from_rows(schema, &refs).unwrap();
        let table = waitfree_build(&data, 2).unwrap().table;
        // Draft graph: chain through the middle only.
        let mut graph = Ug::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let mut sepsets = SepSets::new();
        let mut tests = 0;
        let added = thicken(
            &mut graph,
            &[(0, 2)],
            &table,
            CiTest::GTest { alpha: 0.01 },
            2,
            3,
            &mut sepsets,
            &mut tests,
        );
        assert_eq!(added, 1);
        assert!(graph.has_edge(0, 2));
        assert!(!sepsets.contains_key(&(0, 2)));
    }
}
