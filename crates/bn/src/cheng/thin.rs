//! Phase 3 — thinning.
//!
//! The draft adds edges greedily; some are redundant once the rest of the
//! graph exists. For every edge whose endpoints remain connected without it
//! (otherwise removal is pointless — nothing else could explain the
//! dependence), remove it temporarily and retry separation; if a separating
//! set exists, the removal becomes permanent and the set is recorded.
//!
//! The scan iterates to a fixpoint: removing one redundant edge can expose
//! another (Cheng et al. run a comparable re-examination).

use crate::cheng::separate::{pack, record_sepset, separate, Searches};
use crate::cheng::{PhaseStats, SepSets};
use crate::ci::CiTest;
use crate::graph::Ug;
use wfbn_core::marginal::PackedTable;
use wfbn_core::potential::PotentialTable;

/// Runs the thinning phase; returns the number of edges removed.
///
/// Packs `table` once, on `threads` workers. Each edge's separation search
/// then scans that snapshot once on the calling thread, for the joint over
/// the pair and its candidate cut, and every CI test of the search
/// collapses its joint from that one. The call keeps its own memo of
/// searches, so a (pair, cut) search repeated by a later round is not run
/// again.
///
/// # Panics
///
/// Panics if `threads == 0`.
#[allow(clippy::too_many_arguments)]
pub fn thin(
    graph: &mut Ug,
    table: &PotentialTable,
    test: CiTest,
    threads: usize,
    max_condition_size: usize,
    sepsets: &mut SepSets,
    ci_tests: &mut usize,
) -> usize {
    let packed = pack(table, threads);
    let mut stats = PhaseStats::default();
    let removed = thin_packed(
        graph,
        &packed,
        test,
        max_condition_size,
        &mut Searches::default(),
        sepsets,
        &mut stats,
    );
    *ci_tests += stats.ci_tests;
    removed
}

/// [`thin`] on a snapshot the caller packed, with the caller's memo of
/// searches; counts its tests, scans and memo hits into `stats`.
pub(crate) fn thin_packed(
    graph: &mut Ug,
    packed: &PackedTable,
    test: CiTest,
    max_condition_size: usize,
    searches: &mut Searches,
    sepsets: &mut SepSets,
    stats: &mut PhaseStats,
) -> usize {
    let mut removed_total = 0;
    loop {
        let mut removed_this_round = 0;
        for (x, y) in graph.edges() {
            graph.remove_edge(x, y);
            if !graph.has_path(x, y) {
                // Only this edge connects them: it must stay.
                graph.add_edge(x, y).expect("restoring a removed edge");
                continue;
            }
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
                Some(z) => {
                    record_sepset(sepsets, x, y, z);
                    removed_this_round += 1;
                }
                None => {
                    graph.add_edge(x, y).expect("restoring a removed edge");
                }
            }
        }
        removed_total += removed_this_round;
        if removed_this_round == 0 {
            break;
        }
    }
    removed_total
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfbn_core::construct::waitfree_build;
    use wfbn_data::{CorrelatedChain, Generator, Schema};

    #[test]
    fn removes_the_shortcut_edge_from_a_chain() {
        // Chain data; graph has the true chain plus a spurious 0–2 edge.
        let schema = Schema::uniform(3, 2).unwrap();
        let data = CorrelatedChain::new(schema, 0.85)
            .unwrap()
            .generate(60_000, 21);
        let table = waitfree_build(&data, 2).unwrap().table;
        let mut graph = Ug::from_edges(3, &[(0, 1), (1, 2), (0, 2)]).unwrap();
        let mut sepsets = SepSets::new();
        let mut tests = 0;
        let removed = thin(
            &mut graph,
            &table,
            CiTest::GTest { alpha: 0.01 },
            2,
            3,
            &mut sepsets,
            &mut tests,
        );
        assert_eq!(removed, 1);
        assert!(!graph.has_edge(0, 2));
        assert!(graph.has_edge(0, 1) && graph.has_edge(1, 2));
        assert_eq!(sepsets.get(&(0, 2)), Some(&vec![1]));
    }

    #[test]
    fn keeps_all_edges_of_a_true_chain() {
        let schema = Schema::uniform(4, 2).unwrap();
        let data = CorrelatedChain::new(schema, 0.85)
            .unwrap()
            .generate(60_000, 22);
        let table = waitfree_build(&data, 2).unwrap().table;
        let mut graph = Ug::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let mut sepsets = SepSets::new();
        let mut tests = 0;
        let removed = thin(
            &mut graph,
            &table,
            CiTest::GTest { alpha: 0.01 },
            2,
            3,
            &mut sepsets,
            &mut tests,
        );
        assert_eq!(removed, 0);
        assert_eq!(graph.num_edges(), 3);
        // Bridges are never even tested (removal would disconnect).
        assert_eq!(tests, 0);
    }
}
