//! Phase 1 — drafting.
//!
//! Consumes the all-pairs MI matrix the parallel primitives produced.
//! Following Cheng et al.: sort the dependent pairs (`I > ε`) by MI
//! descending; walk the list adding an edge whenever its endpoints are not
//! already connected by a path. Pairs skipped because a path existed are
//! *deferred* — phase 2 decides them with real CI tests.
//!
//! The first `n − 1` accepted edges form a maximum-weight spanning forest
//! (Chow–Liu flavored); the deferral rule keeps the draft sparse so the
//! path-neighbor cut-sets of later phases stay small.

use crate::graph::Ug;
use wfbn_core::allpairs::MiMatrix;

/// Runs the drafting phase.
///
/// Returns the draft graph and the deferred pair list (in descending-MI
/// order, the order phase 2 examines them).
pub fn draft(mi: &MiMatrix, epsilon: f64) -> (Ug, Vec<(usize, usize)>) {
    let n = mi.num_vars();
    let mut graph = Ug::new(n);
    let mut deferred = Vec::new();
    for (i, j, _v) in mi.candidate_edges(epsilon) {
        if graph.has_path(i, j) {
            deferred.push((i, j));
        } else {
            graph
                .add_edge(i, j)
                .expect("indices from the matrix are valid");
        }
    }
    (graph, deferred)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfbn_core::allpairs::all_pairs_mi;
    use wfbn_core::construct::waitfree_build;
    use wfbn_data::{CorrelatedChain, Generator, Schema, UniformIndependent};

    fn mi_of(data: &wfbn_data::Dataset) -> MiMatrix {
        let t = waitfree_build(data, 2).unwrap().table;
        all_pairs_mi(&t, 2)
    }

    #[test]
    fn independent_data_drafts_nothing() {
        let data = UniformIndependent::new(Schema::uniform(5, 2).unwrap()).generate(20_000, 2);
        let (g, deferred) = draft(&mi_of(&data), 0.005);
        assert_eq!(g.num_edges(), 0);
        assert!(deferred.is_empty());
    }

    #[test]
    fn chain_data_drafts_a_connected_sparse_graph() {
        let schema = Schema::uniform(6, 2).unwrap();
        let data = CorrelatedChain::new(schema, 0.85)
            .unwrap()
            .generate(50_000, 11);
        let (g, deferred) = draft(&mi_of(&data), 0.005);
        // The draft is a forest over the dependent pairs: ≤ n−1 edges, all
        // six nodes connected (the chain makes every pair dependent).
        assert!(g.num_edges() <= 5);
        assert!((1..6).all(|v| g.has_path(0, v)), "draft not connected");
        // Adjacent chain pairs have the highest MI, so they are drafted
        // first and nothing can beat them to it.
        for i in 0..5 {
            assert!(g.has_edge(i, i + 1), "missing chain edge {i}–{}", i + 1);
        }
        // Distant pairs (also above ε for a 0.85 chain) were deferred.
        assert!(!deferred.is_empty());
        assert!(deferred.iter().all(|&(i, j)| i < j));
    }

    #[test]
    fn deferred_pairs_are_in_descending_mi_order() {
        let schema = Schema::uniform(5, 2).unwrap();
        let data = CorrelatedChain::new(schema, 0.9)
            .unwrap()
            .generate(30_000, 3);
        let mi = mi_of(&data);
        let (_g, deferred) = draft(&mi, 0.005);
        for w in deferred.windows(2) {
            assert!(mi.get(w[0].0, w[0].1) >= mi.get(w[1].0, w[1].1));
        }
    }

    #[test]
    fn epsilon_gates_everything() {
        let schema = Schema::uniform(4, 2).unwrap();
        let data = CorrelatedChain::new(schema, 0.9)
            .unwrap()
            .generate(20_000, 9);
        let (g, deferred) = draft(&mi_of(&data), f64::INFINITY);
        assert_eq!(g.num_edges(), 0);
        assert!(deferred.is_empty());
    }
}
