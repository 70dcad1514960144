//! The Chow–Liu tree learner — a classic baseline sharing the paper's
//! all-pairs MI computation.
//!
//! Chow & Liu (1968; reference 6 of the paper) showed the maximum-
//! likelihood *tree*-structured distribution is the maximum-weight spanning
//! tree of the pairwise mutual-information graph. Since the drafting phase
//! already computes exactly that MI matrix with the parallel primitives,
//! Chow–Liu comes nearly for free — and it is the natural baseline for the
//! three-phase learner: Cheng et al.'s draft *is* a thresholded spanning
//! forest, and phases 2–3 exist to add/remove the non-tree edges Chow–Liu
//! cannot represent.

use crate::graph::{Dag, Ug};
use wfbn_core::allpairs::MiMatrix;

/// Disjoint-set union with path halving + union by size.
struct Dsu {
    parent: Vec<usize>,
    size: Vec<usize>,
}

impl Dsu {
    fn new(n: usize) -> Self {
        Self {
            parent: (0..n).collect(),
            size: vec![1; n],
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    /// Unites the sets of `a` and `b`; returns `false` if already united.
    fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (big, small) = if self.size[ra] >= self.size[rb] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[small] = big;
        self.size[big] += self.size[small];
        true
    }
}

/// Result of a Chow–Liu run.
#[derive(Debug, Clone)]
pub struct ChowLiuTree {
    /// The undirected maximum-weight spanning forest.
    pub skeleton: Ug,
    /// The same tree directed away from node 0 (any root yields an
    /// I-equivalent tree — the paper's Figure 1 chain equivalence).
    pub dag: Dag,
    /// Total mutual information captured by the tree (nats) — the
    /// log-likelihood gain over the independent model, per sample.
    pub total_mi: f64,
}

/// Learns the Chow–Liu tree from an all-pairs MI matrix.
///
/// Edges with `MI ≤ min_mi` are never added, so disconnected (independent)
/// variable groups yield a *forest* rather than a spurious tree.
///
/// # Examples
///
/// ```
/// use wfbn_bn::chowliu::chow_liu;
/// use wfbn_core::{allpairs::all_pairs_mi, construct::waitfree_build};
/// use wfbn_data::{CorrelatedChain, Generator, Schema};
///
/// let schema = Schema::uniform(6, 2).unwrap();
/// let data = CorrelatedChain::new(schema, 0.85).unwrap().generate(30_000, 3);
/// let table = waitfree_build(&data, 2).unwrap().table;
/// let tree = chow_liu(&all_pairs_mi(&table, 2), 1e-3);
/// // The generator is a chain: the tree must recover exactly its edges.
/// assert_eq!(tree.skeleton.num_edges(), 5);
/// ```
pub fn chow_liu(mi: &MiMatrix, min_mi: f64) -> ChowLiuTree {
    let n = mi.num_vars();
    // Kruskal on descending MI.
    let edges = mi.candidate_edges(min_mi);
    let mut dsu = Dsu::new(n);
    let mut skeleton = Ug::new(n);
    let mut total_mi = 0.0;
    for (i, j, w) in edges {
        if dsu.union(i, j) {
            skeleton.add_edge(i, j).expect("matrix indices are valid");
            total_mi += w;
            if skeleton.num_edges() == n.saturating_sub(1) {
                break;
            }
        }
    }
    // Direct away from the lowest-index node of each component (BFS).
    let mut dag = Dag::new(n);
    let mut seen = vec![false; n];
    for root in 0..n {
        if seen[root] {
            continue;
        }
        seen[root] = true;
        let mut queue = std::collections::VecDeque::from([root]);
        while let Some(u) = queue.pop_front() {
            for &v in skeleton.neighbors(u) {
                if !seen[v] {
                    seen[v] = true;
                    dag.add_edge(u, v).expect("tree edges cannot cycle");
                    queue.push_back(v);
                }
            }
        }
    }
    ChowLiuTree {
        skeleton,
        dag,
        total_mi,
    }
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
    fn recovers_a_chain_exactly() {
        let schema = Schema::uniform(7, 2).unwrap();
        let data = CorrelatedChain::new(schema, 0.8)
            .unwrap()
            .generate(50_000, 5);
        let tree = chow_liu(&mi_of(&data), 1e-3);
        for i in 0..6 {
            assert!(tree.skeleton.has_edge(i, i + 1), "missing {i}–{}", i + 1);
        }
        assert_eq!(tree.skeleton.num_edges(), 6);
        assert!(tree.total_mi > 6.0 * 0.1);
    }

    #[test]
    fn independent_data_yields_an_empty_forest() {
        let schema = Schema::uniform(5, 2).unwrap();
        let data = UniformIndependent::new(schema).generate(30_000, 2);
        let tree = chow_liu(&mi_of(&data), 1e-3);
        assert_eq!(tree.skeleton.num_edges(), 0);
        assert_eq!(tree.dag.num_edges(), 0);
        assert_eq!(tree.total_mi, 0.0);
    }

    #[test]
    fn directed_version_is_a_forest_with_one_root_per_component() {
        let schema = Schema::uniform(6, 2).unwrap();
        let data = CorrelatedChain::new(schema, 0.9)
            .unwrap()
            .generate(30_000, 8);
        let tree = chow_liu(&mi_of(&data), 1e-3);
        // Every non-root node has exactly one parent.
        let roots = (0..6).filter(|&v| tree.dag.parents(v).is_empty()).count();
        // One representative per component: its lowest-numbered node.
        let num_components = (0..6)
            .filter(|&v| (0..v).all(|u| !tree.skeleton.has_path(u, v)))
            .count();
        assert_eq!(roots, num_components);
        for v in 0..6 {
            assert!(tree.dag.parents(v).len() <= 1, "trees have ≤1 parent");
        }
    }

    #[test]
    fn tree_is_a_subset_of_pairs_above_threshold() {
        let schema = Schema::uniform(6, 2).unwrap();
        let data = CorrelatedChain::new(schema, 0.6)
            .unwrap()
            .generate(30_000, 4);
        let mi = mi_of(&data);
        let tree = chow_liu(&mi, 0.02);
        for (i, j) in tree.skeleton.edges() {
            assert!(mi.get(i, j) > 0.02);
        }
    }

    #[test]
    fn dsu_unions_and_finds() {
        let mut d = Dsu::new(5);
        assert!(d.union(0, 1));
        assert!(d.union(1, 2));
        assert!(!d.union(0, 2));
        assert_eq!(d.find(2), d.find(0));
        assert_ne!(d.find(3), d.find(0));
    }
}
