//! Partially directed graphs (patterns / CPDAGs).
//!
//! Constraint-based learning can only determine edge *directions* up to the
//! I-equivalence class (the paper's Figure 1: chains and forks over the same
//! skeleton encode the same independencies). The class is represented by a
//! pattern: v-structure edges are directed, the rest stay undirected until
//! Meek's propagation rules force them. [`PDag`] is that mixed graph.

use crate::graph::Ug;

/// The state of an ordered pair `(u, v)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeMark {
    /// No edge between the pair.
    None,
    /// Undirected edge `u — v`.
    Undirected,
    /// Directed edge `u → v`.
    Directed,
}

/// A partially directed acyclic graph over nodes `0..n`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PDag {
    n: usize,
    /// `marks[u * n + v]`: `Directed` means `u → v`; `Undirected` is stored
    /// symmetrically.
    marks: Vec<EdgeMark>,
}

impl PDag {
    /// An edgeless pattern.
    pub fn new(n: usize) -> Self {
        Self {
            n,
            marks: vec![EdgeMark::None; n * n],
        }
    }

    /// Starts from a skeleton with every edge undirected.
    pub(crate) fn from_skeleton(skeleton: &Ug) -> Self {
        let n = skeleton.num_nodes();
        let mut p = Self::new(n);
        for (u, v) in skeleton.edges() {
            p.marks[u * n + v] = EdgeMark::Undirected;
            p.marks[v * n + u] = EdgeMark::Undirected;
        }
        p
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// The mark on the ordered pair `(u, v)`.
    pub fn mark(&self, u: usize, v: usize) -> EdgeMark {
        self.marks[u * self.n + v]
    }

    /// `true` if any edge (directed either way or undirected) joins the pair.
    pub fn adjacent(&self, u: usize, v: usize) -> bool {
        self.mark(u, v) != EdgeMark::None || self.mark(v, u) != EdgeMark::None
    }

    /// `true` if `u → v`.
    pub fn is_directed(&self, u: usize, v: usize) -> bool {
        self.mark(u, v) == EdgeMark::Directed
    }

    /// `true` if `u — v` (undirected).
    pub(crate) fn is_undirected(&self, u: usize, v: usize) -> bool {
        self.mark(u, v) == EdgeMark::Undirected
    }

    /// Directs `u — v` into `u → v`.
    ///
    /// Returns `false` (and changes nothing) unless the pair currently holds
    /// an undirected edge — orientation never overrides an existing arrow,
    /// so conflicting v-structure proposals resolve first-come.
    pub fn orient(&mut self, u: usize, v: usize) -> bool {
        if self.is_undirected(u, v) {
            self.marks[u * self.n + v] = EdgeMark::Directed;
            self.marks[v * self.n + u] = EdgeMark::None;
            true
        } else {
            false
        }
    }

    /// All directed edges.
    pub fn directed_edges(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for u in 0..self.n {
            for v in 0..self.n {
                if self.is_directed(u, v) {
                    out.push((u, v));
                }
            }
        }
        out
    }

    /// All undirected edges as `(min, max)`.
    pub fn undirected_edges(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for u in 0..self.n {
            for v in (u + 1)..self.n {
                if self.is_undirected(u, v) {
                    out.push((u, v));
                }
            }
        }
        out
    }

    /// Total number of edges of either kind.
    pub fn num_edges(&self) -> usize {
        self.directed_edges().len() + self.undirected_edges().len()
    }

    /// Applies Meek's propagation rules R1–R3 to a fixpoint.
    ///
    /// (R4 is required only in the presence of background-knowledge
    /// orientations, which this learner does not inject; R1–R3 are complete
    /// for patterns whose initial arrows all come from v-structures.)
    pub(crate) fn apply_meek_rules(&mut self) {
        let n = self.n;
        loop {
            let mut changed = false;
            for a in 0..n {
                for b in 0..n {
                    if !self.is_directed(a, b) {
                        continue;
                    }
                    // R1: a → b, b — c, a ∦ c ⇒ b → c.
                    for c in 0..n {
                        if c != a && self.is_undirected(b, c) && !self.adjacent(a, c) {
                            changed |= self.orient(b, c);
                        }
                    }
                    // R2: a → b, b → c, a — c ⇒ a → c.
                    for c in 0..n {
                        if self.is_directed(b, c) && self.is_undirected(a, c) {
                            changed |= self.orient(a, c);
                        }
                    }
                }
            }
            // R3: a — b, a — c, a — d, c → b, d → b, c ∦ d ⇒ a → b.
            for a in 0..n {
                for b in 0..n {
                    if !self.is_undirected(a, b) {
                        continue;
                    }
                    let spouses: Vec<usize> = (0..n)
                        .filter(|&c| self.is_undirected(a, c) && self.is_directed(c, b))
                        .collect();
                    let found = spouses
                        .iter()
                        .enumerate()
                        .any(|(i, &c)| spouses[i + 1..].iter().any(|&d| !self.adjacent(c, d)));
                    if found && self.orient(a, b) {
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
    }
}

impl PDag {
    /// Finds a DAG that is a *consistent extension* of this pattern: it
    /// keeps every directed edge, orients every undirected edge, and
    /// creates neither cycles nor new v-structures. Returns `None` when no
    /// such extension exists (possible for patterns that did not come from
    /// a DAG, e.g. under CI-test errors).
    ///
    /// Implements Dor & Tarsi's algorithm: repeatedly find a *sink
    /// candidate* `x` — no outgoing arrows among active nodes, and every
    /// undirected neighbor of `x` adjacent to all other neighbors of `x` —
    /// orient all of `x`'s undirected edges *into* `x`, and retire `x`.
    ///
    /// Parameter fitting on a learned pattern goes through this: CPTs need
    /// a concrete DAG, and any consistent extension is I-equivalent to any
    /// other.
    pub fn consistent_extension(&self) -> Option<crate::graph::Dag> {
        let n = self.n;
        let mut work = self.clone();
        let mut active = vec![true; n];
        let mut oriented: Vec<(usize, usize)> = self.directed_edges();
        let mut remaining = n;
        while remaining > 0 {
            let candidate = (0..n).filter(|&x| active[x]).find(|&x| {
                // (a) No outgoing arrow to an active node.
                let no_out = (0..n).all(|y| !(active[y] && work.is_directed(x, y)));
                if !no_out {
                    return false;
                }
                // (b) Every active undirected neighbor y of x is adjacent
                // to every other active neighbor of x.
                let neighbors: Vec<usize> = (0..n)
                    .filter(|&y| active[y] && work.adjacent(x, y))
                    .collect();
                neighbors.iter().all(|&y| {
                    !work.is_undirected(x, y)
                        || neighbors.iter().all(|&z| z == y || work.adjacent(y, z))
                })
            })?;
            // Orient undirected edges into the sink candidate, retire it.
            for (y, &is_active) in active.iter().enumerate() {
                if is_active && work.is_undirected(candidate, y) {
                    work.orient(y, candidate);
                    oriented.push((y, candidate));
                }
            }
            active[candidate] = false;
            remaining -= 1;
        }
        crate::graph::Dag::from_edges(n, &oriented).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn skel(n: usize, edges: &[(usize, usize)]) -> Ug {
        Ug::from_edges(n, edges).unwrap()
    }

    #[test]
    fn from_skeleton_all_undirected() {
        let p = PDag::from_skeleton(&skel(3, &[(0, 1), (1, 2)]));
        assert!(p.is_undirected(0, 1));
        assert!(p.is_undirected(1, 0));
        assert!(!p.adjacent(0, 2));
        assert_eq!(p.num_edges(), 2);
    }

    #[test]
    fn orient_is_one_shot() {
        let mut p = PDag::from_skeleton(&skel(2, &[(0, 1)]));
        assert!(p.orient(0, 1));
        assert!(p.is_directed(0, 1));
        assert!(!p.is_directed(1, 0));
        assert!(!p.is_undirected(1, 0));
        // Cannot re-orient or reverse.
        assert!(!p.orient(1, 0));
        assert!(!p.orient(0, 1));
        assert_eq!(p.directed_edges(), vec![(0, 1)]);
    }

    #[test]
    fn meek_r1_propagates_along_chains() {
        // 0 → 1 — 2 with 0 ∦ 2 forces 1 → 2.
        let mut p = PDag::from_skeleton(&skel(3, &[(0, 1), (1, 2)]));
        p.orient(0, 1);
        p.apply_meek_rules();
        assert!(p.is_directed(1, 2));
    }

    #[test]
    fn meek_r2_closes_triangles() {
        // 0 → 1 → 2, 0 — 2 forces 0 → 2 (else a cycle).
        let mut p = PDag::from_skeleton(&skel(3, &[(0, 1), (1, 2), (0, 2)]));
        p.orient(0, 1);
        p.orient(1, 2);
        p.apply_meek_rules();
        assert!(p.is_directed(0, 2));
    }

    #[test]
    fn meek_r3_orients_the_hub() {
        // a=0 — b=1; 0 — 2, 0 — 3; 2 → 1, 3 → 1; 2 ∦ 3 ⇒ 0 → 1.
        let mut p = PDag::from_skeleton(&skel(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]));
        p.orient(2, 1);
        p.orient(3, 1);
        p.apply_meek_rules();
        assert!(p.is_directed(0, 1));
    }

    #[test]
    fn extension_of_undirected_chain_is_any_chain_orientation() {
        let p = PDag::from_skeleton(&skel(4, &[(0, 1), (1, 2), (2, 3)]));
        let dag = p.consistent_extension().expect("chains extend");
        assert_eq!(dag.num_edges(), 3);
        // No new v-structure: every node has at most... in a chain
        // skeleton, no node may acquire two non-adjacent parents.
        for v in 0..4 {
            let parents = dag.parents(v);
            for (i, &a) in parents.iter().enumerate() {
                for &b in &parents[i + 1..] {
                    assert!(dag.adjacent(a, b), "new v-structure at {v}");
                }
            }
        }
    }

    #[test]
    fn extension_preserves_existing_arrows() {
        let mut p = PDag::from_skeleton(&skel(3, &[(0, 2), (1, 2)]));
        p.orient(0, 2);
        p.orient(1, 2);
        let dag = p.consistent_extension().expect("collider extends");
        assert!(dag.children(0).contains(&2));
        assert!(dag.children(1).contains(&2));
    }

    #[test]
    fn cyclic_pattern_has_no_extension() {
        // Directed 3-cycle: 0→1→2→0 (not a valid pattern, but robustness).
        let mut p = PDag::from_skeleton(&skel(3, &[(0, 1), (1, 2), (0, 2)]));
        p.orient(0, 1);
        p.orient(1, 2);
        p.orient(2, 0);
        assert!(p.consistent_extension().is_none());
    }

    #[test]
    fn extension_of_a_real_cpdag_round_trips_i_equivalence() {
        use crate::graph::Dag;
        use crate::metrics::dag_to_cpdag;
        // Random-ish DAG → CPDAG → extension → CPDAG must be identical.
        let dag = Dag::from_edges(6, &[(0, 2), (1, 2), (2, 3), (3, 4), (1, 5), (5, 4)]).unwrap();
        let pattern = dag_to_cpdag(&dag);
        let ext = pattern.consistent_extension().expect("valid pattern");
        let pattern2 = dag_to_cpdag(&ext);
        assert_eq!(
            crate::metrics::cpdag_shd(&pattern, &pattern2),
            0,
            "extension must stay in the I-equivalence class"
        );
    }

    #[test]
    fn meek_leaves_underdetermined_edges_alone() {
        // A lone undirected edge stays undirected.
        let mut p = PDag::from_skeleton(&skel(2, &[(0, 1)]));
        p.apply_meek_rules();
        assert!(p.is_undirected(0, 1));
        // A pure chain skeleton with no v-structure stays fully undirected.
        let mut p = PDag::from_skeleton(&skel(4, &[(0, 1), (1, 2), (2, 3)]));
        p.apply_meek_rules();
        assert_eq!(p.undirected_edges().len(), 3);
        assert!(p.directed_edges().is_empty());
    }
}
