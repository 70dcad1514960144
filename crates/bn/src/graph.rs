//! Directed acyclic graphs and undirected skeletons.
//!
//! [`Dag`] is the representation of a Bayesian-network structure: parent and
//! child adjacency with cycle-checked insertion and topological ordering
//! (needed by ancestral sampling). [`Ug`] is the undirected working graph
//! the constraint-based learner manipulates: phases 1–3 of Cheng et al.
//! operate purely on the skeleton, asking connectivity and path-neighborhood
//! questions that this module answers.

use core::fmt;
use std::collections::VecDeque;

/// Errors from graph mutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphError {
    /// Adding this directed edge would create a cycle.
    WouldCycle {
        /// Source of the rejected edge.
        from: usize,
        /// Target of the rejected edge.
        to: usize,
    },
    /// A node index is out of range.
    NodeOutOfRange {
        /// The offending index.
        node: usize,
        /// Number of nodes in the graph.
        num_nodes: usize,
    },
    /// Self-loops are not allowed.
    SelfLoop {
        /// The node.
        node: usize,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::WouldCycle { from, to } => {
                write!(f, "edge {from}→{to} would create a cycle")
            }
            GraphError::NodeOutOfRange { node, num_nodes } => {
                write!(f, "node {node} out of range ({num_nodes} nodes)")
            }
            GraphError::SelfLoop { node } => write!(f, "self-loop at node {node}"),
        }
    }
}

impl std::error::Error for GraphError {}

/// A directed acyclic graph over nodes `0..n`.
///
/// # Examples
///
/// ```
/// use wfbn_bn::Dag;
///
/// let mut g = Dag::new(3);
/// g.add_edge(0, 1).unwrap();
/// g.add_edge(1, 2).unwrap();
/// assert!(g.add_edge(2, 0).is_err()); // cycle rejected
/// assert_eq!(g.topological_order(), vec![0, 1, 2]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dag {
    parents: Vec<Vec<usize>>,
    children: Vec<Vec<usize>>,
    num_edges: usize,
}

impl Dag {
    /// An edgeless DAG with `n` nodes.
    pub fn new(n: usize) -> Self {
        Self {
            parents: vec![Vec::new(); n],
            children: vec![Vec::new(); n],
            num_edges: 0,
        }
    }

    /// Builds a DAG from an edge list.
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Result<Self, GraphError> {
        let mut g = Self::new(n);
        for &(u, v) in edges {
            g.add_edge(u, v)?;
        }
        Ok(g)
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.parents.len()
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    fn check_node(&self, node: usize) -> Result<(), GraphError> {
        if node >= self.num_nodes() {
            Err(GraphError::NodeOutOfRange {
                node,
                num_nodes: self.num_nodes(),
            })
        } else {
            Ok(())
        }
    }

    /// Adds the edge `from → to`, rejecting cycles, self-loops, duplicates.
    pub fn add_edge(&mut self, from: usize, to: usize) -> Result<(), GraphError> {
        self.check_node(from)?;
        self.check_node(to)?;
        if from == to {
            return Err(GraphError::SelfLoop { node: from });
        }
        if self.children[from].contains(&to) {
            return Ok(()); // idempotent
        }
        if self.reaches(to, from) {
            return Err(GraphError::WouldCycle { from, to });
        }
        self.children[from].push(to);
        self.parents[to].push(from);
        self.num_edges += 1;
        Ok(())
    }

    /// `true` if a directed path `from ⇝ to` exists (including `from == to`).
    pub fn reaches(&self, from: usize, to: usize) -> bool {
        if from == to {
            return true;
        }
        let mut seen = vec![false; self.num_nodes()];
        let mut queue = VecDeque::from([from]);
        seen[from] = true;
        while let Some(u) = queue.pop_front() {
            for &v in &self.children[u] {
                if v == to {
                    return true;
                }
                if !seen[v] {
                    seen[v] = true;
                    queue.push_back(v);
                }
            }
        }
        false
    }

    /// Parents of `node`.
    pub fn parents(&self, node: usize) -> &[usize] {
        &self.parents[node]
    }

    /// Children of `node`.
    pub fn children(&self, node: usize) -> &[usize] {
        &self.children[node]
    }

    /// All directed edges `(from, to)`.
    pub fn edges(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::with_capacity(self.num_edges);
        for (u, ch) in self.children.iter().enumerate() {
            for &v in ch {
                out.push((u, v));
            }
        }
        out
    }

    /// `true` if either `u → v` or `v → u` exists.
    pub fn adjacent(&self, u: usize, v: usize) -> bool {
        self.children[u].contains(&v) || self.children[v].contains(&u)
    }

    /// A topological order (parents before children).
    ///
    /// # Panics
    ///
    /// Never panics for graphs built through [`add_edge`](Self::add_edge)
    /// (acyclicity is an invariant).
    pub fn topological_order(&self) -> Vec<usize> {
        let n = self.num_nodes();
        let mut indegree: Vec<usize> = (0..n).map(|v| self.parents[v].len()).collect();
        let mut queue: VecDeque<usize> = (0..n).filter(|&v| indegree[v] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(u) = queue.pop_front() {
            order.push(u);
            for &v in &self.children[u] {
                indegree[v] -= 1;
                if indegree[v] == 0 {
                    queue.push_back(v);
                }
            }
        }
        assert_eq!(order.len(), n, "acyclicity invariant violated");
        order
    }

    /// The undirected skeleton.
    pub fn skeleton(&self) -> Ug {
        let mut ug = Ug::new(self.num_nodes());
        for (u, v) in self.edges() {
            ug.add_edge(u, v).expect("nodes in range");
        }
        ug
    }
}

/// An undirected graph over nodes `0..n` (the learner's working skeleton).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ug {
    /// Sorted adjacency lists.
    adj: Vec<Vec<usize>>,
    num_edges: usize,
}

impl Ug {
    /// An edgeless undirected graph with `n` nodes.
    pub fn new(n: usize) -> Self {
        Self {
            adj: vec![Vec::new(); n],
            num_edges: 0,
        }
    }

    /// Builds from an edge list.
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Result<Self, GraphError> {
        let mut g = Self::new(n);
        for &(u, v) in edges {
            g.add_edge(u, v)?;
        }
        Ok(g)
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.adj.len()
    }

    /// Number of undirected edges.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    fn check_node(&self, node: usize) -> Result<(), GraphError> {
        if node >= self.num_nodes() {
            Err(GraphError::NodeOutOfRange {
                node,
                num_nodes: self.num_nodes(),
            })
        } else {
            Ok(())
        }
    }

    /// Adds the undirected edge `{u, v}` (idempotent).
    pub fn add_edge(&mut self, u: usize, v: usize) -> Result<(), GraphError> {
        self.check_node(u)?;
        self.check_node(v)?;
        if u == v {
            return Err(GraphError::SelfLoop { node: u });
        }
        if let Err(pos) = self.adj[u].binary_search(&v) {
            self.adj[u].insert(pos, v);
            let pos_v = self.adj[v].binary_search(&u).unwrap_err();
            self.adj[v].insert(pos_v, u);
            self.num_edges += 1;
        }
        Ok(())
    }

    /// Removes the edge `{u, v}` if present; returns whether it existed.
    pub(crate) fn remove_edge(&mut self, u: usize, v: usize) -> bool {
        if let Ok(pos) = self.adj[u].binary_search(&v) {
            self.adj[u].remove(pos);
            let pos_v = self.adj[v].binary_search(&u).expect("symmetric adjacency");
            self.adj[v].remove(pos_v);
            self.num_edges -= 1;
            true
        } else {
            false
        }
    }

    /// `true` if `{u, v}` is an edge.
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.adj[u].binary_search(&v).is_ok()
    }

    /// Sorted neighbors of `node`.
    pub(crate) fn neighbors(&self, node: usize) -> &[usize] {
        &self.adj[node]
    }

    /// All undirected edges as `(min, max)` pairs, sorted.
    pub fn edges(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::with_capacity(self.num_edges);
        for (u, nbrs) in self.adj.iter().enumerate() {
            for &v in nbrs {
                if u < v {
                    out.push((u, v));
                }
            }
        }
        out
    }

    /// `true` if an undirected path connects `u` and `v`.
    pub(crate) fn has_path(&self, u: usize, v: usize) -> bool {
        if u == v {
            return true;
        }
        let mut seen = vec![false; self.num_nodes()];
        let mut queue = VecDeque::from([u]);
        seen[u] = true;
        while let Some(x) = queue.pop_front() {
            for &y in &self.adj[x] {
                if y == v {
                    return true;
                }
                if !seen[y] {
                    seen[y] = true;
                    queue.push_back(y);
                }
            }
        }
        false
    }

    /// Set of nodes reachable from `from` without passing through `blocked`
    /// (the start node is included; `blocked` nodes never are).
    pub(crate) fn reachable_avoiding(&self, from: usize, blocked: &[usize]) -> Vec<bool> {
        let mut seen = vec![false; self.num_nodes()];
        if blocked.contains(&from) {
            return seen;
        }
        let mut queue = VecDeque::from([from]);
        seen[from] = true;
        while let Some(x) = queue.pop_front() {
            for &y in &self.adj[x] {
                if !seen[y] && !blocked.contains(&y) {
                    seen[y] = true;
                    queue.push_back(y);
                }
            }
        }
        seen
    }

    /// Neighbors of `x` that lie on at least one path from `x` to `y`
    /// (excluding the direct edge `{x, y}` if present).
    ///
    /// This is Cheng et al.'s candidate cut-set: conditioning on these nodes
    /// blocks every indirect connection between `x` and `y`.
    pub(crate) fn path_neighbors(&self, x: usize, y: usize) -> Vec<usize> {
        // A neighbor w ≠ y of x is on an x–y path iff y is reachable from w
        // without going back through x.
        let reach_to_y = {
            // reachable from y avoiding x
            self.reachable_avoiding(y, &[x])
        };
        self.adj[x]
            .iter()
            .copied()
            .filter(|&w| w != y && reach_to_y[w])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dag_rejects_cycles_and_self_loops() {
        let mut g = Dag::new(4);
        g.add_edge(0, 1).unwrap();
        g.add_edge(1, 2).unwrap();
        g.add_edge(2, 3).unwrap();
        assert_eq!(
            g.add_edge(3, 0),
            Err(GraphError::WouldCycle { from: 3, to: 0 })
        );
        assert_eq!(g.add_edge(1, 1), Err(GraphError::SelfLoop { node: 1 }));
        assert_eq!(
            g.add_edge(0, 9),
            Err(GraphError::NodeOutOfRange {
                node: 9,
                num_nodes: 4
            })
        );
        assert_eq!(g.num_edges(), 3);
    }

    #[test]
    fn dag_add_edge_is_idempotent() {
        let mut g = Dag::new(2);
        g.add_edge(0, 1).unwrap();
        g.add_edge(0, 1).unwrap();
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn topological_order_respects_edges() {
        let g = Dag::from_edges(6, &[(5, 0), (5, 2), (2, 3), (3, 1), (4, 0), (4, 1)]).unwrap();
        let order = g.topological_order();
        let pos: Vec<usize> = {
            let mut p = vec![0; 6];
            for (i, &v) in order.iter().enumerate() {
                p[v] = i;
            }
            p
        };
        for (u, v) in g.edges() {
            assert!(pos[u] < pos[v], "{u}→{v} violated in {order:?}");
        }
    }

    #[test]
    fn reaches_and_adjacent() {
        let g = Dag::from_edges(4, &[(0, 1), (1, 2)]).unwrap();
        assert!(g.reaches(0, 2));
        assert!(!g.reaches(2, 0));
        assert!(g.adjacent(0, 1));
        assert!(g.adjacent(1, 0));
        assert!(!g.adjacent(0, 2));
    }

    #[test]
    fn skeleton_drops_directions() {
        let g = Dag::from_edges(3, &[(0, 1), (2, 1)]).unwrap();
        let s = g.skeleton();
        assert!(s.has_edge(0, 1) && s.has_edge(1, 0));
        assert!(s.has_edge(1, 2));
        assert!(!s.has_edge(0, 2));
        assert_eq!(s.num_edges(), 2);
    }

    #[test]
    fn ug_add_remove_round_trip() {
        let mut g = Ug::new(5);
        g.add_edge(0, 3).unwrap();
        g.add_edge(3, 0).unwrap(); // idempotent, either order
        assert_eq!(g.num_edges(), 1);
        assert!(g.remove_edge(3, 0));
        assert!(!g.remove_edge(0, 3));
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn ug_paths_and_components() {
        let g = Ug::from_edges(6, &[(0, 1), (1, 2), (3, 4)]).unwrap();
        assert!(g.has_path(0, 2));
        assert!(!g.has_path(0, 3));
        assert!(g.has_path(5, 5));
        assert!(g.has_path(3, 4));
        assert!(!g.has_path(5, 0));
    }

    #[test]
    fn path_neighbors_identifies_cut_candidates() {
        //      1
        //    /   \
        //  0       3      and a stray neighbor 4 of 0 off-path,
        //    \   /        plus direct edge 0–3 to be ignored.
        //      2
        let mut g = Ug::from_edges(5, &[(0, 1), (1, 3), (0, 2), (2, 3), (0, 4)]).unwrap();
        g.add_edge(0, 3).unwrap();
        let mut cut = g.path_neighbors(0, 3);
        cut.sort_unstable();
        assert_eq!(cut, vec![1, 2], "4 is off-path, 3 is the endpoint");
    }

    #[test]
    fn reachable_avoiding_blocks() {
        let g = Ug::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let r = g.reachable_avoiding(0, &[1]);
        assert!(r[0] && !r[1] && !r[2] && !r[3]);
        let r = g.reachable_avoiding(0, &[]);
        assert!(r.iter().all(|&b| b));
        let r = g.reachable_avoiding(0, &[0]);
        assert!(r.iter().all(|&b| !b));
    }

    #[test]
    fn edges_listing_is_sorted_and_unique() {
        let g = Ug::from_edges(4, &[(2, 1), (0, 3), (1, 0)]).unwrap();
        assert_eq!(g.edges(), vec![(0, 1), (0, 3), (1, 2)]);
    }
}
