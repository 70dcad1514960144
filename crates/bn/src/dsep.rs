//! d-separation: graphical conditional independence in a DAG.
//!
//! Implements the *reachable* procedure (Koller & Friedman, Algorithm 3.1):
//! `X ⟂ Y | Z` holds in graph `G` iff no *active trail* connects `X` and
//! `Y` given `Z`. The algorithm walks (node, direction) states — a trail may
//! pass through a node upward (toward parents) or downward (toward
//! children), and collider nodes behave inversely: a collider is traversable
//! only when it or one of its descendants is observed.
//!
//! This module is kept as the d-separation test oracle for
//! `tests/end_to_end.rs` (and the crate's property tests): learned
//! structures are checked against the ground truth's independence
//! statements, and graphical independence must match near-zero conditional
//! MI on sampled data. It is not on any learner or serve path.

use crate::graph::Dag;
use std::collections::VecDeque;

/// Traversal direction through a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dir {
    /// Arrived from a child (moving "up" the edges).
    Up,
    /// Arrived from a parent (moving "down").
    Down,
}

/// `true` if `x` and `y` are d-separated by the conditioning set `z` in `g`.
///
/// # Panics
///
/// Panics if any node index is out of range, or if `x == y`.
///
/// # Examples
///
/// ```
/// use wfbn_bn::dsep::d_separated;
/// use wfbn_bn::Dag;
///
/// // Chain 0 → 1 → 2: ends are dependent, but independent given the middle.
/// let g = Dag::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
/// assert!(!d_separated(&g, 0, 2, &[]));
/// assert!(d_separated(&g, 0, 2, &[1]));
///
/// // Collider 0 → 1 ← 2: ends are independent until the collider is observed.
/// let v = Dag::from_edges(3, &[(0, 1), (2, 1)]).unwrap();
/// assert!(d_separated(&v, 0, 2, &[]));
/// assert!(!d_separated(&v, 0, 2, &[1]));
/// ```
pub fn d_separated(g: &Dag, x: usize, y: usize, z: &[usize]) -> bool {
    let n = g.num_nodes();
    assert!(x < n && y < n, "node out of range");
    assert_ne!(x, y, "d-separation of a node from itself is undefined");
    assert!(z.iter().all(|&v| v < n), "conditioning node out of range");

    let mut observed = vec![false; n];
    for &v in z {
        observed[v] = true;
    }
    if observed[x] || observed[y] {
        // Conventionally a conditioned endpoint separates trivially.
        return true;
    }

    // Ancestors of Z (inclusive): a collider is active iff it is in this set.
    let mut anc_z = observed.clone();
    {
        let mut queue: VecDeque<usize> = z.iter().copied().collect();
        while let Some(v) = queue.pop_front() {
            for &p in g.parents(v) {
                if !anc_z[p] {
                    anc_z[p] = true;
                    queue.push_back(p);
                }
            }
        }
    }

    // BFS over (node, direction) states from x.
    let mut visited = vec![[false; 2]; n];
    let mut queue: VecDeque<(usize, Dir)> = VecDeque::new();
    // Leaving the start node is like arriving from a child: both parent and
    // child moves are allowed.
    queue.push_back((x, Dir::Up));
    visited[x][0] = true;

    while let Some((v, dir)) = queue.pop_front() {
        if v == y {
            return false; // active trail found
        }
        match dir {
            Dir::Up => {
                // Arrived from a child; v is not a collider on this trail.
                if !observed[v] {
                    for &p in g.parents(v) {
                        push(&mut queue, &mut visited, p, Dir::Up);
                    }
                    for &c in g.children(v) {
                        push(&mut queue, &mut visited, c, Dir::Down);
                    }
                }
            }
            Dir::Down => {
                // Arrived from a parent.
                if !observed[v] {
                    // Pass straight through to children.
                    for &c in g.children(v) {
                        push(&mut queue, &mut visited, c, Dir::Down);
                    }
                }
                if anc_z[v] {
                    // v is an active collider (observed or has an observed
                    // descendant): the trail may bounce back up to parents.
                    for &p in g.parents(v) {
                        push(&mut queue, &mut visited, p, Dir::Up);
                    }
                }
            }
        }
    }
    true
}

fn push(queue: &mut VecDeque<(usize, Dir)>, visited: &mut [[bool; 2]], v: usize, dir: Dir) {
    let idx = match dir {
        Dir::Up => 0,
        Dir::Down => 1,
    };
    if !visited[v][idx] {
        visited[v][idx] = true;
        queue.push_back((v, dir));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_fork_collider_triples() {
        // Chain.
        let chain = Dag::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        assert!(!d_separated(&chain, 0, 2, &[]));
        assert!(d_separated(&chain, 0, 2, &[1]));
        // Fork (common cause).
        let fork = Dag::from_edges(3, &[(1, 0), (1, 2)]).unwrap();
        assert!(!d_separated(&fork, 0, 2, &[]));
        assert!(d_separated(&fork, 0, 2, &[1]));
        // Collider (common effect).
        let coll = Dag::from_edges(3, &[(0, 1), (2, 1)]).unwrap();
        assert!(d_separated(&coll, 0, 2, &[]));
        assert!(!d_separated(&coll, 0, 2, &[1]));
    }

    #[test]
    fn observed_descendant_activates_collider() {
        // 0 → 2 ← 1, 2 → 3. Conditioning on 3 opens the collider at 2.
        let g = Dag::from_edges(4, &[(0, 2), (1, 2), (2, 3)]).unwrap();
        assert!(d_separated(&g, 0, 1, &[]));
        assert!(!d_separated(&g, 0, 1, &[3]));
        assert!(!d_separated(&g, 0, 1, &[2, 3]));
    }

    #[test]
    fn figure_one_chain_equivalences() {
        // The paper's Figure 1: 0→1→2, 0←1←2 and 0←1→2 all encode
        // "0 ⟂ 2 | 1" — an I-equivalence class.
        for edges in [
            vec![(0usize, 1usize), (1, 2)],
            vec![(2, 1), (1, 0)],
            vec![(1, 0), (1, 2)],
        ] {
            let g = Dag::from_edges(3, &edges).unwrap();
            assert!(d_separated(&g, 0, 2, &[1]), "{edges:?}");
            assert!(!d_separated(&g, 0, 2, &[]), "{edges:?}");
        }
    }

    #[test]
    fn diamond_needs_both_paths_blocked() {
        // 0 → 1 → 3, 0 → 2 → 3.
        let g = Dag::from_edges(4, &[(0, 1), (1, 3), (0, 2), (2, 3)]).unwrap();
        assert!(!d_separated(&g, 0, 3, &[]));
        assert!(!d_separated(&g, 0, 3, &[1]));
        assert!(!d_separated(&g, 0, 3, &[2]));
        assert!(d_separated(&g, 0, 3, &[1, 2]));
        // 1 and 2 are dependent given 3 (collider) but independent given 0.
        assert!(d_separated(&g, 1, 2, &[0]));
        assert!(!d_separated(&g, 1, 2, &[0, 3]));
    }

    #[test]
    fn disconnected_nodes_are_separated() {
        let g = Dag::from_edges(4, &[(0, 1)]).unwrap();
        assert!(d_separated(&g, 0, 3, &[]));
        assert!(d_separated(&g, 2, 3, &[0, 1]));
    }

    #[test]
    fn conditioned_endpoint_is_separated() {
        let g = Dag::from_edges(2, &[(0, 1)]).unwrap();
        assert!(d_separated(&g, 0, 1, &[0]));
    }

    #[test]
    fn adjacent_nodes_never_separated_without_conditioning_them() {
        let g = Dag::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]).unwrap();
        for (u, v) in g.edges() {
            assert!(!d_separated(&g, u, v, &[]));
            // No subset of other nodes separates adjacent nodes.
            let others: Vec<usize> = (0..5).filter(|&w| w != u && w != v).collect();
            assert!(!d_separated(&g, u, v, &others));
        }
    }

    #[test]
    #[should_panic(expected = "undefined")]
    fn same_node_panics() {
        let g = Dag::new(2);
        let _ = d_separated(&g, 1, 1, &[]);
    }
}
