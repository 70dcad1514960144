//! All-pairs mutual information — the drafting phase's statistics test
//! (paper Algorithm 4).
//!
//! Cheng et al.'s first phase evaluates `I(Xᵢ; Xⱼ)` for **every** pair of
//! variables. For each pair the paper computes the pairwise joint
//! `P(x, y)`, derives both singleton marginals from the joint (its
//! optimization eliminating two of the three marginalization passes), and
//! evaluates Equation 1.
//!
//! The paper's Algorithm 4 deals the `n(n−1)/2` pairs over the cores, and
//! each pair rescans the whole table: `n(n−1)/2` passes, each decoding two
//! variables per entry with a divide and a modulo. [`all_pairs_mi`] instead
//! parallelizes over the table: each core walks its own partitions once, in
//! bounded tiles. A tile's entries are decoded once into bit fields (the
//! layout of [`PackedTable`](crate::marginal::PackedTable)), then every
//! pair's joint absorbs the tile with a shift and a mask per variable. The
//! per-core joints merge by exact integer sums, so the matrix is
//! bit-identical to evaluating each pair on `marginalize(&[i, j])`, at any
//! thread count. (The PRAM simulator in `wfbn-pram` still models the
//! paper's pair-parallel schedule.)

use crate::entropy::mutual_information;
use crate::marginal::{MarginalTable, PackLayout, TILE};
use crate::potential::PotentialTable;
use wfbn_concurrent::{pair_count, run_on_threads_with};
use wfbn_obs::{CoreRecorder, Counter, NoopRecorder, Recorder, Stage};

/// Symmetric matrix of pairwise mutual information values (nats).
#[derive(Debug, Clone, PartialEq)]
pub struct MiMatrix {
    n: usize,
    /// Strict upper triangle, row-major: (0,1), (0,2), …, (n−2,n−1).
    values: Vec<f64>,
}

impl MiMatrix {
    fn zeroed(n: usize) -> Self {
        Self {
            n,
            values: vec![0.0; pair_count(n)],
        }
    }

    #[inline]
    fn flat_index(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < j && j < self.n);
        // Elements before row i: Σ_{k<i} (n−1−k) = i·(2n−i−1)/2.
        i * (2 * self.n - i - 1) / 2 + (j - i - 1)
    }

    /// Number of variables `n`.
    pub fn num_vars(&self) -> usize {
        self.n
    }

    /// `I(Xᵢ; Xⱼ)`; symmetric, and 0 on the diagonal by convention.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.n && j < self.n, "index out of range");
        match i.cmp(&j) {
            core::cmp::Ordering::Less => self.values[self.flat_index(i, j)],
            core::cmp::Ordering::Greater => self.values[self.flat_index(j, i)],
            core::cmp::Ordering::Equal => 0.0,
        }
    }

    fn set(&mut self, i: usize, j: usize, value: f64) {
        let idx = self.flat_index(i, j);
        self.values[idx] = value;
    }

    /// Iterates `(i, j, I(Xᵢ;Xⱼ))` over the strict upper triangle.
    pub fn iter_pairs(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.n).flat_map(move |i| ((i + 1)..self.n).map(move |j| (i, j, self.get(i, j))))
    }

    /// Pairs with MI strictly above `threshold`, sorted by MI descending —
    /// the candidate-edge list the drafting phase consumes.
    pub fn candidate_edges(&self, threshold: f64) -> Vec<(usize, usize, f64)> {
        let mut edges: Vec<(usize, usize, f64)> = self
            .iter_pairs()
            .filter(|&(_, _, mi)| mi > threshold)
            .collect();
        edges.sort_by(|a, b| b.2.partial_cmp(&a.2).expect("MI is never NaN"));
        edges
    }

    /// Largest absolute difference against another matrix (test helper).
    pub fn max_abs_diff(&self, other: &MiMatrix) -> f64 {
        assert_eq!(self.n, other.n);
        self.values
            .iter()
            .zip(&other.values)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }
}

/// Computes all-pairs MI on `threads` threads.
///
/// # Examples
///
/// ```
/// use wfbn_core::{allpairs::all_pairs_mi, construct::waitfree_build};
/// use wfbn_data::{CorrelatedChain, Generator, Schema};
///
/// let schema = Schema::uniform(5, 2).unwrap();
/// let data = CorrelatedChain::new(schema, 0.9).unwrap().generate(20_000, 3);
/// let table = waitfree_build(&data, 2).unwrap().table;
/// let mi = all_pairs_mi(&table, 2);
/// // Adjacent chain variables share more information than distant ones.
/// assert!(mi.get(0, 1) > mi.get(0, 4));
/// ```
pub fn all_pairs_mi(table: &PotentialTable, threads: usize) -> MiMatrix {
    all_pairs_mi_recorded(table, threads, &NoopRecorder)
}

/// [`all_pairs_mi`] with telemetry: each scan thread attributes its wall
/// time to [`Stage::Marginal`] and counts the entries it packed under
/// [`Counter::EntriesScanned`] (each entry once per call); the merging core
/// records the `n(n−1)/2` evaluated pairs under [`Counter::PairsScanned`].
///
/// # Panics
///
/// Panics if `threads == 0`.
pub fn all_pairs_mi_recorded<R: Recorder>(
    table: &PotentialTable,
    threads: usize,
    rec: &R,
) -> MiMatrix {
    assert!(threads > 0, "need at least one thread");
    let codec = table.codec();
    let n = codec.num_vars();
    let layout = PackLayout::new(codec);
    let p = table.num_partitions();
    let t = threads.min(p);

    // The joint of the q-th pair (i, j), in `iter_pairs` order, occupies
    // cells offsets[q]..offsets[q + 1], laid out like `marginalize(&[i, j])`.
    let mut offsets = Vec::with_capacity(pair_count(n) + 1);
    offsets.push(0);
    for (i, fi) in layout.fields.iter().enumerate() {
        for fj in &layout.fields[i + 1..] {
            offsets.push(offsets[offsets.len() - 1] + (fi.arity * fj.arity) as usize);
        }
    }
    let cells = offsets[offsets.len() - 1];

    // Each thread's joints and tile buffer come from the calling thread, so
    // their memory goes back to its allocator when the call returns.
    let mut partials = vec![vec![0u64; cells]; t];
    let mut tiles = vec![vec![0u64; layout.words * TILE]; t];
    let inputs: Vec<_> = partials.iter_mut().zip(&mut tiles).collect();
    run_on_threads_with(inputs, |tid, (joints, words)| {
        let mut cr = rec.core(tid);
        let t0 = cr.now();
        let mut counts = [0u64; TILE];
        let mut entries = (tid..p).step_by(t).flat_map(|i| table.partition(i).iter());
        let mut scanned = 0u64;
        let mut len = layout.pack(&mut entries, TILE, words, &mut counts);
        while len > 0 {
            scanned += len as u64;
            accumulate_tile(&layout, &offsets, words, &counts[..len], joints);
            len = layout.pack(&mut entries, TILE, words, &mut counts);
        }
        cr.stage_ns(Stage::Marginal, cr.now().saturating_sub(t0));
        cr.add(Counter::EntriesScanned, scanned);
    });

    // Merge the partial joints (exact integer sums), then evaluate each pair.
    let (joints, rest) = partials.split_first_mut().expect("at least one thread");
    for partial in rest {
        for (a, b) in joints.iter_mut().zip(partial.iter()) {
            *a += b;
        }
    }
    let total = table.total_count();
    let mut matrix = MiMatrix::zeroed(n);
    let mut q = 0;
    for i in 0..n {
        for j in (i + 1)..n {
            let pair = MarginalTable::from_raw_parts(
                vec![i, j],
                vec![codec.arity(i), codec.arity(j)],
                joints[offsets[q]..offsets[q + 1]].to_vec(),
                total,
            );
            matrix.set(i, j, mutual_information(&pair));
            q += 1;
        }
    }
    // The merge runs on the calling thread after the scan threads have
    // joined, so reusing core 0's handle stays single-writer.
    let mut cr = rec.core(0);
    cr.add(Counter::PairsScanned, pair_count(n) as u64);
    matrix
}

/// Adds one packed tile (`words` holds `TILE`-long columns) into every
/// pair's joint: pair by pair, so the inner loop reads two columns with a
/// fixed shift and mask and scatters into one small, L1-resident joint.
fn accumulate_tile(
    layout: &PackLayout,
    offsets: &[usize],
    words: &[u64],
    counts: &[u64],
    joints: &mut [u64],
) {
    let len = counts.len();
    let mut q = 0;
    for (i, fi) in layout.fields.iter().enumerate() {
        let col_i = &words[fi.word * TILE..][..len];
        for fj in &layout.fields[i + 1..] {
            let col_j = &words[fj.word * TILE..][..len];
            let joint = &mut joints[offsets[q]..offsets[q + 1]];
            for ((&wi, &wj), &count) in col_i.iter().zip(col_j).zip(counts) {
                let x = (wi >> fi.shift) & fi.mask;
                let y = (wj >> fj.shift) & fj.mask;
                joint[(y * fi.arity + x) as usize] += count;
            }
            q += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::marginal::marginalize;
    use wfbn_data::{CorrelatedChain, Dataset, Generator, Schema, UniformIndependent};

    fn build_for_tests(data: &Dataset, p: usize) -> PotentialTable {
        crate::construct::waitfree_build(data, p).unwrap().table
    }

    /// Per-pair oracle: the paper's formulation, one `marginalize` per pair.
    fn per_pair_oracle(table: &PotentialTable, i: usize, j: usize) -> f64 {
        mutual_information(&marginalize(table, &[i, j], 1).unwrap())
    }

    #[test]
    fn pairwise_schedules_agree() {
        // Mixed arities, 1–4 threads over 3 partitions (4 is clamped), and
        // tables both smaller and larger than one tile.
        let schema = Schema::new(vec![2, 3, 2, 4, 2, 3, 5]).unwrap();
        for rows in [300, 8_000] {
            let data = CorrelatedChain::new(schema.clone(), 0.6)
                .unwrap()
                .generate(rows, 21);
            let table = build_for_tests(&data, 3);
            assert!(rows < 1_000 || table.num_entries() > TILE);
            for threads in [1, 2, 4] {
                let mi = all_pairs_mi(&table, threads);
                for (i, j, v) in mi.iter_pairs() {
                    assert_eq!(v, per_pair_oracle(&table, i, j), "({i},{j}) at P={threads}");
                }
            }
        }
    }

    #[test]
    fn chain_structure_is_visible_in_the_matrix() {
        let schema = Schema::uniform(6, 2).unwrap();
        let data = CorrelatedChain::new(schema, 0.85)
            .unwrap()
            .generate(40_000, 7);
        let table = build_for_tests(&data, 4);
        let mi = all_pairs_mi(&table, 2);
        for i in 0..5 {
            assert!(
                mi.get(i, i + 1) > 0.15,
                "adjacent pair ({i},{}) too weak: {}",
                i + 1,
                mi.get(i, i + 1)
            );
        }
        assert!(
            mi.get(0, 5) < mi.get(0, 1),
            "MI should decay along the chain"
        );
    }

    #[test]
    fn independent_data_yields_tiny_values() {
        let schema = Schema::uniform(5, 2).unwrap();
        let data = UniformIndependent::new(schema).generate(50_000, 2);
        let table = build_for_tests(&data, 2);
        let mi = all_pairs_mi(&table, 2);
        for (_, _, v) in mi.iter_pairs() {
            assert!(v >= 0.0);
            assert!(v < 1e-3, "independent pair with MI {v}");
        }
    }

    #[test]
    fn matrix_is_symmetric_with_zero_diagonal() {
        let schema = Schema::uniform(4, 2).unwrap();
        let data = CorrelatedChain::new(schema, 0.5)
            .unwrap()
            .generate(5_000, 9);
        let table = build_for_tests(&data, 2);
        let mi = all_pairs_mi(&table, 2);
        for i in 0..4 {
            assert_eq!(mi.get(i, i), 0.0);
            for j in 0..4 {
                assert_eq!(mi.get(i, j), mi.get(j, i));
            }
        }
    }

    #[test]
    fn candidate_edges_sorted_descending() {
        let schema = Schema::uniform(5, 2).unwrap();
        let data = CorrelatedChain::new(schema, 0.8)
            .unwrap()
            .generate(20_000, 4);
        let table = build_for_tests(&data, 2);
        let mi = all_pairs_mi(&table, 2);
        let edges = mi.candidate_edges(0.01);
        assert!(!edges.is_empty());
        for w in edges.windows(2) {
            assert!(w[0].2 >= w[1].2);
        }
        for &(i, j, v) in &edges {
            assert!(i < j);
            assert!(v > 0.01);
        }
    }

    #[test]
    fn iter_pairs_covers_triangle() {
        let schema = Schema::uniform(7, 2).unwrap();
        let data = UniformIndependent::new(schema).generate(1_000, 1);
        let table = build_for_tests(&data, 2);
        let mi = all_pairs_mi(&table, 3);
        let pairs: Vec<(usize, usize)> = mi.iter_pairs().map(|(i, j, _)| (i, j)).collect();
        assert_eq!(pairs.len(), pair_count(7));
        let unique: std::collections::HashSet<_> = pairs.iter().collect();
        assert_eq!(unique.len(), pairs.len());
    }
}
