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
//! blocks of 4 096 entries decoded into bit fields and bit-sliced (the
//! blocks of a [`PackedTable`], built by the same routine), and counts
//! every pair's joint from each block:
//!
//! - a pair with `(r_i − 1)(r_j − 1) ≤ SLICE_CELLS` is **bit-sliced**: the
//!   block keeps one bitmap per variable state `a < r_v − 1` and the bit
//!   planes of `count − 1`, and each of the pair's cells below the last row
//!   and column is an AND and a popcount per 64 entries (plus one per
//!   non-zero plane word). The last row, last column and corner follow
//!   from the singles and the total, counted the same way;
//! - a wider pair keeps the tile fold: a shift, a mask and a scatter per
//!   entry.
//!
//! Both kernels count exactly, and the per-core joints merge by exact
//! integer sums, so the matrix is bit-identical to evaluating each pair on
//! `marginalize(&[i, j])`, at any thread count. [`all_pairs_mi`] streams
//! its blocks, one per thread at a time; [`PackedTable::all_pairs_mi`]
//! counts a snapshot's stored blocks with the same per-block function, for
//! a caller that packs the table anyway. (The PRAM simulator in
//! `wfbn-pram` models the paper's pair-parallel schedule instead.)

use crate::codec::KeyCodec;
use crate::entropy::mutual_information;
use crate::marginal::{MarginalTable, PackLayout, PackedTable, TILE};
use crate::potential::PotentialTable;
use crate::slice::{Block, Sliced, BLOCK};
use core::ops::Range;
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
/// The table is scanned in blocks of 4 096 entries, each packed, sliced and
/// counted before the next, so the scan holds one block per thread and
/// never a whole-table snapshot. A caller that also marginalizes the table
/// packs a [`PackedTable`] once and calls [`PackedTable::all_pairs_mi`]
/// on it instead: the same counts from the snapshot's stored blocks.
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
    let layout = PackLayout::new(codec);
    let pairs = Pairs::new(codec);
    let sliced = pairs.slices(&layout);
    let p = table.num_partitions();
    let t = threads.min(p);

    // Each thread's block and counts come from the calling thread, so their
    // memory goes back to its allocator when the call returns.
    let mut scans: Vec<Scan> = (0..t)
        .map(|_| Scan {
            block: Block::new(&layout, sliced.bitmaps, BLOCK),
            counts: vec![0; BLOCK],
            singles: vec![0; sliced.bitmaps],
            joints: vec![0; pairs.cells],
        })
        .collect();
    run_on_threads_with(scans.iter_mut().collect(), |tid, scan| {
        let mut cr = rec.core(tid);
        let t0 = cr.now();
        let mut entries = (tid..p).step_by(t).flat_map(|i| table.partition(i).iter());
        let mut scanned = 0u64;
        while scan
            .block
            .fill(&layout, &sliced, &mut entries, &mut scan.counts)
            > 0
        {
            scanned += scan.block.len() as u64;
            scan.block.add_singles(&mut scan.singles);
            pairs.count_block(&layout, &sliced, &scan.block, &mut scan.joints);
        }
        cr.stage_ns(Stage::Marginal, cr.now().saturating_sub(t0));
        cr.add(Counter::EntriesScanned, scanned);
    });

    // Merge the partial counts (exact integer sums), then evaluate each pair.
    let (first, rest) = scans.split_first_mut().expect("at least one thread");
    for scan in rest {
        for (a, b) in first.joints.iter_mut().zip(&scan.joints) {
            *a += b;
        }
        for (a, b) in first.singles.iter_mut().zip(&scan.singles) {
            *a += b;
        }
    }
    let matrix = pairs.evaluate(
        &layout,
        &sliced,
        &first.singles,
        table.total_count(),
        &mut first.joints,
    );
    // The merge runs on the calling thread after the scan threads have
    // joined, so reusing core 0's handle stays single-writer.
    let mut cr = rec.core(0);
    cr.add(Counter::PairsScanned, pairs.all.len() as u64);
    matrix
}

impl PackedTable {
    /// All-pairs MI from the snapshot's stored blocks, on `threads` threads
    /// that each count every `threads`-th block: bit-identical to
    /// [`all_pairs_mi`] on the packed table, without decoding it again.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn all_pairs_mi(&self, threads: usize) -> MiMatrix {
        assert!(threads > 0, "need at least one thread");
        let pairs = Pairs::new(self.codec());
        let t = threads.min(self.blocks.len()).max(1);
        let mut joints = vec![vec![0; pairs.cells]; t];
        run_on_threads_with(joints.iter_mut().collect(), |tid, joints| {
            for block in self.blocks.iter().skip(tid).step_by(t) {
                pairs.count_block(&self.layout, &self.sliced, block, joints);
            }
        });
        let (first, rest) = joints.split_first_mut().expect("at least one thread");
        for other in rest {
            for (a, b) in first.iter_mut().zip(other.iter()) {
                *a += b;
            }
        }
        pairs.evaluate(&self.layout, &self.sliced, &self.singles, self.total, first)
    }
}

/// Largest `(r_i − 1)(r_j − 1)` a pair is counted with by bit-slices. Such a
/// pair pays an AND and a popcount per counted cell and 64 entries; the tile
/// fold pays a scatter per entry. At 16 cells the popcounted words match
/// the 64 scatters, so wider pairs keep the fold. The choice depends on the
/// schema alone, and both kernels count exactly.
pub(crate) const SLICE_CELLS: u64 = 16;

/// Whether a pair of arities `r_i`, `r_j` is counted by bit-slices rather
/// than the tile fold.
fn is_sliced(ri: u64, rj: u64) -> bool {
    (ri - 1) * (rj - 1) <= SLICE_CELLS
}

/// One pair `(i, j)`, `i < j`, and the first cell of its joint.
#[derive(Debug, Clone, Copy)]
struct Pair {
    i: usize,
    j: usize,
    at: usize,
}

/// Every pair's joint, laid out like `marginalize(&[i, j])` from cell `at`
/// of one flat array, and the kernel that counts it.
struct Pairs {
    n: usize,
    /// Every pair, in `iter_pairs` order.
    all: Vec<Pair>,
    /// The pairs counted by bit-slices.
    sliced: Vec<Pair>,
    /// The pairs counted by the tile fold.
    wide: Vec<Pair>,
    /// Cells of all joints together.
    cells: usize,
}

impl Pairs {
    fn new(codec: &KeyCodec) -> Self {
        let n = codec.num_vars();
        let mut all = Vec::with_capacity(pair_count(n));
        let mut cells = 0;
        for i in 0..n {
            for j in (i + 1)..n {
                all.push(Pair { i, j, at: cells });
                cells += (codec.arity(i) * codec.arity(j)) as usize;
            }
        }
        let (sliced, wide) = all
            .iter()
            .partition(|pair| is_sliced(codec.arity(pair.i), codec.arity(pair.j)));
        Self {
            n,
            all,
            sliced,
            wide,
            cells,
        }
    }

    /// The bitmaps a streaming block needs: only the variables of a
    /// bit-sliced pair get them.
    fn slices(&self, layout: &PackLayout) -> Sliced {
        let mut in_sliced = vec![false; self.n];
        for pair in &self.sliced {
            in_sliced[pair.i] = true;
            in_sliced[pair.j] = true;
        }
        Sliced::new(layout, |v| in_sliced[v])
    }

    /// Adds one block's entries to `joints`: to each sliced pair's cells
    /// `x < r_i − 1, y < r_j − 1` as `Σ count` over `B[i, x] & B[j, y]`,
    /// and to every cell of each wide pair by the tile fold. The block
    /// slices every variable of a sliced pair.
    fn count_block(&self, layout: &PackLayout, sliced: &Sliced, block: &Block, joints: &mut [u64]) {
        for pair in &self.sliced {
            let (ri, rj) = (layout.fields[pair.i].arity, layout.fields[pair.j].arity);
            let (bi, bj) = (sliced.first[pair.i], sliced.first[pair.j]);
            for y in 0..(rj - 1) as usize {
                let row = pair.at + y * ri as usize;
                let by = block.bitmap(bj + y);
                for x in 0..(ri - 1) as usize {
                    joints[row + x] += block.weighted_and(block.bitmap(bi + x), by);
                }
            }
        }
        let len = block.len();
        for start in (0..len).step_by(TILE) {
            accumulate_tile(
                layout,
                &self.wide,
                block,
                joints,
                start..len.min(start + TILE),
            );
        }
    }

    /// Derives each sliced pair's last row, last column and corner from the
    /// singles and the total, then evaluates every pair's MI.
    fn evaluate(
        &self,
        layout: &PackLayout,
        sliced: &Sliced,
        singles: &[u64],
        total: u64,
        joints: &mut [u64],
    ) -> MiMatrix {
        for pair in &self.sliced {
            let ri = layout.fields[pair.i].arity as usize;
            let rj = layout.fields[pair.j].arity as usize;
            let joint = &mut joints[pair.at..][..ri * rj];
            let si = &singles[sliced.first[pair.i]..][..ri - 1];
            let sj = &singles[sliced.first[pair.j]..][..rj - 1];
            for (x, &n) in si.iter().enumerate() {
                joint[(rj - 1) * ri + x] = n - (0..rj - 1).map(|y| joint[y * ri + x]).sum::<u64>();
            }
            for (y, &n) in sj.iter().enumerate() {
                joint[y * ri + ri - 1] = n - joint[y * ri..][..ri - 1].iter().sum::<u64>();
            }
            joint[ri * rj - 1] = total - joint[..ri * rj - 1].iter().sum::<u64>();
        }
        let mut matrix = MiMatrix::zeroed(self.n);
        for &Pair { i, j, at } in &self.all {
            let (ri, rj) = (layout.fields[i].arity, layout.fields[j].arity);
            let pair = MarginalTable::from_raw_parts(
                vec![i, j],
                vec![ri, rj],
                joints[at..][..(ri * rj) as usize].to_vec(),
                total,
            );
            matrix.set(i, j, mutual_information(&pair));
        }
        matrix
    }
}

/// One scan thread's block buffer and counts.
struct Scan {
    block: Block,
    /// The block's counts on their way to its planes.
    counts: Vec<u64>,
    /// `n(v, a)` per bitmap, over the thread's entries.
    singles: Vec<u64>,
    /// Every pair's joint over the thread's entries; a sliced pair holds
    /// only its cells `x < r_i − 1, y < r_j − 1`.
    joints: Vec<u64>,
}

/// Adds entries `tile` of `block` into each wide pair's joint: pair by
/// pair, so the inner loop reads two columns with a fixed shift and mask
/// and scatters into one small, L1-resident joint.
fn accumulate_tile(
    layout: &PackLayout,
    wide: &[Pair],
    block: &Block,
    joints: &mut [u64],
    tile: Range<usize>,
) {
    let mut counts = [0; TILE];
    block.tile_counts(tile.clone(), &mut counts);
    for pair in wide {
        let (fi, fj) = (layout.fields[pair.i], layout.fields[pair.j]);
        let col_i = &block.column(fi.word)[tile.clone()];
        let col_j = &block.column(fj.word)[tile.clone()];
        let joint = &mut joints[pair.at..][..(fi.arity * fj.arity) as usize];
        for ((&wi, &wj), &count) in col_i.iter().zip(col_j).zip(&counts) {
            let x = (wi >> fi.shift) & fi.mask;
            let y = (wj >> fj.shift) & fj.mask;
            joint[(y * fi.arity + x) as usize] += count;
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
        // Mixed arities with pairs on both sides of the slicing limit
        // ((9−1)(3−1) = 16 is sliced, (9−1)(4−1) = 24 folds), 1–4 threads
        // over 3 partitions (4 is clamped), and tables both smaller than a
        // tile and larger than a block.
        let schema = Schema::new(vec![2, 3, 2, 4, 2, 3, 5, 9, 4, 3]).unwrap();
        for rows in [300, 30_000] {
            let data = CorrelatedChain::new(schema.clone(), 0.6)
                .unwrap()
                .generate(rows, 21);
            let table = build_for_tests(&data, 3);
            assert!(rows < 1_000 || table.num_entries() > BLOCK);
            for threads in [1, 2, 4] {
                let mi = all_pairs_mi(&table, threads);
                for (i, j, v) in mi.iter_pairs() {
                    assert_eq!(v, per_pair_oracle(&table, i, j), "({i},{j}) at P={threads}");
                }
            }
        }
    }

    #[test]
    fn slicing_limit_splits_pairs_by_arity() {
        // 8·8 = 64 folds; 8·2 = 16 is at the limit and sliced.
        assert!(!is_sliced(9, 9));
        assert!(is_sliced(9, 3) && is_sliced(3, 9) && is_sliced(5, 5));
        assert!(!is_sliced(9, 4) && !is_sliced(6, 5));
        // Of 9, 9 and 3, the pairs with the ternary variable are sliced.
        let codec = KeyCodec::new(&Schema::new(vec![9, 9, 3]).unwrap());
        let pairs = Pairs::new(&codec);
        let ends = |pairs: &[Pair]| pairs.iter().map(|p| (p.i, p.j)).collect::<Vec<_>>();
        assert_eq!(ends(&pairs.sliced), [(0, 2), (1, 2)]);
        assert_eq!(ends(&pairs.wide), [(0, 1)]);
        assert_eq!(pairs.cells, 81 + 27 + 27);
        // Every variable is in a sliced pair.
        let layout = PackLayout::new(&codec);
        let slices = pairs.slices(&layout);
        assert_eq!(slices.first, [0, 8, 16]);
        assert_eq!(slices.bitmaps, 8 + 8 + 2);
        // A variable with no sliced pair gets no bitmaps.
        let mut pairs = pairs;
        pairs.sliced.remove(0);
        let slices = pairs.slices(&layout);
        assert_eq!(slices.first, [usize::MAX, 0, 8]);
        assert_eq!(slices.bitmaps, 8 + 2);
    }

    #[test]
    fn the_snapshot_counts_the_same_matrix_as_the_streaming_scan() {
        // Pairs on both sides of the slicing limit, a table of several
        // blocks, and more threads than some packings have blocks.
        let schema = Schema::new(vec![2, 3, 9, 4, 2, 5, 17, 2]).unwrap();
        let data = UniformIndependent::new(schema).generate(30_000, 5);
        let table = build_for_tests(&data, 3);
        assert!(table.num_entries() > 2 * BLOCK);
        let streamed = all_pairs_mi(&table, 2);
        for (pack, count) in [(1, 1), (2, 3), (3, 2), (3, 16)] {
            let packed = PackedTable::pack(&table, pack).unwrap();
            assert_eq!(
                packed.all_pairs_mi(count),
                streamed,
                "pack {pack}, count {count}"
            );
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
