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
//! blocks of `BLOCK` entries decoded into bit fields (the layout of
//! [`PackedTable`](crate::marginal::PackedTable)), and counts every pair's
//! joint from each block:
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
//! `marginalize(&[i, j])`, at any thread count. (The PRAM simulator in
//! `wfbn-pram` models the paper's pair-parallel schedule instead.)

use crate::entropy::mutual_information;
use crate::marginal::{MarginalTable, PackLayout, TILE};
use crate::potential::PotentialTable;
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

    // Every pair in `iter_pairs` order, its joint laid out like
    // `marginalize(&[i, j])` from cell `at` of the flat joints.
    let mut pairs = Vec::with_capacity(pair_count(n));
    let mut cells = 0;
    for i in 0..n {
        for j in (i + 1)..n {
            pairs.push(Pair { i, j, at: cells });
            cells += (codec.arity(i) * codec.arity(j)) as usize;
        }
    }
    let (sliced, wide): (Vec<Pair>, Vec<Pair>) = pairs
        .iter()
        .partition(|pair| is_sliced(codec.arity(pair.i), codec.arity(pair.j)));
    let slices = Slices::new(&layout, sliced);

    // Each thread's buffers and joints come from the calling thread, so
    // their memory goes back to its allocator when the call returns.
    let mut scans: Vec<Scan> = (0..t)
        .map(|_| Scan {
            words: vec![0; layout.words * BLOCK],
            counts: vec![0; BLOCK],
            bitmaps: vec![0; slices.bitmaps * BLOCK_WORDS],
            planes: Vec::new(),
            singles: vec![0; slices.bitmaps],
            joints: vec![0; cells],
            total: 0,
        })
        .collect();
    run_on_threads_with(scans.iter_mut().collect(), |tid, scan| {
        let mut cr = rec.core(tid);
        let t0 = cr.now();
        let mut entries = (tid..p).step_by(t).flat_map(|i| table.partition(i).iter());
        let mut scanned = 0u64;
        loop {
            let len = layout.pack(&mut entries, BLOCK, &mut scan.words, &mut scan.counts);
            if len == 0 {
                break;
            }
            scanned += len as u64;
            scan.total += scan.counts[..len].iter().sum::<u64>();
            if slices.bitmaps > 0 {
                scan.count_sliced(&layout, &slices, len);
            }
            for start in (0..len).step_by(TILE) {
                accumulate_tile(&layout, &wide, scan, start..len.min(start + TILE));
            }
        }
        scan.complete_sliced(&layout, &slices);
        cr.stage_ns(Stage::Marginal, cr.now().saturating_sub(t0));
        cr.add(Counter::EntriesScanned, scanned);
    });

    // Merge the partial joints (exact integer sums), then evaluate each pair.
    let (first, rest) = scans.split_first_mut().expect("at least one thread");
    for scan in rest {
        for (a, b) in first.joints.iter_mut().zip(&scan.joints) {
            *a += b;
        }
    }
    let total = table.total_count();
    let mut matrix = MiMatrix::zeroed(n);
    for &Pair { i, j, at } in &pairs {
        let (ri, rj) = (codec.arity(i), codec.arity(j));
        let pair = MarginalTable::from_raw_parts(
            vec![i, j],
            vec![ri, rj],
            first.joints[at..][..(ri * rj) as usize].to_vec(),
            total,
        );
        matrix.set(i, j, mutual_information(&pair));
    }
    // The merge runs on the calling thread after the scan threads have
    // joined, so reusing core 0's handle stays single-writer.
    let mut cr = rec.core(0);
    cr.add(Counter::PairsScanned, pair_count(n) as u64);
    matrix
}

/// Entries per block of a scan thread. A block is packed, bit-sliced and
/// counted before the next one, so its bitmaps (`BLOCK / 64` words per
/// variable state) stay in L1/L2 whatever the table's size.
const BLOCK: usize = 4096;

/// Words per bitmap of one block.
const BLOCK_WORDS: usize = BLOCK / 64;

/// Largest `(r_i − 1)(r_j − 1)` a pair is counted with by bit-slices. Such a
/// pair pays an AND and a popcount per counted cell and 64 entries; the tile
/// fold pays a scatter per entry. At 16 cells the popcounted words match
/// the 64 scatters, so wider pairs keep the fold. The choice depends on the
/// schema alone, and both kernels count exactly.
const SLICE_CELLS: u64 = 16;

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

/// The pairs counted by bit-slices, and the bitmaps they need: variables
/// in no such pair get none.
struct Slices {
    pairs: Vec<Pair>,
    /// Per variable, the index of its bitmap `B[v, 0]`; `B[v, a]` follows at
    /// `+ a` for `a < r_v − 1`. `usize::MAX` for a variable without bitmaps.
    first: Vec<usize>,
    /// Bitmaps per block: `Σ (r_v − 1)` over the variables with bitmaps.
    bitmaps: usize,
}

impl Slices {
    fn new(layout: &PackLayout, pairs: Vec<Pair>) -> Self {
        let mut sliced = vec![false; layout.fields.len()];
        for pair in &pairs {
            sliced[pair.i] = true;
            sliced[pair.j] = true;
        }
        let (mut first, mut bitmaps) = (Vec::new(), 0);
        for (f, sliced) in layout.fields.iter().zip(sliced) {
            if sliced {
                first.push(bitmaps);
                bitmaps += (f.arity - 1) as usize;
            } else {
                first.push(usize::MAX);
            }
        }
        Self {
            pairs,
            first,
            bitmaps,
        }
    }
}

/// One scan thread's block buffers and counts.
struct Scan {
    /// The packed block, word-major with stride `BLOCK`.
    words: Vec<u64>,
    counts: Vec<u64>,
    /// `B[v, a]`, `BLOCK_WORDS` words each: bit `e % 64` of word `e / 64` is
    /// set when the block's entry `e` has `X_v = a`.
    bitmaps: Vec<u64>,
    /// The non-zero words of the block's bit planes of `count − 1`, as
    /// `(word, plane, bits)`.
    planes: Vec<(usize, u32, u64)>,
    /// `n(v, a)` per bitmap, over the thread's entries so far.
    singles: Vec<u64>,
    /// Every pair's joint over the thread's entries. A sliced pair holds
    /// only its cells `x < r_i − 1, y < r_j − 1` until `complete_sliced`.
    joints: Vec<u64>,
    /// The thread's total count.
    total: u64,
}

impl Scan {
    /// Bit-slices the block's first `len` entries and adds them to the
    /// singles and to every sliced pair's counted cells:
    /// `n(x, y) += Σ_e count_e` over the entries in `B[i, x] & B[j, y]`.
    fn count_sliced(&mut self, layout: &PackLayout, slices: &Slices, len: usize) {
        self.slice_block(layout, slices, len);
        let words = len.div_ceil(64);
        let bitmap = |k: usize| &self.bitmaps[k * BLOCK_WORDS..][..words];
        for (k, single) in self.singles.iter_mut().enumerate() {
            *single += weighted_and(bitmap(k), bitmap(k), &self.planes);
        }
        for pair in &slices.pairs {
            let (ri, rj) = (layout.fields[pair.i].arity, layout.fields[pair.j].arity);
            let (bi, bj) = (slices.first[pair.i], slices.first[pair.j]);
            for y in 0..(rj - 1) as usize {
                let row = pair.at + y * ri as usize;
                for x in 0..(ri - 1) as usize {
                    self.joints[row + x] +=
                        weighted_and(bitmap(bi + x), bitmap(bj + y), &self.planes);
                }
            }
        }
    }

    /// Fills `bitmaps` from the block's first `len` packed entries, 64 at a
    /// time: one transpose of a packed word column gives a plane per bit
    /// position, and `B[v, a]` is the AND of variable `v`'s planes, each
    /// complemented where `a`'s bit is 0. The counts' planes follow the
    /// same way, keeping only non-zero words.
    fn slice_block(&mut self, layout: &PackLayout, slices: &Slices, len: usize) {
        self.planes.clear();
        let mut m = [0u64; 64];
        for c in 0..len.div_ceil(64) {
            let lo = c * 64;
            let n = (len - lo).min(64);
            let valid = u64::MAX >> (64 - n);
            let mut loaded = usize::MAX;
            let sliced = layout.fields.iter().zip(&slices.first);
            for (f, &first) in sliced.filter(|&(_, &first)| first != usize::MAX) {
                if f.word != loaded {
                    m[..n].copy_from_slice(&self.words[f.word * BLOCK + lo..][..n]);
                    transpose(&mut m);
                    loaded = f.word;
                }
                let planes = &m[f.shift as usize..][..f.width as usize];
                for a in 0..f.arity - 1 {
                    let bits = planes.iter().enumerate().fold(valid, |bits, (b, &plane)| {
                        bits & if (a >> b) & 1 == 1 { plane } else { !plane }
                    });
                    self.bitmaps[(first + a as usize) * BLOCK_WORDS + c] = bits;
                }
            }
            // Every stored count is at least 1.
            m.fill(0);
            let mut any = 0;
            for (d, &count) in m.iter_mut().zip(&self.counts[lo..lo + n]) {
                *d = count - 1;
                any |= *d;
            }
            if any != 0 {
                transpose(&mut m);
                for (p, &bits) in m.iter().enumerate() {
                    if bits != 0 {
                        self.planes.push((c, p as u32, bits));
                    }
                }
            }
        }
    }

    /// Derives each sliced pair's last row, last column and corner from the
    /// singles and the total, once the thread's last block is counted.
    fn complete_sliced(&mut self, layout: &PackLayout, slices: &Slices) {
        for pair in &slices.pairs {
            let ri = layout.fields[pair.i].arity as usize;
            let rj = layout.fields[pair.j].arity as usize;
            let joint = &mut self.joints[pair.at..][..ri * rj];
            let si = &self.singles[slices.first[pair.i]..][..ri - 1];
            let sj = &self.singles[slices.first[pair.j]..][..rj - 1];
            for (x, &n) in si.iter().enumerate() {
                joint[(rj - 1) * ri + x] = n - (0..rj - 1).map(|y| joint[y * ri + x]).sum::<u64>();
            }
            for (y, &n) in sj.iter().enumerate() {
                joint[y * ri + ri - 1] = n - joint[y * ri..][..ri - 1].iter().sum::<u64>();
            }
            joint[ri * rj - 1] = self.total - joint[..ri * rj - 1].iter().sum::<u64>();
        }
    }
}

/// `Σ count` over the entries set in both `a` and `b`: a popcount per word,
/// plus a popcount per non-zero word of each plane `p` of `count − 1`,
/// weighted by `2^p`.
fn weighted_and(a: &[u64], b: &[u64], planes: &[(usize, u32, u64)]) -> u64 {
    let ones: u64 = a
        .iter()
        .zip(b)
        .map(|(x, y)| u64::from((x & y).count_ones()))
        .sum();
    planes.iter().fold(ones, |n, &(c, p, bits)| {
        n + (u64::from((a[c] & b[c] & bits).count_ones()) << p)
    })
}

/// Transposes a 64 × 64 bit matrix in place: bit `e` of `m[b]` becomes bit
/// `b` of `m[e]`. Applied to 64 entries' packed words, it turns them into
/// one plane per bit position.
fn transpose(m: &mut [u64; 64]) {
    let mut mask = 0x0000_0000_ffff_ffff_u64;
    let mut j = 32;
    while j > 0 {
        for k in (0..64).filter(|k| k & j == 0) {
            let t = ((m[k] >> j) ^ m[k | j]) & mask;
            m[k] ^= t << j;
            m[k | j] ^= t;
        }
        j >>= 1;
        mask ^= mask << j;
    }
}

/// Adds entries `tile` of the packed block into each wide pair's joint:
/// pair by pair, so the inner loop reads two columns with a fixed shift and
/// mask and scatters into one small, L1-resident joint.
fn accumulate_tile(layout: &PackLayout, wide: &[Pair], scan: &mut Scan, tile: Range<usize>) {
    let counts = &scan.counts[tile.clone()];
    for pair in wide {
        let (fi, fj) = (layout.fields[pair.i], layout.fields[pair.j]);
        let col_i = &scan.words[fi.word * BLOCK..][tile.clone()];
        let col_j = &scan.words[fj.word * BLOCK..][tile.clone()];
        let joint = &mut scan.joints[pair.at..][..(fi.arity * fj.arity) as usize];
        for ((&wi, &wj), &count) in col_i.iter().zip(col_j).zip(counts) {
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
        // Of 9, 9 and 3, every variable is in a sliced pair.
        let layout = PackLayout::new(&crate::KeyCodec::new(&Schema::new(vec![9, 9, 3]).unwrap()));
        let sliced = [(0, 2), (1, 2)].map(|(i, j)| Pair { i, j, at: 0 });
        let slices = Slices::new(&layout, sliced.to_vec());
        assert_eq!(slices.first, [0, 8, 16]);
        assert_eq!(slices.bitmaps, 8 + 8 + 2);
        // A variable with no sliced pair gets no bitmaps.
        let slices = Slices::new(&layout, sliced[1..].to_vec());
        assert_eq!(slices.first, [usize::MAX, 0, 8]);
        assert_eq!(slices.bitmaps, 8 + 2);
    }

    #[test]
    fn transpose_swaps_rows_and_columns() {
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut m = [0u64; 64];
        for row in &mut m {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            *row = state;
        }
        let before = m;
        transpose(&mut m);
        for (b, &plane) in m.iter().enumerate() {
            for (e, &row) in before.iter().enumerate() {
                assert_eq!((plane >> e) & 1, (row >> b) & 1, "plane {b}, entry {e}");
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
