//! The parallel marginalization primitive (paper Algorithm 3).
//!
//! Marginalization sums the potential table over every variable *not* in the
//! set of interest **V**. The naïve formulation iterates the full state
//! space — `O(∏ r_j)`, exponential in `n`. The paper's observation: real
//! tables are *sparse* (at most `m` distinct state strings were ever
//! observed), so it suffices to iterate the stored entries. For each entry,
//! only the variables in **V** are decoded from the key (one divide+modulo
//! each — `KeyCodec::marginal_key`); the count is accumulated into a dense
//! marginal table of size `∏_{v∈V} r_v`.
//!
//! Parallelization is pure data parallelism: each thread scans a disjoint
//! subset of the partitions into a *private* partial marginal, and the
//! partials are summed at the end ("merge" step of Algorithm 3). No thread
//! ever reads another's partition — the cache-friendliness claim of the
//! paper.
//!
//! A caller that marginalizes one table many times (the learner, every
//! serve reader's cache misses within one epoch) first takes a
//! [`PackedTable`]: every entry decoded once into bit fields and
//! bit-sliced, so each later small marginal costs a few ANDs and popcounts
//! per 64 entries, and each wider one a shift and a mask per variable and
//! entry instead of a divide and a modulo, over dense arrays instead of
//! hash slots.

use crate::codec::KeyCodec;
use crate::count_table::{CountTable, SlotWalk};
use crate::error::CoreError;
use crate::potential::PotentialTable;
use crate::slice::{Block, Sliced, Term, BLOCK, BLOCK_WORDS};
use wfbn_concurrent::{run_on_threads, run_on_threads_with};
use wfbn_obs::{CoreRecorder, Counter, NoopRecorder, Recorder, Stage};

/// Refuse to materialize marginal tables above this many cells (2^28 cells
/// = 2 GiB of counts); marginals in structure learning are tiny (pairs and
/// triples), so hitting this indicates a caller bug.
const MAX_MARGINAL_CELLS: u64 = 1 << 28;

/// Entries per tile of a packed scan: a tile's cell indices (in
/// [`PackedTable::marginalize`]) or packed words (in all-pairs MI's fold of
/// wide pairs) stay in L1 while every variable's field is folded in.
pub(crate) const TILE: usize = 512;

/// A dense marginal count table over an ordered set of variables.
///
/// Cell order is mixed-radix with the *first* variable fastest, matching
/// `KeyCodec::marginal_key`.
///
/// # Examples
///
/// ```
/// use wfbn_core::{construct::sequential_build, marginal::marginalize};
/// use wfbn_data::{Dataset, Schema};
///
/// let schema = Schema::uniform(3, 2).unwrap();
/// let d = Dataset::from_rows(
///     schema,
///     &[&[0, 0, 1], &[0, 1, 1], &[1, 1, 0], &[0, 1, 0]],
/// )
/// .unwrap();
/// let table = sequential_build(&d).unwrap().table;
/// let m = marginalize(&table, &[1], 1).unwrap();
/// assert_eq!(m.count(&[0]), 1); // X₁ = 0 observed once
/// assert_eq!(m.count(&[1]), 3);
/// assert_eq!(m.prob(&[1]), 0.75);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MarginalTable {
    vars: Vec<usize>,
    arities: Vec<u64>,
    counts: Vec<u64>,
    /// Total observations in the source table (the paper's `m`; divisor for
    /// probabilities — footnote 2 of the paper).
    total: u64,
}

impl MarginalTable {
    /// Creates a zeroed marginal table (used by the accumulation loops).
    fn zeroed(codec: &KeyCodec, vars: &[usize], total: u64) -> Result<Self, CoreError> {
        codec.validate_vars(vars)?;
        let arities: Vec<u64> = vars.iter().map(|&v| codec.arity(v)).collect();
        let cells: u64 = arities.iter().product();
        if cells > MAX_MARGINAL_CELLS {
            return Err(CoreError::BadVariableSet {
                reason: "marginal state space too large to materialize",
            });
        }
        Ok(Self {
            vars: vars.to_vec(),
            arities,
            counts: vec![0; cells as usize],
            total,
        })
    }

    /// [`zeroed`](Self::zeroed) over `order`, any permutation of a valid
    /// variable set: validated in sorted order, so it fails exactly where
    /// `zeroed` on the sorted set would.
    fn zeroed_in_order(codec: &KeyCodec, order: &[usize], total: u64) -> Result<Self, CoreError> {
        let mut sorted = order.to_vec();
        sorted.sort_unstable();
        let mut out = Self::zeroed(codec, &sorted, total)?;
        out.vars = order.to_vec();
        out.arities = order.iter().map(|&v| codec.arity(v)).collect();
        Ok(out)
    }

    /// The variables this marginal ranges over (strictly increasing).
    pub fn vars(&self) -> &[usize] {
        &self.vars
    }

    /// Arity of each marginal variable, in `vars` order.
    pub fn arities(&self) -> &[u64] {
        &self.arities
    }

    /// Number of cells (`∏ r_v`).
    pub fn num_cells(&self) -> usize {
        self.counts.len()
    }

    /// Total observations `m` in the source potential table.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Sum of all cells (equals [`total`](Self::total) for a full marginal).
    pub fn sum(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Mixed-radix cell index of a marginal state assignment.
    ///
    /// # Panics
    ///
    /// Panics if the assignment length or any state is out of range.
    pub(crate) fn index_of(&self, states: &[u16]) -> usize {
        assert_eq!(states.len(), self.vars.len(), "wrong assignment width");
        let mut idx = 0u64;
        let mut stride = 1u64;
        for (&s, &r) in states.iter().zip(&self.arities) {
            assert!(u64::from(s) < r, "state {s} out of range (arity {r})");
            idx += u64::from(s) * stride;
            stride *= r;
        }
        idx as usize
    }

    /// Count of one marginal state assignment.
    pub fn count(&self, states: &[u16]) -> u64 {
        self.counts[self.index_of(states)]
    }

    /// Count by raw cell index.
    pub fn count_at(&self, idx: usize) -> u64 {
        self.counts[idx]
    }

    /// Probability of one marginal state assignment (count / m).
    pub fn prob(&self, states: &[u16]) -> f64 {
        self.count(states) as f64 / self.total as f64
    }

    /// All cells as probabilities.
    pub fn probabilities(&self) -> Vec<f64> {
        let m = self.total as f64;
        self.counts.iter().map(|&c| c as f64 / m).collect()
    }

    /// Sums this marginal down to the variables at `keep` (positions into
    /// [`vars`](Self::vars), strictly increasing).
    ///
    /// This is the paper's optimization for Equation 1: compute the pairwise
    /// joint P(x, y) once, then *derive* P(x) and P(y) from it instead of
    /// rescanning the potential table.
    ///
    /// The source cells are walked in order with an odometer over their
    /// digits: each digit moves the destination index by its stride in the
    /// kept mixed radix (0 for a summed-out digit), so no cell pays a divide
    /// or a modulo.
    ///
    /// # Panics
    ///
    /// Panics if `keep` is empty, out of range, or not strictly increasing.
    pub fn collapse(&self, keep: &[usize]) -> MarginalTable {
        assert!(!keep.is_empty(), "keep set must be non-empty");
        assert!(
            keep.windows(2).all(|w| w[0] < w[1]) && *keep.last().unwrap() < self.vars.len(),
            "keep positions must be strictly increasing and in range"
        );
        let kept_vars: Vec<usize> = keep.iter().map(|&k| self.vars[k]).collect();
        let kept_arities: Vec<u64> = keep.iter().map(|&k| self.arities[k]).collect();
        let cells: u64 = kept_arities.iter().product();
        let mut counts = vec![0u64; cells as usize];
        let mut strides = vec![0usize; self.arities.len()];
        let mut stride = 1;
        for &k in keep {
            strides[k] = stride;
            stride *= self.arities[k] as usize;
        }
        // The first digit runs fastest: one row of it per odometer step
        // over the others, whose destination offset is `base`.
        let row_len = self.arities[0] as usize;
        let (first, rest) = strides.split_first().expect("a marginal has variables");
        let mut digits = vec![0u64; rest.len()];
        let mut base = 0;
        for row in self.counts.chunks_exact(row_len) {
            for (i, &c) in row.iter().enumerate() {
                counts[base + i * first] += c;
            }
            for ((d, &r), &s) in digits.iter_mut().zip(&self.arities[1..]).zip(rest) {
                *d += 1;
                base += s;
                if *d < r {
                    break;
                }
                *d = 0;
                base -= s * r as usize;
            }
        }
        MarginalTable {
            vars: kept_vars,
            arities: kept_arities,
            counts,
            total: self.total,
        }
    }

    /// Builds a marginal from raw parts (internal; callers go through
    /// [`marginalize`] or [`MarginalTable::reorder`]).
    pub(crate) fn from_raw_parts(
        vars: Vec<usize>,
        arities: Vec<u64>,
        counts: Vec<u64>,
        total: u64,
    ) -> Self {
        debug_assert_eq!(vars.len(), arities.len());
        debug_assert_eq!(
            counts.len() as u64,
            arities.iter().product::<u64>(),
            "cell count must match the arity product"
        );
        Self {
            vars,
            arities,
            counts,
            total,
        }
    }

    /// Returns the same marginal with its variables permuted into `order`.
    ///
    /// `order` must be a permutation of [`vars`](Self::vars). This is how a
    /// sorted marginal from [`marginalize`] is arranged into the
    /// pair-first layout that
    /// [`conditional_mutual_information`](crate::entropy::conditional_mutual_information)
    /// expects (`X`, `Y`, then the conditioning set).
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of the marginal's variables.
    pub fn reorder(&self, order: &[usize]) -> MarginalTable {
        assert_eq!(order.len(), self.vars.len(), "order must cover all vars");
        let positions: Vec<usize> = order
            .iter()
            .map(|&v| {
                self.vars
                    .iter()
                    .position(|&w| w == v)
                    .unwrap_or_else(|| panic!("variable {v} not in marginal"))
            })
            .collect();
        {
            let mut sorted = positions.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), positions.len(), "order contains duplicates");
        }
        let new_arities: Vec<u64> = positions.iter().map(|&p| self.arities[p]).collect();
        let mut new_counts = vec![0u64; self.counts.len()];
        let mut digits = vec![0u64; self.vars.len()];
        for (idx, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let mut rest = idx as u64;
            for (d, &r) in digits.iter_mut().zip(&self.arities) {
                *d = rest % r;
                rest /= r;
            }
            let mut new_idx = 0u64;
            let mut stride = 1u64;
            for (&p, &r) in positions.iter().zip(&new_arities) {
                new_idx += digits[p] * stride;
                stride *= r;
            }
            new_counts[new_idx as usize] += c;
        }
        Self::from_raw_parts(order.to_vec(), new_arities, new_counts, self.total)
    }

    /// Adds another partial marginal over the same variables (merge step).
    fn absorb(&mut self, other: &MarginalTable) {
        debug_assert_eq!(self.vars, other.vars);
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }
}

/// Computes the marginal over `vars` from a potential table using `threads`
/// parallel scanners (Algorithm 3).
///
/// `vars` must be strictly increasing and within the schema. `threads` is
/// clamped to the number of partitions (a thread scans whole partitions).
pub fn marginalize(
    table: &PotentialTable,
    vars: &[usize],
    threads: usize,
) -> Result<MarginalTable, CoreError> {
    marginalize_recorded(table, vars, threads, &NoopRecorder)
}

/// [`marginalize`] with telemetry: each scan thread attributes its wall time
/// to [`Stage::Marginal`] and counts the potential-table entries it touched
/// under [`Counter::EntriesScanned`].
pub fn marginalize_recorded<R: Recorder>(
    table: &PotentialTable,
    vars: &[usize],
    threads: usize,
    rec: &R,
) -> Result<MarginalTable, CoreError> {
    if threads == 0 {
        return Err(CoreError::ZeroThreads);
    }
    let codec = table.codec();
    let total = table.total_count();
    let template = MarginalTable::zeroed(codec, vars, total)?;
    let p = table.num_partitions();
    let t = threads.min(p);

    if t == 1 {
        let mut cr = rec.core(0);
        let t0 = cr.now();
        let mut out = template;
        let mut scanned = 0u64;
        for part in table.partitions() {
            scanned += accumulate_partition(codec, part, vars, &mut out);
        }
        cr.stage_ns(Stage::Marginal, cr.now().saturating_sub(t0));
        cr.add(Counter::EntriesScanned, scanned);
        return Ok(out);
    }

    // Deal whole partitions to threads round-robin; each thread fills a
    // private partial marginal (no shared writes), then the partials merge.
    let partials = run_on_threads(t, |tid| {
        let mut cr = rec.core(tid);
        let t0 = cr.now();
        let mut local = template.clone();
        let mut scanned = 0u64;
        let mut part_idx = tid;
        while part_idx < p {
            scanned += accumulate_partition(codec, table.partition(part_idx), vars, &mut local);
            part_idx += t;
        }
        cr.stage_ns(Stage::Marginal, cr.now().saturating_sub(t0));
        cr.add(Counter::EntriesScanned, scanned);
        local
    });
    let mut out = template;
    for partial in &partials {
        out.absorb(partial);
    }
    Ok(out)
}

/// Scans one partition into a partial marginal (the per-core loop body of
/// Algorithm 3); returns the number of entries scanned.
fn accumulate_partition(
    codec: &KeyCodec,
    part: &CountTable,
    vars: &[usize],
    out: &mut MarginalTable,
) -> u64 {
    let mut scanned = 0u64;
    for (key, count) in part.iter() {
        let idx = codec.marginal_key(key, vars) as usize;
        out.counts[idx] += count;
        scanned += 1;
    }
    scanned
}

/// Where one variable's state sits in a packed entry.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Field {
    /// Which of the entry's words holds the field.
    pub(crate) word: usize,
    /// Bit offset of the field within that word.
    pub(crate) shift: u32,
    /// `⌈log₂ r_v⌉`, the field's bit count.
    pub(crate) width: u32,
    /// `2^width − 1`.
    pub(crate) mask: u64,
    /// The variable's arity `r_v`.
    pub(crate) arity: u64,
}

/// The bit-field layout of a packed entry: variable `v` takes the next
/// `⌈log₂ r_v⌉` bits of the current word, or starts a new word when they
/// would straddle one, so every field reads back with one shift and mask.
#[derive(Debug, Clone)]
pub(crate) struct PackLayout {
    /// One field per variable, in variable order.
    pub(crate) fields: Vec<Field>,
    /// The fields as `pack` decodes them: each run of consecutive
    /// power-of-two fields in one word is one field of their summed width
    /// and multiplied arity (its key digit is their bits side by side);
    /// every other field stands alone.
    runs: Vec<Field>,
    /// Words per packed entry.
    pub(crate) words: usize,
}

impl PackLayout {
    pub(crate) fn new(codec: &KeyCodec) -> Self {
        let mut fields = Vec::with_capacity(codec.num_vars());
        let (mut word, mut offset) = (0, 0);
        for v in 0..codec.num_vars() {
            let arity = codec.arity(v);
            // ⌈log₂ r⌉ is the bit length of r − 1 (r ≥ 2, so at least 1).
            let width = u64::BITS - (arity - 1).leading_zeros();
            if offset + width > u64::BITS {
                word += 1;
                offset = 0;
            }
            fields.push(Field {
                word,
                shift: offset,
                width,
                mask: (1 << width) - 1,
                arity,
            });
            offset += width;
        }
        let pow2 = |f: &Field| f.arity == f.mask + 1;
        let mut runs: Vec<Field> = Vec::with_capacity(fields.len());
        for f in &fields {
            match runs.last_mut() {
                Some(run)
                    if run.word == f.word
                        && pow2(run)
                        && pow2(f)
                        && run.width + f.width < u64::BITS =>
                {
                    run.width += f.width;
                    run.mask = (1 << run.width) - 1;
                    run.arity <<= f.width;
                }
                _ => runs.push(*f),
            }
        }
        Self {
            fields,
            runs,
            words: word + 1,
        }
    }

    /// Decodes the keys held in `words[..len]`, the first word column, in
    /// place, once each — a mask and a shift per run of power-of-two fields,
    /// one modulo and divide (Eq. 4) per other variable — and stores each
    /// word-major: word `w` of the `e`-th entry at `words[w * stride + e]`.
    /// Entry `e`'s key is read before any of its words is written, and no
    /// other entry's words share its place.
    pub(crate) fn pack_in_place(&self, len: usize, stride: usize, words: &mut [u64]) {
        // One run of power-of-two fields (a schema of binary variables, say)
        // packs every key as itself.
        if let [run] = self.runs.as_slice() {
            if run.arity == run.mask + 1 {
                return;
            }
        }
        for e in 0..len {
            let (mut rest, mut word, mut bits) = (words[e], 0, 0u64);
            for f in &self.runs {
                if f.word != word {
                    words[word * stride + e] = bits;
                    (word, bits) = (f.word, 0);
                }
                let state = if f.arity == f.mask + 1 {
                    let state = rest & f.mask;
                    rest >>= f.width;
                    state
                } else {
                    let state = rest % f.arity;
                    rest /= f.arity;
                    state
                };
                bits |= state << f.shift;
            }
            words[word * stride + e] = bits;
        }
    }
}

/// Largest cell count `∏ r_v` of a scope that
/// [`PackedTable::marginalize`] counts by bit-slices rather than by the
/// decode fold.
///
/// A sliced scope pays, per 64 entries, one AND and one weighted popcount
/// for each of its cells that no single or total gives, and each popcount
/// costs one more per non-zero plane word of `count − 1`; the fold pays a
/// shift, a mask and an OR per variable and entry, and a scatter per entry,
/// whatever the scope. Measured with the `popcnt` instruction (see
/// `slice::BitCount`) and the padded fold, µs per scope over 100 random
/// scopes, best of five, two runs, on a 2-thread Xeon host, release build;
/// the uniform tables hold 200 000 rows (seed 42), alarm-like 20 000 (seed
/// 11), all packed on one thread:
///
/// | schema · entries | cells | bit-sliced | fold |
/// |---|---|---|---|
/// | 16 binary · 62 473 (serve-mixed's final epoch) | 4 / 8 / 16 | 5–8 / 15–26 / 40–68 | 180–236 / 195–273 / 213–293 |
/// | 16 binary · 62 473 | 32 / 64 / 128 | 97–167 / 214–355 / 500–743 | 252–354 / 271–326 / 293–395 |
/// | 12 ternary · 166 672 | 9 / 27 / 81 | 27–49 / 130–217 / 423–745 | 317–517 / 369–650 / 444–727 |
/// | alarm-like · 17 708, the learner's 3-variable cut joints | 39 on average, 64 at most | 21–34 | 48–69 |
/// | alarm-like · 17 708, the learner's 4-variable cut joints | 127–134 on average | 78–127 | 50–77 |
///
/// Slicing wins up to 32 cells, ties at 64 on binary data and wins on the
/// learner's joints of up to 64 cells, and loses from about 81, so the
/// limit sits at 64.
pub(crate) const SLICED_CELLS: u64 = 64;

/// Largest padded space `∏ 2^width` over a scope's fields that
/// [`PackedTable::marginalize`] folds through a padded histogram, 512 KiB
/// of counts; a wider scope folds straight into the mixed radix.
///
/// The padded fold builds each entry's index with a shift, a mask and an
/// OR, which vectorize on baseline x86-64; the mixed fold needs a 64-bit
/// multiply per variable and entry, which does not (SSE2 has none), but it
/// scatters into only `∏ r_v` cells. Measured as the `SLICED_CELLS` table
/// (bitmaps off), µs per scope over 100 random scopes of `k` variables,
/// best of five, two runs:
///
/// | schema · entries | padded space | padded fold | mixed fold |
/// |---|---|---|---|
/// | 16 binary · 62 473 | 2⁷ / 2⁹ / 2¹¹ | 373–438 / 429–547 / 597 | 483–501 / 560–731 / 880 |
/// | 12 ternary · 166 672 | 2¹⁴ / 2¹⁶ / 2¹⁸ | 753–965 / 899–1 192 / 1 066–1 148 | 1 252–1 425 / 1 209–1 847 / 1 572–2 047 |
/// | 12 ternary · 166 672 | 2²⁰ / 2²² | 1 677 / 3 784 | 1 859 / 2 072 |
/// | alarm-like · 17 708 | about 2¹³ / 2¹⁴ / 2¹⁶ | 83–85 / 107–160 / 212–216 | 126–165 / 145–189 / 176–213 |
/// | alarm-like · 17 708 | about 2¹⁸ / 2²⁰ | 419 / 1 399 | 236 / 333 |
///
/// The padded fold wins up to 2¹⁶ on every schema and loses beyond it on
/// the learner's table, whose cut joints it exists for. Four interleaved
/// sub-histograms (entry `e` adding into lane `e % 4`) were also measured:
/// on the learner's cut joints they gained nothing, on random alarm-like
/// scopes of 2⁷–2¹⁴ padded cells they ran up to 50% slower, and on the
/// uniform tables they stayed within the runs' spread.
pub(crate) const PADDED_CELLS: u64 = 1 << 16;

/// Entries below which [`PackedTable::pack`] runs on the calling thread
/// rather than on one worker per partition.
///
/// A worker costs a thread start and join, and a small table packs faster
/// than that on one thread. Measured on uniform binary tables built on two
/// threads (so packed as two partitions), ms per pack, median of three
/// best-of-21 runs, on a 2-thread Xeon host, release build:
///
/// | entries | 1 thread | 2 threads |
/// |---|---|---|
/// | 5 981 | 0.079 | 0.127 |
/// | 11 922 | 0.161 | 0.174 |
/// | 23 699 | 0.253 | 0.295 |
/// | 47 733 | 0.746 | 0.612 |
/// | 94 944 | 1.531 | 1.108 |
/// | 190 953 | 2.408 | 2.140 |
/// | 379 672 | 8.021 | 6.126 |
/// | 933 062 | 20.95 | 14.40 |
///
/// Two threads lose up to about 24 k entries and win from about 48 k, so
/// the cut sits at 2¹⁵. The learner's tables (17.7 k entries on alarm-like
/// data) pack on its calling thread.
pub(crate) const SERIAL_PACK: usize = 1 << 15;

/// Largest arity a snapshot keeps bitmaps for: a variable of a bit-sliced
/// pair of all-pairs MI has arity at most `SLICE_CELLS + 1` = 17.
/// [`PackedTable::marginalize`] slices a scope only when every variable in
/// it has bitmaps, so a scope of at most [`SLICED_CELLS`] cells that holds a
/// wider variable (arity 18 alone, or 32 beside a binary one) folds.
const SLICED_ARITY: u64 = crate::allpairs::SLICE_CELLS + 1;

/// A read-only snapshot of a [`PotentialTable`] for repeated
/// marginalization: every entry decoded once into bit fields, then
/// bit-sliced.
///
/// Packing decodes every entry once into bit fields (see `PackLayout`):
/// variable `v` gets `⌈log₂ r_v⌉` bits, no field straddles a `u64` word, and
/// each block of up to 4 096 entries stores its words word-major. Each
/// block also keeps a bitmap per state `a < r_v − 1` of every variable of
/// arity up to 17, and the bit planes of its counts, which
/// are the only copy of the counts; the snapshot keeps each such state's
/// count (its *single*) and the total.
///
/// [`marginalize`](Self::marginalize) counts a scope of at most 64 cells
/// whose variables all have bitmaps from the bitmaps: each cell whose
/// states are all below `r − 1` is a `k`-way AND and a popcount weighted by
/// the count planes per 64 entries, and every other cell follows by exact
/// subtraction from the lower-order marginals, down to the singles and the
/// total. Any other scope folds each tile of entries one variable at a time
/// over a dense column, with a shift, a mask and an OR into a power-of-two
/// padded index (or, past 2¹⁶ padded cells, a multiply-add into the
/// mixed-radix one). Either way the per-entry divide and modulo of
/// [`marginalize`] and the hash table's empty slots are paid once, at
/// packing.
///
/// # Examples
///
/// ```
/// use wfbn_core::construct::sequential_build;
/// use wfbn_core::marginal::{marginalize, PackedTable};
/// use wfbn_data::{Dataset, Schema};
///
/// let schema = Schema::new(vec![2, 3, 2]).unwrap();
/// let d = Dataset::from_rows(schema, &[&[0, 2, 1], &[1, 2, 0], &[1, 0, 0]]).unwrap();
/// let table = sequential_build(&d).unwrap().table;
/// let packed = PackedTable::pack(&table, 1).unwrap();
/// // Any variable order; same table as marginalizing sorted and reordering.
/// let m = packed.marginalize(&[2, 0]).unwrap();
/// assert_eq!(m, marginalize(&table, &[0, 2], 1).unwrap().reorder(&[2, 0]));
/// assert_eq!(m.count(&[0, 1]), 2); // X₂ = 0, X₀ = 1
/// ```
#[derive(Debug, Clone)]
pub struct PackedTable {
    codec: KeyCodec,
    pub(crate) layout: PackLayout,
    pub(crate) total: u64,
    /// The variables of arity up to [`SLICED_ARITY`] and their bitmaps.
    pub(crate) sliced: Sliced,
    /// `n(v, a)` per bitmap, over every entry.
    pub(crate) singles: Vec<u64>,
    /// The packing threads' blocks, thread after thread.
    pub(crate) blocks: Vec<Block>,
    entries: usize,
}

impl PackedTable {
    /// Packs and bit-slices `table` on `threads` workers (clamped to the
    /// number of partitions), each decoding whole partitions into blocks of
    /// its own. A table of fewer than 2¹⁵ entries is packed on the calling
    /// thread whatever `threads` is: below about that size a worker's start
    /// and join cost more than it saves. The calling thread allocates every
    /// block, so the snapshot's memory comes back to its allocator when the
    /// snapshot is dropped.
    pub fn pack(table: &PotentialTable, threads: usize) -> Result<Self, CoreError> {
        if threads == 0 {
            return Err(CoreError::ZeroThreads);
        }
        let codec = table.codec();
        let layout = PackLayout::new(codec);
        let sliced = Sliced::new(&layout, |v| codec.arity(v) <= SLICED_ARITY);
        let p = table.num_partitions();
        let t = if table.num_entries() < SERIAL_PACK {
            1
        } else {
            threads.min(p)
        };
        let parts = |tid: usize| (tid..p).step_by(t).map(|i| table.partition(i));
        let mut blocks = Vec::new();
        let mut owned = Vec::with_capacity(t);
        for tid in 0..t {
            let mut len: usize = parts(tid).map(CountTable::len).sum();
            let before = blocks.len();
            while len > 0 {
                let stride = len.min(BLOCK);
                blocks.push(Block::new(&layout, sliced.bitmaps, stride));
                len -= stride;
            }
            owned.push(blocks.len() - before);
        }
        let mut singles = vec![vec![0; sliced.bitmaps]; t];
        let mut counts = vec![vec![0; table.num_entries().min(BLOCK)]; t];
        let mut regions = Vec::with_capacity(t);
        let mut rest = &mut blocks[..];
        for ((&n, singles), counts) in owned.iter().zip(&mut singles).zip(&mut counts) {
            let (mine, tail) = core::mem::take(&mut rest).split_at_mut(n);
            regions.push((mine, singles, counts));
            rest = tail;
        }
        run_on_threads_with(regions, |tid, (mine, singles, counts)| {
            let mut walk = SlotWalk::new(parts(tid));
            for block in mine {
                block.fill(&layout, &sliced, &mut walk, counts);
                block.add_singles(singles);
            }
        });
        let (first, others) = singles.split_first_mut().expect("at least one thread");
        for other in others {
            for (a, b) in first.iter_mut().zip(other.iter()) {
                *a += b;
            }
        }
        Ok(Self {
            codec: codec.clone(),
            layout,
            total: table.total_count(),
            sliced,
            singles: core::mem::take(first),
            blocks,
            entries: table.num_entries(),
        })
    }

    /// The key codec of the packed table's schema.
    pub fn codec(&self) -> &KeyCodec {
        &self.codec
    }

    /// Total observations `m` in the packed table.
    pub fn total_count(&self) -> u64 {
        self.total
    }

    /// Number of packed entries (distinct state strings).
    pub fn num_entries(&self) -> usize {
        self.entries
    }

    /// Every packed entry as its key and count, sorted by key: what
    /// [`PotentialTable::to_sorted_vec`] gives for the packed table, rebuilt
    /// from the packed fields (Eq. 3) and the count planes alone.
    pub fn to_sorted_vec(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::with_capacity(self.entries);
        let mut counts = [0u64; TILE];
        for block in &self.blocks {
            for start in (0..block.len()).step_by(TILE) {
                let end = block.len().min(start + TILE);
                block.tile_counts(start..end, &mut counts);
                for (e, &count) in (start..end).zip(&counts) {
                    let key = self
                        .layout
                        .fields
                        .iter()
                        .enumerate()
                        .fold(0, |key, (v, f)| {
                            let state = (block.column(f.word)[e] >> f.shift) & f.mask;
                            key + state * self.codec.stride(v)
                        });
                    out.push((key, count));
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// The marginal over `order`, in that order: byte-identical to
    /// `marginalize(table, sorted, _)?.reorder(order)`, and failing with the
    /// same [`CoreError`] where that would.
    ///
    /// `order` is any arrangement of distinct in-range variables. A scope of
    /// at most 64 cells whose variables all have arity 17 or less is counted
    /// by bit-slices, any other by the decode fold (see the
    /// [type docs](Self)). The scan runs on the calling thread.
    pub fn marginalize(&self, order: &[usize]) -> Result<MarginalTable, CoreError> {
        let mut out = MarginalTable::zeroed_in_order(&self.codec, order, self.total)?;
        let has_bitmaps = |&v: &usize| self.sliced.first[v] != usize::MAX;
        if out.counts.len() as u64 <= SLICED_CELLS && order.iter().all(has_bitmaps) {
            self.count_sliced(order, &mut out.counts);
        } else {
            self.fold(order, &mut out.counts);
        }
        Ok(out)
    }

    /// Counts the marginal over `order` into `cells` by bit-slices: first
    /// with digit `r_v − 1` read as "any state of `X_v`" (the total, the
    /// singles, and one `k`-way AND count per other cell), then each
    /// variable's "any" turned into "state `r_v − 1`" by subtracting its
    /// other states.
    fn count_sliced(&self, order: &[usize], cells: &mut [u64]) {
        debug_assert!(order.iter().all(|&v| self.sliced.first[v] != usize::MAX));
        let mut stride = 1;
        let terms: Vec<Term> = order
            .iter()
            .map(|&v| {
                let arity = self.layout.fields[v].arity as usize;
                let term = Term {
                    first: self.sliced.first[v],
                    arity,
                    stride,
                };
                stride *= arity;
                term
            })
            .collect();
        let mut scratch = vec![0; terms.len() * BLOCK_WORDS];
        for block in &self.blocks {
            block.count_cells(&terms, cells, &mut scratch);
        }
        let any: usize = terms.iter().map(|t| (t.arity - 1) * t.stride).sum();
        cells[any] = self.total;
        for t in &terms {
            let line = any - (t.arity - 1) * t.stride;
            for a in 0..t.arity - 1 {
                cells[line + a * t.stride] = self.singles[t.first + a];
            }
        }
        for t in &terms {
            let last = t.arity - 1;
            for cell in 0..cells.len() {
                if (cell / t.stride) % t.arity == last {
                    let others: u64 = (1..=last).map(|d| cells[cell - d * t.stride]).sum();
                    cells[cell] -= others;
                }
            }
        }
    }

    /// Counts the marginal over `order` into `cells` by decoding every
    /// entry's fields, a tile of entries at a time: into a padded histogram
    /// (see [`PADDED_CELLS`]) when it is small enough, else straight into
    /// the mixed radix.
    fn fold(&self, order: &[usize], cells: &mut [u64]) {
        let bits: u32 = order.iter().map(|&v| self.layout.fields[v].width).sum();
        if bits <= PADDED_CELLS.ilog2() {
            self.fold_padded(order, bits, cells);
        } else {
            self.fold_mixed(order, cells);
        }
    }

    /// [`fold`](Self::fold) through a power-of-two padded space: an entry's
    /// index there is its scope's fields side by side, `Σ state << offset`
    /// with `offset` the sum of the widths before the field, so a tile's
    /// indices cost a shift, a mask and an OR per variable and entry, which
    /// vectorize where a 64-bit multiply does not. The padded histogram
    /// folds into the mixed-radix cells once, at the end of the scan.
    fn fold_padded(&self, order: &[usize], bits: u32, cells: &mut [u64]) {
        let mut offset = 0;
        let terms: Vec<(Field, u32)> = order
            .iter()
            .map(|&v| {
                let f = self.layout.fields[v];
                let term = (f, offset);
                offset += f.width;
                term
            })
            .collect();
        let mut hist = vec![0u64; 1 << bits];
        let (mut tile, mut counts) = ([0u64; TILE], [0u64; TILE]);
        for block in &self.blocks {
            let len = block.len();
            for start in (0..len).step_by(TILE) {
                let end = len.min(start + TILE);
                let tile = &mut tile[..end - start];
                tile.fill(0);
                for (f, offset) in &terms {
                    let column = &block.column(f.word)[start..end];
                    for (index, &w) in tile.iter_mut().zip(column) {
                        *index |= ((w >> f.shift) & f.mask) << offset;
                    }
                }
                block.tile_counts(start..end, &mut counts);
                for (&index, &count) in tile.iter().zip(&counts) {
                    hist[index as usize] += count;
                }
            }
        }
        // The cells in mixed-radix order, with an odometer over their
        // digits: a digit step moves the padded index by `1 << offset`.
        let mut digits = vec![0u64; terms.len()];
        let mut index = 0;
        for cell in cells.iter_mut() {
            *cell = hist[index];
            for (d, (f, offset)) in digits.iter_mut().zip(&terms) {
                *d += 1;
                index += 1 << offset;
                if *d < f.arity {
                    break;
                }
                *d = 0;
                index -= (f.arity as usize) << offset;
            }
        }
    }

    /// [`fold`](Self::fold) straight into the mixed radix: an entry's cell
    /// is `Σ state · stride`, a multiply-add per variable and entry.
    fn fold_mixed(&self, order: &[usize], cells: &mut [u64]) {
        // Each variable's field and its stride in the output's mixed radix.
        let mut stride = 1;
        let terms: Vec<(Field, u64)> = order
            .iter()
            .map(|&v| {
                let f = self.layout.fields[v];
                let term = (f, stride);
                stride *= f.arity;
                term
            })
            .collect();
        let (mut tile, mut counts) = ([0u64; TILE], [0u64; TILE]);
        for block in &self.blocks {
            let len = block.len();
            for start in (0..len).step_by(TILE) {
                let end = len.min(start + TILE);
                let tile = &mut tile[..end - start];
                tile.fill(0);
                for (f, stride) in &terms {
                    let column = &block.column(f.word)[start..end];
                    for (cell, &w) in tile.iter_mut().zip(column) {
                        *cell += ((w >> f.shift) & f.mask) * stride;
                    }
                }
                block.tile_counts(start..end, &mut counts);
                for (&cell, &count) in tile.iter().zip(&counts) {
                    cells[cell as usize] += count;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construct::waitfree_build;
    use wfbn_data::{CorrelatedChain, Dataset, Generator, Schema, UniformIndependent};

    fn table(data: &Dataset, p: usize) -> PotentialTable {
        waitfree_build(data, p).unwrap().table
    }

    /// Brute-force marginal straight from the dataset, for cross-checking.
    fn brute_marginal(data: &Dataset, vars: &[usize]) -> Vec<u64> {
        let arities: Vec<u64> = vars
            .iter()
            .map(|&v| u64::from(data.schema().arity(v)))
            .collect();
        let cells: u64 = arities.iter().product();
        let mut counts = vec![0u64; cells as usize];
        for row in data.rows() {
            let mut idx = 0u64;
            let mut stride = 1u64;
            for (&v, &r) in vars.iter().zip(&arities) {
                idx += u64::from(row[v]) * stride;
                stride *= r;
            }
            counts[idx as usize] += 1;
        }
        counts
    }

    #[test]
    fn matches_brute_force_on_random_data() {
        let schema = Schema::new(vec![2, 3, 2, 4, 2]).unwrap();
        let data = UniformIndependent::new(schema).generate(5_000, 31);
        let t = table(&data, 4);
        for vars in [vec![0usize], vec![2], vec![0, 1], vec![1, 3], vec![0, 2, 4]] {
            let expected = brute_marginal(&data, &vars);
            for threads in [1usize, 2, 4] {
                let m = marginalize(&t, &vars, threads).unwrap();
                assert_eq!(m.counts, expected, "vars={vars:?} threads={threads}");
                assert_eq!(m.sum(), 5_000);
            }
        }
    }

    #[test]
    fn probabilities_normalize_to_one() {
        let schema = Schema::uniform(6, 2).unwrap();
        let data = CorrelatedChain::new(schema, 0.7)
            .unwrap()
            .generate(3_000, 8);
        let t = table(&data, 3);
        let m = marginalize(&t, &[1, 4], 2).unwrap();
        let total: f64 = m.probabilities().iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn collapse_derives_singletons_from_pair() {
        let schema = Schema::new(vec![2, 3, 4]).unwrap();
        let data = UniformIndependent::new(schema).generate(4_000, 12);
        let t = table(&data, 2);
        let pair = marginalize(&t, &[0, 2], 1).unwrap();
        let px = pair.collapse(&[0]);
        let py = pair.collapse(&[1]);
        assert_eq!(px.counts, brute_marginal(&data, &[0]));
        assert_eq!(py.counts, brute_marginal(&data, &[2]));
        assert_eq!(px.vars(), &[0]);
        assert_eq!(py.vars(), &[2]);
        assert_eq!(px.total(), 4_000);
    }

    #[test]
    fn collapse_of_triple_to_pair() {
        let schema = Schema::uniform(5, 2).unwrap();
        let data = CorrelatedChain::new(schema, 0.5)
            .unwrap()
            .generate(2_000, 9);
        let t = table(&data, 2);
        let triple = marginalize(&t, &[0, 2, 3], 1).unwrap();
        let pair = triple.collapse(&[0, 2]);
        assert_eq!(pair.counts, brute_marginal(&data, &[0, 3]));
    }

    #[test]
    fn marginal_over_all_vars_is_the_table_itself() {
        let schema = Schema::uniform(4, 2).unwrap();
        let data = UniformIndependent::new(schema).generate(1_000, 3);
        let t = table(&data, 2);
        let m = marginalize(&t, &[0, 1, 2, 3], 2).unwrap();
        // Every observed key's count must appear at its own cell.
        for (key, count) in t.iter() {
            assert_eq!(m.count_at(key as usize), count);
        }
    }

    #[test]
    fn index_of_round_trips() {
        let schema = Schema::new(vec![2, 3, 4]).unwrap();
        let data = UniformIndependent::new(schema).generate(100, 5);
        let t = table(&data, 1);
        let m = marginalize(&t, &[1, 2], 1).unwrap();
        let mut seen = std::collections::HashSet::new();
        for s1 in 0..3u16 {
            for s2 in 0..4u16 {
                assert!(seen.insert(m.index_of(&[s1, s2])));
            }
        }
        assert_eq!(seen.len(), m.num_cells());
    }

    #[test]
    fn reorder_permutes_dimensions() {
        let schema = Schema::new(vec![2, 3, 4]).unwrap();
        let data = UniformIndependent::new(schema).generate(2_000, 44);
        let t = table(&data, 2);
        let sorted = marginalize(&t, &[0, 1, 2], 1).unwrap();
        let perm = sorted.reorder(&[2, 0, 1]);
        assert_eq!(perm.vars(), &[2, 0, 1]);
        assert_eq!(perm.arities(), &[4, 2, 3]);
        for s0 in 0..2u16 {
            for s1 in 0..3u16 {
                for s2 in 0..4u16 {
                    assert_eq!(sorted.count(&[s0, s1, s2]), perm.count(&[s2, s0, s1]));
                }
            }
        }
        // Round trip back to sorted order.
        let back = perm.reorder(&[0, 1, 2]);
        assert_eq!(back, sorted);
    }

    #[test]
    #[should_panic(expected = "not in marginal")]
    fn reorder_rejects_foreign_variable() {
        let schema = Schema::uniform(3, 2).unwrap();
        let data = UniformIndependent::new(schema).generate(100, 1);
        let t = table(&data, 1);
        let m = marginalize(&t, &[0, 1], 1).unwrap();
        let _ = m.reorder(&[0, 2]);
    }

    #[test]
    fn rejects_bad_inputs() {
        let schema = Schema::uniform(4, 2).unwrap();
        let data = UniformIndependent::new(schema).generate(100, 5);
        let t = table(&data, 2);
        assert!(matches!(
            marginalize(&t, &[], 1),
            Err(CoreError::BadVariableSet { .. })
        ));
        assert!(matches!(
            marginalize(&t, &[3, 1], 1),
            Err(CoreError::BadVariableSet { .. })
        ));
        assert!(matches!(
            marginalize(&t, &[9], 1),
            Err(CoreError::VariableOutOfRange { .. })
        ));
        assert!(matches!(
            marginalize(&t, &[0], 0),
            Err(CoreError::ZeroThreads)
        ));
    }

    #[test]
    fn threads_beyond_partitions_are_clamped() {
        let schema = Schema::uniform(4, 2).unwrap();
        let data = UniformIndependent::new(schema).generate(500, 2);
        let t = table(&data, 2);
        let a = marginalize(&t, &[0, 3], 16).unwrap();
        let b = marginalize(&t, &[0, 3], 1).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn pack_layout_widths_and_word_breaks() {
        // 2 → 1 bit, 3 → 2 bits, 4 → 2 bits, 5 → 3 bits, 40 000 → 16 bits.
        let schema = Schema::new(vec![2, 3, 4, 5, 40_000]).unwrap();
        let layout = PackLayout::new(&KeyCodec::new(&schema));
        let placed: Vec<(usize, u32, u64)> = layout
            .fields
            .iter()
            .map(|f| (f.word, f.shift, f.mask))
            .collect();
        assert_eq!(
            placed,
            [(0, 0, 1), (0, 1, 3), (0, 3, 3), (0, 5, 7), (0, 8, 0xffff)]
        );
        assert_eq!(layout.words, 1);
        // Runs: {2} (3 breaks it), {3}, {4}, {5}, {40 000}.
        assert_eq!(layout.runs.len(), 5);
        // Power-of-two neighbours in one word decode as one run; a run ends
        // at another arity or a word break.
        let runs = |arities: Vec<u16>| {
            PackLayout::new(&KeyCodec::new(&Schema::new(arities).unwrap()))
                .runs
                .iter()
                .map(|f| (f.word, f.shift, f.width, f.arity))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            runs(vec![2, 4, 8, 3, 2, 256]),
            [(0, 0, 6, 64), (0, 6, 2, 3), (0, 8, 9, 512)]
        );
        assert_eq!(runs(vec![2; 63]), [(0, 0, 63, 1 << 63)]);
        assert_eq!(
            runs(vec![32_768, 32_768, 32_768, 32_768, 5, 2]),
            [(0, 0, 60, 1 << 60), (0, 60, 3, 5), (0, 63, 1, 2)]
        );
        let mut arities = vec![3; 32];
        arities.extend([2, 2]);
        let split = runs(arities);
        assert_eq!((split.len(), split[32]), (33, (1, 0, 2, 4)));
        // 40 ternary variables take 80 bits: 32 fit the first word exactly,
        // and the 33rd starts the second instead of straddling.
        let layout = PackLayout::new(&KeyCodec::new(&Schema::uniform(40, 3).unwrap()));
        assert_eq!(layout.words, 2);
        assert_eq!((layout.fields[31].word, layout.fields[31].shift), (0, 62));
        assert_eq!((layout.fields[32].word, layout.fields[32].shift), (1, 0));
    }

    #[test]
    fn packed_table_matches_the_hash_table_scan() {
        let schema = Schema::new(vec![2, 3, 2, 4, 2]).unwrap();
        let data = CorrelatedChain::new(schema, 0.6)
            .unwrap()
            .generate(4_000, 17);
        let t = table(&data, 3);
        assert!(matches!(
            PackedTable::pack(&t, 0),
            Err(CoreError::ZeroThreads)
        ));
        for threads in [1, 2, 3, 8] {
            let packed = PackedTable::pack(&t, threads).unwrap();
            assert_eq!(packed.num_entries(), t.num_entries());
            assert_eq!(packed.total_count(), 4_000);
            for order in [vec![4], vec![3, 1], vec![0, 2, 4], vec![4, 0, 3, 1]] {
                let mut sorted = order.clone();
                sorted.sort_unstable();
                let expected = marginalize(&t, &sorted, 1).unwrap().reorder(&order);
                assert_eq!(packed.marginalize(&order).unwrap(), expected);
            }
            assert!(packed.marginalize(&[]).is_err());
            assert!(packed.marginalize(&[1, 1]).is_err());
            assert!(packed.marginalize(&[0, 5]).is_err());
        }
    }

    #[test]
    fn sliced_and_folded_scopes_equal_the_hash_table_scan() {
        // Three blocks and a partial one, two entries counted 5 000 times
        // (13 count planes), and every ordered scope of up to three of the
        // variables: 2 to 504 cells, on both sides of the slicing limit.
        let schema = Schema::new(vec![2, 3, 9, 4, 2, 7, 8]).unwrap();
        let data = UniformIndependent::new(schema.clone()).generate(40_000, 3);
        let mut rows: Vec<&[u16]> = data.rows().collect();
        let heavy = [rows[0], rows[1]];
        for row in heavy {
            rows.extend(std::iter::repeat_n(row, 5_000));
        }
        let t = table(&Dataset::from_rows(schema, &rows).unwrap(), 2);
        assert!(t.num_entries() > 3 * BLOCK);
        let packed = PackedTable::pack(&t, 2).unwrap();
        let mut orders: Vec<Vec<usize>> = (0..7).map(|v| vec![v]).collect();
        for _ in 0..2 {
            let longer: Vec<Vec<usize>> = orders
                .iter()
                .flat_map(|o| {
                    (0..7)
                        .filter(|v| !o.contains(v))
                        .map(|v| [&o[..], &[v]].concat())
                })
                .collect();
            orders.extend(longer);
        }
        orders.sort();
        orders.dedup();
        assert_eq!(orders.len(), 7 + 42 + 210);
        let (mut sliced, mut folded) = (0, 0);
        // Scopes of 33–64 cells, the widest sliced, and of 65–128, the
        // narrowest folded.
        let (mut below_limit, mut above_limit) = (0, 0);
        for order in &orders {
            let mut sorted = order.clone();
            sorted.sort_unstable();
            let expected = marginalize(&t, &sorted, 1).unwrap().reorder(order);
            let cells = expected.num_cells() as u64;
            if cells <= SLICED_CELLS {
                sliced += 1;
                below_limit += usize::from(cells > SLICED_CELLS / 2);
            } else {
                folded += 1;
                above_limit += usize::from(cells <= 2 * SLICED_CELLS);
            }
            assert_eq!(packed.marginalize(order).unwrap(), expected, "{order:?}");
        }
        assert!(
            sliced > 40 && folded > 40,
            "{sliced} sliced, {folded} folded"
        );
        assert!(
            below_limit > 20 && above_limit > 20,
            "{below_limit} of 33-64 cells, {above_limit} of 65-128"
        );
    }

    #[test]
    fn a_variable_too_wide_to_slice_folds_even_alone() {
        // Arity 17 is the widest with bitmaps; 18 and 32 have none, and a
        // scope of either alone (18 and 32 cells) folds, as does one of 32
        // beside a binary variable (64 cells, within the slicing limit).
        let schema = Schema::new(vec![17, 18, 32, 2]).unwrap();
        let data = UniformIndependent::new(schema).generate(20_000, 4);
        let t = table(&data, 2);
        let packed = PackedTable::pack(&t, 2).unwrap();
        assert_eq!(packed.sliced.first, [0, usize::MAX, usize::MAX, 16]);
        assert_eq!(packed.sliced.bitmaps, 16 + 1);
        for order in [
            &[0][..],
            &[1],
            &[2],
            &[3],
            &[3, 0],
            &[1, 3],
            &[2, 3],
            &[3, 2, 1],
        ] {
            let mut sorted = order.to_vec();
            sorted.sort_unstable();
            let expected = marginalize(&t, &sorted, 1).unwrap().reorder(order);
            assert_eq!(packed.marginalize(order).unwrap(), expected, "{order:?}");
        }
    }

    /// A table over `arities` holding `n` distinct pseudo-random keys (from
    /// `seed`) with counts from 1 to 2^`count_bits`, in `p` partitions.
    fn random_table(
        arities: &[u16],
        n: usize,
        p: usize,
        count_bits: u32,
        seed: u64,
    ) -> PotentialTable {
        let codec = KeyCodec::new(&Schema::new(arities.to_vec()).unwrap());
        let space = codec.state_space();
        assert!(n as u64 <= space);
        let mut parts = vec![CountTable::new(); p];
        let (mut x, mut len) = (seed, 0);
        while len < n {
            x = wfbn_concurrent::mix64(x);
            let key = x % space;
            let part = &mut parts[(key % p as u64) as usize];
            if !part.contains(key) {
                part.increment(key, 1 + (x >> (64 - count_bits)));
                len += 1;
            }
        }
        PotentialTable::from_parts(codec, parts)
    }

    #[test]
    fn packing_on_either_side_of_the_serial_cutoff_keeps_every_entry() {
        // Two words per entry (24 ternary fields take 48 bits, arities 20,
        // 1000 and 2 the next 5 + 10 + 1, and 5 and 7 go to the second
        // word), two arities above 17.
        let mut arities = vec![3; 24];
        arities.extend([20, 1000, 2, 5, 7]);
        assert_eq!(
            PackLayout::new(&KeyCodec::new(&Schema::new(arities.clone()).unwrap())).words,
            2
        );
        for n in [SERIAL_PACK - 1, SERIAL_PACK, SERIAL_PACK + 1] {
            let t = random_table(&arities, n, 3, 12, n as u64);
            let want = t.to_sorted_vec();
            for threads in [1, 2, 3] {
                let packed = PackedTable::pack(&t, threads).unwrap();
                assert_eq!(packed.num_entries(), n);
                assert_eq!(
                    packed.to_sorted_vec(),
                    want,
                    "{n} entries, {threads} threads"
                );
            }
        }
    }

    /// The divide-and-modulo `collapse` the odometer replaced: each source
    /// cell's kept digits are extracted one `%` and `/` at a time.
    fn collapse_by_division(m: &MarginalTable, keep: &[usize]) -> MarginalTable {
        let arities: Vec<u64> = keep.iter().map(|&k| m.arities[k]).collect();
        let mut counts = vec![0u64; arities.iter().product::<u64>() as usize];
        for (idx, &c) in m.counts.iter().enumerate() {
            let (mut rest, mut dst, mut dst_stride) = (idx as u64, 0, 1);
            for (pos, &r) in m.arities.iter().enumerate() {
                let digit = rest % r;
                rest /= r;
                if keep.contains(&pos) {
                    dst += digit * dst_stride;
                    dst_stride *= r;
                }
            }
            counts[dst as usize] += c;
        }
        let vars = keep.iter().map(|&k| m.vars[k]).collect();
        MarginalTable::from_raw_parts(vars, arities, counts, m.total)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        #[test]
        fn odometer_collapse_equals_the_division_collapse(
            arities in proptest::collection::vec(1u64..=5, 1..=6),
            keep_mask in 1u32..64,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let n = arities.len();
            let cells: u64 = arities.iter().product();
            // Pseudo-random counts, zeros included, from a small LCG.
            let mut state = seed;
            let counts: Vec<u64> = (0..cells)
                .map(|_| {
                    state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                    (state >> 33) % 7
                })
                .collect();
            let total = counts.iter().sum();
            let m = MarginalTable::from_raw_parts((10..10 + n).collect(), arities, counts, total);
            let mut keep: Vec<usize> = (0..n).filter(|&i| keep_mask & (1 << i) != 0).collect();
            if keep.is_empty() {
                keep.push(n - 1);
            }
            proptest::prop_assert_eq!(m.collapse(&keep), collapse_by_division(&m, &keep));
        }

        #[test]
        fn a_packed_table_unpacks_to_the_table(
            drawn in proptest::collection::vec(2u16..=40, 1..=16),
            entries in 1usize..=9_000,
            partitions in 1usize..=3,
            seed in proptest::prelude::any::<u64>(),
        ) {
            // Keep the drawn arities while the state space fits a key.
            let mut arities = Vec::new();
            let mut space = 1u64;
            for r in drawn {
                match space.checked_mul(u64::from(r)) {
                    Some(next) if next < 1 << 62 => {
                        space = next;
                        arities.push(r);
                    }
                    _ => break,
                }
            }
            let n = entries.min(space as usize);
            let t = random_table(&arities, n, partitions, 12, seed);
            let want = t.to_sorted_vec();
            for threads in [1, 2, 3] {
                let packed = PackedTable::pack(&t, threads).unwrap();
                proptest::prop_assert_eq!(packed.to_sorted_vec(), want.clone());
            }
        }
    }

    proptest::proptest! {
        // Each case packs up to 40 000 entries three times and scans them
        // for a dozen scopes, so fewer cases than the block above.
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        #[test]
        #[cfg_attr(miri, ignore = "Miri interprets the packs and scans of 10⁵ entries slowly")]
        fn both_folds_equal_the_hash_table_scan(
            drawn in proptest::collection::vec(2u16..=40, 1..=40),
            entries in 1usize..=40_000,
            partitions in 1usize..=3,
            count_bits in 1u32..=20,
            seed in proptest::prelude::any::<u64>(),
        ) {
            // Keep the drawn arities while the state space fits a key; a
            // dozen or more of them usually take two or three words.
            let mut arities = Vec::new();
            let mut space = 1u64;
            for r in drawn {
                match space.checked_mul(u64::from(r)) {
                    Some(next) if next < 1 << 62 => {
                        space = next;
                        arities.push(r);
                    }
                    _ => break,
                }
            }
            let n = entries.min(space as usize);
            let t = random_table(&arities, n, partitions, count_bits, seed);
            // Every prefix of a seeded arrangement of the variables, up to
            // 2²⁰ cells: from one variable to past the padded-space bound.
            let mut order: Vec<usize> = (0..arities.len()).collect();
            let mut x = seed;
            for i in (1..order.len()).rev() {
                x = wfbn_concurrent::mix64(x);
                order.swap(i, (x % (i as u64 + 1)) as usize);
            }
            let mut cells = 1u64;
            let scopes: Vec<&[usize]> = (1..=order.len())
                .take_while(|&k| {
                    cells *= u64::from(arities[order[k - 1]]);
                    cells <= 1 << 20
                })
                .map(|k| &order[..k])
                .collect();
            for threads in 1..=3 {
                let packed = PackedTable::pack(&t, threads).unwrap();
                for &scope in &scopes {
                    let mut sorted = scope.to_vec();
                    sorted.sort_unstable();
                    let want = marginalize(&t, &sorted, 1).unwrap().reorder(scope);
                    let mut got = MarginalTable::zeroed_in_order(&packed.codec, scope, packed.total).unwrap();
                    packed.fold(scope, &mut got.counts);
                    proptest::prop_assert_eq!(&got, &want, "fold over {:?}", scope);
                    got.counts.fill(0);
                    packed.fold_mixed(scope, &mut got.counts);
                    proptest::prop_assert_eq!(&got, &want, "mixed fold over {:?}", scope);
                }
            }
        }
    }
}
