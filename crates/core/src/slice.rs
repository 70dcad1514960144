//! Bit-sliced blocks of packed entries: the one slicing routine behind the
//! packed snapshot ([`PackedTable`](crate::marginal::PackedTable)) and the
//! streaming scan of [`all_pairs_mi`](crate::allpairs::all_pairs_mi).
//!
//! A [`Block`] holds up to [`BLOCK`] entries packed word-major in a
//! [`PackLayout`] and two bit-sliced views of them:
//!
//! - one bitmap `B[v, a]` per state `a < r_v − 1` of each sliced variable
//!   `v`: bit `e % 64` of word `e / 64` is set when entry `e` has `X_v = a`;
//! - the bit planes of `count − 1`, kept as their non-zero words. They are
//!   the block's only copy of the counts: a scan that needs an entry's
//!   count rebuilds it from them a tile at a time.
//!
//! `Σ count` over the entries set in any bitmap is then a popcount per word
//! plus a popcount per non-zero plane word, weighted by `2^p`. That is exact
//! integer arithmetic, so every count taken this way equals the per-entry
//! scatter's. State `r_v − 1` needs no bitmap: its counts follow from the
//! other states' by subtraction from the singles and the total.
//!
//! Keeping counts as planes rather than one `u64` per entry shrinks a
//! serve epoch's snapshot of 16 binary variables from about 19.5 to 11.5
//! bytes per entry; the serve writer keeps one per live epoch.

use crate::count_table::{CountTable, SlotWalk};
use crate::marginal::PackLayout;
use core::ops::Range;

/// Entries per block. A block is packed and bit-sliced as one unit, so its
/// bitmaps (`BLOCK / 64` words each) stay in L1/L2 while they are counted.
pub(crate) const BLOCK: usize = 4096;

/// Words per bitmap of a full block.
pub(crate) const BLOCK_WORDS: usize = BLOCK / 64;

/// Which variables a block slices, and where their bitmaps sit.
#[derive(Debug, Clone)]
pub(crate) struct Sliced {
    /// Per variable, the index of its bitmap `B[v, 0]`; `B[v, a]` follows at
    /// `+ a` for `a < r_v − 1`. `usize::MAX` for a variable without bitmaps.
    pub(crate) first: Vec<usize>,
    /// Bitmaps per block: `Σ (r_v − 1)` over the sliced variables.
    pub(crate) bitmaps: usize,
}

impl Sliced {
    /// Slices each variable `v` of `layout` for which `slice(v)` holds.
    pub(crate) fn new(layout: &PackLayout, slice: impl Fn(usize) -> bool) -> Self {
        let (mut first, mut bitmaps) = (Vec::with_capacity(layout.fields.len()), 0);
        for (v, f) in layout.fields.iter().enumerate() {
            if slice(v) {
                first.push(bitmaps);
                bitmaps += (f.arity - 1) as usize;
            } else {
                first.push(usize::MAX);
            }
        }
        Self { first, bitmaps }
    }
}

/// One variable of a scope counted by [`Block::count_cells`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Term {
    /// Index of the variable's bitmap `B[v, 0]`.
    pub(crate) first: usize,
    /// The variable's arity `r_v`.
    pub(crate) arity: usize,
    /// The variable's stride in the scope's mixed radix.
    pub(crate) stride: usize,
}

/// How a bit-sliced kernel counts set bits. Each kernel is generic over it
/// and picks its instantiation once per call: [`Popcnt`] where the CPU has
/// the `popcnt` instruction, else [`Portable`]. The release build targets
/// baseline x86-64, where `count_ones` compiles to a software popcount of
/// about a dozen instructions. Both give the same counts.
pub(crate) trait BitCount: Copy {
    /// `Σ count` over the entries of `block` set in `bits`.
    fn weighted(self, block: &Block, bits: &[u64]) -> u64;
    /// `Σ count` over the entries of `block` set in both `a` and `b`.
    fn weighted_and(self, block: &Block, a: &[u64], b: &[u64]) -> u64;
}

/// `count_ones` as the build target compiles it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Portable;

impl BitCount for Portable {
    #[inline(always)]
    fn weighted(self, block: &Block, bits: &[u64]) -> u64 {
        block.weighted(bits)
    }
    #[inline(always)]
    fn weighted_and(self, block: &Block, a: &[u64], b: &[u64]) -> u64 {
        block.weighted_and(a, b)
    }
}

/// The `popcnt` instruction; a value exists only on a CPU that has it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Popcnt(());

impl Popcnt {
    /// `Some` if the running CPU has `popcnt`. Always `None` off x86-64 and
    /// under Miri.
    #[inline]
    pub(crate) fn detect() -> Option<Self> {
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        if std::arch::is_x86_feature_detected!("popcnt") {
            return Some(Self(()));
        }
        None
    }
}

impl BitCount for Popcnt {
    #[inline(always)]
    fn weighted(self, block: &Block, bits: &[u64]) -> u64 {
        // SAFETY: a `Popcnt` is made only by `detect`, after the CPU was
        // found to have the `popcnt` feature the callee is compiled for.
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        return unsafe { block.weighted_popcnt(bits) };
        #[cfg(not(all(target_arch = "x86_64", not(miri))))]
        block.weighted(bits)
    }
    #[inline(always)]
    fn weighted_and(self, block: &Block, a: &[u64], b: &[u64]) -> u64 {
        // SAFETY: as in `weighted`: the value proves the CPU has `popcnt`.
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        return unsafe { block.weighted_and_popcnt(a, b) };
        #[cfg(not(all(target_arch = "x86_64", not(miri))))]
        block.weighted_and(a, b)
    }
}

/// Up to [`BLOCK`] packed entries and their bit-sliced views; see the
/// [module docs](self).
#[derive(Debug, Clone)]
pub(crate) struct Block {
    /// Entries held.
    len: usize,
    /// Entries the buffers have room for: the column stride of `words`.
    stride: usize,
    /// The packed entries, word-major: word `w` of entry `e` at
    /// `words[w * stride + e]`.
    words: Vec<u64>,
    /// `B[v, a]`, `stride.div_ceil(64)` words each.
    bitmaps: Vec<u64>,
    /// The non-zero words of the bit planes of `count − 1`, as
    /// `(word, plane, bits)`, by word and then plane.
    planes: Vec<(usize, u32, u64)>,
}

impl Block {
    /// An empty block with room for `stride` entries and `bitmaps` bitmaps.
    pub(crate) fn new(layout: &PackLayout, bitmaps: usize, stride: usize) -> Self {
        Self {
            len: 0,
            stride,
            words: vec![0; layout.words * stride],
            bitmaps: vec![0; bitmaps * stride.div_ceil(64)],
            planes: Vec::new(),
        }
    }

    /// Packs the next entries of `walk` until the block is full or they run
    /// out, then slices the variables of `sliced` and the counts, which pass
    /// through `counts` (room for `stride` of them). Returns the number of
    /// entries packed.
    ///
    /// The walk copies the keys straight into the first word column, and
    /// the packing decodes them there in place.
    pub(crate) fn fill<'a>(
        &mut self,
        layout: &PackLayout,
        sliced: &Sliced,
        walk: &mut SlotWalk<'a, impl Iterator<Item = &'a CountTable>>,
        counts: &mut [u64],
    ) -> usize {
        let counts = &mut counts[..self.stride];
        self.len = walk.fill(&mut self.words[..self.stride], counts);
        layout.pack_in_place(self.len, self.stride, &mut self.words);
        self.slice(layout, sliced, &counts[..self.len]);
        self.len
    }

    /// Number of entries held.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Word `word` of every held entry.
    pub(crate) fn column(&self, word: usize) -> &[u64] {
        &self.words[word * self.stride..][..self.len]
    }

    /// Writes the counts of held entries `tile` to `counts`, rebuilt from
    /// the planes: `1 + Σ_p 2^p` over the planes that set the entry's bit.
    /// `tile` starts at a multiple of 64.
    pub(crate) fn tile_counts(&self, tile: Range<usize>, counts: &mut [u64]) {
        debug_assert_eq!(tile.start % 64, 0);
        let counts = &mut counts[..tile.len()];
        counts.fill(1);
        let (lo, hi) = (tile.start / 64, tile.end.div_ceil(64));
        let first = self.planes.partition_point(|&(c, ..)| c < lo);
        for &(c, p, bits) in self.planes[first..].iter().take_while(|&&(c, ..)| c < hi) {
            let mut bits = bits;
            while bits != 0 {
                counts[(c - lo) * 64 + bits.trailing_zeros() as usize] += 1 << p;
                bits &= bits - 1;
            }
        }
    }

    /// Bitmap `k` over the held entries.
    pub(crate) fn bitmap(&self, k: usize) -> &[u64] {
        &self.bitmaps[k * self.stride.div_ceil(64)..][..self.len.div_ceil(64)]
    }

    /// `Σ count` over the entries set in `bits`.
    #[inline(always)]
    fn weighted(&self, bits: &[u64]) -> u64 {
        let ones: u64 = bits.iter().map(|x| u64::from(x.count_ones())).sum();
        self.planes.iter().fold(ones, |n, &(c, p, plane)| {
            n + (u64::from((bits[c] & plane).count_ones()) << p)
        })
    }

    /// `Σ count` over the entries set in both `a` and `b`.
    #[inline(always)]
    fn weighted_and(&self, a: &[u64], b: &[u64]) -> u64 {
        let ones: u64 = a
            .iter()
            .zip(b)
            .map(|(x, y)| u64::from((x & y).count_ones()))
            .sum();
        self.planes.iter().fold(ones, |n, &(c, p, plane)| {
            n + (u64::from((a[c] & b[c] & plane).count_ones()) << p)
        })
    }

    /// [`weighted`](Self::weighted) compiled with the `popcnt` instruction.
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    #[target_feature(enable = "popcnt")]
    fn weighted_popcnt(&self, bits: &[u64]) -> u64 {
        self.weighted(bits)
    }

    /// [`weighted_and`](Self::weighted_and) compiled with the `popcnt`
    /// instruction.
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    #[target_feature(enable = "popcnt")]
    fn weighted_and_popcnt(&self, a: &[u64], b: &[u64]) -> u64 {
        self.weighted_and(a, b)
    }

    /// Adds `n(v, a)`, the count of the held entries with `X_v = a`, to
    /// `singles[k]` for every bitmap `k = B[v, a]`.
    pub(crate) fn add_singles(&self, singles: &mut [u64]) {
        match Popcnt::detect() {
            Some(hw) => self.add_singles_with(hw, singles),
            None => self.add_singles_with(Portable, singles),
        }
    }

    fn add_singles_with(&self, bc: impl BitCount, singles: &mut [u64]) {
        for (k, single) in singles.iter_mut().enumerate() {
            *single += bc.weighted(self, self.bitmap(k));
        }
    }

    /// Adds the held entries' counts into `g`, a marginal over `terms` in
    /// which digit `r_v − 1` stands for *any* state of `X_v`: cell `g[d]`
    /// gains `Σ count` over the entries with `X_v = d_v` for every digit
    /// `d_v < r_v − 1`. Only cells with two or more such digits are counted
    /// (one `k`-way AND and a weighted popcount per 64 entries); the others
    /// are the singles and the total, which the caller holds.
    ///
    /// `scratch` needs `terms.len() * BLOCK_WORDS` words.
    pub(crate) fn count_cells(&self, terms: &[Term], g: &mut [u64], scratch: &mut [u64]) {
        match Popcnt::detect() {
            Some(hw) => self.descend(hw, terms, 0, None, 0, scratch, g),
            None => self.descend(Portable, terms, 0, None, 0, scratch, g),
        }
    }

    /// Walks the digits of `terms` depth first, carrying the AND of the
    /// bitmaps of the `matched` digits chosen so far in `bits`.
    #[allow(clippy::too_many_arguments)]
    fn descend(
        &self,
        bc: impl BitCount,
        terms: &[Term],
        cell: usize,
        bits: Option<&[u64]>,
        matched: usize,
        scratch: &mut [u64],
        g: &mut [u64],
    ) {
        let Some((t, rest)) = terms.split_first() else {
            if let (2.., Some(bits)) = (matched, bits) {
                g[cell] += bc.weighted(self, bits);
            }
            return;
        };
        // Digit r − 1: any state of this variable.
        self.descend(
            bc,
            rest,
            cell + (t.arity - 1) * t.stride,
            bits,
            matched,
            scratch,
            g,
        );
        let (and, scratch) = scratch.split_at_mut(self.len.div_ceil(64));
        for a in 0..t.arity - 1 {
            let b = self.bitmap(t.first + a);
            let next = match bits {
                None => b,
                Some(bits) => {
                    for ((o, &x), &y) in and.iter_mut().zip(bits).zip(b) {
                        *o = x & y;
                    }
                    &*and
                }
            };
            self.descend(
                bc,
                rest,
                cell + a * t.stride,
                Some(next),
                matched + 1,
                scratch,
                g,
            );
        }
    }

    /// Fills the bitmaps of `sliced` and the planes of `counts` from the
    /// packed entries, 64 at a time: one transpose of a packed word column
    /// gives a plane per bit position, and `B[v, a]` is the AND of variable
    /// `v`'s planes, each complemented where `a`'s bit is 0. The counts'
    /// planes follow the same way, keeping only non-zero words.
    fn slice(&mut self, layout: &PackLayout, sliced: &Sliced, counts: &[u64]) {
        self.planes.clear();
        let bitmap_words = self.stride.div_ceil(64);
        let mut m = [0u64; 64];
        for c in 0..self.len.div_ceil(64) {
            let lo = c * 64;
            let n = (self.len - lo).min(64);
            let valid = u64::MAX >> (64 - n);
            let mut loaded = usize::MAX;
            let fields = layout.fields.iter().zip(&sliced.first);
            for (f, &first) in fields.filter(|&(_, &first)| first != usize::MAX) {
                if f.word != loaded {
                    m[..n].copy_from_slice(&self.words[f.word * self.stride + lo..][..n]);
                    transpose(&mut m);
                    loaded = f.word;
                }
                let planes = &m[f.shift as usize..][..f.width as usize];
                for a in 0..f.arity - 1 {
                    let bits = planes.iter().enumerate().fold(valid, |bits, (b, &plane)| {
                        bits & if (a >> b) & 1 == 1 { plane } else { !plane }
                    });
                    self.bitmaps[(first + a as usize) * bitmap_words + c] = bits;
                }
            }
            // Every stored count is at least 1.
            m.fill(0);
            let mut any = 0;
            for (d, &count) in m.iter_mut().zip(&counts[lo..lo + n]) {
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
}

/// Transposes a 64 × 64 bit matrix in place: bit `e` of `m[b]` becomes bit
/// `b` of `m[e]`. Applied to 64 entries' packed words, it turns them into
/// one plane per bit position.
///
/// Six levels, each swapping the off-diagonal `J × J` blocks of every
/// `2J × 2J` block. `J` is a constant in each level, so its row pairs are
/// fixed slices the compiler unrolls and vectorizes.
fn transpose(m: &mut [u64; 64]) {
    swap_blocks::<32>(m, 0x0000_0000_ffff_ffff);
    swap_blocks::<16>(m, 0x0000_ffff_0000_ffff);
    swap_blocks::<8>(m, 0x00ff_00ff_00ff_00ff);
    swap_blocks::<4>(m, 0x0f0f_0f0f_0f0f_0f0f);
    swap_blocks::<2>(m, 0x3333_3333_3333_3333);
    swap_blocks::<1>(m, 0x5555_5555_5555_5555);
}

/// One level of [`transpose`]: in each `2J` rows, swaps the high `J` bits
/// of every `2J`-bit group of row `k < J` (`!mask`) with the low `J` bits
/// of row `k + J` (`mask`).
#[inline(always)]
fn swap_blocks<const J: usize>(m: &mut [u64; 64], mask: u64) {
    for rows in m.chunks_exact_mut(2 * J) {
        let (lo, hi) = rows.split_at_mut(J);
        for (a, b) in lo.iter_mut().zip(hi) {
            let t = ((*a >> J) ^ *b) & mask;
            *a ^= t << J;
            *b ^= t;
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::codec::KeyCodec;
    use wfbn_data::Schema;

    /// A full block of random entries of `schema`, every variable sliced,
    /// with counts up to 2¹⁰ so it holds plane words of several weights.
    pub(crate) fn random_block(schema: Vec<u16>, seed: u64) -> (PackLayout, Sliced, Block) {
        let codec = KeyCodec::new(&Schema::new(schema).unwrap());
        let layout = PackLayout::new(&codec);
        let sliced = Sliced::new(&layout, |_| true);
        // Keys repeat: each goes to the first table that lacks it.
        let mut tables: Vec<CountTable> = Vec::new();
        let mut x = seed;
        for _ in 0..BLOCK {
            x = wfbn_concurrent::mix64(x);
            let (key, count) = (x % codec.state_space(), 1 + (x >> 54));
            match tables.iter_mut().find(|t| !t.contains(key)) {
                Some(table) => table.increment(key, count),
                None => tables.push([(key, count)].into_iter().collect()),
            }
        }
        let mut block = Block::new(&layout, sliced.bitmaps, BLOCK);
        let mut walk = SlotWalk::new(tables.iter());
        assert_eq!(
            block.fill(&layout, &sliced, &mut walk, &mut vec![0; BLOCK]),
            BLOCK
        );
        (layout, sliced, block)
    }

    #[test]
    fn popcnt_and_portable_kernels_give_equal_counts_on_random_blocks() {
        let Some(hw) = Popcnt::detect() else {
            return; // no `popcnt` on this CPU: only the portable body runs
        };
        for seed in 1..=4 {
            let (layout, sliced, block) = random_block(vec![2, 3, 2, 4, 2, 5, 2], seed);
            for k in 0..sliced.bitmaps {
                let a = block.bitmap(k);
                assert_eq!(hw.weighted(&block, a), Portable.weighted(&block, a));
                let b = block.bitmap((k * 7 + 3) % sliced.bitmaps);
                assert_eq!(
                    hw.weighted_and(&block, a, b),
                    Portable.weighted_and(&block, a, b)
                );
            }
            // Scopes of 2 to 5 variables, up to 32 cells.
            for order in [
                &[0, 1][..],
                &[3, 1],
                &[0, 2, 4],
                &[1, 3, 6],
                &[0, 2, 4, 6, 1],
            ] {
                let mut stride = 1;
                let terms: Vec<Term> = order
                    .iter()
                    .map(|&v| {
                        let arity = layout.fields[v].arity as usize;
                        let term = Term {
                            first: sliced.first[v],
                            arity,
                            stride,
                        };
                        stride *= arity;
                        term
                    })
                    .collect();
                let mut scratch = vec![0; terms.len() * BLOCK_WORDS];
                let (mut want, mut got) = (vec![0; stride], vec![0; stride]);
                block.descend(Portable, &terms, 0, None, 0, &mut scratch, &mut want);
                block.descend(hw, &terms, 0, None, 0, &mut scratch, &mut got);
                assert_eq!(got, want, "seed {seed}, scope {order:?}");
                assert!(want.iter().any(|&n| n > 0));
            }
        }
    }

    /// The transpose bit by bit: bit `e` of `m[b]` is bit `b` of row `e`.
    fn naive_transpose(rows: &[u64; 64]) -> [u64; 64] {
        let mut m = [0u64; 64];
        for (b, plane) in m.iter_mut().enumerate() {
            for (e, &row) in rows.iter().enumerate() {
                *plane |= ((row >> b) & 1) << e;
            }
        }
        m
    }

    #[test]
    fn transpose_swaps_rows_and_columns() {
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut cases: Vec<[u64; 64]> = vec![[0; 64], [u64::MAX; 64]];
        cases.push(core::array::from_fn(|k| 1 << k));
        cases.push(core::array::from_fn(|k| 1 << (63 - k)));
        for _ in 0..200 {
            // Dense rows, sparse rows and rows of few low bits, as packed
            // binary fields and count planes give.
            let dense: [u64; 64] = core::array::from_fn(|_| next());
            let sparse: [u64; 64] = core::array::from_fn(|_| next() & next() & next());
            let low: [u64; 64] = core::array::from_fn(|_| next() >> 58);
            cases.extend([dense, sparse, low]);
        }
        for rows in cases {
            let mut m = rows;
            transpose(&mut m);
            assert_eq!(m, naive_transpose(&rows));
            transpose(&mut m);
            assert_eq!(m, rows, "a transpose is its own inverse");
        }
    }
}
