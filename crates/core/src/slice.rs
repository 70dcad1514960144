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

    /// Packs the next entries of `entries` until the block is full or they
    /// run out, then slices the variables of `sliced` and the counts, which
    /// pass through `counts` (room for `stride` of them). Returns the number
    /// of entries packed.
    pub(crate) fn fill(
        &mut self,
        layout: &PackLayout,
        sliced: &Sliced,
        entries: &mut impl Iterator<Item = (u64, u64)>,
        counts: &mut [u64],
    ) -> usize {
        self.len = layout.pack(entries, self.stride, &mut self.words, counts);
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
    pub(crate) fn weighted(&self, bits: &[u64]) -> u64 {
        let ones: u64 = bits.iter().map(|x| u64::from(x.count_ones())).sum();
        self.planes.iter().fold(ones, |n, &(c, p, plane)| {
            n + (u64::from((bits[c] & plane).count_ones()) << p)
        })
    }

    /// `Σ count` over the entries set in both `a` and `b`.
    pub(crate) fn weighted_and(&self, a: &[u64], b: &[u64]) -> u64 {
        let ones: u64 = a
            .iter()
            .zip(b)
            .map(|(x, y)| u64::from((x & y).count_ones()))
            .sum();
        self.planes.iter().fold(ones, |n, &(c, p, plane)| {
            n + (u64::from((a[c] & b[c] & plane).count_ones()) << p)
        })
    }

    /// Adds `n(v, a)`, the count of the held entries with `X_v = a`, to
    /// `singles[k]` for every bitmap `k = B[v, a]`.
    pub(crate) fn add_singles(&self, singles: &mut [u64]) {
        for (k, single) in singles.iter_mut().enumerate() {
            *single += self.weighted(self.bitmap(k));
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
        self.descend(terms, 0, None, 0, scratch, g);
    }

    /// Walks the digits of `terms` depth first, carrying the AND of the
    /// bitmaps of the `matched` digits chosen so far in `bits`.
    fn descend(
        &self,
        terms: &[Term],
        cell: usize,
        bits: Option<&[u64]>,
        matched: usize,
        scratch: &mut [u64],
        g: &mut [u64],
    ) {
        let Some((t, rest)) = terms.split_first() else {
            if let (2.., Some(bits)) = (matched, bits) {
                g[cell] += self.weighted(bits);
            }
            return;
        };
        // Digit r − 1: any state of this variable.
        self.descend(
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
