//! Open-addressed `key → count` hash table.
//!
//! One `CountTable` is a single core's private partition of the distributed
//! potential table. It is deliberately *not* thread-safe: the wait-free
//! primitive guarantees by construction that at any instant each table is
//! touched by exactly one thread, so the table can use plain loads and
//! stores — the entire point of the paper's design.
//!
//! Implementation: linear-probing open addressing over two parallel arrays
//! (keys, counts) with power-of-two capacity, a full-avalanche slot hash,
//! and the all-ones key as the empty sentinel (codecs guarantee real keys
//! are strictly below it). Linear probing keeps the probe sequence within
//! one or two cache lines, which is what makes the private-table design fast
//! in practice. Keys are the codec's `u64` state-string codes; [`Key`] holds
//! their slot hash, their owner rule and the sentinel.
//!
//! The table counts *probes* (slot inspections) as it works — a single local
//! `u64` increment, cheap enough to leave always-on. The PRAM simulator
//! charges cycle costs from these counters, and the stats surface in
//! [`BuildStats`](crate::stats::BuildStats).

use wfbn_concurrent::mix64;

/// A table key: a mixed-radix state-string code, the paper's Eq. 3 `u64`.
///
/// Implemented for `u64` only; the trait names the three things the build
/// needs of a key, so `key.owner(p)` reads as the one ownership rule.
pub trait Key: Copy {
    /// Empty-slot sentinel, the all-ones value. Codecs never produce it.
    const EMPTY: Self;

    /// The slot hash.
    fn mix(self) -> u64;

    /// The core that owns this key among `p`: `key % p`, Algorithm 1's
    /// rule and the only key-to-core map in the crate. Core `owner` is the
    /// unique writer of the key's count, which is what makes the build
    /// wait-free.
    fn owner(self, p: usize) -> usize;
}

impl Key for u64 {
    const EMPTY: u64 = u64::MAX;

    #[inline]
    fn mix(self) -> u64 {
        mix64(self)
    }

    #[inline]
    fn owner(self, p: usize) -> usize {
        (self % p as u64) as usize
    }
}

/// Maximum load factor before growth, as (numerator, denominator).
const MAX_LOAD: (usize, usize) = (7, 10);

/// An open-addressed hash table from `u64` [`Key`]s to `u64` counts.
///
/// # Examples
///
/// ```
/// use wfbn_core::CountTable;
///
/// let mut t: CountTable = CountTable::new();
/// t.increment(42, 1);
/// t.increment(42, 2);
/// t.increment(7, 1);
/// assert_eq!(t.get(42), 3);
/// assert_eq!(t.get(7), 1);
/// assert_eq!(t.get(999), 0);
/// assert_eq!(t.len(), 2);
/// assert_eq!(t.total_count(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct CountTable {
    keys: Vec<u64>,
    counts: Vec<u64>,
    /// Number of occupied slots.
    len: usize,
    /// `capacity − 1`; capacity is always a power of two.
    mask: usize,
    /// Total slot inspections performed (instrumentation).
    probes: u64,
    /// Number of growth (rehash) events (instrumentation).
    grows: u64,
}

impl Default for CountTable {
    fn default() -> Self {
        Self::new()
    }
}

impl CountTable {
    /// Initial capacity for `new()` (slots).
    const INITIAL_CAPACITY: usize = 16;

    /// Creates an empty table with a small initial capacity.
    pub fn new() -> Self {
        Self::with_capacity(Self::INITIAL_CAPACITY)
    }

    /// Creates an empty table able to hold roughly `entries` keys before
    /// growing.
    pub fn with_capacity(entries: usize) -> Self {
        // Size so that `entries` stays under the load limit.
        let slots = (entries.max(1) * MAX_LOAD.1 / MAX_LOAD.0 + 1)
            .next_power_of_two()
            .max(Self::INITIAL_CAPACITY);
        Self {
            keys: vec![u64::EMPTY; slots],
            counts: vec![0; slots],
            len: 0,
            mask: slots - 1,
            probes: 0,
            grows: 0,
        }
    }

    /// Number of distinct keys stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no keys are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Current slot capacity.
    pub fn capacity(&self) -> usize {
        self.keys.len()
    }

    /// Total slot inspections since construction (instrumentation counter).
    pub fn probes(&self) -> u64 {
        self.probes
    }

    /// Number of times the table grew (rehashed) since construction.
    pub fn grows(&self) -> u64 {
        self.grows
    }

    /// Sum of all counts (the number of update operations applied, weighted).
    pub fn total_count(&self) -> u64 {
        self.counts.iter().sum()
    }

    #[inline]
    fn slot_of(&self, key: u64) -> usize {
        (key.mix() as usize) & self.mask
    }

    /// Reports the key and count words of `slot` to the ownership auditor.
    #[cfg(feature = "ownership-audit")]
    #[inline]
    fn record_slot(&self, slot: usize) {
        use core::mem::size_of;
        wfbn_concurrent::audit::record_write((&raw const self.keys[slot]).cast(), size_of::<u64>());
        wfbn_concurrent::audit::record_write(
            (&raw const self.counts[slot]).cast(),
            size_of::<u64>(),
        );
    }

    /// Adds `by` to `key`'s count, inserting the key if absent.
    ///
    /// # Panics
    ///
    /// Panics if `key` is the all-ones sentinel — unreachable for keys
    /// produced by a validated [`KeyCodec`](crate::codec::KeyCodec).
    #[inline]
    pub fn increment(&mut self, key: u64, by: u64) {
        assert!(key != u64::EMPTY, "the all-ones key is reserved");
        if (self.len + 1) * MAX_LOAD.1 > self.keys.len() * MAX_LOAD.0 {
            self.grow();
        }
        let mut slot = self.slot_of(key);
        loop {
            self.probes += 1;
            let k = self.keys[slot];
            if k == key {
                self.counts[slot] += by;
                #[cfg(feature = "ownership-audit")]
                self.record_slot(slot);
                return;
            }
            if k == u64::EMPTY {
                self.keys[slot] = key;
                self.counts[slot] = by;
                self.len += 1;
                #[cfg(feature = "ownership-audit")]
                self.record_slot(slot);
                return;
            }
            slot = (slot + 1) & self.mask;
        }
    }

    /// Like [`increment`](Self::increment), but returns how many slot
    /// inspections the operation cost (the delta of [`probes`](Self::probes)).
    ///
    /// The observability layer feeds the return value into the probe-length
    /// histogram: exactly one histogram entry per table increment. If the
    /// operation triggered a growth, the rehash's re-insert probes are
    /// attributed to this increment (they land in the histogram's tail
    /// bucket, making growth spikes visible).
    #[inline]
    pub(crate) fn increment_probed(&mut self, key: u64, by: u64) -> u64 {
        let before = self.probes;
        self.increment(key, by);
        self.probes - before
    }

    /// Grows until `additional` more *distinct* keys fit under the load
    /// limit. Called once per block by the block paths so the slot mask is
    /// stable across the whole block (no mid-block rehash), and usable as
    /// the rows-based capacity hint for streaming tables.
    pub fn reserve(&mut self, additional: usize) {
        while (self.len + additional) * MAX_LOAD.1 > self.keys.len() * MAX_LOAD.0 {
            self.grow();
        }
    }

    /// Applies a block of `(key, by)` pairs, equivalent to calling
    /// [`increment`](Self::increment) for each pair in order.
    ///
    /// The stage-2 fast path: capacity for the whole block is
    /// reserved up front (one load check per block instead of one per key,
    /// and a stable mask), then each 16-pair tile is **pre-hashed** — slot
    /// indices computed and their cache lines prefetched — before any
    /// probing starts, so the table's random-access misses overlap instead
    /// of serializing.
    ///
    /// # Panics
    ///
    /// Panics if any key is the all-ones sentinel.
    pub fn increment_block(&mut self, block: &[(u64, u64)]) {
        self.increment_block_probed(block, |_| {});
    }

    /// Like [`increment_block`](Self::increment_block), but calls `probe`
    /// with the slot-inspection count of every applied pair — exactly one
    /// call per pair, so the observability layer's probe histogram keeps its
    /// one-entry-per-increment mass invariant on the block path.
    pub(crate) fn increment_block_probed(&mut self, block: &[(u64, u64)], probe: impl FnMut(u64)) {
        self.apply_block_probed(block, probe);
    }

    /// Applies a block of keys, each incrementing its count by 1 —
    /// `increment_block` without materializing `(key, 1)` pairs — with one
    /// `probe` callback per key, mirroring
    /// [`increment_block_probed`](Self::increment_block_probed). Stage 1 of
    /// the build feeds each block's locally owned keys straight in.
    ///
    /// # Panics
    ///
    /// Panics if any key is the all-ones sentinel.
    pub(crate) fn increment_keys_probed(&mut self, keys: &[u64], probe: impl FnMut(u64)) {
        self.apply_block_probed(keys, probe);
    }

    /// Shared reserve → pre-hash → probe engine behind the block entry
    /// points; monomorphized per item shape ( bare key or `(key, by)` pair).
    fn apply_block_probed<I: BlockItem>(&mut self, block: &[I], mut probe: impl FnMut(u64)) {
        /// Pre-hash tile width: long enough to cover the prefetch latency,
        /// short enough that the tile's slots stay in the L1 miss queue.
        const TILE: usize = 16;
        self.reserve(block.len());
        let mut slots = [0usize; TILE];
        for chunk in block.chunks(TILE) {
            for (i, item) in chunk.iter().enumerate() {
                let key = item.key();
                assert!(key != u64::EMPTY, "the all-ones key is reserved");
                let slot = self.slot_of(key);
                slots[i] = slot;
                prefetch_slot(&self.keys[slot]);
                prefetch_slot(&self.counts[slot]);
            }
            for (i, item) in chunk.iter().enumerate() {
                let (key, by) = (item.key(), item.by());
                let before = self.probes;
                let mut slot = slots[i];
                loop {
                    self.probes += 1;
                    let k = self.keys[slot];
                    if k == key {
                        self.counts[slot] += by;
                        break;
                    }
                    if k == u64::EMPTY {
                        self.keys[slot] = key;
                        self.counts[slot] = by;
                        self.len += 1;
                        break;
                    }
                    slot = (slot + 1) & self.mask;
                }
                #[cfg(feature = "ownership-audit")]
                self.record_slot(slot);
                probe(self.probes - before);
            }
        }
    }

    /// Returns `key`'s count (0 if absent).
    #[inline]
    pub fn get(&self, key: u64) -> u64 {
        let mut slot = self.slot_of(key);
        loop {
            let k = self.keys[slot];
            if k == key {
                return self.counts[slot];
            }
            if k == u64::EMPTY {
                return 0;
            }
            slot = (slot + 1) & self.mask;
        }
    }

    /// `true` if `key` is present.
    pub fn contains(&self, key: u64) -> bool {
        self.get(key) != 0 || {
            // A key could in principle be present with count 0 (inserted via
            // increment(k, 0)); resolve precisely.
            let mut slot = self.slot_of(key);
            loop {
                let k = self.keys[slot];
                if k == key {
                    return true;
                }
                if k == u64::EMPTY {
                    return false;
                }
                slot = (slot + 1) & self.mask;
            }
        }
    }

    fn grow(&mut self) {
        self.grows += 1;
        let new_slots = self.keys.len() * 2;
        let old_keys = std::mem::replace(&mut self.keys, vec![u64::EMPTY; new_slots]);
        let old_counts = std::mem::replace(&mut self.counts, vec![0; new_slots]);
        // The old arrays go back to the allocator below; a later allocation
        // owned by another core may reuse their addresses.
        #[cfg(feature = "ownership-audit")]
        {
            wfbn_concurrent::audit::retire_range(
                old_keys.as_ptr().cast(),
                core::mem::size_of_val(old_keys.as_slice()),
            );
            wfbn_concurrent::audit::retire_range(
                old_counts.as_ptr().cast(),
                core::mem::size_of_val(old_counts.as_slice()),
            );
        }
        self.mask = new_slots - 1;
        self.len = 0;
        for (key, count) in old_keys.into_iter().zip(old_counts) {
            if key != u64::EMPTY {
                // Re-insert without the load check (capacity is sufficient).
                let mut slot = self.slot_of(key);
                loop {
                    self.probes += 1;
                    if self.keys[slot] == u64::EMPTY {
                        self.keys[slot] = key;
                        self.counts[slot] = count;
                        self.len += 1;
                        #[cfg(feature = "ownership-audit")]
                        self.record_slot(slot);
                        break;
                    }
                    slot = (slot + 1) & self.mask;
                }
            }
        }
    }

    /// Iterates over `(key, count)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.keys
            .iter()
            .zip(&self.counts)
            .filter(|(&k, _)| k != u64::EMPTY)
            .map(|(&k, &c)| (k, c))
    }

    /// Merges all entries of `other` into `self`.
    pub fn merge_from(&mut self, other: &CountTable) {
        for (k, c) in other.iter() {
            self.increment(k, c);
        }
    }

    /// Drains this table into a sorted `(key, count)` vector (test helper;
    /// sorting makes results comparable across implementations).
    pub fn to_sorted_vec(&self) -> Vec<(u64, u64)> {
        let mut v: Vec<(u64, u64)> = self.iter().collect();
        v.sort_unstable_by_key(|&(k, _)| k);
        v
    }
}

/// Item shape accepted by the block engine: a bare key (count 1) or an
/// explicit `(key, count)` pair. Private — the public surface stays the
/// concrete `increment_keys_probed` / `increment_block*` methods.
trait BlockItem: Copy {
    /// The table key.
    fn key(&self) -> u64;
    /// The count delta.
    fn by(&self) -> u64;
}

impl BlockItem for u64 {
    #[inline(always)]
    fn key(&self) -> u64 {
        *self
    }
    #[inline(always)]
    fn by(&self) -> u64 {
        1
    }
}

impl BlockItem for (u64, u64) {
    #[inline(always)]
    fn key(&self) -> u64 {
        self.0
    }
    #[inline(always)]
    fn by(&self) -> u64 {
        self.1
    }
}

/// Hints the cache to pull `p`'s line; a no-op off x86-64 and under Miri
/// (which does not model caches and may reject hint intrinsics).
#[inline(always)]
fn prefetch_slot<T>(p: *const T) {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    // SAFETY: _mm_prefetch is a pure performance hint with no memory effects;
    // it is defined for any address value.
    unsafe {
        core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(p.cast::<i8>());
    }
    #[cfg(not(all(target_arch = "x86_64", not(miri))))]
    let _ = p;
}

#[cfg(feature = "ownership-audit")]
impl Drop for CountTable {
    fn drop(&mut self) {
        // Release the table's words from the shadow map so a reused
        // allocation cannot be mistaken for a cross-core conflict.
        wfbn_concurrent::audit::retire_range(
            self.keys.as_ptr().cast(),
            core::mem::size_of_val(self.keys.as_slice()),
        );
        wfbn_concurrent::audit::retire_range(
            self.counts.as_ptr().cast(),
            core::mem::size_of_val(self.counts.as_slice()),
        );
    }
}

impl FromIterator<(u64, u64)> for CountTable {
    fn from_iter<I: IntoIterator<Item = (u64, u64)>>(iter: I) -> Self {
        let mut t = CountTable::new();
        for (k, c) in iter {
            t.increment(k, c);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owners_are_in_range() {
        for p in [1usize, 2, 3, 7, 32] {
            for key in (0..10_000u64).step_by(37) {
                assert!(key.owner(p) < p, "p={p} key={key}");
            }
        }
    }

    #[test]
    fn modulo_matches_paper() {
        assert_eq!(0u64.owner(4), 0);
        assert_eq!(5u64.owner(4), 1);
        assert_eq!(7u64.owner(4), 3);
    }

    #[test]
    fn uniform_keys_balance() {
        let p = 8;
        let mut counts = vec![0u64; p];
        for key in (0..1u64 << 20).step_by(11) {
            counts[key.owner(p)] += 1;
        }
        let min = *counts.iter().min().unwrap() as f64;
        let max = *counts.iter().max().unwrap() as f64;
        assert!(max / min < 1.2, "{counts:?}");
    }

    #[test]
    fn strided_keys_expose_modulo_imbalance() {
        // Keys all ≡ 0 (mod 4) land on core 0: the skew `key % P` cannot
        // avoid, and the adversarial-partition workload relies on.
        let keys: Vec<u64> = (0..4096u64).map(|i| i * 4).collect();
        assert!(keys.iter().all(|k| k.owner(4) == 0));
        assert!(keys.iter().any(|k| k.owner(3) != 0));
    }

    #[test]
    fn counts_accumulate() {
        let mut t = CountTable::new();
        for i in 0..100u64 {
            t.increment(i % 10, 1);
        }
        assert_eq!(t.len(), 10);
        for k in 0..10u64 {
            assert_eq!(t.get(k), 10);
        }
        assert_eq!(t.total_count(), 100);
    }

    #[test]
    fn grows_past_initial_capacity() {
        let mut t = CountTable::with_capacity(4);
        let n = 10_000u64;
        for i in 0..n {
            t.increment(i, 1);
        }
        assert_eq!(t.len() as u64, n);
        assert!(t.capacity() >= n as usize);
        for i in (0..n).step_by(97) {
            assert_eq!(t.get(i), 1);
        }
        assert_eq!(t.get(n + 1), 0);
    }

    #[test]
    fn handles_adversarially_clustered_keys() {
        // Sequential keys cluster badly without a mixing hash. Pre-size so
        // the probe counter measures insert probes, not growth rehashing.
        let mut t = CountTable::with_capacity(5_000);
        for i in 0..5_000u64 {
            t.increment(i, 1);
        }
        // Average probes per op should stay small (< 2 with mixing at our
        // load factor; a clustered/unmixed table would blow far past this).
        let per_op = t.probes() as f64 / 5_000.0;
        assert!(per_op < 2.0, "probe avalanche failed: {per_op} probes/op");
    }

    #[test]
    fn zero_increment_inserts_key() {
        let mut t: CountTable = CountTable::new();
        t.increment(5, 0);
        assert_eq!(t.get(5), 0);
        assert!(t.contains(5));
        assert!(!t.contains(6));
        assert_eq!(t.len(), 1);
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn sentinel_key_rejected() {
        let mut t = CountTable::new();
        t.increment(u64::MAX, 1);
    }

    #[test]
    fn merge_combines_counts() {
        let mut a: CountTable = [(1u64, 2u64), (2, 3)].into_iter().collect();
        let b: CountTable = [(2u64, 1u64), (3, 7)].into_iter().collect();
        a.merge_from(&b);
        assert_eq!(a.to_sorted_vec(), vec![(1, 2), (2, 4), (3, 7)]);
    }

    #[test]
    fn iter_visits_each_entry_once() {
        let mut t = CountTable::new();
        for i in 0..500u64 {
            t.increment(i * 3, i);
        }
        let mut seen: Vec<(u64, u64)> = t.iter().collect();
        seen.sort_unstable();
        assert_eq!(seen.len(), 500);
        for (i, &(k, c)) in seen.iter().enumerate() {
            assert_eq!(k, i as u64 * 3);
            assert_eq!(c, i as u64);
        }
    }

    #[test]
    fn matches_std_hashmap_on_random_workload() {
        use std::collections::HashMap;
        let mut t = CountTable::new();
        let mut reference: HashMap<u64, u64> = HashMap::new();
        // Deterministic pseudo-random workload.
        let mut x = 0x1234_5678_9abc_def0u64;
        for _ in 0..20_000 {
            x = wfbn_concurrent::mix64(x);
            let key = x % 4096;
            let by = x >> 60;
            t.increment(key, by);
            *reference.entry(key).or_insert(0) += by;
        }
        assert_eq!(t.len(), reference.len());
        for (&k, &c) in &reference {
            assert_eq!(t.get(k), c, "mismatch at key {k}");
        }
    }

    #[test]
    fn large_counts_do_not_wrap() {
        let mut t: CountTable = CountTable::new();
        t.increment(1, u64::MAX / 2);
        t.increment(1, u64::MAX / 4);
        assert_eq!(t.get(1), u64::MAX / 2 + u64::MAX / 4);
    }

    #[test]
    fn with_capacity_avoids_growth() {
        let mut t = CountTable::with_capacity(1000);
        let cap = t.capacity();
        for i in 0..1000u64 {
            t.increment(i, 1);
        }
        assert_eq!(t.capacity(), cap, "should not have grown");
        assert_eq!(t.grows(), 0);
    }

    #[test]
    fn grows_counter_tracks_rehash_events() {
        let mut t = CountTable::with_capacity(4);
        let cap0 = t.capacity();
        for i in 0..10_000u64 {
            t.increment(i, 1);
        }
        // Doubling from cap0 to the final capacity takes exactly
        // log2(final / cap0) growth events.
        let expected = (t.capacity() / cap0).trailing_zeros() as u64;
        assert_eq!(t.grows(), expected);
        assert!(t.grows() > 0);
    }

    #[test]
    fn increment_block_matches_scalar_increments() {
        // Random workload with duplicates, block sizes straddling the
        // pre-hash tile and forcing growth from the default capacity.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut pairs = Vec::new();
        for _ in 0..5_000 {
            x = wfbn_concurrent::mix64(x);
            pairs.push((x % 1024, 1 + (x >> 61)));
        }
        for block_len in [1usize, 15, 16, 17, 255, 5_000] {
            let mut scalar = CountTable::new();
            let mut batched = CountTable::new();
            for block in pairs.chunks(block_len) {
                batched.increment_block(block);
                for &(k, by) in block {
                    scalar.increment(k, by);
                }
            }
            assert_eq!(
                scalar.to_sorted_vec(),
                batched.to_sorted_vec(),
                "block_len = {block_len}"
            );
        }
    }

    #[test]
    fn increment_block_probed_reports_one_delta_per_pair() {
        let mut t = CountTable::with_capacity(64);
        let block: Vec<(u64, u64)> = (0..40u64).map(|i| (i % 20, 1)).collect();
        let mut deltas = Vec::new();
        t.increment_block_probed(&block, |d| deltas.push(d));
        assert_eq!(deltas.len(), block.len());
        assert!(deltas.iter().all(|&d| d >= 1));
        assert_eq!(deltas.iter().sum::<u64>(), t.probes());
    }

    #[test]
    fn increment_keys_matches_unit_increments() {
        let mut a = CountTable::new();
        let mut b = CountTable::new();
        let keys: Vec<u64> = (0..3_000u64).map(|i| (i * i) % 700).collect();
        let mut deltas = 0u64;
        a.increment_keys_probed(&keys, |_| deltas += 1);
        for &k in &keys {
            b.increment(k, 1);
        }
        assert_eq!(a.to_sorted_vec(), b.to_sorted_vec());
        assert_eq!(deltas, keys.len() as u64);
    }

    #[test]
    fn reserve_prevents_mid_block_growth() {
        let mut t = CountTable::new();
        t.reserve(10_000);
        let grows_after_reserve = t.grows();
        let block: Vec<(u64, u64)> = (0..10_000u64).map(|k| (k, 1)).collect();
        t.increment_block(&block);
        assert_eq!(t.grows(), grows_after_reserve, "block must not rehash");
        assert_eq!(t.len(), 10_000);
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn increment_block_rejects_sentinel_key() {
        let mut t = CountTable::new();
        t.increment_block(&[(3, 1), (u64::MAX, 1)]);
    }

    #[test]
    fn increment_probed_returns_the_probe_delta() {
        let mut t = CountTable::with_capacity(1000);
        let mut total = 0u64;
        for i in 0..1000u64 {
            let d = t.increment_probed(i, 1);
            assert!(d >= 1, "every increment inspects at least one slot");
            total += d;
        }
        assert_eq!(total, t.probes());
    }
}
