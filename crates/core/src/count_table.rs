//! Open-addressed `key → count` hash table.
//!
//! One `CountTable` is a single core's private partition of the distributed
//! potential table. It is deliberately *not* thread-safe: the wait-free
//! primitive guarantees by construction that at any instant each table is
//! touched by exactly one thread, so the table can use plain loads and
//! stores — the entire point of the paper's design.
//!
//! Implementation: linear-probing open addressing over one array of
//! 16-byte `(key, count)` slots with power-of-two capacity, a full-avalanche
//! slot hash, and the all-ones key as the empty sentinel (codecs guarantee
//! real keys are strictly below it). A slot is 16-aligned, so it never
//! straddles a cache line: a probe that ends in its first slot touches one
//! line, and linear probing keeps longer probe sequences within the next.
//! An array of 2 MiB or more is a memory mapping of its own, advised to the
//! kernel as huge-page backed before its first touch, so a random probe into
//! a large table needs no page walk either. Keys are the codec's `u64`
//! state-string codes; [`Key`] holds their slot hash, their owner rule and
//! the sentinel.
//!
//! The table counts *probes* (slot inspections) as it works — a single local
//! `u64` increment, cheap enough to leave always-on. The PRAM simulator
//! charges cycle costs from these counters.

use core::ptr::NonNull;
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

/// One hash slot: a key and its count side by side, so a probe reads and
/// writes one cache line. [`Key::EMPTY`] marks a free slot.
#[derive(Debug, Clone, Copy)]
#[repr(C, align(16))]
struct Slot {
    key: u64,
    count: u64,
}

const _: () = assert!(core::mem::size_of::<Slot>() == 16 && core::mem::align_of::<Slot>() == 16);

impl Slot {
    const EMPTY: Slot = Slot {
        key: u64::EMPTY,
        count: 0,
    };
}

/// A table's slot array, owned like a `Box<[Slot]>`.
///
/// An array of 2 MiB or more is a private anonymous mapping of its own
/// (see [`map`]), advised as huge-page backed before the fill first touches
/// it, so the fill faults it in 2 MiB pages and a random probe needs no
/// page walk. A smaller array is a boxed slice from the global allocator.
///
/// Large arrays bypass the allocator so that both the advice and the
/// memory end with the table. Freed through glibc, a multi-MiB array
/// raises its dynamic mmap and trim thresholds, after which freed tables
/// stay resident in the heap, and advice given to heap memory would
/// outlive the table.
struct Slots {
    ptr: NonNull<Slot>,
    len: usize,
}

// SAFETY: a `Slots` owns its array exclusively, as a `Box<[Slot]>` does,
// and `Slot` is plain data.
unsafe impl Send for Slots {}
// SAFETY: a shared `Slots` only gives out `&[Slot]`, as a `Box<[Slot]>` does.
unsafe impl Sync for Slots {}

impl Slots {
    /// `len` empty slots.
    fn empty(len: usize) -> Self {
        #[cfg(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64"),
            not(miri)
        ))]
        if len >= map::MIN_LEN {
            let mut slots = Self {
                ptr: map::map(len),
                len,
            };
            slots.fill(Slot::EMPTY);
            return slots;
        }
        let boxed = vec![Slot::EMPTY; len].into_boxed_slice();
        Self {
            ptr: NonNull::from(Box::leak(boxed)).cast(),
            len,
        }
    }
}

impl core::ops::Deref for Slots {
    type Target = [Slot];
    fn deref(&self) -> &[Slot] {
        // SAFETY: `ptr` heads `len` initialized slots that `self` owns.
        unsafe { core::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }
}

impl core::ops::DerefMut for Slots {
    fn deref_mut(&mut self) -> &mut [Slot] {
        // SAFETY: `ptr` heads `len` initialized slots that `self` owns, and
        // `&mut self` makes this the only reference to them.
        unsafe { core::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }
}

impl Clone for Slots {
    fn clone(&self) -> Self {
        let mut copy = Self::empty(self.len);
        copy.copy_from_slice(self);
        copy
    }
}

impl core::fmt::Debug for Slots {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        (**self).fmt(f)
    }
}

impl Drop for Slots {
    fn drop(&mut self) {
        // Release the array's words from the shadow map so a reused
        // allocation cannot be mistaken for a cross-core conflict.
        #[cfg(feature = "ownership-audit")]
        wfbn_concurrent::audit::retire_range(
            self.ptr.as_ptr().cast(),
            self.len * core::mem::size_of::<Slot>(),
        );
        #[cfg(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64"),
            not(miri)
        ))]
        if self.len >= map::MIN_LEN {
            // SAFETY: `empty` mapped this array with `map::map(self.len)`,
            // and nothing uses it after `drop`.
            unsafe { map::unmap(self.ptr, self.len) };
            return;
        }
        // SAFETY: `empty` leaked this array from a `Box<[Slot]>` of
        // `self.len` slots, and nothing uses it after `drop`.
        drop(unsafe {
            Box::from_raw(core::ptr::slice_from_raw_parts_mut(
                self.ptr.as_ptr(),
                self.len,
            ))
        });
    }
}

/// Slot arrays of their own mapping, on the 64-bit Linux targets whose
/// `mmap` constants are spelled out here.
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64"),
    not(miri)
))]
mod map {
    use super::Slot;
    use core::ffi::c_void;
    use core::ptr::NonNull;
    use std::alloc::{handle_alloc_error, Layout};

    /// Slots in 2 MiB, the smallest array that is mapped.
    pub(super) const MIN_LEN: usize = (2 << 20) / core::mem::size_of::<Slot>();

    const PROT_READ: i32 = 1;
    const PROT_WRITE: i32 = 2;
    const MAP_PRIVATE: i32 = 2;
    const MAP_ANONYMOUS: i32 = 0x20;
    const MADV_HUGEPAGE: i32 = 14;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            off: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> i32;
        fn madvise(addr: *mut c_void, len: usize, advice: i32) -> i32;
    }

    /// Maps `len` zeroed slots and advises them as huge-page backed. On a
    /// host whose THP mode is `madvise`, the kernel then backs every
    /// 2 MiB-aligned range of the mapping with one 2 MiB page at first
    /// touch. The advice is a hint: if the kernel declines it, the array
    /// keeps 4 KiB pages and the same contents, so its result is ignored.
    pub(super) fn map(len: usize) -> NonNull<Slot> {
        let layout = Layout::array::<Slot>(len).expect("a slot array fits the address space");
        // SAFETY: a new private anonymous mapping at an address the kernel
        // picks; it overlaps no existing memory, and failure is reported
        // through the return value.
        let p = unsafe {
            mmap(
                core::ptr::null_mut(),
                layout.size(),
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS,
                -1,
                0,
            )
        };
        if p as usize == usize::MAX {
            handle_alloc_error(layout);
        }
        // SAFETY: [p, p + size) is the mapping made above, which nothing has
        // touched. Huge-page advice changes only how the kernel backs its
        // pages, never the mapping or its contents.
        unsafe { madvise(p, layout.size(), MADV_HUGEPAGE) };
        NonNull::new(p.cast()).expect("mmap does not return null on success")
    }

    /// Unmaps an array made by [`map`].
    ///
    /// # Safety
    ///
    /// `ptr` must come from `map(len)` with this `len`, and the array must
    /// not be used afterwards.
    pub(super) unsafe fn unmap(ptr: NonNull<Slot>, len: usize) {
        // SAFETY: per the caller, [ptr, ptr + len slots) is one whole
        // mapping made by `map` that nothing uses any more.
        unsafe { munmap(ptr.as_ptr().cast(), len * core::mem::size_of::<Slot>()) };
    }
}

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
    slots: Slots,
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
            slots: Slots::empty(slots),
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
        self.slots.len()
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
        self.slots.iter().map(|s| s.count).sum()
    }

    #[inline]
    fn slot_of(&self, key: u64) -> usize {
        (key.mix() as usize) & self.mask
    }

    /// Reports `slot`'s 16 bytes to the ownership auditor.
    #[cfg(feature = "ownership-audit")]
    #[inline]
    fn record_slot(&self, slot: usize) {
        wfbn_concurrent::audit::record_write(
            (&raw const self.slots[slot]).cast(),
            core::mem::size_of::<Slot>(),
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
        if (self.len + 1) * MAX_LOAD.1 > self.slots.len() * MAX_LOAD.0 {
            self.grow();
        }
        let mut slot = self.slot_of(key);
        loop {
            self.probes += 1;
            let s = &mut self.slots[slot];
            if s.key == key {
                s.count += by;
                #[cfg(feature = "ownership-audit")]
                self.record_slot(slot);
                return;
            }
            if s.key == u64::EMPTY {
                *s = Slot { key, count: by };
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
    /// limit. Called once per block by the block path so the slot mask is
    /// stable across the whole block (no mid-block rehash), and usable as
    /// the rows-based capacity hint for streaming tables.
    pub fn reserve(&mut self, additional: usize) {
        while (self.len + additional) * MAX_LOAD.1 > self.slots.len() * MAX_LOAD.0 {
            self.grow();
        }
    }

    /// Applies a block of keys, each incrementing its count by 1 —
    /// equivalent to calling [`increment`](Self::increment)`(key, 1)` for
    /// each key in order — with one `probe` callback per key carrying its
    /// slot-inspection count, so the observability layer's probe histogram
    /// keeps its one-entry-per-increment mass invariant.
    ///
    /// The build's block path, in both stages: capacity for the whole block
    /// is reserved up front (one load check per block instead of one per
    /// key, and a stable mask), then each 16-key tile is **pre-hashed** —
    /// slot indices computed and each slot's cache line prefetched — before
    /// any probing starts, so the table's random-access misses overlap
    /// instead of serializing.
    ///
    /// # Panics
    ///
    /// Panics if any key is the all-ones sentinel.
    pub(crate) fn increment_keys_probed(&mut self, keys: &[u64], mut probe: impl FnMut(u64)) {
        /// Pre-hash tile width: long enough to cover the prefetch latency,
        /// short enough that the tile's slots stay in the L1 miss queue.
        const TILE: usize = 16;
        self.reserve(keys.len());
        let mut slots = [0usize; TILE];
        for chunk in keys.chunks(TILE) {
            for (i, &key) in chunk.iter().enumerate() {
                assert!(key != u64::EMPTY, "the all-ones key is reserved");
                let slot = self.slot_of(key);
                slots[i] = slot;
                prefetch_slot(&self.slots[slot]);
            }
            for (i, &key) in chunk.iter().enumerate() {
                let before = self.probes;
                let mut slot = slots[i];
                loop {
                    self.probes += 1;
                    let s = &mut self.slots[slot];
                    if s.key == key {
                        s.count += 1;
                        break;
                    }
                    if s.key == u64::EMPTY {
                        *s = Slot { key, count: 1 };
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
            let s = self.slots[slot];
            if s.key == key {
                return s.count;
            }
            if s.key == u64::EMPTY {
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
                let k = self.slots[slot].key;
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
        let new_slots = self.slots.len() * 2;
        let old = std::mem::replace(&mut self.slots, Slots::empty(new_slots));
        self.mask = new_slots - 1;
        self.len = 0;
        for &old_slot in old.iter() {
            if old_slot.key != u64::EMPTY {
                // Re-insert without the load check (capacity is sufficient).
                let mut slot = self.slot_of(old_slot.key);
                loop {
                    self.probes += 1;
                    if self.slots[slot].key == u64::EMPTY {
                        self.slots[slot] = old_slot;
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
        self.slots
            .iter()
            .filter(|s| s.key != u64::EMPTY)
            .map(|s| (s.key, s.count))
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

/// The occupied slots of a run of tables, copied out a chunk at a time:
/// the one walk over hash slots behind every packed scan.
///
/// Each slot is copied to the next output place whether or not it holds a
/// key, and the place advances by `key != EMPTY`, so the walk takes no
/// branch on what the slots hold. A table about half full would otherwise
/// mispredict that branch on every other slot.
pub(crate) struct SlotWalk<'a, I> {
    tables: I,
    /// The current table's slots not yet walked.
    slots: &'a [Slot],
}

impl<'a, I: Iterator<Item = &'a CountTable>> SlotWalk<'a, I> {
    /// A walk over the slots of each of `tables` in turn.
    pub(crate) fn new(tables: I) -> Self {
        Self { tables, slots: &[] }
    }

    /// Copies the next occupied slots' keys to `keys` and counts to
    /// `counts` until either is full or the slots run out. Returns how many
    /// it copied; fewer than the room means the walk is done.
    pub(crate) fn fill(&mut self, keys: &mut [u64], counts: &mut [u64]) -> usize {
        let room = keys.len().min(counts.len());
        let mut n = 0;
        while n < room {
            if self.slots.is_empty() {
                match self.tables.next() {
                    Some(table) => self.slots = &table.slots,
                    None => break,
                }
                continue;
            }
            // Each slot adds at most one entry, so `room − n` slots fit.
            let (now, rest) = self.slots.split_at((room - n).min(self.slots.len()));
            for s in now {
                keys[n] = s.key;
                counts[n] = s.count;
                n += usize::from(s.key != u64::EMPTY);
            }
            self.slots = rest;
        }
        n
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
    fn increment_keys_matches_scalar_increments_at_every_block_length() {
        // Random workload with duplicates, block lengths straddling the
        // pre-hash tile and the queue segment (a drained block is at most
        // one segment), and forcing growth from the default capacity.
        use wfbn_concurrent::spsc::SEG_CAP;
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut keys = Vec::new();
        for _ in 0..5_000 {
            x = wfbn_concurrent::mix64(x);
            keys.push(x % 1024);
        }
        for block_len in [
            1usize,
            15,
            16,
            17,
            255,
            SEG_CAP - 1,
            SEG_CAP,
            SEG_CAP + 1,
            5_000,
        ] {
            let mut scalar = CountTable::new();
            let mut batched = CountTable::new();
            for block in keys.chunks(block_len) {
                batched.increment_keys_probed(block, |_| {});
                for &k in block {
                    scalar.increment(k, 1);
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
    fn increment_keys_probed_reports_one_delta_per_key() {
        let mut t = CountTable::with_capacity(64);
        let keys: Vec<u64> = (0..40u64).map(|i| i % 20).collect();
        let mut deltas = Vec::new();
        t.increment_keys_probed(&keys, |d| deltas.push(d));
        assert_eq!(deltas.len(), keys.len());
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
        let keys: Vec<u64> = (0..10_000u64).collect();
        t.increment_keys_probed(&keys, |_| {});
        assert_eq!(t.grows(), grows_after_reserve, "block must not rehash");
        assert_eq!(t.len(), 10_000);
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn increment_keys_rejects_sentinel_key() {
        let mut t = CountTable::new();
        t.increment_keys_probed(&[3, u64::MAX], |_| {});
    }

    /// Distinct keys past which a table's slot array exceeds 2 MiB (and so
    /// gets huge-page advice): 2¹⁸ keys need 2¹⁹ slots of 16 bytes.
    const ADVISED_KEYS: u64 = 1 << 18;

    /// A pseudo-random `(key, by)` workload over `2 * ADVISED_KEYS` key
    /// values, with duplicates.
    fn advised_workload() -> Vec<(u64, u64)> {
        let mut x = 0x2545_f491_4f6c_dd1du64;
        (0..3 * ADVISED_KEYS)
            .map(|_| {
                x = wfbn_concurrent::mix64(x);
                (x % (2 * ADVISED_KEYS), 1 + (x >> 62))
            })
            .collect()
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "Miri compiles the huge-page advice out, and interprets 10⁶ increments slowly"
    )]
    fn a_table_grown_past_the_advised_size_matches_a_btreemap() {
        use std::collections::BTreeMap;
        let mut t = CountTable::new();
        let mut oracle = BTreeMap::new();
        for (k, by) in advised_workload() {
            t.increment(k, by);
            *oracle.entry(k).or_insert(0) += by;
        }
        assert!(t.len() as u64 > ADVISED_KEYS);
        assert!(t.capacity() * core::mem::size_of::<Slot>() > 2 << 20);
        assert!(t.grows() > 0);
        let expected: Vec<(u64, u64)> = oracle.into_iter().collect();
        assert_eq!(t.to_sorted_vec(), expected);
        // A clone owns a slot array of its own.
        let mut copy = t.clone();
        copy.increment(0, 1);
        assert_eq!(copy.get(0), t.get(0) + 1);
        assert_eq!(t.total_count(), expected.iter().map(|&(_, c)| c).sum());
        assert_eq!(t.get(2 * ADVISED_KEYS), 0);
        assert!(!t.contains(2 * ADVISED_KEYS));
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "Miri compiles the huge-page advice out, and interprets 10⁶ increments slowly"
    )]
    fn block_paths_match_scalar_increments_on_an_advised_table() {
        let keys: Vec<u64> = advised_workload().iter().map(|&(k, _)| k).collect();
        let entries = 2 * ADVISED_KEYS as usize;
        // Equal capacity and no growth on either side: the probe sequence of
        // every key is then the same on both paths.
        let mut scalar = CountTable::with_capacity(entries);
        let want: Vec<u64> = keys
            .iter()
            .map(|&k| scalar.increment_probed(k, 1))
            .collect();
        let mut block = CountTable::with_capacity(entries);
        let mut got = Vec::new();
        for chunk in keys.chunks(1000) {
            block.increment_keys_probed(chunk, |d| got.push(d));
        }
        assert_eq!((scalar.grows(), block.grows()), (0, 0));
        assert_eq!(block.to_sorted_vec(), scalar.to_sorted_vec());
        assert_eq!(got, want);
        assert_eq!(block.probes(), scalar.probes());
    }

    /// Every entry `SlotWalk` copies out of `tables` in chunks of `room`,
    /// sorted, checking that only the last chunk comes back short.
    fn walked(tables: &[&CountTable], room: usize) -> Vec<(u64, u64)> {
        let mut walk = SlotWalk::new(tables.iter().copied());
        let (mut keys, mut counts) = (vec![0; room], vec![0; room]);
        let mut out = Vec::new();
        loop {
            let n = walk.fill(&mut keys, &mut counts);
            out.extend(keys[..n].iter().copied().zip(counts[..n].iter().copied()));
            if n < room {
                assert_eq!(
                    walk.fill(&mut keys, &mut counts),
                    0,
                    "a short chunk ends the walk"
                );
                break;
            }
        }
        out.sort_unstable();
        out
    }

    /// `CountTable::iter` over every table, sorted.
    fn iterated(tables: &[&CountTable]) -> Vec<(u64, u64)> {
        let mut out: Vec<(u64, u64)> = tables.iter().flat_map(|t| t.iter()).collect();
        out.sort_unstable();
        out
    }

    #[test]
    fn the_slot_walk_copies_what_iter_visits_from_empty_and_tiny_tables() {
        let empty = CountTable::new();
        let one: CountTable = [(7u64, 3u64)].into_iter().collect();
        let mut full = CountTable::new();
        for k in 0..20u64 {
            full.increment(k * 5, k + 1);
        }
        assert_eq!(full.grows(), 0, "a table of its first capacity");
        let runs: [&[&CountTable]; 5] = [
            &[],
            &[&empty],
            &[&empty, &one, &empty],
            &[&full],
            &[&one, &full, &empty, &one],
        ];
        for tables in runs {
            for room in [1, 2, 3, 7, 16, 64] {
                assert_eq!(walked(tables, room), iterated(tables), "room {room}");
            }
        }
        // No room copies nothing, and leaves the walk where it was.
        let mut walk = SlotWalk::new([&full].into_iter());
        assert_eq!(walk.fill(&mut [], &mut []), 0);
        assert_eq!(walk.fill(&mut [0; 32], &mut [0; 32]), 20);
    }

    #[test]
    #[cfg_attr(miri, ignore = "Miri interprets 10⁶ increments slowly")]
    fn the_slot_walk_copies_what_iter_visits_from_a_mapped_table() {
        let mut big = CountTable::new();
        for (k, by) in advised_workload() {
            big.increment(k, by);
        }
        assert!(big.capacity() * core::mem::size_of::<Slot>() > 2 << 20);
        let small: CountTable = [(1u64, 1u64), (2, 9)].into_iter().collect();
        let tables = [&small, &big, &small];
        let want = iterated(&tables);
        for room in [1, 4096, 4097, 1 << 20] {
            assert_eq!(walked(&tables, room), want, "room {room}");
        }
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
