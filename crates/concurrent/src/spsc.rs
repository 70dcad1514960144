//! An unbounded, wait-free single-producer/single-consumer segmented queue.
//!
//! Algorithm 1 of the paper equips every core `p` with `P − 1` queues, one
//! per foreign core; during stage 1, core `p` *produces* keys into
//! `Q[p][owner]` and during stage 2 core `owner` *consumes* them. Every queue
//! therefore has exactly one producer thread and exactly one consumer thread
//! for its whole lifetime, which is the precondition for this queue type.
//!
//! # Design
//!
//! The queue is a singly-linked list of fixed-capacity *segments*. The
//! producer owns the tail segment and a local write index; publishing an
//! element is a plain slot write followed by a release store of the segment's
//! committed length — no read-modify-write, no CAS loop, so `push` completes
//! in a bounded number of its own steps regardless of what the consumer does
//! (*wait-freedom*). The consumer owns the head segment and a local read
//! index; `try_pop` acquires the committed length and reads slots below it.
//! Fully-consumed segments are freed by the consumer as it advances.
//!
//! Because the producer writes only the tail and the consumer reads only the
//! head, the two threads touch the same cache line only when they operate on
//! the same segment — the `len` counter — which is the minimum communication
//! any queue must perform.

use crate::pad::CachePadded;
use crate::sync::{AtomicBool, AtomicPtr, AtomicUsize, Ordering};
use core::cell::UnsafeCell;
use core::mem::MaybeUninit;
use core::ptr::{self, NonNull};
use std::sync::Arc;

/// Number of element slots per segment.
///
/// Large enough to amortize allocation (one allocation per 512 pushes),
/// small enough that a nearly-empty queue wastes little memory when a
/// construction run forwards few foreign keys.
///
/// Public so tests can construct inputs that land exactly on segment
/// boundaries — the seams where the publication protocol does real work.
#[cfg(not(feature = "loom"))]
pub const SEG_CAP: usize = 512;

/// Under the loom model the segment capacity shrinks to 2 so that a handful
/// of pushes crosses segment boundaries and the explorer reaches the
/// segment-linking code within its preemption bound.
#[cfg(feature = "loom")]
pub const SEG_CAP: usize = 2;

/// `repr(C)` so the declared field order is the stored field order — the
/// false-sharing table in `analysis/layout.toml` reasons about byte offsets,
/// and `repr(Rust)` would be free to reorder. `len` (producer-written) and
/// `consumed` (consumer-written) each get their own cache line pair; the
/// producer-owned tail words (`next`, `slots`) share lines freely.
#[repr(C)]
struct Segment<T> {
    /// Slots `[0, len)` are committed by the producer.
    len: CachePadded<AtomicUsize>,
    /// Slots `[0, consumed)` have been taken by the consumer. Written only by
    /// the consumer; read by the final drop to destroy leftovers exactly once.
    consumed: CachePadded<AtomicUsize>,
    /// Next segment in the chain, linked by the producer before it publishes
    /// any element in it.
    next: AtomicPtr<Segment<T>>,
    slots: [UnsafeCell<MaybeUninit<T>>; SEG_CAP],
}

impl<T> Segment<T> {
    fn boxed() -> NonNull<Segment<T>> {
        let seg = Box::new(Segment {
            len: CachePadded::new(AtomicUsize::new(0)),
            consumed: CachePadded::new(AtomicUsize::new(0)),
            next: AtomicPtr::new(ptr::null_mut()),
            slots: core::array::from_fn(|_| UnsafeCell::new(MaybeUninit::uninit())),
        });
        // SAFETY: Box::into_raw never returns null.
        unsafe { NonNull::new_unchecked(Box::into_raw(seg)) }
    }
}

/// State shared by the two endpoints; owns the segment chain on final drop.
///
/// `repr(C)` + per-field padding for the same reason as [`Segment`]: `head`
/// is consumer-written, `closed` is producer-written, and letting them share
/// a line would make every queue-advance invalidate the producer's close
/// flag (and vice versa).
#[repr(C)]
struct Shared<T> {
    /// First segment that may still hold live elements. Advanced by the
    /// consumer; read by the final drop.
    head: CachePadded<AtomicPtr<Segment<T>>>,
    /// Set by `Producer::drop`, meaning no further elements will arrive.
    closed: CachePadded<AtomicBool>,
}

// SAFETY: the chain is freed exactly once (by whichever endpoint drops the
// last Arc), and Arc's reference counting provides the necessary ordering.
unsafe impl<T: Send> Send for Shared<T> {}
// SAFETY: the only shared mutation goes through atomics; slot access is
// partitioned between the unique producer and unique consumer.
unsafe impl<T: Send> Sync for Shared<T> {}

impl<T> Drop for Shared<T> {
    fn drop(&mut self) {
        // Both endpoints are gone; we have exclusive access to the chain.
        let mut seg_ptr = *self.head.get_mut();
        while !seg_ptr.is_null() {
            // Hand the segment's words back to the ownership auditor before
            // the allocator can recycle them for another core.
            #[cfg(feature = "ownership-audit")]
            crate::audit::retire_range(seg_ptr.cast::<u8>(), core::mem::size_of::<Segment<T>>());
            // SAFETY: the pointer came from Box::into_raw and no endpoint can
            // touch it any more.
            let mut seg = unsafe { Box::from_raw(seg_ptr) };
            let len = *seg.len.get_mut();
            let consumed = *seg.consumed.get_mut();
            for slot in &mut seg.slots[consumed..len] {
                // SAFETY: slots in [consumed, len) were committed by the
                // producer and never read by the consumer.
                unsafe { slot.get_mut().assume_init_drop() };
            }
            seg_ptr = *seg.next.get_mut();
        }
    }
}

/// The sending endpoint. `push` is wait-free. Dropping it closes the queue.
pub struct Producer<T> {
    shared: Arc<Shared<T>>,
    tail: NonNull<Segment<T>>,
    /// Local mirror of `tail.len` (only this thread ever writes it).
    idx: usize,
    pushed: u64,
    segments_linked: u64,
}

// SAFETY: the producer is the unique writer of the tail segment; moving it to
// another thread is fine as long as T can move between threads.
unsafe impl<T: Send> Send for Producer<T> {}

/// The receiving endpoint. `try_pop` is wait-free.
pub struct Consumer<T> {
    shared: Arc<Shared<T>>,
    head: NonNull<Segment<T>>,
    idx: usize,
    popped: u64,
}

// SAFETY: the consumer is the unique reader of the head segment.
unsafe impl<T: Send> Send for Consumer<T> {}

/// Creates a new unbounded SPSC queue, returning its two endpoints.
///
/// # Examples
///
/// ```
/// let (mut tx, mut rx) = wfbn_concurrent::channel::<u64>();
/// std::thread::scope(|s| {
///     s.spawn(move || {
///         for k in 0..10_000 {
///             tx.push(k);
///         }
///     }); // tx dropped here => queue closes
///     s.spawn(move || {
///         let mut sum = 0u64;
///         let mut done = false;
///         while !done {
///             done = rx.is_closed();
///             while let Some(k) = rx.try_pop() {
///                 sum += k;
///             }
///         }
///         assert_eq!(sum, (0..10_000u64).sum());
///     });
/// });
/// ```
pub fn channel<T>() -> (Producer<T>, Consumer<T>) {
    let first = Segment::boxed();
    let shared = Arc::new(Shared {
        head: CachePadded::new(AtomicPtr::new(first.as_ptr())),
        closed: CachePadded::new(AtomicBool::new(false)),
    });
    (
        Producer {
            shared: Arc::clone(&shared),
            tail: first,
            idx: 0,
            pushed: 0,
            segments_linked: 0,
        },
        Consumer {
            shared,
            head: first,
            idx: 0,
            popped: 0,
        },
    )
}

impl<T> Producer<T> {
    /// Appends `value`; completes in O(1) steps independent of the consumer.
    pub fn push(&mut self, value: T) {
        if self.idx == SEG_CAP {
            let next = Segment::boxed();
            // SAFETY: self.tail is a live segment owned (for writing) by us.
            let tail = unsafe { self.tail.as_ref() };
            // Release: the consumer's Acquire load of `next` must see the new
            // segment fully initialized.
            // hb-writer: producer
            // loom-model: queue_transfer_crosses_segment_boundaries
            tail.next.store(next.as_ptr(), Ordering::Release);
            self.tail = next;
            self.idx = 0;
            self.segments_linked += 1;
        }
        // SAFETY: slots at and above `idx` have never been published, so the
        // consumer does not read them; we are the only writer.
        unsafe {
            let tail = self.tail.as_ref();
            let slot = tail.slots[self.idx].get();
            (*slot).write(value);
            #[cfg(feature = "ownership-audit")]
            crate::audit::record_write(slot.cast::<u8>(), core::mem::size_of::<T>());
            // Release: publish the slot write above.
            // hb-writer: producer
            // loom-model: queue_transfer_crosses_segment_boundaries,queue_close_then_drain_protocol_is_complete
            tail.len.store(self.idx + 1, Ordering::Release);
        }
        self.idx += 1;
        self.pushed += 1;
    }

    /// Total number of elements pushed through this endpoint.
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Number of segments this endpoint allocated and linked beyond the
    /// initial one — i.e. how many times the queue outgrew [`SEG_CAP`].
    /// Telemetry for the observability layer; local state, wait-free to read.
    pub fn segments_linked(&self) -> u64 {
        self.segments_linked
    }
}

impl<T: Copy> Producer<T> {
    /// Appends every element of `block` in order, amortizing the release
    /// store of the segment's committed length to **once per segment chunk**
    /// instead of once per element (the write-combining fast path of the
    /// batched builders).
    ///
    /// Equivalent to `for &v in block { self.push(v) }` — same FIFO order,
    /// same segment-linking protocol, same wait-freedom (the number of steps
    /// is bounded by `block.len()` plus the number of segments crossed,
    /// independent of the consumer). Restricted to `T: Copy` so a caller's
    /// write-combining buffer can be re-flushed from a slice without moves.
    pub fn push_block(&mut self, block: &[T]) {
        let mut rest = block;
        while !rest.is_empty() {
            if self.idx == SEG_CAP {
                let next = Segment::boxed();
                // SAFETY: self.tail is a live segment owned (for writing) by us.
                let tail = unsafe { self.tail.as_ref() };
                // Release: the consumer's Acquire load of `next` must see the
                // new segment fully initialized.
                // hb-writer: producer
                // loom-model: push_block_segment_linking_is_published_under_every_schedule
                tail.next.store(next.as_ptr(), Ordering::Release);
                self.tail = next;
                self.idx = 0;
                self.segments_linked += 1;
            }
            let take = rest.len().min(SEG_CAP - self.idx);
            // SAFETY: slots at and above `idx` have never been published, so
            // the consumer does not read them; we are the only writer. The
            // single Release store of `len` after the chunk publishes every
            // slot write before it (same pairing as the scalar `push`).
            unsafe {
                let tail = self.tail.as_ref();
                for (offset, &value) in rest[..take].iter().enumerate() {
                    (*tail.slots[self.idx + offset].get()).write(value);
                }
                #[cfg(feature = "ownership-audit")]
                crate::audit::record_write(
                    tail.slots[self.idx].get().cast::<u8>(),
                    take * core::mem::size_of::<T>(),
                );
                // hb-writer: producer
                // loom-model: push_block_segment_linking_is_published_under_every_schedule,block_to_block_transfer_is_complete_under_every_schedule
                tail.len.store(self.idx + take, Ordering::Release);
            }
            self.idx += take;
            self.pushed += take as u64;
            rest = &rest[take..];
        }
    }
}

impl<T> Drop for Producer<T> {
    fn drop(&mut self) {
        // Release: a consumer that observes `closed` also observes every push.
        // hb-writer: producer
        // loom-model: queue_close_then_drain_protocol_is_complete
        self.shared.closed.store(true, Ordering::Release);
    }
}

impl<T> Consumer<T> {
    /// Removes and returns the oldest element, or `None` if none is visible.
    ///
    /// `None` does **not** mean the producer is finished — pair with
    /// [`is_closed`](Self::is_closed) for termination (see [`channel`]).
    pub fn try_pop(&mut self) -> Option<T> {
        // wf-bound: backlog(segments) — each iteration either returns,
        // or frees the exhausted head segment and advances to a `next`
        // link that existed at entry; the chain is finite.
        loop {
            // SAFETY: `head` is alive until we free it below.
            let head = unsafe { self.head.as_ref() };
            // loom-model: queue_transfer_crosses_segment_boundaries
            let committed = head.len.load(Ordering::Acquire);
            if self.idx < committed {
                // SAFETY: slot `idx` was committed (Acquire above pairs with
                // the producer's Release), and each slot is read once.
                let value = unsafe { (*head.slots[self.idx].get()).assume_init_read() };
                self.idx += 1;
                self.popped += 1;
                // Publish progress for the final-drop bookkeeping.
                // loom-model: queue_drop_with_unconsumed_elements_frees_exactly_once
                head.consumed.store(self.idx, Ordering::Relaxed);
                return Some(value);
            }
            if self.idx < SEG_CAP {
                // Caught up with the producer inside this segment.
                return None;
            }
            // Segment exhausted: move to the next one if it exists.
            // loom-model: queue_transfer_crosses_segment_boundaries
            let next = head.next.load(Ordering::Acquire);
            let next = NonNull::new(next)?;
            let old = self.head;
            self.head = next;
            self.idx = 0;
            // loom-model: queue_drop_with_unconsumed_elements_frees_exactly_once
            self.shared.head.store(next.as_ptr(), Ordering::Relaxed);
            // The segment's slots go back to the allocator; a later
            // allocation owned by any core may legitimately reuse them.
            #[cfg(feature = "ownership-audit")]
            crate::audit::retire_range(
                old.as_ptr().cast::<u8>(),
                core::mem::size_of::<Segment<T>>(),
            );
            // SAFETY: every slot of `old` was consumed, the producer moved on
            // when it linked `next`, and no other thread can reach `old`
            // (shared.head now points past it).
            drop(unsafe { Box::from_raw(old.as_ptr()) });
        }
    }

    /// Moves the elements currently visible in **one** segment into `out`
    /// (appending, FIFO order) and returns how many were taken — at most
    /// [`SEG_CAP`].
    ///
    /// The block counterpart of a `try_pop` drain loop: the committed
    /// length is Acquire-loaded once per call instead of once per element,
    /// and consumer progress is published with one store per chunk. Stopping
    /// at the segment's end keeps a caller's block buffer at one segment's
    /// worth however long the backlog, so draining a core's whole backlog
    /// never copies it into one allocation. Call again for the next segment.
    /// A return of `0` means no element was visible — as with
    /// [`try_pop`](Self::try_pop) it does *not* mean the producer is
    /// finished; pair with [`is_closed`](Self::is_closed) for termination.
    pub fn pop_block(&mut self, out: &mut Vec<T>) -> usize {
        let mut taken = 0usize;
        // wf-bound: iters(2) — the first round drains the head segment and
        // returns unless that segment was already exhausted; then one
        // `next` link is followed and the second round returns.
        loop {
            // SAFETY: `head` is alive until we free it below.
            let head = unsafe { self.head.as_ref() };
            // loom-model: pop_block_sees_complete_prefix_under_every_schedule
            let committed = head.len.load(Ordering::Acquire);
            if self.idx < committed {
                let chunk = committed - self.idx;
                out.reserve(chunk);
                for i in self.idx..committed {
                    // SAFETY: slots `[idx, committed)` were committed (the
                    // Acquire above pairs with the producer's Release), and
                    // each slot is read exactly once.
                    out.push(unsafe { (*head.slots[i].get()).assume_init_read() });
                }
                self.idx = committed;
                self.popped += chunk as u64;
                taken += chunk;
                // Publish progress for the final-drop bookkeeping.
                // loom-model: pop_block_sees_complete_prefix_under_every_schedule
                head.consumed.store(self.idx, Ordering::Relaxed);
            }
            if self.idx < SEG_CAP || taken > 0 {
                // Caught up with the producer inside this segment, or took
                // this segment's tail: the next call moves on.
                return taken;
            }
            // Segment exhausted on entry: move to the next one if it exists.
            // loom-model: pop_block_sees_complete_prefix_under_every_schedule
            let next = head.next.load(Ordering::Acquire);
            let Some(next) = NonNull::new(next) else {
                return 0;
            };
            let old = self.head;
            self.head = next;
            self.idx = 0;
            // loom-model: pop_block_sees_complete_prefix_under_every_schedule
            self.shared.head.store(next.as_ptr(), Ordering::Relaxed);
            // The segment's slots go back to the allocator; a later
            // allocation owned by any core may legitimately reuse them.
            #[cfg(feature = "ownership-audit")]
            crate::audit::retire_range(
                old.as_ptr().cast::<u8>(),
                core::mem::size_of::<Segment<T>>(),
            );
            // SAFETY: every slot of `old` was consumed, the producer moved on
            // when it linked `next`, and no other thread can reach `old`
            // (shared.head now points past it).
            drop(unsafe { Box::from_raw(old.as_ptr()) });
        }
    }

    /// `true` once the producer has been dropped.
    ///
    /// If this returns `true`, every element the producer ever pushed is
    /// already visible to `try_pop`, so `drain-until-None` after a `true`
    /// observation empties the queue completely.
    pub fn is_closed(&self) -> bool {
        // loom-model: queue_close_then_drain_protocol_is_complete
        self.shared.closed.load(Ordering::Acquire)
    }

    /// Total number of elements popped through this endpoint.
    pub fn popped(&self) -> u64 {
        self.popped
    }

    /// Number of committed-but-unconsumed elements visible in the *head*
    /// segment right now — a wait-free lower bound on the queue's backlog
    /// (elements in later segments are not counted; walking the chain would
    /// not be O(1)).
    ///
    /// One Acquire load of the head's committed length plus local arithmetic;
    /// safe to call from the consumer's drain loop at any time. The
    /// observability layer samples this to maintain queue-depth high-water
    /// marks.
    pub fn visible_backlog(&self) -> u64 {
        // SAFETY: `head` stays alive until this consumer advances past it.
        // loom-model: queue_transfer_crosses_segment_boundaries
        let committed = unsafe { self.head.as_ref() }.len.load(Ordering::Acquire);
        committed.saturating_sub(self.idx) as u64
    }
}

impl<T> Drop for Consumer<T> {
    fn drop(&mut self) {
        // Record where consumption stopped inside the head segment so the
        // Shared drop destroys only live elements.
        // SAFETY: head is alive; we are its unique reader.
        unsafe { self.head.as_ref() }
            .consumed
            .store(self.idx, Ordering::Relaxed); // loom-model: queue_drop_with_unconsumed_elements_frees_exactly_once
        // Ownership of the chain transfers to Shared::drop via the Arc.
    }
}

/// Rustc's own layout of the queue's shared structs — name, size, and the
/// byte offset of every field — for cross-checking the conservative
/// estimator in `wfbn-analyze` (crates/analyze/tests/layout_check.rs).
/// Instantiated at `T = u64`; the padded header offsets do not depend on `T`.
#[doc(hidden)]
#[cfg(not(feature = "loom"))]
pub fn layout_probes() -> Vec<crate::pad::LayoutProbe> {
    use core::mem::{offset_of, size_of};
    vec![
        (
            "Segment",
            size_of::<Segment<u64>>(),
            vec![
                ("len", offset_of!(Segment<u64>, len)),
                ("consumed", offset_of!(Segment<u64>, consumed)),
                ("next", offset_of!(Segment<u64>, next)),
                ("slots", offset_of!(Segment<u64>, slots)),
            ],
        ),
        (
            "Shared",
            size_of::<Shared<u64>>(),
            vec![
                ("head", offset_of!(Shared<u64>, head)),
                ("closed", offset_of!(Shared<u64>, closed)),
            ],
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_thread_fifo() {
        let (mut tx, mut rx) = channel();
        for i in 0..1000u64 {
            tx.push(i);
        }
        for i in 0..1000u64 {
            assert_eq!(rx.try_pop(), Some(i));
        }
        assert_eq!(rx.try_pop(), None);
        assert!(!rx.is_closed());
        drop(tx);
        assert!(rx.is_closed());
    }

    #[test]
    fn crosses_many_segment_boundaries() {
        let (mut tx, mut rx) = channel();
        let n = SEG_CAP as u64 * 7 + 13;
        for i in 0..n {
            tx.push(i);
        }
        let got: Vec<u64> = std::iter::from_fn(|| rx.try_pop()).collect();
        assert_eq!(got.len() as u64, n);
        assert!(got.windows(2).all(|w| w[1] == w[0] + 1));
    }

    #[test]
    fn interleaved_push_pop_preserves_order() {
        let (mut tx, mut rx) = channel();
        let mut expected = 0u64;
        for round in 0..200u64 {
            for i in 0..round % 17 {
                tx.push(round * 100 + i);
            }
            while let Some(_v) = rx.try_pop() {
                expected += 1;
            }
        }
        drop(tx);
        let rest = std::iter::from_fn(|| rx.try_pop()).count() as u64;
        let total: u64 = (0..200u64).map(|r| r % 17).sum();
        assert_eq!(expected + rest, total);
    }

    #[test]
    fn concurrent_transfer_is_lossless_and_ordered() {
        const N: u64 = 200_000;
        let (mut tx, mut rx) = channel();
        std::thread::scope(|s| {
            s.spawn(move || {
                for i in 0..N {
                    tx.push(i);
                }
            });
            s.spawn(move || {
                let mut next = 0u64;
                loop {
                    let closed = rx.is_closed();
                    while let Some(v) = rx.try_pop() {
                        assert_eq!(v, next);
                        next += 1;
                    }
                    if closed {
                        break;
                    }
                    std::hint::spin_loop();
                }
                assert_eq!(next, N);
            });
        });
    }

    #[test]
    fn drops_unconsumed_elements_exactly_once() {
        use std::sync::atomic::AtomicUsize;
        // Relaxed suffices: the whole test runs on one thread, so every
        // counter access is program-ordered (the workspace carries no SeqCst
        // site; analysis/policy.toml denies the ordering outright).
        static LIVE: AtomicUsize = AtomicUsize::new(0);
        struct Tracked;
        impl Tracked {
            fn new() -> Self {
                LIVE.fetch_add(1, Ordering::Relaxed);
                Tracked
            }
        }
        impl Drop for Tracked {
            fn drop(&mut self) {
                LIVE.fetch_sub(1, Ordering::Relaxed);
            }
        }

        let (mut tx, mut rx) = channel();
        for _ in 0..(SEG_CAP * 3 + 5) {
            tx.push(Tracked::new());
        }
        // Consume a prefix spanning one segment boundary (SEG_CAP + 1 stays
        // below the 3 * SEG_CAP + 5 pushed for every SEG_CAP, including the
        // loom-shrunk one).
        for _ in 0..(SEG_CAP + 1) {
            drop(rx.try_pop().expect("committed element"));
        }
        drop(tx);
        drop(rx);
        assert_eq!(LIVE.load(Ordering::Relaxed), 0, "leak or double drop");
    }

    #[test]
    fn consumer_dropped_first_then_producer_keeps_pushing() {
        let (mut tx, rx) = channel();
        tx.push(String::from("a"));
        drop(rx);
        for i in 0..(SEG_CAP * 2) {
            tx.push(format!("x{i}"));
        }
        drop(tx); // Shared::drop must free everything without leaking.
    }

    #[test]
    fn pushed_and_popped_counters() {
        let (mut tx, mut rx) = channel();
        for i in 0..100u32 {
            tx.push(i);
        }
        assert_eq!(tx.pushed(), 100);
        let _ = std::iter::from_fn(|| rx.try_pop()).count();
        assert_eq!(rx.popped(), 100);
    }

    #[test]
    fn segments_linked_counts_capacity_overflows() {
        let (mut tx, _rx) = channel();
        assert_eq!(tx.segments_linked(), 0);
        for i in 0..SEG_CAP as u64 {
            tx.push(i);
        }
        // The initial segment is exactly full; nothing linked yet.
        assert_eq!(tx.segments_linked(), 0);
        tx.push(0);
        assert_eq!(tx.segments_linked(), 1);
        for i in 0..(3 * SEG_CAP) as u64 {
            tx.push(i);
        }
        assert_eq!(tx.segments_linked(), 4);
    }

    #[test]
    fn visible_backlog_tracks_head_segment_occupancy() {
        let (mut tx, mut rx) = channel();
        assert_eq!(rx.visible_backlog(), 0);
        tx.push(1u64);
        tx.push(2u64);
        assert_eq!(rx.visible_backlog(), 2);
        let _ = rx.try_pop();
        assert_eq!(rx.visible_backlog(), 1);
        let _ = rx.try_pop();
        assert_eq!(rx.visible_backlog(), 0);
        // A full head segment plus spill into the next: the backlog reports
        // only the head segment's remainder (documented lower bound).
        for i in 0..(SEG_CAP as u64 + 5) {
            tx.push(i);
        }
        assert_eq!(rx.visible_backlog(), (SEG_CAP - 2) as u64);
        while rx.try_pop().is_some() {}
        assert_eq!(rx.visible_backlog(), 0);
    }

    #[test]
    fn push_block_matches_scalar_pushes_at_segment_seams() {
        // Block sizes straddling the segment boundary are the seams where
        // the chunked publication protocol does real work.
        for len in [
            0,
            1,
            SEG_CAP - 1,
            SEG_CAP,
            SEG_CAP + 1,
            3 * SEG_CAP + 7,
        ] {
            let block: Vec<u64> = (0..len as u64).collect();
            let (mut tx, mut rx) = channel();
            tx.push(u64::MAX); // non-empty start: block begins mid-segment
            tx.push_block(&block);
            tx.push(u64::MAX - 1); // scalar pushes still work afterwards
            assert_eq!(tx.pushed(), len as u64 + 2);
            let got: Vec<u64> = std::iter::from_fn(|| rx.try_pop()).collect();
            assert_eq!(got.len(), len + 2);
            assert_eq!(got[0], u64::MAX);
            assert_eq!(&got[1..=len], &block[..]);
            assert_eq!(got[len + 1], u64::MAX - 1);
        }
    }

    #[test]
    fn pop_block_takes_everything_visible_and_appends() {
        let (mut tx, mut rx) = channel();
        let n = 2 * SEG_CAP + 3;
        let block: Vec<u64> = (0..n as u64).collect();
        tx.push_block(&block);
        let mut out = vec![999u64]; // pre-existing contents must survive
        // One segment per call: every full segment, then the tail.
        let mut calls = Vec::new();
        loop {
            match rx.pop_block(&mut out) {
                0 => break,
                taken => calls.push(taken),
            }
        }
        let mut expected = vec![SEG_CAP; n / SEG_CAP];
        if n % SEG_CAP > 0 {
            expected.push(n % SEG_CAP);
        }
        assert_eq!(calls, expected);
        assert_eq!(out[0], 999);
        assert_eq!(&out[1..], &block[..]);
        assert_eq!(rx.popped(), n as u64);
        // Nothing visible now; a second call is a cheap no-op.
        assert_eq!(rx.pop_block(&mut out), 0);
        tx.push(7);
        assert_eq!(rx.pop_block(&mut out), 1);
        assert_eq!(*out.last().unwrap(), 7);
    }

    #[test]
    fn pop_block_loop_returns_at_most_one_segment_per_call() {
        // A backlog of 3·SEG_CAP + 7 starting one slot into a segment, so
        // the first call ends at a seam short of SEG_CAP.
        let (mut tx, mut rx) = channel();
        tx.push(u64::MAX);
        assert_eq!(rx.try_pop(), Some(u64::MAX));
        let n = 3 * SEG_CAP + 7;
        for i in 0..n as u64 {
            tx.push(i);
        }
        let mut out = Vec::new();
        let mut calls = 0;
        loop {
            let taken = rx.pop_block(&mut out);
            assert!(taken <= SEG_CAP, "call {calls} took {taken}");
            if taken == 0 {
                break;
            }
            calls += 1;
        }
        assert_eq!(out, (0..n as u64).collect::<Vec<_>>(), "lost or reordered");
        assert!(calls >= 4, "{calls} calls cannot cover {n} elements");
        assert_eq!(rx.popped(), n as u64 + 1);
    }

    #[test]
    fn block_endpoints_interoperate_with_scalar_endpoints() {
        let (mut tx, mut rx) = channel();
        tx.push_block(&[1u64, 2, 3]);
        assert_eq!(rx.try_pop(), Some(1));
        tx.push(4);
        let mut out = Vec::new();
        while rx.pop_block(&mut out) > 0 {}
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn concurrent_block_transfer_is_lossless_and_ordered() {
        const BLOCKS: u64 = 2_000;
        let width = SEG_CAP as u64 / 2 + 1; // co-prime-ish with SEG_CAP
        let (mut tx, mut rx) = channel();
        std::thread::scope(|s| {
            s.spawn(move || {
                let mut next = 0u64;
                for _ in 0..BLOCKS {
                    let block: Vec<u64> = (next..next + width).collect();
                    tx.push_block(&block);
                    next += width;
                }
            });
            s.spawn(move || {
                let mut out = Vec::new();
                loop {
                    let closed = rx.is_closed();
                    while rx.pop_block(&mut out) > 0 {}
                    if closed {
                        break;
                    }
                    std::hint::spin_loop();
                }
                assert_eq!(out.len() as u64, BLOCKS * width);
                assert!(out.windows(2).all(|w| w[1] == w[0] + 1));
            });
        });
    }

    #[test]
    fn pop_block_then_drop_frees_remaining_elements_exactly_once() {
        use std::sync::atomic::AtomicUsize;
        // Relaxed: single-threaded test, program order is enough.
        static LIVE: AtomicUsize = AtomicUsize::new(0);
        #[derive(Clone, Copy)]
        struct Counted;
        impl Counted {
            fn new() -> Self {
                LIVE.fetch_add(1, Ordering::Relaxed);
                Counted
            }
        }
        // Copy types get no drop glue, so account for pops explicitly: what
        // matters is that Shared::drop destroys only the unconsumed suffix.
        let (mut tx, mut rx) = channel();
        let block: Vec<Counted> = (0..SEG_CAP + 3).map(|_| Counted::new()).collect();
        tx.push_block(&block);
        let mut out = Vec::new();
        // One call takes the first segment; the 3-element tail stays queued
        // for the final drop.
        let taken = rx.pop_block(&mut out);
        assert_eq!(taken, SEG_CAP);
        drop(tx);
        drop(rx);
        assert_eq!(LIVE.load(Ordering::Relaxed), SEG_CAP + 3);
    }

    #[test]
    fn close_then_drain_sees_every_element() {
        // The termination protocol the epoch lanes rely on: observe
        // `closed` first, then drain, and the drain sees every element.
        for _ in 0..50 {
            let (mut tx, mut rx) = channel();
            let n = 1543u64;
            std::thread::scope(|s| {
                s.spawn(move || {
                    for i in 0..n {
                        tx.push(i);
                    }
                });
                s.spawn(move || {
                    let mut seen = 0u64;
                    loop {
                        let closed = rx.is_closed();
                        seen += std::iter::from_fn(|| rx.try_pop()).count() as u64;
                        if closed {
                            break;
                        }
                    }
                    assert_eq!(seen, n);
                });
            });
        }
    }
}
