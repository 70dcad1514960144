//! Single-writer epoch publication of immutable snapshots.
//!
//! The serving layer needs one writer to hand out successive versions
//! ("epochs") of an immutable value — a published potential-table snapshot —
//! to `N` reader threads without any reader ever blocking the writer or each
//! other. This module extends the paper's exactly-one-owner discipline from
//! table construction to publication:
//!
//! * the **epoch counter** is a single [`AtomicU64`] written only by the
//!   publisher (plain store, no read-modify-write — the same no-RMW property
//!   the SPSC queue's `len` counter has);
//! * each reader gets a private **lane** — one of the crate's wait-free
//!   [`spsc`](crate::spsc) queues — carrying `(epoch, Arc<T>)` pairs. The
//!   publisher is the unique producer of every lane and each reader the
//!   unique consumer of its own, so publication inherits the queue's
//!   verified single-writer structure wholesale.
//!
//! # Protocol and memory ordering
//!
//! [`EpochPublisher::publish`] pushes the new `(epoch, Arc)` into every lane
//! *first*, then Release-stores the shared epoch counter. A reader that
//! Acquire-loads the counter ([`EpochReader::published`]) and observes epoch
//! `e` therefore synchronizes-with that store, which makes every earlier lane
//! push visible: a subsequent [`EpochReader::pin`] is guaranteed to return an
//! epoch `>= e` with its value fully constructed — a reader can never observe
//! a torn or unpublished epoch. (The loom model in
//! `crates/concurrent/tests/loom.rs` checks exactly this claim under every
//! interleaving.)
//!
//! Reclamation is free: a reader's `pin` drains its lane to the newest entry,
//! dropping the `Arc`s of the epochs it skipped; once every reader has moved
//! on and the publisher has replaced its own copy, the old snapshot's
//! reference count reaches zero and it is freed. No hazard pointers, no
//! deferred reclamation lists.
//!
//! # Examples
//!
//! ```
//! use wfbn_concurrent::epoch_channel;
//!
//! let (mut publisher, mut readers) = epoch_channel::<Vec<u64>>(2);
//! assert!(readers[0].pin().is_none()); // nothing published yet
//! publisher.publish(vec![1, 2, 3]);
//! let (epoch, snap) = readers[1].pin().expect("published");
//! assert_eq!(epoch, 1);
//! assert_eq!(snap.as_slice(), &[1, 2, 3]);
//! ```

use crate::spsc::{channel, Consumer, Producer};
use crate::sync::{AtomicU64, Ordering};
use std::sync::Arc;

/// The publishing (writer) endpoint; see the [module docs](self).
///
/// `publish` is wait-free: one `Arc` clone + one queue push per reader, then
/// a single Release store — no step waits on any reader.
pub struct EpochPublisher<T> {
    lanes: Vec<Producer<(u64, Arc<T>)>>,
    shared: Arc<AtomicU64>,
    epoch: u64,
}

/// One reader's endpoint; see the [module docs](self).
///
/// `pin` is wait-free: it drains the private lane (bounded by the number of
/// epochs published since the last pin) and keeps the newest.
pub struct EpochReader<T> {
    lane: Consumer<(u64, Arc<T>)>,
    shared: Arc<AtomicU64>,
    pinned_epoch: u64,
    pinned: Option<Arc<T>>,
}

/// Creates an epoch-publication channel with `readers` reader endpoints.
///
/// Epoch 0 means "nothing published"; the first
/// [`publish`](EpochPublisher::publish) creates epoch 1.
pub fn epoch_channel<T>(readers: usize) -> (EpochPublisher<T>, Vec<EpochReader<T>>) {
    let shared = Arc::new(AtomicU64::new(0));
    let mut lanes = Vec::with_capacity(readers);
    let mut ends = Vec::with_capacity(readers);
    for _ in 0..readers {
        let (tx, rx) = channel();
        lanes.push(tx);
        ends.push(EpochReader {
            lane: rx,
            shared: Arc::clone(&shared),
            pinned_epoch: 0,
            pinned: None,
        });
    }
    (
        EpochPublisher {
            lanes,
            shared,
            epoch: 0,
        },
        ends,
    )
}

impl<T> EpochPublisher<T> {
    /// Publishes `value` as the next epoch and returns its number.
    ///
    /// Order matters: the `(epoch, Arc)` pairs go into every reader lane
    /// *before* the Release store of the shared counter, so any reader that
    /// observes the new counter value can already pin the new epoch.
    pub fn publish(&mut self, value: T) -> u64 {
        let snap = Arc::new(value);
        self.epoch += 1;
        for lane in &mut self.lanes {
            lane.push((self.epoch, Arc::clone(&snap)));
        }
        // The epoch slot is single-writer: only the publisher ever stores it.
        #[cfg(feature = "ownership-audit")]
        crate::audit::record_write(
            Arc::as_ptr(&self.shared).cast::<u8>(),
            core::mem::size_of::<u64>(),
        );
        // Release: pairs with the readers' Acquire load in `published`;
        // everything pushed above is visible to a reader that sees this epoch.
        // hb-writer: publisher
        // loom-model: epoch_reader_never_observes_torn_or_unpublished_epoch
        self.shared.store(self.epoch, Ordering::Release);
        self.epoch
    }

    /// The most recently published epoch (0 if none yet).
    pub fn published(&self) -> u64 {
        self.epoch
    }

    /// Number of reader lanes this publisher feeds.
    pub fn readers(&self) -> usize {
        self.lanes.len()
    }
}

impl<T> EpochReader<T> {
    /// The newest epoch the publisher has made visible (Acquire).
    ///
    /// After this returns `e`, [`pin`](Self::pin) is guaranteed to return an
    /// epoch `>= e` — the module-level happens-before argument.
    pub fn published(&self) -> u64 {
        // loom-model: epoch_reader_never_observes_torn_or_unpublished_epoch,epoch_pins_are_monotone_under_every_schedule
        self.shared.load(Ordering::Acquire)
    }

    /// Advances to the newest published epoch and returns it with its value;
    /// `None` until the first publication reaches this lane.
    ///
    /// The returned epoch never decreases across calls, and the reference
    /// stays valid (and its contents immutable) until the next `pin`.
    pub fn pin(&mut self) -> Option<(u64, &Arc<T>)> {
        // wf-bound: backlog(lane) — each iteration pops one epoch already
        // committed to the SPSC lane; the publisher pushes at most one per
        // publish, so the drain is bounded by the backlog at entry.
        while let Some((epoch, snap)) = self.lane.try_pop() {
            debug_assert!(epoch > self.pinned_epoch, "epochs arrive in order");
            self.pinned_epoch = epoch;
            self.pinned = Some(snap);
        }
        self.pinned.as_ref().map(|snap| (self.pinned_epoch, snap))
    }

    /// The epoch currently pinned (0 before the first successful
    /// [`pin`](Self::pin)).
    pub fn pinned_epoch(&self) -> u64 {
        self.pinned_epoch
    }

    /// The currently pinned value without advancing (None before the first
    /// successful [`pin`](Self::pin)).
    pub fn pinned(&self) -> Option<&Arc<T>> {
        self.pinned.as_ref()
    }

    /// `true` once the publisher endpoint has been dropped; combined with a
    /// final [`pin`](Self::pin), the reader then holds the last epoch there
    /// will ever be.
    pub fn is_closed(&self) -> bool {
        self.lane.is_closed()
    }
}

#[cfg(all(test, not(feature = "loom")))]
mod tests {
    use super::*;

    #[test]
    fn publishes_reach_every_reader_in_order() {
        let (mut publisher, mut readers) = epoch_channel::<u64>(3);
        assert_eq!(publisher.readers(), 3);
        for r in &mut readers {
            assert!(r.pin().is_none());
            assert_eq!(r.published(), 0);
        }
        assert_eq!(publisher.publish(10), 1);
        assert_eq!(publisher.publish(20), 2);
        assert_eq!(publisher.published(), 2);
        for r in &mut readers {
            assert_eq!(r.published(), 2);
            let (epoch, snap) = r.pin().expect("two epochs published");
            assert_eq!(epoch, 2, "pin lands on the newest epoch");
            assert_eq!(**snap, 20);
            assert_eq!(r.pinned_epoch(), 2);
        }
    }

    #[test]
    fn pin_is_monotone_and_stable_between_publishes() {
        let (mut publisher, mut readers) = epoch_channel::<String>(1);
        let r = &mut readers[0];
        publisher.publish("a".into());
        assert_eq!(r.pin().unwrap().0, 1);
        // No new publish: pin stays where it was.
        assert_eq!(r.pin().unwrap().0, 1);
        assert_eq!(r.pinned().map(|s| s.as_str()), Some("a"));
        publisher.publish("b".into());
        let (epoch, snap) = r.pin().unwrap();
        assert_eq!((epoch, snap.as_str()), (2, "b"));
    }

    #[test]
    fn skipped_epochs_are_reclaimed() {
        let (mut publisher, mut readers) = epoch_channel::<Vec<u8>>(2);
        let first = publisher.publish(vec![1]);
        assert_eq!(first, 1);
        let held = Arc::clone(readers[0].pin().unwrap().1);
        for i in 2..=5u8 {
            publisher.publish(vec![i]);
        }
        // Reader 0 advances, dropping epochs 2..=4; reader 1 jumps straight
        // to 5. Epoch 1 survives only through the clone we kept.
        assert_eq!(readers[0].pin().unwrap().0, 5);
        assert_eq!(readers[1].pin().unwrap().0, 5);
        assert_eq!(Arc::strong_count(&held), 1, "epoch 1 fully released");
    }

    #[test]
    fn closed_publisher_leaves_last_epoch_pinnable() {
        let (mut publisher, mut readers) = epoch_channel::<u64>(1);
        publisher.publish(7);
        drop(publisher);
        let r = &mut readers[0];
        assert!(r.is_closed());
        assert_eq!(r.pin().map(|(e, s)| (e, **s)), Some((1, 7)));
    }

    #[test]
    fn concurrent_readers_only_see_fully_published_epochs() {
        // Stress (non-loom) version of the publication invariant: an epoch
        // `e` always carries a vector of length `e`, so any torn observation
        // would fail the length check.
        const EPOCHS: u64 = 1_000;
        const READERS: usize = 4;
        let (mut publisher, readers) = epoch_channel::<Vec<u64>>(READERS);
        std::thread::scope(|s| {
            for mut r in readers {
                s.spawn(move || {
                    let mut last = 0u64;
                    loop {
                        let observed = r.published();
                        let closed = r.is_closed();
                        if let Some((epoch, snap)) = r.pin() {
                            assert!(epoch >= observed, "pin lagged a visible epoch");
                            assert!(epoch >= last, "epoch went backwards");
                            assert_eq!(snap.len() as u64, epoch, "torn snapshot");
                            last = epoch;
                        }
                        if closed {
                            break;
                        }
                        std::hint::spin_loop();
                    }
                    assert_eq!(r.pin().unwrap().0, EPOCHS);
                });
            }
            s.spawn(move || {
                let mut v = Vec::new();
                for e in 1..=EPOCHS {
                    v.push(e);
                    publisher.publish(v.clone());
                }
            });
        });
    }
}
