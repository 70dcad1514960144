//! Cluster-epoch publication: one Release store per *cluster* epoch, made
//! only once every shard has delivered its local epoch.
//!
//! The sharded serving tier (wfbn-cluster) runs `S` independent wfbn-serve
//! engines, each publishing its own local epochs through an
//! [`epoch_channel`](crate::epoch). A cross-shard query is only meaningful
//! against a *consistent cut*: shard 0's epoch-`e` table together with shard
//! 1's epoch-`e` table, never a mix of prefixes. This module is the
//! coordinator's half of that guarantee:
//!
//! * the coordinator (a single thread, the unique writer) collects each
//!   shard's epoch-`e` snapshot via [`ClusterPublisher::offer`]. Offers are
//!   staged in plain single-writer fields — no shared state is touched until
//!   the set is complete;
//! * when the `S`-th shard's snapshot for epoch `e` arrives, the assembled
//!   `Vec<Arc<T>>` (one entry per shard, index = shard id) is pushed into
//!   every reader lane and then — exactly once per cluster epoch — the shared
//!   cluster-epoch word is Release-stored.
//!
//! # Protocol and memory ordering
//!
//! The ordering argument is the same as [`epoch`](crate::epoch)'s, lifted one
//! level: lane pushes happen before the Release store of the cluster-epoch
//! word, so a reader that Acquire-loads the word
//! ([`ClusterReader::published`]) and observes cluster epoch `e` is
//! guaranteed that a subsequent [`ClusterReader::pin`] returns an epoch
//! `>= e` whose per-shard snapshots are all fully constructed — a reader can
//! never observe a cluster epoch with a missing or torn shard. The loom model
//! in `crates/concurrent/tests/loom.rs` (`cluster_epoch_publishes_complete_cuts`)
//! checks this under every interleaving of one coordinator and one reader.
//!
//! The "only once every shard has published" rule is structural, not checked
//! at runtime by readers: [`ClusterPublisher::offer`] simply cannot reach the
//! store until `staged == shards`. A shard that never publishes therefore
//! never advances the cluster epoch; the coordinator surfaces that as a
//! stalled epoch (see wfbn-cluster's starve-shard negative control) — the
//! primitive itself never spins.
//!
//! # Examples
//!
//! ```
//! use wfbn_concurrent::cluster_epoch_channel;
//!
//! let (mut publisher, mut readers) = cluster_epoch_channel::<u64>(2, 1);
//! assert_eq!(publisher.offer(0, 10.into()), None); // shard 1 still missing
//! assert_eq!(publisher.offer(1, 20.into()), Some(1));
//! let (epoch, cut) = readers[0].pin().expect("published");
//! assert_eq!(epoch, 1);
//! assert_eq!((*cut[0], *cut[1]), (10, 20));
//! ```

use crate::spsc::{channel, Consumer, Producer};
use crate::sync::{AtomicU64, Ordering};
use std::sync::Arc;

/// A published cluster cut: one snapshot per shard, indexed by shard id.
pub type ClusterCut<T> = Arc<Vec<Arc<T>>>;

/// The coordinator's (single-writer) endpoint; see the [module docs](self).
///
/// `offer` is wait-free: staging is a plain slot write; the completing offer
/// additionally does one lane push per reader and a single Release store.
pub struct ClusterPublisher<T> {
    staging: Vec<Option<Arc<T>>>,
    staged: usize,
    lanes: Vec<Producer<(u64, ClusterCut<T>)>>,
    shared: Arc<AtomicU64>,
    epoch: u64,
}

/// One reader's endpoint; see the [module docs](self).
///
/// `pin` is wait-free: it drains the private lane (bounded by the number of
/// cluster epochs published since the last pin) and keeps the newest.
pub struct ClusterReader<T> {
    lane: Consumer<(u64, ClusterCut<T>)>,
    shared: Arc<AtomicU64>,
    pinned_epoch: u64,
    pinned: Option<ClusterCut<T>>,
}

/// Creates a cluster-epoch channel assembling cuts over `shards` shards with
/// `readers` reader endpoints.
///
/// Cluster epoch 0 means "no complete cut yet"; the first complete offer set
/// publishes cluster epoch 1.
///
/// # Panics
///
/// Panics if `shards` is zero — an empty cut can never complete.
pub fn cluster_epoch_channel<T>(
    shards: usize,
    readers: usize,
) -> (ClusterPublisher<T>, Vec<ClusterReader<T>>) {
    assert!(shards > 0, "a cluster needs at least one shard");
    let shared = Arc::new(AtomicU64::new(0));
    let mut lanes = Vec::with_capacity(readers);
    let mut ends = Vec::with_capacity(readers);
    for _ in 0..readers {
        let (tx, rx) = channel();
        lanes.push(tx);
        ends.push(ClusterReader {
            lane: rx,
            shared: Arc::clone(&shared),
            pinned_epoch: 0,
            pinned: None,
        });
    }
    (
        ClusterPublisher {
            staging: (0..shards).map(|_| None).collect(),
            staged: 0,
            lanes,
            shared,
            epoch: 0,
        },
        ends,
    )
}

impl<T> ClusterPublisher<T> {
    /// Stages shard `shard`'s snapshot for the cluster epoch being assembled
    /// (`published() + 1`). Returns the new cluster epoch if this offer
    /// completed the cut, `None` while shards are still missing.
    ///
    /// Offers must arrive in local-epoch order, one per shard per cluster
    /// epoch — the coordinator consumes each shard's lane sequentially
    /// (`EpochReader::next_epoch`), which guarantees exactly that.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range or has already offered a snapshot
    /// for the in-flight epoch (a protocol violation by the coordinator).
    pub fn offer(&mut self, shard: usize, value: Arc<T>) -> Option<u64> {
        let slot = &mut self.staging[shard];
        assert!(
            slot.is_none(),
            "shard {shard} offered twice for cluster epoch {}",
            self.epoch + 1
        );
        *slot = Some(value);
        self.staged += 1;
        if self.staged < self.staging.len() {
            return None;
        }
        // Every shard has delivered its local epoch: assemble the cut and
        // publish it — the only path to the Release store below.
        let cut: ClusterCut<T> = Arc::new(
            self.staging
                .iter_mut()
                .map(|slot| slot.take().expect("cut is complete"))
                .collect(),
        );
        self.staged = 0;
        self.epoch += 1;
        for lane in &mut self.lanes {
            lane.push((self.epoch, Arc::clone(&cut)));
        }
        // The cluster-epoch word is single-writer: only the coordinator
        // ever stores it.
        #[cfg(feature = "ownership-audit")]
        crate::audit::record_write(
            Arc::as_ptr(&self.shared).cast::<u8>(),
            core::mem::size_of::<u64>(),
        );
        // Release: pairs with the readers' Acquire load in `published`;
        // every lane push above (and every per-shard snapshot inside the
        // cut) is visible to a reader that sees this cluster epoch.
        // hb-writer: coordinator
        // loom-model: cluster_epoch_publishes_complete_cuts
        self.shared.store(self.epoch, Ordering::Release);
        Some(self.epoch)
    }

    /// The most recently published cluster epoch (0 if none yet).
    pub fn published(&self) -> u64 {
        self.epoch
    }

    /// Number of shards a cut assembles over.
    pub fn shards(&self) -> usize {
        self.staging.len()
    }

    /// Number of reader lanes this publisher feeds.
    pub fn readers(&self) -> usize {
        self.lanes.len()
    }

    /// `true` if `shard` has already staged a snapshot for the in-flight
    /// cluster epoch. The coordinator polls this before consuming more of a
    /// shard's local-epoch lane, so a fast shard can never overwrite (or
    /// double-offer into) a cut still waiting on a slow one.
    pub fn offered(&self, shard: usize) -> bool {
        self.staging[shard].is_some()
    }

    /// Number of shards staged for the in-flight cluster epoch (0 right
    /// after a publication).
    pub fn staged(&self) -> usize {
        self.staged
    }

    /// The lowest shard id that has *not* yet offered a snapshot for the
    /// in-flight cluster epoch, or `None` if nothing is pending (the cut
    /// just published, or no offers arrived yet and none are missing —
    /// i.e. never, since a fresh cut is missing shard 0).
    ///
    /// This is what the coordinator reports when a cluster epoch stalls:
    /// "waiting on shard `s` for epoch `published() + 1`".
    pub fn waiting_on(&self) -> Option<usize> {
        self.staging.iter().position(Option::is_none)
    }
}

impl<T> ClusterReader<T> {
    /// The newest cluster epoch the coordinator has made visible (Acquire).
    ///
    /// After this returns `e`, [`pin`](Self::pin) is guaranteed to return an
    /// epoch `>= e` — the module-level happens-before argument.
    pub fn published(&self) -> u64 {
        // loom-model: cluster_epoch_publishes_complete_cuts,next_epoch_walks_the_sequence_without_skipping
        self.shared.load(Ordering::Acquire)
    }

    /// Advances to the newest published cluster cut and returns it with its
    /// epoch; `None` until the first complete cut reaches this lane.
    ///
    /// The returned epoch never decreases across calls, and the cut (every
    /// per-shard snapshot in it) stays valid and immutable until the next
    /// `pin`.
    pub fn pin(&mut self) -> Option<(u64, &ClusterCut<T>)> {
        // wf-bound: backlog(lane) — each iteration pops one cluster epoch
        // already committed to the SPSC lane; the coordinator pushes at most
        // one per completed cut, so the drain is bounded by the backlog at
        // entry.
        while let Some((epoch, cut)) = self.lane.try_pop() {
            debug_assert!(epoch > self.pinned_epoch, "cluster epochs arrive in order");
            self.pinned_epoch = epoch;
            self.pinned = Some(cut);
        }
        self.pinned.as_ref().map(|cut| (self.pinned_epoch, cut))
    }

    /// The cluster epoch currently pinned (0 before the first successful
    /// [`pin`](Self::pin)).
    pub fn pinned_epoch(&self) -> u64 {
        self.pinned_epoch
    }

    /// The currently pinned cut without advancing (None before the first
    /// successful [`pin`](Self::pin)).
    pub fn pinned(&self) -> Option<&ClusterCut<T>> {
        self.pinned.as_ref()
    }

    /// `true` once the coordinator endpoint has been dropped; combined with
    /// a final [`pin`](Self::pin), the reader then holds the last cluster
    /// epoch there will ever be.
    pub fn is_closed(&self) -> bool {
        self.lane.is_closed()
    }
}

#[cfg(all(test, not(feature = "loom")))]
mod tests {
    use super::*;

    #[test]
    fn publishes_only_complete_cuts() {
        let (mut publisher, mut readers) = cluster_epoch_channel::<u64>(3, 2);
        assert_eq!(publisher.shards(), 3);
        assert_eq!(publisher.readers(), 2);
        assert_eq!(publisher.waiting_on(), Some(0));
        assert_eq!(publisher.offer(1, 11.into()), None);
        assert_eq!(publisher.waiting_on(), Some(0));
        assert_eq!(publisher.offer(0, 10.into()), None);
        assert_eq!(publisher.waiting_on(), Some(2));
        for r in &mut readers {
            assert_eq!(r.published(), 0, "no cut before the last shard");
            assert!(r.pin().is_none());
        }
        assert_eq!(publisher.offer(2, 12.into()), Some(1));
        assert_eq!(publisher.published(), 1);
        assert_eq!(publisher.waiting_on(), Some(0), "next cut starts empty");
        for r in &mut readers {
            assert_eq!(r.published(), 1);
            let (epoch, cut) = r.pin().expect("complete cut published");
            assert_eq!(epoch, 1);
            let values: Vec<u64> = cut.iter().map(|s| **s).collect();
            assert_eq!(values, [10, 11, 12], "cut is indexed by shard id");
        }
    }

    #[test]
    #[should_panic(expected = "offered twice")]
    fn double_offer_is_a_protocol_violation() {
        let (mut publisher, _readers) = cluster_epoch_channel::<u64>(2, 1);
        publisher.offer(0, 1.into());
        publisher.offer(0, 2.into());
    }

    #[test]
    fn pin_drains_to_newest_cut_and_reclaims_old_ones() {
        let (mut publisher, mut readers) = cluster_epoch_channel::<u64>(1, 1);
        assert_eq!(publisher.offer(0, 1.into()), Some(1));
        let held = Arc::clone(readers[0].pin().unwrap().1);
        for v in 2..=4u64 {
            assert_eq!(publisher.offer(0, v.into()), Some(v));
        }
        let (epoch, cut) = readers[0].pin().unwrap();
        assert_eq!((epoch, *cut[0]), (4, 4));
        assert_eq!(readers[0].pinned_epoch(), 4);
        assert_eq!(Arc::strong_count(&held), 1, "cut 1 fully released");
    }

    #[test]
    fn closed_coordinator_leaves_last_cut_pinnable() {
        let (mut publisher, mut readers) = cluster_epoch_channel::<u64>(2, 1);
        publisher.offer(0, 5.into());
        publisher.offer(1, 6.into());
        drop(publisher);
        let r = &mut readers[0];
        assert!(r.is_closed());
        let (epoch, cut) = r.pin().expect("published before close");
        assert_eq!(epoch, 1);
        assert_eq!((*cut[0], *cut[1]), (5, 6));
        assert_eq!(r.pinned().map(|c| c.len()), Some(2));
    }

    #[test]
    fn concurrent_readers_only_see_complete_cuts() {
        // Stress (non-loom) version of the publication invariant: cluster
        // epoch `e` carries the value `e` on every shard, so any torn or
        // partial observation would fail the per-shard check.
        const EPOCHS: u64 = 1_000;
        const SHARDS: usize = 4;
        const READERS: usize = 3;
        let (mut publisher, readers) = cluster_epoch_channel::<u64>(SHARDS, READERS);
        std::thread::scope(|s| {
            for mut r in readers {
                s.spawn(move || {
                    let mut last = 0u64;
                    loop {
                        let observed = r.published();
                        let closed = r.is_closed();
                        if let Some((epoch, cut)) = r.pin() {
                            assert!(epoch >= observed, "pin lagged a visible epoch");
                            assert!(epoch >= last, "cluster epoch went backwards");
                            assert_eq!(cut.len(), SHARDS, "cut missing a shard");
                            for shard in cut.iter() {
                                assert_eq!(**shard, epoch, "torn cut");
                            }
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
                for e in 1..=EPOCHS {
                    for shard in 0..SHARDS {
                        let published = publisher.offer(shard, e.into());
                        if shard + 1 < SHARDS {
                            assert_eq!(published, None);
                        } else {
                            assert_eq!(published, Some(e));
                        }
                    }
                }
            });
        });
    }
}
