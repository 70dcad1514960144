//! Write-combining key routing with per-destination pre-aggregation.
//!
//! Forwarding every foreign key with its own `Producer::push` would cost one
//! release store and one queue-slot write per occurrence. This module is the
//! router every builder's stage 1 uses instead, borrowing two tricks from
//! radix-partitioning hash joins and combiner-style parallel counting:
//!
//! * **Software write combining** — each worker keeps one small private
//!   buffer per destination core and appends foreign keys there; only when a
//!   buffer fills (or at end of stage 1) is it shipped with a single
//!   [`Producer::push_block`] call, amortizing the queue's publication
//!   protocol over [`WC_CAP`] entries and streaming whole cache lines into
//!   the segment instead of dribbling one slot at a time.
//! * **Last-key run-length coalescing** — the buffered element is a
//!   `(key, count)` pair. If the key being routed equals the destination
//!   buffer's most recent key, its count is bumped instead of appending a
//!   new element, so runs of duplicate keys (ubiquitous under skewed/Zipf
//!   data, common even under uniform data at small state spaces) cross the
//!   queue as one element. Stage 2 applies the pair with a single weighted
//!   table increment.
//!
//! Both tricks preserve the single-writer discipline: buffers are worker
//! private, flushes go through the worker's own SPSC producers, and the
//! consumer side stays the queue's unique reader. The auditor in
//! `wfbn-concurrent` checks exactly this when the `ownership-audit` feature
//! is on.

use wfbn_concurrent::Producer;

/// Entries per write-combining buffer: the flush unit handed to
/// [`Producer::push_block`].
///
/// 64 `(u64, u64)` pairs = 1 KiB = 16 cache lines per destination — small
/// enough that every active buffer of a 32-core router stays L1-resident
/// (32 KiB total), large enough to amortize the per-flush publication cost
/// to a fraction of a cycle per key.
pub const WC_CAP: usize = 64;

/// A per-worker router: one write-combining buffer per destination core,
/// with last-key run-length coalescing.
///
/// The buffer at the worker's own index stays empty — local keys never
/// enter the router.
#[derive(Debug)]
pub struct Combiner {
    bufs: Vec<Vec<(u64, u64)>>,
    blocks_flushed: u64,
    keys_coalesced: u64,
}

impl Combiner {
    /// A router with one (empty, pre-sized) buffer per destination.
    pub fn new(destinations: usize) -> Self {
        Combiner {
            bufs: (0..destinations)
                .map(|_| Vec::with_capacity(WC_CAP))
                .collect(),
            blocks_flushed: 0,
            keys_coalesced: 0,
        }
    }

    /// Routes one foreign-key occurrence toward `owner`.
    ///
    /// Coalesces into the buffer's open run when `key` repeats, otherwise
    /// appends `(key, 1)`; flushes the buffer through `producers[owner]`
    /// first if it is full. Wait-free: bounded by one `push_block` of
    /// [`WC_CAP`] elements.
    #[inline]
    pub fn route(
        &mut self,
        owner: usize,
        key: u64,
        producers: &mut [Option<Producer<(u64, u64)>>],
    ) {
        let buf = &mut self.bufs[owner];
        if let Some(last) = buf.last_mut() {
            if last.0 == key {
                last.1 += 1;
                self.keys_coalesced += 1;
                return;
            }
        }
        if buf.len() == WC_CAP {
            producers[owner]
                .as_mut()
                .expect("producer to every foreign destination")
                .push_block(buf);
            buf.clear();
            self.blocks_flushed += 1;
        }
        buf.push((key, 1));
    }

    /// Ships every non-empty buffer (end of stage 1). After this the router
    /// holds nothing and the producers may be closed.
    pub fn flush_all(&mut self, producers: &mut [Option<Producer<(u64, u64)>>]) {
        for (owner, buf) in self.bufs.iter_mut().enumerate() {
            if !buf.is_empty() {
                producers[owner]
                    .as_mut()
                    .expect("producer to every foreign destination")
                    .push_block(buf);
                buf.clear();
                self.blocks_flushed += 1;
            }
        }
    }

    /// Number of `push_block` flushes performed (feeds `blocks_flushed`).
    pub fn blocks_flushed(&self) -> u64 {
        self.blocks_flushed
    }

    /// Occurrences absorbed into an open run instead of shipped as their own
    /// element (feeds `keys_coalesced`).
    pub fn keys_coalesced(&self) -> u64 {
        self.keys_coalesced
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfbn_concurrent::channel;

    type Endpoints = (
        Vec<Option<Producer<(u64, u64)>>>,
        wfbn_concurrent::Consumer<(u64, u64)>,
    );

    /// Two destinations (0 = self, unused; 1 = foreign) wired to real queues.
    fn rig() -> Endpoints {
        let (tx, rx) = channel();
        (vec![None, Some(tx)], rx)
    }

    fn drain(rx: &mut wfbn_concurrent::Consumer<(u64, u64)>) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        while rx.pop_block(&mut out) > 0 {}
        out
    }

    #[test]
    fn coalesces_runs_and_preserves_mass() {
        let (mut producers, mut rx) = rig();
        let mut c = Combiner::new(2);
        for key in [7u64, 7, 7, 9, 7, 7] {
            c.route(1, key, &mut producers);
        }
        c.flush_all(&mut producers);
        assert_eq!(drain(&mut rx), vec![(7, 3), (9, 1), (7, 2)]);
        assert_eq!(c.keys_coalesced(), 3); // 6 occurrences − 3 elements
        assert_eq!(c.blocks_flushed(), 1);
    }

    #[test]
    fn flushes_when_a_buffer_fills() {
        let (mut producers, mut rx) = rig();
        let mut c = Combiner::new(2);
        // Distinct keys: no coalescing, so WC_CAP + 1 routes force one flush.
        for key in 0..(WC_CAP as u64 + 1) {
            c.route(1, key * 2, &mut producers);
        }
        assert_eq!(c.blocks_flushed(), 1);
        assert_eq!(drain(&mut rx).len(), WC_CAP);
        c.flush_all(&mut producers);
        assert_eq!(c.blocks_flushed(), 2);
        assert_eq!(drain(&mut rx), vec![(WC_CAP as u64 * 2, 1)]);
        assert_eq!(c.keys_coalesced(), 0);
    }

    #[test]
    fn flush_all_skips_empty_buffers() {
        let (mut producers, _rx) = rig();
        let mut c = Combiner::new(2);
        c.flush_all(&mut producers);
        assert_eq!(c.blocks_flushed(), 0);
    }

    #[test]
    fn conservation_forwarded_equals_sum_of_counts() {
        // The conservation rule the metrics layer checks: occurrences routed
        // = Σ counts crossing the queue.
        let (mut producers, mut rx) = rig();
        let mut c = Combiner::new(2);
        let mut x = 1u64;
        let mut routed = 0u64;
        for _ in 0..10_000 {
            x = wfbn_concurrent::mix64(x);
            c.route(1, x % 17, &mut producers);
            routed += 1;
        }
        c.flush_all(&mut producers);
        let mass: u64 = drain(&mut rx).iter().map(|&(_, n)| n).sum();
        assert_eq!(mass, routed);
        assert_eq!(routed - c.keys_coalesced(), rx.popped());
    }
}
