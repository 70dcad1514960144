//! The [`Recorder`] abstraction: what the instrumented hot paths talk to.
//!
//! The construction and marginalization primitives are generic over a
//! `Recorder`. Each worker thread asks the recorder for a per-core
//! [`CoreRecorder`] handle once, at spawn, and then reports events only
//! through that handle — so the single-writer discipline the primitives
//! already obey for table and queue words extends to the telemetry words
//! too. The default [`NoopRecorder`] compiles to nothing: every method is an
//! empty `#[inline(always)]` body, and because the builders are
//! monomorphized per recorder type, the no-op instantiation is
//! instruction-for-instruction the uninstrumented loop.

/// Pipeline stages whose wall time is attributed separately.
///
/// These are exactly the phases the paper's cost model distinguishes:
/// stage-1 encode/route (Algorithm 1), the barrier wait, stage-2 drain
/// (Algorithm 2), and marginalization (Algorithms 3/4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Stage {
    /// Stage 1: encode rows and route keys (local update or forward).
    Encode = 0,
    /// Waiting at the inter-stage barrier.
    Barrier = 1,
    /// Stage 2: drain foreign queues and apply keys.
    Drain = 2,
    /// Marginalization / all-pairs MI scanning.
    Marginal = 3,
    /// Serving-layer query answering (pin, cache lookups, fused scans).
    Query = 4,
}

/// Number of [`Stage`] variants (array dimension).
pub const NUM_STAGES: usize = 5;

impl Stage {
    /// All stages, in index order.
    pub const ALL: [Stage; NUM_STAGES] = [
        Stage::Encode,
        Stage::Barrier,
        Stage::Drain,
        Stage::Marginal,
        Stage::Query,
    ];

    /// Stable JSON/report key for the stage.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Encode => "stage1_encode_route",
            Stage::Barrier => "barrier_wait",
            Stage::Drain => "stage2_drain",
            Stage::Marginal => "marginalize",
            Stage::Query => "query_serve",
        }
    }
}

/// Monotonic event counters, one slot per core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Rows encoded in stage 1.
    RowsEncoded = 0,
    /// Keys applied to the core's own partition in stage 1.
    LocalUpdates = 1,
    /// Keys forwarded to another core's queue.
    Forwarded = 2,
    /// Keys drained from foreign queues and applied.
    Drained = 3,
    /// Hash-table slot probes (stages 1 + 2).
    Probes = 4,
    /// Count-table growth (rehash) events.
    TableGrows = 5,
    /// SPSC queue segments linked by this core's producers.
    SegmentsLinked = 6,
    /// Variable pairs this core evaluated (Algorithm 4).
    PairsScanned = 7,
    /// Potential-table entries this core scanned during marginalization.
    /// A serving reader counts every entry of the pinned snapshot once per
    /// cache-missing scope, whether the bit-sliced kernel or the decode fold
    /// counted that scope, so the count stays comparable across kernels.
    EntriesScanned = 8,
    /// Write-combining buffer flushes: `push_block` calls made by this
    /// core's stage-1 router (zero for the sequential oracle).
    BlocksFlushed = 9,
    /// Foreign key occurrences absorbed into an open `(key, count)` run by
    /// the per-destination combiner instead of being shipped as their own
    /// queue element. `Forwarded` still counts these occurrences, so
    /// elements actually enqueued = `forwarded − keys_coalesced`.
    KeysCoalesced = 10,
    /// Queries this core (a serving reader) answered.
    QueriesServed = 11,
    /// Serving-cache lookups answered from the reader's scope-keyed
    /// marginal cache.
    CacheHits = 12,
    /// Serving-cache lookups that missed and required a scan of the
    /// epoch's packed snapshot.
    CacheMisses = 13,
    /// Table snapshots this core (the serving writer) published as epochs.
    EpochsPublished = 14,
    /// Epoch advances this core (a serving reader) pinned — distinct epochs
    /// observed, not query count.
    EpochsPinned = 15,
}

/// Number of [`Counter`] variants (array dimension).
pub const NUM_COUNTERS: usize = 16;

impl Counter {
    /// All counters, in index order.
    pub const ALL: [Counter; NUM_COUNTERS] = [
        Counter::RowsEncoded,
        Counter::LocalUpdates,
        Counter::Forwarded,
        Counter::Drained,
        Counter::Probes,
        Counter::TableGrows,
        Counter::SegmentsLinked,
        Counter::PairsScanned,
        Counter::EntriesScanned,
        Counter::BlocksFlushed,
        Counter::KeysCoalesced,
        Counter::QueriesServed,
        Counter::CacheHits,
        Counter::CacheMisses,
        Counter::EpochsPublished,
        Counter::EpochsPinned,
    ];

    /// Stable JSON/report key for the counter.
    pub fn name(self) -> &'static str {
        match self {
            Counter::RowsEncoded => "rows_encoded",
            Counter::LocalUpdates => "local_updates",
            Counter::Forwarded => "forwarded",
            Counter::Drained => "drained",
            Counter::Probes => "probes",
            Counter::TableGrows => "table_grows",
            Counter::SegmentsLinked => "segments_linked",
            Counter::PairsScanned => "pairs_scanned",
            Counter::EntriesScanned => "entries_scanned",
            Counter::BlocksFlushed => "blocks_flushed",
            Counter::KeysCoalesced => "keys_coalesced",
            Counter::QueriesServed => "queries_served",
            Counter::CacheHits => "cache_hits",
            Counter::CacheMisses => "cache_misses",
            Counter::EpochsPublished => "epochs_published",
            Counter::EpochsPinned => "epochs_pinned",
        }
    }
}

/// Number of probe-length histogram buckets: lengths 1, 2, 3, 4, 5–8, 9–16,
/// 17–32, and >32 slots.
pub const PROBE_BUCKETS: usize = 8;

/// Maps an increment's probe count to its histogram bucket.
#[inline]
pub(crate) fn probe_bucket(probes: u64) -> usize {
    match probes {
        0..=4 => (probes as usize).saturating_sub(1),
        5..=8 => 4,
        9..=16 => 5,
        17..=32 => 6,
        _ => 7,
    }
}

/// Human-readable bucket labels, index-aligned with the histogram arrays.
pub const PROBE_BUCKET_LABELS: [&str; PROBE_BUCKETS] =
    ["1", "2", "3", "4", "5-8", "9-16", "17-32", ">32"];

/// Number of query-latency histogram buckets (v4: 16 power-of-two buckets
/// from 250 ns, fine enough for p99/p999 upper-bound estimates).
pub const LAT_BUCKETS: usize = 16;

/// Maps a query's wall latency in nanoseconds to its histogram bucket:
/// `<250ns`, then power-of-two ranges up to `[2,4)` ms, and `>=4ms`. The v3
/// schema's 8 power-of-four buckets were too coarse to bound a p99 tighter
/// than 4x; the v4 buckets bound every percentile below 4 ms within 2x.
#[inline]
pub(crate) fn lat_bucket(ns: u64) -> usize {
    match ns {
        0..=249 => 0,
        250..=499 => 1,
        500..=999 => 2,
        1_000..=1_999 => 3,
        2_000..=3_999 => 4,
        4_000..=7_999 => 5,
        8_000..=15_999 => 6,
        16_000..=31_999 => 7,
        32_000..=63_999 => 8,
        64_000..=127_999 => 9,
        128_000..=255_999 => 10,
        256_000..=511_999 => 11,
        512_000..=999_999 => 12,
        1_000_000..=1_999_999 => 13,
        2_000_000..=3_999_999 => 14,
        _ => 15,
    }
}

/// Human-readable latency bucket labels, index-aligned with
/// `lat_bucket`'s ranges.
pub const LAT_BUCKET_LABELS: [&str; LAT_BUCKETS] = [
    "<250ns",
    "250-500ns",
    "500ns-1us",
    "1-2us",
    "2-4us",
    "4-8us",
    "8-16us",
    "16-32us",
    "32-64us",
    "64-128us",
    "128-256us",
    "256-512us",
    "512us-1ms",
    "1-2ms",
    "2-4ms",
    ">=4ms",
];

/// Exclusive upper edge of each latency bucket in nanoseconds, index-aligned
/// with `lat_bucket`; the unbounded last bucket reports `u64::MAX`. Used by
/// the report's percentile estimator: "p99 <= edge" is exact by construction.
pub const LAT_BUCKET_UPPER_NS: [u64; LAT_BUCKETS] = [
    250,
    500,
    1_000,
    2_000,
    4_000,
    8_000,
    16_000,
    32_000,
    64_000,
    128_000,
    256_000,
    512_000,
    1_000_000,
    2_000_000,
    4_000_000,
    u64::MAX,
];

/// Per-core event sink handed to exactly one worker thread.
///
/// All methods take `&mut self`: a handle is owned by its core for the
/// duration of a run, which is what makes every backing word single-writer.
/// Implementations must be wait-free — a bounded number of the caller's own
/// steps per call, no locks, no RMW atomics — so instrumentation cannot
/// reintroduce the blocking the primitives were designed to avoid.
pub trait CoreRecorder {
    /// Monotonic timestamp in nanoseconds, or 0 if this recorder does not
    /// time anything (the no-op recorder never touches the clock).
    #[inline(always)]
    fn now(&self) -> u64 {
        0
    }

    /// Attributes `ns` nanoseconds of wall time to `stage`.
    #[inline(always)]
    fn stage_ns(&mut self, stage: Stage, ns: u64) {
        let _ = (stage, ns);
    }

    /// Adds `by` to `counter`.
    #[inline(always)]
    fn add(&mut self, counter: Counter, by: u64) {
        let _ = (counter, by);
    }

    /// Records one hash-table increment that needed `probes` slot
    /// inspections (feeds the probe-length histogram).
    #[inline(always)]
    fn probe_len(&mut self, probes: u64) {
        let _ = probes;
    }

    /// Reports an observed queue backlog; the recorder keeps the high-water
    /// mark.
    #[inline(always)]
    fn queue_depth(&mut self, depth: u64) {
        let _ = depth;
    }

    /// Records one served query's wall latency of `ns` nanoseconds (feeds
    /// the query-latency histogram; the caller bumps
    /// [`Counter::QueriesServed`] separately so histogram mass and the
    /// counter stay independently auditable).
    #[inline(always)]
    fn query_latency(&mut self, ns: u64) {
        let _ = ns;
    }
}

/// A source of per-core [`CoreRecorder`] handles.
///
/// `Sync` because one recorder is shared by reference across all worker
/// threads of a build; each thread then obtains its own exclusive handle.
pub trait Recorder: Sync {
    /// `false` only for the no-op recorder. Hot paths test this compile-time
    /// constant before *computing a recording's argument* (e.g. an atomic
    /// queue-depth load) so the no-op instantiation performs no extra memory
    /// accesses at all — the branch and the dead argument code vanish at
    /// monomorphization.
    const ENABLED: bool = true;

    /// The per-core handle type.
    type Core<'a>: CoreRecorder
    where
        Self: 'a;

    /// Returns the handle for core `index`.
    ///
    /// Callers must hand the handle for index `t` to worker `t` only; two
    /// threads holding the same index would break the single-writer
    /// discipline (and the ownership auditor will catch it when enabled).
    fn core(&self, index: usize) -> Self::Core<'_>;
}

/// The zero-cost default recorder: records nothing, never reads the clock.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopRecorder;

/// Handle type of [`NoopRecorder`]; a ZST whose methods are all empty.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopCore;

impl CoreRecorder for NoopCore {}

impl Recorder for NoopRecorder {
    const ENABLED: bool = false;

    type Core<'a> = NoopCore;

    #[inline(always)]
    fn core(&self, _index: usize) -> NoopCore {
        NoopCore
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_methods_are_callable_and_free_of_effects() {
        let rec = NoopRecorder;
        let mut core = rec.core(3);
        assert_eq!(core.now(), 0);
        core.stage_ns(Stage::Encode, 10);
        core.add(Counter::RowsEncoded, 5);
        core.probe_len(2);
        core.queue_depth(9);
        core.query_latency(1234);
        assert_eq!(core::mem::size_of::<NoopCore>(), 0);
    }

    #[test]
    fn stage_and_counter_indices_are_dense() {
        for (i, s) in Stage::ALL.iter().enumerate() {
            assert_eq!(*s as usize, i);
        }
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i);
        }
    }

    #[test]
    fn probe_buckets_partition_the_range() {
        assert_eq!(probe_bucket(1), 0);
        assert_eq!(probe_bucket(2), 1);
        assert_eq!(probe_bucket(3), 2);
        assert_eq!(probe_bucket(4), 3);
        assert_eq!(probe_bucket(5), 4);
        assert_eq!(probe_bucket(8), 4);
        assert_eq!(probe_bucket(9), 5);
        assert_eq!(probe_bucket(16), 5);
        assert_eq!(probe_bucket(17), 6);
        assert_eq!(probe_bucket(32), 6);
        assert_eq!(probe_bucket(33), 7);
        assert_eq!(probe_bucket(10_000), 7);
    }

    #[test]
    fn lat_buckets_partition_the_range() {
        assert_eq!(lat_bucket(0), 0);
        assert_eq!(lat_bucket(249), 0);
        assert_eq!(lat_bucket(250), 1);
        assert_eq!(lat_bucket(500), 2);
        assert_eq!(lat_bucket(999), 2);
        assert_eq!(lat_bucket(1_000), 3);
        assert_eq!(lat_bucket(2_000), 4);
        assert_eq!(lat_bucket(4_000), 5);
        assert_eq!(lat_bucket(16_000), 7);
        assert_eq!(lat_bucket(64_000), 9);
        assert_eq!(lat_bucket(256_000), 11);
        assert_eq!(lat_bucket(512_000), 12);
        assert_eq!(lat_bucket(1_000_000), 13);
        assert_eq!(lat_bucket(2_000_000), 14);
        assert_eq!(lat_bucket(4_000_000), 15);
        assert_eq!(lat_bucket(u64::MAX), 15);
        assert_eq!(LAT_BUCKET_LABELS.len(), LAT_BUCKETS);
    }

    #[test]
    fn lat_bucket_upper_edges_match_the_partition() {
        // Every bucket's upper edge is exclusive: the edge itself lands in
        // the next bucket, edge-1 lands in this one.
        for (i, &edge) in LAT_BUCKET_UPPER_NS.iter().enumerate() {
            assert_eq!(lat_bucket(edge.saturating_sub(1)), i, "edge {edge}");
            if edge != u64::MAX {
                assert_eq!(lat_bucket(edge), i + 1, "edge {edge}");
            }
        }
    }
}
