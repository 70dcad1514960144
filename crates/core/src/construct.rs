//! The wait-free table-construction primitive (paper Algorithms 1 & 2).
//!
//! # How the race is designed away
//!
//! A naïve parallel build — all threads incrementing a shared map — races on
//! the counts of popular keys; locking fixes correctness but serializes the
//! hot path. The paper's primitive instead *partitions the key space*: core
//! `p` is the unique writer of partition `p`. The build runs in two stages
//! with exactly one barrier between them:
//!
//! * **Stage 1** (Algorithm 1): each core streams its contiguous chunk of
//!   rows, encodes each row to a key, and either applies it to its own
//!   private table (if it owns the key) or routes it to the wait-free SPSC
//!   queue addressed to the owning core. Since a queue has exactly one
//!   producer and one consumer, no operation in this stage can block or even
//!   retry: every core makes progress on every step (*wait-freedom*).
//! * **Barrier** — the single synchronization step.
//! * **Stage 2** (Algorithm 2): each core drains the `P − 1` queues addressed
//!   to it and applies the keys to its own table. Again, single-writer
//!   everywhere.
//!
//! Total work is `O(m·n / P)` per core for encoding plus `O(m / P)` expected
//! queue traffic — the complexities stated in the paper.
//!
//! # The build path
//!
//! Both parallel builders — one-shot ([`waitfree_build`]) and streaming
//! ([`crate::stream`]) — run `two_stage`, whose per-core `Worker` moves
//! data a block at a time: rows are encoded [`ENC_BLOCK`] at a time with
//! [`KeyCodec::encode_rows`] and the keys are split by owner. The core's own
//! keys are applied with the pre-hashed `CountTable::increment_keys_probed`;
//! each other owner's keys cross its queue as bare `u64` keys in one
//! `push_block`, as the paper's queues carry keys. Stage 2 drains one queue
//! segment per `pop_block` into the same `increment_keys_probed`. None of
//! this reorders arithmetic, so the table is identical to
//! [`sequential_build`]'s, which stays a plain row-at-a-time loop to serve
//! as the equivalence oracle.

use crate::codec::KeyCodec;
use crate::count_table::{CountTable, Key};
use crate::error::CoreError;
use crate::potential::PotentialTable;
use std::sync::Arc;
use wfbn_concurrent::{channel, row_chunks, run_on_threads_with, Consumer, Producer, SpinBarrier};
use wfbn_data::Dataset;
use wfbn_obs::{CoreRecorder, Counter, NoopRecorder, Recorder, Stage};

/// Result of a construction run. Its counters go to the run's
/// [`Recorder`]: pass a [`CoreMetrics`](wfbn_obs::CoreMetrics) to a
/// `*_recorded` builder and read its snapshot.
#[derive(Debug)]
pub struct BuiltTable {
    /// The distributed potential table.
    pub table: PotentialTable,
}

/// Cap on the per-partition capacity hint, to keep pre-allocation bounded
/// for huge inputs (the tables grow on demand past this). 2²² entries
/// (2²³ slots after `CountTable::with_capacity` rounds up, 128 MiB of
/// 16-byte slots) covers the paper's 1M-sample
/// configurations without a single rehash; the old 2¹⁶ cap made the first
/// build of a large CSV pay O(log m) growth storms per core.
const MAX_PREALLOC_ENTRIES: u64 = 1 << 22;

/// Rows per encode block, and so the unit a core flushes its foreign keys
/// in: 256 rows × 30 binary variables ≈ 15 KiB of input and 2 KiB of keys
/// per block — L1-resident, while amortizing the per-block loop overhead
/// and each queue's publication to noise.
pub const ENC_BLOCK: usize = 256;

fn capacity_hint(m: usize, space: u64, p: usize) -> usize {
    let per_core_rows = (m / p.max(1)) as u64 + 1;
    let per_core_keys = space.div_ceil(p as u64);
    per_core_rows.min(per_core_keys).min(MAX_PREALLOC_ENTRIES) as usize
}

/// Builds the potential table on a single thread, one row at a time — the
/// reference implementation every parallel build is tested against.
pub fn sequential_build(data: &Dataset) -> Result<BuiltTable, CoreError> {
    sequential_build_recorded(data, &NoopRecorder)
}

/// [`sequential_build`] with telemetry: stage timing, row/update counters,
/// and the probe-length histogram flow into core 0 of `rec`.
///
/// With [`NoopRecorder`] this monomorphizes to the uninstrumented loop —
/// every recorder call is an empty inlined body and `now()` never reads the
/// clock.
pub fn sequential_build_recorded<R: Recorder>(
    data: &Dataset,
    rec: &R,
) -> Result<BuiltTable, CoreError> {
    if data.num_samples() == 0 {
        return Err(CoreError::EmptyDataset);
    }
    let codec = KeyCodec::new(data.schema());
    let mut table =
        CountTable::with_capacity(capacity_hint(data.num_samples(), codec.state_space(), 1));
    let mut cr = rec.core(0);
    let t0 = cr.now();
    for row in data.rows() {
        let probes = table.increment_probed(codec.encode(row), 1);
        cr.probe_len(probes);
    }
    cr.stage_ns(Stage::Encode, cr.now().saturating_sub(t0));
    let rows = data.num_samples() as u64;
    cr.add(Counter::RowsEncoded, rows);
    cr.add(Counter::LocalUpdates, rows);
    cr.add(Counter::TableGrows, table.grows());
    Ok(BuiltTable {
        table: PotentialTable::from_parts(codec, vec![table]),
    })
}

/// Builds the potential table with `p` threads using the paper's wait-free
/// two-stage primitive, core `key % P` owning each key.
///
/// # Examples
///
/// ```
/// use wfbn_core::construct::{sequential_build, waitfree_build};
/// use wfbn_data::{Generator, Schema, UniformIndependent};
///
/// let data = UniformIndependent::new(Schema::uniform(10, 2).unwrap()).generate(5_000, 1);
/// let seq = sequential_build(&data).unwrap();
/// let par = waitfree_build(&data, 4).unwrap();
/// assert_eq!(seq.table.to_sorted_vec(), par.table.to_sorted_vec());
/// ```
pub fn waitfree_build(data: &Dataset, p: usize) -> Result<BuiltTable, CoreError> {
    waitfree_build_recorded(data, p, &NoopRecorder)
}

/// [`waitfree_build`] with telemetry flowing into `rec`.
///
/// Worker `t` obtains the exclusive per-core handle `rec.core(t)` and
/// reports through it only, preserving the build's single-writer-per-word
/// discipline for the telemetry words. Per-stage wall time (encode/route,
/// barrier wait, drain), routing and block-flush counters, the
/// probe-length histogram, queue backlog high-water marks, segment links,
/// and table growth events are all attributed to the core that incurred
/// them.
pub fn waitfree_build_recorded<R: Recorder>(
    data: &Dataset,
    p: usize,
    rec: &R,
) -> Result<BuiltTable, CoreError> {
    if p == 0 {
        return Err(CoreError::ZeroThreads);
    }
    if data.num_samples() == 0 {
        return Err(CoreError::EmptyDataset);
    }
    let codec = KeyCodec::new(data.schema());
    let hint = capacity_hint(data.num_samples(), codec.state_space(), p);
    let parts = two_stage(data.flat(), Fresh::parts(p, hint), &codec, rec);
    let partitions = parts.into_iter().map(Fresh::into_table).collect();
    Ok(BuiltTable {
        table: PotentialTable::from_parts(codec, partitions),
    })
}

/// A core's partition as it enters a build. The core opens it on its own
/// thread, so every write to a partition — including its allocation and a
/// copy-on-publish divergence — is made by the one core that owns it.
pub(crate) trait Partition: Send {
    /// The core's exclusive table for the rest of the build.
    fn open(&mut self) -> &mut CountTable;
}

/// A partition the build creates: allocated, pre-sized to `hint` entries, by
/// its core, so the `P` tables fault in their pages in parallel.
struct Fresh {
    hint: usize,
    table: Option<CountTable>,
}

impl Fresh {
    /// `p` unopened partitions.
    fn parts(p: usize, hint: usize) -> Vec<Self> {
        (0..p).map(|_| Fresh { hint, table: None }).collect()
    }

    /// The table this partition's core built.
    fn into_table(self) -> CountTable {
        self.table
            .unwrap_or_else(|| CountTable::with_capacity(self.hint))
    }
}

impl Partition for Fresh {
    fn open(&mut self) -> &mut CountTable {
        let hint = self.hint;
        self.table
            .get_or_insert_with(|| CountTable::with_capacity(hint))
    }
}

/// A persistent streaming partition, possibly shared with published
/// snapshots: opening it diverges a shared copy (`Arc::make_mut`), so the
/// copy-on-publish cost lands on the owning core, in parallel.
impl Partition for Arc<CountTable> {
    fn open(&mut self) -> &mut CountTable {
        Arc::make_mut(self)
    }
}

/// The queue endpoints one core owns: its producers toward every other core
/// and the consumers of the queues addressed to it (`None` at its own
/// index). Queues carry bare keys.
struct Endpoints {
    producers: Vec<Option<Producer<u64>>>,
    consumers: Vec<Option<Consumer<u64>>>,
}

/// Builds the queue matrix `Q` of Algorithm 1: one SPSC channel per ordered
/// pair `(from, to)`, `from ≠ to`, and deals the endpoints out per core.
fn queue_matrix(p: usize) -> Vec<Endpoints> {
    let mut endpoints: Vec<Endpoints> = (0..p)
        .map(|_| Endpoints {
            producers: (0..p).map(|_| None).collect(),
            consumers: (0..p).map(|_| None).collect(),
        })
        .collect();
    for from in 0..p {
        for to in 0..p {
            if from != to {
                let (tx, rx) = channel();
                endpoints[from].producers[to] = Some(tx);
                endpoints[to].consumers[from] = Some(rx);
            }
        }
    }
    endpoints
}

/// The two-stage primitive over `rows` (row-major, one state per variable
/// of `codec`): core `t` encodes its contiguous chunk block by block and
/// applies or routes every key (Algorithm 1), crosses the single barrier,
/// then drains the queues addressed to it (Algorithm 2).
///
/// Core [`Key::owner`] applies each key; `parts[t]` is opened by core `t`,
/// which reports its counters through `rec.core(t)`. Returns the
/// partitions.
pub(crate) fn two_stage<T: Partition, R: Recorder>(
    rows: &[u16],
    parts: Vec<T>,
    codec: &KeyCodec,
    rec: &R,
) -> Vec<T> {
    let n = codec.num_vars();
    let p = parts.len();
    let chunks = row_chunks(rows.len() / n, p);
    let barrier = SpinBarrier::new(p);
    #[cfg(feature = "ownership-audit")]
    let build_audit = wfbn_concurrent::audit::BuildAudit::new();
    let cores = parts.into_iter().zip(queue_matrix(p)).collect();
    run_on_threads_with(cores, |t, (mut part, ep)| {
        // Core `t` reports every table/queue write to the shadow map; any
        // word two cores write in one stage aborts the build with the
        // culprits named.
        #[cfg(feature = "ownership-audit")]
        let _audit = wfbn_concurrent::audit::enter(&build_audit, t);
        let chunk = &rows[chunks[t].start * n..chunks[t].end * n];
        barrier_core(t, chunk, &mut part, ep, &barrier, codec, rec);
        part
    })
}

/// One core's body of [`two_stage`].
fn barrier_core<R: Recorder>(
    t: usize,
    rows: &[u16],
    part: &mut impl Partition,
    mut ep: Endpoints,
    barrier: &SpinBarrier,
    codec: &KeyCodec,
    rec: &R,
) {
    let p = ep.producers.len();
    let mut w = Worker::new(t, p, part.open(), rec.core(t), R::ENABLED);
    let t0 = w.now();

    // ---- Stage 1 (Algorithm 1) ----
    for block in rows.chunks(ENC_BLOCK * codec.num_vars()) {
        w.route_block(block, codec, &mut ep.producers);
    }
    w.close(&mut ep.producers);
    let t1 = w.lap(Stage::Encode, t0);

    // ---- The single synchronization step (a lone core has none) ----
    let t2 = if p > 1 {
        barrier.wait();
        #[cfg(feature = "ownership-audit")]
        wfbn_concurrent::audit::set_stage(2);
        w.lap(Stage::Barrier, t1)
    } else {
        t1
    };

    // ---- Stage 2 (Algorithm 2) ----
    for consumer in ep.consumers.iter_mut().flatten() {
        w.drain(consumer);
    }
    w.lap(Stage::Drain, t2);
    w.finish()
}

/// One core's private side of a build: its table, block buffers, counters
/// and telemetry handle. Every method writes only state this core owns,
/// plus the slots of its own outgoing queues. The counters are plain local
/// tallies that [`finish`](Self::finish) adds to the recorder once, so a
/// [`NoopRecorder`] build compiles them away.
struct Worker<'a, C: CoreRecorder> {
    t: usize,
    table: &'a mut CountTable,
    keys: Vec<u64>,
    /// One block's keys split by owner; the buffer at `t` holds this
    /// core's own keys.
    routed: Vec<Vec<u64>>,
    block: Vec<u64>,
    rows_encoded: u64,
    local_updates: u64,
    forwarded: u64,
    drained: u64,
    blocks_flushed: u64,
    segments_linked: u64,
    grows_before: u64,
    cr: C,
    /// Sample queue depths (one Acquire load each) only when recording.
    sample_depth: bool,
}

impl<'a, C: CoreRecorder> Worker<'a, C> {
    /// Core `t` of `p`, writing into `table`.
    fn new(t: usize, p: usize, table: &'a mut CountTable, cr: C, sample_depth: bool) -> Self {
        // Persistent tables carry counters across runs; report this run's.
        let grows_before = table.grows();
        Worker {
            t,
            table,
            keys: Vec::with_capacity(ENC_BLOCK),
            routed: (0..p).map(|_| Vec::with_capacity(ENC_BLOCK)).collect(),
            block: Vec::new(),
            rows_encoded: 0,
            local_updates: 0,
            forwarded: 0,
            drained: 0,
            blocks_flushed: 0,
            segments_linked: 0,
            grows_before,
            cr,
            sample_depth,
        }
    }

    /// The recorder's clock.
    fn now(&self) -> u64 {
        self.cr.now()
    }

    /// Charges the time since `since` to `stage` and returns the clock.
    fn lap(&mut self, stage: Stage, since: u64) -> u64 {
        let now = self.cr.now();
        self.cr.stage_ns(stage, now.saturating_sub(since));
        now
    }

    /// Algorithm 1 on one block of whole rows: encode it, apply the keys
    /// this core owns, and ship each other owner's keys to it in one
    /// `push_block`.
    fn route_block(
        &mut self,
        rows: &[u16],
        codec: &KeyCodec,
        producers: &mut [Option<Producer<u64>>],
    ) {
        codec.encode_rows(rows, &mut self.keys);
        self.rows_encoded += self.keys.len() as u64;
        let p = producers.len();
        if p == 1 {
            // A lone core owns every key: splitting the block would only
            // copy it and divide each key by one.
            let cr = &mut self.cr;
            self.table
                .increment_keys_probed(&self.keys, |probes| cr.probe_len(probes));
            self.local_updates += self.keys.len() as u64;
            return;
        }
        for &key in &self.keys {
            self.routed[key.owner(p)].push(key);
        }
        for (to, keys) in self.routed.iter_mut().enumerate() {
            if keys.is_empty() {
                continue;
            }
            if to == self.t {
                let cr = &mut self.cr;
                self.table
                    .increment_keys_probed(keys, |probes| cr.probe_len(probes));
                self.local_updates += keys.len() as u64;
            } else {
                producers[to]
                    .as_mut()
                    .expect("producer to every foreign destination")
                    .push_block(keys);
                self.forwarded += keys.len() as u64;
                self.blocks_flushed += 1;
            }
            keys.clear();
        }
    }

    /// Ends this core's production: closes the outgoing queues (nothing may
    /// follow a close). Every block was shipped as it was routed.
    fn close(&mut self, producers: &mut Vec<Option<Producer<u64>>>) {
        self.segments_linked = producers
            .iter()
            .flatten()
            .map(Producer::segments_linked)
            .sum();
        producers.clear();
    }

    /// Algorithm 2 on one queue: applies every key visible in it, one
    /// segment per `pop_block`.
    fn drain(&mut self, consumer: &mut Consumer<u64>) {
        if self.sample_depth {
            self.cr.queue_depth(consumer.visible_backlog());
        }
        // wf-bound: backlog(visible) — each round takes one committed
        // segment chunk and the loop exits on the first empty poll; the
        // chunks are bounded by the blocks the producer flushed.
        loop {
            self.block.clear();
            if consumer.pop_block(&mut self.block) == 0 {
                break;
            }
            let cr = &mut self.cr;
            self.table
                .increment_keys_probed(&self.block, |probes| cr.probe_len(probes));
            self.drained += self.block.len() as u64;
        }
    }

    /// Reports this core's counters.
    fn finish(mut self) {
        let cr = &mut self.cr;
        cr.add(Counter::RowsEncoded, self.rows_encoded);
        cr.add(Counter::LocalUpdates, self.local_updates);
        cr.add(Counter::Forwarded, self.forwarded);
        cr.add(Counter::Drained, self.drained);
        cr.add(Counter::SegmentsLinked, self.segments_linked);
        cr.add(Counter::TableGrows, self.table.grows() - self.grows_before);
        cr.add(Counter::BlocksFlushed, self.blocks_flushed);
    }
}

#[cfg(all(test, feature = "loom"))]
mod loom_tests {
    use super::*;

    /// Model-checks the stage-1 → barrier → stage-2 handoff of the block
    /// protocol: per-owner split → `push_block` → barrier → `pop_block` →
    /// `increment_keys_probed`.
    ///
    /// `two_stage` spawns scoped std threads, which the model checker cannot
    /// schedule, so this test runs the real per-core body, [`barrier_core`],
    /// over the real [`queue_matrix`] and [`SpinBarrier`] on loom-owned
    /// threads. Under loom a queue segment holds two elements, so core 1's
    /// four bare keys toward core 0 span two segments and take two
    /// `pop_block` calls. Every schedule within the preemption bound must
    /// yield the same per-partition counts.
    #[test]
    fn two_stage_handoff_produces_exact_counts_under_every_schedule() {
        loom::model(|| {
            const P: usize = 2;
            // One arity-6 variable, so a row's state is its key; ownership
            // is key % 2. Core 0 forwards two keys; core 1 forwards four
            // keys, the repeated 0 as two keys of its own.
            let inputs: [Vec<u16>; P] = [vec![1, 2, 5], vec![3, 0, 0, 2, 4]];
            let codec = Arc::new(KeyCodec::new(&wfbn_data::Schema::new(vec![6]).unwrap()));
            let barrier = Arc::new(SpinBarrier::new(P));
            let handles: Vec<_> = queue_matrix(P)
                .into_iter()
                .zip(inputs)
                .enumerate()
                .map(|(t, (ep, rows))| {
                    let barrier = Arc::clone(&barrier);
                    let codec = Arc::clone(&codec);
                    loom::thread::spawn(move || {
                        let mut part = Fresh::parts(1, 4).pop().unwrap();
                        barrier_core(t, &rows, &mut part, ep, &barrier, &codec, &NoopRecorder);
                        let table = part.into_table();
                        for (key, _) in table.iter() {
                            assert_eq!(key.owner(P), t, "drained a key we do not own");
                        }
                        table
                    })
                })
                .collect();
            let mut merged = Vec::new();
            for h in handles {
                merged.extend(h.join().unwrap().iter());
            }
            merged.sort_unstable();
            assert_eq!(
                merged,
                vec![(0, 2), (1, 1), (2, 2), (3, 1), (4, 1), (5, 1)],
                "handoff lost, duplicated, or misrouted a key"
            );
        });
        assert!(
            loom::explored_interleavings() >= 2,
            "model explored only {} schedule(s)",
            loom::explored_interleavings()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfbn_data::{CorrelatedChain, Generator, Schema, UniformIndependent, ZipfIndependent};
    use wfbn_obs::{CoreMetrics, MetricsReport};

    fn uniform_data(n: usize, r: u16, m: usize, seed: u64) -> Dataset {
        UniformIndependent::new(Schema::uniform(n, r).unwrap()).generate(m, seed)
    }

    /// A `p`-core wait-free build and its counters.
    fn recorded_build(data: &Dataset, p: usize) -> (BuiltTable, MetricsReport) {
        let rec = CoreMetrics::new(p);
        let built = waitfree_build_recorded(data, p, &rec).unwrap();
        (built, rec.snapshot())
    }

    /// The oracle build and its counters.
    fn recorded_sequential(data: &Dataset) -> (BuiltTable, MetricsReport) {
        let rec = CoreMetrics::new(1);
        let built = sequential_build_recorded(data, &rec).unwrap();
        (built, rec.snapshot())
    }

    #[test]
    fn sequential_counts_every_row() {
        let data = uniform_data(6, 2, 2000, 3);
        let (built, report) = recorded_sequential(&data);
        assert_eq!(built.table.total_count(), 2000);
        assert_eq!(report.total(Counter::RowsEncoded), 2000);
        assert_eq!(report.total(Counter::Forwarded), 0);
    }

    #[test]
    fn parallel_equals_sequential_for_many_thread_counts() {
        let data = uniform_data(8, 3, 5000, 11);
        let reference = sequential_build(&data).unwrap().table.to_sorted_vec();
        for p in [1usize, 2, 3, 4, 7, 8] {
            let built = waitfree_build(&data, p).unwrap();
            assert_eq!(built.table.to_sorted_vec(), reference, "mismatch at p={p}");
            assert_eq!(built.table.total_count(), 5000);
        }
    }

    #[test]
    fn equivalence_on_skewed_and_correlated_data() {
        let schema = Schema::new(vec![2, 3, 4, 2, 5]).unwrap();
        for data in [
            ZipfIndependent::new(schema.clone(), 1.5)
                .unwrap()
                .generate(4000, 2),
            CorrelatedChain::new(schema, 0.9).unwrap().generate(4000, 2),
        ] {
            let reference = sequential_build(&data).unwrap().table.to_sorted_vec();
            for p in [2usize, 5] {
                assert_eq!(
                    waitfree_build(&data, p).unwrap().table.to_sorted_vec(),
                    reference
                );
            }
        }
    }

    #[test]
    fn forward_fraction_matches_theory_for_uniform_keys() {
        // With uniform keys and modulo(P), a key is foreign w.p. (P−1)/P.
        let data = uniform_data(12, 2, 20_000, 7);
        for p in [2usize, 4, 8] {
            let (_, report) = recorded_build(&data, p);
            let expected = (p as f64 - 1.0) / p as f64;
            let forwarded = report.total(Counter::Forwarded);
            let got = forwarded as f64 / report.total(Counter::RowsEncoded) as f64;
            assert!(
                (got - expected).abs() < 0.02,
                "p={p}: got {got}, expected {expected}"
            );
            assert_eq!(forwarded, report.total(Counter::Drained));
        }
    }

    #[test]
    fn more_threads_than_rows() {
        let data = uniform_data(4, 2, 3, 9);
        let (built, report) = recorded_build(&data, 8);
        assert_eq!(built.table.total_count(), 3);
        assert_eq!(report.total(Counter::RowsEncoded), 3);
    }

    #[test]
    fn single_row_dataset() {
        let schema = Schema::uniform(5, 2).unwrap();
        let data = Dataset::from_rows(schema, &[&[1, 0, 1, 0, 1]]).unwrap();
        let built = waitfree_build(&data, 4).unwrap();
        assert_eq!(built.table.num_entries(), 1);
        let key = built.table.codec().encode(&[1, 0, 1, 0, 1]);
        assert_eq!(built.table.count_of(key), 1);
    }

    #[test]
    fn empty_dataset_is_an_error() {
        let schema = Schema::uniform(3, 2).unwrap();
        let data = Dataset::from_rows(schema, &[]).unwrap();
        assert_eq!(
            sequential_build(&data).unwrap_err(),
            CoreError::EmptyDataset
        );
        assert_eq!(
            waitfree_build(&data, 4).unwrap_err(),
            CoreError::EmptyDataset
        );
        assert_eq!(
            waitfree_build(&data, 0).unwrap_err(),
            CoreError::ZeroThreads
        );
    }

    #[test]
    fn every_key_lands_in_its_owning_partition() {
        let data = uniform_data(9, 2, 5000, 13);
        for p in [1usize, 3, 4] {
            let built = waitfree_build(&data, p).unwrap();
            for (p_idx, t) in built.table.partitions().iter().enumerate() {
                for (key, _) in t.iter() {
                    assert_eq!(key.owner(p), p_idx);
                }
            }
        }
    }

    #[test]
    fn duplicate_heavy_input_counts_correctly() {
        // All rows identical: one key with count m, forwarded by all
        // non-owner threads.
        let schema = Schema::uniform(6, 2).unwrap();
        let rows: Vec<&[u16]> = (0..997).map(|_| &[1u16, 0, 1, 1, 0, 1] as &[u16]).collect();
        let data = Dataset::from_rows(schema, &rows).unwrap();
        let built = waitfree_build(&data, 4).unwrap();
        assert_eq!(built.table.num_entries(), 1);
        assert_eq!(built.table.total_count(), 997);
    }

    #[test]
    fn batched_builds_match_scalar_builds_exactly() {
        // The block path against the row-at-a-time oracle, with the queue
        // conservation law (every forwarded key is drained once) and the
        // flush law (every flush ships at least one key).
        let data = uniform_data(8, 3, 5000, 11);
        let reference = sequential_build(&data).unwrap().table.to_sorted_vec();
        for p in [1usize, 2, 3, 4, 7, 8] {
            let (built, report) = recorded_build(&data, p);
            assert_eq!(built.table.to_sorted_vec(), reference, "mismatch at p={p}");
            assert_eq!(report.total(Counter::RowsEncoded), 5000);
            assert_eq!(
                report.total(Counter::Forwarded),
                report.total(Counter::Drained)
            );
            for core in &report.cores {
                assert!(
                    core.counter(Counter::BlocksFlushed) <= core.counter(Counter::Forwarded),
                    "p={p}"
                );
            }
            assert_eq!(report.total(Counter::BlocksFlushed) > 0, p > 1, "p={p}");
        }
    }

    #[test]
    fn scalar_build_reports_no_batch_counters() {
        // The oracle moves no block: it flushes nothing.
        let data = uniform_data(8, 2, 1000, 5);
        let (_, report) = recorded_sequential(&data);
        assert_eq!(report.total(Counter::BlocksFlushed), 0);
    }

    #[test]
    fn batched_edge_cases_match_scalar() {
        // Single row, more threads than rows, duplicate-heavy input.
        let schema = Schema::uniform(6, 2).unwrap();
        let rows: Vec<&[u16]> = (0..997).map(|_| &[1u16, 0, 1, 1, 0, 1] as &[u16]).collect();
        let dup = Dataset::from_rows(schema.clone(), &rows).unwrap();
        assert_eq!(
            waitfree_build(&dup, 4).unwrap().table.to_sorted_vec(),
            sequential_build(&dup).unwrap().table.to_sorted_vec()
        );
        let single = Dataset::from_rows(schema, &[&[1, 0, 1, 0, 1, 0]]).unwrap();
        let built = waitfree_build(&single, 8).unwrap();
        assert_eq!(built.table.total_count(), 1);
        let tiny = uniform_data(4, 2, 3, 9);
        assert_eq!(
            waitfree_build(&tiny, 8).unwrap().table.to_sorted_vec(),
            sequential_build(&tiny).unwrap().table.to_sorted_vec()
        );
    }

    #[test]
    fn batched_empty_and_zero_thread_errors_match_scalar() {
        // Every thread count reports an empty dataset the way the oracle
        // does.
        let schema = Schema::uniform(3, 2).unwrap();
        let data = Dataset::from_rows(schema, &[]).unwrap();
        for p in [1usize, 4] {
            assert_eq!(
                waitfree_build_recorded(&data, p, &NoopRecorder).unwrap_err(),
                CoreError::EmptyDataset,
                "p={p}"
            );
        }
        let ok = uniform_data(3, 2, 10, 1);
        assert_eq!(
            waitfree_build_recorded(&ok, 0, &NoopRecorder).unwrap_err(),
            CoreError::ZeroThreads
        );
    }

    #[test]
    fn deterministic_table_regardless_of_scheduling() {
        // Run the same parallel build many times: the resulting multiset of
        // (key, count) pairs must be identical every time.
        let data = uniform_data(8, 2, 2000, 21);
        let reference = waitfree_build(&data, 4).unwrap().table.to_sorted_vec();
        for _ in 0..10 {
            assert_eq!(
                waitfree_build(&data, 4).unwrap().table.to_sorted_vec(),
                reference
            );
        }
    }
}
