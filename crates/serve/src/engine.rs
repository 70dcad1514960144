//! [`Engine`]: the writer side of the serving layer — streaming absorption,
//! bounded admission, and epoch publication.
//!
//! One dedicated writer thread owns the [`StreamingBuilder`] and the
//! [`EpochPublisher`](wfbn_concurrent::EpochPublisher). The front-end hands
//! it row batches over a wait-free SPSC lane; after absorbing each batch the
//! writer packs the new table into a bit-sliced [`PackedTable`] and
//! publishes it as one [`Epoch`], so **epoch `e` is exactly the snapshot of
//! the table of the first `e` admitted batches** — the property the
//! equivalence suite checks (on the keys and counts unpacked from it) and
//! the protocol's `SYNC` relies on. Every reader answers its cache misses
//! from that one snapshot; none packs on its query path.
//!
//! An epoch keeps no handle on the builder's partitions, so a `SYNC` costs
//! one absorb done in place and one pack: a table of fewer than 2¹⁵
//! entries packs on the writer's own thread, a larger one on the builder's
//! thread count.
//!
//! # Admission and backpressure
//!
//! The admission gate needs no read-modify-write atomic: the front-end is
//! the only writer of the *submitted* count (a plain field) and the writer
//! thread the only writer of the *published* count (the epoch word), so
//! `submitted − published` is an always-consistent backlog bound.
//! [`Engine::submit`] blocks (yielding) while the backlog is at capacity.
//! Capacity refusals are tallied in a plain front-end field ([`Engine::refused`]) —
//! like `submitted` it has exactly one writer (the front-end thread), so
//! the admission counters stay free of atomics entirely.
//!
//! # Telemetry
//!
//! With a recording [`Recorder`], batch absorption lands on cores
//! `0..builder_threads` exactly as offline builds do. Once the absorb
//! threads have joined, the writer adds each epoch's pack under
//! [`Stage::Marginal`], `epochs_published` and the admission-queue
//! high-water mark on core 0. Reader cores start at `builder_threads` (see
//! [`EngineConfig::reader_core`]).

use crate::reader::QueryReader;
use crate::ServeError;
use std::sync::Arc;
use std::thread::JoinHandle;
use wfbn_concurrent::epoch::{epoch_channel, EpochReader};
use wfbn_concurrent::spsc::{channel, Producer};
use wfbn_core::stream::StreamingBuilder;
use wfbn_core::{CoreError, PackedTable, PotentialTable};
use wfbn_data::{Dataset, Schema};
use wfbn_obs::{CoreRecorder, Counter, NoopRecorder, Recorder, Stage};

/// One published epoch: the bit-sliced snapshot of the table of the first
/// `e` admitted batches, packed once by the writer and shared by `Arc` with
/// every reader.
///
/// The epoch holds no handle on the table itself, so once the writer has
/// packed it no partition is shared, and the next absorb writes every
/// partition in place instead of copying it.
#[derive(Debug)]
pub struct Epoch {
    packed: PackedTable,
}

impl Epoch {
    /// Packs `table` on `threads` threads into the epoch to publish: the
    /// one place the serving tier packs a table.
    pub(crate) fn pack(table: &PotentialTable, threads: usize) -> Result<Self, CoreError> {
        Ok(Epoch {
            packed: PackedTable::pack(table, threads)?,
        })
    }

    /// The epoch's packed snapshot, which every cache miss reads.
    pub fn packed(&self) -> &PackedTable {
        &self.packed
    }
}

/// Construction parameters for [`Engine::start`].
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Threads the writer uses per batch absorption (the paper's `P`).
    pub builder_threads: usize,
    /// Number of independent [`QueryReader`] endpoints to create.
    pub readers: usize,
    /// Maximum admitted-but-unpublished batches before admission blocks.
    pub queue_capacity: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            builder_threads: 1,
            readers: 1,
            queue_capacity: 64,
        }
    }
}

impl EngineConfig {
    /// Telemetry core index of reader `i` under this configuration.
    pub fn reader_core(&self, i: usize) -> usize {
        self.builder_threads + i
    }

    /// Telemetry cores a recording recorder must provide: the builder's
    /// plus one per reader.
    pub fn cores(&self) -> usize {
        self.builder_threads + self.readers
    }
}

/// Whether a batch may be admitted given the two single-writer counters.
#[inline]
pub(crate) fn admissible(submitted: u64, published: u64, capacity: u64) -> bool {
    submitted.saturating_sub(published) < capacity
}

/// The front-end handle to a running serve engine; see the
/// [module docs](self).
pub struct Engine<R: Recorder> {
    lane: Producer<Dataset>,
    /// The engine's own epoch endpoint, used for backlog/sync accounting.
    watch: EpochReader<Epoch>,
    submitted: u64,
    refused: u64,
    capacity: u64,
    writer: JoinHandle<Result<PotentialTable, CoreError>>,
    rec: Arc<R>,
}

impl Engine<NoopRecorder> {
    /// Starts an engine with telemetry disabled.
    #[allow(clippy::type_complexity)]
    pub fn start(
        schema: &Schema,
        cfg: &EngineConfig,
    ) -> Result<(Self, Vec<QueryReader<NoopRecorder>>), ServeError> {
        Engine::start_recorded(schema, cfg, Arc::new(NoopRecorder))
    }
}

impl<R: Recorder + Send + Sync + 'static> Engine<R> {
    /// Starts the writer thread and returns the front-end handle plus
    /// `cfg.readers` query endpoints.
    ///
    /// A recording `rec` must provide at least [`EngineConfig::cores`]
    /// telemetry cores.
    #[allow(clippy::type_complexity)]
    pub fn start_recorded(
        schema: &Schema,
        cfg: &EngineConfig,
        rec: Arc<R>,
    ) -> Result<(Self, Vec<QueryReader<R>>), ServeError> {
        if cfg.readers == 0 {
            return Err(ServeError::Config("at least one reader required"));
        }
        if cfg.queue_capacity == 0 {
            return Err(ServeError::Config("queue capacity must be positive"));
        }
        let builder = StreamingBuilder::new(schema, cfg.builder_threads)?;
        let (lane, mut admission) = channel::<Dataset>();
        // Lane 0 is the engine's own accounting endpoint.
        let (mut publisher, mut ends) = epoch_channel::<Epoch>(cfg.readers + 1);
        let watch = ends.remove(0);
        let readers: Vec<QueryReader<R>> = ends
            .into_iter()
            .enumerate()
            .map(|(i, end)| QueryReader::new(end, Arc::clone(&rec), cfg.reader_core(i)))
            .collect();

        let wrec = Arc::clone(&rec);
        let threads = cfg.builder_threads;
        let writer = std::thread::Builder::new()
            .name("wfbn-serve-writer".into())
            .spawn(move || {
                let mut builder = builder;
                // wf-bound: service(shutdown) — the writer's lifetime loop:
                // each round absorbs one admitted batch or yields, and it
                // exits once the admission lane is closed and drained.
                loop {
                    match admission.try_pop() {
                        Some(batch) => {
                            builder.absorb_recorded(&batch, &*wrec)?;
                            // The absorb threads have joined, so core 0 is
                            // the writer's alone until the next batch.
                            let mut c0 = wrec.core(0);
                            let t0 = c0.now();
                            // `_or_empty`: an admitted batch may hold zero
                            // rows, but its epoch must still advance so that
                            // epoch `e` stays the first `e` batches. The
                            // snapshot (O(P) Arc bumps) is dropped once
                            // packed, so the builder owns its partitions
                            // alone again before the next absorb.
                            let epoch = Epoch::pack(&builder.snapshot_or_empty(), threads)?;
                            c0.stage_ns(Stage::Marginal, c0.now().saturating_sub(t0));
                            publisher.publish(epoch);
                            c0.add(Counter::EpochsPublished, 1);
                            c0.queue_depth(admission.visible_backlog());
                        }
                        None if admission.is_closed() => break,
                        None => std::thread::yield_now(),
                    }
                }
                // `_or_empty`: an engine may finish without having admitted
                // a batch (or only empty ones); its table is then empty.
                Ok(builder.finish_or_empty().table)
            })
            .expect("spawning the serve writer thread");

        Ok((
            Engine {
                lane,
                watch,
                submitted: 0,
                refused: 0,
                capacity: cfg.queue_capacity,
                writer,
                rec,
            },
            readers,
        ))
    }

    /// Batches submitted so far (admitted, not necessarily yet absorbed).
    pub fn submitted(&self) -> u64 {
        self.submitted
    }

    /// Capacity refusals the admission gate issued: one per
    /// [`Engine::submit`] call that had to wait for backpressure to clear. Closed-engine refusals
    /// are not counted — they are shutdown, not admission control.
    pub fn refused(&self) -> u64 {
        self.refused
    }

    /// Newest epoch the writer has published (equals batches absorbed).
    pub fn published(&mut self) -> u64 {
        // Drain the accounting lane so skipped snapshots are reclaimed.
        self.watch.pin();
        self.watch.published()
    }

    /// Admitted-but-unpublished batches.
    pub fn backlog(&mut self) -> u64 {
        self.submitted.saturating_sub(self.published())
    }

    /// `true` once the writer thread has exited (normally or with an
    /// error); further submissions would never be absorbed.
    pub fn is_closed(&self) -> bool {
        self.watch.is_closed()
    }

    /// The recorder this engine reports into.
    pub fn recorder(&self) -> &Arc<R> {
        &self.rec
    }

    /// Admission without refusal accounting; `Err` hands the batch back
    /// (closed engine or backlog at capacity).
    fn admit(&mut self, batch: Dataset) -> Result<u64, Dataset> {
        if self.is_closed() || !admissible(self.submitted, self.published(), self.capacity) {
            return Err(batch);
        }
        self.submitted += 1;
        self.lane.push(batch);
        Ok(self.submitted)
    }

    /// Admits `batch`, blocking (spin + yield) while the backlog is at
    /// capacity. Fails with [`ServeError::Closed`] if the writer exited.
    pub fn submit(&mut self, mut batch: Dataset) -> Result<u64, ServeError> {
        let mut counted = false;
        // wf-bound: backpressure(capacity) — blocks only while the writer's
        // backlog sits at capacity; the writer publishes each absorbed batch,
        // so admission reopens (or `closed` surfaces) in finitely many of
        // its steps.
        loop {
            match self.admit(batch) {
                Ok(n) => return Ok(n),
                Err(returned) => {
                    if self.is_closed() {
                        return Err(ServeError::Closed);
                    }
                    // One refusal per batch that met backpressure, not one
                    // per spin iteration.
                    if !counted {
                        self.refused += 1;
                        counted = true;
                    }
                    batch = returned;
                    std::thread::yield_now();
                }
            }
        }
    }

    /// Blocks until every submitted batch is published; returns the epoch.
    ///
    /// Fails with [`ServeError::Closed`] if the writer exited before
    /// catching up (an absorption error).
    pub fn sync(&mut self) -> Result<u64, ServeError> {
        // wf-bound: backpressure(backlog) — waits for the writer to absorb
        // the finitely many already-submitted batches; each publication
        // advances `published`, and a writer exit surfaces as `closed`.
        loop {
            let published = self.published();
            if published >= self.submitted {
                return Ok(published);
            }
            if self.is_closed() {
                return Err(ServeError::Closed);
            }
            std::thread::yield_now();
        }
    }

    /// Closes admission, joins the writer, and returns the final table
    /// (the build of every admitted batch).
    pub fn finish(self) -> Result<PotentialTable, ServeError> {
        let Engine { lane, writer, .. } = self;
        drop(lane); // closes the admission queue; the writer drains and exits
        match writer.join() {
            Ok(Ok(table)) => Ok(table),
            Ok(Err(e)) => Err(ServeError::Core(e)),
            Err(_) => Err(ServeError::Closed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfbn_core::construct::sequential_build;

    fn batch(schema: &Schema, rows: &[&[u16]]) -> Dataset {
        Dataset::from_rows(schema.clone(), rows).unwrap()
    }

    #[test]
    fn admission_gate_is_a_counter_difference() {
        assert!(admissible(0, 0, 1));
        assert!(!admissible(1, 0, 1));
        assert!(admissible(1, 1, 1));
        assert!(admissible(7, 4, 4));
        assert!(!admissible(8, 4, 4));
    }

    #[test]
    fn absorbs_batches_and_finishes_with_the_offline_table() {
        let schema = Schema::uniform(3, 2).unwrap();
        let rows: Vec<&[u16]> = vec![&[0, 1, 0], &[1, 1, 1], &[0, 0, 1], &[1, 0, 0]];
        let (mut engine, _readers) = Engine::start(&schema, &EngineConfig::default()).unwrap();
        engine.submit(batch(&schema, &rows[..2])).unwrap();
        engine.submit(batch(&schema, &rows[2..])).unwrap();
        assert_eq!(engine.submitted(), 2);
        assert_eq!(engine.sync().unwrap(), 2);
        assert_eq!(engine.backlog(), 0);

        let table = engine.finish().unwrap();
        let offline = sequential_build(&batch(&schema, &rows)).unwrap().table;
        assert_eq!(table.to_sorted_vec(), offline.to_sorted_vec());
    }

    #[test]
    fn readers_observe_each_published_epoch_in_order() {
        let schema = Schema::uniform(2, 2).unwrap();
        let cfg = EngineConfig {
            readers: 2,
            ..EngineConfig::default()
        };
        let (mut engine, mut readers) = Engine::start(&schema, &cfg).unwrap();
        assert!(readers[0].pin().is_none());
        engine.submit(batch(&schema, &[&[0, 1]])).unwrap();
        engine.sync().unwrap();
        for r in &mut readers {
            let (epoch, snap) = r.pin().unwrap();
            assert_eq!(epoch, 1);
            assert_eq!(snap.packed().total_count(), 1);
        }
        engine.submit(batch(&schema, &[&[1, 1], &[1, 0]])).unwrap();
        engine.sync().unwrap();
        let (epoch, snap) = readers[1].pin().unwrap();
        assert_eq!(epoch, 2);
        assert_eq!(snap.packed().total_count(), 3);
        drop(engine);
    }

    #[test]
    fn absorption_error_closes_the_engine_and_surfaces_in_finish() {
        let schema = Schema::uniform(3, 2).unwrap();
        let other = Schema::uniform(2, 4).unwrap();
        let (mut engine, readers) = Engine::start(&schema, &EngineConfig::default()).unwrap();
        engine.submit(batch(&other, &[&[0, 3]])).unwrap();
        assert!(matches!(engine.sync(), Err(ServeError::Closed)));
        assert!(readers[0].is_closed());
        assert!(matches!(engine.finish(), Err(ServeError::Core(_))));
    }

    #[test]
    fn recorded_run_satisfies_the_serve_conservation_laws() {
        let schema = Schema::uniform(4, 2).unwrap();
        let cfg = EngineConfig {
            builder_threads: 2,
            readers: 2,
            ..EngineConfig::default()
        };
        let metrics = Arc::new(wfbn_obs::CoreMetrics::new(cfg.cores()));
        let (mut engine, mut readers) =
            Engine::start_recorded(&schema, &cfg, Arc::clone(&metrics)).unwrap();
        let rows: Vec<&[u16]> = vec![&[0, 0, 1, 1], &[1, 1, 0, 0], &[0, 1, 0, 1], &[1, 0, 1, 0]];
        engine.submit(batch(&schema, &rows[..2])).unwrap();
        engine.submit(batch(&schema, &rows[2..])).unwrap();
        engine.sync().unwrap();
        readers[0].mi(0, 1).unwrap();
        readers[0].mi(0, 1).unwrap(); // second hit is served from the cache
        readers[1].marginal(&[2, 3]).unwrap();
        engine.finish().unwrap();

        // Under --features metrics this snapshot self-validates (panics on
        // any violated law); assert the serve laws explicitly regardless.
        let report = metrics.snapshot();
        report.validate().expect("serve conservation laws");
        assert_eq!(report.total(Counter::EpochsPublished), 2);
        assert_eq!(report.total(Counter::QueriesServed), 3);
        assert_eq!(report.lat_hist_mass(), 3);
        assert_eq!(report.total(Counter::CacheHits), 1);
        assert_eq!(report.total(Counter::CacheMisses), 2);
        let published = report.total(Counter::EpochsPublished);
        for core in &report.cores {
            assert!(core.counter(Counter::EpochsPinned) <= published);
        }
        // Build telemetry lands on the builder cores, serve telemetry on
        // the reader cores — reader 0 is core builder_threads.
        assert_eq!(report.cores[cfg.reader_core(0)].counter(Counter::QueriesServed), 2);
        assert_eq!(report.cores[cfg.reader_core(1)].counter(Counter::QueriesServed), 1);
        assert!(report.cores[0].counter(Counter::RowsEncoded) > 0);
    }

    #[test]
    fn each_waiting_submit_counts_one_refusal_and_closed_engines_none() {
        let schema = Schema::uniform(2, 2).unwrap();
        let cfg = EngineConfig {
            queue_capacity: 1,
            ..EngineConfig::default()
        };
        let (mut engine, _readers) = Engine::start(&schema, &cfg).unwrap();
        // A submit that had to wait counts one refusal, however long it
        // spun — regardless of how the race with the writer's publications
        // lands.
        let attempts = 50u64;
        for _ in 0..attempts {
            let refused_before = engine.refused();
            engine.submit(batch(&schema, &[&[0, 1]])).unwrap();
            assert!(engine.refused() - refused_before <= 1);
        }
        assert_eq!(engine.submitted(), attempts);
        assert!(engine.refused() <= attempts);

        // Closed-engine refusals are shutdown, not admission control.
        let other = Schema::uniform(3, 3).unwrap();
        engine.submit(batch(&other, &[&[0, 0, 0]])).unwrap();
        assert!(matches!(engine.sync(), Err(ServeError::Closed)));
        let refused_before = engine.refused();
        assert!(matches!(
            engine.submit(batch(&schema, &[&[0, 0]])),
            Err(ServeError::Closed)
        ));
        assert_eq!(engine.refused(), refused_before);
    }

    #[test]
    fn zero_readers_and_zero_capacity_are_rejected() {
        let schema = Schema::uniform(2, 2).unwrap();
        let no_readers = EngineConfig {
            readers: 0,
            ..EngineConfig::default()
        };
        assert!(matches!(
            Engine::start(&schema, &no_readers),
            Err(ServeError::Config(_))
        ));
        let no_queue = EngineConfig {
            queue_capacity: 0,
            ..EngineConfig::default()
        };
        assert!(matches!(
            Engine::start(&schema, &no_queue),
            Err(ServeError::Config(_))
        ));
    }
}
