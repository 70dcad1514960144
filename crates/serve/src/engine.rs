//! [`Engine`]: the writer side of the serving layer — streaming absorption
//! and epoch publication.
//!
//! The engine owns the [`StreamingBuilder`] and the
//! [`EpochPublisher`], and the thread that
//! calls [`Engine::submit`] is the writer: it runs core 0 of the batch's
//! absorb itself (the builder spawns the other `P − 1`), packs the new table
//! into a bit-sliced [`PackedTable`] and publishes it as one [`Epoch`]
//! before `submit` returns. So **epoch `e` is exactly the snapshot of the
//! table of the first `e` admitted batches** — the property the
//! equivalence suite checks (on the keys and counts unpacked from it) — and
//! the protocol's `SYNC` has nothing to wait for. Every reader answers its
//! cache misses from that one snapshot; none packs on its query path.
//!
//! An epoch keeps no handle on the builder's partitions, so a batch costs
//! one absorb done in place and one pack: a table of fewer than 2¹⁵
//! entries packs on the calling thread, a larger one on the builder's
//! thread count.
//!
//! A batch the builder rejects (a schema other than the engine's) publishes
//! nothing and counts one [`Engine::refused`]; the engine keeps serving.
//!
//! # Telemetry
//!
//! With a recording [`Recorder`], batch absorption lands on cores
//! `0..builder_threads` exactly as offline builds do. Once the absorb
//! threads have joined, the writer adds each epoch's pack under
//! [`Stage::Marginal`] and `epochs_published` on core 0. Reader cores start
//! at `builder_threads` (see [`EngineConfig::reader_core`]).

use crate::reader::QueryReader;
use crate::ServeError;
use std::sync::Arc;
use wfbn_concurrent::epoch::{epoch_channel, EpochPublisher};
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
    /// Threads per batch absorption (the paper's `P`), the calling thread
    /// included.
    pub builder_threads: usize,
    /// Number of independent [`QueryReader`] endpoints to create.
    pub readers: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            builder_threads: 1,
            readers: 1,
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

/// The writer's handle to a serve engine; see the [module docs](self).
pub struct Engine<R: Recorder> {
    builder: StreamingBuilder,
    publisher: EpochPublisher<Epoch>,
    refused: u64,
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

impl<R: Recorder> Engine<R> {
    /// Returns the writer's handle plus `cfg.readers` query endpoints.
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
        let builder = StreamingBuilder::new(schema, cfg.builder_threads)?;
        let (publisher, ends) = epoch_channel::<Epoch>(cfg.readers);
        let readers: Vec<QueryReader<R>> = ends
            .into_iter()
            .enumerate()
            .map(|(i, end)| QueryReader::new(end, Arc::clone(&rec), cfg.reader_core(i)))
            .collect();
        let engine = Engine {
            builder,
            publisher,
            refused: 0,
            rec,
        };
        Ok((engine, readers))
    }

    /// Batches the builder rejected: one per [`Engine::submit`] that
    /// returned an error.
    pub fn refused(&self) -> u64 {
        self.refused
    }

    /// Newest epoch published: the number of batches absorbed.
    pub fn published(&self) -> u64 {
        self.publisher.published()
    }

    /// Absorbs `batch` on the calling thread and `builder_threads − 1`
    /// spawned ones, packs the new table and publishes it; returns the new
    /// epoch, which every reader can pin at once.
    ///
    /// A batch the builder rejects fails with [`ServeError::Core`], counts
    /// one refusal and publishes nothing.
    pub fn submit(&mut self, batch: Dataset) -> Result<u64, ServeError> {
        if let Err(e) = self.builder.absorb_recorded(&batch, &*self.rec) {
            self.refused += 1;
            return Err(ServeError::Core(e));
        }
        // The absorb's spawned threads have joined, so core 0's telemetry
        // is this thread's alone until the next batch.
        let mut c0 = self.rec.core(0);
        let t0 = c0.now();
        // `_or_empty`: a batch may hold zero rows, but its epoch must still
        // advance so that epoch `e` stays the first `e` batches. The
        // snapshot (O(P) Arc bumps) is dropped once packed, so the builder
        // owns its partitions alone again before the next absorb. Packing
        // fails only on zero threads, which `start` already refused.
        let threads = self.builder.threads();
        let epoch = Epoch::pack(&self.builder.snapshot_or_empty(), threads)?;
        c0.stage_ns(Stage::Marginal, c0.now().saturating_sub(t0));
        let e = self.publisher.publish(epoch);
        c0.add(Counter::EpochsPublished, 1);
        Ok(e)
    }

    /// Closes every reader's lane and returns the final table (the build of
    /// every admitted batch).
    pub fn finish(self) -> PotentialTable {
        // `_or_empty`: an engine may finish without having admitted a batch
        // (or only empty ones); its table is then empty.
        self.builder.finish_or_empty().table
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
    fn absorbs_batches_and_finishes_with_the_offline_table() {
        let schema = Schema::uniform(3, 2).unwrap();
        let rows: Vec<&[u16]> = vec![&[0, 1, 0], &[1, 1, 1], &[0, 0, 1], &[1, 0, 0]];
        let (mut engine, _readers) = Engine::start(&schema, &EngineConfig::default()).unwrap();
        assert_eq!(engine.submit(batch(&schema, &rows[..2])).unwrap(), 1);
        assert_eq!(engine.submit(batch(&schema, &rows[2..])).unwrap(), 2);
        assert_eq!(engine.published(), 2);

        let table = engine.finish();
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
        for r in &mut readers {
            let (epoch, snap) = r.pin().unwrap();
            assert_eq!(epoch, 1);
            assert_eq!(snap.packed().total_count(), 1);
        }
        engine.submit(batch(&schema, &[&[1, 1], &[1, 0]])).unwrap();
        let (epoch, snap) = readers[1].pin().unwrap();
        assert_eq!(epoch, 2);
        assert_eq!(snap.packed().total_count(), 3);
        drop(engine);
    }

    #[test]
    fn a_reader_pins_each_epoch_as_its_submit_returns() {
        let schema = Schema::uniform(3, 2).unwrap();
        let cfg = EngineConfig {
            builder_threads: 2,
            ..EngineConfig::default()
        };
        let (mut engine, mut readers) = Engine::start(&schema, &cfg).unwrap();
        for e in 1..=4u64 {
            let rows: &[&[u16]] = &[&[0, 1, 1], &[1, 0, 1]];
            assert_eq!(engine.submit(batch(&schema, rows)).unwrap(), e);
            let (epoch, snap) = readers[0].pin().unwrap();
            assert_eq!(epoch, e);
            assert_eq!(snap.packed().total_count(), 2 * e);
        }
    }

    #[test]
    fn a_rejected_batch_is_refused_publishes_nothing_and_the_engine_keeps_serving() {
        let schema = Schema::uniform(3, 2).unwrap();
        let other = Schema::uniform(2, 4).unwrap();
        let (mut engine, mut readers) = Engine::start(&schema, &EngineConfig::default()).unwrap();
        engine.submit(batch(&schema, &[&[0, 1, 0]])).unwrap();
        assert!(matches!(
            engine.submit(batch(&other, &[&[0, 3]])),
            Err(ServeError::Core(_))
        ));
        assert_eq!(engine.refused(), 1);
        assert_eq!(engine.published(), 1);
        assert_eq!(readers[0].pin().unwrap().0, 1);

        assert_eq!(engine.submit(batch(&schema, &[&[1, 1, 1]])).unwrap(), 2);
        let (epoch, snap) = readers[0].pin().unwrap();
        assert_eq!(epoch, 2);
        assert_eq!(snap.packed().total_count(), 2);
        assert!(!readers[0].is_closed());
        assert_eq!(engine.finish().total_count(), 2);
        assert!(readers[0].is_closed());
    }

    #[test]
    fn recorded_run_satisfies_the_serve_conservation_laws() {
        let schema = Schema::uniform(4, 2).unwrap();
        let cfg = EngineConfig {
            builder_threads: 2,
            readers: 2,
        };
        let metrics = Arc::new(wfbn_obs::CoreMetrics::new(cfg.cores()));
        let (mut engine, mut readers) =
            Engine::start_recorded(&schema, &cfg, Arc::clone(&metrics)).unwrap();
        let rows: Vec<&[u16]> = vec![&[0, 0, 1, 1], &[1, 1, 0, 0], &[0, 1, 0, 1], &[1, 0, 1, 0]];
        engine.submit(batch(&schema, &rows[..2])).unwrap();
        engine.submit(batch(&schema, &rows[2..])).unwrap();
        readers[0].mi(0, 1).unwrap();
        readers[0].mi(0, 1).unwrap(); // second hit is served from the cache
        readers[1].marginal(&[2, 3]).unwrap();
        engine.finish();

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
    fn zero_readers_are_rejected() {
        let schema = Schema::uniform(2, 2).unwrap();
        let no_readers = EngineConfig {
            readers: 0,
            ..EngineConfig::default()
        };
        assert!(matches!(
            Engine::start(&schema, &no_readers),
            Err(ServeError::Config(_))
        ));
    }
}
