//! Incremental (streaming) table construction.
//!
//! Training data often arrives in batches — log shipments, sensor windows,
//! mini-epochs. Because the potential table is a pure count structure, the
//! wait-free primitive composes over batches: each `absorb` runs the
//! two-stage algorithm on the new rows against the *persistent* per-core
//! tables, and the result after any sequence of batches equals a one-shot
//! build over their concatenation (verified by tests). The key-ownership
//! invariant (core `p` is the unique writer of partition `p`) holds across
//! the whole stream, so no locking is ever needed between batches either.

use crate::codec::KeyCodec;
use crate::construct::{two_stage, BuiltTable};
use crate::count_table::CountTable;
use crate::error::CoreError;
use crate::potential::PotentialTable;
use std::sync::Arc;
use wfbn_data::{Dataset, Schema};
use wfbn_obs::{NoopRecorder, Recorder};

/// Builds a potential table from a stream of dataset batches.
///
/// # Examples
///
/// ```
/// use wfbn_core::construct::waitfree_build;
/// use wfbn_core::stream::StreamingBuilder;
/// use wfbn_data::{Generator, Schema, UniformIndependent};
///
/// let schema = Schema::uniform(8, 2).unwrap();
/// let gen = UniformIndependent::new(schema.clone());
/// let (a, b) = (gen.generate(3_000, 1), gen.generate(2_000, 2));
///
/// let mut builder = StreamingBuilder::new(&schema, 4).unwrap();
/// builder.absorb(&a).unwrap();
/// builder.absorb(&b).unwrap();
/// let streamed = builder.finish().unwrap();
/// assert_eq!(streamed.table.total_count(), 5_000);
/// ```
#[derive(Debug)]
pub struct StreamingBuilder {
    schema: Schema,
    codec: KeyCodec,
    /// Persistent per-core partitions, `Arc`-shared with every live
    /// snapshot. While no snapshot holds a reference, `Arc::make_mut`
    /// mutates in place (zero copies); while one does, the next absorb
    /// diverges each partition inside its owning worker (copy-on-publish),
    /// leaving the snapshot immutable forever. A caller that only needs a
    /// snapshot briefly (the serve writer packs it and drops it) keeps the
    /// next absorb in place.
    tables: Vec<Arc<CountTable>>,
    rows_absorbed: u64,
}

impl StreamingBuilder {
    /// Creates a builder over `threads` persistent partitions, core
    /// `key % threads` owning each key.
    pub fn new(schema: &Schema, threads: usize) -> Result<Self, CoreError> {
        if threads == 0 {
            return Err(CoreError::ZeroThreads);
        }
        Ok(Self {
            schema: schema.clone(),
            codec: KeyCodec::new(schema),
            tables: (0..threads).map(|_| Arc::new(CountTable::new())).collect(),
            rows_absorbed: 0,
        })
    }

    /// Number of worker threads / partitions.
    pub fn threads(&self) -> usize {
        self.tables.len()
    }

    /// Rows absorbed so far across all batches.
    pub fn rows_absorbed(&self) -> u64 {
        self.rows_absorbed
    }

    /// Absorbs one batch with the two-stage wait-free algorithm.
    ///
    /// Empty batches are a no-op. The batch schema must equal the
    /// builder's.
    pub fn absorb(&mut self, batch: &Dataset) -> Result<(), CoreError> {
        self.absorb_recorded(batch, &NoopRecorder)
    }

    /// [`absorb`](Self::absorb) with telemetry flowing into `rec`; repeated
    /// calls accumulate into the same recorder, so a whole stream's per-stage
    /// breakdown lands in one report.
    ///
    /// Each worker thread takes its persistent table for the duration of
    /// the batch (the same exclusive-ownership invariant as the one-shot
    /// build) and hands it back afterwards. A partition still shared with a
    /// published snapshot diverges inside its worker via `Arc::make_mut` —
    /// copy-on-publish, paid by the owning core in parallel, never by a
    /// reader.
    pub fn absorb_recorded<R: Recorder>(
        &mut self,
        batch: &Dataset,
        rec: &R,
    ) -> Result<(), CoreError> {
        if batch.schema() != &self.schema {
            return Err(CoreError::BadVariableSet {
                reason: "batch schema differs from the builder's schema",
            });
        }
        let m = batch.num_samples();
        if m == 0 {
            return Ok(());
        }
        self.tables = two_stage(
            batch.flat(),
            std::mem::take(&mut self.tables),
            &self.codec,
            rec,
        );
        self.rows_absorbed += m as u64;
        Ok(())
    }

    /// A snapshot of the current table — O(P) `Arc` clones, no partition is
    /// copied (copy-on-publish: the *next* absorb copies any partition the
    /// snapshot still shares, and writes in place once it is dropped). The
    /// builder keeps absorbing.
    pub fn snapshot(&self) -> Result<PotentialTable, CoreError> {
        if self.rows_absorbed == 0 {
            return Err(CoreError::EmptyDataset);
        }
        Ok(self.snapshot_or_empty())
    }

    /// [`snapshot`](Self::snapshot) without the non-empty guard: a stream
    /// that has absorbed nothing yields the schema's *empty* table (zero
    /// keys, zero total) instead of [`CoreError::EmptyDataset`].
    ///
    /// The serving layer publishes one epoch per admitted batch through
    /// this: an admitted batch may hold zero rows, yet its epoch must still
    /// advance so that epoch `e` stays the table of the first `e` batches.
    /// Offline builds keep the strict [`finish`](Self::finish) contract — an
    /// empty *stream* is still an error there.
    pub fn snapshot_or_empty(&self) -> PotentialTable {
        PotentialTable::from_shared_parts(self.codec.clone(), self.tables.clone())
    }

    /// Finalizes the stream into its table.
    pub fn finish(self) -> Result<BuiltTable, CoreError> {
        if self.rows_absorbed == 0 {
            return Err(CoreError::EmptyDataset);
        }
        Ok(self.finish_or_empty())
    }

    /// [`finish`](Self::finish) without the non-empty guard — the terminal
    /// counterpart of [`snapshot_or_empty`](Self::snapshot_or_empty). A
    /// serve engine that finishes without having absorbed a row finalizes
    /// into the empty table; offline builds keep using the strict `finish`.
    pub fn finish_or_empty(self) -> BuiltTable {
        BuiltTable {
            table: PotentialTable::from_shared_parts(self.codec, self.tables),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construct::sequential_build;
    use wfbn_data::{Generator, UniformIndependent, ZipfIndependent};
    use wfbn_obs::{CoreMetrics, Counter};

    fn concat(parts: &[&Dataset]) -> Dataset {
        let schema = parts[0].schema().clone();
        let mut flat = Vec::new();
        for p in parts {
            flat.extend_from_slice(p.flat());
        }
        Dataset::from_flat_unchecked(schema, flat)
    }

    #[test]
    fn stream_equals_one_shot_build() {
        let schema = Schema::uniform(10, 2).unwrap();
        let gen = UniformIndependent::new(schema.clone());
        let batches: Vec<Dataset> = (0..5).map(|i| gen.generate(777 + i, i as u64)).collect();
        let refs: Vec<&Dataset> = batches.iter().collect();
        let reference = sequential_build(&concat(&refs))
            .unwrap()
            .table
            .to_sorted_vec();
        for threads in [1usize, 3, 4] {
            let rec = CoreMetrics::new(threads);
            let mut b = StreamingBuilder::new(&schema, threads).unwrap();
            for batch in &batches {
                b.absorb_recorded(batch, &rec).unwrap();
            }
            let built = b.finish().unwrap();
            assert_eq!(built.table.to_sorted_vec(), reference, "threads={threads}");
            assert_eq!(
                rec.snapshot().total(Counter::RowsEncoded),
                reference.iter().map(|&(_, c)| c).sum()
            );
        }
    }

    #[test]
    fn snapshots_reflect_each_prefix() {
        let schema = Schema::uniform(6, 2).unwrap();
        let gen = UniformIndependent::new(schema.clone());
        let a = gen.generate(400, 1);
        let b = gen.generate(600, 2);
        let mut builder = StreamingBuilder::new(&schema, 2).unwrap();
        builder.absorb(&a).unwrap();
        let snap1 = builder.snapshot().unwrap();
        assert_eq!(snap1.total_count(), 400);
        assert_eq!(
            snap1.to_sorted_vec(),
            sequential_build(&a).unwrap().table.to_sorted_vec()
        );
        builder.absorb(&b).unwrap();
        let snap2 = builder.snapshot().unwrap();
        assert_eq!(snap2.total_count(), 1000);
        assert_eq!(builder.rows_absorbed(), 1000);
    }

    #[test]
    fn empty_batches_are_noops_and_empty_streams_error() {
        let schema = Schema::uniform(4, 2).unwrap();
        let empty = Dataset::from_rows(schema.clone(), &[]).unwrap();
        let mut b = StreamingBuilder::new(&schema, 2).unwrap();
        b.absorb(&empty).unwrap();
        assert!(matches!(b.snapshot(), Err(CoreError::EmptyDataset)));
        // The serving tier's non-strict variants yield the empty table
        // instead — an engine that absorbed no row is not an error.
        let snap = b.snapshot_or_empty();
        assert_eq!(snap.total_count(), 0);
        assert!(snap.to_sorted_vec().is_empty());
        let built = b.finish_or_empty();
        assert_eq!(built.table.total_count(), 0);
        let mut strict = StreamingBuilder::new(&schema, 2).unwrap();
        strict.absorb(&empty).unwrap();
        assert!(matches!(strict.finish(), Err(CoreError::EmptyDataset)));
    }

    #[test]
    fn schema_mismatch_is_rejected() {
        let schema = Schema::uniform(4, 2).unwrap();
        let other = Schema::uniform(4, 3).unwrap();
        let batch = UniformIndependent::new(other).generate(10, 1);
        let mut b = StreamingBuilder::new(&schema, 2).unwrap();
        assert!(matches!(
            b.absorb(&batch),
            Err(CoreError::BadVariableSet { .. })
        ));
        assert!(StreamingBuilder::new(&schema, 0).is_err());
    }

    #[test]
    fn batched_absorbs_match_scalar_absorbs_exactly() {
        let schema = Schema::uniform(10, 2).unwrap();
        let gen = UniformIndependent::new(schema.clone());
        let batches: Vec<Dataset> = (0..5).map(|i| gen.generate(777 + i, i as u64)).collect();
        let refs: Vec<&Dataset> = batches.iter().collect();
        let reference = sequential_build(&concat(&refs))
            .unwrap()
            .table
            .to_sorted_vec();
        for threads in [1usize, 2, 4, 8] {
            let rec = CoreMetrics::new(threads);
            let mut b = StreamingBuilder::new(&schema, threads).unwrap();
            for batch in &batches {
                b.absorb_recorded(batch, &rec).unwrap();
            }
            let built = b.finish().unwrap();
            assert_eq!(built.table.to_sorted_vec(), reference, "threads={threads}");
            let report = rec.snapshot();
            let forwarded = report.total(Counter::Forwarded);
            assert_eq!(forwarded, report.total(Counter::Drained));
            assert!(report.total(Counter::BlocksFlushed) <= forwarded);
        }
    }

    #[test]
    fn mixed_scalar_and_batched_absorbs_compose() {
        // Absorbs interleaved with published snapshots: each absorb diverges
        // the shared partitions inside its workers, and no snapshot moves.
        let schema = Schema::uniform(8, 2).unwrap();
        let gen = UniformIndependent::new(schema.clone());
        let (a, b, c) = (
            gen.generate(1_500, 1),
            gen.generate(2_500, 2),
            gen.generate(500, 3),
        );
        let reference = sequential_build(&concat(&[&a, &b, &c]))
            .unwrap()
            .table
            .to_sorted_vec();
        let rec = CoreMetrics::new(4);
        let mut builder = StreamingBuilder::new(&schema, 4).unwrap();
        builder.absorb_recorded(&a, &rec).unwrap();
        let first = builder.snapshot().unwrap();
        builder.absorb_recorded(&b, &rec).unwrap();
        let second = builder.snapshot().unwrap();
        builder.absorb_recorded(&c, &rec).unwrap();
        let built = builder.finish().unwrap();
        assert_eq!(built.table.to_sorted_vec(), reference);
        assert_eq!(
            first.to_sorted_vec(),
            sequential_build(&a).unwrap().table.to_sorted_vec()
        );
        assert_eq!(
            second.to_sorted_vec(),
            sequential_build(&concat(&[&a, &b]))
                .unwrap()
                .table
                .to_sorted_vec()
        );
        assert_eq!(rec.snapshot().total(Counter::RowsEncoded), 4_500);
    }

    #[test]
    fn batched_empty_batches_and_schema_mismatch_behave_like_scalar() {
        let schema = Schema::uniform(4, 2).unwrap();
        let other = Schema::uniform(4, 3).unwrap();
        let empty = Dataset::from_rows(schema.clone(), &[]).unwrap();
        let bad = UniformIndependent::new(other).generate(10, 1);
        let mut b = StreamingBuilder::new(&schema, 1).unwrap();
        b.absorb(&empty).unwrap();
        assert!(matches!(b.snapshot(), Err(CoreError::EmptyDataset)));
        assert!(matches!(
            b.absorb(&bad),
            Err(CoreError::BadVariableSet { .. })
        ));
    }

    #[test]
    fn skewed_batches_accumulate_correctly() {
        let schema = Schema::uniform(8, 2).unwrap();
        let zipf = ZipfIndependent::new(schema.clone(), 2.0).unwrap();
        let uni = UniformIndependent::new(schema.clone());
        let batches = [zipf.generate(2_000, 1), uni.generate(2_000, 2)];
        let refs: Vec<&Dataset> = batches.iter().collect();
        let reference = sequential_build(&concat(&refs))
            .unwrap()
            .table
            .to_sorted_vec();
        let mut b = StreamingBuilder::new(&schema, 4).unwrap();
        for batch in &batches {
            b.absorb(batch).unwrap();
        }
        assert_eq!(b.finish().unwrap().table.to_sorted_vec(), reference);
    }
}
