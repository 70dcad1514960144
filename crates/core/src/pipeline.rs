//! Pipelined (barrier-free) table construction — the paper's future-work
//! direction, shipped as an extension.
//!
//! The two-stage primitive is bulk-synchronous: no thread may start applying
//! foreign keys until *every* thread finished classifying, so a single slow
//! thread idles all others at the barrier. Because the queues in this
//! workspace are true SPSC channels (not batch buffers), consumption can
//! legally *overlap* production: a key is safe to apply the moment it
//! arrives, since its owning thread is the unique writer of its partition
//! either way.
//!
//! The pipelined builder interleaves, on every thread, (a) encoding a block
//! of its own rows with (b) opportunistically draining whatever foreign keys
//! have already arrived. There is no barrier at all; a thread finishes when
//! its rows are exhausted *and* every incoming queue is closed and empty.
//! Progress is still wait-free — `try_pop` and `push` never block — and the
//! result is bit-identical to the two-stage build.
//!
//! The ablation benchmark (`ablation_pipeline`) quantifies when overlap
//! wins: under skewed partitions (imbalanced stage-2 work) the pipelined
//! variant hides drain latency behind encoding; under uniform load the
//! two variants are within noise of each other, matching the paper's
//! analysis that one barrier costs `O(P)` — negligible against `O(mn/P)`.

use crate::codec::KeyCodec;
use crate::construct::{
    assemble, capacity_hint, on_cores, BuiltTable, Fresh, Partition, Worker, ENC_BLOCK,
};
use crate::error::CoreError;
use wfbn_concurrent::{row_chunks, Consumer};
use wfbn_data::Dataset;
use wfbn_obs::{NoopRecorder, Recorder, Stage};

/// Builds the potential table with `p` threads, overlapping the two stages.
///
/// Produces exactly the same table as
/// [`waitfree_build`](crate::construct::waitfree_build); only the schedule
/// differs.
///
/// # Examples
///
/// ```
/// use wfbn_core::{construct::waitfree_build, pipeline::pipelined_build};
/// use wfbn_data::{Generator, Schema, UniformIndependent};
///
/// let data = UniformIndependent::new(Schema::uniform(8, 2).unwrap()).generate(3_000, 4);
/// let a = waitfree_build(&data, 4).unwrap();
/// let b = pipelined_build(&data, 4).unwrap();
/// assert_eq!(a.table.to_sorted_vec(), b.table.to_sorted_vec());
/// ```
pub fn pipelined_build(data: &Dataset, p: usize) -> Result<BuiltTable, CoreError> {
    pipelined_build_recorded(data, p, &NoopRecorder)
}

/// [`pipelined_build`] with telemetry flowing into `rec`.
///
/// Each core runs the same block-granular [`Worker`] as the two-stage
/// build, but sweeps its incoming queues after every encoded block instead
/// of waiting at a barrier. Stage attribution for the barrier-free
/// schedule: the produce loop — block encoding interleaved with
/// opportunistic drains — is charged to [`Stage::Encode`], and the
/// termination drain (after this core's rows are exhausted) to
/// [`Stage::Drain`]; [`Stage::Barrier`] stays zero because no barrier
/// exists. The router is flushed *before* the outgoing producers are
/// dropped — mandatory under the close-then-drain termination protocol, or
/// peers would observe `closed` while combined keys still sat in this
/// worker's private buffers.
pub fn pipelined_build_recorded<R: Recorder>(
    data: &Dataset,
    p: usize,
    rec: &R,
) -> Result<BuiltTable, CoreError> {
    if p == 0 {
        return Err(CoreError::ZeroThreads);
    }
    let m = data.num_samples();
    if m == 0 {
        return Err(CoreError::EmptyDataset);
    }
    let codec = KeyCodec::new(data.schema());
    let n = codec.num_vars();
    let chunks = row_chunks(m, p);
    let encode = |rows: &[u16], keys: &mut Vec<u64>| codec.encode_rows(rows, keys);
    let parts = Fresh::parts(p, capacity_hint(m, codec.state_space(), p));
    let cores = on_cores(parts, |t, part, mut ep| {
        // The pipelined variant has one logical stage: core `t` is the sole
        // writer of partition `t` and of its outgoing queue slots for the
        // whole run, so every write is audited under stage 1.
        let mut w = Worker::new(t, p, part.open(), rec.core(t), R::ENABLED);
        let t0 = w.now();

        // Interleave block production with opportunistic draining.
        for block in data
            .row_range(chunks[t].start, chunks[t].end)
            .chunks(ENC_BLOCK * n)
        {
            w.route_block(block, &encode, &mut ep.producers);
            for consumer in ep.consumers.iter_mut().flatten() {
                w.drain(consumer);
            }
        }

        // Done producing: ship the router's residue and close the outgoing
        // queues so peers can terminate, then drain the remainder.
        w.close(&mut ep.producers);
        let t1 = w.lap(Stage::Encode, t0);
        let mut open: Vec<Consumer<(u64, u64)>> = ep.consumers.drain(..).flatten().collect();
        // wf-bound: peers-close(P) — every peer flushes its combiner and
        // closes when its finite encode ends, so each of the P-1 consumers
        // is retained only finitely often.
        while !open.is_empty() {
            open.retain_mut(|consumer| {
                // Order matters: observe `closed` *before* the final drain,
                // so a flush-then-close cannot slip a block past us.
                let closed = consumer.is_closed();
                w.drain(consumer);
                !closed
            });
            if !open.is_empty() {
                std::hint::spin_loop();
            }
        }
        w.lap(Stage::Drain, t1);
        w.finish()
    });
    Ok(assemble(codec, cores))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construct::{sequential_build, waitfree_build};
    use wfbn_data::{Generator, Schema, UniformIndependent, ZipfIndependent};

    #[test]
    fn matches_two_stage_build_exactly() {
        let data = UniformIndependent::new(Schema::uniform(9, 2).unwrap()).generate(7000, 19);
        let reference = waitfree_build(&data, 4).unwrap().table.to_sorted_vec();
        for p in [2usize, 3, 4, 6] {
            let built = pipelined_build(&data, p).unwrap();
            assert_eq!(built.table.to_sorted_vec(), reference, "p={p}");
            assert_eq!(built.stats.total_rows(), 7000);
            assert_eq!(built.stats.total_forwarded(), built.stats.total_drained());
        }
    }

    #[test]
    fn skewed_input_still_exact() {
        let schema = Schema::new(vec![4, 4, 4, 4]).unwrap();
        let data = ZipfIndependent::new(schema, 2.0).unwrap().generate(5000, 3);
        let reference = sequential_build(&data).unwrap().table.to_sorted_vec();
        let built = pipelined_build(&data, 4).unwrap();
        assert_eq!(built.table.to_sorted_vec(), reference);
    }

    #[test]
    fn tiny_inputs_terminate() {
        let schema = Schema::uniform(3, 2).unwrap();
        let data = Dataset::from_rows(schema, &[&[0, 1, 0]]).unwrap();
        let built = pipelined_build(&data, 8).unwrap();
        assert_eq!(built.table.total_count(), 1);
    }

    #[test]
    fn errors_mirror_two_stage() {
        let schema = Schema::uniform(3, 2).unwrap();
        let empty = Dataset::from_rows(schema, &[]).unwrap();
        assert_eq!(
            pipelined_build(&empty, 2).unwrap_err(),
            CoreError::EmptyDataset
        );
        assert_eq!(
            pipelined_build(&empty, 0).unwrap_err(),
            CoreError::ZeroThreads
        );
    }

    #[test]
    fn batched_pipeline_matches_two_stage_build_exactly() {
        let data = UniformIndependent::new(Schema::uniform(9, 2).unwrap()).generate(7000, 19);
        let reference = waitfree_build(&data, 4).unwrap().table.to_sorted_vec();
        for p in [1usize, 2, 3, 4, 6, 8] {
            let built = pipelined_build(&data, p).unwrap();
            assert_eq!(built.table.to_sorted_vec(), reference, "p={p}");
            assert_eq!(built.stats.total_rows(), 7000);
            assert_eq!(built.stats.total_forwarded(), built.stats.total_drained());
            assert!(built.stats.total_keys_coalesced() <= built.stats.total_forwarded());
        }
    }

    #[test]
    fn batched_pipeline_skewed_input_coalesces_and_stays_exact() {
        let schema = Schema::new(vec![4, 4, 4, 4]).unwrap();
        let data = ZipfIndependent::new(schema, 2.0).unwrap().generate(5000, 3);
        let reference = sequential_build(&data).unwrap().table.to_sorted_vec();
        let built = pipelined_build(&data, 4).unwrap();
        assert_eq!(built.table.to_sorted_vec(), reference);
        // Zipf(2.0) over 256 states produces long duplicate runs: the router
        // must have merged some and flushed at least one block per stats law.
        let fwd = built.stats.total_forwarded();
        let coal = built.stats.total_keys_coalesced();
        let blocks = built.stats.total_blocks_flushed();
        assert!(coal > 0, "expected coalescing on skewed data");
        assert!(coal <= fwd);
        assert!(blocks > 0 && blocks <= fwd - coal);
    }

    #[test]
    fn batched_pipeline_tiny_inputs_terminate() {
        // Seven of eight cores produce nothing and must still terminate;
        // the one key, 7, belongs to the last core (7 % 8).
        let schema = Schema::uniform(3, 2).unwrap();
        let data = Dataset::from_rows(schema, &[&[1, 1, 1]]).unwrap();
        let built = pipelined_build(&data, 8).unwrap();
        assert_eq!(built.table.total_count(), 1);
        assert_eq!(built.table.partitions()[7].len(), 1);
    }

    #[test]
    fn batched_pipeline_errors_mirror_two_stage() {
        let schema = Schema::uniform(3, 2).unwrap();
        let empty = Dataset::from_rows(schema, &[]).unwrap();
        for p in [0usize, 1, 3] {
            assert_eq!(
                pipelined_build(&empty, p).unwrap_err(),
                waitfree_build(&empty, p).unwrap_err()
            );
        }
    }

    #[test]
    fn repeated_runs_are_deterministic() {
        let data = UniformIndependent::new(Schema::uniform(7, 2).unwrap()).generate(2000, 8);
        let reference = pipelined_build(&data, 3).unwrap().table.to_sorted_vec();
        for _ in 0..10 {
            assert_eq!(
                pipelined_build(&data, 3).unwrap().table.to_sorted_vec(),
                reference
            );
        }
    }
}
