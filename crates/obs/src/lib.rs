//! Wait-free per-core observability for the `wfbn` pipeline.
//!
//! The paper's performance claims (Figures 3–5) are claims about *where time
//! goes*: stage-1 encode/route vs. the inter-stage barrier vs. stage-2 drain
//! vs. marginalization. This crate gives the repro the instruments to answer
//! that question without perturbing the property being measured:
//!
//! * [`Recorder`] / [`CoreRecorder`] — the trait pair the hot paths in
//!   `wfbn-core` are generic over. One recorder per run; one exclusive
//!   per-core handle per worker thread.
//! * [`NoopRecorder`] — the zero-cost default. Every method is an empty
//!   `#[inline(always)]` body and `now()` never touches the clock, so the
//!   monomorphized no-op build is the uninstrumented loop.
//! * [`CoreMetrics`] — the recording implementation: cache-padded per-core
//!   slots of plain `u64` words, each written by exactly one core via
//!   load+store (no RMW, no locks — instrumentation stays wait-free). The
//!   same single-writer discipline the primitive uses for its count tables,
//!   auditable by the same shadow map under `--features ownership-audit`.
//! * [`MetricsReport`] — owned snapshot with cross-core aggregation
//!   (totals, per-stage critical path, probe histograms, queue high-water
//!   marks), report merging across repetitions, conservation-law
//!   validation, and stable `wfbn-metrics-v7` JSON for the `--metrics`
//!   flags on the CLI and bench binaries.
//!
//! Feature flags: `metrics` makes every [`CoreMetrics::snapshot`]
//! self-validate its conservation invariants (strict mode, used by CI);
//! `loom` swaps the atomics to the model checker for `tests/loom.rs`;
//! `ownership-audit` reports every telemetry write to the single-writer
//! auditor.

#![forbid(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod metrics;
pub mod recorder;
pub mod report;

pub use metrics::{CoreHandle, CoreMetrics};
pub use recorder::{
    CoreRecorder, Counter, NoopCore, NoopRecorder, Recorder, Stage, LAT_BUCKETS, LAT_BUCKET_LABELS,
    LAT_BUCKET_UPPER_NS, NUM_COUNTERS, NUM_STAGES, PROBE_BUCKETS, PROBE_BUCKET_LABELS,
};
pub use report::{CoreReport, MetricsReport, SCHEMA};
