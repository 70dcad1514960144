//! A deterministic PRAM cost-model simulator for the paper's scaling
//! experiments.
//!
//! # Why this exists
//!
//! The paper evaluates on a 32-core AMD Opteron 6278; reproduction hosts may
//! have one core. Wall-clock speedup curves are unmeasurable there, but the
//! paper's claims are at bottom *counting* claims: how many operations each
//! core performs, how many synchronizations happen, and how much cache-line
//! traffic each design generates. Those quantities are host-independent.
//!
//! This crate therefore *executes the real algorithms* (actual count tables,
//! actual key encoding, actual queue routing — the instrumentation counters
//! built into `wfbn-core` record exact probe counts) on `P` **simulated**
//! cores, and charges every operation a cycle cost from an explicit
//! [`CostModel`]. Parallel time is `max` over per-core cycle totals plus
//! synchronization terms:
//!
//! * wait-free build: `max_p(stage1_p) + barrier(P) + max_p(stage2_p)`;
//! * striped-lock (TBB-analog) build: per-update lock and coherence costs,
//!   with queueing delay from an M/D/1 fixed point ([`contention`]);
//! * marginalization / all-pairs MI: `max` over per-core scan costs plus the
//!   merge.
//!
//! Everything is deterministic: same dataset + same model ⇒ same simulated
//! nanosecond. The defaults in [`CostModel::default`] are order-of-magnitude
//! x86 costs (documented per field); the *shape* of the resulting curves —
//! who wins, where the lock-based baseline rolls over — is insensitive to
//! ±2× changes in any single constant (tested in `sim_locked`).

#![warn(missing_docs)]

pub mod contention;
pub mod cost;
pub mod report;
pub mod sim_locked;
pub mod sim_marginal;
pub mod sim_waitfree;

pub use cost::CostModel;
pub use report::{SimPoint, SimSeries};
pub use sim_locked::simulate_striped_build;
pub use sim_marginal::{simulate_all_pairs_mi, simulate_marginalization};
pub use sim_waitfree::{
    simulate_sequential_build, simulate_waitfree_build, simulate_waitfree_build_batched,
};
