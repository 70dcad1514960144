//! Low-level concurrency substrate for the `wfbn` workspace.
//!
//! This crate contains the building blocks the wait-free table-construction
//! primitive (Chu et al., IPPS 2014) is assembled from:
//!
//! * [`spsc`] — an unbounded, wait-free single-producer/single-consumer
//!   segmented queue. One such queue exists for every ordered pair of
//!   cooperating threads in the primitive's first stage ("Algorithm 1" in the
//!   paper), carrying the keys that fall outside the producing thread's key
//!   partition.
//! * [`pad`] — [`CachePadded`], which keeps per-thread hot
//!   state on distinct cache lines so that the "disjoint memory" property the
//!   paper relies on also holds at cache-line granularity (no false sharing).
//! * [`barrier`] — a sense-reversing spin barrier implementing the single
//!   synchronization step between the two construction stages.
//! * [`hash`] — a fast multiplicative (Fx-style) hasher and a `splitmix64`
//!   finalizer used by the open-addressed count tables; `SipHash` would
//!   dominate the profile for 8-byte integer keys.
//! * [`partition`] — contiguous range partitioning of `m` rows over `P`
//!   threads (the row split of Algorithm 1) plus strided pair scheduling
//!   (the pair split of Algorithm 4).
//! * [`scope`] — a thin wrapper over [`std::thread::scope`] that runs a
//!   closure once per thread index and collects the results in index order.
//! * [`epoch`] — single-writer epoch publication of immutable snapshots over
//!   per-reader SPSC lanes: the serving layer's bridge from the wait-free
//!   build (one absorbing writer) to lock-free readers, with the publication
//!   ordering proven torn-read-free under loom.
//!
//! Everything here is dependency-free in normal builds; the only `unsafe`
//! lives in the SPSC queue and is documented inline (each block carries a
//! `// SAFETY:` comment, enforced by `tools/check_safety_comments.sh`).
//!
//! Two opt-in cargo features back the verification layer:
//!
//! * `loom` — swaps the `sync`-module shim from `core`/`std` primitives to
//!   the loom model checker's instrumented doubles and shrinks
//!   [`spsc::SEG_CAP`] to 2, enabling the interleaving-exploring suites in
//!   `tests/loom.rs`.
//! * `ownership-audit` — enables the `audit` shadow map, which panics the
//!   moment any shared word is written by two cores in the same stage.

#![forbid(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

#[cfg(feature = "ownership-audit")]
pub mod audit;
pub mod barrier;
pub mod epoch;
pub mod hash;
pub mod pad;
pub mod partition;
pub mod scope;
pub mod spsc;
mod sync;

pub use barrier::SpinBarrier;
pub use epoch::{epoch_channel, EpochPublisher, EpochReader};
pub use hash::{mix64, FxBuildHasher, FxHasher};
pub use pad::CachePadded;
pub use partition::{pair_count, pairs_for_thread, row_chunks, RowChunk};
pub use scope::{run_on_threads, run_on_threads_with};
pub use spsc::{channel, Consumer, Producer, SEG_CAP};
