//! Wait-free table construction and parallel marginalization primitives.
//!
//! This crate is a faithful, production-grade implementation of the two
//! parallel primitives of *Chu, Xia, Panangadan & Prasanna, "Wait-Free
//! Primitives for Initializing Bayesian Network Structure Learning on
//! Multicore Processors"* (IPPS 2014), plus the all-pairs mutual-information
//! driver that uses them to parallelize the first ("drafting") phase of
//! Cheng et al.'s structure-learning algorithm.
//!
//! # The pipeline
//!
//! ```text
//!  training data D (m × n)
//!        │  codec: state string → u64 key          (Eq. 3/4, [`codec`])
//!        ▼
//!  wait-free table construction                    (Alg. 1+2, [`construct`])
//!        │  P private hash tables, P·(P−1) SPSC queues, 1 barrier
//!        ▼
//!  distributed potential table                     ([`potential`])
//!        │  parallel marginalization               (Alg. 3, [`marginal`])
//!        ▼
//!  pairwise joints P(x,y) → P(x), P(y) → I(X;Y)    (Alg. 4, [`allpairs`])
//! ```
//!
//! # Quick start
//!
//! ```
//! use wfbn_core::{allpairs, construct, KeyCodec};
//! use wfbn_data::{Generator, Schema, UniformIndependent};
//!
//! let schema = Schema::uniform(8, 2).unwrap();
//! let data = UniformIndependent::new(schema.clone()).generate(10_000, 42);
//!
//! // Build the potential table with 4 threads, wait-free.
//! let built = construct::waitfree_build(&data, 4).unwrap();
//! assert_eq!(built.table.total_count(), 10_000);
//!
//! // All-pairs mutual information (drafting-phase statistics test).
//! let mi = allpairs::all_pairs_mi(&built.table, 4);
//! assert!(mi.get(0, 1) < 0.01); // independent data ⇒ MI ≈ 0
//! ```

#![warn(missing_docs)]

pub mod allpairs;
pub mod codec;
pub mod construct;
pub mod count_table;
pub mod entropy;
pub mod error;
pub mod marginal;
pub mod potential;
mod slice;
pub mod stream;

pub use allpairs::{all_pairs_mi, all_pairs_mi_recorded, MiMatrix};
pub use codec::KeyCodec;
pub use construct::{
    sequential_build, sequential_build_recorded, waitfree_build, waitfree_build_recorded,
    BuiltTable,
};
pub use count_table::{CountTable, Key};
pub use error::CoreError;
pub use marginal::{marginalize, marginalize_recorded, MarginalTable, PackedTable};
pub use potential::PotentialTable;

// The observability layer the `*_recorded` entry points are generic over;
// re-exported so downstream crates need not depend on `wfbn-obs` directly.
pub use wfbn_obs as obs;
pub use wfbn_obs::{CoreMetrics, MetricsReport, NoopRecorder, Recorder};
