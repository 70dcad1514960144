//! `wfbn-serve` — a long-lived, in-memory statistics service over the
//! wait-free construction primitives.
//!
//! The paper's primitive builds a potential table once and hands it to one
//! structure-learning run. This crate keeps the table *alive*: one writer
//! thread absorbs row batches through [`wfbn_core::stream::StreamingBuilder`]
//! and publishes an immutable, epoch-versioned snapshot after every batch,
//! while `N` reader threads answer marginal / mutual-information / CPT
//! queries lock-free against whichever epoch they last pinned.
//!
//! The ownership story extends the paper's exactly-one-owner discipline to
//! serving:
//!
//! * **Publication** rides [`wfbn_concurrent::epoch`]: each epoch is an
//!   `Arc` of an [`Epoch`] holding the bit-sliced [`wfbn_core::PackedTable`]
//!   of the table, which the writer packs right after absorbing the batch
//!   (on the calling thread below `wfbn_core`'s serial-pack size, else on
//!   the builder's thread count). The epoch holds nothing of the table
//!   itself: the writer packs a snapshot of the builder's partitions
//!   (`P` pointer bumps) and drops it, so the builder owns every partition
//!   alone again and the next absorb writes them in place.
//! * **Admission** is a bounded hand-off: the front-end counts batches it
//!   submitted, the writer's published epoch counts batches absorbed, and
//!   the difference is the backlog the admission gate blocks on. Both
//!   counters are single-writer words — no read-modify-write anywhere.
//! * **Queries** never lock and never block the writer: a reader pins the
//!   newest published epoch (draining its private lane), then reads the
//!   pinned snapshot. A per-reader scope-keyed [`cache::MarginalCache`]
//!   (invalidated on epoch advance) keeps repeated and fused queries from
//!   rescanning, and answers every miss from the pinned epoch's packed
//!   snapshot: no reader packs on its query path. A protocol line is
//!   bounded in clauses, in cells per scope and in cells over its distinct
//!   scopes ([`server::MAX_LINE_CELLS`]).
//!
//! Telemetry flows into [`wfbn_obs`] (schema `wfbn-metrics-v7`): the writer
//! records each epoch's pack under the `marginalize` stage,
//! `epochs_published` and admission-queue depth on core 0, reader
//! `i` records `queries_served` / `cache_hits` / `cache_misses` /
//! `epochs_pinned` and a query-latency histogram on core
//! `builder_threads + i`, and the report validator cross-checks the serve
//! conservation laws (latency mass vs. queries served, pins vs. publishes).
//!
//! The wire protocol ([`query`], [`server`]) is line-delimited text over
//! stdin or TCP (`wfbn serve`); see `README.md` § Serving.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod engine;
pub mod query;
pub mod reader;
pub mod server;

pub use cache::MarginalCache;
pub use engine::{Engine, EngineConfig, Epoch};
pub use query::{IngestRows, Request};
pub use reader::{cpt_rows, CptRow, QueryReader};
pub use server::{serve_lines, serve_tcp, LoopControl, ReaderSession, Session};

use wfbn_core::CoreError;

/// Errors surfaced by the serving layer.
#[derive(Debug)]
pub enum ServeError {
    /// A query arrived before the writer published any epoch.
    NothingPublished,
    /// The writer thread exited (finished or failed); no further epochs
    /// will be published.
    Closed,
    /// The underlying table/marginal computation rejected the request.
    Core(CoreError),
    /// A malformed protocol request.
    Protocol(String),
    /// The engine was misconfigured (zero readers, zero queue capacity).
    Config(&'static str),
    /// A reader answered a batch with fewer marginals than scopes.
    MissingAnswer,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::NothingPublished => write!(f, "no epoch published yet"),
            ServeError::Closed => write!(f, "writer closed"),
            ServeError::Core(e) => write!(f, "{e}"),
            ServeError::Protocol(msg) => write!(f, "bad request: {msg}"),
            ServeError::Config(msg) => write!(f, "bad engine config: {msg}"),
            ServeError::MissingAnswer => write!(f, "the endpoint returned no answer"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<CoreError> for ServeError {
    fn from(e: CoreError) -> Self {
        ServeError::Core(e)
    }
}
