//! `wfbn-cluster` — the sharded serving tier: `S` wfbn-serve engines behind
//! one consistent-hash ingest router, cross-shard query fan-out, and a
//! coordinator publishing *cluster epochs* only once every shard has
//! published its local epoch.
//!
//! The paper's ownership discipline, lifted one level:
//!
//! * **Routing** ([`map`]): every encoded row key has exactly one owning
//!   shard (a consistent-hash ring over the key's `mix64` image — skew
//!   families that defeat the intra-shard `key % P` rule still spread);
//!   inside a shard the paper's stage-1 `key % P` discipline is untouched.
//! * **Epoch alignment** ([`router`]): the router submits one sub-batch per
//!   shard per cluster batch (empty ones included), so shard local epoch `e`
//!   is shard `s`'s slice of the first `e` cluster batches. The coordinator
//!   assembles those slices into a [`wfbn_concurrent::cluster_epoch`] cut —
//!   one Release store per cluster epoch, made only once all `S` shards have
//!   staged.
//! * **Fan-out queries** ([`client`]): a client pins a cut and merges
//!   per-shard partial marginals (`S` disjoint observation sets → elementwise
//!   count sums), reproducing a single-node build of the same ingest prefix
//!   byte for byte; through [`wfbn_serve::EndpointSession`] the wire
//!   responses are byte-identical too.
//! * **Liveness** ([`router`]): a shard that never publishes surfaces as a
//!   *stalled* cluster epoch naming the shard — bounded by the coordinator's
//!   yield budget — never as a hang.
//!
//! Telemetry flows into [`wfbn_obs`] schema `wfbn-metrics-v6`: the router
//! core counts `batches_routed`/`shard_batches_routed`, the coordinator core
//! `cluster_epochs_published`, and each client core `query_fan_outs` and
//! `partial_merges`, with the cluster conservation laws checked by
//! `MetricsReport::validate`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod map;
pub mod router;

pub use client::ClusterClient;
pub use map::ShardMap;
pub use router::{Cluster, ClusterConfig};

use wfbn_serve::ServeError;

/// Errors surfaced by the cluster tier.
#[derive(Debug)]
pub enum ClusterError {
    /// A cluster epoch could not complete: `shard` never delivered its local
    /// epoch `epoch` within the coordinator's bounded budget (or its lane
    /// closed first). The starve-shard negative control exercises this.
    Stalled {
        /// The shard the coordinator is waiting on.
        shard: usize,
        /// The cluster epoch held back by the missing shard.
        epoch: u64,
    },
    /// A shard engine refused or failed the forwarded operation.
    Serve(ServeError),
    /// The coordinator exited (cluster shut down) under a waiting caller.
    Closed,
    /// The cluster was misconfigured (zero shards, zero clients, recorder
    /// mismatch, starved shard out of range).
    Config(&'static str),
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::Stalled { shard, epoch } => {
                write!(f, "cluster epoch {epoch} stalled waiting on shard {shard}")
            }
            ClusterError::Serve(e) => write!(f, "{e}"),
            ClusterError::Closed => write!(f, "cluster coordinator closed"),
            ClusterError::Config(msg) => write!(f, "bad cluster config: {msg}"),
        }
    }
}

impl std::error::Error for ClusterError {}

impl From<ServeError> for ClusterError {
    fn from(e: ServeError) -> Self {
        ClusterError::Serve(e)
    }
}

impl From<wfbn_core::CoreError> for ClusterError {
    fn from(e: wfbn_core::CoreError) -> Self {
        ClusterError::Serve(ServeError::Core(e))
    }
}
