//! Shard-scaling measurement: fan-out query throughput versus the number of
//! shards in a `wfbn-cluster` deployment.
//!
//! Two modes, mirroring the rest of the harness:
//!
//! * **sim** — the deterministic series the simulated-cost baseline
//!   checks (`floor.cluster_s8_scaling` in [`crate::snapshot`]). A fan-out marginal scans
//!   `E/S` entries per shard in parallel and pays dispatch + two network
//!   hops + an `S`-way partial merge ([`wfbn_pram::simulate_cluster_marginal`]);
//!   throughput is the inverse of that closed-loop latency, so the series
//!   is a pure function of dataset, shape, and cost model.
//! * **wall** — a real [`Cluster`] per shard count: ingest the dataset
//!   through the consistent-hash router, sync to the last cluster epoch,
//!   then time pair-marginal queries through one fan-out client.
//!   Host-dependent, recorded for context, never gated on (every shard's
//!   writer thread shares the benchmark host's cores).

use std::time::Instant;
use wfbn_cluster::{Cluster, ClusterConfig};
use wfbn_data::Dataset;
use wfbn_pram::{simulate_cluster_marginal, simulate_waitfree_build_batched, CostModel};
use wfbn_serve::{EngineConfig, QueryEndpoint};

/// Deterministic shard-scaling series over `shards` cluster sizes.
#[derive(Debug, Clone)]
pub struct SimClusterSeries {
    /// Shard counts, ascending.
    pub shards: Vec<usize>,
    /// Modeled cycles one fan-out pair-marginal costs at each shard count.
    pub cycles_per_query: Vec<f64>,
    /// Throughput relative to the first shard count (1/latency ratio).
    pub scaling: Vec<f64>,
}

/// Models fan-out query latency/throughput for each shard count on `data`'s
/// table, `cores_per_shard` cores per shard.
///
/// Deterministic: same dataset, shape, and cost model give the same numbers
/// on any host, which is what lets the simulated-cost baseline
/// ([`crate::snapshot`]) check the series.
pub fn sim_cluster_scaling(
    data: &Dataset,
    shards: &[usize],
    cores_per_shard: usize,
    model: &CostModel,
) -> SimClusterSeries {
    let (_, table) = simulate_waitfree_build_batched(data, 1, model);
    let n = data.num_vars();
    // The representative query: a pair marginal over the first and middle
    // variable — two decodes per entry, exactly the MI driver's inner scan.
    let scope = [0, n / 2];
    let cycles_per_query: Vec<f64> = shards
        .iter()
        .map(|&s| simulate_cluster_marginal(&table, &scope, s, cores_per_shard, model).elapsed_cycles)
        .collect();
    let scaling = cycles_per_query
        .iter()
        .map(|&c| cycles_per_query[0] / c)
        .collect();
    SimClusterSeries {
        shards: shards.to_vec(),
        cycles_per_query,
        scaling,
    }
}

/// Wall-clock fan-out queries/second for each shard count (host-dependent).
///
/// Each point ingests `data` through a fresh cluster (batched into 8
/// cluster epochs), then times `queries` pair-marginal fan-outs through one
/// client. Scopes rotate across variable pairs so the client cache does not
/// collapse the work to one merge.
pub fn wall_cluster_qps(data: &Dataset, shards: &[usize], queries: usize) -> Vec<f64> {
    let schema = data.schema().clone();
    let n = schema.num_vars();
    let rows: Vec<Vec<u16>> = data.rows().map(<[u16]>::to_vec).collect();
    shards
        .iter()
        .map(|&s| {
            let cfg = ClusterConfig {
                shards: s,
                clients: 1,
                engine: EngineConfig {
                    builder_threads: 1,
                    ..EngineConfig::default()
                },
                ..ClusterConfig::default()
            };
            let (mut cluster, mut clients) =
                Cluster::start(&schema, &cfg).expect("cluster start");
            let chunk = rows.len().div_ceil(8).max(1);
            for batch in rows.chunks(chunk) {
                cluster.submit_rows(batch).expect("ingest");
            }
            cluster.sync().expect("cluster sync");
            let client = &mut clients[0];
            let start = Instant::now();
            for q in 0..queries {
                // Rotate over strictly-increasing variable pairs (i < j).
                let i = q % (n - 1);
                let j = i + 1 + q % (n - 1 - i);
                let scope = [i, j];
                let scopes: [&[usize]; 1] = [&scope];
                client.answer_batch(&scopes).expect("fan-out query");
            }
            let secs = start.elapsed().as_secs_f64();
            cluster.finish().expect("cluster finish");
            queries as f64 / secs.max(1e-9)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::uniform_workload;

    #[test]
    fn sim_series_is_deterministic_and_clears_the_gate() {
        let data = uniform_workload(20, 30_000, 42);
        let model = CostModel::default();
        let a = sim_cluster_scaling(&data, &[1, 2, 4, 8], 2, &model);
        let b = sim_cluster_scaling(&data, &[1, 2, 4, 8], 2, &model);
        assert_eq!(a.cycles_per_query, b.cycles_per_query, "sim must be bit-stable");
        assert!((a.scaling[0] - 1.0).abs() < 1e-12);
        assert!(
            a.scaling[3] >= 3.0,
            "S=1→8 sim throughput scaling {:.2} below the 3x gate",
            a.scaling[3]
        );
    }

    #[test]
    fn wall_series_runs_a_real_cluster() {
        // Smoke-scale: correctness of the harness, not a measurement.
        let data = uniform_workload(6, 400, 7);
        let qps = wall_cluster_qps(&data, &[1, 2], 8);
        assert_eq!(qps.len(), 2);
        assert!(qps.iter().all(|&q| q > 0.0), "qps: {qps:?}");
    }
}
