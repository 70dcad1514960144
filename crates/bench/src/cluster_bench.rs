//! Shard-scaling measurement: fan-out query throughput versus the number of
//! shards in a `wfbn-cluster` deployment.
//!
//! This is the deterministic series the simulated-cost baseline checks
//! (`floor.cluster_s8_scaling` in [`crate::snapshot`]). A fan-out marginal
//! scans `E/S` entries per shard in parallel and pays dispatch + two network
//! hops + an `S`-way partial merge ([`wfbn_pram::simulate_cluster_marginal`]);
//! throughput is the inverse of that closed-loop latency, so the series is a
//! pure function of dataset, shape, and cost model. Wall-clock numbers come
//! from `benchmark/`.

use wfbn_data::Dataset;
use wfbn_pram::{simulate_cluster_marginal, simulate_waitfree_build_batched, CostModel};

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
}
