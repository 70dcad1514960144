//! Simulated executions of the sharded (cluster) query path.
//!
//! The cluster tier splits the count table across `S` shards by consistent
//! hash (uniform in expectation — `mix64` is full-avalanche, see
//! `wfbn-cluster`'s `ShardMap`), so a fan-out marginal query scans `E/S`
//! entries per shard *in parallel* and pays for it with network hops and an
//! `S`-way partial-marginal merge at the client. This module prices that
//! trade under the same [`CostModel`] as the single-node simulators:
//!
//! ```text
//! latency(S, P) = S·dispatch + 2·hop
//!               + max_shard( scan(E/S on P cores) + intra-shard merge )
//!               + S·cells·(hop_per_cell + marginal_update)
//! ```
//!
//! The fan-out requests leave together and the client waits for the slowest
//! shard, so the hop latency is charged once each way, not per shard; the
//! payload and the cross-shard merge are serial at the client and scale with
//! `S` — that is the rollover term that eventually caps shard scaling, just
//! as the merge term caps core scaling in Algorithm 3.

use crate::cost::CostModel;
use crate::report::SimPoint;
use wfbn_core::potential::PotentialTable;

/// Simulates one cross-shard marginalization over `vars` on a cluster of
/// `shards` shards with `cores_per_shard` cores each, for a count table
/// whose *union* across shards is `table`.
///
/// Consistent hashing spreads the key space uniformly in expectation, so
/// each shard is modeled as holding `E/S` entries dealt evenly over its
/// cores (the intra-shard schedule is Algorithm 3 unchanged).
pub fn simulate_cluster_marginal(
    table: &PotentialTable,
    vars: &[usize],
    shards: usize,
    cores_per_shard: usize,
    model: &CostModel,
) -> SimPoint {
    assert!(shards > 0, "need at least one shard");
    assert!(cores_per_shard > 0, "need at least one core per shard");
    assert!(!vars.is_empty(), "need at least one variable of interest");

    let entries = table.num_entries() as f64;
    let per_entry =
        vars.len() as f64 * model.decode_var + model.marginal_update + model.row_overhead;
    let cells: u64 = vars.iter().map(|&v| table.codec().arity(v)).product();
    let cells = cells as f64;

    // Per-shard scan: E/S entries over P cores, plus the intra-shard merge
    // of P partials (exactly the single-node merge term, on the slice).
    let shard_entries = entries / shards as f64;
    let per_core_scan = shard_entries * per_entry / cores_per_shard as f64;
    let intra_merge = if cores_per_shard > 1 {
        cells * cores_per_shard as f64 * model.marginal_update
    } else {
        0.0
    };
    let shard_elapsed = per_core_scan + intra_merge;

    // Client side: dispatch S sub-requests, one hop out, wait for the
    // slowest shard, one hop back, then merge S partials serially.
    let dispatch = shards as f64 * model.shard_dispatch;
    let hops = if shards > 1 { 2.0 * model.network_hop } else { 0.0 };
    let payload = if shards > 1 {
        shards as f64 * cells * model.hop_per_cell
    } else {
        0.0
    };
    let cross_merge = if shards > 1 {
        shards as f64 * cells * model.marginal_update
    } else {
        0.0
    };

    let elapsed = dispatch + hops + shard_elapsed + payload + cross_merge;
    SimPoint {
        cores: shards * cores_per_shard,
        elapsed_cycles: elapsed,
        per_core_cycles: vec![per_core_scan; shards * cores_per_shard],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::SimSeries;
    use crate::sim_marginal::simulate_marginalization;
    use crate::sim_waitfree::simulate_waitfree_build;
    use crate::CostModel;
    use wfbn_data::{Dataset, Generator, Schema, UniformIndependent};

    /// Query-throughput speedup of the `[0, 7]` pair marginal over
    /// S ∈ {1, 2, 4, 8} shards at two cores per shard.
    fn shard_speedups(t: &PotentialTable, model: &CostModel) -> Vec<f64> {
        let mut series = SimSeries::new("cluster marginal");
        for s in [1, 2, 4, 8] {
            series.push(simulate_cluster_marginal(t, &[0, 7], s, 2, model));
        }
        series.speedups()
    }

    fn table(n: usize, m: usize, p: usize) -> PotentialTable {
        let d: Dataset = UniformIndependent::new(Schema::uniform(n, 2).unwrap()).generate(m, 3);
        simulate_waitfree_build(&d, p, &CostModel::default()).1
    }

    #[test]
    fn single_shard_costs_only_dispatch_over_single_node() {
        // S=1 is a degenerate cluster: no hops, no payload, no cross-shard
        // merge — only the one dispatch separates it from Algorithm 3.
        let model = CostModel::default();
        let t = table(16, 40_000, 4);
        let single = simulate_marginalization(&t, &[0, 5], 1, &model);
        let cluster = simulate_cluster_marginal(&t, &[0, 5], 1, 1, &model);
        let delta = cluster.elapsed_cycles - single.elapsed_cycles;
        assert!(
            (delta - model.shard_dispatch).abs() < 1e-6,
            "S=1 P=1 overhead should be one dispatch, got {delta}"
        );
    }

    #[test]
    fn query_throughput_scales_at_least_3x_from_1_to_8_shards() {
        // The `floor.cluster_s8_scaling` rule of the simulated-cost baseline:
        // sim query throughput (1/latency) must scale ≥3× from S=1 to S=8 at
        // fixed cores per shard.
        let model = CostModel::default();
        let t = table(20, 60_000, 4);
        let speedups = shard_speedups(&t, &model);
        assert!(
            speedups[3] >= 3.0,
            "S=1→8 throughput scaling {:.2} < 3.0",
            speedups[3]
        );
    }

    #[test]
    fn scaling_is_monotone_then_hop_bound() {
        let model = CostModel::default();
        let t = table(20, 60_000, 4);
        let s = shard_speedups(&t, &model);
        assert!(s.windows(2).all(|w| w[1] > w[0]), "monotone in S: {s:?}");
        // Sub-linear: hops + S-way merge keep S=8 below ideal.
        assert!(s[3] < 8.0, "S=8 speedup {:.2} should be sub-linear", s[3]);
    }

    #[test]
    fn cross_shard_overhead_is_linear_in_scope_cells() {
        // Everything the cluster adds beyond the shard scan — dispatch,
        // hops, payload, S-way merge — must grow linearly with the scope's
        // cell count, with slope S·(hop_per_cell + marginal_update).
        let model = CostModel::default();
        let t = table(20, 60_000, 4);
        let overhead = |vars: &[usize]| {
            let p = simulate_cluster_marginal(&t, vars, 8, 2, &model);
            let cells: u64 = vars.iter().map(|&v| t.codec().arity(v)).product();
            let intra = cells as f64 * 2.0 * model.marginal_update;
            p.elapsed_cycles - p.per_core_cycles[0] - intra
        };
        // 1 var (2 cells) vs 8 vars (256 cells): both scopes decode
        // differently, but the *overhead* difference is purely the cells.
        let narrow = overhead(&[0]);
        let wide = overhead(&[0, 1, 2, 3, 4, 5, 6, 7]);
        let expected = 8.0 * (256.0 - 2.0) * (model.hop_per_cell + model.marginal_update);
        assert!(
            (wide - narrow - expected).abs() < 1e-6,
            "overhead slope off: wide-narrow = {}, expected {expected}",
            wide - narrow
        );
    }
}
