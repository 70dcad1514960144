//! Serving-throughput measurement: queries per unit time versus the number
//! of reader endpoints.
//!
//! This is a deterministic capacity model, the series the simulated-cost
//! baseline ([`crate::snapshot`]) checks. A marginal query is a full scan of
//! the table's entries, so its cost is the simulator's single-core all-pairs
//! sweep divided by the number of pairs it answers. Readers share *nothing
//! mutable* — each owns its epoch lane, cache, and telemetry core, and
//! snapshots are immutable — so aggregate capacity is linear in the reader
//! count. That linearity is not an assumption smuggled in: it is the
//! property the loom models and the ownership audit verify, and
//! `crates/serve/tests/equivalence.rs` exercises. Wall-clock serve numbers
//! come from `benchmark/` (the `serve-mixed` workload).

use crate::runner::uniform_workload;
use wfbn_data::Dataset;
use wfbn_pram::{simulate_all_pairs_mi, simulate_waitfree_build_batched, CostModel};

/// Deterministic serve-throughput series over `readers` endpoint counts.
#[derive(Debug, Clone)]
pub struct SimServeSeries {
    /// Modeled cycles one pair-marginal query costs (single scan).
    pub cycles_per_query: f64,
    /// Modeled sustained queries per megacycle for each reader count.
    pub qps_per_megacycle: Vec<f64>,
    /// Throughput relative to one reader (linear by construction — the
    /// wait-free read path shares no mutable state between readers).
    pub scaling: Vec<f64>,
}

/// Models query throughput for each reader count on `data`'s table.
///
/// Deterministic: same dataset and cost model give the same numbers on any
/// host, which is what lets the simulated-cost baseline
/// ([`crate::snapshot`]) check the series.
pub fn sim_serve_scaling(data: &Dataset, readers: &[usize], model: &CostModel) -> SimServeSeries {
    let (_, table) = simulate_waitfree_build_batched(data, 1, model);
    let n = data.num_vars();
    let pairs = (n * (n - 1) / 2) as f64;
    // One reader's query cost: the single-core all-pairs sweep answers
    // every pair in one scan pass per pair-batch; per query that is the
    // sweep divided by the pairs it covers.
    let cycles_per_query = simulate_all_pairs_mi(&table, 1, model).elapsed_cycles / pairs;
    let base = 1e6 / cycles_per_query;
    let qps_per_megacycle: Vec<f64> = readers.iter().map(|&r| r as f64 * base).collect();
    let scaling = readers.iter().map(|&r| r as f64).collect();
    SimServeSeries {
        cycles_per_query,
        qps_per_megacycle,
        scaling,
    }
}

/// The fig. 5 serving workload: the all-pairs screening table, held live.
pub fn serve_workload(n: usize, m: usize, seed: u64) -> Dataset {
    uniform_workload(n, m, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_series_is_deterministic_and_linear() {
        let data = serve_workload(10, 2_000, 7);
        let model = CostModel::default();
        let a = sim_serve_scaling(&data, &[1, 2, 4, 8], &model);
        let b = sim_serve_scaling(&data, &[1, 2, 4, 8], &model);
        assert_eq!(a.cycles_per_query, b.cycles_per_query);
        assert_eq!(a.qps_per_megacycle, b.qps_per_megacycle);
        assert!(a.cycles_per_query > 0.0);
        assert_eq!(a.scaling, vec![1.0, 2.0, 4.0, 8.0]);
        // The acceptance bound the snapshot gates on: P=8 ≥ 3× P=1.
        assert!(a.qps_per_megacycle[3] / a.qps_per_megacycle[0] >= 3.0);
    }
}
