//! Simulated executions of the marginalization primitive (Algorithm 3) and
//! the all-pairs mutual-information driver (Algorithm 4).
//!
//! Both model the paper's schedules, not the kernels `wfbn-core` runs:
//! [`simulate_all_pairs_mi`] deals pairs to cores and rescans the table per
//! pair, as Algorithm 4 does, while
//! [`all_pairs_mi`](wfbn_core::allpairs::all_pairs_mi) scans each entry once and counts low-arity pairs by bit-slices. The
//! simulated cycles are the paper's cost, the baseline of its Fig. 5.

use crate::cost::CostModel;
use crate::report::SimPoint;
use wfbn_concurrent::{pair_count, pairs_for_thread};
use wfbn_core::potential::PotentialTable;

/// Simulates one marginalization over `vars` on `p` cores.
///
/// Per table entry, a core decodes only the `|vars|` variables of interest
/// (one divide/modulo each) and performs one dense accumulate; the merge of
/// the `t` partial marginals is charged to the makespan serially (it is a
/// tiny dense sum in practice, exactly as in Algorithm 3's final step).
pub fn simulate_marginalization(
    table: &PotentialTable,
    vars: &[usize],
    p: usize,
    model: &CostModel,
) -> SimPoint {
    assert!(p > 0, "need at least one simulated core");
    assert!(!vars.is_empty(), "need at least one variable of interest");
    let parts = table.num_partitions();
    let t = p.min(parts);
    let per_entry =
        vars.len() as f64 * model.decode_var + model.marginal_update + model.row_overhead;

    let mut per_core = vec![0.0f64; t];
    for (idx, part) in table.partitions().iter().enumerate() {
        per_core[idx % t] += part.len() as f64 * per_entry;
    }
    let cells: u64 = vars.iter().map(|&v| table.codec().arity(v)).product();
    let merge = if t > 1 {
        cells as f64 * t as f64 * model.marginal_update
    } else {
        0.0
    };
    let elapsed = per_core.iter().cloned().fold(0.0, f64::max) + merge;
    SimPoint {
        cores: p,
        elapsed_cycles: elapsed,
        per_core_cycles: per_core,
    }
}

/// Simulates the paper's all-pairs MI (Algorithm 4, pair-parallel
/// schedule) on `p` cores: pairs are dealt round-robin; each pair costs one
/// full scan of the table (2 decodes + 1 accumulate per entry) plus the
/// Equation-1 evaluation over the pair's joint cells. This is the paper's
/// algorithm, not `wfbn_core`'s one-scan bit-sliced kernel, whose cost it
/// does not predict.
pub fn simulate_all_pairs_mi(table: &PotentialTable, p: usize, model: &CostModel) -> SimPoint {
    assert!(p > 0, "need at least one simulated core");
    let codec = table.codec();
    let n = codec.num_vars();
    let entries = table.num_entries() as f64;

    let mut per_core = vec![0.0f64; p];
    for (t, slot) in per_core.iter_mut().enumerate() {
        for (i, j) in pairs_for_thread(n, t, p) {
            let cells = (codec.arity(i) * codec.arity(j)) as f64;
            let scan =
                entries * (2.0 * model.decode_var + model.marginal_update + model.row_overhead);
            let eval = cells * model.mi_cell;
            *slot += scan + eval;
        }
    }
    let elapsed = per_core.iter().cloned().fold(0.0, f64::max);
    debug_assert!(pair_count(n) == 0 || elapsed > 0.0);
    SimPoint {
        cores: p,
        elapsed_cycles: elapsed,
        per_core_cycles: per_core,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim_waitfree::simulate_waitfree_build;
    use crate::CostModel;
    use wfbn_data::{Dataset, Generator, Schema, UniformIndependent};

    fn table(n: usize, m: usize, p: usize) -> PotentialTable {
        let d: Dataset = UniformIndependent::new(Schema::uniform(n, 2).unwrap()).generate(m, 3);
        simulate_waitfree_build(&d, p, &CostModel::default()).1
    }

    #[test]
    fn marginalization_speedup_tracks_partitions() {
        let model = CostModel::default();
        let t = table(16, 40_000, 8);
        let s1 = simulate_marginalization(&t, &[0, 5], 1, &model);
        let s8 = simulate_marginalization(&t, &[0, 5], 8, &model);
        let speedup = s1.elapsed_cycles / s8.elapsed_cycles;
        assert!(
            (5.0..=8.0).contains(&speedup),
            "8-core marginalization speedup {speedup}"
        );
    }

    #[test]
    fn threads_clamp_to_partitions() {
        let model = CostModel::default();
        let t = table(12, 5_000, 4);
        let a = simulate_marginalization(&t, &[1], 4, &model);
        let b = simulate_marginalization(&t, &[1], 64, &model);
        assert_eq!(a.per_core_cycles.len(), b.per_core_cycles.len());
        assert!((a.elapsed_cycles - b.elapsed_cycles).abs() < 1e-6);
    }

    #[test]
    fn all_pairs_cost_grows_quadratically_in_n() {
        // Fig. 5: the theoretical all-pairs cost is O(E·n²) per scan model;
        // doubling n roughly quadruples the pair count.
        let model = CostModel::default();
        let m = 20_000;
        let t20 = table(20, m, 4);
        let t40 = table(40, m, 4);
        let c20 = simulate_all_pairs_mi(&t20, 1, &model).elapsed_cycles;
        let c40 = simulate_all_pairs_mi(&t40, 1, &model).elapsed_cycles;
        let ratio = c40 / c20;
        assert!(
            (3.0..=5.0).contains(&ratio),
            "n 20→40 should ≈4× the all-pairs cost, got {ratio}"
        );
    }

    #[test]
    fn all_pairs_scales_with_cores_like_figure_5b() {
        let model = CostModel::default();
        let t = table(30, 20_000, 32);
        let base = simulate_all_pairs_mi(&t, 1, &model).elapsed_cycles;
        let mut prev = 0.0;
        for p in [1usize, 2, 4, 8, 16, 32] {
            let s = base / simulate_all_pairs_mi(&t, p, &model).elapsed_cycles;
            assert!(s > prev, "monotone speedup expected: p={p} s={s}");
            prev = s;
        }
        assert!(prev > 16.0, "32-core all-pairs speedup {prev}");
    }

    #[test]
    fn pair_dealing_balances_cores() {
        let model = CostModel::default();
        let t = table(30, 10_000, 8);
        let pt = simulate_all_pairs_mi(&t, 8, &model);
        assert!(pt.balance() > 0.95, "balance {}", pt.balance());
    }
}
