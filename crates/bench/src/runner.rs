//! Shared measurement drivers used by the figure binaries.

use crate::series::Series;
use wfbn_core::allpairs::all_pairs_mi_recorded;
use wfbn_core::construct::waitfree_build_recorded;
use wfbn_core::obs::{Counter, Stage};
use wfbn_core::{CoreMetrics, MetricsReport};
use wfbn_data::{Dataset, Generator, Schema, UniformIndependent};
use wfbn_pram::{
    simulate_all_pairs_mi, simulate_striped_build, simulate_waitfree_build,
    simulate_waitfree_build_batched, CostModel,
};

/// Generates the paper's §V-A workload: `m` samples of `n` i.i.d. uniform
/// binary variables.
pub fn uniform_workload(n: usize, m: usize, seed: u64) -> Dataset {
    UniformIndependent::new(Schema::uniform(n, 2).expect("n ≤ 63 binary vars")).generate(m, seed)
}

/// Simulated table-construction series (wait-free) over `cores`.
pub fn sim_waitfree_series(data: &Dataset, cores: &[usize], label: &str) -> Series {
    let model = CostModel::default();
    let mut s = Series::new(format!("{label} wait-free (sim)"));
    for &p in cores {
        let (pt, _) = simulate_waitfree_build(data, p, &model);
        s.points
            .push((p, model.cycles_to_seconds(pt.elapsed_cycles)));
    }
    s
}

/// Simulated table-construction series (wait-free, batched hot paths) over
/// `cores`.
pub fn sim_waitfree_batched_series(data: &Dataset, cores: &[usize], label: &str) -> Series {
    let model = CostModel::default();
    let mut s = Series::new(format!("{label} wait-free batched (sim)"));
    for &p in cores {
        let (pt, _) = simulate_waitfree_build_batched(data, p, &model);
        s.points
            .push((p, model.cycles_to_seconds(pt.elapsed_cycles)));
    }
    s
}

/// Simulated table-construction series (TBB-analog striped lock).
pub fn sim_striped_series(data: &Dataset, cores: &[usize], label: &str) -> Series {
    let model = CostModel::default();
    let mut s = Series::new(format!("{label} TBB-analog (sim)"));
    for &p in cores {
        let pt = simulate_striped_build(data, p, wfbn_pram::sim_locked::DEFAULT_STRIPES, &model);
        s.points
            .push((p, model.cycles_to_seconds(pt.elapsed_cycles)));
    }
    s
}

/// Simulated all-pairs MI series.
pub fn sim_allpairs_series(data: &Dataset, cores: &[usize], label: &str) -> Series {
    let model = CostModel::default();
    let (_, table) =
        simulate_waitfree_build(data, cores.iter().copied().max().unwrap_or(1), &model);
    let mut s = Series::new(format!("{label} all-pairs MI (sim)"));
    for &p in cores {
        let pt = simulate_all_pairs_mi(&table, p, &model);
        s.points
            .push((p, model.cycles_to_seconds(pt.elapsed_cycles)));
    }
    s
}

/// Runs one instrumented wait-free build on `p` real threads and returns
/// the merged per-core metrics report (used by the `--metrics` passes of
/// the figure binaries).
pub fn metrics_waitfree_report(data: &Dataset, p: usize) -> MetricsReport {
    let rec = CoreMetrics::new(p);
    let built = waitfree_build_recorded(data, p, &rec).expect("non-empty data");
    std::hint::black_box(built.table.num_entries());
    rec.snapshot()
}

/// Runs one instrumented wait-free build followed by instrumented all-pairs
/// MI on `p` real threads; the returned report covers both phases (the MI
/// scan shows up under the `marginalize` stage and the `pairs_scanned` /
/// `entries_scanned` counters).
pub fn metrics_allpairs_report(data: &Dataset, p: usize) -> MetricsReport {
    let rec = CoreMetrics::new(p);
    let table = waitfree_build_recorded(data, p, &rec)
        .expect("non-empty data")
        .table;
    let mi = all_pairs_mi_recorded(&table, p, &rec);
    std::hint::black_box(mi.num_vars());
    rec.snapshot()
}

/// Renders the human-readable per-stage breakdown of a metrics report:
/// one bullet per stage with the summed and per-core-max wall time, plus
/// the headline routing counters. The full JSON document is printed
/// separately — this is the at-a-glance view.
pub fn format_stage_breakdown(report: &MetricsReport) -> String {
    let mut out = String::new();
    for stage in Stage::ALL {
        let total = report.stage_total_ns(stage) as f64 / 1e6;
        let max = report.stage_max_ns(stage) as f64 / 1e6;
        out.push_str(&format!(
            "- {}: {total:.2} ms summed across cores, {max:.2} ms on the slowest core\n",
            stage.name()
        ));
    }
    out.push_str(&format!(
        "- routing: {} rows encoded, {} local, {} forwarded, {} drained, queue HWM {}\n",
        report.total(Counter::RowsEncoded),
        report.total(Counter::LocalUpdates),
        report.total(Counter::Forwarded),
        report.total(Counter::Drained),
        report.queue_hwm_max(),
    ));
    let blocks = report.total(Counter::BlocksFlushed);
    if blocks > 0 {
        out.push_str(&format!("- batching: {blocks} blocks flushed\n"));
    }
    out
}

/// Prints the standard banner: the host's parallelism.
pub fn print_host_banner() {
    let host_cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    println!("host parallelism: {host_cores} hardware thread(s)");
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_series_have_one_point_per_core_count() {
        let data = uniform_workload(10, 2_000, 1);
        let cores = [1usize, 2, 4];
        for s in [
            sim_waitfree_series(&data, &cores, "t"),
            sim_waitfree_batched_series(&data, &cores, "t"),
            sim_striped_series(&data, &cores, "t"),
            sim_allpairs_series(&data, &cores, "t"),
        ] {
            assert_eq!(s.points.len(), 3);
            assert!(s.points.iter().all(|&(_, secs)| secs > 0.0));
        }
    }

    #[test]
    fn metrics_reports_balance_and_format() {
        let data = uniform_workload(8, 1_000, 3);
        let build = metrics_waitfree_report(&data, 2);
        assert_eq!(build.total(Counter::RowsEncoded), 1_000);
        assert_eq!(
            build.total(Counter::LocalUpdates) + build.total(Counter::Forwarded),
            1_000
        );
        let full = metrics_allpairs_report(&data, 2);
        assert!(full.total(Counter::PairsScanned) > 0);
        let text = format_stage_breakdown(&full);
        for stage in Stage::ALL {
            assert!(text.contains(stage.name()), "{text}");
        }
        assert!(text.contains("rows encoded"), "{text}");
    }

    #[test]
    fn batched_metrics_report_carries_v2_counters() {
        let data = uniform_workload(8, 2_000, 5);
        let report = metrics_waitfree_report(&data, 4);
        assert_eq!(report.total(Counter::RowsEncoded), 2_000);
        assert_eq!(
            report.total(Counter::Forwarded),
            report.total(Counter::Drained)
        );
        assert!(report.total(Counter::BlocksFlushed) > 0);
        let text = format_stage_breakdown(&report);
        assert!(text.contains("blocks flushed"), "{text}");
    }
}
