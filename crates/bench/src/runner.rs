//! Shared measurement drivers used by the figure binaries.

use crate::series::Series;
use std::time::Instant;
use wfbn_baselines::striped::StripedLockBuilder;
use wfbn_core::allpairs::all_pairs_mi_recorded;
use wfbn_core::construct::{waitfree_build, waitfree_build_recorded};
use wfbn_core::obs::{Counter, Stage};
use wfbn_core::{CoreMetrics, MetricsReport};
use wfbn_data::{Dataset, Generator, Schema, UniformIndependent};
use wfbn_pram::{
    simulate_all_pairs_mi, simulate_striped_build, simulate_waitfree_build,
    simulate_waitfree_build_batched, CostModel,
};

/// Measurement mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// PRAM cost-model simulation (deterministic; default).
    Sim,
    /// Real threads + wall clock.
    Wall,
    /// Both.
    Both,
}

impl Mode {
    /// `true` if simulated series should run.
    pub fn sim(self) -> bool {
        matches!(self, Mode::Sim | Mode::Both)
    }

    /// `true` if wall-clock series should run.
    pub fn wall(self) -> bool {
        matches!(self, Mode::Wall | Mode::Both)
    }
}

/// Median of `k` wall-clock timings of `f`, in seconds.
pub fn wall_time_median<F: FnMut()>(k: usize, mut f: F) -> f64 {
    assert!(k > 0);
    let mut times: Vec<f64> = (0..k)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite durations"));
    times[times.len() / 2]
}

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

/// Wall-clock table-construction series (wait-free, real threads).
pub fn wall_waitfree_series(data: &Dataset, cores: &[usize], label: &str, reps: usize) -> Series {
    let mut s = Series::new(format!("{label} wait-free (wall)"));
    for &p in cores {
        let secs = wall_time_median(reps, || {
            let built = waitfree_build(data, p).expect("non-empty data");
            std::hint::black_box(built.table.num_entries());
        });
        s.points.push((p, secs));
    }
    s
}

/// Wall-clock table-construction series (striped-lock, real threads).
pub fn wall_striped_series(data: &Dataset, cores: &[usize], label: &str, reps: usize) -> Series {
    let mut s = Series::new(format!("{label} striped-lock (wall)"));
    let builder = StripedLockBuilder::default();
    for &p in cores {
        let secs = wall_time_median(reps, || {
            let map = builder.build_map(data, p).expect("non-empty data");
            std::hint::black_box(map.num_stripes());
        });
        s.points.push((p, secs));
    }
    s
}

/// Wall-clock all-pairs MI series (real threads).
pub fn wall_allpairs_series(data: &Dataset, cores: &[usize], label: &str, reps: usize) -> Series {
    let table = waitfree_build(data, cores.iter().copied().max().unwrap_or(1))
        .expect("non-empty data")
        .table;
    let mut s = Series::new(format!("{label} all-pairs MI (wall)"));
    for &p in cores {
        let secs = wall_time_median(reps, || {
            let mi = wfbn_core::allpairs::all_pairs_mi(&table, p);
            std::hint::black_box(mi.get(0, 1));
        });
        s.points.push((p, secs));
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
    let coalesced = report.total(Counter::KeysCoalesced);
    if blocks > 0 || coalesced > 0 {
        out.push_str(&format!(
            "- batching: {blocks} blocks flushed, {coalesced} keys coalesced\n"
        ));
    }
    out
}

/// Prints the standard banner: host parallelism and mode caveats.
pub fn print_host_banner(mode: Mode) {
    let host_cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    println!("host parallelism: {host_cores} hardware thread(s)");
    if mode.wall() && host_cores < 8 {
        println!(
            "note: wall-clock speedups are bounded by the {host_cores} available \
             hardware thread(s); the sim series reproduces the paper's 32-core platform."
        );
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_flags() {
        assert!(Mode::Sim.sim() && !Mode::Sim.wall());
        assert!(!Mode::Wall.sim() && Mode::Wall.wall());
        assert!(Mode::Both.sim() && Mode::Both.wall());
    }

    #[test]
    fn wall_time_median_is_positive() {
        let t = wall_time_median(3, || {
            std::hint::black_box((0..1000u64).sum::<u64>());
        });
        assert!(t >= 0.0);
    }

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
    fn wall_series_run_on_tiny_inputs() {
        let data = uniform_workload(8, 500, 2);
        let cores = [1usize, 2];
        for s in [
            wall_waitfree_series(&data, &cores, "t", 1),
            wall_striped_series(&data, &cores, "t", 1),
            wall_allpairs_series(&data, &cores, "t", 1),
        ] {
            assert_eq!(s.points.len(), 2);
        }
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
