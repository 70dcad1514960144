//! One-shot reproduction driver: regenerates every figure of the paper
//! (simulated mode), checks the headline claims programmatically, and
//! writes the series to `results/` as CSV.
//!
//! ```text
//! cargo run -p wfbn-bench --release --bin repro
//! ```
//!
//! Wall-clock numbers for the same primitives come from `benchmark/`.

use wfbn_bench::args::HarnessArgs;
use wfbn_bench::runner::{
    format_stage_breakdown, metrics_allpairs_report, print_host_banner, sim_allpairs_series,
    sim_striped_series, sim_waitfree_series, uniform_workload,
};
use wfbn_bench::series::{format_markdown_table, write_csvs, Series};
use wfbn_core::obs::{Counter, Stage};

struct Check {
    name: &'static str,
    pass: bool,
    detail: String,
}

fn main() {
    let mut args = HarnessArgs::from_env();
    if args.out_dir.is_none() {
        args.out_dir = Some("results".to_string());
    }
    let out_dir = args.out_dir.clone().expect("set above");
    let mut checks: Vec<Check> = Vec::new();
    let mut everything: Vec<Series> = Vec::new();

    println!("# wfbn reproduction run\n");
    print_host_banner();

    // ---------- Figure 3: construction vs m (n = 30). ----------
    let fig3_samples: Vec<usize> = if args.paper_scale {
        vec![100_000, 1_000_000, 10_000_000]
    } else {
        vec![10_000, 100_000, 1_000_000]
    };
    println!("## Figure 3 — construction vs samples (n = 30)\n");
    let mut fig3: Vec<Series> = Vec::new();
    for &m in &fig3_samples {
        let data = uniform_workload(30, m, args.seed);
        let label = format!("m={m}");
        fig3.push(sim_waitfree_series(&data, &args.cores, &label));
        fig3.push(sim_striped_series(&data, &args.cores, &label));
    }
    println!("{}", format_markdown_table(&fig3));

    // Shape checks on the simulated series.
    let wf_last = fig3
        .iter()
        .rfind(|s| s.label.contains("wait-free (sim)"))
        .expect("sim series exist");
    let tbb_last = fig3
        .iter()
        .rfind(|s| s.label.contains("TBB-analog (sim)"))
        .expect("sim series exist");
    let wf_speedup = *wf_last.speedups().last().expect("points");
    let tbb_speedups = tbb_last.speedups();
    let tbb_peak = tbb_speedups.iter().cloned().fold(0.0, f64::max);
    let tbb_final = *tbb_speedups.last().expect("points");
    let max_cores = *args.cores.last().expect("cores") as f64;
    checks.push(Check {
        name: "Fig3/headline: wait-free speedup near-linear (paper: 23.5× at 32)",
        pass: wf_speedup > 0.5 * max_cores,
        detail: format!("{wf_speedup:.1}× at {max_cores} cores"),
    });
    checks.push(Check {
        name: "Fig3b: TBB-analog speedup degrades past its peak",
        pass: tbb_final < tbb_peak,
        detail: format!("peak {tbb_peak:.1}×, final {tbb_final:.1}×"),
    });
    checks.push(Check {
        name: "Fig3: wait-free beats TBB-analog at max cores",
        pass: wf_speedup > tbb_final,
        detail: format!("{wf_speedup:.1}× vs {tbb_final:.1}×"),
    });
    // Linear-in-m: time(largest m) / time(smallest m) ≈ m-ratio at
    // fixed cores.
    let sim_time_for = |m: usize| {
        fig3.iter()
            .find(|s| s.label == format!("m={m} wait-free (sim)"))
            .expect("sim series exists")
            .points[0]
            .1
    };
    let t_small = sim_time_for(fig3_samples[0]);
    let t_big = sim_time_for(*fig3_samples.last().expect("non-empty"));
    let ratio = t_big / t_small;
    let expected = fig3_samples[fig3_samples.len() - 1] as f64 / fig3_samples[0] as f64;
    checks.push(Check {
        name: "Fig3a: running time linear in m (equal log-gaps)",
        pass: (0.5 * expected..=1.5 * expected).contains(&ratio),
        detail: format!("time ratio {ratio:.1} for m ratio {expected:.0}"),
    });
    everything.extend(fig3);

    // ---------- Figure 4: construction vs n (fixed m). ----------
    let fig4_m = if args.paper_scale {
        10_000_000
    } else {
        200_000
    };
    println!("## Figure 4 — construction vs variables (m = {fig4_m})\n");
    let mut fig4: Vec<Series> = Vec::new();
    for &n in &[30usize, 40, 50] {
        let data = uniform_workload(n, fig4_m, args.seed);
        let label = format!("n={n}");
        fig4.push(sim_waitfree_series(&data, &args.cores, &label));
        fig4.push(sim_striped_series(&data, &args.cores, &label));
    }
    println!("{}", format_markdown_table(&fig4));
    // Linear-in-n: single-core times for n = 30/40/50 should be evenly
    // spaced (equal gaps — the paper's stated observation).
    let t: Vec<f64> = fig4
        .iter()
        .filter(|s| s.label.contains("wait-free (sim)"))
        .map(|s| s.points[0].1)
        .collect();
    let gap1 = t[1] - t[0];
    let gap2 = t[2] - t[1];
    checks.push(Check {
        name: "Fig4a: running time linear in n (equal gaps 30→40→50)",
        pass: gap1 > 0.0 && (gap2 / gap1) > 0.7 && (gap2 / gap1) < 1.3,
        detail: format!("gaps {gap1:.2e}s vs {gap2:.2e}s"),
    });
    everything.extend(fig4);

    // ---------- Figure 5: all-pairs MI vs n. ----------
    let fig5_m = if args.paper_scale {
        10_000_000
    } else {
        100_000
    };
    println!("## Figure 5 — all-pairs mutual information (m = {fig5_m})\n");
    let mut fig5: Vec<Series> = Vec::new();
    for &n in &[30usize, 40, 50] {
        let data = uniform_workload(n, fig5_m, args.seed);
        let label = format!("n={n}");
        fig5.push(sim_allpairs_series(&data, &args.cores, &label));
    }
    println!("{}", format_markdown_table(&fig5));
    for s in fig5.iter().filter(|s| s.label.contains("(sim)")) {
        let speedups = s.speedups();
        let monotone = speedups.windows(2).all(|w| w[1] > w[0]);
        checks.push(Check {
            name: "Fig5b: all-pairs MI speedup grows with cores",
            pass: monotone,
            detail: format!("{}: {:?}", s.label, round_all(&speedups)),
        });
    }
    everything.extend(fig5);

    // ---------- Instrumented pass (--metrics). ----------
    if args.metrics {
        let metrics_m = 100_000;
        let metrics_n = 30;
        let p = *args.cores.iter().max().expect("cores");
        println!("## Instrumented pass — build + all-pairs MI (n = {metrics_n}, m = {metrics_m}, p = {p})\n");
        let data = uniform_workload(metrics_n, metrics_m, args.seed);
        let report = metrics_allpairs_report(&data, p);
        println!("{}", format_stage_breakdown(&report));
        println!("{}", report.to_json());

        // Conservation checks on the emitted telemetry.
        let per_core_rows: Vec<u64> = report
            .cores
            .iter()
            .map(|c| c.counter(Counter::RowsEncoded))
            .collect();
        let rows: u64 = per_core_rows.iter().sum();
        checks.push(Check {
            name: "Metrics: per-core row counts sum to m",
            pass: rows == metrics_m as u64,
            detail: format!("{per_core_rows:?} sums to {rows} (m = {metrics_m})"),
        });
        checks.push(Check {
            name: "Metrics: routed keys conserved (local + forwarded = m, forwarded = drained)",
            pass: report.total(Counter::LocalUpdates) + report.total(Counter::Forwarded)
                == metrics_m as u64
                && report.total(Counter::Forwarded) == report.total(Counter::Drained),
            detail: format!(
                "{} local + {} forwarded, {} drained",
                report.total(Counter::LocalUpdates),
                report.total(Counter::Forwarded),
                report.total(Counter::Drained)
            ),
        });
        checks.push(Check {
            name: "Metrics: every stage observed wall time",
            pass: Stage::ALL
                .iter()
                .all(|&s| s == Stage::Barrier || report.stage_total_ns(s) > 0),
            detail: Stage::ALL
                .map(|s| format!("{}={}ns", s.name(), report.stage_total_ns(s)))
                .join(" "),
        });
        let json_path = format!("{out_dir}/metrics.json");
        std::fs::create_dir_all(&out_dir).expect("creating results dir");
        std::fs::write(&json_path, report.to_json()).expect("writing metrics.json");
        println!("metrics report written to {json_path}\n");
    }

    // ---------- Verdicts. ----------
    println!("## Reproduction checks\n");
    let mut failed = 0;
    for c in &checks {
        let mark = if c.pass { "PASS" } else { "FAIL" };
        if !c.pass {
            failed += 1;
        }
        println!("- [{mark}] {} — {}", c.name, c.detail);
    }
    println!();
    write_csvs(&out_dir, &everything).expect("writing CSV output");
    println!(
        "CSV series written to {out_dir}/ ({} files)",
        everything.len()
    );
    if failed > 0 {
        eprintln!("{failed} reproduction check(s) FAILED");
        std::process::exit(1);
    }
}

fn round_all(v: &[f64]) -> Vec<f64> {
    v.iter().map(|x| (x * 100.0).round() / 100.0).collect()
}
