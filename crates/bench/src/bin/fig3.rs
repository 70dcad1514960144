//! Figure 3 — scalability of wait-free table construction vs the TBB-like
//! concurrent hash table, as the number of samples `m` varies.
//!
//! Paper setting: n = 30 binary variables; m ∈ {0.1M, 1M, 10M}; cores
//! 1–32; panel (a) running time (log y), panel (b) speedup.
//!
//! Default here is a 10×-scaled-down sweep (simulation executes every table
//! operation, so full paper scale is available via `--paper-scale` when you
//! have the minutes to spend).

use wfbn_bench::args::HarnessArgs;
use wfbn_bench::runner::{
    format_stage_breakdown, metrics_waitfree_report, print_host_banner, sim_striped_series,
    sim_waitfree_batched_series, sim_waitfree_series, uniform_workload,
};
use wfbn_bench::series::{format_markdown_table, write_csvs, Series};

fn main() {
    let mut args = HarnessArgs::from_env();
    if args.paper_scale {
        args.samples = vec![100_000, 1_000_000, 10_000_000];
    }
    let n = args.vars.first().copied().unwrap_or(30);
    println!("# Figure 3 — table construction vs samples (n = {n})");
    print_host_banner();

    let mut all: Vec<Series> = Vec::new();
    for &m in &args.samples {
        let label = format!("m={m}");
        let data = uniform_workload(n, m, args.seed);
        all.push(sim_waitfree_series(&data, &args.cores, &label));
        all.push(sim_waitfree_batched_series(&data, &args.cores, &label));
        all.push(sim_striped_series(&data, &args.cores, &label));
    }
    println!("{}", format_markdown_table(&all));
    summarize(&all);
    if args.metrics {
        let p = *args.cores.iter().max().expect("non-empty cores");
        let m = *args.samples.iter().max().expect("non-empty samples");
        let report = metrics_waitfree_report(&uniform_workload(n, m, args.seed), p);
        println!("## Instrumented build (m = {m}, p = {p})\n");
        println!("{}", format_stage_breakdown(&report));
        println!("{}", report.to_json());
    }
    if let Some(dir) = &args.out_dir {
        write_csvs(dir, &all).expect("writing CSV output");
        println!("CSV series written to {dir}/");
    }
}

fn summarize(all: &[Series]) {
    println!("## Shape checks (paper Fig. 3)\n");
    for s in all {
        let speedups = s.speedups();
        if let (Some(&(pmax, _)), Some(&smax)) = (s.points.last(), speedups.last()) {
            println!("- {}: speedup {smax:.2}× at {pmax} cores", s.label);
        }
    }
    println!();
}
