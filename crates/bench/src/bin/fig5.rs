//! Figure 5 — scalability of all-pairs mutual information (the drafting
//! phase's statistics test) with the number of variables and cores.
//!
//! Paper setting: m = 10M samples; n ∈ {30, 40, 50}; cores 1–32; the
//! marginalization primitive computes the pairwise joint once per pair and
//! derives both singleton marginals from it.

use wfbn_bench::args::HarnessArgs;
use wfbn_bench::runner::{
    format_stage_breakdown, metrics_allpairs_report, print_host_banner, sim_allpairs_series,
    uniform_workload,
};
use wfbn_bench::series::{format_markdown_table, write_csvs, Series};

fn main() {
    let mut args = HarnessArgs::from_env();
    if args.vars.is_empty() {
        args.vars = vec![30, 40, 50];
    }
    let m = if args.paper_scale {
        10_000_000
    } else {
        args.samples.iter().copied().min().unwrap_or(100_000)
    };
    println!("# Figure 5 — all-pairs mutual information vs variables (m = {m})");
    print_host_banner();

    let mut all: Vec<Series> = Vec::new();
    for &n in &args.vars {
        let label = format!("n={n}");
        let data = uniform_workload(n, m, args.seed);
        all.push(sim_allpairs_series(&data, &args.cores, &label));
    }
    println!("{}", format_markdown_table(&all));

    println!("## Shape checks (paper Fig. 5)\n");
    for s in &all {
        if let Some(&last) = s.speedups().last() {
            println!(
                "- {}: final speedup {last:.2}× (paper: near-linear decrease in runtime)",
                s.label
            );
        }
    }
    if args.metrics {
        let p = *args.cores.iter().max().expect("non-empty cores");
        let n = *args.vars.iter().max().expect("non-empty vars");
        let report = metrics_allpairs_report(&uniform_workload(n, m, args.seed), p);
        println!("\n## Instrumented build + all-pairs MI (n = {n}, p = {p})\n");
        println!("{}", format_stage_breakdown(&report));
        println!("{}", report.to_json());
    }
    if let Some(dir) = &args.out_dir {
        write_csvs(dir, &all).expect("writing CSV output");
        println!("\nCSV series written to {dir}/");
    }
}
