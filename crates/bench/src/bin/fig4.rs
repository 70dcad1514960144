//! Figure 4 — scalability of wait-free table construction vs the TBB-like
//! concurrent hash table, as the number of random variables `n` varies.
//!
//! Paper setting: m = 10M samples; n ∈ {30, 40, 50}; cores 1–32. The paper
//! observes running time linear in n (equal gaps between curves) and a
//! wait-free-vs-TBB gap that widens with cores.

use wfbn_bench::args::HarnessArgs;
use wfbn_bench::runner::{
    format_stage_breakdown, metrics_waitfree_report, print_host_banner, sim_striped_series,
    sim_waitfree_batched_series, sim_waitfree_series, uniform_workload,
};
use wfbn_bench::series::{format_markdown_table, write_csvs, Series};

fn main() {
    let mut args = HarnessArgs::from_env();
    // Figure-4 defaults: sweep n, fixed m.
    if args.vars.is_empty() {
        args.vars = vec![30, 40, 50];
    }
    let m = if args.paper_scale {
        10_000_000
    } else {
        args.samples.iter().copied().min().unwrap_or(100_000)
    };
    println!("# Figure 4 — table construction vs variables (m = {m})");
    print_host_banner();

    let mut all: Vec<Series> = Vec::new();
    for &n in &args.vars {
        let label = format!("n={n}");
        let data = uniform_workload(n, m, args.seed);
        all.push(sim_waitfree_series(&data, &args.cores, &label));
        all.push(sim_waitfree_batched_series(&data, &args.cores, &label));
        all.push(sim_striped_series(&data, &args.cores, &label));
    }
    println!("{}", format_markdown_table(&all));

    println!("## Shape checks (paper Fig. 4)\n");
    for s in &all {
        if let Some(&last) = s.speedups().last() {
            println!("- {}: final speedup {last:.2}×", s.label);
        }
    }
    if args.metrics {
        let p = *args.cores.iter().max().expect("non-empty cores");
        let n = *args.vars.iter().max().expect("non-empty vars");
        let report = metrics_waitfree_report(&uniform_workload(n, m, args.seed), p);
        println!("## Instrumented build (n = {n}, p = {p})\n");
        println!("{}", format_stage_breakdown(&report));
        println!("{}", report.to_json());
    }
    if let Some(dir) = &args.out_dir {
        write_csvs(dir, &all).expect("writing CSV output");
        println!("\nCSV series written to {dir}/");
    }
}
