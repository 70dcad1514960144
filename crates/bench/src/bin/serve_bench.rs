//! Serving throughput — queries per unit time versus the number of reader
//! endpoints of a `wfbn-serve` engine, from the PRAM cost model.
//!
//! The series is gated: it models each pair-marginal query as
//! a single partition scan and scales linearly with readers (the read path
//! shares no mutable state). Wall-clock serve numbers come from `benchmark/`.

use wfbn_bench::args::HarnessArgs;
use wfbn_bench::runner::print_host_banner;
use wfbn_bench::serve_bench::{serve_workload, sim_serve_scaling};
use wfbn_pram::CostModel;

fn main() {
    let mut args = HarnessArgs::from_env();
    if args.vars.is_empty() {
        args.vars = vec![12];
    }
    let n = *args.vars.iter().max().expect("non-empty vars");
    let m = args.samples.iter().copied().min().unwrap_or(100_000);
    let readers = args.cores.clone();
    println!("# Serving throughput vs readers (n = {n}, m = {m})");
    print_host_banner();

    let data = serve_workload(n, m, args.seed);
    let sim = sim_serve_scaling(&data, &readers, &CostModel::default());
    println!("\n## sim (deterministic capacity model)\n");
    println!("cycles/query: {:.1}", sim.cycles_per_query);
    println!("| readers | qps/Mcycle | scaling |");
    println!("|--------:|-----------:|--------:|");
    for (i, &r) in readers.iter().enumerate() {
        println!(
            "| {r} | {:.2} | {:.2} |",
            sim.qps_per_megacycle[i], sim.scaling[i]
        );
    }
}
