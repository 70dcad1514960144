//! Cluster shard scaling: fan-out query cost versus shard count, in
//! simulated cycles, on the cluster workload of the simulated-cost baseline
//! ([`wfbn_bench::snapshot`]).
//!
//! The series is deterministic; its cycles and the S = 8 scaling floor are
//! checked against `crates/bench/sim_baseline.txt` by `cargo test`.
//!
//! Usage: `cluster_bench` (it takes no flags).

use wfbn_bench::cluster_bench::sim_cluster_scaling;
use wfbn_bench::runner::uniform_workload;
use wfbn_bench::snapshot::{CLUSTER_SAMPLES, CLUSTER_VARS, CORES_PER_SHARD, SEED, SHARDS};
use wfbn_pram::CostModel;

fn main() {
    if let Some(flag) = std::env::args().nth(1) {
        eprintln!("cluster_bench: unknown flag {flag:?} (usage: cluster_bench)");
        std::process::exit(2);
    }
    let data = uniform_workload(CLUSTER_VARS, CLUSTER_SAMPLES, SEED);
    let sim = sim_cluster_scaling(&data, &SHARDS, CORES_PER_SHARD, &CostModel::default());

    println!(
        "# Cluster fan-out vs shards (n = {CLUSTER_VARS}, m = {CLUSTER_SAMPLES}, \
         {CORES_PER_SHARD} cores/shard, seed {SEED})\n"
    );
    println!("| shards | sim cycles/query | sim scaling |");
    println!("|-------:|-----------------:|------------:|");
    for (i, s) in SHARDS.iter().enumerate() {
        println!(
            "| {s} | {:.1} | {:.3} |",
            sim.cycles_per_query[i], sim.scaling[i]
        );
    }
}
