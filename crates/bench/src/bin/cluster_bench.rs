//! Cluster shard scaling: fan-out query cost versus shard count, in
//! simulated cycles *and* wall time, on the cluster workload of the
//! simulated-cost baseline ([`wfbn_bench::snapshot`]).
//!
//! The sim series is deterministic; its cycles and the S = 8 scaling floor
//! are checked against `crates/bench/sim_baseline.txt` by `cargo test`.
//! The wall series runs a real cluster per shard count and is context only
//! — it depends on the host.
//!
//! Usage: `cluster_bench [--queries Q]` (wall queries per shard count,
//! default 64).

use wfbn_bench::cluster_bench::{sim_cluster_scaling, wall_cluster_qps};
use wfbn_bench::runner::uniform_workload;
use wfbn_bench::snapshot::{CLUSTER_SAMPLES, CLUSTER_VARS, CORES_PER_SHARD, SEED, SHARDS};
use wfbn_pram::CostModel;

fn parse_args() -> Result<usize, String> {
    let mut queries = 64;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--queries" => {
                let raw = it.next().ok_or("--queries expects a value")?;
                queries = match raw.parse() {
                    Ok(q) if q > 0 => q,
                    _ => return Err(format!("invalid value {raw:?} for --queries")),
                };
            }
            other => {
                return Err(format!(
                    "unknown flag {other:?} (usage: cluster_bench [--queries Q])"
                ))
            }
        }
    }
    Ok(queries)
}

fn main() {
    let queries = parse_args().unwrap_or_else(|e| {
        eprintln!("cluster_bench: {e}");
        std::process::exit(2);
    });
    let data = uniform_workload(CLUSTER_VARS, CLUSTER_SAMPLES, SEED);
    let sim = sim_cluster_scaling(&data, &SHARDS, CORES_PER_SHARD, &CostModel::default());
    let wall_qps = wall_cluster_qps(&data, &SHARDS, queries);

    println!(
        "# Cluster fan-out vs shards (n = {CLUSTER_VARS}, m = {CLUSTER_SAMPLES}, \
         {CORES_PER_SHARD} cores/shard, seed {SEED})\n"
    );
    println!("| shards | sim cycles/query | sim scaling | wall queries/s |");
    println!("|-------:|-----------------:|------------:|---------------:|");
    for (i, s) in SHARDS.iter().enumerate() {
        println!(
            "| {s} | {:.1} | {:.3} | {:.0} |",
            sim.cycles_per_query[i], sim.scaling[i], wall_qps[i]
        );
    }
}
