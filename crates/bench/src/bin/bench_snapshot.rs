//! One-shot benchmark snapshot across the fig. 3/4/5 workload shapes plus
//! the serve-throughput series, serialized as a JSON document
//! (`BENCH_pr4.json` in CI): the simulated cycles of the pram scalar and
//! batched cost models, and the wall time of the one build path.
//!
//! The committed snapshot is the regression baseline for
//! `tools/check_bench_regression.sh`: simulated cycles are deterministic
//! (same dataset + same cost model ⇒ same number), so any >10% drift in the
//! batched series is a real model/algorithm change, not noise. Wall numbers
//! are recorded for context but never gated on — they depend on the host.
//!
//! Usage: `bench_snapshot [--out FILE] [--samples M] [--vars N]
//! [--cores LIST] [--seed S] [--reps K]`.

use std::time::Instant;
use wfbn_bench::runner::uniform_workload;
use wfbn_bench::serve_bench::{serve_workload, sim_serve_scaling, wall_serve_qps};
use wfbn_core::construct::waitfree_build;
use wfbn_pram::{
    simulate_all_pairs_mi, simulate_waitfree_build, simulate_waitfree_build_batched, CostModel,
};

struct Config {
    out: Option<String>,
    samples: usize,
    vars: usize,
    cores: Vec<usize>,
    seed: u64,
    reps: usize,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            out: None,
            // The paper's fig. 3 lower scale (0.1M samples): large enough
            // that the per-core tables outgrow L2 — the regime the batched
            // paths (prefetch + ILP encode) are designed for.
            samples: 100_000,
            vars: 30,
            cores: vec![1, 2, 4, 8],
            seed: 42,
            reps: 5,
        }
    }
}

fn parse_args() -> Config {
    let mut cfg = Config::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("{flag} expects a value");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--out" => cfg.out = Some(value("--out")),
            "--samples" | "-m" => cfg.samples = value("--samples").parse().expect("usize"),
            "--vars" | "-n" => cfg.vars = value("--vars").parse().expect("usize"),
            "--seed" => cfg.seed = value("--seed").parse().expect("u64"),
            "--reps" => cfg.reps = value("--reps").parse().expect("usize"),
            "--cores" | "-p" => {
                cfg.cores = value("--cores")
                    .split(',')
                    .map(|s| s.trim().parse().expect("usize"))
                    .collect();
            }
            other => {
                eprintln!("unknown flag {other:?}");
                std::process::exit(2);
            }
        }
    }
    cfg
}

fn wall_ns_median<F: FnMut()>(reps: usize, mut f: F) -> u128 {
    let mut times: Vec<u128> = (0..reps.max(1))
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_nanos()
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2]
}

fn json_f64_array(values: &[f64]) -> String {
    let parts: Vec<String> = values.iter().map(|v| format!("{v:.3}")).collect();
    format!("[{}]", parts.join(","))
}

fn json_u128_array(values: &[u128]) -> String {
    let parts: Vec<String> = values.iter().map(u128::to_string).collect();
    format!("[{}]", parts.join(","))
}

fn json_usize_array(values: &[usize]) -> String {
    let parts: Vec<String> = values.iter().map(usize::to_string).collect();
    format!("[{}]", parts.join(","))
}

fn main() {
    let cfg = parse_args();
    let model = CostModel::default();
    let (n, m) = (cfg.vars, cfg.samples);
    let data = uniform_workload(n, m, cfg.seed);

    // ---- fig3 shape: construction vs cores (sim: scalar vs batched model). ----
    let mut sim_scalar = Vec::new();
    let mut sim_batched = Vec::new();
    let mut wall_ns: Vec<u128> = Vec::new();
    for &p in &cfg.cores {
        let (s, _) = simulate_waitfree_build(&data, p, &model);
        let (b, _) = simulate_waitfree_build_batched(&data, p, &model);
        sim_scalar.push(s.elapsed_cycles);
        sim_batched.push(b.elapsed_cycles);
        wall_ns.push(wall_ns_median(cfg.reps, || {
            std::hint::black_box(waitfree_build(&data, p).expect("data").table.num_entries());
        }));
    }
    let sim_advantage: Vec<f64> = sim_scalar
        .iter()
        .zip(&sim_batched)
        .map(|(s, b)| s / b)
        .collect();
    let speedup_scalar: Vec<f64> = sim_scalar.iter().map(|c| sim_scalar[0] / c).collect();
    let speedup_batched: Vec<f64> = sim_batched.iter().map(|c| sim_batched[0] / c).collect();

    // ---- fig4 shape: construction vs variables at max cores. ----
    let pmax = cfg.cores.iter().copied().max().unwrap_or(1);
    let fig4_vars = [n, n + 10, n + 20];
    let mut fig4_scalar = Vec::new();
    let mut fig4_batched = Vec::new();
    for &nv in &fig4_vars {
        let d = uniform_workload(nv, m, cfg.seed);
        fig4_scalar.push(simulate_waitfree_build(&d, pmax, &model).0.elapsed_cycles);
        fig4_batched.push(
            simulate_waitfree_build_batched(&d, pmax, &model)
                .0
                .elapsed_cycles,
        );
    }

    // ---- fig5 shape: all-pairs MI vs cores (built on the batched table). ----
    let (_, table) = simulate_waitfree_build_batched(&data, pmax, &model);
    let fig5_cycles: Vec<f64> = cfg
        .cores
        .iter()
        .map(|&p| simulate_all_pairs_mi(&table, p, &model).elapsed_cycles)
        .collect();

    // ---- serve shape: query throughput vs reader endpoints. ----
    // A smaller live table than the build workloads: the serve wall series
    // runs real engine + reader threads per point and must stay cheap.
    let serve_n = 12;
    let serve_m = m.min(20_000);
    let serve_data = serve_workload(serve_n, serve_m, cfg.seed);
    let serve_sim = sim_serve_scaling(&serve_data, &cfg.cores, &model);
    let serve_wall_qps = wall_serve_qps(&serve_data, &cfg.cores, 50);

    let p8_index = cfg.cores.iter().position(|&p| p == 8);
    let acceptance_sim = p8_index.map(|i| sim_advantage[i]).unwrap_or(0.0);
    let acceptance_serve = p8_index.map(|i| serve_sim.scaling[i]).unwrap_or(0.0);

    let json = format!(
        "{{\n  \"schema\": \"wfbn-bench-pr4\",\n  \"workload\": {{\"n\": {n}, \"m\": {m}, \"seed\": {seed}}},\n  \"cores\": {cores},\n  \"fig3\": {{\n    \"sim_scalar_cycles\": {ss},\n    \"sim_batched_cycles\": {sb},\n    \"sim_batched_advantage\": {sa},\n    \"wall_ns\": {wn},\n    \"speedup_scalar\": {sps},\n    \"speedup_batched\": {spb}\n  }},\n  \"fig4\": {{\n    \"vars\": {f4v},\n    \"cores\": {pmax},\n    \"sim_scalar_cycles\": {f4s},\n    \"sim_batched_cycles\": {f4b}\n  }},\n  \"fig5\": {{\n    \"sim_allpairs_cycles\": {f5}\n  }},\n  \"serve\": {{\n    \"workload\": {{\"n\": {sn}, \"m\": {sm}, \"seed\": {seed}}},\n    \"readers\": {cores},\n    \"sim_cycles_per_query\": {scq:.3},\n    \"sim_qps_per_megacycle\": {sqm},\n    \"sim_scaling\": {ssc},\n    \"wall_qps\": {swq}\n  }},\n  \"acceptance\": {{\n    \"sim_p8_advantage\": {asim:.3},\n    \"serve_p8_scaling\": {aserve:.3}\n  }}\n}}",
        seed = cfg.seed,
        cores = json_usize_array(&cfg.cores),
        ss = json_f64_array(&sim_scalar),
        sb = json_f64_array(&sim_batched),
        sa = json_f64_array(&sim_advantage),
        wn = json_u128_array(&wall_ns),
        sps = json_f64_array(&speedup_scalar),
        spb = json_f64_array(&speedup_batched),
        f4v = json_usize_array(&fig4_vars),
        f4s = json_f64_array(&fig4_scalar),
        f4b = json_f64_array(&fig4_batched),
        f5 = json_f64_array(&fig5_cycles),
        sn = serve_n,
        sm = serve_m,
        scq = serve_sim.cycles_per_query,
        sqm = json_f64_array(&serve_sim.qps_per_megacycle),
        ssc = json_f64_array(&serve_sim.scaling),
        swq = json_f64_array(&serve_wall_qps),
        asim = acceptance_sim,
        aserve = acceptance_serve,
    );

    match &cfg.out {
        Some(path) => {
            std::fs::write(path, format!("{json}\n")).expect("writing snapshot");
            eprintln!("snapshot written to {path}");
            eprintln!(
                "acceptance: sim P=8 advantage {acceptance_sim:.3}x, serve P=8 scaling {acceptance_serve:.3}x"
            );
        }
        None => println!("{json}"),
    }
}
