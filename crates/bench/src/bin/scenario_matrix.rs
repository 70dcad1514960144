//! The PR 7 workload scenario matrix: every `wfbn-workload` scenario
//! replayed against a live engine, with the latency/fairness SLO gates
//! enforced and a deterministic regression snapshot emitted
//! (`BENCH_pr7.json` in CI).
//!
//! Two measurement planes per scenario, mirroring the rest of the harness:
//!
//! * **deterministic** — the workload *fingerprint* (FNV-1a over the exact
//!   row/query bytes a deployment replays) and the simulated
//!   cycles-per-query of the scenario's table under the capacity model.
//!   Both are pure functions of the spec, so
//!   `tools/check_bench_regression.sh` pins them exactly (fingerprint) and
//!   within 10% (cycles).
//! * **wall** — real replay through reader threads racing the writer:
//!   nearest-rank p50/p99/p999 per-query latency, per-reader served
//!   counts, and the two SLO gates. Wall numbers are context, but the
//!   *gates* are hard: any failure exits non-zero.
//!
//! `--sim-only` skips the replay (and the gates) — that is the mode the
//! regression checker regenerates under, so its verdicts never depend on
//! host scheduling. `--negative-control` replays the seeded
//! `starve-reader` scenario instead and exits zero only if the fairness
//! gate *fires* — CI's proof that the gate can fail.
//!
//! Usage: `scenario_matrix [--out FILE] [--rows R] [--batches B]
//! [--queries Q] [--readers N] [--threads P] [--seed S] [--sim-only]
//! [--negative-control]`.

use wfbn_data::Dataset;
use wfbn_pram::{simulate_all_pairs_mi, simulate_waitfree_build_batched, CostModel};
use wfbn_workload::{
    check_fairness, check_skew_p99, generate, replay, GeneratedWorkload, IngestEvent,
    ReplayConfig, Scenario, ScenarioReport, WorkloadSpec, FAIRNESS_BOUND, MIN_SKEW_SAMPLES,
    SKEW_P99_MULTIPLE,
};

struct Config {
    out: Option<String>,
    rows: usize,
    batches: usize,
    queries: usize,
    readers: usize,
    threads: usize,
    seed: u64,
    sim_only: bool,
    negative_control: bool,
}

impl Default for Config {
    fn default() -> Self {
        let spec = WorkloadSpec::matrix_default(Scenario::Uniform);
        Self {
            out: None,
            rows: spec.rows,
            batches: spec.batches,
            queries: spec.queries,
            readers: spec.readers,
            threads: 2,
            seed: spec.seed,
            sim_only: false,
            negative_control: false,
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
            "--rows" => cfg.rows = value("--rows").parse().expect("usize"),
            "--batches" => cfg.batches = value("--batches").parse().expect("usize"),
            "--queries" => cfg.queries = value("--queries").parse().expect("usize"),
            "--readers" => cfg.readers = value("--readers").parse().expect("usize"),
            "--threads" | "-p" => cfg.threads = value("--threads").parse().expect("usize"),
            "--seed" => cfg.seed = value("--seed").parse().expect("u64"),
            "--sim-only" => cfg.sim_only = true,
            "--negative-control" => cfg.negative_control = true,
            other => {
                eprintln!("unknown flag {other:?}");
                std::process::exit(2);
            }
        }
    }
    cfg
}

fn spec_for(cfg: &Config, scenario: Scenario) -> WorkloadSpec {
    WorkloadSpec {
        scenario,
        rows: cfg.rows,
        batches: cfg.batches,
        queries: cfg.queries,
        readers: cfg.readers,
        seed: cfg.seed,
    }
}

/// Deterministic modeled cost of one query on this scenario's table: the
/// single-core all-pairs sweep divided by the pairs it answers — the same
/// capacity model `serve_bench` gates on, applied to the scenario's own
/// (skewed, sparse, or wide) data.
fn sim_cycles_per_query(workload: &GeneratedWorkload) -> f64 {
    let rows: Vec<&[u16]> = workload
        .ingest
        .iter()
        .filter_map(|e| match e {
            IngestEvent::Batch(rows) => Some(rows.iter().map(Vec::as_slice)),
            IngestEvent::Idle(_) => None,
        })
        .flatten()
        .collect();
    let data =
        Dataset::from_rows(workload.schema.clone(), &rows).expect("scenario rows fit the schema");
    let model = CostModel::default();
    let (_, table) = simulate_waitfree_build_batched(&data, 1, &model);
    let n = workload.schema.num_vars();
    let pairs = (n * (n - 1) / 2) as f64;
    simulate_all_pairs_mi(&table, 1, &model).elapsed_cycles / pairs
}

struct ScenarioRow {
    name: &'static str,
    fingerprint: u64,
    sim_cycles_per_query: f64,
    replay: Option<ScenarioReport>,
    fairness_verdict: Option<Result<f64, String>>,
    skew_verdict: Option<Result<bool, String>>,
}

fn json_u64_array(values: &[u64]) -> String {
    let parts: Vec<String> = values.iter().map(u64::to_string).collect();
    format!("[{}]", parts.join(","))
}

fn json_gate(result: Option<&Result<f64, String>>) -> String {
    match result {
        None => "\"skipped\"".to_string(),
        Some(Ok(_)) => "\"pass\"".to_string(),
        Some(Err(msg)) => format!("{:?}", msg),
    }
}

fn json_skew_gate(result: Option<&Result<bool, String>>) -> String {
    match result {
        None => "\"skipped\"".to_string(),
        Some(Ok(true)) => "\"pass\"".to_string(),
        Some(Ok(false)) => "\"not judged\"".to_string(),
        Some(Err(msg)) => format!("{:?}", msg),
    }
}

fn render(cfg: &Config, rows: &[ScenarioRow], all_pass: bool) -> String {
    let scenarios: Vec<String> = rows
        .iter()
        .map(|row| {
            let (p50, p99, p999, ratio, served, refused, epochs) = match &row.replay {
                Some(r) => (
                    r.p50_ns.to_string(),
                    r.p99_ns.to_string(),
                    r.p999_ns.to_string(),
                    if r.fairness_ratio().is_finite() {
                        format!("{:.3}", r.fairness_ratio())
                    } else {
                        "\"inf\"".to_string()
                    },
                    json_u64_array(&r.served_per_reader),
                    r.refused.to_string(),
                    r.epochs_published.to_string(),
                ),
                None => (
                    "null".into(),
                    "null".into(),
                    "null".into(),
                    "null".into(),
                    "null".into(),
                    "null".into(),
                    "null".into(),
                ),
            };
            format!(
                "    {{\n      \"name\": \"{name}\",\n      \"fingerprint\": \"{fp:016x}\",\n      \"sim_cycles_per_query\": {cyc:.3},\n      \"wall_p50_ns\": {p50},\n      \"wall_p99_ns\": {p99},\n      \"wall_p999_ns\": {p999},\n      \"served_per_reader\": {served},\n      \"fairness_ratio\": {ratio},\n      \"refused\": {refused},\n      \"epochs_published\": {epochs},\n      \"gates\": {{\"fairness\": {gf}, \"skew_p99\": {gs}}}\n    }}",
                name = row.name,
                fp = row.fingerprint,
                cyc = row.sim_cycles_per_query,
                gf = json_gate(row.fairness_verdict.as_ref()),
                gs = json_skew_gate(row.skew_verdict.as_ref()),
            )
        })
        .collect();
    format!(
        "{{\n  \"schema\": \"wfbn-bench-pr7\",\n  \"workload\": {{\"rows\": {rows}, \"batches\": {batches}, \"queries\": {queries}, \"readers\": {readers}, \"seed\": {seed}}},\n  \"partitions\": {threads},\n  \"scenarios\": [\n{scenarios}\n  ],\n  \"acceptance\": {{\n    \"fairness_bound\": {fb:.1},\n    \"skew_p99_multiple\": {sm:.1},\n    \"all_gates_pass\": {pass}\n  }}\n}}",
        rows = cfg.rows,
        batches = cfg.batches,
        queries = cfg.queries,
        readers = cfg.readers,
        seed = cfg.seed,
        threads = cfg.threads,
        scenarios = scenarios.join(",\n"),
        fb = FAIRNESS_BOUND,
        sm = SKEW_P99_MULTIPLE,
        pass = all_pass,
    )
}

/// Replays the seeded starvation scenario and exits zero only if the
/// fairness gate fired with the scenario and reader named — the negative
/// control CI runs to prove the gate is live.
fn run_negative_control(cfg: &Config) -> ! {
    let spec = spec_for(cfg, Scenario::StarveReader);
    let workload = generate(&spec).unwrap_or_else(|e| {
        eprintln!("negative control: {e}");
        std::process::exit(2);
    });
    let report = replay(&workload, &replay_config(cfg)).unwrap_or_else(|e| {
        eprintln!("negative control replay failed: {e}");
        std::process::exit(2);
    });
    match check_fairness(Scenario::StarveReader, &report.served_per_reader, FAIRNESS_BOUND) {
        Err(msg) if msg.contains("'starve-reader'") && msg.contains("reader") => {
            println!("negative control OK — fairness gate fired: {msg}");
            std::process::exit(0);
        }
        Err(msg) => {
            eprintln!("negative control FAILED — gate fired without naming the scenario/reader: {msg}");
            std::process::exit(1);
        }
        Ok(ratio) => {
            eprintln!(
                "negative control FAILED — starve-reader passed the fairness gate (ratio {ratio:.2})"
            );
            std::process::exit(1);
        }
    }
}

fn replay_config(cfg: &Config) -> ReplayConfig {
    ReplayConfig {
        partitions: cfg.threads,
        ..ReplayConfig::default()
    }
}

fn main() {
    let cfg = parse_args();
    if cfg.negative_control {
        run_negative_control(&cfg);
    }

    let mut rows: Vec<ScenarioRow> = Vec::new();
    let (mut uniform_p99, mut uniform_queries) = (0u64, 0usize);
    let mut all_pass = true;
    for scenario in Scenario::MATRIX {
        let spec = spec_for(&cfg, scenario);
        let workload = generate(&spec).unwrap_or_else(|e| {
            eprintln!("{}: {e}", scenario.name());
            std::process::exit(2);
        });
        let fingerprint = workload.fingerprint();
        let cycles = sim_cycles_per_query(&workload);
        let (report, fairness_verdict, skew_verdict) = if cfg.sim_only {
            (None, None, None)
        } else {
            let report = replay(&workload, &replay_config(&cfg)).unwrap_or_else(|e| {
                eprintln!("{} replay failed: {e}", scenario.name());
                std::process::exit(2);
            });
            if scenario == Scenario::Uniform {
                (uniform_p99, uniform_queries) = (report.p99_ns, report.total_queries);
            }
            let fairness =
                check_fairness(scenario, &report.served_per_reader, FAIRNESS_BOUND);
            let samples = report.total_queries.min(uniform_queries) as u64;
            let skew = check_skew_p99(
                scenario,
                report.p99_ns,
                uniform_p99,
                samples,
                SKEW_P99_MULTIPLE,
            );
            if let Err(msg) = &fairness {
                eprintln!("GATE FAILURE: {msg}");
                all_pass = false;
            }
            match &skew {
                Err(msg) => {
                    eprintln!("GATE FAILURE: {msg}");
                    all_pass = false;
                }
                Ok(false) => eprintln!(
                    "{}: skew gate not judged (fewer than {MIN_SKEW_SAMPLES} queries on a side)",
                    scenario.name()
                ),
                Ok(true) => {}
            }
            (Some(report), Some(fairness), Some(skew))
        };
        eprintln!(
            "{name}: fingerprint {fingerprint:016x}, {cycles:.1} sim cycles/query{wall}",
            name = scenario.name(),
            wall = match &report {
                Some(r) => format!(
                    ", p50/p99/p999 = {}/{}/{} ns, fairness {:.2}",
                    r.p50_ns,
                    r.p99_ns,
                    r.p999_ns,
                    r.fairness_ratio()
                ),
                None => String::new(),
            },
        );
        rows.push(ScenarioRow {
            name: scenario.name(),
            fingerprint,
            sim_cycles_per_query: cycles,
            replay: report,
            fairness_verdict,
            skew_verdict,
        });
    }

    let json = render(&cfg, &rows, all_pass);
    match &cfg.out {
        Some(path) => {
            std::fs::write(path, format!("{json}\n")).expect("writing snapshot");
            eprintln!("scenario matrix written to {path}");
        }
        None => println!("{json}"),
    }
    if !all_pass {
        eprintln!("scenario matrix: SLO gate failures (see above)");
        std::process::exit(1);
    }
}
