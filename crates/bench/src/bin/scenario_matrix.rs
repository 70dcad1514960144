//! The workload scenario matrix: every `wfbn-workload` scenario replayed at
//! its default spec against a live engine, with the latency and fairness SLO
//! gates enforced.
//!
//! Each scenario prints its stream fingerprint, nearest-rank p50/p99/p999
//! per-query latency, per-reader fairness, refusals and published epochs.
//! Wall numbers are context, but the *gates* are hard: any failure exits
//! non-zero. The deterministic plane — fingerprints and simulated
//! cycles/query — lives in the simulated-cost baseline
//! ([`wfbn_bench::snapshot`]) and is checked by `cargo test`.
//!
//! `--negative-control` replays the seeded `starve-reader` scenario instead
//! and exits zero only if the fairness gate *fires* — CI's proof that the
//! gate can fail.
//!
//! Usage: `scenario_matrix [--threads P] [--negative-control]`.

use wfbn_workload::{
    check_fairness, check_skew_p99, generate, replay, ReplayConfig, Scenario, ScenarioReport,
    WorkloadSpec, FAIRNESS_BOUND, MIN_SKEW_SAMPLES, SKEW_P99_MULTIPLE,
};

const USAGE: &str = "usage: scenario_matrix [--threads P] [--negative-control]";

struct Config {
    threads: usize,
    negative_control: bool,
}

fn parse_args() -> Result<Config, String> {
    let mut cfg = Config {
        threads: 2,
        negative_control: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--threads" | "-p" => {
                let raw = it.next().ok_or("--threads expects a value")?;
                cfg.threads = match raw.parse() {
                    Ok(p) if p > 0 => p,
                    _ => return Err(format!("invalid value {raw:?} for --threads")),
                };
            }
            "--negative-control" => cfg.negative_control = true,
            other => return Err(format!("unknown flag {other:?} ({USAGE})")),
        }
    }
    Ok(cfg)
}

/// Generates and replays one scenario at its default spec, exiting 2 if
/// either step fails.
fn replay_scenario(scenario: Scenario, cfg: &Config) -> (u64, ScenarioReport) {
    let replayed = generate(&WorkloadSpec::matrix_default(scenario))
        .map_err(|e| e.to_string())
        .and_then(|workload| {
            let config = ReplayConfig {
                partitions: cfg.threads,
            };
            let report = replay(&workload, &config).map_err(|e| e.to_string())?;
            Ok((workload.fingerprint(), report))
        });
    replayed.unwrap_or_else(|e| {
        eprintln!("{}: {e}", scenario.name());
        std::process::exit(2);
    })
}

/// Replays the seeded starvation scenario and exits zero only if the
/// fairness gate fired with the scenario and reader named — the negative
/// control CI runs to prove the gate is live.
fn run_negative_control(cfg: &Config) -> ! {
    let (_, report) = replay_scenario(Scenario::StarveReader, cfg);
    match check_fairness(
        Scenario::StarveReader,
        &report.served_per_reader,
        FAIRNESS_BOUND,
    ) {
        Err(msg) if msg.contains("'starve-reader'") && msg.contains("reader") => {
            println!("negative control OK — fairness gate fired: {msg}");
            std::process::exit(0);
        }
        Err(msg) => {
            eprintln!(
                "negative control FAILED — gate fired without naming the scenario/reader: {msg}"
            );
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

fn main() {
    let cfg = parse_args().unwrap_or_else(|e| {
        eprintln!("scenario_matrix: {e}");
        std::process::exit(2);
    });
    if cfg.negative_control {
        run_negative_control(&cfg);
    }

    let (mut uniform_p99, mut uniform_queries) = (0u64, 0usize);
    let mut all_pass = true;
    for scenario in Scenario::MATRIX {
        let (fingerprint, report) = replay_scenario(scenario, &cfg);
        if scenario == Scenario::Uniform {
            (uniform_p99, uniform_queries) = (report.p99_ns, report.total_queries);
        }
        if let Err(msg) = check_fairness(scenario, &report.served_per_reader, FAIRNESS_BOUND) {
            eprintln!("GATE FAILURE: {msg}");
            all_pass = false;
        }
        let samples = report.total_queries.min(uniform_queries) as u64;
        match check_skew_p99(
            scenario,
            report.p99_ns,
            uniform_p99,
            samples,
            SKEW_P99_MULTIPLE,
        ) {
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
        println!(
            "{name}: fingerprint {fingerprint:016x}, p50/p99/p999 = {p50}/{p99}/{p999} ns, \
             fairness {fair:.2} over {served:?}, refused {refused}, epochs {epochs}",
            name = scenario.name(),
            p50 = report.p50_ns,
            p99 = report.p99_ns,
            p999 = report.p999_ns,
            fair = report.fairness_ratio(),
            served = report.served_per_reader,
            refused = report.refused,
            epochs = report.epochs_published,
        );
    }

    if !all_pass {
        eprintln!("scenario matrix: SLO gate failures (see above)");
        std::process::exit(1);
    }
    println!("scenario matrix: all SLO gates pass");
}
