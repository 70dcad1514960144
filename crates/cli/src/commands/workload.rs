//! `wfbn workload` — deterministic workload scenarios for the serving
//! layer: list them, emit one as a protocol script, or replay one against
//! a live engine with the SLO gates enforced.
//!
//! ```text
//! wfbn workload --list
//! wfbn workload --scenario zipf --emit --out queries.txt
//! wfbn workload --scenario adversarial-partition --run --threads 4
//! ```
//!
//! An emitted script feeds straight back into `wfbn serve --script` (the
//! INGEST schedule, a `SYNC`, then the query stream). A `--run` replay
//! prints the per-reader served counts, the nearest-rank latency
//! percentiles, and each gate's verdict; a gate failure is a command
//! failure.

use crate::args::Flags;
use std::io::Write;
use wfbn_workload::{
    check_fairness, generate, replay, ReplayConfig, Scenario, WorkloadSpec, FAIRNESS_BOUND,
};

/// Runs the subcommand.
pub fn run(args: &[String], out: &mut dyn Write) -> Result<(), String> {
    let flags = Flags::parse(
        args,
        &[
            "scenario", "rows", "batches", "queries", "readers", "seed", "out", "threads",
        ],
        &["list", "emit", "run"],
    )?;
    let w = |e: std::io::Error| e.to_string();

    if flags.has_switch("list") {
        writeln!(out, "{:<22} description", "scenario").map_err(w)?;
        for scenario in Scenario::MATRIX {
            writeln!(out, "{:<22} {}", scenario.name(), scenario.description()).map_err(w)?;
        }
        let nc = Scenario::StarveReader;
        writeln!(out, "{:<22} {}", nc.name(), nc.description()).map_err(w)?;
        return Ok(());
    }

    let name: String = flags.require("scenario")?;
    let scenario = Scenario::from_name(&name).ok_or_else(|| {
        format!(
            "unknown scenario {name:?} (try: wfbn workload --list)"
        )
    })?;
    let mut spec = WorkloadSpec::matrix_default(scenario);
    spec.rows = flags.get_or("rows", spec.rows)?;
    spec.batches = flags.get_or("batches", spec.batches)?;
    spec.queries = flags.get_or("queries", spec.queries)?;
    spec.readers = flags.get_or("readers", spec.readers)?;
    spec.seed = flags.get_or("seed", spec.seed)?;
    let workload = generate(&spec).map_err(|e| e.to_string())?;

    if flags.has_switch("emit") {
        let script = workload.protocol_script();
        match flags.get("out") {
            Some(path) => {
                std::fs::write(path, &script).map_err(|e| format!("writing {path}: {e}"))?;
                writeln!(
                    out,
                    "wrote {} ({} lines, fingerprint {:016x})",
                    path,
                    script.lines().count(),
                    workload.fingerprint()
                )
                .map_err(w)?;
            }
            None => out.write_all(script.as_bytes()).map_err(w)?,
        }
        return Ok(());
    }

    if flags.has_switch("run") {
        let config = ReplayConfig {
            partitions: flags.get_or("threads", 2)?,
            ..ReplayConfig::default()
        };
        let report = replay(&workload, &config).map_err(|e| e.to_string())?;
        writeln!(
            out,
            "scenario {} (seed {}): {} queries over {} readers, {} epochs",
            scenario.name(),
            spec.seed,
            report.total_queries,
            spec.readers,
            report.epochs_published,
        )
        .map_err(w)?;
        writeln!(
            out,
            "latency p50/p99/p999: {}/{}/{} ns",
            report.p50_ns, report.p99_ns, report.p999_ns
        )
        .map_err(w)?;
        writeln!(out, "served per reader: {:?}", report.served_per_reader).map_err(w)?;
        match check_fairness(scenario, &report.served_per_reader, FAIRNESS_BOUND) {
            Ok(ratio) => {
                writeln!(out, "fairness gate: pass (max/min ratio {ratio:.2})").map_err(w)?
            }
            Err(msg) => return Err(msg),
        }
        return Ok(());
    }

    // Neither --emit nor --run: describe what would be generated.
    writeln!(
        out,
        "scenario {}: {} — rows={} batches={} queries={} readers={} seed={} \
         fingerprint={:016x}",
        scenario.name(),
        scenario.description(),
        spec.rows,
        spec.batches,
        spec.queries,
        spec.readers,
        spec.seed,
        workload.fingerprint()
    )
    .map_err(w)?;
    writeln!(out, "use --emit for the protocol script, --run to replay it").map_err(w)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_to_string(args: &[&str]) -> Result<String, String> {
        let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut out = Vec::new();
        run(&argv, &mut out)?;
        Ok(String::from_utf8(out).expect("utf8 output"))
    }

    #[test]
    fn list_names_every_scenario() {
        let out = run_to_string(&["--list"]).unwrap();
        for name in [
            "uniform",
            "zipf",
            "burst",
            "adversarial-partition",
            "wide-sparse",
            "hot-query",
            "starve-reader",
        ] {
            assert!(out.contains(name), "missing {name}: {out}");
        }
    }

    #[test]
    fn emit_produces_a_replayable_script() {
        let out = run_to_string(&[
            "--scenario", "uniform", "--emit", "--rows", "40", "--batches", "4", "--queries",
            "10",
        ])
        .unwrap();
        assert!(out.starts_with("# wfbn-workload scenario=uniform"), "{out}");
        assert!(out.contains("INGEST "), "{out}");
        assert!(out.contains("SYNC"), "{out}");
        assert!(out.trim_end().ends_with("QUIT"), "{out}");
    }

    #[test]
    fn run_replays_and_passes_the_fairness_gate() {
        let out = run_to_string(&[
            "--scenario", "zipf", "--run", "--rows", "60", "--batches", "3", "--queries",
            "24", "--readers", "2", "--threads", "1",
        ])
        .unwrap();
        assert!(out.contains("fairness gate: pass"), "{out}");
        assert!(out.contains("latency p50/p99/p999"), "{out}");
    }

    #[test]
    fn run_fails_the_negative_control_naming_scenario_and_reader() {
        let err = run_to_string(&[
            "--scenario", "starve-reader", "--run", "--rows", "60", "--batches", "3",
            "--queries", "24", "--readers", "2", "--threads", "1",
        ])
        .unwrap_err();
        assert!(err.contains("'starve-reader'"), "{err}");
        assert!(err.contains("reader 1"), "{err}");
    }

    #[test]
    fn unknown_scenario_is_reported() {
        let err = run_to_string(&["--scenario", "nope"]).unwrap_err();
        assert!(err.contains("unknown scenario"), "{err}");
        let summary = run_to_string(&["--scenario", "burst"]).unwrap();
        assert!(summary.contains("fingerprint="), "{summary}");
    }
}
