//! `wfbn cluster` — the PR 7 workload scenario matrix routed through a
//! sharded `wfbn-cluster` deployment, with the same SLO gates enforced.
//!
//! ```text
//! wfbn cluster --shards 4 --threads 2
//! wfbn cluster --scenario adversarial-partition --shards 4
//! wfbn cluster --negative-control --shards 2
//! ```
//!
//! Every scenario replays through [`wfbn_workload::replay_cluster`]: rows
//! are routed by the consistent-hash ring across `S` shard engines
//! (`--shards`), each with `P` builder threads (`--threads`), and queries
//! fan out through cluster clients that merge per-shard partial marginals.
//! The two PR 7 gates stay hard on this path — reader fairness per
//! scenario, and skewed-scenario p99 bounded against the uniform baseline
//! measured in the same run. The p99 gate is judged only when both sides
//! served at least [`MIN_SKEW_SAMPLES`] queries; a smaller run says so
//! instead of issuing a wall-clock verdict. `adversarial-partition` is the
//! scenario the cluster exists for: its rows collapse onto one `key % P`
//! slice on a single node, but the ring splits the same hot key range `S`
//! ways first.
//!
//! `--negative-control` replays the seeded `starve-reader` scenario and
//! succeeds only if the fairness gate *fires* — proof the gate can fail on
//! the cluster path too.

use crate::args::Flags;
use std::io::Write;
use wfbn_workload::{
    check_fairness, check_skew_p99, generate, replay_cluster, ReplayConfig, Scenario,
    WorkloadSpec, FAIRNESS_BOUND, MIN_SKEW_SAMPLES, SKEW_P99_MULTIPLE,
};

/// Runs the subcommand.
pub fn run(args: &[String], out: &mut dyn Write) -> Result<(), String> {
    let flags = Flags::parse(
        args,
        &[
            "shards", "threads", "rows", "batches", "queries", "readers", "seed", "scenario",
        ],
        &["negative-control"],
    )?;
    let w = |e: std::io::Error| e.to_string();

    let shards: usize = flags.get_or("shards", 2)?;
    if shards == 0 {
        return Err("--shards must be at least 1".into());
    }
    let config = ReplayConfig {
        partitions: flags.get_or("threads", 2)?,
        ..ReplayConfig::default()
    };
    let mut base = WorkloadSpec::matrix_default(Scenario::Uniform);
    base.rows = flags.get_or("rows", base.rows)?;
    base.batches = flags.get_or("batches", base.batches)?;
    base.queries = flags.get_or("queries", base.queries)?;
    base.readers = flags.get_or("readers", base.readers)?;
    base.seed = flags.get_or("seed", base.seed)?;

    let replay_one = |scenario: Scenario| {
        let spec = WorkloadSpec { scenario, ..base };
        let workload = generate(&spec).map_err(|e| e.to_string())?;
        replay_cluster(&workload, &config, shards).map_err(|e| e.to_string())
    };

    if flags.has_switch("negative-control") {
        let report = replay_one(Scenario::StarveReader)?;
        return match check_fairness(
            Scenario::StarveReader,
            &report.served_per_reader,
            FAIRNESS_BOUND,
        ) {
            Err(msg) => {
                writeln!(out, "negative control: fairness gate fired as required").map_err(w)?;
                writeln!(out, "  {msg}").map_err(w)?;
                Ok(())
            }
            Ok(ratio) => Err(format!(
                "negative control failed: starve-reader passed the fairness \
                 gate on {shards} shards (ratio {ratio:.2}) — the gate cannot fire"
            )),
        };
    }

    let scenarios: Vec<Scenario> = match flags.get("scenario") {
        Some(name) => vec![Scenario::from_name(name).ok_or_else(|| {
            format!("unknown scenario {name:?} (try: wfbn workload --list)")
        })?],
        None => Scenario::MATRIX.to_vec(),
    };

    writeln!(
        out,
        "cluster matrix: S={} shards, P={} builder threads/shard, seed {}",
        shards, config.partitions, base.seed
    )
    .map_err(w)?;
    writeln!(
        out,
        "{:<22} {:>8} {:>10} {:>10} {:>9} {:>7}",
        "scenario", "queries", "p50_ns", "p99_ns", "fairness", "epochs"
    )
    .map_err(w)?;

    // The uniform baseline must be measured (in this run, on this cluster)
    // before any skew-gated scenario is judged against it; MATRIX orders
    // uniform first, and a --scenario run of a gated scenario measures its
    // own baseline here.
    let (mut uniform_p99, mut uniform_queries) = (0u64, 0usize);
    let needs_baseline = scenarios
        .iter()
        .any(|s| s.skew_gated() && *s != Scenario::Uniform)
        && !scenarios.contains(&Scenario::Uniform);
    if needs_baseline {
        let baseline = replay_one(Scenario::Uniform)?;
        (uniform_p99, uniform_queries) = (baseline.p99_ns, baseline.total_queries);
    }

    let mut skew_judged = true;
    for &scenario in &scenarios {
        let report = replay_one(scenario)?;
        let ratio = check_fairness(scenario, &report.served_per_reader, FAIRNESS_BOUND)?;
        if scenario == Scenario::Uniform {
            (uniform_p99, uniform_queries) = (report.p99_ns, report.total_queries);
        }
        let samples = report.total_queries.min(uniform_queries) as u64;
        skew_judged &=
            check_skew_p99(scenario, report.p99_ns, uniform_p99, samples, SKEW_P99_MULTIPLE)?;
        writeln!(
            out,
            "{:<22} {:>8} {:>10} {:>10} {:>9.2} {:>7}",
            scenario.name(),
            report.total_queries,
            report.p50_ns,
            report.p99_ns,
            ratio,
            report.epochs_published
        )
        .map_err(w)?;
    }
    if skew_judged {
        writeln!(
            out,
            "cluster gates: pass (fairness <= {FAIRNESS_BOUND:.1}, skew p99 <= \
             {SKEW_P99_MULTIPLE:.0}x uniform)"
        )
    } else {
        writeln!(
            out,
            "skew gate: not judged (fewer than {MIN_SKEW_SAMPLES} queries on a side)\n\
             cluster gates: pass (fairness <= {FAIRNESS_BOUND:.1})"
        )
    }
    .map_err(w)?;
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

    const SMALL: &[&str] = &[
        "--rows", "120", "--batches", "4", "--queries", "36", "--readers", "2", "--threads",
        "1",
    ];

    #[test]
    fn matrix_replays_every_scenario_through_the_cluster() {
        let mut args = vec!["--shards", "2"];
        args.extend_from_slice(SMALL);
        let out = run_to_string(&args).unwrap();
        for name in [
            "uniform",
            "zipf",
            "burst",
            "adversarial-partition",
            "wide-sparse",
            "hot-query",
        ] {
            assert!(out.contains(name), "missing {name}: {out}");
        }
        // 36 queries cannot carry a p99: the run says so, deterministically.
        assert!(out.contains("skew gate: not judged"), "{out}");
        assert!(out.contains("cluster gates: pass (fairness"), "{out}");
    }

    #[test]
    fn single_scenario_runs_with_its_own_uniform_baseline() {
        let mut args = vec!["--shards", "2", "--scenario", "adversarial-partition"];
        args.extend_from_slice(SMALL);
        let out = run_to_string(&args).unwrap();
        assert!(out.contains("adversarial-partition"), "{out}");
        assert!(out.contains("skew gate: not judged"), "{out}");
        assert!(out.contains("cluster gates: pass (fairness"), "{out}");
    }

    #[test]
    fn negative_control_requires_the_gate_to_fire() {
        let mut args = vec!["--shards", "2", "--negative-control"];
        args.extend_from_slice(SMALL);
        let out = run_to_string(&args).unwrap();
        assert!(out.contains("fairness gate fired"), "{out}");
        assert!(out.contains("'starve-reader'"), "{out}");
    }

    #[test]
    fn zero_shards_is_rejected() {
        let err = run_to_string(&["--shards", "0"]).unwrap_err();
        assert!(err.contains("--shards"), "{err}");
    }

    #[test]
    fn unknown_scenario_is_reported() {
        let err = run_to_string(&["--scenario", "nope", "--shards", "1"]).unwrap_err();
        assert!(err.contains("unknown scenario"), "{err}");
    }
}
