//! Input validation of the simulated-cost baseline checker.
//!
//! `crates/bench/sim_baseline.txt` is judged by [`wfbn_bench::snapshot`]:
//! [`Snapshot::parse`] rejects a garbled file before any value is
//! regenerated, and [`check`] names every key that is missing, extra or out
//! of bounds. These tests break the committed baseline in the ways the
//! retired per-series JSON baselines used to be broken — emptied series,
//! torn series, a missing acceptance value, stray workload parameters — and
//! check that each one fails and names the offending key or line. The committed file stands in for a
//! fresh measurement, so no simulation runs here;
//! `crates/bench/tests/sim_baseline.rs` is the test that regenerates.

use wfbn_bench::snapshot::{check, Snapshot};

const COMMITTED: &str = include_str!("../crates/bench/sim_baseline.txt");

fn committed() -> Snapshot {
    Snapshot::parse(COMMITTED).expect("the committed baseline parses")
}

/// The committed baseline without the lines whose key satisfies `drop`.
fn without(drop: impl Fn(&str) -> bool) -> (Snapshot, Vec<String>) {
    let mut kept = String::new();
    let mut dropped = Vec::new();
    for line in COMMITTED.lines() {
        let key = line.split_whitespace().next().unwrap_or("");
        if !line.starts_with('#') && drop(key) {
            dropped.push(key.to_string());
        } else {
            kept.push_str(line);
            kept.push('\n');
        }
    }
    assert!(!dropped.is_empty(), "the filter matched no committed key");
    (
        Snapshot::parse(&kept).expect("a subset still parses"),
        dropped,
    )
}

/// The committed text with `key`'s line replaced by `line`.
fn replace_line(key: &str, line: &str) -> String {
    let mut text = String::new();
    let mut found = false;
    for old in COMMITTED.lines() {
        if old.split_whitespace().next() == Some(key) {
            text.push_str(line);
            found = true;
        } else {
            text.push_str(old);
        }
        text.push('\n');
    }
    assert!(found, "{key} is not a committed key");
    text
}

fn assert_violations_name(violations: &[String], keys: &[String], reason: &str) {
    assert_eq!(violations.len(), keys.len(), "{violations:?}");
    for key in keys {
        assert!(
            violations
                .iter()
                .any(|v| v.starts_with(&format!("{key}:")) && v.contains(reason)),
            "no `{reason}` violation names {key}: {violations:?}"
        );
    }
}

#[test]
fn pr7_baseline_missing_scenarios_is_rejected_as_malformed() {
    let (baseline, dropped) = without(|key| key.starts_with("matrix."));
    // Six scenarios, each a fingerprint and a cycles value.
    assert_eq!(dropped.len(), 12, "{dropped:?}");
    let violations = check(&baseline, &committed());
    assert_violations_name(&violations, &dropped, "missing from the baseline");
}

#[test]
fn pr7_baseline_with_mismatched_series_is_rejected_as_malformed() {
    // The burst scenario keeps its cycles value but loses its fingerprint:
    // the per-scenario pair is torn.
    let (baseline, dropped) = without(|key| key == "matrix.burst.fingerprint");
    let violations = check(&baseline, &committed());
    assert_violations_name(&violations, &dropped, "missing from the baseline");

    // A fingerprint cut to fewer than 16 hex digits is torn within its line.
    let text = replace_line(
        "matrix.burst.fingerprint",
        "matrix.burst.fingerprint fcbf0cce8893274",
    );
    let err = Snapshot::parse(&text).expect_err("a 15-digit fingerprint must fail");
    assert!(err.contains("matrix.burst.fingerprint"), "{err}");
    assert!(err.contains("malformed value"), "{err}");
}

#[test]
fn pr7_baseline_without_workload_params_is_rejected_before_regenerating() {
    // The workload shapes are constants of the snapshot module, so a
    // baseline that carries its own parameters — the retired JSON layout,
    // or a `workload.*` line — is refused by the parse stage, before the
    // checker spends any simulation.
    let json = "{\n  \"schema\": \"wfbn-bench-pr7\",\n  \"scenarios\": [\n    \
                {\"name\": \"uniform\", \"fingerprint\": \"00000000deadbeef\", \
                \"sim_cycles_per_query\": 123.0}\n  ]\n}\n";
    let err = Snapshot::parse(json).expect_err("the JSON layout must fail");
    assert!(err.contains("line 1"), "{err}");

    let text = format!("{COMMITTED}workload.rows 2000\n");
    let err = Snapshot::parse(&text).expect_err("a workload line must fail");
    assert!(err.contains("workload.rows"), "{err}");
    assert!(err.contains("has no rule"), "{err}");
}

#[test]
fn baseline_with_torn_core_series_is_rejected_as_malformed() {
    // Four core counts measured, three cycle entries committed.
    let (baseline, dropped) = without(|key| key == "fig5.allpairs_cycles.p8");
    let violations = check(&baseline, &committed());
    assert_violations_name(&violations, &dropped, "missing from the baseline");

    // The other tear: the baseline holds a core count no longer measured.
    let text = format!("{COMMITTED}fig5.allpairs_cycles.p16 173249835.000\n");
    let baseline = Snapshot::parse(&text).expect("an extra cycles key parses");
    let violations = check(&baseline, &committed());
    assert_violations_name(
        &violations,
        &["fig5.allpairs_cycles.p16".to_string()],
        "extra key",
    );
}

#[test]
fn pr9_baseline_without_acceptance_value_is_rejected_as_malformed() {
    let (baseline, dropped) = without(|key| key == "floor.serve_p8_scaling");
    let violations = check(&baseline, &committed());
    assert_violations_name(&violations, &dropped, "missing from the baseline");

    // A committed acceptance value below the floor fails as well, even
    // when the fresh run clears it.
    let text = replace_line("floor.serve_p8_scaling", "floor.serve_p8_scaling 2.900");
    let baseline = Snapshot::parse(&text).expect("a low floor still parses");
    let violations = check(&baseline, &committed());
    assert_violations_name(
        &violations,
        &["floor.serve_p8_scaling".to_string()],
        "baseline 2.900 is below the floor",
    );
}

#[test]
fn pr9_baseline_without_workload_params_is_rejected_before_regenerating() {
    // The reader counts are a constant of the snapshot module; a baseline
    // line that tries to set them has no rule and is refused by the parse.
    let text = format!("{COMMITTED}serve.readers 8\n");
    let err = Snapshot::parse(&text).expect_err("a workload line must fail");
    assert!(err.contains("serve.readers"), "{err}");
    assert!(err.contains("has no rule"), "{err}");

    // A series entry without its value is refused the same way, naming the
    // line.
    let text = replace_line("fig5.allpairs_cycles.p8", "fig5.allpairs_cycles.p8");
    let err = Snapshot::parse(&text).expect_err("a value-less line must fail");
    assert!(err.contains("fig5.allpairs_cycles.p8"), "{err}");
    assert!(err.contains("expected `key value`"), "{err}");
}
