//! Satellite 3 — negative controls proving the SLO gates actually fire.
//!
//! A gate that never fails gates nothing. The `starve-reader` scenario is
//! a *seeded, deterministic* starvation: its deal sends reader 1's share
//! to reader 0, so a real replay must fail the fairness gate, and the
//! failure message must name the scenario and the starved reader — the
//! two facts a CI triage needs.

use wfbn_workload::scenario::STARVED_READER;
use wfbn_workload::{
    check_fairness, check_skew_p99, generate, replay, ReplayConfig, Scenario, WorkloadSpec,
    FAIRNESS_BOUND, MIN_SKEW_SAMPLES, SKEW_P99_MULTIPLE,
};

fn small(scenario: Scenario) -> WorkloadSpec {
    WorkloadSpec {
        scenario,
        rows: 300,
        batches: 6,
        queries: 90,
        readers: 3,
        seed: 2026,
    }
}

#[test]
fn starve_reader_fails_the_fairness_gate_with_scenario_and_reader_id() {
    let w = generate(&small(Scenario::StarveReader)).unwrap();
    let report = replay(&w, &ReplayConfig::default()).unwrap();
    let err = check_fairness(
        Scenario::StarveReader,
        &report.served_per_reader,
        FAIRNESS_BOUND,
    )
    .expect_err("the negative control must fail the fairness gate");
    assert!(
        err.contains("'starve-reader'"),
        "message must name the scenario: {err}"
    );
    assert!(
        err.contains(&format!("reader {STARVED_READER}")),
        "message must name the starved reader: {err}"
    );
    assert!(err.contains("served 0 queries"), "{err}");
}

#[test]
fn matrix_scenarios_pass_the_fairness_gate_under_replay() {
    for scenario in Scenario::MATRIX {
        let w = generate(&small(scenario)).unwrap();
        let report = replay(&w, &ReplayConfig::default()).unwrap();
        let ratio = check_fairness(scenario, &report.served_per_reader, FAIRNESS_BOUND)
            .unwrap_or_else(|e| panic!("{} must pass the fairness gate: {e}", scenario.name()));
        assert!(ratio >= 1.0, "{}: ratio {ratio}", scenario.name());
    }
}

#[test]
fn skew_gate_negative_control_names_the_scenario() {
    // A synthetic 100x regression over the uniform baseline must fail for
    // every gated scenario and pass for ungated ones.
    for scenario in Scenario::MATRIX {
        let result = check_skew_p99(
            scenario,
            100_000,
            1_000,
            MIN_SKEW_SAMPLES,
            SKEW_P99_MULTIPLE,
        );
        if scenario.skew_gated() {
            let err = result.expect_err("gated scenario must fail a 100x regression");
            assert!(
                err.contains(&format!("'{}'", scenario.name())),
                "message must name the scenario: {err}"
            );
            assert!(err.contains("p99"), "{err}");
        } else {
            result.unwrap_or_else(|e| {
                panic!("{} is not skew-gated but failed: {e}", scenario.name())
            });
        }
    }
}

#[test]
fn replay_feeds_the_gates_consistent_counters() {
    // The fairness gate's input must agree with the replay's own telemetry:
    // per-reader served counts sum to the queries the workload issued.
    let w = generate(&small(Scenario::Zipf)).unwrap();
    let report = replay(&w, &ReplayConfig::default()).unwrap();
    assert_eq!(
        report.served_per_reader.iter().sum::<u64>(),
        w.total_queries() as u64
    );
    report.metrics.validate().unwrap();
}
