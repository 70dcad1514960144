//! The bench binaries reject bad flags with exit status 2 and a message,
//! before doing any work, and never panic on them.

use std::process::Command;

fn assert_rejected(bin: &str, args: &[&str], needle: &str) {
    let out = Command::new(bin)
        .args(args)
        .output()
        .expect("spawning the bench binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
    assert!(stderr.contains(needle), "{bin} {args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{bin} {args:?}: {stderr}");
}

#[test]
fn unknown_flags_exit_2() {
    for bin in [
        env!("CARGO_BIN_EXE_bench_snapshot"),
        env!("CARGO_BIN_EXE_scenario_matrix"),
        env!("CARGO_BIN_EXE_cluster_bench"),
    ] {
        // Flags only the deleted regression script passed are gone.
        for flag in ["--samples", "--seed", "--sim-only", "--bogus"] {
            assert_rejected(bin, &[flag, "1"], "unknown flag");
        }
    }
}

#[test]
fn unparsable_or_missing_values_exit_2() {
    let scenario_matrix = env!("CARGO_BIN_EXE_scenario_matrix");
    let cluster_bench = env!("CARGO_BIN_EXE_cluster_bench");
    assert_rejected(scenario_matrix, &["--threads", "x"], "invalid value");
    assert_rejected(scenario_matrix, &["--threads", "0"], "invalid value");
    assert_rejected(scenario_matrix, &["--threads"], "expects a value");
    assert_rejected(cluster_bench, &["--queries", "ten"], "invalid value");
    assert_rejected(cluster_bench, &["--queries"], "expects a value");
    assert_rejected(
        env!("CARGO_BIN_EXE_bench_snapshot"),
        &["--out"],
        "expects a file",
    );
}
