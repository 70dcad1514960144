//! The committed simulated-cost baseline still holds: every deterministic
//! value is regenerated in-process and judged against
//! `crates/bench/sim_baseline.txt` under the rules of
//! [`wfbn_bench::snapshot`] — fingerprints exact, cycles within 1.10×, both
//! scaling floors at least 3.0, and no key missing or extra.

use wfbn_bench::snapshot::{check, Snapshot};

const BASELINE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/sim_baseline.txt");

#[test]
fn committed_sim_baseline_holds() {
    let text = std::fs::read_to_string(BASELINE).unwrap_or_else(|e| {
        panic!(
            "reading {BASELINE}: {e}\nregenerate it with \
             `cargo run -p wfbn-bench --release --bin bench_snapshot -- --out {BASELINE}`"
        )
    });
    let baseline = Snapshot::parse(&text).unwrap_or_else(|e| panic!("{BASELINE}: {e}"));
    let violations = check(&baseline, &Snapshot::measure());
    assert!(
        violations.is_empty(),
        "{} violation(s) of {BASELINE}:\n  {}\nfix the regression, or regenerate the baseline \
         with bench_snapshot --out after a conscious cost-model change",
        violations.len(),
        violations.join("\n  ")
    );
}
