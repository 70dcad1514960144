//! The simulated-cost baseline: every deterministic number the harness
//! produces, in one committed file (`crates/bench/sim_baseline.txt`).
//!
//! The pram simulator and the workload generator are pure functions of
//! their inputs — same dataset, same cost model, same numbers on any host —
//! so the values below are reproducible digit for digit. [`Snapshot::measure`]
//! computes them in-process at the fixed workload shapes declared here:
//!
//! * Fig. 3 — scalar and batched build cycles at each P in `CORES`;
//! * Fig. 4 — the same at the largest P for each n in `FIG4_VARS`;
//! * Fig. 5 — all-pairs MI cycles at each P;
//! * serve — modeled cycles per pair-marginal query, and the P = 8
//!   reader scaling;
//! * matrix — each workload scenario's stream fingerprint and modeled
//!   cycles per query.
//!
//! [`Snapshot::render`] writes them as `key value` lines and
//! [`Snapshot::parse`] reads them back. [`check`] compares a fresh run with
//! the committed file under one rule per key family. Wall-clock numbers
//! are not part of it; the `benchmark/` package measures those.
//!
//! Regenerate the file after a conscious cost-model or workload change:
//!
//! ```text
//! cargo run -p wfbn-bench --release --bin bench_snapshot -- --out crates/bench/sim_baseline.txt
//! ```

use crate::runner::uniform_workload;
use crate::serve_bench::sim_serve_scaling;
use std::collections::BTreeMap;
use wfbn_data::Dataset;
use wfbn_pram::{
    simulate_all_pairs_mi, simulate_waitfree_build, simulate_waitfree_build_batched, CostModel,
};
use wfbn_workload::{generate, GeneratedWorkload, IngestEvent, Scenario, WorkloadSpec};

/// Seed of every generated dataset.
pub const SEED: u64 = 42;
/// Core counts of the Fig. 3 and Fig. 5 sweeps, and reader counts of the
/// serve series.
const CORES: [usize; 4] = [1, 2, 4, 8];
/// The largest P: the Fig. 4 core count and the serve scaling point.
const P_MAX: usize = CORES[CORES.len() - 1];
/// Variables of the Fig. 3/5 workload.
const BUILD_VARS: usize = 30;
/// Samples of the Fig. 3/4/5 workloads: the paper's 0.1M lower scale, large
/// enough that the per-core tables outgrow L2.
const BUILD_SAMPLES: usize = 100_000;
/// Variable counts of the Fig. 4 sweep.
const FIG4_VARS: [usize; 3] = [30, 40, 50];
/// Variables of the serve workload.
const SERVE_VARS: usize = 12;
/// Samples of the serve workload.
const SERVE_SAMPLES: usize = 20_000;
/// Largest allowed ratio of a current `*cycles*` value to its baseline.
const CYCLES_BOUND: f64 = 1.10;
/// Least serve throughput at P = 8 readers relative to one reader.
const SCALING_FLOOR: f64 = 3.0;

/// One baseline value.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Value {
    /// A 64-bit stream fingerprint, rendered as 16 hex digits.
    Fingerprint(u64),
    /// A cycle count or a scaling ratio, rendered with three decimals.
    Number(f64),
}

/// How a key's current value is judged against its baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rule {
    /// `*.fingerprint`: must match exactly.
    Exact,
    /// `floor.*`: baseline and current must both be at least
    /// [`SCALING_FLOOR`].
    Floor,
    /// Any other key containing `cycles`: current may be at most
    /// [`CYCLES_BOUND`] times the baseline.
    Cycles,
}

impl Rule {
    /// The rule of `key`'s family, or `None` if it belongs to none.
    fn of(key: &str) -> Option<Self> {
        if key.ends_with(".fingerprint") {
            Some(Self::Exact)
        } else if key.starts_with("floor.") {
            Some(Self::Floor)
        } else if key.contains("cycles") {
            Some(Self::Cycles)
        } else {
            None
        }
    }
}

/// A set of keyed baseline values, ordered by key.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    values: BTreeMap<String, Value>,
}

impl Snapshot {
    /// Computes every value at the workload shapes declared in this module.
    pub fn measure() -> Self {
        let model = CostModel::default();
        let mut snap = Self::default();

        let data = uniform_workload(BUILD_VARS, BUILD_SAMPLES, SEED);
        for p in CORES {
            let scalar = simulate_waitfree_build(&data, p, &model).0.elapsed_cycles;
            let batched = simulate_waitfree_build_batched(&data, p, &model)
                .0
                .elapsed_cycles;
            snap.number(format!("fig3.scalar_cycles.p{p}"), scalar);
            snap.number(format!("fig3.batched_cycles.p{p}"), batched);
        }

        for n in FIG4_VARS {
            let d = uniform_workload(n, BUILD_SAMPLES, SEED);
            let scalar = simulate_waitfree_build(&d, P_MAX, &model).0.elapsed_cycles;
            let batched = simulate_waitfree_build_batched(&d, P_MAX, &model)
                .0
                .elapsed_cycles;
            snap.number(format!("fig4.scalar_cycles.n{n}"), scalar);
            snap.number(format!("fig4.batched_cycles.n{n}"), batched);
        }

        let (_, table) = simulate_waitfree_build_batched(&data, P_MAX, &model);
        for p in CORES {
            let cycles = simulate_all_pairs_mi(&table, p, &model).elapsed_cycles;
            snap.number(format!("fig5.allpairs_cycles.p{p}"), cycles);
        }

        let serve = sim_serve_scaling(
            &uniform_workload(SERVE_VARS, SERVE_SAMPLES, SEED),
            &CORES,
            &model,
        );
        snap.number("serve.cycles_per_query".into(), serve.cycles_per_query);
        snap.number(
            "floor.serve_p8_scaling".into(),
            serve.scaling[CORES.len() - 1],
        );

        for scenario in Scenario::MATRIX {
            let workload = generate(&WorkloadSpec::matrix_default(scenario))
                .expect("matrix scenarios generate at their default spec");
            let name = scenario.name();
            snap.values.insert(
                format!("matrix.{name}.fingerprint"),
                Value::Fingerprint(workload.fingerprint()),
            );
            snap.number(
                format!("matrix.{name}.cycles_per_query"),
                scenario_cycles_per_query(&workload, &model),
            );
        }
        snap
    }

    fn number(&mut self, key: String, value: f64) {
        self.values.insert(key, Value::Number(value));
    }

    /// The snapshot as text: a `#` header, then one `key value` line per
    /// key in key order.
    pub fn render(&self) -> String {
        let list = |xs: &[usize]| {
            xs.iter()
                .map(usize::to_string)
                .collect::<Vec<_>>()
                .join(",")
        };
        let cores = list(&CORES);
        let mut out = format!(
            "# Simulated-cost baseline, checked by crates/bench/tests/sim_baseline.rs.\n\
             # Regenerate: cargo run -p wfbn-bench --release --bin bench_snapshot -- --out FILE\n\
             # Workloads, seed {SEED}:\n\
             #   fig3, fig5  n={BUILD_VARS} m={BUILD_SAMPLES} P={cores}\n\
             #   fig4        n={fig4} m={BUILD_SAMPLES} P={P_MAX}\n\
             #   serve       n={SERVE_VARS} m={SERVE_SAMPLES} readers={cores}\n\
             #   matrix      each scenario at WorkloadSpec::matrix_default\n\
             # Rules: *.fingerprint exact; *cycles* <= {CYCLES_BOUND:.2}x baseline; \
             floor.* >= {SCALING_FLOOR:.1} in baseline and current.\n",
            fig4 = list(&FIG4_VARS),
        );
        for (key, value) in &self.values {
            match value {
                Value::Fingerprint(fp) => out.push_str(&format!("{key} {fp:016x}\n")),
                Value::Number(v) => out.push_str(&format!("{key} {v:.3}\n")),
            }
        }
        out
    }

    /// Parses rendered text. Blank lines and `#` comments are skipped;
    /// every other line must be `key value` with a key of a known
    /// rule family, a value of that family's kind, and a key not seen
    /// before. The error names the offending line.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut snap = Self::default();
        for (index, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let at = format!("line {}: {line:?}", index + 1);
            let mut fields = line.split_whitespace();
            let (Some(key), Some(value), None) = (fields.next(), fields.next(), fields.next())
            else {
                return Err(format!("{at}: expected `key value`"));
            };
            let rule = Rule::of(key).ok_or_else(|| format!("{at}: key {key} has no rule"))?;
            let parsed = match rule {
                Rule::Exact => (value.len() == 16)
                    .then(|| u64::from_str_radix(value, 16).ok())
                    .flatten()
                    .map(Value::Fingerprint),
                Rule::Floor | Rule::Cycles => value
                    .parse::<f64>()
                    .ok()
                    .filter(|v| v.is_finite() && *v > 0.0)
                    .map(Value::Number),
            };
            let parsed = parsed.ok_or_else(|| format!("{at}: {key} has a malformed value"))?;
            if snap.values.insert(key.to_string(), parsed).is_some() {
                return Err(format!("{at}: duplicate key {key}"));
            }
        }
        Ok(snap)
    }
}

/// Judges `current` against `baseline`, returning one message per
/// violation, each naming its key. A key on one side only is a violation.
pub fn check(baseline: &Snapshot, current: &Snapshot) -> Vec<String> {
    let mut violations = Vec::new();
    for key in current.values.keys() {
        if !baseline.values.contains_key(key) {
            violations.push(format!("{key}: missing from the baseline"));
        }
    }
    for (key, &base) in &baseline.values {
        let Some(&now) = current.values.get(key) else {
            violations.push(format!("{key}: extra key, no longer measured"));
            continue;
        };
        match (Rule::of(key), base, now) {
            (Some(Rule::Exact), Value::Fingerprint(b), Value::Fingerprint(c)) => {
                if b != c {
                    violations.push(format!("{key}: changed {b:016x} -> {c:016x}"));
                }
            }
            (Some(Rule::Floor), Value::Number(b), Value::Number(c)) => {
                for (side, v) in [("baseline", b), ("current", c)] {
                    if v < SCALING_FLOOR {
                        violations.push(format!(
                            "{key}: {side} {v:.3} is below the floor {SCALING_FLOOR:.1}"
                        ));
                    }
                }
            }
            (Some(Rule::Cycles), Value::Number(b), Value::Number(c)) => {
                if c > b * CYCLES_BOUND {
                    violations.push(format!(
                        "{key}: {c:.3} is {:.3}x the baseline {b:.3} (bound {CYCLES_BOUND:.2}x)",
                        c / b
                    ));
                }
            }
            _ => violations.push(format!("{key}: value kind does not fit its rule")),
        }
    }
    violations
}

/// Modeled cost of one query on a scenario's table: the single-core
/// all-pairs sweep divided by the pairs it answers — the serve capacity
/// model applied to the scenario's own (skewed, sparse or wide) data.
fn scenario_cycles_per_query(workload: &GeneratedWorkload, model: &CostModel) -> f64 {
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
    let (_, table) = simulate_waitfree_build_batched(&data, 1, model);
    let n = workload.schema.num_vars();
    let pairs = (n * (n - 1) / 2) as f64;
    simulate_all_pairs_mi(&table, 1, model).elapsed_cycles / pairs
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small hand-written baseline covering every rule family.
    fn baseline() -> Snapshot {
        Snapshot::parse(
            "# header\n\
             fig3.batched_cycles.p1 1000.000\n\
             matrix.uniform.fingerprint 5e54dc7977d8b30e\n\
             floor.serve_p8_scaling 8.000\n",
        )
        .expect("valid baseline")
    }

    fn with(key: &str, value: Value) -> Snapshot {
        let mut snap = baseline();
        snap.values.insert(key.to_string(), value);
        snap
    }

    fn assert_one_violation_naming(violations: &[String], key: &str) {
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains(key), "{violations:?}");
    }

    #[test]
    fn identical_snapshots_pass() {
        assert!(check(&baseline(), &baseline()).is_empty());
    }

    #[test]
    fn cycles_may_grow_by_at_most_ten_percent() {
        let key = "fig3.batched_cycles.p1";
        assert!(check(&baseline(), &with(key, Value::Number(1090.0))).is_empty());
        assert!(check(&baseline(), &with(key, Value::Number(500.0))).is_empty());
        let violations = check(&baseline(), &with(key, Value::Number(1110.0)));
        assert_one_violation_naming(&violations, key);
    }

    #[test]
    fn a_changed_fingerprint_fails() {
        let key = "matrix.uniform.fingerprint";
        let violations = check(
            &baseline(),
            &with(key, Value::Fingerprint(0x5e54_dc79_77d8_b30f)),
        );
        assert_one_violation_naming(&violations, key);
        assert!(violations[0].contains("5e54dc7977d8b30f"), "{violations:?}");
    }

    #[test]
    fn a_floor_below_three_fails_on_either_side() {
        let key = "floor.serve_p8_scaling";
        let low = with(key, Value::Number(2.9));
        let from_current = check(&baseline(), &low);
        assert_one_violation_naming(&from_current, key);
        assert!(from_current[0].contains("current"), "{from_current:?}");
        let from_baseline = check(&low, &baseline());
        assert_one_violation_naming(&from_baseline, key);
        assert!(from_baseline[0].contains("baseline"), "{from_baseline:?}");
    }

    #[test]
    fn missing_and_extra_keys_fail_by_name() {
        let mut current = baseline();
        current.values.remove("floor.serve_p8_scaling");
        current
            .values
            .insert("fig5.allpairs_cycles.p1".into(), Value::Number(1.0));
        let violations = check(&baseline(), &current);
        assert_eq!(violations.len(), 2, "{violations:?}");
        assert!(violations
            .iter()
            .any(|v| v.contains("fig5.allpairs_cycles.p1") && v.contains("missing")));
        assert!(violations
            .iter()
            .any(|v| v.contains("floor.serve_p8_scaling") && v.contains("extra")));
    }

    #[test]
    fn garbled_lines_fail_and_name_the_line() {
        for (text, needle) in [
            ("fig3.batched_cycles.p1\n", "line 1"),
            ("# ok\nfig3.batched_cycles.p1 12 extra\n", "line 2"),
            ("fig3.batched_cycles.p1 twelve\n", "fig3.batched_cycles.p1"),
            ("fig3.batched_cycles.p1 -1.0\n", "fig3.batched_cycles.p1"),
            ("matrix.zipf.fingerprint 4e20\n", "matrix.zipf.fingerprint"),
            (
                "matrix.zipf.fingerprint 4e202d1b64aaaz77\n",
                "matrix.zipf.fingerprint",
            ),
            ("wall.ns.p1 1.0\n", "wall.ns.p1"),
            (
                "serve.cycles_per_query 1.0\nserve.cycles_per_query 2.0\n",
                "duplicate",
            ),
        ] {
            let err = Snapshot::parse(text).expect_err(text);
            assert!(err.contains(needle), "{text:?}: {err}");
        }
    }

    #[test]
    fn render_and_parse_round_trip() {
        let snap = baseline();
        assert_eq!(
            Snapshot::parse(&snap.render()).expect("rendered text parses"),
            snap
        );
        let text = snap.render();
        assert!(text.contains("fig3.batched_cycles.p1 1000.000\n"), "{text}");
        assert!(
            text.contains("matrix.uniform.fingerprint 5e54dc7977d8b30e\n"),
            "{text}"
        );
    }

    #[test]
    fn rule_families_follow_the_key_shape() {
        assert_eq!(Rule::of("matrix.burst.fingerprint"), Some(Rule::Exact));
        assert_eq!(Rule::of("floor.serve_p8_scaling"), Some(Rule::Floor));
        assert_eq!(Rule::of("fig5.allpairs_cycles.p8"), Some(Rule::Cycles));
        assert_eq!(Rule::of("serve.qps"), None);
    }
}
