//! The metrics the benchmark prints, the tally of checked operations, and
//! the result record.
//!
//! `BENCHMARK.json` repeats these names with each metric's direction and
//! bound; a unit test keeps the two lists identical.

use crate::json::quote;
use std::collections::BTreeMap;

/// End-to-end metrics, printed by every workload on an untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("job_s", "s"),
    ("job_s_p1", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every workload on a traced run. A layer a
/// workload does not run reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("data.generate_s", "s"),
    ("core.construct.build_s", "s"),
    ("core.construct.rows_per_s", "1/s"),
    ("core.construct.stage1_ms", "ms"),
    ("core.construct.barrier_ms", "ms"),
    ("core.construct.stage2_ms", "ms"),
    ("core.construct.forwarded_frac", "ratio"),
    ("core.construct.probes_per_row", "ratio"),
    ("core.construct.table_grows", "count"),
    ("core.construct.entries", "count"),
    ("core.allpairs.mi_s", "s"),
    ("core.allpairs.pairs_scanned", "count"),
    ("core.allpairs.entries_scanned", "count"),
    ("core.allpairs.entries_per_s", "1/s"),
    ("core.allpairs.share", "ratio"),
    ("bn.cheng.draft_s", "s"),
    ("bn.cheng.thicken_s", "s"),
    ("bn.cheng.thin_s", "s"),
    ("bn.cheng.orient_s", "s"),
    ("bn.cheng.draft_edges", "count"),
    ("bn.cheng.deferred_pairs", "count"),
    ("bn.cheng.skeleton_f1", "ratio"),
    ("bn.ci.tests", "count"),
    ("bn.ci.thicken_tests", "count"),
    ("bn.ci.thin_tests", "count"),
    ("bn.ci.ms_per_test", "ms"),
    ("bn.ci.entries_scanned_computed", "count"),
    ("serve.admit_us_p50", "us"),
    ("serve.sync_ms_p50", "ms"),
    ("serve.publish_p50_ms", "ms"),
    ("serve.qps", "1/s"),
    ("serve.query_p50_us", "us"),
    ("serve.query_p99_us", "us"),
    ("serve.query.hit_us_p50", "us"),
    ("serve.query.miss_us_p50", "us"),
    ("serve.query.miss_us_p99", "us"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.cache.hits", "count"),
    ("serve.cache.misses", "count"),
    ("serve.reader.entries_scanned", "count"),
    ("serve.reader.epochs_pinned", "count"),
    ("serve.engine.epochs_published", "count"),
    ("serve.engine.refused", "count"),
    ("scaling.speedup_p2", "ratio"),
    ("trace.job_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unaccounted_frac", "ratio"),
];

/// Metric values by name.
pub type Values = BTreeMap<&'static str, f64>;

/// Checked operations: every job output, protocol line and sampled answer
/// the benchmark verifies counts as one attempt.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed their check, returned `ERR`, or were refused.
    pub failed: u64,
    /// A description of each failure (the first few are printed).
    pub failures: Vec<String>,
}

impl Tally {
    /// Counts one attempt; `ok == false` counts it failed and records
    /// `what()` as the reason.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Counts `attempted` operations of which each of `failures` failed.
    pub fn record(&mut self, attempted: u64, failures: &[String]) {
        self.attempted += attempted;
        self.failed += failures.len() as u64;
        self.failures.extend_from_slice(failures);
    }
}

/// Everything one workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Measured metrics (end-to-end always; per-layer on a traced run).
    pub values: Values,
    /// Checked operations.
    pub tally: Tally,
    /// FNV-1a digest of every generated input row.
    pub rows_fnv: u64,
    /// `GeneratedWorkload::fingerprint` of the protocol stream, where the
    /// workload replays one.
    pub stream_fingerprint: Option<u64>,
}

/// FNV-1a over a stream of words (states, bytes).
pub fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// [`fnv1a`] over every state of `rows`, in order.
pub fn fnv_states<'a>(rows: impl IntoIterator<Item = &'a [u16]>) -> u64 {
    fnv1a(rows.into_iter().flatten().map(|&s| u64::from(s)))
}

/// The `"metrics"` object for `names`, taking each value from `values`
/// (0 where a per-layer metric's layer did not run).
pub fn metrics_json(names: &[(&str, &str)], values: &Values) -> String {
    let fields: Vec<String> = names
        .iter()
        .map(|&(name, unit)| {
            let v = values.get(name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                quote(name),
                quote(unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The result line: exactly `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(tally: &Tally, metrics: &str) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn manifest() -> json::Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn listed(m: &json::Value, key: &str) -> Vec<(String, String)> {
        m.get(key)
            .and_then(json::Value::arr)
            .expect("metric list")
            .iter()
            .map(|e| {
                let field = |k| e.get(k).and_then(json::Value::str).expect(k).to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn emitted_metrics_match_the_manifest() {
        let m = manifest();
        assert_eq!(listed(&m, "end_to_end"), owned(END_TO_END));
        assert_eq!(listed(&m, "per_layer"), owned(PER_LAYER));
        let valid = |s: &str| {
            !s.is_empty()
                && s.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
        };
        let mut seen = std::collections::HashSet::new();
        for &(name, _) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid(name), "{name}");
            assert!(seen.insert(name), "{name} listed twice");
        }
    }

    #[test]
    fn manifest_workloads_are_the_binarys() {
        let m = manifest();
        let names: Vec<&str> = m
            .get("workloads")
            .and_then(json::Value::arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(json::Value::str).expect("name"))
            .collect();
        assert_eq!(names, crate::WORKLOADS);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut tally = Tally::default();
        tally.check(true, String::new);
        let mut values = Values::new();
        values.insert("job_s", 0.25);
        let line = result_line(&tally, &metrics_json(END_TO_END, &values));
        let v = json::parse(&line).unwrap();
        let keys: Vec<&str> = v
            .members()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let job = v.get("metrics").unwrap().get("job_s").unwrap();
        assert_eq!(job.get("value").unwrap().num(), Some(0.25));
        assert_eq!(job.get("unit").unwrap().str(), Some("s"));
    }
}
