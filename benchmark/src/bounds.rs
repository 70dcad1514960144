//! `benchmark check-bounds A B`: compares two sets of result records, metric
//! by metric, against the bounds in `BENCHMARK.json`.
//!
//! Each file holds the records `--out` appended, one JSON object per run.
//! For every workload, the median of each end-to-end metric over B's
//! untraced runs may be worse than A's by at most the metric's bound. Both
//! sets must have been made on the same inputs: the per-run input digests
//! (`rows_fnv`, and the protocol stream's fingerprint where there is one)
//! must match as multisets, so runs on different seeds are never compared.

use crate::json::{self, Value};
use crate::stats::median;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// One end-to-end metric's rule from the manifest.
struct Bound {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

/// One run's record.
struct Record {
    workload: String,
    inputs: String,
    sound: bool,
    metrics: BTreeMap<String, f64>,
}

/// Entry point of the subcommand; `args` follow `check-bounds`.
pub fn run(args: &[String]) -> ExitCode {
    match check(args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("check-bounds: {e}");
            ExitCode::from(2)
        }
    }
}

fn check(args: &[String]) -> Result<bool, String> {
    let (mut files, mut manifest) = (Vec::new(), "BENCHMARK.json".to_string());
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--manifest" {
            manifest = it.next().ok_or("--manifest needs a path")?.clone();
        } else {
            files.push(arg.clone());
        }
    }
    let [a, b] = files.as_slice() else {
        return Err(
            "usage: benchmark check-bounds A.jsonl B.jsonl [--manifest BENCHMARK.json]".into(),
        );
    };
    let bounds = read_bounds(&manifest)?;
    let (a, b) = (by_workload(read_records(a)?), by_workload(read_records(b)?));
    if a.keys().ne(b.keys()) {
        return Err(format!(
            "the files cover different workloads: {:?} vs {:?}",
            a.keys().collect::<Vec<_>>(),
            b.keys().collect::<Vec<_>>()
        ));
    }
    let mut ok = true;
    for (workload, runs_a) in &a {
        let runs_b = &b[workload];
        let inputs = |runs: &[Record]| {
            let mut v: Vec<String> = runs.iter().map(|r| r.inputs.clone()).collect();
            v.sort_unstable();
            v
        };
        if inputs(runs_a) != inputs(runs_b) {
            return Err(format!(
                "{workload}: the two sets ran on different inputs (seeds)"
            ));
        }
        for r in runs_a.iter().chain(runs_b) {
            if !r.sound {
                println!("{workload}: a run failed its output checks");
                ok = false;
            }
        }
        for bound in &bounds {
            let med = |runs: &[Record]| -> Result<f64, String> {
                let values: Option<Vec<f64>> = runs
                    .iter()
                    .map(|r| r.metrics.get(&bound.name).copied())
                    .collect();
                values
                    .map(|v| median(&v))
                    .ok_or_else(|| format!("{workload}: a run lacks {}", bound.name))
            };
            let (ma, mb) = (med(runs_a)?, med(runs_b)?);
            let worse = if bound.lower_is_better {
                mb - ma
            } else {
                ma - mb
            } / ma;
            let breach = worse > bound.bound;
            ok &= !breach;
            println!(
                "{workload:<12} {:<12} A {ma:<12.6} B {mb:<12.6} worse by {:+7.2}% (bound {:.0}%) {}",
                bound.name,
                worse * 100.0,
                bound.bound * 100.0,
                if breach { "BREACH" } else { "ok" }
            );
        }
    }
    Ok(ok)
}

fn read_bounds(path: &str) -> Result<Vec<Bound>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let manifest = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let list = manifest
        .get("end_to_end")
        .and_then(Value::arr)
        .ok_or_else(|| format!("{path}: no end_to_end list"))?;
    list.iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::str);
            let better = m.get("better").and_then(Value::str);
            let bound = m.get("bound").and_then(Value::num);
            match (name, better, bound) {
                (Some(name), Some(better @ ("lower" | "higher")), Some(bound)) => Ok(Bound {
                    name: name.to_string(),
                    lower_is_better: better == "lower",
                    bound,
                }),
                _ => Err(format!("{path}: malformed end_to_end entry")),
            }
        })
        .collect()
}

fn read_records(path: &str) -> Result<Vec<Record>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut out = Vec::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let v = json::parse(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
        if v.get("trace").and_then(Value::num) != Some(0.0) {
            continue; // traced runs carry per-layer metrics, which have no bound
        }
        let field = |k: &str| v.get(k).ok_or_else(|| format!("{path}:{}: no {k}", n + 1));
        let text_of = |v: &Value| match v {
            Value::Str(s) => s.clone(),
            _ => "-".to_string(),
        };
        let metrics = field("metrics")?
            .members()
            .ok_or_else(|| format!("{path}:{}: metrics is not an object", n + 1))?
            .iter()
            .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.num()?)))
            .collect();
        out.push(Record {
            workload: text_of(field("workload")?),
            inputs: format!(
                "{}/{}",
                text_of(field("rows_fnv")?),
                text_of(field("stream_fingerprint")?)
            ),
            sound: field("correct")? == &Value::Bool(true) && field("failed")?.num() == Some(0.0),
            metrics,
        });
    }
    Ok(out)
}

fn by_workload(records: Vec<Record>) -> BTreeMap<String, Vec<Record>> {
    let mut out: BTreeMap<String, Vec<Record>> = BTreeMap::new();
    for r in records {
        out.entry(r.workload.clone()).or_default().push(r);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(job_s: f64, fnv: &str) -> String {
        format!(
            "{{\"workload\": \"w\", \"seed\": 1, \"trace\": 0, \"rows_fnv\": \"{fnv}\", \
             \"stream_fingerprint\": null, \"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {{\"job_s\": {{\"value\": {job_s}, \"unit\": \"s\"}}}}}}\n"
        )
    }

    fn run_check(a: &str, b: &str) -> Result<bool, String> {
        let dir = std::env::temp_dir().join(format!("wfbn-bounds-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let write = |name: &str, text: &str| {
            let p = dir.join(name);
            std::fs::write(&p, text).unwrap();
            p.to_string_lossy().into_owned()
        };
        let manifest = write(
            "m.json",
            r#"{"end_to_end": [{"name": "job_s", "unit": "s", "better": "lower", "bound": 0.1}]}"#,
        );
        let args = [write("a", a), write("b", b), "--manifest".into(), manifest];
        let result = check(&args);
        std::fs::remove_dir_all(&dir).unwrap();
        result
    }

    #[test]
    fn bounds_pass_breach_and_refuse_other_inputs() {
        let a = record(1.0, "0x1") + &record(1.2, "0x2");
        assert_eq!(
            run_check(&a, &(record(1.15, "0x1") + &record(1.2, "0x2"))),
            Ok(true)
        );
        assert_eq!(
            run_check(&a, &(record(1.4, "0x1") + &record(1.3, "0x2"))),
            Ok(false)
        );
        assert!(run_check(&a, &(record(1.0, "0x1") + &record(1.2, "0x3"))).is_err());
    }
}
