//! Wall-clock benchmark of the wfbn jobs: structure learning, feature
//! screening, table construction and serving.
//!
//! ```text
//! benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//! benchmark check-bounds A.jsonl B.jsonl [--manifest BENCHMARK.json]
//! ```
//!
//! One invocation runs one workload in its own process, checks every output
//! it produces, and prints one JSON result as the last line of standard
//! output: the end-to-end metrics on an untraced run, the per-layer metrics
//! on a traced run (`--trace 1`), which also writes its spans to
//! `target/benchmark/spans-<workload>.jsonl`. `--out` appends the result
//! with the run's input digests, for `check-bounds`. See README.md.

mod bounds;
mod harness;
mod ingest;
mod json;
mod learn;
mod metrics;
mod screen;
mod serve;
mod span;
mod stats;

use harness::RunConfig;
use metrics::{metrics_json, result_line, Outcome, Tally, END_TO_END, PER_LAYER};
use std::io::Write;
use std::path::Path;
use std::process::ExitCode;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["learn-alarm", "screen-fig5", "ingest-fig3", "serve-mixed"];

const USAGE: &str =
    "usage: benchmark --workload <learn-alarm|screen-fig5|ingest-fig3|serve-mixed> \
[--seed N] [--seconds S] [--trace 0|1] [--out FILE]\n       \
benchmark check-bounds A.jsonl B.jsonl [--manifest BENCHMARK.json]";

/// Parsed command line of a workload run.
struct Options {
    workload: &'static str,
    cfg: RunConfig,
    out: Option<String>,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut cfg = RunConfig {
        seed: 42,
        seconds: 25.0,
        trace: false,
    };
    let mut out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| *w == name)
                        .ok_or(format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => cfg.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                cfg.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(cfg.seconds >= 0.0 && cfg.seconds.is_finite()) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                cfg.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--out" => out = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        cfg,
        out,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("check-bounds") {
        return bounds::run(&args[1..]);
    }
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    eprintln!(
        "{} seed={} seconds={} trace={} host threads={threads}",
        opts.workload, opts.cfg.seed, opts.cfg.seconds, opts.cfg.trace
    );
    let cfg = &opts.cfg;
    let mut outcome = match opts.workload {
        "learn-alarm" => learn::run(cfg, &learn::FULL),
        "screen-fig5" => screen::run(cfg, &screen::FULL),
        "ingest-fig3" => ingest::run(cfg, &ingest::FULL),
        _ => serve::run(cfg, &serve::FULL),
    };
    finish_values(&mut outcome);

    let line = if cfg.trace {
        result_line(&outcome.tally, &metrics_json(PER_LAYER, &outcome.values))
    } else {
        for &(name, _) in END_TO_END {
            let v = outcome.values.get(name).copied().unwrap_or(0.0);
            outcome
                .tally
                .check(v > 0.0, || format!("{name} was not measured"));
        }
        result_line(&outcome.tally, &metrics_json(END_TO_END, &outcome.values))
    };
    for failure in outcome.tally.failures.iter().take(20) {
        eprintln!("FAILED: {failure}");
    }
    if let Some(path) = &opts.out {
        if let Err(e) = append_record(path, &opts, &outcome) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
    }
    println!("{line}");
    if outcome.tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Values every workload derives the same way from what it measured.
fn finish_values(o: &mut Outcome) {
    let v = &mut o.values;
    let get = |v: &metrics::Values, k| v.get(k).copied().unwrap_or(0.0);
    let (job_s, job_s_p1) = (get(v, "job_s"), get(v, "job_s_p1"));
    v.insert("data.generate_s", get(v, "setup_s"));
    v.insert("scaling.speedup_p2", stats::ratio(job_s_p1, job_s));
    if v.contains_key("trace.job_s") {
        v.insert(
            "trace.overhead_frac",
            stats::ratio(get(v, "trace.job_s"), job_s) - 1.0,
        );
    }
    match peak_rss_mb() {
        Ok(mb) => {
            v.insert("peak_rss_mb", mb);
        }
        Err(e) => o.tally.check(false, || format!("peak RSS: {e}")),
    }
}

/// The process's resident-set high-water mark (`VmHWM`) in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Writes a traced run's spans to `target/benchmark/spans-<workload>.jsonl`.
pub fn write_spans(workload: &str, tracer: &span::Tracer, tally: &mut Tally) {
    let path = Path::new("target")
        .join("benchmark")
        .join(format!("spans-{workload}.jsonl"));
    let written = tracer.write_jsonl(&path);
    tally.check(written.is_ok(), || {
        format!("writing {}: {written:?}", path.display())
    });
}

/// Appends this run's record — result plus input digests — to `path`.
fn append_record(path: &str, opts: &Options, o: &Outcome) -> std::io::Result<()> {
    let names = if opts.cfg.trace {
        PER_LAYER
    } else {
        END_TO_END
    };
    let stream = o
        .stream_fingerprint
        .map_or("null".to_string(), |f| format!("\"{f:#018x}\""));
    let record = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"rows_fnv\": \"{:#018x}\", \
         \"stream_fingerprint\": {stream}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \
         \"metrics\": {}}}",
        opts.workload,
        opts.cfg.seed,
        u8::from(opts.cfg.trace),
        o.rows_fnv,
        o.tally.failed == 0,
        o.tally.attempted,
        o.tally.failed,
        metrics_json(names, &o.values)
    );
    if let Some(dir) = Path::new(path)
        .parent()
        .filter(|d| !d.as_os_str().is_empty())
    {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(f, "{record}")
}

/// Fails if a workload reports a metric `BENCHMARK.json` does not list.
#[cfg(test)]
pub fn assert_known_names(values: &metrics::Values) {
    for name in values.keys() {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|&(n, _)| n == *name),
            "{name} is not a listed metric"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn command_line_is_parsed_and_checked() {
        let o = parse(&args(
            "--workload serve-mixed --seed 7 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!(o.workload, "serve-mixed");
        assert_eq!((o.cfg.seed, o.cfg.seconds, o.cfg.trace), (7, 3.0, true));
        let o = parse(&args("--workload learn-alarm")).unwrap();
        assert_eq!((o.cfg.seed, o.cfg.trace), (42, false));
        for bad in [
            "",
            "--workload psychic",
            "--workload learn-alarm --trace 2",
            "--workload learn-alarm --seed",
            "--workload learn-alarm --seconds -1",
            "--workload learn-alarm --frobnicate",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad:?}");
        }
    }
}
