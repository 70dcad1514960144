//! `wfbn build` — construct the potential table and report statistics.

use crate::args::Flags;
use crate::commands::load_csv;
use std::io::Write;
use std::time::Instant;
use wfbn_core::construct::waitfree_build_recorded;
use wfbn_core::obs::Counter;
use wfbn_core::CoreMetrics;

/// Runs the subcommand.
pub fn run(args: &[String], out: &mut dyn Write) -> Result<(), String> {
    let flags = Flags::parse(args, &["in", "threads"], &["metrics"])?;
    let path: String = flags.require("in")?;
    let threads = flags.threads_or("threads", 4)?;
    let with_metrics = flags.has_switch("metrics");
    let data = load_csv(&path)?;

    let metrics = CoreMetrics::new(threads);
    let start = Instant::now();
    let built = waitfree_build_recorded(&data, threads, &metrics).map_err(|e| e.to_string())?;
    let elapsed = start.elapsed();
    let report = metrics.snapshot();
    let rows = report.total(Counter::RowsEncoded);
    let forwarded_share = report.total(Counter::Forwarded) as f64 / rows as f64;
    // Stage-2 load balance: the busiest core's drained keys over the mean.
    let drained = report.total(Counter::Drained);
    let max_drained = report
        .cores
        .iter()
        .map(|c| c.counter(Counter::Drained))
        .max();
    let drain_imbalance = match max_drained {
        Some(max) if drained > 0 => max as f64 / (drained as f64 / threads as f64),
        _ => 1.0,
    };

    let w = &mut *out;
    writeln!(
        w,
        "dataset: {} samples × {} variables (state space {})",
        data.num_samples(),
        data.num_vars(),
        data.schema().state_space_size()
    )
    .and_then(|()| {
        writeln!(
            w,
            "built with {threads} wait-free thread(s) in {:.1} ms",
            elapsed.as_secs_f64() * 1e3
        )
    })
    .and_then(|()| {
        writeln!(
            w,
            "potential table: {} distinct state strings, total count {}",
            built.table.num_entries(),
            built.table.total_count()
        )
    })
    .and_then(|()| {
        writeln!(
            w,
            "key traffic: {:.1}% forwarded between cores; drain imbalance {:.2}; partition imbalance {:.2}",
            100.0 * forwarded_share,
            drain_imbalance,
            built.table.imbalance()
        )
    })
    .and_then(|()| {
        writeln!(
            w,
            "batching: {} blocks flushed",
            report.total(Counter::BlocksFlushed)
        )
    })
    .and_then(|()| {
        writeln!(w, "partition sizes: {:?}", built.table.partition_sizes())
    })
    .map_err(|e| e.to_string())?;

    if with_metrics {
        writeln!(out, "{}", report.to_json()).map_err(|e| e.to_string())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_statistics() {
        let dir = std::env::temp_dir().join("wfbn_cli_build_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("d.csv");
        std::fs::write(&path, "0,1\n1,0\n0,1\n1,1\n").unwrap();
        let args: Vec<String> = ["--in", path.to_str().unwrap(), "--threads", "2"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let mut out = Vec::new();
        run(&args, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("4 samples × 2 variables"), "{text}");
        assert!(text.contains("3 distinct state strings"), "{text}");
        // Keys are x0 + 2·x1, so core 0 encodes keys 2 and 1 and core 1
        // keys 2 and 3; under key % 2 each core keeps one and forwards one.
        assert!(text.contains("50.0% forwarded"), "{text}");
        assert!(text.contains("drain imbalance 1.00"), "{text}");
        assert!(text.contains("batching: 2 blocks flushed"), "{text}");
        assert!(!text.contains("coalesced"), "{text}");
        assert!(!text.contains("wfbn-metrics"), "{text}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn drain_imbalance_reads_the_busiest_core() {
        let dir = std::env::temp_dir().join("wfbn_cli_build_imbalance_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("d.csv");
        // Every key is even, so core 0 drains the two keys core 1 forwards.
        std::fs::write(&path, "0,0\n0,1\n0,0\n0,1\n").unwrap();
        let args: Vec<String> = ["--in", path.to_str().unwrap(), "--threads", "2"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let mut out = Vec::new();
        run(&args, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("50.0% forwarded"), "{text}");
        assert!(text.contains("drain imbalance 2.00"), "{text}");
        assert!(text.contains("batching: 1 blocks flushed"), "{text}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn thread_counts_past_the_bound_are_refused() {
        let dir = std::env::temp_dir().join("wfbn_cli_build_threads_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("d.csv");
        std::fs::write(&path, "0,1\n1,0\n").unwrap();
        let args: Vec<String> = ["--in", path.to_str().unwrap(), "--threads", "65"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let err = run(&args, &mut Vec::new()).unwrap_err();
        assert!(err.contains("--threads must be between 1 and 64"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn metrics_switch_appends_the_json_report() {
        let dir = std::env::temp_dir().join("wfbn_cli_build_metrics_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("d.csv");
        std::fs::write(&path, "0,1\n1,0\n0,1\n1,1\n").unwrap();
        let args: Vec<String> = ["--in", path.to_str().unwrap(), "--threads", "2", "--metrics"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let mut out = Vec::new();
        run(&args, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("\"schema\": \"wfbn-metrics-v8\""), "{text}");
        assert!(text.contains("\"rows_encoded\""), "{text}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
