//! `wfbn build` — construct the potential table and report statistics.

use crate::args::Flags;
use crate::commands::load_csv;
use std::io::Write;
use std::time::Instant;
use wfbn_core::construct::{waitfree_build, waitfree_build_recorded};
use wfbn_core::CoreMetrics;

/// Runs the subcommand.
pub fn run(args: &[String], out: &mut dyn Write) -> Result<(), String> {
    let flags = Flags::parse(args, &["in", "threads"], &["metrics"])?;
    let path: String = flags.require("in")?;
    let threads: usize = flags.get_or("threads", 4)?;
    let with_metrics = flags.has_switch("metrics");
    let data = load_csv(&path)?;

    let metrics = with_metrics.then(|| CoreMetrics::new(threads));
    let start = Instant::now();
    let built = match &metrics {
        Some(rec) => waitfree_build_recorded(&data, threads, rec),
        None => waitfree_build(&data, threads),
    }
    .map_err(|e| e.to_string())?;
    let elapsed = start.elapsed();

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
            100.0 * built.stats.forward_fraction(),
            built.stats.drain_imbalance(),
            built.table.imbalance()
        )
    })
    .and_then(|()| {
        writeln!(
            w,
            "batching: {} blocks flushed, {} keys coalesced",
            built.stats.total_blocks_flushed(),
            built.stats.total_keys_coalesced()
        )
    })
    .and_then(|()| {
        writeln!(w, "partition sizes: {:?}", built.table.partition_sizes())
    })
    .map_err(|e| e.to_string())?;

    if let Some(rec) = &metrics {
        writeln!(out, "{}", rec.snapshot().to_json()).map_err(|e| e.to_string())?;
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
        assert!(text.contains("\"schema\": \"wfbn-metrics-v7\""), "{text}");
        assert!(text.contains("\"rows_encoded\""), "{text}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
