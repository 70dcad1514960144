//! `wfbn mi` — all-pairs mutual-information screening.

use crate::args::Flags;
use crate::commands::load_csv;
use std::io::Write;
use wfbn_core::allpairs::{all_pairs_mi, all_pairs_mi_recorded};
use wfbn_core::construct::{waitfree_build, waitfree_build_recorded};
use wfbn_core::entropy::nats_to_bits;
use wfbn_core::CoreMetrics;

/// Runs the subcommand.
pub fn run(args: &[String], out: &mut dyn Write) -> Result<(), String> {
    let flags = Flags::parse(args, &["in", "threads", "top"], &["bits", "metrics"])?;
    let path: String = flags.require("in")?;
    let threads: usize = flags.get_or("threads", 4)?;
    let top: usize = flags.get_or("top", 20)?;
    let in_bits = flags.has_switch("bits");
    let with_metrics = flags.has_switch("metrics");

    let data = load_csv(&path)?;
    let metrics = with_metrics.then(|| CoreMetrics::new(threads));
    let mi = match &metrics {
        Some(rec) => {
            let table = waitfree_build_recorded(&data, threads, rec)
                .map_err(|e| e.to_string())?
                .table;
            all_pairs_mi_recorded(&table, threads, rec)
        }
        None => {
            let table = waitfree_build(&data, threads)
                .map_err(|e| e.to_string())?
                .table;
            all_pairs_mi(&table, threads)
        }
    };

    let unit = if in_bits { "bits" } else { "nats" };
    for (rank, (i, j, v)) in mi.candidate_edges(0.0).into_iter().take(top).enumerate() {
        let value = if in_bits { nats_to_bits(v) } else { v };
        writeln!(out, "{:3}  X{i} -- X{j}  {value:.6} {unit}", rank + 1)
            .map_err(|e| e.to_string())?;
    }
    if let Some(rec) = &metrics {
        writeln!(out, "{}", rec.snapshot().to_json()).map_err(|e| e.to_string())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_the_planted_pair_first() {
        // Two perfectly coupled columns + one independent.
        let dir = std::env::temp_dir().join("wfbn_cli_mi_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("d.csv");
        let mut text = String::new();
        for i in 0..400 {
            let a = i % 2;
            let c = (i / 2) % 2;
            text.push_str(&format!("{a},{a},{c}\n"));
        }
        std::fs::write(&path, text).unwrap();
        let args: Vec<String> = ["--in", path.to_str().unwrap(), "--top", "1", "--bits"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let mut out = Vec::new();
        run(&args, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("  1  X0 -- X1"), "{text}");
        assert!(text.contains("1.000000 bits"), "{text}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn metrics_switch_reports_pair_scans() {
        let dir = std::env::temp_dir().join("wfbn_cli_mi_metrics_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("d.csv");
        let mut text = String::new();
        for i in 0..200 {
            text.push_str(&format!("{},{},{}\n", i % 2, (i / 2) % 2, (i / 4) % 2));
        }
        std::fs::write(&path, text).unwrap();
        let args: Vec<String> = [
            "--in",
            path.to_str().unwrap(),
            "--threads",
            "2",
            "--metrics",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let mut out = Vec::new();
        run(&args, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("\"schema\": \"wfbn-metrics-v7\""), "{text}");
        assert!(text.contains("\"pairs_scanned\""), "{text}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
