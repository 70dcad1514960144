//! Writes the simulated-cost baseline: every deterministic value of
//! [`wfbn_bench::snapshot`] as `key value` lines, to stdout or to `--out
//! FILE`. The committed copy is `crates/bench/sim_baseline.txt`, which the
//! `sim_baseline` test checks on every `cargo test`.
//!
//! Usage: `bench_snapshot [--out FILE]`.

use wfbn_bench::snapshot::Snapshot;

fn parse_args() -> Result<Option<String>, String> {
    let mut out = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--out" => out = Some(it.next().ok_or("--out expects a file")?),
            other => {
                return Err(format!(
                    "unknown flag {other:?} (usage: bench_snapshot [--out FILE])"
                ))
            }
        }
    }
    Ok(out)
}

fn main() {
    let out = parse_args().unwrap_or_else(|e| {
        eprintln!("bench_snapshot: {e}");
        std::process::exit(2);
    });
    let text = Snapshot::measure().render();
    match out {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, text) {
                eprintln!("bench_snapshot: writing {path}: {e}");
                std::process::exit(1);
            }
            eprintln!("bench_snapshot: wrote {path}");
        }
        None => print!("{text}"),
    }
}
