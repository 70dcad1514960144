//! `wfbn` — command-line interface to the wait-free structure-learning
//! pipeline.
//!
//! ```text
//! wfbn gen   --net asia --samples 100000 --out data.csv
//! wfbn build --in data.csv --threads 4
//! wfbn mi    --in data.csv --threads 4 --top 10
//! wfbn learn --in data.csv --threads 4 --epsilon 0.001
//! wfbn infer --net asia --target 3 --evidence 6=1,2=1
//! ```
//!
//! Every subcommand reads/writes plain integer CSV (see `wfbn_data::csv`),
//! so the tool composes with standard data plumbing.

mod args;
mod commands;

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv, &mut std::io::stdout()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

/// Dispatches a full argv (testable entry point).
pub(crate) fn run(argv: &[String], out: &mut dyn std::io::Write) -> Result<(), String> {
    let Some((cmd, rest)) = argv.split_first() else {
        return Err(format!("no subcommand given\n{USAGE}"));
    };
    match cmd.as_str() {
        "gen" => commands::gen::run(rest, out),
        "build" => commands::build::run(rest, out),
        "mi" => commands::mi::run(rest, out),
        "learn" => commands::learn::run(rest, out),
        "infer" => commands::infer::run(rest, out),
        "serve" => commands::serve::run(rest, out),
        "workload" => commands::workload::run(rest, out),
        "--help" | "-h" | "help" => {
            writeln!(out, "{USAGE}").map_err(|e| e.to_string())?;
            Ok(())
        }
        other => Err(format!("unknown subcommand {other:?}\n{USAGE}")),
    }
}

const USAGE: &str = "\
wfbn — wait-free Bayesian-network structure learning pipeline

Subcommands:
  gen    generate synthetic training data (CSV)
         --net NAME | --uniform N,R | --chain N,RHO | --zipf N,S
         --samples M [--seed S] [--out FILE]
  build  build the potential table from CSV and print statistics
         --in FILE [--threads P] [--metrics]
  mi     all-pairs mutual information screening
         --in FILE [--threads P] [--top K] [--bits] [--metrics]
  learn  structure learning
         --in FILE [--method cheng|hillclimb|chowliu] [--threads P]
         [--epsilon E] [--alpha A] [--fit]
  infer  exact posterior query on a repository network
         --net NAME --target VAR [--evidence V=S,V=S,...]
  serve  long-lived query service over epoch-published snapshots
         --in FILE [--threads P] [--batch ROWS] [--metrics]
         [--script FILE | --listen ADDR]   (default: line protocol on stdin)
         protocol: MARGINAL/MI/CPT/EPOCH/SYNC/INGEST/STATS/QUIT, ';' fuses
  workload  deterministic serve workload scenarios with SLO gates
         --list | --scenario NAME [--emit [--out FILE] | --run [--threads P]]
         [--rows R] [--batches B] [--queries Q] [--readers N] [--seed S]
         scenarios: uniform zipf burst adversarial-partition wide-sparse
                    hot-query starve-reader
  --threads P and --readers N take 1 to 64.

Repository networks: sprinkler, cancer, asia, alarm-like, insurance-like";

#[cfg(test)]
mod tests {
    use super::*;

    fn run_to_string(args: &[&str]) -> Result<String, String> {
        let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut out = Vec::new();
        run(&argv, &mut out)?;
        Ok(String::from_utf8(out).expect("utf8 output"))
    }

    #[test]
    fn help_and_unknown_commands() {
        assert!(run_to_string(&["--help"]).unwrap().contains("Subcommands"));
        assert!(run_to_string(&[]).is_err());
        assert!(run_to_string(&["frobnicate"])
            .unwrap_err()
            .contains("unknown"));
    }

    #[test]
    fn full_pipeline_through_a_temp_file() {
        let dir = std::env::temp_dir().join("wfbn_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("sprinkler.csv");
        let csv_str = csv.to_str().unwrap();

        let gen_out = run_to_string(&[
            "gen",
            "--net",
            "sprinkler",
            "--samples",
            "30000",
            "--seed",
            "5",
            "--out",
            csv_str,
        ])
        .unwrap();
        assert!(gen_out.contains("30000"));

        let build_out = run_to_string(&["build", "--in", csv_str, "--threads", "4"]).unwrap();
        assert!(build_out.contains("distinct state strings"), "{build_out}");

        let mi_out = run_to_string(&["mi", "--in", csv_str, "--top", "3", "--bits"]).unwrap();
        assert!(mi_out.lines().count() >= 3, "{mi_out}");

        let learn_out = run_to_string(&["learn", "--in", csv_str, "--epsilon", "0.002"]).unwrap();
        // Sprinkler's collider must be recovered and oriented.
        assert!(learn_out.contains("X1 -> X3"), "{learn_out}");
        assert!(learn_out.contains("X2 -> X3"), "{learn_out}");

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn gen_synthetic_families() {
        let dir = std::env::temp_dir().join("wfbn_cli_gen_test");
        std::fs::create_dir_all(&dir).unwrap();
        for (flag, spec) in [
            ("--uniform", "6,2"),
            ("--chain", "5,0.8"),
            ("--zipf", "4,1.5"),
        ] {
            let path = dir.join(format!("{}.csv", &flag[2..]));
            let out = run_to_string(&[
                "gen",
                flag,
                spec,
                "--samples",
                "100",
                "--out",
                path.to_str().unwrap(),
            ])
            .unwrap();
            assert!(out.contains("100"), "{out}");
            let content = std::fs::read_to_string(&path).unwrap();
            assert_eq!(content.lines().count(), 100);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn infer_command_answers_queries() {
        let out = run_to_string(&[
            "infer",
            "--net",
            "asia",
            "--target",
            "3",
            "--evidence",
            "6=1,2=1",
        ])
        .unwrap();
        assert!(out.contains("P(X3"), "{out}");
        // Probabilities present and normalized-ish.
        assert!(out.contains("state 0") && out.contains("state 1"));
    }

    #[test]
    fn undeclared_flags_are_errors_not_ignored() {
        // `--batched` was removed from `build`; it must not be accepted silently.
        let err = run_to_string(&["build", "--in", "x.csv", "--batched", "1"]).unwrap_err();
        assert!(err.starts_with("unknown flag --batched"), "{err}");
        for cmd in ["gen", "build", "mi", "learn", "infer", "serve", "workload"] {
            let err = run_to_string(&[cmd, "--bogus", "1"]).unwrap_err();
            assert!(err.starts_with("unknown flag --bogus"), "{cmd}: {err}");
        }
    }

    #[test]
    fn error_paths_are_reported() {
        assert!(run_to_string(&["gen", "--samples", "10"])
            .unwrap_err()
            .contains("source"));
        assert!(run_to_string(&["build", "--in", "/nonexistent/x.csv"]).is_err());
        assert!(run_to_string(&["infer", "--net", "nope", "--target", "0"])
            .unwrap_err()
            .contains("unknown network"));
        assert!(run_to_string(&[
            "infer",
            "--net",
            "asia",
            "--target",
            "0",
            "--evidence",
            "bad"
        ])
        .unwrap_err()
        .contains("evidence"));
    }
}
