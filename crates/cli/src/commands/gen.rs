//! `wfbn gen` — synthesize training data to CSV.

use crate::args::Flags;
use crate::commands::network_by_name;
use std::io::Write;
use wfbn_data::{
    csv::write_csv, CorrelatedChain, Dataset, Generator, Schema, UniformIndependent,
    ZipfIndependent,
};

fn parse_pair<A: std::str::FromStr, B: std::str::FromStr>(
    spec: &str,
    flag: &str,
) -> Result<(A, B), String> {
    let (a, b) = spec
        .split_once(',')
        .ok_or_else(|| format!("--{flag} expects the form A,B"))?;
    Ok((
        a.trim()
            .parse()
            .map_err(|_| format!("invalid first component in --{flag} {spec:?}"))?,
        b.trim()
            .parse()
            .map_err(|_| format!("invalid second component in --{flag} {spec:?}"))?,
    ))
}

/// Runs the subcommand.
pub fn run(args: &[String], out: &mut dyn Write) -> Result<(), String> {
    let flags = Flags::parse(
        args,
        &["samples", "seed", "net", "uniform", "chain", "zipf", "out"],
        &[],
    )?;
    let samples: usize = flags.get_or("samples", 10_000)?;
    let seed: u64 = flags.get_or("seed", 42)?;

    let data: Dataset = if let Some(name) = flags.get("net") {
        network_by_name(name)?.sample(samples, seed)
    } else if let Some(spec) = flags.get("uniform") {
        let (n, r): (usize, u16) = parse_pair(spec, "uniform")?;
        let schema = Schema::uniform(n, r).map_err(|e| e.to_string())?;
        UniformIndependent::new(schema).generate(samples, seed)
    } else if let Some(spec) = flags.get("chain") {
        let (n, rho): (usize, f64) = parse_pair(spec, "chain")?;
        let schema = Schema::uniform(n, 2).map_err(|e| e.to_string())?;
        CorrelatedChain::new(schema, rho)
            .map_err(|e| e.to_string())?
            .generate(samples, seed)
    } else if let Some(spec) = flags.get("zipf") {
        let (n, s): (usize, f64) = parse_pair(spec, "zipf")?;
        let schema = Schema::uniform(n, 2).map_err(|e| e.to_string())?;
        ZipfIndependent::new(schema, s)
            .map_err(|e| e.to_string())?
            .generate(samples, seed)
    } else {
        return Err("no data source: pass --net, --uniform, --chain or --zipf".to_string());
    };

    match flags.get("out") {
        Some(path) => {
            let file = std::fs::File::create(path).map_err(|e| format!("creating {path}: {e}"))?;
            write_csv(&data, std::io::BufWriter::new(file)).map_err(|e| e.to_string())?;
            writeln!(
                out,
                "wrote {} samples × {} variables to {path}",
                data.num_samples(),
                data.num_vars()
            )
            .map_err(|e| e.to_string())
        }
        None => {
            write_csv(&data, &mut *out).map_err(|e| e.to_string())?;
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stdout_mode_emits_csv() {
        let args: Vec<String> = ["--uniform", "3,2", "--samples", "5"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let mut out = Vec::new();
        run(&args, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 5);
        assert!(text.lines().all(|l| l.split(',').count() == 3));
    }

    #[test]
    fn pair_parsing_errors() {
        assert!(parse_pair::<usize, u16>("5", "uniform").is_err());
        assert!(parse_pair::<usize, u16>("x,2", "uniform").is_err());
        assert!(parse_pair::<usize, f64>("5,2.5", "chain").is_ok());
    }
}
