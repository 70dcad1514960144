//! `wfbn infer` — exact posterior queries on repository networks.

use crate::args::Flags;
use crate::commands::network_by_name;
use std::io::Write;
use wfbn_bn::infer::posterior;

fn parse_evidence(spec: &str) -> Result<Vec<(usize, u16)>, String> {
    if spec.trim().is_empty() {
        return Ok(vec![]);
    }
    spec.split(',')
        .map(|item| {
            let (var, state) = item
                .split_once('=')
                .ok_or_else(|| format!("evidence item {item:?} must be VAR=STATE"))?;
            Ok((
                var.trim()
                    .parse()
                    .map_err(|_| format!("bad evidence variable in {item:?}"))?,
                state
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad evidence state in {item:?}"))?,
            ))
        })
        .collect()
}

/// Runs the subcommand.
pub fn run(args: &[String], out: &mut dyn Write) -> Result<(), String> {
    let flags = Flags::parse(args, &["net", "target", "evidence"], &[])?;
    let net = network_by_name(&flags.require::<String>("net")?)?;
    let target: usize = flags.require("target")?;
    let evidence = parse_evidence(flags.get("evidence").unwrap_or(""))?;

    let dist = posterior(&net, target, &evidence).map_err(|e| e.to_string())?;
    let ev_text = if evidence.is_empty() {
        String::new()
    } else {
        let items: Vec<String> = evidence.iter().map(|(v, s)| format!("X{v}={s}")).collect();
        format!(" | {}", items.join(", "))
    };
    writeln!(out, "P(X{target}{ev_text}):").map_err(|e| e.to_string())?;
    for (state, p) in dist.iter().enumerate() {
        writeln!(out, "  state {state}: {p:.6}").map_err(|e| e.to_string())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evidence_parsing() {
        assert_eq!(parse_evidence("").unwrap(), vec![]);
        assert_eq!(parse_evidence("3=1").unwrap(), vec![(3, 1)]);
        assert_eq!(parse_evidence("6=1, 2=0").unwrap(), vec![(6, 1), (2, 0)]);
        assert!(parse_evidence("6:1").is_err());
        assert!(parse_evidence("x=1").is_err());
        assert!(parse_evidence("1=y").is_err());
    }

    #[test]
    fn posterior_is_printed_and_normalized() {
        let args: Vec<String> = ["--net", "sprinkler", "--target", "2", "--evidence", "3=1"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let mut out = Vec::new();
        run(&args, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let probs: Vec<f64> = text
            .lines()
            .skip(1)
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert_eq!(probs.len(), 2);
        assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }
}
