//! A tiny, dependency-free CLI argument parser for the figure binaries.

/// Parsed harness options.
#[derive(Debug, Clone, PartialEq)]
pub struct HarnessArgs {
    /// Sample counts `m` to sweep (figure-specific defaults).
    pub samples: Vec<usize>,
    /// Variable counts `n` to sweep.
    pub vars: Vec<usize>,
    /// Core counts to sweep.
    pub cores: Vec<usize>,
    /// RNG seed for workload generation.
    pub seed: u64,
    /// Run at the paper's full scale (0.1M–10M samples) instead of the
    /// scaled-down defaults.
    pub paper_scale: bool,
    /// Also run one instrumented pass and emit the per-stage/per-core
    /// metrics report (JSON, schema `wfbn-metrics-v7`).
    pub metrics: bool,
    /// Optional directory to write CSV series into.
    pub out_dir: Option<String>,
}

impl Default for HarnessArgs {
    fn default() -> Self {
        Self {
            samples: vec![10_000, 100_000, 1_000_000],
            // Empty = "use the figure's own default sweep"; an explicit
            // --vars always wins (never silently overridden).
            vars: vec![],
            cores: vec![1, 2, 4, 8, 16, 32],
            seed: 42,
            paper_scale: false,
            metrics: false,
            out_dir: None,
        }
    }
}

/// Parse error with a message suitable for printing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl core::fmt::Display for ArgError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ArgError {}

fn parse_list<T: core::str::FromStr>(value: &str, flag: &str) -> Result<Vec<T>, ArgError> {
    value
        .split(',')
        .map(|part| {
            part.trim()
                .parse::<T>()
                .map_err(|_| ArgError(format!("invalid value {part:?} for {flag}")))
        })
        .collect()
}

impl HarnessArgs {
    /// Parses `--flag value` style arguments; unknown flags error.
    pub fn parse<I: IntoIterator<Item = String>>(iter: I) -> Result<Self, ArgError> {
        let mut out = Self::default();
        let mut it = iter.into_iter();
        while let Some(flag) = it.next() {
            let mut value_of = |flag: &str| {
                it.next()
                    .ok_or_else(|| ArgError(format!("{flag} expects a value")))
            };
            match flag.as_str() {
                "--samples" | "-m" => out.samples = parse_list(&value_of(&flag)?, &flag)?,
                "--vars" | "-n" => out.vars = parse_list(&value_of(&flag)?, &flag)?,
                "--cores" | "-p" => out.cores = parse_list(&value_of(&flag)?, &flag)?,
                "--seed" => {
                    out.seed = value_of(&flag)?
                        .parse()
                        .map_err(|_| ArgError("invalid seed".into()))?;
                }
                "--paper-scale" => out.paper_scale = true,
                "--metrics" => out.metrics = true,
                "--out" => out.out_dir = Some(value_of(&flag)?),
                "--help" | "-h" => {
                    return Err(ArgError(HELP.to_string()));
                }
                other => return Err(ArgError(format!("unknown flag {other:?}\n{HELP}"))),
            }
        }
        if out.samples.is_empty() || out.cores.is_empty() {
            return Err(ArgError("empty sweep list".into()));
        }
        Ok(out)
    }

    /// Parses the process arguments, exiting with a message on error.
    pub fn from_env() -> Self {
        match Self::parse(std::env::args().skip(1)) {
            Ok(args) => args,
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        }
    }
}

const HELP: &str = "\
Options:
  --samples, -m  LIST   comma-separated sample counts (e.g. 10000,100000)
  --vars, -n     LIST   comma-separated variable counts (e.g. 30,40,50)
  --cores, -p    LIST   comma-separated core counts (default 1,2,4,8,16,32)
  --seed         N      workload RNG seed (default 42)
  --paper-scale         use the paper's full sizes (0.1M/1M/10M samples)
  --metrics             run one instrumented pass and emit the per-stage
                        per-core metrics report (JSON, wfbn-metrics-v7)
  --out          DIR    also write CSV series into DIR
  --help, -h            print this help";

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<HarnessArgs, ArgError> {
        HarnessArgs::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn defaults_when_empty() {
        let a = parse("").unwrap();
        assert_eq!(a, HarnessArgs::default());
    }

    #[test]
    fn parses_lists_and_mode() {
        let a = parse("--samples 100,200 -n 5 --cores 1,2 --seed 9").unwrap();
        assert_eq!(a.samples, vec![100, 200]);
        assert_eq!(a.vars, vec![5]);
        assert_eq!(a.cores, vec![1, 2]);
        assert_eq!(a.seed, 9);
        // The figures are sim-only: there is no mode to choose.
        let e = parse("--mode both").unwrap_err();
        assert!(e.0.contains("unknown flag"), "{e}");
    }

    #[test]
    fn rejects_unknown_flags_and_bad_values() {
        assert!(parse("--bogus 1").is_err());
        assert!(parse("--samples ten").is_err());
        assert!(parse("--samples").is_err());
    }

    #[test]
    fn paper_scale_and_out() {
        let a = parse("--paper-scale --out /tmp/x").unwrap();
        assert!(a.paper_scale);
        assert_eq!(a.out_dir.as_deref(), Some("/tmp/x"));
        assert!(!a.metrics);
    }

    #[test]
    fn metrics_switch() {
        assert!(parse("--metrics").unwrap().metrics);
    }

    #[test]
    fn help_is_an_error_with_usage() {
        let e = parse("--help").unwrap_err();
        assert!(e.0.contains("--samples"));
    }
}
