//! Minimal flag parsing shared by the subcommands.

use std::collections::HashMap;

/// The most threads (`--threads`) or readers (`--readers`) a command
/// accepts. A build of `P` threads makes `P·(P−1)` queues before any thread
/// starts, each with a 4 KiB first segment: 4 032 queues, about 16 MiB, at
/// 64. The paper's platform has 32 cores.
pub const MAX_THREADS: usize = 64;

/// Parsed `--flag value` pairs plus bare `--switch`es.
pub struct Flags {
    values: HashMap<String, String>,
    switches: Vec<String>,
}

impl Flags {
    /// Parses the argument list. Each flag in `values` takes exactly one
    /// value and each in `switches` takes none; any other flag is an error,
    /// so a removed or misspelled flag is never silently ignored.
    pub fn parse(args: &[String], values: &[&str], switches: &[&str]) -> Result<Self, String> {
        let mut found_values = HashMap::new();
        let mut found_switches = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if !flag.starts_with("--") {
                return Err(format!("expected a --flag, found {flag:?}"));
            }
            let name = flag.trim_start_matches("--").to_string();
            if switches.contains(&name.as_str()) {
                found_switches.push(name);
            } else if values.contains(&name.as_str()) {
                let value = it
                    .next()
                    .ok_or_else(|| format!("--{name} expects a value"))?;
                found_values.insert(name, value.clone());
            } else {
                let known: Vec<String> = values
                    .iter()
                    .chain(switches)
                    .map(|f| format!("--{f}"))
                    .collect();
                return Err(format!(
                    "unknown flag --{name} (known: {})",
                    known.join(" ")
                ));
            }
        }
        Ok(Self {
            values: found_values,
            switches: found_switches,
        })
    }

    /// The raw string for a flag, if present.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    /// A parsed value with a default.
    pub fn get_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("invalid value {raw:?} for --{name}")),
        }
    }

    /// A thread or reader count: `default` when the flag is absent, else
    /// its value, which must lie in `1..=MAX_THREADS`.
    pub fn threads_or(&self, name: &str, default: usize) -> Result<usize, String> {
        let n = self.get_or(name, default)?;
        if (1..=MAX_THREADS).contains(&n) {
            Ok(n)
        } else {
            Err(format!(
                "--{name} must be between 1 and {MAX_THREADS}, got {n}"
            ))
        }
    }

    /// A required parsed value.
    pub fn require<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        let raw = self
            .get(name)
            .ok_or_else(|| format!("missing required flag --{name}"))?;
        raw.parse()
            .map_err(|_| format!("invalid value {raw:?} for --{name}"))
    }

    /// `true` if the bare switch was given.
    pub fn has_switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    const VALUES: &[&str] = &["in", "threads"];

    fn parse(s: &str, switches: &[&str]) -> Result<Flags, String> {
        let args: Vec<String> = s.split_whitespace().map(String::from).collect();
        Flags::parse(&args, VALUES, switches)
    }

    #[test]
    fn values_and_switches() {
        let f = parse("--in data.csv --threads 4 --bits", &["bits"]).unwrap();
        assert_eq!(f.get("in"), Some("data.csv"));
        assert_eq!(f.get_or::<usize>("threads", 1).unwrap(), 4);
        assert!(f.has_switch("bits"));
        assert!(!f.has_switch("other"));
        assert_eq!(f.get_or::<usize>("missing", 7).unwrap(), 7);
    }

    #[test]
    fn undeclared_flags_are_rejected_by_name() {
        let err = parse("--in data.csv --batched 1", &["bits"]).err().unwrap();
        assert!(err.starts_with("unknown flag --batched"), "{err}");
        assert!(err.contains("--threads") && err.contains("--bits"), "{err}");
        // A bare undeclared flag is unknown, not a missing value.
        let err = parse("--batched", &[]).err().unwrap();
        assert!(err.starts_with("unknown flag --batched"), "{err}");
    }

    #[test]
    fn error_cases() {
        assert!(parse("bare", &[]).is_err());
        assert!(parse("--in", &[]).is_err());
        let f = parse("--threads x", &[]).unwrap();
        assert!(f.get_or::<usize>("threads", 1).is_err());
        assert!(f.require::<usize>("absent").is_err());
    }

    #[test]
    fn thread_counts_are_bounded() {
        let threads = |v: &str| {
            parse(&format!("--threads {v}"), &[])
                .unwrap()
                .threads_or("threads", 4)
        };
        assert_eq!(threads("1"), Ok(1));
        assert_eq!(threads("64"), Ok(MAX_THREADS));
        for bad in ["0", "65", &usize::MAX.to_string()] {
            let err = threads(bad).unwrap_err();
            assert!(err.contains("between 1 and 64"), "{bad}: {err}");
        }
        assert!(threads("-1").unwrap_err().contains("invalid value"));
        // An absent flag takes the default.
        assert_eq!(parse("", &[]).unwrap().threads_or("threads", 4), Ok(4));
    }

    /// Pieces an adversarial argument is glued from.
    const PIECES: [&str; 14] = [
        "--", "-", "in", "threads", "bits", "x", "4", "=", " ", "", "é", "\u{0}", "\u{feff}",
        "--in",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn arbitrary_argument_vectors_never_panic(
            args in vec(vec(0usize..PIECES.len(), 0..5), 0..8),
            bytes in vec(any::<u8>(), 0..24),
        ) {
            let mut args: Vec<String> = args
                .iter()
                .map(|picks| picks.iter().map(|&k| PIECES[k]).collect())
                .collect();
            args.push(String::from_utf8_lossy(&bytes).into_owned());
            for switches in [&[][..], &["bits"][..]] {
                if let Ok(f) = Flags::parse(&args, VALUES, switches) {
                    let _ = f.get_or::<usize>("threads", 1);
                    let _ = f.require::<String>("in");
                }
            }
        }

        #[test]
        fn printed_flags_parse_back(
            values in vec((0usize..VALUES.len(), vec(0usize..PIECES.len(), 0..4)), 0..4),
            bits in any::<bool>(),
        ) {
            let mut args = Vec::new();
            let mut expected = HashMap::new();
            for (flag, picks) in &values {
                let value: String = picks.iter().map(|&k| PIECES[k]).collect();
                args.push(format!("--{}", VALUES[*flag]));
                args.push(value.clone());
                expected.insert(VALUES[*flag], value);
            }
            if bits {
                args.push("--bits".into());
            }
            let f = Flags::parse(&args, VALUES, &["bits"]).unwrap();
            for flag in VALUES {
                prop_assert_eq!(f.get(flag), expected.get(flag).map(String::as_str));
            }
            prop_assert_eq!(f.has_switch("bits"), bits);
        }
    }
}
