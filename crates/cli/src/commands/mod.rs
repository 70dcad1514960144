//! Subcommand implementations.

pub mod build;
pub mod gen;
pub mod infer;
pub mod learn;
pub mod mi;
pub mod serve;
pub mod workload;

use wfbn_bn::network::BayesNet;
use wfbn_bn::repository;
use wfbn_data::Dataset;

/// Resolves a repository network by name.
pub fn network_by_name(name: &str) -> Result<BayesNet, String> {
    match name {
        "sprinkler" => Ok(repository::sprinkler()),
        "cancer" => Ok(repository::cancer()),
        "asia" => Ok(repository::asia()),
        "alarm-like" => Ok(repository::alarm_like()),
        "insurance-like" => Ok(repository::insurance_like()),
        other => Err(format!(
            "unknown network {other:?} (sprinkler|cancer|asia|alarm-like|insurance-like)"
        )),
    }
}

/// Loads a dataset from an integer CSV file, inferring the schema.
pub fn load_csv(path: &str) -> Result<Dataset, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    wfbn_data::csv::read_csv_infer_schema(&text).map_err(|e| format!("parsing {path}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn network_names_resolve() {
        for name in [
            "sprinkler",
            "cancer",
            "asia",
            "alarm-like",
            "insurance-like",
        ] {
            assert!(network_by_name(name).is_ok(), "{name}");
        }
        assert!(network_by_name("zzz").is_err());
    }
}
