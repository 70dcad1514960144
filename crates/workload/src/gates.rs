//! Latency and fairness SLO gates the scenario matrix is held to in CI.
//!
//! Two gates, both hard failures:
//!
//! * **Fairness** — no scenario may starve a reader: the ratio between the
//!   most- and least-served reader must stay within [`FAIRNESS_BOUND`].
//!   Violations name the scenario and the starved reader, so a CI failure
//!   is directly actionable.
//! * **Skewed p99** — a skewed scenario ([`Scenario::skew_gated`]) must
//!   keep its p99 query latency within [`SKEW_P99_MULTIPLE`] of the
//!   uniform baseline measured in the same run. This is the SLO form of
//!   the paper's claim: partition skew may cost throughput, but it must
//!   not collapse reader-side latency, because readers scan immutable
//!   snapshots and never contend with the writer. A p99 over a few dozen
//!   wall-clock samples is noise, so the gate judges only when both sides
//!   served at least [`MIN_SKEW_SAMPLES`] queries.

use crate::scenario::Scenario;

/// Maximum allowed max/min queries-served ratio across readers.
pub const FAIRNESS_BOUND: f64 = 3.0;

/// Maximum allowed p99 multiple of the uniform baseline for skewed
/// scenarios. Generous on purpose: the gate exists to catch collapse
/// (starvation, livelock, quadratic rescans), not noise.
pub const SKEW_P99_MULTIPLE: f64 = 20.0;

/// Queries each side of the skew comparison must have served before its
/// p99 is judged.
pub const MIN_SKEW_SAMPLES: u64 = 100;

/// Checks the reader-fairness SLO; returns the max/min ratio on success.
///
/// A reader that served zero queries is starvation outright, reported with
/// its id; otherwise the ratio must stay within `bound`.
pub fn check_fairness(
    scenario: Scenario,
    served_per_reader: &[u64],
    bound: f64,
) -> Result<f64, String> {
    if served_per_reader.is_empty() {
        return Err(format!(
            "fairness gate: scenario '{}' reported no readers",
            scenario.name()
        ));
    }
    let (min_id, &min) = served_per_reader
        .iter()
        .enumerate()
        .min_by_key(|&(_, &s)| s)
        .expect("non-empty");
    let (max_id, &max) = served_per_reader
        .iter()
        .enumerate()
        .max_by_key(|&(_, &s)| s)
        .expect("non-empty");
    if min == 0 && max > 0 {
        return Err(format!(
            "fairness gate failed: scenario '{}' starved reader {} \
             (served 0 queries while reader {} served {})",
            scenario.name(),
            min_id,
            max_id,
            max
        ));
    }
    let ratio = if max == 0 { 1.0 } else { max as f64 / min as f64 };
    if ratio > bound {
        return Err(format!(
            "fairness gate failed: scenario '{}' served reader {} only {} \
             queries vs {} for reader {} (ratio {:.2} > bound {:.2})",
            scenario.name(),
            min_id,
            min,
            max,
            max_id,
            ratio,
            bound
        ));
    }
    Ok(ratio)
}

/// Checks the skewed-p99 SLO against the uniform baseline from the same
/// run, where `samples` is the fewer queries either side served.
///
/// Returns `Ok(false)` when a gated scenario cannot be judged because
/// `samples` is below [`MIN_SKEW_SAMPLES`]; callers report that instead of
/// a verdict. Non-gated scenarios and a degenerate (zero) baseline pass
/// trivially — the latter means the clock's resolution swallowed the
/// baseline, and no meaningful multiple exists.
pub fn check_skew_p99(
    scenario: Scenario,
    p99_ns: u64,
    uniform_p99_ns: u64,
    samples: u64,
    multiple: f64,
) -> Result<bool, String> {
    if !scenario.skew_gated() {
        return Ok(true);
    }
    if samples < MIN_SKEW_SAMPLES {
        return Ok(false);
    }
    let limit = uniform_p99_ns as f64 * multiple;
    if uniform_p99_ns > 0 && p99_ns as f64 > limit {
        return Err(format!(
            "latency gate failed: scenario '{}' p99 {}ns exceeds {:.0}x \
             uniform baseline {}ns (limit {:.0}ns)",
            scenario.name(),
            p99_ns,
            multiple,
            uniform_p99_ns,
            limit
        ));
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_readers_pass_and_report_the_ratio() {
        let r = check_fairness(Scenario::Uniform, &[100, 101, 99, 100], 3.0).unwrap();
        assert!(r < 1.1, "ratio {r}");
    }

    #[test]
    fn starved_reader_is_named_in_the_message() {
        let err = check_fairness(Scenario::StarveReader, &[200, 0, 100, 100], 3.0)
            .unwrap_err();
        assert!(err.contains("'starve-reader'"), "{err}");
        assert!(err.contains("starved reader 1"), "{err}");
    }

    #[test]
    fn imbalanced_but_nonzero_readers_fail_on_the_ratio() {
        let err = check_fairness(Scenario::Zipf, &[90, 10, 90, 90], 3.0).unwrap_err();
        assert!(err.contains("'zipf'"), "{err}");
        assert!(err.contains("reader 1"), "{err}");
        assert!(err.contains("9.00"), "{err}");
    }

    #[test]
    fn all_idle_readers_are_vacuously_fair() {
        assert_eq!(check_fairness(Scenario::Uniform, &[0, 0], 3.0), Ok(1.0));
    }

    #[test]
    fn skew_gate_only_applies_to_gated_scenarios() {
        let n = MIN_SKEW_SAMPLES;
        // hot-query is expensive by design — never compared to uniform.
        assert_eq!(check_skew_p99(Scenario::HotQuery, 1_000_000, 10, n, 20.0), Ok(true));
        // zipf within the multiple passes…
        assert_eq!(check_skew_p99(Scenario::Zipf, 150, 10, n, 20.0), Ok(true));
        // …and beyond it fails, naming the scenario.
        let err = check_skew_p99(Scenario::Zipf, 500, 10, n, 20.0).unwrap_err();
        assert!(err.contains("'zipf'"), "{err}");
        // A zero baseline cannot define a multiple.
        assert_eq!(check_skew_p99(Scenario::Burst, 500, 0, n, 20.0), Ok(true));
    }

    #[test]
    fn skew_gate_does_not_judge_small_samples() {
        // Even a 50x regression is not judged on too few queries.
        assert_eq!(
            check_skew_p99(Scenario::Zipf, 500, 10, MIN_SKEW_SAMPLES - 1, 20.0),
            Ok(false)
        );
        assert!(check_skew_p99(Scenario::Zipf, 500, 10, MIN_SKEW_SAMPLES, 20.0).is_err());
    }
}
