//! Discretization of continuous measurements into schema-conformant states.
//!
//! The primitives operate on discrete state strings, but the motivating
//! domains (gene expression, finance, sensor data) produce real-valued
//! measurements. This module maps an `m × n` matrix of `f64` columns onto a
//! [`Dataset`] with one of two classic binning rules per column:
//!
//! * **equal-width** — `k` bins of identical span over `[min, max]`; fast,
//!   but skewed data piles into few bins;
//! * **equal-frequency** (quantile) — bin edges at the `1/k, 2/k, …`
//!   quantiles, so every bin holds ≈ `m/k` samples; this is the usual
//!   preprocessing for mutual-information screening because it maximizes
//!   the entropy available to the statistic.
//!
//! Bin edges are computed from the data (`fit`) and can be reapplied to new
//! data (`apply`) — the standard train/test discipline.

use crate::dataset::Dataset;
use crate::schema::{Schema, SchemaError};
use core::fmt;

/// Binning rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinRule {
    /// Equal-width bins over the observed range.
    EqualWidth,
    /// Equal-frequency (quantile) bins.
    EqualFrequency,
}

/// Errors from discretization.
#[derive(Debug, Clone, PartialEq)]
pub enum DiscretizeError {
    /// Fewer than 2 bins requested.
    TooFewBins,
    /// The input matrix shape is inconsistent.
    RaggedInput,
    /// The input is empty.
    Empty,
    /// A column contains a non-finite value.
    NonFinite {
        /// Column index.
        column: usize,
    },
    /// The resulting schema is invalid (e.g. state space too large).
    Schema(SchemaError),
}

impl fmt::Display for DiscretizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiscretizeError::TooFewBins => write!(f, "need at least 2 bins"),
            DiscretizeError::RaggedInput => write!(f, "input is not a whole number of rows"),
            DiscretizeError::Empty => write!(f, "input contains no rows"),
            DiscretizeError::NonFinite { column } => {
                write!(f, "column {column} contains a non-finite value")
            }
            DiscretizeError::Schema(e) => write!(f, "schema error: {e}"),
        }
    }
}

impl std::error::Error for DiscretizeError {}

impl From<SchemaError> for DiscretizeError {
    fn from(e: SchemaError) -> Self {
        DiscretizeError::Schema(e)
    }
}

/// A fitted discretizer: per-column interior bin edges.
///
/// Value `v` in column `j` maps to the number of edges strictly below it
/// (so edges act as right-open boundaries).
///
/// # Examples
///
/// ```
/// use wfbn_data::discretize::{BinRule, Discretizer};
///
/// // Two columns, 3 rows, row-major.
/// let values = [0.0, 10.0, 0.5, 20.0, 1.0, 30.0];
/// let d = Discretizer::fit(&values, 2, 2, BinRule::EqualWidth).unwrap();
/// let data = d.apply(&values).unwrap();
/// assert_eq!(data.num_samples(), 3);
/// assert_eq!(data.schema().arities(), &[2, 2]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Discretizer {
    /// Interior edges per column (`bins − 1` each).
    edges: Vec<Vec<f64>>,
    bins: u16,
}

impl Discretizer {
    /// Fits per-column bin edges on a row-major `f64` matrix with `n`
    /// columns.
    pub fn fit(
        values: &[f64],
        n: usize,
        bins: u16,
        rule: BinRule,
    ) -> Result<Self, DiscretizeError> {
        if bins < 2 {
            return Err(DiscretizeError::TooFewBins);
        }
        if n == 0 || values.is_empty() {
            return Err(DiscretizeError::Empty);
        }
        if values.len() % n != 0 {
            return Err(DiscretizeError::RaggedInput);
        }
        let m = values.len() / n;
        let mut edges = Vec::with_capacity(n);
        for j in 0..n {
            let mut column: Vec<f64> = (0..m).map(|i| values[i * n + j]).collect();
            if column.iter().any(|v| !v.is_finite()) {
                return Err(DiscretizeError::NonFinite { column: j });
            }
            let col_edges = match rule {
                BinRule::EqualWidth => {
                    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
                    for &v in &column {
                        lo = lo.min(v);
                        hi = hi.max(v);
                    }
                    let span = hi - lo;
                    (1..bins)
                        .map(|b| lo + span * f64::from(b) / f64::from(bins))
                        .collect()
                }
                BinRule::EqualFrequency => {
                    column.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
                    (1..bins)
                        .map(|b| {
                            let rank = (m as f64 * f64::from(b) / f64::from(bins)) as usize;
                            column[rank.min(m - 1)]
                        })
                        .collect()
                }
            };
            edges.push(col_edges);
        }
        Ok(Self { edges, bins })
    }

    /// The state a single value maps to in column `j`.
    pub(crate) fn bin_of(&self, j: usize, value: f64) -> u16 {
        self.edges[j].iter().filter(|&&e| value > e).count() as u16
    }

    /// Applies the fitted edges to a row-major matrix (same column count),
    /// producing a discrete dataset.
    pub fn apply(&self, values: &[f64]) -> Result<Dataset, DiscretizeError> {
        let n = self.edges.len();
        if values.len() % n != 0 {
            return Err(DiscretizeError::RaggedInput);
        }
        if values.is_empty() {
            return Err(DiscretizeError::Empty);
        }
        let schema = Schema::uniform(n, self.bins)?;
        let mut states = Vec::with_capacity(values.len());
        for (idx, &v) in values.iter().enumerate() {
            if !v.is_finite() {
                return Err(DiscretizeError::NonFinite { column: idx % n });
            }
            states.push(self.bin_of(idx % n, v));
        }
        Ok(Dataset::from_flat_unchecked(schema, states))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_width_bins_split_the_range() {
        // One column, values 0..10.
        let values: Vec<f64> = (0..10).map(f64::from).collect();
        let d = Discretizer::fit(&values, 1, 2, BinRule::EqualWidth).unwrap();
        let data = d.apply(&values).unwrap();
        // 0..=4 map to bin 0 (edge at 4.5), 5..=9 to bin 1.
        let low = data.rows().filter(|r| r[0] == 0).count();
        assert_eq!(low, 5);
    }

    #[test]
    fn equal_frequency_balances_skewed_data() {
        // Heavily skewed but distinct values: x⁴ growth.
        let values: Vec<f64> = (1..=100).map(|i| f64::from(i).powi(4)).collect();
        let width = Discretizer::fit(&values, 1, 4, BinRule::EqualWidth).unwrap();
        let freq = Discretizer::fit(&values, 1, 4, BinRule::EqualFrequency).unwrap();
        let count_per_bin = |d: &Discretizer| -> Vec<usize> {
            let data = d.apply(&values).unwrap();
            (0..4u16)
                .map(|b| data.rows().filter(|r| r[0] == b).count())
                .collect()
        };
        let w = count_per_bin(&width);
        let f = count_per_bin(&freq);
        // Equal-width: the lowest bin hogs ~70 of 100 values.
        assert!(w[0] > 60, "{w:?}");
        // Equal-frequency: ≈25 per bin.
        assert!(f.iter().all(|&c| (20..=30).contains(&c)), "{f:?}");
    }

    #[test]
    fn fit_apply_train_test_discipline() {
        let train: Vec<f64> = (0..100).map(f64::from).collect();
        let d = Discretizer::fit(&train, 1, 4, BinRule::EqualFrequency).unwrap();
        // New data outside the training range clamps into the end bins.
        let test = [-5.0, 50.0, 500.0];
        let data = d.apply(&test).unwrap();
        assert_eq!(data.row(0)[0], 0);
        assert_eq!(data.row(2)[0], 3);
        assert!(data.row(1)[0] == 1 || data.row(1)[0] == 2);
    }

    #[test]
    fn multi_column_shapes() {
        let values = [1.0, -1.0, 2.0, -2.0, 3.0, -3.0, 4.0, -4.0];
        let d = Discretizer::fit(&values, 2, 2, BinRule::EqualWidth).unwrap();
        let data = d.apply(&values).unwrap();
        assert_eq!(data.num_vars(), 2);
        assert_eq!(data.num_samples(), 4);
        // Columns are anti-correlated: bins must be too.
        for row in data.rows() {
            assert_eq!(row[0], 1 - row[1]);
        }
    }

    #[test]
    fn errors_are_reported() {
        assert!(matches!(
            Discretizer::fit(&[1.0], 1, 1, BinRule::EqualWidth),
            Err(DiscretizeError::TooFewBins)
        ));
        assert!(matches!(
            Discretizer::fit(&[], 1, 2, BinRule::EqualWidth),
            Err(DiscretizeError::Empty)
        ));
        assert!(matches!(
            Discretizer::fit(&[1.0, 2.0, 3.0], 2, 2, BinRule::EqualWidth),
            Err(DiscretizeError::RaggedInput)
        ));
        assert!(matches!(
            Discretizer::fit(&[1.0, f64::NAN], 1, 2, BinRule::EqualWidth),
            Err(DiscretizeError::NonFinite { column: 0 })
        ));
        let d = Discretizer::fit(&[1.0, 2.0], 1, 2, BinRule::EqualWidth).unwrap();
        assert!(matches!(
            d.apply(&[1.0, f64::INFINITY]),
            Err(DiscretizeError::NonFinite { .. })
        ));
    }

    #[test]
    fn constant_column_is_handled() {
        let values = [5.0; 20];
        let d = Discretizer::fit(&values, 1, 3, BinRule::EqualWidth).unwrap();
        let data = d.apply(&values).unwrap();
        // All values land in a single bin; states stay in range.
        for row in data.rows() {
            assert!(row[0] < 3);
        }
    }
}
