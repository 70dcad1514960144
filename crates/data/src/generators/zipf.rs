//! Zipf-skewed state sampling, for stressing the balance assumption.
//!
//! The wait-free primitive's load balance rests on keys spreading evenly
//! across the `P` key-space partitions. Real datasets are rarely uniform:
//! a handful of state strings dominate. This generator draws each variable's
//! state from a Zipf(`s`) distribution (`P[k] ∝ 1/(k+1)^s`), concentrating
//! probability mass on low states and therefore concentrating keys near 0 —
//! the adversarial input for the paper's `key % P` partitioner.

use super::Generator;
use crate::dataset::Dataset;
use crate::schema::Schema;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Independent per-variable Zipf-distributed states.
#[derive(Debug, Clone)]
pub struct ZipfIndependent {
    schema: Schema,
    exponent: f64,
    /// Per-variable cumulative distribution tables, flattened.
    cdfs: Vec<Vec<f64>>,
}

/// Error: non-finite or negative exponent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidExponent;

impl core::fmt::Display for InvalidExponent {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Zipf exponent must be finite and non-negative")
    }
}

impl std::error::Error for InvalidExponent {}

impl ZipfIndependent {
    /// Creates a generator with Zipf exponent `s ≥ 0` (`s = 0` is uniform).
    pub fn new(schema: Schema, exponent: f64) -> Result<Self, InvalidExponent> {
        if !exponent.is_finite() || exponent < 0.0 {
            return Err(InvalidExponent);
        }
        let cdfs = schema
            .arities()
            .iter()
            .map(|&r| {
                let weights: Vec<f64> = (0..r)
                    .map(|k| 1.0 / f64::from(k + 1).powf(exponent))
                    .collect();
                let total: f64 = weights.iter().sum();
                let mut acc = 0.0;
                weights
                    .iter()
                    .map(|w| {
                        acc += w / total;
                        acc
                    })
                    .collect()
            })
            .collect();
        Ok(Self {
            schema,
            exponent,
            cdfs,
        })
    }

    /// The skew exponent `s`.
    pub fn exponent(&self) -> f64 {
        self.exponent
    }

    fn sample_state(&self, j: usize, u: f64) -> u16 {
        // Arities are small (≤ a few hundred); a linear scan beats binary
        // search for the sizes that occur in practice.
        let cdf = &self.cdfs[j];
        for (k, &c) in cdf.iter().enumerate() {
            if u <= c {
                return k as u16;
            }
        }
        (cdf.len() - 1) as u16
    }
}

impl Generator for ZipfIndependent {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn generate(&self, m: usize, seed: u64) -> Dataset {
        let n = self.schema.num_vars();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut states = Vec::with_capacity(m * n);
        for _ in 0..m {
            for j in 0..n {
                let u: f64 = rng.random();
                states.push(self.sample_state(j, u));
            }
        }
        Dataset::from_flat_unchecked(self.schema.clone(), states)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_exponent_is_uniform() {
        let schema = Schema::new(vec![4]).unwrap();
        let d = ZipfIndependent::new(schema, 0.0)
            .unwrap()
            .generate(40_000, 1);
        for s in 0..4u16 {
            let f = d.empirical_frequency(0, s);
            assert!((f - 0.25).abs() < 0.02, "state {s} freq {f}");
        }
    }

    #[test]
    fn higher_exponent_concentrates_on_state_zero() {
        let schema = Schema::new(vec![8]).unwrap();
        let mild = ZipfIndependent::new(schema.clone(), 0.5)
            .unwrap()
            .generate(20_000, 2)
            .empirical_frequency(0, 0);
        let harsh = ZipfIndependent::new(schema, 2.0)
            .unwrap()
            .generate(20_000, 2)
            .empirical_frequency(0, 0);
        assert!(harsh > mild, "harsh={harsh} mild={mild}");
        assert!(harsh > 0.6, "Zipf(2) over 8 states should put >60% on 0");
    }

    #[test]
    fn frequencies_are_monotone_decreasing() {
        let schema = Schema::new(vec![6]).unwrap();
        let d = ZipfIndependent::new(schema, 1.0)
            .unwrap()
            .generate(60_000, 4);
        let freqs: Vec<f64> = (0..6u16).map(|s| d.empirical_frequency(0, s)).collect();
        for w in freqs.windows(2) {
            // Allow tiny sampling noise.
            assert!(w[0] > w[1] - 0.01, "freqs not decreasing: {freqs:?}");
        }
    }

    #[test]
    fn rejects_bad_exponent() {
        let schema = Schema::uniform(2, 2).unwrap();
        assert!(ZipfIndependent::new(schema.clone(), -1.0).is_err());
        assert!(ZipfIndependent::new(schema.clone(), f64::NAN).is_err());
        assert!(ZipfIndependent::new(schema, f64::INFINITY).is_err());
    }
}
