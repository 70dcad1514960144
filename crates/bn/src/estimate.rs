//! Parameter estimation: fitting CPTs from data, *through the paper's
//! primitives*.
//!
//! Once a structure is learned, each variable's conditional distribution
//! `P(X | parents(X))` is estimated from the family counts
//! `N(x, parents)` — which is exactly one marginalization of the potential
//! table over the family `{X} ∪ parents(X)` (Algorithm 3 again). A fit packs
//! the table once ([`PackedTable`]) and counts every family from that
//! snapshot.
//! Laplace smoothing `α` keeps unseen configurations strictly positive so
//! downstream inference and likelihoods never divide by zero.

use crate::cpt::Cpt;
use crate::graph::Dag;
use crate::network::{BayesNet, NetworkError};
use wfbn_core::construct::waitfree_build;
use wfbn_core::error::CoreError;
use wfbn_core::marginal::PackedTable;
use wfbn_core::potential::PotentialTable;
use wfbn_data::{Dataset, Schema};

/// Errors from parameter fitting.
#[derive(Debug)]
pub enum FitError {
    /// The underlying marginalization failed.
    Core(CoreError),
    /// Assembling the fitted network failed (programming error in callers
    /// that pass a DAG inconsistent with the schema).
    Network(NetworkError),
}

impl core::fmt::Display for FitError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FitError::Core(e) => write!(f, "{e}"),
            FitError::Network(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for FitError {}

impl From<CoreError> for FitError {
    fn from(e: CoreError) -> Self {
        FitError::Core(e)
    }
}

impl From<NetworkError> for FitError {
    fn from(e: NetworkError) -> Self {
        FitError::Network(e)
    }
}

/// Fits the CPT of one variable by marginalizing the packed potential table
/// over its family and normalizing with Laplace smoothing `alpha`.
pub(crate) fn fit_cpt(
    table: &PackedTable,
    schema: &Schema,
    var: usize,
    parents: &[usize],
    alpha: f64,
) -> Result<Cpt, FitError> {
    assert!(alpha >= 0.0, "smoothing must be non-negative");
    // Family marginal arranged child-first, so the flat index is
    // `state + arity · config` — the Cpt layout.
    let mut family: Vec<usize> = Vec::with_capacity(parents.len() + 1);
    family.push(var);
    family.extend_from_slice(parents);
    let counts = table.marginalize(&family)?;

    let arity = schema.arity(var) as usize;
    let parent_arities: Vec<u16> = parents.iter().map(|&p| schema.arity(p)).collect();
    let configs: usize = parent_arities.iter().map(|&r| r as usize).product();
    let mut probs = Vec::with_capacity(configs * arity);
    for config in 0..configs {
        let row_total: u64 = (0..arity)
            .map(|s| counts.count_at(config * arity + s))
            .sum();
        let denom = row_total as f64 + alpha * arity as f64;
        for s in 0..arity {
            let c = counts.count_at(config * arity + s) as f64;
            // With alpha = 0 and an unseen config, fall back to uniform
            // (the MLE is undefined there; uniform is the max-entropy tie
            // break and keeps rows normalized).
            if denom == 0.0 {
                probs.push(1.0 / arity as f64);
            } else {
                probs.push((c + alpha) / denom);
            }
        }
    }
    Ok(
        Cpt::new(var, parents.to_vec(), parent_arities, arity as u16, probs)
            .expect("smoothed rows normalize by construction"),
    )
}

/// Fits every CPT of `dag` from an existing potential table, packed once
/// on `threads` workers.
pub(crate) fn fit_cpts(
    table: &PotentialTable,
    schema: &Schema,
    dag: &Dag,
    alpha: f64,
    threads: usize,
) -> Result<Vec<Cpt>, FitError> {
    let packed = PackedTable::pack(table, threads)?;
    (0..schema.num_vars())
        .map(|v| fit_cpt(&packed, schema, v, dag.parents(v), alpha))
        .collect()
}

/// Builds the potential table from `data` and fits a full network on `dag`.
pub fn fit_network(
    data: &Dataset,
    dag: &Dag,
    alpha: f64,
    threads: usize,
) -> Result<BayesNet, FitError> {
    let table = waitfree_build(data, threads)?.table;
    let cpts = fit_cpts(&table, data.schema(), dag, alpha, threads)?;
    Ok(BayesNet::new(data.schema().clone(), dag.clone(), cpts)?)
}

/// Average log-likelihood (nats per sample) of `data` under `net`.
///
/// Returns `-inf` if any observation has probability zero under the model
/// (impossible with `alpha > 0` fitting).
pub fn mean_log_likelihood(net: &BayesNet, data: &Dataset) -> f64 {
    assert!(data.num_samples() > 0, "need at least one sample");
    let mut total = 0.0;
    for row in data.rows() {
        total += net.joint_prob(row).ln();
    }
    total / data.num_samples() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repository;

    #[test]
    fn recovers_sprinkler_parameters() {
        let net = repository::sprinkler();
        let data = net.sample(300_000, 13);
        let fitted = fit_network(&data, net.dag(), 1.0, 4).unwrap();
        // Compare every CPT row of the fitted net to the truth.
        for v in 0..net.num_vars() {
            let truth = net.cpt(v);
            let est = fitted.cpt(v);
            let parent_arities: Vec<u16> = truth
                .parents()
                .iter()
                .map(|&p| net.schema().arity(p))
                .collect();
            let configs: usize = parent_arities.iter().map(|&r| r as usize).product();
            for c in 0..configs {
                // Decode config c into parent states.
                let mut rest = c;
                let states: Vec<u16> = parent_arities
                    .iter()
                    .map(|&r| {
                        let s = (rest % r as usize) as u16;
                        rest /= r as usize;
                        s
                    })
                    .collect();
                for s in 0..net.schema().arity(v) {
                    let t = truth.prob(&states, s);
                    let e = est.prob(&states, s);
                    assert!(
                        (t - e).abs() < 0.02,
                        "var {v} config {states:?} state {s}: true {t} est {e}"
                    );
                }
            }
        }
    }

    #[test]
    fn smoothing_covers_unseen_configurations() {
        // Tiny sample: many parent configs unseen; all probabilities must
        // stay strictly positive and rows normalized.
        let net = repository::asia();
        let data = net.sample(50, 3);
        let fitted = fit_network(&data, net.dag(), 1.0, 2).unwrap();
        for v in 0..net.num_vars() {
            let cpt = fitted.cpt(v);
            let parent_arities: Vec<u16> = cpt
                .parents()
                .iter()
                .map(|&p| net.schema().arity(p))
                .collect();
            let configs: usize = parent_arities.iter().map(|&r| r as usize).product();
            for c in 0..configs {
                let mut rest = c;
                let states: Vec<u16> = parent_arities
                    .iter()
                    .map(|&r| {
                        let s = (rest % r as usize) as u16;
                        rest /= r as usize;
                        s
                    })
                    .collect();
                let row = cpt.row(&states);
                assert!(row.iter().all(|&p| p > 0.0), "zero prob at var {v}");
                assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn likelihood_prefers_the_true_structure() {
        // Fit parameters on the true DAG and on an empty DAG; the true
        // structure must explain held-out data better.
        let net = repository::sprinkler();
        let train = net.sample(50_000, 5);
        let test = net.sample(20_000, 6);
        let true_fit = fit_network(&train, net.dag(), 1.0, 2).unwrap();
        let empty_fit = fit_network(&train, &Dag::new(4), 1.0, 2).unwrap();
        let ll_true = mean_log_likelihood(&true_fit, &test);
        let ll_empty = mean_log_likelihood(&empty_fit, &test);
        assert!(
            ll_true > ll_empty + 0.1,
            "true {ll_true} vs empty {ll_empty}"
        );
    }

    #[test]
    fn fitted_joint_is_a_distribution() {
        let net = repository::cancer();
        let data = net.sample(30_000, 9);
        let fitted = fit_network(&data, net.dag(), 0.5, 2).unwrap();
        let mut total = 0.0;
        for key in 0..32u32 {
            let states: Vec<u16> = (0..5).map(|j| ((key >> j) & 1) as u16).collect();
            total += fitted.joint_prob(&states);
        }
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn alpha_zero_on_fully_observed_data_is_exact_mle() {
        let net = repository::sprinkler();
        let data = net.sample(200_000, 21);
        let table = waitfree_build(&data, 2).unwrap().table;
        let packed = PackedTable::pack(&table, 2).unwrap();
        let cpt = fit_cpt(&packed, data.schema(), 0, &[], 0.0).unwrap();
        // Root marginal must equal empirical frequency exactly.
        let emp = data.empirical_frequency(0, 1);
        assert!((cpt.prob(&[], 1) - emp).abs() < 1e-12);
    }
}
