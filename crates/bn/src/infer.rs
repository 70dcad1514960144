//! Exact inference by variable elimination.
//!
//! The paper positions inference as the complementary problem to structure
//! learning (§III, citing the junction-tree line of work of the same
//! authors). This module provides the piece a downstream user needs once a
//! network is learned and parameterized: posterior marginals
//! `P(X | evidence)` computed exactly by factor product / sum-out with a
//! min-degree elimination order.

use crate::network::BayesNet;
use core::fmt;

/// Errors from inference queries.
#[derive(Debug, Clone, PartialEq)]
pub enum InferError {
    /// A variable index is out of range.
    VariableOutOfRange {
        /// The offending index.
        var: usize,
    },
    /// The same variable appears twice in the query/evidence.
    DuplicateVariable {
        /// The duplicated variable.
        var: usize,
    },
    /// An evidence state is out of range for its variable.
    BadEvidenceState {
        /// The variable.
        var: usize,
        /// The offending state.
        state: u16,
    },
    /// The evidence has probability zero under the model.
    ImpossibleEvidence,
}

impl fmt::Display for InferError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InferError::VariableOutOfRange { var } => write!(f, "variable {var} out of range"),
            InferError::DuplicateVariable { var } => write!(f, "variable {var} appears twice"),
            InferError::BadEvidenceState { var, state } => {
                write!(f, "state {state} out of range for variable {var}")
            }
            InferError::ImpossibleEvidence => write!(f, "evidence has probability zero"),
        }
    }
}

impl std::error::Error for InferError {}

/// A factor over a set of variables (first variable fastest in the value
/// layout, matching the rest of the workspace).
#[derive(Debug, Clone, PartialEq)]
pub struct Factor {
    vars: Vec<usize>,
    arities: Vec<usize>,
    values: Vec<f64>,
}

impl Factor {
    /// A scalar (variable-free) factor.
    pub fn scalar(value: f64) -> Self {
        Self {
            vars: vec![],
            arities: vec![],
            values: vec![value],
        }
    }

    /// Builds the factor `P(X | parents)` from a CPT, over `{X} ∪ parents`.
    pub(crate) fn from_cpt(net: &BayesNet, var: usize) -> Self {
        let cpt = net.cpt(var);
        let mut vars = vec![var];
        vars.extend_from_slice(cpt.parents());
        let arities: Vec<usize> = vars
            .iter()
            .map(|&v| net.schema().arity(v) as usize)
            .collect();
        // The CPT is laid out probs[config * arity + state]; our factor is
        // var-fastest: value index = state + arity * config. Same thing.
        let total: usize = arities.iter().product();
        let mut values = Vec::with_capacity(total);
        let arity = arities[0];
        let configs = total / arity;
        for config in 0..configs {
            let mut rest = config;
            let parent_states: Vec<u16> = arities[1..]
                .iter()
                .map(|&r| {
                    let s = (rest % r) as u16;
                    rest /= r;
                    s
                })
                .collect();
            for s in 0..arity {
                values.push(cpt.prob(&parent_states, s as u16));
            }
        }
        Self {
            vars,
            arities,
            values,
        }
    }

    /// The factor's variables.
    pub fn vars(&self) -> &[usize] {
        &self.vars
    }

    /// The factor's value table.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    fn position(&self, var: usize) -> Option<usize> {
        self.vars.iter().position(|&v| v == var)
    }

    /// Fixes `var = state`, dropping the variable (evidence application).
    pub(crate) fn restrict(&self, var: usize, state: u16) -> Factor {
        let Some(pos) = self.position(var) else {
            return self.clone();
        };
        let r = self.arities[pos];
        assert!((state as usize) < r, "state out of range");
        let mut new_vars = self.vars.clone();
        let mut new_arities = self.arities.clone();
        new_vars.remove(pos);
        new_arities.remove(pos);
        let total: usize = new_arities.iter().product();
        let mut values = vec![0.0; total];
        for (new_idx, slot) in values.iter_mut().enumerate() {
            // Insert the fixed digit back at `pos` to find the source index.
            let mut rest = new_idx;
            let mut src = 0usize;
            let mut stride = 1usize;
            for (i, &ar) in self.arities.iter().enumerate() {
                let digit = if i == pos {
                    state as usize
                } else {
                    let d = rest % new_arities[if i < pos { i } else { i - 1 }];
                    rest /= new_arities[if i < pos { i } else { i - 1 }];
                    d
                };
                src += digit * stride;
                stride *= ar;
            }
            *slot = self.values[src];
        }
        Factor {
            vars: new_vars,
            arities: new_arities,
            values,
        }
    }

    /// Pointwise product over the union of the variables.
    pub fn product(&self, other: &Factor) -> Factor {
        // Union of variables, self's first.
        let mut vars = self.vars.clone();
        let mut arities = self.arities.clone();
        for (i, &v) in other.vars.iter().enumerate() {
            if !vars.contains(&v) {
                vars.push(v);
                arities.push(other.arities[i]);
            }
        }
        let total: usize = arities.iter().product::<usize>().max(1);
        let mut values = vec![0.0; total];
        // Precompute per-factor strides for each union variable.
        let stride_in = |f: &Factor| -> Vec<usize> {
            vars.iter()
                .map(|&v| {
                    f.position(v)
                        .map_or(0, |pos| f.arities[..pos].iter().product::<usize>().max(1))
                })
                .collect()
        };
        let sa = stride_in(self);
        let sb = stride_in(other);
        let mut digits = vec![0usize; vars.len()];
        for (idx, slot) in values.iter_mut().enumerate() {
            let mut rest = idx;
            for (d, &r) in digits.iter_mut().zip(&arities) {
                *d = rest % r;
                rest /= r;
            }
            let ia: usize = digits.iter().zip(&sa).map(|(&d, &s)| d * s).sum();
            let ib: usize = digits.iter().zip(&sb).map(|(&d, &s)| d * s).sum();
            *slot = self.values[ia] * other.values[ib];
        }
        Factor {
            vars,
            arities,
            values,
        }
    }

    /// Sums out `var` (marginalizes it away).
    pub(crate) fn sum_out(&self, var: usize) -> Factor {
        let Some(pos) = self.position(var) else {
            return self.clone();
        };
        let r = self.arities[pos];
        let mut new_vars = self.vars.clone();
        let mut new_arities = self.arities.clone();
        new_vars.remove(pos);
        new_arities.remove(pos);
        let total: usize = new_arities.iter().product::<usize>().max(1);
        let mut values = vec![0.0; total];
        let below: usize = self.arities[..pos].iter().product::<usize>().max(1);
        for (src, &v) in self.values.iter().enumerate() {
            // Remove the `pos` digit from src.
            let low = src % below;
            let rest = src / below;
            let high = rest / r;
            values[low + high * below] += v;
        }
        Factor {
            vars: new_vars,
            arities: new_arities,
            values,
        }
    }

    /// Sum of all values.
    pub fn total(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Normalizes to sum 1; returns the pre-normalization total.
    pub(crate) fn normalize(&mut self) -> f64 {
        let z = self.total();
        if z > 0.0 {
            for v in &mut self.values {
                *v /= z;
            }
        }
        z
    }
}

/// Computes the posterior marginal `P(target | evidence)` exactly.
///
/// # Examples
///
/// ```
/// use wfbn_bn::infer::posterior;
/// use wfbn_bn::repository;
///
/// let net = repository::sprinkler();
/// // P(Rain | WetGrass = 1): rain is a likely explanation of wet grass.
/// let p = posterior(&net, 2, &[(3, 1)]).unwrap();
/// assert!(p[1] > 0.5);
/// ```
pub fn posterior(
    net: &BayesNet,
    target: usize,
    evidence: &[(usize, u16)],
) -> Result<Vec<f64>, InferError> {
    let n = net.num_vars();
    if target >= n {
        return Err(InferError::VariableOutOfRange { var: target });
    }
    let mut seen = vec![false; n];
    seen[target] = true;
    for &(v, s) in evidence {
        if v >= n {
            return Err(InferError::VariableOutOfRange { var: v });
        }
        if seen[v] {
            return Err(InferError::DuplicateVariable { var: v });
        }
        seen[v] = true;
        if s >= net.schema().arity(v) {
            return Err(InferError::BadEvidenceState { var: v, state: s });
        }
    }

    // One factor per CPT, with evidence applied immediately.
    let mut factors: Vec<Factor> = (0..n)
        .map(|v| {
            let mut f = Factor::from_cpt(net, v);
            for &(ev, es) in evidence {
                f = f.restrict(ev, es);
            }
            f
        })
        .collect();

    // Eliminate every hidden variable by min-degree (fewest connected
    // factor variables first) — a standard greedy order.
    let mut hidden: Vec<usize> = (0..n).filter(|&v| !seen[v]).collect();
    while !hidden.is_empty() {
        // Degree of v = size of the union of vars of factors mentioning v.
        let degree = |v: usize| -> usize {
            let mut union: Vec<usize> = Vec::new();
            for f in factors.iter().filter(|f| f.position(v).is_some()) {
                for &w in &f.vars {
                    if w != v && !union.contains(&w) {
                        union.push(w);
                    }
                }
            }
            union.len()
        };
        let (best_idx, _) = hidden
            .iter()
            .enumerate()
            .map(|(i, &v)| (i, degree(v)))
            .min_by_key(|&(_, d)| d)
            .expect("hidden non-empty");
        let v = hidden.swap_remove(best_idx);

        // Multiply all factors mentioning v, then sum v out.
        let (touching, rest): (Vec<Factor>, Vec<Factor>) =
            factors.into_iter().partition(|f| f.position(v).is_some());
        factors = rest;
        let mut product = Factor::scalar(1.0);
        for f in &touching {
            product = product.product(f);
        }
        factors.push(product.sum_out(v));
    }

    // Multiply the survivors (all over `target` or scalars), normalize.
    let mut result = Factor::scalar(1.0);
    for f in &factors {
        result = result.product(f);
    }
    let z = result.normalize();
    if z <= 0.0 {
        return Err(InferError::ImpossibleEvidence);
    }
    debug_assert_eq!(result.vars, vec![target]);
    Ok(result.values)
}

/// Brute-force posterior by joint enumeration — the oracle the tests use;
/// exponential in `n`, guarded to small networks.
pub fn posterior_enumerate(
    net: &BayesNet,
    target: usize,
    evidence: &[(usize, u16)],
) -> Result<Vec<f64>, InferError> {
    let n = net.num_vars();
    assert!(
        net.schema().state_space_size() <= 1 << 22,
        "enumeration oracle limited to small networks"
    );
    if target >= n {
        return Err(InferError::VariableOutOfRange { var: target });
    }
    let r = net.schema().arity(target) as usize;
    let mut acc = vec![0.0; r];
    let mut states = vec![0u16; n];
    let space = net.schema().state_space_size();
    'outer: for key in 0..space {
        let mut rest = key;
        for (j, s) in states.iter_mut().enumerate() {
            let a = u64::from(net.schema().arity(j));
            *s = (rest % a) as u16;
            rest /= a;
        }
        for &(ev, es) in evidence {
            if states[ev] != es {
                continue 'outer;
            }
        }
        acc[states[target] as usize] += net.joint_prob(&states);
    }
    let z: f64 = acc.iter().sum();
    if z <= 0.0 {
        return Err(InferError::ImpossibleEvidence);
    }
    Ok(acc.into_iter().map(|p| p / z).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repository;

    fn close(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() < 1e-9)
    }

    #[test]
    fn matches_enumeration_on_sprinkler() {
        let net = repository::sprinkler();
        for target in 0..4 {
            for evidence in [vec![], vec![(3usize, 1u16)], vec![(3, 1), (1, 0)]] {
                let evidence: Vec<(usize, u16)> =
                    evidence.into_iter().filter(|&(v, _)| v != target).collect();
                let ve = posterior(&net, target, &evidence).unwrap();
                let brute = posterior_enumerate(&net, target, &evidence).unwrap();
                assert!(
                    close(&ve, &brute),
                    "t={target} ev={evidence:?}: {ve:?} vs {brute:?}"
                );
            }
        }
    }

    #[test]
    fn matches_enumeration_on_asia() {
        let net = repository::asia();
        let cases: Vec<(usize, Vec<(usize, u16)>)> = vec![
            (3, vec![(6, 1)]),         // P(LungCancer | positive X-ray)
            (1, vec![(6, 1), (2, 0)]), // P(TB | X-ray+, non-smoker)
            (7, vec![]),               // prior P(Dyspnoea)
            (2, vec![(7, 1), (6, 0)]), // P(Smoking | dyspnoea, X-ray−)
        ];
        for (target, evidence) in cases {
            let ve = posterior(&net, target, &evidence).unwrap();
            let brute = posterior_enumerate(&net, target, &evidence).unwrap();
            assert!(close(&ve, &brute), "t={target} ev={evidence:?}");
        }
    }

    #[test]
    fn explaining_away_in_sprinkler() {
        let net = repository::sprinkler();
        // P(Sprinkler=1 | Wet) vs P(Sprinkler=1 | Wet, Rain): learning it
        // rained *lowers* belief in the sprinkler.
        let with_wet = posterior(&net, 1, &[(3, 1)]).unwrap()[1];
        let with_rain = posterior(&net, 1, &[(3, 1), (2, 1)]).unwrap()[1];
        assert!(with_rain < with_wet, "{with_rain} !< {with_wet}");
    }

    #[test]
    fn diagnostic_reasoning_in_asia() {
        let net = repository::asia();
        let prior_cancer = posterior(&net, 3, &[]).unwrap()[1];
        let after_xray = posterior(&net, 3, &[(6, 1)]).unwrap()[1];
        assert!(
            after_xray > 3.0 * prior_cancer,
            "{prior_cancer} → {after_xray}"
        );
        // Smoking raises it further.
        let with_smoking = posterior(&net, 3, &[(6, 1), (2, 1)]).unwrap()[1];
        assert!(with_smoking > after_xray);
    }

    #[test]
    fn impossible_evidence_is_reported() {
        let net = repository::asia();
        // "Either" is a deterministic OR of TB and LungCancer: Either = 0
        // with TB = 1 is impossible.
        let e = posterior(&net, 7, &[(5, 0), (1, 1)]);
        assert_eq!(e, Err(InferError::ImpossibleEvidence));
    }

    #[test]
    fn input_validation() {
        let net = repository::sprinkler();
        assert!(matches!(
            posterior(&net, 9, &[]),
            Err(InferError::VariableOutOfRange { var: 9 })
        ));
        assert!(matches!(
            posterior(&net, 0, &[(1, 1), (1, 0)]),
            Err(InferError::DuplicateVariable { var: 1 })
        ));
        assert!(matches!(
            posterior(&net, 0, &[(1, 5)]),
            Err(InferError::BadEvidenceState { var: 1, state: 5 })
        ));
    }

    #[test]
    fn factor_algebra_basics() {
        let net = repository::sprinkler();
        let f = Factor::from_cpt(&net, 3); // P(W | S, R) over (3, 1, 2)
        assert_eq!(f.vars(), &[3, 1, 2]);
        // Summing out the child of a CPT gives all-ones (each config's row
        // sums to 1).
        let ones = f.sum_out(3);
        assert!(ones.values().iter().all(|&v| (v - 1.0).abs() < 1e-12));
        // Restriction then product: P(W=1 | S, R) * P(S | C).
        let fw = f.restrict(3, 1);
        let fs = Factor::from_cpt(&net, 1);
        let prod = fw.product(&fs);
        assert_eq!(prod.vars().len(), 3); // S, R, C
        assert!(prod.values().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn posterior_with_all_other_vars_observed_is_the_cpt_row_bayes() {
        // Fully observed Markov blanket: compare against enumeration on a
        // random network with mixed arities.
        let net = repository::random_net(6, 3, 8, 2, 0.8, 17);
        let evidence: Vec<(usize, u16)> = (1..6).map(|v| (v, (v % 3) as u16)).collect();
        let ve = posterior(&net, 0, &evidence).unwrap();
        let brute = posterior_enumerate(&net, 0, &evidence).unwrap();
        assert!(close(&ve, &brute));
    }
}
