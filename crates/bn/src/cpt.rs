//! Conditional probability tables.
//!
//! A [`Cpt`] stores `P(X | parents(X))` as a dense row-per-parent-
//! configuration table. Parent configurations are indexed mixed-radix with
//! the *first listed parent fastest*, consistent with the key codec's digit
//! order elsewhere in the workspace.

use core::fmt;

/// Tolerance for "row sums to 1" validation.
const ROW_SUM_TOL: f64 = 1e-9;

/// Errors from CPT construction.
#[derive(Debug, Clone, PartialEq)]
pub enum CptError {
    /// The probability buffer has the wrong length.
    WrongLength {
        /// Expected number of probabilities.
        expected: usize,
        /// Found number of probabilities.
        found: usize,
    },
    /// A row does not sum to 1 (within tolerance).
    RowNotNormalized {
        /// Row (parent-configuration) index.
        row: usize,
        /// The row's sum.
        sum: f64,
    },
    /// A probability is negative or non-finite.
    BadProbability {
        /// Flat index of the bad entry.
        index: usize,
    },
}

impl fmt::Display for CptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CptError::WrongLength { expected, found } => {
                write!(f, "expected {expected} probabilities, found {found}")
            }
            CptError::RowNotNormalized { row, sum } => {
                write!(f, "row {row} sums to {sum}, expected 1")
            }
            CptError::BadProbability { index } => {
                write!(f, "probability at flat index {index} is invalid")
            }
        }
    }
}

impl std::error::Error for CptError {}

/// `P(X = x | parents = u)` for one variable.
///
/// # Examples
///
/// ```
/// use wfbn_bn::Cpt;
///
/// // Binary child of one binary parent: P(X=1|pa=0)=0.2, P(X=1|pa=1)=0.9.
/// let cpt = Cpt::new(1, vec![0], vec![2], 2, vec![0.8, 0.2, 0.1, 0.9]).unwrap();
/// assert_eq!(cpt.prob(&[0], 1), 0.2);
/// assert_eq!(cpt.prob(&[1], 1), 0.9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Cpt {
    var: usize,
    parents: Vec<usize>,
    parent_arities: Vec<u16>,
    arity: u16,
    /// `probs[config * arity + state]`.
    probs: Vec<f64>,
}

impl Cpt {
    /// Builds and validates a CPT.
    ///
    /// `probs` is laid out row-major: for each parent configuration (first
    /// parent fastest), `arity` probabilities for the child's states.
    pub fn new(
        var: usize,
        parents: Vec<usize>,
        parent_arities: Vec<u16>,
        arity: u16,
        probs: Vec<f64>,
    ) -> Result<Self, CptError> {
        assert_eq!(
            parents.len(),
            parent_arities.len(),
            "one arity per parent required"
        );
        let configs: usize = parent_arities.iter().map(|&r| r as usize).product();
        let expected = configs * arity as usize;
        if probs.len() != expected {
            return Err(CptError::WrongLength {
                expected,
                found: probs.len(),
            });
        }
        for (i, &p) in probs.iter().enumerate() {
            if !p.is_finite() || !(0.0..=1.0).contains(&p) {
                return Err(CptError::BadProbability { index: i });
            }
        }
        for row in 0..configs {
            let sum: f64 = probs[row * arity as usize..(row + 1) * arity as usize]
                .iter()
                .sum();
            if (sum - 1.0).abs() > ROW_SUM_TOL {
                return Err(CptError::RowNotNormalized { row, sum });
            }
        }
        Ok(Self {
            var,
            parents,
            parent_arities,
            arity,
            probs,
        })
    }

    /// Convenience constructor for a root (parentless) variable.
    pub fn root(var: usize, dist: Vec<f64>) -> Result<Self, CptError> {
        let arity = dist.len() as u16;
        Self::new(var, vec![], vec![], arity, dist)
    }

    /// Convenience constructor for a binary root variable: `P(X = 1) = p1`.
    pub(crate) fn binary_root(var: usize, p1: f64) -> Result<Self, CptError> {
        Self::root(var, vec![1.0 - p1, p1])
    }

    /// The child variable index.
    pub fn var(&self) -> usize {
        self.var
    }

    /// Parent variable indices, in table order.
    pub fn parents(&self) -> &[usize] {
        &self.parents
    }

    /// The child's arity.
    pub fn arity(&self) -> u16 {
        self.arity
    }

    /// Mixed-radix index of a parent-state assignment (first parent fastest).
    pub(crate) fn config_index(&self, parent_states: &[u16]) -> usize {
        assert_eq!(
            parent_states.len(),
            self.parents.len(),
            "one state per parent required"
        );
        let mut idx = 0usize;
        let mut stride = 1usize;
        for (&s, &r) in parent_states.iter().zip(&self.parent_arities) {
            assert!(s < r, "parent state out of range");
            idx += s as usize * stride;
            stride *= r as usize;
        }
        idx
    }

    /// `P(X = state | parents = parent_states)`.
    pub fn prob(&self, parent_states: &[u16], state: u16) -> f64 {
        assert!(state < self.arity, "child state out of range");
        self.probs[self.config_index(parent_states) * self.arity as usize + state as usize]
    }

    /// The full conditional distribution row for one parent configuration.
    pub fn row(&self, parent_states: &[u16]) -> &[f64] {
        let c = self.config_index(parent_states);
        &self.probs[c * self.arity as usize..(c + 1) * self.arity as usize]
    }

    /// Samples a child state given parent states and a uniform draw
    /// `u ∈ [0, 1)`.
    pub(crate) fn sample_with(&self, parent_states: &[u16], u: f64) -> u16 {
        let row = self.row(parent_states);
        let mut acc = 0.0;
        for (s, &p) in row.iter().enumerate() {
            acc += p;
            if u < acc {
                return s as u16;
            }
        }
        self.arity - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_and_binary_root() {
        let c = Cpt::binary_root(0, 0.3).unwrap();
        assert!(c.parents().is_empty());
        assert_eq!(c.prob(&[], 1), 0.3);
        assert!((c.prob(&[], 0) - 0.7).abs() < 1e-12);
        let d = Cpt::root(2, vec![0.2, 0.3, 0.5]).unwrap();
        assert_eq!(d.arity(), 3);
        assert_eq!(d.var(), 2);
    }

    #[test]
    fn two_parent_indexing_first_parent_fastest() {
        // parents (a: arity 2, b: arity 3), child binary.
        // config order: (a=0,b=0), (a=1,b=0), (a=0,b=1), (a=1,b=1), ...
        let mut probs = Vec::new();
        for config in 0..6 {
            let p1 = config as f64 / 10.0;
            probs.extend_from_slice(&[1.0 - p1, p1]);
        }
        let c = Cpt::new(5, vec![1, 3], vec![2, 3], 2, probs).unwrap();
        assert_eq!(c.config_index(&[0, 0]), 0);
        assert_eq!(c.config_index(&[1, 0]), 1);
        assert_eq!(c.config_index(&[0, 1]), 2);
        assert_eq!(c.config_index(&[1, 2]), 5);
        assert!((c.prob(&[1, 2], 1) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn validation_catches_errors() {
        assert!(matches!(
            Cpt::new(0, vec![], vec![], 2, vec![0.5]),
            Err(CptError::WrongLength {
                expected: 2,
                found: 1
            })
        ));
        assert!(matches!(
            Cpt::new(0, vec![], vec![], 2, vec![0.5, 0.6]),
            Err(CptError::RowNotNormalized { row: 0, .. })
        ));
        assert!(matches!(
            Cpt::new(0, vec![], vec![], 2, vec![-0.1, 1.1]),
            Err(CptError::BadProbability { index: 0 })
        ));
        assert!(matches!(
            Cpt::new(0, vec![], vec![], 2, vec![f64::NAN, 1.0]),
            Err(CptError::BadProbability { index: 0 })
        ));
    }

    #[test]
    fn sampling_follows_the_row() {
        let c = Cpt::new(1, vec![0], vec![2], 2, vec![0.8, 0.2, 0.1, 0.9]).unwrap();
        assert_eq!(c.sample_with(&[0], 0.5), 0);
        assert_eq!(c.sample_with(&[0], 0.85), 1);
        assert_eq!(c.sample_with(&[1], 0.05), 0);
        assert_eq!(c.sample_with(&[1], 0.5), 1);
        // Degenerate u at the top of the range clamps to the last state.
        assert_eq!(c.sample_with(&[0], 0.999999999), 1);
    }

    #[test]
    fn rows_are_views_into_the_table() {
        let c = Cpt::new(0, vec![2], vec![2], 3, vec![0.2, 0.3, 0.5, 0.1, 0.1, 0.8]).unwrap();
        assert_eq!(c.row(&[0]), &[0.2, 0.3, 0.5]);
        assert_eq!(c.row(&[1]), &[0.1, 0.1, 0.8]);
    }
}
