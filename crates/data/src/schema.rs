//! Variable schemas: how many states each random variable can take.
//!
//! The paper assumes a uniform arity `r` "for a concise notation" but notes
//! the techniques apply to varying arities; the schema here is fully
//! mixed-radix. The schema also owns the overflow check that makes `u64`
//! state-string keys sound: the total state-space size `∏ r_j` must fit in a
//! `u64` *strictly below* `u64::MAX` (the count tables reserve `u64::MAX` as
//! their empty-slot sentinel).

use core::fmt;

/// Errors from schema construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchemaError {
    /// A variable was declared with fewer than two states.
    ArityTooSmall {
        /// Index of the offending variable.
        var: usize,
        /// The declared arity.
        arity: u16,
    },
    /// The schema has no variables.
    Empty,
    /// `∏ r_j` does not fit in the key type (`u64`, with one sentinel value
    /// reserved).
    StateSpaceOverflow,
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemaError::ArityTooSmall { var, arity } => {
                write!(f, "variable {var} has arity {arity}; at least 2 required")
            }
            SchemaError::Empty => write!(f, "schema must contain at least one variable"),
            SchemaError::StateSpaceOverflow => {
                write!(f, "state-space size exceeds the 64-bit key range")
            }
        }
    }
}

impl std::error::Error for SchemaError {}

/// Arities of the `n` random variables of a dataset.
///
/// # Examples
///
/// ```
/// use wfbn_data::Schema;
///
/// // The paper's experimental setting: n binary variables.
/// let s = Schema::uniform(30, 2).unwrap();
/// assert_eq!(s.num_vars(), 30);
/// assert_eq!(s.state_space_size(), 1 << 30);
///
/// // Mixed arities are supported throughout.
/// let m = Schema::new(vec![2, 3, 4]).unwrap();
/// assert_eq!(m.state_space_size(), 24);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Schema {
    arities: Vec<u16>,
    /// Cached `∏ r_j` (validated to fit below `u64::MAX`).
    state_space: u64,
}

impl Schema {
    /// Builds a schema from explicit per-variable arities.
    pub fn new(arities: Vec<u16>) -> Result<Self, SchemaError> {
        if arities.is_empty() {
            return Err(SchemaError::Empty);
        }
        let mut state_space: u64 = 1;
        for (var, &arity) in arities.iter().enumerate() {
            if arity < 2 {
                return Err(SchemaError::ArityTooSmall { var, arity });
            }
            state_space = state_space
                .checked_mul(u64::from(arity))
                .ok_or(SchemaError::StateSpaceOverflow)?;
        }
        if state_space == u64::MAX {
            // u64::MAX is the count-table sentinel; keys live in
            // [0, state_space), so state_space == u64::MAX would admit the
            // sentinel as a valid key.
            return Err(SchemaError::StateSpaceOverflow);
        }
        Ok(Self {
            arities,
            state_space,
        })
    }

    /// Builds the paper's uniform-arity schema: `n` variables of `r` states.
    pub fn uniform(n: usize, r: u16) -> Result<Self, SchemaError> {
        Self::new(vec![r; n])
    }

    /// Number of random variables `n`.
    pub fn num_vars(&self) -> usize {
        self.arities.len()
    }

    /// Arity `r_j` of variable `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn arity(&self, j: usize) -> u16 {
        self.arities[j]
    }

    /// All arities in variable order.
    pub fn arities(&self) -> &[u16] {
        &self.arities
    }

    /// Total number of distinct state strings, `∏ r_j`.
    pub fn state_space_size(&self) -> u64 {
        self.state_space
    }

    /// Validates one observation row against the schema.
    pub fn validates_row(&self, row: &[u16]) -> bool {
        row.len() == self.arities.len() && row.iter().zip(&self.arities).all(|(&s, &r)| s < r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_binary_paper_settings() {
        for n in [30usize, 40, 50] {
            let s = Schema::uniform(n, 2).unwrap();
            assert_eq!(s.num_vars(), n);
            assert_eq!(s.state_space_size(), 1u64 << n);
        }
    }

    #[test]
    fn mixed_arities() {
        let s = Schema::new(vec![2, 3, 5, 7]).unwrap();
        assert_eq!(s.state_space_size(), 2 * 3 * 5 * 7);
        assert_eq!(s.arity(2), 5);
    }

    #[test]
    fn rejects_empty_and_unary() {
        assert_eq!(Schema::new(vec![]), Err(SchemaError::Empty));
        assert_eq!(
            Schema::new(vec![2, 1, 2]),
            Err(SchemaError::ArityTooSmall { var: 1, arity: 1 })
        );
        assert_eq!(
            Schema::new(vec![2, 0]),
            Err(SchemaError::ArityTooSmall { var: 1, arity: 0 })
        );
    }

    #[test]
    fn rejects_overflowing_state_space() {
        // 2^64 overflows u64.
        assert_eq!(Schema::uniform(64, 2), Err(SchemaError::StateSpaceOverflow));
        // 2^63 * 3 overflows too.
        let mut arities = vec![2u16; 63];
        arities.push(3);
        assert_eq!(Schema::new(arities), Err(SchemaError::StateSpaceOverflow));
        // 2^63 is fine (< u64::MAX).
        assert!(Schema::uniform(63, 2).is_ok());
    }

    #[test]
    fn row_validation() {
        let s = Schema::new(vec![2, 3]).unwrap();
        assert!(s.validates_row(&[1, 2]));
        assert!(!s.validates_row(&[2, 0])); // state out of range
        assert!(!s.validates_row(&[0])); // wrong length
        assert!(!s.validates_row(&[0, 0, 0]));
    }

    #[test]
    fn display_messages() {
        let e = Schema::new(vec![1]).unwrap_err();
        assert!(e.to_string().contains("arity 1"));
        let e = Schema::new(vec![]).unwrap_err();
        assert!(e.to_string().contains("at least one"));
    }
}
