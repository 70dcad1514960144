//! Mixed-radix encoding of state strings into integer keys (paper Eq. 3/4).
//!
//! Storing full state strings in the table costs `O(n)` memory per entry and
//! an `O(n)` string comparison per access. The paper instead encodes each
//! state string bijectively into an integer key:
//!
//! ```text
//! key = Σⱼ sⱼ · stride(j)        where stride(j) = ∏_{k<j} r_k     (Eq. 3)
//! sⱼ  = ⌊ key / stride(j) ⌋ mod r_j                                (Eq. 4)
//! ```
//!
//! (For the paper's uniform arity `r`, `stride(j) = r^j`.) Encoding and
//! decoding are `O(n)`, and — crucially for the marginalization primitive —
//! a *subset* of variables can be decoded without recovering the whole
//! string: one divide + modulo per variable of interest.
//!
//! [`Schema::new`](wfbn_data::Schema::new) has already guaranteed that
//! `∏ r_j < u64::MAX`, so every key fits a `u64` and the all-ones value
//! remains free for the count table's empty-slot sentinel.

use crate::error::CoreError;
use wfbn_data::Schema;

/// Precomputed strides for encoding/decoding state strings of one schema.
///
/// # Examples
///
/// ```
/// use wfbn_core::KeyCodec;
/// use wfbn_data::Schema;
///
/// let codec = KeyCodec::new(&Schema::new(vec![2, 3, 2]).unwrap());
/// let key = codec.encode(&[1, 2, 0]);
/// assert_eq!(key, 1 + 2 * 2); // s₀·1 + s₁·2 + s₂·6
/// assert_eq!(codec.decode_var(key, 1), 2);
/// assert_eq!(codec.decode_full(key), vec![1, 2, 0]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyCodec {
    arities: Vec<u64>,
    strides: Vec<u64>,
    state_space: u64,
}

impl KeyCodec {
    /// Builds the codec for `schema`.
    pub fn new(schema: &Schema) -> Self {
        let arities: Vec<u64> = schema.arities().iter().map(|&r| u64::from(r)).collect();
        let mut strides = Vec::with_capacity(arities.len());
        let mut acc: u64 = 1;
        for &r in &arities {
            strides.push(acc);
            // Cannot overflow: Schema validated ∏ r_j < u64::MAX.
            acc *= r;
        }
        Self {
            arities,
            strides,
            state_space: schema.state_space_size(),
        }
    }

    /// Number of variables `n`.
    pub fn num_vars(&self) -> usize {
        self.arities.len()
    }

    /// Total number of distinct keys (`∏ r_j`); valid keys are
    /// `0..state_space()`.
    pub fn state_space(&self) -> u64 {
        self.state_space
    }

    /// Stride `∏_{k<j} r_k` of variable `j`.
    pub fn stride(&self, j: usize) -> u64 {
        self.strides[j]
    }

    /// Arity `r_j` of variable `j`.
    pub fn arity(&self, j: usize) -> u64 {
        self.arities[j]
    }

    /// Encodes a full state string into its key (Eq. 3).
    ///
    /// # Panics
    ///
    /// In debug builds, panics if the row length or any state is out of
    /// range. Release builds skip the check: this is the innermost loop of
    /// stage 1 and the dataset was validated at construction.
    #[inline]
    pub fn encode(&self, row: &[u16]) -> u64 {
        debug_assert_eq!(row.len(), self.arities.len());
        let mut key = 0u64;
        for (j, &s) in row.iter().enumerate() {
            debug_assert!(u64::from(s) < self.arities[j], "state out of range");
            key += u64::from(s) * self.strides[j];
        }
        key
    }

    /// Encodes a row-major block of state strings (`rows.len() / n` rows,
    /// concatenated) into keys appended to `out` (cleared first).
    ///
    /// Semantically `rows.chunks_exact(n).map(|r| self.encode(r))`, but the
    /// strides drive a 4-row micro-tile: the inner loop walks one stride
    /// column across four rows at once, so the four accumulator chains are
    /// independent and the multiply-add latency that serializes the scalar
    /// `encode` overlaps. This is the stage-1 encoder of every parallel
    /// builder.
    ///
    /// # Panics
    ///
    /// Panics if `rows.len()` is not a multiple of `n`. State-range checks
    /// follow [`encode`](Self::encode): debug builds only.
    pub fn encode_rows(&self, rows: &[u16], out: &mut Vec<u64>) {
        let n = self.arities.len();
        assert!(n > 0, "schema has no variables");
        assert_eq!(rows.len() % n, 0, "partial row in encode_rows input");
        out.clear();
        out.reserve(rows.len() / n);
        let mut tiles = rows.chunks_exact(4 * n);
        for tile in tiles.by_ref() {
            let (mut k0, mut k1, mut k2, mut k3) = (0u64, 0u64, 0u64, 0u64);
            for (j, &stride) in self.strides.iter().enumerate() {
                debug_assert!(u64::from(tile[j]) < self.arities[j]);
                debug_assert!(u64::from(tile[n + j]) < self.arities[j]);
                debug_assert!(u64::from(tile[2 * n + j]) < self.arities[j]);
                debug_assert!(u64::from(tile[3 * n + j]) < self.arities[j]);
                k0 += u64::from(tile[j]) * stride;
                k1 += u64::from(tile[n + j]) * stride;
                k2 += u64::from(tile[2 * n + j]) * stride;
                k3 += u64::from(tile[3 * n + j]) * stride;
            }
            out.extend_from_slice(&[k0, k1, k2, k3]);
        }
        for row in tiles.remainder().chunks_exact(n) {
            out.push(self.encode(row));
        }
    }

    /// Decodes variable `j`'s state from a key (Eq. 4).
    #[inline]
    pub fn decode_var(&self, key: u64, j: usize) -> u16 {
        ((key / self.strides[j]) % self.arities[j]) as u16
    }

    /// Decodes the full state string (test/diagnostic helper).
    pub fn decode_full(&self, key: u64) -> Vec<u16> {
        (0..self.num_vars())
            .map(|j| self.decode_var(key, j))
            .collect()
    }

    /// Directly computes the *marginal key* of `key` over `vars`: the
    /// mixed-radix rank of the decoded subset, using the marginal strides
    /// implied by the order of `vars`.
    ///
    /// Equivalent to decoding each of `vars` with
    /// [`decode_var`](Self::decode_var) and re-encoding, fused into one
    /// pass — the hot operation of Algorithm 3. As the paper stresses, "we
    /// do not need to recover the entire state string from each key".
    #[inline]
    pub(crate) fn marginal_key(&self, key: u64, vars: &[usize]) -> u64 {
        let mut mkey = 0u64;
        let mut mstride = 1u64;
        for &v in vars {
            mkey += u64::from(self.decode_var(key, v)) * mstride;
            mstride *= self.arities[v];
        }
        mkey
    }

    /// Validates a variable subset for marginalization: non-empty, in range,
    /// strictly increasing (no duplicates).
    pub fn validate_vars(&self, vars: &[usize]) -> Result<(), CoreError> {
        if vars.is_empty() {
            return Err(CoreError::BadVariableSet {
                reason: "empty variable set",
            });
        }
        for &v in vars {
            if v >= self.num_vars() {
                return Err(CoreError::VariableOutOfRange {
                    var: v,
                    num_vars: self.num_vars(),
                });
            }
        }
        if vars.windows(2).any(|w| w[0] >= w[1]) {
            return Err(CoreError::BadVariableSet {
                reason: "variables must be strictly increasing",
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codec(arities: Vec<u16>) -> KeyCodec {
        KeyCodec::new(&Schema::new(arities).unwrap())
    }

    #[test]
    fn uniform_radix_matches_paper_formula() {
        // r = 3, n = 4: key = Σ s_j · 3^j.
        let c = codec(vec![3; 4]);
        assert_eq!(c.encode(&[0, 0, 0, 0]), 0);
        assert_eq!(c.encode(&[1, 0, 0, 0]), 1);
        assert_eq!(c.encode(&[0, 1, 0, 0]), 3);
        assert_eq!(c.encode(&[0, 0, 0, 1]), 27);
        assert_eq!(c.encode(&[2, 2, 2, 2]), 80);
        assert_eq!(c.state_space(), 81);
    }

    #[test]
    fn encode_decode_round_trip_exhaustive() {
        let c = codec(vec![2, 3, 4]);
        for key in 0..c.state_space() {
            let row = c.decode_full(key);
            assert_eq!(c.encode(&row), key);
        }
    }

    #[test]
    fn keys_are_unique_per_state_string() {
        let c = codec(vec![2, 3, 2]);
        let mut seen = std::collections::HashSet::new();
        for s0 in 0..2u16 {
            for s1 in 0..3u16 {
                for s2 in 0..2u16 {
                    assert!(seen.insert(c.encode(&[s0, s1, s2])));
                }
            }
        }
        assert_eq!(seen.len() as u64, c.state_space());
    }

    #[test]
    fn subset_decoding_matches_full_decoding() {
        let c = codec(vec![2, 3, 4, 2, 3]);
        let vars = [1usize, 3, 4];
        for key in (0..c.state_space()).step_by(7) {
            let full = c.decode_full(key);
            let out = vars.map(|v| c.decode_var(key, v));
            assert_eq!(out, [full[1], full[3], full[4]]);
        }
    }

    #[test]
    fn marginal_key_equals_decode_then_reencode() {
        let c = codec(vec![2, 3, 4, 2]);
        let vars = [0usize, 2];
        for key in 0..c.state_space() {
            let out = vars.map(|v| c.decode_var(key, v));
            let expected = u64::from(out[0]) + u64::from(out[1]) * 2;
            assert_eq!(c.marginal_key(key, &vars), expected);
        }
    }

    #[test]
    fn marginal_keys_cover_marginal_space() {
        let c = codec(vec![2, 3, 4]);
        let vars = [1usize, 2];
        let seen: std::collections::HashSet<u64> = (0..c.state_space())
            .map(|k| c.marginal_key(k, &vars))
            .collect();
        assert_eq!(seen.len(), 12);
        assert!(seen.iter().all(|&mk| mk < 12));
    }

    #[test]
    fn encode_rows_matches_scalar_encode() {
        // Row counts straddling the 4-row micro-tile: remainders 0–3.
        let c = codec(vec![2, 3, 4, 2, 3]);
        let n = c.num_vars();
        for m in [0usize, 1, 3, 4, 5, 8, 11] {
            let rows: Vec<u16> = (0..m * n)
                .map(|i| ((i * 7 + 3) as u64 % c.arity(i % n)) as u16)
                .collect();
            let mut out = vec![99u64]; // must be cleared, not appended to
            c.encode_rows(&rows, &mut out);
            let expected: Vec<u64> = rows.chunks_exact(n).map(|r| c.encode(r)).collect();
            assert_eq!(out, expected, "m = {m}");
        }
    }

    #[test]
    #[should_panic(expected = "partial row")]
    fn encode_rows_rejects_partial_rows() {
        let c = codec(vec![2, 2]);
        c.encode_rows(&[0, 1, 0], &mut Vec::new());
    }

    #[test]
    fn largest_paper_configuration_fits_u64() {
        // n = 50 binary variables: keys up to 2^50 − 1.
        let c = codec(vec![2; 50]);
        let top = c.encode(&[1u16; 50]);
        assert_eq!(top, (1u64 << 50) - 1);
        assert_eq!(c.decode_full(top), vec![1u16; 50]);
    }

    #[test]
    fn validate_vars_rules() {
        let c = codec(vec![2; 5]);
        assert!(c.validate_vars(&[0, 2, 4]).is_ok());
        assert!(matches!(
            c.validate_vars(&[]),
            Err(CoreError::BadVariableSet { .. })
        ));
        assert!(matches!(
            c.validate_vars(&[2, 2]),
            Err(CoreError::BadVariableSet { .. })
        ));
        assert!(matches!(
            c.validate_vars(&[3, 1]),
            Err(CoreError::BadVariableSet { .. })
        ));
        assert!(matches!(
            c.validate_vars(&[5]),
            Err(CoreError::VariableOutOfRange { var: 5, .. })
        ));
    }

    #[test]
    fn strides_are_prefix_products() {
        let c = codec(vec![2, 3, 4]);
        assert_eq!(c.stride(0), 1);
        assert_eq!(c.stride(1), 2);
        assert_eq!(c.stride(2), 6);
    }
}
