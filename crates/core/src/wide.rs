//! Wide-key (128-bit) variant of the primitives, for networks beyond the
//! 64-bit key range.
//!
//! The paper's motivation is scaling structure learning to "networks with
//! hundreds of nodes"; the mixed-radix key of Eq. 3 outgrows a `u64` at 64
//! binary variables. This module supplies the one `u128`-specific piece,
//! the [`WideCodec`], and runs the crate's generic count table
//! ([`CountTable<u128>`]) and two-stage build over it, plus a dense
//! marginalization — supporting up to 127 binary variables (or any arity
//! mix whose state-space product fits `u128`).
//!
//! Because [`wfbn_data::Schema`] deliberately enforces the 64-bit bound for
//! the primary pipeline, the wide path accepts raw row-major state buffers
//! plus an explicit arity list. The tests pin it against the 64-bit build on
//! inputs both can represent.

use crate::construct::{capacity_hint, two_stage, Fresh};
use crate::count_table::{CountTable, Key};
use crate::error::CoreError;
use wfbn_obs::{NoopRecorder, Recorder};

/// Mixed-radix codec over `u128` keys.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WideCodec {
    arities: Vec<u128>,
    strides: Vec<u128>,
    state_space: u128,
}

impl WideCodec {
    /// Builds a codec; errors if the state space does not fit below
    /// `u128::MAX` (one value is reserved as the table sentinel) or any
    /// arity is below 2.
    pub fn new(arities: &[u16]) -> Result<Self, CoreError> {
        if arities.is_empty() {
            return Err(CoreError::BadVariableSet {
                reason: "empty arity list",
            });
        }
        let mut strides = Vec::with_capacity(arities.len());
        let mut acc: u128 = 1;
        for (j, &r) in arities.iter().enumerate() {
            if r < 2 {
                return Err(CoreError::VariableOutOfRange {
                    var: j,
                    num_vars: arities.len(),
                });
            }
            strides.push(acc);
            acc = acc
                .checked_mul(u128::from(r))
                .ok_or(CoreError::BadVariableSet {
                    reason: "state space exceeds the 128-bit key range",
                })?;
        }
        if acc == u128::MAX {
            return Err(CoreError::BadVariableSet {
                reason: "state space exceeds the 128-bit key range",
            });
        }
        Ok(Self {
            arities: arities.iter().map(|&r| u128::from(r)).collect(),
            strides,
            state_space: acc,
        })
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.arities.len()
    }

    /// Total number of distinct keys.
    pub fn state_space(&self) -> u128 {
        self.state_space
    }

    /// Encodes a state string (Eq. 3, 128-bit).
    #[inline]
    pub fn encode(&self, row: &[u16]) -> u128 {
        debug_assert_eq!(row.len(), self.arities.len());
        let mut key = 0u128;
        for (j, &s) in row.iter().enumerate() {
            debug_assert!(u128::from(s) < self.arities[j]);
            key += u128::from(s) * self.strides[j];
        }
        key
    }

    /// Decodes variable `j` from a key (Eq. 4, 128-bit).
    #[inline]
    pub fn decode_var(&self, key: u128, j: usize) -> u16 {
        ((key / self.strides[j]) % self.arities[j]) as u16
    }

    /// The marginal rank of `key` over `vars` (order respected).
    #[inline]
    pub fn marginal_key(&self, key: u128, vars: &[usize]) -> u64 {
        let mut mkey = 0u64;
        let mut mstride = 1u64;
        for &v in vars {
            mkey += u64::from(self.decode_var(key, v)) * mstride;
            mstride *= self.arities[v] as u64;
        }
        mkey
    }
}

/// A wide potential table: the wide codec plus `P` partitions.
#[derive(Debug, Clone)]
pub struct WidePotentialTable {
    codec: WideCodec,
    partitions: Vec<CountTable<u128>>,
}

impl WidePotentialTable {
    /// The codec.
    pub fn codec(&self) -> &WideCodec {
        &self.codec
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.partitions.len()
    }

    /// Total observation count.
    pub fn total_count(&self) -> u64 {
        self.partitions
            .iter()
            .flat_map(CountTable::iter)
            .map(|(_, c)| c)
            .sum()
    }

    /// Distinct state strings observed.
    pub fn num_entries(&self) -> usize {
        self.partitions.iter().map(CountTable::len).sum()
    }

    /// Count of one key.
    pub fn count_of(&self, key: u128) -> u64 {
        self.partitions[key.owner(self.partitions.len())].get(key)
    }

    /// All entries, key-sorted (test comparisons).
    pub fn to_sorted_vec(&self) -> Vec<(u128, u64)> {
        let mut v: Vec<(u128, u64)> = self.partitions.iter().flat_map(CountTable::iter).collect();
        v.sort_unstable_by_key(|&(k, _)| k);
        v
    }

    /// Dense marginal counts over `vars` (strictly increasing), scanning
    /// partitions in parallel with `threads` threads (Algorithm 3, wide).
    pub fn marginal_counts(&self, vars: &[usize], threads: usize) -> Result<Vec<u64>, CoreError> {
        if threads == 0 {
            return Err(CoreError::ZeroThreads);
        }
        if vars.is_empty() || vars.windows(2).any(|w| w[0] >= w[1]) {
            return Err(CoreError::BadVariableSet {
                reason: "variables must be non-empty and strictly increasing",
            });
        }
        for &v in vars {
            if v >= self.codec.num_vars() {
                return Err(CoreError::VariableOutOfRange {
                    var: v,
                    num_vars: self.codec.num_vars(),
                });
            }
        }
        // Same materialization guard as the narrow path (2^28 cells): the
        // checked product also prevents a silent u64 wrap for very wide
        // variable subsets.
        const MAX_MARGINAL_CELLS: u64 = 1 << 28;
        let cells = vars
            .iter()
            .try_fold(1u64, |acc, &v| {
                acc.checked_mul(self.codec.arities[v] as u64)
            })
            .filter(|&c| c <= MAX_MARGINAL_CELLS)
            .ok_or(CoreError::BadVariableSet {
                reason: "marginal state space too large to materialize",
            })?;
        let p = self.partitions.len();
        let t = threads.min(p);
        let partials = wfbn_concurrent::run_on_threads(t, |tid| {
            let mut local = vec![0u64; cells as usize];
            let mut idx = tid;
            while idx < p {
                for (key, count) in self.partitions[idx].iter() {
                    local[self.codec.marginal_key(key, vars) as usize] += count;
                }
                idx += t;
            }
            local
        });
        let mut out = vec![0u64; cells as usize];
        for partial in &partials {
            for (a, b) in out.iter_mut().zip(partial) {
                *a += b;
            }
        }
        Ok(out)
    }
}

/// Builds a wide potential table from a raw row-major state buffer with the
/// two-stage wait-free primitive.
///
/// `states.len()` must be a multiple of `arities.len()`.
pub fn waitfree_build_wide(
    states: &[u16],
    arities: &[u16],
    threads: usize,
) -> Result<WidePotentialTable, CoreError> {
    waitfree_build_wide_recorded(states, arities, threads, &NoopRecorder)
}

/// [`waitfree_build_wide`] with telemetry: per-core stage timers, routing
/// and write-combining counters, probe-length histograms, and queue depth
/// high-water marks, all written through single-writer per-core recorder
/// handles. The build is the crate's one two-stage path, over `u128` keys
/// owned by [`Key::owner`].
pub fn waitfree_build_wide_recorded<R: Recorder>(
    states: &[u16],
    arities: &[u16],
    threads: usize,
    rec: &R,
) -> Result<WidePotentialTable, CoreError> {
    if threads == 0 {
        return Err(CoreError::ZeroThreads);
    }
    let codec = WideCodec::new(arities)?;
    let n = codec.num_vars();
    if states.len() % n != 0 {
        return Err(CoreError::BadVariableSet {
            reason: "state buffer is not a whole number of rows",
        });
    }
    let m = states.len() / n;
    if m == 0 {
        return Err(CoreError::EmptyDataset);
    }
    let space = u64::try_from(codec.state_space()).unwrap_or(u64::MAX);
    let cores = two_stage(
        states,
        n,
        Fresh::parts(threads, capacity_hint(m, space, threads)),
        |rows, keys| {
            keys.clear();
            keys.extend(rows.chunks_exact(n).map(|row| codec.encode(row)));
        },
        rec,
    );
    Ok(WidePotentialTable {
        codec,
        partitions: cores
            .into_iter()
            .map(|(part, _)| part.into_table())
            .collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construct::waitfree_build;
    use wfbn_data::{Generator, Schema, UniformIndependent};

    #[test]
    fn codec_round_trips_beyond_64_bits() {
        let arities = vec![2u16; 100];
        let codec = WideCodec::new(&arities).unwrap();
        assert_eq!(codec.state_space(), 1u128 << 100);
        let row: Vec<u16> = (0..100).map(|i| (i % 2) as u16).collect();
        let key = codec.encode(&row);
        for (j, &s) in row.iter().enumerate() {
            assert_eq!(codec.decode_var(key, j), s);
        }
        // The top bit region is actually exercised.
        let ones = vec![1u16; 100];
        assert_eq!(codec.encode(&ones), (1u128 << 100) - 1);
    }

    #[test]
    fn codec_rejects_overflow_and_bad_arity() {
        assert!(WideCodec::new(&vec![2u16; 128]).is_err());
        assert!(WideCodec::new(&vec![2u16; 127]).is_ok());
        assert!(WideCodec::new(&[2, 1, 2]).is_err());
        assert!(WideCodec::new(&[]).is_err());
    }

    #[test]
    fn wide_build_matches_narrow_build_on_shared_range() {
        // On ≤ 63 variables both pipelines apply; their count multisets
        // must agree key-for-key.
        let schema = Schema::uniform(12, 2).unwrap();
        let data = UniformIndependent::new(schema.clone()).generate(5_000, 3);
        let narrow = waitfree_build(&data, 4).unwrap().table;
        let wide = waitfree_build_wide(data.flat(), schema.arities(), 4).unwrap();
        let narrow_v: Vec<(u128, u64)> = narrow
            .to_sorted_vec()
            .into_iter()
            .map(|(k, c)| (u128::from(k), c))
            .collect();
        assert_eq!(wide.to_sorted_vec(), narrow_v);
        assert_eq!(wide.total_count(), 5_000);
    }

    #[test]
    fn hundred_variable_network_builds_and_marginalizes() {
        // 100 binary variables: impossible for the u64 pipeline, fine here.
        let n = 100;
        let m = 3_000;
        // Deterministic pseudo-random rows.
        let mut states = Vec::with_capacity(n * m);
        let mut x = 0x9e37_79b9u64;
        for _ in 0..(n * m) {
            x = wfbn_concurrent::mix64(x);
            states.push((x & 1) as u16);
        }
        let arities = vec![2u16; n];
        let table = waitfree_build_wide(&states, &arities, 4).unwrap();
        assert_eq!(table.total_count(), m as u64);
        // Single-variable marginal equals a direct column count.
        let marg = table.marginal_counts(&[37], 4).unwrap();
        let direct = states.chunks_exact(n).filter(|row| row[37] == 1).count() as u64;
        assert_eq!(marg[1], direct);
        assert_eq!(marg[0] + marg[1], m as u64);
        // Pair marginal sums to m as well.
        let pair = table.marginal_counts(&[10, 90], 2).unwrap();
        assert_eq!(pair.iter().sum::<u64>(), m as u64);
    }

    #[test]
    fn wide_build_is_deterministic_and_thread_invariant() {
        let arities = vec![3u16; 50];
        let mut states = Vec::new();
        let mut x = 7u64;
        for _ in 0..(50 * 1000) {
            x = wfbn_concurrent::mix64(x);
            states.push((x % 3) as u16);
        }
        let a = waitfree_build_wide(&states, &arities, 1)
            .unwrap()
            .to_sorted_vec();
        for p in [2usize, 4, 8] {
            let b = waitfree_build_wide(&states, &arities, p)
                .unwrap()
                .to_sorted_vec();
            assert_eq!(a, b, "p={p}");
        }
    }

    #[test]
    fn wide_table_errors() {
        let arities = vec![2u16; 10];
        assert!(matches!(
            waitfree_build_wide(&[], &arities, 2),
            Err(CoreError::EmptyDataset)
        ));
        assert!(matches!(
            waitfree_build_wide(&[0, 1, 0], &arities, 2),
            Err(CoreError::BadVariableSet { .. })
        ));
        assert!(matches!(
            waitfree_build_wide(&[0; 10], &arities, 0),
            Err(CoreError::ZeroThreads)
        ));
        // Oversized marginal subsets are rejected, not wrapped/allocated:
        // 70 binary vars would need 2^70 cells (u64 product would wrap).
        let wide_arities = vec![2u16; 80];
        let rows: Vec<u16> = vec![0; 160];
        let big = waitfree_build_wide(&rows, &wide_arities, 2).unwrap();
        let all_vars: Vec<usize> = (0..70).collect();
        assert!(matches!(
            big.marginal_counts(&all_vars, 2),
            Err(CoreError::BadVariableSet { .. })
        ));
        let t = waitfree_build_wide(&[0; 20], &arities, 2).unwrap();
        assert!(t.marginal_counts(&[], 1).is_err());
        assert!(t.marginal_counts(&[3, 1], 1).is_err());
        assert!(t.marginal_counts(&[99], 1).is_err());
    }

    #[test]
    fn batched_wide_build_matches_scalar_wide_build() {
        let arities = vec![3u16; 50];
        let mut states = Vec::new();
        let mut x = 7u64;
        for _ in 0..(50 * 2000) {
            x = wfbn_concurrent::mix64(x);
            states.push((x % 3) as u16);
        }
        // 3^50 states: beyond the u64 oracle, so count rows directly.
        let codec = WideCodec::new(&arities).unwrap();
        let mut counts = std::collections::BTreeMap::new();
        for row in states.chunks_exact(50) {
            *counts.entry(codec.encode(row)).or_insert(0u64) += 1;
        }
        let reference: Vec<(u128, u64)> = counts.into_iter().collect();
        for p in [1usize, 2, 4, 8] {
            let b = waitfree_build_wide(&states, &arities, p)
                .unwrap()
                .to_sorted_vec();
            assert_eq!(b, reference, "p={p}");
        }
    }

    #[test]
    fn batched_wide_build_errors_mirror_scalar() {
        // The single-core path validates like the threaded one.
        let arities = vec![2u16; 10];
        assert!(matches!(
            waitfree_build_wide(&[], &arities, 1),
            Err(CoreError::EmptyDataset)
        ));
        assert!(matches!(
            waitfree_build_wide(&[0, 1, 0], &arities, 1),
            Err(CoreError::BadVariableSet { .. })
        ));
        assert!(matches!(
            waitfree_build_wide(&[0; 10], &[2, 1], 1),
            Err(CoreError::VariableOutOfRange { .. })
        ));
    }

    #[test]
    fn wide_block_increment_matches_scalar_increments() {
        let mut scalar = CountTable::<u128>::default();
        let mut batched = CountTable::<u128>::default();
        let mut x = 5u64;
        let mut block = Vec::new();
        for _ in 0..5_000 {
            x = wfbn_concurrent::mix64(x);
            let key = (u128::from(x) << 64) | u128::from(x % 251);
            let by = x % 3 + 1;
            scalar.increment(key, by);
            block.push((key, by));
        }
        batched.increment_block(&block);
        let mut a: Vec<(u128, u64)> = scalar.iter().collect();
        let mut b: Vec<(u128, u64)> = batched.iter().collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn wide_count_table_matches_reference_counts() {
        let mut t = CountTable::<u128>::default();
        let mut reference = std::collections::HashMap::new();
        let mut x = 1u64;
        for _ in 0..20_000 {
            x = wfbn_concurrent::mix64(x);
            let key = (u128::from(x) << 64) | u128::from(x % 997);
            t.increment(key, 1);
            *reference.entry(key).or_insert(0u64) += 1;
        }
        assert_eq!(t.len(), reference.len());
        for (&k, &c) in &reference {
            assert_eq!(t.get(k), c);
        }
        assert_eq!(t.get(12345), 0);
    }
}
