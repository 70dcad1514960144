//! The distributed potential table.
//!
//! A potential table records, for every observed state string, the number of
//! its occurrences in the training data (counts, not probabilities — the
//! paper's footnote 2: normalization is deferred to marginalization time).
//! Physically it is `P` private [`CountTable`]s, partition `p` holding the
//! keys with `key % P == p` ([`Key::owner`]), plus the [`KeyCodec`] needed
//! to interpret keys.

use crate::codec::KeyCodec;
use crate::count_table::{CountTable, Key};
use std::sync::Arc;

/// A potential table distributed over `P` per-core partitions.
///
/// # Examples
///
/// ```
/// use wfbn_core::construct::sequential_build;
/// use wfbn_data::{Dataset, Schema};
///
/// let schema = Schema::uniform(2, 2).unwrap();
/// let d = Dataset::from_rows(schema, &[&[0, 1], &[0, 1], &[1, 0]]).unwrap();
/// let table = sequential_build(&d).unwrap().table;
/// let key_01 = table.codec().encode(&[0, 1]);
/// assert_eq!(table.count_of(key_01), 2);
/// assert_eq!(table.total_count(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct PotentialTable {
    codec: KeyCodec,
    /// `Arc`-shared so that snapshots of a live stream are O(P) pointer
    /// bumps (copy-on-publish): a [`crate::stream::StreamingBuilder`] keeps
    /// absorbing into its own copies while every published table stays
    /// immutable, and `PotentialTable::clone` never deep-copies a partition.
    partitions: Vec<Arc<CountTable>>,
}

impl PotentialTable {
    /// Assembles a potential table from its `P = partitions.len()`
    /// partitions.
    ///
    /// # Panics
    ///
    /// Panics if `partitions` is empty, or (debug only) if some key is
    /// stored in a partition that does not own it.
    pub fn from_parts(codec: KeyCodec, partitions: Vec<CountTable>) -> Self {
        Self::from_shared_parts(codec, partitions.into_iter().map(Arc::new).collect())
    }

    /// [`from_parts`](Self::from_parts) over already-shared partitions —
    /// the zero-copy publication path: no count table is cloned, only `Arc`
    /// reference counts move.
    ///
    /// # Panics
    ///
    /// As [`from_parts`](Self::from_parts).
    pub(crate) fn from_shared_parts(codec: KeyCodec, partitions: Vec<Arc<CountTable>>) -> Self {
        assert!(!partitions.is_empty(), "need at least one partition");
        #[cfg(debug_assertions)]
        for (p, t) in partitions.iter().enumerate() {
            for (key, _) in t.iter() {
                debug_assert_eq!(key.owner(partitions.len()), p, "misplaced key {key}");
            }
        }
        Self { codec, partitions }
    }

    /// The key codec for this table's schema.
    pub fn codec(&self) -> &KeyCodec {
        &self.codec
    }

    /// Number of partitions `P`.
    pub fn num_partitions(&self) -> usize {
        self.partitions.len()
    }

    /// One partition's private count table.
    pub fn partition(&self, p: usize) -> &CountTable {
        &self.partitions[p]
    }

    /// All partitions, in core order (shared handles; deref to
    /// [`CountTable`]).
    pub fn partitions(&self) -> &[Arc<CountTable>] {
        &self.partitions
    }

    /// The count of one key, looked up in its owner's partition.
    pub fn count_of(&self, key: u64) -> u64 {
        self.partitions[key.owner(self.partitions.len())].get(key)
    }

    /// Total number of observations recorded (= `m` after a full build).
    pub fn total_count(&self) -> u64 {
        self.partitions.iter().map(|t| t.total_count()).sum()
    }

    /// Number of distinct state strings observed.
    pub fn num_entries(&self) -> usize {
        self.partitions.iter().map(|t| t.len()).sum()
    }

    /// Iterates over every `(key, count)` pair across all partitions.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.partitions.iter().flat_map(|t| t.iter())
    }

    /// All entries as a key-sorted vector (cross-implementation comparisons).
    pub fn to_sorted_vec(&self) -> Vec<(u64, u64)> {
        let mut v: Vec<(u64, u64)> = self.iter().collect();
        v.sort_unstable_by_key(|&(k, _)| k);
        v
    }

    /// Per-partition entry counts (load-balance diagnostics).
    pub fn partition_sizes(&self) -> Vec<usize> {
        self.partitions.iter().map(|t| t.len()).collect()
    }

    /// Ratio `max/mean` of partition entry counts (1.0 = perfectly
    /// balanced). Marginalization walks whole partitions, so the largest
    /// one bounds its parallel time.
    pub fn imbalance(&self) -> f64 {
        let sizes = self.partition_sizes();
        let total: usize = sizes.iter().sum();
        if total == 0 {
            return 1.0;
        }
        let mean = total as f64 / sizes.len() as f64;
        let max = *sizes.iter().max().expect("non-empty") as f64;
        max / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfbn_data::Schema;

    fn small_table() -> PotentialTable {
        let codec = KeyCodec::new(&Schema::uniform(4, 2).unwrap());
        let mut tables = vec![CountTable::new(), CountTable::new(), CountTable::new()];
        for key in 0..16u64 {
            tables[key.owner(3)].increment(key, key + 1);
        }
        PotentialTable::from_parts(codec, tables)
    }

    #[test]
    fn lookup_routes_to_owner() {
        let t = small_table();
        for key in 0..16u64 {
            assert_eq!(t.count_of(key), key + 1);
        }
        assert_eq!(t.count_of(99), 0);
        assert_eq!(t.num_partitions(), 3);
        assert_eq!(t.num_entries(), 16);
        assert_eq!(t.total_count(), (1..=16u64).sum());
    }

    #[test]
    fn iter_covers_all_partitions() {
        let t = small_table();
        let mut v = t.to_sorted_vec();
        v.dedup();
        assert_eq!(v.len(), 16);
        assert_eq!(v[0], (0, 1));
        assert_eq!(v[15], (15, 16));
    }

    #[test]
    fn partition_sizes_report() {
        let t = small_table();
        let sizes = t.partition_sizes();
        assert_eq!(sizes.iter().sum::<usize>(), 16);
        assert_eq!(sizes.len(), 3);
    }

    #[test]
    fn imbalance_metric_sanity() {
        // Keys 0..16 over 3 partitions: sizes [6, 5, 5], max/mean = 6/(16/3).
        let r = small_table().imbalance();
        assert!((r - 18.0 / 16.0).abs() < 1e-12, "r={r}");
        let codec = KeyCodec::new(&Schema::uniform(2, 2).unwrap());
        let empty = PotentialTable::from_parts(codec.clone(), vec![CountTable::new(); 2]);
        assert_eq!(empty.imbalance(), 1.0);
        let mut t0 = CountTable::new();
        t0.increment(0, 1);
        let skewed = PotentialTable::from_parts(codec, vec![t0, CountTable::new()]);
        assert_eq!(skewed.imbalance(), 2.0);
    }

    #[test]
    #[should_panic(expected = "at least one partition")]
    fn wrong_partition_count_panics() {
        let codec = KeyCodec::new(&Schema::uniform(2, 2).unwrap());
        let _ = PotentialTable::from_parts(codec, Vec::new());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "misplaced key")]
    fn misplaced_key_caught_in_debug() {
        let codec = KeyCodec::new(&Schema::uniform(2, 2).unwrap());
        let mut t0 = CountTable::new();
        t0.increment(1, 1); // key 1 belongs to partition 1, not 0
        let _ = PotentialTable::from_parts(codec, vec![t0, CountTable::new()]);
    }
}
