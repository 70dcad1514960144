//! The Intel-TBB-analog baseline: one shared hash table with striped locks.
//!
//! TBB's `concurrent_hash_map` guards each bucket chain with a lightweight
//! lock; writers to different buckets proceed in parallel, writers to the
//! same bucket serialize. This builder reproduces that design point:
//! the key space is hashed onto `S` stripes, each stripe owning a private
//! [`CountTable`] behind a `parking_lot::Mutex`. Every update locks exactly
//! one stripe.
//!
//! Why this degrades at scale (the paper's Fig. 3b/4b): (1) even uncontended
//! lock acquisition is a read-modify-write on a shared line, so every update
//! ships at least one cache line between cores; (2) with `P` writers and `S`
//! stripes, the probability two concurrent updates collide on a stripe grows
//! with `P/S`, adding genuine blocking. The wait-free primitive pays neither
//! cost, which is exactly the gap the paper plots.

use crate::api::{BaselineError, CountsView, TableBuilder};
use parking_lot::Mutex;
use wfbn_concurrent::{mix64, row_chunks, CachePadded};
use wfbn_core::codec::KeyCodec;
use wfbn_core::count_table::CountTable;
use wfbn_core::error::CoreError;
use wfbn_data::Dataset;

/// Stripes allocated per worker thread (TBB sizes its lock tables
/// similarly: enough stripes that uncontended runs rarely collide, few
/// enough to stay cache-resident).
const STRIPES_PER_THREAD: usize = 16;

/// A shared, striped-lock concurrent count map.
pub struct StripedCountMap {
    stripes: Vec<CachePadded<Mutex<CountTable>>>,
}

impl StripedCountMap {
    /// Creates a map with `stripes` lock stripes.
    ///
    /// # Panics
    ///
    /// Panics if `stripes == 0`.
    pub fn new(stripes: usize) -> Self {
        assert!(stripes > 0, "need at least one stripe");
        Self {
            stripes: (0..stripes)
                .map(|_| CachePadded::new(Mutex::new(CountTable::new())))
                .collect(),
        }
    }

    /// Number of stripes.
    pub fn num_stripes(&self) -> usize {
        self.stripes.len()
    }

    #[inline]
    fn stripe_of(&self, key: u64) -> usize {
        (mix64(key) % self.stripes.len() as u64) as usize
    }

    /// Adds `by` to `key`'s count (locks the owning stripe).
    #[inline]
    pub fn increment(&self, key: u64, by: u64) {
        let stripe = self.stripe_of(key);
        self.stripes[stripe].lock().increment(key, by);
    }

    /// Reads `key`'s count.
    pub fn get(&self, key: u64) -> u64 {
        self.stripes[self.stripe_of(key)].lock().get(key)
    }

    /// Consumes the map into a plain vector of entries.
    pub(crate) fn into_entries(self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        for stripe in self.stripes {
            let table = stripe.into_inner().into_inner();
            out.extend(table.iter());
        }
        out
    }
}

/// Finished output of a striped build (the stripes, frozen).
pub struct StripedCounts {
    entries: Vec<(u64, u64)>,
}

impl CountsView for StripedCounts {
    fn get(&self, key: u64) -> u64 {
        // Frozen view; a scan is fine for the test/diagnostic call sites.
        self.entries
            .iter()
            .find(|&&(k, _)| k == key)
            .map_or(0, |&(_, c)| c)
    }

    fn total_count(&self) -> u64 {
        self.entries.iter().map(|&(_, c)| c).sum()
    }

    fn num_entries(&self) -> usize {
        self.entries.len()
    }

    fn to_sorted_vec(&self) -> Vec<(u64, u64)> {
        let mut v = self.entries.clone();
        v.sort_unstable_by_key(|&(k, _)| k);
        v
    }
}

/// Builds the table through a shared striped-lock map (the TBB stand-in).
#[derive(Debug, Clone, Copy)]
pub struct StripedLockBuilder {
    /// Stripes per participating thread.
    pub stripes_per_thread: usize,
}

impl Default for StripedLockBuilder {
    fn default() -> Self {
        Self {
            stripes_per_thread: STRIPES_PER_THREAD,
        }
    }
}

impl StripedLockBuilder {
    /// Runs the build and returns the raw map (bench access).
    pub fn build_map(
        &self,
        data: &Dataset,
        threads: usize,
    ) -> Result<StripedCountMap, BaselineError> {
        if threads == 0 {
            return Err(CoreError::ZeroThreads.into());
        }
        if data.num_samples() == 0 {
            return Err(CoreError::EmptyDataset.into());
        }
        let codec = KeyCodec::new(data.schema());
        let map = StripedCountMap::new(self.stripes_per_thread * threads);
        let chunks = row_chunks(data.num_samples(), threads);
        let n = codec.num_vars();
        wfbn_concurrent::run_on_threads(threads, |t| {
            let chunk = chunks[t];
            for row in data.row_range(chunk.start, chunk.end).chunks_exact(n) {
                map.increment(codec.encode(row), 1);
            }
        });
        Ok(map)
    }
}

impl TableBuilder for StripedLockBuilder {
    fn name(&self) -> &'static str {
        "striped-lock (TBB analog)"
    }

    fn build(&self, data: &Dataset, threads: usize) -> Result<Box<dyn CountsView>, BaselineError> {
        let map = self.build_map(data, threads)?;
        Ok(Box::new(StripedCounts {
            entries: map.into_entries(),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfbn_core::construct::sequential_build;
    use wfbn_data::{Generator, Schema, UniformIndependent, ZipfIndependent};

    #[test]
    fn concurrent_increments_are_not_lost() {
        let map = StripedCountMap::new(8);
        let keys_per_thread = 50_000u64;
        wfbn_concurrent::run_on_threads(4, |_| {
            for i in 0..keys_per_thread {
                map.increment(i % 97, 1);
            }
        });
        let total: u64 = (0..97u64).map(|k| map.get(k)).sum();
        assert_eq!(total, 4 * keys_per_thread);
    }

    #[test]
    fn matches_sequential_reference() {
        let schema = Schema::new(vec![2, 4, 3]).unwrap();
        let data = UniformIndependent::new(schema).generate(5_000, 23);
        let reference = sequential_build(&data).unwrap().table.to_sorted_vec();
        for threads in [1usize, 2, 4, 8] {
            let out = StripedLockBuilder::default().build(&data, threads).unwrap();
            assert_eq!(out.to_sorted_vec(), reference, "threads={threads}");
        }
    }

    #[test]
    fn skewed_keys_still_correct() {
        // Heavy contention on a few stripes must not corrupt counts.
        let schema = Schema::uniform(8, 2).unwrap();
        let data = ZipfIndependent::new(schema, 2.5)
            .unwrap()
            .generate(20_000, 5);
        let reference = sequential_build(&data).unwrap().table.to_sorted_vec();
        let out = StripedLockBuilder {
            stripes_per_thread: 1,
        }
        .build(&data, 4)
        .unwrap();
        assert_eq!(out.to_sorted_vec(), reference);
    }

    #[test]
    fn errors_propagate() {
        let schema = Schema::uniform(3, 2).unwrap();
        let empty = Dataset::from_rows(schema, &[]).unwrap();
        assert!(matches!(
            StripedLockBuilder::default().build(&empty, 2),
            Err(BaselineError::Core(CoreError::EmptyDataset))
        ));
        let data = UniformIndependent::new(Schema::uniform(3, 2).unwrap()).generate(10, 1);
        assert!(matches!(
            StripedLockBuilder::default().build(&data, 0),
            Err(BaselineError::Core(CoreError::ZeroThreads))
        ));
    }

    #[test]
    fn stripe_count_scales_with_threads() {
        let b = StripedLockBuilder::default();
        let data = UniformIndependent::new(Schema::uniform(4, 2).unwrap()).generate(100, 1);
        let map = b.build_map(&data, 4).unwrap();
        assert_eq!(map.num_stripes(), 4 * STRIPES_PER_THREAD);
    }
}
