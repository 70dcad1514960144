//! Per-reader marginal cache, invalidated on epoch advance.
//!
//! Every cache is owned by exactly one [`QueryReader`](crate::reader), so
//! there is no sharing, no lock, and no invalidation protocol beyond "the
//! epoch moved". Correctness is trivial by construction: a cached marginal
//! is valid precisely for the epoch it was computed from, and the reader
//! flushes the map the moment it pins a newer epoch. Under a write-heavy
//! feed the map degenerates to a no-op (every pin flushes); under a
//! read-heavy feed it converts repeated scopes into O(1) lookups.
//!
//! A miss is answered from the packed snapshot of the pinned epoch
//! ([`Epoch::packed`]), which the writer packed and bit-sliced once before
//! publishing it; the epoch holds no other copy of
//! the table. A scope of up to 32 cells — the 2–3 binary variables of a
//! typical `MI` or `CPT` — costs a few ANDs and weighted popcounts per 64
//! entries; a wider one a shift-and-mask scan of dense arrays. No reader
//! packs on its query path.

use crate::engine::Epoch;
use crate::server::MAX_LINE_CELLS;
use crate::ServeError;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;
use wfbn_core::{CoreError, MarginalTable};
use wfbn_obs::{CoreRecorder, Counter, Recorder, Stage};

/// Default bound on cached scopes per reader (see [`MarginalCache::insert`]).
pub const DEFAULT_CACHE_CAPACITY: usize = 256;

/// Scope-keyed marginal cache for one reader; see the [module docs](self).
pub struct MarginalCache {
    /// Epoch the cached entries were computed from.
    epoch: u64,
    map: HashMap<Box<[usize]>, Arc<MarginalTable>>,
    capacity: usize,
    /// Cells of every cached marginal.
    cells: u64,
}

impl MarginalCache {
    /// Creates an empty cache bound to epoch 0 (nothing published).
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CACHE_CAPACITY)
    }

    /// Creates an empty cache holding at most `capacity` scopes.
    pub fn with_capacity(capacity: usize) -> Self {
        MarginalCache {
            epoch: 0,
            map: HashMap::new(),
            capacity: capacity.max(1),
            cells: 0,
        }
    }

    /// The epoch the cached entries belong to.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of cached scopes.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Cells of every cached marginal together.
    pub fn cells(&self) -> u64 {
        self.cells
    }

    /// `true` when no scope is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Rebinds the cache to `epoch`, flushing every entry if it moved.
    pub fn refresh(&mut self, epoch: u64) {
        if epoch != self.epoch {
            self.clear();
            self.epoch = epoch;
        }
    }

    /// Cached marginal for `scope` (valid for the current epoch), if any.
    pub fn get(&self, scope: &[usize]) -> Option<&Arc<MarginalTable>> {
        self.map.get(scope)
    }

    /// Caches `marginal` under `scope` for the current epoch.
    ///
    /// At capacity, or when its cells would take the cache past
    /// [`MAX_LINE_CELLS`] (the most one protocol line's distinct scopes may
    /// total), the whole map is flushed first — the same wholesale flush an
    /// epoch advance performs, chosen over per-entry eviction so the cache
    /// never needs recency bookkeeping on the query hot path. No server
    /// scope is wider than that bound by itself
    /// ([`MAX_SCOPE_CELLS`](crate::server::MAX_SCOPE_CELLS) is a quarter of
    /// it), so the cache then holds at most [`MAX_LINE_CELLS`] cells.
    pub fn insert(&mut self, scope: &[usize], marginal: Arc<MarginalTable>) {
        let cells = marginal.num_cells() as u64;
        if self.map.len() >= self.capacity || self.cells + cells > MAX_LINE_CELLS {
            self.clear();
        }
        self.cells += cells;
        if let Some(old) = self.map.insert(scope.into(), marginal) {
            self.cells -= old.num_cells() as u64;
        }
    }

    fn clear(&mut self) {
        self.map.clear();
        self.cells = 0;
    }

    /// Answers a fused group of `scopes` at the cache's epoch, whose
    /// snapshot is `epoch`. Returns the answers in request order.
    ///
    /// Scopes must be strictly increasing variable lists. Cached scopes are
    /// hits; each distinct missing scope is marginalized on the epoch's
    /// packed snapshot and the result is cached. Finding the distinct
    /// scopes and mapping them back is linear in the group. Core
    /// `core` of `rec` records the scans under [`Stage::Marginal`], the
    /// entries they cover under [`Counter::EntriesScanned`] (every snapshot
    /// entry once per missing scope, whichever kernel counted it), and per
    /// query a latency sample, a `queries_served` and a cache hit or miss.
    pub fn answer<R: Recorder>(
        &mut self,
        epoch: &Epoch,
        scopes: &[&[usize]],
        rec: &R,
        core: usize,
    ) -> Result<Vec<Arc<MarginalTable>>, ServeError> {
        if scopes.is_empty() {
            return Ok(Vec::new());
        }
        let mut cr = rec.core(core);
        let t0 = cr.now();

        let mut hits = 0u64;
        // Each distinct missing scope, and its place among them.
        let mut missing: Vec<&[usize]> = Vec::new();
        let mut place: HashMap<&[usize], usize> = HashMap::new();
        for &scope in scopes {
            if self.map.contains_key(scope) {
                hits += 1;
            } else if let Entry::Vacant(slot) = place.entry(scope) {
                slot.insert(missing.len());
                missing.push(scope);
            }
        }
        let fresh = compute(epoch, &missing, &mut cr)?;
        // Every answer is taken before the inserts, whose capacity flush
        // could otherwise drop a hit of this very group.
        let answers = scopes
            .iter()
            .map(|&scope| match place.get(scope) {
                Some(&k) => Arc::clone(&fresh[k]),
                None => Arc::clone(&self.map[scope]),
            })
            .collect();
        for (&scope, marginal) in missing.iter().zip(fresh) {
            self.insert(scope, marginal);
        }

        let per_query = cr.now().saturating_sub(t0) / scopes.len() as u64;
        for _ in scopes {
            cr.query_latency(per_query);
        }
        cr.add(Counter::QueriesServed, scopes.len() as u64);
        cr.add(Counter::CacheHits, hits);
        cr.add(Counter::CacheMisses, scopes.len() as u64 - hits);
        Ok(answers)
    }
}

/// The marginal over each of `missing`, from `epoch`'s packed snapshot.
fn compute<C: CoreRecorder>(
    epoch: &Epoch,
    missing: &[&[usize]],
    cr: &mut C,
) -> Result<Vec<Arc<MarginalTable>>, ServeError> {
    if missing.is_empty() {
        return Ok(Vec::new());
    }
    let packed = epoch.packed();
    let t0 = cr.now();
    let mut scanned = 0u64;
    let fresh = missing
        .iter()
        .map(|&scope| {
            packed.codec().validate_vars(scope)?;
            let marginal = packed.marginalize(scope)?;
            scanned += packed.num_entries() as u64;
            Ok(Arc::new(marginal))
        })
        .collect::<Result<Vec<_>, CoreError>>();
    cr.stage_ns(Stage::Marginal, cr.now().saturating_sub(t0));
    cr.add(Counter::EntriesScanned, scanned);
    Ok(fresh?)
}

impl Default for MarginalCache {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfbn_core::construct::sequential_build;
    use wfbn_core::marginalize;
    use wfbn_data::{Dataset, Schema};

    fn marginal_of(scope: &[usize]) -> Arc<MarginalTable> {
        let schema = Schema::uniform(3, 2).unwrap();
        let data = Dataset::from_rows(schema, &[&[0, 1, 0], &[1, 1, 1]]).unwrap();
        let table = sequential_build(&data).unwrap().table;
        Arc::new(marginalize(&table, scope, 1).unwrap())
    }

    #[test]
    fn hit_after_insert_miss_after_epoch_advance() {
        let mut cache = MarginalCache::new();
        cache.refresh(1);
        assert!(cache.get(&[0, 1]).is_none());
        cache.insert(&[0, 1], marginal_of(&[0, 1]));
        assert!(cache.get(&[0, 1]).is_some());
        assert_eq!(cache.len(), 1);

        cache.refresh(1); // same epoch: entries survive
        assert!(cache.get(&[0, 1]).is_some());

        cache.refresh(2); // epoch moved: flush
        assert!(cache.get(&[0, 1]).is_none());
        assert!(cache.is_empty());
        assert_eq!(cache.epoch(), 2);
    }

    #[test]
    fn capacity_bound_flushes_wholesale() {
        let mut cache = MarginalCache::with_capacity(2);
        cache.insert(&[0], marginal_of(&[0]));
        cache.insert(&[1], marginal_of(&[1]));
        assert_eq!(cache.len(), 2);
        cache.insert(&[2], marginal_of(&[2]));
        // The third insert flushed the first two.
        assert_eq!(cache.len(), 1);
        assert!(cache.get(&[2]).is_some());
        assert!(cache.get(&[0]).is_none());
    }

    #[test]
    fn misses_read_the_epoch_snapshot_through_a_capacity_flush() {
        let schema = Schema::uniform(3, 2).unwrap();
        let data = Dataset::from_rows(schema, &[&[0, 1, 0], &[1, 1, 1], &[1, 0, 1]]).unwrap();
        // The epoch keeps only its packed snapshot; the oracle is the table
        // the test built it from.
        let table = sequential_build(&data).unwrap().table;
        let epoch = Epoch::pack(&table, 1).unwrap();
        let rec = wfbn_obs::CoreMetrics::new(1);
        let mut cache = MarginalCache::with_capacity(2);
        cache.refresh(1);
        for scope in [&[0][..], &[1], &[2], &[0, 2]] {
            let answers = cache.answer(&epoch, &[scope], &rec, 0).unwrap();
            assert_eq!(*answers[0], marginalize(&table, scope, 1).unwrap());
        }
        assert_eq!(rec.snapshot().total(Counter::CacheMisses), 4);
        // The third scope flushed the map; later misses still read the epoch.
        assert_eq!(cache.len(), 2);
        cache.refresh(2);
        assert!(cache.is_empty(), "an epoch advance flushes the map");
        // Scopes are refused as the hash-table scan refused them.
        assert!(cache.answer(&epoch, &[&[2, 0]], &rec, 0).is_err());
        assert!(cache.answer(&epoch, &[&[3]], &rec, 0).is_err());
        assert!(cache.is_empty());
    }

    #[test]
    fn a_fused_group_computes_each_distinct_scope_once() {
        let schema = Schema::uniform(3, 2).unwrap();
        let data = Dataset::from_rows(schema, &[&[0, 1, 0], &[1, 1, 1]]).unwrap();
        let table = sequential_build(&data).unwrap().table;
        let epoch = Epoch::pack(&table, 1).unwrap();
        let entries = epoch.packed().num_entries() as u64;
        let rec = wfbn_obs::CoreMetrics::new(1);
        let scanned = || rec.snapshot().total(Counter::EntriesScanned);
        let mut cache = MarginalCache::new();
        cache.refresh(1);
        cache.answer(&epoch, &[&[1]], &rec, 0).unwrap();
        let before = scanned();
        let group: [&[usize]; 6] = [&[0, 1], &[1], &[0, 1], &[2], &[0, 1], &[1]];
        let answers = cache.answer(&epoch, &group, &rec, 0).unwrap();
        let computed = (scanned() - before) / entries;
        assert_eq!(computed, 2, "{{0,1}} and {{2}} miss; {{1}} is a hit");
        for (scope, answer) in group.iter().zip(&answers) {
            assert_eq!(answer.vars(), *scope);
        }
        assert!(Arc::ptr_eq(&answers[0], &answers[2]) && Arc::ptr_eq(&answers[0], &answers[4]));
        assert!(Arc::ptr_eq(&answers[1], &answers[5]));
    }
}
