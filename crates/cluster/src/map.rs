//! [`ShardMap`]: consistent-hash key-space ownership across shards.
//!
//! Routing lifts the paper's stage-1 ownership discipline one level: inside a
//! shard, core `p` owns the keys with `key % P == p` (the partitioner's rule);
//! *across* shards, ownership comes from a consistent-hash ring over the
//! mixed [`mix64`] image of the encoded row key. The ring — `V` virtual
//! points per shard, sorted, successor lookup by binary search — has the two
//! properties the cluster tier needs:
//!
//! * **Skew resistance**: `mix64` is a full-avalanche bijection, so key
//!   families that are adversarial for the *intra-shard* `key % P` rule
//!   (e.g. the workload generator's `adversarial-partition` scenario, which
//!   pins the low bits of every key) still spread across shards — the ring
//!   position depends on every bit of the key.
//! * **Stability**: changing the shard count `S` moves only `~1/S` of the
//!   key space (the defining property of consistent hashing), so a resharded
//!   cluster re-ingests a bounded fraction of history rather than all of it.
//!
//! Determinism matters more than either: the same key always lands on the
//! same shard, which is what makes a cluster epoch's merged marginals
//! byte-identical to a single-node build of the same ingest prefix — every
//! observation is counted on exactly one shard.

use wfbn_concurrent::hash::mix64;

/// Virtual points each shard contributes to the ring. 64 keeps the
/// max/min shard load ratio low (≲1.3 at S=8) while the whole ring for
/// S=64 shards still fits in a few cache lines' worth of `u64`s.
pub const VNODES_PER_SHARD: usize = 64;

/// A consistent-hash ring mapping encoded row keys to shard ids; see the
/// [module docs](self).
#[derive(Debug, Clone)]
pub struct ShardMap {
    /// `(ring position, shard id)` sorted by position; successor lookup.
    ring: Vec<(u64, u32)>,
    shards: usize,
}

impl ShardMap {
    /// Builds the ring for `shards` shards.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or exceeds `u32::MAX` points.
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0, "a cluster needs at least one shard");
        assert!(shards <= u32::MAX as usize, "shard id must fit in u32");
        let mut ring: Vec<(u64, u32)> = (0..shards)
            .flat_map(|s| {
                (0..VNODES_PER_SHARD).map(move |v| {
                    // A fixed, seed-free point derivation keeps the map a pure
                    // function of (shards): same cluster shape, same routing.
                    let point = mix64(((s as u64) << 32) | v as u64);
                    (point, s as u32)
                })
            })
            .collect();
        ring.sort_unstable();
        ShardMap { ring, shards }
    }

    /// Number of shards the ring covers.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning `key` (an encoded row key): the ring successor of
    /// `mix64(key)`, wrapping past the last point.
    pub(crate) fn shard_of(&self, key: u64) -> usize {
        let h = mix64(key);
        let i = self.ring.partition_point(|&(p, _)| p < h);
        let (_, shard) = self.ring[if i == self.ring.len() { 0 } else { i }];
        shard as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_shard_owns_everything() {
        let map = ShardMap::new(1);
        for key in [0u64, 1, 42, u64::MAX] {
            assert_eq!(map.shard_of(key), 0);
        }
    }

    #[test]
    fn routing_is_deterministic_and_total() {
        let map = ShardMap::new(4);
        for key in 0..10_000u64 {
            let s = map.shard_of(key);
            assert!(s < 4);
            assert_eq!(s, map.shard_of(key), "same key, same shard");
        }
    }

    #[test]
    fn low_bit_pinned_keys_still_spread() {
        // The adversarial-partition workload pins the low bits of every
        // encoded key — the exact family that collapses `key % P`. The ring
        // hashes first, so ownership still spreads.
        let map = ShardMap::new(4);
        let mut loads = [0usize; 4];
        for i in 0..4_000u64 {
            loads[map.shard_of(i << 3)] += 1; // low 3 bits always zero
        }
        for (s, &load) in loads.iter().enumerate() {
            assert!(load > 0, "shard {s} starved by a pinned-low-bits family");
        }
        let (min, max) = (
            *loads.iter().min().unwrap() as f64,
            *loads.iter().max().unwrap() as f64,
        );
        assert!(max / min < 3.0, "skew {max}/{min} too high: {loads:?}");
    }

    #[test]
    fn resharding_moves_a_bounded_fraction() {
        let before = ShardMap::new(4);
        let after = ShardMap::new(5);
        let n = 20_000u64;
        let moved = (0..n)
            .filter(|&k| {
                let s = before.shard_of(k);
                let t = after.shard_of(k);
                // Keys that stay put keep their shard id; moved keys should
                // overwhelmingly land on the new shard.
                s != t
            })
            .count();
        // Ideal is n/5 = 20%; allow generous slack for vnode granularity.
        assert!(
            (moved as f64) / (n as f64) < 0.40,
            "consistent hashing moved {moved}/{n} keys on 4 -> 5 shards"
        );
    }
}
