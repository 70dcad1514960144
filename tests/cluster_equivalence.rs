//! Cluster-epoch equivalence: a merged cross-shard answer at cluster epoch
//! `e` must be *byte-identical* to an offline single-node build over the
//! same ingest prefix (the first `e` cluster batches) — for every epoch,
//! every shard count, every intra-shard partition count, and with a racing
//! reader pinning epochs mid-publication.
//!
//! This is the cluster tier's version of the paper's determinism claim:
//! shard ownership (the consistent-hash ring) and intra-shard partitioning
//! (`key % P`) decide only *who counts which row*, never the counts
//! themselves. The merged partial marginals are elementwise count sums over
//! `S` disjoint observation sets, so they must reproduce the offline
//! [`waitfree_build`] + [`marginalize`] of the identical prefix exactly —
//! integer counts with no tolerance, MI within 1e-12 (the one float in the
//! pipeline, computed by the same `mutual_information` on both sides).
//!
//! The racing reader is the part a sequential test would miss: it pins
//! whatever cluster epoch is current *while* the router is mid-stream, and
//! every answer it gets must match the offline build of the prefix for the
//! epoch it actually pinned — there is no moment at which a client can
//! observe a cut that mixes two prefixes.

use std::sync::atomic::{AtomicBool, Ordering};
use wfbn_cluster::{Cluster, ClusterConfig};
use wfbn_core::entropy::mutual_information;
use wfbn_core::{marginalize, waitfree_build, MarginalTable};
use wfbn_data::{Dataset, Schema};
use wfbn_serve::{EngineConfig, QueryEndpoint};

const VARS: usize = 5;
const ARITY: u16 = 3;
const BATCHES: usize = 8;
const ROWS_PER_BATCH: usize = 24;
/// The scopes every epoch is checked on (strictly increasing, mixed arity).
const SCOPES: [&[usize]; 3] = [&[0], &[1, 3], &[0, 2, 4]];
const MI_PAIR: (usize, usize) = (0, 4);

/// Deterministic row stream (splitmix-style LCG) shared by the cluster
/// ingest and the offline reference builds.
fn rows(seed: u64) -> Vec<Vec<u16>> {
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 33) as u16
    };
    (0..BATCHES * ROWS_PER_BATCH)
        .map(|_| (0..VARS).map(|_| next() % ARITY).collect())
        .collect()
}

fn counts(m: &MarginalTable) -> Vec<u64> {
    (0..m.num_cells()).map(|i| m.count_at(i)).collect()
}

/// Offline single-node reference for the prefix ending at cluster epoch
/// `e`: a from-scratch wait-free build over the first `e` batches, then
/// plain [`marginalize`] — no engine, no epochs, no sharding.
struct Reference {
    marginals: Vec<Vec<u64>>,
    mi: f64,
}

fn offline_prefixes(schema: &Schema, all_rows: &[Vec<u16>]) -> Vec<Reference> {
    (1..=BATCHES)
        .map(|e| {
            let prefix: Vec<&[u16]> = all_rows[..e * ROWS_PER_BATCH]
                .iter()
                .map(Vec::as_slice)
                .collect();
            let data = Dataset::from_rows(schema.clone(), &prefix).unwrap();
            let built = waitfree_build(&data, 1).unwrap();
            let marginals = SCOPES
                .iter()
                .map(|scope| counts(&marginalize(&built.table, scope, 1).unwrap()))
                .collect();
            let pair = marginalize(&built.table, &[MI_PAIR.0, MI_PAIR.1], 1).unwrap();
            Reference {
                marginals,
                mi: mutual_information(&pair),
            }
        })
        .collect()
}

/// One full S × P cell: every cluster epoch checked synchronously from one
/// client while a second client races the router, re-checking whatever
/// epoch it happens to pin.
fn check_cell(shards: usize, partitions: usize) {
    let schema = Schema::uniform(VARS, ARITY).unwrap();
    let all_rows = rows(0x9e37 + (shards * 16 + partitions) as u64);
    let refs = offline_prefixes(&schema, &all_rows);

    let cfg = ClusterConfig {
        shards,
        clients: 2,
        engine: EngineConfig {
            builder_threads: partitions,
            ..EngineConfig::default()
        },
        ..ClusterConfig::default()
    };
    let (mut cluster, mut clients) = Cluster::start(&schema, &cfg).unwrap();
    let mut racer = clients.pop().unwrap();
    let mut checker = clients.pop().unwrap();

    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        // The racing reader: pin whatever is current, answer, and demand
        // the answer match the offline build of the epoch it pinned.
        let racing = scope.spawn(|| {
            let mut checked = 0usize;
            while !done.load(Ordering::Acquire) {
                for (s, scope_vars) in SCOPES.iter().enumerate() {
                    let Ok((epoch, mut answers)) = racer.answer_batch(&[scope_vars]) else {
                        continue; // nothing published yet
                    };
                    assert!(
                        (1..=BATCHES as u64).contains(&epoch),
                        "pinned impossible cluster epoch {epoch}"
                    );
                    let got = counts(&answers.pop().unwrap());
                    assert_eq!(
                        got,
                        refs[epoch as usize - 1].marginals[s],
                        "racing reader: scope {scope_vars:?} at epoch {epoch} \
                         (S={shards}, P={partitions})"
                    );
                    checked += 1;
                }
                std::thread::yield_now();
            }
            checked
        });

        for e in 1..=BATCHES {
            let batch = &all_rows[(e - 1) * ROWS_PER_BATCH..e * ROWS_PER_BATCH];
            cluster.submit_rows(batch).unwrap();
            let published = cluster.sync().unwrap();
            assert_eq!(published, e as u64, "one cluster epoch per batch");

            for (s, scope_vars) in SCOPES.iter().enumerate() {
                let (epoch, merged) = checker.marginal(scope_vars).unwrap();
                assert_eq!(epoch, e as u64);
                assert_eq!(
                    counts(&merged),
                    refs[e - 1].marginals[s],
                    "scope {scope_vars:?} at epoch {e} (S={shards}, P={partitions})"
                );
            }
            let (_, mi) = checker.mi(MI_PAIR.0, MI_PAIR.1).unwrap();
            assert!(
                (mi - refs[e - 1].mi).abs() < 1e-12,
                "MI at epoch {e}: cluster {mi} vs offline {} (S={shards}, P={partitions})",
                refs[e - 1].mi
            );
        }
        done.store(true, Ordering::Release);
        let checked = racing.join().unwrap();
        // The racer must have participated; everything it checked was
        // asserted inside the thread.
        assert!(checked > 0, "racing reader never pinned an epoch");
    });
    cluster.finish().unwrap();
}

#[test]
fn every_cluster_epoch_matches_the_offline_prefix_build() {
    for shards in [1usize, 2, 4] {
        for partitions in [1usize, 2, 4] {
            check_cell(shards, partitions);
        }
    }
}
