//! Read/write equivalence: a query served mid-absorb at epoch `e` must be
//! **byte-identical** to an offline build of the first `e` batches.
//!
//! This is the serving layer's central correctness claim. The writer
//! publishes after every absorbed batch, so the epoch number doubles as a
//! prefix length; counts are exact integers, so "equivalent" means equal —
//! no tolerance on tables, and 1e-12 on derived mutual information only to
//! allow for the final floating-point reduction. Every table compared here
//! is the served one: the keys and counts unpacked from the epoch's packed
//! snapshot, the only copy of the table an epoch holds.

use std::sync::Arc;
use wfbn_core::construct::sequential_build;
use wfbn_core::entropy::mutual_information;
use wfbn_core::marginalize;
use wfbn_data::{CorrelatedChain, Dataset, Generator, Schema};
use wfbn_serve::{Engine, EngineConfig, Epoch};

const VARS: usize = 6;
const BATCHES: usize = 12;
const ROWS_PER_BATCH: usize = 150;

fn workload() -> (Schema, Vec<Dataset>) {
    let schema = Schema::uniform(VARS, 2).expect("schema");
    let chain = CorrelatedChain::new(schema.clone(), 0.8).expect("rho");
    let data = chain.generate(BATCHES * ROWS_PER_BATCH, 99);
    let batches = (0..BATCHES)
        .map(|b| {
            let flat = data
                .row_range(b * ROWS_PER_BATCH, (b + 1) * ROWS_PER_BATCH)
                .to_vec();
            Dataset::from_flat_unchecked(schema.clone(), flat)
        })
        .collect();
    (schema, batches)
}

/// Offline reference: a fresh single-threaded build of the first `e` batches.
fn offline_prefix(schema: &Schema, batches: &[Dataset], e: usize) -> wfbn_core::PotentialTable {
    let flat: Vec<u16> = batches[..e]
        .iter()
        .flat_map(|b| b.flat().iter().copied())
        .collect();
    let prefix = Dataset::from_flat_unchecked(schema.clone(), flat);
    sequential_build(&prefix).expect("offline build").table
}

#[test]
fn every_epoch_equals_the_offline_prefix_build_for_each_p() {
    let (schema, batches) = workload();
    for p in [1usize, 2, 4, 8] {
        let cfg = EngineConfig {
            builder_threads: p,
            ..EngineConfig::default()
        };
        let (mut engine, mut readers) = Engine::start(&schema, &cfg).expect("engine");
        let reader = &mut readers[0];
        for (k, batch) in batches.iter().enumerate() {
            engine.submit(batch.clone()).expect("submit");
            engine.sync().expect("sync");
            let (epoch, snap) = reader.pin().expect("published");
            assert_eq!(epoch, k as u64 + 1, "P={p}");

            let offline = offline_prefix(&schema, &batches, k + 1);
            assert_eq!(
                snap.packed().to_sorted_vec(),
                offline.to_sorted_vec(),
                "P={p}: epoch {epoch} table differs from the offline prefix"
            );

            // Derived statistics agree to 1e-12 (identical counts, identical
            // reduction — in practice bit-for-bit).
            let (_, served_mi) = reader.mi(0, 1).expect("mi");
            let offline_mi =
                mutual_information(&marginalize(&offline, &[0, 1], 1).expect("marginal"));
            assert!(
                (served_mi - offline_mi).abs() < 1e-12,
                "P={p}: served MI {served_mi} vs offline {offline_mi}"
            );
        }
        let final_table = engine.finish().expect("finish");
        let offline = offline_prefix(&schema, &batches, BATCHES);
        assert_eq!(final_table.to_sorted_vec(), offline.to_sorted_vec());
    }
}

#[test]
fn concurrent_reader_mid_absorb_observes_only_exact_prefixes() {
    let (schema, batches) = workload();
    for p in [1usize, 2, 4] {
        let cfg = EngineConfig {
            builder_threads: p,
            readers: 2,
            ..EngineConfig::default()
        };
        let (mut engine, mut readers) = Engine::start(&schema, &cfg).expect("engine");
        let mut prober = readers.pop().expect("reader");

        // The prober races the writer: every pin it lands mid-absorb must
        // still be an exact prefix table.
        let prober_thread = std::thread::spawn(move || {
            let mut tables: Vec<(u64, Vec<(u64, u64)>)> = Vec::new();
            let mut mis: Vec<(u64, f64)> = Vec::new();
            loop {
                let closed = prober.is_closed();
                if let Some((epoch, snap)) = prober.pin() {
                    if tables.last().map(|(e, _)| *e) != Some(epoch) {
                        tables.push((epoch, snap.packed().to_sorted_vec()));
                        // The query API re-pins, so it may answer at an even
                        // newer epoch than the snapshot above — it reports
                        // which, and both must match their own prefix.
                        let (mi_epoch, mi) = prober.mi(0, 1).expect("mi");
                        mis.push((mi_epoch, mi));
                    }
                }
                if closed {
                    return (tables, mis);
                }
                std::thread::yield_now();
            }
        });

        for batch in &batches {
            engine.submit(batch.clone()).expect("submit");
        }
        engine.sync().expect("sync");
        engine.finish().expect("finish");

        let (tables, mis) = prober_thread.join().expect("prober");
        assert!(
            !tables.is_empty(),
            "P={p}: the prober never observed an epoch"
        );
        // The final epoch is always seen (the lane retains the newest).
        assert_eq!(tables.last().expect("non-empty").0, BATCHES as u64);
        let mut last = 0;
        for (epoch, sorted) in tables {
            assert!(epoch > last, "P={p}: epochs must be strictly monotone");
            last = epoch;
            let offline = offline_prefix(&schema, &batches, epoch as usize);
            assert_eq!(
                sorted,
                offline.to_sorted_vec(),
                "P={p}: epoch {epoch} observed mid-absorb differs from its prefix"
            );
        }
        for (epoch, mi) in mis {
            let offline = offline_prefix(&schema, &batches, epoch as usize);
            let offline_mi =
                mutual_information(&marginalize(&offline, &[0, 1], 1).expect("marginal"));
            assert!((mi - offline_mi).abs() < 1e-12, "P={p}: epoch {epoch} MI");
        }
    }
}

#[test]
fn snapshots_are_immutable_while_the_writer_moves_on() {
    // An Arc'd snapshot pinned at epoch 1 must not change as later batches
    // are absorbed in place (the epoch owns its packed copy; the writer's
    // partitions are no longer shared once it is packed).
    let (schema, batches) = workload();
    let (mut engine, mut readers) = Engine::start(&schema, &EngineConfig::default()).unwrap();
    engine.submit(batches[0].clone()).unwrap();
    engine.sync().unwrap();
    let (epoch, early) = readers[0].pin().expect("epoch 1");
    assert_eq!(epoch, 1);
    let early: Arc<Epoch> = early;
    let frozen = early.packed().to_sorted_vec();

    for batch in &batches[1..] {
        engine.submit(batch.clone()).unwrap();
    }
    engine.sync().unwrap();
    assert_eq!(
        early.packed().to_sorted_vec(),
        frozen,
        "epoch-1 snapshot mutated while the writer absorbed later batches"
    );
    let offline = offline_prefix(&schema, &batches, 1);
    assert_eq!(early.packed().to_sorted_vec(), offline.to_sorted_vec());
    engine.finish().unwrap();
}

/// Satellite 2 — adversarial-partition soak: `SOAK_BATCHES` single-row
/// batches (default 10^5) whose keys all land on one core's `key % P`
/// slice, absorbed under a racing reader. Every epoch the reader pins must
/// be byte-identical to the offline build of that prefix.
///
/// Scaling tricks that keep this a test and not a benchmark:
///
/// * The row universe is the 8 adversarial rows (vars 0..3 zeroed, so all
///   keys ≡ 0 mod 8 and partition 0 owns the entire stream for every `P`
///   dividing 8). Each row's table key is learned once from a single-row
///   offline build — no reimplementation of the key codec.
/// * Verification is incremental: one absorption pointer advances over the
///   deterministic row sequence, so checking all observed epochs costs
///   O(total rows + observed epochs × 8) instead of O(observed × prefix).
#[test]
fn adversarial_partition_soak_pins_only_exact_prefixes() {
    let total: usize = std::env::var("SOAK_BATCHES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(100_000);
    let schema = Schema::uniform(6, 2).expect("schema");

    // The 8 adversarial rows: low three variables pinned to 0, the rest
    // enumerate. Learn each row's key from a single-row offline build.
    let universe: Vec<Vec<u16>> = (0..8u16)
        .map(|i| vec![0, 0, 0, i & 1, (i >> 1) & 1, (i >> 2) & 1])
        .collect();
    let key_of: Vec<u64> = universe
        .iter()
        .map(|row| {
            let single = Dataset::from_flat_unchecked(schema.clone(), row.clone());
            let sorted = sequential_build(&single).expect("build").table.to_sorted_vec();
            assert_eq!(sorted.len(), 1);
            assert_eq!(sorted[0].1, 1);
            sorted[0].0
        })
        .collect();
    for &k in &key_of {
        // The adversarial property itself: every key on partition 0.
        assert_eq!(k % 8, 0, "adversarial keys must be ≡ 0 (mod 8)");
    }

    // Deterministic row sequence (xorshift64*; no external RNG needed).
    let row_index = |i: usize| {
        let mut x = i as u64 ^ 0x9e37_79b9_7f4a_7c15;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 61) as usize % 8
    };

    let cfg = EngineConfig {
        builder_threads: 2, // all rows forward to partition 0's owner
        readers: 2,
        queue_capacity: 256,
    };
    let (mut engine, mut readers) = Engine::start(&schema, &cfg).expect("engine");
    let mut prober = readers.pop().expect("reader");

    let prober_thread = std::thread::spawn(move || {
        let mut seen: Vec<(u64, Vec<(u64, u64)>)> = Vec::new();
        loop {
            let closed = prober.is_closed();
            if let Some((epoch, snap)) = prober.pin() {
                if seen.last().map(|(e, _)| *e) != Some(epoch) {
                    seen.push((epoch, snap.packed().to_sorted_vec()));
                }
            }
            if closed {
                return seen;
            }
            std::thread::yield_now();
        }
    });

    for i in 0..total {
        let batch =
            Dataset::from_flat_unchecked(schema.clone(), universe[row_index(i)].clone());
        engine.submit(batch).expect("submit");
    }
    engine.sync().expect("sync");
    let final_table = engine.finish().expect("finish");
    let seen = prober_thread.join().expect("prober");
    assert!(!seen.is_empty(), "the prober never observed an epoch");
    assert_eq!(seen.last().expect("non-empty").0, total as u64);

    // Incremental prefix verification: one pass over the row sequence.
    let mut counts = [0u64; 8];
    let mut absorbed = 0usize;
    let mut last_epoch = 0u64;
    for (epoch, observed) in &seen {
        assert!(*epoch > last_epoch, "epochs must be strictly monotone");
        last_epoch = *epoch;
        while absorbed < *epoch as usize {
            counts[row_index(absorbed)] += 1;
            absorbed += 1;
        }
        let mut expect: Vec<(u64, u64)> = key_of
            .iter()
            .zip(&counts)
            .filter(|(_, &c)| c > 0)
            .map(|(&k, &c)| (k, c))
            .collect();
        expect.sort_unstable();
        assert_eq!(
            observed, &expect,
            "epoch {epoch} differs from its offline prefix (soak of {total} batches)"
        );
    }

    // And the final table equals the full offline prefix.
    while absorbed < total {
        counts[row_index(absorbed)] += 1;
        absorbed += 1;
    }
    let mut expect: Vec<(u64, u64)> = key_of
        .iter()
        .zip(&counts)
        .filter(|(_, &c)| c > 0)
        .map(|(&k, &c)| (k, c))
        .collect();
    expect.sort_unstable();
    assert_eq!(final_table.to_sorted_vec(), expect);
    assert_eq!(counts.iter().sum::<u64>(), total as u64);
}

// ---------------------------------------------------------------------------
// Packed epoch snapshots: a cache miss reads the pinned epoch's packed
// snapshot, which must always be the snapshot of *that* epoch.
// ---------------------------------------------------------------------------

/// Offline marginal over `scope` of the first `e` batches.
fn offline_marginal(
    schema: &Schema,
    batches: &[Dataset],
    e: usize,
    scope: &[usize],
) -> wfbn_core::MarginalTable {
    marginalize(&offline_prefix(schema, batches, e), scope, 1).expect("offline marginal")
}

#[test]
fn a_scope_asked_again_after_an_epoch_advance_reads_the_new_epoch() {
    let (schema, batches) = workload();
    let (mut engine, mut readers) = Engine::start(&schema, &EngineConfig::default()).unwrap();
    let reader = &mut readers[0];
    let scope = [1usize, 3, 4];
    for (k, batch) in batches.iter().take(3).enumerate() {
        engine.submit(batch.clone()).unwrap();
        engine.sync().unwrap();
        // Twice per epoch: the first packs the epoch's snapshot, the second
        // is a cache hit; both must be this epoch's counts.
        for _ in 0..2 {
            let (epoch, served) = reader.marginal(&scope).unwrap();
            assert_eq!(epoch, k as u64 + 1);
            assert_eq!(*served, offline_marginal(&schema, &batches, k + 1, &scope));
        }
        // A different scope after the hit is a miss on the same snapshot.
        let (_, pair) = reader.marginal(&[0, 5]).unwrap();
        assert_eq!(*pair, offline_marginal(&schema, &batches, k + 1, &[0, 5]));
    }
    engine.finish().unwrap();
}

#[test]
fn a_fused_group_answers_every_scope_as_the_offline_marginal() {
    let (schema, batches) = workload();
    let (mut engine, mut readers) = Engine::start(&schema, &EngineConfig::default()).unwrap();
    let reader = &mut readers[0];
    // Duplicates, overlaps, and one to four variables.
    let scopes: [&[usize]; 8] = [
        &[0],
        &[0, 1],
        &[0],
        &[1, 2, 3],
        &[0, 1],
        &[2, 3, 4, 5],
        &[5],
        &[0, 2, 4],
    ];
    for (k, batch) in batches.iter().take(2).enumerate() {
        engine.submit(batch.clone()).unwrap();
        engine.sync().unwrap();
        // Warm one scope so the group mixes hits and misses.
        reader.marginal(&[0, 1]).unwrap();
        let (epoch, answers) = reader.answer_batch(&scopes).unwrap();
        assert_eq!(epoch, k as u64 + 1);
        assert_eq!(answers.len(), scopes.len());
        for (scope, served) in scopes.iter().zip(&answers) {
            assert_eq!(
                **served,
                offline_marginal(&schema, &batches, k + 1, scope),
                "epoch {epoch}, scope {scope:?}"
            );
        }
    }
    // The same group as one protocol line gives the same counts.
    let mut session = wfbn_serve::ReaderSession::new(readers.pop().unwrap(), schema.clone());
    let mut out = Vec::new();
    session.handle_query_line(
        "MARGINAL 0; MARGINAL 1 0; MARGINAL 0; MARGINAL 3 2 1",
        &mut out,
    );
    let counts = |scope: &[usize]| {
        let m = offline_marginal(&schema, &batches, 2, scope);
        let cells: Vec<String> = (0..m.num_cells())
            .map(|i| m.count_at(i).to_string())
            .collect();
        cells.join(",")
    };
    assert_eq!(
        out[0],
        format!("OK MARGINAL e=2 scope=0 total=300 counts={}", counts(&[0]))
    );
    assert_eq!(
        out[1],
        format!(
            "OK MARGINAL e=2 scope=0,1 total=300 counts={}",
            counts(&[0, 1])
        )
    );
    assert_eq!(out[2], out[0]);
    assert_eq!(
        out[3],
        format!(
            "OK MARGINAL e=2 scope=1,2,3 total=300 counts={}",
            counts(&[1, 2, 3])
        )
    );
    engine.finish().unwrap();
}

#[test]
fn a_capacity_flush_mid_epoch_keeps_answering_from_the_epoch() {
    // Ten variables give 375 scopes of two to four variables, more than the
    // reader's 256-scope cache holds, so one epoch flushes it.
    let schema = Schema::uniform(10, 2).unwrap();
    let chain = CorrelatedChain::new(schema.clone(), 0.7).unwrap();
    let data = chain.generate(1_200, 5);
    let batches: Vec<Dataset> = (0..2)
        .map(|b| {
            Dataset::from_flat_unchecked(
                schema.clone(),
                data.row_range(b * 600, (b + 1) * 600).to_vec(),
            )
        })
        .collect();
    let mut scopes: Vec<Vec<usize>> = Vec::new();
    for a in 0..10 {
        for b in a + 1..10 {
            scopes.push(vec![a, b]);
            for c in b + 1..10 {
                scopes.push(vec![a, b, c]);
                scopes.extend((c + 1..10).map(|d| vec![a, b, c, d]));
            }
        }
    }
    assert_eq!(scopes.len(), 375);

    let (mut engine, mut readers) = Engine::start(&schema, &EngineConfig::default()).unwrap();
    let reader = &mut readers[0];
    for (k, batch) in batches.iter().enumerate() {
        engine.submit(batch.clone()).unwrap();
        engine.sync().unwrap();
        let offline = offline_prefix(&schema, &batches, k + 1);
        let mut flushed = false;
        for scope in scopes.iter().chain(&scopes[..20]) {
            let before = reader.cache_len();
            let (epoch, served) = reader.marginal(scope).unwrap();
            flushed |= reader.cache_len() < before;
            assert_eq!(epoch, k as u64 + 1);
            assert_eq!(
                *served,
                marginalize(&offline, scope, 1).unwrap(),
                "scope {scope:?}"
            );
        }
        assert!(flushed, "epoch {}: the cache never reached capacity", k + 1);
    }
    engine.finish().unwrap();
}
