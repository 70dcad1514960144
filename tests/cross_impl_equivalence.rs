//! Cross-implementation equivalence: every table builder in the workspace —
//! sequential, wait-free, striped-lock, global-mutex, dense atomic — must
//! produce the identical `(key, count)` multiset on identical input, across
//! workloads and thread counts.

use wfbn_baselines::{all_builders, AtomicArrayBuilder, TableBuilder};
use wfbn_core::allpairs::all_pairs_mi_recorded;
use wfbn_core::construct::{sequential_build, sequential_build_recorded, waitfree_build_recorded};
use wfbn_core::entropy::mutual_information;
use wfbn_core::marginal::marginalize;
use wfbn_core::CoreMetrics;
use wfbn_data::{CorrelatedChain, Dataset, Generator, Schema, UniformIndependent, ZipfIndependent};

fn workloads() -> Vec<(&'static str, Dataset)> {
    // Keep key spaces ≤ 2^22 so the dense atomic-array builder participates.
    let binary = Schema::uniform(18, 2).unwrap();
    let mixed = Schema::new(vec![2, 3, 4, 2, 3, 4, 2, 3]).unwrap();
    vec![
        (
            "uniform-binary",
            UniformIndependent::new(binary.clone()).generate(8_000, 1),
        ),
        (
            "zipf-skewed",
            ZipfIndependent::new(binary, 2.0)
                .unwrap()
                .generate(8_000, 2),
        ),
        (
            "correlated-mixed-arity",
            CorrelatedChain::new(mixed, 0.85)
                .unwrap()
                .generate(8_000, 3),
        ),
    ]
}

#[test]
fn all_builders_agree_on_all_workloads_and_thread_counts() {
    for (name, data) in workloads() {
        let reference = sequential_build(&data).unwrap().table.to_sorted_vec();
        for builder in all_builders() {
            for threads in [1usize, 2, 3, 4, 7] {
                let out = builder
                    .build(&data, threads)
                    .unwrap_or_else(|e| panic!("{} failed on {name}: {e}", builder.name()));
                assert_eq!(
                    out.to_sorted_vec(),
                    reference,
                    "{} disagrees on {name} with {threads} threads",
                    builder.name()
                );
                assert_eq!(out.total_count() as usize, data.num_samples());
            }
        }
    }
}

#[test]
fn builders_agree_on_single_row_and_single_key_inputs() {
    let schema = Schema::uniform(10, 2).unwrap();
    let one_row = Dataset::from_rows(schema.clone(), &[&[1, 0, 1, 0, 1, 0, 1, 0, 1, 0]]).unwrap();
    let same_rows: Vec<&[u16]> = (0..500)
        .map(|_| &[1u16, 1, 1, 1, 1, 1, 1, 1, 1, 1] as &[u16])
        .collect();
    let one_key = Dataset::from_rows(schema, &same_rows).unwrap();
    for data in [&one_row, &one_key] {
        let reference = sequential_build(data).unwrap().table.to_sorted_vec();
        for builder in all_builders() {
            let out = builder.build(data, 4).expect("small key space");
            assert_eq!(out.to_sorted_vec(), reference, "{}", builder.name());
        }
    }
}

#[test]
fn dense_atomic_counts_match_hash_counts_exactly_under_contention() {
    // Zipf(2.5) concentrates nearly all rows on a handful of keys: maximal
    // fetch_add contention vs maximal hash-bucket contention.
    let schema = Schema::uniform(12, 2).unwrap();
    let data = ZipfIndependent::new(schema, 2.5)
        .unwrap()
        .generate(50_000, 4);
    let reference = sequential_build(&data).unwrap().table.to_sorted_vec();
    let dense = AtomicArrayBuilder::default().build(&data, 8).unwrap();
    assert_eq!(dense.to_sorted_vec(), reference);
}

#[test]
fn instrumented_builders_agree_with_the_uninstrumented_reference() {
    // Recording metrics must never change what gets built: the wait-free,
    // striped, and sequential construction paths produce the identical
    // (key, count) multiset whether they run bare or under `CoreMetrics`.
    for (name, data) in workloads() {
        let reference = sequential_build(&data).unwrap().table.to_sorted_vec();
        let seq_rec = CoreMetrics::new(1);
        let seq = sequential_build_recorded(&data, &seq_rec).unwrap();
        assert_eq!(seq.table.to_sorted_vec(), reference, "sequential on {name}");
        for threads in [1usize, 2, 4, 7] {
            let rec = CoreMetrics::new(threads);
            let wf = waitfree_build_recorded(&data, threads, &rec).unwrap();
            assert_eq!(
                wf.table.to_sorted_vec(),
                reference,
                "instrumented wait-free disagrees on {name} with {threads} threads"
            );
            // The striped baseline has no recorder hooks; pin it against the
            // instrumented build so all three implementations stay in lock
            // step under the same workloads.
            let striped = wfbn_baselines::striped::StripedLockBuilder::default()
                .build(&data, threads)
                .unwrap();
            assert_eq!(
                striped.to_sorted_vec(),
                wf.table.to_sorted_vec(),
                "striped vs instrumented wait-free on {name}"
            );
        }
    }
}

#[test]
fn instrumented_all_pairs_mi_equals_the_per_pair_oracle_exactly() {
    let schema = Schema::new(vec![2, 3, 2, 4, 2, 3]).unwrap();
    let data = CorrelatedChain::new(schema, 0.6).unwrap().generate(8_000, 21);
    let table = wfbn_core::construct::waitfree_build(&data, 3).unwrap().table;
    for threads in [1usize, 2, 4] {
        let rec = CoreMetrics::new(threads);
        let mi = all_pairs_mi_recorded(&table, threads, &rec);
        for (i, j, v) in mi.iter_pairs() {
            let pair = marginalize(&table, &[i, j], 1).unwrap();
            assert_eq!(
                v,
                mutual_information(&pair),
                "pair ({i},{j}) drifted from the per-pair oracle under CoreMetrics at {threads} threads"
            );
        }
    }
}

#[test]
fn repeated_parallel_builds_are_stable() {
    // Schedule nondeterminism must never leak into results.
    let schema = Schema::new(vec![3, 2, 4, 2]).unwrap();
    let data = CorrelatedChain::new(schema, 0.5)
        .unwrap()
        .generate(5_000, 8);
    let reference = sequential_build(&data).unwrap().table.to_sorted_vec();
    for _ in 0..5 {
        for builder in all_builders() {
            assert_eq!(
                builder.build(&data, 4).unwrap().to_sorted_vec(),
                reference,
                "{}",
                builder.name()
            );
        }
    }
}
