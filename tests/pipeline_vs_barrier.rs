//! The pipelined (barrier-free) builder must be observationally identical
//! to the paper's two-stage builder under every workload and thread count —
//! the only difference is the schedule.

use wfbn_core::construct::waitfree_build;
use wfbn_core::pipeline::pipelined_build;
use wfbn_data::{CorrelatedChain, Dataset, Generator, Schema, UniformIndependent, ZipfIndependent};

fn workloads() -> Vec<Dataset> {
    let schema = Schema::new(vec![2, 4, 3, 2, 2]).unwrap();
    vec![
        UniformIndependent::new(schema.clone()).generate(6_000, 5),
        ZipfIndependent::new(schema.clone(), 1.8)
            .unwrap()
            .generate(6_000, 6),
        CorrelatedChain::new(schema, 0.9)
            .unwrap()
            .generate(6_000, 7),
    ]
}

#[test]
fn identical_tables_at_every_thread_count() {
    for data in workloads() {
        for p in [1usize, 2, 3, 5, 8] {
            let a = waitfree_build(&data, p).unwrap();
            let b = pipelined_build(&data, p).unwrap();
            assert_eq!(a.table.to_sorted_vec(), b.table.to_sorted_vec(), "p={p}");
            assert_eq!(
                a.table.partition_sizes(),
                b.table.partition_sizes(),
                "p={p}"
            );
        }
    }
}

#[test]
fn identical_stats_conservation_laws() {
    for data in workloads() {
        for p in [2usize, 4] {
            let a = waitfree_build(&data, p).unwrap().stats;
            let b = pipelined_build(&data, p).unwrap().stats;
            // Row assignment is identical (same chunks), so per-thread
            // encode/forward counts must match exactly; only the drain
            // schedule differs.
            for (ta, tb) in a.per_thread.iter().zip(&b.per_thread) {
                assert_eq!(ta.rows_encoded, tb.rows_encoded);
                assert_eq!(ta.local_updates, tb.local_updates);
                assert_eq!(ta.forwarded, tb.forwarded);
                assert_eq!(ta.drained, tb.drained);
            }
        }
    }
}

#[test]
fn stress_many_small_runs_for_schedule_races() {
    // Small inputs + many repetitions maximize schedule diversity around
    // the termination protocol (producer close vs consumer drain).
    let schema = Schema::uniform(6, 2).unwrap();
    for seed in 0..30u64 {
        let data = UniformIndependent::new(schema.clone()).generate(64, seed);
        let reference = waitfree_build(&data, 4).unwrap().table.to_sorted_vec();
        for _ in 0..5 {
            let piped = pipelined_build(&data, 4).unwrap();
            assert_eq!(piped.table.to_sorted_vec(), reference, "seed={seed}");
        }
    }
}

#[test]
fn oversubscription_is_correct() {
    // More threads than hardware (and than rows in some chunks).
    let schema = Schema::uniform(8, 2).unwrap();
    let data = UniformIndependent::new(schema).generate(300, 9);
    let reference = waitfree_build(&data, 1).unwrap().table.to_sorted_vec();
    for p in [16usize, 32] {
        assert_eq!(
            pipelined_build(&data, p).unwrap().table.to_sorted_vec(),
            reference,
            "p={p}"
        );
        assert_eq!(
            waitfree_build(&data, p).unwrap().table.to_sorted_vec(),
            reference,
            "p={p}"
        );
    }
}
