//! Block-path equivalence: every builder runs the block-granular path
//! (per-owner split of each encode block, `push_block`/`pop_block` transfer
//! of bare keys, block table application), which is a pure performance
//! transformation — on every input, at every thread count, it must produce
//! tables *byte-identical* to the row-at-a-time `sequential_build` oracle
//! and MI surfaces indistinguishable from the oracle's to 1e-12.
//!
//! Deterministic cases pin the seams the property tests may miss: block
//! sizes straddling the SPSC segment capacity (`SEG_CAP − 1`, `SEG_CAP`,
//! `SEG_CAP + 1`), where `push_block` must link and publish fresh segments
//! mid-block, plus oversubscribed thread counts and many small repeated
//! runs that vary the schedule around the close-then-drain handoff.

use proptest::prelude::*;
use wfbn_concurrent::spsc::{channel, SEG_CAP};
use wfbn_core::allpairs::all_pairs_mi;
use wfbn_core::construct::{sequential_build, waitfree_build, ENC_BLOCK};
use wfbn_core::stream::StreamingBuilder;
use wfbn_data::{Dataset, Generator, Schema, UniformIndependent, ZipfIndependent};

/// The thread counts every builder must agree with the oracle at.
const CORES: [usize; 4] = [1, 2, 4, 8];

/// A random schema of 1–6 variables with arities 2–5.
fn schema_strategy() -> impl Strategy<Value = Schema> {
    prop::collection::vec(2u16..=5, 1..=6).prop_map(|arities| Schema::new(arities).unwrap())
}

/// A random dataset of 1–400 rows conforming to a random schema.
fn dataset_strategy() -> impl Strategy<Value = Dataset> {
    schema_strategy().prop_flat_map(|schema| {
        let n = schema.num_vars();
        let arities: Vec<u16> = schema.arities().to_vec();
        prop::collection::vec(
            prop::collection::vec(0u16..5, n).prop_map(move |mut row| {
                for (s, &r) in row.iter_mut().zip(&arities) {
                    *s %= r;
                }
                row
            }),
            1..=400,
        )
        .prop_map(move |rows| {
            let refs: Vec<&[u16]> = rows.iter().map(Vec::as_slice).collect();
            Dataset::from_rows(schema.clone(), &refs).unwrap()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn batched_builders_are_byte_identical_to_scalar(
        data in dataset_strategy(),
        pi in 0usize..CORES.len(),
    ) {
        let p = CORES[pi];
        let reference = sequential_build(&data).unwrap().table.to_sorted_vec();
        prop_assert_eq!(
            waitfree_build(&data, p).unwrap().table.to_sorted_vec(),
            reference.clone(),
            "two-stage at p={}", p
        );
        let mut stream = StreamingBuilder::new(data.schema(), p).unwrap();
        stream.absorb(&data).unwrap();
        prop_assert_eq!(
            stream.finish().unwrap().table.to_sorted_vec(),
            reference,
            "streaming at p={}", p
        );
    }

    #[test]
    fn batched_tables_yield_mi_within_1e_12(
        data in dataset_strategy(),
        pi in 0usize..CORES.len(),
    ) {
        let p = CORES[pi];
        let oracle = sequential_build(&data).unwrap().table;
        let built = waitfree_build(&data, p).unwrap().table;
        let mi_oracle = all_pairs_mi(&oracle, 1);
        let mi_built = all_pairs_mi(&built, p);
        prop_assert!(
            mi_oracle.max_abs_diff(&mi_built) < 1e-12,
            "MI drifted at p={}", p
        );
    }
}

/// `push_block` sized exactly around `SEG_CAP` — one slot short of the
/// boundary, landing on it, and one slot past it — plus a multi-segment
/// block. Every element must come back, in order, via `pop_block`.
#[test]
fn push_block_straddles_segment_boundaries_losslessly() {
    for len in [SEG_CAP - 1, SEG_CAP, SEG_CAP + 1, 3 * SEG_CAP + 1] {
        let (mut tx, mut rx) = channel::<u64>();
        let block: Vec<u64> = (0..len as u64).collect();
        tx.push_block(&block);
        drop(tx); // close: everything already published
        let mut got = Vec::new();
        while rx.pop_block(&mut got) > 0 {}
        assert_eq!(got, block, "len={len}");
    }
}

/// Block producer with scalar consumer and vice versa: the two granularities
/// share one publication protocol, so they must interoperate across the
/// same boundary-straddling sizes.
#[test]
fn block_and_scalar_endpoints_interoperate() {
    for len in [SEG_CAP - 1, SEG_CAP, SEG_CAP + 1] {
        // push_block → try_pop
        let (mut tx, mut rx) = channel::<u64>();
        let block: Vec<u64> = (0..len as u64).collect();
        tx.push_block(&block);
        drop(tx);
        let mut got = Vec::new();
        while let Some(v) = rx.try_pop() {
            got.push(v);
        }
        assert_eq!(got, block, "push_block→try_pop len={len}");

        // push → pop_block
        let (mut tx, mut rx) = channel::<u64>();
        for v in 0..len as u64 {
            tx.push(v);
        }
        drop(tx);
        let mut got = Vec::new();
        while rx.pop_block(&mut got) > 0 {}
        assert_eq!(got, block, "push→pop_block len={len}");
    }
}

/// Full builds whose per-queue traffic lands around the segment boundary:
/// with two threads, each foreign queue carries ≈ m/2 keys, so m near
/// 2·SEG_CAP exercises flushes that split across fresh segments inside the
/// real pipeline. Per-core row counts of `ENC_BLOCK − 1`, `ENC_BLOCK` and
/// `ENC_BLOCK + 1` end each core's chunk just short of, on, and just past a
/// block boundary, so a partial last block is flushed at every P.
#[test]
fn builds_agree_at_row_counts_straddling_seg_cap() {
    let schema = Schema::uniform(16, 2).unwrap();
    let seg_cap_rows = [
        SEG_CAP - 1,
        SEG_CAP,
        SEG_CAP + 1,
        2 * SEG_CAP,
        2 * SEG_CAP + 1,
    ];
    for p in CORES {
        let block_rows = [ENC_BLOCK - 1, ENC_BLOCK, ENC_BLOCK + 1].map(|per_core| p * per_core);
        for m in seg_cap_rows.into_iter().chain(block_rows) {
            let data = UniformIndependent::new(schema.clone()).generate(m, 7);
            let reference = sequential_build(&data).unwrap().table.to_sorted_vec();
            assert_eq!(
                waitfree_build(&data, p).unwrap().table.to_sorted_vec(),
                reference,
                "two-stage m={m} p={p}"
            );
        }
    }
}

/// Heavy skew sends long runs of one key through the queues: each repeat
/// must arrive and count once.
#[test]
fn batched_builds_survive_heavy_skew() {
    let schema = Schema::uniform(14, 2).unwrap();
    let data = ZipfIndependent::new(schema, 2.2)
        .unwrap()
        .generate(30_000, 13);
    let reference = sequential_build(&data).unwrap().table.to_sorted_vec();
    for p in CORES {
        assert_eq!(
            waitfree_build(&data, p).unwrap().table.to_sorted_vec(),
            reference,
            "p={p}"
        );
    }
}

/// More threads than hardware threads, and than rows in most chunks: the
/// idle cores must still cross the barrier and drain nothing.
#[test]
fn oversubscription_is_correct() {
    let schema = Schema::uniform(8, 2).unwrap();
    let data = UniformIndependent::new(schema).generate(300, 9);
    let reference = waitfree_build(&data, 1).unwrap().table.to_sorted_vec();
    for p in [16usize, 32] {
        assert_eq!(
            waitfree_build(&data, p).unwrap().table.to_sorted_vec(),
            reference,
            "p={p}"
        );
    }
}

/// Small inputs and many repetitions maximize schedule diversity around
/// the close-then-drain handoff (a producer's last flush and close against
/// its consumer's drain), for both the one-shot and the streaming builder.
#[test]
fn stress_many_small_runs_for_schedule_races() {
    let schema = Schema::uniform(6, 2).unwrap();
    for seed in 0..30u64 {
        let data = UniformIndependent::new(schema.clone()).generate(64, seed);
        let reference = sequential_build(&data).unwrap().table.to_sorted_vec();
        for _ in 0..5 {
            assert_eq!(
                waitfree_build(&data, 4).unwrap().table.to_sorted_vec(),
                reference,
                "two-stage seed={seed}"
            );
            let mut stream = StreamingBuilder::new(&schema, 4).unwrap();
            stream.absorb(&data).unwrap();
            assert_eq!(
                stream.finish().unwrap().table.to_sorted_vec(),
                reference,
                "streaming seed={seed}"
            );
        }
    }
}
