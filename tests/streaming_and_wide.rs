//! Integration coverage for streaming batch ingestion, exercised together
//! with the learner and the all-pairs MI screen.

use wfbn_bn::cheng::ChengLearner;
use wfbn_bn::repository;
use wfbn_core::allpairs::all_pairs_mi;
use wfbn_core::construct::waitfree_build;
use wfbn_core::stream::StreamingBuilder;
use wfbn_data::{Dataset, Generator, Schema, UniformIndependent};

#[test]
fn streamed_table_feeds_the_learner_identically() {
    // Learn from (a) a one-shot table over all data, (b) a streamed table
    // built from five batches: identical structures.
    let net = repository::sprinkler();
    let batches: Vec<Dataset> = (0..5).map(|i| net.sample(10_000, 100 + i)).collect();
    let mut flat = Vec::new();
    for b in &batches {
        flat.extend_from_slice(b.flat());
    }
    let all = Dataset::from_flat_unchecked(net.schema().clone(), flat);

    let one_shot = waitfree_build(&all, 4).unwrap().table;
    let mut builder = StreamingBuilder::new(net.schema(), 4).unwrap();
    for b in &batches {
        builder.absorb(b).unwrap();
    }
    let streamed = builder.finish().unwrap().table;
    assert_eq!(streamed.to_sorted_vec(), one_shot.to_sorted_vec());

    let learner = ChengLearner::default();
    let a = learner.learn_from_table(&one_shot).unwrap();
    let b = learner.learn_from_table(&streamed).unwrap();
    assert_eq!(a.skeleton.edges(), b.skeleton.edges());
    assert_eq!(a.cpdag, b.cpdag);
}

#[test]
fn incremental_snapshots_sharpen_mi_estimates() {
    // As batches accumulate, the MI estimate for an independent pair must
    // shrink toward zero (plug-in MI bias falls like 1/m).
    let schema = Schema::uniform(6, 2).unwrap();
    let gen = UniformIndependent::new(schema.clone());
    let mut builder = StreamingBuilder::new(&schema, 2).unwrap();
    let mut last_mi = f64::INFINITY;
    for round in 0..4 {
        builder.absorb(&gen.generate(20_000, round)).unwrap();
        let snap = builder.snapshot().unwrap();
        let mi = all_pairs_mi(&snap, 2).get(0, 5);
        // The multiplicative check needs an absolute allowance of the
        // plug-in bias scale (≈ (r−1)²/(2m·ln 2) ≈ 4e-5 at m = 20k): near
        // zero the estimate fluctuates by that much in either direction.
        assert!(
            mi < last_mi * 1.5 + 5e-5,
            "round {round}: MI should not blow up ({last_mi} → {mi})"
        );
        last_mi = mi;
    }
    assert!(
        last_mi < 5e-4,
        "80k samples should pin MI near 0: {last_mi}"
    );
}
