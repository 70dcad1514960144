//! Single-writer ownership audit of the serve path
//! (`--features ownership-audit`).
//!
//! The serving layer's new shared words are the epoch slot (written only by
//! the publisher) and the per-reader telemetry words (written only by their
//! reader). Under the audit feature those writes report into
//! [`wfbn_concurrent::audit`]'s shadow map; the positive cases prove the
//! discipline holds across a full publish/pin/query cycle, and the negative
//! control *seeds* a violation — a publisher handle migrating to a second
//! core without a stage handover — and demands the auditor catch it.

#![cfg(feature = "ownership-audit")]

use wfbn_concurrent::audit::{enter, BuildAudit};
use wfbn_concurrent::epoch_channel;
use wfbn_data::{Dataset, Schema};
use wfbn_obs::{CoreMetrics, CoreRecorder, Counter, Recorder};
use wfbn_serve::{Engine, EngineConfig};

#[test]
fn publish_pin_query_cycle_is_single_writer_clean() {
    // One audited publisher core, one audited reader core, epoch word and
    // telemetry words all recorded — and no conflict.
    let audit = BuildAudit::new();
    let metrics = CoreMetrics::new(2);
    let (mut publisher, mut readers) = epoch_channel::<Vec<u64>>(1);
    {
        let _g = enter(&audit, 0);
        publisher.publish(vec![1]);
        publisher.publish(vec![1, 2]);
        metrics.core(0).add(Counter::EpochsPublished, 2);
    }
    let reader_audit = audit.clone();
    let mut reader = readers.pop().expect("one reader");
    let handle = std::thread::spawn(move || {
        let _g = enter(&reader_audit, 1);
        let (epoch, snap) = reader.pin().expect("published");
        assert_eq!((epoch, snap.len()), (2, 2));
        let mut c = metrics.core(1);
        c.add(Counter::QueriesServed, 1);
        c.query_latency(100);
        c.add(Counter::EpochsPinned, 1);
        metrics.snapshot()
    });
    let report = handle.join().expect("reader thread");
    assert_eq!(report.total(Counter::EpochsPublished), 2);
    assert_eq!(report.total(Counter::EpochsPinned), 1);
    // The epoch slot plus both cores' telemetry words were all recorded.
    assert!(
        audit.words_recorded() >= 3,
        "expected the audit to see the epoch slot and telemetry words, saw {}",
        audit.words_recorded()
    );
}

#[test]
fn seeded_publisher_migration_is_caught() {
    // Negative control: hand the *same* publisher to a second core in the
    // same stage. Its next publish rewrites the shared epoch word — exactly
    // the two-cores-one-word-one-stage pattern the auditor must kill.
    let audit = BuildAudit::new();
    let (mut publisher, _readers) = epoch_channel::<u64>(1);
    {
        let _g = enter(&audit, 0);
        publisher.publish(7);
    }
    let migrated_audit = audit.clone();
    let result = std::thread::spawn(move || {
        let _g = enter(&migrated_audit, 1);
        publisher.publish(8); // same epoch word, different core, same stage
    })
    .join();
    let err = result.expect_err("the auditor must catch the migrated publisher");
    let msg = err
        .downcast_ref::<String>()
        .expect("panic carries a message");
    assert!(msg.contains("single-writer violation"), "{msg}");
}

#[test]
fn full_serve_pipeline_runs_clean_under_the_audit_feature() {
    // End-to-end smoke with the audit feature compiled in: the engine's
    // internal threads are un-entered (they record nothing), and nothing on
    // the ingest/publish/query path trips the auditor.
    let schema = Schema::uniform(4, 2).expect("schema");
    let (mut engine, mut readers) = Engine::start(
        &schema,
        &EngineConfig {
            builder_threads: 2,
            ..EngineConfig::default()
        },
    )
    .expect("engine");
    let rows: Vec<&[u16]> = vec![&[0, 0, 1, 1], &[1, 1, 0, 0], &[0, 1, 0, 1]];
    engine
        .submit(Dataset::from_rows(schema, &rows).expect("batch"))
        .expect("submit");
    engine.sync().expect("sync");
    let (_, mi) = readers[0].mi(0, 1).expect("mi");
    assert!(mi.is_finite());
    engine.finish().expect("finish");
}
