//! End-to-end checks of the single-writer ownership auditor
//! (`--features ownership-audit`).
#![cfg(feature = "ownership-audit")]

use wfbn_concurrent::audit;
use wfbn_core::construct::{sequential_build, waitfree_build};
use wfbn_core::stream::StreamingBuilder;
use wfbn_core::CountTable;
use wfbn_data::{Generator, Schema, UniformIndependent, ZipfIndependent};

/// The real two-stage build must satisfy the single-writer discipline: every
/// word of every partition and queue has one writer per stage. Large enough
/// to force table growth and multi-segment queues mid-build.
#[test]
fn waitfree_build_passes_the_audit() {
    let data = UniformIndependent::new(Schema::uniform(10, 2).unwrap()).generate(20_000, 1);
    let reference = sequential_build(&data).unwrap().table.to_sorted_vec();
    for p in [2usize, 4, 7] {
        let built = waitfree_build(&data, p).unwrap();
        assert_eq!(built.table.to_sorted_vec(), reference, "p={p}");
    }
}

/// Skewed keys concentrate traffic on few words — the adversarial case for
/// a would-be ownership bug, and the heaviest one for the shadow map.
#[test]
fn skewed_build_passes_the_audit() {
    let schema = Schema::new(vec![2, 3, 4, 2, 5]).unwrap();
    let data = ZipfIndependent::new(schema, 1.5)
        .unwrap()
        .generate(10_000, 3);
    let reference = sequential_build(&data).unwrap().table.to_sorted_vec();
    assert_eq!(
        waitfree_build(&data, 4).unwrap().table.to_sorted_vec(),
        reference
    );
}

/// Every builder ships foreign keys in `push_block` chunks from per-owner
/// buffers: every word of a flushed block must still have exactly one
/// writer per stage. Skew repeats a few keys many times, and 20k rows
/// force multi-segment queues, so a flush that strayed onto a foreign
/// segment or a routing buffer shared between cores would panic here. The
/// streaming builder runs the same workers over persistent tables, with a
/// snapshot held across absorbs so each core diverges its shared partition.
#[test]
fn batched_block_flushes_stay_single_writer() {
    let uniform = UniformIndependent::new(Schema::uniform(10, 2).unwrap()).generate(20_000, 1);
    let skewed = ZipfIndependent::new(Schema::new(vec![2, 3, 4, 2, 5]).unwrap(), 1.5)
        .unwrap()
        .generate(10_000, 3);
    for data in [&uniform, &skewed] {
        let reference = sequential_build(data).unwrap().table.to_sorted_vec();
        for p in [2usize, 4, 7] {
            assert_eq!(
                waitfree_build(data, p).unwrap().table.to_sorted_vec(),
                reference,
                "two-stage p={p}"
            );
            let mut stream = StreamingBuilder::new(data.schema(), p).unwrap();
            stream.absorb(data).unwrap();
            let snapshot = stream.snapshot().unwrap();
            stream.absorb(data).unwrap();
            assert_eq!(snapshot.to_sorted_vec(), reference, "streaming p={p}");
            assert_eq!(
                stream.finish().unwrap().table.total_count(),
                2 * data.num_samples() as u64
            );
        }
    }
}

/// Negative control: hand the *same* table to two "cores" in the same stage
/// — the bug class the auditor exists to catch — and require the panic.
#[test]
fn shared_partition_is_reported_as_violation() {
    let build = audit::BuildAudit::new();
    let mut table: CountTable = CountTable::new();
    {
        let _core0 = audit::enter(&build, 0);
        table.increment(17, 1);
    }
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _core1 = audit::enter(&build, 1);
        table.increment(17, 1);
    }));
    let err = result.expect_err("two cores incrementing one partition in one stage must panic");
    let msg = err
        .downcast_ref::<String>()
        .expect("violation panics with a formatted message");
    assert!(msg.contains("single-writer violation"), "{msg}");
}
