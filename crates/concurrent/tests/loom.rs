//! Model-checked interleaving tests (run with `--features loom`).
//!
//! Each test wraps a tiny instance of a primitive in `loom::model`, which
//! re-executes the closure under every thread schedule within the preemption
//! bound. `SEG_CAP` is 2 under this feature, so a handful of pushes exercises
//! the segment-linking path that a 512-slot segment would hide from the
//! explorer. After each model the test asserts that more than one schedule
//! was actually explored — a guard against silently running outside the model.
#![cfg(feature = "loom")]

use loom::sync::atomic::{AtomicUsize, Ordering};
use loom::sync::Arc;
// All counters in this file use Relaxed: they are test scaffolding whose
// visibility rides on the edges under test (the queue's Release/Acquire
// publication, the barrier's sense edge, `join`'s synchronization) — never
// on the counter's own ordering. If a primitive's edge broke, the Relaxed
// counters would expose it; SeqCst would paper over exactly the bugs these
// models exist to find. (The vendored explorer executes all orderings as
// SeqCst anyway — DESIGN.md §8 — so the models prove the downgrade safe at
// the interleaving level, and TSan covers the real memory model.)
use wfbn_concurrent::{channel, epoch_channel, SpinBarrier, SEG_CAP};

/// The explorer silently degrades to a single std-thread execution if the
/// code under test never hits a modeled scheduling point; every test calls
/// this to prove the schedules were genuinely enumerated.
fn assert_explored() {
    assert!(
        loom::explored_interleavings() >= 2,
        "model explored only {} schedule(s); the code under test bypassed the shim",
        loom::explored_interleavings()
    );
}

#[test]
fn queue_transfer_crosses_segment_boundaries() {
    // 2 * SEG_CAP + 1 elements forces two segment links, so the producer's
    // Release store of `next` races the consumer's Acquire load of it in
    // every explored schedule.
    const N: usize = SEG_CAP * 2 + 1;
    loom::model(|| {
        let (mut tx, mut rx) = channel::<usize>();
        let t = loom::thread::spawn(move || {
            for i in 0..N {
                tx.push(i);
            }
            // tx drops here, closing the queue.
        });
        let mut got = Vec::new();
        loop {
            let closed = rx.is_closed();
            while let Some(v) = rx.try_pop() {
                got.push(v);
            }
            if closed {
                break;
            }
            loom::thread::yield_now();
        }
        t.join().unwrap();
        assert_eq!(got, (0..N).collect::<Vec<_>>(), "lost or reordered element");
    });
    assert_explored();
}

#[test]
fn queue_drop_with_unconsumed_elements_frees_exactly_once() {
    // The consumer walks away mid-stream; Shared::drop must destroy exactly
    // the elements in [consumed, len) of each surviving segment — no leak,
    // no double free — under every schedule of pushes vs. the early drop.
    struct Tracked(Arc<AtomicUsize>);
    impl Drop for Tracked {
        fn drop(&mut self) {
            self.0.fetch_sub(1, Ordering::Relaxed);
        }
    }
    loom::model(|| {
        let live = Arc::new(AtomicUsize::new(0));
        let (mut tx, mut rx) = channel::<Tracked>();
        let l2 = Arc::clone(&live);
        let t = loom::thread::spawn(move || {
            for _ in 0..(SEG_CAP + 1) {
                l2.fetch_add(1, Ordering::Relaxed);
                tx.push(Tracked(Arc::clone(&l2)));
            }
        });
        // Consume at most one element, then abandon the queue.
        drop(rx.try_pop());
        drop(rx);
        t.join().unwrap();
        // Producer has dropped tx; the last Shared ref is gone on one side or
        // the other, and the chain was destroyed there.
        assert_eq!(live.load(Ordering::Relaxed), 0, "leak or double drop");
    });
    assert_explored();
}

#[test]
fn barrier_reuse_across_generations() {
    // Two threads cross the same barrier twice. The sense-reversing design
    // must (a) elect exactly one leader per round, (b) make every pre-wait
    // write visible post-wait, and (c) not let a fast thread's second wait
    // observe the first round's stale sense.
    const ROUNDS: usize = 2;
    loom::model(|| {
        let barrier = Arc::new(SpinBarrier::new(2));
        let hits = Arc::new(AtomicUsize::new(0));
        let leaders = Arc::new(AtomicUsize::new(0));
        let (b2, h2, l2) = (
            Arc::clone(&barrier),
            Arc::clone(&hits),
            Arc::clone(&leaders),
        );
        let t = loom::thread::spawn(move || {
            for round in 1..=ROUNDS {
                h2.fetch_add(1, Ordering::Relaxed);
                if b2.wait() {
                    l2.fetch_add(1, Ordering::Relaxed);
                }
                assert!(
                    h2.load(Ordering::Relaxed) >= round * 2,
                    "stale pre-barrier write"
                );
            }
        });
        for round in 1..=ROUNDS {
            hits.fetch_add(1, Ordering::Relaxed);
            if barrier.wait() {
                leaders.fetch_add(1, Ordering::Relaxed);
            }
            assert!(
                hits.load(Ordering::Relaxed) >= round * 2,
                "stale pre-barrier write"
            );
        }
        t.join().unwrap();
        assert_eq!(hits.load(Ordering::Relaxed), 2 * ROUNDS);
        assert_eq!(
            leaders.load(Ordering::Relaxed),
            ROUNDS,
            "leader election must be exactly-once per round"
        );
    });
    assert_explored();
}

#[test]
fn queue_close_then_drain_protocol_is_complete() {
    // The termination handshake stage 2 relies on: after is_closed() returns
    // true, drain-until-None must observe every element ever pushed.
    loom::model(|| {
        let (mut tx, mut rx) = channel::<usize>();
        let t = loom::thread::spawn(move || {
            tx.push(1);
            tx.push(2);
            tx.push(3);
        });
        let mut seen = 0usize;
        loop {
            let closed = rx.is_closed();
            while let Some(v) = rx.try_pop() {
                seen += v;
            }
            if closed {
                break;
            }
            loom::thread::yield_now();
        }
        t.join().unwrap();
        assert_eq!(seen, 6, "close/drain handshake lost an element");
    });
    assert_explored();
}

#[test]
fn push_block_segment_linking_is_published_under_every_schedule() {
    // One push_block spanning two segment links (SEG_CAP is 2 here): the
    // producer's chunked Release stores of `len` and `next` race the
    // consumer's Acquire loads in every explored schedule. FIFO order and
    // losslessness must survive all of them.
    const N: usize = SEG_CAP * 2 + 1;
    loom::model(|| {
        let (mut tx, mut rx) = channel::<usize>();
        let block: Vec<usize> = (0..N).collect();
        let t = loom::thread::spawn(move || {
            tx.push_block(&block);
            // tx drops here, closing the queue.
        });
        let mut got = Vec::new();
        loop {
            let closed = rx.is_closed();
            while let Some(v) = rx.try_pop() {
                got.push(v);
            }
            if closed {
                break;
            }
            loom::thread::yield_now();
        }
        t.join().unwrap();
        assert_eq!(got, (0..N).collect::<Vec<_>>(), "lost or reordered element");
    });
    assert_explored();
}

#[test]
fn pop_block_sees_complete_prefix_under_every_schedule() {
    // Scalar producer, block consumer: each pop_block must take a prefix of
    // what was pushed (never a gap, never a reorder), and close-then-drain
    // with pop_block must still observe everything.
    const N: usize = SEG_CAP + 2; // crosses one segment link
    loom::model(|| {
        let (mut tx, mut rx) = channel::<usize>();
        let t = loom::thread::spawn(move || {
            for i in 0..N {
                tx.push(i);
            }
        });
        let mut got = Vec::new();
        loop {
            let closed = rx.is_closed();
            // One segment per call: keep calling until nothing is visible.
            while rx.pop_block(&mut got) > 0 {}
            if closed {
                break;
            }
            loom::thread::yield_now();
        }
        t.join().unwrap();
        assert_eq!(got, (0..N).collect::<Vec<_>>(), "pop_block missed a prefix");
    });
    assert_explored();
}

#[test]
fn epoch_reader_never_observes_torn_or_unpublished_epoch() {
    // The serving layer's publication invariant: epoch `e` always carries a
    // value constructed *before* the counter advanced to `e`. Each published
    // vector has length == its epoch, so a reader that ever pins a
    // half-built snapshot, or pins an epoch older than one it already saw in
    // `published()`, fails deterministically in some explored schedule.
    loom::model(|| {
        let (mut publisher, mut readers) = epoch_channel::<Vec<u64>>(1);
        let mut reader = readers.pop().unwrap();
        let t = loom::thread::spawn(move || {
            publisher.publish(vec![1]);
            publisher.publish(vec![1, 2]);
        });
        let observed = reader.published();
        match reader.pin() {
            Some((epoch, snap)) => {
                assert!(
                    epoch >= observed,
                    "pin returned epoch {epoch} after published() showed {observed}"
                );
                assert_eq!(snap.len() as u64, epoch, "torn snapshot at epoch {epoch}");
            }
            None => assert_eq!(observed, 0, "epoch {observed} visible but not pinnable"),
        }
        t.join().unwrap();
        // The publisher is gone: the final pin must land on the last epoch.
        let (epoch, snap) = reader.pin().expect("both epochs published");
        assert_eq!(epoch, 2);
        assert_eq!(snap.as_slice(), &[1, 2]);
    });
    assert_explored();
}

#[test]
fn epoch_pins_are_monotone_under_every_schedule() {
    // Two pins around a racing publish: the second pin may stay or advance,
    // never regress, and each pinned value must match its epoch.
    loom::model(|| {
        let (mut publisher, mut readers) = epoch_channel::<u64>(2);
        let mut r0 = readers.remove(0);
        let mut r1 = readers.remove(0);
        publisher.publish(1);
        let t = loom::thread::spawn(move || {
            publisher.publish(2);
        });
        let t1 = loom::thread::spawn(move || {
            if let Some((epoch, snap)) = r1.pin() {
                assert_eq!(**snap, epoch, "value does not match its epoch");
            }
        });
        let first = r0.pin().expect("epoch 1 was published before the race");
        let first_epoch = first.0;
        let (second_epoch, snap) = r0.pin().expect("pin never forgets");
        assert!(second_epoch >= first_epoch, "pin regressed");
        assert_eq!(**snap, second_epoch);
        t.join().unwrap();
        t1.join().unwrap();
    });
    assert_explored();
}

#[test]
fn block_to_block_transfer_is_complete_under_every_schedule() {
    // Both endpoints block-granular — the exact shape of the build's
    // stage-1 → stage-2 handoff: a block's flush on one side, a
    // segment-at-a-time block drain on the other.
    loom::model(|| {
        let (mut tx, mut rx) = channel::<usize>();
        let t = loom::thread::spawn(move || {
            tx.push_block(&[1, 2, 3]); // SEG_CAP=2: spans a segment link
            tx.push_block(&[4, 5]);
        });
        let mut got = Vec::new();
        loop {
            let closed = rx.is_closed();
            loop {
                let before = got.len();
                let taken = rx.pop_block(&mut got);
                assert!(taken <= SEG_CAP, "pop_block crossed a segment");
                assert_eq!(got.len() - before, taken);
                if taken == 0 {
                    break;
                }
            }
            if closed {
                break;
            }
            loom::thread::yield_now();
        }
        t.join().unwrap();
        assert_eq!(got, vec![1, 2, 3, 4, 5], "block handoff lost an element");
    });
    assert_explored();
}
