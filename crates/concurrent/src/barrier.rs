//! A sense-reversing spin barrier.
//!
//! The wait-free construction primitive needs exactly one synchronization
//! step: between stage 1 (classify + forward keys) and stage 2 (drain foreign
//! queues). [`std::sync::Barrier`] works, but parks threads through a mutex
//! and condition variable; for the short rendezvous between two compute-bound
//! stages a spinning barrier keeps cores hot. The implementation spins with
//! [`core::hint::spin_loop`] for a bounded number of iterations, then yields
//! to the OS so that oversubscribed configurations (more threads than cores —
//! the situation on small CI machines) still make progress.

use crate::pad::CachePadded;
use crate::sync::{AtomicBool, AtomicUsize, Ordering};

/// How many busy-wait iterations to perform before yielding to the scheduler.
const SPINS_BEFORE_YIELD: u32 = 1 << 10;

/// A reusable sense-reversing barrier for a fixed set of `n` threads.
///
/// Unlike a counter-reset barrier, the sense-reversing design is safe for
/// *reuse*: a thread that races ahead into the next `wait` cannot observe a
/// stale "generation complete" signal, because the sense flips each round.
///
/// # Examples
///
/// ```
/// use std::sync::atomic::{AtomicUsize, Ordering};
/// use wfbn_concurrent::SpinBarrier;
///
/// let barrier = SpinBarrier::new(4);
/// let hits = AtomicUsize::new(0);
/// std::thread::scope(|s| {
///     for _ in 0..4 {
///         s.spawn(|| {
///             hits.fetch_add(1, Ordering::Relaxed);
///             barrier.wait();
///             // All four increments happened-before every thread passes.
///             assert_eq!(hits.load(Ordering::Relaxed), 4);
///         });
///     }
/// });
/// ```
/// `repr(C)` so declared order is stored order (the false-sharing table in
/// `analysis/layout.toml` reasons about byte offsets). `remaining` takes a
/// fetch_sub from *every* arriver while `sense` is spun on by every waiter;
/// padding them apart keeps each arrival from invalidating the line every
/// other thread is polling.
#[derive(Debug)]
#[repr(C)]
pub struct SpinBarrier {
    n: usize,
    remaining: CachePadded<AtomicUsize>,
    sense: CachePadded<AtomicBool>,
}

impl SpinBarrier {
    /// Creates a barrier for `n` participating threads.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "a barrier needs at least one participant");
        Self {
            n,
            remaining: CachePadded::new(AtomicUsize::new(n)),
            sense: CachePadded::new(AtomicBool::new(false)),
        }
    }

    /// Blocks until all `n` threads have called `wait` in this round.
    ///
    /// Returns `true` on exactly one thread per round (the last arriver),
    /// mirroring [`std::sync::BarrierWaitResult::is_leader`].
    pub fn wait(&self) -> bool {
        // loom-model: barrier_reuse_across_generations
        let my_sense = !self.sense.load(Ordering::Relaxed);
        // AcqRel: releases this thread's pre-barrier writes and acquires the
        // writes of threads that arrived earlier.
        // hb-writer: arriver
        // loom-model: barrier_reuse_across_generations
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Last arriver: reset the counter for the next round, then flip
            // the sense (Release publishes the reset together with every
            // participant's pre-barrier writes).
            // loom-model: barrier_reuse_across_generations
            self.remaining.store(self.n, Ordering::Relaxed);
            // hb-writer: leader
            // loom-model: barrier_reuse_across_generations
            self.sense.store(my_sense, Ordering::Release);
            true
        } else {
            let mut spins = 0u32;
            // wf-bound: rendezvous(P) — exits when the last of the P
            // participants arrives and the leader flips the sense; the
            // paper admits exactly one such rendezvous per build.
            // loom-model: barrier_reuse_across_generations
            while self.sense.load(Ordering::Acquire) != my_sense {
                if spins < SPINS_BEFORE_YIELD {
                    crate::sync::hint::spin_loop();
                    spins += 1;
                } else {
                    crate::sync::thread::yield_now();
                }
            }
            false
        }
    }
}

/// Rustc's own layout of [`SpinBarrier`] for cross-checking the conservative
/// estimator in `wfbn-analyze` (crates/analyze/tests/layout_check.rs).
#[doc(hidden)]
#[cfg(not(feature = "loom"))]
pub fn layout_probes() -> Vec<crate::pad::LayoutProbe> {
    use core::mem::{offset_of, size_of};
    vec![(
        "SpinBarrier",
        size_of::<SpinBarrier>(),
        vec![
            ("n", offset_of!(SpinBarrier, n)),
            ("remaining", offset_of!(SpinBarrier, remaining)),
            ("sense", offset_of!(SpinBarrier, sense)),
        ],
    )]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn single_thread_is_always_leader() {
        let b = SpinBarrier::new(1);
        assert!(b.wait());
        assert!(b.wait());
    }

    #[test]
    #[should_panic(expected = "at least one participant")]
    fn zero_participants_panics() {
        let _ = SpinBarrier::new(0);
    }

    #[test]
    fn exactly_one_leader_per_round() {
        const THREADS: usize = 4;
        const ROUNDS: usize = 50;
        let b = SpinBarrier::new(THREADS);
        let leaders = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    for _ in 0..ROUNDS {
                        if b.wait() {
                            leaders.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(leaders.load(Ordering::Relaxed), ROUNDS);
    }

    #[test]
    fn orders_cross_thread_writes() {
        // Stage-1 writes by every thread must be visible to every thread in
        // stage 2 — the exact guarantee construction relies on.
        const THREADS: usize = 4;
        let b = SpinBarrier::new(THREADS);
        let cells: Vec<AtomicU64> = (0..THREADS).map(|_| AtomicU64::new(0)).collect();
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let cells = &cells;
                let b = &b;
                s.spawn(move || {
                    cells[t].store(t as u64 + 1, Ordering::Relaxed);
                    b.wait();
                    let sum: u64 = cells.iter().map(|c| c.load(Ordering::Relaxed)).sum();
                    assert_eq!(sum, (1..=THREADS as u64).sum());
                });
            }
        });
    }

    #[test]
    fn reusable_across_many_rounds() {
        const THREADS: usize = 3;
        let b = SpinBarrier::new(THREADS);
        let counter = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    for round in 0..100 {
                        counter.fetch_add(1, Ordering::Relaxed);
                        b.wait();
                        // After each round, the count is an exact multiple.
                        let c = counter.load(Ordering::Relaxed);
                        assert!(c >= (round + 1) * THREADS);
                        b.wait();
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 100 * THREADS);
    }
}
