//! Fork–join execution of one closure per thread index.
//!
//! The PRAM program model of the paper is "`for p = 0 to P−1 in parallel do`".
//! [`run_on_threads`] is exactly that statement: the calling thread runs
//! index 0 and forks `p − 1` scoped threads for the rest, passes each its
//! index, joins them all, and returns the per-thread results in index order. Scoped threads let the closures borrow the training data
//! and the shared queue matrix without `Arc`s or `'static` bounds.

/// Runs `f(0), f(1), …, f(p-1)` on `p` parallel threads and returns their
/// results in thread-index order.
///
/// The calling thread runs index 0 itself and spawns the other `p − 1`, so
/// `p == 1` spawns nothing and single-threaded baselines measured through
/// the same entry point pay no threading overhead (important for honest
/// speedup denominators).
///
/// # Panics
///
/// Panics if `p == 0`, or propagates a panic from any index.
///
/// # Examples
///
/// ```
/// use wfbn_concurrent::run_on_threads;
/// let squares = run_on_threads(4, |t| t * t);
/// assert_eq!(squares, vec![0, 1, 4, 9]);
/// ```
pub fn run_on_threads<R, F>(p: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    run_on_threads_with(vec![(); p], |t, ()| f(t))
}

/// [`run_on_threads`] with one caller-built input per thread: runs
/// `f(t, inputs[t])` on `inputs.len()` parallel threads, moving each input
/// into its thread, and returns the results in thread-index order.
///
/// This is how workers fill disjoint `&mut` regions of a buffer the caller
/// allocated up front — memory that then lives in the caller's allocator
/// arena rather than in one per worker thread.
///
/// # Panics
///
/// Panics if `inputs` is empty, or propagates a panic from any index.
///
/// # Examples
///
/// ```
/// use wfbn_concurrent::run_on_threads_with;
/// let mut buf = vec![0u32; 6];
/// let (a, b) = buf.split_at_mut(2);
/// run_on_threads_with(vec![a, b], |t, part| part.fill(t as u32 + 1));
/// assert_eq!(buf, [1, 1, 2, 2, 2, 2]);
/// ```
pub fn run_on_threads_with<T, R, F>(inputs: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let mut inputs = inputs.into_iter();
    let first = inputs.next().expect("need at least one thread");
    std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = inputs
            .enumerate()
            .map(|(i, input)| {
                let t = i + 1;
                std::thread::Builder::new()
                    .name(format!("wfbn-worker-{t}"))
                    .spawn_scoped(s, move || f(t, input))
                    .expect("failed to spawn worker thread")
            })
            .collect();
        let mut out = Vec::with_capacity(handles.len() + 1);
        out.push(f(0, first));
        out.extend(
            handles
                .into_iter()
                .map(|h| h.join().expect("worker thread panicked")),
        );
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_are_in_index_order() {
        let out = run_on_threads(8, |t| t * 10);
        assert_eq!(out, (0..8).map(|t| t * 10).collect::<Vec<_>>());
    }

    #[test]
    fn index_zero_runs_on_the_caller_and_the_rest_on_their_own_threads() {
        let caller = std::thread::current().id();
        for p in 1..=4 {
            let ids = run_on_threads(p, |_| std::thread::current().id());
            assert_eq!(ids[0], caller, "p={p}");
            for (t, id) in ids.iter().enumerate().skip(1) {
                assert_ne!(*id, caller, "p={p}: index {t} ran on the caller");
                assert!(!ids[1..t].contains(id), "p={p}: index {t} shares a thread");
            }
        }
    }

    #[test]
    fn closures_can_borrow_shared_state() {
        let data = vec![1u64; 1000];
        let counter = AtomicUsize::new(0);
        let sums = run_on_threads(4, |t| {
            counter.fetch_add(1, Ordering::Relaxed);
            let chunk = &data[t * 250..(t + 1) * 250];
            chunk.iter().sum::<u64>()
        });
        assert_eq!(counter.load(Ordering::Relaxed), 4);
        assert_eq!(sums.iter().sum::<u64>(), 1000);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_panics() {
        let _ = run_on_threads(0, |_| ());
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn caller_panic_propagates() {
        let _ = run_on_threads(2, |t| {
            if t == 0 {
                panic!("boom");
            }
        });
    }

    #[test]
    #[should_panic(expected = "worker thread panicked")]
    fn worker_panic_propagates() {
        let _ = run_on_threads(2, |t| {
            if t == 1 {
                panic!("boom");
            }
        });
    }
}
