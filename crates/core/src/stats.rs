//! Instrumentation collected during table construction.
//!
//! These counters serve three purposes: (1) they verify the paper's
//! structural claims in tests (e.g. with `P` cores and uniform keys, a
//! fraction `(P−1)/P` of keys is forwarded); (2) the PRAM simulator charges
//! cycle costs from them; (3) the benchmark harness reports them alongside
//! wall-clock numbers.

/// Per-thread counters from one construction run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ThreadStats {
    /// Rows this thread encoded in stage 1.
    pub rows_encoded: u64,
    /// Keys that fell in this thread's own partition (updated locally).
    pub local_updates: u64,
    /// Keys forwarded to other threads' queues.
    pub forwarded: u64,
    /// Keys drained from foreign queues and applied in stage 2.
    pub drained: u64,
    /// Hash-table slot probes performed by this thread (stages 1+2).
    pub probes: u64,
    /// Blocks of foreign keys shipped (`push_block` calls): one per
    /// destination with keys per encode block; 0 for the sequential oracle.
    pub blocks_flushed: u64,
}

impl ThreadStats {
    /// Adds one streaming batch's counters to this running total. `probes`
    /// is the persistent table's cumulative count, so it is taken, not
    /// summed.
    pub(crate) fn accumulate(&mut self, batch: &ThreadStats) {
        self.rows_encoded += batch.rows_encoded;
        self.local_updates += batch.local_updates;
        self.forwarded += batch.forwarded;
        self.drained += batch.drained;
        self.blocks_flushed += batch.blocks_flushed;
        self.probes = batch.probes;
    }
}

/// Aggregated statistics from one construction run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BuildStats {
    /// One entry per thread, in thread-index order.
    pub per_thread: Vec<ThreadStats>,
}

impl BuildStats {
    /// Number of threads that participated.
    pub fn threads(&self) -> usize {
        self.per_thread.len()
    }

    /// Total rows encoded (should equal `m`).
    pub fn total_rows(&self) -> u64 {
        self.per_thread.iter().map(|t| t.rows_encoded).sum()
    }

    /// Total keys applied locally in stage 1.
    pub fn total_local(&self) -> u64 {
        self.per_thread.iter().map(|t| t.local_updates).sum()
    }

    /// Total keys forwarded through queues.
    pub fn total_forwarded(&self) -> u64 {
        self.per_thread.iter().map(|t| t.forwarded).sum()
    }

    /// Total keys drained in stage 2 (must equal [`total_forwarded`](Self::total_forwarded)).
    pub fn total_drained(&self) -> u64 {
        self.per_thread.iter().map(|t| t.drained).sum()
    }

    /// Total blocks of foreign keys shipped across threads (0 for the
    /// oracle).
    pub fn total_blocks_flushed(&self) -> u64 {
        self.per_thread.iter().map(|t| t.blocks_flushed).sum()
    }

    /// Fraction of keys that crossed threads, in `[0, 1]`.
    pub fn forward_fraction(&self) -> f64 {
        let rows = self.total_rows();
        if rows == 0 {
            0.0
        } else {
            self.total_forwarded() as f64 / rows as f64
        }
    }

    /// Load imbalance of stage-2 work: `max_drained / mean_drained`
    /// (1.0 = perfectly balanced; meaningless if nothing was forwarded).
    pub fn drain_imbalance(&self) -> f64 {
        let p = self.per_thread.len();
        let total = self.total_drained();
        if p == 0 || total == 0 {
            return 1.0;
        }
        let mean = total as f64 / p as f64;
        let max = self.per_thread.iter().map(|t| t.drained).max().unwrap_or(0) as f64;
        max / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(v: Vec<(u64, u64, u64, u64)>) -> BuildStats {
        BuildStats {
            per_thread: v
                .into_iter()
                .map(
                    |(rows_encoded, local_updates, forwarded, drained)| ThreadStats {
                        rows_encoded,
                        local_updates,
                        forwarded,
                        drained,
                        probes: 0,
                        blocks_flushed: 0,
                    },
                )
                .collect(),
        }
    }

    #[test]
    fn totals_sum_per_thread() {
        let s = stats(vec![(10, 4, 6, 5), (10, 5, 5, 6)]);
        assert_eq!(s.threads(), 2);
        assert_eq!(s.total_rows(), 20);
        assert_eq!(s.total_local(), 9);
        assert_eq!(s.total_forwarded(), 11);
        assert_eq!(s.total_drained(), 11);
        assert!((s.forward_fraction() - 0.55).abs() < 1e-12);
    }

    #[test]
    fn imbalance_of_balanced_run_is_one() {
        let s = stats(vec![(10, 5, 5, 5), (10, 5, 5, 5)]);
        assert!((s.drain_imbalance() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn imbalance_detects_skew() {
        let s = stats(vec![(10, 0, 10, 20), (10, 0, 10, 0)]);
        assert!((s.drain_imbalance() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_cases() {
        let s = BuildStats::default();
        assert_eq!(s.forward_fraction(), 0.0);
        assert_eq!(s.drain_imbalance(), 1.0);
    }
}
