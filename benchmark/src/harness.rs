//! What every workload shares: the run settings, the set-up and measurement
//! loops, and the conversion of spans and `CoreMetrics` reports into
//! per-layer values.

use crate::metrics::Values;
use crate::span::{self_times, Clock, Tracer};
use crate::stats::{median, ratio};
use std::collections::BTreeMap;
use wfbn_core::obs::{Counter, MetricsReport, Stage};

/// The thread counts every workload runs at: the host's two hardware
/// threads and the single-thread baseline. Never more than `nproc`.
pub const P2: usize = 2;
/// The single-thread baseline.
pub const P1: usize = 1;

/// Set-up repeats at least this often, and for at least [`SETUP_SHARE`] of
/// the measurement budget; `setup_s` is the median. Cheap set-ups thus
/// repeat many times, so a burst of host contention a few repetitions long
/// cannot move the median.
const SETUP_MIN_REPS: usize = 5;
/// See [`SETUP_MIN_REPS`].
const SETUP_SHARE: f64 = 0.04;

/// Settings of one run.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Input seed; the same seed gives the same inputs.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics).
    pub trace: bool,
}

/// Runs `make` repeatedly (see [`SETUP_MIN_REPS`]) and returns the last
/// result with the median wall seconds. Each earlier result is dropped
/// before the next is made, so memory holds one copy of the inputs.
pub fn set_up<T>(cfg: &RunConfig, mut make: impl FnMut() -> T) -> (T, f64) {
    let total = Clock::start();
    let mut secs = Vec::new();
    let mut last = None;
    while secs.len() < SETUP_MIN_REPS || total.secs() < SETUP_SHARE * cfg.seconds {
        drop(last.take());
        let clock = Clock::start();
        last = Some(make());
        secs.push(clock.secs());
    }
    (last.expect("at least one set-up"), median(&secs))
}

/// Runs `pass(k)` for k = 0, 1, … : at least once, and again while one more
/// pass as long as the longest so far still ends within `seconds` of
/// `clock`'s start. Every pass runs the same work, so each input is measured
/// equally often.
pub fn passes(clock: &Clock, seconds: f64, mut pass: impl FnMut(usize)) {
    let mut longest: f64 = 0.0;
    let mut k = 0;
    loop {
        let start = clock.secs();
        pass(k);
        let end = clock.secs();
        longest = longest.max(end - start);
        k += 1;
        if end + longest > seconds {
            break;
        }
    }
}

/// The thread counts of one measured step, alternating which runs first so
/// neither always inherits the other's warm caches.
pub fn thread_order(step: usize) -> [usize; 2] {
    if step.is_multiple_of(2) {
        [P1, P2]
    } else {
        [P2, P1]
    }
}

/// Untimed warm-up: one job at each thread count before measurement.
pub fn warm_up(mut job: impl FnMut(usize)) {
    for p in [P1, P2] {
        job(p);
    }
}

/// Job wall times of one run, by thread count and input.
#[derive(Debug)]
pub struct Times {
    /// `reps[p - 1][input]`: every measured repetition, in seconds.
    reps: [Vec<Vec<f64>>; 2],
}

impl Times {
    /// No repetitions yet of `inputs` inputs.
    pub fn new(inputs: usize) -> Self {
        Times {
            reps: [vec![Vec::new(); inputs], vec![Vec::new(); inputs]],
        }
    }

    /// Records one repetition of the job on `input` at `p` threads.
    pub fn push(&mut self, p: usize, input: usize, secs: f64) {
        self.reps[p - 1][input].push(secs);
    }

    /// Seconds per job at `p` threads: each input's fastest repetition,
    /// averaged over the inputs. Interference from other tenants of a shared
    /// host only ever adds time, and it comes and goes within a run, so the
    /// fastest repetition is the steadiest estimate of the job's own cost.
    pub fn job_s(&self, p: usize) -> f64 {
        let inputs = &self.reps[p - 1];
        let fastest = inputs
            .iter()
            .map(|reps| reps.iter().copied().fold(f64::INFINITY, f64::min));
        fastest.sum::<f64>() / inputs.len() as f64
    }
}

/// The job-level values of one workload: `setup_s`, `job_s` (P=2) and
/// `job_s_p1`.
pub fn job_values(setup_s: f64, times: &Times) -> Values {
    let mut v = Values::new();
    v.insert("setup_s", setup_s);
    v.insert("job_s", times.job_s(P2));
    v.insert("job_s_p1", times.job_s(P1));
    v
}

/// Per-metric medians over several jobs' values.
pub fn median_values(jobs: &[Values]) -> Values {
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for job in jobs {
        for (&name, &value) in job {
            by_name.entry(name).or_default().push(value);
        }
    }
    by_name
        .into_iter()
        .map(|(name, values)| (name, median(&values)))
        .collect()
}

/// One traced job: its wall time and the self time of each layer in it.
#[derive(Debug)]
pub struct Ledger {
    /// Wall seconds of the job's root span.
    pub job_s: f64,
    /// Self seconds of each span name in the job, the root's included.
    pub self_s: BTreeMap<&'static str, f64>,
    /// Root self time over root duration: time the layers do not account for.
    pub unaccounted_frac: f64,
}

impl Ledger {
    /// Self seconds of layer `name` (0 if the job has no such span).
    pub fn layer_s(&self, name: &str) -> f64 {
        self.self_s.get(name).copied().unwrap_or(0.0)
    }
}

/// The per-layer values of a traced run. `jobs` are the traced jobs in the
/// order they ran, cycling through `inputs` inputs; `per_job` turns one job
/// and its ledger into values. Returns their medians, plus `trace.job_s` on
/// the same footing as `job_s` (each input's fastest traced job, averaged)
/// and the ledger law's `trace.unaccounted_frac`.
pub fn traced_values<J>(
    tracer: &Tracer,
    jobs: &[J],
    inputs: usize,
    per_job: impl Fn(&J, &Ledger) -> Values,
) -> Values {
    let mut times = Times::new(inputs);
    let per: Vec<Values> = jobs
        .iter()
        .zip(ledgers(tracer))
        .enumerate()
        .map(|(k, (job, ledger))| {
            times.push(P2, k % inputs, ledger.job_s);
            let mut v = per_job(job, &ledger);
            v.insert("trace.unaccounted_frac", ledger.unaccounted_frac);
            v
        })
        .collect();
    let mut out = median_values(&per);
    out.insert("trace.job_s", times.job_s(P2));
    out
}

/// The ledger of every traced job, in job order.
fn ledgers(tracer: &Tracer) -> Vec<Ledger> {
    let spans = tracer.spans();
    let own = self_times(spans);
    let mut out: Vec<Ledger> = Vec::new();
    for (s, own_ns) in spans.iter().zip(own) {
        let own_s = own_ns as f64 / 1e9;
        if s.parent.is_none() {
            out.push(Ledger {
                job_s: s.duration_ns() as f64 / 1e9,
                self_s: BTreeMap::new(),
                unaccounted_frac: ratio(own_ns as f64, s.duration_ns() as f64),
            });
        }
        let job = out.last_mut().expect("a root span opens every job");
        *job.self_s.entry(s.name).or_default() += own_s;
    }
    out
}

/// `core.construct.*` values a build's `CoreMetrics` report holds: stage
/// times (slowest core), routing and probing per row, and table growth.
pub fn construct_values(r: &MetricsReport, v: &mut Values) {
    let rows = r.total(Counter::RowsEncoded) as f64;
    let ms = |s| r.stage_max_ns(s) as f64 / 1e6;
    v.insert("core.construct.stage1_ms", ms(Stage::Encode));
    v.insert("core.construct.barrier_ms", ms(Stage::Barrier));
    v.insert("core.construct.stage2_ms", ms(Stage::Drain));
    v.insert(
        "core.construct.forwarded_frac",
        ratio(r.total(Counter::Forwarded) as f64, rows),
    );
    v.insert(
        "core.construct.probes_per_row",
        ratio(r.total(Counter::Probes) as f64, rows),
    );
    v.insert(
        "core.construct.table_grows",
        r.total(Counter::TableGrows) as f64,
    );
}

/// `core.construct.build_s` and `.rows_per_s` for a build of `rows` rows.
pub fn build_values(build_s: f64, rows: usize, entries: usize, v: &mut Values) {
    v.insert("core.construct.build_s", build_s);
    v.insert("core.construct.rows_per_s", ratio(rows as f64, build_s));
    v.insert("core.construct.entries", entries as f64);
}

/// `core.allpairs.*` values from an all-pairs MI report and its span.
pub fn allpairs_values(r: &MetricsReport, mi_s: f64, job_s: f64, v: &mut Values) {
    let entries = r.total(Counter::EntriesScanned) as f64;
    v.insert("core.allpairs.mi_s", mi_s);
    v.insert(
        "core.allpairs.pairs_scanned",
        r.total(Counter::PairsScanned) as f64,
    );
    v.insert("core.allpairs.entries_scanned", entries);
    v.insert("core.allpairs.entries_per_s", ratio(entries, mi_s));
    v.insert("core.allpairs.share", ratio(mi_s, job_s));
}

/// Order-independent digest of a table's `(key, count)` entries.
pub fn table_digest(entries: impl Iterator<Item = (u64, u64)>) -> u64 {
    entries.fold(0u64, |acc, (key, count)| {
        acc.wrapping_add(splitmix(key ^ splitmix(count)))
    })
}

/// The per-input seed of input `i` of a run seeded with `seed`.
pub fn sub_seed(seed: u64, i: usize) -> u64 {
    splitmix(seed ^ splitmix(i as u64))
}

fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_time_averages_each_inputs_fastest_repetition() {
        let mut t = Times::new(2);
        for (input, secs) in [(0, 3.0), (0, 1.0), (1, 5.0), (1, 2.0), (0, 4.0)] {
            t.push(P2, input, secs);
            t.push(P1, input, 2.0 * secs);
        }
        assert_eq!(t.job_s(P2), 1.5);
        assert_eq!(t.job_s(P1), 3.0);
    }

    #[test]
    fn passes_run_at_least_once_and_stop_before_the_budget() {
        let clock = Clock::start();
        let mut n = 0;
        passes(&clock, 0.0, |_| n += 1);
        assert_eq!(n, 1);
    }

    #[test]
    fn ledgers_split_jobs_and_sum_self_time_by_name() {
        let mut t = Tracer::default();
        for _ in 0..2 {
            t.span("job", |t| {
                t.span("a", |_| ());
                t.span("a", |_| ());
            });
        }
        let l = ledgers(&t);
        assert_eq!(l.len(), 2);
        for job in &l {
            let parts: f64 = job.self_s.values().sum();
            assert!((parts - job.job_s).abs() < 1e-9, "{job:?}");
            assert!((0.0..=1.0).contains(&job.unaccounted_frac));
        }
    }

    #[test]
    fn digest_ignores_order_but_not_counts() {
        let a = table_digest([(1, 2), (3, 4)].into_iter());
        assert_eq!(a, table_digest([(3, 4), (1, 2)].into_iter()));
        assert_ne!(a, table_digest([(1, 2), (3, 5)].into_iter()));
    }
}
