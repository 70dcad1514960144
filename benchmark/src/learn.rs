//! `learn-alarm`: the `wfbn learn` job — Cheng's draft, thicken, thin and
//! orient phases — on samples of the alarm-like network (37 variables,
//! arity 2–4).
//!
//! CI tests are most of this job and table construction almost none of it,
//! so CI batching or marginal-lattice work shows here and nowhere else.
//!
//! A run learns several samples, each drawn with its own seed derived from
//! the run's seed, and reports the mean over them: one sample's CI-test
//! count moves with its seed (954–1110 tests over ten seeds at 20k rows),
//! enough on its own to move the job time by ±8%.

use crate::harness::{
    allpairs_values, build_values, construct_values, job_values, passes, set_up, sub_seed,
    thread_order, traced_values, warm_up, RunConfig, Times, P2,
};
use crate::metrics::{fnv_states, Outcome, Tally, Values};
use crate::span::{timed, Clock, Tracer};
use crate::stats::{median, ratio};
use wfbn_bn::cheng::{draft, orient, thicken, thin, ChengLearner, LearnError, SepSets};
use wfbn_bn::metrics::skeleton_report;
use wfbn_bn::{repository, LearnResult, PDag, Ug};
use wfbn_core::obs::{CoreMetrics, MetricsReport};
use wfbn_core::{all_pairs_mi_recorded, waitfree_build_recorded, MiMatrix};
use wfbn_data::Dataset;

/// Input sizes of the workload.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Samples learned per run.
    pub datasets: usize,
    /// Rows per sample.
    pub rows: usize,
}

/// The benchmark's size.
pub const FULL: Sizes = Sizes {
    datasets: 5,
    rows: 20_000,
};

/// Lowest skeleton F1 against the generating network that counts as a
/// correct learn.
const MIN_F1: f64 = 0.85;

fn learner(threads: usize) -> ChengLearner {
    ChengLearner {
        threads,
        ..ChengLearner::default()
    }
}

/// Runs the workload.
pub fn run(cfg: &RunConfig, sizes: &Sizes) -> Outcome {
    let net = repository::alarm_like();
    let (data, setup_s) = set_up(cfg, || {
        (0..sizes.datasets)
            .map(|i| net.sample(sizes.rows, sub_seed(cfg.seed, i)))
            .collect::<Vec<Dataset>>()
    });
    let mut out = Outcome {
        rows_fnv: fnv_states(data.iter().flat_map(Dataset::rows)),
        ..Outcome::default()
    };
    let mut checker = Checker {
        truth: net.dag().skeleton(),
        reference: vec![None; data.len()],
        f1: Vec::new(),
    };

    let tally = &mut out.tally;
    warm_up(|p| checker.check(tally, 0, learned(learner(p).learn(&data[0]))));
    let clock = Clock::start();
    let mut times = Times::new(data.len());
    let mut tracer = Tracer::default();
    let mut traced: Vec<TracedJob> = Vec::new();
    passes(&clock, cfg.seconds, |pass| {
        for (i, d) in data.iter().enumerate() {
            for p in thread_order(pass + i) {
                let (result, secs) = timed(|| learner(p).learn(d));
                times.push(p, i, secs);
                checker.check(tally, i, learned(result));
            }
            if cfg.trace {
                let job = traced_learn(&mut tracer, d);
                checker.check(tally, i, job.learned.clone());
                traced.push(job);
            }
        }
    });

    out.values = job_values(setup_s, &times);
    if cfg.trace {
        out.values.extend(traced_values(
            &tracer,
            &traced,
            data.len(),
            |job, ledger| {
                let mut v = Values::new();
                let mi_s = ledger.layer_s("core.allpairs");
                let thicken_s = ledger.layer_s("bn.cheng.thicken");
                let thin_s = ledger.layer_s("bn.cheng.thin");
                let tests = (job.thicken_tests + job.thin_tests) as f64;
                build_values(
                    ledger.layer_s("core.construct"),
                    job.rows,
                    job.entries,
                    &mut v,
                );
                construct_values(&job.build, &mut v);
                allpairs_values(&job.mi_report, mi_s, ledger.job_s, &mut v);
                v.insert("bn.cheng.draft_s", ledger.layer_s("bn.cheng.draft"));
                v.insert("bn.cheng.thicken_s", thicken_s);
                v.insert("bn.cheng.thin_s", thin_s);
                v.insert("bn.cheng.orient_s", ledger.layer_s("bn.cheng.orient"));
                v.insert("bn.cheng.draft_edges", job.draft_edges as f64);
                v.insert("bn.cheng.deferred_pairs", job.deferred_pairs as f64);
                v.insert("bn.ci.tests", tests);
                v.insert("bn.ci.thicken_tests", job.thicken_tests as f64);
                v.insert("bn.ci.thin_tests", job.thin_tests as f64);
                v.insert(
                    "bn.ci.ms_per_test",
                    ratio((thicken_s + thin_s) * 1e3, tests),
                );
                v.insert("bn.ci.entries_scanned_computed", tests * job.entries as f64);
                v
            },
        ));
        out.values
            .insert("bn.cheng.skeleton_f1", median(&checker.f1));
        crate::write_spans("learn-alarm", &tracer, &mut out.tally);
    }
    out
}

/// What a learn produced that the checks compare.
#[derive(Debug, Clone)]
struct Learned {
    cpdag: PDag,
    skeleton: Ug,
    mi: MiMatrix,
}

fn learned(result: Result<LearnResult, LearnError>) -> Result<Learned, String> {
    result
        .map(|r| Learned {
            cpdag: r.cpdag,
            skeleton: r.skeleton,
            mi: r.mi,
        })
        .map_err(|e| e.to_string())
}

/// Checks each learn against the first one from the same sample — the same
/// pattern, and the same all-pairs MI within 1e-12, which catches a count
/// off by a few rows that leaves the pattern unchanged — and that first one's
/// skeleton against the generating network.
struct Checker {
    truth: Ug,
    reference: Vec<Option<Learned>>,
    f1: Vec<f64>,
}

impl Checker {
    fn check(&mut self, tally: &mut Tally, sample: usize, result: Result<Learned, String>) {
        let got = match result {
            Ok(got) => got,
            Err(e) => return tally.check(false, || format!("sample {sample}: learn failed: {e}")),
        };
        match &self.reference[sample] {
            Some(reference) => {
                let diff = got.mi.max_abs_diff(&reference.mi);
                tally.check(got.cpdag == reference.cpdag && diff <= 1e-12, || {
                    format!(
                        "sample {sample}: pattern or MI (by {diff:e}) differs across thread \
                         counts or runs"
                    )
                })
            }
            None => {
                let f1 = skeleton_report(&self.truth, &got.skeleton).f1();
                self.f1.push(f1);
                tally.check(f1 >= MIN_F1, || {
                    format!("sample {sample}: skeleton F1 {f1:.3} below {MIN_F1}")
                });
                self.reference[sample] = Some(got);
            }
        }
    }
}

/// What one traced learn produced besides its spans.
struct TracedJob {
    learned: Result<Learned, String>,
    build: MetricsReport,
    mi_report: MetricsReport,
    rows: usize,
    entries: usize,
    draft_edges: usize,
    deferred_pairs: usize,
    thicken_tests: usize,
    thin_tests: usize,
}

/// `ChengLearner::learn` at P=2, phase by phase through the same public
/// entry points, with a span around each phase and `CoreMetrics` on the
/// build and all-pairs calls.
fn traced_learn(t: &mut Tracer, data: &Dataset) -> TracedJob {
    let l = learner(P2);
    let build_metrics = CoreMetrics::new(P2);
    let mi_metrics = CoreMetrics::new(P2);
    let (mut entries, mut draft_edges, mut deferred_pairs) = (0, 0, 0);
    let (mut thicken_tests, mut thin_tests) = (0, 0);
    let learned = t.span("learn", |t| {
        let built = t.span("core.construct", |_| {
            waitfree_build_recorded(data, P2, &build_metrics)
        });
        let table = built.map_err(|e| e.to_string())?.table;
        entries = table.num_entries();
        let mi = t.span("core.allpairs", |_| {
            all_pairs_mi_recorded(&table, P2, &mi_metrics)
        });
        let (mut graph, deferred, mut sepsets) = t.span("bn.cheng.draft", |_| {
            let (graph, deferred) = draft(&mi, l.epsilon);
            // Pairs below ε are marginally independent: empty separating set.
            let sepsets: SepSets = mi
                .iter_pairs()
                .filter(|&(_, _, value)| value <= l.epsilon)
                .map(|(i, j, _)| ((i, j), Vec::new()))
                .collect();
            (graph, deferred, sepsets)
        });
        draft_edges = graph.num_edges();
        deferred_pairs = deferred.len();
        t.span("bn.cheng.thicken", |_| {
            thicken(
                &mut graph,
                &deferred,
                &table,
                l.ci_test,
                l.threads,
                l.max_condition_size,
                &mut sepsets,
                &mut thicken_tests,
            )
        });
        t.span("bn.cheng.thin", |_| {
            thin(
                &mut graph,
                &table,
                l.ci_test,
                l.threads,
                l.max_condition_size,
                &mut sepsets,
                &mut thin_tests,
            )
        });
        let cpdag = t.span("bn.cheng.orient", |_| orient(&graph, &sepsets));
        Ok(Learned {
            cpdag,
            skeleton: graph,
            mi,
        })
    });
    TracedJob {
        learned,
        build: build_metrics.snapshot(),
        mi_report: mi_metrics.snapshot(),
        rows: data.num_samples(),
        entries,
        draft_edges,
        deferred_pairs,
        thicken_tests,
        thin_tests,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_learn_runs_checks_and_traces() {
        let cfg = RunConfig {
            seed: 7,
            seconds: 0.0,
            trace: true,
        };
        let out = run(
            &cfg,
            &Sizes {
                datasets: 2,
                rows: 3_000,
            },
        );
        assert_eq!(out.tally.failed, 0, "{:?}", out.tally.failures);
        // Warm-up 2 + one pass of 2 samples × (2 untraced + 1 traced).
        assert_eq!(out.tally.attempted, 2 + 2 * 3 + 1);
        assert!(out.values["job_s"] > 0.0 && out.values["job_s_p1"] > 0.0);
        assert!(out.values["bn.ci.tests"] > 0.0);
        assert!(out.values["trace.unaccounted_frac"] < 0.05);
        crate::assert_known_names(&out.values);
    }
}
