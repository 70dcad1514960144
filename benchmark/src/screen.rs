//! `screen-fig5`: wait-free build plus all-pairs mutual information on
//! uniform binary data — the shape of the paper's Fig. 5.
//!
//! All-pairs marginalization is nearly all of this job and there are no CI
//! tests, so it moves with `core.allpairs` alone; changes to the learner's
//! CI phases predict no change here.

use crate::harness::{
    allpairs_values, build_values, construct_values, job_values, passes, set_up, thread_order,
    traced_values, warm_up, RunConfig, Times, P2,
};
use crate::metrics::{fnv_states, Outcome, Tally, Values};
use crate::span::{timed, Clock, Tracer};
use wfbn_core::obs::{CoreMetrics, MetricsReport};
use wfbn_core::{
    all_pairs_mi, all_pairs_mi_recorded, sequential_build, waitfree_build, waitfree_build_recorded,
    MiMatrix,
};
use wfbn_data::{Dataset, Generator, Schema, UniformIndependent};

/// Input sizes of the workload.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Binary variables.
    pub vars: usize,
    /// Rows.
    pub rows: usize,
}

/// The benchmark's size.
pub const FULL: Sizes = Sizes {
    vars: 30,
    rows: 100_000,
};

/// Largest MI difference from the single-thread reference that counts as
/// equal (floating-point summation order differs across schedules).
const MI_TOLERANCE: f64 = 1e-12;

/// Uniform i.i.d. binary data, the paper's §V-A input.
pub fn uniform_data(vars: usize, rows: usize, seed: u64) -> Dataset {
    let schema = Schema::uniform(vars, 2).expect("a uniform binary schema is valid");
    UniformIndependent::new(schema).generate(rows, seed)
}

fn screen(data: &Dataset, p: usize) -> Result<MiMatrix, String> {
    let built = waitfree_build(data, p).map_err(|e| e.to_string())?;
    Ok(all_pairs_mi(&built.table, p))
}

/// Runs the workload.
pub fn run(cfg: &RunConfig, sizes: &Sizes) -> Outcome {
    let (data, setup_s) = set_up(cfg, || uniform_data(sizes.vars, sizes.rows, cfg.seed));
    let mut out = Outcome {
        rows_fnv: fnv_states(data.rows()),
        ..Outcome::default()
    };
    let reference = match sequential_build(&data) {
        Ok(built) => all_pairs_mi(&built.table, 1),
        Err(e) => {
            out.tally
                .check(false, || format!("reference build failed: {e}"));
            return out;
        }
    };
    let check = |tally: &mut Tally, result: Result<MiMatrix, String>| match result {
        Ok(mi) => {
            let diff = mi.max_abs_diff(&reference);
            tally.check(diff <= MI_TOLERANCE, || {
                format!("MI differs from the single-thread reference by {diff:e}")
            });
        }
        Err(e) => tally.check(false, || format!("screen failed: {e}")),
    };

    let tally = &mut out.tally;
    warm_up(|p| check(tally, screen(&data, p)));
    let clock = Clock::start();
    let mut times = Times::new(1);
    let mut tracer = Tracer::default();
    let mut traced: Vec<TracedScreen> = Vec::new();
    passes(&clock, cfg.seconds, |pass| {
        for p in thread_order(pass) {
            let (result, secs) = timed(|| screen(&data, p));
            times.push(p, 0, secs);
            check(tally, result);
        }
        if cfg.trace {
            let job = traced_screen(&mut tracer, &data);
            check(tally, job.mi.clone());
            traced.push(job);
        }
    });

    out.values = job_values(setup_s, &times);
    if cfg.trace {
        out.values
            .extend(traced_values(&tracer, &traced, 1, |job, ledger| {
                let mut v = Values::new();
                let build_s = ledger.layer_s("core.construct");
                build_values(build_s, data.num_samples(), job.entries, &mut v);
                construct_values(&job.build, &mut v);
                let mi_s = ledger.layer_s("core.allpairs");
                allpairs_values(&job.mi_report, mi_s, ledger.job_s, &mut v);
                v
            }));
        crate::write_spans("screen-fig5", &tracer, &mut out.tally);
    }
    out
}

/// What one traced screen produced besides its spans.
struct TracedScreen {
    mi: Result<MiMatrix, String>,
    build: MetricsReport,
    mi_report: MetricsReport,
    entries: usize,
}

/// The screen job at P=2 with spans around the build and all-pairs calls
/// and `CoreMetrics` on both.
fn traced_screen(t: &mut Tracer, data: &Dataset) -> TracedScreen {
    let build_metrics = CoreMetrics::new(P2);
    let mi_metrics = CoreMetrics::new(P2);
    let mut entries = 0;
    let mi = t.span("screen", |t| {
        let built = t.span("core.construct", |_| {
            waitfree_build_recorded(data, P2, &build_metrics)
        });
        let table = built.map_err(|e| e.to_string())?.table;
        entries = table.num_entries();
        Ok(t.span("core.allpairs", |_| {
            all_pairs_mi_recorded(&table, P2, &mi_metrics)
        }))
    });
    TracedScreen {
        mi,
        build: build_metrics.snapshot(),
        mi_report: mi_metrics.snapshot(),
        entries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_screen_runs_checks_and_traces() {
        let cfg = RunConfig {
            seed: 7,
            seconds: 0.0,
            trace: true,
        };
        let out = run(
            &cfg,
            &Sizes {
                vars: 8,
                rows: 2_000,
            },
        );
        assert_eq!(out.tally.failed, 0, "{:?}", out.tally.failures);
        assert_eq!(out.tally.attempted, 2 + 3 + 1);
        assert_eq!(out.values["core.allpairs.pairs_scanned"], 28.0);
        assert!(out.values["core.allpairs.share"] > 0.0);
        crate::assert_known_names(&out.values);
    }
}
