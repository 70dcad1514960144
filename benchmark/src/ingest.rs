//! `ingest-fig3`: wait-free table construction alone on uniform binary data
//! — the shape of the paper's Fig. 3.
//!
//! Construction is the whole job here but a sliver of the other workloads,
//! so builder changes show here and predict no change elsewhere.

use crate::harness::{
    build_values, construct_values, job_values, passes, set_up, table_digest, thread_order,
    traced_values, warm_up, RunConfig, Times, P2,
};
use crate::metrics::{fnv_states, Outcome, Tally, Values};
use crate::screen::uniform_data;
use crate::span::{timed, Clock, Tracer};
use wfbn_core::obs::{CoreMetrics, MetricsReport};
use wfbn_core::{sequential_build, waitfree_build, waitfree_build_recorded, PotentialTable};
use wfbn_data::Dataset;

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
    rows: 4_000_000,
};

/// What a built table must agree on with the sequential reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Summary {
    entries: usize,
    total: u64,
    digest: u64,
}

fn summary(table: &PotentialTable) -> Summary {
    Summary {
        entries: table.num_entries(),
        total: table.total_count(),
        digest: table_digest(table.iter()),
    }
}

/// Runs the workload.
pub fn run(cfg: &RunConfig, sizes: &Sizes) -> Outcome {
    let (data, setup_s) = set_up(cfg, || uniform_data(sizes.vars, sizes.rows, cfg.seed));
    let mut out = Outcome {
        rows_fnv: fnv_states(data.rows()),
        ..Outcome::default()
    };
    let reference = match sequential_build(&data) {
        Ok(built) => summary(&built.table),
        Err(e) => {
            out.tally
                .check(false, || format!("reference build failed: {e}"));
            return out;
        }
    };
    let check = |tally: &mut Tally, result: Result<Summary, String>| match result {
        Ok(got) => tally.check(got == reference, || {
            format!("table {got:?} differs from the sequential build {reference:?}")
        }),
        Err(e) => tally.check(false, || format!("build failed: {e}")),
    };
    // The table is summarized and dropped before the next build starts, so
    // memory holds one table at a time.
    let ingest = |p: usize| waitfree_build(&data, p).map_err(|e| e.to_string());

    let tally = &mut out.tally;
    warm_up(|p| check(tally, ingest(p).map(|b| summary(&b.table))));
    let clock = Clock::start();
    let mut times = Times::new(1);
    let mut tracer = Tracer::default();
    let mut traced: Vec<TracedIngest> = Vec::new();
    passes(&clock, cfg.seconds, |pass| {
        for p in thread_order(pass) {
            let (result, secs) = timed(|| ingest(p));
            times.push(p, 0, secs);
            check(tally, result.map(|b| summary(&b.table)));
        }
        if cfg.trace {
            let job = traced_ingest(&mut tracer, &data);
            check(tally, job.summary.clone());
            traced.push(job);
        }
    });

    out.values = job_values(setup_s, &times);
    if cfg.trace {
        out.values
            .extend(traced_values(&tracer, &traced, 1, |job, ledger| {
                let mut v = Values::new();
                let entries = job.summary.as_ref().map_or(0, |s| s.entries);
                let build_s = ledger.layer_s("core.construct");
                build_values(build_s, data.num_samples(), entries, &mut v);
                construct_values(&job.build, &mut v);
                v
            }));
        crate::write_spans("ingest-fig3", &tracer, &mut out.tally);
    }
    out
}

/// What one traced build produced besides its span.
struct TracedIngest {
    summary: Result<Summary, String>,
    build: MetricsReport,
}

/// The build at P=2 inside a span, with `CoreMetrics`.
fn traced_ingest(t: &mut Tracer, data: &Dataset) -> TracedIngest {
    let metrics = CoreMetrics::new(P2);
    let built = t.span("ingest", |t| {
        t.span("core.construct", |_| {
            waitfree_build_recorded(data, P2, &metrics)
        })
    });
    TracedIngest {
        summary: built.map(|b| summary(&b.table)).map_err(|e| e.to_string()),
        build: metrics.snapshot(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_ingest_runs_checks_and_traces() {
        let cfg = RunConfig {
            seed: 7,
            seconds: 0.0,
            trace: true,
        };
        let out = run(
            &cfg,
            &Sizes {
                vars: 12,
                rows: 5_000,
            },
        );
        assert_eq!(out.tally.failed, 0, "{:?}", out.tally.failures);
        assert_eq!(out.tally.attempted, 2 + 3 + 1);
        assert_eq!(out.values["core.construct.entries"] as usize, {
            let data = uniform_data(12, 5_000, 7);
            sequential_build(&data).unwrap().table.num_entries()
        });
        assert!(out.values["core.construct.forwarded_frac"] > 0.3);
        crate::assert_known_names(&out.values);
    }
}
