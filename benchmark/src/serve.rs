//! `serve-mixed`: one closed-loop protocol session over a serve engine,
//! replaying the wfbn-workload `uniform` scenario through
//! `Session::handle_line` — every batch is an `INGEST` line and a `SYNC`,
//! followed by that epoch's share of MI / MARGINAL / CPT query lines.
//!
//! This is the marginalization layer serving reads beside writes. Every
//! epoch flushes the reader's cache, so a cache or scan change shows in
//! query time and an absorption change shows in publish time.
//!
//! One session, not two: a second free-running reader made its own latency
//! and the process's memory swing between runs far beyond any bound.

use crate::harness::{
    build_values, construct_values, job_values, median_values, passes, set_up, thread_order,
    traced_values, warm_up, RunConfig, Times, P2,
};
use crate::metrics::{fnv1a, fnv_states, Outcome, Tally, Values};
use crate::span::{timed, Clock, Tracer};
use crate::stats::{median, percentile, ratio};
use std::sync::Arc;
use wfbn_core::entropy::mutual_information;
use wfbn_core::obs::{CoreMetrics, Counter, Recorder, Stage};
use wfbn_core::{marginalize, sequential_build, PotentialTable};
use wfbn_data::{Dataset, Schema};
use wfbn_serve::{cpt_rows, Engine, EngineConfig, QueryReader, ServeError, Session};
use wfbn_workload::{generate, GeneratedWorkload, IngestEvent, Query, Scenario, WorkloadSpec};

/// Input sizes of the workload.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Rows ingested over the session.
    pub rows: usize,
    /// `INGEST` + `SYNC` batches the rows arrive in.
    pub batches: usize,
    /// Query lines, spread evenly over the epochs.
    pub queries: usize,
}

/// The benchmark's size: 100 queries per epoch, as in the scenario's
/// read-heavy steady state.
pub const FULL: Sizes = Sizes {
    rows: 200_000,
    batches: 20,
    queries: 2_000,
};

/// Every this-many-th query answer is recomputed offline from the prefix
/// build at its epoch.
const CHECK_EVERY: usize = 50;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Admit,
    Sync,
    Query { index: usize, epoch: u64 },
}

impl Kind {
    fn span(self) -> &'static str {
        match self {
            Kind::Admit => "serve.admit",
            Kind::Sync => "serve.sync",
            Kind::Query { .. } => "serve.query",
        }
    }
}

/// The session's protocol lines and the data they carry.
struct Script {
    schema: Schema,
    lines: Vec<(String, Kind)>,
    queries: Vec<Query>,
    /// Rows of each batch, in submission order.
    batches: Vec<Vec<Vec<u16>>>,
}

fn script(w: &GeneratedWorkload) -> Script {
    let batches: Vec<Vec<Vec<u16>>> = w
        .ingest
        .iter()
        .filter_map(|e| match e {
            IngestEvent::Batch(rows) => Some(rows.clone()),
            IngestEvent::Idle(_) => None,
        })
        .collect();
    let queries: Vec<Query> = w.reader_queries.concat();
    let mut lines = Vec::with_capacity(2 * batches.len() + queries.len());
    for (b, rows) in batches.iter().enumerate() {
        let rendered: Vec<String> = rows.iter().map(|row| join(row.iter(), ",")).collect();
        lines.push((format!("INGEST {}", rendered.join("|")), Kind::Admit));
        lines.push(("SYNC".to_string(), Kind::Sync));
        let epoch = b as u64 + 1;
        let (lo, hi) = (
            b * queries.len() / batches.len(),
            (b + 1) * queries.len() / batches.len(),
        );
        for (index, q) in queries.iter().enumerate().take(hi).skip(lo) {
            lines.push((q.protocol_line(), Kind::Query { index, epoch }));
        }
    }
    Script {
        schema: w.schema.clone(),
        lines,
        queries,
        batches,
    }
}

fn join<T: ToString>(items: impl Iterator<Item = T>, sep: &str) -> String {
    items.map(|x| x.to_string()).collect::<Vec<_>>().join(sep)
}

/// What one session returned.
struct SessionRun {
    /// Wall nanoseconds of each script line.
    line_ns: Vec<u64>,
    /// Per line: the reader's cache size or pinned epoch changed across it.
    miss: Vec<bool>,
    /// Response of each query line, by query index.
    answers: Vec<String>,
    responses_fnv: u64,
    errors: Vec<String>,
    refused: u64,
    table: PotentialTable,
}

/// Replays the script through one session and finishes the engine.
fn run_session<R: Recorder + Send + Sync + 'static>(
    started: Result<(Engine<R>, Vec<QueryReader<R>>), ServeError>,
    sc: &Script,
    t: &mut Tracer,
) -> Result<SessionRun, String> {
    let (engine, mut readers) = started.map_err(|e| e.to_string())?;
    let reader = readers.pop().ok_or("the engine started no reader")?;
    let mut session = Session::new(engine, reader, sc.schema.clone());
    let clock = Clock::start();
    let n = sc.lines.len();
    let (mut line_ns, mut miss) = (Vec::with_capacity(n), Vec::with_capacity(n));
    let mut answers = Vec::with_capacity(sc.queries.len());
    let mut errors = Vec::new();
    let mut bytes: Vec<u64> = Vec::new();
    let mut out = Vec::new();
    for (text, kind) in &sc.lines {
        let reader = session.reader_mut();
        let before = (reader.cache_len(), reader.pinned_epoch());
        out.clear();
        let t0 = clock.ns();
        t.span(kind.span(), |_| session.handle_line(text, &mut out));
        line_ns.push(clock.ns() - t0);
        let reader = session.reader_mut();
        miss.push((reader.cache_len(), reader.pinned_epoch()) != before);
        for response in &out {
            if response.starts_with("ERR") {
                errors.push(format!("{text:.40} -> {response}"));
            }
            bytes.extend(response.bytes().chain([b'\n']).map(u64::from));
        }
        if let Kind::Query { .. } = kind {
            answers.push(out.concat());
        }
    }
    let refused = session.engine_mut().refused();
    let table = session.finish().map_err(|e| e.to_string())?;
    Ok(SessionRun {
        line_ns,
        miss,
        answers,
        responses_fnv: fnv1a(bytes),
        errors,
        refused,
        table,
    })
}

fn engine_config(p: usize) -> EngineConfig {
    EngineConfig {
        builder_threads: p,
        readers: 1,
        ..EngineConfig::default()
    }
}

/// Checks sessions against the first one and against offline builds.
struct Checker<'a> {
    sc: &'a Script,
    final_table: Vec<(u64, u64)>,
    responses_fnv: Option<u64>,
}

impl Checker<'_> {
    fn check(&mut self, tally: &mut Tally, run: &Result<SessionRun, String>) {
        let run = match run {
            Ok(run) => run,
            Err(e) => return tally.check(false, || format!("session failed: {e}")),
        };
        // Each line is one operation; an ERR response fails it.
        tally.record(self.sc.lines.len() as u64, &run.errors);
        tally.check(run.refused == 0, || {
            format!("{} batches refused", run.refused)
        });
        tally.check(run.table.to_sorted_vec() == self.final_table, || {
            "final table differs from the sequential build of every row".into()
        });
        match self.responses_fnv {
            Some(reference) => tally.check(run.responses_fnv == reference, || {
                "responses differ across thread counts or runs".into()
            }),
            None => {
                self.responses_fnv = Some(run.responses_fnv);
                self.check_answers(tally, &run.answers);
            }
        }
    }

    /// Recomputes every [`CHECK_EVERY`]-th answer from an offline build of
    /// the rows its epoch had absorbed. `answers[i]` answers query `i`.
    fn check_answers(&self, tally: &mut Tally, answers: &[String]) {
        let mut prefix: Option<(u64, PotentialTable)> = None;
        for &(_, kind) in &self.sc.lines {
            let Kind::Query { index, epoch } = kind else {
                continue;
            };
            if index % CHECK_EVERY != 0 {
                continue;
            }
            let answer = &answers[index];
            if prefix.as_ref().map(|(e, _)| *e) != Some(epoch) {
                let rows: Vec<&[u16]> = self.sc.batches[..epoch as usize]
                    .iter()
                    .flatten()
                    .map(Vec::as_slice)
                    .collect();
                let table = Dataset::from_rows(self.sc.schema.clone(), &rows)
                    .map_err(|e| e.to_string())
                    .and_then(|d| sequential_build(&d).map_err(|e| e.to_string()));
                match table {
                    Ok(built) => prefix = Some((epoch, built.table)),
                    Err(e) => return tally.check(false, || format!("prefix build failed: {e}")),
                }
            }
            let (_, table) = prefix.as_ref().expect("the prefix was just built");
            let expected = expected_answer(&self.sc.queries[index], epoch, table);
            tally.check(expected.as_deref() == Ok(answer.as_str()), || {
                format!("query {index}: served {answer:?}, offline {expected:?}")
            });
        }
    }
}

/// The response line the protocol owes `q` at `epoch` over `table`.
fn expected_answer(q: &Query, epoch: u64, table: &PotentialTable) -> Result<String, String> {
    // The protocol lists variables and states comma-separated, `-` if none.
    fn list<T: std::fmt::Display>(items: &[T]) -> String {
        if items.is_empty() {
            "-".to_string()
        } else {
            join(items.iter(), ",")
        }
    }
    let joint = |scope: &[usize]| marginalize(table, scope, 1).map_err(|e| e.to_string());
    Ok(match q {
        Query::Marginal(scope) => {
            let m = joint(scope)?;
            format!(
                "OK MARGINAL e={epoch} scope={} total={} counts={}",
                list(scope),
                m.total(),
                join((0..m.num_cells()).map(|i| m.count_at(i)), ",")
            )
        }
        Query::Mi(i, j) => {
            let m = joint(&[*i.min(j), *i.max(j)])?;
            let nats = mutual_information(&m);
            format!("OK MI e={epoch} X{i} -- X{j} {nats:.6} nats")
        }
        Query::Cpt { x, parents } => {
            let mut scope = parents.clone();
            scope.push(*x);
            scope.sort_unstable();
            let rows = cpt_rows(&joint(&scope)?, *x);
            let sorted_parents: Vec<usize> = scope.iter().copied().filter(|v| v != x).collect();
            let rendered: Vec<String> = rows
                .iter()
                .map(|row| {
                    let probs = join(row.probs.iter().map(|p| format!("{p:.6}")), ",");
                    format!("[{}] {probs}", list(&row.parent_states))
                })
                .collect();
            format!(
                "OK CPT e={epoch} x={x} parents={} rows={}: {}",
                list(&sorted_parents),
                rows.len(),
                rendered.join(" | ")
            )
        }
    })
}

/// Latency summaries of one session, from its per-line times.
fn line_values(sc: &Script, run: &SessionRun) -> Values {
    let (mut admit, mut sync, mut query, mut hit, mut missed) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (((_, kind), &ns), &miss) in sc.lines.iter().zip(&run.line_ns).zip(&run.miss) {
        let ns = ns as f64;
        match kind {
            Kind::Admit => admit.push(ns),
            Kind::Sync => sync.push(ns),
            Kind::Query { .. } => {
                query.push(ns);
                if miss {
                    missed.push(ns);
                } else {
                    hit.push(ns);
                }
            }
        }
    }
    let publish: Vec<f64> = admit.iter().zip(&sync).map(|(a, s)| a + s).collect();
    let mut v = Values::new();
    v.insert("serve.admit_us_p50", median(&admit) / 1e3);
    v.insert("serve.sync_ms_p50", median(&sync) / 1e6);
    v.insert("serve.publish_p50_ms", median(&publish) / 1e6);
    v.insert(
        "serve.qps",
        ratio(query.len() as f64, query.iter().sum::<f64>() / 1e9),
    );
    v.insert("serve.query_p50_us", median(&query) / 1e3);
    v.insert("serve.query_p99_us", percentile(&query, 99.0) / 1e3);
    v.insert("serve.query.hit_us_p50", median(&hit) / 1e3);
    v.insert("serve.query.miss_us_p50", median(&missed) / 1e3);
    v.insert("serve.query.miss_us_p99", percentile(&missed, 99.0) / 1e3);
    v.insert("serve.cache.hits", hit.len() as f64);
    v.insert("serve.cache.misses", missed.len() as f64);
    v.insert(
        "serve.cache.hit_ratio",
        ratio(hit.len() as f64, query.len() as f64),
    );
    v
}

/// Runs the workload.
pub fn run(cfg: &RunConfig, sizes: &Sizes) -> Outcome {
    let spec = WorkloadSpec {
        scenario: Scenario::Uniform,
        rows: sizes.rows,
        batches: sizes.batches,
        queries: sizes.queries,
        readers: 1,
        seed: cfg.seed,
    };
    let mut out = Outcome::default();
    let generated = set_up(cfg, || {
        generate(&spec).map(|w| (script(&w), w.fingerprint()))
    });
    let ((sc, fingerprint), setup_s) = match generated {
        (Ok(generated), setup_s) => (generated, setup_s),
        (Err(e), _) => {
            out.tally
                .check(false, || format!("workload generation failed: {e}"));
            return out;
        }
    };
    out.rows_fnv = fnv_states(sc.batches.iter().flatten().map(Vec::as_slice));
    out.stream_fingerprint = Some(fingerprint);
    let all_rows: Vec<&[u16]> = sc.batches.iter().flatten().map(Vec::as_slice).collect();
    let final_table = Dataset::from_rows(sc.schema.clone(), &all_rows)
        .map_err(|e| e.to_string())
        .and_then(|d| sequential_build(&d).map_err(|e| e.to_string()));
    let mut checker = Checker {
        sc: &sc,
        final_table: match final_table {
            Ok(built) => built.table.to_sorted_vec(),
            Err(e) => {
                out.tally
                    .check(false, || format!("reference build failed: {e}"));
                return out;
            }
        },
        responses_fnv: None,
    };

    let untraced = |p: usize| {
        let cfg = engine_config(p);
        let mut off = Tracer::off();
        run_session(Engine::start(&sc.schema, &cfg), &sc, &mut off)
    };
    let tally = &mut out.tally;
    warm_up(|p| checker.check(tally, &untraced(p)));
    let clock = Clock::start();
    let mut times = Times::new(1);
    let mut untraced_lines: Vec<Values> = Vec::new();
    let mut tracer = Tracer::default();
    let mut traced: Vec<Values> = Vec::new();
    passes(&clock, cfg.seconds, |pass| {
        for p in thread_order(pass) {
            let (run, secs) = timed(|| untraced(p));
            times.push(p, 0, secs);
            checker.check(tally, &run);
            if let (Ok(run), P2) = (&run, p) {
                untraced_lines.push(line_values(&sc, run));
            }
        }
        if cfg.trace {
            let cfg = engine_config(P2);
            let metrics = Arc::new(CoreMetrics::new(cfg.cores()));
            let run = tracer.span("serve", |t| {
                let started = Engine::start_recorded(&sc.schema, &cfg, Arc::clone(&metrics));
                run_session(started, &sc, t)
            });
            checker.check(tally, &run);
            traced.push(match &run {
                Ok(run) => session_values(tally, &sc, run, &metrics, &cfg),
                Err(_) => Values::new(),
            });
        }
    });

    out.values = job_values(setup_s, &times);
    if !untraced_lines.is_empty() {
        let info = median_values(&untraced_lines);
        eprintln!(
            "serve-mixed at P={P2}: {:.0} queries/s, query p50 {:.1} us, p99 {:.1} us, \
             publish p50 {:.2} ms",
            info["serve.qps"],
            info["serve.query_p50_us"],
            info["serve.query_p99_us"],
            info["serve.publish_p50_ms"]
        );
    }
    if cfg.trace {
        out.values
            .extend(traced_values(&tracer, &traced, 1, |v, _| v.clone()));
        crate::write_spans("serve-mixed", &tracer, &mut out.tally);
    }
    out
}

/// Per-layer values of one traced session; checks the hit/miss split seen
/// from outside against the reader's own counters.
fn session_values(
    tally: &mut Tally,
    sc: &Script,
    run: &SessionRun,
    metrics: &CoreMetrics,
    cfg: &EngineConfig,
) -> Values {
    let r = metrics.snapshot();
    let mut v = line_values(sc, run);
    let (hits, misses) = (v["serve.cache.hits"], v["serve.cache.misses"]);
    let (rec_hits, rec_misses) = (r.total(Counter::CacheHits), r.total(Counter::CacheMisses));
    tally.check(
        hits == rec_hits as f64 && misses == rec_misses as f64,
        || format!("outside hit/miss {hits}/{misses} != recorded {rec_hits}/{rec_misses}"),
    );
    let reader = cfg.reader_core(0);
    v.insert(
        "serve.reader.entries_scanned",
        r.cores[reader].counter(Counter::EntriesScanned) as f64,
    );
    v.insert(
        "serve.reader.epochs_pinned",
        r.total(Counter::EpochsPinned) as f64,
    );
    v.insert(
        "serve.engine.epochs_published",
        r.total(Counter::EpochsPublished) as f64,
    );
    v.insert("serve.engine.refused", run.refused as f64);
    // Absorption runs inside the writer thread, out of the benchmark's
    // reach; its time is the slowest builder core's stage total.
    let build_ns: u64 = [Stage::Encode, Stage::Barrier, Stage::Drain]
        .into_iter()
        .map(|s| r.stage_max_ns(s))
        .sum();
    let rows: usize = sc.batches.iter().map(Vec::len).sum();
    build_values(build_ns as f64 / 1e9, rows, run.table.num_entries(), &mut v);
    construct_values(&r, &mut v);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_session_runs_checks_and_traces() {
        let cfg = RunConfig {
            seed: 7,
            seconds: 0.0,
            trace: true,
        };
        let sizes = Sizes {
            rows: 400,
            batches: 4,
            queries: 120,
        };
        let out = run(&cfg, &sizes);
        assert_eq!(out.tally.failed, 0, "{:?}", out.tally.failures);
        assert!(out.values["serve.cache.hits"] > 0.0);
        assert_eq!(out.values["serve.engine.epochs_published"], 4.0);
        assert!(out.stream_fingerprint.is_some());
        crate::assert_known_names(&out.values);
    }

    #[test]
    fn a_wrong_offline_answer_is_caught() {
        let w = generate(&WorkloadSpec {
            scenario: Scenario::Uniform,
            rows: 40,
            batches: 2,
            queries: 4,
            readers: 1,
            seed: 1,
        })
        .unwrap();
        let sc = script(&w);
        let checker = Checker {
            sc: &sc,
            final_table: Vec::new(),
            responses_fnv: None,
        };
        let mut tally = Tally::default();
        let wrong = vec!["OK MI e=1 X0 -- X1 9.000000 nats".to_string(); 4];
        checker.check_answers(&mut tally, &wrong);
        assert_eq!(tally.failed, 1, "query 0 is sampled and wrong");
    }
}
