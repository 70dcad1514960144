//! Line-protocol server loop: stdin/stdout scripts and `std::net` TCP.
//!
//! A [`Session`] binds one [`Engine`] front-end and one [`QueryReader`];
//! [`serve_lines`] pumps a `BufRead` of protocol lines through it, writing
//! one `OK`/`ERR` response line per request clause. Consecutive query
//! clauses on one line are answered as a fused batch against a single
//! pinned epoch — same-scope clauses share one snapshot scan.
//!
//! [`serve_tcp`] accepts connections sequentially on a
//! [`std::net::TcpListener`] and runs [`serve_lines`] over each; `QUIT`
//! ends a connection, `SHUTDOWN` ends the accept loop. (Multiple
//! *concurrent* readers are the engine's job — start it with `readers: N`
//! and give each connection handler its own endpoint; the sequential loop
//! here is the dependency-free default the CLI uses.)

use crate::engine::Engine;
use crate::query::{parse_line, Request};
use crate::reader::{cpt_rows, QueryReader};
use crate::ServeError;
use std::collections::HashSet;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpListener;
use std::sync::Arc;
use wfbn_core::entropy::{mutual_information, nats_to_bits};
use wfbn_data::Schema;
use wfbn_obs::{CoreMetrics, Recorder};

/// Why [`serve_lines`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoopControl {
    /// The input ended.
    Eof,
    /// A `QUIT` request closed the connection.
    Quit,
    /// A `SHUTDOWN` request asked the whole server to stop.
    Shutdown,
}

/// The query half of a session: one [`QueryReader`] plus the schema its
/// scopes are validated against.
///
/// A [`Session`] owns one of these next to the engine front-end; workload
/// drivers that fan protocol query streams across *several* concurrent
/// readers own one session per reader thread instead — each parses and
/// answers its own lines against its own pinned epochs, so the replay path
/// is byte-for-byte the serving path.
pub struct ReaderSession<R: Recorder> {
    reader: QueryReader<R>,
    schema: Schema,
}

impl<R: Recorder> ReaderSession<R> {
    /// Binds a query reader to the schema it serves.
    pub fn new(reader: QueryReader<R>, schema: Schema) -> Self {
        ReaderSession { reader, schema }
    }

    /// The underlying query reader.
    pub fn reader_mut(&mut self) -> &mut QueryReader<R> {
        &mut self.reader
    }

    /// The schema scopes are validated against.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Parses one protocol line and answers it on this reader alone.
    /// Query clauses are fused exactly as [`Session::handle_line`] fuses
    /// them; `EPOCH` is answered locally; engine-side verbs (`INGEST`,
    /// `SYNC`, `STATS`, `QUIT`, `SHUTDOWN`) are refused — a reader endpoint
    /// has no engine front-end to forward them to.
    pub fn handle_query_line(&mut self, line: &str, out: &mut Vec<String>) {
        let requests = match parse_bounded_line(line) {
            Ok(requests) => requests,
            Err(msg) => {
                out.push(format!("ERR {msg}"));
                return;
            }
        };
        let mut budget = LineBudget::default();
        let mut run: Vec<Request> = Vec::new();
        for req in requests {
            match req {
                Request::Marginal(..) | Request::Mi { .. } | Request::Cpt { .. } => {
                    run.push(req);
                }
                other => {
                    if !run.is_empty() {
                        let pending = std::mem::take(&mut run);
                        self.answer_run(&pending, &mut budget, out);
                    }
                    match other {
                        Request::Epoch => out.push(format!(
                            "OK EPOCH published={} pinned={}",
                            self.reader.published(),
                            self.reader.pinned_epoch()
                        )),
                        _ => out.push(format!(
                            "ERR {} is not available on a reader endpoint",
                            other.verb()
                        )),
                    }
                }
            }
        }
        if !run.is_empty() {
            let pending = std::mem::take(&mut run);
            self.answer_run(&pending, &mut budget, out);
        }
    }

    /// Scope a query request needs, validated against the schema, and its
    /// cell count, or the per-request error to report instead.
    fn scope_of(&self, req: &Request) -> Result<(Vec<usize>, u64), String> {
        let scope = match req {
            Request::Marginal(scope) => scope.clone(),
            Request::Mi { i, j, .. } => {
                if i == j {
                    return Err(format!("MI of X{i} with itself"));
                }
                vec![*i.min(j), *i.max(j)]
            }
            Request::Cpt { x, parents } => {
                let mut scope = parents.clone();
                scope.push(*x);
                scope.sort_unstable();
                let before = scope.len();
                scope.dedup();
                if scope.len() != before {
                    return Err("CPT: duplicate variable in child + parents".into());
                }
                scope
            }
            _ => unreachable!("scope_of is only called on query requests"),
        };
        let n = self.schema.num_vars();
        if let Some(&v) = scope.iter().find(|&&v| v >= n) {
            return Err(format!("X{v} out of range (the schema has {n} variables)"));
        }
        let cells = scope
            .iter()
            .try_fold(1u64, |cells, &v| {
                cells.checked_mul(u64::from(self.schema.arity(v)))
            })
            .filter(|&cells| cells <= MAX_SCOPE_CELLS);
        match cells {
            Some(cells) => Ok((scope, cells)),
            None => Err(format!(
                "scope {} has more than {MAX_SCOPE_CELLS} cells",
                join_usizes(&scope)
            )),
        }
    }

    /// Answers a run of consecutive query requests as one fused batch,
    /// charging each new scope to the line's `budget`.
    fn answer_run(&mut self, run: &[Request], budget: &mut LineBudget, out: &mut Vec<String>) {
        // Per-request scope or error; only valid scopes enter the batch.
        let scoped: Vec<Result<Vec<usize>, String>> = run
            .iter()
            .map(|req| {
                let (scope, cells) = self.scope_of(req)?;
                budget.admit(&scope, cells)?;
                Ok(scope)
            })
            .collect();
        let batch: Vec<&[usize]> = scoped
            .iter()
            .filter_map(|s| s.as_deref().ok())
            .collect();
        let answered = self.reader.answer_batch(&batch);
        let (epoch, mut answers) = match answered {
            Ok((epoch, answers)) => (epoch, answers.into_iter()),
            Err(e) => {
                for _ in run {
                    out.push(format!("ERR {e}"));
                }
                return;
            }
        };
        for (req, scope) in run.iter().zip(scoped) {
            let scope = match scope {
                Ok(scope) => scope,
                Err(msg) => {
                    out.push(format!("ERR {msg}"));
                    continue;
                }
            };
            let Some(joint) = answers.next() else {
                out.push(format!("ERR {}", ServeError::MissingAnswer));
                continue;
            };
            match req {
                Request::Marginal(_) => {
                    let counts: Vec<String> = (0..joint.num_cells())
                        .map(|i| joint.count_at(i).to_string())
                        .collect();
                    out.push(format!(
                        "OK MARGINAL e={epoch} scope={} total={} counts={}",
                        join_usizes(&scope),
                        joint.total(),
                        counts.join(",")
                    ));
                }
                Request::Mi { i, j, bits } => {
                    let nats = mutual_information(&joint);
                    let (value, unit) = if *bits {
                        (nats_to_bits(nats), "bits")
                    } else {
                        (nats, "nats")
                    };
                    out.push(format!("OK MI e={epoch} X{i} -- X{j} {value:.6} {unit}"));
                }
                Request::Cpt { x, .. } => {
                    let rows = cpt_rows(&joint, *x);
                    let parents: Vec<usize> =
                        scope.iter().copied().filter(|v| v != x).collect();
                    let rendered: Vec<String> = rows
                        .iter()
                        .map(|row| {
                            let states = if row.parent_states.is_empty() {
                                "-".to_string()
                            } else {
                                row.parent_states
                                    .iter()
                                    .map(u16::to_string)
                                    .collect::<Vec<_>>()
                                    .join(",")
                            };
                            let probs: Vec<String> =
                                row.probs.iter().map(|p| format!("{p:.6}")).collect();
                            format!("[{states}] {}", probs.join(","))
                        })
                        .collect();
                    out.push(format!(
                        "OK CPT e={epoch} x={x} parents={} rows={}: {}",
                        join_usizes(&parents),
                        rows.len(),
                        rendered.join(" | ")
                    ));
                }
                _ => unreachable!("runs contain only query requests"),
            }
        }
    }
}

/// One serving session: engine front-end + query reader + schema.
pub struct Session<R: Recorder> {
    engine: Engine<R>,
    queries: ReaderSession<R>,
    metrics: Option<Arc<CoreMetrics>>,
}

impl<R: Recorder + Send + Sync + 'static> Session<R> {
    /// Binds a session over a running engine.
    pub fn new(engine: Engine<R>, reader: QueryReader<R>, schema: Schema) -> Self {
        Session {
            engine,
            queries: ReaderSession::new(reader, schema),
            metrics: None,
        }
    }

    /// Attaches the recording metrics whose JSON `STATS` should report.
    pub fn with_metrics(mut self, metrics: Arc<CoreMetrics>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// The engine front-end (submission, sync, backlog).
    pub fn engine_mut(&mut self) -> &mut Engine<R> {
        &mut self.engine
    }

    /// The session's query reader.
    pub fn reader_mut(&mut self) -> &mut QueryReader<R> {
        self.queries.reader_mut()
    }

    /// Closes admission and returns the final table.
    pub fn finish(self) -> Result<wfbn_core::PotentialTable, ServeError> {
        self.engine.finish()
    }

    /// Answers a run of consecutive query requests as one fused batch.
    fn answer_run(&mut self, run: &[Request], budget: &mut LineBudget, out: &mut Vec<String>) {
        self.queries.answer_run(run, budget, out);
    }

    /// Handles one non-query request, appending its response line(s).
    fn answer_control(&mut self, req: Request, out: &mut Vec<String>) {
        match req {
            Request::Epoch => {
                out.push(format!(
                    "OK EPOCH published={} pinned={}",
                    self.queries.reader_mut().published(),
                    self.queries.reader_mut().pinned_epoch()
                ));
            }
            Request::Sync => match self.engine.sync() {
                Ok(epoch) => out.push(format!("OK SYNC e={epoch}")),
                Err(e) => out.push(format!("ERR {e}")),
            },
            Request::Stats => {
                out.push(format!(
                    "OK STATS submitted={} published={} backlog={} refused={} \
                     cache_scopes={}",
                    self.engine.submitted(),
                    self.engine.published(),
                    self.engine.backlog(),
                    self.engine.refused(),
                    self.queries.reader_mut().cache_len()
                ));
                if let Some(metrics) = &self.metrics {
                    out.push(metrics.snapshot().to_json());
                }
            }
            Request::Ingest(rows) => {
                let len = rows.len();
                let admitted = rows
                    .into_dataset(self.queries.schema().clone())
                    .map_err(|e| e.to_string())
                    .and_then(|batch| {
                        self.engine.submit(batch).map_err(|e| e.to_string())
                    });
                match admitted {
                    Ok(n) => out.push(format!("OK INGEST rows={len} batch={n}")),
                    Err(msg) => out.push(format!("ERR {msg}")),
                }
            }
            Request::Quit => out.push("OK BYE".into()),
            Request::Shutdown => out.push("OK SHUTDOWN".into()),
            _ => unreachable!("query requests are answered in runs"),
        }
    }

    /// Processes one protocol line; responses are appended to `out`.
    /// Returns `Quit`/`Shutdown` when the line asked to close.
    pub fn handle_line(&mut self, line: &str, out: &mut Vec<String>) -> LoopControl {
        let requests = match parse_bounded_line(line) {
            Ok(requests) => requests,
            Err(msg) => {
                out.push(format!("ERR {msg}"));
                return LoopControl::Eof;
            }
        };
        let mut budget = LineBudget::default();
        let mut run: Vec<Request> = Vec::new();
        for req in requests {
            match req {
                Request::Marginal(..) | Request::Mi { .. } | Request::Cpt { .. } => {
                    run.push(req);
                }
                other => {
                    if !run.is_empty() {
                        let pending = std::mem::take(&mut run);
                        self.answer_run(&pending, &mut budget, out);
                    }
                    let control = match other {
                        Request::Quit => LoopControl::Quit,
                        Request::Shutdown => LoopControl::Shutdown,
                        _ => LoopControl::Eof,
                    };
                    self.answer_control(other, out);
                    if control != LoopControl::Eof {
                        return control;
                    }
                }
            }
        }
        if !run.is_empty() {
            let pending = std::mem::take(&mut run);
            self.answer_run(&pending, &mut budget, out);
        }
        LoopControl::Eof
    }
}

/// Joins variable indices for response fields (`0,2,5`; `-` when empty).
fn join_usizes(vars: &[usize]) -> String {
    if vars.is_empty() {
        return "-".into();
    }
    vars.iter()
        .map(usize::to_string)
        .collect::<Vec<_>>()
        .join(",")
}

/// Most query clauses one line may carry. A line with more is answered with
/// one `ERR` and none of its clauses runs; the session keeps serving.
///
/// Every answer of a line is held until the line is done, so this bounds
/// what one line can make a session hold and how long it can hold the
/// session. No workload or benchmark in this repository sends more than one
/// query clause per line, and the protocol tests fuse at most eight. The
/// bound equals the reader's default cache capacity, so one line's distinct
/// scopes fit the cache. Measured on a fresh epoch of 62 473 entries (16
/// binary variables, 200 000 rows, 2-thread host, release build), a line of
/// 256 distinct 3-variable `MARGINAL` clauses answers in 8.4 ms with 24.8 kB
/// of responses, and 256 `MI` clauses over 15 pairs in 0.4 ms.
pub const MAX_QUERY_CLAUSES: usize = 256;

/// Most cells `∏ r_v` the scope of one query clause may have: 2²⁰, 8 MiB
/// of counts. A clause over a wider scope is answered with one `ERR` before
/// any table is allocated for it, and the session keeps serving. Without
/// it, one `MARGINAL` over many wide variables could make the session
/// allocate up to the library's 2²⁸-cell (2 GiB) marginal cap. The widest
/// scope any workload in this repository queries is a 7-variable marginal
/// of the hot-query scenario's ternary schema, 2 187 cells.
pub const MAX_SCOPE_CELLS: u64 = 1 << 20;

/// Most cells the distinct valid scopes of one line may total: 2²², 32 MiB
/// of counts, four scopes of [`MAX_SCOPE_CELLS`]. A clause whose new scope
/// would take the line past it is answered with one `ERR`, and the line's
/// other clauses and the session keep being served. A scope the line has
/// already admitted costs nothing again. The two per-clause bounds alone
/// multiply: a line of [`MAX_QUERY_CLAUSES`] distinct scopes of 2²⁰ cells
/// would hold 2 GiB of answers until the line is done. The same bound caps
/// the cells a reader's marginal cache holds across lines
/// ([`MarginalCache::insert`](crate::cache::MarginalCache::insert)), so it
/// keeps one line's distinct scopes. The most any workload in this
/// repository asks of one line is one clause of 2 187 cells.
pub const MAX_LINE_CELLS: u64 = 1 << 22;

/// The distinct scopes one line has admitted and their cells, against
/// [`MAX_LINE_CELLS`].
#[derive(Default)]
struct LineBudget {
    scopes: HashSet<Vec<usize>>,
    cells: u64,
}

impl LineBudget {
    /// Admits `scope` of `cells` cells, or refuses it if it is new and
    /// would take the line past the budget.
    fn admit(&mut self, scope: &[usize], cells: u64) -> Result<(), String> {
        if self.scopes.contains(scope) {
            return Ok(());
        }
        if self.cells + cells > MAX_LINE_CELLS {
            return Err(format!(
                "scope {} would take the line past {MAX_LINE_CELLS} cells",
                join_usizes(scope)
            ));
        }
        self.cells += cells;
        self.scopes.insert(scope.to_vec());
        Ok(())
    }
}

/// Parses one protocol line, refusing one with more than
/// [`MAX_QUERY_CLAUSES`] query clauses.
fn parse_bounded_line(line: &str) -> Result<Vec<Request>, String> {
    let requests = parse_line(line)?;
    let queries = requests
        .iter()
        .filter(|req| {
            matches!(
                req,
                Request::Marginal(..) | Request::Mi { .. } | Request::Cpt { .. }
            )
        })
        .count();
    if queries > MAX_QUERY_CLAUSES {
        return Err(format!(
            "line has {queries} query clauses, more than {MAX_QUERY_CLAUSES}"
        ));
    }
    Ok(requests)
}

/// Longest protocol line [`serve_lines`] accepts, newline excluded: 1 MiB.
/// The longest line any workload or benchmark in this repository sends is
/// a serve-mixed `INGEST` of 10 000 rows of 16 binary variables, 320 006
/// bytes. A longer line is answered with `ERR` and skipped through its
/// newline, so no peer can make a session hold more than this much of one
/// line.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Pumps protocol lines from `input` through `session`, writing response
/// lines to `out`. Returns why the loop ended.
///
/// A line longer than [`MAX_LINE_BYTES`] or not valid UTF-8 gets one `ERR`
/// line, and the session keeps serving the lines after it.
pub fn serve_lines<R, I, O>(
    session: &mut Session<R>,
    mut input: I,
    out: &mut O,
) -> std::io::Result<LoopControl>
where
    R: Recorder + Send + Sync + 'static,
    I: BufRead,
    O: Write + ?Sized,
{
    let mut buf = Vec::new();
    let mut responses = Vec::new();
    loop {
        buf.clear();
        let cap = MAX_LINE_BYTES as u64 + 1;
        if (&mut input).take(cap).read_until(b'\n', &mut buf)? == 0 {
            return Ok(LoopControl::Eof);
        }
        responses.clear();
        let mut control = LoopControl::Eof;
        if buf.len() > MAX_LINE_BYTES && buf.last() != Some(&b'\n') {
            input.skip_until(b'\n')?;
            responses.push(format!("ERR line longer than {MAX_LINE_BYTES} bytes"));
        } else {
            // Strip "\n" or "\r\n", as `BufRead::lines` does.
            let mut text = &buf[..];
            if let Some(t) = text.strip_suffix(b"\n") {
                text = t.strip_suffix(b"\r").unwrap_or(t);
            }
            match std::str::from_utf8(text) {
                Ok(line) => control = session.handle_line(line, &mut responses),
                Err(_) => responses.push("ERR line is not UTF-8".into()),
            }
        }
        for response in &responses {
            writeln!(out, "{response}")?;
        }
        out.flush()?;
        if control != LoopControl::Eof {
            return Ok(control);
        }
    }
}

/// Accepts connections sequentially and serves each with [`serve_lines`]
/// until a `SHUTDOWN` request (or an accept error) ends the loop.
pub fn serve_tcp<R>(session: &mut Session<R>, listener: TcpListener) -> std::io::Result<()>
where
    R: Recorder + Send + Sync + 'static,
{
    for stream in listener.incoming() {
        let stream = stream?;
        let mut writer = stream.try_clone()?;
        match serve_lines(session, BufReader::new(stream), &mut writer)? {
            LoopControl::Shutdown => break,
            LoopControl::Quit | LoopControl::Eof => {}
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use wfbn_data::Dataset;
    use wfbn_obs::NoopRecorder;

    fn session() -> Session<NoopRecorder> {
        let schema = Schema::uniform(3, 2).unwrap();
        let (engine, mut readers) = Engine::start(&schema, &EngineConfig::default()).unwrap();
        Session::new(engine, readers.pop().unwrap(), schema)
    }

    fn respond(session: &mut Session<NoopRecorder>, line: &str) -> Vec<String> {
        let mut out = Vec::new();
        session.handle_line(line, &mut out);
        out
    }

    #[test]
    fn script_round_trip_over_lines() {
        let mut session = session();
        let script = "INGEST 0,0,0|0,1,0|1,0,1|1,1,1\nSYNC\nEPOCH\nMI 0 2; MARGINAL 2\nQUIT\n";
        let mut out = Vec::new();
        let control =
            serve_lines(&mut session, std::io::Cursor::new(script), &mut out).unwrap();
        assert_eq!(control, LoopControl::Quit);
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "OK INGEST rows=4 batch=1");
        assert_eq!(lines[1], "OK SYNC e=1");
        assert_eq!(lines[2], "OK EPOCH published=1 pinned=0");
        // X0 and X2 are identical in the batch: MI = H = ln 2 nats.
        assert_eq!(lines[3], "OK MI e=1 X0 -- X2 0.693147 nats");
        assert_eq!(lines[4], "OK MARGINAL e=1 scope=2 total=4 counts=2,2");
        assert_eq!(lines[5], "OK BYE");
    }

    #[test]
    fn fused_clauses_share_one_epoch_and_scan() {
        let mut session = session();
        assert_eq!(
            respond(&mut session, "INGEST 0,1,0|1,0,1; SYNC"),
            vec!["OK INGEST rows=2 batch=1", "OK SYNC e=1"]
        );
        let out = respond(&mut session, "MI 0 1; MI 1 0; CPT 1 0; MARGINAL 0 1");
        assert_eq!(out.len(), 4, "{out:?}");
        for line in &out {
            assert!(line.starts_with("OK ") && line.contains("e=1"), "{line}");
        }
        // Same pair both directions: identical value, echoed operands.
        assert!(out[0].starts_with("OK MI e=1 X0 -- X1"));
        assert!(out[1].starts_with("OK MI e=1 X1 -- X0"));
        assert_eq!(out[0].split_whitespace().last(), out[1].split_whitespace().last());
        // One distinct scope {0,1} => a single scan, cached afterwards.
        assert_eq!(session.reader_mut().cache_len(), 1);
        // Deterministic CPT: X1 = 1 - X0 in the data.
        assert_eq!(out[2], "OK CPT e=1 x=1 parents=0 rows=2: [0] 0.000000,1.000000 | [1] 1.000000,0.000000");
    }

    #[test]
    fn errors_are_per_clause() {
        let mut session = session();
        assert_eq!(
            respond(&mut session, "INGEST 0,0,0; SYNC"),
            vec!["OK INGEST rows=1 batch=1", "OK SYNC e=1"]
        );
        let out = respond(&mut session, "MI 0 0; MARGINAL 9; MARGINAL 1");
        assert!(out[0].starts_with("ERR MI of X0"), "{out:?}");
        assert!(out[1].starts_with("ERR X9 out of range"), "{out:?}");
        assert!(out[2].starts_with("OK MARGINAL e=1"), "{out:?}");
        // Ingest with the wrong width is refused, not absorbed.
        let out = respond(&mut session, "INGEST 0,1");
        assert!(out[0].starts_with("ERR "), "{out:?}");
        assert_eq!(session.engine_mut().submitted(), 1);
    }

    #[test]
    fn oversized_and_malformed_lines_are_refused_and_the_session_keeps_serving() {
        let mut session = session();
        let mut script = String::from("INGEST 0,0,1|1,1,1\nSYNC\nMARGINAL ");
        script.push_str(&"2".repeat(MAX_LINE_BYTES));
        script.push_str("\nMARGINAL two\n");
        let mut bytes = script.into_bytes();
        bytes.extend_from_slice(b"MI \xff 1\nMARGINAL 2\r\n");
        let mut out = Vec::new();
        let control = serve_lines(&mut session, std::io::Cursor::new(bytes), &mut out).unwrap();
        assert_eq!(control, LoopControl::Eof);
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 6, "{lines:?}");
        assert_eq!(
            lines[2],
            format!("ERR line longer than {MAX_LINE_BYTES} bytes")
        );
        assert!(lines[3].starts_with("ERR "), "{lines:?}");
        assert_eq!(lines[4], "ERR line is not UTF-8");
        assert_eq!(lines[5], "OK MARGINAL e=1 scope=2 total=2 counts=0,2");
    }

    #[test]
    fn a_line_past_the_clause_limit_is_refused_and_the_session_keeps_serving() {
        let mut session = session();
        let mi = vec!["MI 0 1"; MAX_QUERY_CLAUSES];
        let over = vec!["MARGINAL 0"; MAX_QUERY_CLAUSES + 1];
        let script = format!(
            "INGEST 0,0,1|1,1,1\nSYNC\n{}\n{}; EPOCH\nMARGINAL 2\n",
            mi.join("; "),
            over.join("; ")
        );
        let mut out = Vec::new();
        let control = serve_lines(&mut session, std::io::Cursor::new(script), &mut out).unwrap();
        assert_eq!(control, LoopControl::Eof);
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2 + MAX_QUERY_CLAUSES + 2, "{:?}", &lines[..3]);
        // The limit's worth of duplicates: one answer each.
        let answers = &lines[2..2 + MAX_QUERY_CLAUSES];
        assert!(answers
            .iter()
            .all(|&l| l == "OK MI e=1 X0 -- X1 0.693147 nats"));
        // One clause more: one ERR for the line, and none of it runs.
        assert_eq!(
            lines[2 + MAX_QUERY_CLAUSES],
            format!(
                "ERR line has {} query clauses, more than {MAX_QUERY_CLAUSES}",
                MAX_QUERY_CLAUSES + 1
            )
        );
        assert_eq!(
            lines[3 + MAX_QUERY_CLAUSES],
            "OK MARGINAL e=1 scope=2 total=2 counts=0,2"
        );
        // Cached: {0, 1} and {2}, never the refused line's {0}.
        assert_eq!(session.reader_mut().cache_len(), 2);
    }

    #[test]
    fn a_clause_past_the_scope_cell_limit_is_refused_and_the_session_keeps_serving() {
        // X0 × X1 is 2²⁰ cells, exactly the limit; X0 × X2 is 2²¹.
        let schema = Schema::new(vec![1024, 1024, 2048]).unwrap();
        let (engine, mut readers) = Engine::start(&schema, &EngineConfig::default()).unwrap();
        let mut session = Session::new(engine, readers.pop().unwrap(), schema);
        respond(&mut session, "INGEST 3,3,5; SYNC");
        let out = respond(&mut session, "MI 0 2; CPT 2 0; MI 0 1; MARGINAL 2");
        assert_eq!(out.len(), 4, "{out:?}");
        let refused = format!("ERR scope 0,2 has more than {MAX_SCOPE_CELLS} cells");
        assert_eq!(out[0], refused);
        assert_eq!(out[1], refused);
        assert_eq!(out[2], "OK MI e=1 X0 -- X1 0.000000 nats");
        assert!(out[3].starts_with("OK MARGINAL e=1 scope=2 total=1 "), "{}", out[3]);
        // Only the answered scopes were read: {0, 1} and {2}.
        assert_eq!(session.reader_mut().cache_len(), 2);
    }

    #[test]
    fn clauses_past_the_line_cell_budget_are_refused_and_the_session_keeps_serving() {
        // Each pair of the 1024-ary variables is 2²⁰ cells: four fit the
        // line's budget exactly, and a fifth distinct one does not.
        let schema = Schema::new(vec![1024; 6]).unwrap();
        let (engine, mut readers) = Engine::start(&schema, &EngineConfig::default()).unwrap();
        let mut session = Session::new(engine, readers.pop().unwrap(), schema.clone());
        respond(&mut session, "INGEST 1,2,3,4,5,6; SYNC");
        assert_eq!(4 * MAX_SCOPE_CELLS, MAX_LINE_CELLS);
        let line = "MI 0 1; MI 2 3; MARGINAL 4 5; MI 1 0; EPOCH; CPT 1 0; MI 0 2; \
                    MARGINAL 0 3; MI 3 2; MI 4 5; MARGINAL 5";
        let out = respond(&mut session, line);
        assert_eq!(out.len(), 11, "{out:?}");
        let ok = |i: usize| assert!(out[i].starts_with("OK "), "clause {i}: {}", out[i]);
        let refused = |i: usize, scope: &str| {
            let want = format!("ERR scope {scope} would take the line past {MAX_LINE_CELLS} cells");
            assert_eq!(out[i], want, "clause {i}");
        };
        // Three distinct scopes, then a repeat of the first: no charge.
        (0..4).for_each(ok);
        assert_eq!(out[4], "OK EPOCH published=1 pinned=1");
        // The budget spans the whole line, across the EPOCH: {0, 1} again
        // is free, the fourth scope {0, 2} fills the budget, and every new
        // scope after it is refused, even a one-variable one.
        ok(5);
        ok(6);
        refused(7, "0,3");
        ok(8);
        ok(9);
        refused(10, "5");
        // A fresh line has a fresh budget.
        let out = respond(&mut session, "MARGINAL 0 3; MARGINAL 5");
        assert!(out.iter().all(|l| l.starts_with("OK MARGINAL e=1")), "{out:?}");
        // A reader endpoint keeps the same budget.
        let (mut engine, mut readers) = Engine::start(&schema, &EngineConfig::default()).unwrap();
        let row: &[u16] = &[0; 6];
        engine.submit(Dataset::from_rows(schema.clone(), &[row]).unwrap()).unwrap();
        engine.sync().unwrap();
        let mut rs = ReaderSession::new(readers.pop().unwrap(), schema);
        let mut out = Vec::new();
        rs.handle_query_line("MI 0 1; MI 0 2; MI 0 3; MI 0 4; MI 0 5; MI 1 0", &mut out);
        assert_eq!(out.len(), 6);
        assert!(out[..4].iter().chain(&out[5..]).all(|l| l.starts_with("OK MI e=1")), "{out:?}");
        assert_eq!(
            out[4],
            format!("ERR scope 0,5 would take the line past {MAX_LINE_CELLS} cells")
        );
        engine.finish().unwrap();
    }

    #[test]
    fn the_reader_cache_holds_at_most_one_lines_cells_across_lines() {
        // Each line asks four 2²⁰-cell scopes, a line's whole budget; some
        // repeat across lines. Every line is also answered by a session
        // with a cold cache, which must print the same bytes.
        let schema = Schema::new(vec![1024; 6]).unwrap();
        let start = || {
            let (engine, mut readers) =
                Engine::start(&schema, &EngineConfig::default()).unwrap();
            let mut session = Session::new(engine, readers.pop().unwrap(), schema.clone());
            respond(&mut session, "INGEST 1,2,3,4,5,6|1,2,1000,4,1023,0; SYNC");
            session
        };
        let mut session = start();
        let lines = [
            "MI 0 1; MI 0 2; MI 0 3; MI 0 4",
            "MI 0 5; MI 1 2; MI 0 1; MI 1 3",
            "MI 0 1; MI 0 5; MI 2 3 bits; MI 4 5",
            "MI 1 2; MI 0 2; MI 3 5; MI 2 4",
            "MI 0 1; MI 0 1; MARGINAL 5; MI 1 5",
        ];
        let mut most = 0;
        for line in lines {
            let out = respond(&mut session, line);
            assert!(out.iter().all(|l| l.starts_with("OK ")), "{out:?}");
            assert_eq!(out, respond(&mut start(), line), "{line}");
            let cells = session.reader_mut().cache_cells();
            assert!(cells <= MAX_LINE_CELLS, "{line}: the cache holds {cells} cells");
            most = most.max(cells);
        }
        assert_eq!(most, MAX_LINE_CELLS, "a line's four scopes stay cached");
    }

    #[test]
    fn a_line_of_exactly_the_cap_is_served() {
        let mut session = session();
        let mut line = String::from("INGEST 0,0,0");
        line.push_str(&" ".repeat(MAX_LINE_BYTES - line.len()));
        line.push('\n');
        let mut out = Vec::new();
        serve_lines(&mut session, std::io::Cursor::new(line), &mut out).unwrap();
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "OK INGEST rows=1 batch=1\n"
        );
    }

    #[test]
    fn queries_before_any_publication_are_refused() {
        let mut session = session();
        let out = respond(&mut session, "MI 0 1");
        assert_eq!(out, vec!["ERR no epoch published yet"]);
    }

    #[test]
    fn stats_reports_admission_counters() {
        let mut session = session();
        respond(&mut session, "INGEST 0,0,0; SYNC");
        let out = respond(&mut session, "STATS");
        assert_eq!(
            out,
            vec!["OK STATS submitted=1 published=1 backlog=0 refused=0 cache_scopes=0"]
        );
    }

    #[test]
    fn reader_session_answers_queries_but_refuses_engine_verbs() {
        let schema = Schema::uniform(3, 2).unwrap();
        let (mut engine, mut readers) =
            Engine::start(&schema, &EngineConfig::default()).unwrap();
        engine
            .submit(
                Dataset::from_rows(schema.clone(), &[&[0, 0, 0], &[1, 1, 1]]).unwrap(),
            )
            .unwrap();
        engine.sync().unwrap();
        let mut rs = ReaderSession::new(readers.pop().unwrap(), schema);

        let mut out = Vec::new();
        rs.handle_query_line("MI 0 1; MARGINAL 2; EPOCH", &mut out);
        assert_eq!(out.len(), 3, "{out:?}");
        assert!(out[0].starts_with("OK MI e=1"), "{out:?}");
        assert_eq!(out[1], "OK MARGINAL e=1 scope=2 total=2 counts=1,1");
        assert_eq!(out[2], "OK EPOCH published=1 pinned=1");

        out.clear();
        rs.handle_query_line("INGEST 0,0,0; SYNC; STATS; QUIT", &mut out);
        assert_eq!(
            out,
            vec![
                "ERR INGEST is not available on a reader endpoint",
                "ERR SYNC is not available on a reader endpoint",
                "ERR STATS is not available on a reader endpoint",
                "ERR QUIT is not available on a reader endpoint",
            ]
        );
        engine.finish().unwrap();
    }

    #[test]
    fn tcp_round_trip_and_shutdown() {
        use std::io::{BufRead as _, Write as _};
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let stream = std::net::TcpStream::connect(addr).unwrap();
            let mut writer = stream.try_clone().unwrap();
            let mut lines = BufReader::new(stream).lines();
            // A line one byte over the cap and a line that is not UTF-8
            // are refused; the session keeps answering after both.
            let mut script = b"INGEST 0,0,0|1,1,1\nSYNC\n".to_vec();
            script.extend(std::iter::repeat_n(b'2', MAX_LINE_BYTES + 1));
            script.extend_from_slice(b"\nMI \xff 1\nMI 0 1\nSHUTDOWN\n");
            writer.write_all(&script).unwrap();
            let mut got = Vec::new();
            for _ in 0..6 {
                got.push(lines.next().unwrap().unwrap());
            }
            got
        });
        let mut session = session();
        serve_tcp(&mut session, listener).unwrap();
        let got = client.join().unwrap();
        assert_eq!(got[0], "OK INGEST rows=2 batch=1");
        assert_eq!(got[1], "OK SYNC e=1");
        assert_eq!(got[2], "ERR line longer than 1048576 bytes");
        assert_eq!(got[3], "ERR line is not UTF-8");
        assert_eq!(got[4], "OK MI e=1 X0 -- X1 0.693147 nats");
        assert_eq!(got[5], "OK SHUTDOWN");
    }
}
