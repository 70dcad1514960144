//! `wfbn serve` — long-lived statistics service over epoch-published
//! snapshots.
//!
//! Loads a CSV, feeds it to the serve engine in batches (each publishing an
//! epoch), then answers the line protocol (see `wfbn_serve::query`) from a
//! script file, stdin, or a TCP socket:
//!
//! ```text
//! printf 'SYNC\nMI 0 1\nQUIT\n' | wfbn serve --in data.csv
//! wfbn serve --in data.csv --script queries.txt
//! wfbn serve --in data.csv --listen 127.0.0.1:7878
//! ```

use crate::args::Flags;
use crate::commands::load_csv;
use std::io::Write;
use std::sync::Arc;
use wfbn_core::{CoreMetrics, Recorder};
use wfbn_data::{Dataset, Schema};
use wfbn_serve::{serve_lines, serve_tcp, Engine, EngineConfig, LoopControl, QueryReader, Session};

/// Runs the subcommand.
pub fn run(args: &[String], out: &mut dyn Write) -> Result<(), String> {
    let flags = Flags::parse(
        args,
        &["in", "threads", "batch", "listen", "script"],
        &["metrics"],
    )?;
    let path: String = flags.require("in")?;
    let threads = flags.threads_or("threads", 1)?;
    let batch_rows: usize = flags.get_or("batch", 4096)?;
    if batch_rows == 0 {
        return Err("--batch must be positive".into());
    }

    let data = load_csv(&path)?;
    let schema = data.schema().clone();
    let cfg = EngineConfig {
        builder_threads: threads,
        readers: 1,
    };

    if flags.has_switch("metrics") {
        let metrics = Arc::new(CoreMetrics::new(cfg.cores()));
        let (engine, readers) = Engine::start_recorded(&schema, &cfg, Arc::clone(&metrics))
            .map_err(|e| e.to_string())?;
        serve_session(engine, readers, schema, &data, batch_rows, Some(metrics), &flags, out)
    } else {
        let (engine, readers) = Engine::start(&schema, &cfg).map_err(|e| e.to_string())?;
        serve_session(engine, readers, schema, &data, batch_rows, None, &flags, out)
    }
}

/// Feeds the CSV into the engine and runs the protocol loop.
#[allow(clippy::too_many_arguments)]
fn serve_session<R: Recorder>(
    mut engine: Engine<R>,
    mut readers: Vec<QueryReader<R>>,
    schema: Schema,
    data: &Dataset,
    batch_rows: usize,
    metrics: Option<Arc<CoreMetrics>>,
    flags: &Flags,
    out: &mut dyn Write,
) -> Result<(), String> {
    let m = data.num_samples();
    let mut start = 0;
    while start < m {
        let end = (start + batch_rows).min(m);
        let flat = data.row_range(start, end).to_vec();
        let batch = Dataset::from_flat_unchecked(schema.clone(), flat);
        engine.submit(batch).map_err(|e| e.to_string())?;
        start = end;
    }
    let epochs = engine.published();
    writeln!(
        out,
        "serving: n={} m={m} epochs={epochs} threads={}",
        schema.num_vars(),
        flags.threads_or("threads", 1)?,
    )
    .map_err(|e| e.to_string())?;
    out.flush().map_err(|e| e.to_string())?;

    let reader = readers.pop().expect("the engine was started with one reader");
    let mut session = Session::new(engine, reader, schema);
    if let Some(metrics) = metrics {
        session = session.with_metrics(metrics);
    }

    if let Some(addr) = flags.get("listen") {
        let listener =
            std::net::TcpListener::bind(addr).map_err(|e| format!("binding {addr}: {e}"))?;
        writeln!(
            out,
            "listening on {}",
            listener.local_addr().map_err(|e| e.to_string())?
        )
        .map_err(|e| e.to_string())?;
        out.flush().map_err(|e| e.to_string())?;
        serve_tcp(&mut session, listener).map_err(|e| e.to_string())?;
    } else if let Some(script) = flags.get("script") {
        let text = std::fs::read_to_string(script)
            .map_err(|e| format!("reading script {script}: {e}"))?;
        serve_lines(&mut session, std::io::Cursor::new(text), out).map_err(|e| e.to_string())?;
    } else {
        let stdin = std::io::stdin();
        let control =
            serve_lines(&mut session, stdin.lock(), out).map_err(|e| e.to_string())?;
        let _: LoopControl = control;
    }
    session.finish().map_err(|e| e.to_string())?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_csv(dir: &std::path::Path, name: &str, rows: usize) -> String {
        let path = dir.join(name);
        let mut text = String::new();
        for i in 0..rows {
            let a = i % 2;
            text.push_str(&format!("{a},{a},{}\n", (i / 2) % 2));
        }
        std::fs::write(&path, text).unwrap();
        path.to_str().unwrap().to_string()
    }

    fn run_to_string(args: &[&str]) -> Result<String, String> {
        let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut out = Vec::new();
        run(&argv, &mut out)?;
        Ok(String::from_utf8(out).expect("utf8 output"))
    }

    #[test]
    fn scripted_session_answers_queries() {
        let dir = std::env::temp_dir().join("wfbn_cli_serve_test");
        std::fs::create_dir_all(&dir).unwrap();
        let csv = write_csv(&dir, "d.csv", 400);
        let script = dir.join("script.txt");
        std::fs::write(&script, "EPOCH\nMI 0 1; MARGINAL 2\nCPT 1 0\nQUIT\n").unwrap();

        let out = run_to_string(&[
            "--in",
            &csv,
            "--batch",
            "100",
            "--script",
            script.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("serving: n=3 m=400 epochs=4"), "{out}");
        assert!(out.contains("OK EPOCH published=4"), "{out}");
        // X0 == X1 in the data: exactly ln 2 nats.
        assert!(out.contains("OK MI e=4 X0 -- X1 0.693147 nats"), "{out}");
        assert!(out.contains("OK MARGINAL e=4 scope=2 total=400 counts=200,200"), "{out}");
        assert!(out.contains("OK CPT e=4 x=1 parents=0 rows=2: [0] 1.000000,0.000000 | [1] 0.000000,1.000000"), "{out}");
        assert!(out.contains("OK BYE"), "{out}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn metrics_switch_reports_serve_counters() {
        let dir = std::env::temp_dir().join("wfbn_cli_serve_metrics_test");
        std::fs::create_dir_all(&dir).unwrap();
        let csv = write_csv(&dir, "d.csv", 200);
        let script = dir.join("script.txt");
        std::fs::write(&script, "MI 0 2\nSTATS\nQUIT\n").unwrap();

        let out = run_to_string(&[
            "--in",
            &csv,
            "--threads",
            "2",
            "--script",
            script.to_str().unwrap(),
            "--metrics",
        ])
        .unwrap();
        assert!(out.contains("\"schema\": \"wfbn-metrics-v8\""), "{out}");
        assert!(out.contains("\"queries_served\": 1"), "{out}");
        assert!(out.contains("\"epochs_published\": 1"), "{out}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ingest_extends_the_served_table() {
        let dir = std::env::temp_dir().join("wfbn_cli_serve_ingest_test");
        std::fs::create_dir_all(&dir).unwrap();
        let csv = write_csv(&dir, "d.csv", 100);
        let script = dir.join("script.txt");
        std::fs::write(
            &script,
            "MARGINAL 0\nINGEST 0,0,0|0,0,0; SYNC\nMARGINAL 0\nQUIT\n",
        )
        .unwrap();
        let out = run_to_string(&["--in", &csv, "--script", script.to_str().unwrap()]).unwrap();
        assert!(out.contains("OK MARGINAL e=1 scope=0 total=100 counts=50,50"), "{out}");
        assert!(out.contains("OK SYNC e=2"), "{out}");
        assert!(out.contains("OK MARGINAL e=2 scope=0 total=102 counts=52,50"), "{out}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bad_flags_are_reported() {
        assert!(run_to_string(&["--in", "/nonexistent.csv"]).is_err());
        let err = run_to_string(&["--in", "x.csv", "--batch", "0"]).unwrap_err();
        assert!(err.contains("--batch"), "{err}");
    }
}
