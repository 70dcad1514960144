//! Replays a generated workload through a live [`wfbn_serve::Engine`] and
//! measures what the SLO gates need.
//!
//! The driver is the *harness* side of the workload story, so it is allowed
//! what the serving hot path is not: it spawns threads, joins them, and
//! takes wall-clock timestamps. The hot path it exercises — engine writer,
//! epoch lanes, query readers — stays wait-free; nothing here adds an
//! atomic or a lock to any serve/obs/core crate.
//!
//! Shape of a replay:
//!
//! 1. Start a recorded engine ([`wfbn_obs::CoreMetrics`], one telemetry
//!    core per builder thread plus one per reader).
//! 2. Submit the first batch and `sync`, so an epoch exists and no reader
//!    can observe `NothingPublished`.
//! 3. Spawn one thread per reader; each replays its own query stream as
//!    protocol lines through [`ReaderSession::handle_query_line`], timing
//!    every line. Meanwhile the main thread replays the remaining INGEST
//!    schedule (idle events become scheduler yields), so queries race
//!    epoch publication exactly as a live deployment's would.
//! 4. Join, drain the engine, and reduce: exact nearest-rank latency
//!    percentiles from the merged per-query samples, per-reader served
//!    counts from the metrics cores, and the metrics snapshot itself.

use crate::scenario::{GeneratedWorkload, IngestEvent, Scenario};
use std::sync::Arc;
use std::time::Instant;
use wfbn_data::Dataset;
use wfbn_obs::{CoreMetrics, Counter, MetricsReport};
use wfbn_serve::{Engine, EngineConfig, ReaderSession, ServeError};

/// How a workload is replayed against the engine.
#[derive(Debug, Clone)]
pub struct ReplayConfig {
    /// Builder threads — the paper's `P`; the `key % P` partition count.
    pub partitions: usize,
    /// Admission-queue capacity (batches admitted but unpublished).
    pub queue_capacity: u64,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        ReplayConfig {
            partitions: 2,
            queue_capacity: 8,
        }
    }
}

/// What one scenario replay measured.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// The scenario that was replayed.
    pub scenario: Scenario,
    /// Queries issued (and answered) across all readers.
    pub total_queries: usize,
    /// Queries served by each reader, index = reader id, read back from
    /// the reader's telemetry core — the fairness gate's input.
    pub served_per_reader: Vec<u64>,
    /// Exact (nearest-rank over all samples) wall-clock percentiles.
    pub p50_ns: u64,
    /// 99th percentile per-query wall latency.
    pub p99_ns: u64,
    /// 99.9th percentile per-query wall latency.
    pub p999_ns: u64,
    /// Admission refusals the engine's gate issued during the replay.
    pub refused: u64,
    /// Epochs the writer published.
    pub epochs_published: u64,
    /// Full telemetry snapshot (schema `wfbn-metrics-v7`).
    pub metrics: MetricsReport,
}

impl ScenarioReport {
    /// Max/min queries-served ratio across readers; infinite if a reader
    /// that should have served queries served none.
    pub fn fairness_ratio(&self) -> f64 {
        let min = self.served_per_reader.iter().copied().min().unwrap_or(0);
        let max = self.served_per_reader.iter().copied().max().unwrap_or(0);
        if max == 0 {
            1.0
        } else if min == 0 {
            f64::INFINITY
        } else {
            max as f64 / min as f64
        }
    }
}

/// Nearest-rank percentile of an ascending-sorted sample set.
pub(crate) fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Replays `workload` against a fresh engine and reduces the measurements.
///
/// Any `ERR` response to a generated query is a driver bug or an engine
/// regression, and fails the replay rather than skewing the statistics.
pub fn replay(
    workload: &GeneratedWorkload,
    config: &ReplayConfig,
) -> Result<ScenarioReport, ServeError> {
    let readers_n = workload.reader_queries.len();
    let cfg = EngineConfig {
        builder_threads: config.partitions,
        readers: readers_n,
        queue_capacity: config.queue_capacity,
    };
    let metrics = Arc::new(CoreMetrics::new(cfg.cores()));
    let (mut engine, readers) =
        Engine::start_recorded(&workload.schema, &cfg, Arc::clone(&metrics))?;

    let mut batches = workload.ingest.iter().filter_map(|e| match e {
        IngestEvent::Batch(rows) => {
            let refs: Vec<&[u16]> = rows.iter().map(Vec::as_slice).collect();
            Some(Dataset::from_rows(workload.schema.clone(), &refs))
        }
        IngestEvent::Idle(_) => None,
    });
    // Publish epoch 1 before any reader exists: queries then always find
    // a pinnable snapshot, and the race under test is "reader vs. *next*
    // publication", not "reader vs. first publication".
    let first = batches
        .next()
        .ok_or(ServeError::Config("workload has no batches"))?
        .map_err(|_| ServeError::Config("scenario generated an invalid row"))?;
    engine.submit(first)?;
    engine.sync()?;

    let sessions: Vec<ReaderSession<CoreMetrics>> = readers
        .into_iter()
        .map(|r| ReaderSession::new(r, workload.schema.clone()))
        .collect();

    let mut latencies: Vec<u64> = Vec::with_capacity(workload.total_queries());
    let mut replay_err: Option<String> = None;
    std::thread::scope(|scope| {
        let handles: Vec<_> = sessions
            .into_iter()
            .zip(&workload.reader_queries)
            .map(|(mut session, queries)| {
                scope.spawn(move || {
                    let mut samples = Vec::with_capacity(queries.len());
                    let mut out = Vec::new();
                    for query in queries {
                        let line = query.protocol_line();
                        out.clear();
                        let t0 = Instant::now();
                        session.handle_query_line(&line, &mut out);
                        let ns = t0.elapsed().as_nanos() as u64;
                        if let Some(err) = out.iter().find(|l| l.starts_with("ERR")) {
                            return Err(format!("query {line:?} failed: {err}"));
                        }
                        samples.push(ns);
                    }
                    Ok(samples)
                })
            })
            .collect();

        // The writer side of the race: drain the rest of the INGEST
        // schedule while the readers are querying. The first batch event
        // was already submitted before the readers spawned — skip it so
        // idle gaps stay aligned with the batches they follow.
        let mut first_event_done = false;
        let mut ingest = || -> Result<(), ServeError> {
            for event in &workload.ingest {
                match event {
                    IngestEvent::Batch(_) if !first_event_done => {
                        first_event_done = true;
                    }
                    IngestEvent::Batch(_) => {
                        if let Some(batch) = batches.next() {
                            let batch = batch.map_err(|_| {
                                ServeError::Config("scenario generated an invalid row")
                            })?;
                            engine.submit(batch)?;
                        }
                    }
                    IngestEvent::Idle(yields) => {
                        for _ in 0..*yields {
                            std::thread::yield_now();
                        }
                    }
                }
            }
            engine.sync()?;
            Ok(())
        };
        if let Err(e) = ingest() {
            replay_err = Some(e.to_string());
        }

        for handle in handles {
            match handle.join() {
                Ok(Ok(samples)) => latencies.extend(samples),
                Ok(Err(msg)) => {
                    replay_err.get_or_insert(msg);
                }
                Err(_) => {
                    replay_err.get_or_insert_with(|| "reader panicked".into());
                }
            }
        }
    });
    if let Some(msg) = replay_err {
        return Err(ServeError::Protocol(msg));
    }
    let refused = engine.refused();
    engine.finish()?;

    latencies.sort_unstable();
    let snapshot = metrics.snapshot();
    let served_per_reader: Vec<u64> = (0..readers_n)
        .map(|i| snapshot.cores[cfg.reader_core(i)].counter(Counter::QueriesServed))
        .collect();
    Ok(ScenarioReport {
        scenario: workload.spec.scenario,
        total_queries: latencies.len(),
        served_per_reader,
        p50_ns: nearest_rank(&latencies, 0.50),
        p99_ns: nearest_rank(&latencies, 0.99),
        p999_ns: nearest_rank(&latencies, 0.999),
        refused,
        epochs_published: snapshot.total(Counter::EpochsPublished),
        metrics: snapshot,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{generate, Scenario, WorkloadSpec, STARVED_READER};

    fn spec(scenario: Scenario) -> WorkloadSpec {
        WorkloadSpec {
            scenario,
            rows: 400,
            batches: 10,
            queries: 120,
            readers: 3,
            seed: 11,
        }
    }

    #[test]
    fn replay_answers_every_query_and_balances_readers() {
        let w = generate(&spec(Scenario::Uniform)).unwrap();
        let report = replay(&w, &ReplayConfig::default()).unwrap();
        assert_eq!(report.total_queries, 120);
        assert_eq!(report.served_per_reader.iter().sum::<u64>(), 120);
        assert!(report.fairness_ratio() < 1.5, "{:?}", report.served_per_reader);
        assert!(report.epochs_published >= 10);
        assert!(report.p50_ns <= report.p99_ns && report.p99_ns <= report.p999_ns);
        // The serve conservation laws hold on the replay's telemetry.
        report.metrics.validate().unwrap();
    }

    #[test]
    fn replay_surfaces_reader_starvation() {
        let w = generate(&spec(Scenario::StarveReader)).unwrap();
        let report = replay(&w, &ReplayConfig::default()).unwrap();
        assert_eq!(report.served_per_reader[STARVED_READER], 0);
        assert!(report.fairness_ratio().is_infinite());
    }

    #[test]
    fn adversarial_partition_serves_the_full_stream() {
        let w = generate(&spec(Scenario::AdversarialPartition)).unwrap();
        let report = replay(
            &w,
            &ReplayConfig {
                partitions: 4,
                ..ReplayConfig::default()
            },
        )
        .unwrap();
        assert_eq!(report.total_queries, 120);
        report.metrics.validate().unwrap();
    }

    #[test]
    fn nearest_rank_matches_the_definition() {
        let s = [10, 20, 30, 40, 50, 60, 70, 80, 90, 100];
        assert_eq!(nearest_rank(&s, 0.50), 50);
        assert_eq!(nearest_rank(&s, 0.99), 100);
        assert_eq!(nearest_rank(&s, 0.001), 10);
        assert_eq!(nearest_rank(&[], 0.5), 0);
    }
}
