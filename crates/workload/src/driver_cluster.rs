//! Replays a generated workload through a live [`wfbn_cluster::Cluster`] —
//! the sharded twin of [`crate::driver::replay`].
//!
//! Everything the single-node driver measures is measured here the same
//! way, so the SLO gates ([`crate::gates`]) apply unchanged to the cluster
//! path:
//!
//! * The same protocol lines run through [`EndpointSession`], now bound to
//!   a [`ClusterClient`] instead of a `QueryReader` — responses are
//!   byte-identical because both endpoints implement
//!   [`wfbn_serve::QueryEndpoint`] over the identical merged counts.
//! * The INGEST schedule is routed through [`Cluster::submit_rows`], so
//!   the consistent-hash ring — not the caller — decides shard ownership,
//!   and every cluster batch becomes one cluster epoch.
//! * `served_per_reader` comes from each client's telemetry core on the
//!   cluster recorder, so the fairness gate's input has the same
//!   provenance as the single-node replay's.
//!
//! The scenario the cluster is *for* is `adversarial-partition`: its rows
//! collapse onto one intra-shard `key % P` partition by construction, but
//! the ring hashes the same keys across shards, so the hot slice is split
//! `S` ways before the paper's stage-1 rule ever sees it.

use crate::driver::{nearest_rank, ReplayConfig, ScenarioReport};
use crate::scenario::{GeneratedWorkload, IngestEvent};
use std::sync::Arc;
use std::time::Instant;
use wfbn_cluster::{Cluster, ClusterClient, ClusterConfig, ClusterError};
use wfbn_obs::{CoreMetrics, Counter};
use wfbn_serve::{EndpointSession, EngineConfig, ServeError};

/// Folds a cluster-tier error into the serve-error space the driver API
/// reports: shard-engine failures pass through untouched, coordinator
/// verdicts (stall, close, config) become protocol-level diagnostics.
fn cluster_err(e: ClusterError) -> ServeError {
    match e {
        ClusterError::Serve(e) => e,
        other => ServeError::Protocol(other.to_string()),
    }
}

/// Replays `workload` against a fresh `shards`-shard cluster and reduces
/// the measurements into the same [`ScenarioReport`] the single-node
/// driver produces.
///
/// `config.partitions` is the intra-shard `P` (each shard engine's builder
/// threads); `shards` is the cluster's `S`. As with [`crate::driver::replay`],
/// any `ERR` response to a generated query fails the replay rather than
/// skewing the statistics.
pub fn replay_cluster(
    workload: &GeneratedWorkload,
    config: &ReplayConfig,
    shards: usize,
) -> Result<ScenarioReport, ServeError> {
    let readers_n = workload.reader_queries.len();
    let ecfg = EngineConfig {
        builder_threads: config.partitions,
        readers: 1,
        queue_capacity: config.queue_capacity,
    };
    let ccfg = ClusterConfig {
        shards,
        clients: readers_n,
        engine: ecfg.clone(),
        ..ClusterConfig::default()
    };
    let metrics = Arc::new(CoreMetrics::new(ccfg.cluster_cores()));
    let shard_metrics: Vec<Arc<CoreMetrics>> = (0..shards)
        .map(|_| Arc::new(CoreMetrics::new(ecfg.cores())))
        .collect();
    let (mut cluster, clients) = Cluster::start_recorded(
        &workload.schema,
        &ccfg,
        Arc::clone(&metrics),
        shard_metrics.clone(),
    )
    .map_err(cluster_err)?;

    let mut batches = workload.ingest.iter().filter_map(|e| match e {
        IngestEvent::Batch(rows) => Some(rows),
        IngestEvent::Idle(_) => None,
    });
    // Publish cluster epoch 1 before any reader exists, for the same
    // reason the single-node driver does: the race under test is "reader
    // vs. *next* cluster epoch", not "reader vs. first".
    let first = batches
        .next()
        .ok_or(ServeError::Config("workload has no batches"))?;
    cluster.submit_rows(first).map_err(cluster_err)?;
    cluster.sync().map_err(cluster_err)?;

    let sessions: Vec<EndpointSession<ClusterClient<CoreMetrics>>> = clients
        .into_iter()
        .map(|c| EndpointSession::new(c, workload.schema.clone()))
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

        // Route the rest of the INGEST schedule while the clients are
        // fanning out — the first batch event was already routed before
        // the readers spawned, so skip it.
        let mut first_event_done = false;
        let mut ingest = || -> Result<(), ServeError> {
            for event in &workload.ingest {
                match event {
                    IngestEvent::Batch(_) if !first_event_done => {
                        first_event_done = true;
                    }
                    IngestEvent::Batch(_) => {
                        if let Some(rows) = batches.next() {
                            cluster.submit_rows(rows).map_err(cluster_err)?;
                        }
                    }
                    IngestEvent::Idle(yields) => {
                        for _ in 0..*yields {
                            std::thread::yield_now();
                        }
                    }
                }
            }
            cluster.sync().map_err(cluster_err)?;
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
    cluster.finish().map_err(cluster_err)?;

    latencies.sort_unstable();
    // One report over the whole deployment: the cluster-tier snapshot
    // merged with every shard's, which is the domain the cluster
    // conservation laws (fan-outs = S * merges, router = shard sum) are
    // stated over.
    let mut snapshot = metrics.snapshot();
    let served_per_reader: Vec<u64> = (0..readers_n)
        .map(|i| snapshot.cores[ccfg.client_core(i)].counter(Counter::QueriesServed))
        .collect();
    let epochs_published = snapshot.cores[ClusterConfig::COORDINATOR_CORE]
        .counter(Counter::ClusterEpochsPublished);
    for shard in &shard_metrics {
        snapshot.merge(&shard.snapshot());
    }
    Ok(ScenarioReport {
        scenario: workload.spec.scenario,
        total_queries: latencies.len(),
        served_per_reader,
        p50_ns: nearest_rank(&latencies, 0.50),
        p99_ns: nearest_rank(&latencies, 0.99),
        p999_ns: nearest_rank(&latencies, 0.999),
        // The router blocks on shard backpressure instead of refusing, so
        // a cluster replay never drops a batch at admission.
        refused: 0,
        epochs_published,
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
    fn cluster_replay_answers_every_query_and_balances_readers() {
        let w = generate(&spec(Scenario::Uniform)).unwrap();
        let report = replay_cluster(&w, &ReplayConfig::default(), 2).unwrap();
        assert_eq!(report.total_queries, 120);
        assert_eq!(report.served_per_reader.iter().sum::<u64>(), 120);
        assert!(report.fairness_ratio() < 1.5, "{:?}", report.served_per_reader);
        assert!(report.epochs_published >= 10, "{}", report.epochs_published);
        assert!(report.p50_ns <= report.p99_ns && report.p99_ns <= report.p999_ns);
        // The merged cluster + shard telemetry satisfies every
        // conservation law, cluster laws included.
        report.metrics.validate().unwrap();
    }

    #[test]
    fn cluster_replay_splits_the_adversarial_partition_across_shards() {
        // The scenario that owns one `key % P` slice on a single node: the
        // ring must still route rows to every shard, and the replay must
        // serve the full stream.
        let w = generate(&spec(Scenario::AdversarialPartition)).unwrap();
        let report = replay_cluster(
            &w,
            &ReplayConfig {
                partitions: 4,
                ..ReplayConfig::default()
            },
            4,
        )
        .unwrap();
        assert_eq!(report.total_queries, 120);
        let routed = report.metrics.total(Counter::BatchesRouted);
        let forwarded = report.metrics.total(Counter::ShardBatchesRouted);
        assert_eq!(forwarded, routed * 4, "every batch fans to all 4 shards");
        report.metrics.validate().unwrap();
    }

    #[test]
    fn cluster_replay_surfaces_reader_starvation() {
        let w = generate(&spec(Scenario::StarveReader)).unwrap();
        let report = replay_cluster(&w, &ReplayConfig::default(), 2).unwrap();
        assert_eq!(report.served_per_reader[STARVED_READER], 0);
        assert!(report.fairness_ratio().is_infinite());
    }

    #[test]
    fn single_shard_cluster_matches_the_engine_replay_counts() {
        // S = 1 is the degenerate cluster: same queries served, same
        // epochs published as the single-node driver on the same workload.
        let w = generate(&spec(Scenario::Zipf)).unwrap();
        let single = crate::driver::replay(&w, &ReplayConfig::default()).unwrap();
        let clustered = replay_cluster(&w, &ReplayConfig::default(), 1).unwrap();
        assert_eq!(clustered.total_queries, single.total_queries);
        assert_eq!(clustered.epochs_published, single.epochs_published);
        assert_eq!(
            clustered.served_per_reader.iter().sum::<u64>(),
            single.served_per_reader.iter().sum::<u64>()
        );
    }
}
