//! [`Cluster`]: the ingest router and cluster-epoch coordinator.
//!
//! One `Cluster` owns `S` independent [`Engine`]s (one writer thread each),
//! a consistent-hash [`ShardMap`] assigning every encoded row key to exactly
//! one shard, and a coordinator thread assembling *cluster epochs* from the
//! shards' local epochs.
//!
//! # Epoch alignment
//!
//! The router submits one sub-batch to **every** shard per cluster batch —
//! empty sub-batches included — so shard `s`'s local epoch `e` is exactly
//! shard `s`'s slice of the first `e` cluster batches. The coordinator
//! consumes each shard's observer lane *sequentially*
//! ([`EpochReader::next_epoch`]) and offers each local epoch-`e` snapshot
//! into a [`cluster_epoch_channel`]; the channel publishes cluster epoch `e`
//! (one Release store) only once all `S` shards have staged theirs. A client
//! pinning cluster epoch `e` therefore holds the `S` disjoint slices of the
//! first `e` batches — summing their per-scope counts reproduces a
//! single-node build of the same prefix byte for byte.
//!
//! # Stall detection
//!
//! A shard that never publishes must not hang the cluster silently. The
//! coordinator gives a partially-staged cut a bounded yield budget
//! ([`ClusterConfig::stall_budget`]); exhausting it — or finding the missing
//! shard's lane closed with nothing left to drain — surfaces
//! [`ClusterError::Stalled`] naming the shard and the epoch it is holding
//! back. The [`ClusterConfig::starve_shard`] negative control (the router
//! skips that shard entirely) exists to prove this path fires.
//!
//! # Telemetry
//!
//! Each shard engine records into its own recorder (its usual core layout);
//! the cluster recorder adds the routing tier: core 0 is the router
//! (`batches_routed`, `shard_batches_routed`), core 1 the coordinator
//! (`cluster_epochs_published`, mirrored into `epochs_published` so the
//! pins-vs-publishes law reads unchanged at cluster level), and cores
//! `2..2+clients` the fan-out clients.

use crate::client::ClusterClient;
use crate::map::ShardMap;
use crate::ClusterError;
use std::sync::Arc;
use std::thread::JoinHandle;
use wfbn_concurrent::cluster_epoch::{cluster_epoch_channel, ClusterReader};
use wfbn_concurrent::epoch::EpochReader;
use wfbn_core::{KeyCodec, PotentialTable};
use wfbn_data::{Dataset, Schema};
use wfbn_obs::{CoreRecorder, Counter, NoopRecorder, Recorder};
use wfbn_serve::{Engine, EngineConfig, Epoch, QueryReader, ServeError};

/// Construction parameters for [`Cluster::start`].
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of shard engines (the cluster's `S`).
    pub shards: usize,
    /// Number of cluster-level fan-out clients to create.
    pub clients: usize,
    /// Per-shard engine configuration (its `builder_threads` is the paper's
    /// intra-shard `P`).
    pub engine: EngineConfig,
    /// Coordinator yield rounds a partially-staged cluster epoch may wait
    /// before it is reported as stalled.
    pub stall_budget: u64,
    /// Negative control: the router silently skips this shard, so it never
    /// publishes and the coordinator must report the stall (see the
    /// starve-shard test). `None` in every real configuration.
    pub starve_shard: Option<usize>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            shards: 2,
            clients: 1,
            engine: EngineConfig::default(),
            stall_budget: 4_000_000,
            starve_shard: None,
        }
    }
}

impl ClusterConfig {
    /// Telemetry core of the router thread on the cluster recorder.
    pub const ROUTER_CORE: usize = 0;
    /// Telemetry core of the coordinator thread on the cluster recorder.
    pub const COORDINATOR_CORE: usize = 1;

    /// Telemetry core of cluster client `i` on the cluster recorder.
    pub fn client_core(&self, i: usize) -> usize {
        2 + i
    }

    /// Cores a recording cluster recorder must provide: router +
    /// coordinator + one per client.
    pub fn cluster_cores(&self) -> usize {
        2 + self.clients
    }
}

/// What the coordinator's exit meant, cached so both [`Cluster::sync`] and
/// [`Cluster::finish`] can report it (a `JoinHandle` joins only once).
#[derive(Debug, Clone, Copy)]
enum CoordVerdict {
    /// Every lane closed and drained with no cut pending.
    Clean,
    /// A cut could not complete; the missing shard and the held-back epoch.
    Stalled { shard: usize, epoch: u64 },
    /// The coordinator thread panicked or its verdict was already taken.
    Lost,
}

impl CoordVerdict {
    fn into_error(self) -> ClusterError {
        match self {
            // A clean coordinator exit observed where an error is demanded
            // (e.g. `sync` past the last epoch) means the channel closed
            // under the caller.
            CoordVerdict::Clean | CoordVerdict::Lost => ClusterError::Closed,
            CoordVerdict::Stalled { shard, epoch } => ClusterError::Stalled { shard, epoch },
        }
    }
}

/// The front-end handle to a running cluster; see the [module docs](self).
pub struct Cluster<R: Recorder> {
    engines: Vec<Engine<R>>,
    /// Shard-local query readers (each engine requires at least one). The
    /// cluster answers queries through its fan-out clients instead, but the
    /// lanes must be drained so superseded shard snapshots are reclaimed —
    /// [`sync`](Self::sync) and [`finish`](Self::finish) pin them through.
    shard_readers: Vec<Vec<QueryReader<R>>>,
    map: ShardMap,
    codec: KeyCodec,
    schema: Schema,
    /// The cluster's own accounting endpoint on the cluster-epoch channel.
    watch: ClusterReader<Epoch>,
    coordinator: Option<JoinHandle<Result<(), ClusterError>>>,
    verdict: Option<CoordVerdict>,
    rec: Arc<R>,
    submitted: u64,
    starve: Option<usize>,
}

impl Cluster<NoopRecorder> {
    /// Starts a cluster with telemetry disabled.
    #[allow(clippy::type_complexity)]
    pub fn start(
        schema: &Schema,
        cfg: &ClusterConfig,
    ) -> Result<(Self, Vec<ClusterClient<NoopRecorder>>), ClusterError> {
        let shard_recs = (0..cfg.shards).map(|_| Arc::new(NoopRecorder)).collect();
        Cluster::start_recorded(schema, cfg, Arc::new(NoopRecorder), shard_recs)
    }
}

impl<R: Recorder + Send + Sync + 'static> Cluster<R> {
    /// Starts `cfg.shards` shard engines and the coordinator thread;
    /// returns the router handle plus `cfg.clients` fan-out clients.
    ///
    /// `rec` is the cluster-tier recorder (at least
    /// [`ClusterConfig::cluster_cores`] cores when recording);
    /// `shard_recs[s]` is shard `s`'s own recorder (at least
    /// [`EngineConfig::cores`] cores each) — separate recorders keep every
    /// telemetry word single-writer across the whole cluster.
    #[allow(clippy::type_complexity)]
    pub fn start_recorded(
        schema: &Schema,
        cfg: &ClusterConfig,
        rec: Arc<R>,
        shard_recs: Vec<Arc<R>>,
    ) -> Result<(Self, Vec<ClusterClient<R>>), ClusterError> {
        if cfg.shards == 0 {
            return Err(ClusterError::Config("at least one shard required"));
        }
        if cfg.clients == 0 {
            return Err(ClusterError::Config("at least one cluster client required"));
        }
        if shard_recs.len() != cfg.shards {
            return Err(ClusterError::Config("one shard recorder per shard required"));
        }
        if cfg.starve_shard.is_some_and(|s| s >= cfg.shards) {
            return Err(ClusterError::Config("starved shard id out of range"));
        }

        let mut engines = Vec::with_capacity(cfg.shards);
        let mut shard_readers = Vec::with_capacity(cfg.shards);
        let mut lanes: Vec<EpochReader<Epoch>> = Vec::with_capacity(cfg.shards);
        for shard_rec in shard_recs {
            let (engine, readers, mut observers) =
                Engine::start_with_observers(schema, &cfg.engine, shard_rec, 1)?;
            engines.push(engine);
            shard_readers.push(readers);
            lanes.push(observers.pop().expect("one observer lane per shard"));
        }

        // Lane 0 is the cluster's own accounting endpoint; client lanes
        // follow.
        let (mut publisher, mut ends) = cluster_epoch_channel::<Epoch>(cfg.shards, cfg.clients + 1);
        let watch = ends.remove(0);
        let clients: Vec<ClusterClient<R>> = ends
            .into_iter()
            .enumerate()
            .map(|(i, end)| ClusterClient::new(end, Arc::clone(&rec), cfg.client_core(i)))
            .collect();

        let crec = Arc::clone(&rec);
        let stall_budget = cfg.stall_budget;
        let coordinator = std::thread::Builder::new()
            .name("wfbn-cluster-coord".into())
            .spawn(move || {
                let mut lanes = lanes;
                let mut idle: u64 = 0;
                // wf-bound: service(shutdown) — the coordinator's lifetime
                // loop: each round stages at least one shard epoch, publishes
                // a complete cut, or yields; it exits once every shard lane
                // is closed and drained (cluster shutdown) or a stalled cut
                // exhausts its bounded budget (the error path below).
                loop {
                    let mut progressed = false;
                    let mut open = false;
                    for (shard, lane) in lanes.iter_mut().enumerate() {
                        // One local epoch per shard per cut: a shard that
                        // already staged waits for the laggards.
                        if publisher.offered(shard) {
                            continue;
                        }
                        match lane.next_epoch() {
                            Some((_epoch, snap)) => {
                                if publisher.offer(shard, snap).is_some() {
                                    let mut c = crec.core(ClusterConfig::COORDINATOR_CORE);
                                    c.add(Counter::ClusterEpochsPublished, 1);
                                    // Mirror into the generic publication
                                    // counter so pinned-vs-published reads
                                    // the same at cluster level.
                                    c.add(Counter::EpochsPublished, 1);
                                }
                                progressed = true;
                            }
                            None => {
                                if !lane.is_closed() {
                                    open = true;
                                } else if publisher.staged() > 0 {
                                    // This shard can never complete the
                                    // pending cut: definite stall.
                                    return Err(ClusterError::Stalled {
                                        shard,
                                        epoch: publisher.published() + 1,
                                    });
                                }
                            }
                        }
                    }
                    if progressed {
                        idle = 0;
                        continue;
                    }
                    if !open {
                        // Every lane closed and drained, no cut pending.
                        return Ok(());
                    }
                    // A partial cut is waiting on a live shard; bound the
                    // wait.
                    let waiting = publisher.waiting_on().filter(|_| publisher.staged() > 0);
                    if let Some(shard) = waiting {
                        idle += 1;
                        if idle > stall_budget {
                            return Err(ClusterError::Stalled {
                                shard,
                                epoch: publisher.published() + 1,
                            });
                        }
                    }
                    std::thread::yield_now();
                }
            })
            .expect("spawning the cluster coordinator thread");

        Ok((
            Cluster {
                engines,
                shard_readers,
                map: ShardMap::new(cfg.shards),
                codec: KeyCodec::new(schema),
                schema: schema.clone(),
                watch,
                coordinator: Some(coordinator),
                verdict: None,
                rec,
                submitted: 0,
                starve: cfg.starve_shard,
            },
            clients,
        ))
    }

    /// Number of shards the router fans out over.
    pub fn shards(&self) -> usize {
        self.map.shards()
    }

    /// Cluster batches submitted so far.
    pub fn submitted(&self) -> u64 {
        self.submitted
    }

    /// Newest cluster epoch the coordinator has published.
    pub fn published(&mut self) -> u64 {
        // Drain the accounting lane so superseded cuts are reclaimed.
        self.watch.pin();
        self.watch.published()
    }

    /// The schema every ingested row is validated against.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The recorder the cluster tier reports into.
    pub fn recorder(&self) -> &Arc<R> {
        &self.rec
    }

    /// Routes one cluster batch: partitions `rows` by consistent-hashed key
    /// ownership and submits one sub-batch to every shard (empty sub-batches
    /// included, which is what keeps shard epochs aligned with cluster
    /// batches). Blocks on any shard's admission backpressure. Returns the
    /// cluster batch number (= the cluster epoch this batch will publish).
    pub fn submit_rows(&mut self, rows: &[Vec<u16>]) -> Result<u64, ClusterError> {
        let n = self.schema.num_vars();
        for row in rows {
            if row.len() != n {
                return Err(ClusterError::Serve(ServeError::Protocol(format!(
                    "row has {} values, schema has {n} variables",
                    row.len()
                ))));
            }
            for (j, &s) in row.iter().enumerate() {
                if s >= self.schema.arity(j) {
                    return Err(ClusterError::Serve(ServeError::Protocol(format!(
                        "state {s} out of range for X{j}"
                    ))));
                }
            }
        }

        // Partition first, then build every sub-batch, then submit: a
        // validation failure must refuse the whole cluster batch before any
        // shard absorbs part of it.
        let mut parts: Vec<Vec<&[u16]>> = vec![Vec::new(); self.shards()];
        for row in rows {
            let shard = self.map.shard_of(self.codec.encode(row));
            parts[shard].push(row.as_slice());
        }
        let batches: Vec<Dataset> = parts
            .iter()
            .map(|part| Dataset::from_rows(self.schema.clone(), part))
            .collect::<Result<_, _>>()
            .map_err(|e| ClusterError::Serve(ServeError::Protocol(e.to_string())))?;

        let mut forwarded = 0u64;
        for (shard, batch) in batches.into_iter().enumerate() {
            if self.starve == Some(shard) {
                continue; // negative control: this shard never hears from us
            }
            self.engines[shard].submit(batch)?;
            forwarded += 1;
        }
        self.submitted += 1;
        let mut c = self.rec.core(ClusterConfig::ROUTER_CORE);
        c.add(Counter::BatchesRouted, 1);
        c.add(Counter::ShardBatchesRouted, forwarded);
        Ok(self.submitted)
    }

    /// Blocks until every submitted cluster batch has published its cluster
    /// epoch; returns that epoch. Surfaces [`ClusterError::Stalled`] (with
    /// the culprit shard) if the coordinator gave up on a cut instead.
    pub fn sync(&mut self) -> Result<u64, ClusterError> {
        // Keep the vestigial shard-local reader lanes drained so superseded
        // shard snapshots are reclaimed while the cluster runs.
        for readers in &mut self.shard_readers {
            for reader in readers {
                reader.pin();
            }
        }
        // wf-bound: backpressure(backlog) — waits for the coordinator to
        // assemble the finitely many already-submitted cluster batches; each
        // complete cut advances the cluster epoch, and a coordinator exit
        // (clean or stalled) surfaces as a closed channel.
        loop {
            let published = self.published();
            if published >= self.submitted {
                return Ok(published);
            }
            if self.watch.is_closed() {
                return Err(self.join_coordinator().into_error());
            }
            std::thread::yield_now();
        }
    }

    /// Joins the coordinator (at most once; later calls replay the cached
    /// verdict) and reports what its exit meant.
    fn join_coordinator(&mut self) -> CoordVerdict {
        if let Some(handle) = self.coordinator.take() {
            self.verdict = Some(match handle.join() {
                Ok(Ok(())) => CoordVerdict::Clean,
                Ok(Err(ClusterError::Stalled { shard, epoch })) => {
                    CoordVerdict::Stalled { shard, epoch }
                }
                Ok(Err(_)) | Err(_) => CoordVerdict::Lost,
            });
        }
        self.verdict.unwrap_or(CoordVerdict::Lost)
    }

    /// Closes every shard's admission, joins the shard writers and the
    /// coordinator, and returns the per-shard final tables (shard `s`'s
    /// build of its slice of every admitted batch).
    ///
    /// The coordinator's verdict takes precedence over the tables: a starved
    /// or stalled cluster epoch surfaces here as
    /// [`ClusterError::Stalled`] even though each shard finished cleanly.
    pub fn finish(mut self) -> Result<Vec<PotentialTable>, ClusterError> {
        drop(std::mem::take(&mut self.shard_readers));
        let mut tables = Vec::with_capacity(self.engines.len());
        let mut shard_err: Option<ServeError> = None;
        for engine in std::mem::take(&mut self.engines) {
            match engine.finish() {
                Ok(table) => tables.push(table),
                Err(e) => shard_err = Some(shard_err.unwrap_or(e)),
            }
        }
        // Every observer lane is now closed; the coordinator drains what is
        // left, publishes any completed cuts, and exits.
        match self.join_coordinator() {
            CoordVerdict::Clean => {}
            other => return Err(other.into_error()),
        }
        if let Some(e) = shard_err {
            return Err(ClusterError::Serve(e));
        }
        Ok(tables)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfbn_core::construct::sequential_build;

    fn rows(pairs: &[[u16; 2]]) -> Vec<Vec<u16>> {
        pairs.iter().map(|r| r.to_vec()).collect()
    }

    #[test]
    fn cluster_epoch_tracks_cluster_batches() {
        let schema = Schema::uniform(2, 2).unwrap();
        let cfg = ClusterConfig {
            shards: 3,
            ..ClusterConfig::default()
        };
        let (mut cluster, mut clients) = Cluster::start(&schema, &cfg).unwrap();
        assert_eq!(cluster.shards(), 3);
        assert!(clients[0].pin().is_none());

        cluster.submit_rows(&rows(&[[0, 0], [0, 1]])).unwrap();
        assert_eq!(cluster.sync().unwrap(), 1);
        cluster.submit_rows(&rows(&[[1, 0], [1, 1]])).unwrap();
        assert_eq!(cluster.sync().unwrap(), 2);

        let (epoch, cut) = clients[0].pin().unwrap();
        assert_eq!(epoch, 2);
        assert_eq!(cut.len(), 3, "one snapshot per shard");
        let total: u64 = cut.iter().map(|e| e.packed().total_count()).sum();
        assert_eq!(total, 4, "every row counted on exactly one shard");
        cluster.finish().unwrap();
    }

    #[test]
    fn empty_sub_batches_keep_shards_aligned() {
        // One identical row per batch: all rows land on one shard, yet every
        // other shard still advances its local epoch via empty sub-batches.
        let schema = Schema::uniform(2, 2).unwrap();
        let cfg = ClusterConfig {
            shards: 4,
            ..ClusterConfig::default()
        };
        let (mut cluster, _clients) = Cluster::start(&schema, &cfg).unwrap();
        for _ in 0..5 {
            cluster.submit_rows(&rows(&[[1, 1]])).unwrap();
        }
        assert_eq!(cluster.sync().unwrap(), 5);
        let tables = cluster.finish().unwrap();
        let counted: u64 = tables.iter().map(|t| t.total_count()).sum();
        assert_eq!(counted, 5);
        let owners = tables.iter().filter(|t| t.total_count() > 0).count();
        assert_eq!(owners, 1, "one key family, one owning shard");
    }

    #[test]
    fn shard_tables_partition_the_offline_build() {
        let schema = Schema::uniform(3, 2).unwrap();
        let cfg = ClusterConfig {
            shards: 2,
            ..ClusterConfig::default()
        };
        let (mut cluster, _clients) = Cluster::start(&schema, &cfg).unwrap();
        let all: Vec<Vec<u16>> = (0..30u16)
            .map(|i| vec![i % 2, (i / 2) % 2, (i / 4) % 2])
            .collect();
        for chunk in all.chunks(7) {
            cluster.submit_rows(chunk).unwrap();
        }
        cluster.sync().unwrap();
        let tables = cluster.finish().unwrap();

        let refs: Vec<&[u16]> = all.iter().map(Vec::as_slice).collect();
        let offline = sequential_build(&Dataset::from_rows(schema, &refs).unwrap())
            .unwrap()
            .table;
        let mut merged: Vec<(u64, u64)> = tables
            .iter()
            .flat_map(|t| t.to_sorted_vec())
            .collect();
        merged.sort_unstable();
        assert_eq!(merged, offline.to_sorted_vec());
    }

    #[test]
    fn starved_shard_is_reported_not_hung() {
        let schema = Schema::uniform(2, 2).unwrap();
        let cfg = ClusterConfig {
            shards: 3,
            starve_shard: Some(1),
            stall_budget: 10_000,
            ..ClusterConfig::default()
        };
        let (mut cluster, _clients) = Cluster::start(&schema, &cfg).unwrap();
        cluster.submit_rows(&rows(&[[0, 0], [1, 1]])).unwrap();
        // The cut for cluster epoch 1 can never complete: sync must surface
        // the stall (within the bounded budget), naming the starved shard.
        match cluster.sync() {
            Err(ClusterError::Stalled { shard, epoch }) => {
                assert_eq!(shard, 1);
                assert_eq!(epoch, 1);
            }
            other => panic!("expected a stalled epoch, got {other:?}"),
        }
        match cluster.finish() {
            Err(ClusterError::Stalled { shard, epoch: 1 }) => assert_eq!(shard, 1),
            other => panic!("expected the stall verdict from finish, got {other:?}"),
        }
    }

    #[test]
    fn malformed_rows_are_refused_whole() {
        let schema = Schema::uniform(2, 2).unwrap();
        let (mut cluster, _clients) =
            Cluster::start(&schema, &ClusterConfig::default()).unwrap();
        assert!(matches!(
            cluster.submit_rows(&rows(&[[0, 0], [0, 2]])),
            Err(ClusterError::Serve(ServeError::Protocol(_)))
        ));
        assert!(matches!(
            cluster.submit_rows(&[vec![0u16; 3]]),
            Err(ClusterError::Serve(ServeError::Protocol(_)))
        ));
        assert_eq!(cluster.submitted(), 0);
        assert_eq!(cluster.sync().unwrap(), 0);
        cluster.finish().unwrap();
    }

    #[test]
    fn config_validation() {
        let schema = Schema::uniform(2, 2).unwrap();
        for bad in [
            ClusterConfig {
                shards: 0,
                ..ClusterConfig::default()
            },
            ClusterConfig {
                clients: 0,
                ..ClusterConfig::default()
            },
            ClusterConfig {
                starve_shard: Some(9),
                ..ClusterConfig::default()
            },
        ] {
            assert!(matches!(
                Cluster::start(&schema, &bad),
                Err(ClusterError::Config(_))
            ));
        }
    }
}
