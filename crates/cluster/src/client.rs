//! [`ClusterClient`]: one thread's fan-out query endpoint over cluster cuts.
//!
//! A cluster client mirrors [`wfbn_serve::QueryReader`] one level up: it
//! owns its cluster-epoch lane, its marginal cache, and its telemetry core
//! outright, so the entire cross-shard query path stays single-writer by
//! construction. Answering a cache-missing scope is
//!
//! 1. one **fan-out**: each scope is marginalized against every shard's
//!    packed snapshot of the pinned cut — each shard table packed once per
//!    cut epoch, on the cut's first miss, exactly as the single-node reader
//!    packs its one table ([`MarginalCache::answer`]);
//! 2. `S` **partial merges** per scope: shard partials count *disjoint*
//!    observation sets (the router gives every key exactly one owner), so
//!    [`MarginalTable::merge_shard`] — elementwise count sums plus a total
//!    sum — reconstructs the marginal a single node would have computed over
//!    the union. Byte-identical counts in, byte-identical MI/CPT values out.
//!
//! The client implements [`wfbn_serve::QueryEndpoint`], so an
//! [`EndpointSession`](wfbn_serve::EndpointSession) speaks the identical
//! wire protocol over it — cluster responses are byte-for-byte single-node
//! responses over the same counts.

use std::sync::Arc;
use wfbn_concurrent::cluster_epoch::{ClusterCut, ClusterReader};
use wfbn_core::{MarginalTable, PotentialTable};
use wfbn_obs::{CoreRecorder, Counter, Recorder};
use wfbn_serve::{MarginalCache, QueryEndpoint, ServeError};

/// A cluster-level query endpoint answering against pinned cluster cuts;
/// see the [module docs](self).
pub struct ClusterClient<R: Recorder> {
    lane: ClusterReader<PotentialTable>,
    cache: MarginalCache,
    rec: Arc<R>,
    core: usize,
}

impl<R: Recorder> ClusterClient<R> {
    pub(crate) fn new(lane: ClusterReader<PotentialTable>, rec: Arc<R>, core: usize) -> Self {
        ClusterClient {
            lane,
            cache: MarginalCache::new(),
            rec,
            core,
        }
    }

    /// The telemetry core index this client records on.
    pub fn core(&self) -> usize {
        self.core
    }

    /// The cluster epoch currently pinned (0 before the first publication).
    pub fn pinned_epoch(&self) -> u64 {
        self.lane.pinned_epoch()
    }

    /// The newest cluster epoch the coordinator has made visible (Acquire).
    pub fn published(&self) -> u64 {
        self.lane.published()
    }

    /// `true` once the coordinator has exited; the currently pinned cut
    /// (after one final [`pin`](Self::pin)) is then the last there will be.
    pub fn is_closed(&self) -> bool {
        self.lane.is_closed()
    }

    /// Number of scopes currently held by this client's marginal cache.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Advances to the newest published cluster cut, flushing the marginal
    /// cache and counting an `epochs_pinned` event if the epoch moved.
    /// Returns `None` until the first complete cut reaches this client.
    pub fn pin(&mut self) -> Option<(u64, ClusterCut<PotentialTable>)> {
        let before = self.lane.pinned_epoch();
        let pinned = self.lane.pin().map(|(e, cut)| (e, Arc::clone(cut)));
        if let Some((epoch, _)) = pinned {
            if epoch != before {
                self.cache.refresh(epoch);
                self.rec.core(self.core).add(Counter::EpochsPinned, 1);
            }
        }
        pinned
    }
}

/// Answers against one pinned cluster cut: each cache-missing scope is read
/// from every shard's packed snapshot and the partials merged.
impl<R: Recorder> QueryEndpoint for ClusterClient<R> {
    fn answer_batch(
        &mut self,
        scopes: &[&[usize]],
    ) -> Result<(u64, Vec<Arc<MarginalTable>>), ServeError> {
        let (epoch, cut) = self.pin().ok_or(ServeError::NothingPublished)?;
        let (answers, computed) = self.cache.answer(&cut, scopes, &*self.rec, self.core)?;
        if computed > 0 {
            // One fan-out covers every missing scope on every shard.
            let mut core = self.rec.core(self.core);
            core.add(Counter::QueryFanOuts, 1);
            core.add(Counter::PartialMerges, (cut.len() * computed) as u64);
        }
        Ok((epoch, answers))
    }

    fn published(&self) -> u64 {
        ClusterClient::published(self)
    }

    fn pinned_epoch(&self) -> u64 {
        ClusterClient::pinned_epoch(self)
    }
}

#[cfg(test)]
mod tests {
    use crate::router::{Cluster, ClusterConfig};
    use wfbn_data::Schema;
    use wfbn_obs::{CoreMetrics, Counter};
    use wfbn_serve::{EndpointSession, Engine, EngineConfig, QueryEndpoint, ServeError};
    use std::sync::Arc;

    fn ingest(n_vars: usize, rows: &[&[u16]]) -> (Schema, Vec<Vec<u16>>) {
        let schema = Schema::uniform(n_vars, 2).unwrap();
        (schema, rows.iter().map(|r| r.to_vec()).collect())
    }

    #[test]
    fn merged_answers_match_a_single_node_reader() {
        let (schema, rows) = ingest(
            3,
            &[
                &[0, 0, 1],
                &[1, 1, 0],
                &[0, 1, 1],
                &[1, 0, 0],
                &[1, 1, 1],
                &[0, 0, 0],
            ],
        );
        let cfg = ClusterConfig {
            shards: 2,
            ..ClusterConfig::default()
        };
        let (mut cluster, mut clients) = Cluster::start(&schema, &cfg).unwrap();
        for chunk in rows.chunks(2) {
            cluster.submit_rows(chunk).unwrap();
        }
        cluster.sync().unwrap();

        // Single-node reference over the identical ingest prefix.
        let (mut engine, mut readers) =
            Engine::start(&schema, &EngineConfig::default()).unwrap();
        let refs: Vec<&[u16]> = rows.iter().map(|r| r.as_slice()).collect();
        engine
            .submit(wfbn_data::Dataset::from_rows(schema.clone(), &refs).unwrap())
            .unwrap();
        engine.sync().unwrap();

        let client = &mut clients[0];
        let reference = &mut readers[0];
        for scope in [&[0usize][..], &[1, 2][..], &[0, 1, 2][..]] {
            let (_, merged) = client.marginal(scope).unwrap();
            let (_, single) = reference.marginal(scope).unwrap();
            assert_eq!(merged.total(), single.total());
            let merged_counts: Vec<u64> =
                (0..merged.num_cells()).map(|i| merged.count_at(i)).collect();
            let single_counts: Vec<u64> =
                (0..single.num_cells()).map(|i| single.count_at(i)).collect();
            assert_eq!(merged_counts, single_counts, "scope {scope:?}");
        }
        let (_, mi_cluster) = client.mi(0, 2).unwrap();
        let (_, mi_single) = reference.mi(0, 2).unwrap();
        assert!((mi_cluster - mi_single).abs() < 1e-12);
        let (_, parents, rows_c) = client.cpt(1, &[0]).unwrap();
        let (_, parents_s, rows_s) = reference.cpt(1, &[0]).unwrap();
        assert_eq!(parents, parents_s);
        assert_eq!(rows_c, rows_s);

        engine.finish().unwrap();
        cluster.finish().unwrap();
    }

    #[test]
    fn protocol_lines_are_byte_identical_to_single_node() {
        let (schema, rows) = ingest(3, &[&[0, 0, 0], &[0, 1, 0], &[1, 0, 1], &[1, 1, 1]]);
        let cfg = ClusterConfig {
            shards: 4,
            ..ClusterConfig::default()
        };
        let (mut cluster, mut clients) = Cluster::start(&schema, &cfg).unwrap();
        cluster.submit_rows(&rows).unwrap();
        cluster.sync().unwrap();

        let (mut engine, mut readers) =
            Engine::start(&schema, &EngineConfig::default()).unwrap();
        let refs: Vec<&[u16]> = rows.iter().map(|r| r.as_slice()).collect();
        engine
            .submit(wfbn_data::Dataset::from_rows(schema.clone(), &refs).unwrap())
            .unwrap();
        engine.sync().unwrap();

        let mut cluster_session =
            EndpointSession::new(clients.pop().unwrap(), schema.clone());
        let mut single_session = EndpointSession::new(readers.pop().unwrap(), schema);
        let script = "MI 0 2; MARGINAL 2; CPT 2 0; EPOCH";
        let (mut a, mut b) = (Vec::new(), Vec::new());
        cluster_session.handle_query_line(script, &mut a);
        single_session.handle_query_line(script, &mut b);
        assert_eq!(a, b, "cluster protocol responses must be byte-identical");
        assert_eq!(a[0], "OK MI e=1 X0 -- X2 0.693147 nats");

        engine.finish().unwrap();
        cluster.finish().unwrap();
    }

    #[test]
    fn queries_before_any_cluster_epoch_are_refused() {
        let schema = Schema::uniform(2, 2).unwrap();
        let (cluster, mut clients) =
            Cluster::start(&schema, &ClusterConfig::default()).unwrap();
        assert!(matches!(
            clients[0].marginal(&[0]),
            Err(ServeError::NothingPublished)
        ));
        cluster.finish().unwrap();
    }

    #[test]
    fn fan_out_counters_obey_the_cluster_laws() {
        let (schema, rows) = ingest(3, &[&[0, 0, 1], &[1, 1, 0], &[0, 1, 1], &[1, 0, 0]]);
        let cfg = ClusterConfig {
            shards: 2,
            clients: 1,
            ..ClusterConfig::default()
        };
        let cluster_metrics = Arc::new(CoreMetrics::new(cfg.cluster_cores()));
        let shard_metrics: Vec<Arc<CoreMetrics>> = (0..cfg.shards)
            .map(|_| Arc::new(CoreMetrics::new(cfg.engine.cores())))
            .collect();
        let (mut cluster, mut clients) = Cluster::start_recorded(
            &schema,
            &cfg,
            Arc::clone(&cluster_metrics),
            shard_metrics.iter().map(Arc::clone).collect(),
        )
        .unwrap();
        cluster.submit_rows(&rows[..2]).unwrap();
        cluster.submit_rows(&rows[2..]).unwrap();
        cluster.sync().unwrap();
        let client = &mut clients[0];
        client.mi(0, 1).unwrap();
        client.mi(0, 1).unwrap(); // second hit comes from the cache
        client.marginal(&[1, 2]).unwrap();
        cluster.finish().unwrap();

        // The cluster recorder alone satisfies the v5 laws...
        let mut report = cluster_metrics.snapshot();
        report.validate().expect("cluster conservation laws");
        assert_eq!(report.total(Counter::BatchesRouted), 2);
        assert_eq!(report.total(Counter::ShardBatchesRouted), 4);
        assert_eq!(report.total(Counter::ClusterEpochsPublished), 2);
        assert_eq!(report.total(Counter::QueryFanOuts), 2);
        // 2 shards x 1 scope per fan-out: 2 partials merged per miss.
        assert_eq!(report.total(Counter::PartialMerges), 4);
        assert_eq!(report.total(Counter::QueriesServed), 3);
        assert_eq!(report.total(Counter::CacheHits), 1);
        // ...and so does the merged cluster + shard view.
        for shard in &shard_metrics {
            report.merge(&shard.snapshot());
        }
        report.validate().expect("merged cluster + shard laws");
        assert_eq!(report.total(Counter::EpochsPublished), 2 + 2 + 2);
    }
}
