//! Owned snapshots of a [`CoreMetrics`](crate::CoreMetrics) run: per-core
//! reports, cross-core aggregation, conservation-invariant validation, and
//! JSON serialization (hand-rolled — the workspace is offline and carries no
//! serde).
//!
//! A [`MetricsReport`] is plain data: once snapshotted it can be merged with
//! reports from other runs (bench repetitions), validated against the routing
//! and queue conservation laws of the two-stage primitive (plus the serving
//! layer's query/epoch/latency laws), and rendered as a stable
//! `wfbn-metrics-v7` JSON document for the `--metrics` flags.

use crate::recorder::{
    Counter, Stage, LAT_BUCKETS, LAT_BUCKET_LABELS, LAT_BUCKET_UPPER_NS, NUM_COUNTERS,
    NUM_STAGES, PROBE_BUCKETS, PROBE_BUCKET_LABELS,
};

/// Identifier embedded in every emitted JSON document; bump on any
/// key/shape change so downstream tooling can detect incompatibility.
/// v2 added the write-combining counters (`blocks_flushed`,
/// `keys_coalesced`) and their conservation rules; v3 added the serving
/// layer (`query_serve` stage, query/cache/epoch counters, the
/// `latency_hist` histogram) and its conservation rules; v4 refines the
/// latency histogram to 16 power-of-two buckets, adds the
/// `latency_percentiles` and `fairness` summary blocks, and tightens the
/// latency conservation law to per core (each reader's histogram mass must
/// equal its own `queries_served`); v5 added five routing, fan-out, merge
/// and epoch counters for a multi-engine serving tier, with their
/// conservation rules; v6 removes the §IV-C entry-move counter, so the
/// probe-mass law holds unconditionally; v7 removes the v5 counters and
/// their rules with the multi-engine tier itself.
pub const SCHEMA: &str = "wfbn-metrics-v7";

/// One core's telemetry, copied out of its [`CoreMetrics`](crate::CoreMetrics)
/// slot.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CoreReport {
    /// Event counters, indexed by [`Counter`].
    pub counters: [u64; NUM_COUNTERS],
    /// Nanoseconds attributed to each [`Stage`].
    pub stage_ns: [u64; NUM_STAGES],
    /// Probe-length histogram; one unit of mass per table increment.
    pub probe_hist: [u64; PROBE_BUCKETS],
    /// Query-latency histogram; one unit of mass per served query.
    pub lat_hist: [u64; LAT_BUCKETS],
    /// High-water mark of foreign-queue backlog observed by this core.
    pub queue_hwm: u64,
}

impl CoreReport {
    /// Value of one counter.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    /// Nanoseconds attributed to one stage.
    pub fn stage(&self, s: Stage) -> u64 {
        self.stage_ns[s as usize]
    }

    /// Total histogram mass (number of recorded table increments).
    pub(crate) fn probe_mass(&self) -> u64 {
        self.probe_hist.iter().sum()
    }

    /// Total latency-histogram mass (number of recorded query latencies).
    pub(crate) fn lat_mass(&self) -> u64 {
        self.lat_hist.iter().sum()
    }

    fn merge_from(&mut self, other: &CoreReport) {
        for i in 0..NUM_COUNTERS {
            self.counters[i] += other.counters[i];
        }
        for i in 0..NUM_STAGES {
            self.stage_ns[i] += other.stage_ns[i];
        }
        for i in 0..PROBE_BUCKETS {
            self.probe_hist[i] += other.probe_hist[i];
        }
        for i in 0..LAT_BUCKETS {
            self.lat_hist[i] += other.lat_hist[i];
        }
        self.queue_hwm = self.queue_hwm.max(other.queue_hwm);
    }
}

/// Aggregated telemetry for one run (or several merged runs).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsReport {
    /// Per-core reports, index = core id.
    pub cores: Vec<CoreReport>,
}

impl MetricsReport {
    /// An all-zero report for `cores` cores (merge accumulator seed).
    pub fn empty(cores: usize) -> Self {
        MetricsReport {
            cores: vec![CoreReport::default(); cores],
        }
    }

    /// Sum of one counter across cores.
    pub fn total(&self, c: Counter) -> u64 {
        self.cores.iter().map(|r| r.counter(c)).sum()
    }

    /// Sum of one stage's nanoseconds across cores (total work in stage).
    pub fn stage_total_ns(&self, s: Stage) -> u64 {
        self.cores.iter().map(|r| r.stage(s)).sum()
    }

    /// Maximum of one stage's nanoseconds across cores — the stage's
    /// critical-path contribution, since cores run the stage concurrently.
    pub fn stage_max_ns(&self, s: Stage) -> u64 {
        self.cores.iter().map(|r| r.stage(s)).max().unwrap_or(0)
    }

    /// Element-wise sum of every core's probe histogram.
    pub fn probe_hist_total(&self) -> [u64; PROBE_BUCKETS] {
        let mut out = [0u64; PROBE_BUCKETS];
        for r in &self.cores {
            for (acc, bucket) in out.iter_mut().zip(&r.probe_hist) {
                *acc += bucket;
            }
        }
        out
    }

    /// Total probe-histogram mass across cores (= recorded table increments).
    pub fn probe_hist_mass(&self) -> u64 {
        self.cores.iter().map(CoreReport::probe_mass).sum()
    }

    /// Element-wise sum of every core's query-latency histogram.
    pub fn lat_hist_total(&self) -> [u64; LAT_BUCKETS] {
        let mut out = [0u64; LAT_BUCKETS];
        for r in &self.cores {
            for (acc, bucket) in out.iter_mut().zip(&r.lat_hist) {
                *acc += bucket;
            }
        }
        out
    }

    /// Total latency-histogram mass across cores (= recorded query
    /// latencies).
    pub fn lat_hist_mass(&self) -> u64 {
        self.cores.iter().map(CoreReport::lat_mass).sum()
    }

    /// Largest queue high-water mark any core observed.
    pub fn queue_hwm_max(&self) -> u64 {
        self.cores.iter().map(|r| r.queue_hwm).max().unwrap_or(0)
    }

    /// Upper bound in nanoseconds on the `q`-quantile (`0 < q <= 1`) of the
    /// aggregated query-latency distribution, or `None` if no latency was
    /// recorded. The bound is the exclusive upper edge of the histogram
    /// bucket holding the nearest-rank sample, so "p99 <= returned value" is
    /// exact; the unbounded `>=4ms` bucket reports `u64::MAX`.
    pub fn lat_percentile_le(&self, q: f64) -> Option<u64> {
        let hist = self.lat_hist_total();
        let mass: u64 = hist.iter().sum();
        if mass == 0 || !(0.0..=1.0).contains(&q) || q == 0.0 {
            return None;
        }
        // Nearest-rank: the smallest rank r with r >= q * mass.
        let rank = ((q * mass as f64).ceil() as u64).clamp(1, mass);
        let mut seen = 0u64;
        for (i, &count) in hist.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return Some(LAT_BUCKET_UPPER_NS[i]);
            }
        }
        None
    }

    /// Cores that served at least one query — the serving-reader cores of a
    /// replay, in core order.
    pub fn serving_cores(&self) -> Vec<usize> {
        (0..self.cores.len())
            .filter(|&i| self.cores[i].counter(Counter::QueriesServed) > 0)
            .collect()
    }

    /// `queries_served` per core for the given core ids.
    pub fn served_by(&self, cores: &[usize]) -> Vec<u64> {
        cores
            .iter()
            .map(|&i| self.cores[i].counter(Counter::QueriesServed))
            .collect()
    }

    /// Max/min ratio of `queries_served` across the given reader cores — the
    /// fairness figure the SLO gate bounds. `None` if `cores` is empty;
    /// `f64::INFINITY` if some listed core served nothing (a starved
    /// reader).
    pub fn fairness_ratio(&self, cores: &[usize]) -> Option<f64> {
        let served = self.served_by(cores);
        let min = *served.iter().min()?;
        let max = *served.iter().max()?;
        if min == 0 {
            return Some(f64::INFINITY);
        }
        Some(max as f64 / min as f64)
    }

    /// Accumulates `other` into `self`, core by core: counters, stage times,
    /// and histograms add; queue high-water marks take the max. Grows to the
    /// larger core count if the reports disagree.
    pub fn merge(&mut self, other: &MetricsReport) {
        if other.cores.len() > self.cores.len() {
            self.cores.resize(other.cores.len(), CoreReport::default());
        }
        for (mine, theirs) in self.cores.iter_mut().zip(&other.cores) {
            mine.merge_from(theirs);
        }
    }

    /// Checks the conservation laws of the two-stage primitive and returns
    /// the first violation found.
    ///
    /// * every core's `rows_encoded` must equal `local_updates + forwarded`
    ///   (stage-1 routing conserves keys) — enforced whenever either side is
    ///   non-zero;
    /// * total `forwarded` must equal total `drained` (queues conserve keys);
    /// * a single-core report must show no queue traffic at all
    ///   (`forwarded`, `drained`, `segments_linked`, `queue_hwm` all zero);
    /// * probe-histogram mass must equal
    ///   `local_updates + drained − keys_coalesced` (one histogram entry per
    ///   table increment; a coalesced occurrence rides an existing
    ///   `(key, count)` element and triggers no probe of its own) — enforced
    ///   when both sides are non-zero, so reports from partial
    ///   instrumentation or direct recorder use stay valid;
    /// * per core, `keys_coalesced` must not exceed `forwarded`
    ///   (coalesced-count mass: every coalesced occurrence is a forwarded
    ///   occurrence);
    /// * coalescing only happens inside the write-combining path, so
    ///   `keys_coalesced > 0` requires `blocks_flushed > 0`;
    /// * per core, when blocks were flushed, every flush carried at least
    ///   one element: `blocks_flushed ≤ forwarded − keys_coalesced`
    ///   (blocks × flush accounting).
    ///
    /// Serving-layer laws (v3, tightened per core in v4):
    ///
    /// * latency-histogram mass must equal total `queries_served` whenever
    ///   both are non-zero (one latency sample per served query);
    /// * per core, a non-empty latency histogram must have mass exactly
    ///   `queries_served` on that core — a reader cannot record another
    ///   reader's latencies (single-writer histogram words);
    /// * per core, cache activity implies queries: `cache_hits +
    ///   cache_misses > 0` requires `queries_served > 0`;
    /// * per core, `epochs_pinned` must not exceed total `epochs_published`
    ///   (a reader cannot pin more distinct epochs than the writer ever
    ///   published).
    pub fn validate(&self) -> Result<(), String> {
        for (core, r) in self.cores.iter().enumerate() {
            let rows = r.counter(Counter::RowsEncoded);
            let routed = r.counter(Counter::LocalUpdates) + r.counter(Counter::Forwarded);
            if (rows != 0 || routed != 0) && rows != routed {
                return Err(format!(
                    "core {core}: rows_encoded {rows} != local_updates + forwarded {routed}"
                ));
            }
        }
        let forwarded = self.total(Counter::Forwarded);
        let drained = self.total(Counter::Drained);
        if forwarded != drained {
            return Err(format!(
                "queue conservation: forwarded {forwarded} != drained {drained}"
            ));
        }
        if self.cores.len() == 1 {
            let r = &self.cores[0];
            if forwarded != 0
                || r.counter(Counter::SegmentsLinked) != 0
                || r.queue_hwm != 0
            {
                return Err(format!(
                    "single-core run shows queue traffic: forwarded {forwarded}, \
                     segments_linked {}, queue_hwm {}",
                    r.counter(Counter::SegmentsLinked),
                    r.queue_hwm
                ));
            }
        }
        for (core, r) in self.cores.iter().enumerate() {
            let fwd = r.counter(Counter::Forwarded);
            let coalesced = r.counter(Counter::KeysCoalesced);
            let blocks = r.counter(Counter::BlocksFlushed);
            if coalesced > fwd {
                return Err(format!(
                    "core {core}: keys_coalesced {coalesced} > forwarded {fwd}"
                ));
            }
            if coalesced > 0 && blocks == 0 {
                return Err(format!(
                    "core {core}: keys_coalesced {coalesced} with blocks_flushed 0 \
                     (coalescing outside the write-combining path)"
                ));
            }
            if blocks > 0 && blocks > fwd - coalesced {
                return Err(format!(
                    "core {core}: blocks_flushed {blocks} > enqueued elements {} \
                     (some flush carried no element)",
                    fwd - coalesced
                ));
            }
        }
        let mass = self.probe_hist_mass();
        let increments = (self.total(Counter::LocalUpdates) + drained)
            .saturating_sub(self.total(Counter::KeysCoalesced));
        if mass != 0 && increments != 0 && mass != increments {
            return Err(format!(
                "probe-histogram mass {mass} != local_updates + drained - keys_coalesced \
                 {increments}"
            ));
        }
        let lat_mass = self.lat_hist_mass();
        let served = self.total(Counter::QueriesServed);
        if lat_mass != 0 && served != 0 && lat_mass != served {
            return Err(format!(
                "latency-histogram mass {lat_mass} != queries_served {served}"
            ));
        }
        for (core, r) in self.cores.iter().enumerate() {
            let mass = r.lat_mass();
            let core_served = r.counter(Counter::QueriesServed);
            if mass != 0 && mass != core_served {
                return Err(format!(
                    "core {core}: latency-histogram mass {mass} != \
                     queries_served {core_served}"
                ));
            }
        }
        let published = self.total(Counter::EpochsPublished);
        for (core, r) in self.cores.iter().enumerate() {
            let hits = r.counter(Counter::CacheHits);
            let misses = r.counter(Counter::CacheMisses);
            if hits + misses > 0 && r.counter(Counter::QueriesServed) == 0 {
                return Err(format!(
                    "core {core}: cache activity ({hits} hits, {misses} misses) \
                     with queries_served 0"
                ));
            }
            let pinned = r.counter(Counter::EpochsPinned);
            if pinned > published {
                return Err(format!(
                    "core {core}: epochs_pinned {pinned} > epochs_published {published}"
                ));
            }
        }
        Ok(())
    }

    /// Full pretty-printed JSON document (top-level object, schema
    /// [`SCHEMA`]).
    pub fn to_json(&self) -> String {
        self.json_fragment(0)
    }

    /// The report as a pretty-printed JSON object whose nested lines are
    /// indented `indent` spaces past the opening brace — lets the binaries
    /// embed the report inside a larger hand-rolled document.
    pub(crate) fn json_fragment(&self, indent: usize) -> String {
        let p0 = " ".repeat(indent);
        let p1 = " ".repeat(indent + 2);
        let p2 = " ".repeat(indent + 4);
        let mut out = String::with_capacity(2048);
        out.push_str("{\n");
        out.push_str(&format!("{p1}\"schema\": \"{SCHEMA}\",\n"));
        out.push_str(&format!("{p1}\"cores\": {},\n", self.cores.len()));

        out.push_str(&format!("{p1}\"totals\": "));
        out.push_str(&json_counters_obj(
            &std::array::from_fn::<u64, NUM_COUNTERS, _>(|i| {
                self.total(Counter::ALL[i])
            }),
            indent + 2,
        ));
        out.push_str(",\n");

        out.push_str(&format!("{p1}\"stage_ns_total\": "));
        out.push_str(&json_stages_obj(
            &std::array::from_fn::<u64, NUM_STAGES, _>(|i| {
                self.stage_total_ns(Stage::ALL[i])
            }),
            indent + 2,
        ));
        out.push_str(",\n");

        out.push_str(&format!("{p1}\"stage_ns_max\": "));
        out.push_str(&json_stages_obj(
            &std::array::from_fn::<u64, NUM_STAGES, _>(|i| {
                self.stage_max_ns(Stage::ALL[i])
            }),
            indent + 2,
        ));
        out.push_str(",\n");

        out.push_str(&format!("{p1}\"queue_hwm_max\": {},\n", self.queue_hwm_max()));

        out.push_str(&format!("{p1}\"probe_hist\": "));
        out.push_str(&json_hist_obj(&self.probe_hist_total(), indent + 2));
        out.push_str(",\n");

        out.push_str(&format!("{p1}\"latency_hist\": "));
        out.push_str(&json_lat_hist_obj(&self.lat_hist_total(), indent + 2));
        out.push_str(",\n");

        out.push_str(&format!("{p1}\"latency_percentiles\": {{\n"));
        out.push_str(&format!(
            "{p2}\"p50_le_ns\": {},\n",
            json_opt_edge(self.lat_percentile_le(0.50))
        ));
        out.push_str(&format!(
            "{p2}\"p99_le_ns\": {},\n",
            json_opt_edge(self.lat_percentile_le(0.99))
        ));
        out.push_str(&format!(
            "{p2}\"p999_le_ns\": {}\n",
            json_opt_edge(self.lat_percentile_le(0.999))
        ));
        out.push_str(&format!("{p1}}},\n"));

        let readers = self.serving_cores();
        let served = self.served_by(&readers);
        out.push_str(&format!("{p1}\"fairness\": {{\n"));
        out.push_str(&format!("{p2}\"serving_cores\": {},\n", readers.len()));
        out.push_str(&format!(
            "{p2}\"served_min\": {},\n",
            served.iter().min().copied().unwrap_or(0)
        ));
        out.push_str(&format!(
            "{p2}\"served_max\": {},\n",
            served.iter().max().copied().unwrap_or(0)
        ));
        out.push_str(&format!(
            "{p2}\"max_min_ratio\": {}\n",
            match self.fairness_ratio(&readers) {
                Some(r) if r.is_finite() => format!("{r:.3}"),
                // Empty reader set or a starved reader: no finite ratio.
                _ => "null".to_string(),
            }
        ));
        out.push_str(&format!("{p1}}},\n"));

        out.push_str(&format!("{p1}\"per_core\": [\n"));
        for (i, r) in self.cores.iter().enumerate() {
            out.push_str(&format!("{p2}{{\n"));
            out.push_str(&format!("{p2}  \"core\": {i},\n"));
            out.push_str(&format!("{p2}  \"counters\": "));
            out.push_str(&json_counters_obj(&r.counters, indent + 6));
            out.push_str(",\n");
            out.push_str(&format!("{p2}  \"stage_ns\": "));
            out.push_str(&json_stages_obj(&r.stage_ns, indent + 6));
            out.push_str(",\n");
            out.push_str(&format!("{p2}  \"queue_hwm\": {},\n", r.queue_hwm));
            out.push_str(&format!("{p2}  \"probe_hist\": "));
            out.push_str(&json_hist_obj(&r.probe_hist, indent + 6));
            out.push_str(",\n");
            out.push_str(&format!("{p2}  \"latency_hist\": "));
            out.push_str(&json_lat_hist_obj(&r.lat_hist, indent + 6));
            out.push('\n');
            out.push_str(&format!(
                "{p2}}}{}\n",
                if i + 1 < self.cores.len() { "," } else { "" }
            ));
        }
        out.push_str(&format!("{p1}]\n"));
        out.push_str(&format!("{p0}}}"));
        out
    }
}

/// Renders a percentile upper edge: a number when bounded, `null` when no
/// latency was recorded or the estimate falls in the unbounded `>=4ms`
/// bucket (whose edge, `u64::MAX`, would be meaningless in the document).
fn json_opt_edge(v: Option<u64>) -> String {
    match v {
        Some(u64::MAX) | None => "null".to_string(),
        Some(x) => x.to_string(),
    }
}

fn json_counters_obj(values: &[u64; NUM_COUNTERS], indent: usize) -> String {
    let pad = " ".repeat(indent);
    let body = Counter::ALL
        .iter()
        .zip(values)
        .map(|(c, v)| format!("{pad}  \"{}\": {v}", c.name()))
        .collect::<Vec<_>>()
        .join(",\n");
    format!("{{\n{body}\n{pad}}}")
}

fn json_stages_obj(values: &[u64; NUM_STAGES], indent: usize) -> String {
    let pad = " ".repeat(indent);
    let body = Stage::ALL
        .iter()
        .zip(values)
        .map(|(s, v)| format!("{pad}  \"{}\": {v}", s.name()))
        .collect::<Vec<_>>()
        .join(",\n");
    format!("{{\n{body}\n{pad}}}")
}

fn json_hist_obj(values: &[u64; PROBE_BUCKETS], indent: usize) -> String {
    let pad = " ".repeat(indent);
    let body = PROBE_BUCKET_LABELS
        .iter()
        .zip(values)
        .map(|(label, v)| format!("{pad}  \"{label}\": {v}"))
        .collect::<Vec<_>>()
        .join(",\n");
    format!("{{\n{body}\n{pad}}}")
}

fn json_lat_hist_obj(values: &[u64; LAT_BUCKETS], indent: usize) -> String {
    let pad = " ".repeat(indent);
    let body = LAT_BUCKET_LABELS
        .iter()
        .zip(values)
        .map(|(label, v)| format!("{pad}  \"{label}\": {v}"))
        .collect::<Vec<_>>()
        .join(",\n");
    format!("{{\n{body}\n{pad}}}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build_like_report() -> MetricsReport {
        // Shaped like a real P=2 build of m=10 rows: routing and queue
        // conservation hold, one histogram entry per table increment.
        let mut r = MetricsReport::empty(2);
        r.cores[0].counters[Counter::RowsEncoded as usize] = 6;
        r.cores[0].counters[Counter::LocalUpdates as usize] = 4;
        r.cores[0].counters[Counter::Forwarded as usize] = 2;
        r.cores[0].counters[Counter::Drained as usize] = 1;
        r.cores[0].probe_hist[0] = 5;
        r.cores[1].counters[Counter::RowsEncoded as usize] = 4;
        r.cores[1].counters[Counter::LocalUpdates as usize] = 3;
        r.cores[1].counters[Counter::Forwarded as usize] = 1;
        r.cores[1].counters[Counter::Drained as usize] = 2;
        r.cores[1].probe_hist[1] = 5;
        r.cores[1].queue_hwm = 2;
        r
    }

    #[test]
    fn totals_and_maxima_aggregate_across_cores() {
        let mut r = build_like_report();
        r.cores[0].stage_ns[Stage::Encode as usize] = 100;
        r.cores[1].stage_ns[Stage::Encode as usize] = 250;
        assert_eq!(r.total(Counter::RowsEncoded), 10);
        assert_eq!(r.stage_total_ns(Stage::Encode), 350);
        assert_eq!(r.stage_max_ns(Stage::Encode), 250);
        assert_eq!(r.queue_hwm_max(), 2);
        assert_eq!(r.probe_hist_mass(), 10);
    }

    #[test]
    fn well_formed_report_validates() {
        build_like_report().validate().expect("conservation holds");
    }

    #[test]
    fn routing_violation_is_reported() {
        let mut r = build_like_report();
        r.cores[0].counters[Counter::Forwarded as usize] = 3;
        let err = r.validate().expect_err("rows != local + forwarded");
        assert!(err.contains("core 0"), "{err}");
    }

    #[test]
    fn queue_conservation_violation_is_reported() {
        let mut r = build_like_report();
        r.cores[1].counters[Counter::Drained as usize] = 99;
        let err = r.validate().expect_err("forwarded != drained");
        assert!(err.contains("queue conservation"), "{err}");
    }

    #[test]
    fn single_core_queue_traffic_is_reported() {
        let mut r = MetricsReport::empty(1);
        r.cores[0].queue_hwm = 1;
        let err = r.validate().expect_err("P=1 cannot see queue traffic");
        assert!(err.contains("single-core"), "{err}");
    }

    #[test]
    fn histogram_mass_mismatch_is_reported() {
        let mut r = build_like_report();
        r.cores[0].probe_hist[0] = 4;
        let err = r.validate().expect_err("mass != increments");
        assert!(err.contains("probe-histogram mass"), "{err}");
    }

    #[test]
    fn batched_report_with_coalescing_validates() {
        // Core 0 forwards 2 occurrences of which 1 coalesces into an open
        // run, so 1 element is enqueued in 1 flushed block; drains apply one
        // table increment per element, so histogram mass drops by the
        // coalesced occurrence.
        let mut r = build_like_report();
        r.cores[0].counters[Counter::BlocksFlushed as usize] = 1;
        r.cores[0].counters[Counter::KeysCoalesced as usize] = 1;
        r.cores[0].probe_hist[0] = 5; // unchanged: stage-1 local + drained
        r.cores[1].probe_hist[1] = 4; // one fewer drain-side increment
        r.validate().expect("coalesced batched report conserves");
    }

    #[test]
    fn coalesced_mass_violation_is_reported() {
        let mut r = build_like_report();
        r.cores[0].counters[Counter::BlocksFlushed as usize] = 1;
        r.cores[0].counters[Counter::KeysCoalesced as usize] = 3; // > forwarded (2)
        let err = r.validate().expect_err("coalesced > forwarded");
        assert!(err.contains("keys_coalesced"), "{err}");
    }

    #[test]
    fn coalescing_without_flushes_is_reported() {
        let mut r = build_like_report();
        r.cores[0].counters[Counter::KeysCoalesced as usize] = 1;
        let err = r.validate().expect_err("coalescing needs a flush path");
        assert!(err.contains("blocks_flushed 0"), "{err}");
    }

    #[test]
    fn empty_flush_accounting_violation_is_reported() {
        let mut r = build_like_report();
        // Core 0 forwarded 2 occurrences but claims 5 flushed blocks.
        r.cores[0].counters[Counter::BlocksFlushed as usize] = 5;
        let err = r.validate().expect_err("more blocks than elements");
        assert!(err.contains("blocks_flushed 5"), "{err}");
    }

    /// A serving run stacked on the build-like report: one writer core
    /// publishing epochs, one reader core pinning and answering queries.
    fn serve_like_report() -> MetricsReport {
        let mut r = build_like_report();
        r.cores[0].counters[Counter::EpochsPublished as usize] = 3;
        r.cores[1].counters[Counter::QueriesServed as usize] = 5;
        r.cores[1].counters[Counter::CacheHits as usize] = 2;
        r.cores[1].counters[Counter::CacheMisses as usize] = 3;
        r.cores[1].counters[Counter::EpochsPinned as usize] = 2;
        r.cores[1].lat_hist[0] = 4;
        r.cores[1].lat_hist[3] = 1;
        r
    }

    #[test]
    fn serve_report_validates_and_aggregates() {
        let r = serve_like_report();
        r.validate().expect("serving laws hold");
        assert_eq!(r.lat_hist_mass(), 5);
        assert_eq!(r.lat_hist_total()[0], 4);
        assert_eq!(r.total(Counter::QueriesServed), 5);
    }

    #[test]
    fn latency_mass_mismatch_is_reported() {
        let mut r = serve_like_report();
        r.cores[1].lat_hist[0] = 9; // mass 10 != 5 served
        let err = r.validate().expect_err("mass != queries_served");
        assert!(err.contains("latency-histogram mass"), "{err}");
    }

    #[test]
    fn cache_activity_without_queries_is_reported() {
        let mut r = serve_like_report();
        r.cores[0].counters[Counter::CacheHits as usize] = 1;
        let err = r.validate().expect_err("hits on a core that served none");
        assert!(err.contains("cache activity"), "{err}");
    }

    #[test]
    fn pinning_more_epochs_than_published_is_reported() {
        let mut r = serve_like_report();
        r.cores[1].counters[Counter::EpochsPinned as usize] = 4; // > 3 published
        let err = r.validate().expect_err("pinned > published");
        assert!(err.contains("epochs_pinned"), "{err}");
    }

    #[test]
    fn merge_adds_counters_and_maxes_hwm() {
        let mut a = build_like_report();
        let b = build_like_report();
        a.merge(&b);
        assert_eq!(a.total(Counter::RowsEncoded), 20);
        assert_eq!(a.probe_hist_mass(), 20);
        assert_eq!(a.queue_hwm_max(), 2);
        a.validate().expect("merged report still conserves");
    }

    #[test]
    fn merge_grows_to_larger_core_count() {
        let mut a = MetricsReport::empty(1);
        let b = build_like_report();
        a.merge(&b);
        assert_eq!(a.cores.len(), 2);
        assert_eq!(a.total(Counter::RowsEncoded), 10);
    }

    #[test]
    fn per_core_latency_mass_mismatch_is_reported() {
        let mut r = serve_like_report();
        // Move one unit of core 1's mass onto core 0 (which served nothing):
        // the global mass still equals total served, but core 0 now holds a
        // histogram it cannot own.
        r.cores[1].lat_hist[0] = 3;
        r.cores[0].lat_hist[0] = 1;
        let err = r.validate().expect_err("cross-core latency mass");
        assert!(err.contains("core 0"), "{err}");
        assert!(err.contains("latency-histogram mass"), "{err}");
    }

    #[test]
    fn percentile_estimator_returns_bucket_upper_edges() {
        let mut r = MetricsReport::empty(1);
        r.cores[0].counters[Counter::QueriesServed as usize] = 100;
        // 99 samples in bucket 3 ([1,2)us), 1 sample in bucket 7 ([16,32)us).
        r.cores[0].lat_hist[3] = 99;
        r.cores[0].lat_hist[7] = 1;
        assert_eq!(r.lat_percentile_le(0.50), Some(2_000));
        assert_eq!(r.lat_percentile_le(0.99), Some(2_000));
        assert_eq!(r.lat_percentile_le(0.999), Some(32_000));
        assert_eq!(r.lat_percentile_le(1.0), Some(32_000));
        assert_eq!(MetricsReport::empty(2).lat_percentile_le(0.99), None);
    }

    #[test]
    fn fairness_helpers_identify_serving_cores_and_ratio() {
        let mut r = MetricsReport::empty(4);
        r.cores[2].counters[Counter::QueriesServed as usize] = 30;
        r.cores[3].counters[Counter::QueriesServed as usize] = 10;
        assert_eq!(r.serving_cores(), vec![2, 3]);
        assert_eq!(r.served_by(&[2, 3]), vec![30, 10]);
        assert_eq!(r.fairness_ratio(&[2, 3]), Some(3.0));
        // A listed core that served nothing is a starved reader.
        assert_eq!(r.fairness_ratio(&[1, 2]), Some(f64::INFINITY));
        assert_eq!(r.fairness_ratio(&[]), None);
    }

    #[test]
    fn json_contains_schema_and_all_keys() {
        let json = build_like_report().to_json();
        assert!(json.contains("\"schema\": \"wfbn-metrics-v7\""));
        assert!(json.contains("\"latency_hist\""));
        assert!(json.contains("\"latency_percentiles\""));
        assert!(json.contains("\"p999_le_ns\""));
        assert!(json.contains("\"fairness\""));
        assert!(json.contains("\"max_min_ratio\""));
        assert!(json.contains("\">=4ms\""));
        assert!(json.contains("\"250-500ns\""));
        assert!(json.contains("\"cores\": 2"));
        for c in Counter::ALL {
            assert!(json.contains(&format!("\"{}\"", c.name())), "{}", c.name());
        }
        for s in Stage::ALL {
            assert!(json.contains(&format!("\"{}\"", s.name())), "{}", s.name());
        }
        for key in [
            "totals",
            "stage_ns_total",
            "stage_ns_max",
            "probe_hist",
            "p50_le_ns",
            "p99_le_ns",
            "serving_cores",
            "served_min",
            "served_max",
        ] {
            assert!(json.contains(&format!("\"{key}\":")), "{key}");
        }
        assert!(json.contains("\"per_core\""));
        assert!(json.contains("\"queue_hwm_max\""));
        assert!(json.contains("\">32\""));
        // Balanced braces/brackets — cheap structural sanity for the
        // hand-rolled emitter.
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn empty_report_is_valid_and_serializes() {
        let r = MetricsReport::empty(4);
        r.validate().expect("all-zero report is conservative");
        assert!(r.to_json().contains("\"cores\": 4"));
    }
}
