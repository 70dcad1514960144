//! End-to-end consistency of the observability layer: every counter the
//! instrumented hot paths emit must balance against ground truth the
//! algorithms already guarantee — per-core row counts partition `m`, routed
//! keys are conserved across the stage-2 barrier, single-core runs never
//! touch a queue, and the no-op recorder changes nothing about the output.
//!
//! Built with `--features wfbn-core/metrics`, every `snapshot()` call in
//! here additionally re-validates the same invariants inside the library
//! (and panics on violation), so this suite doubles as the strict-mode CI
//! gate.

use wfbn_core::allpairs::all_pairs_mi_recorded;
use wfbn_core::construct::{sequential_build_recorded, waitfree_build, waitfree_build_recorded};
use wfbn_core::marginal::marginalize_recorded;
use wfbn_core::obs::{Counter, Stage, PROBE_BUCKETS};
use wfbn_core::stream::StreamingBuilder;
use wfbn_core::{CoreMetrics, MetricsReport, NoopRecorder};
use wfbn_data::{Dataset, Generator, Schema, UniformIndependent, ZipfIndependent};

fn workload(n: usize, m: usize, seed: u64) -> Dataset {
    UniformIndependent::new(Schema::uniform(n, 2).unwrap()).generate(m, seed)
}

/// The conservation laws every build-shaped report must satisfy.
fn assert_build_conservation(report: &MetricsReport, m: u64, label: &str) {
    let rows: u64 = report
        .cores
        .iter()
        .map(|c| c.counter(Counter::RowsEncoded))
        .sum();
    assert_eq!(rows, m, "{label}: per-core row counts must sum to m");
    assert_eq!(
        report.total(Counter::LocalUpdates) + report.total(Counter::Forwarded),
        m,
        "{label}: every encoded key is either applied locally or forwarded"
    );
    assert_eq!(
        report.total(Counter::Forwarded),
        report.total(Counter::Drained),
        "{label}: every forwarded key must be drained exactly once"
    );
    // Each core's own ledger must balance too, not just the totals.
    for (i, core) in report.cores.iter().enumerate() {
        assert_eq!(
            core.counter(Counter::RowsEncoded),
            core.counter(Counter::LocalUpdates) + core.counter(Counter::Forwarded),
            "{label}: core {i} ledger"
        );
    }
    report.validate().expect("report passes its own validator");
}

#[test]
fn waitfree_row_counts_partition_m_at_every_thread_count() {
    let m = 6_000;
    let data = workload(14, m, 11);
    for p in [1usize, 2, 3, 4, 7] {
        let rec = CoreMetrics::new(p);
        let built = waitfree_build_recorded(&data, p, &rec).unwrap();
        assert_eq!(built.table.total_count(), m as u64);
        let report = rec.snapshot();
        assert_eq!(report.cores.len(), p);
        assert_build_conservation(&report, m as u64, &format!("waitfree p={p}"));
    }
}

#[test]
fn routed_plus_local_equals_table_inserts() {
    let m = 5_000;
    let data = workload(12, m, 17);
    let rec = CoreMetrics::new(4);
    let built = waitfree_build_recorded(&data, 4, &rec).unwrap();
    let report = rec.snapshot();
    // local + drained is exactly the occurrence mass applied to the tables,
    // which must equal both the total count and the paper's m.
    assert_eq!(
        report.total(Counter::LocalUpdates) + report.total(Counter::Drained),
        built.table.total_count()
    );
    // The probe histogram records one sample per increment; a coalesced
    // run is one increment carrying several occurrences.
    assert_eq!(
        report.probe_hist_mass(),
        report.total(Counter::LocalUpdates) + report.total(Counter::Drained)
            - report.total(Counter::KeysCoalesced)
    );
}

#[test]
fn single_core_runs_never_touch_a_queue() {
    let data = workload(10, 2_000, 5);
    let rec = CoreMetrics::new(1);
    waitfree_build_recorded(&data, 1, &rec).unwrap();
    let report = rec.snapshot();
    assert_eq!(report.total(Counter::Forwarded), 0);
    assert_eq!(report.total(Counter::Drained), 0);
    assert_eq!(report.total(Counter::SegmentsLinked), 0);
    assert_eq!(report.queue_hwm_max(), 0, "P=1 must see an empty queue HWM");
    assert_eq!(report.stage_total_ns(Stage::Barrier), 0);
}

#[test]
fn noop_recorder_build_is_identical_to_the_uninstrumented_path() {
    let data = workload(16, 8_000, 23);
    for p in [1usize, 2, 4] {
        let plain = waitfree_build(&data, p).unwrap();
        let noop = waitfree_build_recorded(&data, p, &NoopRecorder).unwrap();
        let metered = {
            let rec = CoreMetrics::new(p);
            waitfree_build_recorded(&data, p, &rec).unwrap()
        };
        assert_eq!(plain.table.to_sorted_vec(), noop.table.to_sorted_vec());
        assert_eq!(plain.table.to_sorted_vec(), metered.table.to_sorted_vec());
        assert_eq!(plain.stats.total_rows(), noop.stats.total_rows());
        assert_eq!(plain.stats.total_forwarded(), noop.stats.total_forwarded());
    }
}

#[test]
fn sequential_builder_balances_too() {
    let m = 4_000;
    let data = workload(12, m, 31);
    let rec = CoreMetrics::new(1);
    sequential_build_recorded(&data, &rec).unwrap();
    let report = rec.snapshot();
    assert_build_conservation(&report, m as u64, "sequential");
    assert_eq!(report.total(Counter::LocalUpdates), m as u64);
}

#[test]
fn streaming_batches_accumulate_into_one_balanced_report() {
    let schema = Schema::uniform(12, 2).unwrap();
    let batches: Vec<Dataset> = (0..3)
        .map(|seed| UniformIndependent::new(schema.clone()).generate(1_500, seed))
        .collect();
    let rec = CoreMetrics::new(3);
    let mut builder = StreamingBuilder::new(&schema, 3).unwrap();
    for batch in &batches {
        builder.absorb_recorded(batch, &rec).unwrap();
    }
    assert_eq!(builder.rows_absorbed(), 4_500);
    assert_build_conservation(&rec.snapshot(), 4_500, "streaming");
}

#[test]
fn marginalization_scans_every_entry_exactly_once() {
    let data = workload(12, 5_000, 41);
    let table = waitfree_build(&data, 4).unwrap().table;
    let entries = table.num_entries() as u64;
    for threads in [1usize, 2, 4] {
        let rec = CoreMetrics::new(threads.max(1));
        marginalize_recorded(&table, &[0, 5], threads, &rec).unwrap();
        let report = rec.snapshot();
        assert_eq!(
            report.total(Counter::EntriesScanned),
            entries,
            "threads={threads}"
        );
        assert!(report.stage_total_ns(Stage::Marginal) > 0);
    }
}

#[test]
fn all_pairs_scans_every_entry_once_and_counts_every_pair() {
    let data = workload(12, 5_000, 43);
    let table = waitfree_build(&data, 4).unwrap().table;
    let entries = table.num_entries() as u64;
    for threads in [1usize, 2, 4] {
        let rec = CoreMetrics::new(threads);
        all_pairs_mi_recorded(&table, threads, &rec);
        let report = rec.snapshot();
        assert_eq!(
            report.total(Counter::EntriesScanned),
            entries,
            "threads={threads}: one all-pairs call reads each entry once"
        );
        assert_eq!(
            report.total(Counter::PairsScanned),
            12 * 11 / 2,
            "threads={threads}"
        );
        assert!(report.stage_total_ns(Stage::Marginal) > 0);
    }
}

#[test]
fn probe_histogram_buckets_cover_all_mass() {
    let data = workload(16, 10_000, 3);
    let rec = CoreMetrics::new(4);
    waitfree_build_recorded(&data, 4, &rec).unwrap();
    let report = rec.snapshot();
    let hist = report.probe_hist_total();
    assert_eq!(hist.len(), PROBE_BUCKETS);
    assert_eq!(hist.iter().sum::<u64>(), report.probe_hist_mass());
    assert!(hist[0] > 0, "some increments must hit on the first probe");
    // Probes counter dominates the mass: every increment needs ≥ 1 probe.
    assert!(report.total(Counter::Probes) >= report.probe_hist_mass());
}

/// The extra laws the write-combining router must satisfy on top of
/// [`assert_build_conservation`].
fn assert_batch_accounting(report: &MetricsReport, label: &str) {
    let forwarded = report.total(Counter::Forwarded);
    let coalesced = report.total(Counter::KeysCoalesced);
    let blocks = report.total(Counter::BlocksFlushed);
    assert!(
        coalesced <= forwarded,
        "{label}: coalesced occurrences are a subset of forwarded ones"
    );
    if forwarded > 0 {
        assert!(
            blocks > 0,
            "{label}: routed keys can only cross inside a flushed block"
        );
        assert!(
            blocks <= forwarded - coalesced,
            "{label}: every flush ships ≥ 1 element ({blocks} blocks, \
             {} elements)",
            forwarded - coalesced
        );
    }
    // Per-core ledgers, not just totals: flushes and coalesces happen on the
    // producing core.
    for (i, core) in report.cores.iter().enumerate() {
        let fwd = core.counter(Counter::Forwarded);
        let coal = core.counter(Counter::KeysCoalesced);
        let blk = core.counter(Counter::BlocksFlushed);
        assert!(coal <= fwd, "{label}: core {i} coalesced ≤ forwarded");
        assert!(
            blk <= fwd.saturating_sub(coal),
            "{label}: core {i} blocks ≤ shipped elements"
        );
    }
    // The probe histogram saw one sample per *table increment*: locals plus
    // drained elements (a coalesced pair is one increment of weight > 1).
    assert_eq!(
        report.probe_hist_mass(),
        report.total(Counter::LocalUpdates) + report.total(Counter::Drained) - coalesced,
        "{label}: probe mass = local + drained − coalesced"
    );
    report.validate().expect("batched report passes the validator");
}

#[test]
fn batched_builders_balance_with_block_accounting() {
    let m = 6_000;
    let data = workload(14, m, 11);
    for p in [2usize, 3, 4, 8] {
        let rec = CoreMetrics::new(p);
        let built = waitfree_build_recorded(&data, p, &rec).unwrap();
        assert_eq!(built.table.total_count(), m as u64);
        let report = rec.snapshot();
        assert_build_conservation(&report, m as u64, &format!("batched waitfree p={p}"));
        assert_batch_accounting(&report, &format!("batched waitfree p={p}"));
    }
}

#[test]
fn batched_coalescing_on_skew_preserves_count_mass() {
    // Zipf(1.8) over a small state space produces long duplicate runs: the
    // combiner must coalesce aggressively, yet drained *mass* (Σ counts)
    // still equals forwarded occurrences exactly.
    let schema = Schema::new(vec![3, 3, 3, 3]).unwrap();
    let data = ZipfIndependent::new(schema, 1.8).unwrap().generate(8_000, 29);
    let rec = CoreMetrics::new(4);
    let built = waitfree_build_recorded(&data, 4, &rec).unwrap();
    assert_eq!(built.table.total_count(), 8_000);
    let report = rec.snapshot();
    assert!(
        report.total(Counter::KeysCoalesced) > 0,
        "skewed keys must coalesce"
    );
    assert_eq!(
        report.total(Counter::Forwarded),
        report.total(Counter::Drained),
        "coalescing must not create or destroy occurrence mass"
    );
    assert_batch_accounting(&report, "zipf batched");
}

#[test]
fn scalar_paths_report_zero_batch_counters() {
    // The row-at-a-time oracle neither flushes nor coalesces.
    let data = workload(12, 3_000, 19);
    let rec = CoreMetrics::new(1);
    sequential_build_recorded(&data, &rec).unwrap();
    let report = rec.snapshot();
    assert_eq!(report.total(Counter::BlocksFlushed), 0);
    assert_eq!(report.total(Counter::KeysCoalesced), 0);
}

#[test]
fn batched_streaming_absorbs_accumulate_into_one_balanced_report() {
    let schema = Schema::uniform(12, 2).unwrap();
    let batches: Vec<Dataset> = (0..3)
        .map(|seed| UniformIndependent::new(schema.clone()).generate(1_500, seed))
        .collect();
    let rec = CoreMetrics::new(3);
    let mut builder = StreamingBuilder::with_capacity_hint(&schema, 3, 4_500).unwrap();
    for batch in &batches {
        builder.absorb_recorded(batch, &rec).unwrap();
    }
    assert_eq!(builder.rows_absorbed(), 4_500);
    let report = rec.snapshot();
    assert_build_conservation(&report, 4_500, "batched streaming");
    assert_batch_accounting(&report, "batched streaming");
}

#[test]
fn merged_reports_add_up() {
    let data = workload(12, 3_000, 13);
    let rec_a = CoreMetrics::new(2);
    let rec_b = CoreMetrics::new(2);
    waitfree_build_recorded(&data, 2, &rec_a).unwrap();
    waitfree_build_recorded(&data, 2, &rec_b).unwrap();
    let a = rec_a.snapshot();
    let mut merged = a.clone();
    merged.merge(&rec_b.snapshot());
    assert_eq!(merged.total(Counter::RowsEncoded), 6_000);
    assert_build_conservation(&merged, 6_000, "merged");
}

// ---------------------------------------------------------------------------
// Serve laws of wfbn-metrics-v7, driven through a real engine.
// ---------------------------------------------------------------------------

use std::sync::Arc;
use wfbn_obs::{LAT_BUCKETS, LAT_BUCKET_UPPER_NS};
use wfbn_serve::{Engine, EngineConfig};

/// Runs a recorded engine with two readers issuing *different* query
/// counts, so the per-reader laws are tested on asymmetric traffic.
fn serve_replay(queries: [usize; 2]) -> (EngineConfig, MetricsReport) {
    let schema = Schema::uniform(8, 2).unwrap();
    let data = UniformIndependent::new(schema.clone()).generate(2_000, 77);
    let cfg = EngineConfig {
        builder_threads: 2,
        readers: 2,
        ..EngineConfig::default()
    };
    let rec = Arc::new(CoreMetrics::new(cfg.cores()));
    let (mut engine, readers) = Engine::start_recorded(&schema, &cfg, Arc::clone(&rec)).unwrap();
    engine.submit(data).unwrap();
    engine.sync().unwrap();
    std::thread::scope(|scope| {
        for (t, mut reader) in readers.into_iter().enumerate() {
            let budget = queries[t];
            scope.spawn(move || {
                for q in 0..budget {
                    let i = q % 7;
                    let (_, mi) = reader.mi(i, i + 1).unwrap();
                    std::hint::black_box(mi);
                }
            });
        }
    });
    engine.finish().unwrap();
    (cfg, rec.snapshot())
}

#[test]
fn v4_latency_histogram_mass_equals_queries_served_per_core() {
    let (cfg, report) = serve_replay([30, 18]);
    // Law 1 (per-core): each reader's latency-histogram mass is exactly its
    // queries_served — one histogram sample per answered query, recorded on
    // the answering core, never smeared across cores.
    for (i, &expect) in [30u64, 18].iter().enumerate() {
        let core = &report.cores[cfg.reader_core(i)];
        let mass: u64 = core.lat_hist.iter().sum();
        assert_eq!(core.counter(Counter::QueriesServed), expect, "reader {i}");
        assert_eq!(mass, expect, "reader {i}: histogram mass != served");
    }
    // Builder cores serve nothing and record no latency samples.
    for core_id in 0..cfg.builder_threads {
        let core = &report.cores[core_id];
        assert_eq!(core.counter(Counter::QueriesServed), 0);
        assert_eq!(core.lat_hist.iter().sum::<u64>(), 0);
    }
    // Law 2 (global): per-reader counters sum to the global totals.
    assert_eq!(report.total(Counter::QueriesServed), 48);
    assert_eq!(report.lat_hist_total().iter().sum::<u64>(), 48);
    report.validate().expect("v4 laws hold on a real replay");
}

#[test]
fn v4_fairness_helpers_read_the_reader_cores() {
    let (cfg, report) = serve_replay([30, 18]);
    let serving = report.serving_cores();
    assert_eq!(
        serving,
        vec![cfg.reader_core(0), cfg.reader_core(1)],
        "exactly the reader cores served queries"
    );
    assert_eq!(report.served_by(&serving), vec![30, 18]);
    let ratio = report.fairness_ratio(&serving).expect("two serving cores");
    assert!((ratio - 30.0 / 18.0).abs() < 1e-12, "ratio {ratio}");
}

#[test]
fn v4_percentile_estimates_are_bucket_upper_edges_and_ordered() {
    let (_, report) = serve_replay([40, 20]);
    let p50 = report.lat_percentile_le(0.50).expect("mass > 0");
    let p99 = report.lat_percentile_le(0.99).expect("mass > 0");
    let p999 = report.lat_percentile_le(0.999).expect("mass > 0");
    assert!(p50 <= p99 && p99 <= p999, "percentiles must be monotone");
    for p in [p50, p99, p999] {
        assert!(
            LAT_BUCKET_UPPER_NS.contains(&p),
            "estimate {p} must be one of the {LAT_BUCKETS} bucket edges"
        );
    }
}

#[test]
fn v4_json_report_carries_the_new_sections() {
    let (_, report) = serve_replay([12, 8]);
    let json = report.to_json();
    assert!(json.contains("\"schema\": \"wfbn-metrics-v7\""), "{json}");
    for key in [
        "\"latency_percentiles\":",
        "\"fairness\":",
        "\"p50_le_ns\":",
        "\"p99_le_ns\":",
        "\"p999_le_ns\":",
        "\"serving_cores\":",
        "\"served_min\":",
        "\"served_max\":",
        "\"max_min_ratio\":",
    ] {
        assert!(json.contains(key), "missing {key} in: {json}");
    }
}

/// A reader answers cache misses from its epoch's packed snapshot and counts
/// every packed entry once per distinct missing scope, whichever kernel
/// counts it (bit-slices up to 32 cells, the decode fold above): k such
/// scopes over an N-entry epoch record exactly k·N, however the scopes are
/// fused, and hits and repeats within a fused group read nothing. The
/// writer times each epoch's pack on core 0, so the reader's `marginalize`
/// stage holds only its scans.
#[test]
fn reader_scans_count_every_packed_entry_once_per_missing_scope() {
    let schema = Schema::uniform(8, 2).unwrap();
    let data = UniformIndependent::new(schema.clone()).generate(3_000, 5);
    let cfg = EngineConfig::default();
    let rec = Arc::new(CoreMetrics::new(cfg.cores()));
    let (mut engine, mut readers) =
        Engine::start_recorded(&schema, &cfg, Arc::clone(&rec)).unwrap();
    engine.submit(data).unwrap();
    engine.sync().unwrap();
    let reader = &mut readers[0];
    let (_, epoch) = reader.pin().unwrap();
    let n = epoch.packed().num_entries() as u64;
    let scanned = || rec.snapshot().cores[cfg.reader_core(0)].counter(Counter::EntriesScanned);
    let reader_marginal_ns = || rec.snapshot().cores[cfg.reader_core(0)].stage(Stage::Marginal);
    assert!(
        rec.snapshot().cores[0].stage(Stage::Marginal) > 0,
        "the writer times the epoch's pack"
    );
    assert_eq!(reader_marginal_ns(), 0, "pinning an epoch packs nothing");

    // One fused group: 4 distinct scopes, one of them twice; the 64-cell
    // scope is folded, the others bit-sliced.
    let group: [&[usize]; 5] = [&[0, 1], &[2], &[0, 1], &[3, 5, 7], &[0, 1, 2, 3, 4, 5]];
    reader.answer_batch(&group).unwrap();
    assert_eq!(scanned(), 4 * n);
    // Hits read nothing; two more distinct misses, one line each.
    reader.answer_batch(&group).unwrap();
    reader.marginal(&[4]).unwrap();
    reader.mi(6, 7).unwrap();
    assert_eq!(scanned(), 6 * n);
    engine.finish().unwrap();

    let report = rec.snapshot();
    let reader_core = &report.cores[cfg.reader_core(0)];
    // The repeat inside the first group is a miss that reads nothing.
    assert_eq!(reader_core.counter(Counter::CacheMisses), 7);
    assert_eq!(reader_core.counter(Counter::CacheHits), 5);
    assert!(reader_core.stage(Stage::Marginal) > 0, "scans are timed");
    report.validate().expect("serve laws hold");
}
