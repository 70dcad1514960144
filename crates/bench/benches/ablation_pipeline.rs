//! Ablation A2 — barrier two-stage build vs pipelined (barrier-free) build.
//!
//! Under balanced load the barrier costs `O(P)` against `O(mn/P)` work, so
//! the two variants should tie; under skewed partition ownership the
//! pipelined variant overlaps draining with encoding and should win. The
//! skewed case is Zipf keys under the one `key % P` rule: for binary
//! variables `key % 4` is `s0 + 2·s1`, and Zipf(1.5) makes state 0 about
//! 74% likely per variable, so core 0 owns about 54% of the rows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use wfbn_core::construct::waitfree_build;
use wfbn_core::pipeline::pipelined_build;
use wfbn_data::{Dataset, Generator, Schema, UniformIndependent, ZipfIndependent};

fn bench_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline-vs-barrier");
    group.sample_size(10);
    let schema = Schema::uniform(24, 2).unwrap();
    let p = 4;
    let workloads: [(&str, Dataset); 2] = [
        (
            "uniform",
            UniformIndependent::new(schema.clone()).generate(50_000, 3),
        ),
        (
            "zipf",
            ZipfIndependent::new(schema, 1.5)
                .unwrap()
                .generate(50_000, 3),
        ),
    ];
    for (name, data) in &workloads {
        group.bench_with_input(BenchmarkId::new("two-stage", name), data, |b, d| {
            b.iter(|| black_box(waitfree_build(d, p).unwrap().table.num_entries()));
        });
        group.bench_with_input(BenchmarkId::new("pipelined", name), data, |b, d| {
            b.iter(|| black_box(pipelined_build(d, p).unwrap().table.num_entries()));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_pipeline);
criterion_main!(benches);
