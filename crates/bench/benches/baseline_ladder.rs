//! Ablation A3 — the full baseline ladder at one configuration.
//!
//! Separates the two properties the wait-free design combines: *no locks*
//! (the atomic-array baseline also has that) and *no sharing* (only the
//! wait-free builder has that).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use wfbn_baselines::all_builders;
use wfbn_data::{Generator, Schema, UniformIndependent};

fn bench_ladder(c: &mut Criterion) {
    let mut group = c.benchmark_group("baseline-ladder");
    group.sample_size(10);
    // Key space 2^20 so the dense atomic-array baseline participates.
    let data = UniformIndependent::new(Schema::uniform(20, 2).unwrap()).generate(50_000, 11);
    let p = 4;
    for builder in all_builders() {
        group.bench_with_input(
            BenchmarkId::from_parameter(builder.name()),
            &data,
            |b, d| {
                b.iter(|| black_box(builder.build(d, p).unwrap().num_entries()));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_ladder);
criterion_main!(benches);
