//! Criterion micro-benchmarks for table construction (Figures 3/4 at
//! laptop scale): sequential vs wait-free vs striped-lock, across
//! thread counts and input sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use wfbn_baselines::striped::StripedLockBuilder;
use wfbn_core::construct::{sequential_build, waitfree_build};
use wfbn_data::{Dataset, Generator, Schema, UniformIndependent};

fn workload(n: usize, m: usize) -> Dataset {
    UniformIndependent::new(Schema::uniform(n, 2).unwrap()).generate(m, 42)
}

fn bench_construction(c: &mut Criterion) {
    let mut group = c.benchmark_group("construction");
    group.sample_size(10);
    for &m in &[20_000usize, 80_000] {
        let data = workload(30, m);
        group.throughput(Throughput::Elements(m as u64));
        group.bench_with_input(BenchmarkId::new("sequential", m), &data, |b, d| {
            b.iter(|| black_box(sequential_build(d).unwrap().table.num_entries()));
        });
        for &p in &[2usize, 4] {
            group.bench_with_input(
                BenchmarkId::new(format!("wait-free-p{p}"), m),
                &data,
                |b, d| {
                    b.iter(|| black_box(waitfree_build(d, p).unwrap().table.num_entries()));
                },
            );
            group.bench_with_input(
                BenchmarkId::new(format!("striped-lock-p{p}"), m),
                &data,
                |b, d| {
                    let builder = StripedLockBuilder::default();
                    b.iter(|| black_box(builder.build_map(d, p).unwrap().num_stripes()));
                },
            );
        }
    }
    group.finish();
}

fn bench_vs_variables(c: &mut Criterion) {
    let mut group = c.benchmark_group("construction-vs-n");
    group.sample_size(10);
    for &n in &[30usize, 40, 50] {
        let data = workload(n, 30_000);
        group.bench_with_input(BenchmarkId::new("wait-free-p4", n), &data, |b, d| {
            b.iter(|| black_box(waitfree_build(d, 4).unwrap().table.num_entries()));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_construction, bench_vs_variables);
criterion_main!(benches);
