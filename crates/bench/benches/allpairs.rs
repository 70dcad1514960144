//! Criterion micro-benchmarks for all-pairs mutual information (Figure 5
//! at laptop scale).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use wfbn_core::allpairs::all_pairs_mi;
use wfbn_core::construct::waitfree_build;
use wfbn_core::potential::PotentialTable;
use wfbn_data::{Generator, Schema, UniformIndependent};

fn table(n: usize, m: usize) -> PotentialTable {
    let data = UniformIndependent::new(Schema::uniform(n, 2).unwrap()).generate(m, 42);
    waitfree_build(&data, 4).unwrap().table
}

fn bench_allpairs(c: &mut Criterion) {
    let mut group = c.benchmark_group("all-pairs-mi");
    group.sample_size(10);
    for &n in &[16usize, 24, 32] {
        let t = table(n, 20_000);
        for &p in &[1usize, 4] {
            group.bench_with_input(BenchmarkId::new(format!("p{p}"), n), &t, |b, t| {
                b.iter(|| black_box(all_pairs_mi(t, p).get(0, 1)));
            });
        }
    }
    group.finish();
}

/// Arities 2–8 cycled over 16 variables: pairs with `(r_i − 1)(r_j − 1)`
/// up to 16 are bit-sliced and wider ones keep the scatter fold, so this
/// group covers both kernels and the limit between them.
fn bench_allpairs_mixed(c: &mut Criterion) {
    let mut group = c.benchmark_group("all-pairs-mi-mixed");
    group.sample_size(10);
    let n = 16;
    let schema = Schema::new((0..n).map(|v| 2 + (v % 7) as u16).collect()).unwrap();
    let data = UniformIndependent::new(schema).generate(20_000, 42);
    let t = waitfree_build(&data, 4).unwrap().table;
    for &p in &[1usize, 4] {
        group.bench_with_input(BenchmarkId::new(format!("p{p}"), n), &t, |b, t| {
            b.iter(|| black_box(all_pairs_mi(t, p).get(0, 1)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_allpairs, bench_allpairs_mixed);
criterion_main!(benches);
