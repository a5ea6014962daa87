//! Criterion micro-benchmark — key-selection planning cost (§IV-A).
//!
//! The paper argues GreedyFit's `O(K log K)` makes it viable on the data
//! path while exact methods are not, and Fig. 14 shows SAFit buys nothing.
//! This bench measures a single `select` call for each algorithm across
//! key-universe sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use fastjoin_core::load::{InstanceLoad, KeyStat};
use fastjoin_core::selection::{DpFit, ExhaustiveFit, GreedyFit, KeySelector, SaFit, SaFitParams};

fn stats(n: u64) -> (InstanceLoad, InstanceLoad, Vec<KeyStat>) {
    let keys: Vec<KeyStat> =
        (0..n).map(|k| KeyStat::new(k, 1 + (k * 7) % 50, 1 + (k * 13) % 20)).collect();
    let stored: u64 = keys.iter().map(|k| k.stored).sum();
    let queue: u64 = keys.iter().map(|k| k.queue).sum();
    // Source twice as loaded as the target.
    (InstanceLoad::new(stored, queue), InstanceLoad::new(stored / 2, queue / 2), keys)
}

fn bench_selection(c: &mut Criterion) {
    let mut group = c.benchmark_group("selection");
    for &k in &[100u64, 1_000, 10_000] {
        let (src, dst, keys) = stats(k);
        group.bench_with_input(BenchmarkId::new("greedyfit", k), &k, |b, _| {
            let mut sel = GreedyFit::new();
            b.iter(|| black_box(sel.select(src, dst, black_box(&keys), 0.0)));
        });
        group.bench_with_input(BenchmarkId::new("safit", k), &k, |b, _| {
            let mut sel = SaFit::new(SaFitParams::default(), 42);
            b.iter(|| black_box(sel.select(src, dst, black_box(&keys), 0.0)));
        });
        group.bench_with_input(BenchmarkId::new("dpfit", k), &k, |b, _| {
            let mut sel = DpFit::new();
            b.iter(|| black_box(sel.select(src, dst, black_box(&keys), 0.0)));
        });
    }
    // The exact oracle only works on tiny universes — the point of §IV-A.
    let (src, dst, keys) = stats(18);
    group.bench_function("exhaustive/18", |b| {
        let mut sel = ExhaustiveFit::new();
        b.iter(|| black_box(sel.select(src, dst, black_box(&keys), 0.0)));
    });
    group.finish();
}

criterion_group!(benches, bench_selection);
criterion_main!(benches);
