//! Criterion micro-benchmarks — the hot-path primitives: hashing,
//! dispatch, store insert and probe (ns per scanned tuple), and Zipf
//! sampling.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use rand::rngs::StdRng;
use rand::SeedableRng;

use fastjoin_core::dispatcher::{Dispatch, Dispatcher};
use fastjoin_core::hash::{mix64, partition};
use fastjoin_core::partition::HashPartitioner;
use fastjoin_core::state::TupleStore;
use fastjoin_core::tuple::{JoinedPair, Tuple};
use fastjoin_datagen::zipf::Zipf;
use fastjoin_datagen::TieredSampler;

fn bench_hash(c: &mut Criterion) {
    let mut group = c.benchmark_group("hash");
    group.throughput(Throughput::Elements(1));
    group.bench_function("mix64", |b| {
        let mut x = 0u64;
        b.iter(|| {
            x = x.wrapping_add(1);
            black_box(mix64(x))
        });
    });
    group.bench_function("partition48", |b| {
        let mut x = 0u64;
        b.iter(|| {
            x = x.wrapping_add(1);
            black_box(partition(x, 48))
        });
    });
    group.finish();
}

fn bench_dispatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("dispatch");
    group.throughput(Throughput::Elements(1));
    group.bench_function("hash48", |b| {
        let mut d = Dispatcher::new(
            Box::new(HashPartitioner::new(48, 0)),
            Box::new(HashPartitioner::new(48, 1)),
        );
        let mut out = Dispatch::default();
        let mut k = 0u64;
        b.iter(|| {
            k = k.wrapping_add(1);
            d.dispatch_into(Tuple::r(k % 10_000, k, 0), &mut out);
            black_box(out.store_dest)
        });
    });
    group.finish();
}

fn bench_store(c: &mut Criterion) {
    let mut group = c.benchmark_group("store");
    group.throughput(Throughput::Elements(1));
    group.bench_function("insert", |b| {
        let mut store = TupleStore::new();
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let mut t = Tuple::r(i % 1000, i, 0);
            t.seq = i;
            store.insert(t);
        });
    });
    // ns per scanned tuple: one key's bucket, probed by a tuple every stored
    // one matches — counted (the saturated runtime) or handed out as pairs,
    // over the whole history (`seq` column only) or inside a window that
    // still holds everything (`seq` and `ts`). 128 is among a hot key's
    // bucket sizes in the `tiered_*` workloads, whose 1000 hot keys each
    // end with about 96 R and 384 S tuples.
    let buckets = [("16", 16u64), ("128", 128), ("1k", 1 << 10), ("64k", 1 << 16)];
    for (name, bucket) in buckets {
        let mut store = TupleStore::new();
        for i in 1..=bucket {
            let mut t = Tuple::r(7, i, i);
            t.seq = i;
            store.insert(t);
        }
        let mut probe = Tuple::s(7, bucket + 1, 0);
        probe.seq = u64::MAX;
        let mut pairs = Vec::with_capacity(bucket as usize);
        group.throughput(Throughput::Elements(bucket));
        for (history, min_ts) in [("full_history", 0), ("windowed", 1)] {
            group.bench_function(format!("probe_bucket{name}/{history}/count"), |b| {
                b.iter(|| black_box(store.probe(black_box(&probe), min_ts).count()));
            });
            group.bench_function(format!("probe_bucket{name}/{history}/emit"), |b| {
                b.iter(|| {
                    pairs.clear();
                    for stored in store.probe(black_box(&probe), min_ts) {
                        pairs.push(JoinedPair::orient(stored, probe));
                    }
                    black_box(pairs.len())
                });
            });
        }
    }
    group.finish();
}

fn bench_sampling(c: &mut Criterion) {
    let mut group = c.benchmark_group("sampling");
    group.throughput(Throughput::Elements(1));
    group.bench_function("zipf_10M_keys", |b| {
        let z = Zipf::new(10_000_000, 1.0);
        let mut rng = StdRng::seed_from_u64(1);
        b.iter(|| black_box(z.sample(&mut rng)));
    });
    group.bench_function("tiered_20k_keys", |b| {
        let t = TieredSampler::new(20_000, 0.2, 0.8);
        let mut rng = StdRng::seed_from_u64(2);
        b.iter(|| black_box(t.sample(&mut rng)));
    });
    group.finish();
}

criterion_group!(benches, bench_hash, bench_dispatch, bench_store, bench_sampling);
criterion_main!(benches);
