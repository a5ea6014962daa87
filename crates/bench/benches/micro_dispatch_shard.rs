//! Criterion micro-benchmarks — the sharded dispatcher's off-path snapshot
//! costs in ns/op: taking and installing a whole-table `RouteSnapshot`,
//! what a route flip costs the sequencer and each shard. (Shard-unique
//! dispatch seqs cost one `fetch_add(len)` per spout message, not one per
//! tuple, so there is no per-tuple sharding overhead left to price.)

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use fastjoin_core::dispatcher::Dispatcher;
use fastjoin_core::partition::HashPartitioner;

fn dispatcher48() -> Dispatcher {
    Dispatcher::new(Box::new(HashPartitioner::new(48, 0)), Box::new(HashPartitioner::new(48, 1)))
}

fn bench_snapshot(c: &mut Criterion) {
    let mut group = c.benchmark_group("shard_snapshot");
    group.throughput(Throughput::Elements(1));
    // What the sequencer pays to publish: one deep copy of both
    // partitioners per shard per route flip.
    group.bench_function("take48", |b| {
        let d = dispatcher48();
        let mut epoch = 0u64;
        b.iter(|| {
            epoch += 1;
            black_box(d.route_snapshot(epoch))
        });
    });
    // What a shard pays to go live on a new epoch (minus the flush, which
    // is workload-dependent): swapping the routing tables in place.
    group.bench_function("install48", |b| {
        let mut d = dispatcher48();
        let snap = d.route_snapshot(1);
        b.iter(|| d.install_routes(black_box(snap.clone())));
    });
    group.finish();
}

criterion_group!(benches, bench_snapshot);
criterion_main!(benches);
