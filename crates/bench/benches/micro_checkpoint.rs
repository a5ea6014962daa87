//! Criterion micro-benchmarks — what a join-instance checkpoint costs, in
//! ns/op, against the number of stored tuples.
//!
//! A checkpoint marks the store's undo journal and copies the small rest
//! of the instance, so `checkpoint/after_64_msgs` must be flat from 1k to
//! 10M stored tuples, as must `checkpoint/restore_64_msgs` (undoing a
//! 64-message journal). `checkpoint/store_clone` is the full copy a
//! checkpoint used to make — it grows with the store. `store_insert`
//! prices the journal on the data path: an insert into a marked store
//! (re-marked every 64 inserts, as the runtime does) against an unmarked
//! one.
//!
//! Sizes above `10M × FASTJOIN_BENCH_SCALE` are skipped (CI runs 0.01:
//! 1k and 100k); the 10M instance needs ~2 GB.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use fastjoin_bench::bench_scale;
use fastjoin_core::config::WindowConfig;
use fastjoin_core::hash::mix64;
use fastjoin_core::instance::JoinInstance;
use fastjoin_core::protocol::{Effects, InstanceMsg};
use fastjoin_core::selection::GreedyFit;
use fastjoin_core::state::TupleStore;
use fastjoin_core::tuple::{Side, Tuple};

/// Messages between two checkpoints: `SupervisionConfig::checkpoint_every`.
const MSGS: u64 = 64;

fn sizes() -> impl Iterator<Item = u64> {
    let cap = 10_000_000.0 * bench_scale();
    [1_000u64, 100_000, 1_000_000, 10_000_000].into_iter().filter(move |&n| n as f64 <= cap)
}

/// An R-storing instance under a sliding window of `stored` time units,
/// fed one store-side tuple per time unit, uniform over `stored / 4` keys:
/// once warm it holds `stored` live tuples however long it runs.
struct Feed {
    inst: JoinInstance,
    sel: GreedyFit,
    fx: Effects,
    keys: u64,
    next: u64,
}

impl Feed {
    fn warm(stored: u64) -> Self {
        let window = WindowConfig { sub_windows: 1, sub_window_len: stored };
        let mut feed = Feed {
            inst: JoinInstance::new(0, Side::R, Some(window)),
            sel: GreedyFit::new(),
            fx: Effects::new(),
            keys: stored / 4,
            next: 0,
        };
        feed.messages(stored);
        feed
    }

    /// `n` single-tuple data messages, then the window GC a monitor tick
    /// would run.
    fn messages(&mut self, n: u64) {
        for _ in 0..n {
            let mut t = Tuple::r(mix64(self.next) % self.keys, self.next, 0);
            t.seq = self.next;
            self.next += 1;
            self.inst
                .handle(InstanceMsg::Data(t), &mut self.sel, 0.0, &mut self.fx)
                .expect("data is always accepted");
            let _ = self.inst.process_next(&mut self.fx);
        }
        self.inst.collect_expired();
    }
}

fn bench_checkpoint(c: &mut Criterion) {
    let mut group = c.benchmark_group("checkpoint");
    group.throughput(Throughput::Elements(1));
    for stored in sizes() {
        let mut feed = Feed::warm(stored);
        // The first checkpoint marks the store; every later one truncates
        // a journal of 64 inserts and 64 expiries.
        let _ = feed.inst.checkpoint();
        group.bench_with_input(BenchmarkId::new("after_64_msgs", stored), &stored, |b, _| {
            let feed = std::cell::RefCell::new(&mut feed);
            b.iter_batched(
                || feed.borrow_mut().messages(MSGS),
                |()| feed.borrow_mut().inst.checkpoint(),
                BatchSize::PerIteration,
            );
        });
        // Every call undoes the same 64 messages: the feed resumes from the
        // checkpoint each time, as a replay would.
        let (cp, next_at_cp, len_at_cp) =
            (feed.inst.checkpoint(), feed.next, feed.inst.store().len());
        group.bench_with_input(BenchmarkId::new("restore_64_msgs", stored), &stored, |b, _| {
            let feed = std::cell::RefCell::new(&mut feed);
            b.iter_batched(
                || {
                    let mut feed = feed.borrow_mut();
                    feed.next = next_at_cp;
                    feed.messages(MSGS);
                },
                |()| feed.borrow_mut().inst.restore(&cp),
                BatchSize::PerIteration,
            );
        });
        assert_eq!(feed.inst.store().len(), len_at_cp, "restore must return to the checkpoint");
        group.bench_with_input(BenchmarkId::new("store_clone", stored), &stored, |b, _| {
            b.iter(|| black_box(feed.inst.store().clone()));
        });
    }
    group.finish();
}

fn bench_insert(c: &mut Criterion) {
    let mut group = c.benchmark_group("store_insert");
    group.throughput(Throughput::Elements(1));
    for journaled in [false, true] {
        let name = if journaled { "journaled" } else { "unjournaled" };
        group.bench_function(name, |b| {
            let mut store = TupleStore::new();
            let mut i = 0u64;
            b.iter(|| {
                // Start over at 64k tuples: both variants then run in
                // memory the allocator has already handed out once,
                // instead of timing page faults of an ever-growing store.
                if store.len() == 1 << 16 {
                    store = TupleStore::new();
                }
                if journaled && i.is_multiple_of(MSGS) {
                    store.mark();
                }
                i += 1;
                let mut t = Tuple::r(i % 1000, i, 0);
                t.seq = i;
                store.insert(t);
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_checkpoint, bench_insert);
criterion_main!(benches);
