//! Direct timings of single layer calls — store, dispatcher, instance,
//! selection — on the state a layer replay ended with.

use std::hint::black_box;
use std::time::Instant;

use fastjoin_baselines::{build_partitioners, SystemKind};
use fastjoin_core::config::FastJoinConfig;
use fastjoin_core::dispatcher::{Dispatch, Dispatcher};
use fastjoin_core::instance::JoinInstance;
use fastjoin_core::protocol::{Effects, InstanceMsg};
use fastjoin_core::selection::{GreedyFit, KeySelector};
use fastjoin_core::state::TupleStore;
use fastjoin_core::tuple::{Side, Tuple};

use crate::alloc::live_bytes_of;
use crate::replay::Replay;
use crate::runtime::INSTANCES_PER_GROUP;
use crate::stats::median;
use crate::Metrics;

/// Probing every input tuple against the final stores would emit about
/// twice the workload's pairs; the probe timings sample the input with a
/// stride that keeps them near this many matches.
const PROBE_MATCH_BUDGET: u64 = 40_000_000;
const REPS: usize = 5;

fn secs<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

fn median_us(mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..REPS).map(|_| secs(&mut f).1 * 1e6).collect();
    median(&times)
}

fn dispatch_ns(mut d: Dispatcher, input: &[Tuple]) -> f64 {
    let mut out = Dispatch::default();
    let ((), s) = secs(|| {
        for t in input {
            d.dispatch_into(*t, &mut out);
            black_box(&out);
        }
    });
    s * 1e9 / input.len() as f64
}

pub fn measure(input: &[Tuple], expected_pairs: u64, rp: &Replay, m: &mut Metrics) {
    let stride = (2 * expected_pairs).div_ceil(PROBE_MATCH_BUDGET).max(1) as usize;

    // --- dispatcher ------------------------------------------------------
    let fj = FastJoinConfig { instances_per_group: INSTANCES_PER_GROUP, ..Default::default() };
    let (r, s, _) = build_partitioners(SystemKind::FastJoin, &fj);
    m.push("dispatcher.dispatch_ns", dispatch_ns(Dispatcher::new(r, s), input), "ns");
    m.push("dispatcher.dispatch_overrides_ns", dispatch_ns(rp.dispatcher.clone(), input), "ns");
    m.push(
        "dispatcher.route_snapshot_us",
        median_us(|| {
            black_box(rp.dispatcher.route_snapshot(1));
        }),
        "us",
    );
    let mut snaps: Vec<_> = (0..REPS).map(|_| rp.dispatcher.route_snapshot(1)).collect();
    let mut d = rp.dispatcher.clone();
    m.push(
        "dispatcher.install_routes_us",
        median_us(|| {
            d.install_routes(snaps.pop().expect("one snapshot per repetition"));
        }),
        "us",
    );

    // --- store -----------------------------------------------------------
    let (built, s) = secs(|| {
        let mut store = TupleStore::new();
        input.iter().for_each(|t| store.insert(*t));
        store
    });
    m.push("store.insert_ns", s * 1e9 / input.len() as f64, "ns");
    drop(built);

    // Every sampled tuple probes the store its key is routed to, with a
    // seq beyond every stored one so the whole bucket matches.
    let mut router = rp.dispatcher.clone();
    let probes: Vec<(Tuple, &TupleStore)> = input
        .iter()
        .step_by(stride)
        .flat_map(|t| {
            let d = router.dispatch(*t);
            let group = &rp.groups[t.side.opposite().index()];
            let probe = Tuple { seq: u64::MAX, ..*t };
            d.probe_dests.into_iter().map(move |dest| (probe, group[dest].store()))
        })
        .collect();
    let (matches, s) =
        secs(|| probes.iter().map(|(p, store)| store.probe(p, 0).count() as u64).sum::<u64>());
    m.push("store.probe_ns_per_call", s * 1e9 / probes.len() as f64, "ns");
    m.push("store.probe_ns_per_match", s * 1e9 / matches.max(1) as f64, "ns");

    let full = rp.fullest(Side::S.index());
    let store = full.store();
    m.push(
        "store.clone_us",
        median_us(|| {
            black_box(store.clone());
        }),
        "us",
    );
    let (copy, bytes) = live_bytes_of(|| store.clone());
    m.push("store.bytes_per_tuple", bytes as f64 / copy.len().max(1) as f64, "B");

    // A migration's physical payload: the hottest keys holding a tenth of
    // the store move to the group's emptiest store.
    let mut by_count: Vec<(u64, u64)> = store.key_counts().map(|(k, c)| (c, k)).collect();
    by_count.sort_unstable_by(|a, b| b.cmp(a));
    let mut quota = store.len() / 10;
    let keys: Vec<u64> = by_count
        .iter()
        .take_while(|(c, _)| {
            let take = quota > 0;
            quota = quota.saturating_sub(*c);
            take
        })
        .map(|&(_, k)| k)
        .collect();
    let emptiest = rp.groups[Side::S.index()]
        .iter()
        .map(JoinInstance::store)
        .min_by_key(|s| s.len())
        .expect("a group has at least one instance");
    let per_ktuple: Vec<f64> = (0..REPS)
        .map(|_| {
            let (mut src, mut dst) = (store.clone(), emptiest.clone());
            let (moved, s) = secs(|| {
                let moved = src.extract_keys(&keys);
                dst.install(moved, 0)
            });
            s * 1e6 / (moved.max(1) as f64 / 1e3)
        })
        .collect();
    m.push("store.extract_install_us_per_ktuple", median(&per_ktuple), "us");

    // `ts` is the input index, so half the input's length is a horizon
    // that expires about half the store.
    let mut half = copy;
    let (removed, s) = secs(|| half.expire(input.len() as u64 / 2));
    m.push("store.expire_ns_per_tuple", s * 1e9 / removed.max(1) as f64, "ns");

    // --- instance --------------------------------------------------------
    // The per-tuple path (handle + process_next, load bookkeeping
    // included) of the fullest S-storing instance, rebuilt from the tuples
    // the final routes send it.
    let id = full.id();
    let mut router = rp.dispatcher.clone();
    let (mut stores, mut probes) = (Vec::new(), Vec::new());
    for t in input {
        let d = router.dispatch(*t);
        match t.side {
            Side::S if d.store_dest == id => stores.push(d.tuple),
            Side::R if d.probe_dests.contains(&id) => probes.push(Tuple { seq: u64::MAX, ..*t }),
            _ => {}
        }
    }
    let mut inst = JoinInstance::new(id, Side::S, None);
    inst.set_emit_pairs(false);
    let (mut sel, mut fx) = (GreedyFit::new(), Effects::new());
    let mut path_ns = |tuples: &mut dyn Iterator<Item = Tuple>| {
        let mut n = 0u64;
        let ((), s) = secs(|| {
            for t in tuples {
                inst.handle(InstanceMsg::Data(t), &mut sel, 0.0, &mut fx)
                    .expect("a data tuple never violates the protocol");
                black_box(inst.process_next(&mut fx));
                n += 1;
            }
        });
        s * 1e9 / n.max(1) as f64
    };
    m.push("instance.store_path_ns", path_ns(&mut stores.into_iter()), "ns");
    m.push("instance.probe_path_ns", path_ns(&mut probes.into_iter().step_by(stride)), "ns");
    m.push(
        "instance.key_stats_us",
        median_us(|| {
            black_box(full.key_stats());
        }),
        "us",
    );

    // --- selection -------------------------------------------------------
    // Inputs: the first migration round the replay triggered, or — when
    // the monitor never fired — the fullest instance against the emptiest,
    // each reporting the probe arrivals of the whole run as one period.
    let fallback = || {
        let mut lightest = rp.groups[Side::S.index()]
            .iter()
            .min_by_key(|i| i.store().len())
            .expect("a group has at least one instance")
            .clone();
        let mut src = full.clone();
        src.take_load_report();
        (src, lightest.take_load_report())
    };
    let (src, dst_load) = rp.first_round.clone().unwrap_or_else(fallback);
    let (src_load, stats) = (src.reported_load(), src.key_stats());
    let mut plan = None;
    m.push(
        "selection.greedy_us",
        median_us(|| {
            plan = Some(GreedyFit::new().select(src_load, dst_load, &stats, 0.0));
        }),
        "us",
    );
    let plan = plan.expect("the selection ran");
    let gap = src_load.load() - dst_load.load();
    m.push("selection.keys_selected", plan.keys.len() as f64, "count");
    m.push(
        "selection.benefit_share",
        if gap > 0.0 { plan.total_benefit / gap } else { 0.0 },
        "ratio",
    );
}
