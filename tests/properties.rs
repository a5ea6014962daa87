//! Property-based tests (proptest) over the core invariants.

use proptest::prelude::*;

use fastjoin::baselines::{build_cluster, SystemKind};
use fastjoin::core::config::FastJoinConfig;
use fastjoin::core::load::{InstanceLoad, KeyStat};
use fastjoin::core::selection::{
    plan_is_feasible, ExhaustiveFit, GreedyFit, KeySelector, SaFit, SaFitParams,
};
use fastjoin::core::state::TupleStore;
use fastjoin::core::tuple::{JoinedPair, Side, Tuple};
use fastjoin::core::window::SubWindowRing;
use fastjoin::core::WindowConfig;
use fastjoin::datagen::Zipf;

fn key_stats_strategy(max_keys: usize) -> impl Strategy<Value = Vec<KeyStat>> {
    prop::collection::vec((0u64..1000, 0u64..50, 0u64..50), 0..max_keys).prop_map(|v| {
        let mut seen = std::collections::HashSet::new();
        v.into_iter()
            .filter(|(k, _, _)| seen.insert(*k))
            .map(|(k, stored, queue)| KeyStat::new(k, stored, queue))
            .collect()
    })
}

proptest! {
    /// GreedyFit never produces an infeasible plan: the post-migration
    /// source must stay at least as loaded as the target (Eq. 9).
    #[test]
    fn greedyfit_plans_are_always_feasible(
        keys in key_stats_strategy(60),
        src_extra in 0u64..10_000,
        dst_stored in 0u64..5_000,
        dst_queue in 0u64..5_000,
        theta_gap in 0.0f64..500.0,
    ) {
        let stored: u64 = keys.iter().map(|k| k.stored).sum::<u64>() + src_extra;
        let queue: u64 = keys.iter().map(|k| k.queue).sum();
        let src = InstanceLoad::new(stored, queue);
        let dst = InstanceLoad::new(dst_stored, dst_queue);
        let plan = GreedyFit::new().select(src, dst, &keys, theta_gap);
        prop_assert!(plan_is_feasible(&plan));
        // Every selected key clears the benefit floor.
        for k in &plan.keys {
            let stat = keys.iter().find(|s| s.key == *k).unwrap();
            prop_assert!(stat.benefit(src, dst) >= theta_gap);
        }
        // The selected set is a subset of the input without duplicates.
        let mut sorted = plan.keys.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), plan.keys.len());
    }

    /// SAFit plans are feasible for arbitrary inputs and seeds.
    #[test]
    fn safit_plans_are_always_feasible(
        keys in key_stats_strategy(40),
        seed in 0u64..1_000,
        dst_stored in 0u64..2_000,
        dst_queue in 0u64..2_000,
    ) {
        let stored: u64 = keys.iter().map(|k| k.stored).sum();
        let queue: u64 = keys.iter().map(|k| k.queue).sum();
        let src = InstanceLoad::new(stored, queue);
        let dst = InstanceLoad::new(dst_stored, dst_queue);
        let mut sa = SaFit::new(SaFitParams { iters_per_temp: 16, ..Default::default() }, seed);
        let plan = sa.select(src, dst, &keys, 0.0);
        prop_assert!(plan_is_feasible(&plan));
        if !plan.is_empty() {
            prop_assert!(plan.total_benefit < src.load() - dst.load());
        }
    }

    /// On small universes the exhaustive oracle dominates GreedyFit's
    /// packed benefit, and both stay under the gap.
    #[test]
    fn exact_oracle_dominates_greedy(
        keys in key_stats_strategy(12),
        dst_stored in 0u64..500,
        dst_queue in 0u64..500,
    ) {
        let stored: u64 = keys.iter().map(|k| k.stored).sum::<u64>() + 1_000;
        let queue: u64 = keys.iter().map(|k| k.queue).sum::<u64>() + 100;
        let src = InstanceLoad::new(stored, queue);
        let dst = InstanceLoad::new(dst_stored, dst_queue);
        let greedy = GreedyFit::new().select(src, dst, &keys, 0.0);
        let exact = ExhaustiveFit::new().select(src, dst, &keys, 0.0);
        prop_assert!(greedy.total_benefit <= exact.total_benefit + 1e-6,
            "greedy {} beat exact {}", greedy.total_benefit, exact.total_benefit);
        let gap = src.load() - dst.load();
        if gap > 0.0 {
            prop_assert!(exact.total_benefit < gap);
        }
    }

    /// TupleStore: probing after interleaved inserts/extractions returns
    /// exactly the still-stored tuples with smaller seq, in-window.
    #[test]
    fn tuple_store_probe_matches_reference_model(
        ops in prop::collection::vec((0u64..10, 0u64..1000u64), 1..200),
        min_ts in 0u64..500,
    ) {
        let mut store = TupleStore::new();
        let mut model: Vec<Tuple> = Vec::new();
        for (i, (key, ts)) in ops.iter().enumerate() {
            let mut t = Tuple::r(*key, *ts, 0);
            t.seq = i as u64 + 1;
            store.insert(t);
            model.push(t);
        }
        let mut probe = Tuple::s(ops[0].0, 1_000, 0);
        probe.seq = (ops.len() as u64) / 2;
        let got: Vec<u64> = store.probe(&probe, min_ts).map(|t| t.seq).collect();
        let mut expected: Vec<u64> = model
            .iter()
            .filter(|t| t.key == probe.key && t.seq < probe.seq && t.ts >= min_ts)
            .map(|t| t.seq)
            .collect();
        expected.sort_unstable();
        let mut got_sorted = got;
        got_sorted.sort_unstable();
        prop_assert_eq!(got_sorted, expected);
    }

    /// SubWindowRing conserves counts: recorded = retained + expired.
    #[test]
    fn sub_window_ring_conserves_counts(
        records in prop::collection::vec((0u64..100_000, 1u64..10), 1..200),
        sub_windows in 1usize..12,
        sub_window_len in 1u64..5_000,
    ) {
        let mut ring = SubWindowRing::new(WindowConfig { sub_windows, sub_window_len });
        let mut recorded = 0u64;
        let mut expired = 0u64;
        for (ts, n) in records {
            let before = ring.total();
            let e = ring.record(ts, n);
            expired += e;
            // Either the record landed in a live sub-window or it was
            // already expired and silently dropped.
            if ring.total() == before - e + n {
                recorded += n;
            } else {
                prop_assert_eq!(ring.total(), before - e, "record neither landed nor dropped");
            }
        }
        prop_assert_eq!(ring.total() + expired, recorded);
    }

    /// The Zipf sampler always returns ranks in range, and rank 1 is ever
    /// the most likely outcome for positive exponents.
    #[test]
    fn zipf_ranks_in_range(n in 1u64..10_000, exp in 0.0f64..3.0, seed in 0u64..50) {
        use rand::SeedableRng;
        let z = Zipf::new(n, exp);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for _ in 0..200 {
            let r = z.sample(&mut rng);
            prop_assert!((1..=n).contains(&r));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// End-to-end exactly-once across random workloads, systems, and
    /// migration timing.
    #[test]
    fn cluster_join_is_exactly_once(
        keyspace in 1u64..25,
        n_tuples in 1usize..400,
        instances in 1usize..9,
        tick_every in 1usize..40,
        system_pick in 0usize..3,
        seed in 0u64..1_000,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let tuples: Vec<Tuple> = (0..n_tuples)
            .map(|i| {
                let key = rng.gen_range(0..keyspace);
                let ts = i as u64 * 13;
                if rng.gen_bool(0.5) {
                    Tuple::r(key, ts, i as u64)
                } else {
                    Tuple::s(key, ts, i as u64)
                }
            })
            .collect();
        let system = [SystemKind::FastJoin, SystemKind::BiStream, SystemKind::Broadcast][system_pick];
        let cfg = FastJoinConfig {
            instances_per_group: instances,
            theta: 1.1,
            monitor_period: 1,
            migration_cooldown: 0,
            ..FastJoinConfig::default()
        };
        let mut cluster = build_cluster(system, cfg);
        let mut results: Vec<JoinedPair> = Vec::new();
        for (i, t) in tuples.iter().enumerate() {
            cluster.ingest(*t);
            if i % tick_every == 0 {
                cluster.pump();
                cluster.tick();
            }
        }
        cluster.pump();
        cluster.tick();
        cluster.pump();
        results.append(&mut cluster.drain_results());

        let mut r: std::collections::HashMap<u64, u64> = Default::default();
        let mut s: std::collections::HashMap<u64, u64> = Default::default();
        for t in &tuples {
            match t.side {
                Side::R => *r.entry(t.key).or_insert(0) += 1,
                Side::S => *s.entry(t.key).or_insert(0) += 1,
            }
        }
        let expected: u64 = r.iter().map(|(k, n)| n * s.get(k).copied().unwrap_or(0)).sum();
        prop_assert_eq!(results.len() as u64, expected);
        let mut ids: Vec<_> = results.iter().map(JoinedPair::identity).collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len() as u64, expected);
    }
}

proptest! {
    /// DpFit plans are feasible and never beat the exhaustive oracle.
    #[test]
    fn dpfit_is_feasible_and_bounded_by_exact(
        keys in key_stats_strategy(12),
        dst_stored in 0u64..500,
        dst_queue in 0u64..500,
    ) {
        use fastjoin::core::selection::DpFit;
        let stored: u64 = keys.iter().map(|k| k.stored).sum::<u64>() + 1_000;
        let queue: u64 = keys.iter().map(|k| k.queue).sum::<u64>() + 100;
        let src = InstanceLoad::new(stored, queue);
        let dst = InstanceLoad::new(dst_stored, dst_queue);
        let dp = DpFit::new().select(src, dst, &keys, 0.0);
        prop_assert!(plan_is_feasible(&dp));
        let exact = ExhaustiveFit::new().select(src, dst, &keys, 0.0);
        prop_assert!(dp.total_benefit <= exact.total_benefit + 1e-6,
            "dp {} beat exact {}", dp.total_benefit, exact.total_benefit);
    }

    /// Trace files round-trip arbitrary tuples.
    #[test]
    fn trace_round_trips_arbitrary_tuples(
        raw in prop::collection::vec((prop::bool::ANY, prop::num::u64::ANY, prop::num::u64::ANY, prop::num::u64::ANY), 0..200),
    ) {
        use fastjoin::datagen::{read_trace, write_trace};
        let tuples: Vec<Tuple> = raw
            .into_iter()
            .map(|(is_r, key, ts, payload)| {
                Tuple::new(if is_r { Side::R } else { Side::S }, key, ts, payload)
            })
            .collect();
        let mut buf = Vec::new();
        write_trace(&mut buf, tuples.iter().copied()).unwrap();
        let back = read_trace(buf.as_slice()).unwrap();
        prop_assert_eq!(back.len(), tuples.len());
        for (a, b) in back.iter().zip(&tuples) {
            prop_assert_eq!((a.side, a.key, a.ts, a.payload), (b.side, b.key, b.ts, b.payload));
        }
    }

    /// Arrival processes emit nondecreasing timestamps at roughly the
    /// configured rate, for both kinds.
    #[test]
    fn arrival_processes_are_monotone_and_rate_accurate(
        rate in 10.0f64..100_000.0,
        poisson in prop::bool::ANY,
        seed in 0u64..1_000,
    ) {
        use fastjoin::datagen::{ArrivalKind, ArrivalProcess};
        let kind = if poisson { ArrivalKind::Poisson } else { ArrivalKind::Constant };
        let mut p = ArrivalProcess::new(kind, rate, seed);
        let n = 500;
        let mut last = 0;
        for _ in 0..n {
            let ts = p.next_ts();
            prop_assert!(ts >= last);
            last = ts;
        }
        let expected_span = (n - 1) as f64 * 1_000_000.0 / rate;
        // Constant is exact; Poisson within 5x either way at 500 samples.
        let ratio = last as f64 / expected_span.max(1.0);
        prop_assert!(ratio > 0.2 && ratio < 5.0, "span ratio {ratio}");
    }

    /// The tiered sampler's hot share holds for arbitrary shapes.
    #[test]
    fn tiered_hot_share_holds(
        n in 10u64..5_000,
        hot_frac in 0.05f64..0.9,
        hot_share in 0.1f64..0.95,
        seed in 0u64..100,
    ) {
        use fastjoin::datagen::TieredSampler;
        use rand::SeedableRng;
        let s = TieredSampler::new(n, hot_frac, hot_share);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let draws = 4_000;
        let hot = (0..draws).filter(|_| s.sample(&mut rng) <= s.hot_keys()).count();
        let got = hot as f64 / draws as f64;
        prop_assert!((got - hot_share).abs() < 0.06,
            "hot share {got} vs configured {hot_share}");
    }
}

/// The `TupleStore` undo-journal model test of `crates/core`, compiled
/// into tier-1 as well: its cases are seeded by case index, so this runs
/// the same fixed slice on every `cargo test`.
#[path = "../crates/core/tests/store_journal_props.rs"]
mod store_journal_props;

/// The `InstanceStage` crash-recovery tests of `crates/core`, compiled into
/// tier-1 the same way: a scripted migration round crashed at every
/// message, and the crashed-equals-uncrashed property.
#[path = "../crates/core/tests/stage_recovery.rs"]
mod stage_recovery;
