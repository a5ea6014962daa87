//! Cross-crate completeness tests: every matching pair is joined exactly
//! once, across partitioning strategies, migrations, and engines.

use std::collections::HashMap;

use fastjoin::baselines::{build_cluster, SystemKind};
use fastjoin::core::config::FastJoinConfig;
use fastjoin::core::tuple::{JoinedPair, Side, Tuple};
use fastjoin::sim::{CostModel, SimConfig, Simulation};

fn expected_pairs(tuples: &[Tuple]) -> u64 {
    let mut r: HashMap<u64, u64> = HashMap::new();
    let mut s: HashMap<u64, u64> = HashMap::new();
    for t in tuples {
        match t.side {
            Side::R => *r.entry(t.key).or_insert(0) += 1,
            Side::S => *s.entry(t.key).or_insert(0) += 1,
        }
    }
    r.iter().map(|(k, n)| n * s.get(k).copied().unwrap_or(0)).sum()
}

/// A deterministic pseudo-random workload: skewed keys, interleaved sides.
fn workload(n: u64, keys: u64, hot_every: u64) -> Vec<Tuple> {
    let mut tuples = Vec::new();
    for i in 0..n {
        let key = if i % hot_every == 0 { 0 } else { (i * 2_654_435_761) % keys };
        let ts = i * 37;
        if (i / 3) % 2 == 0 {
            tuples.push(Tuple::r(key, ts, i));
        } else {
            tuples.push(Tuple::s(key, ts, i));
        }
    }
    tuples
}

fn assert_exactly_once(results: &[JoinedPair], expected: u64, label: &str) {
    assert_eq!(results.len() as u64, expected, "{label}: wrong result count");
    let mut ids: Vec<_> = results.iter().map(JoinedPair::identity).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len() as u64, expected, "{label}: duplicate results");
    for pair in results {
        assert_eq!(pair.left.side, Side::R, "{label}: orientation");
        assert_eq!(pair.right.side, Side::S, "{label}: orientation");
        assert_eq!(pair.left.key, pair.right.key, "{label}: key mismatch in a pair");
    }
}

#[test]
fn synchronous_cluster_exactly_once_for_all_systems() {
    let tuples = workload(3_000, 50, 4);
    let expected = expected_pairs(&tuples);
    for kind in [
        SystemKind::FastJoin,
        SystemKind::BiStream,
        SystemKind::BiStreamContRand,
        SystemKind::Broadcast,
    ] {
        let cfg = FastJoinConfig {
            instances_per_group: 8,
            theta: 1.3,
            monitor_period: 500,
            migration_cooldown: 0,
            ..FastJoinConfig::default()
        };
        let mut cluster = build_cluster(kind, cfg);
        let results = cluster.run_to_completion(tuples.clone());
        assert_exactly_once(&results, expected, kind.label());
        if kind == SystemKind::FastJoin {
            let migs = cluster.monitor(Side::R).unwrap().stats().triggered
                + cluster.monitor(Side::S).unwrap().stats().triggered;
            assert!(migs > 0, "the skewed workload must exercise migration");
        }
    }
}

#[test]
fn simulator_matches_synchronous_cluster_result_counts() {
    let tuples = workload(2_000, 30, 5);
    let expected = expected_pairs(&tuples);
    for system in SystemKind::headline() {
        let cfg = SimConfig {
            system,
            fastjoin: FastJoinConfig {
                instances_per_group: 6,
                theta: 1.4,
                monitor_period: 5_000,
                migration_cooldown: 10_000,
                ..FastJoinConfig::default()
            },
            max_time: 120_000_000,
            cost: CostModel { per_comparison: 0.01, per_match: 0.01, ..CostModel::default() },
            ..SimConfig::default()
        };
        let report = Simulation::new(cfg, tuples.clone().into_iter()).run();
        assert_eq!(report.results_total, expected, "{} in the simulator", system.label());
    }
}

/// Algorithm 2 under delivery latency: a migrated store and the data the
/// dispatcher re-routes after the flip travel on different channels, and
/// the target holds that data until the store has arrived. (The rejected
/// notify-first order races the two and loses joins; `cargo xtask
/// check-protocol --variant naive-notify-first` shows the interleaving.)
#[test]
fn migration_protocol_is_complete_under_network_latency() {
    // Heavy skew → many migrations; network latency opens the race window.
    let tuples: Vec<Tuple> = (0..30_000u64)
        .map(|i| {
            let key = if i % 3 == 0 { 7 } else { (i * 31 + 1) % 41 };
            let ts = (i + 1) * 20;
            if i % 2 == 0 {
                Tuple::r(key, ts, i)
            } else {
                Tuple::s(key, ts, i)
            }
        })
        .collect();
    let expected = expected_pairs(&tuples);
    let cfg = SimConfig {
        system: SystemKind::FastJoin,
        fastjoin: FastJoinConfig {
            instances_per_group: 4,
            theta: 1.2,
            monitor_period: 20_000,
            migration_cooldown: 40_000,
            ..FastJoinConfig::default()
        },
        cost: CostModel {
            per_comparison: 0.005,
            per_match: 0.005,
            network_latency: 500.0,
            ..CostModel::default()
        },
        max_time: 300_000_000,
        ..SimConfig::default()
    };
    let report = Simulation::new(cfg, tuples.into_iter()).run();
    assert!(report.migrations() > 0, "the run needs migrations to race");
    assert_eq!(report.results_total, expected);
}

#[test]
fn interleaved_migration_storms_preserve_completeness() {
    // Aggressive settings: migrate constantly while data flows.
    let cfg = FastJoinConfig {
        instances_per_group: 5,
        theta: 1.05,
        monitor_period: 100,
        migration_cooldown: 0,
        ..FastJoinConfig::default()
    };
    let mut cluster = build_cluster(SystemKind::FastJoin, cfg);
    let tuples = workload(5_000, 20, 3);
    let expected = expected_pairs(&tuples);
    let mut results = Vec::new();
    for (i, t) in tuples.iter().enumerate() {
        cluster.ingest(*t);
        if i % 7 == 0 {
            cluster.tick(); // trigger migrations mid-flight
        }
        if i % 11 == 0 {
            cluster.pump();
            results.append(&mut cluster.drain_results());
        }
    }
    cluster.pump();
    cluster.tick();
    cluster.pump();
    results.append(&mut cluster.drain_results());
    assert_exactly_once(&results, expected, "migration storm");
    let migs = cluster.monitor(Side::R).unwrap().stats().triggered;
    assert!(migs > 3, "expected many migrations, got {migs}");
}

#[test]
fn empty_and_one_sided_streams_join_to_nothing() {
    let cfg = FastJoinConfig { instances_per_group: 3, ..FastJoinConfig::default() };
    let mut cluster = build_cluster(SystemKind::FastJoin, cfg.clone());
    assert!(cluster.run_to_completion(Vec::new()).is_empty());

    let mut cluster = build_cluster(SystemKind::FastJoin, cfg);
    let only_r: Vec<Tuple> = (0..100).map(|i| Tuple::r(i % 7, i, 0)).collect();
    assert!(cluster.run_to_completion(only_r).is_empty());
}
