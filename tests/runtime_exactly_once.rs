//! Tier-1 exactly-once oracle for the threaded runtime: a fast, fixed-seed
//! subset of `crates/runtime/tests/{topology,chaos}_tests.rs`, so plain
//! `cargo test` fails on join loss or duplication under real threads.
//!
//! Every run is compared with the single-threaded per-key cross product.

use std::collections::HashMap;

use fastjoin::baselines::SystemKind;
use fastjoin::core::config::FastJoinConfig;
use fastjoin::core::tuple::{Side, Tuple};
use fastjoin::runtime::{
    try_run_topology, CrashFault, CrashPhase, FaultPlan, RuntimeConfig, RuntimeReport,
    SupervisionConfig,
};

const TUPLES: u64 = 6_000;

/// Single-threaded oracle: per-key cross product over the workload.
fn oracle(tuples: &[Tuple]) -> u64 {
    let mut r: HashMap<u64, u64> = HashMap::new();
    let mut s: HashMap<u64, u64> = HashMap::new();
    for t in tuples {
        match t.side {
            Side::R => *r.entry(t.key).or_insert(0) += 1,
            Side::S => *s.entry(t.key).or_insert(0) += 1,
        }
    }
    r.iter().map(|(k, c)| c * s.get(k).copied().unwrap_or(0)).sum()
}

/// Twelve medium-hot keys carry most of the traffic, so GreedyFit migrates
/// eagerly with probes in flight mid-round; `salt` shifts the victims.
fn skewed_workload(salt: u64) -> Vec<Tuple> {
    (0..TUPLES)
        .map(|i| {
            let key = if i % 4 != 0 { 1000 + ((i + salt) % 12) } else { (i + salt) % 97 };
            if i % 5 == 0 {
                Tuple::r(key, 0, i)
            } else {
                Tuple::s(key, 0, i)
            }
        })
        .collect()
}

/// Aggressive migration cadence so rounds happen within a ~50 ms run.
fn cfg(system: SystemKind, shards: usize, batch: usize, faults: FaultPlan) -> RuntimeConfig {
    RuntimeConfig {
        system,
        fastjoin: FastJoinConfig {
            instances_per_group: 4,
            theta: 1.2,
            migration_cooldown: 2_000,
            ..FastJoinConfig::default()
        },
        queue_cap: 256,
        batch_size: batch,
        dispatcher_shards: shards,
        monitor_period_ms: 2,
        rate_limit: Some(120_000.0),
        supervision: SupervisionConfig {
            max_restarts: 2,
            checkpoint_every: 32,
            round_timeout_ms: 25,
        },
        faults,
        ..RuntimeConfig::default()
    }
}

fn run_exactly_once(cfg: &RuntimeConfig, salt: u64, label: &str) -> RuntimeReport {
    let tuples = skewed_workload(salt);
    let expected = oracle(&tuples);
    let report =
        try_run_topology(cfg, tuples).unwrap_or_else(|e| panic!("{label}: run failed: {e}"));
    assert_eq!(report.results_total, expected, "{label}: lost or duplicated join results");
    assert_eq!(report.probes_total, TUPLES, "{label}: every tuple probes exactly once");
    assert_eq!(report.latency.count(), TUPLES, "{label}: one latency sample per probe");
    assert_eq!(report.registry.counter_sum("probe_fanout_leaked"), 0, "{label}: fan-out leak");
    report
}

/// Runs `plan_for(seed)` over widening seeds until `fired` counts
/// something (a loaded host can miss a migration window on timing alone);
/// every run is oracle-checked, and the fault must fire somewhere.
fn run_until_fired(
    label: &str,
    plan_for: impl Fn(u64) -> FaultPlan,
    fired: impl Fn(&RuntimeReport) -> u64,
) {
    for seed in 0..12u64 {
        let c = cfg(SystemKind::FastJoin, 1, 1, plan_for(seed));
        let report = run_exactly_once(&c, seed, &format!("{label} seed {seed}"));
        if fired(&report) > 0 {
            return;
        }
    }
    panic!("{label}: the scheduled fault never fired in 12 seeds; tune the workload");
}

#[test]
fn every_system_matches_the_oracle_at_every_shard_and_batch_setting() {
    for system in [
        SystemKind::FastJoin,
        SystemKind::BiStream,
        SystemKind::BiStreamContRand,
        SystemKind::Broadcast,
    ] {
        for shards in [1usize, 2, 3] {
            for batch in [1usize, 8] {
                let mut c = cfg(system, shards, batch, FaultPlan::default());
                c.rate_limit = None;
                run_exactly_once(&c, 7, &format!("{system:?} shards={shards} batch={batch}"));
            }
        }
    }
}

#[test]
fn a_crash_at_each_migration_protocol_phase_recovers_exactly_once() {
    let phases = [
        ("pre-MigStart", CrashPhase::PreMigStart),
        ("handoff/forward window", CrashPhase::BetweenHandoffAndForward),
        ("pre-route-flip", CrashPhase::PreRouteFlip),
        ("steady state", CrashPhase::SteadyState { after_msgs: 400 }),
    ];
    for (label, phase) in phases {
        // Whichever instance the protocol steers into the phase crashes
        // (once each, well within `max_restarts = 2`).
        let crashes: Vec<CrashFault> = (0..2)
            .flat_map(|group| (0..4).map(move |instance| CrashFault { group, instance, phase }))
            .collect();
        run_until_fired(
            label,
            |seed| FaultPlan { seed, crashes: crashes.clone(), ..FaultPlan::default() },
            |r| r.registry.counter_sum("supervisor.executor_failures"),
        );
    }
}

#[test]
fn shard_and_sequencer_kills_recover_exactly_once_at_one_shard() {
    // One shard runs the same shard + sequencer path as N, so both control
    // kill switches are live at the default `dispatcher_shards = 1`.
    let kills = [
        ("kill-sequencer", CrashPhase::SequencerBarrier { at_publish: 1 }),
        ("kill-shard", CrashPhase::ShardSnapshotInstall { at_install: 1 }),
    ];
    for (label, phase) in kills {
        run_until_fired(
            label,
            |seed| FaultPlan {
                seed,
                crashes: vec![CrashFault { group: 0, instance: 0, phase }],
                ..FaultPlan::default()
            },
            |r| r.registry.counter_sum("supervisor.control_restarts"),
        );
    }
}
