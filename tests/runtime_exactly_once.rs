//! Tier-1 exactly-once oracle for the threaded runtime: a fast, fixed-seed
//! subset of `crates/runtime/tests/{topology,chaos}_tests.rs`, so plain
//! `cargo test` fails on join loss or duplication under real threads.
//!
//! Every run is compared with the single-threaded per-key cross product.

use std::collections::HashMap;

use fastjoin::baselines::SystemKind;
use fastjoin::core::config::{FastJoinConfig, WindowConfig};
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
        supervision: SupervisionConfig { max_restarts: 2, checkpoint_every: 32 },
        faults,
        ..RuntimeConfig::default()
    }
}

/// Runs `tuples` through the topology and checks the report against the
/// oracle with [`RuntimeReport::exactly_once_violations`]: pairs, probes,
/// and every triggered round closed exactly once.
fn run_checked(cfg: &RuntimeConfig, tuples: Vec<Tuple>, label: &str) -> RuntimeReport {
    let n = tuples.len() as u64;
    let expected = oracle(&tuples);
    assert!(expected > 0, "{label}: a workload without join results checks nothing");
    let report =
        try_run_topology(cfg, tuples).unwrap_or_else(|e| panic!("{label}: run failed: {e}"));
    let bad = report.exactly_once_violations(expected, n);
    assert!(bad.is_empty(), "{label}: {}", bad.join("; "));
    report
}

fn run_exactly_once(cfg: &RuntimeConfig, salt: u64, label: &str) -> RuntimeReport {
    run_checked(cfg, skewed_workload(salt), label)
}

/// Per-group sums of the instances' `[stored, probed, joined]` counters.
/// One spout and one shard assign seqs in input order, so these are the
/// same for every run of a workload — however its keys migrated, and
/// whatever an instance had to roll back and replay on the way.
fn group_totals(r: &RuntimeReport) -> [[u64; 3]; 2] {
    [0, 1].map(|g| {
        r.counters[g]
            .iter()
            .fold([0; 3], |t, c| [t[0] + c.stored, t[1] + c.probed, t[2] + c.joined])
    })
}

/// Runs `plan_for(seed)` over widening seeds until `fired` counts
/// something (a loaded host can miss a migration window on timing alone);
/// every run is oracle-checked and its per-group instance counters must
/// equal the crash-free run's (a recovery that rolled a store back wrong
/// — a source's `extract_keys`, a target's `install` — shows up there
/// even when the pair count happens to survive), and the fault must fire
/// somewhere. Returns the run it fired in.
fn run_until_fired(
    label: &str,
    plan_for: impl Fn(u64) -> FaultPlan,
    fired: impl Fn(&RuntimeReport) -> u64,
) -> RuntimeReport {
    for seed in 0..12u64 {
        let label = format!("{label} seed {seed}");
        let clean = cfg(SystemKind::FastJoin, 1, 1, FaultPlan::default());
        let clean = run_exactly_once(&clean, seed, &format!("{label} (crash-free)"));
        let c = cfg(SystemKind::FastJoin, 1, 1, plan_for(seed));
        let report = run_exactly_once(&c, seed, &label);
        assert_eq!(group_totals(&report), group_totals(&clean), "{label}: instance counters");
        if fired(&report) > 0 {
            return report;
        }
    }
    panic!("{label}: the scheduled fault never fired in 12 seeds; tune the workload");
}

/// One crash at `phase` for every instance of `groups` (each fires at most
/// once, well within `max_restarts = 2`).
fn crash_each_instance(groups: std::ops::Range<usize>, phase: CrashPhase) -> Vec<CrashFault> {
    groups
        .flat_map(|group| (0..4).map(move |instance| CrashFault { group, instance, phase }))
        .collect()
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
        ("pre-MigForward", CrashPhase::PreMigForward),
        ("pre-route-flip", CrashPhase::PreRouteFlip),
        ("steady state", CrashPhase::SteadyState { after_msgs: 400 }),
    ];
    for (label, phase) in phases {
        // Whichever instance the protocol steers into the phase crashes.
        let crashes = crash_each_instance(0..2, phase);
        run_until_fired(
            label,
            |seed| FaultPlan { seed, crashes: crashes.clone(), ..FaultPlan::default() },
            |r| r.registry.counter_sum("supervisor.executor_failures"),
        );
    }
}

/// A crash late in a long run: every R-side instance dies once with more
/// than 20k tuples in its store and up to 500 messages — four in five of
/// them inserts — in its log. Recovery must undo exactly those inserts
/// (the store itself is never copied) before the replay re-applies them;
/// an insert left in place would join twice with every later probe.
#[test]
fn a_late_steady_state_crash_rolls_back_the_inserts_since_the_checkpoint() {
    const AFTER_TUPLES: u64 = 30_000;
    // 5,000 keys, each with 24 R and 6 S tuples spread over the stream.
    let tuples: Vec<Tuple> = (0..150_000u64)
        .map(|i| {
            let key = i % 5_000;
            if (i / 5_000 + key) % 5 == 0 {
                Tuple::s(key, 0, i)
            } else {
                Tuple::r(key, 0, i)
            }
        })
        .collect();
    let crashes = crash_each_instance(0..1, CrashPhase::SteadyState { after_msgs: AFTER_TUPLES });
    // Static hash partitioning: no monitor, so an instance's input is
    // tuples only and the size of its store at the crash can be bounded
    // from the report.
    let mut c = cfg(SystemKind::BiStream, 1, 8, FaultPlan { crashes, ..FaultPlan::default() });
    c.rate_limit = None;
    c.supervision.checkpoint_every = 500;
    let report = run_checked(&c, tuples, "late steady-state crash");
    assert_eq!(report.registry.counter_sum("supervisor.executor_failures"), 4);
    for (i, counters) in report.counters[0].iter().enumerate() {
        // Of the tuples seen before the crash, all but the probes (at most
        // this instance's lifetime count) had been stored.
        assert!(
            AFTER_TUPLES - counters.probed >= 20_000,
            "R instance {i} crashed on too small a store: {counters:?}"
        );
    }
}

/// Probe reports leave an instance once per input message, from a buffer
/// outside its checkpointed state. Full 64-tuple messages, every R-side
/// instance crashing once with several reported messages in its log: a
/// replay that re-sent their reports would complete those probes twice,
/// so every count must equal the crash-free run's.
#[test]
fn a_steady_state_crash_reports_every_probe_once_at_full_batches() {
    let run = |crashes: Vec<CrashFault>| {
        let mut c = cfg(SystemKind::BiStream, 1, 64, FaultPlan { crashes, ..FaultPlan::default() });
        c.rate_limit = None;
        run_exactly_once(&c, 3, "steady-state crash at batch 64")
    };
    let clean = run(Vec::new());
    let crashed = run(crash_each_instance(0..1, CrashPhase::SteadyState { after_msgs: 600 }));
    assert_eq!(crashed.registry.counter_sum("supervisor.executor_failures"), 4);
    assert_eq!(crashed.probes_total, clean.probes_total);
    assert_eq!(crashed.results_total, clean.results_total);
    assert_eq!(crashed.latency.count(), clean.latency.count());
    assert_eq!(group_totals(&crashed), group_totals(&clean));
}

/// A windowed run whose every instance crashes once in steady state, with
/// window GC running on each monitor tick: the log since the checkpoint
/// holds expiries, so recovery rolls `expire` back. Each key lives in ten
/// adjacent tuples (microseconds apart against a 300 ms window), so the
/// full-history oracle is exact while everything older keeps expiring.
/// (What this run cannot see is a rollback that merely miscounts tuples
/// already dead to every probe; `crates/core`'s journal and
/// checkpoint/restore tests pin that.)
#[test]
fn a_steady_state_crash_in_a_windowed_run_rolls_back_expiry() {
    let tuples: Vec<Tuple> = (0..60_000u64)
        .map(|i| if i % 10 < 2 { Tuple::r(i / 10, 0, i) } else { Tuple::s(i / 10, 0, i) })
        .collect();
    // ~15k tuples reach each instance over the ~1 s run; by its 10,000th
    // message the window has been sliding for several hundred ms.
    let crashes = crash_each_instance(0..2, CrashPhase::SteadyState { after_msgs: 10_000 });
    let mut c = cfg(SystemKind::FastJoin, 1, 8, FaultPlan { crashes, ..FaultPlan::default() });
    c.fastjoin.window = Some(WindowConfig { sub_windows: 4, sub_window_len: 75_000 });
    c.rate_limit = Some(60_000.0);
    c.supervision.checkpoint_every = 256;
    let report = run_checked(&c, tuples, "windowed steady-state crash");
    assert_eq!(report.registry.counter_sum("supervisor.executor_failures"), 8);
    for g in 0..2 {
        let expired: u64 = report.counters[g].iter().map(|c| c.expired).sum();
        assert!(expired > 0, "group {g}: the window never slid, nothing to roll back");
        assert!(expired <= report.stored_total(g), "group {g}: expired more than was stored");
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

/// A monitor killed right after it sent a round's `MigrateCmd` keeps its
/// `Monitor`, so the round's audited decision is still journaled: every
/// `MigTrigger` a monitor journaled has the `MigDecision` of its round.
#[test]
fn a_monitor_killed_mid_round_still_journals_the_rounds_decision() {
    use fastjoin::core::trace::{ActorKind, TraceKind};

    let report = run_until_fired(
        "kill-monitor",
        |seed| FaultPlan::class("kill-monitor", seed).expect("a chaos class"),
        |r| r.registry.counter_sum("supervisor.control_restarts"),
    );
    let events = report.trace.events();
    let of_monitor = |kind: TraceKind| {
        events.iter().filter(move |e| e.kind == kind && e.actor.kind == ActorKind::Monitor)
    };
    let triggers: Vec<_> = of_monitor(TraceKind::MigTrigger).collect();
    assert!(!triggers.is_empty(), "the killed monitor had triggered a round");
    for t in triggers {
        assert!(
            of_monitor(TraceKind::MigDecision).any(|d| d.actor == t.actor && d.epoch == t.epoch),
            "{} round {} was triggered but its decision never journaled",
            t.actor.label(),
            t.epoch
        );
    }
}
