//! Chaos suite: seeded fault schedules through the threaded runtime.
//!
//! Every test drives the real topology (OS threads, real channels) under a
//! [`FaultPlan`] — executor crashes aligned with migration-protocol
//! phases, and message delay/drop/dup/reorder on the chaos-eligible
//! channels — and asserts the output still equals the single-threaded
//! oracle (per-key cross products) with the probe ledger exact: one
//! completion and one latency sample per probe.
//!
//! The in-tree matrix keeps seed counts modest so `cargo test` stays
//! fast; `fastjoin-cli chaos` runs the same schedule shapes across 100+
//! seeds in CI.

use fastjoin_baselines::SystemKind;
use fastjoin_core::config::FastJoinConfig;
use fastjoin_core::trace::TraceConfig;
use fastjoin_core::tuple::{Side, Tuple};
use fastjoin_runtime::{
    try_run_topology, FaultPlan, RuntimeConfig, RuntimeReport, SupervisionConfig,
};

/// Single-threaded oracle: per-key cross product over the workload.
fn oracle(tuples: &[Tuple]) -> u64 {
    let mut r = std::collections::HashMap::new();
    let mut s = std::collections::HashMap::new();
    for t in tuples {
        match t.side {
            Side::R => *r.entry(t.key).or_insert(0u64) += 1,
            Side::S => *s.entry(t.key).or_insert(0u64) += 1,
        }
    }
    r.iter().map(|(k, c)| c * s.get(k).copied().unwrap_or(0)).sum()
}

/// Twelve medium-hot keys carry most of the traffic (hot enough that
/// GreedyFit actually moves them, spread enough that probes are regularly
/// in flight mid-migration), salted per seed so different runs pick
/// different victims.
fn skewed_workload(salt: u64, n: u64) -> Vec<Tuple> {
    let mut tuples = Vec::with_capacity(n as usize);
    for i in 0..n {
        let key = if i % 4 != 0 { 1000 + ((i + salt) % 12) } else { (i + salt) % 97 };
        if i % 5 == 0 {
            tuples.push(Tuple::r(key, 0, i));
        } else {
            tuples.push(Tuple::s(key, 0, i));
        }
    }
    tuples
}

/// Aggressive migration cadence + supervision tuned for fast recovery.
fn chaos_cfg(faults: FaultPlan) -> RuntimeConfig {
    RuntimeConfig {
        system: SystemKind::FastJoin,
        fastjoin: FastJoinConfig {
            instances_per_group: 4,
            theta: 1.2,
            migration_cooldown: 2_000, // 2 ms
            ..FastJoinConfig::default()
        },
        queue_cap: 256,
        batch_size: 1,
        dispatcher_shards: 1,
        monitor_period_ms: 2,
        rate_limit: Some(120_000.0),
        supervision: SupervisionConfig { max_restarts: 16, checkpoint_every: 32 },
        faults,
        trace: TraceConfig::default(),
        snapshot_interval_ms: 0,
        serve_metrics: None,
        snapshot_path: None,
    }
}

/// Same chaos tuning with batches of `batch` tuples (flushed when full or
/// at the dispatch tick): they must stay indistinguishable from batches of
/// one to the protocol and the oracle.
fn batched_cfg(faults: FaultPlan, batch: usize) -> RuntimeConfig {
    RuntimeConfig { batch_size: batch, ..chaos_cfg(faults) }
}

/// Same chaos tuning with the dispatcher sharded `shards` ways over the
/// epoch-versioned routing table: the sequencer/shard split must be
/// invisible to the migration protocol and the oracle at every fault point
/// batching is already tested at.
fn sharded_cfg(faults: FaultPlan, shards: usize, batch: usize) -> RuntimeConfig {
    RuntimeConfig { dispatcher_shards: shards, batch_size: batch, ..chaos_cfg(faults) }
}

/// The schedule of fault class `class` (see [`FaultPlan::CLASSES`]) under
/// `seed`: the same plans `fastjoin-cli chaos` sweeps.
fn fault_class(class: &str, seed: u64) -> FaultPlan {
    FaultPlan::class(class, seed).unwrap_or_else(|| panic!("unknown fault class {class}"))
}

/// The classes that crash every instance at one migration-protocol phase.
const PHASE_CRASHES: [&str; 4] =
    ["crash-pre-migstart", "crash-pre-migforward", "crash-pre-route-flip", "crash-steady-state"];

/// The invariants every chaos run must satisfy, crash or no crash. Every
/// triggered round closes exactly once, too — unless a monitor degraded
/// for good, which never books the round it had in flight.
fn assert_exactly_once(report: &RuntimeReport, expected: u64, probes: u64, label: &str) {
    let bad = report.exactly_once_violations(expected, probes);
    assert!(bad.is_empty(), "{label}: {}", bad.join("; "));
}

#[test]
fn fault_free_supervised_run_matches_oracle() {
    // Sanity: the supervision plumbing itself must not perturb results.
    let tuples = skewed_workload(0, 8_000);
    let expected = oracle(&tuples);
    let report = try_run_topology(&chaos_cfg(FaultPlan::default()), tuples).expect("clean run");
    assert_exactly_once(&report, expected, 8_000, "fault-free");
}

/// Runs the phase-crash class `class` at the given shard count and batch
/// size: every run is oracle-checked, and when the base seeds never reach
/// the phase (a loaded or single-core host can miss a migration window on
/// timing alone) the matrix widens seed by seed until a crash fires, up to
/// 12 seeds. The phase must be reachable somewhere in the widened matrix.
/// (One shard at batch 1 is tier-1's `tests/runtime_exactly_once.rs`; a
/// crash at *every* message of a round, without the retries, is
/// `crates/core/tests/stage_recovery.rs` and `check-protocol --variant
/// instance-restart`.)
fn assert_phase_crashes_recover(
    label: &str,
    class: &str,
    shards: usize,
    batch: usize,
    base_seeds: u64,
) {
    let mut crashes_fired = 0u64;
    for seed in 0..12u64 {
        let tuples = skewed_workload(seed, 8_000);
        let expected = oracle(&tuples);
        let report =
            try_run_topology(&sharded_cfg(fault_class(class, seed), shards, batch), tuples)
                .unwrap_or_else(|e| panic!("{label} seed {seed}: run failed: {e}"));
        assert_exactly_once(&report, expected, 8_000, &format!("{label} seed {seed}"));
        crashes_fired += report.registry.counter_sum("supervisor.executor_failures");
        if seed + 1 >= base_seeds && crashes_fired > 0 {
            break;
        }
    }
    assert!(
        crashes_fired > 0,
        "{label}: no scheduled crash fired in 12 seeds — the phase was never reached; \
         tune the workload"
    );
}

#[test]
fn channel_chaos_matrix_preserves_exactly_once() {
    // Delay on the (FIFO, lossless) data plane; drop/dup/reorder on the
    // best-effort monitor report stream. Seeds shift both the workload and
    // every chaos RNG stream.
    for seed in 0..12u64 {
        let tuples = skewed_workload(seed, 6_000);
        let expected = oracle(&tuples);
        let plan = fault_class("channel-chaos", seed);
        let report = try_run_topology(&chaos_cfg(plan), tuples)
            .unwrap_or_else(|e| panic!("chaos seed {seed}: run failed: {e}"));
        assert_exactly_once(&report, expected, 6_000, &format!("chaos seed {seed}"));
    }
}

#[test]
fn crash_before_migforward_keeps_the_probe_ledger_exact() {
    // A migration target crashing just before the `MigForward` that
    // carries the source's buffered probes must, after recovery replay,
    // complete each of them once, with the fan-out it was dispatched with.
    // Crash timing depends on a migration round reaching its flip, so the
    // observation retries — the ledger invariants must hold on EVERY
    // attempt regardless.
    let mut observed = false;
    for attempt in 0..5u64 {
        let tuples = skewed_workload(attempt, 12_000);
        let expected = oracle(&tuples);
        let mut cfg = chaos_cfg(fault_class("crash-pre-migforward", attempt));
        cfg.rate_limit = Some(60_000.0); // longer run: more rounds, more in-flight probes
        let report = try_run_topology(&cfg, tuples)
            .unwrap_or_else(|e| panic!("attempt {attempt}: run failed: {e}"));
        assert_exactly_once(&report, expected, 12_000, &format!("attempt {attempt}"));
        if report.registry.counter_sum("supervisor.executor_failures") > 0 {
            observed = true;
            break;
        }
    }
    assert!(observed, "no attempt crashed a target before a MigForward; tune the workload");
}

#[test]
fn batched_fault_free_runs_match_oracle_across_batch_sizes() {
    // Batching must be invisible to the join: a mid-size batch, a batch
    // that never divides the stream evenly, and the default production
    // size all have to reproduce the batches-of-one results exactly.
    for batch in [2usize, 7, 64] {
        for seed in 0..3u64 {
            let tuples = skewed_workload(seed, 8_000);
            let expected = oracle(&tuples);
            let report = try_run_topology(&batched_cfg(FaultPlan::default(), batch), tuples)
                .unwrap_or_else(|e| panic!("batch {batch} seed {seed}: run failed: {e}"));
            assert_exactly_once(&report, expected, 8_000, &format!("batch {batch} seed {seed}"));
        }
    }
}

#[test]
fn batched_crashes_at_every_protocol_phase_recover_exactly_once() {
    // Batch size 7 never divides the per-destination runs evenly, so
    // flushed batches regularly straddle migration-round boundaries:
    // crash-triggered replay must re-feed whole batches and still land on
    // the oracle.
    for class in PHASE_CRASHES {
        assert_phase_crashes_recover(&format!("batched {class}"), class, 1, 7, 3);
    }
}

#[test]
fn batched_channel_chaos_preserves_exactly_once() {
    // An active chaos policy makes the ChaosReceiver split every batch
    // into one-item messages before perturbing, so delay faults land at
    // tuple granularity exactly as they do at batch size 1.
    for seed in 0..8u64 {
        let tuples = skewed_workload(seed, 6_000);
        let expected = oracle(&tuples);
        let plan = fault_class("channel-chaos", seed);
        let report = try_run_topology(&batched_cfg(plan, 7), tuples)
            .unwrap_or_else(|e| panic!("batched chaos seed {seed}: run failed: {e}"));
        assert_exactly_once(&report, expected, 6_000, &format!("batched chaos seed {seed}"));
    }
}

#[test]
fn sharded_fault_free_runs_match_oracle_across_shard_counts() {
    // Sharding must be invisible to the join: tuples route to shards by
    // key hash, every shard batches independently, and the sequencer owns
    // the routing table — none of which may change what the collector
    // counts. Shard counts that do and do not divide the instance count
    // both have to land on the oracle.
    for shards in [2usize, 4] {
        for seed in 0..3u64 {
            let tuples = skewed_workload(seed, 8_000);
            let expected = oracle(&tuples);
            let report = try_run_topology(&sharded_cfg(FaultPlan::default(), shards, 7), tuples)
                .unwrap_or_else(|e| panic!("shards {shards} seed {seed}: run failed: {e}"));
            assert_exactly_once(&report, expected, 8_000, &format!("shards {shards} seed {seed}"));
        }
    }
}

#[test]
fn sharded_crashes_at_every_protocol_phase_recover_exactly_once() {
    // The full crash matrix again with two dispatcher shards and batching:
    // crash-triggered replay and the snapshot publication barrier have to
    // compose. (Four shards ride the chaos CLI
    // matrix; in-tree stays at two so `cargo test` stays fast.)
    for class in PHASE_CRASHES {
        assert_phase_crashes_recover(&format!("sharded {class}"), class, 2, 7, 3);
    }
}

#[test]
fn sharded_channel_chaos_preserves_exactly_once() {
    // Delay/drop/dup/reorder chaos with the dispatcher sharded two ways:
    // per-shard ChaosReceivers perturb independently, but the per-channel
    // FIFO each instance sees must still carry a single coherent epoch
    // order.
    for seed in 0..6u64 {
        let tuples = skewed_workload(seed, 6_000);
        let expected = oracle(&tuples);
        let plan = fault_class("channel-chaos", seed);
        let report = try_run_topology(&sharded_cfg(plan, 2, 7), tuples)
            .unwrap_or_else(|e| panic!("sharded chaos seed {seed}: run failed: {e}"));
        assert_exactly_once(&report, expected, 6_000, &format!("sharded chaos seed {seed}"));
    }
}

#[test]
fn control_plane_crashes_recover_exactly_once() {
    // The control-plane crash matrix in miniature: the sequencer killed at
    // a publication, every shard killed at a snapshot install, and both
    // monitors killed mid-round — at one, two, and four dispatcher shards
    // (every shard count runs the same shard + sequencer path). Every run
    // must land on the oracle, and every class must actually fire within
    // the widened seed loop. The ≥50-seed sweep rides `fastjoin-cli chaos`
    // in CI.
    for shards in [1usize, 2, 4] {
        for class in ["kill-sequencer", "kill-shard", "kill-monitor"] {
            let mut fired = 0u64;
            for seed in 0..8u64 {
                let tuples = skewed_workload(seed, 8_000);
                let expected = oracle(&tuples);
                let plan = fault_class(class, seed);
                let label = format!("{class} shards {shards} seed {seed}");
                let report = try_run_topology(&sharded_cfg(plan, shards, 7), tuples)
                    .unwrap_or_else(|e| panic!("{label}: run failed: {e}"));
                assert_exactly_once(&report, expected, 8_000, &label);
                fired += report.registry.counter_sum("supervisor.control_restarts");
                if seed >= 1 && fired > 0 {
                    break;
                }
            }
            assert!(
                fired > 0,
                "{class} at {shards} shards: no control-plane crash fired in 8 seeds; \
                 tune the workload"
            );
        }
    }
}

#[test]
fn monitor_death_degrades_routing_and_matches_the_oracle_exactly() {
    // With monitor restarts exhausted (max_restarts = 0) a monitor kill
    // must permanently degrade the run — routing frozen where it stands,
    // the in-flight round completing at the instances without it — and the join
    // output must still equal the oracle exactly, at one shard and at two.
    for shards in [1usize, 2] {
        let mut degraded_seen = false;
        for seed in 0..8u64 {
            let tuples = skewed_workload(seed, 8_000);
            let expected = oracle(&tuples);
            let mut cfg = sharded_cfg(fault_class("kill-monitor", seed), shards, 1);
            cfg.supervision.max_restarts = 0; // the first monitor crash is permanent
            let label = format!("degraded shards {shards} seed {seed}");
            let report = try_run_topology(&cfg, tuples)
                .unwrap_or_else(|e| panic!("{label}: run failed: {e}"));
            assert_exactly_once(&report, expected, 8_000, &label);
            if report.registry.counter_sum("monitor.permanent_degraded") > 0 {
                degraded_seen = true;
                break;
            }
        }
        assert!(
            degraded_seen,
            "shards {shards}: no monitor kill fired in 8 seeds; tune the workload"
        );
    }
}

#[test]
fn supervisor_restart_counters_are_exported_per_executor() {
    // Every restart attempt lands in a per-executor
    // `supervisor.restarts.<name>` counter plus the aggregate
    // `supervisor.control_restarts`, and monitor downtime is accounted in
    // `monitor.degraded_ms` — all visible in the final report registry.
    for seed in 0..8u64 {
        let tuples = skewed_workload(seed, 8_000);
        let expected = oracle(&tuples);
        let mut plan = fault_class("kill-sequencer", seed);
        plan.crashes.extend(fault_class("kill-monitor", seed).crashes);
        let report = try_run_topology(&sharded_cfg(plan, 2, 7), tuples)
            .unwrap_or_else(|e| panic!("counters seed {seed}: run failed: {e}"));
        assert_exactly_once(&report, expected, 8_000, &format!("counters seed {seed}"));
        let seq = report.registry.counter_sum("supervisor.restarts.dispatch-seq");
        let mon = report.registry.counter_sum("supervisor.restarts.monitor-0")
            + report.registry.counter_sum("supervisor.restarts.monitor-1");
        if seq > 0 && mon > 0 {
            assert!(
                report.registry.counter_sum("supervisor.control_restarts") >= seq + mon,
                "the aggregate must cover the per-executor control restarts"
            );
            assert!(
                report.registry.counter_sum("monitor.degraded_ms") >= 1,
                "a restarted monitor must account its downtime (backoff is >= 1 ms)"
            );
            assert!(
                report.registry.counter_sum("sequencer_restarts") >= 1,
                "the sequencer wrapper must count its own restarts"
            );
            return;
        }
    }
    panic!("no seed fired both a sequencer and a monitor crash in 8 seeds; tune the workload");
}
