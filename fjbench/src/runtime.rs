//! The phases that drive the threaded runtime from outside: saturated
//! (closed loop) and paced (open loop) repetitions.

use std::thread;
use std::time::{Duration, Instant};

use crossbeam::channel;
use fastjoin_core::config::{FastJoinConfig, SelectorKind};
use fastjoin_core::trace::TraceConfig;
use fastjoin_core::tuple::{JoinedPair, Tuple};
use fastjoin_runtime::topology::try_run_topology_with_results;
use fastjoin_runtime::{
    try_run_topology, RunError, RuntimeConfig, RuntimeReport, SupervisionConfig,
};

use crate::cpu::process_cpu_seconds;
use crate::stats;
use crate::workload::{Digest, Spec};

pub const INSTANCES_PER_GROUP: usize = 4;
pub const THETA: f64 = 1.5;
pub const MIGRATION_COOLDOWN_US: u64 = 100_000;
pub const MONITOR_PERIOD_MS: u64 = 25;
pub const BATCH_SIZE: usize = 64;

/// The fixed configuration of every threaded run. It is part of the
/// benchmark: supervision stays at its default so the checkpoint cost every
/// user pays is measured, and tracing/introspection are off unless a traced
/// phase turns the journal on.
pub fn config(spec: &Spec) -> RuntimeConfig {
    RuntimeConfig {
        system: spec.system,
        fastjoin: FastJoinConfig {
            instances_per_group: INSTANCES_PER_GROUP,
            theta: THETA,
            migration_cooldown: MIGRATION_COOLDOWN_US,
            selector: SelectorKind::GreedyFit,
            window: None,
            ..FastJoinConfig::default()
        },
        queue_cap: 1024,
        batch_size: BATCH_SIZE,
        dispatcher_shards: 1,
        monitor_period_ms: MONITOR_PERIOD_MS,
        rate_limit: None,
        supervision: SupervisionConfig::default(),
        trace: TraceConfig::disabled(),
        ..RuntimeConfig::default()
    }
}

/// One closed-loop repetition: the spout (this thread) blocks on the
/// runtime's bounded channels, so the system sets its own pace.
pub struct SatRep {
    pub secs: f64,
    /// CPU seconds the whole process used meanwhile, all threads.
    pub cpu_secs: f64,
    pub report: Result<RuntimeReport, RunError>,
}

impl SatRep {
    pub fn tuples_per_s(&self, tuples: usize) -> f64 {
        tuples as f64 / self.secs
    }

    /// Cores kept busy on average: CPU seconds per wall second.
    pub fn cores_busy(&self) -> f64 {
        self.cpu_secs / self.secs
    }

    /// Pairs by which this repetition missed `expected`; a failed run
    /// counts as having lost all of them.
    pub fn failed_pairs(&self, expected: u64) -> u64 {
        match &self.report {
            Ok(r) => r.results_total.abs_diff(expected),
            Err(e) => {
                eprintln!("run failed: {e}");
                expected
            }
        }
    }
}

fn saturated(cfg: &RuntimeConfig, source: impl Iterator<Item = Tuple>) -> SatRep {
    let (start, cpu) = (Instant::now(), process_cpu_seconds());
    let report = try_run_topology(cfg, source);
    SatRep { secs: start.elapsed().as_secs_f64(), cpu_secs: process_cpu_seconds() - cpu, report }
}

pub fn saturated_rep(cfg: &RuntimeConfig, input: &[Tuple]) -> SatRep {
    saturated(cfg, input.iter().copied())
}

/// What the spout's pulls looked like from outside during one saturated
/// repetition: a pull that comes more than a millisecond after the
/// previous one means the spout was blocked on a full channel.
pub struct PullGaps {
    pub rep: SatRep,
    /// Share of the wall time spent in pull gaps longer than 1 ms.
    pub stall_share: f64,
    /// Seconds from the last pull to `run_topology` returning: the
    /// collector loop plus shutdown.
    pub drain_s: f64,
}

pub fn saturated_rep_with_gaps(cfg: &RuntimeConfig, input: &[Tuple]) -> PullGaps {
    const STALL: Duration = Duration::from_millis(1);
    let start = Instant::now();
    let mut last = start;
    let mut stalled = Duration::ZERO;
    let rep = saturated(
        cfg,
        input.iter().map(|t| {
            let now = Instant::now();
            let gap = now - last;
            if gap > STALL {
                stalled += gap;
            }
            last = now;
            *t
        }),
    );
    let stall_share = stalled.as_secs_f64() / rep.secs;
    let drain_s = rep.secs - (last - start).as_secs_f64();
    PullGaps { rep, stall_share, drain_s }
}

/// One open-loop repetition over the paced prefix.
pub struct PacedRep {
    pub secs: f64,
    /// Result latencies in ms: receipt − due time of the later of the
    /// pair's two tuples. Ascending.
    pub latencies_ms: Vec<f64>,
    /// How late each pull ran against its due time, ms. Ascending.
    pub pull_lag_ms: Vec<f64>,
    pub digest: Digest,
    pub report: Result<RuntimeReport, RunError>,
}

impl PacedRep {
    /// A repetition with a growing backlog finishes late: completed means
    /// within 3 % of the nominal duration.
    pub fn completed(&self, spec: &Spec) -> bool {
        self.report.is_ok() && self.secs <= 1.03 * spec.paced_tuples as f64 / spec.paced_rate
    }

    pub fn p50_ms(&self) -> f64 {
        stats::percentile_sorted(&self.latencies_ms, 50.0)
    }
}

/// Replays `prefix` at `rate` tuples/s (`None` = as fast as the runtime
/// takes them), streaming every result pair to a drain thread that stamps
/// it on receipt. The generator is this benchmark's own iterator, not the
/// runtime's rate limiter: it sleeps until each tuple's due time
/// `index / rate` and never slows when the system does. It sleeps rather
/// than spins because on a two-core box a spinning generator takes half
/// the machine from the system under test; how late it woke is reported
/// (`pull_lag_ms`) and is inside every latency, which counts from due time.
pub fn paced_rep(cfg: &RuntimeConfig, prefix: &[Tuple], rate: Option<f64>) -> PacedRep {
    let base = Instant::now();
    let (tx, rx) = channel::unbounded::<JoinedPair>();
    // Receipt stamps are taken on the drain thread; due times are a pure
    // function of the payload, so latencies are worked out after the run.
    let drain = thread::spawn(move || {
        let mut digest = Digest::default();
        let mut stamps: Vec<(u64, u64)> = Vec::new();
        while let Ok(pair) = rx.recv() {
            let at = base.elapsed().as_nanos() as u64;
            digest.add(pair.left.payload, pair.right.payload);
            stamps.push((at, pair.left.payload.max(pair.right.payload)));
        }
        (digest, stamps)
    });
    // Nanoseconds after `base` at which the first tuple was pulled; every
    // due time counts from there.
    let mut origin = 0u64;
    let mut pull_lag_ms = Vec::with_capacity(prefix.len());
    let gap_ns = rate.map(|r| 1e9 / r);
    let source = prefix.iter().enumerate().map(|(i, t)| {
        let mut now = base.elapsed().as_nanos() as u64;
        if i == 0 {
            origin = now;
        }
        if let Some(gap) = gap_ns {
            let due = origin + (i as f64 * gap) as u64;
            if now < due {
                thread::sleep(Duration::from_nanos(due - now));
                now = base.elapsed().as_nanos() as u64;
            }
            pull_lag_ms.push(now.saturating_sub(due) as f64 / 1e6);
        }
        *t
    });
    let start = Instant::now();
    let report = try_run_topology_with_results(cfg, source, tx);
    let secs = start.elapsed().as_secs_f64();
    let (digest, stamps) = drain.join().expect("the drain thread only receives and records");

    let gap = gap_ns.unwrap_or(0.0);
    let mut latencies_ms: Vec<f64> = stamps
        .iter()
        .map(|&(at, payload)| {
            at.saturating_sub(origin + (payload as f64 * gap) as u64) as f64 / 1e6
        })
        .collect();
    latencies_ms.sort_by(f64::total_cmp);
    pull_lag_ms.sort_by(f64::total_cmp);
    PacedRep { secs, latencies_ms, pull_lag_ms, digest, report }
}
