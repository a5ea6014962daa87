//! The threaded topology: spout → dispatcher shard(s) → join instances →
//! collector, with one control sequencer and one monitor thread per group
//! (the Storm deployment of §V, scaled to one process).
//!
//! Executor-to-executor communication uses crossbeam channels; each join
//! instance has exactly one input channel, so all messages it receives are
//! FIFO per sender — the ordering contract the migration protocol needs.
//! Each instance's one inbox is bounded (Storm-style backpressure
//! propagating to the spout), and everything that writes to it — shards,
//! the sequencer, the group's monitor and migration peers — parks on it
//! when it is full. Every edge *out of* an instance other than the peer
//! edge (instance → sequencer, instance → monitor, instance → collector)
//! and sequencer ↔ shard is unbounded, which breaks the shard-side
//! wait-for cycle (a shard blocked on a full instance queue while that
//! instance publishes a routing update). The bounded instance → instance
//! edge cannot close one either: a migration round only sends source →
//! target, and a group runs one round at a time (ARCHITECTURE.md,
//! "Backpressure").
//!
//! There is one dispatcher path: the spout shards tuples by key hash over
//! [`RuntimeConfig::dispatcher_shards`] shard threads (one by default),
//! which route under snapshots published by the control sequencer — the
//! routing serialization point the migration protocol (Alg. 2) relies on.
//! See `dispatch` and ARCHITECTURE.md, "Sharded dispatch & routing
//! epochs".
//!
//! # Data-plane batching
//!
//! The hot path is batched end to end: the spout accumulates up to
//! [`RuntimeConfig::batch_size`] tuples per [`SpoutMsg::Data`], and each
//! shard keeps one arrival-ordered queue per destination and ships it
//! whole as one [`RtMsg::Data`] when it reaches `batch_size` or its
//! oldest tuple ages past [`DISPATCH_TICK`].
//! The send-ordering discipline that keeps batching invisible to the
//! migration protocol (decided in `fastjoin_core::{shard, sequencer}`,
//! unit-tested and model-checked there; `dispatch` performs their outputs
//! in order; documented in ARCHITECTURE.md):
//!
//! 1. a shard flushes everything it buffered *before* it installs and
//!    acknowledges a published routing snapshot, and the sequencer sends a
//!    flip's `RouteUpdated` only after every shard acknowledged — so
//!    per-channel FIFO means what it meant unbatched;
//! 2. control messages never wait behind a full data channel *at the
//!    sequencer's input* because instance → sequencer control stays
//!    unbounded (no wait-for cycle);
//! 3. a message of n items means n one-item messages (the rule in
//!    [`crate::msg`]) everywhere else:
//!    tuple-granularity crash points ([`crate::fault::KillSwitch`]),
//!    chaos perturbation of one-item messages
//!    ([`crate::fault::split_rt_batches`]), per-tuple `stage.*`
//!    attribution, per-tuple trace sampling, and checkpoint/replay (the
//!    replay log stores whole messages and replays them identically).
//!
//! # Failure model & supervision
//!
//! Every executor thread runs under the same shell (`supervise`): the
//! body runs under `catch_unwind`, a panic (organic, or injected by a
//! [`FaultPlan`] kill switch) becomes an `ExecutorFailure` event, and —
//! within [`SupervisionConfig::max_restarts`] — a role-specific recovery
//! followed by re-entry (see ARCHITECTURE.md, "Failure model &
//! recovery"):
//!
//! * **Join instances** restore their last checkpoint in place (the
//!   tuple store rolls back along its undo journal; the small rest is
//!   overwritten from a copy), replay the message log with its outputs
//!   discarded, and re-apply the in-flight message with its outputs kept
//!   — all inside `fastjoin_core::stage::InstanceStage`, which `xtask
//!   check-protocol --variant instance-restart` crashes at every point
//!   of a migration round (`instance` is its shell).
//! * **Dispatcher shards** salvage-flush their pending batches, rebuild
//!   the routing replica behind its *epoch fence*, defer new data until
//!   the sequencer's re-publication rebuilds the table to the fence, and
//!   announce [`crate::msg::ShardNote::Restarted`]. The fence makes it
//!   impossible for a resurrected shard to acknowledge a snapshot older
//!   than one its predecessor installed (`xtask check-protocol --variant
//!   sharded-shard-restart` checks this exhaustively, on the same structs).
//! * **The sequencer** keeps its authoritative routing table — and an
//!   open publication barrier, which is state — outside the restarted
//!   body, parks the in-flight control message in a replay slot before an
//!   injected crash fires, and re-publishes the current snapshot to every
//!   shard before resuming — so an interrupted barrier still releases on
//!   the remaining acks.
//! * **Monitors** are a *degradable* dependency: the `Monitor` is kept
//!   across a panic, as the sequencer keeps its table, and recovery only
//!   backs off; past the restart budget the run continues on the routing
//!   table as it stands, without migrations (`monitor`).
//!
//! Every triggered round closes: its `MigrateCmd` travels a lossless FIFO
//! edge, and a round whose command arrived completes (restarts replay or
//! re-publish what a crash interrupted). A round that still wedges is a
//! bug and fails the shutdown with `ExecutorHung { "monitor (quiesce)" }`.
//!
//! Whole-run liveness is watched from the collector: every executor
//! maintains a heartbeat, and a silent stall (or a hung shutdown) surfaces
//! as [`RunError::ExecutorHung`] instead of a wedged process.
//!
//! The collector has no thread of its own. The spout thread absorbs the
//! executors' reports between the batches it sends and, once the input
//! has ended, until every executor has reported. An instance reports the
//! probes one input message completed as one vector
//! ([`CollectorMsg::Probes`]), so the collector edge carries one message
//! per instance message. The edge is unbounded — the collector runs on
//! the thread that feeds the pipeline, and a full bounded edge would close
//! the cycle spout → shard → instance → collector → spout — and what
//! bounds its queue is structural: reports outstanding ≤ probe parts in
//! flight ≤ tuples the bounded data channels hold (ARCHITECTURE.md, "The
//! collector rides the spout thread").

mod dispatch;
mod instance;
mod monitor;
mod supervise;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender};

use fastjoin_baselines::{build_partitioners, SystemKind};
use fastjoin_core::accounting::ProbeAccountant;
use fastjoin_core::config::FastJoinConfig;
use fastjoin_core::hash::mix64;
use fastjoin_core::instance::InstanceCounters;
use fastjoin_core::metrics::{LogHistogram, MetricsRegistry, MigrationSpan, TimeSeries};
use fastjoin_core::monitor::{MigrationDecision, MonitorStats};
use fastjoin_core::trace::{TraceConfig, TraceJournal};
use fastjoin_core::tuple::{JoinedPair, Tuple};
use lintmarks::lint;

use crate::fault::{ChaosPolicy, ChaosReceiver, FaultPlan};
use crate::introspect::{Introspection, Part};
use crate::msg::{DispatcherMsg, MonitorMsg, ProbeReport, RtMsg, ShardCtrl, ShardNote, SpoutMsg};
use crate::report::RuntimeReport;
use dispatch::{InstanceTxs, Sequencer, SequencerLinks, Shard, ShardLinks};
use instance::{InstanceExecutor, InstanceIo};
use monitor::{MonitorExecutor, MonitorLinks};
use supervise::{
    bounded_join, drain_fatal, quiet_injected_panics, stalled_executors, Clock, Heartbeat, Pulse,
    Role, Spawner,
};

/// How often blocked executors wake to refresh their heartbeat and check
/// the emergency kill flag.
const EXECUTOR_TICK: Duration = Duration::from_millis(25);
/// A heartbeat older than this marks its executor as silently stalled
/// and fails the run.
const STALL: Duration = Duration::from_secs(10);
/// Bounded wait when joining executor threads at shutdown.
const JOIN_GRACE: Duration = Duration::from_secs(5);
/// Bounded wait for the monitors' quiesce acknowledgement.
const QUIESCE_TIMEOUT: Duration = Duration::from_secs(60);
/// Shard wait on the data channel between control-channel polls. This
/// bounds how long a queued publication can sit unserved while the shard
/// blocks on an idle data channel — publications arrive on a separate
/// channel and do not wake the data wait. [`DISPATCH_TICK`] (1ms) here
/// was the PR 5 route-flip latency regression: flips waited out the data
/// timeout at p50 ≈ tick/2.
const CTRL_TICK: Duration = Duration::from_micros(100);
/// Batch-age flush deadline: the maximum extra latency batching may add
/// to a tuple parked in a partially-filled per-destination batch.
const DISPATCH_TICK: Duration = Duration::from_millis(1);
/// Collector wait between liveness sweeps.
const COLLECT_TICK: Duration = Duration::from_millis(50);

/// Role salt for [`executor_seed`]: the per-instance key selector RNG.
const SEED_ROLE_SELECTOR: u64 = 1;
/// Role salt for [`executor_seed`]: the per-instance chaos-receiver RNG.
const SEED_ROLE_CHAOS: u64 = 2;

/// Derives a per-executor RNG seed by hashing (base, group, id, role)
/// through the SplitMix64 finalizer. The old affine derivation
/// (`seed + group + id*97`) made distinct executor coordinates collide
/// (e.g. `(group+97, id)` and `(group, id+1)`) and produced correlated
/// streams; chaining a bijective mixer per component cannot collide two
/// distinct `(group, id, role)` triples for the same base.
fn executor_seed(base: u64, group: u64, id: u64, role: u64) -> u64 {
    mix64(mix64(mix64(mix64(base) ^ group) ^ id) ^ role)
}

/// Supervision knobs. The defaults preserve the pre-supervision
/// semantics: no restarts (any executor panic fails the run; a monitor
/// panic degrades it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisionConfig {
    /// Restarts allowed per executor before its failure is fatal to the
    /// run (for monitors: before the run degrades to frozen routing).
    /// 0 disables recovery.
    pub max_restarts: u32,
    /// Messages between instance checkpoints (bounds the replay log and
    /// the store's undo journal). A data message carries up to
    /// [`RuntimeConfig::batch_size`] tuples, so at the defaults (64 × 64)
    /// up to 4,096 tuples — a replay log of ≈ 200 KB per instance — lie
    /// between two checkpoints.
    pub checkpoint_every: u64,
}

impl Default for SupervisionConfig {
    fn default() -> Self {
        SupervisionConfig { max_restarts: 0, checkpoint_every: 64 }
    }
}

/// Runtime configuration.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Which system to run.
    pub system: SystemKind,
    /// Cluster configuration (instances, Θ, selector, window, …).
    pub fastjoin: FastJoinConfig,
    /// Backpressure bound: tuples in flight per instance inbox. An inbox
    /// slot holds one message of up to `batch_size` tuples, so the inbox
    /// has `queue_cap / batch_size` slots. (The spout → shard channels
    /// have `queue_cap` slots.)
    pub queue_cap: usize,
    /// Data-plane batch size: tuples per spout → shard message and per
    /// shard → instance flush (≥ 1). Larger values amortize per-message
    /// channel overhead at the cost of up to one [`DISPATCH_TICK`] of
    /// added latency per tuple.
    pub batch_size: usize,
    /// Dispatcher shard count (default 1). N shard threads route disjoint
    /// key ranges (`mix64(key) % N`, so both sides of any matching pair
    /// cross the same shard) under per-batch routing snapshots; one
    /// control sequencer owns the authoritative routing table and
    /// serializes route flips across the shards (see ARCHITECTURE.md,
    /// "Sharded dispatch & routing epochs"). The count only sizes the
    /// stage — every value runs the same code.
    pub dispatcher_shards: usize,
    /// Monitor sampling period in wall-clock milliseconds.
    pub monitor_period_ms: u64,
    /// Optional spout rate limit, tuples/second (None = full speed).
    pub rate_limit: Option<f64>,
    /// Supervision and recovery knobs.
    pub supervision: SupervisionConfig,
    /// Fault-injection schedule (default: no faults).
    pub faults: FaultPlan,
    /// Trace-journal settings: per-executor ring capacity and data-plane
    /// sampling (default: enabled, 16Ki events/executor, 1-in-64).
    pub trace: TraceConfig,
    /// Live-introspection snapshot period in milliseconds. 0 (the
    /// default) disables the snapshot thread entirely — no extra threads,
    /// messages, or allocations.
    pub snapshot_interval_ms: u64,
    /// Serve `/metrics` (Prometheus text) and `/snapshot` (JSON) over
    /// HTTP on `127.0.0.1:<port>` for the duration of the run. Port 0
    /// binds an ephemeral port (reported via the introspection handle).
    /// `None` (the default) starts no server.
    pub serve_metrics: Option<u16>,
    /// Append each periodic snapshot as one JSON line to this file
    /// (requires `snapshot_interval_ms > 0`). `None` keeps snapshots
    /// in-memory only (still visible via `/snapshot`).
    pub snapshot_path: Option<String>,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            system: SystemKind::FastJoin,
            fastjoin: FastJoinConfig::default(),
            queue_cap: 4096,
            batch_size: 64,
            dispatcher_shards: 1,
            monitor_period_ms: 100,
            rate_limit: None,
            supervision: SupervisionConfig::default(),
            faults: FaultPlan::default(),
            trace: TraceConfig::default(),
            snapshot_interval_ms: 0,
            serve_metrics: None,
            snapshot_path: None,
        }
    }
}

impl RuntimeConfig {
    /// Checks the runtime knobs for consistency (the wrapped
    /// [`FastJoinConfig`] is validated too). Called by every `run_topology`
    /// entry point before any thread is spawned.
    ///
    /// # Errors
    /// A human-readable description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        self.fastjoin.validate()?;
        if self.queue_cap == 0 {
            return Err("queue_cap must be ≥ 1 (channels are bounded)".into());
        }
        if self.batch_size == 0 {
            return Err("batch_size must be ≥ 1".into());
        }
        if self.dispatcher_shards == 0 {
            return Err("dispatcher_shards must be ≥ 1".into());
        }
        if self.batch_size > self.queue_cap {
            return Err(format!(
                "batch_size ({}) must not exceed queue_cap ({}): queue_cap counts tuples in \
                 flight per instance inbox, and an inbox needs room for at least one full batch",
                self.batch_size, self.queue_cap
            ));
        }
        if self.snapshot_path.is_some() && self.snapshot_interval_ms == 0 {
            return Err("snapshot_path requires snapshot_interval_ms > 0 (the periodic snapshot \
                 thread is what writes the stream)"
                .into());
        }
        Ok(())
    }
}

/// Why a topology run failed. Fault-free runs on correct code never see
/// these; they exist so crashes and stalls fail fast with a diagnosis
/// instead of wedging the process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// An executor stopped updating its heartbeat (or shutdown timed out
    /// waiting on it) without reporting a failure.
    ExecutorHung {
        /// Thread name(s) of the stalled executor(s), comma-separated —
        /// every executor past the stall deadline is listed, so a
        /// cross-executor deadlock shows all of its participants.
        name: String,
    },
    /// An executor panicked and was out of restart budget, or its
    /// recovery itself panicked. Monitors never produce the former: past
    /// their restart budget they degrade instead.
    ExecutorFailed {
        /// Thread name of the failed executor.
        name: String,
        /// The panic payload, stringified.
        error: String,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::ExecutorHung { name } => write!(f, "executor {name:?} hung"),
            RunError::ExecutorFailed { name, error } => {
                write!(f, "executor {name:?} failed: {error}")
            }
        }
    }
}

impl std::error::Error for RunError {}

/// Runs a complete topology over a workload and reports the measurements.
///
/// # Panics
/// Panics if the configuration is invalid or the run fails (executor
/// crash out of restart budget, stall, hung shutdown) — use
/// [`try_run_topology`] to handle failures as values.
pub fn run_topology(
    cfg: &RuntimeConfig,
    workload: impl IntoIterator<Item = Tuple>,
) -> RuntimeReport {
    // lint:allow(thin compatibility wrapper: callers that want errors use try_run_topology)
    try_run_topology(cfg, workload).unwrap_or_else(|e| panic!("topology run failed: {e}"))
}

/// Runs a complete topology, surfacing executor failures and stalls as
/// [`RunError`] instead of panicking.
///
/// # Errors
/// [`RunError::ExecutorFailed`] when an executor panics beyond its restart
/// budget; [`RunError::ExecutorHung`] when an executor stalls silently or
/// shutdown exceeds its grace period.
///
/// # Panics
/// Panics only on invalid configuration or a violated accounting
/// invariant (both programming errors, not runtime faults).
pub fn try_run_topology(
    cfg: &RuntimeConfig,
    workload: impl IntoIterator<Item = Tuple>,
) -> Result<RuntimeReport, RunError> {
    run_topology_inner(cfg, workload, None)
}

/// [`try_run_topology`] that additionally streams every joined pair to
/// `results` as it is produced (unordered across instances; exactly once).
/// Dropping the receiver mid-run is safe — emission is best-effort.
///
/// # Errors
/// As for [`try_run_topology`].
pub fn try_run_topology_with_results(
    cfg: &RuntimeConfig,
    workload: impl IntoIterator<Item = Tuple>,
    results: Sender<JoinedPair>,
) -> Result<RuntimeReport, RunError> {
    run_topology_inner(cfg, workload, Some(results))
}

fn run_topology_inner(
    cfg: &RuntimeConfig,
    workload: impl IntoIterator<Item = Tuple>,
    results: Option<Sender<JoinedPair>>,
) -> Result<RuntimeReport, RunError> {
    cfg.validate().expect("invalid configuration"); // lint:allow(startup config validation, before any data flows)
    let clock = Clock(Instant::now());
    if !cfg.faults.crashes.is_empty() {
        quiet_injected_panics();
    }
    // Live introspection plane, strictly gated: with snapshots off and no
    // metrics port, no hub is created and no executor publishes.
    let introspection = if cfg.snapshot_interval_ms > 0 || cfg.serve_metrics.is_some() {
        let started = Introspection::start(
            cfg.snapshot_interval_ms,
            cfg.serve_metrics,
            cfg.snapshot_path.clone(),
        );
        Some(started.map_err(|e| RunError::ExecutorFailed {
            name: "introspect-http".to_string(),
            error: format!("failed to start introspection plane: {e}"),
        })?)
    } else {
        None
    };
    // This thread's pulse — spout and collector — and the pattern of
    // every executor's.
    let pulse = Pulse {
        clock,
        hb: Arc::default(),
        kill: Arc::default(),
        hub: introspection.as_ref().map(Introspection::hub),
    };

    let topo = wire(cfg, pulse.clone(), results);
    let mut collector = Collector::new(pulse, topo.n, topo.handles.len());
    let ingested = topo.run_spout(cfg, workload, &mut collector);
    let mut report = topo.shut_down_and_collect(ingested, collector)?;

    // Orderly teardown: stop the snapshot/HTTP threads and write the
    // final snapshot, the finished registry's. (Failure paths above drop
    // the plane instead, which stops the threads without it.)
    if let Some(intro) = introspection {
        intro.shutdown(&report.registry);
    }
    report.duration_us = clock.now_us();
    Ok(report)
}

/// The running topology as the spout/collector thread sees it: the
/// channel ends it feeds and drains, plus the executor handles.
struct Topology {
    pulse: Pulse,
    /// One bounded spout → shard data channel per shard: backpressure
    /// propagates to the spout per shard.
    shard_txs: Vec<Sender<SpoutMsg>>,
    /// Monitor inboxes, for the `Quiesce` handshake (empty for static
    /// systems).
    mon_txs: Vec<Sender<MonitorMsg>>,
    quiesce_ack_rx: Receiver<usize>,
    collector_rx: Receiver<CollectorMsg>,
    handles: Vec<(String, thread::JoinHandle<()>)>,
    heartbeats: Vec<Heartbeat>,
    /// Instances per group.
    n: usize,
}

/// Builds every channel and spawns every executor: N shards, the
/// sequencer, 2·n instances and (for dynamic systems) two monitors.
fn wire(cfg: &RuntimeConfig, pulse: Pulse, results: Option<Sender<JoinedPair>>) -> Topology {
    let n = cfg.fastjoin.instances_per_group;
    let (_, _, dynamic) = build_partitioners(cfg.system, &cfg.fastjoin);
    let (collector_tx, collector_rx) = unbounded::<CollectorMsg>();
    let (disp_ctrl_tx, disp_ctrl_rx) = unbounded::<DispatcherMsg>();
    let (quiesce_ack_tx, quiesce_ack_rx) = unbounded::<usize>();
    let mut inst_txs: InstanceTxs = [Vec::new(), Vec::new()];
    let mut inst_rxs: [Vec<Receiver<RtMsg>>; 2] = [Vec::new(), Vec::new()];
    for (txs, rxs) in inst_txs.iter_mut().zip(inst_rxs.iter_mut()) {
        for _ in 0..n {
            // `queue_cap` counts tuples; a slot holds a message of up to
            // `batch_size` of them (≥ 1 slot: `validate` checked
            // batch_size ≤ queue_cap).
            let (tx, rx) = bounded::<RtMsg>(cfg.queue_cap / cfg.batch_size);
            txs.push(tx);
            rxs.push(rx);
        }
    }
    let mut mon_txs: [Option<Sender<MonitorMsg>>; 2] = [None, None];
    let mut mon_rxs: Vec<Receiver<MonitorMsg>> = Vec::new();
    if dynamic {
        for slot in &mut mon_txs {
            let (tx, rx) = unbounded::<MonitorMsg>();
            *slot = Some(tx);
            mon_rxs.push(rx);
        }
    }
    let mut spawner = Spawner {
        pulse,
        collector: collector_tx.clone(),
        max_restarts: cfg.supervision.max_restarts,
        handles: Vec::new(),
        heartbeats: Vec::new(),
    };

    // Dispatch seqs come from one shared atomic so the collector's
    // exactly-once probe accounting keys stay unique across shards.
    let shared_seq = Arc::new(AtomicU64::new(1));
    let (note_tx, note_rx) = unbounded::<ShardNote>();
    let mut shard_txs = Vec::new();
    let mut shard_ctrl_txs = Vec::new();
    for k in 0..cfg.dispatcher_shards {
        let (data_tx, data_rx) = bounded::<SpoutMsg>(cfg.queue_cap);
        let (ctrl_tx, ctrl_rx) = unbounded::<ShardCtrl>();
        shard_ctrl_txs.push(ctrl_tx);
        shard_txs.push(data_tx);
        let links = ShardLinks {
            inst_txs: inst_txs.clone(),
            seq: shared_seq.clone(),
            data_rx,
            ctrl_rx,
            note_tx: note_tx.clone(),
        };
        spawner.spawn_executor(format!("dispatch-shard-{k}"), Role::Dispatch, |pulse| {
            Shard::new(k, cfg, links, pulse)
        });
    }
    drop(note_tx);
    let links = SequencerLinks {
        inst_txs: inst_txs.clone(),
        ctrl_rx: disp_ctrl_rx,
        shard_txs: shard_ctrl_txs,
        note_rx,
    };
    spawner.spawn_executor("dispatch-seq".to_string(), Role::Dispatch, |pulse| {
        Sequencer::new(cfg, links, pulse)
    });

    for (g, rxs) in inst_rxs.into_iter().enumerate() {
        for (i, rx) in rxs.into_iter().enumerate() {
            let chaos_rng =
                cfg.faults.rng_for(executor_seed(0, g as u64, i as u64, SEED_ROLE_CHAOS));
            let chaos = ChaosPolicy {
                // Data-plane channels only ever get delay faults: FIFO and
                // losslessness are the protocol's correctness backbone.
                delay_1_in: cfg.faults.instance_chaos.delay_1_in,
                delay_max_us: cfg.faults.instance_chaos.delay_max_us,
                ..ChaosPolicy::default()
            };
            // Chaos perturbs at tuple granularity: data messages are split
            // into one-item messages first (only under an active policy —
            // see `fault`).
            let rx = ChaosReceiver::new(rx, chaos, chaos_rng, |_| false)
                .with_splitter(crate::fault::split_rt_batches);
            let side = if g == 0 { 'R' } else { 'S' };
            spawner.spawn_executor(format!("join-{side}-{i}"), Role::Instance, |pulse| {
                let io = InstanceIo {
                    group: g,
                    id: i,
                    fj: cfg.fastjoin.clone(),
                    sample_period_us: cfg.monitor_period_ms.max(1) * 1_000,
                    to_instances: inst_txs[g].clone(), // lint:allow(g ranges over the two fixed groups)
                    to_monitor: mon_txs[g].clone(), // lint:allow(g ranges over the two fixed groups)
                    disp_ctrl: disp_ctrl_tx.clone(),
                    collector: collector_tx.clone(),
                    results: results.clone(),
                    pulse,
                };
                InstanceExecutor::new(io, rx, cfg)
            });
        }
    }

    for (g, rx) in mon_rxs.into_iter().enumerate() {
        let links = MonitorLinks {
            rx,
            to_instances: inst_txs[g].clone(), // lint:allow(g ranges over the two fixed groups)
            quiesce_ack: quiesce_ack_tx.clone(),
        };
        spawner.spawn_executor(format!("monitor-{g}"), Role::Monitor, |pulse| {
            MonitorExecutor::new(g, cfg, links, pulse)
        });
    }
    // Every sender this thread does not itself feed (collector, instance
    // and control senders) is dropped on return, so channels disconnect
    // once their executors are done with theirs.
    let Spawner { pulse, handles, heartbeats, .. } = spawner;
    Topology {
        pulse,
        shard_txs,
        mon_txs: mon_txs.into_iter().flatten().collect(),
        quiesce_ack_rx,
        collector_rx,
        handles,
        heartbeats,
        n,
    }
}

impl Topology {
    /// The spout (this thread): paces, stamps, shards and batches the
    /// workload into the shard channels, and after every batch it sends
    /// folds whatever the executors have reported so far into `collector`
    /// — so the collector queue holds what is in flight instead of every
    /// report of the run, and no single-threaded drain of the whole run
    /// follows the last tuple.
    /// Returns the tuples ingested.
    fn run_spout(
        &self,
        cfg: &RuntimeConfig,
        workload: impl IntoIterator<Item = Tuple>,
        collector: &mut Collector,
    ) -> u64 {
        // Pacing is hybrid: sleep off the bulk of the inter-tuple gap, then
        // spin only the last stretch (the scheduler cannot be trusted below
        // ~100 µs, but a pure busy-wait burned a full core at low rates).
        const SPIN_WINDOW: Duration = Duration::from_micros(150);
        let shards = self.shard_txs.len();
        let batch = cfg.batch_size.max(1);
        let mut ingested = 0u64;
        // One accumulation buffer per shard: a batch never mixes shards, so
        // the shard assignment below is also the batch assignment.
        let mut bufs: Vec<Vec<Tuple>> = (0..shards).map(|_| Vec::with_capacity(batch)).collect();
        let gap = cfg.rate_limit.map(|r| Duration::from_secs_f64(1.0 / r));
        let mut batches_sent = 0u64;
        let mut next_send = Instant::now();
        for mut t in workload {
            if self.pulse.kill.load(Ordering::Relaxed) {
                break;
            }
            if let Some(gap) = gap {
                loop {
                    let now = Instant::now();
                    if now >= next_send {
                        break;
                    }
                    let remaining = next_send - now;
                    if remaining > SPIN_WINDOW {
                        thread::sleep(remaining - SPIN_WINDOW);
                    } else {
                        std::hint::spin_loop();
                    }
                }
                next_send += gap;
            }
            // Event time is stamped here, at pacing time and before any
            // batching, so inter-tuple gaps survive into the stream's event
            // time (a batch stamped at dispatch would compress them).
            t.ts = self.pulse.now_us();
            // Shard by key hash: both sides of a matching pair share a key,
            // so they cross the same shard — per-shard ordering plus
            // per-channel FIFO is all the migration protocol ever relied on.
            let sh = (mix64(t.key) % shards as u64) as usize;
            // lint:allow(sh is mix64 % len by construction)
            let (tx, buf) = (&self.shard_txs[sh], &mut bufs[sh]);
            buf.push(t);
            if buf.len() < batch {
                continue;
            }
            let msg = SpoutMsg::Data(std::mem::replace(buf, Vec::with_capacity(batch)));
            if tx.send(msg).is_err() {
                // Shard gone mid-stream: the failure that killed it is in
                // the collector queue; stop feeding and go diagnose.
                break;
            }
            ingested += batch as u64;
            collector.absorb_ready(&self.collector_rx);
            if collector.error.is_some() {
                break; // an executor failed for good: stop feeding
            }
            if self.pulse.publish_due(&mut batches_sent) {
                collector.publish();
            }
        }
        for (tx, buf) in self.shard_txs.iter().zip(bufs) {
            let len = buf.len() as u64;
            if len > 0 && tx.send(SpoutMsg::Data(buf)).is_ok() {
                ingested += len;
            }
        }
        collector.publish();
        ingested
    }

    /// Raises the emergency stop, reaps what can be reaped, and hands the
    /// error back.
    fn fail(self, e: RunError) -> RunError {
        self.pulse.kill.store(true, Ordering::Relaxed);
        let _ = bounded_join(self.handles, JOIN_GRACE);
        e
    }

    /// Shutdown handshake (quiesce the monitors, then EOS down the data
    /// path), the collector loop, and the final join. The report's
    /// `duration_us` is left for the caller (teardown is not over yet).
    fn shut_down_and_collect(
        mut self,
        ingested: u64,
        mut collector: Collector,
    ) -> Result<RuntimeReport, RunError> {
        if let Some(e) = collector.error.take() {
            return Err(self.fail(e));
        }
        for tx in &self.mon_txs {
            let _ = tx.send(MonitorMsg::Quiesce);
        }
        // Wait (bounded) for every monitor to confirm no round in flight.
        let deadline = Instant::now() + QUIESCE_TIMEOUT;
        for _ in 0..self.mon_txs.len() {
            let left = deadline.saturating_duration_since(Instant::now());
            if self.quiesce_ack_rx.recv_timeout(left).is_err() {
                // Prefer the root cause if an executor already died.
                let e = drain_fatal(&self.collector_rx)
                    .unwrap_or(RunError::ExecutorHung { name: "monitor (quiesce)".into() });
                return Err(self.fail(e));
            }
        }
        self.mon_txs.clear();
        for tx in std::mem::take(&mut self.shard_txs) {
            let _ = tx.send(SpoutMsg::Eos); // a dead shard is reported below
        }

        // What the last batches left queued, then one loop for the rest:
        // instances exit first (on Eos), then the monitors and the
        // sequencer (their inboxes disconnect) — the sequencer keeps
        // serving late control messages after broadcasting Eos and only
        // reports once every instance is gone. Every executor reports
        // exactly once.
        collector.absorb_ready(&self.collector_rx);
        while collector.reports_left > 0 && collector.error.is_none() {
            match self.collector_rx.recv_timeout(COLLECT_TICK) {
                Ok(msg) => collector.absorb(msg),
                Err(RecvTimeoutError::Timeout) => {
                    collector.publish();
                    let stalled = stalled_executors(
                        &self.heartbeats,
                        self.pulse.now_us(),
                        STALL.as_millis() as u64,
                    );
                    if !stalled.is_empty() {
                        collector.error = Some(RunError::ExecutorHung { name: stalled.join(", ") });
                    }
                }
                Err(RecvTimeoutError::Disconnected) => {
                    collector.error = Some(
                        drain_fatal(&self.collector_rx)
                            .unwrap_or(RunError::ExecutorHung { name: "collector feed".into() }),
                    );
                }
            }
        }
        if let Some(e) = collector.error.take() {
            return Err(self.fail(e));
        }
        if let Some(e) = bounded_join(self.handles, JOIN_GRACE) {
            self.pulse.kill.store(true, Ordering::Relaxed);
            return Err(e);
        }
        collector.sync_own();
        let Collector { mut report, mut own, accountant, route_flips, .. } = collector;
        report.tuples_ingested = ingested;

        // Shutdown invariant: every probe's fan-out parts drained to zero.
        (report.probes_total, report.latency) = accountant
            .finish()
            // lint:allow(shutdown invariant: leaked fan-out entries mean lost latency samples; fail loudly)
            .unwrap_or_else(|e| panic!("probe accounting corrupted at shutdown: {e}"));

        for (group, epoch, us) in route_flips {
            if let Some(span) = report.migration_spans[group] // lint:allow(group is 0 or 1 by construction)
                .iter_mut()
                .find(|s| s.epoch == epoch)
            {
                span.route_flip_us = Some(us);
            }
        }

        // The merged journal sorts into its canonical deterministic order,
        // and the run-level registry records the drop counter the
        // acceptance gate checks (0 at default ring sizes).
        report.trace.sort();
        own.counter_add("trace.dropped", report.trace.dropped());
        own.counter_add("trace.events", report.trace.len() as u64);
        Part::Collector.fold_into(&mut report.registry, &own);
        Ok(report)
    }
}

/// The collector's side of the run: folds what the executors report —
/// one vector of probe reports per instance message, one final report per
/// executor, every failure — into the [`RuntimeReport`]. It runs on the
/// spout thread, between batches while the input lasts and alone after it.
struct Collector {
    /// The spout/collector thread's pulse: the run clock, and the hub
    /// `own` is published to.
    pulse: Pulse,
    /// The report under construction. Its registry is the fold of the
    /// executors' final registries and, last, of `own`.
    report: RuntimeReport,
    /// This thread's own registry — `stage.emit_us`, `supervisor.*`,
    /// `collector.*` — one [`Part`] like every executor's.
    own: MetricsRegistry,
    accountant: ProbeAccountant,
    /// Route-flip latencies arrive from instances keyed by (group, epoch)
    /// and are patched into the matching monitor span after `MonitorDone`.
    route_flips: Vec<(usize, u64, u64)>,
    /// Most reports one visit of the spout thread found waiting
    /// (`collector.backlog_hwm` in the run registry): bounded by what the
    /// bounded data channels hold in flight, not by the input.
    backlog_hwm: u64,
    /// [`CollectorMsg::Probes`] messages folded since
    /// [`Collector::sync_own`] last added them to
    /// `collector.report_batches`: probe parts ÷ that is how many reports
    /// a message carried.
    report_batches: u64,
    /// Executors that have not sent their final report yet.
    reports_left: usize,
    /// The failure that ends the run, once one is known.
    error: Option<RunError>,
}

impl Collector {
    fn new(pulse: Pulse, n: usize, executors: usize) -> Self {
        Collector {
            pulse,
            report: RuntimeReport {
                duration_us: 0,
                tuples_ingested: 0,
                results_total: 0,
                probes_total: 0,
                latency: LogHistogram::new(),
                throughput: TimeSeries::new(1_000_000),
                counters: [vec![Default::default(); n], vec![Default::default(); n]],
                monitor_stats: [None, None],
                imbalance: [None, None],
                migration_spans: [Vec::new(), Vec::new()],
                decisions: [Vec::new(), Vec::new()],
                registry: MetricsRegistry::new(),
                trace: TraceJournal::new(),
            },
            own: MetricsRegistry::new(),
            accountant: ProbeAccountant::new(),
            route_flips: Vec::new(),
            backlog_hwm: 0,
            report_batches: 0,
            reports_left: executors,
            error: None,
        }
    }

    /// Writes what this thread counts in fields into `own`.
    fn sync_own(&mut self) {
        self.own.gauge_set("collector.backlog_hwm", self.backlog_hwm as f64);
        self.own.counter_add("collector.report_batches", std::mem::take(&mut self.report_batches));
    }

    fn publish(&mut self) {
        self.sync_own();
        self.pulse.publish(Part::Collector, &self.own, Vec::new);
    }

    /// Absorbs everything queued right now, without waiting, and keeps the
    /// high-water mark of how many reports (probe reports, plus one per
    /// other message) one visit found.
    fn absorb_ready(&mut self, rx: &Receiver<CollectorMsg>) {
        let mut found = 0;
        while self.error.is_none() {
            let Ok(msg) = rx.try_recv() else { break };
            found += if let CollectorMsg::Probes { reports, .. } = &msg {
                reports.len() as u64
            } else {
                1
            };
            self.absorb(msg);
        }
        self.backlog_hwm = self.backlog_hwm.max(found);
    }

    /// Folds the probe reports of one instance message at `now`, the
    /// caller's one clock read for it. What is the same for every report —
    /// the emit stage `now − done_us`, the period the results land in — is
    /// booked once; the ledger takes `done_us − ts` per part, so for every
    /// part the stages tile: its latency plus its emit sample is
    /// `now − ts`.
    #[lint(hot_path)]
    fn fold_probes(&mut self, now: u64, done_us: u64, reports: &[ProbeReport]) {
        let RuntimeReport { results_total, throughput, .. } = &mut self.report;
        // Emit-stage latency: step finished → results visible here.
        self.own
            .histogram_mut("stage.emit_us")
            .record_n(now.saturating_sub(done_us), reports.len() as u64);
        let mut matches = 0;
        for r in reports {
            matches += r.matches;
            self.accountant
                .on_probe(r.seq, r.fanout, done_us.saturating_sub(r.ts))
                // lint:allow(accounting corruption means every later count is garbage; fail the run loudly)
                .unwrap_or_else(|e| panic!("probe accounting violated: {e}"));
        }
        *results_total += matches;
        throughput.record(now, matches as f64);
        self.report_batches += 1;
    }

    fn absorb(&mut self, msg: CollectorMsg) {
        let report = &mut self.report;
        let reg = &mut report.registry;
        let own = &mut self.own;
        match msg {
            CollectorMsg::Probes { done_us, reports } => {
                self.fold_probes(self.pulse.now_us(), done_us, &reports);
            }
            CollectorMsg::RouteFlip { group, epoch, us } => {
                self.route_flips.push((group, epoch, us));
            }
            CollectorMsg::InstanceDone { group, id, counters, registry, journal } => {
                report.counters[group][id] = counters; // lint:allow(group and id come from our own spawned executors)
                Part::Instance { group, id }.fold_into(reg, &registry);
                report.trace.absorb(*journal);
                self.reports_left -= 1;
            }
            CollectorMsg::MonitorDone { group, stats, spans, decisions, li, registry, journal } => {
                report.monitor_stats[group] = Some(stats); // lint:allow(group is 0 or 1 by construction)
                report.migration_spans[group] = spans; // lint:allow(group is 0 or 1 by construction)
                report.decisions[group] = decisions; // lint:allow(group is 0 or 1 by construction)
                report.imbalance[group] = Some(*li); // lint:allow(group is 0 or 1 by construction)
                Part::Monitor(group).fold_into(reg, &registry);
                report.trace.absorb(*journal);
                self.reports_left -= 1;
            }
            CollectorMsg::DispatcherDone { part, registry, journal } => {
                // Counter merges ADD, so per-shard counts (tuples_ingested,
                // probe_copies, snapshot_installs, …) sum across reports.
                part.fold_into(reg, &registry);
                report.trace.absorb(*journal);
                self.reports_left -= 1;
            }
            CollectorMsg::ExecutorFailure { name, error: text, fatal, control } => {
                own.counter_add("supervisor.executor_failures", 1);
                // One ExecutorFailure event is sent per restart attempt,
                // so counting events yields the cumulative per-executor
                // restart count.
                own.counter_add(&format!("supervisor.restarts.{name}"), 1);
                // Control-plane recoveries (dispatcher shards, the
                // sequencer, monitors) get their own aggregate, the
                // headline number for control-plane chaos runs.
                if control && !fatal {
                    own.counter_add("supervisor.control_restarts", 1);
                }
                if fatal {
                    self.error = Some(RunError::ExecutorFailed { name, error: text });
                }
                // Rare, and what an operator is watching for: show it now.
                self.publish();
            }
        }
    }
}

/// Messages into the collector.
enum CollectorMsg {
    /// The probes one instance message completed, in completion order
    /// (never empty). `done_us` is when the step that completed them had
    /// drained its work — the moment before this message was sent, so
    /// every probe of the step is done, and its result visible, then.
    Probes { done_us: u64, reports: Vec<ProbeReport> },
    /// Routing-update round trip measured at the migration source:
    /// `MigrateCmd` receipt → `RouteUpdated` receipt, in microseconds.
    RouteFlip { group: usize, epoch: u64, us: u64 },
    InstanceDone {
        group: usize,
        id: usize,
        counters: InstanceCounters,
        registry: MetricsRegistry,
        journal: Box<TraceJournal>,
    },
    MonitorDone {
        group: usize,
        stats: MonitorStats,
        spans: Vec<MigrationSpan>,
        /// The decision-audit log: every trigger evaluation with `LI > Θ`
        /// (triggered or rejected) and how it resolved.
        decisions: Vec<MigrationDecision>,
        li: Box<TimeSeries>,
        /// Supervision telemetry (`monitor.degraded_ms`, restart counts)
        /// merged unprefixed into the run registry.
        registry: Box<MetricsRegistry>,
        journal: Box<TraceJournal>,
    },
    /// End-of-run report of one dispatcher shard or of the sequencer.
    DispatcherDone { part: Part, registry: Box<MetricsRegistry>, journal: Box<TraceJournal> },
    /// An executor panicked. `fatal` means it will not recover (the run
    /// must fail); otherwise `supervise` ran its recovery and re-entered
    /// it. `control` marks control-plane executors (shards, sequencer,
    /// monitors).
    ExecutorFailure { name: String, error: String, fatal: bool, control: bool },
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn runtime_config_validate_rejects_bad_batching_knobs() {
        assert!(RuntimeConfig::default().validate().is_ok());
        let zero = RuntimeConfig { batch_size: 0, ..RuntimeConfig::default() };
        assert!(zero.validate().is_err(), "batch_size 0 must be rejected");
        let oversized = RuntimeConfig { batch_size: 8, queue_cap: 4, ..RuntimeConfig::default() };
        assert!(oversized.validate().is_err(), "batch larger than channel must be rejected");
        let no_queue = RuntimeConfig { queue_cap: 0, ..RuntimeConfig::default() };
        assert!(no_queue.validate().is_err(), "queue_cap 0 must be rejected");
        let no_shards = RuntimeConfig { dispatcher_shards: 0, ..RuntimeConfig::default() };
        assert!(no_shards.validate().is_err(), "dispatcher_shards 0 must be rejected");
        let sharded = RuntimeConfig { dispatcher_shards: 4, ..RuntimeConfig::default() };
        assert!(sharded.validate().is_ok(), "multi-shard configs are valid");
    }

    /// The stages tile by construction: for every probe part, what the
    /// ledger books (`done_us − ts`) plus the message's emit sample
    /// (`now − done_us`) is the fold time minus the tuple's spout stamp.
    /// And what is booked once per message equals the per-report sums.
    #[test]
    fn fold_probes_tiles_the_stages_and_books_the_message_once() {
        let pulse = Pulse {
            clock: Clock(Instant::now()),
            hb: Arc::default(),
            kill: Arc::default(),
            hub: None,
        };
        let collector = || Collector::new(pulse.clone(), 1, 1);
        let (now, done_us) = (2_010_000, 2_009_400);
        let reports = [
            ProbeReport { seq: 1, fanout: 1, matches: 3, ts: 100 },
            ProbeReport { seq: 2, fanout: 1, matches: 0, ts: 1_999_999 },
            ProbeReport { seq: 3, fanout: 1, matches: 7, ts: done_us },
        ];
        for r in &reports {
            let mut c = collector();
            c.fold_probes(now, done_us, std::slice::from_ref(r));
            let emit = c.own.histogram_mut("stage.emit_us").max();
            let (_, latency) = c.accountant.finish().expect("one-part probes all complete");
            assert_eq!(latency.max() + emit, now - r.ts, "probe {}", r.seq);
        }

        let mut c = collector();
        c.fold_probes(now, done_us, &reports);
        let matches: u64 = reports.iter().map(|r| r.matches).sum();
        assert_eq!(c.report.results_total, matches);
        assert_eq!(c.report.throughput.sums(), &[0.0, 0.0, matches as f64]);
        assert_eq!(c.report_batches, 1);
        let emit = c.own.histogram_mut("stage.emit_us");
        assert_eq!((emit.count(), emit.max()), (3, now - done_us), "n samples at one value");
        let (probes, latency) = c.accountant.finish().expect("one-part probes all complete");
        assert_eq!((probes, latency.count()), (3, 3));
        assert_eq!(latency.max(), done_us - 100);
    }

    /// Satellite bugfix regression: per-executor seeds are derived by
    /// hashing (base, group, id, role), so no two executor coordinates in
    /// (or well beyond) any configurable topology share an RNG stream.
    /// The old affine form `seed + group + id*97` collided coordinates
    /// like `(group+97, id)` / `(group, id+1)` and made nearby executors'
    /// streams correlated.
    #[test]
    fn executor_seeds_are_pairwise_distinct_across_the_topology_range() {
        for base in [0u64, 0xFA57_301E, u64::MAX] {
            let mut seen = HashSet::new();
            let mut count = 0usize;
            for group in 0..2u64 {
                for id in 0..256u64 {
                    for role in [SEED_ROLE_SELECTOR, SEED_ROLE_CHAOS] {
                        assert!(
                            seen.insert(executor_seed(base, group, id, role)),
                            "seed collision at base={base:#x} group={group} id={id} role={role}"
                        );
                        count += 1;
                    }
                }
            }
            assert_eq!(seen.len(), count);
        }
    }
}
