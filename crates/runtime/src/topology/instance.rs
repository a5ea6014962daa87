//! Join-instance executors: the data-plane message step, and recovery by
//! checkpoint + replay.
//!
//! Every message is processed by [`InstanceState::step`]. Every
//! [`super::SupervisionConfig::checkpoint_every`] messages the executor
//! takes a [`StateCheckpoint`] — it marks the tuple store's undo journal
//! and copies the small rest of the state — and it keeps a replay log of
//! everything processed since. A checkpoint therefore costs O(mutations
//! since the previous one), independent of how many tuples are stored,
//! and the process holds one copy of each store, not two. After a panic
//! (organic, or injected by a [`crate::fault::FaultPlan`] kill switch)
//! recovery rolls the live store back along its journal, overwrites the
//! rest from the checkpoint, replays the log with outbound effects
//! suppressed (they already escaped before the crash), then re-processes
//! the in-flight message live. Because the input channel's receiver
//! survives the restart, no queued message is lost, and because injected
//! crashes are fail-stop at a message boundary the rebuilt state is
//! exactly "everything before the crash message, nothing of it".
//!
//! A step works per message wherever the work is the same for every tuple
//! of the message: the clock is read as the message is taken and once the
//! work it queued has drained (the per-tuple functions take those stamps
//! as arguments), the `stage.*` histograms are resolved by name once per
//! message, the effects buffer is flushed once, and the reports of the
//! probes a step completes leave together, as one
//! [`CollectorMsg::Probes`] sent after the step's work loop. That
//! report buffer lives in the [`Outbox`], outside the checkpointed state;
//! it is filled only by live steps and emptied by recovery. An injected
//! crash fires before the step, so nothing of its message was reported;
//! an organic panic mid-step loses the unsent buffer, and the live
//! re-processing of that message reports each of its probes exactly once.
//! Sending each report as its probe completes would not give that: the
//! reports that escaped before such a panic would be sent again by the
//! re-processing and count twice in `probes_total` / `results_total`.

use std::collections::HashMap;
use std::sync::Arc;

use crossbeam::channel::{RecvTimeoutError, Sender};

use fastjoin_core::config::FastJoinConfig;
use fastjoin_core::instance::{InstanceCheckpoint, JoinInstance, Work};
use fastjoin_core::metrics::MetricsRegistry;
use fastjoin_core::protocol::{Effects, InstanceMsg, MigrationState};
use fastjoin_core::selection::{make_selector, KeySelector};
use fastjoin_core::telemetry::InstanceProbe;
use fastjoin_core::trace::{Actor, TraceEvent, TraceKind, TraceRing};
use fastjoin_core::tuple::{JoinedPair, Side, Tuple};
use lintmarks::lint;

use super::supervise::{Executor, Pulse};
use super::{executor_seed, CollectorMsg, RuntimeConfig, EXECUTOR_TICK, SEED_ROLE_SELECTOR};
use crate::fault::{ChaosReceiver, KillSwitch};
use crate::introspect::IntrospectionHub;
use crate::msg::{DataItem, DispatcherMsg, MonitorMsg, ProbeReport, RtMsg};

/// Hottest keys each instance publishes per introspection probe (the
/// width of one skew-heatmap row).
const HOT_KEYS_PER_PROBE: usize = 5;

/// A join-instance executor's identity, configuration and outbound
/// channels.
pub(super) struct InstanceIo {
    pub group: usize,
    pub id: usize,
    pub fj: FastJoinConfig,
    /// Bucket width of the executor's sampled time series (µs); one
    /// monitor period, so samples align with load reports.
    pub sample_period_us: u64,
    /// Senders to every instance of this group (migration peers).
    pub to_instances: Vec<Sender<RtMsg>>,
    /// Sender to this group's monitor (None for static systems).
    pub to_monitor: Option<Sender<MonitorMsg>>,
    pub disp_ctrl: Sender<DispatcherMsg>,
    pub collector: Sender<CollectorMsg>,
    pub results: Option<Sender<JoinedPair>>,
    /// Clock and heartbeat, refreshed while a bounded peer-inbox send
    /// waits on backpressure so the stall watchdog never mistakes a full
    /// channel for a hung executor (see [`Pulse::send`]).
    pub pulse: Pulse,
    /// Live introspection hub, present only when the plane is enabled;
    /// published to on report ticks, never on the per-tuple hot path.
    pub hub: Option<Arc<IntrospectionHub>>,
}

impl InstanceIo {
    fn side(&self) -> Side {
        if self.group == 0 {
            Side::R
        } else {
            Side::S
        }
    }

    fn actor(&self) -> Actor {
        Actor::instance(self.group as u8, self.id as u16)
    }
}

/// What a step hands to the outside world, collected while it runs. Lives
/// OUTSIDE the checkpointed [`InstanceState`]: nothing here is state to
/// restore, and recovery empties it — whatever a panicked step left behind
/// never escaped, and the step's message is re-processed from scratch.
#[derive(Default)]
struct Outbox {
    fx: Effects,
    /// Reports of the probes the current step completed. Filled only by
    /// live steps (a replayed message's reports escaped before the crash)
    /// and shipped as one message after the step's work loop.
    reports: Vec<ProbeReport>,
}

impl Outbox {
    fn clear(&mut self) {
        self.fx.clear();
        self.reports.clear();
    }
}

/// Everything a join-instance executor mutates while processing messages.
/// Deliberately not `Clone`: the executor checkpoints it between messages
/// with [`InstanceState::checkpoint`] and, on a crash, restores it in
/// place — the store is never copied.
struct InstanceState {
    inst: JoinInstance,
    selector: Box<dyn KeySelector + Send>,
    /// Fan-out of every probe received but not yet completed, keyed by
    /// seq. Entries for probes forwarded to a migration target are handed
    /// off with the tuples (see `RtMsg::ProbeHandoff`); at exit the map
    /// must be empty — leaks are counted and asserted on by the collector.
    probe_fanout: HashMap<u64, u32>,
    /// `MigrateCmd` receipt time by epoch, closed out by `RouteUpdated` —
    /// the route-flip latency of a migration round this instance sourced.
    flip_started: HashMap<u64, u64>,
    reg: MetricsRegistry,
    /// Times a bounded peer send parked on a full inbox (backpressure);
    /// folded into the registry as `sends_parked` at end-of-stream.
    /// Checkpointed with the rest of the state — a restore rolls it back
    /// to the value consistent with the replayed sends.
    sends_parked: u64,
    eos: bool,
}

/// An [`InstanceState`] as of its last checkpoint: the instance's own
/// checkpoint (whose store half is the live store's undo journal) plus
/// copies of the fields around it.
struct StateCheckpoint {
    inst: InstanceCheckpoint,
    selector: Box<dyn KeySelector + Send>,
    probe_fanout: HashMap<u64, u32>,
    flip_started: HashMap<u64, u64>,
    reg: MetricsRegistry,
    sends_parked: u64,
    eos: bool,
}

impl InstanceState {
    fn checkpoint(&mut self) -> StateCheckpoint {
        let InstanceState { inst, selector, probe_fanout, flip_started, reg, sends_parked, eos } =
            self;
        StateCheckpoint {
            inst: inst.checkpoint(),
            selector: selector.clone(),
            probe_fanout: probe_fanout.clone(),
            flip_started: flip_started.clone(),
            reg: reg.clone(),
            sends_parked: *sends_parked,
            eos: *eos,
        }
    }

    /// Returns to the state `cp` captured, whatever a panic left behind.
    /// `cp` must be the latest checkpoint taken of this state.
    fn restore(&mut self, cp: &StateCheckpoint) {
        let StateCheckpoint { inst, selector, probe_fanout, flip_started, reg, sends_parked, eos } =
            cp;
        self.inst.restore(inst);
        self.selector.clone_from(selector);
        self.probe_fanout.clone_from(probe_fanout);
        self.flip_started.clone_from(flip_started);
        self.reg.clone_from(reg);
        self.sends_parked = *sends_parked;
        self.eos = *eos;
    }

    fn new(io: &InstanceIo) -> Self {
        let fj = &io.fj;
        let mut inst = JoinInstance::new(io.id, io.side(), fj.window);
        // Pairs are only materialized when a consumer wants them.
        inst.set_emit_pairs(io.results.is_some());
        inst.set_migration_mode(fj.migration_mode);
        let selector = make_selector(&FastJoinConfig {
            seed: executor_seed(fj.seed, io.group as u64, io.id as u64, SEED_ROLE_SELECTOR),
            ..fj.clone()
        });
        InstanceState {
            inst,
            selector,
            probe_fanout: HashMap::new(),
            flip_started: HashMap::new(),
            reg: MetricsRegistry::new(),
            sends_parked: 0,
            eos: false,
        }
    }

    /// Journals the receipt of a migration-protocol message. The event's
    /// `aux`/`aux2` payloads are kind-specific (see `core::trace`); data
    /// tuples are journaled after processing instead (`StoreDone` /
    /// `ProbeDone`, sampled).
    fn trace_protocol_msg(&self, actor: Actor, at_us: u64, ring: &mut TraceRing, m: &InstanceMsg) {
        let Some(kind) = TraceKind::of_instance_msg(m) else { return };
        // Messages outside any migration round journal under the explicit
        // sentinel — epoch 0 would be indistinguishable from a (therefore
        // reserved) genuine round 0 in `fastjoin-cli trace --round`.
        let epoch = m.round_id().unwrap_or(TraceEvent::NO_ROUND);
        let (aux, aux2) = match m {
            InstanceMsg::Data(_) => (0, 0),
            InstanceMsg::MigrateCmd { target, .. } => (*target as u64, 0),
            InstanceMsg::MigStart { from, keys, .. } => (*from as u64, keys.len() as u64),
            InstanceMsg::MigStore { tuples, .. } => (tuples.len() as u64, 0),
            InstanceMsg::RouteUpdated { .. } => {
                let buffered = match self.inst.migration_state() {
                    MigrationState::Source { buffer, .. } => buffer.len() as u64,
                    MigrationState::Idle
                    | MigrationState::Target { .. }
                    | MigrationState::Aborting { .. } => 0,
                };
                (buffered, 0)
            }
            InstanceMsg::MigForward { tuples, .. } => (tuples.len() as u64, 0),
            InstanceMsg::MigEnd { from, .. } => (*from as u64, 0),
            InstanceMsg::MigAbort { .. } => (0, 0),
            InstanceMsg::MigReturn { stored, inflight, .. } => {
                (stored.len() as u64, inflight.len() as u64)
            }
        };
        ring.push(TraceEvent { at_us, actor, kind, seq: 0, epoch, aux, aux2 });
    }

    /// Hands one protocol message (a data tuple, or migration control) to
    /// the instance; the work loop in [`InstanceState::drain_work`] drains
    /// what it queues.
    fn absorb(&mut self, io: &InstanceIo, fx: &mut Effects, m: InstanceMsg) {
        self.inst
            .handle(m, self.selector.as_mut(), io.fj.theta_gap, fx)
            // lint:allow(a protocol violation in the threaded runtime is unrecoverable)
            .unwrap_or_else(|e| panic!("protocol violation: {e}"));
    }

    /// Absorbs one data message whole, in the shard's routing order (the
    /// instance tells store from probe by `tuple.side`). The whole message
    /// left the inbox at `received`, while queue-wait attribution stays per
    /// tuple (`ts` is the spout stamp), under one name lookup.
    #[lint(hot_path)]
    fn absorb_items(
        &mut self,
        io: &InstanceIo,
        out: &mut Outbox,
        items: &[DataItem],
        received: u64,
        live: bool,
    ) {
        let mut probes = 0;
        for item in items {
            if let DataItem::Probe(t, fanout) = item {
                self.probe_fanout.insert(t.seq, *fanout);
                probes += 1;
            }
            self.absorb(io, &mut out.fx, InstanceMsg::Data(*item.tuple()));
        }
        if live {
            // One allocation for the step's report vector, not a growth
            // series: these probes complete in the work loop that follows.
            out.reports.reserve(probes);
        }
        let queue_wait = self.reg.histogram_mut("stage.queue_wait_us");
        for item in items {
            queue_wait.record(received.saturating_sub(item.tuple().ts));
        }
    }

    /// Processes one message end to end (message, pending work, effects).
    /// With `live == false` the step replays a message whose outbound
    /// effects already escaped before a crash: every local mutation is
    /// re-applied, every channel send is suppressed — and nothing is
    /// journaled (the original live step already journaled these events).
    ///
    /// A tuple can only be observed where its message is, so the data
    /// plane reads the clock where the message changes hands and nowhere
    /// else: `received`, as the message is taken, and `finished`, once the
    /// work it queued has drained and its reports are about to leave.
    /// Every probe the step completes is done at `finished`.
    fn step(
        &mut self,
        io: &InstanceIo,
        out: &mut Outbox,
        msg: &RtMsg,
        live: bool,
        qlen: usize,
        ring: &mut TraceRing,
    ) {
        let now_us = || io.pulse.now_us();
        let received = now_us();
        let actor = io.actor();
        match msg {
            RtMsg::Inst(m) => {
                if let InstanceMsg::MigrateCmd { epoch, .. } = m {
                    self.flip_started.insert(*epoch, now_us());
                }
                if let InstanceMsg::RouteUpdated { epoch } = m {
                    if let Some(t0) = self.flip_started.remove(epoch) {
                        let pause = now_us().saturating_sub(t0);
                        // Migration pause attribution: how long this
                        // source ran in buffering mode before the flip.
                        self.reg.histogram_record("stage.mig_pause_us", pause);
                        if live {
                            let _ = io.collector.send(CollectorMsg::RouteFlip {
                                group: io.group,
                                epoch: *epoch,
                                us: pause,
                            });
                        }
                    }
                }
                if let InstanceMsg::MigAbort { epoch } = m {
                    // An aborted round's pause ends here; close it out so
                    // the attribution histogram covers aborts too.
                    if let Some(t0) = self.flip_started.remove(epoch) {
                        self.reg
                            .histogram_record("stage.mig_pause_us", now_us().saturating_sub(t0));
                    }
                }
                if live {
                    self.trace_protocol_msg(actor, now_us(), ring, m);
                }
                // Decision audit, per-key half: a MigrateCmd is about to
                // run key selection, so capture the loads the benefit
                // formula (Eq. 8) will see and journal one event per key
                // the selector actually picks.
                let mut plan_ctx = None;
                if live {
                    if let InstanceMsg::MigrateCmd { epoch, target_load, .. } = m {
                        // Stats must be captured pre-handle: handling the
                        // command ships the selected keys' tuples away.
                        plan_ctx =
                            Some((*epoch, self.inst.load(), *target_load, self.inst.key_stats()));
                    }
                }
                // The core instance consumes its message; the owned original
                // stays parked for the replay log. Only rare migration
                // messages carry a payload to copy.
                self.absorb(io, &mut out.fx, m.clone());
                if let Some((epoch, src_load, dst_load, stats)) = plan_ctx {
                    if let MigrationState::Source { keys, .. } = self.inst.migration_state() {
                        let at = now_us();
                        for stat in stats.iter().filter(|s| keys.contains(&s.key)) {
                            // MigrateCmds are rare (one per round): push
                            // unsampled so `trace --round` can always
                            // explain the chosen plan.
                            ring.push(TraceEvent {
                                at_us: at,
                                actor,
                                kind: TraceKind::MigPlanKey,
                                seq: stat.key,
                                epoch,
                                aux: (stat.benefit(src_load, dst_load) * 1000.0) as u64,
                                aux2: stat.stored + stat.queue,
                            });
                        }
                    }
                }
            }
            // The message is absorbed whole; the work loop below then
            // drains it with per-tuple sampling.
            RtMsg::Data(items) => self.absorb_items(io, out, items, received, live),
            RtMsg::ProbeHandoff(entries) => {
                // Fan-outs of probes a migration source is about to forward
                // to us; FIFO guarantees they precede the MigForward.
                self.reg.counter_add("probe_handoffs_in", entries.len() as u64);
                self.probe_fanout.extend(entries.iter().copied());
            }
            RtMsg::ReportRequest => self.report(io, live, qlen),
            RtMsg::Eos => self.eos = true,
        }
        let probes = self.drain_work(io, out, received, live, ring);
        self.flush(io, &mut out.fx, live);
        if probes == 0 {
            return;
        }
        let finished = now_us();
        // One value for every probe of the step: message taken → step
        // drained. Recorded by replays too (the registry is checkpointed).
        self.reg
            .histogram_mut("stage.probe_us")
            .record_n(finished.saturating_sub(received), probes);
        // One report message per instance message (live steps only: a
        // replayed message's reports escaped before the crash).
        if !out.reports.is_empty() {
            let reports = std::mem::take(&mut out.reports);
            let _ = io.collector.send(CollectorMsg::Probes { done_us: finished, reports });
        }
    }

    /// Processes everything currently pending before new input is taken and
    /// returns how many probes that completed. Completed probes are closed
    /// out per tuple ([`InstanceState::probe_done`]); sampled events carry
    /// `received`, their message's stamp. The only effect the loop itself
    /// produces is joined pairs, and only when a results consumer wants
    /// them materialised: those leave as their probe completes (paced
    /// latency and memory stay per probe); everything else waits for the
    /// step's one flush after the loop.
    #[lint(hot_path)]
    fn drain_work(
        &mut self,
        io: &InstanceIo,
        out: &mut Outbox,
        received: u64,
        live: bool,
        ring: &mut TraceRing,
    ) -> u64 {
        let actor = io.actor();
        let mut probes = 0;
        while let Some(work) = self.inst.process_next(&mut out.fx) {
            let (kind, tuple, matches) = match work {
                Work::Probe { tuple, matches, .. } => {
                    probes += 1;
                    let report = self.probe_done(&tuple, matches);
                    if live {
                        out.reports.push(report);
                    }
                    (TraceKind::ProbeDone, tuple, matches)
                }
                Work::Store { tuple } => (TraceKind::StoreDone, tuple, 0),
            };
            if live {
                ring.push_sampled(TraceEvent {
                    at_us: received,
                    actor,
                    kind,
                    seq: tuple.seq,
                    epoch: 0,
                    aux: matches,
                    aux2: 0,
                });
            }
            if !out.fx.joined.is_empty() {
                self.flush(io, &mut out.fx, live);
            }
        }
        probes
    }

    /// Closes the books on one completed probe part: its fan-out entry is
    /// consumed here, and what the collector needs travels in the report.
    #[lint(hot_path)]
    fn probe_done(&mut self, tuple: &Tuple, matches: u64) -> ProbeReport {
        let fanout = self
            .probe_fanout
            .remove(&tuple.seq)
            // lint:allow(accounting invariant: the fan-out arrived with the probe or its hand-off; absence is the bug this layer fixes)
            .unwrap_or_else(|| panic!("probe {} has no fan-out entry", tuple.seq));
        ProbeReport { seq: tuple.seq, fanout, matches, ts: tuple.ts }
    }

    /// Serves a monitor `ReportRequest`: samples the local series and,
    /// when live, ships the period's load to the monitor and the hub.
    fn report(&mut self, io: &InstanceIo, live: bool, qlen: usize) {
        self.inst.collect_expired();
        let load = self.inst.take_load_report();
        let now = io.pulse.now_us();
        self.reg.series_record("queue_depth", io.sample_period_us, now, qlen as f64);
        let buffered = match self.inst.migration_state() {
            MigrationState::Idle => 0,
            MigrationState::Source { buffer, .. } => buffer.len(),
            MigrationState::Target { held, .. } => held.len(),
            MigrationState::Aborting { buffer, .. } => buffer.len(),
        };
        self.reg.gauge_set("mig_buffered_tuples", buffered as f64);
        self.reg.series_record("mig_buffered", io.sample_period_us, now, buffered as f64);
        if !live {
            return;
        }
        if let Some(mon) = &io.to_monitor {
            let _ = mon.send(MonitorMsg::Report { id: io.id, load });
        }
        if let Some(hub) = io.hub.as_deref() {
            // The skew-heatmap row: current effective load, inbox depth,
            // and this instance's hottest keys.
            hub.publish_instance(InstanceProbe {
                group: io.group as u8,
                id: io.id as u16,
                load: self.inst.load().effective_load() as u64,
                queue_depth: qlen as u64,
                hot_keys: self.inst.top_keys(HOT_KEYS_PER_PROBE),
                migrating: !self.inst.migration_state().is_idle(),
            });
            let side = if io.group == 0 { 'r' } else { 's' };
            let c = self.inst.counters();
            hub.set_counter(&format!("inst.{side}{}.stored", io.id), c.stored);
            hub.set_counter(&format!("inst.{side}{}.probed", io.id), c.probed);
            hub.set_counter(&format!("inst.{side}{}.joined", io.id), c.joined);
        }
    }

    /// Drains the effect buffer: local bookkeeping always happens; channel
    /// sends only when `live` (a replayed message's sends already escaped
    /// before the crash being recovered from).
    fn flush(&mut self, io: &InstanceIo, fx: &mut Effects, live: bool) {
        match &io.results {
            Some(tx) if live => {
                for pair in fx.joined.drain(..) {
                    let _ = tx.send(pair); // receiver may have hung up — best effort
                }
            }
            _ => fx.joined.clear(), // not materialized, or already emitted pre-crash
        }
        for (to, msg) in fx.sends.drain(..) {
            // lint:allow(protocol contract: peer ids are valid instance indices)
            let peer = &io.to_instances[to];
            if let InstanceMsg::MigForward { tuples, .. } = &msg {
                // Probe-side tuples in the forwarded buffer take their
                // fan-out entries with them; sending the hand-off on the
                // same channel first means the target owns the entries
                // before the tuples arrive (per-channel FIFO). Store-side
                // tuples have no entry and are skipped by the lookup.
                let entries: Vec<(u64, u32)> = tuples
                    .iter()
                    .filter_map(|t| self.probe_fanout.remove(&t.seq).map(|f| (t.seq, f)))
                    .collect();
                if !entries.is_empty() {
                    self.reg.counter_add("probe_handoffs_out", entries.len() as u64);
                    if live {
                        let handoff = RtMsg::ProbeHandoff(entries);
                        let _ = io.pulse.send(peer, handoff, &mut self.sends_parked);
                    }
                }
            }
            if live {
                let _ = io.pulse.send(peer, RtMsg::Inst(msg), &mut self.sends_parked);
            }
        }
        for req in fx.route_requests.drain(..) {
            if live {
                let _ = io.disp_ctrl.send(DispatcherMsg::Route { group: io.group, req });
            }
        }
        for done in fx.migration_done.drain(..) {
            if live {
                if let Some(mon) = &io.to_monitor {
                    let _ = mon.send(MonitorMsg::Done(done));
                }
            }
        }
    }
}

/// One join-instance executor: receive → (maybe inject a crash) → step →
/// checkpoint. Everything here survives a panic of [`Executor::run`];
/// `state` may be torn by it and is restored in place from `checkpoint`,
/// then brought forward by replaying `log`.
pub(super) struct InstanceExecutor {
    io: InstanceIo,
    rx: ChaosReceiver<RtMsg>,
    switch: KillSwitch,
    checkpoint_every: u64,
    state: InstanceState,
    /// The latest checkpoint of `state`; its store half lives in
    /// `state`'s own store as the undo journal.
    checkpoint: StateCheckpoint,
    /// Messages processed since `checkpoint` (whole batches, replayed
    /// identically).
    log: Vec<RtMsg>,
    /// The message being stepped — the one owned copy, parked here before
    /// the step (which only borrows it) so a crash can re-process it: it
    /// dies with the crash before any of its effects escape. Moved into
    /// `log` once the step completes.
    inflight: Option<RtMsg>,
    /// The ring lives OUTSIDE the checkpointed state: cloning a multi-KiB
    /// event buffer on every checkpoint would tax the data plane, and the
    /// journal should survive a crash (the crash is the interesting part).
    /// Consequence, documented in ARCHITECTURE.md: events journaled by a
    /// step that later panics are kept, so a crash-adjacent event can
    /// appear even though its state mutation was rolled back — the paired
    /// `FaultCrash` event marks exactly where to distrust.
    ring: TraceRing,
    out: Outbox,
    /// Inbox-depth high watermark: survives checkpoint restores (it is a
    /// property of the channel, not of the replayable state).
    q_hwm: u64,
}

impl InstanceExecutor {
    pub fn new(io: InstanceIo, rx: ChaosReceiver<RtMsg>, cfg: &RuntimeConfig) -> Self {
        let mut state = InstanceState::new(&io);
        InstanceExecutor {
            ring: TraceRing::new(io.actor(), &cfg.trace),
            switch: KillSwitch::new(cfg.faults.crash_for(io.group, io.id)),
            io,
            rx,
            checkpoint_every: cfg.supervision.checkpoint_every.max(1),
            checkpoint: state.checkpoint(),
            state,
            log: Vec::new(),
            inflight: None,
            out: Outbox::default(),
            q_hwm: 0,
        }
    }

    fn crash_event(&mut self, kind: TraceKind, restarts: u32) {
        let at = self.io.pulse.now_us();
        self.ring.push(TraceEvent::control(at, self.io.actor(), kind, 0, u64::from(restarts)));
    }
}

impl Executor for InstanceExecutor {
    fn run(&mut self) {
        // Done once end-of-stream arrived and no migration is in flight
        // (checked first: a recovery may have just re-processed `Eos`).
        while !(self.state.eos && self.state.inst.migration_state().is_idle()) {
            if !self.io.pulse.beat() {
                return; // emergency shutdown: the run already failed
            }
            let msg = match self.rx.recv_timeout(EXECUTOR_TICK) {
                Ok(m) => m,
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => return,
            };
            let qlen = self.rx.queue_len();
            self.q_hwm = self.q_hwm.max(qlen as u64);
            let inject = self.switch.should_crash(&msg);
            let msg = self.inflight.insert(msg);
            if inject {
                // lint:allow(the injected fail-stop crash IS the fault being tested; supervise catches it and recover() replays)
                panic!(
                    "fault injection: scheduled crash of join-{}-{}",
                    self.io.side(),
                    self.io.id
                );
            }
            self.state.step(&self.io, &mut self.out, msg, true, qlen, &mut self.ring);
            self.log.extend(self.inflight.take());
            if self.log.len() as u64 >= self.checkpoint_every {
                self.checkpoint = self.state.checkpoint();
                self.log.clear();
            }
        }
    }

    /// Instance recovery: empty the outbox (nothing in it escaped), restore
    /// the checkpoint in place (the store rolls back, the rest is
    /// overwritten), replay the log with sends and probe reports
    /// suppressed, re-process the in-flight message live. A replay can
    /// only re-panic on a genuine bug (deterministic protocol violation),
    /// which `supervise` treats as fatal.
    fn recover(&mut self, restarts: u32) {
        self.crash_event(TraceKind::FaultCrash, restarts);
        self.out.clear();
        self.state.restore(&self.checkpoint);
        for m in &self.log {
            self.state.step(&self.io, &mut self.out, m, false, 0, &mut self.ring);
        }
        if let Some(m) = self.inflight.take() {
            self.state.step(&self.io, &mut self.out, &m, true, 0, &mut self.ring);
            self.log.push(m);
        }
        self.state.reg.counter_add("executor_restarts", 1);
        self.crash_event(TraceKind::FaultRestart, restarts);
    }

    fn finish(mut self, collector: &Sender<CollectorMsg>) {
        let reg = &mut self.state.reg;
        // All probes this instance received must have completed here or
        // been handed off; the collector asserts the sum stays zero.
        reg.counter_add("probe_fanout_leaked", self.state.probe_fanout.len() as u64);
        reg.counter_add("trace.dropped", self.ring.dropped());
        reg.counter_add("sends_parked", self.state.sends_parked);
        reg.gauge_set("queue.depth", self.q_hwm as f64);
        let (delays, drops, dups, reorders) = self.rx.perturbations();
        reg.counter_add("chaos.delays", delays);
        reg.counter_add("chaos.drops", drops);
        reg.counter_add("chaos.dups", dups);
        reg.counter_add("chaos.reorders", reorders);
        let _ = collector.send(CollectorMsg::InstanceDone {
            group: self.io.group,
            id: self.io.id,
            counters: self.state.inst.counters(),
            registry: std::mem::take(reg),
            journal: Box::new(self.ring.into_journal()),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::ChaosPolicy;
    use crate::topology::supervise::Clock;
    use crossbeam::channel::{unbounded, Receiver};
    use std::sync::atomic::{AtomicBool, AtomicU64};
    use std::time::Instant;

    /// One S-group instance wired by hand, with the collector's end of
    /// its report channel.
    fn executor() -> (InstanceExecutor, Receiver<CollectorMsg>) {
        let cfg = RuntimeConfig::default();
        let (_inbox_tx, inbox_rx) = unbounded::<RtMsg>();
        let (disp_ctrl, _) = unbounded();
        let (collector, collector_rx) = unbounded();
        let io = InstanceIo {
            group: 1,
            id: 0,
            fj: cfg.fastjoin.clone(),
            sample_period_us: 1_000,
            to_instances: Vec::new(),
            to_monitor: None,
            disp_ctrl,
            collector,
            results: None,
            pulse: Pulse {
                clock: Clock(Instant::now()),
                hb: Arc::new(AtomicU64::new(0)),
                kill: Arc::new(AtomicBool::new(false)),
            },
            hub: None,
        };
        let rx =
            ChaosReceiver::new(inbox_rx, ChaosPolicy::default(), cfg.faults.rng_for(0), |_| false);
        (InstanceExecutor::new(io, rx, &cfg), collector_rx)
    }

    fn reported_seqs(rx: &Receiver<CollectorMsg>) -> Vec<Vec<u64>> {
        std::iter::from_fn(|| rx.try_recv().ok())
            .map(|m| {
                let CollectorMsg::Probes { reports, .. } = m else {
                    panic!("only probe reports expected")
                };
                reports.iter().map(|r| r.seq).collect()
            })
            .collect()
    }

    fn item(side: Side, seq: u64, ts: u64) -> DataItem {
        let mut t = Tuple::new(side, 7, ts, 0);
        t.seq = seq;
        match side {
            Side::S => DataItem::Store(t), // `executor()` is an S-group instance
            Side::R => DataItem::Probe(t, 1),
        }
    }

    fn samples(exec: &mut InstanceExecutor, stage: &str) -> u64 {
        exec.state.reg.histogram_mut(stage).count()
    }

    /// An organic panic mid-step leaves the probes that step had already
    /// completed in the outbox, unsent. Recovery must drop them: the live
    /// re-processing of the in-flight message reports every one of its
    /// probes itself, and the replayed log reports nothing.
    #[test]
    fn recovery_drops_a_torn_steps_reports_and_replays_silently() {
        let (mut exec, collector_rx) = executor();
        let probe = |seq| item(Side::R, seq, 0);
        // One message processed before the crash: reported then, logged.
        let logged = RtMsg::Data(vec![probe(1), probe(2)]);
        exec.state.step(&exec.io, &mut exec.out, &logged, true, 0, &mut exec.ring);
        exec.log.push(logged);
        assert_eq!(reported_seqs(&collector_rx), vec![vec![1, 2]]);
        // The next one panicked after completing its first probe.
        exec.inflight = Some(RtMsg::Data(vec![probe(3), probe(4)]));
        exec.out.reports.push(ProbeReport { seq: 3, fanout: 1, matches: 0, ts: 0 });
        exec.recover(1);
        assert_eq!(reported_seqs(&collector_rx), vec![vec![3, 4]], "one report per probe");
        assert_eq!(samples(&mut exec, "stage.probe_us"), 4, "one sample per probe part");
        assert!(exec.state.probe_fanout.is_empty());
    }

    /// The step is the unit of observation: one message in, one report
    /// message out, stamped once with the time every probe of the step is
    /// done at, while the stage histograms still count per tuple.
    #[test]
    fn a_step_stamps_its_message_once_and_samples_its_stages_per_tuple() {
        let (mut exec, collector_rx) = executor();
        let now = exec.io.pulse.now_us();
        let msg =
            RtMsg::Data(vec![item(Side::R, 1, now), item(Side::S, 2, now), item(Side::R, 3, now)]);
        exec.state.step(&exec.io, &mut exec.out, &msg, true, 0, &mut exec.ring);
        exec.log.push(msg);
        let sent: Vec<CollectorMsg> = std::iter::from_fn(|| collector_rx.try_recv().ok()).collect();
        let [CollectorMsg::Probes { done_us, reports }] = sent.as_slice() else {
            panic!("one report message per instance message, got {}", sent.len())
        };
        let reported: Vec<(u64, u64, u64)> =
            reports.iter().map(|r| (r.seq, r.matches, r.ts)).collect();
        // The second probe sees the tuple stored between the two.
        assert_eq!(reported, vec![(1, 0, now), (3, 1, now)]);
        assert!(*done_us >= now, "the step finished after its tuples were stamped");
        assert_eq!(samples(&mut exec, "stage.probe_us"), 2);
        assert_eq!(samples(&mut exec, "stage.queue_wait_us"), 3);
        assert!(exec.out.reports.is_empty() && exec.out.fx.is_empty());

        // A recovery rolls the registry back with the rest of the state and
        // replays the log: the same samples once, not twice, and no report.
        exec.recover(1);
        assert_eq!(samples(&mut exec, "stage.probe_us"), 2);
        assert_eq!(samples(&mut exec, "stage.queue_wait_us"), 3);
        assert!(collector_rx.try_recv().is_err(), "a replayed step reports nothing");
    }
}
