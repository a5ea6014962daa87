//! The dispatcher stage's shell: N data-plane [`Shard`] threads routing
//! disjoint key ranges under published snapshots, and one control
//! [`Sequencer`] thread that serializes every route flip.
//! `dispatcher_shards = 1` is simply N = 1.
//!
//! What the stage *decides* — batching, flush-before-install, the epoch
//! fence, the publication barrier — lives in
//! `fastjoin_core::{shard, sequencer}` as pure transitions that the model
//! checker drives too (`cargo xtask check-protocol`). Each
//! hands back an ordered sequence of outputs; this file performs them **in
//! that order** (the order is the protocol) and keeps only what is
//! imperative: the receive loops and their priorities, heartbeats and
//! parked sends, fault switches and the parked control message, the
//! `stage.dispatch_us` attribution, counters, the trace journal and the
//! end-of-run report.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;

use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};

use fastjoin_baselines::{build_partitioners, SystemKind};
use fastjoin_core::config::FastJoinConfig;
use fastjoin_core::dispatcher::Dispatcher;
use fastjoin_core::metrics::MetricsRegistry;
use fastjoin_core::routing::RouteSnapshot;
use fastjoin_core::sequencer::{self, Did, SeqEvent, SeqOut};
use fastjoin_core::shard::{self, InstallVerdict, ShardOut};
use fastjoin_core::trace::{Actor, TraceEvent, TraceKind, TraceRing};

use super::supervise::{Executor, Pulse};
use super::{CollectorMsg, RuntimeConfig, CTRL_TICK, DISPATCH_TICK, EXECUTOR_TICK};
use crate::fault::ControlKillSwitch;
use crate::introspect::Part;
use crate::msg::{DispatcherMsg, RtMsg, ShardCtrl, ShardNote, SpoutMsg};

/// Senders to every instance inbox: `[R group, S group]`.
pub(super) type InstanceTxs = [Vec<Sender<RtMsg>>; 2];

/// A control-plane trace event of the dispatcher actor; `aux`/`aux2` are
/// kind-specific (see `core::trace`).
fn control_event(pulse: &Pulse, kind: TraceKind, epoch: u64, aux: u64, aux2: u64) -> TraceEvent {
    let mut ev = TraceEvent::control(pulse.now_us(), Actor::dispatcher(), kind, epoch, aux);
    ev.aux2 = aux2;
    ev
}

/// A dispatcher at the system's initial routes.
fn new_dispatcher(system: SystemKind, fj: &FastJoinConfig) -> Dispatcher {
    let (r_part, s_part, _) = build_partitioners(system, fj);
    Dispatcher::new(r_part, s_part)
}

// ---------------------------------------------------------------------
// Shard shell
// ---------------------------------------------------------------------

/// One dispatcher shard's thread. Publications are served with priority
/// between data messages, and after end-of-stream the shard keeps
/// acknowledging them (trivially — nothing is pending) until the
/// sequencer exits and drops the control channel.
///
/// The struct is the part that survives a panic of [`Executor::run`]:
/// the [`shard::Shard`] (pending batches, epoch fence, `resync`,
/// `saw_eos`, counters), outputs not yet performed, and telemetry.
pub(super) struct Shard {
    id: usize,
    core: shard::Shard,
    /// What a restart rebuilds the routing replica from.
    system: SystemKind,
    fj: FastJoinConfig,
    /// Outputs of the last transition, performed front to back.
    out: VecDeque<ShardOut>,
    reg: MetricsRegistry,
    ring: TraceRing,
    links: ShardLinks,
    pulse: Pulse,
    /// Injects `CrashPhase::ShardSnapshotInstall`: a panic at a
    /// publication pop, *before* the install — the hardest point for the
    /// fence, because the sequencer may already be waiting in that
    /// publication's barrier.
    switch: ControlKillSwitch,
    /// Times a bounded send parked on a full inbox (backpressure) since
    /// [`Shard::publish`] last folded them into `sends_parked`.
    sends_parked: u64,
    /// High-watermark of this shard's spout → shard data channel: the
    /// backpressure depth an operator sees live and in the report.
    q_hwm: u64,
    /// Turns of the data loop, for the publishing cadence.
    turns: u64,
    /// A message was handled since the last publication: an idle shard
    /// has nothing new to publish.
    stale: bool,
}

/// A shard's channel ends.
pub(super) struct ShardLinks {
    pub inst_txs: InstanceTxs,
    /// Cross-shard dispatch-seq counter, so the collector's exactly-once
    /// probe accounting keys stay unique across shards.
    pub seq: Arc<AtomicU64>,
    pub data_rx: Receiver<SpoutMsg>,
    pub ctrl_rx: Receiver<ShardCtrl>,
    pub note_tx: Sender<ShardNote>,
}

impl Shard {
    pub fn new(id: usize, cfg: &RuntimeConfig, links: ShardLinks, pulse: Pulse) -> Self {
        Shard {
            id,
            core: shard::Shard::new(id, new_dispatcher(cfg.system, &cfg.fastjoin), cfg.batch_size),
            system: cfg.system,
            fj: cfg.fastjoin.clone(),
            out: VecDeque::new(),
            reg: MetricsRegistry::new(),
            ring: TraceRing::new(Actor::dispatcher(), &cfg.trace),
            links,
            pulse,
            switch: ControlKillSwitch::new(cfg.faults.shard_crash(id)),
            sends_parked: 0,
            q_hwm: 0,
            turns: 0,
            stale: false,
        }
    }

    /// Brings the registry's counters up to what the shard has counted
    /// elsewhere, and publishes it.
    fn publish(&mut self) {
        self.reg.counter_add("sends_parked", std::mem::take(&mut self.sends_parked));
        let (tuples_ingested, probe_copies) = self.core.counts();
        for (name, total) in [("tuples_ingested", tuples_ingested), ("probe_copies", probe_copies)]
        {
            // The stage owns the lifetime total; the counter catches up.
            self.reg.counter_add(name, total.saturating_sub(self.reg.counter(name)));
        }
        self.pulse.publish(Part::Shard(self.id), &self.reg, Vec::new);
        self.stale = false;
    }

    /// Performs the pending outputs in order. An output leaves the queue
    /// before it is sent, so a panic here loses at most the one in hand.
    fn perform(&mut self) {
        while let Some(o) = self.out.pop_front() {
            match o {
                ShardOut::Flush { group, dest, items } => {
                    let flushed_at = self.pulse.now_us();
                    // Per-tuple dispatch attribution: spout stamp → flush
                    // (covers spout-batch residency, queue wait, and
                    // batching delay), under one name lookup per flush.
                    let dispatch_us = self.reg.histogram_mut("stage.dispatch_us");
                    for t in &items {
                        dispatch_us.record(flushed_at.saturating_sub(t.ts));
                    }
                    // One per flush: (tuples_ingested + probe_copies) /
                    // batches_flushed is the batch fill.
                    self.reg.counter_add("batches_flushed", 1);
                    let tx = &self.links.inst_txs[group][dest]; // lint:allow(the shard's queues mirror the instance channels by construction)
                    let _ = self.pulse.send(tx, RtMsg::Data(items), &mut self.sends_parked);
                }
                ShardOut::Note(note) => {
                    let _ = self.links.note_tx.send(note);
                }
            }
        }
    }

    /// Applies one spout message.
    fn on_data(&mut self, msg: SpoutMsg) {
        self.stale = true;
        match msg {
            SpoutMsg::Data(tuples) => {
                // The message changed hands now: one clock read stamps all
                // of its tuples (queue age, the sampled `Ingest` events),
                // and one `fetch_add` reserves its block of dispatch seqs.
                let now = self.pulse.now_us();
                let first_seq = self.links.seq.fetch_add(tuples.len() as u64, Ordering::Relaxed);
                let routed = self.core.data(&tuples, first_seq, now, &mut self.ring, &mut self.out);
                debug_assert!(routed, "`run` takes no data while the shard resyncs");
            }
            SpoutMsg::Eos => {
                self.core.eos(&mut self.out);
                self.ring.push(control_event(&self.pulse, TraceKind::Eos, 0, 0, 0));
            }
        }
        self.perform();
    }

    /// Applies one publication (see `shard::Shard::publish`).
    fn install_snapshot(&mut self, snap: RouteSnapshot) {
        if self.switch.should_crash() {
            // lint:allow(the injected fail-stop crash IS the fault under test; supervise catches and restarts)
            panic!(
                "fault injection: scheduled crash of dispatch-shard-{} before snapshot install",
                self.id
            );
        }
        self.stale = true;
        let counter = match self.core.publish(snap, &mut self.out) {
            InstallVerdict::Installed => "snapshot_installs",
            InstallVerdict::Reinstalled => "snapshot_reinstalls",
            InstallVerdict::Superseded => "snapshots_superseded",
        };
        self.reg.counter_add(counter, 1);
        self.perform();
    }
}

impl Executor for Shard {
    fn run(&mut self) {
        while !self.core.saw_eos() {
            if !self.pulse.beat() {
                return;
            }
            if self.pulse.publish_due(&mut self.turns) && self.stale {
                self.publish();
            }
            let depth = self.links.data_rx.len() as u64;
            if depth > self.q_hwm {
                self.q_hwm = depth;
                self.reg.gauge_set(&format!("queue.shard{}.depth", self.id), depth as f64);
            }
            // Publications have priority and are drained to empty between
            // data messages, so the k-th queued flip never trails k data
            // messages. Whichever order messages are served in, an
            // instance's buffer catches any selected-key data routed
            // before the table update (see core::instance).
            while let Ok(ShardCtrl::Publish(snap)) = self.links.ctrl_rx.try_recv() {
                self.install_snapshot(snap);
            }
            if self.core.resyncing() {
                // Fresh incarnation, stale table: no data until a
                // re-published snapshot covers the fence. The sequencer
                // answers our `Restarted` note promptly, so this window
                // is a few publication round-trips at most.
                thread::sleep(CTRL_TICK);
                continue;
            }
            match self.links.data_rx.recv_timeout(CTRL_TICK) {
                Ok(m) => self.on_data(m),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => return,
            }
            let max_age_us = DISPATCH_TICK.as_micros() as u64;
            self.core.tick(self.pulse.now_us(), max_age_us, &mut self.out);
            self.perform();
        }
        // Everything this shard routed is in the instances' inboxes and
        // the sequencer has been told (it broadcasts RtMsg::Eos once every
        // shard has reported); keep serving publications until the
        // sequencer drops our channel.
        self.publish();
        while self.pulse.beat() {
            match self.links.ctrl_rx.recv_timeout(DISPATCH_TICK) {
                Ok(ShardCtrl::Publish(snap)) => self.install_snapshot(snap),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => return,
            }
        }
    }

    /// Shard recovery: finish what the dead incarnation was sending, then
    /// salvage-flush, start over from initial routes behind the fence and
    /// announce the restart (`shard::Shard::restart`).
    fn recover(&mut self, _restarts: u32) {
        self.perform();
        self.core.restart(new_dispatcher(self.system, &self.fj), &mut self.out);
        self.reg.counter_add("shard_restarts", 1);
        let (shard, fence) = (self.id as u64, self.core.fence());
        self.ring.push(control_event(&self.pulse, TraceKind::ShardRestart, 0, shard, fence));
        self.perform();
    }

    fn finish(mut self, collector: &Sender<CollectorMsg>) {
        self.publish();
        let _ = collector.send(CollectorMsg::DispatcherDone {
            part: Part::Shard(self.id),
            registry: Box::new(self.reg),
            journal: Box::new(self.ring.into_journal()),
        });
    }
}

// ---------------------------------------------------------------------
// Sequencer shell
// ---------------------------------------------------------------------

/// The control sequencer's thread. It never touches data.
///
/// The struct — and with it the [`sequencer::Sequencer`] (authoritative
/// table, publication epoch, an open barrier, `eos_broadcast`) — survives
/// a panic of [`Executor::run`]: a sequencer crash loses the thread, never
/// the table.
pub(super) struct Sequencer {
    core: sequencer::Sequencer,
    /// Outputs of the last transition, performed front to back.
    out: VecDeque<SeqOut>,
    reg: MetricsRegistry,
    ring: TraceRing,
    links: SequencerLinks,
    pulse: Pulse,
    /// Injects `CrashPhase::SequencerBarrier`: the crash fires at the
    /// message boundary, *after* parking the route in `inflight`, so the
    /// restarted loop replays it and the flip is delayed, not lost. (An
    /// organic panic mid-message deliberately loses its message instead:
    /// its outbound effects may already have escaped, and replaying could
    /// publish a flip twice.)
    switch: ControlKillSwitch,
    inflight: Option<DispatcherMsg>,
    /// Parked sends since [`Sequencer::publish`] last folded them into
    /// `sends_parked`.
    sends_parked: u64,
    /// A message was handled since the last publication. Control
    /// messages are a few per migration round, so each turn that handled
    /// one publishes.
    stale: bool,
}

/// The sequencer's channel ends.
pub(super) struct SequencerLinks {
    pub inst_txs: InstanceTxs,
    pub ctrl_rx: Receiver<DispatcherMsg>,
    /// Per-shard publish channels.
    pub shard_txs: Vec<Sender<ShardCtrl>>,
    /// The shared channel acks, EOS reports and restart notices come
    /// back on.
    pub note_rx: Receiver<ShardNote>,
}

impl Sequencer {
    pub fn new(cfg: &RuntimeConfig, links: SequencerLinks, pulse: Pulse) -> Self {
        let table = new_dispatcher(cfg.system, &cfg.fastjoin);
        Sequencer {
            core: sequencer::Sequencer::new(table, links.shard_txs.len()),
            out: VecDeque::new(),
            reg: MetricsRegistry::new(),
            ring: TraceRing::new(Actor::dispatcher(), &cfg.trace),
            links,
            pulse,
            switch: ControlKillSwitch::new(cfg.faults.sequencer_crash()),
            inflight: None,
            sends_parked: 0,
            stale: false,
        }
    }

    fn publish(&mut self) {
        self.reg.counter_add("sends_parked", std::mem::take(&mut self.sends_parked));
        self.pulse.publish(Part::Sequencer, &self.reg, Vec::new);
        self.stale = false;
    }

    /// Counts and journals one thing the sequencer did.
    fn record(&mut self, e: SeqEvent) {
        let (counter, kind) = match e.did {
            Did::Applied => ("route_updates", TraceKind::RouteStaged),
            Did::Republished => ("snapshot_republishes", TraceKind::SnapshotRepublish),
        };
        if e.did == Did::Applied {
            // An applied flip is published, once, at once.
            self.reg.counter_add("route_publishes", 1);
        }
        self.reg.counter_add(counter, 1);
        self.ring.push(control_event(&self.pulse, kind, e.epoch, e.aux, e.aux2));
    }

    /// Performs the pending outputs in order. It follows every message
    /// handled, so it is also where the registry goes stale.
    fn perform(&mut self) {
        self.stale = true;
        while let Some(o) = self.out.pop_front() {
            match o {
                SeqOut::Publish { shard, snapshot } => {
                    // lint:allow(the sequencer was built for exactly these shards)
                    if self.links.shard_txs[shard].send(ShardCtrl::Publish(snapshot)).is_err() {
                        self.core.shard_gone(shard, &mut self.out);
                    }
                }
                // The inbox also carries the shards' data, so this send may
                // park on backpressure.
                SeqOut::ToInstance { group, dest, msg } => {
                    // lint:allow(group is 0 or 1 and dest is a valid instance id: both come from our own executors)
                    let tx = &self.links.inst_txs[group][dest];
                    let _ = self.pulse.send(tx, RtMsg::Inst(msg), &mut self.sends_parked);
                }
                SeqOut::BroadcastEos => {
                    self.ring.push(control_event(&self.pulse, TraceKind::Eos, 0, 0, 0));
                    for tx in self.links.inst_txs.iter().flatten() {
                        let _ = self.pulse.send(tx, RtMsg::Eos, &mut self.sends_parked);
                    }
                }
                SeqOut::Event(event) => self.record(event),
            }
        }
    }
}

impl Executor for Sequencer {
    fn run(&mut self) {
        while self.pulse.beat() {
            if self.stale {
                self.publish();
            }
            if !self.core.wants_ctrl() {
                // A publication barrier is open: acks only, until the
                // last one releases the flip's `RouteUpdated`.
                match self.links.note_rx.recv_timeout(EXECUTOR_TICK) {
                    Ok(note) => {
                        self.core.note(note, &mut self.out);
                        self.perform();
                    }
                    Err(RecvTimeoutError::Timeout) => {}
                    Err(RecvTimeoutError::Disconnected) => return,
                }
                continue;
            }
            // A message parked at a crash boundary replays first;
            // otherwise a control send wakes this wait directly (no data
            // channel in between), so flips are served at channel latency
            // and the timeout only bounds how late the shard notes below
            // are noticed. Control racing the shutdown handshake keeps
            // being served after the EOS broadcast: breaking out there
            // once silently dropped a late Route and its source never saw
            // `RouteUpdated`.
            let next = match self.inflight.take() {
                Some(m) => Some(m),
                None => match self.links.ctrl_rx.recv_timeout(DISPATCH_TICK) {
                    Ok(m) => Some(m),
                    Err(RecvTimeoutError::Timeout) => None,
                    Err(RecvTimeoutError::Disconnected) => return,
                },
            };
            if let Some(m) = next {
                if self.switch.should_crash() {
                    self.inflight = Some(m);
                    // lint:allow(the injected fail-stop crash IS the fault under test; supervise catches, restarts, and the parked message replays)
                    panic!(
                        "fault injection: scheduled crash of dispatch-seq before a route publication"
                    );
                }
                self.core.ctrl(m, &mut self.out);
                self.perform();
            }
            // EOS reports, restart notices and stale acks queued meanwhile.
            while let Ok(note) = self.links.note_rx.try_recv() {
                self.core.note(note, &mut self.out);
                self.perform();
            }
        }
    }

    /// Sequencer recovery: re-publishing the current snapshot to every
    /// shard heals any divergence an organic panic left; an open barrier
    /// is state and stays open. Then the loop resumes, replaying a
    /// message parked at an injected crash boundary first.
    fn recover(&mut self, _restarts: u32) {
        self.reg.counter_add("sequencer_restarts", 1);
        self.perform();
        self.core.restart(&mut self.out);
        self.perform();
    }

    fn finish(mut self, collector: &Sender<CollectorMsg>) {
        self.publish();
        let _ = collector.send(CollectorMsg::DispatcherDone {
            part: Part::Sequencer,
            registry: Box::new(self.reg),
            journal: Box::new(self.ring.into_journal()),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::supervise::Clock;
    use crossbeam::channel::{bounded, unbounded};
    use fastjoin_core::protocol::{InstanceMsg, RouteRequest};
    use fastjoin_core::tuple::{Side, Tuple};
    use std::sync::atomic::AtomicBool;
    use std::time::{Duration, Instant};

    /// A dispatcher stage wired by hand — `shards` shard threads and one
    /// sequencer — so tests control every input and observe every
    /// instance inbox directly.
    struct Harness {
        data_txs: Vec<Sender<SpoutMsg>>,
        ctrl_tx: Sender<DispatcherMsg>,
        /// Second handles on the shards' publication channels, so a test
        /// can queue publications at a shard directly.
        publish_txs: Vec<Sender<ShardCtrl>>,
        rxs: [Vec<Receiver<RtMsg>>; 2],
        /// Extra senders to the instance inboxes (to pre-fill them).
        extra_txs: InstanceTxs,
        collector_rx: Receiver<CollectorMsg>,
        handles: Vec<thread::JoinHandle<()>>,
    }

    fn spawn_sharded(shards: usize, n: usize, cap: usize, batch_size: usize) -> Harness {
        let cfg = RuntimeConfig {
            fastjoin: FastJoinConfig { instances_per_group: n, ..FastJoinConfig::default() },
            batch_size,
            dispatcher_shards: shards,
            ..RuntimeConfig::default()
        };
        let (ctrl_tx, ctrl_rx) = unbounded::<DispatcherMsg>();
        let mut txs: InstanceTxs = [Vec::new(), Vec::new()];
        let mut rxs: [Vec<Receiver<RtMsg>>; 2] = [Vec::new(), Vec::new()];
        for g in 0..2 {
            for _ in 0..n {
                let (tx, rx) = bounded::<RtMsg>(cap);
                txs[g].push(tx);
                rxs[g].push(rx);
            }
        }
        let (collector_tx, collector_rx) = unbounded::<CollectorMsg>();
        let (note_tx, note_rx) = unbounded::<ShardNote>();
        let seq = Arc::new(AtomicU64::new(1));
        let clock = Clock(Instant::now());
        let pulse = || Pulse {
            clock,
            hb: Arc::new(AtomicU64::new(0)),
            kill: Arc::new(AtomicBool::new(false)),
            hub: None,
        };
        fn start<E: Executor>(
            name: String,
            mut exec: E,
            collector: Sender<CollectorMsg>,
        ) -> thread::JoinHandle<()> {
            thread::Builder::new()
                .name(name)
                .spawn(move || {
                    exec.run();
                    exec.finish(&collector);
                })
                .expect("spawn test executor")
        }
        let mut data_txs = Vec::new();
        let mut publish_txs = Vec::new();
        let mut handles = Vec::new();
        for k in 0..shards {
            let (data_tx, data_rx) = bounded::<SpoutMsg>(64);
            let (publish_tx, shard_ctrl_rx) = unbounded::<ShardCtrl>();
            data_txs.push(data_tx);
            publish_txs.push(publish_tx);
            let links = ShardLinks {
                inst_txs: txs.clone(),
                seq: seq.clone(),
                data_rx,
                ctrl_rx: shard_ctrl_rx,
                note_tx: note_tx.clone(),
            };
            let shard = Shard::new(k, &cfg, links, pulse());
            handles.push(start(format!("test-shard-{k}"), shard, collector_tx.clone()));
        }
        drop(note_tx);
        let links = SequencerLinks {
            inst_txs: txs.clone(),
            ctrl_rx,
            shard_txs: publish_txs.clone(),
            note_rx,
        };
        let sequencer = Sequencer::new(&cfg, links, pulse());
        handles.push(start("test-sequencer".into(), sequencer, collector_tx));
        Harness { data_txs, ctrl_tx, publish_txs, rxs, extra_txs: txs, collector_rx, handles }
    }

    fn recv(rx: &Receiver<RtMsg>, what: &str) -> RtMsg {
        rx.recv_timeout(Duration::from_secs(5)).unwrap_or_else(|e| panic!("{what}: {e}"))
    }

    fn shutdown(h: Harness) {
        drop(h.data_txs);
        drop(h.ctrl_tx);
        drop(h.publish_txs);
        drop(h.extra_txs);
        // The sequencer exits on ctrl disconnect, the shards when it drops
        // their publication channels; one report each, in any order.
        for i in 0..h.handles.len() {
            let done = h
                .collector_rx
                .recv_timeout(Duration::from_secs(5))
                .unwrap_or_else(|e| panic!("DispatcherDone {i}: {e}"));
            assert!(matches!(done, CollectorMsg::DispatcherDone { .. }));
        }
        for handle in h.handles {
            handle.join().expect("dispatcher thread exits cleanly");
        }
    }

    /// The keys in `0..1024` whose group-0 store route is `want`,
    /// ascending (routing is deterministic per config).
    fn keys_stored_at(n: usize, want: usize) -> Vec<u64> {
        let fj = FastJoinConfig { instances_per_group: n, ..FastJoinConfig::default() };
        let (mut part, _, _) = build_partitioners(SystemKind::FastJoin, &fj);
        (0u64..1024).filter(|k| part.store_route(*k) == want).collect()
    }

    /// Regression test (EOS control drain). A `Route` that reaches the
    /// dispatcher while it is broadcasting `Eos` must still be applied and
    /// answered with `RouteUpdated`. A dispatcher that breaks out of its
    /// loop right after the broadcast without reading control again drops
    /// the update silently — this test fails there deterministically: the
    /// broadcast is parked on a full inbox while the Route is queued,
    /// guaranteeing it arrives before such a `break` could run.
    #[test]
    fn eos_applies_control_arriving_during_shutdown() {
        let h = spawn_sharded(1, 2, 1, 4);
        // Occupy inst[0][1]'s single slot so the Eos broadcast blocks
        // there, right after Eos lands at inst[0][0].
        h.extra_txs[0][1].send(RtMsg::ReportRequest).expect("pre-fill");
        h.data_txs[0].send(SpoutMsg::Eos).expect("send Eos");
        // Once Eos shows up at inst[0][0] the sequencer is provably at or
        // before the blocked inst[0][1] send — past the point of no return
        // for a loop that stops serving control after the broadcast.
        assert!(matches!(recv(&h.rxs[0][0], "Eos at inst[0][0]"), RtMsg::Eos));
        let req = RouteRequest { epoch: 7, keys: Vec::new(), target: 1, source: 0 };
        h.ctrl_tx.send(DispatcherMsg::Route { group: 0, req }).expect("send Route");
        // Unblock the broadcast only now: the Route is already queued.
        assert!(matches!(recv(&h.rxs[0][1], "pre-fill drain"), RtMsg::ReportRequest));
        assert!(matches!(recv(&h.rxs[0][1], "Eos at inst[0][1]"), RtMsg::Eos));
        let got = recv(&h.rxs[0][0], "RouteUpdated for the late Route");
        assert!(
            matches!(got, RtMsg::Inst(InstanceMsg::RouteUpdated { epoch: 7 })),
            "late Route must still produce RouteUpdated, got {got:?}"
        );
        for rx in &h.rxs[1] {
            assert!(matches!(recv(rx, "Eos at group 1"), RtMsg::Eos));
        }
        shutdown(h);
    }

    /// Regression test (control-priority drain). Control queued at a
    /// shard is drained *to empty* before the next data message. A poll
    /// that serves at most one control message per data message makes the
    /// k-th queued flip trail k−1 data messages: with two publications
    /// queued behind a parked send, such a shard routes the next tuple
    /// under the first one only — the final assertion fails there.
    #[test]
    fn queued_control_is_served_before_the_next_data_message() {
        let h = spawn_sharded(1, 2, 2, 1);
        let keys = keys_stored_at(2, 0);
        let (k_a, k_b) = (keys[0], keys[1]);
        // Fill inst[0][0] so the first tuple's store send parks the shard
        // mid-data, while control and more data queue up.
        h.extra_txs[0][0].send(RtMsg::ReportRequest).expect("pre-fill");
        h.extra_txs[0][0].send(RtMsg::ReportRequest).expect("pre-fill");
        h.data_txs[0].send(SpoutMsg::Data(vec![Tuple::r(k_a, 0, 100)])).expect("t1");
        // Give the shard time to park on the full inbox before the
        // control messages and the second tuple are enqueued.
        thread::sleep(Duration::from_millis(50));
        // Two flips, published the way the sequencer does: the first
        // moves k_a to instance 1, the second moves k_b as well.
        let fj = FastJoinConfig { instances_per_group: 2, ..FastJoinConfig::default() };
        let mut table = new_dispatcher(SystemKind::FastJoin, &fj);
        for (epoch, key) in [(1, k_a), (2, k_b)] {
            let req = RouteRequest { epoch, keys: vec![key], target: 1, source: 0 };
            assert!(table.apply_route(Side::R, &req));
            h.publish_txs[0].send(ShardCtrl::Publish(table.route_snapshot(epoch))).expect("flip");
        }
        h.data_txs[0].send(SpoutMsg::Data(vec![Tuple::r(k_b, 0, 200)])).expect("t2");
        h.data_txs[0].send(SpoutMsg::Eos).expect("eos");
        let stores_until_eos = |rx: &Receiver<RtMsg>| {
            let mut payloads = Vec::new();
            loop {
                match recv(rx, "group-0 stream") {
                    RtMsg::Eos => return payloads,
                    RtMsg::Data(items) => payloads
                        .extend(items.iter().filter(|t| t.side == Side::R).map(|t| t.payload)),
                    _ => {}
                }
            }
        };
        assert_eq!(stores_until_eos(&h.rxs[0][0]), vec![100], "t1 was routed pre-flip");
        assert_eq!(
            stores_until_eos(&h.rxs[0][1]),
            vec![200],
            "ALL queued control must be applied before later data, not just the first"
        );
        // Drain group 1 (the two probes) so the sequencer exits.
        for rx in &h.rxs[1] {
            while !matches!(recv(rx, "group-1 stream"), RtMsg::Eos) {}
        }
        shutdown(h);
    }

    /// An unobstructed flip commits at control-channel latency, not a full
    /// [`DISPATCH_TICK`] data-poll round: the sequencer is woken by the
    /// control send, the shards by their `CTRL_TICK` poll, and the last ack
    /// releases `RouteUpdated` directly. (What the barrier withholds, and
    /// until when, is `fastjoin_core::sequencer`'s unit tests.)
    #[test]
    fn an_unobstructed_sharded_flip_commits_promptly() {
        let h = spawn_sharded(2, 2, 8, 1);
        // The fastest of several tries must beat one DISPATCH_TICK — a
        // barrier or control path that ever waits out a data-poll round
        // cannot.
        let mut best = Duration::from_secs(1);
        for epoch in 6..=16u64 {
            let req = RouteRequest { epoch, keys: Vec::new(), target: 1, source: 0 };
            let t0 = Instant::now();
            h.ctrl_tx.send(DispatcherMsg::Route { group: 0, req }).expect("fast flip");
            assert!(
                matches!(
                    recv(&h.rxs[0][0], "fast RouteUpdated"),
                    RtMsg::Inst(InstanceMsg::RouteUpdated { epoch: e }) if e == epoch
                ),
                "fast flip must commit"
            );
            best = best.min(t0.elapsed());
        }
        assert!(
            best < DISPATCH_TICK,
            "an unobstructed flip should commit in well under one DISPATCH_TICK, best was {best:?}"
        );
        for tx in &h.data_txs {
            tx.send(SpoutMsg::Eos).expect("eos");
        }
        for rx in h.rxs.iter().flatten() {
            assert!(matches!(recv(rx, "Eos"), RtMsg::Eos));
        }
        shutdown(h);
    }
}
