//! The join-instance stage's shell: one executor thread per instance.
//!
//! What an instance *decides* — the message step, the order its outputs
//! leave in, when to checkpoint and how to recover — lives in
//! [`fastjoin_core::stage::InstanceStage`] as a pure transition that the
//! model checker drives too (`cargo xtask check-protocol --variant
//! instance-restart`). This file keeps only what is imperative: the
//! receive loop and its kill switch, the heartbeat and parked sends, the
//! two clock reads around a step, the metrics registry (published live
//! each report tick) and the end-of-run report.
//!
//! A step reads the clock where its message changes hands and nowhere
//! else: `received`, as the message is taken, and `finished`, once its
//! outputs have left and its probe reports are about to. The stage hands
//! back an ordered sequence of outputs, performed here **in that order,
//! after the step returned** — and everything this file counts
//! (`stage.*`, `sends_parked`, the route-flip stamps) it counts then, from
//! the message it owns and from those outputs. None of it is replayable
//! state: the registry is not checkpointed and a recovery neither rolls it
//! back nor re-counts, so a torn step counts nothing and a replayed one
//! nothing twice. An injected crash fires between `accept` and `step`, so
//! nothing of its message was counted or sent; an organic panic mid-step
//! loses the unsent outputs, and recovery's re-application of the message
//! sends each exactly once.

use std::collections::VecDeque;

use crossbeam::channel::{RecvTimeoutError, Sender};

use fastjoin_core::config::FastJoinConfig;
use fastjoin_core::instance::JoinInstance;
use fastjoin_core::load::InstanceLoad;
use fastjoin_core::metrics::MetricsRegistry;
use fastjoin_core::protocol::MigrationState;
use fastjoin_core::selection::make_selector;
use fastjoin_core::stage::{InstEvent, InstOut, InstanceStage};
use fastjoin_core::trace::{Actor, TraceEvent, TraceKind, TraceRing};
use fastjoin_core::tuple::{JoinedPair, Side};

use super::supervise::{Executor, Pulse};
use super::{executor_seed, CollectorMsg, RuntimeConfig, EXECUTOR_TICK, SEED_ROLE_SELECTOR};
use crate::fault::{ChaosReceiver, KillSwitch};
use crate::introspect::Part;
use crate::msg::{DispatcherMsg, MonitorMsg, RtMsg};

/// Hottest keys each instance publishes with its registry (the width of
/// one skew-heatmap row).
const HOT_KEYS_PUBLISHED: usize = 5;

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

    fn new_stage(&self, checkpoint_every: u64) -> InstanceStage {
        let fj = &self.fj;
        let mut inst = JoinInstance::new(self.id, self.side(), fj.window);
        // Pairs are only materialized when a consumer wants them.
        inst.set_emit_pairs(self.results.is_some());
        let selector = make_selector(&FastJoinConfig {
            seed: executor_seed(fj.seed, self.group as u64, self.id as u64, SEED_ROLE_SELECTOR),
            ..fj.clone()
        });
        InstanceStage::new(inst, selector, checkpoint_every)
    }
}

/// One join-instance executor: receive → accept → (maybe inject a crash)
/// → step → perform → commit. Everything here survives a panic of
/// [`Executor::run`]; `stage` may be torn by it and repairs itself in
/// [`InstanceStage::recover`]. Nothing else in here is replayable state.
pub(super) struct InstanceExecutor {
    io: InstanceIo,
    rx: ChaosReceiver<RtMsg>,
    switch: KillSwitch,
    stage: InstanceStage,
    /// Outputs of the last step, performed front to back.
    out: VecDeque<InstOut>,
    /// The journal should survive a crash (the crash is the interesting
    /// part). Consequence, documented in ARCHITECTURE.md: events journaled
    /// by a step that later panics are kept, so a crash-adjacent event can
    /// appear even though its state mutation was rolled back — the paired
    /// `FaultCrash` event marks exactly where to distrust.
    ring: TraceRing,
    reg: MetricsRegistry,
    /// When this instance became the source of the round it sources (one
    /// at a time), closed out by the round's flip (`stage.mig_pause_us`).
    /// Stamped by the live step alone, so a recovery in between keeps it.
    flip_started: Option<u64>,
    /// Times a bounded peer send parked on a full inbox (backpressure)
    /// since [`InstanceExecutor::publish`] last folded them into the
    /// registry's `sends_parked`.
    sends_parked: u64,
    /// Inbox depth as the current message was taken, and its high
    /// watermark (properties of the channel, not of the stage).
    qlen: usize,
    q_hwm: u64,
}

impl InstanceExecutor {
    pub fn new(io: InstanceIo, rx: ChaosReceiver<RtMsg>, cfg: &RuntimeConfig) -> Self {
        InstanceExecutor {
            ring: TraceRing::new(io.actor(), &cfg.trace),
            switch: KillSwitch::new(cfg.faults.crash_for(io.group, io.id)),
            stage: io.new_stage(cfg.supervision.checkpoint_every),
            io,
            rx,
            out: VecDeque::new(),
            reg: MetricsRegistry::new(),
            flip_started: None,
            sends_parked: 0,
            qlen: 0,
            q_hwm: 0,
        }
    }

    /// Steps the accepted message (`recover = false`) or recovers the
    /// stage, then records and performs what came out and commits.
    fn drive(&mut self, recover: bool) {
        let received = self.io.pulse.now_us();
        let results = self.io.results.as_ref();
        let mut emit = |pair| {
            if let Some(tx) = results {
                let _ = tx.send(pair); // receiver may have hung up — best effort
            }
        };
        let (stage, ring, out) = (&mut self.stage, &mut self.ring, &mut self.out);
        let stepped = if recover {
            stage.recover(received, ring, &mut emit, out)
        } else {
            stage.step(received, ring, &mut emit, out)
        };
        // lint:allow(a protocol violation in the threaded runtime is unrecoverable)
        stepped.unwrap_or_else(|e| panic!("protocol violation: {e}"));
        // Queue-wait attribution stays per tuple (`ts` is the spout stamp;
        // the whole message left the inbox at `received`), under one name
        // lookup.
        if let Some(RtMsg::Data(items)) = self.stage.inflight() {
            let queue_wait = self.reg.histogram_mut("stage.queue_wait_us");
            for t in items {
                queue_wait.record(received.saturating_sub(t.ts));
            }
        }
        self.perform(received);
        self.stage.commit();
    }

    /// Performs the pending outputs in order.
    fn perform(&mut self, received: u64) {
        while let Some(o) = self.out.pop_front() {
            match o {
                InstOut::Peer { to, msg } => {
                    // lint:allow(protocol contract: peer ids are valid instance indices)
                    let peer = &self.io.to_instances[to];
                    let _ = self.io.pulse.send(peer, RtMsg::Inst(msg), &mut self.sends_parked);
                }
                InstOut::Route(req) => {
                    let _ =
                        self.io.disp_ctrl.send(DispatcherMsg::Route { group: self.io.group, req });
                }
                InstOut::Done(done) => {
                    if let Some(mon) = &self.io.to_monitor {
                        let _ = mon.send(MonitorMsg::Done(done));
                    }
                }
                InstOut::Load(load) => self.publish_load(load, received),
                InstOut::Reports(reports) => {
                    // One value for every probe of the step: message taken
                    // → outputs gone, reports about to leave.
                    let finished = self.io.pulse.now_us();
                    self.reg
                        .histogram_mut("stage.probe_us")
                        .record_n(finished.saturating_sub(received), reports.len() as u64);
                    let _ =
                        self.io.collector.send(CollectorMsg::Probes { done_us: finished, reports });
                }
                InstOut::Event(InstEvent::BecameSource(_)) => self.flip_started = Some(received),
                InstOut::Event(InstEvent::RouteFlipped(epoch)) => {
                    let Some(t0) = self.flip_started.take() else { continue };
                    // Migration pause attribution: how long this source ran
                    // in buffering mode before the flip.
                    let us = received.saturating_sub(t0);
                    self.reg.histogram_record("stage.mig_pause_us", us);
                    let flip = CollectorMsg::RouteFlip { group: self.io.group, epoch, us };
                    let _ = self.io.collector.send(flip);
                }
            }
        }
    }

    /// Answers a monitor `ReportRequest`: samples the local series, ships
    /// the period's load to the monitor and publishes the registry.
    fn publish_load(&mut self, load: InstanceLoad, now: u64) {
        let period = self.io.sample_period_us;
        self.reg.series_record("queue_depth", period, now, self.qlen as f64);
        let buffered = match self.stage.instance().migration_state() {
            MigrationState::Idle => 0,
            MigrationState::Source { buffer, .. } => buffer.len(),
            MigrationState::Target { held, .. } => held.len(),
        };
        self.reg.gauge_set("mig_buffered_tuples", buffered as f64);
        self.reg.series_record("mig_buffered", period, now, buffered as f64);
        if let Some(mon) = &self.io.to_monitor {
            let _ = mon.send(MonitorMsg::Report { id: self.io.id, load });
        }
        self.publish();
    }

    /// Brings the registry up to the instance's present state — what a
    /// reader of the run registry sees of it, mid-run or in the report —
    /// and publishes it with the hottest keys (the skew-heatmap row).
    fn publish(&mut self) {
        let (reg, inst) = (&mut self.reg, self.stage.instance());
        let counters = inst.counters();
        reg.gauge_set("load", inst.load().effective_load());
        reg.gauge_set("migrating", f64::from(u8::from(!inst.migration_state().is_idle())));
        reg.gauge_set("stored", counters.stored as f64);
        reg.gauge_set("probed", counters.probed as f64);
        reg.gauge_set("joined", counters.joined as f64);
        // The inbox as the last message was taken, and its high-water mark.
        reg.gauge_set("inbox.depth", self.qlen as f64);
        reg.gauge_set("queue.depth", self.q_hwm as f64);
        reg.counter_add("sends_parked", std::mem::take(&mut self.sends_parked));
        let part = Part::Instance { group: self.io.group, id: self.io.id };
        self.io.pulse.publish(part, reg, || inst.top_keys(HOT_KEYS_PUBLISHED));
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
        while !(self.stage.saw_eos() && self.stage.instance().migration_state().is_idle()) {
            if !self.io.pulse.beat() {
                return; // emergency shutdown: the run already failed
            }
            let msg = match self.rx.recv_timeout(EXECUTOR_TICK) {
                Ok(m) => m,
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => return,
            };
            self.qlen = self.rx.queue_len();
            self.q_hwm = self.q_hwm.max(self.qlen as u64);
            let inject = self.switch.should_crash(&msg);
            self.stage.accept(msg);
            if inject {
                // lint:allow(the injected fail-stop crash IS the fault being tested; supervise catches it and recover() replays)
                panic!(
                    "fault injection: scheduled crash of join-{}-{}",
                    self.io.side(),
                    self.io.id
                );
            }
            self.drive(false);
        }
    }

    /// Instance recovery: drop the outputs still held (none of them
    /// escaped), then let the stage restore, replay and re-apply the
    /// in-flight message, whose outputs are performed as a live step's
    /// are. A replay can only re-panic on a genuine bug (deterministic
    /// protocol violation), which `supervise` treats as fatal.
    fn recover(&mut self, restarts: u32) {
        self.crash_event(TraceKind::FaultCrash, restarts);
        self.out.clear();
        self.qlen = 0;
        self.drive(true);
        self.crash_event(TraceKind::FaultRestart, restarts);
    }

    fn finish(mut self, collector: &Sender<CollectorMsg>) {
        let reg = &mut self.reg;
        reg.counter_add("trace.dropped", self.ring.dropped());
        let (delays, drops, dups, reorders) = self.rx.perturbations();
        reg.counter_add("chaos.delays", delays);
        reg.counter_add("chaos.drops", drops);
        reg.counter_add("chaos.dups", dups);
        reg.counter_add("chaos.reorders", reorders);
        self.publish();
        let reg = &mut self.reg;
        let _ = collector.send(CollectorMsg::InstanceDone {
            group: self.io.group,
            id: self.io.id,
            counters: self.stage.instance().counters(),
            registry: std::mem::take(reg),
            journal: Box::new(self.ring.into_journal()),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::ChaosPolicy;
    use crate::msg::ProbeReport;
    use crate::topology::supervise::Clock;
    use crossbeam::channel::{bounded, unbounded, Receiver};
    use fastjoin_core::protocol::InstanceMsg;
    use fastjoin_core::tuple::Tuple;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    /// S-group instance 0 wired by hand, `peer` being its inbox-side view
    /// of instance 1, with the collector's end of its report channel.
    fn executor(peer: Sender<RtMsg>) -> (InstanceExecutor, Receiver<CollectorMsg>) {
        let cfg = RuntimeConfig::default();
        let (own, inbox_rx) = unbounded::<RtMsg>();
        let (disp_ctrl, _) = unbounded();
        let (collector, collector_rx) = unbounded();
        let io = InstanceIo {
            group: 1,
            id: 0,
            fj: cfg.fastjoin.clone(),
            sample_period_us: 1_000,
            to_instances: vec![own, peer],
            to_monitor: None,
            disp_ctrl,
            collector,
            results: None,
            pulse: Pulse {
                clock: Clock(Instant::now()),
                hb: Arc::new(AtomicU64::new(0)),
                kill: Arc::new(AtomicBool::new(false)),
                hub: None,
            },
        };
        let rx =
            ChaosReceiver::new(inbox_rx, ChaosPolicy::default(), cfg.faults.rng_for(0), |_| false);
        (InstanceExecutor::new(io, rx, &cfg), collector_rx)
    }

    /// Receives `msg` as `run` does, minus the channel.
    fn feed(exec: &mut InstanceExecutor, msg: RtMsg) {
        exec.stage.accept(msg);
        exec.drive(false);
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

    /// A dispatched tuple (hash routing: fan-out 1). `executor()` is an
    /// S-group instance, so an R tuple probes it.
    fn item(side: Side, key: u64, seq: u64, ts: u64) -> Tuple {
        Tuple { seq, fanout: 1, ..Tuple::new(side, key, ts, 0) }
    }

    fn samples(exec: &mut InstanceExecutor, stage: &str) -> u64 {
        exec.reg.histogram_mut(stage).count()
    }

    /// Feeds a hot and a cold key with probe pressure on both, freezes the
    /// period and commands a migration to instance 1: the instance is now
    /// the source of round 1 and has sent `MigStart` / `MigStore`.
    fn become_source(exec: &mut InstanceExecutor) {
        let stores = (0..54).map(|seq| item(Side::S, if seq < 50 { 1 } else { 2 }, seq, 0));
        let probes = (60..80).map(|seq| item(Side::R, 1 + seq % 2, seq, 0));
        feed(exec, RtMsg::Data(stores.chain(probes).collect()));
        feed(exec, RtMsg::ReportRequest);
        let target_load = InstanceLoad::new(0, 0);
        feed(exec, RtMsg::Inst(InstanceMsg::MigrateCmd { epoch: 1, target: 1, target_load }));
        assert!(matches!(
            exec.stage.instance().migration_state(),
            MigrationState::Source { epoch: 1, .. }
        ));
    }

    /// The step is the unit of observation: one message in, one report
    /// message out, stamped once with the time every probe of the step is
    /// done at, while the stage histograms still count per tuple — and a
    /// recovery, which replays the message, neither counts nor reports it
    /// again (the registry is no replayable state).
    #[test]
    fn a_step_stamps_its_message_once_and_a_recovery_counts_nothing_twice() {
        let (mut exec, collector_rx) = executor(unbounded().0);
        let now = exec.io.pulse.now_us();
        let data = |side, seq| item(side, 7, seq, now);
        feed(&mut exec, RtMsg::Data(vec![data(Side::R, 1), data(Side::S, 2), data(Side::R, 3)]));
        let sent: Vec<CollectorMsg> = std::iter::from_fn(|| collector_rx.try_recv().ok()).collect();
        let [CollectorMsg::Probes { done_us, reports }] = sent.as_slice() else {
            panic!("one report message per instance message, got {}", sent.len())
        };
        // The second probe sees the tuple stored between the two.
        let expected =
            [(1, 0), (3, 1)].map(|(seq, matches)| ProbeReport { seq, fanout: 1, matches, ts: now });
        assert_eq!(reports.as_slice(), expected);
        assert!(*done_us >= now, "the step finished after its tuples were stamped");
        assert_eq!(samples(&mut exec, "stage.probe_us"), 2);
        assert_eq!(samples(&mut exec, "stage.queue_wait_us"), 3);
        assert!(exec.out.is_empty() && exec.stage.inflight().is_none());

        exec.recover(1);
        assert_eq!(exec.stage.log_len(), 1, "the message was replayed");
        assert_eq!(samples(&mut exec, "stage.probe_us"), 2);
        assert_eq!(samples(&mut exec, "stage.queue_wait_us"), 3);
        assert!(collector_rx.try_recv().is_err(), "a replayed step reports nothing");
    }

    /// A step torn by a panic left outputs behind, unsent and uncounted.
    /// Recovery drops them: re-applying the in-flight message reports and
    /// counts each of its probes itself, once.
    #[test]
    fn recovery_drops_a_torn_steps_outputs_and_counts_its_message_once() {
        let (mut exec, collector_rx) = executor(unbounded().0);
        let probe = |seq| item(Side::R, 7, seq, 0);
        feed(&mut exec, RtMsg::Data(vec![probe(1), probe(2)]));
        assert_eq!(reported_seqs(&collector_rx), vec![vec![1, 2]]);
        // The next one panicked with its first probe's report computed.
        exec.stage.accept(RtMsg::Data(vec![probe(3), probe(4)]));
        let torn = ProbeReport { seq: 3, fanout: 1, matches: 0, ts: 0 };
        exec.out.push_back(InstOut::Reports(vec![torn]));
        exec.recover(1);
        assert_eq!(reported_seqs(&collector_rx), vec![vec![3, 4]], "one report per probe");
        assert_eq!(samples(&mut exec, "stage.probe_us"), 4, "one sample per probe part");
        assert_eq!(samples(&mut exec, "stage.queue_wait_us"), 4);
    }

    /// `sends_parked` counts parks that happened on a channel; restoring a
    /// checkpoint cannot un-happen them (it used to: the counter was
    /// rolled back with the state and the silent replay never re-counted).
    #[test]
    fn parked_sends_survive_a_recovery() {
        let (peer, peer_rx) = bounded::<RtMsg>(1);
        peer.send(RtMsg::ReportRequest).expect("pre-fill the single slot");
        let (mut exec, _collector_rx) = executor(peer);
        // The peer drains its inbox only once the source has parked on it
        // (a park refreshes the heartbeat).
        let hb = exec.io.pulse.hb.clone();
        let drain = std::thread::spawn(move || {
            while hb.load(Ordering::Relaxed) == 0 {
                std::thread::yield_now();
            }
            peer_rx.iter().take(3).count()
        });
        become_source(&mut exec);
        assert_eq!(drain.join().expect("the peer drained"), 3, "pre-fill, MigStart, MigStore");
        let parked = exec.sends_parked;
        assert!(parked > 0, "MigStart parked on the full inbox");
        exec.recover(1);
        assert_eq!(exec.sends_parked, parked, "the parks happened; recovery keeps them");
    }

    /// A source that crashes between `MigrateCmd` and `RouteUpdated`
    /// (`CrashPhase::PreRouteFlip`) replays the command; the round's pause
    /// still runs from the live receipt, not from the recovery.
    #[test]
    fn a_recovery_before_the_route_flip_keeps_the_rounds_start_stamp() {
        const GAP: Duration = Duration::from_millis(250);
        let (peer, _peer_rx) = unbounded();
        let (mut exec, collector_rx) = executor(peer);
        become_source(&mut exec);
        // The clock jumps ahead (the run "started" earlier), then the crash.
        exec.io.pulse.clock = Clock(exec.io.pulse.clock.0 - GAP);
        exec.stage.accept(RtMsg::Inst(InstanceMsg::RouteUpdated { epoch: 1 }));
        exec.recover(1);
        let flips: Vec<u64> = std::iter::from_fn(|| collector_rx.try_recv().ok())
            .filter_map(|m| match m {
                CollectorMsg::RouteFlip { epoch: 1, us, .. } => Some(us),
                _ => None,
            })
            .collect();
        let [us] = flips.as_slice() else { panic!("one flip for the round, got {flips:?}") };
        assert!(*us >= GAP.as_micros() as u64, "the pause spans the gap, got {us} µs");
        let pause = exec.reg.histogram_mut("stage.mig_pause_us");
        assert_eq!((pause.count(), pause.max() >= GAP.as_micros() as u64), (1, true));
    }
}
