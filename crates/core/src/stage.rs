//! One join instance as a pure transition, in two layers: the instance
//! step every engine runs, and the crash recovery only the threaded
//! runtime adds around it. Like [`crate::shard::Shard`] and
//! [`crate::sequencer::Sequencer`], both append to a caller-owned
//! **ordered** sequence of [`InstOut`]s that the engine sends *in that
//! order*, after the call returned. Joined pairs alone go straight to the
//! caller's sink as their probe completes.
//!
//! * **The step, [`InstanceCore`]**: a [`JoinInstance`] and its effect
//!   buffer. [`InstanceCore::receive`] applies one message and emits what
//!   it did to a round sourced here, then its peer sends, route requests
//!   and completions; [`InstanceCore::serve`] serves one queued tuple, whose
//!   [`Work::report`] is a completed probe's report;
//!   [`InstanceCore::report`] answers the monitor. The key selector stays
//!   with the engine: the simulator and the synchronous
//!   [`crate::biclique::JoinCluster`] keep one per group and drive the step.
//! * **The recovering stage, [`InstanceStage`]**: the step plus its own
//!   selector, the log and the in-flight slot — what must survive a crash
//!   of the thread driving it. [`InstanceStage::accept`] parks a message
//!   where a crash cannot lose it; [`InstanceStage::step`] receives it,
//!   serves until idle and ends with **one** [`InstOut::Reports`] for the
//!   probes it completed, each with the fan-out its tuple arrived with;
//!   the shell performs the outputs; [`InstanceStage::commit`] logs the
//!   message and, every `checkpoint_every` messages, checkpoints: it marks
//!   the store's undo journal and copies the small rest, at O(mutations
//!   since the previous one). The runtime and the model checker drive it.
//!
//! After a crash [`InstanceStage::recover`] rolls the store back along its
//! journal, overwrites the rest from the checkpoint, replays the log with
//! every output discarded *here* (they left before the crash), then
//! re-applies the in-flight message with its outputs kept. What a torn step
//! computed never left: outputs leave only after `step` returned, and the
//! shell drops what it still holds of them before it calls `recover`. A
//! report sent as its probe completed could escape a mid-step panic and be
//! sent again by the re-application, counting twice at the collector.

use std::collections::VecDeque;

use lintmarks::lint;

use crate::instance::{InstanceCheckpoint, JoinInstance, Work};
use crate::load::InstanceLoad;
use crate::protocol::{
    Effects, Epoch, InstanceMsg, MigrationDone, MigrationState, ProbeReport, ProtocolError,
    RouteRequest, RtMsg,
};
use crate::selection::KeySelector;
use crate::trace::{TraceEvent, TraceKind, TraceRing};
use crate::tuple::{JoinedPair, Tuple};

/// One element of an instance's ordered output sequence.
#[derive(Debug, Clone, PartialEq)]
pub enum InstOut {
    /// Send `msg` to instance `to` of this instance's group.
    Peer {
        /// Destination instance within the group.
        to: usize,
        /// A migration-protocol message (it travels as `RtMsg::Inst`).
        msg: InstanceMsg,
    },
    /// Ask the dispatcher for a route flip (sent by a migration target).
    Route(RouteRequest),
    /// Tell the group's monitor a round closed.
    Done(MigrationDone),
    /// The period's load, answering [`RtMsg::ReportRequest`].
    Load(InstanceLoad),
    /// The probes a stage step completed, in completion order (never
    /// empty; at most one per step, and its last output).
    Reports(Vec<ProbeReport>),
    /// Bookkeeping only.
    Event(InstEvent),
}

/// What a message did to a migration round this instance sources, for the
/// shell's pause attribution. Carries no instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstEvent {
    /// A `MigrateCmd` engaged: the instance now buffers the round's keys.
    BecameSource(Epoch),
    /// `RouteUpdated` ended the buffering; the buffer went to the target.
    RouteFlipped(Epoch),
}

/// GreedyFit's minimum per-key benefit `θ_gap` (Algorithm 1, line 12),
/// which every engine runs at 0: a key is worth moving as soon as its
/// benefit is positive, the floor every selector applies anyway.
const THETA_GAP: f64 = 0.0;

/// The instance step: a join instance and its effect buffer, the one
/// transition every engine runs.
pub struct InstanceCore {
    inst: JoinInstance,
    /// The instance's effect buffer; empty between calls.
    fx: Effects,
}

impl InstanceCore {
    /// A step around `inst` (fresh, configured).
    #[must_use]
    pub fn new(inst: JoinInstance) -> Self {
        InstanceCore { inst, fx: Effects::new() }
    }

    /// The wrapped instance (load, counters, migration state, store).
    #[must_use]
    pub fn instance(&self) -> &JoinInstance {
        &self.inst
    }

    /// Applies `msg` without serving the queued work, and appends what it
    /// did to a round sourced here, then its peer sends, route requests
    /// and completions. A data tuple is only queued (or held by a round):
    /// it has no output. `selector` picks the keys a `MigrateCmd` moves;
    /// `now` stamps what the call journals into `ring`.
    ///
    /// # Errors
    ///
    /// A [`ProtocolError`] when `msg` violates the migration protocol.
    #[inline]
    pub fn receive(
        &mut self,
        msg: InstanceMsg,
        selector: &mut dyn KeySelector,
        now: u64,
        mut ring: Option<&mut TraceRing>,
        out: &mut VecDeque<InstOut>,
    ) -> Result<(), ProtocolError> {
        if let InstanceMsg::Data(_) = msg {
            return self.inst.handle(msg, selector, THETA_GAP, &mut self.fx);
        }
        // Decision audit, per-key half: a MigrateCmd is about to run key
        // selection, so capture the loads the benefit formula (Eq. 8) will
        // see — before handling ships the selected keys' tuples away.
        let mut plan_ctx = None;
        if let Some(ring) = ring.as_deref_mut() {
            self.trace_receipt(&msg, now, ring);
            if let InstanceMsg::MigrateCmd { target_load, .. } = msg {
                plan_ctx = Some((self.inst.load(), target_load, self.inst.key_stats()));
            }
        }
        let event = if let InstanceMsg::MigrateCmd { epoch, .. } = msg {
            Some(InstEvent::BecameSource(epoch))
        } else if let InstanceMsg::RouteUpdated { epoch } = msg {
            Some(InstEvent::RouteFlipped(epoch))
        } else {
            None
        };
        self.inst.handle(msg, selector, THETA_GAP, &mut self.fx)?;
        // A command engages only if selection found something to move.
        let source = matches!(self.inst.migration_state(), MigrationState::Source { .. });
        let event = event.filter(|e| source || !matches!(e, InstEvent::BecameSource(_)));
        out.extend(event.map(InstOut::Event));
        if let (Some(ring), Some((src_load, dst_load, stats))) = (ring, plan_ctx) {
            if let MigrationState::Source { epoch, keys, .. } = self.inst.migration_state() {
                for stat in stats.iter().filter(|s| keys.contains(&s.key)) {
                    // MigrateCmds are rare (one per round): push unsampled
                    // so `trace --round` can always explain the plan.
                    ring.push(TraceEvent {
                        at_us: now,
                        actor: ring.actor(),
                        kind: TraceKind::MigPlanKey,
                        seq: stat.key,
                        epoch: *epoch,
                        aux: (stat.benefit(src_load, dst_load) * 1000.0) as u64,
                        aux2: stat.stored + stat.queue,
                    });
                }
            }
        }
        out.extend(self.fx.sends.drain(..).map(|(to, msg)| InstOut::Peer { to, msg }));
        out.extend(self.fx.route_requests.drain(..).map(InstOut::Route));
        out.extend(self.fx.migration_done.drain(..).map(InstOut::Done));
        Ok(())
    }

    /// Journals the receipt of a migration-protocol message. The event's
    /// `aux`/`aux2` payloads are kind-specific (see `core::trace`); data
    /// tuples are journaled after processing instead (`StoreDone` /
    /// `ProbeDone`, sampled).
    fn trace_receipt(&self, m: &InstanceMsg, at_us: u64, ring: &mut TraceRing) {
        let Some(kind) = TraceKind::of_instance_msg(m) else { return };
        // Messages outside any migration round journal under the explicit
        // sentinel — epoch 0 would be indistinguishable from a (therefore
        // reserved) genuine round 0 in `fastjoin-cli trace --round`.
        let epoch = m.round_id().unwrap_or(TraceEvent::NO_ROUND);
        let (aux, aux2) = match m {
            InstanceMsg::Data(_) => (0, 0),
            InstanceMsg::MigrateCmd { target, .. } => (*target as u64, 0),
            InstanceMsg::MigStart { from, keys, .. } => (*from as u64, keys.len() as u64),
            InstanceMsg::MigStore { tuples, .. } | InstanceMsg::MigForward { tuples, .. } => {
                (tuples.len() as u64, 0)
            }
            InstanceMsg::RouteUpdated { .. } => match self.inst.migration_state() {
                MigrationState::Source { buffer, .. } => (buffer.len() as u64, 0),
                MigrationState::Idle | MigrationState::Target { .. } => (0, 0),
            },
            InstanceMsg::MigEnd { from, .. } => (*from as u64, 0),
        };
        ring.push(TraceEvent { at_us, actor: ring.actor(), kind, seq: 0, epoch, aux, aux2 });
    }

    /// Serves the oldest queued tuple, if any. Its joined pairs — produced
    /// only when a consumer wants them materialised — go to `pairs`; its
    /// sampled event carries `now`, the stamp of the message it came in.
    #[lint(hot_path)]
    pub fn serve(
        &mut self,
        now: u64,
        ring: Option<&mut TraceRing>,
        pairs: &mut impl FnMut(JoinedPair),
    ) -> Option<Work> {
        let work = self.inst.process_next(&mut self.fx)?;
        let (kind, tuple, matches) = match work {
            Work::Probe { tuple, matches, .. } => (TraceKind::ProbeDone, tuple, matches),
            Work::Store { tuple } => (TraceKind::StoreDone, tuple, 0),
        };
        if let Some(ring) = ring {
            ring.push_sampled(TraceEvent {
                at_us: now,
                actor: ring.actor(),
                kind,
                seq: tuple.seq,
                epoch: 0,
                aux: matches,
                aux2: 0,
            });
        }
        if !self.fx.joined.is_empty() {
            self.fx.joined.drain(..).for_each(pairs);
        }
        Some(work)
    }

    /// The period's load for the monitor: collects expired tuples, then
    /// takes the load report.
    pub fn report(&mut self) -> InstanceLoad {
        self.inst.collect_expired();
        self.inst.take_load_report()
    }
}

/// What a message can change, and so what a checkpoint captures and a
/// replay rebuilds.
struct Replayable {
    core: InstanceCore,
    selector: Box<dyn KeySelector + Send>,
    eos: bool,
}

/// A [`Replayable`] as of its last checkpoint: the instance's own
/// checkpoint (whose store half is the live store's undo journal) plus
/// copies of the fields around it.
#[derive(Clone)]
struct Checkpoint {
    inst: InstanceCheckpoint,
    selector: Box<dyn KeySelector + Send>,
    eos: bool,
}

/// One join instance with its recovery state. The struct is what survives
/// a crash of the thread driving it; `recover` repairs whatever a panic
/// mid-`step` tore.
pub struct InstanceStage {
    state: Replayable,
    /// The latest checkpoint of `state`.
    checkpoint: Checkpoint,
    /// Messages committed since `checkpoint` (whole, replayed identically).
    log: Vec<RtMsg>,
    /// The accepted message until its outputs left — the one owned copy.
    inflight: Option<RtMsg>,
    checkpoint_every: u64,
}

/// A copy that recovers exactly as the original would (the store's undo
/// journal is copied with it) — what lets the model checker branch.
impl Clone for InstanceStage {
    fn clone(&self) -> Self {
        let Replayable { core, selector, eos } = &self.state;
        let core = InstanceCore::new(core.inst.fork());
        InstanceStage {
            state: Replayable { core, selector: selector.clone(), eos: *eos },
            checkpoint: self.checkpoint.clone(),
            log: self.log.clone(),
            inflight: self.inflight.clone(),
            checkpoint_every: self.checkpoint_every,
        }
    }
}

impl InstanceStage {
    /// A stage around `inst` (fresh, configured), selecting migration keys
    /// with `selector` and checkpointing every `checkpoint_every` (≥ 1)
    /// committed messages.
    #[must_use]
    pub fn new(
        inst: JoinInstance,
        selector: Box<dyn KeySelector + Send>,
        checkpoint_every: u64,
    ) -> Self {
        let mut state = Replayable { core: InstanceCore::new(inst), selector, eos: false };
        InstanceStage {
            checkpoint: state.checkpoint(),
            state,
            log: Vec::new(),
            inflight: None,
            checkpoint_every: checkpoint_every.max(1),
        }
    }

    /// The wrapped instance (load, counters, migration state, store).
    #[must_use]
    pub fn instance(&self) -> &JoinInstance {
        self.state.core.instance()
    }
    /// True once [`RtMsg::Eos`] was applied. The instance is done when,
    /// besides, no migration is in flight.
    #[must_use]
    pub fn saw_eos(&self) -> bool {
        self.state.eos
    }

    /// The accepted message whose outputs have not been committed.
    #[must_use]
    pub fn inflight(&self) -> Option<&RtMsg> {
        self.inflight.as_ref()
    }

    /// Messages a recovery would replay.
    #[must_use]
    pub fn log_len(&self) -> usize {
        self.log.len()
    }

    /// Parks `msg` as the in-flight message. From here until
    /// [`InstanceStage::commit`], a crash re-applies it.
    pub fn accept(&mut self, msg: RtMsg) {
        debug_assert!(self.inflight.is_none(), "the previous message was never committed");
        self.inflight = Some(msg);
    }

    /// Applies the in-flight message (a no-op without one) and appends its
    /// outputs to `out`. `now` is when the message changed hands; it
    /// stamps what the step journals into `ring`. Joined pairs go to
    /// `pairs` as their probe completes.
    ///
    /// # Errors
    ///
    /// A [`ProtocolError`] when the message violates the migration
    /// protocol; the stage may be torn then (fatal to the runtime, a
    /// counterexample to the checker).
    pub fn step(
        &mut self,
        now: u64,
        ring: &mut TraceRing,
        pairs: &mut impl FnMut(JoinedPair),
        out: &mut VecDeque<InstOut>,
    ) -> Result<(), ProtocolError> {
        match &self.inflight {
            Some(msg) => self.state.apply(msg, now, Some(ring), pairs, out),
            None => Ok(()),
        }
    }

    /// The in-flight message's outputs have left: logs it, and takes a
    /// checkpoint once `checkpoint_every` messages are logged.
    pub fn commit(&mut self) {
        self.log.extend(self.inflight.take());
        if self.log.len() as u64 >= self.checkpoint_every {
            self.checkpoint = self.state.checkpoint();
            self.log.clear();
        }
    }

    /// Recovery after a crash of the driving thread, whatever it tore:
    /// restores the checkpoint in place, replays the log with its outputs
    /// discarded and nothing journaled (both happened before the crash),
    /// then applies the in-flight message, if any, as
    /// [`InstanceStage::step`] would. The caller must have dropped every
    /// output of that message it still held.
    ///
    /// # Errors
    ///
    /// As for `step`; a replay can only fail on a deterministic bug.
    pub fn recover(
        &mut self,
        now: u64,
        ring: &mut TraceRing,
        pairs: &mut impl FnMut(JoinedPair),
        out: &mut VecDeque<InstOut>,
    ) -> Result<(), ProtocolError> {
        self.state.restore(&self.checkpoint);
        let mut discarded = VecDeque::new();
        for msg in &self.log {
            self.state.apply(msg, now, None, &mut |_| {}, &mut discarded)?;
            discarded.clear();
        }
        self.step(now, ring, pairs, out)
    }
}

impl Replayable {
    fn checkpoint(&mut self) -> Checkpoint {
        let Replayable { core, selector, eos } = self;
        Checkpoint { inst: core.inst.checkpoint(), selector: selector.clone(), eos: *eos }
    }

    /// Returns to the state `cp` captured, whatever a panic left behind.
    /// `cp` must be the latest checkpoint taken of this state.
    fn restore(&mut self, cp: &Checkpoint) {
        let Checkpoint { inst, selector, eos } = cp;
        self.core.inst.restore(inst);
        self.core.fx.clear();
        self.selector.clone_from(selector);
        self.eos = *eos;
    }

    /// One message end to end: receive, serve until idle, one report
    /// batch. Without a `ring` (a replay) nothing is journaled.
    fn apply(
        &mut self,
        msg: &RtMsg,
        now: u64,
        mut ring: Option<&mut TraceRing>,
        pairs: &mut impl FnMut(JoinedPair),
        out: &mut VecDeque<InstOut>,
    ) -> Result<(), ProtocolError> {
        let mut reports = Vec::new();
        match msg {
            // The instance consumes its message; the owned original stays
            // parked for the replay log. Only rare migration messages carry
            // a payload to copy.
            RtMsg::Inst(m) => {
                let selector = self.selector.as_mut();
                self.core.receive(m.clone(), selector, now, ring.as_deref_mut(), out)?;
            }
            // One allocation for the step's report vector, not a growth
            // series: these probes complete in the serve loop that follows.
            RtMsg::Data(items) => reports.reserve(self.absorb_items(items, now, out)?),
            RtMsg::ReportRequest => out.push_back(InstOut::Load(self.core.report())),
            RtMsg::Eos => self.eos = true,
        }
        while let Some(work) = self.core.serve(now, ring.as_deref_mut(), pairs) {
            reports.extend(work.report());
        }
        if !reports.is_empty() {
            out.push_back(InstOut::Reports(reports));
        }
        Ok(())
    }

    /// Receives one data message whole, in the shard's routing order (the
    /// instance tells store from probe by `tuple.side`); returns how many
    /// probes it carried.
    #[lint(hot_path)]
    fn absorb_items(
        &mut self,
        items: &[Tuple],
        now: u64,
        out: &mut VecDeque<InstOut>,
    ) -> Result<usize, ProtocolError> {
        let store_side = self.core.inst.store_side();
        let mut probes = 0;
        for &t in items {
            probes += usize::from(t.side != store_side);
            self.core.receive(InstanceMsg::Data(t), self.selector.as_mut(), now, None, out)?;
        }
        Ok(probes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selection::GreedyFit;
    use crate::trace::{Actor, TraceConfig};
    use crate::tuple::Side;

    /// R-group instance 0 checkpointing every `every` messages, and what
    /// it handed to the outside: outputs per call, pairs overall.
    struct Rig {
        stage: InstanceStage,
        ring: TraceRing,
        pairs: Vec<(u64, u64)>,
    }

    impl Rig {
        fn new(every: u64) -> Self {
            let inst = JoinInstance::new(0, Side::R, None);
            Rig {
                stage: InstanceStage::new(inst, Box::new(GreedyFit::new()), every),
                ring: TraceRing::new(Actor::instance(0, 0), &TraceConfig::disabled()),
                pairs: Vec::new(),
            }
        }

        /// Accepts, steps and commits `msg`; its outputs.
        fn feed(&mut self, msg: RtMsg) -> Vec<InstOut> {
            self.stage.accept(msg);
            let out = self.call(false);
            self.stage.commit();
            out
        }

        fn call(&mut self, recover: bool) -> Vec<InstOut> {
            let mut out = VecDeque::new();
            let mut sink = |p: JoinedPair| self.pairs.push((p.left.seq, p.right.seq));
            let stage = &mut self.stage;
            if recover {
                stage.recover(0, &mut self.ring, &mut sink, &mut out).expect("recovers");
            } else {
                stage.step(0, &mut self.ring, &mut sink, &mut out).expect("steps");
            }
            out.into()
        }
    }

    /// A dispatched tuple: every probe fans out to two instances.
    fn item(side: Side, key: u64, seq: u64) -> Tuple {
        Tuple { seq, fanout: 2, ..Tuple::new(side, key, seq, 0) }
    }

    fn report(seq: u64, matches: u64) -> ProbeReport {
        ProbeReport { seq, fanout: 2, matches, ts: seq }
    }

    /// One message in, one report batch out: every probe the step
    /// completed, in completion order, with the fan-out it arrived with —
    /// and the pairs went to the sink.
    #[test]
    fn a_step_reports_its_probes_in_one_batch_and_sinks_its_pairs() {
        let mut rig = Rig::new(64);
        let msg = RtMsg::Data(vec![item(Side::S, 7, 1), item(Side::R, 7, 2), item(Side::S, 7, 3)]);
        let out = rig.feed(msg);
        // The second probe sees the tuple stored between the two.
        assert_eq!(out, [InstOut::Reports(vec![report(1, 0), report(3, 1)])]);
        assert_eq!(rig.pairs, [(2, 3)]);
        assert!(rig.feed(RtMsg::Data(vec![item(Side::R, 7, 4)])).is_empty(), "no probe, no batch");
    }

    /// A source's flip leaves in protocol order — the `MigForward` of the
    /// buffered tuples, then `MigEnd` — and a buffered probe crosses with
    /// the fan-out it was dispatched with, inside the tuple.
    #[test]
    fn a_flip_forwards_the_buffered_probes_with_their_fanout() {
        let mut rig = Rig::new(64);
        // A hot and a cold key with probe pressure on both, one period
        // frozen: GreedyFit finds something to move.
        let stores = (0..54).map(|seq| item(Side::R, if seq < 50 { 1 } else { 2 }, seq));
        let probes = (60..80).map(|seq| item(Side::S, 1 + seq % 2, seq));
        rig.feed(RtMsg::Data(stores.chain(probes).collect()));
        rig.feed(RtMsg::ReportRequest);
        let target_load = InstanceLoad::new(0, 0);
        let cmd = InstanceMsg::MigrateCmd { epoch: 4, target: 1, target_load };
        let out = rig.feed(RtMsg::Inst(cmd));
        assert_eq!(out[0], InstOut::Event(InstEvent::BecameSource(4)));
        assert!(matches!(&out[1..], [InstOut::Peer { to: 1, .. }, InstOut::Peer { to: 1, .. }]));
        // A probe and a store of a departing key arrive before the flip.
        let MigrationState::Source { keys, .. } = rig.stage.instance().migration_state() else {
            panic!("the command engaged")
        };
        let key = *keys.iter().next().expect("a key was selected");
        let late = [item(Side::S, key, 90), item(Side::R, key, 91)];
        assert!(rig.feed(RtMsg::Data(late.to_vec())).is_empty(), "buffered, not processed");
        let out = rig.feed(RtMsg::Inst(InstanceMsg::RouteUpdated { epoch: 4 }));
        let peer = |msg| InstOut::Peer { to: 1, msg };
        assert_eq!(
            out,
            [
                InstOut::Event(InstEvent::RouteFlipped(4)),
                peer(InstanceMsg::MigForward { epoch: 4, tuples: late.to_vec() }),
                peer(InstanceMsg::MigEnd { epoch: 4, from: 0 }),
            ]
        );
    }

    /// Recovery replays the log silently — no output, no pair — and
    /// applies the in-flight message with its outputs kept, so each of
    /// its probes is reported once whatever the torn step had computed.
    #[test]
    fn recovery_replays_silently_and_reapplies_the_inflight_message() {
        let mut rig = Rig::new(64);
        rig.feed(RtMsg::Data(vec![item(Side::R, 7, 1), item(Side::S, 7, 2)]));
        assert_eq!((rig.stage.log_len(), rig.pairs.len()), (1, 1));
        // Idle: a recovery has nothing to say.
        assert!(rig.call(true).is_empty());
        assert_eq!(rig.pairs.len(), 1, "a replayed pair left before the crash");
        // Mid-step: whatever the torn step computed is the caller's to
        // drop; the re-application reports the message's probes itself.
        rig.stage.accept(RtMsg::Data(vec![item(Side::S, 7, 3), item(Side::S, 7, 4)]));
        let torn = rig.call(false);
        rig.pairs.truncate(1);
        assert_eq!(rig.call(true), torn);
        assert_eq!(torn, [InstOut::Reports(vec![report(3, 1), report(4, 1)])]);
        assert_eq!(rig.pairs, [(1, 2), (1, 3), (1, 4)]);
        rig.stage.commit();
        assert_eq!(rig.stage.log_len(), 2);
    }

    /// A probe forwarded by a migration source is reported by the target
    /// with the fan-out it was dispatched with: the part the source's
    /// peers complete and the part the target completes agree at the
    /// collector.
    #[test]
    fn a_forwarded_probe_reports_its_dispatch_fanout() {
        let mut rig = Rig::new(64);
        rig.feed(RtMsg::Inst(InstanceMsg::MigStart { epoch: 1, from: 1, keys: vec![7] }));
        let tuples = vec![item(Side::S, 7, 9)];
        let out = rig.feed(RtMsg::Inst(InstanceMsg::MigForward { epoch: 1, tuples }));
        assert_eq!(out, [InstOut::Reports(vec![report(9, 0)])]);
    }
}
