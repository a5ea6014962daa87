//! The dispatcher stage: N data-plane [`Shard`]s routing disjoint key
//! ranges under published snapshots, and one control [`Sequencer`] that
//! owns the authoritative routing table and serializes every route flip,
//! abort and commit. `dispatcher_shards = 1` is simply N = 1.
//!
//! The send-ordering discipline lives here, in exactly one place:
//!
//! * data for a destination accumulates in its [`PendingBatch`] and is
//!   flushed when the queue reaches `batch_size` or its oldest tuple ages
//!   past [`DISPATCH_TICK`];
//! * a shard flushes *everything* it buffered before it installs (and
//!   acknowledges) a published snapshot, and the sequencer releases a
//!   flip's `RouteUpdated` only once every shard acknowledged — so the
//!   batched, sharded channels carry no control message ahead of data
//!   routed under the table it supersedes;
//! * a flush ships the destination's queue itself — stores and probes
//!   interleaved as they were routed — as one [`RtMsg::Data`], so a
//!   channel carries exactly the order the shard routed in.

use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;

use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};

use fastjoin_baselines::{build_partitioners, SystemKind};
use fastjoin_core::config::FastJoinConfig;
use fastjoin_core::dispatcher::{Dispatch, Dispatcher, InstallVerdict};
use fastjoin_core::metrics::MetricsRegistry;
use fastjoin_core::protocol::InstanceMsg;
use fastjoin_core::routing::RouteSnapshot;
use fastjoin_core::trace::{Actor, TraceEvent, TraceKind, TraceRing};
use fastjoin_core::tuple::{Side, Tuple};
use lintmarks::lint;

use super::supervise::{Executor, Pulse};
use super::{CollectorMsg, RuntimeConfig, CTRL_TICK, DISPATCH_TICK, EXECUTOR_TICK};
use crate::fault::ControlKillSwitch;
use crate::msg::{DataItem, DispatcherMsg, MonitorMsg, RtMsg, ShardCtrl, ShardNote, SpoutMsg};

/// Senders to every instance inbox: `[R group, S group]`.
pub(super) type InstanceTxs = [Vec<Sender<RtMsg>>; 2];

/// A destination's accumulation buffer. Store and probe tuples share one
/// ordered queue so their relative arrival order survives batching.
#[derive(Default)]
struct PendingBatch {
    items: Vec<DataItem>,
    /// `now_us` of the spout message that brought the oldest queued item
    /// (deadline flush).
    oldest_us: u64,
}

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
// Shard: ingest, pending batches, flush, fenced install
// ---------------------------------------------------------------------

/// One dispatcher shard. Routes its key range's data under the currently
/// installed [`RouteSnapshot`]; all migration control lives at the
/// sequencer. Publications are served with priority between data
/// messages, and after end-of-stream the shard keeps acknowledging them
/// (trivially — nothing is pending) until the sequencer exits and drops
/// the control channel.
///
/// The struct is the part that survives a panic of [`Executor::run`]:
/// telemetry, the replica's *epoch fence* (inside `dispatcher`), `resync`
/// (a restarted shard defers data until a re-publication rebuilds its
/// routing table to at least the fence) and `saw_eos` (a post-EOS crash
/// re-enters the post-EOS serving phase directly).
pub(super) struct Shard {
    id: usize,
    /// This shard's private routing replica. Consistency across shards
    /// comes from the published snapshots, not from sharing (partitioner
    /// routing methods are `&mut self`); a restart rebuilds it from
    /// `system`/`fj`.
    dispatcher: Dispatcher,
    system: SystemKind,
    fj: FastJoinConfig,
    scratch: Dispatch,
    reg: MetricsRegistry,
    ring: TraceRing,
    /// Per-group, per-destination pending data.
    pending: [Vec<PendingBatch>; 2],
    batch_size: usize,
    links: ShardLinks,
    pulse: Pulse,
    /// Injects `CrashPhase::ShardSnapshotInstall`: a panic at a
    /// publication pop, *before* the install — the hardest point for the
    /// fence, because the sequencer may already be blocked in that
    /// publication's barrier.
    switch: ControlKillSwitch,
    /// Times a bounded send parked on a full inbox (backpressure);
    /// reported as `sends_parked`.
    sends_parked: u64,
    /// High-watermark of this shard's spout → shard data channel: the
    /// backpressure depth an operator sees live and in the report.
    q_hwm: u64,
    /// Tuples routed and probe copies made (Σ fan-out) so far; reported as
    /// `tuples_ingested` / `probe_copies`. Plain fields, not registry
    /// entries, so the per-tuple path pays no name lookup — and, like the
    /// registry, they survive a restart.
    tuples_ingested: u64,
    probe_copies: u64,
    resync: bool,
    saw_eos: bool,
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
        let empty =
            |txs: &Vec<Sender<RtMsg>>| txs.iter().map(|_| PendingBatch::default()).collect();
        Shard {
            id,
            dispatcher: new_dispatcher(cfg.system, &cfg.fastjoin),
            system: cfg.system,
            fj: cfg.fastjoin.clone(),
            scratch: Dispatch::default(),
            reg: MetricsRegistry::new(),
            ring: TraceRing::new(Actor::dispatcher(), &cfg.trace),
            pending: [empty(&links.inst_txs[0]), empty(&links.inst_txs[1])], // lint:allow(both groups exist by construction)
            batch_size: cfg.batch_size.max(1),
            links,
            pulse,
            switch: ControlKillSwitch::new(cfg.faults.shard_crash(id)),
            sends_parked: 0,
            q_hwm: 0,
            tuples_ingested: 0,
            probe_copies: 0,
            resync: false,
            saw_eos: false,
        }
    }

    /// Routes one spout tuple into the per-destination pending queues
    /// (assigning its dispatch seq), flushing any queue that fills. `now`
    /// is when the tuple's spout message was taken off the channel.
    #[lint(hot_path)]
    fn ingest(&mut self, t: Tuple, now: u64) {
        let s = self.links.seq.fetch_add(1, Ordering::Relaxed);
        self.dispatcher.dispatch_into_with_seq(t, s, &mut self.scratch);
        let t = self.scratch.tuple;
        let own = t.side.index();
        let opp = t.side.opposite().index();
        let fanout = self.scratch.probe_dests.len() as u32;
        self.tuples_ingested += 1;
        self.probe_copies += u64::from(fanout);
        let store_dest = self.scratch.store_dest;
        self.enqueue(own, store_dest, DataItem::Store(t), now);
        let dests = std::mem::take(&mut self.scratch.probe_dests);
        for &d in &dests {
            self.enqueue(opp, d, DataItem::Probe(t, fanout), now);
        }
        self.scratch.probe_dests = dests;
        self.ring.push_sampled(TraceEvent {
            at_us: now,
            actor: Actor::dispatcher(),
            kind: TraceKind::Ingest,
            seq: t.seq,
            epoch: 0,
            aux: u64::from(fanout),
            aux2: 0,
        });
    }

    #[lint(hot_path)]
    fn enqueue(&mut self, group: usize, dest: usize, item: DataItem, now: u64) {
        // lint:allow(partitioner contract: routes are < instances())
        let q = &mut self.pending[group][dest];
        if q.items.is_empty() {
            q.oldest_us = now;
        }
        q.items.push(item);
        if q.items.len() >= self.batch_size {
            self.flush_dest(group, dest);
        }
    }

    /// Ships a destination's pending queue, as it is, in one message.
    fn flush_dest(&mut self, group: usize, dest: usize) {
        // lint:allow(callers pass destinations that exist by construction)
        let items = std::mem::take(&mut self.pending[group][dest].items);
        if items.is_empty() {
            return;
        }
        let flushed_at = self.pulse.now_us();
        // Per-tuple dispatch attribution: spout stamp → flush (covers
        // spout-batch residency, queue wait, and batching delay), under
        // one name lookup per flush.
        let dispatch_us = self.reg.histogram_mut("stage.dispatch_us");
        for item in &items {
            dispatch_us.record(flushed_at.saturating_sub(item.tuple().ts));
        }
        // One per flush: (tuples_ingested + probe_copies) / batches_flushed
        // is the batch fill.
        self.reg.counter_add("batches_flushed", 1);
        let tx = &self.links.inst_txs[group][dest]; // lint:allow(callers pass destinations that exist by construction)
        let _ = self.pulse.send(tx, RtMsg::Data(items), &mut self.sends_parked);
    }

    /// Flushes every destination whose oldest pending tuple has waited
    /// [`DISPATCH_TICK`] — the latency bound batching adds.
    fn flush_overdue(&mut self) {
        let now = self.pulse.now_us();
        let deadline = DISPATCH_TICK.as_micros() as u64;
        for group in 0..2 {
            // lint:allow(group is 0 or 1 by construction)
            for dest in 0..self.pending[group].len() {
                // lint:allow(dest ranges over this group's destinations)
                let q = &self.pending[group][dest];
                if !q.items.is_empty() && now.saturating_sub(q.oldest_us) >= deadline {
                    self.flush_dest(group, dest);
                }
            }
        }
    }

    fn flush_all(&mut self) {
        for group in 0..2 {
            // lint:allow(group is 0 or 1 by construction)
            for dest in 0..self.pending[group].len() {
                self.flush_dest(group, dest);
            }
        }
    }

    /// Applies one spout message. Returns `true` when it was the
    /// end-of-stream marker.
    fn on_data(&mut self, msg: SpoutMsg) -> bool {
        match msg {
            SpoutMsg::Data(tuples) => {
                // The message changed hands now: one clock read stamps all
                // of its tuples (queue age, the sampled `Ingest` events).
                let now = self.pulse.now_us();
                for t in tuples {
                    self.ingest(t, now);
                }
            }
            SpoutMsg::Eos => {
                self.flush_all();
                self.ring.push(control_event(&self.pulse, TraceKind::Eos, 0, 0, 0));
                return true;
            }
        }
        false
    }

    /// Applies one publication through the epoch fence.
    /// Flush-then-install is the snapshot-per-batch rule — every pending
    /// batch drains under the snapshot its tuples were routed with, and
    /// no batch ever mixes epochs. Only a *first* install of an epoch
    /// acks (completing the sequencer's barrier): a re-publication after
    /// a restart rebuilds the table but its epoch is already covered by
    /// the fence — acking it again could release a barrier whose flushes
    /// this incarnation never performed — and a snapshot older than the
    /// fence is dropped outright (a resurrected shard must never ack a
    /// superseded snapshot). A live table covering at least this epoch
    /// (`Installed` or `Reinstalled`) is what ends a restarted shard's
    /// resync window.
    fn install_snapshot(&mut self, snap: RouteSnapshot) {
        if self.switch.should_crash() {
            // lint:allow(the injected fail-stop crash IS the fault under test; supervise catches and restarts)
            panic!(
                "fault injection: scheduled crash of dispatch-shard-{} before snapshot install",
                self.id
            );
        }
        self.flush_all();
        let epoch = snap.epoch;
        match self.dispatcher.install_routes_fenced(snap) {
            InstallVerdict::Installed => {
                self.reg.counter_add("snapshot_installs", 1);
                let _ = self.links.note_tx.send(ShardNote::SnapshotLive { shard: self.id, epoch });
                self.resync = false;
            }
            InstallVerdict::Reinstalled => {
                self.reg.counter_add("snapshot_reinstalls", 1);
                self.resync = false;
            }
            InstallVerdict::Superseded => self.reg.counter_add("snapshots_superseded", 1),
        }
    }
}

impl Executor for Shard {
    fn run(&mut self) {
        while !self.saw_eos {
            if !self.pulse.beat() {
                return;
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
            if self.resync {
                // Fresh incarnation, stale table: the rebuilt replica
                // routes under initial routes until a re-published
                // snapshot covers the fence, and routing data before then
                // could contradict epochs the dead incarnation already
                // routed under. The sequencer answers our `Restarted`
                // note promptly, so this window is a few publication
                // round-trips at most.
                thread::sleep(CTRL_TICK);
                continue;
            }
            match self.links.data_rx.recv_timeout(CTRL_TICK) {
                Ok(m) => self.saw_eos = self.on_data(m),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => return,
            }
            self.flush_overdue();
        }
        // The Eos arm ran flush_all, so everything this shard routed is
        // already in the instances' inboxes; tell the sequencer (it
        // broadcasts RtMsg::Eos once every shard has reported — the note
        // is idempotent, which lets a post-EOS restart re-send it), then
        // keep serving publications until the sequencer drops our channel.
        let _ = self.links.note_tx.send(ShardNote::Eos { shard: self.id });
        while self.pulse.beat() {
            match self.links.ctrl_rx.recv_timeout(DISPATCH_TICK) {
                Ok(ShardCtrl::Publish(snap)) => self.install_snapshot(snap),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => return,
            }
        }
    }

    /// Shard recovery: salvage-flush, rebuild the replica behind the
    /// fence, announce the restart.
    fn recover(&mut self, _restarts: u32) {
        // Salvage the dead incarnation's pending batches: every queued
        // tuple was already routed, so flushing preserves per-destination
        // FIFO — and it happens before the fresh incarnation can install
        // (and ack) any snapshot, so data routed under the old table
        // still precedes any barrier release.
        if catch_unwind(AssertUnwindSafe(|| self.flush_all())).is_err() {
            self.reg.counter_add("shard_salvage_failures", 1);
            for q in self.pending.iter_mut().flatten() {
                q.items.clear();
            }
        }
        // The epoch fence outlives the replica: it is what makes it
        // impossible for this incarnation to ack a superseded snapshot.
        let fence = self.dispatcher.fence();
        self.dispatcher = new_dispatcher(self.system, &self.fj);
        self.dispatcher.set_fence(fence);
        self.scratch = Dispatch::default();
        self.reg.counter_add("shard_restarts", 1);
        // The fresh routing table starts at initial routes; if any
        // snapshot was ever installed, defer data until the sequencer's
        // re-publication rebuilds it to (at least) the fence.
        self.resync = fence > 0;
        self.ring.push(control_event(
            &self.pulse,
            TraceKind::ShardRestart,
            0,
            self.id as u64,
            fence,
        ));
        let _ = self.links.note_tx.send(ShardNote::Restarted { shard: self.id, fence });
    }

    fn finish(mut self, collector: &Sender<CollectorMsg>) {
        self.reg.counter_add("sends_parked", self.sends_parked);
        self.reg.counter_add("tuples_ingested", self.tuples_ingested);
        self.reg.counter_add("probe_copies", self.probe_copies);
        let _ = collector.send(CollectorMsg::DispatcherDone {
            registry: Box::new(self.reg),
            journal: Box::new(self.ring.into_journal()),
        });
    }
}

// ---------------------------------------------------------------------
// Sequencer: route / abort / commit, publication barrier, republish
// ---------------------------------------------------------------------

/// The control sequencer: owns the authoritative routing table and
/// serializes every route flip, abort, and commit. A flip runs the
/// publication barrier ([`Sequencer::publish_snapshot`]) before the
/// source's `RouteUpdated` goes out. The sequencer never touches data.
///
/// The struct — and with it the authoritative table, the publication
/// epoch, and the monitor senders — survives a panic of
/// [`Executor::run`]: a sequencer crash loses the thread, never the
/// table. `eos_broadcast` persists so a restart cannot broadcast
/// `RtMsg::Eos` twice.
pub(super) struct Sequencer {
    dispatcher: Dispatcher,
    reg: MetricsRegistry,
    ring: TraceRing,
    /// Routing epochs whose flip was applied (abort refused from then on)
    /// and epochs whose abort won (their late `Route` is discarded).
    /// Entries retire when the monitor's `Commit` closes the round.
    routed: [HashSet<u64>; 2],
    aborted: [HashSet<u64>; 2],
    links: SequencerLinks,
    /// Last published epoch; publication epochs start at 1.
    epoch: u64,
    /// Shards that reported end-of-stream (they still ack publishes).
    eos_shards: HashSet<usize>,
    pulse: Pulse,
    /// Injects `CrashPhase::SequencerBarrier`: the crash fires at the
    /// message boundary, *after* parking the route in `inflight`, so the
    /// restarted loop replays it and the flip is delayed, not lost. (An
    /// organic panic mid-message deliberately loses its message instead:
    /// its outbound effects may already have escaped, and replaying could
    /// publish a flip twice.)
    switch: ControlKillSwitch,
    inflight: Option<DispatcherMsg>,
    eos_broadcast: bool,
    sends_parked: u64,
}

/// The sequencer's channel ends.
pub(super) struct SequencerLinks {
    pub inst_txs: InstanceTxs,
    /// Owned so the EOS epilogue can drop them: the monitors exit on
    /// inbox disconnect, which requires every sender — including the
    /// sequencer's — to be gone.
    pub mon_txs: [Option<Sender<MonitorMsg>>; 2],
    pub ctrl_rx: Receiver<DispatcherMsg>,
    /// Per-shard publish channels.
    pub shard_txs: Vec<Sender<ShardCtrl>>,
    /// The shared channel acks, EOS reports and restart notices come
    /// back on.
    pub note_rx: Receiver<ShardNote>,
}

impl Sequencer {
    pub fn new(cfg: &RuntimeConfig, links: SequencerLinks, pulse: Pulse) -> Self {
        Sequencer {
            dispatcher: new_dispatcher(cfg.system, &cfg.fastjoin),
            reg: MetricsRegistry::new(),
            ring: TraceRing::new(Actor::dispatcher(), &cfg.trace),
            routed: [HashSet::new(), HashSet::new()],
            aborted: [HashSet::new(), HashSet::new()],
            links,
            epoch: 0,
            eos_shards: HashSet::new(),
            pulse,
            switch: ControlKillSwitch::new(cfg.faults.sequencer_crash()),
            inflight: None,
            eos_broadcast: false,
            sends_parked: 0,
        }
    }

    /// Publishes the post-stage routing table to every shard and waits
    /// until each acks that it is live (the cross-shard FIFO barrier). A
    /// shard acks only after flushing every batch it buffered under older
    /// snapshots, so when this returns, all data any shard routed under
    /// the old table is already in the instances' bounded inboxes — the
    /// `RouteUpdated` the caller sends next cannot overtake an old-routed
    /// tuple.
    fn publish_snapshot(&mut self) {
        self.epoch += 1;
        let epoch = self.epoch;
        let snap = self.dispatcher.route_snapshot(epoch);
        // Per-shard ack flags (not a count): a shard that restarts
        // mid-barrier may satisfy the barrier via its `Restarted` note
        // instead of a `SnapshotLive` ack, and a count could not tell a
        // duplicate from a distinct shard. A refused send means the
        // shard's supervisor gave up (fatal — the run is already failing);
        // pre-ack it so the barrier cannot wedge the shutdown path.
        // Post-EOS shards still install and ack (nothing is pending
        // there).
        let mut acked: Vec<bool> =
            (0..self.links.shard_txs.len()).map(|k| !self.publish_to(k, snap.clone())).collect();
        self.reg.counter_add("route_publishes", 1);
        while !acked.iter().all(|a| *a) {
            if !self.pulse.beat() {
                return;
            }
            match self.links.note_rx.recv_timeout(EXECUTOR_TICK) {
                Ok(ShardNote::SnapshotLive { shard, epoch: e }) => {
                    // Acks for superseded epochs (a barrier abandoned by
                    // an emergency stop) are stale; ignore them.
                    if e == epoch {
                        acked[shard] = true; // lint:allow(notes carry the sender's own shard id)
                    }
                }
                Ok(ShardNote::Eos { shard }) => {
                    self.eos_shards.insert(shard);
                }
                Ok(ShardNote::Restarted { shard, fence }) => {
                    // A shard died mid-barrier. Re-publish the snapshot so
                    // the fresh incarnation can rebuild its table; if the
                    // dead incarnation had already installed this epoch
                    // (fence >= epoch), the install is durable in the
                    // fence and only the ack died with the thread — count
                    // the note as the ack. The reinstall itself never acks
                    // (see `Shard::install_snapshot`), so this cannot
                    // double-count.
                    let dead = !self.republish_to(shard, fence);
                    if dead || fence >= epoch {
                        acked[shard] = true; // lint:allow(notes carry the sender's own shard id)
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => return,
            }
        }
    }

    /// Folds queued shard notes outside any publication barrier — EOS
    /// reports, stale acks from a barrier abandoned on emergency stop
    /// (dropped), and restart notices (answered with a re-publication of
    /// the current snapshot so the fresh incarnation rebuilds its routing
    /// table).
    fn fold_notes(&mut self) {
        while let Ok(note) = self.links.note_rx.try_recv() {
            match note {
                ShardNote::Eos { shard } => {
                    self.eos_shards.insert(shard);
                }
                ShardNote::SnapshotLive { .. } => {}
                ShardNote::Restarted { shard, .. } => {
                    self.republish_to(shard, 0);
                }
            }
        }
    }

    /// Re-sends the current snapshot to one shard; `false` when that
    /// shard's channel is gone. No-op before the first publication: with
    /// fence 0 a fresh incarnation is not resyncing and its initial
    /// routing table is already correct. Duplicates are harmless: the
    /// shard-side epoch fence turns them into ack-free reinstalls.
    fn republish_to(&mut self, shard: usize, fence: u64) -> bool {
        if self.epoch == 0 {
            return true;
        }
        let snap = self.dispatcher.route_snapshot(self.epoch);
        self.reg.counter_add("snapshot_republishes", 1);
        self.ring.push(control_event(
            &self.pulse,
            TraceKind::SnapshotRepublish,
            self.epoch,
            shard as u64,
            fence,
        ));
        self.publish_to(shard, snap)
    }

    /// Queues `snap` at one shard; `false` when that shard's channel is
    /// gone.
    fn publish_to(&self, shard: usize, snap: RouteSnapshot) -> bool {
        // lint:allow(callers pass shard ids from notes or the shard range)
        self.links.shard_txs[shard].send(ShardCtrl::Publish(snap)).is_ok()
    }

    /// Sends one control message to a migration source. Its inbox also
    /// carries the shards' data, so the send may park on backpressure.
    fn notify_source(&mut self, group: usize, source: usize, msg: InstanceMsg) {
        // lint:allow(group is 0 or 1 and source is a valid instance id: both come from our own executors)
        let tx = &self.links.inst_txs[group][source];
        let _ = self.pulse.send(tx, RtMsg::Inst(msg), &mut self.sends_parked);
    }

    /// Applies one control message.
    fn on_msg(&mut self, msg: DispatcherMsg) {
        match msg {
            DispatcherMsg::Route { group, req } => {
                let side = if group == 0 { Side::R } else { Side::S };
                let ok = self.dispatcher.stage_route(side, &req);
                assert!(ok, "route update on non-migratable partitioner"); // lint:allow(config contract: dynamic mode implies a migratable partitioner)
                                                                           // lint:allow(group is 0 or 1: monitors and targets send their own group id)
                let lost_to_abort = self.aborted[group].contains(&req.epoch);
                if lost_to_abort {
                    // The abort beat this flip to the serialization point:
                    // stage-and-revert leaves the table at its last
                    // committed contents (version bumped twice) and the
                    // source never sees `RouteUpdated` — it already got
                    // `MigAbort` on the same channel.
                    let reverted = self.dispatcher.revert_route(side, req.epoch);
                    debug_assert!(reverted);
                    self.reg.counter_add("route_reverts", 1);
                } else {
                    self.routed[group].insert(req.epoch); // lint:allow(group is 0 or 1: monitors and targets send their own group id)
                    self.reg.counter_add("route_updates", 1);
                }
                self.ring.push(control_event(
                    &self.pulse,
                    TraceKind::RouteStaged,
                    req.epoch,
                    self.dispatcher.route_version(side),
                    group as u64,
                ));
                if !lost_to_abort {
                    // Every shard must be routing under the new table —
                    // with its old-snapshot batches flushed — before the
                    // source learns the flip happened.
                    self.publish_snapshot();
                    self.notify_source(
                        group,
                        req.source,
                        InstanceMsg::RouteUpdated { epoch: req.epoch },
                    );
                }
            }
            DispatcherMsg::Abort { group, epoch, source } => {
                let accept = !self.routed[group].contains(&epoch); // lint:allow(group is 0 or 1: the monitor sends its own group id)
                                                                   // The verdict goes to the monitor BEFORE `MigAbort` goes
                                                                   // to the source: the source's rollback ack (a
                                                                   // `MigrationDone`) races the verdict on the monitor's
                                                                   // inbox, and with short bounded inboxes an idle source can
                                                                   // ack within microseconds — if the ack won, the monitor
                                                                   // would close the round as abandoned instead of aborted.
                                                                   // lint:allow(group is 0 or 1: the monitor sends its own group id)
                if let Some(mon) = &self.links.mon_txs[group] {
                    let _ = mon.send(MonitorMsg::AbortOutcome { epoch, aborted: accept });
                }
                if accept {
                    self.aborted[group].insert(epoch); // lint:allow(group is 0 or 1: the monitor sends its own group id)
                    self.reg.counter_add("migration_aborts", 1);
                    self.ring.push(control_event(
                        &self.pulse,
                        TraceKind::MigAbort,
                        epoch,
                        source as u64,
                        group as u64,
                    ));
                    // An abort leaves the committed table unchanged, so
                    // there is nothing to publish.
                    self.notify_source(group, source, InstanceMsg::MigAbort { epoch });
                }
            }
            DispatcherMsg::Commit { group, epoch } => {
                let side = if group == 0 { Side::R } else { Side::S };
                if self.dispatcher.commit_route(side, epoch) {
                    self.reg.counter_add("route_commits", 1);
                    self.ring.push(control_event(
                        &self.pulse,
                        TraceKind::RouteUpdated,
                        epoch,
                        self.dispatcher.route_version(side),
                        group as u64,
                    ));
                }
                self.routed[group].remove(&epoch); // lint:allow(group is 0 or 1: the monitor sends its own group id)
                self.aborted[group].remove(&epoch); // lint:allow(group is 0 or 1: the monitor sends its own group id)
            }
        }
    }

    /// EOS epilogue, once every shard's data is flushed: serve
    /// already-queued control, broadcast `Eos` — which lands after all
    /// shard data on every (FIFO) instance channel — and release the
    /// monitor senders so the monitors can exit (they in turn release
    /// `ctrl_rx`, ending [`Executor::run`]). Control racing the shutdown
    /// handshake keeps being served afterwards: breaking out here once
    /// silently dropped a late Route and its source never saw
    /// `RouteUpdated`.
    fn broadcast_eos(&mut self) {
        while let Ok(m) = self.links.ctrl_rx.try_recv() {
            self.on_msg(m);
        }
        self.ring.push(control_event(&self.pulse, TraceKind::Eos, 0, 0, 0));
        for tx in self.links.inst_txs.iter().flatten() {
            let _ = self.pulse.send(tx, RtMsg::Eos, &mut self.sends_parked);
        }
        self.links.mon_txs = [None, None];
        self.eos_broadcast = true;
    }
}

impl Executor for Sequencer {
    fn run(&mut self) {
        while self.pulse.beat() {
            // A message parked at a crash boundary replays first;
            // otherwise a control send wakes this wait directly (no data
            // channel in between), so flips are served at channel latency
            // and the timeout only bounds how late the shard notes below
            // are noticed.
            let next = match self.inflight.take() {
                Some(m) => Some(m),
                None => match self.links.ctrl_rx.recv_timeout(DISPATCH_TICK) {
                    Ok(m) => Some(m),
                    Err(RecvTimeoutError::Timeout) => None,
                    Err(RecvTimeoutError::Disconnected) => return,
                },
            };
            if let Some(m) = next {
                if matches!(m, DispatcherMsg::Route { .. }) && self.switch.should_crash() {
                    self.inflight = Some(m);
                    // lint:allow(the injected fail-stop crash IS the fault under test; supervise catches, restarts, and the parked message replays)
                    panic!(
                        "fault injection: scheduled crash of dispatch-seq before a route publication"
                    );
                }
                self.on_msg(m);
            }
            self.fold_notes();
            if !self.eos_broadcast && self.eos_shards.len() == self.links.shard_txs.len() {
                self.broadcast_eos();
            }
        }
    }

    /// Sequencer recovery: an organic panic may have abandoned a
    /// publication mid-barrier; re-publishing the current snapshot to
    /// every shard heals any divergence. Then the loop resumes, replaying
    /// a message parked at an injected crash boundary first.
    fn recover(&mut self, _restarts: u32) {
        self.reg.counter_add("sequencer_restarts", 1);
        for shard in 0..self.links.shard_txs.len() {
            self.republish_to(shard, 0);
        }
    }

    fn finish(mut self, collector: &Sender<CollectorMsg>) {
        self.reg.counter_add("sends_parked", self.sends_parked);
        let _ = collector.send(CollectorMsg::DispatcherDone {
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
    use fastjoin_core::protocol::RouteRequest;
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

    fn test_cfg(shards: usize, n: usize, batch_size: usize) -> RuntimeConfig {
        RuntimeConfig {
            fastjoin: FastJoinConfig { instances_per_group: n, ..FastJoinConfig::default() },
            batch_size,
            dispatcher_shards: shards,
            ..RuntimeConfig::default()
        }
    }

    fn spawn_sharded(shards: usize, n: usize, cap: usize, batch_size: usize) -> Harness {
        let cfg = test_cfg(shards, n, batch_size);
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
            mon_txs: [None, None],
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

    /// One spout tuple as the spout ships it at `batch_size = 1`.
    fn one(t: Tuple) -> SpoutMsg {
        SpoutMsg::Data(vec![t])
    }

    /// The tuples a message delivers for storing (none for non-data).
    fn stores(msg: &RtMsg) -> Vec<Tuple> {
        match msg {
            RtMsg::Data(items) => items
                .iter()
                .filter_map(|item| match item {
                    DataItem::Store(t) => Some(*t),
                    DataItem::Probe(..) => None,
                })
                .collect(),
            RtMsg::Inst(_) | RtMsg::ProbeHandoff(_) | RtMsg::ReportRequest | RtMsg::Eos => {
                Vec::new()
            }
        }
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
        h.data_txs[0].send(one(Tuple::r(k_a, 0, 100))).expect("t1");
        // Give the shard time to park on the full inbox before the
        // control messages and the second tuple are enqueued.
        thread::sleep(Duration::from_millis(50));
        // Two flips, published the way the sequencer does: the first
        // moves k_a to instance 1, the second moves k_b as well.
        let fj = FastJoinConfig { instances_per_group: 2, ..FastJoinConfig::default() };
        let mut table = new_dispatcher(SystemKind::FastJoin, &fj);
        for (epoch, key) in [(1, k_a), (2, k_b)] {
            let req = RouteRequest { epoch, keys: vec![key], target: 1, source: 0 };
            assert!(table.stage_route(Side::R, &req));
            h.publish_txs[0].send(ShardCtrl::Publish(table.route_snapshot(epoch))).expect("flip");
        }
        h.data_txs[0].send(one(Tuple::r(k_b, 0, 200))).expect("t2");
        h.data_txs[0].send(SpoutMsg::Eos).expect("eos");
        let stores_until_eos = |rx: &Receiver<RtMsg>| {
            let mut payloads = Vec::new();
            loop {
                match recv(rx, "group-0 stream") {
                    RtMsg::Eos => return payloads,
                    m => payloads.extend(stores(&m).iter().map(|t| t.payload)),
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

    /// A flush ships the destination's queue as one message: an interleaved
    /// R/S input to a single destination arrives in ⌈n / batch_size⌉
    /// messages (the last one the EOS remainder), stores and probes mixed
    /// in arrival order, with per-tuple identity (seq, fan-out) intact.
    #[test]
    fn a_flush_ships_the_interleaved_queue_as_one_message() {
        // n = 1 instance per group: every R tuple is stored at inst[0][0]
        // and probes inst[1][0]; every S tuple the other way round. So
        // inst[0][0] sees R stores and S probes interleaved.
        let h = spawn_sharded(1, 1, 64, 4);
        let input: Vec<Tuple> = (0..10)
            .map(|i| if i % 2 == 0 { Tuple::r(i, 0, i) } else { Tuple::s(i, 0, i) })
            .collect();
        h.data_txs[0].send(SpoutMsg::Data(input)).expect("batch");
        h.data_txs[0].send(SpoutMsg::Eos).expect("eos");
        for (g, store_side) in [(0, Side::R), (1, Side::S)] {
            let mut sizes = Vec::new();
            let mut items = Vec::new();
            loop {
                match recv(&h.rxs[g][0], "data stream") {
                    RtMsg::Data(batch) => {
                        sizes.push(batch.len());
                        items.extend(batch);
                    }
                    RtMsg::Eos => break,
                    other => panic!("unexpected on data channel: {other:?}"),
                }
            }
            assert_eq!(sizes, vec![4, 4, 2], "group {g}: one message per flush");
            assert_eq!(
                items.iter().map(|item| item.tuple().payload).collect::<Vec<_>>(),
                (0..10).collect::<Vec<_>>(),
                "group {g}: arrival order"
            );
            assert!(
                items.windows(2).all(|w| w[0].tuple().seq < w[1].tuple().seq),
                "group {g}: dispatch seqs stay ordered"
            );
            for item in &items {
                match item {
                    DataItem::Store(t) => assert_eq!(t.side, store_side, "group {g} stores"),
                    DataItem::Probe(t, fanout) => {
                        assert_eq!(t.side, store_side.opposite(), "group {g} probes");
                        assert_eq!(*fanout, 1, "n = 1: every probe has fan-out 1");
                    }
                }
            }
        }
        shutdown(h);
    }

    /// Regression test (sharded routing consistency). Queues a route flip
    /// while a shard still holds data routed under the old snapshot and
    /// asserts the two halves of the snapshot-per-batch contract:
    ///
    /// (a) the flip's `RouteUpdated` is withheld until every shard has
    ///     flushed its old-snapshot data — no tuple is ever overtaken by
    ///     the flip notification, i.e. nothing is delivered as if routed
    ///     by a snapshot older than its batch's; afterwards, every shard
    ///     routes strictly under the published snapshot (tuples for a
    ///     migrated key land on the new owner from every shard);
    /// (b) an unobstructed flip commits at control-channel latency, not a
    ///     full [`DISPATCH_TICK`] data-poll round.
    #[test]
    fn sharded_flip_waits_for_old_snapshot_data_and_commits_promptly() {
        let cap = 8;
        let h = spawn_sharded(2, 2, cap, 1);
        let k_a = keys_stored_at(2, 0)[0];
        let k_b = keys_stored_at(2, 1)[0];
        // Park shard 1: fill inst[0][1]'s inbox, then feed shard 1 a
        // tuple storing there — its flush blocks mid-send, holding data
        // routed under the pre-flip snapshot in flight.
        for _ in 0..cap {
            h.extra_txs[0][1].send(RtMsg::ReportRequest).expect("pre-fill");
        }
        h.data_txs[1].send(one(Tuple::r(k_b, 0, 1))).expect("park shard 1");
        // Shard 0's tuple flushes immediately (batch_size 1, free inbox).
        h.data_txs[0].send(one(Tuple::r(k_a, 0, 1))).expect("t via shard 0");
        assert!(
            matches!(stores(&recv(&h.rxs[0][0], "shard 0 store")).as_slice(), [t] if t.key == k_a),
            "shard 0's store reaches inst[0][0]"
        );
        // Give shard 1 ample time to dequeue its tuple and block in the
        // flush send before the flip goes in.
        thread::sleep(Duration::from_millis(100));
        let req = RouteRequest { epoch: 5, keys: Vec::new(), target: 1, source: 0 };
        h.ctrl_tx.send(DispatcherMsg::Route { group: 0, req }).expect("send flip");
        // (a) With shard 1 still holding old-snapshot data, the source
        // must NOT see RouteUpdated.
        thread::sleep(Duration::from_millis(30));
        assert!(
            h.rxs[0][0].try_recv().is_err(),
            "RouteUpdated must wait for every shard to flush old-snapshot data"
        );
        // Release shard 1: drain the parked inbox. Its flush completes,
        // it installs the snapshot and acks, and the barrier opens.
        let mut released = false;
        for _ in 0..(cap + 1) {
            match recv(&h.rxs[0][1], "parked inbox") {
                RtMsg::ReportRequest => {}
                m => {
                    assert!(
                        matches!(stores(&m).as_slice(), [t] if t.key == k_b),
                        "unexpected in parked inbox: {m:?}"
                    );
                    released = true;
                    break;
                }
            }
        }
        assert!(released, "shard 1's parked store must drain");
        assert!(
            matches!(
                recv(&h.rxs[0][0], "RouteUpdated after barrier"),
                RtMsg::Inst(InstanceMsg::RouteUpdated { epoch: 5 })
            ),
            "flip commits once every shard acked the snapshot"
        );
        // (b) Unobstructed flips commit at channel latency. The fastest
        // of several tries must beat one DISPATCH_TICK — a barrier or
        // control path that ever waits out a data-poll round cannot.
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
        // Post-flip snapshot consistency: migrate k_a to instance 1 and
        // verify BOTH shards route it under the published snapshot.
        let req = RouteRequest { epoch: 20, keys: vec![k_a], target: 1, source: 0 };
        h.ctrl_tx.send(DispatcherMsg::Route { group: 0, req }).expect("migrating flip");
        assert!(
            matches!(
                recv(&h.rxs[0][0], "migrating RouteUpdated"),
                RtMsg::Inst(InstanceMsg::RouteUpdated { epoch: 20 })
            ),
            "migrating flip commits"
        );
        for tx in &h.data_txs {
            tx.send(one(Tuple::r(k_a, 0, 2))).expect("post-flip tuple");
        }
        for tx in &h.data_txs {
            tx.send(SpoutMsg::Eos).expect("eos");
        }
        // Drain in the sequencer's Eos broadcast order, counting where
        // the post-flip (payload 2) stores landed per inbox.
        let mut stores_at = [[0usize; 2]; 2];
        for (g, row) in stores_at.iter_mut().enumerate() {
            for (i, rx) in h.rxs[g].iter().enumerate() {
                loop {
                    match recv(rx, "drain to Eos") {
                        RtMsg::Eos => break,
                        m => row[i] += stores(&m).iter().filter(|t| t.payload == 2).count(),
                    }
                }
            }
        }
        assert_eq!(
            stores_at[0],
            [0, 2],
            "every shard must route the migrated key under the published snapshot"
        );
        shutdown(h);
    }
}
