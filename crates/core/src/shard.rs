//! One dispatcher shard as a pure transition: routing replica, pending
//! batches, fenced snapshot install.
//!
//! A [`Shard`] routes its key range's data under the currently installed
//! [`RouteSnapshot`]; all migration control lives at the
//! [`crate::sequencer::Sequencer`]. It has no channel, clock or thread:
//! every input ([`Shard::data`], [`Shard::publish`], [`Shard::tick`],
//! [`Shard::eos`], [`Shard::restart`]) appends to a caller-owned
//! **ordered** output sequence of [`ShardOut`]s, and the embedding shell —
//! the threaded runtime, the model checker — sends them *in that order*.
//! The order is the protocol:
//!
//! * data for a destination accumulates in its pending queue and is
//!   flushed when the queue reaches `batch_size` or its oldest tuple has
//!   waited too long ([`Shard::tick`]);
//! * a publication flushes *everything* buffered before the snapshot is
//!   installed, and the acknowledgement follows the flushes it justifies —
//!   so, with the sequencer releasing a flip's `RouteUpdated` only once
//!   every shard acknowledged, no channel carries a control message ahead
//!   of data routed under the table it supersedes;
//! * a flush ships the destination's queue itself — stores and probes
//!   interleaved as they were routed — so a channel carries exactly the
//!   order the shard routed in.

use std::collections::VecDeque;

use lintmarks::lint;

use crate::dispatcher::{Dispatch, Dispatcher};
use crate::protocol::ShardNote;
use crate::routing::RouteSnapshot;
use crate::trace::{Actor, TraceEvent, TraceKind, TraceRing};
use crate::tuple::{Seq, Tuple};

/// A destination's accumulation buffer. Store and probe tuples share one
/// ordered queue so their relative arrival order survives batching; the
/// destination tells them apart by `side` (its group stores one side and
/// probes with the other).
#[derive(Debug, Clone, Default)]
struct PendingBatch {
    items: Vec<Tuple>,
    /// `now` of the input message that brought the oldest queued item
    /// (deadline flush).
    oldest_us: u64,
}

/// Verdict of a publication against a shard's *epoch fence* — the highest
/// snapshot epoch it ever installed, which survives a restart. That is what
/// makes re-publication after a restart safe: a resurrected shard may
/// *re-install* the current snapshot to rebuild its table but can never
/// acknowledge a superseded one, so a duplicate `Publish` (original +
/// post-restart replay) yields exactly one acknowledgement and a stale ack
/// cannot release the sequencer's barrier early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstallVerdict {
    /// `epoch > fence`: installed, the fence advanced, acknowledged.
    Installed,
    /// `epoch == fence`: the table was rebuilt from a re-published copy of
    /// the already-fenced snapshot. Not acknowledged — the original install
    /// already was (or is being credited via the restart note).
    Reinstalled,
    /// `epoch < fence`: a superseded snapshot; dropped entirely.
    Superseded,
}

/// One element of a shard's ordered output sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardOut {
    /// Ship `items` — a destination's pending queue, as it was — to
    /// instance `dest` of group `group` as one message.
    Flush {
        /// Destination group (0 = R-storing, 1 = S-storing).
        group: usize,
        /// Destination instance within the group.
        dest: usize,
        /// The queue, in routing order.
        items: Vec<Tuple>,
    },
    /// Tell the sequencer.
    Note(ShardNote),
}

/// One dispatcher shard. Everything in here survives a crash of the
/// thread driving it: the *epoch fence*, `resync` (a restarted shard
/// accepts no data until a re-publication rebuilds its routing table to at
/// least the fence), `saw_eos` and the counters.
#[derive(Debug, Clone)]
pub struct Shard {
    id: usize,
    /// This shard's private routing replica. Consistency across shards
    /// comes from the published snapshots, not from sharing (partitioner
    /// routing methods are `&mut self`).
    dispatcher: Dispatcher,
    /// Highest snapshot epoch ever installed (see [`InstallVerdict`]).
    fence: u64,
    scratch: Dispatch,
    /// Per-group, per-destination pending data.
    pending: [Vec<PendingBatch>; 2],
    batch_size: usize,
    resync: bool,
    saw_eos: bool,
    tuples_ingested: u64,
    probe_copies: u64,
}

impl Shard {
    /// Shard `id` routing under `dispatcher`'s (initial) routes, flushing
    /// a destination once `batch_size` (≥ 1) items are pending for it.
    #[must_use]
    pub fn new(id: usize, dispatcher: Dispatcher, batch_size: usize) -> Self {
        let queues = |side| {
            let n = dispatcher.partitioner(side).instances();
            (0..n).map(|_| PendingBatch::default()).collect()
        };
        Shard {
            id,
            pending: [queues(crate::tuple::Side::R), queues(crate::tuple::Side::S)],
            dispatcher,
            fence: 0,
            scratch: Dispatch::default(),
            batch_size: batch_size.max(1),
            resync: false,
            saw_eos: false,
            tuples_ingested: 0,
            probe_copies: 0,
        }
    }

    /// True while a restarted shard waits for the re-publication that
    /// rebuilds its routing table: the fresh replica routes under initial
    /// routes, and routing data before then could contradict epochs the
    /// dead incarnation already routed under. [`Shard::data`] refuses.
    #[must_use]
    pub fn resyncing(&self) -> bool {
        self.resync
    }

    /// True once [`Shard::eos`] ran (it survives a restart).
    #[must_use]
    pub fn saw_eos(&self) -> bool {
        self.saw_eos
    }

    /// The highest snapshot epoch ever installed (0 = none).
    #[must_use]
    pub fn fence(&self) -> u64 {
        self.fence
    }

    /// Tuples routed and probe copies made (Σ fan-out) so far.
    #[must_use]
    pub fn counts(&self) -> (u64, u64) {
        (self.tuples_ingested, self.probe_copies)
    }

    /// Routes one spout message. The tuples take the dispatch seqs
    /// `first_seq..`, which the caller reserved (they must be unique across
    /// shards); `now` is when the message changed hands and stamps queue
    /// age and the sampled `Ingest` events pushed into `ring`. Returns
    /// `false`, routing nothing, while the shard is
    /// [resyncing](Shard::resyncing).
    pub fn data(
        &mut self,
        tuples: &[Tuple],
        first_seq: Seq,
        now: u64,
        ring: &mut TraceRing,
        out: &mut VecDeque<ShardOut>,
    ) -> bool {
        if self.resync {
            return false;
        }
        for (seq, &t) in (first_seq..).zip(tuples) {
            self.ingest(t, seq, now, ring, out);
        }
        true
    }

    /// Routes one tuple into the per-destination pending queues, flushing
    /// any queue that fills.
    #[lint(hot_path)]
    fn ingest(
        &mut self,
        t: Tuple,
        seq: Seq,
        now: u64,
        ring: &mut TraceRing,
        out: &mut VecDeque<ShardOut>,
    ) {
        self.dispatcher.dispatch_into_with_seq(t, seq, &mut self.scratch);
        let t = self.scratch.tuple;
        let own = t.side.index();
        let opp = t.side.opposite().index();
        self.tuples_ingested += 1;
        self.probe_copies += u64::from(t.fanout);
        let store_dest = self.scratch.store_dest;
        self.enqueue(own, store_dest, t, now, out);
        let dests = std::mem::take(&mut self.scratch.probe_dests);
        for &d in &dests {
            self.enqueue(opp, d, t, now, out);
        }
        self.scratch.probe_dests = dests;
        ring.push_sampled(TraceEvent {
            at_us: now,
            actor: Actor::dispatcher(),
            kind: TraceKind::Ingest,
            seq: t.seq,
            epoch: 0,
            aux: u64::from(t.fanout),
            aux2: 0,
        });
    }

    #[lint(hot_path)]
    fn enqueue(
        &mut self,
        group: usize,
        dest: usize,
        item: Tuple,
        now: u64,
        out: &mut VecDeque<ShardOut>,
    ) {
        // lint:allow(partitioner contract: routes are < instances())
        let q = &mut self.pending[group][dest];
        if q.items.is_empty() {
            q.oldest_us = now;
        }
        q.items.push(item);
        if q.items.len() >= self.batch_size {
            self.flush_dest(group, dest, out);
        }
    }

    /// Moves a destination's pending queue, as it is, into one `Flush`.
    fn flush_dest(&mut self, group: usize, dest: usize, out: &mut VecDeque<ShardOut>) {
        // lint:allow(callers pass destinations that exist by construction)
        let items = std::mem::take(&mut self.pending[group][dest].items);
        if !items.is_empty() {
            out.push_back(ShardOut::Flush { group, dest, items });
        }
    }

    fn flush_all(&mut self, out: &mut VecDeque<ShardOut>) {
        self.tick(u64::MAX, 0, out);
    }

    /// Flushes every destination whose oldest pending tuple has waited
    /// `max_age_us` by `now` — the latency bound batching adds.
    pub fn tick(&mut self, now: u64, max_age_us: u64, out: &mut VecDeque<ShardOut>) {
        for group in 0..2 {
            // lint:allow(group is 0 or 1 by construction)
            for dest in 0..self.pending[group].len() {
                // lint:allow(dest ranges over this group's destinations)
                let q = &self.pending[group][dest];
                if !q.items.is_empty() && now.saturating_sub(q.oldest_us) >= max_age_us {
                    self.flush_dest(group, dest, out);
                }
            }
        }
    }

    /// Applies one publication through the epoch fence (see
    /// [`InstallVerdict`]). Flush-then-install is the snapshot-per-batch
    /// rule — every pending batch drains under the snapshot its tuples
    /// were routed with, and no batch ever mixes epochs. Only a *first*
    /// install acknowledges (`SnapshotLive`, behind the flushes); a live
    /// table covering at least this epoch (`Installed` or `Reinstalled`)
    /// is what ends a restarted shard's resync window.
    pub fn publish(&mut self, snap: RouteSnapshot, out: &mut VecDeque<ShardOut>) -> InstallVerdict {
        self.flush_all(out);
        let epoch = snap.epoch;
        if epoch < self.fence {
            return InstallVerdict::Superseded;
        }
        let first = epoch > self.fence;
        self.fence = epoch;
        self.dispatcher.install_routes(snap);
        self.resync = false;
        if first {
            out.push_back(ShardOut::Note(ShardNote::SnapshotLive { shard: self.id, epoch }));
            InstallVerdict::Installed
        } else {
            InstallVerdict::Reinstalled
        }
    }

    /// End of the spout's stream: flush everything, then report
    /// [`ShardNote::Eos`]. The shard keeps serving publications
    /// (trivially — nothing is pending) afterwards.
    pub fn eos(&mut self, out: &mut VecDeque<ShardOut>) {
        self.flush_all(out);
        self.saw_eos = true;
        out.push_back(ShardOut::Note(ShardNote::Eos { shard: self.id }));
    }

    /// Recovery after a crash of the driving thread.
    ///
    /// Salvage-flushes the dead incarnation's pending batches — every
    /// queued tuple was already routed, so flushing preserves
    /// per-destination FIFO, and it precedes any install (and ack) of the
    /// fresh incarnation, so data routed under the old table still
    /// precedes any barrier release. Then the replica is replaced by
    /// `fresh` — a dispatcher at the stage's initial routes — *behind the
    /// fence*, which outlives it: that is what makes it impossible for
    /// this incarnation to acknowledge a superseded snapshot. If any
    /// snapshot was ever installed the shard resyncs until a
    /// re-publication covers the fence. Announces [`ShardNote::Restarted`]
    /// (and, past end-of-stream, `Eos` again — the note is idempotent and
    /// may have died with the thread).
    pub fn restart(&mut self, fresh: Dispatcher, out: &mut VecDeque<ShardOut>) {
        self.flush_all(out);
        self.dispatcher = fresh;
        self.scratch = Dispatch::default();
        self.resync = self.fence > 0;
        out.push_back(ShardOut::Note(ShardNote::Restarted { shard: self.id, fence: self.fence }));
        if self.saw_eos {
            out.push_back(ShardOut::Note(ShardNote::Eos { shard: self.id }));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::HashPartitioner;
    use crate::protocol::RouteRequest;
    use crate::trace::TraceConfig;
    use crate::tuple::Side;

    fn table(n: usize) -> Dispatcher {
        Dispatcher::new(Box::new(HashPartitioner::new(n, 0)), Box::new(HashPartitioner::new(n, 1)))
    }

    /// The first key whose group-0 store route is `want`.
    fn key_stored_at(n: usize, want: usize) -> u64 {
        let mut d = table(n);
        (0u64..1024).find(|k| d.dispatch(Tuple::r(*k, 0, 0)).store_dest == want).expect("a key")
    }

    /// The table the sequencer would publish under `epoch` after flipping
    /// `key` of group 0 to instance 1.
    fn flipped(epoch: u64, key: u64) -> RouteSnapshot {
        let mut table = table(2);
        let req = RouteRequest { epoch, keys: vec![key], target: 1, source: 0 };
        assert!(table.apply_route(Side::R, &req));
        table.route_snapshot(epoch)
    }

    /// A shard whose outputs are read back one line each: a note as it
    /// prints, a flush as `g<group>.<dest>` and its items — `s<payload>`
    /// for a store, `p<payload>/<fan-out>` for a probe, each `@<seq>`.
    struct Rig(Shard);

    impl Rig {
        fn step(&mut self, input: impl FnOnce(&mut Shard, &mut VecDeque<ShardOut>)) -> Vec<String> {
            let mut out = VecDeque::new();
            input(&mut self.0, &mut out);
            let line = |o| match o {
                ShardOut::Flush { group, dest, items } => {
                    items.iter().fold(format!("g{group}.{dest}"), |line, t| {
                        if t.side.index() == group {
                            format!("{line} s{}@{}", t.payload, t.seq)
                        } else {
                            format!("{line} p{}/{}@{}", t.payload, t.fanout, t.seq)
                        }
                    })
                }
                ShardOut::Note(note) => format!("{note:?}"),
            };
            out.into_iter().map(line).collect()
        }

        /// Routes `tuples` (seqs from 1, taken at `now`).
        fn data(&mut self, tuples: &[Tuple], now: u64) -> Vec<String> {
            let mut ring = TraceRing::new(Actor::dispatcher(), &TraceConfig::disabled());
            self.step(|shard, out| assert!(shard.data(tuples, 1, now, &mut ring, out)))
        }

        fn publish(&mut self, snap: &RouteSnapshot, expect: InstallVerdict) -> Vec<String> {
            self.step(|shard, out| assert_eq!(shard.publish(snap.clone(), out), expect))
        }

        fn restart(&mut self) -> Vec<String> {
            self.step(|shard, out| shard.restart(table(2), out))
        }
    }

    /// A flush ships the destination's queue as one message: an
    /// interleaved R/S input to a single destination leaves in
    /// ⌈n / batch_size⌉ flushes (the last one the EOS remainder), stores
    /// and probes mixed in arrival order, with per-tuple identity (seq,
    /// fan-out) intact.
    #[test]
    fn a_flush_ships_the_interleaved_queue_as_one_message() {
        // n = 1 instance per group: every R tuple is stored at inst[0][0]
        // and probes inst[1][0]; every S tuple the other way round.
        let mut rig = Rig(Shard::new(0, table(1), 4));
        let input: Vec<Tuple> = (0..10)
            .map(|i| if i % 2 == 0 { Tuple::r(i, 0, i) } else { Tuple::s(i, 0, i) })
            .collect();
        let mut lines = rig.data(&input, 7);
        lines.extend(rig.step(Shard::eos));
        assert_eq!(
            lines,
            [
                "g1.0 p0/1@1 s1@2 p2/1@3 s3@4",
                "g0.0 s0@1 p1/1@2 s2@3 p3/1@4",
                "g1.0 p4/1@5 s5@6 p6/1@7 s7@8",
                "g0.0 s4@5 p5/1@6 s6@7 p7/1@8",
                "g0.0 s8@9 p9/1@10",
                "g1.0 p8/1@9 s9@10",
                "Eos { shard: 0 }",
            ]
        );
        assert_eq!(rig.0.counts(), (10, 10));
    }

    #[test]
    fn only_a_first_install_acks_and_any_live_table_ends_resync() {
        let k_a = key_stored_at(2, 0);
        let (old, new) = (table(2).route_snapshot(1), flipped(2, k_a));
        let mut rig = Rig(Shard::new(0, table(2), 1));
        let acked = rig.publish(&new, InstallVerdict::Installed);
        assert_eq!(acked, ["SnapshotLive { shard: 0, epoch: 2 }"]);
        // A crash: the fence survives, the table does not.
        assert_eq!(rig.restart(), ["Restarted { shard: 0, fence: 2 }"]);
        assert!(rig.0.resyncing());
        // Superseded: neither acks nor ends the resync.
        assert!(rig.publish(&old, InstallVerdict::Superseded).is_empty() && rig.0.resyncing());
        // Reinstalled: rebuilds the table, ends the resync, does not ack.
        assert!(rig.publish(&new, InstallVerdict::Reinstalled).is_empty() && !rig.0.resyncing());
        assert_eq!(rig.data(&[Tuple::r(k_a, 0, 9)], 0)[0], "g0.1 s9@1", "the rebuilt table routes");
    }

    #[test]
    fn a_resyncing_shard_accepts_no_data() {
        let mut rig = Rig(Shard::new(0, table(2), 1));
        rig.publish(&table(2).route_snapshot(1), InstallVerdict::Installed);
        rig.restart();
        let mut ring = TraceRing::new(Actor::dispatcher(), &TraceConfig::disabled());
        let refused =
            rig.step(|s, out| assert!(!s.data(&[Tuple::r(1, 0, 0)], 1, 0, &mut ring, out)));
        assert!(refused.is_empty() && rig.0.counts() == (0, 0));
        // Before any snapshot was installed a restart has nothing to wait for.
        let mut fresh = Rig(Shard::new(1, table(2), 1));
        assert_eq!(fresh.restart(), ["Restarted { shard: 1, fence: 0 }"]);
        assert!(!fresh.0.resyncing());
    }

    #[test]
    fn a_restart_salvages_pending_batches_ahead_of_its_notes() {
        let mut rig = Rig(Shard::new(0, table(1), 8));
        rig.step(Shard::eos);
        rig.data(&[Tuple::r(1, 0, 6)], 0);
        // The notes follow the salvage; a post-EOS restart repeats the EOS
        // report.
        assert_eq!(
            rig.restart(),
            ["g0.0 s6@1", "g1.0 p6/1@1", "Restarted { shard: 0, fence: 0 }", "Eos { shard: 0 }"]
        );
    }

    #[test]
    fn a_tick_flushes_only_overdue_destinations() {
        let mut rig = Rig(Shard::new(0, table(2), 8));
        rig.data(&[Tuple::r(key_stored_at(2, 0), 0, 1)], 100);
        rig.data(&[Tuple::r(key_stored_at(2, 1), 0, 2)], 600);
        assert!(rig.step(|s, out| s.tick(1_099, 1_000, out)).is_empty(), "nothing is 1,000 µs old");
        let due = rig.step(|s, out| s.tick(1_100, 1_000, out));
        assert_eq!(due.iter().filter(|l| l.starts_with("g0")).collect::<Vec<_>>(), ["g0.0 s1@1"]);
    }
}
