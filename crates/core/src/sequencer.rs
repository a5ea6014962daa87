//! The dispatcher stage's control sequencer as a pure transition: the
//! authoritative routing table, route flips, and the publication barrier
//! as *state*.
//!
//! A [`Sequencer`] serializes every route flip of both groups and never
//! touches data. Like [`crate::shard::Shard`] it has no channel,
//! clock or thread: inputs ([`Sequencer::ctrl`], [`Sequencer::note`],
//! [`Sequencer::shard_gone`], [`Sequencer::restart`]) append to a
//! caller-owned ordered sequence of [`SeqOut`]s that the embedding shell
//! performs in order.
//!
//! A `Route` is applied to the table once — there is nothing to commit or
//! undo later — and publishes the new table to every shard behind a
//! barrier: the source's `RouteUpdated` is emitted by — and only by — the
//! transition that records the last missing acknowledgement. A shard
//! acknowledges only behind the flushes of everything it routed under
//! older snapshots, so by then all data any shard routed under the old
//! table is already in the instances' inboxes and `RouteUpdated` cannot
//! overtake an old-routed tuple. While a barrier is open the sequencer
//! takes notes only ([`Sequencer::wants_ctrl`]).

use std::collections::VecDeque;

use crate::dispatcher::Dispatcher;
use crate::protocol::{DispatcherMsg, Epoch, InstanceMsg, ShardNote};
use crate::routing::RouteSnapshot;
use crate::tuple::Side;

/// An open publication barrier: which shards have been credited with
/// installing `epoch`, and whom to tell once all have.
#[derive(Debug, Clone)]
struct Barrier {
    epoch: u64,
    /// Per-shard credit flags (not a count): a shard that restarts
    /// mid-barrier may be credited through its `Restarted` note instead of
    /// a `SnapshotLive` ack, and a count could not tell a duplicate from a
    /// distinct shard.
    acked: Vec<bool>,
    /// `(group, source, round epoch)` of the `RouteUpdated` to release.
    release: (usize, usize, Epoch),
}

/// What a transition did, for the shell's counters and trace journal, in
/// the shape the journal records it (`aux` / `aux2` as documented on the
/// matching [`crate::trace::TraceKind`]). Carries no instruction — a shell
/// may ignore every one of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeqEvent {
    /// What happened.
    pub did: Did,
    /// The migration round (for `Republished`: the publication epoch).
    pub epoch: u64,
    /// See [`Did`].
    pub aux: u64,
    /// See [`Did`].
    pub aux2: u64,
}

/// The kinds of [`SeqEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Did {
    /// A `Route` was applied, and is being published (`aux` = the group's
    /// route version after it, `aux2` = group).
    Applied,
    /// The current publication was re-sent to shard `aux` — in answer to
    /// its `Restarted` note (`aux2` = the fence it reported), or to every
    /// shard after a sequencer restart (`aux2` = 0).
    Republished,
}

/// One element of the sequencer's ordered output sequence.
#[derive(Debug, Clone)]
pub enum SeqOut {
    /// Queue `snapshot` at shard `shard`. A refused send is reported back
    /// with [`Sequencer::shard_gone`].
    Publish {
        /// Destination shard.
        shard: usize,
        /// The table to install.
        snapshot: RouteSnapshot,
    },
    /// Send `msg` (`RouteUpdated`) to instance `dest` of `group`.
    ToInstance {
        /// Destination group.
        group: usize,
        /// Destination instance.
        dest: usize,
        /// The message.
        msg: InstanceMsg,
    },
    /// Every shard has flushed and reported end-of-stream: send EOS to
    /// every instance (it lands after all shard data on each FIFO inbox)
    /// and release the monitors. Emitted once.
    BroadcastEos,
    /// Bookkeeping only.
    Event(SeqEvent),
}

/// The control sequencer. The struct is what survives a crash of the
/// thread driving it: a sequencer crash loses the thread, never the
/// table, the publication epoch or an open barrier.
#[derive(Debug, Clone)]
pub struct Sequencer {
    dispatcher: Dispatcher,
    /// Last published epoch; publication epochs start at 1.
    epoch: u64,
    barrier: Option<Barrier>,
    /// Shards that reported end-of-stream (they still ack publishes).
    eos_shards: Vec<bool>,
    /// Shards whose channel is gone (their supervisor gave up — the run is
    /// already failing); pre-credited so a barrier cannot wedge shutdown.
    gone: Vec<bool>,
    eos_broadcast: bool,
}

fn event(did: Did, epoch: u64, aux: u64, aux2: u64) -> SeqOut {
    SeqOut::Event(SeqEvent { did, epoch, aux, aux2 })
}

impl Sequencer {
    /// A sequencer owning `dispatcher` as the authoritative table of a
    /// stage with `shards` shards.
    #[must_use]
    pub fn new(dispatcher: Dispatcher, shards: usize) -> Self {
        Sequencer {
            dispatcher,
            epoch: 0,
            barrier: None,
            eos_shards: vec![false; shards],
            gone: vec![false; shards],
            eos_broadcast: false,
        }
    }

    /// False while a publication barrier is open: the shell must feed
    /// [`Sequencer::note`] only until it closes.
    #[must_use]
    pub fn wants_ctrl(&self) -> bool {
        self.barrier.is_none()
    }

    /// Applies one control message. Must not be called while a barrier is
    /// open (see [`Sequencer::wants_ctrl`]).
    pub fn ctrl(&mut self, msg: DispatcherMsg, out: &mut VecDeque<SeqOut>) {
        debug_assert!(self.wants_ctrl(), "control served inside a publication barrier");
        let DispatcherMsg::Route { group, req } = msg;
        let side = if group == 0 { Side::R } else { Side::S };
        let ok = self.dispatcher.apply_route(side, &req);
        assert!(ok, "route update on non-migratable partitioner"); // lint:allow(config contract: dynamic mode implies a migratable partitioner)
        let version = self.dispatcher.route_version(side);
        out.push_back(event(Did::Applied, req.epoch, version, group as u64));
        self.open_barrier((group, req.source, req.epoch), out);
    }

    /// Publishes the table to every live shard and opens the barrier that
    /// withholds `release`'s `RouteUpdated`. Post-EOS shards still install
    /// and ack (nothing is pending there).
    fn open_barrier(&mut self, release: (usize, usize, Epoch), out: &mut VecDeque<SeqOut>) {
        self.epoch += 1;
        let snapshot = self.dispatcher.route_snapshot(self.epoch);
        for (shard, gone) in self.gone.iter().enumerate() {
            if !gone {
                out.push_back(SeqOut::Publish { shard, snapshot: snapshot.clone() });
            }
        }
        self.barrier = Some(Barrier { epoch: self.epoch, acked: self.gone.clone(), release });
        self.settle(out);
    }

    /// Applies one shard note.
    pub fn note(&mut self, note: ShardNote, out: &mut VecDeque<SeqOut>) {
        match note {
            // Acks for other epochs are stale (a dead incarnation's, or a
            // duplicate); `credit` ignores them.
            ShardNote::SnapshotLive { shard, epoch } => self.credit(shard, epoch),
            ShardNote::Eos { shard } => {
                if let Some(seen) = self.eos_shards.get_mut(shard) {
                    *seen = true;
                }
            }
            ShardNote::Restarted { shard, fence } => {
                // Re-publish so the fresh incarnation can rebuild its
                // table. If the dead incarnation had already installed the
                // barrier's epoch (fence >= epoch), the install is durable
                // in the fence and only the ack died with the thread: the
                // note counts as the ack. The reinstall itself never acks
                // (see `Shard::publish`), so this cannot double-count.
                self.republish_to(shard, fence, out);
                self.credit(shard, fence);
            }
        }
        self.settle(out);
    }

    /// A send to `shard` was refused: its supervisor gave up. Credits it
    /// in the open barrier and in every later one.
    pub fn shard_gone(&mut self, shard: usize, out: &mut VecDeque<SeqOut>) {
        if let Some(gone) = self.gone.get_mut(shard) {
            *gone = true;
        }
        self.credit(shard, u64::MAX);
        self.settle(out);
    }

    /// Recovery after a crash of the driving thread: re-publishes the
    /// current snapshot to every shard, which heals any divergence (the
    /// shards' fences turn duplicates into ack-free reinstalls). An open
    /// barrier stays open and still releases on the remaining acks.
    pub fn restart(&mut self, out: &mut VecDeque<SeqOut>) {
        for shard in 0..self.gone.len() {
            self.republish_to(shard, 0, out);
        }
    }

    /// Credits `shard` in the open barrier if it is known to have
    /// installed at least the barrier's epoch (its ack names the epoch; a
    /// restart note names the fence).
    fn credit(&mut self, shard: usize, installed: u64) {
        if let Some(b) = self.barrier.as_mut().filter(|b| installed >= b.epoch) {
            if let Some(acked) = b.acked.get_mut(shard) {
                *acked = true;
            }
        }
    }

    /// Re-sends the current snapshot to one shard. No-op before the first
    /// publication: with fence 0 a fresh incarnation is not resyncing and
    /// its initial routing table is already correct.
    fn republish_to(&mut self, shard: usize, fence: u64, out: &mut VecDeque<SeqOut>) {
        if self.epoch == 0 || self.gone.get(shard) != Some(&false) {
            return;
        }
        out.push_back(event(Did::Republished, self.epoch, shard as u64, fence));
        let snapshot = self.dispatcher.route_snapshot(self.epoch);
        out.push_back(SeqOut::Publish { shard, snapshot });
    }

    /// Emits what the state has become ready for: the barrier's
    /// `RouteUpdated` once every shard is credited, then — outside any
    /// barrier — the EOS broadcast once every shard has reported.
    fn settle(&mut self, out: &mut VecDeque<SeqOut>) {
        if self.barrier.as_ref().is_some_and(|b| b.acked.iter().all(|a| *a)) {
            if let Some(Barrier { release: (group, dest, epoch), .. }) = self.barrier.take() {
                let msg = InstanceMsg::RouteUpdated { epoch };
                out.push_back(SeqOut::ToInstance { group, dest, msg });
            }
        }
        if self.barrier.is_none() && !self.eos_broadcast && self.eos_shards.iter().all(|e| *e) {
            self.eos_broadcast = true;
            out.push_back(SeqOut::BroadcastEos);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::HashPartitioner;
    use crate::protocol::RouteRequest;
    use crate::shard::{InstallVerdict, Shard, ShardOut};
    use crate::trace::{Actor, TraceConfig, TraceRing};
    use crate::tuple::Tuple;

    fn table(n: usize) -> Dispatcher {
        Dispatcher::new(Box::new(HashPartitioner::new(n, 0)), Box::new(HashPartitioner::new(n, 1)))
    }

    /// A sequencer whose outputs are read back as one line each (events
    /// included, in sequence); published snapshots are kept aside.
    struct Rig {
        seq: Sequencer,
        snaps: Vec<RouteSnapshot>,
    }

    impl Rig {
        fn new(shards: usize) -> Self {
            Rig { seq: Sequencer::new(table(2), shards), snaps: Vec::new() }
        }

        fn step(
            &mut self,
            input: impl FnOnce(&mut Sequencer, &mut VecDeque<SeqOut>),
        ) -> Vec<String> {
            let mut out = VecDeque::new();
            input(&mut self.seq, &mut out);
            let line = |o| match o {
                SeqOut::Publish { shard, snapshot } => {
                    let line = format!("publish {} -> shard{shard}", snapshot.epoch);
                    self.snaps.push(snapshot);
                    line
                }
                SeqOut::ToInstance { group, dest, msg } => format!("{msg:?} -> inst{group}.{dest}"),
                SeqOut::BroadcastEos => "eos".to_string(),
                SeqOut::Event(e) => format!("{:?} {}: {} {}", e.did, e.epoch, e.aux, e.aux2),
            };
            out.into_iter().map(line).collect()
        }

        fn ctrl(&mut self, msg: DispatcherMsg) -> Vec<String> {
            self.step(|seq, out| seq.ctrl(msg, out))
        }

        fn route(&mut self, epoch: Epoch, keys: &[u64]) -> Vec<String> {
            let req = RouteRequest { epoch, keys: keys.to_vec(), target: 1, source: 0 };
            self.ctrl(DispatcherMsg::Route { group: 0, req })
        }

        fn note(&mut self, note: ShardNote) -> Vec<String> {
            self.step(|seq, out| seq.note(note, out))
        }
    }

    fn live(shard: usize, epoch: u64) -> ShardNote {
        ShardNote::SnapshotLive { shard, epoch }
    }

    /// `RouteUpdated` of round `epoch` to the source, as [`Rig`] prints it.
    fn updated(epoch: Epoch) -> String {
        format!("RouteUpdated {{ epoch: {epoch} }} -> inst0.0")
    }

    /// Part (a) of the flip contract plus post-flip consistency, with two
    /// real shards: `RouteUpdated` is withheld while any shard still
    /// holds data routed under the old snapshot, and afterwards every
    /// shard routes a migrated key under the published one.
    #[test]
    fn a_flip_waits_for_every_shard_to_flush_old_snapshot_data() {
        let mut probe = table(2);
        let k_a =
            (0u64..64).find(|k| probe.dispatch(Tuple::r(*k, 0, 0)).store_dest == 0).expect("a key");
        let mut ring = TraceRing::new(Actor::dispatcher(), &TraceConfig::disabled());
        let mut rig = Rig::new(2);
        let mut shards = [Shard::new(0, table(2), 8), Shard::new(1, table(2), 8)];
        let mut out = VecDeque::new();
        // Shard 1 holds a store routed under the pre-flip table.
        assert!(shards[1].data(&[Tuple::r(k_a, 0, 1)], 1, 0, &mut ring, &mut out));
        assert!(out.is_empty());

        assert_eq!(
            rig.route(5, &[k_a]),
            ["Applied 5: 2 0", "publish 1 -> shard0", "publish 1 -> shard1"]
        );
        assert!(!rig.seq.wants_ctrl(), "nothing leaves before the acks");
        // Shard 0 (nothing pending) installs and acks: still withheld.
        assert_eq!(shards[0].publish(rig.snaps[0].clone(), &mut out), InstallVerdict::Installed);
        assert_eq!(out.pop_front(), Some(ShardOut::Note(live(0, 1))));
        assert!(rig.note(live(0, 1)).is_empty(), "shard 1 still holds old-snapshot data");
        // Shard 1 flushes the old store, *then* acks; that ack releases.
        shards[1].publish(rig.snaps[1].clone(), &mut out);
        assert!(matches!(out.front(), Some(ShardOut::Flush { group: 0, dest: 0, .. })));
        assert_eq!(out.pop_back(), Some(ShardOut::Note(live(1, 1))));
        assert_eq!(rig.note(live(1, 1)), [updated(5)]);
        assert!(rig.seq.wants_ctrl());
        // Post-flip: both shards store the migrated key at its new owner.
        for shard in &mut shards {
            out.clear();
            assert!(shard.data(&[Tuple::r(k_a, 0, 2)], 9, 0, &mut ring, &mut out));
            shard.eos(&mut out);
            assert!(
                out.iter().any(|o| matches!(o, ShardOut::Flush { group: 0, dest: 1, .. })),
                "every shard routes under the published snapshot: {out:?}"
            );
        }
    }

    /// Nothing but the last missing credit produces `RouteUpdated` — not
    /// an EOS report, a stale ack, a restart note with a low fence, or a
    /// duplicate ack of a shard already credited.
    #[test]
    fn only_the_last_missing_ack_releases_the_barrier() {
        let mut rig = Rig::new(2);
        rig.route(1, &[]);
        rig.note(live(0, 1));
        assert_eq!(rig.note(live(1, 1)), [updated(1)]);
        rig.route(2, &[]);
        for note in [
            ShardNote::Eos { shard: 0 },
            ShardNote::Eos { shard: 1 },
            live(1, 1),
            live(0, 2),
            live(0, 2),
        ] {
            assert_eq!(rig.note(note), [""; 0], "{note:?} must not release");
        }
        let republish = rig.note(ShardNote::Restarted { shard: 1, fence: 1 });
        assert_eq!(republish[1..], ["publish 2 -> shard1"], "a fence below the epoch is no ack");
        assert!(!rig.seq.wants_ctrl());
        // EOS waited for the barrier and follows RouteUpdated.
        assert_eq!(rig.note(live(1, 2)), [updated(2), "eos".to_string()]);
    }

    /// A sequencer crash inside the barrier keeps it: the restart
    /// re-publishes to every shard, the shard that already acked answers
    /// with an ack-free reinstall, and the missing ack still releases —
    /// once.
    #[test]
    fn a_restart_inside_the_barrier_keeps_it_open() {
        let mut rig = Rig::new(2);
        let mut shard0 = Shard::new(0, table(2), 1);
        let mut out = VecDeque::new();
        rig.route(1, &[]);
        shard0.publish(rig.snaps[0].clone(), &mut out);
        assert!(rig.note(live(0, 1)).is_empty());
        out.clear();

        let republished = rig.step(|seq, out| seq.restart(out));
        let event = |shard| format!("Republished 1: {shard} 0");
        assert_eq!(
            republished,
            [event(0), "publish 1 -> shard0".into(), event(1), "publish 1 -> shard1".into()]
        );
        assert_eq!(shard0.publish(rig.snaps[2].clone(), &mut out), InstallVerdict::Reinstalled);
        assert!(out.is_empty(), "a reinstall does not ack");
        assert_eq!(rig.note(live(1, 1)), [updated(1)]);
        assert!(rig.note(live(1, 1)).is_empty(), "a duplicate ack after the release is dropped");
    }

    #[test]
    fn a_restarted_shard_is_republished_to_with_its_fence_and_credited_by_it() {
        let mut rig = Rig::new(2);
        let restarted = |shard, fence| ShardNote::Restarted { shard, fence };
        assert!(rig.note(restarted(0, 0)).is_empty(), "nothing published yet, nothing to rebuild");
        rig.route(1, &[]);
        rig.note(live(0, 1));
        // Shard 1 installed epoch 1 and died before its ack got out: its
        // fence covers the epoch, which counts as the ack.
        let event = |shard| format!("Republished 1: {shard} 1");
        assert_eq!(rig.note(restarted(1, 1)), [event(1), "publish 1 -> shard1".into(), updated(1)]);
        // Outside a barrier the note's fence is still what is recorded.
        assert_eq!(rig.note(restarted(0, 1)), [event(0), "publish 1 -> shard0".into()]);
    }

    #[test]
    fn a_gone_shard_is_credited_now_and_in_later_barriers() {
        let mut rig = Rig::new(2);
        rig.route(1, &[]);
        rig.note(live(0, 1));
        assert_eq!(rig.step(|seq, out| seq.shard_gone(1, out)), [updated(1)]);
        assert_eq!(rig.route(2, &[])[1..], ["publish 2 -> shard0"]);
        assert_eq!(rig.note(live(0, 2)), [updated(2)]);
    }

    #[test]
    fn eos_is_broadcast_once_when_every_shard_has_reported() {
        let mut rig = Rig::new(2);
        let eos = |shard| ShardNote::Eos { shard };
        assert!(rig.note(eos(0)).is_empty());
        assert!(rig.note(eos(0)).is_empty(), "one shard reporting twice is still one shard");
        assert_eq!(rig.note(eos(1)), ["eos"]);
        // A post-EOS shard restart repeats its report; a sequencer restart
        // changes nothing either.
        assert!(rig.note(eos(1)).is_empty());
        assert!(rig.step(|seq, out| seq.restart(out)).is_empty());
        // Control keeps being served after the broadcast.
        rig.route(1, &[]);
        rig.note(live(0, 1));
        assert_eq!(rig.note(live(1, 1)), [updated(1)]);
    }
}
