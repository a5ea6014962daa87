//! Messages exchanged between runtime executors.
//!
//! Every join-instance executor has exactly one input channel carrying
//! [`RtMsg`]; keeping data and control on the same FIFO channel is what
//! gives the per-channel ordering the migration protocol requires (the
//! same property Storm gives messages between two bolts).
//!
//! Each data hop has one message form: [`SpoutMsg::Data`] carries a run of
//! spout tuples to a shard, [`RtMsg::Data`] carries a destination's pending
//! queue — store and probe tuples interleaved in arrival order
//! ([`DataItem`]) — to an instance. A message of n items *means* n
//! consecutive one-item messages on the same channel; every consumer
//! (executors, kill switches, chaos receivers, checkpoints) preserves that
//! equivalence, which is what lets the migration protocol ignore batching
//! entirely.
//!
//! The result hop follows the same unit: an instance reports the probes
//! one input message completed as one vector of [`ProbeReport`]s, stamped
//! once with the time the step that completed them finished.

use fastjoin_core::load::InstanceLoad;
use fastjoin_core::protocol::{InstanceMsg, MigrationDone, RouteRequest};
use fastjoin_core::tuple::Tuple;

/// One data-plane tuple on the shard → instance edge: what a shard queues
/// per destination and what [`RtMsg::Data`] carries.
#[derive(Debug, Clone, Copy)]
pub enum DataItem {
    /// A tuple stored at the destination.
    Store(Tuple),
    /// A tuple probing the destination, with its dispatch fan-out (how
    /// many instances received it). The join of the original tuple
    /// completes when all fan-out parts complete — the straggler penalty
    /// of broadcast-style strategies.
    Probe(Tuple, u32),
}

impl DataItem {
    /// The tuple, whichever way it is headed.
    #[must_use]
    pub fn tuple(&self) -> &Tuple {
        match self {
            DataItem::Store(t) | DataItem::Probe(t, _) => t,
        }
    }
}

/// Input to a join-instance executor.
///
/// `Clone` because the fault-injection plane's `ChaosReceiver` can
/// duplicate a message. The executor itself never copies one: the owned
/// message is parked while its step borrows it, then moves into the replay
/// log that recovery re-feeds (see `topology::instance`).
#[derive(Debug, Clone)]
pub enum RtMsg {
    /// A migration-protocol message from a peer instance or the sequencer.
    Inst(InstanceMsg),
    /// One flush of a shard's pending queue for this instance: up to
    /// `RuntimeConfig::batch_size` store and probe tuples in the order the
    /// shard routed them. The queue itself is the message body, so
    /// batching cannot reorder a channel and is invisible to the protocol.
    Data(Vec<DataItem>),
    /// Fan-out entries `(seq, fanout)` for probe tuples a migration source
    /// is about to forward in a `MigForward`. Sent on the same
    /// source → target channel *immediately before* the `MigForward`, so
    /// FIFO ordering guarantees the target owns each probe's fan-out
    /// before the probe itself arrives. Without this hand-off the source
    /// leaked the entries and the target had to guess a fan-out of 1 —
    /// the accounting bug this variant fixes.
    ProbeHandoff(Vec<(u64, u32)>),
    /// Monitor request: report the period's load statistics.
    ReportRequest,
    /// End of stream: process everything pending, then acknowledge and
    /// stop. Sent by the dispatcher after the last data tuple.
    Eos,
}

/// A dispatcher shard's data-channel input. Each shard has its own
/// bounded channel of these, fed by the spout (which picks the shard by
/// key hash).
#[derive(Debug)]
pub enum SpoutMsg {
    /// A run of raw spout tuples, accumulated up to
    /// `RuntimeConfig::batch_size` before crossing the spout → shard
    /// channel. Event time (`ts`) is stamped by the spout at pacing time,
    /// *before* any batching, so inter-tuple gaps survive into the
    /// stream's event time.
    Data(Vec<Tuple>),
    /// The spout is done: flush everything pending and report
    /// [`ShardNote::Eos`] to the sequencer, which forwards EOS to every
    /// instance once all shards have reported.
    Eos,
}

/// Migration control into the dispatcher's control sequencer — the
/// serialization point for routing.
#[derive(Debug)]
pub enum DispatcherMsg {
    /// A routing update from a migration source.
    Route {
        /// Which group's table to update (0 = R, 1 = S).
        group: usize,
        /// The update.
        req: RouteRequest,
    },
    /// Monitor request: abort migration round `epoch` of `group` if its
    /// route flip has not been applied yet. The sequencer either already
    /// processed the round's `Route` (abort refused) or it marks the
    /// epoch aborted and sends
    /// [`fastjoin_core::protocol::InstanceMsg::MigAbort`] to `source`
    /// (abort accepted). Either way it reports the verdict back with
    /// [`MonitorMsg::AbortOutcome`].
    Abort {
        /// Which group's round to abort (0 = R, 1 = S).
        group: usize,
        /// The overdue migration round.
        epoch: u64,
        /// The round's source instance (receives `MigAbort` on acceptance).
        source: usize,
    },
    /// Monitor notification: round `epoch` of `group` closed normally, so
    /// the routing-table entries it staged are now permanent.
    Commit {
        /// Which group's table to commit (0 = R, 1 = S).
        group: usize,
        /// The completed migration round.
        epoch: u64,
    },
}

/// Sequencer → shard control.
///
/// Shards never mutate routing state on their own: the control sequencer
/// owns the authoritative [`fastjoin_core::dispatcher::Dispatcher`] and
/// publishes each net route change as a whole-table
/// [`fastjoin_core::routing::RouteSnapshot`]. A shard installs the
/// snapshot atomically between batches, so every tuple in a batch routes
/// under exactly one epoch (the snapshot-per-batch rule).
#[derive(Debug)]
pub enum ShardCtrl {
    /// Flush everything buffered under the current snapshot, install this
    /// one, then acknowledge with [`ShardNote::SnapshotLive`].
    Publish(fastjoin_core::routing::RouteSnapshot),
}

/// Shard → sequencer notifications.
#[derive(Debug, Clone, Copy)]
pub enum ShardNote {
    /// Shard `shard` has flushed all batches buffered under snapshots
    /// older than `epoch` and is now routing under `epoch`. The sequencer
    /// withholds the source's `RouteUpdated` until every shard reports
    /// this, which is the barrier that keeps per-channel FIFO meaningful
    /// across shards: all data routed under the old table is already in
    /// the source's inbox when the flip notification lands.
    SnapshotLive {
        /// The acknowledging shard.
        shard: usize,
        /// The epoch of the snapshot now live on that shard.
        epoch: u64,
    },
    /// Shard `shard` drained its data channel and observed end-of-stream;
    /// it will keep acknowledging publishes (nothing can be pending) until
    /// the control channel disconnects.
    Eos {
        /// The finished shard.
        shard: usize,
    },
    /// Shard `shard` panicked and was respawned by its supervisor. `fence`
    /// is the highest snapshot epoch the dead incarnation installed (the
    /// epoch fence, kept outside the restarted body). The sequencer
    /// re-publishes its current snapshot so the fresh incarnation can
    /// rebuild its routing table, and — when a publication barrier is in
    /// flight — treats `fence >= barrier epoch` as that shard's
    /// acknowledgement (the install happened; only the ack was lost with
    /// the thread).
    Restarted {
        /// The respawned shard.
        shard: usize,
        /// Highest epoch the dead incarnation had installed.
        fence: u64,
    },
}

/// Input to a monitor executor.
///
/// `Clone` so the fault-injection plane can duplicate load reports (the
/// monitor protocol tolerates lost/duplicated/reordered reports by design).
#[derive(Debug, Clone)]
pub enum MonitorMsg {
    /// A load report from an instance.
    Report {
        /// Reporting instance.
        id: usize,
        /// Its period statistics.
        load: InstanceLoad,
    },
    /// A migration round finished.
    Done(MigrationDone),
    /// Stop triggering new migrations and shut down once idle.
    Quiesce,
    /// Dispatcher verdict on a [`DispatcherMsg::Abort`] request:
    /// `aborted = true` means the epoch's route flip was intercepted and
    /// the source has been told to roll back; `false` means the flip had
    /// already been applied and the round will finish normally.
    AbortOutcome {
        /// The round the verdict is for.
        epoch: u64,
        /// Whether the abort was accepted.
        aborted: bool,
    },
}

/// One completed probe part, as its instance reports it to the collector.
/// An instance collects the reports of the probes one input message
/// completes and ships them together (`CollectorMsg::Probes` in
/// `topology`), so the collector edge carries one message per instance
/// message, not one per probe. What is the same for every report of a
/// message — when the step finished — travels once, in that message; a
/// report carries only what differs per probe.
#[derive(Debug, Clone, Copy)]
pub struct ProbeReport {
    /// Dispatch seq of the probing tuple (the collector's ledger key).
    pub seq: u64,
    /// How many instances received a copy of this probe; the probe is
    /// complete when that many parts have reported.
    pub fanout: u32,
    /// Result pairs this part emitted.
    pub matches: u64,
    /// The probing tuple's spout stamp (its event time, and the origin of
    /// its latency): the collector books `done_us − ts` for this part,
    /// `done_us` being the message's.
    pub ts: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_constructible_and_debuggable() {
        let m = RtMsg::Data(vec![
            DataItem::Store(Tuple::r(1, 2, 3)),
            DataItem::Probe(Tuple::s(1, 2, 4), 2),
        ]);
        assert!(format!("{m:?}").contains("Probe"));
        let d = SpoutMsg::Eos;
        assert!(format!("{d:?}").contains("Eos"));
        let r = ProbeReport { seq: 1, fanout: 2, matches: 3, ts: 10 };
        assert_eq!(r.matches, 3);
        assert_eq!(std::mem::size_of::<ProbeReport>(), 32);
    }
}
