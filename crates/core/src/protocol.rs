//! Control-plane messages and effects exchanged between the dispatcher,
//! join instances, and the monitor (§III-A, §III-D).
//!
//! The core is engine-agnostic: a join instance consumes [`InstanceMsg`]s
//! and produces [`Effects`], and the embedding engine (the discrete-event
//! simulator or the threaded runtime) is responsible for delivering them.
//! Delivery must be FIFO per (sender → receiver) channel — the same
//! guarantee Storm gives between two bolts — which, together with the
//! migration protocol, yields exactly-once join completeness.

use std::collections::HashSet;

use crate::load::InstanceLoad;
use crate::routing::RouteSnapshot;
use crate::tuple::{JoinedPair, Key, Tuple};

/// Identifies one migration round within a group; assigned by the monitor,
/// strictly increasing.
pub type Epoch = u64;

/// Messages a join instance can receive.
#[derive(Debug, Clone, PartialEq)]
pub enum InstanceMsg {
    /// A data tuple routed by the dispatcher (store-side or probe-side).
    Data(Tuple),
    /// Monitor → heaviest instance: migrate load to `target`, whose latest
    /// aggregate statistics are attached (the paper: "the source instance
    /// collects the statistics of the target instance").
    MigrateCmd {
        /// Migration round id.
        epoch: Epoch,
        /// Index of the lightest instance (the migration target).
        target: usize,
        /// Target's `(|R_j|, φ_sj)` from the load information table.
        target_load: InstanceLoad,
    },
    /// Source → target: a migration of `keys` begins; the target must hold
    /// dispatcher data for those keys until [`InstanceMsg::MigEnd`].
    MigStart {
        /// Migration round id.
        epoch: Epoch,
        /// Source instance index.
        from: usize,
        /// The selected key set `SK`.
        keys: Vec<Key>,
    },
    /// Source → target: the extracted store payload for the selected keys.
    MigStore {
        /// Migration round id.
        epoch: Epoch,
        /// Stored tuples, in per-key insertion order.
        tuples: Vec<Tuple>,
    },
    /// Dispatcher → source: the routing table now sends the selected keys
    /// to the target; no more old-route data will arrive.
    RouteUpdated {
        /// Migration round id.
        epoch: Epoch,
    },
    /// Source → target: tuples that arrived at the source for selected keys
    /// while the routing update was in flight, in arrival order.
    MigForward {
        /// Migration round id.
        epoch: Epoch,
        /// Unprocessed tuples to enqueue at the target.
        tuples: Vec<Tuple>,
    },
    /// Source → target: the migration round is complete; release held data.
    MigEnd {
        /// Migration round id.
        epoch: Epoch,
        /// Source instance index.
        from: usize,
    },
}

impl InstanceMsg {
    /// The migration round this message belongs to, or `None` for data
    /// tuples — the correlation id the trace journal records.
    #[must_use]
    pub fn round_id(&self) -> Option<Epoch> {
        match self {
            InstanceMsg::Data(_) => None,
            InstanceMsg::MigrateCmd { epoch, .. }
            | InstanceMsg::MigStart { epoch, .. }
            | InstanceMsg::MigStore { epoch, .. }
            | InstanceMsg::RouteUpdated { epoch }
            | InstanceMsg::MigForward { epoch, .. }
            | InstanceMsg::MigEnd { epoch, .. } => Some(*epoch),
        }
    }
}

/// A violation of the migration protocol detected by a join instance.
///
/// These are returned (not panicked) so that embedding engines and the
/// `xtask check-protocol` model checker can decide how to surface them:
/// the threaded runtime treats any of these as fatal, while the model
/// checker reports them as counterexample traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolError {
    /// A target-only message (`MigStore`/`MigForward`/`MigEnd`) arrived at
    /// an instance that is not in the target state.
    NotATarget {
        /// Receiving instance.
        instance: usize,
        /// Name of the offending message variant.
        msg: &'static str,
    },
    /// `RouteUpdated` arrived at an instance that is not a migration source.
    NotASource {
        /// Receiving instance.
        instance: usize,
    },
    /// A migration message carried an epoch different from the round the
    /// instance is participating in.
    EpochMismatch {
        /// Receiving instance.
        instance: usize,
        /// Name of the offending message variant.
        msg: &'static str,
        /// Epoch of the in-progress round.
        expected: Epoch,
        /// Epoch carried by the message.
        got: Epoch,
    },
    /// `MigStart` or `MigrateCmd` arrived while another migration round was
    /// still in progress at this instance.
    AlreadyMigrating {
        /// Receiving instance.
        instance: usize,
        /// Name of the offending message variant.
        msg: &'static str,
    },
    /// `MigrateCmd` named the source instance itself as the target.
    SelfMigration {
        /// Receiving instance.
        instance: usize,
    },
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::NotATarget { instance, msg } => {
                write!(f, "instance {instance} got {msg} while not a target")
            }
            ProtocolError::NotASource { instance } => {
                write!(f, "instance {instance} got RouteUpdated while not a source")
            }
            ProtocolError::EpochMismatch { instance, msg, expected, got } => {
                write!(
                    f,
                    "instance {instance}: {msg} epoch mismatch (expected {expected}, got {got})"
                )
            }
            ProtocolError::AlreadyMigrating { instance, msg } => {
                write!(f, "instance {instance} got {msg} during another migration")
            }
            ProtocolError::SelfMigration { instance } => {
                write!(f, "instance {instance}: cannot migrate to self")
            }
        }
    }
}

impl std::error::Error for ProtocolError {}

/// Input to a join-instance stage ([`crate::stage::InstanceStage`]): the
/// one FIFO inbox of an instance carries data and control alike, which is
/// what gives the per-channel ordering the migration protocol requires.
///
/// `Clone` because a fault-injection plane may duplicate a message. The
/// stage itself never copies one: the owned message is parked while its
/// step borrows it, then moves into the replay log that recovery re-feeds.
#[derive(Debug, Clone, PartialEq)]
pub enum RtMsg {
    /// A migration-protocol message from the monitor, a peer instance or
    /// the sequencer.
    Inst(InstanceMsg),
    /// One flush of a shard's pending queue for this instance: store and
    /// probe tuples in the order the shard routed them, each carrying its
    /// seq and probe fan-out. The queue itself is the message body, so
    /// batching cannot reorder a channel and is invisible to the protocol.
    Data(Vec<Tuple>),
    /// Monitor request: report the period's load statistics.
    ReportRequest,
    /// End of stream: process everything pending, then acknowledge and
    /// stop. Sent by the dispatcher after the last data tuple.
    Eos,
}

/// One completed probe part, as its instance reports it to the collector.
/// An instance collects the reports of the probes one input message
/// completes and ships them together, so the collector edge carries one
/// message per instance message, not one per probe. What is the same for
/// every report of a message — when the step finished — travels once, in
/// that message; a report carries only what differs per probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

/// A request for the dispatcher to reroute `keys` to `target` and confirm
/// back to the requesting source instance with [`InstanceMsg::RouteUpdated`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteRequest {
    /// Migration round id.
    pub epoch: Epoch,
    /// Keys being migrated.
    pub keys: Vec<Key>,
    /// New owner instance.
    pub target: usize,
    /// Requesting (source) instance, to receive the confirmation.
    pub source: usize,
}

/// Notification to the monitor that a migration round finished (or was
/// abandoned because selection found nothing worth moving) — exactly one
/// per round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationDone {
    /// Migration round id.
    pub epoch: Epoch,
    /// Stored tuples physically moved (0 for an abandoned round).
    pub tuples_moved: u64,
    /// Keys migrated.
    pub keys_moved: usize,
}

/// Migration control into the dispatcher stage's control sequencer
/// ([`crate::sequencer::Sequencer`]) — the serialization point for routing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DispatcherMsg {
    /// A routing update from a migration target, applied once.
    Route {
        /// Which group's table to update (0 = R, 1 = S).
        group: usize,
        /// The update.
        req: RouteRequest,
    },
}

/// Sequencer → shard control.
///
/// Shards never mutate routing state on their own: the control sequencer
/// owns the authoritative [`crate::dispatcher::Dispatcher`] and publishes
/// each net route change as a whole-table [`RouteSnapshot`]. A shard
/// installs the snapshot atomically between batches, so every tuple in a
/// batch routes under exactly one epoch (the snapshot-per-batch rule).
#[derive(Debug, Clone)]
pub enum ShardCtrl {
    /// Flush everything buffered under the current snapshot, install this
    /// one, then acknowledge with [`ShardNote::SnapshotLive`].
    Publish(RouteSnapshot),
}

/// Shard → sequencer notifications.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardNote {
    /// Shard `shard` has flushed all batches buffered under snapshots
    /// older than `epoch` and is now routing under `epoch` — the
    /// acknowledgement the sequencer's publication barrier collects.
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
    /// Shard `shard` panicked and was respawned by its supervisor; `fence`
    /// is the highest snapshot epoch the dead incarnation installed. The
    /// sequencer re-publishes its current snapshot, and credits an open
    /// barrier when `fence` covers its epoch (the install happened; only
    /// the ack was lost with the thread).
    Restarted {
        /// The respawned shard.
        shard: usize,
        /// Highest epoch the dead incarnation had installed.
        fence: u64,
    },
}

/// Side effects produced by a join instance while handling messages or
/// processing tuples. The engine drains these after every call.
#[derive(Debug, Default)]
pub struct Effects {
    /// Joined result pairs to emit downstream.
    pub joined: Vec<JoinedPair>,
    /// Peer messages: `(destination instance, message)`.
    pub sends: Vec<(usize, InstanceMsg)>,
    /// Routing-table updates to apply at the dispatcher.
    pub route_requests: Vec<RouteRequest>,
    /// Migration completions to report to the monitor.
    pub migration_done: Vec<MigrationDone>,
}

impl Effects {
    /// Creates an empty effect buffer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// True if no effects are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.joined.is_empty()
            && self.sends.is_empty()
            && self.route_requests.is_empty()
            && self.migration_done.is_empty()
    }

    /// Clears all buffers, retaining capacity.
    pub fn clear(&mut self) {
        self.joined.clear();
        self.sends.clear();
        self.route_requests.clear();
        self.migration_done.clear();
    }
}

/// Migration-protocol state of a join instance.
#[derive(Debug, Clone, PartialEq)]
pub enum MigrationState {
    /// No migration involving this instance.
    Idle,
    /// This instance is the migration source: selected-key data is buffered
    /// until the dispatcher confirms the routing update.
    Source {
        /// Migration round id.
        epoch: Epoch,
        /// Target instance.
        target: usize,
        /// Selected key set.
        keys: HashSet<Key>,
        /// Data buffered during the routing update (arrival order).
        buffer: Vec<Tuple>,
        /// Stored tuples extracted and sent (for reporting).
        tuples_moved: u64,
    },
    /// This instance is the migration target: dispatcher data for migrated
    /// keys is held until the source signals completion.
    Target {
        /// Migration round id.
        epoch: Epoch,
        /// Source instance.
        from: usize,
        /// Keys being received.
        keys: HashSet<Key>,
        /// Dispatcher data held until `MigEnd` (arrival order).
        held: Vec<Tuple>,
        /// Stored tuples received so far via `MigStore` (for the completion
        /// report — the target emits [`MigrationDone`], proving both
        /// endpoints are idle before the monitor can start a new round).
        received: u64,
    },
}

impl MigrationState {
    /// True when no migration is in progress at this instance.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        matches!(self, MigrationState::Idle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::Side;

    #[test]
    fn effects_clear_and_emptiness() {
        let mut e = Effects::new();
        assert!(e.is_empty());
        e.sends.push((1, InstanceMsg::RouteUpdated { epoch: 0 }));
        assert!(!e.is_empty());
        e.clear();
        assert!(e.is_empty());

        let mut e2 = Effects::new();
        let t = Tuple::new(Side::R, 1, 0, 0);
        let s = Tuple::new(Side::S, 1, 1, 0);
        let (mut t2, mut s2) = (t, s);
        t2.seq = 1;
        s2.seq = 2;
        e2.joined.push(JoinedPair::orient(t2, s2));
        assert!(!e2.is_empty());
    }

    #[test]
    fn migration_state_idle_check() {
        assert!(MigrationState::Idle.is_idle());
        let st = MigrationState::Target {
            epoch: 1,
            from: 0,
            keys: HashSet::new(),
            held: Vec::new(),
            received: 0,
        };
        assert!(!st.is_idle());
    }
}
