//! Messages exchanged between runtime executors.
//!
//! Every join-instance executor has exactly one input channel carrying
//! [`RtMsg`]; keeping data and control on the same FIFO channel is what
//! gives the per-channel ordering the migration protocol requires (the
//! same property Storm gives messages between two bolts).
//!
//! Each data hop has one message form: [`SpoutMsg::Data`] carries a run of
//! spout tuples to a shard, [`RtMsg::Data`] carries a destination's pending
//! queue — store and probe tuples interleaved in arrival order, each
//! stamped with its dispatch seq and probe fan-out — to an instance. The
//! instance tells a store from a probe by the tuple's side, and a probe's
//! fan-out stays in its tuple however far a migration forwards it. A
//! message of n items *means* n consecutive one-item messages on the same
//! channel; every consumer (executors, kill switches, chaos receivers,
//! checkpoints) preserves that equivalence, which is what lets the
//! migration protocol ignore batching entirely.
//!
//! The result hop follows the same unit: an instance reports the probes
//! one input message completed as one vector of [`ProbeReport`]s, stamped
//! once with the time the step that completed them finished.

use fastjoin_core::load::InstanceLoad;
use fastjoin_core::protocol::MigrationDone;
use fastjoin_core::tuple::Tuple;

// The dispatcher and instance stages' own vocabulary lives with their
// state machines in `fastjoin_core` (`shard`, `sequencer`, `stage`); the
// channels here carry it as is.
pub use fastjoin_core::protocol::{DispatcherMsg, ProbeReport, RtMsg, ShardCtrl, ShardNote};

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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_constructible_and_debuggable() {
        let m = RtMsg::Data(vec![Tuple::r(1, 2, 3), Tuple::s(1, 2, 4)]);
        assert!(format!("{m:?}").contains("fanout"));
        let d = SpoutMsg::Eos;
        assert!(format!("{d:?}").contains("Eos"));
        let r = ProbeReport { seq: 1, fanout: 2, matches: 3, ts: 10 };
        assert_eq!(r.matches, 3);
        assert_eq!(std::mem::size_of::<ProbeReport>(), 32);
    }
}
