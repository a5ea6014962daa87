//! Deterministic, seed-driven fault injection for the threaded runtime.
//!
//! A [`FaultPlan`] describes every fault a run will experience: executor
//! crashes pinned to migration-protocol phases ([`CrashFault`]) and
//! perturbed report delivery into the monitors ([`ChaosPolicy`]). No fault
//! loses a migration-protocol message, so every triggered round completes.
//! Everything is derived from a single seed through the deterministic
//! `rand` generator, so a failing chaos schedule replays exactly from its
//! seed alone.
//!
//! Two delivery guarantees bound what the plan may perturb:
//!
//! * **Data-plane channels are FIFO and lossless.** Per-channel ordering
//!   is the correctness backbone of the migration protocol (§III-D), so
//!   instance inboxes only ever get *delay* faults — extra latency
//!   reshuffles thread interleavings without breaking the contract the
//!   protocol is entitled to.
//! * **Monitor reports are best-effort by design.** Load reports may be
//!   dropped, duplicated, or reordered freely; `MigrationDone` and
//!   `Quiesce` are never touched (losing them wedges shutdown, which is a
//!   harness bug, not an interesting fault).
//!
//! Crashes are *fail-stop at a message boundary*: the kill switch fires
//! immediately before the victim processes the matching message, inside
//! the supervisor's `catch_unwind` region, so recovery sees a state that
//! is exactly "everything before this message, nothing of it".

use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use fastjoin_core::protocol::InstanceMsg;

use crate::msg::RtMsg;

/// Which executor-crash point in the migration protocol to target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPhase {
    /// The migration target crashes just before processing `MigStart` —
    /// the round is announced but no store payload has been installed.
    PreMigStart,
    /// The migration target crashes just before processing `MigForward` —
    /// the store payload is installed, the route has flipped, and the
    /// source's buffered tuples (probes with their fan-out) are in its
    /// inbox.
    PreMigForward,
    /// The migration source crashes just before processing `RouteUpdated`
    /// — keys are buffered, the dispatcher already flipped the route.
    PreRouteFlip,
    /// No protocol alignment: crash before processing the `after_msgs`-th
    /// message (steady-state crash).
    SteadyState {
        /// How many messages the victim processes before the crash.
        after_msgs: u64,
    },
    /// Control plane: the sequencer crashes immediately before processing
    /// its `at_publish`-th `Route` request — i.e. before applying the
    /// route and opening the publication barrier. The supervisor restarts it,
    /// re-publishes the current snapshot, and replays the in-flight
    /// message. Ignored by instance executors.
    SequencerBarrier {
        /// 1-based index of the `Route` message to die on.
        at_publish: u64,
    },
    /// Control plane: dispatcher shard `CrashFault::instance` crashes
    /// immediately before installing its `at_install`-th snapshot — after
    /// the `Publish` was popped from the control channel, before the flush
    /// and install. The epoch fence survives the restart, so the
    /// resurrected shard can never acknowledge a superseded snapshot.
    /// Ignored by instance executors.
    ShardSnapshotInstall {
        /// 1-based index of the snapshot install to die on.
        at_install: u64,
    },
    /// Control plane: the monitor of group `CrashFault::group` crashes
    /// immediately after sending its `at_round`-th `MigrateCmd` — a round
    /// is in flight while its monitor is down, and the tick's decision is
    /// not journaled yet. The supervisor restarts the executor with its
    /// `Monitor` kept, in-flight round included (or, restarts exhausted,
    /// the run degrades to frozen routing while the round completes at
    /// the instances). Ignored by instance executors.
    MonitorMidRound {
        /// 1-based index of the triggered round to die after.
        at_round: u64,
    },
}

impl CrashPhase {
    /// True for control-plane phases (sequencer / shard / monitor), which
    /// instance kill switches must ignore.
    #[must_use]
    pub fn is_control(&self) -> bool {
        matches!(
            self,
            CrashPhase::SequencerBarrier { .. }
                | CrashPhase::ShardSnapshotInstall { .. }
                | CrashPhase::MonitorMidRound { .. }
        )
    }
}

/// One scheduled executor crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashFault {
    /// Victim group (0 = R, 1 = S).
    pub group: usize,
    /// Victim instance index within the group.
    pub instance: usize,
    /// When to pull the trigger.
    pub phase: CrashPhase,
}

/// Per-channel message perturbation rates. Each is "1 in N" (0 = never).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChaosPolicy {
    /// Delay 1 in N delivered messages…
    pub delay_1_in: u64,
    /// …by up to this many microseconds (uniform).
    pub delay_max_us: u64,
    /// Drop 1 in N *eligible* messages.
    pub drop_1_in: u64,
    /// Duplicate 1 in N *eligible* messages.
    pub dup_1_in: u64,
    /// Swap 1 in N *eligible* messages with their successor.
    pub reorder_1_in: u64,
}

impl ChaosPolicy {
    /// True if every knob is off.
    #[must_use]
    pub fn is_noop(&self) -> bool {
        self.delay_1_in == 0 && self.drop_1_in == 0 && self.dup_1_in == 0 && self.reorder_1_in == 0
    }
}

/// The complete fault schedule for one run. [`FaultPlan::default`] injects
/// nothing, so fault-free runs pay only a few branch checks.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Master seed; every chaos consumer derives its own stream from it.
    pub seed: u64,
    /// Scheduled executor crashes (each fires at most once).
    pub crashes: Vec<CrashFault>,
    /// Perturbation of instance inboxes (delay knobs only are honoured —
    /// data-plane FIFO is load-bearing, see the module docs).
    pub instance_chaos: ChaosPolicy,
    /// Perturbation of monitor inboxes (all knobs honoured, but only load
    /// reports are eligible for drop/dup/reorder).
    pub monitor_chaos: ChaosPolicy,
}

impl FaultPlan {
    /// True if the plan injects nothing at all.
    #[must_use]
    pub fn is_noop(&self) -> bool {
        self.crashes.is_empty() && self.instance_chaos.is_noop() && self.monitor_chaos.is_noop()
    }

    /// A generator for one chaos consumer, decorrelated from every other
    /// consumer's stream by `salt` (e.g. a hash of the executor name).
    #[must_use]
    pub fn rng_for(&self, salt: u64) -> StdRng {
        StdRng::seed_from_u64(self.seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// The crash scheduled for instance `(group, id)`, if any.
    /// Control-plane phases never target instances, so they are skipped.
    #[must_use]
    pub fn crash_for(&self, group: usize, id: usize) -> Option<CrashPhase> {
        self.crashes
            .iter()
            .find(|c| c.group == group && c.instance == id && !c.phase.is_control())
            .map(|c| c.phase)
    }

    /// The sequencer crash scheduled for this run, if any: the 1-based
    /// `Route` index to die on. (`group`/`instance` are ignored for the
    /// sequencer — there is exactly one.)
    #[must_use]
    pub fn sequencer_crash(&self) -> Option<u64> {
        self.crashes.iter().find_map(|c| match c.phase {
            CrashPhase::SequencerBarrier { at_publish } => Some(at_publish),
            _ => None,
        })
    }

    /// The crash scheduled for dispatcher shard `shard` (addressed via
    /// `CrashFault::instance`), if any: the 1-based install index to die
    /// on.
    #[must_use]
    pub fn shard_crash(&self, shard: usize) -> Option<u64> {
        self.crashes.iter().find_map(|c| match c.phase {
            CrashPhase::ShardSnapshotInstall { at_install } if c.instance == shard => {
                Some(at_install)
            }
            _ => None,
        })
    }

    /// The crash scheduled for the monitor of `group`, if any: the 1-based
    /// triggered-round index to die after.
    #[must_use]
    pub fn monitor_crash(&self, group: usize) -> Option<u64> {
        self.crashes.iter().find_map(|c| match c.phase {
            CrashPhase::MonitorMidRound { at_round } if c.group == group => Some(at_round),
            _ => None,
        })
    }
}

/// Single-fire kill switch armed with a [`CrashPhase`], consulted by the
/// instance supervisor before each message is processed.
#[derive(Debug)]
pub struct KillSwitch {
    phase: Option<CrashPhase>,
    msgs_seen: u64,
}

impl KillSwitch {
    /// A switch that will fire at `phase` (or never, for `None`).
    #[must_use]
    pub fn new(phase: Option<CrashPhase>) -> Self {
        KillSwitch { phase, msgs_seen: 0 }
    }

    /// Returns `true` exactly once, immediately before the message that
    /// matches the armed phase would be processed.
    pub fn should_crash(&mut self, msg: &RtMsg) -> bool {
        // Steady-state progress is counted in *tuples*, not channel
        // messages, so a run crashes at the same point in the stream at
        // every batch size (a batch itself is a valid crash point:
        // fail-stop at a message boundary retries the whole batch).
        self.msgs_seen += match msg {
            RtMsg::Data(items) => items.len() as u64,
            RtMsg::Inst(_) | RtMsg::ReportRequest | RtMsg::Eos => 1,
        };
        let Some(phase) = self.phase else { return false };
        let fire = match phase {
            CrashPhase::PreMigStart => matches!(msg, RtMsg::Inst(InstanceMsg::MigStart { .. })),
            CrashPhase::PreMigForward => matches!(msg, RtMsg::Inst(InstanceMsg::MigForward { .. })),
            CrashPhase::PreRouteFlip => {
                matches!(msg, RtMsg::Inst(InstanceMsg::RouteUpdated { .. }))
            }
            CrashPhase::SteadyState { after_msgs } => self.msgs_seen > after_msgs,
            // Control-plane phases never fire at an instance.
            CrashPhase::SequencerBarrier { .. }
            | CrashPhase::ShardSnapshotInstall { .. }
            | CrashPhase::MonitorMidRound { .. } => false,
        };
        if fire {
            self.phase = None; // single fire: the retried message must pass
        }
        fire
    }
}

/// Single-fire kill switch for control-plane executors (sequencer, shard,
/// monitor), armed with a 1-based event index rather than a message
/// pattern: the owner calls [`ControlKillSwitch::should_crash`] once per
/// matching event (a `Route` processed, a snapshot install, a round
/// trigger) and crashes when the armed index is reached. Fires at most
/// once — the restarted incarnation replays the same event and passes.
#[derive(Debug)]
pub struct ControlKillSwitch {
    at: Option<u64>,
    seen: u64,
}

impl ControlKillSwitch {
    /// A switch that fires on the `at`-th event (or never, for `None`).
    #[must_use]
    pub fn new(at: Option<u64>) -> Self {
        ControlKillSwitch { at, seen: 0 }
    }

    /// Counts one event; returns `true` exactly once, when the armed
    /// index is reached.
    pub fn should_crash(&mut self) -> bool {
        self.seen += 1;
        let Some(at) = self.at else { return false };
        if self.seen >= at {
            self.at = None; // single fire: the replayed event must pass
            true
        } else {
            false
        }
    }
}

/// Splits a data message of several items into one-item messages, in
/// order, or returns any other message untouched. Installed on instance
/// [`ChaosReceiver`]s so chaos perturbs at *tuple* granularity: every
/// batch size exposes the same per-tuple fault space (delays between any
/// two tuples) the chaos seed matrix was calibrated against.
///
/// # Errors
/// The original message, when there is nothing to split: it is not a data
/// message, or it carries at most one item. The receiver feeds split parts
/// back through the splitter, so a one-item message must come back as
/// `Err` or an active policy would split forever.
pub fn split_rt_batches(msg: RtMsg) -> Result<Vec<RtMsg>, RtMsg> {
    match msg {
        RtMsg::Data(items) if items.len() > 1 => {
            Ok(items.into_iter().map(|item| RtMsg::Data(vec![item])).collect())
        }
        RtMsg::Data(_) | RtMsg::Inst(_) | RtMsg::ReportRequest | RtMsg::Eos => Err(msg),
    }
}

/// Splits a batch message into one-item messages (`Ok`), or returns the
/// message unsplit (`Err`) when there is nothing to split — which must
/// include every part of an earlier split. See [`split_rt_batches`] for
/// the canonical implementation.
pub type BatchSplitter<T> = fn(T) -> Result<Vec<T>, T>;

/// A receiver wrapped with seed-driven delay/drop/duplicate/reorder
/// faults. `eligible` gates which messages may be dropped, duplicated, or
/// reordered; *delay* (a sleep before delivery) applies to any message —
/// it perturbs timing without violating FIFO.
pub struct ChaosReceiver<T: Clone> {
    rx: crossbeam::channel::Receiver<T>,
    policy: ChaosPolicy,
    rng: StdRng,
    eligible: fn(&T) -> bool,
    /// Optional batch splitter (see [`split_rt_batches`]): under an active
    /// policy, incoming messages are split into one-item messages so
    /// faults apply at tuple granularity. `Err` returns the message
    /// unsplit; `Ok` yields the parts in order.
    splitter: Option<BatchSplitter<T>>,
    /// Parts of a split batch awaiting the fault pipeline, in order.
    presplit: std::collections::VecDeque<T>,
    /// A message displaced by a reorder: delivered after its successor.
    stash: Option<T>,
    /// Duplicates and displaced messages awaiting redelivery.
    pending: std::collections::VecDeque<T>,
    /// Applied perturbations, in the order of [`ChaosReceiver::perturbations`].
    delays: u64,
    drops: u64,
    dups: u64,
    reorders: u64,
}

impl<T: Clone> ChaosReceiver<T> {
    /// Wraps `rx`; with a no-op policy the wrapper is pass-through.
    pub fn new(
        rx: crossbeam::channel::Receiver<T>,
        policy: ChaosPolicy,
        rng: StdRng,
        eligible: fn(&T) -> bool,
    ) -> Self {
        ChaosReceiver {
            rx,
            policy,
            rng,
            eligible,
            splitter: None,
            presplit: std::collections::VecDeque::new(),
            stash: None,
            pending: std::collections::VecDeque::new(),
            delays: 0,
            drops: 0,
            dups: 0,
            reorders: 0,
        }
    }

    /// Installs a batch splitter. Only consulted while the policy is
    /// active: a no-op receiver stays a pure pass-through and batches
    /// cross it intact.
    #[must_use]
    pub fn with_splitter(mut self, splitter: BatchSplitter<T>) -> Self {
        self.splitter = Some(splitter);
        self
    }

    /// How many faults this receiver actually applied, as
    /// `(delays, drops, dups, reorders)`. Runs surface these next to the
    /// trace journal so a chaos report states what was really injected,
    /// not just what the policy allowed.
    #[must_use]
    pub fn perturbations(&self) -> (u64, u64, u64, u64) {
        (self.delays, self.drops, self.dups, self.reorders)
    }

    /// Current queue length of the underlying channel plus messages the
    /// fault pipeline is still holding (for depth gauges).
    #[must_use]
    pub fn queue_len(&self) -> usize {
        self.rx.len() + self.presplit.len() + self.pending.len() + usize::from(self.stash.is_some())
    }

    fn roll(&mut self, one_in: u64) -> bool {
        one_in > 0 && self.rng.gen_range(0..one_in) == 0
    }

    /// Like `Receiver::recv_timeout`, through the fault policy. Chaos
    /// never invents a timeout and never loses an ineligible message; an
    /// eligible message may be dropped (the next one is returned instead),
    /// duplicated (redelivered on the next call), or swapped with its
    /// successor.
    pub fn recv_timeout(
        &mut self,
        timeout: Duration,
    ) -> Result<T, crossbeam::channel::RecvTimeoutError> {
        if let Some(m) = self.pending.pop_front() {
            return Ok(m);
        }
        loop {
            let msg = if let Some(m) = self.presplit.pop_front() {
                m
            } else {
                match self.rx.recv_timeout(timeout) {
                    Ok(m) => m,
                    Err(e) => {
                        // Nothing live arrived: flush a displaced message
                        // rather than holding it across an idle period.
                        if let Some(m) = self.stash.take() {
                            return Ok(m);
                        }
                        return Err(e);
                    }
                }
            };
            // Split batches before rolling any fault so chaos decisions
            // are per tuple at every batch size; each part re-enters the
            // pipeline in order (FIFO preserved) and comes back from the
            // splitter as `Err` — a part has nothing left to split.
            let msg = match self.splitter.filter(|_| !self.policy.is_noop()) {
                Some(split) => match split(msg) {
                    Ok(parts) => {
                        self.presplit.extend(parts);
                        continue;
                    }
                    Err(m) => m,
                },
                None => msg,
            };
            if self.policy.delay_max_us > 0 && self.roll(self.policy.delay_1_in) {
                let us = self.rng.gen_range(0..=self.policy.delay_max_us);
                self.delays += 1;
                std::thread::sleep(Duration::from_micros(us));
            }
            if (self.eligible)(&msg) {
                if self.roll(self.policy.drop_1_in) {
                    self.drops += 1;
                    continue; // dropped: take the next message
                }
                if self.roll(self.policy.dup_1_in) {
                    self.dups += 1;
                    self.pending.push_back(msg.clone());
                }
                if self.stash.is_none() && self.roll(self.policy.reorder_1_in) {
                    self.reorders += 1;
                    self.stash = Some(msg);
                    continue; // deliver the successor first
                }
            }
            if let Some(displaced) = self.stash.take() {
                // `msg` overtook `displaced`: hand `msg` out now and the
                // displaced one on the next call.
                self.pending.push_front(displaced);
            }
            return Ok(msg);
        }
    }
}

/// The named schedules `fastjoin-cli chaos` and the in-tree chaos suite run.
impl FaultPlan {
    /// The fault classes of the chaos matrix, in the order it runs them:
    /// instance crashes at the four protocol phases, channel chaos, and
    /// the kills of the supervised control executors.
    pub const CLASSES: [&'static str; 8] = [
        "crash-pre-migstart",
        "crash-pre-migforward",
        "crash-pre-route-flip",
        "crash-steady-state",
        "channel-chaos",
        "kill-sequencer",
        "kill-shard",
        "kill-monitor",
    ];

    /// The schedule of fault class `name` under `seed`, shaped for up to
    /// four instances per group and four dispatcher shards (entries for
    /// executors a run does not have are inert); `None` for a name that is
    /// not in [`FaultPlan::CLASSES`].
    #[must_use]
    pub fn class(name: &str, seed: u64) -> Option<FaultPlan> {
        let crashing = |crashes| FaultPlan { crashes, ..FaultPlan::default() };
        // Every instance of both groups: whichever executor the migration
        // protocol steers into `phase` crashes (once).
        let everywhere = |phase| {
            crashing(
                (0..2)
                    .flat_map(|group| {
                        (0..4).map(move |instance| CrashFault { group, instance, phase })
                    })
                    .collect(),
            )
        };
        let plan = match name {
            "crash-pre-migstart" => everywhere(CrashPhase::PreMigStart),
            "crash-pre-migforward" => everywhere(CrashPhase::PreMigForward),
            "crash-pre-route-flip" => everywhere(CrashPhase::PreRouteFlip),
            "crash-steady-state" => everywhere(CrashPhase::SteadyState { after_msgs: 400 }),
            // Delay on the (FIFO, lossless) data plane; drop/dup/reorder on
            // the best-effort monitor report stream.
            "channel-chaos" => FaultPlan {
                instance_chaos: ChaosPolicy {
                    delay_1_in: 64,
                    delay_max_us: 300,
                    ..ChaosPolicy::default()
                },
                monitor_chaos: ChaosPolicy {
                    delay_1_in: 16,
                    delay_max_us: 500,
                    drop_1_in: 4,
                    dup_1_in: 4,
                    reorder_1_in: 4,
                },
                ..FaultPlan::default()
            },
            // The sequencer dies as it receives its first route publication
            // (the parked message is replayed on restart).
            "kill-sequencer" => crashing(vec![CrashFault {
                group: 0,
                instance: 0,
                phase: CrashPhase::SequencerBarrier { at_publish: 1 },
            }]),
            // Every dispatcher shard dies at its first snapshot install; the
            // epoch fence plus re-publication must rebuild each one.
            "kill-shard" => crashing(
                (0..4)
                    .map(|instance| CrashFault {
                        group: 0,
                        instance,
                        phase: CrashPhase::ShardSnapshotInstall { at_install: 1 },
                    })
                    .collect(),
            ),
            // Both monitors die right after they commit to a migration round.
            "kill-monitor" => crashing(
                (0..2)
                    .map(|group| CrashFault {
                        group,
                        instance: 0,
                        phase: CrashPhase::MonitorMidRound { at_round: 1 },
                    })
                    .collect(),
            ),
            _ => return None,
        };
        Some(FaultPlan { seed, ..plan })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::unbounded;
    use fastjoin_core::tuple::{Side, Tuple};

    fn plan_with_seed(seed: u64) -> FaultPlan {
        FaultPlan { seed, ..FaultPlan::default() }
    }

    #[test]
    fn default_plan_is_noop() {
        assert!(FaultPlan::default().is_noop());
        let chaotic = FaultPlan {
            monitor_chaos: ChaosPolicy { drop_1_in: 4, ..ChaosPolicy::default() },
            ..FaultPlan::default()
        };
        assert!(!chaotic.is_noop());
    }

    #[test]
    fn every_listed_class_has_a_plan_and_no_other_name_does() {
        for name in FaultPlan::CLASSES {
            let plan = FaultPlan::class(name, 7).unwrap_or_else(|| panic!("{name} has no plan"));
            assert!(!plan.is_noop(), "{name} injects nothing");
            assert_eq!(plan.seed, 7, "{name} drops the seed");
        }
        assert!(FaultPlan::class("kill-everything", 7).is_none());
    }

    #[test]
    fn rng_streams_are_deterministic_and_decorrelated() {
        let plan = plan_with_seed(42);
        let a: Vec<u64> = {
            let mut r = plan.rng_for(1);
            (0..4).map(|_| r.gen_range(0..1000u64)).collect()
        };
        let a2: Vec<u64> = {
            let mut r = plan.rng_for(1);
            (0..4).map(|_| r.gen_range(0..1000u64)).collect()
        };
        let b: Vec<u64> = {
            let mut r = plan.rng_for(2);
            (0..4).map(|_| r.gen_range(0..1000u64)).collect()
        };
        assert_eq!(a, a2);
        assert_ne!(a, b);
    }

    #[test]
    fn kill_switch_fires_once_at_the_right_message() {
        let mut ks = KillSwitch::new(Some(CrashPhase::PreRouteFlip));
        assert!(!ks.should_crash(&RtMsg::ReportRequest));
        let flip = RtMsg::Inst(InstanceMsg::RouteUpdated { epoch: 3 });
        assert!(ks.should_crash(&flip));
        // Retried message passes: single fire.
        assert!(!ks.should_crash(&flip));
    }

    #[test]
    fn pre_migforward_fires_on_the_forward_only() {
        let mut ks = KillSwitch::new(Some(CrashPhase::PreMigForward));
        let start = RtMsg::Inst(InstanceMsg::MigStart { epoch: 1, from: 0, keys: vec![7] });
        let fwd = RtMsg::Inst(InstanceMsg::MigForward { epoch: 1, tuples: Vec::new() });
        assert!(!ks.should_crash(&start));
        assert!(!ks.should_crash(&mixed_msg(2)));
        assert!(ks.should_crash(&fwd));
        assert!(!ks.should_crash(&fwd), "single fire");
        let plan = FaultPlan::class("crash-pre-migforward", 1).expect("a listed class");
        assert_eq!(plan.crash_for(1, 3), Some(CrashPhase::PreMigForward));
    }

    #[test]
    fn control_phases_never_fire_at_instances_and_resolve_by_helper() {
        let plan = FaultPlan {
            crashes: vec![
                CrashFault {
                    group: 0,
                    instance: 0,
                    phase: CrashPhase::SequencerBarrier { at_publish: 2 },
                },
                CrashFault {
                    group: 0,
                    instance: 1,
                    phase: CrashPhase::ShardSnapshotInstall { at_install: 3 },
                },
                CrashFault {
                    group: 1,
                    instance: 0,
                    phase: CrashPhase::MonitorMidRound { at_round: 1 },
                },
            ],
            ..FaultPlan::default()
        };
        // Instance lookup skips control phases entirely…
        assert_eq!(plan.crash_for(0, 0), None);
        assert_eq!(plan.crash_for(0, 1), None);
        assert_eq!(plan.crash_for(1, 0), None);
        // …while the control-plane helpers resolve them.
        assert_eq!(plan.sequencer_crash(), Some(2));
        assert_eq!(plan.shard_crash(1), Some(3));
        assert_eq!(plan.shard_crash(0), None);
        assert_eq!(plan.monitor_crash(1), Some(1));
        assert_eq!(plan.monitor_crash(0), None);
        // And even if an instance kill switch were armed with one, it
        // never fires on any message.
        let mut ks = KillSwitch::new(Some(CrashPhase::SequencerBarrier { at_publish: 1 }));
        assert!(!ks.should_crash(&RtMsg::ReportRequest));
        assert!(!ks.should_crash(&RtMsg::Eos));
    }

    #[test]
    fn control_kill_switch_fires_once_at_the_armed_index() {
        let mut ks = ControlKillSwitch::new(Some(3));
        assert!(!ks.should_crash());
        assert!(!ks.should_crash());
        assert!(ks.should_crash(), "fires on the 3rd event");
        assert!(!ks.should_crash(), "single fire: the replayed event passes");
        let mut never = ControlKillSwitch::new(None);
        for _ in 0..10 {
            assert!(!never.should_crash());
        }
    }

    #[test]
    fn steady_state_counts_messages() {
        let mut ks = KillSwitch::new(Some(CrashPhase::SteadyState { after_msgs: 2 }));
        assert!(!ks.should_crash(&RtMsg::ReportRequest));
        assert!(!ks.should_crash(&RtMsg::ReportRequest));
        assert!(ks.should_crash(&RtMsg::ReportRequest));
    }

    /// A mixed store/probe message for an R-storing instance, payloads
    /// `0..n` in order; each probe fans out to two instances.
    fn mixed_msg(n: u64) -> RtMsg {
        RtMsg::Data(
            (0..n)
                .map(|i| match i % 2 {
                    0 => Tuple::r(i, 0, i),
                    _ => Tuple { fanout: 2, ..Tuple::s(i, 0, i) },
                })
                .collect(),
        )
    }

    /// The payloads a data message carries, in order.
    fn payloads(msg: &RtMsg) -> Vec<u64> {
        match msg {
            RtMsg::Data(items) => items.iter().map(|t| t.payload).collect(),
            other => panic!("not a data message: {other:?}"),
        }
    }

    #[test]
    fn steady_state_counts_tuples_inside_batches() {
        let mut ks = KillSwitch::new(Some(CrashPhase::SteadyState { after_msgs: 2 }));
        // One mixed 3-item message crosses the threshold on its own.
        let batch = mixed_msg(3);
        assert!(ks.should_crash(&batch), "3 tuples > after_msgs = 2");
        assert!(!ks.should_crash(&batch), "single fire");
    }

    #[test]
    fn split_rt_batches_yields_one_item_messages_in_order() {
        let parts = split_rt_batches(mixed_msg(4)).expect("a 4-item message splits");
        assert_eq!(parts.len(), 4);
        for (i, part) in parts.iter().enumerate() {
            assert_eq!(payloads(part), vec![i as u64]);
        }
        assert!(
            matches!(parts.as_slice(), [RtMsg::Data(a), RtMsg::Data(b), ..]
                if matches!(a.as_slice(), [Tuple { side: Side::R, .. }])
                    && matches!(b.as_slice(), [Tuple { side: Side::S, fanout: 2, .. }])),
            "items keep their side and fan-out: {parts:?}"
        );
        // Nothing to split: a part of a split, and any non-data message.
        assert!(split_rt_batches(mixed_msg(1)).is_err(), "a one-item message must not re-split");
        assert!(split_rt_batches(RtMsg::ReportRequest).is_err(), "non-data passes through");
    }

    /// An active policy delivers a 3-item message as three one-item
    /// messages and then runs dry. A splitter that re-split its own parts
    /// would spin inside the first `recv_timeout` forever — this test
    /// fails by hanging there.
    #[test]
    fn splitter_unpacks_batches_once_under_an_active_policy() {
        let (tx, rx) = unbounded::<RtMsg>();
        // Delay-only policy (what instance inboxes get): non-noop, FIFO.
        let policy = ChaosPolicy { delay_1_in: 1000, delay_max_us: 1, ..Default::default() };
        let mut chaos = ChaosReceiver::new(rx, policy, plan_with_seed(3).rng_for(9), |_| false)
            .with_splitter(split_rt_batches);
        tx.send(mixed_msg(3)).unwrap();
        for i in 0..3 {
            let part = chaos.recv_timeout(Duration::from_secs(1)).unwrap();
            assert_eq!(payloads(&part), vec![i]);
        }
        assert!(matches!(
            chaos.recv_timeout(Duration::from_millis(10)),
            Err(crossbeam::channel::RecvTimeoutError::Timeout)
        ));
    }

    #[test]
    fn splitter_is_bypassed_when_the_policy_is_noop() {
        let (tx, rx) = unbounded::<RtMsg>();
        let mut chaos =
            ChaosReceiver::new(rx, ChaosPolicy::default(), plan_with_seed(3).rng_for(9), |_| false)
                .with_splitter(split_rt_batches);
        tx.send(mixed_msg(2)).unwrap();
        let m = chaos.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(payloads(&m), vec![0, 1], "no policy, no split");
    }

    #[test]
    fn chaos_receiver_passthrough_without_policy() {
        let (tx, rx) = unbounded::<u32>();
        let mut chaos =
            ChaosReceiver::new(rx, ChaosPolicy::default(), plan_with_seed(7).rng_for(0), |_| true);
        for i in 0..10 {
            tx.send(i).unwrap();
        }
        let got: Vec<u32> =
            (0..10).map(|_| chaos.recv_timeout(Duration::from_secs(1)).unwrap()).collect();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn chaos_receiver_never_loses_ineligible_messages() {
        // Odd values are protected; crank every fault to the maximum and
        // verify all odd values still arrive exactly once, in order.
        let (tx, rx) = unbounded::<u32>();
        let policy =
            ChaosPolicy { drop_1_in: 2, dup_1_in: 2, reorder_1_in: 2, ..Default::default() };
        let mut chaos =
            ChaosReceiver::new(rx, policy, plan_with_seed(99).rng_for(3), |v| v % 2 == 0);
        for i in 0..100 {
            tx.send(i).unwrap();
        }
        drop(tx);
        let mut odd_seen = Vec::new();
        while let Ok(v) = chaos.recv_timeout(Duration::from_millis(10)) {
            if v % 2 == 1 {
                odd_seen.push(v);
            }
        }
        assert_eq!(odd_seen, (0..100).filter(|v| v % 2 == 1).collect::<Vec<_>>());
    }

    #[test]
    fn chaos_receiver_duplicates_and_reorders_eligible_messages() {
        let (tx, rx) = unbounded::<u32>();
        let policy = ChaosPolicy { dup_1_in: 3, reorder_1_in: 3, ..Default::default() };
        let mut chaos = ChaosReceiver::new(rx, policy, plan_with_seed(5).rng_for(11), |_| true);
        for i in 0..200 {
            tx.send(i).unwrap();
        }
        drop(tx);
        let mut got = Vec::new();
        while let Ok(v) = chaos.recv_timeout(Duration::from_millis(10)) {
            got.push(v);
        }
        // Nothing dropped (no drop knob), so with duplicates the stream is
        // at least as long, and every original value is present.
        assert!(got.len() >= 200);
        for i in 0..200 {
            assert!(got.contains(&i), "value {i} lost");
        }
        assert_ne!(got, (0..200).collect::<Vec<_>>(), "seeded chaos should perturb the stream");
        let (delays, drops, dups, reorders) = chaos.perturbations();
        assert_eq!(delays, 0, "no delay knob set");
        assert_eq!(drops, 0, "no drop knob set");
        assert_eq!(dups as usize, got.len() - 200, "each dup adds one delivery");
        assert!(reorders > 0, "seeded chaos applied no reorder in 200 messages");
    }

    #[test]
    fn perturbation_counters_stay_zero_on_passthrough() {
        let (tx, rx) = unbounded::<u32>();
        let mut chaos =
            ChaosReceiver::new(rx, ChaosPolicy::default(), plan_with_seed(1).rng_for(0), |_| true);
        tx.send(7).unwrap();
        assert_eq!(chaos.recv_timeout(Duration::from_secs(1)).unwrap(), 7);
        assert_eq!(chaos.perturbations(), (0, 0, 0, 0));
    }
}
