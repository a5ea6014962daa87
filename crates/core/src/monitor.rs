//! The monitoring component (§III-A).
//!
//! One monitor per join group receives periodic `(|R_i|, φ_si)` reports
//! from its instances into a *load information table*, computes the degree
//! of load imbalance `LI` (Eq. 2), and when `LI > Θ` instructs the heaviest
//! instance to migrate keys to the lightest. At most one migration per
//! group is in flight at a time, and a cooldown keeps rounds apart (the
//! paper: "the migration can never take place frequently").

use crate::load::{InstanceLoad, LoadTable};
use crate::metrics::MigrationSpan;
use crate::protocol::{Epoch, InstanceMsg, MigrationDone};

/// Migration command produced by the monitor: deliver `msg` to instance
/// `source`.
#[derive(Debug, Clone, PartialEq)]
pub struct MigrationTrigger {
    /// The heaviest instance — the migration source.
    pub source: usize,
    /// The command to deliver to it.
    pub msg: InstanceMsg,
}

/// Lifetime migration statistics of one monitor.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MonitorStats {
    /// Migration rounds triggered.
    pub triggered: u64,
    /// Rounds that completed having moved at least one key.
    pub effective: u64,
    /// Rounds abandoned by selection (nothing worth moving).
    pub abandoned: u64,
    /// Total stored tuples physically migrated.
    pub tuples_moved: u64,
    /// Total keys migrated.
    pub keys_moved: u64,
}

/// Why a trigger evaluation with `LI > Θ` ended the way it did — the
/// decision-audit vocabulary. Evaluations where `LI <= Θ` (steady state)
/// are not decisions and are never recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionReason {
    /// A migration round was triggered (heaviest → lightest).
    Triggered,
    /// Rejected: the cooldown since the last round had not elapsed.
    Cooldown,
    /// Rejected: a round was already in flight.
    InFlight,
    /// Rejected: heaviest == lightest (degenerate candidate set).
    Degenerate,
}

impl DecisionReason {
    /// Stable lowercase name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            DecisionReason::Triggered => "triggered",
            DecisionReason::Cooldown => "cooldown",
            DecisionReason::InFlight => "in_flight",
            DecisionReason::Degenerate => "degenerate",
        }
    }

    /// Compact numeric code carried in trace events (`MigDecision.aux`).
    #[must_use]
    pub fn code(self) -> u64 {
        match self {
            DecisionReason::Triggered => 0,
            DecisionReason::Cooldown => 1,
            DecisionReason::InFlight => 2,
            DecisionReason::Degenerate => 3,
        }
    }

    /// The reason a trace event's [`DecisionReason::code`] stands for, or
    /// `None` for a code this build does not know (a newer journal).
    #[must_use]
    pub fn from_code(code: u64) -> Option<Self> {
        [Self::Triggered, Self::Cooldown, Self::InFlight, Self::Degenerate]
            .into_iter()
            .find(|r| r.code() == code)
    }
}

/// How a decision ultimately resolved. Rejections are terminal
/// (`Rejected`); triggered rounds start `Pending` and are patched by
/// [`Monitor::on_migration_done`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionOutcome {
    /// A rejected evaluation (see its [`DecisionReason`]).
    Rejected,
    /// Triggered; the round has not completed yet.
    Pending,
    /// Triggered; the round moved at least one key.
    Effective,
    /// Triggered; the source abandoned (zero-benefit selection).
    Abandoned,
}

impl DecisionOutcome {
    /// Stable lowercase name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            DecisionOutcome::Rejected => "rejected",
            DecisionOutcome::Pending => "pending",
            DecisionOutcome::Effective => "effective",
            DecisionOutcome::Abandoned => "abandoned",
        }
    }
}

/// One audited trigger evaluation: the candidate set the monitor looked
/// at, what it chose, and why. Consecutive identical rejections collapse
/// into one entry with a `repeats` count so a long cooldown stretch does
/// not evict triggered rounds from the bounded log.
#[derive(Debug, Clone, PartialEq)]
pub struct MigrationDecision {
    /// Time of the first evaluation collapsed into this entry.
    pub at: u64,
    /// Time of the latest evaluation collapsed into this entry.
    pub last_at: u64,
    /// Identical consecutive evaluations collapsed in after the first.
    pub repeats: u64,
    /// The allocated round epoch (`None` for rejections).
    pub epoch: Option<Epoch>,
    /// `LI` at the latest evaluation.
    pub imbalance: f64,
    /// The heaviest instance (would-be or actual migration source).
    pub source: usize,
    /// The lightest instance (would-be or actual migration target).
    pub target: usize,
    /// The candidate set considered: per-instance loads at evaluation.
    pub loads: Vec<InstanceLoad>,
    /// Why the evaluation resolved the way it did.
    pub reason: DecisionReason,
    /// How the decision ultimately resolved.
    pub outcome: DecisionOutcome,
}

/// Bound on the per-monitor decision log; oldest entries are evicted.
const DECISION_LOG_CAP: usize = 512;

/// The per-group monitor.
#[derive(Debug)]
pub struct Monitor {
    table: LoadTable,
    theta: f64,
    cooldown: u64,
    /// End time of the last completed round (or of creation).
    last_round_end: u64,
    in_flight: Option<Epoch>,
    next_epoch: Epoch,
    stats: MonitorStats,
    /// The span of the in-flight round, opened at trigger time.
    open_span: Option<MigrationSpan>,
    /// Completed round spans, oldest first (observability trace).
    spans: Vec<MigrationSpan>,
    /// Bounded decision-audit log, oldest first (see [`MigrationDecision`]).
    decisions: Vec<MigrationDecision>,
    /// Lifetime count of distinct decisions recorded (repeats collapse and
    /// evictions do not decrement) — lets callers emit trace events for
    /// only-new entries by diffing against a remembered count.
    decisions_recorded: u64,
}

impl Monitor {
    /// Creates a monitor for `n` instances with imbalance threshold `theta`
    /// and a minimum spacing of `cooldown` time units between rounds.
    ///
    /// # Panics
    /// Panics if `theta <= 1.0` — such a threshold would trigger on a
    /// perfectly balanced group.
    #[must_use]
    pub fn new(n: usize, theta: f64, cooldown: u64) -> Self {
        assert!(theta > 1.0, "theta must be > 1.0, got {theta}"); // lint:allow(constructor argument validation)
        Monitor {
            table: LoadTable::new(n),
            theta,
            cooldown,
            last_round_end: 0,
            in_flight: None,
            next_epoch: 1,
            stats: MonitorStats::default(),
            open_span: None,
            spans: Vec::new(),
            decisions: Vec::new(),
            decisions_recorded: 0,
        }
    }

    /// The load information table (read access).
    #[must_use]
    pub fn table(&self) -> &LoadTable {
        &self.table
    }

    /// Lifetime statistics.
    #[must_use]
    pub fn stats(&self) -> MonitorStats {
        self.stats
    }

    /// Completed migration-round spans, oldest first. A round still in
    /// flight has no span here until its `MigrationDone` arrives.
    #[must_use]
    pub fn spans(&self) -> &[MigrationSpan] {
        &self.spans
    }

    /// True while a migration round is in flight.
    #[must_use]
    pub fn migration_in_flight(&self) -> bool {
        self.in_flight.is_some()
    }

    /// Records a periodic load report from instance `i`.
    pub fn on_report(&mut self, i: usize, load: InstanceLoad) {
        self.table.update(i, load);
    }

    /// Registers `additional` new (idle) instances. They are immediately
    /// eligible as migration targets — which is exactly how an elastic
    /// join-biclique fills new capacity (§IV-C).
    pub fn grow(&mut self, additional: usize) {
        self.table.grow(additional);
    }

    /// Current degree of load imbalance `LI` (Eq. 2).
    #[must_use]
    pub fn imbalance(&self) -> f64 {
        self.table.imbalance()
    }

    /// Evaluates the trigger condition at time `now`: returns a
    /// [`MigrationTrigger`] when `LI > Θ`, no round is in flight, and the
    /// cooldown has elapsed.
    pub fn maybe_trigger(&mut self, now: u64) -> Option<MigrationTrigger> {
        let li = self.table.imbalance();
        if self.in_flight.is_some() {
            if li > self.theta {
                self.record_rejection(now, li, DecisionReason::InFlight);
            }
            return None;
        }
        if now < self.last_round_end.saturating_add(self.cooldown) {
            if li > self.theta {
                self.record_rejection(now, li, DecisionReason::Cooldown);
            }
            return None;
        }
        if li <= self.theta {
            return None;
        }
        let source = self.table.heaviest();
        let target = self.table.lightest();
        if source == target {
            self.record_rejection(now, li, DecisionReason::Degenerate);
            return None;
        }
        let epoch = self.next_epoch;
        self.next_epoch += 1;
        self.in_flight = Some(epoch);
        self.stats.triggered += 1;
        self.open_span = Some(MigrationSpan {
            epoch,
            source,
            target,
            imbalance_at_trigger: self.table.imbalance(),
            triggered_at: now,
            completed_at: 0,
            keys_moved: 0,
            tuples_moved: 0,
            effective: false,
            route_flip_us: None,
        });
        self.record_decision(MigrationDecision {
            at: now,
            last_at: now,
            repeats: 0,
            epoch: Some(epoch),
            imbalance: li,
            source,
            target,
            loads: self.load_snapshot(),
            reason: DecisionReason::Triggered,
            outcome: DecisionOutcome::Pending,
        });
        Some(MigrationTrigger {
            source,
            msg: InstanceMsg::MigrateCmd { epoch, target, target_load: self.table.get(target) },
        })
    }

    /// Appends a decision to the bounded audit log, evicting the oldest
    /// entry at capacity.
    fn record_decision(&mut self, d: MigrationDecision) {
        if self.decisions.len() >= DECISION_LOG_CAP {
            self.decisions.remove(0);
        }
        self.decisions.push(d);
        self.decisions_recorded += 1;
    }

    /// Records a rejected evaluation (`LI > Θ` but no round started).
    /// Consecutive rejections with the same reason and candidate pair
    /// collapse into the previous entry's `repeats` count.
    fn record_rejection(&mut self, now: u64, li: f64, reason: DecisionReason) {
        let source = self.table.heaviest();
        let target = self.table.lightest();
        if let Some(last) = self.decisions.last_mut() {
            if last.reason == reason && last.source == source && last.target == target {
                last.repeats += 1;
                last.last_at = now;
                last.imbalance = li;
                return;
            }
        }
        let loads = self.load_snapshot();
        self.record_decision(MigrationDecision {
            at: now,
            last_at: now,
            repeats: 0,
            epoch: None,
            imbalance: li,
            source,
            target,
            loads,
            reason,
            outcome: DecisionOutcome::Rejected,
        });
    }

    /// The decision-audit log, oldest first (bounded; oldest evicted).
    #[must_use]
    pub fn decisions(&self) -> &[MigrationDecision] {
        &self.decisions
    }

    /// Lifetime count of distinct decisions recorded (survives eviction;
    /// collapsed repeats don't count). Diff against a remembered value to
    /// find how many tail entries of [`Monitor::decisions`] are new.
    #[must_use]
    pub fn decisions_recorded(&self) -> u64 {
        self.decisions_recorded
    }

    /// The in-flight round as `(epoch, source, target)`, if any.
    #[must_use]
    pub fn in_flight_round(&self) -> Option<(Epoch, usize, usize)> {
        let epoch = self.in_flight?;
        let span = self.open_span.as_ref()?;
        Some((epoch, span.source, span.target))
    }

    /// Current per-instance loads.
    #[must_use]
    pub fn load_snapshot(&self) -> Vec<InstanceLoad> {
        self.table.loads().to_vec()
    }

    /// Records the one completion of the in-flight round.
    ///
    /// A round is *effective* only when it actually moved keys. Selection
    /// and the source instance guarantee every completed (non-abandoned)
    /// round had strictly positive total benefit — zero-benefit plans
    /// (`F_k = 0` keys under `θ_gap = 0`) are abandoned at the source and
    /// report `keys_moved == 0`, so they land in the `abandoned` bucket
    /// here rather than inflating `effective`.
    ///
    /// # Panics
    /// Panics on an epoch mismatch — that is a protocol bug.
    pub fn on_migration_done(&mut self, done: MigrationDone, now: u64) {
        let expected = self.in_flight.take().expect("MigrationDone with no round in flight"); // lint:allow(documented panic contract: an epoch mismatch is a protocol bug)
        assert_eq!(expected, done.epoch, "MigrationDone epoch mismatch"); // lint:allow(documented panic contract: an epoch mismatch is a protocol bug)
        self.last_round_end = now;
        let effective = done.keys_moved > 0;
        if effective {
            self.stats.effective += 1;
            self.stats.tuples_moved += done.tuples_moved;
            self.stats.keys_moved += done.keys_moved as u64;
        } else {
            self.stats.abandoned += 1;
        }
        if let Some(mut span) = self.open_span.take() {
            span.completed_at = now;
            span.keys_moved = done.keys_moved as u64;
            span.tuples_moved = done.tuples_moved;
            span.effective = effective;
            self.spans.push(span);
        }
        let outcome =
            if effective { DecisionOutcome::Effective } else { DecisionOutcome::Abandoned };
        if let Some(d) = self.decisions.iter_mut().rev().find(|d| d.epoch == Some(done.epoch)) {
            d.outcome = outcome;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loaded_monitor() -> Monitor {
        let mut m = Monitor::new(4, 2.2, 100);
        m.on_report(0, InstanceLoad::new(1000, 100)); // heavy
        m.on_report(1, InstanceLoad::new(100, 10));
        m.on_report(2, InstanceLoad::new(10, 2)); // light
        m.on_report(3, InstanceLoad::new(200, 20));
        m
    }

    #[test]
    fn triggers_heaviest_to_lightest() {
        let mut m = loaded_monitor();
        let trig = m.maybe_trigger(200).expect("imbalance far above theta");
        assert_eq!(trig.source, 0);
        match trig.msg {
            InstanceMsg::MigrateCmd { target, target_load, epoch } => {
                assert_eq!(target, 2);
                assert_eq!(target_load, InstanceLoad::new(10, 2));
                assert_eq!(epoch, 1);
            }
            other => panic!("unexpected message {other:?}"),
        }
        assert!(m.migration_in_flight());
    }

    #[test]
    fn no_double_trigger_while_in_flight() {
        let mut m = loaded_monitor();
        assert!(m.maybe_trigger(200).is_some());
        assert!(m.maybe_trigger(300).is_none(), "a round is already in flight");
    }

    #[test]
    fn cooldown_blocks_early_retrigger() {
        let mut m = loaded_monitor();
        // Cooldown is 100 and last_round_end starts at 0.
        assert!(m.maybe_trigger(50).is_none(), "cooldown not elapsed");
        let trig = m.maybe_trigger(100).unwrap();
        let epoch = match trig.msg {
            InstanceMsg::MigrateCmd { epoch, .. } => epoch,
            _ => unreachable!(),
        };
        m.on_migration_done(MigrationDone { epoch, tuples_moved: 10, keys_moved: 2 }, 150);
        assert!(m.maybe_trigger(200).is_none(), "cooldown from round end");
        assert!(m.maybe_trigger(250).is_some());
    }

    #[test]
    fn decision_reason_codes_round_trip() {
        for code in 0..4 {
            assert_eq!(DecisionReason::from_code(code).map(DecisionReason::code), Some(code));
        }
        assert_eq!(DecisionReason::from_code(4), None);
    }

    #[test]
    fn decision_audit_records_cooldown_rejections_and_patches_outcomes() {
        let mut m = loaded_monitor();
        assert!(m.decisions().is_empty(), "no decisions before the first evaluation");
        // During the initial cooldown with LI > theta, the rejection is audited.
        assert!(m.maybe_trigger(50).is_none());
        assert_eq!(m.decisions().len(), 1);
        assert_eq!(m.decisions()[0].reason.name(), "cooldown");
        assert_eq!(m.decisions()[0].outcome, DecisionOutcome::Rejected);
        assert_eq!(m.decisions()[0].epoch, None);
        // A consecutive identical rejection collapses into the same entry.
        assert!(m.maybe_trigger(60).is_none());
        assert_eq!(m.decisions().len(), 1);
        assert_eq!(m.decisions()[0].repeats, 1);
        assert_eq!(m.decisions()[0].last_at, 60);
        assert_eq!(m.decisions_recorded(), 1, "collapsed repeats are not new decisions");
        // The trigger itself is audited with the candidate set and epoch.
        let trig = m.maybe_trigger(100).expect("trigger");
        let epoch = match trig.msg {
            InstanceMsg::MigrateCmd { epoch, .. } => epoch,
            _ => unreachable!(),
        };
        let d = m.decisions().last().expect("trigger decision");
        assert_eq!(d.reason, DecisionReason::Triggered);
        assert_eq!(d.outcome, DecisionOutcome::Pending);
        assert_eq!(d.epoch, Some(epoch));
        assert_eq!((d.source, d.target), (0, 2));
        assert_eq!(d.loads.len(), 4, "candidate set covers every instance");
        assert_eq!(d.loads[0], InstanceLoad::new(1000, 100));
        // While in flight, a hot table audits an in_flight rejection.
        assert!(m.maybe_trigger(120).is_none());
        assert_eq!(m.decisions().last().map(|d| d.reason), Some(DecisionReason::InFlight));
        // Completion patches the triggered decision's outcome in place.
        m.on_migration_done(MigrationDone { epoch, tuples_moved: 10, keys_moved: 2 }, 150);
        let patched = m
            .decisions()
            .iter()
            .find(|d| d.epoch == Some(epoch))
            .expect("triggered decision survives");
        assert_eq!(patched.outcome, DecisionOutcome::Effective);
    }

    #[test]
    fn decision_audit_marks_abandoned_rounds() {
        let mut m = loaded_monitor();
        let e1 = trigger_epoch(&mut m, 100);
        m.on_migration_done(MigrationDone { epoch: e1, tuples_moved: 0, keys_moved: 0 }, 150);
        assert_eq!(
            m.decisions().iter().find(|d| d.epoch == Some(e1)).map(|d| d.outcome),
            Some(DecisionOutcome::Abandoned)
        );
    }

    #[test]
    fn decision_log_is_bounded() {
        let mut m = loaded_monitor();
        // Alternate heaviest/lightest so rejections never collapse.
        for i in 0..600u64 {
            if i % 2 == 0 {
                m.on_report(3, InstanceLoad::new(1, 0));
            } else {
                m.on_report(3, InstanceLoad::new(2000, 200));
            }
            assert!(m.maybe_trigger(i % 100).is_none(), "cooldown holds");
        }
        assert_eq!(m.decisions().len(), 512, "log bounded at the cap");
        assert_eq!(m.decisions_recorded(), 600, "lifetime count survives eviction");
    }

    #[test]
    fn balanced_group_never_triggers() {
        let mut m = Monitor::new(3, 2.2, 0);
        for i in 0..3 {
            m.on_report(i, InstanceLoad::new(500, 50));
        }
        assert_eq!(m.imbalance(), 1.0);
        assert!(m.maybe_trigger(1_000_000).is_none());
    }

    #[test]
    fn imbalance_below_theta_does_not_trigger() {
        let mut m = Monitor::new(2, 3.0, 0);
        m.on_report(0, InstanceLoad::new(100, 10));
        m.on_report(1, InstanceLoad::new(50, 10));
        assert!(m.imbalance() > 1.0 && m.imbalance() <= 3.0);
        assert!(m.maybe_trigger(100).is_none());
    }

    #[test]
    fn stats_track_outcomes() {
        let mut m = loaded_monitor();
        let t1 = m.maybe_trigger(100).unwrap();
        let e1 = match t1.msg {
            InstanceMsg::MigrateCmd { epoch, .. } => epoch,
            _ => unreachable!(),
        };
        m.on_migration_done(MigrationDone { epoch: e1, tuples_moved: 0, keys_moved: 0 }, 150);
        let t2 = m.maybe_trigger(300).unwrap();
        let e2 = match t2.msg {
            InstanceMsg::MigrateCmd { epoch, .. } => epoch,
            _ => unreachable!(),
        };
        m.on_migration_done(MigrationDone { epoch: e2, tuples_moved: 42, keys_moved: 3 }, 350);
        let s = m.stats();
        assert_eq!(s.triggered, 2);
        assert_eq!(s.abandoned, 1);
        assert_eq!(s.effective, 1);
        assert_eq!(s.tuples_moved, 42);
        assert_eq!(s.keys_moved, 3);
    }

    #[test]
    fn grown_instance_becomes_the_migration_target() {
        let mut m = loaded_monitor();
        m.grow(1);
        let trig = m.maybe_trigger(200).expect("still imbalanced");
        match trig.msg {
            InstanceMsg::MigrateCmd { target, .. } => assert_eq!(target, 4),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn spans_trace_each_round() {
        let mut m = loaded_monitor();
        let li = m.imbalance();
        let t1 = m.maybe_trigger(100).unwrap();
        assert!(m.spans().is_empty(), "open round has no completed span yet");
        let e1 = match t1.msg {
            InstanceMsg::MigrateCmd { epoch, .. } => epoch,
            _ => unreachable!(),
        };
        m.on_migration_done(MigrationDone { epoch: e1, tuples_moved: 42, keys_moved: 3 }, 180);
        let t2 = m.maybe_trigger(300).unwrap();
        let e2 = match t2.msg {
            InstanceMsg::MigrateCmd { epoch, .. } => epoch,
            _ => unreachable!(),
        };
        m.on_migration_done(MigrationDone { epoch: e2, tuples_moved: 0, keys_moved: 0 }, 350);
        let spans = m.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].epoch, e1);
        assert_eq!(spans[0].source, 0);
        assert_eq!(spans[0].target, 2);
        assert_eq!(spans[0].triggered_at, 100);
        assert_eq!(spans[0].completed_at, 180);
        assert_eq!(spans[0].duration(), 80);
        assert_eq!(spans[0].tuples_moved, 42);
        assert!(spans[0].effective);
        assert!((spans[0].imbalance_at_trigger - li).abs() < 1e-9);
        assert!(!spans[1].effective, "zero-key round is abandoned");
        assert_eq!(spans[1].keys_moved, 0);
    }

    #[test]
    fn zero_key_rounds_are_abandoned_even_with_tuples_field_zero() {
        // The F_k = 0 pathology: selection admitted nothing of value, the
        // source abandoned, and the completion reports {0, 0}. That round
        // must never count as effective.
        let mut m = loaded_monitor();
        let t = m.maybe_trigger(100).unwrap();
        let e = match t.msg {
            InstanceMsg::MigrateCmd { epoch, .. } => epoch,
            _ => unreachable!(),
        };
        m.on_migration_done(MigrationDone { epoch: e, tuples_moved: 0, keys_moved: 0 }, 150);
        assert_eq!(m.stats().effective, 0);
        assert_eq!(m.stats().abandoned, 1);
    }

    fn trigger_epoch(m: &mut Monitor, now: u64) -> Epoch {
        match m.maybe_trigger(now).expect("trigger").msg {
            InstanceMsg::MigrateCmd { epoch, .. } => epoch,
            _ => unreachable!(),
        }
    }

    /// Every round closes with exactly one `MigrationDone`, so one for any
    /// other epoch is a protocol bug.
    #[test]
    #[should_panic(expected = "epoch mismatch")]
    fn a_completion_for_a_foreign_epoch_panics() {
        let mut m = loaded_monitor();
        let e = trigger_epoch(&mut m, 100);
        m.on_migration_done(MigrationDone { epoch: e + 1, tuples_moved: 0, keys_moved: 0 }, 230);
    }

    #[test]
    #[should_panic(expected = "no round in flight")]
    fn done_without_round_panics() {
        let mut m = Monitor::new(2, 2.0, 0);
        m.on_migration_done(MigrationDone { epoch: 1, tuples_moved: 0, keys_moved: 0 }, 0);
    }

    #[test]
    #[should_panic(expected = "theta must be > 1.0")]
    fn rejects_degenerate_theta() {
        let _ = Monitor::new(2, 1.0, 0);
    }
}
