//! The join instance: stores one stream, probes with the other, and takes
//! part in load migrations (§III-A "joining component", §III-D).
//!
//! An instance is a pure state machine. The embedding engine delivers
//! [`InstanceMsg`]s via [`JoinInstance::handle`], asks for work with
//! [`JoinInstance::process_next`], and drains the produced [`Effects`].
//! All message channels must be FIFO per sender–receiver pair; under that
//! assumption the migration protocol preserves per-key tuple order, which
//! is what makes the join exactly-once (see `tests/completeness.rs`).

use std::collections::{HashMap, VecDeque};

use crate::config::WindowConfig;
use crate::load::{InstanceLoad, KeyStat};
use crate::protocol::{
    Effects, InstanceMsg, MigrationDone, MigrationState, ProbeReport, ProtocolError, RouteRequest,
};
use crate::selection::KeySelector;
use crate::state::TupleStore;
use crate::tuple::{JoinedPair, Key, Side, Timestamp, Tuple};

/// Cost description of one processed tuple, for the engine's time
/// accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Work {
    /// A store-side tuple was appended: `O(1)`.
    Store {
        /// The stored tuple.
        tuple: Tuple,
    },
    /// A probe-side tuple was joined against the store.
    Probe {
        /// The probing tuple.
        tuple: Tuple,
        /// `|R_i|` — total stored tuples at probe time (the paper's
        /// nested-loop cost driver, Eq. 1).
        stored_total: u64,
        /// `|R_ik|` — bucket size for the probe key (hash-probe cost).
        bucket: u64,
        /// Result pairs emitted.
        matches: u64,
    },
}

impl Work {
    /// A completed probe's report (its tuple's seq, fan-out and stamp, and
    /// its matches); `None` for a store.
    #[must_use]
    pub fn report(&self) -> Option<ProbeReport> {
        let Work::Probe { tuple: Tuple { seq, fanout, ts, .. }, matches, .. } = *self else {
            return None;
        };
        Some(ProbeReport { seq, fanout, matches, ts })
    }
}

/// A join instance of one group.
#[derive(Debug, Clone)]
pub struct JoinInstance {
    /// This instance's index within its group.
    id: usize,
    /// The stream side this instance stores; it probes with the opposite.
    store_side: Side,
    /// Sliding window, if any.
    window: Option<WindowConfig>,
    store: TupleStore,
    /// Unprocessed data tuples in arrival order.
    pending: VecDeque<Tuple>,
    /// Probe-side arrivals in the current monitor period (`φ_si` is the
    /// *input rate* of the joining stream, §III-E).
    probe_arrivals: u64,
    /// Per-key probe-side arrivals in the current period.
    probe_arrivals_by_key: HashMap<Key, u64>,
    /// `φ` statistics of the last completed period, frozen by
    /// [`JoinInstance::take_load_report`]; key selection reads these so
    /// its view is consistent with the monitor's trigger decision.
    last_probe_arrivals: u64,
    last_probe_arrivals_by_key: HashMap<Key, u64>,
    /// Largest event time seen (watermark for GC).
    watermark: Timestamp,
    mig: MigrationState,
    /// When false, probes count matches but do not materialize
    /// [`JoinedPair`]s into the effects (used by the simulator, which only
    /// needs counts — materializing billions of pairs would dominate the
    /// run without changing any measurement).
    emit_pairs: bool,
    /// Lifetime counters.
    stats: InstanceCounters,
}

/// What [`JoinInstance::checkpoint`] captures and
/// [`JoinInstance::restore`] puts back: a copy of every field a message
/// can change *except the store*, whose checkpoint is its own undo
/// journal (see [`TupleStore::mark`]) — so taking one costs
/// O(mutations since the previous one), not O(stored tuples).
#[derive(Debug, Clone)]
pub struct InstanceCheckpoint {
    pending: VecDeque<Tuple>,
    probe_arrivals: u64,
    probe_arrivals_by_key: HashMap<Key, u64>,
    last_probe_arrivals: u64,
    last_probe_arrivals_by_key: HashMap<Key, u64>,
    watermark: Timestamp,
    mig: MigrationState,
    stats: InstanceCounters,
}

/// Monotone lifetime counters of a join instance (diagnostics and tests).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct InstanceCounters {
    /// Tuples stored (store-side processed).
    pub stored: u64,
    /// Probe-side tuples processed.
    pub probed: u64,
    /// Join result pairs emitted.
    pub joined: u64,
    /// Tuples received while acting as a migration target.
    pub migrated_in: u64,
    /// Tuples sent away while acting as a migration source.
    pub migrated_out: u64,
    /// Tuples expired by window GC.
    pub expired: u64,
}

impl JoinInstance {
    /// Creates an instance that stores `store_side` tuples.
    #[must_use]
    pub fn new(id: usize, store_side: Side, window: Option<WindowConfig>) -> Self {
        JoinInstance {
            id,
            store_side,
            window,
            store: TupleStore::new(),
            pending: VecDeque::new(),
            probe_arrivals: 0,
            probe_arrivals_by_key: HashMap::new(),
            last_probe_arrivals: 0,
            last_probe_arrivals_by_key: HashMap::new(),
            watermark: 0,
            mig: MigrationState::Idle,
            emit_pairs: true,
            stats: InstanceCounters::default(),
        }
    }

    /// Checkpoints the instance: marks the store (discarding the previous
    /// mark) and copies everything else a message can change. The
    /// checkpoint is only meaningful to *this* instance, and only until
    /// the next call — [`JoinInstance::restore`] rolls the live store back
    /// to the most recent mark.
    pub fn checkpoint(&mut self) -> InstanceCheckpoint {
        // Exhaustive on purpose: a new field must be classified here as
        // configuration, store, or checkpointed state.
        let JoinInstance {
            id: _,
            store_side: _,
            window: _,
            emit_pairs: _,
            store,
            pending,
            probe_arrivals,
            probe_arrivals_by_key,
            last_probe_arrivals,
            last_probe_arrivals_by_key,
            watermark,
            mig,
            stats,
        } = self;
        store.mark();
        InstanceCheckpoint {
            pending: pending.clone(),
            probe_arrivals: *probe_arrivals,
            probe_arrivals_by_key: probe_arrivals_by_key.clone(),
            last_probe_arrivals: *last_probe_arrivals,
            last_probe_arrivals_by_key: last_probe_arrivals_by_key.clone(),
            watermark: *watermark,
            mig: mig.clone(),
            stats: *stats,
        }
    }

    /// Returns the instance to the state [`JoinInstance::checkpoint`]
    /// captured: rolls the store back to its mark and overwrites every
    /// other mutable field, so it also repairs a state torn by a panic
    /// mid-message. `cp` must be this instance's most recent checkpoint.
    pub fn restore(&mut self, cp: &InstanceCheckpoint) {
        // Exhaustive, like `checkpoint`: whatever is captured is put back.
        let InstanceCheckpoint {
            pending,
            probe_arrivals,
            probe_arrivals_by_key,
            last_probe_arrivals,
            last_probe_arrivals_by_key,
            watermark,
            mig,
            stats,
        } = cp;
        self.store.rollback();
        self.pending.clone_from(pending);
        self.probe_arrivals = *probe_arrivals;
        self.probe_arrivals_by_key.clone_from(probe_arrivals_by_key);
        self.last_probe_arrivals = *last_probe_arrivals;
        self.last_probe_arrivals_by_key.clone_from(last_probe_arrivals_by_key);
        self.watermark = *watermark;
        self.mig.clone_from(mig);
        self.stats = *stats;
    }

    /// A copy whose store keeps its mark and undo journal, so the copy's
    /// [`JoinInstance::restore`] rolls back as this instance's would.
    /// [`Clone`] copies the tuples alone and leaves the copy unmarked.
    pub(crate) fn fork(&self) -> Self {
        let mut copy = self.clone();
        copy.store.keep_mark_of(&self.store);
        copy
    }

    /// Disables materialization of joined pairs; probes still count
    /// matches in [`Work::Probe`] and the lifetime counters.
    pub fn set_emit_pairs(&mut self, emit: bool) {
        self.emit_pairs = emit;
    }

    /// This instance's index within its group.
    #[must_use]
    pub fn id(&self) -> usize {
        self.id
    }

    /// The side this instance stores.
    #[must_use]
    pub fn store_side(&self) -> Side {
        self.store_side
    }

    /// Lifetime counters.
    #[must_use]
    pub fn counters(&self) -> InstanceCounters {
        self.stats
    }

    /// Current migration-protocol state.
    #[must_use]
    pub fn migration_state(&self) -> &MigrationState {
        &self.mig
    }

    /// Aggregate load statistics `(|R_i|, φ_si)` (Eq. 3, 4) of the
    /// *current* period so far, without freezing it. `φ_si` is the number
    /// of probe-side tuples that arrived since the last
    /// [`JoinInstance::take_load_report`] — the input rate of the joining
    /// stream over the monitor period (§III-E), not the backlog.
    #[must_use]
    pub fn load(&self) -> InstanceLoad {
        InstanceLoad::new(self.store.len(), self.probe_arrivals)
    }

    /// Freezes the current period's statistics for key selection, resets
    /// the period counters, and returns the report for the monitor. Called
    /// once per monitor period.
    pub fn take_load_report(&mut self) -> InstanceLoad {
        let report = InstanceLoad::new(self.store.len(), self.probe_arrivals);
        self.last_probe_arrivals = self.probe_arrivals;
        std::mem::swap(&mut self.last_probe_arrivals_by_key, &mut self.probe_arrivals_by_key);
        self.probe_arrivals = 0;
        self.probe_arrivals_by_key.clear();
        report
    }

    /// The load statistics frozen by the last
    /// [`JoinInstance::take_load_report`] — the view key selection uses.
    #[must_use]
    pub fn reported_load(&self) -> InstanceLoad {
        InstanceLoad::new(self.store.len(), self.last_probe_arrivals)
    }

    /// Number of unprocessed tuples (both sides).
    #[must_use]
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Read access to the store (diagnostics/tests).
    #[must_use]
    pub fn store(&self) -> &TupleStore {
        &self.store
    }

    /// Per-key statistics `(|R_ik|, φ_sik)` over the union of stored keys
    /// and the last period's probe arrivals — the input to the
    /// key-selection algorithms.
    #[must_use]
    pub fn key_stats(&self) -> Vec<KeyStat> {
        let mut map: HashMap<Key, KeyStat> = HashMap::new();
        for (k, stored) in self.store.key_counts() {
            map.entry(k).or_insert_with(|| KeyStat::new(k, 0, 0)).stored = stored;
        }
        for (&k, &arrived) in &self.last_probe_arrivals_by_key {
            if arrived > 0 {
                map.entry(k).or_insert_with(|| KeyStat::new(k, 0, 0)).queue = arrived;
            }
        }
        let mut v: Vec<KeyStat> = map.into_values().collect();
        v.sort_unstable_by_key(|s| s.key); // deterministic order
        v
    }

    /// The `k` hottest keys as `(key, weight)` where weight is the key's
    /// stored + last-period probe arrivals — the introspection plane's
    /// skew heatmap. Ties break toward the smaller key (deterministic).
    #[must_use]
    pub fn top_keys(&self, k: usize) -> Vec<(Key, u64)> {
        let mut stats = self.key_stats();
        stats.sort_by_key(|s| (std::cmp::Reverse(s.stored + s.queue), s.key));
        stats.into_iter().take(k).map(|s| (s.key, s.stored + s.queue)).collect()
    }

    /// The window's lower bound for a reference event time, or 0 for
    /// full-history joins.
    #[inline]
    fn min_ts(&self, reference: Timestamp) -> Timestamp {
        match self.window {
            Some(w) => reference.saturating_sub(w.span()),
            None => 0,
        }
    }

    /// Handles one incoming message. `selector` is consulted only for
    /// `MigrateCmd`.
    ///
    /// # Errors
    ///
    /// Returns a [`ProtocolError`] when the message violates the migration
    /// protocol (wrong role, wrong epoch, overlapping rounds). The instance
    /// is left unchanged in that case; the embedding engine decides whether
    /// a violation is fatal.
    pub fn handle(
        &mut self,
        msg: InstanceMsg,
        selector: &mut dyn KeySelector,
        theta_gap: f64,
        fx: &mut Effects,
    ) -> Result<(), ProtocolError> {
        match msg {
            InstanceMsg::Data(t) => self.on_data(t),
            InstanceMsg::MigrateCmd { epoch, target, target_load } => {
                self.on_migrate_cmd(epoch, target, target_load, selector, theta_gap, fx)?;
            }
            InstanceMsg::MigStart { epoch, from, keys } => {
                if !self.mig.is_idle() {
                    return Err(ProtocolError::AlreadyMigrating {
                        instance: self.id,
                        msg: "MigStart",
                    });
                }
                // The *target* requests the route flip, only after it has
                // entered holding mode. If the source requested it at
                // selection time instead, the dispatcher could re-route
                // data here before this MigStart arrived (source→target
                // and dispatcher→target are independent channels) and an
                // idle target would probe a store that is still in flight.
                // The model checker (`cargo xtask check-protocol`) finds
                // that interleaving in seconds.
                fx.route_requests.push(RouteRequest {
                    epoch,
                    keys: keys.clone(),
                    target: self.id,
                    source: from,
                });
                self.mig = MigrationState::Target {
                    epoch,
                    from,
                    keys: keys.into_iter().collect(),
                    held: Vec::new(),
                    received: 0,
                };
            }
            InstanceMsg::MigStore { epoch, tuples } => {
                let MigrationState::Target { epoch: e, received, .. } = &mut self.mig else {
                    return Err(ProtocolError::NotATarget { instance: self.id, msg: "MigStore" });
                };
                if *e != epoch {
                    return Err(ProtocolError::EpochMismatch {
                        instance: self.id,
                        msg: "MigStore",
                        expected: *e,
                        got: epoch,
                    });
                }
                let n = tuples.len() as u64;
                *received += n;
                let min_ts = self.min_ts(self.watermark);
                let kept = self.store.install(tuples, min_ts);
                self.stats.migrated_in += n;
                self.stats.expired += n - kept;
            }
            InstanceMsg::RouteUpdated { epoch } => self.on_route_updated(epoch, fx)?,
            InstanceMsg::MigForward { epoch, tuples } => {
                let MigrationState::Target { epoch: e, .. } = &self.mig else {
                    return Err(ProtocolError::NotATarget { instance: self.id, msg: "MigForward" });
                };
                if *e != epoch {
                    return Err(ProtocolError::EpochMismatch {
                        instance: self.id,
                        msg: "MigForward",
                        expected: *e,
                        got: epoch,
                    });
                }
                for t in tuples {
                    self.push_pending(t);
                }
            }
            InstanceMsg::MigEnd { epoch, from: _ } => {
                let MigrationState::Target { epoch: e, .. } = &self.mig else {
                    return Err(ProtocolError::NotATarget { instance: self.id, msg: "MigEnd" });
                };
                if *e != epoch {
                    return Err(ProtocolError::EpochMismatch {
                        instance: self.id,
                        msg: "MigEnd",
                        expected: *e,
                        got: epoch,
                    });
                }
                let MigrationState::Target { held, keys, received, .. } =
                    std::mem::replace(&mut self.mig, MigrationState::Idle)
                else {
                    unreachable!("checked above"); // lint:allow(role verified two lines up)
                };
                for t in held {
                    self.push_pending(t);
                }
                // The target reports completion: at this point both
                // endpoints are provably idle (the source went idle before
                // sending MigEnd), so the monitor can safely start a new
                // round without racing this one.
                fx.migration_done.push(MigrationDone {
                    epoch,
                    tuples_moved: received,
                    keys_moved: keys.len(),
                });
            }
        }
        Ok(())
    }

    fn on_data(&mut self, t: Tuple) {
        self.watermark = self.watermark.max(t.ts);
        // φ counts *arrivals from the dispatcher* regardless of migration
        // state; forwarded tuples were already counted at the source.
        if t.side != self.store_side {
            self.probe_arrivals += 1;
            *self.probe_arrivals_by_key.entry(t.key).or_insert(0) += 1;
        }
        match &mut self.mig {
            MigrationState::Source { keys, buffer, .. } if keys.contains(&t.key) => {
                buffer.push(t);
            }
            MigrationState::Target { keys, held, .. } if keys.contains(&t.key) => {
                held.push(t);
            }
            _ => self.push_pending(t),
        }
    }

    fn push_pending(&mut self, t: Tuple) {
        self.pending.push_back(t);
    }

    fn on_migrate_cmd(
        &mut self,
        epoch: u64,
        target: usize,
        target_load: InstanceLoad,
        selector: &mut dyn KeySelector,
        theta_gap: f64,
        fx: &mut Effects,
    ) -> Result<(), ProtocolError> {
        if !self.mig.is_idle() {
            return Err(ProtocolError::AlreadyMigrating { instance: self.id, msg: "MigrateCmd" });
        }
        if target == self.id {
            return Err(ProtocolError::SelfMigration { instance: self.id });
        }
        let stats = self.key_stats();
        let plan = selector.select(self.reported_load(), target_load, &stats, theta_gap);
        if plan.is_empty() || plan.total_benefit <= 0.0 {
            // Nothing worth moving — either no keys fit the gap, or every
            // candidate has F_k = 0 and migrating them would rebalance
            // nothing. Report {0, 0} so the monitor books the round as
            // abandoned rather than effective.
            fx.migration_done.push(MigrationDone { epoch, tuples_moved: 0, keys_moved: 0 });
            return Ok(());
        }

        // Extract the stored payload for the selected keys.
        let moved = self.store.extract_keys(&plan.keys);
        let tuples_moved = moved.len() as u64;
        self.stats.migrated_out += tuples_moved;

        // Pull already-pending tuples of selected keys out of the queue —
        // they must be processed at the target, after the migrated store.
        let key_set: std::collections::HashSet<Key> = plan.keys.iter().copied().collect();
        let mut kept = VecDeque::with_capacity(self.pending.len());
        let mut buffer = Vec::new();
        for t in self.pending.drain(..) {
            if key_set.contains(&t.key) {
                buffer.push(t);
            } else {
                kept.push_back(t);
            }
        }
        self.pending = kept;

        fx.sends.push((
            target,
            InstanceMsg::MigStart { epoch, from: self.id, keys: plan.keys.clone() },
        ));
        fx.sends.push((target, InstanceMsg::MigStore { epoch, tuples: moved }));
        // No RouteRequest here: the target issues it on MigStart so the
        // route never flips before the target is ready to hold re-routed
        // data. See the MigStart arm in `handle`.
        self.mig = MigrationState::Source { epoch, target, keys: key_set, buffer, tuples_moved };
        Ok(())
    }

    fn on_route_updated(&mut self, epoch: u64, fx: &mut Effects) -> Result<(), ProtocolError> {
        let MigrationState::Source { epoch: e, .. } = &self.mig else {
            return Err(ProtocolError::NotASource { instance: self.id });
        };
        if *e != epoch {
            return Err(ProtocolError::EpochMismatch {
                instance: self.id,
                msg: "RouteUpdated",
                expected: *e,
                got: epoch,
            });
        }
        let MigrationState::Source { target, keys, buffer, .. } =
            std::mem::replace(&mut self.mig, MigrationState::Idle)
        else {
            unreachable!("checked above"); // lint:allow(role verified two lines up)
        };
        // The migrated keys no longer route here. Their per-key probe
        // stats must go with them: a stale entry would let a later
        // `MigrateCmd` re-select a departed key (stored = 0 but φ > 0)
        // and flip its route away from the instance that actually holds
        // its store — silently dropping every subsequent match.
        for k in &keys {
            self.probe_arrivals_by_key.remove(k);
            self.last_probe_arrivals_by_key.remove(k);
        }
        fx.sends.push((target, InstanceMsg::MigForward { epoch, tuples: buffer }));
        fx.sends.push((target, InstanceMsg::MigEnd { epoch, from: self.id }));
        // MigrationDone is reported by the *target* when it processes
        // MigEnd — see `handle`.
        Ok(())
    }

    /// Processes the oldest pending tuple, if any, emitting join results
    /// into `fx` and returning a [`Work`] cost descriptor.
    pub fn process_next(&mut self, fx: &mut Effects) -> Option<Work> {
        let t = self.pending.pop_front()?;
        if t.side == self.store_side {
            self.store.insert(t);
            self.stats.stored += 1;
            Some(Work::Store { tuple: t })
        } else {
            let stored_total = self.store.len();
            let min_ts = self.min_ts(t.ts);
            let found = self.store.probe(&t, min_ts);
            let bucket = found.bucket_len();
            let mut matches = 0;
            if self.emit_pairs {
                for stored in found {
                    fx.joined.push(JoinedPair::orient(stored, t));
                    matches += 1;
                }
            } else {
                matches = found.count() as u64;
            }
            self.stats.probed += 1;
            self.stats.joined += matches;
            Some(Work::Probe { tuple: t, stored_total, bucket, matches })
        }
    }

    /// Garbage-collects stored tuples outside the window relative to the
    /// current watermark. No-op for full-history joins. Returns the number
    /// collected.
    pub fn collect_expired(&mut self) -> u64 {
        let Some(w) = self.window else { return 0 };
        let horizon = self.watermark.saturating_sub(w.span());
        let n = self.store.expire(horizon);
        self.stats.expired += n;
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selection::GreedyFit;

    fn data(side: Side, key: Key, ts: Timestamp, seq: u64) -> InstanceMsg {
        let mut t = Tuple::new(side, key, ts, 0);
        t.seq = seq;
        InstanceMsg::Data(t)
    }

    fn drive(inst: &mut JoinInstance, msgs: Vec<InstanceMsg>) -> Effects {
        let mut fx = Effects::new();
        let mut sel = GreedyFit::new();
        for m in msgs {
            inst.handle(m, &mut sel, 0.0, &mut fx).unwrap();
        }
        while inst.process_next(&mut fx).is_some() {}
        fx
    }

    #[test]
    fn stores_own_side_and_joins_opposite() {
        let mut inst = JoinInstance::new(0, Side::R, None);
        let fx = drive(
            &mut inst,
            vec![data(Side::R, 1, 0, 1), data(Side::R, 1, 1, 2), data(Side::S, 1, 2, 3)],
        );
        assert_eq!(fx.joined.len(), 2);
        assert_eq!(inst.counters().stored, 2);
        assert_eq!(inst.counters().probed, 1);
        assert_eq!(inst.counters().joined, 2);
        assert_eq!(inst.store().len(), 2, "probe tuples are not stored");
    }

    #[test]
    fn probe_only_matches_same_key() {
        let mut inst = JoinInstance::new(0, Side::R, None);
        let fx = drive(&mut inst, vec![data(Side::R, 1, 0, 1), data(Side::S, 2, 1, 2)]);
        assert!(fx.joined.is_empty());
    }

    #[test]
    fn load_counts_probe_arrivals_per_period() {
        let mut inst = JoinInstance::new(0, Side::R, None);
        let mut fx = Effects::new();
        let mut sel = GreedyFit::new();
        inst.handle(data(Side::R, 1, 0, 1), &mut sel, 0.0, &mut fx).unwrap();
        inst.handle(data(Side::S, 1, 1, 2), &mut sel, 0.0, &mut fx).unwrap();
        inst.handle(data(Side::S, 2, 2, 3), &mut sel, 0.0, &mut fx).unwrap();
        // Nothing processed yet: stored 0, two probe arrivals this period.
        assert_eq!(inst.load(), InstanceLoad::new(0, 2));
        let _ = inst.process_next(&mut fx); // stores the R tuple
        assert_eq!(inst.load(), InstanceLoad::new(1, 2));
        // Processing does not consume the arrival count...
        while inst.process_next(&mut fx).is_some() {}
        assert_eq!(inst.load(), InstanceLoad::new(1, 2));
        // ...the period report does.
        assert_eq!(inst.take_load_report(), InstanceLoad::new(1, 2));
        assert_eq!(inst.load(), InstanceLoad::new(1, 0));
        assert_eq!(inst.reported_load(), InstanceLoad::new(1, 2));
    }

    #[test]
    fn key_stats_cover_stored_and_reported_arrivals() {
        let mut inst = JoinInstance::new(0, Side::R, None);
        let mut fx = Effects::new();
        let mut sel = GreedyFit::new();
        inst.handle(data(Side::R, 5, 0, 1), &mut sel, 0.0, &mut fx).unwrap();
        let _ = inst.process_next(&mut fx); // store key 5
        inst.handle(data(Side::S, 5, 1, 2), &mut sel, 0.0, &mut fx).unwrap();
        inst.handle(data(Side::S, 9, 2, 3), &mut sel, 0.0, &mut fx).unwrap();
        // φ statistics become visible to key selection once the period is
        // frozen by the monitor's report collection.
        let _ = inst.take_load_report();
        let stats = inst.key_stats();
        assert_eq!(stats.len(), 2);
        let k5 = stats.iter().find(|s| s.key == 5).unwrap();
        assert_eq!((k5.stored, k5.queue), (1, 1));
        let k9 = stats.iter().find(|s| s.key == 9).unwrap();
        assert_eq!((k9.stored, k9.queue), (0, 1));
    }

    #[test]
    fn windowed_probe_excludes_expired() {
        let w = WindowConfig { sub_windows: 2, sub_window_len: 50 }; // span 100
        let mut inst = JoinInstance::new(0, Side::R, Some(w));
        let fx = drive(
            &mut inst,
            vec![
                data(Side::R, 1, 0, 1),
                data(Side::R, 1, 150, 2),
                data(Side::S, 1, 200, 3), // window lower bound: 100
            ],
        );
        assert_eq!(fx.joined.len(), 1);
        assert_eq!(fx.joined[0].left.ts, 150);
    }

    #[test]
    fn collect_expired_reclaims_store() {
        let w = WindowConfig { sub_windows: 2, sub_window_len: 50 };
        let mut inst = JoinInstance::new(0, Side::R, Some(w));
        let _ = drive(&mut inst, vec![data(Side::R, 1, 0, 1), data(Side::R, 2, 300, 2)]);
        assert_eq!(inst.store().len(), 2);
        assert_eq!(inst.collect_expired(), 1);
        assert_eq!(inst.store().len(), 1);
        assert_eq!(inst.counters().expired, 1);
    }

    #[test]
    fn full_history_never_expires() {
        let mut inst = JoinInstance::new(0, Side::R, None);
        let _ = drive(&mut inst, vec![data(Side::R, 1, 0, 1), data(Side::R, 2, 1_000_000, 2)]);
        assert_eq!(inst.collect_expired(), 0);
        assert_eq!(inst.store().len(), 2);
    }

    #[test]
    fn migrate_cmd_with_no_gap_reports_done_immediately() {
        let mut inst = JoinInstance::new(0, Side::R, None);
        let mut fx = Effects::new();
        let mut sel = GreedyFit::new();
        // Empty instance: gap = -target load, nothing to select.
        inst.handle(
            InstanceMsg::MigrateCmd { epoch: 7, target: 1, target_load: InstanceLoad::new(5, 5) },
            &mut sel,
            0.0,
            &mut fx,
        )
        .unwrap();
        assert_eq!(fx.migration_done.len(), 1);
        assert_eq!(fx.migration_done[0].epoch, 7);
        assert_eq!(fx.migration_done[0].tuples_moved, 0);
        assert!(inst.migration_state().is_idle());
    }

    #[test]
    fn source_migration_full_protocol() {
        let mut inst = JoinInstance::new(0, Side::R, None);
        let mut fx = Effects::new();
        let mut sel = GreedyFit::new();
        // Build skew: hot key 1 (many tuples), cold keys 2, 3.
        for seq in 0..50 {
            inst.handle(data(Side::R, 1, seq, seq), &mut sel, 0.0, &mut fx).unwrap();
        }
        for seq in 50..54 {
            inst.handle(data(Side::R, 2, seq, seq), &mut sel, 0.0, &mut fx).unwrap();
        }
        while inst.process_next(&mut fx).is_some() {}
        // Probe pressure on both keys.
        for seq in 60..70 {
            inst.handle(data(Side::S, 1, seq, seq), &mut sel, 0.0, &mut fx).unwrap();
            inst.handle(data(Side::S, 2, seq + 100, seq + 100), &mut sel, 0.0, &mut fx).unwrap();
        }
        // Freeze the period so selection sees the probe pressure, exactly
        // like a monitor report collection would.
        let _ = inst.take_load_report();
        fx.clear();
        inst.handle(
            InstanceMsg::MigrateCmd { epoch: 1, target: 3, target_load: InstanceLoad::new(0, 0) },
            &mut sel,
            0.0,
            &mut fx,
        )
        .unwrap();
        // Selection must have picked at least one key and emitted the
        // protocol messages.
        assert!(matches!(inst.migration_state(), MigrationState::Source { .. }));
        let started_keys = fx
            .sends
            .iter()
            .find_map(|(to, m)| match m {
                InstanceMsg::MigStart { keys, .. } if *to == 3 => Some(keys.clone()),
                _ => None,
            })
            .expect("source must send MigStart to the target");
        assert!(fx
            .sends
            .iter()
            .any(|(to, m)| *to == 3 && matches!(m, InstanceMsg::MigStore { .. })));
        // The route flip is requested by the *target* when MigStart lands,
        // never by the source — otherwise re-routed data could reach an
        // unprepared target.
        assert!(fx.route_requests.is_empty());

        // Data for a migrated key arriving now must be buffered, not queued.
        let migrated_key = started_keys[0];
        let before = inst.pending_len();
        inst.handle(data(Side::S, migrated_key, 999, 999), &mut sel, 0.0, &mut fx).unwrap();
        assert_eq!(inst.pending_len(), before, "selected-key data must bypass the queue");

        // Routing confirmed: buffer flushes to the target and we are idle.
        fx.clear();
        inst.handle(InstanceMsg::RouteUpdated { epoch: 1 }, &mut sel, 0.0, &mut fx).unwrap();
        assert!(inst.migration_state().is_idle());
        let fwd = fx
            .sends
            .iter()
            .find_map(|(to, m)| match m {
                InstanceMsg::MigForward { tuples, .. } if *to == 3 => Some(tuples.clone()),
                _ => None,
            })
            .expect("must forward the buffer");
        assert!(fwd.iter().any(|t| t.seq == 999), "buffered tuple must be forwarded");
        assert!(fx.sends.iter().any(|(_, m)| matches!(m, InstanceMsg::MigEnd { .. })));
        assert!(
            fx.migration_done.is_empty(),
            "completion is reported by the target, not the source"
        );
        assert!(inst.counters().migrated_out > 0);
    }

    #[test]
    fn migrated_keys_leave_the_source_key_stats() {
        // Regression (found by the chaos suite): after a round completed,
        // the source's frozen per-key φ still listed the departed keys.
        // A prompt follow-up MigrateCmd could re-select such a key
        // (stored = 0, φ > 0) and flip its route away from the instance
        // that actually holds its store, losing every later match.
        let mut inst = JoinInstance::new(0, Side::R, None);
        let mut fx = Effects::new();
        let mut sel = GreedyFit::new();
        for seq in 0..40 {
            inst.handle(data(Side::R, 7, seq, seq), &mut sel, 0.0, &mut fx).unwrap();
        }
        for seq in 40..44 {
            inst.handle(data(Side::R, 2, seq, seq), &mut sel, 0.0, &mut fx).unwrap();
        }
        while inst.process_next(&mut fx).is_some() {}
        for seq in 50..70 {
            inst.handle(data(Side::S, 7, seq, seq), &mut sel, 0.0, &mut fx).unwrap();
            inst.handle(data(Side::S, 2, seq + 100, seq + 100), &mut sel, 0.0, &mut fx).unwrap();
        }
        let _ = inst.take_load_report();
        fx.clear();
        inst.handle(
            InstanceMsg::MigrateCmd { epoch: 1, target: 2, target_load: InstanceLoad::new(0, 0) },
            &mut sel,
            0.0,
            &mut fx,
        )
        .unwrap();
        let MigrationState::Source { keys, .. } = inst.migration_state() else {
            panic!("a key must be selected");
        };
        let moved: Vec<u64> = keys.iter().copied().collect();
        assert!(!moved.is_empty());
        // In-flight probe of a departing key, then the flip confirmation.
        inst.handle(data(Side::S, moved[0], 100, 100), &mut sel, 0.0, &mut fx).unwrap();
        inst.handle(InstanceMsg::RouteUpdated { epoch: 1 }, &mut sel, 0.0, &mut fx).unwrap();
        assert!(inst.migration_state().is_idle());
        // Neither the frozen period nor the live one may still carry a
        // departed key — not now, and not after the next period rolls over.
        let gone = |inst: &JoinInstance| inst.key_stats().iter().all(|s| !moved.contains(&s.key));
        assert!(gone(&inst), "stale φ for a departed key");
        let _ = inst.take_load_report();
        assert!(gone(&inst), "stale φ survived the rollover");
    }

    #[test]
    fn target_holds_until_mig_end() {
        let mut inst = JoinInstance::new(3, Side::R, None);
        let mut fx = Effects::new();
        let mut sel = GreedyFit::new();
        inst.handle(
            InstanceMsg::MigStart { epoch: 1, from: 0, keys: vec![42] },
            &mut sel,
            0.0,
            &mut fx,
        )
        .unwrap();
        // The target asks for the route flip once it is ready to hold.
        assert_eq!(fx.route_requests.len(), 1);
        assert_eq!(fx.route_requests[0].keys, vec![42]);
        assert_eq!(fx.route_requests[0].source, 0);
        assert_eq!(fx.route_requests[0].target, 3);
        // Store payload installs directly.
        let mut r = Tuple::new(Side::R, 42, 0, 0);
        r.seq = 1;
        inst.handle(InstanceMsg::MigStore { epoch: 1, tuples: vec![r] }, &mut sel, 0.0, &mut fx)
            .unwrap();
        assert_eq!(inst.store().len(), 1);
        // Dispatcher-routed data for key 42 is held.
        inst.handle(data(Side::S, 42, 5, 9), &mut sel, 0.0, &mut fx).unwrap();
        assert_eq!(inst.pending_len(), 0);
        // Data for other keys flows normally.
        inst.handle(data(Side::R, 7, 6, 10), &mut sel, 0.0, &mut fx).unwrap();
        assert_eq!(inst.pending_len(), 1);
        // Forwarded buffer lands in the queue before held data.
        let mut fwd = Tuple::new(Side::S, 42, 4, 8);
        fwd.seq = 8;
        inst.handle(
            InstanceMsg::MigForward { epoch: 1, tuples: vec![fwd] },
            &mut sel,
            0.0,
            &mut fx,
        )
        .unwrap();
        inst.handle(InstanceMsg::MigEnd { epoch: 1, from: 0 }, &mut sel, 0.0, &mut fx).unwrap();
        assert!(inst.migration_state().is_idle());
        assert_eq!(fx.migration_done.len(), 1, "the target reports completion");
        assert_eq!(fx.migration_done[0].tuples_moved, 1);
        assert_eq!(fx.migration_done[0].keys_moved, 1);
        // Process everything: forwarded probe (seq 8) joins the migrated
        // store (seq 1); held probe (seq 9) joins it too.
        while inst.process_next(&mut fx).is_some() {}
        assert_eq!(fx.joined.len(), 2);
        let seqs: Vec<u64> = fx.joined.iter().map(|p| p.right.seq).collect();
        assert_eq!(seqs, vec![8, 9], "forwarded data must be processed before held data");
    }

    /// Asserts two instances are in the same state, store contents (per
    /// key, in order) included.
    fn assert_same_state(a: &JoinInstance, b: &JoinInstance) {
        assert_eq!(a.pending, b.pending);
        assert_eq!(a.probe_arrivals, b.probe_arrivals);
        assert_eq!(a.probe_arrivals_by_key, b.probe_arrivals_by_key);
        assert_eq!(a.last_probe_arrivals, b.last_probe_arrivals);
        assert_eq!(a.last_probe_arrivals_by_key, b.last_probe_arrivals_by_key);
        assert_eq!(a.watermark, b.watermark);
        assert_eq!(a.mig, b.mig);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.store.len(), b.store.len());
        assert_eq!(a.key_stats(), b.key_stats());
        for stat in a.key_stats() {
            let mut probe = Tuple::s(stat.key, 0, 0);
            probe.seq = u64::MAX;
            let bucket = |i: &JoinInstance| i.store.probe(&probe, 0).collect::<Vec<_>>();
            assert_eq!(bucket(a), bucket(b), "bucket of key {}", stat.key);
        }
    }

    #[test]
    fn restore_returns_to_the_checkpoint_and_replays_like_a_full_copy() {
        let w = WindowConfig { sub_windows: 2, sub_window_len: 50 }; // span 100
        let mut inst = JoinInstance::new(0, Side::R, Some(w));
        let mut sel = GreedyFit::new();
        let mut fx = Effects::new();
        // Before the checkpoint: a hot and a cold key stored, probe
        // pressure on both, one period frozen for key selection.
        let mut before = Vec::new();
        before.extend((0..50).map(|seq| data(Side::R, 1, seq, seq)));
        before.extend((50..54).map(|seq| data(Side::R, 2, seq, seq)));
        before.extend((60..70).map(|seq| data(Side::S, 1 + seq % 2, seq, seq)));
        for m in before {
            inst.handle(m, &mut sel, 0.0, &mut fx).unwrap();
            while inst.process_next(&mut fx).is_some() {}
        }
        let _ = inst.take_load_report();

        let cp = inst.checkpoint();
        // The O(store) checkpoint the journal replaces, kept as the model.
        let model = inst.clone();

        // After it, every kind of change a message can make: stores and
        // probes, a watermark jump with window GC, a period rollover, and a migration round sourced here (store
        // extraction, then buffering of a selected key's data).
        let after = |inst: &mut JoinInstance, sel: &mut GreedyFit| -> Effects {
            let mut fx = Effects::new();
            for seq in 70..90 {
                inst.handle(data(Side::R, 1 + seq % 3, seq, seq), sel, 0.0, &mut fx).unwrap();
                inst.handle(data(Side::S, 1, seq, 100 + seq), sel, 0.0, &mut fx).unwrap();
            }
            while inst.process_next(&mut fx).is_some() {}
            inst.handle(data(Side::R, 3, 130, 200), sel, 0.0, &mut fx).unwrap();
            while inst.process_next(&mut fx).is_some() {}
            assert!(inst.collect_expired() > 0, "the watermark jump must expire old tuples");
            let _ = inst.take_load_report();
            inst.handle(migrate_cmd(2), sel, 0.0, &mut fx).unwrap();
            assert!(matches!(inst.migration_state(), MigrationState::Source { .. }));
            inst.handle(data(Side::S, 1, 131, 300), sel, 0.0, &mut fx).unwrap();
            fx
        };
        let fx_first = after(&mut inst, &mut sel);
        assert_ne!(inst.store.len(), model.store.len());

        inst.restore(&cp);
        assert_same_state(&inst, &model);

        // From the checkpoint on, the restored instance and the full copy
        // are interchangeable: same effects for the same input, same state
        // after it — and the same as the first, pre-restore pass.
        let mut model = model;
        let fx_restored = after(&mut inst, &mut sel.clone());
        let fx_model = after(&mut model, &mut sel);
        assert_same_state(&inst, &model);
        for fx in [&fx_restored, &fx_model] {
            assert_eq!(fx.joined, fx_first.joined);
            assert_eq!(fx.sends, fx_first.sends);
            assert_eq!(fx.migration_done, fx_first.migration_done);
        }
    }

    fn migrate_cmd(epoch: u64) -> InstanceMsg {
        InstanceMsg::MigrateCmd { epoch, target: 3, target_load: InstanceLoad::new(0, 0) }
    }

    #[test]
    fn rejects_self_migration() {
        let mut inst = JoinInstance::new(2, Side::R, None);
        let mut fx = Effects::new();
        let mut sel = GreedyFit::new();
        let err = inst
            .handle(
                InstanceMsg::MigrateCmd {
                    epoch: 1,
                    target: 2,
                    target_load: InstanceLoad::default(),
                },
                &mut sel,
                0.0,
                &mut fx,
            )
            .unwrap_err();
        assert_eq!(err, ProtocolError::SelfMigration { instance: 2 });
        assert!(inst.migration_state().is_idle(), "rejected command must not change state");
    }
}

#[cfg(test)]
mod protocol_state_tests {
    use super::*;
    use crate::selection::GreedyFit;

    fn idle_instance() -> (JoinInstance, GreedyFit, Effects) {
        (JoinInstance::new(0, Side::R, None), GreedyFit::new(), Effects::new())
    }

    #[test]
    fn mig_store_while_idle_is_a_protocol_bug() {
        let (mut inst, mut sel, mut fx) = idle_instance();
        let err = inst
            .handle(InstanceMsg::MigStore { epoch: 1, tuples: vec![] }, &mut sel, 0.0, &mut fx)
            .unwrap_err();
        assert_eq!(err, ProtocolError::NotATarget { instance: 0, msg: "MigStore" });
    }

    #[test]
    fn route_updated_while_idle_is_a_protocol_bug() {
        let (mut inst, mut sel, mut fx) = idle_instance();
        let err = inst
            .handle(InstanceMsg::RouteUpdated { epoch: 1 }, &mut sel, 0.0, &mut fx)
            .unwrap_err();
        assert_eq!(err, ProtocolError::NotASource { instance: 0 });
    }

    #[test]
    fn mig_end_while_idle_is_a_protocol_bug() {
        let (mut inst, mut sel, mut fx) = idle_instance();
        let err = inst
            .handle(InstanceMsg::MigEnd { epoch: 1, from: 2 }, &mut sel, 0.0, &mut fx)
            .unwrap_err();
        assert_eq!(err, ProtocolError::NotATarget { instance: 0, msg: "MigEnd" });
    }

    #[test]
    fn mig_start_while_already_target_is_a_protocol_bug() {
        let (mut inst, mut sel, mut fx) = idle_instance();
        inst.handle(
            InstanceMsg::MigStart { epoch: 1, from: 1, keys: vec![5] },
            &mut sel,
            0.0,
            &mut fx,
        )
        .unwrap();
        let err = inst
            .handle(
                InstanceMsg::MigStart { epoch: 2, from: 2, keys: vec![6] },
                &mut sel,
                0.0,
                &mut fx,
            )
            .unwrap_err();
        assert_eq!(err, ProtocolError::AlreadyMigrating { instance: 0, msg: "MigStart" });
        // The first round is untouched by the rejected second MigStart.
        assert!(
            matches!(inst.migration_state(), MigrationState::Target { epoch: 1, .. }),
            "rejected MigStart must not clobber the in-progress round"
        );
    }

    #[test]
    fn mig_store_epoch_mismatch_is_a_protocol_bug() {
        let (mut inst, mut sel, mut fx) = idle_instance();
        inst.handle(
            InstanceMsg::MigStart { epoch: 1, from: 1, keys: vec![5] },
            &mut sel,
            0.0,
            &mut fx,
        )
        .unwrap();
        let err = inst
            .handle(InstanceMsg::MigStore { epoch: 9, tuples: vec![] }, &mut sel, 0.0, &mut fx)
            .unwrap_err();
        assert_eq!(
            err,
            ProtocolError::EpochMismatch { instance: 0, msg: "MigStore", expected: 1, got: 9 }
        );
    }

    #[test]
    fn watermark_advances_with_any_data() {
        let (mut inst, mut sel, mut fx) = idle_instance();
        let mut t = Tuple::s(1, 500, 0); // probe side also advances it
        t.seq = 1;
        inst.handle(InstanceMsg::Data(t), &mut sel, 0.0, &mut fx).unwrap();
        // Full-history: collect_expired is a no-op but must not panic.
        assert_eq!(inst.collect_expired(), 0);
        // The probe processes against an empty store.
        assert!(matches!(inst.process_next(&mut fx), Some(Work::Probe { matches: 0, .. })));
    }

    #[test]
    fn counters_expired_includes_dropped_migrated_tuples() {
        use crate::config::WindowConfig;
        let w = WindowConfig { sub_windows: 2, sub_window_len: 50 }; // span 100
        let mut inst = JoinInstance::new(1, Side::R, Some(w));
        let mut sel = GreedyFit::new();
        let mut fx = Effects::new();
        // Advance the watermark far ahead.
        let mut fresh = Tuple::r(9, 10_000, 0);
        fresh.seq = 1;
        inst.handle(InstanceMsg::Data(fresh), &mut sel, 0.0, &mut fx).unwrap();
        // Become a migration target and receive a store full of tuples
        // that are already out of the window.
        inst.handle(
            InstanceMsg::MigStart { epoch: 1, from: 0, keys: vec![5] },
            &mut sel,
            0.0,
            &mut fx,
        )
        .unwrap();
        let mut stale = Tuple::r(5, 10, 0);
        stale.seq = 2;
        inst.handle(
            InstanceMsg::MigStore { epoch: 1, tuples: vec![stale] },
            &mut sel,
            0.0,
            &mut fx,
        )
        .unwrap();
        assert_eq!(inst.counters().migrated_in, 1);
        assert_eq!(inst.counters().expired, 1, "stale migrated tuple dropped on install");
        assert_eq!(inst.store().len(), 0);
    }
}
