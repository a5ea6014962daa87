//! Routing tables with migration overrides.
//!
//! The dispatcher routes a key to `hash(key) mod n` by default; after the
//! monitor migrates a key set, the dispatcher "records the migration
//! information in a routing table \[and\] checks the routing table to
//! dispatch the tuples to the right join instances" (§III-A). Each join
//! group (the R-storing group and the S-storing group) has its own table,
//! because migrations happen independently per group.

use std::collections::HashMap;

use crate::hash::partition_salted;
use crate::partition::Partitioner;
use crate::tuple::Key;

/// A consistent, epoch-versioned snapshot of both groups' routing state.
///
/// The sharded dispatch plane routes every batch under exactly one
/// snapshot: the control sequencer owns the authoritative tables, and on
/// every route flip it publishes a fresh `RouteSnapshot` (with a strictly
/// increasing `epoch`) to each dispatcher shard. A shard must flush every
/// batch it accumulated under the older snapshot *before* installing the
/// new one and acknowledging the epoch — the consistent-read rule that
/// keeps per-channel FIFO meaningful when routing changes mid-stream.
pub struct RouteSnapshot {
    /// Publication epoch: strictly increasing across publications, one
    /// per route flip the sequencer stages. Independent of the per-group
    /// table versions below (aborted rounds bump versions twice without
    /// a publication).
    pub epoch: u64,
    /// The per-group routing-table versions captured at snapshot time
    /// (`[R-storing, S-storing]`), for tracing and debugging.
    pub versions: [u64; 2],
    /// Partitioner clones indexed by storing side. Owned clones rather
    /// than shared references because routing is stateful (`store_route`
    /// takes `&mut self`: randomized strategies draw from an RNG).
    pub parts: [Box<dyn Partitioner + Send>; 2],
}

impl Clone for RouteSnapshot {
    fn clone(&self) -> Self {
        RouteSnapshot {
            epoch: self.epoch,
            versions: self.versions,
            parts: [self.parts[0].clone(), self.parts[1].clone()], // lint:allow(parts is a [_; 2])
        }
    }
}

impl std::fmt::Debug for RouteSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RouteSnapshot")
            .field("epoch", &self.epoch)
            .field("versions", &self.versions)
            .field("r_strategy", &self.parts[0].name()) // lint:allow(parts is a [_; 2])
            .field("s_strategy", &self.parts[1].name()) // lint:allow(parts is a [_; 2])
            .finish()
    }
}

/// The override values a staged migration replaced, kept so the stage can
/// be reverted if the round aborts before its route flip is acknowledged.
#[derive(Debug, Clone)]
struct StagedMigration {
    /// Migration epoch the stage belongs to.
    epoch: u64,
    /// Prior override per staged key (`None` = key had no override).
    prior: Vec<(Key, Option<usize>)>,
}

/// Routing table of one join group: default hash placement plus the
/// override map for migrated keys.
#[derive(Debug, Clone)]
pub struct RoutingTable {
    instances: usize,
    /// The group size hashing was set up for. Scaling out keeps hashing
    /// over the original `home` range so existing placements stay stable;
    /// added instances receive keys only through migration overrides.
    home: usize,
    /// Salt so the two groups don't co-locate the same hot keys.
    salt: u64,
    overrides: HashMap<Key, usize>,
    /// Monotonic table version, bumped on every visible routing change
    /// (stage and revert alike — a rollback is a *new* version, never a
    /// reuse of an old number).
    version: u64,
    /// The one migration staged but not yet committed, if any.
    staged: Option<StagedMigration>,
}

impl RoutingTable {
    /// Creates a table over `n` instances with a per-group salt.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    #[must_use]
    pub fn new(n: usize, salt: u64) -> Self {
        assert!(n > 0, "a join group needs at least one instance"); // lint:allow(constructor argument validation)
        RoutingTable {
            instances: n,
            home: n,
            salt,
            overrides: HashMap::new(),
            version: 1,
            staged: None,
        }
    }

    /// Adds `additional` instances to the group. Hash placement keeps
    /// using the original range (existing keys do not move); the new
    /// instances are valid migration targets and fill up through the
    /// normal dynamic-balancing mechanism.
    pub fn grow(&mut self, additional: usize) {
        self.instances += additional;
    }

    /// Number of instances in the group.
    #[must_use]
    pub fn instances(&self) -> usize {
        self.instances
    }

    /// The instance a key routes to: the override if migrated, otherwise
    /// the hash placement.
    #[inline]
    #[must_use]
    pub fn route(&self, key: Key) -> usize {
        match self.overrides.get(&key) {
            Some(&i) => i,
            None => self.default_route(key),
        }
    }

    /// The pre-migration (hash) placement of a key (always within the
    /// original `home` range — see [`RoutingTable::grow`]).
    #[inline]
    #[must_use]
    pub fn default_route(&self, key: Key) -> usize {
        partition_salted(key, self.salt, self.home)
    }

    /// Records that `keys` now live on `target`. Overrides that would be
    /// identical to the hash placement are stored anyway: a later migration
    /// away and back must not be distinguishable from never migrating.
    ///
    /// Equivalent to staging the migration and committing it immediately —
    /// callers that may need to roll back should use
    /// [`RoutingTable::stage_migration`] instead.
    ///
    /// # Panics
    /// Panics if `target` is out of range.
    pub fn apply_migration(&mut self, keys: &[Key], target: usize) {
        self.stage_migration(0, keys, target);
        self.commit_staged(0);
    }

    /// Stages epoch `epoch`'s migration of `keys` to `target`: the routes
    /// become visible immediately (the dispatcher flips traffic the moment
    /// it applies a route request), but the prior placements are retained
    /// so [`RoutingTable::revert_staged`] can undo the flip if the round
    /// aborts. Any previously staged migration is auto-committed first —
    /// the monitor serialises rounds, so a new stage proves the previous
    /// round got past its point of no return.
    ///
    /// Bumps the table version.
    ///
    /// # Panics
    /// Panics if `target` is out of range.
    pub fn stage_migration(&mut self, epoch: u64, keys: &[Key], target: usize) {
        assert!(target < self.instances, "migration target {target} out of range"); // lint:allow(documented panic contract: target must be in range)
        self.staged = None; // auto-commit whatever was staged before
        let mut prior = Vec::with_capacity(keys.len());
        for &k in keys {
            prior.push((k, self.overrides.insert(k, target)));
        }
        self.staged = Some(StagedMigration { epoch, prior });
        self.version += 1;
    }

    /// Commits the staged migration for `epoch`, making it permanent. A
    /// no-op when nothing is staged or the staged epoch differs (a later
    /// stage already auto-committed it). Returns whether a stage was
    /// committed. The version does not change: the routes were already
    /// visible from the stage.
    pub fn commit_staged(&mut self, epoch: u64) -> bool {
        match &self.staged {
            Some(s) if s.epoch == epoch => {
                self.staged = None;
                true
            }
            _ => false,
        }
    }

    /// Reverts the staged migration for `epoch`, restoring every key's
    /// prior placement and bumping the version again — the rollback is a
    /// new table state, so version numbers stay strictly monotonic.
    /// Returns `false` (leaving the table untouched) when nothing matching
    /// is staged.
    pub fn revert_staged(&mut self, epoch: u64) -> bool {
        match self.staged.take() {
            Some(s) if s.epoch == epoch => {
                for (k, prior) in s.prior.into_iter().rev() {
                    match prior {
                        Some(dest) => self.overrides.insert(k, dest),
                        None => self.overrides.remove(&k),
                    };
                }
                self.version += 1;
                true
            }
            other => {
                self.staged = other;
                false
            }
        }
    }

    /// Monotonic table version. Starts at 1; every stage and every revert
    /// bumps it.
    #[must_use]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Whether a staged (uncommitted) migration is pending.
    #[must_use]
    pub fn has_staged(&self) -> bool {
        self.staged.is_some()
    }

    /// Number of keys currently routed away from their hash placement
    /// (including round-trips back to it — see [`apply_migration`]).
    ///
    /// [`apply_migration`]: RoutingTable::apply_migration
    #[must_use]
    pub fn override_count(&self) -> usize {
        self.overrides.len()
    }

    /// Iterates over `(key, instance)` overrides.
    pub fn overrides(&self) -> impl Iterator<Item = (Key, usize)> + '_ {
        self.overrides.iter().map(|(k, i)| (*k, *i))
    }

    /// Drops overrides that match the default placement again (periodic
    /// compaction; routing results are unchanged).
    pub fn compact(&mut self) {
        let home = self.home;
        let salt = self.salt;
        self.overrides.retain(|&k, &mut i| partition_salted(k, salt, home) != i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_route_is_hash_placement() {
        let t = RoutingTable::new(8, 0);
        for k in 0..100 {
            assert_eq!(t.route(k), t.default_route(k));
            assert!(t.route(k) < 8);
        }
    }

    #[test]
    fn overrides_take_precedence() {
        let mut t = RoutingTable::new(8, 0);
        let k = 42;
        let target = (t.default_route(k) + 1) % 8;
        t.apply_migration(&[k], target);
        assert_eq!(t.route(k), target);
        assert_eq!(t.override_count(), 1);
        // Unmigrated keys unaffected.
        assert_eq!(t.route(k + 1), t.default_route(k + 1));
    }

    #[test]
    fn repeated_migrations_keep_latest() {
        let mut t = RoutingTable::new(4, 0);
        t.apply_migration(&[7], 1);
        t.apply_migration(&[7], 3);
        assert_eq!(t.route(7), 3);
        assert_eq!(t.override_count(), 1);
    }

    #[test]
    fn compact_removes_round_trips() {
        let mut t = RoutingTable::new(4, 0);
        let k = 5;
        let home = t.default_route(k);
        t.apply_migration(&[k], (home + 1) % 4);
        t.apply_migration(&[k], home); // migrated back
        assert_eq!(t.override_count(), 1);
        t.compact();
        assert_eq!(t.override_count(), 0);
        assert_eq!(t.route(k), home);
    }

    #[test]
    fn groups_with_different_salts_disagree() {
        let a = RoutingTable::new(48, 0);
        let b = RoutingTable::new(48, 1);
        let differing = (0..1000u64).filter(|&k| a.route(k) != b.route(k)).count();
        assert!(differing > 900, "salts should decorrelate placements: {differing}");
    }

    #[test]
    fn grow_keeps_existing_routes_stable() {
        let mut t = RoutingTable::new(4, 0);
        let before: Vec<usize> = (0..200).map(|k| t.route(k)).collect();
        t.grow(2);
        assert_eq!(t.instances(), 6);
        let after: Vec<usize> = (0..200).map(|k| t.route(k)).collect();
        assert_eq!(before, after, "scale-out must not remap existing keys");
        // The new instances are valid migration targets.
        t.apply_migration(&[7], 5);
        assert_eq!(t.route(7), 5);
    }

    #[test]
    fn stage_flips_routes_and_revert_restores_them() {
        let mut t = RoutingTable::new(4, 0);
        let k = 42;
        let home = t.default_route(k);
        let target = (home + 1) % 4;
        let v0 = t.version();
        t.stage_migration(7, &[k], target);
        assert_eq!(t.route(k), target, "staged routes are live immediately");
        assert!(t.has_staged());
        assert_eq!(t.version(), v0 + 1);
        assert!(t.revert_staged(7));
        assert_eq!(t.route(k), home, "revert restores the prior placement");
        assert_eq!(t.override_count(), 0);
        assert!(!t.has_staged());
        assert_eq!(t.version(), v0 + 2, "a revert is a new version, not a reuse");
    }

    #[test]
    fn revert_restores_prior_override_not_just_default() {
        let mut t = RoutingTable::new(4, 0);
        t.apply_migration(&[9], 2);
        t.stage_migration(3, &[9], 1);
        assert_eq!(t.route(9), 1);
        assert!(t.revert_staged(3));
        assert_eq!(t.route(9), 2, "revert must restore the previous override");
    }

    #[test]
    fn commit_makes_the_stage_permanent() {
        let mut t = RoutingTable::new(4, 0);
        let target = (t.default_route(5) + 1) % 4;
        t.stage_migration(1, &[5], target);
        assert!(t.commit_staged(1));
        assert!(!t.has_staged());
        assert!(!t.revert_staged(1), "committed rounds can no longer revert");
        assert_eq!(t.route(5), target);
    }

    #[test]
    fn mismatched_epoch_neither_commits_nor_reverts() {
        let mut t = RoutingTable::new(4, 0);
        let target = (t.default_route(5) + 1) % 4;
        t.stage_migration(2, &[5], target);
        assert!(!t.commit_staged(9));
        assert!(!t.revert_staged(9));
        assert!(t.has_staged(), "the stage must survive mismatched epochs");
        assert_eq!(t.route(5), target);
    }

    #[test]
    fn new_stage_auto_commits_the_previous_one() {
        let mut t = RoutingTable::new(4, 0);
        let a = (t.default_route(5) + 1) % 4;
        let b = (t.default_route(6) + 1) % 4;
        t.stage_migration(1, &[5], a);
        t.stage_migration(2, &[6], b);
        assert!(!t.revert_staged(1), "epoch 1 was auto-committed by the later stage");
        assert_eq!(t.route(5), a);
        assert!(t.revert_staged(2));
        assert_eq!(t.route(6), t.default_route(6));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_target() {
        let mut t = RoutingTable::new(4, 0);
        t.apply_migration(&[1], 4);
    }

    #[test]
    #[should_panic(expected = "at least one instance")]
    fn rejects_zero_instances() {
        let _ = RoutingTable::new(0, 0);
    }
}
