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
    /// per route flip the sequencer applies, in either group. The
    /// per-group table versions below count only that group's flips.
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
    /// Monotonic table version, bumped by every applied migration.
    version: u64,
}

impl RoutingTable {
    /// Creates a table over `n` instances with a per-group salt.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    #[must_use]
    pub fn new(n: usize, salt: u64) -> Self {
        assert!(n > 0, "a join group needs at least one instance"); // lint:allow(constructor argument validation)
        RoutingTable { instances: n, home: n, salt, overrides: HashMap::new(), version: 1 }
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

    /// Records that `keys` now live on `target` and bumps the table
    /// version. Overrides that would be identical to the hash placement
    /// are stored anyway: a later migration away and back must not be
    /// distinguishable from never migrating.
    ///
    /// # Panics
    /// Panics if `target` is out of range.
    pub fn apply_migration(&mut self, keys: &[Key], target: usize) {
        assert!(target < self.instances, "migration target {target} out of range"); // lint:allow(documented panic contract: target must be in range)
        for &k in keys {
            self.overrides.insert(k, target);
        }
        self.version += 1;
    }

    /// Monotonic table version. Starts at 1; every applied migration bumps
    /// it by one.
    #[must_use]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of keys currently routed away from their hash placement
    /// (including round-trips back to it — see [`apply_migration`]).
    ///
    /// [`apply_migration`]: RoutingTable::apply_migration
    #[must_use]
    pub fn override_count(&self) -> usize {
        self.overrides.len()
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
        // Migrated back home: still one override, routing to home.
        let home = t.default_route(7);
        t.apply_migration(&[7], home);
        assert_eq!(t.route(7), home);
        assert_eq!(t.override_count(), 1);
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
    fn every_apply_bumps_the_version_by_one() {
        let mut t = RoutingTable::new(4, 0);
        assert_eq!(t.version(), 1);
        for (i, keys) in [&[1u64][..], &[], &[2, 3], &[1]].into_iter().enumerate() {
            t.apply_migration(keys, 2);
            assert_eq!(t.version(), i as u64 + 2, "apply #{} bumps by exactly one", i + 1);
        }
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
