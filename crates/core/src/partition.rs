//! Partitioning strategies — how a join group places stored tuples and
//! fans out probes.
//!
//! FastJoin and BiStream use *hash partitioning*: a key stores on exactly
//! one instance and probes exactly that instance. BiStream-ContRand and
//! broadcast schemes store on one of several instances and must probe all
//! of them. The [`Partitioner`] trait captures the contract every strategy
//! must satisfy for the join to be complete and exactly-once:
//!
//! 1. every tuple is *stored* on exactly one instance, and
//! 2. a probe for key `k` visits a set of instances that includes every
//!    instance where a tuple with key `k` may currently be stored.

use crate::routing::RoutingTable;
use crate::tuple::Key;

/// A placement strategy for one join group.
pub trait Partitioner: ClonePartitioner {
    /// The instance that stores the next tuple with this key.
    fn store_route(&mut self, key: Key) -> usize;

    /// Appends the instances a probe for this key must visit to `out`
    /// (cleared first).
    fn probe_route(&mut self, key: Key, out: &mut Vec<usize>);

    /// Applies a migration: `keys` now store on (and probe at) `target`.
    /// Returns `false` if this strategy does not support migration
    /// (baselines without dynamic load balancing).
    fn apply_migration(&mut self, keys: &[Key], target: usize) -> bool;

    /// Monotonic routing version, when the strategy tracks one (0 = not
    /// versioned).
    fn route_version(&self) -> u64 {
        0
    }

    /// Number of instances in the group.
    fn instances(&self) -> usize;

    /// Adds instances to the group (elastic scale-out). Returns `false`
    /// if the strategy cannot grow online. Default: unsupported.
    fn grow(&mut self, _additional: usize) -> bool {
        false
    }

    /// Strategy name for reports.
    fn name(&self) -> &'static str;
}

/// Object-safe cloning for boxed partitioners, so a [`crate::dispatcher::Dispatcher`]
/// snapshot can be taken (the `xtask check-protocol` model checker forks
/// dispatcher state at every explored interleaving).
pub trait ClonePartitioner {
    /// Clones `self` into a fresh box.
    fn clone_box(&self) -> Box<dyn Partitioner + Send>;
}

impl<P: Partitioner + Send + Clone + 'static> ClonePartitioner for P {
    fn clone_box(&self) -> Box<dyn Partitioner + Send> {
        Box::new(self.clone())
    }
}

impl Clone for Box<dyn Partitioner + Send> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Hash partitioning with migration support — FastJoin's strategy, and,
/// with the monitor disabled, plain BiStream's.
#[derive(Debug, Clone)]
pub struct HashPartitioner {
    table: RoutingTable,
}

impl HashPartitioner {
    /// Creates a hash partitioner over `n` instances with a group salt.
    #[must_use]
    pub fn new(n: usize, salt: u64) -> Self {
        HashPartitioner { table: RoutingTable::new(n, salt) }
    }
}

impl Partitioner for HashPartitioner {
    fn store_route(&mut self, key: Key) -> usize {
        self.table.route(key)
    }

    fn probe_route(&mut self, key: Key, out: &mut Vec<usize>) {
        out.clear();
        out.push(self.table.route(key));
    }

    fn apply_migration(&mut self, keys: &[Key], target: usize) -> bool {
        self.table.apply_migration(keys, target);
        true
    }

    fn route_version(&self) -> u64 {
        self.table.version()
    }

    fn instances(&self) -> usize {
        self.table.instances()
    }

    fn grow(&mut self, additional: usize) -> bool {
        self.table.grow(additional);
        true
    }

    fn name(&self) -> &'static str {
        "hash"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_probe_visits_exactly_the_store() {
        let mut p = HashPartitioner::new(16, 7);
        let mut probes = Vec::new();
        for key in 0..500 {
            let store = p.store_route(key);
            p.probe_route(key, &mut probes);
            assert_eq!(probes, vec![store]);
        }
    }

    #[test]
    fn migration_moves_both_store_and_probe() {
        let mut p = HashPartitioner::new(8, 0);
        let key = 42;
        let home = p.store_route(key);
        let target = (home + 3) % 8;
        assert!(p.apply_migration(&[key], target));
        assert_eq!(p.store_route(key), target);
        let mut probes = Vec::new();
        p.probe_route(key, &mut probes);
        assert_eq!(probes, vec![target]);
    }

    #[test]
    fn grow_extends_the_group() {
        let mut p = HashPartitioner::new(4, 0);
        assert!(p.grow(2));
        assert_eq!(p.instances(), 6);
        // New instances receive traffic only after migration.
        let mut probes = Vec::new();
        for key in 0..200 {
            p.probe_route(key, &mut probes);
            assert!(probes[0] < 4, "unmigrated keys stay on home instances");
        }
    }

    #[test]
    fn probe_route_clears_previous_contents() {
        let mut p = HashPartitioner::new(4, 0);
        let mut probes = vec![99, 98];
        p.probe_route(1, &mut probes);
        assert_eq!(probes.len(), 1);
        assert!(probes[0] < 4);
    }
}
