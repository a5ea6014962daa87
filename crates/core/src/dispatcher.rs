//! The dispatching component (§III-A).
//!
//! The dispatcher receives pre-processed tuples, assigns dispatch sequence
//! numbers, and routes each tuple twice: once to its *storing* group (the
//! group holding its own stream) and once to the opposite group for
//! *probing* — to as many instances as the tuple's `fanout`, which it
//! stamps on the tuple with the seq. After a migration it applies the
//! routing-table update and confirms back to the source instance.
//!
//! Exactly-once joining relies on the dispatcher emitting destinations in
//! sequence order and the engine preserving per-channel FIFO delivery; see
//! `crates/core/src/instance.rs` and `tests/completeness.rs`.

use crate::partition::Partitioner;
use crate::protocol::RouteRequest;
use crate::routing::RouteSnapshot;
use crate::tuple::{Seq, Side, Tuple};

/// Where one tuple must be delivered: its storing destination and the probe
/// fan-out. Reused across calls to avoid hot-path allocation.
#[derive(Debug, Clone)]
pub struct Dispatch {
    /// The tuple with its dispatch sequence number assigned.
    pub tuple: Tuple,
    /// Instance index in the tuple's own (storing) group.
    pub store_dest: usize,
    /// Instance indices in the opposite group to probe.
    pub probe_dests: Vec<usize>,
}

impl Default for Dispatch {
    fn default() -> Self {
        Dispatch { tuple: Tuple::new(Side::R, 0, 0, 0), store_dest: 0, probe_dests: Vec::new() }
    }
}

/// The dispatcher: one partitioner per group plus the sequence counter.
#[derive(Clone)]
pub struct Dispatcher {
    /// Partitioners indexed by storing side (`Side::index`).
    parts: [Box<dyn Partitioner + Send>; 2],
    next_seq: Seq,
}

impl Dispatcher {
    /// Creates a dispatcher from the two group partitioners
    /// (`[R-group, S-group]`).
    #[must_use]
    pub fn new(r_group: Box<dyn Partitioner + Send>, s_group: Box<dyn Partitioner + Send>) -> Self {
        Dispatcher { parts: [r_group, s_group], next_seq: 1 }
    }

    /// The partitioner of the group storing `side`.
    #[must_use]
    pub fn partitioner(&self, side: Side) -> &(dyn Partitioner + Send) {
        self.parts[side.index()].as_ref() // lint:allow(Side::index is 0 or 1; parts is a [_; 2])
    }

    /// Routes one tuple, assigning its sequence number. The result is
    /// written into `out` (probe fan-out reused, no allocation for hash
    /// strategies).
    pub fn dispatch_into(&mut self, tuple: Tuple, out: &mut Dispatch) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.dispatch_into_with_seq(tuple, seq, out);
    }

    /// Routes one tuple under an externally assigned sequence number,
    /// bypassing the internal counter, and stamps it with its probe
    /// fan-out. The sharded dispatch plane draws seqs from one shared
    /// atomic counter so they stay globally unique across shards; per-key
    /// ordering is preserved because every tuple of a key flows through
    /// the same shard.
    pub fn dispatch_into_with_seq(&mut self, mut tuple: Tuple, seq: Seq, out: &mut Dispatch) {
        let own = tuple.side;
        let opp = own.opposite();
        out.store_dest = self.parts[own.index()].store_route(tuple.key); // lint:allow(Side::index is 0 or 1; parts is a [_; 2])
        self.parts[opp.index()].probe_route(tuple.key, &mut out.probe_dests); // lint:allow(Side::index is 0 or 1; parts is a [_; 2])
        tuple.seq = seq;
        tuple.fanout = out.probe_dests.len() as u32;
        out.tuple = tuple;
    }

    /// Convenience wrapper allocating a fresh [`Dispatch`].
    #[must_use]
    pub fn dispatch(&mut self, tuple: Tuple) -> Dispatch {
        let mut out = Dispatch::default();
        self.dispatch_into(tuple, &mut out);
        out
    }

    /// Grows the group storing `group_side` by `additional` instances.
    /// Returns `false` if the partitioner cannot grow online.
    pub fn grow(&mut self, group_side: Side, additional: usize) -> bool {
        self.parts[group_side.index()].grow(additional) // lint:allow(Side::index is 0 or 1; parts is a [_; 2])
    }

    /// Applies a routing update for the group storing `group_side`.
    /// Returns `true` if the partitioner supports migration (the engine
    /// must then deliver [`crate::protocol::InstanceMsg::RouteUpdated`] to
    /// `req.source`).
    pub fn apply_route(&mut self, group_side: Side, req: &RouteRequest) -> bool {
        self.parts[group_side.index()].apply_migration(&req.keys, req.target) // lint:allow(Side::index is 0 or 1; parts is a [_; 2])
    }

    /// Monotonic routing version of the group storing `group_side`
    /// (0 when the strategy is unversioned).
    #[must_use]
    pub fn route_version(&self, group_side: Side) -> u64 {
        self.parts[group_side.index()].route_version() // lint:allow(Side::index is 0 or 1; parts is a [_; 2])
    }

    /// Captures the current routing state of both groups as an
    /// epoch-versioned [`RouteSnapshot`] (partitioner clones plus the
    /// per-group table versions). The control sequencer publishes these to
    /// dispatcher shards after applying a route flip.
    #[must_use]
    pub fn route_snapshot(&self, epoch: u64) -> RouteSnapshot {
        RouteSnapshot {
            epoch,
            versions: [self.route_version(Side::R), self.route_version(Side::S)],
            parts: [self.parts[0].clone(), self.parts[1].clone()], // lint:allow(parts is a [_; 2])
        }
    }

    /// Replaces this dispatcher's partitioners with a published snapshot's
    /// clones (shard side of the snapshot protocol). The sequence counter
    /// is untouched (sharded dispatchers draw seqs externally anyway).
    pub fn install_routes(&mut self, snap: RouteSnapshot) {
        self.parts = snap.parts;
    }
}

impl std::fmt::Debug for Dispatcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dispatcher")
            .field("r_strategy", &self.parts[0].name()) // lint:allow(parts is a [_; 2])
            .field("s_strategy", &self.parts[1].name()) // lint:allow(parts is a [_; 2])
            .field("next_seq", &self.next_seq)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::HashPartitioner;

    fn hash_dispatcher(n: usize) -> Dispatcher {
        Dispatcher::new(Box::new(HashPartitioner::new(n, 0)), Box::new(HashPartitioner::new(n, 1)))
    }

    #[test]
    fn seq_numbers_are_strictly_increasing() {
        let mut d = hash_dispatcher(4);
        let a = d.dispatch(Tuple::r(1, 0, 0));
        let b = d.dispatch(Tuple::s(1, 1, 0));
        assert!(a.tuple.seq < b.tuple.seq);
        assert!(a.tuple.seq > 0, "seq 0 is reserved for undispatched tuples");
    }

    #[test]
    fn r_tuple_stores_in_r_group_probes_s_group() {
        let mut d = hash_dispatcher(8);
        let key = 42;
        let disp = d.dispatch(Tuple::r(key, 0, 0));
        // Store destination must equal the R-group route, probe the S-group.
        assert!(disp.store_dest < 8);
        assert_eq!(disp.probe_dests.len(), 1);
        // Same key from the S side maps to the mirrored destinations.
        let disp_s = d.dispatch(Tuple::s(key, 1, 0));
        assert_eq!(disp_s.store_dest, disp.probe_dests[0]);
        assert_eq!(disp_s.probe_dests, vec![disp.store_dest]);
    }

    #[test]
    fn route_update_redirects_both_roles() {
        let mut d = hash_dispatcher(4);
        let key = 7;
        let before = d.dispatch(Tuple::r(key, 0, 0));
        let target = (before.store_dest + 1) % 4;
        let applied = d.apply_route(
            Side::R,
            &RouteRequest { epoch: 1, keys: vec![key], target, source: before.store_dest },
        );
        assert!(applied);
        // R tuples with the key now store on the target...
        let after = d.dispatch(Tuple::r(key, 1, 0));
        assert_eq!(after.store_dest, target);
        // ...and S tuples probe the R-group target.
        let after_s = d.dispatch(Tuple::s(key, 2, 0));
        assert_eq!(after_s.probe_dests, vec![target]);
        // The S group's own placement is untouched.
        assert_eq!(after_s.store_dest, before.probe_dests[0]);
    }

    #[test]
    fn grow_extends_routing() {
        let mut d = hash_dispatcher(4);
        assert!(d.grow(Side::R, 2));
        assert_eq!(d.partitioner(Side::R).instances(), 6);
        assert_eq!(d.partitioner(Side::S).instances(), 4, "groups grow independently");
        // Routes stay in the home range until a migration targets 4 or 5.
        for k in 0..100 {
            assert!(d.dispatch(Tuple::r(k, 0, 0)).store_dest < 4);
        }
        let applied =
            d.apply_route(Side::R, &RouteRequest { epoch: 1, keys: vec![7], target: 5, source: 0 });
        assert!(applied);
        assert_eq!(d.dispatch(Tuple::r(7, 0, 0)).store_dest, 5);
    }

    #[test]
    fn external_seqs_bypass_the_internal_counter() {
        let mut d = hash_dispatcher(4);
        let mut out = Dispatch::default();
        d.dispatch_into_with_seq(Tuple::r(1, 0, 0), 500, &mut out);
        assert_eq!(out.tuple.seq, 500);
        // The internal counter is untouched: the next internal dispatch
        // still starts at 1.
        assert_eq!(d.dispatch(Tuple::r(2, 0, 0)).tuple.seq, 1);
    }

    #[test]
    fn snapshot_round_trips_routing_state() {
        let mut d = hash_dispatcher(4);
        let key = 7;
        let home = d.dispatch(Tuple::r(key, 0, 0)).store_dest;
        let target = (home + 1) % 4;
        assert!(d.apply_route(
            Side::R,
            &RouteRequest { epoch: 1, keys: vec![key], target, source: home }
        ));
        let snap = d.route_snapshot(9);
        assert_eq!(snap.epoch, 9);
        assert_eq!(snap.versions[0], d.route_version(Side::R));
        // A fresh dispatcher installing the snapshot routes identically.
        let mut shard = hash_dispatcher(4);
        assert_eq!(shard.dispatch(Tuple::r(key, 1, 0)).store_dest, home, "pre-install");
        shard.install_routes(snap.clone());
        assert_eq!(shard.dispatch(Tuple::r(key, 2, 0)).store_dest, target, "post-install");
        // Snapshots clone deeply: mutating the original does not leak into
        // an installed clone.
        assert!(d.apply_route(
            Side::R,
            &RouteRequest { epoch: 2, keys: vec![key], target: home, source: target }
        ));
        assert_eq!(d.dispatch(Tuple::r(key, 3, 0)).store_dest, home);
        assert_eq!(shard.dispatch(Tuple::r(key, 4, 0)).store_dest, target);
        assert!(format!("{snap:?}").contains("epoch"));
    }

    #[test]
    fn dispatch_into_reuses_buffers() {
        let mut d = hash_dispatcher(4);
        let mut out = Dispatch::default();
        d.dispatch_into(Tuple::r(1, 0, 0), &mut out);
        let first = out.probe_dests.clone();
        d.dispatch_into(Tuple::r(2, 1, 0), &mut out);
        assert_eq!(out.probe_dests.len(), 1, "fan-out must be cleared per dispatch");
        let _ = first;
    }
}
