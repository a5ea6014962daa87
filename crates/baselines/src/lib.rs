//! # fastjoin-baselines
//!
//! The comparison systems of the paper's evaluation, implemented on the
//! same join-biclique substrate as FastJoin so that only the partitioning
//! strategy differs:
//!
//! * **BiStream** — static hash partitioning, no load balancing
//!   ([`fastjoin_core::JoinCluster::bistream`]).
//! * **BiStream-ContRand** — [`contrand`]: hybrid subgroup routing.
//! * **Broadcast** — [`broadcast`]: round-robin storage, broadcast probes
//!   (the "random partitioning" strawman of the introduction).
//!
//! [`SystemKind`] + [`build_cluster`] give experiments a uniform way to
//! instantiate any of the four systems.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod broadcast;
pub mod contrand;

pub use broadcast::BroadcastPartitioner;
pub use contrand::ContRandPartitioner;

use fastjoin_core::biclique::JoinCluster;
use fastjoin_core::config::FastJoinConfig;
use fastjoin_core::partition::{HashPartitioner, Partitioner};
use fastjoin_core::tuple::Side;

/// Default ContRand subgroup size (divides the paper's 16/32/48/64
/// instance counts).
pub const DEFAULT_SUBGROUP: usize = 4;

/// The subgroup size [`build_partitioners`] uses for a group of `n`
/// instances: the largest divisor of `n` not exceeding
/// [`DEFAULT_SUBGROUP`].
#[must_use]
pub fn subgroup_for(n: usize) -> usize {
    (1..=DEFAULT_SUBGROUP.min(n)).rev().find(|s| n.is_multiple_of(*s)).unwrap_or(1)
}

/// The four systems compared in the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SystemKind {
    /// FastJoin: hash partitioning + dynamic skew-aware migration.
    FastJoin,
    /// BiStream: static hash partitioning.
    BiStream,
    /// BiStream with ContRand hybrid routing.
    BiStreamContRand,
    /// Round-robin storage with broadcast probes.
    Broadcast,
}

impl SystemKind {
    /// The label used in the paper's figures.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SystemKind::FastJoin => "FastJoin",
            SystemKind::BiStream => "BiStream",
            SystemKind::BiStreamContRand => "BiStream-ContRand",
            SystemKind::Broadcast => "Broadcast",
        }
    }

    /// The three systems of the headline comparison (Figs. 3–13).
    #[must_use]
    pub fn headline() -> [SystemKind; 3] {
        [SystemKind::FastJoin, SystemKind::BiStreamContRand, SystemKind::BiStream]
    }
}

/// Builds the two group partitioners for a system. Returns
/// `(r_group, s_group, dynamic)` where `dynamic` says whether the system
/// runs the monitoring component (dynamic load balancing).
///
/// # Panics
/// Panics (for ContRand) if [`DEFAULT_SUBGROUP`] does not divide
/// `cfg.instances_per_group` when the group is larger than the subgroup.
#[must_use]
#[allow(clippy::type_complexity)]
pub fn build_partitioners(
    kind: SystemKind,
    cfg: &FastJoinConfig,
) -> (Box<dyn Partitioner + Send>, Box<dyn Partitioner + Send>, bool) {
    let n = cfg.instances_per_group;
    match kind {
        SystemKind::FastJoin | SystemKind::BiStream => {
            let r = Box::new(HashPartitioner::new(n, Side::R.index() as u64));
            let s = Box::new(HashPartitioner::new(n, Side::S.index() as u64));
            (r, s, kind == SystemKind::FastJoin)
        }
        SystemKind::BiStreamContRand => {
            let sub = subgroup_for(n);
            let r =
                Box::new(ContRandPartitioner::new(n, sub, Side::R.index() as u64, cfg.seed ^ 0xC0));
            let s =
                Box::new(ContRandPartitioner::new(n, sub, Side::S.index() as u64, cfg.seed ^ 0xC1));
            (r, s, false)
        }
        SystemKind::Broadcast => {
            (Box::new(BroadcastPartitioner::new(n)), Box::new(BroadcastPartitioner::new(n)), false)
        }
    }
}

/// Builds a synchronous [`JoinCluster`] for the requested system.
///
/// # Panics
/// Panics if the configuration is invalid, or (for ContRand) if
/// [`DEFAULT_SUBGROUP`] does not divide `cfg.instances_per_group`.
#[must_use]
pub fn build_cluster(kind: SystemKind, cfg: FastJoinConfig) -> JoinCluster {
    let (r, s, dynamic) = build_partitioners(kind, &cfg);
    JoinCluster::with_partitioners(cfg, r, s, dynamic)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastjoin_core::tuple::{JoinedPair, Tuple};

    fn cfg(n: usize) -> FastJoinConfig {
        FastJoinConfig { instances_per_group: n, ..FastJoinConfig::default() }
    }

    fn workload() -> Vec<Tuple> {
        let mut tuples = Vec::new();
        for i in 0..300u64 {
            tuples.push(Tuple::r(i % 7, i, 0));
            tuples.push(Tuple::s(i % 7, i, 0));
        }
        tuples
    }

    fn expected_pairs() -> usize {
        // 7 keys; each key appears the same number of times on both sides.
        let mut total = 0;
        for k in 0..7u64 {
            let n = (0..300u64).filter(|i| i % 7 == k).count();
            total += n * n;
        }
        total
    }

    #[test]
    fn all_systems_produce_identical_complete_results() {
        let expected = expected_pairs();
        for kind in [
            SystemKind::FastJoin,
            SystemKind::BiStream,
            SystemKind::BiStreamContRand,
            SystemKind::Broadcast,
        ] {
            let mut cluster = build_cluster(kind, cfg(8));
            let results = cluster.run_to_completion(workload());
            assert_eq!(results.len(), expected, "{} result count", kind.label());
            let mut ids: Vec<_> = results.iter().map(JoinedPair::identity).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), expected, "{} produced duplicates", kind.label());
        }
    }

    #[test]
    fn contrand_spreads_hot_key_storage() {
        let mut cluster = build_cluster(SystemKind::BiStreamContRand, cfg(8));
        // 1000 R tuples on one hot key.
        for i in 0..1000 {
            cluster.ingest(Tuple::r(42, i, 0));
        }
        cluster.pump();
        let stored: Vec<u64> = (0..8).map(|i| cluster.instance(Side::R, i).store().len()).collect();
        let nonzero = stored.iter().filter(|&&c| c > 0).count();
        assert_eq!(nonzero, DEFAULT_SUBGROUP, "hot key spread: {stored:?}");
    }

    #[test]
    fn bistream_concentrates_hot_key_storage() {
        let mut cluster = build_cluster(SystemKind::BiStream, cfg(8));
        for i in 0..1000 {
            cluster.ingest(Tuple::r(42, i, 0));
        }
        cluster.pump();
        let stored: Vec<u64> = (0..8).map(|i| cluster.instance(Side::R, i).store().len()).collect();
        let nonzero = stored.iter().filter(|&&c| c > 0).count();
        assert_eq!(nonzero, 1, "hash partitioning pins a key to one instance: {stored:?}");
    }

    #[test]
    fn broadcast_balances_storage_perfectly() {
        let mut cluster = build_cluster(SystemKind::Broadcast, cfg(4));
        for i in 0..400 {
            cluster.ingest(Tuple::r(42, i, 0));
        }
        cluster.pump();
        for i in 0..4 {
            assert_eq!(cluster.instance(Side::R, i).store().len(), 100);
        }
    }

    #[test]
    fn broadcast_probes_cost_group_size_times_more() {
        // One stored tuple per instance; a single probe is processed by
        // every instance (4 probe executions vs 1 for hash).
        let mut cluster = build_cluster(SystemKind::Broadcast, cfg(4));
        for i in 0..4 {
            cluster.ingest(Tuple::r(7, i, 0));
        }
        cluster.ingest(Tuple::s(7, 10, 0));
        cluster.pump();
        let probed: u64 = (0..4).map(|i| cluster.instance(Side::R, i).counters().probed).sum();
        assert_eq!(probed, 4, "the probe must be executed on all instances");
        assert_eq!(cluster.drain_results().len(), 4);
    }

    /// Every system's dispatcher stamps each tuple with its probe fan-out
    /// — the count the collector completes the probe at — alongside its
    /// seq: one for hash routing, the subgroup or the whole group for the
    /// strategies that fan probes out.
    #[test]
    fn dispatch_stamps_each_tuple_with_its_fanout() {
        use fastjoin_core::dispatcher::{Dispatch, Dispatcher};
        let expected = [
            (SystemKind::FastJoin, 1),
            (SystemKind::BiStream, 1),
            (SystemKind::BiStreamContRand, DEFAULT_SUBGROUP),
            (SystemKind::Broadcast, 8),
        ];
        for (kind, fanout) in expected {
            let (r, s, _) = build_partitioners(kind, &cfg(8));
            let mut dispatcher = Dispatcher::new(r, s);
            let mut out = Dispatch::default();
            for t in workload() {
                dispatcher.dispatch_into(t, &mut out);
                let label = format!("{} {:?}", kind.label(), out.tuple);
                assert_eq!(out.tuple.fanout as usize, out.probe_dests.len(), "{label}");
                assert_eq!(out.probe_dests.len(), fanout, "{label}");
            }
        }
    }

    #[test]
    fn subgroup_always_divides() {
        for n in 1..=64 {
            let s = subgroup_for(n);
            assert!((1..=DEFAULT_SUBGROUP).contains(&s));
            assert_eq!(n % s, 0, "subgroup {s} for n={n}");
        }
        assert_eq!(subgroup_for(48), 4);
        assert_eq!(subgroup_for(6), 3);
        assert_eq!(subgroup_for(7), 1);
    }

    #[test]
    fn headline_list_matches_figures() {
        let labels: Vec<_> = SystemKind::headline().iter().map(|k| k.label()).collect();
        assert_eq!(labels, vec!["FastJoin", "BiStream-ContRand", "BiStream"]);
    }
}
