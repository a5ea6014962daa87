//! The join-biclique cluster (§III-A), wired synchronously.
//!
//! [`JoinCluster`] assembles the three components of Fig. 2 — dispatching,
//! joining, monitoring — into one in-memory structure with immediate FIFO
//! message delivery. It is the *reference implementation* of FastJoin's
//! semantics: examples and correctness tests run against it. Its joining
//! component is [`crate::stage`]'s instance step, which the discrete-event
//! simulator (`fastjoin-sim`) drives with simulated latency and the
//! threaded runtime (`fastjoin-runtime`) wraps in crash recovery. Each
//! served probe part is booked in a [`ProbeAccountant`].
//!
//! Baselines plug in through the [`Partitioner`] abstraction: plain
//! BiStream is this cluster with monitors disabled; ContRand and broadcast
//! strategies substitute their own partitioners (see `fastjoin-baselines`).

use std::collections::VecDeque;

use crate::accounting::ProbeAccountant;
use crate::config::FastJoinConfig;
use crate::dispatcher::{Dispatch, Dispatcher};
use crate::instance::JoinInstance;
use crate::monitor::Monitor;
use crate::partition::{HashPartitioner, Partitioner};
use crate::protocol::InstanceMsg;
use crate::selection::{make_selector, KeySelector};
use crate::stage::{InstOut, InstanceCore};
use crate::tuple::{JoinedPair, Side, Timestamp, Tuple};

/// One join group: the instances storing one stream, plus (for dynamic
/// systems) its monitor and key selector.
struct Group {
    side: Side,
    instances: Vec<InstanceCore>,
    monitor: Option<Monitor>,
    selector: Box<dyn KeySelector + Send>,
}

/// Summary of one monitor tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TickReport {
    /// Degree of load imbalance of the R-storing group after reports.
    pub li_r: f64,
    /// Degree of load imbalance of the S-storing group after reports.
    pub li_s: f64,
    /// Migrations triggered by this tick (both groups).
    pub migrations_triggered: u32,
}

/// A synchronous join-biclique cluster.
pub struct JoinCluster {
    cfg: FastJoinConfig,
    dispatcher: Dispatcher,
    groups: [Group; 2],
    /// Event-time clock, advanced by ingested tuples.
    now: Timestamp,
    /// Joined results not yet drained by the caller.
    results: Vec<JoinedPair>,
    /// Control messages awaiting delivery: `(group index, instance, msg)`.
    ctrl: VecDeque<(usize, usize, InstanceMsg)>,
    /// Scratch output buffer of the instance steps.
    out: VecDeque<InstOut>,
    /// Every served probe part, checked against its fan-out.
    probes: ProbeAccountant,
}

impl JoinCluster {
    /// Builds a FastJoin cluster: hash partitioning with dynamic load
    /// balancing in both groups.
    ///
    /// # Panics
    /// Panics if the configuration is invalid.
    #[must_use]
    pub fn fastjoin(cfg: FastJoinConfig) -> Self {
        cfg.validate().expect("invalid FastJoin configuration"); // lint:allow(constructor validates user-supplied config up front)
        let n = cfg.instances_per_group;
        let r = Box::new(HashPartitioner::new(n, Side::R.index() as u64));
        let s = Box::new(HashPartitioner::new(n, Side::S.index() as u64));
        Self::with_partitioners(cfg, r, s, true)
    }

    /// Builds a plain BiStream cluster: hash partitioning, no monitors.
    ///
    /// # Panics
    /// Panics if the configuration is invalid.
    #[must_use]
    pub fn bistream(cfg: FastJoinConfig) -> Self {
        cfg.validate().expect("invalid configuration"); // lint:allow(constructor validates user-supplied config up front)
        let n = cfg.instances_per_group;
        let r = Box::new(HashPartitioner::new(n, Side::R.index() as u64));
        let s = Box::new(HashPartitioner::new(n, Side::S.index() as u64));
        Self::with_partitioners(cfg, r, s, false)
    }

    /// Builds a cluster from explicit partitioners. `dynamic` enables the
    /// monitoring component (dynamic load balancing); strategies that do
    /// not support migration must pass `false`.
    ///
    /// # Panics
    /// Panics if the configuration is invalid or the partitioners' group
    /// sizes disagree with it.
    #[must_use]
    pub fn with_partitioners(
        cfg: FastJoinConfig,
        r_group: Box<dyn Partitioner + Send>,
        s_group: Box<dyn Partitioner + Send>,
        dynamic: bool,
    ) -> Self {
        cfg.validate().expect("invalid configuration"); // lint:allow(constructor validates user-supplied config up front)
        let n = cfg.instances_per_group;
        assert_eq!(r_group.instances(), n, "R-group partitioner size mismatch"); // lint:allow(constructor invariant, not data plane)
        assert_eq!(s_group.instances(), n, "S-group partitioner size mismatch"); // lint:allow(constructor invariant, not data plane)

        let make_group = |side: Side, seed_offset: u64| Group {
            side,
            instances: (0..n).map(|i| new_instance(&cfg, i, side)).collect(),
            monitor: dynamic.then(|| Monitor::new(n, cfg.theta, cfg.migration_cooldown)),
            selector: make_selector(&FastJoinConfig {
                seed: cfg.seed.wrapping_add(seed_offset),
                ..cfg.clone()
            }),
        };
        JoinCluster {
            dispatcher: Dispatcher::new(r_group, s_group),
            groups: [make_group(Side::R, 0), make_group(Side::S, 1)],
            now: 0,
            results: Vec::new(),
            ctrl: VecDeque::new(),
            out: VecDeque::new(),
            probes: ProbeAccountant::new(),
            cfg,
        }
    }

    /// The configuration the cluster was built with.
    #[must_use]
    pub fn config(&self) -> &FastJoinConfig {
        &self.cfg
    }

    /// Current event-time clock (max ingested timestamp).
    #[must_use]
    pub fn now(&self) -> Timestamp {
        self.now
    }

    /// Read access to one instance.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn instance(&self, group: Side, i: usize) -> &JoinInstance {
        self.groups[group.index()].instances[i].instance()
    }

    /// Read access to a group's monitor, if dynamic balancing is enabled.
    #[must_use]
    pub fn monitor(&self, group: Side) -> Option<&Monitor> {
        self.groups[group.index()].monitor.as_ref()
    }

    /// The dispatcher (read access to the routing state).
    #[must_use]
    pub fn dispatcher(&self) -> &Dispatcher {
        &self.dispatcher
    }

    /// Adds one instance to each group (elastic scale-out, §IV-C). The
    /// new instances start empty and are immediately the lightest, so the
    /// normal migration mechanism fills them; existing key placements are
    /// untouched. Only supported for migratable partitioners with dynamic
    /// balancing enabled.
    ///
    /// # Panics
    /// Panics if the partitioners cannot grow online or the cluster has no
    /// monitors (a static cluster could never route load to the newcomer).
    pub fn scale_out(&mut self) {
        let n = self.cfg.instances_per_group;
        for g in 0..2 {
            let side = self.groups[g].side;
            // lint:allow(scale-out is an explicit operator action, not data plane)
            assert!(self.dispatcher.grow(side, 1), "partitioner cannot grow online");
            let group = &mut self.groups[g];
            group.instances.push(new_instance(&self.cfg, n, side));
            group
                .monitor
                .as_mut()
                .expect("scale-out requires dynamic balancing") // lint:allow(scale-out requires dynamic mode; checked at entry)
                .grow(1);
        }
        self.cfg.instances_per_group = n + 1;
    }

    /// Ingests one tuple: routes it to its storing instance and probe
    /// fan-out. Call [`JoinCluster::pump`] (or keep ingesting; see
    /// [`JoinCluster::run_to_completion`]) to process queued work.
    pub fn ingest(&mut self, t: Tuple) {
        self.now = self.now.max(t.ts);
        let mut d = Dispatch::default();
        self.dispatcher.dispatch_into(t, &mut d);
        let own = d.tuple.side.index();
        let opp = d.tuple.side.opposite().index();
        self.deliver(own, d.store_dest, InstanceMsg::Data(d.tuple));
        let probe_dests = std::mem::take(&mut d.probe_dests);
        for dest in probe_dests {
            self.deliver(opp, dest, InstanceMsg::Data(d.tuple));
        }
    }

    /// Delivers a message to an instance and immediately resolves any
    /// control-plane effects it produces (messages are never left queued).
    fn deliver(&mut self, group: usize, dest: usize, msg: InstanceMsg) {
        self.ctrl.push_back((group, dest, msg));
        self.drain_ctrl();
    }

    /// Delivers the queued control messages one by one, routing each
    /// instance's outputs as they come: peer sends and route confirmations
    /// join the queue, completions go to the monitor.
    fn drain_ctrl(&mut self) {
        while let Some((g, dest, msg)) = self.ctrl.pop_front() {
            let group = &mut self.groups[g];
            let (inst, selector) = (&mut group.instances[dest], group.selector.as_mut());
            inst.receive(msg, selector, self.now, None, &mut self.out)
                // lint:allow(single-threaded cluster delivers in order; a violation is a bug)
                .unwrap_or_else(|e| panic!("protocol violation: {e}"));
            while let Some(o) = self.out.pop_front() {
                match o {
                    InstOut::Peer { to, msg } => self.ctrl.push_back((g, to, msg)),
                    InstOut::Route(req) => {
                        let supported = self.dispatcher.apply_route(group.side, &req);
                        assert!(supported, "dynamic cluster requires a migratable partitioner"); // lint:allow(dynamic clusters are built with migratable partitioners)
                        let confirm = InstanceMsg::RouteUpdated { epoch: req.epoch };
                        self.ctrl.push_back((g, req.source, confirm));
                    }
                    InstOut::Done(done) => group
                        .monitor
                        .as_mut()
                        .expect("migration completed in a static group") // lint:allow(migrations only start when a monitor exists)
                        .on_migration_done(done, self.now),
                    InstOut::Load(_) | InstOut::Reports(_) | InstOut::Event(_) => {}
                }
            }
        }
    }

    /// Processes all queued work on every instance until the cluster is
    /// idle. Returns the number of tuples processed. Panics if a probe
    /// part contradicts its fan-out or is left unserved: a round closes
    /// inside one delivery, so an idle cluster served every part.
    pub fn pump(&mut self) -> u64 {
        let mut processed = 0;
        loop {
            let mut progressed = false;
            for group in &mut self.groups {
                for inst in &mut group.instances {
                    let results = &mut self.results;
                    while let Some(work) = inst.serve(self.now, None, &mut |p| results.push(p)) {
                        processed += 1;
                        progressed = true;
                        let Some(r) = work.report() else { continue };
                        self.probes
                            .on_probe(r.seq, r.fanout, 0)
                            // lint:allow(a mis-counted probe is a bug in the instance step)
                            .unwrap_or_else(|e| panic!("probe accounting violated: {e}"));
                    }
                }
            }
            if !progressed {
                break;
            }
        }
        let open = self.probes.outstanding();
        assert_eq!(open, 0, "{open} probe(s) left with parts unserved"); // lint:allow(an idle cluster has served every part)
        processed
    }

    /// One monitoring round at the current event time: every instance
    /// reports its load, expired tuples are collected, and each group's
    /// monitor may trigger a migration (resolved synchronously).
    pub fn tick(&mut self) -> TickReport {
        let now = self.now;
        let mut report = TickReport { li_r: 1.0, li_s: 1.0, migrations_triggered: 0 };
        for g in 0..2 {
            let group = &mut self.groups[g];
            for (i, inst) in group.instances.iter_mut().enumerate() {
                let load = inst.report();
                if let Some(monitor) = group.monitor.as_mut() {
                    monitor.on_report(i, load);
                }
            }
            let Some(monitor) = group.monitor.as_mut() else { continue };
            let li = monitor.imbalance();
            match group.side {
                Side::R => report.li_r = li,
                Side::S => report.li_s = li,
            }
            if let Some(trigger) = monitor.maybe_trigger(now) {
                report.migrations_triggered += 1;
                self.deliver(g, trigger.source, trigger.msg);
            }
        }
        report
    }

    /// Drains accumulated join results.
    pub fn drain_results(&mut self) -> Vec<JoinedPair> {
        std::mem::take(&mut self.results)
    }

    /// Number of undrained results.
    #[must_use]
    pub fn result_count(&self) -> usize {
        self.results.len()
    }

    /// Convenience driver: ingests every tuple, ticking the monitor every
    /// `cfg.monitor_period` of event time and pumping after each tick, then
    /// pumps to idle. Returns all join results.
    pub fn run_to_completion(
        &mut self,
        tuples: impl IntoIterator<Item = Tuple>,
    ) -> Vec<JoinedPair> {
        let mut next_tick = self.now + self.cfg.monitor_period;
        for t in tuples {
            self.ingest(t);
            if self.now >= next_tick {
                self.pump();
                self.tick();
                next_tick = self.now + self.cfg.monitor_period;
            }
        }
        self.pump();
        self.tick();
        self.pump();
        self.drain_results()
    }
}

/// Instance `i` of the group storing `side`, as `cfg` configures it.
fn new_instance(cfg: &FastJoinConfig, i: usize, side: Side) -> InstanceCore {
    InstanceCore::new(JoinInstance::new(i, side, cfg.window))
}

impl std::fmt::Debug for JoinCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JoinCluster")
            .field("instances_per_group", &self.cfg.instances_per_group)
            .field("now", &self.now)
            .field("pending_results", &self.results.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WindowConfig;

    fn small_cfg(n: usize) -> FastJoinConfig {
        FastJoinConfig {
            instances_per_group: n,
            theta: 1.5,
            monitor_period: 100,
            migration_cooldown: 0,
            ..FastJoinConfig::default()
        }
    }

    /// Cross product count: joining k keys with `r` R-tuples and `s`
    /// S-tuples each must yield k·r·s pairs.
    #[test]
    fn full_history_join_is_complete() {
        let mut cluster = JoinCluster::fastjoin(small_cfg(4));
        let mut tuples = Vec::new();
        for key in 0..10 {
            for i in 0..3 {
                tuples.push(Tuple::r(key, key * 10 + i, 0));
                tuples.push(Tuple::s(key, key * 10 + i, 0));
            }
        }
        let results = cluster.run_to_completion(tuples);
        assert_eq!(results.len(), 10 * 3 * 3);
    }

    #[test]
    fn results_are_exactly_once() {
        let mut cluster = JoinCluster::fastjoin(small_cfg(4));
        let mut tuples = Vec::new();
        for i in 0..50 {
            tuples.push(Tuple::r(i % 5, i, 0));
            tuples.push(Tuple::s(i % 5, i, 0));
        }
        let results = cluster.run_to_completion(tuples);
        let mut ids: Vec<_> = results.iter().map(JoinedPair::identity).collect();
        let before = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), before, "duplicate join results detected");
        // 10 R × 10 S per key over 5 keys.
        assert_eq!(before, 5 * 10 * 10);
    }

    #[test]
    fn bistream_cluster_has_no_monitor() {
        let cluster = JoinCluster::bistream(small_cfg(4));
        assert!(cluster.monitor(Side::R).is_none());
        assert!(cluster.monitor(Side::S).is_none());
    }

    #[test]
    fn skewed_load_triggers_migration() {
        let mut cluster = JoinCluster::fastjoin(small_cfg(4));
        // All load on one key → one hot instance per group. Feed stores,
        // then pile up probes WITHOUT pumping so the monitor sees queues.
        for i in 0..200 {
            cluster.ingest(Tuple::r(7, i, 0));
        }
        cluster.pump();
        for i in 200..400 {
            cluster.ingest(Tuple::s(7, i, 0));
            // A second, cold key pins the light instance's load near zero.
            if i % 50 == 0 {
                cluster.ingest(Tuple::r(1000 + i, i, 0));
            }
        }
        let report = cluster.tick();
        assert!(report.li_r > 1.5, "R group must look imbalanced, LI = {}", report.li_r);
        assert!(report.migrations_triggered > 0, "migration must trigger");
        cluster.pump();
        let stats = cluster.monitor(Side::R).unwrap().stats();
        assert_eq!(stats.triggered, 1);
        // Completeness must survive the migration.
        let results = cluster.drain_results();
        assert_eq!(results.len(), 200 * 200, "every S probe joins all 200 stored R tuples");
    }

    #[test]
    fn migration_preserves_completeness_with_interleaved_traffic() {
        let mut cluster = JoinCluster::fastjoin(FastJoinConfig {
            instances_per_group: 4,
            theta: 1.2,
            monitor_period: 10,
            migration_cooldown: 0,
            ..FastJoinConfig::default()
        });
        let keys = [1u64, 2, 3, 7, 7, 7, 7]; // skew toward key 7
        let mut expected_pairs = 0u64;
        let mut r_counts = std::collections::HashMap::new();
        let mut s_counts = std::collections::HashMap::new();
        let mut ts = 0;
        for round in 0..200u64 {
            for &k in &keys {
                ts += 1;
                if (round + k) % 2 == 0 {
                    cluster.ingest(Tuple::r(k, ts, 0));
                    *r_counts.entry(k).or_insert(0u64) += 1;
                } else {
                    cluster.ingest(Tuple::s(k, ts, 0));
                    *s_counts.entry(k).or_insert(0u64) += 1;
                }
            }
            if round % 5 == 0 {
                cluster.tick(); // may trigger migrations mid-stream
            }
            if round % 3 == 0 {
                cluster.pump();
            }
        }
        cluster.pump();
        for (k, r) in &r_counts {
            expected_pairs += r * s_counts.get(k).copied().unwrap_or(0);
        }
        let results = cluster.drain_results();
        assert_eq!(results.len() as u64, expected_pairs);
        let mut ids: Vec<_> = results.iter().map(JoinedPair::identity).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len() as u64, expected_pairs, "no duplicates");
    }

    #[test]
    fn windowed_cluster_joins_only_in_window() {
        let cfg = FastJoinConfig {
            instances_per_group: 2,
            window: Some(WindowConfig { sub_windows: 4, sub_window_len: 25 }), // span 100
            ..small_cfg(2)
        };
        let mut cluster = JoinCluster::fastjoin(cfg);
        cluster.ingest(Tuple::r(1, 0, 0)); // will be out of window
        cluster.ingest(Tuple::r(1, 150, 0)); // in window
        cluster.pump();
        cluster.ingest(Tuple::s(1, 200, 0)); // window lower bound 100
        cluster.pump();
        let results = cluster.drain_results();
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].left.ts, 150);
    }

    #[test]
    fn run_to_completion_handles_empty_stream() {
        let mut cluster = JoinCluster::fastjoin(small_cfg(2));
        let results = cluster.run_to_completion(Vec::new());
        assert!(results.is_empty());
        assert_eq!(cluster.result_count(), 0);
    }
}
