//! The discrete-event simulation driver.
//!
//! [`Simulation`] wires the FastJoin core components (dispatcher, join
//! instances, monitors) to the event queue of [`crate::event`] with the
//! service/network costs of [`crate::cost`]. Each join instance is the
//! instance step of `fastjoin_core::stage` as a single-server queue: a
//! delivery is [`InstanceCore::receive`]d and its outputs travel as events
//! (a peer send after link latency plus the migration payload's cost, a
//! route request to the dispatcher, a completion straight to the monitor);
//! [`InstanceCore::serve`] serves one queued tuple at a time, for the
//! service time the cost model gives. Every served probe part is booked in
//! a [`ProbeAccountant`], which yields the probe's one latency sample when
//! its last part completes; a group without a monitor reads its LI off a
//! [`LoadTable`] of the period's reports.
//!
//! Two Storm-realistic behaviours matter for reproducing the paper's
//! curves:
//!
//! * **Ingest timestamping** — the paper's shuffler "assigns timestamps
//!   to tuples" at ingest (§V). The driver therefore rewrites each tuple's
//!   `ts` to the simulated ingest time; the workload's own timestamps only
//!   define the *offered* arrival schedule. Windows and latency are thus
//!   measured in one coherent clock.
//! * **Backpressure** — like Storm's `max.spout.pending`, ingest stalls
//!   while any instance's pending queue exceeds `queue_cap`. Offered load
//!   above system capacity then yields throughput = capacity (what the
//!   paper's "maximize the input rate" methodology measures) instead of
//!   unbounded queues.
//!
//! The simulation is fully deterministic for a given workload and seed.

use std::collections::VecDeque;

use fastjoin_baselines::{build_partitioners, SystemKind};
use fastjoin_core::accounting::ProbeAccountant;
use fastjoin_core::config::FastJoinConfig;
use fastjoin_core::dispatcher::{Dispatch, Dispatcher};
use fastjoin_core::instance::JoinInstance;
use fastjoin_core::load::LoadTable;
use fastjoin_core::metrics::{LogHistogram, TimeSeries};
use fastjoin_core::monitor::{Monitor, MonitorStats};
use fastjoin_core::protocol::{InstanceMsg, ProbeReport};
use fastjoin_core::selection::{make_selector, KeySelector};
use fastjoin_core::stage::{InstOut, InstanceCore};
use fastjoin_core::tuple::{Side, Tuple};

use crate::cost::CostModel;
use crate::event::{ChannelClock, Endpoint, Event, EventQueue, SimTime};

/// Metric bucket width, µs (the paper reports per second).
const REPORT_PERIOD: u64 = 1_000_000;

/// How long a stalled ingest waits before retrying, µs.
const BACKPRESSURE_RETRY: SimTime = 1_000;

/// Simulation parameters.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Which system to simulate.
    pub system: SystemKind,
    /// FastJoin/cluster configuration (instances, Θ, selector, window, …).
    pub fastjoin: FastJoinConfig,
    /// Service and network cost model.
    pub cost: CostModel,
    /// Hard stop of simulated time, µs.
    pub max_time: SimTime,
    /// Backpressure threshold: ingest stalls while any instance's pending
    /// queue exceeds this many tuples.
    pub queue_cap: usize,
    /// Record per-instance load time series of the R group (Fig. 1c).
    pub record_instance_loads: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            system: SystemKind::FastJoin,
            fastjoin: FastJoinConfig::default(),
            cost: CostModel::default(),
            max_time: 60_000_000,
            queue_cap: 2048,
            record_instance_loads: false,
        }
    }
}

/// Aggregate run report for one experiment: throughput series, latency
/// histogram and series, and the imbalance (`LI`) series.
#[derive(Debug, Clone)]
pub struct RunMetrics {
    /// Joined results per period (sum per bucket = throughput).
    pub throughput: TimeSeries,
    /// Per-result processing latency observations.
    pub latency: TimeSeries,
    /// Latency histogram across the whole run.
    pub latency_hist: LogHistogram,
    /// Degree of load imbalance sampled by the monitor.
    pub imbalance: TimeSeries,
}

impl RunMetrics {
    /// Creates an empty report with the given series period.
    #[must_use]
    pub fn new(period: u64) -> Self {
        RunMetrics {
            throughput: TimeSeries::new(period),
            latency: TimeSeries::new(period),
            latency_hist: LogHistogram::new(),
            imbalance: TimeSeries::new(period),
        }
    }
}

/// Everything measured during a run.
#[derive(Debug)]
pub struct SimReport {
    /// Throughput/latency/imbalance series.
    pub metrics: RunMetrics,
    /// Total join result pairs emitted.
    pub results_total: u64,
    /// Total workload tuples ingested.
    pub tuples_ingested: u64,
    /// Simulated time at termination, µs.
    pub duration: SimTime,
    /// Monitor statistics per group (`None` for static systems).
    pub monitor_stats: [Option<MonitorStats>; 2],
    /// Per-instance load series of the R group (only when
    /// `record_instance_loads`).
    pub instance_loads: Vec<TimeSeries>,
    /// Tuples ingested per report period.
    pub ingest_series: TimeSeries,
    /// Total stored tuples (R group) sampled at monitor ticks.
    pub stored_series: TimeSeries,
    /// Per-instance total busy time, µs: `[R group, S group]`.
    pub busy_us: [Vec<u64>; 2],
}

impl SimReport {
    /// Average throughput (results/period) over `[from, to)` report
    /// periods.
    #[must_use]
    pub fn avg_throughput(&self, from: usize, to: usize) -> f64 {
        self.metrics.throughput.mean_sum_over(from, to)
    }

    /// Average per-probe latency, µs, over `[from, to)` report periods.
    #[must_use]
    pub fn avg_latency_us(&self, from: usize, to: usize) -> f64 {
        self.metrics.latency.mean_value_over(from, to)
    }

    /// Average sampled imbalance over `[from, to)` report periods.
    #[must_use]
    pub fn avg_imbalance(&self, from: usize, to: usize) -> f64 {
        self.metrics.imbalance.mean_value_over(from, to)
    }

    /// Number of report periods covered.
    #[must_use]
    pub fn periods(&self) -> usize {
        self.metrics.throughput.len()
    }

    /// Total migrations triggered (both groups).
    #[must_use]
    pub fn migrations(&self) -> u64 {
        self.monitor_stats.iter().flatten().map(|s| s.triggered).sum()
    }
}

struct Server {
    core: InstanceCore,
    busy: bool,
    /// Total service time accumulated, µs (utilization diagnostics).
    busy_us: u64,
    pause_until: SimTime,
    /// The report of the in-service tuple if it is a probe, booked (and
    /// its matches emitted) at completion.
    in_service: Option<ProbeReport>,
}

struct SimGroup {
    servers: Vec<Server>,
    monitor: Option<Monitor>,
    selector: Box<dyn KeySelector + Send>,
}

/// The simulation state machine.
pub struct Simulation<W: Iterator<Item = Tuple>> {
    cfg: SimConfig,
    workload: W,
    next_tuple: Option<Tuple>,
    dispatcher: Dispatcher,
    groups: [SimGroup; 2],
    queue: EventQueue,
    channels: ChannelClock,
    now: SimTime,
    /// Scratch output buffer of the instance steps.
    out: VecDeque<InstOut>,
    scratch: Dispatch,
    metrics: RunMetrics,
    results_total: u64,
    tuples_ingested: u64,
    /// Every completed probe part. A probe's join is complete — and its
    /// latency measured — only when every instance it was fanned out to
    /// has served it (the straggler penalty of broadcast-style strategies).
    probes: ProbeAccountant,
    instance_loads: Vec<TimeSeries>,
    ingest_series: TimeSeries,
    stored_series: TimeSeries,
}

impl<W: Iterator<Item = Tuple>> Simulation<W> {
    /// Creates a simulation over a timestamp-ordered workload.
    ///
    /// # Panics
    /// Panics if the configuration is invalid.
    #[must_use]
    pub fn new(cfg: SimConfig, mut workload: W) -> Self {
        cfg.fastjoin.validate().expect("invalid configuration");
        let n = cfg.fastjoin.instances_per_group;
        let (r_part, s_part, dynamic) = build_partitioners(cfg.system, &cfg.fastjoin);
        let make_group = |side: Side, seed_offset: u64| SimGroup {
            servers: (0..n)
                .map(|i| {
                    let mut inst = JoinInstance::new(i, side, cfg.fastjoin.window);
                    // The simulator measures counts and timing only.
                    inst.set_emit_pairs(false);
                    Server {
                        core: InstanceCore::new(inst),
                        busy: false,
                        busy_us: 0,
                        pause_until: 0,
                        in_service: None,
                    }
                })
                .collect(),
            monitor: dynamic
                .then(|| Monitor::new(n, cfg.fastjoin.theta, cfg.fastjoin.migration_cooldown)),
            selector: make_selector(&FastJoinConfig {
                seed: cfg.fastjoin.seed.wrapping_add(seed_offset),
                ..cfg.fastjoin.clone()
            }),
        };
        let groups = [make_group(Side::R, 0), make_group(Side::S, 1)];
        let mut queue = EventQueue::new();
        let next_tuple = workload.next();
        if let Some(t) = &next_tuple {
            queue.push(t.ts, Event::Arrival);
        }
        queue.push(cfg.fastjoin.monitor_period, Event::MonitorTick);
        let instance_loads = if cfg.record_instance_loads {
            (0..n).map(|_| TimeSeries::new(REPORT_PERIOD)).collect()
        } else {
            Vec::new()
        };
        Simulation {
            metrics: RunMetrics::new(REPORT_PERIOD),
            dispatcher: Dispatcher::new(r_part, s_part),
            groups,
            queue,
            channels: ChannelClock::new(),
            now: 0,
            out: VecDeque::new(),
            scratch: Dispatch::default(),
            results_total: 0,
            tuples_ingested: 0,
            probes: ProbeAccountant::new(),
            instance_loads,
            ingest_series: TimeSeries::new(REPORT_PERIOD),
            stored_series: TimeSeries::new(REPORT_PERIOD),
            next_tuple,
            workload,
            cfg,
        }
    }

    /// Runs to completion (workload exhausted and system drained, or
    /// `max_time` reached) and returns the report. Panics if a probe part
    /// contradicts its fan-out, or a drained run left one unserved.
    #[must_use]
    pub fn run(mut self) -> SimReport {
        while let Some((time, event)) = self.queue.pop() {
            if time > self.cfg.max_time {
                self.now = self.cfg.max_time;
                return self.finish();
            }
            self.now = time;
            match event {
                Event::Arrival => self.on_arrival(),
                Event::Delivery { group, dest, msg } => self.on_delivery(group, dest, msg),
                Event::RouteAtDispatcher { group, req } => {
                    let side = if group == 0 { Side::R } else { Side::S };
                    let supported = self.dispatcher.apply_route(side, &req);
                    assert!(supported, "migration on a non-migratable partitioner");
                    let confirm = InstanceMsg::RouteUpdated { epoch: req.epoch };
                    self.send_to(Endpoint::Dispatcher, group, req.source, confirm, 0);
                }
                Event::ServiceDone { group, dest } => self.on_service_done(group, dest),
                Event::Wake { group, dest } => self.try_start(group, dest),
                Event::MonitorTick => self.on_monitor_tick(),
            }
        }
        let open = self.probes.outstanding();
        assert_eq!(open, 0, "a drained run left {open} probe(s) with parts unserved");
        self.finish()
    }

    fn finish(self) -> SimReport {
        SimReport {
            metrics: self.metrics,
            results_total: self.results_total,
            tuples_ingested: self.tuples_ingested,
            duration: self.now,
            monitor_stats: [
                self.groups[0].monitor.as_ref().map(Monitor::stats),
                self.groups[1].monitor.as_ref().map(Monitor::stats),
            ],
            instance_loads: self.instance_loads,
            ingest_series: self.ingest_series,
            stored_series: self.stored_series,
            busy_us: [
                self.groups[0].servers.iter().map(|s| s.busy_us).collect(),
                self.groups[1].servers.iter().map(|s| s.busy_us).collect(),
            ],
        }
    }

    fn on_arrival(&mut self) {
        if self.next_tuple.is_none() {
            return;
        }
        // Storm-style backpressure: stall the spout while any instance is
        // over its queue cap.
        if self.is_congested() {
            self.queue.push(self.now + BACKPRESSURE_RETRY, Event::Arrival);
            return;
        }
        let mut tuple = self.next_tuple.take().expect("checked above");
        let offered_ts = tuple.ts;
        // The shuffler assigns the tuple's timestamp at ingest (§V).
        tuple.ts = self.now;
        self.tuples_ingested += 1;
        self.ingest_series.record(self.now, 1.0);
        self.dispatcher.dispatch_into(tuple, &mut self.scratch);
        let t = self.scratch.tuple;
        let (own, opp) = (t.side.index(), t.side.opposite().index());
        let store_dest = self.scratch.store_dest;
        self.send_to(Endpoint::Dispatcher, own, store_dest, InstanceMsg::Data(t), 0);
        let probe_dests = std::mem::take(&mut self.scratch.probe_dests);
        for &dest in &probe_dests {
            self.send_to(Endpoint::Dispatcher, opp, dest, InstanceMsg::Data(t), 0);
        }
        self.scratch.probe_dests = probe_dests;

        // Schedule the next workload arrival. The offered schedule is a
        // *rate*, not absolute times: a spout that was throttled resumes
        // pulling at the offered pace, it does not replay the backlog in a
        // burst. Pace the next arrival by the offered inter-arrival gap
        // relative to the actual ingest time.
        self.next_tuple = self.workload.next();
        if let Some(next) = &self.next_tuple {
            let gap = next.ts.saturating_sub(offered_ts);
            self.queue.push(self.now + gap, Event::Arrival);
        }
    }

    /// Sends `msg` from `from` to instance `dest` of `group`: it arrives
    /// after the link latency plus `extra`, behind what `from` sent there
    /// before.
    fn send_to(
        &mut self,
        from: Endpoint,
        group: usize,
        dest: usize,
        msg: InstanceMsg,
        extra: SimTime,
    ) {
        let at = self.now + self.cfg.cost.network_latency as SimTime + extra;
        let delivery = self.channels.send(from, Endpoint::Instance(group, dest), at);
        self.queue.push(delivery, Event::Delivery { group, dest, msg });
    }

    fn on_delivery(&mut self, group: usize, dest: usize, msg: InstanceMsg) {
        // Key-selection work pauses the source (§III-C: "an instance must
        // stop executing the store and join operations").
        let g = &mut self.groups[group];
        let server = &mut g.servers[dest];
        let selection_pause = if matches!(msg, InstanceMsg::MigrateCmd { .. }) {
            let keys = server.core.instance().key_stats().len();
            self.cfg.cost.selection_us(keys) as SimTime
        } else {
            0
        };
        // The simulator delivers in event-time order per channel, so a
        // protocol violation means the protocol itself is broken.
        #[allow(clippy::panic)]
        server
            .core
            .receive(msg, g.selector.as_mut(), self.now, None, &mut self.out)
            .unwrap_or_else(|e| panic!("protocol violation: {e}"));
        server.pause_until = server.pause_until.max(self.now + selection_pause);
        let latency = self.cfg.cost.network_latency as SimTime;
        let from = Endpoint::Instance(group, dest);
        while let Some(o) = self.out.pop_front() {
            match o {
                InstOut::Peer { to, msg } => {
                    // Migration payloads take longer to transfer.
                    let extra = match &msg {
                        InstanceMsg::MigStore { tuples, .. }
                        | InstanceMsg::MigForward { tuples, .. } => {
                            self.cfg.cost.migration_us(tuples.len() as u64) as SimTime
                        }
                        _ => 0,
                    };
                    self.send_to(from, group, to, msg, extra);
                }
                InstOut::Route(req) => {
                    let delivery =
                        self.channels.send(from, Endpoint::Dispatcher, self.now + latency);
                    self.queue.push(delivery, Event::RouteAtDispatcher { group, req });
                }
                // Completion notifications matter only for round
                // bookkeeping; deliver them to the monitor immediately (a
                // latency here only lengthens the cooldown).
                InstOut::Done(done) => self.groups[group]
                    .monitor
                    .as_mut()
                    .expect("migration completed in a static group")
                    .on_migration_done(done, self.now),
                InstOut::Load(_) | InstOut::Reports(_) | InstOut::Event(_) => {}
            }
        }
        self.try_start(group, dest);
    }

    /// Starts service on the next pending tuple if the instance is free.
    fn try_start(&mut self, group: usize, dest: usize) {
        let server = &mut self.groups[group].servers[dest];
        if server.busy || server.core.instance().pending_len() == 0 {
            return;
        }
        if self.now < server.pause_until {
            self.queue.push(server.pause_until, Event::Wake { group, dest });
            return;
        }
        // Sim instances do not materialize pairs.
        let work = server.core.serve(self.now, None, &mut |_| {});
        let work = work.expect("pending_len > 0 implies work");
        let cost = self.cfg.cost.service_us(&work).max(0.01) as SimTime;
        server.in_service = work.report();
        server.busy = true;
        server.busy_us += cost.max(1);
        self.queue.push(self.now + cost.max(1), Event::ServiceDone { group, dest });
    }

    fn on_service_done(&mut self, group: usize, dest: usize) {
        let server = &mut self.groups[group].servers[dest];
        server.busy = false;
        if let Some(ProbeReport { seq, fanout, matches, ts }) = server.in_service.take() {
            if matches > 0 {
                self.metrics.throughput.record(self.now, matches as f64);
                self.results_total += matches;
            }
            // The probe's join completes when its last fan-out part does.
            #[allow(clippy::panic)]
            let closed = self
                .probes
                .on_probe(seq, fanout, self.now.saturating_sub(ts))
                .unwrap_or_else(|e| panic!("probe accounting violated: {e}"));
            if let Some(lat) = closed {
                self.metrics.latency.record(self.now, lat as f64);
                self.metrics.latency_hist.record(lat);
            }
        }
        self.try_start(group, dest);
    }

    fn on_monitor_tick(&mut self) {
        // Sample per-instance loads BEFORE report collection freezes and
        // resets the period counters.
        if self.cfg.record_instance_loads {
            for (i, series) in self.instance_loads.iter_mut().enumerate() {
                series.record(self.now, self.groups[0].servers[i].core.instance().load().load());
            }
        }
        let mut triggers = Vec::new();
        for (gi, g) in self.groups.iter_mut().enumerate() {
            // Static systems still report an imbalance series (Fig. 11
            // plots BiStream's LI): their reports fill a table of their own.
            let mut table = LoadTable::new(g.servers.len());
            for (i, server) in g.servers.iter_mut().enumerate() {
                let load = server.core.report();
                match g.monitor.as_mut() {
                    Some(monitor) => monitor.on_report(i, load),
                    None => table.update(i, load),
                }
            }
            let li = g.monitor.as_ref().map_or_else(|| table.imbalance(), Monitor::imbalance);
            // The LI series plots the R group only, for a like-for-like
            // comparison across systems (Fig. 11 shows one line each).
            if gi == 0 {
                self.metrics.imbalance.record(self.now, li);
            }
            if let Some(trigger) = g.monitor.as_mut().and_then(|m| m.maybe_trigger(self.now)) {
                triggers.push((gi, trigger));
            }
        }
        let stored_r: u64 =
            self.groups[0].servers.iter().map(|s| s.core.instance().store().len()).sum();
        self.stored_series.record(self.now, stored_r as f64);
        for (gi, trigger) in triggers {
            self.send_to(Endpoint::Monitor(gi), gi, trigger.source, trigger.msg, 0);
        }
        // Keep ticking while there is anything left to do.
        if self.next_tuple.is_some() || !self.queue.is_empty() {
            self.queue.push(self.now + self.cfg.fastjoin.monitor_period, Event::MonitorTick);
        }
    }

    fn is_congested(&self) -> bool {
        let cap = self.cfg.queue_cap;
        self.groups.iter().any(|g| g.servers.iter().any(|s| s.core.instance().pending_len() > cap))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_cfg(n: usize) -> SimConfig {
        SimConfig {
            fastjoin: FastJoinConfig {
                instances_per_group: n,
                monitor_period: 100_000,
                migration_cooldown: 200_000,
                theta: 2.0,
                ..FastJoinConfig::default()
            },
            max_time: 30_000_000,
            // Correctness tests use a cheap cost model so full-history
            // joins drain well within max_time.
            cost: CostModel {
                store_cost: 0.2,
                probe_base: 0.5,
                per_comparison: 0.01,
                per_match: 0.01,
                ..CostModel::default()
            },
            ..SimConfig::default()
        }
    }

    fn uniform_workload(tuples: u64, keys: u64, rate_per_sec: u64) -> Vec<Tuple> {
        let gap = 1_000_000 / rate_per_sec;
        (0..tuples)
            .flat_map(|i| {
                let ts = i * gap;
                [Tuple::r(i % keys, ts, 0), Tuple::s(i % keys, ts, 0)]
            })
            .collect()
    }

    #[test]
    fn simulation_is_complete_and_exactly_once() {
        let cfg = base_cfg(4);
        let workload = uniform_workload(500, 10, 5000);
        let report = Simulation::new(cfg, workload.into_iter()).run();
        // 10 keys × 50 × 50 pairs.
        assert_eq!(report.results_total, 10 * 50 * 50);
        assert_eq!(report.tuples_ingested, 1000);
    }

    #[test]
    fn simulation_is_deterministic() {
        let run = || {
            let report =
                Simulation::new(base_cfg(4), uniform_workload(300, 7, 2000).into_iter()).run();
            (report.results_total, report.duration, report.metrics.throughput.sums().to_vec())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn latency_is_recorded_for_probes() {
        let report = Simulation::new(base_cfg(2), uniform_workload(200, 5, 2000).into_iter()).run();
        assert!(report.metrics.latency_hist.count() > 0);
        assert!(report.metrics.latency_hist.mean().unwrap() > 0.0);
    }

    /// One hot key carries half the traffic; the rest is uniform over 37
    /// keys. Returns the workload and its full-history join size.
    fn skewed_workload(tuples: u64) -> (Vec<Tuple>, u64) {
        let mut out = Vec::new();
        let mut ts = 0u64;
        let mut counts = std::collections::HashMap::new();
        for i in 0..tuples {
            ts += 100;
            let key = if i % 2 == 0 { 999 } else { i % 37 };
            out.push(Tuple::r(key, ts, 0));
            out.push(Tuple::s(key, ts, 0));
            *counts.entry(key).or_insert(0u64) += 1;
        }
        let expected = counts.values().map(|c| c * c).sum();
        (out, expected)
    }

    #[test]
    fn skewed_workload_triggers_migrations_under_fastjoin() {
        let mut cfg = base_cfg(4);
        cfg.fastjoin.theta = 1.5;
        let (tuples, expected) = skewed_workload(4000);
        let report = Simulation::new(cfg, tuples.into_iter()).run();
        assert!(report.migrations() > 0, "hot key must trigger migration");
        // Completeness across migrations.
        assert_eq!(report.results_total, expected);
    }

    #[test]
    fn bistream_never_migrates() {
        let mut cfg = base_cfg(4);
        cfg.system = SystemKind::BiStream;
        let report = Simulation::new(cfg, uniform_workload(500, 3, 2000).into_iter()).run();
        assert_eq!(report.migrations(), 0);
        assert!(report.monitor_stats[0].is_none());
        assert!(!report.metrics.imbalance.is_empty(), "a static group's LI must be recorded");
    }

    #[test]
    fn max_time_truncates_the_run() {
        let mut cfg = base_cfg(2);
        cfg.max_time = 1_000_000; // 1 s
        let workload = uniform_workload(100_000, 11, 1000); // 100 s of data
        let report = Simulation::new(cfg, workload.into_iter()).run();
        assert!(report.duration <= 1_000_000);
        assert!(report.tuples_ingested < 200_000);
    }

    #[test]
    fn instance_load_series_recorded_when_enabled() {
        let mut cfg = base_cfg(3);
        cfg.record_instance_loads = true;
        let report = Simulation::new(cfg, uniform_workload(500, 9, 1000).into_iter()).run();
        assert_eq!(report.instance_loads.len(), 3);
        assert!(report.instance_loads.iter().any(|s| !s.is_empty()));
    }

    #[test]
    fn empty_workload_terminates_immediately() {
        let report = Simulation::new(base_cfg(2), std::iter::empty()).run();
        assert_eq!(report.results_total, 0);
        assert_eq!(report.tuples_ingested, 0);
    }
}
