//! The discrete-event simulation driver.
//!
//! [`Simulation`] wires the FastJoin core components (dispatcher, join
//! instances, monitors) to the event queue of [`crate::event`] with the
//! service/network costs of [`crate::cost`]. Each join instance is a
//! single-server queue: it serves one tuple at a time, its service time is
//! given by the cost model, and its input queue is the instance's own
//! pending queue.
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

use fastjoin_baselines::{build_partitioners, SystemKind};
use fastjoin_core::config::FastJoinConfig;
use fastjoin_core::dispatcher::{Dispatch, Dispatcher};
use fastjoin_core::instance::{JoinInstance, Work};
use fastjoin_core::metrics::{LogHistogram, MetricsRegistry, TimeSeries};
use fastjoin_core::monitor::{Monitor, MonitorStats};
use fastjoin_core::protocol::{Effects, InstanceMsg};
use fastjoin_core::selection::{make_selector, KeySelector};
use fastjoin_core::tuple::{Side, Tuple};

use crate::cost::CostModel;
use crate::event::{ChannelClock, Endpoint, Event, EventQueue, SimTime};

/// Simulation parameters.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Which system to simulate.
    pub system: SystemKind,
    /// FastJoin/cluster configuration (instances, Θ, selector, window, …).
    pub fastjoin: FastJoinConfig,
    /// Service and network cost model.
    pub cost: CostModel,
    /// Metric bucket width, µs (the paper reports per second).
    pub report_period: u64,
    /// Hard stop of simulated time, µs.
    pub max_time: SimTime,
    /// Backpressure threshold: ingest stalls while any instance's pending
    /// queue exceeds this many tuples.
    pub queue_cap: usize,
    /// How long a stalled ingest waits before retrying, µs.
    pub backpressure_retry: SimTime,
    /// Record per-instance load time series of the R group (Fig. 1c).
    pub record_instance_loads: bool,
    /// Migration-round deadline, simulated µs. A round in flight longer
    /// than this is aborted by the monitor watchdog and rolled back (its
    /// route never applied, moved tuples returned). 0 disables the
    /// watchdog.
    pub round_timeout: SimTime,
    /// Fault injection: silently discard the first N `MigrateCmd`
    /// triggers, leaving the monitor with a round in flight that no
    /// instance will ever complete — the stalled-round scenario the
    /// watchdog exists for.
    pub drop_migrate_cmds: u64,
    /// Modeled data-plane batch size: each tuple's delivery pays
    /// `cost.per_message / batch_size` of the fixed per-message channel
    /// overhead (see [`CostModel::message_overhead_us`]), mirroring the
    /// runtime's `RuntimeConfig::batch_size`. 1 = unbatched.
    pub batch_size: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            system: SystemKind::FastJoin,
            fastjoin: FastJoinConfig::default(),
            cost: CostModel::default(),
            report_period: 1_000_000,
            max_time: 60_000_000,
            queue_cap: 2048,
            backpressure_retry: 1_000,
            record_instance_loads: false,
            round_timeout: 0,
            drop_migrate_cmds: 0,
            batch_size: 1,
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
    /// Count of migrations performed.
    pub migrations: u64,
    /// Total tuples migrated.
    pub tuples_migrated: u64,
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
            migrations: 0,
            tuples_migrated: 0,
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
    /// Total pending tuples (both groups) sampled at monitor ticks.
    pub pending_series: TimeSeries,
    /// Per-instance stored-tuple counts at termination (R group).
    pub final_stored_r: Vec<u64>,
    /// Per-instance total busy time, µs: `[R group, S group]`.
    pub busy_us: [Vec<u64>; 2],
    /// Completed migration-round spans per group, oldest first (empty for
    /// static systems). Clock fields are simulated microseconds.
    pub migration_spans: [Vec<fastjoin_core::metrics::MigrationSpan>; 2],
    /// Per-stage latency attribution, mirroring the runtime's `stage.*`
    /// histograms: `stage.queue_wait_us` (delivery → service start),
    /// `stage.probe_us` / `stage.store_us` (modelled service time), and
    /// `stage.mig_pause_us` (key-selection pauses, §III-C). All values are
    /// simulated microseconds.
    pub stages: MetricsRegistry,
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

    /// The report as a JSON tree, sharing the runtime report's key names
    /// (`duration_us`, `latency_us`, `throughput`, `groups[*].monitor`,
    /// `groups[*].imbalance`, `groups[*].migration_spans`) so downstream
    /// tooling can read either engine's output. Clock fields are simulated
    /// microseconds; the LI series covers the R group only (Fig. 11), so
    /// it appears under `groups[0]`.
    #[must_use]
    pub fn to_json(&self) -> fastjoin_core::json::Json {
        use fastjoin_core::json::Json;
        use fastjoin_core::metrics::MigrationSpan;
        let group = |g: usize| -> Json {
            let stats = self.monitor_stats[g].as_ref().map(MonitorStats::to_json);
            let li = (g == 0).then(|| self.metrics.imbalance.to_json());
            Json::obj(vec![
                ("monitor", stats.into()),
                ("imbalance", li.into()),
                (
                    "migration_spans",
                    Json::arr(self.migration_spans[g].iter().map(MigrationSpan::to_json)),
                ),
            ])
        };
        Json::obj(vec![
            ("duration_us", Json::uint(self.duration)),
            ("tuples_ingested", Json::uint(self.tuples_ingested)),
            ("results_total", Json::uint(self.results_total)),
            ("latency_us", self.metrics.latency_hist.to_json()),
            ("throughput", self.metrics.throughput.to_json()),
            ("groups", Json::arr(vec![group(0), group(1)])),
            ("stages", self.stages.to_json()),
        ])
    }
}

struct Server {
    inst: JoinInstance,
    busy: bool,
    /// Total service time accumulated, µs (utilization diagnostics).
    busy_us: u64,
    pause_until: SimTime,
    /// Join results produced by the in-service tuple, emitted at
    /// completion.
    in_service_matches: u64,
    /// The in-service tuple if it was a probe.
    in_service_probe: Option<Tuple>,
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
    fx: Effects,
    scratch: Dispatch,
    metrics: RunMetrics,
    results_total: u64,
    tuples_ingested: u64,
    /// Parts still in service of the probes fanned out to several
    /// instances, by dispatch seq (opened by a probe's first completed
    /// part). A probe's join is complete — and its latency measured — only
    /// when every instance it was fanned out to has processed it (the
    /// straggler penalty of broadcast-style strategies).
    probe_parts_left: std::collections::HashMap<u64, u32>,
    instance_loads: Vec<TimeSeries>,
    ingest_series: TimeSeries,
    stored_series: TimeSeries,
    pending_series: TimeSeries,
    /// Epochs whose route flip reached the dispatcher, per group. An
    /// abort request for such an epoch is refused — the round is past its
    /// point of no return and must complete forward.
    routed_epochs: [std::collections::HashSet<u64>; 2],
    /// Epochs aborted before their route flip arrived, per group. A late
    /// `RouteAtDispatcher` for one of these is dropped and no
    /// `RouteUpdated` is sent — the source instance sees `MigAbort`
    /// instead.
    aborted_epochs: [std::collections::HashSet<u64>; 2],
    /// Remaining `MigrateCmd` triggers to drop (fault injection).
    drop_triggers: u64,
    /// Per-stage latency histograms (see [`SimReport::stages`]).
    stages: MetricsRegistry,
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
                    inst.set_migration_mode(cfg.fastjoin.migration_mode);
                    Server {
                        inst,
                        busy: false,
                        busy_us: 0,
                        pause_until: 0,
                        in_service_matches: 0,
                        in_service_probe: None,
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
        let mut groups = [make_group(Side::R, 0), make_group(Side::S, 1)];
        for g in &mut groups {
            if let Some(m) = g.monitor.as_mut() {
                m.set_round_timeout(cfg.round_timeout);
            }
        }
        let mut queue = EventQueue::new();
        let next_tuple = workload.next();
        if let Some(t) = &next_tuple {
            queue.push(t.ts, Event::Arrival);
        }
        queue.push(cfg.fastjoin.monitor_period, Event::MonitorTick);
        let instance_loads = if cfg.record_instance_loads {
            (0..n).map(|_| TimeSeries::new(cfg.report_period)).collect()
        } else {
            Vec::new()
        };
        let drop_triggers = cfg.drop_migrate_cmds;
        Simulation {
            metrics: RunMetrics::new(cfg.report_period),
            dispatcher: Dispatcher::new(r_part, s_part),
            groups,
            queue,
            channels: ChannelClock::new(),
            now: 0,
            fx: Effects::new(),
            scratch: Dispatch::default(),
            results_total: 0,
            tuples_ingested: 0,
            probe_parts_left: std::collections::HashMap::new(),
            instance_loads,
            ingest_series: TimeSeries::new(cfg.report_period),
            stored_series: TimeSeries::new(cfg.report_period),
            pending_series: TimeSeries::new(cfg.report_period),
            next_tuple,
            workload,
            cfg,
            routed_epochs: Default::default(),
            aborted_epochs: Default::default(),
            drop_triggers,
            stages: MetricsRegistry::new(),
        }
    }

    /// Runs to completion (workload exhausted and system drained, or
    /// `max_time` reached) and returns the report.
    #[must_use]
    pub fn run(mut self) -> SimReport {
        while let Some((time, event)) = self.queue.pop() {
            if time > self.cfg.max_time {
                self.now = self.cfg.max_time;
                break;
            }
            self.now = time;
            match event {
                Event::Arrival => self.on_arrival(),
                Event::Delivery { group, dest, msg } => self.on_delivery(group, dest, msg),
                Event::RouteAtDispatcher { group, req } => {
                    if self.aborted_epochs[group].contains(&req.epoch) {
                        // The round was aborted before its flip arrived:
                        // drop it and send no RouteUpdated — the source
                        // already holds (or will hold) MigAbort.
                        continue;
                    }
                    let side = if group == 0 { Side::R } else { Side::S };
                    let supported = self.dispatcher.apply_route(side, &req);
                    assert!(supported, "migration on a non-migratable partitioner");
                    self.routed_epochs[group].insert(req.epoch);
                    let delivery = self.channels.send(
                        Endpoint::Dispatcher,
                        Endpoint::Instance(group, req.source),
                        self.now + self.cfg.cost.network_latency as SimTime,
                    );
                    self.queue.push(
                        delivery,
                        Event::Delivery {
                            group,
                            dest: req.source,
                            msg: InstanceMsg::RouteUpdated { epoch: req.epoch },
                        },
                    );
                }
                Event::ServiceDone { group, dest } => self.on_service_done(group, dest),
                Event::Wake { group, dest } => self.try_start(group, dest),
                Event::MonitorTick => self.on_monitor_tick(),
            }
        }
        self.finish()
    }

    fn finish(self) -> SimReport {
        let n = self.cfg.fastjoin.instances_per_group;
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
            pending_series: self.pending_series,
            final_stored_r: (0..n).map(|i| self.groups[0].servers[i].inst.store().len()).collect(),
            busy_us: [
                self.groups[0].servers.iter().map(|s| s.busy_us).collect(),
                self.groups[1].servers.iter().map(|s| s.busy_us).collect(),
            ],
            migration_spans: [
                self.groups[0].monitor.as_ref().map(|m| m.spans().to_vec()).unwrap_or_default(),
                self.groups[1].monitor.as_ref().map(|m| m.spans().to_vec()).unwrap_or_default(),
            ],
            stages: self.stages,
        }
    }

    fn on_arrival(&mut self) {
        if self.next_tuple.is_none() {
            return;
        }
        // Storm-style backpressure: stall the spout while any instance is
        // over its queue cap.
        if self.is_congested() {
            self.queue.push(self.now + self.cfg.backpressure_retry, Event::Arrival);
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
        let own = t.side.index();
        let opp = t.side.opposite().index();
        // Each delivery pays its amortized share of the fixed per-message
        // channel overhead on top of the one-way network latency.
        let latency = (self.cfg.cost.network_latency
            + self.cfg.cost.message_overhead_us(self.cfg.batch_size))
            as SimTime;
        let store_dest = self.scratch.store_dest;
        let delivery = self.channels.send(
            Endpoint::Dispatcher,
            Endpoint::Instance(own, store_dest),
            self.now + latency,
        );
        self.queue.push(
            delivery,
            Event::Delivery { group: own, dest: store_dest, msg: InstanceMsg::Data(t) },
        );
        let probe_dests = std::mem::take(&mut self.scratch.probe_dests);
        for &dest in &probe_dests {
            let delivery = self.channels.send(
                Endpoint::Dispatcher,
                Endpoint::Instance(opp, dest),
                self.now + latency,
            );
            self.queue
                .push(delivery, Event::Delivery { group: opp, dest, msg: InstanceMsg::Data(t) });
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

    fn on_delivery(&mut self, group: usize, dest: usize, msg: InstanceMsg) {
        // Key-selection work pauses the source (§III-C: "an instance must
        // stop executing the store and join operations").
        let selection_pause = if matches!(msg, InstanceMsg::MigrateCmd { .. }) {
            let keys = self.groups[group].servers[dest].inst.key_stats().len();
            let pause = self.cfg.cost.selection_us(keys) as SimTime;
            self.stages.histogram_record("stage.mig_pause_us", pause);
            pause
        } else {
            0
        };
        {
            let g = &mut self.groups[group];
            // The simulator delivers in event-time order per channel, so a
            // protocol violation means the protocol itself is broken.
            #[allow(clippy::panic)]
            g.servers[dest]
                .inst
                .handle(msg, g.selector.as_mut(), self.cfg.fastjoin.theta_gap, &mut self.fx)
                .unwrap_or_else(|e| panic!("protocol violation: {e}"));
            if selection_pause > 0 {
                let server = &mut g.servers[dest];
                server.pause_until = server.pause_until.max(self.now + selection_pause);
            }
        }
        self.flush_effects(group, dest);
        self.try_start(group, dest);
    }

    /// Routes the effects produced by instance `(group, src)`.
    fn flush_effects(&mut self, group: usize, src: usize) {
        debug_assert!(self.fx.joined.is_empty(), "join results only appear in service");
        let latency = self.cfg.cost.network_latency as SimTime;
        for (to, msg) in self.fx.sends.drain(..) {
            // Migration payloads take longer to transfer.
            let extra = match &msg {
                InstanceMsg::MigStore { tuples, .. } | InstanceMsg::MigForward { tuples, .. } => {
                    self.cfg.cost.migration_us(tuples.len() as u64) as SimTime
                }
                _ => 0,
            };
            let delivery = self.channels.send(
                Endpoint::Instance(group, src),
                Endpoint::Instance(group, to),
                self.now + latency + extra,
            );
            self.queue.push(delivery, Event::Delivery { group, dest: to, msg });
        }
        for req in self.fx.route_requests.drain(..) {
            let delivery = self.channels.send(
                Endpoint::Instance(group, src),
                Endpoint::Dispatcher,
                self.now + latency,
            );
            self.queue.push(delivery, Event::RouteAtDispatcher { group, req });
        }
        for done in self.fx.migration_done.drain(..) {
            // Completion notifications matter only for round bookkeeping;
            // deliver them to the monitor immediately (a latency here only
            // lengthens the cooldown).
            self.metrics.migrations += 1;
            self.metrics.tuples_migrated += done.tuples_moved;
            let epoch = done.epoch;
            self.groups[group]
                .monitor
                .as_mut()
                .expect("migration completed in a static group")
                .on_migration_done(done, self.now);
            // The round is closed either way: retire its epoch. Aborted
            // epochs stay tombstoned: the rollback ack is delivered
            // instantly here while the stale RouteRequest may still be in
            // flight, and it must find the tombstone.
            self.routed_epochs[group].remove(&epoch);
        }
    }

    /// Starts service on the next pending tuple if the instance is free.
    fn try_start(&mut self, group: usize, dest: usize) {
        let server = &mut self.groups[group].servers[dest];
        if server.busy || server.inst.pending_len() == 0 {
            return;
        }
        if self.now < server.pause_until {
            self.queue.push(server.pause_until, Event::Wake { group, dest });
            return;
        }
        let work = server.inst.process_next(&mut self.fx).expect("pending_len > 0 implies work");
        let cost = self.cfg.cost.service_us(&work).max(0.01) as SimTime;
        // Ingest → service-start minus the constant network hop is the
        // tuple's queue wait at this instance (dispatch is instantaneous in
        // the simulator's cost model).
        let net = self.cfg.cost.network_latency as SimTime;
        match work {
            Work::Store { tuple } => {
                let wait = self.now.saturating_sub(tuple.ts).saturating_sub(net);
                self.stages.histogram_record("stage.queue_wait_us", wait);
                self.stages.histogram_record("stage.store_us", cost.max(1));
                server.in_service_matches = 0;
                server.in_service_probe = None;
            }
            Work::Probe { tuple, matches, .. } => {
                let wait = self.now.saturating_sub(tuple.ts).saturating_sub(net);
                self.stages.histogram_record("stage.queue_wait_us", wait);
                self.stages.histogram_record("stage.probe_us", cost.max(1));
                server.in_service_matches = matches;
                server.in_service_probe = Some(tuple);
            }
        }
        server.busy = true;
        server.busy_us += cost.max(1);
        debug_assert!(self.fx.joined.is_empty(), "sim instances do not materialize pairs");
        self.queue.push(self.now + cost.max(1), Event::ServiceDone { group, dest });
    }

    fn on_service_done(&mut self, group: usize, dest: usize) {
        let server = &mut self.groups[group].servers[dest];
        server.busy = false;
        let matches = server.in_service_matches;
        let probe = server.in_service_probe.take();
        server.in_service_matches = 0;
        if matches > 0 {
            self.metrics.throughput.record(self.now, matches as f64);
            self.results_total += matches;
        }
        if let Some(Tuple { seq, fanout, ts, .. }) = probe {
            // The probe's join completes when its last fan-out part does.
            let done = fanout == 1 || {
                let left = self.probe_parts_left.entry(seq).or_insert(fanout);
                *left -= 1;
                *left == 0 && self.probe_parts_left.remove(&seq).is_some()
            };
            if done {
                let lat = self.now.saturating_sub(ts);
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
                series.record(self.now, self.groups[0].servers[i].inst.load().load());
            }
        }
        let mut triggers = Vec::new();
        let mut aborts = Vec::new();
        for (gi, g) in self.groups.iter_mut().enumerate() {
            for server in &mut g.servers {
                server.inst.collect_expired();
            }
            let Some(monitor) = g.monitor.as_mut() else { continue };
            for (i, server) in g.servers.iter_mut().enumerate() {
                monitor.on_report(i, server.inst.take_load_report());
            }
            // The LI series plots the R group only, for a like-for-like
            // comparison across systems (Fig. 11 shows one line each).
            if gi == 0 {
                self.metrics.imbalance.record(self.now, monitor.imbalance());
            }
            if let Some(trigger) = monitor.maybe_trigger(self.now) {
                if self.drop_triggers > 0 {
                    // Fault injection: the MigrateCmd is lost. The monitor
                    // keeps the round in flight; only the watchdog (or the
                    // end of the run) can close it.
                    self.drop_triggers -= 1;
                } else {
                    triggers.push((gi, trigger));
                }
            }
            // Round-timeout watchdog (fires at most once per deadline).
            if let Some(req) = monitor.check_deadline(self.now) {
                aborts.push((gi, req));
            }
        }
        // Resolve abort requests at the dispatcher, the serialization
        // point: a round whose route already flipped is refused (it must
        // complete forward); otherwise the epoch is tombstoned and the
        // source is told to roll back.
        for (gi, req) in aborts {
            let refused = self.routed_epochs[gi].contains(&req.epoch);
            if !refused {
                self.aborted_epochs[gi].insert(req.epoch);
            }
            self.groups[gi]
                .monitor
                .as_mut()
                .expect("abort request from a static group")
                .on_abort_outcome(req.epoch, !refused, self.now);
            if !refused {
                let delivery = self.channels.send(
                    Endpoint::Dispatcher,
                    Endpoint::Instance(gi, req.source),
                    self.now + self.cfg.cost.network_latency as SimTime,
                );
                self.queue.push(
                    delivery,
                    Event::Delivery {
                        group: gi,
                        dest: req.source,
                        msg: InstanceMsg::MigAbort { epoch: req.epoch },
                    },
                );
            }
        }
        // Static systems still report an imbalance series (Fig. 11 plots
        // BiStream's LI): compute it from a shadow load table, consuming
        // the period counters exactly like a monitor would.
        if self.groups[0].monitor.is_none() {
            let li = self.shadow_imbalance();
            self.metrics.imbalance.record(self.now, li);
        }
        let stored_r: u64 = self.groups[0].servers.iter().map(|s| s.inst.store().len()).sum();
        let pending: u64 = self
            .groups
            .iter()
            .flat_map(|g| g.servers.iter())
            .map(|s| s.inst.pending_len() as u64)
            .sum();
        self.stored_series.record(self.now, stored_r as f64);
        self.pending_series.record(self.now, pending as f64);
        let latency = self.cfg.cost.network_latency as SimTime;
        for (gi, trigger) in triggers {
            let delivery = self.channels.send(
                Endpoint::Monitor(gi),
                Endpoint::Instance(gi, trigger.source),
                self.now + latency,
            );
            self.queue.push(
                delivery,
                Event::Delivery { group: gi, dest: trigger.source, msg: trigger.msg },
            );
        }
        // Keep ticking while there is anything left to do. An in-flight
        // round with the watchdog armed counts as work: its deadline only
        // fires on a tick, and a stalled round (dropped MigrateCmd) has no
        // other event keeping the queue alive. `max_time` still bounds it.
        let watchdog_armed = self.cfg.round_timeout > 0
            && self
                .groups
                .iter()
                .any(|g| g.monitor.as_ref().is_some_and(Monitor::migration_in_flight));
        if self.next_tuple.is_some() || !self.queue.is_empty() || watchdog_armed {
            self.queue.push(self.now + self.cfg.fastjoin.monitor_period, Event::MonitorTick);
        }
    }

    fn is_congested(&self) -> bool {
        let cap = self.cfg.queue_cap;
        self.groups.iter().any(|g| g.servers.iter().any(|s| s.inst.pending_len() > cap))
    }

    /// Imbalance of the R group computed directly from instance state (for
    /// systems without a monitor). Consumes the period counters exactly
    /// like a monitor report collection would.
    fn shadow_imbalance(&mut self) -> f64 {
        let loads: Vec<f64> = self.groups[0]
            .servers
            .iter_mut()
            .map(|s| s.inst.take_load_report().effective_load())
            .collect();
        let max = loads.iter().cloned().fold(f64::MIN, f64::max);
        let min = loads.iter().cloned().fold(f64::MAX, f64::min);
        max / min
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

    #[test]
    fn batching_amortizes_per_message_overhead() {
        // With a real per-message cost, every tuple in a batched run pays
        // only 1/batch of the overhead on delivery, so end-to-end latency
        // must drop (by ~per_message · (1 - 1/batch) µs) and the join must
        // be untouched.
        let run = |batch: u64| {
            let mut cfg = base_cfg(4);
            cfg.cost.per_message = 50.0;
            cfg.batch_size = batch;
            Simulation::new(cfg, uniform_workload(500, 10, 5000).into_iter()).run()
        };
        let unbatched = run(1);
        let batched = run(64);
        assert_eq!(batched.results_total, unbatched.results_total, "batching changed the join");
        let mean = |r: &SimReport| r.metrics.latency_hist.mean().unwrap();
        assert!(
            mean(&batched) + 40.0 < mean(&unbatched),
            "amortized overhead must cut delivery latency: {} vs {} µs",
            mean(&batched),
            mean(&unbatched)
        );
        // per_message defaults to 0, so historical configs are unaffected
        // by the batch knob at all.
        let free = Simulation::new(base_cfg(4), uniform_workload(500, 10, 5000).into_iter()).run();
        let free_batched = {
            let mut cfg = base_cfg(4);
            cfg.batch_size = 64;
            Simulation::new(cfg, uniform_workload(500, 10, 5000).into_iter()).run()
        };
        assert_eq!(free.duration, free_batched.duration);
        assert_eq!(free.results_total, free_batched.results_total);
        assert_eq!(mean(&free), mean(&free_batched));
    }

    #[test]
    fn skewed_workload_triggers_migrations_under_fastjoin() {
        let mut cfg = base_cfg(4);
        cfg.fastjoin.theta = 1.5;
        // One hot key carries half the traffic; rest uniform.
        let mut tuples = Vec::new();
        let mut ts = 0u64;
        for i in 0..4000u64 {
            ts += 100;
            let key = if i % 2 == 0 { 999 } else { i % 37 };
            tuples.push(Tuple::r(key, ts, 0));
            tuples.push(Tuple::s(key, ts, 0));
        }
        let report = Simulation::new(cfg, tuples.into_iter()).run();
        assert!(report.migrations() > 0, "hot key must trigger migration");
        // Completeness across migrations.
        let mut expected = 0u64;
        let mut counts = std::collections::HashMap::new();
        for i in 0..4000u64 {
            let key = if i % 2 == 0 { 999 } else { i % 37 };
            *counts.entry(key).or_insert(0u64) += 1;
        }
        for (_, c) in counts {
            expected += c * c;
        }
        assert_eq!(report.results_total, expected);
    }

    #[test]
    fn spans_and_json_cover_migrated_runs() {
        let mut cfg = base_cfg(4);
        cfg.fastjoin.theta = 1.5;
        let mut tuples = Vec::new();
        let mut ts = 0u64;
        for i in 0..4000u64 {
            ts += 100;
            let key = if i % 2 == 0 { 999 } else { i % 37 };
            tuples.push(Tuple::r(key, ts, 0));
            tuples.push(Tuple::s(key, ts, 0));
        }
        let report = Simulation::new(cfg, tuples.into_iter()).run();
        assert!(report.migrations() > 0);
        let spans: Vec<_> = report.migration_spans.iter().flatten().collect();
        assert_eq!(spans.len() as u64, report.migrations(), "one span per completed round");
        for s in &spans {
            assert!(s.completed_at >= s.triggered_at);
            assert!(s.imbalance_at_trigger > 1.5, "rounds only trigger above theta");
            assert_eq!(s.effective, s.keys_moved > 0);
        }
        let rendered = report.to_json().to_string_compact();
        for key in ["\"duration_us\"", "\"latency_us\"", "\"migration_spans\"", "\"imbalance\""] {
            assert!(rendered.contains(key), "missing {key}");
        }
    }

    #[test]
    fn stage_attribution_covers_migrated_runs() {
        let mut cfg = base_cfg(4);
        cfg.fastjoin.theta = 1.5;
        let (tuples, _) = skewed_workload(4000);
        let report = Simulation::new(cfg, tuples.into_iter()).run();
        assert!(report.migrations() > 0);
        // Every service started attributes a queue wait and a service-time
        // sample; key selection pauses show up once per triggered round.
        let hist = |name: &str| match report.stages.get(name) {
            Some(fastjoin_core::metrics::MetricValue::Histogram(h)) => h.count(),
            other => panic!("{name} missing or not a histogram: {other:?}"),
        };
        assert_eq!(hist("stage.store_us") + hist("stage.probe_us"), hist("stage.queue_wait_us"));
        assert!(hist("stage.probe_us") >= report.tuples_ingested, "every tuple probes");
        assert!(hist("stage.mig_pause_us") >= report.migrations());
        let rendered = report.to_json().to_string_compact();
        assert!(rendered.contains("\"stages\""));
        assert!(rendered.contains("stage.queue_wait_us"));
    }

    #[test]
    fn bistream_never_migrates() {
        let mut cfg = base_cfg(4);
        cfg.system = SystemKind::BiStream;
        let report = Simulation::new(cfg, uniform_workload(500, 3, 2000).into_iter()).run();
        assert_eq!(report.migrations(), 0);
        assert!(report.monitor_stats[0].is_none());
        assert!(!report.metrics.imbalance.is_empty(), "shadow LI must be recorded");
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
    fn dropped_migrate_cmd_is_rolled_back_by_the_watchdog() {
        let mut cfg = base_cfg(4);
        cfg.fastjoin.theta = 1.5;
        cfg.round_timeout = 150_000;
        cfg.drop_migrate_cmds = 1;
        let (tuples, expected) = skewed_workload(12_000);
        let report = Simulation::new(cfg, tuples.into_iter()).run();
        let stats = report.monitor_stats[0].expect("FastJoin has a monitor");
        assert!(stats.aborted >= 1, "the stalled round must be aborted: {stats:?}");
        // The lost MigrateCmd moved nothing, and later rounds still fire:
        // completeness holds across the abort.
        assert_eq!(report.results_total, expected);
        assert!(stats.effective > 0, "later rounds must still complete: {stats:?}");
    }

    #[test]
    fn slow_network_rounds_abort_and_preserve_completeness() {
        let mut cfg = base_cfg(4);
        cfg.fastjoin.theta = 1.5;
        // The deadline (150 ms) expires long before the route request can
        // cross a 0.5 s network, so in-flight rounds abort and roll back
        // their already-transferred tuples.
        cfg.cost.network_latency = 500_000.0;
        cfg.round_timeout = 150_000;
        cfg.max_time = 120_000_000;
        let (tuples, expected) = skewed_workload(4000);
        let report = Simulation::new(cfg, tuples.into_iter()).run();
        let stats = report.monitor_stats[0].expect("FastJoin has a monitor");
        assert!(stats.triggered > 0, "hot key must trigger rounds");
        assert!(stats.aborted > 0, "slow rounds must hit the deadline: {stats:?}");
        assert_eq!(report.results_total, expected, "rollback must not lose or duplicate joins");
    }

    #[test]
    fn empty_workload_terminates_immediately() {
        let report = Simulation::new(base_cfg(2), std::iter::empty()).run();
        assert_eq!(report.results_total, 0);
        assert_eq!(report.tuples_ingested, 0);
    }
}
