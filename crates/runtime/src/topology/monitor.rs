//! Per-group monitor executors: the periodic report/trigger loop, and
//! recovery by back-off.
//!
//! Monitors are a *degradable* dependency. A crash loses the thread, never
//! the [`Monitor`]: its epoch allocator, in-flight round, load table,
//! stats and decision audit are all in the executor, so the recovery
//! backs off deterministically and the next incarnation carries on where
//! the last one stopped; while down, routing stays as it is and
//! the run continues without migrations. Past the restart budget the
//! monitor degrades permanently: a round whose command arrived completes
//! without it, and a minimal drain keeps the shutdown handshake alive.

use std::thread;
use std::time::{Duration, Instant};

use crossbeam::channel::{RecvTimeoutError, Sender};
use rand::rngs::StdRng;
use rand::Rng;

use fastjoin_core::metrics::{MetricsRegistry, TimeSeries};
use fastjoin_core::monitor::Monitor;
use fastjoin_core::protocol::InstanceMsg;
use fastjoin_core::telemetry::MigrationPhase;
use fastjoin_core::trace::{Actor, TraceEvent, TraceKind, TraceRing};

use super::supervise::{Executor, Pulse};
use super::{CollectorMsg, RuntimeConfig, EXECUTOR_TICK};
use crate::fault::{ChaosReceiver, ControlKillSwitch};
use crate::introspect::Part;
use crate::msg::{MonitorMsg, RtMsg};

/// One group's monitor executor. Everything here survives a panic of
/// [`Executor::run`] — the [`Monitor`], journal, telemetry, LI trace and
/// quiesce-handshake state are never lost. (Every injected monitor crash
/// fires between two `Monitor` calls, so there is nothing torn to
/// rebuild.)
pub(super) struct MonitorExecutor {
    group: usize,
    period: Duration,
    /// The monitor's own restart budget: the shell never rules a monitor
    /// failure fatal, so degrading past the budget is decided here.
    max_restarts: u32,
    monitor: Monitor,
    /// Live LI trace (the paper's Fig. 11), one bucket per monitor tick.
    li: TimeSeries,
    ring: TraceRing,
    reg: MetricsRegistry,
    rx: ChaosReceiver<MonitorMsg>,
    to_instances: Vec<Sender<RtMsg>>,
    quiesce_ack: Sender<usize>,
    pulse: Pulse,
    quiescing: bool,
    acked: bool,
    /// Set once the restart budget is spent: `run` becomes the degraded
    /// drain and no migration is ever triggered again.
    degraded: bool,
    /// Injects `CrashPhase::MonitorMidRound`: a panic immediately *after*
    /// a `MigrateCmd` goes out, so the round is in flight at the
    /// instances while the monitor that awaits its completion is dead.
    switch: ControlKillSwitch,
    backoff_rng: StdRng,
    /// Times a bounded instance send parked on a full inbox since
    /// [`MonitorExecutor::publish`] last folded them into
    /// `monitor.sends_parked`.
    sends_parked: u64,
    /// How many of the monitor's audited decisions already have trace
    /// events, so only the new tail is journaled — including the decision
    /// of a tick that crashed before it got that far.
    decisions_seen: u64,
}

/// The monitor's wiring, bundled for [`MonitorExecutor::new`].
pub(super) struct MonitorLinks {
    pub rx: crossbeam::channel::Receiver<MonitorMsg>,
    pub to_instances: Vec<Sender<RtMsg>>,
    pub quiesce_ack: Sender<usize>,
}

impl MonitorExecutor {
    pub fn new(group: usize, cfg: &RuntimeConfig, links: MonitorLinks, pulse: Pulse) -> Self {
        let plan = &cfg.faults;
        let period = Duration::from_millis(cfg.monitor_period_ms);
        // The runtime's monitor clock is wall-clock milliseconds; the µs
        // cooldown goes through the one sanctioned conversion (rounds up,
        // so a sub-millisecond cooldown can never truncate to "disabled").
        let fj = &cfg.fastjoin;
        let monitor = Monitor::new(links.to_instances.len(), fj.theta, fj.migration_cooldown_ms());
        MonitorExecutor {
            group,
            period,
            max_restarts: cfg.supervision.max_restarts,
            monitor,
            li: TimeSeries::new((period.as_micros() as u64).max(1)),
            ring: TraceRing::new(Actor::monitor(group as u8), &cfg.trace),
            reg: MetricsRegistry::new(),
            rx: ChaosReceiver::new(
                links.rx,
                plan.monitor_chaos,
                plan.rng_for(0x4D_4F4E + group as u64), // "MON"
                |m| matches!(m, MonitorMsg::Report { .. }),
            ),
            to_instances: links.to_instances,
            quiesce_ack: links.quiesce_ack,
            pulse,
            quiescing: false,
            acked: false,
            degraded: false,
            switch: ControlKillSwitch::new(plan.monitor_crash(group)),
            backoff_rng: plan.rng_for(0x4D4F_4E53 + group as u64), // "MONS"
            sends_parked: 0,
            decisions_seen: 0,
        }
    }

    fn actor(&self) -> Actor {
        Actor::monitor(self.group as u8)
    }

    fn now_ms(&self) -> u64 {
        self.pulse.now_us() / 1000
    }

    fn trace(&mut self, kind: TraceKind, epoch: u64, aux: u64, aux2: u64) {
        let (at_us, actor) = (self.pulse.now_us(), self.actor());
        self.ring.push(TraceEvent { at_us, actor, kind, seq: 0, epoch, aux, aux2 });
    }

    /// Acknowledges a pending `Quiesce` (once) if no round is in flight.
    fn maybe_ack_quiesce(&mut self, round_in_flight: bool) {
        if self.quiescing && !self.acked && !round_in_flight {
            let _ = self.quiesce_ack.send(self.group);
            self.acked = true;
        }
    }

    /// One monitor period: sample LI, poll the instances, maybe trigger a
    /// round, journal and publish.
    fn tick(&mut self) {
        self.li.record(self.pulse.now_us(), self.monitor.imbalance());
        // Ask every instance for its period statistics.
        for tx in &self.to_instances {
            let _ = self.pulse.send(tx, RtMsg::ReportRequest, &mut self.sends_parked);
        }
        if !self.quiescing {
            if let Some(trigger) = self.monitor.maybe_trigger(self.now_ms()) {
                let epoch = trigger.msg.round_id().unwrap_or(TraceEvent::NO_ROUND);
                let target = match &trigger.msg {
                    InstanceMsg::MigrateCmd { target, .. } => *target as u64,
                    InstanceMsg::Data(_)
                    | InstanceMsg::MigStart { .. }
                    | InstanceMsg::MigStore { .. }
                    | InstanceMsg::RouteUpdated { .. }
                    | InstanceMsg::MigForward { .. }
                    | InstanceMsg::MigEnd { .. } => 0,
                };
                let source = trigger.source;
                self.trace(TraceKind::MigTrigger, epoch, source as u64, target);
                // The one send of a `MigrateCmd`. It fails only on a
                // disconnected inbox, which the instance leaves behind only
                // after the monitors quiesced or once the run is failing.
                let _ = self.pulse.send(
                    // The monitor only triggers sources it was built to watch.
                    &self.to_instances[source],
                    RtMsg::Inst(trigger.msg),
                    &mut self.sends_parked,
                );
                if self.switch.should_crash() {
                    // lint:allow(the injected fail-stop crash IS the fault under test; supervise catches and restarts)
                    panic!("fault injection: scheduled crash of monitor-{} mid-round", self.group);
                }
            }
        }
        self.journal_decisions();
        self.publish();
    }

    /// Decision audit, trace half: journals every decision the monitor
    /// recorded since the last call (triggered rounds and rejections
    /// alike) so `trace --round` can explain them.
    fn journal_decisions(&mut self) {
        let recorded = self.monitor.decisions_recorded();
        if recorded > self.decisions_seen {
            let fresh = (recorded - self.decisions_seen) as usize;
            let (at_us, actor) = (self.pulse.now_us(), self.actor());
            let ds = self.monitor.decisions();
            for d in ds.iter().skip(ds.len().saturating_sub(fresh)) {
                self.ring.push(TraceEvent {
                    at_us,
                    actor,
                    kind: TraceKind::MigDecision,
                    seq: 0,
                    epoch: d.epoch.unwrap_or(TraceEvent::NO_ROUND),
                    aux: d.reason.code(),
                    aux2: (d.source as u64) * 256 + d.target as u64,
                });
            }
            self.decisions_seen = recorded;
        }
    }

    /// Brings the registry up to the monitor's present view of its group
    /// (`monitor.r.*` / `monitor.s.*`) and publishes it.
    fn publish(&mut self) {
        let (phase, epoch) = match self.monitor.in_flight_round() {
            Some((e, _, _)) => (MigrationPhase::Migrating, e),
            None => (MigrationPhase::Idle, 0),
        };
        let stats = self.monitor.stats();
        let group = self.actor().label();
        let mut set =
            |name: &str, value: f64| self.reg.gauge_set(&format!("{group}.{name}"), value);
        set("imbalance", self.monitor.imbalance());
        set("phase", f64::from(phase as u8));
        set("epoch", epoch as f64);
        set("triggered", stats.triggered as f64);
        set("effective", stats.effective as f64);
        for (id, load) in self.monitor.load_snapshot().iter().enumerate() {
            set(&format!("load.{id}"), load.effective_load());
        }
        self.reg.counter_add("monitor.sends_parked", std::mem::take(&mut self.sends_parked));
        self.pulse.publish(Part::Monitor(self.group), &self.reg, Vec::new);
    }

    /// Terminal degraded mode, entered when the restart budget is spent:
    /// the run continues *without* migrations — routing is frozen at the
    /// table the sequencer holds — rather than failing. This loop keeps
    /// the shutdown handshake alive: `Quiesce` is acknowledged immediately
    /// (a round whose command arrived completes without its monitor), and
    /// every other message is discarded until the inbox disconnects.
    fn degraded_drain(&mut self) {
        while self.pulse.beat() {
            // A Quiesce that arrived before the final crash still needs
            // its ack.
            self.maybe_ack_quiesce(false);
            match self.rx.recv_timeout(EXECUTOR_TICK) {
                Ok(MonitorMsg::Quiesce) => self.quiescing = true,
                Ok(_) | Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => return,
            }
        }
    }
}

impl Executor for MonitorExecutor {
    fn run(&mut self) {
        if self.degraded {
            self.degraded_drain();
            return;
        }
        let mut next_tick = Instant::now() + self.period;
        while self.pulse.beat() {
            let timeout = next_tick.saturating_duration_since(Instant::now());
            match self.rx.recv_timeout(timeout) {
                Ok(MonitorMsg::Report { id, load }) => self.monitor.on_report(id, load),
                Ok(MonitorMsg::Done(done)) => {
                    self.monitor.on_migration_done(done, self.now_ms());
                    self.trace(TraceKind::MigDone, done.epoch, done.tuples_moved, 0);
                }
                Ok(MonitorMsg::Quiesce) => self.quiescing = true,
                Err(RecvTimeoutError::Timeout) => {
                    next_tick += self.period;
                    self.tick();
                }
                Err(RecvTimeoutError::Disconnected) => return,
            }
            self.maybe_ack_quiesce(self.monitor.migration_in_flight());
        }
    }

    /// Monitor recovery: the `Monitor` is intact, so a recovery either
    /// backs off before the next incarnation carries on — its in-flight
    /// round still awaiting its completion — or (budget spent) degrades.
    fn recover(&mut self, restarts: u32) {
        if self.degraded {
            // A panic inside the degraded drain: nothing is left to do.
            return;
        }
        let down_at = self.pulse.now_us();
        self.trace(TraceKind::MonitorDown, 0, u64::from(restarts), 0);
        if restarts > self.max_restarts {
            // Freeze: the run continues correctly on the routing table as
            // it stands, without migrations. A round in flight whose
            // command arrived completes at the instances on its own.
            self.reg.counter_add("monitor.permanent_degraded", 1);
            self.degraded = true;
            self.publish();
            return;
        }
        // Bounded, seed-deterministic exponential backoff before the next
        // incarnation, heartbeat-refreshing so the stall watchdog sees a
        // live (if degraded) executor.
        let base_ms = 1u64 << restarts.saturating_sub(1).min(5);
        let jitter = self.backoff_rng.gen_range(0..=base_ms);
        let wake = Instant::now() + Duration::from_millis(base_ms + jitter);
        while Instant::now() < wake && self.pulse.beat() {
            thread::sleep(Duration::from_millis(1));
        }
        let degraded_ms = self.pulse.now_us().saturating_sub(down_at) / 1000;
        self.reg.counter_add("monitor.degraded_ms", degraded_ms);
        self.reg.counter_add("monitor_restarts", 1);
        self.trace(TraceKind::MonitorUp, 0, degraded_ms, 0);
    }

    fn finish(mut self, collector: &Sender<CollectorMsg>) {
        // Close the LI trace with a final sample so even runs shorter
        // than one monitor period report a (possibly single-point) series.
        self.li.record(self.pulse.now_us(), self.monitor.imbalance());
        // A crash after the last tick (or a degraded end) may have left
        // decisions unjournaled.
        self.journal_decisions();
        self.publish();
        let _ = collector.send(CollectorMsg::MonitorDone {
            group: self.group,
            stats: self.monitor.stats(),
            spans: self.monitor.spans().to_vec(),
            decisions: self.monitor.decisions().to_vec(),
            li: Box::new(self.li),
            registry: Box::new(self.reg),
            journal: Box::new(self.ring.into_journal()),
        });
    }
}
