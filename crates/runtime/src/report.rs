//! Run reports for the threaded runtime.

use fastjoin_core::instance::InstanceCounters;
use fastjoin_core::metrics::{LogHistogram, MetricsRegistry, MigrationSpan, TimeSeries};
use fastjoin_core::monitor::{MigrationDecision, MonitorStats};
use fastjoin_core::trace::TraceJournal;

/// Everything measured during a topology run.
#[derive(Debug)]
pub struct RuntimeReport {
    /// Wall-clock duration, microseconds.
    pub duration_us: u64,
    /// Tuples ingested from the workload.
    pub tuples_ingested: u64,
    /// Total join result pairs produced.
    pub results_total: u64,
    /// Probe-side tuples processed.
    pub probes_total: u64,
    /// Per-probe latency (µs) from ingest to result-visible: the spout's
    /// stamp on the probing tuple → the end of the instance step that
    /// completed its last fan-out part, which is when that step's report
    /// (and, for a results consumer, its pairs) left the instance. One
    /// sample per probe, at the slowest part. `stage.queue_wait_us` +
    /// `stage.probe_us` tile it per part; `stage.emit_us` is what follows.
    pub latency: LogHistogram,
    /// Results per second of wall time.
    pub throughput: TimeSeries,
    /// Final lifetime counters of every instance: `[R group, S group]`.
    pub counters: [Vec<InstanceCounters>; 2],
    /// Monitor statistics per group (`None` for static systems).
    pub monitor_stats: [Option<MonitorStats>; 2],
    /// Live load-imbalance (`LI`, Eq. 2) series per group, sampled every
    /// monitor tick (`None` for static systems) — the paper's Fig. 11 view.
    pub imbalance: [Option<TimeSeries>; 2],
    /// Completed migration-round spans per group, oldest first.
    pub migration_spans: [Vec<MigrationSpan>; 2],
    /// Migration decision audit per group, oldest first: every candidate
    /// round the monitor considered — committed plans and rejections with
    /// reasons (see `docs/ARCHITECTURE.md`, "Migration decision audit").
    pub decisions: [Vec<MigrationDecision>; 2],
    /// The run registry: every executor's metrics, namespaced
    /// `dispatcher.*` / `inst.r3.*` / `inst.s0.*` — the one table every
    /// surface renders (see `docs/ARCHITECTURE.md`, "Observability").
    pub registry: MetricsRegistry,
    /// The merged causal trace journal: every executor's ring drained and
    /// sorted into one timeline (see `docs/ARCHITECTURE.md`, "Tracing &
    /// telemetry"). Empty when tracing is disabled.
    pub trace: TraceJournal,
}

impl RuntimeReport {
    /// Results per wall-clock second, averaged over the run.
    #[must_use]
    pub fn results_per_sec(&self) -> f64 {
        if self.duration_us == 0 {
            0.0
        } else {
            self.results_total as f64 / (self.duration_us as f64 / 1e6)
        }
    }

    /// Mean per-probe latency in microseconds.
    #[must_use]
    pub fn mean_latency_us(&self) -> f64 {
        self.latency.mean().unwrap_or(0.0)
    }

    /// Total migrations triggered across both groups.
    #[must_use]
    pub fn migrations(&self) -> u64 {
        self.monitor_stats.iter().flatten().map(|s| s.triggered).sum()
    }

    /// Total tuples stored across one group's instances.
    #[must_use]
    pub fn stored_total(&self, group: usize) -> u64 {
        self.counters[group].iter().map(|c| c.stored).sum()
    }

    /// Why this run was not exactly-once against an oracle of
    /// `expected_pairs` join results over `probes` probing tuples; empty
    /// when it was. Every pair is joined once, every probe is processed
    /// and reported once, and every triggered migration round closes once
    /// (it moved keys, or its source found nothing worth moving). The
    /// round check is skipped when a monitor degraded for good: its
    /// in-flight round completes at the instances with nobody counting.
    #[must_use]
    pub fn exactly_once_violations(&self, expected_pairs: u64, probes: u64) -> Vec<String> {
        let mut bad = Vec::new();
        if self.results_total != expected_pairs {
            bad.push(format!("results {} != oracle {expected_pairs}", self.results_total));
        }
        if self.probes_total != probes {
            bad.push(format!("probes {} != {probes}", self.probes_total));
        }
        if self.latency.count() != probes {
            bad.push(format!("latency samples {} != {probes}", self.latency.count()));
        }
        if self.registry.counter_sum("monitor.permanent_degraded") > 0 {
            return bad;
        }
        for (g, stats) in self.monitor_stats.iter().enumerate() {
            if let Some(s) = stats.filter(|s| s.triggered != s.effective + s.abandoned) {
                bad.push(format!(
                    "group {g}: {} rounds triggered, {} effective + {} abandoned closed",
                    s.triggered, s.effective, s.abandoned
                ));
            }
        }
        bad
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty_report() -> RuntimeReport {
        RuntimeReport {
            duration_us: 0,
            tuples_ingested: 0,
            results_total: 0,
            probes_total: 0,
            latency: LogHistogram::new(),
            throughput: TimeSeries::new(1_000_000),
            counters: [Vec::new(), Vec::new()],
            monitor_stats: [None, None],
            imbalance: [None, None],
            migration_spans: [Vec::new(), Vec::new()],
            decisions: [Vec::new(), Vec::new()],
            registry: MetricsRegistry::new(),
            trace: TraceJournal::new(),
        }
    }

    #[test]
    fn derived_rates_handle_zero_duration() {
        let r = empty_report();
        assert_eq!(r.results_per_sec(), 0.0);
        assert_eq!(r.mean_latency_us(), 0.0);
        assert_eq!(r.migrations(), 0);
    }

    #[test]
    fn exactly_once_verdict_names_each_miss_and_an_unclosed_round() {
        let mut r = empty_report();
        assert!(r.exactly_once_violations(0, 0).is_empty());
        r.monitor_stats[1] =
            Some(MonitorStats { triggered: 2, effective: 1, ..MonitorStats::default() });
        let bad = r.exactly_once_violations(5, 1);
        assert_eq!(bad.len(), 4, "{bad:?}");
        assert!(bad[0].starts_with("results 0 != oracle 5"), "{bad:?}");
        assert!(bad[3].starts_with("group 1: 2 rounds triggered"), "{bad:?}");
        // A permanently degraded monitor stops counting its round.
        r.registry.counter_add("monitor.permanent_degraded", 1);
        assert_eq!(r.exactly_once_violations(5, 1).len(), 3);
    }
}
