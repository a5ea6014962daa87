//! Run reports for the threaded runtime.

use fastjoin_core::instance::InstanceCounters;
use fastjoin_core::json::Json;
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

    /// The report as a JSON tree — the stable machine-readable schema.
    /// Field names are documented in `docs/ARCHITECTURE.md`.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let group = |g: usize| -> Json {
            let stats = self.monitor_stats[g].as_ref().map(MonitorStats::to_json);
            Json::obj(vec![
                ("monitor", stats.into()),
                ("imbalance", self.imbalance[g].as_ref().map(TimeSeries::to_json).into()),
                (
                    "migration_spans",
                    Json::arr(self.migration_spans[g].iter().map(MigrationSpan::to_json)),
                ),
                ("decisions", Json::arr(self.decisions[g].iter().map(MigrationDecision::to_json))),
                ("stored_total", Json::uint(self.stored_total(g))),
            ])
        };
        // Supervision telemetry: per-executor restart counters plus the
        // aggregate control-plane health counters (see ARCHITECTURE.md,
        // "Failure model & recovery"). Pulled out of the flat registry so
        // dashboards don't have to know the counter naming scheme.
        let restarts = Json::obj(self.registry.iter().filter_map(|(k, v)| {
            let name = k.strip_prefix("supervisor.restarts.")?;
            match v {
                fastjoin_core::metrics::MetricValue::Counter(c) => {
                    Some((name.to_string(), Json::uint(*c)))
                }
                _ => None,
            }
        }));
        let supervision = Json::obj(vec![
            (
                "executor_failures",
                Json::uint(self.registry.counter("supervisor.executor_failures")),
            ),
            ("control_restarts", Json::uint(self.registry.counter("supervisor.control_restarts"))),
            ("monitor_degraded_ms", Json::uint(self.registry.counter("monitor.degraded_ms"))),
            (
                "monitor_permanent_degraded",
                Json::uint(self.registry.counter("monitor.permanent_degraded")),
            ),
            ("restarts", restarts),
        ]);
        Json::obj(vec![
            ("duration_us", Json::uint(self.duration_us)),
            ("tuples_ingested", Json::uint(self.tuples_ingested)),
            ("results_total", Json::uint(self.results_total)),
            ("probes_total", Json::uint(self.probes_total)),
            ("results_per_sec", self.results_per_sec().into()),
            ("latency_us", self.latency.to_json()),
            ("throughput", self.throughput.to_json()),
            ("groups", Json::arr(vec![group(0), group(1)])),
            ("supervision", supervision),
            ("registry", self.registry.to_json()),
            (
                "trace",
                Json::obj(vec![
                    ("events", Json::uint(self.trace.len() as u64)),
                    ("dropped", Json::uint(self.trace.dropped())),
                ]),
            ),
        ])
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
    fn json_schema_has_the_required_top_level_keys() {
        let mut r = empty_report();
        r.duration_us = 2_000_000;
        r.results_total = 10;
        r.imbalance[0] = Some(TimeSeries::new(1_000));
        let rendered = r.to_json().to_string_compact();
        for key in [
            "\"duration_us\"",
            "\"probes_total\"",
            "\"results_per_sec\"",
            "\"latency_us\"",
            "\"throughput\"",
            "\"groups\"",
            "\"imbalance\"",
            "\"migration_spans\"",
            "\"decisions\"",
            "\"supervision\"",
            "\"registry\"",
            "\"trace\"",
        ] {
            assert!(rendered.contains(key), "missing {key} in {rendered}");
        }
        assert!(rendered.contains("\"results_per_sec\":5"), "10 results / 2 s: {rendered}");
    }

    #[test]
    fn supervision_section_exports_per_executor_restart_counters() {
        let mut r = empty_report();
        r.registry.counter_add("supervisor.executor_failures", 3);
        r.registry.counter_add("supervisor.control_restarts", 2);
        r.registry.counter_add("supervisor.restarts.dispatch-seq", 1);
        r.registry.counter_add("supervisor.restarts.monitor-0", 2);
        r.registry.counter_add("monitor.degraded_ms", 7);
        let rendered = r.to_json().to_string_compact();
        assert!(rendered.contains("\"executor_failures\":3"), "{rendered}");
        assert!(rendered.contains("\"control_restarts\":2"), "{rendered}");
        assert!(rendered.contains("\"monitor_degraded_ms\":7"), "{rendered}");
        assert!(rendered.contains("\"dispatch-seq\":1"), "{rendered}");
        assert!(rendered.contains("\"monitor-0\":2"), "{rendered}");
    }
}
