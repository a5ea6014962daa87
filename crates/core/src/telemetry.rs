//! Telemetry export: rendering a [`MetricsRegistry`] for external
//! consumers, most notably the Prometheus text exposition format.
//!
//! The registry is the in-process truth; this module is the boundary where
//! its names leave our namespace. Prometheus metric names must match
//! `[a-zA-Z_:][a-zA-Z0-9_:]*`, so registry names like
//! `inst.r0.probes_handled` are sanitized (`.` → `_`) and prefixed with
//! `fastjoin_` to avoid colliding with other exporters on the same scrape
//! endpoint. [`LogHistogram`]s render as summaries (p50/p90/p99 +
//! `_sum`/`_count`); [`TimeSeries`] metrics are *skipped* — they are
//! per-run traces, not instantaneous scrape values, and belong in the
//! trace journal instead. Non-finite gauges are skipped too: a NaN sample
//! poisons Prometheus range queries.

use crate::metrics::{MetricValue, MetricsRegistry};

/// Sanitizes a registry metric name into the Prometheus name charset
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`) and prepends the `fastjoin_` namespace.
#[must_use]
pub fn prometheus_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 9);
    out.push_str("fastjoin_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

impl MetricsRegistry {
    /// Renders the registry in the Prometheus text exposition format.
    /// Names are sanitized via [`prometheus_name`]; sanitization
    /// collisions get a `_dupN` suffix so every exposed name stays unique.
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut used: Vec<String> = Vec::new();
        for (name, value) in self.iter() {
            let mut exposed = prometheus_name(name);
            let mut n = 1;
            while used.iter().any(|u| u == &exposed) {
                n += 1;
                exposed = format!("{}_dup{n}", prometheus_name(name));
            }
            used.push(exposed.clone());
            render_metric(&mut out, &exposed, value);
        }
        out
    }
}

fn render_metric(out: &mut String, name: &str, value: &MetricValue) {
    use std::fmt::Write;
    match value {
        MetricValue::Counter(v) => {
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {v}");
        }
        MetricValue::Gauge(v) => {
            if v.is_finite() {
                let _ = writeln!(out, "# TYPE {name} gauge");
                let _ = writeln!(out, "{name} {v}");
            }
        }
        MetricValue::Histogram(h) => {
            let _ = writeln!(out, "# TYPE {name} summary");
            for (q, label) in [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99")] {
                if let Some(v) = h.quantile(q) {
                    let _ = writeln!(out, "{name}{{quantile=\"{label}\"}} {v}");
                }
            }
            let sum = h.mean().map_or(0.0, |m| m * h.count() as f64);
            let _ = writeln!(out, "{name}_sum {sum}");
            let _ = writeln!(out, "{name}_count {}", h.count());
        }
        // Per-run traces, not scrape values — exported via the trace
        // journal / JSON report instead.
        MetricValue::Series(_) => {}
    }
}

/// Checks `text` against the Prometheus text exposition grammar subset we
/// emit: every sample line must parse, metric names must be well-formed
/// and covered by a preceding `# TYPE` line, no `(name, labels)` sample
/// may repeat, and no sample value may be NaN.
///
/// # Errors
/// Returns a message naming the first offending line.
pub fn validate_prometheus(text: &str) -> Result<(), String> {
    let mut typed: Vec<String> = Vec::new();
    let mut seen_samples: Vec<String> = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let lineno = i + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().ok_or(format!("line {lineno}: TYPE without name"))?;
            let kind = parts.next().ok_or(format!("line {lineno}: TYPE without kind"))?;
            if !matches!(kind, "counter" | "gauge" | "summary" | "histogram" | "untyped") {
                return Err(format!("line {lineno}: unknown TYPE kind {kind:?}"));
            }
            if typed.iter().any(|t| t == name) {
                return Err(format!("line {lineno}: duplicate TYPE for {name}"));
            }
            typed.push(name.to_string());
            continue;
        }
        if line.starts_with('#') {
            continue; // HELP or comment
        }
        let (series, value) =
            line.rsplit_once(' ').ok_or(format!("line {lineno}: sample without value"))?;
        let value: f64 = value
            .parse()
            .map_err(|_| format!("line {lineno}: unparsable sample value {value:?}"))?;
        if value.is_nan() {
            return Err(format!("line {lineno}: NaN sample"));
        }
        let name = series.split('{').next().unwrap_or(series);
        if !is_valid_metric_name(name) {
            return Err(format!("line {lineno}: invalid metric name {name:?}"));
        }
        // A summary's `_sum`/`_count` samples belong to the base family.
        let family = name.strip_suffix("_sum").or_else(|| name.strip_suffix("_count"));
        let covered = typed.iter().any(|t| t == name || Some(t.as_str()) == family);
        if !covered {
            return Err(format!("line {lineno}: sample {name} has no TYPE line"));
        }
        if seen_samples.iter().any(|s| s == series) {
            return Err(format!("line {lineno}: duplicate sample {series}"));
        }
        seen_samples.push(series.to_string());
    }
    Ok(())
}

fn is_valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

// ---------------------------------------------------------------------
// Live introspection: mid-run runtime snapshots
// ---------------------------------------------------------------------

/// The migration-round phase a group is in at snapshot time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationPhase {
    /// No round in flight.
    Idle,
    /// A round is in flight (trigger sent, not yet done).
    Migrating,
    /// An abort has been requested or accepted for the in-flight round.
    Aborting,
}

impl MigrationPhase {
    /// Stable lowercase name used in snapshot JSON.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            MigrationPhase::Idle => "idle",
            MigrationPhase::Migrating => "migrating",
            MigrationPhase::Aborting => "aborting",
        }
    }
}

/// One join instance's live state as published to the introspection hub
/// on each report tick: load, inbox depth, and its hottest keys (the
/// skew-heatmap row).
#[derive(Debug, Clone)]
pub struct InstanceProbe {
    /// Group index (0 = R, 1 = S).
    pub group: u8,
    /// Instance index within the group.
    pub id: u16,
    /// Effective load `(stored + 1) · (queue + 1)` (Eq. 2 input).
    pub load: u64,
    /// Bounded-inbox depth when the probe was taken.
    pub queue_depth: u64,
    /// Top-K keys by effective weight, heaviest first: `(key, weight)`.
    pub hot_keys: Vec<(u64, u64)>,
    /// Whether the instance is mid-migration (source, target, or abort).
    pub migrating: bool,
}

/// One group's monitor view at snapshot time: imbalance, per-instance
/// loads, and the migration-round phase.
#[derive(Debug, Clone)]
pub struct GroupProbe {
    /// Group index (0 = R, 1 = S).
    pub group: u8,
    /// Degree of load imbalance `LI = L_max / L_min` (Eq. 2).
    pub imbalance: f64,
    /// Effective load per instance index.
    pub loads: Vec<u64>,
    /// Phase of the current migration round.
    pub phase: MigrationPhase,
    /// Epoch of the in-flight round (0 when idle).
    pub epoch: u64,
    /// Rounds triggered so far.
    pub triggered: u64,
    /// Rounds that moved at least one key.
    pub effective: u64,
}

/// Supervisor health surfaced in snapshots: restart totals and whether
/// any monitor is permanently degraded.
#[derive(Debug, Clone, Copy, Default)]
pub struct SupervisorHealth {
    /// Executor failures observed (one per restart attempt).
    pub executor_failures: u64,
    /// Control-plane recoveries (shards, sequencer, monitors).
    pub control_restarts: u64,
    /// True once a monitor's restart budget is spent (no more migrations).
    pub degraded: bool,
}

/// One counter's value in a snapshot: the lifetime total plus the delta
/// since the previous snapshot from the same [`SnapshotCollector`].
#[derive(Debug, Clone)]
pub struct CounterDelta {
    /// Registry counter name.
    pub name: String,
    /// Lifetime total at snapshot time.
    pub total: u64,
    /// Increase since the previous snapshot (clamped at 0).
    pub delta: u64,
}

/// A consistent point-in-time view of a running topology, assembled by a
/// [`SnapshotCollector`] from the introspection hub's latest probes.
#[derive(Debug, Clone)]
pub struct RuntimeSnapshot {
    /// Monotone snapshot sequence number (1-based).
    pub seq: u64,
    /// Capture time, microseconds since run start.
    pub at_us: u64,
    /// Per-instance probes, ordered (group, id).
    pub instances: Vec<InstanceProbe>,
    /// Per-group monitor probes (absent for static systems).
    pub groups: Vec<GroupProbe>,
    /// Bounded-channel depth high-watermarks by queue name.
    pub queues: Vec<(String, u64)>,
    /// Counter totals + deltas since the previous snapshot.
    pub counters: Vec<CounterDelta>,
    /// Supervisor health at snapshot time.
    pub supervisor: SupervisorHealth,
}

impl RuntimeSnapshot {
    /// The snapshot as a JSON tree (the `/snapshot` endpoint body and the
    /// `--snapshot-out` JSONL record).
    #[must_use]
    pub fn to_json(&self) -> crate::json::Json {
        use crate::json::Json;
        let instances = self.instances.iter().map(|p| {
            Json::obj(vec![
                ("group", Json::uint(u64::from(p.group))),
                ("id", Json::uint(u64::from(p.id))),
                ("load", Json::uint(p.load)),
                ("queue_depth", Json::uint(p.queue_depth)),
                (
                    "hot_keys",
                    Json::arr(p.hot_keys.iter().map(|(k, w)| {
                        Json::obj(vec![("key", Json::uint(*k)), ("weight", Json::uint(*w))])
                    })),
                ),
                ("migrating", Json::Bool(p.migrating)),
            ])
        });
        let groups = self.groups.iter().map(|g| {
            Json::obj(vec![
                ("group", Json::uint(u64::from(g.group))),
                ("imbalance", g.imbalance.into()),
                ("loads", Json::arr(g.loads.iter().map(|l| Json::uint(*l)))),
                ("phase", Json::str(g.phase.name())),
                ("epoch", Json::uint(g.epoch)),
                ("triggered", Json::uint(g.triggered)),
                ("effective", Json::uint(g.effective)),
            ])
        });
        let queues = self
            .queues
            .iter()
            .map(|(name, depth)| (name.clone(), Json::uint(*depth)))
            .collect::<Vec<_>>();
        let counters = self.counters.iter().map(|c| {
            Json::obj(vec![
                ("name", Json::str(&c.name)),
                ("total", Json::uint(c.total)),
                ("delta", Json::uint(c.delta)),
            ])
        });
        Json::obj(vec![
            ("seq", Json::uint(self.seq)),
            ("at_us", Json::uint(self.at_us)),
            ("instances", Json::arr(instances)),
            ("groups", Json::arr(groups)),
            ("queues", Json::obj(queues)),
            ("counters", Json::arr(counters)),
            (
                "supervisor",
                Json::obj(vec![
                    ("executor_failures", Json::uint(self.supervisor.executor_failures)),
                    ("control_restarts", Json::uint(self.supervisor.control_restarts)),
                    ("degraded", Json::Bool(self.supervisor.degraded)),
                ]),
            ),
        ])
    }
}

/// Assembles [`RuntimeSnapshot`]s from live probe data, tracking counter
/// values across snapshots so each snapshot carries per-counter deltas.
/// One collector per introspection plane; `collect` is called from the
/// snapshot thread (periodic) and the HTTP `/snapshot` handler (on
/// demand), serialized by the caller.
#[derive(Debug, Default)]
pub struct SnapshotCollector {
    seq: u64,
    prev: std::collections::BTreeMap<String, u64>,
}

impl SnapshotCollector {
    /// A fresh collector (first snapshot will be `seq` 1 with deltas
    /// equal to totals).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds the next snapshot. Counter deltas are computed against the
    /// previous `collect` call and clamped at zero (an executor restart
    /// can legitimately re-merge a lower total mid-run).
    pub fn collect(
        &mut self,
        at_us: u64,
        instances: Vec<InstanceProbe>,
        groups: Vec<GroupProbe>,
        queues: Vec<(String, u64)>,
        counters: &[(String, u64)],
        supervisor: SupervisorHealth,
    ) -> RuntimeSnapshot {
        self.seq += 1;
        let deltas = counters
            .iter()
            .map(|(name, total)| {
                let prev = self.prev.get(name).copied().unwrap_or(0);
                CounterDelta {
                    name: name.clone(),
                    total: *total,
                    delta: total.saturating_sub(prev),
                }
            })
            .collect();
        for (name, total) in counters {
            self.prev.insert(name.clone(), *total);
        }
        RuntimeSnapshot {
            seq: self.seq,
            at_us,
            instances,
            groups,
            queues,
            counters: deltas,
            supervisor,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_registry() -> MetricsRegistry {
        let mut r = MetricsRegistry::new();
        r.counter_add("inst.r0.probes_handled", 7);
        r.counter_add("inst.s1.probes_handled", 9);
        r.gauge_set("queue_depth", 3.5);
        r.gauge_set("broken_gauge", f64::NAN);
        for v in 1..=100 {
            r.histogram_record("stage.probe_us", v);
        }
        r.series_record("li", 100, 0, 1.5); // series are skipped
        r
    }

    #[test]
    fn prometheus_names_are_sanitized_and_prefixed() {
        assert_eq!(prometheus_name("inst.r0.probes"), "fastjoin_inst_r0_probes");
        assert_eq!(prometheus_name("stage.probe_us"), "fastjoin_stage_probe_us");
        assert!(is_valid_metric_name(&prometheus_name("weird name-1")));
    }

    #[test]
    fn rendered_output_passes_validation() {
        let text = sample_registry().to_prometheus();
        validate_prometheus(&text).unwrap();
        assert!(text.contains("# TYPE fastjoin_inst_r0_probes_handled counter"));
        assert!(text.contains("fastjoin_inst_r0_probes_handled 7"));
        assert!(text.contains("# TYPE fastjoin_queue_depth gauge"));
        assert!(text.contains("fastjoin_stage_probe_us{quantile=\"0.5\"}"));
        assert!(text.contains("fastjoin_stage_probe_us_count 100"));
        // NaN gauges and time series are omitted entirely.
        assert!(!text.contains("broken_gauge"));
        assert!(!text.contains("fastjoin_li"));
        assert!(!text.contains("NaN"));
    }

    #[test]
    fn rendered_output_reparses_into_unique_samples() {
        // Satellite: to_prometheus output re-parses — every sample line is
        // `name[{labels}] value` with a sanitized, TYPE-covered, unique
        // name.
        let text = sample_registry().to_prometheus();
        let mut names = Vec::new();
        for line in text.lines().filter(|l| !l.starts_with('#') && !l.is_empty()) {
            let (series, value) = line.rsplit_once(' ').unwrap();
            value.parse::<f64>().unwrap();
            let name = series.split('{').next().unwrap();
            assert!(is_valid_metric_name(name), "bad name {name:?}");
            assert!(!names.contains(&series.to_string()), "duplicate {series}");
            names.push(series.to_string());
        }
        assert!(!names.is_empty());
    }

    #[test]
    fn sanitization_collisions_get_unique_suffixes() {
        let mut r = MetricsRegistry::new();
        r.counter_add("a.b", 1);
        r.counter_add("a_b", 2);
        let text = r.to_prometheus();
        validate_prometheus(&text).unwrap();
        assert!(text.contains("fastjoin_a_b 1"));
        assert!(text.contains("fastjoin_a_b_dup2 2"));
    }

    #[test]
    fn validator_rejects_malformed_exports() {
        for (bad, why) in [
            ("fastjoin_x 1\n", "sample without TYPE"),
            ("# TYPE fastjoin_x counter\nfastjoin_x 1\nfastjoin_x 1\n", "duplicate sample"),
            ("# TYPE fastjoin_x gauge\nfastjoin_x NaN\n", "NaN sample"),
            ("# TYPE fastjoin_x widget\n", "unknown kind"),
            ("# TYPE fastjoin_x counter\n# TYPE fastjoin_x counter\n", "duplicate TYPE"),
            ("# TYPE 9bad counter\n9bad 1\n", "invalid name"),
            ("# TYPE fastjoin_x counter\nfastjoin_x\n", "missing value"),
        ] {
            assert!(validate_prometheus(bad).is_err(), "accepted: {why}");
        }
    }

    fn probe(load: u64) -> InstanceProbe {
        InstanceProbe {
            group: 0,
            id: 3,
            load,
            queue_depth: 2,
            hot_keys: vec![(999, load)],
            migrating: false,
        }
    }

    #[test]
    fn snapshot_collector_tracks_counter_deltas_and_seq() {
        let mut c = SnapshotCollector::new();
        let counters = vec![("tuples_ingested".to_string(), 100u64)];
        let s1 =
            c.collect(10, vec![probe(5)], Vec::new(), Vec::new(), &counters, Default::default());
        assert_eq!(s1.seq, 1);
        assert_eq!(s1.counters[0].total, 100);
        assert_eq!(s1.counters[0].delta, 100, "first snapshot: delta == total");
        let counters = vec![("tuples_ingested".to_string(), 140u64)];
        let s2 =
            c.collect(20, vec![probe(7)], Vec::new(), Vec::new(), &counters, Default::default());
        assert_eq!(s2.seq, 2);
        assert_eq!(s2.counters[0].total, 140);
        assert_eq!(s2.counters[0].delta, 40);
        // A counter that re-merged lower (executor restart) clamps at 0
        // instead of wrapping.
        let counters = vec![("tuples_ingested".to_string(), 130u64)];
        let s3 = c.collect(30, Vec::new(), Vec::new(), Vec::new(), &counters, Default::default());
        assert_eq!(s3.counters[0].delta, 0);
        assert!(s1.counters[0].total <= s2.counters[0].total, "totals monotone across snapshots");
    }

    #[test]
    fn snapshot_json_carries_instances_groups_queues_and_phase() {
        let mut c = SnapshotCollector::new();
        let group = GroupProbe {
            group: 0,
            imbalance: 3.5,
            loads: vec![100, 10],
            phase: MigrationPhase::Migrating,
            epoch: 7,
            triggered: 1,
            effective: 0,
        };
        let snap = c.collect(
            42,
            vec![probe(100)],
            vec![group],
            vec![("queue.spout.depth".to_string(), 12)],
            &[("results".to_string(), 9)],
            SupervisorHealth { executor_failures: 1, control_restarts: 0, degraded: false },
        );
        let rendered = snap.to_json().to_string_compact();
        for key in [
            "\"seq\":1",
            "\"at_us\":42",
            "\"load\":100",
            "\"hot_keys\"",
            "\"key\":999",
            "\"phase\":\"migrating\"",
            "\"epoch\":7",
            "\"queue.spout.depth\":12",
            "\"delta\":9",
            "\"executor_failures\":1",
        ] {
            assert!(rendered.contains(key), "missing {key} in {rendered}");
        }
        // The JSON round-trips through our parser.
        crate::json::Json::parse(&rendered).unwrap();
    }

    #[test]
    fn migration_phase_names_are_stable() {
        assert_eq!(MigrationPhase::Idle.name(), "idle");
        assert_eq!(MigrationPhase::Migrating.name(), "migrating");
        assert_eq!(MigrationPhase::Aborting.name(), "aborting");
    }
}
