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
//! poisons Prometheus range queries. [`snapshot_json`] is the live plane's
//! other rendering of the same registry, by its own names.

use crate::json::Json;
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
        // Per-run traces, not scrape values — they stay in the run
        // report's registry.
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

/// The migration-round phase a monitor publishes as its `phase` gauge:
/// the gauge holds the variant's discriminant, `top` prints its name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationPhase {
    /// No round in flight.
    Idle = 0,
    /// A round is in flight (trigger sent, not yet done).
    Migrating = 1,
}

impl MigrationPhase {
    /// Stable lowercase name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            MigrationPhase::Idle => "idle",
            MigrationPhase::Migrating => "migrating",
        }
    }

    /// The phase a `phase` gauge value stands for.
    #[must_use]
    pub fn from_gauge(value: f64) -> Option<MigrationPhase> {
        [MigrationPhase::Idle, MigrationPhase::Migrating]
            .into_iter()
            .find(|p| f64::from(*p as u8) == value)
    }
}

/// One live snapshot — the `/snapshot` body and each `--snapshot-out`
/// line: `{seq, at_us, registry, hot_keys}`. `registry` is
/// [`MetricsRegistry::to_json`] of the registry given — the fold of
/// published parts, which carry no series, or the finished run's
/// [`MetricsRegistry::without_series`] (skipped for the reason
/// `to_prometheus` skips them); `hot_keys` maps an instance's label
/// (`inst.r3`) to its hottest `(key, weight)` pairs, heaviest first — the
/// one live fact that is not a scalar. Any two snapshots of a run give the
/// growth of every counter between them.
#[must_use]
pub fn snapshot_json(
    seq: u64,
    at_us: u64,
    registry: &MetricsRegistry,
    hot_keys: &[(String, Vec<(u64, u64)>)],
) -> Json {
    let hot = hot_keys.iter().map(|(label, keys)| {
        let keys = keys
            .iter()
            .map(|(k, w)| Json::obj([("key", Json::uint(*k)), ("weight", Json::uint(*w))]));
        (label.clone(), Json::arr(keys))
    });
    Json::obj([
        ("seq", Json::uint(seq)),
        ("at_us", Json::uint(at_us)),
        ("registry", registry.to_json()),
        ("hot_keys", Json::Obj(hot.collect())),
    ])
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

    #[test]
    fn snapshot_json_carries_the_scalars_and_the_hot_keys() {
        let hot = vec![("inst.r3".to_string(), vec![(999, 100), (7, 2)])];
        let registry = sample_registry().without_series();
        let rendered = snapshot_json(4, 42, &registry, &hot).to_string_compact();
        for key in [
            "\"seq\":4",
            "\"at_us\":42",
            "\"inst.r0.probes_handled\":7",
            "\"queue_depth\":3.5",
            "\"stage.probe_us\":{\"count\":100",
            "\"inst.r3\":[{\"key\":999,\"weight\":100},{\"key\":7,\"weight\":2}]",
        ] {
            assert!(rendered.contains(key), "missing {key} in {rendered}");
        }
        assert!(!rendered.contains("\"li\""), "series stay out of snapshots: {rendered}");
        // The JSON round-trips through our parser.
        Json::parse(&rendered).unwrap();
    }

    #[test]
    fn migration_phase_round_trips_through_its_gauge() {
        for (phase, name) in
            [(MigrationPhase::Idle, "idle"), (MigrationPhase::Migrating, "migrating")]
        {
            assert_eq!(phase.name(), name);
            assert_eq!(MigrationPhase::from_gauge(f64::from(phase as u8)), Some(phase));
        }
        assert_eq!(MigrationPhase::from_gauge(3.0), None);
    }
}
