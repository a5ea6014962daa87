//! Tier-1 e2e of the live introspection plane: the periodic snapshot
//! stream and the `/metrics` + `/snapshot` HTTP endpoint under load — both
//! views of the registry the report ends with — and the migration decision
//! audit in the run report.

use fastjoin::baselines::SystemKind;
use fastjoin::core::config::FastJoinConfig;
use fastjoin::core::json::Json;
use fastjoin::core::metrics::MetricValue;
use fastjoin::core::monitor::{DecisionOutcome, DecisionReason};
use fastjoin::core::telemetry::{prometheus_name, validate_prometheus};
use fastjoin::core::tuple::Tuple;
use fastjoin::runtime::{run_topology, RuntimeConfig};

/// One hot key carries 3/4 of the traffic — enough skew that the monitor
/// keeps evaluating (and auditing) round after round.
fn skewed_workload(n: u64) -> Vec<Tuple> {
    (0..n)
        .map(|i| {
            let key = if i % 4 != 0 { 999 } else { i % 97 };
            if i % 5 == 0 {
                Tuple::r(key, 0, i)
            } else {
                Tuple::s(key, 0, i)
            }
        })
        .collect()
}

fn base_cfg() -> RuntimeConfig {
    RuntimeConfig {
        system: SystemKind::FastJoin,
        fastjoin: FastJoinConfig {
            instances_per_group: 4,
            theta: 1.2,
            migration_cooldown: 50_000,
            ..FastJoinConfig::default()
        },
        monitor_period_ms: 10,
        rate_limit: Some(60_000.0),
        ..RuntimeConfig::default()
    }
}

fn u(j: &Json, key: &str) -> u64 {
    j.get(key).and_then(Json::as_u64).unwrap_or(u64::MAX)
}

#[test]
fn snapshot_stream_is_consistent_across_a_skewed_run() {
    let path =
        std::env::temp_dir().join(format!("fastjoin-test-snapshots-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let mut cfg = base_cfg();
    cfg.snapshot_interval_ms = 25;
    cfg.snapshot_path = Some(path.to_string_lossy().to_string());
    let report = run_topology(&cfg, skewed_workload(12_000));
    assert!(report.results_total > 0, "run must produce results");

    let stream = std::fs::read_to_string(&path).expect("snapshot stream written");
    let _ = std::fs::remove_file(&path);
    let snaps: Vec<Json> = stream
        .lines()
        .map(|l| Json::parse(l).expect("every stream line is one JSON snapshot"))
        .collect();
    assert!(snaps.len() >= 2, "a ~200 ms run at 25 ms interval yields several snapshots");

    // The last line is the finished registry, entry for entry.
    let last = snaps.last().and_then(|s| s.get("registry")).expect("last line has a registry");
    let finished = report.registry.without_series().to_json().to_string_compact();
    assert_eq!(last, &Json::parse(&finished).expect("registry JSON"));

    let mut prev_seq = 0;
    let mut prev_at = 0;
    let mut seen = 0;
    let mut prev_counters: Vec<(String, u64)> = Vec::new();
    for snap in &snaps {
        let seq = u(snap, "seq");
        assert!(seq > prev_seq, "seq strictly increasing, got {seq} after {prev_seq}");
        let at = u(snap, "at_us");
        assert!(at >= prev_at, "snapshot timestamps monotone");
        prev_seq = seq;
        prev_at = at;

        let registry = snap.get("registry").expect("every snapshot has a registry");
        let Json::Obj(entries) = registry else { panic!("a snapshot's registry is an object") };
        for (name, value) in entries {
            // One vocabulary: a name on a mid-run snapshot is a name of the
            // finished registry.
            let fin = report.registry.get(name);
            assert!(fin.is_some(), "snapshot {seq} has {name}, the report does not");
            seen += 1;
            // Counters are monotone across snapshots (any two lines of the
            // stream give a counter's growth between them).
            if matches!(fin, Some(MetricValue::Counter(_))) {
                let total = value.as_u64().expect("a counter renders as an integer");
                let before = prev_counters.iter_mut().find(|(n, _)| n == name);
                match before {
                    Some((_, t)) => {
                        assert!(total >= *t, "counter {name} went backwards: {t} -> {total}");
                        *t = total;
                    }
                    None => prev_counters.push((name.clone(), total)),
                }
            }
            // `queue.depth` has one meaning, live and final: the inbox's
            // high-water mark.
            if let (true, Some(MetricValue::Gauge(hwm))) = (name.ends_with(".queue.depth"), fin) {
                let live = value.as_num().expect("a gauge renders as a number");
                assert!(live <= *hwm, "{name} is {live} mid-run and {hwm} in the report");
            }
        }
        // The skew-heatmap rows ride along, keyed by instance label.
        let Some(Json::Obj(hot)) = snap.get("hot_keys") else { panic!("hot_keys object") };
        for (label, keys) in hot {
            assert!(
                report.registry.get(&format!("{label}.load")).is_some(),
                "{label} is no instance"
            );
            assert!(keys.as_arr().is_some_and(|k| !k.is_empty()), "{label} has hot keys");
        }
    }
    assert!(seen > 0 && !prev_counters.is_empty(), "the stream carried metrics");
}

/// The `# TYPE` lines of a Prometheus exposition: `(name, kind)`.
fn typed_names(text: &str) -> Vec<(String, String)> {
    text.lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .filter_map(|l| l.split_once(' '))
        .map(|(name, kind)| (name.to_string(), kind.to_string()))
        .collect()
}

#[test]
fn metrics_endpoint_serves_valid_prometheus_under_load() {
    use std::io::{Read as _, Write as _};

    const PORT: u16 = 38917;
    let runner = std::thread::spawn(move || {
        let mut cfg = base_cfg();
        cfg.rate_limit = Some(15_000.0); // ~2 s run: plenty of mid-run polls
        cfg.serve_metrics = Some(PORT);
        run_topology(&cfg, skewed_workload(30_000))
    });

    let get = |path: &str| -> Option<String> {
        let mut stream = std::net::TcpStream::connect(("127.0.0.1", PORT)).ok()?;
        stream.set_read_timeout(Some(std::time::Duration::from_secs(2))).ok()?;
        stream
            .write_all(format!("GET {path} HTTP/1.1\r\nConnection: close\r\n\r\n").as_bytes())
            .ok()?;
        let mut response = String::new();
        stream.read_to_string(&mut response).ok()?;
        let (head, body) = response.split_once("\r\n\r\n")?;
        assert!(head.starts_with("HTTP/1.1 200"), "unexpected status: {head}");
        Some(body.to_string())
    };

    // Poll mid-run until the server answers (it binds before the spout
    // starts, but this test must not race the bind).
    let mut polled = 0;
    let mut scraped: Vec<(String, String)> = Vec::new();
    let mut saw_hot_keys = false;
    for _ in 0..100 {
        if runner.is_finished() {
            break;
        }
        if let Some(text) = get("/metrics") {
            validate_prometheus(&text).expect("mid-run /metrics is valid Prometheus text");
            for typed in typed_names(&text) {
                if !scraped.contains(&typed) {
                    scraped.push(typed);
                }
            }
            // The run may end between the two requests; only a server that
            // stops answering while the run is live is a failure. The server
            // is stopped a moment before `run_topology` returns, so give
            // the runner that moment before judging.
            let Some(snap) = get("/snapshot") else {
                let winding_down = std::time::Instant::now();
                while !runner.is_finished() && winding_down.elapsed().as_millis() < 500 {
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
                assert!(runner.is_finished(), "server answers /snapshot while the run is live");
                break;
            };
            let snap = Json::parse(&snap).expect("mid-run /snapshot is valid JSON");
            assert!(u(&snap, "seq") >= 1, "on-demand snapshots allocate sequence numbers");
            // The very first poll can land before the first report tick
            // fills the hub, so presence is asserted cumulatively.
            saw_hot_keys |= matches!(snap.get("hot_keys"), Some(Json::Obj(h)) if !h.is_empty());
            polled += 1;
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    let report = runner.join().expect("topology run panicked");
    assert!(report.results_total > 0);
    assert!(polled > 0, "at least one successful mid-run /metrics + /snapshot poll");
    assert!(saw_hot_keys, "some mid-run snapshot carries the instances' hot keys");

    // Every name the live scrape exposed is a name of the finished
    // registry, of the same kind.
    let finished: Vec<(String, &str)> = report
        .registry
        .iter()
        .filter_map(|(name, value)| {
            let kind = match value {
                MetricValue::Counter(_) => "counter",
                MetricValue::Gauge(_) => "gauge",
                MetricValue::Histogram(_) => "summary",
                MetricValue::Series(_) => return None, // never exposed
            };
            Some((prometheus_name(name), kind))
        })
        .collect();
    for (name, kind) in &scraped {
        assert!(
            finished.iter().any(|(n, k)| n == name && k == kind),
            "/metrics exposed {name} ({kind}), which the report's registry does not have"
        );
    }
    // And the stage histograms and backpressure counters are among them:
    // which layer is the bottleneck can be read while the run is alive.
    for live in [
        "fastjoin_dispatcher_stage_dispatch_us",
        "fastjoin_inst_s0_stage_queue_wait_us",
        "fastjoin_inst_s0_stage_probe_us",
        "fastjoin_stage_emit_us",
        "fastjoin_dispatcher_sends_parked",
        "fastjoin_inst_r0_sends_parked",
        "fastjoin_monitor_r_imbalance",
    ] {
        assert!(scraped.iter().any(|(n, _)| n == live), "{live} was not on /metrics mid-run");
    }
}

/// `fjbench/src/phases.rs` selects registry entries by suffix — gauges
/// ending in `.queue.depth` for `runtime.queue_depth_hwm`, counters ending
/// in `sends_parked` for `runtime.sends_parked`, histograms ending in a
/// `stage.*_us` name for the `runtime.stage_*_us_mean`s — so a new entry
/// ending in one of them silently changes a benchmark number. With every
/// instance fed (the histograms appear with their first sample) the
/// selected sets are exactly these.
#[test]
fn report_entries_the_benchmark_selects_by_suffix_are_a_fixed_set() {
    let report = run_topology(&base_cfg(), skewed_workload(6_000));
    let n = base_cfg().fastjoin.instances_per_group;
    let instances = || (0..2 * n).map(|i| format!("inst.{}{}", ["r", "s"][i / n], i % n));
    let selected = |suffix: &str, kind: fn(&MetricValue) -> bool| -> Vec<String> {
        let names = report.registry.iter().filter(|(name, v)| name.ends_with(suffix) && kind(v));
        names.map(|(name, _)| name.to_string()).collect()
    };
    let sorted = |mut names: Vec<String>| {
        names.sort();
        names
    };
    let per_instance = |what: &str| instances().map(|i| format!("{i}.{what}")).collect::<Vec<_>>();
    let is_gauge = |v: &MetricValue| matches!(v, MetricValue::Gauge(_));
    let is_counter = |v: &MetricValue| matches!(v, MetricValue::Counter(_));
    let is_histogram = |v: &MetricValue| matches!(v, MetricValue::Histogram(_));

    assert_eq!(selected(".queue.depth", is_gauge), sorted(per_instance("queue.depth")));
    let mut parked = per_instance("sends_parked");
    parked.extend(["dispatcher.sends_parked".to_string(), "monitor.sends_parked".to_string()]);
    assert_eq!(selected("sends_parked", is_counter), sorted(parked));
    assert_eq!(selected("stage.dispatch_us", is_histogram), ["dispatcher.stage.dispatch_us"]);
    assert_eq!(
        selected("stage.queue_wait_us", is_histogram),
        sorted(per_instance("stage.queue_wait_us"))
    );
    assert_eq!(selected("stage.probe_us", is_histogram), sorted(per_instance("stage.probe_us")));
    assert_eq!(selected("stage.emit_us", is_histogram), ["stage.emit_us"]);
}

#[test]
fn decision_audit_explains_every_committed_round() {
    let report = run_topology(&base_cfg(), skewed_workload(30_000));
    let all: Vec<_> = report.decisions.iter().flatten().collect();
    assert!(!all.is_empty(), "a skewed run must audit at least one decision");
    let triggered = all.iter().filter(|d| d.reason == DecisionReason::Triggered).count() as u64;
    let stats_triggered: u64 = report.monitor_stats.iter().flatten().map(|s| s.triggered).sum();
    assert_eq!(
        triggered, stats_triggered,
        "every committed round has exactly one triggered decision"
    );
    for d in &all {
        match d.outcome {
            DecisionOutcome::Rejected => {
                assert!(d.epoch.is_none(), "rejections allocate no epoch");
                assert_ne!(d.reason, DecisionReason::Triggered, "rejections carry a reason");
            }
            DecisionOutcome::Pending | DecisionOutcome::Effective | DecisionOutcome::Abandoned => {
                assert!(d.epoch.is_some(), "committed rounds carry their epoch");
                assert_eq!(d.reason, DecisionReason::Triggered);
            }
        }
        assert!(d.imbalance > 1.0, "decisions are only recorded when LI is meaningful");
    }
}

#[test]
fn cooldown_rejections_carry_the_cooldown_reason() {
    let mut cfg = base_cfg();
    // An hour-long cooldown: no round can ever trigger, so every LI > Θ
    // evaluation must be audited as a cooldown rejection.
    cfg.fastjoin.migration_cooldown = 3_600_000_000;
    let report = run_topology(&cfg, skewed_workload(12_000));
    assert_eq!(report.migrations(), 0, "cooldown pins the monitor");
    let all: Vec<_> = report.decisions.iter().flatten().collect();
    assert!(!all.is_empty(), "rejected evaluations still audited");
    for d in &all {
        assert_eq!(d.reason, DecisionReason::Cooldown, "only cooldown rejections possible");
        assert_eq!(d.outcome, DecisionOutcome::Rejected);
        assert!(d.epoch.is_none());
    }
}
