//! Tier-1 e2e of the live introspection plane: the periodic
//! `RuntimeSnapshot` stream (consistency across snapshots), the
//! `/metrics` + `/snapshot` HTTP endpoint under load, and the migration
//! decision audit in the run report.

use fastjoin::baselines::SystemKind;
use fastjoin::core::config::FastJoinConfig;
use fastjoin::core::json::Json;
use fastjoin::core::monitor::{DecisionOutcome, DecisionReason};
use fastjoin::core::telemetry::validate_prometheus;
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

    let mut prev_seq = 0;
    let mut prev_at = 0;
    let mut prev_counters: Vec<(String, u64)> = Vec::new();
    for snap in &snaps {
        let seq = u(snap, "seq");
        assert!(seq > prev_seq, "seq strictly increasing, got {seq} after {prev_seq}");
        let at = u(snap, "at_us");
        assert!(at >= prev_at, "snapshot timestamps monotone");
        prev_seq = seq;
        prev_at = at;

        // Counters are monotone across snapshots, and each delta accounts
        // exactly for the growth since the previous snapshot.
        let counters = snap.get("counters").and_then(Json::as_arr).expect("counters array");
        for c in counters {
            let name = c.get("name").and_then(Json::as_str).expect("counter name").to_string();
            let total = u(c, "total");
            let delta = u(c, "delta");
            let before =
                prev_counters.iter().find(|(n, _)| *n == name).map(|(_, t)| *t).unwrap_or(0);
            assert!(total >= before, "counter {name} went backwards: {before} -> {total}");
            assert_eq!(delta, total - before, "counter {name} delta mismatch");
            match prev_counters.iter_mut().find(|(n, _)| *n == name) {
                Some((_, t)) => *t = total,
                None => prev_counters.push((name, total)),
            }
        }

        // The skew heatmap rows: every instance reports a load and its
        // hottest keys; groups report a valid migration phase.
        let instances = snap.get("instances").and_then(Json::as_arr).expect("instances");
        assert_eq!(instances.len(), 8, "4 R + 4 S instances probed");
        for p in instances {
            assert!(u(p, "load") != u64::MAX, "instance load present");
            assert!(u(p, "queue_depth") != u64::MAX, "queue depth present");
            assert!(p.get("hot_keys").and_then(Json::as_arr).is_some(), "hot keys present");
        }
        let groups = snap.get("groups").and_then(Json::as_arr).expect("groups");
        assert_eq!(groups.len(), 2);
        for g in groups {
            let phase = g.get("phase").and_then(Json::as_str).expect("phase");
            assert!(
                ["idle", "migrating", "aborting"].contains(&phase),
                "snapshot during a run reports a valid phase, got {phase:?}"
            );
            assert!(g.get("imbalance").and_then(Json::as_num).is_some(), "LI present");
        }
    }
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
    let mut saw_probes = false;
    for _ in 0..100 {
        if runner.is_finished() {
            break;
        }
        if let Some(text) = get("/metrics") {
            validate_prometheus(&text).expect("mid-run /metrics is valid Prometheus text");
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
            // fills the hub, so probe presence is asserted cumulatively.
            saw_probes |=
                snap.get("instances").and_then(Json::as_arr).is_some_and(|a| !a.is_empty());
            polled += 1;
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    let report = runner.join().expect("topology run panicked");
    assert!(report.results_total > 0);
    assert!(polled > 0, "at least one successful mid-run /metrics + /snapshot poll");
    assert!(saw_probes, "some mid-run snapshot carries instance probes");
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
            DecisionOutcome::Pending
            | DecisionOutcome::Effective
            | DecisionOutcome::Abandoned
            | DecisionOutcome::Aborted => {
                assert!(d.epoch.is_some(), "committed rounds carry their epoch");
                assert_eq!(d.reason, DecisionReason::Triggered);
            }
        }
        assert!(d.imbalance > 1.0, "decisions are only recorded when LI is meaningful");
    }
    // The report JSON exposes the audit under groups[].decisions.
    let rendered = report.to_json().to_string_compact();
    assert!(rendered.contains("\"decisions\""));
    assert!(rendered.contains("\"reason\""));
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
