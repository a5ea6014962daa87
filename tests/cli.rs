//! End-to-end tests of the `fastjoin-cli` binary (spawned as a process,
//! exactly as a user runs it).

use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_fastjoin-cli"))
}

fn run(args: &[&str]) -> (bool, String, String) {
    let out = cli().args(args).output().expect("spawn fastjoin-cli");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn census_reports_the_fig1_skew() {
    let (ok, stdout, _) =
        run(&["census", "--locations", "2000", "--orders", "40000", "--tracks", "160000"]);
    assert!(ok);
    assert!(stdout.contains("orders:"), "{stdout}");
    assert!(stdout.contains("tracks:"), "{stdout}");
    assert!(stdout.contains("80% of tuples in"), "{stdout}");
}

#[test]
fn simulate_runs_and_writes_csv() {
    let dir = std::env::temp_dir().join(format!("fjcli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let csv = dir.join("series.csv");
    let (ok, stdout, stderr) = run(&[
        "simulate",
        "--gb",
        "1",
        "--secs",
        "6",
        "--instances",
        "4",
        "--csv",
        csv.to_str().unwrap(),
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("avg throughput"), "{stdout}");
    let text = std::fs::read_to_string(&csv).unwrap();
    assert!(text.starts_with("second,throughput,latency_us,imbalance"));
    assert!(text.lines().count() > 2, "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn gen_then_replay_trace_round_trips() {
    let dir = std::env::temp_dir().join(format!("fjcli-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("t.csv");
    let (ok, stdout, _) = run(&[
        "gen",
        "--out",
        trace.to_str().unwrap(),
        "--workload",
        "gxy",
        "--x",
        "0",
        "--y",
        "1",
    ]);
    assert!(ok);
    assert!(stdout.contains("wrote"), "{stdout}");
    let (ok, stdout, stderr) =
        run(&["simulate", "--trace", trace.to_str().unwrap(), "--instances", "4", "--secs", "5"]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("results"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_inputs_fail_with_named_errors() {
    for (args, needle) in [
        (vec!["frobnicate"], "unknown command"),
        (vec!["simulate", "--selector", "banana", "--gb", "1"], "unknown selector"),
        (vec!["simulate", "--instances", "lots"], "bad value for --instances"),
        (vec!["simulate", "--selector"], "needs a value"),
        (vec!["gen"], "requires --out"),
        (vec!["simulate", "--workload", "gxy", "--x", "9", "--gb", "1"], "0, 1 or 2"),
        (vec!["simulate", "--trace", "/nonexistent/file"], "No such file"),
        (
            vec!["topology", "--orders", "2000", "--tracks", "2000", "--batch-size", "0"],
            "unknown flag --batch-size for topology",
        ),
        (vec!["census", "--locatoins", "5"], "unknown flag --locatoins for census"),
    ] {
        let (ok, _, stderr) = run(&args);
        assert!(!ok, "{args:?} should fail");
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
    }
}

#[test]
fn no_arguments_prints_usage_and_fails() {
    let (ok, _, stderr) = run(&[]);
    assert!(!ok);
    assert!(stderr.contains("usage:"), "{stderr}");
}

#[test]
fn unknown_command_usage_lists_every_subcommand() {
    let (ok, _, stderr) = run(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("usage:"), "{stderr}");
    for cmd in ["simulate", "compare", "topology", "census", "gen", "chaos", "trace", "top"] {
        assert!(stderr.contains(&format!("\n{cmd} ")), "usage must list {cmd}: {stderr}");
    }
    let (ok, _, stderr) = run(&["bench"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command \"bench\""), "{stderr}");
}

/// A journal and a snapshot stream the runtime wrote parse through the
/// `trace` and `top` verbs. Whether a migration happened in so short a
/// run is timing, so nothing here asks.
#[test]
fn topology_journal_round_trips_through_the_trace_verb() {
    let dir = std::env::temp_dir().join(format!("fjcli-journal-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("journal.jsonl");
    let snapshots = dir.join("snapshots.jsonl");
    let (ok, stdout, stderr) = run(&[
        "topology",
        "--instances",
        "12",
        "--orders",
        "2000",
        "--tracks",
        "2000",
        "--trace-out",
        journal.to_str().unwrap(),
        "--snapshot-ms",
        "20",
        "--snapshot-out",
        snapshots.to_str().unwrap(),
    ]);
    assert!(ok, "stdout: {stdout}\nstderr: {stderr}");
    let (ok, summary, stderr) = run(&["trace", "--journal", journal.to_str().unwrap()]);
    assert!(ok, "stderr: {stderr}");
    assert!(summary.contains("0 dropped"), "{summary}");
    assert!(summary.contains("\n  dispatcher "), "{summary}");
    // `top` reads its table off the names of the last snapshot's registry.
    let (ok, table, stderr) = run(&["top", "--file", snapshots.to_str().unwrap()]);
    assert!(ok, "stderr: {stderr}");
    for row in ["group r: LI=", "group s: LI=", " phase=idle epoch=0 "] {
        assert!(table.contains(row), "no {row:?} in:\n{table}");
    }
    // Instance rows come in (group, numeric id) order, not in the
    // registry's text order (`inst.r10` before `inst.r2`).
    let at = |row: &str| table.find(row).unwrap_or_else(|| panic!("no {row:?} in:\n{table}"));
    let rows = ["\n  r0 ", "\n  r2 ", "\n  r10 ", "\n  r11 ", "\n  s0 ", "\n  s9 ", "\n  s11 "];
    assert!(rows.windows(2).all(|w| at(w[0]) < at(w[1])), "rows out of order:\n{table}");
    assert!(table.contains("queues: collector.backlog_hwm="), "{table}");
    assert!(table.contains("supervisor: failures=0 restarts=0 degraded=false"), "{table}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_verb_rejects_missing_journal_and_unknown_round() {
    let (ok, _, stderr) = run(&["trace"]);
    assert!(!ok);
    assert!(stderr.contains("requires --journal"), "{stderr}");

    let dir = std::env::temp_dir().join(format!("fjcli-tracebad-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("j.jsonl");
    std::fs::write(&journal, "{\"schema\":\"fastjoin-trace-v1\",\"events\":0,\"dropped\":0}\n")
        .unwrap();
    let (ok, _, stderr) =
        run(&["trace", "--journal", journal.to_str().unwrap(), "--round", "424242"]);
    assert!(!ok);
    assert!(stderr.contains("no events for round"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

/// The target requests the route flip on `MigStart`, so the sequencer may
/// stage it before the target logs the `MigStore` that follows: `trace
/// --round` must accept that interleaving, and still reject a store that
/// lands after the round's `MigEnd`.
#[test]
fn trace_round_orders_the_flip_and_the_store_against_mig_end_only() {
    use fastjoin::core::trace::{Actor, TraceEvent, TraceKind};

    let (mon, src, tgt, disp) =
        (Actor::monitor(0), Actor::instance(0, 0), Actor::instance(0, 1), Actor::dispatcher());
    let journal_of = |order: &[(Actor, TraceKind)]| {
        let mut text = String::from("{\"schema\":\"fastjoin-trace-v1\",\"dropped\":0}\n");
        for (i, &(actor, kind)) in order.iter().enumerate() {
            let ev = TraceEvent::control(10 * (i as u64 + 1), actor, kind, 7, 0);
            text.push_str(&ev.to_json().to_string());
            text.push('\n');
        }
        text
    };
    let dir = std::env::temp_dir().join(format!("fjcli-traceorder-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("j.jsonl");
    let check = |order: &[(Actor, TraceKind)]| {
        std::fs::write(&journal, journal_of(order)).unwrap();
        run(&["trace", "--journal", journal.to_str().unwrap(), "--round", "7", "--group", "r"])
    };

    let (ok, timeline, stderr) = check(&[
        (mon, TraceKind::MigTrigger),
        (src, TraceKind::MigCmd),
        (tgt, TraceKind::MigStart),
        (disp, TraceKind::RouteStaged),
        (tgt, TraceKind::MigStore),
        (tgt, TraceKind::MigEnd),
        (mon, TraceKind::MigDone),
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(timeline.contains("timeline OK"), "{timeline}");

    // The same journal without `--round`: the summary counts events per
    // actor and lists the round as closed (it reached `MigDone`).
    let (ok, summary, stderr) = run(&["trace", "--journal", journal.to_str().unwrap()]);
    assert!(ok, "stderr: {stderr}");
    assert!(summary.contains("7 events, 0 dropped"), "{summary}");
    assert!(summary.contains("\n  inst.r1      3\n"), "{summary}");
    assert!(summary.contains("migration rounds"), "{summary}");
    assert!(summary.contains("group r round 7: 7 events, closed"), "{summary}");

    let (ok, _, stderr) = check(&[
        (tgt, TraceKind::MigStart),
        (disp, TraceKind::RouteStaged),
        (tgt, TraceKind::MigEnd),
        (tgt, TraceKind::MigStore),
    ]);
    assert!(!ok);
    assert!(stderr.contains("MigStore appears after MigEnd"), "{stderr}");

    let (ok, _, stderr) = check(&[(disp, TraceKind::RouteStaged), (tgt, TraceKind::MigStart)]);
    assert!(!ok);
    assert!(stderr.contains("MigStart appears after RouteStaged"), "{stderr}");

    // A round that flipped must have had its route applied.
    let (ok, _, stderr) = check(&[(tgt, TraceKind::MigStart), (tgt, TraceKind::MigEnd)]);
    assert!(!ok);
    assert!(stderr.contains("MigEnd without an applied route"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Every applied flip bumps its group's route version: two `RouteStaged`
/// events of one group carrying the same version are rejected, whichever
/// round is asked for — and the other group's versions are its own.
#[test]
fn trace_round_rejects_a_repeated_route_version() {
    use fastjoin::core::trace::{Actor, TraceEvent, TraceKind};

    let staged = |at: u64, epoch: u64, version: u64, group: u64| TraceEvent {
        aux2: group,
        ..TraceEvent::control(at, Actor::dispatcher(), TraceKind::RouteStaged, epoch, version)
    };
    let journal_of = |events: &[TraceEvent]| {
        let mut text = String::from("{\"schema\":\"fastjoin-trace-v1\",\"dropped\":0}\n");
        for ev in events {
            text.push_str(&ev.to_json().to_string());
            text.push('\n');
        }
        text
    };
    let dir = std::env::temp_dir().join(format!("fjcli-traceversion-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("j.jsonl");
    let check = |events: &[TraceEvent], round: &str| {
        std::fs::write(&journal, journal_of(events)).unwrap();
        run(&["trace", "--journal", journal.to_str().unwrap(), "--round", round, "--group", "r"])
    };

    let (ok, timeline, stderr) = check(&[staged(10, 1, 2, 0), staged(20, 2, 3, 0)], "1");
    assert!(ok, "stderr: {stderr}");
    assert!(timeline.contains("timeline OK"), "{timeline}");

    let repeated = [staged(10, 1, 2, 0), staged(15, 1, 2, 1), staged(20, 2, 2, 0)];
    for round in ["1", "2"] {
        let (ok, _, stderr) = check(&repeated, round);
        assert!(!ok, "round {round} passed with a repeated version");
        assert!(stderr.contains("route versions not monotone: [2, 2]"), "{stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn malformed_trace_names_the_line() {
    let dir = std::env::temp_dir().join(format!("fjcli-bad-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad.csv");
    std::fs::write(&bad, "R,1,2,3\nX,broken\n").unwrap();
    let (ok, _, stderr) = run(&["simulate", "--trace", bad.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("line 2"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}
