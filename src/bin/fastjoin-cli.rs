//! `fastjoin-cli` — run FastJoin experiments from the command line.
//!
//! ```text
//! fastjoin-cli simulate [--system fastjoin|bistream|contrand|broadcast]
//!                       [--workload ridehail|gxy] [--x 0..2] [--y 0..2]
//!                       [--instances N] [--theta F] [--gb N] [--secs N]
//!                       [--selector greedy|safit|dp] [--cost hash|nested]
//!                       [--trace PATH]           # replay a saved trace
//!                       [--csv PATH]             # dump per-second series
//! fastjoin-cli compare  [--instances N] [--theta F] [--gb N] [--secs N]
//! fastjoin-cli topology [--instances N] [--orders N] [--tracks N]
//!                       [--rate N] [--theta F]
//!                       [--snapshot-ms N] [--snapshot-out PATH]
//!                       [--serve-metrics PORT]
//!                       # introspection plane: periodic snapshots of the
//!                       # run's metrics registry to a JSONL sink and/or a
//!                       # live /metrics + /snapshot HTTP endpoint (all off
//!                       # by default)
//!                       [--trace-out PATH]       # the run's trace journal
//! fastjoin-cli census   [--locations N] [--orders N] [--tracks N]
//! fastjoin-cli gen      --out PATH [--workload ridehail|gxy] [--x ..] [--y ..]
//! fastjoin-cli chaos    [--seeds N] [--tuples N] [--out PATH] [--class NAME]
//!                       [--batch-size N] [--channel-cap N]
//!                       [--trace-out PATH]
//!                       # seeded fault-schedule matrix → CHAOS_report.json;
//!                       # --trace-out ships the first failing run's journal
//! fastjoin-cli trace    --journal PATH [--round N] [--group r|s]
//!                       [--kind NAME] [--actor LABEL] [--allow-drops true]
//!                       # summarize a trace journal, or reconstruct one
//!                       # migration round's phase timeline; exits non-zero
//!                       # on dropped events unless --allow-drops
//! fastjoin-cli top      (--port N | --file PATH) [--iters N]
//!                       [--interval-ms N]
//!                       # live instances × load/queue/hot-keys table from
//!                       # a running topology's /snapshot endpoint or its
//!                       # --snapshot-out stream
//! ```
//!
//! The `chaos` command replays the fault classes of the in-tree chaos
//! suite — executor crashes at each migration-protocol phase and message
//! delay/drop/duplicate/reorder — across `--seeds` distinct seeds per
//! class, asserting exactly-once output against a single-threaded oracle
//! on every run. Faults come from the runtime's [`FaultPlan`]: executor
//! kill-switches pinned to protocol phases, per-channel delay on the
//! (FIFO, lossless) data plane, and drop/dup/reorder on best-effort
//! monitor reports.
//!
//! Argument parsing is hand-rolled (no CLI dependency); every flag has a
//! sensible default matching the paper's setup.

use std::collections::HashMap;
use std::process::ExitCode;

use fastjoin::baselines::SystemKind;
use fastjoin::core::config::SelectorKind;
use fastjoin::core::tuple::{Side, Tuple};
use fastjoin::datagen::ridehail::{RideHailConfig, RideHailGen};
use fastjoin::datagen::stats::KeyCensus;
use fastjoin::datagen::synthetic::{SyntheticConfig, SyntheticGen};
use fastjoin::datagen::{read_trace, write_trace};
use fastjoin::runtime::{run_topology, RuntimeConfig};
use fastjoin::sim::experiment::{run_with, summarize, ExperimentParams};
use fastjoin::sim::{CostKind, CostModel};

/// Parsed `--flag value` arguments.
struct Args {
    flags: HashMap<String, String>,
}

impl Args {
    /// Parses `verb`'s arguments. `accepted` is the space-separated list of
    /// flag names the verb reads; any other flag is an error, so a typo
    /// fails instead of silently running with the default.
    fn parse(verb: &str, accepted: &str, argv: &[String]) -> Result<Self, String> {
        let mut flags = HashMap::new();
        let mut it = argv.iter();
        while let Some(a) = it.next() {
            let Some(name) = a.strip_prefix("--") else {
                return Err(format!("unexpected argument {a:?} (flags are --name value)"));
            };
            if !accepted.split_whitespace().any(|flag| flag == name) {
                return Err(format!("unknown flag --{name} for {verb}"));
            }
            let value = it.next().ok_or_else(|| format!("flag --{name} needs a value"))?.clone();
            flags.insert(name.to_string(), value);
        }
        Ok(Args { flags })
    }

    fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flags.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad value for --{name}: {v:?}")),
        }
    }

    fn get_str(&self, name: &str, default: &str) -> String {
        self.flags.get(name).cloned().unwrap_or_else(|| default.to_string())
    }
}

fn parse_system(s: &str) -> Result<SystemKind, String> {
    match s {
        "fastjoin" => Ok(SystemKind::FastJoin),
        "bistream" => Ok(SystemKind::BiStream),
        "contrand" => Ok(SystemKind::BiStreamContRand),
        "broadcast" => Ok(SystemKind::Broadcast),
        other => Err(format!("unknown system {other:?}")),
    }
}

fn build_workload(args: &Args) -> Result<Vec<Tuple>, String> {
    if let Some(path) = args.flags.get("trace") {
        let file = std::fs::File::open(path).map_err(|e| format!("open {path}: {e}"))?;
        return read_trace(file).map_err(|e| e.to_string());
    }
    match args.get_str("workload", "ridehail").as_str() {
        "ridehail" => {
            let gb: u64 = args.get("gb", 10)?;
            Ok(RideHailGen::new(&RideHailConfig::scaled_to_gb(gb)).collect())
        }
        "gxy" => {
            let x: u8 = args.get("x", 1)?;
            let y: u8 = args.get("y", 1)?;
            if x > 2 || y > 2 {
                return Err(format!(
                    "gxy exponents are 0, 1 or 2 (the paper's groups); got x={x} y={y}"
                ));
            }
            Ok(SyntheticGen::new(&SyntheticConfig::group(x, y)).collect())
        }
        other => Err(format!("unknown workload {other:?}")),
    }
}

fn cmd_simulate(argv: &[String]) -> Result<(), String> {
    let accepted = "system selector cost instances theta gb secs seed csv trace workload x y";
    let args = &Args::parse("simulate", accepted, argv)?;
    let system = parse_system(&args.get_str("system", "fastjoin"))?;
    let selector = match args.get_str("selector", "greedy").as_str() {
        "greedy" => SelectorKind::GreedyFit,
        "safit" => SelectorKind::SaFit,
        "dp" => SelectorKind::Dp,
        other => return Err(format!("unknown selector {other:?}")),
    };
    let cost = match args.get_str("cost", "hash").as_str() {
        "hash" => CostModel::default(),
        "nested" => CostModel {
            kind: CostKind::NestedLoop,
            per_comparison: CostModel::default().per_comparison / 50.0,
            per_match: CostModel::default().per_match / 50.0,
            ..CostModel::default()
        },
        other => return Err(format!("unknown cost model {other:?}")),
    };
    let params = ExperimentParams {
        instances: args.get("instances", 48)?,
        theta: args.get("theta", 2.2)?,
        gb: args.get("gb", 10)?,
        max_secs: args.get("secs", 60)?,
        selector,
        cost,
        seed: args.get("seed", 0xD1D1)?,
    };
    let workload = build_workload(args)?;
    println!(
        "simulating {} over {} tuples ({} instances, Θ = {})",
        system.label(),
        workload.len(),
        params.instances,
        params.theta
    );
    let report = run_with(system, &params, workload.into_iter());
    let s = summarize(system, &report);
    println!("results           : {}", report.results_total);
    println!("avg throughput    : {:.0} results/s", s.throughput);
    println!("avg latency       : {:.2} ms", s.latency_ms);
    println!("avg imbalance LI  : {:.2}", s.imbalance);
    println!("migrations        : {}", s.migrations);
    println!("sim duration      : {:.1} s", report.duration as f64 / 1e6);
    if let Some(path) = args.flags.get("csv") {
        let file = std::fs::File::create(path).map_err(|e| format!("create {path}: {e}"))?;
        fastjoin::sim::write_report_csv(file, &report).map_err(|e| e.to_string())?;
        println!("per-second series : {path}");
    }
    Ok(())
}

fn cmd_compare(argv: &[String]) -> Result<(), String> {
    let args = &Args::parse("compare", "instances theta gb secs trace workload x y", argv)?;
    let params = ExperimentParams {
        instances: args.get("instances", 48)?,
        theta: args.get("theta", 2.2)?,
        gb: args.get("gb", 10)?,
        max_secs: args.get("secs", 60)?,
        ..ExperimentParams::default()
    };
    println!(
        "comparing the paper's three systems ({} instances, Θ = {}, {} GB scale)",
        params.instances, params.theta, params.gb
    );
    println!(
        "{:<18} {:>14} {:>12} {:>8} {:>6}",
        "system", "throughput/s", "latency ms", "LI", "migs"
    );
    let mut first = None;
    for sys in SystemKind::headline() {
        let workload = build_workload(args)?;
        let s = summarize(sys, &run_with(sys, &params, workload.into_iter()));
        println!(
            "{:<18} {:>14.0} {:>12.2} {:>8.2} {:>6}",
            s.system, s.throughput, s.latency_ms, s.imbalance, s.migrations
        );
        if first.is_none() {
            first = Some(s.throughput);
        } else if sys == SystemKind::BiStream {
            let gain = (first.unwrap_or(0.0) / s.throughput.max(1.0) - 1.0) * 100.0;
            println!("FastJoin vs BiStream: {gain:+.1} % (paper: +31.7 %)");
        }
    }
    Ok(())
}

fn cmd_topology(argv: &[String]) -> Result<(), String> {
    let accepted = "system instances theta queue-cap dispatcher-shards monitor-ms rate \
                    snapshot-ms serve-metrics snapshot-out trace-out orders tracks locations";
    let args = &Args::parse("topology", accepted, argv)?;
    let cfg = RuntimeConfig {
        system: parse_system(&args.get_str("system", "fastjoin"))?,
        fastjoin: fastjoin::core::config::FastJoinConfig {
            instances_per_group: args.get("instances", 8)?,
            theta: args.get("theta", 2.2)?,
            migration_cooldown: 100_000,
            ..Default::default()
        },
        queue_cap: args.get("queue-cap", 1024)?,
        dispatcher_shards: args.get("dispatcher-shards", 1)?,
        monitor_period_ms: args.get("monitor-ms", 25)?,
        rate_limit: {
            let r: f64 = args.get("rate", 0.0)?;
            (r > 0.0).then_some(r)
        },
        snapshot_interval_ms: args.get("snapshot-ms", 0)?,
        serve_metrics: match args.flags.get("serve-metrics") {
            None => None,
            Some(v) => {
                Some(v.parse().map_err(|_| format!("bad value for --serve-metrics: {v:?}"))?)
            }
        },
        snapshot_path: args.flags.get("snapshot-out").cloned(),
        ..RuntimeConfig::default()
    };
    cfg.validate()?;
    let wl = RideHailGen::new(&RideHailConfig {
        orders: args.get("orders", 50_000)?,
        tracks: args.get("tracks", 200_000)?,
        locations: args.get("locations", 2_000)?,
        ..RideHailConfig::default()
    });
    println!("running threaded topology ({} join threads)…", 2 * cfg.fastjoin.instances_per_group);
    if let Some(port) = cfg.serve_metrics {
        println!("serving /metrics and /snapshot on http://127.0.0.1:{port}");
    }
    let report = run_topology(&cfg, wl);
    println!("results        : {}", report.results_total);
    println!("throughput     : {:.0} results/s", report.results_per_sec());
    println!("mean latency   : {:.2} ms", report.mean_latency_us() / 1000.0);
    println!("migrations     : {}", report.migrations());
    if let Some(path) = args.flags.get("trace-out") {
        std::fs::write(path, report.trace.to_jsonl()).map_err(|e| format!("write {path}: {e}"))?;
        println!("trace journal  : {path} ({} events)", report.trace.len());
    }
    let mut tally = std::collections::BTreeMap::new();
    for d in report.decisions.iter().flatten() {
        *tally.entry((d.reason.name(), d.outcome.name())).or_insert(0u64) += 1;
    }
    if !tally.is_empty() {
        let audited: u64 = tally.values().sum();
        let by_kind: Vec<String> =
            tally.iter().map(|((reason, outcome), n)| format!("{reason}/{outcome} {n}")).collect();
        println!("decisions      : {audited} audited — {}", by_kind.join(", "));
        println!(
            "                 (each is a MigDecision event of the journal: --trace-out PATH, \
             then `trace --journal PATH --round N`)"
        );
    }
    Ok(())
}

fn cmd_census(argv: &[String]) -> Result<(), String> {
    let args = &Args::parse("census", "locations orders tracks", argv)?;
    let cfg = RideHailConfig {
        locations: args.get("locations", 20_000)?,
        orders: args.get("orders", 200_000)?,
        tracks: args.get("tracks", 800_000)?,
        ..RideHailConfig::default()
    };
    let tuples: Vec<Tuple> = RideHailGen::new(&cfg).collect();
    for (name, side) in [("orders", Side::R), ("tracks", Side::S)] {
        let census = KeyCensus::from_keys(tuples.iter().filter(|t| t.side == side).map(|t| t.key));
        println!(
            "{name}: {} tuples, {} keys, c = {:.1}, 80% of tuples in {:.1}% of locations",
            census.total(),
            census.distinct_keys(),
            census.mean_tuples_per_key(),
            census.fraction_of_keys_for_share(0.8, cfg.locations as usize) * 100.0
        );
    }
    Ok(())
}

fn cmd_gen(argv: &[String]) -> Result<(), String> {
    let args = &Args::parse("gen", "out trace workload gb x y", argv)?;
    let path = args.flags.get("out").ok_or_else(|| "gen requires --out PATH".to_string())?;
    let workload = build_workload(args)?;
    let file = std::fs::File::create(path).map_err(|e| format!("create {path}: {e}"))?;
    let n = write_trace(file, workload).map_err(|e| e.to_string())?;
    println!("wrote {n} tuples to {path}");
    Ok(())
}

/// The chaos matrix: every fault class of the in-tree suite, replayed
/// across `--seeds` distinct seeds each, every run checked exactly-once
/// against a single-threaded oracle, triggered migration rounds included
/// (`RuntimeReport::exactly_once_violations`). The run-by-run outcome is
/// written as a JSON failure report (`--out`, default `CHAOS_report.json`)
/// so CI can upload it as an artifact when the command exits non-zero.
fn cmd_chaos(argv: &[String]) -> Result<(), String> {
    use fastjoin::core::config::FastJoinConfig;
    use fastjoin::core::json::Json;
    use fastjoin::runtime::{try_run_topology, FaultPlan, SupervisionConfig};

    let accepted = "seeds tuples out class batch-size channel-cap dispatcher-shards trace-out";
    let args = &Args::parse("chaos", accepted, argv)?;
    let seeds: u64 = args.get("seeds", 100)?;
    let tuples_n: u64 = args.get("tuples", 6_000)?;
    let out = args.get_str("out", "CHAOS_report.json");
    let only = args.flags.get("class").cloned();
    // Data-plane knobs: CI runs the matrix at `--batch-size 1` (the
    // historical fault space), 8 and the default 64, so batch boundaries
    // straddling protocol messages get the full seed sweep.
    let batch_size: usize = args.get("batch-size", 1)?;
    let channel_cap: usize = args.get("channel-cap", 256)?;
    let dispatcher_shards: usize = args.get("dispatcher-shards", 1)?;
    if dispatcher_shards == 0 {
        return Err("--dispatcher-shards must be ≥ 1".to_string());
    }
    if batch_size < 1 {
        return Err(format!("--batch-size must be ≥ 1, got {batch_size}"));
    }
    if channel_cap < batch_size {
        return Err(format!(
            "--channel-cap ({channel_cap}) must be at least --batch-size ({batch_size}): \
             a channel smaller than one batch starves the dispatcher"
        ));
    }

    // Same skewed shape as the in-tree suite: twelve medium-hot keys so
    // GreedyFit migrates eagerly with probes in flight mid-round.
    let workload = |salt: u64| -> Vec<Tuple> {
        (0..tuples_n)
            .map(|i| {
                let key = if i % 4 != 0 { 1000 + ((i + salt) % 12) } else { (i + salt) % 97 };
                if i % 5 == 0 {
                    Tuple::r(key, 0, i)
                } else {
                    Tuple::s(key, 0, i)
                }
            })
            .collect()
    };
    let oracle = |tuples: &[Tuple]| -> u64 {
        let mut r = HashMap::new();
        let mut s = HashMap::new();
        for t in tuples {
            match t.side {
                Side::R => *r.entry(t.key).or_insert(0u64) += 1,
                Side::S => *s.entry(t.key).or_insert(0u64) += 1,
            }
        }
        r.iter().map(|(k, c)| c * s.get(k).copied().unwrap_or(0)).sum()
    };

    let mut runs = 0u64;
    let mut failures: Vec<Json> = Vec::new();
    // Journal of the first run that violated the oracle, kept for
    // `--trace-out`. Runs that die outright (`Err` from the runtime)
    // never produced a report, so they have no journal to ship.
    let mut failing_journal: Option<String> = None;
    let started = std::time::Instant::now();
    for name in FaultPlan::CLASSES {
        if only.as_deref().is_some_and(|filter| filter != name) {
            continue;
        }
        let mut class_bad = 0u64;
        for seed in 0..seeds {
            runs += 1;
            let tuples = workload(seed);
            let expected = oracle(&tuples);
            let cfg = RuntimeConfig {
                system: SystemKind::FastJoin,
                fastjoin: FastJoinConfig {
                    instances_per_group: 4,
                    theta: 1.2,
                    migration_cooldown: 2_000,
                    ..FastJoinConfig::default()
                },
                queue_cap: channel_cap,
                batch_size,
                dispatcher_shards,
                monitor_period_ms: 2,
                rate_limit: Some(120_000.0),
                supervision: SupervisionConfig { max_restarts: 16, checkpoint_every: 32 },
                faults: FaultPlan::class(name, seed).expect("every listed class has a plan"),
                trace: fastjoin::core::trace::TraceConfig::default(),
                snapshot_interval_ms: 0,
                serve_metrics: None,
                snapshot_path: None,
            };
            let verdict: Result<(), String> = match try_run_topology(&cfg, tuples) {
                Err(e) => Err(format!("run failed: {e}")),
                Ok(report) => {
                    let problems = report.exactly_once_violations(expected, tuples_n);
                    if problems.is_empty() {
                        Ok(())
                    } else {
                        if failing_journal.is_none() && !report.trace.is_empty() {
                            failing_journal = Some(report.trace.to_jsonl());
                        }
                        Err(problems.join("; "))
                    }
                }
            };
            if let Err(why) = verdict {
                class_bad += 1;
                failures.push(Json::obj(vec![
                    ("class", Json::str(name)),
                    ("seed", Json::uint(seed)),
                    ("error", Json::str(&why)),
                ]));
            }
        }
        println!("{name:<22} {seeds} seeds, {class_bad} failures");
    }
    if runs == 0 {
        return Err(match only {
            Some(c) => format!("unknown chaos class {c:?}"),
            None => "no chaos runs executed".to_string(),
        });
    }

    let doc = Json::obj(vec![
        ("schema_version", Json::uint(1)),
        ("suite", Json::str("fastjoin chaos matrix")),
        ("seeds_per_class", Json::uint(seeds)),
        ("tuples_per_run", Json::uint(tuples_n)),
        ("batch_size", Json::uint(batch_size as u64)),
        ("channel_cap", Json::uint(channel_cap as u64)),
        ("dispatcher_shards", Json::uint(dispatcher_shards as u64)),
        ("runs", Json::uint(runs)),
        ("failed", Json::uint(failures.len() as u64)),
        ("wall_clock_secs", Json::uint(started.elapsed().as_secs())),
        ("failures", Json::arr(failures.clone().into_iter())),
    ]);
    std::fs::write(&out, doc.to_string_pretty() + "\n").map_err(|e| format!("write {out}: {e}"))?;
    println!(
        "{runs} runs in {:.0}s, {} failures → {out}",
        started.elapsed().as_secs_f64(),
        failures.len()
    );
    if let Some(path) = args.flags.get("trace-out") {
        match &failing_journal {
            Some(jsonl) => {
                std::fs::write(path, jsonl).map_err(|e| format!("write {path}: {e}"))?;
                println!("wrote {path} (trace journal of the first failing run)");
            }
            None => println!("no failing run produced a trace journal; {path} not written"),
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(format!("{} of {runs} chaos runs violated exactly-once; see {out}", failures.len()))
    }
}

/// Reads a trace journal (the JSONL written by `--trace-out`) and either
/// summarizes it or reconstructs one migration round's phase timeline
/// (§III-D: trigger → buffer → forward → route flip → drain). The round
/// view exits non-zero when the timeline is causally inconsistent — phases
/// out of order, a flipped round without an applied route, or route
/// versions not monotone — so CI can assert a journal tells a coherent
/// story.
fn cmd_trace(argv: &[String]) -> Result<(), String> {
    use fastjoin::core::monitor::DecisionReason;
    use fastjoin::core::trace::{ActorKind, TraceJournal, TraceKind};

    let args = &Args::parse("trace", "journal round group kind actor allow-drops", argv)?;
    let path =
        args.flags.get("journal").ok_or_else(|| "trace requires --journal PATH".to_string())?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let mut journal = TraceJournal::from_jsonl(&text)?;
    journal.sort();
    println!("{path}: {} events, {} dropped", journal.len(), journal.dropped());
    // A journal with drops is not trustworthy evidence: causal checks can
    // pass only because the contradicting event fell out of the ring.
    if journal.dropped() > 0 && !args.get("allow-drops", false)? {
        return Err(format!(
            "{} trace events were dropped (ring overflow) — analysis on an \
             incomplete journal is unreliable; rerun with a larger ring, or \
             pass --allow-drops true to proceed anyway",
            journal.dropped()
        ));
    }

    if let Some(round) = args.flags.get("round") {
        let epoch: u64 = round.parse().map_err(|_| format!("bad --round {round:?}"))?;
        let group = match args.flags.get("group").map(String::as_str) {
            Some("r" | "0") => Some(0u8),
            Some("s" | "1") => Some(1u8),
            Some(other) => return Err(format!("bad --group {other:?} (expected r or s)")),
            None => None,
        };
        // Round ids are only unique per group; pick the group or demand one.
        let group = match group {
            Some(g) => g,
            None => {
                let in_group = |g: u8| !journal.round_in(g, epoch).is_empty();
                match (in_group(0), in_group(1)) {
                    (true, false) => 0,
                    (false, true) => 1,
                    (true, true) => {
                        return Err(format!(
                            "round {epoch} exists in both groups; disambiguate with --group r|s"
                        ))
                    }
                    (false, false) => return Err(format!("no events for round {epoch}")),
                }
            }
        };
        let events = journal.round_in(group, epoch);
        if events.is_empty() {
            return Err(format!(
                "no events for round {epoch} of group {}",
                if group == 0 { "r" } else { "s" }
            ));
        }
        let t0 = events[0].at_us;
        println!(
            "round {epoch} of group {} — {} events over {} µs:",
            if group == 0 { "r" } else { "s" },
            events.len(),
            events.last().map_or(0, |e| e.at_us - t0)
        );
        for e in &events {
            let detail = match e.kind {
                TraceKind::MigTrigger => format!("source={} target={}", e.aux, e.aux2),
                TraceKind::MigCmd => format!("target={}", e.aux),
                TraceKind::MigStart => format!("from={} keys={}", e.aux, e.aux2),
                TraceKind::MigStore | TraceKind::MigForward => format!("tuples={}", e.aux),
                TraceKind::RouteStaged => format!("version={}", e.aux),
                TraceKind::RouteUpdated => format!("buffered-flushed={}", e.aux),
                TraceKind::MigEnd => format!("from={}", e.aux),
                TraceKind::MigDone => format!("tuples_moved={}", e.aux),
                TraceKind::FaultRestart => format!("restarts={}", e.aux),
                TraceKind::ShardRestart => format!("shard={} fence={}", e.aux, e.aux2),
                TraceKind::MonitorDown => format!("restarts={}", e.aux),
                TraceKind::MonitorUp => format!("degraded_ms={}", e.aux),
                TraceKind::SnapshotRepublish => format!("shard={} fence={}", e.aux, e.aux2),
                TraceKind::MigDecision => {
                    let reason = DecisionReason::from_code(e.aux).map_or("unknown", |r| r.name());
                    format!("reason={reason} source={} target={}", e.aux2 / 256, e.aux2 % 256)
                }
                TraceKind::MigPlanKey => {
                    format!("key={} benefit={:.3} tuples={}", e.seq, e.aux as f64 / 1000.0, e.aux2)
                }
                TraceKind::Ingest
                | TraceKind::StoreDone
                | TraceKind::ProbeDone
                | TraceKind::Eos
                | TraceKind::FaultCrash => String::new(),
            };
            println!(
                "  +{:>8} µs  {:<12} {:<16} {detail}",
                e.at_us - t0,
                e.actor.label(),
                e.kind.name()
            );
        }
        // Causal checks: the §III-D phase order, and strictly monotone
        // applied route versions across the whole journal for this group.
        let mut problems = Vec::new();
        let first = |k: TraceKind| events.iter().position(|e| e.kind == k);
        let order = [
            (TraceKind::MigTrigger, TraceKind::MigCmd),
            (TraceKind::MigCmd, TraceKind::MigStart),
            (TraceKind::MigStart, TraceKind::MigStore),
            // The target requests the flip on `MigStart`, so the staging
            // races its receipt of `MigStore`; both precede `MigEnd`.
            (TraceKind::MigStart, TraceKind::RouteStaged),
            (TraceKind::MigStore, TraceKind::MigEnd),
            (TraceKind::RouteStaged, TraceKind::MigEnd),
            (TraceKind::MigEnd, TraceKind::MigDone),
        ];
        for (a, b) in order {
            if let (Some(ia), Some(ib)) = (first(a), first(b)) {
                if ia > ib {
                    problems.push(format!("{} appears after {}", a.name(), b.name()));
                }
            }
        }
        if first(TraceKind::MigEnd).is_some() && first(TraceKind::RouteStaged).is_none() {
            problems.push("MigEnd without an applied route (no RouteStaged)".to_string());
        }
        let versions: Vec<u64> = journal
            .events()
            .iter()
            .filter(|e| {
                e.kind == TraceKind::RouteStaged
                    && e.actor.kind == ActorKind::Dispatcher
                    && e.aux2 == u64::from(group)
            })
            .map(|e| e.aux)
            .collect();
        if versions.windows(2).any(|w| w[0] >= w[1]) {
            problems.push(format!("route versions not monotone: {versions:?}"));
        }
        if problems.is_empty() {
            println!("timeline OK: phases in causal order, route versions monotone");
            return Ok(());
        }
        return Err(format!("inconsistent timeline:\n  {}", problems.join("\n  ")));
    }

    // Summary mode: counts per kind and per actor, then the rounds seen.
    let kind_filter = args.flags.get("kind").cloned();
    let actor_filter = args.flags.get("actor").cloned();
    let mut by_kind: Vec<(String, u64)> = Vec::new();
    let mut by_actor: Vec<(String, u64)> = Vec::new();
    let mut rounds: Vec<(u8, u64, usize, bool)> = Vec::new();
    for e in journal.events() {
        if let Some(k) = &kind_filter {
            if e.kind.name() != k {
                continue;
            }
        }
        if let Some(a) = &actor_filter {
            if &e.actor.label() != a {
                continue;
            }
        }
        let kname = e.kind.name().to_string();
        match by_kind.iter_mut().find(|(n, _)| *n == kname) {
            Some((_, c)) => *c += 1,
            None => by_kind.push((kname, 1)),
        }
        let aname = e.actor.label();
        match by_actor.iter_mut().find(|(n, _)| *n == aname) {
            Some((_, c)) => *c += 1,
            None => by_actor.push((aname, 1)),
        }
    }
    for group in 0..2u8 {
        let mut epochs: Vec<u64> = journal
            .events()
            .iter()
            .filter(|e| {
                // 0 and NO_ROUND both mean "no migration round": monitors
                // allocate epochs from 1, and NO_ROUND is the explicit
                // sentinel for protocol events outside any round.
                e.epoch != 0
                    && e.epoch != fastjoin::core::trace::TraceEvent::NO_ROUND
                    && e.kind == fastjoin::core::trace::TraceKind::MigTrigger
                    && e.actor.group == group
            })
            .map(|e| e.epoch)
            .collect();
        epochs.dedup();
        for epoch in epochs {
            let evs = journal.round_in(group, epoch);
            let done = evs.iter().any(|e| e.kind == TraceKind::MigDone);
            rounds.push((group, epoch, evs.len(), done));
        }
    }
    println!("events by kind:");
    for (name, count) in &by_kind {
        println!("  {name:<18} {count}");
    }
    println!("events by actor:");
    for (name, count) in &by_actor {
        println!("  {name:<12} {count}");
    }
    if !rounds.is_empty() {
        println!("migration rounds (inspect with --round N --group r|s):");
        for (group, epoch, n, done) in rounds {
            println!(
                "  group {} round {epoch}: {n} events, {}",
                if group == 0 { "r" } else { "s" },
                if done { "closed" } else { "open" }
            );
        }
    }
    Ok(())
}

/// Fetches one document from the runtime's introspection server over a
/// hand-rolled HTTP/1.1 GET (std `TcpStream` — the server side is equally
/// minimal, so no client library is warranted).
fn http_get(port: u16, path: &str) -> Result<String, String> {
    use std::io::{Read as _, Write as _};
    let addr = format!("127.0.0.1:{port}");
    let mut stream =
        std::net::TcpStream::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(2)))
        .map_err(|e| format!("socket timeout: {e}"))?;
    let request = format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n");
    stream.write_all(request.as_bytes()).map_err(|e| format!("send to {addr}: {e}"))?;
    let mut response = String::new();
    stream.read_to_string(&mut response).map_err(|e| format!("read from {addr}: {e}"))?;
    let (head, body) = response
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("malformed HTTP response from {addr}"))?;
    if !head.starts_with("HTTP/1.1 200") {
        return Err(format!("{addr}{path}: {}", head.lines().next().unwrap_or("no status line")));
    }
    Ok(body.to_string())
}

/// Renders one snapshot (`{seq, at_us, registry, hot_keys}`) as a compact
/// table read off the registry's names: per-group monitor state,
/// instances × load/queue/hot-keys, channel depths, supervisor counts. A
/// name that is absent (a static system has no monitors) prints as zero or
/// not at all.
fn render_snapshot(snap: &fastjoin::core::json::Json) {
    use fastjoin::core::json::Json;
    use fastjoin::core::telemetry::MigrationPhase;
    let top = |key: &str| snap.get(key).and_then(Json::as_u64).unwrap_or(0);
    let metric = |name: &str| snap.get("registry")?.get(name)?.as_num();
    let count = |name: &str| metric(name).unwrap_or(0.0) as u64;
    println!("snapshot #{} at {} µs", top("seq"), top("at_us"));
    for side in ["r", "s"] {
        let Some(li) = metric(&format!("monitor.{side}.imbalance")) else { continue };
        let phase = metric(&format!("monitor.{side}.phase"))
            .and_then(MigrationPhase::from_gauge)
            .map_or("?", MigrationPhase::name);
        println!(
            "  group {side}: LI={li:.2} phase={phase} epoch={} triggered={} effective={}",
            count(&format!("monitor.{side}.epoch")),
            count(&format!("monitor.{side}.triggered")),
            count(&format!("monitor.{side}.effective")),
        );
    }
    println!("  {:<6} {:>10} {:>7} {:<4} hot keys (key x weight)", "inst", "load", "queue", "mig");
    let Some(Json::Obj(registry)) = snap.get("registry") else { return };
    let mut queues = Vec::new();
    // Registry names sort as text (`inst.r10` before `inst.r2`); the table
    // is in (group, numeric id) order.
    let mut instances: Vec<(&str, u64, u64)> = Vec::new();
    for (name, value) in registry {
        if name.starts_with("dispatcher.queue.") || name == "collector.backlog_hwm" {
            queues.push(format!("{name}={}", value.as_u64().unwrap_or(0)));
        }
        let inst = name.strip_suffix(".load").and_then(|l| l.strip_prefix("inst."));
        if let Some((inst, id)) = inst.and_then(|i| Some((i, i.get(1..)?.parse().ok()?))) {
            instances.push((inst, id, value.as_u64().unwrap_or(0)));
        }
    }
    instances.sort_by_key(|&(inst, id, _)| (inst.as_bytes()[0], id));
    for (inst, _, load) in instances {
        let hot = snap.get("hot_keys").and_then(|h| h.get(&format!("inst.{inst}")));
        let hot: Vec<String> = hot
            .and_then(Json::as_arr)
            .unwrap_or_default()
            .iter()
            .map(|k| {
                let field = |f: &str| k.get(f).and_then(Json::as_u64).unwrap_or(0);
                format!("{}x{}", field("key"), field("weight"))
            })
            .collect();
        println!(
            "  {inst:<6} {load:>10} {:>7} {:<4} {}",
            count(&format!("inst.{inst}.inbox.depth")),
            if count(&format!("inst.{inst}.migrating")) > 0 { "yes" } else { "-" },
            hot.join(" "),
        );
    }
    if !queues.is_empty() {
        println!("  queues: {}", queues.join(" "));
    }
    println!(
        "  supervisor: failures={} restarts={} degraded={}",
        count("supervisor.executor_failures"),
        count("supervisor.control_restarts"),
        count("monitor.permanent_degraded") > 0,
    );
}

/// Live view of a running topology: polls `/snapshot` from a runtime
/// started with `--serve-metrics PORT` (or tails the JSONL file written
/// by `--snapshot-out`) and renders a compact table per poll.
fn cmd_top(argv: &[String]) -> Result<(), String> {
    use fastjoin::core::json::Json;
    let args = &Args::parse("top", "port file iters interval-ms", argv)?;
    let port: u16 = args.get("port", 0)?;
    let file = args.flags.get("file").cloned();
    if (port == 0) == file.is_none() {
        return Err("top requires exactly one of --port N or --file PATH".to_string());
    }
    let iters: u64 = args.get("iters", 1)?;
    let interval_ms: u64 = args.get("interval-ms", 1000)?;
    for iter in 0..iters {
        if iter > 0 {
            std::thread::sleep(std::time::Duration::from_millis(interval_ms));
        }
        let text = match &file {
            Some(path) => {
                let all = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
                all.lines()
                    .next_back()
                    .map(str::to_string)
                    .ok_or_else(|| format!("{path} has no snapshots yet"))?
            }
            None => http_get(port, "/snapshot")?,
        };
        let snap = Json::parse(&text).map_err(|e| format!("bad snapshot JSON: {e}"))?;
        render_snapshot(&snap);
    }
    Ok(())
}

fn usage() -> String {
    let classes: Vec<String> =
        fastjoin::runtime::FaultPlan::CLASSES.chunks(3).map(|row| row.join(" | ")).collect();
    let classes = classes.join(" |\n");
    format!(
        "usage: fastjoin-cli <command> [--flag value]...\n\
         \n\
         commands:\n\
           simulate   discrete-event simulation of one system over a workload\n\
           compare    run the paper's headline systems side by side\n\
           topology   threaded runtime over a ride-hailing workload\n\
           census     key-skew statistics of a generated workload\n\
           gen        write a workload trace to a file (--out PATH)\n\
           chaos      seeded fault-schedule matrix -> CHAOS_report.json\n\
           trace      inspect a trace journal written by --trace-out\n\
           top        live table from a running topology's snapshot plane\n\
         \n\
         fault-injection (chaos) knobs, all seed-deterministic via FaultPlan:\n\
           --seeds N       seeds per fault class (default 100)\n\
           --tuples N      workload size per run (default 6000)\n\
           --class NAME    run one class only:\n\
                           {classes}\n\
                           (the kill-* classes crash control-plane executors)\n\
           --out PATH      failure-report JSON (default CHAOS_report.json)\n\
           --trace-out P   write the first failing run's trace journal to P\n\
           --batch-size N  data-plane batch size for every run (default 1;\n\
                           CI also sweeps the matrix batched)\n\
           --channel-cap N bounded-channel capacity (default 256)\n\
           --dispatcher-shards N  dispatcher shard count for every run\n\
                           (default 1; CI also sweeps the matrix sharded)\n\
         trace:\n\
           --journal PATH  the JSONL journal to read (required)\n\
           --round N       reconstruct migration round N's phase timeline\n\
           --group r|s     which group's round N (required if both have one)\n\
           --kind NAME     filter the summary to one event kind\n\
           --actor LABEL   filter the summary to one actor (e.g. inst.r3)\n\
           --allow-drops true  analyse a journal that dropped events instead\n\
                               of exiting non-zero\n\
         topology introspection (all off by default):\n\
           --snapshot-ms N     periodic registry-snapshot interval (0 = off)\n\
           --snapshot-out PATH append each snapshot as one JSON line\n\
           --serve-metrics N   serve /metrics and /snapshot on 127.0.0.1:N\n\
           --trace-out PATH    write the run's trace journal (JSONL) for `trace`\n\
         top:\n\
           --port N        poll /snapshot from a --serve-metrics runtime\n\
           --file PATH     read the latest snapshot from a --snapshot-out file\n\
           --iters N       how many times to poll (default 1)\n\
           --interval-ms N delay between polls (default 1000)\n\
         see the module docs (cargo doc) or the README for the full flag list"
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    let result = match cmd.as_str() {
        "simulate" => cmd_simulate(rest),
        "compare" => cmd_compare(rest),
        "topology" => cmd_topology(rest),
        "census" => cmd_census(rest),
        "gen" => cmd_gen(rest),
        "chaos" => cmd_chaos(rest),
        "trace" => cmd_trace(rest),
        "top" => cmd_top(rest),
        other => Err(format!("unknown command {other:?}\n{}", usage())),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn try_args(list: &[&str]) -> Result<Args, String> {
        let argv: Vec<String> = list.iter().map(|s| s.to_string()).collect();
        Args::parse("simulate", "instances theta gb workload x y", &argv)
    }

    fn args(list: &[&str]) -> Args {
        try_args(list).unwrap()
    }

    #[test]
    fn parses_flag_pairs() {
        let a = args(&["--instances", "16", "--theta", "1.8"]);
        assert_eq!(a.get::<usize>("instances", 0).unwrap(), 16);
        assert!((a.get::<f64>("theta", 0.0).unwrap() - 1.8).abs() < 1e-9);
        assert_eq!(a.get::<u64>("gb", 30).unwrap(), 30, "default applies");
    }

    #[test]
    fn rejects_bad_flags() {
        assert!(try_args(&["positional"]).is_err());
        assert!(try_args(&["--theta"]).is_err(), "a flag needs a value");
        let unknown = try_args(&["--thta", "2"]).err();
        assert_eq!(unknown.as_deref(), Some("unknown flag --thta for simulate"));
        let a = args(&["--instances", "lots"]);
        assert!(a.get::<usize>("instances", 0).is_err());
    }

    #[test]
    fn parses_every_system() {
        for (name, kind) in [
            ("fastjoin", SystemKind::FastJoin),
            ("bistream", SystemKind::BiStream),
            ("contrand", SystemKind::BiStreamContRand),
            ("broadcast", SystemKind::Broadcast),
        ] {
            assert_eq!(parse_system(name).unwrap(), kind);
        }
        assert!(parse_system("storm").is_err());
    }

    #[test]
    fn builds_gxy_workloads() {
        let a = args(&["--workload", "gxy", "--x", "0", "--y", "2"]);
        let wl = build_workload(&a).unwrap();
        assert!(!wl.is_empty());
    }
}
