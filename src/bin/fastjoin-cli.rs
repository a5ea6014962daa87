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
//!                       # introspection plane: periodic RuntimeSnapshots
//!                       # to a JSONL sink and/or a live /metrics +
//!                       # /snapshot HTTP endpoint (all off by default)
//! fastjoin-cli census   [--locations N] [--orders N] [--tracks N]
//! fastjoin-cli gen      --out PATH [--workload ridehail|gxy] [--x ..] [--y ..]
//! fastjoin-cli bench    [--out PATH] [--deadline-secs N]
//!                       [--batch-size N] [--channel-cap N]
//!                       [--trace-out PATH] [--prom-out PATH]
//!                       # observability smoke suite → BENCH_smoke.json;
//!                       # includes a batch-64 vs batch-1 comparison
//!                       # (warns if batching loses) and fails if a
//!                       # scenario blows the wall-clock deadline
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
//! suite — executor crashes at each migration-protocol phase, message
//! delay/drop/duplicate/reorder, and stalled (dropped-trigger) rounds —
//! across `--seeds` distinct seeds per class, asserting exactly-once
//! output against a single-threaded oracle on every run. Faults come from
//! the runtime's [`FaultPlan`]: executor kill-switches pinned to protocol
//! phases, per-channel delay on the (FIFO, lossless) data plane,
//! drop/dup/reorder on best-effort monitor reports, and swallowed
//! `MigrateCmd`s that only the round-timeout watchdog can clean up.
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
    fn parse(argv: &[String]) -> Result<Self, String> {
        let mut flags = HashMap::new();
        let mut it = argv.iter();
        while let Some(a) = it.next() {
            let Some(name) = a.strip_prefix("--") else {
                return Err(format!("unexpected argument {a:?} (flags are --name value)"));
            };
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

fn cmd_simulate(args: &Args) -> Result<(), String> {
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

fn cmd_compare(args: &Args) -> Result<(), String> {
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

fn cmd_topology(args: &Args) -> Result<(), String> {
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
    let audited: usize = report.decisions.iter().map(Vec::len).sum();
    if audited > 0 {
        println!("decisions      : {audited} audited (see the report's per-group decisions)");
    }
    Ok(())
}

fn cmd_census(args: &Args) -> Result<(), String> {
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

fn cmd_gen(args: &Args) -> Result<(), String> {
    let path = args.flags.get("out").ok_or_else(|| "gen requires --out PATH".to_string())?;
    let workload = build_workload(args)?;
    let file = std::fs::File::create(path).map_err(|e| format!("create {path}: {e}"))?;
    let n = write_trace(file, workload).map_err(|e| e.to_string())?;
    println!("wrote {n} tuples to {path}");
    Ok(())
}

/// The observability smoke suite: three short threaded-topology runs
/// (skewed, uniform, windowed) whose reports are written as one JSON file
/// and validated for the series CI depends on. A missing required series
/// (throughput, latency percentiles, LI, or — on the skewed run — at least
/// one migration span) is an error, so the CI job fails rather than
/// silently uploading a hollow artifact.
///
/// Only checks with a deterministic verdict are fatal: required series,
/// ring drops, the snapshot stream, journal/Prometheus validation, the
/// scenario deadline. The wall-clock comparisons between twin runs
/// (tracing and introspection overhead, batched vs unbatched throughput
/// and route-flip latency, shard scaling) are computed and recorded in
/// the report, and a breach prints a `warning:` line — they compare two
/// short runs on whatever host this is, most of them throttled to the
/// same rate, so a red verdict says more about the scheduler than about
/// the code. `fjbench`'s `runtime.trace_overhead_pct` (unthrottled
/// twins, CPU seconds) is the overhead number of record.
fn cmd_bench(args: &Args) -> Result<(), String> {
    use fastjoin::core::config::{FastJoinConfig, WindowConfig};
    use fastjoin::core::json::Json;
    use fastjoin::runtime::RuntimeReport;

    let out = args.get_str("out", "BENCH_smoke.json");
    // Wall-clock budget per scenario: a wedged or pathologically slow run
    // must fail the suite (non-zero exit) instead of stalling CI.
    let deadline = std::time::Duration::from_secs(args.get("deadline-secs", 120)?);
    // Data-plane knobs under test: every scenario runs batched at
    // `--batch-size` over `--channel-cap`-bounded channels, and the suite
    // also runs batched-vs-unbatched twins of the skewed workload to
    // measure (and gate) the batching win.
    let batch_size: usize = args.get("batch-size", RuntimeConfig::default().batch_size)?;
    let channel_cap: usize = args.get("channel-cap", 256)?;
    let dispatcher_shards: usize = args.get("dispatcher-shards", 1)?;
    if dispatcher_shards == 0 {
        return Err("--dispatcher-shards must be ≥ 1".to_string());
    }
    if batch_size < 2 {
        return Err(format!(
            "--batch-size must be ≥ 2 so the batched run differs from the \
             unbatched baseline (got {batch_size})"
        ));
    }
    if channel_cap < batch_size {
        return Err(format!(
            "--channel-cap ({channel_cap}) must be at least --batch-size ({batch_size}): \
             a channel smaller than one batch starves the dispatcher"
        ));
    }
    let mut failures = Vec::new();
    // Wall-clock twin comparisons outside their budget: reported, not fatal.
    let mut warnings = Vec::new();
    let mut deadline_check = |name: &str, started: std::time::Instant| {
        let took = started.elapsed();
        if took > deadline {
            failures.push(format!(
                "{name}: exceeded the {}s scenario deadline (took {:.1}s)",
                deadline.as_secs(),
                took.as_secs_f64()
            ));
        }
    };
    let base = |n: usize| RuntimeConfig {
        system: SystemKind::FastJoin,
        fastjoin: FastJoinConfig {
            instances_per_group: n,
            theta: 1.5,
            migration_cooldown: 50_000,
            ..FastJoinConfig::default()
        },
        queue_cap: channel_cap,
        batch_size,
        dispatcher_shards,
        monitor_period_ms: 20,
        rate_limit: None,
        ..RuntimeConfig::default()
    };

    // Skewed: one hot key carries 3/4 of the traffic; throttled so the run
    // spans many monitor ticks and real migration rounds happen. Retried a
    // few times because migration timing is scheduler-dependent.
    let skewed_workload = || {
        (0..30_000u64)
            .map(|i| {
                let key = if i % 4 != 0 { 999 } else { i % 97 };
                if i % 5 == 0 {
                    Tuple::r(key, 0, i)
                } else {
                    Tuple::s(key, 0, i)
                }
            })
            .collect::<Vec<_>>()
    };
    let mut skewed = None;
    let started = std::time::Instant::now();
    for _ in 0..3 {
        let mut cfg = base(4);
        cfg.rate_limit = Some(60_000.0);
        let run_started = std::time::Instant::now();
        let report = run_topology(&cfg, skewed_workload());
        let elapsed = run_started.elapsed();
        let has_span = report.migration_spans.iter().any(|s| !s.is_empty());
        let keep = skewed.is_none() || has_span;
        if keep {
            skewed = Some((report, elapsed));
        }
        if has_span {
            break;
        }
    }
    let (skewed, skewed_elapsed) = skewed.expect("at least one skewed run completed");
    deadline_check("skewed", started);

    // Tracing overhead check: the same skewed workload with tracing off.
    // Both runs are throttled to 60k tuples/s, so their throughput should
    // be indistinguishable; a >10% gap is worth a warning. Dropped events
    // at the default ring size fail the suite — the journal must be
    // complete to be trustworthy.
    let started = std::time::Instant::now();
    let untraced_elapsed = {
        let mut cfg = base(4);
        cfg.rate_limit = Some(60_000.0);
        cfg.trace = fastjoin::core::trace::TraceConfig::disabled();
        let run_started = std::time::Instant::now();
        let _ = run_topology(&cfg, skewed_workload());
        run_started.elapsed()
    };
    deadline_check("skewed-untraced", started);
    let traced_tps = 30_000.0 / skewed_elapsed.as_secs_f64().max(1e-9);
    let untraced_tps = 30_000.0 / untraced_elapsed.as_secs_f64().max(1e-9);
    let overhead_pct = (untraced_tps - traced_tps) / untraced_tps * 100.0;
    let mut trace_failures = Vec::new();
    if traced_tps < untraced_tps * 0.9 {
        warnings.push(format!(
            "tracing overhead: traced skewed run achieved {traced_tps:.0} tuples/s \
             vs {untraced_tps:.0} untraced ({overhead_pct:.1}% slower; budget is 10%)"
        ));
    }
    if skewed.trace.dropped() != 0 {
        trace_failures.push(format!(
            "tracing dropped {} events at the default ring size",
            skewed.trace.dropped()
        ));
    }

    // Introspection overhead check, same shape as the tracing one: the
    // skewed workload with 100 ms snapshots streaming to a file sink
    // should stay within 10% of the plane-off run. The stream itself is
    // validated, fatally — every line a parseable snapshot, seq monotone.
    let started = std::time::Instant::now();
    let snap_path =
        std::env::temp_dir().join(format!("fastjoin-bench-snapshots-{}.jsonl", std::process::id()));
    let snap_path_str = snap_path.to_string_lossy().to_string();
    let _ = std::fs::remove_file(&snap_path);
    let snap_elapsed = {
        let mut cfg = base(4);
        cfg.rate_limit = Some(60_000.0);
        cfg.snapshot_interval_ms = 100;
        cfg.snapshot_path = Some(snap_path_str.clone());
        let run_started = std::time::Instant::now();
        let _ = run_topology(&cfg, skewed_workload());
        run_started.elapsed()
    };
    deadline_check("skewed-snapshots", started);
    let snap_tps = 30_000.0 / snap_elapsed.as_secs_f64().max(1e-9);
    let snap_overhead_pct = (traced_tps - snap_tps) / traced_tps.max(1e-9) * 100.0;
    if snap_tps < traced_tps * 0.9 {
        warnings.push(format!(
            "introspection overhead: 100 ms snapshots achieved {snap_tps:.0} tuples/s \
             vs {traced_tps:.0} with the plane off ({snap_overhead_pct:.1}% slower; budget is 10%)"
        ));
    }
    let snap_stream = std::fs::read_to_string(&snap_path).unwrap_or_default();
    let mut snapshots_seen = 0u64;
    let mut prev_seq = 0u64;
    for line in snap_stream.lines() {
        match Json::parse(line) {
            Ok(j) => {
                let seq = j.get("seq").and_then(Json::as_u64).unwrap_or(0);
                if seq <= prev_seq {
                    trace_failures
                        .push(format!("snapshot stream seq not monotone at snapshot {seq}"));
                    break;
                }
                prev_seq = seq;
                snapshots_seen += 1;
            }
            Err(e) => {
                trace_failures.push(format!("snapshot stream has an unparseable line: {e}"));
                break;
            }
        }
    }
    if snapshots_seen == 0 {
        trace_failures.push("snapshot run produced no snapshots in the stream sink".to_string());
    }
    let _ = std::fs::remove_file(&snap_path);

    // Batched-vs-unbatched comparison, two angles:
    //
    //  * throughput — unthrottled skewed runs, best of three per mode so a
    //    scheduler hiccup doesn't decide the verdict; batching should beat
    //    the scalar baseline (amortizing per-message channel overhead is
    //    the whole point of the batch plane);
    //  * route-flip latency — a throttled unbatched twin of the skewed
    //    scenario above; draining control to empty every dispatcher
    //    iteration should keep flips fast even when data rides batches.
    let started = std::time::Instant::now();
    let measure = |batch: usize, shards: usize| -> f64 {
        let mut best = 0.0f64;
        for _ in 0..3 {
            let mut cfg = base(4);
            cfg.batch_size = batch;
            cfg.dispatcher_shards = shards;
            let run_started = std::time::Instant::now();
            let report = run_topology(&cfg, skewed_workload());
            let tps = report.tuples_ingested as f64 / run_started.elapsed().as_secs_f64().max(1e-9);
            best = best.max(tps);
        }
        best
    };
    let unbatched_tps = measure(1, 1);
    let batched_tps = measure(batch_size, 1);
    deadline_check("batching-throughput", started);
    if batched_tps <= unbatched_tps {
        warnings.push(format!(
            "batching regression: batch_size {batch_size} achieved {batched_tps:.0} tuples/s \
             vs {unbatched_tps:.0} unbatched on the skewed workload"
        ));
    }

    // Dispatcher shard scaling: the same unthrottled skewed workload at 1,
    // 2, and 4 shards (1 shard is the batched run above). The numbers are
    // always recorded; monotonic improvement is only expected on a host
    // with ≥ 4 cores — on fewer cores extra shard threads just take turns
    // on the same CPUs and scaling is noise, not signal.
    let started = std::time::Instant::now();
    let shard1_tps = batched_tps;
    let shard2_tps = measure(batch_size, 2);
    let shard4_tps = measure(batch_size, 4);
    deadline_check("shard-scaling", started);
    let cores = std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1);
    if cores >= 4 && !(shard2_tps > shard1_tps && shard4_tps > shard2_tps) {
        warnings.push(format!(
            "shard scaling regression on a {cores}-core host: skewed throughput must \
             improve monotonically 1→2→4 shards, got {shard1_tps:.0} → {shard2_tps:.0} \
             → {shard4_tps:.0} tuples/s"
        ));
    }

    let started = std::time::Instant::now();
    let mut unbatched_skewed = None;
    for _ in 0..3 {
        let mut cfg = base(4);
        cfg.batch_size = 1;
        cfg.rate_limit = Some(60_000.0);
        let report = run_topology(&cfg, skewed_workload());
        let has_span = report.migration_spans.iter().any(|s| !s.is_empty());
        let keep = unbatched_skewed.is_none() || has_span;
        if keep {
            unbatched_skewed = Some(report);
        }
        if has_span {
            break;
        }
    }
    let unbatched_skewed = unbatched_skewed.expect("at least one unbatched skewed run completed");
    deadline_check("skewed-unbatched", started);
    let median_flip = |r: &RuntimeReport| -> Option<u64> {
        let mut flips: Vec<u64> =
            r.migration_spans.iter().flatten().filter_map(|s| s.route_flip_us).collect();
        if flips.is_empty() {
            return None;
        }
        flips.sort_unstable();
        Some(flips[flips.len() / 2])
    };
    let flip_batched = median_flip(&skewed);
    let flip_unbatched = median_flip(&unbatched_skewed);
    if let (Some(b), Some(u)) = (flip_batched, flip_unbatched) {
        // Tight non-regression bound: with the control fast-path (flips
        // bypass the batch-age deadline and only flush the destination's
        // pending batch) a batched flip should cost about the same as an
        // unbatched one. 2x plus a 1 ms absolute floor absorbs scheduler
        // noise at smoke scale without re-admitting the old regression,
        // where flips queued behind a full dispatch tick.
        if b > u * 2 + 1_000 {
            warnings.push(format!(
                "route-flip latency regressed under batching: p50 {b} µs batched \
                 vs {u} µs unbatched (budget: 2x + 1 ms)"
            ));
        }
    }

    // Uniform: every key equally hot; exercises the static happy path.
    let uniform: Vec<Tuple> = (0..20u64)
        .flat_map(|i| (0..10u64).flat_map(move |k| [Tuple::r(k, 0, i), Tuple::s(k, 0, i)]))
        .collect();
    let started = std::time::Instant::now();
    let uniform = run_topology(&base(4), uniform);
    deadline_check("uniform", started);

    // Windowed: a sliding window over a throttled stream (expiry path).
    let mut wcfg = base(2);
    wcfg.fastjoin.window = Some(WindowConfig { sub_windows: 4, sub_window_len: 50_000 });
    wcfg.rate_limit = Some(20_000.0);
    let windowed_workload: Vec<Tuple> = (0..2_000u64)
        .map(|i| if i % 2 == 0 { Tuple::r(i % 13, 0, i) } else { Tuple::s(i % 13, 0, i) })
        .collect();
    let started = std::time::Instant::now();
    let windowed = run_topology(&wcfg, windowed_workload);
    deadline_check("windowed", started);
    failures.append(&mut trace_failures);

    // Validate before writing: the suite's contract with CI.
    let mut check = |name: &str, r: &RuntimeReport, expect_migration: bool| {
        if r.probes_total == 0 {
            failures.push(format!("{name}: no probes completed"));
        }
        if r.throughput.is_empty() {
            failures.push(format!("{name}: throughput series is empty"));
        }
        if r.latency.count() == 0
            || r.latency.quantile(0.5).is_none()
            || r.latency.quantile(0.99).is_none()
        {
            failures.push(format!("{name}: latency percentiles missing"));
        }
        if r.imbalance
            .iter()
            .all(|s| s.as_ref().is_none_or(fastjoin::core::metrics::TimeSeries::is_empty))
        {
            failures.push(format!("{name}: no LI (imbalance) series recorded"));
        }
        if expect_migration {
            if r.migrations() == 0 {
                failures.push(format!("{name}: skewed run triggered no migrations"));
            }
            if r.migration_spans.iter().all(Vec::is_empty) {
                failures.push(format!("{name}: no migration spans traced"));
            }
        }
    };
    check("skewed", &skewed, true);
    check("uniform", &uniform, false);
    check("windowed", &windowed, false);

    let doc = Json::obj(vec![
        ("schema_version", Json::uint(1)),
        ("suite", Json::str("fastjoin bench smoke")),
        (
            "tracing",
            Json::obj(vec![
                ("events", Json::uint(skewed.trace.len() as u64)),
                ("dropped", Json::uint(skewed.trace.dropped())),
                ("traced_tuples_per_sec", Json::Num(traced_tps)),
                ("untraced_tuples_per_sec", Json::Num(untraced_tps)),
                ("overhead_pct", Json::Num(overhead_pct)),
            ]),
        ),
        (
            "introspection",
            Json::obj(vec![
                ("snapshot_interval_ms", Json::uint(100)),
                ("snapshots", Json::uint(snapshots_seen)),
                ("snapshot_tuples_per_sec", Json::Num(snap_tps)),
                ("plane_off_tuples_per_sec", Json::Num(traced_tps)),
                ("overhead_pct", Json::Num(snap_overhead_pct)),
            ]),
        ),
        (
            "batching",
            Json::obj(vec![
                ("batch_size", Json::uint(batch_size as u64)),
                ("channel_cap", Json::uint(channel_cap as u64)),
                ("dispatcher_shards", Json::uint(dispatcher_shards as u64)),
                ("batched_tuples_per_sec", Json::Num(batched_tps)),
                ("unbatched_tuples_per_sec", Json::Num(unbatched_tps)),
                ("speedup_pct", Json::Num((batched_tps / unbatched_tps.max(1.0) - 1.0) * 100.0)),
                ("route_flip_p50_us_batched", flip_batched.map_or(Json::Null, Json::uint)),
                ("route_flip_p50_us_unbatched", flip_unbatched.map_or(Json::Null, Json::uint)),
            ]),
        ),
        (
            "shard_scaling",
            Json::obj(vec![
                ("cores", Json::uint(cores as u64)),
                ("scaling_expected", Json::Bool(cores >= 4)),
                ("tuples_per_sec_1_shard", Json::Num(shard1_tps)),
                ("tuples_per_sec_2_shards", Json::Num(shard2_tps)),
                ("tuples_per_sec_4_shards", Json::Num(shard4_tps)),
            ]),
        ),
        ("warnings", Json::arr(warnings.iter().map(Json::str))),
        (
            "workloads",
            Json::obj(vec![
                ("skewed", skewed.to_json()),
                ("uniform", uniform.to_json()),
                ("windowed", windowed.to_json()),
            ]),
        ),
    ]);
    std::fs::write(&out, doc.to_string_pretty() + "\n").map_err(|e| format!("write {out}: {e}"))?;
    println!("wrote {out}");

    // Bench history: append the headline numbers to a JSONL ledger keyed
    // by git revision + config, and warn (never fail — machines differ)
    // when batched throughput drops more than 20% against the previous
    // entry for the same configuration.
    let history_path = args.get_str("history", "BENCH_history.jsonl");
    let rev = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        );
    let ts = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let config_key = format!("batch{batch_size}-cap{channel_cap}-shards{dispatcher_shards}");
    if let Ok(prior) = std::fs::read_to_string(&history_path) {
        let prev_tps = prior
            .lines()
            .rev()
            .filter_map(|l| Json::parse(l).ok())
            .find(|j| j.get("config").and_then(Json::as_str) == Some(config_key.as_str()))
            .and_then(|j| j.get("batched_tuples_per_sec").and_then(Json::as_num));
        if let Some(prev) = prev_tps {
            if prev > 0.0 && batched_tps < prev * 0.8 {
                eprintln!(
                    "warning: batched throughput {batched_tps:.0} tuples/s is \
                     {:.1}% below the previous {history_path} entry for {config_key} \
                     ({prev:.0} tuples/s)",
                    (1.0 - batched_tps / prev) * 100.0
                );
            }
        }
    }
    let entry = Json::obj(vec![
        ("ts", Json::uint(ts)),
        ("rev", Json::str(rev)),
        ("config", Json::str(config_key)),
        ("batched_tuples_per_sec", Json::Num(batched_tps)),
        ("unbatched_tuples_per_sec", Json::Num(unbatched_tps)),
        ("traced_tuples_per_sec", Json::Num(traced_tps)),
        ("snapshot_tuples_per_sec", Json::Num(snap_tps)),
        ("skewed_results", Json::uint(skewed.results_total)),
        ("skewed_p99_latency_us", Json::uint(skewed.latency.quantile(0.99).unwrap_or(0))),
    ]);
    {
        use std::io::Write as _;
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&history_path)
            .and_then(|mut f| writeln!(f, "{}", entry.to_string_compact()));
        match appended {
            Ok(()) => println!("appended {history_path}"),
            Err(e) => eprintln!("warning: could not append {history_path}: {e}"),
        }
    }

    if let Some(path) = args.flags.get("trace-out") {
        std::fs::write(path, skewed.trace.to_jsonl()).map_err(|e| format!("write {path}: {e}"))?;
        println!("wrote {path} ({} trace events)", skewed.trace.len());
    }
    if let Some(path) = args.flags.get("prom-out") {
        let text = skewed.registry.to_prometheus();
        fastjoin::core::telemetry::validate_prometheus(&text)
            .map_err(|e| format!("prometheus output failed validation: {e}"))?;
        std::fs::write(path, &text).map_err(|e| format!("write {path}: {e}"))?;
        println!("wrote {path}");
    }
    println!(
        "skewed : {} results, {} migrations, {} spans, p99 latency {} µs",
        skewed.results_total,
        skewed.migrations(),
        skewed.migration_spans.iter().map(Vec::len).sum::<usize>(),
        skewed.latency.quantile(0.99).unwrap_or(0)
    );
    println!("uniform: {} results", uniform.results_total);
    println!("windowed: {} results", windowed.results_total);
    println!(
        "batching: {batched_tps:.0} tuples/s at batch {batch_size} \
         vs {unbatched_tps:.0} unbatched ({:+.1} %)",
        (batched_tps / unbatched_tps.max(1.0) - 1.0) * 100.0
    );
    println!(
        "shards  : {shard1_tps:.0} / {shard2_tps:.0} / {shard4_tps:.0} tuples/s \
         at 1 / 2 / 4 dispatcher shards ({cores} cores, scaling {})",
        if cores >= 4 { "expected" } else { "not expected" }
    );
    for w in &warnings {
        eprintln!("warning: {w}");
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(format!("bench report incomplete:\n  {}", failures.join("\n  ")))
    }
}

/// One fault class of the chaos matrix: a name and a `FaultPlan` factory.
type ChaosClass = (&'static str, fn(u64) -> fastjoin::runtime::FaultPlan);

/// The chaos matrix: every fault class of the in-tree suite, replayed
/// across `--seeds` distinct seeds each, every run checked exactly-once
/// against a single-threaded oracle. The run-by-run outcome is written as
/// a JSON failure report (`--out`, default `CHAOS_report.json`) so CI can
/// upload it as an artifact when the command exits non-zero.
fn cmd_chaos(args: &Args) -> Result<(), String> {
    use fastjoin::core::config::FastJoinConfig;
    use fastjoin::core::json::Json;
    use fastjoin::runtime::{
        try_run_topology, ChaosPolicy, CrashFault, CrashPhase, FaultPlan, SupervisionConfig,
    };

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

    fn crash_everywhere(seed: u64, phase: CrashPhase) -> FaultPlan {
        let crashes = (0..2)
            .flat_map(|group| (0..4).map(move |instance| CrashFault { group, instance, phase }))
            .collect();
        FaultPlan { seed, crashes, ..FaultPlan::default() }
    }
    let classes: &[ChaosClass] = &[
        ("crash-pre-migstart", |s| crash_everywhere(s, CrashPhase::PreMigStart)),
        ("crash-handoff-forward", |s| crash_everywhere(s, CrashPhase::BetweenHandoffAndForward)),
        ("crash-pre-route-flip", |s| crash_everywhere(s, CrashPhase::PreRouteFlip)),
        ("crash-steady-state", |s| {
            crash_everywhere(s, CrashPhase::SteadyState { after_msgs: 400 })
        }),
        ("channel-chaos", |s| FaultPlan {
            seed: s,
            instance_chaos: ChaosPolicy {
                delay_1_in: 64,
                delay_max_us: 300,
                ..ChaosPolicy::default()
            },
            monitor_chaos: ChaosPolicy {
                delay_1_in: 16,
                delay_max_us: 500,
                drop_1_in: 4,
                dup_1_in: 4,
                reorder_1_in: 4,
            },
            ..FaultPlan::default()
        }),
        ("stalled-round", |s| FaultPlan { seed: s, drop_migrate_cmds: 2, ..FaultPlan::default() }),
        // Control-plane fault classes: kill the supervised control
        // executors themselves (they exist at every shard count).
        ("kill-sequencer", |s| FaultPlan {
            seed: s,
            crashes: vec![CrashFault {
                group: 0,
                instance: 0,
                phase: CrashPhase::SequencerBarrier { at_publish: 1 },
            }],
            ..FaultPlan::default()
        }),
        ("kill-shard", |s| FaultPlan {
            seed: s,
            // One kill per possible shard; entries for shards the run
            // doesn't have are inert.
            crashes: (0..4)
                .map(|k| CrashFault {
                    group: 0,
                    instance: k,
                    phase: CrashPhase::ShardSnapshotInstall { at_install: 1 },
                })
                .collect(),
            ..FaultPlan::default()
        }),
        ("kill-monitor", |s| FaultPlan {
            seed: s,
            crashes: (0..2)
                .map(|g| CrashFault {
                    group: g,
                    instance: 0,
                    phase: CrashPhase::MonitorMidRound { at_round: 1 },
                })
                .collect(),
            ..FaultPlan::default()
        }),
    ];

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
    for (name, plan_for) in classes {
        if let Some(filter) = &only {
            if filter != name {
                continue;
            }
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
                supervision: SupervisionConfig {
                    max_restarts: 16,
                    checkpoint_every: 32,
                    round_timeout_ms: 25,
                },
                faults: plan_for(seed),
                trace: fastjoin::core::trace::TraceConfig::default(),
                snapshot_interval_ms: 0,
                serve_metrics: None,
                snapshot_path: None,
            };
            let verdict: Result<(), String> = match try_run_topology(&cfg, tuples) {
                Err(e) => Err(format!("run failed: {e}")),
                Ok(report) => {
                    let mut problems = Vec::new();
                    if report.results_total != expected {
                        problems
                            .push(format!("results {} != oracle {expected}", report.results_total));
                    }
                    if report.probes_total != tuples_n {
                        problems.push(format!("probes {} != {tuples_n}", report.probes_total));
                    }
                    if report.latency.count() != tuples_n {
                        problems.push(format!(
                            "latency samples {} != {tuples_n}",
                            report.latency.count()
                        ));
                    }
                    let leaked = report.registry.counter_sum("probe_fanout_leaked");
                    if leaked != 0 {
                        problems.push(format!("{leaked} fan-out entries leaked"));
                    }
                    let (ho, hi) = (
                        report.registry.counter_sum("probe_handoffs_out"),
                        report.registry.counter_sum("probe_handoffs_in"),
                    );
                    if ho != hi {
                        problems.push(format!("handoffs out {ho} != in {hi}"));
                    }
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
                    ("class", Json::str(*name)),
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
/// (§III-D: trigger → buffer → forward → route flip → drain/abort). The
/// round view exits non-zero when the timeline is causally inconsistent —
/// phases out of order or committed route versions not monotone — so CI
/// can assert a journal tells a coherent story.
fn cmd_trace(args: &Args) -> Result<(), String> {
    use fastjoin::core::trace::{ActorKind, TraceJournal, TraceKind};

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
                TraceKind::RouteUpdated => {
                    if e.actor.kind == ActorKind::Dispatcher {
                        format!("committed version={}", e.aux)
                    } else {
                        format!("buffered-flushed={}", e.aux)
                    }
                }
                TraceKind::MigEnd => format!("from={}", e.aux),
                TraceKind::MigAbort => {
                    if e.actor.kind == ActorKind::Dispatcher {
                        format!("accepted, source={}", e.aux)
                    } else {
                        String::new()
                    }
                }
                TraceKind::MigReturn => format!("stored={} inflight={}", e.aux, e.aux2),
                TraceKind::MigDone => format!("tuples_moved={}", e.aux),
                TraceKind::AbortRequest => format!("source={}", e.aux),
                TraceKind::AbortOutcome => {
                    format!("aborted={}", if e.aux == 1 { "yes" } else { "refused" })
                }
                TraceKind::FaultDropTrigger => format!("source={} target={}", e.aux, e.aux2),
                TraceKind::FaultRestart => format!("restarts={}", e.aux),
                TraceKind::ShardRestart => format!("shard={} fence={}", e.aux, e.aux2),
                TraceKind::MonitorDown => format!("restarts={}", e.aux),
                TraceKind::MonitorUp => format!("degraded_ms={}", e.aux),
                TraceKind::SnapshotRepublish => format!("shard={} fence={}", e.aux, e.aux2),
                TraceKind::MigDecision => {
                    let reason = match e.aux {
                        0 => "triggered",
                        1 => "cooldown",
                        2 => "in_flight",
                        3 => "degenerate",
                        _ => "unknown",
                    };
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
        // Causal checks: the §III-D phase order, and monotone committed
        // route versions across the whole journal for this group.
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
            (TraceKind::AbortRequest, TraceKind::AbortOutcome),
            (TraceKind::MigAbort, TraceKind::MigReturn),
        ];
        for (a, b) in order {
            if let (Some(ia), Some(ib)) = (first(a), first(b)) {
                if ia > ib {
                    problems.push(format!("{} appears after {}", a.name(), b.name()));
                }
            }
        }
        let versions: Vec<u64> = journal
            .events()
            .iter()
            .filter(|e| {
                e.kind == TraceKind::RouteUpdated
                    && e.actor.kind == ActorKind::Dispatcher
                    && e.aux2 == u64::from(group)
            })
            .map(|e| e.aux)
            .collect();
        if versions.windows(2).any(|w| w[0] >= w[1]) {
            problems.push(format!("committed route versions not monotone: {versions:?}"));
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
            let done =
                evs.iter().any(|e| matches!(e.kind, TraceKind::MigDone | TraceKind::AbortOutcome));
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

/// Renders one `/snapshot` JSON document as a compact live table:
/// per-group monitor state, instances × load/queue/hot-keys, channel
/// depths, and supervisor health. Tolerates missing fields (zeros/blanks)
/// so a `top` built against a newer schema still renders older streams.
fn render_snapshot(snap: &fastjoin::core::json::Json) {
    use fastjoin::core::json::Json;
    let num = |j: &Json, key: &str| j.get(key).and_then(Json::as_u64).unwrap_or(0);
    println!("snapshot #{} at {} µs", num(snap, "seq"), num(snap, "at_us"));
    if let Some(groups) = snap.get("groups").and_then(Json::as_arr) {
        for g in groups {
            let side = if num(g, "group") == 0 { "r" } else { "s" };
            println!(
                "  group {side}: LI={:.2} phase={} epoch={} triggered={} effective={}",
                g.get("imbalance").and_then(Json::as_num).unwrap_or(0.0),
                g.get("phase").and_then(Json::as_str).unwrap_or("?"),
                num(g, "epoch"),
                num(g, "triggered"),
                num(g, "effective"),
            );
        }
    }
    println!("  {:<6} {:>10} {:>7} {:<4} hot keys (key x weight)", "inst", "load", "queue", "mig");
    if let Some(instances) = snap.get("instances").and_then(Json::as_arr) {
        for p in instances {
            let side = if num(p, "group") == 0 { "r" } else { "s" };
            let hot = p.get("hot_keys").and_then(Json::as_arr).map_or_else(String::new, |ks| {
                ks.iter()
                    .map(|k| format!("{}x{}", num(k, "key"), num(k, "weight")))
                    .collect::<Vec<_>>()
                    .join(" ")
            });
            let migrating = matches!(p.get("migrating"), Some(Json::Bool(true)));
            println!(
                "  {:<6} {:>10} {:>7} {:<4} {hot}",
                format!("{side}{}", num(p, "id")),
                num(p, "load"),
                num(p, "queue_depth"),
                if migrating { "yes" } else { "-" },
            );
        }
    }
    if let Some(Json::Obj(queues)) = snap.get("queues") {
        if !queues.is_empty() {
            let depths: Vec<String> = queues
                .iter()
                .map(|(name, depth)| format!("{name}={}", depth.as_u64().unwrap_or(0)))
                .collect();
            println!("  queues: {}", depths.join(" "));
        }
    }
    if let Some(sup) = snap.get("supervisor") {
        println!(
            "  supervisor: failures={} restarts={} degraded={}",
            num(sup, "executor_failures"),
            num(sup, "control_restarts"),
            matches!(sup.get("degraded"), Some(Json::Bool(true))),
        );
    }
}

/// Live view of a running topology: polls `/snapshot` from a runtime
/// started with `--serve-metrics PORT` (or tails the JSONL file written
/// by `--snapshot-out`) and renders a compact table per poll.
fn cmd_top(args: &Args) -> Result<(), String> {
    use fastjoin::core::json::Json;
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

fn usage() -> &'static str {
    "usage: fastjoin-cli <command> [--flag value]...\n\
     \n\
     commands:\n\
       simulate   discrete-event simulation of one system over a workload\n\
       compare    run the paper's headline systems side by side\n\
       topology   threaded runtime over a ride-hailing workload\n\
       census     key-skew statistics of a generated workload\n\
       gen        write a workload trace to a file (--out PATH)\n\
       bench      observability smoke suite -> BENCH_smoke.json\n\
       chaos      seeded fault-schedule matrix -> CHAOS_report.json\n\
       trace      inspect a trace journal written by --trace-out\n\
       top        live table from a running topology's snapshot plane\n\
     \n\
     fault-injection (chaos) knobs, all seed-deterministic via FaultPlan:\n\
       --seeds N       seeds per fault class (default 100)\n\
       --tuples N      workload size per run (default 6000)\n\
       --class NAME    run one class only: crash-pre-migstart |\n\
                       crash-handoff-forward | crash-pre-route-flip |\n\
                       crash-steady-state | channel-chaos | stalled-round |\n\
                       kill-sequencer | kill-shard | kill-monitor\n\
                       (the kill-* classes crash control-plane executors)\n\
       --out PATH      failure-report JSON (default CHAOS_report.json)\n\
       --trace-out P   write the first failing run's trace journal to P\n\
       --batch-size N  data-plane batch size for every run (default 1;\n\
                       CI also sweeps the matrix batched)\n\
       --channel-cap N bounded-channel capacity (default 256)\n\
       --dispatcher-shards N  dispatcher shard count for every run\n\
                       (default 1; CI also sweeps the matrix sharded)\n\
     bench:\n\
       --deadline-secs N   wall-clock deadline per scenario (default 120);\n\
                           breach exits non-zero\n\
       --batch-size N      data-plane batch size (default 64, must be >= 2);\n\
                           compared against a --batch-size 1 twin; a\n\
                           twin that is not slower prints a warning\n\
       --channel-cap N     bounded-channel capacity (default 256)\n\
       --dispatcher-shards N  shard count for the named scenarios\n\
                           (default 1); the shard-scaling section always\n\
                           sweeps 1/2/4 shards regardless\n\
       --trace-out PATH    write the skewed run's trace journal (JSONL)\n\
       --prom-out PATH     write the skewed run's metrics in Prometheus\n\
                           text format\n\
       --history PATH      headline-numbers ledger, appended per run\n\
                           (default BENCH_history.jsonl; warns when\n\
                           throughput drops >20% vs the previous entry\n\
                           for the same config)\n\
     trace:\n\
       --journal PATH  the JSONL journal to read (required)\n\
       --round N       reconstruct migration round N's phase timeline\n\
       --group r|s     which group's round N (required if both have one)\n\
       --kind NAME     filter the summary to one event kind\n\
       --actor LABEL   filter the summary to one actor (e.g. inst.r3)\n\
       --allow-drops true  analyse a journal that dropped events instead\n\
                           of exiting non-zero\n\
     topology introspection (all off by default):\n\
       --snapshot-ms N     periodic RuntimeSnapshot interval (0 = off)\n\
       --snapshot-out PATH append each snapshot as one JSON line\n\
       --serve-metrics N   serve /metrics and /snapshot on 127.0.0.1:N\n\
     top:\n\
       --port N        poll /snapshot from a --serve-metrics runtime\n\
       --file PATH     read the latest snapshot from a --snapshot-out file\n\
       --iters N       how many times to poll (default 1)\n\
       --interval-ms N delay between polls (default 1000)\n\
     see the module docs (cargo doc) or the README for the full flag list"
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    let result = Args::parse(rest).and_then(|args| match cmd.as_str() {
        "simulate" => cmd_simulate(&args),
        "compare" => cmd_compare(&args),
        "topology" => cmd_topology(&args),
        "census" => cmd_census(&args),
        "gen" => cmd_gen(&args),
        "bench" => cmd_bench(&args),
        "chaos" => cmd_chaos(&args),
        "trace" => cmd_trace(&args),
        "top" => cmd_top(&args),
        other => Err(format!("unknown command {other:?}\n{}", usage())),
    });
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

    fn args(list: &[&str]) -> Args {
        Args::parse(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
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
        assert!(Args::parse(&["positional".to_string()]).is_err());
        assert!(Args::parse(&["--dangling".to_string()]).is_err());
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
