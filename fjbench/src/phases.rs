//! What one workload run measures: the end-to-end phases (`--trace 0`)
//! and the traced, per-layer phase (`--trace 1`).

use std::path::Path;
use std::time::{Duration, Instant};

use fastjoin_baselines::SystemKind;
use fastjoin_core::biclique::JoinCluster;
use fastjoin_core::config::FastJoinConfig;
use fastjoin_core::metrics::MetricValue;
use fastjoin_core::trace::TraceConfig;
use fastjoin_core::tuple::Tuple;
use fastjoin_runtime::{RuntimeConfig, RuntimeReport};

use crate::reference::HostSpeed;
use crate::replay::{self, Layer, Recorder, Replay};
use crate::runtime::{self, PacedRep, SatRep};
use crate::stats::{self, median, percentile_sorted};
use crate::workload::{self, Digest, Spec};
use crate::{layers, Metrics, Outcome};

/// Set-ups timed before the first run; one more follows each saturated
/// repetition, so that `setup_s` has the whole run to find a quiet moment.
const INITIAL_SETUPS: usize = 5;
const MIN_SATURATED_REPS: usize = 2;
/// Paced repetitions of the end-to-end run: enough to check exactly-once
/// by identity and print the latency; the rest of `--seconds` goes to the
/// saturated repetitions, the long ones (up to 4 s).
const PACED_REPS: usize = 2;

/// Phase 1: everything derived from the seed before the system runs.
struct Prepared {
    input: Vec<Tuple>,
    /// `Σ_k r_k·s_k` over the whole input.
    expected: u64,
    /// Reference digest of the paced prefix.
    prefix_digest: Digest,
}

impl Prepared {
    fn new(spec: &Spec, seed: u64) -> Prepared {
        Prepared::from_input(spec, workload::generate(spec, seed))
    }

    fn from_input(spec: &Spec, input: Vec<Tuple>) -> Prepared {
        let expected = workload::expected_pairs(&input);
        let prefix_digest = workload::reference_digest(&input[..spec.paced_tuples]);
        Prepared { input, expected, prefix_digest }
    }

    fn prefix(&self, spec: &Spec) -> &[Tuple] {
        &self.input[..spec.paced_tuples]
    }
}

/// Output checked against the reference, summed over every run made.
#[derive(Default)]
struct Checked {
    attempted: u64,
    failed: u64,
}

impl Checked {
    fn saturated(&mut self, rep: &SatRep, expected: u64) {
        self.attempted += expected;
        self.failed += rep.failed_pairs(expected);
    }

    fn paced(&mut self, rep: &PacedRep, reference: &Digest) {
        match &rep.report {
            Ok(_) => self.digest("paced run", &rep.digest, reference),
            Err(e) => {
                eprintln!("run failed: {e}");
                self.attempted += reference.count;
                self.failed += reference.count;
            }
        }
    }

    fn digest(&mut self, what: &str, got: &Digest, reference: &Digest) {
        self.attempted += reference.count;
        self.failed += got.mismatch(reference);
        if got != reference {
            eprintln!("{what}: {got:?}, expected {reference:?}");
        }
    }

    fn count(&mut self, what: &str, got: u64, expected: u64) {
        self.attempted += expected;
        self.failed += got.abs_diff(expected);
        if got != expected {
            eprintln!("{what}: {got} pairs, expected {expected}");
        }
    }
}

/// Repeats `rep` (which returns its own duration in seconds) until the
/// next repetition would overrun `budget`, but at least `min` times.
fn repeat_within(budget: Duration, min: usize, mut rep: impl FnMut() -> f64) {
    let start = Instant::now();
    let (mut n, mut longest) = (0, 0.0f64);
    loop {
        longest = longest.max(rep());
        n += 1;
        if n >= min && start.elapsed().as_secs_f64() + longest > budget.as_secs_f64() {
            break;
        }
    }
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok());
    kb.unwrap_or(0.0) / 1024.0
}

fn fastest(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::INFINITY, f64::min)
}

/// `--trace 0`: setup → saturated → paced, tracing off throughout.
///
/// Every timing is reported as the best of its repetitions, not their
/// median. The benchmark runs on shared hosts where other guests take the
/// cores away for seconds at a time; that only ever adds time, so the
/// fastest repetition is the estimate least touched by it. Throughput and
/// CPU cost are further divided by the reference kernel's best run, sampled
/// between the repetitions (see `reference.rs`). The raw figures,
/// repetition counts and quartiles are printed alongside.
pub fn end_to_end(spec: &Spec, seed: u64, seconds: f64) -> Outcome {
    let mut setup_s = Vec::new();
    let mut set_up = || {
        let start = Instant::now();
        let prepared = Prepared::new(spec, seed);
        setup_s.push(start.elapsed().as_secs_f64());
        prepared
    };
    let p = (0..INITIAL_SETUPS).map(|_| set_up()).last().expect("at least one set-up");
    let cfg = runtime::config(spec);
    let mut checked = Checked::default();

    // Saturated, closed loop. The discarded warm-up runs a quarter of the
    // input: enough to spawn every thread and grow the allocator's arenas
    // at a sixteenth of the cost on workloads whose cost grows with state.
    let phase = Instant::now();
    let warm = &p.input[..p.input.len() / 4];
    checked.saturated(&runtime::saturated_rep(&cfg, warm), workload::expected_pairs(warm));
    let tuples = p.input.len() as f64;
    let (mut wall_s, mut cpu_s) = (Vec::new(), Vec::new());
    let paced_s = PACED_REPS as f64 * (spec.paced_tuples as f64 / spec.paced_rate + 0.1);
    let budget =
        Duration::from_secs_f64((seconds - paced_s).max(0.0)).saturating_sub(phase.elapsed());
    let mut host = HostSpeed::new();
    host.sample(&p.input);
    repeat_within(budget, MIN_SATURATED_REPS, || {
        let rep = runtime::saturated_rep(&cfg, &p.input);
        checked.saturated(&rep, p.expected);
        wall_s.push(rep.secs);
        cpu_s.push(rep.cpu_secs);
        host.sample(&p.input);
        set_up();
        rep.secs
    });
    let rss = peak_rss_mb();

    // Paced, open loop.
    let paced: Vec<PacedRep> = (0..PACED_REPS)
        .map(|_| {
            let rep = runtime::paced_rep(&cfg, p.prefix(spec), Some(spec.paced_rate));
            checked.paced(&rep, &p.prefix_digest);
            rep
        })
        .collect();

    let mut m = Metrics::default();
    m.push("throughput_vs_reference", 100.0 * host.wall_s / fastest(&wall_s), "%");
    m.push("cpu_vs_reference", fastest(&cpu_s) / host.cpu_s, "ratio");
    m.push("peak_rss_mb", rss, "MB");
    m.push("setup_s", fastest(&setup_s), "s");

    // What lies behind each best-of, for the reader (not in the JSON).
    let [q1, q2, q3] = stats::quartiles(&wall_s);
    println!(
        "{}: saturated n={} reps of {} pairs: wall quartiles {q1:.3} {q2:.3} {q3:.3} s; \
         best {:.0} tuples/s, {:.3} us CPU per tuple, cores busy {:.2}; \
         reference kernel best {:.4} s wall, {:.4} s CPU",
        spec.name,
        wall_s.len(),
        p.expected,
        tuples / fastest(&wall_s),
        fastest(&cpu_s) * 1e6 / tuples,
        median(&cpu_s) / q2,
        host.wall_s,
        host.cpu_s
    );
    for rep in &paced {
        let n = rep.latencies_ms.len();
        let tail = stats::highest_supported_percentile(n);
        println!(
            "{}: paced {:.0} tuples/s, n={n} results: p50 {:.3} ms, p{tail} {:.3} ms, \
             generator lag p99 {:.3} ms, completed {}",
            spec.name,
            spec.paced_rate,
            rep.p50_ms(),
            percentile_sorted(&rep.latencies_ms, tail),
            percentile_sorted(&rep.pull_lag_ms, 99.0),
            rep.completed(spec)
        );
    }
    let completed = paced.iter().filter(|r| r.completed(spec)).count();
    println!(
        "{}: paced_completed_share {:.3}, failed_ops_share {:.6} ({} of {} pairs)",
        spec.name,
        completed as f64 / paced.len() as f64,
        checked.failed as f64 / checked.attempted as f64,
        checked.failed,
        checked.attempted
    );
    Outcome { attempted: checked.attempted, failed: checked.failed, metrics: m }
}

/// Mean of the histograms whose registry name ends with `suffix`,
/// weighted by their sample counts.
fn histogram_mean(report: &RuntimeReport, suffix: &str) -> f64 {
    let (mut sum, mut n) = (0.0, 0u64);
    for (name, value) in report.registry.iter() {
        if let (true, MetricValue::Histogram(h)) = (name.ends_with(suffix), value) {
            sum += h.mean().unwrap_or(0.0) * h.count() as f64;
            n += h.count();
        }
    }
    sum / n as f64
}

/// The largest share any one instance of a group has of `count`, taking
/// the worse of the two groups (0.25 is perfect balance at 4 instances).
fn max_share(
    report: &RuntimeReport,
    count: impl Fn(&fastjoin_core::instance::InstanceCounters) -> u64,
) -> f64 {
    report
        .counters
        .iter()
        .map(|group| {
            let total: u64 = group.iter().map(&count).sum();
            let max = group.iter().map(&count).max().unwrap_or(0);
            max as f64 / total.max(1) as f64
        })
        .fold(0.0, f64::max)
}

fn monitor_metrics(report: &RuntimeReport, m: &mut Metrics) {
    let stats: Vec<_> = report.monitor_stats.iter().flatten().collect();
    let triggered: u64 = stats.iter().map(|s| s.triggered).sum();
    let effective: u64 = stats.iter().map(|s| s.effective).sum();
    m.push("monitor.rounds_triggered", triggered as f64, "count");
    m.push("monitor.rounds_effective_share", effective as f64 / triggered as f64, "ratio");
    m.push(
        "monitor.tuples_moved",
        stats.iter().map(|s| s.tuples_moved).sum::<u64>() as f64,
        "count",
    );
    let li: Vec<f64> =
        report.imbalance.iter().flatten().flat_map(|s| s.means()).flatten().collect();
    m.push("monitor.li_mean", stats::mean(&li), "ratio");
    let flips: Vec<f64> = report
        .migration_spans
        .iter()
        .flatten()
        .filter_map(|s| s.route_flip_us)
        .map(|us| us as f64)
        .collect();
    m.push("monitor.route_flip_p50_us", median(&flips), "us");
}

/// The single-threaded oracle over the paced prefix: the same job as the
/// streamed runtime run, pairs materialized. Returns its digest and rate.
fn oracle(spec: &Spec, prefix: &[Tuple]) -> (Digest, f64) {
    let cfg = FastJoinConfig {
        instances_per_group: runtime::INSTANCES_PER_GROUP,
        theta: runtime::THETA,
        monitor_period: replay::TICK_TUPLES,
        migration_cooldown: replay::COOLDOWN_TUPLES,
        ..FastJoinConfig::default()
    };
    let mut cluster = match spec.system {
        SystemKind::BiStream => JoinCluster::bistream(cfg),
        _ => JoinCluster::fastjoin(cfg),
    };
    let start = Instant::now();
    let pairs = cluster.run_to_completion(prefix.iter().copied());
    let secs = start.elapsed().as_secs_f64();
    let mut digest = Digest::default();
    pairs.iter().for_each(|p| digest.add(p.left.payload, p.right.payload));
    (digest, prefix.len() as f64 / secs)
}

/// `--trace 1`: one repetition of each traced step. Timings here carry
/// single-run noise; they locate time, the end-to-end run measures it.
pub fn per_layer(spec: &Spec, seed: u64, spans_out: Option<&Path>) -> Result<Outcome, String> {
    let mut m = Metrics::default();
    let mut checked = Checked::default();

    let start = Instant::now();
    let input = workload::generate(spec, seed);
    let gen_ns = start.elapsed().as_secs_f64() * 1e9 / input.len() as f64;
    m.push("datagen.gen_ns_per_tuple", gen_ns, "ns");
    let p = Prepared::from_input(spec, input);
    let tuples = p.input.len();
    let cfg = runtime::config(spec);

    // (a) Saturated: untraced with pull gaps, then the journal on. The
    // discarded first repetition is full-size here: a single pair of
    // repetitions is compared, and the first one in a process pays for
    // every page of heap the later ones reuse.
    checked.saturated(&runtime::saturated_rep(&cfg, &p.input), p.expected);
    let plain = runtime::saturated_rep_with_gaps(&cfg, &p.input);
    checked.saturated(&plain.rep, p.expected);
    let traced_cfg = RuntimeConfig { trace: TraceConfig::default(), ..cfg.clone() };
    let traced = runtime::saturated_rep_with_gaps(&traced_cfg, &p.input);
    checked.saturated(&traced.rep, p.expected);
    let untraced_rate = plain.rep.tuples_per_s(tuples);
    m.push("runtime.untraced_tuples_per_s", untraced_rate, "tuples/s");
    // Overheads compare CPU seconds, not wall: added work is what they
    // claim, and CPU time is the less host-dependent of the two clocks.
    let overhead = (traced.rep.cpu_secs / plain.rep.cpu_secs - 1.0) * 100.0;
    m.push("runtime.trace_overhead_pct", overhead, "%");
    m.push("runtime.cores_busy", plain.rep.cores_busy(), "ratio");
    m.push("runtime.drain_s", plain.drain_s, "s");
    m.push("runtime.spout_stall_share", plain.stall_share, "ratio");
    if let Ok(report) = &plain.rep.report {
        m.push("runtime.work_share_max", max_share(report, |c| c.joined), "ratio");
        m.push("runtime.stored_share_max", max_share(report, |c| c.stored), "ratio");
        let hwm = report
            .registry
            .iter()
            .filter_map(|(name, v)| match v {
                MetricValue::Gauge(g) if name.ends_with(".queue.depth") => Some(*g),
                _ => None,
            })
            .fold(0.0, f64::max);
        m.push("runtime.queue_depth_hwm", hwm, "count");
        m.push("runtime.sends_parked", report.registry.counter_sum("sends_parked") as f64, "count");
        monitor_metrics(report, &mut m);
    }

    // The same input on the hash baseline and on two dispatcher shards.
    let hash = runtime::saturated_rep(
        &RuntimeConfig { system: SystemKind::BiStream, ..cfg.clone() },
        &p.input,
    );
    checked.saturated(&hash, p.expected);
    m.push("monitor.speedup_vs_hash", untraced_rate / hash.tuples_per_s(tuples), "ratio");
    let shards2 =
        runtime::saturated_rep(&RuntimeConfig { dispatcher_shards: 2, ..cfg.clone() }, &p.input);
    checked.saturated(&shards2, p.expected);
    m.push("dispatcher.shards2_tuples_per_s", shards2.tuples_per_s(tuples), "tuples/s");

    // Paced prefix: one open-loop repetition for the tails, one unthrottled
    // for the result stream's ceiling, and the oracle on the same job.
    let paced = runtime::paced_rep(&cfg, p.prefix(spec), Some(spec.paced_rate));
    checked.paced(&paced, &p.prefix_digest);
    m.push("runtime.paced_latency_p50_ms", paced.p50_ms(), "ms");
    m.push("runtime.paced_latency_p95_ms", percentile_sorted(&paced.latencies_ms, 95.0), "ms");
    m.push("runtime.paced_latency_p99_ms", percentile_sorted(&paced.latencies_ms, 99.0), "ms");
    m.push("runtime.generator_lag_p99_ms", percentile_sorted(&paced.pull_lag_ms, 99.0), "ms");
    m.push("runtime.paced_completed_share", f64::from(u8::from(paced.completed(spec))), "ratio");
    if let Ok(report) = &paced.report {
        let p50_us = report.latency.quantile(0.5).unwrap_or(0);
        m.push("runtime.report_latency_p50_ms", p50_us as f64 / 1e3, "ms");
        // The program's own stage histograms, read where they mean
        // something: at a sustainable rate they are service times, under
        // saturation they only measure the backlog.
        for (name, suffix) in [
            ("runtime.stage_dispatch_us_mean", "stage.dispatch_us"),
            ("runtime.stage_queue_wait_us_mean", "stage.queue_wait_us"),
            ("runtime.stage_probe_us_mean", "stage.probe_us"),
            ("runtime.stage_emit_us_mean", "stage.emit_us"),
        ] {
            m.push(name, histogram_mean(report, suffix), "us");
        }
    }
    let stream = runtime::paced_rep(&cfg, p.prefix(spec), None);
    checked.paced(&stream, &p.prefix_digest);
    m.push("runtime.stream_pairs_per_s", stream.digest.count as f64 / stream.secs, "1/s");
    let (oracle_digest, oracle_rate) = oracle(spec, p.prefix(spec));
    checked.digest("oracle", &oracle_digest, &p.prefix_digest);
    m.push("oracle.tuples_per_s", oracle_rate, "tuples/s");
    m.push(
        "runtime.speedup_vs_oracle",
        spec.paced_tuples as f64 / stream.secs / oracle_rate,
        "ratio",
    );

    // (b, c) Layer replay: a discarded first pass (page faults, as above),
    // then spans on, then spans off.
    let warm = Replay::run(spec.system, &p.input, &mut Recorder::new(false));
    checked.count("replay warm-up", warm.pairs, p.expected);
    drop(warm);
    let mut rec = Recorder::new(true);
    let with_spans = Replay::run(spec.system, &p.input, &mut rec);
    checked.count("replay", with_spans.pairs, p.expected);
    let without = Replay::run(spec.system, &p.input, &mut Recorder::new(false));
    checked.count("replay without spans", without.pairs, p.expected);
    let table = replay::self_times(&rec.spans);
    replay::print_table(&rec.spans);
    let wall_ns = with_spans.wall_s * 1e9;
    for (name, layer) in [
        ("replay.share_dispatch", Layer::Dispatch),
        ("replay.share_store", Layer::Store),
        ("replay.share_probe", Layer::Probe),
        ("replay.share_monitor", Layer::Monitor),
        ("replay.share_migration", Layer::Migration),
    ] {
        m.push(name, table[layer as usize] as f64 / wall_ns, "ratio");
    }
    m.push("replay.layer_sum_ratio", table.iter().sum::<u64>() as f64 / wall_ns, "ratio");
    m.push("replay.span_overhead_pct", (with_spans.cpu_s / without.cpu_s - 1.0) * 100.0, "%");
    m.push("replay.rounds_triggered", with_spans.rounds() as f64, "count");
    m.push("replay.tuples_per_s", tuples as f64 / without.wall_s, "tuples/s");
    if let Some(path) = spans_out {
        std::fs::write(path, replay::spans_to_jsonl(&rec.spans))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    drop(without);

    // (d) Direct timings on the state the replay ended with.
    layers::measure(&p.input, p.expected, &with_spans, &mut m);

    Ok(Outcome { attempted: checked.attempted, failed: checked.failed, metrics: m })
}
