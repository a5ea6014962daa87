//! Integration tests for the threaded runtime: completeness and migration
//! correctness under real concurrency.

use fastjoin_baselines::SystemKind;
use fastjoin_core::config::{FastJoinConfig, WindowConfig};
use fastjoin_core::metrics::MetricValue;
use fastjoin_core::trace::{ActorKind, TraceJournal, TraceKind};
use fastjoin_core::tuple::Tuple;
use fastjoin_runtime::{
    run_topology, try_run_topology, CrashFault, CrashPhase, FaultPlan, RunError, RuntimeConfig,
};

fn cfg(system: SystemKind, n: usize) -> RuntimeConfig {
    RuntimeConfig {
        system,
        fastjoin: FastJoinConfig {
            instances_per_group: n,
            theta: 1.5,
            migration_cooldown: 50_000, // 50 ms in the runtime's µs clock
            ..FastJoinConfig::default()
        },
        queue_cap: 256,
        monitor_period_ms: 20,
        rate_limit: None,
        ..RuntimeConfig::default()
    }
}

/// `pairs` copies of each of `keys` keys on both sides → keys·pairs² results.
fn uniform_workload(keys: u64, pairs: u64) -> Vec<Tuple> {
    let mut tuples = Vec::new();
    for i in 0..pairs {
        for k in 0..keys {
            tuples.push(Tuple::r(k, 0, i));
            tuples.push(Tuple::s(k, 0, i));
        }
    }
    tuples
}

#[test]
fn fastjoin_topology_is_complete() {
    let report = run_topology(&cfg(SystemKind::FastJoin, 4), uniform_workload(10, 20));
    assert_eq!(report.tuples_ingested, 400);
    assert_eq!(report.results_total, 10 * 20 * 20);
    // In the biclique, *every* tuple probes the opposite group once.
    assert_eq!(report.probes_total, 400, "every tuple probes exactly once");
}

#[test]
fn every_system_is_complete_under_concurrency() {
    for system in [
        SystemKind::FastJoin,
        SystemKind::BiStream,
        SystemKind::BiStreamContRand,
        SystemKind::Broadcast,
    ] {
        let report = run_topology(&cfg(system, 8), uniform_workload(7, 30));
        assert_eq!(report.results_total, 7 * 30 * 30, "{:?} lost or duplicated results", system);
        assert_eq!(report.probes_total, 420, "{system:?} probe completions");
    }
}

#[test]
fn skewed_workload_triggers_real_migrations() {
    // One hot key carries most of the load; run long enough for several
    // monitor periods. Throttle the spout so the run spans monitor ticks.
    let mut tuples = Vec::new();
    for i in 0..30_000u64 {
        let key = if i % 4 != 0 { 999 } else { i % 97 };
        if i % 5 == 0 {
            tuples.push(Tuple::r(key, 0, i));
        } else {
            tuples.push(Tuple::s(key, 0, i));
        }
    }
    let mut c = cfg(SystemKind::FastJoin, 4);
    c.rate_limit = Some(60_000.0); // ~500 ms run, ~25 monitor periods
    let report = run_topology(&c, tuples.clone());

    // Completeness: per-key cross products.
    let mut r_counts = std::collections::HashMap::new();
    let mut s_counts = std::collections::HashMap::new();
    for t in &tuples {
        match t.side {
            fastjoin_core::tuple::Side::R => *r_counts.entry(t.key).or_insert(0u64) += 1,
            fastjoin_core::tuple::Side::S => *s_counts.entry(t.key).or_insert(0u64) += 1,
        }
    }
    let expected: u64 =
        r_counts.iter().map(|(k, r)| r * s_counts.get(k).copied().unwrap_or(0)).sum();
    assert_eq!(report.results_total, expected, "migration must not lose or duplicate joins");
    assert!(
        report.migrations() > 0,
        "hot key should trigger at least one migration; stats: {:?}",
        report.monitor_stats
    );
}

#[test]
fn migrated_probes_account_exactly_once() {
    // Regression for the probe fan-out accounting bug: probes buffered at a
    // migration source used to lose their fan-out when forwarded (the
    // target guessed a fan-out of 1). A probe's fan-out now travels in its
    // tuple and the collector keeps a checked ledger, so every probe —
    // migrated or not — yields exactly one latency sample.
    //
    // Migration timing is scheduler-dependent, so the forward-observed
    // assertion retries; the exact-count invariants must hold on EVERY run
    // (and the topology itself panics on any ledger violation or leak).
    //
    // Workload shape matters: GreedyFit's strict `Gap > F_k` test never
    // moves a single ultra-hot key, so the skew is spread over twelve
    // medium-hot keys — each carries enough probe traffic that a probe is
    // regularly in flight when its key migrates. An aggressive monitor
    // cadence (2 ms period, 2 ms cooldown, θ = 1.2) yields hundreds of
    // rounds per run, so virtually every run forwards a buffered probe.
    let mut tuples = Vec::new();
    for i in 0..30_000u64 {
        let key = if i % 4 != 0 { 1000 + (i % 12) } else { i % 97 };
        if i % 5 == 0 {
            tuples.push(Tuple::r(key, 0, i));
        } else {
            tuples.push(Tuple::s(key, 0, i));
        }
    }
    let mut c = cfg(SystemKind::FastJoin, 4);
    c.fastjoin.theta = 1.2;
    c.fastjoin.migration_cooldown = 2_000; // 2 ms
    c.monitor_period_ms = 2;
    c.rate_limit = Some(60_000.0); // ~500 ms run, ~250 monitor periods
    let mut saw_forward = false;
    for attempt in 0..5 {
        let report = run_topology(&c, tuples.clone());
        // Exactly one completion and one latency sample per probe.
        assert_eq!(report.probes_total, 30_000, "attempt {attempt}: every tuple probes once");
        assert_eq!(
            report.latency.count(),
            30_000,
            "attempt {attempt}: exactly one latency sample per probe"
        );
        // A source journals each RouteUpdated it takes (unsampled) with
        // its buffer's length: a non-empty one went to the target in the
        // round's MigForward.
        let forwarded =
            report.trace.events().iter().any(|e| e.kind == TraceKind::RouteUpdated && e.aux > 0);
        if forwarded {
            // Buffered tuples crossed a migration and every probe was still
            // counted exactly once — the scenario the old accounting
            // corrupted.
            saw_forward = true;
            // Observability: the effective rounds left complete spans.
            let spans: Vec<_> = report.migration_spans.iter().flatten().collect();
            assert!(!spans.is_empty(), "migrations ran but no spans were traced");
            for s in spans {
                assert!(s.completed_at >= s.triggered_at, "span clock went backwards: {s:?}");
                assert_eq!(s.effective, s.keys_moved > 0);
            }
            break;
        }
    }
    assert!(saw_forward, "no source forwarded a non-empty buffer; tune the workload");
}

#[test]
fn batched_and_unbatched_runs_are_equivalent() {
    // Batching is a transport optimization: for every system, a batched
    // run must produce exactly the results, probe completions, and latency
    // sample counts of the batches-of-one run on the same workload.
    let tuples = uniform_workload(9, 25);
    for system in [SystemKind::FastJoin, SystemKind::BiStream, SystemKind::Broadcast] {
        let scalar = {
            let mut c = cfg(system, 4);
            c.batch_size = 1;
            run_topology(&c, tuples.clone())
        };
        // 7 never divides the stream evenly; 64 is the default.
        for batch in [7, 64] {
            let batched = {
                let mut c = cfg(system, 4);
                c.batch_size = batch;
                run_topology(&c, tuples.clone())
            };
            let label = format!("{system:?} batch {batch}");
            assert_eq!(batched.tuples_ingested, scalar.tuples_ingested, "{label} ingest");
            assert_eq!(batched.results_total, scalar.results_total, "{label} results");
            assert_eq!(batched.probes_total, scalar.probes_total, "{label} probes");
            assert_eq!(batched.latency.count(), scalar.latency.count(), "{label} latency samples");
        }
    }
}

#[test]
fn saturated_interleaved_run_ships_full_batches() {
    // A shard → instance message is a destination's whole pending queue,
    // stores and probes mixed. On an unthrottled R/S-interleaved stream the
    // queues fill to `batch_size` long before the 1 ms deadline, so the
    // batch fill — routed items per flush, readable from any report — sits
    // near 64.
    let mut c = cfg(SystemKind::BiStream, 4);
    c.batch_size = 64;
    let report = run_topology(&c, uniform_workload(2000, 20));
    let reg = &report.registry;
    let routed = reg.counter("dispatcher.tuples_ingested") + reg.counter("dispatcher.probe_copies");
    let flushes = reg.counter("dispatcher.batches_flushed");
    assert!(flushes > 0, "dispatcher.batches_flushed missing from the run registry");
    assert_eq!(routed, 2 * 80_000, "one store and one probe per tuple");
    let fill = routed as f64 / flushes as f64;
    assert!(fill >= 32.0, "batch fill {fill:.1}: {routed} items in {flushes} messages");
}

#[test]
fn batched_stage_attribution_and_trace_sampling_survive_batching() {
    // Per-tuple observability must not degrade when tuples ride batches:
    // dispatch/queue-wait stage histograms and sampled data-plane trace
    // events are recorded per tuple, not per message.
    let mut c = cfg(SystemKind::FastJoin, 2);
    c.batch_size = 16;
    let report = run_topology(&c, uniform_workload(10, 20));
    assert_eq!(report.results_total, 10 * 20 * 20);
    let reg_json = report.registry.to_json().to_string_compact();
    for stage in ["stage.dispatch_us", "stage.queue_wait_us", "stage.probe_us", "stage.emit_us"] {
        assert!(reg_json.contains(stage), "missing {stage} in registry under batching");
    }
    assert!(!report.trace.is_empty(), "trace sampling must keep working under batching");
    assert_eq!(report.trace.dropped(), 0);
}

#[test]
fn windowed_topology_respects_the_window() {
    // All R tuples are ingested (and thus timestamped) well before the S
    // probes; with a tiny window nothing matches, with a huge one all do.
    let n_pairs = 50u64;
    let make = |sub_window_len: u64| {
        let mut c = cfg(SystemKind::FastJoin, 2);
        c.fastjoin.window = Some(WindowConfig { sub_windows: 4, sub_window_len });
        c.rate_limit = Some(5_000.0); // 200 µs between tuples
        let mut tuples = Vec::new();
        for i in 0..n_pairs {
            tuples.push(Tuple::r(i % 5, 0, i));
        }
        for i in 0..n_pairs {
            tuples.push(Tuple::s(i % 5, 0, i));
        }
        run_topology(&c, tuples)
    };
    let huge = make(10_000_000); // 40 s window — everything joins
    assert_eq!(huge.results_total, 5 * 10 * 10);
    let tiny = make(10); // 40 µs window — probes ingested ≥ 200 µs later
    assert!(
        tiny.results_total < huge.results_total / 2,
        "tiny window must drop most joins: {} vs {}",
        tiny.results_total,
        huge.results_total
    );
}

#[test]
fn empty_workload_shuts_down_cleanly() {
    let report = run_topology(&cfg(SystemKind::FastJoin, 2), Vec::new());
    assert_eq!(report.results_total, 0);
    assert_eq!(report.tuples_ingested, 0);
}

#[test]
fn latency_histogram_is_populated() {
    let report = run_topology(&cfg(SystemKind::BiStream, 2), uniform_workload(5, 10));
    assert_eq!(report.latency.count(), 100, "both sides probe");
    assert!(report.mean_latency_us() > 0.0);
}

#[test]
fn per_instance_counters_account_for_every_tuple() {
    let report = run_topology(&cfg(SystemKind::BiStream, 4), uniform_workload(11, 13));
    // R tuples stored in group 0, S tuples in group 1.
    assert_eq!(report.stored_total(0), 11 * 13);
    assert_eq!(report.stored_total(1), 11 * 13);
    let probed_r: u64 = report.counters[0].iter().map(|c| c.probed).sum();
    assert_eq!(probed_r, 11 * 13, "every S tuple probes the R group once");
}

#[test]
fn rate_limit_slows_the_spout() {
    let t0 = std::time::Instant::now();
    let mut c = cfg(SystemKind::BiStream, 2);
    c.rate_limit = Some(10_000.0);
    let _ = run_topology(&c, uniform_workload(5, 100)); // 1000 tuples at 10k/s
    assert!(t0.elapsed().as_millis() >= 90, "1000 tuples at 10k/s must take ≥ ~100 ms");
}

#[test]
fn result_stream_carries_every_pair_exactly_once() {
    use fastjoin_core::tuple::JoinedPair;
    let (tx, rx) = crossbeam::channel::unbounded::<JoinedPair>();
    let handle = std::thread::spawn(move || {
        let mut pairs = Vec::new();
        while let Ok(p) = rx.recv() {
            pairs.push(p);
        }
        pairs
    });
    let report = fastjoin_runtime::try_run_topology_with_results(
        &cfg(SystemKind::FastJoin, 4),
        uniform_workload(6, 15),
        tx,
    )
    .expect("topology run");
    let pairs = handle.join().unwrap();
    assert_eq!(pairs.len() as u64, report.results_total);
    assert_eq!(pairs.len(), 6 * 15 * 15);
    let mut ids: Vec<_> = pairs.iter().map(JoinedPair::identity).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), pairs.len(), "duplicate pairs in the result stream");
    for p in &pairs {
        assert_eq!(p.left.key, p.right.key);
    }
}

#[test]
fn dropping_the_result_receiver_is_harmless() {
    let (tx, rx) = crossbeam::channel::unbounded();
    drop(rx); // consumer went away before the run
    let report = fastjoin_runtime::try_run_topology_with_results(
        &cfg(SystemKind::BiStream, 2),
        uniform_workload(3, 10),
        tx,
    )
    .expect("topology run");
    assert_eq!(report.results_total, 3 * 10 * 10);
}

/// The route versions the sequencer journaled for `group`'s applied flips
/// (`RouteStaged.aux`), in journal order.
fn route_versions(journal: &TraceJournal, group: u8) -> Vec<u64> {
    journal
        .events()
        .iter()
        .filter(|e| {
            e.kind == TraceKind::RouteStaged
                && e.actor.kind == ActorKind::Dispatcher
                && e.aux2 == u64::from(group)
        })
        .map(|e| e.aux)
        .collect()
}

#[test]
fn trace_journal_reconstructs_migration_round_timelines() {
    // Same shape as skewed_workload_triggers_real_migrations: a hot key,
    // throttled spout, several monitor periods — enough for real rounds.
    let mut tuples = Vec::new();
    for i in 0..30_000u64 {
        let key = if i % 4 != 0 { 999 } else { i % 97 };
        if i % 5 == 0 {
            tuples.push(Tuple::r(key, 0, i));
        } else {
            tuples.push(Tuple::s(key, 0, i));
        }
    }
    let mut c = cfg(SystemKind::FastJoin, 4);
    c.rate_limit = Some(60_000.0);
    let report = run_topology(&c, tuples);
    assert!(report.migrations() > 0, "need at least one round to trace");

    let journal = &report.trace;
    assert!(!journal.is_empty(), "tracing is on by default");
    assert_eq!(journal.dropped(), 0, "default ring size must not drop events in a smoke run");
    // The registry carries the same counters the JSON report exposes.
    assert_eq!(report.registry.counter("trace.events"), journal.len() as u64);
    assert_eq!(report.registry.counter("trace.dropped"), 0);
    // Sampled data-plane events and the dispatcher EOS marker are present.
    let kinds: Vec<TraceKind> = journal.events().iter().map(|e| e.kind).collect();
    assert!(kinds.contains(&TraceKind::Ingest), "sampled ingest events");
    assert!(kinds.contains(&TraceKind::Eos), "dispatcher EOS marker");

    // Every completed round's journal slice tells the full §III-D story:
    // trigger at the monitor, MigrateCmd at the source, MigStart/MigStore
    // at the target, the applied route flip and the source's RouteUpdated,
    // and MigEnd → MigDone.
    let done_rounds: Vec<(u8, u64)> = journal
        .events()
        .iter()
        .filter(|e| e.kind == TraceKind::MigDone && e.aux > 0)
        .map(|e| (e.actor.group, e.epoch))
        .collect();
    assert!(!done_rounds.is_empty(), "at least one effective round completed");
    for &(group, epoch) in &done_rounds {
        let round = journal.round_in(group, epoch);
        let has = |k: TraceKind| round.iter().any(|e| e.kind == k);
        for k in [
            TraceKind::MigTrigger,
            TraceKind::MigCmd,
            TraceKind::MigStart,
            TraceKind::MigStore,
            TraceKind::RouteStaged,
            TraceKind::RouteUpdated,
            TraceKind::MigEnd,
            TraceKind::MigDone,
        ] {
            assert!(has(k), "round {group}/{epoch} is missing a {} event: {round:?}", k.name());
        }
        // Causal order within the round (the journal is time-sorted).
        let first = |k: TraceKind| round.iter().position(|e| e.kind == k).unwrap();
        assert!(first(TraceKind::MigTrigger) < first(TraceKind::MigStart));
        assert!(first(TraceKind::MigStart) < first(TraceKind::RouteUpdated));
        assert!(first(TraceKind::RouteUpdated) <= first(TraceKind::MigDone));
    }
    // Applied route versions are strictly monotone per group — the
    // correlator a journal reader uses to order flips — and every group
    // that migrated has some.
    for group in 0..2u8 {
        let versions = route_versions(journal, group);
        if done_rounds.iter().any(|&(g, _)| g == group) {
            assert!(!versions.is_empty(), "group {group} migrated without a RouteStaged");
        }
        for w in versions.windows(2) {
            assert!(w[0] < w[1], "route versions must be monotone: {versions:?}");
        }
    }

    // Stage-latency attribution made it into the merged registry.
    let reg_json = report.registry.to_json().to_string_compact();
    for stage in ["stage.dispatch_us", "stage.queue_wait_us", "stage.probe_us", "stage.emit_us"] {
        assert!(reg_json.contains(stage), "missing {stage} in registry");
    }
}

#[test]
fn results_are_invariant_under_shard_count_and_batching() {
    // Dispatcher sharding is a transport choice, exactly like batching:
    // for every system, any shard count must produce the results, probe
    // completions, and latency sample counts of the one-shard run on the
    // same workload — including a shard count that does not divide the key
    // space evenly, and sharding combined with batching.
    let tuples = uniform_workload(9, 25);
    for system in [
        SystemKind::FastJoin,
        SystemKind::BiStream,
        SystemKind::BiStreamContRand,
        SystemKind::Broadcast,
    ] {
        let single = {
            let mut c = cfg(system, 4);
            c.dispatcher_shards = 1;
            run_topology(&c, tuples.clone())
        };
        for (shards, batch) in [(2usize, 1usize), (3, 1), (2, 7)] {
            let sharded = {
                let mut c = cfg(system, 4);
                c.dispatcher_shards = shards;
                c.batch_size = batch;
                run_topology(&c, tuples.clone())
            };
            let label = format!("{system:?} shards={shards} batch={batch}");
            assert_eq!(sharded.tuples_ingested, single.tuples_ingested, "{label}: ingest");
            assert_eq!(sharded.results_total, single.results_total, "{label}: results");
            assert_eq!(sharded.probes_total, single.probes_total, "{label}: probes");
            assert_eq!(sharded.latency.count(), single.latency.count(), "{label}: samples");
        }
    }
}

#[test]
fn sharded_skewed_run_migrates_and_keeps_route_versions_monotone() {
    // The skewed-migration scenario with two dispatcher shards: the
    // sequencer serializes every route flip behind the snapshot barrier,
    // so completeness must hold and the journal's applied route versions
    // must stay strictly monotone per group — the same causal invariant
    // `fastjoin-cli trace` checks on one-shard journals.
    let mut tuples = Vec::new();
    for i in 0..30_000u64 {
        let key = if i % 4 != 0 { 999 } else { i % 97 };
        if i % 5 == 0 {
            tuples.push(Tuple::r(key, 0, i));
        } else {
            tuples.push(Tuple::s(key, 0, i));
        }
    }
    let mut c = cfg(SystemKind::FastJoin, 4);
    c.dispatcher_shards = 2;
    c.batch_size = 8;
    c.rate_limit = Some(60_000.0);
    let report = run_topology(&c, tuples.clone());

    let mut r_counts = std::collections::HashMap::new();
    let mut s_counts = std::collections::HashMap::new();
    for t in &tuples {
        match t.side {
            fastjoin_core::tuple::Side::R => *r_counts.entry(t.key).or_insert(0u64) += 1,
            fastjoin_core::tuple::Side::S => *s_counts.entry(t.key).or_insert(0u64) += 1,
        }
    }
    let expected: u64 =
        r_counts.iter().map(|(k, r)| r * s_counts.get(k).copied().unwrap_or(0)).sum();
    assert_eq!(report.results_total, expected, "sharded migration lost or duplicated joins");
    assert_eq!(report.probes_total, 30_000, "every tuple probes exactly once");
    assert!(
        report.migrations() > 0,
        "hot key should still trigger migrations under sharding; stats: {:?}",
        report.monitor_stats
    );
    // The sequencer is the only actor emitting dispatcher route events, so
    // the route-version correlator survives sharding unchanged.
    for (group, stats) in (0..2u8).zip(&report.monitor_stats) {
        let versions = route_versions(&report.trace, group);
        if stats.is_some_and(|s| s.effective > 0) {
            assert!(!versions.is_empty(), "group {group} migrated without a RouteStaged");
        }
        for w in versions.windows(2) {
            assert!(w[0] < w[1], "route versions must stay monotone under sharding: {versions:?}");
        }
    }
    // Per-shard registries merged additively: the dispatcher ingest
    // counter still accounts for every tuple exactly once.
    assert_eq!(report.registry.counter_sum("dispatcher.tuples_ingested"), 30_000);
}

#[test]
fn disabling_tracing_yields_an_empty_journal() {
    let mut c = cfg(SystemKind::FastJoin, 2);
    c.trace = fastjoin_core::trace::TraceConfig::disabled();
    let report = run_topology(&c, uniform_workload(5, 10));
    assert_eq!(report.results_total, 5 * 10 * 10);
    assert!(report.trace.is_empty(), "disabled tracing must journal nothing");
    assert_eq!(report.trace.dropped(), 0);
}

#[test]
fn collector_keeps_up_while_the_input_lasts() {
    // One report per probe, shipped once per instance message: drained
    // only after the last tuple, the queue would hold all 40k of them at
    // once. Drained between batches it holds what the (here tiny) bounded
    // channels keep in flight, give or take what arrives during one visit.
    let mut cfg = cfg(SystemKind::BiStream, 4);
    cfg.queue_cap = 16;
    cfg.batch_size = 8;
    let report = run_topology(&cfg, uniform_workload(2000, 10));
    assert_eq!(report.probes_total, 40_000);
    let Some(MetricValue::Gauge(hwm)) = report.registry.get("collector.backlog_hwm") else {
        panic!("collector.backlog_hwm missing from the run registry");
    };
    assert!(*hwm < 10_000.0, "collector backlog reached {hwm} of 40000 probe reports");
}

#[test]
fn saturated_run_reports_once_per_instance_message() {
    // An instance ships the reports of the probes one input message
    // completed as one vector, so on a saturated interleaved stream the
    // collector edge carries at most one message per shard → instance
    // message (plus slack for steps without a data message), each with
    // about half a batch of reports — not one message per probe.
    let mut c = cfg(SystemKind::BiStream, 4);
    c.batch_size = 64;
    let report = run_topology(&c, uniform_workload(2000, 20));
    assert_eq!(report.probes_total, 80_000, "the oracle's: every tuple probes exactly once");
    assert_eq!(report.results_total, 2000 * 20 * 20, "the oracle's: keys · pairs²");
    let reg = &report.registry;
    let batches = reg.counter("collector.report_batches");
    let data_messages = reg.counter("dispatcher.batches_flushed");
    let executors = 2 + 2 * 4; // shard, sequencer, instances (no monitors)
    assert!(batches > 0, "collector.report_batches missing from the run registry");
    assert!(
        batches <= data_messages + executors,
        "{batches} report messages for {data_messages} instance data messages"
    );
    let parts = reg.counter("dispatcher.probe_copies");
    let fill = parts as f64 / batches as f64;
    assert!(fill >= 16.0, "{fill:.1} reports per message: {parts} in {batches}");
}

#[test]
fn stage_histograms_count_every_routed_item_and_every_probe_part() {
    // Resolving a `stage.*` histogram once per message must not change
    // what it counts: dispatch and queue-wait see every routed item (one
    // store plus `fanout` probe copies per tuple), probe and emit see
    // every probe part — on the skewed, paced run that migrates the hot
    // key (forwarded tuples are counted where they were first routed).
    let tuples: Vec<Tuple> = (0..30_000u64)
        .map(|i| {
            let key = if i % 4 != 0 { 999 } else { i % 97 };
            if i % 5 == 0 {
                Tuple::r(key, 0, i)
            } else {
                Tuple::s(key, 0, i)
            }
        })
        .collect();
    let mut c = cfg(SystemKind::FastJoin, 4);
    c.rate_limit = Some(60_000.0);
    let report = run_topology(&c, tuples);
    let reg = &report.registry;
    let samples = |stage: &str| -> u64 {
        reg.iter()
            .filter(|(name, _)| name.ends_with(stage))
            .map(|(_, v)| if let MetricValue::Histogram(h) = v { h.count() } else { 0 })
            .sum()
    };
    let parts = reg.counter("dispatcher.probe_copies");
    let routed = reg.counter("dispatcher.tuples_ingested") + parts;
    assert_eq!(reg.counter("dispatcher.tuples_ingested"), 30_000);
    assert!(parts >= 30_000, "every tuple probes at least once");
    assert_eq!(samples("stage.dispatch_us"), routed);
    assert_eq!(samples("stage.queue_wait_us"), routed);
    assert_eq!(samples("stage.probe_us"), parts);
    assert_eq!(samples("stage.emit_us"), parts);
}

#[test]
fn a_crash_past_the_restart_budget_fails_the_run_while_the_input_lasts() {
    // `max_restarts = 0` (the default): the first crash is final. The
    // spout thread sees the failure between batches, stops feeding and
    // reports it, rather than pushing the rest of the input at a pipeline
    // with a dead instance.
    let mut cfg = cfg(SystemKind::BiStream, 4);
    cfg.faults = FaultPlan {
        crashes: vec![CrashFault {
            group: 0,
            instance: 0,
            phase: CrashPhase::SteadyState { after_msgs: 20 },
        }],
        ..FaultPlan::default()
    };
    let mut pulled = 0u64;
    let workload = uniform_workload(2000, 100).into_iter().inspect(|_| pulled += 1);
    match try_run_topology(&cfg, workload) {
        Err(RunError::ExecutorFailed { name, .. }) => assert_eq!(name, "join-R-0"),
        other => {
            panic!("expected join-R-0 to fail the run, got {:?}", other.map(|r| r.results_total))
        }
    }
    assert!(pulled < 400_000, "the spout fed the whole input to a failed run");
}
