//! Determinism and engine-agreement tests: the simulator is bit-stable for
//! a fixed seed, generators replay identically, and engines agree on
//! result counts.

use fastjoin::baselines::SystemKind;
use fastjoin::core::config::{FastJoinConfig, SelectorKind};
use fastjoin::core::tuple::Tuple;
use fastjoin::datagen::ridehail::{RideHailConfig, RideHailGen};
use fastjoin::datagen::synthetic::{SyntheticConfig, SyntheticGen};
use fastjoin::sim::{CostModel, SimConfig, Simulation};

fn sim_cfg(system: SystemKind, selector: SelectorKind) -> SimConfig {
    SimConfig {
        system,
        fastjoin: FastJoinConfig {
            instances_per_group: 6,
            theta: 1.5,
            monitor_period: 200_000,
            migration_cooldown: 300_000,
            selector,
            ..FastJoinConfig::default()
        },
        cost: CostModel { per_comparison: 0.05, per_match: 0.05, ..CostModel::default() },
        max_time: 60_000_000,
        ..SimConfig::default()
    }
}

fn workload() -> Vec<Tuple> {
    RideHailGen::new(&RideHailConfig {
        locations: 500,
        orders: 5_000,
        tracks: 20_000,
        order_rate: 20_000.0,
        track_rate: 80_000.0,
        ..RideHailConfig::default()
    })
    .collect()
}

#[test]
fn simulator_runs_are_bit_stable() {
    let run = |selector| {
        let report =
            Simulation::new(sim_cfg(SystemKind::FastJoin, selector), workload().into_iter()).run();
        (
            report.results_total,
            report.duration,
            report.migrations(),
            report.metrics.throughput.sums().to_vec(),
            report.metrics.imbalance.means(),
        )
    };
    assert_eq!(run(SelectorKind::GreedyFit), run(SelectorKind::GreedyFit));
    // SAFit is randomized but seeded — still deterministic.
    assert_eq!(run(SelectorKind::SaFit), run(SelectorKind::SaFit));
}

/// Pins one run's output across builds: a change that must not move the
/// simulator (the figure benches read exactly these quantities) has to
/// reproduce these numbers bit for bit.
#[test]
fn simulator_output_is_pinned() {
    let report = Simulation::new(
        sim_cfg(SystemKind::FastJoin, SelectorKind::GreedyFit),
        workload().into_iter(),
    )
    .run();
    assert_eq!(report.results_total, 562_751);
    assert_eq!(report.duration, 600_000);
    assert_eq!(report.migrations(), 2);
    let moved = report.monitor_stats.map(|s| s.expect("FastJoin has monitors").tuples_moved);
    assert_eq!(moved, [44, 410], "tuples moved per group (R, S)");
    let hist = &report.metrics.latency_hist;
    assert_eq!(hist.count(), 25_000);
    let mean = hist.mean().expect("probes were served");
    assert!((mean - 204.06288).abs() < 1e-5, "mean latency {mean} µs");
}

/// Pins BiStream's LI series: a static group has no monitor, so the
/// simulator computes its imbalance from the period's load reports itself.
#[test]
fn static_imbalance_series_is_pinned() {
    let report = Simulation::new(
        sim_cfg(SystemKind::BiStream, SelectorKind::GreedyFit),
        workload().into_iter(),
    )
    .run();
    assert_eq!(report.metrics.imbalance.means(), [Some(1.714252588686731)]);
}

/// Pins ContRand's latency histogram: its probes fan out to several
/// instances, and a probe's one latency sample is taken when its last
/// part completes.
#[test]
fn fanned_out_probe_latency_is_pinned() {
    let report = Simulation::new(
        sim_cfg(SystemKind::BiStreamContRand, SelectorKind::GreedyFit),
        workload().into_iter(),
    )
    .run();
    let hist = &report.metrics.latency_hist;
    assert_eq!(hist.count(), 25_000);
    let mean = hist.mean().expect("probes were served");
    assert!((mean - 203.08424).abs() < 1e-5, "mean latency {mean} µs");
}

/// Pins SAFit's migrations: its seeded RNG carries over from round to
/// round within a group, so where the selector lives decides its plans.
#[test]
fn safit_migrations_are_pinned() {
    let report =
        Simulation::new(sim_cfg(SystemKind::FastJoin, SelectorKind::SaFit), workload().into_iter())
            .run();
    assert_eq!(report.migrations(), 2);
    let moved = report.monitor_stats.map(|s| s.expect("FastJoin has monitors").tuples_moved);
    assert_eq!(moved, [0, 4], "tuples moved per group (R, S)");
}

#[test]
fn greedy_and_safit_agree_on_result_counts() {
    let greedy = Simulation::new(
        sim_cfg(SystemKind::FastJoin, SelectorKind::GreedyFit),
        workload().into_iter(),
    )
    .run();
    let sa =
        Simulation::new(sim_cfg(SystemKind::FastJoin, SelectorKind::SaFit), workload().into_iter())
            .run();
    // Different migration plans, identical join semantics.
    assert_eq!(greedy.results_total, sa.results_total);
}

#[test]
fn generators_replay_identically() {
    let a: Vec<Tuple> = SyntheticGen::new(&SyntheticConfig {
        keys: 1_000,
        tuples_per_stream: 2_000,
        ..SyntheticConfig::group(1, 2)
    })
    .collect();
    let b: Vec<Tuple> = SyntheticGen::new(&SyntheticConfig {
        keys: 1_000,
        tuples_per_stream: 2_000,
        ..SyntheticConfig::group(1, 2)
    })
    .collect();
    assert_eq!(a, b);

    let r1: Vec<Tuple> = RideHailGen::new(&RideHailConfig::default()).take(10_000).collect();
    let r2: Vec<Tuple> = RideHailGen::new(&RideHailConfig::default()).take(10_000).collect();
    assert_eq!(r1, r2);
}

#[test]
fn all_engines_agree_on_result_totals() {
    // Same workload through the synchronous cluster, the simulator, and
    // the threaded runtime — three engines, one answer.
    let tuples = workload();

    let mut cluster = fastjoin::baselines::build_cluster(
        SystemKind::FastJoin,
        sim_cfg(SystemKind::FastJoin, SelectorKind::GreedyFit).fastjoin,
    );
    let sync_results = cluster.run_to_completion(tuples.clone()).len() as u64;

    let sim_report = Simulation::new(
        sim_cfg(SystemKind::FastJoin, SelectorKind::GreedyFit),
        tuples.clone().into_iter(),
    )
    .run();

    let rt_report = fastjoin::runtime::run_topology(
        &fastjoin::runtime::RuntimeConfig {
            system: SystemKind::FastJoin,
            fastjoin: sim_cfg(SystemKind::FastJoin, SelectorKind::GreedyFit).fastjoin,
            queue_cap: 1024,
            monitor_period_ms: 20,
            rate_limit: None,
            ..fastjoin::runtime::RuntimeConfig::default()
        },
        tuples,
    );

    assert_eq!(sync_results, sim_report.results_total, "cluster vs simulator");
    assert_eq!(sync_results, rt_report.results_total, "cluster vs runtime");
}
