//! Parameterized experiment runners shared by the figure benches.
//!
//! Each paper figure varies one knob (instances, dataset size, threshold Θ,
//! skew group) over the ride-hailing or synthetic workload and compares the
//! systems of [`SystemKind::headline`]. These helpers build the workload,
//! run the simulation, and reduce the report to the figure's quantities,
//! skipping a warmup prefix like the paper does ("we only record the stable
//! statistics after the application runs for around three minutes").

use fastjoin_baselines::SystemKind;
use fastjoin_core::config::{FastJoinConfig, SelectorKind, WindowConfig};
use fastjoin_core::tuple::Tuple;
use fastjoin_datagen::ridehail::{RideHailConfig, RideHailGen};
use fastjoin_datagen::synthetic::{SyntheticConfig, SyntheticGen};

use crate::cost::CostModel;
use crate::driver::{SimConfig, SimReport, Simulation};

/// Fraction of report periods treated as warmup and excluded from
/// averages.
pub const WARMUP_FRAC: f64 = 0.2;

/// Common knobs across experiments; `Default` mirrors the paper's DiDi
/// defaults (48 instances, Θ = 2.2, 30 GB).
#[derive(Debug, Clone)]
pub struct ExperimentParams {
    /// Join instances per group.
    pub instances: usize,
    /// Load-imbalance threshold Θ.
    pub theta: f64,
    /// Dataset scale in "GB" (see [`RideHailConfig::scaled_to_gb`]).
    pub gb: u64,
    /// Hard stop in simulated seconds.
    pub max_secs: u64,
    /// Key-selection algorithm for FastJoin.
    pub selector: SelectorKind,
    /// Cost model.
    pub cost: CostModel,
    /// Workload seed.
    pub seed: u64,
}

impl Default for ExperimentParams {
    fn default() -> Self {
        ExperimentParams {
            instances: 48,
            theta: 2.2,
            gb: 30,
            max_secs: 60,
            selector: SelectorKind::GreedyFit,
            cost: CostModel::default(),
            seed: 0xD1D1,
        }
    }
}

impl ExperimentParams {
    fn fastjoin_config(&self) -> FastJoinConfig {
        FastJoinConfig {
            instances_per_group: self.instances,
            theta: self.theta,
            selector: self.selector,
            monitor_period: 500_000,       // 0.5 s sampling
            migration_cooldown: 1_000_000, // 1 s between rounds
            // A 2 s sliding window (4 × 0.5 s sub-windows): the store
            // reaches a steady state, so throughput/latency timelines are
            // stable like the paper's Figs. 3–4 (on-demand dispatch only
            // needs recent taxi positions anyway).
            window: Some(WindowConfig { sub_windows: 4, sub_window_len: 500_000 }),
            ..FastJoinConfig::default()
        }
    }

    /// Full simulator configuration for one system (public so benches can
    /// tweak fields like `record_instance_loads`).
    #[must_use]
    pub fn sim_config(&self, system: SystemKind) -> SimConfig {
        SimConfig {
            system,
            fastjoin: self.fastjoin_config(),
            cost: self.cost,
            max_time: self.max_secs * 1_000_000,
            queue_cap: 512,
            record_instance_loads: false,
        }
    }
}

/// The reduced quantities the figures plot.
#[derive(Debug, Clone)]
pub struct Summary {
    /// System label.
    pub system: &'static str,
    /// Mean results/second over the post-warmup window.
    pub throughput: f64,
    /// Mean per-probe latency over the post-warmup window, milliseconds.
    pub latency_ms: f64,
    /// Mean sampled imbalance over the post-warmup window.
    pub imbalance: f64,
    /// Migration rounds triggered.
    pub migrations: u64,
    /// Total results over the whole run.
    pub results_total: u64,
}

/// Reduces a report to a [`Summary`], skipping the warmup prefix.
#[must_use]
pub fn summarize(system: SystemKind, report: &SimReport) -> Summary {
    let periods = report.periods();
    let from = ((periods as f64) * WARMUP_FRAC) as usize;
    let to = periods;
    Summary {
        system: system.label(),
        throughput: report.avg_throughput(from, to),
        latency_ms: report.avg_latency_us(from, to) / 1000.0,
        imbalance: report.avg_imbalance(from, to),
        migrations: report.migrations(),
        results_total: report.results_total,
    }
}

/// Offered order-stream rate, tuples/s. Offered load is set well above
/// system capacity so that, with backpressure, measured throughput equals
/// capacity — the paper's "maximize the input rate" methodology (§V).
pub const ORDER_RATE: f64 = 10_000.0;
/// Offered track-stream rate, tuples/s.
pub const TRACK_RATE: f64 = 290_000.0;

/// Builds the ride-hailing workload for a parameter set.
#[must_use]
pub fn ridehail_workload(params: &ExperimentParams) -> RideHailGen {
    RideHailGen::new(&RideHailConfig {
        seed: params.seed,
        order_rate: ORDER_RATE,
        track_rate: TRACK_RATE,
        ..RideHailConfig::scaled_to_gb(params.gb)
    })
}

/// Runs `system` over the ride-hailing workload.
#[must_use]
pub fn run_ridehail(system: SystemKind, params: &ExperimentParams) -> SimReport {
    run_with(system, params, ridehail_workload(params))
}

/// Runs `system` over the synthetic group `Gxy`.
#[must_use]
pub fn run_synthetic(system: SystemKind, params: &ExperimentParams, x: u8, y: u8) -> SimReport {
    let cfg = SyntheticConfig { seed: params.seed ^ 0x5E, ..SyntheticConfig::group(x, y) };
    run_with(system, params, SyntheticGen::new(&cfg))
}

/// Runs `system` over an arbitrary timestamp-ordered workload.
#[must_use]
pub fn run_with(
    system: SystemKind,
    params: &ExperimentParams,
    workload: impl Iterator<Item = Tuple>,
) -> SimReport {
    Simulation::new(params.sim_config(system), workload).run()
}

/// Runs the paper's three headline systems and returns their summaries in
/// [`SystemKind::headline`] order.
#[must_use]
pub fn run_headline(params: &ExperimentParams) -> Vec<Summary> {
    SystemKind::headline()
        .into_iter()
        .map(|sys| summarize(sys, &run_ridehail(sys, params)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> ExperimentParams {
        ExperimentParams { instances: 8, gb: 2, max_secs: 8, ..ExperimentParams::default() }
    }

    #[test]
    fn ridehail_run_produces_results_for_all_systems() {
        for sys in SystemKind::headline() {
            let report = run_ridehail(sys, &quick());
            let s = summarize(sys, &report);
            assert!(s.results_total > 0, "{} produced no results", s.system);
            assert!(s.throughput > 0.0, "{} zero throughput", s.system);
            assert!(s.latency_ms > 0.0, "{} zero latency", s.system);
        }
    }

    #[test]
    fn fastjoin_beats_bistream_on_the_skewed_workload() {
        let params = ExperimentParams { instances: 8, gb: 4, max_secs: 15, theta: 1.8, ..quick() };
        let fj = summarize(SystemKind::FastJoin, &run_ridehail(SystemKind::FastJoin, &params));
        let bi = summarize(SystemKind::BiStream, &run_ridehail(SystemKind::BiStream, &params));
        assert!(fj.migrations > 0, "FastJoin must migrate on skewed data");
        assert!(
            fj.throughput >= bi.throughput,
            "FastJoin {} < BiStream {}",
            fj.throughput,
            bi.throughput
        );
    }

    #[test]
    fn synthetic_group_runs() {
        let params = ExperimentParams { instances: 4, max_secs: 4, ..quick() };
        let report = run_synthetic(SystemKind::BiStream, &params, 1, 1);
        assert!(report.results_total > 0);
    }

    #[test]
    fn summaries_are_deterministic() {
        let a = summarize(SystemKind::FastJoin, &run_ridehail(SystemKind::FastJoin, &quick()));
        let b = summarize(SystemKind::FastJoin, &run_ridehail(SystemKind::FastJoin, &quick()));
        assert_eq!(a.results_total, b.results_total);
        assert_eq!(a.throughput, b.throughput);
        assert_eq!(a.migrations, b.migrations);
    }
}
