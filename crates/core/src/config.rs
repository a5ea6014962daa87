//! System configuration.
//!
//! Gathers every tunable the paper exposes: the number of join instances per
//! group, the load-imbalance threshold `Θ`, the GreedyFit gap threshold
//! `θ_gap`, the monitor sampling period, the key-selection algorithm, and
//! the optional join window.

/// Which key-selection algorithm the migration planner runs (§III-C, §IV-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SelectorKind {
    /// Algorithm 1 — the paper's default `O(K log K)` greedy selector.
    #[default]
    GreedyFit,
    /// Algorithm 3 — simulated annealing (`SAFit`).
    SaFit,
    /// The §IV-A dynamic program over a discretized capacity, `O(K·B)`.
    Dp,
    /// Exact 0-1 knapsack by exhaustive search. Exponential in the number of
    /// keys; only usable for small instances and as a test oracle.
    ExactDp,
}

/// Parameters of the SAFit simulated-annealing selector (Algorithm 3):
/// initial temperature `T`, per-temperature iterations `L`, attenuation
/// coefficient `a`, and termination temperature `T_min`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SaFitParams {
    /// Initial temperature `T`.
    pub initial_temp: f64,
    /// Iterations per temperature step `L`.
    pub iters_per_temp: u32,
    /// Temperature attenuation coefficient `a` (`0 < a < 1`).
    pub attenuation: f64,
    /// Termination temperature `T_min`.
    pub min_temp: f64,
}

impl Default for SaFitParams {
    fn default() -> Self {
        SaFitParams { initial_temp: 1.0, iters_per_temp: 64, attenuation: 0.9, min_temp: 1e-3 }
    }
}

impl SaFitParams {
    /// Number of annealing iterations this schedule performs.
    #[must_use]
    pub fn total_iterations(&self) -> u64 {
        if !(self.attenuation > 0.0 && self.attenuation < 1.0) || self.initial_temp <= self.min_temp
        {
            return 0;
        }
        let steps = ((self.min_temp / self.initial_temp).ln() / self.attenuation.ln()).ceil();
        steps as u64 * u64::from(self.iters_per_temp)
    }
}

/// How the migration protocol treats in-flight data (§III-D).
///
/// The paper explicitly rejects updating the routing table "as soon as the
/// instance completes the GreedyFit algorithm": newly routed joining-stream
/// tuples could reach the target before the migrated store does, producing
/// an incomplete join. [`MigrationMode::NaiveNotifyFirst`] implements that
/// rejected variant so `tests/migration_mode.rs` and `check-protocol
/// --variant naive-notify-first` can show the loss; production code must use
/// [`MigrationMode::Safe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MigrationMode {
    /// Algorithm 2: the target holds newly routed data for migrated keys
    /// until the source's `MigEnd` confirms the store and the buffered
    /// backlog have been installed. Exactly-once.
    #[default]
    Safe,
    /// The rejected variant: the target processes newly routed data
    /// immediately, racing the store transfer. Loses joins.
    NaiveNotifyFirst,
}

/// Sliding-window configuration for window-based joins (§III-E).
///
/// The window covers `sub_windows * sub_window_len` time units; expiry
/// happens at sub-window granularity, mirroring the paper's fixed-size
/// vector of per-sub-window counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowConfig {
    /// Number of sub-windows in the ring (the paper's vector length).
    pub sub_windows: usize,
    /// Length of one sub-window in event-time units.
    pub sub_window_len: u64,
}

impl WindowConfig {
    /// Total window span in event-time units.
    #[must_use]
    pub fn span(&self) -> u64 {
        self.sub_windows as u64 * self.sub_window_len
    }
}

/// Full FastJoin configuration. `Default` reproduces the paper's defaults
/// for the DiDi experiments: 48 instances per group, `Θ = 2.2`.
#[derive(Debug, Clone, PartialEq)]
pub struct FastJoinConfig {
    /// Join instances per group (the paper's default for DiDi data is 48).
    pub instances_per_group: usize,
    /// Load-imbalance threshold `Θ`; migration triggers when `LI > Θ`.
    /// Must be `> 1.0` (an `LI` of exactly 1 means perfect balance).
    pub theta: f64,
    /// GreedyFit's minimum per-key benefit `θ_gap` (Algorithm 1 line 12);
    /// keys whose migration benefit falls below it are not worth moving.
    pub theta_gap: f64,
    /// Monitor sampling period in event-time units.
    pub monitor_period: u64,
    /// Minimum spacing between consecutive migrations in **microseconds**,
    /// so the system settles before re-evaluating (the paper: "the
    /// migration can never take place frequently"). `0` disables the
    /// cooldown. Engines whose monitor clock is coarser than a microsecond
    /// must convert through [`FastJoinConfig::migration_cooldown_ms`] —
    /// never with an inline division, which silently truncated
    /// sub-millisecond cooldowns to "no cooldown" before that helper
    /// existed. [`FastJoinConfig::validate`] rejects values in `(0, 1000)`
    /// because they are almost always a milliseconds-vs-microseconds
    /// mix-up.
    pub migration_cooldown: u64,
    /// Key-selection algorithm.
    pub selector: SelectorKind,
    /// SAFit parameters (ignored unless `selector == SaFit`).
    pub safit: SaFitParams,
    /// Migration in-flight data handling; keep [`MigrationMode::Safe`]
    /// outside of tests that show the naive variant's loss.
    pub migration_mode: MigrationMode,
    /// Optional sliding window; `None` means full-history join.
    pub window: Option<WindowConfig>,
    /// RNG seed for any randomized component (SAFit, ContRand).
    pub seed: u64,
}

impl Default for FastJoinConfig {
    fn default() -> Self {
        FastJoinConfig {
            instances_per_group: 48,
            theta: 2.2,
            theta_gap: 0.0,
            monitor_period: 1_000_000, // 1 sim-second at µs resolution
            migration_cooldown: 2_000_000,
            selector: SelectorKind::GreedyFit,
            safit: SaFitParams::default(),
            migration_mode: MigrationMode::default(),
            window: None,
            seed: 0xFA57_301E,
        }
    }
}

impl FastJoinConfig {
    /// The migration cooldown converted to whole milliseconds, rounding
    /// *up* so a non-zero microsecond cooldown can never truncate to
    /// "no cooldown" on an engine with a millisecond monitor clock (the
    /// threaded runtime). This is the single sanctioned conversion point.
    #[must_use]
    pub fn migration_cooldown_ms(&self) -> u64 {
        self.migration_cooldown.div_ceil(1_000)
    }

    /// Validates invariants; returns a human-readable error for the first
    /// violated one.
    pub fn validate(&self) -> Result<(), String> {
        if self.instances_per_group == 0 {
            return Err("instances_per_group must be > 0".into());
        }
        // Written to also reject NaN, which fails every comparison.
        if self.theta <= 1.0 || self.theta.is_nan() {
            return Err(format!("theta must be > 1.0, got {}", self.theta));
        }
        if self.theta_gap < 0.0 {
            return Err(format!("theta_gap must be >= 0, got {}", self.theta_gap));
        }
        if self.monitor_period == 0 {
            return Err("monitor_period must be > 0".into());
        }
        if self.migration_cooldown > 0 && self.migration_cooldown < 1_000 {
            return Err(format!(
                "migration_cooldown is in microseconds; {} µs (< 1 ms) looks like a \
                 milliseconds value — use 0 to disable or >= 1000",
                self.migration_cooldown
            ));
        }
        if let Some(w) = &self.window {
            if w.sub_windows == 0 || w.sub_window_len == 0 {
                return Err("window sub_windows and sub_window_len must be > 0".into());
            }
        }
        if !(self.safit.attenuation > 0.0 && self.safit.attenuation < 1.0) {
            return Err(format!(
                "safit.attenuation must be in (0,1), got {}",
                self.safit.attenuation
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_matches_paper_defaults() {
        let cfg = FastJoinConfig::default();
        assert_eq!(cfg.instances_per_group, 48);
        assert!((cfg.theta - 2.2).abs() < 1e-9);
        assert_eq!(cfg.selector, SelectorKind::GreedyFit);
        cfg.validate().expect("default config must validate");
    }

    #[test]
    fn validate_rejects_bad_values() {
        let bad = [
            FastJoinConfig { instances_per_group: 0, ..Default::default() },
            FastJoinConfig { theta: 1.0, ..Default::default() }, // strictly > 1
            FastJoinConfig { theta: f64::NAN, ..Default::default() },
            FastJoinConfig { theta_gap: -1.0, ..Default::default() },
            FastJoinConfig { monitor_period: 0, ..Default::default() },
            // Sub-millisecond cooldowns are a µs/ms unit mix-up.
            FastJoinConfig { migration_cooldown: 500, ..Default::default() },
            FastJoinConfig {
                window: Some(WindowConfig { sub_windows: 0, sub_window_len: 5 }),
                ..Default::default()
            },
            FastJoinConfig {
                safit: SaFitParams { attenuation: 1.5, ..Default::default() },
                ..Default::default()
            },
        ];
        for cfg in bad {
            assert!(cfg.validate().is_err(), "{cfg:?} must be rejected");
        }
    }

    #[test]
    fn cooldown_ms_conversion_rounds_up_and_never_truncates_to_zero() {
        // The default 2 s cooldown is exactly 2000 ms.
        assert_eq!(FastJoinConfig::default().migration_cooldown_ms(), 2_000);
        // 50 ms (the value the runtime tests use) survives intact.
        let c = FastJoinConfig { migration_cooldown: 50_000, ..Default::default() };
        assert_eq!(c.migration_cooldown_ms(), 50);
        // Zero stays zero (cooldown disabled)…
        let off = FastJoinConfig { migration_cooldown: 0, ..Default::default() };
        assert_eq!(off.migration_cooldown_ms(), 0);
        // …but any non-zero µs value rounds UP, never down to 0. This is
        // the regression the old inline `/ 1000` had.
        let sub_ms = FastJoinConfig { migration_cooldown: 1, ..Default::default() };
        assert_eq!(sub_ms.migration_cooldown_ms(), 1);
        let ms_and_a_half = FastJoinConfig { migration_cooldown: 1_500, ..Default::default() };
        assert_eq!(ms_and_a_half.migration_cooldown_ms(), 2);
    }

    #[test]
    fn validate_accepts_disabled_and_millisecond_cooldowns() {
        FastJoinConfig { migration_cooldown: 0, ..Default::default() }
            .validate()
            .expect("0 disables the cooldown");
        FastJoinConfig { migration_cooldown: 1_000, ..Default::default() }
            .validate()
            .expect("1 ms is the smallest honest cooldown");
    }

    #[test]
    fn window_span_is_product() {
        let w = WindowConfig { sub_windows: 10, sub_window_len: 500 };
        assert_eq!(w.span(), 5000);
    }

    #[test]
    fn safit_schedule_length_is_finite_and_positive() {
        let p = SaFitParams::default();
        let iters = p.total_iterations();
        assert!(iters > 0);
        // T=1.0, a=0.9, Tmin=1e-3 → ceil(ln(1e-3)/ln(0.9)) = 66 steps.
        assert_eq!(iters, 66 * 64);
    }

    #[test]
    fn safit_degenerate_schedules_are_empty() {
        // Already below min_temp → empty schedule.
        let p = SaFitParams { initial_temp: 1e-4, ..Default::default() };
        assert_eq!(p.total_iterations(), 0);
    }
}
