//! System configuration.
//!
//! Holds the values a caller chooses per run: the number of join instances
//! per group, the load-imbalance threshold `Θ`, the monitor sampling period,
//! the migration cooldown, the key-selection algorithm, the optional join
//! window and the seed of the randomized components. The paper's other
//! tunables are fixed at its defaults: GreedyFit's gap threshold `θ_gap` is
//! 0 (see `stage::THETA_GAP`) and SAFit anneals on the default schedule of
//! [`SaFitParams`](crate::selection::SaFitParams).

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
            monitor_period: 1_000_000, // 1 sim-second at µs resolution
            migration_cooldown: 2_000_000,
            selector: SelectorKind::GreedyFit,
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
            FastJoinConfig { monitor_period: 0, ..Default::default() },
            // Sub-millisecond cooldowns are a µs/ms unit mix-up.
            FastJoinConfig { migration_cooldown: 500, ..Default::default() },
            FastJoinConfig {
                window: Some(WindowConfig { sub_windows: 0, sub_window_len: 5 }),
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
}
