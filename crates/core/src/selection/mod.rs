//! Key-selection algorithms for load migration (§III-C, §IV-A).
//!
//! When the monitor detects `LI > Θ`, the heaviest instance must choose a
//! set of keys `SK` whose tuples migrate to the lightest instance. The
//! selection problem is a 0-1 knapsack: fill the load gap `L_i − L_j` with
//! key benefits `F_k` as much as possible while migrating as few tuples as
//! possible. Four implementations are provided:
//!
//! * [`GreedyFit`] — the paper's Algorithm 1, `O(K log K)`.
//! * [`SaFit`] — the paper's Algorithm 3, simulated annealing.
//! * [`DpFit`] — the §IV-A dynamic program with discretized capacity,
//!   `O(K·B)`.
//! * [`ExhaustiveFit`] — exact search, exponential; test oracle only.

mod dp;
mod exact;
mod greedy;
mod safit;

pub use dp::{DpFit, DEFAULT_BUCKETS, MAX_DP_KEYS};
pub use exact::{ExhaustiveFit, MAX_EXACT_KEYS};
pub use greedy::GreedyFit;
pub use safit::{SaFit, SaFitParams};

use crate::config::{FastJoinConfig, SelectorKind};
use crate::load::{InstanceLoad, KeyStat};
use crate::tuple::Key;

/// The outcome of key selection: which keys move and the predicted effect.
#[derive(Debug, Clone, PartialEq)]
pub struct MigrationPlan {
    /// Selected key set `SK`, in selection order.
    pub keys: Vec<Key>,
    /// Total migration benefit `Σ F_k` of the selected keys.
    pub total_benefit: f64,
    /// Total stored tuples `Σ |R_ik|` that will be physically moved.
    pub tuples_to_move: u64,
    /// Predicted post-migration load difference `ΔL = L'_i − L'_j`
    /// (Eq. 9): `L_i − L_j − Σ F_k`.
    pub predicted_delta: f64,
}

impl MigrationPlan {
    /// An empty plan (nothing worth migrating).
    #[must_use]
    pub fn empty(gap: f64) -> Self {
        MigrationPlan {
            keys: Vec::new(),
            total_benefit: 0.0,
            tuples_to_move: 0,
            predicted_delta: gap,
        }
    }

    /// True if the plan migrates nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Builds a plan from a chosen key set, computing the aggregates.
    #[must_use]
    pub fn from_keys(
        keys: Vec<Key>,
        src: InstanceLoad,
        dst: InstanceLoad,
        stats: &[KeyStat],
    ) -> Self {
        let gap = src.load() - dst.load();
        let mut total_benefit = 0.0;
        let mut tuples = 0u64;
        for k in &keys {
            let st = stats
                .iter()
                .find(|s| s.key == *k)
                .expect("plan references a key absent from the stats"); // lint:allow(from_keys callers draw keys from these very stats)
            total_benefit += st.benefit(src, dst);
            tuples += st.stored;
        }
        MigrationPlan {
            keys,
            total_benefit,
            tuples_to_move: tuples,
            predicted_delta: gap - total_benefit,
        }
    }
}

/// A key-selection algorithm. Implementations must be deterministic for a
/// fixed seed so simulation runs are reproducible.
pub trait KeySelector: CloneSelector {
    /// Chooses the key set to migrate from the instance with statistics
    /// `src` (per-key breakdown in `keys`) to the instance with aggregate
    /// statistics `dst`. `theta_gap` is the minimum per-key benefit worth
    /// acting on (Algorithm 1, line 12).
    fn select(
        &mut self,
        src: InstanceLoad,
        dst: InstanceLoad,
        keys: &[KeyStat],
        theta_gap: f64,
    ) -> MigrationPlan;

    /// Human-readable algorithm name (for reports).
    fn name(&self) -> &'static str;
}

/// Object-safe cloning for boxed selectors, so a supervisor checkpoint of
/// a join-instance executor (which owns its selector) can be restored
/// without re-deriving configuration.
pub trait CloneSelector {
    /// Clones `self` into a fresh box.
    fn clone_box(&self) -> Box<dyn KeySelector + Send>;
}

impl<S: KeySelector + Send + Clone + 'static> CloneSelector for S {
    fn clone_box(&self) -> Box<dyn KeySelector + Send> {
        Box::new(self.clone())
    }
}

impl Clone for Box<dyn KeySelector + Send> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Instantiates the selector named by the configuration.
#[must_use]
pub fn make_selector(cfg: &FastJoinConfig) -> Box<dyn KeySelector + Send> {
    match cfg.selector {
        SelectorKind::GreedyFit => Box::new(GreedyFit::new()),
        SelectorKind::SaFit => Box::new(SaFit::new(SaFitParams::default(), cfg.seed)),
        SelectorKind::Dp => Box::new(DpFit::new()),
    }
}

/// Checks the feasibility invariant of Eq. 9 for a candidate plan: after
/// migration the source must remain at least as loaded as the target
/// (`ΔL > 0`), unless the plan is empty.
#[must_use]
pub fn plan_is_feasible(plan: &MigrationPlan) -> bool {
    plan.is_empty() || plan.predicted_delta > 0.0
}

/// The shared candidate filter every selector applies before considering a
/// key: its migration benefit `F_k` must be strictly positive *and* clear
/// the floor `θ_gap`. The strict-positive half is the F_k floor —
/// under `θ_gap = 0` the `>= theta_gap` test alone admits keys with no
/// stored tuples and no probe arrivals, whose migration rebalances nothing
/// yet makes the round look effective.
pub(crate) fn positive_benefit(
    k: &KeyStat,
    src: InstanceLoad,
    dst: InstanceLoad,
    theta_gap: f64,
) -> bool {
    let b = k.benefit(src, dst);
    b > 0.0 && b >= theta_gap
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats() -> Vec<KeyStat> {
        vec![KeyStat::new(1, 10, 2), KeyStat::new(2, 5, 1), KeyStat::new(3, 0, 4)]
    }

    #[test]
    fn plan_from_keys_aggregates() {
        let src = InstanceLoad::new(100, 50);
        let dst = InstanceLoad::new(20, 10);
        let plan = MigrationPlan::from_keys(vec![1, 2], src, dst, &stats());
        // F_1 = 120*2 + 60*10 = 840; F_2 = 120*1 + 60*5 = 420.
        assert_eq!(plan.total_benefit, 1260.0);
        assert_eq!(plan.tuples_to_move, 15);
        // gap = 5000 - 200 = 4800; ΔL = 4800 - 1260 = 3540.
        assert_eq!(plan.predicted_delta, 3540.0);
        assert!(plan_is_feasible(&plan));
    }

    #[test]
    fn empty_plan_is_feasible() {
        let plan = MigrationPlan::empty(100.0);
        assert!(plan.is_empty());
        assert!(plan_is_feasible(&plan));
    }

    #[test]
    #[should_panic(expected = "absent from the stats")]
    fn plan_rejects_unknown_key() {
        let src = InstanceLoad::new(10, 10);
        let dst = InstanceLoad::new(1, 1);
        let _ = MigrationPlan::from_keys(vec![99], src, dst, &stats());
    }

    #[test]
    fn factory_returns_configured_selector() {
        let mut cfg = FastJoinConfig::default();
        assert_eq!(make_selector(&cfg).name(), "GreedyFit");
        cfg.selector = SelectorKind::SaFit;
        assert_eq!(make_selector(&cfg).name(), "SAFit");
        cfg.selector = SelectorKind::Dp;
        assert_eq!(make_selector(&cfg).name(), "DpFit");
    }
}
