//! Service-cost model for the simulated join instances.
//!
//! The paper's *load model* (Eq. 1) charges a probing tuple with work
//! proportional to the total tuples stored on the instance ("it should be
//! compared with all the tuples of stream R stored in I_{R-i}", §III-B),
//! and the monitor keeps using exactly that model for its decisions. The
//! *service* cost of the default model, however, is
//! [`CostKind::HashProbe`]: cost proportional to the probe key's bucket
//! `|R_ik|`, like the hash index a real implementation (BiStream on
//! Storm) uses. The distinction matters for reproducing the paper's own
//! baseline ordering: under literal nested-loop service cost,
//! BiStream-ContRand's probe fan-out would multiply total work by the
//! subgroup size and the paper's Fig. 3 ordering (FastJoin > ContRand >
//! BiStream) could not hold. [`CostKind::NestedLoop`] remains available as
//! the `ablation_cost_model` bench.
//!
//! All costs are in microseconds of simulated time.

use fastjoin_core::instance::Work;

/// Which quantity drives per-probe comparison cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostKind {
    /// Probe cost ∝ `|R_i|` (the paper's model).
    NestedLoop,
    /// Probe cost ∝ `|R_ik|` (hash-index model).
    HashProbe,
}

/// The full cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Comparison cost driver.
    pub kind: CostKind,
    /// Cost of storing one tuple, µs.
    pub store_cost: f64,
    /// Fixed overhead per probe, µs.
    pub probe_base: f64,
    /// Cost per stored tuple compared, µs.
    pub per_comparison: f64,
    /// Cost per result pair emitted, µs.
    pub per_match: f64,
    /// One-way message latency between any two components, µs.
    pub network_latency: f64,
    /// Extra transfer time per migrated tuple, µs (on top of the base
    /// network latency of the migration message).
    pub migration_per_tuple: f64,
    /// Key-selection pause per key examined, µs (`O(K log K)` is modeled
    /// linearly; the log factor is far below the noise floor).
    pub selection_per_key: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            kind: CostKind::HashProbe,
            store_cost: 5.0,
            probe_base: 2.0,
            per_comparison: 25.0,
            per_match: 25.0,
            network_latency: 200.0,
            migration_per_tuple: 0.2,
            selection_per_key: 0.05,
        }
    }
}

impl CostModel {
    /// A model with the paper's literal nested-loop probe costs
    /// (ablation; see the module docs).
    #[must_use]
    pub fn nested_loop() -> Self {
        CostModel { kind: CostKind::NestedLoop, ..CostModel::default() }
    }

    /// Service time of one processed tuple, µs.
    #[must_use]
    pub fn service_us(&self, work: &Work) -> f64 {
        match work {
            Work::Store { .. } => self.store_cost,
            Work::Probe { stored_total, bucket, matches, .. } => {
                let compared = match self.kind {
                    CostKind::NestedLoop => *stored_total,
                    CostKind::HashProbe => *bucket,
                };
                self.probe_base
                    + self.per_comparison * compared as f64
                    + self.per_match * *matches as f64
            }
        }
    }

    /// Pause imposed on the migration source while the selector runs over
    /// `keys` candidate keys, µs.
    #[must_use]
    pub fn selection_us(&self, keys: usize) -> f64 {
        self.selection_per_key * keys as f64
    }

    /// Transfer delay for a migration payload of `tuples` tuples, µs
    /// (added to the base network latency).
    #[must_use]
    pub fn migration_us(&self, tuples: u64) -> f64 {
        self.migration_per_tuple * tuples as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastjoin_core::tuple::Tuple;

    fn probe_work(stored_total: u64, bucket: u64, matches: u64) -> Work {
        Work::Probe { tuple: Tuple::s(1, 0, 0), stored_total, bucket, matches }
    }

    #[test]
    fn store_cost_is_flat() {
        let m = CostModel::default();
        let w = Work::Store { tuple: Tuple::r(1, 0, 0) };
        assert_eq!(m.service_us(&w), m.store_cost);
    }

    #[test]
    fn nested_loop_scales_with_total_store() {
        let m = CostModel::nested_loop();
        let small = m.service_us(&probe_work(100, 1, 0));
        let large = m.service_us(&probe_work(10_000, 1, 0));
        assert!(large > small);
        let expected = m.probe_base + m.per_comparison * 10_000.0;
        assert!((large - expected).abs() < 1e-9);
    }

    #[test]
    fn hash_probe_scales_with_bucket_only() {
        let m = CostModel::default();
        let a = m.service_us(&probe_work(1_000_000, 10, 0));
        let b = m.service_us(&probe_work(100, 10, 0));
        assert_eq!(a, b, "total store size must not matter for hash probes");
    }

    #[test]
    fn matches_add_emission_cost() {
        let m = CostModel::default();
        let without = m.service_us(&probe_work(100, 5, 0));
        let with = m.service_us(&probe_work(100, 5, 20));
        assert!((with - without - 20.0 * m.per_match).abs() < 1e-9);
    }

    #[test]
    fn migration_and_selection_scale_linearly() {
        let m = CostModel::default();
        assert_eq!(m.migration_us(0), 0.0);
        assert!((m.migration_us(1000) - 1000.0 * m.migration_per_tuple).abs() < 1e-9);
        assert!((m.selection_us(500) - 500.0 * m.selection_per_key).abs() < 1e-9);
    }
}
