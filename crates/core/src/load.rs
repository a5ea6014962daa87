//! Load quantification model (§III-B).
//!
//! The workload of join instance `I_{R-i}` is `L_i = |R_i| · φ_si` — the
//! number of stored tuples times the queue length of opposite-stream tuples
//! awaiting join (Eq. 1). The degree of load imbalance is
//! `LI = L_heaviest / L_lightest` (Eq. 2); migration triggers when
//! `LI > Θ`.

use crate::tuple::Key;

/// Aggregate load statistics of one join instance: `|R_i|` (tuples stored
/// from the storing stream) and `φ_si` (queued tuples of the joining
/// stream).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InstanceLoad {
    /// Number of stored tuples, `|R_i|`.
    pub stored: u64,
    /// Queue length of the joining stream, `φ_si`.
    pub queue: u64,
}

impl InstanceLoad {
    /// Creates load statistics from the two counters.
    #[must_use]
    pub fn new(stored: u64, queue: u64) -> Self {
        InstanceLoad { stored, queue }
    }

    /// The raw workload `L_i = |R_i| · φ_si` (Eq. 1).
    #[inline]
    #[must_use]
    pub fn load(&self) -> f64 {
        // u64×u64 can exceed u64::MAX in principle; widen first.
        (u128::from(self.stored) * u128::from(self.queue)) as f64
    }

    /// Smoothed workload `(|R_i|+1) · (φ_si+1)` used only for the imbalance
    /// *ratio*. The paper's Eq. 2 is undefined when the lightest instance
    /// has zero load (e.g. at startup); add-one smoothing keeps `LI` finite
    /// and ≥ 1 while preserving the ordering of heavily loaded instances.
    #[inline]
    #[must_use]
    pub fn effective_load(&self) -> f64 {
        ((u128::from(self.stored) + 1) * (u128::from(self.queue) + 1)) as f64
    }
}

/// Per-key statistics on an instance: `|R_ik|` stored tuples and `φ_sik`
/// queued joining-stream tuples with key `k`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyStat {
    /// The key.
    pub key: Key,
    /// `|R_ik|` — stored tuples with this key.
    pub stored: u64,
    /// `φ_sik` — queued joining-stream tuples with this key.
    pub queue: u64,
}

impl KeyStat {
    /// Creates per-key statistics.
    #[must_use]
    pub fn new(key: Key, stored: u64, queue: u64) -> Self {
        KeyStat { key, stored, queue }
    }

    /// Migration benefit `F_k` of moving this key from `src` to `dst`
    /// (Eq. 8): `F_k = (|R_i|+|R_j|)·φ_sik + (φ_si+φ_sj)·|R_ik|`.
    #[inline]
    #[must_use]
    pub fn benefit(&self, src: InstanceLoad, dst: InstanceLoad) -> f64 {
        let stored_sum = u128::from(src.stored) + u128::from(dst.stored);
        let queue_sum = u128::from(src.queue) + u128::from(dst.queue);
        (stored_sum * u128::from(self.queue) + queue_sum * u128::from(self.stored)) as f64
    }

    /// Migration key factor `F_k / |R_ik|` (Definition 2). Keys with no
    /// stored tuples cost nothing to migrate; their factor is `+∞`.
    #[inline]
    #[must_use]
    pub fn factor(&self, src: InstanceLoad, dst: InstanceLoad) -> f64 {
        if self.stored == 0 {
            f64::INFINITY
        } else {
            self.benefit(src, dst) / self.stored as f64
        }
    }
}

/// The monitor's *load information table*: the latest [`InstanceLoad`] of
/// every join instance in one group.
#[derive(Debug, Clone)]
pub struct LoadTable {
    loads: Vec<InstanceLoad>,
}

impl LoadTable {
    /// Creates a table for `n` instances, all initially idle.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "a join group needs at least one instance"); // lint:allow(constructor argument validation)
        LoadTable { loads: vec![InstanceLoad::default(); n] }
    }

    /// Number of instances tracked.
    #[must_use]
    pub fn len(&self) -> usize {
        self.loads.len()
    }

    /// Always false: a table is created with ≥ 1 instance.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.loads.is_empty()
    }

    /// Records the latest statistics report from instance `i`.
    pub fn update(&mut self, i: usize, load: InstanceLoad) {
        self.loads[i] = load;
    }

    /// Extends the table by `additional` idle instances (scale-out).
    pub fn grow(&mut self, additional: usize) {
        self.loads.extend(std::iter::repeat_n(InstanceLoad::default(), additional));
    }

    /// Latest statistics of instance `i`.
    #[must_use]
    pub fn get(&self, i: usize) -> InstanceLoad {
        self.loads[i]
    }

    /// All loads, indexed by instance.
    #[must_use]
    pub fn loads(&self) -> &[InstanceLoad] {
        &self.loads
    }

    /// Index of the heaviest-loaded instance (ties → lowest index).
    #[must_use]
    pub fn heaviest(&self) -> usize {
        self.argbest(|a, b| a > b)
    }

    /// Index of the lightest-loaded instance (ties → lowest index).
    #[must_use]
    pub fn lightest(&self) -> usize {
        self.argbest(|a, b| a < b)
    }

    fn argbest(&self, better: impl Fn(f64, f64) -> bool) -> usize {
        let mut best = 0;
        let mut best_load = self.loads[0].effective_load();
        for (i, l) in self.loads.iter().enumerate().skip(1) {
            let load = l.effective_load();
            if better(load, best_load) {
                best = i;
                best_load = load;
            }
        }
        best
    }

    /// Degree of load imbalance `LI = L_heaviest / L_lightest` (Eq. 2),
    /// computed on smoothed loads so it is always finite and ≥ 1.
    #[must_use]
    pub fn imbalance(&self) -> f64 {
        let h = self.loads[self.heaviest()].effective_load();
        let l = self.loads[self.lightest()].effective_load();
        h / l
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_is_product_of_counters() {
        let l = InstanceLoad::new(100, 7);
        assert_eq!(l.load(), 700.0);
        assert_eq!(InstanceLoad::new(0, 7).load(), 0.0);
    }

    #[test]
    fn load_widens_before_multiplying() {
        let l = InstanceLoad::new(u64::MAX, 2);
        assert!(l.load() > u64::MAX as f64);
    }

    #[test]
    fn effective_load_is_finite_at_zero() {
        assert_eq!(InstanceLoad::default().effective_load(), 1.0);
        assert_eq!(InstanceLoad::new(9, 0).effective_load(), 10.0);
    }

    #[test]
    fn benefit_matches_eq8_hand_computation() {
        // |R_i|=100, φ_si=50; |R_j|=10, φ_sj=5; key: |R_ik|=20, φ_sik=8.
        // F_k = (100+10)*8 + (50+5)*20 = 880 + 1100 = 1980.
        let src = InstanceLoad::new(100, 50);
        let dst = InstanceLoad::new(10, 5);
        let k = KeyStat::new(1, 20, 8);
        assert_eq!(k.benefit(src, dst), 1980.0);
        assert!((k.factor(src, dst) - 99.0).abs() < 1e-12);
    }

    #[test]
    fn benefit_equals_delta_of_load_differences() {
        // F_k is defined (Eq. 7) as (L_i - L_j) - (L'_i - L'_j); verify the
        // closed form (Eq. 8) against direct recomputation.
        let src = InstanceLoad::new(1000, 300);
        let dst = InstanceLoad::new(200, 100);
        let k = KeyStat::new(42, 17, 23);
        let li = src.load();
        let lj = dst.load();
        let li2 = (src.stored - k.stored) as f64 * (src.queue - k.queue) as f64;
        let lj2 = (dst.stored + k.stored) as f64 * (dst.queue + k.queue) as f64;
        let direct = (li - lj) - (li2 - lj2);
        // The |R_ik|·φ_sik cross terms appear with opposite signs in
        // Eqs. 5 and 6 and cancel exactly, leaving the closed form Eq. 8.
        let expected = (src.stored + dst.stored) as f64 * k.queue as f64
            + (src.queue + dst.queue) as f64 * k.stored as f64;
        assert_eq!(k.benefit(src, dst), expected);
        assert!((direct - expected).abs() < 1e-6);
    }

    #[test]
    fn factor_of_storeless_key_is_infinite() {
        let k = KeyStat::new(1, 0, 5);
        assert!(k.factor(InstanceLoad::new(10, 10), InstanceLoad::new(1, 1)).is_infinite());
    }

    #[test]
    fn table_finds_extremes() {
        let mut t = LoadTable::new(4);
        t.update(0, InstanceLoad::new(10, 10)); // 100
        t.update(1, InstanceLoad::new(50, 10)); // 500
        t.update(2, InstanceLoad::new(5, 2)); // 10
        t.update(3, InstanceLoad::new(20, 10)); // 200
        assert_eq!(t.heaviest(), 1);
        assert_eq!(t.lightest(), 2);
        // Smoothed LI: (51*11)/(6*3) = 561/18 ≈ 31.17
        assert!((t.imbalance() - 561.0 / 18.0).abs() < 1e-9);
    }

    #[test]
    fn imbalance_of_uniform_table_is_one() {
        let mut t = LoadTable::new(3);
        for i in 0..3 {
            t.update(i, InstanceLoad::new(100, 10));
        }
        assert_eq!(t.imbalance(), 1.0);
    }

    #[test]
    fn imbalance_is_finite_with_idle_instance() {
        let mut t = LoadTable::new(2);
        t.update(0, InstanceLoad::new(1000, 1000));
        // instance 1 idle
        let li = t.imbalance();
        assert!(li.is_finite());
        assert!(li > 1.0);
    }

    #[test]
    fn ties_resolve_to_lowest_index() {
        let mut t = LoadTable::new(3);
        for i in 0..3 {
            t.update(i, InstanceLoad::new(7, 7));
        }
        assert_eq!(t.heaviest(), 0);
        assert_eq!(t.lightest(), 0);
    }

    #[test]
    fn grow_adds_idle_instances() {
        let mut t = LoadTable::new(2);
        t.update(0, InstanceLoad::new(100, 100));
        t.update(1, InstanceLoad::new(90, 90));
        t.grow(1);
        assert_eq!(t.len(), 3);
        assert_eq!(t.lightest(), 2, "the new instance starts idle");
    }

    #[test]
    #[should_panic(expected = "at least one instance")]
    fn table_rejects_zero_instances() {
        let _ = LoadTable::new(0);
    }
}
