//! SAFit — Algorithm 3 of the paper: key selection by simulated annealing.
//!
//! SAFit searches the space of key subsets with a Metropolis–Hastings walk:
//! start from a random feasible subset, flip one key's membership per step,
//! accept improving moves always and worsening moves with probability
//! `exp((Value_new − Value_old) / T)` (Eq. 11), cooling `T ← a·T` every `L`
//! steps until `T < T_min`. The objective is the value density
//! `Value(SK) = Σ F_k / Σ |R_ik|` (Eq. 10), subject to feasibility
//! `Benefit(SK) ≤ L_i − L_j` (Eq. 9).
//!
//! §VI's Fig. 14 shows SAFit ends up no better than GreedyFit at far higher
//! planning cost, which our `fig14_greedy_vs_sa` bench reproduces.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::{positive_benefit, KeySelector, MigrationPlan};
use crate::load::{InstanceLoad, KeyStat};

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

/// Simulated-annealing key selector.
#[derive(Debug, Clone)]
pub struct SaFit {
    params: SaFitParams,
    rng: StdRng,
}

impl SaFit {
    /// Creates a SAFit selector with the given annealing schedule and seed.
    #[must_use]
    pub fn new(params: SaFitParams, seed: u64) -> Self {
        SaFit { params, rng: StdRng::seed_from_u64(seed) }
    }
}

/// Incremental view of a candidate solution: membership flags plus running
/// totals, so a single flip is O(1) instead of O(K).
struct Candidate {
    flags: Vec<bool>,
    benefit_sum: f64,
    stored_sum: u64,
    selected: usize,
}

impl Candidate {
    fn empty(n: usize) -> Self {
        Candidate { flags: vec![false; n], benefit_sum: 0.0, stored_sum: 0, selected: 0 }
    }

    /// `Value(SK) = ΣF_k / Σ|R_ik|` (Eq. 10). An empty set has value 0;
    /// a set of only storeless keys (`Σ|R_ik| = 0` but benefit > 0) is
    /// infinitely dense.
    fn value(&self) -> f64 {
        if self.selected == 0 {
            0.0
        } else if self.stored_sum == 0 {
            if self.benefit_sum > 0.0 {
                f64::INFINITY
            } else {
                0.0
            }
        } else {
            self.benefit_sum / self.stored_sum as f64
        }
    }

    fn flip(&mut self, idx: usize, benefits: &[f64], stats: &[KeyStat]) {
        if self.flags[idx] {
            self.flags[idx] = false;
            self.benefit_sum -= benefits[idx];
            self.stored_sum -= stats[idx].stored;
            self.selected -= 1;
        } else {
            self.flags[idx] = true;
            self.benefit_sum += benefits[idx];
            self.stored_sum += stats[idx].stored;
            self.selected += 1;
        }
    }

    fn keys(&self, stats: &[KeyStat]) -> Vec<crate::tuple::Key> {
        self.flags
            .iter()
            .zip(stats)
            .filter_map(|(&f, s)| if f { Some(s.key) } else { None })
            .collect()
    }
}

impl KeySelector for SaFit {
    fn select(
        &mut self,
        src: InstanceLoad,
        dst: InstanceLoad,
        keys: &[KeyStat],
        theta_gap: f64,
    ) -> MigrationPlan {
        let gap = src.load() - dst.load();
        if gap <= 0.0 || keys.is_empty() {
            return MigrationPlan::empty(gap);
        }

        // Keys below the benefit floor are never considered (mirrors
        // GreedyFit's θ_gap check so the two selectors face the same
        // universe of keys).
        let stats: Vec<KeyStat> =
            keys.iter().copied().filter(|k| positive_benefit(k, src, dst, theta_gap)).collect();
        if stats.is_empty() {
            return MigrationPlan::empty(gap);
        }
        let benefits: Vec<f64> = stats.iter().map(|k| k.benefit(src, dst)).collect();
        let n = stats.len();

        // Random initial feasible solution (Algorithm 3 lines 4–14): add
        // random keys, backing out the one that first overshoots the gap.
        // We keep feasibility strict (< gap) so ΔL > 0 like GreedyFit.
        let mut cur = Candidate::empty(n);
        for idx in 0..n {
            if self.rng.gen_bool(0.5) {
                cur.flip(idx, &benefits, &stats);
                if cur.benefit_sum >= gap {
                    cur.flip(idx, &benefits, &stats);
                    break;
                }
            }
        }

        let mut best_flags = cur.flags.clone();
        let mut best_value = cur.value();
        let mut best_benefit = cur.benefit_sum;
        let mut cur_value = cur.value();

        let mut temp = self.params.initial_temp;
        while temp > self.params.min_temp {
            for _ in 0..self.params.iters_per_temp {
                let idx = self.rng.gen_range(0..n);
                cur.flip(idx, &benefits, &stats);
                // Feasibility: Benefit(SK) must not reach the gap.
                if cur.benefit_sum >= gap {
                    cur.flip(idx, &benefits, &stats); // revert
                    continue;
                }
                let new_value = cur.value();
                let accept = if new_value > cur_value {
                    true
                } else {
                    // Metropolis acceptance (Eq. 11). Both values can be
                    // infinite (all-storeless sets); treat equal-infinite
                    // as an improving tie.
                    let delta = new_value - cur_value;
                    if delta.is_nan() {
                        true
                    } else {
                        self.rng.gen::<f64>() < (delta / temp).exp()
                    }
                };
                if accept {
                    cur_value = new_value;
                    // Track the best by value, tie-broken by larger benefit
                    // (fill the gap more).
                    if new_value > best_value
                        || (new_value == best_value && cur.benefit_sum > best_benefit)
                    {
                        best_value = new_value;
                        best_benefit = cur.benefit_sum;
                        best_flags.clone_from(&cur.flags);
                    }
                } else {
                    cur.flip(idx, &benefits, &stats); // revert
                    cur_value = cur.value();
                }
            }
            temp *= self.params.attenuation;
        }

        let mut best = Candidate::empty(n);
        for (idx, &f) in best_flags.iter().enumerate() {
            if f {
                best.flip(idx, &benefits, &stats);
            }
        }
        MigrationPlan {
            keys: best.keys(&stats),
            total_benefit: best.benefit_sum,
            tuples_to_move: best.stored_sum,
            predicted_delta: gap - best.benefit_sum,
        }
    }

    fn name(&self) -> &'static str {
        "SAFit"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selection::plan_is_feasible;

    fn params() -> SaFitParams {
        SaFitParams::default()
    }

    #[test]
    fn empty_when_no_gap() {
        let mut sa = SaFit::new(params(), 1);
        let plan = sa.select(
            InstanceLoad::new(5, 5),
            InstanceLoad::new(5, 5),
            &[KeyStat::new(1, 2, 2)],
            0.0,
        );
        assert!(plan.is_empty());
    }

    #[test]
    fn result_is_always_feasible() {
        let src = InstanceLoad::new(1000, 300);
        let dst = InstanceLoad::new(50, 20);
        let keys: Vec<KeyStat> = (0..40).map(|i| KeyStat::new(i, 1 + i % 13, 1 + i % 5)).collect();
        for seed in 0..20 {
            let mut sa = SaFit::new(params(), seed);
            let plan = sa.select(src, dst, &keys, 0.0);
            assert!(plan_is_feasible(&plan), "seed {seed} produced infeasible plan");
            assert!(plan.total_benefit < src.load() - dst.load());
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let src = InstanceLoad::new(500, 100);
        let dst = InstanceLoad::new(10, 10);
        let keys: Vec<KeyStat> = (0..30).map(|i| KeyStat::new(i, 2 + i % 9, 1 + i % 4)).collect();
        let a = SaFit::new(params(), 42).select(src, dst, &keys, 0.0);
        let b = SaFit::new(params(), 42).select(src, dst, &keys, 0.0);
        assert_eq!(a, b);
    }

    #[test]
    fn respects_theta_gap_floor() {
        let src = InstanceLoad::new(100, 100);
        let dst = InstanceLoad::new(10, 10);
        let keys = [KeyStat::new(1, 1, 1)]; // F = 220
        let mut sa = SaFit::new(params(), 7);
        let plan = sa.select(src, dst, &keys, 500.0);
        assert!(plan.is_empty());
    }

    #[test]
    fn finds_nonempty_plan_under_heavy_skew() {
        // One hot key dominates; plenty of cold keys fit the gap.
        let src = InstanceLoad::new(10_000, 1_000);
        let dst = InstanceLoad::new(100, 10);
        let mut keys = vec![KeyStat::new(0, 9_000, 900)];
        for i in 1..50 {
            keys.push(KeyStat::new(i, 20, 2));
        }
        let mut sa = SaFit::new(params(), 3);
        let plan = sa.select(src, dst, &keys, 0.0);
        assert!(!plan.is_empty(), "SAFit should find migratable cold keys");
        assert!(plan_is_feasible(&plan));
    }

    #[test]
    fn value_density_not_worse_than_random_singleton() {
        // SAFit's best solution should have value ≥ the average singleton
        // density, otherwise the search is broken.
        let src = InstanceLoad::new(2_000, 400);
        let dst = InstanceLoad::new(100, 30);
        let keys: Vec<KeyStat> =
            (0..25).map(|i| KeyStat::new(i, 1 + i, 1 + (i * 7) % 11)).collect();
        let mut sa = SaFit::new(params(), 11);
        let plan = sa.select(src, dst, &keys, 0.0);
        assert!(!plan.is_empty());
        let plan_density = plan.total_benefit / plan.tuples_to_move.max(1) as f64;
        let mean_density: f64 =
            keys.iter().map(|k| k.benefit(src, dst) / k.stored.max(1) as f64).sum::<f64>()
                / keys.len() as f64;
        assert!(
            plan_density >= mean_density * 0.9,
            "plan density {plan_density} vs mean singleton {mean_density}"
        );
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
