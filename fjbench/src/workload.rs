//! The four workloads: seeded input generation and the independent
//! reference the join output is checked against.

use std::collections::HashMap;

use fastjoin_baselines::SystemKind;
use fastjoin_core::hash::mix64;
use fastjoin_core::tuple::{Side, Tuple};
use fastjoin_datagen::{TieredSampler, Zipf};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Rank → key: a fixed odd multiplier (wrapping) spreads consecutive ranks
/// over the 64-bit key space without a second hash the system could share.
const KEY_MULTIPLIER: u64 = 0x9E37_79B9_7F4A_7C15;

/// How keys are drawn.
#[derive(Debug, Clone, Copy)]
pub enum KeyDist {
    /// `TieredSampler(keys, hot_frac, hot_share)` — the paper's flat-headed
    /// 80/20 skew.
    Tiered { keys: u64, hot_frac: f64, hot_share: f64 },
    /// `Zipf(keys, exponent)`; exponent 0 is uniform.
    Zipf { keys: u64, exponent: f64 },
}

/// One benchmark workload. Sizes and paced rates are part of the
/// benchmark, not knobs: later changes are compared on exactly these.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub tuples: usize,
    pub dist: KeyDist,
    /// Probability that a tuple belongs to stream R (R:S = 1:4 → 0.2).
    pub r_share: f64,
    pub system: SystemKind,
    /// Open-loop rate of the paced phase, tuples/s.
    pub paced_rate: f64,
    /// Length of the input prefix the paced phase replays.
    pub paced_tuples: usize,
}

const TIERED: KeyDist = KeyDist::Tiered { keys: 5_000, hot_frac: 0.2, hot_share: 0.8 };

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "tiered_fastjoin",
        tuples: 600_000,
        dist: TIERED,
        r_share: 0.2,
        system: SystemKind::FastJoin,
        paced_rate: 20_000.0,
        paced_tuples: 30_000,
    },
    Spec {
        name: "tiered_hash",
        tuples: 600_000,
        dist: TIERED,
        r_share: 0.2,
        system: SystemKind::BiStream,
        paced_rate: 20_000.0,
        paced_tuples: 30_000,
    },
    Spec {
        name: "wide_state",
        tuples: 300_000,
        dist: KeyDist::Zipf { keys: 100_000, exponent: 0.0 },
        r_share: 0.5,
        system: SystemKind::FastJoin,
        paced_rate: 20_000.0,
        paced_tuples: 30_000,
    },
    Spec {
        name: "zipf_head",
        tuples: 500_000,
        dist: KeyDist::Zipf { keys: 10_000, exponent: 1.0 },
        r_share: 0.2,
        system: SystemKind::FastJoin,
        paced_rate: 6_000.0,
        paced_tuples: 9_000,
    },
];

impl Spec {
    pub fn by_name(name: &str) -> Option<Spec> {
        SPECS.iter().copied().find(|s| s.name == name)
    }

    /// The same workload at `factor` of its size (`--quick`); rates stay.
    pub fn scaled(mut self, factor: f64) -> Spec {
        self.tuples = ((self.tuples as f64 * factor) as usize).max(1_000);
        self.paced_tuples = ((self.paced_tuples as f64 * factor) as usize).max(500);
        self
    }
}

/// Generates the input from the seed alone: `payload` and `ts` are the
/// input index, so a tuple is identified by its payload wherever it ends up.
pub fn generate(spec: &Spec, seed: u64) -> Vec<Tuple> {
    enum Sampler {
        Tiered(TieredSampler),
        Zipf(Zipf),
    }
    let sampler = match spec.dist {
        KeyDist::Tiered { keys, hot_frac, hot_share } => {
            Sampler::Tiered(TieredSampler::new(keys, hot_frac, hot_share))
        }
        KeyDist::Zipf { keys, exponent } => Sampler::Zipf(Zipf::new(keys, exponent)),
    };
    let mut rng = StdRng::seed_from_u64(seed);
    (0..spec.tuples as u64)
        .map(|i| {
            let rank = match &sampler {
                Sampler::Tiered(s) => s.sample(&mut rng),
                Sampler::Zipf(s) => s.sample(&mut rng),
            };
            let side = if rng.gen::<f64>() < spec.r_share { Side::R } else { Side::S };
            Tuple::new(side, rank.wrapping_mul(KEY_MULTIPLIER), i, i)
        })
        .collect()
}

/// Expected number of result pairs of a full-history equi-join:
/// `Σ_k r_k · s_k`, computed from key counts alone.
pub fn expected_pairs(input: &[Tuple]) -> u64 {
    let mut counts: HashMap<u64, (u64, u64)> = HashMap::new();
    for t in input {
        let c = counts.entry(t.key).or_default();
        match t.side {
            Side::R => c.0 += 1,
            Side::S => c.1 += 1,
        }
    }
    counts.values().map(|&(r, s)| r * s).sum()
}

/// An order-independent summary of a set of result pairs: how many, and a
/// wrapping sum of a mix of each pair's two payloads. Two runs produced the
/// same multiset of pairs exactly when count and sum agree (up to hash
/// collisions), whatever order the pairs arrived in.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    pub count: u64,
    pub sum: u64,
}

impl Digest {
    /// Adds the pair (R-side payload, S-side payload).
    #[inline]
    pub fn add(&mut self, left_payload: u64, right_payload: u64) {
        self.count += 1;
        self.sum =
            self.sum.wrapping_add(mix64(left_payload.wrapping_mul(1_000_003) ^ right_payload));
    }

    /// How many pairs the two digests differ by; a sum mismatch at equal
    /// counts means at least one wrong pair.
    pub fn mismatch(&self, other: &Digest) -> u64 {
        match self.count.abs_diff(other.count) {
            0 if self.sum != other.sum => 1,
            d => d,
        }
    }
}

/// The reference digest of `input`: every (R, S) pair with equal keys,
/// enumerated by a nested loop over per-key payload lists — no code shared
/// with the system under test.
pub fn reference_digest(input: &[Tuple]) -> Digest {
    let mut by_key: HashMap<u64, (Vec<u64>, Vec<u64>)> = HashMap::new();
    let mut digest = Digest::default();
    for t in input {
        let (rs, ss) = by_key.entry(t.key).or_default();
        match t.side {
            Side::R => {
                ss.iter().for_each(|&s| digest.add(t.payload, s));
                rs.push(t.payload);
            }
            Side::S => {
                rs.iter().for_each(|&r| digest.add(r, t.payload));
                ss.push(t.payload);
            }
        }
    }
    digest
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_input_other_seed_other_input() {
        for spec in SPECS.map(|s| s.scaled(0.01)) {
            let a = generate(&spec, 7);
            assert_eq!(a, generate(&spec, 7), "{}", spec.name);
            assert_ne!(a, generate(&spec, 8), "{}", spec.name);
            assert_eq!(a.len(), spec.tuples);
            assert!(a.iter().enumerate().all(|(i, t)| t.payload == i as u64));
        }
    }

    #[test]
    fn the_two_tiered_workloads_share_their_input() {
        let [fj, hash, ..] = SPECS.map(|s| s.scaled(0.01));
        assert_eq!(generate(&fj, 3), generate(&hash, 3));
    }

    /// Three keys by hand: key 1 has 2 R × 3 S, key 2 has 1 R × 0 S,
    /// key 3 has 2 R × 1 S → 6 + 0 + 2 pairs.
    #[test]
    fn reference_on_a_hand_built_three_key_case() {
        let mut input = Vec::new();
        let mut push = |side, key| {
            let i = input.len() as u64;
            input.push(Tuple::new(side, key, i, i));
        };
        for (side, key) in [
            (Side::R, 1),
            (Side::S, 1),
            (Side::S, 1),
            (Side::R, 1),
            (Side::S, 1),
            (Side::R, 2),
            (Side::R, 3),
            (Side::S, 3),
            (Side::R, 3),
        ] {
            push(side, key);
        }
        assert_eq!(expected_pairs(&input), 8);
        let d = reference_digest(&input);
        assert_eq!(d.count, 8);
        // Order independence: the reversed stream has the same pairs.
        let mut rev = input.clone();
        rev.reverse();
        assert_eq!(reference_digest(&rev), d);
        // One missing pair and one swapped pair are both seen.
        let mut short = Digest::default();
        short.add(0, 1);
        assert_eq!(d.mismatch(&short), 7);
        let mut wrong = d;
        wrong.sum = wrong.sum.wrapping_add(1);
        assert_eq!(d.mismatch(&wrong), 1);
    }
}
