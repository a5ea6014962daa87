//! The reference kernel: a fixed piece of benchmark-owned work that tells
//! how fast the host is *right now*.
//!
//! The sandbox is a guest on a shared host whose speed drifts by a factor
//! of up to two for minutes at a time — wall time and CPU time alike
//! (measured: the same build ran `tiered_hash` at 237k tuples/s and, ten
//! minutes later, at 308k). A best-of over repetitions removes bursts but
//! not such phases, so throughput and CPU cost are reported relative to
//! this kernel, run between the repetitions they are compared with. It
//! does what the join's data path does — hash-bucketed inserts and bounded
//! bucket scans over the workload's own input — on as many threads as
//! there are cores, so that contention for cores, caches and memory
//! bandwidth slows it about as much as it slows the system.

use std::collections::HashMap;
use std::hint::black_box;
use std::thread;
use std::time::Instant;

use fastjoin_core::tuple::Tuple;

use crate::cpu::process_cpu_seconds;

/// Stored payloads scanned per arriving tuple, at most: keeps the kernel's
/// cost linear on inputs whose join is quadratic (`zipf_head`).
const SCAN_CAP: usize = 64;

fn pass(input: &[Tuple]) -> u64 {
    let mut buckets: HashMap<u64, Vec<u64>> = HashMap::new();
    let mut sum = 0u64;
    for t in input {
        let bucket = buckets.entry(t.key).or_default();
        sum = bucket.iter().rev().take(SCAN_CAP).fold(sum, |s, p| s.wrapping_add(*p));
        bucket.push(t.payload);
    }
    sum
}

/// Kernel runs per sampling point.
const RUNS_PER_SAMPLE: usize = 3;

/// The fastest kernel run seen so far, wall and CPU seconds: like the
/// repetitions it is compared with, the kernel is only ever slowed by
/// interference, so its best run is its estimate.
#[derive(Debug, Clone, Copy)]
pub struct HostSpeed {
    pub wall_s: f64,
    pub cpu_s: f64,
}

impl HostSpeed {
    pub fn new() -> Self {
        HostSpeed { wall_s: f64::INFINITY, cpu_s: f64::INFINITY }
    }

    /// Runs the kernel over `input` a few times, on every core at once.
    pub fn sample(&mut self, input: &[Tuple]) {
        let threads = thread::available_parallelism().map_or(1, usize::from);
        for _ in 0..RUNS_PER_SAMPLE {
            let (start, cpu) = (Instant::now(), process_cpu_seconds());
            thread::scope(|s| {
                for _ in 0..threads {
                    s.spawn(|| black_box(pass(black_box(input))));
                }
            });
            self.wall_s = self.wall_s.min(start.elapsed().as_secs_f64());
            self.cpu_s = self.cpu_s.min(process_cpu_seconds() - cpu);
        }
    }
}
