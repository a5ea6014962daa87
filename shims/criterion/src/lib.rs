//! Offline drop-in shim for the subset of the Criterion API used by the
//! workspace's micro-benchmarks.
//!
//! Provides `criterion_group!`/`criterion_main!`, `Criterion`,
//! `BenchmarkGroup`, `BenchmarkId`, `Throughput`, `Bencher::iter` and
//! `Bencher::iter_batched`.
//! Measurement is a simple calibrated loop (median of several batches)
//! printed as ns/iter plus derived element throughput — no statistics
//! engine, plots, or saved baselines.

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Declared throughput of one benchmark iteration.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// Identifier for a parameterized benchmark (`function_name/parameter`).
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    full: String,
}

impl BenchmarkId {
    /// An id rendered as `name/parameter`.
    #[must_use]
    pub fn new(name: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId { full: format!("{}/{parameter}", name.into()) }
    }
}

/// Timing driver passed to each benchmark closure.
pub struct Bencher {
    /// Median nanoseconds per iteration, filled by [`Bencher::iter`].
    ns_per_iter: f64,
}

impl Bencher {
    /// Measures `f`, storing the median ns/iter across batches.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // Calibrate the batch size to ~5ms.
        let mut batch: u64 = 1;
        loop {
            let start = Instant::now();
            for _ in 0..batch {
                std::hint::black_box(f());
            }
            let elapsed = start.elapsed();
            if elapsed >= Duration::from_millis(5) || batch >= 1 << 30 {
                break;
            }
            batch = batch.saturating_mul(4);
        }
        // Median of 7 batches.
        let mut samples: Vec<f64> = (0..7)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..batch {
                    std::hint::black_box(f());
                }
                start.elapsed().as_nanos() as f64 / batch as f64
            })
            .collect();
        samples.sort_by(f64::total_cmp);
        self.ns_per_iter = samples[samples.len() / 2];
    }
}

/// How many inputs [`Bencher::iter_batched`] prepares per timed batch;
/// the shim knows the one variant the workspace uses.
#[derive(Debug, Clone, Copy)]
pub enum BatchSize {
    /// One input per timed call: setup and routine strictly alternate.
    PerIteration,
}

impl Bencher {
    /// Measures `routine` alone: `setup` runs, untimed, before every call
    /// and hands it its input. Each call is timed individually, so the
    /// figure carries two clock reads (~40 ns) of overhead.
    pub fn iter_batched<I, O, S: FnMut() -> I, R: FnMut(I) -> O>(
        &mut self,
        mut setup: S,
        mut routine: R,
        _size: BatchSize,
    ) {
        let mut timed = |n: u64| -> Duration {
            let mut total = Duration::ZERO;
            for _ in 0..n {
                let input = setup();
                let start = Instant::now();
                let out = routine(input);
                total += start.elapsed();
                std::hint::black_box(out);
            }
            total
        };
        // Calibrate the batch size to ~5ms of routine time.
        let mut batch: u64 = 1;
        while timed(batch) < Duration::from_millis(5) && batch < 1 << 30 {
            batch = batch.saturating_mul(4);
        }
        // Median of 7 batches.
        let mut samples: Vec<f64> =
            (0..7).map(|_| timed(batch).as_nanos() as f64 / batch as f64).collect();
        samples.sort_by(f64::total_cmp);
        self.ns_per_iter = samples[samples.len() / 2];
    }
}

/// A named group of related benchmarks.
pub struct BenchmarkGroup<'a> {
    name: String,
    throughput: Option<Throughput>,
    _criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Declares the per-iteration throughput used in reports.
    pub fn throughput(&mut self, t: Throughput) {
        self.throughput = Some(t);
    }

    /// Runs one benchmark closure and prints its timing.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: impl Display, mut f: F) {
        let mut b = Bencher { ns_per_iter: 0.0 };
        f(&mut b);
        self.report(&id.to_string(), b.ns_per_iter);
    }

    /// Runs one parameterized benchmark closure and prints its timing.
    pub fn bench_with_input<I: ?Sized, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) {
        let mut b = Bencher { ns_per_iter: 0.0 };
        f(&mut b, input);
        self.report(&id.full, b.ns_per_iter);
    }

    /// Ends the group (report-only in the shim).
    pub fn finish(self) {}

    fn report(&self, id: &str, ns: f64) {
        let rate = match self.throughput {
            Some(Throughput::Elements(n)) if ns > 0.0 => {
                format!("  {:>12.0} elem/s", n as f64 * 1e9 / ns)
            }
            Some(Throughput::Bytes(n)) if ns > 0.0 => {
                format!("  {:>12.0} B/s", n as f64 * 1e9 / ns)
            }
            _ => String::new(),
        };
        println!("{}/{id:<40} {ns:>12.1} ns/iter{rate}", self.name);
    }
}

/// Benchmark driver (shim: configuration-free).
#[derive(Debug, Default)]
pub struct Criterion {}

impl Criterion {
    /// Starts a named group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup { name: name.into(), throughput: None, _criterion: self }
    }

    /// Runs one ungrouped benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: impl Display, f: F) {
        let mut g = self.benchmark_group("bench");
        g.bench_function(id, f);
        g.finish();
    }
}

/// Re-export matching criterion's `black_box` path.
pub use std::hint::black_box;

/// Declares a group-runner function invoking each benchmark function.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut c = $crate::Criterion::default();
            $($target(&mut c);)+
        }
    };
}

/// Declares `main` running each group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_api_smoke() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("smoke");
        g.throughput(Throughput::Elements(1));
        let mut ran = false;
        g.bench_function("noop", |b| {
            ran = true;
            b.ns_per_iter = 1.0; // skip real timing in unit tests
        });
        g.bench_with_input(BenchmarkId::new("param", 3), &3u32, |b, &x| {
            assert_eq!(x, 3);
            b.ns_per_iter = f64::from(x);
        });
        g.finish();
        assert!(ran);
    }

    #[test]
    fn iter_batched_runs_setup_before_every_routine_call() {
        let mut b = Bencher { ns_per_iter: 0.0 };
        let (mut setups, mut calls) = (0u64, 0u64);
        b.iter_batched(
            || {
                setups += 1;
                setups
            },
            |nth| {
                calls += 1;
                assert_eq!(nth, calls, "each call gets the input prepared just before it");
                std::thread::sleep(Duration::from_micros(200));
            },
            BatchSize::PerIteration,
        );
        assert!(calls > 0 && setups == calls);
        assert!(b.ns_per_iter >= 200_000.0, "the routine's time is reported: {}", b.ns_per_iter);
    }
}
