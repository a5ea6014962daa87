//! Lightweight metrics: counters, log-bucketed latency histograms, and
//! fixed-period time series.
//!
//! The evaluation reports three quantities (§VI-A): system throughput
//! (joined result tuples per second), average processing latency, and the
//! real-time degree of load imbalance `LI`. These helpers collect all three
//! without heap allocation on the hot path.

use std::collections::BTreeMap;

use crate::json::Json;

/// A latency histogram with logarithmic buckets (powers of two), covering
/// `[0, 2^63)` time units in 64 buckets. Recording is O(1) and allocation
/// free.
#[derive(Debug, Clone)]
pub struct LogHistogram {
    buckets: Vec<u64>, // 64 fixed buckets
    count: u64,
    sum: u128,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram { buckets: vec![0; 64], count: 0, sum: 0, max: 0 }
    }
}

impl LogHistogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn bucket_of(value: u64) -> usize {
        // value 0 -> bucket 0; otherwise floor(log2(value)) + 1, capped.
        if value == 0 {
            0
        } else {
            ((64 - value.leading_zeros()) as usize).min(63)
        }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum += u128::from(value);
        self.max = self.max.max(value);
    }

    /// Records `n` observations of the same `value` — what `n` calls of
    /// [`LogHistogram::record`] would, in O(1). For a sample that is the
    /// same for every tuple of a message by construction.
    #[inline]
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[Self::bucket_of(value)] += n;
        self.count += n;
        self.sum += u128::from(value) * u128::from(n);
        self.max = self.max.max(value);
    }

    /// Number of recorded observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of recorded observations, or `None` if empty.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum as f64 / self.count as f64)
        }
    }

    /// Maximum recorded observation.
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Approximate quantile (`q` in `[0, 1]`), linearly interpolated inside
    /// the bucket containing the q-th observation. Buckets are powers of
    /// two, so without interpolation every quantile collapses onto a
    /// `2^n - 1` edge (255, 1023, 4095, …); interpolating over the bucket's
    /// occupied range `[2^(i-1), min(2^i - 1, max)]` keeps the estimate
    /// within the bucket and ≤ `max`. `None` if empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target observation, 1-based.
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= target {
                if i == 0 {
                    return Some(0); // bucket 0 holds only the value 0
                }
                let lower = 1u64 << (i - 1);
                let upper = (1u64 << i).saturating_sub(1).min(self.max).max(lower);
                // 1-based rank within this bucket, interpolated linearly.
                let frac = (target - seen) as f64 / c as f64;
                let est = lower as f64 + frac * (upper - lower) as f64;
                return Some((est as u64).min(self.max));
            }
            seen += c;
        }
        Some(self.max)
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Summary as a JSON object: count, mean, max, and the p50/p90/p99
    /// bucket-interpolated quantiles the evaluation reports.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("count", Json::uint(self.count)),
            ("mean", self.mean().into()),
            ("max", Json::uint(self.max)),
            ("p50", self.quantile(0.50).into()),
            ("p90", self.quantile(0.90).into()),
            ("p99", self.quantile(0.99).into()),
        ])
    }
}

/// A time series that buckets observations into fixed periods of event
/// time — the evaluation's "report every second" counters.
#[derive(Debug, Clone)]
pub struct TimeSeries {
    period: u64,
    /// Sum of observations per period, indexed by period number.
    sums: Vec<f64>,
    /// Observation count per period.
    counts: Vec<u64>,
}

impl TimeSeries {
    /// Creates a series with the given bucket period (event-time units).
    ///
    /// # Panics
    /// Panics if `period == 0`.
    #[must_use]
    pub fn new(period: u64) -> Self {
        assert!(period > 0, "time series period must be > 0"); // lint:allow(constructor argument validation)
        TimeSeries { period, sums: Vec::new(), counts: Vec::new() }
    }

    /// Bucket period.
    #[must_use]
    pub fn period(&self) -> u64 {
        self.period
    }

    /// Records `value` at event time `ts`.
    pub fn record(&mut self, ts: u64, value: f64) {
        let idx = (ts / self.period) as usize;
        if idx >= self.sums.len() {
            self.sums.resize(idx + 1, 0.0);
            self.counts.resize(idx + 1, 0);
        }
        self.sums[idx] += value;
        self.counts[idx] += 1;
    }

    /// Number of periods covered (including empty interior ones).
    #[must_use]
    pub fn len(&self) -> usize {
        self.sums.len()
    }

    /// True if nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sums.is_empty()
    }

    /// Per-period sums (e.g. results joined in each second → throughput).
    #[must_use]
    pub fn sums(&self) -> &[f64] {
        &self.sums
    }

    /// Per-period observation counts.
    #[must_use]
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Merges another series into this one. Each of `other`'s buckets is
    /// re-recorded at its own period's start time, so merging series with
    /// different periods re-buckets rather than corrupting indices.
    pub fn merge(&mut self, other: &TimeSeries) {
        for (idx, (&sum, &count)) in other.sums.iter().zip(&other.counts).enumerate() {
            if count == 0 {
                continue;
            }
            let ts = idx as u64 * other.period;
            let bucket = (ts / self.period) as usize;
            if bucket >= self.sums.len() {
                self.sums.resize(bucket + 1, 0.0);
                self.counts.resize(bucket + 1, 0);
            }
            self.sums[bucket] += sum;
            self.counts[bucket] += count;
        }
    }

    /// The series as a JSON object: period plus parallel `sums`/`counts`
    /// arrays indexed by period number.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("period", Json::uint(self.period)),
            ("sums", Json::arr(self.sums.iter().map(|&s| Json::Num(s)))),
            ("counts", Json::arr(self.counts.iter().map(|&c| Json::uint(c)))),
        ])
    }

    /// Per-period means (e.g. average latency per second); `None` for
    /// periods with no observations.
    #[must_use]
    pub fn means(&self) -> Vec<Option<f64>> {
        self.sums
            .iter()
            .zip(&self.counts)
            .map(|(&s, &c)| if c == 0 { None } else { Some(s / c as f64) })
            .collect()
    }

    /// Mean of per-period sums over `[from, to)` period indices — the
    /// "average system throughput" the figures report, skipping warmup.
    #[must_use]
    pub fn mean_sum_over(&self, from: usize, to: usize) -> f64 {
        let to = to.min(self.sums.len());
        if from >= to {
            return 0.0;
        }
        self.sums[from..to].iter().sum::<f64>() / (to - from) as f64
    }

    /// Mean of all observations over `[from, to)` period indices.
    #[must_use]
    pub fn mean_value_over(&self, from: usize, to: usize) -> f64 {
        let to = to.min(self.sums.len());
        if from >= to {
            return 0.0;
        }
        let total: f64 = self.sums[from..to].iter().sum();
        let n: u64 = self.counts[from..to].iter().sum();
        if n == 0 {
            0.0
        } else {
            total / n as f64
        }
    }
}

/// A per-round migration trace: when the monitor triggered the round, what
/// selection produced, how much actually moved, and when the round
/// completed. Timestamps are in the owning engine's monitor-clock units
/// (milliseconds for the threaded runtime, microseconds for the
/// simulator); `route_flip_us` is always wall-clock microseconds and is
/// filled in by engines that can observe the source's
/// `MigrateCmd → RouteUpdated` interval (`None` otherwise).
#[derive(Debug, Clone, PartialEq)]
pub struct MigrationSpan {
    /// Migration round id (monotone per monitor).
    pub epoch: u64,
    /// Source instance (the heaviest at trigger time).
    pub source: usize,
    /// Target instance (the lightest at trigger time).
    pub target: usize,
    /// Degree of load imbalance `LI` observed at trigger time.
    pub imbalance_at_trigger: f64,
    /// Monitor-clock time the round was triggered.
    pub triggered_at: u64,
    /// Monitor-clock time `MigrationDone` arrived (0 while open).
    pub completed_at: u64,
    /// Keys the selection output actually migrated.
    pub keys_moved: u64,
    /// Stored tuples physically moved.
    pub tuples_moved: u64,
    /// Whether the round moved anything (`false` = abandoned: selection
    /// found nothing with positive benefit `F_k`).
    pub effective: bool,
    /// Source-side route-flip latency in microseconds, when the engine
    /// measured it.
    pub route_flip_us: Option<u64>,
}

impl MigrationSpan {
    /// Monitor-clock duration of the round (`completed_at - triggered_at`).
    #[must_use]
    pub fn duration(&self) -> u64 {
        self.completed_at.saturating_sub(self.triggered_at)
    }
}

/// One named metric in a [`MetricsRegistry`].
#[derive(Debug, Clone)]
pub enum MetricValue {
    /// A monotone counter.
    Counter(u64),
    /// A last-write-wins gauge.
    Gauge(f64),
    /// A latency-style log histogram.
    Histogram(LogHistogram),
    /// A fixed-period time series.
    Series(TimeSeries),
}

impl MetricValue {
    fn to_json(&self) -> Json {
        match self {
            MetricValue::Counter(v) => Json::uint(*v),
            MetricValue::Gauge(v) => Json::Num(*v),
            MetricValue::Histogram(h) => h.to_json(),
            MetricValue::Series(s) => s.to_json(),
        }
    }
}

/// A small named-metric registry each executor (instance, dispatcher,
/// monitor) publishes into locally — no locks, no global state. Engines
/// collect the per-executor registries at shutdown and fold them into one
/// report-level registry via [`MetricsRegistry::merge_prefixed`], which
/// namespaces every metric by its executor (`inst.r3.queue_depth`,
/// `dispatcher.tuples_ingested`, …).
///
/// Same-name writes must keep the same metric kind; a kind mismatch
/// replaces the value rather than panicking (the registry is telemetry,
/// never control flow).
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    metrics: BTreeMap<String, MetricValue>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to the counter `name` (creating it at 0).
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        match self.metrics.get_mut(name) {
            Some(MetricValue::Counter(v)) => *v += delta,
            _ => {
                self.metrics.insert(name.to_string(), MetricValue::Counter(delta));
            }
        }
    }

    /// Sets the gauge `name` to `value`.
    pub fn gauge_set(&mut self, name: &str, value: f64) {
        // Owners re-set their gauges every tick: no key allocation then.
        match self.metrics.get_mut(name) {
            Some(slot) => *slot = MetricValue::Gauge(value),
            None => drop(self.metrics.insert(name.to_string(), MetricValue::Gauge(value))),
        }
    }

    /// Records `value` into the histogram `name` (creating it if needed).
    pub fn histogram_record(&mut self, name: &str, value: u64) {
        match self.metrics.get_mut(name) {
            Some(MetricValue::Histogram(h)) => h.record(value),
            _ => {
                let mut h = LogHistogram::new();
                h.record(value);
                self.metrics.insert(name.to_string(), MetricValue::Histogram(h));
            }
        }
    }

    /// The histogram `name`, created empty if needed. For callers that
    /// record many values in a row: resolve the name once, then record
    /// through the handle.
    pub fn histogram_mut(&mut self, name: &str) -> &mut LogHistogram {
        if !matches!(self.metrics.get(name), Some(MetricValue::Histogram(_))) {
            self.metrics.insert(name.to_string(), MetricValue::Histogram(LogHistogram::new()));
        }
        match self.metrics.get_mut(name) {
            Some(MetricValue::Histogram(h)) => h,
            // lint:allow(the branch above just made `name` a histogram)
            _ => unreachable!("{name} was just made a histogram"),
        }
    }

    /// Records `value` at time `ts` into the series `name`, creating it
    /// with bucket `period` if needed (an existing series keeps its own
    /// period).
    pub fn series_record(&mut self, name: &str, period: u64, ts: u64, value: f64) {
        match self.metrics.get_mut(name) {
            Some(MetricValue::Series(s)) => s.record(ts, value),
            _ => {
                let mut s = TimeSeries::new(period.max(1));
                s.record(ts, value);
                self.metrics.insert(name.to_string(), MetricValue::Series(s));
            }
        }
    }

    /// Looks up a metric by name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.metrics.get(name)
    }

    /// The counter `name`, or 0 when absent or not a counter.
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        match self.metrics.get(name) {
            Some(MetricValue::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// Sum of every counter whose name ends with `suffix` — the aggregate
    /// view over per-executor namespaced counters.
    #[must_use]
    pub fn counter_sum(&self, suffix: &str) -> u64 {
        self.metrics
            .iter()
            .filter(|(k, _)| k.ends_with(suffix))
            .map(|(_, v)| match v {
                MetricValue::Counter(c) => *c,
                _ => 0,
            })
            .sum()
    }

    /// Number of metrics registered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// True when no metric has been registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Iterates metrics in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &MetricValue)> {
        self.metrics.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Folds `other` into this registry with every name prefixed by
    /// `prefix` (counters add, gauges overwrite, histograms and series
    /// merge).
    pub fn merge_prefixed(&mut self, prefix: &str, other: &MetricsRegistry) {
        for (name, value) in &other.metrics {
            let full = format!("{prefix}{name}");
            match (self.metrics.get_mut(&full), value) {
                (Some(MetricValue::Counter(a)), MetricValue::Counter(b)) => *a += b,
                (Some(MetricValue::Histogram(a)), MetricValue::Histogram(b)) => a.merge(b),
                (Some(MetricValue::Series(a)), MetricValue::Series(b)) => a.merge(b),
                _ => {
                    self.metrics.insert(full, value.clone());
                }
            }
        }
    }

    /// A copy without the time series — what an executor publishes to the
    /// live plane: a series grows with the run and no live surface renders
    /// one (see [`crate::telemetry`]).
    #[must_use]
    pub fn without_series(&self) -> MetricsRegistry {
        let scalar = |(_, v): &(&String, &MetricValue)| !matches!(v, MetricValue::Series(_));
        MetricsRegistry {
            metrics: self
                .metrics
                .iter()
                .filter(scalar)
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
        }
    }

    /// The registry as one JSON object, keyed by metric name.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::Obj(self.metrics.iter().map(|(k, v)| (k.clone(), v.to_json())).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn histogram_mean_and_count() {
        let mut h = LogHistogram::new();
        for v in [1, 2, 3, 4] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert!((h.mean().unwrap() - 2.5).abs() < 1e-12);
        assert_eq!(h.max(), 4);
    }

    #[test]
    fn histogram_empty_mean_is_none() {
        assert!(LogHistogram::new().mean().is_none());
        assert!(LogHistogram::new().quantile(0.5).is_none());
    }

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(LogHistogram::bucket_of(0), 0);
        assert_eq!(LogHistogram::bucket_of(1), 1);
        assert_eq!(LogHistogram::bucket_of(2), 2);
        assert_eq!(LogHistogram::bucket_of(3), 2);
        assert_eq!(LogHistogram::bucket_of(4), 3);
        assert_eq!(LogHistogram::bucket_of(u64::MAX), 63);
    }

    #[test]
    fn histogram_quantile_brackets_values() {
        let mut h = LogHistogram::new();
        for v in 0..1000u64 {
            h.record(v);
        }
        // Median 500 lives in bucket [256, 511] at rank 244/256 → ≈499,
        // not the bucket edge 511.
        assert_eq!(h.quantile(0.5).unwrap(), 499);
        // p90/p99 live in bucket [512, 1023], whose occupied range is
        // clamped to max=999 — interpolation lands near the true values.
        assert_eq!(h.quantile(0.9).unwrap(), 899);
        assert_eq!(h.quantile(0.99).unwrap(), 989);
        assert_eq!(h.quantile(1.0).unwrap(), 999);
    }

    #[test]
    fn histogram_quantile_interpolates_within_bucket() {
        // 2^n-1 artifact regression: a uniform distribution must not pin
        // every quantile to a power-of-two edge.
        let mut h = LogHistogram::new();
        for v in 1..=4096u64 {
            h.record(v);
        }
        for q in [0.5, 0.9, 0.99] {
            let est = h.quantile(q).unwrap();
            let exact = (q * 4096.0) as u64;
            // Within the containing bucket and within 12% of the exact
            // value; never an untouched edge above max.
            assert!(est <= h.max());
            let err = (est as f64 - exact as f64).abs() / exact as f64;
            assert!(err < 0.12, "q={q}: est {est} vs exact {exact}");
        }
        // Degenerate histograms still behave.
        let mut zeros = LogHistogram::new();
        zeros.record(0);
        zeros.record(0);
        assert_eq!(zeros.quantile(0.99).unwrap(), 0);
        let mut one = LogHistogram::new();
        one.record(777);
        assert_eq!(one.quantile(0.5).unwrap(), 777);
    }

    #[test]
    fn histogram_merge_adds() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        a.record(10);
        b.record(20);
        b.record(30);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.max(), 30);
        assert!((a.mean().unwrap() - 20.0).abs() < 1e-12);
    }

    proptest! {
        /// `record_n(v, n)` is n × `record(v)` to every reader, on top of
        /// whatever the histogram already held — n = 0 (nothing recorded,
        /// `max` untouched) and the capped top bucket included.
        #[test]
        fn record_n_is_n_records(
            base in prop::collection::vec(0u64..5_000, 0..20),
            shift in 0u32..64,
            mantissa in prop::num::u64::ANY,
            n in 0u64..200,
        ) {
            let value = mantissa >> shift;
            let (mut bulk, mut looped) = (LogHistogram::new(), LogHistogram::new());
            for &v in &base {
                bulk.record(v);
                looped.record(v);
            }
            bulk.record_n(value, n);
            for _ in 0..n {
                looped.record(value);
            }
            prop_assert_eq!(bulk.count(), looped.count());
            prop_assert_eq!(bulk.mean(), looped.mean());
            prop_assert_eq!(bulk.max(), looped.max());
            for q in [0.0, 0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
                prop_assert_eq!(bulk.quantile(q), looped.quantile(q));
            }
            prop_assert_eq!(bulk.to_json(), looped.to_json());
        }
    }

    #[test]
    fn timeseries_buckets_by_period() {
        let mut ts = TimeSeries::new(1000);
        ts.record(0, 1.0);
        ts.record(999, 1.0);
        ts.record(1000, 5.0);
        ts.record(2500, 7.0);
        assert_eq!(ts.len(), 3);
        assert_eq!(ts.sums(), &[2.0, 5.0, 7.0]);
        let means = ts.means();
        assert_eq!(means[0], Some(1.0));
        assert_eq!(means[1], Some(5.0));
        assert_eq!(means[2], Some(7.0));
    }

    #[test]
    fn timeseries_interior_gaps_are_empty() {
        let mut ts = TimeSeries::new(10);
        ts.record(0, 1.0);
        ts.record(35, 2.0);
        assert_eq!(ts.len(), 4);
        assert_eq!(ts.means()[1], None);
        assert_eq!(ts.means()[2], None);
    }

    #[test]
    fn timeseries_windowed_averages() {
        let mut ts = TimeSeries::new(10);
        for t in 0..100 {
            ts.record(t, 2.0); // 10 obs per period, sum 20
        }
        assert!((ts.mean_sum_over(0, 10) - 20.0).abs() < 1e-12);
        assert!((ts.mean_value_over(0, 10) - 2.0).abs() < 1e-12);
        // Degenerate windows.
        assert_eq!(ts.mean_sum_over(5, 5), 0.0);
        assert_eq!(ts.mean_value_over(50, 10), 0.0);
    }

    #[test]
    #[should_panic(expected = "period must be > 0")]
    fn timeseries_rejects_zero_period() {
        let _ = TimeSeries::new(0);
    }

    #[test]
    fn timeseries_record_out_of_order_timestamps() {
        // Executors report with skewed clocks: a late-arriving early
        // timestamp must land in its own (already-allocated) bucket, not
        // panic or shift later buckets.
        let mut ts = TimeSeries::new(100);
        ts.record(950, 5.0);
        ts.record(50, 1.0); // out of order: earlier than the first record
        ts.record(940, 2.0);
        ts.record(0, 3.0);
        assert_eq!(ts.len(), 10);
        assert_eq!(ts.sums()[0], 4.0);
        assert_eq!(ts.counts()[0], 2);
        assert_eq!(ts.sums()[9], 7.0);
        assert_eq!(ts.counts()[9], 2);
        for i in 1..9 {
            assert_eq!(ts.counts()[i], 0);
        }
    }

    #[test]
    fn timeseries_gapped_merge_across_skewed_executors() {
        // One executor saw only early periods, another only a far-future
        // one; merging must keep interior gaps empty and not mis-bucket.
        let mut a = TimeSeries::new(1000);
        a.record(100, 1.0);
        let mut b = TimeSeries::new(1000);
        b.record(9_500, 4.0); // gap of 8 empty periods in between
        a.merge(&b);
        assert_eq!(a.len(), 10);
        assert_eq!(a.sums()[0], 1.0);
        assert_eq!(a.sums()[9], 4.0);
        assert_eq!(a.counts()[1..9], [0, 0, 0, 0, 0, 0, 0, 0]);
        // Merging the gapped series the other way re-buckets identically.
        let mut c = TimeSeries::new(1000);
        c.merge(&a);
        assert_eq!(c.sums(), a.sums());
        assert_eq!(c.counts(), a.counts());
    }

    #[test]
    fn registry_prefixed_merge_round_trips_to_totals() {
        // Per-executor registries under inst.r{id}./inst.s{id}. prefixes
        // must sum back to the unprefixed totals via counter_sum.
        let mut total = 0u64;
        let mut all = MetricsRegistry::new();
        for (side, id, n) in [("r", 0, 7u64), ("r", 1, 11), ("s", 0, 13), ("s", 1, 17)] {
            let mut exec = MetricsRegistry::new();
            exec.counter_add("probes_handled", n);
            exec.histogram_record("probe_us", n);
            total += n;
            all.merge_prefixed(&format!("inst.{side}{id}."), &exec);
        }
        assert_eq!(all.counter_sum(".probes_handled"), total);
        assert_eq!(all.counter("inst.s1.probes_handled"), 17);
        // Histograms merged under distinct prefixes stay distinct.
        assert_eq!(all.len(), 8);
        // Re-merging one executor adds counters and merges histograms
        // rather than overwriting.
        let mut again = MetricsRegistry::new();
        again.counter_add("probes_handled", 1);
        again.histogram_record("probe_us", 1);
        all.merge_prefixed("inst.r0.", &again);
        assert_eq!(all.counter("inst.r0.probes_handled"), 8);
        assert_eq!(all.counter_sum(".probes_handled"), total + 1);
        match all.get("inst.r0.probe_us") {
            Some(MetricValue::Histogram(h)) => assert_eq!(h.count(), 2),
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    fn timeseries_merge_rebuckets_by_time() {
        let mut a = TimeSeries::new(1000);
        a.record(0, 1.0);
        let mut b = TimeSeries::new(500); // finer period
        b.record(400, 2.0); // bucket 0 of b → t=0 → bucket 0 of a
        b.record(2600, 3.0); // bucket 5 of b → t=2500 → bucket 2 of a
        a.merge(&b);
        assert_eq!(a.sums(), &[3.0, 0.0, 3.0]);
        assert_eq!(a.counts(), &[2, 0, 1]);
    }

    #[test]
    fn registry_counters_gauges_series() {
        let mut r = MetricsRegistry::new();
        r.counter_add("probes", 2);
        r.counter_add("probes", 3);
        r.gauge_set("buffered", 7.0);
        r.series_record("depth", 100, 50, 4.0);
        r.series_record("depth", 100, 150, 6.0);
        r.histogram_record("lat", 10);
        assert_eq!(r.counter("probes"), 5);
        assert_eq!(r.counter("missing"), 0);
        assert!(matches!(r.get("buffered"), Some(MetricValue::Gauge(v)) if *v == 7.0));
        assert!(matches!(r.get("depth"), Some(MetricValue::Series(s)) if s.len() == 2));
        assert_eq!(r.len(), 4);
    }

    #[test]
    fn histogram_handle_records_into_the_named_histogram() {
        let mut r = MetricsRegistry::new();
        r.histogram_record("lat", 10);
        let h = r.histogram_mut("lat");
        h.record(20);
        h.record(30);
        assert!(matches!(r.get("lat"), Some(MetricValue::Histogram(h)) if h.count() == 3));
        // Absent, or of another kind: replaced by an empty histogram, as
        // `histogram_record` does.
        r.counter_add("n", 1);
        assert_eq!(r.histogram_mut("n").count(), 0);
        assert_eq!(r.histogram_mut("fresh").count(), 0);
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn registry_merge_prefixed_namespaces_and_adds() {
        let mut inst = MetricsRegistry::new();
        inst.counter_add("handoffs", 2);
        let mut inst2 = MetricsRegistry::new();
        inst2.counter_add("handoffs", 3);
        let mut all = MetricsRegistry::new();
        all.merge_prefixed("inst.r0.", &inst);
        all.merge_prefixed("inst.r1.", &inst2);
        all.merge_prefixed("inst.r1.", &inst2); // counters add on re-merge
        assert_eq!(all.counter("inst.r0.handoffs"), 2);
        assert_eq!(all.counter("inst.r1.handoffs"), 6);
        assert_eq!(all.counter_sum(".handoffs"), 8);
    }

    #[test]
    fn registry_json_is_keyed_by_name() {
        let mut r = MetricsRegistry::new();
        r.counter_add("a", 1);
        r.gauge_set("b", 2.5);
        assert_eq!(r.to_json().to_string(), "{\"a\":1,\"b\":2.5}");
    }

    #[test]
    fn span_duration() {
        let span = MigrationSpan {
            epoch: 3,
            source: 1,
            target: 0,
            imbalance_at_trigger: 2.5,
            triggered_at: 100,
            completed_at: 130,
            keys_moved: 2,
            tuples_moved: 40,
            effective: true,
            route_flip_us: Some(250),
        };
        assert_eq!(span.duration(), 30);
    }

    #[test]
    fn histogram_json_has_percentiles() {
        let mut h = LogHistogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.to_json().to_string();
        assert!(s.contains("\"count\":100"));
        assert!(s.contains("\"p50\":"));
        assert!(s.contains("\"p99\":"));
    }
}
