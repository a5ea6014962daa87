//! Sub-window accounting for window-based joins (§III-E).
//!
//! The paper's monitor records the historical accumulation `|R|` of each
//! instance in "a fixed-size vector, which can be seen as a window ... Every
//! element in the vector means |R| in \[a\] sub-window. When the expired
//! tuples are removed ... the head of \[the\] vector (early sub-window) would
//! be popped out". [`SubWindowRing`] is that vector: a ring of per-sub-window
//! counts whose sum is the instance's in-window stored-tuple count.

use crate::config::WindowConfig;
use crate::tuple::Timestamp;

/// A ring of per-sub-window counts covering the most recent
/// `sub_windows × sub_window_len` time units.
#[derive(Debug, Clone)]
pub struct SubWindowRing {
    cfg: WindowConfig,
    /// counts[i] is the count for absolute sub-window `base + i`.
    counts: Vec<u64>,
    /// Absolute index of the earliest sub-window retained.
    base: u64,
    total: u64,
}

impl SubWindowRing {
    /// Creates an empty ring.
    ///
    /// # Panics
    /// Panics if the window configuration is degenerate.
    #[must_use]
    pub fn new(cfg: WindowConfig) -> Self {
        assert!(cfg.sub_windows > 0 && cfg.sub_window_len > 0, "degenerate window"); // lint:allow(constructor argument validation)
        SubWindowRing { cfg, counts: vec![0; cfg.sub_windows], base: 0, total: 0 }
    }

    /// The window configuration.
    #[must_use]
    pub fn config(&self) -> WindowConfig {
        self.cfg
    }

    /// Absolute sub-window index of a timestamp.
    #[inline]
    fn sub_window_of(&self, ts: Timestamp) -> u64 {
        ts / self.cfg.sub_window_len
    }

    /// Total in-window count (the windowed `|R_i|`).
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Records `n` tuples with event time `ts`. If `ts` belongs to a
    /// sub-window newer than the ring's end, the ring advances and expired
    /// head sub-windows are popped; their total is returned. Counts for
    /// sub-windows older than the retained range are ignored — they are
    /// already expired.
    pub fn record(&mut self, ts: Timestamp, n: u64) -> u64 {
        let sw = self.sub_window_of(ts);
        let expired = self.advance_to(sw);
        if sw < self.base {
            return expired; // the record itself is already expired
        }
        let idx = (sw - self.base) as usize;
        self.counts[idx] += n; // lint:allow(idx < sub_windows: advance() above moved the base)
        self.total += n;
        expired
    }

    /// Advances the ring so that sub-window `latest` is representable,
    /// popping expired head sub-windows. Returns the count expired.
    pub fn advance_to(&mut self, latest: u64) -> u64 {
        let cap = self.cfg.sub_windows as u64;
        if latest < self.base + cap {
            return 0;
        }
        let new_base = latest + 1 - cap;
        let shift = (new_base - self.base).min(cap);
        let mut expired = 0;
        // Pop `shift` head sub-windows.
        for i in 0..shift as usize {
            expired += self.counts[i]; // lint:allow(shift is clamped to the ring length above)
        }
        self.counts.drain(..shift as usize);
        self.counts.extend(std::iter::repeat_n(0, shift as usize));
        self.total -= expired;
        self.base = new_base;
        expired
    }

    /// Advances the ring to the sub-window containing `ts`.
    pub fn advance_to_ts(&mut self, ts: Timestamp) -> u64 {
        self.advance_to(self.sub_window_of(ts))
    }

    /// Per-sub-window counts, oldest first (the paper's vector).
    #[must_use]
    pub fn snapshot(&self) -> &[u64] {
        &self.counts
    }

    /// Earliest event time still inside the window, given the newest
    /// sub-window currently retained.
    #[must_use]
    pub fn window_start(&self) -> Timestamp {
        self.base * self.cfg.sub_window_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(sub_windows: usize, len: u64) -> SubWindowRing {
        SubWindowRing::new(WindowConfig { sub_windows, sub_window_len: len })
    }

    #[test]
    fn records_accumulate_in_sub_windows() {
        let mut r = ring(4, 10);
        r.record(0, 1);
        r.record(5, 2);
        r.record(15, 3);
        assert_eq!(r.total(), 6);
        assert_eq!(r.snapshot(), &[3, 3, 0, 0]);
    }

    #[test]
    fn advancing_pops_oldest_sub_window() {
        let mut r = ring(3, 10);
        r.record(0, 5); // sw 0
        r.record(10, 7); // sw 1
        r.record(20, 9); // sw 2
        assert_eq!(r.total(), 21);
        // Recording in sw 3 pops sw 0.
        r.record(30, 1);
        assert_eq!(r.total(), 17);
        assert_eq!(r.snapshot(), &[7, 9, 1]);
        assert_eq!(r.window_start(), 10);
    }

    #[test]
    fn advance_far_clears_everything() {
        let mut r = ring(3, 10);
        r.record(0, 5);
        r.record(10, 5);
        let expired = r.advance_to_ts(1000);
        assert_eq!(expired, 10);
        assert_eq!(r.total(), 0);
        assert_eq!(r.snapshot(), &[0, 0, 0]);
    }

    #[test]
    fn late_records_outside_window_are_dropped() {
        let mut r = ring(2, 10);
        r.record(50, 3); // sw 5; window covers sw 4..=5
        r.record(0, 9); // sw 0 — expired, ignored
        assert_eq!(r.total(), 3);
    }

    #[test]
    fn advance_is_count_conserving() {
        let mut r = ring(5, 100);
        let mut recorded = 0u64;
        let mut expired = 0u64;
        for ts in (0..5000).step_by(37) {
            expired += r.record(ts, 2);
            recorded += 2;
            expired += r.advance_to_ts(ts);
        }
        assert_eq!(r.total() + expired, recorded);
    }

    #[test]
    #[should_panic(expected = "degenerate window")]
    fn rejects_zero_sub_windows() {
        let _ = ring(0, 10);
    }
}
