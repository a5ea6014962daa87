//! Checked probe fan-out accounting for the collector.
//!
//! Every probe-side tuple is dispatched to `fanout` instances — the count
//! the dispatcher stamps on the tuple, which every part reports; the join
//! of the original tuple completes when all fan-out parts have completed,
//! and exactly one latency sample (the max across parts) must be recorded
//! per probe. The old collector decremented an unchecked counter and
//! silently trusted whatever fan-out each part claimed — a part arriving
//! with a mismatched fan-out (the behaviour, before the fan-out travelled
//! in the tuple, of probes forwarded across a migration, which defaulted
//! to 1) either underflowed the counter or leaked the entry forever.
//! [`ProbeAccountant`] makes both states impossible to miss: mismatches,
//! over-completion and a zero fan-out (a tuple that never passed the
//! dispatcher) are hard errors, and [`ProbeAccountant::finish`] refuses to
//! report while entries are still outstanding. It is the one check on
//! probe accounting — the runtime's collector, the simulator and the
//! synchronous cluster each book every part in one; instances keep no
//! per-probe state to audit.

use std::collections::HashMap;
use std::fmt;

use crate::metrics::LogHistogram;

/// A violation of the probe-accounting invariant. Any of these means the
/// runtime mis-tracked a probe's fan-out — the collector treats them as
/// fatal because every later count would be unreliable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AccountingError {
    /// A part arrived declaring a different fan-out than the first part of
    /// the same probe. This is exactly what the collector saw before the
    /// fan-out travelled with the probe: the migration target, knowing no
    /// fan-out for a forwarded probe, guessed `1` while the source-side
    /// parts had declared the true fan-out.
    FanoutMismatch {
        /// Dispatch sequence number of the probe.
        seq: u64,
        /// Fan-out declared by the first part.
        declared: u32,
        /// Conflicting fan-out on a later part.
        conflicting: u32,
    },
    /// A part arrived for a probe that had already completed (its counter
    /// already reached zero) — the unchecked `entry.0 -= 1` would have
    /// wrapped around here.
    Overcomplete {
        /// Dispatch sequence number of the probe.
        seq: u64,
    },
    /// A part declared a fan-out of zero, which can never complete.
    ZeroFanout {
        /// Dispatch sequence number of the probe.
        seq: u64,
    },
    /// `finish` was called while probes were still outstanding — fan-out
    /// entries leaked instead of draining to zero.
    Leak {
        /// Number of probes with unfinished parts.
        outstanding: usize,
    },
}

impl fmt::Display for AccountingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccountingError::FanoutMismatch { seq, declared, conflicting } => write!(
                f,
                "probe {seq}: part declared fan-out {conflicting} but the first part declared \
                 {declared}"
            ),
            AccountingError::Overcomplete { seq } => {
                write!(f, "probe {seq}: more parts completed than its declared fan-out")
            }
            AccountingError::ZeroFanout { seq } => {
                write!(f, "probe {seq}: declared fan-out of zero")
            }
            AccountingError::Leak { outstanding } => {
                write!(f, "{outstanding} probe(s) still outstanding at shutdown")
            }
        }
    }
}

impl std::error::Error for AccountingError {}

/// One probe's in-flight state: parts still missing and the worst latency
/// seen so far.
#[derive(Debug, Clone, Copy)]
struct Outstanding {
    declared: u32,
    left: u32,
    max_latency_us: u64,
}

/// Collector-side ledger mapping each probe's dispatch sequence number to
/// its unfinished fan-out parts. Completing the last part records exactly
/// one latency sample (the max across parts) and bumps the probe count.
#[derive(Debug, Default)]
pub struct ProbeAccountant {
    outstanding: HashMap<u64, Outstanding>,
    probes_total: u64,
    latency: LogHistogram,
}

impl ProbeAccountant {
    /// Creates an empty ledger.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Books one completed fan-out part of probe `seq`; returns the
    /// probe's latency (the max across its parts) when this part closed
    /// it. Returns an error — without mutating the counts — when the part
    /// contradicts what the ledger already knows about the probe.
    pub fn on_probe(
        &mut self,
        seq: u64,
        fanout: u32,
        latency_us: u64,
    ) -> Result<Option<u64>, AccountingError> {
        // A one-part probe arriving while nothing is outstanding — every
        // probe of a hash-partitioned run — would open its entry and close
        // it again: same counts, same sample, without hashing `seq` twice.
        if fanout == 1 && self.outstanding.is_empty() {
            self.probes_total += 1;
            self.latency.record(latency_us);
            return Ok(Some(latency_us));
        }
        self.book_part(seq, fanout, latency_us)
    }

    /// The ledger proper: finds or opens the probe's entry, checks the
    /// part against it and closes the entry on its last part.
    fn book_part(
        &mut self,
        seq: u64,
        fanout: u32,
        latency_us: u64,
    ) -> Result<Option<u64>, AccountingError> {
        if fanout == 0 {
            return Err(AccountingError::ZeroFanout { seq });
        }
        let entry = self.outstanding.entry(seq).or_insert(Outstanding {
            declared: fanout,
            left: fanout,
            max_latency_us: 0,
        });
        if entry.declared != fanout {
            return Err(AccountingError::FanoutMismatch {
                seq,
                declared: entry.declared,
                conflicting: fanout,
            });
        }
        entry.left = match entry.left.checked_sub(1) {
            Some(left) => left,
            None => return Err(AccountingError::Overcomplete { seq }),
        };
        entry.max_latency_us = entry.max_latency_us.max(latency_us);
        if entry.left > 0 {
            return Ok(None);
        }
        let max = entry.max_latency_us;
        self.outstanding.remove(&seq);
        self.probes_total += 1;
        self.latency.record(max);
        Ok(Some(max))
    }

    /// Probes fully completed so far.
    #[must_use]
    pub fn probes_total(&self) -> u64 {
        self.probes_total
    }

    /// Probes with parts still in flight.
    #[must_use]
    pub fn outstanding(&self) -> usize {
        self.outstanding.len()
    }

    /// Closes the ledger, returning `(probes_total, latency histogram)`.
    /// Errors if any probe never completed — at shutdown the fan-out map
    /// must have drained to empty.
    pub fn finish(self) -> Result<(u64, LogHistogram), AccountingError> {
        if !self.outstanding.is_empty() {
            return Err(AccountingError::Leak { outstanding: self.outstanding.len() });
        }
        Ok((self.probes_total, self.latency))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn single_part_probes_complete_immediately() {
        let mut a = ProbeAccountant::new();
        a.on_probe(1, 1, 50).unwrap();
        a.on_probe(2, 1, 70).unwrap();
        assert_eq!(a.probes_total(), 2);
        assert_eq!(a.outstanding(), 0);
        let (total, hist) = a.finish().unwrap();
        assert_eq!(total, 2);
        assert_eq!(hist.count(), 2);
        assert_eq!(hist.max(), 70);
    }

    #[test]
    fn fanout_parts_record_one_sample_at_max_latency() {
        let mut a = ProbeAccountant::new();
        assert_eq!(a.on_probe(7, 3, 10), Ok(None));
        assert_eq!(a.on_probe(7, 3, 90), Ok(None));
        assert_eq!(a.probes_total(), 0, "two of three parts: not complete yet");
        assert_eq!(a.on_probe(7, 3, 40), Ok(Some(90)), "the closing part returns the max");
        assert_eq!(a.probes_total(), 1);
        let (_, hist) = a.finish().unwrap();
        assert_eq!(hist.count(), 1, "exactly one latency sample per probe");
        assert_eq!(hist.max(), 90, "the sample is the straggler's latency");
    }

    #[test]
    fn prefix_emission_pattern_is_detected_as_mismatch() {
        // The pre-fix runtime: the source declares the true fan-out for the
        // parts it completes, but a part forwarded across a migration lost
        // its entry and the target fell back to fan-out 1. The unchecked
        // collector would have completed the probe early on the target part
        // (fanout 1 → instant complete) AND leaked the source-side entry.
        let mut a = ProbeAccountant::new();
        a.on_probe(42, 2, 30).unwrap(); // source-side part, true fan-out 2
        let err = a.on_probe(42, 1, 55).unwrap_err(); // target guessed 1
        assert_eq!(err, AccountingError::FanoutMismatch { seq: 42, declared: 2, conflicting: 1 });
        // The bogus part was rejected without corrupting the ledger.
        assert_eq!(a.probes_total(), 0);
        assert_eq!(a.outstanding(), 1);
    }

    #[test]
    fn overcompletion_is_detected_instead_of_underflowing() {
        // Both parts of a fan-out-1 probe arriving (e.g. a duplicate) used
        // to underflow `entry.0 -= 1`. Order matters: after the first part
        // completes the entry is gone, so the duplicate re-opens it — the
        // mismatch/overcomplete checks must still fire for fan-out >= 2.
        let mut a = ProbeAccountant::new();
        a.on_probe(9, 2, 5).unwrap();
        a.on_probe(9, 2, 6).unwrap(); // completes
        a.on_probe(8, 3, 1).unwrap();
        a.on_probe(8, 3, 2).unwrap();
        a.on_probe(8, 3, 3).unwrap(); // completes
        assert_eq!(a.probes_total(), 2);
        assert!(a.finish().is_ok());
    }

    proptest! {
        /// `on_probe`'s shortcut for one-part probes is invisible: on any
        /// interleaving of one- and multi-part reports — duplicates,
        /// mismatched and zero fan-outs included — every call returns what
        /// the ledger alone returns, and the totals, the entries left
        /// outstanding and the latency histogram end up identical.
        #[test]
        fn the_one_part_shortcut_matches_the_ledger(
            parts in prop::collection::vec((0u64..6, 0u32..4, 0u64..10_000), 0..120),
            one_part_share in 0u32..4,
        ) {
            let (mut fast, mut slow) = (ProbeAccountant::new(), ProbeAccountant::new());
            for (i, (seq, fanout, latency_us)) in parts.into_iter().enumerate() {
                // Runs of fresh one-part probes (the shortcut's case)
                // between parts that share a few seqs and so stay open,
                // complete late, or contradict each other.
                let (seq, fanout) =
                    if fanout < one_part_share { (1_000 + i as u64, 1) } else { (seq, fanout) };
                prop_assert_eq!(
                    fast.on_probe(seq, fanout, latency_us),
                    slow.book_part(seq, fanout, latency_us)
                );
                prop_assert_eq!(fast.probes_total(), slow.probes_total());
                prop_assert_eq!(fast.outstanding(), slow.outstanding());
            }
            prop_assert_eq!(format!("{:?}", fast.finish()), format!("{:?}", slow.finish()));
        }
    }

    #[test]
    fn zero_fanout_is_rejected() {
        let mut a = ProbeAccountant::new();
        assert_eq!(a.on_probe(3, 0, 10).unwrap_err(), AccountingError::ZeroFanout { seq: 3 });
    }

    #[test]
    fn leaked_entries_fail_finish() {
        // The pre-fix source-side leak: a probe's parts never all complete
        // because its fan-out entry was dropped during migration. The
        // ledger refuses to report clean totals.
        let mut a = ProbeAccountant::new();
        a.on_probe(1, 2, 10).unwrap(); // one of two parts — never finishes
        a.on_probe(2, 1, 20).unwrap();
        assert_eq!(a.probes_total(), 1);
        let err = a.finish().unwrap_err();
        assert_eq!(err, AccountingError::Leak { outstanding: 1 });
    }

    #[test]
    fn errors_render_for_the_shutdown_panic() {
        let msg =
            AccountingError::FanoutMismatch { seq: 5, declared: 2, conflicting: 1 }.to_string();
        assert!(msg.contains("probe 5"));
        let msg = AccountingError::Leak { outstanding: 3 }.to_string();
        assert!(msg.contains("3 probe(s)"));
    }
}
