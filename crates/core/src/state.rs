//! Per-instance tuple storage.
//!
//! Each join instance stores the tuples of one stream, bucketed by key, and
//! probes those buckets with tuples of the opposite stream. For
//! window-based joins (§III-E) the store also expires tuples whose event
//! time has fallen out of the window.
//!
//! Window correctness is enforced at *probe* time (`min_ts` filter), so
//! results never include out-of-window tuples; `expire` is garbage
//! collection and statistics maintenance. This split matters after a
//! migration: installed tuples can be older than the newest local ones, so
//! eager FIFO expiry alone could reclaim them late — but never emit them.
//!
//! # Layout
//!
//! Comparing a probe against a key's stored tuples is the work of a join
//! instance (the paper's `L_i = |R_i| · φ_si`), and the comparison reads
//! one field, `seq` — two inside a window. So a key's tuples are stored as
//! columns, not as `Tuple`s: one allocation per key holding a `seq`, a
//! `ts`, a `payload` and a `side` column of `cap` words each (`key` is the
//! map key; a `side` word holds the side bit and the fan-out above it). A
//! probe that only counts walks the `seq` column — 8 contiguous bytes per
//! stored tuple where an array of `Tuple`s costs 40 — plus the `ts` column
//! when `min_ts > 0`; `payload` and `side` are read only for a match that
//! is handed out as a `Tuple`. The scan stays linear in the bucket on
//! purpose: it is the cost the load model and the monitor balance.
//!
//! That count, [`Matches::count`], is one branch-free loop body compiled
//! twice. Baseline x86-64 (SSE2) has no 64-bit compare, so its copy
//! compares one slot at a time; a second copy compiled for AVX2 compares
//! four per instruction. `count` takes the AVX2 copy for a ring run of at
//! least `VECTOR_MIN` slots when the CPU reports the feature at run time
//! (`is_x86_feature_detected!`, one cached load), so the binary stays
//! portable and a short run — nearly every bucket of a uniform workload —
//! stays in the inlined portable loop. Both copies compare every slot, so
//! they count the same; other targets compile the portable copy only.
//!
//! The columns are rings sharing one `head`, because a bucket is a FIFO
//! (`insert` appends, `expire` pops the oldest) whose both ends move back
//! under [`TupleStore::rollback`]. A full ring doubles into a fresh
//! allocation laid out from slot 0; a [`Clone`] is that same copy at
//! exactly the live length. `docs/ARCHITECTURE.md`, "Store layout", has
//! the measurements behind each of these choices.
//!
//! # Undo journal
//!
//! A store can cheaply return to an earlier state: [`TupleStore::mark`]
//! starts an undo journal, every mutator appends the inverse of what it
//! did, and [`TupleStore::rollback`] re-applies the journal in reverse,
//! leaving the store exactly as it was at the mark. This is what makes a
//! join-instance checkpoint cost O(mutations since the last one) instead
//! of a deep copy of every stored tuple. A store that was never marked
//! journals nothing and pays one branch per mutation.

use std::collections::{HashMap, VecDeque};
use std::ops::Range;

use lintmarks::lint;

use crate::tuple::{Key, Seq, Side, Timestamp, Tuple};

/// Slots of a bucket's first allocation.
const FIRST_CAP: usize = 4;

/// Word columns of a bucket: `seq | ts | payload | side`.
const COLUMNS: usize = 4;

/// The stored tuples of one key, oldest first, as ring-buffer columns in
/// one allocation (module docs, "Layout").
#[derive(Debug, Default)]
struct Bucket {
    /// [`COLUMNS`] columns of `cap` words each, indexed by physical slot.
    buf: Box<[u64]>,
    /// Physical slot of the oldest tuple.
    head: usize,
    len: usize,
}

/// Splits a bucket's allocation into its columns.
fn columns(buf: &[u64]) -> [&[u64]; COLUMNS] {
    let cap = buf.len() / COLUMNS;
    let (seq, rest) = buf.split_at(cap);
    let (ts, rest) = rest.split_at(cap);
    let (payload, side) = rest.split_at(cap);
    [seq, ts, payload, side]
}

/// Iterator over a bucket's tuples, oldest first: the bucket's columns
/// and a cursor over its live slots.
#[derive(Debug, Clone, Default)]
struct Tuples<'a> {
    key: Key,
    seq: &'a [u64],
    ts: &'a [u64],
    payload: &'a [u64],
    side: &'a [u64],
    /// Physical slot of the next tuple.
    slot: usize,
    /// Tuples not yet visited.
    left: usize,
}

impl Tuples<'_> {
    /// The next tuple whose `(seq, ts)` passes `keep`. Only `seq` and `ts`
    /// are read of a tuple that does not.
    #[inline]
    fn next_where(&mut self, keep: impl Fn(Seq, Timestamp) -> bool) -> Option<Tuple> {
        while self.left > 0 {
            let slot = self.slot;
            self.slot = if slot + 1 < self.seq.len() { slot + 1 } else { 0 };
            self.left -= 1;
            let (seq, ts) = (*self.seq.get(slot)?, *self.ts.get(slot)?);
            if keep(seq, ts) {
                let word = *self.side.get(slot)?;
                return Some(Tuple {
                    side: if word & 1 == 0 { Side::R } else { Side::S },
                    fanout: (word >> 1) as u32,
                    key: self.key,
                    ts,
                    seq,
                    payload: *self.payload.get(slot)?,
                });
            }
        }
        None
    }

    /// The unvisited slots, oldest first: a ring's live slots are at most
    /// two contiguous runs, up to the end of the columns and then on from
    /// slot 0.
    fn runs(&self) -> [Range<usize>; 2] {
        let (cap, end) = (self.seq.len(), self.slot + self.left);
        [self.slot..end.min(cap), 0..end.saturating_sub(cap)]
    }
}

impl Iterator for Tuples<'_> {
    type Item = Tuple;

    fn next(&mut self) -> Option<Tuple> {
        self.next_where(|_, _| true)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Tuples<'_> {}

impl Bucket {
    fn cap(&self) -> usize {
        self.buf.len() / COLUMNS
    }

    fn tuples(&self, key: Key) -> Tuples<'_> {
        let [seq, ts, payload, side] = columns(&self.buf);
        Tuples { key, seq, ts, payload, side, slot: self.head, left: self.len }
    }

    /// A copy of the live tuples in an allocation of `cap >= len` slots,
    /// laid out from slot 0.
    fn copy_into(&self, cap: usize) -> Bucket {
        let mut buf = vec![0; COLUMNS * cap];
        let runs = self.tuples(0).runs();
        for (column, src) in columns(&self.buf).into_iter().enumerate() {
            let mut at = column * cap;
            // An empty run is skipped, not copied: a bucket's first
            // allocation and every unwrapped ring have one.
            for run in runs.iter().filter(|run| !run.is_empty()) {
                if let (Some(src), Some(dst)) =
                    (src.get(run.clone()), buf.get_mut(at..at + run.len()))
                {
                    dst.copy_from_slice(src);
                }
                at += run.len();
            }
        }
        Bucket { buf: buf.into(), head: 0, len: self.len }
    }

    /// Writes `t` into physical slot `slot` of every column.
    fn write(&mut self, slot: usize, t: &Tuple) {
        let cap = self.cap();
        // The side index in bit 0 of its word, the fan-out above it.
        let side = t.side.index() as u64 | u64::from(t.fanout) << 1;
        let words = [t.seq, t.ts, t.payload, side];
        for (column, word) in words.into_iter().enumerate() {
            if let Some(w) = self.buf.get_mut(column * cap + slot) {
                *w = word;
            }
        }
    }

    /// Makes room for one more tuple: a full ring moves to an allocation
    /// twice the size.
    fn reserve_one(&mut self) {
        if self.len == self.cap() {
            *self = self.copy_into((2 * self.len).max(FIRST_CAP));
        }
    }

    fn push_back(&mut self, t: &Tuple) {
        self.reserve_one();
        let (cap, end) = (self.cap(), self.head + self.len);
        self.write(if end < cap { end } else { end - cap }, t);
        self.len += 1;
    }

    /// Puts `t` back in front of the oldest tuple — what undoing an expiry
    /// needs. The ring has room there whatever happened to the bucket
    /// since: the slot before `head`, wrapping to the last one.
    fn push_front(&mut self, t: &Tuple) {
        self.reserve_one();
        self.head = self.head.checked_sub(1).unwrap_or(self.cap() - 1);
        self.write(self.head, t);
        self.len += 1;
    }

    fn pop_back(&mut self) {
        self.len = self.len.saturating_sub(1);
    }

    fn pop_front(&mut self, key: Key) -> Option<Tuple> {
        let mut scan = self.tuples(key);
        let t = scan.next()?;
        (self.head, self.len) = (scan.slot, scan.left);
        Some(t)
    }

    /// Event time of the oldest tuple.
    fn front_ts(&self) -> Option<Timestamp> {
        self.tuples(0).next().map(|t| t.ts)
    }
}

/// A clone is compact: exactly the live tuples, no growth slack.
impl Clone for Bucket {
    fn clone(&self) -> Self {
        self.copy_into(self.len)
    }
}

/// The stored tuples one probe matches, oldest first — what
/// [`TupleStore::probe`] returns. Iterating hands each match out as a
/// [`Tuple`]; [`count`](Iterator::count) only counts them, from the `seq`
/// column alone when `min_ts == 0` (module docs, "Layout").
#[derive(Debug, Clone)]
pub struct Matches<'a> {
    scan: Tuples<'a>,
    before: Seq,
    min_ts: Timestamp,
    bucket_len: u64,
}

impl Matches<'_> {
    /// Stored tuples the probe is compared against (`|R_ik|`, the whole
    /// bucket) — the hash-probe cost, whatever part of the iterator has
    /// been consumed.
    #[must_use]
    pub fn bucket_len(&self) -> u64 {
        self.bucket_len
    }
}

impl Iterator for Matches<'_> {
    type Item = Tuple;

    #[lint(hot_path)]
    #[inline]
    fn next(&mut self) -> Option<Tuple> {
        let (before, min_ts) = (self.before, self.min_ts);
        self.scan.next_where(|seq, ts| seq < before && ts >= min_ts)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (0, Some(self.scan.left))
    }

    /// The probe kernel: same comparisons as `next`, over the columns they
    /// read and nothing else (module docs, "Layout").
    #[lint(hot_path)]
    fn count(self) -> usize {
        let (before, min_ts) = (self.before, self.min_ts);
        let in_run = |slots: Range<usize>| {
            let seq = self.scan.seq.get(slots.clone()).unwrap_or_default();
            let ts = (min_ts > 0).then(|| self.scan.ts.get(slots).unwrap_or_default());
            #[cfg(target_arch = "x86_64")]
            if seq.len() >= VECTOR_MIN && std::is_x86_feature_detected!("avx2") {
                // SAFETY: the CPU has AVX2, detected on the line above.
                return unsafe { count_run_avx2(seq, ts, before, min_ts) };
            }
            count_run(seq, ts, before, min_ts)
        };
        self.scan.runs().into_iter().map(in_run).sum()
    }
}

/// Shortest ring run [`Matches::count`] hands to the AVX2 copy of the
/// kernel; shorter runs stay in the inlined portable loop, where a call
/// and the vector loop's set-up would cost more than they save.
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
const VECTOR_MIN: usize = 16;

/// The slots of one ring run a probe matches: `seq < before`, and
/// `ts >= min_ts` when the window's `ts` column is given. Every slot is
/// compared, without branches, so the loop vectorises wherever the target
/// has an unsigned 64-bit compare.
#[inline(always)]
fn count_run(seq: &[u64], ts: Option<&[u64]>, before: Seq, min_ts: Timestamp) -> usize {
    match ts {
        None => seq.iter().filter(|&&seq| seq < before).count(),
        Some(ts) => {
            let pairs = seq.iter().zip(ts);
            pairs.filter(|&(&seq, &ts)| (seq < before) & (ts >= min_ts)).count()
        }
    }
}

/// [`count_run`] compiled for AVX2: 4-lane compare-and-subtract code for
/// the same comparisons, which baseline x86-64 (SSE2, no 64-bit compare)
/// cannot emit.
///
/// # Safety
///
/// Calling it from code not compiled for AVX2 is `unsafe`: the CPU must
/// have AVX2, which `count` checks with `is_x86_feature_detected!` first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn count_run_avx2(seq: &[u64], ts: Option<&[u64]>, before: Seq, min_ts: Timestamp) -> usize {
    count_run(seq, ts, before, min_ts)
}

/// The inverse of one store mutation, as recorded by the undo journal.
#[derive(Debug, Clone)]
enum Undo {
    /// `insert` appended a tuple of this key: pop the bucket's and the
    /// FIFO's back.
    Insert(Key),
    /// `expire` popped this trigger off the FIFO's front and, unless the
    /// trigger was stale, this tuple off its bucket's front: push both
    /// back.
    Expire { trigger: Timestamp, key: Key, popped: Option<Tuple> },
    /// `extract_keys` removed this whole bucket: put it back. (The FIFO is
    /// untouched by extraction — its stale triggers stay where they were.)
    Extract { key: Key, bucket: Bucket },
}

/// Key-bucketed storage for one stream on one join instance.
#[derive(Debug, Default)]
pub struct TupleStore {
    buckets: HashMap<Key, Bucket>,
    /// Expiry triggers in monotone order: `(trigger_ts, key)`. The trigger
    /// is `max(event ts, previous trigger)` so the queue stays sorted even
    /// when migration installs old tuples; removal re-checks the real
    /// bucket-head timestamp.
    fifo: VecDeque<(Timestamp, Key)>,
    total: u64,
    /// Undo entries since the last [`TupleStore::mark`], oldest first;
    /// `None` until the first mark. Every mutator finishes its change to
    /// the fields above and then pushes its entry, with nothing that can
    /// panic in between, so a caller whose step is torn by a panic still
    /// rolls back to exactly the mark.
    journal: Option<Vec<Undo>>,
}

/// A clone is a plain, unmarked copy of the stored tuples: the journal
/// describes how to get *this* store back to its mark and means nothing
/// to a copy.
impl Clone for TupleStore {
    fn clone(&self) -> Self {
        TupleStore {
            buckets: self.buckets.clone(),
            fifo: self.fifo.clone(),
            total: self.total,
            journal: None,
        }
    }
}

impl TupleStore {
    /// Creates an empty store.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Makes `self`, a clone of `original`, keep `original`'s mark and the
    /// journal since it, so it rolls back exactly as `original` would —
    /// what forking a whole checkpointed stage needs, where [`Clone`]
    /// alone forks the tuples.
    pub(crate) fn keep_mark_of(&mut self, original: &TupleStore) {
        self.journal.clone_from(&original.journal);
    }

    /// Total stored tuples, `|R_i|`.
    #[inline]
    #[must_use]
    pub fn len(&self) -> u64 {
        self.total
    }

    /// True when nothing is stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Stored tuples with key `k`, `|R_ik|`.
    #[inline]
    #[must_use]
    pub fn key_count(&self, key: Key) -> u64 {
        self.buckets.get(&key).map_or(0, |b| b.len as u64)
    }

    /// Number of distinct keys currently stored.
    #[must_use]
    pub fn key_cardinality(&self) -> usize {
        self.buckets.len()
    }

    /// Iterates over `(key, |R_ik|)` pairs.
    pub fn key_counts(&self) -> impl Iterator<Item = (Key, u64)> + '_ {
        self.buckets.iter().map(|(k, b)| (*k, b.len as u64))
    }

    /// Starts the undo journal at the store's current state, discarding
    /// any earlier mark: from here on every mutation is journaled until
    /// the next `mark`, and [`TupleStore::rollback`] returns to this state.
    pub fn mark(&mut self) {
        match &mut self.journal {
            Some(journal) => journal.clear(),
            None => self.journal = Some(Vec::new()),
        }
    }

    /// Undoes every mutation since the last [`TupleStore::mark`], newest
    /// first, leaving the store exactly as it was at the mark (and still
    /// marked there). A no-op on a store that was never marked.
    pub fn rollback(&mut self) {
        let Some(journal) = &mut self.journal else { return };
        while let Some(undo) = journal.pop() {
            match undo {
                Undo::Insert(key) => {
                    if let Some(bucket) = self.buckets.get_mut(&key) {
                        bucket.pop_back();
                        if bucket.len == 0 {
                            self.buckets.remove(&key);
                        }
                    }
                    self.fifo.pop_back();
                    self.total -= 1;
                }
                Undo::Expire { trigger, key, popped } => {
                    self.fifo.push_front((trigger, key));
                    if let Some(t) = popped {
                        self.buckets.entry(key).or_default().push_front(&t);
                        self.total += 1;
                    }
                }
                Undo::Extract { key, bucket } => {
                    self.total += bucket.len as u64;
                    self.buckets.insert(key, bucket);
                }
            }
        }
    }

    /// Undo entries recorded since the last mark (0 when never marked).
    #[doc(hidden)]
    #[must_use]
    pub fn journal_len(&self) -> usize {
        self.journal.as_ref().map_or(0, Vec::len)
    }

    /// Inserts a tuple.
    pub fn insert(&mut self, t: Tuple) {
        self.buckets.entry(t.key).or_default().push_back(&t);
        let trigger = self.fifo.back().map_or(t.ts, |&(back, _)| back.max(t.ts));
        self.fifo.push_back((trigger, t.key));
        self.total += 1;
        if let Some(journal) = &mut self.journal {
            journal.push(Undo::Insert(t.key));
        }
    }

    /// Probes the store: returns stored tuples with the probe's key whose
    /// sequence number is strictly smaller (the exactly-once rule — the
    /// opposite seq direction of the pair joins in the other group) and
    /// whose event time is within the window (`ts >= min_ts`). Pass
    /// `min_ts = 0` for full-history joins.
    pub fn probe(&self, probe: &Tuple, min_ts: Timestamp) -> Matches<'_> {
        let bucket = self.buckets.get(&probe.key);
        Matches {
            scan: bucket.map(|b| b.tuples(probe.key)).unwrap_or_default(),
            before: probe.seq,
            min_ts,
            bucket_len: bucket.map_or(0, |b| b.len as u64),
        }
    }

    /// Removes and returns all tuples whose key is in `keys`, preserving
    /// per-key insertion order — the physical payload of a migration.
    /// Stale FIFO triggers are left behind and skipped by [`expire`].
    ///
    /// [`expire`]: TupleStore::expire
    pub fn extract_keys(&mut self, keys: &[Key]) -> Vec<Tuple> {
        let mut out = Vec::new();
        for k in keys {
            if let Some(bucket) = self.buckets.remove(k) {
                self.total -= bucket.len as u64;
                // `Tuples` is exact-size, so this reserves the bucket's length.
                out.extend(bucket.tuples(*k));
                if let Some(journal) = &mut self.journal {
                    journal.push(Undo::Extract { key: *k, bucket });
                }
            }
        }
        out
    }

    /// Installs migrated tuples (already in per-key order). Tuples already
    /// outside the window (`ts < min_ts`) are dropped on arrival; pass
    /// `min_ts = 0` for full-history joins. Returns how many were kept.
    pub fn install(&mut self, tuples: Vec<Tuple>, min_ts: Timestamp) -> u64 {
        let mut kept = 0;
        for t in tuples {
            if t.ts >= min_ts {
                self.insert(t);
                kept += 1;
            }
        }
        kept
    }

    /// Garbage-collects tuples with event time `< horizon`; returns how
    /// many were removed. Trigger entries whose bucket head is not actually
    /// expired (stale after `extract_keys`) are skipped.
    pub fn expire(&mut self, horizon: Timestamp) -> u64 {
        let mut removed = 0;
        while let Some(&(trigger, key)) = self.fifo.front() {
            if trigger >= horizon {
                break;
            }
            self.fifo.pop_front();
            let mut popped = None;
            if let Some(bucket) = self.buckets.get_mut(&key) {
                if bucket.front_ts().is_some_and(|ts| ts < horizon) {
                    popped = bucket.pop_front(key);
                    self.total -= 1;
                    removed += 1;
                    if bucket.len == 0 {
                        self.buckets.remove(&key);
                    }
                }
            }
            if let Some(journal) = &mut self.journal {
                journal.push(Undo::Expire { trigger, key, popped });
            }
        }
        removed
    }

    /// The largest stored sequence number for `key`, if any (diagnostics).
    #[must_use]
    pub fn max_seq(&self, key: Key) -> Option<Seq> {
        self.buckets.get(&key).and_then(|b| b.tuples(key).map(|t| t.seq).max())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::Side;

    fn t(key: Key, ts: Timestamp, seq: Seq) -> Tuple {
        let mut t = Tuple::new(Side::R, key, ts, 0);
        t.seq = seq;
        t
    }

    fn probe_all(s: &TupleStore, key: Key, min_ts: Timestamp) -> Vec<Tuple> {
        let mut p = Tuple::new(Side::S, key, u64::MAX, 0);
        p.seq = u64::MAX;
        s.probe(&p, min_ts).collect()
    }

    #[test]
    fn insert_and_count() {
        let mut s = TupleStore::new();
        assert!(s.is_empty());
        s.insert(t(1, 10, 1));
        s.insert(t(1, 11, 2));
        s.insert(t(2, 12, 3));
        assert_eq!(s.len(), 3);
        assert_eq!(s.key_count(1), 2);
        assert_eq!(s.key_count(2), 1);
        assert_eq!(s.key_count(9), 0);
        assert_eq!(s.key_cardinality(), 2);
    }

    #[test]
    fn probe_respects_seq_order() {
        let mut s = TupleStore::new();
        s.insert(t(1, 10, 5));
        s.insert(t(1, 11, 7));
        let mut probe = Tuple::new(Side::S, 1, 12, 0);
        probe.seq = 6;
        let matches: Vec<_> = s.probe(&probe, 0).collect();
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].seq, 5);
    }

    #[test]
    fn probe_enforces_window_even_before_gc() {
        let mut s = TupleStore::new();
        s.insert(t(1, 10, 1));
        s.insert(t(1, 200, 2));
        // No expire() call yet; probe must still exclude the old tuple.
        let matches = probe_all(&s, 1, 100);
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].ts, 200);
    }

    #[test]
    fn probe_missing_key_is_empty() {
        let s = TupleStore::new();
        let probe = Tuple::new(Side::S, 42, 0, 0);
        assert_eq!(s.probe(&probe, 0).count(), 0);
    }

    #[test]
    fn extract_removes_exactly_the_keys() {
        let mut s = TupleStore::new();
        for i in 0..10 {
            s.insert(t(i % 3, i, i));
        }
        let out = s.extract_keys(&[0, 2]);
        assert_eq!(out.len() as u64 + s.len(), 10);
        assert_eq!(s.key_count(0), 0);
        assert_eq!(s.key_count(2), 0);
        assert!(s.key_count(1) > 0);
        assert!(out.iter().all(|t| t.key == 0 || t.key == 2));
        // Per-key order preserved.
        let seqs0: Vec<_> = out.iter().filter(|t| t.key == 0).map(|t| t.seq).collect();
        assert!(seqs0.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn extract_then_install_round_trips() {
        let mut a = TupleStore::new();
        for i in 0..20 {
            a.insert(t(i % 5, i, i));
        }
        let total = a.len();
        let moved = a.extract_keys(&[1, 3]);
        let mut b = TupleStore::new();
        assert_eq!(b.install(moved, 0), 8);
        assert_eq!(a.len() + b.len(), total);
        assert_eq!(b.key_count(1), 4);
        assert_eq!(b.key_count(3), 4);
    }

    #[test]
    fn install_drops_out_of_window_tuples() {
        let mut b = TupleStore::new();
        let kept = b.install(vec![t(1, 10, 1), t(1, 100, 2)], 50);
        assert_eq!(kept, 1);
        assert_eq!(b.len(), 1);
        assert_eq!(probe_all(&b, 1, 50).len(), 1);
    }

    #[test]
    fn expire_removes_old_tuples() {
        let mut s = TupleStore::new();
        for ts in 0..10 {
            s.insert(t(ts % 2, ts, ts));
        }
        let removed = s.expire(5);
        assert_eq!(removed, 5);
        assert_eq!(s.len(), 5);
        for key in 0..2 {
            assert!(probe_all(&s, key, 0).iter().all(|t| t.ts >= 5));
        }
    }

    #[test]
    fn expire_is_idempotent() {
        let mut s = TupleStore::new();
        for ts in 0..10 {
            s.insert(t(0, ts, ts));
        }
        assert_eq!(s.expire(5), 5);
        assert_eq!(s.expire(5), 0);
    }

    #[test]
    fn expire_skips_stale_fifo_entries_after_extraction() {
        let mut s = TupleStore::new();
        for ts in 0..10 {
            s.insert(t(ts % 2, ts, ts));
        }
        let _ = s.extract_keys(&[0]); // leaves stale triggers for key 0
        let removed = s.expire(100);
        // Only key-1 tuples remain to expire.
        assert_eq!(removed, 5);
        assert!(s.is_empty());
    }

    #[test]
    fn old_installs_are_eventually_collected() {
        let mut s = TupleStore::new();
        s.insert(t(1, 100, 1));
        // Migration installs a tuple older than the local newest.
        assert_eq!(s.install(vec![t(2, 10, 2)], 0), 1);
        // The old tuple's trigger is clamped to 100, so horizon 50 cannot
        // collect it yet — but horizon 101 must collect it and the local.
        assert_eq!(s.expire(50), 0);
        assert_eq!(s.expire(101), 2);
        assert!(s.is_empty());
    }

    #[test]
    fn expired_bucket_is_dropped_from_cardinality() {
        let mut s = TupleStore::new();
        s.insert(t(1, 0, 0));
        s.insert(t(2, 100, 1));
        s.expire(50);
        assert_eq!(s.key_cardinality(), 1);
    }

    #[test]
    fn max_seq_tracks_per_key() {
        let mut s = TupleStore::new();
        s.insert(t(1, 0, 3));
        s.insert(t(1, 1, 9));
        assert_eq!(s.max_seq(1), Some(9));
        assert_eq!(s.max_seq(2), None);
    }

    /// A store holding one bucket (key 1) of `len` tuples, and the
    /// `(seq, ts)` pairs it holds, oldest first. Sequence numbers are
    /// scrambled over all of `u64` and event times straddle 2^63, so both
    /// compares see operands on either side of the sign bit. With `wrap`,
    /// the bucket is filled to its capacity, expired from the front and
    /// inserted into past the end, so its live slots are two ring runs.
    fn kernel_bucket(len: usize, wrap: bool) -> (TupleStore, Vec<(Seq, Timestamp)>) {
        let (mut store, mut model) = (TupleStore::new(), Vec::new());
        let ts0 = (1 << 63) - 40;
        let mut insert = |store: &mut TupleStore, i: u64| {
            let seq = (i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            store.insert(t(1, ts0 + i, seq));
            model.push((seq, ts0 + i));
        };
        let (fill, refill) = if wrap && len >= 2 {
            let cap = len.next_power_of_two().max(FIRST_CAP);
            (cap, len / 2)
        } else {
            (len, 0)
        };
        for i in 0..fill {
            insert(&mut store, i as u64);
        }
        let expired = (fill + refill - len) as u64;
        assert_eq!(store.expire(ts0 + expired), expired);
        for i in fill..fill + refill {
            insert(&mut store, i as u64);
        }
        model.drain(..expired as usize);
        let runs = store.buckets.get(&1).map(|b| b.tuples(1).runs());
        assert_eq!(runs.is_some_and(|[_, second]| !second.is_empty()), refill > 0);
        (store, model)
    }

    #[test]
    fn count_kernel_is_exact_on_every_run_length_and_every_u64() {
        let mut avx2_checked = false;
        for len in 0..=3 * VECTOR_MIN {
            for wrap in [false, true] {
                let (store, model) = kernel_bucket(len, wrap);
                let (mid, mid_ts) = model.get(len / 2).copied().unwrap_or_default();
                let max = model.iter().map(|p| p.0).max().unwrap_or(0);
                let befores = [0, 1, mid, max, max.wrapping_add(1), 1 << 63, u64::MAX];
                let min_tss = [0, 1, mid_ts, 1 << 63, u64::MAX];
                for (before, min_ts) in befores.into_iter().flat_map(|b| min_tss.map(|m| (b, m))) {
                    let expected =
                        model.iter().filter(|&&(seq, ts)| seq < before && ts >= min_ts).count();
                    let probe = t(1, 0, before);
                    let case = format!("len {len}, wrap {wrap}, before {before}, min_ts {min_ts}");
                    assert_eq!(store.probe(&probe, min_ts).count(), expected, "{case}");
                    assert_eq!(store.probe(&probe, min_ts).collect::<Vec<_>>().len(), expected);

                    // The run counters, called directly on the ring runs.
                    let Some(bucket) = store.buckets.get(&1) else { continue };
                    let [seq, ts, ..] = columns(&bucket.buf);
                    let mut summed = 0;
                    for run in bucket.tuples(1).runs() {
                        let (seq, ts) = (&seq[run.clone()], &ts[run]);
                        let ts = (min_ts > 0).then_some(ts);
                        let portable = count_run(seq, ts, before, min_ts);
                        summed += portable;
                        #[cfg(target_arch = "x86_64")]
                        if std::is_x86_feature_detected!("avx2") {
                            // SAFETY: the CPU has AVX2, detected on the line above.
                            let avx2 = unsafe { count_run_avx2(seq, ts, before, min_ts) };
                            assert_eq!(avx2, portable, "{case}");
                            avx2_checked = true;
                        }
                    }
                    assert_eq!(summed, expected, "{case}");
                }
            }
        }
        if !avx2_checked {
            eprintln!("skipped: this CPU has no AVX2, only the portable kernel was checked");
        }
    }
}
