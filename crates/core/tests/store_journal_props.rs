//! Model-based tests for `TupleStore`: its layout and its undo journal.
//!
//! The reference is [`Model`], the store written the obvious way — a
//! `Vec<Tuple>` per key and the trigger queue — sharing no code with the
//! columnar buckets. After any sequence of mutations the store must hold
//! what the model holds, answer every probe as the model does and return
//! what the model returns; and `rollback()` must leave a store that cannot
//! be told apart from the model as it was at the `mark()` — nor from the
//! store's own `clone()` taken there, the O(store) checkpoint the journal
//! replaced — not now, and not under any further sequence of operations.
//!
//! Also compiled into the tier-1 `tests/properties.rs` (by `#[path]`), so
//! plain `cargo test` runs the same seeded cases.

use std::collections::{BTreeMap, VecDeque};

use fastjoin_core::state::TupleStore;
use fastjoin_core::tuple::{Key, Seq, Side, Timestamp, Tuple};
use proptest::prelude::*;

/// Keys are drawn from `0..KEYS`: few enough that buckets grow, empty out
/// and come back within one case.
const KEYS: u64 = 12;
/// The key of half the draws, like a Zipf head: its bucket grows past the
/// run length at which `count()` switches to the vectorised kernel.
const HEAD: Key = 0;
/// Window span of the windowed mode, in the ops' own time unit.
const SPAN: Timestamp = 40;

/// What the tests need of a store, so one driver runs both.
trait Store {
    fn insert(&mut self, t: Tuple);
    fn expire(&mut self, horizon: Timestamp) -> u64;
    fn extract_keys(&mut self, keys: &[Key]) -> Vec<Tuple>;
    fn install(&mut self, tuples: Vec<Tuple>, min_ts: Timestamp) -> u64;
    fn len(&self) -> u64;
    /// `(key, |R_ik|)`, sorted.
    fn key_counts(&self) -> Vec<(Key, u64)>;
    /// What `probe` matches, oldest first.
    fn matches(&self, probe: &Tuple, min_ts: Timestamp) -> Vec<Tuple>;
}

/// The reference implementation.
#[derive(Debug, Clone, Default)]
struct Model {
    buckets: BTreeMap<Key, Vec<Tuple>>,
    /// `(trigger, key)` per insert, trigger = running max of event times.
    fifo: VecDeque<(Timestamp, Key)>,
}

impl Store for Model {
    fn insert(&mut self, t: Tuple) {
        self.buckets.entry(t.key).or_default().push(t);
        let trigger = self.fifo.back().map_or(t.ts, |&(back, _)| back.max(t.ts));
        self.fifo.push_back((trigger, t.key));
    }

    fn expire(&mut self, horizon: Timestamp) -> u64 {
        let mut removed = 0;
        while let Some(&(trigger, key)) = self.fifo.front() {
            if trigger >= horizon {
                break;
            }
            self.fifo.pop_front();
            // A trigger whose key was extracted since, or whose bucket now
            // starts with a younger tuple, removes nothing.
            let Some(bucket) = self.buckets.get_mut(&key) else { continue };
            if bucket[0].ts < horizon {
                bucket.remove(0);
                removed += 1;
                if bucket.is_empty() {
                    self.buckets.remove(&key);
                }
            }
        }
        removed
    }

    fn extract_keys(&mut self, keys: &[Key]) -> Vec<Tuple> {
        keys.iter().filter_map(|k| self.buckets.remove(k)).flatten().collect()
    }

    fn install(&mut self, tuples: Vec<Tuple>, min_ts: Timestamp) -> u64 {
        let kept: Vec<_> = tuples.into_iter().filter(|t| t.ts >= min_ts).collect();
        kept.iter().for_each(|t| self.insert(*t));
        kept.len() as u64
    }

    fn len(&self) -> u64 {
        self.buckets.values().map(|b| b.len() as u64).sum()
    }

    fn key_counts(&self) -> Vec<(Key, u64)> {
        self.buckets.iter().map(|(k, b)| (*k, b.len() as u64)).collect()
    }

    fn matches(&self, probe: &Tuple, min_ts: Timestamp) -> Vec<Tuple> {
        let bucket = self.buckets.get(&probe.key).map_or(&[][..], Vec::as_slice);
        bucket.iter().filter(|t| t.seq < probe.seq && t.ts >= min_ts).copied().collect()
    }
}

impl Store for TupleStore {
    fn insert(&mut self, t: Tuple) {
        TupleStore::insert(self, t);
    }

    fn expire(&mut self, horizon: Timestamp) -> u64 {
        TupleStore::expire(self, horizon)
    }

    fn extract_keys(&mut self, keys: &[Key]) -> Vec<Tuple> {
        TupleStore::extract_keys(self, keys)
    }

    fn install(&mut self, tuples: Vec<Tuple>, min_ts: Timestamp) -> u64 {
        TupleStore::install(self, tuples, min_ts)
    }

    fn len(&self) -> u64 {
        assert_eq!(self.is_empty(), TupleStore::len(self) == 0);
        TupleStore::len(self)
    }

    fn key_counts(&self) -> Vec<(Key, u64)> {
        let mut counts: Vec<_> = TupleStore::key_counts(self).collect();
        counts.sort_unstable();
        assert_eq!(counts.len(), self.key_cardinality());
        for &(key, count) in &counts {
            assert_eq!(self.key_count(key), count);
        }
        counts
    }

    /// The matches as the iterator hands them out — having checked that
    /// counting them (the column kernel) agrees, from the start and from
    /// after the first match, and that the bucket length is the key count
    /// at any point of the iteration.
    fn matches(&self, probe: &Tuple, min_ts: Timestamp) -> Vec<Tuple> {
        let found: Vec<Tuple> = self.probe(probe, min_ts).collect();
        assert_eq!(self.probe(probe, min_ts).count(), found.len());
        let mut rest = self.probe(probe, min_ts);
        assert_eq!(rest.bucket_len(), self.key_count(probe.key));
        assert_eq!(rest.next(), found.first().copied());
        assert_eq!(rest.bucket_len(), self.key_count(probe.key));
        assert_eq!(rest.count(), found.len().saturating_sub(1));
        found
    }
}

/// One generated step: `(kind, key, dt, keys)`, decoded by [`Driver::apply`].
type Op = (u8, Key, Timestamp, Vec<Key>);

/// A key: [`HEAD`] half the time, else uniform over `0..KEYS`.
fn key() -> impl Strategy<Value = Key> {
    (0..2 * KEYS).prop_map(|k| if k < KEYS { k } else { HEAD })
}

/// Steps whose inserts are skewed to [`HEAD`]; an extraction draws its
/// keys uniformly, so the head bucket is moved now and then, long.
fn ops(max_len: usize) -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        (0u8..10, key(), 0u64..8, prop::collection::vec(0..KEYS, 1..4)),
        0..max_len,
    )
}

/// The caller side of a store: a clock, a sequence counter and the tuples
/// of the last extraction, waiting to be installed somewhere — what a join
/// instance and the migration protocol hold around a `TupleStore`.
#[derive(Debug, Clone, Default)]
struct Driver {
    windowed: bool,
    clock: Timestamp,
    seq: u64,
    parked: Vec<Tuple>,
}

impl Driver {
    fn min_ts(&self) -> Timestamp {
        if self.windowed {
            self.clock.saturating_sub(SPAN)
        } else {
            0
        }
    }

    /// Applies `ops` to `store`; returns what every call returned (a count,
    /// or the extracted tuples), so two stores can be compared by
    /// behaviour as well as by content.
    fn apply(&mut self, store: &mut impl Store, ops: &[Op]) -> Vec<(u64, Vec<Tuple>)> {
        let mut returned = Vec::new();
        for (kind, key, dt, keys) in ops {
            self.clock += dt;
            match kind {
                // `expire`, at the window's horizon (windowed mode only).
                7 if self.windowed => {
                    returned.push((store.expire(self.min_ts()), Vec::new()));
                }
                // `extract_keys`; the payload waits for the next install.
                8 => {
                    let out = store.extract_keys(keys);
                    self.parked.extend(&out);
                    returned.push((0, out));
                }
                // `install` of whatever was extracted earlier — tuples
                // older than the store's newest, some outside the window.
                9 => {
                    let kept = store.install(std::mem::take(&mut self.parked), self.min_ts());
                    returned.push((kept, Vec::new()));
                }
                // `insert`, of either side: a store does not care which.
                _ => {
                    self.seq += 1;
                    let side = if dt % 2 == 0 { Side::R } else { Side::S };
                    store.insert(tuple(side, *key, self.clock, self.seq));
                }
            }
        }
        returned
    }
}

/// Everything a caller can see of a store: `len`, the sorted key counts,
/// and what a probe with sequence number `before` matches under `min_ts`,
/// for every key. `(Seq::MAX, 0)` is the store's whole content, in order.
fn observe(
    store: &impl Store,
    before: Seq,
    min_ts: Timestamp,
) -> (u64, Vec<(Key, u64)>, Vec<Vec<Tuple>>) {
    // One key past the range: a key that is never stored.
    let probes =
        (0..=KEYS).map(|key| store.matches(&tuple(Side::S, key, 0, before), min_ts)).collect();
    (store.len(), store.key_counts(), probes)
}

/// `prop_assert`s that `store` and `model` look the same: whole content,
/// and the probes a join instance would issue now (about half the stored
/// tuples are older than the probe; the window is the driver's).
macro_rules! prop_assert_same {
    ($store:expr, $model:expr, $driver:expr) => {
        prop_assert_eq!(observe(&$store, Seq::MAX, 0), observe(&$model, Seq::MAX, 0));
        let (before, min_ts) = ($driver.seq / 2, $driver.min_ts());
        prop_assert_eq!(observe(&$store, before, min_ts), observe(&$model, before, min_ts));
    };
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn rollback_is_indistinguishable_from_a_clone_taken_at_the_mark(
        windowed in prop::bool::ANY,
        before_mark in ops(80),
        after_mark in ops(120),
        suffix in ops(120),
    ) {
        let mut driver = Driver { windowed, ..Driver::default() };
        let (mut store, mut model) = (TupleStore::new(), Model::default());
        prop_assert_eq!(
            driver.clone().apply(&mut store, &before_mark),
            driver.apply(&mut model, &before_mark)
        );
        prop_assert_eq!(store.journal_len(), 0, "an unmarked store must not journal");
        prop_assert_same!(store, model, driver);

        store.mark();
        let (copy_at_mark, model_at_mark, driver_at_mark) =
            (store.clone(), model.clone(), driver.clone());
        prop_assert_eq!(
            driver.clone().apply(&mut store, &after_mark),
            driver.apply(&mut model, &after_mark)
        );
        prop_assert_same!(store, model, driver);
        store.rollback();
        prop_assert_eq!(store.journal_len(), 0);
        prop_assert_same!(store, model_at_mark, driver_at_mark);
        prop_assert_same!(copy_at_mark, model_at_mark, driver_at_mark);

        // Same behaviour from here on, for the rolled-back store and for
        // the copy. The closing `expire(MAX)` walks the whole trigger FIFO,
        // stale triggers of undone extractions included.
        let (mut copy, mut model, mut driver) =
            (copy_at_mark, model_at_mark.clone(), driver_at_mark.clone());
        let returned = driver.clone().apply(&mut model, &suffix);
        prop_assert_eq!(driver.clone().apply(&mut store, &suffix), returned.clone());
        prop_assert_eq!(driver.apply(&mut copy, &suffix), returned);
        prop_assert_same!(store, model, driver);
        prop_assert_same!(copy, model, driver);

        // A rollback leaves the store marked where it was: the suffix can
        // be undone again — this is what a second crash before the next
        // checkpoint relies on.
        store.rollback();
        prop_assert_same!(store, model_at_mark, driver_at_mark);
        let mut model = model_at_mark;
        prop_assert_eq!(store.expire(u64::MAX), model.expire(u64::MAX));
        prop_assert!(store.is_empty() && model.buckets.is_empty());
        prop_assert_eq!(store.key_cardinality(), 0);
    }
}

fn tuple(side: Side, key: Key, ts: Timestamp, seq: u64) -> Tuple {
    let mut t = Tuple::new(side, key, ts, seq.wrapping_mul(31));
    t.seq = seq;
    t
}

/// Inserts `R` tuples of `key` with `seq = ts` in `seqs` into both.
fn fill(store: &mut TupleStore, model: &mut Model, key: Key, seqs: std::ops::Range<u64>) {
    for i in seqs {
        store.insert(tuple(Side::R, key, i, i));
        model.insert(tuple(Side::R, key, i, i));
    }
}

/// Whole content, and a probe in the middle of it inside a window.
fn assert_same(store: &TupleStore, model: &Model) {
    assert_eq!(observe(store, Seq::MAX, 0), observe(model, Seq::MAX, 0));
    assert_eq!(observe(store, 9, 3), observe(model, 9, 3));
}

#[test]
fn rollback_without_a_mark_is_a_no_op() {
    let mut store = TupleStore::new();
    store.insert(tuple(Side::R, 1, 10, 1));
    store.insert(tuple(Side::R, 2, 11, 2));
    let before = observe(&store, Seq::MAX, 0);
    store.rollback();
    assert_eq!(observe(&store, Seq::MAX, 0), before);
    assert_eq!(store.journal_len(), 0);
}

#[test]
fn a_second_mark_replaces_the_first() {
    let mut store = TupleStore::new();
    store.mark();
    store.insert(tuple(Side::R, 1, 10, 1));
    store.mark();
    assert_eq!(store.journal_len(), 0, "mark truncates the journal");
    store.insert(tuple(Side::R, 1, 11, 2));
    store.rollback();
    assert_eq!(store.len(), 1, "only the insert after the later mark is undone");
    assert_eq!(store.max_seq(1), Some(1));
}

#[test]
fn only_a_marked_store_journals_and_a_clone_starts_unmarked() {
    let mut store = TupleStore::new();
    for i in 0..50 {
        store.insert(tuple(Side::R, i % 5, i, i));
    }
    assert_eq!(store.expire(10), 10);
    assert_eq!(store.extract_keys(&[0]).len(), 8);
    assert_eq!(store.journal_len(), 0);

    store.mark();
    store.insert(tuple(Side::R, 1, 60, 60));
    assert_eq!(store.journal_len(), 1);
    let mut copy = store.clone();
    assert_eq!(copy.journal_len(), 0);
    copy.insert(tuple(Side::R, 1, 61, 61));
    assert_eq!(copy.journal_len(), 0, "the copy is unmarked");
    copy.rollback();
    assert_eq!(copy.len(), store.len() + 1, "and has nothing to roll back to");
}

/// Undoing an expiry puts the tuple back in front of a bucket that has no
/// free slot before its head any more: it grew into a fresh allocation
/// since (laid out from slot 0), or it is a compact copy filled to the
/// brim again.
#[test]
fn an_expiry_is_undone_after_the_bucket_grew_or_was_copied_compact() {
    let (mut store, mut model) = (TupleStore::new(), Model::default());
    fill(&mut store, &mut model, 1, 0..4);
    store.mark();
    let at_mark = model.clone();
    assert_eq!(store.expire(2), model.expire(2));
    // Two inserts wrap into the freed slots, the third grows the bucket.
    fill(&mut store, &mut model, 1, 4..7);
    assert_same(&store, &model);
    store.rollback();
    assert_same(&store, &at_mark);

    // A clone holds exactly its 4 tuples; expire one, refill, overflow.
    let (mut copy, mut model) = (store.clone(), at_mark);
    copy.mark();
    let at_mark = model.clone();
    assert_eq!(copy.expire(1), model.expire(1));
    fill(&mut copy, &mut model, 1, 4..6);
    assert_same(&copy, &model);
    copy.rollback();
    assert_same(&copy, &at_mark);
    // And forward again from there, across the next growth boundary.
    let mut model = at_mark;
    fill(&mut copy, &mut model, 1, 4..12);
    assert_eq!(copy.expire(6), model.expire(6));
    assert_same(&copy, &model);
}

/// One key's bucket taken one tuple at a time across every growth boundary
/// up to 64 slots, emptied one tuple at a time to nothing — the key leaves
/// the map — and filled again; then the same as one rolled-back step.
#[test]
fn a_bucket_grows_empties_to_zero_and_comes_back() {
    let (mut store, mut model) = (TupleStore::new(), Model::default());
    for round in 0..2 {
        let base = round * 100;
        for i in base..base + 70 {
            fill(&mut store, &mut model, 5, i..i + 1);
            assert_same(&store, &model);
        }
        for i in base..base + 70 {
            assert_eq!(store.expire(i + 1), 1);
            assert_eq!(model.expire(i + 1), 1);
            assert_same(&store, &model);
        }
        assert_eq!((store.len(), store.key_cardinality()), (0, 0));
    }
    store.mark();
    fill(&mut store, &mut model, 5, 300..333);
    assert_eq!(store.expire(320), model.expire(320));
    assert_same(&store, &model);
    store.rollback();
    assert_eq!((store.len(), store.key_cardinality(), store.key_count(5)), (0, 0, 0));
    assert_same(&store, &Model::default());
}

/// `fjbench` builds one store from both streams: a tuple's side is stored
/// per tuple and travels with it through a migration.
#[test]
fn both_sides_in_one_store_round_trip_through_a_migration() {
    let (mut store, mut model) = (TupleStore::new(), Model::default());
    for i in 0..200 {
        let side = if i % 3 == 0 || i % 7 == 0 { Side::S } else { Side::R };
        let t = tuple(side, i % 2, i, i);
        store.insert(t);
        model.insert(t);
    }
    assert_same(&store, &model);
    let moved = store.extract_keys(&[0, 1, 9]);
    assert_eq!(moved, model.extract_keys(&[0, 1, 9]));
    assert_eq!(moved.iter().filter(|t| t.side == Side::S).count(), 86);
    assert!(store.is_empty());

    let (mut target, mut model) = (TupleStore::new(), Model::default());
    fill(&mut target, &mut model, 1, 0..3);
    assert_eq!(target.install(moved.clone(), 50), model.install(moved, 50));
    assert_same(&target, &model);
    assert_eq!(target.len(), 153);
}

#[test]
fn a_probe_of_a_missing_key_matches_nothing() {
    let mut store = TupleStore::new();
    let probe = tuple(Side::S, 3, 0, Seq::MAX);
    for min_ts in [0, 7] {
        assert_eq!(store.probe(&probe, min_ts).bucket_len(), 0);
        assert_eq!(store.probe(&probe, min_ts).count(), 0);
        assert_eq!(store.probe(&probe, min_ts).next(), None);
        store.insert(tuple(Side::R, 4, 9, 1));
    }
}
