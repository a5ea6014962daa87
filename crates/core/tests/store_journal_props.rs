//! Model-based property test for the `TupleStore` undo journal: after any
//! sequence of mutations, `rollback()` must leave a store that cannot be
//! told apart from a `clone()` taken at the `mark()` — not now, and not
//! under any further sequence of operations. The clone is the model: it is
//! the O(store) checkpoint the journal replaced.
//!
//! Also compiled into the tier-1 `tests/properties.rs` (by `#[path]`), so
//! plain `cargo test` runs the same seeded cases.

use fastjoin_core::state::TupleStore;
use fastjoin_core::tuple::{Key, Timestamp, Tuple};
use proptest::prelude::*;

/// Keys are drawn from `0..KEYS`: few enough that buckets grow, empty out
/// and come back within one case.
const KEYS: u64 = 12;
/// Window span of the windowed mode, in the ops' own time unit.
const SPAN: Timestamp = 40;

/// One generated step: `(kind, key, dt, keys)`, decoded by [`Driver::apply`].
type Op = (u8, Key, Timestamp, Vec<Key>);

fn ops(max_len: usize) -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        (0u8..10, 0..KEYS, 0u64..8, prop::collection::vec(0..KEYS, 1..4)),
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
    fn apply(&mut self, store: &mut TupleStore, ops: &[Op]) -> Vec<(u64, Vec<Tuple>)> {
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
                _ => {
                    self.seq += 1;
                    let mut t = Tuple::r(*key, self.clock, 0);
                    t.seq = self.seq;
                    store.insert(t);
                }
            }
        }
        returned
    }
}

/// Everything a caller can see of a store: `len`, the sorted key counts,
/// and the probe output of every key, in order.
fn observe(store: &TupleStore) -> (u64, Vec<(Key, u64)>, Vec<Vec<Tuple>>) {
    let mut counts: Vec<_> = store.key_counts().collect();
    counts.sort_unstable();
    let probes = (0..KEYS)
        .map(|key| {
            let mut probe = Tuple::s(key, 0, 0);
            probe.seq = u64::MAX;
            store.probe(&probe, 0).copied().collect()
        })
        .collect();
    (store.len(), counts, probes)
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
        let mut store = TupleStore::new();
        driver.apply(&mut store, &before_mark);
        prop_assert_eq!(store.journal_len(), 0, "an unmarked store must not journal");

        store.mark();
        let model = store.clone();
        let driver_at_mark = driver.clone();
        driver.apply(&mut store, &after_mark);
        store.rollback();
        prop_assert_eq!(store.journal_len(), 0);
        prop_assert_eq!(observe(&store), observe(&model));

        // Same behaviour from here on. The closing `expire(MAX)` walks the
        // whole trigger FIFO, stale triggers of undone extractions included.
        let (mut d1, mut d2) = (driver_at_mark.clone(), driver_at_mark);
        let mut replayed = model.clone();
        prop_assert_eq!(d1.apply(&mut store, &suffix), d2.apply(&mut replayed, &suffix));
        prop_assert_eq!(observe(&store), observe(&replayed));

        // A rollback leaves the store marked where it was: the suffix can
        // be undone again — this is what a second crash before the next
        // checkpoint relies on.
        store.rollback();
        prop_assert_eq!(observe(&store), observe(&model));
        let mut model = model;
        prop_assert_eq!(store.expire(u64::MAX), model.expire(u64::MAX));
        prop_assert!(store.is_empty() && model.is_empty());
    }
}

fn tuple(key: Key, ts: Timestamp, seq: u64) -> Tuple {
    let mut t = Tuple::r(key, ts, 0);
    t.seq = seq;
    t
}

#[test]
fn rollback_without_a_mark_is_a_no_op() {
    let mut store = TupleStore::new();
    store.insert(tuple(1, 10, 1));
    store.insert(tuple(2, 11, 2));
    let before = observe(&store);
    store.rollback();
    assert_eq!(observe(&store), before);
    assert_eq!(store.journal_len(), 0);
}

#[test]
fn a_second_mark_replaces_the_first() {
    let mut store = TupleStore::new();
    store.mark();
    store.insert(tuple(1, 10, 1));
    store.mark();
    assert_eq!(store.journal_len(), 0, "mark truncates the journal");
    store.insert(tuple(1, 11, 2));
    store.rollback();
    assert_eq!(store.len(), 1, "only the insert after the later mark is undone");
    assert_eq!(store.max_seq(1), Some(1));
}

#[test]
fn only_a_marked_store_journals_and_a_clone_starts_unmarked() {
    let mut store = TupleStore::new();
    for i in 0..50 {
        store.insert(tuple(i % 5, i, i));
    }
    assert_eq!(store.expire(10), 10);
    assert_eq!(store.extract_keys(&[0]).len(), 8);
    assert_eq!(store.journal_len(), 0);

    store.mark();
    store.insert(tuple(1, 60, 60));
    assert_eq!(store.journal_len(), 1);
    let mut copy = store.clone();
    assert_eq!(copy.journal_len(), 0);
    copy.insert(tuple(1, 61, 61));
    assert_eq!(copy.journal_len(), 0, "the copy is unmarked");
    copy.rollback();
    assert_eq!(copy.len(), store.len() + 1, "and has nothing to roll back to");
}
