//! Stream tuples and stream-side tags.
//!
//! FastJoin joins two streams, conventionally named `R` and `S` (Table I of
//! the paper). Every tuple carries the join key, an event timestamp, an
//! opaque payload word, and two fields the dispatcher assigns when it routes
//! the tuple: a globally unique sequence number and the probe fan-out (how
//! many instances of the opposite group the tuple probes). Both travel with
//! the tuple wherever it goes — a shard flush, a migration's `MigForward` —
//! so no stage keeps a side table of them.
//!
//! Tuples are fixed-size `Copy` PODs: the hot path of a stream join system
//! moves millions of them per second through queues, so they must not own
//! heap allocations. Applications that need rich payloads keep them in a
//! side table indexed by [`Tuple::payload`] (see `examples/ridehailing.rs`).

/// The join key type. Real deployments hash arbitrary attributes down to a
/// 64-bit key before dispatch (see [`crate::hash`]).
pub type Key = u64;

/// Logical event time, in the stream's own time unit (the simulator uses
/// microseconds).
pub type Timestamp = u64;

/// Dispatch sequence number, assigned by the dispatcher shard that owns the
/// tuple's key. Strictly increasing per key; used to enforce exactly-once
/// join semantics (a probe only matches stored tuples with a smaller `seq`).
pub type Seq = u64;

/// Which of the two joined streams a tuple belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Side {
    /// The `R` stream.
    R,
    /// The `S` stream.
    S,
}

impl Side {
    /// The opposite stream side.
    #[inline]
    #[must_use]
    pub fn opposite(self) -> Side {
        match self {
            Side::R => Side::S,
            Side::S => Side::R,
        }
    }

    /// Index form (`R = 0`, `S = 1`), for side-indexed arrays.
    #[inline]
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            Side::R => 0,
            Side::S => 1,
        }
    }

    /// Both sides, in index order.
    #[must_use]
    pub fn both() -> [Side; 2] {
        [Side::R, Side::S]
    }
}

impl std::fmt::Display for Side {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Side::R => write!(f, "R"),
            Side::S => write!(f, "S"),
        }
    }
}

/// A stream tuple as it travels through the join pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tuple {
    /// Stream this tuple belongs to.
    pub side: Side,
    /// How many instances of the opposite group received this tuple as a
    /// probe; the probe's join completes when that many parts have. Set by
    /// the dispatcher with `seq` (0 = not dispatched yet), it fills padding
    /// after `side`, so it costs no space.
    pub fanout: u32,
    /// Join key (already hashed to 64 bits).
    pub key: Key,
    /// Event timestamp.
    pub ts: Timestamp,
    /// Dispatch sequence number (see [`Seq`]).
    pub seq: Seq,
    /// Opaque payload word (application-defined; typically a record id).
    pub payload: u64,
}

impl Tuple {
    /// Creates a tuple with `seq = 0` and `fanout = 0`; the dispatcher
    /// assigns both at dispatch time.
    #[inline]
    #[must_use]
    pub fn new(side: Side, key: Key, ts: Timestamp, payload: u64) -> Self {
        Tuple { side, fanout: 0, key, ts, seq: 0, payload }
    }

    /// Convenience constructor for an `R` tuple.
    #[inline]
    #[must_use]
    pub fn r(key: Key, ts: Timestamp, payload: u64) -> Self {
        Tuple::new(Side::R, key, ts, payload)
    }

    /// Convenience constructor for an `S` tuple.
    #[inline]
    #[must_use]
    pub fn s(key: Key, ts: Timestamp, payload: u64) -> Self {
        Tuple::new(Side::S, key, ts, payload)
    }
}

// A tuple is what every queue, batch and store slot holds: a field that
// grows it grows `store.bytes_per_tuple` and every channel message with it.
// lint:allow(evaluated at compile time: a layout change fails the build)
const _: () = assert!(std::mem::size_of::<Tuple>() == 40);

/// A joined result pair. `left` is always the `R`-side tuple and `right` the
/// `S`-side tuple regardless of which side probed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JoinedPair {
    /// The `R`-side member of the pair.
    pub left: Tuple,
    /// The `S`-side member of the pair.
    pub right: Tuple,
}

impl JoinedPair {
    /// Orders a (stored, probe) match into canonical `(R, S)` orientation.
    ///
    /// # Panics
    /// Panics if both tuples come from the same stream side — that would be
    /// a routing bug, not a data condition.
    #[inline]
    #[must_use]
    pub fn orient(stored: Tuple, probe: Tuple) -> Self {
        // lint:allow(caller contract: a pair is one stored + one probe side)
        assert_ne!(stored.side, probe.side, "join matched two tuples from the same stream side");
        match stored.side {
            Side::R => JoinedPair { left: stored, right: probe },
            Side::S => JoinedPair { left: probe, right: stored },
        }
    }

    /// A stable identity for the pair, independent of join location.
    /// Used by tests to assert exactly-once semantics.
    #[must_use]
    pub fn identity(&self) -> (Seq, Seq) {
        (self.left.seq, self.right.seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn side_opposite_is_involution() {
        for side in Side::both() {
            assert_eq!(side.opposite().opposite(), side);
            assert_ne!(side.opposite(), side);
        }
    }

    #[test]
    fn side_indices_are_distinct() {
        assert_eq!(Side::R.index(), 0);
        assert_eq!(Side::S.index(), 1);
    }

    #[test]
    fn tuple_constructors_tag_sides() {
        let r = Tuple::r(7, 100, 1);
        let s = Tuple::s(7, 101, 2);
        assert_eq!(r.side, Side::R);
        assert_eq!(s.side, Side::S);
        assert_eq!(r.key, s.key);
        assert_eq!((r.seq, r.fanout), (0, 0), "seq and fan-out are assigned by the dispatcher");
    }

    #[test]
    fn orient_normalizes_either_probe_direction() {
        let mut r = Tuple::r(1, 10, 0);
        let mut s = Tuple::s(1, 11, 0);
        r.seq = 1;
        s.seq = 2;
        let a = JoinedPair::orient(r, s); // R stored, S probes
        let b = JoinedPair::orient(s, r); // S stored, R probes
        assert_eq!(a, b);
        assert_eq!(a.left.side, Side::R);
        assert_eq!(a.right.side, Side::S);
        assert_eq!(a.identity(), (1, 2));
    }

    #[test]
    #[should_panic(expected = "same stream side")]
    fn orient_rejects_same_side() {
        let _ = JoinedPair::orient(Tuple::r(1, 0, 0), Tuple::r(1, 1, 0));
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(Side::R.to_string(), "R");
        assert_eq!(Side::S.to_string(), "S");
    }
}
