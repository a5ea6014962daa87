//! Adversarial-scheduling tests of the migration protocol (§III-D).
//!
//! The synchronous cluster delivers messages instantly and the simulator
//! adds uniform latency; this harness goes further: a proptest-chosen
//! scheduler interleaves *every* channel's deliveries arbitrarily (only
//! per-channel FIFO is preserved — the same guarantee a TCP connection or
//! Storm gives), while data keeps flowing and a migration runs. The join
//! must remain exactly-once under every interleaving. The instances are
//! the instance step every engine runs (`fastjoin_core::stage`), and their
//! outputs leave in the order the step emits them, as in the runtime.

use std::collections::{HashMap, VecDeque};

use proptest::prelude::*;

use fastjoin::core::instance::JoinInstance;
use fastjoin::core::load::InstanceLoad;
use fastjoin::core::protocol::{InstanceMsg, RouteRequest};
use fastjoin::core::selection::GreedyFit;
use fastjoin::core::stage::{InstOut, InstanceCore};
use fastjoin::core::tuple::{JoinedPair, Side, Tuple};

/// Channel endpoints of the two-instance mini-cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Node {
    Dispatcher,
    Inst(usize),
}

/// A mini-harness: one dispatcher stub, two R-group instances, FIFO
/// channels, and an externally chosen delivery schedule.
struct Harness {
    instances: Vec<InstanceCore>,
    /// FIFO queues per (from, to) channel.
    channels: HashMap<(Node, Node), VecDeque<InstanceMsg>>,
    /// Routing override for the R group: key → instance.
    route: HashMap<u64, usize>,
    /// Route requests waiting at the dispatcher.
    pending_routes: VecDeque<RouteRequest>,
    results: Vec<JoinedPair>,
    selector: GreedyFit,
    next_seq: u64,
}

impl Harness {
    fn new() -> Self {
        Harness {
            instances: (0..2)
                .map(|i| InstanceCore::new(JoinInstance::new(i, Side::R, None)))
                .collect(),
            channels: HashMap::new(),
            route: HashMap::new(),
            pending_routes: VecDeque::new(),
            results: Vec::new(),
            selector: GreedyFit::new(),
            next_seq: 1,
        }
    }

    fn route_of(&self, key: u64) -> usize {
        self.route.get(&key).copied().unwrap_or((key % 2) as usize)
    }

    /// Dispatcher sends a tuple into the group (store if R, probe if S).
    fn ingest(&mut self, side: Side, key: u64, ts: u64) {
        let mut t = Tuple::new(side, key, ts, 0);
        t.seq = self.next_seq;
        self.next_seq += 1;
        let dest = Node::Inst(self.route_of(key));
        self.channels.entry((Node::Dispatcher, dest)).or_default().push_back(InstanceMsg::Data(t));
    }

    /// Non-empty channels, in a deterministic order.
    fn live_channels(&self) -> Vec<(Node, Node)> {
        let mut v: Vec<(Node, Node)> =
            self.channels.iter().filter(|(_, q)| !q.is_empty()).map(|(c, _)| *c).collect();
        v.sort_by_key(|c| format!("{c:?}"));
        v
    }

    /// Delivers the head message of channel `idx` (mod live channels).
    fn deliver_one(&mut self, idx: usize) -> bool {
        let live = self.live_channels();
        if live.is_empty() {
            return false;
        }
        let chan = live[idx % live.len()];
        let msg = self.channels.get_mut(&chan).unwrap().pop_front().unwrap();
        let (_, to) = chan;
        match to {
            Node::Inst(i) => self.handle_at(i, msg),
            Node::Dispatcher => unreachable!("instances message the dispatcher via routes"),
        }
        true
    }

    fn handle_at(&mut self, i: usize, msg: InstanceMsg) {
        let mut out = VecDeque::new();
        self.instances[i]
            .receive(msg, &mut self.selector, 0, None, &mut out)
            .expect("FIFO schedules must never produce a protocol violation");
        // Serve everything pending right away (serving order relative to
        // deliveries does not matter for completeness; interleaving is
        // already covered by the delivery schedule).
        let results = &mut self.results;
        while self.instances[i].serve(0, None, &mut |p| results.push(p)).is_some() {}
        for o in out {
            match o {
                InstOut::Peer { to, msg } => {
                    self.channels
                        .entry((Node::Inst(i), Node::Inst(to)))
                        .or_default()
                        .push_back(msg);
                }
                InstOut::Route(req) => self.pending_routes.push_back(req),
                // Completions only matter for the monitor; ignored here.
                InstOut::Done(_) | InstOut::Load(_) | InstOut::Reports(_) | InstOut::Event(_) => {}
            }
        }
    }

    /// Dispatcher applies the oldest pending route update and confirms to
    /// the source over the dispatcher→source channel (after any earlier
    /// data on that channel, preserving FIFO).
    fn apply_route(&mut self) -> bool {
        let Some(req) = self.pending_routes.pop_front() else { return false };
        for k in &req.keys {
            self.route.insert(*k, req.target);
        }
        self.channels
            .entry((Node::Dispatcher, Node::Inst(req.source)))
            .or_default()
            .push_back(InstanceMsg::RouteUpdated { epoch: req.epoch });
        true
    }

    fn drain_everything(&mut self) {
        loop {
            while self.deliver_one(0) {}
            if !self.apply_route() {
                break;
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Exactly-once across a migration no matter how deliveries interleave.
    #[test]
    fn migration_is_exactly_once_under_any_schedule(
        // (side, key, position) stream; the migration fires mid-stream.
        stream in prop::collection::vec((prop::bool::ANY, 0u64..6), 10..120),
        schedule in prop::collection::vec(0usize..7, 0..400),
        migrate_at in 0usize..100,
        target in 0usize..2,
    ) {
        let mut h = Harness::new();
        let mut delivered = 0usize;
        let mut injected_migration = false;
        let mut expected_r: HashMap<u64, u64> = HashMap::new();
        let mut expected_s: HashMap<u64, u64> = HashMap::new();

        for (pos, (is_r, key)) in stream.iter().enumerate() {
            let side = if *is_r { Side::R } else { Side::S };
            match side {
                Side::R => *expected_r.entry(*key).or_insert(0) += 1,
                Side::S => *expected_s.entry(*key).or_insert(0) += 1,
            }
            h.ingest(side, *key, pos as u64);

            // Interleave deliveries and routing per the schedule.
            if delivered < schedule.len() {
                let step = schedule[delivered];
                delivered += 1;
                if step == 6 {
                    h.apply_route();
                } else {
                    let _ = h.deliver_one(step);
                }
            }

            // Fire one migration mid-stream: instance (1-target) sends its
            // keys toward `target`.
            if pos == migrate_at && !injected_migration {
                injected_migration = true;
                let source = 1 - target;
                // Deliver everything already queued to the source first so
                // it has state worth migrating; the schedule has already
                // created plenty of in-flight chaos elsewhere.
                let load = h.instances[target].instance().load();
                let _ = h.instances[source].report();
                let msg = InstanceMsg::MigrateCmd {
                    epoch: 1,
                    target,
                    target_load: InstanceLoad::new(load.stored, load.queue),
                };
                h.channels
                    .entry((Node::Dispatcher, Node::Inst(source)))
                    .or_default()
                    .push_back(msg);
            }
        }
        h.drain_everything();

        // Both instances idle, all channels empty.
        prop_assert!(h.instances.iter().all(|i| i.instance().migration_state().is_idle()));
        prop_assert!(h.live_channels().is_empty());

        // Exactly-once: the R group joins every (r, s) pair with
        // seq_r < seq_s exactly once (the other direction belongs to the
        // S group, which this harness does not model).
        let mut seen = std::collections::HashSet::new();
        for pair in &h.results {
            prop_assert!(pair.left.seq < pair.right.seq, "R-group joins store-then-probe");
            prop_assert!(seen.insert(pair.identity()), "duplicate {:?}", pair.identity());
        }
        // Count expectation: for each key, every S tuple joins all R
        // tuples with smaller seq. Recompute from the stream directly.
        let mut expected_pairs = 0u64;
        let mut r_seen: HashMap<u64, u64> = HashMap::new();
        for (is_r, key) in stream.iter() {
            if *is_r {
                *r_seen.entry(*key).or_insert(0) += 1;
            } else {
                expected_pairs += r_seen.get(key).copied().unwrap_or(0);
            }
        }
        prop_assert_eq!(h.results.len() as u64, expected_pairs);
    }
}
