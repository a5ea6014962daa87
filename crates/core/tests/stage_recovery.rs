//! Crash recovery of `InstanceStage`, without threads, sleeps or seeds.
//!
//! A crash must be invisible from outside: whatever the stage is crashed
//! on — idle between two messages, with a message accepted and not yet
//! stepped (an injected fail-stop crash), or inside a step whose outputs
//! were computed and never left — the recovered stage ends in the state
//! the crash-free one ends in, having sent what it sent, each once.
//!
//! * A scripted migration round between two stages and a scripted
//!   dispatcher, crashed at every message index of the source and of the
//!   target.
//! * A property: any message sequence the protocol allows, any
//!   `checkpoint_every` in 1..=8, any crash point.
//!
//! Also compiled into the tier-1 `tests/properties.rs` (by `#[path]`), so
//! plain `cargo test` runs the same cases.

use std::collections::VecDeque;

use fastjoin_core::config::WindowConfig;
use fastjoin_core::instance::JoinInstance;
use fastjoin_core::load::{InstanceLoad, KeyStat};
use fastjoin_core::protocol::{InstanceMsg, MigrationDone, MigrationState, RouteRequest, RtMsg};
use fastjoin_core::selection::{KeySelector, MigrationPlan};
use fastjoin_core::stage::{InstOut, InstanceStage};
use fastjoin_core::trace::{Actor, TraceConfig, TraceRing};
use fastjoin_core::tuple::{JoinedPair, Key, Side, Tuple};
use proptest::prelude::*;

/// Moves the key it stores most of (ties to the smaller key) — scripted,
/// so a round engages whenever anything is stored.
#[derive(Clone)]
struct MoveTheBiggest;

impl KeySelector for MoveTheBiggest {
    fn select(
        &mut self,
        _: InstanceLoad,
        _: InstanceLoad,
        keys: &[KeyStat],
        _: f64,
    ) -> MigrationPlan {
        let biggest = keys.iter().filter(|k| k.stored > 0).max_by_key(|k| (k.stored, !k.key));
        MigrationPlan {
            keys: biggest.map(|k| k.key).into_iter().collect(),
            total_benefit: 1.0,
            tuples_to_move: 0,
            predicted_delta: 0.0,
        }
    }

    fn name(&self) -> &'static str {
        "move-the-biggest"
    }
}

fn stage(id: usize, window: Option<WindowConfig>, checkpoint_every: u64) -> InstanceStage {
    let inst = JoinInstance::new(id, Side::R, window);
    InstanceStage::new(inst, Box::new(MoveTheBiggest), checkpoint_every)
}

/// A dispatched tuple: it probes `fanout` instances.
fn tuple(side: Side, key: Key, seq: u64, fanout: u32) -> Tuple {
    Tuple { seq, fanout, ..Tuple::new(side, key, seq, 0) }
}

/// Where in a message's life the stage is crashed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Crash {
    /// Between two messages: nothing is in flight.
    Idle,
    /// The message was accepted and never stepped.
    Accepted,
    /// The step ran; what it computed never left.
    Stepped,
}

const CRASHES: [Crash; 3] = [Crash::Idle, Crash::Accepted, Crash::Stepped];

/// Everything a stage handed to the outside over a run.
#[derive(Debug, Default, PartialEq)]
struct Sent {
    out: Vec<InstOut>,
    pairs: Vec<(u64, u64)>,
}

/// Takes `msg` through accept → step → commit, crashing (and recovering)
/// as `crash` says; what left the stage is appended to `sent` and
/// returned.
fn deliver(
    stage: &mut InstanceStage,
    msg: RtMsg,
    crash: Option<Crash>,
    sent: &mut Sent,
) -> Vec<InstOut> {
    let mut ring = TraceRing::new(Actor::instance(0, 0), &TraceConfig::disabled());
    let mut out = VecDeque::new();
    let mut pairs = Vec::new();
    let mut sink = |p: JoinedPair| pairs.push((p.left.seq, p.right.seq));
    if crash == Some(Crash::Idle) {
        stage.recover(0, &mut ring, &mut sink, &mut out).expect("recovers while idle");
        assert!(out.is_empty(), "an idle recovery sends nothing: {out:?}");
    }
    stage.accept(msg);
    if crash == Some(Crash::Stepped) {
        // The torn step's outputs and pairs are the shell's to drop.
        stage.step(0, &mut ring, &mut |_| {}, &mut VecDeque::new()).expect("steps");
    }
    if matches!(crash, Some(Crash::Accepted | Crash::Stepped)) {
        stage.recover(0, &mut ring, &mut sink, &mut out).expect("recovers");
    } else {
        stage.step(0, &mut ring, &mut sink, &mut out).expect("steps");
    }
    stage.commit();
    sent.pairs.extend(pairs);
    sent.out.extend(out.iter().cloned());
    out.into()
}

/// A stage's state as the outside can read it, in one comparable line.
fn digest(stage: &InstanceStage) -> String {
    let inst = stage.instance();
    let sorted = |keys: &std::collections::HashSet<Key>| {
        let mut keys: Vec<_> = keys.iter().copied().collect();
        keys.sort_unstable();
        keys
    };
    let seqs = |tuples: &[Tuple]| tuples.iter().map(|t| t.seq).collect::<Vec<_>>();
    let round = match inst.migration_state() {
        MigrationState::Idle => "idle".to_string(),
        MigrationState::Source { epoch, target, keys, buffer, tuples_moved } => {
            format!(
                "source {epoch} → {target} {:?} {:?} {tuples_moved}",
                sorted(keys),
                seqs(buffer)
            )
        }
        MigrationState::Target { epoch, from, keys, held, received } => {
            format!("target {epoch} ← {from} {:?} {:?} {received}", sorted(keys), seqs(held))
        }
    };
    let stats = inst.key_stats();
    let buckets: Vec<Vec<u64>> = stats
        .iter()
        .map(|k| {
            inst.store().probe(&tuple(Side::S, k.key, u64::MAX, 1), 0).map(|t| t.seq).collect()
        })
        .collect();
    format!(
        "{round} | {:?} {:?} {:?} pending {} eos {} | {stats:?} {buckets:?}",
        inst.counters(),
        inst.load(),
        inst.reported_load(),
        inst.pending_len(),
        stage.saw_eos(),
    )
}

// ---------------------------------------------------------------------
// (a) A scripted round, crashed at every message index
// ---------------------------------------------------------------------

const HOT: Key = 0;
const COLD: Key = 1;
/// Ticks a `Route` waits at the scripted dispatcher, so data routed under
/// the old table reaches the source while it buffers.
const ROUTE_DELAY: usize = 3;

/// One tick of scripted input.
#[derive(Clone, Copy)]
enum Feed {
    Data(Side, Key),
    /// The monitor's period tick, to both instances.
    Report,
    /// The monitor commands instance 0 to migrate to instance 1.
    Migrate,
}

/// Two R-group stages, their FIFO inboxes, and a dispatcher that routes
/// one scripted tuple per tick and answers a `Route` `ROUTE_DELAY` ticks
/// later with the flip.
struct Round {
    stages: Vec<InstanceStage>,
    inbox: Vec<VecDeque<RtMsg>>,
    /// Kind of every message each stage took, in order.
    took: Vec<Vec<String>>,
    sent: Vec<Sent>,
    hot_route: usize,
    routes: VecDeque<(usize, RouteRequest)>,
    /// `(stage, message index, how)`.
    crash: Option<(usize, usize, Crash)>,
}

impl Round {
    fn run(checkpoint_every: u64, crash: Option<(usize, usize, Crash)>) -> Round {
        use Feed::{Data, Migrate, Report};
        use Side::{R, S};
        let script = [
            Data(R, HOT),
            Data(R, HOT),
            Data(S, HOT),
            Data(R, COLD),
            Data(S, COLD),
            Report,
            Migrate,
            // In flight while the round runs: buffered at the source, then
            // (after the flip) held at the target.
            Data(S, HOT),
            Data(R, HOT),
            Data(S, HOT),
            Data(S, COLD),
            Data(R, HOT),
            Data(S, HOT),
            Data(S, HOT),
            Report,
            Data(R, COLD),
            Data(S, HOT),
            Data(S, COLD),
        ];
        let mut round = Round {
            stages: (0..2).map(|id| stage(id, None, checkpoint_every)).collect(),
            inbox: vec![VecDeque::new(); 2],
            took: vec![Vec::new(); 2],
            sent: vec![Sent::default(), Sent::default()],
            hot_route: 0,
            routes: VecDeque::new(),
            crash,
        };
        let mut feed = script.iter();
        let mut tick = 0;
        loop {
            tick += 1;
            let fed = feed.next();
            match fed {
                Some(Data(side, key)) => {
                    let t = tuple(*side, *key, tick as u64, 1);
                    let dest = if *key == HOT { round.hot_route } else { 1 };
                    round.inbox[dest].push_back(RtMsg::Data(vec![t]));
                }
                Some(Report) => {
                    round.inbox.iter_mut().for_each(|q| q.push_back(RtMsg::ReportRequest))
                }
                Some(Migrate) => {
                    let target_load = InstanceLoad::default();
                    let cmd = InstanceMsg::MigrateCmd { epoch: 1, target: 1, target_load };
                    round.inbox[0].push_back(RtMsg::Inst(cmd));
                }
                None => {}
            }
            if round.routes.front().is_some_and(|(due, _)| *due <= tick) {
                let (_, req) = round.routes.pop_front().expect("checked");
                round.hot_route = req.target;
                let flipped = InstanceMsg::RouteUpdated { epoch: req.epoch };
                round.inbox[req.source].push_back(RtMsg::Inst(flipped));
            }
            for i in 0..2 {
                if let Some(msg) = round.inbox[i].pop_front() {
                    round.take(i, msg, tick);
                }
            }
            let quiet = round.inbox.iter().all(VecDeque::is_empty) && round.routes.is_empty();
            if fed.is_none() && quiet {
                break;
            }
        }
        for i in 0..2 {
            round.take(i, RtMsg::Eos, tick);
        }
        round
    }

    /// Stage `i` takes `msg`; its outputs go where the shell sends them.
    fn take(&mut self, i: usize, msg: RtMsg, tick: usize) {
        let index = self.took[i].len();
        let kind = match &msg {
            RtMsg::Inst(m) => format!("{m:?}").split([' ', '{']).next().unwrap_or("").to_string(),
            RtMsg::Data(_) => "Data".to_string(),
            RtMsg::ReportRequest => "ReportRequest".to_string(),
            RtMsg::Eos => "Eos".to_string(),
        };
        self.took[i].push(kind);
        let crash = self.crash.filter(|c| (c.0, c.1) == (i, index)).map(|c| c.2);
        for o in deliver(&mut self.stages[i], msg, crash, &mut self.sent[i]) {
            match o {
                InstOut::Peer { to, msg } => self.inbox[to].push_back(RtMsg::Inst(msg)),
                InstOut::Route(req) => self.routes.push_back((tick + ROUTE_DELAY, req)),
                InstOut::Done(_) | InstOut::Load(_) | InstOut::Reports(_) | InstOut::Event(_) => {}
            }
        }
    }

    fn digests(&self) -> Vec<String> {
        self.stages.iter().map(digest).collect()
    }
}

#[test]
fn a_migration_round_crashed_at_every_message_ends_like_the_crash_free_one() {
    for checkpoint_every in [1, 2, 3, 64] {
        let clean = Round::run(checkpoint_every, None);
        assert!(clean.stages.iter().all(InstanceStage::saw_eos));
        // The script reaches every message of the round, on both ends.
        let src = ["MigrateCmd", "RouteUpdated"];
        let tgt = ["MigStart", "MigStore", "MigForward", "MigEnd"];
        for (i, kinds) in [&src[..], &tgt[..]].into_iter().enumerate() {
            for kind in kinds {
                assert!(clean.took[i].iter().any(|k| k == kind), "stage {i} never took {kind}");
            }
        }
        // The round closes with exactly one completion: the target's
        // report of what moved. A crash anywhere changes none of it
        // (`sent` is compared below).
        let done: Vec<(usize, MigrationDone)> = (0..2)
            .flat_map(|i| {
                clean.sent[i].out.iter().filter_map(move |o| match o {
                    InstOut::Done(d) => Some((i, *d)),
                    _ => None,
                })
            })
            .collect();
        assert!(matches!(done.as_slice(), [(1, d)] if d.epoch == 1 && d.keys_moved == 1));
        // Every probe of the script was reported, by one stage, once.
        let mut reported: Vec<u64> = clean
            .sent
            .iter()
            .flat_map(|s| &s.out)
            .filter_map(|o| match o {
                InstOut::Reports(r) => Some(r.iter().map(|r| r.seq)),
                _ => None,
            })
            .flatten()
            .collect();
        reported.sort_unstable();
        assert_eq!(reported, [3, 5, 8, 10, 11, 13, 14, 17, 18]);

        for i in 0..2 {
            for index in 0..clean.took[i].len() {
                for how in CRASHES {
                    let crashed = Round::run(checkpoint_every, Some((i, index, how)));
                    let label = format!(
                        "checkpoint_every={checkpoint_every}: stage {i} crashed {how:?} at \
                         message {index} ({})",
                        clean.took[i][index]
                    );
                    assert_eq!(crashed.took, clean.took, "{label}: messages taken");
                    assert_eq!(crashed.sent, clean.sent, "{label}: sends, reports, pairs");
                    assert_eq!(crashed.digests(), clean.digests(), "{label}: final state");
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// (b) Any sequence, any checkpoint interval, any crash point
// ---------------------------------------------------------------------

/// One generated step `(kind, a, b)`, decoded against the stage's
/// migration state by [`Script::next_message`].
type Op = (u8, u64, u64);

/// Builds the sequence as it is consumed, so every message is one the
/// protocol allows in the state it meets.
struct Script {
    seq: u64,
    epoch: u64,
}

impl Script {
    /// The next tuple; a probe (an S tuple) fans out to 1–3 instances.
    fn tuple(&mut self, side: Side, key: Key, b: u64) -> Tuple {
        self.seq += 1;
        tuple(side, key, self.seq, 1 + (b % 3) as u32)
    }

    fn data(&mut self, a: u64, b: u64) -> RtMsg {
        let items = (0..1 + a % 4).map(|i| {
            let key = (a / 4 + i * b) % 4;
            self.tuple(if (b >> i) & 1 == 0 { Side::R } else { Side::S }, key, b)
        });
        RtMsg::Data(items.collect())
    }

    /// The message `op` stands for while the stage is in `state`.
    fn next_message(&mut self, state: &MigrationState, (kind, a, b): Op) -> RtMsg {
        let inst = RtMsg::Inst;
        if kind < 5 {
            return self.data(a, b);
        }
        if kind == 5 {
            return RtMsg::ReportRequest;
        }
        match state {
            MigrationState::Idle => {
                self.epoch += 1;
                let epoch = self.epoch;
                match kind {
                    8 => inst(InstanceMsg::MigStart { epoch, from: 1, keys: vec![a % 4, 4] }),
                    _ => {
                        let target_load = InstanceLoad::default();
                        inst(InstanceMsg::MigrateCmd { epoch, target: 1, target_load })
                    }
                }
            }
            MigrationState::Source { epoch, .. } => {
                inst(InstanceMsg::RouteUpdated { epoch: *epoch })
            }
            MigrationState::Target { epoch, keys, .. } => {
                let epoch = *epoch;
                let key = keys.iter().copied().min().unwrap_or(0);
                match kind {
                    6 => {
                        let tuples = (0..1 + a % 3).map(|_| self.tuple(Side::R, key, b)).collect();
                        inst(InstanceMsg::MigStore { epoch, tuples })
                    }
                    // A source's buffer, its probes carrying their fan-out.
                    7 => {
                        let tuples = (0..1 + a % 3)
                            .map(|i| {
                                let side = if (b >> i) & 1 == 0 { Side::R } else { Side::S };
                                self.tuple(side, key, b)
                            })
                            .collect();
                        inst(InstanceMsg::MigForward { epoch, tuples })
                    }
                    _ => inst(InstanceMsg::MigEnd { epoch, from: 1 }),
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A crashed stage cannot be told from the one that never crashed:
    /// not by what it sent over the whole sequence, not by its state at
    /// the end — wherever the crash fell, and however far back its
    /// checkpoint was.
    #[test]
    fn a_crashed_stage_equals_the_uncrashed_one_in_state_and_total_output(
        ops in prop::collection::vec((0u8..9, 0u64..64, 0u64..64), 1..60),
        checkpoint_every in 1u64..9,
        windowed in prop::bool::ANY,
        crash_at in 0usize..80,
        how in 0usize..3,
    ) {
        let window = windowed.then_some(WindowConfig { sub_windows: 2, sub_window_len: 8 });
        let mut clean = stage(0, window, checkpoint_every);
        let mut clean_sent = Sent::default();
        let mut script = Script { seq: 0, epoch: 0 };
        let mut messages = Vec::new();
        for op in ops {
            let msg = script.next_message(clean.instance().migration_state(), op);
            messages.push(msg.clone());
            deliver(&mut clean, msg, None, &mut clean_sent);
        }
        let crash_at = crash_at % messages.len();
        let mut crashed = stage(0, window, checkpoint_every);
        let mut crashed_sent = Sent::default();
        for (i, msg) in messages.into_iter().enumerate() {
            let crash = (i == crash_at).then_some(CRASHES[how]);
            deliver(&mut crashed, msg, crash, &mut crashed_sent);
        }
        prop_assert_eq!(crashed_sent, clean_sent);
        prop_assert_eq!(digest(&crashed), digest(&clean));
    }
}
