//! Exhaustive model checker for the migration protocol (§III-D) and the
//! dispatcher stage that carries it.
//!
//! Nothing protocol-bearing is modeled by hand: the explorer drives the
//! **real** [`InstanceStage`]s, dispatcher [`Shard`]s and control
//! [`Sequencer`] of `fastjoin-core` — the structs the threaded runtime's
//! executors own — through a bounded scenario, enumerates every order in
//! which their messages can be sent and received, and checks join
//! completeness, exactly-once (pairs, and probe reports through the real
//! [`ProbeAccountant`]) and epoch order on each one.
//!
//! ## The model
//!
//! Nodes: N shards (each fed a scripted slice of the input, one tuple per
//! spout message, then EOS), the sequencer, two R-group join instances and
//! a scripted monitor. Every node is a sequential thread, as in the
//! runtime: it *receives* one input, its state machine appends to an
//! ordered output sequence, and it *sends* those outputs one at a time, in
//! order, before it receives again. Queues are the runtime's: **one MPSC
//! inbox per instance** shared by every shard, the sequencer, the monitor
//! and the peer instance (the ordering assumption the publication barrier
//! rests on), one control and one note queue into the sequencer, one
//! publication queue per shard, one inbox for the monitor. A transition is
//! the spout handing a shard its next message, a node receiving the head
//! of one of its queues, a node sending the head of its output sequence, a
//! shard crashing (restart variants), an instance crashing — idle before a
//! receive, or inside a step whose outputs were computed and never sent —
//! and recovering through [`InstanceStage::recover`] (instance-restart
//! variants). The collector is a sink: an instance's report batch lands in
//! the state when it is sent. The S group is not modeled: flushes to it are dropped.
//!
//! **Known-bad variants are mutations of this shell**, never switches in
//! `fastjoin-core`: they change what *this file* does with the real
//! structs' outputs — sends them in another order, sends one early,
//! replaces a crashed shard by a fresh one instead of calling
//! [`Shard::restart`], keeps a torn step's report batch across an
//! instance's recovery (see [`Variant`]).
//!
//! ## Search
//!
//! A node is a deterministic function of the sequence of inputs it
//! consumed, so per-node input histories plus the contents of every queue
//! and output sequence are a complete state fingerprint. Two reductions
//! keep the search closed without losing a behaviour: a receive by a node
//! that has a single input and no alternative step (an instance; the
//! monitor; the sequencer inside a barrier)
//! commutes with every step of every other node, and so does a send into a
//! queue with a single sender — when one is enabled it is the only
//! transition explored (an instance that may still crash branches there
//! three ways: receive, crash first, crash inside the step — all its own
//! steps, so the set still commutes with everyone else's). What is left to
//! branch on is what can matter: the
//! order of sends into shared queues, which input a multi-input node takes
//! next, crash timing.
//!
//! BFS order means the first violation found has a minimal-length trace.
//! The number of distinct schedules (maximal paths in the deduplicated
//! state DAG) is counted exactly by reverse-order dynamic programming.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::fmt::Write as _;
use std::rc::Rc;

use fastjoin_core::accounting::ProbeAccountant;
use fastjoin_core::dispatcher::Dispatcher;
use fastjoin_core::instance::JoinInstance;
use fastjoin_core::load::{InstanceLoad, KeyStat};
use fastjoin_core::partition::{HashPartitioner, Partitioner};
use fastjoin_core::protocol::{
    DispatcherMsg, InstanceMsg, MigrationDone, MigrationState, ProbeReport, RouteRequest, RtMsg,
    ShardNote,
};
use fastjoin_core::routing::RouteSnapshot;
use fastjoin_core::selection::{KeySelector, MigrationPlan};
use fastjoin_core::sequencer::{Did, SeqEvent, SeqOut, Sequencer};
use fastjoin_core::shard::{Shard, ShardOut};
use fastjoin_core::stage::{InstOut, InstanceStage};
use fastjoin_core::trace::{Actor, TraceConfig, TraceRing};
use fastjoin_core::tuple::{JoinedPair, Key, Side, Tuple};

/// Number of join instances in the modeled R group.
const INSTANCES: usize = 2;
/// The key every migration round moves; starts on instance 0.
const HOT_KEY: Key = 0;
/// A key that stays on instance 1.
const COLD_KEY: Key = 1;

/// Protocol implementation variant under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// The shipped protocol (Algorithm 2) behind a one-shard stage; two
    /// rounds move the hot key away and back.
    Safe,
    /// Known-bad: the route flip is requested when the source has selected
    /// its keys, ahead of its `MigStart`, so newly routed probes race the
    /// store transfer to an idle target (the protocol §III-D rejects).
    NaiveNotifyFirst,
    /// Known-bad: the source's `MigStore` is sent after its `MigForward`,
    /// so forwarded probes reach the target before the store they must
    /// match against.
    ForwardBeforeStore,
    /// Two shards with `batch_size` 2 (so pending batches exist) and the
    /// sequencer's publication barrier; one flip.
    Sharded,
    /// Known-bad: `RouteUpdated` is sent when the flip is applied and the
    /// barrier's own is dropped, racing shards that still route under the
    /// old table.
    ShardedNoBarrier,
    /// [`Variant::Sharded`] where a shard may crash whenever it is not
    /// mid-send and is restarted through [`Shard::restart`] (salvage
    /// flush, epoch fence, resync).
    ShardedShardRestart,
    /// Known-bad: a crashed shard is replaced by a *fresh* one — fence 0,
    /// no resync — so it routes under the initial table at once while the
    /// dead incarnation's acknowledgement still releases the barrier.
    ShardedRestartNoFence,
    /// Two rounds from instance 0 behind two shards, and a source that
    /// stores nothing of the hot key abandons its command: a round closes
    /// with a `{0, 0}` `MigrationDone` and no instance engaged, and the
    /// next one starts behind it.
    ShardedAbandon,
    /// Known-bad: a shard's acknowledgement is sent ahead of the flushes
    /// that precede it in its output sequence.
    ShardedAckBeforeFlush,
    /// One round behind one shard, stores and probes straddling it, and
    /// one instance crash per schedule — of the source or the target,
    /// before any receive or inside any step — recovered through
    /// [`InstanceStage::recover`] from a checkpoint at most two messages
    /// old.
    InstanceRestart,
    /// Known-bad: the shell drops a torn step's outputs on recovery, all
    /// but its report batch — which then leaves next to the one the
    /// re-applied message computes.
    InstanceRestartKeepsReports,
}

/// Every variant: its CLI name, and whether it must pass.
pub const VARIANTS: &[(&str, Variant, bool)] = &[
    ("safe", Variant::Safe, true),
    ("naive-notify-first", Variant::NaiveNotifyFirst, false),
    ("forward-before-store", Variant::ForwardBeforeStore, false),
    ("sharded", Variant::Sharded, true),
    ("sharded-no-barrier", Variant::ShardedNoBarrier, false),
    ("sharded-shard-restart", Variant::ShardedShardRestart, true),
    ("sharded-restart-no-fence", Variant::ShardedRestartNoFence, false),
    ("sharded-abandon", Variant::ShardedAbandon, true),
    ("sharded-ack-before-flush", Variant::ShardedAckBeforeFlush, false),
    ("instance-restart", Variant::InstanceRestart, true),
    ("instance-restart-keeps-reports", Variant::InstanceRestartKeepsReports, false),
];

impl Variant {
    /// Parses a CLI variant name.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        VARIANTS.iter().find(|(name, ..)| *name == s).map(|(_, v, _)| *v)
    }

    /// The CLI name.
    #[must_use]
    pub fn name(self) -> &'static str {
        VARIANTS.iter().find(|(_, v, _)| *v == self).map_or("?", |(name, ..)| name)
    }

    /// What a stale delivery under this variant is evidence of.
    fn stale_cause(self) -> &'static str {
        match self {
            Variant::ShardedRestartNoFence => {
                "the barrier was released by a stale ack from a crashed shard's dead incarnation \
                 while its fence-less replacement routed under the initial table"
            }
            Variant::ShardedAckBeforeFlush => {
                "a shard's ack went out ahead of data it had routed under the old table"
            }
            _ => "a shard was still routing under the old table after RouteUpdated left",
        }
    }
}

/// The bounded scenario a variant explores.
#[derive(Debug)]
struct Scenario {
    /// Per-shard input scripts as [`script`] specs, each followed by EOS.
    /// Shard-by-key: every tuple of a key rides one shard.
    scripts: &'static [&'static str],
    batch_size: usize,
    /// Migration rounds the scripted monitor runs, `(epoch, source,
    /// target)`; round `e + 1` starts when round `e` closed.
    rounds: &'static [(u64, usize, usize)],
    /// Shard crashes allowed in one schedule.
    crashes: u8,
    /// Instance crashes allowed in one schedule.
    inst_crashes: u8,
    /// Messages between two checkpoints of an instance.
    checkpoint_every: u64,
    /// Whether a source that stores nothing of the hot key abandons its
    /// round (see [`HotKeySelector`]).
    abandons: bool,
}

/// Scenario bounds are tuned so the slowest search stays near a minute
/// with the real structs: the restart and abandon variants carry one cold
/// tuple instead of two, and a schedule has one shard crash, not one per
/// shard. The instance-restart variants checkpoint every second message,
/// so a crash finds zero or one message to replay besides the one in
/// flight.
fn scenario(variant: Variant) -> Scenario {
    let inst_crashes =
        matches!(variant, Variant::InstanceRestart | Variant::InstanceRestartKeepsReports);
    let (scripts, batch_size, rounds, crashes, abandons): (&[&str], _, &[_], _, _) = match variant {
        // Stores race probes race migration control.
        Variant::Safe | Variant::NaiveNotifyFirst | Variant::ForwardBeforeStore => {
            (&["RSrSRs"], 1, &[(1, 0, 1), (2, 1, 0)], 0, false)
        }
        // Hot stores and probes straddle the flip on shard 0; shard 1
        // carries the cold key.
        Variant::Sharded | Variant::ShardedNoBarrier | Variant::ShardedAckBeforeFlush => {
            (&["RSRS", "rs"], 2, &[(1, 0, 1)], 0, false)
        }
        Variant::ShardedShardRestart | Variant::ShardedRestartNoFence => {
            (&["RSRS", "r"], 2, &[(1, 0, 1)], 1, false)
        }
        Variant::ShardedAbandon => (&["RSRS", "r"], 2, &[(1, 0, 1), (2, 0, 1)], 0, true),
        // A store and a probe on either side of the flip, and a cold pair.
        Variant::InstanceRestart | Variant::InstanceRestartKeepsReports => {
            (&["RSrsRS"], 1, &[(1, 0, 1)], 0, false)
        }
    };
    Scenario {
        scripts,
        batch_size,
        rounds,
        crashes,
        inst_crashes: u8::from(inst_crashes),
        checkpoint_every: if inst_crashes { 2 } else { 64 },
        abandons,
    }
}

/// A shard's input: `R` / `S` are hot-key tuples, `r` / `s` cold-key ones;
/// dispatch seqs (and event times) count up from `first_seq`.
fn script(spec: &str, first_seq: u64) -> Vec<Tuple> {
    let tuple = |(c, seq): (char, u64)| {
        let key = if c.is_ascii_uppercase() { HOT_KEY } else { COLD_KEY };
        let side = if c.eq_ignore_ascii_case(&'r') { Side::R } else { Side::S };
        Tuple { seq, ..Tuple::new(side, key, seq, 0) }
    };
    spec.chars().zip(first_seq..).map(tuple).collect()
}

/// Result of exploring every schedule of the bounded scenario.
#[derive(Debug)]
pub enum CheckOutcome {
    /// Every schedule satisfied every invariant.
    Pass {
        /// Distinct global states explored.
        states: usize,
        /// Distinct complete schedules (maximal DAG paths).
        schedules: u128,
        /// Join pairs each schedule must produce.
        expected_pairs: usize,
        /// Protocol paths some schedule took.
        covered: BTreeSet<&'static str>,
    },
    /// Some schedule violated an invariant.
    Violation {
        /// Why the schedule is wrong.
        reason: String,
        /// The shortest offending schedule, one action per line.
        trace: Vec<String>,
        /// States explored before the violation was found.
        states: usize,
    },
}

/// A queue of the model, named by who reads it: instance `i`'s one inbox
/// (shards, sequencer, monitor and peer all write to it) is port `i`.
type Port = usize;
/// Instances' `Route`s.
const SEQ_CTRL: Port = INSTANCES;
/// The shards' acks, EOS reports and restart notices.
const SEQ_NOTES: Port = INSTANCES + 1;
/// `MigrationDone`s.
const MONITOR: Port = INSTANCES + 2;
/// Shard `k`'s publications are port `SHARD_CTRL + k` (the sequencer is the
/// only sender).
const SHARD_CTRL: Port = INSTANCES + 3;
/// The collector: a sink with no queue — a send to it lands in
/// [`State::reports`] (see [`Explorer::sent`]).
const COLLECTOR: Port = Port::MAX;

/// Everything the model's queues carry.
#[derive(Debug, Clone)]
enum Msg {
    /// Into an instance's inbox: a shard flush, migration control, the
    /// sequencer's end-of-stream broadcast.
    Rt(RtMsg),
    /// One step's report batch.
    Reports(Vec<ProbeReport>),
    Ctrl(DispatcherMsg),
    Note(ShardNote),
    Publish(RouteSnapshot),
    Done(MigrationDone),
}

/// A message with its interned summary id (what fingerprints compare).
type Queued = (u16, Rc<Msg>);

/// Scripted selector: proposes moving the hot key, so every exploration is
/// deterministic given the schedule. With `only_if_stored`, a source that
/// stores nothing of it finds nothing worth moving and abandons the round.
#[derive(Clone)]
struct HotKeySelector {
    only_if_stored: bool,
}

impl KeySelector for HotKeySelector {
    fn select(
        &mut self,
        _: InstanceLoad,
        _: InstanceLoad,
        keys: &[KeyStat],
        _: f64,
    ) -> MigrationPlan {
        let stored = keys.iter().any(|k| k.key == HOT_KEY && k.stored > 0);
        // The benefit must be positive: instances abandon zero-benefit
        // plans (they rebalance nothing).
        MigrationPlan {
            keys: if stored || !self.only_if_stored { vec![HOT_KEY] } else { Vec::new() },
            total_benefit: 1.0,
            tuples_to_move: 0,
            predicted_delta: 0.0,
        }
    }

    fn name(&self) -> &'static str {
        "hot-key"
    }
}

#[derive(Clone)]
struct ShardNode {
    core: Shard,
    /// Next unread position of the script (`len` = EOS, `len + 1` = done).
    pos: usize,
}

#[derive(Clone)]
struct InstNode {
    stage: InstanceStage,
    /// Keys whose store this instance handed to a migration target (it
    /// processed the round's `RouteUpdated`) and did not get back.
    handed_off: Vec<Key>,
    /// A `MigStore` held back by [`Variant::ForwardBeforeStore`].
    deferred_store: Option<InstOut>,
}

/// An instance after one more input, with what the step handed out: the
/// pairs, and the outputs as the queue entries they are sent as.
struct Stepped {
    node: Rc<InstNode>,
    pairs: Vec<(u64, u64)>,
    out: Vec<(Port, Queued)>,
}

/// One global state of the model.
#[derive(Clone)]
struct State {
    shards: Vec<Rc<ShardNode>>,
    seq: Rc<Sequencer>,
    insts: Vec<Rc<InstNode>>,
    /// The scripted monitor: rounds closed so far (round `closed` is in
    /// flight if there is one).
    rounds_closed: usize,
    crashes_left: u8,
    inst_crashes_left: u8,
    /// Per node: outputs of its last step not yet sent.
    outbox: Vec<VecDeque<(Port, Queued)>>,
    /// Per [`Port`].
    queues: Vec<VecDeque<Queued>>,
    /// Joined `(r_seq, s_seq)` pairs in emission order.
    joined: Rc<Vec<(u64, u64)>>,
    /// Every probe report the collector was sent, in arrival order.
    reports: Rc<Vec<ProbeReport>>,
    /// Per node: the id of the sequence of inputs it has consumed (see
    /// [`Explorer::consume`]).
    histories: Vec<u32>,
}

/// A transition out of a state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Action {
    /// The spout hands shard `k` its next scripted message.
    Spout(usize),
    /// `node` receives the head of `port`.
    Recv(usize, Port),
    /// `node` sends the head of its output sequence.
    Send(usize),
    /// Shard `k` crashes and is restarted by its supervisor.
    Crash(usize),
    /// Instance `i` crashes and recovers: while idle, before it receives
    /// the head of its inbox (`false`), or inside the step on that message,
    /// its outputs computed and none of them sent (`true`).
    CrashInst(usize, bool),
}

/// Why a schedule is invalid, raised during or at the end of exploration.
type Bad = String;

/// The bounded scenario plus exploration bookkeeping.
struct Explorer {
    variant: Variant,
    sc: Scenario,
    scripts: Vec<Vec<Tuple>>,
    /// `(r_seq, s_seq)` pairs every complete schedule must join.
    expected: Vec<(u64, u64)>,
    /// Scripted S tuples: each probes the R group once.
    probes: u64,
    /// Interning table: message summary → compact id.
    intern: HashMap<String, u16>,
    /// Hash-consed input histories: `(history, next input)` → the longer
    /// history's id. 0 is the empty history.
    histories: HashMap<(u32, u16), u32>,
    /// Instance steps already taken, by instance and the history the step
    /// completes (see [`Explorer::instance_step`]).
    stepped: HashMap<(usize, u32), Rc<Stepped>>,
    /// Protocol paths taken by some explored transition.
    covered: BTreeSet<&'static str>,
    /// The shards' (disabled) trace ring.
    ring: TraceRing,
    /// Node ids: shards `0..N`, then the sequencer, the instances (from
    /// `inst0`), the monitor.
    seq_node: usize,
    inst0: usize,
    mon_node: usize,
}

/// History entries for the inputs that are not messages.
const EV_SPOUT: u16 = u16::MAX - 1;
const EV_CRASH: u16 = u16::MAX - 2;
/// An instance crash inside the step on the input before it ([`EV_CRASH`]
/// is its crash while idle).
const EV_CRASH_STEP: u16 = u16::MAX - 3;

impl Explorer {
    fn new(variant: Variant) -> Self {
        let sc = scenario(variant);
        let n = sc.scripts.len();
        let mut scripts: Vec<Vec<Tuple>> = Vec::new();
        for spec in sc.scripts {
            scripts.push(script(spec, scripts.iter().map(Vec::len).sum::<usize>() as u64 + 1));
        }
        // Expected pairs: same key, R scripted before S — per-shard script
        // order is the per-key arrival order, since one shard carries a
        // key's every tuple (the R group stores only R).
        let mut expected = Vec::new();
        for script in &scripts {
            for (ri, r) in script.iter().enumerate() {
                for s in script.iter().skip(ri + 1) {
                    if r.side == Side::R && s.side == Side::S && s.key == r.key {
                        expected.push((r.seq, s.seq));
                    }
                }
            }
        }
        expected.sort_unstable();
        let probes = scripts.iter().flatten().filter(|t| t.side == Side::S).count() as u64;
        Explorer {
            variant,
            sc,
            scripts,
            expected,
            probes,
            intern: HashMap::new(),
            histories: HashMap::new(),
            stepped: HashMap::new(),
            covered: BTreeSet::new(),
            ring: TraceRing::new(Actor::dispatcher(), &TraceConfig::disabled()),
            seq_node: n,
            inst0: n + 1,
            mon_node: n + 1 + INSTANCES,
        }
    }

    fn shards(&self) -> usize {
        self.scripts.len()
    }

    fn node_name(&self, node: usize) -> String {
        match node.checked_sub(self.seq_node) {
            None => format!("shard{node}"),
            Some(0) => "sequencer".to_string(),
            Some(i) if i <= INSTANCES => format!("inst{}", i - 1),
            Some(_) => "monitor".to_string(),
        }
    }

    /// The stage's initial table: the hot key on instance 0, the cold key
    /// on instance 1 (overriding the hash default).
    fn initial_table() -> Dispatcher {
        let mut r_part = HashPartitioner::new(INSTANCES, 0);
        assert!(r_part.apply_migration(&[HOT_KEY], 0) && r_part.apply_migration(&[COLD_KEY], 1));
        // The S-group partitioner only routes the (unmodeled) S stores.
        Dispatcher::new(Box::new(r_part), Box::new(HashPartitioner::new(INSTANCES, 1)))
    }

    fn initial_state(&mut self) -> State {
        let n = self.shards();
        let shard = |k| Shard::new(k, Self::initial_table(), self.sc.batch_size);
        let inst = |i| {
            let inst = JoinInstance::new(i, Side::R, None);
            let sel = Box::new(HotKeySelector { only_if_stored: self.sc.abandons });
            let stage = InstanceStage::new(inst, sel, self.sc.checkpoint_every);
            Rc::new(InstNode { stage, handed_off: Vec::new(), deferred_store: None })
        };
        let nodes = self.mon_node + 1;
        let mut state = State {
            shards: (0..n).map(|k| Rc::new(ShardNode { core: shard(k), pos: 0 })).collect(),
            seq: Rc::new(Sequencer::new(Self::initial_table(), n)),
            insts: (0..INSTANCES).map(inst).collect(),
            rounds_closed: 0,
            crashes_left: self.sc.crashes,
            inst_crashes_left: self.sc.inst_crashes,
            outbox: vec![VecDeque::new(); nodes],
            queues: vec![VecDeque::new(); SHARD_CTRL + n],
            joined: Rc::default(),
            reports: Rc::default(),
            histories: vec![0; nodes],
        };
        // The monitor's first command is ready at time zero.
        self.start_round(&mut state);
        state
    }

    /// `msg` with its interned summary id.
    fn queued(&mut self, msg: Msg) -> Queued {
        let next = u16::try_from(self.intern.len()).expect("message table overflow");
        let id = *self.intern.entry(msg_summary(&msg)).or_insert(next);
        assert!(id < EV_CRASH_STEP, "message table overflow");
        (id, Rc::new(msg))
    }

    /// Appends `msg` for `port` to `node`'s output sequence.
    fn emit(&mut self, s: &mut State, node: usize, port: Port, msg: Msg) {
        let queued = self.queued(msg);
        s.outbox[node].push_back((port, queued));
    }

    /// Records that `node` consumed input `event`. A node is a
    /// deterministic function of its input sequence, so the sequence's id
    /// stands for the node's whole state in a fingerprint.
    fn consume(&mut self, s: &mut State, node: usize, event: u16) {
        let next = u32::try_from(self.histories.len() + 1).expect("history table overflow");
        s.histories[node] = *self.histories.entry((s.histories[node], event)).or_insert(next);
    }

    /// Notes that some schedule took protocol path `what`.
    fn saw(&mut self, what: &'static str) {
        self.covered.insert(what);
    }

    /// The monitor commands the round now in flight, if one is left.
    fn start_round(&mut self, s: &mut State) {
        if let Some(&(epoch, source, target)) = self.sc.rounds.get(s.rounds_closed) {
            let cmd =
                InstanceMsg::MigrateCmd { epoch, target, target_load: InstanceLoad::default() };
            self.emit(s, self.mon_node, source, Msg::Rt(RtMsg::Inst(cmd)));
        }
    }

    fn enabled(&self, s: &State) -> Vec<Action> {
        let mut acts = Vec::new();
        // A step that commutes with every step of every other node, and
        // whose node has no alternative but steps of its own that do too:
        // explore those alone.
        let mut solo: Option<Vec<Action>> = None;
        let has = |port: Port| !s.queues[port].is_empty();
        for node in 0..=self.mon_node {
            if let Some((port, _)) = s.outbox[node].front() {
                let single_sender =
                    *port >= SHARD_CTRL || (*port == SEQ_NOTES && self.shards() == 1);
                if single_sender {
                    solo = solo.or(Some(vec![Action::Send(node)]));
                }
                acts.push(Action::Send(node));
            } else if node < self.shards() {
                let shard = &s.shards[node];
                if has(SHARD_CTRL + node) {
                    acts.push(Action::Recv(node, SHARD_CTRL + node));
                }
                if shard.pos <= self.scripts[node].len() && !shard.core.resyncing() {
                    acts.push(Action::Spout(node));
                }
                if s.crashes_left > 0 {
                    acts.push(Action::Crash(node));
                }
            } else if node == self.seq_node {
                let barrier = !s.seq.wants_ctrl();
                if !barrier && has(SEQ_CTRL) {
                    acts.push(Action::Recv(node, SEQ_CTRL));
                }
                if has(SEQ_NOTES) {
                    acts.push(Action::Recv(node, SEQ_NOTES));
                    solo = solo.or(barrier.then(|| vec![Action::Recv(node, SEQ_NOTES)]));
                }
            } else if node == self.mon_node {
                if has(MONITOR) {
                    acts.push(Action::Recv(node, MONITOR));
                    solo = solo.or(Some(vec![Action::Recv(node, MONITOR)]));
                }
            } else if has(node - self.inst0) {
                let i = node - self.inst0;
                let mut own = vec![Action::Recv(node, i)];
                if s.inst_crashes_left > 0 {
                    own.extend([Action::CrashInst(i, false), Action::CrashInst(i, true)]);
                }
                acts.extend(&own);
                solo = solo.or(Some(own));
            }
        }
        solo.unwrap_or(acts)
    }

    /// Applies `action` to a copy of `s`: the successor, or the invariant
    /// violation hit.
    fn apply(&mut self, s: &State, action: Action) -> Result<State, Bad> {
        let mut n = s.clone();
        match action {
            Action::Send(node) => {
                let (port, queued) = n.outbox[node].pop_front().expect("enabled ⇒ non-empty");
                n.queues[port].push_back(queued);
                self.sent(&mut n, node)?;
            }
            Action::Spout(k) => {
                self.consume(&mut n, k, EV_SPOUT);
                let shard = Rc::make_mut(&mut n.shards[k]);
                let mut out = VecDeque::new();
                match self.scripts[k].get(shard.pos) {
                    Some(t) => {
                        let routed = shard.core.data(&[*t], t.seq, 0, &mut self.ring, &mut out);
                        assert!(routed, "a resyncing shard is not handed data");
                    }
                    None => shard.core.eos(&mut out),
                }
                shard.pos += 1;
                self.shard_outputs(&mut n, k, out);
            }
            Action::Crash(k) => {
                self.consume(&mut n, k, EV_CRASH);
                n.crashes_left -= 1;
                let shard = Rc::make_mut(&mut n.shards[k]);
                let mut out = VecDeque::new();
                if self.variant == Variant::ShardedRestartNoFence {
                    // The bug under test: salvage the pending batches, but
                    // start over with a shard that remembers no fence.
                    shard.core.tick(u64::MAX, 0, &mut out);
                    shard.core = Shard::new(k, Self::initial_table(), self.sc.batch_size);
                    out.push_back(ShardOut::Note(ShardNote::Restarted { shard: k, fence: 0 }));
                } else {
                    shard.core.restart(Self::initial_table(), &mut out);
                }
                self.shard_outputs(&mut n, k, out);
            }
            Action::Recv(node, port) => {
                let msg = self.take_head(&mut n, node, port);
                self.receive(&mut n, node, msg)?;
            }
            Action::CrashInst(i, in_step) => {
                let node = self.inst0 + i;
                n.inst_crashes_left -= 1;
                let msg = in_step.then(|| match self.take_head(&mut n, node, i) {
                    Msg::Rt(msg) => msg,
                    _ => unreachable!("an instance's inbox carries RtMsgs only"),
                });
                self.consume(&mut n, node, if in_step { EV_CRASH_STEP } else { EV_CRASH });
                self.instance_step(&mut n, i, msg, true)?;
            }
        }
        Ok(n)
    }

    /// `node` takes the head of `port` (and its history records it).
    fn take_head(&mut self, n: &mut State, node: usize, port: Port) -> Msg {
        let (id, msg) = n.queues[port].pop_front().expect("enabled ⇒ non-empty");
        self.consume(n, node, id);
        Rc::try_unwrap(msg).unwrap_or_else(|shared| (*shared).clone())
    }

    /// `node` has sent an output (or computed a step's). A report batch
    /// next in line goes out with it: the collector is a sink, so that
    /// send commutes with every other step and needs no state of its own.
    /// The real ledger cannot see a one-part probe reported twice (it
    /// opens no entry for one), so that is checked here, as the batch
    /// arrives.
    fn sent(&mut self, n: &mut State, node: usize) -> Result<(), Bad> {
        while let Some((COLLECTOR, (_, msg))) = n.outbox[node].front() {
            let Msg::Reports(reports) = &**msg else { unreachable!("the collector's port") };
            for r in reports {
                let parts = n.reports.iter().filter(|seen| seen.seq == r.seq).count();
                if parts >= r.fanout as usize {
                    return Err(format!(
                        "probe {} reported twice: the collector already holds all {} part(s) of \
                         it — a torn step's report batch survived its instance's recovery",
                        r.seq, r.fanout
                    ));
                }
                Rc::make_mut(&mut n.reports).push(*r);
            }
            n.outbox[node].pop_front();
        }
        Ok(())
    }

    /// `node` consumes `msg`; what it answers joins its output sequence.
    fn receive(&mut self, n: &mut State, node: usize, msg: Msg) -> Result<(), Bad> {
        let inst = node.wrapping_sub(self.inst0);
        let mut seq_out = VecDeque::new();
        match msg {
            Msg::Publish(snap) => {
                let mut out = VecDeque::new();
                Rc::make_mut(&mut n.shards[node]).core.publish(snap, &mut out);
                self.shard_outputs(n, node, out);
            }
            Msg::Ctrl(m) => Rc::make_mut(&mut n.seq).ctrl(m, &mut seq_out),
            Msg::Note(note) => Rc::make_mut(&mut n.seq).note(note, &mut seq_out),
            Msg::Done(done) => self.monitor_done(n, done)?,
            Msg::Rt(msg) => self.instance_step(n, inst, Some(msg), false)?,
            Msg::Reports(_) => unreachable!("the collector is a sink, not a queue"),
        }
        self.seq_outputs(n, seq_out);
        Ok(())
    }

    /// Queues a shard step's outputs in the order they are sent.
    fn shard_outputs(&mut self, n: &mut State, k: usize, mut out: VecDeque<ShardOut>) {
        if self.variant == Variant::ShardedAckBeforeFlush {
            // The bug under test: notes overtake the flushes before them.
            out.make_contiguous().sort_by_key(|o| matches!(o, ShardOut::Flush { .. }));
        }
        for o in out {
            match o {
                ShardOut::Flush { group: 0, dest, items } => {
                    self.emit(n, k, dest, Msg::Rt(RtMsg::Data(items)));
                }
                ShardOut::Flush { .. } => {} // the S group is not modeled
                ShardOut::Note(note) => self.emit(n, k, SEQ_NOTES, Msg::Note(note)),
            }
        }
    }

    /// Queues a sequencer step's outputs in the order they are sent.
    fn seq_outputs(&mut self, n: &mut State, out: VecDeque<SeqOut>) {
        let node = self.seq_node;
        let no_barrier = self.variant == Variant::ShardedNoBarrier;
        for o in out {
            match o {
                SeqOut::Publish { shard, snapshot } => {
                    self.emit(n, node, SHARD_CTRL + shard, Msg::Publish(snapshot));
                }
                SeqOut::ToInstance { msg: InstanceMsg::RouteUpdated { .. }, .. } if no_barrier => {}
                SeqOut::ToInstance { dest, msg, .. } => {
                    self.emit(n, node, dest, Msg::Rt(RtMsg::Inst(msg)));
                }
                SeqOut::BroadcastEos => {
                    for i in 0..INSTANCES {
                        self.emit(n, node, i, Msg::Rt(RtMsg::Eos));
                    }
                }
                SeqOut::Event(SeqEvent { did: Did::Applied, epoch, .. }) if no_barrier => {
                    // The bug under test: the source hears of the flip when
                    // it is applied, not when every shard acked.
                    let round = self.sc.rounds.iter().find(|r| r.0 == epoch);
                    let source = round.expect("a scripted round").1;
                    let msg = InstanceMsg::RouteUpdated { epoch };
                    self.emit(n, node, source, Msg::Rt(RtMsg::Inst(msg)));
                }
                SeqOut::Event(_) => {}
            }
        }
    }

    /// The monitor closes the round `done` reports and starts the next.
    /// Every round closes with exactly one `MigrationDone`, and only once
    /// no instance is engaged in it.
    fn monitor_done(&mut self, n: &mut State, done: MigrationDone) -> Result<(), Bad> {
        let expected = n.rounds_closed as u64 + 1;
        if done.epoch != expected {
            return Err(format!(
                "monitor saw MigrationDone epoch {}, expected {expected} — epochs must be \
                 strictly sequential, one completion per round",
                done.epoch
            ));
        }
        for (i, node) in n.insts.iter().enumerate() {
            if let MigrationState::Source { epoch, .. } | MigrationState::Target { epoch, .. } =
                node.stage.instance().migration_state()
            {
                return Err(format!(
                    "round {} opens while round {epoch} is still engaged at inst{i}",
                    done.epoch + 1
                ));
            }
        }
        n.rounds_closed += 1;
        self.start_round(n);
        Ok(())
    }

    /// Instance `i` consumes `msg` (its history already says so) and what
    /// it answers joins its output sequence. A node is a function of the
    /// inputs it consumed, so each history is stepped once
    /// ([`Explorer::step`]) and every state that reaches it shares the
    /// result.
    fn instance_step(
        &mut self,
        n: &mut State,
        i: usize,
        msg: Option<RtMsg>,
        crash: bool,
    ) -> Result<(), Bad> {
        let from = self.inst0 + i;
        let history = (i, n.histories[from]);
        let stepped = match self.stepped.get(&history) {
            Some(known) => Rc::clone(known),
            None => {
                let new = Rc::new(self.step(&n.insts[i], i, msg, crash)?);
                self.stepped.insert(history, Rc::clone(&new));
                new
            }
        };
        n.insts[i] = Rc::clone(&stepped.node);
        for key in &stepped.pairs {
            if n.joined.contains(key) || !self.expected.contains(key) {
                return Err(format!("pair (r_seq, s_seq) = {key:?} joined twice, or is no match"));
            }
            Rc::make_mut(&mut n.joined).push(*key);
        }
        n.outbox[from].extend(stepped.out.iter().cloned());
        self.sent(n, from)
    }

    /// Takes a copy of instance `i` through its stage — commit, accept,
    /// step. With `crash`, it crashes first: idle (`msg` is `None`), or
    /// inside the step, whose outputs the shell drops before
    /// [`InstanceStage::recover`] computes them anew.
    fn step(
        &mut self,
        before: &InstNode,
        i: usize,
        msg: Option<RtMsg>,
        crash: bool,
    ) -> Result<Stepped, Bad> {
        let mut node = before.clone();
        // An instance takes its next step (or crashes idle) only once the
        // outputs of its last one are all sent: that message is committed
        // — logged, checkpointed when due — now.
        node.stage.commit();
        let round = node.stage.instance().migration_state();
        if crash {
            if node.stage.log_len() > 0 {
                self.saw("an instance crashed with a message to replay");
            }
            self.saw(match round {
                MigrationState::Source { .. } => "an instance crashed as the round's source",
                MigrationState::Target { .. } => "an instance crashed as the round's target",
                MigrationState::Idle => "an instance crashed outside the round",
            });
        }
        match (&msg, round) {
            (Some(RtMsg::Data(_)), _) if node.stage.saw_eos() => {
                return Err(format!("inst{i} received shard data behind the EOS broadcast"));
            }
            (Some(RtMsg::Data(items)), _) => {
                let stale = items.iter().find(|t| node.handed_off.contains(&t.key));
                if let Some(t) = stale {
                    // The invariant the barrier exists for: no data for a
                    // migrated-away key may arrive after the store left.
                    // (The tuple would be stored where no probe looks, or
                    // probe where nothing is stored.)
                    return Err(format!(
                        "stale delivery: {} reached inst{i} after it handed the key's store \
                         away — {}",
                        tuple_summary(t),
                        self.variant.stale_cause()
                    ));
                }
            }
            (
                Some(RtMsg::Inst(InstanceMsg::RouteUpdated { .. })),
                MigrationState::Source { keys, .. },
            ) => node.handed_off.extend(keys.iter().copied()),
            (Some(RtMsg::Inst(InstanceMsg::MigStart { keys, .. })), _) => {
                node.handed_off.retain(|k| !keys.contains(k))
            }
            _ => {}
        }
        let violation = |e| format!("protocol violation: {e}");
        let mut out = VecDeque::new();
        let mut pairs = Vec::new();
        let mut sink = |p: JoinedPair| pairs.push((p.left.seq, p.right.seq));
        let stepping = msg.is_some();
        if let Some(msg) = msg {
            node.stage.accept(msg);
        }
        if crash {
            if stepping {
                // The torn step: its pairs never left, and of its outputs
                // the shell keeps nothing — or, the bug under test, the
                // report batch.
                node.stage.step(0, &mut self.ring, &mut |_| {}, &mut out).map_err(violation)?;
                let keep = self.variant == Variant::InstanceRestartKeepsReports;
                out.retain(|o| keep && matches!(o, InstOut::Reports(_)));
            }
            node.stage.recover(0, &mut self.ring, &mut sink, &mut out).map_err(violation)?;
        } else {
            node.stage.step(0, &mut self.ring, &mut sink, &mut out).map_err(violation)?;
        }
        let mut out = Vec::from(out);
        if self.variant == Variant::ForwardBeforeStore {
            // The bug under test: the store payload is held back until
            // after MigForward.
            let is = |o: &InstOut, store: bool| match o {
                InstOut::Peer { msg: InstanceMsg::MigStore { .. }, .. } => store,
                InstOut::Peer { msg: InstanceMsg::MigForward { .. }, .. } => !store,
                _ => false,
            };
            if let Some(at) = out.iter().position(|o| is(o, true)) {
                node.deferred_store = Some(out.remove(at));
            }
            if let Some(at) = out.iter().position(|o| is(o, false)) {
                out.splice(at + 1..at + 1, node.deferred_store.take());
            }
        }
        // Front to back: the order the stage computed is the order sent.
        let notify_first = self.variant == Variant::NaiveNotifyFirst;
        let mut sends = Vec::with_capacity(out.len());
        for o in out {
            let (port, msg) = match o {
                InstOut::Peer { to, msg: InstanceMsg::MigStart { epoch, from, keys } }
                    if notify_first =>
                {
                    // The bug under test: the source asks for the flip as
                    // soon as it has selected the keys, ahead of MigStart.
                    let req = RouteRequest { epoch, keys: keys.clone(), target: to, source: from };
                    let route = Msg::Ctrl(DispatcherMsg::Route { group: 0, req });
                    sends.push((SEQ_CTRL, self.queued(route)));
                    (to, Msg::Rt(RtMsg::Inst(InstanceMsg::MigStart { epoch, from, keys })))
                }
                InstOut::Peer { to, msg } => (to, Msg::Rt(RtMsg::Inst(msg))),
                // Every round's flip was asked for at its MigStart; the
                // target's own request would apply it a second time.
                InstOut::Route(_) if notify_first => continue,
                InstOut::Route(req) => {
                    (SEQ_CTRL, Msg::Ctrl(DispatcherMsg::Route { group: 0, req }))
                }
                InstOut::Done(done) => {
                    if done.keys_moved == 0 {
                        self.saw("round closed without moving anything");
                    }
                    (MONITOR, Msg::Done(done))
                }
                InstOut::Reports(reports) => {
                    // A probe is served once, at one instance: every match
                    // it will ever find, it has found.
                    for r in &reports {
                        let due = self.expected.iter().filter(|(_, s)| *s == r.seq).count() as u64;
                        if r.matches < due {
                            return Err(format!(
                                "join incomplete: probe seq {} found {} of its {due} matches at \
                                 inst{i} — the stored tuples it must meet were not there",
                                r.seq, r.matches
                            ));
                        }
                    }
                    (COLLECTOR, Msg::Reports(reports))
                }
                // No monitor period in the model; events are bookkeeping.
                InstOut::Load(_) | InstOut::Event(_) => continue,
            };
            sends.push((port, self.queued(msg)));
        }
        Ok(Stepped { node: Rc::new(node), pairs, out: sends })
    }

    /// Checks the invariants that must hold once no transition is enabled.
    fn check_terminal(&self, s: &State) -> Result<(), Bad> {
        let stuck = |what: String| Err(format!("stuck at quiescence: {what}"));
        for (k, shard) in s.shards.iter().enumerate() {
            if shard.core.resyncing() || shard.pos <= self.scripts[k].len() {
                return stuck(format!("shard{k} resyncing, or its input unfinished"));
            }
        }
        if !s.seq.wants_ctrl() {
            return stuck("a publication barrier never closed".to_string());
        }
        if let Some(port) = s.queues.iter().position(|q| !q.is_empty()) {
            return stuck(format!("queue {port} never drained"));
        }
        for InstNode { stage, .. } in s.insts.iter().map(Rc::as_ref) {
            let (inst, eos) = (stage.instance(), stage.saw_eos());
            if !inst.migration_state().is_idle() || !eos {
                return Err(format!(
                    "instance {} at quiescence: saw EOS = {eos}, migration state {:?}",
                    inst.id(),
                    inst.migration_state()
                ));
            }
        }
        if s.rounds_closed != self.sc.rounds.len() {
            return Err(format!(
                "only {}/{} migration rounds completed at quiescence",
                s.rounds_closed,
                self.sc.rounds.len()
            ));
        }
        let mut joined = (*s.joined).clone();
        joined.sort_unstable();
        if joined != self.expected {
            let missing: Vec<_> = self.expected.iter().filter(|p| !joined.contains(p)).collect();
            return Err(format!("join incomplete: joined {joined:?}, missing {missing:?}"));
        }
        // The collector's fold: every part through the real ledger.
        let mut ledger = ProbeAccountant::new();
        for r in s.reports.iter() {
            ledger.on_probe(r.seq, r.fanout, 0).map_err(|e| format!("probe accounting: {e}"))?;
        }
        let (probes, _) = ledger.finish().map_err(|e| format!("probe accounting: {e}"))?;
        let matches: u64 = s.reports.iter().map(|r| r.matches).sum();
        if (probes, matches) != (self.probes, self.expected.len() as u64) {
            return Err(format!(
                "the collector counted {probes} probes and {matches} matches; {} probes were \
                 scripted and {} pairs expected — a probe was never reported, or reported twice",
                self.probes,
                self.expected.len()
            ));
        }
        Ok(())
    }

    /// State fingerprint: per-node histories, then what every output
    /// sequence and every queue holds. Histories alone are not enough: the
    /// shared queues mean two schedules with identical per-node histories
    /// can still differ in cross-sender enqueue order, which is exactly the
    /// order the barrier argument is about.
    fn fingerprint(s: &State) -> Box<[u16]> {
        let mut key = Vec::with_capacity(64);
        for h in &s.histories {
            key.extend([(h >> 16) as u16, *h as u16]);
        }
        for outbox in &s.outbox {
            key.extend(outbox.iter().map(|(_, (id, _))| *id));
            key.push(u16::MAX); // separator — never a valid id
        }
        for queue in &s.queues {
            key.extend(queue.iter().map(|(id, _)| *id));
            key.push(u16::MAX);
        }
        key.into_boxed_slice()
    }

    /// What `action` does in `s`, for a counterexample trace.
    fn describe(&self, s: &State, action: Action) -> String {
        let port_name = |port: Port| match port.checked_sub(SHARD_CTRL) {
            Some(k) => format!("shard{k}"),
            None if port < INSTANCES => format!("inst{port}"),
            None if port == MONITOR => "monitor".to_string(),
            None => "sequencer".to_string(),
        };
        match action {
            Action::Spout(k) => {
                let next = self.scripts[k].get(s.shards[k].pos);
                format!("spout → shard{k}: {}", next.map_or("Eos".to_string(), tuple_summary))
            }
            Action::Recv(node, port) => {
                let head = s.queues[port].front().map(|(_, m)| msg_summary(m));
                format!("{} ← {}", self.node_name(node), head.unwrap_or_default())
            }
            Action::Send(node) => {
                let (to, what) = s.outbox[node]
                    .front()
                    .map_or_else(Default::default, |(p, (_, m))| (port_name(*p), msg_summary(m)));
                format!("{} → {to}: {what}", self.node_name(node))
            }
            Action::Crash(k) => {
                let fence = s.shards[k].core.fence();
                if self.variant == Variant::ShardedRestartNoFence {
                    format!(
                        "shard{k} crashes; its replacement starts WITHOUT the fence (was {fence})"
                    )
                } else {
                    format!("shard{k} crashes; supervisor restarts it behind fence {fence}")
                }
            }
            Action::CrashInst(i, in_step) => {
                let head = s.queues[i].front().map(|(_, m)| msg_summary(m)).unwrap_or_default();
                let keeps = self.variant == Variant::InstanceRestartKeepsReports;
                let kept = if keeps { "all but its report batch" } else { "all" };
                if in_step {
                    format!(
                        "inst{i} ← {head}, and crashes inside the step; the shell drops {kept} of \
                         the step's unsent outputs and the stage recovers"
                    )
                } else {
                    format!("inst{i} crashes idle, ahead of {head}; the stage recovers")
                }
            }
        }
    }
}

fn tuple_summary(t: &Tuple) -> String {
    format!("{:?} key={} (seq {})", t.side, t.key, t.seq)
}

/// A message's content in one line: what traces print and what state
/// fingerprints compare (so it leaves out nothing a receiver reads).
fn msg_summary(m: &Msg) -> String {
    match m {
        // Only the R group is modeled: an R tuple is stored, an S tuple
        // probes with the fan-out it carries.
        Msg::Rt(RtMsg::Data(items)) => items.iter().fold("Data".to_string(), |mut out, t| {
            let _ = match t.side {
                Side::R => write!(out, " [store {}]", tuple_summary(t)),
                Side::S => write!(out, " [probe {} ×{}]", tuple_summary(t), t.fanout),
            };
            out
        }),
        Msg::Rt(RtMsg::Inst(m)) => format!("{m:?}"),
        Msg::Rt(m @ (RtMsg::ReportRequest | RtMsg::Eos)) => format!("{m:?}"),
        Msg::Reports(reports) => reports.iter().fold("Reports".to_string(), |mut out, r| {
            let _ = write!(out, " [probe seq {}: {} matches]", r.seq, r.matches);
            out
        }),
        Msg::Publish(snap) => {
            let mut r_group = snap.parts[0].clone();
            format!("Publish epoch={} hot→inst{}", snap.epoch, r_group.store_route(HOT_KEY))
        }
        Msg::Ctrl(m) => format!("{m:?}"),
        Msg::Note(n) => format!("{n:?}"),
        Msg::Done(d) => format!("{d:?}"),
    }
}

/// Reconstructs the action descriptions along the parent chain ending at
/// `node`, by replaying from the initial state.
fn rebuild_trace(
    explorer: &mut Explorer,
    parents: &[(u32, Action)],
    node: usize,
    last_action: Option<Action>,
) -> Vec<String> {
    // Collect the action path root → node.
    let mut actions: Vec<Action> = last_action.into_iter().collect();
    let mut cur = node;
    while cur != 0 {
        let (parent, act) = parents[cur];
        actions.push(act);
        cur = parent as usize;
    }
    actions.reverse();

    let mut state = explorer.initial_state();
    let mut out = Vec::with_capacity(actions.len());
    for (step, act) in actions.iter().enumerate() {
        let desc = explorer.describe(&state, *act);
        match explorer.apply(&state, *act) {
            Ok(next) => {
                out.push(format!("{:>3}. {desc}", step + 1));
                state = next;
            }
            // The final step is the violating one.
            Err(bad) => out.push(format!("{:>3}. {desc} — {bad}", step + 1)),
        }
    }
    out
}

/// Explores every schedule of the bounded scenario under `variant` and
/// checks the protocol invariants on each.
#[must_use]
pub fn check(variant: Variant) -> CheckOutcome {
    let mut explorer = Explorer::new(variant);
    let initial = explorer.initial_state();

    // BFS over deduplicated states. States are expanded in index order, so
    // state i's successors are `edges[first_edge[i]..first_edge[i + 1]]`.
    let mut visited: HashMap<Box<[u16]>, u32> = HashMap::new();
    let mut parents: Vec<(u32, Action)> = vec![(0, Action::Spout(0))]; // [0] unused
    let mut edges: Vec<u32> = Vec::new();
    let mut first_edge: Vec<usize> = Vec::new();
    let mut frontier: Vec<(u32, State)> = vec![(0, initial)];
    visited.insert(Explorer::fingerprint(&frontier[0].1), 0);

    while !frontier.is_empty() {
        let mut next_frontier: Vec<(u32, State)> = Vec::new();
        for (idx, state) in frontier.drain(..) {
            first_edge.push(edges.len());
            let acts = explorer.enabled(&state);
            let mut failed = if acts.is_empty() {
                explorer.check_terminal(&state).err().map(|bad| (bad, None))
            } else {
                None
            };
            for act in acts {
                match explorer.apply(&state, act) {
                    Ok(next) => {
                        let new_idx = u32::try_from(parents.len()).expect("state index overflow");
                        let known = *visited.entry(Explorer::fingerprint(&next)).or_insert(new_idx);
                        edges.push(known);
                        if known == new_idx {
                            parents.push((idx, act));
                            next_frontier.push((new_idx, next));
                        }
                    }
                    Err(bad) => failed = failed.or(Some((bad, Some(act)))),
                }
            }
            if let Some((bad, last)) = failed {
                let trace = rebuild_trace(&mut explorer, &parents, idx as usize, last);
                return CheckOutcome::Violation { reason: bad, trace, states: visited.len() };
            }
        }
        frontier = next_frontier;
    }
    first_edge.push(edges.len());

    // Schedule count: number of root→terminal paths. Every action advances
    // total progress by one, so discovery (BFS) order is topological and a
    // single reverse sweep suffices. A state without successors is terminal.
    let mut paths: Vec<u128> = vec![0; parents.len()];
    for i in (0..parents.len()).rev() {
        let succs = &edges[first_edge[i]..first_edge[i + 1]];
        paths[i] = if succs.is_empty() {
            1
        } else {
            succs.iter().map(|&s| paths[s as usize]).fold(0u128, u128::saturating_add)
        };
    }

    CheckOutcome::Pass {
        states: visited.len(),
        schedules: paths[0],
        expected_pairs: explorer.expected.len(),
        covered: explorer.covered,
    }
}

/// Renders an outcome for the CLI; returns whether the variant passed.
#[must_use]
pub fn report(outcome: &CheckOutcome, variant: Variant) -> bool {
    let (name, bounds) = (variant.name(), format!("{:?}", scenario(variant)));
    match outcome {
        CheckOutcome::Pass { states, schedules, expected_pairs, covered } => {
            println!(
                "check-protocol [{name}]: OK — {schedules} schedules over {states} distinct \
                 states ({bounds}); every schedule joined all {expected_pairs} expected pairs \
                 exactly once and reported every probe once, with monotone epochs"
            );
            if !covered.is_empty() {
                let paths: Vec<&str> = covered.iter().copied().collect();
                println!("  paths some schedule took: {}", paths.join("; "));
            }
            true
        }
        CheckOutcome::Violation { reason, trace, states } => {
            let mut out = String::new();
            let _ =
                writeln!(out, "check-protocol [{name}]: FAILED after {states} states — {reason}");
            let _ = writeln!(out, "  ({bounds})");
            let _ = writeln!(out, "shortest counterexample schedule ({} steps):", trace.len());
            for line in trace {
                let _ = writeln!(out, "{line}");
            }
            eprint!("{out}");
            false
        }
    }
}

/// Runs every variant; true when each verdict is the one [`VARIANTS`]
/// expects (a known-bad variant that passes is as wrong as a good one
/// that fails).
#[must_use]
pub fn check_all() -> bool {
    let mut as_expected = true;
    for &(name, variant, expect_pass) in VARIANTS {
        let started = std::time::Instant::now();
        let passed = report(&check(variant), variant);
        let verdict = if passed == expect_pass { "as expected" } else { "NOT AS EXPECTED" };
        let expected = if expect_pass { "must pass" } else { "must keep failing" };
        println!("  [{name}] {expected}: {verdict} ({:.1} s)", started.elapsed().as_secs_f64());
        as_expected &= passed == expect_pass;
    }
    as_expected
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A passing variant's `(states, schedules, pairs, covered)`.
    fn pass(variant: Variant) -> (usize, u128, usize, BTreeSet<&'static str>) {
        match check(variant) {
            CheckOutcome::Pass { states, schedules, expected_pairs, covered } => {
                assert!(states > 1_000, "scenario too small to be meaningful: {states} states");
                assert!(schedules > 1_000, "expected many schedules, got {schedules}");
                (states, schedules, expected_pairs, covered)
            }
            CheckOutcome::Violation { reason, trace, .. } => {
                panic!("{} must pass, got: {reason}\n{}", variant.name(), trace.join("\n"));
            }
        }
    }

    /// A known-bad variant's reason, with its (short) trace appended.
    fn violation(variant: Variant) -> String {
        match check(variant) {
            CheckOutcome::Violation { reason, trace, .. } => {
                assert!(!trace.is_empty(), "counterexample trace must not be empty");
                assert!(trace.len() <= 40, "BFS should find a short counterexample: {trace:#?}");
                format!("{reason}\n{}", trace.join("\n"))
            }
            CheckOutcome::Pass { .. } => panic!("{} must be caught", variant.name()),
        }
    }

    #[test]
    fn the_shipped_protocol_passes_exhaustively_behind_one_shard_and_two() {
        assert_eq!(pass(Variant::Safe).2, 3);
        assert_eq!(pass(Variant::Sharded).2, 4);
    }

    #[test]
    fn every_known_bad_variant_fails_for_the_cause_its_name_says() {
        for (variant, what, cause) in [
            // Either reorder loses a probe's matches.
            (Variant::NaiveNotifyFirst, "join incomplete", "were not there"),
            (Variant::ForwardBeforeStore, "join incomplete", "were not there"),
            (Variant::ShardedNoBarrier, "stale delivery", "after RouteUpdated left"),
            (Variant::ShardedRestartNoFence, "stale delivery", "stale ack"),
            (Variant::ShardedAckBeforeFlush, "stale delivery", "ahead of data"),
            // The collector is told of one probe twice.
            (Variant::InstanceRestartKeepsReports, "reported twice", "survived its instance's"),
        ] {
            let why = violation(variant);
            assert!(why.contains(what) && why.contains(cause), "{}: {why}", variant.name());
        }
    }

    /// Minutes of CPU and ~6 GB, so `cargo test --workspace` skips it; CI
    /// proves it on every push (`cargo xtask check-protocol --all`).
    #[test]
    #[ignore = "exhaustive (minutes); CI runs it via the protocol job"]
    fn sharded_shard_restart_with_fence_passes_exhaustively() {
        assert_eq!(pass(Variant::ShardedShardRestart).2, 3);
    }

    /// One crash per schedule, before any receive of either instance or
    /// inside any of its steps: each of the four pairs still joins once
    /// and each of the three probes is reported once — and the crash did
    /// fall on the round's source and target, with a message to replay.
    #[test]
    fn instance_restart_passes_with_a_crash_at_every_point_of_the_round() {
        let (.., pairs, covered) = pass(Variant::InstanceRestart);
        assert_eq!(pairs, 4);
        for path in [
            "an instance crashed as the round's source",
            "an instance crashed as the round's target",
            "an instance crashed outside the round",
            "an instance crashed with a message to replay",
        ] {
            assert!(covered.contains(path), "no schedule took `{path}`: {covered:?}");
        }
    }

    /// The checker's one scenario where a command finds nothing to move:
    /// the abandoned round closes and the next one starts behind it.
    #[test]
    fn sharded_abandon_passes_and_closes_a_round_that_moved_nothing() {
        let (.., pairs, covered) = pass(Variant::ShardedAbandon);
        assert_eq!(pairs, 3);
        let path = "round closed without moving anything";
        assert!(covered.contains(path), "no schedule took `{path}`: {covered:?}");
    }
}
