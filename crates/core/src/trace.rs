//! Causal trace journal: structured events with correlation IDs, bounded
//! per-executor ring buffers, and a deterministic JSONL rendering.
//!
//! The chaos suite (PR 3) can *detect* a protocol violation, but a
//! post-mortem [`crate::metrics::MetricsRegistry`] snapshot cannot explain
//! the interleaving that produced it. Every executor (dispatcher, join
//! instance, monitor) therefore journals [`TraceEvent`]s into its own
//! [`TraceRing`] — a bounded buffer that never blocks and never allocates
//! on the hot data plane, overwriting its oldest entry (and counting the
//! drop) when full. The engine drains the rings at shutdown, merges and
//! sorts them into one [`TraceJournal`], and ships that with the run
//! report.
//!
//! Three correlation IDs tie events together across executors:
//!
//! * `seq` — the tuple sequence number assigned at the spout, correlating
//!   ingest → store/probe → emit for one tuple;
//! * `epoch` — the migration round id assigned by the monitor, correlating
//!   every phase of one round (`MigTrigger` → `MigCmd` → `MigStart` →
//!   `RouteUpdated` → `MigForward` → `MigEnd` → `MigDone`);
//! * the route version: the dispatcher journals each applied flip as
//!   `RouteStaged` under the round's `epoch` (the id the instances see)
//!   with its group's route version after the flip, so a journal reader
//!   can check flips are strictly monotone per group.

use lintmarks::lint;

use crate::json::Json;
use crate::protocol::InstanceMsg;

/// Which kind of executor emitted an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ActorKind {
    /// The (single) dispatcher thread.
    Dispatcher,
    /// A join-instance executor.
    Instance,
    /// A per-group monitor.
    Monitor,
}

/// Identifies the executor that journaled an event. Renders as
/// `dispatcher`, `inst.r3` / `inst.s0`, or `monitor.r` / `monitor.s` —
/// the same naming the metrics registry uses for its prefixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Actor {
    /// Executor kind.
    pub kind: ActorKind,
    /// Group: 0 = the R-storing group, 1 = the S-storing group. Always 0
    /// for the dispatcher.
    pub group: u8,
    /// Instance index within the group; 0 for dispatcher and monitors.
    pub idx: u16,
}

impl Actor {
    /// The dispatcher actor.
    #[must_use]
    pub fn dispatcher() -> Actor {
        Actor { kind: ActorKind::Dispatcher, group: 0, idx: 0 }
    }

    /// The join instance `idx` of `group` (0 = R-storing, 1 = S-storing).
    #[must_use]
    pub fn instance(group: u8, idx: u16) -> Actor {
        Actor { kind: ActorKind::Instance, group, idx }
    }

    /// The monitor of `group`.
    #[must_use]
    pub fn monitor(group: u8) -> Actor {
        Actor { kind: ActorKind::Monitor, group, idx: 0 }
    }

    fn group_letter(&self) -> &'static str {
        if self.group == 0 {
            "r"
        } else {
            "s"
        }
    }

    /// Journal label, e.g. `inst.r3`.
    #[must_use]
    pub fn label(&self) -> String {
        match self.kind {
            ActorKind::Dispatcher => "dispatcher".to_string(),
            ActorKind::Instance => format!("inst.{}{}", self.group_letter(), self.idx),
            ActorKind::Monitor => format!("monitor.{}", self.group_letter()),
        }
    }

    /// Parses a label produced by [`Actor::label`].
    #[must_use]
    pub fn parse(label: &str) -> Option<Actor> {
        if label == "dispatcher" {
            return Some(Actor::dispatcher());
        }
        let group_of = |c: char| match c {
            'r' => Some(0u8),
            's' => Some(1u8),
            _ => None,
        };
        if let Some(rest) = label.strip_prefix("monitor.") {
            let mut chars = rest.chars();
            let g = group_of(chars.next()?)?;
            return if chars.next().is_none() { Some(Actor::monitor(g)) } else { None };
        }
        if let Some(rest) = label.strip_prefix("inst.") {
            let mut chars = rest.chars();
            let g = group_of(chars.next()?)?;
            let idx: u16 = chars.as_str().parse().ok()?;
            return Some(Actor::instance(g, idx));
        }
        None
    }
}

/// What happened. Data-plane kinds (`Ingest`, `StoreDone`, `ProbeDone`)
/// are sampled; control-plane kinds are always journaled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceKind {
    /// Dispatcher ingested tuple `seq`; `aux` = probe fan-out.
    Ingest,
    /// Instance stored tuple `seq`.
    StoreDone,
    /// Instance finished probing tuple `seq`; `aux` = matches emitted.
    ProbeDone,
    /// Dispatcher saw end-of-stream.
    Eos,
    /// Monitor triggered round `epoch`; `aux` = source, `aux2` = target.
    MigTrigger,
    /// Source received `MigrateCmd` for round `epoch` and starts buffering;
    /// `aux` = target.
    MigCmd,
    /// Target received `MigStart` for round `epoch`; `aux` = source,
    /// `aux2` = number of migrating keys.
    MigStart,
    /// Target received the store payload; `aux` = tuples installed.
    MigStore,
    /// Dispatcher applied the routing update for round `epoch`;
    /// `aux` = the group's route version after it (every applied flip
    /// bumps it by one), `aux2` = group whose table changed (round ids are
    /// only unique per group).
    RouteStaged,
    /// The source observed `RouteUpdated` (actor = instance, `aux` =
    /// buffered tuples flushed to the target).
    RouteUpdated,
    /// Target received forwarded in-flight tuples; `aux` = count.
    MigForward,
    /// Target received `MigEnd` and released held data for round `epoch`.
    MigEnd,
    /// Monitor recorded round `epoch` complete; `aux` = tuples moved.
    MigDone,
    /// A fault-plan kill switch fired in this executor.
    FaultCrash,
    /// The supervisor restarted this executor; `aux` = restart count.
    FaultRestart,
    /// A dispatcher shard was respawned by its supervisor; `aux` = shard
    /// index, `aux2` = its epoch fence at restart.
    ShardRestart,
    /// The group's monitor died; no round starts until it recovers.
    /// `aux` = restart count so far.
    MonitorDown,
    /// The group's monitor resumed after its back-off with its state
    /// intact (in-flight round, load table, epochs); migrations may
    /// resume. `aux` = milliseconds spent degraded.
    MonitorUp,
    /// The sequencer re-published its current snapshot (epoch in `epoch`)
    /// to a restarted shard; `aux` = the target shard.
    SnapshotRepublish,
    /// Monitor audited a trigger evaluation (see `MigrationDecision`):
    /// `aux` = the decision reason code (0 triggered, 1 cooldown,
    /// 2 in-flight, 3 degenerate), `aux2` = `source * 256 + target`,
    /// `epoch` = the allocated round for triggers (`NO_ROUND` for
    /// rejections).
    MigDecision,
    /// Source selected key `seq` for migration in round `epoch`;
    /// `aux` = the key's benefit score `F_k` in milli-units,
    /// `aux2` = the key's load contribution (stored + queued tuples).
    MigPlanKey,
}

impl TraceKind {
    /// Stable journal name of this kind.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            TraceKind::Ingest => "Ingest",
            TraceKind::StoreDone => "StoreDone",
            TraceKind::ProbeDone => "ProbeDone",
            TraceKind::Eos => "Eos",
            TraceKind::MigTrigger => "MigTrigger",
            TraceKind::MigCmd => "MigCmd",
            TraceKind::MigStart => "MigStart",
            TraceKind::MigStore => "MigStore",
            TraceKind::RouteStaged => "RouteStaged",
            TraceKind::RouteUpdated => "RouteUpdated",
            TraceKind::MigForward => "MigForward",
            TraceKind::MigEnd => "MigEnd",
            TraceKind::MigDone => "MigDone",
            TraceKind::FaultCrash => "FaultCrash",
            TraceKind::FaultRestart => "FaultRestart",
            TraceKind::ShardRestart => "ShardRestart",
            TraceKind::MonitorDown => "MonitorDown",
            TraceKind::MonitorUp => "MonitorUp",
            TraceKind::SnapshotRepublish => "SnapshotRepublish",
            TraceKind::MigDecision => "MigDecision",
            TraceKind::MigPlanKey => "MigPlanKey",
        }
    }

    /// Parses a name produced by [`TraceKind::name`].
    #[must_use]
    pub fn parse(name: &str) -> Option<TraceKind> {
        Some(match name {
            "Ingest" => TraceKind::Ingest,
            "StoreDone" => TraceKind::StoreDone,
            "ProbeDone" => TraceKind::ProbeDone,
            "Eos" => TraceKind::Eos,
            "MigTrigger" => TraceKind::MigTrigger,
            "MigCmd" => TraceKind::MigCmd,
            "MigStart" => TraceKind::MigStart,
            "MigStore" => TraceKind::MigStore,
            "RouteStaged" => TraceKind::RouteStaged,
            "RouteUpdated" => TraceKind::RouteUpdated,
            "MigForward" => TraceKind::MigForward,
            "MigEnd" => TraceKind::MigEnd,
            "MigDone" => TraceKind::MigDone,
            "FaultCrash" => TraceKind::FaultCrash,
            "FaultRestart" => TraceKind::FaultRestart,
            "ShardRestart" => TraceKind::ShardRestart,
            "MonitorDown" => TraceKind::MonitorDown,
            "MonitorUp" => TraceKind::MonitorUp,
            "SnapshotRepublish" => TraceKind::SnapshotRepublish,
            "MigDecision" => TraceKind::MigDecision,
            "MigPlanKey" => TraceKind::MigPlanKey,
            _ => return None,
        })
    }

    /// The migration-protocol kind journaled when an instance *receives*
    /// `msg`, or `None` for plain data tuples (those are journaled as
    /// `StoreDone`/`ProbeDone` after processing, with sampling).
    #[must_use]
    pub fn of_instance_msg(msg: &InstanceMsg) -> Option<TraceKind> {
        match msg {
            InstanceMsg::Data(_) => None,
            InstanceMsg::MigrateCmd { .. } => Some(TraceKind::MigCmd),
            InstanceMsg::MigStart { .. } => Some(TraceKind::MigStart),
            InstanceMsg::MigStore { .. } => Some(TraceKind::MigStore),
            InstanceMsg::RouteUpdated { .. } => Some(TraceKind::RouteUpdated),
            InstanceMsg::MigForward { .. } => Some(TraceKind::MigForward),
            InstanceMsg::MigEnd { .. } => Some(TraceKind::MigEnd),
        }
    }
}

/// One journaled event. `Copy` and allocation-free so the hot path can
/// construct and buffer it without touching the heap; field meanings of
/// `seq`/`epoch`/`aux`/`aux2` are per-[`TraceKind`] (0 when not
/// applicable).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct TraceEvent {
    /// Wall-clock microseconds since the run started.
    pub at_us: u64,
    /// Emitting executor.
    pub actor: Actor,
    /// What happened.
    pub kind: TraceKind,
    /// Tuple sequence correlation id (0 when not tuple-scoped).
    pub seq: u64,
    /// Migration round / routing epoch correlation id (0 when none).
    pub epoch: u64,
    /// Kind-specific payload (see [`TraceKind`] docs).
    pub aux: u64,
    /// Second kind-specific payload.
    pub aux2: u64,
}

impl TraceEvent {
    /// Epoch sentinel for protocol events that belong to no migration
    /// round (e.g. a `Data` wrapper or any message whose `round_id()` is
    /// `None`). Distinct from 0 — which the journal also never uses for a
    /// genuine round, since monitors allocate epochs from 1 — so round
    /// reconstruction can tell "no round" apart from "round 0" instead of
    /// silently mixing both into `--round 0`. [`TraceJournal::round`] and
    /// [`TraceJournal::round_in`] exclude it.
    pub const NO_ROUND: u64 = u64::MAX;

    /// A control-plane event with no tuple correlation.
    #[must_use]
    pub fn control(at_us: u64, actor: Actor, kind: TraceKind, epoch: u64, aux: u64) -> TraceEvent {
        TraceEvent { at_us, actor, kind, seq: 0, epoch, aux, aux2: 0 }
    }

    /// The event as one JSON object (one journal line).
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("t", Json::uint(self.at_us)),
            ("actor", Json::str(self.actor.label())),
            ("kind", Json::str(self.kind.name())),
            ("seq", Json::uint(self.seq)),
            ("epoch", Json::uint(self.epoch)),
            ("aux", Json::uint(self.aux)),
            ("aux2", Json::uint(self.aux2)),
        ])
    }

    /// Decodes one journal line parsed into a [`Json`] object.
    #[must_use]
    pub fn from_json(v: &Json) -> Option<TraceEvent> {
        Some(TraceEvent {
            at_us: v.get("t")?.as_u64()?,
            actor: Actor::parse(v.get("actor")?.as_str()?)?,
            kind: TraceKind::parse(v.get("kind")?.as_str()?)?,
            seq: v.get("seq")?.as_u64()?,
            epoch: v.get("epoch")?.as_u64()?,
            aux: v.get("aux")?.as_u64()?,
            aux2: v.get("aux2")?.as_u64()?,
        })
    }
}

/// Tracing configuration shared by every executor of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Master switch; a disabled ring ignores every push.
    pub enabled: bool,
    /// Capacity of each per-executor ring (events). When full, the oldest
    /// event is overwritten and the drop counter increments.
    pub ring_capacity: usize,
    /// Sample 1 in N data-plane events (`Ingest`/`StoreDone`/`ProbeDone`).
    /// Control-plane events are never sampled. `<= 1` records everything.
    pub sample_1_in: u32,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig { enabled: true, ring_capacity: 16 * 1024, sample_1_in: 64 }
    }
}

impl TraceConfig {
    /// A disabled configuration (rings become no-ops).
    #[must_use]
    pub fn disabled() -> TraceConfig {
        TraceConfig { enabled: false, ring_capacity: 0, sample_1_in: 1 }
    }
}

/// A bounded per-executor event buffer. `push` is O(1), never blocks, and
/// never allocates after construction: the backing storage is reserved up
/// front, and once full the ring overwrites its oldest entry while
/// incrementing [`TraceRing::dropped`]. Keeping the *newest* events is the
/// useful policy for post-mortems — a failing round is at the end of the
/// run.
#[derive(Debug, Clone)]
pub struct TraceRing {
    actor: Actor,
    buf: Vec<TraceEvent>,
    cap: usize,
    /// Total events accepted (including overwritten ones).
    total: u64,
    /// Events lost to overwriting.
    dropped: u64,
    sample_1_in: u32,
    /// Data-plane events offered so far (sampling clock).
    data_seen: u64,
    enabled: bool,
}

impl TraceRing {
    /// A ring for `actor` under `cfg`.
    #[must_use]
    pub fn new(actor: Actor, cfg: &TraceConfig) -> TraceRing {
        let cap = if cfg.enabled { cfg.ring_capacity } else { 0 };
        TraceRing {
            actor,
            buf: Vec::with_capacity(cap),
            cap,
            total: 0,
            dropped: 0,
            sample_1_in: cfg.sample_1_in.max(1),
            data_seen: 0,
            enabled: cfg.enabled && cfg.ring_capacity > 0,
        }
    }

    /// The actor this ring journals for.
    #[must_use]
    pub fn actor(&self) -> Actor {
        self.actor
    }

    /// Events lost to overwriting so far.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Events currently buffered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing is buffered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Journals a control-plane event (never sampled).
    #[lint(hot_path)]
    pub fn push(&mut self, event: TraceEvent) {
        if !self.enabled {
            return;
        }
        if self.buf.len() < self.cap {
            // Within reserved capacity: push is a plain write, no realloc.
            self.buf.push(event);
        } else {
            let slot = (self.total % self.cap as u64) as usize;
            if let Some(oldest) = self.buf.get_mut(slot) {
                *oldest = event;
            }
            self.dropped += 1;
        }
        self.total += 1;
    }

    /// Journals a data-plane event, honoring the 1-in-N sampling rate.
    #[lint(hot_path)]
    pub fn push_sampled(&mut self, event: TraceEvent) {
        if !self.enabled {
            return;
        }
        let keep = self.data_seen.is_multiple_of(u64::from(self.sample_1_in));
        self.data_seen += 1;
        if keep {
            self.push(event);
        }
    }

    /// Drains the ring into an ordered journal fragment (oldest first).
    #[must_use]
    pub fn into_journal(self) -> TraceJournal {
        let mut events = self.buf;
        if self.total > self.cap as u64 && self.cap > 0 {
            // The ring wrapped: the oldest event sits at the next write
            // slot. Rotate so events come out in emission order.
            let head = (self.total % self.cap as u64) as usize;
            events.rotate_left(head);
        }
        TraceJournal { events, dropped: self.dropped }
    }
}

/// A merged, sorted event journal plus the total drop count across the
/// rings it was drained from.
#[derive(Debug, Clone, Default)]
pub struct TraceJournal {
    events: Vec<TraceEvent>,
    dropped: u64,
}

impl TraceJournal {
    /// An empty journal.
    #[must_use]
    pub fn new() -> TraceJournal {
        TraceJournal::default()
    }

    /// The events, in current order.
    #[must_use]
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Total events dropped by the contributing rings.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of journaled events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events were journaled.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Appends another journal fragment (e.g. one executor's drained ring).
    pub fn absorb(&mut self, other: TraceJournal) {
        self.events.extend(other.events);
        self.dropped += other.dropped;
    }

    /// Sorts events into the canonical deterministic order: time, then
    /// actor, then kind, then correlation ids — so two drains of the same
    /// run render byte-identical journals.
    pub fn sort(&mut self) {
        self.events.sort();
    }

    /// Only the events of migration round `epoch`, across all groups.
    /// Round ids are only unique *per group*; prefer
    /// [`TraceJournal::round_in`] when both groups migrate.
    #[must_use]
    pub fn round(&self, epoch: u64) -> Vec<TraceEvent> {
        self.events
            .iter()
            .filter(|e| e.epoch == epoch && e.epoch != 0 && e.epoch != TraceEvent::NO_ROUND)
            .copied()
            .collect()
    }

    /// Only the events of migration round `epoch` of `group` (0 = R,
    /// 1 = S). Instance and monitor events locate their group in the
    /// actor; the dispatcher's `RouteStaged` records it in `aux2`.
    #[must_use]
    pub fn round_in(&self, group: u8, epoch: u64) -> Vec<TraceEvent> {
        self.events
            .iter()
            .filter(|e| {
                e.epoch == epoch
                    && e.epoch != 0
                    && e.epoch != TraceEvent::NO_ROUND
                    && match e.actor.kind {
                        ActorKind::Dispatcher => e.aux2 == u64::from(group),
                        ActorKind::Instance | ActorKind::Monitor => e.actor.group == group,
                    }
            })
            .copied()
            .collect()
    }

    /// Renders the journal as JSONL: one event object per line, preceded
    /// by a header line carrying the schema version and drop counter.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let header = Json::obj([
            ("schema", Json::str("fastjoin-trace-v1")),
            ("events", self.events.len().into()),
            ("dropped", Json::uint(self.dropped)),
        ]);
        out.push_str(&header.to_string());
        out.push('\n');
        for event in &self.events {
            out.push_str(&event.to_json().to_string());
            out.push('\n');
        }
        out
    }

    /// Parses a journal rendered by [`TraceJournal::to_jsonl`].
    ///
    /// # Errors
    /// Returns a message naming the first malformed line.
    pub fn from_jsonl(text: &str) -> Result<TraceJournal, String> {
        let mut events = Vec::new();
        let mut dropped = 0;
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let v = Json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
            if i == 0 && v.get("schema").is_some() {
                dropped = v.get("dropped").and_then(Json::as_u64).unwrap_or(0);
                continue;
            }
            let event = TraceEvent::from_json(&v)
                .ok_or_else(|| format!("line {}: not a trace event", i + 1))?;
            events.push(event);
        }
        Ok(TraceJournal { events, dropped })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at: u64, kind: TraceKind, epoch: u64) -> TraceEvent {
        TraceEvent::control(at, Actor::instance(0, 1), kind, epoch, 0)
    }

    #[test]
    fn actor_labels_round_trip() {
        for actor in [
            Actor::dispatcher(),
            Actor::instance(0, 3),
            Actor::instance(1, 0),
            Actor::monitor(0),
            Actor::monitor(1),
        ] {
            assert_eq!(Actor::parse(&actor.label()), Some(actor));
        }
        assert_eq!(Actor::instance(0, 3).label(), "inst.r3");
        assert_eq!(Actor::monitor(1).label(), "monitor.s");
        assert_eq!(Actor::parse("inst.x1"), None);
        assert_eq!(Actor::parse("spout"), None);
    }

    #[test]
    fn kind_names_round_trip() {
        for kind in [
            TraceKind::Ingest,
            TraceKind::StoreDone,
            TraceKind::ProbeDone,
            TraceKind::Eos,
            TraceKind::MigTrigger,
            TraceKind::MigCmd,
            TraceKind::MigStart,
            TraceKind::MigStore,
            TraceKind::RouteStaged,
            TraceKind::RouteUpdated,
            TraceKind::MigForward,
            TraceKind::MigEnd,
            TraceKind::MigDone,
            TraceKind::FaultCrash,
            TraceKind::FaultRestart,
            TraceKind::ShardRestart,
            TraceKind::MonitorDown,
            TraceKind::MonitorUp,
            TraceKind::SnapshotRepublish,
            TraceKind::MigDecision,
            TraceKind::MigPlanKey,
        ] {
            assert_eq!(TraceKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(TraceKind::parse("NotAKind"), None);
    }

    #[test]
    fn instance_msg_mapping_is_total() {
        use crate::tuple::{Side, Tuple};
        let t = Tuple::new(Side::R, 1, 0, 0);
        assert_eq!(TraceKind::of_instance_msg(&InstanceMsg::Data(t)), None);
        assert_eq!(
            TraceKind::of_instance_msg(&InstanceMsg::RouteUpdated { epoch: 3 }),
            Some(TraceKind::RouteUpdated)
        );
    }

    #[test]
    fn ring_never_grows_and_counts_drops() {
        let cfg = TraceConfig { enabled: true, ring_capacity: 4, sample_1_in: 1 };
        let mut ring = TraceRing::new(Actor::dispatcher(), &cfg);
        for i in 0..10 {
            ring.push(ev(i, TraceKind::MigTrigger, 1));
        }
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.dropped(), 6);
        let journal = ring.into_journal();
        // Oldest-first, keeping the newest events (post-mortem policy).
        let times: Vec<u64> = journal.events().iter().map(|e| e.at_us).collect();
        assert_eq!(times, [6, 7, 8, 9]);
        assert_eq!(journal.dropped(), 6);
    }

    #[test]
    fn disabled_ring_is_a_noop() {
        let mut ring = TraceRing::new(Actor::dispatcher(), &TraceConfig::disabled());
        ring.push(ev(1, TraceKind::Eos, 0));
        ring.push_sampled(ev(2, TraceKind::Ingest, 0));
        assert!(ring.is_empty());
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn sampling_keeps_one_in_n() {
        let cfg = TraceConfig { enabled: true, ring_capacity: 1024, sample_1_in: 8 };
        let mut ring = TraceRing::new(Actor::instance(1, 2), &cfg);
        for i in 0..64 {
            ring.push_sampled(ev(i, TraceKind::ProbeDone, 0));
        }
        assert_eq!(ring.len(), 8); // 64 / 8, first event always kept
        assert_eq!(ring.into_journal().events()[0].at_us, 0);
    }

    #[test]
    fn journal_jsonl_round_trips() {
        let cfg = TraceConfig { enabled: true, ring_capacity: 16, sample_1_in: 1 };
        let mut ring = TraceRing::new(Actor::instance(0, 2), &cfg);
        ring.push(TraceEvent {
            at_us: 10,
            actor: Actor::instance(0, 2),
            kind: TraceKind::MigStart,
            seq: 0,
            epoch: 7,
            aux: 1,
            aux2: 3,
        });
        ring.push(ev(20, TraceKind::MigEnd, 7));
        let mut journal = ring.into_journal();
        journal.sort();
        let text = journal.to_jsonl();
        assert!(text.starts_with("{\"schema\":\"fastjoin-trace-v1\""));
        let back = TraceJournal::from_jsonl(&text).unwrap();
        assert_eq!(back.events(), journal.events());
        assert_eq!(back.dropped(), 0);
        assert!(TraceJournal::from_jsonl("not json").is_err());
    }

    #[test]
    fn absorb_merges_and_sort_is_deterministic() {
        let cfg = TraceConfig { enabled: true, ring_capacity: 8, sample_1_in: 1 };
        let mut a = TraceRing::new(Actor::dispatcher(), &cfg);
        a.push(ev(30, TraceKind::RouteStaged, 2));
        let mut b = TraceRing::new(Actor::monitor(0), &cfg);
        b.push(ev(10, TraceKind::MigTrigger, 2));
        let mut journal = a.into_journal();
        journal.absorb(b.into_journal());
        journal.sort();
        let kinds: Vec<TraceKind> = journal.events().iter().map(|e| e.kind).collect();
        assert_eq!(kinds, [TraceKind::MigTrigger, TraceKind::RouteStaged]);
        assert_eq!(journal.round(2).len(), 2);
        assert!(journal.round(9).is_empty());
    }

    #[test]
    fn no_round_sentinel_is_excluded_from_round_reconstruction() {
        let cfg = TraceConfig { enabled: true, ring_capacity: 8, sample_1_in: 1 };
        let mut ring = TraceRing::new(Actor::instance(0, 0), &cfg);
        // A genuine round-1 event, plus events that belong to no round:
        // legacy epoch-0 mappings and the explicit NO_ROUND sentinel.
        ring.push(ev(1, TraceKind::MigStart, 1));
        ring.push(ev(2, TraceKind::StoreDone, 0));
        ring.push(ev(3, TraceKind::StoreDone, TraceEvent::NO_ROUND));
        let journal = ring.into_journal();
        assert_eq!(journal.round(1).len(), 1);
        // Asking for the sentinel epochs directly must not resurrect them.
        assert!(journal.round(0).is_empty());
        assert!(journal.round(TraceEvent::NO_ROUND).is_empty());
        assert!(journal.round_in(0, 0).is_empty());
        assert!(journal.round_in(0, TraceEvent::NO_ROUND).is_empty());
    }

    #[test]
    fn round_in_separates_same_epoch_rounds_of_both_groups() {
        let cfg = TraceConfig { enabled: true, ring_capacity: 8, sample_1_in: 1 };
        let mut ring = TraceRing::new(Actor::dispatcher(), &cfg);
        // Both groups run a round with epoch 1 (ids are per-group): the
        // dispatcher events disambiguate via aux2, everyone else via the
        // actor's group.
        let mut staged_s =
            TraceEvent::control(5, Actor::dispatcher(), TraceKind::RouteStaged, 1, 3);
        staged_s.aux2 = 1;
        ring.push(staged_s);
        let mut journal = ring.into_journal();
        let mut mon = TraceRing::new(Actor::monitor(0), &cfg);
        mon.push(TraceEvent::control(1, Actor::monitor(0), TraceKind::MigTrigger, 1, 0));
        journal.absorb(mon.into_journal());
        journal.sort();
        assert_eq!(journal.round(1).len(), 2, "epoch-only filter mixes the groups");
        let r_round = journal.round_in(0, 1);
        assert_eq!(r_round.len(), 1);
        assert_eq!(r_round[0].kind, TraceKind::MigTrigger);
        let s_round = journal.round_in(1, 1);
        assert_eq!(s_round.len(), 1);
        assert_eq!(s_round[0].kind, TraceKind::RouteStaged);
    }
}
