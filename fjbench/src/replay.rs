//! Layer replay: the join-biclique wired single-threaded from the public
//! layer APIs (as `core::biclique::JoinCluster` does), with an in-memory
//! span around every layer call. It yields the per-layer time budget, a
//! single-threaded baseline, a second reference count, and the final layer
//! state the direct timings in `layers.rs` run on.

use std::collections::VecDeque;
use std::time::Instant;

use fastjoin_baselines::{build_partitioners, SystemKind};
use fastjoin_core::config::FastJoinConfig;
use fastjoin_core::dispatcher::{Dispatch, Dispatcher};
use fastjoin_core::instance::{JoinInstance, Work};
use fastjoin_core::json::Json;
use fastjoin_core::load::InstanceLoad;
use fastjoin_core::monitor::Monitor;
use fastjoin_core::protocol::{Effects, InstanceMsg};
use fastjoin_core::selection::GreedyFit;
use fastjoin_core::tuple::{Side, Tuple};

use crate::cpu::process_cpu_seconds;
use crate::runtime::{BATCH_SIZE, INSTANCES_PER_GROUP, THETA};

/// Monitor period of the replay in its logical clock (`ts` = input
/// index): about what the runtime's 25 ms covers at ~200k tuples/s.
pub const TICK_TUPLES: u64 = 5_000;
/// Migration cooldown in the same clock (the runtime's 100 ms).
pub const COOLDOWN_TUPLES: u64 = 20_000;

/// The layers a span can belong to. `Batch` is the root of each 64-tuple
/// batch; its self time is the replay loop's own bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Batch,
    Dispatch,
    Store,
    Probe,
    Monitor,
    Migration,
}

impl Layer {
    pub const ALL: [Layer; 6] = [
        Layer::Batch,
        Layer::Dispatch,
        Layer::Store,
        Layer::Probe,
        Layer::Monitor,
        Layer::Migration,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Batch => "batch",
            Layer::Dispatch => "dispatch",
            Layer::Store => "store",
            Layer::Probe => "probe",
            Layer::Monitor => "monitor",
            Layer::Migration => "migration",
        }
    }

    fn parse(name: &str) -> Option<Layer> {
        Layer::ALL.into_iter().find(|l| l.name() == name)
    }
}

/// One recorded interval. A span's id is its index in the recording.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one (the enclosing batch or monitor tick).
    pub parent: Option<u32>,
}

/// Keeps spans in memory; they are written out once, after the run.
pub struct Recorder {
    base: Instant,
    on: bool,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(on: bool) -> Self {
        Recorder { base: Instant::now(), on, spans: Vec::new() }
    }

    fn now(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    fn open(&mut self, layer: Layer, parent: Option<u32>) -> u32 {
        if !self.on {
            return 0;
        }
        let start_ns = self.now();
        self.spans.push(Span { layer, start_ns, end_ns: start_ns, parent });
        (self.spans.len() - 1) as u32
    }

    fn close(&mut self, id: u32) {
        if self.on {
            self.spans[id as usize].end_ns = self.now();
        }
    }
}

/// Self time per layer, ns: a span's duration minus what its child spans
/// cover. Indexed like [`Layer::ALL`].
pub fn self_times(spans: &[Span]) -> [u64; 6] {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut out = [0u64; 6];
    for (s, c) in spans.iter().zip(covered) {
        out[s.layer as usize] += (s.end_ns - s.start_ns).saturating_sub(c);
    }
    out
}

/// Prints the per-layer self-time table of a recording.
pub fn print_table(spans: &[Span]) {
    let table = self_times(spans);
    let total: u64 = table.iter().sum();
    for layer in Layer::ALL {
        let ns = table[layer as usize];
        println!(
            "replay self time {:<10} {:>10.3} ms {:>6.2} %",
            layer.name(),
            ns as f64 / 1e6,
            ns as f64 * 100.0 / total.max(1) as f64
        );
    }
}

/// The span file: one JSON object per line.
pub fn spans_to_jsonl(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 64);
    for s in spans {
        let parent = s.parent.map_or(Json::Null, |p| Json::uint(u64::from(p)));
        let line = Json::obj(vec![
            ("name", Json::str(s.layer.name())),
            ("start_ns", Json::uint(s.start_ns)),
            ("end_ns", Json::uint(s.end_ns)),
            ("parent", parent),
        ]);
        out.push_str(&line.to_string_compact());
        out.push('\n');
    }
    out
}

/// Loads a span file back.
///
/// # Errors
/// Describes the first malformed line.
pub fn spans_from_jsonl(text: &str) -> Result<Vec<Span>, String> {
    text.lines()
        .enumerate()
        .map(|(i, line)| {
            let v = Json::parse(line).map_err(|e| format!("span line {}: {e}", i + 1))?;
            let field = |k: &str| v.get(k).ok_or(format!("span line {}: no {k:?}", i + 1));
            let layer = field("name")?.as_str().and_then(Layer::parse);
            let start_ns = field("start_ns")?.as_u64();
            let end_ns = field("end_ns")?.as_u64();
            let parent = match field("parent")? {
                Json::Null => None,
                p => Some(p.as_u64().ok_or(format!("span line {}: bad parent", i + 1))? as u32),
            };
            match (layer, start_ns, end_ns) {
                (Some(layer), Some(start_ns), Some(end_ns)) if end_ns >= start_ns => {
                    Ok(Span { layer, start_ns, end_ns, parent })
                }
                _ => Err(format!("span line {}: bad name or times", i + 1)),
            }
        })
        .collect()
}

/// The replayed cluster. Fields are public to the crate so the direct
/// timings can run on the state a replay ended with.
pub struct Replay {
    pub dispatcher: Dispatcher,
    /// `[R-storing group, S-storing group]`.
    pub groups: [Vec<JoinInstance>; 2],
    monitors: [Option<Monitor>; 2],
    selector: GreedyFit,
    fx: Effects,
    /// Result pairs counted (pairs are not materialized, as in the
    /// runtime's count-only mode).
    pub pairs: u64,
    /// The source instance as it was when the first migration round
    /// triggered, and the target's load — the selection inputs the direct
    /// timings use. `None` when no round ever triggered.
    pub first_round: Option<(JoinInstance, InstanceLoad)>,
    pub wall_s: f64,
    /// CPU seconds of the (single-threaded) replay.
    pub cpu_s: f64,
}

impl Replay {
    fn new(system: SystemKind) -> Self {
        let fj = FastJoinConfig {
            instances_per_group: INSTANCES_PER_GROUP,
            ..FastJoinConfig::default()
        };
        let (r, s, dynamic) = build_partitioners(system, &fj);
        let group = |side| {
            (0..INSTANCES_PER_GROUP)
                .map(|i| {
                    let mut inst = JoinInstance::new(i, side, None);
                    inst.set_emit_pairs(false);
                    inst
                })
                .collect()
        };
        let monitor = || dynamic.then(|| Monitor::new(INSTANCES_PER_GROUP, THETA, COOLDOWN_TUPLES));
        Replay {
            dispatcher: Dispatcher::new(r, s),
            groups: [group(Side::R), group(Side::S)],
            monitors: [monitor(), monitor()],
            selector: GreedyFit::new(),
            fx: Effects::new(),
            pairs: 0,
            first_round: None,
            wall_s: 0.0,
            cpu_s: 0.0,
        }
    }

    /// Replays `input` in 64-tuple batches. Within a batch every tuple is
    /// dispatched, then stored, then probed: the probe's `seq <` rule
    /// ignores tuples dispatched after it, so this grouping yields exactly
    /// the pairs per-tuple interleaving does while letting one span cover
    /// each layer's share of the batch.
    pub fn run(system: SystemKind, input: &[Tuple], rec: &mut Recorder) -> Replay {
        let mut rp = Replay::new(system);
        let mut routed: Vec<(Tuple, usize)> = Vec::with_capacity(BATCH_SIZE);
        let mut probes: Vec<(Tuple, usize)> = Vec::with_capacity(BATCH_SIZE);
        let mut d = Dispatch::default();
        let mut next_tick = TICK_TUPLES;
        let (start, cpu) = (Instant::now(), process_cpu_seconds());
        for chunk in input.chunks(BATCH_SIZE) {
            let batch = rec.open(Layer::Batch, None);

            let span = rec.open(Layer::Dispatch, Some(batch));
            routed.clear();
            probes.clear();
            for t in chunk {
                rp.dispatcher.dispatch_into(*t, &mut d);
                routed.push((d.tuple, d.store_dest));
                probes.extend(d.probe_dests.iter().map(|&dest| (d.tuple, dest)));
            }
            rec.close(span);

            let span = rec.open(Layer::Store, Some(batch));
            for &(t, dest) in &routed {
                rp.data(t.side.index(), dest, t);
            }
            rec.close(span);

            let span = rec.open(Layer::Probe, Some(batch));
            for &(t, dest) in &probes {
                rp.data(t.side.opposite().index(), dest, t);
            }
            rec.close(span);

            let now = chunk.last().map_or(0, |t| t.ts);
            if now >= next_tick {
                next_tick = now + TICK_TUPLES;
                rp.tick(now, batch, rec);
            }
            rec.close(batch);
        }
        rp.wall_s = start.elapsed().as_secs_f64();
        rp.cpu_s = process_cpu_seconds() - cpu;
        rp
    }

    /// Delivers one data tuple and processes it (handle + `process_next`,
    /// the instance's whole per-tuple path).
    fn data(&mut self, group: usize, dest: usize, t: Tuple) {
        let inst = &mut self.groups[group][dest];
        inst.handle(InstanceMsg::Data(t), &mut self.selector, 0.0, &mut self.fx)
            .expect("a data tuple never violates the protocol");
        while let Some(work) = inst.process_next(&mut self.fx) {
            if let Work::Probe { matches, .. } = work {
                self.pairs += matches;
            }
        }
    }

    /// One monitor round per group: load reports, trigger decision and, if
    /// triggered, the whole migration resolved synchronously.
    fn tick(&mut self, now: u64, batch: u32, rec: &mut Recorder) {
        let span = rec.open(Layer::Monitor, Some(batch));
        for g in 0..2 {
            let Some(monitor) = self.monitors[g].as_mut() else { continue };
            for (i, inst) in self.groups[g].iter_mut().enumerate() {
                monitor.on_report(i, inst.take_load_report());
            }
            let Some(trigger) = monitor.maybe_trigger(now) else { continue };
            if self.first_round.is_none() {
                if let InstanceMsg::MigrateCmd { target_load, .. } = &trigger.msg {
                    self.first_round = Some((self.groups[g][trigger.source].clone(), *target_load));
                }
            }
            let mig = rec.open(Layer::Migration, Some(span));
            self.migrate(g, trigger.source, trigger.msg, now);
            rec.close(mig);
        }
        rec.close(span);
    }

    /// Runs the migration protocol to completion with immediate FIFO
    /// delivery, as `JoinCluster` does.
    fn migrate(&mut self, g: usize, source: usize, cmd: InstanceMsg, now: u64) {
        let side = Side::both()[g];
        let mut ctrl = VecDeque::from([(source, cmd)]);
        while let Some((dest, msg)) = ctrl.pop_front() {
            self.groups[g][dest]
                .handle(msg, &mut self.selector, 0.0, &mut self.fx)
                .expect("in-order delivery never violates the protocol");
            ctrl.extend(self.fx.sends.drain(..));
            for req in self.fx.route_requests.drain(..) {
                assert!(self.dispatcher.apply_route(side, &req), "hash routes are migratable");
                ctrl.push_back((req.source, InstanceMsg::RouteUpdated { epoch: req.epoch }));
            }
            for done in self.fx.migration_done.drain(..) {
                if let Some(m) = self.monitors[g].as_mut() {
                    m.on_migration_done(done, now);
                }
            }
        }
        // Tuples the source forwarded are pending at the target now.
        for inst in &mut self.groups[g] {
            while let Some(work) = inst.process_next(&mut self.fx) {
                if let Work::Probe { matches, .. } = work {
                    self.pairs += matches;
                }
            }
        }
    }

    /// Migration rounds triggered, both groups.
    pub fn rounds(&self) -> u64 {
        self.monitors.iter().flatten().map(|m| m.stats().triggered).sum()
    }

    /// The group's instance holding the most stored tuples.
    pub fn fullest(&self, group: usize) -> &JoinInstance {
        self.groups[group]
            .iter()
            .max_by_key(|i| i.store().len())
            .expect("a group has at least one instance")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{expected_pairs, generate, Spec};

    fn span(layer: Layer, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span { layer, start_ns, end_ns, parent }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span(Layer::Batch, 0, 100, None),
            span(Layer::Dispatch, 5, 25, Some(0)),
            span(Layer::Monitor, 30, 90, Some(0)),
            span(Layer::Migration, 40, 70, Some(2)),
            span(Layer::Batch, 100, 110, None),
        ];
        let t = self_times(&spans);
        assert_eq!(t[Layer::Batch as usize], (100 - 20 - 60) + 10);
        assert_eq!(t[Layer::Dispatch as usize], 20);
        assert_eq!(t[Layer::Monitor as usize], 30);
        assert_eq!(t[Layer::Migration as usize], 30);
        assert_eq!(t[Layer::Store as usize], 0);
        // Self times partition the root spans' durations.
        assert_eq!(t.iter().sum::<u64>(), 110);
    }

    #[test]
    fn span_file_round_trips() {
        let spans = vec![span(Layer::Batch, 1, 9, None), span(Layer::Probe, 2, 7, Some(0))];
        let text = spans_to_jsonl(&spans);
        assert_eq!(spans_from_jsonl(&text).unwrap(), spans);
        assert!(spans_from_jsonl(
            "{\"name\":\"nope\",\"start_ns\":1,\"end_ns\":2,\"parent\":null}"
        )
        .is_err());
        assert!(spans_from_jsonl("not json").is_err());
    }

    /// On a 20k-tuple skewed input the replay finds every pair, its spans
    /// reload into the same table, and their self times add up to the
    /// replay's wall time within 10 %.
    #[test]
    fn layer_self_times_sum_to_the_replay_wall_time() {
        let spec = Spec { tuples: 20_000, ..Spec::by_name("tiered_fastjoin").unwrap() };
        let input = generate(&spec, 11);
        let mut rec = Recorder::new(true);
        let rp = Replay::run(spec.system, &input, &mut rec);
        assert_eq!(rp.pairs, expected_pairs(&input));
        let table = self_times(&rec.spans);
        let ratio = table.iter().sum::<u64>() as f64 / (rp.wall_s * 1e9);
        assert!((0.9..=1.1).contains(&ratio), "layer sum ÷ wall = {ratio}");
        let reloaded = spans_from_jsonl(&spans_to_jsonl(&rec.spans)).unwrap();
        assert_eq!(self_times(&reloaded), table);
    }

    /// Without spans nothing is recorded and the count is the same — also
    /// across live migrations, which the skewed 60k-tuple input triggers.
    #[test]
    fn replay_without_spans_counts_every_pair_across_migrations() {
        for (name, tuples, migrates) in
            [("tiered_hash", 20_000, false), ("zipf_head", 60_000, true)]
        {
            let spec = Spec { tuples, ..Spec::by_name(name).unwrap() };
            let input = generate(&spec, 5);
            let mut rec = Recorder::new(false);
            let rp = Replay::run(spec.system, &input, &mut rec);
            assert_eq!(rp.pairs, expected_pairs(&input), "{name}");
            assert_eq!(rp.rounds() > 0, migrates, "{name}: {} rounds", rp.rounds());
            assert_eq!(rp.first_round.is_some(), migrates, "{name}");
            assert!(rec.spans.is_empty());
        }
    }
}
