//! The one supervision shell every executor thread runs under, plus the
//! liveness plumbing around it (heartbeats, stall sweep, bounded join).
//!
//! [`supervise`] owns everything that is the same for every role: the
//! `catch_unwind` around the executor body, restart counting, the
//! [`CollectorMsg::ExecutorFailure`] report (the collector counts the
//! `supervisor.*` metrics from it), the decision whether a failure is
//! fatal to the run, and the final heartbeat sentinel. What differs per
//! role — how to rebuild state after a panic — is the
//! [`Executor::recover`] implementation in `dispatch`, `instance` and
//! `monitor`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use crossbeam::channel::{Receiver, SendTimeoutError, Sender};

use fastjoin_core::metrics::MetricsRegistry;

use super::{CollectorMsg, RunError, EXECUTOR_TICK};
use crate::introspect::{IntrospectionHub, Part, PUBLISH_EVERY};

/// The run's clock: microseconds since the topology started.
#[derive(Debug, Clone, Copy)]
pub(super) struct Clock(pub Instant);

impl Clock {
    pub fn now_us(&self) -> u64 {
        self.0.elapsed().as_micros() as u64
    }
}

/// One executor's liveness record: thread name plus the µs timestamp of
/// its last heartbeat ([`HB_FINISHED`] once the executor exited).
pub(super) type Heartbeat = (String, Arc<AtomicU64>);

/// Marks an executor as cleanly exited so the stall sweep skips it.
pub(super) const HB_FINISHED: u64 = u64::MAX;

/// What every executor carries to stay observable: the run clock, its
/// heartbeat, the emergency-stop flag raised when the run has failed, and
/// the live plane's hub when there is one.
#[derive(Debug, Clone)]
pub(super) struct Pulse {
    pub clock: Clock,
    pub hb: Arc<AtomicU64>,
    pub kill: Arc<AtomicBool>,
    pub hub: Option<Arc<IntrospectionHub>>,
}

impl Pulse {
    pub fn now_us(&self) -> u64 {
        self.clock.now_us()
    }

    /// Refreshes the heartbeat; `false` once the emergency stop is raised
    /// (the run already failed — the caller should exit).
    pub fn beat(&self) -> bool {
        self.hb.store(self.now_us(), Ordering::Relaxed);
        !self.kill.load(Ordering::Relaxed)
    }

    /// Publishes `reg` (its time series aside) as `part`'s registry when
    /// the live plane is on; `hot_keys` is computed only then.
    pub fn publish(
        &self,
        part: Part,
        reg: &MetricsRegistry,
        hot_keys: impl FnOnce() -> Vec<(u64, u64)>,
    ) {
        if let Some(hub) = &self.hub {
            hub.publish(part, reg, hot_keys());
        }
    }

    /// The publishing cadence of an executor without a periodic tick:
    /// counts one turn of its loop in `turns`, and says whether a
    /// publication is due — every [`PUBLISH_EVERY`] turns with the live
    /// plane on, never with it off.
    pub fn publish_due(&self, turns: &mut u64) -> bool {
        self.hub.is_some() && {
            *turns += 1;
            turns.is_multiple_of(PUBLISH_EVERY)
        }
    }

    /// Sends on a (possibly bounded) channel, refreshing the heartbeat
    /// while parked on a full inbox. A plain blocking `send` there froze
    /// the heartbeat for as long as backpressure lasted, so genuine
    /// (healthy) backpressure longer than [`super::STALL`] was
    /// misdiagnosed as a silent stall and failed the run. Returns `false`
    /// when the receiver is gone (the message is dropped, as with the
    /// `let _ = tx.send(..)` idiom this replaces). Each timed-out park
    /// bumps `parked`, the sender's contribution to the `sends_parked`
    /// backpressure counter.
    pub fn send<T>(&self, tx: &Sender<T>, msg: T, parked: &mut u64) -> bool {
        let mut msg = msg;
        loop {
            match tx.send_timeout(msg, EXECUTOR_TICK) {
                Ok(()) => return true,
                Err(SendTimeoutError::Timeout(m)) => {
                    self.hb.store(self.now_us(), Ordering::Relaxed);
                    *parked += 1;
                    msg = m;
                }
                Err(SendTimeoutError::Disconnected(_)) => return false,
            }
        }
    }
}

/// Which kind of executor a shell supervises — the only input to the
/// fatal decision and the control-restart accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Role {
    /// A join instance: restarts from its checkpoint; past the restart
    /// budget its failure is fatal to the run.
    Instance,
    /// A dispatcher shard or the sequencer: control-plane recovery; past
    /// the budget the failure is fatal.
    Dispatch,
    /// A monitor: control plane, and a *degradable* dependency — past the
    /// budget the run continues without migrations instead of failing.
    Monitor,
}

/// The role-specific half of a supervised executor. Everything an
/// implementor keeps in `self` survives a panic of [`Executor::run`].
pub(super) trait Executor: Send + 'static {
    /// One incarnation of the executor loop. Returns on clean exit
    /// (end of stream, disconnect, emergency stop); re-entered after a
    /// caught panic once [`Executor::recover`] has run.
    fn run(&mut self);

    /// Rebuilds whatever the panic may have torn, so `run` can be
    /// re-entered. `restarts` counts this recovery (1-based). Not called
    /// for a failure the shell ruled fatal.
    fn recover(&mut self, restarts: u32);

    /// Ships the executor's end-of-run report to the collector.
    fn finish(self, collector: &Sender<CollectorMsg>);
}

/// Everything [`supervise`] needs besides the executor itself.
pub(super) struct Shell {
    pub name: String,
    pub role: Role,
    pub max_restarts: u32,
    pub collector: Sender<CollectorMsg>,
    pub pulse: Pulse,
}

impl Shell {
    /// Reports one caught panic to the collector.
    fn report(&self, error: String, fatal: bool) {
        let _ = self.collector.send(CollectorMsg::ExecutorFailure {
            name: self.name.clone(),
            error,
            fatal,
            control: self.role != Role::Instance,
        });
    }
}

/// Runs `exec` to completion under supervision: every panic of the body
/// becomes an `ExecutorFailure` event and — within the restart budget —
/// a role-specific recovery followed by re-entry. A panic *during
/// recovery* can only be a genuine bug (e.g. a deterministic protocol
/// violation re-hit by checkpoint replay), so it is always fatal.
pub(super) fn supervise<E: Executor>(shell: Shell, mut exec: E) {
    let mut restarts = 0u32;
    while let Err(payload) = catch_unwind(AssertUnwindSafe(|| exec.run())) {
        restarts += 1;
        let fatal = restarts > shell.max_restarts && shell.role != Role::Monitor;
        shell.report(panic_text(payload.as_ref()), fatal);
        if fatal {
            break;
        }
        if let Err(p) = catch_unwind(AssertUnwindSafe(|| exec.recover(restarts))) {
            shell.report(format!("recovery failed: {}", panic_text(p.as_ref())), true);
            break;
        }
    }
    exec.finish(&shell.collector);
    shell.pulse.hb.store(HB_FINISHED, Ordering::Relaxed);
}

/// Registers and starts supervised executor threads; the handles and
/// heartbeats it accumulates are what the collector watches and joins.
pub(super) struct Spawner {
    /// The spawning thread's own pulse: every executor's is a copy of it
    /// with a heartbeat of its own.
    pub pulse: Pulse,
    pub collector: Sender<CollectorMsg>,
    pub max_restarts: u32,
    pub handles: Vec<(String, thread::JoinHandle<()>)>,
    pub heartbeats: Vec<Heartbeat>,
}

impl Spawner {
    /// Registers a heartbeat for `name`, builds the executor around its
    /// [`Pulse`], and starts it on its own thread under [`supervise`].
    pub fn spawn_executor<E: Executor>(
        &mut self,
        name: String,
        role: Role,
        build: impl FnOnce(Pulse) -> E,
    ) {
        let hb = Arc::new(AtomicU64::new(self.pulse.now_us()));
        self.heartbeats.push((name.clone(), hb.clone()));
        let pulse = Pulse { hb, ..self.pulse.clone() };
        let exec = build(pulse.clone());
        let shell = Shell {
            name: name.clone(),
            role,
            max_restarts: self.max_restarts,
            collector: self.collector.clone(),
            pulse,
        };
        let handle = thread::Builder::new()
            .name(name.clone())
            .spawn(move || supervise(shell, exec))
            .expect("spawn executor"); // lint:allow(thread spawn at startup)
        self.handles.push((name, handle));
    }
}

/// Renders a caught panic payload for failure reports.
fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic payload of unknown type".to_string()
    }
}

/// Installs (once per process) a panic hook that silences backtraces for
/// panics injected by the fault plane — hundreds of *scheduled* crashes
/// per chaos run would otherwise bury real diagnostics in noise.
pub(super) fn quiet_injected_panics() {
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|s| s.starts_with("fault injection:"))
                || info
                    .payload()
                    .downcast_ref::<&str>()
                    .is_some_and(|s| s.starts_with("fault injection:"));
            if !injected {
                prev(info);
            }
        }));
    });
}

/// Every executor whose heartbeat is older than `stall_ms`. Reporting
/// all of them (not just the first) matters under correlated stalls — a
/// wedged channel typically hangs both of its endpoints, and the first
/// name alone routinely pointed debugging at the victim instead of the
/// culprit.
pub(super) fn stalled_executors(
    heartbeats: &[Heartbeat],
    now_us: u64,
    stall_ms: u64,
) -> Vec<String> {
    if stall_ms == 0 {
        return Vec::new();
    }
    heartbeats
        .iter()
        .filter(|(_, hb)| {
            let at = hb.load(Ordering::Relaxed);
            at != HB_FINISHED && now_us.saturating_sub(at) > stall_ms.saturating_mul(1_000)
        })
        .map(|(name, _)| name.clone())
        .collect()
}

/// Scans pending collector messages for a fatal executor failure, to
/// report the root cause instead of the secondary symptom.
pub(super) fn drain_fatal(collector_rx: &Receiver<CollectorMsg>) -> Option<RunError> {
    while let Ok(msg) = collector_rx.try_recv() {
        if let CollectorMsg::ExecutorFailure { name, error, fatal: true, .. } = msg {
            return Some(RunError::ExecutorFailed { name, error });
        }
    }
    None
}

/// Joins every executor thread, waiting at most `grace` overall; a thread
/// still running past the deadline is detached and reported as hung.
pub(super) fn bounded_join(
    handles: Vec<(String, thread::JoinHandle<()>)>,
    grace: Duration,
) -> Option<RunError> {
    let deadline = Instant::now() + grace.max(Duration::from_millis(1));
    for (name, h) in handles {
        loop {
            if h.is_finished() {
                // Panics were already caught and reported by `supervise`;
                // nothing useful remains in the result.
                let _ = h.join();
                break;
            }
            if Instant::now() >= deadline {
                return Some(RunError::ExecutorHung { name });
            }
            thread::sleep(Duration::from_millis(1));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::RtMsg;
    use crossbeam::channel::bounded;

    /// Regression test (heartbeat under backpressure). A bounded-channel
    /// send parked on a full peer inbox is making progress, not hanging;
    /// [`Pulse::send`] must keep refreshing the sender's heartbeat so
    /// the stall watchdog never converts backpressure into a false
    /// `ExecutorHung`. The pre-fix executors used plain blocking sends,
    /// and this test fails there: the heartbeat stays at its pre-send
    /// value for the whole park, which is far longer than `stall_ms`.
    #[test]
    fn bounded_send_refreshes_heartbeat_under_backpressure() {
        let (tx, rx) = bounded::<RtMsg>(1);
        tx.send(RtMsg::ReportRequest).expect("pre-fill the single slot");
        let hb = Arc::new(AtomicU64::new(0));
        let heartbeats: Vec<Heartbeat> = vec![("parked".to_string(), hb.clone())];
        let start = Instant::now();
        let sender = {
            let pulse = Pulse {
                clock: Clock(start),
                hb,
                kill: Arc::new(AtomicBool::new(false)),
                hub: None,
            };
            thread::spawn(move || {
                let mut parked = 0u64;
                assert!(pulse.send(&tx, RtMsg::Eos, &mut parked), "receiver stays alive");
                assert!(parked > 0, "a 200ms park must count at least one timeout");
            })
        };
        // Park the send well past the stall budget. The heartbeat is
        // refreshed every EXECUTOR_TICK (25ms), so a 100ms budget has
        // ample slack against scheduler jitter.
        thread::sleep(Duration::from_millis(200));
        let now = start.elapsed().as_micros() as u64;
        assert!(
            stalled_executors(&heartbeats, now, 100).is_empty(),
            "a send parked on a full inbox must keep its heartbeat fresh"
        );
        // And the parked message is delivered once the inbox drains.
        let first = rx.recv_timeout(Duration::from_secs(5)).expect("pre-fill drains");
        assert!(matches!(first, RtMsg::ReportRequest));
        let second = rx.recv_timeout(Duration::from_secs(5)).expect("parked send lands");
        assert!(matches!(second, RtMsg::Eos));
        sender.join().expect("sender exits cleanly");
    }

    /// Regression test (stall report completeness). Correlated stalls —
    /// e.g. both endpoints of a wedged channel — must all be named in
    /// `RunError::ExecutorHung`; the pre-fix sweep reported only the
    /// first match, which routinely pointed debugging at the victim
    /// instead of the culprit.
    #[test]
    fn stalled_executors_reports_every_stalled_executor() {
        let hbs: Vec<Heartbeat> = vec![
            ("stale-a".into(), Arc::new(AtomicU64::new(10))),
            ("fresh".into(), Arc::new(AtomicU64::new(1_000_000))),
            ("stale-b".into(), Arc::new(AtomicU64::new(20))),
            ("finished".into(), Arc::new(AtomicU64::new(HB_FINISHED))),
        ];
        let got = stalled_executors(&hbs, 1_000_000, 100);
        assert_eq!(got, vec!["stale-a".to_string(), "stale-b".to_string()]);
        assert!(
            stalled_executors(&hbs, 1_000_000, 0).is_empty(),
            "stall_ms = 0 disables the watchdog"
        );
    }
}
