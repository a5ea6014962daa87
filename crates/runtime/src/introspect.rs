//! Live introspection plane: the in-run side channel that makes a
//! running topology observable without perturbing it.
//!
//! There is one metric vocabulary: every executor writes what it knows
//! into its own [`MetricsRegistry`], and the run registry of the report
//! is those registries folded under the executors' prefixes
//! ([`Part::fold_into`]). The live plane shows the same fold early: an
//! executor publishes a copy of its registry to the [`IntrospectionHub`]
//! at a tick it already has (one mutex lock per monitor period or per
//! [`PUBLISH_EVERY`] loop turns — never per tuple) and once more when it
//! finishes, so `/metrics` and `/snapshot` render, mid-run, the registry
//! the report would end with if the run stopped there. An optional
//! periodic thread streams snapshots as JSONL to a file sink, and an
//! optional blocking HTTP server (std `TcpListener`, no dependencies)
//! serves `/metrics` (Prometheus text, via `to_prometheus`) and
//! `/snapshot` (JSON) from the same hub. Everything here is gated: with
//! `snapshot_interval_ms = 0` and no `--serve-metrics`, no hub exists and
//! nothing is published — the executors write the same registry entries
//! either way.

use std::collections::BTreeMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use fastjoin_core::json::Json;
use fastjoin_core::metrics::MetricsRegistry;
use fastjoin_core::telemetry::snapshot_json;
use fastjoin_core::trace::Actor;

/// How long the accept loop sleeps when no connection is pending.
const ACCEPT_IDLE: Duration = Duration::from_millis(5);
/// Per-connection socket read/write budget.
const SOCKET_TIMEOUT: Duration = Duration::from_millis(500);
/// Largest request head we bother reading (method + path is all we use).
const MAX_REQUEST_BYTES: usize = 4096;

/// Turns of its own loop between two publications of an executor that
/// has no periodic tick (shards, the spout thread).
pub(crate) const PUBLISH_EVERY: u64 = 64;

/// Whose registry a published part is. The variant decides the prefix
/// the part's names get in the run registry — here and nowhere else.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Part {
    /// The spout/collector thread (`stage.emit_us`, `supervisor.*`,
    /// `collector.*`), unprefixed.
    Collector,
    /// Dispatcher shard `k`, under `dispatcher.`; counters add across
    /// shards.
    Shard(usize),
    /// The control sequencer, under `dispatcher.` too.
    Sequencer,
    /// Join instance `id` of `group`, under its trace label: `inst.r3.`.
    Instance {
        /// 0 = R-storing, 1 = S-storing.
        group: usize,
        /// Index within the group.
        id: usize,
    },
    /// The monitor of a group, unprefixed: its names carry the group
    /// (`monitor.r.imbalance`), the supervision counters add.
    Monitor(usize),
}

impl Part {
    /// What this part's names are prefixed with in the run registry.
    fn prefix(self) -> String {
        match self {
            Part::Collector | Part::Monitor(_) => String::new(),
            Part::Shard(_) | Part::Sequencer => "dispatcher.".to_string(),
            Part::Instance { group, id } => {
                format!("{}.", Actor::instance(group as u8, id as u16).label())
            }
        }
    }

    /// Folds this part's registry into the run registry `run` (counters
    /// add, gauges overwrite, histograms merge). The collector calls it
    /// with each executor's final registry, the hub with the latest
    /// published ones.
    pub fn fold_into(self, run: &mut MetricsRegistry, part: &MetricsRegistry) {
        run.merge_prefixed(&self.prefix(), part);
    }
}

/// What one executor last published.
#[derive(Debug)]
struct Published {
    registry: MetricsRegistry,
    /// An instance's hottest `(key, weight)` pairs; empty for the rest.
    hot_keys: Vec<(u64, u64)>,
}

/// The shared mailbox of the introspection plane: the latest published
/// registry per executor. One per run; executors publish through their
/// `Pulse`, the snapshot thread and HTTP handlers read the fold.
#[derive(Debug, Default)]
pub struct IntrospectionHub {
    state: Mutex<HubState>,
}

#[derive(Debug, Default)]
struct HubState {
    parts: BTreeMap<Part, Published>,
    /// Snapshots rendered so far (the next one's `seq` minus one).
    seq: u64,
}

impl IntrospectionHub {
    /// A fresh, empty hub.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Ignore mutex poisoning: the hub holds plain latest-value data, and
    /// a publisher that panicked mid-update leaves at worst one stale
    /// part. Observability must not take the data plane down with it.
    fn state(&self) -> MutexGuard<'_, HubState> {
        self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Replaces `part`'s published registry (and hot keys) with a copy of
    /// `registry`, its time series aside: a series grows with the run and
    /// no live surface renders one.
    pub fn publish(&self, part: Part, registry: &MetricsRegistry, hot_keys: Vec<(u64, u64)>) {
        let registry = registry.without_series();
        self.state().parts.insert(part, Published { registry, hot_keys });
    }

    /// The run registry as of the latest publications: `/metrics` renders
    /// it with `to_prometheus`.
    #[must_use]
    pub fn fold(&self) -> MetricsRegistry {
        let mut run = MetricsRegistry::new();
        for (part, published) in &self.state().parts {
            part.fold_into(&mut run, &published.registry);
        }
        run
    }

    /// The next snapshot (monotone `seq`) of the published parts.
    pub fn snapshot(&self, at_us: u64) -> Json {
        self.snapshot_of(at_us, &self.fold())
    }

    /// The next snapshot, with `registry` for its registry: the finished
    /// run's, for the stream's last line — which therefore cannot differ
    /// from the report.
    pub fn snapshot_of(&self, at_us: u64, registry: &MetricsRegistry) -> Json {
        let mut s = self.state();
        s.seq += 1;
        let hot_keys: Vec<(String, Vec<(u64, u64)>)> = s
            .parts
            .iter()
            .filter(|(_, p)| !p.hot_keys.is_empty())
            .map(|(part, p)| (part.prefix().trim_end_matches('.').to_string(), p.hot_keys.clone()))
            .collect();
        snapshot_json(s.seq, at_us, registry, &hot_keys)
    }
}

/// The running introspection plane: the hub plus its service threads
/// (periodic snapshot streamer, HTTP server). Built by [`Introspection::start`],
/// torn down by [`Introspection::shutdown`].
#[derive(Debug)]
pub struct Introspection {
    hub: Arc<IntrospectionHub>,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
    port: Option<u16>,
    started: Instant,
    stream_path: Option<String>,
    interval_ms: u64,
}

impl Introspection {
    /// Starts the plane. `interval_ms > 0` runs a periodic snapshot
    /// thread (streaming JSONL to `stream_path` when set); `serve_port`
    /// binds a blocking HTTP server on `127.0.0.1` (port 0 picks an
    /// ephemeral port, readable via [`Introspection::port`]).
    ///
    /// # Errors
    /// Fails only if the requested HTTP port cannot be bound.
    pub fn start(
        interval_ms: u64,
        serve_port: Option<u16>,
        stream_path: Option<String>,
    ) -> std::io::Result<Introspection> {
        let hub = Arc::new(IntrospectionHub::new());
        let stop = Arc::new(AtomicBool::new(false));
        let started = Instant::now();
        let mut threads = Vec::new();
        let mut port = None;
        if let Some(p) = serve_port {
            let listener = TcpListener::bind(("127.0.0.1", p))?;
            port = Some(listener.local_addr()?.port());
            listener.set_nonblocking(true)?;
            let hub2 = Arc::clone(&hub);
            let stop2 = Arc::clone(&stop);
            let t = thread::Builder::new()
                .name("introspect-http".to_string())
                .spawn(move || http_loop(&listener, &hub2, &stop2, started))?;
            threads.push(t);
        }
        if interval_ms > 0 {
            let hub2 = Arc::clone(&hub);
            let stop2 = Arc::clone(&stop);
            let path = stream_path.clone();
            let t =
                thread::Builder::new().name("introspect-snap".to_string()).spawn(move || {
                    snapshot_loop(interval_ms, &hub2, &stop2, started, path.as_deref())
                })?;
            threads.push(t);
        }
        Ok(Introspection { hub, stop, threads, port, started, stream_path, interval_ms })
    }

    /// The hub executors publish into.
    #[must_use]
    pub fn hub(&self) -> Arc<IntrospectionHub> {
        Arc::clone(&self.hub)
    }

    /// The bound HTTP port, when serving (resolved for port 0).
    #[must_use]
    pub fn port(&self) -> Option<u16> {
        self.port
    }

    /// Stops the service threads and writes one final snapshot — of
    /// `registry`, the finished run's — to the stream sink, so even runs
    /// shorter than the interval leave a record.
    pub fn shutdown(mut self, registry: &MetricsRegistry) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        if self.interval_ms > 0 {
            if let Some(path) = &self.stream_path {
                let at_us = self.started.elapsed().as_micros() as u64;
                append_snapshot(path, &self.hub.snapshot_of(at_us, &registry.without_series()));
            }
        }
    }
}

/// Dropping without [`Introspection::shutdown`] (a failed run bailing
/// out early) still stops and joins the service threads — it only skips
/// the final snapshot.
impl Drop for Introspection {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Appends one snapshot as a JSONL line; errors are swallowed (the sink
/// is diagnostics — a full disk must not fail the run).
fn append_snapshot(path: &str, snap: &Json) {
    let line = snap.to_string_compact();
    if let Ok(mut f) = std::fs::OpenOptions::new().create(true).append(true).open(path) {
        let _ = writeln!(f, "{line}");
    }
}

/// Periodic snapshot thread body: one snapshot per interval until
/// stopped, sleeping in short slices so shutdown is prompt.
fn snapshot_loop(
    interval_ms: u64,
    hub: &IntrospectionHub,
    stop: &AtomicBool,
    started: Instant,
    stream_path: Option<&str>,
) {
    let interval = Duration::from_millis(interval_ms);
    let mut next = started + interval;
    while !stop.load(Ordering::Relaxed) {
        let now = Instant::now();
        if now < next {
            thread::sleep(next.saturating_duration_since(now).min(ACCEPT_IDLE));
            continue;
        }
        next += interval;
        let snap = hub.snapshot(started.elapsed().as_micros() as u64);
        if let Some(path) = stream_path {
            append_snapshot(path, &snap);
        }
    }
}

/// Accept loop for the metrics endpoint. Non-blocking accept + short
/// sleeps keeps shutdown latency bounded without extra machinery.
fn http_loop(listener: &TcpListener, hub: &IntrospectionHub, stop: &AtomicBool, started: Instant) {
    while !stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                let at_us = started.elapsed().as_micros() as u64;
                let _ = serve_one(stream, hub, at_us);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => thread::sleep(ACCEPT_IDLE),
            Err(_) => thread::sleep(ACCEPT_IDLE),
        }
    }
}

/// Reads one request head and writes one response. Connection: close —
/// scrapers reconnect per poll, which keeps the loop single-threaded.
fn serve_one(mut stream: TcpStream, hub: &IntrospectionHub, at_us: u64) -> std::io::Result<()> {
    stream.set_read_timeout(Some(SOCKET_TIMEOUT))?;
    stream.set_write_timeout(Some(SOCKET_TIMEOUT))?;
    let mut buf = Vec::new();
    let mut chunk = [0u8; 512];
    loop {
        let n = match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => break,
            Err(e) => return Err(e),
        };
        buf.extend(chunk.iter().take(n));
        if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.len() >= MAX_REQUEST_BYTES {
            break;
        }
    }
    let head = String::from_utf8_lossy(&buf);
    let path = head
        .lines()
        .next()
        .and_then(|line| line.split_whitespace().nth(1))
        .unwrap_or("")
        .to_string();
    let (status, content_type, body) = match path.split('?').next().unwrap_or("") {
        "/metrics" => {
            ("200 OK", "text/plain; version=0.0.4; charset=utf-8", hub.fold().to_prometheus())
        }
        "/snapshot" => ("200 OK", "application/json", hub.snapshot(at_us).to_string_compact()),
        _ => ("404 Not Found", "text/plain; charset=utf-8", "not found\n".to_string()),
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastjoin_core::metrics::MetricValue;
    use fastjoin_core::telemetry::validate_prometheus;

    fn registry(load: f64, ingested: u64) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        reg.gauge_set("load", load);
        reg.counter_add("tuples_ingested", ingested);
        reg.series_record("queue_depth", 1_000, 0, 1.0);
        reg
    }

    #[test]
    fn hub_folds_the_latest_part_per_executor_under_its_prefix() {
        let hub = IntrospectionHub::new();
        hub.publish(Part::Instance { group: 0, id: 1 }, &registry(10.0, 0), vec![(999, 10)]);
        hub.publish(Part::Instance { group: 0, id: 1 }, &registry(40.0, 0), vec![(999, 40)]);
        hub.publish(Part::Shard(0), &registry(0.0, 100), Vec::new());
        hub.publish(Part::Shard(1), &registry(0.0, 30), Vec::new());
        hub.publish(Part::Monitor(1), &registry(7.0, 0), Vec::new());
        let run = hub.fold();
        // Re-publishing overwrites; shards add under one prefix; monitors
        // and the collector stay unprefixed.
        assert!(matches!(run.get("inst.r1.load"), Some(MetricValue::Gauge(v)) if *v == 40.0));
        assert_eq!(run.counter("dispatcher.tuples_ingested"), 130);
        assert!(matches!(run.get("load"), Some(MetricValue::Gauge(v)) if *v == 7.0));
        let s1 = hub.snapshot(1_000);
        let s2 = hub.snapshot(2_000);
        assert_eq!(s1.get("seq").and_then(Json::as_u64), Some(1));
        assert_eq!(s2.get("seq").and_then(Json::as_u64), Some(2));
        let rendered = s2.to_string_compact();
        assert!(rendered.contains("\"inst.r1\":[{\"key\":999,\"weight\":40}]"), "{rendered}");
        assert!(rendered.contains("\"dispatcher.tuples_ingested\":130"), "{rendered}");
    }

    #[test]
    fn hub_registry_renders_valid_prometheus() {
        let hub = IntrospectionHub::new();
        hub.publish(Part::Instance { group: 1, id: 2 }, &registry(17.0, 0), Vec::new());
        hub.publish(Part::Sequencer, &registry(0.0, 42), Vec::new());
        let text = hub.fold().to_prometheus();
        validate_prometheus(&text).expect("hub registry must render cleanly");
        assert!(text.contains("fastjoin_inst_s2_load 17"), "{text}");
        assert!(text.contains("fastjoin_dispatcher_tuples_ingested 42"), "{text}");
    }

    #[test]
    fn http_server_serves_metrics_snapshot_and_404() {
        let intro = Introspection::start(0, Some(0), None).expect("bind ephemeral port");
        let port = intro.port().expect("server advertises its port");
        intro.hub().publish(Part::Instance { group: 0, id: 3 }, &registry(21.0, 5), vec![(7, 1)]);

        let get = |path: &str| -> (String, String) {
            let mut conn = TcpStream::connect(("127.0.0.1", port)).expect("connect");
            conn.write_all(
                format!("GET {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n").as_bytes(),
            )
            .expect("send request");
            let mut raw = String::new();
            conn.read_to_string(&mut raw).expect("read response");
            let (head, body) = raw.split_once("\r\n\r\n").expect("response has a head");
            (head.to_string(), body.to_string())
        };

        let (head, body) = get("/metrics");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        validate_prometheus(&body).expect("/metrics must be parseable");
        assert!(body.contains("fastjoin_inst_r3_load 21"), "{body}");

        let (head, body) = get("/snapshot");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        let json = Json::parse(&body).expect("/snapshot must be JSON");
        assert_eq!(json.get("seq").and_then(Json::as_u64), Some(1));
        let reg = json.get("registry").expect("registry");
        assert_eq!(reg.get("inst.r3.tuples_ingested").and_then(Json::as_u64), Some(5));
        assert!(reg.get("inst.r3.queue_depth").is_none(), "series stay out of snapshots");

        let (head, _) = get("/other");
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");
        intro.shutdown(&MetricsRegistry::new());
    }

    #[test]
    fn snapshot_stream_writes_jsonl_and_final_snapshot_on_shutdown() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("fastjoin-introspect-{}.jsonl", std::process::id()));
        let path_str = path.to_string_lossy().to_string();
        let _ = std::fs::remove_file(&path);
        let intro = Introspection::start(10, None, Some(path_str.clone())).expect("start");
        intro.hub().publish(Part::Collector, &registry(0.0, 1), Vec::new());
        thread::sleep(Duration::from_millis(60));
        intro.shutdown(&registry(0.0, 9));
        let text = std::fs::read_to_string(&path).expect("stream file exists");
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines.len() >= 2, "periodic + final snapshots expected: {}", lines.len());
        let mut prev_seq = 0;
        let mut ingested = Vec::new();
        for line in &lines {
            let json = Json::parse(line).expect("every line is a snapshot");
            let seq = json.get("seq").and_then(Json::as_u64).expect("seq");
            assert!(seq > prev_seq, "snapshot seq must be monotone");
            prev_seq = seq;
            ingested.push(json.get("registry").and_then(|r| r.get("tuples_ingested")?.as_u64()));
        }
        assert_eq!(ingested.first(), Some(&Some(1)), "periodic lines fold the published parts");
        assert_eq!(ingested.last(), Some(&Some(9)), "the last line is the finished registry");
        let _ = std::fs::remove_file(&path);
    }
}
