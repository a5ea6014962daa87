//! # fastjoin-core
//!
//! A from-scratch reproduction of **FastJoin** (Zhou, Zhang, Chen, Jin,
//! Zhou — *FastJoin: A Skewness-Aware Distributed Stream Join System*,
//! IPDPS 2019): a distributed hash stream join on the join-biclique model
//! with dynamic, skewness-aware load balancing.
//!
//! ## What's here
//!
//! * [`mod@tuple`] / [`hash`] — stream tuples, stable hashing, partitioning.
//! * [`state`] / [`window`] — per-instance tuple stores with sliding-window
//!   expiry, and the paper's sub-window accounting ring (§III-E).
//! * [`load`] — the load model `L_i = |R_i|·φ_si` and the degree of load
//!   imbalance `LI` (§III-B).
//! * [`selection`] — the key-selection algorithms: **GreedyFit**
//!   (Algorithm 1), **SAFit** (Algorithm 3, simulated annealing), and an
//!   exhaustive test oracle (§III-C, §IV-A).
//! * [`routing`] / [`partition`] / [`dispatcher`] — hash partitioning with
//!   migration overrides, and the pluggable [`partition::Partitioner`]
//!   abstraction baselines hook into.
//! * [`instance`] / [`protocol`] / [`monitor`] — the join instances, the
//!   completeness-preserving migration protocol (§III-D, Algorithm 2), and
//!   the monitoring component.
//! * [`shard`] / [`sequencer`] — the dispatcher stage's decisions (batching,
//!   flush-before-install, the publication barrier) as pure transitions
//!   that the threaded runtime and the model checker both drive.
//! * [`stage`] / [`accounting`] — the instance stage (message step,
//!   checkpoint + replay recovery, one report batch per step, each report
//!   carrying its tuple's fan-out) as a pure transition likewise, and the
//!   collector's probe fan-out ledger.
//! * [`biclique`] — [`biclique::JoinCluster`], a synchronous reference
//!   cluster wiring all components together.
//! * [`metrics`] — throughput/latency/imbalance collection.
//! * [`trace`] / [`telemetry`] — the causal trace journal and the
//!   Prometheus/JSONL export layer.
//!
//! ## Quickstart
//!
//! ```
//! use fastjoin_core::biclique::JoinCluster;
//! use fastjoin_core::config::FastJoinConfig;
//! use fastjoin_core::tuple::Tuple;
//!
//! let cfg = FastJoinConfig { instances_per_group: 4, ..FastJoinConfig::default() };
//! let mut cluster = JoinCluster::fastjoin(cfg);
//! let tuples = (0..100).flat_map(|i| [Tuple::r(i % 10, i, 0), Tuple::s(i % 10, i, 0)]);
//! let results = cluster.run_to_completion(tuples);
//! assert_eq!(results.len(), 10 * 10 * 10); // 10 keys × 10 R × 10 S
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

/// The collector's probe fan-out ledger: one completion per probe, checked.
pub mod accounting;
/// Synchronous in-process cluster wiring the full join-biclique (§III-A).
pub mod biclique;
/// Tunable parameters: group sizes, θ thresholds, windowing, migration mode.
pub mod config;
/// The dispatching component: sequence numbers and two-way routing.
pub mod dispatcher;
/// Key hashing and the salted partition function.
pub mod hash;
/// One join instance: store, probe, and the migration state machine.
pub mod instance;
/// Minimal JSON tree/writer backing every machine-readable report.
pub mod json;
/// Load accounting: per-instance load reports and per-key statistics.
pub mod load;
/// Throughput/latency series and cluster-level imbalance metrics.
pub mod metrics;
/// The monitoring component: skew detection and migration round control (§III-C).
pub mod monitor;
/// Partitioning strategies implementing the [`partition::Partitioner`] trait.
pub mod partition;
/// Control-plane message types and the migration protocol state (§III-D).
pub mod protocol;
/// The routing table: consistent home routes plus migration overrides.
pub mod routing;
/// Migration key-selection policies (greedy, DP, exact; §III-C).
pub mod selection;
/// The dispatcher stage's control sequencer: route flips and the
/// publication barrier, as a pure transition.
pub mod sequencer;
/// One dispatcher shard: pending batches, flush, fenced snapshot install,
/// as a pure transition.
pub mod shard;
/// One join-instance stage: message step, checkpoint, replay and the
/// probe-report buffer, as a pure transition.
pub mod stage;
/// The per-instance tuple store indexed by key.
pub mod state;
/// Telemetry export: Prometheus text and live-snapshot rendering.
pub mod telemetry;
/// Causal trace journal: events, per-executor rings, JSONL rendering.
pub mod trace;
/// Tuples, keys, sides, and joined result pairs.
pub mod tuple;
/// Sub-window ring for time-based expiry (§III-B).
pub mod window;

pub use biclique::JoinCluster;
pub use config::{FastJoinConfig, SelectorKind, WindowConfig};
pub use tuple::{JoinedPair, Key, Side, Timestamp, Tuple};
