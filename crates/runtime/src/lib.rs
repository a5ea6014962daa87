//! # fastjoin-runtime
//!
//! A Storm-like threaded dataflow runtime executing the FastJoin
//! join-biclique with real OS threads and channels: spout → dispatcher →
//! join-instance executors → collector, plus one monitor thread per group
//! (§V of the paper, scaled from a 30-node cluster to one process).
//!
//! The simulator (`fastjoin-sim`) answers "what are the dynamics under a
//! controlled cost model"; this runtime answers "does the protocol hold up
//! under real concurrency" — completeness, exactly-once, and migration
//! correctness are exercised with genuinely racing threads.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod fault;
pub mod introspect;
pub mod msg;
pub mod report;
pub mod topology;

pub use fastjoin_core::accounting::{AccountingError, ProbeAccountant};
pub use fault::{ChaosPolicy, CrashFault, CrashPhase, FaultPlan};
pub use introspect::{Introspection, IntrospectionHub, Part};
pub use report::RuntimeReport;
pub use topology::{
    run_topology, try_run_topology, try_run_topology_with_results, RunError, RuntimeConfig,
    SupervisionConfig,
};
