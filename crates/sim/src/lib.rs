//! # fastjoin-sim
//!
//! A deterministic discrete-event simulator for the FastJoin reproduction.
//! Join instances are single-server queues driven by the cost model of
//! [`cost`] (bucket-proportional hash-probe costs by default, the paper's
//! nested-loop model as an ablation); messages
//! travel over FIFO channels with network latency ([`event`]); the driver
//! ([`driver`]) collects per-second throughput, latency, and imbalance
//! series — the quantities every figure of the paper's evaluation plots.
//!
//! [`experiment`] provides the parameterized runners the figure benches
//! call.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod cost;
pub mod csv;
pub mod driver;
pub mod event;
pub mod experiment;

pub use cost::{CostKind, CostModel};
pub use csv::{write_instance_loads_csv, write_report_csv};
pub use driver::{RunMetrics, SimConfig, SimReport, Simulation};
pub use experiment::{run_headline, run_ridehail, run_synthetic, ExperimentParams, Summary};
