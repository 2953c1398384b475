//! # eth-cluster — discrete-event cluster simulator with a power model
//!
//! The paper's measurements come from Hikari, a 432-node HPE Apollo 8000
//! cluster with per-half-rack power metering sampled every 5 seconds and
//! TACC-stats hardware counters (Section V). We cannot have that machine;
//! this crate is the documented substitution: a discrete-event model of a
//! Hikari-like cluster that executes the *same experiment specifications*
//! the native mode runs, at paper scale (400/216 nodes), with
//!
//! * [`node`] — node and cluster specifications (`hikari()` reproduces the
//!   2×12-core Haswell node),
//! * [`power`] — the idle + utilization-proportional dynamic power model,
//!   calibrated against the paper's own published numbers, and the
//!   5-second Apollo-8000-style power sampler,
//! * [`task`]/[`machine`] — phase graphs (compute, transfer, composite) and
//!   the greedy list scheduler that executes them on node groups,
//! * [`costmodel`] — per-algorithm analytic costs whose constants are
//!   calibrated from the real kernels in `eth-render`,
//! * [`coupling`] — tight / intercore / internode schedule builders,
//! * [`experiment`] — one paper-scale design point and [`run_cluster`],
//!   the cluster-sim mode the harness's tables and figures call,
//! * [`counters`] — TACC-stats-flavored counter aggregation,
//! * [`metrics`] — execution time, average power, energy, scalability.
//!
//! The absolute seconds and kilowatts this model produces are *estimates*;
//! what it is built to reproduce is the paper's shape: who wins, by what
//! factor, and where the crossovers fall (see EXPERIMENTS.md).

pub mod counters;
pub mod costmodel;
pub mod coupling;
pub mod experiment;
pub mod machine;
pub mod metrics;
pub mod node;
pub mod power;
pub mod task;

pub use costmodel::{AlgorithmClass, Calibration, CostModel, Workload};
pub use counters::{CounterSet, Histogram};
pub use coupling::CouplingStrategy;
pub use experiment::{run_cluster, ClusterExperiment};
pub use machine::ClusterMachine;
pub use metrics::RunMetrics;
pub use node::{ClusterSpec, NodeSpec};
