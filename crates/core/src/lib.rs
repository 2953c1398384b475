//! # eth-core — the Exploration Test Harness
//!
//! The paper's contribution: a lightweight harness for early-stage
//! design-space exploration of in-situ visualization pipelines. An
//! [`config::ExperimentSpec`] names a point in the design space —
//! application data, rendering algorithm, spatial-sampling ratio, coupling
//! strategy, rank/node count — and the harness executes it in two ways:
//!
//! * [`harness::run_native`] — **native mode**: real data is generated (or
//!   replayed from disk), partitioned over real ranks (threads or
//!   sockets), rendered with the real renderers, depth-composited across
//!   ranks, and written as image artifacts. Wall time, operation counts,
//!   and traffic are measured.
//! * [`eth_cluster::experiment::run_cluster`] — **cluster-sim mode**: the
//!   same design point is compiled to a phase graph and executed on the
//!   calibrated Hikari model, producing paper-scale execution time / power
//!   / energy estimates. It lives in `eth-cluster` beside the model it
//!   runs, and touches nothing of the native harness.
//!
//! Around those two entry points:
//!
//! * [`pipeline`] — the per-rank visualization pipeline (sample → render →
//!   composite → artifact), usable directly as an in-situ sink,
//! * [`sweep`] — cartesian parameter sweeps over the design space, and
//!   the campaign engine that runs them: one body,
//!   [`sweep::Campaign::execute`], handed the caches its points share, an
//!   optional journal directory and an optional wrapping point runner,
//! * [`journal`] — the crash-safe campaign journal a campaign with a
//!   directory writes and a later run over the same directory restores,
//! * [`results`] — result tables (markdown/CSV) for the experiment index,
//! * [`calibrate`] — measures this host's kernel rates to fit the cluster
//!   model's [`eth_cluster::Calibration`].
//!
//! Section VII's job-layout file ("the job layout is specified in a
//! separate file") is the spec itself, serialized as JSON.

pub mod calibrate;
pub mod config;
pub mod error;
pub mod harness;
pub mod journal;
pub mod pipeline;
pub mod results;
pub mod serve;
pub mod sweep;
pub mod telemetry;

pub use config::{
    Algorithm, Application, Coupling, ExperimentSpec, Handoff, MigrationPattern, MigrationPlan,
    RecoveryPolicy,
};
pub use error::{CoreError, Result};
pub use harness::{
    run_native, run_native_cached, CacheStats, Degradation, NativeOutcome, PhaseEnergy, RunCaches,
};
pub use journal::{Journal, JournalRecord, RecordedOutcome};
pub use results::ResultTable;
pub use serve::{
    AdmissionError, CampaignRequest, CampaignState, CampaignStatus, DrainReport, Server, Service,
    ServicePolicy,
};
pub use telemetry::{counters_to_prometheus, CampaignTelemetry};
pub use sweep::{
    run_attempt, spec_for_attempt, Campaign, CampaignOutcome, CancelToken, DegradedReason,
    PointResult, PointRunner, RetryOn, RetryPolicy, Sweep,
};
