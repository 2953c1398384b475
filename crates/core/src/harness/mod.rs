//! Experiment execution: native mode and cluster-sim mode.
//!
//! **Native mode** ([`run_native`]) is the real thing at laptop scale: data
//! is generated per step and partitioned across ranks into one time series
//! (the paper's preliminary run), presented rank by rank through
//! [`SimulationProxy`](eth_sim::SimulationProxy)s, moved through the
//! chosen coupling over the real transport, rendered with the real
//! renderers, and depth-composited to rank 0, which keeps (and optionally
//! writes) the final images. Every phase is wall-clock timed and all
//! traffic is counted.
//!
//! **Cluster-sim mode** ([`eth_cluster::experiment::run_cluster`]) executes the same design point on
//! the calibrated Hikari model at paper scale, producing the execution
//! time / power / energy numbers the tables and figures report.
//!
//! Coupling strategies in native mode:
//! * [`Coupling::Tight`](crate::config::Coupling::Tight) — R ranks; sim and viz share each rank's call
//!   stack; compositing gathers framebuffers to rank 0.
//! * [`Coupling::Intercore`](crate::config::Coupling::Intercore) — 2R ranks on one fabric: sim ranks `0..R`
//!   pass each step's block to their paired viz rank `R + r` (the
//!   same-node process boundary), viz ranks render and composite.
//! * [`Coupling::Internode`](crate::config::Coupling::Internode) — R sim threads and R viz threads in separate
//!   "applications": sim ranks publish to the layout file, open their
//!   sockets and wait; viz ranks poll the file and connect (the paper's
//!   Section III-C bootstrap), then receive blocks over TCP.
//!
//! All three run the same step — one `sim_role` loop and one `viz_role`
//! loop, generic over the [`PairLink`](eth_transport::link::PairLink) a
//! block crosses — under a `StepPolicy` built once from the spec, and start
//! their ranks through the one
//! [`launch`](eth_transport::runner::launch). Fault tolerance and migration
//! are parts of that policy; the plain run is the empty policy (DESIGN.md
//! §5).
//!
//! The module's parts: `outcome` (what a run reports and its energy
//! attribution), `staging` (the preliminary run and the caches runs
//! share), `step` (the policy and the two roles), `launch` (seating the
//! ranks on a local fabric or over sockets).

mod launch;
mod outcome;
mod staging;
mod step;

pub use outcome::{Degradation, NativeOutcome, PhaseEnergy, PhaseTimes};
pub use staging::{baseline_spec, CacheStats, RunCaches};
pub(crate) use staging::{memoize, MemoSlot};

use crate::config::ExperimentSpec;
use crate::error::Result;
use eth_data::io::pool::PayloadPool;
use eth_sim::timeseries::StagingAccountant;
use launch::run_coupled;
use outcome::{attribute_run, merge_outputs};
use staging::{stage_data, StagedData};
use std::sync::Arc;
use std::time::Instant;

/// Run an experiment natively (see module docs).
pub fn run_native(spec: &ExperimentSpec) -> Result<NativeOutcome> {
    spec.validate()?;
    run_recorded(spec, &PayloadPool::new(), |spec| {
        Ok(Arc::new(stage_data(spec, StagingAccountant::new())?))
    })
}

/// [`run_native`], but staging goes through `caches` so repeated runs over
/// the same data (a campaign's algorithm/ratio/coupling axes) share one
/// staging pass. Byte-identical to the uncached path: the staged blocks
/// are a pure function of the cache key.
pub fn run_native_cached(spec: &ExperimentSpec, caches: &RunCaches) -> Result<NativeOutcome> {
    spec.validate()?;
    run_recorded(spec, &caches.payloads, |spec| caches.staged(spec))
}

/// Run one experiment under a per-run flight recorder: stage (or fetch)
/// the data and execute the coupling with the recorder attached, then
/// drain the trace into the outcome's power attribution and counters.
/// The recorder stacks on whatever sinks the caller already attached
/// (e.g. a campaign-level recorder), so both see the same spans.
/// `payloads` is the owning [`RunCaches`]' pool, or a fresh one that lives
/// as long as an uncached run.
fn run_recorded<F>(
    spec: &ExperimentSpec,
    payloads: &PayloadPool,
    stage: F,
) -> Result<NativeOutcome>
where
    F: FnOnce(&ExperimentSpec) -> Result<Arc<StagedData>>,
{
    let recorder = eth_obs::Recorder::new();
    let t0 = Instant::now();
    let t0_ns = eth_obs::now_ns();
    let outputs = {
        let _obs = recorder.attach();
        stage(spec).and_then(|staged| run_coupled(spec, &staged, payloads))
    }?;
    let mut outcome = merge_outputs(spec, t0.elapsed().as_secs_f64(), outputs);
    attribute_run(&mut outcome, &recorder.take(), t0_ns);
    Ok(outcome)
}

#[cfg(test)]
mod tests;
