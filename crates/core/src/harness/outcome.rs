//! What a run reports: phase times, the degradation record, the outcome
//! and its energy attribution on the modeled cluster.

use crate::config::{Coupling, ExperimentSpec};
use crate::pipeline::accumulate;
use eth_cluster::counters::CounterSet;
use eth_cluster::metrics::RunMetrics;
use eth_cluster::node::ClusterSpec;
use eth_cluster::power::{self, BusyInterval};
use eth_cluster::task::NodeGroup;
use eth_render::pipeline::RenderStats;
use eth_render::Image;
use eth_transport::comm::TransportError;
use serde::{Deserialize, Serialize};

/// Wall time spent in each phase, summed over steps, max'd over ranks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct PhaseTimes {
    pub sim_s: f64,
    pub transfer_s: f64,
    pub viz_s: f64,
    pub composite_s: f64,
}

impl PhaseTimes {
    fn max_with(&mut self, other: &PhaseTimes) {
        self.sim_s = self.sim_s.max(other.sim_s);
        self.transfer_s = self.transfer_s.max(other.transfer_s);
        self.viz_s = self.viz_s.max(other.viz_s);
        self.composite_s = self.composite_s.max(other.composite_s);
    }
}

/// Faults absorbed by a fault-tolerant run, summed over ranks. With no
/// fault plan this is always all-zero; with one, it is the run's
/// degradation record (deterministic for a given plan seed).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Degradation {
    /// Steps in which a visualization rank hit a transport fault and had
    /// nothing to render (it contributed the empty payload).
    pub dropped_steps: u64,
    /// Steps in which a visualization rank hit a transport fault and still
    /// rendered something (some, not all, blocks arrived).
    pub degraded_steps: u64,
    /// Receives that hit their deadline.
    pub timeouts: u64,
    /// Uses of a link that was (or became) dead.
    pub disconnects: u64,
    /// Payloads that failed integrity or decode checks.
    pub corrupt_payloads: u64,
    /// Ranks that died mid-run and declared it (only possible under a
    /// fault plan's scripted kill). Each dead rank's partition is adopted
    /// by a surviving rank, whose own proxy presents it from the series.
    #[serde(default)]
    pub rank_losses: u64,
    /// Holes composited around: one per frame for each partition slot the
    /// root received no contribution for, whatever the cause — a block a
    /// proxy skipped, a lost block, a cut link. Counted at the composite
    /// root and nowhere else.
    #[serde(default)]
    pub missing_contributions: u64,
    /// Planned partition handoffs that committed: the target acked, took
    /// ownership, and rendered from that step on (only possible under a
    /// [`crate::config::MigrationPlan`]).
    #[serde(default)]
    pub migrations: u64,
    /// Planned handoffs that degraded to "no migration happened": the
    /// offer was aborted (source partition's rank died first), refused,
    /// or timed out — the source kept rendering, no frame was lost.
    #[serde(default)]
    pub migration_failures: u64,
}

impl Degradation {
    pub fn is_clean(&self) -> bool {
        *self == Degradation::default()
    }

    /// Transport faults observed (not derived step counts).
    pub(super) fn faults(&self) -> u64 {
        self.timeouts + self.disconnects + self.corrupt_payloads
    }

    pub(super) fn absorb(&mut self, other: &Degradation) {
        self.dropped_steps += other.dropped_steps;
        self.degraded_steps += other.degraded_steps;
        self.timeouts += other.timeouts;
        self.disconnects += other.disconnects;
        self.corrupt_payloads += other.corrupt_payloads;
        self.rank_losses += other.rank_losses;
        self.missing_contributions += other.missing_contributions;
        self.migrations += other.migrations;
        self.migration_failures += other.migration_failures;
    }

    /// Classify one transport fault into the matching counter.
    pub(super) fn count(&mut self, err: &TransportError) {
        match err {
            TransportError::Timeout { .. } => self.timeouts += 1,
            // integrity failures detected by the codec (checksum trailer)
            // and payloads too mangled to frame at all
            TransportError::Corrupt { .. } | TransportError::Decode(_) => {
                self.corrupt_payloads += 1
            }
            // disconnects, IO errors on a dying socket, everything else
            // that severs a link
            _ => self.disconnects += 1,
        }
    }
}

/// Result of one native-mode run.
#[derive(Debug, Clone)]
pub struct NativeOutcome {
    pub spec: ExperimentSpec,
    /// End-to-end wall time.
    pub wall_s: f64,
    pub phases: PhaseTimes,
    /// Final composited images, step-major (`steps × images_per_step`).
    pub images: Vec<Image>,
    /// Render statistics summed over ranks and steps.
    pub stats: RenderStats,
    /// Bytes moved through the transport layer (all ranks).
    pub bytes_moved: u64,
    /// Faults absorbed (all-zero unless the spec carries a fault plan).
    pub degradation: Degradation,
    /// Per-loss recovery latency: seconds from a dead rank's declaration
    /// to its partition's adoption (empty for runs without a scripted kill).
    /// Feeds the campaign telemetry's `recovery_latency_s` histogram.
    pub recovery_latency_s: Vec<f64>,
    /// Per-handoff step-latency disruption: seconds the source rank spent
    /// stalled in the handshake (offer → ack), one sample per attempted
    /// handoff. Empty without a
    /// [`crate::config::MigrationPlan`]. Feeds the campaign telemetry's
    /// `migration_disruption_s` histogram (p50/p95 per pattern).
    pub migration_disruption_s: Vec<f64>,
    /// Power/energy of this run on the modeled cluster, driven by the
    /// recorded span trace instead of a synthetic phase graph: each span
    /// is a busy interval on its rank's node at the phase's modeled
    /// utilization, integrated through the Apollo-style sampler.
    pub metrics: RunMetrics,
    /// Dynamic-energy breakdown by phase (which phases bought the watts).
    pub phase_energy: Vec<PhaseEnergy>,
    /// Structured counters from the run's trace: per-phase busy seconds /
    /// span counts / bytes, flow stitching, and the trace's named counts
    /// (proxy skipped steps, cache hits, wire bytes). What `degradation`
    /// and `critical_path` carry is not repeated here.
    pub counters: CounterSet,
    /// Per-step critical path through the stitched cross-rank trace:
    /// which phases bound each frame's latency, attributed by walking
    /// flow edges backwards from every step boundary (`None` when the
    /// run recorded no spans).
    pub critical_path: Option<eth_obs::CriticalPathSummary>,
}

/// Dynamic energy attributed to one phase of a native run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PhaseEnergy {
    /// Phase name (see [`eth_obs::Phase::name`]).
    pub phase: String,
    /// Spans recorded for the phase.
    pub spans: u64,
    /// Total busy seconds across ranks (spans may overlap in wall time).
    pub busy_s: f64,
    /// Modeled utilization while a span of this phase runs.
    pub utilization: f64,
    /// Dynamic energy above the idle floor, kJ (`busy × util × dynamic`).
    pub energy_kj: f64,
}

impl NativeOutcome {
    /// One-paragraph human-readable summary.
    pub fn report(&self) -> String {
        let mut base = format!(
            "experiment '{}' [{} | {} | {} | {} ranks | ratio {:.2}]: \
             {} images in {:.3}s (sim {:.3}s, transfer {:.3}s, viz {:.3}s, \
             composite {:.3}s), {} fragments, {} bytes moved",
            self.spec.name,
            self.spec.application.default_scalar(),
            self.spec.algorithm.name(),
            self.spec.coupling.name(),
            self.spec.ranks,
            self.spec.sampling_ratio,
            self.images.len(),
            self.wall_s,
            self.phases.sim_s,
            self.phases.transfer_s,
            self.phases.viz_s,
            self.phases.composite_s,
            self.stats.fragments,
            self.bytes_moved,
        );
        if !self.degradation.is_clean() {
            let d = &self.degradation;
            base.push_str(&format!(
                "; degraded: {} steps dropped, {} partial ({} timeouts, \
                 {} disconnects, {} corrupt payloads)",
                d.dropped_steps, d.degraded_steps, d.timeouts, d.disconnects, d.corrupt_payloads
            ));
            if d.rank_losses > 0 {
                base.push_str(&format!(
                    "; recovered: {} rank losses (each partition adopted), \
                     {} missing contributions",
                    d.rank_losses, d.missing_contributions
                ));
                if let Some(worst) = self
                    .recovery_latency_s
                    .iter()
                    .copied()
                    .reduce(f64::max)
                {
                    base.push_str(&format!(" (worst declaration-to-adoption {worst:.3}s)"));
                }
            }
            if d.migrations + d.migration_failures > 0 {
                base.push_str(&format!(
                    "; migrated: {} handoffs committed, {} degraded to no-op",
                    d.migrations, d.migration_failures
                ));
                if let Some(worst) = self
                    .migration_disruption_s
                    .iter()
                    .copied()
                    .reduce(f64::max)
                {
                    base.push_str(&format!(" (worst handoff stall {worst:.3}s)"));
                }
            }
        }
        base
    }
}

/// Per-rank result inside the parallel sections. The default is also the
/// tombstone of a rank that died mid-run: nothing rendered, nothing to
/// report.
#[derive(Default)]
pub(super) struct RankOutput {
    pub(super) images: Vec<Image>,
    pub(super) stats: RenderStats,
    pub(super) phases: PhaseTimes,
    pub(super) bytes_sent: u64,
    pub(super) degradation: Degradation,
    /// Detection-to-adoption latencies this rank observed (root only).
    pub(super) recovery_latency_s: Vec<f64>,
    /// Handoff handshake stalls this rank observed (migration sources).
    pub(super) migration_disruption_s: Vec<f64>,
}

pub(super) fn merge_outputs(spec: &ExperimentSpec, wall_s: f64, outputs: Vec<RankOutput>) -> NativeOutcome {
    let mut images = Vec::new();
    let mut stats = RenderStats::default();
    let mut phases = PhaseTimes::default();
    let mut bytes_moved = 0;
    let mut degradation = Degradation::default();
    let mut recovery_latency_s = Vec::new();
    let mut migration_disruption_s = Vec::new();
    for out in outputs {
        if !out.images.is_empty() {
            images = out.images;
        }
        stats = accumulate(stats, out.stats);
        phases.max_with(&out.phases);
        bytes_moved += out.bytes_sent;
        degradation.absorb(&out.degradation);
        recovery_latency_s.extend(out.recovery_latency_s);
        migration_disruption_s.extend(out.migration_disruption_s);
    }
    NativeOutcome {
        spec: spec.clone(),
        wall_s,
        phases,
        images,
        stats,
        bytes_moved,
        degradation,
        recovery_latency_s,
        migration_disruption_s,
        // filled in by attribute_run once the span trace is drained
        metrics: RunMetrics::default(),
        phase_energy: Vec::new(),
        counters: CounterSet::new(),
        critical_path: None,
    }
}

/// Modeled node utilization while one span of `phase` runs: compute
/// phases saturate a core, the codec streams at ~0.7, wire transfers sit
/// at ~0.3 (DMA-ish), staging (generate + partition) at ~0.5 — the same
/// figures the cost model uses. Waiting phases (queue, backoff, cache
/// lookup, bootstrap) draw only the idle floor and are excluded, which
/// also keeps the busy intervals non-overlapping: a cache-lookup span
/// enclosing a staging pass must not bill the node twice.
fn phase_utilization(phase: eth_obs::Phase) -> Option<f64> {
    use eth_obs::Phase;
    match phase {
        Phase::Sim | Phase::Render | Phase::Composite => Some(1.0),
        Phase::Encode | Phase::Decode => Some(0.7),
        Phase::Send | Phase::Recv => Some(0.3),
        Phase::Stage => Some(0.5),
        Phase::JournalAppend => Some(0.2),
        // recovery spans wrap adoption bookkeeping; the adopted partition's
        // actual compute bills through its nested render/composite spans,
        // so billing the wrapper too would double-charge the node. The
        // render-internal spans (build, tiles) nest
        // inside a Render span for the same reason.
        Phase::CacheLookup
        | Phase::QueueWait
        | Phase::Backoff
        | Phase::Bootstrap
        | Phase::Recovery
        | Phase::BvhBuild
        | Phase::Tile => None,
    }
}

/// Nodes the native run models for power: tight runs one rank per node;
/// intercore pairs each sim rank with its viz rank on one node (that is
/// the design point); internode puts the two applications on disjoint
/// allocations, the visualization one sized to every viz rank the launcher
/// seats ([`ExperimentSpec::max_viz_count`]: a `Rescale` that grows seats
/// its target from the start).
fn modeled_nodes(spec: &ExperimentSpec) -> u32 {
    let r = spec.ranks.max(1);
    let nodes = match spec.coupling {
        Coupling::Tight | Coupling::Intercore => r,
        Coupling::Internode => r + spec.max_viz_count(),
    };
    nodes as u32
}

/// Fill the outcome's [`RunMetrics`], per-phase energy, and counters from
/// the run's drained span trace. Every compute-class span becomes a
/// [`BusyInterval`] on its rank's node (rank → `rank % nodes`, which maps
/// an intercore viz rank onto its sim pair's node); the cluster model
/// integrates them over the wall-clock makespan with a sampler period
/// scaled to the run (the Apollo chain samples 5 s runs ~20 times).
pub(super) fn attribute_run(outcome: &mut NativeOutcome, trace: &eth_obs::Trace, t0_ns: u64) {
    let nodes = modeled_nodes(&outcome.spec);
    let cluster = ClusterSpec::hikari(nodes);
    let makespan = outcome.wall_s.max(1e-9);

    let mut intervals = Vec::new();
    for s in trace.spans() {
        let Some(util) = phase_utilization(s.phase) else {
            continue;
        };
        // Rebase onto the run clock and clip to the run window (spans
        // recorded just outside it collapse to zero width and drop out).
        let start = (s.start_ns.saturating_sub(t0_ns) as f64 * 1e-9).min(makespan);
        let end = (s.end_ns().saturating_sub(t0_ns) as f64 * 1e-9).min(makespan);
        if end <= start {
            continue;
        }
        let node = if s.rank == eth_obs::NO_RANK {
            0 // harness-side work (staging) bills the first node
        } else {
            s.rank % nodes
        };
        intervals.push(BusyInterval {
            start,
            end,
            group: NodeGroup::new(node, 1),
            utilization: util,
        });
    }

    let sample_period = (makespan / 20.0).clamp(1e-6, 5.0);
    let profile = power::integrate(&cluster, &intervals, makespan, sample_period);
    outcome.metrics = RunMetrics {
        nodes,
        exec_time_s: makespan,
        avg_power_kw: profile.sampled_avg_power_kw,
        // the paper multiplies reported average power by exec time
        energy_kj: profile.sampled_avg_power_kw * makespan,
        dynamic_power_kw: profile.avg_dynamic_power_kw,
        degraded_steps: outcome.degradation.degraded_steps,
        dropped_steps: outcome.degradation.dropped_steps,
    };

    let mut counters = CounterSet::new();
    for t in trace.phase_totals() {
        if t.spans == 0 {
            continue;
        }
        let name = t.phase.name();
        counters.add(&format!("phase_{name}_busy_s"), t.busy_s);
        counters.add(&format!("phase_{name}_spans"), t.spans as f64);
        if t.bytes > 0 {
            counters.add(&format!("phase_{name}_bytes"), t.bytes as f64);
        }
        if let Some(utilization) = phase_utilization(t.phase) {
            outcome.phase_energy.push(PhaseEnergy {
                phase: name.to_string(),
                spans: t.spans,
                busy_s: t.busy_s,
                utilization,
                energy_kj: t.busy_s * utilization * cluster.node.dynamic_watts / 1000.0,
            });
        }
    }
    for (name, value) in trace.counts() {
        counters.add(name, value);
    }
    // Stitch the cross-rank flows and attribute each step's latency to the
    // phases on its critical path.
    if trace.spans().next().is_some() {
        let merged = eth_obs::MergedTrace::build(trace.clone());
        if !merged.matched.is_empty() {
            counters.add("flow_matched", merged.matched.len() as f64);
        }
        if merged.dangling_out + merged.dangling_in > 0 {
            counters.add(
                "flow_dangling",
                (merged.dangling_out + merged.dangling_in) as f64,
            );
        }
        outcome.critical_path = merged.critical_path;
    }
    outcome.counters = counters;
}

