//! Experiment execution: native mode and cluster-sim mode.
//!
//! **Native mode** ([`run_native`]) is the real thing at laptop scale: data
//! is generated per step and partitioned across ranks into one time series
//! (the paper's preliminary run), presented rank by rank through
//! [`SimulationProxy`]s, moved through the
//! chosen coupling over the real transport, rendered with the real
//! renderers, and depth-composited to rank 0, which keeps (and optionally
//! writes) the final images. Every phase is wall-clock timed and all
//! traffic is counted.
//!
//! **Cluster-sim mode** ([`run_cluster`]) executes the same design point on
//! the calibrated Hikari model at paper scale, producing the execution
//! time / power / energy numbers the tables and figures report.
//!
//! Coupling strategies in native mode:
//! * [`Coupling::Tight`] — R ranks; sim and viz share each rank's call
//!   stack; compositing gathers framebuffers to rank 0.
//! * [`Coupling::Intercore`] — 2R ranks on one fabric: sim ranks `0..R`
//!   pass each step's block to their paired viz rank `R + r` (the
//!   same-node process boundary), viz ranks render and composite.
//! * [`Coupling::Internode`] — R sim threads and R viz threads in separate
//!   "applications": sim ranks publish to the layout file, open their
//!   sockets and wait; viz ranks poll the file and connect (the paper's
//!   Section III-C bootstrap), then receive blocks over TCP.
//!
//! All three run the same step — one `sim_role` loop and one `viz_role`
//! loop, generic over the [`PairLink`] a block crosses — under a
//! `StepPolicy` built once from the spec, and start their ranks through
//! the one [`launch`]. Fault tolerance and migration are parts of that
//! policy; the plain run is the empty policy (DESIGN.md §5).

use crate::config::{Coupling, ExperimentSpec, Handoff, RecoveryPolicy};
use crate::error::{CoreError, Result};
use crate::pipeline::{accumulate, scalar_range, VizPipeline};
use bytes::Bytes;
use eth_cluster::costmodel::{AlgorithmClass, Calibration, CostModel, Workload};
use eth_cluster::counters::CounterSet;
use eth_cluster::coupling::{build_schedule, CouplingStrategy};
use eth_cluster::machine::ClusterMachine;
use eth_cluster::metrics::RunMetrics;
use eth_cluster::node::ClusterSpec;
use eth_cluster::power::{self, BusyInterval};
use eth_cluster::task::NodeGroup;
use eth_data::io::pool::PayloadPool;
use eth_data::partition::{partition_grid_slabs, partition_points};
use eth_data::{Aabb, DataObject};
use eth_render::composite::{composite_parts, encode_contribution};
use eth_render::framebuffer::Framebuffer;
use eth_render::pipeline::RenderStats;
use eth_render::Image;
use eth_sim::timeseries::{StagingAccountant, TimeSeries};
use eth_sim::SimulationProxy;
use eth_transport::chaos::ChaosLink;
use eth_transport::collectives::{
    gather, recv_adopt_notice, recv_migrate_ack, recv_migrate_offer, send_adopt_notice,
    send_migrate_ack, send_migrate_offer, AdoptNotice, MigrateAck, MigrateOffer, Survivors,
};
use eth_transport::comm::{Communicator, TransportError};
use eth_transport::fault::DATA_TAG_MIN;
use eth_transport::layout::LayoutFile;
use eth_transport::link::{FabricLink, PairLink};
use eth_transport::local::LocalFabric;
use eth_transport::message::{decode_dataset_from, encode_dataset_in};
use eth_transport::runner::{
    launch, spawn_migration_supervisor, MigrationBook, Seat, Supervision, Watch,
};
use eth_transport::socket::{connect_to, listen_as, BOOTSTRAP_TIMEOUT};
use eth_transport::{FaultPlan, HeartbeatBoard, HeartbeatPolicy};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

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
    /// Ranks that stopped beating and were declared dead mid-run (only
    /// possible under a [`crate::config::RecoveryPolicy`]).
    #[serde(default)]
    pub rank_losses: u64,
    /// Dead ranks' partitions taken over by a surviving rank from the last
    /// step checkpoint.
    #[serde(default)]
    pub adopted_partitions: u64,
    /// Holes composited around: one per frame for each partition slot the
    /// root received no contribution for, whatever the cause — a dead
    /// partition nobody adopted, a lost block, a cut link. Counted at the
    /// composite root and nowhere else.
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
    fn faults(&self) -> u64 {
        self.timeouts + self.disconnects + self.corrupt_payloads
    }

    fn absorb(&mut self, other: &Degradation) {
        self.dropped_steps += other.dropped_steps;
        self.degraded_steps += other.degraded_steps;
        self.timeouts += other.timeouts;
        self.disconnects += other.disconnects;
        self.corrupt_payloads += other.corrupt_payloads;
        self.rank_losses += other.rank_losses;
        self.adopted_partitions += other.adopted_partitions;
        self.missing_contributions += other.missing_contributions;
        self.migrations += other.migrations;
        self.migration_failures += other.migration_failures;
    }

    /// Classify one transport fault into the matching counter.
    fn count(&mut self, err: &TransportError) {
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
    /// Per-loss recovery latency: seconds from a dead rank's last
    /// heartbeat to its partition's adoption (empty for clean runs or
    /// runs without a [`RecoveryPolicy`]). Feeds the campaign telemetry's
    /// `recovery_latency_s` histogram.
    pub recovery_latency_s: Vec<f64>,
    /// Per-handoff step-latency disruption: seconds the source rank spent
    /// stalled in the three-phase handshake (offer → state transfer →
    /// ack), one sample per attempted handoff. Empty without a
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
    /// span counts / bytes, proxy skipped steps, and degradation totals.
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
    /// First image of the run (the usual artifact for quality comparison).
    pub fn first_image(&self) -> Option<&Image> {
        self.images.first()
    }

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
                    "; recovered: {} rank losses, {} partitions adopted, \
                     {} missing contributions",
                    d.rank_losses, d.adopted_partitions, d.missing_contributions
                ));
                if let Some(worst) = self
                    .recovery_latency_s
                    .iter()
                    .copied()
                    .reduce(f64::max)
                {
                    base.push_str(&format!(" (worst detection-to-adoption {worst:.3}s)"));
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

/// Encode a block for a process boundary, honoring the spec's
/// `wire_compression` codec. Compressed sends record raw-vs-compressed
/// byte counters so campaigns can report what the codec actually bought
/// on the wire. Either way the bytes sit in a buffer leased from the run's
/// pool, which has it back once the far side (or whatever dropped the
/// message on the way) lets go of it.
fn encode_block(spec: &ExperimentSpec, block: &DataObject, pool: &PayloadPool) -> Bytes {
    match spec.wire_compression {
        Some(codec) => {
            let payload = codec.encode_in(block, pool);
            eth_obs::count("wire_raw_bytes", eth_data::io::binary::encoded_len(block) as f64);
            eth_obs::count("wire_compressed_bytes", payload.len() as f64);
            payload
        }
        None => encode_dataset_in(block, pool),
    }
}

/// Inverse of [`encode_block`]. `from` is the sending rank: uncompressed
/// payloads verify their checksum trailer here, so in-flight corruption
/// surfaces as [`TransportError::Corrupt`] attributed to the sender — the
/// codec detects it, the chaos layer's own bookkeeping is not consulted.
fn decode_block(spec: &ExperimentSpec, from: usize, payload: Bytes) -> Result<DataObject> {
    match spec.wire_compression {
        Some(codec) => Ok(codec.decode(payload)?),
        None => Ok(decode_dataset_from(from, payload)?),
    }
}

/// Per-rank result inside the parallel sections. The default is also the
/// tombstone of a rank that died mid-run: nothing rendered, nothing to
/// report.
#[derive(Default)]
struct RankOutput {
    images: Vec<Image>,
    stats: RenderStats,
    phases: PhaseTimes,
    bytes_sent: u64,
    degradation: Degradation,
    /// Detection-to-adoption latencies this rank observed (root only).
    recovery_latency_s: Vec<f64>,
    /// Handoff handshake stalls this rank observed (migration sources).
    migration_disruption_s: Vec<f64>,
}

/// Minimal per-rank recovery state, snapshotted after each completed step.
/// On rank death the deterministic successor resumes the partition from
/// here: `proxy_cursor` is the next step the dead rank would have
/// produced, `rng_state` the seed of its data stream, `degradation` the
/// faults it had absorbed so far (so the record survives the death).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StepCheckpoint {
    /// The checkpointing rank.
    pub rank: usize,
    /// The partition it owned (== rank for the shipped partitioners).
    pub partition: usize,
    /// Last completed step.
    pub step: usize,
    /// Next step to produce (the simulation proxy's cursor).
    pub proxy_cursor: usize,
    /// Seed of the rank's deterministic data stream.
    pub rng_state: u64,
    /// Faults the rank had absorbed when the snapshot was taken.
    #[serde(default)]
    pub degradation: Degradation,
}

/// Shared checkpoint slots, one per simulation rank, newest-wins. In
/// intercore runs the store lives in process memory; internode runs with
/// an artifact dir additionally spill every snapshot through the
/// crash-safe WAL ([`crate::journal::JournalRecord::Checkpoint`]), the
/// path a real multi-node deployment would need.
pub(crate) struct CheckpointStore {
    slots: Mutex<Vec<Option<StepCheckpoint>>>,
    spill: Option<crate::journal::Journal>,
}

impl CheckpointStore {
    fn new(ranks: usize, spill: Option<crate::journal::Journal>) -> CheckpointStore {
        CheckpointStore {
            slots: Mutex::new(vec![None; ranks]),
            spill,
        }
    }

    fn record(&self, checkpoint: StepCheckpoint) {
        eth_obs::count("step_checkpoints", 1.0);
        if let Some(journal) = &self.spill {
            // spill failures must not fail the step: the in-memory slot
            // still updates and adoption proceeds from it
            let _ = journal.append(&crate::journal::JournalRecord::Checkpoint {
                checkpoint: checkpoint.clone(),
            });
        }
        let mut slots = self.slots.lock().unwrap();
        let slot = &mut slots[checkpoint.rank];
        match slot {
            Some(existing) if existing.step >= checkpoint.step => {}
            _ => *slot = Some(checkpoint),
        }
    }

    fn latest(&self, rank: usize) -> Option<StepCheckpoint> {
        self.slots.lock().unwrap()[rank].clone()
    }
}

/// Background liveness beacon for one rank: beats the board every half
/// heartbeat interval until dropped (the rank finished — or was killed,
/// which is exactly a beacon going silent). Beating from a helper thread
/// keeps detection latency independent of step duration; a genuinely
/// wedged rank is still caught by the global deadline backstop.
struct Beater {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Beater {
    fn spawn(board: &Arc<HeartbeatBoard>, rank: usize, policy: HeartbeatPolicy) -> Beater {
        eth_obs::count("liveness_threads", 1.0);
        let stop = Arc::new(AtomicBool::new(false));
        let board = board.clone();
        let flag = stop.clone();
        let interval = policy.poll_interval();
        let handle = std::thread::spawn(move || {
            while !flag.load(Ordering::Relaxed) {
                board.beat(rank);
                std::thread::sleep(interval);
            }
        });
        Beater {
            stop,
            handle: Some(handle),
        }
    }
}

impl Drop for Beater {
    /// Stops beating *now*: on the kill path the rank must have fallen
    /// silent before it parks awaiting its own death.
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Pre-generated per-step data — block (step, rank) plus global bounds
/// and the global scalar range (so every rank colors through the same
/// transfer function — rank-local ranges would shift colors per block).
///
/// The blocks are one [`TimeSeries`], the "preliminary run" every
/// simulation rank's [`SimulationProxy`] presents: all resident without a
/// memory budget; with one, the least-recently-used blocks live in the
/// series' files and stream back on access, so a staged dataset larger
/// than the budget replays with byte-identical images while peak resident
/// bytes stay ≤ the budget.
struct StagedData {
    series: Arc<TimeSeries>,
    bounds: Vec<Aabb>,
    scalar_ranges: Vec<Option<(f32, f32)>>,
}

/// Stage `spec`'s blocks into a series that reports its bytes to
/// `accountant` (the owning [`RunCaches`]', or a throwaway one for an
/// uncached run, whose series then accounts to itself).
fn stage_data(spec: &ExperimentSpec, accountant: StagingAccountant) -> Result<StagedData> {
    let _span = eth_obs::span(eth_obs::Phase::Stage);
    let resources = spec.resources.clone().unwrap_or_default();
    let series = TimeSeries::new(
        spec.ranks,
        spec.steps,
        resources.memory_budget_bytes,
        resources.spill_dir.as_deref(),
        accountant,
    )?;
    let alloc_fail_at = spec.fault_plan.as_ref().and_then(|p| p.alloc_fail_at_stage);
    let mut bounds = Vec::with_capacity(spec.steps);
    let mut scalar_ranges = Vec::with_capacity(spec.steps);
    let mut staged_blocks: u64 = 0;
    for step in 0..spec.steps {
        let global = spec.application.generate(step, spec.seed)?;
        bounds.push(global.bounds());
        scalar_ranges.push(scalar_range(&global, Some(spec.application.default_scalar())));
        let parts: Vec<DataObject> = match &global {
            DataObject::Points(cloud) => partition_points(cloud, spec.ranks)?
                .into_iter()
                .map(DataObject::Points)
                .collect(),
            DataObject::Grid(grid) => partition_grid_slabs(grid, spec.ranks)?
                .into_iter()
                .map(DataObject::Grid)
                .collect(),
        };
        for (rank, part) in parts.into_iter().enumerate() {
            // Seeded allocation-failure injection: exhaustion is a fault
            // like any other — classified, retryable, quarantineable.
            if alloc_fail_at == Some(staged_blocks) {
                return Err(CoreError::OutOfMemory(format!(
                    "staging block {staged_blocks} (step {step}, rank {rank}): \
                     injected alloc_fail_at_stage"
                )));
            }
            series.insert(step, rank, part)?;
            staged_blocks += 1;
        }
    }
    let stats = series.stats();
    eth_obs::count("staging_resident_bytes", stats.resident_bytes as f64);
    eth_obs::count("staging_peak_resident_bytes", stats.peak_resident_bytes as f64);
    eth_obs::count("spilled_bytes_total", stats.spilled_bytes as f64);
    Ok(StagedData {
        series: Arc::new(series),
        bounds,
        scalar_ranges,
    })
}

/// Cache hit/miss counters for a [`RunCaches`] instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    pub staging_hits: u64,
    pub staging_misses: u64,
    pub baseline_hits: u64,
    pub baseline_misses: u64,
}

impl CacheStats {
    /// Fraction of staging lookups served from cache (0 when unused).
    pub fn staging_hit_rate(&self) -> f64 {
        let total = self.staging_hits + self.staging_misses;
        if total == 0 {
            0.0
        } else {
            self.staging_hits as f64 / total as f64
        }
    }
}

/// Staging content key: everything [`stage_data`] depends on. The
/// application's `Debug` form carries its identity *and* size (particle
/// count / grid dims), so two points share staged data exactly when the
/// generator and partitioner would produce identical blocks. The
/// resource policy and injected staging fault are part of the key: the
/// blocks are identical either way (spill is lossless), but the stores'
/// budgets and failure behavior are not interchangeable.
type StageKey = (String, u64, usize, usize, String);

fn stage_key(spec: &ExperimentSpec) -> StageKey {
    (
        format!("{:?}", spec.application),
        spec.seed,
        spec.steps,
        spec.ranks,
        format!(
            "{:?}|{:?}",
            spec.resources,
            spec.fault_plan.as_ref().and_then(|p| p.alloc_fail_at_stage)
        ),
    )
}

/// A memo slot: the per-key mutex serializes the *first* computation so
/// concurrent same-key requesters block on the one staging pass instead of
/// racing to duplicate it. A failed computation leaves the slot empty and
/// the next requester retries.
struct MemoSlot<T>(Mutex<Option<Arc<T>>>);

impl<T> Default for MemoSlot<T> {
    fn default() -> Self {
        MemoSlot(Mutex::new(None))
    }
}

fn memoize<T, K, F>(
    map: &Mutex<HashMap<K, Arc<MemoSlot<T>>>>,
    key: K,
    compute: F,
) -> Result<(Arc<T>, bool)>
where
    K: std::hash::Hash + Eq,
    F: FnOnce() -> Result<T>,
{
    let slot = map.lock().unwrap().entry(key).or_default().clone();
    let mut guard = slot.0.lock().unwrap();
    if let Some(cached) = guard.as_ref() {
        return Ok((cached.clone(), true));
    }
    let fresh = Arc::new(compute()?);
    *guard = Some(fresh.clone());
    Ok((fresh, false))
}

/// Memoization shared across the runs of a campaign (or any repeated
/// native runs):
///
/// * **staging** — [`stage_data`] results, keyed by
///   `(application, seed, steps, ranks)`. Design points that differ only
///   on the algorithm / sampling-ratio / coupling axes share one staging
///   pass; the staged blocks are deterministic in the key, so cached and
///   uncached runs are byte-identical.
/// * **baselines** — full-fidelity (sampling ratio 1.0) reference renders
///   for RMSE comparisons, keyed by everything that shapes the image
///   except the sampling ratio and the coupling (couplings produce
///   identical images; the baseline renders tight, the cheapest). A ratio
///   sweep thus renders its baseline once, not once per ratio point.
///
/// All methods are `&self` and thread-safe; a first-comer computing an
/// entry blocks same-key requesters rather than letting them duplicate
/// the work, so a campaign over n same-data points always does exactly
/// one staging pass (hit rate (n-1)/n).
#[derive(Default)]
pub struct RunCaches {
    staging: Mutex<HashMap<StageKey, Arc<MemoSlot<StagedData>>>>,
    baselines: Mutex<HashMap<String, Arc<MemoSlot<Vec<Image>>>>>,
    stats: Mutex<CacheStats>,
    /// Byte totals over every store this cache set staged: the number
    /// its owner (a campaign, `eth serve`) is held to by a memory budget.
    accountant: StagingAccountant,
    /// The encoded-payload buffers of every run through this cache set:
    /// leased per block, back on the last drop, a few parked between runs.
    /// Its counts depend on how far simulation ranks ran ahead, so they
    /// stay out of [`CacheStats`].
    payloads: PayloadPool,
}

impl RunCaches {
    pub fn new() -> RunCaches {
        RunCaches::default()
    }

    /// Counters so far (snapshot).
    pub fn stats(&self) -> CacheStats {
        *self.stats.lock().unwrap()
    }

    /// Resident / spilled staged bytes held by this cache set.
    pub fn accountant(&self) -> &StagingAccountant {
        &self.accountant
    }

    fn staged(&self, spec: &ExperimentSpec) -> Result<Arc<StagedData>> {
        // The lookup span covers the memoize call, so a miss (or blocking
        // on a first-comer's staging pass) shows up as lookup latency; the
        // nested Stage span carries the compute itself.
        let lookup = eth_obs::span(eth_obs::Phase::CacheLookup);
        let (data, hit) = memoize(&self.staging, stage_key(spec), || {
            stage_data(spec, self.accountant.clone())
        })?;
        drop(lookup);
        eth_obs::count(
            if hit { "staging_cache_hits" } else { "staging_cache_misses" },
            1.0,
        );
        let mut stats = self.stats.lock().unwrap();
        if hit {
            stats.staging_hits += 1;
        } else {
            stats.staging_misses += 1;
        }
        Ok(data)
    }

    /// The design point's full-fidelity reference images (sampling ratio
    /// 1.0), for RMSE against sampled renders. Memoized; the underlying
    /// render goes through the staging cache too.
    pub fn baseline_images(&self, spec: &ExperimentSpec) -> Result<Arc<Vec<Image>>> {
        let key = format!(
            "{:?}|{:?}|r{}|s{}|i{}|{}x{}|seed{}",
            spec.application,
            spec.algorithm,
            spec.ranks,
            spec.steps,
            spec.images_per_step,
            spec.width,
            spec.height,
            spec.seed
        );
        let lookup = eth_obs::span(eth_obs::Phase::CacheLookup);
        let (images, hit) = memoize(&self.baselines, key, || {
            let base = baseline_spec(spec);
            base.validate()?;
            let staged = self.staged(&base)?;
            Ok(run_recorded(&base, &self.payloads, move |_| Ok(staged))?.images)
        })?;
        drop(lookup);
        eth_obs::count(
            if hit { "baseline_cache_hits" } else { "baseline_cache_misses" },
            1.0,
        );
        let mut stats = self.stats.lock().unwrap();
        if hit {
            stats.baseline_hits += 1;
        } else {
            stats.baseline_misses += 1;
        }
        Ok(images)
    }
}

/// The full-fidelity reference configuration for `spec`: sampling ratio
/// 1.0, tight coupling (coupling does not change pixels, tight is the
/// cheapest), no compression, faults, or viz split. RMSE sweeps compare
/// every sampled point against this spec's images; [`RunCaches::
/// baseline_images`] renders it once per `(application, algorithm, ranks,
/// image size, seed)`.
pub fn baseline_spec(spec: &ExperimentSpec) -> ExperimentSpec {
    let mut base = spec.clone();
    base.name = format!("{}-baseline", spec.name);
    base.sampling_ratio = 1.0;
    base.coupling = Coupling::Tight;
    base.wire_compression = None;
    base.viz_ranks = None;
    base.fault_plan = None;
    base.recovery = None;
    base.migration = None;
    base.artifact_dir = None;
    base
}

/// Pipeline configured with the step's global color range.
fn pipeline_for_step(spec: &ExperimentSpec, staged: &StagedData, step: usize) -> VizPipeline {
    let mut options = eth_render::pipeline::RenderOptions {
        scalar: Some(spec.application.default_scalar().to_string()),
        tile: spec.render.and_then(|r| r.tile),
        progressive: spec.render.and_then(|r| r.progressive_stride),
        ..Default::default()
    };
    options.range = staged.scalar_ranges[step];
    VizPipeline::new(spec).with_options(options)
}

fn merge_outputs(spec: &ExperimentSpec, wall_s: f64, outputs: Vec<RankOutput>) -> NativeOutcome {
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
        // render-internal spans (build, tiles, progressive passes) nest
        // inside a Render span for the same reason.
        Phase::CacheLookup
        | Phase::QueueWait
        | Phase::Backoff
        | Phase::Bootstrap
        | Phase::Recovery
        | Phase::BvhBuild
        | Phase::Tile
        | Phase::ProgressivePass => None,
    }
}

/// Nodes the native run models for power: tight runs one rank per node;
/// intercore pairs each sim rank with its viz rank on one node (that is
/// the design point); internode puts the two applications on disjoint
/// allocations.
fn modeled_nodes(spec: &ExperimentSpec) -> u32 {
    let r = spec.ranks.max(1);
    let nodes = match spec.coupling {
        Coupling::Tight | Coupling::Intercore => r,
        Coupling::Internode => r + spec.viz_ranks.unwrap_or(r).max(1),
    };
    nodes as u32
}

/// Fill the outcome's [`RunMetrics`], per-phase energy, and counters from
/// the run's drained span trace. Every compute-class span becomes a
/// [`BusyInterval`] on its rank's node (rank → `rank % nodes`, which maps
/// an intercore viz rank onto its sim pair's node); the cluster model
/// integrates them over the wall-clock makespan with a sampler period
/// scaled to the run (the Apollo chain samples 5 s runs ~20 times).
fn attribute_run(outcome: &mut NativeOutcome, trace: &eth_obs::Trace, t0_ns: u64) {
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
        if let Some(cp) = merged.critical_path {
            for p in &cp.phases {
                counters.add(&format!("critical_path_{}_s", p.phase), p.seconds);
            }
            outcome.critical_path = Some(cp);
        }
    }
    let d = &outcome.degradation;
    if !d.is_clean() {
        counters.add("degradation_dropped_steps", d.dropped_steps as f64);
        counters.add("degradation_degraded_steps", d.degraded_steps as f64);
        counters.add("degradation_timeouts", d.timeouts as f64);
        counters.add("degradation_disconnects", d.disconnects as f64);
        counters.add("degradation_corrupt_payloads", d.corrupt_payloads as f64);
        if d.rank_losses > 0 {
            counters.add("recovery_rank_losses", d.rank_losses as f64);
            counters.add("recovery_adopted_partitions", d.adopted_partitions as f64);
        }
        if d.missing_contributions > 0 {
            counters.add(
                "recovery_missing_contributions",
                d.missing_contributions as f64,
            );
        }
        if d.migrations + d.migration_failures > 0 {
            counters.add("recovery_migrations", d.migrations as f64);
            counters.add("recovery_migration_failures", d.migration_failures as f64);
        }
    }
    outcome.counters = counters;
}

/// Budget for one block to arrive under liveness supervision when the
/// fault plan sets no receive deadline.
const DEFAULT_RECV_BUDGET: Duration = Duration::from_secs(2);
/// Wall-clock backstop of a heartbeat-supervised run when the fault plan
/// sets no per-rank budget (heartbeats, not this, are the primary detector).
const DEFAULT_RUN_DEADLINE: Duration = Duration::from_secs(120);

/// Everything a run's step loop does beyond "present, move, render,
/// composite", resolved once from the spec. The three couplings run the
/// same [`sim_role`] / [`viz_role`] step and differ only in the
/// [`PairLink`] a block crosses; fault tolerance and elasticity are parts
/// of this policy, and every part may be empty. The empty policy is the
/// plain run: it starts no heartbeat thread and no supervisor, records no
/// checkpoint, and never polls a receive.
struct StepPolicy {
    /// Faults on the data path degrade a step instead of failing the run
    /// (the spec carries a fault plan or a recovery policy).
    tolerant: bool,
    /// The spec's fault plan, inert when it has none: scripted kills and
    /// the receive and run budgets are read from here. The pair links run
    /// behind it only when the spec really carries one ([`RankCx::link`]).
    plan: FaultPlan,
    /// Heartbeats, liveness-sliced receives, step checkpoints, adoption.
    liveness: Option<Liveness>,
    /// Planned partition handoffs in control-plane order. Empty means
    /// static ownership.
    handoffs: Vec<Handoff>,
    /// One arbitration cell per handoff (commit vs. death-abort).
    book: Arc<MigrationBook>,
    handoff_timeout: Duration,
}

/// The recovery part of a [`StepPolicy`].
struct Liveness {
    recovery: RecoveryPolicy,
    checkpoints: CheckpointStore,
    /// A missing block is either a lost message (one degraded step) or a
    /// death in progress. Receives run in slices a bit past the detection
    /// deadline, re-checking liveness between slices: a slow-but-alive
    /// pair gets the whole `recv_budget`, a confirmed death resolves in
    /// O(detection).
    recv_slice: Duration,
    recv_budget: Duration,
    /// Wall-clock backstop for composite gathers, a killed rank's wait for
    /// its own death notice, and the launcher.
    run_deadline: Duration,
}

impl StepPolicy {
    fn new(spec: &ExperimentSpec) -> StepPolicy {
        let plan = spec.fault_plan.clone().unwrap_or_default();
        let liveness = spec.recovery.map(|recovery| {
            let recv_slice =
                recovery.heartbeat.detection_deadline() * 2 + Duration::from_millis(25);
            // Internode runs that keep artifacts spill every checkpoint
            // through the journal WAL, so a post-mortem can replay the
            // adoption decision.
            let spill = match (&spec.artifact_dir, spec.coupling) {
                (Some(dir), Coupling::Internode) => {
                    crate::journal::Journal::open(&dir.join("recovery")).ok()
                }
                _ => None,
            };
            Liveness {
                recovery,
                checkpoints: CheckpointStore::new(spec.ranks, spill),
                recv_slice,
                recv_budget: plan
                    .deadline()
                    .unwrap_or(DEFAULT_RECV_BUDGET)
                    .max(recv_slice),
                run_deadline: plan.rank_timeout().unwrap_or(DEFAULT_RUN_DEADLINE),
            }
        });
        let handoffs = spec.migration_handoffs();
        StepPolicy {
            tolerant: spec.fault_plan.is_some() || liveness.is_some(),
            book: MigrationBook::new(handoffs.len()),
            handoff_timeout: spec
                .migration
                .map_or(Duration::ZERO, |m| m.handoff_timeout()),
            plan,
            liveness,
            handoffs,
        }
    }
}

/// What every rank of a run shares: the spec, the staged data, the policy,
/// and — iff the policy has a liveness part — the board ranks beat on.
struct RankCx {
    spec: ExperimentSpec,
    staged: Arc<StagedData>,
    policy: StepPolicy,
    board: Option<Arc<HeartbeatBoard>>,
    /// Where simulation ranks lease the buffers they encode into.
    payloads: PayloadPool,
}

impl RankCx {
    fn new(spec: &ExperimentSpec, staged: &Arc<StagedData>, payloads: &PayloadPool) -> Arc<RankCx> {
        let policy = StepPolicy::new(spec);
        // Who beats the board: every rank of a local fabric; under internode
        // the simulation ranks — the ones a scripted kill can take down (viz
        // ranks only consult it).
        let board = policy.liveness.as_ref().map(|_| {
            HeartbeatBoard::new(match spec.coupling {
                Coupling::Intercore => 2 * spec.ranks,
                Coupling::Tight | Coupling::Internode => spec.ranks,
            })
        });
        Arc::new(RankCx {
            spec: spec.clone(),
            staged: staged.clone(),
            policy,
            board,
            payloads: payloads.clone(),
        })
    }

    fn live(&self) -> Option<(&Liveness, &Arc<HeartbeatBoard>)> {
        self.policy.liveness.as_ref().zip(self.board.as_ref())
    }

    fn is_dead(&self, rank: usize) -> bool {
        self.board.as_ref().is_some_and(|board| board.is_dead(rank))
    }

    fn beater(&self, slot: usize) -> Option<Beater> {
        self.live()
            .map(|(live, board)| Beater::spawn(board, slot, live.recovery.heartbeat))
    }

    /// The pair link a rank's blocks cross: `link` itself, behind the chaos
    /// wrapper iff the spec carries a fault plan. The wrapper never sees a
    /// communicator, so collectives and control messages are out of its
    /// reach, and an experiment without a plan pays nothing for it.
    fn link<'l>(&self, link: impl PairLink + 'l) -> Box<dyn PairLink + 'l> {
        match &self.spec.fault_plan {
            Some(plan) => Box::new(ChaosLink::new(link, plan.clone())),
            None => Box::new(link),
        }
    }
}

/// How a visualization rank gets one simulation rank's block.
enum Wire<'a> {
    /// Tight: sim and viz share the rank's call stack; the rank's proxy
    /// presents its block in-process, as the series' own handle. The load
    /// a real proxy would do is the series read under a memory budget.
    InProcess(SimulationProxy),
    Link(Box<dyn PairLink + 'a>),
}

/// The fabric visualization ranks composite over: its ranks `base..size`
/// are viz indices `0..V`, and viz index 0 is the root.
#[derive(Clone, Copy)]
struct VizFabric<'a> {
    comm: &'a dyn Communicator,
    /// Fabric rank of viz index 0: intercore seats the R simulation ranks
    /// in front (the gather leaves them out); tight and internode fabrics
    /// are all-viz.
    base: usize,
    /// The fabric's ranks sit on the liveness board: they beat, may be
    /// declared dead, and composites must gather around the dead.
    on_board: bool,
}

/// The simulation side of a step: the rank's proxy presents the block, the
/// rank encodes it and pushes it across the pair link. A block the proxy
/// skipped crosses as the empty payload, a hole the composite root counts.
fn sim_role(cx: &RankCx, rank: usize, link: &dyn PairLink) -> Result<RankOutput> {
    let spec = &cx.spec;
    let mut proxy = SimulationProxy::new(cx.staged.series.clone(), rank);
    let mut beater = cx.beater(rank);
    let mut out = RankOutput::default();
    for step in 0..spec.steps {
        if let (true, Some((live, board))) = (cx.policy.plan.kills(rank, step), cx.live()) {
            // The scripted death: stop beating, wait to be declared dead
            // (so detection latency is measured against a real silence),
            // and leave a tombstone — the partition's story continues in
            // whoever drains this rank. Returning drops the link, so the
            // drainer sees it snap rather than stall.
            beater.take();
            board.await_death(rank, live.run_deadline);
            return Ok(RankOutput::default());
        }
        let t = Instant::now();
        let payload = match proxy.step(step)? {
            Some(block) => encode_block(spec, &block, &cx.payloads),
            None => Bytes::new(),
        };
        out.phases.sim_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        match link.send(DATA_TAG_MIN + step as u32, payload) {
            Ok(()) => {}
            // a dead viz link must not kill the simulation: note it and
            // keep stepping (the draining viz rank degrades)
            Err(e) if cx.policy.tolerant => out.degradation.count(&e),
            Err(e) => return Err(e.into()),
        }
        out.phases.transfer_s += t.elapsed().as_secs_f64();
        if let Some((live, board)) = cx.live() {
            live.checkpoints.record(StepCheckpoint {
                rank,
                partition: rank,
                step,
                proxy_cursor: proxy.cursor(),
                rng_state: spec.seed ^ rank as u64,
                degradation: out.degradation,
            });
            board.step_done(rank, step);
        }
    }
    out.bytes_sent = link.bytes_sent();
    Ok(out)
}

/// Receive `sim`'s block for this step. Without a liveness part this is one
/// blocking receive (the chaos wrapper applies the plan's deadline, so a
/// dropped message costs one deadline, not the run). With one, the receive
/// is sliced against the board; `None` with `sim` dead means "adopt", any
/// other `None` is a lost block whose fault is counted in `deg`, or the
/// empty payload of a block the simulation rank's proxy skipped (either
/// way, the hole it leaves is the root's to count).
fn drain(
    cx: &RankCx,
    link: &dyn PairLink,
    sim: usize,
    tag: u32,
    deg: &mut Degradation,
) -> Result<Option<DataObject>> {
    let received = match cx.live() {
        None => link.recv(tag, None),
        Some((live, board)) => {
            let deadline = Instant::now() + live.recv_budget;
            loop {
                // dead already, or died while we waited: the caller adopts
                if board.is_dead(sim) {
                    return Ok(None);
                }
                let now = Instant::now();
                if now >= deadline {
                    break Err(TransportError::Timeout {
                        peer: sim,
                        elapsed: live.recv_budget,
                    });
                }
                match link.recv(tag, Some(live.recv_slice.min(deadline - now))) {
                    Err(TransportError::Timeout { .. }) => continue,
                    // a link that snaps because its rank died is a death,
                    // not a fault
                    Err(_) if board.is_dead(sim) => return Ok(None),
                    other => break other,
                }
            }
        }
    };
    if received.as_ref().is_ok_and(Bytes::is_empty) {
        return Ok(None);
    }
    match received
        .map_err(CoreError::from)
        .and_then(|payload| decode_block(&cx.spec, sim, payload))
    {
        Ok(block) => return Ok(Some(block)),
        Err(e) if !cx.policy.tolerant => return Err(e),
        Err(CoreError::Transport(e)) => deg.count(&e),
        // the wire codec rejected the payload
        Err(_) => deg.corrupt_payloads += 1,
    }
    Ok(None)
}

fn malformed_contribution() -> CoreError {
    CoreError::Config("malformed framebuffer contribution on the wire".into())
}

/// The fallback handoff state when the partition has no checkpoint yet
/// (a migration scheduled before the first step completed).
fn synthetic_checkpoint(spec: &ExperimentSpec, partition: usize, step: usize) -> StepCheckpoint {
    StepCheckpoint {
        rank: partition,
        partition,
        step: step.saturating_sub(1),
        proxy_cursor: step,
        rng_state: spec.seed ^ partition as u64,
        degradation: Degradation::default(),
    }
}

/// Run the three-phase handshakes scheduled for `step` that involve this
/// viz rank: offer → checkpoint-state transfer → ack, all on the
/// chaos-exempt control plane. Every rank walks the handoff list in the
/// same (index) order, so a rank that sources one handoff and targets
/// another can never cross-wait with a peer. Commits flip the local
/// ownership map on both ends; a refused, aborted, or timed-out handoff
/// degrades to "no migration happened" — the source keeps rendering.
///
/// Death wins the migration-vs-death race deterministically: intake runs
/// before the handshake, and a killed simulation rank parks until the
/// board confirms its death, so by offer time the board already reflects
/// any death scheduled at or before this step.
fn migrate_handshakes(
    cx: &RankCx,
    fabric: VizFabric,
    step: usize,
    owners: &mut [usize],
    deg: &mut Degradation,
    disruption: &mut Vec<f64>,
) -> Result<()> {
    let (spec, policy, comm) = (&cx.spec, &cx.policy, fabric.comm);
    let (book, timeout) = (&policy.book, policy.handoff_timeout);
    let me = comm.rank() - fabric.base;
    for (index, h) in policy.handoffs.iter().enumerate() {
        if h.step != step {
            continue;
        }
        if h.from == me {
            let t = Instant::now();
            // Death wins: never offer a partition whose simulation rank is
            // confirmed dead — the adoption path keeps rendering it here.
            if cx.is_dead(h.partition) || !book.is_pending(index) {
                book.abort(index);
                deg.migration_failures += 1;
                eth_obs::count("migration_failures", 1.0);
                disruption.push(t.elapsed().as_secs_f64());
                continue;
            }
            let state = cx
                .live()
                .and_then(|(live, _)| live.checkpoints.latest(h.partition))
                .unwrap_or_else(|| synthetic_checkpoint(spec, h.partition, step));
            let payload = serde_json::to_vec(&state)
                .map(Bytes::from)
                .unwrap_or_default();
            let offer = MigrateOffer {
                handoff: index,
                partition: h.partition,
                source: comm.rank(),
                step,
            };
            send_migrate_offer(comm, fabric.base + h.to, &offer, payload)?;
            match recv_migrate_ack(comm, fabric.base + h.to, index, timeout) {
                Ok(MigrateAck {
                    committed: true, ..
                }) => {
                    owners[h.partition] = h.to;
                    deg.migrations += 1;
                    eth_obs::count("migrations", 1.0);
                }
                _ => {
                    // refused, aborted, or the ack never landed: keep the
                    // partition (the target commits only through the book's
                    // CAS, so a lost ack can at worst double-render one
                    // step — idempotent under the partition-ordered
                    // composite).
                    book.abort(index);
                    deg.migration_failures += 1;
                    eth_obs::count("migration_failures", 1.0);
                }
            }
            disruption.push(t.elapsed().as_secs_f64());
        } else if h.to == me {
            // The source skips offering a dead partition, so don't burn
            // the timeout waiting for an offer that will never come.
            if cx.is_dead(h.partition) || book.is_aborted(index) {
                continue;
            }
            // A receive error means the source never offered (it saw the
            // death or aborted first); the source owns the failure
            // accounting, so nothing to do here on that path.
            if let Ok((offer, state)) =
                recv_migrate_offer(comm, fabric.base + h.from, index, timeout)
            {
                debug_assert_eq!(offer.partition, h.partition);
                let committed = !cx.is_dead(h.partition) && book.try_commit(index);
                let ack = MigrateAck {
                    handoff: index,
                    committed,
                };
                send_migrate_ack(comm, fabric.base + h.from, &ack)?;
                if committed {
                    owners[h.partition] = h.to;
                    // the simulation side streams ahead of the viz steps
                    // (sends are non-blocking), so the cursor may already
                    // be past `step`; it can never be past the run
                    debug_assert!(serde_json::from_slice::<StepCheckpoint>(&state)
                        .map_or(true, |ckpt| ckpt.proxy_cursor <= spec.steps));
                }
            }
        }
    }
    Ok(())
}

/// The visualization side of a step: drain the wires, run this step's
/// handshakes (intake first, so a death racing a migration is already on
/// the board), render the partitions this rank owns, and contribute them
/// to each frame's gather as one partition-framed payload; the root folds
/// the partition slots in ascending order, counts the empty ones, and
/// keeps the images.
///
/// `wires` are the `(simulation rank, wire)` pairs this rank drains,
/// ascending. Pairings are the *initial* layout's for the whole run — a
/// migrated partition's original feeder keeps draining its wire (identical
/// backpressure and fault accounting to a run without migration) while the
/// new owner presents the partition through a proxy of its own.
fn viz_role(cx: &RankCx, fabric: VizFabric, mut wires: Vec<(usize, Wire)>) -> Result<RankOutput> {
    let (spec, policy, staged) = (&cx.spec, &cx.policy, &cx.staged);
    let comm = fabric.comm;
    let r = spec.ranks;
    let me = comm.rank() - fabric.base;
    let is_root = me == 0;
    let adopt = policy
        .liveness
        .as_ref()
        .is_some_and(|live| live.recovery.adopt);
    let _beater = fabric.on_board.then(|| cx.beater(comm.rank())).flatten();
    let mut owners: Vec<usize> = (0..r).map(|p| spec.initial_owner(p)).collect();
    // simulation ranks whose death this rank has accounted (exactly once,
    // by the drainer — the partition may live elsewhere by then)
    let mut lost = vec![false; r];
    let mut own_notices: Vec<AdoptNotice> = Vec::new();
    // proxies for the partitions this rank adopts or migrates in
    let mut inherited: Vec<Option<SimulationProxy>> = (0..r).map(|_| None).collect();
    let mut out = RankOutput::default();
    // On a fabric whose ranks can die mid-run the gather's root skips the
    // dead and bounds every other receive.
    let is_dead = |peer| cx.is_dead(peer);
    let survivors = cx.live().filter(|_| fabric.on_board).map(|(live, _)| Survivors {
        is_dead: &is_dead,
        timeout: live.run_deadline,
    });

    for step in 0..spec.steps {
        let mut deg = Degradation::default();

        // 1. Intake: drain every wire this rank holds, owner or not.
        let mut wire_blocks: Vec<Option<Arc<DataObject>>> = vec![None; r];
        for (sim, wire) in &mut wires {
            let sim = *sim;
            let t = Instant::now();
            let link = match wire {
                Wire::InProcess(proxy) => {
                    wire_blocks[sim] = proxy.step(step)?;
                    out.phases.sim_s += t.elapsed().as_secs_f64();
                    continue;
                }
                Wire::Link(link) => link,
            };
            let tag = DATA_TAG_MIN + step as u32;
            wire_blocks[sim] = drain(cx, link.as_ref(), sim, tag, &mut deg)?.map(Arc::new);
            if let Some((_, board)) = cx.live().filter(|_| wire_blocks[sim].is_none()) {
                if board.is_dead(sim) && !std::mem::replace(&mut lost[sim], true) {
                    let _span = eth_obs::span(eth_obs::Phase::Recovery);
                    deg.rank_losses += 1;
                    eth_obs::count("rank_losses", 1.0);
                    if adopt {
                        deg.adopted_partitions += 1;
                        eth_obs::count("adopted_partitions", 1.0);
                        // The dead rank may have checkpointed *past* this
                        // step (sim and viz ranks progress independently).
                        // That is fine — the adopter's own proxy presents
                        // the partition at the adopter's own step.
                        let notice = AdoptNotice {
                            dead_rank: sim,
                            adopted_at_step: step,
                            adopter: r + owners[sim],
                            latency_ns: board.death_of(sim).map_or(0, |death| {
                                board.now_ns().saturating_sub(death.last_beat_ns)
                            }),
                        };
                        if is_root {
                            // the root drained the dead rank itself; no
                            // wire round-trip
                            own_notices.push(notice);
                        } else {
                            send_adopt_notice(comm, fabric.base, &notice)?;
                        }
                    }
                }
            }
            out.phases.transfer_s += t.elapsed().as_secs_f64();
        }

        // 2. This step's handshakes (after intake: death wins the race).
        migrate_handshakes(
            cx,
            fabric,
            step,
            &mut owners,
            &mut deg,
            &mut out.migration_disruption_s,
        )?;

        // 3. Render the owned partitions in ascending order. Every rank
        //    colors through the step's global transfer-function range.
        let pipeline = pipeline_for_step(spec, staged, step);
        let t_viz = Instant::now();
        let mut rendered: Vec<(usize, Vec<Framebuffer>)> = Vec::new();
        for p in (0..r).filter(|&p| owners[p] == me) {
            let block = match wire_blocks[p].take() {
                Some(block) => block,
                // dead and not adopted: dark
                None if cx.is_dead(p) && !adopt => continue,
                // own wire, alive, but the message was lost: a hole
                None if !cx.is_dead(p) && wires.iter().any(|(sim, _)| *sim == p) => continue,
                // adopted or migrated-in: this rank's proxy presents the
                // partition, byte-identical to the wire block (a block it
                // skips is a hole)
                None => {
                    let proxy = inherited[p]
                        .get_or_insert_with(|| SimulationProxy::new(staged.series.clone(), p));
                    match proxy.step(step)? {
                        Some(block) => block,
                        None => continue,
                    }
                }
            };
            let pass = pipeline.execute_step(step, &block, &staged.bounds[step])?;
            out.stats = accumulate(out.stats, pass.stats);
            rendered.push((p, pass.frames));
        }
        // Classify the step: faults with nothing rendered = a dropped step,
        // faults with partial delivery = a degraded step. Either way the
        // rank presses on and joins every composite, so one sick link
        // never deadlocks the run.
        if deg.faults() > 0 {
            if rendered.is_empty() {
                deg.dropped_steps += 1;
            } else {
                deg.degraded_steps += 1;
            }
        }
        out.phases.viz_s += t_viz.elapsed().as_secs_f64();

        // 4. Contribute to each frame's gather over the viz ranks; the root
        //    composites.
        let t_comp = Instant::now();
        for image_index in 0..spec.images_per_step {
            let entries: Vec<(usize, &Framebuffer)> = rendered
                .iter()
                .filter_map(|(p, frames)| frames.get(image_index).map(|fb| (*p, fb)))
                .collect();
            let payload = Bytes::from(encode_contribution(&entries));
            let salt = (step * spec.images_per_step + image_index) as u32;
            let members = fabric.base..comm.size();
            if let Some(parts) = gather(comm, members, salt, payload, survivors)? {
                let received = parts.iter().flatten().map(|raw| &raw[..]);
                let (frame, stats) = composite_parts(r, spec.width, spec.height, received)
                    .ok_or_else(malformed_contribution)?;
                deg.missing_contributions += stats.missing_contributions;
                let image = frame.into_image();
                pipeline.write_artifact(step, image_index, &image)?;
                out.images.push(image);
            }
        }
        out.phases.composite_s += t_comp.elapsed().as_secs_f64();
        out.degradation.absorb(&deg);
        if is_root {
            // The composite root closing a step is the frame boundary the
            // critical-path walk in `eth_obs::merge` attributes backwards from.
            eth_obs::step_mark(step as u64);
        }
        if let Some(board) = cx.board.as_ref().filter(|_| fabric.on_board) {
            board.step_done(comm.rank(), step);
        }
    }

    // The root drains the control plane: one adoption notice per dead
    // simulation rank, from the rank that drained it, carries the measured
    // detection-to-adoption latency. A missing notice falls back to the
    // board's own estimate.
    if let Some((live, board)) = cx.live().filter(|_| is_root) {
        let patience = live.recovery.heartbeat.detection_deadline() * 4;
        for death in board.deaths().into_iter().filter(|death| death.rank < r) {
            let drainer = spec.initial_owner(death.rank);
            let notice = if drainer == me {
                own_notices
                    .iter()
                    .find(|n| n.dead_rank == death.rank)
                    .copied()
            } else if adopt {
                recv_adopt_notice(comm, fabric.base + drainer, death.rank, patience).ok()
            } else {
                None
            };
            let latency = notice
                .map(|n| n.latency_ns as f64 * 1e-9)
                .unwrap_or_else(|| death.detection_latency().as_secs_f64());
            out.recovery_latency_s.push(latency);
            eth_obs::count("adopt_notices", 1.0);
        }
    }

    // A visualization rank only receives on its wires, so the fabric's
    // counters and the links' never count one byte twice.
    out.bytes_sent = comm.traffic().bytes_sent
        + wires
            .iter()
            .map(|(_, wire)| match wire {
                Wire::InProcess(_) => 0,
                Wire::Link(link) => link.bytes_sent(),
            })
            .sum::<u64>();
    Ok(out)
}

/// What a rank's thread does.
type Role = Box<dyn FnOnce(&RankCx) -> Result<RankOutput> + Send>;

impl RankCx {
    /// Start one thread per `(rank, role)` through the transport's launcher
    /// and collect them under the policy's supervision: none for the empty
    /// policy (a blocking collect), the plan's per-rank wall-clock budget
    /// if it sets one, and with a liveness part the heartbeat watch whose
    /// collector doubles as the supervisor. A hung or panicking rank, or
    /// one death too many, surfaces as [`CoreError::Rank`] instead of
    /// wedging or aborting the sweep; ranks that died within the loss
    /// budget leave tombstones (or, past the grace window, nothing). Every
    /// rank is collected before the first rank error is reported.
    fn launch(self: Arc<RankCx>, roles: Vec<(usize, Role)>) -> Result<Vec<RankOutput>> {
        let supervision = Supervision {
            budget: match &self.policy.liveness {
                Some(live) => Some(live.run_deadline),
                None => self.policy.plan.rank_timeout(),
            },
            watch: self.live().map(|(live, board)| Watch {
                board: board.clone(),
                policy: live.recovery.heartbeat,
                max_losses: live.recovery.max_rank_losses as usize,
            }),
        };
        let seats = roles
            .into_iter()
            .map(|(rank, role)| {
                let cx = self.clone();
                Seat::new(rank, move || role(&cx))
            })
            .collect();
        launch(seats, &supervision)?.into_iter().flatten().collect()
    }
}

fn run_coupled(
    spec: &ExperimentSpec,
    staged: &Arc<StagedData>,
    payloads: &PayloadPool,
) -> Result<Vec<RankOutput>> {
    let cx = RankCx::new(spec, staged, payloads);
    match spec.coupling {
        Coupling::Tight | Coupling::Intercore => launch_local(cx),
        Coupling::Internode => launch_sockets(cx),
    }
}

/// Tight and intercore: every rank is a thread on one in-process fabric.
/// Tight seats R ranks whose sim and viz share a call stack; intercore
/// seats 2R — simulation ranks `0..R` in front of their paired
/// visualization ranks `R..2R`, each pair's link a view of the fabric.
fn launch_local(run: Arc<RankCx>) -> Result<Vec<RankOutput>> {
    let r = run.spec.ranks;
    let base = if run.spec.coupling == Coupling::Intercore {
        r
    } else {
        0
    };
    let roles = LocalFabric::new(base + r)
        .into_iter()
        .enumerate()
        .map(|(rank, comm)| {
            let role: Role = Box::new(move |cx| local_role(cx, rank, base, &comm));
            (rank, role)
        })
        .collect();
    run.launch(roles)
}

/// One rank of a local fabric: fabric ranks below `base` simulate, the
/// rest visualize, each draining the simulation rank `base` below it (or,
/// tight, presenting its own block in-process).
fn local_role(cx: &RankCx, rank: usize, base: usize, comm: &dyn Communicator) -> Result<RankOutput> {
    let link = |peer| cx.link(FabricLink::new(comm, peer));
    if rank < base {
        return sim_role(cx, rank, link(base + rank).as_ref());
    }
    let sim = rank - base;
    let wire = match base {
        0 => Wire::InProcess(SimulationProxy::new(cx.staged.series.clone(), sim)),
        _ => Wire::Link(link(sim)),
    };
    let fabric = VizFabric {
        comm,
        base,
        on_board: cx.board.is_some(),
    };
    viz_role(cx, fabric, vec![(sim, wire)])
}

/// The run's layout directory, removed however the launcher leaves — by
/// return or by error.
struct LayoutDir(std::path::PathBuf);

impl Drop for LayoutDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Internode: R simulation threads and V visualization threads in separate
/// "applications". Simulation ranks publish to the layout file, open their
/// sockets and wait; visualization ranks poll the file and connect (the
/// paper's Section III-C bootstrap), then composite among themselves over
/// a local fabric. With an asymmetric layout (`viz_ranks != ranks`) viz
/// rank `v` serves the sim ranks `{s : s % V == v}`; the fabric is sized to
/// [`ExperimentSpec::max_viz_count`], so a `Rescale` that grows the
/// application has fresh ranks ready (they hold no sockets until a handoff
/// gives them work) and one that shrinks leaves the retiring ranks
/// draining their wires with nothing to render.
///
/// Ranks claim ids on the run's modeled node layout: sim ranks `0..R` (the
/// board's slots under a liveness part), viz ranks `R..R+V`. With handoffs
/// a migration supervisor aborts pending handoffs whose partition's rank
/// died.
fn launch_sockets(run: Arc<RankCx>) -> Result<Vec<RankOutput>> {
    let r = run.spec.ranks;
    // Layout file in a fresh temp dir per run. The counter keeps dirs
    // distinct when a campaign runs same-named internode points
    // concurrently in one process.
    static LAYOUT_RUN: AtomicU64 = AtomicU64::new(0);
    let layout_dir = LayoutDir(std::env::temp_dir().join(format!(
        "eth-layout-{}-{:x}-{}",
        run.spec.name.replace('/', "_"),
        std::process::id(),
        LAYOUT_RUN.fetch_add(1, Ordering::Relaxed)
    )));
    let _ = std::fs::remove_dir_all(&layout_dir.0);
    let layout = LayoutFile::create(&layout_dir.0)?;

    // Death arbitration: abort any still-pending handoff whose partition's
    // simulation rank stopped beating.
    let handoffs = &run.policy.handoffs;
    let _aborts = run
        .live()
        .filter(|_| !handoffs.is_empty())
        .map(|(live, board)| {
            eth_obs::count("liveness_threads", 1.0);
            let watch = handoffs.iter().map(|h| h.partition).enumerate().collect();
            spawn_migration_supervisor(board, &run.policy.book, watch, live.recovery.heartbeat)
        });

    // Visualization ranks spawn first so their bootstrap waits show up
    // inside covered connect_to spans instead of as unattributable
    // pre-spawn idle when the box is oversubscribed.
    let mut roles: Vec<(usize, Role)> = Vec::new();
    for (v, comm) in LocalFabric::new(run.spec.max_viz_count())
        .into_iter()
        .enumerate()
    {
        let layout = layout.clone();
        roles.push((
            r + v,
            Box::new(move |cx| {
                let mut wires = Vec::new();
                for sim in (0..r).filter(|&sim| cx.spec.initial_owner(sim) == v) {
                    // the viz rank announces its own rank on the pair link,
                    // so frames and errors on both ends carry true identities
                    let chan = connect_to(&layout, sim, v, BOOTSTRAP_TIMEOUT)?;
                    wires.push((sim, Wire::Link(cx.link(chan))));
                }
                let fabric = VizFabric {
                    comm: &comm,
                    base: 0,
                    on_board: false,
                };
                viz_role(cx, fabric, wires)
            }),
        ));
    }
    for rank in 0..r {
        let layout = layout.clone();
        roles.push((
            rank,
            Box::new(move |cx| {
                let link = cx.link(listen_as(&layout, rank)?);
                sim_role(cx, rank, link.as_ref())
            }),
        ));
    }
    run.launch(roles)
}

/// A paper-scale design point for the cluster simulator.
#[derive(Debug, Clone, Copy)]
pub struct ClusterExperiment {
    pub algorithm: AlgorithmClass,
    pub coupling: CouplingStrategy,
    pub nodes: u32,
    pub workload: Workload,
    pub calibration: Calibration,
    /// Asymmetric internode split: share of the allocation given to the
    /// visualization proxy. `None` uses the coupling's canonical layout
    /// (internode = 0.5). Ignored for tight/intercore.
    pub viz_fraction: Option<f64>,
}

impl ClusterExperiment {
    /// HACC at paper scale: `particles` across `nodes` Hikari nodes,
    /// 500 images per step at 512².
    pub fn hacc(algorithm: AlgorithmClass, nodes: u32, particles: u64) -> ClusterExperiment {
        ClusterExperiment {
            algorithm,
            coupling: CouplingStrategy::Tight,
            nodes,
            workload: Workload {
                global_elements: particles,
                image_pixels: 512 * 512,
                images_per_step: 500,
                steps: 1,
                bytes_per_element: 32,
                sampling_ratio: 1.0,
                planes: 0,
                sim_ops_per_element: 0.0,
            },
            calibration: Calibration::default(),
            viz_fraction: None,
        }
    }

    /// xRAGE at paper scale: `dims` grid across `nodes`, 100 images/step.
    pub fn xrage(algorithm: AlgorithmClass, nodes: u32, dims: [u64; 3]) -> ClusterExperiment {
        ClusterExperiment {
            algorithm,
            coupling: CouplingStrategy::Tight,
            nodes,
            workload: Workload {
                global_elements: dims[0] * dims[1] * dims[2],
                image_pixels: 512 * 512,
                images_per_step: 100,
                steps: 1,
                bytes_per_element: 4,
                sampling_ratio: 1.0,
                planes: 2,
                sim_ops_per_element: 0.0,
            },
            calibration: Calibration::default(),
            viz_fraction: None,
        }
    }

    pub fn with_coupling(mut self, coupling: CouplingStrategy) -> Self {
        self.coupling = coupling;
        self
    }

    pub fn with_sampling(mut self, ratio: f64) -> Self {
        self.workload.sampling_ratio = ratio;
        self
    }

    pub fn with_steps(mut self, steps: u32) -> Self {
        self.workload.steps = steps;
        self
    }

    pub fn with_images_per_step(mut self, images: u32) -> Self {
        self.workload.images_per_step = images;
        self
    }

    pub fn with_sim_ops(mut self, ops_per_element: f64) -> Self {
        self.workload.sim_ops_per_element = ops_per_element;
        self
    }

    pub fn with_calibration(mut self, cal: Calibration) -> Self {
        self.calibration = cal;
        self
    }

    /// Space-share with an asymmetric split (implies internode coupling).
    pub fn with_viz_fraction(mut self, fraction: f64) -> Self {
        self.coupling = CouplingStrategy::Internode;
        self.viz_fraction = Some(fraction);
        self
    }
}

/// Execute a paper-scale design point on the Hikari model.
pub fn run_cluster(exp: &ClusterExperiment) -> RunMetrics {
    let cluster = ClusterSpec::hikari(exp.nodes);
    let model = CostModel::new(exp.calibration, cluster);
    let graph = match (exp.coupling, exp.viz_fraction) {
        (CouplingStrategy::Internode, Some(fraction)) => {
            eth_cluster::coupling::build_schedule_split(
                &model,
                exp.algorithm,
                &exp.workload,
                exp.nodes,
                fraction,
            )
        }
        _ => build_schedule(&model, exp.coupling, exp.algorithm, &exp.workload, exp.nodes),
    };
    let machine = ClusterMachine::new(cluster);
    let (trace, profile) = machine.run(&graph);
    RunMetrics::from_run(exp.nodes, &trace, &profile)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Algorithm, Application, ExperimentSpec};
    use eth_transport::fault::FaultPlan;

    fn base_spec(name: &str) -> ExperimentSpec {
        ExperimentSpec::builder(name)
            .application(Application::Hacc { particles: 3_000 })
            .algorithm(Algorithm::GaussianSplat)
            .ranks(3)
            .steps(2)
            .images_per_step(2)
            .image_size(40, 40)
            .build()
            .unwrap()
    }

    #[test]
    fn tight_native_run_end_to_end() {
        let spec = base_spec("tight");
        let out = run_native(&spec).unwrap();
        assert_eq!(out.images.len(), 4); // 2 steps x 2 images
        assert!(out.images[0].coverage(0.01) > 0.0, "blank image");
        assert!(out.stats.fragments > 0);
        assert!(out.phases.viz_s > 0.0);
        assert!(out.bytes_moved > 0, "compositing moved no bytes");
        assert!(out.report().contains("tight"));
    }

    #[test]
    fn intercore_native_run_matches_tight_images() {
        let tight = run_native(&base_spec("a")).unwrap();
        let mut spec = base_spec("a"); // same name/seed => same data
        spec.coupling = Coupling::Intercore;
        let intercore = run_native(&spec).unwrap();
        assert_eq!(intercore.images.len(), tight.images.len());
        for (a, b) in tight.images.iter().zip(&intercore.images) {
            let rmse = a.rmse(b).unwrap();
            assert!(rmse < 1e-6, "couplings changed the image: rmse {rmse}");
        }
        assert!(intercore.phases.transfer_s >= 0.0);
    }

    #[test]
    fn internode_native_run_matches_tight_images() {
        let tight = run_native(&base_spec("b")).unwrap();
        let mut spec = base_spec("b");
        spec.coupling = Coupling::Internode;
        let internode = run_native(&spec).unwrap();
        assert_eq!(internode.images.len(), tight.images.len());
        for (a, b) in tight.images.iter().zip(&internode.images) {
            let rmse = a.rmse(b).unwrap();
            assert!(rmse < 1e-6, "couplings changed the image: rmse {rmse}");
        }
        // internode really moved the data across the socket layer
        assert!(internode.bytes_moved > tight.bytes_moved);
    }

    #[test]
    fn grid_application_native_run() {
        let spec = ExperimentSpec::builder("grid")
            .application(Application::Xrage { dims: [20, 16, 12] })
            .algorithm(Algorithm::RaycastIsosurface)
            .ranks(2)
            .image_size(40, 40)
            .build()
            .unwrap();
        let out = run_native(&spec).unwrap();
        assert_eq!(out.images.len(), 1);
        assert!(out.images[0].coverage(0.01) > 0.005, "isosurface invisible");
    }

    #[test]
    fn sampling_changes_output_but_not_shape() {
        let full = run_native(&base_spec("s")).unwrap();
        let mut spec = base_spec("s");
        spec.sampling_ratio = 0.25;
        let sampled = run_native(&spec).unwrap();
        let rmse = sampled.images[0].rmse(&full.images[0]).unwrap();
        assert!(rmse > 0.0, "sampling must change the image");
        assert!(rmse < 0.5, "sampled image unrecognizable: rmse {rmse}");
    }

    #[test]
    fn clean_runs_report_no_degradation() {
        for coupling in Coupling::all() {
            let mut spec = base_spec("clean");
            spec.coupling = coupling;
            let out = run_native(&spec).unwrap();
            assert!(out.degradation.is_clean());
            assert!(!out.report().contains("degraded"));
            // the empty policy starts no beater or supervisor thread,
            // records no checkpoint, and collects its ranks without ever
            // waking on a clock
            assert_eq!(out.counters.get("liveness_threads"), 0.0, "{coupling:?}");
            assert_eq!(out.counters.get("step_checkpoints"), 0.0, "{coupling:?}");
            assert_eq!(out.counters.get("supervised_launches"), 0.0, "{coupling:?}");
        }
    }

    #[test]
    fn intercore_simulation_ranks_send_their_blocks_and_nothing_else() {
        // The composite gathers cover the visualization ranks only: a
        // simulation rank's one message per step is its data block, and
        // those bytes reach `bytes_moved` through its link.
        let mut spec = base_spec("ic-sends");
        spec.coupling = Coupling::Intercore;
        let staged = Arc::new(stage_data(&spec, Default::default()).unwrap());
        let cx = RankCx::new(&spec, &staged, &PayloadPool::new());
        let r = spec.ranks;
        let ranks: Vec<(RankOutput, eth_transport::comm::TrafficCounters)> =
            std::thread::scope(|s| {
                let handles: Vec<_> = LocalFabric::new(2 * r)
                    .into_iter()
                    .enumerate()
                    .map(|(rank, comm)| {
                        let cx = &cx;
                        s.spawn(move || (local_role(cx, rank, r, &comm).unwrap(), comm.traffic()))
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
        for (rank, (out, traffic)) in ranks.iter().enumerate().take(r) {
            assert_eq!(traffic.messages_sent, spec.steps as u64, "sim rank {rank}");
            assert!(traffic.bytes_sent > 0, "sim rank {rank}");
            assert_eq!(out.bytes_sent, traffic.bytes_sent, "sim rank {rank}");
        }
        // the root keeps every frame; the other viz ranks send one
        // contribution per frame and nothing else
        assert_eq!(ranks[r].0.images.len(), spec.steps * spec.images_per_step);
        for (out, traffic) in &ranks[r + 1..] {
            assert_eq!(traffic.messages_sent, (spec.steps * spec.images_per_step) as u64);
            assert_eq!(out.bytes_sent, traffic.bytes_sent);
        }
    }

    #[test]
    fn internode_disconnect_degrades_not_deadlocks() {
        // Sim rank 1's viz link dies after 2 messages and a quarter of the
        // remaining data traffic is dropped. The run must complete (inside
        // the deadline budget, not hang), produce every image slot, and
        // report the lost steps.
        let plan = FaultPlan::seeded(5)
            .with_disconnect(1, 2)
            .with_drop(0.25)
            .with_recv_deadline_ms(500);
        let spec = ExperimentSpec::builder("chaos-internode")
            .application(Application::Hacc { particles: 2_000 })
            .algorithm(Algorithm::GaussianSplat)
            .coupling(Coupling::Internode)
            .ranks(2)
            .steps(4)
            .image_size(32, 32)
            .fault_plan(plan)
            .build()
            .unwrap();
        let t0 = Instant::now();
        let out = run_native(&spec).unwrap();
        assert!(t0.elapsed() < Duration::from_secs(30), "run wedged");
        assert_eq!(out.images.len(), 4, "every image slot must fill");
        assert!(
            out.degradation.dropped_steps >= 1,
            "disconnect lost no steps: {:?}",
            out.degradation
        );
        assert!(out.degradation.disconnects >= 1, "{:?}", out.degradation);
        assert!(out.report().contains("degraded"));
    }

    #[test]
    fn failed_internode_run_joins_its_ranks_and_leaves_no_layout_dir() {
        // No fault plan, so nothing is tolerated: the composite root fails
        // mid-run (its artifact directory is a regular file), which snaps
        // its links under the other ranks. The launcher must still join
        // everyone, report the error, and remove the layout directory.
        let blocker = std::env::temp_dir().join(format!("eth-blocker-{:x}", std::process::id()));
        std::fs::write(&blocker, b"not a directory").unwrap();
        let mut spec = base_spec("layout-leak");
        spec.coupling = Coupling::Internode;
        spec.artifact_dir = Some(blocker.join("artifacts"));
        assert!(run_native(&spec).is_err(), "artifact write cannot succeed");
        std::fs::remove_file(&blocker).unwrap();
        let prefix = format!("eth-layout-layout-leak-{:x}-", std::process::id());
        let leaked: Vec<_> = std::fs::read_dir(std::env::temp_dir())
            .unwrap()
            .filter_map(|entry| entry.ok()?.file_name().into_string().ok())
            .filter(|name| name.starts_with(&prefix))
            .collect();
        assert!(leaked.is_empty(), "leaked layout dirs: {leaked:?}");
    }

    #[test]
    fn internode_payload_corruption_is_detected_at_the_codec() {
        // Send-side corruption mangles real payload bytes; the checksum
        // trailer must catch every one of them at decode time, so the
        // corrupt counter reflects *detected* corruption, not merely the
        // injector's bookkeeping.
        let plan = FaultPlan::seeded(9).with_corrupt(0.6).with_recv_deadline_ms(500);
        let mut spec = base_spec("chaos-corrupt");
        spec.coupling = Coupling::Internode;
        spec.fault_plan = Some(plan);
        let out = run_native(&spec).unwrap();
        assert!(
            out.degradation.corrupt_payloads > 0,
            "no corruption detected: {:?}",
            out.degradation
        );
        // the run still fills every image slot (degraded, not dead)
        assert_eq!(out.images.len(), 4);
    }

    #[test]
    fn failed_compute_leaves_memo_slot_retryable() {
        // A compute that errors must leave the slot empty so a retry can
        // populate it — this is what lets a campaign retry hit RunCaches
        // instead of poisoning the key for the rest of the sweep.
        let map: Mutex<HashMap<u32, Arc<MemoSlot<u64>>>> = Mutex::new(HashMap::new());
        let first = memoize(&map, 1, || Err(CoreError::Config("injected".into())));
        assert!(first.is_err());
        // retry succeeds and populates the slot (a miss, not a hit)
        let (v, hit) = memoize(&map, 1, || Ok(41)).unwrap();
        assert_eq!((*v, hit), (41, false));
        // and the third requester is served from cache
        let (v, hit) = memoize::<u64, _, _>(&map, 1, || {
            panic!("slot was not populated")
        })
        .unwrap();
        assert_eq!((*v, hit), (41, true));
    }

    #[test]
    fn fault_degradation_is_reproducible() {
        // Same seed, same plan => byte-identical fault schedule => the
        // same degradation record, run after run.
        let run = || {
            let plan = FaultPlan::seeded(77).with_drop(1.0).with_recv_deadline_ms(150);
            let mut spec = base_spec("chaos-repro");
            spec.coupling = Coupling::Intercore;
            spec.fault_plan = Some(plan);
            run_native(&spec).unwrap()
        };
        let a = run();
        let b = run();
        assert!(!a.degradation.is_clean(), "total drop must degrade");
        assert!(a.degradation.dropped_steps > 0);
        assert_eq!(
            a.degradation, b.degradation,
            "same seed degraded differently across runs"
        );
        // the composite still ran for every step
        assert_eq!(a.images.len(), b.images.len());
    }

    #[test]
    fn supervised_run_times_out_instead_of_wedging() {
        // An absurdly small rank budget: the supervisor must convert the
        // overrun into a structured error, not block.
        let plan = FaultPlan::seeded(1)
            .with_rank_timeout_ms(1)
            .with_recv_deadline_ms(100);
        let mut spec = base_spec("tiny-budget");
        spec.fault_plan = Some(plan);
        match run_native(&spec) {
            Err(crate::error::CoreError::Rank(f)) => {
                assert!(f.to_string().contains("did not finish"), "{f}");
            }
            Err(other) => panic!("expected a rank failure, got {other}"),
            Ok(_) => {} // a very fast machine may finish inside 1 ms
        }
        // Every coupling is launched the same way, so the budget bounds the
        // pair couplings too — with no recovery policy. Each send is
        // delayed far past the budget, so these cannot finish inside it.
        for coupling in [Coupling::Intercore, Coupling::Internode] {
            let plan = FaultPlan::seeded(1)
                .with_delay(1.0, 400)
                .with_rank_timeout_ms(100);
            let mut spec = base_spec("slow-link");
            spec.coupling = coupling;
            spec.fault_plan = Some(plan);
            let t0 = Instant::now();
            match run_native(&spec) {
                Err(CoreError::Rank(f)) => {
                    assert!(f.to_string().contains("did not finish"), "{coupling:?}: {f}")
                }
                Err(other) => panic!("{coupling:?}: expected a rank failure, got {other}"),
                Ok(_) => panic!("{coupling:?}: the rank budget was ignored"),
            }
            assert!(t0.elapsed() < Duration::from_millis(700), "{coupling:?} waited out the run");
        }
    }

    #[test]
    fn cached_run_is_byte_identical_to_fresh() {
        let spec = base_spec("cache-eq");
        let fresh = run_native(&spec).unwrap();
        let caches = RunCaches::new();
        let cold = run_native_cached(&spec, &caches).unwrap();
        let warm = run_native_cached(&spec, &caches).unwrap();
        assert_eq!(fresh.images, cold.images, "cold cache changed the image");
        assert_eq!(fresh.images, warm.images, "warm cache changed the image");
        let stats = caches.stats();
        assert_eq!(stats.staging_misses, 1);
        assert_eq!(stats.staging_hits, 1);
        assert!((stats.staging_hit_rate() - 0.5).abs() < 1e-12);
    }

    /// One step of two ranks whose encoded blocks (~1.5 MB each) clear the
    /// payload pool's floor: with one step no rank can run ahead, so the
    /// pool's counts are exact.
    fn pooled_spec(name: &str, coupling: Coupling) -> ExperimentSpec {
        let mut spec = ExperimentSpec::builder(name)
            .application(Application::Hacc { particles: 80_000 })
            .algorithm(Algorithm::VtkPoints)
            .ranks(2)
            .steps(1)
            .images_per_step(1)
            .image_size(32, 32)
            .build()
            .unwrap();
        spec.coupling = coupling;
        spec
    }

    #[test]
    fn warm_pair_runs_encode_into_parked_buffers() {
        for coupling in [Coupling::Intercore, Coupling::Internode] {
            let spec = pooled_spec("pool-warm", coupling);
            let uncached = run_native(&spec).unwrap();
            let caches = RunCaches::new();
            let cold = run_native_cached(&spec, &caches).unwrap();
            let stats = caches.payloads.stats();
            assert_eq!(
                (stats.leased, stats.fresh, stats.returned, stats.parked),
                (2, 2, 2, 2),
                "{coupling:?} cold"
            );
            let warm = run_native_cached(&spec, &caches).unwrap();
            let stats = caches.payloads.stats();
            // two more leases, no allocation, both back again
            assert_eq!(
                (stats.leased, stats.fresh, stats.returned, stats.parked),
                (4, 2, 4, 2),
                "{coupling:?} warm"
            );
            for out in [&cold, &warm] {
                assert_eq!(out.images, uncached.images, "{coupling:?}");
                assert_eq!(out.bytes_moved, uncached.bytes_moved, "{coupling:?}");
            }
            // the codec arm leases from the same pool
            let mut packed = spec.clone();
            packed.wire_compression = Some(eth_data::compress::Codec::Lossless);
            let out = run_native_cached(&packed, &caches).unwrap();
            assert_eq!(out.images, uncached.images, "{coupling:?} lossless codec");
            let stats = caches.payloads.stats();
            assert_eq!((stats.leased, stats.fresh, stats.returned), (6, 2, 6), "{coupling:?}");
        }
    }

    #[test]
    fn an_intercore_blocks_lease_comes_back_only_after_the_block_drops() {
        // The viz rank's block is a view of the payload the simulation
        // rank encoded into its lease: the buffer goes home when the
        // rendered block drops, not at decode.
        let spec = pooled_spec("pool-view", Coupling::Intercore);
        let staged = Arc::new(stage_data(&spec, Default::default()).unwrap());
        let pool = PayloadPool::new();
        let cx = RankCx::new(&spec, &staged, &pool);
        let block = staged.series.get(0, 0).unwrap();
        let fabric = LocalFabric::new(2);
        let (sim, viz) = (FabricLink::new(&fabric[0], 1), FabricLink::new(&fabric[1], 0));
        sim.send(DATA_TAG_MIN, encode_block(&spec, &block, &pool))
            .unwrap();
        let mut deg = Degradation::default();
        let got = drain(&cx, &viz, 0, DATA_TAG_MIN, &mut deg).unwrap().unwrap();
        assert_eq!(&got, &*block);
        let stats = pool.stats();
        assert_eq!((stats.leased, stats.returned), (1, 0), "returned at decode");
        drop(got);
        let stats = pool.stats();
        assert_eq!((stats.leased, stats.returned, stats.parked), (1, 1, 1));
    }

    #[test]
    fn a_dropped_data_message_still_returns_its_lease() {
        // Every block is dropped inside the chaos wrapper: nothing decodes
        // a payload, nothing calls the pool, and every buffer is back.
        let mut spec = pooled_spec("pool-chaos", Coupling::Intercore);
        spec.steps = 2;
        spec.fault_plan = Some(FaultPlan::seeded(77).with_drop(1.0).with_recv_deadline_ms(150));
        let caches = RunCaches::new();
        let out = run_native_cached(&spec, &caches).unwrap();
        assert!(out.degradation.dropped_steps > 0, "{:?}", out.degradation);
        let stats = caches.payloads.stats();
        assert_eq!((stats.leased, stats.returned), (4, 4));
        assert!(stats.parked >= 1, "a dropped message's buffer was freed, not parked");
    }

    #[test]
    fn baseline_renders_once_across_ratio_and_coupling_axes() {
        let caches = RunCaches::new();
        let mut spec = base_spec("base");
        spec.sampling_ratio = 0.5;
        let b1 = caches.baseline_images(&spec).unwrap();
        spec.sampling_ratio = 0.25;
        spec.coupling = Coupling::Intercore;
        let b2 = caches.baseline_images(&spec).unwrap();
        assert!(Arc::ptr_eq(&b1, &b2), "second lookup must reuse the render");
        let stats = caches.stats();
        assert_eq!(stats.baseline_misses, 1);
        assert_eq!(stats.baseline_hits, 1);
        // The cached baseline is exactly the full-fidelity run's output.
        let full = run_native(&base_spec("base")).unwrap();
        assert_eq!(*b1, full.images);
    }

    /// A recovery policy with a fast heartbeat so tests detect deaths in
    /// tens of milliseconds instead of the production default.
    fn fast_recovery() -> RecoveryPolicy {
        RecoveryPolicy {
            heartbeat: HeartbeatPolicy {
                interval_ms: 10,
                miss_budget: 3,
            },
            max_rank_losses: 1,
            adopt: true,
        }
    }

    fn kill_spec(name: &str, coupling: Coupling, victim: usize, step: usize) -> ExperimentSpec {
        let mut spec = base_spec(name);
        spec.coupling = coupling;
        spec.steps = 4;
        spec.recovery = Some(fast_recovery());
        spec.fault_plan = Some(FaultPlan::seeded(7).with_kill_rank_at_step(victim, step));
        spec
    }

    #[test]
    fn intercore_kill_is_adopted_and_images_match_the_healthy_run() {
        let mut healthy = base_spec("ic-kill");
        healthy.coupling = Coupling::Intercore;
        healthy.steps = 4;
        let reference = run_native(&healthy).unwrap();

        let out = run_native(&kill_spec("ic-kill", Coupling::Intercore, 1, 2)).unwrap();
        assert_eq!(out.degradation.rank_losses, 1, "{:?}", out.degradation);
        assert_eq!(out.degradation.adopted_partitions, 1);
        assert_eq!(out.images.len(), reference.images.len());
        // Adoption re-renders the dead rank's partition from the shared
        // staged series, so every image — not just the pre-kill ones — is
        // byte-identical to the run where nobody died.
        for (i, (a, b)) in reference.images.iter().zip(&out.images).enumerate() {
            assert_eq!(a, b, "image {i} diverged after adoption");
        }
        assert_eq!(out.recovery_latency_s.len(), 1);
        assert!(
            out.recovery_latency_s[0] > 0.0 && out.recovery_latency_s[0] < 30.0,
            "implausible recovery latency {:?}",
            out.recovery_latency_s
        );
    }

    #[test]
    fn internode_kill_is_adopted_and_prekill_images_are_identical() {
        let kill_at = 1;
        let mut healthy = base_spec("in-kill");
        healthy.coupling = Coupling::Internode;
        healthy.steps = 4;
        let reference = run_native(&healthy).unwrap();

        let out = run_native(&kill_spec("in-kill", Coupling::Internode, 2, kill_at)).unwrap();
        assert_eq!(out.degradation.rank_losses, 1, "{:?}", out.degradation);
        assert_eq!(out.degradation.adopted_partitions, 1);
        // the run completes with a full image set despite the death
        assert_eq!(out.images.len(), reference.images.len());
        // steps before the kill cannot have been touched by recovery
        let spec = &reference.spec;
        for i in 0..kill_at * spec.images_per_step {
            assert_eq!(reference.images[i], out.images[i], "pre-kill image {i} diverged");
        }
        assert_eq!(out.recovery_latency_s.len(), 1);
        assert!(out.recovery_latency_s[0] > 0.0);
    }

    #[test]
    fn kill_without_adoption_completes_dark() {
        let mut spec = kill_spec("no-adopt", Coupling::Intercore, 0, 1);
        spec.recovery = Some(RecoveryPolicy {
            adopt: false,
            ..fast_recovery()
        });
        let out = run_native(&spec).unwrap();
        assert_eq!(out.degradation.rank_losses, 1);
        assert_eq!(out.degradation.adopted_partitions, 0);
        assert!(
            out.degradation.missing_contributions > 0,
            "the dead partition's frames must be counted as holes: {:?}",
            out.degradation
        );
        // still a full-length image sequence; the hole is composited around
        assert_eq!(out.images.len(), 4 * out.spec.images_per_step);
    }

    #[test]
    fn recovery_policy_without_faults_changes_nothing() {
        use crate::config::{MigrationPattern, MigrationPlan};
        let reference = run_native(&base_spec("rec-noop")).unwrap();
        // A handoff plan none of whose handoffs ever comes due (validation
        // rejects it, so these two inputs enter below `run_native`): the
        // policy has every part switched on and nothing to do.
        let never = MigrationPlan::new(MigrationPattern::Sudden { from: 0, to: 1, at_step: 99 });
        for (coupling, migration) in [
            (Coupling::Tight, None),
            (Coupling::Intercore, None),
            (Coupling::Internode, None),
            (Coupling::Intercore, Some(never)),
            (Coupling::Internode, Some(never)),
        ] {
            let mut spec = base_spec("rec-noop");
            spec.coupling = coupling;
            spec.recovery = Some(fast_recovery());
            spec.migration = migration;
            let out = run_recorded(&spec, &PayloadPool::new(), |spec| {
                Ok(Arc::new(stage_data(spec, Default::default())?))
            })
            .unwrap();
            assert!(out.degradation.is_clean(), "{coupling:?}: {:?}", out.degradation);
            assert_eq!(out.recovery_latency_s.len(), 0);
            assert_eq!(out.migration_disruption_s.len(), 0);
            assert_eq!(reference.images, out.images, "policy changed pixels under {coupling:?}");
            // liveness did start (contrast `clean_runs_report_no_degradation`)
            assert!(out.counters.get("liveness_threads") > 0.0, "{coupling:?}");
            assert_eq!(out.counters.get("supervised_launches"), 1.0, "{coupling:?}");
        }
    }

    /// Recovery policy for the migration tests: same fast 10 ms beat, but
    /// a miss budget wide enough that a beater thread starved by a loaded
    /// parallel test run is not falsely declared dead (a spurious death
    /// would nondeterministically abort a planned handoff).
    fn sturdy_recovery() -> RecoveryPolicy {
        RecoveryPolicy {
            heartbeat: HeartbeatPolicy {
                interval_ms: 10,
                miss_budget: 30,
            },
            max_rank_losses: 1,
            adopt: true,
        }
    }

    fn migrating(mut spec: ExperimentSpec, pattern: crate::config::MigrationPattern) -> ExperimentSpec {
        spec.recovery = Some(sturdy_recovery());
        spec.migration = Some(crate::config::MigrationPlan::new(pattern));
        spec
    }

    #[test]
    fn intercore_sudden_migration_is_byte_identical_and_counted() {
        use crate::config::MigrationPattern;
        let mut healthy = base_spec("mig-sudden");
        healthy.coupling = Coupling::Intercore;
        healthy.steps = 4;
        let reference = run_native(&healthy).unwrap();

        let spec = migrating(
            healthy.clone(),
            MigrationPattern::Sudden { from: 1, to: 2, at_step: 2 },
        );
        let out = run_native(&spec).unwrap();
        assert_eq!(out.degradation.migrations, 1, "{:?}", out.degradation);
        assert_eq!(out.degradation.migration_failures, 0);
        assert_eq!(out.degradation.rank_losses, 0);
        assert_eq!(out.images.len(), reference.images.len());
        // The migrated partition renders from the shared staged series and
        // lands in the same composite slot: no frame drops, no pixel moves.
        for (i, (a, b)) in reference.images.iter().zip(&out.images).enumerate() {
            assert_eq!(a, b, "image {i} diverged under migration");
        }
        assert_eq!(out.migration_disruption_s.len(), 1);
        assert!(out.migration_disruption_s[0] >= 0.0);
        assert!(out.report().contains("migrated"));
    }

    #[test]
    fn internode_fluid_and_batched_migrations_are_byte_identical() {
        use crate::config::MigrationPattern;
        let mut healthy = base_spec("mig-fluid");
        healthy.coupling = Coupling::Internode;
        healthy.steps = 4;
        healthy.ranks = 4;
        healthy.viz_ranks = Some(2);
        let reference = run_native(&healthy).unwrap();

        for (tag, pattern) in [
            ("fluid", MigrationPattern::Fluid { from: 0, to: 1, start_step: 1 }),
            (
                "batched",
                MigrationPattern::BatchedFluid { from: 0, to: 1, start_step: 1, batch: 2 },
            ),
        ] {
            let out = run_native(&migrating(healthy.clone(), pattern)).unwrap();
            // viz 0 initially owns partitions {0, 2}: two handoffs
            assert_eq!(out.degradation.migrations, 2, "{tag}: {:?}", out.degradation);
            assert_eq!(out.degradation.migration_failures, 0, "{tag}");
            assert_eq!(out.images.len(), reference.images.len(), "{tag}");
            for (i, (a, b)) in reference.images.iter().zip(&out.images).enumerate() {
                assert_eq!(a, b, "{tag}: image {i} diverged under migration");
            }
            assert_eq!(out.migration_disruption_s.len(), 2, "{tag}");
        }
    }

    #[test]
    fn internode_rescale_grows_and_shrinks_without_dropping_a_frame() {
        use crate::config::MigrationPattern;
        let mut healthy = base_spec("mig-rescale");
        healthy.coupling = Coupling::Internode;
        healthy.steps = 4;
        healthy.ranks = 4;
        healthy.viz_ranks = Some(2);
        let reference = run_native(&healthy).unwrap();

        for (tag, viz, target) in [("grow", 2usize, 3usize), ("shrink", 3, 2)] {
            let mut spec = healthy.clone();
            spec.viz_ranks = Some(viz);
            let spec = migrating(spec, MigrationPattern::Rescale { viz_ranks: target, at_step: 2 });
            let out = run_native(&spec).unwrap();
            let expected = (0..4).filter(|p| p % viz != p % target).count() as u64;
            assert_eq!(out.degradation.migrations, expected, "{tag}: {:?}", out.degradation);
            assert_eq!(out.degradation.migration_failures, 0, "{tag}");
            assert_eq!(out.images.len(), reference.images.len(), "{tag}");
            for (i, (a, b)) in reference.images.iter().zip(&out.images).enumerate() {
                assert_eq!(a, b, "{tag}: image {i} diverged under rescale");
            }
        }
    }

    #[test]
    fn migration_racing_a_death_resolves_deterministically() {
        use crate::config::MigrationPattern;
        // Death first: the owning sim rank is killed the step before the
        // handoff. Death wins — the handoff degrades to "no migration
        // happened" — and adoption keeps every image byte-identical.
        let run = || {
            let mut spec = kill_spec("mig-race", Coupling::Intercore, 1, 1);
            spec.recovery = Some(sturdy_recovery());
            spec.migration = Some(crate::config::MigrationPlan::new(MigrationPattern::Sudden {
                from: 1,
                to: 0,
                at_step: 2,
            }));
            run_native(&spec).unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.degradation.migrations, 0, "{:?}", a.degradation);
        assert_eq!(a.degradation.migration_failures, 1);
        assert_eq!(a.degradation.rank_losses, 1);
        assert_eq!(a.degradation, b.degradation, "racing death was nondeterministic");
        assert_eq!(a.images, b.images, "racing death changed pixels across runs");

        let mut healthy = base_spec("mig-race");
        healthy.coupling = Coupling::Intercore;
        healthy.steps = 4;
        let reference = run_native(&healthy).unwrap();
        assert_eq!(a.images, reference.images, "failed handoff + adoption dropped a frame");

        // Death after the handoff: the migration commits, the new owner
        // rides out the death, and the drainer still accounts the loss.
        let mut spec = kill_spec("mig-race", Coupling::Intercore, 1, 3);
        spec.recovery = Some(sturdy_recovery());
        spec.migration = Some(crate::config::MigrationPlan::new(MigrationPattern::Sudden {
            from: 1,
            to: 0,
            at_step: 1,
        }));
        let late = run_native(&spec).unwrap();
        assert_eq!(late.degradation.migrations, 1, "{:?}", late.degradation);
        assert_eq!(late.degradation.migration_failures, 0);
        assert_eq!(late.degradation.rank_losses, 1);
        assert_eq!(late.images, reference.images, "committed handoff diverged under a late death");
    }

    #[test]
    fn cluster_mode_produces_paper_scale_metrics() {
        let exp = ClusterExperiment::hacc(AlgorithmClass::RaycastSpheres, 400, 1_000_000_000);
        let m = run_cluster(&exp);
        assert_eq!(m.nodes, 400);
        assert!(m.exec_time_s > 1.0);
        assert!((40.0..60.0).contains(&m.avg_power_kw), "power {}", m.avg_power_kw);
        assert!(m.energy_kj > 0.0);
    }

    #[test]
    fn cluster_mode_coupling_builder() {
        let exp = ClusterExperiment::hacc(AlgorithmClass::VtkPoints, 64, 10_000_000)
            .with_coupling(CouplingStrategy::Internode)
            .with_sampling(0.5)
            .with_steps(3)
            .with_sim_ops(100.0);
        let m = run_cluster(&exp);
        assert!(m.exec_time_s.is_finite() && m.exec_time_s > 0.0);
    }

    #[test]
    fn budgeted_run_is_byte_identical_and_stays_under_budget() {
        let full = run_native(&base_spec("budget")).unwrap();
        let mut spec = base_spec("budget");
        let budget: u64 = 32_000; // far below the ~6 staged blocks' total
        spec.resources = Some(crate::config::ResourcePolicy::with_memory_budget(budget));
        let lean = run_native(&spec).unwrap();
        assert_eq!(full.images, lean.images, "budget changed the image");
        // The byte-accountant must show real spill traffic and a peak
        // residency that never exceeded the budget, even transiently.
        let staged = stage_data(&spec, Default::default()).unwrap();
        let stats = staged.series.stats();
        assert!(stats.spills > 0, "budget too large to exercise spilling");
        assert!(
            stats.peak_resident_bytes <= budget,
            "peak {} exceeded budget {budget}",
            stats.peak_resident_bytes
        );
        staged.series.assert_within_budget();
        // Every block streams back byte-identical from its file.
        let unbudgeted = stage_data(&base_spec("budget"), Default::default()).unwrap();
        for step in 0..spec.steps {
            for rank in 0..spec.ranks {
                let a = staged.series.get(step, rank).unwrap();
                let b = unbudgeted.series.get(step, rank).unwrap();
                assert_eq!(
                    eth_data::io::binary::encode(&a),
                    eth_data::io::binary::encode(&b),
                    "spilled block ({step},{rank}) diverged"
                );
            }
        }
    }

    #[test]
    fn a_bad_block_on_disk_costs_one_frame_under_every_coupling() {
        let mut spec = base_spec("bad-block");
        spec.steps = 3;
        let reference = run_native(&spec).unwrap();
        // A budget below one block: every block lives in its series file
        // and every fetch reads it back.
        spec.resources = Some(crate::config::ResourcePolicy::with_memory_budget(1));
        let per_step = spec.images_per_step;
        for coupling in Coupling::all() {
            spec.coupling = coupling;
            let staged = Arc::new(stage_data(&spec, Default::default()).unwrap());
            let victim = staged.series.root().join("step_0001").join("rank_0000.ebd");
            let mut bytes = std::fs::read(&victim).unwrap();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x40;
            std::fs::write(&victim, &bytes).unwrap();
            let out = run_recorded(&spec, &PayloadPool::new(), |_| Ok(staged.clone())).unwrap();
            assert_eq!(out.counters.get("proxy_skipped_steps"), 1.0, "{coupling:?}");
            // the hole is counted once per frame at the root, and nothing else moves
            let holes = Degradation {
                missing_contributions: per_step as u64,
                ..Default::default()
            };
            assert_eq!(out.degradation, holes, "{coupling:?}");
            assert_eq!(out.images.len(), reference.images.len(), "{coupling:?}");
            for (i, (a, b)) in reference.images.iter().zip(&out.images).enumerate() {
                if i / per_step == 1 {
                    assert_ne!(a, b, "{coupling:?}: image {i} lost no partition");
                } else {
                    assert_eq!(a, b, "{coupling:?}: image {i} of a clean step diverged");
                }
            }
        }
    }

    #[test]
    fn lossless_wire_compression_is_byte_identical_across_couplings() {
        let tight = run_native(&base_spec("wire")).unwrap();
        for coupling in [Coupling::Intercore, Coupling::Internode] {
            let mut spec = base_spec("wire");
            spec.coupling = coupling;
            spec.wire_compression = Some(eth_data::compress::Codec::Lossless);
            let out = run_native(&spec).unwrap();
            assert_eq!(
                tight.images, out.images,
                "lossless wire codec changed the image under {coupling:?}"
            );
        }
        // The lossy codec still runs end-to-end and stays close.
        let mut spec = base_spec("wire");
        spec.coupling = Coupling::Internode;
        spec.wire_compression = Some(eth_data::compress::Codec::Quantize);
        let lossy = run_native(&spec).unwrap();
        for (a, b) in tight.images.iter().zip(&lossy.images) {
            let rmse = a.rmse(b).unwrap();
            assert!(rmse < 0.1, "quantize drifted too far: rmse {rmse}");
        }
    }

    #[test]
    fn injected_alloc_failure_surfaces_as_out_of_memory() {
        let mut spec = base_spec("alloc-fail");
        spec.fault_plan = Some(FaultPlan::default().with_alloc_fail_at_stage(3));
        let err = match run_native(&spec) {
            Ok(_) => panic!("injection must fail the run"),
            Err(e) => e,
        };
        match err {
            CoreError::OutOfMemory(m) => {
                assert!(m.contains("alloc_fail_at_stage"), "{m}");
            }
            other => panic!("expected OutOfMemory, got {other}"),
        }
        // The injection is positional: past the staged-block count it is
        // inert and the run completes normally.
        spec.fault_plan = Some(FaultPlan::default().with_alloc_fail_at_stage(10_000));
        run_native(&spec).unwrap();
    }
}
