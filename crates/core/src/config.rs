//! Experiment specifications — one point in the design space.

use crate::error::{CoreError, Result};
use eth_cluster::costmodel::AlgorithmClass;
use eth_data::sampling::SamplingSpec;
use eth_data::{DataObject, Vec3};
use eth_render::geometry::slice::Plane;
use eth_render::pipeline::RenderAlgorithm;
use eth_sim::{HaccConfig, XrageConfig};
use eth_transport::fault::FaultPlan;
use serde::{Deserialize, Serialize};
use std::path::PathBuf;

/// In-run rank fault tolerance (DESIGN.md §12). A simulation rank the
/// fault plan kills declares its own death, with the last step it sent;
/// its partition is adopted by a deterministic survivor, whose own proxy
/// presents it from the series at the step the survivor is on. The policy
/// has no settings: its presence turns recovery on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecoveryPolicy {}

/// Resource governance (DESIGN.md §17): how much memory staging may hold
/// resident and how much disk the journal may consume; the backpressure
/// loop runs between fixed fractions of the memory budget. With a memory
/// budget set, staged blocks past the budget spill to lossless on-disk
/// chunks and stream back on access — images stay byte-identical to an
/// unbudgeted run.
/// With a disk quota set, journal appends and result writes that would
/// exceed it fail with [`CoreError::DiskFull`] and ride the normal
/// retry/quarantine ladder instead of panicking.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ResourcePolicy {
    /// Peak resident staged bytes; `None` = unbounded (never spill).
    #[serde(default)]
    pub memory_budget_bytes: Option<u64>,
    /// Byte quota across the WAL and `results/*.bin`; `None` = unbounded.
    #[serde(default)]
    pub disk_quota_bytes: Option<u64>,
    /// Where spill chunks go; `None` = a fresh per-process temp dir.
    #[serde(default)]
    pub spill_dir: Option<PathBuf>,
}

impl ResourcePolicy {
    /// Backpressure releases admission below this fraction of the budget.
    const LOW_WATERMARK: f64 = 0.5;
    /// Backpressure stops admitting new points above this fraction.
    const HIGH_WATERMARK: f64 = 0.9;

    /// A policy that only bounds staging memory.
    pub fn with_memory_budget(bytes: u64) -> ResourcePolicy {
        ResourcePolicy {
            memory_budget_bytes: Some(bytes),
            ..ResourcePolicy::default()
        }
    }

    /// A policy that only bounds journal disk use.
    pub fn with_disk_quota(bytes: u64) -> ResourcePolicy {
        ResourcePolicy {
            disk_quota_bytes: Some(bytes),
            ..ResourcePolicy::default()
        }
    }

    pub fn validate(&self) -> std::result::Result<(), String> {
        if self.memory_budget_bytes == Some(0) {
            return Err("resources.memory_budget_bytes must be >= 1 when set \
                        (0 would spill everything and admit nothing)"
                .into());
        }
        if self.disk_quota_bytes == Some(0) {
            return Err("resources.disk_quota_bytes must be >= 1 when set \
                        (a journal needs at least one append)"
                .into());
        }
        Ok(())
    }

    /// Absolute high-watermark threshold, if a memory budget is set.
    pub fn high_threshold_bytes(&self) -> Option<u64> {
        self.memory_budget_bytes
            .map(|b| (b as f64 * Self::HIGH_WATERMARK) as u64)
    }

    /// Absolute low-watermark threshold, if a memory budget is set.
    pub fn low_threshold_bytes(&self) -> Option<u64> {
        self.memory_budget_bytes
            .map(|b| (b as f64 * Self::LOW_WATERMARK) as u64)
    }
}

/// Megaphone-style migration schedules (DESIGN.md §13): which partitions
/// move between visualization ranks, and when. `from`/`to` index the
/// visualization side (intercore: one viz rank per sim rank; internode:
/// the viz application's own rank space).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MigrationPattern {
    /// Every partition the source owns moves in one step.
    Sudden { from: usize, to: usize, at_step: usize },
    /// One partition per step, ascending partition id, starting at
    /// `start_step` — the smooth end of the disruption spectrum.
    Fluid { from: usize, to: usize, start_step: usize },
    /// `batch` partitions per step: the dial between Sudden and Fluid.
    BatchedFluid {
        from: usize,
        to: usize,
        start_step: usize,
        batch: usize,
    },
    /// Internode only: switch the viz rank count to `viz_ranks` at
    /// `at_step`. Growing adds ranks that take over their round-robin
    /// share; shrinking drains the retired ranks' partitions onto the
    /// survivors.
    Rescale { viz_ranks: usize, at_step: usize },
}

/// The migration axis of a design point: a schedule. Serde-able so
/// elasticity sweeps record exactly like any other axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MigrationPlan {
    pub pattern: MigrationPattern,
}

impl MigrationPlan {
    pub fn new(pattern: MigrationPattern) -> MigrationPlan {
        MigrationPlan { pattern }
    }
}

/// One planned partition handoff, fully resolved against a spec: partition
/// `partition` moves from viz rank `from` to viz rank `to` at the start of
/// `step`. Derived deterministically by [`ExperimentSpec::migration_handoffs`];
/// the handoff's position in that list is its control-plane identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Handoff {
    pub partition: usize,
    pub from: usize,
    pub to: usize,
    pub step: usize,
}

/// Which science workload feeds the experiment (Section IV-A).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Application {
    /// HACC-like cosmology particles.
    Hacc { particles: usize },
    /// xRAGE-like asteroid-impact structured grid.
    Xrage { dims: [usize; 3] },
}

impl Application {
    /// Element count (particles or grid vertices).
    pub fn num_elements(&self) -> usize {
        match self {
            Application::Hacc { particles } => *particles,
            Application::Xrage { dims } => dims[0] * dims[1] * dims[2],
        }
    }

    /// The scalar attribute the pipelines color by.
    pub fn default_scalar(&self) -> &'static str {
        match self {
            Application::Hacc { .. } => "density",
            Application::Xrage { .. } => "temperature",
        }
    }

    /// Generate the global dataset for one timestep (deterministic in
    /// `(seed, step)`).
    pub fn generate(&self, step: usize, seed: u64) -> Result<DataObject> {
        match self {
            Application::Hacc { particles } => {
                let cfg = HaccConfig {
                    particles: *particles,
                    seed,
                    ..Default::default()
                };
                Ok(DataObject::Points(cfg.generate(step)?))
            }
            Application::Xrage { dims } => {
                let cfg = XrageConfig {
                    dims: *dims,
                    seed,
                    ..Default::default()
                };
                Ok(DataObject::Grid(cfg.generate(step)?))
            }
        }
    }

    /// The isovalue the grid pipelines extract at `step`.
    pub fn isovalue(&self, step: usize, seed: u64) -> f32 {
        match self {
            Application::Hacc { .. } => 0.0,
            Application::Xrage { .. } => XrageConfig {
                seed,
                ..Default::default()
            }
            .front_isovalue(step),
        }
    }

    /// The paper's "two sliding planes" for grid slicing at `step`.
    pub fn slice_planes(&self, step: usize) -> Vec<Plane> {
        match self {
            Application::Hacc { .. } => Vec::new(),
            Application::Xrage { .. } => {
                let cfg = XrageConfig::default();
                let e = cfg.domain_size;
                // planes slide with the timestep
                let f = 0.3 + 0.04 * step as f32;
                vec![
                    Plane::axis_aligned(0, e * f.min(0.8)),
                    Plane::axis_aligned(2, e * (1.0 - f).max(0.2)),
                ]
            }
        }
    }

    /// World-space particle radius for sphere-style rendering: a small
    /// multiple of the mean inter-particle spacing.
    pub fn particle_radius(&self) -> f32 {
        match self {
            Application::Hacc { particles } => {
                let cfg = HaccConfig::default();
                let spacing = cfg.box_size / (*particles as f32).cbrt().max(1.0);
                spacing * 0.75
            }
            Application::Xrage { .. } => 0.01,
        }
    }

    pub fn is_particle(&self) -> bool {
        matches!(self, Application::Hacc { .. })
    }
}

/// The rendering-algorithm axis, serde-friendly; parameterized at run time
/// from the application (isovalues, planes, radii).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Algorithm {
    VtkPoints,
    GaussianSplat,
    RaycastSpheres,
    VtkIsosurface,
    RaycastIsosurface,
    VtkSlice,
    RaycastSlice,
}

impl Algorithm {
    pub fn name(self) -> &'static str {
        self.class().name()
    }

    /// The cluster-model classification.
    pub fn class(self) -> AlgorithmClass {
        match self {
            Algorithm::VtkPoints => AlgorithmClass::VtkPoints,
            Algorithm::GaussianSplat => AlgorithmClass::GaussianSplat,
            Algorithm::RaycastSpheres => AlgorithmClass::RaycastSpheres,
            Algorithm::VtkIsosurface => AlgorithmClass::VtkIsosurface,
            Algorithm::RaycastIsosurface => AlgorithmClass::RaycastIsosurface,
            Algorithm::VtkSlice => AlgorithmClass::VtkSlice,
            Algorithm::RaycastSlice => AlgorithmClass::RaycastSlice,
        }
    }

    /// Does this algorithm apply to the application's data class?
    pub fn accepts(self, app: &Application) -> bool {
        self.class().is_particle() == app.is_particle()
    }

    /// Resolve to a concrete render-pipeline configuration for one step.
    pub fn resolve(self, app: &Application, step: usize, seed: u64) -> RenderAlgorithm {
        match self {
            Algorithm::VtkPoints => RenderAlgorithm::VtkPoints { point_size: 2 },
            Algorithm::GaussianSplat => RenderAlgorithm::GaussianSplat {
                radius: app.particle_radius(),
            },
            Algorithm::RaycastSpheres => RenderAlgorithm::RaycastSpheres {
                radius: app.particle_radius(),
            },
            Algorithm::VtkIsosurface => RenderAlgorithm::VtkIsosurface {
                isovalue: app.isovalue(step, seed),
            },
            Algorithm::RaycastIsosurface => RenderAlgorithm::RaycastIsosurface {
                isovalue: app.isovalue(step, seed),
            },
            Algorithm::VtkSlice => RenderAlgorithm::VtkSlice {
                planes: app.slice_planes(step),
            },
            Algorithm::RaycastSlice => RenderAlgorithm::RaycastSlice {
                planes: app.slice_planes(step),
            },
        }
    }

    /// All particle algorithms (the HACC experiments).
    pub fn particle_algorithms() -> [Algorithm; 3] {
        [
            Algorithm::GaussianSplat,
            Algorithm::VtkPoints,
            Algorithm::RaycastSpheres,
        ]
    }
}

/// The coupling axis: one enum, shared with the cluster model.
pub use eth_cluster::coupling::Coupling;

/// A fully-specified experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentSpec {
    pub name: String,
    pub application: Application,
    pub algorithm: Algorithm,
    pub coupling: Coupling,
    /// Ranks for native mode (sim ranks; internode adds paired viz ranks).
    pub ranks: usize,
    pub steps: usize,
    /// Images rendered per step (the camera orbits between images).
    pub images_per_step: usize,
    pub width: usize,
    pub height: usize,
    /// Spatial-sampling ratio in (0, 1].
    pub sampling_ratio: f64,
    /// RNG seed for data generation and sampling.
    pub seed: u64,
    /// Directory PPM artifacts are written into (none = keep in memory).
    pub artifact_dir: Option<PathBuf>,
    /// Internode only: number of visualization ranks when it differs from
    /// the simulation rank count (Figure 2's "differing numbers of nodes
    /// for each"). `None` pairs one viz rank per sim rank. Each viz rank
    /// receives the blocks of the sim ranks assigned to it round-robin.
    #[serde(default)]
    pub viz_ranks: Option<usize>,
    /// Deterministic fault injection on the data path (intercore and
    /// internode process boundaries; tight coupling has no boundary to
    /// fault). With a plan set, the harness runs fault-tolerant: missed
    /// deadlines and disconnects degrade the affected steps instead of
    /// failing the run, and the outcome reports the degradation.
    #[serde(default)]
    pub fault_plan: Option<FaultPlan>,
    /// In-run rank fault tolerance: partition adoption, degraded
    /// compositing. Required when the fault plan kills a rank; changes
    /// nothing when no fault fires.
    #[serde(default)]
    pub recovery: Option<RecoveryPolicy>,
    /// Planned elasticity: live partition migration between viz ranks or a
    /// viz-rank rescale mid-run (DESIGN.md §13). Requires a recovery policy
    /// — the handoff protocol rides the same control plane — and
    /// a coupling with a viz side (intercore or internode).
    #[serde(default)]
    pub migration: Option<MigrationPlan>,
    /// Resource governance: staging memory budget (with spill-to-disk and
    /// backpressure) and journal disk quota. `None` = unbounded, the
    /// historical behavior.
    #[serde(default)]
    pub resources: Option<ResourcePolicy>,
    /// Block codec for data crossing a process boundary (intercore IPC /
    /// internode sockets; tight coupling never leaves the process):
    /// `Lossless`, the default, ships full-precision CRC-trailed `EBD3`
    /// blocks (byte-identical images); `Quantize` is the bounded-error
    /// lossy codec.
    #[serde(default)]
    pub wire_compression: eth_data::compress::Codec,
}

impl ExperimentSpec {
    pub fn builder(name: &str) -> ExperimentSpecBuilder {
        ExperimentSpecBuilder::new(name)
    }

    /// Resolved sampling configuration.
    pub fn sampling(&self) -> Result<SamplingSpec> {
        SamplingSpec::new(self.sampling_ratio, self.seed).map_err(CoreError::from)
    }

    /// Viz-side rank count at step 0: intercore pairs one viz rank per sim
    /// rank; internode uses the configured split. (Tight has no separate
    /// viz side; its value is only used for validation messages.)
    pub fn initial_viz_count(&self) -> usize {
        match self.coupling {
            Coupling::Internode => self.viz_ranks.unwrap_or(self.ranks).max(1),
            _ => self.ranks,
        }
    }

    /// Largest viz rank count the run ever needs: the initial split, or the
    /// rescale target when a `Rescale` migration grows the viz side.
    pub fn max_viz_count(&self) -> usize {
        let base = self.initial_viz_count();
        match self.migration.map(|m| m.pattern) {
            Some(MigrationPattern::Rescale { viz_ranks, .. }) => base.max(viz_ranks),
            _ => base,
        }
    }

    /// The viz rank that owns sim partition `p` before any migration:
    /// identity for intercore (one viz rank per sim rank), round-robin for
    /// internode.
    pub fn initial_owner(&self, partition: usize) -> usize {
        match self.coupling {
            Coupling::Internode => partition % self.initial_viz_count(),
            _ => partition,
        }
    }

    /// Resolve the migration plan into its ordered handoff list — a pure
    /// function of the spec, so every rank (and the bench baseline) derives
    /// the same schedule independently. Empty when no plan is set.
    pub fn migration_handoffs(&self) -> Vec<Handoff> {
        let Some(plan) = self.migration else {
            return Vec::new();
        };
        let owned_by = |rank: usize| -> Vec<usize> {
            (0..self.ranks).filter(|&p| self.initial_owner(p) == rank).collect()
        };
        match plan.pattern {
            MigrationPattern::Sudden { from, to, at_step } => owned_by(from)
                .into_iter()
                .map(|partition| Handoff { partition, from, to, step: at_step })
                .collect(),
            MigrationPattern::Fluid { from, to, start_step } => owned_by(from)
                .into_iter()
                .enumerate()
                .map(|(i, partition)| Handoff { partition, from, to, step: start_step + i })
                .collect(),
            MigrationPattern::BatchedFluid { from, to, start_step, batch } => owned_by(from)
                .into_iter()
                .enumerate()
                .map(|(i, partition)| Handoff {
                    partition,
                    from,
                    to,
                    step: start_step + i / batch.max(1),
                })
                .collect(),
            MigrationPattern::Rescale { viz_ranks, at_step } => {
                let old = self.initial_viz_count();
                let new = viz_ranks.max(1);
                (0..self.ranks)
                    .filter(|p| p % old != p % new)
                    .map(|partition| Handoff {
                        partition,
                        from: partition % old,
                        to: partition % new,
                        step: at_step,
                    })
                    .collect()
            }
        }
    }

    /// The viz rank *planned* to own partition `p` when rendering step
    /// `step`, assuming every handoff commits. The run-time ownership table
    /// additionally folds in handoffs that aborted (source keeps the
    /// partition) — see the harness.
    pub fn planned_owner(&self, partition: usize, step: usize) -> usize {
        let mut owner = self.initial_owner(partition);
        for h in self.migration_handoffs() {
            if h.partition == partition && h.step <= step {
                owner = h.to;
            }
        }
        owner
    }

    pub fn validate(&self) -> Result<()> {
        if self.ranks == 0 {
            return Err(CoreError::Config("ranks must be >= 1".into()));
        }
        if self.steps == 0 || self.images_per_step == 0 {
            return Err(CoreError::Config(
                "steps and images_per_step must be >= 1".into(),
            ));
        }
        if self.width == 0 || self.height == 0 {
            return Err(CoreError::Config("image must be non-empty".into()));
        }
        if !(self.sampling_ratio > 0.0 && self.sampling_ratio <= 1.0) {
            return Err(CoreError::Config(format!(
                "sampling ratio {} outside (0, 1]",
                self.sampling_ratio
            )));
        }
        if let Some(v) = self.viz_ranks {
            if v == 0 {
                return Err(CoreError::Config("viz_ranks must be >= 1".into()));
            }
            if self.coupling != Coupling::Internode {
                return Err(CoreError::Config(
                    "viz_ranks only applies to internode coupling".into(),
                ));
            }
        }
        if !self.algorithm.accepts(&self.application) {
            return Err(CoreError::Config(format!(
                "algorithm '{}' cannot render this application's data class",
                self.algorithm.name()
            )));
        }
        if let Some(plan) = &self.fault_plan {
            // domain checks (probabilities in [0, 1], non-empty tag window,
            // lossy plans must carry a deadline) live with the plan itself
            plan.validate().map_err(CoreError::Config)?;
        }
        if let Some(resources) = &self.resources {
            resources.validate().map_err(CoreError::Config)?;
        }
        // A rank kill is contextual: the plan cannot know the run shape, so
        // the spec checks it — the victim and step must exist, the coupling
        // must have independent rank lifetimes, and someone must be
        // listening for the death.
        if let Some(plan) = self.fault_plan.as_ref().filter(|p| p.kill_rank_at_step.is_some()) {
            if self.recovery.is_none() {
                return Err(CoreError::Config(
                    "kill_rank_at_step requires a recovery policy: without \
                     one nobody adopts or composites around the death"
                        .into(),
                ));
            }
            if self.coupling == Coupling::Tight {
                return Err(CoreError::Config(
                    "kill_rank_at_step requires intercore or internode \
                     coupling (tight coupling has one rank lifetime)"
                        .into(),
                ));
            }
            // bound checks (victim and step must exist) live with the plan
            plan.validate_kill(self.ranks, self.steps)
                .map_err(CoreError::Config)?;
        }
        // Migration is contextual in the same way: the schedule must name
        // viz ranks and steps that exist for this run shape.
        if let Some(plan) = &self.migration {
            if self.recovery.is_none() {
                return Err(CoreError::Config(
                    "migration requires a recovery policy: the handoff \
                     protocol rides the recovery control plane"
                        .into(),
                ));
            }
            if self.coupling == Coupling::Tight {
                return Err(CoreError::Config(
                    "migration requires intercore or internode coupling \
                     (tight coupling has no viz ranks to move work between)"
                        .into(),
                ));
            }
            let viz = self.initial_viz_count();
            match plan.pattern {
                MigrationPattern::Sudden { from, to, .. }
                | MigrationPattern::Fluid { from, to, .. }
                | MigrationPattern::BatchedFluid { from, to, .. } => {
                    if from == to {
                        return Err(CoreError::Config(
                            "migration source and target viz ranks must differ".into(),
                        ));
                    }
                    if from >= viz || to >= viz {
                        return Err(CoreError::Config(format!(
                            "migration ranks {from} -> {to} outside {viz} viz ranks"
                        )));
                    }
                    if let MigrationPattern::BatchedFluid { batch, .. } = plan.pattern {
                        if batch == 0 {
                            return Err(CoreError::Config(
                                "migration batch must be >= 1".into(),
                            ));
                        }
                    }
                    let handoffs = self.migration_handoffs();
                    if handoffs.is_empty() {
                        return Err(CoreError::Config(format!(
                            "migration source viz rank {from} owns no partitions"
                        )));
                    }
                    if let Some(last) = handoffs.iter().map(|h| h.step).max() {
                        if last >= self.steps {
                            return Err(CoreError::Config(format!(
                                "migration schedule reaches step {last}, outside {} steps",
                                self.steps
                            )));
                        }
                    }
                }
                MigrationPattern::Rescale { viz_ranks, at_step } => {
                    if self.coupling != Coupling::Internode {
                        return Err(CoreError::Config(
                            "rescale migration requires internode coupling \
                             (intercore pairs one viz rank per sim rank)"
                                .into(),
                        ));
                    }
                    if viz_ranks == 0 {
                        return Err(CoreError::Config(
                            "rescale target viz_ranks must be >= 1".into(),
                        ));
                    }
                    if viz_ranks == viz {
                        return Err(CoreError::Config(format!(
                            "rescale to {viz_ranks} viz ranks is a no-op \
                             (run already has {viz})"
                        )));
                    }
                    if at_step == 0 || at_step >= self.steps {
                        return Err(CoreError::Config(format!(
                            "rescale at_step {at_step} must fall strictly inside \
                             the run (1..{})",
                            self.steps
                        )));
                    }
                }
            }
        }
        Ok(())
    }
}

/// Builder with sensible defaults for quick experiments.
pub struct ExperimentSpecBuilder {
    spec: ExperimentSpec,
}

impl ExperimentSpecBuilder {
    pub fn new(name: &str) -> Self {
        ExperimentSpecBuilder {
            spec: ExperimentSpec {
                name: name.to_string(),
                application: Application::Hacc { particles: 50_000 },
                algorithm: Algorithm::RaycastSpheres,
                coupling: Coupling::Tight,
                ranks: 2,
                steps: 1,
                images_per_step: 1,
                width: 128,
                height: 128,
                sampling_ratio: 1.0,
                seed: 42,
                artifact_dir: None,
                viz_ranks: None,
                fault_plan: None,
                recovery: None,
                migration: None,
                resources: None,
                wire_compression: eth_data::compress::Codec::Lossless,
            },
        }
    }

    pub fn application(mut self, app: Application) -> Self {
        self.spec.application = app;
        self
    }

    pub fn algorithm(mut self, alg: Algorithm) -> Self {
        self.spec.algorithm = alg;
        self
    }

    pub fn coupling(mut self, c: Coupling) -> Self {
        self.spec.coupling = c;
        self
    }

    pub fn ranks(mut self, ranks: usize) -> Self {
        self.spec.ranks = ranks;
        self
    }

    pub fn steps(mut self, steps: usize) -> Self {
        self.spec.steps = steps;
        self
    }

    pub fn images_per_step(mut self, n: usize) -> Self {
        self.spec.images_per_step = n;
        self
    }

    pub fn image_size(mut self, width: usize, height: usize) -> Self {
        self.spec.width = width;
        self.spec.height = height;
        self
    }

    pub fn sampling_ratio(mut self, ratio: f64) -> Self {
        self.spec.sampling_ratio = ratio;
        self
    }

    pub fn seed(mut self, seed: u64) -> Self {
        self.spec.seed = seed;
        self
    }

    pub fn artifact_dir(mut self, dir: PathBuf) -> Self {
        self.spec.artifact_dir = Some(dir);
        self
    }

    /// Internode with an asymmetric rank split (viz side smaller/larger).
    pub fn viz_ranks(mut self, viz_ranks: usize) -> Self {
        self.spec.viz_ranks = Some(viz_ranks);
        self
    }

    /// Inject faults on the data path and run fault-tolerant.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.spec.fault_plan = Some(plan);
        self
    }

    /// Run with in-run rank fault tolerance (declared deaths + adoption).
    pub fn recovery(mut self, policy: RecoveryPolicy) -> Self {
        self.spec.recovery = Some(policy);
        self
    }

    /// Schedule a live migration or rescale (requires `.recovery(..)`).
    pub fn migration(mut self, plan: MigrationPlan) -> Self {
        self.spec.migration = Some(plan);
        self
    }

    /// Govern memory/disk use: staging budget with spill, journal quota.
    pub fn resources(mut self, policy: ResourcePolicy) -> Self {
        self.spec.resources = Some(policy);
        self
    }

    /// Pick the block codec for process-boundary data.
    pub fn wire_compression(mut self, codec: eth_data::compress::Codec) -> Self {
        self.spec.wire_compression = codec;
        self
    }

    pub fn build(self) -> Result<ExperimentSpec> {
        self.spec.validate()?;
        Ok(self.spec)
    }
}

/// Camera orbit used by multi-image steps: image `i` of `n` looks at the
/// data from an azimuth rotated by `i/n` of a quarter turn, so successive
/// images differ (the paper renders hundreds of images per step).
pub fn orbit_camera(
    bounds: &eth_data::Aabb,
    width: usize,
    height: usize,
    image_index: usize,
    images_per_step: usize,
) -> eth_render::Camera {
    let center = bounds.center();
    let radius = (bounds.diagonal() * 0.5).max(1e-6);
    let fov_y = 40.0f32;
    let dist = radius / (fov_y.to_radians() * 0.5).tan() * 1.1;
    let frac = image_index as f32 / images_per_step.max(1) as f32;
    let azim = 0.8 + frac * std::f32::consts::FRAC_PI_2;
    let dir = Vec3::new(azim.cos() * 0.85, azim.sin() * 0.85, 0.55).normalized();
    eth_render::Camera::look_at(
        center + dir * dist,
        center,
        Vec3::new(0.0, 0.0, 1.0),
        fov_y,
        width,
        height,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use eth_data::compress::Codec;

    #[test]
    fn builder_defaults_validate() {
        let spec = ExperimentSpec::builder("t").build().unwrap();
        assert_eq!(spec.ranks, 2);
        assert_eq!(spec.sampling_ratio, 1.0);
    }

    #[test]
    fn builder_rejects_nonsense() {
        assert!(ExperimentSpec::builder("t").ranks(0).build().is_err());
        assert!(ExperimentSpec::builder("t").sampling_ratio(0.0).build().is_err());
        assert!(ExperimentSpec::builder("t").image_size(0, 10).build().is_err());
        // grid algorithm on particle data
        assert!(ExperimentSpec::builder("t")
            .algorithm(Algorithm::VtkIsosurface)
            .build()
            .is_err());
    }

    #[test]
    fn resource_policy_validates_and_round_trips() {
        let policy = ResourcePolicy {
            memory_budget_bytes: Some(256 << 20),
            disk_quota_bytes: Some(1 << 30),
            spill_dir: Some(PathBuf::from("/tmp/spill")),
        };
        let spec = ExperimentSpec::builder("t").resources(policy.clone()).build().unwrap();
        assert_eq!(spec.resources, Some(policy.clone()));
        assert_eq!(policy.high_threshold_bytes(), Some((256u64 << 20) * 9 / 10));
        assert_eq!(policy.low_threshold_bytes(), Some((256u64 << 20) / 2));
        assert_eq!(ResourcePolicy::default().high_threshold_bytes(), None);

        // zero budgets are rejected
        assert!(ExperimentSpec::builder("t")
            .resources(ResourcePolicy::with_memory_budget(0))
            .build()
            .is_err());
        assert!(ExperimentSpec::builder("t")
            .resources(ResourcePolicy::with_disk_quota(0))
            .build()
            .is_err());

        // serde round trip keeps the axis; old specs without it still load
        let json = serde_json::to_string(&spec).unwrap();
        let back: ExperimentSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back.resources, spec.resources);
        let legacy = serde_json::to_string(&ExperimentSpec::builder("old").build().unwrap())
            .unwrap()
            .replace("\"resources\":null,", "")
            .replace(",\"wire_compression\":\"Lossless\"", "");
        let old: ExperimentSpec = serde_json::from_str(&legacy).unwrap();
        assert_eq!(old.resources, None);
        assert_eq!(old.wire_compression, Codec::Lossless);
    }

    /// Specs as the release before the codec change wrote them: with
    /// `render`, both watermarks and `max_rank_losses`, and an optional
    /// `wire_compression` whose `None` shipped plain `EBD3`.
    const PARENT_DEFAULT_SPEC: &str = r#"{"name":"t","application":{"Hacc":{"particles":50000}},"algorithm":"RaycastSpheres","coupling":"Tight","ranks":2,"steps":1,"images_per_step":1,"width":128,"height":128,"sampling_ratio":1,"seed":42,"artifact_dir":null,"viz_ranks":null,"fault_plan":null,"recovery":null,"migration":null,"render":null,"resources":null,"wire_compression":null}"#;
    const PARENT_FULL_SPEC: &str = r#"{"name":"full","application":{"Hacc":{"particles":50000}},"algorithm":"RaycastSpheres","coupling":"Internode","ranks":2,"steps":1,"images_per_step":1,"width":128,"height":128,"sampling_ratio":1,"seed":42,"artifact_dir":null,"viz_ranks":null,"fault_plan":null,"recovery":{"heartbeat":{"interval_ms":25,"miss_budget":4},"max_rank_losses":1,"adopt":true},"migration":null,"render":{"tile":32,"progressive_stride":8},"resources":{"memory_budget_bytes":1048576,"disk_quota_bytes":null,"spill_dir":null,"low_watermark":0.5,"high_watermark":0.9},"wire_compression":null}"#;

    #[test]
    fn a_retired_key_is_ignored_as_unknown() {
        // `compress_transport` predates the codec axis, `handoff_timeout_ms`
        // the target's verdict, `heartbeat` declared deaths; `render`, the
        // watermarks and the rank-loss budget were settings no caller
        // varied. A file that still carries any of them loads as if it did
        // not.
        let plain = ExperimentSpec::builder("t").build().unwrap();
        let migrating = ExperimentSpec::builder("t")
            .coupling(Coupling::Intercore)
            .ranks(2)
            .steps(2)
            .recovery(RecoveryPolicy::default())
            .migration(MigrationPlan::new(MigrationPattern::Sudden {
                from: 0,
                to: 1,
                at_step: 1,
            }))
            .build()
            .unwrap();
        let budgeted = ExperimentSpec::builder("t")
            .resources(ResourcePolicy::with_memory_budget(1 << 20))
            .build()
            .unwrap();
        for (spec, at, retired) in [
            (&plain, "\"wire_compression\":\"Lossless\"", ",\"compress_transport\":true"),
            (&migrating, "\"at_step\":1}}", ",\"handoff_timeout_ms\":1000"),
            (&plain, "\"migration\":null", ",\"render\":null"),
            (
                &plain,
                "\"migration\":null",
                ",\"render\":{\"tile\":32,\"progressive_stride\":8}",
            ),
            (&budgeted, "\"spill_dir\":null", ",\"low_watermark\":0.4"),
            (&budgeted, "\"spill_dir\":null", ",\"high_watermark\":0.8"),
            (&migrating, "\"recovery\":{", "\"max_rank_losses\":1"),
            (&migrating, "\"recovery\":{", "\"adopt\":true"),
            (
                &migrating,
                "\"recovery\":{",
                "\"heartbeat\":{\"interval_ms\":25,\"miss_budget\":4}",
            ),
        ] {
            let plain = serde_json::to_string(spec).unwrap();
            let old = plain.replace(at, &format!("{at}{retired}"));
            assert_ne!(old, plain, "fixture did not add {retired}");
            let back: ExperimentSpec = serde_json::from_str(&old).unwrap();
            assert_eq!(&back, spec, "{retired}");
        }

        // and as that release wrote them, where a `null` codec is `Lossless`
        let full = ExperimentSpec::builder("full")
            .coupling(Coupling::Internode)
            .recovery(RecoveryPolicy::default())
            .resources(ResourcePolicy::with_memory_budget(1 << 20))
            .build()
            .unwrap();
        for (text, want) in [(PARENT_DEFAULT_SPEC, &plain), (PARENT_FULL_SPEC, &full)] {
            let back: ExperimentSpec = serde_json::from_str(text).unwrap();
            assert_eq!(&back, want);
            assert_eq!(back.wire_compression, Codec::Lossless);
            let quantized = text.replace(
                "\"wire_compression\":null",
                "\"wire_compression\":\"Quantize\"",
            );
            let back: ExperimentSpec = serde_json::from_str(&quantized).unwrap();
            assert_eq!(back.wire_compression, Codec::Quantize);
        }
    }

    #[test]
    fn application_helpers() {
        let hacc = Application::Hacc { particles: 1000 };
        assert_eq!(hacc.num_elements(), 1000);
        assert_eq!(hacc.default_scalar(), "density");
        assert!(hacc.is_particle());
        assert!(hacc.particle_radius() > 0.0);

        let xrage = Application::Xrage { dims: [8, 8, 8] };
        assert_eq!(xrage.num_elements(), 512);
        assert_eq!(xrage.default_scalar(), "temperature");
        assert!(!xrage.is_particle());
        assert_eq!(xrage.slice_planes(0).len(), 2);
        assert!(hacc.slice_planes(0).is_empty());
    }

    #[test]
    fn generation_is_deterministic() {
        let app = Application::Hacc { particles: 500 };
        assert_eq!(app.generate(1, 7).unwrap(), app.generate(1, 7).unwrap());
        let grid = Application::Xrage { dims: [8, 8, 8] };
        assert_eq!(grid.generate(0, 7).unwrap(), grid.generate(0, 7).unwrap());
    }

    #[test]
    fn algorithm_resolution() {
        let app = Application::Xrage { dims: [8, 8, 8] };
        let alg = Algorithm::RaycastIsosurface.resolve(&app, 2, 42);
        match alg {
            RenderAlgorithm::RaycastIsosurface { isovalue } => {
                assert!(isovalue > 300.0, "iso {isovalue}");
            }
            other => panic!("unexpected resolution {other:?}"),
        }
        assert!(Algorithm::VtkPoints.accepts(&Application::Hacc { particles: 1 }));
        assert!(!Algorithm::VtkPoints.accepts(&app));
    }

    #[test]
    fn fault_plan_validation() {
        // a lossy plan without a recv deadline would hang, so it's rejected
        let lossy = FaultPlan::default().with_drop(0.5);
        assert!(ExperimentSpec::builder("t").fault_plan(lossy).build().is_err());
        // out-of-range probabilities, with the field named in the error
        let silly = FaultPlan::seeded(1).with_drop(1.5);
        let err = ExperimentSpec::builder("t").fault_plan(silly).build().unwrap_err();
        assert!(err.to_string().contains("drop_prob"), "{err}");
        let silly = FaultPlan::seeded(1).with_corrupt(-0.01);
        let err = ExperimentSpec::builder("t").fault_plan(silly).build().unwrap_err();
        assert!(err.to_string().contains("corrupt_prob"), "{err}");
        // a delay fault that injects no latency is a misconfiguration
        let silly = FaultPlan::seeded(1).with_delay(0.5, 0);
        assert!(ExperimentSpec::builder("t").fault_plan(silly).build().is_err());
        // seeded plans carry a deadline and pass
        let ok = FaultPlan::seeded(1).with_drop(0.5);
        let spec = ExperimentSpec::builder("t").fault_plan(ok).build().unwrap();
        assert!(spec.fault_plan.is_some());
        // and the plan rides along through serde
        let text = serde_json::to_string(&spec).unwrap();
        let back: ExperimentSpec = serde_json::from_str(&text).unwrap();
        assert_eq!(spec, back);
    }

    #[test]
    fn recovery_policy_defaults_and_serde() {
        let policy = RecoveryPolicy::default();
        assert_eq!(serde_json::to_string(&policy).unwrap(), "{}");
        let parsed: RecoveryPolicy = serde_json::from_str("{}").unwrap();
        assert_eq!(parsed, policy);
        // the retired `adopt` key loads as unknown, whatever its value
        let old: RecoveryPolicy = serde_json::from_str(r#"{"adopt":false}"#).unwrap();
        assert_eq!(old, policy);
    }

    #[test]
    fn kill_fault_is_validated_against_the_run_shape() {
        let kill = |rank, step| FaultPlan::seeded(1).with_kill_rank_at_step(rank, step);
        let base = || {
            ExperimentSpec::builder("kill")
                .coupling(Coupling::Intercore)
                .ranks(2)
                .steps(3)
                .recovery(RecoveryPolicy::default())
        };
        // valid: intercore, recovery present, victim and step in range
        let spec = base().fault_plan(kill(1, 2)).build().unwrap();
        assert_eq!(spec.fault_plan.unwrap().kill_rank_at_step.unwrap().rank, 1);
        // no recovery policy → nobody detects the death
        let err = ExperimentSpec::builder("kill")
            .coupling(Coupling::Intercore)
            .ranks(2)
            .steps(3)
            .fault_plan(kill(1, 2))
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("recovery"), "{err}");
        // tight coupling has one rank lifetime
        let err = ExperimentSpec::builder("kill")
            .ranks(2)
            .steps(3)
            .recovery(RecoveryPolicy::default())
            .fault_plan(kill(1, 2))
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("tight"), "{err}");
        // out-of-range victim and step
        assert!(base().fault_plan(kill(5, 0)).build().is_err());
        assert!(base().fault_plan(kill(0, 9)).build().is_err());
        // and a spec with recovery + kill roundtrips through serde
        let spec = base().fault_plan(kill(0, 1)).build().unwrap();
        let text = serde_json::to_string(&spec).unwrap();
        let back: ExperimentSpec = serde_json::from_str(&text).unwrap();
        assert_eq!(spec, back);
        // older spec files without the recovery field still parse
        let mut value: serde::Value = serde_json::from_str(&text).unwrap();
        if let serde::Value::Object(fields) = &mut value {
            fields.retain(|(k, _)| k != "recovery");
            if let Some((_, serde::Value::Object(plan_fields))) =
                fields.iter_mut().find(|(k, _)| k == "fault_plan")
            {
                plan_fields.retain(|(k, _)| k != "kill_rank_at_step");
            }
        }
        let old_text = serde_json::to_string(&value).unwrap();
        let old: ExperimentSpec = serde_json::from_str(&old_text).unwrap();
        assert!(old.recovery.is_none());
        assert!(old.fault_plan.unwrap().kill_rank_at_step.is_none());
    }

    #[test]
    fn migration_plan_is_validated_against_the_run_shape() {
        let base = || {
            ExperimentSpec::builder("mig")
                .coupling(Coupling::Intercore)
                .ranks(3)
                .steps(4)
                .recovery(RecoveryPolicy::default())
        };
        let sudden = |from, to, at| {
            MigrationPlan::new(MigrationPattern::Sudden { from, to, at_step: at })
        };
        // valid intercore sudden migration
        let spec = base().migration(sudden(1, 2, 2)).build().unwrap();
        assert_eq!(
            spec.migration_handoffs(),
            vec![Handoff { partition: 1, from: 1, to: 2, step: 2 }]
        );
        assert_eq!(spec.planned_owner(1, 1), 1);
        assert_eq!(spec.planned_owner(1, 2), 2);
        // migration without recovery has no control plane to ride
        let err = ExperimentSpec::builder("mig")
            .coupling(Coupling::Intercore)
            .ranks(3)
            .steps(4)
            .migration(sudden(1, 2, 2))
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("recovery"), "{err}");
        // tight coupling has nothing to migrate between
        let err = ExperimentSpec::builder("mig")
            .ranks(3)
            .steps(4)
            .recovery(RecoveryPolicy::default())
            .migration(sudden(1, 2, 2))
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("tight"), "{err}");
        // self-migration, out-of-range ranks and steps
        assert!(base().migration(sudden(1, 1, 2)).build().is_err());
        assert!(base().migration(sudden(1, 9, 2)).build().is_err());
        assert!(base().migration(sudden(1, 2, 9)).build().is_err());
        // zero batch is rejected
        let bad = MigrationPlan::new(MigrationPattern::BatchedFluid {
            from: 0,
            to: 1,
            start_step: 0,
            batch: 0,
        });
        assert!(base().migration(bad).build().is_err());
        // rescale needs internode
        let rescale = MigrationPlan::new(MigrationPattern::Rescale {
            viz_ranks: 2,
            at_step: 2,
        });
        let err = base().migration(rescale).build().unwrap_err();
        assert!(err.to_string().contains("internode"), "{err}");
        // and a no-op rescale is flagged
        let noop = MigrationPlan::new(MigrationPattern::Rescale {
            viz_ranks: 3,
            at_step: 2,
        });
        assert!(ExperimentSpec::builder("mig")
            .coupling(Coupling::Internode)
            .ranks(3)
            .steps(4)
            .recovery(RecoveryPolicy::default())
            .migration(noop)
            .build()
            .is_err());
    }

    #[test]
    fn migration_handoffs_derive_from_the_schedule() {
        // internode, 6 sim ranks onto 2 viz ranks: viz 0 owns {0, 2, 4}
        let base = || {
            ExperimentSpec::builder("mig")
                .coupling(Coupling::Internode)
                .ranks(6)
                .steps(8)
                .viz_ranks(2)
                .recovery(RecoveryPolicy::default())
        };
        let spec = base()
            .migration(MigrationPlan::new(MigrationPattern::Fluid {
                from: 0,
                to: 1,
                start_step: 3,
            }))
            .build()
            .unwrap();
        let steps: Vec<(usize, usize)> = spec
            .migration_handoffs()
            .iter()
            .map(|h| (h.partition, h.step))
            .collect();
        assert_eq!(steps, vec![(0, 3), (2, 4), (4, 5)]);
        // batched: two per step
        let spec = base()
            .migration(MigrationPlan::new(MigrationPattern::BatchedFluid {
                from: 0,
                to: 1,
                start_step: 3,
                batch: 2,
            }))
            .build()
            .unwrap();
        let steps: Vec<(usize, usize)> = spec
            .migration_handoffs()
            .iter()
            .map(|h| (h.partition, h.step))
            .collect();
        assert_eq!(steps, vec![(0, 3), (2, 3), (4, 4)]);
        // rescale 2 -> 3 moves exactly the partitions whose round-robin
        // owner changes
        let spec = base()
            .migration(MigrationPlan::new(MigrationPattern::Rescale {
                viz_ranks: 3,
                at_step: 4,
            }))
            .build()
            .unwrap();
        assert_eq!(spec.max_viz_count(), 3);
        for h in spec.migration_handoffs() {
            assert_eq!(h.from, h.partition % 2);
            assert_eq!(h.to, h.partition % 3);
            assert_eq!(h.step, 4);
            assert_eq!(spec.planned_owner(h.partition, 4), h.to);
        }
        // a fluid schedule that runs off the end of the run is rejected
        assert!(base()
            .migration(MigrationPlan::new(MigrationPattern::Fluid {
                from: 0,
                to: 1,
                start_step: 6,
            }))
            .build()
            .is_err());
        // the plan rides along through serde, and older spec files without
        // the migration field still parse
        let spec = base()
            .migration(MigrationPlan::new(MigrationPattern::Sudden {
                from: 0,
                to: 1,
                at_step: 2,
            }))
            .build()
            .unwrap();
        let text = serde_json::to_string(&spec).unwrap();
        let back: ExperimentSpec = serde_json::from_str(&text).unwrap();
        assert_eq!(spec, back);
        let mut value: serde::Value = serde_json::from_str(&text).unwrap();
        if let serde::Value::Object(fields) = &mut value {
            fields.retain(|(k, _)| k != "migration");
        }
        let old_text = serde_json::to_string(&value).unwrap();
        let old: ExperimentSpec = serde_json::from_str(&old_text).unwrap();
        assert!(old.migration.is_none());
    }

    #[test]
    fn spec_roundtrips_through_json() {
        let spec = ExperimentSpec::builder("json")
            .application(Application::Xrage { dims: [16, 8, 8] })
            .algorithm(Algorithm::VtkSlice)
            .coupling(Coupling::Internode)
            .build()
            .unwrap();
        let text = serde_json::to_string(&spec).unwrap();
        let back: ExperimentSpec = serde_json::from_str(&text).unwrap();
        assert_eq!(spec, back);
    }

    #[test]
    fn orbit_cameras_differ_per_image() {
        let b = eth_data::Aabb::unit();
        let c0 = orbit_camera(&b, 32, 32, 0, 10);
        let c5 = orbit_camera(&b, 32, 32, 5, 10);
        assert_ne!(c0.position, c5.position);
        // both frame the box center
        let (fx, fy, _) = c0.project(b.center()).unwrap();
        assert!((fx - 16.0).abs() < 1.0 && (fy - 16.0).abs() < 1.0);
    }
}
