//! The preliminary run and the caches a campaign's runs share.

use super::run_recorded;
use crate::config::{Coupling, ExperimentSpec};
use crate::error::{CoreError, Result};
use crate::pipeline::{scalar_range, VizPipeline};
use crate::sweep::lock_recover;
use eth_data::io::pool::{PayloadPool, PoolStats};
use eth_data::partition::{partition_grid_slabs, partition_points};
use eth_data::{Aabb, DataObject};
use eth_render::scratch::{ScratchPool, ScratchStats};
use eth_render::Image;
use eth_sim::timeseries::{StagingAccountant, TimeSeries};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

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
pub(super) struct StagedData {
    pub(super) series: Arc<TimeSeries>,
    pub(super) bounds: Vec<Aabb>,
    pub(super) scalar_ranges: Vec<Option<(f32, f32)>>,
}

/// Stage `spec`'s blocks into a series that reports its bytes to
/// `accountant` (the owning [`RunCaches`]', or a throwaway one for an
/// uncached run, whose series then accounts to itself).
pub(super) fn stage_data(spec: &ExperimentSpec, accountant: StagingAccountant) -> Result<StagedData> {
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
/// concurrent same-key requesters block on the one computation instead of
/// racing to duplicate it. A failed computation — an `Err` or a panic —
/// leaves the slot empty and the next requester retries.
pub(crate) struct MemoSlot<T>(Mutex<Option<Arc<T>>>);

impl<T> Default for MemoSlot<T> {
    fn default() -> Self {
        MemoSlot(Mutex::new(None))
    }
}

/// The value under `key`, computing it on the first request: `(value,
/// hit)`. A panic inside `compute` poisons the slot's mutex with the slot
/// still empty, so the slot is taken back with [`lock_recover`] and the
/// next requester computes again.
pub(crate) fn memoize<T, K, F>(
    map: &Mutex<HashMap<K, Arc<MemoSlot<T>>>>,
    key: K,
    compute: F,
) -> Result<(Arc<T>, bool)>
where
    K: std::hash::Hash + Eq,
    F: FnOnce() -> Result<T>,
{
    let slot = lock_recover(map).entry(key).or_default().clone();
    let mut guard = lock_recover(&slot.0);
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
    pub(super) payloads: PayloadPool,
    /// The visualization ranks' frame buffers: one set leased per rank per
    /// run, parked between runs.
    pub(super) scratch: ScratchPool,
}

impl RunCaches {
    pub fn new() -> RunCaches {
        RunCaches::default()
    }

    /// Counters so far (snapshot).
    pub fn stats(&self) -> CacheStats {
        *self.stats.lock().unwrap()
    }

    /// Counts of the encoded-payload pool every run through this cache set
    /// leases from. How many payloads a run holds at once depends on how
    /// far its simulation ranks ran ahead, so `fresh` is timing.
    pub fn payload_stats(&self) -> PoolStats {
        self.payloads.stats()
    }

    /// Counts of the frame-buffer sets every run through this cache set
    /// leases, one per visualization rank.
    pub fn scratch_stats(&self) -> ScratchStats {
        self.scratch.stats()
    }

    /// Resident / spilled staged bytes held by this cache set.
    pub fn accountant(&self) -> &StagingAccountant {
        &self.accountant
    }

    pub(super) fn staged(&self, spec: &ExperimentSpec) -> Result<Arc<StagedData>> {
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
            Ok(run_recorded(&base, &self.payloads, &self.scratch, move |_| Ok(staged))?.images)
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
    base.wire_compression = eth_data::compress::Codec::Lossless;
    base.viz_ranks = None;
    base.fault_plan = None;
    base.migration = None;
    base.artifact_dir = None;
    base
}

/// Pipeline configured with the step's global color range.
pub(super) fn pipeline_for_step(spec: &ExperimentSpec, staged: &StagedData, step: usize) -> VizPipeline {
    VizPipeline::new(spec).with_range(staged.scalar_ranges[step])
}

