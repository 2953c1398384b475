//! Resource-pressure benchmark: what the budgeted-memory machinery costs
//! and what it guarantees. `reproduce pressure-bench` emits
//! `BENCH_pressure.json` with four measurements:
//!
//! 1. **Beyond-RAM byte-identity** — the same sweep point run unbounded
//!    and with a memory budget a fraction of its staged footprint. The
//!    budgeted run must spill, stay under budget at its peak, and render
//!    byte-identical images.
//! 2. **Staging throughput** — MB/s through the byte-accounted
//!    staging [`TimeSeries`] while it spills and reloads under a tight
//!    budget.
//! 3. **Wire compression** — compressed vs raw bytes on the internode
//!    path, plus the lossless codec's byte-identity contract.
//! 4. **Pressure chaos** — a seeded campaign where a third of the points
//!    tear an ENOSPC mid-result-write (must recover on retry), a third
//!    hit an allocation failure while staging (must quarantine as
//!    `OutOfMemory`), and a third run clean. Zero panics, deterministic
//!    outcome sets, byte-identical recovered images, and a journal resume
//!    that restores every non-quarantined point.
//!
//! `reproduce pressure-chaos` runs measurement 4 alone as a CI smoke.

use crate::cli::Report;
use eth_core::config::{Application, Coupling, ExperimentSpec, ResourcePolicy};
use eth_core::harness::RunCaches;
use eth_core::{run_native, Algorithm, Campaign, CoreError, Result};
use eth_sim::timeseries::{StagingAccountant, TimeSeries};
use eth_transport::FaultPlan;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use serde::Serialize;
use std::time::Instant;

/// Report format version for downstream JSON consumers.
pub const SCHEMA: &str = "pressure-bench/1";

/// Everything `BENCH_pressure.json` reports.
#[derive(Debug, Clone, Serialize)]
pub struct PressureReport {
    pub schema: String,
    pub quick: bool,

    // -- beyond-RAM byte-identity --
    /// Total staged bytes of the unbounded run (its resident footprint).
    pub staged_bytes_total: u64,
    /// Budget imposed on the second run (a fraction of the footprint).
    pub memory_budget_bytes: u64,
    /// True iff the budgeted run rendered bit-identical images.
    pub images_byte_identical: bool,
    /// Peak resident staged bytes of the budgeted run (must be <= budget).
    pub peak_resident_bytes: u64,
    /// Bytes the budgeted run pushed through spill chunks.
    pub spilled_bytes_total: u64,
    pub unbudgeted_wall_s: f64,
    pub budgeted_wall_s: f64,

    // -- staging throughput under spill pressure --
    pub staging_blocks: usize,
    /// Bytes moved through the store: every insert plus every reload.
    pub staging_bytes_moved: u64,
    pub staging_wall_s: f64,
    pub staging_mb_per_sec: f64,
    pub staging_spills: u64,
    pub staging_reloads: u64,

    // -- wire compression --
    /// Raw (binary-encoded) bytes the internode path would have sent.
    pub wire_raw_bytes: u64,
    /// Bytes actually sent with the quantizing codec enabled.
    pub wire_compressed_bytes: u64,
    /// `wire_compressed_bytes / wire_raw_bytes`.
    pub wire_compression_ratio: f64,
    /// The default lossless codec must not change the rendered images.
    pub wire_lossless_byte_identical: bool,

    /// Peak resident set size of this process (`VmHWM`), if readable.
    pub peak_rss_bytes: Option<u64>,

    // -- pressure chaos --
    pub chaos: PressureChaos,
}

impl Report for PressureReport {
    const DEFAULT_OUT: Option<&'static str> = Some("BENCH_pressure.json");

    fn summary(&self) -> String {
        format!(
            "pressure: staged {} B under a {} B budget (peak {} B, spilled {} B, \
             byte-identical: {}), staging {:.1} MB/s ({} spills / {} reloads), \
             wire {} -> {} B (ratio {:.2}, lossless identical: {}), rss peak {}\n{}",
            self.staged_bytes_total,
            self.memory_budget_bytes,
            self.peak_resident_bytes,
            self.spilled_bytes_total,
            self.images_byte_identical,
            self.staging_mb_per_sec,
            self.staging_spills,
            self.staging_reloads,
            self.wire_raw_bytes,
            self.wire_compressed_bytes,
            self.wire_compression_ratio,
            self.wire_lossless_byte_identical,
            match self.peak_rss_bytes {
                Some(b) => format!("{b} B"),
                None => "unreadable".to_string(),
            },
            self.chaos.summary(),
        )
    }

    /// The benchmark's contract; `reproduce pressure-bench` exits nonzero
    /// when any clause fails.
    fn check(&self) -> std::result::Result<(), String> {
        if self.schema != SCHEMA {
            return Err(format!("schema {:?} != {SCHEMA:?}", self.schema));
        }
        if !self.images_byte_identical {
            return Err("budgeted run diverged from the unbounded run".into());
        }
        if self.spilled_bytes_total == 0 {
            return Err("budget never forced a spill: the measurement is vacuous".into());
        }
        if self.peak_resident_bytes > self.memory_budget_bytes {
            return Err(format!(
                "peak resident {} exceeded the {} budget",
                self.peak_resident_bytes, self.memory_budget_bytes
            ));
        }
        if self.staging_spills == 0 || self.staging_reloads == 0 {
            return Err("throughput loop never spilled/reloaded".into());
        }
        if self.wire_compressed_bytes >= self.wire_raw_bytes {
            return Err(format!(
                "quantizing codec did not shrink the wire: {} >= {}",
                self.wire_compressed_bytes, self.wire_raw_bytes
            ));
        }
        if !self.wire_lossless_byte_identical {
            return Err("lossless wire codec changed the images".into());
        }
        self.chaos.check()
    }
}

/// Outcome of the seeded resource-chaos campaign (measurement 4, also the
/// standalone `reproduce pressure-chaos` smoke).
#[derive(Debug, Clone, Serialize)]
pub struct PressureChaos {
    pub seed: u64,
    pub points: usize,
    /// Points that succeeded on attempt 1 (no fault injected).
    pub first_try: usize,
    /// Points that tore an ENOSPC and completed on a retry.
    pub recovered: usize,
    /// Points whose staging allocation failure outlasted the retry budget.
    pub quarantined: usize,
    pub expected_first_try: usize,
    pub expected_recovered: usize,
    pub expected_quarantined: usize,
    /// Every quarantined point's terminal error classified as OutOfMemory.
    pub oom_classified: bool,
    /// Recovered points render the same bytes as a fault-free run.
    pub recovered_byte_identical: bool,
    /// Points restored (not re-run) when the journal directory is resumed.
    pub resume_restored: usize,
}

impl Report for PressureChaos {
    const DEFAULT_OUT: Option<&'static str> = None;

    fn summary(&self) -> String {
        format!(
            "pressure-chaos (seed {}): {} points — {} first-try, {} recovered \
             from torn ENOSPC, {} quarantined OOM (classified: {}), recovered \
             images identical: {}, resume restored {}",
            self.seed,
            self.points,
            self.first_try,
            self.recovered,
            self.quarantined,
            self.oom_classified,
            self.recovered_byte_identical,
            self.resume_restored,
        )
    }

    /// The chaos contract: deterministic outcome sets, correct failure
    /// classification, byte-identical recovery, full restore on resume.
    fn check(&self) -> std::result::Result<(), String> {
        if self.first_try + self.recovered + self.quarantined != self.points {
            return Err(format!(
                "outcome sets do not partition the campaign: {} + {} + {} != {}",
                self.first_try, self.recovered, self.quarantined, self.points
            ));
        }
        if self.first_try != self.expected_first_try
            || self.recovered != self.expected_recovered
            || self.quarantined != self.expected_quarantined
        {
            return Err(format!(
                "outcome drifted from the seeded plan: got {}/{}/{}, expected {}/{}/{}",
                self.first_try,
                self.recovered,
                self.quarantined,
                self.expected_first_try,
                self.expected_recovered,
                self.expected_quarantined
            ));
        }
        if !self.oom_classified {
            return Err("a quarantined point's terminal error was not OutOfMemory".into());
        }
        if !self.recovered_byte_identical {
            return Err("a point recovered from torn ENOSPC with different images".into());
        }
        if self.resume_restored != self.points - self.quarantined {
            return Err(format!(
                "resume restored {} points, expected {}",
                self.resume_restored,
                self.points - self.quarantined
            ));
        }
        Ok(())
    }
}

/// Which resource fault point `index` faces under `seed`: a third of the
/// points run clean, a third tear an ENOSPC on their first result write
/// (recoverable — the retry's journal ordinals are past the injection),
/// and a third fail allocation while staging (deterministic per attempt,
/// so the retry budget cannot save them).
enum PlannedFault {
    None,
    DiskFull,
    AllocFail,
}

fn planned_fault(seed: u64, index: usize) -> PlannedFault {
    let mut rng = StdRng::seed_from_u64(
        seed.wrapping_add(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((index as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9)),
    );
    match rng.next_u64() % 3 {
        0 => PlannedFault::None,
        1 => PlannedFault::DiskFull,
        _ => PlannedFault::AllocFail,
    }
}

/// The chaos grid: three algorithms x two sampling ratios, each point
/// carrying its seeded resource fault.
fn chaos_specs(seed: u64) -> Result<Vec<ExperimentSpec>> {
    let algorithms = [
        Algorithm::RaycastSpheres,
        Algorithm::GaussianSplat,
        Algorithm::VtkPoints,
    ];
    let mut out = Vec::new();
    for (a, alg) in algorithms.into_iter().enumerate() {
        for (r, ratio) in [0.5, 0.25].into_iter().enumerate() {
            let index = a * 2 + r;
            let mut builder = ExperimentSpec::builder(&format!("pressure-{}-{ratio}", alg.name()))
                .application(Application::Hacc { particles: 3_000 })
                .algorithm(alg)
                .coupling(Coupling::Intercore)
                .ranks(2)
                .steps(2)
                .image_size(48, 48)
                .sampling_ratio(ratio);
            builder = match planned_fault(seed, index) {
                PlannedFault::None => builder,
                // Ordinal 1 is attempt 1's result write: Started takes 0,
                // so the first durable result tears and the retry (whose
                // ordinals continue past the injection) recovers.
                PlannedFault::DiskFull => {
                    builder.fault_plan(FaultPlan::default().with_disk_full_at_append(1))
                }
                PlannedFault::AllocFail => {
                    builder.fault_plan(FaultPlan::default().with_alloc_fail_at_stage(0))
                }
            };
            out.push(builder.build()?);
        }
    }
    Ok(out)
}

/// Attempts per point, including the first.
const CHAOS_ATTEMPTS: u32 = 3;

/// Run the seeded resource-chaos campaign: journaled, each point given
/// [`CHAOS_ATTEMPTS`] attempts (`DiskFull` and `OutOfMemory` are transient,
/// so they are retried), then resumed from the same journal directory.
pub fn pressure_chaos(seed: u64) -> Result<PressureChaos> {
    let specs = chaos_specs(seed)?;
    let dir = std::env::temp_dir().join(format!(
        "eth-pressure-chaos-{:x}-{seed:x}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);

    let outcome = Campaign::new()
        .with_max_attempts(CHAOS_ATTEMPTS)
        .run_journaled(&specs, &RunCaches::new(), &dir)?;

    let mut first_try = 0;
    let mut recovered = 0;
    let mut oom_classified = true;
    let mut recovered_byte_identical = true;
    for (index, result) in outcome.results.iter().enumerate() {
        match result {
            Ok(native) => {
                if outcome.attempts[index] > 1 {
                    recovered += 1;
                    // A recovery must not change the science: re-run the
                    // same point without its fault plan and compare bytes.
                    let mut clean = specs[index].clone();
                    clean.fault_plan = None;
                    recovered_byte_identical &= run_native(&clean)?.images == native.images;
                } else {
                    first_try += 1;
                }
            }
            Err(CoreError::Quarantined { last_error, .. }) => {
                oom_classified &= matches!(**last_error, CoreError::OutOfMemory(_));
            }
            Err(_) => oom_classified = false,
        }
    }

    let resumed = Campaign::new()
        .with_max_attempts(CHAOS_ATTEMPTS)
        .run_journaled(&specs, &RunCaches::new(), &dir)?;
    let resume_restored = resumed.restored.len();
    let _ = std::fs::remove_dir_all(&dir);

    let (mut expected_first_try, mut expected_recovered, mut expected_quarantined) = (0, 0, 0);
    for index in 0..specs.len() {
        match planned_fault(seed, index) {
            PlannedFault::None => expected_first_try += 1,
            PlannedFault::DiskFull => expected_recovered += 1,
            PlannedFault::AllocFail => expected_quarantined += 1,
        }
    }

    Ok(PressureChaos {
        seed,
        points: specs.len(),
        first_try,
        recovered,
        quarantined: outcome.quarantined.len(),
        expected_first_try,
        expected_recovered,
        expected_quarantined,
        oom_classified,
        recovered_byte_identical,
        resume_restored,
    })
}

/// The byte-identity measurement's design point. Full size stages enough
/// to make spill traffic a realistic share of the run.
fn pressure_spec(name: &str, quick: bool) -> Result<ExperimentSpec> {
    let particles = if quick { 3_000 } else { 30_000 };
    ExperimentSpec::builder(name)
        .application(Application::Hacc { particles })
        .algorithm(Algorithm::GaussianSplat)
        .ranks(3)
        .steps(2)
        .image_size(48, 48)
        .build()
}

/// `VmHWM` from `/proc/self/status`, in bytes. `None` when the file is
/// absent or unparseable (non-Linux hosts).
fn peak_rss_bytes() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kb * 1024);
        }
    }
    None
}

/// Run the benchmark. `quick` shrinks every measurement for CI.
pub fn run_pressure_bench(quick: bool) -> Result<PressureReport> {
    // 1. Beyond-RAM byte-identity: unbounded first (establishes the staged
    // footprint), then the same point under a quarter of that budget.
    let spec = pressure_spec("pressure-budget", quick)?;
    let t0 = Instant::now();
    let full = run_native(&spec)?;
    let unbudgeted_wall_s = t0.elapsed().as_secs_f64();
    let staged_bytes_total = full.counters.get("staging_resident_bytes") as u64;
    let memory_budget_bytes = (staged_bytes_total / 4).max(1);
    let mut budgeted = spec.clone();
    budgeted.resources = Some(ResourcePolicy::with_memory_budget(memory_budget_bytes));
    let t1 = Instant::now();
    let lean = run_native(&budgeted)?;
    let budgeted_wall_s = t1.elapsed().as_secs_f64();

    // 2. Staging throughput under spill pressure: distinct timestep blocks
    // through a store budgeted at a third of their total, then a full
    // reload pass that streams every spilled chunk back.
    let staging_blocks = if quick { 6 } else { 16 };
    let tp_spec = pressure_spec("pressure-staging", quick)?;
    let mut blocks = Vec::with_capacity(staging_blocks);
    let mut total = 0u64;
    for step in 0..staging_blocks {
        let obj = tp_spec.application.generate(step, tp_spec.seed)?;
        total += eth_data::io::binary::encoded_len(&obj) as u64;
        blocks.push(obj);
    }
    let budget = Some((total / 3).max(1));
    let store = TimeSeries::new(1, staging_blocks, budget, None, StagingAccountant::new())?;
    let t2 = Instant::now();
    for (step, obj) in blocks.iter().enumerate() {
        store.insert(step, 0, obj.clone())?;
    }
    let mut moved = total;
    for (step, obj) in blocks.iter().enumerate() {
        let back = store.get(step, 0)?;
        moved += eth_data::io::binary::encoded_len(&back) as u64;
        if eth_data::io::binary::encode(&back) != eth_data::io::binary::encode(obj) {
            return Err(CoreError::Config(format!(
                "staged block {step} diverged after spill/reload"
            )));
        }
    }
    let staging_wall_s = t2.elapsed().as_secs_f64();
    let stats = store.stats();

    // 3. Wire compression on the internode path: the quantizing codec's
    // byte counters, and the default lossless codec's identity contract
    // (the same images as a run that never crosses a process boundary).
    let mut wire = pressure_spec("pressure-wire", quick)?;
    let mut tight = wire.clone();
    tight.coupling = Coupling::Tight;
    wire.coupling = Coupling::Internode;
    let wire_lossless_byte_identical = run_native(&wire)?.images == run_native(&tight)?.images;
    let mut lossy = wire.clone();
    lossy.wire_compression = eth_data::compress::Codec::Quantize;
    let quantized = run_native(&lossy)?;
    let wire_raw_bytes = quantized.counters.get("wire_raw_bytes") as u64;
    let wire_compressed_bytes = quantized.counters.get("wire_compressed_bytes") as u64;

    // 4. Seeded resource chaos (also `reproduce pressure-chaos`).
    let chaos = pressure_chaos(11)?;

    Ok(PressureReport {
        schema: SCHEMA.to_string(),
        quick,
        staged_bytes_total,
        memory_budget_bytes,
        images_byte_identical: full.images == lean.images,
        peak_resident_bytes: lean.counters.get("staging_peak_resident_bytes") as u64,
        spilled_bytes_total: lean.counters.get("spilled_bytes_total") as u64,
        unbudgeted_wall_s,
        budgeted_wall_s,
        staging_blocks,
        staging_bytes_moved: moved,
        staging_wall_s,
        staging_mb_per_sec: if staging_wall_s > 0.0 {
            moved as f64 / 1e6 / staging_wall_s
        } else {
            0.0
        },
        staging_spills: stats.spills,
        staging_reloads: stats.reloads,
        wire_raw_bytes,
        wire_compressed_bytes,
        wire_compression_ratio: if wire_raw_bytes > 0 {
            wire_compressed_bytes as f64 / wire_raw_bytes as f64
        } else {
            0.0
        },
        wire_lossless_byte_identical,
        peak_rss_bytes: peak_rss_bytes(),
        chaos,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_pressure_bench_holds_its_contract() {
        let report = run_pressure_bench(true).unwrap();
        if let Err(e) = report.check() {
            panic!("pressure contract violated: {e}\n{}", report.summary());
        }
        assert!(report.staging_mb_per_sec > 0.0);
        let json = serde_json::to_string_pretty(&report).unwrap();
        assert!(json.contains("spilled_bytes_total"));
        assert!(json.contains("wire_compression_ratio"));
        assert!(json.contains("resume_restored"));
    }

    #[test]
    fn chaos_outcome_is_a_pure_function_of_the_seed() {
        let a = pressure_chaos(23).unwrap();
        let b = pressure_chaos(23).unwrap();
        assert_eq!(a.first_try, b.first_try);
        assert_eq!(a.recovered, b.recovered);
        assert_eq!(a.quarantined, b.quarantined);
        a.check().unwrap();
        b.check().unwrap();
    }
}
