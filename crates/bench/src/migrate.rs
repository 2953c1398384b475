//! `reproduce migrate` — the elasticity benchmark: live partition
//! migration and viz-rank rescale measured across every schedule the
//! [`eth_core::MigrationPlan`] axis offers.
//!
//! For each pattern (Sudden, Fluid, BatchedFluid on the migration
//! spectrum; Rescale grow/shrink on the elasticity one) the benchmark
//! runs a no-migration reference and `samples` migrating runs, asserts
//! the final images are **byte-identical** to the reference every time —
//! the zero-loss contract: no frame drops, no pixel moves while
//! partitions travel — and reports the per-handoff disruption (the
//! source rank's handshake stall) as p50/p95 over all samples. The
//! result is `BENCH_migration.json`; a final campaign pass over the same
//! points carries the `recovery_migrations_total` /
//! `migration_disruption_s` telemetry for a `--metrics` export.

use eth_core::config::{Application, Coupling, ExperimentSpec};
use eth_core::error::{CoreError, Result};
use eth_core::{
    run_native, Algorithm, Campaign, CampaignTelemetry, MigrationPattern, MigrationPlan, RunCaches,
};
use crate::cli::Report;
use serde::Serialize;
use std::time::Instant;

/// Samples per pattern for the full benchmark (EXPERIMENTS.md reports
/// p50/p95 over at least this many handoffs per schedule).
pub const FULL_SAMPLES: usize = 30;
/// Samples per pattern for `--smoke` (CI asserts the contract, not the
/// tail).
pub const SMOKE_SAMPLES: usize = 3;

/// One migration schedule's measurement.
#[derive(Debug, Clone, Serialize)]
pub struct PatternReport {
    /// Schedule label: `sudden`, `fluid`, `batched`, `rescale-grow`,
    /// `rescale-shrink`.
    pub pattern: String,
    pub coupling: String,
    /// Handoffs the schedule resolves to per run.
    pub handoffs_per_run: usize,
    /// Runs measured (each asserts byte-identity against the reference).
    pub samples: usize,
    /// Committed handoffs across all samples (must be
    /// `handoffs_per_run * samples` — a failed handoff fails the bench).
    pub migrations_total: u64,
    /// True iff every sample's images matched the no-migration reference
    /// bit-for-bit.
    pub byte_identical: bool,
    /// Per-handoff source-side stall distribution, seconds.
    pub disruption_p50_s: f64,
    pub disruption_p95_s: f64,
    pub disruption_max_s: f64,
}

/// Everything `BENCH_migration.json` reports.
#[derive(Debug, Clone, Serialize)]
pub struct MigrationBenchReport {
    pub seed: u64,
    pub samples_per_pattern: usize,
    pub patterns: Vec<PatternReport>,
    /// True iff every pattern held the zero-loss contract.
    pub byte_identical: bool,
    pub wall_s: f64,
}

impl Report for MigrationBenchReport {
    const DEFAULT_OUT: Option<&'static str> = Some("BENCH_migration.json");

    fn check(&self) -> std::result::Result<(), String> {
        if self.byte_identical {
            Ok(())
        } else {
            Err("migration changed the images: the zero-loss contract is broken".into())
        }
    }

    fn summary(&self) -> String {
        let worst = self
            .patterns
            .iter()
            .map(|p| p.disruption_p95_s)
            .fold(0.0f64, f64::max);
        format!(
            "migrate: {} patterns x {} samples in {:.3}s, byte-identical: {}, \
             worst p95 handoff stall {:.1} ms",
            self.patterns.len(),
            self.samples_per_pattern,
            self.wall_s,
            self.byte_identical,
            worst * 1e3,
        )
    }
}

/// Build one pattern's (label, healthy reference, migrating) spec pair.
fn pattern_point(
    label: &str,
    coupling: Coupling,
    ranks: usize,
    viz_ranks: Option<usize>,
    pattern: MigrationPattern,
    seed: u64,
) -> Result<(String, ExperimentSpec, ExperimentSpec)> {
    let mut builder = ExperimentSpec::builder(&format!("mig-{label}"))
        .application(Application::Hacc { particles: 2_000 })
        .algorithm(Algorithm::GaussianSplat)
        .coupling(coupling)
        .ranks(ranks)
        .steps(4)
        .image_size(32, 32)
        .seed(seed);
    if let Some(v) = viz_ranks {
        builder = builder.viz_ranks(v);
    }
    let healthy = builder.build()?;
    let mut migrating = healthy.clone();
    migrating.migration = Some(MigrationPlan::new(pattern));
    migrating.validate()?;
    Ok((label.to_string(), healthy, migrating))
}

/// The benchmark's five schedules: the Sudden/Fluid/Batched disruption
/// spectrum plus both directions of a viz-rank rescale.
fn pattern_points(seed: u64) -> Result<Vec<(String, ExperimentSpec, ExperimentSpec)>> {
    Ok(vec![
        pattern_point(
            "sudden",
            Coupling::Intercore,
            3,
            None,
            MigrationPattern::Sudden { from: 1, to: 2, at_step: 2 },
            seed,
        )?,
        pattern_point(
            "fluid",
            Coupling::Internode,
            4,
            Some(2),
            MigrationPattern::Fluid { from: 0, to: 1, start_step: 1 },
            seed,
        )?,
        pattern_point(
            "batched",
            Coupling::Internode,
            4,
            Some(2),
            MigrationPattern::BatchedFluid { from: 0, to: 1, start_step: 1, batch: 2 },
            seed,
        )?,
        pattern_point(
            "rescale-grow",
            Coupling::Internode,
            4,
            Some(2),
            MigrationPattern::Rescale { viz_ranks: 3, at_step: 2 },
            seed,
        )?,
        pattern_point(
            "rescale-shrink",
            Coupling::Internode,
            4,
            Some(3),
            MigrationPattern::Rescale { viz_ranks: 2, at_step: 2 },
            seed,
        )?,
    ])
}

/// Percentile over a sorted slice (nearest-rank).
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Run the elasticity benchmark: `samples` migrating runs per pattern,
/// each checked byte-for-byte against its no-migration reference, then a
/// campaign pass over all patterns for the telemetry export. Returns the
/// report plus that campaign's [`CampaignTelemetry`].
pub fn run_migration_bench(samples: usize) -> Result<(MigrationBenchReport, CampaignTelemetry)> {
    let seed = 7u64;
    let points = pattern_points(seed)?;
    let t0 = Instant::now();
    let mut patterns = Vec::with_capacity(points.len());
    for (label, healthy, migrating) in &points {
        let reference = run_native(healthy)?;
        let handoffs_per_run = migrating.migration_handoffs().len();
        let mut stalls: Vec<f64> = Vec::with_capacity(handoffs_per_run * samples);
        let mut migrations_total = 0u64;
        let mut byte_identical = true;
        for _ in 0..samples {
            let out = run_native(migrating)?;
            if out.degradation.migration_failures > 0 {
                return Err(CoreError::Config(format!(
                    "{label}: a planned handoff degraded to no-op in a healthy run"
                )));
            }
            migrations_total += out.degradation.migrations;
            byte_identical &= out.images == reference.images;
            stalls.extend(&out.migration_disruption_s);
        }
        stalls.sort_by(|a, b| a.total_cmp(b));
        patterns.push(PatternReport {
            pattern: label.clone(),
            coupling: format!("{:?}", migrating.coupling).to_lowercase(),
            handoffs_per_run,
            samples,
            migrations_total,
            byte_identical,
            disruption_p50_s: percentile(&stalls, 50.0),
            disruption_p95_s: percentile(&stalls, 95.0),
            disruption_max_s: stalls.last().copied().unwrap_or(0.0),
        });
    }

    // One campaign pass over the migrating points: its telemetry carries
    // the migration counters and the disruption histogram for --metrics.
    let specs: Vec<ExperimentSpec> = points.iter().map(|(_, _, m)| m.clone()).collect();
    let outcome = Campaign::new().execute(&specs, &RunCaches::new(), None, None)?;
    if let Some(e) = outcome.results.iter().find_map(|r| r.as_ref().err()) {
        return Err(CoreError::Config(format!("campaign point failed: {e}")));
    }

    let byte_identical = patterns.iter().all(|p| p.byte_identical);
    let report = MigrationBenchReport {
        seed,
        samples_per_pattern: samples,
        patterns,
        byte_identical,
        wall_s: t0.elapsed().as_secs_f64(),
    };
    Ok((report, outcome.telemetry))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_migration_bench_holds_the_zero_loss_contract() {
        let (report, telemetry) = run_migration_bench(2).unwrap();
        assert_eq!(report.patterns.len(), 5);
        assert!(report.byte_identical, "{report:?}");
        for p in &report.patterns {
            assert!(p.handoffs_per_run > 0, "{p:?}");
            assert_eq!(
                p.migrations_total,
                (p.handoffs_per_run * p.samples) as u64,
                "{p:?}"
            );
            assert!(p.disruption_p95_s >= p.disruption_p50_s);
        }
        // every schedule resolves Sudden=1, Fluid=2, Batched=2, grow=2,
        // shrink=2 handoffs on these shapes
        let handoffs: Vec<usize> = report.patterns.iter().map(|p| p.handoffs_per_run).collect();
        assert_eq!(handoffs, vec![1, 2, 2, 2, 2]);
        // the campaign pass surfaces the counters CI greps for
        let prom = telemetry.to_prometheus();
        assert!(prom.contains("eth_campaign_recovery_migrations_total 9"), "{prom}");
        assert!(prom.contains("eth_campaign_migration_disruption_s_count 9"), "{prom}");
        let json = serde_json::to_string_pretty(&report).unwrap();
        assert!(json.contains("disruption_p95_s"));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 50.0), 2.0);
        assert_eq!(percentile(&v, 95.0), 4.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }
}
