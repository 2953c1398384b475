//! Campaign-throughput benchmark: the same accuracy sweep — every design
//! point plus its RMSE against the full-fidelity baseline — executed
//! sequentially without caches (one `run_native` per point, baseline
//! re-rendered per ratio point) and through the [`Campaign`] scheduler
//! with shared staging and baseline caches.
//!
//! This is the measurement behind `reproduce bench`, which emits
//! `BENCH_campaign.json`: points/sec, the staging cache hit rate, the
//! sequential-vs-campaign speedup, and dataset encode throughput — plus a
//! correctness bit asserting the two execution modes produced
//! byte-identical images.

use eth_core::config::{Algorithm, Application, ExperimentSpec};
use eth_core::error::Result;
use eth_core::harness::baseline_spec;
use eth_core::{run_native, Campaign, NativeOutcome, RunCaches};
use eth_data::compress::Codec;
use eth_data::io::binary;
use eth_data::io::pool::PayloadPool;
use eth_data::Fields;
use crate::cli::Report;
use serde::Serialize;
use std::time::Instant;

/// Everything `BENCH_campaign.json` reports.
#[derive(Debug, Clone, Serialize)]
pub struct CampaignBenchReport {
    /// Design points in the sweep (algorithms x sampling ratios).
    pub points: usize,
    /// Scheduler slot budget used for the campaign run.
    pub capacity: usize,
    /// Wall time for the cache-free status quo: every point runs alone,
    /// and every point stages its data and renders its full-fidelity
    /// baseline from scratch for the RMSE.
    pub sequential_wall_s: f64,
    /// Wall time for the same workflow through the campaign scheduler
    /// with shared staging and baseline caches.
    pub campaign_wall_s: f64,
    /// `sequential_wall_s / campaign_wall_s`.
    pub speedup: f64,
    /// Campaign throughput in design points per second.
    pub points_per_sec: f64,
    pub staging_hits: u64,
    pub staging_misses: u64,
    /// Fraction of staging lookups served from cache. With one shared
    /// dataset across n points this is (n-1)/n.
    pub staging_hit_rate: f64,
    /// Full-fidelity baseline renders served from cache vs computed.
    /// With a ratio sweep, one render per algorithm instead of one per
    /// ratio point.
    pub baseline_hits: u64,
    pub baseline_misses: u64,
    /// True iff every campaign image equals its sequential counterpart
    /// bit-for-bit.
    pub images_byte_identical: bool,
    /// Bytes produced by the encode-throughput loop.
    pub encoded_bytes: u64,
    /// Dataset encode throughput (the default wire codec,
    /// `Codec::Lossless`, into a leased buffer) in bytes per second.
    pub encode_bytes_per_sec: f64,
}

impl Report for CampaignBenchReport {
    const DEFAULT_OUT: Option<&'static str> = Some("BENCH_campaign.json");

    fn check(&self) -> std::result::Result<(), String> {
        if self.images_byte_identical {
            Ok(())
        } else {
            Err("campaign images diverged from sequential execution".into())
        }
    }

    fn summary(&self) -> String {
        format!(
            "campaign: {} points in {:.3}s ({:.2} points/s, {:.2}x vs sequential \
             {:.3}s), staging hit rate {:.0}% ({} hits / {} misses), baselines \
             rendered {}/{}, images byte-identical: {}, encode {:.3e} B/s",
            self.points,
            self.campaign_wall_s,
            self.points_per_sec,
            self.speedup,
            self.sequential_wall_s,
            self.staging_hit_rate * 100.0,
            self.staging_hits,
            self.staging_misses,
            self.baseline_misses,
            self.baseline_misses + self.baseline_hits,
            self.images_byte_identical,
            self.encode_bytes_per_sec,
        )
    }
}

/// The benchmark's sweep: 3 particle algorithms x 4 sampling ratios = 12
/// design points over one HACC dataset, so staging is shared across all of
/// them. `smoke` shrinks the data and image for CI.
pub fn campaign_specs(smoke: bool) -> Result<Vec<ExperimentSpec>> {
    // Sized so that staging (generate + partition) is a realistic share of
    // each point's cost — on a single-core runner the campaign's win comes
    // from staging once instead of twelve times; extra cores add scheduler
    // concurrency on top.
    let (particles, px) = if smoke { (4_000, 48) } else { (100_000, 48) };
    let base = ExperimentSpec::builder("campaign-bench")
        .application(Application::Hacc { particles })
        .ranks(2)
        .image_size(px, px)
        .build()?;
    eth_core::sweep::Sweep::over(base)
        .algorithms(&Algorithm::particle_algorithms())
        .sampling_ratios(&[1.0, 0.75, 0.5, 0.25])
        .specs()
}

/// Run the benchmark. Both passes execute the full accuracy-sweep
/// workflow — every design point *plus* its RMSE against the
/// full-fidelity baseline — first sequentially without caches (stage and
/// render the baseline once per ratio point, the pre-campaign status
/// quo), then through the campaign engine with shared staging and
/// baseline caches.
pub fn run_campaign_bench(smoke: bool) -> Result<CampaignBenchReport> {
    let specs = campaign_specs(smoke)?;

    let t0 = Instant::now();
    let mut sequential: Vec<NativeOutcome> = Vec::with_capacity(specs.len());
    let mut seq_rmse: Vec<f64> = Vec::with_capacity(specs.len());
    for spec in &specs {
        let point = run_native(spec)?;
        let baseline = run_native(&baseline_spec(spec))?;
        seq_rmse.push(point.images[0].rmse(&baseline.images[0])?);
        sequential.push(point);
    }
    let sequential_wall_s = t0.elapsed().as_secs_f64();

    let campaign = Campaign::new();
    let capacity = campaign.capacity();
    let caches = RunCaches::new();
    let t1 = Instant::now();
    let out = campaign.run_with(&specs, &caches);
    if let Some(e) = out.results.iter().find_map(|r| r.as_ref().err()) {
        return Err(eth_core::error::CoreError::Config(format!(
            "campaign point failed: {e}"
        )));
    }
    let mut camp_rmse: Vec<f64> = Vec::with_capacity(specs.len());
    for (spec, point) in specs.iter().zip(out.outcomes()) {
        let baseline = caches.baseline_images(spec)?;
        camp_rmse.push(point.images[0].rmse(&baseline[0])?);
    }
    let campaign_wall_s = t1.elapsed().as_secs_f64();

    let stats = caches.stats();
    let images_byte_identical = seq_rmse == camp_rmse
        && sequential
            .iter()
            .zip(out.outcomes())
            .all(|(seq, par)| seq.images == par.images);

    // Encode throughput over the sweep's dataset (step 0, shared by every
    // point). The exact-size check keeps encoded_len honest under load.
    let obj = specs[0].application.generate(0, specs[0].seed)?;
    let expected = binary::encoded_len(&obj) as u64;
    let reps = if smoke { 20 } else { 50 };
    let pool = PayloadPool::new();
    let t_enc = Instant::now();
    let mut encoded_bytes = 0u64;
    for _ in 0..reps {
        let payload = Codec::Lossless.encode_in(&obj, Fields::All, &pool);
        assert_eq!(payload.len() as u64, expected);
        encoded_bytes += payload.len() as u64;
    }
    let encode_s = t_enc.elapsed().as_secs_f64();

    Ok(CampaignBenchReport {
        points: specs.len(),
        capacity,
        sequential_wall_s,
        campaign_wall_s,
        speedup: if campaign_wall_s > 0.0 {
            sequential_wall_s / campaign_wall_s
        } else {
            0.0
        },
        points_per_sec: if campaign_wall_s > 0.0 {
            specs.len() as f64 / campaign_wall_s
        } else {
            0.0
        },
        staging_hits: stats.staging_hits,
        staging_misses: stats.staging_misses,
        staging_hit_rate: stats.staging_hit_rate(),
        baseline_hits: stats.baseline_hits,
        baseline_misses: stats.baseline_misses,
        images_byte_identical,
        encoded_bytes,
        encode_bytes_per_sec: if encode_s > 0.0 {
            encoded_bytes as f64 / encode_s
        } else {
            0.0
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_bench_end_to_end() {
        let report = run_campaign_bench(true).unwrap();
        assert_eq!(report.points, 12);
        assert!(report.images_byte_identical, "campaign changed the images");
        // 12 points over one dataset: 1 staging miss from the campaign
        // pass, then 11 hits; each baseline miss re-checks staging and
        // hits too (3 algorithms -> 3 extra hits).
        assert_eq!(report.staging_misses, 1);
        assert_eq!(report.staging_hits, 14);
        assert!(report.staging_hit_rate >= 11.0 / 12.0 - 1e-9);
        // 4 ratio points per algorithm share one baseline render.
        assert_eq!(report.baseline_misses, 3);
        assert_eq!(report.baseline_hits, 9);
        assert!(report.encode_bytes_per_sec > 0.0);
        let json = serde_json::to_string_pretty(&report).unwrap();
        assert!(json.contains("staging_hit_rate"));
    }
}
