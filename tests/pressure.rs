//! Integration tests for resource-pressure robustness: the staging store
//! must survive arbitrary stage→spill→reload interleavings under a
//! shrinking memory budget without changing a byte, and a journaled
//! campaign must survive an injected ENOSPC at *any* append ordinal —
//! recovering through a retry with byte-identical images, never
//! panicking (the disk-full mirror of `durability.rs`'s truncation test).

use eth::core::config::{Algorithm, Application, ExperimentSpec};
use eth::core::sweep::{Campaign, Sweep};
use eth::data::DataObject;
use eth::render::image::Image;
use eth::sim::timeseries::{StagingAccountant, TimeSeries};
use eth::transport::fault::FaultPlan;
use proptest::prelude::*;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

fn tmp(name: &str) -> PathBuf {
    static RUN: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join("eth-pressure-tests").join(format!(
        "{name}-{:x}-{}",
        std::process::id(),
        RUN.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn base() -> ExperimentSpec {
    ExperimentSpec::builder("pressure")
        .application(Application::Hacc { particles: 800 })
        .algorithm(Algorithm::GaussianSplat)
        .ranks(1)
        .image_size(24, 24)
        .build()
        .unwrap()
}

fn sweep_specs(fail_at: Option<u64>) -> Vec<ExperimentSpec> {
    let mut spec = base();
    if let Some(n) = fail_at {
        spec.fault_plan = Some(FaultPlan::default().with_disk_full_at_append(n));
    }
    Sweep::over(spec)
        .sampling_ratios(&[1.0, 0.5, 0.25])
        .specs()
        .unwrap()
}

/// The fault-free reference images, one journaled run, computed once.
fn reference_images() -> &'static Vec<Vec<Image>> {
    static REF: OnceLock<Vec<Vec<Image>>> = OnceLock::new();
    REF.get_or_init(|| {
        let dir = tmp("reference");
        let outcome = Campaign::new()
            .run_journaled(&sweep_specs(None), &eth::prelude::RunCaches::new(), &dir)
            .unwrap();
        assert_eq!(outcome.failures(), 0);
        let images = outcome
            .results
            .iter()
            .map(|r| r.as_ref().unwrap().images.clone())
            .collect();
        fs::remove_dir_all(&dir).ok();
        images
    })
}

/// The six distinct timestep blocks the staging property moves around,
/// with their canonical encodings for byte-level comparison.
fn staging_blocks() -> &'static Vec<(DataObject, Vec<u8>)> {
    static BLOCKS: OnceLock<Vec<(DataObject, Vec<u8>)>> = OnceLock::new();
    BLOCKS.get_or_init(|| {
        let app = Application::Hacc { particles: 500 };
        (0..6)
            .map(|step| {
                let obj = app.generate(step, 7).unwrap();
                let bytes = eth::data::io::binary::encode(&obj).as_ref().to_vec();
                (obj, bytes)
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// ENOSPC-at-any-append property: injecting a disk-full error at an
    /// arbitrary journal append ordinal must leave the campaign standing —
    /// a torn Started/Finished append is absorbed (they are best-effort),
    /// a torn result write fails the point and the retry policy recovers
    /// it — and in every case the images are byte-identical to the
    /// fault-free run, both in the faulted campaign and after a resume.
    #[test]
    fn disk_full_at_any_append_recovers_to_byte_identical_images(pick in 0u64..u64::MAX) {
        // A 3-point single-attempt run appends 3 ordinals per point
        // (Started, result write, Finished); 0..8 also probes past-the-end
        // (inert) injections.
        let fail_at = pick % 8;
        let reference = reference_images();
        let dir = tmp("disk-full");
        let specs = sweep_specs(Some(fail_at));

        let outcome = Campaign::new()
            .with_max_attempts(2)
            .run_journaled(&specs, &eth::prelude::RunCaches::new(), &dir)
            .unwrap();
        prop_assert_eq!(outcome.failures(), 0, "injection at ordinal {} leaked", fail_at);
        prop_assert!(outcome.quarantined.is_empty());
        for (i, result) in outcome.results.iter().enumerate() {
            prop_assert_eq!(
                &result.as_ref().unwrap().images, &reference[i],
                "point {} diverged under injection at ordinal {}", i, fail_at
            );
        }

        // Whatever the journal now holds (a recovered point's second
        // attempt, or a success whose Finished record was torn), a resume
        // must reproduce the same bytes.
        let resumed = Campaign::new()
            .with_max_attempts(2)
            .run_journaled(&sweep_specs(None), &eth::prelude::RunCaches::new(), &dir)
            .unwrap();
        prop_assert_eq!(resumed.failures(), 0);
        for (i, result) in resumed.results.iter().enumerate() {
            prop_assert_eq!(
                &result.as_ref().unwrap().images, &reference[i],
                "point {} diverged on resume after injection at ordinal {}", i, fail_at
            );
        }
        fs::remove_dir_all(&dir).ok();
    }

    /// Spill-staging property: any interleaving of inserts and reads over
    /// any budget — from "everything fits" down to "every block spills" —
    /// returns every block byte-identical, with the store's peak resident
    /// accounting never exceeding the budget.
    #[test]
    fn any_stage_spill_reload_interleaving_is_byte_identical(
        ops in proptest::collection::vec(0usize..6, 1..32),
        divisor in 1u64..40,
    ) {
        let blocks = staging_blocks();
        let total: u64 = blocks.iter().map(|(_, b)| b.len() as u64).sum();
        let budget = (total / divisor).max(1);
        let store = TimeSeries::new(1, 6, Some(budget), None, StagingAccountant::new()).unwrap();

        let mut inserted = [false; 6];
        for &i in &ops {
            if inserted[i] {
                let back = store.get(i, 0).unwrap();
                let encoded = eth::data::io::binary::encode(&back);
                prop_assert_eq!(
                    encoded.as_ref(), blocks[i].1.as_slice(),
                    "block {} diverged mid-interleaving (budget {})", i, budget
                );
            } else {
                store.insert(i, 0, blocks[i].0.clone()).unwrap();
                inserted[i] = true;
            }
        }
        // Full reload pass: every inserted block streams back intact no
        // matter how many times it was evicted and reloaded above.
        for (i, (_, bytes)) in blocks.iter().enumerate() {
            if !inserted[i] {
                continue;
            }
            let back = store.get(i, 0).unwrap();
            let encoded = eth::data::io::binary::encode(&back);
            prop_assert_eq!(
                encoded.as_ref(), bytes.as_slice(),
                "block {} diverged on final reload (budget {})", i, budget
            );
        }
        let stats = store.stats();
        prop_assert!(
            stats.peak_resident_bytes <= budget,
            "peak {} exceeded budget {}", stats.peak_resident_bytes, budget
        );
        store.assert_within_budget();
    }
}
