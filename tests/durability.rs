//! Integration tests for durable campaigns: journal crash-recovery
//! (truncation at any byte offset yields a clean resume with
//! byte-identical images) and spec-hash invalidation on resume.

use eth::core::config::{Algorithm, Application, ExperimentSpec};
use eth::core::journal::JOURNAL_FILE;
use eth::core::harness::RunCaches;
use eth::core::sweep::{Campaign, CampaignOutcome, Sweep};
use eth::render::image::Image;
use proptest::prelude::*;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

fn base() -> ExperimentSpec {
    ExperimentSpec::builder("durability")
        .application(Application::Hacc { particles: 800 })
        .algorithm(Algorithm::GaussianSplat)
        .ranks(1)
        .image_size(24, 24)
        .build()
        .unwrap()
}

fn sweep() -> Sweep {
    Sweep::over(base()).sampling_ratios(&[1.0, 0.5, 0.25])
}

fn tmp(name: &str) -> PathBuf {
    static RUN: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join("eth-durability-tests").join(format!(
        "{name}-{:x}-{}",
        std::process::id(),
        RUN.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Resume (or start) the journaled campaign over `sweep` in `dir`.
fn resume(dir: &Path, sweep: &Sweep) -> CampaignOutcome {
    Campaign::new()
        .run_journaled(&sweep.specs().unwrap(), &RunCaches::new(), dir)
        .unwrap()
}

/// The uninterrupted reference: one journaled run of the sweep, kept as
/// the raw campaign-directory bytes plus the images it produced.
struct Reference {
    images: Vec<Vec<Image>>,
    journal: Vec<u8>,
    manifest: Vec<u8>,
    results: Vec<(String, Vec<u8>)>,
}

fn reference() -> &'static Reference {
    static REF: OnceLock<Reference> = OnceLock::new();
    REF.get_or_init(|| {
        let dir = tmp("reference");
        let outcome = resume(&dir, &sweep());
        assert_eq!(outcome.failures(), 0);
        let images = outcome
            .results
            .iter()
            .map(|r| r.as_ref().unwrap().images.clone())
            .collect();
        let journal = fs::read(dir.join(JOURNAL_FILE)).unwrap();
        let manifest = fs::read(dir.join("manifest.json")).unwrap();
        let mut results = Vec::new();
        for entry in fs::read_dir(dir.join("results")).unwrap() {
            let entry = entry.unwrap();
            results.push((
                entry.file_name().to_string_lossy().into_owned(),
                fs::read(entry.path()).unwrap(),
            ));
        }
        fs::remove_dir_all(&dir).ok();
        Reference {
            images,
            journal,
            manifest,
            results,
        }
    })
}

/// Materialize the reference campaign directory with its journal cut to
/// `keep` bytes — the on-disk state after a crash that tore the tail.
fn stage_truncated(dir: &Path, keep: usize) {
    let r = reference();
    fs::create_dir_all(dir.join("results")).unwrap();
    fs::write(dir.join(JOURNAL_FILE), &r.journal[..keep]).unwrap();
    fs::write(dir.join("manifest.json"), &r.manifest).unwrap();
    for (name, bytes) in &r.results {
        fs::write(dir.join("results").join(name), bytes).unwrap();
    }
}

/// Complete (newline-terminated) journal lines surviving in the first
/// `keep` bytes that record a successfully finished point — exactly the
/// points a resume may restore instead of re-running.
fn surviving_finishes(keep: usize) -> usize {
    let text = String::from_utf8_lossy(&reference().journal[..keep]);
    text.split_inclusive('\n')
        .filter(|line| line.ends_with('\n'))
        .filter(|line| line.contains("\"Finished\"") && line.contains("\"Ok\""))
        .count()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Crash-recovery property: truncating the journal at *any* byte
    /// offset must leave a resumable campaign — the torn tail is
    /// discarded, the completed prefix is restored instead of re-run,
    /// and the final images are byte-identical to the uninterrupted run.
    #[test]
    fn truncated_journal_resumes_to_byte_identical_images(pick in 0usize..usize::MAX) {
        let r = reference();
        let keep = pick % (r.journal.len() + 1);
        let dir = tmp("truncated");
        stage_truncated(&dir, keep);

        let outcome = resume(&dir, &sweep());
        prop_assert_eq!(outcome.failures(), 0);
        prop_assert_eq!(outcome.results.len(), r.images.len());
        prop_assert_eq!(outcome.restored.len(), surviving_finishes(keep));
        for (i, result) in outcome.results.iter().enumerate() {
            let images = &result.as_ref().unwrap().images;
            prop_assert_eq!(
                images, &r.images[i],
                "point {} diverged after resume from offset {}", i, keep
            );
        }
        fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn resume_reruns_only_points_whose_spec_changed() {
    let dir = tmp("spec-change");
    let first = resume(&dir, &sweep());
    assert_eq!(first.failures(), 0);
    assert!(first.restored.is_empty(), "fresh run restores nothing");

    // Same sweep, one axis value changed: only the changed point re-runs.
    let changed = Sweep::over(base()).sampling_ratios(&[1.0, 0.5, 0.125]);
    let second = resume(&dir, &changed);
    assert_eq!(second.failures(), 0);
    assert_eq!(
        second.restored,
        vec![0, 1],
        "unchanged points must be restored, the changed one re-run"
    );

    // The restored images are the first run's, bit for bit.
    for i in [0usize, 1] {
        assert_eq!(
            second.results[i].as_ref().unwrap().images,
            first.results[i].as_ref().unwrap().images,
        );
    }
    fs::remove_dir_all(&dir).ok();
}
