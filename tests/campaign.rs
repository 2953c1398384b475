//! Integration tests for the campaign engine: correctness of the staging /
//! baseline caches and determinism of concurrent execution.

use eth::core::config::{Algorithm, Application, Coupling, ExperimentSpec};
use eth::core::harness::{run_native, run_native_cached, RunCaches};
use eth::core::sweep::{Campaign, Sweep};

fn base(name: &str) -> ExperimentSpec {
    ExperimentSpec::builder(name)
        .application(Application::Hacc { particles: 2_500 })
        .algorithm(Algorithm::GaussianSplat)
        .ranks(2)
        .image_size(40, 40)
        .build()
        .unwrap()
}

#[test]
fn cached_and_fresh_runs_are_byte_identical() {
    let mut spec = base("cache-vs-fresh");
    spec.sampling_ratio = 0.5;
    let fresh = run_native(&spec).unwrap();
    let caches = RunCaches::new();
    let cold = run_native_cached(&spec, &caches).unwrap();
    let warm = run_native_cached(&spec, &caches).unwrap();
    for (a, b) in fresh.images.iter().zip(&cold.images) {
        assert_eq!(a, b, "cold cached run diverged");
        assert_eq!(a.rmse(b).unwrap(), 0.0);
    }
    for (a, b) in fresh.images.iter().zip(&warm.images) {
        assert_eq!(a, b, "warm cached run diverged");
        assert_eq!(a.rmse(b).unwrap(), 0.0);
    }
    let stats = caches.stats();
    assert_eq!(stats.staging_misses, 1);
    assert_eq!(stats.staging_hits, 1);
}

#[test]
fn campaign_matches_sequential_execution_exactly() {
    // 3 algorithms x 2 ratios, run concurrently on a deliberately small
    // scheduler so admission actually interleaves points. Every image must
    // equal its sequentially-produced counterpart bit-for-bit, in input
    // order.
    let specs = Sweep::over(base("determinism"))
        .algorithms(&Algorithm::particle_algorithms())
        .sampling_ratios(&[1.0, 0.5])
        .specs()
        .unwrap();
    let sequential: Vec<_> = specs.iter().map(|s| run_native(s).unwrap()).collect();
    let out = Campaign::with_capacity(3).execute(&specs, &RunCaches::new(), None, None).unwrap();
    assert_eq!(out.failures(), 0);
    assert_eq!(out.results.len(), sequential.len());
    for (i, (seq, par)) in sequential.iter().zip(out.outcomes()).enumerate() {
        assert_eq!(seq.spec.name, par.spec.name, "result order scrambled");
        assert_eq!(seq.images, par.images, "point {i} diverged under concurrency");
    }
}

#[test]
fn campaign_runs_are_repeatable() {
    let specs = Sweep::over(base("repeat"))
        .sampling_ratios(&[1.0, 0.25])
        .specs()
        .unwrap();
    let a = Campaign::with_capacity(2).execute(&specs, &RunCaches::new(), None, None).unwrap();
    let b = Campaign::with_capacity(8).execute(&specs, &RunCaches::new(), None, None).unwrap();
    assert_eq!(a.failures() + b.failures(), 0);
    for (x, y) in a.outcomes().zip(b.outcomes()) {
        assert_eq!(x.images, y.images, "capacity changed the output");
    }
}

#[test]
fn staging_hit_rate_meets_campaign_floor() {
    // n points over one dataset must stage exactly once: hit rate
    // (n-1)/n, the acceptance floor for the campaign engine.
    let specs = Sweep::over(base("hit-rate"))
        .algorithms(&Algorithm::particle_algorithms())
        .sampling_ratios(&[1.0, 0.75, 0.5, 0.25])
        .specs()
        .unwrap();
    let n = specs.len();
    assert_eq!(n, 12);
    let out = Campaign::new().execute(&specs, &RunCaches::new(), None, None).unwrap();
    assert_eq!(out.failures(), 0);
    assert_eq!(out.cache.staging_misses, 1);
    assert_eq!(out.cache.staging_hits, (n - 1) as u64);
    assert!(out.cache.staging_hit_rate() >= (n - 1) as f64 / n as f64);
}

#[test]
fn campaign_admits_mixed_couplings() {
    // Points wider than the scheduler (intercore = 2x ranks) clamp and
    // still run; results stay in input order and match solo runs.
    let mut intercore = base("mixed");
    intercore.coupling = Coupling::Intercore;
    let tight = base("mixed");
    let specs = vec![intercore.clone(), tight.clone()];
    let out = Campaign::with_capacity(2).execute(&specs, &RunCaches::new(), None, None).unwrap();
    assert_eq!(out.failures(), 0);
    let solo_a = run_native(&intercore).unwrap();
    let solo_b = run_native(&tight).unwrap();
    let got: Vec<_> = out.outcomes().collect();
    assert_eq!(got[0].images, solo_a.images);
    assert_eq!(got[1].images, solo_b.images);
}
