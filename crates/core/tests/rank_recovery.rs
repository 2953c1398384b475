//! Integration tests for the in-run rank fault-tolerance layer.
//!
//! These run against the public API only: a seeded `kill_rank_at_step`
//! fault must be survived *inside* the run — the killed rank's declared
//! death, partition adoption (the adopter re-derives the partition from the
//! series at its own step), degraded compositing — without
//! any campaign-level retry, and without ever deadlocking, whichever rank
//! dies at whichever step.

use eth_core::{
    run_native, Algorithm, Application, Campaign, Coupling, DegradedReason, ExperimentSpec,
    MigrationPattern, MigrationPlan, RunCaches,
};
use eth_transport::FaultPlan;
use std::time::{Duration, Instant};

fn spec(name: &str, coupling: Coupling, ranks: usize, steps: usize) -> ExperimentSpec {
    ExperimentSpec::builder(name)
        .application(Application::Hacc { particles: 2_000 })
        .algorithm(Algorithm::GaussianSplat)
        .coupling(coupling)
        .ranks(ranks)
        .steps(steps)
        .image_size(32, 32)
        .build()
        .unwrap()
}

fn kill_spec(
    name: &str,
    coupling: Coupling,
    ranks: usize,
    steps: usize,
    victim: usize,
    step: usize,
) -> ExperimentSpec {
    let mut s = spec(name, coupling, ranks, steps);
    s.fault_plan = Some(FaultPlan::seeded(0xDEAD).with_kill_rank_at_step(victim, step));
    s
}

/// The ISSUE's acceptance run: an internode campaign point loses one
/// simulation rank mid-run to a seeded kill and must complete on its
/// first attempt — no campaign retry — with exactly one recorded loss
/// (its partition adopted), and with every pre-kill image byte-identical
/// to the run where nobody died.
#[test]
fn internode_seeded_kill_completes_without_campaign_retry() {
    let (ranks, steps, victim, kill_at) = (2usize, 4usize, 1usize, 2usize);
    let reference = run_native(&spec("in-ref", Coupling::Internode, ranks, steps)).unwrap();

    let killed = kill_spec("in-kill", Coupling::Internode, ranks, steps, victim, kill_at);
    let caches = RunCaches::new();
    let outcome = Campaign::new()
        .execute(std::slice::from_ref(&killed), &caches, None, None)
        .unwrap();

    assert_eq!(outcome.attempts, vec![1], "recovery must happen in-run");
    assert!(outcome.quarantined.is_empty());
    let native = outcome.results[0]
        .as_ref()
        .expect("the killed point must still complete");
    assert_eq!(native.degradation.rank_losses, 1, "{:?}", native.degradation);
    assert_eq!(outcome.degraded(), vec![0]);

    // every image slot is present despite the death...
    assert_eq!(native.images.len(), reference.images.len());
    // ...and steps completed before the kill cannot have been touched
    for i in 0..kill_at * killed.images_per_step {
        assert_eq!(
            reference.images[i], native.images[i],
            "pre-kill image {i} diverged from the no-fault run"
        );
    }

    // the declaration-to-adoption latency is measured and plausible
    assert_eq!(native.recovery_latency_s.len(), 1);
    assert!(
        native.recovery_latency_s[0] > 0.0 && native.recovery_latency_s[0] < 30.0,
        "implausible recovery latency {:?}",
        native.recovery_latency_s
    );
    // and it surfaces in the campaign-wide telemetry as a histogram
    let view = outcome.telemetry.deterministic_view();
    assert!(
        view.contains(&("recovery_rank_losses_total".to_string(), 1)),
        "{view:?}"
    );
    assert!(
        view.contains(&("recovery_latency_s/count".to_string(), 1)),
        "{view:?}"
    );
}

/// Liveness: killing *any* single rank at *any* step must never deadlock
/// the run. Every combination completes — degraded, maybe, but inside a
/// wall-clock bound that a hung collective would blow immediately.
#[test]
fn any_single_rank_kill_at_any_step_never_deadlocks() {
    let (ranks, steps) = (2usize, 2usize);
    let budget = Duration::from_secs(120);
    let t0 = Instant::now();
    for coupling in [Coupling::Intercore, Coupling::Internode] {
        for victim in 0..ranks {
            for step in 0..steps {
                let name = format!("nd-{coupling:?}-{victim}-{step}").to_lowercase();
                let out = run_native(&kill_spec(&name, coupling, ranks, steps, victim, step))
                    .unwrap_or_else(|e| panic!("{name} failed: {e}"));
                assert_eq!(out.degradation.rank_losses, 1, "{name}: {:?}", out.degradation);
                assert_eq!(out.images.len(), steps * out.spec.images_per_step, "{name}");
                assert!(
                    t0.elapsed() < budget,
                    "recovery runs are taking deadlock-shaped time ({name} at {:?})",
                    t0.elapsed()
                );
            }
        }
    }
}

/// Interleaving a planned migration with a seeded kill: whichever handoff
/// the death races, the run completes in-run (no campaign retry), the
/// outcome is deterministic across repeats, and the campaign tags the
/// point with *both* degradation reasons — the involuntary rank loss and
/// the planned (here: lost-to-the-death) migration.
#[test]
fn migration_interleaved_with_kill_is_deterministic_and_tagged() {
    let (ranks, steps) = (3usize, 4usize);

    // Point 0: pure elasticity — one Sudden handoff, nobody dies.
    let mut elastic = spec("mx-elastic", Coupling::Intercore, ranks, steps);
    elastic.migration = Some(MigrationPlan::new(MigrationPattern::Sudden {
        from: 1,
        to: 2,
        at_step: 2,
    }));

    // Point 1: the same schedule racing a kill of the migrating
    // partition's simulation rank one step before the handoff — death
    // wins, the handoff degrades to "no migration happened".
    let mut raced = kill_spec("mx-raced", Coupling::Intercore, ranks, steps, 1, 1);
    raced.migration = elastic.migration;

    let run = |tag: &str| {
        let mut specs = [elastic.clone(), raced.clone()];
        for s in specs.iter_mut() {
            s.name = format!("{}-{tag}", s.name);
        }
        Campaign::new().execute(&specs, &RunCaches::new(), None, None).unwrap()
    };

    let a = run("a");
    assert_eq!(a.attempts, vec![1, 1], "both points must complete in-run");
    assert!(a.quarantined.is_empty());

    let elastic_out = a.results[0].as_ref().expect("elastic point");
    assert_eq!(elastic_out.degradation.migrations, 1, "{:?}", elastic_out.degradation);
    assert_eq!(elastic_out.degradation.rank_losses, 0);

    let raced_out = a.results[1].as_ref().expect("raced point");
    assert_eq!(raced_out.degradation.migrations, 0, "{:?}", raced_out.degradation);
    assert_eq!(raced_out.degradation.migration_failures, 1);
    assert_eq!(raced_out.degradation.rank_losses, 1);
    assert_eq!(raced_out.images.len(), steps * raced.images_per_step);

    // the campaign separates voluntary from involuntary degradation
    assert_eq!(
        a.degraded_reasons(),
        vec![
            (0, vec![DegradedReason::PlannedMigration]),
            (1, vec![DegradedReason::RankLoss, DegradedReason::PlannedMigration]),
        ]
    );
    assert_eq!(a.degraded(), vec![0, 1]);

    // seeded determinism: a second campaign resolves the race identically
    let b = run("b");
    let (ra, rb) = (
        a.results[1].as_ref().unwrap(),
        b.results[1].as_ref().unwrap(),
    );
    assert_eq!(ra.degradation, rb.degradation, "race resolution must be seeded-deterministic");
    assert_eq!(ra.images, rb.images);
}
