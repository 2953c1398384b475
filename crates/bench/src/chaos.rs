//! `reproduce chaos-campaign` — a deterministic lossy campaign run to
//! completion under the retry/quarantine policy.
//!
//! Every point renders behind a seeded lossy [`FaultPlan`] (drops and
//! payload corruption on the data path, bounded by a receive deadline), so
//! the harness exercises its degraded paths for real. On top of that, a
//! seeded transient-failure schedule injects timeouts at the campaign
//! boundary through a runner wrapped around [`run_attempt`] (see
//! [`Campaign::execute`]) — the knob that lets recovery
//! policy itself be swept as a design axis: some points succeed first
//! try, some need retries (with jittered backoff against fresh fault
//! seeds), and points whose schedule outlasts `max_attempts` are
//! quarantined while the campaign proceeds.
//!
//! Everything is derived from one seed: same seed ⇒ same attempt counts,
//! same quarantine set, same degradation counters, results in input order.

use eth_core::config::{Application, Coupling, ExperimentSpec};
use eth_core::harness::RunCaches;
use eth_core::results::ResultTable;
use eth_core::{run_attempt, Algorithm, Campaign, CampaignOutcome, CoreError, Result};
use eth_core::{RecoveryPolicy, RetryOn, RetryPolicy};
use eth_transport::fault::SplitMix64;
use eth_transport::{BackoffShape, FaultPlan, HeartbeatPolicy, TransportError};
use std::time::Duration;

/// The demo's point grid: three algorithms × two sampling ratios.
const ALGORITHMS: [Algorithm; 3] = [
    Algorithm::RaycastSpheres,
    Algorithm::GaussianSplat,
    Algorithm::VtkPoints,
];
const RATIOS: [f64; 2] = [0.5, 0.25];

/// Attempts per point, including the first (the ISSUE's acceptance
/// policy: `RetryPolicy { max_attempts: 3 }`).
pub const MAX_ATTEMPTS: u32 = 3;

/// How many injected transient failures point `index` faces under `seed`
/// (0..=3). A point with 3 planned failures outlasts the retry budget and
/// must end up quarantined.
fn planned_failures(seed: u64, index: usize) -> u32 {
    let mut rng = SplitMix64::new(
        seed.wrapping_add(0xA076_1D64_78BD_642F)
            .wrapping_add((index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
    );
    (rng.next_u64() % 4) as u32
}

fn specs(seed: u64) -> Result<Vec<ExperimentSpec>> {
    let mut out = Vec::new();
    for (a, alg) in ALGORITHMS.into_iter().enumerate() {
        for (r, ratio) in RATIOS.into_iter().enumerate() {
            let index = (a * RATIOS.len() + r) as u64;
            let plan = FaultPlan::seeded(seed ^ (index + 1).wrapping_mul(0x2545_F491_4F6C_DD1D))
                .with_drop(0.25)
                .with_corrupt(0.25)
                .with_recv_deadline_ms(100);
            out.push(
                ExperimentSpec::builder(&format!("chaos-{}-{ratio}", alg.name()))
                    .application(Application::Hacc { particles: 4_000 })
                    .algorithm(alg)
                    .coupling(Coupling::Intercore)
                    .ranks(2)
                    .image_size(64, 64)
                    .sampling_ratio(ratio)
                    .fault_plan(plan)
                    .build()?,
            );
        }
    }
    Ok(out)
}

/// Run the chaos campaign. Returns the per-point report table plus the
/// raw [`CampaignOutcome`] (attempt counts, quarantine set, cache stats).
pub fn chaos_campaign(seed: u64) -> Result<(ResultTable, CampaignOutcome)> {
    chaos_campaign_over(seed, &RunCaches::new())
}

fn chaos_campaign_over(seed: u64, caches: &RunCaches) -> Result<(ResultTable, CampaignOutcome)> {
    let specs = specs(seed)?;
    let policy = RetryPolicy {
        max_attempts: MAX_ATTEMPTS,
        // short backoff: this is a demo, not a production outage
        backoff: BackoffShape {
            base_ms: 1,
            cap_ms: 8,
        },
        retry_on: vec![
            RetryOn::Timeout,
            RetryOn::Disconnect,
            RetryOn::Panic,
            RetryOn::Corrupt,
        ],
    };
    let flaky = |index: usize, spec: &ExperimentSpec, attempt: u32, caches: &RunCaches| {
        if attempt <= planned_failures(seed, index) {
            return Err(CoreError::Transport(TransportError::Timeout {
                peer: 0,
                elapsed: Duration::from_millis(1),
            }));
        }
        run_attempt(spec, attempt, caches)
    };
    let outcome = Campaign::new()
        .with_retry_policy(policy)
        .execute(&specs, caches, None, Some(&flaky))?;

    let mut t = ResultTable::new(
        &format!("Chaos campaign (seed {seed}, lossy plan, max {MAX_ATTEMPTS} attempts)"),
        &[
            "Point",
            "Attempts",
            "Outcome",
            "Dropped Steps",
            "Corrupt Payloads",
        ],
    );
    for (i, result) in outcome.results.iter().enumerate() {
        let (status, dropped, corrupt) = match result {
            Ok(native) => (
                "ok".to_string(),
                native.degradation.dropped_steps.to_string(),
                native.degradation.corrupt_payloads.to_string(),
            ),
            Err(e @ CoreError::Quarantined { .. }) => {
                (format!("quarantined ({e})"), "-".into(), "-".into())
            }
            Err(e) => (format!("failed ({e})"), "-".into(), "-".into()),
        };
        t.push_row(vec![
            specs[i].name.clone(),
            outcome.attempts[i].to_string(),
            status,
            dropped,
            corrupt,
        ]);
    }
    Ok((t, outcome))
}

/// A fast-detection recovery policy for the kill demo (production default
/// intervals would dominate a CI-sized run).
fn demo_recovery() -> RecoveryPolicy {
    RecoveryPolicy {
        heartbeat: HeartbeatPolicy {
            interval_ms: 10,
            miss_budget: 3,
        },
        adopt: true,
    }
}

/// The kill-rank campaign's points: one per algorithm, alternating the
/// coupling between intercore and internode, each with a seeded
/// `kill_rank_at_step` on a simulation rank. Everything derives from
/// `seed`: same seed ⇒ same victims, same kill steps, same outcome.
fn kill_specs(seed: u64) -> Result<Vec<ExperimentSpec>> {
    let ranks = 2usize;
    let steps = 3usize;
    let mut out = Vec::new();
    for (i, alg) in ALGORITHMS.into_iter().enumerate() {
        let mut rng = SplitMix64::new(
            seed.wrapping_add((i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        );
        let victim = (rng.next_u64() % ranks as u64) as usize;
        let step = (rng.next_u64() % steps as u64) as usize;
        let coupling = if i % 2 == 0 {
            Coupling::Intercore
        } else {
            Coupling::Internode
        };
        out.push(
            ExperimentSpec::builder(&format!("kill-{}", alg.name()))
                .application(Application::Hacc { particles: 4_000 })
                .algorithm(alg)
                .coupling(coupling)
                .ranks(ranks)
                .steps(steps)
                .image_size(64, 64)
                .recovery(demo_recovery())
                .fault_plan(FaultPlan::seeded(seed).with_kill_rank_at_step(victim, step))
                .build()?,
        );
    }
    Ok(out)
}

/// Run the kill-rank campaign: every point loses one simulation rank
/// mid-run to a seeded `kill_rank_at_step` and must complete **without a
/// campaign-level retry** — the in-run fault-tolerance layer detects the
/// death by heartbeat, a surviving rank adopts the partition (its own proxy
/// presents it from the series), and compositing continues around the hole. Returns the
/// per-point report (losses, adoptions, detection-to-adoption latency)
/// plus the raw outcome.
pub fn kill_campaign(seed: u64) -> Result<(ResultTable, CampaignOutcome)> {
    let specs = kill_specs(seed)?;
    let caches = RunCaches::new();
    // No retry policy on purpose: a retried point would mask a recovery
    // failure. Every point must succeed on attempt 1.
    let outcome = Campaign::new().run_with(&specs, &caches);

    let mut t = ResultTable::new(
        &format!("Kill-rank campaign (seed {seed}, single-rank kill per point, no retries)"),
        &[
            "Point",
            "Coupling",
            "Outcome",
            "Rank Losses",
            "Adopted",
            "Recovery Latency",
        ],
    );
    for (i, result) in outcome.results.iter().enumerate() {
        let (status, losses, adopted, latency) = match result {
            Ok(native) => (
                "ok".to_string(),
                native.degradation.rank_losses.to_string(),
                native.degradation.adopted_partitions.to_string(),
                native
                    .recovery_latency_s
                    .first()
                    .map(|s| format!("{:.0} ms", s * 1e3))
                    .unwrap_or_else(|| "-".into()),
            ),
            Err(e) => (format!("failed ({e})"), "-".into(), "-".into(), "-".into()),
        };
        t.push_row(vec![
            specs[i].name.clone(),
            format!("{:?}", specs[i].coupling).to_lowercase(),
            status,
            losses,
            adopted,
            latency,
        ]);
    }
    Ok((t, outcome))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kill_campaign_recovers_every_point_on_the_first_attempt() {
        let (table, outcome) = kill_campaign(7).unwrap();
        assert!(outcome.quarantined.is_empty());
        assert!(outcome.attempts.iter().all(|&a| a == 1), "{:?}", outcome.attempts);
        for result in &outcome.results {
            let native = result.as_ref().expect("kill point must complete in-run");
            assert_eq!(native.degradation.rank_losses, 1);
            assert_eq!(native.degradation.adopted_partitions, 1);
            assert!(!native.images.is_empty());
        }
        assert_eq!(outcome.degraded().len(), outcome.results.len());
        // the campaign-wide telemetry carries the latency histogram
        let view = outcome.telemetry.deterministic_view();
        assert!(
            view.contains(&("recovery_latency_s/count".to_string(), 3)),
            "{view:?}"
        );
        assert!(table.to_markdown().contains("kill-"));

        // seeded: a second run reports the identical table
        let (again, _) = kill_campaign(7).unwrap();
        let strip_latency = |md: &str| {
            md.lines()
                .map(|l| {
                    let mut cells: Vec<&str> = l.split('|').collect();
                    if cells.len() > 2 {
                        cells.truncate(cells.len() - 2);
                    }
                    cells.join("|")
                })
                .collect::<Vec<_>>()
        };
        // latency cells are wall-clock; everything else must reproduce
        assert_eq!(
            strip_latency(&table.to_markdown()),
            strip_latency(&again.to_markdown())
        );
    }

    #[test]
    fn chaos_campaign_is_deterministic_and_exercises_retry_and_quarantine() {
        let caches = RunCaches::new();
        let (t1, o1) = chaos_campaign_over(7, &caches).unwrap();
        let (t2, o2) = chaos_campaign(7).unwrap();
        assert_eq!(o1.attempts, o2.attempts, "attempt counts must be seeded");
        assert_eq!(o1.quarantined, o2.quarantined, "quarantine set must be seeded");
        assert_eq!(t1.to_markdown(), t2.to_markdown(), "report must be seeded");

        // the schedule for seed 7 must show all three behaviours
        assert!(
            o1.attempts.contains(&1),
            "some point should succeed first try: {:?}",
            o1.attempts
        );
        assert!(
            o1.attempts
                .iter()
                .enumerate()
                .any(|(i, &a)| a > 1 && !o1.quarantined.contains(&i)),
            "some point should recover via retry: {:?}",
            o1.attempts
        );
        assert!(!o1.quarantined.is_empty(), "some point should quarantine");

        // the runner staged through the campaign's caches, and the outcome
        // says so (it used to report all-zero cache counters)
        assert_eq!(o1.cache, caches.stats());
        assert!(o1.cache.staging_misses >= 1, "{:?}", o1.cache);
        assert_eq!(
            o1.telemetry.counters.get("cache_staging_hit_rate"),
            o1.cache.staging_hit_rate()
        );

        // quarantined slots carry the structured error; everything else
        // rendered despite the lossy plan
        for (i, r) in o1.results.iter().enumerate() {
            match r {
                Ok(native) => assert!(!native.images.is_empty()),
                Err(CoreError::Quarantined { attempts, .. }) => {
                    assert!(o1.quarantined.contains(&i));
                    assert_eq!(*attempts, MAX_ATTEMPTS);
                }
                Err(other) => panic!("unexpected failure class: {other}"),
            }
        }
    }
}
