//! The contracts `reproduce`'s campaign and benchmark subcommands hold,
//! asserted on what their library entries return: chaos determinism,
//! in-run rank recovery, zero-loss migration, the pressure bench,
//! and the Prometheus lines their telemetry exports.

use eth_bench::cli::Report;
use eth_bench::{chaos, migrate, pressure};

/// `reproduce chaos-campaign --seed 7`: the table is a function of the
/// seed, and the seed's schedule quarantines a point.
#[test]
fn chaos_campaign_is_seeded_and_quarantines() {
    let (a, _) = chaos::chaos_campaign(7).expect("first run");
    let (b, _) = chaos::chaos_campaign(7).expect("second run");
    assert_eq!(a.to_markdown(), b.to_markdown());
    assert!(
        a.to_markdown().contains("quarantined"),
        "{}",
        a.to_markdown()
    );
}

/// `reproduce chaos-campaign --kill-rank`: every point survives exactly
/// its scripted rank loss on the first attempt, and the telemetry export
/// carries the recovery counters, each once, and the latency histogram.
#[test]
fn kill_rank_campaign_recovers_in_run_and_exports_recovery() {
    let (_, outcome) = chaos::kill_campaign(7).expect("kill campaign");
    for result in &outcome.results {
        let native = result.as_ref().expect("every point completes in-run");
        assert_eq!(native.degradation.rank_losses, 1);
    }
    assert!(
        outcome.attempts.iter().all(|&a| a == 1),
        "{:?}",
        outcome.attempts
    );
    assert!(outcome.quarantined.is_empty(), "{:?}", outcome.quarantined);
    let prom = outcome.telemetry.to_prometheus();
    for line in [
        "eth_campaign_recovery_rank_losses_total 3",
        "TYPE eth_campaign_recovery_latency_s histogram",
    ] {
        assert!(prom.contains(line), "missing {line:?} in\n{prom}");
    }
    // each recovery fact under one exported name; an adoption is a loss
    for bare in [
        "eth_campaign_rank_losses ",
        "eth_campaign_adopted_partitions ",
        "eth_campaign_adopt_notices ",
        "eth_campaign_recovery_adopted_partitions_total",
    ] {
        assert!(!prom.contains(bare), "duplicate {bare:?} in\n{prom}");
    }
    assert!(outcome
        .telemetry
        .to_jsonl()
        .contains("\"recovery_latency_s\""));
}

/// `reproduce migrate --smoke`: every schedule keeps the images
/// byte-identical and commits handoffs, and the campaign telemetry shows
/// them with no failure.
#[test]
fn migration_smoke_is_zero_loss() {
    let (report, telemetry) =
        migrate::run_migration_bench(migrate::SMOKE_SAMPLES).expect("migration bench");
    report.check().unwrap();
    assert_eq!(report.patterns.len(), 5);
    assert!(
        report.patterns.iter().all(|p| p.migrations_total > 0),
        "{:?}",
        report.patterns
    );
    let prom = telemetry.to_prometheus();
    let migrations = prom
        .lines()
        .find_map(|l| l.strip_prefix("eth_campaign_recovery_migrations_total "))
        .and_then(|v| v.parse::<f64>().ok());
    assert!(migrations.is_some_and(|n| n >= 1.0), "{prom}");
    assert!(
        prom.contains("eth_campaign_recovery_migration_failures_total 0"),
        "{prom}"
    );
    assert!(
        prom.contains("TYPE eth_campaign_migration_disruption_s histogram"),
        "{prom}"
    );
}

/// `reproduce pressure-bench --quick`: bounded memory, a real spill, a
/// shrinking quantizing codec and a lossless codec that changes nothing.
/// Its chaos section is `pressure_chaos(11)`, what `reproduce
/// pressure-chaos` runs: torn ENOSPC writes recover with identical images,
/// failed staging allocations quarantine as OutOfMemory, and a resume
/// restores every other point. (One test, not two: both calls would share
/// the seed's journal directory in one process.)
#[test]
fn pressure_bench_quick_holds_its_contract() {
    let r = pressure::run_pressure_bench(true).expect("pressure bench");
    r.check().unwrap();
    assert_eq!(r.schema, pressure::SCHEMA);
    assert!(r.quick && r.images_byte_identical);
    assert!(r.spilled_bytes_total > 0);
    assert!(r.peak_resident_bytes <= r.memory_budget_bytes);
    assert!(r.staging_mb_per_sec > 0.0);
    assert!(r.wire_compressed_bytes < r.wire_raw_bytes);
    assert!(r.wire_lossless_byte_identical);
    let c = &r.chaos;
    assert_eq!(c.seed, 11);
    c.check().unwrap();
    assert_eq!(c.first_try + c.recovered + c.quarantined, c.points);
    assert!(c.oom_classified && c.recovered_byte_identical);
    assert_eq!(c.resume_restored, c.points - c.quarantined);
}
