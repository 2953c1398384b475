//! Campaign telemetry: the flight recorder's aggregate view of one
//! campaign, exportable as Prometheus text and JSONL.
//!
//! A [`crate::sweep::Campaign`] drains every span its points recorded
//! (queue waits, backoff sleeps, journal fsyncs, cache lookups, staging
//! passes, encode/recv work) into one [`CounterSet`]: latency-class spans
//! become log-bucket [`Histogram`]s with p50/p95/max, everything else
//! becomes scalar counters (attempts, retries, quarantines, restored
//! points, degradation totals, per-phase busy seconds). The set is
//! deterministic for a seeded campaign up to the timing-valued entries —
//! the telemetry determinism test compares exactly the count-valued
//! subset.

use crate::harness::CacheStats;
use crate::sweep::PointResult;
use eth_cluster::counters::CounterSet;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// Aggregate telemetry of one campaign run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct CampaignTelemetry {
    /// Scalar counters and latency/throughput histograms, keyed by
    /// metric name (see module docs for the vocabulary).
    pub counters: CounterSet,
}

/// Histogram metrics distilled from the campaign's span trace: phases
/// whose *distribution* matters (tail latency), plus encode throughput.
const SPAN_HISTOGRAMS: &[(eth_obs::Phase, &str)] = &[
    (eth_obs::Phase::QueueWait, "queue_wait_s"),
    (eth_obs::Phase::Backoff, "backoff_s"),
    (eth_obs::Phase::JournalAppend, "journal_append_s"),
    (eth_obs::Phase::CacheLookup, "cache_lookup_s"),
    (eth_obs::Phase::Stage, "stage_s"),
    (eth_obs::Phase::Recv, "recv_s"),
    (eth_obs::Phase::Recovery, "recovery_span_s"),
];

impl CampaignTelemetry {
    /// Build the telemetry set from a finished campaign's drained trace
    /// and bookkeeping. `results`/`attempts` are in input order;
    /// `quarantined`/`restored` are index lists.
    pub fn from_campaign(
        trace: &eth_obs::Trace,
        results: &[PointResult],
        attempts: &[u32],
        quarantined: &[usize],
        restored: &[usize],
        cache: &CacheStats,
    ) -> CampaignTelemetry {
        let mut c = CounterSet::new();

        // Scheduler and recovery scalars.
        let ok = results.iter().filter(|r| r.is_ok()).count();
        c.set("points_total", results.len() as f64);
        c.set("points_ok", ok as f64);
        c.set("points_failed", (results.len() - ok) as f64);
        c.set("points_quarantined", quarantined.len() as f64);
        c.set("points_restored", restored.len() as f64);
        let total_attempts: u64 = attempts.iter().map(|&a| a as u64).sum();
        c.set("attempts_total", total_attempts as f64);
        c.set(
            "retries_total",
            total_attempts.saturating_sub(attempts.len() as u64) as f64,
        );
        c.set("cache_staging_hit_rate", cache.staging_hit_rate());

        // Degradation absorbed by the points that completed.
        for outcome in results.iter().filter_map(|r| r.as_ref().ok()) {
            let d = &outcome.degradation;
            c.add("degradation_dropped_steps", d.dropped_steps as f64);
            c.add("degradation_degraded_steps", d.degraded_steps as f64);
            c.add("degradation_timeouts", d.timeouts as f64);
            c.add("degradation_disconnects", d.disconnects as f64);
            c.add("degradation_corrupt_payloads", d.corrupt_payloads as f64);
            // In-run fault tolerance: losses survived (each one a partition
            // adopted), frames composited around a hole, and the
            // declaration-to-adoption latency distribution (the recovery SLO).
            c.add("recovery_rank_losses_total", d.rank_losses as f64);
            c.add(
                "recovery_missing_contributions_total",
                d.missing_contributions as f64,
            );
            for &latency in &outcome.recovery_latency_s {
                c.observe("recovery_latency_s", latency);
            }
            // Elasticity: planned handoffs that committed vs degraded to
            // "no migration happened", and the per-handoff disruption the
            // source rank observed (its handshake stall — the migration
            // SLO: frames keep flowing while partitions move).
            c.add("recovery_migrations_total", d.migrations as f64);
            c.add(
                "recovery_migration_failures_total",
                d.migration_failures as f64,
            );
            for &stall in &outcome.migration_disruption_s {
                c.observe("migration_disruption_s", stall);
            }
        }

        // Critical-path attribution: which phases bounded each step's
        // latency, aggregated across every completed point. Shares are
        // seconds-on-the-path over total step wall time, so the gauges
        // sum to the campaign's flow-stitched coverage.
        let mut cp_total = 0.0;
        let mut cp_phase: std::collections::BTreeMap<&str, f64> = Default::default();
        for outcome in results.iter().filter_map(|r| r.as_ref().ok()) {
            if let Some(cp) = &outcome.critical_path {
                cp_total += cp.total_s;
                for p in &cp.phases {
                    *cp_phase.entry(p.phase.as_str()).or_default() += p.seconds;
                }
                for &step_s in &cp.step_s {
                    c.observe("step_critical_path_s", step_s);
                }
                if cp.dangling_flows > 0 {
                    c.add("flow_dangling", cp.dangling_flows as f64);
                }
            }
        }
        if cp_total > 0.0 {
            for (phase, seconds) in &cp_phase {
                c.set(
                    &format!("critical_path_share_{phase}"),
                    seconds / cp_total,
                );
            }
        }

        // Event counters recorded anywhere under the campaign (cache
        // hits/misses, proxy skipped steps, ...).
        for (name, value) in trace.counts() {
            c.add(name, value);
        }

        // Per-phase busy totals across every rank of every point.
        for t in trace.phase_totals() {
            if t.spans == 0 {
                continue;
            }
            c.add(&format!("phase_{}_busy_s", t.phase.name()), t.busy_s);
            c.add(&format!("phase_{}_spans", t.phase.name()), t.spans as f64);
        }

        // Latency histograms, straight from the span durations.
        for s in trace.spans() {
            let dur_s = s.dur_ns as f64 * 1e-9;
            for &(phase, name) in SPAN_HISTOGRAMS {
                if s.phase == phase {
                    c.observe(name, dur_s);
                }
            }
            // Encode throughput: spans that carry a byte payload rate it.
            if s.phase == eth_obs::Phase::Encode && s.bytes > 0 && s.dur_ns > 0 {
                c.observe("encode_throughput_mb_per_s", s.bytes as f64 / 1e6 / dur_s);
            }
        }

        CampaignTelemetry { counters: c }
    }

    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }

    /// Render as Prometheus text exposition format (version 0.0.4):
    /// scalars as gauges, histograms with cumulative `_bucket{le=...}`
    /// series plus `_sum`/`_count`, all under the `eth_campaign_` prefix.
    pub fn to_prometheus(&self) -> String {
        counters_to_prometheus("eth_campaign_", &self.counters)
    }

    /// Render as JSONL: one self-describing object per metric, with
    /// histogram lines carrying the p50/p95/max summary alongside the
    /// count and sum.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (name, value) in self.counters.iter() {
            let line = ScalarLine {
                kind: "counter".to_string(),
                name: name.to_string(),
                value,
            };
            if let Ok(json) = serde_json::to_string(&line) {
                out.push_str(&json);
                out.push('\n');
            }
        }
        for (name, h) in self.counters.histograms() {
            let line = HistogramLine {
                kind: "histogram".to_string(),
                name: name.to_string(),
                count: h.count(),
                sum: h.sum(),
                p50: h.p50(),
                p95: h.p95(),
                max: h.max_value(),
            };
            if let Ok(json) = serde_json::to_string(&line) {
                out.push_str(&json);
                out.push('\n');
            }
        }
        out
    }

    /// The deterministic (count-valued) subset of the telemetry: metric
    /// names with scalar event/point counts and histogram observation
    /// counts, but no wall-clock-valued entries. Two runs of the same
    /// seeded campaign must agree exactly on this view.
    pub fn deterministic_view(&self) -> Vec<(String, u64)> {
        let mut out = Vec::new();
        for (name, value) in self.counters.iter() {
            if is_timing_metric(name) || is_pressure_metric(name) {
                continue;
            }
            out.push((name.to_string(), value.round() as u64));
        }
        for (name, h) in self.counters.histograms() {
            out.push((format!("{name}/count"), h.count()));
        }
        out
    }
}

/// Timing-valued scalars (suffix convention, and critical-path shares,
/// which are ratios of times) are excluded from the deterministic view;
/// everything else counts events and must reproduce.
fn is_timing_metric(name: &str) -> bool {
    name.ends_with("_s")
        || name.ends_with("_rate")
        || name.ends_with("_per_s")
        || name.starts_with("critical_path_")
}

/// Resource-pressure gauges depend on the concurrent schedule, not the
/// spec: how many admissions stalled at the backpressure gate, and what
/// the journal's quota accountant read when each point finished, both
/// vary with which points were in flight together. The per-spec staging
/// accountants (`staging_resident_bytes`, `spilled_bytes_total`, wire
/// byte counters) are pure functions of the spec and stay in the
/// deterministic view.
fn is_pressure_metric(name: &str) -> bool {
    matches!(name, "backpressure_stalls" | "journal_quota_used")
}

/// Render any [`CounterSet`] as Prometheus text under `prefix` (the
/// campaign export uses `eth_campaign_`; the serve layer's service
/// metrics use `eth_serve_` through the same formatter, so `/metrics` is
/// one consistent exposition).
pub fn counters_to_prometheus(prefix: &str, counters: &CounterSet) -> String {
    let mut out = String::new();
    for (name, value) in counters.iter() {
        let metric = metric_name(prefix, name);
        let _ = writeln!(out, "# HELP {metric} Scalar counter {name}.");
        let _ = writeln!(out, "# TYPE {metric} gauge");
        let _ = writeln!(out, "{metric} {}", fmt_sample(value));
    }
    for (name, h) in counters.histograms() {
        let metric = metric_name(prefix, name);
        let _ = writeln!(out, "# HELP {metric} Log-bucket histogram {name}.");
        let _ = writeln!(out, "# TYPE {metric} histogram");
        for (upper, cumulative) in h.cumulative_buckets() {
            let _ = writeln!(
                out,
                "{metric}_bucket{{le=\"{}\"}} {cumulative}",
                escape_label_value(&fmt_sample(upper))
            );
        }
        let _ = writeln!(out, "{metric}_bucket{{le=\"+Inf\"}} {}", h.count());
        let _ = writeln!(out, "{metric}_sum {}", fmt_sample(h.sum()));
        let _ = writeln!(out, "{metric}_count {}", h.count());
    }
    out
}

/// Escape a label value per the exposition format: backslash, double
/// quote, and newline must be backslash-escaped inside the quotes.
pub fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for ch in value.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(ch),
        }
    }
    out
}

/// Prometheus-legal metric name under a namespace prefix.
fn metric_name(prefix: &str, name: &str) -> String {
    let mut out = String::with_capacity(name.len() + prefix.len());
    out.push_str(prefix);
    for ch in name.chars() {
        out.push(if ch.is_ascii_alphanumeric() { ch } else { '_' });
    }
    out
}

/// A float in a form the exposition parser accepts (no NaN/inf surprises:
/// non-finite samples become 0, which cannot occur from our histograms).
fn fmt_sample(v: f64) -> String {
    if !v.is_finite() {
        return "0".to_string();
    }
    let mut s = format!("{v:.9}");
    while s.ends_with('0') {
        s.pop();
    }
    if s.ends_with('.') {
        s.pop();
    }
    s
}

#[derive(Serialize, Deserialize)]
struct ScalarLine {
    kind: String,
    name: String,
    value: f64,
}

#[derive(Serialize, Deserialize)]
struct HistogramLine {
    kind: String,
    name: String,
    count: u64,
    sum: f64,
    p50: f64,
    p95: f64,
    max: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_telemetry() -> CampaignTelemetry {
        let mut c = CounterSet::new();
        c.set("points_total", 4.0);
        c.set("retries_total", 1.0);
        c.add("phase_render_busy_s", 0.25);
        for v in [0.001, 0.002, 0.004, 0.1] {
            c.observe("queue_wait_s", v);
        }
        CampaignTelemetry { counters: c }
    }

    #[test]
    fn prometheus_exposition_shape() {
        let text = sample_telemetry().to_prometheus();
        assert!(text.contains("# TYPE eth_campaign_points_total gauge"));
        assert!(text.contains("eth_campaign_points_total 4"));
        assert!(text.contains("# TYPE eth_campaign_queue_wait_s histogram"));
        assert!(text.contains("eth_campaign_queue_wait_s_bucket{le=\"+Inf\"} 4"));
        assert!(text.contains("eth_campaign_queue_wait_s_count 4"));
        // every non-comment line is `name[{labels}] value`
        for line in text.lines() {
            if line.starts_with('#') || line.is_empty() {
                continue;
            }
            let (series, value) = line.rsplit_once(' ').expect("sample line");
            assert!(series.starts_with("eth_campaign_"), "{line}");
            assert!(value.parse::<f64>().is_ok(), "unparsable sample: {line}");
        }
        // bucket counts are cumulative (monotone non-decreasing)
        let mut last = 0u64;
        for line in text.lines().filter(|l| l.contains("_bucket{")) {
            let count: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(count >= last, "non-monotone bucket: {line}");
            last = count;
        }
    }

    #[test]
    fn prometheus_help_lines_precede_every_family() {
        let text = sample_telemetry().to_prometheus();
        assert!(text.contains("# HELP eth_campaign_points_total Scalar counter points_total."));
        assert!(
            text.contains("# HELP eth_campaign_queue_wait_s Log-bucket histogram queue_wait_s.")
        );
        // every # TYPE is immediately preceded by its # HELP
        let lines: Vec<&str> = text.lines().collect();
        for (i, line) in lines.iter().enumerate() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let metric = rest.split(' ').next().unwrap();
                assert!(
                    i > 0 && lines[i - 1].starts_with(&format!("# HELP {metric} ")),
                    "no HELP before: {line}"
                );
            }
        }
    }

    #[test]
    fn label_values_escape_quotes_backslashes_newlines() {
        assert_eq!(escape_label_value("plain-1.2.3"), "plain-1.2.3");
        assert_eq!(escape_label_value("a\"b"), "a\\\"b");
        assert_eq!(escape_label_value("a\\b"), "a\\\\b");
        assert_eq!(escape_label_value("a\nb"), "a\\nb");
    }

    #[test]
    fn critical_path_metrics_stay_out_of_deterministic_view() {
        let mut t = sample_telemetry();
        t.counters.set("critical_path_share_sim", 0.61);
        t.counters.add("flow_dangling", 2.0);
        for v in [0.01, 0.02] {
            t.counters.observe("step_critical_path_s", v);
        }
        let view = t.deterministic_view();
        let names: Vec<&str> = view.iter().map(|(n, _)| n.as_str()).collect();
        assert!(!names.contains(&"critical_path_share_sim"));
        // a fault is decided at the sender, so which flows stitch is a
        // count like any other
        assert!(names.contains(&"flow_dangling"));
        // the histogram's observation count still reproduces
        assert!(names.contains(&"step_critical_path_s/count"));
        let prom = t.to_prometheus();
        assert!(prom.contains("eth_campaign_critical_path_share_sim 0.61"));
        assert!(prom.contains("# TYPE eth_campaign_step_critical_path_s histogram"));
    }

    #[test]
    fn pressure_gauges_export_but_stay_out_of_deterministic_view() {
        let mut t = sample_telemetry();
        t.counters.add("backpressure_stalls", 3.0);
        t.counters.set("journal_quota_used", 8192.0);
        // Per-spec byte accountants are deterministic and must stay in.
        t.counters.set("staging_resident_bytes", 4096.0);
        t.counters.set("spilled_bytes_total", 12288.0);
        t.counters.set("wire_raw_bytes", 9000.0);
        t.counters.set("wire_compressed_bytes", 3000.0);
        let view = t.deterministic_view();
        let names: Vec<&str> = view.iter().map(|(n, _)| n.as_str()).collect();
        assert!(!names.contains(&"backpressure_stalls"));
        assert!(!names.contains(&"journal_quota_used"));
        assert!(names.contains(&"staging_resident_bytes"));
        assert!(names.contains(&"spilled_bytes_total"));
        assert!(names.contains(&"wire_raw_bytes"));
        assert!(names.contains(&"wire_compressed_bytes"));
        // ...while both still reach the Prometheus and JSONL exports.
        let prom = t.to_prometheus();
        assert!(prom.contains("eth_campaign_backpressure_stalls 3"));
        assert!(prom.contains("eth_campaign_journal_quota_used 8192"));
        assert!(t.to_jsonl().contains("backpressure_stalls"));
    }

    #[test]
    fn jsonl_lines_parse_and_cover_every_metric() {
        let t = sample_telemetry();
        let jsonl = t.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 3 + 1, "3 scalars + 1 histogram");
        let mut saw_histogram = false;
        for line in lines {
            let v = serde_json::parse_value_complete(line).expect("valid JSON");
            let obj = v.as_object().expect("object per line");
            let kind = obj
                .iter()
                .find(|(k, _)| k == "kind")
                .and_then(|(_, v)| v.as_str())
                .unwrap();
            if kind == "histogram" {
                saw_histogram = true;
                assert!(obj.iter().any(|(k, _)| k == "p95"));
            }
        }
        assert!(saw_histogram);
    }

    #[test]
    fn deterministic_view_excludes_timing_but_keeps_render_work() {
        let mut t = sample_telemetry();
        t.counters.add("rays_traced", 4096.0);
        t.counters.add("bvh_nodes", 899.0);
        for span in ["tile", "bvh_build", "render", "composite"] {
            t.counters.add(&format!("phase_{span}_spans"), 48.0);
        }
        let view = t.deterministic_view();
        let names: Vec<&str> = view.iter().map(|(n, _)| n.as_str()).collect();
        assert!(names.contains(&"points_total"));
        assert!(names.contains(&"queue_wait_s/count"));
        assert!(!names.contains(&"phase_render_busy_s"));
        // An attempt either runs whole or fails before it starts, so how
        // much it rendered is a count like any other.
        for name in [
            "rays_traced",
            "bvh_nodes",
            "phase_tile_spans",
            "phase_bvh_build_spans",
            "phase_render_spans",
            "phase_composite_spans",
        ] {
            assert!(names.contains(&name), "{name}");
        }
        assert!(t.to_prometheus().contains("eth_campaign_rays_traced 4096"));
    }

    #[test]
    fn recovery_metrics_export_as_histogram_and_gauges() {
        let mut c = CounterSet::new();
        c.add("recovery_rank_losses_total", 1.0);
        for v in [0.031, 0.044] {
            c.observe("recovery_latency_s", v);
        }
        let t = CampaignTelemetry { counters: c };
        let prom = t.to_prometheus();
        assert!(prom.contains("eth_campaign_recovery_rank_losses_total 1"));
        assert!(prom.contains("# TYPE eth_campaign_recovery_latency_s histogram"));
        assert!(prom.contains("eth_campaign_recovery_latency_s_count 2"));
        let jsonl = t.to_jsonl();
        assert!(jsonl.contains("recovery_latency_s"));
        // losses are deterministic; latency only counts
        let view = t.deterministic_view();
        assert!(view.contains(&("recovery_rank_losses_total".to_string(), 1)));
        assert!(view.contains(&("recovery_latency_s/count".to_string(), 2)));
    }

    #[test]
    fn migration_metrics_export_as_histogram_and_gauges() {
        let mut c = CounterSet::new();
        c.add("recovery_migrations_total", 3.0);
        c.add("recovery_migration_failures_total", 1.0);
        for v in [0.002, 0.004, 0.009] {
            c.observe("migration_disruption_s", v);
        }
        let t = CampaignTelemetry { counters: c };
        let prom = t.to_prometheus();
        assert!(prom.contains("eth_campaign_recovery_migrations_total 3"));
        assert!(prom.contains("eth_campaign_recovery_migration_failures_total 1"));
        assert!(prom.contains("# TYPE eth_campaign_migration_disruption_s histogram"));
        assert!(prom.contains("eth_campaign_migration_disruption_s_count 3"));
        // handoff counts are deterministic; the stall distribution only
        // contributes its observation count
        let view = t.deterministic_view();
        assert!(view.contains(&("recovery_migrations_total".to_string(), 3)));
        assert!(view.contains(&("migration_disruption_s/count".to_string(), 3)));
        assert!(!view.iter().any(|(n, _)| n == "migration_disruption_s"));
    }

    #[test]
    fn telemetry_roundtrips_through_serde() {
        let t = sample_telemetry();
        let json = serde_json::to_string(&t).unwrap();
        let back: CampaignTelemetry = serde_json::from_str(&json).unwrap();
        assert_eq!(back.counters.get("points_total"), 4.0);
        assert_eq!(back.counters.histogram("queue_wait_s").unwrap().count(), 4);
    }
}
