//! End-to-end observability acceptance: trace export under a seeded
//! campaign, telemetry determinism, and phase-attributed native metrics.

use eth_bench::{chaos, trace};
use eth_core::config::{Algorithm, Application, ExperimentSpec};
use eth_core::run_native;
use serde::{field, Value};
use std::collections::BTreeSet;

fn smoke_spec() -> ExperimentSpec {
    ExperimentSpec::builder("obs-accept")
        .application(Application::Hacc { particles: 8_000 })
        .algorithm(Algorithm::GaussianSplat)
        .ranks(2)
        .image_size(96, 96)
        .build()
        .expect("valid spec")
}

fn get<'v>(v: &'v Value, key: &str) -> &'v Value {
    field(v.as_object().expect("object"), key).unwrap_or_else(|| panic!("no {key:?}"))
}

fn num(v: &Value) -> f64 {
    match v {
        Value::U64(n) => *n as f64,
        Value::I64(n) => *n as f64,
        Value::F64(x) => *x,
        other => panic!("not a number: {other:?}"),
    }
}

/// The stitched export's books: every flow arrow has both ends,
/// `ethFlowStats` counts the arrows, and the critical-path shares plus
/// idle tile the step windows exactly. Returns the parsed export and
/// the critical path's summed share.
fn check_stitched(stitched: &str) -> (Value, f64) {
    let value = serde_json::parse_value_complete(stitched).expect("stitched JSON parses");
    let events = get(&value, "traceEvents").as_array().expect("event list");
    let flow_ids = |ph: &str| -> BTreeSet<u64> {
        let ends = events.iter().filter(|e| get(e, "ph").as_str() == Some(ph));
        ends.map(|e| num(get(e, "id")) as u64).collect()
    };
    let starts = flow_ids("s");
    assert!(!starts.is_empty(), "no flows stitched");
    assert_eq!(starts, flow_ids("f"), "half-drawn flow arrow");
    let stats = get(&value, "ethFlowStats");
    assert_eq!(num(get(stats, "matched")) as usize, starts.len());
    let cp = get(&value, "ethCriticalPath");
    let phases = get(cp, "phases").as_array().expect("phase list");
    let share: f64 = phases.iter().map(|p| num(get(p, "share"))).sum();
    let idle = num(get(cp, "idle_s")) / num(get(cp, "total_s"));
    assert!(
        (share + idle - 1.0).abs() < 1e-6,
        "shares {share} + idle {idle} != 1"
    );
    (value, share)
}

/// A seeded chaos campaign run under an attached recorder exports a
/// well-formed trace, and its telemetry renders to parseable Prometheus
/// text and JSONL. The export (what `reproduce --trace` writes) parses,
/// draws every flow arrow whole, its flow books balance, its
/// critical-path shares and idle tile the step windows, and
/// `trace-analyze` prints the path it embeds.
#[test]
fn seeded_campaign_trace_and_telemetry_export() {
    let recorder = eth_obs::Recorder::new();
    let guard = recorder.attach();
    let (_table, outcome) = chaos::chaos_campaign(7).expect("chaos campaign");
    drop(guard);
    let trace = recorder.take();

    trace.check_well_formed().expect("well-formed trace");
    assert!(trace.spans().count() > 0, "campaign must record spans");
    // The lossy plan drops messages: each is an honest dangling send.
    let stitched = eth_obs::MergedTrace::build(trace).to_chrome_trace();
    let (export, _) = check_stitched(&stitched);
    let events = get(&export, "traceEvents").as_array().expect("event list");
    let spans = events.iter().filter(|e| get(e, "ph").as_str() == Some("X"));
    assert!(spans.count() > 0, "no duration spans");
    let path = std::env::temp_dir().join(format!("eth-obs-stitched-{:x}.json", std::process::id()));
    std::fs::write(&path, &stitched).unwrap();
    trace::analyze(&path, 5);
    std::fs::remove_file(&path).unwrap();

    let t = &outcome.telemetry;
    assert!(!t.is_empty(), "campaign telemetry populated");
    assert_eq!(t.counters.get("points_total"), 6.0);
    assert!(t.counters.get("retries_total") > 0.0, "lossy plan retries");
    assert!(
        t.counters.histogram("queue_wait_s").is_some(),
        "queue-wait histogram present"
    );
    // Prometheus text: every sample line is `name[{labels}] value`.
    let prom = t.to_prometheus();
    assert!(prom.contains("eth_campaign_points_total 6"));
    for line in prom.lines().filter(|l| !l.starts_with('#') && !l.is_empty()) {
        let (_, value) = line.rsplit_once(' ').expect("sample line");
        value.parse::<f64>().unwrap_or_else(|_| panic!("bad sample: {line}"));
    }
    // JSONL: every line is a self-describing JSON object, and the
    // histograms are among them.
    let mut histograms = 0;
    for line in t.to_jsonl().lines() {
        let metric = serde_json::parse_value_complete(line).expect("JSONL line parses");
        histograms += usize::from(get(&metric, "kind").as_str() == Some("histogram"));
    }
    assert!(histograms > 0, "no histograms");
}

/// Two runs of the same seeded campaign agree exactly on the
/// count-valued telemetry (the deterministic view).
#[test]
fn seeded_campaign_telemetry_is_deterministic() {
    let (_, a) = chaos::chaos_campaign(42).expect("first run");
    let (_, b) = chaos::chaos_campaign(42).expect("second run");
    assert_eq!(
        a.telemetry.deterministic_view(),
        b.telemetry.deterministic_view()
    );
}

/// A native run now measures itself: phase-attributed power/energy in
/// `RunMetrics`, a per-phase energy breakdown, and a populated counter
/// set — with the busy totals consistent against the makespan.
#[test]
fn native_run_metrics_are_attributed_and_nonzero() {
    let outcome = run_native(&smoke_spec()).expect("native run");
    let m = &outcome.metrics;
    assert!(m.nodes > 0, "modeled nodes");
    assert!(m.exec_time_s > 0.0, "makespan");
    assert!(m.avg_power_kw > 0.0, "sampled average power");
    assert!(m.energy_kj > 0.0, "energy");

    assert!(!outcome.phase_energy.is_empty(), "per-phase breakdown");
    for pe in &outcome.phase_energy {
        assert!(pe.spans > 0, "{}: spans", pe.phase);
        assert!(pe.busy_s >= 0.0 && pe.energy_kj >= 0.0, "{}", pe.phase);
    }
    let render = outcome
        .phase_energy
        .iter()
        .find(|pe| pe.phase == "render")
        .expect("render phase attributed");
    assert!(render.busy_s > 0.0 && render.energy_kj > 0.0);

    assert!(!outcome.counters.is_empty(), "run counters populated");
    assert!(outcome.counters.get("phase_render_busy_s") > 0.0);
    assert!(outcome.counters.get("phase_render_spans") >= 1.0);
}

/// Four simulation ranks stream to one viz rank over the internode
/// socket fabric: every flow pairs, the critical path walks every step
/// and explains at least 90 % of its wall time, and tracing does not
/// perturb the images (a second, unrecorded run renders the same bytes).
#[test]
fn four_sim_ranks_to_one_viz_rank_stitch_every_flow() {
    let spec = ExperimentSpec::builder("trace-4to1")
        .application(Application::Hacc { particles: 4_000 })
        .coupling(eth_core::Coupling::Internode)
        .ranks(4)
        .viz_ranks(1)
        .steps(3)
        .image_size(64, 64)
        .build()
        .expect("valid spec");
    let recorder = eth_obs::Recorder::new();
    let guard = recorder.attach();
    let outcome = run_native(&spec).expect("recorded run");
    drop(guard);
    let cp = outcome
        .critical_path
        .as_ref()
        .expect("critical-path summary");
    assert_eq!(cp.steps, spec.steps as u64);
    assert_eq!(cp.dangling_flows, 0);
    assert!(
        cp.share_sum() >= 0.9,
        "critical path explains only {:.1}%: {cp:?}",
        cp.share_sum() * 100.0
    );

    let trace = recorder.take();
    trace.check_well_formed().expect("well-formed trace");
    let (export, share) = check_stitched(&eth_obs::MergedTrace::build(trace).to_chrome_trace());
    let stats = get(&export, "ethFlowStats");
    assert_eq!(
        (
            num(get(stats, "danglingOut")),
            num(get(stats, "danglingIn"))
        ),
        (0.0, 0.0)
    );
    assert!(
        share >= 0.9,
        "stitched critical path explains only {:.1}%",
        share * 100.0
    );

    let again = std::thread::spawn(move || run_native(&spec))
        .join()
        .unwrap()
        .expect("second run");
    assert_eq!(outcome.images, again.images);
}
