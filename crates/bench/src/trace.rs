//! `reproduce trace-smoke` / `reproduce trace-analyze` — the causal-
//! tracing CI gate and the saved-trace critical-path printer.

use crate::cli::die;
use crate::progress::Progress;
use crate::say;
use std::path::Path;

/// `trace-smoke`: run one 4-rank internode point and hold the
/// causal-tracing invariants: flows all pair, nothing dangles, the
/// critical-path walk explains ≥90% of every step's wall time, and the
/// images are byte-identical to a second (differently-recorded) run.
/// CI runs this with `--trace FILE` and validates the stitched JSON too.
pub fn smoke(progress: &Progress) {
    use eth_core::{run_native, Application, Coupling, ExperimentSpec};
    progress.begin("trace-smoke");
    let spec = ExperimentSpec::builder("trace-smoke")
        .application(Application::Hacc { particles: 4_000 })
        .coupling(Coupling::Internode)
        .ranks(4)
        // Asymmetric layout: four sim ranks stream to one viz rank. The
        // CI box may have a single core, and every extra runnable thread
        // turns scheduler wait into honest-but-unattributable idle in the
        // critical-path walk; this shape keeps real cross-node flows while
        // staying close to serial execution.
        .viz_ranks(1)
        .steps(3)
        .image_size(64, 64)
        .build()
        .expect("trace-smoke spec validates");
    let outcome = run_native(&spec).unwrap_or_else(|e| die(1, format!("trace-smoke run failed: {e}")));
    let Some(cp) = &outcome.critical_path else {
        die(1, "trace-smoke: run produced no critical-path summary");
    };
    if cp.steps != spec.steps as u64 {
        die(1, format!("trace-smoke: walked {} step windows, expected {}", cp.steps, spec.steps));
    }
    if cp.dangling_flows != 0 {
        die(1, format!("trace-smoke: {} dangling flows in a clean run", cp.dangling_flows));
    }
    let share_sum = cp.share_sum();
    if share_sum < 0.9 {
        say!(
            "trace-smoke: critical-path shares cover {:.1}% of step wall time (< 90%)",
            share_sum * 100.0
        );
        for p in &cp.phases {
            say!("  {}: {:.6}s ({:.1}%)", p.phase, p.seconds, p.share * 100.0);
        }
        say!("  idle: {:.6}s of {:.6}s", cp.idle_s, cp.total_s);
        say!("  windows: {:?}", cp.step_s);
        if std::env::var("ETH_SMOKE_KEEP_GOING").is_err() {
            std::process::exit(1);
        }
    }
    // Tracing must not perturb the rendered output: a second run (same
    // spec, separately recorded) has to produce byte-identical images.
    // Run it on a thread with no inherited context so a `--trace` export
    // stays one clean run instead of two concatenated ones.
    let rerun = std::thread::spawn({
        let spec = spec.clone();
        move || run_native(&spec)
    });
    let again = rerun
        .join()
        .expect("rerun thread never panics")
        .unwrap_or_else(|e| die(1, format!("trace-smoke rerun failed: {e}")));
    let pngs = |o: &eth_core::NativeOutcome| o.images.iter().map(|i| i.to_png()).collect::<Vec<_>>();
    if pngs(&outcome) != pngs(&again) {
        die(1, "trace-smoke: images diverged between recorded runs");
    }
    println!(
        "trace-smoke ok: {} steps, coverage {:.1}%, shares {:.1}%, \
         {} flow pairs, 0 dangling, images byte-identical",
        cp.steps,
        cp.coverage * 100.0,
        share_sum * 100.0,
        outcome.counters.get("flow_matched"),
    );
    progress.done("trace-smoke", "complete");
}

/// `trace-analyze FILE [--top N]`: read a (stitched or plain) Chrome trace
/// JSON and print the per-step critical-path attribution. Prefers the
/// summary a stitched export embeds; a plain trace gets its flows
/// re-paired and the walk re-run here.
pub fn analyze(path: &Path, top: usize) {
    let file = path.display();
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| die(1, format!("failed to read {file}: {e}")));
    let value = serde_json::parse_value_complete(&text)
        .unwrap_or_else(|e| die(1, format!("{file} is not valid JSON: {e}")));
    let (trace, embedded) = eth_obs::trace_from_chrome(&value)
        .unwrap_or_else(|e| die(1, format!("{file} is not a Chrome trace: {e}")));
    // Plain export: re-pair the flows and walk the critical path here.
    let summary = embedded
        .or_else(|| eth_obs::MergedTrace::build(trace).critical_path)
        .unwrap_or_else(|| {
            die(1, format!(
                "{file}: no step marks in the trace; record with --trace on a run \
                 that composites at least one step"
            ))
        });
    println!(
        "critical path over {} steps ({:.3}s total, coverage {:.1}%{}):",
        summary.steps,
        summary.total_s,
        summary.coverage * 100.0,
        if summary.dangling_flows > 0 {
            format!(", {} dangling flows", summary.dangling_flows)
        } else {
            String::new()
        }
    );
    println!("| phase | seconds | share |");
    println!("|---|---|---|");
    for p in summary.phases.iter().take(top) {
        println!("| {} | {:.6} | {:.1}% |", p.phase, p.seconds, p.share * 100.0);
    }
    if summary.idle_s > 0.0 {
        println!("| (idle) | {:.6} | {:.1}% |", summary.idle_s, (1.0 - summary.coverage) * 100.0);
    }
    println!();
    println!("bounding ranks (heaviest first):");
    for r in summary.bounding_ranks.iter().take(top) {
        let rank = if r.rank == eth_obs::NO_RANK {
            "harness".to_string()
        } else {
            format!("rank {}", r.rank)
        };
        println!("  {rank}: bounded {} steps, {:.6}s on the path", r.steps_bounded, r.seconds);
    }
}
