//! `reproduce trace-analyze` — the saved-trace critical-path printer.

use crate::cli::die;
use std::path::Path;

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
