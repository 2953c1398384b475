//! `reproduce trace-analyze` — the saved-trace critical-path printer.

use crate::cli::die;
use eth_obs::CriticalPathSummary;
use serde::Deserialize;
use std::path::Path;

/// `trace-analyze FILE [--top N]`: read a trace `--trace` exported and
/// print the per-step critical-path attribution it embeds
/// (`ethCriticalPath`). The export omits that block only when the trace
/// has no step marks, and then there is no path to print.
pub fn analyze(path: &Path, top: usize) {
    let file = path.display();
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| die(1, format!("failed to read {file}: {e}")));
    let value = serde_json::parse_value_complete(&text)
        .unwrap_or_else(|e| die(1, format!("{file} is not valid JSON: {e}")));
    let block = value
        .as_object()
        .and_then(|root| serde::field(root, "ethCriticalPath"))
        .unwrap_or_else(|| {
            die(
                1,
                format!(
                    "{file}: no critical path in the trace (it has no step marks); record \
                     with --trace on a run that composites at least one step"
                ),
            )
        });
    let summary = CriticalPathSummary::deserialize_value(block)
        .unwrap_or_else(|e| die(1, format!("{file}: unreadable ethCriticalPath: {e}")));
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
