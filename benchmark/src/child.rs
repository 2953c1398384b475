//! One child process: stage, render the reference, time calls into the
//! public entry point, and report on stdout as one JSON line.

use crate::replay::trace_workload;
use crate::trace::chrome_json;
use crate::workloads::{self, Tally};
use eth_core::harness::RunCaches;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Timed calls a child makes at least, whatever its time budget.
const MIN_CALLS: usize = 2;

#[derive(Debug, Default, Serialize, Deserialize)]
pub struct ChildReport {
    /// Child start to first timed call: staging, the cold first call and
    /// the reference render.
    pub setup_s: f64,
    /// `VmHWM` at exit, MiB. Not meaningful in a traced child, whose
    /// replay holds extra copies.
    pub peak_rss_mb: f64,
    /// One sample per timed call: wall ms ÷ frames delivered.
    pub frame_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
    /// Per-layer metrics (traced child only).
    pub layers: BTreeMap<String, f64>,
    /// The per-layer table (traced child only).
    pub table: String,
}

fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[derive(Clone)]
pub struct ChildArgs {
    pub workload: String,
    pub seed: u64,
    pub quick: bool,
    /// Time budget of the timed loop (or of the traced `e2e` pairs).
    pub seconds: f64,
    pub traced: bool,
}

/// `started` is taken first thing in `main`. `out` receives the trace
/// file; `scratch` the journal and layout directories.
pub fn run(
    args: &ChildArgs,
    started: Instant,
    out: &Path,
    scratch: &Path,
) -> Result<ChildReport, String> {
    let (pid, workload) = workloads::all()
        .into_iter()
        .enumerate()
        .find(|(_, w)| w.name == args.workload)
        .ok_or_else(|| format!("unknown workload '{}'", args.workload))?;
    let specs = workload.specs(args.seed, args.quick)?;
    std::fs::create_dir_all(scratch).map_err(|e| e.to_string())?;

    let caches = RunCaches::new();
    let mut tally = Tally::default();
    let (cold, gate) = workload.set_up(&specs, &caches, scratch);
    gate.check(&specs, &cold, &mut tally);
    let mut report = ChildReport {
        setup_s: started.elapsed().as_secs_f64(),
        ..Default::default()
    };

    if args.traced {
        let traced = trace_workload(
            &workload,
            &specs,
            &gate,
            &caches,
            scratch,
            args.seconds,
            &mut tally,
        )?;
        std::fs::create_dir_all(out).map_err(|e| e.to_string())?;
        let path = out.join(format!("trace_{}.json", workload.name));
        let json = chrome_json(&traced.spans, workload.name, pid);
        std::fs::write(&path, json).map_err(|e| e.to_string())?;
        report.layers = traced.metrics;
        report.table = format!("{}  chrome trace: {}\n", traced.table, path.display());
    } else {
        let loop_started = Instant::now();
        while report.frame_ms.len() < MIN_CALLS
            || loop_started.elapsed().as_secs_f64() < args.seconds
        {
            let call = workload.call(&specs, &caches, scratch);
            report.frame_ms.push(call.frame_ms(&specs));
            gate.check(&specs, &call, &mut tally);
        }
    }
    report.attempted = tally.attempted;
    report.failed = tally.failed;
    report.notes = tally.notes;
    report.peak_rss_mb = peak_rss_mib();
    Ok(report)
}
