//! End-to-end benchmark of the ETH harness.
//!
//! One parent process drives a closed loop: for each workload it spawns
//! fresh child processes of itself, one at a time, round-robin across
//! workloads, and aggregates what they report. See `README.md`.

mod child;
mod compare;
mod replay;
mod stats;
mod trace;
mod workloads;

use child::{ChildArgs, ChildReport};
use serde::{Deserialize, Serialize};
use stats::Summary;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// End-to-end metrics, all lower-is-better: (name, unit, bound). The
/// bound is the share of the baseline median by which the metric may
/// worsen before it counts as a regression.
pub const END_TO_END: &[(&str, &str, f64)] = &[
    ("frame_ms", "ms", 0.25),
    ("peak_rss_mb", "MiB", 0.25),
    ("setup_s", "s", 0.25),
];
/// Children per workload: `setup_s` and `peak_rss_mb` are per-process, so
/// their median needs several processes.
const CHILDREN: usize = 4;
/// `BENCHMARK.json`'s `run_seconds`: the timed window of one workload,
/// split evenly over its children.
const RUN_SECONDS: f64 = 20.0;
const DEFAULT_OUT: &str = "benchmark/out/results.json";

#[derive(Debug, Default, Serialize, Deserialize)]
pub struct Results {
    pub seed: u64,
    pub quick: bool,
    /// `std::thread::available_parallelism` of the measuring host.
    pub parallelism: usize,
    pub workloads: BTreeMap<String, WorkloadResult>,
}

#[derive(Debug, Default, Serialize, Deserialize)]
pub struct WorkloadResult {
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics by name.
    pub metrics: BTreeMap<String, Summary>,
    /// Per-layer metrics by name, filled in by `benchmark trace`.
    pub layers: BTreeMap<String, f64>,
}

struct Flags {
    seed: u64,
    seconds: Option<f64>,
    quick: bool,
    traced: bool,
    workload: Option<String>,
    out: PathBuf,
    positional: Vec<String>,
}

impl Flags {
    fn child_args(&self, seconds: f64, traced: bool) -> ChildArgs {
        ChildArgs {
            workload: self.workload.clone().unwrap_or_default(),
            seed: self.seed,
            quick: self.quick,
            seconds,
            traced,
        }
    }
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        seed: 1,
        seconds: None,
        quick: false,
        traced: false,
        workload: None,
        out: PathBuf::from(DEFAULT_OUT),
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--seed" => flags.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                flags.seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => flags.traced = value()? != "0",
            "--workload" => flags.workload = Some(value()?.clone()),
            "--out" => flags.out = PathBuf::from(value()?),
            "--quick" => flags.quick = true,
            other if other.starts_with("--") => return Err(format!("unknown flag {other}")),
            other => flags.positional.push(other.to_string()),
        }
    }
    Ok(flags)
}

/// The directory children write into: beside the results file. Created
/// here and made absolute, because children also get it as `TMPDIR` (the
/// harness puts its socket layout files under `std::env::temp_dir()`).
fn out_dir(flags: &Flags) -> Result<PathBuf, String> {
    let dir = flags
        .out
        .parent()
        .filter(|p| !p.as_os_str().is_empty())
        .unwrap_or(Path::new("."));
    std::fs::create_dir_all(dir.join("tmp")).map_err(|e| format!("{}: {e}", dir.display()))?;
    dir.canonicalize()
        .map_err(|e| format!("{}: {e}", dir.display()))
}

/// Spawn one child of ourselves and wait for it; its last stdout line is
/// the report.
fn spawn_child(args: &ChildArgs, out: &Path) -> Result<ChildReport, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["child", "--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.traced { "1" } else { "0" }])
        .arg("--out")
        .arg(out.join("results.json"))
        .env("TMPDIR", out.join("tmp"))
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if args.quick {
        cmd.arg("--quick");
    }
    let output = cmd.output().map_err(|e| format!("spawn child: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "child for {} exited with {}",
            args.workload, output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    serde_json::from_str(line).map_err(|e| format!("child report for {}: {e}", args.workload))
}

/// Child `i` of every workload, then child `i + 1` of every workload, so
/// slow drift on a shared box lands on all workloads alike. `template`
/// is every child's arguments but for the workload's name.
fn measure(
    names: &[&str],
    children: usize,
    template: &ChildArgs,
    out: &Path,
) -> Result<BTreeMap<String, Vec<ChildReport>>, String> {
    let mut reports: BTreeMap<String, Vec<ChildReport>> = BTreeMap::new();
    for _ in 0..children {
        for name in names {
            let args = ChildArgs {
                workload: name.to_string(),
                ..template.clone()
            };
            let report = spawn_child(&args, out)?;
            for note in &report.notes {
                eprintln!("{name}: FAILED FRAME: {note}");
            }
            reports.entry(name.to_string()).or_default().push(report);
        }
    }
    Ok(reports)
}

fn aggregate(reports: &[ChildReport]) -> WorkloadResult {
    let mut result = WorkloadResult {
        attempted: reports.iter().map(|r| r.attempted).sum(),
        failed: reports.iter().map(|r| r.failed).sum(),
        ..Default::default()
    };
    let pooled: Vec<f64> = reports
        .iter()
        .flat_map(|r| r.frame_ms.iter().copied())
        .collect();
    let per_child =
        |f: fn(&ChildReport) -> f64| Summary::of(&reports.iter().map(f).collect::<Vec<_>>());
    if !pooled.is_empty() {
        result
            .metrics
            .insert("frame_ms".into(), Summary::of(&pooled));
        result
            .metrics
            .insert("peak_rss_mb".into(), per_child(|r| r.peak_rss_mb));
    }
    result
        .metrics
        .insert("setup_s".into(), per_child(|r| r.setup_s));
    if let Some(traced) = reports.iter().find(|r| !r.layers.is_empty()) {
        result.layers = traced.layers.clone();
    }
    result
}

fn print_end_to_end(results: &Results) {
    println!(
        "\n{:<24} {:<12} {:>12} {:>12} {:>12} {:>4} {:>8} {:>6}",
        "workload", "metric", "median", "q1", "q3", "n", "spread", "bound"
    );
    for (name, w) in &results.workloads {
        for (metric, unit, bound) in END_TO_END {
            if let Some(s) = w.metrics.get(*metric) {
                println!(
                    "{:<24} {:<12} {:>12.3} {:>12.3} {:>12.3} {:>4} {:>7.1}% {:>5.0}%  {unit}",
                    name,
                    metric,
                    s.median,
                    s.q1,
                    s.q3,
                    s.n,
                    s.spread() * 100.0,
                    bound * 100.0
                );
            }
        }
        println!(
            "{:<24} {:<12} {:>12.6}  ({} of {} frames failed; any increase is a regression)",
            name,
            "failed_frac",
            w.failed as f64 / w.attempted.max(1) as f64,
            w.failed,
            w.attempted
        );
    }
}

fn write_results(results: &Results, path: &Path) -> Result<(), String> {
    let json = serde_json::to_string_pretty(results).map_err(|e| e.to_string())?;
    std::fs::write(path, json + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

fn read_results(path: &Path) -> Result<Results, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn all_names() -> Vec<&'static str> {
    workloads::all().iter().map(|w| w.name).collect()
}

/// `benchmark run`: every end-to-end metric for every workload.
fn cmd_run(flags: &Flags) -> Result<bool, String> {
    let out = out_dir(flags)?;
    let (children, seconds) = if flags.quick {
        (1, 0.0)
    } else {
        (CHILDREN, RUN_SECONDS / CHILDREN as f64)
    };
    let reports = measure(
        &all_names(),
        children,
        &flags.child_args(seconds, false),
        &out,
    )?;
    let results = Results {
        seed: flags.seed,
        quick: flags.quick,
        parallelism: parallelism(),
        workloads: reports
            .iter()
            .map(|(name, r)| (name.clone(), aggregate(r)))
            .collect(),
    };
    print_end_to_end(&results);
    write_results(&results, &flags.out)?;
    println!(
        "\nresults: {} (host parallelism {})",
        flags.out.display(),
        results.parallelism
    );
    Ok(results.workloads.values().all(|w| w.failed == 0))
}

/// `benchmark trace`: the per-layer pass, one traced child per workload;
/// adds `layers` to the results file when `run` left one.
fn cmd_trace(flags: &Flags) -> Result<bool, String> {
    let out = out_dir(flags)?;
    let reports = measure(&all_names(), 1, &flags.child_args(0.0, true), &out)?;
    let mut results = read_results(&flags.out).unwrap_or_else(|_| Results {
        seed: flags.seed,
        quick: flags.quick,
        parallelism: parallelism(),
        ..Default::default()
    });
    let mut clean = true;
    for (name, reports) in &reports {
        let report = &reports[0];
        print!("{}", report.table);
        clean &= report.failed == 0;
        results.workloads.entry(name.clone()).or_default().layers = report.layers.clone();
    }
    write_results(&results, &flags.out)?;
    println!("\nresults: {}", flags.out.display());
    Ok(clean)
}

/// The driver contract: one workload, one JSON object as the last line.
fn cmd_driver(flags: &Flags) -> Result<bool, String> {
    let name = flags.workload.as_deref().ok_or("--workload is required")?;
    if !all_names().contains(&name) {
        return Err(format!(
            "unknown workload '{name}'; known: {:?}",
            all_names()
        ));
    }
    let out = out_dir(flags)?;
    let seconds = flags.seconds.unwrap_or(RUN_SECONDS);
    let metrics: BTreeMap<String, Reported>;
    let result;
    if flags.traced {
        let reports = measure(&[name], 1, &flags.child_args(seconds, true), &out)?;
        print!("{}", reports[name][0].table);
        result = aggregate(&reports[name]);
        metrics = replay::LAYER_METRICS
            .iter()
            .map(|(metric, unit)| {
                (
                    metric.to_string(),
                    Reported::new(result.layers[*metric], unit),
                )
            })
            .collect();
    } else {
        let reports = measure(
            &[name],
            CHILDREN,
            &flags.child_args(seconds / CHILDREN as f64, false),
            &out,
        )?;
        result = aggregate(&reports[name]);
        metrics = END_TO_END
            .iter()
            .map(|(metric, unit, _)| {
                (
                    metric.to_string(),
                    Reported::new(result.metrics[*metric].median, unit),
                )
            })
            .collect();
    }
    let line = DriverLine {
        correct: result.failed == 0,
        attempted: result.attempted,
        failed: result.failed,
        metrics,
    };
    println!(
        "{}",
        serde_json::to_string(&line).map_err(|e| e.to_string())?
    );
    Ok(line.correct)
}

#[derive(Serialize)]
struct Reported {
    value: f64,
    unit: String,
}

impl Reported {
    fn new(value: f64, unit: &str) -> Reported {
        Reported {
            value,
            unit: unit.to_string(),
        }
    }
}

#[derive(Serialize)]
struct DriverLine {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, Reported>,
}

fn cmd_compare(flags: &Flags) -> Result<bool, String> {
    let [a, b] = flags.positional.as_slice() else {
        return Err("usage: benchmark compare A.json B.json".into());
    };
    let (table, any_worse) =
        compare::compare(&read_results(Path::new(a))?, &read_results(Path::new(b))?);
    print!("{table}");
    Ok(!any_worse)
}

fn cmd_child(flags: &Flags, started: Instant) -> Result<bool, String> {
    let args = flags.child_args(flags.seconds.unwrap_or(0.0), flags.traced);
    let out = out_dir(flags)?;
    let report = child::run(&args, started, &out, &out.join("tmp"))?;
    println!(
        "{}",
        serde_json::to_string(&report).map_err(|e| e.to_string())?
    );
    Ok(true)
}

const USAGE: &str = "usage:
  benchmark --workload NAME --seed N --seconds S --trace 0|1   one workload, one JSON line (BENCHMARK.json)
  benchmark run [--seed N] [--out FILE] [--quick]              every end-to-end metric, every workload
  benchmark trace [--seed N] [--out FILE] [--quick]            per-layer traced replay, every workload
  benchmark compare A.json B.json                              verdict per (metric, workload)";

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.first().map(String::as_str) {
        Some(first) if !first.starts_with("--") => (first, &args[1..]),
        Some(_) => ("driver", &args[..]),
        None => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = parse_flags(rest).and_then(|flags| match command {
        "driver" => cmd_driver(&flags),
        "run" => cmd_run(&flags),
        "trace" => cmd_trace(&flags),
        "compare" => cmd_compare(&flags),
        "child" => cmd_child(&flags, started),
        other => Err(format!("unknown command '{other}'\n{USAGE}")),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The parts of `BENCHMARK.json` this program must agree with.
    #[derive(Deserialize)]
    struct Manifest {
        run_seconds: f64,
        workloads: Vec<Listed>,
        end_to_end: Vec<Listed>,
        per_layer: Vec<Listed>,
    }

    #[derive(Deserialize)]
    struct Listed {
        name: String,
        #[serde(default)]
        unit: String,
        #[serde(default)]
        better: String,
        #[serde(default)]
        bound: f64,
    }

    fn names_and_units(listed: &[Listed]) -> Vec<(&str, &str)> {
        listed
            .iter()
            .map(|m| (m.name.as_str(), m.unit.as_str()))
            .collect()
    }

    /// The names in `BENCHMARK.json` are exactly the names this program
    /// emits — checked against a real `--quick` child per mode.
    #[test]
    fn manifest_names_are_exactly_what_a_quick_run_emits() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
        let manifest: Manifest = serde_json::from_str(&text).expect("BENCHMARK.json parses");

        let workload_names: Vec<&str> =
            manifest.workloads.iter().map(|w| w.name.as_str()).collect();
        assert_eq!(workload_names, all_names());
        assert_eq!(manifest.run_seconds, RUN_SECONDS);
        let ours: Vec<(&str, &str)> = END_TO_END.iter().map(|(n, u, _)| (*n, *u)).collect();
        assert_eq!(names_and_units(&manifest.end_to_end), ours);
        for (listed, (_, _, bound)) in manifest.end_to_end.iter().zip(END_TO_END) {
            assert_eq!((listed.bound, listed.better.as_str()), (*bound, "lower"));
        }
        assert_eq!(names_and_units(&manifest.per_layer), replay::LAYER_METRICS);
        let listed = [
            &manifest.workloads,
            &manifest.end_to_end,
            &manifest.per_layer,
        ];
        for name in listed.into_iter().flatten().map(|m| &m.name) {
            let well_formed = !name.is_empty()
                && name.len() <= 64
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c));
            assert!(well_formed, "{name}");
        }
        let sorted_names = |listed: &[Listed]| {
            let mut names: Vec<String> = listed.iter().map(|m| m.name.clone()).collect();
            names.sort();
            names
        };

        // what a quick run really emits, on the cheapest workload
        let out =
            Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("out/test-{}", std::process::id()));
        let scratch = out.join("tmp");
        // the harness puts its socket layout files under temp_dir()
        std::env::set_var("TMPDIR", &scratch);
        let mut args = ChildArgs {
            workload: "campaign.mixed".into(),
            seed: 1,
            quick: true,
            seconds: 0.0,
            traced: false,
        };
        let plain = child::run(&args, Instant::now(), &out, &scratch).unwrap();
        assert_eq!(
            (plain.failed, plain.notes.len()),
            (0, 0),
            "{:?}",
            plain.notes
        );
        let emitted: Vec<String> = aggregate(&[plain]).metrics.keys().cloned().collect();
        assert_eq!(emitted, sorted_names(&manifest.end_to_end));

        args.traced = true;
        let traced = child::run(&args, Instant::now(), &out, &scratch).unwrap();
        assert_eq!(traced.failed, 0, "{:?}", traced.notes);
        let emitted: Vec<String> = traced.layers.keys().cloned().collect();
        assert_eq!(emitted, sorted_names(&manifest.per_layer));
        let _ = std::fs::remove_dir_all(&out);
    }
}
