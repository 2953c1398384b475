//! Regenerate every table and figure of the paper's evaluation, and drive
//! the harness' benchmarks, smokes and campaign service.
//!
//! Everything this binary accepts is one row of [`COMMANDS`]: a name, a
//! flag spec, whether `--metrics` applies, a handler. [`plan`] resolves an
//! argument list against that table (every usage error is an `Err` there
//! and exit code 2 in `main`), and `reproduce --help` prints the text
//! [`usage`] generates from it. Tables and reports go to stdout; what is
//! said to the human goes to stderr through `say!` / `die`.

use eth_bench::cli::{die, Args, Flag, Report, Takes};
use eth_bench::progress::{Progress, Verbosity};
use eth_bench::runs::Table2;
use eth_bench::{chaos, migrate, pressure, render, runs, say, serve, trace};
use eth_core::CampaignTelemetry;
use std::path::{Path, PathBuf};

struct Command {
    /// The first word that selects it; `""` is the default command.
    name: &'static str,
    /// Usage text for positional words (`""` = none accepted).
    positional: &'static str,
    about: &'static str,
    flags: &'static [Flag],
    /// Whether `--metrics` applies: the handler runs a campaign.
    metrics: bool,
    /// Usage rules beyond the flag spec.
    check: fn(&Args) -> Result<(), String>,
    /// Returns the telemetry of the campaign it ran, if it ran one.
    run: fn(&Args, &Progress) -> Option<CampaignTelemetry>,
}

const fn flag(name: &'static str, takes: Takes, help: &'static str) -> Flag {
    Flag { name, takes, help }
}

const OUT: Flag = flag("--out", Takes::Text("FILE"), "where to write the JSON report");

/// Valid with every command, in any position.
const GLOBAL: &[Flag] = &[
    flag("--trace", Takes::Text("FILE"), "export a stitched Chrome trace-event JSON (Perfetto-loadable)"),
    flag("--metrics", Takes::Text("FILE"), "export campaign telemetry as Prometheus text, plus FILE.jsonl"),
    flag("--verbose", Takes::Nothing, "per-artifact progress on stderr"),
    flag("--quiet", Takes::Nothing, "artifacts only, no progress chatter"),
    flag("--help", Takes::Nothing, "print this text"),
    flag("-h", Takes::Nothing, "print this text"),
];

/// What a row leaves unsaid: no positionals, no `--metrics`, no extra rules.
const ROW: Command = Command {
    name: "",
    positional: "",
    about: "",
    flags: &[],
    metrics: false,
    check: |_| Ok(()),
    run: |_, _| None,
};

const COMMANDS: &[Command] = &[
    Command {
        name: "",
        positional: "[ARTIFACT ..]",
        about: "print the paper's tables and figures as markdown (all of them when none is named)",
        flags: &[
            flag("--csv", Takes::Text("DIR"), "also write one CSV per artifact"),
            flag("--journal", Takes::Text("DIR"), "table2: durable campaign journaled to DIR"),
            flag("--resume", Takes::Nothing, "table2: restore the points --journal DIR already finished"),
            flag("--recovery", Takes::Nothing, "table2: kill one rank per point, recover in-run"),
            flag("--memory-budget", Takes::Size("SIZE"), "table2: beyond RAM, spill + stream back (e.g. 256M)"),
        ],
        metrics: true,
        check: check_artifacts,
        run: run_artifacts,
    },
    Command {
        name: "chaos-campaign",
        about: "lossy campaign demo: seeded faults, retries with backoff, quarantine",
        flags: &[
            flag("--seed", Takes::Int("N"), "fault and failure-schedule seed (default 7)"),
            flag("--kill-rank", Takes::Nothing, "instead: one seeded rank kill per point, recovered in-run"),
        ],
        metrics: true,
        run: run_chaos,
        ..ROW
    },
    Command {
        name: "migrate",
        about: "elasticity benchmark: every migration schedule against a byte-identity contract",
        flags: &[
            flag("--smoke", Takes::Nothing, "CI-sized: byte-identity + counters only"),
            flag("--samples", Takes::Int("N"), "samples per pattern"),
            OUT,
        ],
        metrics: true,
        run: |args, progress| {
            let samples = match args.int("--samples") {
                Some(n) => n as usize,
                None if args.has("--smoke") => migrate::SMOKE_SAMPLES,
                None => migrate::FULL_SAMPLES,
            };
            report("migrate", args, progress, || {
                migrate::run_migration_bench(samples).map(|(report, campaign)| (report, Some(campaign)))
            })
        },
        ..ROW
    },
    Command {
        name: "render-bench",
        about: "render hot path: HLBVH build curve, tiled frame times",
        flags: &[flag("--quick", Takes::Nothing, "CI smoke: schema only, no scaling gate"), OUT],
        run: |args, progress| {
            report("render-bench", args, progress, || Ok((render::run_render_bench(args.has("--quick"))?, None)))
        },
        ..ROW
    },
    Command {
        name: "pressure-bench",
        about: "resource-pressure benchmark: bounded memory, spill, wire codecs, chaos",
        flags: &[flag("--quick", Takes::Nothing, "CI-sized"), OUT],
        run: |args, progress| {
            report("pressure-bench", args, progress, || Ok((pressure::run_pressure_bench(args.has("--quick"))?, None)))
        },
        ..ROW
    },
    Command {
        name: "pressure-chaos",
        about: "seeded ENOSPC/OOM chaos smoke: recover, quarantine, resume",
        flags: &[flag("--seed", Takes::Int("N"), "fault seed (default 11)")],
        run: |args, progress| {
            let seed = args.int("--seed").unwrap_or(11);
            report("pressure-chaos", args, progress, || Ok((pressure::pressure_chaos(seed)?, None)))
        },
        ..ROW
    },
    Command {
        name: "serve",
        about: "campaign service until SIGTERM, then a graceful drain (scrape GET /metrics)",
        flags: &[
            flag("--addr", Takes::Text("HOST:PORT"), "listen address (default 127.0.0.1:7070)"),
            flag("--root", Takes::Text("DIR"), "durable root; a restart resumes its campaigns (default serve-root)"),
            flag("--slots", Takes::Int("N"), "scheduler slots per campaign"),
            flag("--max-queued-points", Takes::Int("N"), "shed submissions beyond this many unfinished points"),
            flag("--per-tenant-inflight", Takes::Int("N"), "running campaigns one tenant may hold"),
            flag("--request-deadline-ms", Takes::Int("N"), "per-request read deadline"),
            flag("--drain-timeout-ms", Takes::Int("N"), "how long drain waits for in-flight points"),
        ],
        run: |args, progress| serve::run_serve(args, progress),
        ..ROW
    },
    Command {
        name: "trace-analyze",
        positional: "FILE",
        about: "per-step critical path a `--trace` export embeds",
        flags: &[flag("--top", Takes::Int("N"), "rows per table (default 5)")],
        metrics: false,
        check: |args| match args.positional.len() {
            1 => Ok(()),
            _ => Err("usage: reproduce trace-analyze FILE [--top N]".into()),
        },
        run: |args, _| {
            trace::analyze(Path::new(&args.positional[0]), args.int("--top").unwrap_or(5) as usize);
            None
        },
    },
];

/// The usage text, generated from [`COMMANDS`] and [`GLOBAL`].
fn usage() -> String {
    let flag_help =
        |out: &mut String, f: &Flag| out.push_str(&format!("        {:<28} {}\n", f.usage(), f.help));
    let mut out = String::new();
    for c in COMMANDS {
        let words: Vec<String> = [c.name, c.positional]
            .iter()
            .filter(|w| !w.is_empty())
            .map(|w| w.to_string())
            .chain(c.flags.iter().map(|f| format!("[{}]", f.usage())))
            .collect();
        let lead = if out.is_empty() { "usage:" } else { "      " };
        out.push_str(&format!("{lead} reproduce {}\n        {}\n", words.join(" "), c.about));
        c.flags.iter().for_each(|f| flag_help(&mut out, f));
    }
    out.push_str("with any of the above:\n");
    GLOBAL.iter().for_each(|f| flag_help(&mut out, f));
    out.push_str(&format!("artifacts: {}\n", runs::ARTIFACT_IDS.join(" ")));
    out
}

/// Resolve `argv` against the table: the first word after any leading
/// global flags names the command (anything else is the default
/// command's), and the rest parses against that command's flags plus
/// [`GLOBAL`]. Every `Err` is a usage error.
fn plan(argv: &[String]) -> Result<(&'static Command, Args), String> {
    let mut at = 0;
    while let Some(global) = argv.get(at).and_then(|w| GLOBAL.iter().find(|f| f.name == w)) {
        at += if global.takes == Takes::Nothing { 1 } else { 2 };
    }
    let named = argv.get(at).and_then(|w| COMMANDS.iter().find(|c| !c.name.is_empty() && c.name == w));
    let command = named.unwrap_or(&COMMANDS[0]);
    let mut rest = argv.to_vec();
    if named.is_some() {
        rest.remove(at);
    }
    let spec: Vec<Flag> = GLOBAL.iter().chain(command.flags).copied().collect();
    let args = Args::parse(&spec, &rest)?;
    if command.positional.is_empty() && !args.positional.is_empty() {
        return Err(format!("{} takes no '{}'", command.name, args.positional[0]));
    }
    if args.has("--metrics") && !command.metrics {
        let name = command.name;
        return Err(format!("--metrics does not apply to {name} (use table2, chaos-campaign, or migrate)"));
    }
    (command.check)(&args)?;
    Ok((command, args))
}

/// The default command's rules: known artifacts only, and the campaign
/// flags only where table2 — the one native-render campaign — is selected.
fn check_artifacts(args: &Args) -> Result<(), String> {
    let known = runs::ARTIFACT_IDS;
    if let Some(w) = args.positional.iter().find(|w| !known.contains(&w.as_str())) {
        return Err(format!("unknown artifact '{w}' (known: {})", known.join(", ")));
    }
    if args.has("--resume") && !args.has("--journal") {
        return Err("--resume needs --journal DIR".into());
    }
    let table2 = args.positional.is_empty() || args.positional.iter().any(|w| w == "table2");
    let modes = ["--journal", "--recovery", "--memory-budget"];
    if let Some(f) = modes.iter().chain(&["--metrics"]).find(|f| args.has(f) && !table2) {
        return Err(format!("{f} only applies to table2 (--metrics also to chaos-campaign and migrate)"));
    }
    if modes.iter().filter(|f| args.has(f)).count() > 1 {
        return Err("--journal, --recovery and --memory-budget do not combine".into());
    }
    Ok(())
}

/// The one function behind `render-bench`, `migrate`, `pressure-bench` and
/// `pressure-chaos`: run, print the summary, write the JSON (to `--out`,
/// else the report's default path, if it has one), hold the report to its
/// contract. Hands back the telemetry of the campaign the run included, if
/// it had one.
fn report<R: Report>(
    name: &'static str,
    args: &Args,
    progress: &Progress,
    run: impl FnOnce() -> eth_core::Result<(R, Option<CampaignTelemetry>)>,
) -> Option<CampaignTelemetry> {
    progress.begin(name);
    let (report, telemetry) = run().unwrap_or_else(|e| die(1, format!("{name} failed: {e}")));
    println!("{}", report.summary());
    if let Some(path) = args.get("--out").or(R::DEFAULT_OUT) {
        let json = serde_json::to_string_pretty(&report).expect("report serializes");
        write_file(Path::new(path), json + "\n");
        progress.note(&format!("wrote {path}"));
    }
    if let Err(e) = report.check() {
        die(1, format!("{name} contract violated: {e}"));
    }
    progress.done(name, "complete");
    telemetry
}

fn write_file(path: &Path, contents: impl AsRef<[u8]>) {
    std::fs::write(path, contents)
        .unwrap_or_else(|e| die(1, format!("failed to write {}: {e}", path.display())));
}

/// The default command: print the selected artifacts in paper order.
/// table2 runs through the campaign engine (so its outcome carries
/// telemetry for `--metrics`), plain, journaled, under a rank kill per
/// point, or under a memory budget.
fn run_artifacts(args: &Args, progress: &Progress) -> Option<CampaignTelemetry> {
    let journal = args.get("--journal").map(Path::new);
    if let Some(dir) = journal.filter(|d| args.has("--resume") && !d.join("journal.jsonl").exists()) {
        die(2, format!("--resume: no journal at {}", dir.display()));
    }
    let variant = match args.size("--memory-budget") {
        Some(budget) => Table2::Budgeted(budget),
        None if args.has("--recovery") => Table2::Recovery,
        None => Table2::Plain,
    };
    let wanted = &args.positional;
    let mut telemetry = None;
    for id in runs::ARTIFACT_IDS.into_iter().filter(|id| wanted.is_empty() || wanted.iter().any(|w| w == id)) {
        progress.begin(id);
        let (table, campaign) = if id == "table2" {
            runs::table2_campaign(variant, journal).map(|(table, outcome)| (table, Some(outcome)))
        } else {
            runs::artifact(id).map(|table| (table, None))
        }
        .unwrap_or_else(|e| die(1, format!("reproduction failed: {e}")));
        println!("{}", table.to_markdown());
        if let Some(outcome) = campaign {
            if journal.is_some() {
                progress.note(&format!(
                    "campaign: {} points ({} restored from journal, {} ran, {} quarantined)",
                    outcome.results.len(),
                    outcome.restored.len(),
                    outcome.results.len() - outcome.restored.len(),
                    outcome.quarantined.len(),
                ));
            }
            telemetry = Some(outcome.telemetry);
        }
        if let Some(dir) = args.get("--csv") {
            let path = Path::new(dir).join(format!("{id}.csv"));
            table
                .write_csv(&path)
                .unwrap_or_else(|e| die(1, format!("failed to write {}: {e}", path.display())));
            progress.note(&format!("wrote {}\n", path.display()));
        }
        progress.done(id, "complete");
    }
    telemetry
}

/// `chaos-campaign`: the lossy retry/quarantine demo campaign — or, with
/// `--kill-rank`, the in-run fault-tolerance demo where every point loses
/// one rank to a seeded kill and must complete by the rank's declared death
/// + partition adoption, without a campaign-level retry.
fn run_chaos(args: &Args, progress: &Progress) -> Option<CampaignTelemetry> {
    let seed = args.int("--seed").unwrap_or(7);
    let kill = args.has("--kill-rank");
    let name = if kill { "kill-rank" } else { "chaos-campaign" };
    progress.begin(name);
    let ran = if kill { chaos::kill_campaign(seed) } else { chaos::chaos_campaign(seed) };
    let (table, outcome) = ran.unwrap_or_else(|e| die(1, format!("{name} failed: {e}")));
    println!("{}", table.to_markdown());
    progress.note(&format!(
        "campaign: {} points, {} attempts total, {} quarantined, {:.2}s",
        outcome.results.len(),
        outcome.attempts.iter().sum::<u32>(),
        outcome.quarantined.len(),
        outcome.wall_s,
    ));
    progress.done(name, "complete");
    Some(outcome.telemetry)
}

/// Write the flight-recorder exports the user asked for.
fn write_exports(
    recorder: &eth_obs::Recorder,
    args: &Args,
    telemetry: Option<&CampaignTelemetry>,
    progress: &Progress,
) {
    if let Some(path) = args.get("--trace").map(Path::new) {
        let trace = recorder.take();
        if let Err(e) = trace.check_well_formed() {
            die(1, format!("internal error: malformed trace: {e}"));
        }
        let records = trace.records.len();
        // Stitched view: every matched send/recv pair becomes a Perfetto
        // flow arrow, and the critical-path summary rides along in the
        // JSON for `reproduce trace-analyze`.
        let merged = eth_obs::MergedTrace::build(trace);
        write_file(path, merged.to_chrome_trace());
        progress.note(&format!(
            "wrote {} ({records} trace records, {} flows stitched, {} dangling)",
            path.display(),
            merged.matched.len(),
            merged.dangling_out + merged.dangling_in,
        ));
    }
    if let Some(path) = args.get("--metrics").map(Path::new) {
        let t = telemetry.expect("plan() admits --metrics only where a campaign runs");
        write_file(path, t.to_prometheus());
        let jsonl = PathBuf::from(format!("{}.jsonl", path.display()));
        write_file(&jsonl, t.to_jsonl());
        progress.note(&format!("wrote {} and {}", path.display(), jsonl.display()));
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, args) = plan(&argv).unwrap_or_else(|e| die(2, e));
    if args.has("--help") || args.has("-h") {
        say!("{}", usage());
        return;
    }
    let progress = Progress::new(Verbosity::from_flags(args.has("--quiet"), args.has("--verbose")));

    // With --trace (or --metrics) the whole invocation runs under an
    // attached flight recorder; every spawned rank/point thread inherits
    // it through the observability context.
    let recorder = eth_obs::Recorder::new();
    let _flight = (args.has("--trace") || args.has("--metrics")).then(|| recorder.attach());

    let telemetry = (command.run)(&args, &progress);
    write_exports(&recorder, &args, telemetry.as_ref(), &progress);
}

/// The invocations the binary's integration tests run.
#[cfg(test)]
#[path = "../../tests/argv/mod.rs"]
mod argv;

#[cfg(test)]
mod tests {
    use super::*;

    fn words(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    /// Every `reproduce …` command line inside the ``` blocks of `text`
    /// (prose mentions wrap mid-invocation): lines (with `\` continuations
    /// joined) that run the binary, cut at the first shell operator or
    /// comment.
    fn invocations(text: &str) -> Vec<Vec<String>> {
        let mut out = Vec::new();
        let mut fenced = false;
        let mut lines = text.lines();
        while let Some(line) = lines.next() {
            if line.trim_start().starts_with("```") {
                fenced = !fenced;
                continue;
            }
            let mut full = line.to_string();
            while full.trim_end().ends_with('\\') {
                full.truncate(full.trim_end().len() - 1);
                full.push_str(lines.next().unwrap_or(""));
            }
            let all = words(&full);
            let Some(at) = all.iter().position(|w| w == "reproduce" || w.ends_with("/reproduce")) else {
                continue;
            };
            if !fenced || all[..at].iter().any(|w| w.starts_with('#')) {
                continue;
            }
            let stop = |w: &String| ["#", "|", ">", "2>", "&"].iter().any(|op| w.starts_with(op));
            out.push(
                all[at + 1..]
                    .iter()
                    .take_while(|w| !stop(w))
                    .filter(|w| *w != "--")
                    .cloned()
                    .collect(),
            );
        }
        out
    }

    #[test]
    fn every_documented_invocation_parses() {
        let readme = concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md");
        let mut all = invocations(&std::fs::read_to_string(readme).unwrap());
        let documented = all.len();
        assert!(documented >= 12, "extraction broke: {documented} README invocations");
        let run = [argv::TABLE2, argv::TABLE2_JOURNAL, argv::TABLE2_RESUME, argv::SERVE];
        all.extend(run.iter().map(|argv| argv.iter().map(|w| w.to_string()).collect()));
        for argv in &all {
            if let Err(e) = plan(argv) {
                panic!("`reproduce {}` no longer parses: {e}", argv.join(" "));
            }
        }
        // the usage text is the table: it cannot omit a command
        let usage = usage();
        for c in COMMANDS {
            assert!(usage.contains(&format!("reproduce {}", c.name)), "{}", c.name);
        }
    }

    #[test]
    fn usage_errors_are_errors() {
        for bad in [
            "render-bench --nope", // unknown flag
            "--nope",
            "render-bench --out", // missing value
            "--csv",
            "chaos-campaign --seed x", // unparseable value
            "table2 --memory-budget 1parsec",
            "render-bench extra",            // stray positional
            "tableX",                        // unknown artifact
            "table2 --resume",               // without --journal
            "fig8 --journal D",              // campaign flags need table2
            "table2 --journal D --recovery", // modes do not combine
            "trace-analyze",                 // FILE is required
        ] {
            assert!(plan(&words(bad)).is_err(), "`reproduce {bad}` must be refused");
        }
        // flags may sit anywhere, globals even before the command word
        let (command, args) = plan(&words("--quiet --trace t.json render-bench --quick --out x.json")).unwrap();
        assert_eq!(command.name, "render-bench");
        assert!(args.has("--quiet") && args.has("--quick"));
        assert_eq!((args.get("--trace"), args.get("--out")), (Some("t.json"), Some("x.json")));
        assert_eq!(plan(&words("table2 --memory-budget 256M")).unwrap().1.size("--memory-budget"), Some(256 << 20));
    }

    #[test]
    fn metrics_applies_exactly_where_a_campaign_runs() {
        for c in COMMANDS {
            let file = if c.positional == "FILE" { " t.json" } else { "" };
            let refused = plan(&words(&format!("{}{file} --metrics m.prom", c.name))).is_err();
            assert_eq!(refused, !["", "chaos-campaign", "migrate"].contains(&c.name), "{}", c.name);
        }
        assert!(plan(&words("table2 fig8 --metrics m.prom")).is_ok());
        assert!(plan(&words("fig8 --metrics m.prom")).is_err(), "no campaign artifact selected");
    }
}
