//! The traced pass: a root `e2e` span around the public entry point, then
//! one frame's work replayed serially, partition by partition, through
//! the same public calls the harness makes, with hardware references
//! measured beside the layers they bound.

use crate::stats::median;
use crate::trace::{layer_totals, LayerTotal, Recorder, Span};
use crate::workloads::{frames_per_call, image_crc, Call, Gate, Tally, Workload, RANKS};
use eth_core::config::{orbit_camera, Algorithm, Application, Coupling, ExperimentSpec};
use eth_core::harness::{run_native, NativeOutcome, RunCaches};
use eth_core::journal::{save_result, spec_hash, Journal, JournalRecord, RecordedOutcome};
use eth_core::pipeline::{accumulate, VizPipeline};
use eth_data::io::binary;
use eth_data::partition::{partition_grid_slabs, partition_points};
use eth_data::{Bytes, DataObject};
use eth_render::composite::composite_direct;
use eth_render::geometry::marching_cubes::extract_isosurface;
use eth_render::pipeline::{render, RenderOptions, RenderStats};
use eth_render::ray::bvh::SphereBvh;
use eth_render::RenderAlgorithm;
use eth_transport::comm::Communicator;
use eth_transport::layout::LayoutFile;
use eth_transport::local::{LocalComm, LocalFabric};
use eth_transport::socket::{connect_to, listen_as, StreamChannel};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};

const DATA_TAG: u32 = 0x1000;
/// Untraced/traced call pairs the `e2e` overhead estimate rests on.
const E2E_PAIRS: usize = 5;
const REFERENCE_REPEATS: usize = 3;
const FIXED_COST_RUNS: usize = 5;

/// Every per-layer metric, in `BENCHMARK.json` order: (name, unit). All are
/// emitted for every workload: the replay runs every layer on every
/// workload's data, on or off the workload's own path, so each busy time
/// is a measurement. `render.build` exists only for algorithms that build
/// (its rate is 0 otherwise), so its busy time is left to the table; it is
/// `render.frame.busy_ms − render.shade.busy_ms`.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("e2e.traced_frame_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("core.replay_coverage", "ratio"),
    ("sim.generate.busy_ms", "ms"),
    ("sim.generate.rate", "Melem/s"),
    ("data.partition.busy_ms", "ms"),
    ("data.partition.rate", "Melem/s"),
    ("data.sample.busy_ms", "ms"),
    ("data.sample.rate", "Melem/s"),
    ("data.encode.busy_ms", "ms"),
    ("data.encode.rate", "MB/s"),
    ("data.encode.vs_memcpy", "ratio"),
    ("data.decode.busy_ms", "ms"),
    ("data.decode.rate", "MB/s"),
    ("data.decode.vs_memcpy", "ratio"),
    ("data.encoded_bytes", "bytes"),
    ("transport.socket.busy_ms", "ms"),
    ("transport.socket.rate", "MB/s"),
    ("transport.socket.vs_loopback", "ratio"),
    ("transport.local.busy_ms", "ms"),
    ("transport.local.rate", "MB/s"),
    ("transport.messages", "count"),
    ("render.build.rate", "Mprim/s"),
    ("render.build_ops", "count"),
    ("render.frame.busy_ms", "ms"),
    ("render.frame.rate", "Melem/s"),
    ("render.shade.busy_ms", "ms"),
    ("render.rays", "count"),
    ("render.ray_steps", "count"),
    ("render.fragments", "count"),
    ("render.composite.busy_ms", "ms"),
    ("render.composite.rate", "Mpixel/s"),
    ("core.journal.busy_ms", "ms"),
    ("core.journal.bytes", "bytes"),
    ("core.harness.busy_ms", "ms"),
    ("hw.memcpy.rate", "MB/s"),
    ("hw.loopback.rate", "MB/s"),
];

pub struct Traced {
    pub metrics: BTreeMap<String, f64>,
    pub table: String,
    pub spans: Vec<Span>,
}

/// Step 0 of the workload's data, staged once for every point replayed.
struct Staged {
    parts: Vec<DataObject>,
    bounds: eth_data::Aabb,
    range: Option<(f32, f32)>,
}

/// Established links the replay ships blocks through. Bootstrap cost is
/// per run, not per frame: it is part of `core.harness`, not of
/// `transport.socket`.
struct Links {
    sim: StreamChannel,
    viz: StreamChannel,
    local: Vec<LocalComm>,
}

fn text<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// The range every rank colours through (`harness::global_scalar_range`).
fn scalar_range(obj: &DataObject, name: &str) -> Option<(f32, f32)> {
    let values = match obj {
        DataObject::Points(p) => p.scalar(name).ok()?,
        DataObject::Grid(g) => g.scalar(name).ok()?,
    };
    let finite = values.iter().copied().filter(|v| v.is_finite());
    let (lo, hi) = finite.fold((f32::INFINITY, f32::NEG_INFINITY), |(lo, hi), v| {
        (lo.min(v), hi.max(v))
    });
    (lo.is_finite() && hi > lo).then_some((lo, hi))
}

fn stage(rec: &mut Recorder, spec: &ExperimentSpec) -> Result<Staged, String> {
    let elements = spec.application.num_elements() as f64;
    let global = rec
        .span("sim.generate", elements, |_| {
            spec.application.generate(0, spec.seed)
        })
        .map_err(text)?;
    let parts = rec
        .span("data.partition", elements, |_| match &global {
            DataObject::Points(cloud) => partition_points(cloud, RANKS).map(|parts| {
                parts
                    .into_iter()
                    .map(DataObject::Points)
                    .collect::<Vec<_>>()
            }),
            DataObject::Grid(grid) => partition_grid_slabs(grid, RANKS)
                .map(|parts| parts.into_iter().map(DataObject::Grid).collect::<Vec<_>>()),
        })
        .map_err(text)?;
    Ok(Staged {
        parts,
        bounds: global.bounds(),
        range: scalar_range(&global, spec.application.default_scalar()),
    })
}

fn open_links(scratch: &Path) -> Result<Links, String> {
    let dir = scratch.join(format!("layout-replay-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let layout = LayoutFile::create(&dir).map_err(text)?;
    let pair = std::thread::scope(|s| {
        let viz = s.spawn(|| connect_to(&layout, 0, 1, Duration::from_secs(30)));
        let sim = listen_as(&layout, 0);
        let viz = viz.join().expect("connect_to does not panic");
        Ok::<_, String>((sim.map_err(text)?, viz.map_err(text)?))
    });
    let _ = std::fs::remove_dir_all(&dir);
    let (sim, viz) = pair?;
    Ok(Links {
        sim,
        viz,
        local: LocalFabric::new(2),
    })
}

/// Ship one encoded block over the loopback socket pair, then over the
/// local fabric: the internode and the intercore process boundary.
fn ship(rec: &mut Recorder, links: &Links, payload: Bytes) -> Result<Bytes, String> {
    let bytes = payload.len() as f64;
    // the receiver runs concurrently, as the viz rank does: a block this
    // size does not fit the socket buffers
    let payload = rec.span("transport.socket", bytes, |_| {
        std::thread::scope(|s| {
            let received = s.spawn(|| links.viz.recv(DATA_TAG));
            links.sim.send(DATA_TAG, payload).map_err(text)?;
            received.join().expect("recv does not panic").map_err(text)
        })
    })?;
    rec.span("transport.local", bytes, |_| {
        links.local[0].send(1, DATA_TAG, payload).map_err(text)?;
        links.local[1].recv(0, DATA_TAG).map_err(text)
    })
}

/// Replay step 0 of one design point through every layer, whatever the
/// point's coupling: a tight point never encodes or ships its blocks, but
/// the codec is lossless, so rendering the shipped copy yields the same
/// bytes and the off-path layers get measured on this workload's data.
/// Returns the composited image's CRC and the frame's render counts.
fn replay_frame(
    rec: &mut Recorder,
    spec: &ExperimentSpec,
    staged: &Staged,
    links: &Links,
) -> Result<(u32, RenderStats), String> {
    let pipeline = VizPipeline::new(spec);
    let algorithm = spec.algorithm.resolve(&spec.application, 0, spec.seed);
    let camera = orbit_camera(
        &staged.bounds,
        spec.width,
        spec.height,
        0,
        spec.images_per_step,
    );
    let scalar = spec.application.default_scalar();
    let options = RenderOptions {
        scalar: Some(scalar.to_string()),
        range: staged.range,
        ..Default::default()
    };
    let mut stats = RenderStats::default();
    let mut frames = Vec::with_capacity(staged.parts.len());
    for part in &staged.parts {
        let elements = part.num_elements() as f64;
        let bytes = binary::encoded_len(part) as f64;
        let payload = rec.span("data.encode", bytes, |_| binary::encode(part));
        let payload = ship(rec, links, payload)?;
        let block = rec
            .span("data.decode", bytes, |_| binary::decode(payload))
            .map_err(text)?;
        // at ratio 1.0 this is the identity copy the pipeline makes
        let sampled = rec
            .span("data.sample", elements, |_| pipeline.sample(&block))
            .map_err(text)?;
        // The build alone, called directly: `render.frame` below repeats it
        // inside `render`, so `render.shade` = frame − build.
        let prims = sampled.num_elements() as f64;
        match (&algorithm, &sampled) {
            (RenderAlgorithm::RaycastSpheres { radius }, DataObject::Points(cloud)) => {
                rec.span("render.build", prims, |_| {
                    black_box(SphereBvh::build(cloud.positions(), *radius));
                })
            }
            (RenderAlgorithm::VtkIsosurface { isovalue }, DataObject::Grid(grid)) => rec
                .span("render.build", grid.num_cells() as f64, |_| {
                    extract_isosurface(grid, scalar, *isovalue).map(|mesh| {
                        black_box(mesh);
                    })
                })
                .map_err(text)?,
            _ => {}
        }
        let out = rec
            .span("render.frame", prims, |_| {
                render(&sampled, &algorithm, &camera, &options)
            })
            .map_err(text)?;
        stats = accumulate(stats, out.stats);
        frames.push(out.framebuffer);
    }
    let pixels = (spec.width * spec.height * frames.len()) as f64;
    let image = rec.span("render.composite", pixels, |_| {
        composite_direct(frames).0.into_image()
    });
    Ok((image_crc(&image), stats))
}

/// `save_result` + `Journal::append` for every point of the last traced
/// call, as `run_journaled` does once a point finishes; returns bytes
/// written per record.
fn replay_journal(
    rec: &mut Recorder,
    specs: &[ExperimentSpec],
    outcomes: &[&NativeOutcome],
    scratch: &Path,
) -> Result<f64, String> {
    let dir = scratch.join(format!("journal-replay-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let journal = Journal::open(&dir).map_err(text)?;
    for (index, (spec, outcome)) in specs.iter().zip(outcomes).enumerate() {
        let hash = spec_hash(spec);
        rec.span("core.journal", 1.0, |_| {
            save_result(&dir, index, hash, outcome)?;
            journal.append(&JournalRecord::Finished {
                index,
                spec_hash: hash,
                attempt: 1,
                elapsed_s: outcome.wall_s,
                outcome: RecordedOutcome::Ok,
            })
        })
        .map_err(text)?;
    }
    drop(journal);
    let mut bytes = 0;
    for sub in [dir.clone(), dir.join(eth_core::journal::RESULTS_DIR)] {
        for entry in std::fs::read_dir(sub).map_err(text)?.flatten() {
            let meta = entry.metadata().map_err(text)?;
            if meta.is_file() {
                bytes += meta.len();
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(bytes as f64 / outcomes.len() as f64)
}

/// Per-run fixed cost: wall of a 1-step, 1 000-particle, 64×64 `run_native`
/// under `coupling` (thread spawn, socket bootstrap, recorder drain and
/// power attribution, with next to no data). Median of a few runs, ms.
fn fixed_cost_ms(rec: &mut Recorder, coupling: Coupling, seed: u64) -> Result<f64, String> {
    let tiny = ExperimentSpec::builder("fixed-cost")
        .application(Application::Hacc { particles: 1_000 })
        .algorithm(Algorithm::VtkPoints)
        .coupling(coupling)
        .ranks(RANKS)
        .steps(1)
        .image_size(64, 64)
        .seed(seed)
        .build()
        .map_err(text)?;
    let mut walls = Vec::with_capacity(FIXED_COST_RUNS);
    for _ in 0..FIXED_COST_RUNS {
        let t = Instant::now();
        rec.span("core.harness", 1.0, |_| run_native(&tiny))
            .map_err(text)?;
        walls.push(t.elapsed().as_secs_f64() * 1e3);
    }
    Ok(median(&walls))
}

/// `memcpy` of a buffer the size of one encoded block: the ceiling for
/// `data.encode` / `data.decode`, which at best copy every byte once.
fn memcpy_reference(rec: &mut Recorder, bytes: usize) {
    let src = vec![0x5Au8; bytes];
    let mut dst = vec![0u8; bytes];
    for _ in 0..REFERENCE_REPEATS {
        rec.span("hw.memcpy", bytes as f64, |_| {
            dst.copy_from_slice(black_box(&src));
            black_box(&mut dst);
        });
    }
}

/// A raw `std::net` loopback transfer of one encoded block's byte count:
/// the ceiling for `transport.socket`.
fn loopback_reference(rec: &mut Recorder, bytes: usize) -> Result<(), String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(text)?;
    let mut writer = TcpStream::connect(listener.local_addr().map_err(text)?).map_err(text)?;
    let (mut reader, _) = listener.accept().map_err(text)?;
    writer.set_nodelay(true).map_err(text)?;
    let src = vec![0x5Au8; bytes];
    let mut dst = vec![0u8; bytes];
    for _ in 0..REFERENCE_REPEATS {
        rec.span("hw.loopback", bytes as f64, |_| {
            std::thread::scope(|s| {
                let received = s.spawn(|| reader.read_exact(&mut dst));
                writer.write_all(&src).map_err(text)?;
                received.join().expect("read does not panic").map_err(text)
            })
        })?;
    }
    Ok(())
}

/// Millions of work units per second of busy time (MB/s, Melem/s …).
fn rate(total: &LayerTotal) -> f64 {
    if total.busy_ns == 0 {
        0.0
    } else {
        total.work * 1e-6 / (total.busy_ns as f64 * 1e-9)
    }
}

fn ratio(achieved: f64, reference: f64) -> f64 {
    if reference > 0.0 {
        achieved / reference
    } else {
        0.0
    }
}

/// Run the traced pass for one workload, after the child's usual set-up.
/// `seconds` extends the untraced/traced `e2e` pairs beyond their fixed
/// minimum; the replay itself is one frame per design point.
pub fn trace_workload(
    workload: &Workload,
    specs: &[ExperimentSpec],
    gate: &Gate,
    caches: &RunCaches,
    scratch: &Path,
    seconds: f64,
    tally: &mut Tally,
) -> Result<Traced, String> {
    let mut rec = Recorder::new();
    let seed = specs[0].seed;
    let frames_call = frames_per_call(specs) as f64;

    // e2e: the public entry point, alternately bare and inside a root span.
    // The overhead is the median of the per-pair ratios: the two calls of a
    // pair are adjacent in time, so slow drift of the host cancels.
    let mut traced_ms = Vec::new();
    let mut overheads_pct = Vec::new();
    let mut last: Option<Call> = None;
    let started = Instant::now();
    while traced_ms.len() < E2E_PAIRS || started.elapsed().as_secs_f64() < seconds * 0.5 {
        let bare = workload.call(specs, caches, scratch);
        gate.check(specs, &bare, tally);
        let traced = rec.span("e2e", frames_call, |_| {
            workload.call(specs, caches, scratch)
        });
        gate.check(specs, &traced, tally);
        traced_ms.push(traced.frame_ms(specs));
        overheads_pct.push((traced.wall_s / bare.wall_s - 1.0) * 100.0);
        last = Some(traced);
    }
    let e2e_ms = median(&traced_ms);
    let overhead_pct = median(&overheads_pct);
    let last = last.expect("at least one pair ran");
    let outcomes: Vec<&NativeOutcome> = last.outcomes.iter().flatten().collect();
    if outcomes.len() != specs.len() {
        return Err("traced e2e call failed; see the failure notes".into());
    }

    // replay: one frame of every design point, serially
    let links = open_links(scratch)?;
    let mut stats = RenderStats::default();
    // busy time and messages of the layers on each point's own path
    let mut on_path_ns = 0u64;
    let mut messages = 0u64;
    let block_bytes = rec.span(
        "replay",
        specs.len() as f64,
        |rec| -> Result<usize, String> {
            let staged = stage(rec, &specs[0])?;
            for (spec, expected) in specs.iter().zip(&gate.expected) {
                let first_span = rec.spans.len();
                let (crc, frame_stats) = replay_frame(rec, spec, &staged, &links)?;
                stats = accumulate(stats, frame_stats);
                tally.attempted += 1;
                if expected.first().map(|f| f.crc) != Some(crc) {
                    tally.fail(
                        1,
                        format!("{}: replayed frame differs from the reference", spec.name),
                    );
                }
                let boundary = match spec.coupling {
                    Coupling::Tight => None,
                    Coupling::Intercore => Some("transport.local"),
                    Coupling::Internode => Some("transport.socket"),
                };
                for span in &rec.spans[first_span..] {
                    let on_path = match span.name {
                        "data.sample" | "render.frame" | "render.composite" => true,
                        "data.encode" | "data.decode" => boundary.is_some(),
                        name => Some(name) == boundary,
                    };
                    if on_path {
                        on_path_ns += span.end_ns - span.start_ns;
                        messages += u64::from(Some(span.name) == boundary);
                    }
                }
            }
            Ok(binary::encoded_len(&staged.parts[0]))
        },
    )?;
    drop(links);

    let campaign = specs.len() > 1;
    let journal_bytes = replay_journal(&mut rec, specs, &outcomes, scratch)?;
    let mut fixed: BTreeMap<&'static str, f64> = BTreeMap::new();
    for spec in specs {
        if !fixed.contains_key(spec.coupling.name()) {
            fixed.insert(
                spec.coupling.name(),
                fixed_cost_ms(&mut rec, spec.coupling, seed)?,
            );
        }
    }
    let harness_ms =
        specs.iter().map(|s| fixed[s.coupling.name()]).sum::<f64>() / specs.len() as f64;
    memcpy_reference(&mut rec, block_bytes);
    loopback_reference(&mut rec, block_bytes)?;

    // assemble: busy time per replayed frame, rates over busy time
    let totals = layer_totals(&rec.spans);
    let total = |name: &str| totals.get(name).copied().unwrap_or_default();
    let replayed = specs.len() as f64;
    let busy_ms = |name: &str| total(name).busy_ns as f64 * 1e-6 / replayed;
    let memcpy = rate(&total("hw.memcpy"));
    let loopback = rate(&total("hw.loopback"));
    let encode = rate(&total("data.encode"));
    let decode = rate(&total("data.decode"));
    let socket = rate(&total("transport.socket"));
    let journal_ms = total("core.journal").busy_ns as f64 * 1e-6 / replayed;

    // What the timed call contains: the layers on each point's own path,
    // the per-run fixed cost, and — for the campaign only — one staging
    // miss and one journal record per point (elsewhere staging is
    // `setup_s` and nothing is journaled).
    let mut covered_ms = on_path_ns as f64 * 1e-6 / replayed + harness_ms * replayed / frames_call;
    if campaign {
        covered_ms += busy_ms("sim.generate")
            + busy_ms("data.partition")
            + journal_ms * replayed / frames_call;
    }

    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    let mut put = |name: &str, value: f64| {
        m.insert(name.to_string(), value);
    };
    put("e2e.traced_frame_ms", e2e_ms);
    put("trace.overhead_pct", overhead_pct);
    put("core.replay_coverage", covered_ms / e2e_ms);
    for layer in [
        "sim.generate",
        "data.partition",
        "data.sample",
        "data.encode",
        "data.decode",
        "transport.socket",
        "transport.local",
        "render.frame",
        "render.composite",
    ] {
        put(&format!("{layer}.busy_ms"), busy_ms(layer));
        put(&format!("{layer}.rate"), rate(&total(layer)));
    }
    put("render.build.rate", rate(&total("render.build")));
    put(
        "render.shade.busy_ms",
        busy_ms("render.frame") - busy_ms("render.build"),
    );
    put("data.encode.vs_memcpy", ratio(encode, memcpy));
    put("data.decode.vs_memcpy", ratio(decode, memcpy));
    put("transport.socket.vs_loopback", ratio(socket, loopback));
    put("data.encoded_bytes", total("data.encode").work / replayed);
    put("transport.messages", messages as f64 / replayed);
    put("render.build_ops", stats.build_ops as f64 / replayed);
    put("render.rays", stats.rays as f64 / replayed);
    put("render.ray_steps", stats.ray_steps as f64 / replayed);
    put("render.fragments", stats.fragments as f64 / replayed);
    put("core.journal.busy_ms", journal_ms);
    put("core.journal.bytes", journal_bytes);
    put("core.harness.busy_ms", harness_ms);
    put("hw.memcpy.rate", memcpy);
    put("hw.loopback.rate", loopback);
    debug_assert_eq!(m.len(), LAYER_METRICS.len());

    // the table
    let mut table = String::new();
    let _ = writeln!(
        table,
        "\n== {} — traced replay (seed {seed}, {} frame(s) replayed, {} frame(s) per call) ==",
        workload.name, replayed, frames_call
    );
    let _ = writeln!(
        table,
        "{:<18} {:>6} {:>14} {:>14} {:>16}",
        "layer", "count", "busy ms/frame", "self ms/frame", "work/frame"
    );
    for (name, t) in &totals {
        let per = if matches!(
            *name,
            "e2e" | "core.harness" | "core.journal" | "hw.memcpy" | "hw.loopback"
        ) {
            t.count as f64
        } else {
            replayed
        };
        let _ = writeln!(
            table,
            "{:<18} {:>6} {:>14.3} {:>14.3} {:>16.0}",
            name,
            t.count,
            t.busy_ns as f64 * 1e-6 / per,
            t.self_ns as f64 * 1e-6 / per,
            t.work / per
        );
    }
    let _ = writeln!(
        table,
        "(e2e, core.*, hw.* rows are per call/run/record/copy; work is computed from sizes, not measured; \
         every layer runs on this workload's data, on or off its own path — core.replay_coverage counts only the layers on it)"
    );
    for (name, unit) in LAYER_METRICS {
        let _ = writeln!(table, "  {:<30} {:>16.4} {}", name, m[*name], unit);
    }
    let mb = block_bytes as f64 / 1e6;
    let _ = writeln!(
        table,
        "  one encoded block = {mb:.1} MB (computed from encoded_len): {} L2 (4 MiB/core), {} L3 (260 MiB shared) — \
         the memcpy reference copies this size, so it is a {} figure, not DRAM bandwidth",
        if block_bytes > 4 << 20 { "larger than" } else { "fits" },
        if block_bytes > 260 << 20 { "larger than" } else { "fits" },
        if block_bytes > 4 << 20 { "L3-resident" } else { "L2-resident" },
    );
    // ungated cross-check that the replay is representative
    let phases = outcomes.iter().fold([0.0f64; 4], |acc, o| {
        [
            acc[0] + o.phases.sim_s,
            acc[1] + o.phases.transfer_s,
            acc[2] + o.phases.viz_s,
            acc[3] + o.phases.composite_s,
        ]
    });
    let moved: u64 = outcomes.iter().map(|o| o.bytes_moved).sum();
    let _ = writeln!(
        table,
        "  program's own NativeOutcome (last traced call, per frame): sim {:.2} ms, transfer {:.2} ms, viz {:.2} ms, \
         composite {:.2} ms (max over ranks), bytes_moved {:.0} (computed)",
        phases[0] * 1e3 / frames_call,
        phases[1] * 1e3 / frames_call,
        phases[2] * 1e3 / frames_call,
        phases[3] * 1e3 / frames_call,
        moved as f64 / frames_call,
    );

    Ok(Traced {
        metrics: m,
        table,
        spans: rec.spans,
    })
}
