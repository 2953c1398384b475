//! Render hot path: HLBVH vs median-split build times, tiled
//! packet-traversal frame times, the build and the frame on one rank's share
//! of the `hacc.raycast.tight` workload with a per-phase split, and the two
//! particle rasterizers, the two grid extraction filters and the triangle
//! rasterizer, each beside its hardware reference (DESIGN.md §14, §19). The JSON-report variant with
//! acceptance gates is `reproduce render-bench`; this is the
//! statistics-grade criterion view of the same loops.

use criterion::{
    black_box, criterion_group, criterion_main, BenchmarkGroup, BenchmarkId, Criterion, Throughput,
};
use eth_bench::render::scatter;
use eth_core::config::{orbit_camera, Application};
use eth_data::partition::{partition_grid_slabs, partition_points};
use eth_data::{PointCloud, Vec3};
use eth_render::camera::Camera;
use eth_render::color::{Colormap, TransferFunction};
use eth_render::geometry::marching_cubes::extract_isosurface;
use eth_render::geometry::slice::extract_slice;
use eth_render::geometry::Plane;
use eth_render::raster::points::render_points;
use eth_render::raster::splat::render_splats;
use eth_render::raster::triangle::rasterize_mesh;
use eth_render::ray::bvh::{RayPacket, SphereBvh, PACKET_WIDTH};
use eth_render::ray::sphere::SphereRaycaster;
use eth_render::shading::Lighting;
use eth_render::tile::{tiles, DEFAULT_TILE};
use eth_render::Framebuffer;
use eth_sim::hacc::HaccConfig;
use eth_sim::xrage::XrageConfig;
use std::time::{Duration, Instant};

const RADIUS: f32 = 0.01;

fn bench_build(c: &mut Criterion) {
    let sizes = [50_000usize, 200_000, 800_000];
    let mut group = c.benchmark_group("bvh_build");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for &n in &sizes {
        let centers = scatter(n, 42);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("hlbvh", n), &n, |b, _| {
            b.iter(|| SphereBvh::build(&centers, RADIUS))
        });
        group.bench_with_input(BenchmarkId::new("median_split", n), &n, |b, _| {
            b.iter(|| SphereBvh::build_median(&centers, RADIUS))
        });
    }
    group.finish();
}

fn bench_frame(c: &mut Criterion) {
    let sizes = [100_000usize, 400_000];
    let tf = TransferFunction::new(Colormap::Viridis, 0.0, 4.0);
    let lighting = Lighting::default();
    let mut group = c.benchmark_group("render_frame");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for &n in &sizes {
        let cloud = PointCloud::from_positions(scatter(n, 42));
        let rc = SphereRaycaster::build(&cloud, None, RADIUS);
        let cam = Camera::look_at(
            Vec3::new(0.0, -3.2, 0.6),
            Vec3::ZERO,
            Vec3::new(0.0, 0.0, 1.0),
            45.0,
            320,
            240,
        );
        group.throughput(Throughput::Elements((320 * 240) as u64));
        group.bench_with_input(BenchmarkId::new("tiled_packets", n), &n, |b, _| {
            b.iter(|| rc.render(&cam, &tf, &lighting, Vec3::ZERO))
        });
        group.bench_with_input(BenchmarkId::new("progressive", n), &n, |b, _| {
            b.iter(|| rc.render_progressive(&cam, &tf, &lighting, Vec3::ZERO, 16))
        });
    }
    group.finish();
}

/// Bench `frame` under `id`; returns the median of its iterations in seconds.
fn median_of(group: &mut BenchmarkGroup<'_>, id: BenchmarkId, frame: &mut dyn FnMut()) -> f64 {
    let mut times = Vec::new();
    group.bench_function(id, |b| {
        b.iter(|| {
            let t = Instant::now();
            frame();
            times.push(t.elapsed());
        })
    });
    times.sort();
    times[times.len() / 2].as_secs_f64()
}

/// Each pass of `SphereBvh::build`, named by the flight-recorder instant
/// that closes it, with its median milliseconds over `runs` builds (the
/// first pass starts with the build's span).
fn build_passes(centers: &[Vec3], radius: f32, runs: usize) -> Vec<(&'static str, f64)> {
    let mut passes: Vec<(&'static str, Vec<f64>)> = Vec::new();
    for _ in 0..runs {
        let recorder = eth_obs::Recorder::new();
        {
            let _attached = recorder.attach();
            black_box(SphereBvh::build(centers, radius));
        }
        let trace = recorder.take();
        let mut last = trace
            .spans()
            .find(|s| s.phase == eth_obs::Phase::BvhBuild)
            .expect("the build records its span")
            .start_ns;
        let instants = trace.records.iter().filter_map(|record| match record {
            eth_obs::Record::Instant { name, ts_ns, .. } => Some((*name, *ts_ns)),
            _ => None,
        });
        for (i, (name, ts_ns)) in instants.enumerate() {
            if passes.len() == i {
                passes.push((name, Vec::new()));
            }
            passes[i].1.push((ts_ns - last) as f64 * 1e-6);
            last = ts_ns;
        }
    }
    passes
        .into_iter()
        .map(|(name, mut ms)| {
            ms.sort_by(f64::total_cmp);
            (name, ms[ms.len() / 2])
        })
        .collect()
}

/// `SphereBvh::build` and one `render_tiled` frame on the two partitions
/// the ranks of the `hacc.raycast.tight` workload raycast (HACC 2 M, seed
/// 1, step 0, two ranks: 922 480 and 1 077 520 particles), orbit camera at
/// 512², on one thread — the per-rank reference the end-to-end benchmark
/// cannot show. The line after each partition splits both into phases:
/// the build's from the instants that close its passes, the frame's by
/// timing every packet generated alone, then generated and traversed
/// (shading and the stores are the rest).
fn bench_workload_ranks(c: &mut Criterion) {
    let particles = 2_000_000;
    let whole = HaccConfig {
        particles,
        seed: 1,
        ..Default::default()
    }
    .generate(0)
    .expect("hacc generates");
    let radius = Application::Hacc { particles }.particle_radius();
    let camera = orbit_camera(&whole.bounds(), 512, 512, 0, 1);
    let density = whole.scalar("density").expect("hacc carries density");
    let tf = TransferFunction::fit(Colormap::Viridis, density);
    let lighting = Lighting::default();
    let one = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("the pool builder cannot fail");
    let rays = camera.ray_generator();
    let frame_tiles = tiles(camera.width, camera.height, DEFAULT_TILE);
    // every packet of a frame, in tile order, as `render_tiled` makes them
    let packets = |visit: &mut dyn FnMut(RayPacket)| {
        for t in &frame_tiles {
            for py in t.y0..t.y0 + t.h {
                let ndc_y = rays.ndc_y(py);
                for px in (t.x0..t.x0 + t.w).step_by(PACKET_WIDTH) {
                    let lanes = PACKET_WIDTH.min(t.x0 + t.w - px);
                    visit(RayPacket::generate(&rays, lanes, |l| {
                        (rays.ndc_x(px + l), ndc_y)
                    }));
                }
            }
        }
    };
    for part in partition_points(&whole, 2).expect("two ranks") {
        let n = part.len();
        let centers = part.positions();
        let mut group = c.benchmark_group("bvh_build");
        group.sample_size(10);
        group.measurement_time(Duration::from_secs(3));
        group.warm_up_time(Duration::from_millis(500));
        group.throughput(Throughput::Elements(n as u64));
        let build = median_of(&mut group, BenchmarkId::new("hacc_rank_1t", n), &mut || {
            one.install(|| black_box(SphereBvh::build(centers, radius)));
        });
        group.finish();
        let passes = one.install(|| build_passes(centers, radius, 9));

        let rc = SphereRaycaster::build(&part, Some("density"), radius);
        let bvh = SphereBvh::build(centers, radius);
        let mut group = c.benchmark_group("render_frame");
        group.sample_size(10);
        group.measurement_time(Duration::from_secs(3));
        group.warm_up_time(Duration::from_millis(500));
        group.throughput(Throughput::Elements(camera.num_pixels() as u64));
        let mut row = |name: &str, frame: &mut dyn FnMut()| {
            let id = BenchmarkId::new(name, n);
            one.install(|| median_of(&mut group, id, frame))
        };
        let frame = row("hacc_rank_1t", &mut || {
            black_box(rc.render(&camera, &tf, &lighting, Vec3::ZERO));
        });
        let generate = row("hacc_rank_1t_generate", &mut || {
            packets(&mut |p| {
                black_box(p);
            });
        });
        let traverse = row("hacc_rank_1t_generate_traverse", &mut || {
            let mut steps = 0;
            packets(&mut |p| {
                black_box(bvh.intersect_packet(&p, f32::MAX, &mut steps));
            });
        });
        group.finish();
        let passes: Vec<String> = passes
            .iter()
            .map(|(name, ms)| format!("{} {ms:.1}", name.trim_start_matches("bvh_")))
            .collect();
        eprintln!(
            "  hacc_rank/{n}: build {:.1} ms ({}) | frame {:.1} ms (ray generation {:.1}, \
             traversal {:.1}, shade {:.1})",
            build * 1e3,
            passes.join(", "),
            frame * 1e3,
            generate * 1e3,
            (traverse - generate) * 1e3,
            (frame - traverse) * 1e3,
        );
    }
}

/// `render_points` and `render_splats` on a HACC cloud at 512², beside the
/// floor neither can beat: one serial loop that projects every particle and
/// evaluates its colour, and writes no pixel. The last line per size prints
/// each rasterizer's median as a multiple of that loop's.
fn bench_particles(c: &mut Criterion) {
    let lighting = Lighting::default();
    let mut group = c.benchmark_group("particles");
    group.sample_size(15);
    group.measurement_time(Duration::from_secs(4));
    group.warm_up_time(Duration::from_millis(500));
    for n in [100_000usize, 1_000_000] {
        let cloud = HaccConfig::with_particles(n)
            .generate(1)
            .expect("hacc generates");
        let density = cloud.scalar("density").expect("hacc carries density");
        let tf = TransferFunction::fit(Colormap::Viridis, density);
        let camera = Camera::framing(&cloud.bounds(), 512, 512);
        // the harness's defaults: 3x3 blocks, impostors at 3/4 of the mean spacing
        let radius = Application::Hacc { particles: n }.particle_radius();
        group.throughput(Throughput::Elements(n as u64));
        let mut medians = Vec::new();
        let mut row = |name: &str, frame: &mut dyn FnMut()| {
            medians.push(median_of(&mut group, BenchmarkId::new(name, n), frame));
        };
        row("project_and_colour", &mut || {
            let projector = camera.projector();
            let mut sum = Vec3::ZERO;
            for (&p, &value) in cloud.positions().iter().zip(density) {
                if let Some((fx, fy, depth)) = projector.project(p) {
                    sum = sum + tf.color(value) + Vec3::new(fx, fy, depth);
                }
            }
            black_box(sum);
        });
        row("points", &mut || {
            black_box(render_points(
                &cloud,
                Some("density"),
                &tf,
                &camera,
                Vec3::ZERO,
                2,
            ));
        });
        row("splat", &mut || {
            black_box(render_splats(
                &cloud,
                Some("density"),
                &tf,
                &camera,
                &lighting,
                Vec3::ZERO,
                radius,
            ));
        });
        eprintln!(
            "  particles/{n}: points {:.2}x, splat {:.2}x the projection loop ({:.1} ms)",
            medians[1] / medians[0],
            medians[2] / medians[0],
            medians[0] * 1e3,
        );
    }
    group.finish();
}

/// `extract_isosurface` and `extract_slice` on the slab one rank of the
/// `xrage.iso.intercore` workload extracts (192³ over two ranks), beside the
/// floor neither can beat: one pass over the same field counting the
/// vertices above the isovalue. The last line prints each filter's median as
/// a multiple of that pass's.
fn bench_extract(c: &mut Criterion) {
    let cfg = XrageConfig::with_dims([192, 192, 192]);
    let whole = cfg.generate(0).expect("xrage generates");
    let slab = &partition_grid_slabs(&whole, 2).expect("two slabs")[0];
    let field = slab
        .scalar("temperature")
        .expect("xrage carries temperature");
    let isovalue = cfg.front_isovalue(0);
    let plane = Plane::from_point_normal(slab.bounds().center(), Vec3::new(1.0, -0.6, 0.35));
    let [nx, ny, nz] = slab.dims();
    let label = format!("{nx}x{ny}x{nz}");

    let mut group = c.benchmark_group("extract");
    group.sample_size(15);
    group.measurement_time(Duration::from_secs(4));
    group.warm_up_time(Duration::from_millis(500));
    group.throughput(Throughput::Elements(slab.num_cells() as u64));
    let mut medians = Vec::new();
    let mut row = |name: &str, frame: &mut dyn FnMut()| {
        medians.push(median_of(&mut group, BenchmarkId::new(name, &label), frame));
    };
    row("count_above", &mut || {
        black_box(field.iter().filter(|&&v| v > isovalue).count());
    });
    row("extract_iso", &mut || {
        black_box(extract_isosurface(slab, "temperature", isovalue).expect("field present"));
    });
    row("extract_slice", &mut || {
        black_box(extract_slice(slab, "temperature", &plane).expect("field present"));
    });
    eprintln!(
        "  extract/{label}: iso {:.2}x, slice {:.2}x the counting pass ({:.2} ms)",
        medians[1] / medians[0],
        medians[2] / medians[0],
        medians[0] * 1e3,
    );
    group.finish();
}

/// `rasterize_mesh` on the two isosurface meshes the ranks of the
/// `xrage.iso.intercore` workload draw per frame (192³, seed 1, step 0, two
/// slabs, 512²), on one and on two threads, beside the floor it cannot
/// beat: project every vertex once and clear one `Framebuffer`. The last
/// line per slab prints each thread count's median as a multiple of that
/// floor's; the two-thread row must not be the slower one.
fn bench_raster(c: &mut Criterion) {
    let cfg = XrageConfig {
        dims: [192, 192, 192],
        seed: 1,
        ..Default::default()
    };
    let whole = cfg.generate(0).expect("xrage generates");
    let isovalue = cfg.front_isovalue(0);
    let camera = orbit_camera(&whole.bounds(), 512, 512, 0, 1);
    let tf = TransferFunction::fit(
        Colormap::Viridis,
        whole
            .scalar("temperature")
            .expect("xrage carries temperature"),
    );
    let lighting = Lighting::default();

    let mut group = c.benchmark_group("raster");
    group.sample_size(15);
    group.measurement_time(Duration::from_secs(4));
    group.warm_up_time(Duration::from_millis(500));
    for (r, slab) in partition_grid_slabs(&whole, 2)
        .expect("two slabs")
        .iter()
        .enumerate()
    {
        let (mesh, _) = extract_isosurface(slab, "temperature", isovalue).expect("field present");
        let label = format!("slab{r}-{}tris", mesh.num_triangles());
        group.throughput(Throughput::Elements(mesh.num_triangles() as u64));
        let mut medians = Vec::new();
        let mut row = |name: &str, frame: &mut dyn FnMut()| {
            medians.push(median_of(&mut group, BenchmarkId::new(name, &label), frame));
        };
        row("project_and_clear", &mut || {
            let projector = camera.projector();
            let mut sum = Vec3::ZERO;
            for &p in &mesh.positions {
                if let Some((fx, fy, depth)) = projector.project(p) {
                    sum += Vec3::new(fx, fy, depth);
                }
            }
            black_box(sum);
            black_box(Framebuffer::new(camera.width, camera.height, Vec3::ZERO));
        });
        for threads in [1usize, 2] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("the pool builder cannot fail");
            row(&format!("rasterize_{threads}t"), &mut || {
                pool.install(|| {
                    black_box(rasterize_mesh(&mesh, &tf, &camera, &lighting, Vec3::ZERO));
                });
            });
        }
        eprintln!(
            "  raster/{label}: 1 thread {:.2}x, 2 threads {:.2}x project-and-clear ({:.2} ms); \
             2 threads / 1 thread = {:.2}",
            medians[1] / medians[0],
            medians[2] / medians[0],
            medians[0] * 1e3,
            medians[2] / medians[1],
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_build,
    bench_frame,
    bench_workload_ranks,
    bench_particles,
    bench_extract,
    bench_raster
);
criterion_main!(benches);
