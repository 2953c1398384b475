//! Render hot path: HLBVH vs median-split build times, tiled
//! packet-traversal frame times, and the two particle rasterizers, the two
//! grid extraction filters and the triangle rasterizer, each beside its
//! hardware reference (DESIGN.md §14, §19). The JSON-report variant with
//! acceptance gates is `reproduce render-bench`; this is the
//! statistics-grade criterion view of the same loops.

use criterion::{
    black_box, criterion_group, criterion_main, BenchmarkGroup, BenchmarkId, Criterion, Throughput,
};
use eth_bench::render::scatter;
use eth_core::config::{orbit_camera, Application};
use eth_data::partition::partition_grid_slabs;
use eth_data::{PointCloud, Vec3};
use eth_render::camera::Camera;
use eth_render::color::{Colormap, TransferFunction};
use eth_render::geometry::marching_cubes::extract_isosurface;
use eth_render::geometry::slice::extract_slice;
use eth_render::geometry::Plane;
use eth_render::raster::points::render_points;
use eth_render::raster::splat::render_splats;
use eth_render::raster::triangle::rasterize_mesh;
use eth_render::ray::bvh::SphereBvh;
use eth_render::ray::sphere::SphereRaycaster;
use eth_render::shading::Lighting;
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
    bench_particles,
    bench_extract,
    bench_raster
);
criterion_main!(benches);
