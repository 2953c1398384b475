//! Figure 8 (native): execution time vs data size for the three HACC
//! renderers. Geometry renderers should scale ~linearly with particle
//! count; the raycaster's render phase should be nearly flat (its cost is
//! ray-bound), with only the BVH build growing.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use eth_core::config::orbit_camera;
use eth_render::color::{Colormap, TransferFunction};
use eth_render::raster::points::render_points;
use eth_render::raster::splat::render_splats;
use eth_render::ray::sphere::SphereRaycaster;
use eth_render::shading::Lighting;
use eth_render::Scratch;
use eth_sim::HaccConfig;
use eth_data::Vec3;

fn bench(c: &mut Criterion) {
    let sizes = [50_000usize, 100_000, 200_000];
    let tf = TransferFunction::new(Colormap::Viridis, 0.0, 3.0);
    let lighting = Lighting::default();
    let bg = Vec3::ZERO;

    let mut group = c.benchmark_group("fig8_hacc_scaling");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for &n in &sizes {
        let cloud = HaccConfig::with_particles(n).generate(0).unwrap();
        let camera = orbit_camera(&cloud.bounds(), 192, 192, 0, 1);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("vtk_points", n), &n, |b, _| {
            b.iter(|| {
                render_points(
                    &cloud,
                    Some("density"),
                    &tf,
                    &camera,
                    bg,
                    3,
                    &mut Scratch::new(),
                )
            })
        });
        group.bench_with_input(BenchmarkId::new("gaussian_splat", n), &n, |b, _| {
            b.iter(|| {
                render_splats(
                    &cloud,
                    Some("density"),
                    &tf,
                    &camera,
                    &lighting,
                    bg,
                    0.002,
                    &mut Scratch::new(),
                )
            })
        });
        let rc = SphereRaycaster::build(&cloud, Some("density"), 0.002, &mut Scratch::new());
        group.bench_with_input(BenchmarkId::new("raycast_render", n), &n, |b, _| {
            b.iter(|| rc.render(&camera, &tf, &lighting, bg, &mut Scratch::new()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
