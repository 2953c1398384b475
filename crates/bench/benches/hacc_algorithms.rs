//! Table I (native): the three HACC particle renderers on identical data.
//!
//! Times one full-frame render per algorithm at a laptop-scale particle
//! count. The paper-scale Table I is regenerated by `reproduce table1`;
//! this bench verifies the underlying kernel costs on this machine.

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
    let particles = 200_000;
    let cloud = HaccConfig::with_particles(particles).generate(0).unwrap();
    let camera = orbit_camera(&cloud.bounds(), 256, 256, 0, 1);
    let tf = TransferFunction::new(Colormap::Viridis, 0.0, 3.0);
    let lighting = Lighting::default();
    let bg = Vec3::ZERO;
    let radius = 0.002;

    let mut group = c.benchmark_group("table1_hacc_algorithms");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.throughput(Throughput::Elements(particles as u64));

    group.bench_function(BenchmarkId::from_parameter("vtk_points"), |b| {
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
    group.bench_function(BenchmarkId::from_parameter("gaussian_splat"), |b| {
        b.iter(|| {
            render_splats(
                &cloud,
                Some("density"),
                &tf,
                &camera,
                &lighting,
                bg,
                radius,
                &mut Scratch::new(),
            )
        })
    });
    group.bench_function(BenchmarkId::from_parameter("raycast_spheres_build"), |b| {
        b.iter(|| SphereRaycaster::build(&cloud, Some("density"), radius, &mut Scratch::new()))
    });
    let rc = SphereRaycaster::build(&cloud, Some("density"), radius, &mut Scratch::new());
    group.bench_function(BenchmarkId::from_parameter("raycast_spheres_render"), |b| {
        b.iter(|| rc.render(&camera, &tf, &lighting, bg, &mut Scratch::new()))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
