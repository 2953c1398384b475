//! Figure 12 (native): the two xRAGE isosurface backends plus the two
//! slice backends on identical grid data.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use eth_core::config::orbit_camera;
use eth_render::color::{Colormap, TransferFunction};
use eth_render::geometry::marching_cubes::extract_isosurface;
use eth_render::geometry::slice::{extract_slice, Plane};
use eth_render::raster::triangle::rasterize_mesh;
use eth_render::ray::plane::render_slices;
use eth_render::ray::raymarch::render_isosurface;
use eth_render::shading::Lighting;
use eth_render::Scratch;
use eth_sim::XrageConfig;
use eth_data::Vec3;

fn bench(c: &mut Criterion) {
    let cfg = XrageConfig::with_dims([64, 48, 40]);
    let grid = cfg.generate(2).unwrap();
    let iso = cfg.front_isovalue(2);
    let camera = orbit_camera(&grid.bounds(), 192, 192, 0, 1);
    let tf = TransferFunction::new(Colormap::Hot, 300.0, 5000.0);
    let lighting = Lighting::default();
    let bg = Vec3::ZERO;
    let planes = [Plane::axis_aligned(0, 0.9), Plane::axis_aligned(2, 0.7)];

    let mut group = c.benchmark_group("fig12_xrage_algorithms");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.bench_function(BenchmarkId::from_parameter("vtk_isosurface"), |b| {
        b.iter(|| {
            let (mesh, _) = extract_isosurface(&grid, "temperature", iso).unwrap();
            rasterize_mesh(&mesh, &tf, &camera, &lighting, bg, &mut Scratch::new())
        })
    });
    group.bench_function(BenchmarkId::from_parameter("raycast_isosurface"), |b| {
        b.iter(|| {
            render_isosurface(
                &grid,
                "temperature",
                iso,
                &camera,
                &tf,
                &lighting,
                bg,
                &mut Scratch::new(),
            )
            .unwrap()
        })
    });
    group.bench_function(BenchmarkId::from_parameter("vtk_slice"), |b| {
        b.iter(|| {
            let mut mesh = eth_render::geometry::TriangleMesh::new();
            for p in &planes {
                let (m, _) = extract_slice(&grid, "temperature", p, &mut Scratch::new()).unwrap();
                mesh.append(&m);
            }
            rasterize_mesh(&mesh, &tf, &camera, &lighting, bg, &mut Scratch::new())
        })
    });
    group.bench_function(BenchmarkId::from_parameter("raycast_slice"), |b| {
        b.iter(|| {
            render_slices(
                &grid,
                "temperature",
                &planes,
                &camera,
                &tf,
                bg,
                &mut Scratch::new(),
            )
            .unwrap()
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
