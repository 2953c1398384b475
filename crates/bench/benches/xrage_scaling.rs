//! Figures 13 & 15 (native): xRAGE backends vs problem size.
//!
//! The geometry pipeline's extraction scan grows with the cell count while
//! the ray-marcher's per-ray cost grows only with the 1/3 power — the
//! slope difference behind both figures.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use eth_core::config::orbit_camera;
use eth_render::color::{Colormap, TransferFunction};
use eth_render::geometry::marching_cubes::extract_isosurface;
use eth_render::raster::triangle::rasterize_mesh;
use eth_render::ray::raymarch::render_isosurface;
use eth_render::shading::Lighting;
use eth_render::Scratch;
use eth_sim::XrageConfig;
use eth_data::Vec3;

fn bench(c: &mut Criterion) {
    // ~27x cell range, mirroring the paper's small->large ratio
    let sides = [[24usize, 20, 16], [48, 40, 32], [72, 60, 48]];
    let tf = TransferFunction::new(Colormap::Hot, 300.0, 5000.0);
    let lighting = Lighting::default();
    let bg = Vec3::ZERO;

    let mut group = c.benchmark_group("fig13_xrage_scaling");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for dims in sides {
        let cfg = XrageConfig::with_dims(dims);
        let grid = cfg.generate(2).unwrap();
        let iso = cfg.front_isovalue(2);
        let camera = orbit_camera(&grid.bounds(), 160, 160, 0, 1);
        let cells = (dims[0] * dims[1] * dims[2]) as u64;
        group.throughput(Throughput::Elements(cells));
        group.bench_with_input(BenchmarkId::new("vtk_isosurface", cells), &cells, |b, _| {
            b.iter(|| {
                let (mesh, _) = extract_isosurface(&grid, "temperature", iso).unwrap();
                rasterize_mesh(&mesh, &tf, &camera, &lighting, bg, &mut Scratch::new())
            })
        });
        group.bench_with_input(
            BenchmarkId::new("raycast_isosurface", cells),
            &cells,
            |b, _| {
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
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
