//! Table II / Figure 9 (native): rendering cost under spatial sampling.
//!
//! Measures the sample+render pipeline at the paper's sampling ratios; the
//! time should fall roughly with the ratio for the geometry renderers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use eth_core::config::orbit_camera;
use eth_data::sampling::{sample_points, SamplingSpec};
use eth_data::Fields;
use eth_render::color::{Colormap, TransferFunction};
use eth_render::raster::splat::render_splats;
use eth_render::shading::Lighting;
use eth_render::Scratch;
use eth_sim::HaccConfig;
use eth_data::Vec3;

fn bench(c: &mut Criterion) {
    let cloud = HaccConfig::with_particles(150_000).generate(0).unwrap();
    let camera = orbit_camera(&cloud.bounds(), 256, 256, 0, 1);
    let tf = TransferFunction::new(Colormap::Viridis, 0.0, 3.0);
    let lighting = Lighting::default();

    let mut group = c.benchmark_group("table2_sampling");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for ratio in [1.0f64, 0.75, 0.5, 0.25] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("ratio_{ratio:.2}")),
            &ratio,
            |b, &ratio| {
                let spec = SamplingSpec::new(ratio, 42).unwrap();
                b.iter(|| {
                    let sampled = sample_points(&cloud, &spec, Fields::Only(Some("density"))).unwrap();
                    render_splats(
                        &sampled,
                        Some("density"),
                        &tf,
                        &camera,
                        &lighting,
                        Vec3::ZERO,
                        0.002,
                        &mut Scratch::new(),
                    )
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
