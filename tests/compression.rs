//! Integration tests for transport compression (the extension covering the
//! paper's third data-reduction technique).

use eth::core::config::{Algorithm, Application, Coupling, ExperimentSpec};
use eth::core::harness::run_native;
use eth::data::compress;
use eth::data::DataObject;
use eth::sim::HaccConfig;

fn spec(name: &str, compressed: bool) -> ExperimentSpec {
    let mut spec = ExperimentSpec::builder(name)
        .application(Application::Hacc { particles: 6_000 })
        .algorithm(Algorithm::GaussianSplat)
        .coupling(Coupling::Internode)
        .ranks(2)
        .image_size(64, 64)
        .build()
        .unwrap();
    if compressed {
        spec.wire_compression = compress::Codec::Quantize;
    }
    spec
}

#[test]
fn compressed_internode_moves_fewer_bytes() {
    let raw = run_native(&spec("comp-off", false)).unwrap();
    let packed = run_native(&spec("comp-on", true)).unwrap();
    assert!(
        packed.bytes_moved < raw.bytes_moved * 3 / 4,
        "compression saved too little: {} vs {}",
        packed.bytes_moved,
        raw.bytes_moved
    );
}

#[test]
fn compressed_transport_barely_changes_the_image() {
    let raw = run_native(&spec("q-off", false)).unwrap();
    let packed = run_native(&spec("q-on", true)).unwrap();
    let rmse = packed.images[0].rmse(&raw.images[0]).unwrap();
    let ssim = packed.images[0].ssim(&raw.images[0]).unwrap();
    assert!(rmse < 0.05, "quantization visibly damaged the image: {rmse}");
    assert!(ssim > 0.9, "structural damage from quantization: {ssim}");
    // …but it is lossy: the images are not bit-identical
    assert!(rmse > 0.0);
}

#[test]
fn compression_error_bound_scales_with_extent() {
    let cloud = HaccConfig::with_particles(3_000).generate(0).unwrap();
    let obj = DataObject::Points(cloud.clone());
    let back = compress::decompress(compress::compress(&obj)).unwrap();
    let b = back.as_points().unwrap();
    let extent = cloud.bounds().extent().max_component();
    let bound = extent * 1.5 / 65535.0;
    let worst = cloud
        .positions()
        .iter()
        .zip(b.positions())
        .map(|(p, q)| (*p - *q).length())
        .fold(0.0f32, f32::max);
    assert!(worst <= bound * 2.0, "worst error {worst} vs bound {bound}");
}

#[test]
fn tight_coupling_ignores_compression_flag() {
    let mut a = spec("tight-a", false);
    a.coupling = Coupling::Tight;
    let mut b = spec("tight-b", true);
    b.coupling = Coupling::Tight;
    let ra = run_native(&a).unwrap();
    let rb = run_native(&b).unwrap();
    // data never crosses a process boundary: images bit-identical
    assert_eq!(ra.images[0].rmse(&rb.images[0]).unwrap(), 0.0);
}
