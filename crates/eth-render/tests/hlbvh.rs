//! Integration contracts for the HLBVH render hot path (DESIGN.md §14):
//! frames are byte-identical however many threads build and render them.

use eth_data::{PointCloud, Vec3};
use eth_render::camera::Camera;
use eth_render::color::{Colormap, TransferFunction};
use eth_render::ray::sphere::SphereRaycaster;
use eth_render::shading::Lighting;
use eth_render::Scratch;

/// Deterministic scatter in [-1, 1]³.
fn scatter(n: usize, seed: u64) -> Vec<Vec3> {
    let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    let mut rnd = move || {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((s >> 33) as f64 / (1u64 << 31) as f64) as f32 * 2.0 - 1.0
    };
    (0..n).map(|_| Vec3::new(rnd(), rnd(), rnd())).collect()
}

fn cam(w: usize, h: usize) -> Camera {
    Camera::look_at(
        Vec3::new(0.0, -3.2, 0.6),
        Vec3::ZERO,
        Vec3::new(0.0, 0.0, 1.0),
        45.0,
        w,
        h,
    )
}

fn tf() -> TransferFunction {
    TransferFunction::new(Colormap::Viridis, 0.0, 4.0)
}

#[test]
fn frames_are_identical_across_thread_counts() {
    let cloud = PointCloud::from_positions(scatter(20_000, 3));
    let rc = SphereRaycaster::build(&cloud, None, 0.01, &mut Scratch::new());
    let camera = cam(128, 96);
    let lighting = Lighting::default();
    let (reference, _) = rc.render(&camera, &tf(), &lighting, Vec3::ZERO, &mut Scratch::new());

    // one worker thread
    let pool = rayon::ThreadPoolBuilder::new().num_threads(1).build().unwrap();
    let (serial, _) = pool.install(|| {
        let rc1 = SphereRaycaster::build(&cloud, None, 0.01, &mut Scratch::new());
        rc1.render(&camera, &tf(), &lighting, Vec3::ZERO, &mut Scratch::new())
    });
    assert_eq!(reference, serial, "thread count leaked into the image");
}

#[test]
fn hlbvh_build_is_reproducible_for_large_scatters() {
    // Bigger than any unit-test scene: radix sort + treelet emission must
    // be deterministic run to run at full parallelism.
    let centers = scatter(120_000, 9);
    let a = eth_render::ray::bvh::SphereBvh::build(&centers, 0.01);
    let b = eth_render::ray::bvh::SphereBvh::build(&centers, 0.01);
    assert_eq!(a.num_nodes(), b.num_nodes());
    let camera = cam(64, 48);
    let cloud = PointCloud::from_positions(centers);
    let rc = SphereRaycaster::build(&cloud, None, 0.01, &mut Scratch::new());
    let lighting = Lighting::default();
    let (f1, _) = rc.render(&camera, &tf(), &lighting, Vec3::ZERO, &mut Scratch::new());
    let (f2, _) = rc.render(&camera, &tf(), &lighting, Vec3::ZERO, &mut Scratch::new());
    assert_eq!(f1, f2);
}
