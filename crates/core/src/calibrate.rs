//! Kernel-rate calibration.
//!
//! The cluster model's [`Calibration`] constants are *rates* (operations
//! per second per node). This module measures them by running the real
//! kernels from `eth-render` on synthetic data and dividing the counted
//! operations by the wall time. The measured host stands in for one
//! Hikari node; since every figure the harness reproduces is a ratio or an
//! ordering, the absolute host speed cancels out.
//!
//! Shape parameters (utilization exponent, contention coefficient) are
//! *not* re-fit here — they encode cluster-level behaviour fitted to the
//! paper's published numbers and are documented in `eth-cluster`.

use crate::config::orbit_camera;
use eth_cluster::costmodel::Calibration;
use eth_data::field::Attribute;
use eth_data::{PointCloud, UniformGrid, Vec3};
use eth_render::color::{Colormap, TransferFunction};
use eth_render::geometry::marching_cubes::extract_isosurface;
use eth_render::geometry::slice::Plane;
use eth_render::raster::points::render_points;
use eth_render::raster::splat::render_splats;
use eth_render::ray::plane::render_slices;
use eth_render::ray::raymarch::render_isosurface;
use eth_render::ray::sphere::SphereRaycaster;
use eth_render::shading::Lighting;
use eth_render::Scratch;
use std::time::Instant;

/// Particles in the calibration cloud: a sub-second pass.
const PARTICLES: usize = 60_000;
/// Vertices along each side of the calibration grid.
const GRID_SIDE: usize = 32;
/// Width and height of every calibration frame.
const IMAGE_SIDE: usize = 128;

fn test_cloud(n: usize) -> PointCloud {
    let mut pos = Vec::with_capacity(n);
    let mut s = 0x12345678u64;
    for _ in 0..n {
        let mut f = || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 33) as f64 / (1u64 << 31) as f64) as f32
        };
        pos.push(Vec3::new(f(), f(), f()));
    }
    let mut c = PointCloud::from_positions(pos);
    let d: Vec<f32> = (0..n).map(|i| (i % 97) as f32).collect();
    c.set_attribute("density", Attribute::Scalar(d.into())).unwrap();
    c
}

fn test_grid(side: usize) -> UniformGrid {
    let mut g = UniformGrid::new(
        [side, side, side],
        Vec3::ZERO,
        Vec3::splat(1.0 / (side - 1) as f32),
    )
    .unwrap();
    let mut vals = Vec::with_capacity(side * side * side);
    for k in 0..side {
        for j in 0..side {
            for i in 0..side {
                let p = g.vertex_position(i, j, k);
                vals.push(0.4 - (p - Vec3::splat(0.5)).length());
            }
        }
    }
    g.set_attribute("temperature", Attribute::Scalar(vals.into())).unwrap();
    g
}

/// Rate = ops / seconds, floored so a pathological timer cannot produce
/// zero or negative rates.
fn rate(ops: f64, seconds: f64) -> f64 {
    (ops / seconds.max(1e-9)).max(1.0)
}

/// Timed calls per kernel, after one untimed warm-up call; a kernel's time
/// is the fastest of them.
const ROUNDS: usize = 5;

/// One calibrated kernel: a call runs it once and returns the operations
/// it counted.
type Kernel<'a> = Box<dyn FnMut() -> f64 + 'a>;

/// Time every kernel as the best of [`ROUNDS`] warm calls on one thread,
/// the kernels interleaved round by round, and return each one's
/// `ops / seconds`. The warm-up round pays the cold caches, page faults
/// and allocator growth the timed rounds do not; a burst of load from
/// elsewhere lands on one call of each kernel, not on every call of one;
/// and one thread keeps the shim's per-call thread spawns, which are
/// most of a millisecond-long call on two threads, out of every rate. A
/// rate is a kernel's steady state per core on this host, all of them
/// measured under the same conditions.
fn steady_rates<const K: usize>(mut kernels: [Kernel<'_>; K]) -> [f64; K] {
    let one = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("the pool builder cannot fail");
    let mut best = [(0.0, f64::INFINITY); K];
    one.install(|| {
        for round in 0..=ROUNDS {
            for (kernel, best) in kernels.iter_mut().zip(&mut best) {
                let t = Instant::now();
                let ops = kernel();
                let seconds = t.elapsed().as_secs_f64();
                if round > 0 && seconds < best.1 {
                    *best = (ops, seconds);
                }
            }
        }
    });
    best.map(|(ops, seconds)| rate(ops, seconds))
}

/// Measure this host's kernel rates, returning a calibration whose rate
/// fields reflect the machine and whose shape fields keep their defaults.
pub fn measure() -> Calibration {
    let cloud = test_cloud(PARTICLES);
    let grid = test_grid(GRID_SIDE);
    let camera = orbit_camera(&cloud.bounds(), IMAGE_SIDE, IMAGE_SIDE, 0, 1);
    let gcam = orbit_camera(&grid.bounds(), IMAGE_SIDE, IMAGE_SIDE, 0, 1);
    let tf = TransferFunction::new(Colormap::Viridis, 0.0, 96.0);
    let lighting = Lighting::default();
    let bg = Vec3::ZERO;
    // what the raycast, triangle and compositing kernels consume is built
    // once, outside their timings
    let rc = SphereRaycaster::build(&cloud, Some("density"), 0.004, &mut Scratch::new());
    let (mesh, _) = extract_isosurface(&grid, "temperature", 0.0).unwrap();
    let planes = [Plane::axis_aligned(2, 0.5)];
    let buffers: Vec<_> = (0..8)
        .map(|i| {
            let mut fb = eth_render::Framebuffer::new(IMAGE_SIDE, IMAGE_SIDE, bg);
            fb.write(i * 3, i, 1.0 + i as f32, Vec3::ONE);
            fb
        })
        .collect();
    let obj = eth_data::DataObject::Points(cloud.clone());

    let [points, splats, build, rays, cells, tris, march, slices, composite, staging] =
        steady_rates([
            // VTK points (per-particle rate; 3x3 blocks, so the separable
            // block minimum's per-pixel passes are inside it)
            Box::new(|| {
                let (_, ps) = render_points(
                    &cloud,
                    Some("density"),
                    &tf,
                    &camera,
                    bg,
                    3,
                    &mut Scratch::new(),
                );
                ps.points_in as f64
            }),
            // Gaussian splat at the at-scale regime (sub-pixel impostors)
            Box::new(|| {
                let (_, ss) = render_splats(
                    &cloud,
                    Some("density"),
                    &tf,
                    &camera,
                    &lighting,
                    bg,
                    0.002,
                    &mut Scratch::new(),
                );
                ss.points_in as f64
            }),
            // BVH build
            Box::new(|| {
                SphereRaycaster::build(&cloud, Some("density"), 0.004, &mut Scratch::new())
                    .build_ops() as f64
            }),
            // sphere raycast
            Box::new(|| {
                rc.render(&camera, &tf, &lighting, bg, &mut Scratch::new())
                    .1
                    .traversal_steps as f64
            }),
            // marching cubes scan
            Box::new(|| {
                let (_, is) = extract_isosurface(&grid, "temperature", 0.0).unwrap();
                is.cells_scanned as f64
            }),
            // triangle rasterization
            Box::new(|| {
                let (_, ts) = eth_render::raster::triangle::rasterize_mesh(
                    &mesh,
                    &tf,
                    &gcam,
                    &lighting,
                    bg,
                    &mut Scratch::new(),
                );
                ts.triangles_rasterized as f64
            }),
            // ray marching
            Box::new(|| {
                let (_, ms) = render_isosurface(
                    &grid,
                    "temperature",
                    0.0,
                    &gcam,
                    &tf,
                    &lighting,
                    bg,
                    &mut Scratch::new(),
                )
                .unwrap();
                ms.march_steps as f64
            }),
            // plane slicing
            Box::new(|| {
                let (_, pl) = render_slices(
                    &grid,
                    "temperature",
                    &planes,
                    &gcam,
                    &tf,
                    bg,
                    &mut Scratch::new(),
                )
                .unwrap();
                pl.plane_tests as f64
            }),
            // compositing (pure pixel merges)
            Box::new(|| {
                let (_, cs) = eth_render::composite::composite_direct(buffers.clone());
                cs.merge_ops as f64
            }),
            // simulation-proxy staging rate: serialize + deserialize a block
            Box::new(|| {
                let bytes = eth_data::io::binary::encode(&obj);
                let payload = bytes.len() as f64;
                let _ = eth_data::io::binary::decode(bytes).unwrap();
                payload * 2.0
            }),
        ]);
    Calibration {
        vtk_points_per_sec: points,
        splat_points_per_sec: splats,
        bvh_build_ops_per_sec: build,
        ray_steps_per_sec: rays,
        cell_scans_per_sec: cells,
        tris_per_sec: tris,
        march_steps_per_sec: march,
        plane_samples_per_sec: slices,
        composite_pixels_per_sec: composite,
        sim_bytes_per_sec: staging,
        ..Calibration::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// One quick pass per test binary: both tests read the same rates, and
    /// no two passes contend for the cores they are timing.
    fn quick() -> Calibration {
        static QUICK: OnceLock<Calibration> = OnceLock::new();
        *QUICK.get_or_init(measure)
    }

    #[test]
    fn quick_calibration_produces_sane_rates() {
        let cal = quick();
        // every rate is positive and finite
        for (name, v) in [
            ("vtk_points", cal.vtk_points_per_sec),
            ("splat_points", cal.splat_points_per_sec),
            ("bvh_build", cal.bvh_build_ops_per_sec),
            ("ray_steps", cal.ray_steps_per_sec),
            ("cell_scans", cal.cell_scans_per_sec),
            ("tris", cal.tris_per_sec),
            ("march_steps", cal.march_steps_per_sec),
            ("plane_samples", cal.plane_samples_per_sec),
            ("composite", cal.composite_pixels_per_sec),
            ("sim_bytes", cal.sim_bytes_per_sec),
        ] {
            assert!(v.is_finite() && v > 100.0, "{name} rate {v}");
        }
        // shape parameters untouched
        let d = Calibration::default();
        assert_eq!(cal.utilization_exponent, d.utilization_exponent);
        assert_eq!(
            cal.geometry_contention_s_per_node,
            d.geometry_contention_s_per_node
        );
        assert_eq!(cal.ray_steps_per_log_n, d.ray_steps_per_log_n);
    }

    #[test]
    fn calibrated_model_keeps_structural_shapes() {
        // Host-measured rates vary wildly with build profile and machine
        // load, and the paper's own Finding 3 says the points-vs-raycast
        // ordering depends on rates and problem size. What must survive
        // on any host:
        //  * splat beats points. Both project every particle and store one
        //    key; points then spreads its keys over 3x3 blocks in two
        //    per-pixel passes, which the sub-pixel splats skip. That is a
        //    measured ordering (DESIGN.md §14), not a strict subset of
        //    work, and it holds at steady state: best of five warm calls
        //    each on one thread, the kernels interleaved, so one cold call
        //    or one burst of load elsewhere cannot decide it;
        //  * raycasting's time grows sub-linearly with data while the
        //    rasterizers grow linearly.
        use eth_cluster::costmodel::{AlgorithmClass, CostModel, Workload};
        use eth_cluster::node::ClusterSpec;
        let m = CostModel::new(quick(), ClusterSpec::hikari(400));
        let w = |elements: u64| Workload {
            global_elements: elements,
            image_pixels: 512 * 512,
            images_per_step: 500,
            steps: 1,
            bytes_per_element: 32,
            sampling_ratio: 1.0,
            planes: 0,
            sim_ops_per_element: 0.0,
        };
        let t = |alg, elements| m.viz_phase(alg, &w(elements), 400).seconds;
        let b = 1_000_000_000u64;
        assert!(
            t(AlgorithmClass::GaussianSplat, b) < t(AlgorithmClass::VtkPoints, b),
            "splat must beat points under host calibration"
        );
        let points_growth = t(AlgorithmClass::VtkPoints, b) / t(AlgorithmClass::VtkPoints, b / 4);
        let ray_growth =
            t(AlgorithmClass::RaycastSpheres, b) / t(AlgorithmClass::RaycastSpheres, b / 4);
        assert!(points_growth > 3.5, "points growth {points_growth}");
        assert!(
            ray_growth < points_growth * 0.75,
            "raycast growth {ray_growth} should be clearly sub-linear vs {points_growth}"
        );
    }
}
