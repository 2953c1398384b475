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
use std::time::Instant;

/// Size knobs for the calibration pass.
#[derive(Debug, Clone, Copy)]
pub struct CalibrationBudget {
    pub particles: usize,
    pub grid_side: usize,
    pub image_side: usize,
}

impl CalibrationBudget {
    /// Fast pass (sub-second) used by tests and default tooling.
    pub fn quick() -> CalibrationBudget {
        CalibrationBudget {
            particles: 60_000,
            grid_side: 32,
            image_side: 128,
        }
    }

    /// Longer pass for the `reproduce` binary.
    pub fn standard() -> CalibrationBudget {
        CalibrationBudget {
            particles: 400_000,
            grid_side: 64,
            image_side: 256,
        }
    }
}

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

/// Measure this host's kernel rates, returning a calibration whose rate
/// fields reflect the machine and whose shape fields keep their defaults.
pub fn measure(budget: CalibrationBudget) -> Calibration {
    let mut cal = Calibration::default();
    let cloud = test_cloud(budget.particles);
    let grid = test_grid(budget.grid_side);
    let camera = orbit_camera(&cloud.bounds(), budget.image_side, budget.image_side, 0, 1);
    let gcam = orbit_camera(&grid.bounds(), budget.image_side, budget.image_side, 0, 1);
    let tf = TransferFunction::new(Colormap::Viridis, 0.0, 96.0);
    let lighting = Lighting::default();
    let bg = Vec3::ZERO;

    // VTK points (per-particle rate; the 3x3 block cost is inside it)
    let t = Instant::now();
    let (_, ps) = render_points(&cloud, Some("density"), &tf, &camera, bg, 3);
    cal.vtk_points_per_sec = rate(ps.points_in as f64, t.elapsed().as_secs_f64());

    // Gaussian splat at the at-scale regime (sub-pixel impostors)
    let t = Instant::now();
    let (_, ss) = render_splats(&cloud, Some("density"), &tf, &camera, &lighting, bg, 0.002);
    cal.splat_points_per_sec = rate(ss.points_in as f64, t.elapsed().as_secs_f64());

    // BVH build + sphere raycast
    let t = Instant::now();
    let rc = SphereRaycaster::build(&cloud, Some("density"), 0.004);
    cal.bvh_build_ops_per_sec = rate(rc.build_ops() as f64, t.elapsed().as_secs_f64());
    let t = Instant::now();
    let (_, rs) = rc.render(&camera, &tf, &lighting, bg);
    cal.ray_steps_per_sec = rate(rs.traversal_steps as f64, t.elapsed().as_secs_f64());

    // Marching cubes scan
    let t = Instant::now();
    let (mesh, is) = extract_isosurface(&grid, "temperature", 0.0).unwrap();
    cal.cell_scans_per_sec = rate(is.cells_scanned as f64, t.elapsed().as_secs_f64());

    // Triangle rasterization
    let t = Instant::now();
    let (_, ts) = eth_render::raster::triangle::rasterize_mesh(&mesh, &tf, &gcam, &lighting, bg);
    cal.tris_per_sec = rate(ts.triangles_rasterized as f64, t.elapsed().as_secs_f64());

    // Ray marching
    let t = Instant::now();
    let (_, ms) =
        render_isosurface(&grid, "temperature", 0.0, &gcam, &tf, &lighting, bg).unwrap();
    cal.march_steps_per_sec = rate(ms.march_steps as f64, t.elapsed().as_secs_f64());

    // Plane slicing
    let t = Instant::now();
    let planes = [Plane::axis_aligned(2, 0.5)];
    let (_, pl) = render_slices(&grid, "temperature", &planes, &gcam, &tf, bg).unwrap();
    cal.plane_samples_per_sec = rate(pl.plane_tests as f64, t.elapsed().as_secs_f64());

    // Compositing (pure pixel merges)
    let t = Instant::now();
    let buffers: Vec<_> = (0..8)
        .map(|i| {
            let mut fb = eth_render::Framebuffer::new(
                budget.image_side,
                budget.image_side,
                bg,
            );
            fb.write(i * 3, i, 1.0 + i as f32, Vec3::ONE);
            fb
        })
        .collect();
    let (_, cs) = eth_render::composite::composite_direct(buffers);
    cal.composite_pixels_per_sec = rate(cs.merge_ops as f64, t.elapsed().as_secs_f64());

    // Simulation-proxy staging rate: serialize + deserialize a block.
    let t = Instant::now();
    let obj = eth_data::DataObject::Points(cloud.clone());
    let bytes = eth_data::io::binary::encode(&obj);
    let payload = bytes.len() as f64;
    let _ = eth_data::io::binary::decode(bytes).unwrap();
    cal.sim_bytes_per_sec = rate(payload * 2.0, t.elapsed().as_secs_f64());

    cal
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_calibration_produces_sane_rates() {
        let cal = measure(CalibrationBudget::quick());
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
        // ANY positive rates:
        //  * splat beats points (its per-particle work is a strict subset),
        //  * raycasting's time grows sub-linearly with data while the
        //    rasterizers grow linearly.
        use eth_cluster::costmodel::{AlgorithmClass, CostModel, Workload};
        use eth_cluster::node::ClusterSpec;
        let cal = measure(CalibrationBudget::quick());
        let m = CostModel::new(cal, ClusterSpec::hikari(400));
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
