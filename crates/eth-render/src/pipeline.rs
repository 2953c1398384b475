//! Unified render-pipeline dispatch.
//!
//! The harness configures an experiment with a [`RenderAlgorithm`] (the
//! paper's rendering-pipeline axis, Figure 6) and calls [`render`] with any
//! [`DataObject`]; the dispatcher routes to the right backend, normalizes
//! statistics into a single [`RenderStats`], and measures wall time of the
//! build and render phases separately (the split Figure 8 depends on).

use crate::camera::Camera;
use crate::color::{Colormap, TransferFunction};
use crate::framebuffer::Framebuffer;
use crate::geometry::marching_cubes::extract_isosurface_in;
use crate::geometry::slice::{extract_slice, Plane};
use crate::raster::points::render_points;
use crate::raster::splat::render_splats;
use crate::raster::triangle::rasterize_mesh;
use crate::ray::plane::render_slices;
use crate::ray::raymarch::render_isosurface;
use crate::ray::sphere::SphereRaycaster;
use crate::scratch::Scratch;
use crate::shading::Lighting;
use eth_data::error::{DataError, Result};
use eth_data::{DataObject, Fields, Vec3};
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// The rendering-pipeline axis of the design space.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RenderAlgorithm {
    /// Geometry-based fixed-size point blocks (particle data).
    VtkPoints {
        /// Block edge in pixels (paper: "1 to 3 pixels on a side").
        point_size: usize,
    },
    /// Geometry-based sphere impostors (particle data).
    GaussianSplat {
        /// World-space particle radius.
        radius: f32,
    },
    /// Raycast spheres over a BVH (particle data).
    RaycastSpheres {
        /// World-space particle radius.
        radius: f32,
    },
    /// Marching-cubes extraction + triangle rasterization (grid data).
    VtkIsosurface { isovalue: f32 },
    /// Isosurface ray-marching (grid data).
    RaycastIsosurface { isovalue: f32 },
    /// Plane extraction + triangle rasterization (grid data).
    VtkSlice { planes: Vec<Plane> },
    /// O(1) ray/plane slicing (grid data).
    RaycastSlice { planes: Vec<Plane> },
}

impl RenderAlgorithm {
    /// Short identifier used in results tables.
    pub fn name(&self) -> &'static str {
        match self {
            RenderAlgorithm::VtkPoints { .. } => "vtk_points",
            RenderAlgorithm::GaussianSplat { .. } => "gaussian_splat",
            RenderAlgorithm::RaycastSpheres { .. } => "raycast_spheres",
            RenderAlgorithm::VtkIsosurface { .. } => "vtk_isosurface",
            RenderAlgorithm::RaycastIsosurface { .. } => "raycast_isosurface",
            RenderAlgorithm::VtkSlice { .. } => "vtk_slice",
            RenderAlgorithm::RaycastSlice { .. } => "raycast_slice",
        }
    }

    /// Does this algorithm belong to the geometry-based pipeline
    /// (as opposed to the geometry-free raycasting pipeline)?
    pub fn is_geometry_based(&self) -> bool {
        matches!(
            self,
            RenderAlgorithm::VtkPoints { .. }
                | RenderAlgorithm::GaussianSplat { .. }
                | RenderAlgorithm::VtkIsosurface { .. }
                | RenderAlgorithm::VtkSlice { .. }
        )
    }

    /// Does this algorithm accept the given data class?
    pub fn accepts(&self, obj: &DataObject) -> bool {
        match self {
            RenderAlgorithm::VtkPoints { .. }
            | RenderAlgorithm::GaussianSplat { .. }
            | RenderAlgorithm::RaycastSpheres { .. } => matches!(obj, DataObject::Points(_)),
            _ => matches!(obj, DataObject::Grid(_)),
        }
    }
}

/// What a caller sets for a frame: the colouring field and its range.
/// The colormap, the lighting ([`Lighting::default`]) and the background
/// are the same for every frame: no experiment varies them.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RenderOptions {
    /// Scalar attribute used for coloring; `None` colors by depth
    /// (particles) or requires a field anyway (grids error).
    pub scalar: Option<String>,
    /// Explicit transfer-function range; fitted from data when `None`.
    pub range: Option<(f32, f32)>,
}

const COLORMAP: Colormap = Colormap::Viridis;

/// The colour of a pixel no primitive covers.
const BACKGROUND: Vec3 = Vec3::ZERO;

impl RenderOptions {
    /// What a render under these options reads of a block: its geometry
    /// and the [`RenderOptions::scalar`] field, whatever the backend. No
    /// other attribute can change a pixel, and a block without the field
    /// colours by depth (particles) or fails (grids) alike.
    pub fn reads(&self) -> Fields<'_> {
        Fields::Only(self.scalar.as_deref())
    }
}

/// Normalized operation counts across all backends — ETH's equivalent of
/// the hardware performance counters TACC-stats collects on Hikari. These
/// feed the cluster-scale cost model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct RenderStats {
    /// Input elements (particles or grid vertices).
    pub elements: u64,
    /// Acceleration/extraction work before any pixel is shaded
    /// (BVH build ops, cells scanned).
    pub build_ops: u64,
    /// Intermediate geometry produced (triangles); 0 for geometry-free.
    pub triangles: u64,
    /// Rays cast; 0 for rasterization backends.
    pub rays: u64,
    /// Per-ray work: BVH traversal steps or march samples.
    pub ray_steps: u64,
    /// Fragment work. For the rasterizers: fragments rasterized inside
    /// the image, before the depth test — a function of the data and the
    /// camera alone, the same at any thread count and under any primitive
    /// order. For the raycasters: rays that hit.
    pub fragments: u64,
    /// Framebuffer tiles the sphere raycaster rendered; 0 for every other
    /// backend, including the tiled ray marcher and slicer.
    #[serde(default)]
    pub tiles: u64,
    /// Wall time of the build/extract phase.
    pub build_time: Duration,
    /// Wall time of the shading/rasterization phase.
    pub render_time: Duration,
}

/// Result of one frame.
pub struct RenderOutput {
    pub framebuffer: Framebuffer,
    pub stats: RenderStats,
}

/// Resolve the transfer function for a dataset/options pair.
fn transfer_function(obj: &DataObject, opts: &RenderOptions) -> TransferFunction {
    if let Some((lo, hi)) = opts.range {
        return TransferFunction::new(COLORMAP, lo, hi);
    }
    let values: Option<&[f32]> = match (obj, &opts.scalar) {
        (DataObject::Points(p), Some(name)) => p.scalar(name).ok(),
        (DataObject::Grid(g), Some(name)) => g.scalar(name).ok(),
        _ => None,
    };
    match values {
        Some(v) => TransferFunction::fit(COLORMAP, v),
        None => TransferFunction::new(COLORMAP, 0.0, 1.0),
    }
}

/// Render one frame of `obj` with `algorithm`: the one-camera case of
/// [`render_views`], for a caller with no [`Scratch`] of its own.
///
/// Errors when the algorithm and data class do not match (e.g. raycast
/// spheres on a grid) or when a required scalar field is missing.
pub fn render(
    obj: &DataObject,
    algorithm: &RenderAlgorithm,
    camera: &Camera,
    opts: &RenderOptions,
) -> Result<RenderOutput> {
    let scratch = &mut Scratch::new();
    let mut views = render_views(obj, algorithm, std::slice::from_ref(camera), opts, scratch)?;
    Ok(views.pop().expect("one output per camera"))
}

/// Render `obj` with `algorithm` once per camera, in order.
///
/// The raycaster's sphere BVH does not depend on the camera: it is built
/// once, inside the first view, whose [`RenderStats`] carry the build's
/// `build_ops` and `build_time` (the paper's "initial structure-generation
/// phase"; later views report 0). Every frame equals the one [`render`]
/// makes with the same camera.
///
/// Every buffer the views size by the block or the image is `scratch`'s;
/// the frames are too, until [`Scratch::recycle`] takes them back.
pub fn render_views(
    obj: &DataObject,
    algorithm: &RenderAlgorithm,
    cameras: &[Camera],
    opts: &RenderOptions,
    scratch: &mut Scratch,
) -> Result<Vec<RenderOutput>> {
    if !algorithm.accepts(obj) {
        return Err(DataError::InvalidArgument(format!(
            "algorithm '{}' cannot render '{}' data",
            algorithm.name(),
            obj.kind()
        )));
    }
    let tf = transfer_function(obj, opts);
    let mut raycaster = None;
    let views = cameras
        .iter()
        .map(|camera| render_view(obj, algorithm, camera, opts, &tf, &mut raycaster, scratch))
        .collect();
    if let Some(rc) = raycaster {
        scratch.recycle_tree(rc.into_tree());
    }
    views
}

/// One view of [`render_views`]; `raycaster` is the sphere structure the
/// views share, built by whichever comes first.
fn render_view<'a>(
    obj: &'a DataObject,
    algorithm: &RenderAlgorithm,
    camera: &Camera,
    opts: &RenderOptions,
    tf: &TransferFunction,
    raycaster: &mut Option<SphereRaycaster<'a>>,
    scratch: &mut Scratch,
) -> Result<RenderOutput> {
    let _span = eth_obs::span_bytes(eth_obs::Phase::Render, obj.payload_bytes() as u64);
    let scalar = opts.scalar.as_deref();
    let lighting = &Lighting::default();
    let mut stats = RenderStats {
        elements: obj.num_elements() as u64,
        ..Default::default()
    };

    let fb = match (algorithm, obj) {
        (RenderAlgorithm::VtkPoints { point_size }, DataObject::Points(cloud)) => {
            let t0 = Instant::now();
            let (fb, s) = render_points(
                cloud,
                scalar,
                tf,
                camera,
                BACKGROUND,
                *point_size,
                scratch,
            );
            stats.render_time = t0.elapsed();
            stats.fragments = s.fragments;
            fb
        }
        (RenderAlgorithm::GaussianSplat { radius }, DataObject::Points(cloud)) => {
            let t0 = Instant::now();
            let (fb, s) = render_splats(
                cloud,
                scalar,
                tf,
                camera,
                lighting,
                BACKGROUND,
                *radius,
                scratch,
            );
            stats.render_time = t0.elapsed();
            stats.fragments = s.fragments;
            fb
        }
        (RenderAlgorithm::RaycastSpheres { radius }, DataObject::Points(cloud)) => {
            let rc = raycaster.get_or_insert_with(|| {
                let t0 = Instant::now();
                let rc = SphereRaycaster::build(cloud, scalar, *radius, scratch);
                stats.build_time = t0.elapsed();
                stats.build_ops = rc.build_ops();
                rc
            });
            let t1 = Instant::now();
            let (fb, s) = rc.render(camera, tf, lighting, BACKGROUND, scratch);
            stats.render_time = t1.elapsed();
            stats.rays = s.rays;
            stats.ray_steps = s.traversal_steps;
            stats.fragments = s.hits;
            stats.tiles = s.tiles;
            fb
        }
        (RenderAlgorithm::VtkIsosurface { isovalue }, DataObject::Grid(grid)) => {
            let field = scalar.ok_or_else(|| {
                DataError::InvalidArgument("isosurface rendering needs options.scalar".into())
            })?;
            let t0 = Instant::now();
            let (mesh, s) = extract_isosurface_in(grid, field, *isovalue, scratch)?;
            stats.build_time = t0.elapsed();
            stats.build_ops = s.cells_scanned;
            stats.triangles = s.triangles;
            let t1 = Instant::now();
            let (fb, rs) =
                rasterize_mesh(&mesh, tf, camera, lighting, BACKGROUND, scratch);
            stats.render_time = t1.elapsed();
            stats.fragments = rs.fragments;
            scratch.recycle_mesh(mesh);
            fb
        }
        (RenderAlgorithm::RaycastIsosurface { isovalue }, DataObject::Grid(grid)) => {
            let field = scalar.ok_or_else(|| {
                DataError::InvalidArgument("isosurface rendering needs options.scalar".into())
            })?;
            let t0 = Instant::now();
            let (fb, s) = render_isosurface(
                grid,
                field,
                *isovalue,
                camera,
                tf,
                lighting,
                BACKGROUND,
                scratch,
            )?;
            stats.render_time = t0.elapsed();
            stats.rays = s.rays;
            stats.ray_steps = s.march_steps;
            stats.fragments = s.hits;
            fb
        }
        (RenderAlgorithm::VtkSlice { planes }, DataObject::Grid(grid)) => {
            let field = scalar.ok_or_else(|| {
                DataError::InvalidArgument("slice rendering needs options.scalar".into())
            })?;
            let t0 = Instant::now();
            let mut mesh = crate::geometry::mesh::TriangleMesh::new();
            let mut scanned = 0u64;
            for plane in planes {
                let (m, s) = extract_slice(grid, field, plane, scratch)?;
                scanned += s.cells_scanned;
                mesh.append(&m);
                scratch.recycle_mesh(m);
            }
            stats.build_time = t0.elapsed();
            stats.build_ops = scanned;
            stats.triangles = mesh.num_triangles() as u64;
            let t1 = Instant::now();
            let (fb, rs) =
                rasterize_mesh(&mesh, tf, camera, lighting, BACKGROUND, scratch);
            stats.render_time = t1.elapsed();
            stats.fragments = rs.fragments;
            fb
        }
        (RenderAlgorithm::RaycastSlice { planes }, DataObject::Grid(grid)) => {
            let field = scalar.ok_or_else(|| {
                DataError::InvalidArgument("slice rendering needs options.scalar".into())
            })?;
            let t0 = Instant::now();
            let (fb, s) = render_slices(grid, field, planes, camera, tf, BACKGROUND, scratch)?;
            stats.render_time = t0.elapsed();
            stats.rays = s.rays;
            stats.ray_steps = s.plane_tests;
            stats.fragments = s.hits;
            fb
        }
        _ => unreachable!("accepts() already filtered mismatches"),
    };

    Ok(RenderOutput {
        framebuffer: fb,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use eth_data::field::Attribute;
    use eth_data::{PointCloud, UniformGrid};

    fn particle_obj() -> DataObject {
        let pos: Vec<Vec3> = (0..500)
            .map(|i| {
                let t = i as f32 * 0.05;
                Vec3::new(t.sin() * 0.8, t.cos() * 0.8, ((i * 13) % 100) as f32 * 0.016 - 0.8)
            })
            .collect();
        let n = pos.len();
        let mut c = PointCloud::from_positions(pos);
        c.set_attribute(
            "rho",
            Attribute::Scalar((0..n).map(|i| (i % 10) as f32).collect()),
        )
        .unwrap();
        DataObject::Points(c)
    }

    fn grid_obj() -> DataObject {
        let n = 16;
        let mut g = UniformGrid::new(
            [n, n, n],
            Vec3::splat(-1.0),
            Vec3::splat(2.0 / (n - 1) as f32),
        )
        .unwrap();
        let mut vals = Vec::new();
        for k in 0..n {
            for j in 0..n {
                for i in 0..n {
                    let p = g.vertex_position(i, j, k);
                    vals.push(0.6 - p.length());
                }
            }
        }
        g.set_attribute("temp", Attribute::Scalar(vals.into())).unwrap();
        DataObject::Grid(g)
    }

    fn cam(obj: &DataObject) -> Camera {
        Camera::framing(&obj.bounds(), 48, 48)
    }

    fn opts(scalar: &str) -> RenderOptions {
        RenderOptions {
            scalar: Some(scalar.to_string()),
            ..Default::default()
        }
    }

    /// `n` particles in the unit cube around the origin, with a `rho`.
    fn cloud(n: usize, seed: u64) -> DataObject {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 40) as f32 / (1u64 << 24) as f32 - 0.5
        };
        let pos: Vec<Vec3> = (0..n).map(|_| Vec3::new(next(), next(), next())).collect();
        let mut c = PointCloud::from_positions(pos);
        let rho = (0..n).map(|i| (i % 7) as f32).collect();
        c.set_attribute("rho", Attribute::Scalar(rho)).unwrap();
        DataObject::Points(c)
    }

    /// An `n`³ grid whose `rho` is zero on a sphere of `radius`.
    fn sphere(n: usize, radius: f32) -> DataObject {
        let spacing = Vec3::splat(2.0 / (n - 1) as f32);
        let mut g = UniformGrid::new([n; 3], Vec3::splat(-1.0), spacing).unwrap();
        let mut vals = Vec::with_capacity(n * n * n);
        for k in 0..n {
            for j in 0..n {
                for i in 0..n {
                    vals.push(radius - g.vertex_position(i, j, k).length());
                }
            }
        }
        g.set_attribute("rho", Attribute::Scalar(vals.into()))
            .unwrap();
        DataObject::Grid(g)
    }

    /// One set reused across frames of growing and shrinking sizes renders
    /// what a fresh set does: the arrays a kernel overwrites without
    /// clearing hold the last frame's bytes, and a frame or a mesh handed
    /// back comes out again at another size.
    #[test]
    fn a_reused_set_renders_what_a_fresh_one_does() {
        let planes = vec![Plane::axis_aligned(2, 0.1), Plane::axis_aligned(0, -0.2)];
        let algorithms = [
            RenderAlgorithm::VtkPoints { point_size: 3 },
            RenderAlgorithm::GaussianSplat { radius: 0.04 },
            RenderAlgorithm::RaycastSpheres { radius: 0.02 },
            RenderAlgorithm::VtkIsosurface { isovalue: 0.0 },
            RenderAlgorithm::RaycastIsosurface { isovalue: 0.0 },
            RenderAlgorithm::VtkSlice {
                planes: planes.clone(),
            },
            RenderAlgorithm::RaycastSlice { planes },
        ];
        let blocks = [
            cloud(3_000, 1),
            sphere(20, 0.6),
            cloud(200, 2),
            sphere(9, 0.3),
            cloud(5_000, 3),
            sphere(24, 0.8),
        ];
        let sizes = [(48, 48), (23, 70), (64, 40)];
        let mut shared = Scratch::new();
        for round in 0..2 {
            for (b, block) in blocks.iter().enumerate() {
                let (w, h) = sizes[(b + round) % sizes.len()];
                let bounds = block.bounds();
                let cameras = [
                    Camera::framing(&bounds, w, h),
                    Camera::framing(&bounds, h, w),
                ];
                for algorithm in algorithms.iter().filter(|a| a.accepts(block)) {
                    let fresh = &mut Scratch::new();
                    let want = render_views(block, algorithm, &cameras, &opts("rho"), fresh);
                    let got = render_views(block, algorithm, &cameras, &opts("rho"), &mut shared);
                    for (got, want) in got.unwrap().into_iter().zip(want.unwrap()) {
                        let what = format!("{} on block {b}, round {round}", algorithm.name());
                        assert!(got.framebuffer == want.framebuffer, "{what}");
                        let counts = |s: RenderStats| {
                            (
                                s.build_ops,
                                s.triangles,
                                s.rays,
                                s.ray_steps,
                                s.fragments,
                                s.tiles,
                            )
                        };
                        assert_eq!(counts(got.stats), counts(want.stats), "{what}");
                        shared.recycle(got.framebuffer);
                    }
                }
            }
        }
    }

    #[test]
    fn all_particle_algorithms_draw_something() {
        let obj = particle_obj();
        let camera = cam(&obj);
        for alg in [
            RenderAlgorithm::VtkPoints { point_size: 2 },
            RenderAlgorithm::GaussianSplat { radius: 0.05 },
            RenderAlgorithm::RaycastSpheres { radius: 0.05 },
        ] {
            let out = render(&obj, &alg, &camera, &opts("rho")).unwrap();
            assert!(
                out.framebuffer.fragments_landed() > 10,
                "{} drew {} fragments",
                alg.name(),
                out.framebuffer.fragments_landed()
            );
            assert_eq!(out.stats.elements, 500);
        }
    }

    #[test]
    fn all_grid_algorithms_draw_something() {
        let obj = grid_obj();
        let camera = cam(&obj);
        let planes = vec![Plane::axis_aligned(2, 0.0)];
        for alg in [
            RenderAlgorithm::VtkIsosurface { isovalue: 0.0 },
            RenderAlgorithm::RaycastIsosurface { isovalue: 0.0 },
            RenderAlgorithm::VtkSlice {
                planes: planes.clone(),
            },
            RenderAlgorithm::RaycastSlice { planes },
        ] {
            let out = render(&obj, &alg, &camera, &opts("temp")).unwrap();
            assert!(
                out.framebuffer.fragments_landed() > 10,
                "{} drew {} fragments",
                alg.name(),
                out.framebuffer.fragments_landed()
            );
        }
    }

    #[test]
    fn mismatched_data_class_rejected() {
        let points = particle_obj();
        let grid = grid_obj();
        let camera = cam(&points);
        assert!(render(
            &points,
            &RenderAlgorithm::VtkIsosurface { isovalue: 0.0 },
            &camera,
            &opts("rho")
        )
        .is_err());
        assert!(render(
            &grid,
            &RenderAlgorithm::RaycastSpheres { radius: 0.1 },
            &camera,
            &opts("temp")
        )
        .is_err());
    }

    #[test]
    fn grid_algorithms_require_scalar() {
        let obj = grid_obj();
        let camera = cam(&obj);
        let o = RenderOptions::default(); // no scalar
        assert!(render(
            &obj,
            &RenderAlgorithm::RaycastIsosurface { isovalue: 0.0 },
            &camera,
            &o
        )
        .is_err());
    }

    #[test]
    fn stats_reflect_backend_structure() {
        let obj = particle_obj();
        let camera = cam(&obj);
        let rc = render(
            &obj,
            &RenderAlgorithm::RaycastSpheres { radius: 0.05 },
            &camera,
            &opts("rho"),
        )
        .unwrap();
        assert!(rc.stats.rays == 48 * 48);
        assert!(rc.stats.build_ops > 0, "BVH build counted");
        assert_eq!(rc.stats.triangles, 0, "raycasting is geometry-free");

        let gs = render(
            &obj,
            &RenderAlgorithm::GaussianSplat { radius: 0.05 },
            &camera,
            &opts("rho"),
        )
        .unwrap();
        assert_eq!(gs.stats.rays, 0);
        assert!(gs.stats.fragments > 0);

        let grid = grid_obj();
        let gcam = cam(&grid);
        let iso = render(
            &grid,
            &RenderAlgorithm::VtkIsosurface { isovalue: 0.0 },
            &gcam,
            &opts("temp"),
        )
        .unwrap();
        assert!(iso.stats.triangles > 0, "geometry pipeline made triangles");
    }

    #[test]
    fn names_and_classes() {
        assert_eq!(
            RenderAlgorithm::VtkPoints { point_size: 1 }.name(),
            "vtk_points"
        );
        assert!(RenderAlgorithm::VtkPoints { point_size: 1 }.is_geometry_based());
        assert!(!RenderAlgorithm::RaycastSpheres { radius: 0.1 }.is_geometry_based());
        assert!(RenderAlgorithm::VtkSlice { planes: vec![] }.is_geometry_based());
    }

    #[test]
    fn explicit_range_overrides_fit() {
        let obj = particle_obj();
        let camera = cam(&obj);
        let mut o = opts("rho");
        o.range = Some((0.0, 1.0));
        // range (0,1) saturates most particles to the top color; just check
        // it renders without error and differs from the fitted version.
        let a = render(
            &obj,
            &RenderAlgorithm::VtkPoints { point_size: 1 },
            &camera,
            &o,
        )
        .unwrap();
        let b = render(
            &obj,
            &RenderAlgorithm::VtkPoints { point_size: 1 },
            &camera,
            &opts("rho"),
        )
        .unwrap();
        let ia = a.framebuffer.into_image();
        let ib = b.framebuffer.into_image();
        assert!(ia.rmse(&ib).unwrap() > 0.0);
    }
}
