//! Raycast slicing planes.
//!
//! "The intersection of an arbitrary ray with an implicitly defined plane to
//! produce a hit point in data space is O(1), and in the case of structured
//! grids looking up the corresponding data value is also O(1), so the cost
//! of rendering slicing planes is O(number of pixels)." (Section IV-C)
//!
//! Rays come from the camera's per-frame generator, and pixels are written
//! in place by 16×16 tiles, as in the other two raycasters.

use crate::camera::Camera;
use crate::color::TransferFunction;
use crate::framebuffer::Framebuffer;
use crate::geometry::slice::Plane;
use crate::tile::{self, DEFAULT_TILE};
use eth_data::error::Result;
use eth_data::UniformGrid;
use eth_data::Vec3;

/// Statistics for one slice-raycast frame.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PlaneRaycastStats {
    pub rays: u64,
    /// Ray-plane intersections evaluated (rays × planes).
    pub plane_tests: u64,
    pub hits: u64,
}

/// Render one or more slicing planes through a grid field. Multiple planes
/// depth-compose (the xRAGE experiments use "two sliding planes").
pub fn render_slices(
    grid: &UniformGrid,
    field: &str,
    planes: &[Plane],
    camera: &Camera,
    tf: &TransferFunction,
    background: Vec3,
) -> Result<(Framebuffer, PlaneRaycastStats)> {
    let values = grid.scalar(field)?;
    let rays = camera.ray_generator();

    let mut fb = Framebuffer::new(camera.width, camera.height, background);
    let traced = tile::trace_in_place(&mut fb, DEFAULT_TILE, |t, band| {
        let mut st = PlaneRaycastStats::default();
        for py in t.y0..t.y0 + t.h {
            let ndc_y = rays.ndc_y(py);
            for px in t.x0..t.x0 + t.w {
                let ray = rays.ray(rays.ndc_x(px), ndc_y);
                st.rays += 1;
                let mut best_t = f32::INFINITY;
                let mut best_color = background;
                for plane in planes {
                    st.plane_tests += 1;
                    let denom = plane.normal.dot(ray.dir);
                    if denom.abs() < 1e-9 {
                        continue; // ray parallel to plane
                    }
                    let t = -plane.distance(ray.origin) / denom;
                    if t <= 1e-4 || t >= best_t {
                        continue;
                    }
                    let p = ray.at(t);
                    // O(1) structured-grid lookup at the hit point.
                    if let Some(v) = grid.sample_trilinear(values, p) {
                        best_t = t;
                        best_color = tf.color(v);
                        st.hits += 1;
                    }
                }
                if best_t.is_finite() {
                    band.store(px, py, best_t, best_color);
                }
            }
        }
        st
    });

    let mut stats = PlaneRaycastStats::default();
    for st in traced {
        stats.rays += st.rays;
        stats.plane_tests += st.plane_tests;
        stats.hits += st.hits;
    }
    Ok((fb, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::color::Colormap;
    use eth_data::field::Attribute;

    fn ramp_grid(n: usize) -> UniformGrid {
        // f = z over [-1,1]^3
        let mut g = UniformGrid::new(
            [n, n, n],
            Vec3::splat(-1.0),
            Vec3::splat(2.0 / (n - 1) as f32),
        )
        .unwrap();
        let mut vals = Vec::new();
        for k in 0..n {
            for _j in 0..n {
                for _i in 0..n {
                    vals.push(-1.0 + 2.0 * k as f32 / (n - 1) as f32);
                }
            }
        }
        g.set_attribute("f", Attribute::Scalar(vals.into())).unwrap();
        g
    }

    fn cam(px: usize) -> Camera {
        Camera::look_at(
            Vec3::new(0.0, -4.0, 0.0),
            Vec3::ZERO,
            Vec3::new(0.0, 0.0, 1.0),
            45.0,
            px,
            px,
        )
    }

    fn tf() -> TransferFunction {
        TransferFunction::new(Colormap::Gray, -1.0, 1.0)
    }

    #[test]
    fn single_plane_hits_center() {
        let g = ramp_grid(16);
        let plane = Plane::axis_aligned(1, 0.0); // y = 0, facing camera
        let (fb, stats) =
            render_slices(&g, "f", &[plane], &cam(64), &tf(), Vec3::ZERO).unwrap();
        assert!(stats.hits > 500);
        // center pixel: ray along +y hits y=0 at depth 4; field z=0 -> gray 0.5
        let c = fb.color_at(32, 32);
        assert!((c.x - 0.5).abs() < 0.05, "center color {c:?}");
        assert!((fb.depth_at(32, 32) - 4.0).abs() < 0.01);
    }

    #[test]
    fn plane_cost_is_o_rays_not_o_cells() {
        let g1 = ramp_grid(8);
        let g2 = ramp_grid(32);
        let plane = Plane::axis_aligned(1, 0.0);
        let (_, s1) = render_slices(&g1, "f", &[plane], &cam(32), &tf(), Vec3::ZERO).unwrap();
        let (_, s2) = render_slices(&g2, "f", &[plane], &cam(32), &tf(), Vec3::ZERO).unwrap();
        // 64x the cells, identical plane tests
        assert_eq!(s1.plane_tests, s2.plane_tests);
    }

    #[test]
    fn two_planes_nearest_wins() {
        let g = ramp_grid(16);
        let near = Plane::axis_aligned(1, -0.5);
        let far = Plane::axis_aligned(1, 0.5);
        let (fb, _) =
            render_slices(&g, "f", &[far, near], &cam(64), &tf(), Vec3::ZERO).unwrap();
        // nearest plane is at y=-0.5 -> depth 3.5 at the center
        assert!((fb.depth_at(32, 32) - 3.5).abs() < 0.01);
    }

    #[test]
    fn parallel_rays_skip_plane() {
        let g = ramp_grid(8);
        // plane normal perpendicular to every view ray direction is not
        // physically constructible for a perspective camera; instead check a
        // plane parallel to the central ray only barely contributes.
        let plane = Plane::axis_aligned(2, 0.0); // z = 0, seen edge-on
        let (fb, _) = render_slices(&g, "f", &[plane], &cam(64), &tf(), Vec3::ZERO).unwrap();
        // edge-on plane covers roughly a line of pixels, not the whole image
        let covered = fb.fragments_landed();
        assert!(covered < 64 * 64 / 4, "covered {covered}");
    }

    #[test]
    fn plane_outside_grid_is_invisible() {
        let g = ramp_grid(8);
        let plane = Plane::axis_aligned(1, 50.0);
        let (fb, stats) =
            render_slices(&g, "f", &[plane], &cam(32), &tf(), Vec3::splat(0.1)).unwrap();
        assert_eq!(stats.hits, 0);
        assert_eq!(fb.fragments_landed(), 0);
    }

    #[test]
    fn no_planes_renders_background() {
        let g = ramp_grid(8);
        let (fb, stats) = render_slices(&g, "f", &[], &cam(8), &tf(), Vec3::splat(0.7)).unwrap();
        assert_eq!(stats.plane_tests, 0);
        assert_eq!(fb.color_at(4, 4), Vec3::splat(0.7));
    }
}
