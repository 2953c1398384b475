//! Isosurface ray-marching on uniform grids (the xRAGE case).
//!
//! "Isosurfaces are rendered by iterating along each view ray, sampling to
//! find the data value for each iteration, and looking for crossings. Once
//! a crossing is found, a hit point can be interpolated. Note that the
//! appropriate sampling along the ray is proportionate to the resolution of
//! the data in 1-D, so the cost of each ray is proportionate to the 1/3
//! root of the input data size." (Section IV-C)
//!
//! The marcher clips each ray to the grid, steps at ~0.7 of the minimum
//! cell spacing, detects sign changes of `f - iso`, refines the crossing by
//! bisection, and shades with the trilinear gradient.
//!
//! Parallelism is tile-based (see [`crate::tile`]): 16×16 framebuffer tiles
//! write their pixels straight into the frame, one band of tile rows per
//! rayon item. Rays come from the camera's per-frame [`RayGenerator`]
//! (`tan(fov_y/2)` once per frame, NDC y once per row); per-pixel math is
//! untouched, so images are identical to the old row-parallel renderer.
//!
//! [`RayGenerator`]: crate::camera::RayGenerator

use crate::camera::Camera;
use crate::color::TransferFunction;
use crate::framebuffer::Framebuffer;
use crate::shading::Lighting;
use crate::tile::{self, DEFAULT_TILE};
use eth_data::error::Result;
use eth_data::{UniformGrid, Vec3};

/// Statistics from one ray-marched frame.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RaymarchStats {
    pub rays: u64,
    /// Rays whose segment overlapped the grid at all.
    pub rays_entering: u64,
    pub hits: u64,
    /// Total trilinear samples taken (the N^(1/3)-per-ray cost).
    pub march_steps: u64,
}

/// Ray-march the isosurface `field == isovalue`.
pub fn render_isosurface(
    grid: &UniformGrid,
    field: &str,
    isovalue: f32,
    camera: &Camera,
    tf: &TransferFunction,
    lighting: &Lighting,
    background: Vec3,
) -> Result<(Framebuffer, RaymarchStats)> {
    let values = grid.scalar(field)?;
    let bounds = grid.bounds();
    let spacing = grid.spacing();
    let dt = spacing.min_component().min(spacing.max_component()) * 0.7;
    let rays = camera.ray_generator();

    let mut fb = Framebuffer::new(camera.width, camera.height, background);
    let traced = tile::trace_in_place(&mut fb, DEFAULT_TILE, |t, band| {
        let _span = eth_obs::span(eth_obs::Phase::Tile);
        let mut st = RaymarchStats::default();
        for py in t.y0..t.y0 + t.h {
            let ndc_y = rays.ndc_y(py);
            for px in t.x0..t.x0 + t.w {
                let ray = rays.ray(rays.ndc_x(px), ndc_y);
                st.rays += 1;
                let inv = ray.inv_dir();
                // A miss leaves the pixel as the frame was cleared.
                let Some((t0, t1)) = bounds.ray_intersect(ray.origin, inv, 1e-4, f32::MAX) else {
                    continue;
                };
                st.rays_entering += 1;
                // March from entry to exit. Samples that land epsilon
                // outside the grid (entry/exit faces) are skipped rather
                // than aborting the ray.
                let sample = |t: f32| grid.sample_trilinear(values, ray.at(t));
                let mut hit = None;
                let mut prev: Option<(f32, f32)> = None; // (t, f - iso)
                let mut t = t0.max(1e-4);
                loop {
                    let tc = t.min(t1);
                    if let Some(v) = sample(tc) {
                        st.march_steps += 1;
                        let f = v - isovalue;
                        if let Some((tp, fp)) = prev {
                            if fp.signum() != f.signum() && fp != 0.0 {
                                // Bracketed a crossing: bisect.
                                let (mut lo, mut hi) = (tp, tc);
                                let mut f_lo = fp;
                                for _ in 0..8 {
                                    let mid = 0.5 * (lo + hi);
                                    let fm = sample(mid).map(|v| v - isovalue).unwrap_or(0.0);
                                    st.march_steps += 1;
                                    if fm.signum() == f_lo.signum() {
                                        lo = mid;
                                        f_lo = fm;
                                    } else {
                                        hi = mid;
                                    }
                                }
                                hit = Some(0.5 * (lo + hi));
                                break;
                            }
                        }
                        prev = Some((tc, f));
                    } else {
                        prev = None;
                    }
                    if tc >= t1 {
                        break;
                    }
                    t += dt;
                }
                if let Some(th) = hit {
                    st.hits += 1;
                    let p = ray.at(th);
                    let normal = grid.gradient_at_point(values, p).unwrap_or(Vec3::ZERO);
                    let color = lighting.shade(tf.color(isovalue), normal, -ray.dir);
                    band.store(px, py, th, color);
                }
            }
        }
        st
    });

    let mut stats = RaymarchStats::default();
    for st in traced {
        stats.rays += st.rays;
        stats.rays_entering += st.rays_entering;
        stats.hits += st.hits;
        stats.march_steps += st.march_steps;
    }
    eth_obs::count("rays_traced", stats.rays as f64);
    Ok((fb, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::color::Colormap;
    use eth_data::field::Attribute;

    fn sphere_grid(n: usize, radius: f32) -> UniformGrid {
        let mut g = UniformGrid::new(
            [n, n, n],
            Vec3::splat(-1.0),
            Vec3::splat(2.0 / (n - 1) as f32),
        )
        .unwrap();
        let mut vals = Vec::with_capacity(n * n * n);
        for k in 0..n {
            for j in 0..n {
                for i in 0..n {
                    let p = g.vertex_position(i, j, k);
                    vals.push(radius - p.length());
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
        TransferFunction::new(Colormap::Hot, -1.0, 1.0)
    }

    #[test]
    fn sphere_isosurface_hit_at_expected_depth() {
        let g = sphere_grid(32, 0.6);
        let (fb, stats) = render_isosurface(
            &g,
            "f",
            0.0,
            &cam(64),
            &tf(),
            &Lighting::default(),
            Vec3::ZERO,
        )
        .unwrap();
        assert!(stats.hits > 100, "hits {}", stats.hits);
        // center ray hits the sphere front at depth 4 - 0.6
        let d = fb.depth_at(32, 32);
        assert!((d - 3.4).abs() < 0.05, "depth {d}");
    }

    #[test]
    fn rays_missing_grid_cost_nothing() {
        let g = sphere_grid(16, 0.5);
        // camera so far off axis most rays miss the [-1,1]^3 box
        let camera = Camera::look_at(
            Vec3::new(0.0, -50.0, 0.0),
            Vec3::ZERO,
            Vec3::new(0.0, 0.0, 1.0),
            4.0,
            32,
            32,
        );
        let (_, stats) = render_isosurface(
            &g,
            "f",
            0.0,
            &camera,
            &tf(),
            &Lighting::default(),
            Vec3::ZERO,
        )
        .unwrap();
        assert!(stats.rays_entering <= stats.rays);
    }

    #[test]
    fn march_cost_scales_with_cuberoot_of_cells() {
        // Doubling grid resolution doubles steps per ray (N^(1/3)), i.e.
        // 8x the cells -> ~2x the march steps.
        let g1 = sphere_grid(17, 0.6);
        let g2 = sphere_grid(33, 0.6);
        let c = cam(32);
        let l = Lighting::default();
        let (_, s1) = render_isosurface(&g1, "f", 0.0, &c, &tf(), &l, Vec3::ZERO).unwrap();
        let (_, s2) = render_isosurface(&g2, "f", 0.0, &c, &tf(), &l, Vec3::ZERO).unwrap();
        let ratio = s2.march_steps as f64 / s1.march_steps as f64;
        assert!((1.5..3.0).contains(&ratio), "march ratio {ratio} (want ~2)");
    }

    #[test]
    fn iso_outside_range_yields_background() {
        let g = sphere_grid(16, 0.5);
        let (fb, stats) = render_isosurface(
            &g,
            "f",
            99.0,
            &cam(32),
            &tf(),
            &Lighting::default(),
            Vec3::splat(0.25),
        )
        .unwrap();
        assert_eq!(stats.hits, 0);
        assert_eq!(fb.color_at(16, 16), Vec3::splat(0.25));
    }

    #[test]
    fn missing_field_errors() {
        let g = sphere_grid(8, 0.5);
        assert!(render_isosurface(
            &g,
            "nope",
            0.0,
            &cam(8),
            &tf(),
            &Lighting::default(),
            Vec3::ZERO
        )
        .is_err());
    }

    #[test]
    fn raymarch_matches_geometry_pipeline_shape() {
        // The two backends must produce similar silhouettes for the same
        // isosurface (their RMSE should be small) — this is the property
        // that makes the paper's backend comparisons meaningful.
        use crate::geometry::marching_cubes::extract_isosurface;
        use crate::raster::triangle::rasterize_mesh;
        let g = sphere_grid(32, 0.6);
        let c = cam(64);
        let l = Lighting::default();
        let (fb_ray, _) =
            render_isosurface(&g, "f", 0.0, &c, &tf(), &l, Vec3::ZERO).unwrap();
        let (mesh, _) = extract_isosurface(&g, "f", 0.0).unwrap();
        let (fb_geom, _) = rasterize_mesh(&mesh, &tf(), &c, &l, Vec3::ZERO);
        let img_ray = fb_ray.into_image();
        let img_geom = fb_geom.into_image();
        let rmse = img_ray.rmse(&img_geom).unwrap();
        assert!(rmse < 0.08, "backends disagree: rmse {rmse}");
    }
}
