//! Z-buffered triangle rasterizer — the OpenGL role.
//!
//! Consumes the meshes produced by the extraction filters and rasterizes
//! them with perspective-correct attribute interpolation and per-pixel
//! Lambertian shading. This is the second half of the paper's geometry
//! pipeline: its cost is proportional to the amount of generated geometry
//! (triangles × covered pixels), which is exactly the term that blows up
//! for large isosurfaces.
//!
//! Parallel structure: a front end of the scatter kernel (`scatter.rs`),
//! like the two particle rasterizers. The cover pass keeps the `(depth,
//! triangle index)` winner of every pixel centre a triangle covers and
//! reads no attribute; the shader runs once per covered pixel, sets the
//! winner up again and shades that one fragment. Both passes go through
//! [`Coverage`], so the frame is bit-identical, at any thread count, to a
//! serial loop that shades every fragment before a strict `<` depth test.

use super::scatter::{resolve, scatter};
use crate::camera::Camera;
use crate::color::TransferFunction;
use crate::framebuffer::Framebuffer;
use crate::geometry::mesh::TriangleMesh;
use crate::shading::Lighting;
use eth_data::Vec3;
use rayon::prelude::*;
use std::ops::RangeInclusive;

/// Statistics from one rasterization pass; the same at any thread count.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RasterStats {
    pub triangles_in: usize,
    /// Triangles covering at least one pixel centre of the image.
    pub triangles_rasterized: usize,
    /// Pixel centres inside a triangle and the image, before the depth test.
    pub fragments: u64,
}

/// Below this many vertices a slice costs less than spawning its worker.
const MIN_SLICE: usize = 16 * 1024;
/// A triangle whose twice-area is this share of its reach (see
/// [`Coverage::of`]) has computed edge weights within 2e-3 of exact, so a
/// pixel centre [`CLEAR`] outside its bounding box, where some exact weight
/// is below `-CLEAR / 2`, never passes the edge test (DESIGN.md §14).
const WELL_CONDITIONED: f32 = 1.0 / 1024.0;
const CLEAR: f32 = 1.0 / 64.0;

/// Whether `lo..=hi` lies more than [`CLEAR`] inside a gap between pixel centres.
fn between_centres(lo: f32, hi: f32) -> bool {
    // a pixel centre: for `lo` on the image, the first one at or above it
    let above = (lo + 0.5) as usize as f32 + 0.5;
    lo - (above - 1.0) > CLEAR && above - hi > CLEAR
}

/// One triangle set up on screen: what both passes need to evaluate a
/// pixel centre against it.
struct Coverage {
    /// Projected vertices: pixel `x`, `y` and view depth `z`.
    v: [Vec3; 3],
    inv_area: f32,
    /// Screen-space bounding box, clipped to the image.
    xs: RangeInclusive<usize>,
    ys: RangeInclusive<usize>,
}

impl Coverage {
    /// `None` when no fragment can come of triangle `t`: a vertex behind the
    /// eye (full near-plane clipping is overkill for bounded scenes), zero
    /// area, or no pixel centre of the image in reach.
    #[inline]
    fn of(projected: &[Option<Vec3>], t: [u32; 3], camera: &Camera) -> Option<Coverage> {
        let [i, j, k] = t.map(|i| i as usize);
        let v @ [a, b, c] = [projected[i]?, projected[j]?, projected[k]?];
        // Signed twice-area; degenerate triangles are dropped.
        let area = (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x);
        if area.abs() < 1e-12 {
            return None;
        }
        let (lo_x, hi_x) = (a.x.min(b.x).min(c.x), a.x.max(b.x).max(c.x));
        let (lo_y, hi_y) = (a.y.min(b.y).min(c.y), a.y.max(b.y).max(c.y));
        // Most extracted triangles are smaller than a pixel and fall between
        // pixel centres: skip them before the divide and the pixel loop. The
        // range also keeps NaN and overflowed areas on the exact path.
        let reach = (hi_x - lo_x + 1.5) * (hi_y - lo_y + 1.5);
        if (reach * WELL_CONDITIONED..1e30).contains(&area.abs())
            && (between_centres(lo_x, hi_x) || between_centres(lo_y, hi_y))
        {
            return None;
        }
        // `lo.floor().max(0.0) as usize` and `hi.ceil() as isize` without libm:
        // casts truncate and saturate, and a ceiling adds back what that cut.
        let (min_x, min_y) = (lo_x as usize, lo_y as usize);
        let ceil = |hi: f32| (hi as isize).saturating_add(((hi as isize as f32) < hi) as isize);
        let max_x = ceil(hi_x).min(camera.width as isize - 1);
        let max_y = ceil(hi_y).min(camera.height as isize - 1);
        let on_image = max_x >= min_x as isize && max_y >= min_y as isize;
        on_image.then(|| Coverage {
            v,
            inv_area: 1.0 / area,
            xs: min_x..=max_x as usize,
            ys: min_y..=max_y as usize,
        })
    }

    /// The fragment at the centre of pixel `(px, py)`: its view depth and
    /// the three perspective-correct attribute weights. `None` outside the
    /// triangle's edges.
    #[inline]
    fn at(&self, px: usize, py: usize) -> Option<(f32, [f32; 3])> {
        let [a, b, c] = self.v;
        let (x, y) = (px as f32 + 0.5, py as f32 + 0.5);
        // Barycentric weights (sign matches `area`).
        let w0 = ((b.x - x) * (c.y - y) - (b.y - y) * (c.x - x)) * self.inv_area;
        let w1 = ((c.x - x) * (a.y - y) - (c.y - y) * (a.x - x)) * self.inv_area;
        let w2 = 1.0 - w0 - w1;
        if w0 < 0.0 || w1 < 0.0 || w2 < 0.0 {
            return None;
        }
        // Perspective-correct interpolation: weight by 1/depth.
        let [iz0, iz1, iz2] = [w0 / a.z, w1 / b.z, w2 / c.z];
        let iz_sum = iz0 + iz1 + iz2;
        let depth = 1.0 / iz_sum;
        Some((depth, [iz0 * depth, iz1 * depth, iz2 * depth]))
    }
}

/// Rasterize a mesh into a framebuffer.
pub fn rasterize_mesh(
    mesh: &TriangleMesh,
    tf: &TransferFunction,
    camera: &Camera,
    lighting: &Lighting,
    background: Vec3,
) -> (Framebuffer, RasterStats) {
    debug_assert!(mesh.validate(), "invalid mesh handed to rasterizer");
    // Project all vertices once, one contiguous slice per worker.
    let projector = camera.projector();
    let mut projected: Vec<Option<Vec3>> = vec![None; mesh.positions.len()];
    let workers = rayon::current_num_threads();
    let slice = mesh.positions.len().div_ceil(workers).max(MIN_SLICE);
    projected
        .par_chunks_mut(slice)
        .zip(mesh.positions.par_chunks(slice))
        .for_each(|(out, positions)| {
            for (slot, &p) in out.iter_mut().zip(positions) {
                *slot = projector.project(p).map(|(x, y, z)| Vec3::new(x, y, z));
            }
        });

    let (width, height) = (camera.width, camera.height);
    let scattered = scatter(mesh.indices.len(), width, height, |triangles, sink| {
        let mut rasterized = 0usize;
        for t in triangles {
            let Some(tri) = Coverage::of(&projected, mesh.indices[t], camera) else {
                continue;
            };
            let mut landed = false;
            for py in tri.ys.clone() {
                for px in tri.xs.clone() {
                    if let Some((depth, _)) = tri.at(px, py) {
                        sink.put(t, px as isize, py as isize, depth);
                        landed = true;
                    }
                }
            }
            rasterized += landed as usize;
        }
        rasterized
    });

    let view_dir = -camera.forward();
    let fb = resolve(&scattered, background, |t, px, py, _| {
        let (_, [pw0, pw1, pw2]) = Coverage::of(&projected, mesh.indices[t], camera)
            .and_then(|tri| tri.at(px, py))
            .expect("a winning fragment lies inside its triangle");
        let [i0, i1, i2] = mesh.indices[t].map(|i| i as usize);
        let normal = mesh.normals[i0] * pw0 + mesh.normals[i1] * pw1 + mesh.normals[i2] * pw2;
        let scalar = mesh.scalars[i0] * pw0 + mesh.scalars[i1] * pw1 + mesh.scalars[i2] * pw2;
        lighting.shade(tf.color(scalar), normal, view_dir)
    });
    let stats = RasterStats {
        triangles_in: mesh.indices.len(),
        triangles_rasterized: scattered.slices().sum(),
        fragments: scattered.fragments(),
    };
    (fb, stats)
}

#[cfg(test)]
mod tests {
    use super::super::scatter::testing::{cameras, hostile_cloud};
    use super::*;
    use crate::color::Colormap;
    use crate::testing::at_thread_counts;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn cam() -> Camera {
        Camera::look_at(
            Vec3::new(0.0, -5.0, 0.0),
            Vec3::ZERO,
            Vec3::new(0.0, 0.0, 1.0),
            45.0,
            64,
            64,
        )
    }

    fn quad_mesh(depth_y: f32) -> TriangleMesh {
        // A unit quad in the xz plane at y = depth_y, facing the camera.
        let mut m = TriangleMesh::new();
        let n = Vec3::new(0.0, -1.0, 0.0);
        let v0 = m.push_vertex(Vec3::new(-0.5, depth_y, -0.5), n, 0.5);
        let v1 = m.push_vertex(Vec3::new(0.5, depth_y, -0.5), n, 0.5);
        let v2 = m.push_vertex(Vec3::new(0.5, depth_y, 0.5), n, 0.5);
        let v3 = m.push_vertex(Vec3::new(-0.5, depth_y, 0.5), n, 0.5);
        m.push_triangle(v0, v1, v2);
        m.push_triangle(v0, v2, v3);
        m
    }

    fn tf() -> TransferFunction {
        TransferFunction::new(Colormap::Gray, 0.0, 1.0)
    }

    #[test]
    fn quad_covers_center() {
        let m = quad_mesh(0.0);
        let (fb, stats) = rasterize_mesh(&m, &tf(), &cam(), &Lighting::default(), Vec3::ZERO);
        assert_eq!(stats.triangles_rasterized, 2);
        assert!(stats.fragments > 50);
        assert!(fb.depth_at(32, 32).is_finite());
        assert!((fb.depth_at(32, 32) - 5.0).abs() < 0.05);
    }

    #[test]
    fn nearer_quad_occludes_farther() {
        let near = quad_mesh(-1.0);
        let far = quad_mesh(1.0);
        let mut both = TriangleMesh::new();
        // color far quad bright, near quad dark; near must win
        let mut far_bright = far.clone();
        for s in &mut far_bright.scalars {
            *s = 1.0;
        }
        let mut near_dark = near.clone();
        for s in &mut near_dark.scalars {
            *s = 0.0;
        }
        both.append(&far_bright);
        both.append(&near_dark);
        let light = Lighting {
            ambient: 1.0,
            diffuse: 0.0,
            specular: 0.0,
            ..Lighting::default()
        };
        let (fb, _) = rasterize_mesh(&both, &tf(), &cam(), &light, Vec3::splat(0.5));
        // near quad scalar 0 -> black under pure-ambient lighting
        assert_eq!(fb.color_at(32, 32), Vec3::ZERO);
    }

    #[test]
    fn empty_mesh_renders_background() {
        let m = TriangleMesh::new();
        let (fb, stats) =
            rasterize_mesh(&m, &tf(), &cam(), &Lighting::default(), Vec3::splat(0.2));
        assert_eq!(stats.fragments, 0);
        assert_eq!(fb.color_at(10, 10), Vec3::splat(0.2));
    }

    #[test]
    fn degenerate_triangle_dropped() {
        let mut m = TriangleMesh::new();
        let n = Vec3::new(0.0, -1.0, 0.0);
        let v0 = m.push_vertex(Vec3::ZERO, n, 0.5);
        let v1 = m.push_vertex(Vec3::ZERO, n, 0.5);
        let v2 = m.push_vertex(Vec3::ZERO, n, 0.5);
        m.push_triangle(v0, v1, v2);
        let (_, stats) = rasterize_mesh(&m, &tf(), &cam(), &Lighting::default(), Vec3::ZERO);
        assert_eq!(stats.triangles_rasterized, 0);
    }

    #[test]
    fn behind_camera_triangles_dropped() {
        let m = quad_mesh(-10.0);
        let (_, stats) = rasterize_mesh(&m, &tf(), &cam(), &Lighting::default(), Vec3::ZERO);
        assert_eq!(stats.triangles_rasterized, 0);
    }

    #[test]
    fn winding_does_not_matter() {
        // Two-sided rendering: flipped winding covers the same pixels.
        let m1 = quad_mesh(0.0);
        let mut m2 = m1.clone();
        for t in &mut m2.indices {
            t.swap(1, 2);
        }
        let (f1, s1) = rasterize_mesh(&m1, &tf(), &cam(), &Lighting::default(), Vec3::ZERO);
        let (f2, s2) = rasterize_mesh(&m2, &tf(), &cam(), &Lighting::default(), Vec3::ZERO);
        // edge pixels (w == 0) may flip in/out with winding; allow a sliver
        let d = (s1.fragments as i64 - s2.fragments as i64).unsigned_abs();
        assert!(d <= 8, "fragment counts differ by {d}");
        let dl =
            (f1.fragments_landed() as i64 - f2.fragments_landed() as i64).unsigned_abs();
        assert!(dl <= 8, "landed counts differ by {dl}");
    }

    #[test]
    fn deterministic_parallel_rasterization() {
        // Many triangles: repeated runs are identical despite threading.
        let mut m = TriangleMesh::new();
        for i in 0..300 {
            let t = i as f32 * 0.1;
            let base = Vec3::new(t.sin() * 0.8, (i % 7) as f32 * 0.1 - 0.3, t.cos() * 0.8);
            let n = Vec3::new(0.0, -1.0, 0.0);
            let v0 = m.push_vertex(base, n, 0.3);
            let v1 = m.push_vertex(base + Vec3::new(0.1, 0.0, 0.0), n, 0.5);
            let v2 = m.push_vertex(base + Vec3::new(0.0, 0.0, 0.1), n, 0.7);
            m.push_triangle(v0, v1, v2);
        }
        let (f1, _) = rasterize_mesh(&m, &tf(), &cam(), &Lighting::default(), Vec3::ZERO);
        let (f2, _) = rasterize_mesh(&m, &tf(), &cam(), &Lighting::default(), Vec3::ZERO);
        assert_eq!(f1, f2);
    }

    /// The specification of the rasterizer, one triangle of it: the fill
    /// loop `rasterize_mesh` had before it moved onto the scatter kernel.
    /// Vertices are `(pixel x, pixel y, view depth)`; every fragment goes to
    /// `fragment(px, py, depth, perspective weights)`. True if any did.
    fn reference_fill(
        [a, b, c]: [Vec3; 3],
        (width, height): (usize, usize),
        mut fragment: impl FnMut(usize, usize, f32, [f32; 3]),
    ) -> bool {
        // Screen-space bounding box, clipped to the image.
        let min_x = a.x.min(b.x).min(c.x).floor().max(0.0) as usize;
        let max_x = (a.x.max(b.x).max(c.x).ceil() as isize).min(width as isize - 1);
        let min_y = a.y.min(b.y).min(c.y).floor().max(0.0) as usize;
        let max_y = (a.y.max(b.y).max(c.y).ceil() as isize).min(height as isize - 1);
        if max_x < min_x as isize || max_y < min_y as isize {
            return false;
        }
        let max_x = max_x as usize;
        let max_y = max_y as usize;

        // Signed twice-area; degenerate triangles are dropped.
        let area = (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x);
        if area.abs() < 1e-12 {
            return false;
        }
        let inv_area = 1.0 / area;

        let mut landed = false;
        for py in min_y..=max_y {
            for px in min_x..=max_x {
                let x = px as f32 + 0.5;
                let y = py as f32 + 0.5;
                // Barycentric weights (sign matches `area`).
                let w0 = ((b.x - x) * (c.y - y) - (b.y - y) * (c.x - x)) * inv_area;
                let w1 = ((c.x - x) * (a.y - y) - (c.y - y) * (a.x - x)) * inv_area;
                let w2 = 1.0 - w0 - w1;
                if w0 < 0.0 || w1 < 0.0 || w2 < 0.0 {
                    continue;
                }
                // Perspective-correct interpolation: weight by 1/depth.
                let iz0 = w0 / a.z;
                let iz1 = w1 / b.z;
                let iz2 = w2 / c.z;
                let iz_sum = iz0 + iz1 + iz2;
                let depth = 1.0 / iz_sum;
                let pw0 = iz0 * depth;
                let pw1 = iz1 * depth;
                let pw2 = iz2 * depth;
                fragment(px, py, depth, [pw0, pw1, pw2]);
                landed = true;
            }
        }
        landed
    }

    /// Triangles in index order through [`reference_fill`], every fragment
    /// shaded and then sent through the framebuffer's strict `<` depth
    /// test. `fragments` counts the ones that could land anywhere: inside
    /// the image, depth below +∞.
    fn reference_rasterize(
        mesh: &TriangleMesh,
        tf: &TransferFunction,
        camera: &Camera,
        lighting: &Lighting,
        background: Vec3,
    ) -> (Framebuffer, RasterStats) {
        let projected: Vec<Option<Vec3>> = mesh
            .positions
            .iter()
            .map(|&p| {
                camera
                    .project(p)
                    .map(|(x, y, depth)| Vec3::new(x, y, depth))
            })
            .collect();
        let mut fb = Framebuffer::new(camera.width, camera.height, background);
        let mut stats = RasterStats {
            triangles_in: mesh.indices.len(),
            ..Default::default()
        };
        let view_dir = -camera.forward();
        for t in &mesh.indices {
            let [i0, i1, i2] = t.map(|i| i as usize);
            // Any vertex behind the eye: drop the triangle.
            let (Some(a), Some(b), Some(c)) = (projected[i0], projected[i1], projected[i2]) else {
                continue;
            };
            let image = (camera.width, camera.height);
            let landed = reference_fill([a, b, c], image, |px, py, depth, [pw0, pw1, pw2]| {
                let normal =
                    mesh.normals[i0] * pw0 + mesh.normals[i1] * pw1 + mesh.normals[i2] * pw2;
                let scalar =
                    mesh.scalars[i0] * pw0 + mesh.scalars[i1] * pw1 + mesh.scalars[i2] * pw2;
                let color = lighting.shade(tf.color(scalar), normal, view_dir);
                fb.write(px, py, depth, color);
                stats.fragments += (depth < f32::INFINITY) as u64;
            });
            stats.triangles_rasterized += landed as usize;
        }
        (fb, stats)
    }

    /// `v` moved by `ulps` representable values.
    fn nudge(v: f32, ulps: i32) -> f32 {
        f32::from_bits((v.to_bits() as i32 + ulps) as u32)
    }

    /// A screen-space triangle built to sit on the edge of
    /// `Coverage::of`'s early exit: vertices a few ulps to a few
    /// hundredths of a pixel either side of a pixel centre or of the
    /// [`CLEAR`] band around one, slivers and needles whose area straddles
    /// the [`WELL_CONDITIONED`] bound (thin along x, along y, or along a
    /// diagonal through a centre), sub-pixel blobs, and a share with one
    /// coordinate non-finite or out where the area overflows.
    fn edge_case_triangle(rng: &mut StdRng, (width, height): (usize, usize)) -> [Vec3; 3] {
        // Half the centres are among the first few, where an ulp is small
        // enough for a weight to round to exactly zero just off an edge.
        let centre = |rng: &mut StdRng, pixels: usize| {
            let pixels = if rng.random_range(0u32..2) == 0 {
                3
            } else {
                pixels as i32
            };
            rng.random_range(-2i32..pixels + 2) as f32 + 0.5
        };
        let (cx, cy) = (centre(rng, width), centre(rng, height));
        // a coordinate near a centre: on it, on the band's edge, or anywhere
        // near, to the ulp or not
        let near = |rng: &mut StdRng, centre: f32| {
            let offset = match rng.random_range(0u32..8) {
                0 | 1 => 0.0,
                2 => CLEAR,
                3 => -CLEAR,
                4 => 1.0 - CLEAR,
                5 => rng.random_range(-0.05f32..0.05),
                _ => rng.random_range(-1.2f32..1.2),
            };
            match rng.random_range(0u32..3) {
                0 => centre + offset,
                1 => nudge(centre + offset, rng.random_range(-4i32..5)),
                _ => centre + offset + rng.random_range(-1e-3f32..1e-3),
            }
        };
        let mut v = [(); 3].map(|_| Vec3::new(near(rng, cx), near(rng, cy), 1.0));
        if rng.random_range(0u32..2) == 0 {
            // sub-pixel blob: the other two vertices close to the first
            let size = [2.0 * CLEAR, 0.1, 0.45][rng.random_range(0usize..3)];
            for i in 1..3 {
                v[i] = v[0]
                    + Vec3::new(
                        rng.random_range(-size..size),
                        rng.random_range(-size..size),
                        0.0,
                    );
            }
        }
        match rng.random_range(0u32..8) {
            // needle: the third vertex almost on the line through the others
            0..=2 => {
                let t = rng.random_range(-0.5f32..1.5);
                let across = 10f32.powi(rng.random_range(-7i32..-1));
                let along = v[1] - v[0];
                v[2] = v[0] + along * t + Vec3::new(-along.y, along.x, 0.0) * across;
            }
            // tall or wide: one vertex far along one axis
            3 => v[2].y += 10f32.powi(rng.random_range(0i32..6)),
            4 => v[2].x -= 10f32.powi(rng.random_range(0i32..6)),
            5 => {
                let hostile = [f32::NAN, f32::INFINITY, -1e30, 3e38, 1e20];
                let value = hostile[rng.random_range(0usize..hostile.len())];
                match rng.random_range(0u32..3) {
                    0 => v[0].x = value,
                    1 => v[1].y = value,
                    _ => v[2] = Vec3::new(value, -value, 1.0),
                }
            }
            _ => {}
        }
        for p in &mut v {
            p.z = rng.random_range(0.5f32..20.0);
        }
        v
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// `Coverage` finds exactly the fragments of [`reference_fill`] —
        /// same pixels, same depth and weight bits (all NaNs as one) — on
        /// triangles chosen to break the early exit for triangles between
        /// pixel centres.
        #[test]
        fn coverage_matches_serial_reference(seed in 0u64..u64::MAX, cam in 0usize..3) {
            let mut rng = StdRng::seed_from_u64(seed);
            let camera = cameras()[cam];
            let image = (camera.width, camera.height);
            let bits = crate::testing::bits_nan_as_one;
            let mut skipped = 0;
            for _ in 0..4_000 {
                let v = edge_case_triangle(&mut rng, image);
                let mut want = Vec::new();
                reference_fill(v, image, |px, py, depth, pw| {
                    want.push((px, py, bits(depth), pw.map(bits)));
                });
                let mut got = Vec::new();
                match Coverage::of(&v.map(Some), [0, 1, 2], &camera) {
                    None => skipped += 1,
                    Some(tri) => {
                        for py in tri.ys.clone() {
                            for px in tri.xs.clone() {
                                if let Some((depth, pw)) = tri.at(px, py) {
                                    got.push((px, py, bits(depth), pw.map(bits)));
                                }
                            }
                        }
                    }
                }
                prop_assert_eq!(got, want, "triangle {:?}", v);
            }
            prop_assert!(skipped > 400, "only {} triangles took an early exit", skipped);
        }
    }

    /// `n` triangles over the vertices of a [`hostile_cloud`] (NaN and
    /// infinite coordinates, behind the eye, out to where the pixel casts
    /// saturate, exact copies, equal-depth lattices), a share of them
    /// hostile themselves: slivers of a fraction of a pixel up to a few
    /// pixels that straddle or miss a pixel centre, arbitrary vertex
    /// triples (large, often crossing the frustum or the eye plane),
    /// earlier triangles again on fresh vertices with other scalars
    /// (coplanar, every fragment an exact depth tie), repeated indices and
    /// collinear vertices (zero area), triangles in one view-depth plane
    /// that overlap their neighbours, and one that covers the whole image.
    fn hostile_mesh(seed: u64, n: usize, camera: &Camera) -> TriangleMesh {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7472_6961_6e67_6c65);
        let cloud = hostile_cloud(seed, n.max(3), camera);
        let mut mesh = TriangleMesh::new();
        for (&p, &v) in cloud.positions().iter().zip(cloud.scalar("v").expect("v")) {
            let normal = Vec3::new(
                rng.random_range(-1.0f32..1.0),
                rng.random_range(-1.0f32..1.0),
                rng.random_range(-1.0f32..1.0),
            );
            mesh.push_vertex(p, normal, v);
        }
        let base = mesh.positions.len() as u32;
        let near = |mesh: &mut TriangleMesh, rng: &mut StdRng, p: Vec3, reach: f32| {
            let offset = Vec3::new(
                rng.random_range(-1.0f32..1.0),
                rng.random_range(-1.0f32..1.0),
                rng.random_range(-1.0f32..1.0),
            ) * reach;
            let scalar = rng.random_range(0.0f32..1.0);
            mesh.push_vertex(p + offset, offset, scalar)
        };
        for _ in 0..n {
            let v0 = rng.random_range(0..base);
            let p0 = mesh.positions[v0 as usize];
            match rng.random_range(0u32..16) {
                0 => {
                    let (v1, v2) = (rng.random_range(0..base), rng.random_range(0..base));
                    mesh.push_triangle(v0, v1, v2);
                }
                1 | 2 if !mesh.indices.is_empty() => {
                    let t = mesh.indices[rng.random_range(0..mesh.indices.len())];
                    let [a, b, c] = t.map(|i| {
                        let p = mesh.positions[i as usize];
                        near(&mut mesh, &mut rng, p, 0.0)
                    });
                    mesh.push_triangle(a, b, c);
                }
                3 => mesh.push_triangle(v0, v0, rng.random_range(0..base)),
                4 => {
                    let step = Vec3::new(0.07, 0.0, 0.03);
                    let v1 = mesh.push_vertex(p0 + step, step, 0.2);
                    let v2 = mesh.push_vertex(p0 + step * 2.0, step, 0.9);
                    mesh.push_triangle(v0, v1, v2);
                }
                5 | 6 => {
                    // same y as p0: one view depth under the first camera
                    let reach = 0.4;
                    let [v1, v2] = [(); 2].map(|_| {
                        let offset = Vec3::new(
                            rng.random_range(-reach..reach),
                            0.0,
                            rng.random_range(-reach..reach),
                        );
                        mesh.push_vertex(p0 + offset, offset, rng.random_range(0.0f32..1.0))
                    });
                    mesh.push_triangle(v0, v1, v2);
                }
                _ => {
                    let reach = [0.004, 0.02, 0.08, 0.3][rng.random_range(0usize..4)];
                    let v1 = near(&mut mesh, &mut rng, p0, reach);
                    let v2 = near(&mut mesh, &mut rng, p0, reach);
                    mesh.push_triangle(v0, v1, v2);
                }
            }
        }
        // Behind everything the cameras frame, wider than any image.
        let at = camera.position + camera.forward() * 30.0;
        let corners = [
            at - camera.right() * 400.0 - camera.up() * 400.0,
            at + camera.right() * 400.0 - camera.up() * 400.0,
            at + camera.up() * 400.0,
        ]
        .map(|p| mesh.push_vertex(p, camera.forward(), 0.5));
        mesh.indices
            .insert(rng.random_range(0..mesh.indices.len() + 1), corners);
        mesh
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Colour plane, depth plane and statistics are bit-equal to the
        /// serial reference at every thread count, on hostile meshes (see
        /// `hostile_mesh`) under cameras that are neither square nor
        /// multiples of 16.
        #[test]
        fn matches_serial_reference(
            seed in 0u64..u64::MAX,
            n in 0usize..6_000,
            cam in 0usize..3,
            flags in 0u8..4,
        ) {
            // one case in four is a handful of triangles
            let n = if flags == 0 { n % 40 } else { n };
            let camera = cameras()[cam];
            let mesh = hostile_mesh(seed, n, &camera);
            prop_assert!(mesh.validate());
            let background = Vec3::new(0.1, 0.2, 0.3);
            let lighting = Lighting::default();
            let want = reference_rasterize(&mesh, &tf(), &camera, &lighting, background);
            prop_assert_eq!(
                want.0.fragments_landed(),
                camera.width * camera.height,
                "one triangle covers the whole image"
            );
            for (threads, got) in at_thread_counts(|| {
                rasterize_mesh(&mesh, &tf(), &camera, &lighting, background)
            }) {
                // the wire encoding is both planes' bit patterns
                prop_assert!(got.0.to_bytes() == want.0.to_bytes(), "frame differs at {threads} threads");
                prop_assert_eq!(got.1, want.1, "stats differ at {} threads", threads);
            }
        }
    }

    #[test]
    fn mesh_order_breaks_depth_ties() {
        // Two coincident quads: the strict < depth test keeps the first.
        let mut both = quad_mesh(0.0);
        for s in &mut both.scalars {
            *s = 1.0;
        }
        let mut second = quad_mesh(0.0);
        for s in &mut second.scalars {
            *s = 0.0;
        }
        both.append(&second);
        let light = Lighting {
            ambient: 1.0,
            diffuse: 0.0,
            specular: 0.0,
            ..Lighting::default()
        };
        let (_, one) = rasterize_mesh(&second, &tf(), &cam(), &light, Vec3::splat(0.5));
        let (fb, stats) = rasterize_mesh(&both, &tf(), &cam(), &light, Vec3::splat(0.5));
        assert_eq!(fb.color_at(32, 32), Vec3::ONE, "first quad wins the tie");
        assert_eq!(
            stats.fragments,
            2 * one.fragments,
            "fragments count the ones that lose the depth test too"
        );
    }
}
