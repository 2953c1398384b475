//! Z-buffered triangle rasterizer — the OpenGL role.
//!
//! Consumes the meshes produced by the extraction filters and rasterizes
//! them with perspective-correct attribute interpolation and per-pixel
//! Lambertian shading. This is the second half of the paper's geometry
//! pipeline: its cost is proportional to the amount of generated geometry
//! (triangles × covered pixels), which is exactly the term that blows up
//! for large isosurfaces.

use crate::camera::Camera;
use crate::color::TransferFunction;
use crate::framebuffer::Framebuffer;
use crate::geometry::mesh::TriangleMesh;
use crate::shading::Lighting;
use eth_data::Vec3;
use rayon::prelude::*;

/// Statistics from one rasterization pass.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RasterStats {
    pub triangles_in: usize,
    /// Triangles surviving projection/clipping.
    pub triangles_rasterized: usize,
    pub fragments: u64,
}

/// Projected vertex: pixel coords + view depth + original index.
#[derive(Clone, Copy)]
struct ProjVert {
    x: f32,
    y: f32,
    depth: f32,
    index: u32,
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
    let mut projected: Vec<Option<ProjVert>> = vec![None; mesh.positions.len()];
    let slice = mesh
        .positions
        .len()
        .div_ceil(rayon::current_num_threads())
        .max(1);
    projected
        .par_chunks_mut(slice)
        .zip(mesh.positions.par_chunks(slice))
        .enumerate()
        .for_each(|(s, (out, positions))| {
            for (i, (slot, &p)) in out.iter_mut().zip(positions).enumerate() {
                *slot = projector.project(p).map(|(x, y, depth)| ProjVert {
                    x,
                    y,
                    depth,
                    index: (s * slice + i) as u32,
                });
            }
        });

    let chunk = (mesh.indices.len() / (rayon::current_num_threads() * 4)).max(1024);
    let (fb, stats) = mesh
        .indices
        .par_chunks(chunk)
        .map(|tris| {
            let mut fb = Framebuffer::new(camera.width, camera.height, background);
            let mut stats = RasterStats {
                triangles_in: tris.len(),
                ..Default::default()
            };
            for t in tris {
                let (Some(a), Some(b), Some(c)) = (
                    projected[t[0] as usize],
                    projected[t[1] as usize],
                    projected[t[2] as usize],
                ) else {
                    // Any vertex behind the eye: drop the triangle (full
                    // near-plane clipping is overkill for bounded scenes).
                    continue;
                };
                if fill_triangle(mesh, tf, camera, lighting, &mut fb, a, b, c, &mut stats) {
                    stats.triangles_rasterized += 1;
                }
            }
            (fb, stats)
        })
        .reduce(
            || {
                (
                    Framebuffer::new(camera.width, camera.height, background),
                    RasterStats::default(),
                )
            },
            |(mut fa, sa), (fb, sb)| {
                fa.composite_in(&fb);
                (
                    fa,
                    RasterStats {
                        triangles_in: sa.triangles_in + sb.triangles_in,
                        triangles_rasterized: sa.triangles_rasterized + sb.triangles_rasterized,
                        fragments: sa.fragments + sb.fragments,
                    },
                )
            },
        );
    (fb, stats)
}

/// Scanline-free barycentric fill. Returns true if any fragment could land.
#[allow(clippy::too_many_arguments)]
fn fill_triangle(
    mesh: &TriangleMesh,
    tf: &TransferFunction,
    camera: &Camera,
    lighting: &Lighting,
    fb: &mut Framebuffer,
    a: ProjVert,
    b: ProjVert,
    c: ProjVert,
    stats: &mut RasterStats,
) -> bool {
    // Screen-space bounding box, clipped to the image.
    let min_x = a.x.min(b.x).min(c.x).floor().max(0.0) as usize;
    let max_x = (a.x.max(b.x).max(c.x).ceil() as isize).min(fb.width() as isize - 1);
    let min_y = a.y.min(b.y).min(c.y).floor().max(0.0) as usize;
    let max_y = (a.y.max(b.y).max(c.y).ceil() as isize).min(fb.height() as isize - 1);
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

    let na = mesh.normals[a.index as usize];
    let nb = mesh.normals[b.index as usize];
    let nc = mesh.normals[c.index as usize];
    let sa = mesh.scalars[a.index as usize];
    let sb = mesh.scalars[b.index as usize];
    let sc = mesh.scalars[c.index as usize];
    let view_dir = -camera.forward();

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
            let iz0 = w0 / a.depth;
            let iz1 = w1 / b.depth;
            let iz2 = w2 / c.depth;
            let iz_sum = iz0 + iz1 + iz2;
            let depth = 1.0 / iz_sum;
            let pw0 = iz0 * depth;
            let pw1 = iz1 * depth;
            let pw2 = iz2 * depth;
            let normal = na * pw0 + nb * pw1 + nc * pw2;
            let scalar = sa * pw0 + sb * pw1 + sc * pw2;
            let color = lighting.shade(tf.color(scalar), normal, view_dir);
            if fb.write(px, py, depth, color) {
                stats.fragments += 1;
            }
            landed = true;
        }
    }
    landed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::color::Colormap;

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
}
