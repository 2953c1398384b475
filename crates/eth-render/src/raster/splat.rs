//! Gaussian splatter renderer.
//!
//! The paper's second geometry-based particle technique: each point becomes
//! a single screen-aligned impostor "rendered to the screen using a
//! specialized shader function that manipulates the triangle normal at each
//! pixel to model a sphere" (Section IV-C). We implement exactly that
//! impostor trick in software: the footprint is a disc whose per-pixel
//! normals are reconstructed from the disc parameterization, giving the
//! appearance of a shaded sphere without any sphere geometry.
//!
//! Cost shape: O(N) plus the impostors' pixels. The paper observed Gaussian
//! splat outperforming VTK points and attributed it to "a superior
//! implementation". Here a sub-pixel impostor is one fragment, shaded by
//! one affine map of its albedo, and VTK points stores one key per particle
//! too but spreads it over its block in two per-pixel passes; so at the
//! at-scale (sub-pixel) regime splat stays ahead by a measured margin
//! (DESIGN.md §14), not by a strict subset of work.
//!
//! Parallel structure: the same scatter kernel as the points renderer
//! (`raster/scatter.rs`). The scatter pass computes only each fragment's
//! depth — the impostor's bulge toward the viewer — and keeps the
//! per-pixel `(depth, input index)` winner; the shader runs afterwards,
//! once per covered pixel, rebuilding the winning impostor's `Footprint`
//! from its particle and the normal from the pixel's offset in it. Both
//! passes evaluate the same expressions, so the frame is bit-identical to
//! shading every fragment as it is drawn, at any thread count.

use super::scatter::{resolve, scatter};
use crate::camera::{Camera, Projector};
use crate::color::TransferFunction;
use crate::framebuffer::Framebuffer;
use crate::scratch::Scratch;
use crate::shading::Lighting;
use eth_data::{PointCloud, Vec3};

/// Statistics returned by the splatter. A function of the input alone: the
/// same at any thread count and under any particle order.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SplatStats {
    pub points_in: usize,
    pub points_projected: usize,
    /// Impostor pixels rasterized inside the image, before the depth test.
    pub fragments: u64,
    /// Splats that collapsed to a single fragment (sub-pixel footprint).
    pub subpixel_splats: u64,
}

/// Footprints are capped at this screen radius.
const MAX_FOOTPRINT_PX: f32 = 16.0;
/// Below this screen radius an impostor is one centre-facing fragment.
const SUBPIXEL_PX: f32 = 0.75;

/// One particle's impostor on screen.
struct Footprint {
    cx: isize,
    cy: isize,
    /// View depth of the particle's centre.
    depth: f32,
    /// Screen radius in pixels.
    r_px: f32,
}

impl Footprint {
    fn of(projector: &Projector, p: Vec3, radius: f32) -> Option<Footprint> {
        let (fx, fy, depth) = projector.project(p)?;
        Some(Footprint {
            cx: fx as isize,
            cy: fy as isize,
            depth,
            r_px: Footprint::radius_px(projector, depth, radius),
        })
    }

    /// Screen radius of an impostor of world `radius` at view `depth`.
    /// Never grows with depth for a positive `radius`; for any other it
    /// lies on the same side of [`SUBPIXEL_PX`] at every depth.
    #[inline]
    fn radius_px(projector: &Projector, depth: f32, radius: f32) -> f32 {
        (projector.pixels_per_world_unit(depth) * radius).min(MAX_FOOTPRINT_PX)
    }

    fn is_subpixel(&self) -> bool {
        self.r_px < SUBPIXEL_PX
    }

    /// The unit-sphere normal `(nx, ny, nz)`, in view axes, that the
    /// impostor models `(dx, dy)` pixels from its centre — the "shader
    /// trick" of the paper. `None` outside the disc.
    #[inline]
    fn normal_at(&self, dx: isize, dy: isize) -> Option<(f32, f32, f32)> {
        let inv_r = 1.0 / self.r_px;
        let nx = dx as f32 * inv_r;
        let ny = -(dy as f32) * inv_r; // screen y is down
        let rr = nx * nx + ny * ny;
        if rr > 1.0 {
            return None;
        }
        Some((nx, ny, (1.0 - rr).sqrt()))
    }
}

/// Render a point cloud as sphere impostors of world-space `radius`.
// the frame's inputs, as every renderer takes them, and the rank's buffers
#[allow(clippy::too_many_arguments)]
pub fn render_splats(
    cloud: &PointCloud,
    scalar: Option<&str>,
    tf: &TransferFunction,
    camera: &Camera,
    lighting: &Lighting,
    background: Vec3,
    radius: f32,
    scratch: &mut Scratch,
) -> (Framebuffer, SplatStats) {
    let scalars = scalar.and_then(|name| cloud.scalar(name).ok());
    let positions = cloud.positions();
    let projector = camera.projector();

    let scattered = scatter(
        positions.len(),
        camera.width,
        camera.height,
        0,
        &mut scratch.key_planes,
        |indices, sink| {
            let mut stats = SplatStats::default();
            for (i, &p) in indices.clone().zip(&positions[indices]) {
                let Some(fp) = Footprint::of(&projector, p, radius) else {
                    continue;
                };
                stats.points_projected += 1;
                if fp.is_subpixel() {
                    stats.subpixel_splats += 1;
                    sink.put(i, fp.cx, fp.cy, fp.depth);
                    continue;
                }
                let ir = fp.r_px.ceil() as isize;
                for dy in -ir..=ir {
                    for dx in -ir..=ir {
                        if let Some((_, _, nz)) = fp.normal_at(dx, dy) {
                            sink.put(
                                i,
                                fp.cx.saturating_add(dx),
                                fp.cy.saturating_add(dy),
                                fp.depth - nz * radius,
                            );
                        }
                    }
                }
            }
            stats
        },
    );

    // Sub-pixel impostors all face the camera, so their shading collapses
    // to one affine map of the albedo.
    let view_dir = -camera.forward();
    let flat_add = lighting.shade(Vec3::ZERO, view_dir, view_dir);
    let flat_scale = lighting.shade(Vec3::ONE, view_dir, view_dir) - flat_add;
    let fb = scratch.framebuffer(camera.width, camera.height, background);
    let fb = resolve(&scattered, fb, |i, x, y, depth| {
        // A fragment lies no deeper than its impostor's centre, and the
        // screen radius never grows with depth: a fragment whose own depth
        // gives a sub-pixel radius is a sub-pixel impostor's one fragment,
        // at the centre's depth, and shades without projecting again.
        if Footprint::radius_px(&projector, depth, radius) < SUBPIXEL_PX {
            let albedo = tf.color(scalars.map_or(depth, |s| s[i]));
            return albedo.mul_elem(flat_scale) + flat_add;
        }
        let fp = Footprint::of(&projector, positions[i], radius)
            .expect("a winning fragment's particle projects");
        let albedo = tf.color(match scalars {
            Some(s) => s[i],
            None => fp.depth,
        });
        let (nx, ny, nz) = fp
            .normal_at(x as isize - fp.cx, y as isize - fp.cy)
            .expect("a winning fragment lies inside its disc");
        let normal = camera.right() * nx + camera.up() * ny - camera.forward() * nz;
        lighting.shade(albedo, normal, view_dir)
    });

    let mut stats = SplatStats {
        points_in: positions.len(),
        fragments: scattered.fragments(),
        ..Default::default()
    };
    for s in scattered.slices() {
        stats.points_projected += s.points_projected;
        stats.subpixel_splats += s.subpixel_splats;
    }
    scattered.park(&mut scratch.key_planes);
    (fb, stats)
}

#[cfg(test)]
mod tests {
    use super::super::scatter::testing::{cameras, hostile_cloud};
    use crate::testing::at_thread_counts;
    use super::*;
    use crate::color::Colormap;
    use proptest::prelude::*;

    fn cam(px: usize) -> Camera {
        Camera::look_at(
            Vec3::new(0.0, -5.0, 0.0),
            Vec3::ZERO,
            Vec3::new(0.0, 0.0, 1.0),
            45.0,
            px,
            px,
        )
    }

    fn tf() -> TransferFunction {
        TransferFunction::new(Colormap::Gray, 0.0, 1.0)
    }

    #[test]
    fn splat_fills_a_disc() {
        let cloud = PointCloud::from_positions(vec![Vec3::ZERO]);
        let (fb, stats) = render_splats(
            &cloud,
            None,
            &tf(),
            &cam(64),
            &Lighting::default(),
            Vec3::ZERO,
            0.5,
            &mut Scratch::new(),
        );
        assert_eq!(stats.points_projected, 1);
        assert!(stats.fragments > 4, "fragments {}", stats.fragments);
        // center pixel covered
        assert!(fb.depth_at(32, 32).is_finite());
    }

    #[test]
    fn tiny_radius_collapses_to_single_fragment() {
        let cloud = PointCloud::from_positions(vec![Vec3::ZERO]);
        let (_, stats) = render_splats(
            &cloud,
            None,
            &tf(),
            &cam(64),
            &Lighting::default(),
            Vec3::ZERO,
            1e-4,
            &mut Scratch::new(),
        );
        assert_eq!(stats.fragments, 1);
        assert_eq!(stats.subpixel_splats, 1);
    }

    #[test]
    fn sphere_shading_darkens_toward_rim() {
        let cloud = PointCloud::from_positions(vec![Vec3::ZERO]);
        let light_along_view = Lighting {
            light_dir: Vec3::new(0.0, -1.0, 0.0),
            specular: 0.0,
            ..Lighting::default()
        };
        let (fb, _) = render_splats(
            &cloud,
            None,
            &tf(),
            &cam(128),
            &light_along_view,
            Vec3::ZERO,
            0.8,
            &mut Scratch::new(),
        );
        let center = fb.color_at(64, 64);
        // scan from the left edge: first covered pixel is the leftmost rim
        let mut rim = None;
        for x in 0..64 {
            if fb.depth_at(x, 64).is_finite() {
                rim = Some(fb.color_at(x, 64));
                break;
            }
        }
        let rim = rim.expect("disc has a rim");
        assert!(
            center.x > rim.x,
            "center {center:?} should outshine rim {rim:?}"
        );
    }

    #[test]
    fn splat_depth_bulges_toward_viewer() {
        let cloud = PointCloud::from_positions(vec![Vec3::ZERO]);
        let (fb, _) = render_splats(
            &cloud,
            None,
            &tf(),
            &cam(64),
            &Lighting::default(),
            Vec3::ZERO,
            0.5,
            &mut Scratch::new(),
        );
        // center of the sphere is nearer than the silhouette depth (5.0)
        let d = fb.depth_at(32, 32);
        assert!(d < 5.0 && d > 4.0, "depth {d}");
    }

    /// The specification of the renderer: particles in input order, every
    /// impostor fragment shaded as it is drawn and put through the
    /// framebuffer's strict `<` depth test.
    fn reference_splats(
        cloud: &PointCloud,
        scalar: Option<&str>,
        tf: &TransferFunction,
        camera: &Camera,
        lighting: &Lighting,
        background: Vec3,
        radius: f32,
    ) -> (Framebuffer, SplatStats) {
        let scalars = scalar.and_then(|name| cloud.scalar(name).ok());
        let mut fb = Framebuffer::new(camera.width, camera.height, background);
        let mut stats = SplatStats {
            points_in: cloud.positions().len(),
            ..Default::default()
        };
        let view_dir = -camera.forward();
        let black = lighting.shade(Vec3::ZERO, view_dir, view_dir);
        let white = lighting.shade(Vec3::ONE, view_dir, view_dir);
        let mut write = |x: isize, y: isize, depth: f32, color: Vec3| {
            fb.write_clipped(x, y, depth, color);
            let inside =
                (0..camera.width as isize).contains(&x) && (0..camera.height as isize).contains(&y);
            stats.fragments += (inside && depth < f32::INFINITY) as u64;
        };
        for (i, &p) in cloud.positions().iter().enumerate() {
            let Some((fx, fy, depth)) = camera.project(p) else {
                continue;
            };
            stats.points_projected += 1;
            let albedo = tf.color(scalars.map_or(depth, |s| s[i]));
            let r_px = (camera.pixels_per_world_unit(depth) * radius).min(16.0);
            if r_px < 0.75 {
                let color = albedo.mul_elem(white - black) + black;
                write(fx as isize, fy as isize, depth, color);
                stats.subpixel_splats += 1;
                continue;
            }
            let ir = r_px.ceil() as isize;
            let inv_r = 1.0 / r_px;
            for dy in -ir..=ir {
                for dx in -ir..=ir {
                    let nx = dx as f32 * inv_r;
                    let ny = -(dy as f32) * inv_r;
                    let rr = nx * nx + ny * ny;
                    if rr > 1.0 {
                        continue;
                    }
                    let nz = (1.0 - rr).sqrt();
                    let normal = camera.right() * nx + camera.up() * ny - camera.forward() * nz;
                    write(
                        (fx as isize).saturating_add(dx),
                        (fy as isize).saturating_add(dy),
                        depth - nz * radius,
                        lighting.shade(albedo, normal, view_dir),
                    );
                }
            }
        }
        (fb, stats)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Frame and statistics equal the serial reference at every thread
        /// count, on hostile clouds (see `hostile_cloud`), for radii from
        /// sub-pixel through the 0.75 px cut to larger than the view depth
        /// (negative impostor depths; exactly 0.0 at radius 5 and 6 under
        /// the first camera).
        #[test]
        fn matches_serial_reference(
            seed in 0u64..u64::MAX,
            n in 0usize..9_000,
            cam in 0usize..3,
            radius in 0usize..8,
            flags in 0u8..8,
        ) {
            let radius = [1e-4, 0.004, 0.012, 0.05, 0.4, 5.0, 6.0, 40.0][radius];
            // large footprints cost hundreds of fragments per particle
            let n = match flags & 3 {
                0 => n % 40,
                _ if radius > 0.1 => n % 3_000,
                _ => n,
            };
            let scalar = (flags & 4 == 0).then_some("v");
            let camera = cameras()[cam];
            let cloud = hostile_cloud(seed, n, &camera);
            let lighting = Lighting::default();
            let background = Vec3::new(0.1, 0.2, 0.3);
            let want = reference_splats(&cloud, scalar, &tf(), &camera, &lighting, background, radius);
            for (threads, got) in at_thread_counts(|| {
                let scratch = &mut Scratch::new();
                render_splats(&cloud, scalar, &tf(), &camera, &lighting, background, radius, scratch)
            }) {
                prop_assert!(got.0 == want.0, "frame differs at {threads} threads");
                prop_assert_eq!(got.1, want.1, "stats differ at {} threads", threads);
            }
        }
    }

    #[test]
    fn impostor_depth_reaches_exactly_zero_and_below() {
        // Radius = view depth: the centre fragment's depth is 5 - 1*5 = 0.0,
        // and a larger radius pushes the bulge behind the eye plane.
        let cloud = PointCloud::from_positions(vec![Vec3::ZERO]);
        let l = Lighting::default();
        let (fb, _) = render_splats(
            &cloud,
            None,
            &tf(),
            &cam(64),
            &l,
            Vec3::ZERO,
            5.0,
            &mut Scratch::new(),
        );
        assert_eq!(fb.depth_at(32, 32), 0.0);
        let (fb, _) = render_splats(
            &cloud,
            None,
            &tf(),
            &cam(64),
            &l,
            Vec3::ZERO,
            7.0,
            &mut Scratch::new(),
        );
        assert_eq!(fb.depth_at(32, 32), -2.0);
    }
}
