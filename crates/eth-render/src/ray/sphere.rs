//! Raycast-spheres renderer (the HACC particle case).
//!
//! "This case is particularly well-suited to raycasting. Each particle is
//! represented as a 3-D point and a world-space radius … If a ray does
//! intersect a sphere, a simple geometric calculation produces an
//! intersection depth and orientation for shading." (Section IV-C)
//!
//! The hot path is tiled and packetized: 16×16 framebuffer tiles write
//! their pixels straight into the frame, one band of tile rows per rayon
//! item (see [`crate::tile::trace_in_place`]), and within a tile rays
//! advance through the BVH eight at a time ([`RayPacket`]) — adjacent
//! pixels walk almost the same node path, so one packet visit amortizes
//! the node fetch across all coherent lanes. Packets are generated
//! straight into their lanes from the camera's per-frame
//! [`RayGenerator`](crate::camera::RayGenerator), which evaluates
//! `tan(fov_y/2)` once per frame and each row's NDC y once per row, in the
//! expression order `Camera::primary_ray` always had. Lane arithmetic
//! mirrors the scalar path operation-for-operation, so tiled/packet frames
//! are byte-identical to a scalar per-pixel render.
//!
//! A raycaster lives inside one `render_views` call, so it borrows the
//! colouring attribute from the cloud rather than copying it.
//!
//! [`SphereRaycaster::render_progressive`] trades latency for completeness
//! the way interactive in-situ viewers do: a strided coarse pass fills the
//! frame with nearest-anchor stand-ins immediately, then successive passes
//! halve the stride and refine in place until the image equals the full
//! render bit-for-bit.

use crate::camera::Camera;
use crate::color::TransferFunction;
use crate::framebuffer::Framebuffer;
use crate::ray::bvh::{RayPacket, SphereBvh, SphereHit, PACKET_WIDTH};
use crate::shading::Lighting;
use crate::tile::{self, DEFAULT_TILE};
use eth_data::{PointCloud, Vec3};
use rayon::prelude::*;

/// One traced packet of progressive anchors: their depth/color pixels in
/// anchor order, traversal steps spent, and hits found.
type TracedPixels = (Vec<(f32, Vec3)>, u64, u64);

/// Statistics from one sphere-raycast render.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SphereRaycastStats {
    pub particles: usize,
    /// Primitive visits during the BVH build.
    pub build_ops: u64,
    pub rays: u64,
    pub hits: u64,
    /// BVH node + leaf-primitive visits across all rays. Packet traversal
    /// counts each visit once per *packet* (the packet is the unit of
    /// work), so this tracks actual memory traffic, not lane count.
    pub traversal_steps: u64,
    /// Framebuffer tiles rendered.
    pub tiles: u64,
}

/// One progressive-refinement pass: the stride it sampled at, the rays it
/// actually traced, and the RMSE of the frame it left behind versus the
/// converged image.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ProgressivePass {
    pub stride: usize,
    pub rays: u64,
    pub rmse: f64,
}

/// A built sphere-raycasting scene: keeps the acceleration structure so the
/// paper's "initial structure-generation phase" can be timed separately
/// from per-frame rendering (Figure 8's sub-linear scaling rests on this
/// split).
pub struct SphereRaycaster<'a> {
    bvh: SphereBvh,
    /// The colouring attribute, borrowed from the cloud the tree was built
    /// over: a raycaster lives inside one `render_views` call.
    scalars: Option<&'a [f32]>,
}

impl<'a> SphereRaycaster<'a> {
    /// Build the acceleration structure over a point cloud.
    ///
    /// * `scalar` — optional attribute for color lookup.
    /// * `radius` — world-space particle radius.
    pub fn build(cloud: &'a PointCloud, scalar: Option<&str>, radius: f32) -> SphereRaycaster<'a> {
        let scalars = scalar.and_then(|name| cloud.scalar(name).ok());
        SphereRaycaster {
            bvh: SphereBvh::build(cloud.positions(), radius),
            scalars,
        }
    }

    /// Like [`SphereRaycaster::build`] but with the median-split baseline
    /// builder (benchmarks and byte-identity tests).
    pub fn build_median(
        cloud: &'a PointCloud,
        scalar: Option<&str>,
        radius: f32,
    ) -> SphereRaycaster<'a> {
        let scalars = scalar.and_then(|name| cloud.scalar(name).ok());
        SphereRaycaster {
            bvh: SphereBvh::build_median(cloud.positions(), radius),
            scalars,
        }
    }

    pub fn build_ops(&self) -> u64 {
        self.bvh.build_ops()
    }

    /// Shade one hit (or miss) into a `(depth, color)` fragment.
    #[inline]
    fn shade(
        &self,
        hit: Option<SphereHit>,
        dir: Vec3,
        tf: &TransferFunction,
        lighting: &Lighting,
        background: Vec3,
    ) -> (f32, Vec3) {
        match hit {
            Some(hit) => {
                let value = match &self.scalars {
                    Some(s) => s[hit.prim as usize],
                    None => hit.t,
                };
                (hit.t, lighting.shade(tf.color(value), hit.normal, -dir))
            }
            None => (f32::INFINITY, background),
        }
    }

    /// Render one frame with the default tile size.
    pub fn render(
        &self,
        camera: &Camera,
        tf: &TransferFunction,
        lighting: &Lighting,
        background: Vec3,
    ) -> (Framebuffer, SphereRaycastStats) {
        self.render_tiled(camera, tf, lighting, background, DEFAULT_TILE)
    }

    /// Render one frame; framebuffer tiles of `tile_size × tile_size`
    /// pixels are the parallel work unit (written straight into the frame,
    /// see [`tile::trace_in_place`]), and rays within a tile are generated
    /// into packets of [`PACKET_WIDTH`] and traverse the BVH together.
    /// Tiles write disjoint pixel ranges, so the image is identical for any
    /// thread count.
    pub fn render_tiled(
        &self,
        camera: &Camera,
        tf: &TransferFunction,
        lighting: &Lighting,
        background: Vec3,
        tile_size: usize,
    ) -> (Framebuffer, SphereRaycastStats) {
        let rays = camera.ray_generator();
        let mut fb = Framebuffer::new(camera.width, camera.height, background);
        let traced = tile::trace_in_place(&mut fb, tile_size, |t, band| {
            let _span = eth_obs::span(eth_obs::Phase::Tile);
            let mut steps = 0u64;
            let mut hits = 0u64;
            for py in t.y0..t.y0 + t.h {
                let ndc_y = rays.ndc_y(py);
                for px in (t.x0..t.x0 + t.w).step_by(PACKET_WIDTH) {
                    let lanes = PACKET_WIDTH.min(t.x0 + t.w - px);
                    let packet = RayPacket::generate(&rays, lanes, |l| (rays.ndc_x(px + l), ndc_y));
                    let lane_hits = self.bvh.intersect_packet(&packet, f32::MAX, &mut steps);
                    for (l, &hit) in lane_hits[..lanes].iter().enumerate() {
                        hits += hit.is_some() as u64;
                        let (depth, color) =
                            self.shade(hit, packet.dir(l), tf, lighting, background);
                        band.store(px + l, py, depth, color);
                    }
                }
            }
            (steps, hits)
        });
        let mut stats = SphereRaycastStats {
            particles: self.bvh.num_primitives(),
            build_ops: self.bvh.build_ops(),
            rays: camera.num_pixels() as u64,
            tiles: traced.len() as u64,
            ..Default::default()
        };
        for (steps, hits) in traced {
            stats.traversal_steps += steps;
            stats.hits += hits;
        }
        eth_obs::count("rays_traced", stats.rays as f64);
        (fb, stats)
    }

    /// Progressive render: a coarse pass traces every `initial_stride`-th
    /// pixel and floods each stride×stride block with its anchor's value,
    /// then each subsequent pass halves the stride, traces only the new
    /// anchors, and re-floods — so a recognizable frame exists after
    /// tracing 1/stride² of the rays and the final pass leaves the exact
    /// image (bit-identical to [`SphereRaycaster::render`]). Returns the
    /// converged frame, cumulative stats, and one [`ProgressivePass`] per
    /// pass with the RMSE its intermediate frame had versus the converged
    /// image (monotonically decreasing, ending at 0).
    pub fn render_progressive(
        &self,
        camera: &Camera,
        tf: &TransferFunction,
        lighting: &Lighting,
        background: Vec3,
        initial_stride: usize,
    ) -> (Framebuffer, SphereRaycastStats, Vec<ProgressivePass>) {
        let width = camera.width;
        let height = camera.height;
        let stride0 = initial_stride.next_power_of_two().clamp(2, 64);
        let rays = camera.ray_generator();
        let mut fb = Framebuffer::new(width, height, background);
        let mut stats = SphereRaycastStats {
            particles: self.bvh.num_primitives(),
            build_ops: self.bvh.build_ops(),
            ..Default::default()
        };
        // (stride, rays traced, color snapshot after the pass)
        let mut passes: Vec<(usize, u64, Vec<Vec3>)> = Vec::new();
        let mut s = stride0;
        loop {
            let _span = eth_obs::span(eth_obs::Phase::ProgressivePass);
            // Anchors: s-grid points not already traced by a coarser pass
            // (coarser anchors live on the 2s-grid ⊆ s-grid).
            let mut anchors: Vec<(usize, usize)> = Vec::new();
            let mut y = 0;
            while y < height {
                let mut x = 0;
                while x < width {
                    if s == stride0 || x % (2 * s) != 0 || y % (2 * s) != 0 {
                        anchors.push((x, y));
                    }
                    x += s;
                }
                y += s;
            }
            // Trace the new anchors in ray packets (chunks preserve order,
            // so the result vector is deterministic).
            let traced: Vec<TracedPixels> = anchors
                .par_chunks(PACKET_WIDTH)
                .map(|chunk| {
                    let packet = RayPacket::generate(&rays, chunk.len(), |l| {
                        let (x, y) = chunk[l];
                        (rays.ndc_x(x), rays.ndc_y(y))
                    });
                    let mut steps = 0u64;
                    let mut hits = 0u64;
                    let lane_hits = self.bvh.intersect_packet(&packet, f32::MAX, &mut steps);
                    let frags = (0..chunk.len())
                        .map(|l| {
                            if lane_hits[l].is_some() {
                                hits += 1;
                            }
                            self.shade(lane_hits[l], packet.dir(l), tf, lighting, background)
                        })
                        .collect();
                    (frags, steps, hits)
                })
                .collect();
            let mut fresh = traced
                .iter()
                .flat_map(|(frags, _, _)| frags.iter().copied());
            for (_, steps, hits) in &traced {
                stats.traversal_steps += steps;
                stats.hits += hits;
            }
            stats.rays += anchors.len() as u64;

            // Flood every s-grid block from its anchor: new anchors use the
            // freshly traced fragment, old anchors re-flood their (exact)
            // stored pixel so every pixel's stand-in is ≤ s away.
            let mut y = 0;
            while y < height {
                let mut x = 0;
                while x < width {
                    let (d, c) = if s == stride0 || x % (2 * s) != 0 || y % (2 * s) != 0 {
                        fresh.next().expect("one traced fragment per new anchor")
                    } else {
                        (fb.depth_at(x, y), fb.color_at(x, y))
                    };
                    if s == 1 {
                        fb.store(x, y, d, c);
                    } else {
                        for by in y..(y + s).min(height) {
                            for bx in x..(x + s).min(width) {
                                fb.store(bx, by, d, c);
                            }
                        }
                    }
                    x += s;
                }
                y += s;
            }
            passes.push((s, anchors.len() as u64, fb.color_buffer().to_vec()));
            if s == 1 {
                break;
            }
            s /= 2;
        }
        eth_obs::count("rays_traced", stats.rays as f64);

        // Score each intermediate frame against the converged one.
        let final_color = fb.color_buffer();
        let n = (final_color.len() * 3) as f64;
        let report = passes
            .into_iter()
            .map(|(stride, rays, snapshot)| {
                let sum: f64 = snapshot
                    .iter()
                    .zip(final_color)
                    .map(|(a, b)| {
                        let d = *a - *b;
                        (d.x as f64).powi(2) + (d.y as f64).powi(2) + (d.z as f64).powi(2)
                    })
                    .sum();
                ProgressivePass {
                    stride,
                    rays,
                    rmse: if n > 0.0 { (sum / n).sqrt() } else { 0.0 },
                }
            })
            .collect();
        (fb, stats, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::color::Colormap;
    use eth_data::field::Attribute;

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

    fn scene(n: usize) -> PointCloud {
        let pos: Vec<Vec3> = (0..n)
            .map(|i| {
                let t = i as f32 * 0.013;
                Vec3::new(t.sin(), t.cos() * 0.5, ((i * 7) % 100) as f32 * 0.01 - 0.5)
            })
            .collect();
        PointCloud::from_positions(pos)
    }

    #[test]
    fn sphere_renders_as_disc() {
        let cloud = PointCloud::from_positions(vec![Vec3::ZERO]);
        let rc = SphereRaycaster::build(&cloud, None, 0.5);
        let (fb, stats) = rc.render(&cam(64), &tf(), &Lighting::default(), Vec3::ZERO);
        assert_eq!(stats.rays, 64 * 64);
        assert!(stats.hits > 20, "hits {}", stats.hits);
        assert!(stats.tiles > 0);
        assert!(fb.depth_at(32, 32).is_finite());
        // hit depth is the front of the sphere
        assert!((fb.depth_at(32, 32) - 4.5).abs() < 0.01);
    }

    #[test]
    fn scalar_colors_particles() {
        let mut cloud = PointCloud::from_positions(vec![Vec3::ZERO]);
        cloud.set_attribute("v", Attribute::Scalar(vec![1.0].into())).unwrap();
        let rc = SphereRaycaster::build(&cloud, Some("v"), 0.5);
        let flat = Lighting {
            ambient: 1.0,
            diffuse: 0.0,
            specular: 0.0,
            ..Lighting::default()
        };
        let (fb, _) = rc.render(&cam(32), &tf(), &flat, Vec3::ZERO);
        assert_eq!(fb.color_at(16, 16), Vec3::ONE);
    }

    #[test]
    fn occlusion_between_particles() {
        let mut cloud = PointCloud::from_positions(vec![
            Vec3::new(0.0, 1.0, 0.0),  // far
            Vec3::new(0.0, -1.0, 0.0), // near
        ]);
        cloud
            .set_attribute("v", Attribute::Scalar(vec![0.0, 1.0].into()))
            .unwrap();
        let rc = SphereRaycaster::build(&cloud, Some("v"), 0.3);
        let flat = Lighting {
            ambient: 1.0,
            diffuse: 0.0,
            specular: 0.0,
            ..Lighting::default()
        };
        let (fb, _) = rc.render(&cam(64), &tf(), &flat, Vec3::splat(0.5));
        assert_eq!(fb.color_at(32, 32), Vec3::ONE, "near particle must occlude");
    }

    #[test]
    fn empty_cloud_gives_background() {
        let cloud = PointCloud::new();
        let rc = SphereRaycaster::build(&cloud, None, 0.5);
        let (fb, stats) = rc.render(&cam(16), &tf(), &Lighting::default(), Vec3::splat(0.3));
        assert_eq!(stats.hits, 0);
        assert_eq!(fb.color_at(8, 8), Vec3::splat(0.3));
    }

    #[test]
    fn render_cost_tracks_rays_not_particles() {
        // Same scene at two image sizes: traversal steps scale with pixels.
        let cloud = scene(2000);
        let rc = SphereRaycaster::build(&cloud, None, 0.02);
        let (_, s_small) = rc.render(&cam(32), &tf(), &Lighting::default(), Vec3::ZERO);
        let (_, s_large) = rc.render(&cam(64), &tf(), &Lighting::default(), Vec3::ZERO);
        let ratio = s_large.traversal_steps as f64 / s_small.traversal_steps as f64;
        // 4x the rays -> ~4x the packets; packet coherence differs a bit
        // between the two sizes, so the band is generous — the property
        // under test is that cost is ray-bound (ratio ~4), not
        // particle-bound (ratio ~1).
        assert!((2.0..5.5).contains(&ratio), "traversal ratio {ratio} (want ~4)");
    }

    #[test]
    fn deterministic_render() {
        let pos: Vec<Vec3> = (0..500)
            .map(|i| Vec3::new((i as f32 * 0.7).sin(), 0.0, (i as f32 * 0.3).cos()))
            .collect();
        let cloud = PointCloud::from_positions(pos);
        let rc = SphereRaycaster::build(&cloud, None, 0.05);
        let (a, _) = rc.render(&cam(48), &tf(), &Lighting::default(), Vec3::ZERO);
        let (b, _) = rc.render(&cam(48), &tf(), &Lighting::default(), Vec3::ZERO);
        assert_eq!(a, b);
    }

    #[test]
    fn tile_size_does_not_change_the_image() {
        let cloud = scene(1500);
        let rc = SphereRaycaster::build(&cloud, None, 0.03);
        let camera = cam(70); // not a multiple of any tile size: edge tiles
        let (reference, _) = rc.render_tiled(&camera, &tf(), &Lighting::default(), Vec3::ZERO, 16);
        for tile_size in [4, 8, 32, 64] {
            let (fb, _) =
                rc.render_tiled(&camera, &tf(), &Lighting::default(), Vec3::ZERO, tile_size);
            assert_eq!(fb, reference, "tile size {tile_size}");
        }
    }

    #[test]
    fn hlbvh_frame_matches_median_frame_exactly() {
        let cloud = scene(3000);
        let hlbvh = SphereRaycaster::build(&cloud, None, 0.03);
        let median = SphereRaycaster::build_median(&cloud, None, 0.03);
        let (a, _) = hlbvh.render(&cam(96), &tf(), &Lighting::default(), Vec3::ZERO);
        let (b, _) = median.render(&cam(96), &tf(), &Lighting::default(), Vec3::ZERO);
        assert_eq!(a, b, "HLBVH and median-split frames must be byte-identical");
    }

    #[test]
    fn progressive_converges_to_full_render() {
        let cloud = scene(2000);
        let rc = SphereRaycaster::build(&cloud, None, 0.04);
        let camera = cam(75); // odd size exercises clipped blocks
        let (full, full_stats) = rc.render(&camera, &tf(), &Lighting::default(), Vec3::ZERO);
        let (prog, prog_stats, passes) =
            rc.render_progressive(&camera, &tf(), &Lighting::default(), Vec3::ZERO, 8);
        assert_eq!(prog, full, "converged progressive frame must equal full render");
        // every pixel traced exactly once across all passes
        assert_eq!(prog_stats.rays, full_stats.rays);
        assert_eq!(passes.len(), 4, "strides 8,4,2,1");
        assert_eq!(passes.last().unwrap().rmse, 0.0);
        for w in passes.windows(2) {
            assert!(
                w[1].rmse <= w[0].rmse,
                "RMSE must not increase: {passes:?}"
            );
        }
        assert!(passes[0].rmse > 0.0, "coarse pass differs from converged");
    }

    #[test]
    fn progressive_stride_is_normalized() {
        let cloud = scene(200);
        let rc = SphereRaycaster::build(&cloud, None, 0.05);
        // stride 0/1 clamp up to 2; stride 5 rounds up to 8
        let (_, _, p) =
            rc.render_progressive(&cam(16), &tf(), &Lighting::default(), Vec3::ZERO, 0);
        assert_eq!(p.first().unwrap().stride, 2);
        let (_, _, p) =
            rc.render_progressive(&cam(16), &tf(), &Lighting::default(), Vec3::ZERO, 5);
        assert_eq!(p.first().unwrap().stride, 8);
    }
}
