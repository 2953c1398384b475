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

use crate::camera::Camera;
use crate::color::TransferFunction;
use crate::framebuffer::Framebuffer;
use crate::ray::bvh::{RayPacket, SphereBvh, SphereHit, PACKET_WIDTH};
use crate::scratch::Scratch;
use crate::shading::Lighting;
use crate::tile;
use eth_data::{PointCloud, Vec3};

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
    /// * `scratch` — the rank's buffers; the tree's arrays go back with
    ///   [`SphereRaycaster::into_tree`] and [`Scratch::recycle_tree`].
    pub fn build(
        cloud: &'a PointCloud,
        scalar: Option<&str>,
        radius: f32,
        scratch: &mut Scratch,
    ) -> SphereRaycaster<'a> {
        let scalars = scalar.and_then(|name| cloud.scalar(name).ok());
        SphereRaycaster {
            bvh: SphereBvh::build_in(cloud.positions(), radius, scratch),
            scalars,
        }
    }

    /// The acceleration structure, for its holder to hand back.
    pub fn into_tree(self) -> SphereBvh {
        self.bvh
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

    /// Render one frame; framebuffer tiles are the parallel work unit
    /// (written straight into the frame, see [`tile::trace_in_place`]), and
    /// rays within a tile are generated into packets of [`PACKET_WIDTH`]
    /// and traverse the BVH together. Tiles write disjoint pixel ranges, so
    /// the image is identical for any thread count. The frame is one of
    /// `scratch`'s.
    pub fn render(
        &self,
        camera: &Camera,
        tf: &TransferFunction,
        lighting: &Lighting,
        background: Vec3,
        scratch: &mut Scratch,
    ) -> (Framebuffer, SphereRaycastStats) {
        let rays = camera.ray_generator();
        let mut fb = scratch.framebuffer(camera.width, camera.height, background);
        let traced = tile::trace_in_place(&mut fb, |t, band| {
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
        let rc = SphereRaycaster::build(&cloud, None, 0.5, &mut Scratch::new());
        let (fb, stats) = rc.render(
            &cam(64),
            &tf(),
            &Lighting::default(),
            Vec3::ZERO,
            &mut Scratch::new(),
        );
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
        let rc = SphereRaycaster::build(&cloud, Some("v"), 0.5, &mut Scratch::new());
        let flat = Lighting {
            ambient: 1.0,
            diffuse: 0.0,
            specular: 0.0,
            ..Lighting::default()
        };
        let (fb, _) = rc.render(&cam(32), &tf(), &flat, Vec3::ZERO, &mut Scratch::new());
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
        let rc = SphereRaycaster::build(&cloud, Some("v"), 0.3, &mut Scratch::new());
        let flat = Lighting {
            ambient: 1.0,
            diffuse: 0.0,
            specular: 0.0,
            ..Lighting::default()
        };
        let (fb, _) = rc.render(
            &cam(64),
            &tf(),
            &flat,
            Vec3::splat(0.5),
            &mut Scratch::new(),
        );
        assert_eq!(fb.color_at(32, 32), Vec3::ONE, "near particle must occlude");
    }

    #[test]
    fn empty_cloud_gives_background() {
        let cloud = PointCloud::new();
        let rc = SphereRaycaster::build(&cloud, None, 0.5, &mut Scratch::new());
        let (fb, stats) = rc.render(
            &cam(16),
            &tf(),
            &Lighting::default(),
            Vec3::splat(0.3),
            &mut Scratch::new(),
        );
        assert_eq!(stats.hits, 0);
        assert_eq!(fb.color_at(8, 8), Vec3::splat(0.3));
    }

    #[test]
    fn render_cost_tracks_rays_not_particles() {
        // Same scene at two image sizes: traversal steps scale with pixels.
        let cloud = scene(2000);
        let rc = SphereRaycaster::build(&cloud, None, 0.02, &mut Scratch::new());
        let (_, s_small) = rc.render(
            &cam(32),
            &tf(),
            &Lighting::default(),
            Vec3::ZERO,
            &mut Scratch::new(),
        );
        let (_, s_large) = rc.render(
            &cam(64),
            &tf(),
            &Lighting::default(),
            Vec3::ZERO,
            &mut Scratch::new(),
        );
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
        let rc = SphereRaycaster::build(&cloud, None, 0.05, &mut Scratch::new());
        let (a, _) = rc.render(
            &cam(48),
            &tf(),
            &Lighting::default(),
            Vec3::ZERO,
            &mut Scratch::new(),
        );
        let (b, _) = rc.render(
            &cam(48),
            &tf(),
            &Lighting::default(),
            Vec3::ZERO,
            &mut Scratch::new(),
        );
        assert_eq!(a, b);
    }

    #[test]
    fn every_pixel_holds_the_brute_force_hit_of_its_primary_ray() {
        let cloud = scene(3000);
        let (camera, lighting, background) = (cam(96), Lighting::default(), Vec3::ZERO);
        let rc = SphereRaycaster::build(&cloud, None, 0.03, &mut Scratch::new());
        let (fb, stats) = rc.render(&camera, &tf(), &lighting, background, &mut Scratch::new());
        assert!(stats.hits > 0, "the scene must be visible");
        let bits = |v: Vec3| [v.x, v.y, v.z].map(f32::to_bits);
        for py in 0..camera.height {
            for px in 0..camera.width {
                let ray = camera.primary_ray(px, py);
                let hit = rc.bvh.intersect_brute_force(&ray, f32::MAX);
                let (depth, color) = rc.shade(hit, ray.dir, &tf(), &lighting, background);
                assert_eq!(fb.depth_at(px, py).to_bits(), depth.to_bits(), "({px}, {py})");
                assert_eq!(bits(fb.color_at(px, py)), bits(color), "({px}, {py})");
            }
        }
    }
}
