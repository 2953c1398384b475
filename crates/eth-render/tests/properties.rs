//! Property-based tests for the rendering substrates.

use eth_render::camera::{Camera, Ray};
use eth_render::color::{Colormap, TransferFunction};
use eth_render::composite::composite_direct;
use eth_render::framebuffer::Framebuffer;
use eth_render::geometry::marching_cubes::extract_isosurface;
use eth_render::ray::bvh::{RayPacket, SphereBvh};
use eth_data::field::Attribute;
use eth_data::{UniformGrid, Vec3};
use proptest::prelude::*;

fn arb_vec3(r: f32) -> impl Strategy<Value = Vec3> {
    (-r..r, -r..r, -r..r).prop_map(|(x, y, z)| Vec3::new(x, y, z))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// BVH intersection must find brute force's nearest hit — same t to the
    /// bit, same sphere — for random scenes and rays: a closest-hit query
    /// is independent of tree shape.
    #[test]
    fn bvh_matches_brute_force(
        centers in prop::collection::vec(arb_vec3(3.0), 1..120),
        origin in arb_vec3(8.0),
        target in arb_vec3(2.0),
        radius in 0.05f32..0.5,
    ) {
        prop_assume!((target - origin).length() > 1e-3);
        let bvh = SphereBvh::build(&centers, radius);
        let ray = Ray { origin, dir: (target - origin).normalized() };
        let mut steps = 0;
        let fast = bvh.intersect(&ray, f32::MAX, &mut steps);
        let slow = bvh.intersect_brute_force(&ray, f32::MAX);
        prop_assert_eq!(
            fast.map(|h| (h.t.to_bits(), h.prim)),
            slow.map(|h| (h.t.to_bits(), h.prim))
        );
    }

    /// Packet traversal must equal scalar traversal lane by lane, bitwise,
    /// for random scatters and random coherent ray bundles.
    #[test]
    fn packet_lanes_agree_with_scalar(
        centers in prop::collection::vec(arb_vec3(3.0), 1..150),
        origin in arb_vec3(8.0),
        target in arb_vec3(2.0),
        radius in 0.05f32..0.5,
        lanes in 1usize..9,
    ) {
        prop_assume!((target - origin).length() > 1e-3);
        let bvh = SphereBvh::build(&centers, radius);
        let base = (target - origin).normalized();
        let rays: Vec<Ray> = (0..lanes)
            .map(|l| {
                let jitter = Vec3::new(l as f32 * 1e-3, 0.0, l as f32 * 5e-4);
                Ray { origin, dir: (base + jitter).normalized() }
            })
            .collect();
        let packet = RayPacket::from_rays(&rays);
        let mut psteps = 0;
        let lane_hits = bvh.intersect_packet(&packet, f32::MAX, &mut psteps);
        for (l, ray) in rays.iter().enumerate() {
            let mut ssteps = 0;
            let scalar = bvh.intersect(ray, f32::MAX, &mut ssteps);
            prop_assert_eq!(
                lane_hits[l].map(|h| (h.prim, h.t.to_bits())),
                scalar.map(|h| (h.prim, h.t.to_bits())),
                "lane {} diverged", l
            );
        }
    }

    /// Compositing is associative/commutative: any grouping of buffers
    /// produces the same image.
    #[test]
    fn composite_order_independent(
        seed in 0u64..500,
        n in 2usize..7,
    ) {
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut rnd = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 33) as f64 / (1u64 << 31) as f64) as f32
        };
        let mut make = |_i: usize| {
            let mut fb = Framebuffer::new(8, 8, Vec3::ZERO);
            for y in 0..8 {
                for x in 0..8 {
                    if rnd() > 0.5 {
                        fb.write(x, y, rnd() * 10.0, Vec3::splat(rnd()));
                    }
                }
            }
            fb
        };
        let bufs: Vec<Framebuffer> = (0..n).map(&mut make).collect();
        let (direct, _) = composite_direct(bufs.clone());
        let mut rev = bufs.clone();
        rev.reverse();
        let (direct_rev, _) = composite_direct(rev);
        // a tree: each half folded on its own, then the two halves
        let (left, _) = composite_direct(bufs[..n / 2].to_vec());
        let (right, _) = composite_direct(bufs[n / 2..].to_vec());
        let (tree, _) = composite_direct(vec![left, right]);
        prop_assert_eq!(direct.color_buffer(), direct_rev.color_buffer());
        prop_assert_eq!(direct.color_buffer(), tree.color_buffer());
    }

    /// Projection followed by primary-ray casting must pass near the point.
    #[test]
    fn project_ray_consistency(
        eye in arb_vec3(6.0),
        p in arb_vec3(1.0),
        fov in 20.0f32..90.0,
    ) {
        prop_assume!((p - eye).length() > 2.0);
        let cam = Camera::look_at(eye, Vec3::ZERO, Vec3::new(0.0, 0.0, 1.0), fov, 128, 128);
        if let Some((fx, fy, depth)) = cam.project(p) {
            prop_assume!((0.0..128.0).contains(&fx) && (0.0..128.0).contains(&fy));
            prop_assume!(depth > 0.5);
            let ray = cam.primary_ray(fx as usize, fy as usize);
            let t = (p - ray.origin).dot(ray.dir);
            let closest = (ray.at(t) - p).length();
            // within the footprint of ~1.5 pixels at that depth
            let px_size = 1.0 / cam.pixels_per_world_unit(depth);
            prop_assert!(closest <= px_size * 2.0,
                "closest {closest} vs pixel {px_size}");
        }
    }

    /// Transfer functions stay in gamut and are monotone in normalize().
    #[test]
    fn transfer_function_sane(lo in -100.0f32..100.0, width in 0.1f32..100.0, v in -200.0f32..200.0) {
        let tf = TransferFunction::new(Colormap::Viridis, lo, lo + width);
        let t = tf.normalize(v);
        prop_assert!((0.0..=1.0).contains(&t));
        let c = tf.color(v);
        for ch in [c.x, c.y, c.z] {
            prop_assert!((0.0..=1.0).contains(&ch));
        }
    }

    /// Marching cubes output vertices always lie inside the (padded) grid
    /// bounds and the mesh validates, for random smooth fields.
    #[test]
    fn isosurface_vertices_in_bounds(seed in 0u64..200, iso in -0.5f32..0.5) {
        let n = 10usize;
        let mut g = UniformGrid::new([n, n, n], Vec3::splat(-1.0), Vec3::splat(2.0 / 9.0)).unwrap();
        let mut vals = Vec::with_capacity(n * n * n);
        for k in 0..n {
            for j in 0..n {
                for i in 0..n {
                    let p = g.vertex_position(i, j, k);
                    let s = seed as f32 * 0.01;
                    vals.push((p.x * 3.0 + s).sin() * (p.y * 2.0 - s).cos() + 0.3 * (p.z * 4.0).sin());
                }
            }
        }
        g.set_attribute("f", Attribute::Scalar(vals.into())).unwrap();
        let (mesh, stats) = extract_isosurface(&g, "f", iso).unwrap();
        prop_assert!(mesh.validate());
        let bounds = g.bounds().padded(1e-4);
        for &p in &mesh.positions {
            prop_assert!(bounds.contains(p), "vertex {p:?} escaped the grid");
        }
        prop_assert_eq!(stats.triangles as usize, mesh.num_triangles());
    }

    /// Framebuffer depth test is idempotent and monotone: writing the same
    /// fragment twice changes nothing; a farther fragment never lands.
    #[test]
    fn framebuffer_depth_test_monotone(
        d1 in 0.1f32..100.0,
        d2 in 0.1f32..100.0,
    ) {
        let mut fb = Framebuffer::new(1, 1, Vec3::ZERO);
        fb.write(0, 0, d1, Vec3::new(1.0, 0.0, 0.0));
        let landed = fb.write(0, 0, d2, Vec3::new(0.0, 1.0, 0.0));
        prop_assert_eq!(landed, d2 < d1);
        prop_assert_eq!(fb.depth_at(0, 0), d1.min(d2));
        // idempotence: re-writing the winner at its own depth is rejected
        let again = fb.write(0, 0, d1.min(d2), Vec3::splat(0.5));
        prop_assert!(!again);
    }

    /// RMSE is a metric: symmetric, zero iff identical, triangle-ish.
    #[test]
    fn rmse_is_symmetric(seed in 0u64..300) {
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut rnd = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 33) as f64 / (1u64 << 31) as f64) as f32
        };
        let mut mk = || {
            let pixels: Vec<Vec3> = (0..64).map(|_| Vec3::new(rnd(), rnd(), rnd())).collect();
            eth_render::Image::from_pixels(8, 8, pixels).unwrap()
        };
        let a = mk();
        let b = mk();
        let ab = a.rmse(&b).unwrap();
        let ba = b.rmse(&a).unwrap();
        prop_assert!((ab - ba).abs() < 1e-12);
        prop_assert_eq!(a.rmse(&a).unwrap(), 0.0);
        prop_assert!(ab >= 0.0);
    }
}
