//! "VTK points" renderer.
//!
//! The simplest technique in the paper: each particle is projected to the
//! image plane and drawn as a fixed-size block (1–3 pixels on a side) of
//! fixed color. As the paper notes, "this normally results in a loss in 3-D
//! perception" — there is no per-pixel shading, only a depth test so nearer
//! particles win.
//!
//! Cost shape: O(N) + O(W·H·point_size). A particle costs one projection
//! and one key write whatever its block size; the block's area is paid
//! per pixel of the image, not per particle, by the separable minimum that
//! spreads each key over its block (`2h + 1` taps along the rows, `2h + 1`
//! down the columns, `h = point_size / 2`).
//!
//! Parallel structure: one pass of the shared scatter kernel
//! (`raster/scatter.rs`). Each worker projects its contiguous slice of the
//! particles once and depth-tests each particle's key at its block centre
//! in its own `(depth, input index)` winner buffer, which carries an
//! `h`-pixel halo for blocks that overhang the image; the transfer function
//! then runs once per covered pixel, on the winner of the pixel's block
//! minimum, instead of once per particle. The winner — nearest depth, ties
//! to the earlier particle — is a minimum, so the image is the same for any
//! thread count and equals the per-pixel block loop (`reference_points`).

use super::scatter::{resolve, scatter};
use crate::camera::Camera;
use crate::color::TransferFunction;
use crate::framebuffer::Framebuffer;
use crate::scratch::Scratch;
use eth_data::{PointCloud, Vec3};

/// Statistics returned by the points renderer. A function of the input
/// alone: the same at any thread count and under any particle order.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PointsStats {
    pub points_in: usize,
    pub points_projected: usize,
    /// Block pixels rasterized inside the image, before the depth test.
    pub fragments: u64,
}

/// Render a point cloud as fixed-size color blocks.
///
/// * `scalar` — optional name of the attribute used for color; when absent
///   particles are colored by their depth (a common fallback).
/// * `point_size` — block edge in pixels (the paper uses 1–3).
/// * `scratch` — the rank's buffers: the key planes, and the frame.
pub fn render_points(
    cloud: &PointCloud,
    scalar: Option<&str>,
    tf: &TransferFunction,
    camera: &Camera,
    background: Vec3,
    point_size: usize,
    scratch: &mut Scratch,
) -> (Framebuffer, PointsStats) {
    let point_size = point_size.clamp(1, 9);
    let scalars = scalar.and_then(|name| cloud.scalar(name).ok());
    let positions = cloud.positions();
    let projector = camera.projector();

    let scattered = scatter(
        positions.len(),
        camera.width,
        camera.height,
        point_size / 2,
        &mut scratch.key_planes,
        |indices, sink| {
            let mut projected = 0usize;
            for (i, &p) in indices.clone().zip(&positions[indices]) {
                let Some((fx, fy, depth)) = projector.project(p) else {
                    continue;
                };
                projected += 1;
                sink.centre(i, fx as isize, fy as isize, depth);
            }
            projected
        },
    );
    let fb = scratch.framebuffer(camera.width, camera.height, background);
    let fb = resolve(&scattered, fb, |i, _, _, depth| {
        tf.color(match scalars {
            Some(s) => s[i],
            None => depth,
        })
    });
    let stats = PointsStats {
        points_in: positions.len(),
        points_projected: scattered.slices().sum(),
        fragments: scattered.fragments(),
    };
    scattered.park(&mut scratch.key_planes);
    (fb, stats)
}

#[cfg(test)]
mod tests {
    use super::super::scatter::testing::{cameras, hostile_cloud};
    use crate::testing::at_thread_counts;
    use super::*;
    use crate::color::Colormap;
    use eth_data::field::Attribute;
    use proptest::prelude::*;

    fn cam() -> Camera {
        cam_sized(64, 64)
    }

    fn cam_sized(width: usize, height: usize) -> Camera {
        Camera::look_at(
            Vec3::new(0.0, -5.0, 0.0),
            Vec3::ZERO,
            Vec3::new(0.0, 0.0, 1.0),
            45.0,
            width,
            height,
        )
    }

    fn tf() -> TransferFunction {
        TransferFunction::new(Colormap::Gray, 0.0, 1.0)
    }

    #[test]
    fn single_point_lands_center() {
        let cloud = PointCloud::from_positions(vec![Vec3::ZERO]);
        let (fb, stats) = render_points(
            &cloud,
            None,
            &tf(),
            &cam(),
            Vec3::ZERO,
            1,
            &mut Scratch::new(),
        );
        assert_eq!(stats.points_projected, 1);
        assert_eq!(stats.fragments, 1);
        assert!(fb.depth_at(32, 32).is_finite());
    }

    #[test]
    fn block_size_scales_fragments() {
        let cloud = PointCloud::from_positions(vec![Vec3::ZERO]);
        let (_, s1) = render_points(
            &cloud,
            None,
            &tf(),
            &cam(),
            Vec3::ZERO,
            1,
            &mut Scratch::new(),
        );
        let (_, s3) = render_points(
            &cloud,
            None,
            &tf(),
            &cam(),
            Vec3::ZERO,
            3,
            &mut Scratch::new(),
        );
        assert_eq!(s1.fragments, 1);
        assert_eq!(s3.fragments, 9);
    }

    #[test]
    fn scalar_attribute_drives_color() {
        let mut cloud = PointCloud::from_positions(vec![Vec3::ZERO]);
        cloud
            .set_attribute("v", Attribute::Scalar(vec![1.0].into()))
            .unwrap();
        let (fb, _) = render_points(
            &cloud,
            Some("v"),
            &tf(),
            &cam(),
            Vec3::ZERO,
            1,
            &mut Scratch::new(),
        );
        assert_eq!(fb.color_at(32, 32), Vec3::ONE); // gray map at 1.0
    }

    #[test]
    fn nearer_point_occludes() {
        let cloud =
            PointCloud::from_positions(vec![Vec3::new(0.0, 1.0, 0.0), Vec3::new(0.0, -1.0, 0.0)]);
        let mut c = PointCloud::from_positions(cloud.positions().to_vec());
        c.set_attribute("v", Attribute::Scalar(vec![0.0, 1.0].into()))
            .unwrap();
        let (fb, _) = render_points(
            &c,
            Some("v"),
            &tf(),
            &cam(),
            Vec3::ZERO,
            1,
            &mut Scratch::new(),
        );
        // the nearer point (y=-1, value 1.0 -> white) wins the center pixel
        assert_eq!(fb.color_at(32, 32), Vec3::ONE);
    }

    #[test]
    fn behind_camera_points_skipped() {
        let cloud = PointCloud::from_positions(vec![Vec3::new(0.0, -10.0, 0.0)]);
        let (fb, stats) = render_points(
            &cloud,
            None,
            &tf(),
            &cam(),
            Vec3::ZERO,
            3,
            &mut Scratch::new(),
        );
        assert_eq!(stats.points_projected, 0);
        assert_eq!(fb.fragments_landed(), 0);
    }

    /// The specification of the renderer: particles in input order, every
    /// block pixel through the framebuffer's strict `<` depth test.
    fn reference_points(
        cloud: &PointCloud,
        scalar: Option<&str>,
        tf: &TransferFunction,
        camera: &Camera,
        background: Vec3,
        point_size: usize,
    ) -> (Framebuffer, PointsStats) {
        let half = (point_size.clamp(1, 9) / 2) as isize;
        let scalars = scalar.and_then(|name| cloud.scalar(name).ok());
        let mut fb = Framebuffer::new(camera.width, camera.height, background);
        let mut stats = PointsStats {
            points_in: cloud.positions().len(),
            ..Default::default()
        };
        for (i, &p) in cloud.positions().iter().enumerate() {
            let Some((fx, fy, depth)) = camera.project(p) else {
                continue;
            };
            stats.points_projected += 1;
            let color = tf.color(scalars.map_or(depth, |s| s[i]));
            for dy in -half..=half {
                for dx in -half..=half {
                    let x = (fx as isize).saturating_add(dx);
                    let y = (fy as isize).saturating_add(dy);
                    fb.write_clipped(x, y, depth, color);
                    let inside = (0..camera.width as isize).contains(&x)
                        && (0..camera.height as isize).contains(&y);
                    stats.fragments += (inside && depth < f32::INFINITY) as u64;
                }
            }
        }
        (fb, stats)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Frame and statistics equal the serial reference at every thread
        /// count, on hostile clouds (see `hostile_cloud`).
        #[test]
        fn matches_serial_reference(
            seed in 0u64..u64::MAX,
            n in 0usize..12_000,
            cam in 0usize..3,
            point_size in 1usize..10,
            flags in 0u8..8,
        ) {
            // one case in four is a handful of particles; half colour by depth
            let n = if flags & 3 == 0 { n % 40 } else { n };
            let scalar = (flags & 4 == 0).then_some("v");
            let camera = cameras()[cam];
            let cloud = hostile_cloud(seed, n, &camera);
            let background = Vec3::new(0.1, 0.2, 0.3);
            let want = reference_points(&cloud, scalar, &tf(), &camera, background, point_size);
            for (threads, got) in at_thread_counts(|| {
                let scratch = &mut Scratch::new();
                render_points(&cloud, scalar, &tf(), &camera, background, point_size, scratch)
            }) {
                prop_assert!(got.0 == want.0, "frame differs at {threads} threads");
                prop_assert_eq!(got.1, want.1, "stats differ at {} threads", threads);
            }
        }
    }

    /// A world point at view depth `depth` whose projection truncates to
    /// pixel `(x, y)`, which may lie outside the image: aimed half a pixel
    /// off the truncation boundary, so the cast is not at the mercy of
    /// rounding.
    fn at_pixel(camera: &Camera, x: isize, y: isize, depth: f32) -> Vec3 {
        let inward = |v: isize| v as f32 + if v < 0 { -0.5 } else { 0.5 };
        let tan_half = (camera.fov_y * 0.5).tan();
        let ndc_x = inward(x) / (0.5 * camera.width as f32) - 1.0;
        let ndc_y = 1.0 - inward(y) / (0.5 * camera.height as f32);
        camera.position
            + camera.forward() * depth
            + camera.right() * (ndc_x * depth * tan_half * camera.aspect())
            + camera.up() * (ndc_y * depth * tan_half)
    }

    /// Block centres on the ring where the halo matters: just outside the
    /// reach of the halo, on its outer edge, one pixel outside the image,
    /// on the image's first and last pixel, and mirrored on the far side;
    /// every pairing of an `x` with a `y`, so the corners are included.
    /// Each centre alone, then all of them together — many copies at
    /// tied and interleaved depths, so several workers own them — beside
    /// particles whose pixel cast saturates (±1e30) and non-finite
    /// coordinates; frame and statistics equal the reference at 1/2/3/8
    /// threads for every block size.
    #[test]
    fn halo_ring_table_matches_serial_reference() {
        let camera = cam_sized(23, 17);
        let (width, height) = (camera.width as isize, camera.height as isize);
        let background = Vec3::new(0.1, 0.2, 0.3);
        let check = |cloud: &PointCloud, point_size: usize, what: &str| {
            let want = reference_points(cloud, Some("v"), &tf(), &camera, background, point_size);
            for (threads, got) in at_thread_counts(|| {
                render_points(
                    cloud,
                    Some("v"),
                    &tf(),
                    &camera,
                    background,
                    point_size,
                    &mut Scratch::new(),
                )
            }) {
                assert!(
                    got.0 == want.0,
                    "{what}, size {point_size}: frame differs at {threads} threads"
                );
                assert_eq!(
                    got.1, want.1,
                    "{what}, size {point_size}: stats at {threads} threads"
                );
            }
        };
        let with_values = |positions: Vec<Vec3>| {
            let n = positions.len();
            let mut cloud = PointCloud::from_positions(positions);
            let values = (0..n).map(|i| (i * 7 % 11) as f32 / 10.0).collect();
            cloud.set_attribute("v", Attribute::Scalar(values)).unwrap();
            cloud
        };
        let extremes = [
            Vec3::new(1e30, 3.0, 0.0),
            Vec3::new(-1e30, 3.0, 0.0),
            Vec3::new(0.0, 3.0, 1e30),
            Vec3::new(-1e30, 3.0, -1e30),
            Vec3::new(f32::NAN, 0.0, 0.0),
            Vec3::new(0.0, 0.0, f32::INFINITY),
            Vec3::new(f32::NEG_INFINITY, 0.0, 0.0),
            Vec3::new(0.0, f32::NAN, f32::INFINITY),
        ];
        for point_size in 1..=9 {
            let h = (point_size / 2) as isize;
            let ring = |len: isize| [-h - 1, -h, -1, 0, len - 1, len, len + h - 1, len + h];
            let centres: Vec<(isize, isize)> = ring(height)
                .into_iter()
                .flat_map(|y| ring(width).map(|x| (x, y)))
                .collect();
            for &(x, y) in &centres {
                let p = at_pixel(&camera, x, y, 3.0);
                let (fx, fy, _) = camera.project(p).unwrap();
                assert_eq!((fx as isize, fy as isize), (x, y), "the table's own aim");
                check(
                    &with_values(vec![p]),
                    point_size,
                    &format!("centre ({x}, {y})"),
                );
            }
            let mut positions = Vec::new();
            for copy in 0..40 {
                for (c, &(x, y)) in centres.iter().enumerate() {
                    let depth = 2.0 + ((copy * 7 + c) % 13) as f32 * 0.5;
                    positions.push(at_pixel(&camera, x, y, depth));
                }
                positions.extend(extremes);
            }
            assert!(positions.len() > 2048, "three workers at three threads");
            check(&with_values(positions), point_size, "the whole ring");
        }
    }

    #[test]
    fn blocks_clip_at_the_image_border() {
        // The particle behind pixel (0, 0): a 5x5 block keeps its 3x3 corner.
        let c = cam();
        let corner = c.primary_ray(0, 0).at(5.0);
        let cloud = PointCloud::from_positions(vec![corner]);
        let (fb, stats) =
            render_points(&cloud, None, &tf(), &c, Vec3::ZERO, 5, &mut Scratch::new());
        assert_eq!(stats.fragments, 9);
        assert_eq!(fb.fragments_landed(), 9);
    }

    #[test]
    fn wide_blocks_are_complete() {
        let cloud = PointCloud::from_positions(vec![Vec3::ZERO]);
        let (fb, stats) = render_points(
            &cloud,
            None,
            &tf(),
            &cam(),
            Vec3::ZERO,
            5,
            &mut Scratch::new(),
        );
        assert_eq!(stats.fragments, 25);
        assert_eq!(fb.fragments_landed(), 25);
    }

    #[test]
    fn input_order_breaks_depth_ties() {
        // Two coincident points: the strict < depth test keeps the first.
        let mut cloud = PointCloud::from_positions(vec![Vec3::ZERO, Vec3::ZERO]);
        cloud
            .set_attribute("v", Attribute::Scalar(vec![1.0, 0.0].into()))
            .unwrap();
        let (fb, _) = render_points(
            &cloud,
            Some("v"),
            &tf(),
            &cam(),
            Vec3::ZERO,
            1,
            &mut Scratch::new(),
        );
        assert_eq!(fb.color_at(32, 32), Vec3::ONE, "first point wins the tie");
    }

    #[test]
    fn coverage_grows_with_point_count() {
        let few = PointCloud::from_positions(
            (0..10)
                .map(|i| Vec3::new(i as f32 * 0.1 - 0.5, 0.0, 0.0))
                .collect::<Vec<_>>(),
        );
        let many = PointCloud::from_positions(
            (0..1000)
                .map(|i| {
                    let t = i as f32 * 0.37;
                    Vec3::new(t.sin() * 0.8, 0.0, t.cos() * 0.8)
                })
                .collect::<Vec<_>>(),
        );
        let (fb_few, _) = render_points(
            &few,
            None,
            &tf(),
            &cam(),
            Vec3::ZERO,
            1,
            &mut Scratch::new(),
        );
        let (fb_many, _) = render_points(
            &many,
            None,
            &tf(),
            &cam(),
            Vec3::ZERO,
            1,
            &mut Scratch::new(),
        );
        assert!(fb_many.fragments_landed() > fb_few.fragments_landed());
    }
}
