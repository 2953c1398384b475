//! Pinhole camera shared by both pipelines.
//!
//! The rasterizers use [`Camera::projector`] (world → screen + view depth)
//! and the raycasters use [`Camera::ray_generator`] (pixel → world ray); both
//! are derived from the same view frustum, so the two pipelines render
//! pixel-comparable images — which is what makes the paper's RMSE
//! comparisons between backends meaningful.

use eth_data::{Aabb, Vec3};
use serde::{Deserialize, Serialize};

/// A ray in world space. `dir` is unit length.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ray {
    pub origin: Vec3,
    pub dir: Vec3,
}

impl Ray {
    pub fn at(&self, t: f32) -> Vec3 {
        self.origin + self.dir * t
    }

    /// Component-wise reciprocal of the direction (for slab tests). Zero
    /// components become ±inf, which the AABB test handles correctly.
    pub fn inv_dir(&self) -> Vec3 {
        Vec3::new(1.0 / self.dir.x, 1.0 / self.dir.y, 1.0 / self.dir.z)
    }
}

/// A pinhole camera with an orthonormal view basis.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Camera {
    pub position: Vec3,
    /// Unit vector pointing into the scene.
    forward: Vec3,
    /// Unit vector to the right in image space.
    right: Vec3,
    /// Unit vector up in image space.
    up: Vec3,
    /// Vertical field of view, radians.
    pub fov_y: f32,
    pub width: usize,
    pub height: usize,
}

impl Camera {
    /// Build a camera at `position` looking at `target`.
    ///
    /// `world_up` seeds the orthonormalization; it must not be parallel to
    /// the view direction.
    pub fn look_at(
        position: Vec3,
        target: Vec3,
        world_up: Vec3,
        fov_y_degrees: f32,
        width: usize,
        height: usize,
    ) -> Camera {
        assert!(width > 0 && height > 0, "camera needs a non-empty image");
        let forward = (target - position).normalized();
        let mut right = forward.cross(world_up.normalized()).normalized();
        if right.length_squared() < 1e-12 {
            // forward ∥ world_up — pick any perpendicular axis
            right = forward.cross(Vec3::new(1.0, 0.0, 0.0)).normalized();
            if right.length_squared() < 1e-12 {
                right = forward.cross(Vec3::new(0.0, 1.0, 0.0)).normalized();
            }
        }
        let up = right.cross(forward).normalized();
        Camera {
            position,
            forward,
            right,
            up,
            fov_y: fov_y_degrees.to_radians(),
            width,
            height,
        }
    }

    /// Frame a bounding box: camera placed along `(1,-0.6,0.8)`-ish diagonal
    /// far enough that the whole box fits in view. The standard camera used
    /// by the experiments so every algorithm sees the same view.
    pub fn framing(bounds: &Aabb, width: usize, height: usize) -> Camera {
        let center = bounds.center();
        let radius = (bounds.diagonal() * 0.5).max(1e-6);
        let fov_y = 40.0f32;
        let dist = radius / (fov_y.to_radians() * 0.5).tan() * 1.1;
        let dir = Vec3::new(0.85, -0.5, 0.65).normalized();
        Camera::look_at(
            center + dir * dist,
            center,
            Vec3::new(0.0, 0.0, 1.0),
            fov_y,
            width,
            height,
        )
    }

    pub fn aspect(&self) -> f32 {
        self.width as f32 / self.height as f32
    }

    pub fn forward(&self) -> Vec3 {
        self.forward
    }

    pub fn right(&self) -> Vec3 {
        self.right
    }

    pub fn up(&self) -> Vec3 {
        self.up
    }

    /// Number of primary rays (= pixels).
    pub fn num_pixels(&self) -> usize {
        self.width * self.height
    }

    /// World-space ray through the center of pixel `(px, py)`.
    /// Pixel (0,0) is the top-left corner. Loops over many pixels should
    /// hoist [`Camera::ray_generator`].
    pub fn primary_ray(&self, px: usize, py: usize) -> Ray {
        let rays = self.ray_generator();
        rays.ray(rays.ndc_x(px), rays.ndc_y(py))
    }

    /// The per-frame ray constants; build once, cast many.
    pub fn ray_generator(&self) -> RayGenerator {
        RayGenerator {
            position: self.position,
            forward: self.forward,
            right: self.right,
            up: self.up,
            tan_half: (self.fov_y * 0.5).tan(),
            aspect: self.aspect(),
            width: self.width as f32,
            height: self.height as f32,
        }
    }

    /// The per-frame projection constants; build once, project many.
    pub fn projector(&self) -> Projector {
        Projector {
            position: self.position,
            forward: self.forward,
            right: self.right,
            up: self.up,
            tan_half: (self.fov_y * 0.5).tan(),
            aspect: self.aspect(),
            width: self.width as f32,
            height: self.height as f32,
        }
    }

    /// Project a world point to `(x_pixel, y_pixel, view_depth)`.
    ///
    /// Returns `None` for points at or behind the eye plane. The returned
    /// pixel coordinates are continuous (callers round/clip); `view_depth`
    /// is the distance along the forward axis, suitable for z-buffering.
    /// Loops over many points should hoist [`Camera::projector`].
    pub fn project(&self, p: Vec3) -> Option<(f32, f32, f32)> {
        self.projector().project(p)
    }

    /// Screen-space radius (pixels) of a world-space radius at view depth.
    /// Splatters use this to size their footprints.
    pub fn pixels_per_world_unit(&self, depth: f32) -> f32 {
        self.projector().pixels_per_world_unit(depth)
    }
}

/// A camera's pixel → world-ray map with `tan(fov_y / 2)` and the aspect
/// ratio evaluated once per frame instead of per ray — the inverse of
/// [`Projector`], and the only way the raycasters make a primary ray.
/// Callers evaluate [`RayGenerator::ndc_y`] once per pixel row. The f32
/// expression order is the one `Camera::primary_ray` always had —
/// `(ndc_x * tan_half) * aspect`, never a pre-multiplied `tan_half *
/// aspect` — so every ray is bit-identical to the unhoisted form.
#[derive(Debug, Clone, Copy)]
pub struct RayGenerator {
    position: Vec3,
    forward: Vec3,
    right: Vec3,
    up: Vec3,
    tan_half: f32,
    aspect: f32,
    width: f32,
    height: f32,
}

impl RayGenerator {
    /// Where every ray starts: the eye.
    #[inline]
    pub fn origin(&self) -> Vec3 {
        self.position
    }

    /// NDC x in [-1, 1] of the centre of pixel column `px`.
    #[inline]
    pub fn ndc_x(&self, px: usize) -> f32 {
        ((px as f32 + 0.5) / self.width) * 2.0 - 1.0
    }

    /// NDC y in [-1, 1] of the centre of pixel row `py`, flipped so +y is up.
    #[inline]
    pub fn ndc_y(&self, py: usize) -> f32 {
        1.0 - ((py as f32 + 0.5) / self.height) * 2.0
    }

    /// Unit direction through the NDC point `(ndc_x, ndc_y)`.
    #[inline]
    pub fn dir(&self, ndc_x: f32, ndc_y: f32) -> Vec3 {
        (self.forward
            + self.right * (ndc_x * self.tan_half * self.aspect)
            + self.up * (ndc_y * self.tan_half))
            .normalized()
    }

    /// The ray from the eye through the NDC point `(ndc_x, ndc_y)`.
    #[inline]
    pub fn ray(&self, ndc_x: f32, ndc_y: f32) -> Ray {
        Ray {
            origin: self.position,
            dir: self.dir(ndc_x, ndc_y),
        }
    }
}

/// A camera's world → screen map with `tan(fov_y / 2)` and the aspect
/// ratio evaluated once instead of per point (the tangent alone costs more
/// than the rest of a projection). The f32 expression order is the one
/// `Camera::project` always had — `depth * tan_half * aspect`, never a
/// pre-multiplied `tan_half * aspect` — so every coordinate is
/// bit-identical to the unhoisted form.
#[derive(Debug, Clone, Copy)]
pub struct Projector {
    position: Vec3,
    forward: Vec3,
    right: Vec3,
    up: Vec3,
    tan_half: f32,
    aspect: f32,
    width: f32,
    height: f32,
}

impl Projector {
    /// See [`Camera::project`].
    #[inline]
    pub fn project(&self, p: Vec3) -> Option<(f32, f32, f32)> {
        let rel = p - self.position;
        let depth = rel.dot(self.forward);
        if depth <= 1e-6 {
            return None;
        }
        let x_view = rel.dot(self.right);
        let y_view = rel.dot(self.up);
        let ndc_x = x_view / (depth * self.tan_half * self.aspect);
        let ndc_y = y_view / (depth * self.tan_half);
        let fx = (ndc_x + 1.0) * 0.5 * self.width;
        let fy = (1.0 - ndc_y) * 0.5 * self.height;
        Some((fx, fy, depth))
    }

    /// See [`Camera::pixels_per_world_unit`].
    #[inline]
    pub fn pixels_per_world_unit(&self, depth: f32) -> f32 {
        self.height / (2.0 * depth.max(1e-6) * self.tan_half)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn cam() -> Camera {
        Camera::look_at(
            Vec3::new(0.0, -5.0, 0.0),
            Vec3::ZERO,
            Vec3::new(0.0, 0.0, 1.0),
            60.0,
            200,
            100,
        )
    }

    #[test]
    fn basis_is_orthonormal() {
        let c = cam();
        assert!((c.forward().length() - 1.0).abs() < 1e-5);
        assert!((c.right().length() - 1.0).abs() < 1e-5);
        assert!((c.up().length() - 1.0).abs() < 1e-5);
        assert!(c.forward().dot(c.right()).abs() < 1e-5);
        assert!(c.forward().dot(c.up()).abs() < 1e-5);
        assert!(c.right().dot(c.up()).abs() < 1e-5);
    }

    #[test]
    fn center_pixel_ray_points_forward() {
        let c = cam();
        let r = c.primary_ray(100, 50);
        assert!(r.dir.dot(c.forward()) > 0.999);
        assert_eq!(r.origin, c.position);
    }

    #[test]
    fn project_center_lands_mid_image() {
        let c = cam();
        let (fx, fy, depth) = c.project(Vec3::ZERO).unwrap();
        assert!((fx - 100.0).abs() < 1e-3);
        assert!((fy - 50.0).abs() < 1e-3);
        assert!((depth - 5.0).abs() < 1e-5);
    }

    #[test]
    fn behind_camera_does_not_project() {
        let c = cam();
        assert!(c.project(Vec3::new(0.0, -10.0, 0.0)).is_none());
    }

    #[test]
    fn project_and_ray_agree() {
        // Casting a ray through the projected pixel should pass near the point.
        let c = cam();
        let p = Vec3::new(0.7, 0.3, -0.4);
        let (fx, fy, _) = c.project(p).unwrap();
        let r = c.primary_ray(fx as usize, fy as usize);
        // closest approach of the ray to p
        let t = (p - r.origin).dot(r.dir);
        let closest = r.at(t);
        assert!((closest - p).length() < 0.05, "ray misses projected point");
    }

    #[test]
    fn framing_sees_whole_box() {
        let b = Aabb::new(Vec3::splat(-2.0), Vec3::splat(2.0));
        let c = Camera::framing(&b, 64, 64);
        // all 8 corners project inside the image
        for &x in &[b.min.x, b.max.x] {
            for &y in &[b.min.y, b.max.y] {
                for &z in &[b.min.z, b.max.z] {
                    let (fx, fy, d) = c.project(Vec3::new(x, y, z)).expect("corner visible");
                    assert!(d > 0.0);
                    assert!((-1.0..=65.0).contains(&fx), "fx {fx}");
                    assert!((-1.0..=65.0).contains(&fy), "fy {fy}");
                }
            }
        }
    }

    #[test]
    fn up_degenerate_fallback() {
        // Looking straight down the world up axis must not produce NaNs.
        let c = Camera::look_at(
            Vec3::new(0.0, 0.0, 5.0),
            Vec3::ZERO,
            Vec3::new(0.0, 0.0, 1.0),
            45.0,
            10,
            10,
        );
        assert!(c.forward().is_finite());
        assert!(c.right().is_finite());
        assert!((c.right().length() - 1.0).abs() < 1e-4);
    }

    /// `Camera::project` as it was before the tangent and the aspect ratio
    /// were hoisted into [`Projector`]: both evaluated per point.
    fn project_unhoisted(c: &Camera, p: Vec3) -> Option<(f32, f32, f32)> {
        let rel = p - c.position;
        let depth = rel.dot(c.forward);
        if depth <= 1e-6 {
            return None;
        }
        let x_view = rel.dot(c.right);
        let y_view = rel.dot(c.up);
        let tan_half = (c.fov_y * 0.5).tan();
        let ndc_x = x_view / (depth * tan_half * c.aspect());
        let ndc_y = y_view / (depth * tan_half);
        let fx = (ndc_x + 1.0) * 0.5 * c.width as f32;
        let fy = (1.0 - ndc_y) * 0.5 * c.height as f32;
        Some((fx, fy, depth))
    }

    #[test]
    fn hoisted_projection_is_bit_identical() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let bits =
            |r: Option<(f32, f32, f32)>| r.map(|(x, y, d)| (x.to_bits(), y.to_bits(), d.to_bits()));
        let mut rng = StdRng::seed_from_u64(14);
        let cameras = [
            cam(),
            Camera::framing(&Aabb::new(Vec3::splat(-1.0), Vec3::splat(2.0)), 37, 23),
            Camera::look_at(
                Vec3::new(3.0, 1.0, -2.0),
                Vec3::ZERO,
                Vec3::new(0.0, 1.0, 0.0),
                17.5,
                511,
                129,
            ),
        ];
        for c in cameras {
            let projector = c.projector();
            let (mut behind, mut ahead) = (0, 0);
            for _ in 0..20_000 {
                // a cube around the eye, so about half the points are behind it
                let p = c.position
                    + Vec3::new(
                        rng.random_range(-8.0f32..8.0),
                        rng.random_range(-8.0f32..8.0),
                        rng.random_range(-8.0f32..8.0),
                    );
                let want = project_unhoisted(&c, p);
                match want {
                    Some(_) => ahead += 1,
                    None => behind += 1,
                }
                assert_eq!(bits(projector.project(p)), bits(want), "{p:?}");
                assert_eq!(bits(c.project(p)), bits(want), "{p:?}");
            }
            assert!(
                behind > 1000 && ahead > 1000,
                "{behind} behind, {ahead} ahead"
            );
            for depth in [-1.0f32, 0.0, 1e-7, 0.3, 5.0, 1e6] {
                let want = c.height as f32 / (2.0 * depth.max(1e-6) * (c.fov_y * 0.5).tan());
                assert_eq!(
                    projector.pixels_per_world_unit(depth).to_bits(),
                    want.to_bits()
                );
            }
        }
    }

    /// `Camera::primary_ray` as it was before the tangent, the aspect ratio
    /// and the row's NDC y were hoisted into [`RayGenerator`]: all three
    /// evaluated per ray.
    fn primary_ray_unhoisted(c: &Camera, px: usize, py: usize) -> Ray {
        let tan_half = (c.fov_y * 0.5).tan();
        let ndc_x = ((px as f32 + 0.5) / c.width as f32) * 2.0 - 1.0;
        let ndc_y = 1.0 - ((py as f32 + 0.5) / c.height as f32) * 2.0;
        let dir = (c.forward
            + c.right * (ndc_x * tan_half * c.aspect())
            + c.up * (ndc_y * tan_half))
            .normalized();
        Ray {
            origin: c.position,
            dir,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Every pixel of an odd-sized image, at fields of view from a
        /// sliver to nearly flat: the generator's ray, and `primary_ray`
        /// that calls it, have the unhoisted form's bits.
        #[test]
        fn generated_rays_are_bit_identical(
            width in 1usize..140,
            height in 1usize..90,
            fov in (0u32..3, 0.0f32..1.0),
            eye in (-9.0f32..9.0, -9.0f32..9.0, -9.0f32..9.0),
        ) {
            let fov = match fov.0 {
                0 => 0.001 + fov.1,
                1 => 1.0 + fov.1 * 178.0,
                _ => 179.0 + fov.1 * 0.999,
            };
            let eye = Vec3::new(eye.0, eye.1, eye.2);
            let target = Vec3::new(0.3, -0.2, 0.1);
            let c = Camera::look_at(eye, target, Vec3::new(0.0, 0.0, 1.0), fov, width, height);
            let bits = |r: Ray| [r.origin, r.dir].map(|v| [v.x, v.y, v.z].map(f32::to_bits));
            let rays = c.ray_generator();
            for py in 0..height {
                let ndc_y = rays.ndc_y(py);
                for px in 0..width {
                    let want = bits(primary_ray_unhoisted(&c, px, py));
                    prop_assert_eq!(bits(rays.ray(rays.ndc_x(px), ndc_y)), want);
                    prop_assert_eq!(bits(c.primary_ray(px, py)), want);
                }
            }
        }
    }

    #[test]
    fn pixels_per_world_unit_shrinks_with_depth() {
        let c = cam();
        assert!(c.pixels_per_world_unit(1.0) > c.pixels_per_world_unit(10.0));
    }
}
