//! Axis-aligned bounding boxes.
//!
//! Bounding boxes drive spatial partitioning across ranks, BVH construction
//! in the raycaster, and camera framing in the renderers.

use crate::vec3::Vec3;
use serde::{Deserialize, Serialize};

/// An axis-aligned bounding box in world space.
///
/// The box is *empty* when `min > max` on any axis; [`Aabb::empty`] produces
/// the canonical empty box which absorbs nothing and expands correctly.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Aabb {
    pub min: Vec3,
    pub max: Vec3,
}

impl Aabb {
    /// The canonical empty box (`min = +inf`, `max = -inf`).
    pub fn empty() -> Self {
        Aabb {
            min: Vec3::splat(f32::INFINITY),
            max: Vec3::splat(f32::NEG_INFINITY),
        }
    }

    pub fn new(min: Vec3, max: Vec3) -> Self {
        Aabb { min, max }
    }

    /// Unit cube `[0,1]^3`.
    pub fn unit() -> Self {
        Aabb::new(Vec3::ZERO, Vec3::ONE)
    }

    /// Box tightly covering a set of points. Empty for an empty slice.
    pub fn from_points(points: &[Vec3]) -> Self {
        let mut b = Aabb::empty();
        for &p in points {
            b.expand_point(p);
        }
        b
    }

    /// True when the box contains no volume (some axis has `min > max`).
    pub fn is_empty(&self) -> bool {
        self.min.x > self.max.x || self.min.y > self.max.y || self.min.z > self.max.z
    }

    /// Grow to include `p`.
    pub fn expand_point(&mut self, p: Vec3) {
        self.min = self.min.min(p);
        self.max = self.max.max(p);
    }

    /// Grow to include another box.
    pub fn expand_box(&mut self, o: &Aabb) {
        self.min = self.min.min(o.min);
        self.max = self.max.max(o.max);
    }

    /// Union of two boxes.
    pub fn union(&self, o: &Aabb) -> Aabb {
        let mut b = *self;
        b.expand_box(o);
        b
    }

    /// Pad the box by `margin` on every side.
    pub fn padded(&self, margin: f32) -> Aabb {
        Aabb::new(self.min - Vec3::splat(margin), self.max + Vec3::splat(margin))
    }

    /// Point membership (closed box: faces included).
    pub fn contains(&self, p: Vec3) -> bool {
        p.x >= self.min.x
            && p.x <= self.max.x
            && p.y >= self.min.y
            && p.y <= self.max.y
            && p.z >= self.min.z
            && p.z <= self.max.z
    }

    /// Membership that is half-open on the max faces — used by partitioners
    /// so a point on an internal face belongs to exactly one block.
    pub fn contains_half_open(&self, p: Vec3) -> bool {
        p.x >= self.min.x
            && p.x < self.max.x
            && p.y >= self.min.y
            && p.y < self.max.y
            && p.z >= self.min.z
            && p.z < self.max.z
    }

    /// True if the boxes overlap (closed comparison).
    pub fn intersects(&self, o: &Aabb) -> bool {
        self.min.x <= o.max.x
            && self.max.x >= o.min.x
            && self.min.y <= o.max.y
            && self.max.y >= o.min.y
            && self.min.z <= o.max.z
            && self.max.z >= o.min.z
    }

    pub fn center(&self) -> Vec3 {
        (self.min + self.max) * 0.5
    }

    /// Edge lengths; zero vector for an empty box.
    pub fn extent(&self) -> Vec3 {
        if self.is_empty() {
            Vec3::ZERO
        } else {
            self.max - self.min
        }
    }

    /// Diagonal length; the renderers use this to frame cameras.
    pub fn diagonal(&self) -> f32 {
        self.extent().length()
    }

    /// Surface area (used by the BVH build heuristic). Zero for empty.
    pub fn surface_area(&self) -> f32 {
        let e = self.extent();
        2.0 * (e.x * e.y + e.y * e.z + e.z * e.x)
    }

    pub fn volume(&self) -> f32 {
        let e = self.extent();
        e.x * e.y * e.z
    }

    /// Axis along which the box is longest.
    pub fn longest_axis(&self) -> usize {
        self.extent().dominant_axis()
    }

    /// Split the box at `t in (0,1)` along `axis`, returning (low, high).
    pub fn split(&self, axis: usize, t: f32) -> (Aabb, Aabb) {
        debug_assert!((0.0..=1.0).contains(&t));
        let mut cut = self.min;
        let lo = self.min[axis];
        let hi = self.max[axis];
        let c = lo + (hi - lo) * t;
        match axis {
            0 => cut.x = c,
            1 => cut.y = c,
            _ => cut.z = c,
        }
        let mut low = *self;
        let mut high = *self;
        match axis {
            0 => {
                low.max.x = c;
                high.min.x = c;
            }
            1 => {
                low.max.y = c;
                high.min.y = c;
            }
            _ => {
                low.max.z = c;
                high.min.z = c;
            }
        }
        let _ = cut;
        (low, high)
    }

    /// Parametric ray/box intersection. Returns the `(t_near, t_far)`
    /// interval clipped to `[t_min, t_max]`, or `None` if the ray misses.
    pub fn ray_intersect(
        &self,
        origin: Vec3,
        inv_dir: Vec3,
        t_min: f32,
        t_max: f32,
    ) -> Option<(f32, f32)> {
        let mut t0 = t_min;
        let mut t1 = t_max;
        for axis in 0..3 {
            let inv = inv_dir[axis];
            let mut near = (self.min[axis] - origin[axis]) * inv;
            let mut far = (self.max[axis] - origin[axis]) * inv;
            if near > far {
                std::mem::swap(&mut near, &mut far);
            }
            t0 = t0.max(near);
            t1 = t1.min(far);
            if t0 > t1 {
                return None;
            }
        }
        Some((t0, t1))
    }
}

impl Default for Aabb {
    fn default() -> Self {
        Aabb::empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_box_absorbs_nothing() {
        let e = Aabb::empty();
        assert!(e.is_empty());
        assert_eq!(e.extent(), Vec3::ZERO);
        assert_eq!(e.volume(), 0.0);
        let u = e.union(&Aabb::unit());
        assert_eq!(u, Aabb::unit());
    }

    #[test]
    fn from_points_covers_all() {
        let pts = [
            Vec3::new(0.0, 1.0, 2.0),
            Vec3::new(-1.0, 4.0, 0.5),
            Vec3::new(3.0, -2.0, 1.0),
        ];
        let b = Aabb::from_points(&pts);
        for p in pts {
            assert!(b.contains(p));
        }
        assert_eq!(b.min, Vec3::new(-1.0, -2.0, 0.5));
        assert_eq!(b.max, Vec3::new(3.0, 4.0, 2.0));
    }

    #[test]
    fn contains_half_open_excludes_max_face() {
        let b = Aabb::unit();
        assert!(b.contains_half_open(Vec3::ZERO));
        assert!(!b.contains_half_open(Vec3::ONE));
        assert!(b.contains(Vec3::ONE));
    }

    #[test]
    fn split_partitions_volume() {
        let b = Aabb::unit();
        let (lo, hi) = b.split(0, 0.25);
        assert!((lo.volume() - 0.25).abs() < 1e-6);
        assert!((hi.volume() - 0.75).abs() < 1e-6);
        assert_eq!(lo.union(&hi), b);
    }

    #[test]
    fn intersects_detects_overlap_and_miss() {
        let a = Aabb::unit();
        let b = Aabb::new(Vec3::splat(0.5), Vec3::splat(1.5));
        let c = Aabb::new(Vec3::splat(2.0), Vec3::splat(3.0));
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
        // touching faces count as intersecting
        let d = Aabb::new(Vec3::new(1.0, 0.0, 0.0), Vec3::new(2.0, 1.0, 1.0));
        assert!(a.intersects(&d));
    }

    #[test]
    fn ray_hits_unit_box() {
        let b = Aabb::unit();
        let origin = Vec3::new(0.5, 0.5, -1.0);
        let dir = Vec3::new(0.0, 0.0, 1.0);
        let inv = Vec3::new(1.0 / dir.x, 1.0 / dir.y, 1.0 / dir.z);
        let (t0, t1) = b.ray_intersect(origin, inv, 0.0, f32::MAX).unwrap();
        assert!((t0 - 1.0).abs() < 1e-6);
        assert!((t1 - 2.0).abs() < 1e-6);
    }

    #[test]
    fn ray_misses_box() {
        let b = Aabb::unit();
        let origin = Vec3::new(2.0, 2.0, -1.0);
        let dir = Vec3::new(0.0, 0.0, 1.0);
        let inv = Vec3::new(1.0 / dir.x, 1.0 / dir.y, 1.0 / dir.z);
        assert!(b.ray_intersect(origin, inv, 0.0, f32::MAX).is_none());
    }

    #[test]
    fn surface_area_and_longest_axis() {
        let b = Aabb::new(Vec3::ZERO, Vec3::new(2.0, 1.0, 1.0));
        assert!((b.surface_area() - 10.0).abs() < 1e-6);
        assert_eq!(b.longest_axis(), 0);
    }
}
