//! Uniform structured grid — the volumetric data class (xRAGE case).
//!
//! The paper's asteroid pipeline converts AMR output to an unstructured grid
//! and downsamples it to a *structured* grid before visualization; this type
//! is the structured end of that pipeline. It stores vertex-centered samples
//! on a regular lattice with uniform spacing and supports the operations the
//! renderers need: index↔world mapping, trilinear sampling, and central-
//! difference gradients (for isosurface shading).

use crate::bounds::Aabb;
use crate::error::{DataError, Result};
use crate::field::{Attribute, AttributeSet};
use crate::vec3::Vec3;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// A vertex-centered uniform grid with named attribute arrays.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UniformGrid {
    /// Number of vertices along x, y, z (each >= 1).
    dims: [usize; 3],
    /// World-space position of vertex (0,0,0).
    origin: Vec3,
    /// World-space distance between adjacent vertices on each axis.
    spacing: Vec3,
    attributes: AttributeSet,
}

impl UniformGrid {
    /// Create an empty grid of the given shape. Dims, origin and spacing
    /// may come off a wire or a file ([`crate::io::binary::decode`]), so
    /// everything the other methods assume is checked here: a vertex count
    /// that fits `usize`, a finite origin, finite positive spacing (asked
    /// as "all positive", which a NaN fails; "any `<= 0.0`" lets it pass).
    pub fn new(dims: [usize; 3], origin: Vec3, spacing: Vec3) -> Result<Self> {
        let vertices = dims
            .iter()
            .try_fold(1usize, |n, &d| n.checked_mul(d))
            .unwrap_or(0);
        if vertices == 0 {
            return Err(DataError::InvalidArgument(format!(
                "grid dims must be non-zero with a product that fits usize, got {dims:?}"
            )));
        }
        if !spacing.to_array().iter().all(|&s| s > 0.0 && s.is_finite()) {
            return Err(DataError::InvalidArgument(format!(
                "grid spacing must be positive and finite, got {spacing:?}"
            )));
        }
        if origin.to_array().iter().any(|o| !o.is_finite()) {
            return Err(DataError::InvalidArgument(format!(
                "grid origin must be finite, got {origin:?}"
            )));
        }
        Ok(UniformGrid {
            dims,
            origin,
            spacing,
            attributes: AttributeSet::new(),
        })
    }

    /// Grid covering `bounds` with the given vertex counts.
    pub fn over_bounds(dims: [usize; 3], bounds: Aabb) -> Result<Self> {
        let e = bounds.extent();
        let sp = Vec3::new(
            if dims[0] > 1 { e.x / (dims[0] - 1) as f32 } else { 1.0 },
            if dims[1] > 1 { e.y / (dims[1] - 1) as f32 } else { 1.0 },
            if dims[2] > 1 { e.z / (dims[2] - 1) as f32 } else { 1.0 },
        );
        UniformGrid::new(dims, bounds.min, sp)
    }

    pub fn dims(&self) -> [usize; 3] {
        self.dims
    }

    pub fn origin(&self) -> Vec3 {
        self.origin
    }

    pub fn spacing(&self) -> Vec3 {
        self.spacing
    }

    /// Total number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.dims[0] * self.dims[1] * self.dims[2]
    }

    /// Total number of cells (hexahedra between vertices).
    pub fn num_cells(&self) -> usize {
        self.dims
            .iter()
            .map(|&d| d.saturating_sub(1))
            .product()
    }

    pub fn attributes(&self) -> &AttributeSet {
        &self.attributes
    }

    pub fn set_attribute(&mut self, name: &str, attr: Attribute) -> Result<()> {
        self.attributes.insert(name, attr, self.num_vertices())
    }

    pub fn attribute(&self, name: &str) -> Option<&Attribute> {
        self.attributes.get(name)
    }

    pub fn scalar(&self, name: &str) -> Result<&[f32]> {
        self.attributes.require_scalar(name)
    }

    /// World-space bounding box of the grid.
    pub fn bounds(&self) -> Aabb {
        let ext = Vec3::new(
            (self.dims[0] - 1) as f32 * self.spacing.x,
            (self.dims[1] - 1) as f32 * self.spacing.y,
            (self.dims[2] - 1) as f32 * self.spacing.z,
        );
        Aabb::new(self.origin, self.origin + ext)
    }

    /// Flat index of vertex (i, j, k), x-fastest.
    #[inline]
    pub fn vertex_index(&self, i: usize, j: usize, k: usize) -> usize {
        debug_assert!(i < self.dims[0] && j < self.dims[1] && k < self.dims[2]);
        (k * self.dims[1] + j) * self.dims[0] + i
    }

    /// Inverse of [`UniformGrid::vertex_index`].
    #[inline]
    pub fn vertex_coords(&self, index: usize) -> (usize, usize, usize) {
        let i = index % self.dims[0];
        let j = (index / self.dims[0]) % self.dims[1];
        let k = index / (self.dims[0] * self.dims[1]);
        (i, j, k)
    }

    /// World position of vertex (i, j, k).
    #[inline]
    pub fn vertex_position(&self, i: usize, j: usize, k: usize) -> Vec3 {
        self.origin
            + Vec3::new(
                i as f32 * self.spacing.x,
                j as f32 * self.spacing.y,
                k as f32 * self.spacing.z,
            )
    }

    /// Continuous grid coordinates of a world point (0..dims-1 inside).
    #[inline]
    pub fn world_to_grid(&self, p: Vec3) -> Vec3 {
        Vec3::new(
            (p.x - self.origin.x) / self.spacing.x,
            (p.y - self.origin.y) / self.spacing.y,
            (p.z - self.origin.z) / self.spacing.z,
        )
    }

    /// Trilinearly interpolated sample of a scalar field at world point `p`.
    /// Returns `None` outside the grid.
    pub fn sample_trilinear(&self, values: &[f32], p: Vec3) -> Option<f32> {
        debug_assert_eq!(values.len(), self.num_vertices());
        let g = self.world_to_grid(p);
        let nx = self.dims[0];
        let ny = self.dims[1];
        let nz = self.dims[2];
        if g.x < 0.0 || g.y < 0.0 || g.z < 0.0 {
            return None;
        }
        if g.x > (nx - 1) as f32 || g.y > (ny - 1) as f32 || g.z > (nz - 1) as f32 {
            return None;
        }
        let i0 = (g.x as usize).min(nx.saturating_sub(2));
        let j0 = (g.y as usize).min(ny.saturating_sub(2));
        let k0 = (g.z as usize).min(nz.saturating_sub(2));
        // Degenerate (flat) axes clamp their interpolation weight to zero.
        let fx = if nx > 1 { g.x - i0 as f32 } else { 0.0 };
        let fy = if ny > 1 { g.y - j0 as f32 } else { 0.0 };
        let fz = if nz > 1 { g.z - k0 as f32 } else { 0.0 };
        let i1 = (i0 + 1).min(nx - 1);
        let j1 = (j0 + 1).min(ny - 1);
        let k1 = (k0 + 1).min(nz - 1);

        let v = |i: usize, j: usize, k: usize| values[self.vertex_index(i, j, k)];
        let c00 = v(i0, j0, k0) * (1.0 - fx) + v(i1, j0, k0) * fx;
        let c10 = v(i0, j1, k0) * (1.0 - fx) + v(i1, j1, k0) * fx;
        let c01 = v(i0, j0, k1) * (1.0 - fx) + v(i1, j0, k1) * fx;
        let c11 = v(i0, j1, k1) * (1.0 - fx) + v(i1, j1, k1) * fx;
        let c0 = c00 * (1.0 - fy) + c10 * fy;
        let c1 = c01 * (1.0 - fy) + c11 * fy;
        Some(c0 * (1.0 - fz) + c1 * fz)
    }

    /// Central-difference gradient of a scalar field at vertex (i, j, k)
    /// (one-sided at boundaries). Used for isosurface shading normals.
    pub fn gradient_at_vertex(&self, values: &[f32], i: usize, j: usize, k: usize) -> Vec3 {
        debug_assert_eq!(values.len(), self.num_vertices());
        let v = |i: usize, j: usize, k: usize| values[self.vertex_index(i, j, k)];
        let diff = |lo: f32, hi: f32, h: f32| (hi - lo) / h;

        let gx = {
            let (a, b, h) = if self.dims[0] == 1 {
                (0.0, 0.0, 1.0)
            } else if i == 0 {
                (v(0, j, k), v(1, j, k), self.spacing.x)
            } else if i == self.dims[0] - 1 {
                (v(i - 1, j, k), v(i, j, k), self.spacing.x)
            } else {
                (v(i - 1, j, k), v(i + 1, j, k), 2.0 * self.spacing.x)
            };
            diff(a, b, h)
        };
        let gy = {
            let (a, b, h) = if self.dims[1] == 1 {
                (0.0, 0.0, 1.0)
            } else if j == 0 {
                (v(i, 0, k), v(i, 1, k), self.spacing.y)
            } else if j == self.dims[1] - 1 {
                (v(i, j - 1, k), v(i, j, k), self.spacing.y)
            } else {
                (v(i, j - 1, k), v(i, j + 1, k), 2.0 * self.spacing.y)
            };
            diff(a, b, h)
        };
        let gz = {
            let (a, b, h) = if self.dims[2] == 1 {
                (0.0, 0.0, 1.0)
            } else if k == 0 {
                (v(i, j, 0), v(i, j, 1), self.spacing.z)
            } else if k == self.dims[2] - 1 {
                (v(i, j, k - 1), v(i, j, k), self.spacing.z)
            } else {
                (v(i, j, k - 1), v(i, j, k + 1), 2.0 * self.spacing.z)
            };
            diff(a, b, h)
        };
        Vec3::new(gx, gy, gz)
    }

    /// Trilinearly interpolated gradient at an arbitrary world point
    /// (gradient of the interpolant via finite differences of samples).
    pub fn gradient_at_point(&self, values: &[f32], p: Vec3) -> Option<Vec3> {
        let h = self.spacing * 0.5;
        let s = |q: Vec3| self.sample_trilinear(values, q);
        // Fall back to the center sample when a probe would leave the grid.
        let c = s(p)?;
        let probe = |lo: Option<f32>, hi: Option<f32>, h: f32| match (lo, hi) {
            (Some(a), Some(b)) => (b - a) / (2.0 * h),
            (None, Some(b)) => (b - c) / h,
            (Some(a), None) => (c - a) / h,
            (None, None) => 0.0,
        };
        let gx = probe(
            s(p - Vec3::new(h.x, 0.0, 0.0)),
            s(p + Vec3::new(h.x, 0.0, 0.0)),
            h.x,
        );
        let gy = probe(
            s(p - Vec3::new(0.0, h.y, 0.0)),
            s(p + Vec3::new(0.0, h.y, 0.0)),
            h.y,
        );
        let gz = probe(
            s(p - Vec3::new(0.0, 0.0, h.z)),
            s(p + Vec3::new(0.0, 0.0, h.z)),
            h.z,
        );
        Some(Vec3::new(gx, gy, gz))
    }

    /// Approximate in-memory footprint in bytes.
    pub fn payload_bytes(&self) -> usize {
        let mut total = 0;
        for (_, attr) in self.attributes.iter() {
            total += match attr {
                Attribute::Scalar(v) => v.len() * 4,
                Attribute::Vector(v) => v.len() * 12,
                Attribute::Id(v) => v.len() * 8,
            };
        }
        total
    }

    /// Extract the sub-grid covering vertex range `[lo, hi)` on each axis.
    /// Used by the slab partitioner.
    ///
    /// Every kept x-row is contiguous in the source, so each attribute is
    /// copied row by row, one output k-plane per work item.
    pub fn extract_subgrid(&self, lo: [usize; 3], hi: [usize; 3]) -> Result<UniformGrid> {
        let mut out = self.subgrid_shell(lo, hi)?;
        for (name, attr) in self.attributes.iter() {
            let kept = match attr {
                Attribute::Scalar(v) => Attribute::Scalar(self.copy_rows(v, lo, hi).into()),
                Attribute::Vector(v) => Attribute::Vector(self.copy_rows(v, lo, hi).into()),
                Attribute::Id(v) => Attribute::Id(self.copy_rows(v, lo, hi).into()),
            };
            out.set_attribute(name, kept)?;
        }
        Ok(out)
    }

    /// The attribute-less grid over vertex range `[lo, hi)`, after checking
    /// the range.
    fn subgrid_shell(&self, lo: [usize; 3], hi: [usize; 3]) -> Result<UniformGrid> {
        for a in 0..3 {
            if lo[a] >= hi[a] || hi[a] > self.dims[a] {
                return Err(DataError::InvalidArgument(format!(
                    "bad subgrid range [{lo:?}, {hi:?}) for dims {:?}",
                    self.dims
                )));
            }
        }
        let dims = [hi[0] - lo[0], hi[1] - lo[1], hi[2] - lo[2]];
        let origin = self.vertex_position(lo[0], lo[1], lo[2]);
        UniformGrid::new(dims, origin, self.spacing)
    }

    /// The values of `src` at the vertices in `[lo, hi)`, x-fastest.
    fn copy_rows<T: Copy + Default + Send + Sync>(
        &self,
        src: &[T],
        lo: [usize; 3],
        hi: [usize; 3],
    ) -> Vec<T> {
        let (row, plane) = (hi[0] - lo[0], (hi[0] - lo[0]) * (hi[1] - lo[1]));
        let mut out = vec![T::default(); plane * (hi[2] - lo[2])];
        out.par_chunks_mut(plane)
            .zip((lo[2]..hi[2]).into_par_iter())
            .for_each(|(dst, k)| {
                for (dst, j) in dst.chunks_exact_mut(row).zip(lo[1]..hi[1]) {
                    let start = self.vertex_index(lo[0], j, k);
                    dst.copy_from_slice(&src[start..start + row]);
                }
            });
        out
    }

    /// The extraction [`UniformGrid::extract_subgrid`] replaced: a flat
    /// index per kept vertex, a gather, and a copy of the gathered set.
    #[cfg(test)]
    pub(crate) fn reference_extract_subgrid(
        &self,
        lo: [usize; 3],
        hi: [usize; 3],
    ) -> Result<UniformGrid> {
        let mut out = self.subgrid_shell(lo, hi)?;
        let dims = out.dims();
        let mut indices = Vec::with_capacity(dims[0] * dims[1] * dims[2]);
        for k in lo[2]..hi[2] {
            for j in lo[1]..hi[1] {
                for i in lo[0]..hi[0] {
                    indices.push(self.vertex_index(i, j, k));
                }
            }
        }
        let gathered = self.attributes.gather(&indices);
        for (name, attr) in gathered.iter() {
            out.set_attribute(name, attr.clone())?;
        }
        Ok(out)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn ramp_grid() -> UniformGrid {
        // 3x3x3 grid on [0,2]^3, scalar = x + 10y + 100z at each vertex.
        let mut g = UniformGrid::new([3, 3, 3], Vec3::ZERO, Vec3::ONE).unwrap();
        let mut vals = Vec::new();
        for k in 0..3 {
            for j in 0..3 {
                for i in 0..3 {
                    vals.push(i as f32 + 10.0 * j as f32 + 100.0 * k as f32);
                }
            }
        }
        g.set_attribute("f", Attribute::Scalar(vals.into())).unwrap();
        g
    }

    #[test]
    fn construction_validates() {
        assert!(UniformGrid::new([0, 3, 3], Vec3::ZERO, Vec3::ONE).is_err());
        assert!(UniformGrid::new([3, 3, 3], Vec3::ZERO, Vec3::new(1.0, 0.0, 1.0)).is_err());
        // what a decoder can be handed: a vertex count past usize, and
        // geometry no comparison orders
        let wide = 1usize << 32;
        assert!(UniformGrid::new([wide, wide, wide], Vec3::ZERO, Vec3::ONE).is_err());
        assert!(UniformGrid::new([wide, wide, 0], Vec3::ZERO, Vec3::ONE).is_err());
        for bad in [f32::NAN, f32::INFINITY, -1.0] {
            assert!(UniformGrid::new([3, 3, 3], Vec3::ZERO, Vec3::new(1.0, bad, 1.0)).is_err());
        }
        for bad in [f32::NAN, f32::NEG_INFINITY] {
            assert!(UniformGrid::new([3, 3, 3], Vec3::new(bad, 0.0, 0.0), Vec3::ONE).is_err());
        }
    }

    #[test]
    fn counts_and_bounds() {
        let g = ramp_grid();
        assert_eq!(g.num_vertices(), 27);
        assert_eq!(g.num_cells(), 8);
        let b = g.bounds();
        assert_eq!(b.min, Vec3::ZERO);
        assert_eq!(b.max, Vec3::splat(2.0));
    }

    #[test]
    fn index_roundtrip() {
        let g = ramp_grid();
        for idx in 0..g.num_vertices() {
            let (i, j, k) = g.vertex_coords(idx);
            assert_eq!(g.vertex_index(i, j, k), idx);
        }
    }

    #[test]
    fn trilinear_reproduces_linear_field() {
        let g = ramp_grid();
        let f = g.scalar("f").unwrap().to_vec();
        // A linear field must be reproduced exactly by trilinear interpolation.
        let p = Vec3::new(0.5, 1.25, 1.75);
        let got = g.sample_trilinear(&f, p).unwrap();
        let want = 0.5 + 10.0 * 1.25 + 100.0 * 1.75;
        assert!((got - want).abs() < 1e-4, "got {got}, want {want}");
    }

    #[test]
    fn trilinear_outside_is_none() {
        let g = ramp_grid();
        let f = g.scalar("f").unwrap().to_vec();
        assert!(g.sample_trilinear(&f, Vec3::splat(-0.1)).is_none());
        assert!(g.sample_trilinear(&f, Vec3::splat(2.1)).is_none());
        // exactly on the max corner is inside
        assert!(g.sample_trilinear(&f, Vec3::splat(2.0)).is_some());
    }

    #[test]
    fn gradient_of_linear_field_is_constant() {
        let g = ramp_grid();
        let f = g.scalar("f").unwrap().to_vec();
        for k in 0..3 {
            for j in 0..3 {
                for i in 0..3 {
                    let grad = g.gradient_at_vertex(&f, i, j, k);
                    assert!((grad.x - 1.0).abs() < 1e-4);
                    assert!((grad.y - 10.0).abs() < 1e-4);
                    assert!((grad.z - 100.0).abs() < 1e-4);
                }
            }
        }
        let gp = g.gradient_at_point(&f, Vec3::splat(1.0)).unwrap();
        assert!((gp.x - 1.0).abs() < 1e-3);
        assert!((gp.y - 10.0).abs() < 1e-3);
        assert!((gp.z - 100.0).abs() < 1e-3);
    }

    #[test]
    fn subgrid_extraction_preserves_values() {
        let g = ramp_grid();
        let sub = g.extract_subgrid([1, 0, 1], [3, 2, 3]).unwrap();
        assert_eq!(sub.dims(), [2, 2, 2]);
        assert_eq!(sub.origin(), Vec3::new(1.0, 0.0, 1.0));
        let f = sub.scalar("f").unwrap();
        // first kept vertex is (1,0,1) -> 1 + 0 + 100
        assert_eq!(f[0], 101.0);
        // last is (2,1,2) -> 2 + 10 + 200
        assert_eq!(*f.last().unwrap(), 212.0);
    }

    /// A grid of `dims` carrying one attribute of each variant, every
    /// value a distinct bit pattern (NaNs included).
    pub(crate) fn bit_pattern_grid(dims: [usize; 3]) -> UniformGrid {
        let mut g =
            UniformGrid::new(dims, Vec3::new(-1.0, 0.5, 2.0), Vec3::new(0.5, 0.25, 2.0)).unwrap();
        let n = g.num_vertices() as u64;
        let bits = |i: u64| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as u32;
        let scalar = (0..n).map(|i| f32::from_bits(bits(i))).collect();
        let vector = (0..n)
            .map(|i| Vec3::new(i as f32, f32::from_bits(bits(i + n)), -(i as f32)))
            .collect();
        g.set_attribute("s", Attribute::Scalar(scalar)).unwrap();
        g.set_attribute("v", Attribute::Vector(vector)).unwrap();
        g.set_attribute("id", Attribute::Id((0..n).map(|i| !i).collect()))
            .unwrap();
        g
    }

    pub(crate) type AttributeBits = Vec<(String, Vec<u64>)>;

    /// Every attribute array by bits, in order.
    pub(crate) fn attribute_bits(attrs: &AttributeSet) -> AttributeBits {
        attrs
            .iter()
            .map(|(name, attr)| {
                let bits = match attr {
                    Attribute::Scalar(v) => v.iter().map(|x| x.to_bits() as u64).collect(),
                    Attribute::Vector(v) => v
                        .iter()
                        .flat_map(|p| p.to_array())
                        .map(|x| x.to_bits() as u64)
                        .collect(),
                    Attribute::Id(v) => v.to_vec(),
                };
                (name.to_string(), bits)
            })
            .collect()
    }

    pub(crate) fn at_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
            .install(f)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn subgrid_matches_reference_bit_for_bit(
            (nx, ny, nz) in (1usize..41, 1usize..41, 1usize..41),
            (a, b, c) in (0u64..1 << 20, 0u64..1 << 20, 0u64..1 << 20),
        ) {
            let g = bit_pattern_grid([nx, ny, nz]);
            let dims = g.dims();
            let (mut lo, mut hi) = ([0; 3], [0; 3]);
            for (axis, r) in [a, b, c].into_iter().enumerate() {
                let d = dims[axis] as u64;
                lo[axis] = (r % d) as usize;
                hi[axis] = lo[axis] + 1 + ((r >> 10) % (d - lo[axis] as u64)) as usize;
            }
            let want = g.reference_extract_subgrid(lo, hi).unwrap();
            for threads in [1, 2] {
                let got = at_threads(threads, || g.extract_subgrid(lo, hi)).unwrap();
                proptest::prop_assert_eq!(
                    (got.dims(), got.origin(), got.spacing()),
                    (want.dims(), want.origin(), want.spacing())
                );
                proptest::prop_assert!(
                    attribute_bits(got.attributes()) == attribute_bits(want.attributes()),
                    "[{lo:?}, {hi:?}) of {dims:?} differs at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn subgrid_rejects_bad_ranges() {
        let g = ramp_grid();
        assert!(g.extract_subgrid([0, 0, 0], [4, 2, 2]).is_err());
        assert!(g.extract_subgrid([2, 0, 0], [2, 2, 2]).is_err());
    }

    #[test]
    fn over_bounds_covers_box() {
        let b = Aabb::new(Vec3::ZERO, Vec3::new(4.0, 2.0, 1.0));
        let g = UniformGrid::over_bounds([5, 3, 2], b).unwrap();
        assert_eq!(g.bounds(), b);
        assert_eq!(g.spacing(), Vec3::new(1.0, 1.0, 1.0));
    }

    #[test]
    fn flat_axis_grid_samples() {
        // 2D grid (one vertex thick in z) still samples correctly.
        let mut g = UniformGrid::new([2, 2, 1], Vec3::ZERO, Vec3::ONE).unwrap();
        g.set_attribute("f", Attribute::Scalar(vec![0.0, 1.0, 2.0, 3.0].into()))
            .unwrap();
        let f = g.scalar("f").unwrap().to_vec();
        let v = g.sample_trilinear(&f, Vec3::new(0.5, 0.5, 0.0)).unwrap();
        assert!((v - 1.5).abs() < 1e-5);
    }
}
