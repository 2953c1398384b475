//! Unstructured tetrahedral grids — the Section VII extension.
//!
//! "Given that our experimental results showed that the optimal coupling
//! strategy is highly specific to the application under study … one would
//! have to extend ETH for other domains such as unstructured grid."
//! (Section VII). This module is that extension, and it also completes the
//! paper's own data path: xRAGE's AMR output "is typically converted to an
//! unstructured grid data which is then downsampled to a structured grid"
//! (Section IV-A) — the unstructured stage is now a first-class citizen.
//!
//! The container stores vertices with per-vertex attributes and
//! tetrahedral cells. It supports point location + barycentric
//! interpolation (through a uniform-bucket acceleration index) and
//! resampling onto a [`UniformGrid`], which is the hand-off the paper's
//! visualization stage consumes.

use crate::bounds::Aabb;
use crate::error::{DataError, Result};
use crate::field::{Attribute, AttributeSet};
use crate::grid::UniformGrid;
use crate::vec3::Vec3;
use serde::{Deserialize, Serialize};

/// A tetrahedral mesh with per-vertex attributes.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct UnstructuredGrid {
    points: Vec<Vec3>,
    /// Cells as vertex-index quadruples.
    tets: Vec<[u32; 4]>,
    attributes: AttributeSet,
}

impl UnstructuredGrid {
    pub fn new(points: Vec<Vec3>, tets: Vec<[u32; 4]>) -> Result<UnstructuredGrid> {
        let grid = UnstructuredGrid {
            points,
            tets,
            attributes: AttributeSet::new(),
        };
        grid.validate()?;
        Ok(grid)
    }

    fn validate(&self) -> Result<()> {
        let n = self.points.len() as u32;
        for (i, t) in self.tets.iter().enumerate() {
            for &v in t {
                if v >= n {
                    return Err(DataError::InvalidArgument(format!(
                        "tet {i} references vertex {v} but the mesh has {n}"
                    )));
                }
            }
        }
        Ok(())
    }

    pub fn num_points(&self) -> usize {
        self.points.len()
    }

    pub fn num_cells(&self) -> usize {
        self.tets.len()
    }

    pub fn points(&self) -> &[Vec3] {
        &self.points
    }

    pub fn tets(&self) -> &[[u32; 4]] {
        &self.tets
    }

    pub fn attributes(&self) -> &AttributeSet {
        &self.attributes
    }

    pub fn set_attribute(&mut self, name: &str, attr: Attribute) -> Result<()> {
        self.attributes.insert(name, attr, self.points.len())
    }

    pub fn scalar(&self, name: &str) -> Result<&[f32]> {
        self.attributes.require_scalar(name)
    }

    pub fn bounds(&self) -> Aabb {
        Aabb::from_points(&self.points)
    }

    /// Signed volume of one tetrahedron (positive for right-handed order).
    pub fn cell_volume(&self, cell: usize) -> f32 {
        let t = self.tets[cell];
        let a = self.points[t[0] as usize];
        let b = self.points[t[1] as usize];
        let c = self.points[t[2] as usize];
        let d = self.points[t[3] as usize];
        (b - a).cross(c - a).dot(d - a) / 6.0
    }

    /// Sum of |cell volume| over all cells.
    pub fn total_volume(&self) -> f32 {
        (0..self.tets.len()).map(|i| self.cell_volume(i).abs()).sum()
    }

    /// Approximate in-memory footprint in bytes.
    pub fn payload_bytes(&self) -> usize {
        let mut total = self.points.len() * 12 + self.tets.len() * 16;
        for (_, attr) in self.attributes.iter() {
            total += match attr {
                Attribute::Scalar(v) => v.len() * 4,
                Attribute::Vector(v) => v.len() * 12,
                Attribute::Id(v) => v.len() * 8,
            };
        }
        total
    }

    /// Barycentric coordinates of `p` in `cell`, or `None` for degenerate
    /// cells.
    pub fn barycentric(&self, cell: usize, p: Vec3) -> Option<[f32; 4]> {
        let t = self.tets[cell];
        let a = self.points[t[0] as usize];
        let b = self.points[t[1] as usize];
        let c = self.points[t[2] as usize];
        let d = self.points[t[3] as usize];
        let vol = (b - a).cross(c - a).dot(d - a);
        if vol.abs() < 1e-20 {
            return None;
        }
        let w1 = (p - a).cross(c - a).dot(d - a) / vol;
        let w2 = (b - a).cross(p - a).dot(d - a) / vol;
        let w3 = (b - a).cross(c - a).dot(p - a) / vol;
        let w0 = 1.0 - w1 - w2 - w3;
        Some([w0, w1, w2, w3])
    }

    /// Does `cell` contain `p` (with tolerance)?
    pub fn cell_contains(&self, cell: usize, p: Vec3) -> bool {
        match self.barycentric(cell, p) {
            Some(w) => w.iter().all(|&x| x >= -1e-4),
            None => false,
        }
    }

    /// Build a point-location index (uniform buckets over the bounds).
    pub fn build_locator(&self) -> CellLocator {
        CellLocator::build(self)
    }

    /// Resample a scalar field onto a uniform grid over this mesh's bounds
    /// — the paper's unstructured → structured downsampling stage.
    /// Vertices outside every cell (concave gaps) get `background`.
    pub fn resample(
        &self,
        field: &str,
        dims: [usize; 3],
        background: f32,
    ) -> Result<UniformGrid> {
        let values = self.scalar(field)?;
        let locator = self.build_locator();
        let mut out = UniformGrid::over_bounds(dims, self.bounds())?;
        let mut samples = Vec::with_capacity(out.num_vertices());
        for idx in 0..out.num_vertices() {
            let (i, j, k) = out.vertex_coords(idx);
            let p = out.vertex_position(i, j, k);
            let v = locator
                .interpolate(self, values, p)
                .unwrap_or(background);
            samples.push(v);
        }
        out.set_attribute(field, Attribute::Scalar(samples.into()))?;
        Ok(out)
    }
}

/// Uniform-bucket point-location index over a tet mesh.
#[derive(Debug, Clone)]
pub struct CellLocator {
    bounds: Aabb,
    dims: [usize; 3],
    /// Cell indices per bucket.
    buckets: Vec<Vec<u32>>,
}

impl CellLocator {
    fn build(mesh: &UnstructuredGrid) -> CellLocator {
        let bounds = mesh.bounds().padded(1e-6);
        // ~2 cells per bucket on average
        let n = (mesh.num_cells() as f64 / 2.0).max(1.0);
        let side = n.powf(1.0 / 3.0).ceil() as usize;
        let dims = [side.max(1), side.max(1), side.max(1)];
        let mut buckets = vec![Vec::new(); dims[0] * dims[1] * dims[2]];
        let ext = bounds.extent();
        let clampi =
            |v: f32, d: usize| -> usize { (v as isize).clamp(0, d as isize - 1) as usize };
        for (ci, t) in mesh.tets.iter().enumerate() {
            let mut cb = Aabb::empty();
            for &v in t {
                cb.expand_point(mesh.points[v as usize]);
            }
            let lo = [
                clampi((cb.min.x - bounds.min.x) / ext.x.max(1e-20) * dims[0] as f32, dims[0]),
                clampi((cb.min.y - bounds.min.y) / ext.y.max(1e-20) * dims[1] as f32, dims[1]),
                clampi((cb.min.z - bounds.min.z) / ext.z.max(1e-20) * dims[2] as f32, dims[2]),
            ];
            let hi = [
                clampi((cb.max.x - bounds.min.x) / ext.x.max(1e-20) * dims[0] as f32, dims[0]),
                clampi((cb.max.y - bounds.min.y) / ext.y.max(1e-20) * dims[1] as f32, dims[1]),
                clampi((cb.max.z - bounds.min.z) / ext.z.max(1e-20) * dims[2] as f32, dims[2]),
            ];
            for k in lo[2]..=hi[2] {
                for j in lo[1]..=hi[1] {
                    for i in lo[0]..=hi[0] {
                        buckets[(k * dims[1] + j) * dims[0] + i].push(ci as u32);
                    }
                }
            }
        }
        CellLocator {
            bounds,
            dims,
            buckets,
        }
    }

    /// The cell containing `p`, if any.
    pub fn locate(&self, mesh: &UnstructuredGrid, p: Vec3) -> Option<usize> {
        if !self.bounds.contains(p) {
            return None;
        }
        let ext = self.bounds.extent();
        let f = |v: f32, lo: f32, e: f32, d: usize| -> usize {
            if e <= 0.0 {
                0
            } else {
                (((v - lo) / e * d as f32) as usize).min(d - 1)
            }
        };
        let i = f(p.x, self.bounds.min.x, ext.x, self.dims[0]);
        let j = f(p.y, self.bounds.min.y, ext.y, self.dims[1]);
        let k = f(p.z, self.bounds.min.z, ext.z, self.dims[2]);
        let bucket = &self.buckets[(k * self.dims[1] + j) * self.dims[0] + i];
        bucket
            .iter()
            .map(|&c| c as usize)
            .find(|&c| mesh.cell_contains(c, p))
    }

    /// Barycentric interpolation of a per-vertex field at `p`.
    pub fn interpolate(&self, mesh: &UnstructuredGrid, values: &[f32], p: Vec3) -> Option<f32> {
        let cell = self.locate(mesh, p)?;
        let w = mesh.barycentric(cell, p)?;
        let t = mesh.tets[cell];
        Some(
            w[0] * values[t[0] as usize]
                + w[1] * values[t[1] as usize]
                + w[2] * values[t[2] as usize]
                + w[3] * values[t[3] as usize],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A unit cube split into the 6 Freudenthal tets.
    fn cube_mesh() -> UnstructuredGrid {
        let points = vec![
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(0.0, 1.0, 0.0),
            Vec3::new(1.0, 1.0, 0.0),
            Vec3::new(0.0, 0.0, 1.0),
            Vec3::new(1.0, 0.0, 1.0),
            Vec3::new(0.0, 1.0, 1.0),
            Vec3::new(1.0, 1.0, 1.0),
        ];
        let tets = vec![
            [0, 1, 3, 7],
            [0, 1, 5, 7],
            [0, 2, 3, 7],
            [0, 2, 6, 7],
            [0, 4, 5, 7],
            [0, 4, 6, 7],
        ];
        UnstructuredGrid::new(points, tets).unwrap()
    }

    #[test]
    fn construction_validates_indices() {
        let bad = UnstructuredGrid::new(vec![Vec3::ZERO], vec![[0, 0, 0, 9]]);
        assert!(bad.is_err());
    }

    #[test]
    fn cube_tets_fill_the_cube() {
        let m = cube_mesh();
        assert_eq!(m.num_cells(), 6);
        assert!((m.total_volume() - 1.0).abs() < 1e-5, "{}", m.total_volume());
        assert_eq!(m.bounds(), Aabb::unit());
    }

    #[test]
    fn barycentric_interpolation_is_exact_for_linear_fields() {
        let mut m = cube_mesh();
        // f = 2x + 3y - z
        let f: Vec<f32> = m
            .points()
            .iter()
            .map(|p| 2.0 * p.x + 3.0 * p.y - p.z)
            .collect();
        m.set_attribute("f", Attribute::Scalar(f.clone().into())).unwrap();
        let locator = m.build_locator();
        for &(x, y, z) in &[(0.5, 0.5, 0.5), (0.1, 0.8, 0.3), (0.9, 0.05, 0.7)] {
            let p = Vec3::new(x, y, z);
            let got = locator.interpolate(&m, &f, p).unwrap();
            let want = 2.0 * x + 3.0 * y - z;
            assert!((got - want).abs() < 1e-4, "at {p:?}: {got} vs {want}");
        }
    }

    #[test]
    fn locate_finds_containing_cell_everywhere_inside() {
        let m = cube_mesh();
        let locator = m.build_locator();
        let mut hits = 0;
        for i in 0..5 {
            for j in 0..5 {
                for k in 0..5 {
                    let p = Vec3::new(
                        0.1 + i as f32 * 0.2,
                        0.1 + j as f32 * 0.2,
                        0.1 + k as f32 * 0.2,
                    );
                    if let Some(c) = locator.locate(&m, p) {
                        assert!(m.cell_contains(c, p));
                        hits += 1;
                    }
                }
            }
        }
        assert_eq!(hits, 125, "every interior point must be located");
        assert!(locator.locate(&m, Vec3::splat(2.0)).is_none());
    }

    #[test]
    fn resample_reproduces_linear_field() {
        let mut m = cube_mesh();
        let f: Vec<f32> = m.points().iter().map(|p| p.x + 10.0 * p.z).collect();
        m.set_attribute("f", Attribute::Scalar(f.into())).unwrap();
        let grid = m.resample("f", [5, 5, 5], -1.0).unwrap();
        let vals = grid.scalar("f").unwrap();
        for (idx, &v) in vals.iter().enumerate() {
            let (i, j, k) = grid.vertex_coords(idx);
            let p = grid.vertex_position(i, j, k);
            let want = p.x + 10.0 * p.z;
            assert!((v - want).abs() < 1e-3, "at {p:?}: {v} vs {want}");
        }
    }

    #[test]
    fn attribute_length_enforced() {
        let mut m = cube_mesh();
        assert!(m.set_attribute("bad", Attribute::Scalar(vec![1.0].into())).is_err());
    }

    #[test]
    fn payload_accounts_cells_and_points() {
        let m = cube_mesh();
        assert_eq!(m.payload_bytes(), 8 * 12 + 6 * 16);
    }
}
