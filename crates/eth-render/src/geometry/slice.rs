//! Slicing-plane extraction — the "VTK slice" filter.
//!
//! A slicing plane through volumetric data is the zero set of the *signed
//! distance to the plane*, extracted by the same sign sweep and tetrahedra
//! emission as an isosurface ([`zero_set`](super::zero_set)): every cell is
//! scanned, cells straddling the plane emit polygon fragments ("the work … is
//! proportional (roughly) to the 2/3 root of the input data size" for the
//! *output*, while the scan still touches all cells — Section IV-C). The
//! distance is evaluated from a vertex's `(i, j, k)` wherever it is needed,
//! never stored per vertex. The extracted triangles are colored by the data
//! field interpolated at the cut, which is what makes the slice useful.

use crate::geometry::mesh::TriangleMesh;
use crate::geometry::zero_set::{self, crossing_weight, Surface};
use eth_data::error::{DataError, Result};
use eth_data::{UniformGrid, Vec3};
use serde::{Deserialize, Serialize};

/// A plane in Hessian normal form: `dot(normal, p) = offset`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Plane {
    pub normal: Vec3,
    pub offset: f32,
}

impl Plane {
    /// Construct from any (non-zero) normal and a point on the plane.
    pub fn from_point_normal(point: Vec3, normal: Vec3) -> Plane {
        let n = normal.normalized();
        Plane {
            normal: n,
            offset: n.dot(point),
        }
    }

    /// Signed distance of `p` to the plane.
    #[inline]
    pub fn distance(&self, p: Vec3) -> f32 {
        self.normal.dot(p) - self.offset
    }

    /// Axis-aligned plane `x_axis = value` (axis 0, 1 or 2).
    pub fn axis_aligned(axis: usize, value: f32) -> Plane {
        let mut n = Vec3::ZERO;
        match axis {
            0 => n.x = 1.0,
            1 => n.y = 1.0,
            _ => n.z = 1.0,
        }
        Plane {
            normal: n,
            offset: value,
        }
    }
}

/// Statistics for a slice extraction.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SliceStats {
    pub cells_scanned: u64,
    pub cells_cut: u64,
    pub triangles: u64,
}

struct Cut<'a> {
    grid: &'a UniformGrid,
    values: &'a [f32],
    plane: &'a Plane,
}

impl Surface for Cut<'_> {
    fn level(&self) -> f32 {
        0.0
    }

    fn row<'a>(&'a self, i0: usize, j: usize, k: usize, buf: &'a mut [f32]) -> &'a [f32] {
        for (b, d) in buf.iter_mut().enumerate() {
            *d = self.plane.distance(self.grid.vertex_position(i0 + b, j, k));
        }
        buf
    }

    fn crossing(&self, [ia, ja, ka]: [usize; 3], [ib, jb, kb]: [usize; 3]) -> (Vec3, Vec3, f32) {
        let (grid, values, plane) = (self.grid, self.values, self.plane);
        let pa = grid.vertex_position(ia, ja, ka);
        let pb = grid.vertex_position(ib, jb, kb);
        let (da, db) = (plane.distance(pa), plane.distance(pb));
        let t = crossing_weight(-da, da, db);
        // Color by the data field along the cut edge; slices are flat.
        let va = values[grid.vertex_index(ia, ja, ka)];
        let vb = values[grid.vertex_index(ib, jb, kb)];
        (pa.lerp(pb, t), plane.normal, va * (1.0 - t) + vb * t)
    }
}

/// Extract the cut of `plane` through the grid, colored by `field`:
/// triangle-vertex scalars are the data field interpolated along the cut
/// edges, and normals are the plane normal.
pub fn extract_slice(
    grid: &UniformGrid,
    field: &str,
    plane: &Plane,
) -> Result<(TriangleMesh, SliceStats)> {
    if plane.normal.length_squared() < 1e-12 {
        return Err(DataError::InvalidArgument(
            "slice plane has zero normal".into(),
        ));
    }
    let surface = Cut {
        grid,
        values: grid.scalar(field)?,
        plane,
    };
    let (mesh, cells_cut) = zero_set::extract(grid.dims(), &surface);
    let stats = SliceStats {
        cells_scanned: grid.num_cells() as u64,
        cells_cut,
        triangles: mesh.num_triangles() as u64,
    };
    Ok((mesh, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use eth_data::field::Attribute;

    fn ramp_grid(n: usize) -> UniformGrid {
        // f = x over [0,1]^3
        let mut g = UniformGrid::new(
            [n, n, n],
            Vec3::ZERO,
            Vec3::splat(1.0 / (n - 1) as f32),
        )
        .unwrap();
        let mut vals = Vec::new();
        for k in 0..n {
            for j in 0..n {
                for i in 0..n {
                    let _ = (j, k);
                    vals.push(i as f32 / (n - 1) as f32);
                }
            }
        }
        g.set_attribute("f", Attribute::Scalar(vals.into())).unwrap();
        g
    }

    #[test]
    fn plane_constructors() {
        let p = Plane::from_point_normal(Vec3::new(0.0, 0.0, 2.0), Vec3::new(0.0, 0.0, 4.0));
        assert!((p.normal.z - 1.0).abs() < 1e-6);
        assert!((p.offset - 2.0).abs() < 1e-6);
        assert!((p.distance(Vec3::new(1.0, 1.0, 3.0)) - 1.0).abs() < 1e-6);
        let ax = Plane::axis_aligned(1, 0.5);
        assert_eq!(ax.normal, Vec3::new(0.0, 1.0, 0.0));
    }

    #[test]
    fn axis_slice_is_flat_and_covers_cross_section() {
        let g = ramp_grid(9);
        let plane = Plane::axis_aligned(2, 0.5);
        let (mesh, stats) = extract_slice(&g, "f", &plane).unwrap();
        assert!(mesh.validate());
        assert!(stats.triangles > 0);
        // all vertices on the plane
        for &p in &mesh.positions {
            assert!((p.z - 0.5).abs() < 1e-5, "vertex off plane: {p:?}");
        }
        // area of the unit cross-section
        let area = mesh.surface_area();
        assert!((area - 1.0).abs() < 0.02, "slice area {area}");
    }

    #[test]
    fn slice_scalars_interpolate_field() {
        let g = ramp_grid(9);
        let plane = Plane::axis_aligned(2, 0.3);
        let (mesh, _) = extract_slice(&g, "f", &plane).unwrap();
        // field is x, so scalar at a vertex must equal its x coordinate
        for (p, &s) in mesh.positions.iter().zip(&mesh.scalars) {
            assert!((s - p.x).abs() < 1e-4, "scalar {s} vs x {}", p.x);
        }
    }

    #[test]
    fn oblique_slice_works() {
        let g = ramp_grid(11);
        let plane = Plane::from_point_normal(Vec3::splat(0.5), Vec3::new(1.0, 1.0, 1.0));
        let (mesh, stats) = extract_slice(&g, "f", &plane).unwrap();
        assert!(stats.cells_cut > 0);
        for &p in &mesh.positions {
            assert!(plane.distance(p).abs() < 1e-4);
        }
        // normals are the plane normal
        for n in &mesh.normals {
            assert!(n.dot(plane.normal) > 0.999);
        }
    }

    #[test]
    fn plane_outside_grid_cuts_nothing() {
        let g = ramp_grid(6);
        let plane = Plane::axis_aligned(0, 5.0);
        let (mesh, stats) = extract_slice(&g, "f", &plane).unwrap();
        assert!(mesh.is_empty());
        assert_eq!(stats.cells_cut, 0);
        // … but the scan still walked every cell (the paper's point)
        assert_eq!(stats.cells_scanned, 125);
    }

    #[test]
    fn zero_normal_rejected() {
        let g = ramp_grid(4);
        let bad = Plane {
            normal: Vec3::ZERO,
            offset: 0.0,
        };
        assert!(extract_slice(&g, "f", &bad).is_err());
    }

    #[test]
    fn cut_cell_count_scales_as_two_thirds_power() {
        // n^3 cells, plane cuts ~n^2 of them.
        let g1 = ramp_grid(9); // 8^3 cells
        let g2 = ramp_grid(17); // 16^3 cells
        let plane = Plane::axis_aligned(0, 0.5);
        let (_, s1) = extract_slice(&g1, "f", &plane).unwrap();
        let (_, s2) = extract_slice(&g2, "f", &plane).unwrap();
        let cut_ratio = s2.cells_cut as f64 / s1.cells_cut as f64;
        let scan_ratio = s2.cells_scanned as f64 / s1.cells_scanned as f64;
        assert!((3.0..5.5).contains(&cut_ratio), "cut ratio {cut_ratio}");
        assert!(scan_ratio > 7.0, "scan ratio {scan_ratio}");
    }
}
