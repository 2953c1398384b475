//! Indexed triangle meshes produced by the extraction filters.

use eth_data::{Aabb, Vec3};

/// An indexed triangle mesh with per-vertex normals and scalars.
///
/// This is the "very large amount of geometry" the paper's geometry-based
/// pipeline materializes between extraction and rasterization; its memory
/// footprint is part of what the raycasting pipeline avoids.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TriangleMesh {
    pub positions: Vec<Vec3>,
    pub normals: Vec<Vec3>,
    /// Scalar used for coloring (e.g. the isovalue, or the sliced field).
    pub scalars: Vec<f32>,
    pub indices: Vec<[u32; 3]>,
}

impl TriangleMesh {
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty the mesh, keeping its arrays' allocations.
    pub fn clear(&mut self) {
        self.positions.clear();
        self.normals.clear();
        self.scalars.clear();
        self.indices.clear();
    }

    pub fn num_vertices(&self) -> usize {
        self.positions.len()
    }

    pub fn num_triangles(&self) -> usize {
        self.indices.len()
    }

    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// Add a vertex, returning its index.
    pub fn push_vertex(&mut self, position: Vec3, normal: Vec3, scalar: f32) -> u32 {
        let i = self.positions.len() as u32;
        self.positions.push(position);
        self.normals.push(normal);
        self.scalars.push(scalar);
        i
    }

    pub fn push_triangle(&mut self, a: u32, b: u32, c: u32) {
        self.indices.push([a, b, c]);
    }

    pub fn bounds(&self) -> Aabb {
        Aabb::from_points(&self.positions)
    }

    /// Merge another mesh into this one (indices re-based).
    pub fn append(&mut self, other: &TriangleMesh) {
        let base = self.positions.len() as u32;
        self.positions.extend_from_slice(&other.positions);
        self.normals.extend_from_slice(&other.normals);
        self.scalars.extend_from_slice(&other.scalars);
        self.indices
            .extend(other.indices.iter().map(|t| [t[0] + base, t[1] + base, t[2] + base]));
    }

    /// Internal consistency: arrays aligned, indices in range.
    pub fn validate(&self) -> bool {
        let n = self.positions.len();
        if self.normals.len() != n || self.scalars.len() != n {
            return false;
        }
        self.indices
            .iter()
            .all(|t| t.iter().all(|&i| (i as usize) < n))
    }

    /// Total surface area.
    pub fn surface_area(&self) -> f32 {
        self.indices
            .iter()
            .map(|t| {
                let a = self.positions[t[0] as usize];
                let b = self.positions[t[1] as usize];
                let c = self.positions[t[2] as usize];
                (b - a).cross(c - a).length() * 0.5
            })
            .sum()
    }

    /// Approximate memory footprint in bytes (the intermediate-geometry
    /// cost the raycasting pipeline avoids).
    pub fn payload_bytes(&self) -> usize {
        self.positions.len() * 12 + self.normals.len() * 12 + self.scalars.len() * 4
            + self.indices.len() * 12
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tri_mesh() -> TriangleMesh {
        let mut m = TriangleMesh::new();
        let a = m.push_vertex(Vec3::ZERO, Vec3::new(0.0, 0.0, 1.0), 0.0);
        let b = m.push_vertex(Vec3::new(1.0, 0.0, 0.0), Vec3::new(0.0, 0.0, 1.0), 0.5);
        let c = m.push_vertex(Vec3::new(0.0, 1.0, 0.0), Vec3::new(0.0, 0.0, 1.0), 1.0);
        m.push_triangle(a, b, c);
        m
    }

    #[test]
    fn construction_and_validation() {
        let m = tri_mesh();
        assert_eq!(m.num_vertices(), 3);
        assert_eq!(m.num_triangles(), 1);
        assert!(m.validate());
        assert!((m.surface_area() - 0.5).abs() < 1e-6);
    }

    #[test]
    fn invalid_indices_detected() {
        let mut m = tri_mesh();
        m.push_triangle(0, 1, 99);
        assert!(!m.validate());
    }

    #[test]
    fn misaligned_arrays_detected() {
        let mut m = tri_mesh();
        m.scalars.pop();
        assert!(!m.validate());
    }

    #[test]
    fn append_rebases_indices() {
        let mut a = tri_mesh();
        let b = tri_mesh();
        a.append(&b);
        assert_eq!(a.num_vertices(), 6);
        assert_eq!(a.num_triangles(), 2);
        assert_eq!(a.indices[1], [3, 4, 5]);
        assert!(a.validate());
        assert!((a.surface_area() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn bounds_and_payload() {
        let m = tri_mesh();
        let b = m.bounds();
        assert_eq!(b.min, Vec3::ZERO);
        assert_eq!(b.max, Vec3::new(1.0, 1.0, 0.0));
        assert_eq!(m.payload_bytes(), 3 * 12 + 3 * 12 + 3 * 4 + 12);
    }
}
