//! Isosurface extraction on unstructured tetrahedral grids.
//!
//! The Section VII extension's geometry filter: marching tetrahedra
//! directly on the cells of an [`UnstructuredGrid`], emitting 1–2
//! triangles per crossed tet through the case table the uniform-grid
//! filters use. Normals come from each tetrahedron's exact linear-field
//! gradient, blended across the cells sharing an edge vertex.

use crate::geometry::mesh::TriangleMesh;
use crate::geometry::zero_set::{crossing_weight, emit_tet};
use eth_data::error::Result;
use eth_data::unstructured::UnstructuredGrid;
use eth_data::Vec3;
use std::collections::HashMap;

/// Statistics from one unstructured extraction.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct UnstructuredIsoStats {
    pub cells_scanned: u64,
    pub cells_crossed: u64,
    pub triangles: u64,
}

/// Exact gradient of the linear interpolant over one tetrahedron.
fn tet_gradient(a: Vec3, b: Vec3, c: Vec3, d: Vec3, f: [f32; 4]) -> Vec3 {
    let vol6 = (b - a).cross(c - a).dot(d - a);
    if vol6.abs() < 1e-20 {
        return Vec3::ZERO;
    }
    let g = (c - a).cross(d - a) * (f[1] - f[0])
        + (d - a).cross(b - a) * (f[2] - f[0])
        + (b - a).cross(c - a) * (f[3] - f[0]);
    g / vol6
}

/// Extract the isosurface of a per-vertex scalar field at `isovalue`.
pub fn extract_isosurface_unstructured(
    mesh: &UnstructuredGrid,
    field: &str,
    isovalue: f32,
) -> Result<(TriangleMesh, UnstructuredIsoStats)> {
    let values = mesh.scalar(field)?;
    let points = mesh.points();
    let mut out = TriangleMesh::new();
    let mut stats = UnstructuredIsoStats::default();
    // (sorted vertex pair) -> output vertex; gradient accumulated per vertex
    let mut edge_cache: HashMap<(u32, u32), u32> = HashMap::new();
    let mut normal_acc: Vec<(Vec3, u32)> = Vec::new();

    for tet in mesh.tets() {
        stats.cells_scanned += 1;
        let ids = *tet;
        let p = [
            points[ids[0] as usize],
            points[ids[1] as usize],
            points[ids[2] as usize],
            points[ids[3] as usize],
        ];
        let f = [
            values[ids[0] as usize],
            values[ids[1] as usize],
            values[ids[2] as usize],
            values[ids[3] as usize],
        ];
        let mut mask = 0usize;
        for (b, &v) in f.iter().enumerate() {
            if v > isovalue {
                mask |= 1 << b;
            }
        }
        if mask == 0 || mask == 0b1111 {
            continue;
        }
        stats.cells_crossed += 1;
        let grad = tet_gradient(p[0], p[1], p[2], p[3], f).normalized();

        emit_tet(mask, &mut out, |out, a, b| {
            let (ga, gb) = (ids[a], ids[b]);
            let key = if ga < gb { (ga, gb) } else { (gb, ga) };
            if let Some(&v) = edge_cache.get(&key) {
                // blend this tet's gradient into the shared vertex normal
                let (acc, count) = &mut normal_acc[v as usize];
                *acc += grad;
                *count += 1;
                return v;
            }
            let t = crossing_weight(isovalue - f[a], f[a], f[b]);
            let v = out.push_vertex(p[a].lerp(p[b], t), grad, isovalue);
            normal_acc.push((grad, 1));
            edge_cache.insert(key, v);
            v
        });
    }
    // finalize blended normals
    for (i, (acc, count)) in normal_acc.iter().enumerate() {
        if *count > 1 {
            out.normals[i] = (*acc / *count as f32).normalized();
        }
    }
    stats.triangles = out.num_triangles() as u64;
    Ok((out, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use eth_data::field::Attribute;
    use eth_sim::amr::{AmrTree, RefinePolicy};
    use eth_data::Aabb;

    fn sphere_mesh(depth: u8) -> UnstructuredGrid {
        let field = |p: Vec3| 0.35 - (p - Vec3::splat(0.5)).length();
        let tree = AmrTree::build(
            Aabb::unit(),
            RefinePolicy {
                min_depth: depth,
                max_depth: depth, // uniform depth: conforming mesh
                threshold: 0.0,
            },
            &field,
        )
        .unwrap();
        tree.to_unstructured("f").unwrap()
    }

    #[test]
    fn sphere_iso_has_expected_area() {
        let mesh = sphere_mesh(4); // uniform 16^3 leaves
        let (surf, stats) = extract_isosurface_unstructured(&mesh, "f", 0.0).unwrap();
        assert!(surf.validate());
        assert!(stats.cells_crossed > 0);
        let want = 4.0 * std::f32::consts::PI * 0.35 * 0.35;
        let got = surf.surface_area();
        assert!(
            (got - want).abs() / want < 0.15,
            "area {got} vs sphere {want}"
        );
    }

    #[test]
    fn vertices_lie_on_the_isosurface() {
        let mesh = sphere_mesh(4);
        let (surf, _) = extract_isosurface_unstructured(&mesh, "f", 0.0).unwrap();
        // vertex-averaged leaf values blur the radius by ~a leaf; allow it
        let leaf = 1.0 / 16.0;
        for &p in &surf.positions {
            let r = (p - Vec3::splat(0.5)).length();
            assert!((r - 0.35).abs() < leaf * 1.6, "vertex at radius {r}");
        }
    }

    #[test]
    fn normals_point_radially() {
        let mesh = sphere_mesh(4);
        let (surf, _) = extract_isosurface_unstructured(&mesh, "f", 0.0).unwrap();
        let mut aligned = 0usize;
        for (p, n) in surf.positions.iter().zip(&surf.normals) {
            let r = (*p - Vec3::splat(0.5)).normalized();
            if n.dot(r).abs() > 0.8 {
                aligned += 1;
            }
        }
        let frac = aligned as f64 / surf.num_vertices() as f64;
        assert!(frac > 0.9, "only {frac} of normals radial");
    }

    #[test]
    fn uniform_mesh_surface_is_watertight() {
        let mesh = sphere_mesh(3);
        let (surf, _) = extract_isosurface_unstructured(&mesh, "f", 0.0).unwrap();
        let mut edge_count: HashMap<(u32, u32), u32> = HashMap::new();
        for t in &surf.indices {
            for e in [(t[0], t[1]), (t[1], t[2]), (t[2], t[0])] {
                let key = if e.0 < e.1 { e } else { (e.1, e.0) };
                *edge_count.entry(key).or_default() += 1;
            }
        }
        let closed = edge_count.values().filter(|&&c| c == 2).count();
        let frac = closed as f64 / edge_count.len() as f64;
        assert!(frac > 0.99, "only {frac} of edges 2-manifold");
    }

    #[test]
    fn iso_outside_range_is_empty() {
        let mesh = sphere_mesh(3);
        let (surf, stats) = extract_isosurface_unstructured(&mesh, "f", 99.0).unwrap();
        assert!(surf.is_empty());
        assert_eq!(stats.cells_crossed, 0);
        assert_eq!(stats.cells_scanned, mesh.num_cells() as u64);
    }

    #[test]
    fn degenerate_tet_survives() {
        let mut m = UnstructuredGrid::new(
            vec![Vec3::ZERO, Vec3::ZERO, Vec3::ZERO, Vec3::ZERO],
            vec![[0, 1, 2, 3]],
        )
        .unwrap();
        m.set_attribute("f", Attribute::Scalar(vec![0.0, 1.0, 0.0, 1.0].into()))
            .unwrap();
        let (surf, _) = extract_isosurface_unstructured(&m, "f", 0.5).unwrap();
        // no panic; whatever triangles exist validate
        assert!(surf.validate());
    }
}
