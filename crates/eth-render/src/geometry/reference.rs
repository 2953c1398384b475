//! The serial cell scans `extract_isosurface` and `extract_slice` were
//! before the sign sweep, kept verbatim as the specification of the output
//! order — cells in ascending `(k, j, i)`, tetrahedra in table order, a
//! vertex created the first time that order reaches its edge — and the
//! property test that holds the extractor to them at every thread count.

use crate::geometry::marching_cubes::IsosurfaceStats;
use crate::geometry::mesh::TriangleMesh;
use crate::geometry::slice::{Plane, SliceStats};
use eth_data::error::{DataError, Result};
use eth_data::UniformGrid;
use std::collections::HashMap;

/// The six tetrahedra of the Freudenthal decomposition, as indices into the
/// cube-corner table below. Each walks a monotone path 0 → 7, so facial
/// diagonals agree between neighboring cells.
const TETS: [[usize; 4]; 6] = [
    [0, 1, 3, 7],
    [0, 1, 5, 7],
    [0, 2, 3, 7],
    [0, 2, 6, 7],
    [0, 4, 5, 7],
    [0, 4, 6, 7],
];

/// Cube corner offsets in (dx, dy, dz); corner index bit k selects axis k.
const CORNERS: [(usize, usize, usize); 8] = [
    (0, 0, 0),
    (1, 0, 0),
    (0, 1, 0),
    (1, 1, 0),
    (0, 0, 1),
    (1, 0, 1),
    (0, 1, 1),
    (1, 1, 1),
];

/// The parent's `extract_isosurface`.
pub fn extract_isosurface(
    grid: &UniformGrid,
    field: &str,
    isovalue: f32,
) -> Result<(TriangleMesh, IsosurfaceStats)> {
    let values = grid.scalar(field)?;
    let dims = grid.dims();
    let mut mesh = TriangleMesh::new();
    let mut stats = IsosurfaceStats::default();
    // Edge (global vertex id pair, sorted) -> mesh vertex index.
    let mut edge_cache: HashMap<(u32, u32), u32> = HashMap::new();

    if dims[0] < 2 || dims[1] < 2 || dims[2] < 2 {
        return Ok((mesh, stats));
    }

    for k in 0..dims[2] - 1 {
        for j in 0..dims[1] - 1 {
            for i in 0..dims[0] - 1 {
                stats.cells_scanned += 1;
                // Gather corner ids and values.
                let mut ids = [0u32; 8];
                let mut f = [0f32; 8];
                let mut above = 0u8;
                for (c, &(dx, dy, dz)) in CORNERS.iter().enumerate() {
                    let idx = grid.vertex_index(i + dx, j + dy, k + dz);
                    ids[c] = idx as u32;
                    f[c] = values[idx];
                    if f[c] > isovalue {
                        above |= 1 << c;
                    }
                }
                // Quick reject: all corners on one side.
                if above == 0 || above == 0xff {
                    continue;
                }
                let mut emitted = false;
                for tet in &TETS {
                    emitted |= march_tet(
                        grid,
                        values,
                        isovalue,
                        &ids,
                        &f,
                        tet,
                        &mut mesh,
                        &mut edge_cache,
                    );
                }
                if emitted {
                    stats.cells_crossed += 1;
                }
            }
        }
    }
    stats.triangles = mesh.num_triangles() as u64;
    stats.vertices = mesh.num_vertices() as u64;
    Ok((mesh, stats))
}

/// Emit triangles for one tetrahedron; returns true if any were emitted.
#[allow(clippy::too_many_arguments)]
fn march_tet(
    grid: &UniformGrid,
    values: &[f32],
    iso: f32,
    ids: &[u32; 8],
    f: &[f32; 8],
    tet: &[usize; 4],
    mesh: &mut TriangleMesh,
    cache: &mut HashMap<(u32, u32), u32>,
) -> bool {
    let mut mask = 0u8;
    for (b, &c) in tet.iter().enumerate() {
        if f[c] > iso {
            mask |= 1 << b;
        }
    }
    if mask == 0 || mask == 0b1111 {
        return false;
    }
    // Local helper: vertex on the edge between tet-local corners a, b.
    let mut edge_vertex = |a: usize, b: usize| -> u32 {
        let (ga, gb) = (ids[tet[a]], ids[tet[b]]);
        let key = if ga < gb { (ga, gb) } else { (gb, ga) };
        if let Some(&v) = cache.get(&key) {
            return v;
        }
        let (fa, fb) = (f[tet[a]], f[tet[b]]);
        let t = if (fb - fa).abs() < 1e-20 {
            0.5
        } else {
            ((iso - fa) / (fb - fa)).clamp(0.0, 1.0)
        };
        let (ia, ja, ka) = grid.vertex_coords(ga as usize);
        let (ib, jb, kb) = grid.vertex_coords(gb as usize);
        let pa = grid.vertex_position(ia, ja, ka);
        let pb = grid.vertex_position(ib, jb, kb);
        let na = grid.gradient_at_vertex(values, ia, ja, ka);
        let nb = grid.gradient_at_vertex(values, ib, jb, kb);
        let p = pa.lerp(pb, t);
        // surface normal points down-gradient; sign handled by two-sided shading
        let n = na.lerp(nb, t).normalized();
        let v = mesh.push_vertex(p, n, iso);
        cache.insert(key, v);
        v
    };

    // Enumerate marching-tetrahedra cases by popcount of the mask.
    let inside: Vec<usize> = (0..4).filter(|&b| mask & (1 << b) != 0).collect();
    match inside.len() {
        1 => {
            // One corner above: one triangle across its three edges.
            let a = inside[0];
            let others: Vec<usize> = (0..4).filter(|&b| b != a).collect();
            let v0 = edge_vertex(a, others[0]);
            let v1 = edge_vertex(a, others[1]);
            let v2 = edge_vertex(a, others[2]);
            mesh.push_triangle(v0, v1, v2);
        }
        3 => {
            // Mirror case: one corner below.
            let a = (0..4).find(|&b| mask & (1 << b) == 0).unwrap();
            let others: Vec<usize> = (0..4).filter(|&b| b != a).collect();
            let v0 = edge_vertex(a, others[0]);
            let v1 = edge_vertex(a, others[1]);
            let v2 = edge_vertex(a, others[2]);
            mesh.push_triangle(v0, v1, v2);
        }
        2 => {
            // Two above / two below: quad across the four crossing edges.
            let (a0, a1) = (inside[0], inside[1]);
            let below: Vec<usize> = (0..4).filter(|&b| mask & (1 << b) == 0).collect();
            let (b0, b1) = (below[0], below[1]);
            let v00 = edge_vertex(a0, b0);
            let v01 = edge_vertex(a0, b1);
            let v11 = edge_vertex(a1, b1);
            let v10 = edge_vertex(a1, b0);
            // fan the quad v00-v01-v11-v10
            mesh.push_triangle(v00, v01, v11);
            mesh.push_triangle(v00, v11, v10);
        }
        _ => unreachable!("mask 0 and 15 already rejected"),
    }
    true
}

/// The parent's `extract_slice` (it carried its own copies of the two tables
/// above).
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
    let values = grid.scalar(field)?;
    let dims = grid.dims();
    let mut mesh = TriangleMesh::new();
    let mut stats = SliceStats::default();
    let mut cache: HashMap<(u32, u32), u32> = HashMap::new();

    if dims[0] < 2 || dims[1] < 2 || dims[2] < 2 {
        return Ok((mesh, stats));
    }

    // Distance at every vertex: one O(V) pass (the full-scan cost the paper
    // charges geometry slicing).
    let mut dist = Vec::with_capacity(grid.num_vertices());
    for idx in 0..grid.num_vertices() {
        let (i, j, k) = grid.vertex_coords(idx);
        dist.push(plane.distance(grid.vertex_position(i, j, k)));
    }

    for k in 0..dims[2] - 1 {
        for j in 0..dims[1] - 1 {
            for i in 0..dims[0] - 1 {
                stats.cells_scanned += 1;
                let mut ids = [0u32; 8];
                let mut d = [0f32; 8];
                let mut above = 0u8;
                for (c, &(dx, dy, dz)) in CORNERS.iter().enumerate() {
                    let idx = grid.vertex_index(i + dx, j + dy, k + dz);
                    ids[c] = idx as u32;
                    d[c] = dist[idx];
                    if d[c] > 0.0 {
                        above |= 1 << c;
                    }
                }
                if above == 0 || above == 0xff {
                    continue;
                }
                let mut emitted = false;
                for tet in &TETS {
                    emitted |= slice_tet(
                        grid, values, &dist, plane, &ids, &d, tet, &mut mesh, &mut cache,
                    );
                }
                if emitted {
                    stats.cells_cut += 1;
                }
            }
        }
    }
    stats.triangles = mesh.num_triangles() as u64;
    Ok((mesh, stats))
}

#[allow(clippy::too_many_arguments)]
fn slice_tet(
    grid: &UniformGrid,
    values: &[f32],
    _dist: &[f32],
    plane: &Plane,
    ids: &[u32; 8],
    d: &[f32; 8],
    tet: &[usize; 4],
    mesh: &mut TriangleMesh,
    cache: &mut HashMap<(u32, u32), u32>,
) -> bool {
    let mut mask = 0u8;
    for (b, &c) in tet.iter().enumerate() {
        if d[c] > 0.0 {
            mask |= 1 << b;
        }
    }
    if mask == 0 || mask == 0b1111 {
        return false;
    }
    let mut edge_vertex = |a: usize, b: usize| -> u32 {
        let (ga, gb) = (ids[tet[a]], ids[tet[b]]);
        let key = if ga < gb { (ga, gb) } else { (gb, ga) };
        if let Some(&v) = cache.get(&key) {
            return v;
        }
        let (da, db) = (d[tet[a]], d[tet[b]]);
        let t = if (db - da).abs() < 1e-20 {
            0.5
        } else {
            (-da / (db - da)).clamp(0.0, 1.0)
        };
        let (ia, ja, ka) = grid.vertex_coords(ga as usize);
        let (ib, jb, kb) = grid.vertex_coords(gb as usize);
        let pa = grid.vertex_position(ia, ja, ka);
        let pb = grid.vertex_position(ib, jb, kb);
        let p = pa.lerp(pb, t);
        // Color by the data field along the cut edge.
        let s = values[ga as usize] * (1.0 - t) + values[gb as usize] * t;
        let v = mesh.push_vertex(p, plane.normal, s);
        cache.insert(key, v);
        v
    };

    let inside: Vec<usize> = (0..4).filter(|&b| mask & (1 << b) != 0).collect();
    match inside.len() {
        1 | 3 => {
            let a = if inside.len() == 1 {
                inside[0]
            } else {
                (0..4).find(|&b| mask & (1 << b) == 0).unwrap()
            };
            let others: Vec<usize> = (0..4).filter(|&b| b != a).collect();
            let v0 = edge_vertex(a, others[0]);
            let v1 = edge_vertex(a, others[1]);
            let v2 = edge_vertex(a, others[2]);
            mesh.push_triangle(v0, v1, v2);
        }
        2 => {
            let (a0, a1) = (inside[0], inside[1]);
            let below: Vec<usize> = (0..4).filter(|&b| mask & (1 << b) == 0).collect();
            let (b0, b1) = (below[0], below[1]);
            let v00 = edge_vertex(a0, b0);
            let v01 = edge_vertex(a0, b1);
            let v11 = edge_vertex(a1, b1);
            let v10 = edge_vertex(a1, b0);
            mesh.push_triangle(v00, v01, v11);
            mesh.push_triangle(v00, v11, v10);
        }
        _ => unreachable!(),
    }
    true
}

mod equivalence {
    use super::*;
    use crate::geometry::marching_cubes::extract_isosurface as sweep_isosurface;
    use crate::geometry::slice::extract_slice as sweep_slice;
    use crate::testing::at_thread_counts;
    use eth_data::field::Attribute;
    use eth_data::Vec3;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// Every float of a mesh as its bit pattern: `==` on the mesh itself
    /// would call a NaN coordinate different from itself.
    fn bits(mesh: &TriangleMesh) -> (Vec<[u32; 7]>, &[[u32; 3]]) {
        let vertices = (0..mesh.num_vertices())
            .map(|v| {
                let (p, n) = (mesh.positions[v], mesh.normals[v]);
                [p.x, p.y, p.z, n.x, n.y, n.z, mesh.scalars[v]].map(f32::to_bits)
            })
            .collect();
        (vertices, &mesh.indices)
    }

    /// A grid on exactly representable coordinates whose field `"f"` mixes a
    /// smooth wave with plateaus of a few stored values — among them the
    /// isovalue 0 itself, values a denormal step either side of it (edges
    /// whose endpoints differ by less than the interpolation can resolve)
    /// and, when `nans` is set, NaN.
    fn hostile_grid(seed: u64, dims: [usize; 3], nans: bool) -> UniformGrid {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut grid =
            UniformGrid::new(dims, Vec3::new(-1.0, 0.5, 0.0), Vec3::new(0.25, 0.5, 0.125))
                .expect("positive dims and spacing");
        let plateau = [
            -1.0,
            -1e-30,
            0.0,
            1e-30,
            0.75,
            if nans { f32::NAN } else { 0.0 },
        ];
        let run = rng.random_range(1usize..40);
        let mut values = Vec::with_capacity(grid.num_vertices());
        let mut held = 0.0;
        for v in 0..grid.num_vertices() {
            if v % run == 0 {
                held = plateau[rng.random_range(0..plateau.len())];
            }
            let (i, j, k) = grid.vertex_coords(v);
            let wave = (i as f32 * 0.4).sin() + (j as f32 * 0.3).cos() * (k as f32 * 0.5).sin();
            values.push(if rng.random_range(0u32..3) == 0 {
                held
            } else {
                wave
            });
        }
        grid.set_attribute("f", Attribute::Scalar(values.into()))
            .expect("one value per vertex");
        grid
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Mesh and statistics equal the serial reference, bit for bit, at
        /// every thread count.
        #[test]
        fn matches_serial_reference(
            seed in 0u64..u64::MAX,
            nx in 2usize..71,
            ny in 2usize..71,
            nz in 2usize..71,
            flags in 0u8..16,
        ) {
            // one case in four is a thin sliver; half carry NaNs
            let dims = if flags & 3 == 0 { [nx, 2 + ny % 3, 2 + nz % 2] } else { [nx, ny, nz] };
            let grid = hostile_grid(seed, dims, flags & 4 != 0);
            let isovalue = if flags & 8 == 0 { 0.0 } else { 0.3 };
            let want = extract_isosurface(&grid, "f", isovalue).expect("field present");
            for (threads, got) in at_thread_counts(|| sweep_isosurface(&grid, "f", isovalue)) {
                let got = got.expect("field present");
                prop_assert!(bits(&got.0) == bits(&want.0), "iso mesh differs at {threads} threads");
                prop_assert_eq!(got.1, want.1, "iso stats differ at {} threads", threads);
            }

            let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
            let through = Vec3::new(
                -1.0 + 0.25 * rng.random_range(0..nx) as f32,
                0.5 + 0.5 * rng.random_range(0..ny) as f32,
                0.125 * rng.random_range(0..nz) as f32,
            );
            let plane = match rng.random_range(0usize..6) {
                // through a vertex layer: signed distance exactly 0.0 there
                axis @ 0..=2 => Plane::axis_aligned(axis, [through.x, through.y, through.z][axis]),
                _ => Plane::from_point_normal(through, Vec3::new(
                    rng.random_range(-1.0f32..1.0),
                    rng.random_range(-1.0f32..1.0),
                    rng.random_range(0.1f32..1.0),
                )),
            };
            let want = extract_slice(&grid, "f", &plane).expect("field present");
            for (threads, got) in at_thread_counts(|| sweep_slice(&grid, "f", &plane)) {
                let got = got.expect("field present");
                prop_assert!(bits(&got.0) == bits(&want.0), "slice mesh differs at {threads} threads");
                prop_assert_eq!(got.1, want.1, "slice stats differ at {} threads", threads);
            }
        }
    }
}
