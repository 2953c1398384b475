//! The zero-set extractor behind the isosurface and slice filters, and the
//! marching-tetrahedra case table all three extraction filters share.
//!
//! A filter supplies a [`Surface`]: which vertices lie strictly above its
//! level, and the mesh vertex where the surface crosses a grid edge.
//! Extraction then runs in two phases.
//!
//! **Sign sweep (parallel).** One pass over the vertices packs "above" into a
//! bit per vertex, x-rows padded to whole `u64` words, k-layers spread over
//! the rayon workers. A cell straddles the surface iff its eight corner bits
//! are neither all clear nor all set; for 64 cells of a row at once that is
//! `(any | any >> 1) & !(all & all >> 1)` over the OR / AND of the four vertex
//! rows around them. Every cell's sign state is still examined — the scan
//! stays O(cells), which is the cost the paper charges the geometry pipeline
//! — at a few instructions per 64 cells instead of eight loads per cell.
//!
//! **Ordered emission (serial).** Straddling cells are visited in ascending
//! `(k, j, i)`, their six Freudenthal tetrahedra in [`TETS`] order, each
//! through [`emit_tet`]. A mesh vertex is created the first time this order
//! reaches its edge, oriented the way that first tetrahedron walks it; later
//! visits find it in an edge cache. The sweep's bits are a pure function of
//! the input and the emission is one thread's walk over them, so the mesh —
//! vertex numbering, triangle order, every float — is the same at any
//! thread count.

use crate::geometry::mesh::TriangleMesh;
use crate::scratch::{overwritten, Scratch};
use eth_data::Vec3;
use rayon::prelude::*;

/// The six tetrahedra of the Freudenthal (Kuhn) decomposition of a cell, as
/// cube-corner indices (bit 0 = +x, bit 1 = +y, bit 2 = +z). Each walks a
/// monotone path 0 → 7, so facial diagonals agree between neighboring cells
/// and surfaces are crack-free across cell and rank boundaries.
pub(super) const TETS: [[usize; 4]; 6] = [
    [0, 1, 3, 7],
    [0, 1, 5, 7],
    [0, 2, 3, 7],
    [0, 2, 6, 7],
    [0, 4, 5, 7],
    [0, 4, 6, 7],
];

/// Marching tetrahedra: corner-above mask → the crossed edges as (from, to)
/// tet-local corners, in the order their vertices are created. Three edges
/// make one triangle; four make a quad, fanned from the first. One corner
/// apart from the rest: its three edges, walked from it. Two and two: from
/// the lower above-corner to both below-corners, then from the upper one
/// back.
const TET_CASES: [&[(usize, usize)]; 16] = [
    &[],
    &[(0, 1), (0, 2), (0, 3)],
    &[(1, 0), (1, 2), (1, 3)],
    &[(0, 2), (0, 3), (1, 3), (1, 2)],
    &[(2, 0), (2, 1), (2, 3)],
    &[(0, 1), (0, 3), (2, 3), (2, 1)],
    &[(1, 0), (1, 3), (2, 3), (2, 0)],
    &[(3, 0), (3, 1), (3, 2)],
    &[(3, 0), (3, 1), (3, 2)],
    &[(0, 1), (0, 2), (3, 2), (3, 1)],
    &[(1, 0), (1, 2), (3, 2), (3, 0)],
    &[(2, 0), (2, 1), (2, 3)],
    &[(2, 0), (2, 1), (3, 1), (3, 0)],
    &[(1, 0), (1, 2), (1, 3)],
    &[(0, 1), (0, 2), (0, 3)],
    &[],
];

/// Emit the triangles of one tetrahedron whose corners above the level are
/// the set bits of `mask`; `edge_vertex(from, to)` yields the mesh vertex on
/// the edge between two tet-local corners. Nothing is emitted for masks 0
/// and 15.
pub(super) fn emit_tet(
    mask: usize,
    mesh: &mut TriangleMesh,
    mut edge_vertex: impl FnMut(&mut TriangleMesh, usize, usize) -> u32,
) {
    let edges = TET_CASES[mask];
    let mut v = [0u32; 4];
    for (v, &(from, to)) in v.iter_mut().zip(edges) {
        *v = edge_vertex(mesh, from, to);
    }
    for w in 2..edges.len() {
        mesh.push_triangle(v[0], v[w - 1], v[w]);
    }
}

/// What differs between the uniform-grid extraction filters: a level
/// function on the vertices, the level whose crossing is the surface, and
/// the mesh vertex placed on a crossed edge.
pub(super) trait Surface: Sync {
    /// Vertices whose level-function value is strictly greater lie above the
    /// surface; NaN is not above.
    fn level(&self) -> f32;

    /// The level function at the `buf.len()` vertices from `(i0, j, k)` along
    /// x — borrowed from the surface's own storage, or evaluated into `buf`.
    fn row<'a>(&'a self, i0: usize, j: usize, k: usize, buf: &'a mut [f32]) -> &'a [f32];

    /// The mesh vertex — position, normal, scalar — where the surface crosses
    /// the edge from grid vertex `from` to grid vertex `to`.
    fn crossing(&self, from: [usize; 3], to: [usize; 3]) -> (Vec3, Vec3, f32);
}

/// Bit `b` of the result is `values[b] > level`, for up to 64 values.
#[inline]
fn pack_above(values: &[f32], level: f32) -> u64 {
    // a compare-and-store loop the compiler vectorizes ...
    let mut above = [0u8; 64];
    for (a, &v) in above.iter_mut().zip(values) {
        *a = (v > level) as u8;
    }
    // ... then eight 0/1 bytes at a time, gathered into the product's top byte
    above.chunks_exact(8).rev().fold(0, |bits, group| {
        let bytes = u64::from_le_bytes(group.try_into().expect("eight bytes"));
        bits << 8 | bytes.wrapping_mul(0x0102_0408_1020_4080) >> 56
    })
}

/// Interpolation weight of the crossing between two edge endpoints whose
/// level-function values are `from` and `to` (`toward_zero` is the
/// numerator, the signed distance from `from` to the level); endpoints the
/// level function cannot tell apart split the edge in the middle.
#[inline]
pub(super) fn crossing_weight(toward_zero: f32, from: f32, to: f32) -> f32 {
    if (to - from).abs() < 1e-20 {
        0.5
    } else {
        (toward_zero / (to - from)).clamp(0.0, 1.0)
    }
}

/// Mesh vertices already created on the edges around the current cell layer,
/// indexed by the edge's lower grid vertex and its direction (the seven
/// non-zero corner offsets of the Freudenthal split). Two vertex layers
/// alternate; an entry is stamped with its vertex layer, so moving on to the
/// next layer needs no clearing.
struct EdgeCache<'a> {
    nx: usize,
    ny: usize,
    /// `(layer + 1) << 32 | mesh vertex`; 0 is "never written".
    slots: &'a mut [u64],
}

impl EdgeCache<'_> {
    /// The mesh vertex on the edge leaving grid vertex `lower` in direction
    /// `dir` (1..=7), made by `create` if this is the edge's first visit.
    fn vertex(&mut self, lower: [usize; 3], dir: usize, create: impl FnOnce() -> u32) -> u32 {
        let [i, j, k] = lower;
        let slot = &mut self.slots[(((k & 1) * self.ny + j) * self.nx + i) * 7 + dir - 1];
        let stamp = k as u64 + 1;
        if *slot >> 32 != stamp {
            *slot = stamp << 32 | create() as u64;
        }
        *slot as u32
    }
}

/// The straddling cells among the 64 whose lower-x vertices are word `w` of
/// the four vertex rows `(j, k)`, `(j+1, k)`, `(j, k+1)`, `(j+1, k+1)`.
#[inline]
fn straddling_cells(rows: &[&[u64]; 4], w: usize, nx: usize) -> u64 {
    let any_all = |w: usize| {
        let [a, b, c, d] = rows.map(|row| row[w]);
        (a | b | c | d, a & b & c & d)
    };
    let (mut any, mut all) = any_all(w);
    // cell i pairs vertex bit i with bit i + 1: shift in the next word's bit 0
    let (mut any_next, mut all_next) = (any >> 1, all >> 1);
    if w + 1 < rows[0].len() {
        let (any, all) = any_all(w + 1);
        any_next |= any << 63;
        all_next |= all << 63;
    }
    any |= any_next;
    all &= all_next;
    // cells stop one short of the row's last vertex
    let cells_here = (nx - 1).saturating_sub(w * 64).min(64);
    let valid = u64::MAX.checked_shr(64 - cells_here as u32).unwrap_or(0);
    any & !all & valid
}

/// Extract `surface` over a uniform grid of `dims` vertices. Returns the mesh
/// and the number of cells that straddle the surface (each emits geometry).
/// The sign bits, the edge cache and the mesh's arrays are `scratch`'s.
pub(super) fn extract<S: Surface>(
    dims: [usize; 3],
    surface: &S,
    scratch: &mut Scratch,
) -> (TriangleMesh, u64) {
    let [nx, ny, nz] = dims;
    let mut mesh = scratch.mesh();
    let mut straddling = 0u64;
    if nx < 2 || ny < 2 || nz < 2 {
        return (mesh, straddling);
    }

    let words = nx.div_ceil(64);
    // the sweep writes every word
    overwritten(&mut scratch.signs, words * ny * nz)
        .par_chunks_mut(words * ny)
        .enumerate()
        .for_each(|(k, layer)| {
            let mut buf = [0f32; 64];
            for (r, word) in layer.iter_mut().enumerate() {
                let (j, i0) = (r / words, r % words * 64);
                let buf = &mut buf[..(nx - i0).min(64)];
                *word = pack_above(surface.row(i0, j, k, buf), surface.level());
            }
        });
    let signs = &scratch.signs[..words * ny * nz];
    let row = |j: usize, k: usize| &signs[(k * ny + j) * words..][..words];
    let above = |row: &[u64], i: usize| (row[i / 64] >> (i % 64)) as usize & 1;

    let slots = &mut scratch.edges;
    slots.clear();
    slots.resize(2 * ny * nx * 7, 0);
    let mut cache = EdgeCache { nx, ny, slots };
    for k in 0..nz - 1 {
        for j in 0..ny - 1 {
            let rows = [row(j, k), row(j + 1, k), row(j, k + 1), row(j + 1, k + 1)];
            for w in 0..words {
                let mut cells = straddling_cells(&rows, w, nx);
                straddling += cells.count_ones() as u64;
                while cells != 0 {
                    let i = w * 64 + cells.trailing_zeros() as usize;
                    cells &= cells - 1;
                    let corner = |c: usize| [i + (c & 1), j + (c >> 1 & 1), k + (c >> 2)];
                    let corners_above: [usize; 8] =
                        std::array::from_fn(|c| above(rows[c >> 1], i + (c & 1)));
                    for tet in &TETS {
                        let mask = (0..4).fold(0, |m, b| m | corners_above[tet[b]] << b);
                        emit_tet(mask, &mut mesh, |mesh, from, to| {
                            let (from, to) = (tet[from], tet[to]);
                            // a tet's corners are nested bit sets: the lower
                            // endpoint is their intersection
                            cache.vertex(corner(from & to), from ^ to, || {
                                let (p, n, s) = surface.crossing(corner(from), corner(to));
                                mesh.push_vertex(p, n, s)
                            })
                        });
                    }
                }
            }
        }
    }
    (mesh, straddling)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The parent's per-tetrahedron case analysis (popcount of the mask, then
    /// `inside` / `others` / `below` lists), as (from, to) edges and triangles
    /// over them.
    fn case_analysis(mask: usize) -> (Vec<(usize, usize)>, Vec<[usize; 3]>) {
        let inside: Vec<usize> = (0..4).filter(|&b| mask & (1 << b) != 0).collect();
        let below: Vec<usize> = (0..4).filter(|&b| mask & (1 << b) == 0).collect();
        match inside.len() {
            1 | 3 => {
                let a = if inside.len() == 1 {
                    inside[0]
                } else {
                    below[0]
                };
                let others: Vec<usize> = (0..4).filter(|&b| b != a).collect();
                (
                    vec![(a, others[0]), (a, others[1]), (a, others[2])],
                    vec![[0, 1, 2]],
                )
            }
            2 => {
                let (a0, a1, b0, b1) = (inside[0], inside[1], below[0], below[1]);
                (
                    vec![(a0, b0), (a0, b1), (a1, b1), (a1, b0)],
                    vec![[0, 1, 2], [0, 2, 3]],
                )
            }
            _ => unreachable!("mixed masks only"),
        }
    }

    #[test]
    fn case_table_reproduces_the_case_analysis_for_all_mixed_masks() {
        for (mask, case) in TET_CASES.iter().enumerate().take(15).skip(1) {
            let (edges, triangles) = case_analysis(mask);
            assert_eq!(*case, &edges[..], "edges of mask {mask:04b}");
            // number edge vertices in creation order, as a mesh would
            let mut mesh = TriangleMesh::new();
            let mut walked = Vec::new();
            emit_tet(mask, &mut mesh, |mesh, from, to| {
                walked.push((from, to));
                mesh.push_vertex(Vec3::ZERO, Vec3::ZERO, 0.0)
            });
            assert_eq!(walked, edges, "creation order of mask {mask:04b}");
            let want: Vec<[u32; 3]> = triangles.iter().map(|t| t.map(|v| v as u32)).collect();
            assert_eq!(mesh.indices, want, "winding of mask {mask:04b}");
        }
        for mask in [0, 15] {
            let mut mesh = TriangleMesh::new();
            emit_tet(mask, &mut mesh, |_, _, _| {
                unreachable!("uniform masks cross no edge")
            });
            assert!(mesh.is_empty());
        }
    }

    #[test]
    fn straddling_cells_match_a_corner_by_corner_scan() {
        // every x-extent around one and two word boundaries, pseudo-random bits
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for nx in (2usize..=5).chain(62..=67).chain(126..=131) {
            let words = nx.div_ceil(64);
            for density in [0, 1, 2] {
                let rows: Vec<Vec<u64>> = (0..4)
                    .map(|_| {
                        let mut row: Vec<f32> = (0..nx)
                            .map(|_| match density {
                                0 => (next() % 2) as f32,
                                1 => (next() % 16 == 0) as u8 as f32,
                                _ => (next() % 16 != 0) as u8 as f32,
                            })
                            .collect();
                        row[0] = f32::NAN;
                        let row: Vec<u64> = row.chunks(64).map(|v| pack_above(v, 0.5)).collect();
                        assert_eq!(row.len(), words);
                        row
                    })
                    .collect();
                let refs: [&[u64]; 4] = std::array::from_fn(|r| &rows[r][..]);
                let bit = |r: usize, i: usize| rows[r][i / 64] >> (i % 64) & 1;
                for w in 0..words {
                    let got = straddling_cells(&refs, w, nx);
                    for b in 0..64 {
                        let i = w * 64 + b;
                        let want = i + 1 < nx && {
                            let sum: u64 = (0..4).map(|r| bit(r, i) + bit(r, i + 1)).sum();
                            sum != 0 && sum != 8
                        };
                        assert_eq!(got >> b & 1 == 1, want, "nx {nx} cell {i}");
                    }
                }
            }
        }
    }
}
