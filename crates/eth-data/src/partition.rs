//! Spatial decomposition of datasets across ranks.
//!
//! Every rank of the ETH simulation proxy must be able to load exactly the
//! block of data it will serve to the in-situ interface (Figure 7 of the
//! paper). This module produces those blocks: a recursive-bisection block
//! decomposition for point data and a slab/brick decomposition for grids.
//!
//! Invariants (enforced by tests and property tests):
//! * blocks cover the domain,
//! * every particle lands in exactly one block,
//! * grid slabs reassemble to the original vertex count (with shared faces
//!   counted once).

use crate::bounds::Aabb;
use crate::error::{DataError, Result};
use crate::field::{Attribute, Fields};
use crate::grid::UniformGrid;
use crate::points::PointCloud;
use crate::vec3::Vec3;
use rayon::prelude::*;

/// How many blocks along each axis for a given rank count: a near-cubic
/// factorization of `n` into three factors, largest factor on the longest
/// axis of `domain`.
pub fn factor_blocks(n: usize, domain: &Aabb) -> [usize; 3] {
    assert!(n > 0, "cannot partition into zero blocks");
    // Find the factorization a*b*c == n minimizing the spread of per-block
    // aspect ratios (brute force; n is a rank count, so small).
    let mut best = [n, 1, 1];
    let mut best_score = f32::INFINITY;
    let ext = {
        let e = domain.extent();
        // Guard degenerate/empty domains.
        [e.x.max(1e-20), e.y.max(1e-20), e.z.max(1e-20)]
    };
    let mut a = 1;
    while a * a * a <= n {
        if n.is_multiple_of(a) {
            let rem = n / a;
            let mut b = a;
            while b * b <= rem {
                if rem.is_multiple_of(b) {
                    let c = rem / b;
                    // try all assignments of (a,b,c) to axes
                    let factors = [a, b, c];
                    let perms: [[usize; 3]; 6] = [
                        [0, 1, 2],
                        [0, 2, 1],
                        [1, 0, 2],
                        [1, 2, 0],
                        [2, 0, 1],
                        [2, 1, 0],
                    ];
                    for perm in perms {
                        let f = [factors[perm[0]], factors[perm[1]], factors[perm[2]]];
                        // block edge lengths
                        let bl = [
                            ext[0] / f[0] as f32,
                            ext[1] / f[1] as f32,
                            ext[2] / f[2] as f32,
                        ];
                        let lo = bl[0].min(bl[1]).min(bl[2]);
                        let hi = bl[0].max(bl[1]).max(bl[2]);
                        let score = hi / lo;
                        if score < best_score {
                            best_score = score;
                            best = f;
                        }
                    }
                }
                b += 1;
            }
        }
        a += 1;
    }
    best
}

/// Axis-aligned block decomposition of a domain into `n` boxes.
///
/// Blocks tile the domain exactly: unions reproduce the domain and interior
/// faces are shared. Use [`Aabb::contains_half_open`] for unique membership.
pub fn decompose_domain(domain: &Aabb, n: usize) -> Vec<Aabb> {
    let f = factor_blocks(n, domain);
    let e = domain.extent();
    let step = [
        e.x / f[0] as f32,
        e.y / f[1] as f32,
        e.z / f[2] as f32,
    ];
    let mut blocks = Vec::with_capacity(n);
    for bk in 0..f[2] {
        for bj in 0..f[1] {
            for bi in 0..f[0] {
                let min = Vec3::new(
                    domain.min.x + bi as f32 * step[0],
                    domain.min.y + bj as f32 * step[1],
                    domain.min.z + bk as f32 * step[2],
                );
                // Use exact domain max on the last block of each axis to
                // avoid floating-point shortfall at the boundary.
                let max = Vec3::new(
                    if bi + 1 == f[0] { domain.max.x } else { domain.min.x + (bi + 1) as f32 * step[0] },
                    if bj + 1 == f[1] { domain.max.y } else { domain.min.y + (bj + 1) as f32 * step[1] },
                    if bk + 1 == f[2] { domain.max.z } else { domain.min.z + (bk + 1) as f32 * step[2] },
                );
                blocks.push(Aabb::new(min, max));
            }
        }
    }
    blocks
}

/// Assign every particle of `cloud` to exactly one of `n` spatial blocks,
/// returning per-rank clouds (attributes gathered consistently).
///
/// The blocks decompose the bounds of the finite points. A point goes to
/// the first block holding it half-open, else the first holding it closed
/// (the global max faces), else the block with the nearest center. A
/// coordinate that is not finite is first clamped into those bounds: ±∞ to
/// the face it points at, NaN to the min face.
///
/// One parallel pass labels every point with its block and counts each
/// worker's points per block; then every array is scattered, stably, into
/// per-block arrays allocated at their final length, each worker writing
/// its own run of every block.
pub fn partition_points(cloud: &PointCloud, n: usize) -> Result<Vec<PointCloud>> {
    if n == 0 {
        return Err(DataError::InvalidArgument("zero ranks".into()));
    }
    if u32::try_from(n).is_err() {
        return Err(DataError::InvalidArgument(format!(
            "{n} ranks overflow a u32 block label"
        )));
    }
    if cloud.is_empty() {
        // n empty clouds — a rank is allowed to hold no data.
        return Ok((0..n).map(|_| cloud.gather(&[], Fields::All).unwrap()).collect());
    }
    let positions = cloud.positions();
    let mut domain = Aabb::empty();
    for &p in positions {
        if p.is_finite() {
            domain.expand_point(p);
        }
    }
    let blocks = decompose_domain(&domain, n);
    let block_of = |p: Vec3| -> usize {
        let p = p.max(domain.min).min(domain.max);
        // Half-open membership makes interior faces unambiguous; points
        // on the global max faces fall through to the closed test.
        if let Some(b) = blocks.iter().position(|b| b.contains_half_open(p)) {
            return b;
        }
        if let Some(b) = blocks.iter().position(|b| b.contains(p)) {
            return b;
        }
        // Floating-point stragglers go to the nearest block center.
        let distance = |b: &Aabb| (b.center() - p).length_squared();
        (0..n)
            .min_by(|&a, &b| distance(&blocks[a]).total_cmp(&distance(&blocks[b])))
            .expect("at least one block")
    };
    let chunk = positions.len().div_ceil(rayon::current_num_threads());
    let labelled: Vec<(Vec<u32>, Vec<usize>)> = positions
        .par_chunks(chunk)
        .map(|points| {
            let mut counts = vec![0usize; n];
            let labels = points
                .iter()
                .map(|&p| {
                    let b = block_of(p);
                    counts[b] += 1;
                    b as u32
                })
                .collect();
            (labels, counts)
        })
        .collect();
    let scatter = Scatter { chunk, n, labelled };
    let mut parts: Vec<PointCloud> = scatter
        .apply(positions)
        .into_iter()
        .map(PointCloud::from_positions)
        .collect();
    for (name, attr) in cloud.attributes().iter() {
        let split: Vec<Attribute> = match attr {
            Attribute::Scalar(v) => scatter
                .apply(v)
                .into_iter()
                .map(|v| Attribute::Scalar(v.into()))
                .collect(),
            Attribute::Vector(v) => scatter
                .apply(v)
                .into_iter()
                .map(|v| Attribute::Vector(v.into()))
                .collect(),
            Attribute::Id(v) => scatter
                .apply(v)
                .into_iter()
                .map(|v| Attribute::Id(v.into()))
                .collect(),
        };
        for (part, attr) in parts.iter_mut().zip(split) {
            part.set_attribute(name, attr)?;
        }
    }
    Ok(parts)
}

/// A stable counting-sort scatter: element `i` of an array goes to block
/// `labels[i]`, after every earlier element of that block.
struct Scatter {
    /// Elements per worker chunk.
    chunk: usize,
    /// Number of blocks.
    n: usize,
    /// Per chunk: each element's block, and the chunk's count per block.
    labelled: Vec<(Vec<u32>, Vec<usize>)>,
}

impl Scatter {
    fn apply<T: Copy + Default + Send + Sync>(&self, src: &[T]) -> Vec<Vec<T>> {
        let mut out: Vec<Vec<T>> = (0..self.n)
            .map(|b| {
                let len = self.labelled.iter().map(|(_, counts)| counts[b]).sum();
                vec![T::default(); len]
            })
            .collect();
        // Cut every block's array into one run per chunk, in chunk order.
        let mut runs: Vec<Vec<&mut [T]>> = self.labelled.iter().map(|_| Vec::new()).collect();
        for (b, block) in out.iter_mut().enumerate() {
            let mut rest = block.as_mut_slice();
            for (chunk_runs, (_, counts)) in runs.iter_mut().zip(&self.labelled) {
                let (run, tail) = std::mem::take(&mut rest).split_at_mut(counts[b]);
                chunk_runs.push(run);
                rest = tail;
            }
        }
        src.par_chunks(self.chunk)
            .zip(self.labelled.par_iter())
            .zip(runs.into_par_iter())
            .for_each(|((src, (labels, _)), mut runs)| {
                let mut next = vec![0usize; self.n];
                for (&v, &b) in src.iter().zip(labels) {
                    let b = b as usize;
                    runs[b][next[b]] = v;
                    next[b] += 1;
                }
            });
        out
    }
}

/// Partition a grid into `n` slabs along its longest axis.
///
/// Adjacent slabs share one layer of vertices (ghost-free rendering needs
/// the boundary values on both sides, exactly as VTK's extent splitting
/// does). Slab vertex counts are balanced to within one layer.
pub fn partition_grid_slabs(grid: &UniformGrid, n: usize) -> Result<Vec<UniformGrid>> {
    if n == 0 {
        return Err(DataError::InvalidArgument("zero ranks".into()));
    }
    let dims = grid.dims();
    let axis = grid.bounds().longest_axis();
    let cells = dims[axis] - 1;
    if n == 1 || cells == 0 {
        return Ok(vec![grid.clone(); n]);
    }
    let slabs = n.min(cells); // cannot split finer than one cell per slab
    let mut out = Vec::with_capacity(n);
    for s in 0..slabs {
        let c0 = s * cells / slabs;
        let c1 = (s + 1) * cells / slabs;
        let mut lo = [0usize; 3];
        let mut hi = dims;
        lo[axis] = c0;
        hi[axis] = c1 + 1; // +1: share the boundary vertex layer
        out.push(grid.extract_subgrid(lo, hi)?);
    }
    // If n > cells some ranks get an empty share; replicate the last slab's
    // metadata with a minimal 1-layer grid so every rank has a valid object.
    while out.len() < n {
        let mut lo = [0usize; 3];
        let mut hi = dims;
        lo[axis] = dims[axis] - 1;
        hi[axis] = dims[axis];
        out.push(grid.extract_subgrid(lo, hi)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::Attribute;
    use crate::vec3::Vec3;

    #[test]
    fn factor_blocks_near_cubic() {
        let d = Aabb::unit();
        assert_eq!(factor_blocks(1, &d), [1, 1, 1]);
        let f8 = factor_blocks(8, &d);
        assert_eq!(f8.iter().product::<usize>(), 8);
        assert_eq!(f8, [2, 2, 2]);
        let f12 = factor_blocks(12, &d);
        assert_eq!(f12.iter().product::<usize>(), 12);
    }

    #[test]
    fn factor_blocks_follows_domain_shape() {
        // A domain stretched in x should put more blocks along x.
        let d = Aabb::new(Vec3::ZERO, Vec3::new(100.0, 1.0, 1.0));
        let f = factor_blocks(4, &d);
        assert_eq!(f, [4, 1, 1]);
    }

    #[test]
    fn decompose_covers_domain() {
        let d = Aabb::new(Vec3::new(-1.0, 0.0, 2.0), Vec3::new(3.0, 2.0, 4.0));
        let blocks = decompose_domain(&d, 6);
        assert_eq!(blocks.len(), 6);
        let mut u = Aabb::empty();
        let mut vol = 0.0;
        for b in &blocks {
            u.expand_box(b);
            vol += b.volume();
        }
        assert_eq!(u, d);
        assert!((vol - d.volume()).abs() < 1e-3 * d.volume());
    }

    fn random_cloud(n: usize, seed: u64) -> PointCloud {
        // Tiny deterministic LCG to avoid pulling rand into unit tests.
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) as f32
        };
        let mut pos = Vec::with_capacity(n);
        for _ in 0..n {
            pos.push(Vec3::new(next() * 4.0 - 1.0, next() * 2.0, next() * 3.0));
        }
        let mut c = PointCloud::from_positions(pos);
        let ids: Vec<u64> = (0..n as u64).collect();
        c.set_attribute("id", Attribute::Id(ids.into())).unwrap();
        c
    }

    #[test]
    fn partition_points_is_exhaustive_and_disjoint() {
        let cloud = random_cloud(500, 7);
        for n in [1usize, 2, 3, 4, 7, 8] {
            let parts = partition_points(&cloud, n).unwrap();
            assert_eq!(parts.len(), n);
            let total: usize = parts.iter().map(|p| p.len()).sum();
            assert_eq!(total, cloud.len(), "n={n}: particles lost or duplicated");
            // ids across all parts must be a permutation of 0..N
            let mut seen = vec![false; cloud.len()];
            for p in &parts {
                for &id in p.attribute("id").unwrap().as_id().unwrap() {
                    assert!(!seen[id as usize], "duplicate particle {id}");
                    seen[id as usize] = true;
                }
            }
            assert!(seen.iter().all(|&s| s));
        }
    }

    #[test]
    fn partition_empty_cloud() {
        let c = PointCloud::new();
        let parts = partition_points(&c, 4).unwrap();
        assert_eq!(parts.len(), 4);
        assert!(parts.iter().all(|p| p.is_empty()));
    }

    /// The partitioner [`partition_points`] replaced: per-block index
    /// lists, then one gather per block.
    fn reference_partition_points(cloud: &PointCloud, n: usize) -> Result<Vec<PointCloud>> {
        if n == 0 {
            return Err(DataError::InvalidArgument("zero ranks".into()));
        }
        let domain = cloud.bounds();
        if cloud.is_empty() {
            return Ok((0..n).map(|_| cloud.gather(&[], Fields::All).unwrap()).collect());
        }
        let blocks = decompose_domain(&domain, n);
        let mut index_lists: Vec<Vec<usize>> = vec![Vec::new(); n];
        'next_point: for (pi, &p) in cloud.positions().iter().enumerate() {
            for (bi, b) in blocks.iter().enumerate() {
                if b.contains_half_open(p) {
                    index_lists[bi].push(pi);
                    continue 'next_point;
                }
            }
            for (bi, b) in blocks.iter().enumerate() {
                if b.contains(p) {
                    index_lists[bi].push(pi);
                    continue 'next_point;
                }
            }
            let (bi, _) = blocks
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| {
                    let da = (a.center() - p).length_squared();
                    let db = (b.center() - p).length_squared();
                    da.partial_cmp(&db).unwrap()
                })
                .expect("at least one block");
            index_lists[bi].push(pi);
        }
        index_lists.iter().map(|ix| cloud.gather(ix, Fields::All)).collect()
    }

    /// The slab partitioner over the extraction it used before
    /// [`UniformGrid::extract_subgrid`] copied rows.
    fn reference_partition_grid_slabs(grid: &UniformGrid, n: usize) -> Vec<UniformGrid> {
        let dims = grid.dims();
        let axis = grid.bounds().longest_axis();
        let cells = dims[axis] - 1;
        if n == 1 || cells == 0 {
            return vec![grid.clone(); n];
        }
        let slabs = n.min(cells);
        let mut out = Vec::with_capacity(n);
        for s in 0..slabs {
            let (mut lo, mut hi) = ([0usize; 3], dims);
            lo[axis] = s * cells / slabs;
            hi[axis] = (s + 1) * cells / slabs + 1;
            out.push(grid.reference_extract_subgrid(lo, hi).unwrap());
        }
        while out.len() < n {
            let (mut lo, mut hi) = ([0usize; 3], dims);
            lo[axis] = dims[axis] - 1;
            hi[axis] = dims[axis];
            out.push(grid.reference_extract_subgrid(lo, hi).unwrap());
        }
        out
    }

    /// A cloud mixing points on an integer lattice over `[0, 12]^3` —
    /// duplicates, and points on the faces of any 1/2/3/4/6-way split —
    /// with points between the lattice planes, carrying one attribute of
    /// each variant.
    fn lattice_cloud(cells: &[(u32, u32, u32, u32)], jitter: f32) -> PointCloud {
        let mut pos = vec![Vec3::ZERO, Vec3::splat(12.0)];
        for (i, &(x, y, z, on_lattice)) in cells.iter().enumerate() {
            let off = if on_lattice > 0 {
                0.0
            } else {
                jitter * (i % 7) as f32 / 7.0
            };
            pos.push(Vec3::new(x as f32 + off, y as f32, z as f32 + off * 0.5));
        }
        let n = pos.len() as u64;
        let mut c = PointCloud::from_positions(pos);
        let bits = |i: u64| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as u32;
        c.set_attribute("id", Attribute::Id((0..n).collect()))
            .unwrap();
        c.set_attribute(
            "v",
            Attribute::Vector(
                (0..n)
                    .map(|i| Vec3::splat(f32::from_bits(bits(i))))
                    .collect(),
            ),
        )
        .unwrap();
        c.set_attribute(
            "s",
            Attribute::Scalar((0..n).map(|i| f32::from_bits(bits(i + n))).collect()),
        )
        .unwrap();
        c
    }

    fn cloud_bits(c: &PointCloud) -> (Vec<[u32; 3]>, AttributeBits) {
        let pos = c
            .positions()
            .iter()
            .map(|p| p.to_array().map(f32::to_bits))
            .collect();
        (pos, attribute_bits(c.attributes()))
    }

    use crate::grid::tests::{at_threads, attribute_bits, bit_pattern_grid, AttributeBits};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn partition_points_matches_reference_bit_for_bit(
            cells in prop::collection::vec((0u32..13, 0u32..13, 0u32..13, 0u32..3), 1..300),
            (n, jitter) in (1usize..13, 0.0f32..1.0),
        ) {
            let cloud = lattice_cloud(&cells, jitter);
            let want: Vec<_> = reference_partition_points(&cloud, n)
                .unwrap()
                .iter()
                .map(cloud_bits)
                .collect();
            for threads in [1, 2] {
                let got: Vec<_> = at_threads(threads, || partition_points(&cloud, n))
                    .unwrap()
                    .iter()
                    .map(cloud_bits)
                    .collect();
                prop_assert!(got == want, "{n} blocks differ at {threads} threads");
            }
        }

        #[test]
        fn grid_slabs_match_reference_bit_for_bit(
            (nx, ny, nz) in (1usize..41, 1usize..41, 1usize..41),
            n in 1usize..50,
        ) {
            let g = bit_pattern_grid([nx, ny, nz]);
            let want = reference_partition_grid_slabs(&g, n);
            for threads in [1, 2] {
                let got = at_threads(threads, || partition_grid_slabs(&g, n)).unwrap();
                prop_assert_eq!(got.len(), want.len());
                for (got, want) in got.iter().zip(&want) {
                    prop_assert_eq!(
                        (got.dims(), got.origin(), got.spacing()),
                        (want.dims(), want.origin(), want.spacing())
                    );
                    prop_assert!(
                        attribute_bits(got.attributes()) == attribute_bits(want.attributes()),
                        "{n} slabs of {:?} differ at {threads} threads",
                        g.dims()
                    );
                }
            }
        }
    }

    #[test]
    fn non_finite_points_land_in_exactly_one_block() {
        let finite = random_cloud(200, 3);
        let odd = [
            Vec3::new(f32::NAN, 1.0, 1.0),
            Vec3::splat(f32::NAN),
            Vec3::new(f32::INFINITY, 0.5, 0.5),
            Vec3::new(0.0, f32::NEG_INFINITY, 2.0),
            Vec3::new(f32::INFINITY, f32::NEG_INFINITY, f32::NAN),
        ];
        let mut pos = finite.positions().to_vec();
        pos.extend(odd);
        let mut cloud = PointCloud::from_positions(pos);
        let ids = (0..cloud.len() as u64).collect();
        cloud.set_attribute("id", Attribute::Id(ids)).unwrap();
        for n in [1usize, 2, 3, 4, 7, 8] {
            let parts = partition_points(&cloud, n).unwrap();
            assert_eq!(parts.len(), n);
            let mut seen = vec![0u32; cloud.len()];
            for p in &parts {
                for &id in p.attribute("id").unwrap().as_id().unwrap() {
                    seen[id as usize] += 1;
                }
            }
            assert!(seen.iter().all(|&s| s == 1), "n={n}: {seen:?}");
            if n == 2 {
                // the split is along x (the longest axis): +∞ lands on the
                // max side, NaN on the min side
                let holds = |b: usize, id: u64| {
                    parts[b]
                        .attribute("id")
                        .unwrap()
                        .as_id()
                        .unwrap()
                        .contains(&id)
                };
                assert!(holds(1, 202) && holds(0, 200), "n=2: {parts:?}");
            }
            // the finite points split as they do without the others
            let without: Vec<_> = partition_points(&finite, n).unwrap();
            for (with, without) in parts.iter().zip(&without) {
                let ids = with.attribute("id").unwrap().as_id().unwrap();
                let kept: Vec<u64> = ids.iter().copied().filter(|&i| i < 200).collect();
                assert_eq!(kept, without.attribute("id").unwrap().as_id().unwrap());
            }
        }
        // a cloud with no finite point at all
        let lost = PointCloud::from_positions(odd.to_vec());
        let parts = partition_points(&lost, 3).unwrap();
        assert_eq!(parts.iter().map(|p| p.len()).sum::<usize>(), odd.len());
    }

    fn labeled_grid(dims: [usize; 3]) -> UniformGrid {
        let mut g = UniformGrid::new(dims, Vec3::ZERO, Vec3::ONE).unwrap();
        let vals: Vec<f32> = (0..g.num_vertices()).map(|i| i as f32).collect();
        g.set_attribute("f", Attribute::Scalar(vals.into())).unwrap();
        g
    }

    #[test]
    fn grid_slabs_share_boundary_layers() {
        let g = labeled_grid([9, 4, 4]);
        let slabs = partition_grid_slabs(&g, 2).unwrap();
        assert_eq!(slabs.len(), 2);
        // longest axis is x (8 cells): 2 slabs of 4 cells = 5 vertices each
        assert_eq!(slabs[0].dims(), [5, 4, 4]);
        assert_eq!(slabs[1].dims(), [5, 4, 4]);
        // shared face: last x-layer of slab 0 == first x-layer of slab 1
        let f0 = slabs[0].scalar("f").unwrap();
        let f1 = slabs[1].scalar("f").unwrap();
        for k in 0..4 {
            for j in 0..4 {
                let a = f0[slabs[0].vertex_index(4, j, k)];
                let b = f1[slabs[1].vertex_index(0, j, k)];
                assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn grid_slabs_cover_all_cells() {
        let g = labeled_grid([10, 3, 3]);
        for n in [1usize, 2, 3, 4] {
            let slabs = partition_grid_slabs(&g, n).unwrap();
            assert_eq!(slabs.len(), n);
            let total_cells: usize = slabs.iter().map(|s| s.num_cells()).sum();
            // slabs tile the cell range exactly when n <= cells
            if n <= 9 {
                assert_eq!(total_cells, g.num_cells(), "n={n}");
            }
        }
    }

    #[test]
    fn more_ranks_than_cells_still_valid() {
        let g = labeled_grid([2, 2, 2]);
        let slabs = partition_grid_slabs(&g, 5).unwrap();
        assert_eq!(slabs.len(), 5);
        for s in &slabs {
            assert!(s.num_vertices() > 0);
        }
    }
}
