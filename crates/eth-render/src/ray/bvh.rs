//! Bounding volume hierarchy over sphere primitives.
//!
//! "Each particle is … placed into a specialized acceleration structure at a
//! cost of roughly O(N log N). At run-time, the acceleration structure is
//! traversed to determine whether the viewing rays strike a sphere with a
//! cost that is sub-linear in the number of particles." (Section IV-C)
//!
//! Two builders share one node layout and one traversal:
//!
//! * [`SphereBvh::build`] — the default **HLBVH** (hierarchical linear
//!   BVH, PBR-book recipe): sphere centers are quantized to 30-bit Morton
//!   codes, radix-sorted in O(N) (rayon-parallel histogram + scatter),
//!   grouped into treelets by their high code prefix, each treelet emitted
//!   bottom-up from Morton-bit splits (parallel across treelets), and the
//!   treelet roots joined by a sweep-SAH upper tree. Build cost is linear
//!   in N up to the (tiny) upper tree, which is why million-particle
//!   frames rebuild in milliseconds.
//! * [`SphereBvh::build_median`] — the previous top-down median split
//!   (O(N log N)), kept as the reference baseline for benchmarks and
//!   byte-identity tests.
//!
//! Traversal is an iterative stack walk with near-child-first ordering and
//! t-max pruning, either one ray at a time ([`SphereBvh::intersect`]) or
//! eight coherent rays together ([`SphereBvh::intersect_packet`]): the
//! packet advances through the tree on explicit 8-wide SoA lanes
//! (plain `[f32; 8]` arithmetic — no unstable intrinsics — in the exact
//! operation order of the scalar path, so per-lane results are
//! bit-identical to scalar traversal).

use crate::camera::Ray;
use eth_data::{Aabb, Vec3};

/// Flattened BVH node.
#[derive(Debug, Clone, PartialEq)]
struct Node {
    bounds: Aabb,
    /// Interior: index of the right child (left child is `self + 1`).
    /// Leaf: start of the primitive range.
    payload: u32,
    /// 0 for interior nodes; primitive count for leaves.
    count: u16,
    /// Split axis for interior nodes (traversal ordering hint).
    axis: u8,
}

/// A BVH over spheres of uniform radius.
///
/// Uniform radius matches the paper's particle rendering (a single
/// world-space radius for all particles) and keeps the leaf payload to the
/// center array.
#[derive(Debug, Clone)]
pub struct SphereBvh {
    nodes: Vec<Node>,
    /// Sphere centers, reordered during the build.
    centers: Vec<Vec3>,
    /// Map from reordered slot to original primitive index (for attributes).
    prim_index: Vec<u32>,
    radius: f32,
    /// Primitive-visit operations performed during the build
    /// (≈ N log N for the median build, ≈ c·N for the HLBVH).
    build_ops: u64,
}

/// A ray/sphere intersection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SphereHit {
    /// Ray parameter of the hit point.
    pub t: f32,
    /// Original index of the sphere hit.
    pub prim: u32,
    /// World-space hit position.
    pub position: Vec3,
    /// Outward unit normal at the hit.
    pub normal: Vec3,
}

const LEAF_SIZE: usize = 8;

/// Subtrees below this many primitives build on one thread: at the top of
/// a large tree both children clear the bar and fork, toward the leaves
/// the recursion goes serial and avoids per-node join overhead.
const PAR_BUILD_MIN: usize = 8192;

// ---------------------------------------------------------------------------
// Median-split build (the O(N log N) baseline).
// ---------------------------------------------------------------------------

/// Nodes a median-split subtree over `count` primitives flattens to. A pure
/// function of the count (the split point is always `count / 2`), which is
/// what lets parallel builders write absolute child offsets into disjoint
/// slices.
fn subtree_node_count(count: usize) -> usize {
    if count <= LEAF_SIZE {
        1
    } else {
        let left = count / 2;
        1 + subtree_node_count(left) + subtree_node_count(count - left)
    }
}

/// Build the subtree over `centers`/`prims` into `nodes` (exactly
/// `subtree_node_count(centers.len())` entries, root at `nodes[0]` whose
/// absolute index is `node_base`). `prim_base` is the absolute offset of
/// this range in the reordered primitive arrays. Returns the
/// primitive-visit op count. Children whose primitive count reaches
/// `par_min` build on parallel threads.
fn build_subtree(
    nodes: &mut [Node],
    node_base: usize,
    centers: &mut [Vec3],
    prims: &mut [u32],
    prim_base: usize,
    radius: f32,
    par_min: usize,
) -> u64 {
    let count = centers.len();
    let mut bounds = Aabb::empty();
    for &c in centers.iter() {
        bounds.expand_point(c);
    }
    let bounds = bounds.padded(radius);
    let mut ops = count as u64;

    if count <= LEAF_SIZE {
        nodes[0] = Node {
            bounds,
            payload: prim_base as u32,
            count: count as u16,
            axis: 0,
        };
        return ops;
    }
    let axis = bounds.longest_axis();
    let mid = count / 2;
    // Median split: O(n) selection per level -> O(N log N) total.
    {
        // co-sort centers and prim indices around the median
        let mut order: Vec<usize> = (0..count).collect();
        order.select_nth_unstable_by(mid, |&a, &b| {
            centers[a][axis]
                .partial_cmp(&centers[b][axis])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let reordered_c: Vec<Vec3> = order.iter().map(|&i| centers[i]).collect();
        let reordered_p: Vec<u32> = order.iter().map(|&i| prims[i]).collect();
        centers.copy_from_slice(&reordered_c);
        prims.copy_from_slice(&reordered_p);
    }
    let left_nodes = subtree_node_count(mid);
    nodes[0] = Node {
        bounds,
        payload: (node_base + 1 + left_nodes) as u32,
        count: 0,
        axis: axis as u8,
    };
    let (_, children) = nodes.split_at_mut(1);
    let (left_n, right_n) = children.split_at_mut(left_nodes);
    let (left_c, right_c) = centers.split_at_mut(mid);
    let (left_p, right_p) = prims.split_at_mut(mid);
    if count >= par_min {
        let (left_ops, right_ops) = rayon::join(
            || build_subtree(left_n, node_base + 1, left_c, left_p, prim_base, radius, par_min),
            || {
                build_subtree(
                    right_n,
                    node_base + 1 + left_nodes,
                    right_c,
                    right_p,
                    prim_base + mid,
                    radius,
                    par_min,
                )
            },
        );
        ops + left_ops + right_ops
    } else {
        ops += build_subtree(left_n, node_base + 1, left_c, left_p, prim_base, radius, par_min);
        ops += build_subtree(
            right_n,
            node_base + 1 + left_nodes,
            right_c,
            right_p,
            prim_base + mid,
            radius,
            par_min,
        );
        ops
    }
}

// ---------------------------------------------------------------------------
// HLBVH build: Morton codes, radix sort, treelets, sweep-SAH upper tree.
// ---------------------------------------------------------------------------

/// Bits of Morton code (10 per axis).
const MORTON_BITS: u32 = 30;
/// Treelets group primitives sharing this many high Morton bits: 9 bits
/// = up to 512 treelets = an 8×8×8 grid over the centroid bounds. Plenty
/// of parallel grain, and few enough roots that the sweep-SAH upper tree
/// costs ~1 ms.
const TREELET_PREFIX_BITS: u32 = 9;

#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct MortonPrim {
    code: u32,
    prim: u32,
}

/// Spread the low 10 bits of `v` so bit i lands at position 3i.
#[inline]
fn expand_bits(v: u32) -> u32 {
    let mut v = v & 0x3ff;
    v = (v | (v << 16)) & 0x30000ff;
    v = (v | (v << 8)) & 0x300f00f;
    v = (v | (v << 4)) & 0x30c30c3;
    v = (v | (v << 2)) & 0x9249249;
    v
}

/// 30-bit Morton code: x occupies bit positions 3i+2, y 3i+1, z 3i.
#[inline]
fn morton3(x: u32, y: u32, z: u32) -> u32 {
    (expand_bits(x) << 2) | (expand_bits(y) << 1) | expand_bits(z)
}

/// Axis a Morton bit position discriminates (see [`morton3`]).
#[inline]
fn morton_axis(bit: i32) -> u8 {
    match bit.rem_euclid(3) {
        2 => 0, // x
        1 => 1, // y
        _ => 2, // z
    }
}

/// Quantize `p` into the 1024³ grid over `bounds`.
#[inline]
fn quantize(p: Vec3, min: Vec3, scale: Vec3) -> (u32, u32, u32) {
    let q = |v: f32| (v.max(0.0) as u32).min(1023);
    (
        q((p.x - min.x) * scale.x),
        q((p.y - min.y) * scale.y),
        q((p.z - min.z) * scale.z),
    )
}

/// Wrapper making a raw output pointer shareable across the scatter's
/// rayon tasks. Safety rests on the offset tables: every (chunk, digit)
/// pair owns a disjoint destination range, so no two tasks write the same
/// slot.
struct ScatterOut(*mut MortonPrim);
unsafe impl Send for ScatterOut {}
unsafe impl Sync for ScatterOut {}

const RADIX_BITS: u32 = 10;
const RADIX_BUCKETS: usize = 1 << RADIX_BITS;
const RADIX_PASSES: u32 = MORTON_BITS / RADIX_BITS;
/// Fixed chunk fan-out for the parallel sort. Independent of the thread
/// count (stability of LSD radix makes the output unique anyway, but a
/// fixed layout also keeps the *work decomposition* reproducible).
const RADIX_CHUNKS: usize = 64;

/// Stable LSD radix sort of `pairs` by their 30-bit code: 3 passes × 10
/// bits, parallel per-chunk histograms and a parallel scatter into
/// per-(chunk, digit) disjoint ranges. O(N), deterministic for any thread
/// count.
fn radix_sort_morton(pairs: &mut Vec<MortonPrim>) {
    use rayon::prelude::*;
    let n = pairs.len();
    if n < 2 {
        return;
    }
    let chunk = n.div_ceil(RADIX_CHUNKS);
    let mut scratch = vec![MortonPrim::default(); n];
    for pass in 0..RADIX_PASSES {
        let shift = pass * RADIX_BITS;
        // Per-chunk digit histograms.
        let histos: Vec<Vec<u32>> = pairs
            .par_chunks(chunk)
            .map(|ps| {
                let mut h = vec![0u32; RADIX_BUCKETS];
                for p in ps {
                    h[((p.code >> shift) as usize) & (RADIX_BUCKETS - 1)] += 1;
                }
                h
            })
            .collect();
        // Exclusive prefix: digit bases, then per-(chunk, digit) starts.
        let mut starts = vec![0u32; histos.len() * RADIX_BUCKETS];
        let mut base = 0u32;
        for d in 0..RADIX_BUCKETS {
            for (c, h) in histos.iter().enumerate() {
                starts[c * RADIX_BUCKETS + d] = base;
                base += h[d];
            }
        }
        // Scatter: chunk c writes digit d's elements into its own range.
        let out = ScatterOut(scratch.as_mut_ptr());
        pairs
            .par_chunks(chunk)
            .zip(starts.par_chunks(RADIX_BUCKETS))
            .for_each(|(ps, chunk_starts)| {
                let out = &out;
                let mut cursor = chunk_starts.to_vec();
                for &p in ps {
                    let d = ((p.code >> shift) as usize) & (RADIX_BUCKETS - 1);
                    // SAFETY: `cursor[d]` walks the disjoint range reserved
                    // for this (chunk, digit) pair by the prefix sums.
                    unsafe { out.0.add(cursor[d] as usize).write(p) };
                    cursor[d] += 1;
                }
            });
        std::mem::swap(pairs, &mut scratch);
    }
}

/// One built treelet: pre-order nodes whose *leaf* payloads are absolute
/// primitive offsets while *interior* payloads are still relative to the
/// treelet's own node base (fixed during assembly).
struct Treelet {
    nodes: Vec<Node>,
    /// Primitive-visit ops spent emitting this treelet.
    ops: u64,
}

/// Emit the treelet subtree over `sorted[start..end]` by splitting at
/// Morton bit `bit` (descending). Returns the root's index in `nodes`.
/// Bounds are built bottom-up (leaves scan their ≤ LEAF_SIZE primitives,
/// interiors union their children), keeping emission O(range).
fn emit_treelet(
    codes: &[u32],
    sorted_centers: &[Vec3],
    radius: f32,
    start: usize,
    end: usize,
    bit: i32,
    out: &mut Treelet,
) -> usize {
    let count = end - start;
    if count <= LEAF_SIZE {
        let mut bounds = Aabb::empty();
        for &c in &sorted_centers[start..end] {
            bounds.expand_point(c);
        }
        out.ops += count as u64;
        let idx = out.nodes.len();
        out.nodes.push(Node {
            bounds: bounds.padded(radius),
            payload: start as u32,
            count: count as u16,
            axis: 0,
        });
        return idx;
    }
    // Split point: where `bit` flips from 0 to 1 in the sorted codes, or
    // the median once the code bits are exhausted (coincident centers).
    let mid = if bit < 0 {
        start + count / 2
    } else {
        let mask = 1u32 << bit;
        if codes[start] & mask == codes[end - 1] & mask {
            // Bit does not discriminate this range: descend a level
            // without emitting a node.
            return emit_treelet(codes, sorted_centers, radius, start, end, bit - 1, out);
        }
        // Binary search for the first element with the bit set.
        let (mut lo, mut hi) = (start, end - 1);
        while lo + 1 < hi {
            let m = (lo + hi) / 2;
            if codes[m] & mask == 0 {
                lo = m;
            } else {
                hi = m;
            }
        }
        hi
    };
    out.ops += 1;
    let idx = out.nodes.len();
    out.nodes.push(Node {
        bounds: Aabb::empty(),
        payload: 0,
        count: 0,
        axis: if bit < 0 { 0 } else { morton_axis(bit) },
    });
    let left = emit_treelet(codes, sorted_centers, radius, start, mid, bit - 1, out);
    debug_assert_eq!(left, idx + 1);
    let right = emit_treelet(codes, sorted_centers, radius, mid, end, bit - 1, out);
    let bounds = out.nodes[left].bounds.union(&out.nodes[right].bounds);
    let node = &mut out.nodes[idx];
    node.bounds = bounds;
    node.payload = right as u32; // relative to this treelet's base
    idx
}

/// Upper tree over treelet roots (values are treelet indices).
enum Upper {
    Leaf(usize),
    Interior {
        bounds: Aabb,
        axis: u8,
        left: Box<Upper>,
        right: Box<Upper>,
    },
}

fn surface_area(b: &Aabb) -> f32 {
    let e = b.extent();
    let (x, y, z) = (e.x.max(0.0), e.y.max(0.0), e.z.max(0.0));
    2.0 * (x * y + y * z + z * x)
}

/// Build the upper tree by full-sweep SAH over the treelet roots: for each
/// axis the roots are ordered by centroid and every split position costed
/// with prefix/suffix bounds; the cheapest (axis, split) wins. Treelet
/// counts are ≤ 4096, so the sweep is negligible next to the linear phase.
/// `items` are `(bounds, treelet index)` pairs, reordered in place.
fn build_upper_sah(items: &mut [(Aabb, usize)]) -> Upper {
    if items.len() == 1 {
        return Upper::Leaf(items[0].1);
    }
    let mut bounds = Aabb::empty();
    for (b, _) in items.iter() {
        bounds.expand_box(b);
    }
    let mut best: Option<(f32, usize, usize)> = None; // (cost, axis, split)
    let n = items.len();
    let mut suffix = vec![Aabb::empty(); n];
    for axis in 0..3usize {
        // Deterministic order: centroid along the axis, treelet id breaks
        // ties (centroids of distinct treelets can coincide).
        items.sort_by(|a, b| {
            let ca = a.0.center()[axis];
            let cb = b.0.center()[axis];
            ca.partial_cmp(&cb)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.1.cmp(&b.1))
        });
        let mut acc = Aabb::empty();
        for i in (1..n).rev() {
            acc.expand_box(&items[i].0);
            suffix[i] = acc;
        }
        let mut prefix = Aabb::empty();
        for i in 1..n {
            prefix.expand_box(&items[i - 1].0);
            let cost = i as f32 * surface_area(&prefix)
                + (n - i) as f32 * surface_area(&suffix[i]);
            if best.map(|(c, _, _)| cost < c).unwrap_or(true) {
                best = Some((cost, axis, i));
            }
        }
    }
    let (_, axis, split) = best.expect("n >= 2 always yields a split");
    // Re-establish the winning axis order (the loop left axis 2's).
    items.sort_by(|a, b| {
        let ca = a.0.center()[axis];
        let cb = b.0.center()[axis];
        ca.partial_cmp(&cb)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.1.cmp(&b.1))
    });
    let (lo, hi) = items.split_at_mut(split);
    let left = build_upper_sah(lo);
    let right = build_upper_sah(hi);
    Upper::Interior {
        bounds,
        axis: axis as u8,
        left: Box::new(left),
        right: Box::new(right),
    }
}

/// Nodes the flattened `upper` subtree occupies (interiors + treelets).
fn upper_node_count(upper: &Upper, treelets: &[Treelet]) -> usize {
    match upper {
        Upper::Leaf(t) => treelets[*t].nodes.len(),
        Upper::Interior { left, right, .. } => {
            1 + upper_node_count(left, treelets) + upper_node_count(right, treelets)
        }
    }
}

/// Flatten the upper tree + treelets into one pre-order node array,
/// rebasing treelet-relative interior payloads onto their absolute slot.
fn flatten_upper(upper: &Upper, treelets: &[Treelet], out: &mut Vec<Node>) {
    match upper {
        Upper::Leaf(t) => {
            let base = out.len() as u32;
            out.extend(treelets[*t].nodes.iter().map(|n| {
                let mut n = n.clone();
                if n.count == 0 {
                    n.payload += base;
                }
                n
            }));
        }
        Upper::Interior {
            bounds,
            axis,
            left,
            right,
        } => {
            let idx = out.len();
            out.push(Node {
                bounds: *bounds,
                payload: 0,
                count: 0,
                axis: *axis,
            });
            flatten_upper(left, treelets, out);
            out[idx].payload = out.len() as u32;
            flatten_upper(right, treelets, out);
        }
    }
}

// ---------------------------------------------------------------------------
// Ray packets: 8 coherent rays on explicit SoA lanes.
// ---------------------------------------------------------------------------

/// Lanes per ray packet.
pub const PACKET_WIDTH: usize = 8;

/// Eight rays in structure-of-arrays form. Unfilled lanes replicate lane 0
/// so every lane always holds finite data; callers read back only the
/// first [`RayPacket::lanes`] results.
#[derive(Debug, Clone)]
pub struct RayPacket {
    pub ox: [f32; PACKET_WIDTH],
    pub oy: [f32; PACKET_WIDTH],
    pub oz: [f32; PACKET_WIDTH],
    pub dx: [f32; PACKET_WIDTH],
    pub dy: [f32; PACKET_WIDTH],
    pub dz: [f32; PACKET_WIDTH],
    pub ix: [f32; PACKET_WIDTH],
    pub iy: [f32; PACKET_WIDTH],
    pub iz: [f32; PACKET_WIDTH],
    /// Number of meaningful lanes (1..=8).
    pub lanes: usize,
}

impl RayPacket {
    /// Pack up to 8 rays; lanes beyond `rays.len()` replicate the first.
    pub fn from_rays(rays: &[Ray]) -> RayPacket {
        assert!(!rays.is_empty() && rays.len() <= PACKET_WIDTH);
        let mut p = RayPacket {
            ox: [0.0; PACKET_WIDTH],
            oy: [0.0; PACKET_WIDTH],
            oz: [0.0; PACKET_WIDTH],
            dx: [0.0; PACKET_WIDTH],
            dy: [0.0; PACKET_WIDTH],
            dz: [0.0; PACKET_WIDTH],
            ix: [0.0; PACKET_WIDTH],
            iy: [0.0; PACKET_WIDTH],
            iz: [0.0; PACKET_WIDTH],
            lanes: rays.len(),
        };
        for l in 0..PACKET_WIDTH {
            let r = rays[l.min(rays.len() - 1)];
            let inv = r.inv_dir();
            p.ox[l] = r.origin.x;
            p.oy[l] = r.origin.y;
            p.oz[l] = r.origin.z;
            p.dx[l] = r.dir.x;
            p.dy[l] = r.dir.y;
            p.dz[l] = r.dir.z;
            p.ix[l] = inv.x;
            p.iy[l] = inv.y;
            p.iz[l] = inv.z;
        }
        p
    }

    /// Lane 0's direction component along `axis` (traversal-order hint).
    #[inline]
    fn lead_dir(&self, axis: u8) -> f32 {
        match axis {
            0 => self.dx[0],
            1 => self.dy[0],
            _ => self.dz[0],
        }
    }
}

/// Slab-test all 8 lanes against `b`; true if any lane's interval
/// `[1e-4, best_t(lane)]` survives. Same max/min structure per lane as
/// `Aabb::ray_intersect`.
#[inline]
fn packet_hits_aabb(p: &RayPacket, b: &Aabb, best_t: &[f32; PACKET_WIDTH]) -> bool {
    let mut t0 = [1e-4f32; PACKET_WIDTH];
    let mut t1 = *best_t;
    macro_rules! axis {
        ($o:ident, $i:ident, $lo:expr, $hi:expr) => {
            for l in 0..PACKET_WIDTH {
                let near = ($lo - p.$o[l]) * p.$i[l];
                let far = ($hi - p.$o[l]) * p.$i[l];
                let (n, f) = if near > far { (far, near) } else { (near, far) };
                t0[l] = t0[l].max(n);
                t1[l] = t1[l].min(f);
            }
        };
    }
    axis!(ox, ix, b.min.x, b.max.x);
    axis!(oy, iy, b.min.y, b.max.y);
    axis!(oz, iz, b.min.z, b.max.z);
    let mut any = false;
    for l in 0..PACKET_WIDTH {
        any |= t0[l] <= t1[l];
    }
    any
}

impl SphereBvh {
    /// Build over `centers` with the given world-space sphere radius.
    ///
    /// The default build is the HLBVH: linear time, rayon-parallel, and
    /// deterministic for any thread count (the Morton radix sort is
    /// stable, treelets build independently, and the upper SAH sweep is
    /// ordered). Traversal semantics are identical to the median-split
    /// baseline — for any ray, the nearest hit is the same sphere.
    pub fn build(centers: &[Vec3], radius: f32) -> SphereBvh {
        assert!(radius > 0.0, "sphere radius must be positive");
        let _span = eth_obs::span_bytes(
            eth_obs::Phase::BvhBuild,
            std::mem::size_of_val(centers) as u64,
        );
        let n = centers.len();
        if n == 0 {
            return SphereBvh::empty(radius);
        }
        let mut ops = n as u64; // Morton pass visits every primitive once

        // 1. Quantize centers into the centroid bounds and Morton-encode.
        let mut cb = Aabb::empty();
        for &c in centers {
            cb.expand_point(c);
        }
        let extent = cb.extent();
        let scale = Vec3::new(
            if extent.x > 0.0 { 1024.0 / extent.x } else { 0.0 },
            if extent.y > 0.0 { 1024.0 / extent.y } else { 0.0 },
            if extent.z > 0.0 { 1024.0 / extent.z } else { 0.0 },
        );
        use rayon::prelude::*;
        // Per-primitive work goes through `par_chunks_mut` — one parallel
        // item per contiguous chunk, so the pipeline's per-item cost is
        // amortized over thousands of primitives.
        let chunk = n.div_ceil(rayon::current_num_threads().max(1) * 4).max(4096);
        let mut pairs: Vec<MortonPrim> = vec![MortonPrim::default(); n];
        pairs.par_chunks_mut(chunk).enumerate().for_each(|(ci, ps)| {
            let base = ci * chunk;
            for (i, slot) in ps.iter_mut().enumerate() {
                let (x, y, z) = quantize(centers[base + i], cb.min, scale);
                *slot = MortonPrim {
                    code: morton3(x, y, z),
                    prim: (base + i) as u32,
                };
            }
        });

        // 2. Radix-sort by code (stable, O(N), parallel).
        radix_sort_morton(&mut pairs);
        ops += RADIX_PASSES as u64 * n as u64;

        // 3. Reorder primitives into Morton order once, right after the
        //    sort: the single random-access gather of the whole build.
        //    Every later phase (treelet bounds, leaf payloads, traversal)
        //    reads the reordered arrays sequentially.
        let mut codes: Vec<u32> = vec![0; n];
        let mut sorted_centers: Vec<Vec3> = vec![Vec3::ZERO; n];
        let mut prim_index: Vec<u32> = vec![0; n];
        codes
            .par_chunks_mut(chunk)
            .zip(sorted_centers.par_chunks_mut(chunk))
            .zip(prim_index.par_chunks_mut(chunk))
            .enumerate()
            .for_each(|(ci, ((ks, cs), ps))| {
                let base = ci * chunk;
                for i in 0..ks.len() {
                    let mp = pairs[base + i];
                    ks[i] = mp.code;
                    cs[i] = centers[mp.prim as usize];
                    ps[i] = mp.prim;
                }
            });
        drop(pairs);

        // 4. Treelets: runs of equal high-prefix bits, emitted in parallel.
        let prefix_shift = MORTON_BITS - TREELET_PREFIX_BITS;
        let mut ranges: Vec<(usize, usize)> = Vec::new();
        let mut start = 0;
        for i in 1..=n {
            if i == n || codes[i] >> prefix_shift != codes[start] >> prefix_shift {
                ranges.push((start, i));
                start = i;
            }
        }
        let first_bit = prefix_shift as i32 - 1;
        let treelets: Vec<Treelet> = ranges
            .par_iter()
            .map(|&(s, e)| {
                let mut t = Treelet {
                    nodes: Vec::with_capacity(2 * (e - s) / LEAF_SIZE + 1),
                    ops: 0,
                };
                emit_treelet(&codes, &sorted_centers, radius, s, e, first_bit, &mut t);
                t
            })
            .collect();
        ops += treelets.iter().map(|t| t.ops).sum::<u64>();

        // 5. Sweep-SAH upper tree over the treelet roots.
        let mut items: Vec<(Aabb, usize)> = treelets
            .iter()
            .enumerate()
            .map(|(i, t)| (t.nodes[0].bounds, i))
            .collect();
        let upper = build_upper_sah(&mut items);
        ops += treelets.len() as u64;

        // 6. Flatten into one pre-order array.
        let mut nodes = Vec::with_capacity(upper_node_count(&upper, &treelets));
        flatten_upper(&upper, &treelets, &mut nodes);

        let bvh = SphereBvh {
            nodes,
            centers: sorted_centers,
            prim_index,
            radius,
            build_ops: ops,
        };
        eth_obs::count("bvh_nodes", bvh.nodes.len() as f64);
        bvh
    }

    /// The previous top-down median-split build (O(N log N)): the
    /// reference baseline the HLBVH is benchmarked and byte-identity
    /// tested against.
    pub fn build_median(centers: &[Vec3], radius: f32) -> SphereBvh {
        SphereBvh::build_median_impl(centers, radius, PAR_BUILD_MIN)
    }

    /// [`SphereBvh::build_median`] with the parallel-recursion threshold
    /// exposed so tests can pin the build fully serial (`usize::MAX`) or
    /// maximally parallel (`1`) and compare the results.
    fn build_median_impl(centers: &[Vec3], radius: f32, par_min: usize) -> SphereBvh {
        assert!(radius > 0.0, "sphere radius must be positive");
        let n = centers.len();
        if n == 0 {
            return SphereBvh::empty(radius);
        }
        let mut centers = centers.to_vec();
        let mut prim_index: Vec<u32> = (0..n as u32).collect();
        let mut nodes = vec![
            Node {
                bounds: Aabb::empty(),
                payload: 0,
                count: 0,
                axis: 0,
            };
            subtree_node_count(n)
        ];
        let build_ops =
            build_subtree(&mut nodes, 0, &mut centers, &mut prim_index, 0, radius, par_min);
        SphereBvh {
            nodes,
            centers,
            prim_index,
            radius,
            build_ops,
        }
    }

    fn empty(radius: f32) -> SphereBvh {
        SphereBvh {
            nodes: vec![Node {
                bounds: Aabb::empty(),
                payload: 0,
                count: 0,
                axis: 0,
            }],
            centers: Vec::new(),
            prim_index: Vec::new(),
            radius,
            build_ops: 0,
        }
    }

    pub fn num_primitives(&self) -> usize {
        self.centers.len()
    }

    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    pub fn radius(&self) -> f32 {
        self.radius
    }

    /// Primitive-visit operations performed by the build (≈ N log N for
    /// the median build, ≈ c·N for the HLBVH); calibrates the
    /// cluster-scale cost model.
    pub fn build_ops(&self) -> u64 {
        self.build_ops
    }

    pub fn bounds(&self) -> Aabb {
        self.nodes
            .first()
            .map(|n| n.bounds)
            .unwrap_or_else(Aabb::empty)
    }

    /// Nearest intersection along `ray`, if any. `steps` accumulates the
    /// number of node visits (the traversal cost counter).
    pub fn intersect(&self, ray: &Ray, t_max: f32, steps: &mut u64) -> Option<SphereHit> {
        if self.centers.is_empty() {
            return None;
        }
        let inv = ray.inv_dir();
        let mut best: Option<SphereHit> = None;
        let mut best_t = t_max;
        // Manual stack: node indices to visit.
        let mut stack = [0u32; 96];
        let mut sp = 0usize;
        stack[sp] = 0;
        sp += 1;
        while sp > 0 {
            sp -= 1;
            let node = &self.nodes[stack[sp] as usize];
            *steps += 1;
            if node
                .bounds
                .ray_intersect(ray.origin, inv, 1e-4, best_t)
                .is_none()
            {
                continue;
            }
            if node.count > 0 {
                // Leaf: test each sphere.
                let start = node.payload as usize;
                for slot in start..start + node.count as usize {
                    *steps += 1;
                    if let Some((t, pos, n)) =
                        ray_sphere(ray, self.centers[slot], self.radius, best_t)
                    {
                        best_t = t;
                        best = Some(SphereHit {
                            t,
                            prim: self.prim_index[slot],
                            position: pos,
                            normal: n,
                        });
                    }
                }
            } else {
                // Interior: push far child first so the near child pops first.
                let left = stack[sp] + 1;
                let right = node.payload;
                let near_first = ray.dir[node.axis as usize] >= 0.0;
                let (first, second) = if near_first { (left, right) } else { (right, left) };
                if sp + 2 <= stack.len() {
                    stack[sp] = second;
                    sp += 1;
                    stack[sp] = first;
                    sp += 1;
                }
            }
        }
        best
    }

    /// Advance 8 coherent rays through the tree together. A node is
    /// descended if *any* lane's interval survives its slab test; leaves
    /// test every sphere against all lanes on SoA arithmetic that mirrors
    /// the scalar [`ray_sphere`] operation-for-operation, so each lane's
    /// result is bit-identical to a scalar [`SphereBvh::intersect`] of the
    /// same ray. `steps` counts packet node visits + packet sphere tests
    /// (one per packet, not per lane — the packet is the unit of work).
    ///
    /// One body, two instantiations: compiled with AVX2 enabled where the
    /// running CPU has it (8 lanes are one `ymm` register), for the target
    /// baseline otherwise. Both execute the same IEEE operations in the same
    /// order — wider registers, no fused multiply-add — so the choice does
    /// not reach a single bit of the result.
    pub fn intersect_packet(
        &self,
        p: &RayPacket,
        t_max: f32,
        steps: &mut u64,
    ) -> [Option<SphereHit>; PACKET_WIDTH] {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: `intersect_packet_avx2` needs only `avx2` beyond the
            // x86-64 baseline, and the running CPU was just seen to have it.
            return unsafe { self.intersect_packet_avx2(p, t_max, steps) };
        }
        self.intersect_packet_lanes(p, t_max, steps)
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn intersect_packet_avx2(
        &self,
        p: &RayPacket,
        t_max: f32,
        steps: &mut u64,
    ) -> [Option<SphereHit>; PACKET_WIDTH] {
        self.intersect_packet_lanes(p, t_max, steps)
    }

    // the negated comparisons are the point: a NaN must pass all three
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    #[inline(always)]
    fn intersect_packet_lanes(
        &self,
        p: &RayPacket,
        t_max: f32,
        steps: &mut u64,
    ) -> [Option<SphereHit>; PACKET_WIDTH] {
        let mut best: [Option<SphereHit>; PACKET_WIDTH] = [None; PACKET_WIDTH];
        if self.centers.is_empty() {
            return best;
        }
        let mut best_t = [t_max; PACKET_WIDTH];
        let r2 = self.radius * self.radius;
        let mut stack = [0u32; 96];
        let mut sp = 0usize;
        stack[sp] = 0;
        sp += 1;
        while sp > 0 {
            sp -= 1;
            let node = &self.nodes[stack[sp] as usize];
            *steps += 1;
            if !packet_hits_aabb(p, &node.bounds, &best_t) {
                continue;
            }
            if node.count > 0 {
                let start = node.payload as usize;
                for slot in start..start + node.count as usize {
                    *steps += 1;
                    let c = self.centers[slot];
                    // All 8 lanes, no early-outs, so the loop vectorizes.
                    // Same op order as ray_sphere: oc = o - c, b = oc·d,
                    // csq = oc·oc - r², disc = b² - csq; its three exits
                    // become one flag, each negated so that a NaN falls
                    // through them exactly as it does there.
                    let mut t = [0.0f32; PACKET_WIDTH];
                    let mut hit = [false; PACKET_WIDTH];
                    for l in 0..PACKET_WIDTH {
                        let ocx = p.ox[l] - c.x;
                        let ocy = p.oy[l] - c.y;
                        let ocz = p.oz[l] - c.z;
                        let b = ocx * p.dx[l] + ocy * p.dy[l] + ocz * p.dz[l];
                        let csq = (ocx * ocx + ocy * ocy + ocz * ocz) - r2;
                        let disc = b * b - csq;
                        let sq = disc.sqrt();
                        let (t0, t1) = (-b - sq, -b + sq);
                        t[l] = if t0 <= 1e-4 { t1 } else { t0 };
                        hit[l] = !(disc < 0.0) & !(t[l] <= 1e-4) & !(t[l] >= best_t[l]);
                    }
                    if hit == [false; PACKET_WIDTH] {
                        continue;
                    }
                    for l in (0..PACKET_WIDTH).filter(|&l| hit[l]) {
                        let pos = Vec3::new(
                            p.ox[l] + p.dx[l] * t[l],
                            p.oy[l] + p.dy[l] * t[l],
                            p.oz[l] + p.dz[l] * t[l],
                        );
                        let normal = (pos - c) / self.radius;
                        best_t[l] = t[l];
                        best[l] = Some(SphereHit {
                            t: t[l],
                            prim: self.prim_index[slot],
                            position: pos,
                            normal,
                        });
                    }
                }
            } else {
                let left = stack[sp] + 1;
                let right = node.payload;
                let near_first = p.lead_dir(node.axis) >= 0.0;
                let (first, second) = if near_first { (left, right) } else { (right, left) };
                if sp + 2 <= stack.len() {
                    stack[sp] = second;
                    sp += 1;
                    stack[sp] = first;
                    sp += 1;
                }
            }
        }
        best
    }

    /// Brute-force reference intersection (for tests).
    pub fn intersect_brute_force(&self, ray: &Ray, t_max: f32) -> Option<SphereHit> {
        let mut best: Option<SphereHit> = None;
        let mut best_t = t_max;
        for slot in 0..self.centers.len() {
            if let Some((t, pos, n)) = ray_sphere(ray, self.centers[slot], self.radius, best_t) {
                best_t = t;
                best = Some(SphereHit {
                    t,
                    prim: self.prim_index[slot],
                    position: pos,
                    normal: n,
                });
            }
        }
        best
    }
}

/// Ray/sphere intersection; returns `(t, position, normal)` of the nearest
/// hit with `1e-4 < t < t_max`.
#[inline]
fn ray_sphere(ray: &Ray, center: Vec3, radius: f32, t_max: f32) -> Option<(f32, Vec3, Vec3)> {
    let oc = ray.origin - center;
    let b = oc.dot(ray.dir);
    let c = oc.length_squared() - radius * radius;
    let disc = b * b - c;
    if disc < 0.0 {
        return None;
    }
    let sq = disc.sqrt();
    let mut t = -b - sq;
    if t <= 1e-4 {
        t = -b + sq;
        if t <= 1e-4 {
            return None;
        }
    }
    if t >= t_max {
        return None;
    }
    let pos = ray.at(t);
    let normal = (pos - center) / radius;
    Some((t, pos, normal))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ray(origin: Vec3, toward: Vec3) -> Ray {
        Ray {
            origin,
            dir: (toward - origin).normalized(),
        }
    }

    fn scatter(n: usize) -> Vec<Vec3> {
        let mut out = Vec::with_capacity(n);
        let mut s = 12345u64;
        for _ in 0..n {
            let mut f = || {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((s >> 33) as f64 / (1u64 << 31) as f64) as f32
            };
            out.push(Vec3::new(f() * 4.0 - 2.0, f() * 4.0 - 2.0, f() * 4.0 - 2.0));
        }
        out
    }

    #[test]
    fn empty_bvh_hits_nothing() {
        for bvh in [SphereBvh::build(&[], 0.1), SphereBvh::build_median(&[], 0.1)] {
            let mut steps = 0;
            assert!(bvh
                .intersect(&ray(Vec3::new(0.0, -5.0, 0.0), Vec3::ZERO), f32::MAX, &mut steps)
                .is_none());
        }
    }

    #[test]
    fn single_sphere_direct_hit() {
        let bvh = SphereBvh::build(&[Vec3::ZERO], 1.0);
        let r = ray(Vec3::new(0.0, -5.0, 0.0), Vec3::ZERO);
        let mut steps = 0;
        let hit = bvh.intersect(&r, f32::MAX, &mut steps).unwrap();
        assert!((hit.t - 4.0).abs() < 1e-4);
        assert_eq!(hit.prim, 0);
        assert!((hit.normal - Vec3::new(0.0, -1.0, 0.0)).length() < 1e-4);
    }

    #[test]
    fn miss_returns_none() {
        let bvh = SphereBvh::build(&[Vec3::ZERO], 0.5);
        let r = ray(Vec3::new(5.0, -5.0, 0.0), Vec3::new(5.0, 5.0, 0.0));
        let mut steps = 0;
        assert!(bvh.intersect(&r, f32::MAX, &mut steps).is_none());
    }

    #[test]
    fn nearest_of_two_spheres_wins() {
        let bvh = SphereBvh::build(&[Vec3::new(0.0, 2.0, 0.0), Vec3::new(0.0, -2.0, 0.0)], 0.5);
        let r = ray(Vec3::new(0.0, -5.0, 0.0), Vec3::ZERO);
        let mut steps = 0;
        let hit = bvh.intersect(&r, f32::MAX, &mut steps).unwrap();
        assert_eq!(hit.prim, 1, "nearer sphere must win");
    }

    #[test]
    fn hlbvh_agrees_with_brute_force() {
        let centers = scatter(500);
        let bvh = SphereBvh::build(&centers, 0.05);
        let mut disagreements = 0;
        for i in 0..200 {
            let theta = i as f32 * 0.1;
            let origin = Vec3::new(theta.cos() * 6.0, theta.sin() * 6.0, (i % 10) as f32 * 0.3 - 1.5);
            let r = ray(origin, Vec3::ZERO);
            let mut steps = 0;
            let a = bvh.intersect(&r, f32::MAX, &mut steps);
            let b = bvh.intersect_brute_force(&r, f32::MAX);
            match (a, b) {
                (None, None) => {}
                (Some(x), Some(y)) => {
                    if (x.t - y.t).abs() > 1e-3 {
                        disagreements += 1;
                    }
                }
                _ => disagreements += 1,
            }
        }
        assert_eq!(disagreements, 0);
    }

    #[test]
    fn hlbvh_and_median_find_the_same_hits() {
        let centers = scatter(2_000);
        let hlbvh = SphereBvh::build(&centers, 0.05);
        let median = SphereBvh::build_median(&centers, 0.05);
        for i in 0..300 {
            let theta = i as f32 * 0.07;
            let origin =
                Vec3::new(theta.cos() * 6.0, theta.sin() * 6.0, (i % 7) as f32 * 0.4 - 1.4);
            let r = ray(origin, Vec3::ZERO);
            let (mut s1, mut s2) = (0, 0);
            let a = hlbvh.intersect(&r, f32::MAX, &mut s1);
            let b = median.intersect(&r, f32::MAX, &mut s2);
            match (a, b) {
                (None, None) => {}
                (Some(x), Some(y)) => {
                    assert_eq!(x.t.to_bits(), y.t.to_bits(), "ray {i}");
                    assert_eq!(x.prim, y.prim, "ray {i}");
                }
                (a, b) => panic!("ray {i}: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn packet_traversal_matches_scalar_bitwise() {
        /// Every lane of the packet against a scalar traversal of its ray.
        fn check(bvh: &SphereBvh, rays: &[Ray]) {
            let bits = crate::testing::bits_nan_as_one;
            let p = RayPacket::from_rays(rays);
            let mut psteps = 0;
            let phits = bvh.intersect_packet(&p, f32::MAX, &mut psteps);
            for (l, r) in rays.iter().enumerate() {
                let mut s = 0;
                let scalar = bvh.intersect(r, f32::MAX, &mut s);
                match (phits[l], scalar) {
                    (None, None) => {}
                    (Some(a), Some(b)) => {
                        assert_eq!(bits(a.t), bits(b.t), "lane {l}");
                        assert_eq!(a.prim, b.prim, "lane {l}");
                        let (na, nb) = (a.normal, b.normal);
                        assert_eq!(
                            [na.x, na.y, na.z].map(bits),
                            [nb.x, nb.y, nb.z].map(bits),
                            "lane {l}"
                        );
                    }
                    (a, b) => panic!("lane {l}: {a:?} vs {b:?}"),
                }
            }
        }

        let centers = scatter(3_000);
        let bvh = SphereBvh::build(&centers, 0.06);
        for base in 0..40 {
            // 8 coherent rays: neighboring origins, common target.
            let rays: Vec<Ray> = (0..PACKET_WIDTH)
                .map(|l| {
                    let o = Vec3::new(
                        -6.0 + (base as f32) * 0.1,
                        -6.0 + (l as f32) * 0.01,
                        0.5,
                    );
                    ray(o, Vec3::ZERO)
                })
                .collect();
            check(&bvh, &rays);
        }

        // One leaf that every ray enters, so both traversals test the same
        // spheres in the same order: non-finite centres (a NaN discriminant
        // is not `< 0.0`, so it falls through every exit of `ray_sphere`)
        // in every position among two finite ones, and rays that start
        // outside, inside a sphere (the far root) and on its surface.
        let finite = [Vec3::new(0.3, 0.1, -0.2), Vec3::new(-0.6, 0.2, 0.4)];
        let hostile = [
            Vec3::new(f32::NAN, 0.0, 0.0),
            Vec3::new(0.0, f32::INFINITY, 0.0),
            Vec3::new(-0.4, f32::NEG_INFINITY, f32::NAN),
        ];
        let rays: Vec<Ray> = (0..PACKET_WIDTH)
            .map(|l| {
                let inside = finite[0] + Vec3::new(0.05 * l as f32, 0.0, 0.1);
                match l % 4 {
                    0 => ray(inside, finite[1]),
                    1 => ray(finite[1] + Vec3::new(0.5, 0.0, 0.0), finite[0]),
                    2 => ray(Vec3::new(0.0, -5.0, 0.01 * l as f32), finite[1]),
                    _ => ray(Vec3::new(0.1 * l as f32, -5.0, 0.0), finite[0]),
                }
            })
            .collect();
        for subset in 0..8usize {
            let mut centers = finite.to_vec();
            centers.extend((0..3).filter(|h| subset >> h & 1 == 1).map(|h| hostile[h]));
            for _ in 0..centers.len() {
                centers.rotate_left(1);
                let leaf = SphereBvh::build_median(&centers, 0.5);
                assert_eq!(leaf.nodes.len(), 1);
                check(&leaf, &rays);
            }
        }
    }

    #[test]
    fn partial_packet_pads_with_lane0() {
        let bvh = SphereBvh::build(&scatter(100), 0.1);
        let r = ray(Vec3::new(0.0, -5.0, 0.0), Vec3::ZERO);
        let p = RayPacket::from_rays(&[r, r, r]);
        assert_eq!(p.lanes, 3);
        let mut steps = 0;
        let hits = bvh.intersect_packet(&p, f32::MAX, &mut steps);
        // all 8 lanes carry lane 0's ray, so results agree
        for l in 1..PACKET_WIDTH {
            assert_eq!(hits[l].map(|h| h.prim), hits[0].map(|h| h.prim));
        }
    }

    #[test]
    fn t_max_prunes_hits() {
        let bvh = SphereBvh::build(&[Vec3::ZERO], 0.5);
        let r = ray(Vec3::new(0.0, -5.0, 0.0), Vec3::ZERO);
        let mut steps = 0;
        assert!(bvh.intersect(&r, 2.0, &mut steps).is_none());
        assert!(bvh.intersect(&r, 100.0, &mut steps).is_some());
    }

    #[test]
    fn median_build_ops_grow_superlinearly_but_modestly() {
        let a = SphereBvh::build_median(&scatter(1_000), 0.05);
        let b = SphereBvh::build_median(&scatter(8_000), 0.05);
        let ratio = b.build_ops() as f64 / a.build_ops() as f64;
        // N log N: 8x data -> between 8x and ~11x ops
        assert!(ratio > 7.5 && ratio < 13.0, "build ops ratio {ratio}");
    }

    #[test]
    fn hlbvh_build_ops_grow_linearly() {
        let a = SphereBvh::build(&scatter(1_000), 0.05);
        let b = SphereBvh::build(&scatter(8_000), 0.05);
        let ratio = b.build_ops() as f64 / a.build_ops() as f64;
        // O(N): 8x data -> ~8x ops (small constant drift from treelets)
        assert!(ratio > 6.0 && ratio < 10.5, "build ops ratio {ratio}");
    }

    #[test]
    fn traversal_is_sublinear_in_primitives() {
        let small = SphereBvh::build(&scatter(1_000), 0.02);
        let large = SphereBvh::build(&scatter(64_000), 0.02);
        let r = ray(Vec3::new(0.0, -6.0, 0.0), Vec3::ZERO);
        let mut steps_small = 0;
        let mut steps_large = 0;
        small.intersect(&r, f32::MAX, &mut steps_small);
        large.intersect(&r, f32::MAX, &mut steps_large);
        // 64x primitives must cost far less than 64x traversal steps
        assert!(
            (steps_large as f64) < (steps_small as f64) * 16.0,
            "steps {steps_small} -> {steps_large}"
        );
    }

    #[test]
    fn ray_from_inside_sphere_hits_far_side() {
        let bvh = SphereBvh::build(&[Vec3::ZERO], 1.0);
        let r = Ray {
            origin: Vec3::ZERO,
            dir: Vec3::new(0.0, 1.0, 0.0),
        };
        let mut steps = 0;
        let hit = bvh.intersect(&r, f32::MAX, &mut steps).unwrap();
        assert!((hit.t - 1.0).abs() < 1e-4);
    }

    #[test]
    fn parallel_median_build_is_byte_identical_to_serial() {
        // Serial (threshold never reached) vs maximally parallel (every
        // interior node forks): the flattened tree, the reordered
        // primitive arrays, and the op count must all match exactly.
        let centers = scatter(20_000);
        let serial = SphereBvh::build_median_impl(&centers, 0.05, usize::MAX);
        let parallel = SphereBvh::build_median_impl(&centers, 0.05, 1);
        assert_eq!(serial.nodes, parallel.nodes);
        assert_eq!(serial.centers, parallel.centers);
        assert_eq!(serial.prim_index, parallel.prim_index);
        assert_eq!(serial.build_ops, parallel.build_ops);
        // and the public entry point agrees with itself
        let public = SphereBvh::build_median(&centers, 0.05);
        assert_eq!(public.nodes, serial.nodes);
        assert_eq!(public.prim_index, serial.prim_index);
    }

    #[test]
    fn hlbvh_build_is_deterministic_across_thread_counts() {
        let centers = scatter(30_000);
        let wide = SphereBvh::build(&centers, 0.05);
        let narrow = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap()
            .install(|| SphereBvh::build(&centers, 0.05));
        assert_eq!(wide.nodes, narrow.nodes);
        assert_eq!(wide.centers, narrow.centers);
        assert_eq!(wide.prim_index, narrow.prim_index);
        assert_eq!(wide.build_ops, narrow.build_ops);
    }

    #[test]
    fn median_node_layout_is_exact_preorder() {
        // The node array is sized by subtree_node_count up front; nothing
        // is pushed, so the count must match the prediction exactly.
        for n in [1usize, 8, 9, 100, 1000] {
            let bvh = SphereBvh::build_median(&scatter(n), 0.05);
            assert_eq!(bvh.num_nodes(), subtree_node_count(n), "n={n}");
        }
    }

    #[test]
    fn hlbvh_preorder_invariants_hold() {
        // Every interior node's right child lies past its left subtree,
        // every leaf range is within the primitive arrays, and every
        // primitive is referenced exactly once.
        let centers = scatter(5_000);
        let bvh = SphereBvh::build(&centers, 0.05);
        let mut seen = vec![false; centers.len()];
        for (i, node) in bvh.nodes.iter().enumerate() {
            if node.count > 0 {
                let start = node.payload as usize;
                assert!(start + node.count as usize <= seen.len(), "leaf {i} range");
                for (slot, flag) in seen
                    .iter_mut()
                    .enumerate()
                    .skip(start)
                    .take(node.count as usize)
                {
                    assert!(!*flag, "slot {slot} referenced twice");
                    *flag = true;
                }
            } else {
                let right = node.payload as usize;
                assert!(right > i + 1 && right < bvh.nodes.len(), "node {i}");
            }
        }
        assert!(seen.into_iter().all(|s| s), "every primitive in a leaf");
    }

    #[test]
    fn morton_codes_interleave_correctly() {
        assert_eq!(morton3(0, 0, 0), 0);
        assert_eq!(morton3(1, 0, 0), 0b100);
        assert_eq!(morton3(0, 1, 0), 0b010);
        assert_eq!(morton3(0, 0, 1), 0b001);
        assert_eq!(morton3(1023, 1023, 1023), (1 << 30) - 1);
        // highest bit position discriminates x
        assert_eq!(morton_axis(29), 0);
        assert_eq!(morton_axis(28), 1);
        assert_eq!(morton_axis(27), 2);
    }

    #[test]
    fn radix_sort_sorts_and_is_stable() {
        let mut s = 99u64;
        let mut pairs: Vec<MortonPrim> = (0..50_000u32)
            .map(|i| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                MortonPrim {
                    // narrow key range forces duplicates (stability check)
                    code: ((s >> 40) as u32) & 0xffff,
                    prim: i,
                }
            })
            .collect();
        let mut reference = pairs.clone();
        radix_sort_morton(&mut pairs);
        reference.sort_by_key(|p| (p.code, p.prim)); // stable == by (code, insertion)
        assert_eq!(pairs, reference);
    }

    #[test]
    fn coincident_centers_do_not_break_build() {
        // All Morton codes equal: the treelet emitter must fall back to
        // median splits once the code bits are exhausted.
        let centers = vec![Vec3::ONE; 100];
        for bvh in [
            SphereBvh::build(&centers, 0.1),
            SphereBvh::build_median(&centers, 0.1),
        ] {
            let r = ray(Vec3::new(1.0, -5.0, 1.0), Vec3::ONE);
            let mut steps = 0;
            assert!(bvh.intersect(&r, f32::MAX, &mut steps).is_some());
        }
    }
}
