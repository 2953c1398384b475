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
//!   BVH, PBR-book recipe), in six passes: centroid bounds on lane
//!   accumulators; 30-bit Morton codes with each chunk's histogram of the
//!   9-bit treelet prefix, in one pass; one stable scatter of `(code,
//!   index)` keys by that prefix; then per treelet, while its run is in
//!   cache, an LSD sort of the 21 bits below the prefix, the gather of
//!   centres into Morton order, and its root box and node count; a
//!   sweep-SAH upper tree over the treelet roots, laid out first; and each
//!   treelet emitted from Morton-bit splits straight into its final node
//!   slots (parallel across treelets). Build cost is linear in N up to the
//!   (tiny) upper tree, which is why million-particle frames rebuild in
//!   milliseconds.
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
//! bit-identical to scalar traversal). The slab test and the sphere test
//! are both part of the one `#[inline(always)]` traversal body, so under
//! runtime-detected AVX2 the whole walk runs on `ymm` registers.
//! Packets are generated straight into their lanes from the camera's
//! per-frame [`RayGenerator`] ([`RayPacket::generate`]).

use crate::camera::{Ray, RayGenerator};
use eth_data::{Aabb, Vec3};
use std::mem::MaybeUninit;

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
// HLBVH build: Morton keys, one prefix scatter, treelets sorted and emitted
// in cache, sweep-SAH upper tree.
// ---------------------------------------------------------------------------

/// Bits of Morton code (10 per axis).
const MORTON_BITS: u32 = 30;
/// Treelets group primitives sharing this many high Morton bits: 9 bits
/// = up to 512 treelets = an 8×8×8 grid over the centroid bounds. Plenty
/// of parallel grain, and few enough roots that the sweep-SAH upper tree
/// costs ~1 ms.
const TREELET_PREFIX_BITS: u32 = 9;
const TREELETS: usize = 1 << TREELET_PREFIX_BITS;
/// Shift that leaves a code's treelet prefix.
const PREFIX_SHIFT: u32 = MORTON_BITS - TREELET_PREFIX_BITS;
/// Passes `build_ops` charges the sort: the three 10-bit digits of a full
/// LSD sort of 30-bit codes, which is what the builder ran when the counter
/// was calibrated. The sort now runs one prefix scatter and at most three
/// in-cache digit passes per treelet; the counter keeps its meaning.
const SORT_PASSES: u64 = 3;
/// Runs this short are sorted by comparison instead of by digits.
const SHORT_RUN: usize = 32;
/// Runs this long are sorted by two wide digits instead of three narrow.
const LONG_RUN: usize = 1536;
/// Keys are computed this many at a time (a loop with no histogram in
/// it vectorizes), then counted.
const KEY_BLOCK: usize = 64;

/// A primitive's sort key: its Morton code in the high half, its input
/// index in the low half. Keys are unique, so every correct sort of them
/// is the stable sort by code.
#[inline]
fn sort_key(code: u32, prim: usize) -> u64 {
    (code as u64) << 32 | prim as u64
}

#[inline]
fn key_code(key: u64) -> u32 {
    (key >> 32) as u32
}

#[inline]
fn key_prim(key: u64) -> u32 {
    key as u32
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

/// Morton code of `p`'s cell in the 1024³ grid over the centroid bounds
/// (`min`, `scale`): [`morton3`] of the cell `(v.max(0.0) as u32).min(1023)`
/// picks on each axis. The clamp is two comparisons before the conversion —
/// NaN and negatives to 0, from 1023 up to 1023 — so the conversion never
/// sees an out-of-range value and the loop over centres vectorizes.
#[inline]
fn morton_code(p: Vec3, min: Vec3, scale: Vec3) -> u32 {
    let cell = |v: f32| {
        let v = if v > 0.0 { v } else { 0.0 };
        (if v < 1023.0 { v } else { 1023.0 }) as i32 as u32
    };
    morton3(
        cell((p.x - min.x) * scale.x),
        cell((p.y - min.y) * scale.y),
        cell((p.z - min.z) * scale.z),
    )
}

/// The box `expand_point` over every centre would give, on 24 lane
/// accumulators: eight centres are 24 consecutive floats, so lane `j` only
/// ever sees component `j % 3`. `v < lo` is `lo.min(v)` here, NaN included
/// (the accumulators start infinite and never become NaN); min and max do
/// not depend on the order their operands arrive in, so the fold at the
/// end gives the serial loop's box — up to which zero a `-0.0`/`+0.0` tie
/// keeps, which neither a Morton cell nor a padded box can see.
fn centroid_bounds(centers: &[Vec3]) -> Aabb {
    const LANES: usize = 24;
    // SAFETY: `Vec3` is `#[repr(C)]` over three `f32`s, so `n` centres are
    // `3n` consecutive floats.
    let flat: &[f32] =
        unsafe { std::slice::from_raw_parts(centers.as_ptr().cast::<f32>(), centers.len() * 3) };
    let mut lo = [f32::INFINITY; LANES];
    let mut hi = [f32::NEG_INFINITY; LANES];
    let blocks = flat.chunks_exact(LANES);
    let rest = centers.len() - blocks.remainder().len() / 3;
    for block in blocks {
        for j in 0..LANES {
            let v = block[j];
            lo[j] = if v < lo[j] { v } else { lo[j] };
            hi[j] = if v > hi[j] { v } else { hi[j] };
        }
    }
    let mut bounds = Aabb::empty();
    for j in (0..LANES).step_by(3) {
        let lane = Aabb::new(
            Vec3::new(lo[j], lo[j + 1], lo[j + 2]),
            Vec3::new(hi[j], hi[j + 1], hi[j + 2]),
        );
        bounds.expand_box(&lane);
    }
    for &c in &centers[rest..] {
        bounds.expand_point(c);
    }
    bounds
}

/// Wrapper making a raw output pointer shareable across the scatter's
/// rayon tasks. Safety rests on the offset tables: every (chunk, bucket)
/// pair owns a disjoint destination range, so no two tasks write the same
/// slot.
struct ScatterOut<T>(*mut T);
// SAFETY: the one field is a pointer the tasks only write `T`s through,
// each to slots no other task touches; moving `T`s to other threads needs
// `T: Send`, and nothing is read through it while they run.
unsafe impl<T: Send> Send for ScatterOut<T> {}
// SAFETY: as above — a shared `&ScatterOut` only lets a task write its own
// disjoint slots.
unsafe impl<T: Send> Sync for ScatterOut<T> {}

/// Sort one treelet's keys by code, stably (all share the treelet prefix):
/// LSD over the 21 code bits below it, `scratch` as the second buffer —
/// three 7-bit digits, or for a long run two wide ones (fewer passes over
/// it; a 2 Ki-entry histogram costs less than a pass only when the run is
/// long). A digit every key shares would move nothing and is skipped, so a
/// run of coincident centres costs only its counting passes.
fn sort_run(run: &mut [u64], scratch: &mut Vec<u64>) {
    if run.len() <= SHORT_RUN {
        run.sort_unstable();
        return;
    }
    let digits: &[(u32, u32)] = if run.len() < LONG_RUN {
        &[(0, 7), (7, 7), (14, 7)]
    } else {
        &[(0, 11), (11, 10)]
    };
    if scratch.len() < run.len() {
        scratch.resize(run.len(), 0);
    }
    let tmp = &mut scratch[..run.len()];
    let mut in_run = true;
    let mut histogram = [0u32; 1 << 11];
    for &(shift, bits) in digits {
        let at = &mut histogram[..1 << bits];
        let digit = |key: u64| (key >> (32 + shift)) as usize & ((1 << bits) - 1);
        let (src, dst) = if in_run {
            (&*run, &mut *tmp)
        } else {
            (&*tmp, &mut *run)
        };
        at.fill(0);
        for &key in src {
            at[digit(key)] += 1;
        }
        if at.contains(&(src.len() as u32)) {
            continue;
        }
        let mut start = 0;
        for slot in at.iter_mut() {
            (*slot, start) = (start, start + *slot);
        }
        for &key in src {
            let d = digit(key);
            dst[at[d] as usize] = key;
            at[d] += 1;
        }
        in_run = !in_run;
    }
    if !in_run {
        run.copy_from_slice(tmp);
    }
}

/// Where the treelet emitter cuts the sorted `codes[start..end]`, entered at
/// Morton bit `bit`: `None` for a leaf, else the split index and the bit
/// that split it — the first position where that bit flips from 0 to 1,
/// skipping bits that do not discriminate the range (no node is emitted
/// for those), or the median once the bits are exhausted (coincident
/// centres; the returned bit is then negative).
#[inline]
fn cut(codes: &[u32], start: usize, end: usize, mut bit: i32) -> Option<(usize, i32)> {
    if end - start <= LEAF_SIZE {
        return None;
    }
    while bit >= 0 {
        let mask = 1u32 << bit;
        if codes[start] & mask != codes[end - 1] & mask {
            // The codes share every bit above `bit`, so it is sorted too.
            let mid = start + codes[start..end].partition_point(|&c| c & mask == 0);
            return Some((mid, bit));
        }
        bit -= 1;
    }
    Some((start + (end - start) / 2, bit))
}

/// Nodes and build ops the emitter will spend on `codes[start..end]`:
/// [`TreeletEmitter::emit`]'s recursion without the bounds.
fn treelet_shape(codes: &[u32], start: usize, end: usize, bit: i32) -> (usize, u64) {
    match cut(codes, start, end, bit) {
        None => (1, (end - start) as u64),
        Some((mid, bit)) => {
            let (ln, lo) = treelet_shape(codes, start, mid, bit - 1);
            let (rn, ro) = treelet_shape(codes, mid, end, bit - 1);
            (1 + ln + rn, 1 + lo + ro)
        }
    }
}

/// One treelet's place in the build: its primitives' range in the
/// Morton-ordered arrays, and what [`treelet_shape`] and its centres say.
struct TreeletPlan {
    start: usize,
    len: usize,
    bounds: Aabb,
    nodes: usize,
    ops: u64,
}

/// One treelet on its way into its final node slots: its Morton-sorted
/// codes and its centres gathered in the same order.
struct TreeletEmitter<'a> {
    codes: &'a [u32],
    centers: &'a [Vec3],
    radius: f32,
    /// Primitive slot of `codes[0]`.
    prim_base: usize,
    /// Absolute node index of `out[0]`.
    base: usize,
    /// Exactly the treelet's slots, as [`treelet_shape`] counted them.
    out: &'a mut [MaybeUninit<Node>],
    /// Next slot to write.
    next: usize,
}

impl TreeletEmitter<'_> {
    /// Emit the subtree over `codes[start..end]`, entered at Morton bit
    /// `bit`, pre-order from `out[next]`. Bounds are built bottom-up
    /// (leaves scan their ≤ LEAF_SIZE primitives, interiors union their
    /// children) and every slot is written once, after its children.
    /// Returns the subtree's bounds.
    fn emit(&mut self, start: usize, end: usize, bit: i32) -> Aabb {
        let idx = self.next;
        self.next += 1;
        let Some((mid, bit)) = cut(self.codes, start, end, bit) else {
            // `p < lo` is `lo.min(p)` on a box that starts empty (no NaN
            // ever enters it), up to the sign of a zero, which padding
            // erases; it is one instruction where `f32::min` is three.
            let mut lo = Vec3::splat(f32::INFINITY);
            let mut hi = Vec3::splat(f32::NEG_INFINITY);
            for &p in &self.centers[start..end] {
                lo = Vec3::new(
                    if p.x < lo.x { p.x } else { lo.x },
                    if p.y < lo.y { p.y } else { lo.y },
                    if p.z < lo.z { p.z } else { lo.z },
                );
                hi = Vec3::new(
                    if p.x > hi.x { p.x } else { hi.x },
                    if p.y > hi.y { p.y } else { hi.y },
                    if p.z > hi.z { p.z } else { hi.z },
                );
            }
            let bounds = Aabb::new(lo, hi).padded(self.radius);
            self.out[idx].write(Node {
                bounds,
                payload: (self.prim_base + start) as u32,
                count: (end - start) as u16,
                axis: 0,
            });
            return bounds;
        };
        let left = self.emit(start, mid, bit - 1);
        let right_idx = self.next;
        let right = self.emit(mid, end, bit - 1);
        let bounds = left.union(&right);
        self.out[idx].write(Node {
            bounds,
            payload: (self.base + right_idx) as u32,
            count: 0,
            axis: if bit < 0 { 0 } else { morton_axis(bit) },
        });
        bounds
    }
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
/// counts are ≤ 512, so the sweep is negligible next to the linear phase.
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

/// Lay the upper tree out in pre-order from node `at`: write its interior
/// nodes into `nodes` and each treelet's first node index into `bases`
/// (a treelet occupies `plans[t].nodes` slots). Returns the index past the
/// subtree.
fn place_upper(
    upper: &Upper,
    plans: &[TreeletPlan],
    at: usize,
    nodes: &mut [MaybeUninit<Node>],
    bases: &mut [usize],
) -> usize {
    match upper {
        Upper::Leaf(t) => {
            bases[*t] = at;
            at + plans[*t].nodes
        }
        Upper::Interior {
            bounds,
            axis,
            left,
            right,
        } => {
            let right_at = place_upper(left, plans, at + 1, nodes, bases);
            let end = place_upper(right, plans, right_at, nodes, bases);
            nodes[at].write(Node {
                bounds: *bounds,
                payload: right_at as u32,
                count: 0,
                axis: *axis,
            });
            end
        }
    }
}

// ---------------------------------------------------------------------------
// Ray packets: 8 coherent rays on explicit SoA lanes.
// ---------------------------------------------------------------------------

/// Lanes per ray packet.
pub const PACKET_WIDTH: usize = 8;

/// Eight rays in structure-of-arrays form. Unfilled lanes repeat the last
/// filled one, so every lane always holds a real ray; callers read back
/// only the first [`RayPacket::lanes`] results.
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
    /// Pack up to 8 rays; lanes beyond `rays.len()` repeat the last.
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
            p.set_lane(l, rays[l.min(rays.len() - 1)]);
        }
        p
    }

    /// The rays `rays` casts through the NDC points `ndc(0..lanes)`,
    /// generated straight into the lanes (no `Ray` list, no copy); lanes
    /// beyond `lanes` repeat the last point, as [`RayPacket::from_rays`]
    /// pads.
    #[inline]
    pub fn generate(
        rays: &RayGenerator,
        lanes: usize,
        ndc: impl Fn(usize) -> (f32, f32),
    ) -> RayPacket {
        assert!((1..=PACKET_WIDTH).contains(&lanes));
        let o = rays.origin();
        let mut p = RayPacket {
            ox: [o.x; PACKET_WIDTH],
            oy: [o.y; PACKET_WIDTH],
            oz: [o.z; PACKET_WIDTH],
            dx: [0.0; PACKET_WIDTH],
            dy: [0.0; PACKET_WIDTH],
            dz: [0.0; PACKET_WIDTH],
            ix: [0.0; PACKET_WIDTH],
            iy: [0.0; PACKET_WIDTH],
            iz: [0.0; PACKET_WIDTH],
            lanes,
        };
        for l in 0..PACKET_WIDTH {
            let (x, y) = ndc(l.min(lanes - 1));
            p.set_dir(l, rays.dir(x, y));
        }
        p
    }

    #[inline]
    fn set_lane(&mut self, l: usize, ray: Ray) {
        self.ox[l] = ray.origin.x;
        self.oy[l] = ray.origin.y;
        self.oz[l] = ray.origin.z;
        self.set_dir(l, ray.dir);
    }

    /// Lane `l`'s direction and its reciprocal ([`Ray::inv_dir`]).
    #[inline]
    fn set_dir(&mut self, l: usize, dir: Vec3) {
        self.dx[l] = dir.x;
        self.dy[l] = dir.y;
        self.dz[l] = dir.z;
        self.ix[l] = 1.0 / dir.x;
        self.iy[l] = 1.0 / dir.y;
        self.iz[l] = 1.0 / dir.z;
    }

    /// Lane `l`'s direction.
    #[inline]
    pub fn dir(&self, l: usize) -> Vec3 {
        Vec3::new(self.dx[l], self.dy[l], self.dz[l])
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

/// Slab-test all 8 lanes against `b`: true if any lane's interval
/// `[1e-4, best_t(lane)]` survives — `Aabb::ray_intersect`'s max/min per
/// lane, with no early exit and no call, so it compiles into the traversal
/// body under whatever features that body was compiled with. Each
/// `f32::max`/`min` is a comparison and a select, chosen so NaN lanes come
/// out as they do through those functions: `t0` starts at 1e-4 and is
/// never NaN, so `n > t0` takes `n` exactly when `t0.max(n)` does; `t1`
/// starts at the lane's best `t`, which a NaN hit can have made NaN, and
/// `t1.min(f)` takes `f` when `t1` is NaN, so the select does too.
#[inline(always)]
fn packet_enters(p: &RayPacket, b: &Aabb, best_t: &[f32; PACKET_WIDTH]) -> bool {
    let mut t0 = [1e-4f32; PACKET_WIDTH];
    let mut t1 = *best_t;
    let slabs = [
        (&p.ox, &p.ix, b.min.x, b.max.x),
        (&p.oy, &p.iy, b.min.y, b.max.y),
        (&p.oz, &p.iz, b.min.z, b.max.z),
    ];
    for (o, inv, lo, hi) in slabs {
        for l in 0..PACKET_WIDTH {
            let near = (lo - o[l]) * inv[l];
            let far = (hi - o[l]) * inv[l];
            let swap = near > far;
            let n = if swap { far } else { near };
            let f = if swap { near } else { far };
            t0[l] = if n > t0[l] { n } else { t0[l] };
            let take = f < t1[l] || t1[l].is_nan();
            t1[l] = if take { f } else { t1[l] };
        }
    }
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
    /// deterministic for any thread count (the Morton order is a stable
    /// sort, treelets build independently, and the upper SAH sweep is
    /// ordered). Traversal semantics are identical to the median-split
    /// baseline — for any ray, the nearest hit is the same sphere.
    ///
    /// Six passes, each closed by a flight-recorder instant named after
    /// it (`bvh_bounds`, `bvh_keys`, `bvh_scatter`, `bvh_treelets`,
    /// `bvh_upper`, `bvh_emit`) so a trace shows where a build went.
    pub fn build(centers: &[Vec3], radius: f32) -> SphereBvh {
        use rayon::prelude::*;
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

        // 1. Centroid bounds → quantization scale.
        let cb = centroid_bounds(centers);
        let extent = cb.extent();
        let scale = Vec3::new(
            if extent.x > 0.0 { 1024.0 / extent.x } else { 0.0 },
            if extent.y > 0.0 { 1024.0 / extent.y } else { 0.0 },
            if extent.z > 0.0 { 1024.0 / extent.z } else { 0.0 },
        );
        eth_obs::instant("bvh_bounds");

        // 2. Morton codes and, in the same pass, each chunk's histogram of
        //    treelet prefixes. One chunk per worker: the chunking decides
        //    only who writes which slot, never the order.
        let chunk = n.div_ceil(rayon::current_num_threads().max(1)).max(4096);
        let mut codes: Vec<u32> = vec![0; n];
        let histograms: Vec<[u32; TREELETS]> = codes
            .par_chunks_mut(chunk)
            .enumerate()
            .map(|(ci, ks)| {
                // Four interleaved counters per prefix: neighbouring
                // centres mostly share a prefix, and one counter would
                // make every increment wait for the last.
                let mut counts = [[0u32; TREELETS]; 4];
                let cs = centers[ci * chunk..].chunks(KEY_BLOCK);
                for (ks, cs) in ks.chunks_mut(KEY_BLOCK).zip(cs) {
                    for (k, &c) in ks.iter_mut().zip(cs) {
                        *k = morton_code(c, cb.min, scale);
                    }
                    for (i, &k) in ks.iter().enumerate() {
                        counts[i % 4][(k >> PREFIX_SHIFT) as usize] += 1;
                    }
                }
                std::array::from_fn(|b| counts.iter().map(|count| count[b]).sum())
            })
            .collect();
        eth_obs::instant("bvh_keys");

        // 3. One stable scatter by prefix: chunk c's keys of treelet b land
        //    after every earlier chunk's, so each treelet's run is in input
        //    order. Treelets are the non-empty prefixes, in prefix order.
        let mut cursors = histograms;
        let mut runs: Vec<(usize, usize)> = Vec::new();
        let mut base = 0u32;
        for b in 0..TREELETS {
            let start = base;
            for cursor in cursors.iter_mut() {
                (cursor[b], base) = (base, base + cursor[b]);
            }
            if base > start {
                runs.push((start as usize, (base - start) as usize));
            }
        }
        let mut keys: Vec<u64> = vec![0; n];
        let out = ScatterOut(keys.as_mut_ptr());
        codes
            .par_chunks(chunk)
            .zip(cursors.into_par_iter())
            .enumerate()
            .for_each(|(ci, (ks, mut cursor))| {
                let out = &out;
                for (i, &code) in ks.iter().enumerate() {
                    let b = (code >> PREFIX_SHIFT) as usize;
                    let key = sort_key(code, ci * chunk + i);
                    // SAFETY: `cursor[b]` walks the disjoint range reserved
                    // for this (chunk, treelet) pair by the prefix sums,
                    // inside `keys`' `n` slots.
                    unsafe { out.0.add(cursor[b] as usize).write(key) };
                    cursor[b] += 1;
                }
            });
        ops += SORT_PASSES * n as u64;
        eth_obs::instant("bvh_scatter");

        // 4. Per treelet, while its run is in cache: sort it, gather its
        //    centres, input indices and codes into Morton order (the single
        //    random-access read of the build), and take its root bounds
        //    and node count. The root of a treelet is the union of its
        //    padded leaves, which is the padded box of all its centres:
        //    padding subtracts or adds the same radius, which is monotone.
        let mut sorted_centers: Vec<Vec3> = Vec::with_capacity(n);
        let mut prim_index: Vec<u32> = vec![0; n];
        let prefix_bit = PREFIX_SHIFT as i32 - 1;
        let plans: Vec<TreeletPlan> = {
            let mut keys_left = keys.as_mut_slice();
            let mut codes_left = codes.as_mut_slice();
            let mut centers_left = &mut sorted_centers.spare_capacity_mut()[..n];
            let mut prims_left = prim_index.as_mut_slice();
            let mut work = Vec::with_capacity(runs.len());
            for &(start, len) in &runs {
                let (k, kr) = std::mem::take(&mut keys_left).split_at_mut(len);
                let (o, or) = std::mem::take(&mut codes_left).split_at_mut(len);
                let (c, cr) = std::mem::take(&mut centers_left).split_at_mut(len);
                let (p, pr) = std::mem::take(&mut prims_left).split_at_mut(len);
                (keys_left, codes_left, centers_left, prims_left) = (kr, or, cr, pr);
                work.push((start, k, o, c, p));
            }
            work.into_par_iter()
                .map_init(Vec::new, |scratch, (start, run, out_k, out_c, out_p)| {
                    sort_run(run, scratch);
                    let outs = out_k.iter_mut().zip(out_c.iter_mut()).zip(out_p);
                    for (&key, ((code, slot), prim)) in run.iter().zip(outs) {
                        (*code, *prim) = (key_code(key), key_prim(key));
                        slot.write(centers[*prim as usize]);
                    }
                    // SAFETY: the loop above wrote every slot of `out_c`.
                    let gathered = unsafe { &*(out_c as *mut _ as *const [Vec3]) };
                    let bounds = centroid_bounds(gathered);
                    let (nodes, ops) = treelet_shape(out_k, 0, run.len(), prefix_bit);
                    TreeletPlan {
                        start,
                        len: run.len(),
                        bounds: bounds.padded(radius),
                        nodes,
                        ops,
                    }
                })
                .collect()
        };
        ops += plans.iter().map(|plan| plan.ops).sum::<u64>();
        // SAFETY: the treelet runs partition `0..n`, and each wrote every
        // slot of its range above.
        unsafe { sorted_centers.set_len(n) };
        drop(keys);
        eth_obs::instant("bvh_treelets");

        // 5. Sweep-SAH upper tree over the treelet roots, laid out first:
        //    its interior nodes are written, and every treelet learns where
        //    its nodes go.
        let mut items: Vec<(Aabb, usize)> = plans
            .iter()
            .enumerate()
            .map(|(t, plan)| (plan.bounds, t))
            .collect();
        let upper = build_upper_sah(&mut items);
        ops += plans.len() as u64;
        let mut bases = vec![0; plans.len()];
        let total = plans.iter().map(|p| p.nodes).sum::<usize>() + plans.len() - 1;
        let mut nodes: Vec<Node> = Vec::with_capacity(total);
        let slots = &mut nodes.spare_capacity_mut()[..total];
        assert_eq!(place_upper(&upper, &plans, 0, slots, &mut bases), total);
        eth_obs::instant("bvh_upper");

        // 6. Every treelet emits straight into its own slots, in parallel.
        let mut order: Vec<usize> = (0..plans.len()).collect();
        order.sort_by_key(|&t| bases[t]);
        let mut work = Vec::with_capacity(plans.len());
        let mut rest = slots;
        let mut at = 0;
        for t in order {
            let (_interiors, tail) = std::mem::take(&mut rest).split_at_mut(bases[t] - at);
            let (own, tail) = tail.split_at_mut(plans[t].nodes);
            (rest, at) = (tail, bases[t] + plans[t].nodes);
            work.push((t, own));
        }
        work.into_par_iter().for_each(|(t, own)| {
            let plan = &plans[t];
            let range = plan.start..plan.start + plan.len;
            let mut treelet = TreeletEmitter {
                codes: &codes[range.clone()],
                centers: &sorted_centers[range],
                radius,
                prim_base: plan.start,
                base: bases[t],
                out: own,
                next: 0,
            };
            treelet.emit(0, plan.len, prefix_bit);
            assert_eq!(
                treelet.next, plan.nodes,
                "treelet {t} emits the nodes it counted"
            );
        });
        // SAFETY: `place_upper` wrote the upper interiors and each treelet
        // wrote all of its slots (asserted); together they are `0..total`.
        unsafe { nodes.set_len(total) };
        eth_obs::instant("bvh_emit");

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
            if !packet_enters(p, &node.bounds, &best_t) {
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

/// The kernels the build and the traversal replaced, kept as the
/// specification their replacements are tested against bit for bit: the
/// nine-pass HLBVH build (three-pass LSD radix sort of `(code, prim)`
/// pairs, gather, per-treelet node `Vec`s, flatten) and the out-of-line
/// packet slab test.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    #[derive(Debug, Clone, Copy, Default, PartialEq)]
    pub(super) struct MortonPrim {
        pub(super) code: u32,
        pub(super) prim: u32,
    }

    const RADIX_BITS: u32 = 10;
    const RADIX_BUCKETS: usize = 1 << RADIX_BITS;
    const RADIX_PASSES: u32 = MORTON_BITS / RADIX_BITS;
    const RADIX_CHUNKS: usize = 64;

    fn quantize(p: Vec3, min: Vec3, scale: Vec3) -> (u32, u32, u32) {
        let q = |v: f32| (v.max(0.0) as u32).min(1023);
        (
            q((p.x - min.x) * scale.x),
            q((p.y - min.y) * scale.y),
            q((p.z - min.z) * scale.z),
        )
    }

    /// Stable LSD radix sort of `pairs` by their 30-bit code: 3 passes × 10
    /// bits, parallel per-chunk histograms and a parallel scatter into
    /// per-(chunk, digit) disjoint ranges.
    pub(super) fn radix_sort_morton(pairs: &mut Vec<MortonPrim>) {
        use rayon::prelude::*;
        let n = pairs.len();
        if n < 2 {
            return;
        }
        let chunk = n.div_ceil(RADIX_CHUNKS);
        let mut scratch = vec![MortonPrim::default(); n];
        for pass in 0..RADIX_PASSES {
            let shift = pass * RADIX_BITS;
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
            let mut starts = vec![0u32; histos.len() * RADIX_BUCKETS];
            let mut base = 0u32;
            for d in 0..RADIX_BUCKETS {
                for (c, h) in histos.iter().enumerate() {
                    starts[c * RADIX_BUCKETS + d] = base;
                    base += h[d];
                }
            }
            let out = ScatterOut(scratch.as_mut_ptr());
            pairs
                .par_chunks(chunk)
                .zip(starts.par_chunks(RADIX_BUCKETS))
                .for_each(|(ps, chunk_starts)| {
                    let out = &out;
                    let mut cursor = chunk_starts.to_vec();
                    for &p in ps {
                        let d = ((p.code >> shift) as usize) & (RADIX_BUCKETS - 1);
                        // SAFETY: as in the build's scatter.
                        unsafe { out.0.add(cursor[d] as usize).write(p) };
                        cursor[d] += 1;
                    }
                });
            std::mem::swap(pairs, &mut scratch);
        }
    }

    struct Treelet {
        nodes: Vec<Node>,
        ops: u64,
    }

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
        let mid = if bit < 0 {
            start + count / 2
        } else {
            let mask = 1u32 << bit;
            if codes[start] & mask == codes[end - 1] & mask {
                return emit_treelet(codes, sorted_centers, radius, start, end, bit - 1, out);
            }
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
        node.payload = right as u32;
        idx
    }

    fn upper_node_count(upper: &Upper, treelets: &[Treelet]) -> usize {
        match upper {
            Upper::Leaf(t) => treelets[*t].nodes.len(),
            Upper::Interior { left, right, .. } => {
                1 + upper_node_count(left, treelets) + upper_node_count(right, treelets)
            }
        }
    }

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

    /// `SphereBvh::build` as it was: bounds, Morton pairs, radix sort,
    /// gather, treelets into their own `Vec`s, upper tree, flatten.
    pub(crate) fn build(centers: &[Vec3], radius: f32) -> SphereBvh {
        use rayon::prelude::*;
        assert!(radius > 0.0, "sphere radius must be positive");
        let n = centers.len();
        if n == 0 {
            return SphereBvh::empty(radius);
        }
        let mut ops = n as u64;
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
        radix_sort_morton(&mut pairs);
        ops += RADIX_PASSES as u64 * n as u64;
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
        let mut items: Vec<(Aabb, usize)> = treelets
            .iter()
            .enumerate()
            .map(|(i, t)| (t.nodes[0].bounds, i))
            .collect();
        let upper = build_upper_sah(&mut items);
        ops += treelets.len() as u64;
        let mut nodes = Vec::with_capacity(upper_node_count(&upper, &treelets));
        flatten_upper(&upper, &treelets, &mut nodes);
        SphereBvh {
            nodes,
            centers: sorted_centers,
            prim_index,
            radius,
            build_ops: ops,
        }
    }

    /// The packet slab test as a separate `#[inline]` function, which the
    /// AVX2 traversal called out of line.
    pub(super) fn packet_hits_aabb(p: &RayPacket, b: &Aabb, best_t: &[f32; PACKET_WIDTH]) -> bool {
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
        // One treelet's run: a shared prefix, a narrow range below it
        // (duplicates, so stability shows), at lengths on both sides of
        // the comparison-sort cut; and runs whose digits are all shared.
        let mut s = 99u64;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 40) as u32
        };
        let prefix = 0x15 << PREFIX_SHIFT;
        let mut scratch = Vec::new();
        let lens = [
            0,
            1,
            9,
            SHORT_RUN,
            SHORT_RUN + 1,
            1_000,
            LONG_RUN - 1,
            LONG_RUN,
            50_000,
        ];
        for len in lens {
            // every digit varies; the narrow digits' low two; one narrow
            // digit; one wide digit; none
            for below in [0x1f_ffff, 0x3fff, 0x7f << 7, 0x3ff << 11, 0] {
                let mut run: Vec<u64> = (0..len)
                    .map(|i| sort_key(prefix | (next() & below), 7 * i))
                    .collect();
                let mut want = run.clone();
                want.sort_by_key(|&k| key_code(k)); // stable == by (code, input order)
                sort_run(&mut run, &mut scratch);
                assert_eq!(run, want, "{len} keys below {below:#x}");
            }
        }
    }

    /// The scattered and the clustered clouds the reference tests build:
    /// `kind` 0 uniform, 1 duplicate-heavy (a coarse lattice, so most
    /// centres repeat exactly), 2 all coincident, 3 hostile (a quarter of
    /// the centres NaN or ±∞ in one coordinate), 4 clustered (halos a few
    /// treelet cells wide in a thin background, as HACC is).
    fn cloud(kind: u32, n: usize, seed: u64) -> Vec<Vec3> {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let halos: Vec<Vec3> = (0..6)
            .map(|_| {
                Vec3::new(
                    rng.random_range(0.0f32..1.0),
                    rng.random_range(0.0f32..1.0),
                    0.5,
                )
            })
            .collect();
        (0..n)
            .map(|i| {
                let mut u = || rng.random_range(-1.0f32..1.0);
                let p = Vec3::new(u(), u(), u());
                match kind {
                    0 => p,
                    1 => Vec3::new((p.x * 3.0).round(), (p.y * 2.0).round(), 0.25),
                    2 => Vec3::new(0.5, -0.25, 1e-3),
                    3 => match i % 8 {
                        1 => Vec3::new(f32::NAN, p.y, p.z),
                        3 => Vec3::new(p.x, f32::INFINITY, p.z),
                        5 => Vec3::new(p.x, p.y, f32::NEG_INFINITY),
                        _ => p,
                    },
                    _ if i % 4 == 0 => p,
                    _ => halos[i % halos.len()] + p * 0.01,
                }
            })
            .collect()
    }

    /// Everything a tree is made of, as bits (a NaN centre is kept, and
    /// compared, as the bits it has).
    type TreeBits = (Vec<([u32; 6], u32, u16, u8)>, Vec<[u32; 3]>, Vec<u32>, u64);

    fn tree_bits(bvh: &SphereBvh) -> TreeBits {
        let bits = |v: Vec3| [v.x, v.y, v.z].map(f32::to_bits);
        let nodes = bvh.nodes.iter().map(|n| {
            let [a, b, c] = bits(n.bounds.min);
            let [d, e, f] = bits(n.bounds.max);
            ([a, b, c, d, e, f], n.payload, n.count, n.axis)
        });
        (
            nodes.collect(),
            bvh.centers.iter().map(|&c| bits(c)).collect(),
            bvh.prim_index.clone(),
            bvh.build_ops,
        )
    }

    /// `build` against the parent's build, node for node, at 1 and 3
    /// threads, on every cloud kind at sizes on both sides of a leaf, a
    /// short run, a chunk and a treelet cell.
    #[test]
    fn build_matches_reference_node_for_node() {
        let sizes = [
            0usize, 1, 7, 8, 9, 16, 17, 33, 100, 513, 4_097, 10_000, 100_000,
        ];
        for kind in 0..5 {
            for &n in &sizes {
                let centers = cloud(kind, n, 3 + n as u64);
                let radius = if kind == 1 { 0.3 } else { 0.01 };
                let want = tree_bits(&reference::build(&centers, radius));
                for threads in [1, 3] {
                    let pool = rayon::ThreadPoolBuilder::new()
                        .num_threads(threads)
                        .build()
                        .expect("the pool builder cannot fail");
                    let got = tree_bits(&pool.install(|| SphereBvh::build(&centers, radius)));
                    assert!(got == want, "kind {kind}, {n} centres, {threads} threads");
                }
            }
        }
    }

    /// A slab-test case: a box, eight rays and their best `t`s, built to
    /// hit every NaN path — directions with ±0 components (an infinite
    /// reciprocal), origins exactly on a slab plane (`0 · ∞` is NaN),
    /// NaN and infinite best `t`s, empty, flat, infinite and NaN boxes.
    fn slab_case(seed: u64) -> (RayPacket, Aabb, [f32; PACKET_WIDTH]) {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut u = |r: f32| rng.random_range(-r..r);
        let (lo, hi) = (
            Vec3::new(u(2.0), u(2.0), u(2.0)),
            Vec3::new(u(2.0), u(2.0), u(2.0)),
        );
        let b = match seed % 6 {
            0 => Aabb::empty(),
            1 => Aabb::new(lo, lo),
            2 => Aabb::new(
                Vec3::new(f32::NEG_INFINITY, lo.y, lo.z),
                Vec3::new(f32::INFINITY, hi.y, hi.z),
            ),
            3 => Aabb::new(Vec3::new(lo.x, f32::NAN, lo.z), hi),
            _ => Aabb::new(lo.min(hi), lo.max(hi)),
        };
        let mut rays = Vec::new();
        let mut best_t = [0.0; PACKET_WIDTH];
        for (l, t) in best_t.iter_mut().enumerate() {
            let mut origin = Vec3::new(u(4.0), u(4.0), u(4.0));
            let mut dir = Vec3::new(u(1.0), u(1.0), u(1.0)).normalized();
            match (seed as usize + l) % 5 {
                0 => dir.x = 0.0,
                1 => (dir.y, origin.y) = (-0.0, b.min.y),
                2 => (dir.z, dir.x, origin.z) = (0.0, 0.0, b.max.z),
                3 => origin = b.min,
                _ => {}
            }
            rays.push(Ray { origin, dir });
            *t = [
                f32::MAX,
                f32::INFINITY,
                f32::NAN,
                u(9.0).abs(),
                1e-4,
                0.0,
                -1.0,
            ][(l + seed as usize) % 7];
        }
        (RayPacket::from_rays(&rays), b, best_t)
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn packet_enters_avx2(p: &RayPacket, b: &Aabb, best_t: &[f32; PACKET_WIDTH]) -> bool {
        packet_enters(p, b, best_t)
    }

    /// The inlined slab test against the parent's out-of-line one, on the
    /// baseline target and, where the CPU has it, compiled under AVX2.
    #[test]
    fn packet_slab_verdict_matches_reference() {
        let (mut entered, mut missed) = (0, 0);
        for seed in 0..20_000u64 {
            let (p, b, best_t) = slab_case(seed);
            let want = reference::packet_hits_aabb(&p, &b, &best_t);
            assert_eq!(packet_enters(&p, &b, &best_t), want, "case {seed}");
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: the running CPU was just seen to have AVX2.
                assert_eq!(
                    unsafe { packet_enters_avx2(&p, &b, &best_t) },
                    want,
                    "case {seed}"
                );
            }
            if want {
                entered += 1;
            } else {
                missed += 1;
            }
        }
        assert!(
            entered > 2_000 && missed > 2_000,
            "{entered} entered, {missed} missed"
        );
    }

    /// Packets generated straight into their lanes hold the rays
    /// `primary_ray` makes, padding included, bit for bit.
    #[test]
    fn generated_packets_are_primary_rays() {
        let bits = |p: &RayPacket| {
            [
                &p.ox, &p.oy, &p.oz, &p.dx, &p.dy, &p.dz, &p.ix, &p.iy, &p.iz,
            ]
            .map(|lanes| lanes.map(f32::to_bits))
        };
        for (fov, w, h) in [(0.01f32, 97, 61), (45.0, 150, 90), (179.9, 13, 7)] {
            let c = crate::camera::Camera::look_at(
                Vec3::new(1.0, -4.0, 0.5),
                Vec3::ZERO,
                Vec3::new(0.0, 0.0, 1.0),
                fov,
                w,
                h,
            );
            let rays = c.ray_generator();
            for py in 0..h {
                for px0 in (0..w).step_by(5) {
                    let lanes = PACKET_WIDTH.min(w - px0);
                    let want: Vec<Ray> = (px0..px0 + lanes).map(|x| c.primary_ray(x, py)).collect();
                    let got = RayPacket::generate(&rays, lanes, |l| {
                        (rays.ndc_x(px0 + l), rays.ndc_y(py))
                    });
                    assert_eq!(got.lanes, lanes);
                    assert_eq!(
                        bits(&got),
                        bits(&RayPacket::from_rays(&want)),
                        "({px0}, {py})"
                    );
                }
            }
        }
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
