//! Property-based tests for the data-model substrate.

use eth_data::compress::{self, Codec};
use eth_data::field::Attribute;
use eth_data::io::binary;
use eth_data::partition::{decompose_domain, partition_grid_slabs, partition_points};
use eth_data::sampling::{sample_points, SamplingSpec};
use eth_data::{Aabb, DataError, DataObject, Fields, PointCloud, UniformGrid, Vec3};
use proptest::prelude::*;
use eth_data::io::aligned::AlignedBuf;
use eth_data::io::pool::PayloadPool;
use eth_data::Bytes;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, noting the largest single request each thread
/// has made: `decode_is_total` holds the decoder to allocations sized by
/// the bytes it was given, not by the lengths those bytes claim.
struct LargestRequest;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    // `try_with`: a thread being torn down may allocate after its locals
    // are gone
    let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; `note` touches only a `Cell<usize>` thread-local
// with a const initializer and no destructor, so it neither allocates nor
// unwinds.
unsafe impl GlobalAlloc for LargestRequest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: LargestRequest = LargestRequest;

/// `EBD3` framing around `body`: the magic in front, the body's true
/// CRC-32 behind, so the decoder's integrity check passes and the
/// structural parse is what meets the bytes.
fn framed(body: &[u8]) -> Vec<u8> {
    let mut raw = b"EBD3".to_vec();
    raw.extend_from_slice(body);
    let crc = eth_data::crc::crc32(&raw);
    raw.extend_from_slice(&crc.to_le_bytes());
    raw
}

/// `raw` as bytes whose first byte sits `base` bytes past an 8-byte
/// boundary.
fn at_base(raw: &[u8], base: usize) -> Bytes {
    let mut buf = AlignedBuf::zeroed(base);
    buf.extend_from_slice(raw);
    let bytes = buf.freeze().slice(base..);
    assert_eq!(bytes.as_ptr() as usize % 8, base);
    bytes
}

/// Decode `raw` from base offset `base` — `Ok` or `Err`, a panic fails
/// the test — and return the result and the largest allocation the call
/// made.
fn decode_noting_allocations(raw: &[u8], base: usize) -> (Result<DataObject, DataError>, usize) {
    let bytes = at_base(raw, base);
    LARGEST.with(|largest| largest.set(0));
    let decoded = binary::decode(bytes);
    (decoded, LARGEST.with(|largest| largest.get()))
}

/// What a decode of `len` bytes may allocate at once: the bytes, times the
/// worst ratio of in-memory to wire size (a 56-byte attribute-table entry,
/// its table grown by doubling, against the 13 bytes the smallest
/// attribute takes on the wire), plus room for an error message.
fn allocation_bound(len: usize) -> usize {
    16 * len + 1024
}

/// The smallest grid body behind a valid checksum that used to get past
/// `UniformGrid::new`: 2³² vertices a side and NaN spacing.
fn hostile_grid() -> Vec<u8> {
    let mut body = vec![2u8];
    for _ in 0..3 {
        body.extend_from_slice(&(1u64 << 32).to_le_bytes());
    }
    for v in [0.0, 0.0, 0.0, f32::NAN, f32::NAN, f32::NAN] {
        body.extend_from_slice(&v.to_le_bytes());
    }
    body.extend_from_slice(&1u32.to_le_bytes()); // one attribute
    body.extend_from_slice(&1u32.to_le_bytes());
    body.push(b'f');
    body.push(0); // scalar
    body.extend_from_slice(&0u64.to_le_bytes()); // of no elements
    framed(&body)
}

/// Decode `obj`'s encoding and check that it allocated at most a few KiB
/// at once and that every array of the result lies inside the payload.
fn decodes_in_place(obj: &DataObject) {
    let payload = binary::encode(obj);
    let range = payload.as_ptr_range();
    LARGEST.with(|largest| largest.set(0));
    let back = binary::decode(payload).unwrap();
    let largest = LARGEST.with(|largest| largest.get());
    assert!(largest <= 4 << 10, "decode made a {largest}-byte request");
    let (positions, attrs) = match &back {
        DataObject::Points(p) => (Some(p.positions()), p.attributes()),
        DataObject::Grid(g) => (None, g.attributes()),
    };
    let inside = |start: *const u8, bytes: usize| {
        range.start <= start && start.wrapping_add(bytes) <= range.end
    };
    if let Some(p) = positions {
        assert!(inside(p.as_ptr().cast(), std::mem::size_of_val(p)), "positions");
    }
    for (name, attr) in attrs.iter() {
        let (start, bytes) = match attr {
            Attribute::Scalar(v) => (v.as_ptr().cast(), std::mem::size_of_val(&v[..])),
            Attribute::Vector(v) => (v.as_ptr().cast(), std::mem::size_of_val(&v[..])),
            Attribute::Id(v) => (v.as_ptr().cast(), std::mem::size_of_val(&v[..])),
        };
        assert!(inside(start, bytes), "attribute {name}");
    }
    assert_eq!(&back, obj);
}

#[test]
fn decoding_an_aligned_block_views_it_and_allocates_nothing_per_element() {
    let n = 1_000_000;
    let mut cloud =
        PointCloud::from_positions((0..n).map(|i| Vec3::splat(i as f32)).collect::<Vec<_>>());
    cloud.set_attribute("id", Attribute::Id((0..n as u64).collect())).unwrap();
    cloud.set_attribute("mass", Attribute::Scalar((0..n).map(|i| i as f32).collect())).unwrap();
    cloud.set_attribute("vel", Attribute::Vector(vec![Vec3::ONE; n].into())).unwrap();
    decodes_in_place(&DataObject::Points(cloud));

    let mut grid = UniformGrid::new([100, 100, 100], Vec3::ZERO, Vec3::ONE).unwrap();
    grid.set_attribute("f", Attribute::Scalar((0..n).map(|i| i as f32).collect())).unwrap();
    decodes_in_place(&DataObject::Grid(grid));
}

#[test]
fn hostile_grid_behind_a_valid_checksum_is_an_error() {
    // debug: `num_vertices` overflowed in `set_attribute`; release: decoded
    // to `Ok` with 0 elements and NaN bounds
    let raw = hostile_grid();
    assert!(matches!(
        binary::decode(raw.into()),
        Err(DataError::InvalidArgument(_))
    ));
}

fn arb_vec3(range: f32) -> impl Strategy<Value = Vec3> {
    (
        -range..range,
        -range..range,
        -range..range,
    )
        .prop_map(|(x, y, z)| Vec3::new(x, y, z))
}

fn arb_cloud(max_n: usize) -> impl Strategy<Value = PointCloud> {
    prop::collection::vec(arb_vec3(100.0), 1..max_n).prop_map(|pos| {
        let n = pos.len();
        let mut c = PointCloud::from_positions(pos);
        c.set_attribute("id", Attribute::Id((0..n as u64).collect()))
            .unwrap();
        c.set_attribute(
            "w",
            Attribute::Scalar((0..n).map(|i| i as f32 * 0.5).collect()),
        )
        .unwrap();
        c
    })
}

proptest! {
    #[test]
    fn binary_roundtrip_points(cloud in arb_cloud(200)) {
        let obj = DataObject::Points(cloud);
        let back = binary::decode(binary::encode(&obj)).unwrap();
        prop_assert_eq!(obj, back);
    }

    #[test]
    fn binary_roundtrip_grid(
        nx in 1usize..6, ny in 1usize..6, nz in 1usize..6,
        seed in 0u64..1000,
    ) {
        let mut g = UniformGrid::new([nx, ny, nz], Vec3::ZERO, Vec3::ONE).unwrap();
        let n = g.num_vertices();
        let vals: Vec<f32> = (0..n).map(|i| ((i as u64).wrapping_mul(seed + 1) % 1000) as f32).collect();
        g.set_attribute("f", Attribute::Scalar(vals.into())).unwrap();
        let obj = DataObject::Grid(g);
        let back = binary::decode(binary::encode(&obj)).unwrap();
        prop_assert_eq!(obj, back);
    }

    #[test]
    fn partition_points_conserves_everything(cloud in arb_cloud(300), n in 1usize..9) {
        let parts = partition_points(&cloud, n).unwrap();
        prop_assert_eq!(parts.len(), n);
        let total: usize = parts.iter().map(|p| p.len()).sum();
        prop_assert_eq!(total, cloud.len());
        let mut seen = vec![false; cloud.len()];
        for part in &parts {
            for &id in part.attribute("id").unwrap().as_id().unwrap() {
                prop_assert!(!seen[id as usize]);
                seen[id as usize] = true;
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
        // every particle lies inside (or on) its block's bounds… blocks are
        // derived from the global bounds, so just check containment in the
        // global domain padded for float slop.
        let domain = cloud.bounds().padded(1e-3);
        for part in &parts {
            for &p in part.positions() {
                prop_assert!(domain.contains(p));
            }
        }
    }

    #[test]
    fn decompose_domain_tiles_exactly(n in 1usize..25) {
        let d = Aabb::new(Vec3::new(-3.0, 1.0, 0.0), Vec3::new(5.0, 4.0, 2.0));
        let blocks = decompose_domain(&d, n);
        prop_assert_eq!(blocks.len(), n);
        let mut union = Aabb::empty();
        let mut vol = 0.0f64;
        for b in &blocks {
            union.expand_box(b);
            vol += b.volume() as f64;
        }
        prop_assert_eq!(union, d);
        prop_assert!((vol - d.volume() as f64).abs() < 1e-3 * d.volume() as f64);
        // pairwise disjoint interiors
        for i in 0..blocks.len() {
            for j in (i + 1)..blocks.len() {
                let a = &blocks[i];
                let b = &blocks[j];
                // shrink one slightly: interiors must not overlap
                let shrunk = Aabb::new(
                    a.min + Vec3::splat(1e-4),
                    a.max - Vec3::splat(1e-4),
                );
                if shrunk.intersects(b) {
                    // overlap region must be degenerate (face contact)
                    let lo = shrunk.min.max(b.min);
                    let hi = shrunk.max.min(b.max);
                    let overlap = (hi - lo).max_component();
                    prop_assert!((hi.x - lo.x).min(hi.y - lo.y).min(hi.z - lo.z) <= 1e-3,
                        "blocks {i} and {j} overlap volumetrically: {overlap}");
                }
            }
        }
    }

    #[test]
    fn sampling_ratio_and_subset(
        cloud in arb_cloud(400),
        ratio in 0.05f64..1.0,
        seed in 0u64..500,
    ) {
        let spec = SamplingSpec::new(ratio, seed).unwrap();
        let s = sample_points(&cloud, &spec, Fields::All).unwrap();
        let want = ((cloud.len() as f64) * ratio).round() as usize;
        prop_assert_eq!(s.len(), want);
        // sampled ids form a strictly increasing subset
        let ids = s.attribute("id").unwrap().as_id().unwrap();
        prop_assert!(ids.windows(2).all(|w| w[0] < w[1]));
        // attribute alignment preserved: w[i] == id[i] * 0.5
        let w = s.scalar("w").unwrap();
        for (i, &id) in ids.iter().enumerate() {
            prop_assert_eq!(w[i], id as f32 * 0.5);
        }
    }

    #[test]
    fn grid_slabs_conserve_cells(
        nx in 3usize..12, ny in 2usize..6, nz in 2usize..6,
        n in 1usize..5,
    ) {
        let mut g = UniformGrid::new([nx, ny, nz], Vec3::ZERO, Vec3::ONE).unwrap();
        let vals: Vec<f32> = (0..g.num_vertices()).map(|i| i as f32).collect();
        g.set_attribute("f", Attribute::Scalar(vals.into())).unwrap();
        let slabs = partition_grid_slabs(&g, n).unwrap();
        prop_assert_eq!(slabs.len(), n);
        let axis = g.bounds().longest_axis();
        let cells_along_axis = g.dims()[axis] - 1;
        if n <= cells_along_axis {
            let total: usize = slabs.iter().map(|s| s.num_cells()).sum();
            prop_assert_eq!(total, g.num_cells());
        }
    }

    #[test]
    fn trilinear_sample_within_vertex_range(
        seed in 0u64..200,
        px in 0.0f32..2.0, py in 0.0f32..2.0, pz in 0.0f32..2.0,
    ) {
        let mut g = UniformGrid::new([3, 3, 3], Vec3::ZERO, Vec3::ONE).unwrap();
        let vals: Vec<f32> = (0..27)
            .map(|i| (((i as u64 + 1).wrapping_mul(seed.wrapping_mul(2654435761) + 1)) % 997) as f32)
            .collect();
        g.set_attribute("f", Attribute::Scalar(vals.clone().into())).unwrap();
        let v = g.sample_trilinear(&vals, Vec3::new(px, py, pz)).unwrap();
        let lo = vals.iter().cloned().fold(f32::INFINITY, f32::min);
        let hi = vals.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        // interpolation is a convex combination: must stay inside the hull
        prop_assert!(v >= lo - 1e-3 && v <= hi + 1e-3, "{v} not in [{lo}, {hi}]");
    }

    #[test]
    fn aabb_union_contains_both(a in arb_vec3(10.0), b in arb_vec3(10.0),
                                c in arb_vec3(10.0), d in arb_vec3(10.0)) {
        let b1 = Aabb::new(a.min(b), a.max(b));
        let b2 = Aabb::new(c.min(d), c.max(d));
        let u = b1.union(&b2);
        prop_assert!(u.contains(b1.min) && u.contains(b1.max));
        prop_assert!(u.contains(b2.min) && u.contains(b2.max));
        prop_assert!(u.volume() + 1e-3 >= b1.volume().max(b2.volume()));
    }

    /// Compression round-trips within its documented error bounds and ids
    /// survive losslessly.
    #[test]
    fn compression_bounds(cloud in arb_cloud(300)) {
        let obj = DataObject::Points(cloud.clone());
        let back = compress::decompress(compress::compress(&obj)).unwrap();
        let b = back.as_points().unwrap();
        prop_assert_eq!(b.len(), cloud.len());
        let ext = cloud.bounds().extent();
        for (p, q) in cloud.positions().iter().zip(b.positions()) {
            prop_assert!((p.x - q.x).abs() <= ext.x * 1.5 / 65535.0 + 1e-6);
            prop_assert!((p.y - q.y).abs() <= ext.y * 1.5 / 65535.0 + 1e-6);
            prop_assert!((p.z - q.z).abs() <= ext.z * 1.5 / 65535.0 + 1e-6);
        }
        // scalar error bound: range / 255 (w = i * 0.5, so range = (n-1)/2)
        let w_orig = cloud.scalar("w").unwrap();
        let w_back = b.scalar("w").unwrap();
        let range = (cloud.len() as f32 - 1.0) * 0.5;
        for (x, y) in w_orig.iter().zip(w_back) {
            prop_assert!((x - y).abs() <= range * 1.5 / 255.0 + 1e-6);
        }
        prop_assert_eq!(
            cloud.attribute("id").unwrap().as_id().unwrap(),
            b.attribute("id").unwrap().as_id().unwrap()
        );
    }

    /// Compression never inflates a non-trivial payload.
    #[test]
    fn compression_never_inflates(cloud in arb_cloud(300)) {
        prop_assume!(cloud.len() >= 16);
        let obj = DataObject::Points(cloud);
        let raw = eth_data::io::binary::encode(&obj).len();
        let packed = compress::compress(&obj).len();
        prop_assert!(packed < raw, "packed {packed} >= raw {raw}");
    }

    /// The grid-field sampler masks exactly the complement of the kept set
    /// and never changes topology, at any ratio.
    #[test]
    fn grid_sampling_masks_exactly(
        side in 2usize..6,
        ratio in 0.05f64..0.95,
        seed in 0u64..300,
    ) {
        let mut g = UniformGrid::new([side, side, side], Vec3::ZERO, Vec3::ONE).unwrap();
        let n = g.num_vertices();
        let vals: Vec<f32> = (0..n).map(|i| 1.0 + i as f32).collect(); // all > 0
        g.set_attribute("f", Attribute::Scalar(vals.into())).unwrap();
        let spec = SamplingSpec::new(ratio, seed).unwrap();
        let s = eth_data::sampling::sample_grid_field(&g, "f", &spec, 0.0).unwrap();
        prop_assert_eq!(s.dims(), g.dims());
        let out = s.scalar("f").unwrap();
        let kept = out.iter().filter(|&&v| v > 0.0).count();
        prop_assert_eq!(kept, ((n as f64) * ratio).round() as usize);
    }

    /// Flipping *any* byte of an encoded object is detected at decode time:
    /// the first four bytes are the magic (a `Format` error), everything
    /// after — including the trailer itself — trips the checksum.
    #[test]
    fn binary_flip_any_byte_detected(cloud in arb_cloud(150), pick in 0usize..usize::MAX, bit in 0u8..8) {
        let obj = DataObject::Points(cloud);
        let encoded = binary::encode(&obj);
        let offset = pick % encoded.len();
        let mut bad = encoded.to_vec();
        bad[offset] ^= 1 << bit;
        let err = binary::decode(bad.into()).unwrap_err();
        if offset < 4 {
            prop_assert!(matches!(err, DataError::Format(_)), "offset {offset}: {err}");
        } else {
            prop_assert!(matches!(err, DataError::Corrupt(_)), "offset {offset}: {err}");
        }
    }
}

/// A cloud of `pos.len()` particles (any count, none included) or a grid
/// of shape `dims`, carrying `id` and `v` (grids: `v`) and, when `with_d`,
/// `d` — the field the selections below colour by.
fn block(grid: bool, pos: Vec<Vec3>, dims: [usize; 3], with_d: bool) -> DataObject {
    if grid {
        let mut g = UniformGrid::new(dims, Vec3::splat(-1.0), Vec3::splat(0.5)).unwrap();
        let n = g.num_vertices();
        if with_d {
            g.set_attribute("d", Attribute::Scalar((0..n).map(|i| i as f32 * 0.25).collect()))
                .unwrap();
        }
        g.set_attribute("v", Attribute::Scalar((0..n).map(|i| -(i as f32)).collect()))
            .unwrap();
        return DataObject::Grid(g);
    }
    let n = pos.len();
    let mut c = PointCloud::from_positions(pos);
    c.set_attribute("id", Attribute::Id((0..n as u64).map(|i| i * 7 + 1).collect()))
        .unwrap();
    c.set_attribute(
        "v",
        Attribute::Vector((0..n).map(|i| Vec3::splat(i as f32 - 3.0)).collect()),
    )
    .unwrap();
    if with_d {
        c.set_attribute("d", Attribute::Scalar((0..n).map(|i| (i % 5) as f32).collect()))
            .unwrap();
    }
    DataObject::Points(c)
}

/// Every selection the harness can make of such a block, and all fields.
const SELECTIONS: [Fields<'static>; 6] = [
    Fields::All,
    Fields::Only(Some("d")),
    Fields::Only(Some("v")),
    Fields::Only(Some("id")),
    Fields::Only(Some("absent")),
    Fields::Only(None),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Each codec's one writer, given a selection, writes exactly what it
    /// writes for the block's projection onto that selection: the length
    /// is exact (`EBD3`'s `selected_len` here; `EBC1`'s `compressed_len`
    /// by the writer's own debug assertion), the bytes are the projection's
    /// full encoding, decode gives back the projection array for array, and
    /// the all-fields case is the plain encoder byte for byte.
    #[test]
    fn codec_selection_writes_the_projection(
        grid in 0u8..2,
        pos in prop::collection::vec(arb_vec3(50.0), 0..40),
        nx in 1usize..5, ny in 1usize..5, nz in 1usize..5,
        with_d in 0u8..2,
        pick in 0usize..SELECTIONS.len(),
    ) {
        let obj = block(grid == 1, pos, [nx, ny, nz], with_d == 1);
        let fields = SELECTIONS[pick];
        let pool = PayloadPool::new();
        let projected = obj.select(fields);
        for (name, attr) in projected.as_points().map_or_else(
            || projected.as_grid().unwrap().attributes(),
            |p| p.attributes(),
        ).iter() {
            prop_assert!(fields.keeps(name), "{name} is not selected");
            let source = obj.as_points().map_or_else(
                || obj.as_grid().unwrap().attribute(name),
                |p| p.attribute(name),
            );
            prop_assert_eq!(Some(attr), source);
        }
        for codec in [Codec::Lossless, Codec::Quantize] {
            let wire = codec.encode_in(&obj, fields, &pool);
            if codec.is_lossless() {
                prop_assert_eq!(wire.len(), binary::selected_len(&obj, fields));
            }
            prop_assert_eq!(&wire, &codec.encode(&projected), "{:?}", codec);
            if fields == Fields::All {
                prop_assert_eq!(&wire, &codec.encode(&obj), "{:?}", codec);
            }
            let back = codec.decode(wire).unwrap();
            prop_assert_eq!(back.num_elements(), obj.num_elements());
            if codec.is_lossless() {
                prop_assert_eq!(&back, &projected);
            } else {
                prop_assert_eq!(&back, &codec.decode(codec.encode(&projected)).unwrap());
            }
        }
        prop_assert_eq!(binary::selected_len(&obj, Fields::All), binary::encoded_len(&obj));
        prop_assert_eq!(binary::encode_in(&obj, Fields::All, &pool), binary::encode(&obj));
    }
}

/// Two objects as `EBD2` wrote them, the unpadded layout before `EBD3`.
const EBD2_GOLDEN: [&str; 2] = [
    "454244320102000000000000000000003f0000c03f00002040000080bf00000000\
     0000404003000000040000006d6173730002000000000000000000803f00000040\
     0300000076656c0102000000000000000000803f0000803f0000803f0000000000\
     0080bf0000003f0200000069640202000000000000002a00000000000000070000\
     0000000000e8d3d642",
    "45424432020300000000000000020000000000000002000000000000000000803f\
     00000040000040400000003f0000003f0000003f010000000400000074656d7000\
     0c00000000000000000000000000803e0000003f0000403f0000803f0000a03f00\
     00c03f0000e03f0000004000001040000020400000304067e536db",
];

fn unhex(hex: &str) -> Vec<u8> {
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
        .collect()
}

/// Values a length, count or dimension field can be overwritten with.
const HOSTILE: [u64; 10] = [
    0,
    1,
    u32::MAX as u64,
    1 << 32,
    (1 << 61) + 1,
    u64::MAX / 12,
    u64::MAX,
    0x7FC0_0000_7FC0_0000, // two f32 NaNs
    0x7F80_0000_FF80_0000, // -inf, +inf
    0x8000_0000_BF80_0000, // -1.0, -0.0
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// ROADMAP 1d for `EBD3`: `binary::decode` is total. Arbitrary bytes,
    /// the same bytes behind a valid magic and checksum, valid encodings
    /// with a header, length or dims field overwritten, and valid
    /// encodings with one pad byte set (each with the trailer recomputed,
    /// so the parse really runs) all come back `Ok` or `Err` without a
    /// panic — this runs in debug, where arithmetic overflow is one — and
    /// without an allocation sized by a claimed length, from any base
    /// offset. A set pad is a `Format` error, and so is `EBD2`.
    #[test]
    fn decode_is_total(
        noise in prop::collection::vec(0u16..256, 0..96),
        kind in 0u8..4,
        (offset, width, hostile, random) in (0usize..usize::MAX, 0usize..2, 0usize..HOSTILE.len() + 1, 0u64..u64::MAX),
        (pad, pad_value, base) in (0usize..usize::MAX, 1u16..256, 0usize..8),
    ) {
        let noise: Vec<u8> = noise.into_iter().map(|b| b as u8).collect();
        let mut body = vec![kind];
        body.extend_from_slice(&noise);

        let mut grid = UniformGrid::new([2, 3, 2], Vec3::ZERO, Vec3::ONE).unwrap();
        grid.set_attribute("f", Attribute::Scalar(vec![0.5; 12].into())).unwrap();
        let mut cloud = PointCloud::from_positions(vec![Vec3::ONE, Vec3::ZERO]);
        cloud.set_attribute("id", Attribute::Id(vec![7, 8].into())).unwrap();
        cloud.set_attribute("v", Attribute::Vector(vec![Vec3::ONE; 2].into())).unwrap();
        let valid_obj = if kind % 2 == 0 { DataObject::Grid(grid) } else { DataObject::Points(cloud) };
        let encoded = binary::encode(&valid_obj).to_vec();
        // overwrite 4 or 8 bytes anywhere in the body (magic and trailer
        // excluded): every header, count, dims and length field is a site
        let mut patched = encoded[4..encoded.len() - 4].to_vec();
        let width = [4, 8][width];
        let at = offset % (patched.len() - width + 1);
        let value = HOSTILE.get(hostile).copied().unwrap_or(random);
        patched[at..at + width].copy_from_slice(&value.to_le_bytes()[..width]);

        // the pad bytes of the two valid objects: the grid's one before
        // "f"; the cloud's before the positions, "id" and "v"
        let pads: &[usize] = if kind % 2 == 0 { &[71] } else { &[13, 14, 15, 59, 60, 61, 62, 63, 94, 95] };
        let pad = pads[pad % pads.len()];
        prop_assert_eq!(encoded[pad], 0);
        let mut padded = encoded[4..encoded.len() - 4].to_vec();
        padded[pad - 4] = pad_value as u8;
        let padded = framed(&padded);

        for raw in [noise, framed(&body), framed(&patched), padded.clone()] {
            let len = raw.len();
            let (_, largest) = decode_noting_allocations(&raw, base);
            prop_assert!(
                largest <= allocation_bound(len),
                "decoding {len} bytes at base {base} allocated {largest} at once"
            );
        }
        let (set_pad, _) = decode_noting_allocations(&padded, base);
        prop_assert!(matches!(set_pad, Err(DataError::Format(_))), "pad {pad}: {set_pad:?}");
        let (valid, _) = decode_noting_allocations(&encoded, base);
        prop_assert_eq!(valid.unwrap(), valid_obj);
        for hex in EBD2_GOLDEN {
            let (old, _) = decode_noting_allocations(&unhex(hex), base);
            prop_assert!(matches!(old, Err(DataError::Format(_))), "EBD2: {old:?}");
        }
    }
}

/// `compress::decompress` of `raw` — `Ok` or `Err`, a panic fails the test
/// — and the largest allocation the call made.
fn decompress_noting_allocations(raw: &[u8]) -> (Result<DataObject, DataError>, usize) {
    let bytes = Bytes::from(raw.to_vec());
    LARGEST.with(|largest| largest.set(0));
    let decoded = compress::decompress(bytes);
    (decoded, LARGEST.with(|largest| largest.get()))
}

/// Two `EBC1` blocks whose element counts wrap the size check: a point
/// count of `0x2AAA_AAAA_AAAA_AAAB` (times 6 bytes a point is 2) and, on an
/// empty cloud, an id attribute of `0x2000_0000_0000_0001` ids (times 8 is
/// 8), each followed by the bytes the wrapped size asks for. Debug builds
/// used to stop on the multiplication, release builds on the capacity.
fn hostile_ebc1() -> [Vec<u8>; 2] {
    let header = |count: u64| {
        let mut raw = b"EBC1".to_vec();
        raw.push(1); // points
        raw.extend_from_slice(&count.to_le_bytes());
        raw.extend_from_slice(&[0; 24]); // bounds
        raw
    };
    let mut points = header(0x2AAA_AAAA_AAAA_AAAB);
    points.extend_from_slice(&[0; 2]);
    let mut ids = header(0);
    ids.extend_from_slice(&1u32.to_le_bytes()); // one attribute
    ids.extend_from_slice(&1u32.to_le_bytes());
    ids.push(b'i');
    ids.push(2); // verbatim ids
    ids.extend_from_slice(&0x2000_0000_0000_0001u64.to_le_bytes());
    ids.extend_from_slice(&[0; 8]);
    [points, ids]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// ROADMAP 1d for `EBC1`: `compress::decompress` is total. Arbitrary
    /// bytes (bare and behind the magic), a valid payload with any one byte
    /// flipped, every truncation of it, and the two wrapping counts above
    /// all come back `Ok` or `Err` without a panic — this runs in debug,
    /// where arithmetic overflow is one — and without an allocation sized
    /// by a claimed count.
    #[test]
    fn decompress_is_total(
        noise in prop::collection::vec(0u16..256, 0..96),
        kind in 1u8..3,
        flip in 1u16..256,
    ) {
        let noise: Vec<u8> = noise.into_iter().map(|b| b as u8).collect();
        let mut behind_magic = b"EBC1".to_vec();
        behind_magic.push(kind);
        behind_magic.extend_from_slice(&noise);

        let mut grid = UniformGrid::new([2, 3, 2], Vec3::ZERO, Vec3::ONE).unwrap();
        grid.set_attribute("f", Attribute::Scalar(vec![0.5; 12].into())).unwrap();
        let mut cloud = PointCloud::from_positions(vec![Vec3::ONE, Vec3::ZERO]);
        cloud.set_attribute("id", Attribute::Id(vec![7, 8].into())).unwrap();
        cloud.set_attribute("v", Attribute::Vector(vec![Vec3::ONE; 2].into())).unwrap();
        cloud.set_attribute("s", Attribute::Scalar(vec![1.0, 2.0].into())).unwrap();
        let valid = if kind == 1 { DataObject::Points(cloud) } else { DataObject::Grid(grid) };
        let encoded = compress::compress(&valid).to_vec();
        prop_assert!(compress::decompress(encoded.clone().into()).is_ok());

        let mut cases = vec![noise, behind_magic];
        cases.extend(hostile_ebc1());
        for at in 0..encoded.len() {
            let mut flipped = encoded.clone();
            flipped[at] ^= flip as u8;
            cases.push(flipped);
            cases.push(encoded[..at].to_vec());
        }
        for raw in &cases {
            let len = raw.len();
            let (_, largest) = decompress_noting_allocations(raw);
            prop_assert!(
                largest <= allocation_bound(len),
                "decompressing {len} bytes allocated {largest} at once"
            );
        }
        for raw in hostile_ebc1() {
            let (got, _) = decompress_noting_allocations(&raw);
            prop_assert!(matches!(got, Err(DataError::Format(_))), "{got:?}");
        }
        for cut in 0..encoded.len() {
            let (got, _) = decompress_noting_allocations(&encoded[..cut]);
            prop_assert!(got.is_err(), "a {cut}-byte prefix decoded");
        }
    }
}
