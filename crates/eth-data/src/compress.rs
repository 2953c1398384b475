//! Lossy quantization compression for in-situ transport.
//!
//! The paper's introduction lists compression alongside in-situ methods
//! and data sampling as the techniques developed for extreme-scale
//! datasets; this module provides the data-reduction operator the
//! harness's internode coupling can apply before shipping blocks across
//! the interconnect.
//!
//! Scheme (simple, bounded-error, fast):
//! * positions — 16-bit fixed point per axis over the block bounds
//!   (error ≤ extent/65535 per axis),
//! * scalar attributes — 8-bit fixed point over the value range
//!   (error ≤ range/255),
//! * vector attributes — 8-bit per component over the component range,
//! * id attributes — kept verbatim (lossless; ids don't quantize).
//!
//! Grids compress their scalar fields the same way; topology is implicit.

use crate::dataset::DataObject;
use crate::error::{DataError, Result};
use crate::field::{Attribute, AttributeSet};
use crate::grid::UniformGrid;
use crate::io::aligned::AlignedBuf;
use crate::io::pool::PayloadPool;
use crate::points::PointCloud;
use crate::vec3::Vec3;
use bytes::{Buf, BufMut, Bytes};
use serde::{Deserialize, Serialize};

const MAGIC: &[u8; 4] = b"EBC1";

/// A named block codec: the one place that decides the wire format.
/// `Quantize` is the bounded-error scheme this module implements (`EBC1`);
/// `Lossless`, the default, is the CRC-trailed binary format
/// ([`crate::io::binary`], `EBD3`) — bigger on the wire, but blocks
/// round-trip byte-identically.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum Codec {
    /// 16-bit positions / 8-bit attributes (lossy, ~2-4x smaller).
    Quantize,
    /// Full-precision binary encoding with a CRC-32 trailer.
    #[default]
    Lossless,
}

impl Codec {
    /// Encode one block with this codec. Both encodings are
    /// self-describing (distinct magics, `EBC1` vs `EBD3`).
    pub fn encode(&self, obj: &DataObject) -> Bytes {
        match self {
            Codec::Quantize => compress(obj),
            Codec::Lossless => crate::io::binary::encode(obj),
        }
    }

    /// [`Codec::encode`], byte for byte, into a buffer leased from `pool`
    /// (see [`crate::io::pool`]).
    pub fn encode_in(&self, obj: &DataObject, pool: &PayloadPool) -> Bytes {
        match self {
            Codec::Quantize => {
                let mut lease = pool.lease(compressed_len(obj));
                write(obj, lease.buf());
                lease.freeze()
            }
            Codec::Lossless => crate::io::binary::encode_in(obj, pool),
        }
    }

    /// Decode a payload produced by [`Codec::encode`] with the same codec.
    pub fn decode(&self, buf: Bytes) -> Result<DataObject> {
        match self {
            Codec::Quantize => decompress(buf),
            Codec::Lossless => crate::io::binary::decode(buf),
        }
    }

    /// Whether a block survives an encode/decode round trip bit-exactly.
    pub fn is_lossless(&self) -> bool {
        matches!(self, Codec::Lossless)
    }

    /// Stable name for metrics and logs.
    pub fn name(&self) -> &'static str {
        match self {
            Codec::Quantize => "quantize",
            Codec::Lossless => "lossless",
        }
    }
}

const KIND_POINTS: u8 = 1;
const KIND_GRID: u8 = 2;

const ATTR_SCALAR_Q8: u8 = 0;
const ATTR_VECTOR_Q8: u8 = 1;
const ATTR_ID_RAW: u8 = 2;

/// Quantize `v` into `[lo, hi]` with `levels` steps.
#[inline]
fn quantize(v: f32, lo: f32, hi: f32, levels: u32) -> u32 {
    if hi <= lo {
        return 0;
    }
    let t = ((v - lo) / (hi - lo)).clamp(0.0, 1.0);
    (t * (levels - 1) as f32 + 0.5) as u32
}

#[inline]
fn dequantize(q: u32, lo: f32, hi: f32, levels: u32) -> f32 {
    if levels <= 1 {
        return lo;
    }
    lo + (q as f32 / (levels - 1) as f32) * (hi - lo)
}

fn value_range(values: &[f32]) -> (f32, f32) {
    let mut lo = f32::INFINITY;
    let mut hi = f32::NEG_INFINITY;
    for &v in values {
        if v.is_finite() {
            lo = lo.min(v);
            hi = hi.max(v);
        }
    }
    if !lo.is_finite() {
        (0.0, 0.0)
    } else {
        (lo, hi)
    }
}

fn put_attr(buf: &mut AlignedBuf, name: &str, attr: &Attribute) {
    buf.put_u32_le(name.len() as u32);
    buf.put_slice(name.as_bytes());
    match attr {
        Attribute::Scalar(v) => {
            let (lo, hi) = value_range(v);
            buf.put_u8(ATTR_SCALAR_Q8);
            buf.put_u64_le(v.len() as u64);
            buf.put_f32_le(lo);
            buf.put_f32_le(hi);
            for &x in v {
                buf.put_u8(quantize(x, lo, hi, 256) as u8);
            }
        }
        Attribute::Vector(v) => {
            let mut lo = Vec3::splat(f32::INFINITY);
            let mut hi = Vec3::splat(f32::NEG_INFINITY);
            for &x in v {
                lo = lo.min(x);
                hi = hi.max(x);
            }
            if v.is_empty() {
                lo = Vec3::ZERO;
                hi = Vec3::ZERO;
            }
            buf.put_u8(ATTR_VECTOR_Q8);
            buf.put_u64_le(v.len() as u64);
            for c in [lo.x, lo.y, lo.z, hi.x, hi.y, hi.z] {
                buf.put_f32_le(c);
            }
            for &x in v {
                buf.put_u8(quantize(x.x, lo.x, hi.x, 256) as u8);
                buf.put_u8(quantize(x.y, lo.y, hi.y, 256) as u8);
                buf.put_u8(quantize(x.z, lo.z, hi.z, 256) as u8);
            }
        }
        Attribute::Id(v) => {
            buf.put_u8(ATTR_ID_RAW);
            buf.put_u64_le(v.len() as u64);
            for &x in v {
                buf.put_u64_le(x);
            }
        }
    }
}

fn need(buf: &Bytes, n: usize, what: &str) -> Result<()> {
    need_items(buf, n, 0, 0, what)
}

/// `header` bytes and then `count` items of `item` bytes each must remain
/// in `buf`. A count no payload could hold is truncation, not an overflow,
/// so every array decoded after this check is bounded by the payload.
fn need_items(buf: &Bytes, header: usize, count: usize, item: usize, what: &str) -> Result<()> {
    match count.checked_mul(item).and_then(|n| n.checked_add(header)) {
        Some(n) if buf.remaining() >= n => Ok(()),
        _ => Err(DataError::Format(format!("truncated compressed {what}"))),
    }
}

fn get_attr(buf: &mut Bytes) -> Result<(String, Attribute)> {
    need(buf, 4, "attr name len")?;
    let len = buf.get_u32_le() as usize;
    need(buf, len, "attr name")?;
    let name_bytes = buf.split_to(len);
    let name = std::str::from_utf8(&name_bytes)
        .map_err(|_| DataError::Format("attr name not utf-8".into()))?
        .to_string();
    need(buf, 9, "attr header")?;
    let ty = buf.get_u8();
    let count = buf.get_u64_le() as usize;
    let attr = match ty {
        ATTR_SCALAR_Q8 => {
            need_items(buf, 8, count, 1, "scalar payload")?;
            let lo = buf.get_f32_le();
            let hi = buf.get_f32_le();
            let mut v = Vec::with_capacity(count);
            for _ in 0..count {
                v.push(dequantize(buf.get_u8() as u32, lo, hi, 256));
            }
            Attribute::Scalar(v.into())
        }
        ATTR_VECTOR_Q8 => {
            need_items(buf, 24, count, 3, "vector payload")?;
            let lo = Vec3::new(buf.get_f32_le(), buf.get_f32_le(), buf.get_f32_le());
            let hi = Vec3::new(buf.get_f32_le(), buf.get_f32_le(), buf.get_f32_le());
            let mut v = Vec::with_capacity(count);
            for _ in 0..count {
                let x = dequantize(buf.get_u8() as u32, lo.x, hi.x, 256);
                let y = dequantize(buf.get_u8() as u32, lo.y, hi.y, 256);
                let z = dequantize(buf.get_u8() as u32, lo.z, hi.z, 256);
                v.push(Vec3::new(x, y, z));
            }
            Attribute::Vector(v.into())
        }
        ATTR_ID_RAW => {
            need_items(buf, 0, count, 8, "id payload")?;
            let mut v = Vec::with_capacity(count);
            for _ in 0..count {
                v.push(buf.get_u64_le());
            }
            Attribute::Id(v.into())
        }
        other => return Err(DataError::Format(format!("unknown compressed attr {other}"))),
    };
    Ok((name, attr))
}

/// Compress a dataset for the wire. Positions get 16 bits/axis, scalars
/// 8 bits, vectors 8 bits/component; ids stay lossless.
pub fn compress(obj: &DataObject) -> Bytes {
    let mut buf = AlignedBuf::with_capacity(compressed_len(obj));
    write(obj, &mut buf);
    buf.freeze()
}

/// Exact size of [`compress`]'s output for `obj`.
fn compressed_len(obj: &DataObject) -> usize {
    let attrs = |set: &AttributeSet| {
        4 + set
            .iter()
            .map(|(name, attr)| {
                4 + name.len()
                    + 9
                    + match attr {
                        Attribute::Scalar(v) => 8 + v.len(),
                        Attribute::Vector(v) => 24 + 3 * v.len(),
                        Attribute::Id(v) => 8 * v.len(),
                    }
            })
            .sum::<usize>()
    };
    5 + match obj {
        DataObject::Points(cloud) => 8 + 24 + 6 * cloud.len() + attrs(cloud.attributes()),
        DataObject::Grid(grid) => 24 + 24 + attrs(grid.attributes()),
    }
}

/// The compressor: appends `obj`'s [`compressed_len`] bytes to `buf`.
fn write(obj: &DataObject, buf: &mut AlignedBuf) {
    buf.put_slice(MAGIC);
    match obj {
        DataObject::Points(cloud) => {
            buf.put_u8(KIND_POINTS);
            let bounds = cloud.bounds();
            let (lo, hi) = if bounds.is_empty() {
                (Vec3::ZERO, Vec3::ZERO)
            } else {
                (bounds.min, bounds.max)
            };
            buf.put_u64_le(cloud.len() as u64);
            for c in [lo.x, lo.y, lo.z, hi.x, hi.y, hi.z] {
                buf.put_f32_le(c);
            }
            for &p in cloud.positions() {
                buf.put_u16_le(quantize(p.x, lo.x, hi.x, 65536) as u16);
                buf.put_u16_le(quantize(p.y, lo.y, hi.y, 65536) as u16);
                buf.put_u16_le(quantize(p.z, lo.z, hi.z, 65536) as u16);
            }
            buf.put_u32_le(cloud.attributes().len() as u32);
            for (name, attr) in cloud.attributes().iter() {
                put_attr(buf, name, attr);
            }
        }
        DataObject::Grid(grid) => {
            buf.put_u8(KIND_GRID);
            for d in grid.dims() {
                buf.put_u64_le(d as u64);
            }
            for c in [
                grid.origin().x,
                grid.origin().y,
                grid.origin().z,
                grid.spacing().x,
                grid.spacing().y,
                grid.spacing().z,
            ] {
                buf.put_f32_le(c);
            }
            buf.put_u32_le(grid.attributes().len() as u32);
            for (name, attr) in grid.attributes().iter() {
                put_attr(buf, name, attr);
            }
        }
    }
    debug_assert_eq!(buf.len(), compressed_len(obj), "compressed_len out of sync");
}

/// Decompress a payload produced by [`compress`].
pub fn decompress(mut buf: Bytes) -> Result<DataObject> {
    need(&buf, 5, "header")?;
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(DataError::Format("bad compressed magic".into()));
    }
    match buf.get_u8() {
        KIND_POINTS => {
            need(&buf, 8 + 24, "point header")?;
            let count = buf.get_u64_le() as usize;
            let lo = Vec3::new(buf.get_f32_le(), buf.get_f32_le(), buf.get_f32_le());
            let hi = Vec3::new(buf.get_f32_le(), buf.get_f32_le(), buf.get_f32_le());
            need_items(&buf, 0, count, 6, "positions")?;
            let mut pos = Vec::with_capacity(count);
            for _ in 0..count {
                let x = dequantize(buf.get_u16_le() as u32, lo.x, hi.x, 65536);
                let y = dequantize(buf.get_u16_le() as u32, lo.y, hi.y, 65536);
                let z = dequantize(buf.get_u16_le() as u32, lo.z, hi.z, 65536);
                pos.push(Vec3::new(x, y, z));
            }
            let mut cloud = PointCloud::from_positions(pos);
            need(&buf, 4, "attr count")?;
            let n_attr = buf.get_u32_le();
            for _ in 0..n_attr {
                let (name, attr) = get_attr(&mut buf)?;
                cloud.set_attribute(&name, attr)?;
            }
            Ok(DataObject::Points(cloud))
        }
        KIND_GRID => {
            need(&buf, 24 + 24, "grid header")?;
            let dims = [
                buf.get_u64_le() as usize,
                buf.get_u64_le() as usize,
                buf.get_u64_le() as usize,
            ];
            let origin = Vec3::new(buf.get_f32_le(), buf.get_f32_le(), buf.get_f32_le());
            let spacing = Vec3::new(buf.get_f32_le(), buf.get_f32_le(), buf.get_f32_le());
            let mut grid = UniformGrid::new(dims, origin, spacing)?;
            need(&buf, 4, "attr count")?;
            let n_attr = buf.get_u32_le();
            for _ in 0..n_attr {
                let (name, attr) = get_attr(&mut buf)?;
                grid.set_attribute(&name, attr)?;
            }
            Ok(DataObject::Grid(grid))
        }
        other => Err(DataError::Format(format!("unknown compressed kind {other}"))),
    }
}

/// Compression ratio achieved for a dataset (raw payload / compressed).
pub fn ratio(obj: &DataObject) -> f64 {
    let raw = crate::io::binary::encode(obj).len() as f64;
    let packed = compress(obj).len() as f64;
    raw / packed.max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cloud(n: usize) -> PointCloud {
        let mut pos = Vec::with_capacity(n);
        let mut s = 7u64;
        let mut rnd = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 33) as f64 / (1u64 << 31) as f64) as f32
        };
        for _ in 0..n {
            pos.push(Vec3::new(rnd() * 10.0, rnd() * 4.0 - 2.0, rnd()));
        }
        let mut c = PointCloud::from_positions(pos);
        c.set_attribute(
            "density",
            Attribute::Scalar((0..n).map(|i| (i % 37) as f32 * 0.5).collect()),
        )
        .unwrap();
        c.set_attribute(
            "velocity",
            Attribute::Vector((0..n).map(|i| Vec3::splat((i % 11) as f32 - 5.0)).collect()),
        )
        .unwrap();
        c.set_attribute("id", Attribute::Id((0..n as u64).collect())).unwrap();
        c
    }

    #[test]
    fn roundtrip_error_bounds_hold() {
        let original = cloud(500);
        let obj = DataObject::Points(original.clone());
        let back = decompress(compress(&obj)).unwrap();
        let b = back.as_points().unwrap();
        assert_eq!(b.len(), original.len());
        let extent = original.bounds().extent();
        let tol = Vec3::new(extent.x, extent.y, extent.z) * (1.5 / 65535.0);
        for (p, q) in original.positions().iter().zip(b.positions()) {
            assert!((p.x - q.x).abs() <= tol.x);
            assert!((p.y - q.y).abs() <= tol.y);
            assert!((p.z - q.z).abs() <= tol.z);
        }
        // scalar within range/255
        let orig_s = original.scalar("density").unwrap();
        let back_s = b.scalar("density").unwrap();
        let range = 18.0f32;
        for (x, y) in orig_s.iter().zip(back_s) {
            assert!((x - y).abs() <= range * 1.5 / 255.0, "{x} vs {y}");
        }
        // ids lossless
        assert_eq!(
            original.attribute("id").unwrap().as_id().unwrap(),
            b.attribute("id").unwrap().as_id().unwrap()
        );
    }

    #[test]
    fn compression_actually_compresses() {
        let obj = DataObject::Points(cloud(2_000));
        let r = ratio(&obj);
        // raw: 12B pos + 4B scalar + 12B vector + 8B id = 36 B/particle;
        // packed: 6 + 1 + 3 + 8 = 18 B/particle -> ratio ~2
        assert!(r > 1.7, "ratio {r}");
    }

    #[test]
    fn grid_field_roundtrip() {
        let mut g = UniformGrid::new([6, 5, 4], Vec3::ZERO, Vec3::ONE).unwrap();
        let vals: Vec<f32> = (0..120).map(|i| (i as f32 * 0.37).sin() * 100.0).collect();
        g.set_attribute("t", Attribute::Scalar(vals.clone().into())).unwrap();
        let back = decompress(compress(&DataObject::Grid(g.clone()))).unwrap();
        let bg = back.as_grid().unwrap();
        assert_eq!(bg.dims(), g.dims());
        assert_eq!(bg.origin(), g.origin());
        let back_vals = bg.scalar("t").unwrap();
        for (a, b) in vals.iter().zip(back_vals) {
            assert!((a - b).abs() <= 200.0 * 1.5 / 255.0, "{a} vs {b}");
        }
        // a grid field compresses ~4x (f32 -> u8) once the payload
        // dwarfs the header
        let mut big = UniformGrid::new([16, 16, 16], Vec3::ZERO, Vec3::ONE).unwrap();
        big.set_attribute(
            "t",
            Attribute::Scalar((0..4096).map(|i| (i as f32 * 0.1).cos()).collect()),
        )
        .unwrap();
        assert!(ratio(&DataObject::Grid(big)) > 3.0);
    }

    #[test]
    fn degenerate_inputs_survive() {
        // empty cloud
        let empty = DataObject::Points(PointCloud::new());
        assert_eq!(decompress(compress(&empty)).unwrap().num_elements(), 0);
        // constant field (zero range)
        let flat = {
            let mut c = PointCloud::from_positions(vec![Vec3::ONE; 10]);
            c.set_attribute("k", Attribute::Scalar(vec![5.0; 10].into())).unwrap();
            DataObject::Points(c)
        };
        let back = decompress(compress(&flat)).unwrap();
        let b = back.as_points().unwrap();
        assert!(b.scalar("k").unwrap().iter().all(|&v| v == 5.0));
        assert!(b.positions().iter().all(|&p| (p - Vec3::ONE).length() < 1e-6));
    }

    #[test]
    fn lossless_codec_roundtrips_bit_exactly() {
        let obj = DataObject::Points(cloud(300));
        let back = Codec::Lossless.decode(Codec::Lossless.encode(&obj)).unwrap();
        let (a, b) = (obj.as_points().unwrap(), back.as_points().unwrap());
        assert_eq!(a.positions(), b.positions());
        assert_eq!(a.scalar("density").unwrap(), b.scalar("density").unwrap());
        assert!(Codec::Lossless.is_lossless());
        assert!(!Codec::Quantize.is_lossless());
        // quantize path through the enum matches the free functions
        let q = Codec::Quantize.encode(&obj);
        assert_eq!(q, compress(&obj));
        // and both codecs write the same bytes into a leased buffer
        let pool = PayloadPool::new();
        for codec in [Codec::Quantize, Codec::Lossless] {
            assert_eq!(codec.encode_in(&obj, &pool), codec.encode(&obj));
        }
        assert_eq!(
            Codec::Quantize.decode(q).unwrap().num_elements(),
            obj.num_elements()
        );
    }

    #[test]
    fn codec_roundtrips_through_serde() {
        for c in [Codec::Quantize, Codec::Lossless] {
            let json = serde_json::to_string(&c).unwrap();
            let back: Codec = serde_json::from_str(&json).unwrap();
            assert_eq!(back, c);
        }
    }

    #[test]
    fn corrupt_payloads_rejected() {
        let obj = DataObject::Points(cloud(20));
        let raw = compress(&obj);
        assert!(decompress(Bytes::from_static(b"nope")).is_err());
        let mut bad = raw.to_vec();
        bad[0] = b'X';
        assert!(decompress(Bytes::from(bad)).is_err());
        let truncated = raw.slice(0..raw.len() - 3);
        assert!(decompress(truncated).is_err());
    }
}
