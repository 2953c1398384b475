//! ETH binary data format (`.ebd`).
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic   : b"EBD2"
//! kind    : u8           1 = points, 2 = grid
//! -- points --
//! count   : u64
//! pos     : count * 3 * f32
//! -- grid --
//! dims    : 3 * u64
//! origin  : 3 * f32
//! spacing : 3 * f32
//! -- both --
//! n_attr  : u32
//! per attribute:
//!   name_len : u32, name bytes (utf-8)
//!   type     : u8   0 = scalar, 1 = vector, 2 = id
//!   len      : u64
//!   payload  : len * {4, 12, 8} bytes
//! -- trailer --
//! crc     : u32          CRC-32 (IEEE) of every byte above
//! ```
//!
//! Version 2 (`EBD2`) appends the integrity trailer: [`decode`] verifies
//! the checksum *before* parsing and returns [`DataError::Corrupt`] on a
//! mismatch, so a flipped payload byte — a chaos-injected wire fault, a
//! torn disk write — is detected at the codec layer instead of being
//! parsed into a silently wrong dataset (or rendered). A wrong magic word
//! is still the distinct [`DataError::Format`]: version skew and protocol
//! confusion are framing errors, not corruption. The check order is
//! therefore magic → CRC → parse, always.
//!
//! # Cost
//!
//! Encoding every block every step *is* the loosely-coupled workload the
//! harness measures, so the codec is built to cost a copy and a checksum
//! and nothing else:
//!
//! * [`encode`] allocates [`encoded_len`] bytes once and writes each
//!   payload section (positions, one attribute array) with a single
//!   [`put_slice_le`] — on a little-endian target a `memcpy` of the source
//!   array viewed as bytes. The CRC is taken chunk by chunk as the bytes
//!   go in, not in a second pass over a body that has left the cache.
//! * [`encode_in`] is the same encoder writing into a buffer leased from a
//!   [`PayloadPool`], for callers that encode block after block: a fresh
//!   buffer of tens of megabytes that is filled on one thread and dropped
//!   on another is mapped, zero-filled a page fault at a time and unmapped
//!   again every call, which costs more than the copy and the checksum
//!   together (`benches/codec.rs`, the `threaded` rows; DESIGN.md §20).
//! * [`decode`] makes one CRC pass over the body (it must finish before
//!   any byte is trusted), then one copy per section out of the shared
//!   wire buffer into a fresh, aligned `Vec` ([`read_vec_le`]).
//!
//! The format is little-endian by definition; a big-endian target converts
//! element by element inside [`crate::io::le`], which is also where the
//! codec's one `unsafe` block (the slice-to-bytes view) lives.
//!
//! The encoder's buffer is frozen into a [`bytes::Bytes`] so the same
//! bytes can be shipped over the transport layer without re-serialization.

use crate::crc::{crc32, Crc32};
use crate::dataset::DataObject;
use crate::error::{DataError, Result};
use crate::field::{Attribute, AttributeSet};
use crate::grid::UniformGrid;
use crate::io::le::{put_slice_le, read_vec_le, LeElement};
use crate::io::pool::PayloadPool;
use crate::points::PointCloud;
use crate::vec3::Vec3;
use bytes::{Buf, BufMut, Bytes};
use std::fs::File;
use std::io::{Read as _, Write as _};
use std::path::Path;

const MAGIC: &[u8; 4] = b"EBD2";

/// Bytes appended after the body: the CRC-32 integrity trailer.
const TRAILER_BYTES: usize = 4;

const KIND_POINTS: u8 = 1;
const KIND_GRID: u8 = 2;

const ATTR_SCALAR: u8 = 0;
const ATTR_VECTOR: u8 = 1;
const ATTR_ID: u8 = 2;

/// Bytes checksummed per [`Crc32::update`] while encoding: small enough
/// that a chunk the copy has just read is still in L1/L2 when the checksum
/// reads it again.
const HASH_CHUNK: usize = 64 << 10;

/// The encoder's output: the exact-size buffer plus the CRC-32 of every
/// byte written to it so far, so the trailer costs no second pass over a
/// body that has long left the cache (measured in `benches/codec.rs`: ~10 %
/// of a 32 MiB encode; no difference at 1 MiB).
struct Body<'a> {
    buf: &'a mut Vec<u8>,
    crc: Crc32,
}

impl BufMut for Body<'_> {
    fn put_slice(&mut self, src: &[u8]) {
        for chunk in src.chunks(HASH_CHUNK) {
            self.buf.put_slice(chunk);
            self.crc.update(chunk);
        }
    }
}

/// Attribute header (`type`, `len`) followed by the payload as one
/// section copy.
fn put_payload<T: LeElement>(buf: &mut Body<'_>, ty: u8, v: &[T]) {
    buf.put_u8(ty);
    buf.put_u64_le(v.len() as u64);
    put_slice_le(buf, v);
}

fn put_attributes(buf: &mut Body<'_>, attrs: &AttributeSet) {
    buf.put_u32_le(attrs.len() as u32);
    for (name, attr) in attrs.iter() {
        buf.put_u32_le(name.len() as u32);
        buf.put_slice(name.as_bytes());
        match attr {
            Attribute::Scalar(v) => put_payload(buf, ATTR_SCALAR, v),
            Attribute::Vector(v) => put_payload(buf, ATTR_VECTOR, v),
            Attribute::Id(v) => put_payload(buf, ATTR_ID, v),
        }
    }
}

fn need(buf: &Bytes, n: usize, what: &str) -> Result<()> {
    if buf.remaining() < n {
        Err(DataError::Format(format!("truncated {what}")))
    } else {
        Ok(())
    }
}

/// Wire size of the smallest attribute: name length, type, element count.
const MIN_ATTR_BYTES: usize = 4 + 1 + 8;

/// Decode a `len`-element payload section off the front of `buf`.
/// `Bytes::split_to` shares the allocation, so the section views the wire
/// buffer directly; the element conversion is the only copy.
fn take<T: LeElement>(buf: &mut Bytes, len: usize, what: &str) -> Result<Vec<T>> {
    let bytes = len
        .checked_mul(T::BYTES)
        .ok_or_else(|| DataError::Format(format!("{what} length overflow")))?;
    need(buf, bytes, what)?;
    Ok(read_vec_le(&buf.split_to(bytes)))
}

/// Decode the attribute section. Returns owned `(name, attribute)` pairs so
/// the caller can move them into the dataset instead of cloning.
fn get_attributes(buf: &mut Bytes) -> Result<Vec<(String, Attribute)>> {
    need(buf, 4, "attribute count")?;
    let n_attr = buf.get_u32_le() as usize;
    // The count is wire data: the bytes present bound the table, so a
    // lying count ends in a truncation error below, not in an abort.
    let mut attrs = Vec::with_capacity(n_attr.min(buf.remaining() / MIN_ATTR_BYTES));
    for _ in 0..n_attr {
        need(buf, 4, "attribute name length")?;
        let name_len = buf.get_u32_le() as usize;
        need(buf, name_len, "attribute name")?;
        let name_bytes = buf.split_to(name_len);
        let name = std::str::from_utf8(&name_bytes)
            .map_err(|_| DataError::Format("attribute name is not utf-8".into()))?
            .to_string();
        need(buf, 9, "attribute header")?;
        let ty = buf.get_u8();
        let len = buf.get_u64_le() as usize;
        let attr = match ty {
            ATTR_SCALAR => Attribute::Scalar(take(buf, len, "scalar payload")?),
            ATTR_VECTOR => Attribute::Vector(take(buf, len, "vector payload")?),
            ATTR_ID => Attribute::Id(take(buf, len, "id payload")?),
            other => {
                return Err(DataError::Format(format!("unknown attribute type {other}")))
            }
        };
        attrs.push((name, attr));
    }
    Ok(attrs)
}

fn attributes_encoded_len(attrs: &AttributeSet) -> usize {
    4 + attrs
        .iter()
        .map(|(name, attr)| {
            4 + name.len()
                + 9
                + match attr {
                    Attribute::Scalar(v) => v.len() * f32::BYTES,
                    Attribute::Vector(v) => v.len() * Vec3::BYTES,
                    Attribute::Id(v) => v.len() * u64::BYTES,
                }
        })
        .sum::<usize>()
}

/// Exact size of [`encode`]'s output for `obj`, from the format layout in
/// the module docs. Lets the encoder allocate once with no slack and no
/// mid-encode growth copies.
pub fn encoded_len(obj: &DataObject) -> usize {
    5 + match obj {
        DataObject::Points(p) => 8 + p.len() * Vec3::BYTES + attributes_encoded_len(p.attributes()),
        DataObject::Grid(g) => 24 + 24 + attributes_encoded_len(g.attributes()),
    } + TRAILER_BYTES
}

/// Encode a dataset into a fresh byte buffer.
pub fn encode(obj: &DataObject) -> Bytes {
    let mut buf = Vec::with_capacity(encoded_len(obj));
    write(obj, &mut buf);
    Bytes::from(buf)
}

/// [`encode`], byte for byte, into a buffer leased from `pool`; the buffer
/// goes back to the pool when the last handle to the returned bytes drops.
pub fn encode_in(obj: &DataObject, pool: &PayloadPool) -> Bytes {
    let mut lease = pool.lease(encoded_len(obj));
    write(obj, lease.vec());
    lease.freeze()
}

/// The encoder: appends `obj`'s [`encoded_len`] bytes to the empty `buf`.
fn write(obj: &DataObject, buf: &mut Vec<u8>) {
    let mut body = Body {
        buf,
        crc: Crc32::new(),
    };
    body.put_slice(MAGIC);
    match obj {
        DataObject::Points(p) => {
            body.put_u8(KIND_POINTS);
            body.put_u64_le(p.len() as u64);
            put_slice_le(&mut body, p.positions());
            put_attributes(&mut body, p.attributes());
        }
        DataObject::Grid(g) => {
            body.put_u8(KIND_GRID);
            for d in g.dims() {
                body.put_u64_le(d as u64);
            }
            put_slice_le(&mut body, &[g.origin(), g.spacing()]);
            put_attributes(&mut body, g.attributes());
        }
    }
    let Body { buf, crc } = body;
    buf.put_u32_le(crc.finish());
    debug_assert_eq!(
        buf.len(),
        encoded_len(obj),
        "encoded_len out of sync with encode"
    );
}

/// Decode a dataset from bytes produced by [`encode`].
///
/// Check order: magic first (wrong magic is a [`DataError::Format`] —
/// version skew, not bit rot), then the CRC-32 trailer over the whole
/// body ([`DataError::Corrupt`] on mismatch), and only then the parse.
/// A corrupted buffer therefore never reaches the structural decoder.
pub fn decode(buf: Bytes) -> Result<DataObject> {
    need(&buf, 5, "header")?;
    if &buf[..4] != MAGIC {
        return Err(DataError::Format(format!(
            "bad magic {:?}, expected {MAGIC:?}",
            &buf[..4]
        )));
    }
    need(&buf, 5 + TRAILER_BYTES, "integrity trailer")?;
    let body_len = buf.len() - TRAILER_BYTES;
    let stored = u32::from_le_bytes([
        buf[body_len],
        buf[body_len + 1],
        buf[body_len + 2],
        buf[body_len + 3],
    ]);
    let computed = crc32(&buf[..body_len]);
    if stored != computed {
        return Err(DataError::Corrupt(format!(
            "dataset checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
        )));
    }
    // body minus the (verified) magic and the trailer, sharing the
    // allocation
    let mut buf = buf.slice(4..body_len);
    match buf.get_u8() {
        KIND_POINTS => {
            need(&buf, 8, "point count")?;
            let count = buf.get_u64_le() as usize;
            let mut cloud = PointCloud::from_positions(take(&mut buf, count, "positions")?);
            for (name, attr) in get_attributes(&mut buf)? {
                cloud.set_attribute(&name, attr)?;
            }
            Ok(DataObject::Points(cloud))
        }
        KIND_GRID => {
            need(&buf, 24, "grid dims")?;
            let dims = [
                buf.get_u64_le() as usize,
                buf.get_u64_le() as usize,
                buf.get_u64_le() as usize,
            ];
            let geometry: Vec<Vec3> = take(&mut buf, 2, "grid origin and spacing")?;
            let mut grid = UniformGrid::new(dims, geometry[0], geometry[1])?;
            for (name, attr) in get_attributes(&mut buf)? {
                grid.set_attribute(&name, attr)?;
            }
            Ok(DataObject::Grid(grid))
        }
        other => Err(DataError::Format(format!("unknown dataset kind {other}"))),
    }
}

/// Write a dataset to a `.ebd` file.
pub fn write_file(obj: &DataObject, path: &Path) -> Result<()> {
    let bytes = encode(obj);
    let mut f = File::create(path)?;
    f.write_all(&bytes)?;
    Ok(())
}

/// Read a dataset from a `.ebd` file.
pub fn read_file(path: &Path) -> Result<DataObject> {
    let mut f = File::open(path)?;
    let mut v = Vec::new();
    f.read_to_end(&mut v)?;
    decode(Bytes::from(v))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_points() -> DataObject {
        let mut c = PointCloud::from_positions(vec![
            Vec3::new(0.5, 1.5, 2.5),
            Vec3::new(-1.0, 0.0, 3.0),
        ]);
        c.set_attribute("mass", Attribute::Scalar(vec![1.0, 2.0])).unwrap();
        c.set_attribute(
            "vel",
            Attribute::Vector(vec![Vec3::ONE, Vec3::new(0.0, -1.0, 0.5)]),
        )
        .unwrap();
        c.set_attribute("id", Attribute::Id(vec![42, 7])).unwrap();
        DataObject::Points(c)
    }

    fn sample_grid() -> DataObject {
        let mut g =
            UniformGrid::new([3, 2, 2], Vec3::new(1.0, 2.0, 3.0), Vec3::splat(0.5)).unwrap();
        g.set_attribute(
            "temp",
            Attribute::Scalar((0..12).map(|i| i as f32 * 0.25).collect()),
        )
        .unwrap();
        DataObject::Grid(g)
    }

    fn unhex(hex: &str) -> Vec<u8> {
        (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
            .collect()
    }

    #[test]
    fn golden_bytes_are_frozen() {
        // `EBD2` as the byte-at-a-time encoder wrote it before the bulk
        // copies and the word-parallel CRC: a point cloud with a scalar, a
        // vector and an id attribute, and a grid. Spills, time-series
        // blocks and anything a peer ships must keep decoding, so these
        // bytes may never change.
        let points = "454244320102000000000000000000003f0000c03f00002040000080bf00000000\
                      0000404003000000040000006d6173730002000000000000000000803f00000040\
                      0300000076656c0102000000000000000000803f0000803f0000803f0000000000\
                      0080bf0000003f0200000069640202000000000000002a00000000000000070000\
                      0000000000e8d3d642";
        let grid = "45424432020300000000000000020000000000000002000000000000000000803f\
                    00000040000040400000003f0000003f0000003f010000000400000074656d7000\
                    0c00000000000000000000000000803e0000003f0000403f0000803f0000a03f00\
                    00c03f0000e03f0000004000001040000020400000304067e536db";
        for (obj, hex) in [(sample_points(), points), (sample_grid(), grid)] {
            let golden = unhex(hex);
            assert_eq!(encode(&obj).to_vec(), golden);
            assert_eq!(decode(Bytes::from(golden)).unwrap(), obj);
        }
    }

    #[test]
    fn awkward_bit_patterns_roundtrip_exactly() {
        // A bulk copy moves bits, not values: NaNs keep their payload and
        // sign, -0.0 stays negative, subnormals are not flushed, and ids
        // keep all 64 bits. `PartialEq` cannot see any of that (NaN != NaN,
        // -0.0 == 0.0), so compare bit patterns.
        let floats: Vec<f32> = [
            0x7FC1_2345u32, // quiet NaN, non-canonical payload
            0x7F80_0001,    // signalling NaN
            0xFFFF_FFFF,    // negative NaN, every payload bit
            0x8000_0000,    // -0.0
            0x0000_0001,    // smallest subnormal
            0x807F_FFFF,    // largest-magnitude negative subnormal
        ]
        .into_iter()
        .map(f32::from_bits)
        .collect();
        let vecs: Vec<Vec3> = (0..floats.len())
            .map(|i| Vec3::new(floats[i], floats[(i + 1) % 6], floats[(i + 2) % 6]))
            .collect();
        let ids = vec![u64::MAX, 0, 1 << 63, u64::MAX - 1, 0x0102_0304_0506_0708, 1];

        let mut cloud = PointCloud::from_positions(vecs.clone());
        cloud
            .set_attribute("s", Attribute::Scalar(floats.clone()))
            .unwrap();
        cloud
            .set_attribute("v", Attribute::Vector(vecs.clone()))
            .unwrap();
        cloud
            .set_attribute("id", Attribute::Id(ids.clone()))
            .unwrap();
        let encoded = encode(&DataObject::Points(cloud));
        let DataObject::Points(back) = decode(encoded.clone()).unwrap() else {
            panic!("decoded to a different kind");
        };

        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let vec_bits = |v: &[Vec3]| {
            v.iter()
                .flat_map(|p| bits(&p.to_array()))
                .collect::<Vec<_>>()
        };
        assert_eq!(vec_bits(back.positions()), vec_bits(&vecs));
        match back.attribute("s") {
            Some(Attribute::Scalar(s)) => assert_eq!(bits(s), bits(&floats)),
            other => panic!("scalar attribute came back as {other:?}"),
        }
        match back.attribute("v") {
            Some(Attribute::Vector(v)) => assert_eq!(vec_bits(v), vec_bits(&vecs)),
            other => panic!("vector attribute came back as {other:?}"),
        }
        assert_eq!(back.attribute("id"), Some(&Attribute::Id(ids)));
        // and re-encoding the decoded object reproduces the bytes
        assert_eq!(encode(&DataObject::Points(back)), encoded);
    }

    #[test]
    fn points_roundtrip_in_memory() {
        let obj = sample_points();
        let back = decode(encode(&obj)).unwrap();
        assert_eq!(obj, back);
    }

    #[test]
    fn grid_roundtrip_in_memory() {
        let obj = sample_grid();
        let back = decode(encode(&obj)).unwrap();
        assert_eq!(obj, back);
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("eth-data-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("points.ebd");
        let obj = sample_points();
        write_file(&obj, &path).unwrap();
        let back = read_file(&path).unwrap();
        assert_eq!(obj, back);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn encoded_len_is_exact() {
        for obj in [
            sample_points(),
            sample_grid(),
            DataObject::Points(PointCloud::new()),
        ] {
            assert_eq!(encode(&obj).len(), encoded_len(&obj));
        }
    }

    #[test]
    fn encode_in_writes_the_bytes_encode_writes() {
        // one encoder, two places the buffer can come from: under the
        // pool's floor (a plain allocation) and above it (a parked buffer
        // with a previous block's capacity)
        let big = {
            let n = crate::io::pool::FLOOR_BYTES / 12 + 1;
            let mut c = PointCloud::from_positions(vec![Vec3::new(1.0, -2.0, 0.5); n]);
            c.set_attribute("id", Attribute::Id((0..n as u64).collect()))
                .unwrap();
            DataObject::Points(c)
        };
        let pool = PayloadPool::new();
        for obj in [
            sample_points(),
            sample_grid(),
            DataObject::Points(PointCloud::new()),
            big.clone(),
            big,
        ] {
            let leased = encode_in(&obj, &pool);
            assert_eq!(leased, encode(&obj));
            assert_eq!(decode(leased).unwrap(), obj);
        }
        let stats = pool.stats();
        assert_eq!((stats.leased, stats.fresh, stats.returned), (2, 1, 2));
    }

    #[test]
    fn rejects_wrong_attribute_length() {
        // Corrupt a scalar attribute's length field: the integrity trailer
        // catches the flip before the structural parse even runs.
        let obj = sample_points();
        let raw = encode(&obj).to_vec();
        // The first attribute ("mass") starts after magic(4) + kind(1) +
        // count(8) + 2 positions(24) + n_attr(4) = 41; its header is
        // name_len(4) + "mass"(4) + type(1), then len: u64 at offset 50.
        let mut bad = raw.clone();
        bad[50] = 1; // claim 1 element instead of 2
        assert!(matches!(
            decode(Bytes::from(bad)),
            Err(DataError::Corrupt(_))
        ));
    }

    #[test]
    fn any_payload_byte_flip_is_detected_as_corruption() {
        // The acceptance property: flipping ANY byte past the magic makes
        // decode fail with the corruption error (the magic bytes instead
        // fail as Format — version skew, not bit rot).
        for obj in [sample_points(), sample_grid()] {
            let raw = encode(&obj).to_vec();
            for offset in 0..raw.len() {
                let mut bad = raw.clone();
                bad[offset] ^= 0x01;
                match decode(Bytes::from(bad)) {
                    Err(DataError::Format(_)) if offset < 4 => {}
                    Err(DataError::Corrupt(_)) if offset >= 4 => {}
                    other => panic!("flip at {offset}: unexpected {other:?}"),
                }
            }
        }
    }

    #[test]
    fn trailer_stripped_before_parse() {
        // A valid buffer must decode with the trailer present (i.e. the
        // trailer is not mistaken for attribute data).
        let obj = sample_grid();
        let bytes = encode(&obj);
        assert_eq!(bytes.len(), encoded_len(&obj));
        assert_eq!(decode(bytes).unwrap(), obj);
    }

    #[test]
    fn rejects_bad_magic() {
        let mut raw = encode(&sample_points()).to_vec();
        raw[0] = b'X';
        assert!(matches!(
            decode(Bytes::from(raw)),
            Err(DataError::Format(_))
        ));
    }

    #[test]
    fn rejects_truncation_everywhere() {
        let full = encode(&sample_points()).to_vec();
        // Chop at a spread of offsets; every prefix must fail cleanly,
        // never panic.
        for cut in [0, 3, 4, 5, 12, 13, 20, full.len() - 1] {
            let r = decode(Bytes::from(full[..cut].to_vec()));
            assert!(r.is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn rejects_unknown_kind() {
        let mut raw = encode(&sample_grid()).to_vec();
        raw[4] = 99;
        assert!(decode(Bytes::from(raw)).is_err());
    }

    #[test]
    fn empty_cloud_roundtrips() {
        let obj = DataObject::Points(PointCloud::new());
        let back = decode(encode(&obj)).unwrap();
        assert_eq!(obj, back);
    }
}
