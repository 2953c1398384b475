//! ETH binary data format (`.ebd`).
//!
//! Layout (all integers little-endian; offsets count from the first magic
//! byte):
//!
//! ```text
//! magic   : b"EBD3"
//! kind    : u8           1 = points, 2 = grid
//! -- points --
//! count   : u64
//! pad     : zero bytes up to a multiple of 4
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
//!   pad      : zero bytes up to a multiple of the element's alignment
//!              (4 for scalar and vector, 8 for id)
//!   payload  : len * {4, 12, 8} bytes
//! -- trailer --
//! crc     : u32          CRC-32 (IEEE) of every byte above, pads included
//! ```
//!
//! Every array starts at a multiple of its element's alignment
//! ([`LeElement::ALIGN`]), so in a buffer whose first byte is 8-aligned
//! ([`AlignedBuf`]) each one can be read where it lies. The pads are
//! always the fewest bytes that get there and always zero — a non-zero
//! pad behind a valid checksum is [`DataError::Format`] — so each dataset
//! has exactly one encoding.
//!
//! [`decode`] checks in a fixed order: magic ([`DataError::Format`] —
//! version skew and protocol confusion are framing errors, so `EBD2`, the
//! unpadded layout before this one, is refused here), then the CRC-32
//! trailer over the whole body ([`DataError::Corrupt`] on a mismatch: a
//! flipped byte, a chaos-injected wire fault or a torn disk write is
//! caught before any byte is trusted), then the header, every length
//! against the bytes present, every pad, and the grid's shape. Only then
//! are the arrays handed out.
//!
//! # Cost
//!
//! Encoding every block every step *is* the loosely-coupled workload the
//! harness measures, so the codec costs a copy and a checksum to encode,
//! and a checksum to decode:
//!
//! * [`encode`] allocates [`encoded_len`] bytes once, 8-aligned, and
//!   writes each payload section (positions, one attribute array) with a
//!   single [`put_slice_le`] — a `memcpy` of the source array viewed as
//!   bytes. The CRC is taken chunk by chunk as the bytes go in, not in a
//!   second pass over a body that has left the cache.
//! * [`encode_in`] is the same encoder writing into a buffer leased from a
//!   [`PayloadPool`], for callers that encode block after block: a fresh
//!   buffer of tens of megabytes that is filled on one thread and dropped
//!   on another is mapped, zero-filled a page fault at a time and unmapped
//!   again every call, which costs more than the copy and the checksum
//!   together (`benches/codec.rs`, the `threaded` rows; DESIGN.md §20).
//! * [`decode`] makes one CRC pass over the body and parses a header of a
//!   few dozen bytes per attribute. The positions and attribute arrays it
//!   returns are views ([`Array::view`]) of the payload's own bytes: it
//!   allocates nothing that grows with the element count, and the
//!   payload's owner (a received frame, a pool lease, a file read back)
//!   lives until the last view drops. A payload whose first byte is not
//!   8-aligned — none of the buffers this workspace fills, but any
//!   `Bytes` may be passed in — is copied once into an [`AlignedBuf`] and
//!   then takes the same path.
//!
//! The format is little-endian by definition, and so is every target the
//! crate builds for ([`crate::io::le`]).
//!
//! # What is written
//!
//! There is one writer, and it takes a [`Fields`]: the geometry always,
//! and of the attributes only those the selection carries, in the set's
//! order. A block crossing the in-situ interface carries what its
//! pipeline reads ([`Fields::Only`] the colouring field); [`encode`],
//! [`encoded_len`] and files are the [`Fields::All`] case of the same
//! writer. The bytes are an ordinary `EBD3` block either way — a block
//! whose other attributes were never there — so [`decode`] does not know
//! the difference and gives back [`DataObject::select`] of the source.

use crate::array::Array;
use crate::crc::{crc32, Crc32};
use crate::dataset::DataObject;
use crate::error::{DataError, Result};
use crate::field::{Attribute, AttributeSet, Fields};
use crate::grid::UniformGrid;
use crate::io::aligned::{AlignedBuf, ALIGN};
use crate::io::le::{put_slice_le, LeElement};
use crate::io::pool::PayloadPool;
use crate::points::PointCloud;
use crate::vec3::Vec3;
use bytes::{BufMut, Bytes};
use std::fs::File;
use std::io::Write as _;
use std::path::Path;

const MAGIC: &[u8; 4] = b"EBD3";

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

/// The zero bytes a pad is cut from (no element aligns wider than this).
const ZEROS: [u8; ALIGN] = [0; ALIGN];

/// Offset of the first array byte at or after `at` for elements `T`.
fn aligned_for<T: LeElement>(at: usize) -> usize {
    at.next_multiple_of(T::ALIGN)
}

/// The encoder's output: the exact-size buffer plus the CRC-32 of every
/// byte written to it so far, so the trailer costs no second pass over a
/// body that has long left the cache (measured in `benches/codec.rs`: ~10 %
/// of a 32 MiB encode; no difference at 1 MiB).
struct Body<'a> {
    buf: &'a mut AlignedBuf,
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

impl Body<'_> {
    /// Zero pad, then `v` as one section copy.
    fn put_array<T: LeElement>(&mut self, v: &[T]) {
        let at = self.buf.len();
        self.put_slice(&ZEROS[..aligned_for::<T>(at) - at]);
        put_slice_le(self, v);
    }

    /// Attribute header (`type`, `len`), then the array.
    fn put_payload<T: LeElement>(&mut self, ty: u8, v: &[T]) {
        self.put_u8(ty);
        self.put_u64_le(v.len() as u64);
        self.put_array(v);
    }

    fn put_attributes(&mut self, attrs: &AttributeSet, fields: Fields) {
        self.put_u32_le(attrs.selected(fields).count() as u32);
        for (name, attr) in attrs.selected(fields) {
            self.put_u32_le(name.len() as u32);
            self.put_slice(name.as_bytes());
            match attr {
                Attribute::Scalar(v) => self.put_payload(ATTR_SCALAR, v),
                Attribute::Vector(v) => self.put_payload(ATTR_VECTOR, v),
                Attribute::Id(v) => self.put_payload(ATTR_ID, v),
            }
        }
    }
}

/// End offset of an array of `n` elements `T` whose pad starts at `at`.
fn array_end<T: LeElement>(at: usize, n: usize) -> usize {
    aligned_for::<T>(at) + n * T::BYTES
}

/// End offset of the attribute section starting at `at`.
fn attributes_end(at: usize, attrs: &AttributeSet, fields: Fields) -> usize {
    attrs.selected(fields).fold(at + 4, |at, (name, attr)| {
        let at = at + 4 + name.len() + 9;
        match attr {
            Attribute::Scalar(v) => array_end::<f32>(at, v.len()),
            Attribute::Vector(v) => array_end::<Vec3>(at, v.len()),
            Attribute::Id(v) => array_end::<u64>(at, v.len()),
        }
    })
}

/// Exact size of [`encode`]'s output for `obj`: [`selected_len`] of
/// every attribute.
pub fn encoded_len(obj: &DataObject) -> usize {
    selected_len(obj, Fields::All)
}

/// Exact size of the encoding of `obj`'s geometry and the attributes
/// `fields` carries, from the format layout in the module docs. Lets the
/// encoder allocate once with no slack and no mid-encode growth copies.
pub fn selected_len(obj: &DataObject, fields: Fields) -> usize {
    let body = match obj {
        DataObject::Points(p) => {
            attributes_end(array_end::<Vec3>(5 + 8, p.len()), p.attributes(), fields)
        }
        DataObject::Grid(g) => attributes_end(5 + 24 + 24, g.attributes(), fields),
    };
    body + TRAILER_BYTES
}

/// Encode a dataset, every attribute, into a fresh, 8-aligned byte buffer.
pub fn encode(obj: &DataObject) -> Bytes {
    let mut buf = AlignedBuf::with_capacity(encoded_len(obj));
    write(obj, Fields::All, &mut buf);
    buf.freeze()
}

/// `obj`'s geometry and the attributes `fields` carries, encoded into a
/// buffer leased from `pool` ([`encode`], byte for byte, under
/// [`Fields::All`]); the buffer goes back to the pool when the last handle
/// to the returned bytes — and the last array decoded from them — drops.
pub fn encode_in(obj: &DataObject, fields: Fields, pool: &PayloadPool) -> Bytes {
    let mut lease = pool.lease(selected_len(obj, fields));
    write(obj, fields, lease.buf());
    lease.freeze()
}

/// The encoder: appends the [`selected_len`] bytes of `obj` under `fields`
/// to the empty `buf`.
fn write(obj: &DataObject, fields: Fields, buf: &mut AlignedBuf) {
    let mut body = Body {
        buf,
        crc: Crc32::new(),
    };
    body.put_slice(MAGIC);
    match obj {
        DataObject::Points(p) => {
            body.put_u8(KIND_POINTS);
            body.put_u64_le(p.len() as u64);
            body.put_array(p.positions());
            body.put_attributes(p.attributes(), fields);
        }
        DataObject::Grid(g) => {
            body.put_u8(KIND_GRID);
            for d in g.dims() {
                body.put_u64_le(d as u64);
            }
            put_slice_le(&mut body, &[g.origin(), g.spacing()]);
            body.put_attributes(g.attributes(), fields);
        }
    }
    let Body { buf, crc } = body;
    buf.put_u32_le(crc.finish());
    debug_assert_eq!(
        buf.len(),
        selected_len(obj, fields),
        "selected_len out of sync with write"
    );
}

/// Wire size of the smallest attribute: name length, type, element count.
const MIN_ATTR_BYTES: usize = 4 + 1 + 8;

/// The structural parse: a cursor over a checksummed body that hands out
/// header fields by value and arrays as views of `bytes`.
struct Reader<'a> {
    bytes: &'a Bytes,
    at: usize,
    /// Where the body ends (the trailer is not parsed).
    end: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        if self.end - self.at < n {
            return Err(DataError::Format(format!("truncated {what}")));
        }
        let bytes: &'a [u8] = self.bytes;
        self.at += n;
        Ok(&bytes[self.at - n..self.at])
    }

    fn u8(&mut self, what: &str) -> Result<u8> {
        Ok(self.take(1, what)?[0])
    }

    fn u32(&mut self, what: &str) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self, what: &str) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().expect("8 bytes")))
    }

    fn len(&mut self, what: &str) -> Result<usize> {
        let len = self.u64(what)?;
        usize::try_from(len).map_err(|_| DataError::Format(format!("{what} {len} overflows")))
    }

    fn vec3(&mut self, what: &str) -> Result<Vec3> {
        Ok(Vec3::read_le(self.take(Vec3::BYTES, what)?))
    }

    /// The pad in front of an array of `T`, then its `len` elements as a
    /// view of the payload.
    fn array<T: LeElement>(&mut self, len: usize, what: &str) -> Result<Array<T>> {
        let pad = aligned_for::<T>(self.at) - self.at;
        if self.take(pad, what)?.iter().any(|&b| b != 0) {
            return Err(DataError::Format(format!("non-zero pad before {what}")));
        }
        let n = len
            .checked_mul(T::BYTES)
            .ok_or_else(|| DataError::Format(format!("{what} length overflow")))?;
        self.take(n, what)?;
        Array::view(self.bytes.slice(self.at - n..self.at))
            .ok_or_else(|| DataError::Format(format!("{what} is not aligned")))
    }

    /// The attribute section, as owned `(name, attribute)` pairs the
    /// caller moves into the dataset.
    fn attributes(&mut self) -> Result<Vec<(String, Attribute)>> {
        let n_attr = self.u32("attribute count")? as usize;
        // The count is wire data: the bytes present bound the table, so a
        // lying count ends in a truncation error below, not in an abort.
        let mut attrs = Vec::with_capacity(n_attr.min((self.end - self.at) / MIN_ATTR_BYTES));
        for _ in 0..n_attr {
            let name_len = self.u32("attribute name length")? as usize;
            let name = std::str::from_utf8(self.take(name_len, "attribute name")?)
                .map_err(|_| DataError::Format("attribute name is not utf-8".into()))?
                .to_string();
            let ty = self.u8("attribute header")?;
            let len = self.len("attribute header")?;
            let attr = match ty {
                ATTR_SCALAR => Attribute::Scalar(self.array(len, "scalar payload")?),
                ATTR_VECTOR => Attribute::Vector(self.array(len, "vector payload")?),
                ATTR_ID => Attribute::Id(self.array(len, "id payload")?),
                other => {
                    return Err(DataError::Format(format!("unknown attribute type {other}")))
                }
            };
            attrs.push((name, attr));
        }
        Ok(attrs)
    }
}

/// Decode a dataset from bytes produced by [`encode`] or [`encode_in`].
/// The arrays of the result view `buf` (see the module docs for the checks
/// and the cost).
pub fn decode(buf: Bytes) -> Result<DataObject> {
    let buf = if (buf.as_ptr() as usize).is_multiple_of(ALIGN) {
        buf
    } else {
        AlignedBuf::copy_from_slice(&buf).freeze()
    };
    if buf.len() < 5 {
        return Err(DataError::Format("truncated header".into()));
    }
    if &buf[..4] != MAGIC {
        return Err(DataError::Format(format!(
            "bad magic {:?}, expected {MAGIC:?}",
            &buf[..4]
        )));
    }
    if buf.len() < 5 + TRAILER_BYTES {
        return Err(DataError::Format("truncated integrity trailer".into()));
    }
    let end = buf.len() - TRAILER_BYTES;
    let stored = u32::from_le_bytes(buf[end..].try_into().expect("4-byte trailer"));
    let computed = crc32(&buf[..end]);
    if stored != computed {
        return Err(DataError::Corrupt(format!(
            "dataset checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
        )));
    }
    let mut r = Reader {
        bytes: &buf,
        at: 4,
        end,
    };
    let obj = match r.u8("header")? {
        KIND_POINTS => {
            let count = r.len("point count")?;
            let mut cloud = PointCloud::from_positions(r.array::<Vec3>(count, "positions")?);
            for (name, attr) in r.attributes()? {
                cloud.set_attribute(&name, attr)?;
            }
            DataObject::Points(cloud)
        }
        KIND_GRID => {
            let dims = [r.len("grid dims")?, r.len("grid dims")?, r.len("grid dims")?];
            let origin = r.vec3("grid origin")?;
            let spacing = r.vec3("grid spacing")?;
            let mut grid = UniformGrid::new(dims, origin, spacing)?;
            for (name, attr) in r.attributes()? {
                grid.set_attribute(&name, attr)?;
            }
            DataObject::Grid(grid)
        }
        other => return Err(DataError::Format(format!("unknown dataset kind {other}"))),
    };
    Ok(obj)
}

/// Write a dataset to a `.ebd` file.
pub fn write_file(obj: &DataObject, path: &Path) -> Result<()> {
    let bytes = encode(obj);
    let mut f = File::create(path)?;
    f.write_all(&bytes)?;
    Ok(())
}

/// A file's bytes in an 8-aligned buffer, ready for [`decode`] to view.
pub fn read_bytes(path: &Path) -> Result<Bytes> {
    let mut f = File::open(path)?;
    let len = f.metadata()?.len() as usize;
    Ok(AlignedBuf::read_to_end(&mut f, len)?.freeze())
}

/// Read a dataset from a `.ebd` file; its arrays view the file's bytes.
pub fn read_file(path: &Path) -> Result<DataObject> {
    decode(read_bytes(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_points() -> DataObject {
        let mut c = PointCloud::from_positions(vec![
            Vec3::new(0.5, 1.5, 2.5),
            Vec3::new(-1.0, 0.0, 3.0),
        ]);
        c.set_attribute("mass", Attribute::Scalar(vec![1.0, 2.0].into())).unwrap();
        c.set_attribute(
            "vel",
            Attribute::Vector(vec![Vec3::ONE, Vec3::new(0.0, -1.0, 0.5)].into()),
        )
        .unwrap();
        c.set_attribute("id", Attribute::Id(vec![42, 7].into())).unwrap();
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

    /// The golden objects as `EBD2`, the unpadded layout before `EBD3`.
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

    #[test]
    fn golden_bytes_are_frozen() {
        // `EBD3`: a point cloud with a scalar, a vector and an id
        // attribute, and a grid. Each array sits behind the fewest zero
        // bytes that align it (3 before the positions, 3 before "mass", 1
        // before "id", 2 before "temp"; the vectors need none). Spills,
        // series blocks and anything a peer ships must keep decoding, so
        // these bytes change only with the magic.
        let points = "454244330102000000000000000000000000003f0000c03f00002040000080bf\
                      000000000000404003000000040000006d617373000200000000000000000000\
                      0000803f000000400300000076656c0102000000000000000000803f0000803f\
                      0000803f00000000000080bf0000003f02000000696402020000000000000000\
                      2a000000000000000700000000000000a5c742a0";
        let grid = "45424433020300000000000000020000000000000002000000000000000000803f\
                    00000040000040400000003f0000003f0000003f010000000400000074656d7000\
                    0c000000000000000000000000000000803e0000003f0000403f0000803f0000a0\
                    3f0000c03f0000e03f00000040000010400000204000003040844cda8e";
        for (obj, hex) in [(sample_points(), points), (sample_grid(), grid)] {
            let golden = unhex(hex);
            assert_eq!(encode(&obj).to_vec(), golden);
            assert_eq!(decode(Bytes::from(golden)).unwrap(), obj);
        }
        // the layout before this one is version skew, not a dataset
        for hex in EBD2_GOLDEN {
            assert!(matches!(
                decode(Bytes::from(unhex(hex))),
                Err(DataError::Format(_))
            ));
        }
    }

    #[test]
    fn a_non_zero_pad_is_a_format_error() {
        // each pad of the golden cloud, set behind a recomputed checksum:
        // one dataset, one encoding
        let raw = encode(&sample_points()).to_vec();
        for pad in [13, 14, 15, 61, 62, 63, 127] {
            assert_eq!(raw[pad], 0, "offset {pad} is a pad byte");
            let mut bad = raw.clone();
            bad[pad] = 1;
            let end = bad.len() - TRAILER_BYTES;
            let crc = crc32(&bad[..end]);
            bad[end..].copy_from_slice(&crc.to_le_bytes());
            assert!(
                matches!(decode(Bytes::from(bad)), Err(DataError::Format(_))),
                "pad byte {pad}"
            );
        }
    }

    #[test]
    fn decoded_arrays_view_the_payload_at_any_base_offset() {
        let obj = sample_points();
        let raw = encode(&obj);
        let range = raw.as_ptr_range();
        let DataObject::Points(back) = decode(raw.clone()).unwrap() else {
            panic!("decoded to a different kind");
        };
        // an aligned payload is viewed, not copied
        assert!(back.positions().as_ptr_range().start >= range.start.cast());
        assert!(back.positions().as_ptr_range().end <= range.end.cast());
        for (_, attr) in back.attributes().iter() {
            let bytes = match attr {
                Attribute::Scalar(v) => v.as_ptr().cast::<u8>(),
                Attribute::Vector(v) => v.as_ptr().cast(),
                Attribute::Id(v) => v.as_ptr().cast(),
            };
            assert!(range.contains(&bytes));
        }
        // any other base is copied once and decodes the same
        for offset in 0..8 {
            let mut shifted = AlignedBuf::zeroed(offset);
            shifted.extend_from_slice(&raw);
            let shifted = shifted.freeze().slice(offset..);
            assert_eq!(shifted.as_ptr() as usize % ALIGN, offset);
            assert_eq!(decode(shifted).unwrap(), obj, "base offset {offset}");
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
            .set_attribute("s", Attribute::Scalar(floats.clone().into()))
            .unwrap();
        cloud
            .set_attribute("v", Attribute::Vector(vecs.clone().into()))
            .unwrap();
        cloud
            .set_attribute("id", Attribute::Id(ids.clone().into()))
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
        assert_eq!(back.attribute("id"), Some(&Attribute::Id(ids.into())));
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
            let leased = encode_in(&obj, Fields::All, &pool);
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
        // count(8) + pad(3) + 2 positions(24) + n_attr(4) = 44; its header
        // is name_len(4) + "mass"(4) + type(1), then len: u64 at offset 53.
        let mut bad = raw.clone();
        bad[53] = 1; // claim 1 element instead of 2
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
