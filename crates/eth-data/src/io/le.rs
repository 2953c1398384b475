//! Bulk little-endian payload copies.
//!
//! Every array the harness persists or ships — `.ebd` positions and
//! attributes ([`super::binary`]), the raw `f32` pixels of a journaled
//! result — is a run of `f32`, [`Vec3`] or `u64` elements, little-endian,
//! no padding. On a little-endian target that *is* the elements' in-memory
//! representation, so writing a section is one `memcpy` of the source
//! slice viewed as bytes ([`put_slice_le`]); a big-endian target converts
//! element by element. Reading goes through `from_le_bytes` on every
//! target ([`read_vec_le`]): the source bytes have no alignment, so they
//! cannot be viewed as elements, and the per-element loop into a fresh
//! `Vec` already compiles to a wide copy.
//!
//! Both directions move bit patterns, never float values: NaN payloads,
//! `-0.0` and subnormals survive a round trip exactly.

use crate::vec3::Vec3;
use bytes::BufMut;

/// An element type with a fixed-width little-endian wire encoding.
///
/// # Safety
///
/// On a little-endian target the implementor's in-memory representation
/// must be exactly the bytes [`LeElement::write_le`] produces: size
/// `BYTES`, no padding, every byte initialised. [`put_slice_le`] relies on
/// it to view `&[Self]` as `&[u8]`.
pub unsafe trait LeElement: Copy {
    /// Encoded size of one element.
    const BYTES: usize;

    /// Write the encoding into `dst` (`dst.len() == BYTES`).
    fn write_le(self, dst: &mut [u8]);

    /// Read one element back from `src` (`src.len() == BYTES`).
    fn read_le(src: &[u8]) -> Self;
}

// The layout half of the `LeElement` contract for the three implementors
// (`Vec3` is `#[repr(C)]` over three `f32`s).
const _: () = {
    assert!(std::mem::size_of::<f32>() == 4);
    assert!(std::mem::size_of::<u64>() == 8);
    assert!(std::mem::size_of::<Vec3>() == 12 && std::mem::align_of::<Vec3>() == 4);
};

// SAFETY: an `f32` is its four IEEE-754 bytes in target byte order.
unsafe impl LeElement for f32 {
    const BYTES: usize = 4;

    #[inline]
    fn write_le(self, dst: &mut [u8]) {
        dst.copy_from_slice(&self.to_le_bytes());
    }

    #[inline]
    fn read_le(src: &[u8]) -> f32 {
        f32::from_le_bytes(src.try_into().expect("4-byte element"))
    }
}

// SAFETY: a `u64` is its eight bytes in target byte order.
unsafe impl LeElement for u64 {
    const BYTES: usize = 8;

    #[inline]
    fn write_le(self, dst: &mut [u8]) {
        dst.copy_from_slice(&self.to_le_bytes());
    }

    #[inline]
    fn read_le(src: &[u8]) -> u64 {
        u64::from_le_bytes(src.try_into().expect("8-byte element"))
    }
}

// SAFETY: `Vec3` is `#[repr(C)] { x, y, z: f32 }` — 12 bytes, align 4, no
// padding (asserted above) — so its bytes are x, y, z in that order.
unsafe impl LeElement for Vec3 {
    const BYTES: usize = 12;

    #[inline]
    fn write_le(self, dst: &mut [u8]) {
        self.x.write_le(&mut dst[0..4]);
        self.y.write_le(&mut dst[4..8]);
        self.z.write_le(&mut dst[8..12]);
    }

    #[inline]
    fn read_le(src: &[u8]) -> Vec3 {
        Vec3::new(
            f32::read_le(&src[0..4]),
            f32::read_le(&src[4..8]),
            f32::read_le(&src[8..12]),
        )
    }
}

/// View a slice of elements as its little-endian wire bytes.
#[cfg(target_endian = "little")]
fn as_le_bytes<T: LeElement>(elements: &[T]) -> &[u8] {
    // SAFETY: the pointer and byte length come from a live `&[T]`, `u8`
    // has alignment 1, the returned borrow keeps `elements` alive and
    // shared, and `T: LeElement` guarantees all `size_of_val` bytes are
    // initialised (no padding) and already in little-endian wire order on
    // this target.
    unsafe {
        std::slice::from_raw_parts(
            elements.as_ptr().cast::<u8>(),
            std::mem::size_of_val(elements),
        )
    }
}

/// Element-by-element encoding: the big-endian path, and the reference the
/// tests hold the bulk copy to.
#[cfg(any(target_endian = "big", test))]
fn put_each_le<T: LeElement>(out: &mut impl BufMut, elements: &[T]) {
    let mut scratch = [0u8; 16];
    for &e in elements {
        e.write_le(&mut scratch[..T::BYTES]);
        out.put_slice(&scratch[..T::BYTES]);
    }
}

/// Append the little-endian encoding of `elements` to `out`:
/// `elements.len() * T::BYTES` bytes, one `memcpy` on a little-endian
/// target.
pub fn put_slice_le<T: LeElement>(out: &mut impl BufMut, elements: &[T]) {
    #[cfg(target_endian = "little")]
    out.put_slice(as_le_bytes(elements));
    #[cfg(target_endian = "big")]
    put_each_le(out, elements);
}

/// Decode `raw.len() / T::BYTES` elements (trailing bytes short of one
/// element are ignored; callers slice exact sections).
pub fn read_vec_le<T: LeElement>(raw: &[u8]) -> Vec<T> {
    raw.chunks_exact(T::BYTES).map(T::read_le).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bit patterns a value-level copy would be tempted to canonicalise.
    fn awkward_f32s() -> Vec<f32> {
        [
            0x7FC0_0000u32, // canonical quiet NaN
            0x7FC1_2345,    // quiet NaN with payload
            0x7F80_0001,    // signalling NaN
            0xFFFF_FFFF,    // negative NaN, all payload bits
            0x8000_0000,    // -0.0
            0x0000_0001,    // smallest subnormal
            0x807F_FFFF,    // largest negative subnormal
            0x7F80_0000,    // +inf
            0x3F80_0000,    // 1.0
        ]
        .into_iter()
        .map(f32::from_bits)
        .collect()
    }

    #[test]
    fn bulk_copy_matches_per_element_encoding() {
        let floats = awkward_f32s();
        let vecs: Vec<Vec3> = floats
            .windows(3)
            .map(|w| Vec3::new(w[0], w[1], w[2]))
            .collect();
        let ids = vec![0u64, 1, 0x0102_0304_0506_0708, u64::MAX];

        fn check<T: LeElement>(elements: &[T]) -> Vec<u8> {
            let (mut bulk, mut each) = (Vec::new(), Vec::new());
            put_slice_le(&mut bulk, elements);
            put_each_le(&mut each, elements);
            assert_eq!(bulk, each);
            assert_eq!(bulk.len(), elements.len() * T::BYTES);
            bulk
        }
        check(&floats);
        check(&vecs);
        let id_bytes = check(&ids);
        assert_eq!(&id_bytes[16..24], &[8, 7, 6, 5, 4, 3, 2, 1]);
    }

    #[test]
    fn short_tail_is_ignored() {
        assert_eq!(read_vec_le::<u64>(&[1, 0, 0, 0, 0, 0, 0, 0, 9, 9]), vec![1]);
        assert!(read_vec_le::<Vec3>(&[0; 11]).is_empty());
    }
}
