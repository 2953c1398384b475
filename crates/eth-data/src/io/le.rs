//! Bulk little-endian payload copies and views.
//!
//! Every array the harness persists or ships — `.ebd` positions and
//! attributes ([`super::binary`]), the raw `f32` pixels of a journaled
//! result — is a run of `f32`, [`Vec3`] or `u64` elements, little-endian,
//! no padding. On a little-endian target that *is* the elements' in-memory
//! representation, so writing a section is one `memcpy` of the source
//! slice viewed as bytes ([`put_slice_le`]), and a section that starts at
//! a multiple of the element's [`LeElement::ALIGN`] can be read in place
//! ([`view_le`]). Unaligned bytes go through `from_le_bytes`
//! ([`read_vec_le`]), whose per-element loop into a fresh `Vec` compiles
//! to a wide copy.
//!
//! All three move bit patterns, never float values: NaN payloads, `-0.0`
//! and subnormals survive a round trip exactly.
//!
//! Big-endian targets are not supported: the views would read the wire's
//! byte order as the target's, and nothing here can test one, so the crate
//! refuses to build there rather than decode wrong values.

#[cfg(target_endian = "big")]
compile_error!("eth-data reads little-endian payloads in place; big-endian targets are unsupported");

use crate::vec3::Vec3;
use bytes::BufMut;

/// An element type with a fixed-width little-endian wire encoding.
///
/// # Safety
///
/// The implementor's in-memory representation must be exactly the bytes
/// [`LeElement::write_le`] produces: size `BYTES`, no padding, every byte
/// initialised, and every `BYTES`-byte pattern a valid value; its
/// alignment must divide `ALIGN`. [`put_slice_le`] relies on the first to
/// view `&[Self]` as `&[u8]`, [`view_le`] on the rest to view aligned
/// bytes as `&[Self]`.
pub unsafe trait LeElement: Copy {
    /// Encoded size of one element.
    const BYTES: usize;

    /// Alignment of the element's sections on the wire, fixed by the
    /// format rather than by the target (a `u64` may align to 4 on some).
    const ALIGN: usize;

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
    assert!(<f32 as LeElement>::ALIGN % std::mem::align_of::<f32>() == 0);
    assert!(<u64 as LeElement>::ALIGN % std::mem::align_of::<u64>() == 0);
    assert!(<Vec3 as LeElement>::ALIGN % std::mem::align_of::<Vec3>() == 0);
};

// SAFETY: an `f32` is its four IEEE-754 bytes in target byte order, and
// every bit pattern is some `f32` (NaNs included).
unsafe impl LeElement for f32 {
    const BYTES: usize = 4;
    const ALIGN: usize = 4;

    #[inline]
    fn write_le(self, dst: &mut [u8]) {
        dst.copy_from_slice(&self.to_le_bytes());
    }

    #[inline]
    fn read_le(src: &[u8]) -> f32 {
        f32::from_le_bytes(src.try_into().expect("4-byte element"))
    }
}

// SAFETY: a `u64` is its eight bytes in target byte order; every bit
// pattern is a `u64`.
unsafe impl LeElement for u64 {
    const BYTES: usize = 8;
    const ALIGN: usize = 8;

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
// padding (asserted above) — so its bytes are x, y, z in that order, and
// any 12 bytes are three valid `f32`s.
unsafe impl LeElement for Vec3 {
    const BYTES: usize = 12;
    const ALIGN: usize = 4;

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

/// Element-by-element encoding: the reference the tests hold the bulk copy
/// to.
#[cfg(test)]
fn put_each_le<T: LeElement>(out: &mut impl BufMut, elements: &[T]) {
    let mut scratch = [0u8; 16];
    for &e in elements {
        e.write_le(&mut scratch[..T::BYTES]);
        out.put_slice(&scratch[..T::BYTES]);
    }
}

/// Append the little-endian encoding of `elements` to `out`:
/// `elements.len() * T::BYTES` bytes, one `memcpy`.
pub fn put_slice_le<T: LeElement>(out: &mut impl BufMut, elements: &[T]) {
    out.put_slice(as_le_bytes(elements));
}

/// `raw` read in place as `raw.len() / T::BYTES` elements, or `None` when
/// `raw` does not start at a multiple of `T::ALIGN` or is not a whole
/// number of elements.
pub fn view_le<T: LeElement>(raw: &[u8]) -> Option<&[T]> {
    if !(raw.as_ptr() as usize).is_multiple_of(T::ALIGN) || !raw.len().is_multiple_of(T::BYTES) {
        return None;
    }
    // SAFETY: the pointer is aligned for `T` (`T::ALIGN` is a multiple of
    // its alignment), the `raw.len() / T::BYTES` elements cover exactly the
    // borrowed bytes, every byte pattern is a valid `T` in this (little-
    // endian) target's order, and the returned borrow keeps `raw` alive
    // and shared.
    Some(unsafe { std::slice::from_raw_parts(raw.as_ptr().cast::<T>(), raw.len() / T::BYTES) })
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
    fn views_need_alignment_and_whole_elements() {
        let words = [0x0807_0605_0403_0201u64, u64::MAX];
        let raw = as_le_bytes(&words);
        assert_eq!(view_le::<u64>(raw), Some(&words[..]));
        assert_eq!(view_le::<u64>(&raw[..16]).map(|v| v.len()), Some(2));
        assert_eq!(view_le::<f32>(&raw[4..12]).map(|v| v.len()), Some(2));
        assert_eq!(view_le::<u64>(&raw[4..12]), None, "4-aligned is not enough");
        assert_eq!(view_le::<f32>(&raw[1..5]), None);
        assert_eq!(view_le::<Vec3>(&raw[..8]), None, "not a whole element");
        assert_eq!(view_le::<Vec3>(&raw[4..16]).map(|v| v.len()), Some(1));
    }

    #[test]
    fn short_tail_is_ignored() {
        assert_eq!(read_vec_le::<u64>(&[1, 0, 0, 0, 0, 0, 0, 0, 9, 9]), vec![1]);
        assert!(read_vec_le::<Vec3>(&[0; 11]).is_empty());
    }
}
