//! Color + depth framebuffer with z-buffered writes.
//!
//! Every renderer draws into a `Framebuffer`; rank-local buffers are later
//! merged by depth compositing (see [`crate::composite`]), which is exactly
//! the sort-last structure a distributed ETH run uses.

use crate::image::Image;
use eth_data::io::le::{put_slice_le, read_vec_le, view_le, LeElement};
use eth_data::BufMut;
use eth_data::Vec3;
use std::borrow::Cow;

/// An RGB color buffer with a parallel depth buffer.
#[derive(Debug, Clone, PartialEq)]
pub struct Framebuffer {
    width: usize,
    height: usize,
    color: Vec<Vec3>,
    depth: Vec<f32>,
    background: Vec3,
}

impl Framebuffer {
    /// New buffer cleared to `background` with depth at infinity.
    pub fn new(width: usize, height: usize, background: Vec3) -> Framebuffer {
        Framebuffer {
            width,
            height,
            color: vec![background; width * height],
            depth: vec![f32::INFINITY; width * height],
            background,
        }
    }

    /// A buffer over planes its caller filled (`width * height` each).
    pub(crate) fn from_planes(
        width: usize,
        height: usize,
        background: Vec3,
        color: Vec<Vec3>,
        depth: Vec<f32>,
    ) -> Framebuffer {
        debug_assert!(color.len() == width * height && depth.len() == width * height);
        Framebuffer {
            width,
            height,
            color,
            depth,
            background,
        }
    }

    /// Clear to [`Framebuffer::new`]'s state in the planes already held,
    /// which allocate only to grow.
    pub(crate) fn reset(&mut self, width: usize, height: usize, background: Vec3) {
        let pixels = width * height;
        self.color.clear();
        self.color.resize(pixels, background);
        self.depth.clear();
        self.depth.resize(pixels, f32::INFINITY);
        (self.width, self.height, self.background) = (width, height, background);
    }

    pub fn width(&self) -> usize {
        self.width
    }

    pub fn height(&self) -> usize {
        self.height
    }

    pub fn background(&self) -> Vec3 {
        self.background
    }

    #[inline]
    fn idx(&self, x: usize, y: usize) -> usize {
        debug_assert!(x < self.width && y < self.height);
        y * self.width + x
    }

    /// Depth-tested write: the fragment lands only if it is strictly nearer
    /// than what is already there.
    #[inline]
    pub fn write(&mut self, x: usize, y: usize, depth: f32, color: Vec3) -> bool {
        let i = self.idx(x, y);
        if depth < self.depth[i] {
            self.depth[i] = depth;
            self.color[i] = color;
            true
        } else {
            false
        }
    }

    /// Depth-tested write with bounds clipping; fragments off the image are
    /// silently discarded. Returns true if the fragment landed.
    #[inline]
    pub fn write_clipped(&mut self, x: isize, y: isize, depth: f32, color: Vec3) -> bool {
        if x < 0 || y < 0 || x as usize >= self.width || y as usize >= self.height {
            return false;
        }
        self.write(x as usize, y as usize, depth, color)
    }

    /// The colour and depth planes, row-major, for renderers that fill
    /// disjoint pixel ranges on parallel workers.
    pub(crate) fn planes_mut(&mut self) -> (&mut [Vec3], &mut [f32]) {
        (&mut self.color, &mut self.depth)
    }

    #[inline]
    pub fn depth_at(&self, x: usize, y: usize) -> f32 {
        self.depth[self.idx(x, y)]
    }

    #[inline]
    pub fn color_at(&self, x: usize, y: usize) -> Vec3 {
        self.color[self.idx(x, y)]
    }

    pub fn depth_buffer(&self) -> &[f32] {
        &self.depth
    }

    pub fn color_buffer(&self) -> &[Vec3] {
        &self.color
    }

    /// Merge another buffer into this one pixel-by-pixel, keeping the nearer
    /// fragment (sort-last depth compositing kernel). Large buffers merge
    /// their halves on parallel threads; each pixel's outcome depends only
    /// on that pixel in the two inputs, so the result is identical to the
    /// serial fold at any split.
    pub fn composite_in(&mut self, other: &Framebuffer) {
        assert_eq!(self.width, other.width, "framebuffer width mismatch");
        assert_eq!(self.height, other.height, "framebuffer height mismatch");
        self.merge_planes(&other.color, &other.depth);
    }

    /// [`Framebuffer::composite_in`] over another buffer's planes.
    pub(crate) fn merge_planes(&mut self, color: &[Vec3], depth: &[f32]) {
        merge_nearest(&mut self.color, &mut self.depth, color, depth);
    }

    /// Number of pixels something was drawn into.
    pub fn fragments_landed(&self) -> usize {
        self.depth.iter().filter(|d| d.is_finite()).count()
    }

    /// Finish: drop the depth buffer and return the color image.
    pub fn into_image(self) -> Image {
        self.into_image_and_depth().0
    }

    /// [`Framebuffer::into_image`], handing the depth plane back too.
    pub(crate) fn into_image_and_depth(self) -> (Image, Vec<f32>) {
        let image = Image::from_pixels(self.width, self.height, self.color)
            .expect("framebuffer dimensions are consistent by construction");
        (image, self.depth)
    }

    /// Serialize for shipping across ranks (compositing). Little-endian:
    /// `w:u32, h:u32, bg:3xf32, color:3*w*h*f32, depth:w*h*f32` — each
    /// plane one bulk copy ([`eth_data::io::le`]).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.byte_len());
        self.write_bytes(&mut out);
        out
    }

    /// Length of [`Framebuffer::to_bytes`], without building it.
    pub fn byte_len(&self) -> usize {
        HEADER_BYTES + self.width * self.height * PIXEL_BYTES
    }

    /// Append [`Framebuffer::to_bytes`] to `out`, for callers framing
    /// several framebuffers into one message.
    pub fn write_bytes(&self, out: &mut impl BufMut) {
        out.put_slice(&(self.width as u32).to_le_bytes());
        out.put_slice(&(self.height as u32).to_le_bytes());
        put_slice_le(out, &[self.background]);
        put_slice_le(out, &self.color);
        put_slice_le(out, &self.depth);
    }

    /// Inverse of [`Framebuffer::to_bytes`]. Returns `None` on malformed
    /// input; the planes are sized by the bytes present, never by the
    /// dimensions the header claims.
    pub fn from_bytes(raw: &[u8]) -> Option<Framebuffer> {
        let wire = WireFrame::parse(raw)?;
        let (color, depth) = wire.planes();
        Some(Framebuffer {
            width: wire.width,
            height: wire.height,
            color: color.into_owned(),
            depth: depth.into_owned(),
            background: wire.background,
        })
    }
}

/// A framebuffer's wire bytes ([`Framebuffer::to_bytes`]), parsed in
/// place: what the composite root folds without decoding a copy.
pub(crate) struct WireFrame<'a> {
    pub(crate) width: usize,
    pub(crate) height: usize,
    pub(crate) background: Vec3,
    color: &'a [u8],
    depth: &'a [u8],
}

impl<'a> WireFrame<'a> {
    /// `None` on malformed input; the planes are sized by the bytes
    /// present, never by the dimensions the header claims.
    pub(crate) fn parse(raw: &'a [u8]) -> Option<WireFrame<'a>> {
        let (header, planes) = raw.split_at_checked(HEADER_BYTES)?;
        let width = u32::from_le_bytes(header[0..4].try_into().ok()?) as usize;
        let height = u32::from_le_bytes(header[4..8].try_into().ok()?) as usize;
        let n = width.checked_mul(height)?;
        if planes.len() != n.checked_mul(PIXEL_BYTES)? {
            return None;
        }
        let (color, depth) = planes.split_at(n * Vec3::BYTES);
        Some(WireFrame {
            width,
            height,
            background: Vec3::read_le(&header[8..]),
            color,
            depth,
        })
    }

    /// The colour and depth planes: read in place when the bytes are
    /// aligned for them (every contribution an encoder leased is), else
    /// decoded into a copy.
    pub(crate) fn planes(&self) -> (Cow<'a, [Vec3]>, Cow<'a, [f32]>) {
        let color =
            view_le(self.color).map_or_else(|| Cow::Owned(read_vec_le(self.color)), Cow::Borrowed);
        let depth =
            view_le(self.depth).map_or_else(|| Cow::Owned(read_vec_le(self.depth)), Cow::Borrowed);
        (color, depth)
    }
}

/// Wire size of the dimensions and the background colour.
const HEADER_BYTES: usize = 8 + Vec3::BYTES;
/// Wire size of one pixel's colour and depth.
const PIXEL_BYTES: usize = Vec3::BYTES + f32::BYTES;

/// Below this pixel count the split/join overhead outweighs the merge
/// itself, so small (preview-sized) buffers stay on one thread.
const PAR_COMPOSITE_MIN: usize = 32 * 1024;

/// Keep-nearest merge over parallel halves. `color`/`depth` are this
/// buffer's pixels; `oc`/`od` the other's. All four slices stay aligned
/// because every split uses the same midpoint.
fn merge_nearest(color: &mut [Vec3], depth: &mut [f32], oc: &[Vec3], od: &[f32]) {
    if depth.len() >= PAR_COMPOSITE_MIN {
        let mid = depth.len() / 2;
        let (c0, c1) = color.split_at_mut(mid);
        let (d0, d1) = depth.split_at_mut(mid);
        let (oc0, oc1) = oc.split_at(mid);
        let (od0, od1) = od.split_at(mid);
        rayon::join(
            || merge_nearest(c0, d0, oc0, od0),
            || merge_nearest(c1, d1, oc1, od1),
        );
        return;
    }
    for i in 0..depth.len() {
        if od[i] < depth[i] {
            depth[i] = od[i];
            color[i] = oc[i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn nearer_fragment_wins() {
        let mut fb = Framebuffer::new(2, 2, Vec3::ZERO);
        assert!(fb.write(0, 0, 5.0, Vec3::new(1.0, 0.0, 0.0)));
        assert!(!fb.write(0, 0, 6.0, Vec3::new(0.0, 1.0, 0.0)));
        assert!(fb.write(0, 0, 4.0, Vec3::new(0.0, 0.0, 1.0)));
        assert_eq!(fb.color_at(0, 0), Vec3::new(0.0, 0.0, 1.0));
        assert_eq!(fb.depth_at(0, 0), 4.0);
    }

    #[test]
    fn clipped_writes_discard_out_of_bounds() {
        let mut fb = Framebuffer::new(2, 2, Vec3::ZERO);
        assert!(!fb.write_clipped(-1, 0, 1.0, Vec3::ONE));
        assert!(!fb.write_clipped(0, 2, 1.0, Vec3::ONE));
        assert!(fb.write_clipped(1, 1, 1.0, Vec3::ONE));
        assert_eq!(fb.fragments_landed(), 1);
    }

    #[test]
    fn composite_keeps_nearest_across_buffers() {
        let mut a = Framebuffer::new(2, 1, Vec3::ZERO);
        let mut b = Framebuffer::new(2, 1, Vec3::ZERO);
        a.write(0, 0, 3.0, Vec3::new(1.0, 0.0, 0.0));
        b.write(0, 0, 2.0, Vec3::new(0.0, 1.0, 0.0));
        b.write(1, 0, 9.0, Vec3::new(0.0, 0.0, 1.0));
        a.composite_in(&b);
        assert_eq!(a.color_at(0, 0), Vec3::new(0.0, 1.0, 0.0));
        assert_eq!(a.color_at(1, 0), Vec3::new(0.0, 0.0, 1.0));
    }

    #[test]
    fn composite_is_order_independent() {
        let mut a1 = Framebuffer::new(4, 1, Vec3::ZERO);
        let mut a2;
        let mut b = Framebuffer::new(4, 1, Vec3::ZERO);
        let mut c = Framebuffer::new(4, 1, Vec3::ZERO);
        for i in 0..4 {
            b.write(i, 0, (i + 1) as f32, Vec3::splat(0.3));
            c.write(i, 0, (4 - i) as f32, Vec3::splat(0.7));
        }
        a2 = a1.clone();
        a1.composite_in(&b);
        a1.composite_in(&c);
        a2.composite_in(&c);
        a2.composite_in(&b);
        assert_eq!(a1, a2);
    }

    #[test]
    fn into_image_carries_colors() {
        let mut fb = Framebuffer::new(2, 1, Vec3::splat(0.1));
        fb.write(1, 0, 1.0, Vec3::ONE);
        let img = fb.into_image();
        assert_eq!(img.get(0, 0), Vec3::splat(0.1));
        assert_eq!(img.get(1, 0), Vec3::ONE);
    }

    #[test]
    fn wire_roundtrip() {
        let mut fb = Framebuffer::new(3, 2, Vec3::new(0.1, 0.2, 0.3));
        fb.write(0, 0, 4.0, Vec3::ONE);
        fb.write(2, 1, 1.5, Vec3::new(0.5, 0.0, 0.9));
        let raw = fb.to_bytes();
        let back = Framebuffer::from_bytes(&raw).unwrap();
        assert_eq!(back, fb);
    }

    #[test]
    fn wire_rejects_malformed() {
        assert!(Framebuffer::from_bytes(&[]).is_none());
        let fb = Framebuffer::new(2, 2, Vec3::ZERO);
        let mut raw = fb.to_bytes();
        raw.pop();
        assert!(Framebuffer::from_bytes(&raw).is_none());
        // absurd dimensions with short payload
        let mut bogus = vec![0u8; 20];
        bogus[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        bogus[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(Framebuffer::from_bytes(&bogus).is_none());
    }

    /// The wire format written one `f32` at a time, as `to_bytes` did
    /// before it copied whole planes.
    fn to_bytes_per_float(fb: &Framebuffer) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&(fb.width as u32).to_le_bytes());
        out.extend_from_slice(&(fb.height as u32).to_le_bytes());
        let colors = std::iter::once(&fb.background).chain(&fb.color);
        let channels = colors.flat_map(|c| [c.x, c.y, c.z]);
        for value in channels.chain(fb.depth.iter().copied()) {
            out.extend_from_slice(&value.to_le_bytes());
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Any bit pattern — NaN payloads, -0.0, subnormals — survives the
        /// wire exactly, in the bytes the per-float encoder wrote.
        #[test]
        fn wire_roundtrip_is_bit_exact(
            width in 0usize..9,
            height in 0usize..9,
            bits in prop::collection::vec(0u64..1 << 32, 259..260),
        ) {
            let bits: Vec<u32> = bits.into_iter().map(|b| b as u32).collect();
            let mut values = bits.iter().map(|&b| f32::from_bits(b));
            let mut vec3 = || Vec3::new(
                values.next().unwrap(),
                values.next().unwrap(),
                values.next().unwrap(),
            );
            let mut fb = Framebuffer::new(width, height, vec3());
            for c in &mut fb.color {
                *c = vec3();
            }
            for (d, &b) in fb.depth.iter_mut().zip(&bits) {
                *d = f32::from_bits(b.rotate_left(7));
            }
            let raw = fb.to_bytes();
            prop_assert_eq!(&raw, &to_bytes_per_float(&fb));
            let back = Framebuffer::from_bytes(&raw).expect("a valid encoding decodes");
            prop_assert_eq!(back.to_bytes(), raw);
        }

        /// Arbitrary bytes, and valid encodings with their dimensions
        /// overwritten or their tail cut, come back `None` — never a panic
        /// and never an allocation sized by the header.
        #[test]
        fn wire_decode_is_total(
            raw in prop::collection::vec(0u16..256, 0..120),
            claim in (0u64..1 << 32, 0u64..1 << 32),
            cut in 0usize..1000,
        ) {
            let raw: Vec<u8> = raw.into_iter().map(|b| b as u8).collect();
            if let Some(fb) = Framebuffer::from_bytes(&raw) {
                prop_assert_eq!(raw.len(), HEADER_BYTES + PIXEL_BYTES * fb.width * fb.height);
            }
            let valid = Framebuffer::new(3, 2, Vec3::ONE).to_bytes();
            let mut lying = valid.clone();
            lying[0..4].copy_from_slice(&(claim.0 as u32).to_le_bytes());
            lying[4..8].copy_from_slice(&(claim.1 as u32).to_le_bytes());
            if claim.0 * claim.1 != 6 {
                prop_assert!(Framebuffer::from_bytes(&lying).is_none());
            }
            prop_assert!(Framebuffer::from_bytes(&valid[..cut % valid.len()]).is_none());
        }
    }

    #[test]
    fn parallel_composite_matches_serial_reference() {
        // 256x256 = 65536 pixels, comfortably above PAR_COMPOSITE_MIN, so
        // composite_in takes the rayon::join path; the serial reference is
        // the plain pixel loop. They must agree bit-for-bit.
        let n = 256usize;
        let mut a = Framebuffer::new(n, n, Vec3::ZERO);
        let mut b = Framebuffer::new(n, n, Vec3::ZERO);
        let mut h = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            h ^= h << 13;
            h ^= h >> 7;
            h ^= h << 17;
            (h % 1000) as f32 * 0.01
        };
        for y in 0..n {
            for x in 0..n {
                a.write(x, y, next(), Vec3::splat(next()));
                b.write(x, y, next(), Vec3::splat(next()));
            }
        }
        let mut want_color = a.color.clone();
        let mut want_depth = a.depth.clone();
        for i in 0..want_color.len() {
            if b.depth[i] < want_depth[i] {
                want_depth[i] = b.depth[i];
                want_color[i] = b.color[i];
            }
        }
        a.composite_in(&b);
        assert_eq!(a.color, want_color);
        assert_eq!(a.depth, want_depth);
    }

    #[test]
    #[should_panic]
    fn composite_size_mismatch_panics() {
        let mut a = Framebuffer::new(2, 2, Vec3::ZERO);
        let b = Framebuffer::new(3, 2, Vec3::ZERO);
        a.composite_in(&b);
    }
}
