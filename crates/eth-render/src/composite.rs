//! Sort-last image compositing across ranks, and the wire format it reads.
//!
//! In a distributed ETH run every visualization rank renders the partitions
//! it owns into full-size framebuffers; the final image is the per-pixel
//! nearest fragment across partitions. One path gets it there:
//!
//! * a rank ships each frame as one **contribution**
//!   ([`encode_contribution`]): a framed list of `(partition, framebuffer)`
//!   entries, empty when it rendered nothing, encoded into a buffer the
//!   rank's [`Scratch`] leases;
//! * the root reads every contribution it received in place and folds the
//!   entries in ascending partition order ([`composite_parts`]), so the
//!   image bytes are a function of the partition set, never of which rank
//!   rendered what or in which order contributions arrived. A partition
//!   nobody filled is a hole: composited around and counted, here and
//!   nowhere else;
//! * [`composite_direct`] is the same fold over framebuffers in hand (a
//!   gather-to-root schedule).

use crate::framebuffer::{Framebuffer, WireFrame};
use crate::scratch::Scratch;
use eth_data::io::pool::PayloadPool;
use eth_data::{Bytes, Vec3};

/// Work done by a compositing call.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CompositeStats {
    /// Number of per-pixel merge operations performed.
    pub merge_ops: u64,
    /// Slots nobody contributed to ([`composite_parts`]: partitions whose
    /// frames never arrived). Non-zero marks a degraded frame.
    pub missing_contributions: u64,
}

/// Bytes one full framebuffer occupies on the wire (RGB f32 + depth f32).
fn framebuffer_bytes(fb: &Framebuffer) -> u64 {
    (fb.width() * fb.height()) as u64 * 16
}

/// Reject empty or mixed-size inputs before any merging, so a mismatch
/// cannot charge partial `merge_ops` (or mutate buffers) on the way to the
/// panic.
fn validate_uniform(buffers: &[Framebuffer]) {
    assert!(!buffers.is_empty(), "nothing to composite");
    let (w, h) = (buffers[0].width(), buffers[0].height());
    for (i, fb) in buffers.iter().enumerate() {
        assert!(
            fb.width() == w && fb.height() == h,
            "framebuffer {i} is {}x{} but buffer 0 is {w}x{h}: \
             all composited buffers must share one image size",
            fb.width(),
            fb.height(),
        );
    }
}

/// Fold all buffers into the first (direct-send / gather-to-root schedule).
///
/// Panics if `buffers` is empty or sizes mismatch (checked up front,
/// before any stats are charged).
pub fn composite_direct(mut buffers: Vec<Framebuffer>) -> (Framebuffer, CompositeStats) {
    let mut span = eth_obs::span(eth_obs::Phase::Composite);
    span.set_bytes(buffers.iter().map(framebuffer_bytes).sum());
    validate_uniform(&buffers);
    let mut acc = buffers.remove(0);
    let mut stats = CompositeStats::default();
    for fb in &buffers {
        stats.merge_ops += (fb.width() * fb.height()) as u64;
        acc.composite_in(fb);
    }
    (acc, stats)
}

/// Encode one rank's contribution to a frame: `count: u32`, then per entry
/// `partition: u32, len: u32` and the framebuffer's own bytes
/// ([`Framebuffer::to_bytes`]), all little-endian, into a buffer leased
/// from `pool` (the rank's [`Scratch::contributions`]), which has it back
/// once the root lets go of it. A rank with nothing to render contributes
/// the empty payload.
pub fn encode_contribution(entries: &[(usize, &Framebuffer)], pool: &PayloadPool) -> Bytes {
    if entries.is_empty() {
        return Bytes::new();
    }
    let total = 4 + entries.iter().map(|(_, fb)| 8 + fb.byte_len()).sum::<usize>();
    let mut lease = pool.lease(total);
    let buf = lease.buf();
    buf.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    for (partition, fb) in entries {
        buf.extend_from_slice(&(*partition as u32).to_le_bytes());
        buf.extend_from_slice(&(fb.byte_len() as u32).to_le_bytes());
        fb.write_bytes(buf);
    }
    debug_assert_eq!(buf.len(), total);
    lease.freeze()
}

/// Wire size of the smallest entry: partition, length, a 0×0 framebuffer.
const MIN_ENTRY_BYTES: usize = 4 + 4 + 20;

/// The entries of one contribution, parsed in place; `None` on malformed
/// input.
fn wire_entries(raw: &[u8]) -> Option<Vec<(usize, WireFrame<'_>)>> {
    if raw.is_empty() {
        return Some(Vec::new());
    }
    let (count, mut rest) = raw.split_at_checked(4)?;
    let count = u32::from_le_bytes(count.try_into().ok()?) as usize;
    // The count is wire data: let the bytes actually present bound the
    // allocation (an entry is its two prefixes and at least a framebuffer
    // header), so a lying prefix ends in `None` below, not in an abort.
    let mut entries = Vec::with_capacity(count.min(rest.len() / MIN_ENTRY_BYTES));
    for _ in 0..count {
        let (prefix, tail) = rest.split_at_checked(8)?;
        let partition = u32::from_le_bytes(prefix[0..4].try_into().ok()?) as usize;
        let len = u32::from_le_bytes(prefix[4..8].try_into().ok()?) as usize;
        let (body, tail) = tail.split_at_checked(len)?;
        entries.push((partition, WireFrame::parse(body)?));
        rest = tail;
    }
    Some(entries)
}

/// Composite one gathered frame at the root: parse every contribution
/// received in place and fold its entries in ascending partition order
/// (DESIGN.md §13) — never arrival order, so the image bytes are a
/// function of the partition set, not of which rank rendered what. The
/// first entry is the accumulator (its background is the frame's); every
/// later one merges in keeping the strictly nearer fragment. Duplicate
/// entries for one partition (a handoff whose ack was lost after commit:
/// both owners render it) are the same render, and merging a buffer into
/// one it already merged into changes nothing. A partition nobody filled
/// is a hole: composited around and counted in
/// [`CompositeStats::missing_contributions`]; a frame every contributor
/// lost comes out dark, every partition counted.
///
/// The frame's colour plane, the image it becomes
/// ([`Scratch::into_image`]), is one the run provided
/// ([`Scratch::provide_image_planes`]) or a fresh allocation; its depth
/// plane is `scratch`'s. `None` when a contribution is malformed, names a
/// partition outside `0..partitions`, or carries a framebuffer of another
/// size — wire data never reaches the fold.
pub fn composite_parts<'a>(
    partitions: usize,
    width: usize,
    height: usize,
    contributions: impl IntoIterator<Item = &'a [u8]>,
    scratch: &mut Scratch,
) -> Option<(Framebuffer, CompositeStats)> {
    let mut entries = Vec::new();
    for raw in contributions {
        for (partition, wire) in wire_entries(raw)? {
            if partition >= partitions || wire.width != width || wire.height != height {
                return None;
            }
            entries.push((partition, wire));
        }
    }
    // stable: duplicates keep their arrival order
    entries.sort_by_key(|(partition, _)| *partition);
    let filled = entries.chunk_by(|a, b| a.0 == b.0).count();
    let mut stats = CompositeStats {
        missing_contributions: (partitions - filled) as u64,
        ..CompositeStats::default()
    };
    let pixels = width * height;
    let (mut color, mut depth) = scratch.composite_planes(pixels);
    let Some(((_, first), rest)) = entries.split_first() else {
        color.resize(pixels, Vec3::ZERO);
        depth.resize(pixels, f32::INFINITY);
        return Some((
            Framebuffer::from_planes(width, height, Vec3::ZERO, color, depth),
            stats,
        ));
    };
    let mut span = eth_obs::span(eth_obs::Phase::Composite);
    span.set_bytes((entries.len() * pixels) as u64 * 16);
    let (c, d) = first.planes();
    color.extend_from_slice(&c);
    depth.extend_from_slice(&d);
    let mut acc = Framebuffer::from_planes(width, height, first.background, color, depth);
    for (_, wire) in rest {
        let (c, d) = wire.planes();
        acc.merge_planes(&c, &d);
        stats.merge_ops += pixels as u64;
    }
    Some((acc, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Inverse of [`encode_contribution`]; `None` on malformed input.
    fn decode_contribution(raw: &[u8]) -> Option<Vec<(usize, Framebuffer)>> {
        let entries = wire_entries(raw)?;
        let bodies = entries.into_iter().map(|(partition, wire)| {
            let (color, depth) = wire.planes();
            let (w, h, bg) = (wire.width, wire.height, wire.background);
            let fb = Framebuffer::from_planes(w, h, bg, color.into_owned(), depth.into_owned());
            (partition, fb)
        });
        Some(bodies.collect())
    }

    fn striped(width: usize, height: usize, stripe: usize, of: usize, depth: f32) -> Framebuffer {
        // Buffer that owns every `of`-th column starting at `stripe`.
        let mut fb = Framebuffer::new(width, height, Vec3::ZERO);
        for y in 0..height {
            for x in 0..width {
                if x % of == stripe {
                    fb.write(x, y, depth, Vec3::splat((stripe + 1) as f32 * 0.2));
                }
            }
        }
        fb
    }

    #[test]
    fn composite_prefers_nearest() {
        let mut a = Framebuffer::new(2, 1, Vec3::ZERO);
        let mut b = Framebuffer::new(2, 1, Vec3::ZERO);
        a.write(0, 0, 5.0, Vec3::new(1.0, 0.0, 0.0));
        b.write(0, 0, 1.0, Vec3::new(0.0, 1.0, 0.0));
        let (img, _) = composite_direct(vec![a, b]);
        assert_eq!(img.color_at(0, 0), Vec3::new(0.0, 1.0, 0.0));
    }

    #[test]
    fn single_buffer_is_identity() {
        let fb = striped(8, 8, 0, 2, 1.0);
        let want = fb.clone();
        let (direct, stats) = composite_direct(vec![fb]);
        assert_eq!(direct, want);
        assert_eq!(stats.merge_ops, 0);
    }

    #[test]
    #[should_panic]
    fn empty_input_panics() {
        composite_direct(vec![]);
    }

    #[test]
    fn size_mismatch_panics_up_front_with_clear_message() {
        // The bad buffer sits last; validation must still fire before any
        // merging, and the message must name the offender and both sizes.
        let bufs = vec![
            Framebuffer::new(8, 8, Vec3::ZERO),
            Framebuffer::new(8, 8, Vec3::ZERO),
            Framebuffer::new(4, 8, Vec3::ZERO),
        ];
        let err = std::panic::catch_unwind(|| composite_direct(bufs)).unwrap_err();
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("framebuffer 2"), "{msg}");
        assert!(msg.contains("4x8") && msg.contains("8x8"), "{msg}");
    }

    /// One contribution per `(partition, framebuffer)` entry, in the order
    /// given.
    fn contributions(entries: &[(usize, Framebuffer)]) -> Vec<Bytes> {
        let pool = PayloadPool::new();
        entries
            .iter()
            .map(|(p, fb)| encode_contribution(&[(*p, fb)], &pool))
            .collect()
    }

    fn fold(count: usize, entries: &[(usize, Framebuffer)]) -> (Framebuffer, CompositeStats) {
        let parts = contributions(entries);
        composite_parts(
            count,
            16,
            8,
            parts.iter().map(|p| &p[..]),
            &mut Scratch::new(),
        )
        .expect("well-formed contributions")
    }

    #[test]
    fn parts_are_contributor_order_independent() {
        let count = 4;
        let make = |i: usize| striped(16, 8, i, count, (i + 1) as f32);
        let (want, _) = composite_direct((0..count).map(make).collect());
        // contributions arrive in a scrambled contributor order, as they
        // would after a migration moved partitions between ranks
        let scrambled: Vec<(usize, Framebuffer)> =
            [2usize, 0, 3, 1].iter().map(|&p| (p, make(p))).collect();
        let (got, stats) = fold(count, &scrambled);
        assert_eq!(got, want, "ownership must not leak into image bytes");
        assert_eq!(stats.missing_contributions, 0);
        assert_eq!(stats.merge_ops, 3 * 16 * 8);
    }

    #[test]
    fn parts_merge_duplicates_idempotently() {
        // both the old and new owner rendered partition 1 (ack lost after
        // commit): the duplicate merges away, wherever it arrives
        let count = 3;
        let make = |i: usize| striped(16, 8, i, count, (i + 1) as f32);
        let (want, _) = composite_direct((0..count).map(make).collect());
        for order in [[0, 1, 1, 2], [1, 2, 0, 1], [1, 1, 2, 0]] {
            let entries: Vec<_> = order.iter().map(|&p| (p, make(p))).collect();
            let (got, stats) = fold(count, &entries);
            assert_eq!(got, want, "{order:?}");
            assert_eq!(stats.missing_contributions, 0);
        }
    }

    #[test]
    fn parts_count_unowned_partitions_as_missing() {
        let count = 3;
        let make = |i: usize| striped(16, 8, i, count, (i + 1) as f32);
        let (got, stats) = fold(count, &[(2, make(2)), (0, make(0))]);
        assert_eq!(stats.missing_contributions, 1);
        // the hole is composited around: the survivors fold as if alone
        let (want, _) = composite_direct(vec![make(0), make(2)]);
        assert_eq!(got, want);
    }

    #[test]
    fn parts_read_unaligned_contributions_too() {
        // a contribution whose planes sit off their alignment is decoded,
        // not refused
        let (a, b) = (striped(16, 8, 0, 2, 1.0), striped(16, 8, 1, 2, 2.0));
        let raw = encode_contribution(&[(0, &a), (1, &b)], &PayloadPool::new());
        let mut shifted = vec![0u8; raw.len() + 1];
        shifted[1..].copy_from_slice(&raw);
        let mut scratch = Scratch::new();
        let (got, _) = composite_parts(2, 16, 8, [&shifted[1..]], &mut scratch).unwrap();
        assert_eq!(got, composite_direct(vec![a, b]).0);
    }

    #[test]
    fn parts_fold_by_partition_and_count_every_empty_slot() {
        let count = 4;
        let make = |i: usize| striped(16, 8, i, count, (i + 1) as f32);
        let (a, b, c) = (make(0), make(2), make(3));
        // one rank co-owns partitions 3 and 0, one owns 2, one rendered
        // nothing: partition 1 is the frame's one hole
        let pool = PayloadPool::new();
        let parts = [
            encode_contribution(&[(3, &c), (0, &a)], &pool),
            encode_contribution(&[], &pool),
            encode_contribution(&[(2, &b)], &pool),
        ];
        assert!(parts[1].is_empty(), "nothing to render is the empty payload");
        let mut scratch = Scratch::new();
        let received = parts.iter().map(|p| &p[..]);
        let (got, stats) = composite_parts(count, 16, 8, received, &mut scratch).unwrap();
        let (want, _) = composite_direct(vec![make(0), make(2), make(3)]);
        assert_eq!(got, want);
        assert_eq!(stats.missing_contributions, 1);
        // nobody contributed: a dark frame, every slot a hole
        let (dark, stats) = composite_parts(count, 16, 8, [&parts[1][..]], &mut scratch).unwrap();
        assert_eq!(dark, Framebuffer::new(16, 8, Vec3::ZERO));
        assert_eq!(stats.missing_contributions, count as u64);
    }

    #[test]
    fn parts_reject_wire_data_the_fold_would_panic_on() {
        let (pool, scratch) = (PayloadPool::new(), &mut Scratch::new());
        let fb = striped(16, 8, 0, 2, 1.0);
        let outside = encode_contribution(&[(4, &fb)], &pool);
        assert!(
            composite_parts(4, 16, 8, [&outside[..]], scratch).is_none(),
            "partition out of range"
        );
        let other = Framebuffer::new(8, 8, Vec3::ZERO);
        let resized = encode_contribution(&[(0, &other)], &pool);
        assert!(
            composite_parts(4, 16, 8, [&resized[..]], scratch).is_none(),
            "framebuffer size"
        );
        assert!(
            composite_parts(4, 16, 8, [&[0xff, 0, 0][..]], scratch).is_none(),
            "framing"
        );
    }

    /// Two entries of different sizes, the second with something drawn.
    fn two_entries() -> (Framebuffer, Framebuffer) {
        let mut second = Framebuffer::new(2, 2, Vec3::splat(0.25));
        second.write(1, 0, 3.5, Vec3::new(0.5, f32::MIN_POSITIVE, -0.0));
        (Framebuffer::new(3, 1, Vec3::ONE), second)
    }

    #[test]
    fn a_lying_count_prefix_is_an_error_not_an_allocation() {
        // ~4.3 G entries claimed by four bytes, and by a valid payload
        assert!(decode_contribution(&[0xff; 4]).is_none());
        let (a, b) = two_entries();
        let mut raw = encode_contribution(&[(0, &a), (1, &b)], &PayloadPool::new()).to_vec();
        raw[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_contribution(&raw).is_none());
    }

    #[test]
    fn truncation_at_every_offset_is_an_error() {
        let (a, b) = two_entries();
        let raw = encode_contribution(&[(4, &a), (1, &b)], &PayloadPool::new());
        // count, then per entry: partition, length, `to_bytes`
        let mut framed = 2u32.to_le_bytes().to_vec();
        for (partition, fb) in [(4u32, &a), (1, &b)] {
            let body = fb.to_bytes();
            framed.extend_from_slice(&partition.to_le_bytes());
            framed.extend_from_slice(&(body.len() as u32).to_le_bytes());
            framed.extend_from_slice(&body);
        }
        assert_eq!(raw, framed);
        let back = decode_contribution(&raw).expect("a valid contribution decodes");
        assert_eq!(back, vec![(4, a), (1, b)]);
        // every proper prefix but the empty one (the empty payload) fails
        for cut in 1..raw.len() {
            assert!(decode_contribution(&raw[..cut]).is_none(), "cut at {cut}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Arbitrary bytes, and a valid contribution with any four of its
        /// bytes overwritten, decode and composite to `Some` or `None` — no
        /// panic, no abort.
        #[test]
        fn decoding_is_total(
            noise in prop::collection::vec(0u16..256, 0..200),
            at in 0usize..1000,
            patch in 0u64..1 << 32,
        ) {
            let noise: Vec<u8> = noise.into_iter().map(|b| b as u8).collect();
            let _ = decode_contribution(&noise);
            let _ = Framebuffer::from_bytes(&noise);
            let scratch = &mut Scratch::new();
            let _ = composite_parts(2, 2, 2, [&noise[..]], scratch);
            let (a, b) = two_entries();
            let mut raw = encode_contribution(&[(0, &a), (1, &b)], &PayloadPool::new()).to_vec();
            let at = at % (raw.len() - 3);
            raw[at..at + 4].copy_from_slice(&(patch as u32).to_le_bytes());
            let _ = decode_contribution(&raw);
            let _ = composite_parts(2, 2, 2, [&raw[..]], scratch);
        }
    }
}
