//! Wire framing.
//!
//! Frame layout (little-endian):
//!
//! ```text
//! magic: u32     protocol magic + version ("ETH" + 0x01 or 0x02)
//! from : u32     sender rank
//! tag  : u32     matching tag
//! len  : u64     payload length
//! ctx  : 16 B    span context (version 0x02 frames only)
//! data : len bytes
//! ```
//!
//! Version 0x02 frames carry a 16-byte [`eth_obs::SpanContext`] between
//! the header and the payload, stitching the send span to the matching
//! receive span in merged traces. Both versions are current: writers emit
//! v2 only when the flight recorder is live (`eth_obs::flow_context()`
//! returned a context) and v1 otherwise, so the wire carries **zero**
//! extra bytes when recording is off. v1 is what every un-recorded run
//! sends — readers accept both.
//!
//! The magic word makes a desynchronized or corrupted stream fail fast
//! with [`TransportError::Decode`] instead of interpreting garbage as a
//! length prefix and attempting a multi-gigabyte allocation; the length
//! guard bounds how large a claimed payload may be even when the magic
//! happens to match.
//!
//! The same framing is used on sockets; the local backend passes the
//! decoded tuple directly. A frame's payload is opaque here: which bytes a
//! data block becomes on the wire is `eth_data::compress::Codec`'s choice,
//! and a decoded block's arrays can view the received payload in place.
//! The payload is read into a buffer leased from the caller's
//! [`PayloadPool`], the one the sending end encodes into, so a warm
//! stream of same-sized frames reads into buffers already mapped.

use crate::comm::{Result, TransportError};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use eth_data::io::pool::PayloadPool;
use eth_obs::SpanContext;
use std::io::{Read, Write};

/// Header size on the wire (not counting the v2 context word).
pub const FRAME_HEADER_BYTES: usize = 20;

/// Span-context trailer size for v2 frames.
pub const FRAME_CONTEXT_BYTES: usize = 16;

/// Protocol magic + version word: `b"ETH"` followed by the format version.
/// Bump the low byte when the frame layout changes.
pub const FRAME_MAGIC: u32 = u32::from_le_bytes([b'E', b'T', b'H', 0x01]);

/// v2 magic: same layout plus a 16-byte span context after the header.
pub const FRAME_MAGIC_V2: u32 = u32::from_le_bytes([b'E', b'T', b'H', 0x02]);

/// Largest payload the socket reader accepts (guards against corrupt
/// length fields); [`read_frame_leased`] takes the limit per call.
pub const MAX_PAYLOAD: u64 = 1 << 34; // 16 GiB

/// Largest payload buffer leased on the strength of the length prefix
/// alone; longer payloads grow as their bytes arrive.
const PAYLOAD_RESERVE_CAP: u64 = 64 << 20;

/// A decoded frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    pub from: u32,
    pub tag: u32,
    /// Sender's span context (v2 frames recorded under a live flight
    /// recorder); `None` on v1 frames (recording off).
    pub ctx: Option<SpanContext>,
    pub payload: Bytes,
}

/// Write one frame to a stream. A `Some` context emits a v2 frame; `None`
/// emits the v1 layout byte-for-byte (recording off ⇒ zero cost).
pub fn write_frame(
    w: &mut impl Write,
    from: u32,
    tag: u32,
    ctx: Option<SpanContext>,
    payload: &Bytes,
) -> Result<()> {
    let cap = FRAME_HEADER_BYTES + if ctx.is_some() { FRAME_CONTEXT_BYTES } else { 0 };
    let mut header = BytesMut::with_capacity(cap);
    header.put_u32_le(if ctx.is_some() {
        FRAME_MAGIC_V2
    } else {
        FRAME_MAGIC
    });
    header.put_u32_le(from);
    header.put_u32_le(tag);
    header.put_u64_le(payload.len() as u64);
    if let Some(c) = ctx {
        header.put_slice(&c.to_bytes());
    }
    w.write_all(&header)?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// Read one frame from a stream (blocking) into a buffer leased from
/// `pool`, accepting payloads up to `max_payload` bytes and either frame
/// version. A wrong magic word or an oversized length prefix fails with
/// [`TransportError::Decode`] before any payload allocation; a stream that
/// ends before `len` payload bytes is an error, never a truncated
/// [`Frame`], and its lease is back in `pool` when the error returns.
pub fn read_frame_leased(r: &mut impl Read, max_payload: u64, pool: &PayloadPool) -> Result<Frame> {
    let mut header = [0u8; FRAME_HEADER_BYTES];
    r.read_exact(&mut header)?;
    let mut h = &header[..];
    let magic = h.get_u32_le();
    if magic != FRAME_MAGIC && magic != FRAME_MAGIC_V2 {
        return Err(TransportError::Decode(format!(
            "bad frame magic {magic:#010x} (expected {FRAME_MAGIC:#010x} or \
             {FRAME_MAGIC_V2:#010x}): stream is corrupt or speaks a different \
             protocol version"
        )));
    }
    let from = h.get_u32_le();
    let tag = h.get_u32_le();
    let len = h.get_u64_le();
    if len > max_payload {
        return Err(TransportError::Decode(format!(
            "frame length {len} exceeds maximum {max_payload}"
        )));
    }
    let ctx = if magic == FRAME_MAGIC_V2 {
        let mut ctx_bytes = [0u8; FRAME_CONTEXT_BYTES];
        r.read_exact(&mut ctx_bytes)?;
        Some(SpanContext::from_bytes(ctx_bytes))
    } else {
        None
    };
    // The length prefix is a claim until the bytes arrive: lease at most
    // `PAYLOAD_RESERVE_CAP` up front and let the buffer grow as the stream
    // delivers, so a corrupt or hostile prefix cannot make this allocate
    // gigabytes, nor zero more than a step past the bytes that came. The
    // buffer is 8-aligned, so a dataset decoded from it views it in place
    // (`eth_data::io::binary::decode`).
    let want = usize::try_from(len).map_err(|_| {
        TransportError::Decode(format!("frame length {len} exceeds the address space"))
    })?;
    let mut lease = pool.lease(len.min(PAYLOAD_RESERVE_CAP) as usize);
    let got = lease.buf().read_from(r, want)?;
    if got != want {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            format!("frame payload ended after {got} of {len} bytes"),
        )
        .into());
    }
    Ok(Frame {
        from,
        tag,
        ctx,
        payload: lease.freeze(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip_over_a_buffer() {
        let payload = Bytes::from_static(b"hello ranks");
        let mut wire = Vec::new();
        write_frame(&mut wire, 3, 77, None, &payload).unwrap();
        // v1 layout byte-for-byte: no context word when ctx is None
        assert_eq!(wire.len(), FRAME_HEADER_BYTES + payload.len());
        let frame =
            read_frame_leased(&mut wire.as_slice(), MAX_PAYLOAD, &PayloadPool::new()).unwrap();
        assert_eq!(frame.from, 3);
        assert_eq!(frame.tag, 77);
        assert_eq!(frame.ctx, None);
        assert_eq!(frame.payload, payload);
    }

    #[test]
    fn v2_frame_carries_span_context() {
        let ctx = SpanContext {
            trace_id: 0xABCD_EF01_2345_6789,
            span_id: 42,
        };
        let payload = Bytes::from_static(b"stitched");
        let mut wire = Vec::new();
        write_frame(&mut wire, 1, 9, Some(ctx), &payload).unwrap();
        assert_eq!(
            wire.len(),
            FRAME_HEADER_BYTES + FRAME_CONTEXT_BYTES + payload.len()
        );
        let frame =
            read_frame_leased(&mut wire.as_slice(), MAX_PAYLOAD, &PayloadPool::new()).unwrap();
        assert_eq!(frame.ctx, Some(ctx));
        assert_eq!(frame.payload, payload);
    }

    #[test]
    fn v1_frames_decode() {
        // A context-free frame written by hand, byte for byte what an
        // un-recorded writer sends: must decode under the v2-aware reader.
        let payload = b"no span context";
        let mut wire = Vec::new();
        let mut header = BytesMut::new();
        header.put_u32_le(FRAME_MAGIC);
        header.put_u32_le(5);
        header.put_u32_le(0x1000);
        header.put_u64_le(payload.len() as u64);
        wire.extend_from_slice(&header);
        wire.extend_from_slice(payload);
        let f = read_frame_leased(&mut wire.as_slice(), MAX_PAYLOAD, &PayloadPool::new()).unwrap();
        assert_eq!(f.from, 5);
        assert_eq!(f.tag, 0x1000);
        assert_eq!(f.ctx, None);
        assert_eq!(&f.payload[..], payload);
    }

    #[test]
    fn several_frames_stream_in_order() {
        let mut wire = Vec::new();
        for i in 0..5u32 {
            write_frame(
                &mut wire,
                i,
                i * 10,
                None,
                &Bytes::from(vec![i as u8; i as usize]),
            )
            .unwrap();
        }
        let mut r = wire.as_slice();
        for i in 0..5u32 {
            let f = read_frame_leased(&mut r, MAX_PAYLOAD, &PayloadPool::new()).unwrap();
            assert_eq!(f.from, i);
            assert_eq!(f.tag, i * 10);
            assert_eq!(f.payload.len(), i as usize);
        }
    }

    #[test]
    fn truncated_frame_errors() {
        let mut wire = Vec::new();
        write_frame(&mut wire, 0, 0, None, &Bytes::from_static(b"abcdef")).unwrap();
        wire.truncate(wire.len() - 2);
        assert!(read_frame_leased(&mut wire.as_slice(), MAX_PAYLOAD, &PayloadPool::new()).is_err());
    }

    #[test]
    fn lying_length_prefix_errors_without_reserving_it() {
        // A well-formed header (magic ok, length under MAX_PAYLOAD) that
        // claims 8 GiB in front of 100 bytes: the short stream is an
        // error naming how far it got, and it is reached having reserved
        // `PAYLOAD_RESERVE_CAP`, not the claimed 8 GiB.
        let mut wire = Vec::new();
        let mut header = BytesMut::new();
        header.put_u32_le(FRAME_MAGIC);
        header.put_u32_le(1);
        header.put_u32_le(2);
        header.put_u64_le(8 << 30);
        wire.extend_from_slice(&header);
        wire.extend_from_slice(&[0xAB; 100]);
        match read_frame_leased(&mut wire.as_slice(), MAX_PAYLOAD, &PayloadPool::new()) {
            Err(TransportError::Io(e)) => {
                assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof);
                assert!(e.to_string().contains("100 of 8589934592"), "{e}");
            }
            other => panic!("expected an UnexpectedEof error, got {other:?}"),
        }
    }

    #[test]
    fn oversized_length_rejected() {
        let mut wire = Vec::new();
        let mut header = BytesMut::new();
        header.put_u32_le(FRAME_MAGIC);
        header.put_u32_le(0);
        header.put_u32_le(0);
        header.put_u64_le(MAX_PAYLOAD + 1);
        wire.extend_from_slice(&header);
        assert!(matches!(
            read_frame_leased(&mut wire.as_slice(), MAX_PAYLOAD, &PayloadPool::new()),
            Err(TransportError::Decode(_))
        ));
    }

    #[test]
    fn bad_magic_rejected() {
        // A plausible-looking header with the wrong magic: must fail with
        // Decode before trusting the (huge) length field.
        let mut wire = Vec::new();
        let mut header = BytesMut::new();
        header.put_u32_le(0xDEAD_BEEF);
        header.put_u32_le(1);
        header.put_u32_le(2);
        header.put_u64_le(1 << 40);
        wire.extend_from_slice(&header);
        match read_frame_leased(&mut wire.as_slice(), MAX_PAYLOAD, &PayloadPool::new()) {
            Err(TransportError::Decode(m)) => assert!(m.contains("magic"), "{m}"),
            other => panic!("expected Decode error, got {other:?}"),
        }
    }

    #[test]
    fn configurable_limit_enforced() {
        let mut wire = Vec::new();
        write_frame(&mut wire, 0, 0, None, &Bytes::from(vec![0u8; 64])).unwrap();
        // the same frame passes with a loose limit and fails with a tight one
        assert!(read_frame_leased(&mut wire.as_slice(), 64, &PayloadPool::new()).is_ok());
        assert!(matches!(
            read_frame_leased(&mut wire.as_slice(), 63, &PayloadPool::new()),
            Err(TransportError::Decode(_))
        ));
    }

    #[test]
    fn dataset_payload_roundtrip() {
        use eth_data::io::binary;
        use eth_data::{DataObject, PointCloud, Vec3};
        let obj = DataObject::Points(PointCloud::from_positions(vec![
            Vec3::ONE,
            Vec3::new(2.0, 3.0, 4.0),
        ]));
        let payload = binary::encode(&obj);
        // through the framing: the decoded positions are the frame's bytes
        let mut wire = Vec::new();
        write_frame(&mut wire, 1, 2, None, &payload).unwrap();
        let frame =
            read_frame_leased(&mut wire.as_slice(), MAX_PAYLOAD, &PayloadPool::new()).unwrap();
        let range = frame.payload.as_ptr_range();
        let back = binary::decode(frame.payload.clone()).unwrap();
        let positions = back.as_points().unwrap().positions().as_ptr_range();
        assert!(range.start <= positions.start.cast() && positions.end.cast() <= range.end);
        assert_eq!(obj, back);
    }

    #[test]
    fn empty_payload_frame() {
        let mut wire = Vec::new();
        write_frame(&mut wire, 9, 1, None, &Bytes::new()).unwrap();
        let f = read_frame_leased(&mut wire.as_slice(), MAX_PAYLOAD, &PayloadPool::new()).unwrap();
        assert!(f.payload.is_empty());
    }

    /// The system allocator, noting the largest single request each thread
    /// has made: a length prefix may make the reader lease no more than
    /// `PAYLOAD_RESERVE_CAP` on its word alone.
    struct LargestRequest;

    thread_local! {
        static LARGEST: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    fn note(size: usize) {
        // `try_with`: a thread being torn down may allocate after its
        // locals are gone
        let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
    }

    // SAFETY: every call is forwarded unchanged to `System`, which upholds
    // the `GlobalAlloc` contract; `note` touches only a `Cell<usize>`
    // thread-local with a const initializer and no destructor, so it
    // neither allocates nor unwinds.
    unsafe impl std::alloc::GlobalAlloc for LargestRequest {
        unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
            note(layout.size());
            std::alloc::System.alloc(layout)
        }

        unsafe fn alloc_zeroed(&self, layout: std::alloc::Layout) -> *mut u8 {
            note(layout.size());
            std::alloc::System.alloc_zeroed(layout)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
            std::alloc::System.dealloc(ptr, layout)
        }

        unsafe fn realloc(
            &self,
            ptr: *mut u8,
            layout: std::alloc::Layout,
            new_size: usize,
        ) -> *mut u8 {
            note(new_size);
            std::alloc::System.realloc(ptr, layout, new_size)
        }
    }

    #[global_allocator]
    static GLOBAL: LargestRequest = LargestRequest;

    #[test]
    fn a_claimed_length_followed_by_eof_leases_at_most_the_reserve_cap() {
        for claim in [60u64 << 20, 8 << 30] {
            let mut wire = BytesMut::new();
            wire.put_u32_le(FRAME_MAGIC);
            wire.put_u32_le(1);
            wire.put_u32_le(2);
            wire.put_u64_le(claim);
            wire.extend_from_slice(&[0xAB; 100]);
            let pool = PayloadPool::new();
            LARGEST.with(|largest| largest.set(0));
            let read = read_frame_leased(&mut &wire[..], MAX_PAYLOAD, &pool);
            let largest = LARGEST.with(|largest| largest.get());
            assert!(
                matches!(read, Err(TransportError::Io(_))),
                "{claim}: {read:?}"
            );
            assert!(
                largest as u64 <= PAYLOAD_RESERVE_CAP,
                "{claim}: asked for {largest} bytes"
            );
            let stats = pool.stats();
            assert_eq!((stats.leased, stats.returned), (1, 1), "{claim}");
        }
    }

    mod pooled {
        use super::*;
        use eth_data::io::pool::FLOOR_BYTES;
        use proptest::prelude::*;

        /// A pool holding `capacities.len()` parked buffers, each filled
        /// to its capacity with 0xAA.
        fn dirty_pool(capacities: &[usize]) -> PayloadPool {
            let pool = PayloadPool::new();
            let leases: Vec<_> = capacities
                .iter()
                .map(|&cap| {
                    let mut lease = pool.lease(cap);
                    let room = lease.buf().capacity();
                    lease.buf().resize(room);
                    lease.buf().as_mut_bytes().fill(0xAA);
                    lease
                })
                .collect();
            drop(leases);
            pool
        }

        fn wire_of(len: usize, seed: u8) -> (Bytes, Vec<u8>) {
            let payload: Bytes = (0..len)
                .map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed))
                .collect::<Vec<u8>>()
                .into();
            let mut wire = Vec::new();
            write_frame(&mut wire, 3, 9, None, &payload).unwrap();
            (payload, wire)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// Frames on either side of `FLOOR_BYTES`, read through a pool
            /// of dirty parked buffers, are the frames a fresh read gives,
            /// byte for byte; and every lease comes back.
            #[test]
            fn pooled_reads_equal_fresh_reads(
                around in 0usize..2 * FLOOR_BYTES,
                seed in 0u8..255,
                parked in prop::collection::vec(FLOOR_BYTES / 2..3 * FLOOR_BYTES, 0..4),
            ) {
                let len = FLOOR_BYTES / 2 + around;
                let (payload, wire) = wire_of(len, seed);
                let pool = dirty_pool(&parked);
                let pooled = read_frame_leased(&mut wire.as_slice(), MAX_PAYLOAD, &pool).unwrap();
                let fresh = read_frame_leased(&mut wire.as_slice(), MAX_PAYLOAD, &PayloadPool::new()).unwrap();
                prop_assert_eq!(&pooled, &fresh);
                prop_assert_eq!(&pooled.payload, &payload);
                drop(pooled);
                let stats = pool.stats();
                prop_assert_eq!(stats.leased, stats.returned);
            }

            /// A frame cut anywhere is an error, and its lease is back by
            /// the time the error is.
            #[test]
            fn every_truncation_errs_and_returns_its_lease(
                around in 0usize..2 * FLOOR_BYTES,
                cut in 0.0f64..1.0,
                parked in prop::collection::vec(FLOOR_BYTES / 2..3 * FLOOR_BYTES, 0..4),
            ) {
                let len = FLOOR_BYTES / 2 + around;
                let (_, wire) = wire_of(len, 7);
                let at = (cut * wire.len() as f64) as usize;
                let pool = dirty_pool(&parked);
                let before = pool.stats();
                prop_assert!(read_frame_leased(&mut &wire[..at], MAX_PAYLOAD, &pool).is_err());
                let stats = pool.stats();
                prop_assert_eq!(stats.leased, stats.returned);
                prop_assert!(stats.leased - before.leased <= 1);
            }
        }
    }

    mod totality {
        use super::*;
        use proptest::prelude::*;

        fn bytes(raw: Vec<u16>) -> Vec<u8> {
            raw.into_iter().map(|b| b as u8).collect()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Arbitrary bytes, and a header under either magic with any
            /// length prefix in front of arbitrary bytes, read to `Ok` or
            /// `Err` — never a panic. A prefix over the limit, or claiming
            /// more bytes than the stream holds, is `Err`; any other is the
            /// frame it describes.
            #[test]
            fn reading_is_total(
                noise in prop::collection::vec(0u16..256, 0..64),
                v2 in 0u8..2,
                from in 0u64..1 << 32,
                tag in 0u64..1 << 32,
                short in 0u64..128,
                any_len in 0u64..u64::MAX,
                tight in 0u64..256,
                pick in 0u8..4,
                body in prop::collection::vec(0u16..256, 0..160),
            ) {
                let _ = read_frame_leased(&mut bytes(noise).as_slice(), MAX_PAYLOAD, &PayloadPool::new());
                // short prefixes often fit the bytes present; any other
                // almost never does
                let len = if pick & 1 == 0 { short } else { any_len };
                let limit = if pick & 2 == 0 { MAX_PAYLOAD } else { tight };

                let body = bytes(body);
                let mut wire = BytesMut::new();
                wire.put_u32_le(if v2 == 1 { FRAME_MAGIC_V2 } else { FRAME_MAGIC });
                wire.put_u32_le(from as u32);
                wire.put_u32_le(tag as u32);
                wire.put_u64_le(len);
                wire.extend_from_slice(&body);
                let ctx = if v2 == 1 { FRAME_CONTEXT_BYTES } else { 0 };
                let present = body.len().saturating_sub(ctx) as u64;
                match read_frame_leased(&mut &wire[..], limit, &PayloadPool::new()) {
                    Ok(frame) => {
                        prop_assert!(len <= limit && len <= present && body.len() >= ctx);
                        prop_assert_eq!(&frame.payload[..], &body[ctx..ctx + len as usize]);
                        prop_assert_eq!((frame.from, frame.tag), (from as u32, tag as u32));
                    }
                    Err(_) => prop_assert!(len > limit || len > present || body.len() < ctx),
                }
            }
        }
    }
}
