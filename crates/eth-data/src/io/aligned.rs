//! Byte buffers whose first byte sits on an [`ALIGN`]-byte boundary.
//!
//! [`super::binary::decode`] hands out views into the buffer a block
//! arrived in, so that buffer's first byte must be aligned for the widest
//! element an `.ebd` array holds (`u64` ids). A `Vec<u8>` promises
//! alignment 1 — that malloc happens to return 16 is not a promise — so
//! every buffer the codec, the payload pool, the socket reader and the
//! file reader fill is an [`AlignedBuf`]: bytes stored in `u64` words,
//! aligned by construction.

use bytes::{BufMut, Bytes};
use std::io::Read;

/// Alignment of every [`AlignedBuf`]'s first byte, in bytes.
pub const ALIGN: usize = std::mem::align_of::<u64>();

const WORD: usize = std::mem::size_of::<u64>();

const _: () = assert!(ALIGN == 8 && WORD == 8);

/// How far [`AlignedBuf::read_from`] zero-extends a buffer ahead of the
/// bytes that have arrived.
const FILL_STEP: usize = 64 << 10;

/// A growable byte buffer aligned to [`ALIGN`]. Frozen into [`Bytes`] with
/// [`AlignedBuf::freeze`], it is the owner the bytes (and any array viewing
/// them) keep alive.
#[derive(Default)]
pub struct AlignedBuf {
    /// The storage. Every word is initialised and `words.len() * 8 >= len`;
    /// words past `len` keep whatever an earlier fill left, so a cleared
    /// buffer is refilled without being zeroed again.
    words: Vec<u64>,
    /// Bytes in use.
    len: usize,
}

impl AlignedBuf {
    pub fn new() -> AlignedBuf {
        AlignedBuf::default()
    }

    /// An empty buffer with room for `bytes` bytes.
    pub fn with_capacity(bytes: usize) -> AlignedBuf {
        AlignedBuf {
            words: Vec::with_capacity(bytes.div_ceil(WORD)),
            len: 0,
        }
    }

    /// `len` zero bytes. A large fresh allocation comes from the allocator
    /// already zeroed (`calloc`), so its pages are not touched here.
    pub fn zeroed(len: usize) -> AlignedBuf {
        AlignedBuf {
            words: vec![0; len.div_ceil(WORD)],
            len,
        }
    }

    /// A copy of `src`.
    pub fn copy_from_slice(src: &[u8]) -> AlignedBuf {
        let mut buf = AlignedBuf::with_capacity(src.len());
        buf.extend_from_slice(src);
        buf
    }

    /// Everything `r` has left. A right `len_hint` (a file's length) costs
    /// one allocation, and only the pages the bytes fill are touched.
    pub fn read_to_end(r: &mut impl Read, len_hint: usize) -> std::io::Result<AlignedBuf> {
        let mut buf = AlignedBuf::zeroed(len_hint);
        let mut filled = 0;
        loop {
            let read = if filled < buf.len {
                r.read(&mut buf.as_mut_bytes()[filled..])
            } else {
                // full: a short probe tells the end from a longer input,
                // and only a longer input grows the buffer
                let mut probe = [0u8; 64];
                r.read(&mut probe).inspect(|&n| {
                    if n > 0 {
                        buf.resize((2 * filled).max(filled + n));
                        buf.as_mut_bytes()[filled..filled + n].copy_from_slice(&probe[..n]);
                    }
                })
            };
            match read {
                Ok(0) => break,
                Ok(n) => filled += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        buf.len = filled;
        Ok(buf)
    }

    /// Append up to `want` bytes from `r`, stopping early only where `r`
    /// ends; returns how many arrived. Words an earlier fill initialised
    /// are read into as they stand, so a recycled buffer is not zeroed
    /// again; past them the buffer is zero-extended at most one 64 KiB
    /// step ahead of what has arrived, so a stream that ends early leaves
    /// no zeroed tail to speak of, whatever `want` claimed.
    pub fn read_from(&mut self, r: &mut impl Read, want: usize) -> std::io::Result<usize> {
        let start = self.len;
        let end = start.saturating_add(want);
        while self.len < end {
            let filled = self.len;
            let initialised = self.words.len() * WORD;
            let window = if filled < initialised {
                initialised
            } else {
                filled.saturating_add(FILL_STEP)
            };
            let window = window.min(end);
            self.resize(window);
            let read = r.read(&mut self.as_mut_bytes()[filled..]);
            self.len = filled;
            match read {
                Ok(0) => break,
                Ok(n) => self.len += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(self.len - start)
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes the buffer holds without reallocating.
    pub fn capacity(&self) -> usize {
        self.words.capacity() * WORD
    }

    /// Empty the buffer, keeping its allocation (and its initialised
    /// words, so a refill does not zero them first).
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// Give back capacity beyond `max(len, min_capacity)` bytes.
    pub fn shrink_to(&mut self, min_capacity: usize) {
        let keep = self.len.max(min_capacity).div_ceil(WORD);
        self.words.truncate(keep);
        self.words.shrink_to(keep);
    }

    /// Set the length to `len`; bytes past the old length are zero or what
    /// an earlier fill left there.
    pub fn resize(&mut self, len: usize) {
        let words = len.div_ceil(WORD);
        if words > self.words.len() {
            self.words.resize(words, 0);
        }
        self.len = len;
    }

    pub fn extend_from_slice(&mut self, src: &[u8]) {
        let start = self.len;
        self.resize(start + src.len());
        self.as_mut_bytes()[start..].copy_from_slice(src);
    }

    pub fn as_bytes(&self) -> &[u8] {
        // SAFETY: the words are initialised `u64`s, which have no padding,
        // so their memory is `words.len() * 8` initialised bytes; `len`
        // never exceeds that; `u8` has alignment 1; and the borrow of
        // `self` keeps the storage alive and unaliased by writers.
        unsafe { std::slice::from_raw_parts(self.words.as_ptr().cast::<u8>(), self.len) }
    }

    pub fn as_mut_bytes(&mut self) -> &mut [u8] {
        // SAFETY: as in `as_bytes`, and every byte pattern is a valid
        // `u64`, so any write through the returned slice leaves the words
        // valid.
        unsafe { std::slice::from_raw_parts_mut(self.words.as_mut_ptr().cast::<u8>(), self.len) }
    }

    /// The filled bytes as shareable [`Bytes`], aligned to [`ALIGN`].
    pub fn freeze(self) -> Bytes {
        Bytes::from_owner(self)
    }
}

impl AsRef<[u8]> for AlignedBuf {
    fn as_ref(&self) -> &[u8] {
        self.as_bytes()
    }
}

impl BufMut for AlignedBuf {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn aligned(bytes: &[u8]) -> bool {
        (bytes.as_ptr() as usize).is_multiple_of(ALIGN)
    }

    #[test]
    fn every_buffer_starts_aligned() {
        assert!(aligned(AlignedBuf::new().as_bytes()));
        for n in [0, 1, 7, 8, 9, 1000] {
            let buf = AlignedBuf::copy_from_slice(&vec![3; n]);
            assert_eq!(buf.as_bytes(), &vec![3; n][..]);
            assert!(aligned(buf.as_bytes()));
            let frozen = buf.freeze();
            assert!(aligned(&frozen) && frozen.len() == n);
        }
    }

    #[test]
    fn cleared_buffers_keep_capacity_and_refill_exactly() {
        let mut buf = AlignedBuf::with_capacity(100);
        buf.extend_from_slice(&[1; 13]);
        buf.put_slice(&[2; 3]);
        assert_eq!(buf.as_bytes(), &[[1; 13].as_slice(), &[2; 3]].concat()[..]);
        let cap = buf.capacity();
        buf.clear();
        assert!(buf.is_empty() && buf.capacity() == cap);
        buf.extend_from_slice(&[9; 5]);
        assert_eq!(buf.as_bytes(), &[9; 5]);
        buf.shrink_to(0);
        assert_eq!(buf.capacity(), 8);
        assert_eq!(buf.as_bytes(), &[9; 5]);
    }

    #[test]
    fn read_to_end_grows_past_the_hint_and_only_then() {
        let src: Vec<u8> = (0..=255).cycle().take(70_001).collect();
        for hint in [0, 10, 70_001, 1 << 20] {
            let buf = AlignedBuf::read_to_end(&mut &src[..], hint).unwrap();
            assert_eq!(buf.as_bytes(), &src[..]);
            assert!(aligned(buf.as_bytes()));
            // an exact hint is one allocation: the end of the input does
            // not double it
            if hint >= src.len() {
                assert_eq!(buf.capacity(), hint.next_multiple_of(8));
            }
        }
    }

    #[test]
    fn read_from_takes_what_is_wanted_and_stops_at_the_end() {
        let src: Vec<u8> = (0..=255).cycle().take(3 * FILL_STEP + 5).collect();
        let mut buf = AlignedBuf::copy_from_slice(b"head");
        assert_eq!(
            buf.read_from(&mut &src[..], 2 * FILL_STEP + 1).unwrap(),
            2 * FILL_STEP + 1
        );
        assert_eq!(&buf.as_bytes()[4..], &src[..2 * FILL_STEP + 1]);
        let mut buf = AlignedBuf::new();
        assert_eq!(buf.read_from(&mut &src[..], usize::MAX).unwrap(), src.len());
        assert_eq!(buf.as_bytes(), &src[..]);
        assert!(aligned(buf.as_bytes()));
        assert_eq!(buf.read_from(&mut &src[..0], 10).unwrap(), 0);
    }

    #[test]
    fn read_from_zeroes_a_fresh_buffer_one_step_ahead_and_a_recycled_one_not_at_all() {
        // a fresh buffer sized for 8 MiB that receives 100 bytes has
        // initialised one step, not 8 MiB
        let mut fresh = AlignedBuf::with_capacity(8 << 20);
        assert_eq!(fresh.read_from(&mut &[7u8; 100][..], 8 << 20).unwrap(), 100);
        assert_eq!(fresh.words.len() * WORD, FILL_STEP);
        assert_eq!(fresh.capacity(), 8 << 20);

        // a recycled buffer is read into as it stands: no word past the
        // new bytes changes, and the storage is the same allocation
        let mut recycled = AlignedBuf::copy_from_slice(&vec![0xAA; 3 * FILL_STEP]);
        let (words, storage) = (recycled.words.len(), recycled.words.as_ptr());
        recycled.clear();
        let src = vec![1u8; 2 * FILL_STEP + 3];
        assert_eq!(
            recycled.read_from(&mut &src[..], usize::MAX).unwrap(),
            src.len()
        );
        assert_eq!(recycled.as_bytes(), &src[..]);
        assert_eq!(
            (recycled.words.len(), recycled.words.as_ptr()),
            (words, storage)
        );
        recycled.resize(3 * FILL_STEP);
        assert!(recycled.as_bytes()[src.len()..].iter().all(|&b| b == 0xAA));
    }
}
