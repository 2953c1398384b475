//! Minimal `bytes` stand-in.
//!
//! `Bytes` is a reference-counted byte store plus a sub-range, so `clone`,
//! `slice` and `split_to` are O(1) and never copy payload bytes — the
//! property the transport layer's zero-copy decode path depends on. The
//! store is a `Vec<u8>` or, through [`Bytes::from_owner`], any value that
//! can lend its bytes; it is dropped with the last handle, on whichever
//! thread drops it.

use std::fmt;
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// Cheaply cloneable, sliceable, immutable byte buffer.
#[derive(Clone)]
pub struct Bytes {
    data: Arc<Store>,
    start: usize,
    end: usize,
}

enum Store {
    Vec(Vec<u8>),
    Owner(Box<dyn AsRef<[u8]> + Send + Sync>),
}

impl Bytes {
    pub fn new() -> Self {
        Bytes::from(Vec::new())
    }

    pub fn from_static(bytes: &'static [u8]) -> Self {
        Bytes::from(bytes.to_vec())
    }

    pub fn copy_from_slice(bytes: &[u8]) -> Self {
        Bytes::from(bytes.to_vec())
    }

    pub fn len(&self) -> usize {
        self.end - self.start
    }

    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// A `Bytes` over `owner`'s bytes that keeps `owner` alive and drops
    /// it with the last handle (clones, slices and splits all count), so
    /// the owner's `Drop` is where a buffer goes back to whoever lent it.
    /// The real crate asks only `Send` of the owner; this stand-in shares
    /// it behind a safe `Arc` and so also asks `Sync`.
    pub fn from_owner<T>(owner: T) -> Self
    where
        T: AsRef<[u8]> + Send + Sync + 'static,
    {
        let end = owner.as_ref().len();
        Bytes {
            data: Arc::new(Store::Owner(Box::new(owner))),
            start: 0,
            end,
        }
    }

    fn as_slice(&self) -> &[u8] {
        let all = match &*self.data {
            Store::Vec(v) => v.as_slice(),
            Store::Owner(owner) => (**owner).as_ref(),
        };
        &all[self.start..self.end]
    }

    /// O(1) sub-range sharing the same backing allocation.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(
            lo <= hi && hi <= self.len(),
            "slice range {lo}..{hi} out of bounds for Bytes of length {}",
            self.len()
        );
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start + lo,
            end: self.start + hi,
        }
    }

    /// Split off the first `at` bytes, O(1). `self` keeps the tail.
    pub fn split_to(&mut self, at: usize) -> Bytes {
        assert!(
            at <= self.len(),
            "split_to({at}) out of bounds for Bytes of length {}",
            self.len()
        );
        let head = Bytes {
            data: Arc::clone(&self.data),
            start: self.start,
            end: self.start + at,
        };
        self.start += at;
        head
    }

    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    /// True when two handles view the same backing allocation (test aid for
    /// asserting zero-copy behaviour; not part of the real bytes API).
    pub fn shares_allocation_with(&self, other: &Bytes) -> bool {
        Arc::ptr_eq(&self.data, &other.data)
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let end = v.len();
        Bytes {
            data: Arc::new(Store::Vec(v)),
            start: 0,
            end,
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Self {
        Bytes::from(v.to_vec())
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice() {
            if (0x20..0x7f).contains(&b) && b != b'"' && b != b'\\' {
                write!(f, "{}", b as char)?;
            } else {
                write!(f, "\\x{b:02x}")?;
            }
        }
        write!(f, "\"")
    }
}

macro_rules! impl_partial_eq {
    ($($ty:ty),*) => {$(
        impl PartialEq<$ty> for Bytes {
            fn eq(&self, other: &$ty) -> bool {
                self.as_slice() == &other[..]
            }
        }
    )*};
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for Bytes {}
impl_partial_eq!([u8], &[u8], Vec<u8>);

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

/// Growable buffer for building a `Bytes`.
#[derive(Default, Clone, Debug, PartialEq, Eq)]
pub struct BytesMut {
    vec: Vec<u8>,
}

impl BytesMut {
    pub fn new() -> Self {
        BytesMut { vec: Vec::new() }
    }

    pub fn with_capacity(cap: usize) -> Self {
        BytesMut {
            vec: Vec::with_capacity(cap),
        }
    }

    pub fn len(&self) -> usize {
        self.vec.len()
    }

    pub fn is_empty(&self) -> bool {
        self.vec.is_empty()
    }

    pub fn capacity(&self) -> usize {
        self.vec.capacity()
    }

    pub fn extend_from_slice(&mut self, other: &[u8]) {
        self.vec.extend_from_slice(other);
    }

    pub fn freeze(self) -> Bytes {
        Bytes::from(self.vec)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.vec
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.vec
    }
}

/// Read cursor over a byte source. Little-endian accessors only — that is
/// the only endianness this workspace uses on the wire.
pub trait Buf {
    fn remaining(&self) -> usize;
    fn chunk(&self) -> &[u8];
    fn advance(&mut self, cnt: usize);

    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(
            self.remaining() >= dst.len(),
            "copy_to_slice needs {} bytes, only {} remain",
            dst.len(),
            self.remaining()
        );
        dst.copy_from_slice(&self.chunk()[..dst.len()]);
        self.advance(dst.len());
    }

    fn get_u8(&mut self) -> u8 {
        let mut b = [0u8; 1];
        self.copy_to_slice(&mut b);
        b[0]
    }

    fn get_u16_le(&mut self) -> u16 {
        let mut b = [0u8; 2];
        self.copy_to_slice(&mut b);
        u16::from_le_bytes(b)
    }

    fn get_u32_le(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.copy_to_slice(&mut b);
        u32::from_le_bytes(b)
    }

    fn get_u64_le(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        u64::from_le_bytes(b)
    }

    fn get_f32_le(&mut self) -> f32 {
        f32::from_bits(self.get_u32_le())
    }

    fn get_f64_le(&mut self) -> f64 {
        f64::from_bits(self.get_u64_le())
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        self.as_slice()
    }

    fn advance(&mut self, cnt: usize) {
        assert!(
            cnt <= self.len(),
            "advance({cnt}) out of bounds for Bytes of length {}",
            self.len()
        );
        self.start += cnt;
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        self
    }

    fn advance(&mut self, cnt: usize) {
        *self = &self[cnt..];
    }
}

/// Write cursor; the mirror of [`Buf`].
pub trait BufMut {
    fn put_slice(&mut self, src: &[u8]);

    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    fn put_u16_le(&mut self, v: u16) {
        self.put_slice(&v.to_le_bytes());
    }

    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }

    fn put_f32_le(&mut self, v: f32) {
        self.put_slice(&v.to_bits().to_le_bytes());
    }

    fn put_f64_le(&mut self, v: f64) {
        self.put_slice(&v.to_bits().to_le_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.vec.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_le() {
        let mut m = BytesMut::with_capacity(32);
        m.put_u8(7);
        m.put_u16_le(300);
        m.put_u32_le(70_000);
        m.put_u64_le(1 << 40);
        m.put_f32_le(1.5);
        let mut b = m.freeze();
        assert_eq!(b.get_u8(), 7);
        assert_eq!(b.get_u16_le(), 300);
        assert_eq!(b.get_u32_le(), 70_000);
        assert_eq!(b.get_u64_le(), 1 << 40);
        assert_eq!(b.get_f32_le(), 1.5);
        assert!(b.is_empty());
    }

    #[test]
    fn split_to_is_zero_copy() {
        let mut b = Bytes::from(vec![1, 2, 3, 4, 5]);
        let head = b.clone();
        let front = b.split_to(2);
        assert_eq!(&front[..], &[1, 2]);
        assert_eq!(&b[..], &[3, 4, 5]);
        assert!(front.shares_allocation_with(&head));
        assert!(b.shares_allocation_with(&head));
    }

    #[test]
    fn slice_bounds() {
        let b = Bytes::from(vec![0, 1, 2, 3]);
        assert_eq!(&b.slice(1..3)[..], &[1, 2]);
        assert_eq!(b.slice(..).len(), 4);
        assert_eq!(b.slice(4..4).len(), 0);
    }

    #[test]
    fn owner_is_dropped_with_the_last_handle() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        struct Lent(Vec<u8>, Arc<AtomicUsize>);
        impl AsRef<[u8]> for Lent {
            fn as_ref(&self) -> &[u8] {
                &self.0
            }
        }
        impl Drop for Lent {
            fn drop(&mut self) {
                self.1.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        let mut b = Bytes::from_owner(Lent(vec![1, 2, 3, 4], drops.clone()));
        assert_eq!(&b[..], &[1, 2, 3, 4]);
        let head = b.split_to(1);
        let tail = b.slice(1..);
        assert_eq!((&head[..], &tail[..]), (&[1u8][..], &[3u8, 4][..]));
        drop(b);
        drop(head);
        assert_eq!(drops.load(Ordering::SeqCst), 0, "a slice still views it");
        // the last handle goes on another thread; the owner goes with it
        std::thread::spawn(move || drop(tail)).join().unwrap();
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    #[test]
    #[should_panic(expected = "split_to")]
    fn split_past_end_panics() {
        let mut b = Bytes::from(vec![1]);
        b.split_to(2);
    }
}
