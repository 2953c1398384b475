//! Who owns an encoded block's bytes.
//!
//! A loosely-coupled step encodes every block into a buffer of tens of
//! megabytes on one rank's thread and drops it on another's (the
//! visualization rank, after decode; the socket writer, after the send),
//! and across a socket the receiving end reads the same bytes into a
//! buffer of its own. Left to the allocator, each buffer is mapped,
//! faulted in page by page and unmapped again every block of every step —
//! a cost the simulation a proxy stands for never pays, because it reuses
//! its send and receive buffers.
//!
//! [`PayloadPool`] gives the buffers an owner that outlives the step: it
//! [`lease`](PayloadPool::lease)s an [`AlignedBuf`] and takes it back when
//! the [`Lease`] drops. A lease frozen into a [`Bytes`] drops with the
//! *last* handle to it, on whichever thread and by whichever path — the
//! last array a decode viewed in it dropped after the render, discarded by
//! a fault injector, a failed send, an unwinding rank — so there is no
//! "give back" call to forget.
//!
//! Nothing here is settable. The pool parks at most [`PARKED_MAX`] buffers
//! (a returning buffer past that evicts the longest-parked one, so the
//! pool follows the block size of the run in progress), hands out the
//! smallest parked buffer that fits, and stays out of the allocator's way
//! below [`FLOOR_BYTES`], where malloc recycles well on its own.

use crate::io::aligned::AlignedBuf;
use bytes::Bytes;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, Weak};

/// Requests below this are plain allocations the pool never sees again:
/// glibc's default mmap threshold, under which malloc serves and reuses
/// chunks from its arenas, and at or above which every fresh request is
/// mapped, faulted in and parked or unmapped by glibc's own rules.
pub const FLOOR_BYTES: usize = 128 << 10;

/// Most buffers parked at once: the blocks one step of a two-rank pair
/// run has in flight, with one step of simulation run-ahead, at both ends
/// of a socket wire (2 ranks × 2 steps × 2 ends). A local fabric's two
/// ends share one buffer and never fill half of it.
pub const PARKED_MAX: usize = 8;

/// Counts since the pool was made. `leased - returned` leases are out.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Leases of at least [`FLOOR_BYTES`] handed out.
    pub leased: u64,
    /// Of those, the ones no parked buffer could serve.
    pub fresh: u64,
    /// Bytes allocated for the `fresh` ones.
    pub fresh_bytes: u64,
    /// Leases that came back (parked, or let go past the cap).
    pub returned: u64,
    /// Buffers parked right now.
    pub parked: usize,
}

#[derive(Default)]
struct Shared {
    parked: Mutex<VecDeque<AlignedBuf>>,
    leased: AtomicU64,
    fresh: AtomicU64,
    fresh_bytes: AtomicU64,
    returned: AtomicU64,
}

impl Shared {
    /// The parked list is valid after every statement that touches it, so
    /// a panic elsewhere while it was held loses nothing.
    fn parked(&self) -> std::sync::MutexGuard<'_, VecDeque<AlignedBuf>> {
        self.parked.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A recycler for encoded-payload buffers; see the module docs. Clones are
/// handles to one pool. Dropping the last handle frees what the pool
/// parked; leases still out are then freed as they drop.
#[derive(Clone, Default)]
pub struct PayloadPool {
    shared: Arc<Shared>,
}

impl PayloadPool {
    pub fn new() -> PayloadPool {
        PayloadPool::default()
    }

    /// An empty buffer with room for `exact_len` bytes: the smallest
    /// parked one that fits, else a fresh allocation of exactly that size.
    pub fn lease(&self, exact_len: usize) -> Lease {
        if exact_len < FLOOR_BYTES {
            return Lease {
                buf: AlignedBuf::with_capacity(exact_len),
                home: Weak::new(),
            };
        }
        self.shared.leased.fetch_add(1, Ordering::Relaxed);
        let recycled = {
            let mut parked = self.shared.parked();
            let best = (0..parked.len())
                .filter(|&i| parked[i].capacity() >= exact_len)
                .min_by_key(|&i| parked[i].capacity());
            best.and_then(|i| parked.remove(i))
        };
        let buf = recycled.unwrap_or_else(|| {
            let buf = AlignedBuf::with_capacity(exact_len);
            self.shared.fresh.fetch_add(1, Ordering::Relaxed);
            let bytes = buf.capacity() as u64;
            self.shared.fresh_bytes.fetch_add(bytes, Ordering::Relaxed);
            buf
        });
        Lease {
            buf,
            home: Arc::downgrade(&self.shared),
        }
    }

    pub fn stats(&self) -> PoolStats {
        PoolStats {
            leased: self.shared.leased.load(Ordering::Relaxed),
            fresh: self.shared.fresh.load(Ordering::Relaxed),
            fresh_bytes: self.shared.fresh_bytes.load(Ordering::Relaxed),
            returned: self.shared.returned.load(Ordering::Relaxed),
            parked: self.shared.parked().len(),
        }
    }
}

/// A buffer on loan from a [`PayloadPool`]; dropping it is the return.
pub struct Lease {
    buf: AlignedBuf,
    home: Weak<Shared>,
}

impl Lease {
    /// The buffer to fill.
    pub fn buf(&mut self) -> &mut AlignedBuf {
        &mut self.buf
    }

    /// The filled buffer as shareable bytes; it goes home when the last
    /// handle drops.
    pub fn freeze(self) -> Bytes {
        Bytes::from_owner(self)
    }
}

impl AsRef<[u8]> for Lease {
    fn as_ref(&self) -> &[u8] {
        self.buf.as_bytes()
    }
}

impl Drop for Lease {
    fn drop(&mut self) {
        let Some(home) = self.home.upgrade() else {
            return;
        };
        home.returned.fetch_add(1, Ordering::Relaxed);
        let mut buf = std::mem::take(&mut self.buf);
        if buf.capacity() < FLOOR_BYTES {
            return;
        }
        buf.clear();
        let evicted = {
            let mut parked = home.parked();
            parked.push_back(buf);
            (parked.len() > PARKED_MAX)
                .then(|| parked.pop_front())
                .flatten()
        };
        // freed (unmapped) outside the lock
        drop(evicted);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIB: usize = 1 << 20;

    fn filled(pool: &PayloadPool, len: usize) -> Bytes {
        let mut lease = pool.lease(len);
        lease.buf().extend_from_slice(&vec![7; len]);
        lease.freeze()
    }

    #[test]
    fn a_lease_dropped_on_another_thread_comes_back() {
        let pool = PayloadPool::new();
        let bytes = filled(&pool, 2 * MIB);
        let view = bytes.slice(10..20);
        drop(bytes);
        assert_eq!(pool.stats().returned, 0, "a slice still views the buffer");
        std::thread::spawn(move || drop(view)).join().unwrap();
        let stats = pool.stats();
        assert_eq!(
            (stats.leased, stats.fresh, stats.returned, stats.parked),
            (1, 1, 1, 1)
        );
        assert_eq!(stats.fresh_bytes, 2 * MIB as u64);
        // the next lease of that size is the same allocation, empty
        let mut again = pool.lease(2 * MIB);
        assert!(again.buf().is_empty() && again.buf().capacity() >= 2 * MIB);
        assert_eq!(pool.stats().fresh, 1);
    }

    #[test]
    fn lease_takes_the_smallest_parked_buffer_that_fits() {
        let pool = PayloadPool::new();
        let held: Vec<Lease> = [8, 2, 4].iter().map(|&m| pool.lease(m * MIB)).collect();
        drop(held);
        assert_eq!(pool.stats().parked, 3);
        let mut lease = pool.lease(3 * MIB);
        assert_eq!(lease.buf().capacity(), 4 * MIB);
        let mut lease = pool.lease(3 * MIB);
        assert_eq!(lease.buf().capacity(), 8 * MIB);
        // only the 2 MiB buffer is left: too small, so a fresh allocation
        let before = pool.stats().fresh;
        let mut lease = pool.lease(3 * MIB);
        assert_eq!(lease.buf().capacity(), 3 * MIB);
        assert_eq!(pool.stats().fresh, before + 1);
    }

    #[test]
    fn parks_at_most_the_cap_and_lets_the_longest_parked_go() {
        let pool = PayloadPool::new();
        let held: Vec<Lease> = (0..PARKED_MAX + 2)
            .map(|i| pool.lease((i + 1) * MIB))
            .collect();
        // returned in ascending size, so the two smallest are evicted
        for lease in held {
            drop(lease);
        }
        let stats = pool.stats();
        assert_eq!(stats.parked, PARKED_MAX);
        assert_eq!(stats.returned, PARKED_MAX as u64 + 2);
        let mut smallest = pool.lease(MIB);
        assert_eq!(smallest.buf().capacity(), 3 * MIB);
    }

    #[test]
    fn buffers_under_the_floor_are_never_parked() {
        let pool = PayloadPool::new();
        drop(filled(&pool, FLOOR_BYTES - 1));
        drop(pool.lease(0));
        assert_eq!(pool.stats(), PoolStats::default());
        // nor is a pooled buffer its holder shrank below the floor
        let mut lease = pool.lease(FLOOR_BYTES);
        lease.buf().shrink_to(16);
        drop(lease);
        let stats = pool.stats();
        assert_eq!((stats.leased, stats.returned, stats.parked), (1, 1, 0));
    }

    #[test]
    fn dropping_the_pool_frees_what_it_parked() {
        let pool = PayloadPool::new();
        let out = filled(&pool, 2 * MIB);
        drop(pool.lease(2 * MIB));
        let shared = Arc::downgrade(&pool.shared);
        assert_eq!(pool.stats().parked, 1);
        drop(pool);
        // the parked list went with the pool; the lease still out reads
        // fine and is simply freed when it drops
        assert!(shared.upgrade().is_none());
        assert_eq!(out.len(), 2 * MIB);
        drop(out);
    }
}
