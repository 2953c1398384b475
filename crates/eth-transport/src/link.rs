//! The sim↔viz pair link: the one process boundary a block crosses.
//!
//! Section III-C pairs every simulation-proxy rank with the visualization
//! rank that drains it. Inside one job that pairing rides the job's fabric
//! ([`FabricLink`], a view of a [`Communicator`] fixed on one peer);
//! between two jobs it is a TCP stream
//! ([`crate::socket::StreamChannel`]). Code that moves blocks is written
//! against [`PairLink`] and does not know which; the fault wrapper
//! ([`crate::chaos::ChaosLink`]) wraps either.

use crate::comm::{Communicator, Result};
use bytes::Bytes;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// A tagged, ordered, two-ended channel between a rank and one fixed peer.
pub trait PairLink {
    /// This end's rank (stamped into outgoing messages).
    fn local_rank(&self) -> usize;

    /// The rank on the far side.
    fn peer_rank(&self) -> usize;

    /// Send `payload` to the peer under `tag`.
    fn send(&self, tag: u32, payload: Bytes) -> Result<()>;

    /// Block until a message with `tag` arrives; with `within`, give up
    /// after that long with [`crate::TransportError::Timeout`].
    fn recv(&self, tag: u32, within: Option<Duration>) -> Result<Bytes>;

    /// Bytes this end sent through the link. A view of a communicator
    /// reports its own sends, which that communicator's `traffic()` counts
    /// as well: a rank adding the two must not also send through the view.
    fn bytes_sent(&self) -> u64;
}

/// A [`Communicator`] seen from one rank towards one peer.
pub struct FabricLink<'a> {
    comm: &'a dyn Communicator,
    peer: usize,
    sent: AtomicU64,
}

impl<'a> FabricLink<'a> {
    pub fn new(comm: &'a dyn Communicator, peer: usize) -> FabricLink<'a> {
        FabricLink {
            comm,
            peer,
            sent: AtomicU64::new(0),
        }
    }
}

impl PairLink for FabricLink<'_> {
    fn local_rank(&self) -> usize {
        self.comm.rank()
    }

    fn peer_rank(&self) -> usize {
        self.peer
    }

    fn send(&self, tag: u32, payload: Bytes) -> Result<()> {
        // counted as the communicator counts it: once handed over
        self.sent.fetch_add(payload.len() as u64, Ordering::Relaxed);
        self.comm.send(self.peer, tag, payload)
    }

    fn recv(&self, tag: u32, within: Option<Duration>) -> Result<Bytes> {
        match within {
            Some(timeout) => self.comm.recv_timeout(self.peer, tag, timeout),
            None => self.comm.recv(self.peer, tag),
        }
    }

    fn bytes_sent(&self) -> u64 {
        self.sent.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::TransportError;
    use crate::local::LocalFabric;

    #[test]
    fn fabric_link_is_the_communicator_fixed_on_one_peer() {
        let comms = LocalFabric::new(3);
        let up = FabricLink::new(&comms[0], 2);
        let down = FabricLink::new(&comms[2], 0);
        assert_eq!((up.local_rank(), up.peer_rank()), (0, 2));
        up.send(7, Bytes::from_static(b"block")).unwrap();
        assert_eq!(&down.recv(7, None).unwrap()[..], b"block");
        let err = down.recv(7, Some(Duration::from_millis(20))).unwrap_err();
        assert!(matches!(err, TransportError::Timeout { peer: 0, .. }), "{err}");
        // the view counts its own sends, as the fabric's counters do
        assert_eq!(up.bytes_sent(), 5);
        assert_eq!(down.bytes_sent(), 0);
        assert_eq!(comms[0].traffic().bytes_sent, 5);
    }
}
