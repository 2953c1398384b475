//! In-process communicator: ranks are threads, links are crossbeam
//! channels. This is the intra-job MPI role: tight and intercore coupling
//! run entirely over this fabric.

use crate::comm::{Communicator, Result, TrafficCounters, TransportError};
use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

// (from, tag, sender's span context when recording, payload)
type Envelope = (usize, u32, Option<eth_obs::SpanContext>, Bytes);

/// Shared counters (atomics so `&self` sends can update them).
#[derive(Default)]
struct Counters {
    messages_sent: AtomicU64,
    bytes_sent: AtomicU64,
    messages_received: AtomicU64,
    bytes_received: AtomicU64,
}

/// One rank's endpoint on the local fabric.
pub struct LocalComm {
    rank: usize,
    size: usize,
    /// Sender to every *other* rank's inbox. A rank holds no sender to its
    /// own inbox (self-sends go straight to `pending`), so once every peer
    /// has dropped its endpoint a blocked receive fails with
    /// `Disconnected` instead of waiting forever for a message nobody is
    /// left to send.
    outboxes: Vec<Option<Sender<Envelope>>>,
    inbox: Receiver<Envelope>,
    /// Messages received but not yet matched by (from, tag).
    pending: Mutex<Vec<Envelope>>,
    counters: Arc<Counters>,
}

/// Factory for a set of connected [`LocalComm`] endpoints.
pub struct LocalFabric;

impl LocalFabric {
    /// Create `size` endpoints wired all-to-all.
    #[allow(clippy::new_ret_no_self)] // a fabric *is* its endpoints
    pub fn new(size: usize) -> Vec<LocalComm> {
        assert!(size > 0, "fabric needs at least one rank");
        let mut inboxes = Vec::with_capacity(size);
        let mut senders = Vec::with_capacity(size);
        for _ in 0..size {
            let (tx, rx) = unbounded::<Envelope>();
            senders.push(tx);
            inboxes.push(rx);
        }
        inboxes
            .into_iter()
            .enumerate()
            .map(|(rank, inbox)| LocalComm {
                rank,
                size,
                outboxes: senders
                    .iter()
                    .enumerate()
                    .map(|(to, tx)| (to != rank).then(|| tx.clone()))
                    .collect(),
                inbox,
                pending: Mutex::new(Vec::new()),
                counters: Arc::new(Counters::default()),
            })
            .collect()
    }
}

impl LocalComm {
    /// Shared receive path: match from `pending`, then pull from the
    /// channel (bounded by `deadline` when given) buffering non-matches.
    fn recv_inner(&self, from: usize, tag: u32, deadline: Option<Instant>) -> Result<Bytes> {
        let mut span = eth_obs::span(eth_obs::Phase::Recv);
        self.check_peer(from)?;
        let started = Instant::now();
        // Check messages already pulled off the channel.
        {
            let matched = {
                let mut pending = self.pending.lock();
                pending
                    .iter()
                    .position(|(f, t, _, _)| *f == from && *t == tag)
                    .map(|pos| pending.remove(pos))
            };
            if let Some((_, _, ctx, payload)) = matched {
                self.counters
                    .messages_received
                    .fetch_add(1, Ordering::Relaxed);
                self.counters
                    .bytes_received
                    .fetch_add(payload.len() as u64, Ordering::Relaxed);
                span.set_bytes(payload.len() as u64);
                if let Some(ctx) = ctx {
                    eth_obs::flow_in(ctx, from, tag, payload.len() as u64);
                }
                return Ok(payload);
            }
        }
        // Pull from the channel until a match appears; buffer the rest.
        loop {
            let envelope = match deadline {
                None => self
                    .inbox
                    .recv()
                    .map_err(|_| TransportError::Disconnected { peer: from })?,
                Some(d) => match self.inbox.recv_deadline(d) {
                    Ok(e) => e,
                    Err(RecvTimeoutError::Timeout) => {
                        return Err(TransportError::Timeout {
                            peer: from,
                            elapsed: started.elapsed(),
                        })
                    }
                    Err(RecvTimeoutError::Disconnected) => {
                        // Nothing can arrive any more, but the caller
                        // budgeted for a timeout: report it at the deadline,
                        // so how a lost message is classified never depends
                        // on how early the peers happened to exit.
                        std::thread::sleep(d.saturating_duration_since(Instant::now()));
                        return Err(TransportError::Timeout {
                            peer: from,
                            elapsed: started.elapsed(),
                        });
                    }
                },
            };
            if envelope.0 == from && envelope.1 == tag {
                let (_, _, ctx, payload) = envelope;
                self.counters
                    .messages_received
                    .fetch_add(1, Ordering::Relaxed);
                self.counters
                    .bytes_received
                    .fetch_add(payload.len() as u64, Ordering::Relaxed);
                span.set_bytes(payload.len() as u64);
                if let Some(ctx) = ctx {
                    eth_obs::flow_in(ctx, from, tag, payload.len() as u64);
                }
                return Ok(payload);
            }
            self.pending.lock().push(envelope);
        }
    }
}

impl Communicator for LocalComm {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.size
    }

    fn send(&self, to: usize, tag: u32, payload: Bytes) -> Result<()> {
        let _span = eth_obs::span_bytes(eth_obs::Phase::Send, payload.len() as u64);
        self.check_peer(to)?;
        self.counters.messages_sent.fetch_add(1, Ordering::Relaxed);
        self.counters
            .bytes_sent
            .fetch_add(payload.len() as u64, Ordering::Relaxed);
        let ctx = eth_obs::flow_context();
        if let Some(ctx) = ctx {
            eth_obs::flow_out(ctx, to, tag, payload.len() as u64);
        }
        let envelope = (self.rank, tag, ctx, payload);
        match &self.outboxes[to] {
            Some(tx) => tx
                .send(envelope)
                .map_err(|_| TransportError::Disconnected { peer: to }),
            None => {
                self.pending.lock().push(envelope);
                Ok(())
            }
        }
    }

    fn recv(&self, from: usize, tag: u32) -> Result<Bytes> {
        self.recv_inner(from, tag, None)
    }

    fn recv_deadline(&self, from: usize, tag: u32, deadline: Instant) -> Result<Bytes> {
        self.recv_inner(from, tag, Some(deadline))
    }

    fn traffic(&self) -> TrafficCounters {
        TrafficCounters {
            messages_sent: self.counters.messages_sent.load(Ordering::Relaxed),
            bytes_sent: self.counters.bytes_sent.load(Ordering::Relaxed),
            messages_received: self.counters.messages_received.load(Ordering::Relaxed),
            bytes_received: self.counters.bytes_received.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn ping_pong() {
        let mut comms = LocalFabric::new(2);
        let c1 = comms.pop().unwrap();
        let c0 = comms.pop().unwrap();
        let t = thread::spawn(move || {
            let msg = c1.recv(0, 7).unwrap();
            assert_eq!(&msg[..], b"ping");
            c1.send(0, 8, Bytes::from_static(b"pong")).unwrap();
        });
        c0.send(1, 7, Bytes::from_static(b"ping")).unwrap();
        let reply = c0.recv(1, 8).unwrap();
        assert_eq!(&reply[..], b"pong");
        t.join().unwrap();
        let tr = c0.traffic();
        assert_eq!(tr.messages_sent, 1);
        assert_eq!(tr.bytes_sent, 4);
        assert_eq!(tr.messages_received, 1);
    }

    #[test]
    fn ordered_delivery_same_tag() {
        let mut comms = LocalFabric::new(2);
        let c1 = comms.pop().unwrap();
        let c0 = comms.pop().unwrap();
        for i in 0..10u8 {
            c0.send(1, 1, Bytes::from(vec![i])).unwrap();
        }
        for i in 0..10u8 {
            assert_eq!(c1.recv(0, 1).unwrap()[0], i);
        }
    }

    #[test]
    fn tag_matching_skips_other_tags() {
        let mut comms = LocalFabric::new(2);
        let c1 = comms.pop().unwrap();
        let c0 = comms.pop().unwrap();
        c0.send(1, 1, Bytes::from_static(b"first")).unwrap();
        c0.send(1, 2, Bytes::from_static(b"second")).unwrap();
        // receive tag 2 first; tag 1 is buffered, not lost
        assert_eq!(&c1.recv(0, 2).unwrap()[..], b"second");
        assert_eq!(&c1.recv(0, 1).unwrap()[..], b"first");
    }

    #[test]
    fn source_matching_skips_other_sources() {
        let mut comms = LocalFabric::new(3);
        let c2 = comms.pop().unwrap();
        let c1 = comms.pop().unwrap();
        let c0 = comms.pop().unwrap();
        c0.send(2, 5, Bytes::from_static(b"from0")).unwrap();
        c1.send(2, 5, Bytes::from_static(b"from1")).unwrap();
        // wait for both to be queued, then receive rank 1 first
        std::thread::sleep(std::time::Duration::from_millis(10));
        assert_eq!(&c2.recv(1, 5).unwrap()[..], b"from1");
        assert_eq!(&c2.recv(0, 5).unwrap()[..], b"from0");
    }

    #[test]
    fn self_send_works() {
        let mut comms = LocalFabric::new(1);
        let c0 = comms.pop().unwrap();
        c0.send(0, 3, Bytes::from_static(b"me")).unwrap();
        assert_eq!(&c0.recv(0, 3).unwrap()[..], b"me");
    }

    #[test]
    fn recv_timeout_fires_when_peer_silent() {
        let mut comms = LocalFabric::new(2);
        let _c1 = comms.pop().unwrap();
        let c0 = comms.pop().unwrap();
        let start = std::time::Instant::now();
        let err = c0
            .recv_timeout(1, 9, std::time::Duration::from_millis(40))
            .unwrap_err();
        match err {
            TransportError::Timeout { peer, elapsed } => {
                assert_eq!(peer, 1);
                assert!(elapsed >= std::time::Duration::from_millis(40));
            }
            other => panic!("expected Timeout, got {other:?}"),
        }
        assert!(start.elapsed() < std::time::Duration::from_secs(5));
    }

    #[test]
    fn blocked_recv_fails_once_every_peer_is_gone() {
        // Rank 1 leaves without sending: rank 0's unbounded receive must
        // error out instead of waiting forever (a launcher that joins
        // every rank would otherwise wedge on the first rank failure) ...
        let mut comms = LocalFabric::new(2);
        let c1 = comms.pop().unwrap();
        let c0 = comms.pop().unwrap();
        c1.send(0, 1, Bytes::from_static(b"last words")).unwrap();
        drop(c1);
        // ... after delivering what the peer queued before it left
        assert_eq!(&c0.recv(1, 1).unwrap()[..], b"last words");
        let err = c0.recv(1, 2).unwrap_err();
        assert!(
            matches!(err, TransportError::Disconnected { peer: 1 }),
            "{err}"
        );
        // a bounded receive still reports the timeout it was given
        let err = c0
            .recv_timeout(1, 2, std::time::Duration::from_millis(20))
            .unwrap_err();
        assert!(
            matches!(err, TransportError::Timeout { peer: 1, .. }),
            "{err}"
        );
    }

    #[test]
    fn recv_timeout_still_delivers_matches() {
        let mut comms = LocalFabric::new(2);
        let c1 = comms.pop().unwrap();
        let c0 = comms.pop().unwrap();
        c0.send(1, 4, Bytes::from_static(b"on time")).unwrap();
        let got = c1
            .recv_timeout(0, 4, std::time::Duration::from_secs(5))
            .unwrap();
        assert_eq!(&got[..], b"on time");
    }

    #[test]
    fn invalid_peer_rejected() {
        let mut comms = LocalFabric::new(2);
        let c0 = comms.remove(0);
        assert!(c0.send(5, 0, Bytes::new()).is_err());
        assert!(c0.recv(5, 0).is_err());
    }

    #[test]
    fn many_ranks_all_to_all() {
        let comms = LocalFabric::new(4);
        let handles: Vec<_> = comms
            .into_iter()
            .map(|c| {
                thread::spawn(move || {
                    let me = c.rank();
                    for to in 0..c.size() {
                        c.send(to, 9, Bytes::from(vec![me as u8])).unwrap();
                    }
                    let mut got = Vec::new();
                    for from in 0..c.size() {
                        got.push(c.recv(from, 9).unwrap()[0]);
                    }
                    got
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), vec![0, 1, 2, 3]);
        }
    }
}
