//! TCP socket backend: the paper's sim↔viz pairing, bootstrapped through
//! the [`crate::layout`] file exactly as Section III-C describes.
//!
//! A simulation-proxy rank [`listen_as`]s (publishes its address, opens its
//! port and waits); a visualization-proxy rank [`connect_to`]s it (polls
//! the layout file, waits for the port, connects, and announces its own
//! rank in a 4-byte handshake so both ends know who they are talking to).
//! Either way the result is a [`StreamChannel`], the [`PairLink`] internode
//! coupling uses when the two proxies run as separate applications. There
//! is no socket [`crate::comm::Communicator`]: ranks of one application
//! share the in-process fabric.
//!
//! Robustness properties (the fault-tolerance subsystem relies on these):
//! * every receive has a deadline-bounded variant, and disconnects carry
//!   the *actual* peer rank,
//! * both ends of the bootstrap give up after a bounded wait: the dialer
//!   retries with seeded exponential backoff + jitter under its timeout,
//!   the listener waits [`BOOTSTRAP_TIMEOUT`] for its one peer,
//! * a dead peer surfaces as [`TransportError::Disconnected`] on the next
//!   matching receive, never as an indefinite hang; a malformed frame
//!   surfaces as the [`TransportError::Decode`] that ended the stream, on
//!   the next receive, and every receive after it as `Disconnected`.
//!
//! Each channel's reader thread reads payloads into buffers leased from
//! the [`PayloadPool`] the bootstrap was given ([`listen_leasing`],
//! [`connect_leasing`]): a run passes the pool its simulation ranks encode
//! into, so both ends of the wire recycle one set of buffers.

use crate::comm::{Result, TransportError};
use crate::fault::Backoff;
use crate::layout::LayoutFile;
use crate::link::PairLink;
use crate::message::{read_frame_leased, write_frame, Frame, MAX_PAYLOAD};
use bytes::Bytes;
use eth_data::io::pool::PayloadPool;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// A framed, tag-matched channel to a single peer over TCP.
///
/// Debug shows the traffic counters only (the stream itself is opaque).
pub struct StreamChannel {
    writer: Mutex<TcpStream>,
    /// Behind a lock only so that `&StreamChannel` can be shared across
    /// threads (`mpsc::Receiver` is not `Sync`); one receive runs at a time.
    inbox: Mutex<Receiver<Result<Frame>>>,
    pending: Mutex<Vec<Frame>>,
    local_rank: u32,
    /// The peer's logical rank, learned from the bootstrap handshake.
    peer: usize,
    bytes_sent: AtomicU64,
    bytes_received: AtomicU64,
}

fn spawn_reader(stream: TcpStream, tx: Sender<Result<Frame>>, pool: PayloadPool) {
    thread::spawn(move || {
        let mut stream = stream;
        // Any error ends the watch; dropping `tx` closes the channel so
        // receivers see Disconnected. A malformed frame is passed on first,
        // so the receiver learns the stream was corrupt, not merely closed.
        loop {
            match read_frame_leased(&mut stream, MAX_PAYLOAD, &pool) {
                Ok(frame) => {
                    if tx.send(Ok(frame)).is_err() {
                        break;
                    }
                }
                // EOF, at a frame boundary or inside one, or a reset
                Err(TransportError::Io(_)) => break,
                Err(malformed) => {
                    let _ = tx.send(Err(malformed));
                    break;
                }
            }
        }
    });
}

impl Drop for StreamChannel {
    fn drop(&mut self) {
        // The reader thread holds a clone of the fd; without an explicit
        // shutdown the connection would stay open (and the peer would
        // never see EOF) until the reader unblocks on its own.
        let writer = self.writer.get_mut().unwrap_or_else(PoisonError::into_inner);
        let _ = writer.shutdown(std::net::Shutdown::Both);
    }
}

impl std::fmt::Debug for StreamChannel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamChannel")
            .field("local_rank", &self.local_rank)
            .field("peer", &self.peer)
            .field("bytes_sent", &self.bytes_sent())
            .field("bytes_received", &self.bytes_received())
            .finish_non_exhaustive()
    }
}

impl StreamChannel {
    fn new(
        stream: TcpStream,
        local_rank: u32,
        peer: usize,
        pool: &PayloadPool,
    ) -> Result<StreamChannel> {
        stream.set_nodelay(true)?;
        let reader = stream.try_clone()?;
        let (tx, rx) = channel();
        spawn_reader(reader, tx, pool.clone());
        Ok(StreamChannel {
            writer: Mutex::new(stream),
            inbox: Mutex::new(rx),
            pending: Mutex::new(Vec::new()),
            local_rank,
            peer,
            bytes_sent: AtomicU64::new(0),
            bytes_received: AtomicU64::new(0),
        })
    }

    /// This endpoint's logical rank (stamped into outgoing frames).
    pub fn local_rank(&self) -> usize {
        self.local_rank as usize
    }

    /// The logical rank on the far side of this link.
    pub fn peer_rank(&self) -> usize {
        self.peer
    }

    /// Send a tagged payload to the peer.
    pub fn send(&self, tag: u32, payload: Bytes) -> Result<()> {
        let _span = eth_obs::span_bytes(eth_obs::Phase::Send, payload.len() as u64);
        self.bytes_sent
            .fetch_add(payload.len() as u64, Ordering::Relaxed);
        let ctx = eth_obs::flow_context();
        if let Some(ctx) = ctx {
            eth_obs::flow_out(ctx, self.peer, tag, payload.len() as u64);
        }
        let mut w = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        write_frame(&mut *w, self.local_rank, tag, ctx, &payload)
    }

    /// Block until a frame with `tag` arrives.
    pub fn recv(&self, tag: u32) -> Result<Bytes> {
        self.recv_inner(tag, None)
    }

    /// Receive with an explicit timeout.
    pub fn recv_timeout(&self, tag: u32, timeout: Duration) -> Result<Bytes> {
        self.recv_inner(tag, Some(Instant::now() + timeout))
    }

    /// Receive, giving up at `deadline`.
    pub fn recv_deadline(&self, tag: u32, deadline: Instant) -> Result<Bytes> {
        self.recv_inner(tag, Some(deadline))
    }

    fn pending(&self) -> MutexGuard<'_, Vec<Frame>> {
        self.pending.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn recv_inner(&self, tag: u32, deadline: Option<Instant>) -> Result<Bytes> {
        let mut span = eth_obs::span(eth_obs::Phase::Recv);
        let started = Instant::now();
        let matched = {
            let mut pending = self.pending();
            pending
                .iter()
                .position(|f| f.tag == tag)
                .map(|pos| pending.remove(pos))
        };
        if let Some(f) = matched {
            self.bytes_received
                .fetch_add(f.payload.len() as u64, Ordering::Relaxed);
            span.set_bytes(f.payload.len() as u64);
            if let Some(ctx) = f.ctx {
                eth_obs::flow_in(ctx, f.from as usize, tag, f.payload.len() as u64);
            }
            return Ok(f.payload);
        }
        let inbox = self.inbox.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            let frame = match deadline {
                None => inbox
                    .recv()
                    .map_err(|_| TransportError::Disconnected { peer: self.peer })??,
                Some(d) => match inbox.recv_timeout(d.saturating_duration_since(Instant::now())) {
                    Ok(f) => f?,
                    Err(RecvTimeoutError::Timeout) => {
                        return Err(TransportError::Timeout {
                            peer: self.peer,
                            elapsed: started.elapsed(),
                        })
                    }
                    Err(RecvTimeoutError::Disconnected) => {
                        return Err(TransportError::Disconnected { peer: self.peer })
                    }
                },
            };
            if frame.tag == tag {
                self.bytes_received
                    .fetch_add(frame.payload.len() as u64, Ordering::Relaxed);
                span.set_bytes(frame.payload.len() as u64);
                if let Some(ctx) = frame.ctx {
                    eth_obs::flow_in(ctx, frame.from as usize, tag, frame.payload.len() as u64);
                }
                return Ok(frame.payload);
            }
            self.pending().push(frame);
        }
    }

    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent.load(Ordering::Relaxed)
    }

    pub fn bytes_received(&self) -> u64 {
        self.bytes_received.load(Ordering::Relaxed)
    }
}

impl PairLink for StreamChannel {
    fn local_rank(&self) -> usize {
        StreamChannel::local_rank(self)
    }

    fn peer_rank(&self) -> usize {
        StreamChannel::peer_rank(self)
    }

    fn send(&self, tag: u32, payload: Bytes) -> Result<()> {
        StreamChannel::send(self, tag, payload)
    }

    fn recv(&self, tag: u32, within: Option<Duration>) -> Result<Bytes> {
        self.recv_inner(tag, within.map(|timeout| Instant::now() + timeout))
    }

    fn bytes_sent(&self) -> u64 {
        StreamChannel::bytes_sent(self)
    }
}

/// How long either end of a pair link waits for the other during
/// bootstrap: a visualization rank for a simulation rank's address and
/// open port, a simulation rank for its one connection and handshake.
pub const BOOTSTRAP_TIMEOUT: Duration = Duration::from_secs(30);

/// Simulation-proxy side: publish an address under `rank`, open the port
/// and wait for exactly one connection (the paired visualization rank,
/// which announces its own rank in a 4-byte handshake). Gives up with
/// [`TransportError::Bootstrap`] after [`BOOTSTRAP_TIMEOUT`]: a peer that
/// failed before dialing must not leave this rank waiting forever.
pub fn listen_as(layout: &LayoutFile, rank: usize) -> Result<StreamChannel> {
    listen_leasing(layout, rank, &PayloadPool::new())
}

/// [`listen_as`], the channel's reader leasing payload buffers from `pool`.
pub fn listen_leasing(
    layout: &LayoutFile,
    rank: usize,
    pool: &PayloadPool,
) -> Result<StreamChannel> {
    listen_within(layout, rank, BOOTSTRAP_TIMEOUT, pool)
}

fn listen_within(
    layout: &LayoutFile,
    rank: usize,
    budget: Duration,
    pool: &PayloadPool,
) -> Result<StreamChannel> {
    use std::io::ErrorKind::{TimedOut, WouldBlock};
    let _span = eth_obs::span(eth_obs::Phase::Bootstrap);
    let deadline = Instant::now() + budget;
    let listener = TcpListener::bind("127.0.0.1:0")?;
    // `accept` has no timeout of its own: poll it. The dialer normally
    // lands within a millisecond or two of the address appearing, so the
    // interval starts at 100 µs and backs off to 20 ms.
    listener.set_nonblocking(true)?;
    layout.publish(rank, listener.local_addr()?)?;
    let mut backoff = Backoff::with_shape(
        rank as u64 ^ 0xACCE,
        Duration::from_micros(100),
        Duration::from_millis(20),
        u32::MAX,
    );
    let stream = loop {
        match listener.accept() {
            Ok((stream, _addr)) => break stream,
            Err(e) if e.kind() == WouldBlock => {
                if Instant::now() > deadline {
                    return Err(TransportError::Bootstrap(format!(
                        "rank {rank} opened its port but no peer connected within {:.3}s",
                        budget.as_secs_f64()
                    )));
                }
                backoff.snooze();
            }
            Err(e) => return Err(e.into()),
        }
    };
    // an accepted socket may inherit the listener's non-blocking mode
    stream.set_nonblocking(false)?;
    let left = deadline.saturating_duration_since(Instant::now());
    stream.set_read_timeout(Some(left.max(Duration::from_millis(1))))?;
    let peer = {
        use std::io::Read as _;
        let mut s = &stream;
        let mut buf = [0u8; 4];
        s.read_exact(&mut buf).map_err(|e| match e.kind() {
            WouldBlock | TimedOut => TransportError::Bootstrap(format!(
                "rank {rank}: a peer connected but sent no handshake within {:.3}s",
                budget.as_secs_f64()
            )),
            _ => e.into(),
        })?;
        u32::from_le_bytes(buf) as usize
    };
    // the reader thread shares this socket: frames may take any time
    stream.set_read_timeout(None)?;
    StreamChannel::new(stream, rank as u32, peer, pool)
}

/// Visualization-proxy side: poll the layout file for `rank`'s address,
/// wait for the port to open, connect, and announce `local_rank` (the
/// caller's real rank — it is stamped into every outgoing frame's `from`
/// field and reported to the listener through the handshake).
///
/// Both waits retry with seeded exponential backoff + jitter under a
/// bounded attempt budget, instead of spinning at a fixed interval.
pub fn connect_to(
    layout: &LayoutFile,
    rank: usize,
    local_rank: usize,
    timeout: Duration,
) -> Result<StreamChannel> {
    connect_leasing(layout, rank, local_rank, timeout, &PayloadPool::new())
}

/// [`connect_to`], the channel's reader leasing payload buffers from `pool`.
pub fn connect_leasing(
    layout: &LayoutFile,
    rank: usize,
    local_rank: usize,
    timeout: Duration,
    pool: &PayloadPool,
) -> Result<StreamChannel> {
    let _span = eth_obs::span(eth_obs::Phase::Bootstrap);
    let deadline = Instant::now() + timeout;
    let seed = ((local_rank as u64) << 32) ^ rank as u64;
    // Wait for the address to be published.
    let mut backoff = Backoff::new(seed);
    let addr = loop {
        if let Some(addr) = layout.lookup(rank)? {
            break addr;
        }
        if Instant::now() > deadline {
            return Err(TransportError::Bootstrap(format!(
                "rank {rank} never published its address \
                 (gave up after {} poll attempts)",
                backoff.attempts()
            )));
        }
        if !backoff.snooze() {
            return Err(TransportError::Bootstrap(format!(
                "rank {rank} never published its address \
                 (retry budget of {} attempts exhausted)",
                backoff.attempts()
            )));
        }
    };
    // Wait for the port to open.
    let mut backoff = Backoff::new(seed ^ 0xD1A1);
    loop {
        match TcpStream::connect(addr) {
            Ok(stream) => {
                {
                    use std::io::Write as _;
                    let mut s = &stream;
                    s.write_all(&(local_rank as u32).to_le_bytes())?;
                }
                return StreamChannel::new(stream, local_rank as u32, rank, pool);
            }
            Err(e) => {
                if Instant::now() > deadline {
                    return Err(TransportError::Bootstrap(format!(
                        "cannot connect to rank {rank} at {addr}: {e} \
                         (gave up after {} dial attempts)",
                        backoff.attempts()
                    )));
                }
                if !backoff.snooze() {
                    return Err(TransportError::Bootstrap(format!(
                        "cannot connect to rank {rank} at {addr}: {e} \
                         (retry budget of {} attempts exhausted)",
                        backoff.attempts()
                    )));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("eth-socket-tests").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn pair_link_follows_paper_bootstrap() {
        // sim rank publishes + listens; viz rank polls + connects.
        let layout = LayoutFile::create(&tmp("pair")).unwrap();
        let l2 = layout.clone();
        let sim = thread::spawn(move || {
            let chan = listen_as(&l2, 0).unwrap();
            // receive a request, answer with data
            let req = chan.recv(1).unwrap();
            assert_eq!(&req[..], b"need step 0");
            chan.send(2, Bytes::from_static(b"here is step 0")).unwrap();
            chan.bytes_sent()
        });
        let viz = thread::spawn(move || {
            let chan = connect_to(&layout, 0, 1, Duration::from_secs(10)).unwrap();
            chan.send(1, Bytes::from_static(b"need step 0")).unwrap();
            let data = chan.recv(2).unwrap();
            assert_eq!(&data[..], b"here is step 0");
        });
        let sent = sim.join().unwrap();
        viz.join().unwrap();
        assert_eq!(sent, 14);
    }

    #[test]
    fn pair_link_knows_true_peer_ranks() {
        let layout = LayoutFile::create(&tmp("peers")).unwrap();
        let l2 = layout.clone();
        let sim = thread::spawn(move || {
            let chan = listen_as(&l2, 4).unwrap();
            chan.recv(1).unwrap();
            (chan.local_rank(), chan.peer_rank())
        });
        let chan = connect_to(&layout, 4, 9, Duration::from_secs(10)).unwrap();
        assert_eq!(chan.local_rank(), 9);
        assert_eq!(chan.peer_rank(), 4);
        chan.send(1, Bytes::from_static(b"hi")).unwrap();
        // the handshake (not a sentinel) tells the listener who dialed
        assert_eq!(sim.join().unwrap(), (4, 9));
    }

    #[test]
    fn pair_link_tag_matching() {
        let layout = LayoutFile::create(&tmp("tags")).unwrap();
        let l2 = layout.clone();
        let a = thread::spawn(move || {
            let chan = listen_as(&l2, 0).unwrap();
            chan.send(10, Bytes::from_static(b"ten")).unwrap();
            chan.send(20, Bytes::from_static(b"twenty")).unwrap();
        });
        let chan = connect_to(&layout, 0, 1, Duration::from_secs(10)).unwrap();
        // ask for tag 20 first
        assert_eq!(&chan.recv(20).unwrap()[..], b"twenty");
        assert_eq!(&chan.recv(10).unwrap()[..], b"ten");
        a.join().unwrap();
    }

    #[test]
    fn stream_recv_timeout_fires() {
        let layout = LayoutFile::create(&tmp("srt")).unwrap();
        let l2 = layout.clone();
        let sim = thread::spawn(move || {
            let chan = listen_as(&l2, 0).unwrap();
            // hold the connection open but never send tag 9
            chan.recv(1).unwrap();
        });
        let chan = connect_to(&layout, 0, 1, Duration::from_secs(10)).unwrap();
        let err = chan.recv_timeout(9, Duration::from_millis(60)).unwrap_err();
        match err {
            TransportError::Timeout { peer, elapsed } => {
                assert_eq!(peer, 0);
                assert!(elapsed >= Duration::from_millis(60));
            }
            other => panic!("expected Timeout, got {other:?}"),
        }
        chan.send(1, Bytes::from_static(b"done")).unwrap();
        sim.join().unwrap();
    }

    #[test]
    fn a_channel_is_shared_across_threads() {
        // callers ship through `&StreamChannel` from scoped threads
        fn shared<T: Sync>() {}
        shared::<StreamChannel>();
    }

    #[test]
    fn a_received_frame_beats_a_past_deadline() {
        // A frame the reader has already queued is delivered even when the
        // deadline has passed; only an empty inbox times out. When the
        // frame lands is up to the reader thread, so poll with a deadline
        // that is always past: a receive that looked at the clock first
        // would time out every time.
        let layout = LayoutFile::create(&tmp("past")).unwrap();
        let l2 = layout.clone();
        let sim = thread::spawn(move || {
            let chan = listen_as(&l2, 0).unwrap();
            chan.send(4, Bytes::from_static(b"queued")).unwrap();
            chan.recv(1).unwrap();
        });
        let chan = connect_to(&layout, 0, 1, Duration::from_secs(10)).unwrap();
        let past = Instant::now();
        let polling = Instant::now();
        let got = loop {
            match chan.recv_deadline(4, past) {
                Ok(payload) => break payload,
                Err(TransportError::Timeout { .. }) => {
                    assert!(
                        polling.elapsed() < Duration::from_secs(10),
                        "never delivered"
                    );
                    thread::sleep(Duration::from_millis(5));
                }
                Err(other) => panic!("expected the frame or Timeout, got {other:?}"),
            }
        };
        assert_eq!(&got[..], b"queued");
        chan.send(1, Bytes::from_static(b"done")).unwrap();
        sim.join().unwrap();
    }

    #[test]
    fn listen_gives_up_when_nobody_dials() {
        let layout = LayoutFile::create(&tmp("nodial")).unwrap();
        let budget = Duration::from_millis(50);
        let start = Instant::now();
        let err = listen_within(&layout, 3, budget, &PayloadPool::new()).unwrap_err();
        assert!(matches!(err, TransportError::Bootstrap(_)), "{err}");
        assert!(err.to_string().contains("rank 3"), "{err}");
        assert!(start.elapsed() >= budget);
        // the address was published before the wait began
        assert!(layout.lookup(3).unwrap().is_some());
    }

    #[test]
    fn listen_gives_up_on_a_peer_that_never_shakes_hands() {
        let layout = LayoutFile::create(&tmp("noshake")).unwrap();
        let l2 = layout.clone();
        let sim = thread::spawn(move || {
            listen_within(&l2, 0, Duration::from_millis(250), &PayloadPool::new())
        });
        let addr = loop {
            if let Some(addr) = layout.lookup(0).unwrap() {
                break addr;
            }
            assert!(!sim.is_finished(), "listener gave up before publishing");
            thread::yield_now();
        };
        // connects, then says nothing; held open until the listener is done
        let mute = TcpStream::connect(addr).unwrap();
        let err = sim.join().unwrap().unwrap_err();
        assert!(matches!(err, TransportError::Bootstrap(_)), "{err}");
        assert!(err.to_string().contains("handshake"), "{err}");
        drop(mute);
    }

    #[test]
    fn connect_times_out_without_listener() {
        let layout = LayoutFile::create(&tmp("timeout")).unwrap();
        let r = connect_to(&layout, 0, 1, Duration::from_millis(60));
        assert!(matches!(r.err(), Some(TransportError::Bootstrap(_))));
    }
}
