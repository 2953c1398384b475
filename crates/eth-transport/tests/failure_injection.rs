//! Failure-injection tests: the transport layer must fail loudly and
//! cleanly, never hang or panic, when peers die or inputs are malformed.

use bytes::Bytes;
use eth_transport::comm::{Communicator, TransportError};
use eth_transport::layout::LayoutFile;
use eth_transport::local::LocalFabric;
use eth_transport::socket::{connect_to, listen_as};
use std::path::PathBuf;
use std::thread;
use std::time::Duration;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("eth-failure-tests").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn recv_after_all_peers_dropped_errors() {
    let mut comms = LocalFabric::new(2);
    let c1 = comms.pop().unwrap();
    let c0 = comms.pop().unwrap();
    drop(c1);
    // c0 still holds a sender clone to its own inbox, so the channel is
    // only "dead" once every sender is gone; a self-send must still work…
    c0.send(0, 1, Bytes::from_static(b"self")).unwrap();
    assert_eq!(&c0.recv(0, 1).unwrap()[..], b"self");
    // …and sending to the dropped peer is an error or a silent queue to a
    // closed channel; either way it must not panic.
    let _ = c0.send(1, 1, Bytes::from_static(b"ghost"));
}

#[test]
fn socket_peer_disconnect_surfaces_as_error() {
    let layout = LayoutFile::create(&tmp("disconnect")).unwrap();
    let l2 = layout.clone();
    let listener = thread::spawn(move || {
        let chan = listen_as(&l2, 0).unwrap();
        // say one thing, then hang up
        chan.send(1, Bytes::from_static(b"bye")).unwrap();
        drop(chan);
    });
    let chan = connect_to(&layout, 0, 1, Duration::from_secs(10)).unwrap();
    assert_eq!(&chan.recv(1).unwrap()[..], b"bye");
    listener.join().unwrap();
    // the peer is gone: further recv must error (not hang) and must name
    // the actual peer rank, not a placeholder
    let err = chan.recv(2).unwrap_err();
    assert!(matches!(err, TransportError::Disconnected { peer: 0 }), "{err}");
    // and a bounded receive learns it at once, not at its deadline
    let start = std::time::Instant::now();
    let err = chan.recv_timeout(2, Duration::from_secs(30)).unwrap_err();
    assert!(matches!(err, TransportError::Disconnected { peer: 0 }), "{err}");
    assert!(start.elapsed() < Duration::from_secs(10), "waited out the deadline");
}

#[test]
fn send_to_dead_socket_peer_eventually_errors() {
    let layout = LayoutFile::create(&tmp("deadsend")).unwrap();
    let l2 = layout.clone();
    let listener = thread::spawn(move || {
        let _chan = listen_as(&l2, 0).unwrap();
        // drop immediately
    });
    let chan = connect_to(&layout, 0, 1, Duration::from_secs(10)).unwrap();
    listener.join().unwrap();
    // TCP may buffer the first sends; repeated sends must surface an error
    // within a bounded number of attempts, and must never panic.
    let mut failed = false;
    for _ in 0..200 {
        if chan.send(1, Bytes::from(vec![0u8; 64 * 1024])).is_err() {
            failed = true;
            break;
        }
    }
    assert!(failed, "writes to a dead peer never failed");
}

#[test]
fn corrupt_layout_entry_fails_bootstrap() {
    let dir = tmp("corrupt");
    let layout = LayoutFile::create(&dir).unwrap();
    std::fs::write(dir.join("rank_0000.addr"), "999.999.999.999:not-a-port").unwrap();
    let err = connect_to(&layout, 0, 1, Duration::from_millis(200)).unwrap_err();
    assert!(matches!(err, TransportError::Bootstrap(_)), "{err}");
}

#[test]
fn connect_to_never_published_rank_times_out_quickly() {
    let layout = LayoutFile::create(&tmp("absent")).unwrap();
    let start = std::time::Instant::now();
    let err = connect_to(&layout, 3, 1, Duration::from_millis(150)).unwrap_err();
    assert!(matches!(err, TransportError::Bootstrap(_)));
    assert!(start.elapsed() < Duration::from_secs(5), "timeout not honored");
}

#[test]
fn malformed_frame_kills_connection_not_process() {
    use std::io::Write as _;
    use std::net::{TcpListener, TcpStream};
    // hand-made peer that sends garbage bytes
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let layout = LayoutFile::create(&tmp("garbage")).unwrap();
    layout.publish(0, addr).unwrap();
    let garbler = thread::spawn(move || {
        let (mut s, _) = listener.accept().unwrap();
        // full 20-byte header with a wrong magic word and a 17 GB length
        // claim: the reader must reject it, never allocate the payload
        let mut junk = Vec::new();
        junk.extend_from_slice(&0xBAAD_F00Du32.to_le_bytes());
        junk.extend_from_slice(&0u32.to_le_bytes());
        junk.extend_from_slice(&1u32.to_le_bytes());
        junk.extend_from_slice(&(1u64 << 35).to_le_bytes());
        s.write_all(&junk).unwrap();
        s.flush().unwrap();
        // keep the socket open briefly so the reader sees the header
        thread::sleep(Duration::from_millis(100));
    });
    let chan = connect_to(&layout, 0, 1, Duration::from_secs(10)).unwrap();
    // the first receive learns why the stream ended — a corrupt frame,
    // which retry and degradation accounting file as corruption — and
    // every receive after it that the stream is gone
    let err = chan.recv(1).unwrap_err();
    assert!(matches!(&err, TransportError::Decode(m) if m.contains("magic")), "{err}");
    let err = chan.recv(1).unwrap_err();
    assert!(matches!(err, TransportError::Disconnected { peer: 0 }), "{err}");
    garbler.join().unwrap();
    let _ = TcpStream::connect(addr); // tidy: unblock any lingering accept
}

#[test]
fn a_frame_cut_short_is_a_disconnect() {
    use std::io::Write as _;
    use std::net::TcpListener;
    // hand-made peer that sends a sound header claiming 4 KiB, 100 bytes
    // of it, and hangs up: the stream ended, it was not malformed
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let layout = LayoutFile::create(&tmp("cut-short")).unwrap();
    layout.publish(0, listener.local_addr().unwrap()).unwrap();
    let peer = thread::spawn(move || {
        let (mut s, _) = listener.accept().unwrap();
        let mut frame = Vec::new();
        frame.extend_from_slice(&eth_transport::message::FRAME_MAGIC.to_le_bytes());
        frame.extend_from_slice(&0u32.to_le_bytes());
        frame.extend_from_slice(&1u32.to_le_bytes());
        frame.extend_from_slice(&4096u64.to_le_bytes());
        frame.extend_from_slice(&[0; eth_transport::message::FRAME_CONTEXT_BYTES]);
        frame.extend_from_slice(&[0xCD; 100]);
        s.write_all(&frame).unwrap();
    });
    let chan = connect_to(&layout, 0, 1, Duration::from_secs(10)).unwrap();
    peer.join().unwrap();
    for _ in 0..2 {
        let err = chan.recv(1).unwrap_err();
        assert!(matches!(err, TransportError::Disconnected { peer: 0 }), "{err}");
    }
}

#[test]
fn bootstrap_backoff_rides_out_a_delayed_listener() {
    // The listener comes up well after the dialer starts: the dialer's
    // backoff loop must keep polling the layout file (not give up, not
    // busy-spin) and connect once the address appears.
    let layout = LayoutFile::create(&tmp("latecomer")).unwrap();
    let l2 = layout.clone();
    let delay = Duration::from_millis(150);
    let listener = thread::spawn(move || {
        thread::sleep(delay);
        let chan = listen_as(&l2, 0).unwrap();
        let msg = chan.recv(1).unwrap();
        assert_eq!(&msg[..], b"patience pays");
        chan.peer_rank()
    });
    let start = std::time::Instant::now();
    let chan = connect_to(&layout, 0, 7, Duration::from_secs(10)).unwrap();
    assert!(
        start.elapsed() >= delay,
        "connected before the listener existed?"
    );
    chan.send(1, Bytes::from_static(b"patience pays")).unwrap();
    assert_eq!(listener.join().unwrap(), 7);
}
