//! Collective operations built on point-to-point messaging.
//!
//! The harness needs barriers (phase separation under intercore coupling),
//! gather (image compositing to root), broadcast (experiment parameters),
//! and reduce/allreduce (metric aggregation). All are implemented as
//! binomial trees / dissemination rounds over [`Communicator`], so they run
//! unchanged over the in-process and socket backends.
//!
//! Tags: collectives use the top tag bits (`0xC0xx_xxxx`) with the round
//! number encoded, so user traffic (low tags) never collides as long as it
//! stays below [`COLLECTIVE_TAG_BASE`]. Above the collectives sits the
//! **control plane** (`0xE0xx_xxxx`): liveness and recovery notices such as
//! partition-adoption announcements. Both classes travel on the
//! communicator, never on a fault-wrapped pair link — chaos may lose
//! *data*, never the messages that coordinate reacting to the loss — but
//! unlike collectives the control plane is liveness-aware: control
//! receives always carry a deadline, so a dead peer degrades the run
//! instead of deadlocking it.

use crate::comm::{Communicator, Result, TransportError};
use bytes::Bytes;
use std::time::{Duration, Instant};

/// Tags at or above this value are reserved for collectives.
pub const COLLECTIVE_TAG_BASE: u32 = 0xC000_0000;

const TAG_BARRIER: u32 = COLLECTIVE_TAG_BASE;
const TAG_BCAST: u32 = COLLECTIVE_TAG_BASE + 0x0100_0000;
const TAG_GATHER: u32 = COLLECTIVE_TAG_BASE + 0x0200_0000;
const TAG_REDUCE: u32 = COLLECTIVE_TAG_BASE + 0x0300_0000;

/// Tags at or above this value are reserved for the control plane
/// (rank-liveness and recovery coordination). Sits above
/// [`COLLECTIVE_TAG_BASE`], clear of both collectives and data.
pub const CONTROL_TAG_BASE: u32 = 0xE000_0000;

/// Adoption notice: `TAG_ADOPT_NOTICE + dead_rank`, sent by the rank that
/// adopted a dead rank's partition to the root, carrying an
/// [`AdoptNotice`].
pub const TAG_ADOPT_NOTICE: u32 = CONTROL_TAG_BASE + 0x0100_0000;

/// The control-plane message announcing a partition adoption: who died,
/// where their work stopped, who took over, and how long detection +
/// takeover took from the dead rank's last sign of life.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdoptNotice {
    /// The rank that stopped beating.
    pub dead_rank: usize,
    /// The step at which the adopter resumed the partition.
    pub adopted_at_step: usize,
    /// The adopting rank.
    pub adopter: usize,
    /// Nanoseconds from the dead rank's last heartbeat to the adoption.
    pub latency_ns: u64,
}

impl AdoptNotice {
    pub fn encode(&self) -> Bytes {
        let mut out = Vec::with_capacity(32);
        out.extend_from_slice(&(self.dead_rank as u64).to_le_bytes());
        out.extend_from_slice(&(self.adopted_at_step as u64).to_le_bytes());
        out.extend_from_slice(&(self.adopter as u64).to_le_bytes());
        out.extend_from_slice(&self.latency_ns.to_le_bytes());
        Bytes::from(out)
    }

    pub fn decode(bytes: &Bytes) -> Result<AdoptNotice> {
        if bytes.len() != 32 {
            return Err(TransportError::Decode(format!(
                "adopt notice of {} bytes (want 32)",
                bytes.len()
            )));
        }
        let word = |i: usize| {
            u64::from_le_bytes(bytes[i * 8..(i + 1) * 8].try_into().expect("8-byte word"))
        };
        Ok(AdoptNotice {
            dead_rank: word(0) as usize,
            adopted_at_step: word(1) as usize,
            adopter: word(2) as usize,
            latency_ns: word(3),
        })
    }
}

/// Migration handoff protocol (DESIGN.md §13): three chaos-exempt phases
/// per handoff, each on its own tag family salted by the handoff index so
/// concurrent handoffs never cross. `offer → state → ack`; the source
/// keeps rendering the partition until a positive ack lands, so a lost or
/// refused handoff degrades to "no migration happened".
pub const TAG_MIGRATE_OFFER: u32 = CONTROL_TAG_BASE + 0x0200_0000;
/// Checkpoint transfer of the migrating partition (opaque payload).
pub const TAG_MIGRATE_STATE: u32 = CONTROL_TAG_BASE + 0x0300_0000;
/// The target's verdict: committed, or refused (death won the race).
pub const TAG_MIGRATE_ACK: u32 = CONTROL_TAG_BASE + 0x0400_0000;

/// Phase one of a handoff: the source names the partition it is draining,
/// itself, and the step the target takes over at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrateOffer {
    /// Index of the handoff in the spec's resolved schedule.
    pub handoff: usize,
    /// The partition changing owners.
    pub partition: usize,
    /// The source viz rank.
    pub source: usize,
    /// First step the target renders the partition.
    pub step: usize,
}

impl MigrateOffer {
    pub fn encode(&self) -> Bytes {
        let mut out = Vec::with_capacity(32);
        out.extend_from_slice(&(self.handoff as u64).to_le_bytes());
        out.extend_from_slice(&(self.partition as u64).to_le_bytes());
        out.extend_from_slice(&(self.source as u64).to_le_bytes());
        out.extend_from_slice(&(self.step as u64).to_le_bytes());
        Bytes::from(out)
    }

    pub fn decode(bytes: &Bytes) -> Result<MigrateOffer> {
        if bytes.len() != 32 {
            return Err(TransportError::Decode(format!(
                "migrate offer of {} bytes (want 32)",
                bytes.len()
            )));
        }
        let word = |i: usize| {
            u64::from_le_bytes(bytes[i * 8..(i + 1) * 8].try_into().expect("8-byte word"))
        };
        Ok(MigrateOffer {
            handoff: word(0) as usize,
            partition: word(1) as usize,
            source: word(2) as usize,
            step: word(3) as usize,
        })
    }
}

/// Phase three of a handoff: did the target commit?
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrateAck {
    pub handoff: usize,
    /// `true`: the target owns the partition from the offered step on.
    /// `false`: the target refused (its sim rank is dying, or the death
    /// arbitration already aborted the handoff) — the source keeps it.
    pub committed: bool,
}

impl MigrateAck {
    pub fn encode(&self) -> Bytes {
        let mut out = Vec::with_capacity(16);
        out.extend_from_slice(&(self.handoff as u64).to_le_bytes());
        out.extend_from_slice(&(self.committed as u64).to_le_bytes());
        Bytes::from(out)
    }

    pub fn decode(bytes: &Bytes) -> Result<MigrateAck> {
        if bytes.len() != 16 {
            return Err(TransportError::Decode(format!(
                "migrate ack of {} bytes (want 16)",
                bytes.len()
            )));
        }
        let word = |i: usize| {
            u64::from_le_bytes(bytes[i * 8..(i + 1) * 8].try_into().expect("8-byte word"))
        };
        Ok(MigrateAck {
            handoff: word(0) as usize,
            committed: word(1) != 0,
        })
    }
}

/// Send offer + checkpoint state to the target (phases one and two). The
/// state payload is opaque to the transport — the harness ships the
/// partition's serialized [`StepCheckpoint`].
pub fn send_migrate_offer(
    comm: &dyn Communicator,
    target: usize,
    offer: &MigrateOffer,
    state: Bytes,
) -> Result<()> {
    let salt = offer.handoff as u32;
    comm.send(target, TAG_MIGRATE_OFFER + salt, offer.encode())?;
    comm.send(target, TAG_MIGRATE_STATE + salt, state)
}

/// Receive the offer and checkpoint state for handoff `handoff`, bounded
/// by `timeout` (a control receive must never block past the handoff
/// budget).
pub fn recv_migrate_offer(
    comm: &dyn Communicator,
    from: usize,
    handoff: usize,
    timeout: Duration,
) -> Result<(MigrateOffer, Bytes)> {
    let salt = handoff as u32;
    let deadline = Instant::now() + timeout;
    let offer = MigrateOffer::decode(&comm.recv_timeout(from, TAG_MIGRATE_OFFER + salt, timeout)?)?;
    let left = deadline.saturating_duration_since(Instant::now()).max(Duration::from_millis(1));
    let state = comm.recv_timeout(from, TAG_MIGRATE_STATE + salt, left)?;
    Ok((offer, state))
}

/// Send the target's verdict back to the source (phase three).
pub fn send_migrate_ack(comm: &dyn Communicator, source: usize, ack: &MigrateAck) -> Result<()> {
    comm.send(source, TAG_MIGRATE_ACK + ack.handoff as u32, ack.encode())
}

/// Receive the verdict for handoff `handoff`, bounded by `timeout`; a
/// timeout means the handoff failed and the source keeps the partition.
pub fn recv_migrate_ack(
    comm: &dyn Communicator,
    from: usize,
    handoff: usize,
    timeout: Duration,
) -> Result<MigrateAck> {
    let bytes = comm.recv_timeout(from, TAG_MIGRATE_ACK + handoff as u32, timeout)?;
    MigrateAck::decode(&bytes)
}

/// Send an adoption notice to `root` on the control plane.
pub fn send_adopt_notice(comm: &dyn Communicator, root: usize, notice: &AdoptNotice) -> Result<()> {
    comm.send(root, TAG_ADOPT_NOTICE + notice.dead_rank as u32, notice.encode())
}

/// Receive the adoption notice for `dead_rank`, bounded by `timeout` (a
/// control receive must never block on a fabric that just lost a rank).
pub fn recv_adopt_notice(
    comm: &dyn Communicator,
    from: usize,
    dead_rank: usize,
    timeout: Duration,
) -> Result<AdoptNotice> {
    let bytes = comm.recv_timeout(from, TAG_ADOPT_NOTICE + dead_rank as u32, timeout)?;
    AdoptNotice::decode(&bytes)
}

/// Dissemination barrier: log2(P) rounds; returns when all ranks entered.
pub fn barrier(comm: &dyn Communicator) -> Result<()> {
    let size = comm.size();
    let rank = comm.rank();
    if size == 1 {
        return Ok(());
    }
    let mut round = 0u32;
    let mut distance = 1usize;
    while distance < size {
        let to = (rank + distance) % size;
        let from = (rank + size - distance) % size;
        comm.send(to, TAG_BARRIER + round, Bytes::new())?;
        comm.recv(from, TAG_BARRIER + round)?;
        distance *= 2;
        round += 1;
    }
    Ok(())
}

/// Binomial-tree broadcast from `root`; returns the payload on every rank.
pub fn broadcast(comm: &dyn Communicator, root: usize, payload: Option<Bytes>) -> Result<Bytes> {
    let size = comm.size();
    let rank = comm.rank();
    comm.check_peer(root)?;
    // Work in a rotated space where the root is rank 0.
    let vrank = (rank + size - root) % size;
    let data = if rank == root {
        payload.ok_or_else(|| {
            crate::comm::TransportError::InvalidArgument(
                "root must supply the broadcast payload".into(),
            )
        })?
    } else {
        // Receive from parent: highest set bit of vrank.
        let mut mask = 1usize;
        while mask * 2 <= vrank {
            mask *= 2;
        }
        let vparent = vrank - mask;
        let parent = (vparent + root) % size;
        comm.recv(parent, TAG_BCAST)?
    };
    // Forward to children.
    let mut mask = 1usize;
    while mask <= vrank {
        mask *= 2;
    }
    while mask < size {
        let vchild = vrank + mask;
        if vchild < size {
            let child = (vchild + root) % size;
            comm.send(child, TAG_BCAST, data.clone())?;
        }
        mask *= 2;
    }
    Ok(data)
}

/// Gather every rank's payload at `root`. Returns `Some(vec)` (indexed by
/// rank) on the root, `None` elsewhere. Flat gather: each non-root sends
/// directly (the direct-send compositing schedule).
pub fn gather(
    comm: &dyn Communicator,
    root: usize,
    payload: Bytes,
) -> Result<Option<Vec<Bytes>>> {
    let size = comm.size();
    let rank = comm.rank();
    comm.check_peer(root)?;
    if rank == root {
        let mut out: Vec<Bytes> = Vec::with_capacity(size);
        for from in 0..size {
            out.push(if from == root {
                payload.clone()
            } else {
                comm.recv(from, TAG_GATHER)?
            });
        }
        Ok(Some(out))
    } else {
        comm.send(root, TAG_GATHER, payload)?;
        Ok(None)
    }
}

/// Tag base for [`gather_surviving`]: salted per call (the harness salts
/// by step × image), so a contribution that arrives *after* its step timed
/// out can never be mistaken for the next step's payload.
const TAG_GATHER_LIVE: u32 = COLLECTIVE_TAG_BASE + 0x0400_0000;

/// Gather that tolerates dead contributors. Like [`gather`], but the root
/// skips ranks the caller believes dead (`is_dead`) and bounds every other
/// receive by `timeout`, so a rank that died between liveness checks costs
/// one timeout, never a deadlock. Returns `Some(per-rank slots)` on the
/// root — `None` in a slot is a missing contribution (dead, disconnected,
/// or past deadline) — and `None` elsewhere. `salt` must be unique per
/// logical gather (e.g. step index) so late payloads cannot cross steps.
pub fn gather_surviving(
    comm: &dyn Communicator,
    root: usize,
    salt: u32,
    payload: Bytes,
    is_dead: &dyn Fn(usize) -> bool,
    timeout: Duration,
) -> Result<Option<Vec<Option<Bytes>>>> {
    let size = comm.size();
    let rank = comm.rank();
    comm.check_peer(root)?;
    let tag = TAG_GATHER_LIVE + salt;
    if rank == root {
        let mut out: Vec<Option<Bytes>> = Vec::with_capacity(size);
        // Receive in short slices, re-checking liveness between them: a
        // rank that is declared dead mid-gather resolves to a hole in
        // O(detection latency), while a live straggler keeps the whole
        // `timeout` budget.
        let slice = Duration::from_millis(5).min(timeout.max(Duration::from_millis(1)));
        for from in 0..size {
            if from == root {
                out.push(Some(payload.clone()));
                continue;
            }
            let deadline = Instant::now() + timeout;
            let slot = loop {
                if is_dead(from) {
                    break None;
                }
                let now = Instant::now();
                if now >= deadline {
                    break None;
                }
                match comm.recv_timeout(from, tag, slice.min(deadline - now)) {
                    Ok(bytes) => break Some(bytes),
                    Err(TransportError::Timeout { .. }) => continue,
                    Err(TransportError::Disconnected { .. }) => break None,
                    Err(e) => return Err(e),
                }
            };
            out.push(slot);
        }
        Ok(Some(out))
    } else {
        comm.send(root, tag, payload)?;
        Ok(None)
    }
}

/// Binomial-tree reduction of f64 vectors (element-wise `combine`), result
/// at `root`. Returns `Some(result)` on the root, `None` elsewhere.
pub fn reduce_f64(
    comm: &dyn Communicator,
    root: usize,
    mut values: Vec<f64>,
    combine: fn(f64, f64) -> f64,
) -> Result<Option<Vec<f64>>> {
    let size = comm.size();
    let rank = comm.rank();
    comm.check_peer(root)?;
    let vrank = (rank + size - root) % size;
    let mut mask = 1usize;
    let mut round = 0u32;
    while mask < size {
        if vrank & mask != 0 {
            // send to partner and leave
            let vpartner = vrank - mask;
            let partner = (vpartner + root) % size;
            comm.send(partner, TAG_REDUCE + round, encode_f64s(&values))?;
            return Ok(None);
        }
        let vpartner = vrank + mask;
        if vpartner < size {
            let partner = (vpartner + root) % size;
            let theirs = decode_f64s(&comm.recv(partner, TAG_REDUCE + round)?)?;
            if theirs.len() != values.len() {
                return Err(crate::comm::TransportError::InvalidArgument(format!(
                    "reduce length mismatch: {} vs {}",
                    theirs.len(),
                    values.len()
                )));
            }
            for (v, t) in values.iter_mut().zip(theirs) {
                *v = combine(*v, t);
            }
        }
        mask *= 2;
        round += 1;
    }
    Ok(Some(values))
}

/// Reduce-then-broadcast: every rank gets the combined vector.
pub fn allreduce_f64(
    comm: &dyn Communicator,
    values: Vec<f64>,
    combine: fn(f64, f64) -> f64,
) -> Result<Vec<f64>> {
    let reduced = reduce_f64(comm, 0, values, combine)?;
    let payload = reduced.map(|v| encode_f64s(&v));
    let bytes = broadcast(comm, 0, payload)?;
    decode_f64s(&bytes)
}

fn encode_f64s(values: &[f64]) -> Bytes {
    let mut out = Vec::with_capacity(values.len() * 8);
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    Bytes::from(out)
}

fn decode_f64s(bytes: &Bytes) -> Result<Vec<f64>> {
    if !bytes.len().is_multiple_of(8) {
        return Err(crate::comm::TransportError::Decode(format!(
            "f64 vector payload of {} bytes",
            bytes.len()
        )));
    }
    Ok(bytes
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().expect("chunk is 8 bytes")))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::local::LocalFabric;
    use std::thread;

    /// Run `f` on every rank of a local fabric, collecting results by rank.
    fn on_ranks<T: Send + 'static>(
        size: usize,
        f: impl Fn(&dyn Communicator) -> T + Send + Sync + Clone + 'static,
    ) -> Vec<T> {
        let comms = LocalFabric::new(size);
        let handles: Vec<_> = comms
            .into_iter()
            .map(|c| {
                let f = f.clone();
                thread::spawn(move || f(&c))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    }

    #[test]
    fn barrier_completes_at_various_sizes() {
        for size in [1usize, 2, 3, 4, 5, 8] {
            let done = on_ranks(size, |c| {
                barrier(c).unwrap();
                true
            });
            assert_eq!(done.len(), size);
        }
    }

    #[test]
    fn barrier_orders_phases() {
        // All ranks increment a counter before the barrier; after it, every
        // rank must observe the full count.
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let counter = Arc::new(AtomicUsize::new(0));
        let c2 = counter.clone();
        let size = 4;
        let seen = on_ranks(size, move |c| {
            c2.fetch_add(1, Ordering::SeqCst);
            barrier(c).unwrap();
            c2.load(Ordering::SeqCst)
        });
        for s in seen {
            assert_eq!(s, size);
        }
    }

    #[test]
    fn broadcast_from_every_root() {
        for root in 0..4usize {
            let got = on_ranks(4, move |c| {
                let payload = if c.rank() == root {
                    Some(Bytes::from(vec![root as u8; 3]))
                } else {
                    None
                };
                broadcast(c, root, payload).unwrap()
            });
            for g in got {
                assert_eq!(&g[..], &[root as u8; 3]);
            }
        }
    }

    #[test]
    fn gather_collects_by_rank() {
        let results = on_ranks(5, |c| {
            gather(c, 2, Bytes::from(vec![c.rank() as u8])).unwrap()
        });
        for (rank, r) in results.iter().enumerate() {
            if rank == 2 {
                let v = r.as_ref().unwrap();
                for (i, b) in v.iter().enumerate() {
                    assert_eq!(b[0] as usize, i);
                }
            } else {
                assert!(r.is_none());
            }
        }
    }

    #[test]
    fn reduce_sums_vectors() {
        for size in [1usize, 2, 3, 4, 7] {
            let results = on_ranks(size, |c| {
                let mine = vec![c.rank() as f64, 1.0];
                reduce_f64(c, 0, mine, |a, b| a + b).unwrap()
            });
            let root = results[0].as_ref().unwrap();
            let expect: f64 = (0..size).map(|r| r as f64).sum();
            assert_eq!(root[0], expect, "size {size}");
            assert_eq!(root[1], size as f64);
            for r in &results[1..] {
                assert!(r.is_none());
            }
        }
    }

    #[test]
    fn allreduce_max_everywhere() {
        let results = on_ranks(6, |c| {
            allreduce_f64(c, vec![c.rank() as f64], f64::max).unwrap()
        });
        for r in results {
            assert_eq!(r, vec![5.0]);
        }
    }

    #[test]
    fn f64_codec_roundtrip_and_rejects_misaligned() {
        let v = vec![1.5, -2.25, 1e300];
        assert_eq!(decode_f64s(&encode_f64s(&v)).unwrap(), v);
        assert!(decode_f64s(&Bytes::from_static(b"12345")).is_err());
    }

    #[test]
    fn control_tags_sit_above_collectives_and_data() {
        const { assert!(CONTROL_TAG_BASE > COLLECTIVE_TAG_BASE) };
        const { assert!(TAG_ADOPT_NOTICE >= CONTROL_TAG_BASE) };
        const { assert!(TAG_MIGRATE_OFFER >= CONTROL_TAG_BASE) };
        const { assert!(TAG_MIGRATE_STATE >= CONTROL_TAG_BASE) };
        const { assert!(TAG_MIGRATE_ACK >= CONTROL_TAG_BASE) };
        const { assert!(crate::fault::DATA_TAG_MIN < COLLECTIVE_TAG_BASE) };
    }

    #[test]
    fn migrate_codecs_roundtrip_and_reject_short_payloads() {
        let offer = MigrateOffer {
            handoff: 2,
            partition: 5,
            source: 1,
            step: 9,
        };
        assert_eq!(MigrateOffer::decode(&offer.encode()).unwrap(), offer);
        assert!(MigrateOffer::decode(&Bytes::from_static(b"short")).is_err());
        for committed in [true, false] {
            let ack = MigrateAck { handoff: 3, committed };
            assert_eq!(MigrateAck::decode(&ack.encode()).unwrap(), ack);
        }
        assert!(MigrateAck::decode(&Bytes::from_static(b"short")).is_err());
    }

    #[test]
    fn migrate_handshake_travels_the_control_plane() {
        // source rank 0 offers partition 2 to target rank 1; the target
        // commits and acks. The checkpoint payload arrives byte-identical.
        let results = on_ranks(2, |c| {
            if c.rank() == 0 {
                let offer = MigrateOffer {
                    handoff: 4,
                    partition: 2,
                    source: 0,
                    step: 3,
                };
                send_migrate_offer(c, 1, &offer, Bytes::from_static(b"cursor-state")).unwrap();
                let ack = recv_migrate_ack(c, 1, 4, Duration::from_secs(5)).unwrap();
                assert!(ack.committed);
                None
            } else {
                let (offer, state) =
                    recv_migrate_offer(c, 0, 4, Duration::from_secs(5)).unwrap();
                assert_eq!(offer.partition, 2);
                assert_eq!(offer.step, 3);
                assert_eq!(&state[..], b"cursor-state");
                send_migrate_ack(c, 0, &MigrateAck { handoff: 4, committed: true }).unwrap();
                Some(offer)
            }
        });
        assert_eq!(results[1].unwrap().source, 0);
    }

    #[test]
    fn adopt_notice_roundtrips_and_rejects_short_payloads() {
        let notice = AdoptNotice {
            dead_rank: 3,
            adopted_at_step: 7,
            adopter: 1,
            latency_ns: 12_345_678,
        };
        assert_eq!(AdoptNotice::decode(&notice.encode()).unwrap(), notice);
        assert!(AdoptNotice::decode(&Bytes::from_static(b"short")).is_err());
    }

    #[test]
    fn adopt_notice_travels_the_control_plane() {
        let results = on_ranks(3, |c| {
            if c.rank() == 1 {
                let notice = AdoptNotice {
                    dead_rank: 2,
                    adopted_at_step: 4,
                    adopter: 1,
                    latency_ns: 99,
                };
                send_adopt_notice(c, 0, &notice).unwrap();
                None
            } else if c.rank() == 0 {
                Some(recv_adopt_notice(c, 1, 2, Duration::from_secs(5)).unwrap())
            } else {
                None
            }
        });
        let got = results[0].unwrap();
        assert_eq!(got.dead_rank, 2);
        assert_eq!(got.adopter, 1);
        assert_eq!(got.adopted_at_step, 4);
    }

    #[test]
    fn gather_surviving_skips_the_dead_and_never_blocks_on_them() {
        use std::time::Instant;
        // rank 2 is "dead": it never calls the gather at all. The root
        // must still return, with rank 2's slot empty, well inside the
        // per-receive timeout budget.
        let t0 = Instant::now();
        let results = on_ranks(4, |c| {
            if c.rank() == 2 {
                return None; // dead rank: no participation
            }
            gather_surviving(
                c,
                0,
                5,
                Bytes::from(vec![c.rank() as u8]),
                &|r| r == 2,
                Duration::from_secs(5),
            )
            .unwrap()
        });
        let slots = results[0].as_ref().unwrap();
        assert_eq!(slots.len(), 4);
        assert_eq!(slots[0].as_ref().unwrap()[0], 0);
        assert_eq!(slots[1].as_ref().unwrap()[0], 1);
        assert!(slots[2].is_none(), "dead rank contributes nothing");
        assert_eq!(slots[3].as_ref().unwrap()[0], 3);
        // the dead slot was skipped, not waited out
        assert!(t0.elapsed() < Duration::from_secs(4), "root waited on a dead rank");
    }

    #[test]
    fn gather_surviving_counts_a_silent_live_rank_as_missing() {
        // rank 1 is believed alive but never sends: the root times out on
        // it (bounded) and records a missing contribution.
        let results = on_ranks(3, |c| {
            if c.rank() == 1 {
                return None;
            }
            gather_surviving(
                c,
                0,
                9,
                Bytes::from(vec![c.rank() as u8]),
                &|_| false,
                Duration::from_millis(50),
            )
            .unwrap()
        });
        let slots = results[0].as_ref().unwrap();
        assert!(slots[1].is_none(), "silent rank must surface as missing");
        assert!(slots[2].is_some());
    }
}
