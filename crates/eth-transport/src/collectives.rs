//! The composite gather and the control plane, on point-to-point messaging.
//!
//! The step loop needs exactly one collective: every visualization rank's
//! contribution to a frame, gathered at the compositing root ([`gather`]).
//! It runs over [`Communicator`], so it is the same on the in-process and
//! socket backends, and it covers a range of the communicator's ranks, so
//! a fabric that also seats simulation ranks need not involve them.
//!
//! Tags: the gather uses the top tag bits (`0xC0xx_xxxx`) salted per call,
//! so user traffic (low tags) never collides as long as it stays below
//! [`COLLECTIVE_TAG_BASE`]. Above it sits the **control plane**
//! (`0xE0xx_xxxx`): partition-adoption notices and migration handshakes.
//! Both classes travel on the communicator, never on a fault-wrapped pair
//! link — chaos may lose *data*, never the messages that coordinate
//! reacting to the loss — and every control receive carries the run's
//! deadline, so a peer that never answers fails the run instead of
//! wedging it.

use crate::comm::{Communicator, Result, TransportError};
use bytes::Bytes;
use std::ops::Range;
use std::time::Duration;

/// Tags at or above this value are reserved for collectives.
pub const COLLECTIVE_TAG_BASE: u32 = 0xC000_0000;

/// Tag base for [`gather`], salted per call (the harness salts by step ×
/// image), so a contribution that arrives *after* its frame timed out can
/// never be mistaken for the next frame's.
const TAG_GATHER: u32 = COLLECTIVE_TAG_BASE + 0x0200_0000;

/// Tags at or above this value are reserved for the control plane
/// (recovery and migration coordination). Sits above
/// [`COLLECTIVE_TAG_BASE`], clear of both collectives and data.
pub const CONTROL_TAG_BASE: u32 = 0xE000_0000;

/// Adoption notice: `TAG_ADOPT_NOTICE + dead_rank`, sent by the rank that
/// adopted a dead rank's partition to the root, carrying an
/// [`AdoptNotice`].
pub const TAG_ADOPT_NOTICE: u32 = CONTROL_TAG_BASE + 0x0100_0000;

/// The control-plane message announcing a partition adoption: who died,
/// where their work stopped, who took over, and how long the takeover
/// took from the death's declaration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdoptNotice {
    /// The simulation rank that died.
    pub dead_rank: usize,
    /// The step at which the adopter resumed the partition.
    pub adopted_at_step: usize,
    /// The adopting rank.
    pub adopter: usize,
    /// Nanoseconds from the death's declaration to the adoption.
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

/// Migration handoff protocol (DESIGN.md §13): two chaos-exempt messages
/// per handoff, each on its own tag family salted by the handoff index so
/// concurrent handoffs never cross. `offer → ack`: the offer names the
/// partition and the step, which is all the target needs to present the
/// partition from the series itself. The target alone decides; the source
/// keeps rendering the partition unless the ack says committed, so a
/// refused handoff degrades to "no migration happened".
pub const TAG_MIGRATE_OFFER: u32 = CONTROL_TAG_BASE + 0x0200_0000;
/// The target's verdict: committed, or refused.
pub const TAG_MIGRATE_ACK: u32 = CONTROL_TAG_BASE + 0x0400_0000;

/// The first message of a handoff: the source names the partition it is
/// draining, itself, and the step the target takes over at.
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

/// The second message of a handoff: did the target commit?
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrateAck {
    pub handoff: usize,
    /// `true`: the target owns the partition from the offered step on.
    /// `false`: the target refused — the offer was not the one its
    /// schedule names, or the partition's simulation rank is dead — and
    /// the source keeps it.
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

/// Send the offer to the target.
pub fn send_migrate_offer(comm: &dyn Communicator, target: usize, offer: &MigrateOffer) -> Result<()> {
    comm.send(target, TAG_MIGRATE_OFFER + offer.handoff as u32, offer.encode())
}

/// Receive the offer for handoff `handoff`, bounded by `timeout` (a
/// control receive must never block past the run's deadline).
pub fn recv_migrate_offer(
    comm: &dyn Communicator,
    from: usize,
    handoff: usize,
    timeout: Duration,
) -> Result<MigrateOffer> {
    let bytes = comm.recv_timeout(from, TAG_MIGRATE_OFFER + handoff as u32, timeout)?;
    MigrateOffer::decode(&bytes)
}

/// Send the target's verdict back to the source.
pub fn send_migrate_ack(comm: &dyn Communicator, source: usize, ack: &MigrateAck) -> Result<()> {
    comm.send(source, TAG_MIGRATE_ACK + ack.handoff as u32, ack.encode())
}

/// Receive the verdict for handoff `handoff`, bounded by `timeout` (the
/// run's deadline: only the target decides, so a verdict that does not
/// come is an error, not a refusal).
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

/// Gather the payloads of the ranks `members` at the first of them, the
/// root. Returns `Some(slots)` on the root, indexed by position in
/// `members` (its own payload in slot 0), and `None` elsewhere. `salt` must
/// be unique per logical gather (e.g. step × image) so late payloads
/// cannot cross gathers. Every receive blocks and any error fails the
/// gather: the members are visualization ranks, and no visualization rank
/// dies mid-run.
pub fn gather(
    comm: &dyn Communicator,
    members: Range<usize>,
    salt: u32,
    payload: Bytes,
) -> Result<Option<Vec<Bytes>>> {
    let rank = comm.rank();
    if !members.contains(&rank) {
        return Err(TransportError::InvalidArgument(format!(
            "rank {rank} is not a member of the gather over {members:?}"
        )));
    }
    comm.check_peer(members.end - 1)?;
    let (root, tag) = (members.start, TAG_GATHER + salt);
    if rank != root {
        comm.send(root, tag, payload)?;
        return Ok(None);
    }
    let mut slots = Vec::with_capacity(members.len());
    slots.push(payload);
    for from in root + 1..members.end {
        slots.push(comm.recv(from, tag)?);
    }
    Ok(Some(slots))
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
    fn gather_collects_a_member_range_by_position() {
        // ranks 0 and 1 sit outside the gather (an intercore fabric's
        // simulation ranks): they never take part, and the root is rank 2
        let results = on_ranks(5, |c| {
            if c.rank() < 2 {
                return None;
            }
            gather(c, 2..5, 3, Bytes::from(vec![c.rank() as u8])).unwrap()
        });
        let slots = results[2].as_ref().unwrap();
        let got: Vec<u8> = slots.iter().map(|slot| slot[0]).collect();
        assert_eq!(got, vec![2, 3, 4]);
        assert!(results.iter().enumerate().all(|(rank, r)| rank == 2 || r.is_none()));
        // a rank outside the range is refused, not silently counted
        let refused = on_ranks(2, |c| gather(c, 1..2, 0, Bytes::new()).is_err());
        assert_eq!(refused, vec![true, false]);
    }

    #[test]
    fn salted_gathers_never_cross() {
        // rank 1 contributes to gather 8 before gather 7: the root still
        // files each payload under its own salt
        let results = on_ranks(2, |c| {
            let mine = |salt: u8| Bytes::from(vec![salt, c.rank() as u8]);
            let order = if c.rank() == 1 { [8, 7] } else { [7, 8] };
            let mut got = Vec::new();
            for salt in order {
                if let Some(slots) = gather(c, 0..2, salt as u32, mine(salt)).unwrap() {
                    got.push(slots[1].clone());
                }
            }
            got
        });
        assert_eq!(results[0], vec![Bytes::from(vec![7, 1]), Bytes::from(vec![8, 1])]);
    }

    #[test]
    fn control_tags_sit_above_collectives_and_data() {
        const { assert!(CONTROL_TAG_BASE > COLLECTIVE_TAG_BASE) };
        const { assert!(TAG_ADOPT_NOTICE >= CONTROL_TAG_BASE) };
        const { assert!(TAG_MIGRATE_OFFER >= CONTROL_TAG_BASE) };
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
        // commits and acks.
        let results = on_ranks(2, |c| {
            if c.rank() == 0 {
                let offer = MigrateOffer {
                    handoff: 4,
                    partition: 2,
                    source: 0,
                    step: 3,
                };
                send_migrate_offer(c, 1, &offer).unwrap();
                let ack = recv_migrate_ack(c, 1, 4, Duration::from_secs(5)).unwrap();
                assert!(ack.committed);
                None
            } else {
                let offer = recv_migrate_offer(c, 0, 4, Duration::from_secs(5)).unwrap();
                assert_eq!(offer.partition, 2);
                assert_eq!(offer.step, 3);
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
}
