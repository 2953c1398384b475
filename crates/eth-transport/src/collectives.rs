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
//! (`0xE0xx_xxxx`): partition-adoption notices and migration handshakes,
//! each a [`ControlMessage`] of little-endian `u64` words with one codec
//! and one send and one receive ([`send_control`], [`recv_control`]).
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

/// A control-plane message: a fixed number of little-endian `u64` words,
/// sent under its tag family plus a salt that keeps concurrent messages of
/// one type from crossing. [`send_control`] and [`recv_control`] carry all
/// three types; [`ControlMessage::decode`] is the one length check.
pub trait ControlMessage: Sized {
    /// Type name, for decode errors.
    const NAME: &'static str;
    /// Tag family; the message's salt is added to it.
    const TAG: u32;
    /// Words on the wire.
    const WORDS: usize;

    /// The salt this message travels under.
    fn salt(&self) -> usize;
    /// The message as [`Self::WORDS`] words.
    fn to_words(&self) -> Vec<u64>;
    /// The message from exactly [`Self::WORDS`] words.
    fn from_words(words: &[u64]) -> Self;

    fn encode(&self) -> Bytes {
        let words = self.to_words();
        debug_assert_eq!(words.len(), Self::WORDS);
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        Bytes::from(bytes)
    }

    fn decode(bytes: &Bytes) -> Result<Self> {
        if bytes.len() != Self::WORDS * 8 {
            return Err(TransportError::Decode(format!(
                "{} of {} bytes (want {})",
                Self::NAME,
                bytes.len(),
                Self::WORDS * 8
            )));
        }
        let words: Vec<u64> = bytes
            .chunks_exact(8)
            .map(|w| u64::from_le_bytes(w.try_into().expect("8-byte word")))
            .collect();
        Ok(Self::from_words(&words))
    }
}

/// Send a control message to `to`.
pub fn send_control<M: ControlMessage>(comm: &dyn Communicator, to: usize, msg: &M) -> Result<()> {
    comm.send(to, M::TAG + msg.salt() as u32, msg.encode())
}

/// Receive the control message of type `M` under `salt` from `from`,
/// bounded by `timeout`: a control receive must never block past the
/// run's deadline, and a message that does not come is an error, never a
/// default.
pub fn recv_control<M: ControlMessage>(
    comm: &dyn Communicator,
    from: usize,
    salt: usize,
    timeout: Duration,
) -> Result<M> {
    M::decode(&comm.recv_timeout(from, M::TAG + salt as u32, timeout)?)
}

/// The control-plane message announcing a partition adoption: who died,
/// where their work stopped, who took over, and how long the takeover
/// took from the death's declaration. The rank that adopted a dead rank's
/// partition sends it to the root, salted by the dead rank.
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

impl ControlMessage for AdoptNotice {
    const NAME: &'static str = "adopt notice";
    const TAG: u32 = CONTROL_TAG_BASE + 0x0100_0000;
    const WORDS: usize = 4;

    fn salt(&self) -> usize {
        self.dead_rank
    }

    fn to_words(&self) -> Vec<u64> {
        let (dead, step, adopter) = (self.dead_rank, self.adopted_at_step, self.adopter);
        vec![dead as u64, step as u64, adopter as u64, self.latency_ns]
    }

    fn from_words(w: &[u64]) -> AdoptNotice {
        AdoptNotice {
            dead_rank: w[0] as usize,
            adopted_at_step: w[1] as usize,
            adopter: w[2] as usize,
            latency_ns: w[3],
        }
    }
}

/// The first message of a handoff: the source names the partition it is
/// draining, itself, and the step the target takes over at.
///
/// Migration handoff protocol (DESIGN.md §13): two chaos-exempt messages
/// per handoff, each on its own tag family salted by the handoff index so
/// concurrent handoffs never cross. `offer → ack`: the offer names the
/// partition and the step, which is all the target needs to present the
/// partition from the series itself. The target alone decides; the source
/// keeps rendering the partition unless the ack says committed, so a
/// refused handoff degrades to "no migration happened".
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

impl ControlMessage for MigrateOffer {
    const NAME: &'static str = "migrate offer";
    const TAG: u32 = CONTROL_TAG_BASE + 0x0200_0000;
    const WORDS: usize = 4;

    fn salt(&self) -> usize {
        self.handoff
    }

    fn to_words(&self) -> Vec<u64> {
        [self.handoff, self.partition, self.source, self.step]
            .map(|w| w as u64)
            .to_vec()
    }

    fn from_words(w: &[u64]) -> MigrateOffer {
        MigrateOffer {
            handoff: w[0] as usize,
            partition: w[1] as usize,
            source: w[2] as usize,
            step: w[3] as usize,
        }
    }
}

/// The second message of a handoff, the target's verdict: did it commit?
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrateAck {
    pub handoff: usize,
    /// `true`: the target owns the partition from the offered step on.
    /// `false`: the target refused — the offer was not the one its
    /// schedule names, or the partition's simulation rank is dead — and
    /// the source keeps it.
    pub committed: bool,
}

impl ControlMessage for MigrateAck {
    const NAME: &'static str = "migrate ack";
    const TAG: u32 = CONTROL_TAG_BASE + 0x0400_0000;
    const WORDS: usize = 2;

    fn salt(&self) -> usize {
        self.handoff
    }

    fn to_words(&self) -> Vec<u64> {
        vec![self.handoff as u64, self.committed as u64]
    }

    fn from_words(w: &[u64]) -> MigrateAck {
        MigrateAck {
            handoff: w[0] as usize,
            committed: w[1] != 0,
        }
    }
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
        const { assert!(AdoptNotice::TAG >= CONTROL_TAG_BASE) };
        const { assert!(MigrateOffer::TAG >= CONTROL_TAG_BASE) };
        const { assert!(MigrateAck::TAG >= CONTROL_TAG_BASE) };
        const { assert!(crate::fault::DATA_TAG_MIN < COLLECTIVE_TAG_BASE) };
    }

    fn roundtrips<M: ControlMessage + PartialEq + std::fmt::Debug>(msg: M, wire: &[u64]) {
        let bytes = msg.encode();
        let words: Vec<u8> = wire.iter().flat_map(|w| w.to_le_bytes()).collect();
        assert_eq!(&bytes[..], &words[..], "{}: payload words", M::NAME);
        assert_eq!(M::decode(&bytes).unwrap(), msg);
        match M::decode(&Bytes::from_static(b"short")) {
            Err(TransportError::Decode(m)) => assert!(m.starts_with(M::NAME), "{m}"),
            other => panic!("{}: expected a Decode error, got {other:?}", M::NAME),
        }
    }

    #[test]
    fn control_messages_roundtrip_word_for_word_and_reject_wrong_lengths() {
        let notice = AdoptNotice {
            dead_rank: 3,
            adopted_at_step: 7,
            adopter: 1,
            latency_ns: 12_345_678,
        };
        roundtrips(notice, &[3, 7, 1, 12_345_678]);
        let offer = MigrateOffer {
            handoff: 2,
            partition: 5,
            source: 1,
            step: 9,
        };
        roundtrips(offer, &[2, 5, 1, 9]);
        for committed in [true, false] {
            let ack = MigrateAck {
                handoff: 3,
                committed,
            };
            roundtrips(ack, &[3, committed as u64]);
        }
    }

    mod totality {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Arbitrary bytes decode to `Ok` or `Err` under every message
            /// type, never a panic; `Ok` exactly at the message's length.
            #[test]
            fn decoding_is_total(raw in prop::collection::vec(0u16..256, 0..48)) {
                let bytes = Bytes::from(raw.into_iter().map(|b| b as u8).collect::<Vec<u8>>());
                let len = bytes.len();
                prop_assert_eq!(AdoptNotice::decode(&bytes).is_ok(), len == 32);
                prop_assert_eq!(MigrateOffer::decode(&bytes).is_ok(), len == 32);
                prop_assert_eq!(MigrateAck::decode(&bytes).is_ok(), len == 16);
            }
        }
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
                send_control(c, 1, &offer).unwrap();
                let ack: MigrateAck = recv_control(c, 1, 4, Duration::from_secs(5)).unwrap();
                assert!(ack.committed);
                None
            } else {
                let offer: MigrateOffer = recv_control(c, 0, 4, Duration::from_secs(5)).unwrap();
                assert_eq!(offer.partition, 2);
                assert_eq!(offer.step, 3);
                let ack = MigrateAck {
                    handoff: 4,
                    committed: true,
                };
                send_control(c, 0, &ack).unwrap();
                Some(offer)
            }
        });
        assert_eq!(results[1].unwrap().source, 0);
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
                send_control(c, 0, &notice).unwrap();
                None
            } else if c.rank() == 0 {
                Some(recv_control::<AdoptNotice>(c, 1, 2, Duration::from_secs(5)).unwrap())
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
