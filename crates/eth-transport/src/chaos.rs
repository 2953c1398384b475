//! The chaos wrapper: enact a [`FaultPlan`] on a pair link.
//!
//! [`ChaosLink`] wraps any [`PairLink`] — the fabric view intercore uses or
//! the TCP stream internode uses — and consults the plan's deterministic
//! decision function once per message, at the sender, on the bytes that
//! cross:
//! * **drop** — the write never happens; the receiver meets the plan's
//!   deadline (across a socket, the sender's hang-up once its steps are
//!   sent),
//! * **corruption** — payload bytes are flipped before the write, so the
//!   receiver's codec rejects a payload that really is damaged, like bit
//!   rot on the wire.
//!
//! An injected disconnect treats the link as dead from a chosen message
//! onward, on either end. No fault adds latency and nothing is logged: the
//! schedule is [`FaultPlan::decide`], a pure function of the message key.
//!
//! The fault domain is the sim↔viz link and nothing else: collectives and
//! control messages travel on the communicator, which is never wrapped, so
//! compositing stays reliable while the data path misbehaves — mirroring
//! how ISAAC-style couplings keep the simulation healthy when the consumer
//! is not.

use crate::comm::{Result, TransportError};
use crate::fault::FaultPlan;
use crate::link::PairLink;
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Deterministically mangle a payload (send-side wire corruption). The
/// first byte always flips, so the result is guaranteed to differ.
fn mangle(payload: &Bytes, seed: u64, seq: u64) -> Bytes {
    if payload.is_empty() {
        return payload.clone();
    }
    let mut data = payload.to_vec();
    let mut rng = StdRng::seed_from_u64(seed ^ seq.wrapping_mul(0x2545_F491_4F6C_DD1D));
    data[0] ^= 0xA5;
    let flips = (data.len() / 64).clamp(1, 32);
    for _ in 0..flips {
        let i = (rng.next_u64() as usize) % data.len();
        data[i] ^= 0xFF;
    }
    Bytes::from(data)
}

/// A [`PairLink`] that injects seeded, reproducible faults.
pub struct ChaosLink<L> {
    inner: L,
    plan: FaultPlan,
    /// Messages this end has tried to send / receive; the `seq` of a
    /// fault decision.
    send_seq: AtomicU64,
    recv_seq: AtomicU64,
}

impl<L: PairLink> ChaosLink<L> {
    pub fn new(inner: L, plan: FaultPlan) -> ChaosLink<L> {
        ChaosLink {
            inner,
            plan,
            send_seq: AtomicU64::new(0),
            recv_seq: AtomicU64::new(0),
        }
    }
}

impl<L: PairLink> PairLink for ChaosLink<L> {
    fn local_rank(&self) -> usize {
        self.inner.local_rank()
    }

    fn peer_rank(&self) -> usize {
        self.inner.peer_rank()
    }

    fn send(&self, tag: u32, payload: Bytes) -> Result<()> {
        let (local, peer) = (self.local_rank(), self.peer_rank());
        // a statistic: orders nothing but itself
        let seq = self.send_seq.fetch_add(1, Ordering::Relaxed);
        if self.plan.disconnects(peer, seq) {
            return Err(TransportError::Disconnected { peer });
        }
        let decision = self.plan.decide(local, peer, tag, seq);
        if decision.drop {
            // Record the send attempt so a stitched trace shows the lost
            // message as a dangling flow-out instead of nothing at all.
            let _span = eth_obs::span_bytes(eth_obs::Phase::Send, payload.len() as u64);
            if let Some(ctx) = eth_obs::flow_context() {
                eth_obs::flow_out(ctx, peer, tag, payload.len() as u64);
            }
            return Ok(()); // silently lost
        }
        let payload = if decision.corrupt {
            mangle(&payload, self.plan.seed, seq)
        } else {
            payload
        };
        self.inner.send(tag, payload)
    }

    /// With no `within`, the plan's receive deadline applies: with one
    /// configured, this never blocks indefinitely.
    fn recv(&self, tag: u32, within: Option<Duration>) -> Result<Bytes> {
        let peer = self.peer_rank();
        let seq = self.recv_seq.fetch_add(1, Ordering::Relaxed);
        if self.plan.disconnects(peer, seq) {
            return Err(TransportError::Disconnected { peer });
        }
        self.inner.recv(tag, within.or(self.plan.deadline()))
    }

    fn bytes_sent(&self) -> u64 {
        self.inner.bytes_sent()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::Communicator;
    use crate::link::FabricLink;
    use crate::local::{LocalComm, LocalFabric};

    const TAG: u32 = 0x1008;

    /// Both ends of the 0↔1 link of a two-rank fabric, each behind `plan`.
    fn pair<'a>(
        comms: &'a [LocalComm],
        plan: &FaultPlan,
    ) -> (ChaosLink<FabricLink<'a>>, ChaosLink<FabricLink<'a>>) {
        let end = |rank: usize| {
            ChaosLink::new(FabricLink::new(&comms[rank], 1 - rank), plan.clone())
        };
        (end(0), end(1))
    }

    #[test]
    fn inert_plan_changes_nothing() {
        let comms = LocalFabric::new(2);
        let (c0, c1) = pair(&comms, &FaultPlan::default());
        c0.send(TAG, Bytes::from_static(b"hello")).unwrap();
        assert_eq!(&c1.recv(TAG, None).unwrap()[..], b"hello");
    }

    #[test]
    fn dropped_messages_surface_as_timeouts() {
        let comms = LocalFabric::new(2);
        let plan = FaultPlan::seeded(21)
            .with_drop(1.0)
            .with_recv_deadline_ms(50);
        let (c0, c1) = pair(&comms, &plan);
        c0.send(TAG, Bytes::from_static(b"lost")).unwrap();
        let err = c1.recv(TAG, None).unwrap_err();
        assert!(matches!(err, TransportError::Timeout { peer: 0, .. }), "{err}");
    }

    #[test]
    fn injected_disconnect_cuts_sends_after_threshold() {
        let comms = LocalFabric::new(2);
        let (c0, _c1) = pair(&comms, &FaultPlan::seeded(3).with_disconnect(1, 1));
        // first message to peer 1 passes, second hits the injected cut
        c0.send(TAG, Bytes::new()).unwrap();
        let err = c0.send(TAG, Bytes::new()).unwrap_err();
        assert!(matches!(err, TransportError::Disconnected { peer: 1 }), "{err}");
    }

    /// What the receiver of one message sees.
    #[derive(Debug, PartialEq)]
    enum Seen {
        Intact,
        Changed,
        TimedOut,
    }

    #[test]
    fn the_receiver_sees_exactly_what_the_senders_decisions_say() {
        let plan = FaultPlan::seeded(99)
            .with_drop(0.4)
            .with_corrupt(0.3)
            .with_recv_deadline_ms(20);
        let run = || {
            let comms = LocalFabric::new(2);
            let (c0, c1) = pair(&comms, &plan);
            // one tag per message, so a drop cannot shift a later message
            // into its slot
            for i in 0..50u32 {
                c0.send(TAG + i, Bytes::from(vec![i as u8; 8])).unwrap();
            }
            (0..50u32)
                .map(|i| match c1.recv(TAG + i, Some(Duration::from_millis(1))) {
                    Ok(got) if got[..] == [i as u8; 8] => Seen::Intact,
                    Ok(_) => Seen::Changed,
                    Err(TransportError::Timeout { .. }) => Seen::TimedOut,
                    Err(e) => panic!("message {i}: {e}"),
                })
                .collect::<Vec<_>>()
        };
        let seen = run();
        assert_eq!(seen, run(), "the same seed saw different messages");
        // drops are the receive timeouts, corruptions the payloads that
        // differ from what was sent: nothing else faults a message
        let want: Vec<Seen> = (0..50u32)
            .map(|i| match plan.decide(0, 1, TAG + i, u64::from(i)) {
                d if d.drop => Seen::TimedOut,
                d if d.corrupt => Seen::Changed,
                _ => Seen::Intact,
            })
            .collect();
        assert_eq!(seen, want);
        assert!(seen.contains(&Seen::TimedOut) && seen.contains(&Seen::Changed), "{seen:?}");
    }

    #[test]
    fn mangle_always_changes_and_is_deterministic() {
        let p = Bytes::from(vec![7u8; 256]);
        let a = mangle(&p, 5, 0);
        let b = mangle(&p, 5, 0);
        assert_eq!(a, b);
        assert_ne!(a, p);
        assert_eq!(a.len(), p.len());
        assert_ne!(mangle(&p, 5, 1), a, "seq must vary the mangling");
        assert!(mangle(&Bytes::new(), 5, 0).is_empty());
    }

    #[test]
    fn collectives_survive_total_data_drop() {
        // The wrapper sits on the pair link, so a plan that drops ALL data
        // cannot touch the gathers running on the same fabric — not even a
        // message that reuses a collective's own tag.
        use crate::collectives::{gather, COLLECTIVE_TAG_BASE};
        use crate::runner::run_ranks;
        let totals = run_ranks(3, |c| {
            let plan = FaultPlan::seeded(8).with_drop(1.0).with_recv_deadline_ms(100);
            let wrap = |peer| ChaosLink::new(FabricLink::new(&c, peer), plan.clone());
            let (to_next, from_prev) = (wrap((c.rank() + 1) % 3), wrap((c.rank() + 2) % 3));
            to_next.send(TAG, Bytes::from_static(b"lost")).unwrap();
            to_next.send(COLLECTIVE_TAG_BASE + 1, Bytes::from_static(b"lost too")).unwrap();
            let mine = || Bytes::from(vec![c.rank() as u8]);
            gather(&c, 0..3, 0, mine()).unwrap();
            let g = gather(&c, 0..3, 1, mine()).unwrap();
            // both of the previous rank's messages were dropped: each
            // receive runs into the deadline
            for tag in [TAG, COLLECTIVE_TAG_BASE + 1] {
                let err = from_prev.recv(tag, None).unwrap_err();
                assert!(matches!(err, TransportError::Timeout { .. }), "{err}");
            }
            g.map_or(0, |parts| parts.len())
        });
        assert_eq!(totals, vec![3, 0, 0]);
    }
}
