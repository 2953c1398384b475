//! The chaos wrapper: enact a [`FaultPlan`] on a pair link.
//!
//! [`ChaosLink`] wraps any [`PairLink`] — the fabric view intercore uses or
//! the TCP stream internode uses — consults the plan's deterministic
//! decision function per message, enacts the faults, and appends every
//! injected fault to a log so a run's fault schedule can be asserted
//! byte-identical across runs.
//!
//! Enactment sides:
//! * **send** — delay (sleep before the write), drop (the write never
//!   happens), wire corruption (the payload is mangled before the write,
//!   so the receiver sees a decode failure, like real bit rot),
//! * **recv** — injected disconnect (the link is treated as dead from a
//!   chosen message onward) and integrity failure
//!   ([`TransportError::Corrupt`]).
//!
//! The fault domain is the sim↔viz link and nothing else: collectives and
//! control messages travel on the communicator, which is never wrapped, so
//! compositing stays reliable while the data path misbehaves — mirroring
//! how ISAAC-style couplings keep the simulation healthy when the consumer
//! is not.

use crate::comm::{Result, TransportError};
use crate::fault::{FaultEvent, FaultKind, FaultPlan, FaultSide};
use crate::link::PairLink;
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
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
    log: Mutex<Vec<FaultEvent>>,
}

impl<L: PairLink> ChaosLink<L> {
    pub fn new(inner: L, plan: FaultPlan) -> ChaosLink<L> {
        ChaosLink {
            inner,
            plan,
            send_seq: AtomicU64::new(0),
            recv_seq: AtomicU64::new(0),
            log: Mutex::new(Vec::new()),
        }
    }

    fn log(&self) -> MutexGuard<'_, Vec<FaultEvent>> {
        self.log.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Every fault injected so far, in injection order.
    pub fn fault_log(&self) -> Vec<FaultEvent> {
        self.log().clone()
    }

    /// The fault log serialized to JSON — the "schedule" two same-seed
    /// runs must reproduce byte-for-byte.
    pub fn schedule_bytes(&self) -> Vec<u8> {
        serde_json::to_vec(&*self.log()).unwrap_or_default()
    }

    fn note(&self, kind: FaultKind, from: usize, to: usize, tag: u32, seq: u64) {
        self.log().push(FaultEvent {
            kind,
            from,
            to,
            tag,
            seq,
        });
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
            self.note(FaultKind::Disconnect, local, peer, tag, seq);
            return Err(TransportError::Disconnected { peer });
        }
        let decision = self.plan.decide(FaultSide::Send, local, peer, tag, seq);
        if decision.delay_ms > 0 {
            self.note(FaultKind::Delay, local, peer, tag, seq);
            std::thread::sleep(Duration::from_millis(decision.delay_ms));
        }
        if decision.drop {
            self.note(FaultKind::Drop, local, peer, tag, seq);
            // Record the send attempt so a stitched trace shows the lost
            // message as a dangling flow-out instead of nothing at all.
            let _span = eth_obs::span_bytes(eth_obs::Phase::Send, payload.len() as u64);
            if let Some(ctx) = eth_obs::flow_context() {
                eth_obs::flow_out(ctx, peer, tag, payload.len() as u64);
            }
            return Ok(()); // silently lost
        }
        let payload = if decision.corrupt {
            self.note(FaultKind::Corrupt, local, peer, tag, seq);
            mangle(&payload, self.plan.seed, seq)
        } else {
            payload
        };
        self.inner.send(tag, payload)
    }

    /// With no `within`, the plan's receive deadline applies: with one
    /// configured, this never blocks indefinitely.
    fn recv(&self, tag: u32, within: Option<Duration>) -> Result<Bytes> {
        let (local, peer) = (self.local_rank(), self.peer_rank());
        let seq = self.recv_seq.fetch_add(1, Ordering::Relaxed);
        if self.plan.disconnects(peer, seq) {
            self.note(FaultKind::Disconnect, peer, local, tag, seq);
            return Err(TransportError::Disconnected { peer });
        }
        let payload = self.inner.recv(tag, within.or(self.plan.deadline()))?;
        let decision = self.plan.decide(FaultSide::Recv, peer, local, tag, seq);
        if decision.corrupt {
            self.note(FaultKind::Corrupt, peer, local, tag, seq);
            return Err(TransportError::Corrupt {
                peer,
                detail: format!("injected integrity failure (seq {seq})"),
            });
        }
        Ok(payload)
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
        assert!(c0.fault_log().is_empty());
        assert!(c1.fault_log().is_empty());
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
        assert_eq!(c0.fault_log().len(), 1);
        assert_eq!(c0.fault_log()[0].kind, FaultKind::Drop);
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

    #[test]
    fn same_seed_same_schedule_bytes() {
        let run = || {
            let comms = LocalFabric::new(2);
            let plan = FaultPlan::seeded(99)
                .with_drop(0.4)
                .with_corrupt(0.3)
                .with_recv_deadline_ms(20);
            let (c0, c1) = pair(&comms, &plan);
            for i in 0..50u32 {
                c0.send(TAG + (i % 3), Bytes::from(vec![i as u8; 8])).unwrap();
            }
            for i in 0..50u32 {
                let _ = c1.recv(TAG + (i % 3), Some(Duration::from_millis(1)));
            }
            (c0.schedule_bytes(), c1.schedule_bytes())
        };
        let (s0a, s1a) = run();
        let (s0b, s1b) = run();
        assert!(!s0a.is_empty() && s0a != b"[]", "no faults fired");
        assert_eq!(s0a, s0b, "sender schedules diverged across runs");
        assert_eq!(s1a, s1b, "receiver schedules diverged across runs");
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
            let link = ChaosLink::new(FabricLink::new(&c, (c.rank() + 1) % 3), plan);
            link.send(TAG, Bytes::from_static(b"lost")).unwrap();
            link.send(COLLECTIVE_TAG_BASE + 1, Bytes::from_static(b"lost too")).unwrap();
            let mine = || Bytes::from(vec![c.rank() as u8]);
            gather(&c, 0..3, 0, mine()).unwrap();
            let g = gather(&c, 0..3, 1, mine()).unwrap();
            assert_eq!(link.fault_log().len(), 2);
            g.map_or(0, |parts| parts.len())
        });
        assert_eq!(totals, vec![3, 0, 0]);
    }
}
