//! Flow stitching under injected faults: a chaos plan that drops and
//! corrupts messages must still produce a stitched trace
//! whose accounting balances — every send attempt is either a matched
//! flow or a counted dangling flow-out, never a mismatched arrow and
//! never a panic.

use bytes::Bytes;
use eth_transport::chaos::ChaosLink;
use eth_transport::comm::{Communicator, TransportError};
use eth_transport::fault::{FaultPlan, DATA_TAG_MIN};
use eth_transport::link::{FabricLink, PairLink};
use eth_transport::local::LocalFabric;

const RANKS: usize = 3;
const SENDS: usize = 8;

#[test]
fn chaos_drops_dangle_and_corrupt_messages_still_pair() {
    let plan = FaultPlan {
        seed: 7,
        drop_prob: 0.25,
        corrupt_prob: 0.25,
        recv_deadline_ms: 250,
        ..FaultPlan::default()
    };

    let recorder = eth_obs::Recorder::new();
    let guard = recorder.attach();
    let ctx = eth_obs::current_context();

    // every rank holds a wrapped pair link to each of its peers
    let comms = LocalFabric::new(RANKS);
    let (mut drops, mut corrupts) = (0, 0);
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for comm in &comms {
            let (ctx, plan) = (ctx.clone(), plan.clone());
            handles.push(scope.spawn(move || {
                let _obs = ctx.attach();
                let rank = comm.rank();
                eth_obs::set_rank(rank);
                let links: Vec<_> = (0..RANKS)
                    .filter(|&peer| peer != rank)
                    .map(|peer| ChaosLink::new(FabricLink::new(comm, peer), plan.clone()))
                    .collect();
                for link in &links {
                    for i in 0..SENDS {
                        let tag = DATA_TAG_MIN + i as u32;
                        link.send(tag, Bytes::from(vec![rank as u8; 64]))
                            .expect("chaos send never errors without a disconnect plan");
                    }
                }
                // Drain what survived. A dropped message costs one
                // bounded deadline; a corrupted one arrives (and thus
                // pairs its flow) with bytes that differ from the sent.
                let (mut drops, mut corrupts) = (0, 0);
                for link in &links {
                    let sent = [link.peer_rank() as u8; 64];
                    for i in 0..SENDS {
                        match link.recv(DATA_TAG_MIN + i as u32, None) {
                            Ok(got) if got[..] != sent[..] => corrupts += 1,
                            Ok(_) => {}
                            Err(TransportError::Timeout { .. }) => drops += 1,
                            Err(e) => panic!("only a drop fails a receive: {e}"),
                        }
                    }
                }
                (drops, corrupts)
            }));
        }
        for h in handles {
            let (d, c) = h.join().expect("no rank panicked");
            drops += d;
            corrupts += c;
        }
    });
    drop(guard);
    let trace = recorder.take();
    assert!(trace.check_well_formed().is_ok());

    let total_sends = RANKS * (RANKS - 1) * SENDS;
    assert!(drops > 0 && corrupts > 0, "seed 7 must exercise every fault kind: {drops} drops, {corrupts} corrupts");

    let merged = eth_obs::MergedTrace::build(trace);
    // Balanced books: every send attempt is exactly one of matched or
    // dangling-out. Nothing arrives unsent.
    assert_eq!(merged.matched.len() + merged.dangling_out as usize, total_sends);
    assert_eq!(merged.dangling_in, 0);
    // Dropped sends can never pair; corrupt ones all did, so the
    // dangling count is exactly the drop count.
    assert_eq!(merged.dangling_out as usize, drops);

    // The export draws one complete arrow per matched pair — begins and
    // ends always balance, whatever the faults did.
    let chrome = merged.to_chrome_trace();
    assert_eq!(chrome.matches("\"ph\":\"s\"").count(), merged.matched.len());
    assert_eq!(chrome.matches("\"ph\":\"f\"").count(), merged.matched.len());
    for f in &merged.matched {
        assert!(f.dst.ts_ns >= f.src.ts_ns, "arrow points backwards");
    }
}
