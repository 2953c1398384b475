//! Flow stitching under injected faults: a chaos plan that drops,
//! corrupts, and delays messages must still produce a stitched trace
//! whose accounting balances — every send attempt is either a matched
//! flow or a counted dangling flow-out, never a mismatched arrow and
//! never a panic.

use bytes::Bytes;
use eth_transport::chaos::ChaosLink;
use eth_transport::comm::Communicator;
use eth_transport::fault::{FaultKind, FaultPlan, DATA_TAG_MIN};
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
        delay_prob: 0.2,
        delay_ms: 1,
        recv_deadline_ms: 250,
        ..FaultPlan::default()
    };

    let recorder = eth_obs::Recorder::new();
    let guard = recorder.attach();
    let ctx = eth_obs::current_context();

    // every rank holds a wrapped pair link to each of its peers
    let comms = LocalFabric::new(RANKS);
    let mut logs = Vec::new();
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
                // pairs its flow) before failing integrity.
                for link in &links {
                    for i in 0..SENDS {
                        let _ = link.recv(DATA_TAG_MIN + i as u32, None);
                    }
                }
                links.iter().flat_map(ChaosLink::fault_log).collect::<Vec<_>>()
            }));
        }
        for h in handles {
            logs.extend(h.join().expect("no rank panicked"));
        }
    });
    drop(guard);
    let trace = recorder.take();
    assert!(trace.check_well_formed().is_ok());

    let total_sends = RANKS * (RANKS - 1) * SENDS;
    let drops = logs.iter().filter(|e| e.kind == FaultKind::Drop).count();
    let corrupts = logs.iter().filter(|e| e.kind == FaultKind::Corrupt).count();
    let delays = logs.iter().filter(|e| e.kind == FaultKind::Delay).count();
    assert!(drops > 0 && corrupts > 0 && delays > 0, "seed 7 must exercise every fault kind: {drops} drops, {corrupts} corrupts, {delays} delays");

    let merged = eth_obs::MergedTrace::build(trace);
    // Balanced books: every send attempt is exactly one of matched or
    // dangling-out. Nothing arrives unsent.
    assert_eq!(merged.matched.len() + merged.dangling_out as usize, total_sends);
    assert_eq!(merged.dangling_in, 0);
    // Dropped sends can never pair; corrupt and delayed ones all did
    // (the deadline is far above the injected delay), so the dangling
    // count is exactly the drop count.
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
