//! Property test: any interleaving of rank threads exchanging flow
//! contexts — including dropped messages — merges into a well-formed
//! stitched trace: every delivered message becomes exactly one flow
//! arrow with both endpoints, every dropped one is counted dangling,
//! arrows never point backwards, and the Chrome-JSON export embeds the
//! critical path that was walked, exactly when there is one.

use proptest::prelude::*;
use serde::Deserialize;
use std::sync::mpsc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn any_rank_interleaving_merges_well_formed(
        // One entry per message: (src pick, dst pick, kind). kind == 0
        // drops the message in flight (flow-out recorded, never
        // delivered); anything else delivers it.
        msgs in prop::collection::vec((0usize..8, 0usize..8, 0u8..4), 0..40),
        ranks in 2usize..5,
        steps in 0usize..4,
    ) {
        let msgs: Vec<(usize, usize, bool)> = msgs
            .iter()
            .map(|&(s, d, k)| (s % ranks, d % ranks, k == 0))
            .collect();
        let dropped = msgs.iter().filter(|m| m.2).count();
        let delivered = msgs.len() - dropped;

        let recorder = eth_obs::Recorder::new();
        let guard = recorder.attach();
        let ctx = eth_obs::current_context();

        // One unbounded inbox per rank; a "delivery" hands the wire
        // context across threads exactly like a transport frame does.
        let mut txs = Vec::with_capacity(ranks);
        let mut rxs = Vec::with_capacity(ranks);
        for _ in 0..ranks {
            let (tx, rx) = mpsc::channel::<(eth_obs::SpanContext, usize)>();
            txs.push(tx);
            rxs.push(Some(rx));
        }
        std::thread::scope(|scope| {
            for (rank, rx_slot) in rxs.iter_mut().enumerate() {
                let ctx = ctx.clone();
                let txs = txs.clone();
                let rx = rx_slot.take().expect("each rank taken once");
                let msgs = &msgs;
                scope.spawn(move || {
                    let _obs = ctx.attach();
                    eth_obs::set_rank(rank);
                    for &(src, dst, drop_it) in msgs.iter().filter(|m| m.0 == rank) {
                        let _s = eth_obs::span_bytes(eth_obs::Phase::Send, 8);
                        let c = eth_obs::flow_context().expect("recorder attached");
                        eth_obs::flow_out(c, dst, 7, 8);
                        if !drop_it {
                            let _ = txs[dst].send((c, src));
                        }
                    }
                    // Sends done: release our clones so every receiver's
                    // loop terminates once all threads finish sending.
                    drop(txs);
                    for (c, src) in rx {
                        let _s = eth_obs::span(eth_obs::Phase::Recv);
                        eth_obs::flow_in(c, src, 7, 8);
                    }
                    if rank == 0 {
                        for step in 0..steps {
                            let _s = eth_obs::span(eth_obs::Phase::Render);
                            drop(_s);
                            eth_obs::step_mark(step as u64);
                        }
                    }
                });
            }
            drop(txs);
        });
        drop(guard);
        let trace = recorder.take();
        prop_assert!(trace.check_well_formed().is_ok());

        let merged = eth_obs::MergedTrace::build(trace);
        prop_assert_eq!(merged.matched.len(), delivered);
        prop_assert_eq!(merged.dangling_out as usize, dropped);
        prop_assert_eq!(merged.dangling_in, 0);
        for f in &merged.matched {
            // Clamped monotonic: an arrow can never point backwards,
            // whatever the thread interleaving did to the clocks.
            prop_assert!(f.dst.ts_ns >= f.src.ts_ns);
        }

        // Exactly one begin and one end per matched flow, never a
        // half-drawn arrow.
        let chrome = merged.to_chrome_trace();
        prop_assert_eq!(chrome.matches("\"ph\":\"s\"").count(), delivered);
        prop_assert_eq!(chrome.matches("\"ph\":\"f\"").count(), delivered);

        // Critical path exists exactly when step marks do, and its
        // accounting tiles the windows: shares + idle == total.
        match &merged.critical_path {
            Some(cp) => {
                prop_assert!(steps > 0);
                prop_assert_eq!(cp.steps as usize, steps);
                let tiled = cp.share_sum() + cp.idle_s / cp.total_s.max(f64::MIN_POSITIVE);
                prop_assert!((tiled - 1.0).abs() < 1e-6, "tiled {}", tiled);
            }
            None => prop_assert_eq!(steps, 0),
        }

        // The export's `ethCriticalPath` block is the walked summary,
        // present exactly when the trace has step marks.
        let value = serde_json::parse_value_complete(&chrome)
            .map_err(|e| TestCaseError::fail(format!("chrome export unparseable: {e}")))?;
        let root = value.as_object().ok_or_else(|| TestCaseError::fail("root is not an object"))?;
        let embedded = serde::field(root, "ethCriticalPath")
            .map(eth_obs::CriticalPathSummary::deserialize_value)
            .transpose()
            .map_err(|e| TestCaseError::fail(format!("ethCriticalPath unreadable: {e}")))?;
        prop_assert_eq!(embedded.is_some(), steps > 0);
        prop_assert_eq!(embedded, merged.critical_path);
    }
}
