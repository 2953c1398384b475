//! Property test: any program of nested spans, instants, and counts —
//! across any number of rank threads — produces a trace that is
//! well-formed, complete (nothing lost in the thread-local buffers), and
//! exportable as parseable Chrome trace JSON.

use proptest::prelude::*;

const PHASES: [eth_obs::Phase; 4] = [
    eth_obs::Phase::Stage,
    eth_obs::Phase::Render,
    eth_obs::Phase::Encode,
    eth_obs::Phase::Send,
];

/// One generated op: `(phase index, kind)` where kind 0 opens a span
/// (nesting everything after it, up to a depth cap), 1 emits an instant,
/// 2 bumps a counter.
type Op = (usize, u8);

fn run_program(depth: usize, ops: &mut std::slice::Iter<'_, Op>) {
    while let Some(&(phase_i, kind)) = ops.next() {
        match kind % 3 {
            0 => {
                let _s = eth_obs::span(PHASES[phase_i % PHASES.len()]);
                if depth < 5 {
                    run_program(depth + 1, ops);
                }
            }
            1 => eth_obs::instant("event"),
            _ => eth_obs::count("bumps", 1.0),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn any_span_program_yields_a_well_formed_trace(
        ops in prop::collection::vec((0usize..4, 0u8..3), 0..60),
        ranks in 1usize..4,
    ) {
        let recorder = eth_obs::Recorder::new();
        let guard = recorder.attach();
        let ctx = eth_obs::current_context();
        std::thread::scope(|scope| {
            for rank in 0..ranks {
                let ctx = ctx.clone();
                let ops = &ops;
                scope.spawn(move || {
                    let _obs = ctx.attach();
                    eth_obs::set_rank(rank);
                    run_program(0, &mut ops.iter());
                });
            }
        });
        drop(guard);
        let trace = recorder.take();

        prop_assert!(trace.check_well_formed().is_ok(),
            "{:?}", trace.check_well_formed());

        // Nothing lost: every op from every rank thread is in the trace.
        let per_thread_spans = ops.iter().filter(|&&(_, k)| k % 3 == 0).count();
        let per_thread_counts = ops.iter().filter(|&&(_, k)| k % 3 == 2).count();
        prop_assert_eq!(trace.spans().count(), per_thread_spans * ranks);
        let counted = trace.counts().get("bumps").copied().unwrap_or(0.0);
        prop_assert_eq!(counted as usize, per_thread_counts * ranks);

        // Every span carries the rank its thread declared.
        for s in trace.spans() {
            prop_assert!((s.rank as usize) < ranks, "rank {}", s.rank);
        }

        // The Chrome export is valid JSON whatever the program was.
        let chrome = eth_obs::MergedTrace::build(trace).to_chrome_trace();
        prop_assert!(serde_json::parse_value_complete(&chrome).is_ok());
    }
}
