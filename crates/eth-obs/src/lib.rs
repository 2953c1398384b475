//! Flight recorder: low-overhead structured tracing for the ETH harness.
//!
//! The paper's whole argument rests on *measurement* — execution time,
//! sampled power, energy, hardware counters per run (Section V). This
//! crate gives the native harness the introspection layer those numbers
//! need to be explainable: RAII phase spans and point events, stamped
//! with a monotonic nanosecond clock, a per-thread id, and (when a rank
//! thread declares one) a rank id.
//!
//! Design constraints, in order:
//!
//! 1. **Near-no-op when disabled.** A span open/close with no recorder
//!    attached anywhere in the process is one relaxed atomic load and an
//!    early return — no allocation, no lock, no timestamp read. The
//!    overhead guard in `benches/obs_overhead.rs` and the counting-
//!    allocator test in `tests/obs_alloc.rs` hold this line.
//! 2. **Thread-local buffering.** Enabled threads append records to a
//!    thread-local ring buffer (one `Vec` reused for the thread's life)
//!    and drain it into the attached [`Recorder`]s only when the buffer
//!    fills or the attachment ends — the hot path never takes the
//!    registry lock. Every sink is an attachment (a [`Context`] carries
//!    it to spawned threads); there is no process-global recorder, so a
//!    thread with no sink drops its records at the first check.
//! 3. **Well-formed by construction.** Spans are recorded on close
//!    (start + duration in one record), so every close trivially matches
//!    an open and records from different threads cannot interleave into
//!    a corrupt nesting — [`Trace::check_well_formed`] verifies the
//!    invariant that survives: per-thread spans are properly nested.
//!
//! Consumers: [`Trace`]'s per-phase busy time for power attribution
//! (`eth-core::harness`) and histogram feeds for campaign telemetry
//! (`eth-core::telemetry`), and [`MergedTrace`], which stitches flows,
//! walks the critical path and writes the one export format, a
//! Perfetto-loadable Chrome trace-event JSON (`reproduce … --trace
//! out.json`, `eth serve`'s `/trace`).

pub mod merge;
mod span;
mod trace;

pub use merge::{CriticalPathSummary, MergedTrace, PhaseShare, RankShare};
pub use span::{
    count, current_context, flow_context, flow_in, flow_out, instant, now_ns, set_rank, span,
    span_bytes, step_mark, Attachment, Context, ContextGuard, FlowDir, FlowRecord, Phase, Record,
    Recorder, Span, SpanContext, SpanRecord, NO_RANK,
};
pub use trace::Trace;
