//! Recording machinery: phases, RAII spans, thread-local ring buffers,
//! recorders, and cross-thread context propagation.

use crate::Trace;
use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Sentinel rank for records from threads that never declared one
/// (the campaign scheduler, cache fills on the caller thread, …).
pub const NO_RANK: u32 = u32::MAX;

/// Ring-buffer capacity per thread: records buffered locally before a
/// drain into the attached recorders. The buffer grows to it as records
/// arrive, so a thread that records a few spans holds a few hundred
/// bytes; 2048 × 56 B = 112 KiB stays under the 128 KiB at which the
/// allocator maps a request, so even a busy thread's ring is not a mapped
/// and faulted allocation per thread per frame.
const RING: usize = 2048;
const _: () = assert!(RING * std::mem::size_of::<Record>() < 128 << 10);

/// The span taxonomy — every instrumented stretch of the pipeline.
///
/// One flat enum rather than free-form strings: phases are compared and
/// aggregated on hot paths, and the closed set documents exactly what the
/// flight recorder can see (DESIGN.md §11).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Proxy staging: generating/loading simulation data before a run.
    Stage,
    /// Simulation proxy stepping: one span per `SimulationProxy::step`
    /// call of the step loop.
    Sim,
    /// Dataset pack/encode on the send side.
    Encode,
    /// Dataset decode/verify on the receive side.
    Decode,
    /// Transport send (enqueue/write).
    Send,
    /// Transport receive (blocking wait included).
    Recv,
    /// Rendering one algorithm over one block.
    Render,
    /// Acceleration-structure construction (HLBVH / median-split build).
    BvhBuild,
    /// One framebuffer tile rendered as a work unit (nested under Render).
    Tile,
    /// Image compositing across ranks.
    Composite,
    /// Journal append + fsync.
    JournalAppend,
    /// Staging/baseline cache lookup (blocking on the memo slot included).
    CacheLookup,
    /// Campaign scheduler queue wait (weighted-semaphore acquire).
    QueueWait,
    /// Retry/backoff sleeps (campaign retries, bootstrap polling).
    Backoff,
    /// Connection bootstrap (layout polling + dial, internode runs).
    Bootstrap,
    /// In-run recovery: detecting a dead rank and adopting its partition.
    Recovery,
}

impl Phase {
    /// Stable lowercase name used in trace exports and counter keys.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Stage => "stage",
            Phase::Sim => "sim",
            Phase::Encode => "encode",
            Phase::Decode => "decode",
            Phase::Send => "send",
            Phase::Recv => "recv",
            Phase::Render => "render",
            Phase::BvhBuild => "bvh_build",
            Phase::Tile => "tile",
            Phase::Composite => "composite",
            Phase::JournalAppend => "journal_append",
            Phase::CacheLookup => "cache_lookup",
            Phase::QueueWait => "queue_wait",
            Phase::Backoff => "backoff",
            Phase::Bootstrap => "bootstrap",
            Phase::Recovery => "recovery",
        }
    }
}

/// Identity of one cross-thread/cross-rank message, propagated on the
/// wire (16 bytes: two little-endian `u64`s) so the send side and the
/// receive side of one transfer can be stitched into a flow arrow.
///
/// `trace_id` is process-stable (every context minted by this process
/// shares it, and it is odd, so a context is never all zero); `span_id`
/// is unique per minted context. A context is only minted while recording
/// is enabled — [`flow_context`] returns `None` on the disabled path, and
/// a socket frame then carries a zero context word.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanContext {
    pub trace_id: u64,
    pub span_id: u64,
}

impl SpanContext {
    /// Wire form: `trace_id` then `span_id`, both little-endian.
    pub fn to_bytes(self) -> [u8; 16] {
        let mut out = [0u8; 16];
        out[..8].copy_from_slice(&self.trace_id.to_le_bytes());
        out[8..].copy_from_slice(&self.span_id.to_le_bytes());
        out
    }

    pub fn from_bytes(bytes: [u8; 16]) -> SpanContext {
        SpanContext {
            trace_id: u64::from_le_bytes(bytes[..8].try_into().unwrap()),
            span_id: u64::from_le_bytes(bytes[8..].try_into().unwrap()),
        }
    }
}

/// Which end of a transfer a [`FlowRecord`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowDir {
    /// Recorded inside the Send span, at the moment the payload left.
    Out,
    /// Recorded inside the Recv span, at the moment the payload matched.
    In,
}

/// One end of a matched (or dangling) message flow. A transfer that
/// completes produces exactly one `Out` and one `In` with the same
/// [`SpanContext`]; a dropped message leaves a dangling `Out`, which the
/// merge layer counts instead of drawing a broken arrow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowRecord {
    pub ctx: SpanContext,
    pub dir: FlowDir,
    /// The rank on the other end of the wire (the true peer, even under
    /// chaos wrappers), or [`NO_RANK`] when unknown.
    pub peer: u32,
    /// Transport tag the payload travelled under.
    pub tag: u32,
    pub ts_ns: u64,
    pub rank: u32,
    pub thread: u32,
    pub bytes: u64,
}

/// One closed span: recorded at close, so it is well formed by
/// construction (no dangling opens, no cross-thread close).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanRecord {
    pub phase: Phase,
    /// Start, nanoseconds since the process trace epoch.
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Declaring rank, or [`NO_RANK`].
    pub rank: u32,
    /// Process-unique thread id (dense, assigned on first record).
    pub thread: u32,
    /// Payload bytes attributed to the span (0 when not applicable).
    pub bytes: u64,
}

impl SpanRecord {
    pub fn end_ns(&self) -> u64 {
        self.start_ns.saturating_add(self.dur_ns)
    }
}

/// Everything the recorder can hold: spans, point events, counter bumps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Record {
    Span(SpanRecord),
    Instant {
        name: &'static str,
        ts_ns: u64,
        rank: u32,
        thread: u32,
    },
    Count {
        name: &'static str,
        ts_ns: u64,
        value: f64,
    },
    /// One end of a cross-thread message transfer (see [`FlowRecord`]).
    Flow(FlowRecord),
    /// A step boundary: the moment step `step` finished compositing on
    /// the root rank. Critical-path attribution windows the trace on
    /// these marks.
    Step {
        step: u64,
        ts_ns: u64,
        rank: u32,
        thread: u32,
    },
}

// ---------------------------------------------------------------------------
// Global state: enablement count and trace epoch.
// ---------------------------------------------------------------------------

/// Number of live thread attachments process-wide. Zero ⇒ spans are
/// disarmed at the single-load fast path.
static ENABLED: AtomicUsize = AtomicUsize::new(0);
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

fn epoch() -> &'static Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process trace epoch (monotonic).
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

#[inline(always)]
fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed) != 0
}

// ---------------------------------------------------------------------------
// Thread-local state.
// ---------------------------------------------------------------------------

struct TlState {
    thread: u32,
    rank: u32,
    sinks: Vec<Recorder>,
    buf: Vec<Record>,
}

impl TlState {
    fn new() -> TlState {
        TlState {
            thread: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
            rank: NO_RANK,
            sinks: Vec::new(),
            buf: Vec::new(),
        }
    }

    fn flush(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        for sink in &self.sinks {
            sink.extend(&self.buf);
        }
        self.buf.clear();
    }

    fn push(&mut self, record: Record) {
        if self.sinks.is_empty() {
            return; // armed by some other thread's recorder — not ours
        }
        self.buf.push(record);
        if self.buf.len() >= RING {
            self.flush();
        }
    }
}

impl Drop for TlState {
    fn drop(&mut self) {
        // Thread exit: drain whatever the ring still holds.
        self.flush();
    }
}

thread_local! {
    static STATE: RefCell<TlState> = RefCell::new(TlState::new());
}

fn with_state<R>(f: impl FnOnce(&mut TlState) -> R) -> Option<R> {
    STATE.try_with(|s| f(&mut s.borrow_mut())).ok()
}

/// Flush the calling thread's ring buffer into its sinks.
fn flush_current_thread() {
    with_state(|s| s.flush());
}

/// Declare the calling thread's rank; subsequent records carry it.
/// Rank threads call this right after spawn (`run_ranks` does it for
/// every body it supervises).
pub fn set_rank(rank: usize) {
    if !enabled() {
        return;
    }
    with_state(|s| s.rank = rank.min(NO_RANK as usize - 1) as u32);
}

// ---------------------------------------------------------------------------
// Recorder + attachments.
// ---------------------------------------------------------------------------

/// A sink that collects records from every thread it is attached to.
/// Cheap to clone (shared handle).
#[derive(Clone, Default)]
pub struct Recorder {
    inner: Arc<Mutex<Vec<Record>>>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder::default()
    }

    fn same_as(&self, other: &Recorder) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    fn extend(&self, records: &[Record]) {
        self.inner.lock().unwrap().extend_from_slice(records);
    }

    /// Attach to the calling thread: records from this thread drain into
    /// the recorder until the returned guard drops.
    pub fn attach(&self) -> Attachment {
        with_state(|s| {
            s.flush(); // older records belong to the previous sink set
            s.sinks.push(self.clone());
        });
        ENABLED.fetch_add(1, Ordering::Relaxed);
        Attachment {
            recorder: self.clone(),
            _not_send: PhantomData,
        }
    }

    /// Drain everything recorded so far into a [`Trace`], leaving the
    /// recorder attached and empty. Flushes the calling thread's buffer;
    /// other still-attached threads flush on ring overflow or detach.
    pub fn take(&self) -> Trace {
        flush_current_thread();
        Trace {
            records: std::mem::take(&mut *self.inner.lock().unwrap()),
        }
    }
}

/// RAII guard for a thread attachment. Dropping flushes the thread's
/// buffer and removes the recorder from the thread's sink stack. Not
/// `Send`: it must drop on the thread that attached.
pub struct Attachment {
    recorder: Recorder,
    _not_send: PhantomData<*mut ()>,
}

impl Drop for Attachment {
    fn drop(&mut self) {
        with_state(|s| {
            s.flush();
            if let Some(pos) = s.sinks.iter().rposition(|r| r.same_as(&self.recorder)) {
                s.sinks.remove(pos);
            }
        });
        ENABLED.fetch_sub(1, Ordering::Relaxed);
    }
}

/// A portable snapshot of the calling thread's sink stack, for handing
/// to spawned threads (`Send + Clone`). `run_ranks` captures one before
/// spawning and attaches it inside every rank body, so per-run and
/// campaign recorders see rank-thread spans without global state.
#[derive(Clone, Default)]
pub struct Context {
    sinks: Vec<Recorder>,
}

/// Capture the calling thread's attachments as a [`Context`].
pub fn current_context() -> Context {
    if !enabled() {
        return Context::default();
    }
    Context {
        sinks: with_state(|s| s.sinks.clone()).unwrap_or_default(),
    }
}

impl Context {
    /// Attach every captured recorder to the calling thread; detaches
    /// (and flushes) when the guard drops.
    pub fn attach(&self) -> ContextGuard {
        ContextGuard {
            _attachments: self.sinks.iter().map(|r| r.attach()).collect(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.sinks.is_empty()
    }
}

/// RAII guard bundling the attachments made by [`Context::attach`].
pub struct ContextGuard {
    _attachments: Vec<Attachment>,
}

// ---------------------------------------------------------------------------
// Span guards + point events.
// ---------------------------------------------------------------------------

/// An in-flight phase span; records itself on drop. Disarmed (and free)
/// when no recorder is live anywhere in the process.
#[must_use = "a span measures the scope it is alive for"]
pub struct Span {
    phase: Phase,
    start_ns: u64,
    bytes: u64,
    armed: bool,
    _not_send: PhantomData<*mut ()>,
}

/// Open a span for `phase` on the calling thread.
#[inline]
pub fn span(phase: Phase) -> Span {
    span_bytes(phase, 0)
}

/// Open a span carrying a payload-size attribution.
#[inline]
pub fn span_bytes(phase: Phase, bytes: u64) -> Span {
    if !enabled() {
        return Span {
            phase,
            start_ns: 0,
            bytes: 0,
            armed: false,
            _not_send: PhantomData,
        };
    }
    Span {
        phase,
        start_ns: now_ns(),
        bytes,
        armed: true,
        _not_send: PhantomData,
    }
}

impl Span {
    /// Attribute payload bytes discovered mid-span (e.g. after encoding).
    pub fn set_bytes(&mut self, bytes: u64) {
        self.bytes = bytes;
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let dur_ns = now_ns().saturating_sub(self.start_ns);
        let (phase, start_ns, bytes) = (self.phase, self.start_ns, self.bytes);
        with_state(|s| {
            let record = Record::Span(SpanRecord {
                phase,
                start_ns,
                dur_ns,
                rank: s.rank,
                thread: s.thread,
                bytes,
            });
            s.push(record);
        });
    }
}

/// Record a point event (ph "i" in the Chrome trace).
pub fn instant(name: &'static str) {
    if !enabled() {
        return;
    }
    let ts_ns = now_ns();
    with_state(|s| {
        let record = Record::Instant {
            name,
            ts_ns,
            rank: s.rank,
            thread: s.thread,
        };
        s.push(record);
    });
}

/// Record a named counter increment (aggregated by trace consumers).
pub fn count(name: &'static str, value: f64) {
    if !enabled() {
        return;
    }
    let ts_ns = now_ns();
    with_state(|s| s.push(Record::Count { name, ts_ns, value }));
}

static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

fn process_trace_id() -> u64 {
    static TRACE_ID: OnceLock<u64> = OnceLock::new();
    *TRACE_ID.get_or_init(|| {
        // Stable for the process, distinct across processes with high
        // probability: hash the epoch instant's address and the first
        // observed monotonic reading.
        let addr = epoch() as *const Instant as u64;
        (addr.rotate_left(17) ^ now_ns()) | 1
    })
}

/// Mint a fresh wire context for an outgoing message — or `None` when
/// recording is disabled. The disabled path is the usual single relaxed
/// load.
#[inline]
pub fn flow_context() -> Option<SpanContext> {
    if !enabled() {
        return None;
    }
    Some(SpanContext {
        trace_id: process_trace_id(),
        span_id: NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed),
    })
}

/// Record the send end of a transfer. Call inside the Send span, at the
/// moment the payload actually leaves (after any chaos drop decision).
pub fn flow_out(ctx: SpanContext, peer: usize, tag: u32, bytes: u64) {
    flow_record(ctx, FlowDir::Out, peer, tag, bytes);
}

/// Record the receive end of a transfer. Call on the consuming thread at
/// the match point, inside the Recv span.
pub fn flow_in(ctx: SpanContext, peer: usize, tag: u32, bytes: u64) {
    flow_record(ctx, FlowDir::In, peer, tag, bytes);
}

fn flow_record(ctx: SpanContext, dir: FlowDir, peer: usize, tag: u32, bytes: u64) {
    if !enabled() {
        return;
    }
    let ts_ns = now_ns();
    let peer = peer.min(NO_RANK as usize) as u32;
    with_state(|s| {
        s.push(Record::Flow(FlowRecord {
            ctx,
            dir,
            peer,
            tag,
            ts_ns,
            rank: s.rank,
            thread: s.thread,
            bytes,
        }));
    });
}

/// Record a step boundary (the root rank finished compositing `step`).
pub fn step_mark(step: u64) {
    if !enabled() {
        return;
    }
    let ts_ns = now_ns();
    with_state(|s| {
        s.push(Record::Step {
            step,
            ts_ns,
            rank: s.rank,
            thread: s.thread,
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn disabled_span_records_nothing() {
        let r = Recorder::new();
        {
            let _s = span(Phase::Render); // recorder not attached
        }
        assert_eq!(r.take().records.len(), 0);
    }

    #[test]
    fn attached_recorder_sees_nested_spans() {
        let r = Recorder::new();
        {
            let _a = r.attach();
            let _outer = span_bytes(Phase::Encode, 128);
            {
                let _inner = span(Phase::Send);
            }
        }
        let t = r.take();
        let spans: Vec<_> = t.spans().collect();
        assert_eq!(spans.len(), 2);
        // recorded on close: inner closes first
        assert_eq!(spans[0].phase, Phase::Send);
        assert_eq!(spans[1].phase, Phase::Encode);
        assert_eq!(spans[1].bytes, 128);
        assert!(spans[1].start_ns <= spans[0].start_ns);
        assert!(spans[1].end_ns() >= spans[0].end_ns());
        t.check_well_formed().unwrap();
    }

    #[test]
    fn ring_buffer_drains_on_overflow_and_detach() {
        let r = Recorder::new();
        let _a = r.attach();
        for _ in 0..(RING + 10) {
            let _s = span(Phase::Recv);
        }
        // overflow flush already moved a full ring into the recorder
        assert_eq!(r.inner.lock().unwrap().len(), RING);
        drop(_a);
        assert_eq!(r.take().records.len(), RING + 10);
    }

    #[test]
    fn context_propagates_to_spawned_threads_with_ranks() {
        let r = Recorder::new();
        {
            let _a = r.attach();
            let ctx = current_context();
            let handles: Vec<_> = (0..3)
                .map(|rank| {
                    let ctx = ctx.clone();
                    thread::spawn(move || {
                        let _g = ctx.attach();
                        set_rank(rank);
                        let _s = span(Phase::Render);
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        }
        let t = r.take();
        let mut ranks: Vec<u32> = t.spans().map(|s| s.rank).collect();
        ranks.sort_unstable();
        assert_eq!(ranks, vec![0, 1, 2]);
        let threads: std::collections::HashSet<u32> = t.spans().map(|s| s.thread).collect();
        assert_eq!(threads.len(), 3, "each rank thread gets its own id");
        t.check_well_formed().unwrap();
    }

    #[test]
    fn take_leaves_recorder_attached() {
        let r = Recorder::new();
        let _a = r.attach();
        {
            let _s = span(Phase::Stage);
        }
        assert_eq!(r.take().records.len(), 1);
        {
            let _s = span(Phase::Stage);
        }
        assert_eq!(r.take().records.len(), 1, "second drain sees new span");
    }
}
