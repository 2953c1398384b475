//! Cross-rank trace stitching and critical-path attribution.
//!
//! A [`crate::Recorder`] already aggregates every thread's ring buffer
//! into one record stream, but the streams are causally disconnected: a
//! send that stalls on a slow receiver shows up as two unrelated gaps.
//! This module pairs the [`FlowRecord`]s the transports emit (one `Out`
//! inside each Send span, one `In` at the matching recv's match point)
//! into flow edges, exports one Perfetto-loadable trace with flow arrows
//! (`ph:"s"`/`ph:"f"`) — the crate's one trace writer; nothing reads a
//! trace back — and walks the per-step **critical path**: the
//! chain of spans — stage → sim → encode → send → recv → render →
//! composite — that bounds each step's latency, attributed per rank and
//! phase.
//!
//! The walk is a backward traversal from each step boundary mark (the
//! root rank stamps one after compositing, see [`crate::step_mark`]):
//! follow the covering top-level span on the current thread backwards;
//! when the covering span is a Recv with a matched flow, jump across the
//! edge to the sender's thread at the moment the payload left. Time not
//! covered by any span is charged to idle, so phase shares plus idle sum
//! exactly to the step window — the coverage number is honest, not
//! renormalized.
//!
//! Fault tolerance: a dropped message leaves a dangling `Out`, a
//! corrupted one still pairs (the payload did arrive before failing its
//! checksum); both are counted, never drawn as broken arrows, and the
//! walk simply declines a jump when no matched edge exists.

use crate::span::{FlowDir, FlowRecord, Phase, Record, SpanRecord, NO_RANK};
use crate::trace::Trace;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

/// One endpoint of a matched flow edge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowEnd {
    pub ts_ns: u64,
    pub rank: u32,
    pub thread: u32,
    pub tag: u32,
    pub bytes: u64,
}

/// A send/recv pair stitched by wire-propagated [`crate::SpanContext`].
/// `dst.ts_ns` is clamped to `>= src.ts_ns` so a cross-thread clock
/// wobble can never produce a backwards arrow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatchedFlow {
    /// The context's `span_id` — unique per message within a process.
    pub id: u64,
    pub src: FlowEnd,
    pub dst: FlowEnd,
}

/// Aggregate share of one phase on the critical path.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PhaseShare {
    pub phase: String,
    pub seconds: f64,
    /// Fraction of total step wall time (`seconds / total_s`).
    pub share: f64,
}

/// How often (and for how long) one rank bounded a step.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RankShare {
    /// [`NO_RANK`] collects under `u32::MAX` (harness threads).
    pub rank: u32,
    /// Steps this rank was the largest contributor to.
    pub steps_bounded: u64,
    /// Total seconds this rank spent on the critical path.
    pub seconds: f64,
}

/// Per-step critical-path attribution over a stitched trace.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CriticalPathSummary {
    /// Step windows walked.
    pub steps: u64,
    /// Total step wall time (sum of window durations), seconds.
    pub total_s: f64,
    /// Per-phase critical-path seconds + share, largest first.
    pub phases: Vec<PhaseShare>,
    /// Time on the path not covered by any span.
    pub idle_s: f64,
    /// `1 - idle_s / total_s`: how much of the step wall time the walk
    /// explained with actual spans. The CI gate holds this ≥ 0.9.
    pub coverage: f64,
    /// Which ranks bounded the steps, heaviest first.
    pub bounding_ranks: Vec<RankShare>,
    /// Per-step window durations, seconds (step order).
    pub step_s: Vec<f64>,
    /// Flow edges with exactly one recorded end (dropped or still
    /// in-flight messages).
    pub dangling_flows: u64,
}

impl CriticalPathSummary {
    /// Phase shares summed — equals `coverage` by construction.
    pub fn share_sum(&self) -> f64 {
        self.phases.iter().map(|p| p.share).sum()
    }
}

/// A trace with its flow edges paired and its critical path computed.
pub struct MergedTrace {
    pub trace: Trace,
    pub matched: Vec<MatchedFlow>,
    /// Send ends that never matched a receive (dropped messages).
    pub dangling_out: u64,
    /// Receive ends that never matched a send (shouldn't happen within
    /// one process; counted rather than trusted).
    pub dangling_in: u64,
    pub critical_path: Option<CriticalPathSummary>,
}

impl MergedTrace {
    /// Pair flows and compute the per-step critical path.
    pub fn build(trace: Trace) -> MergedTrace {
        let (matched, dangling_out, dangling_in) = pair_flows(&trace);
        let dangling = dangling_out + dangling_in;
        let critical_path = critical_path(&trace, &matched, dangling);
        MergedTrace {
            trace,
            matched,
            dangling_out,
            dangling_in,
            critical_path,
        }
    }

    /// Export as Chrome trace-event JSON (the `chrome://tracing` /
    /// Perfetto "JSON Array Format"), the one trace format: spans become
    /// complete ("X") events with `pid` = rank + 1 and `tid` = recorder
    /// thread id, instants and step marks "i", counts "C", plus one
    /// `ph:"s"` → `ph:"f"` flow arrow per matched send/recv pair, and an
    /// `ethFlowStats` / `ethCriticalPath` summary block that `reproduce
    /// trace-analyze` prints.
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::with_capacity(64 + self.trace.records.len() * 112);
        out.push_str("{\"traceEvents\":[");
        let mut first = true;
        let mut pids: BTreeMap<u32, &'static str> = BTreeMap::new();
        write_chrome_events(&self.trace, &mut out, &mut first, &mut pids);
        for f in &self.matched {
            let (src_pid, src_label) = pid_for(f.src.rank);
            let (dst_pid, dst_label) = pid_for(f.dst.rank);
            pids.entry(src_pid).or_insert(src_label);
            pids.entry(dst_pid).or_insert(dst_label);
            sep(&mut out, &mut first);
            let _ = write!(
                out,
                "{{\"name\":\"msg\",\"cat\":\"flow\",\"ph\":\"s\",\"id\":{},\
                 \"ts\":{:.3},\"pid\":{},\"tid\":{},\"args\":{{\"tag\":{},\"bytes\":{}}}}}",
                f.id,
                f.src.ts_ns as f64 / 1000.0,
                src_pid,
                f.src.thread,
                f.src.tag,
                f.src.bytes
            );
            sep(&mut out, &mut first);
            let _ = write!(
                out,
                "{{\"name\":\"msg\",\"cat\":\"flow\",\"ph\":\"f\",\"bp\":\"e\",\"id\":{},\
                 \"ts\":{:.3},\"pid\":{},\"tid\":{},\"args\":{{\"tag\":{},\"bytes\":{}}}}}",
                f.id,
                f.dst.ts_ns as f64 / 1000.0,
                dst_pid,
                f.dst.thread,
                f.dst.tag,
                f.dst.bytes
            );
        }
        write_process_names(&mut out, &mut first, &pids);
        let _ = write!(
            out,
            "\n],\"displayTimeUnit\":\"ms\",\
             \"ethFlowStats\":{{\"matched\":{},\"danglingOut\":{},\"danglingIn\":{}}}",
            self.matched.len(),
            self.dangling_out,
            self.dangling_in
        );
        if let Some(cp) = &self.critical_path {
            let _ = write!(out, ",\"ethCriticalPath\":{}", summary_json(cp));
        }
        out.push_str("}\n");
        out
    }
}

fn summary_json(cp: &CriticalPathSummary) -> String {
    serde_json::to_string(cp).unwrap_or_else(|_| "null".to_string())
}

/// Pair every `Out` with its `In` by span context. Clamps each matched
/// `dst` timestamp to `>= src` (monotonicity across threads), drops
/// nothing: unmatched ends are counted, duplicated contexts beyond the
/// first pair count as dangling too.
fn pair_flows(trace: &Trace) -> (Vec<MatchedFlow>, u64, u64) {
    struct Ends {
        out: Option<FlowRecord>,
        inn: Option<FlowRecord>,
        extra: u64,
    }
    let mut by_ctx: HashMap<(u64, u64), Ends> = HashMap::new();
    for f in trace.flows() {
        let e = by_ctx
            .entry((f.ctx.trace_id, f.ctx.span_id))
            .or_insert(Ends {
                out: None,
                inn: None,
                extra: 0,
            });
        let slot = match f.dir {
            FlowDir::Out => &mut e.out,
            FlowDir::In => &mut e.inn,
        };
        if slot.is_none() {
            *slot = Some(*f);
        } else {
            e.extra += 1;
        }
    }
    let mut matched = Vec::new();
    let (mut dangling_out, mut dangling_in) = (0u64, 0u64);
    for ((_, span_id), ends) in by_ctx {
        dangling_out += ends.extra;
        match (ends.out, ends.inn) {
            (Some(o), Some(i)) => matched.push(MatchedFlow {
                id: span_id,
                src: FlowEnd {
                    ts_ns: o.ts_ns,
                    rank: o.rank,
                    thread: o.thread,
                    tag: o.tag,
                    bytes: o.bytes,
                },
                dst: FlowEnd {
                    ts_ns: i.ts_ns.max(o.ts_ns),
                    rank: i.rank,
                    thread: i.thread,
                    tag: i.tag,
                    bytes: i.bytes,
                },
            }),
            (Some(_), None) => dangling_out += 1,
            (None, Some(_)) => dangling_in += 1,
            (None, None) => {}
        }
    }
    // Deterministic output order regardless of hash-map iteration.
    matched.sort_by_key(|f| (f.src.ts_ns, f.id));
    (matched, dangling_out, dangling_in)
}

/// Top-level spans per thread, sorted by start. Nested spans (Tile under
/// Render, …) are excluded so the walk charges each instant to exactly
/// one phase.
fn top_level_by_thread(trace: &Trace) -> HashMap<u32, Vec<SpanRecord>> {
    let mut by_thread: HashMap<u32, Vec<SpanRecord>> = HashMap::new();
    for s in trace.spans() {
        by_thread.entry(s.thread).or_default().push(*s);
    }
    for spans in by_thread.values_mut() {
        spans.sort_by(|a, b| a.start_ns.cmp(&b.start_ns).then(b.dur_ns.cmp(&a.dur_ns)));
        let mut cover_end = 0u64;
        spans.retain(|s| {
            if s.start_ns >= cover_end {
                cover_end = s.end_ns();
                true
            } else {
                false
            }
        });
    }
    by_thread
}

/// Walk the critical path backward through every step window. Returns
/// `None` when the trace carries no step marks (non-stepped workloads).
fn critical_path(
    trace: &Trace,
    matched: &[MatchedFlow],
    dangling: u64,
) -> Option<CriticalPathSummary> {
    let marks = step_mark_records(trace);
    if marks.is_empty() {
        return None;
    }
    let top = top_level_by_thread(trace);
    // Flow edges indexed by receiving thread, sorted by arrival time.
    let mut in_edges: HashMap<u32, Vec<&MatchedFlow>> = HashMap::new();
    for f in matched {
        in_edges.entry(f.dst.thread).or_default().push(f);
    }
    for edges in in_edges.values_mut() {
        edges.sort_by_key(|f| f.dst.ts_ns);
    }
    // The first step window opens when the first *rank* thread records a
    // span. Harness work before any rank exists (staging the dataset,
    // creating the layout file, spawning the threads themselves) is run
    // setup, not step work — charging it to step 0 as idle would punish
    // the window for time in which no rank could have made progress.
    let trace_start = trace
        .spans()
        .filter(|s| s.rank != NO_RANK)
        .map(|s| s.start_ns)
        .min()
        .or_else(|| trace.spans().map(|s| s.start_ns).min())
        .unwrap_or(marks[0].1);

    let mut phase_s: BTreeMap<Phase, f64> = BTreeMap::new();
    let mut rank_s: BTreeMap<u32, f64> = BTreeMap::new();
    let mut rank_bounds: BTreeMap<u32, u64> = BTreeMap::new();
    let mut idle_ns = 0u64;
    let mut total_ns = 0u64;
    let mut step_s = Vec::with_capacity(marks.len());

    let mut window_start = trace_start.min(marks[0].1);
    for &(thread, end_ts) in &marks {
        if end_ts <= window_start {
            continue; // duplicate or out-of-order mark: zero-width window
        }
        let window_ns = end_ts - window_start;
        total_ns += window_ns;
        step_s.push(window_ns as f64 * 1e-9);

        let mut window_rank_s: BTreeMap<u32, f64> = BTreeMap::new();
        let mut cur_thread = thread;
        let mut cur_ts = end_ts;
        // Bounded backward walk; the guard is far above any real chain
        // length and only protects against adversarial record streams.
        let mut guard = 4 * trace.records.len() + 64;
        while cur_ts > window_start && guard > 0 {
            guard -= 1;
            let spans = top.get(&cur_thread);
            let cover = spans.and_then(|v| covering(v, cur_ts));
            match cover {
                Some(s) => {
                    // At a Recv with a matched in-edge, the binding
                    // dependency is max(sender's flow-out, receiver's
                    // arrival at the recv): jump across the edge only
                    // when the sender was the later of the two. The Recv
                    // span absorbs the wire latency either way, so the
                    // charged segments tile the window with no holes.
                    let jump = if s.phase == Phase::Recv {
                        last_in_edge(&in_edges, cur_thread, s.start_ns, cur_ts)
                            .filter(|f| f.src.ts_ns > s.start_ns && f.src.ts_ns < cur_ts)
                    } else {
                        None
                    };
                    match jump {
                        Some(f) => {
                            let seg_start = f.src.ts_ns.clamp(window_start, cur_ts);
                            charge(
                                &mut phase_s,
                                &mut rank_s,
                                &mut window_rank_s,
                                s,
                                seg_start,
                                cur_ts,
                            );
                            cur_thread = f.src.thread;
                            cur_ts = f.src.ts_ns;
                        }
                        None => {
                            let seg_start = s.start_ns.max(window_start);
                            charge(
                                &mut phase_s,
                                &mut rank_s,
                                &mut window_rank_s,
                                s,
                                seg_start,
                                cur_ts,
                            );
                            cur_ts = s.start_ns;
                        }
                    }
                }
                None => {
                    // Gap: idle back to the previous span end (or the
                    // window start) on this thread.
                    let prev_end = spans
                        .map(|v| previous_end(v, cur_ts))
                        .unwrap_or(window_start)
                        .max(window_start);
                    idle_ns += cur_ts - prev_end;
                    cur_ts = prev_end;
                }
            }
        }
        if cur_ts > window_start {
            idle_ns += cur_ts - window_start; // guard tripped
        }
        if let Some((&rank, _)) = window_rank_s
            .iter()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
        {
            *rank_bounds.entry(rank).or_insert(0) += 1;
        }
        window_start = end_ts;
    }

    let total_s = total_ns as f64 * 1e-9;
    let idle_s = idle_ns as f64 * 1e-9;
    let mut phases: Vec<PhaseShare> = phase_s
        .into_iter()
        .map(|(p, s)| PhaseShare {
            phase: p.name().to_string(),
            seconds: s,
            share: if total_s > 0.0 { s / total_s } else { 0.0 },
        })
        .collect();
    phases.sort_by(|a, b| {
        b.seconds
            .partial_cmp(&a.seconds)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut bounding_ranks: Vec<RankShare> = rank_s
        .iter()
        .map(|(&rank, &seconds)| RankShare {
            rank,
            steps_bounded: rank_bounds.get(&rank).copied().unwrap_or(0),
            seconds,
        })
        .collect();
    bounding_ranks.sort_by(|a, b| {
        b.seconds
            .partial_cmp(&a.seconds)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let coverage = if total_s > 0.0 {
        (total_s - idle_s) / total_s
    } else {
        0.0
    };
    Some(CriticalPathSummary {
        steps: step_s.len() as u64,
        total_s,
        phases,
        idle_s,
        coverage,
        bounding_ranks,
        step_s,
        dangling_flows: dangling,
    })
}

/// `(thread, ts_ns)` of every step mark, sorted by timestamp.
fn step_mark_records(trace: &Trace) -> Vec<(u32, u64)> {
    let mut out: Vec<(u32, u64)> = trace
        .records
        .iter()
        .filter_map(|r| match r {
            Record::Step { ts_ns, thread, .. } => Some((*thread, *ts_ns)),
            _ => None,
        })
        .collect();
    out.sort_by_key(|&(_, ts)| ts);
    out
}

/// The top-level span on this thread covering `ts` (start < ts ≤ end).
fn covering(spans: &[SpanRecord], ts: u64) -> Option<&SpanRecord> {
    let idx = spans.partition_point(|s| s.start_ns < ts);
    if idx == 0 {
        return None;
    }
    let s = &spans[idx - 1];
    (s.end_ns() >= ts).then_some(s)
}

/// Latest span end ≤ `ts` on this thread (0 when none).
fn previous_end(spans: &[SpanRecord], ts: u64) -> u64 {
    let idx = spans.partition_point(|s| s.start_ns < ts);
    spans[..idx]
        .iter()
        .rev()
        .map(|s| s.end_ns())
        .find(|&end| end <= ts)
        .unwrap_or(0)
}

/// Latest matched in-edge on `thread` arriving within `[lo, hi]`.
fn last_in_edge<'a>(
    in_edges: &'a HashMap<u32, Vec<&'a MatchedFlow>>,
    thread: u32,
    lo: u64,
    hi: u64,
) -> Option<&'a MatchedFlow> {
    let edges = in_edges.get(&thread)?;
    let idx = edges.partition_point(|f| f.dst.ts_ns <= hi);
    edges[..idx].iter().rev().find(|f| f.dst.ts_ns >= lo).copied()
}

fn charge(
    phase_s: &mut BTreeMap<Phase, f64>,
    rank_s: &mut BTreeMap<u32, f64>,
    window_rank_s: &mut BTreeMap<u32, f64>,
    span: &SpanRecord,
    from_ns: u64,
    to_ns: u64,
) {
    if to_ns <= from_ns {
        return;
    }
    let dt = (to_ns - from_ns) as f64 * 1e-9;
    *phase_s.entry(span.phase).or_insert(0.0) += dt;
    *rank_s.entry(span.rank).or_insert(0.0) += dt;
    *window_rank_s.entry(span.rank).or_insert(0.0) += dt;
}

/// Write a trace's records as Chrome trace events (no envelope, no
/// process metadata: [`MergedTrace::to_chrome_trace`] writes those).
fn write_chrome_events(
    trace: &Trace,
    out: &mut String,
    first: &mut bool,
    pids: &mut BTreeMap<u32, &'static str>,
) {
    for r in &trace.records {
        match r {
            Record::Span(s) => {
                let (pid, label) = pid_for(s.rank);
                pids.entry(pid).or_insert(label);
                sep(out, first);
                let _ = write!(
                    out,
                    "{{\"name\":{},\"cat\":\"phase\",\"ph\":\"X\",\"ts\":{:.3},\
                     \"dur\":{:.3},\"pid\":{},\"tid\":{},\"args\":{{\"bytes\":{}}}}}",
                    json_str(s.phase.name()),
                    s.start_ns as f64 / 1000.0,
                    s.dur_ns as f64 / 1000.0,
                    pid,
                    s.thread,
                    s.bytes
                );
            }
            Record::Instant {
                name,
                ts_ns,
                rank,
                thread,
            } => {
                let (pid, label) = pid_for(*rank);
                pids.entry(pid).or_insert(label);
                sep(out, first);
                let _ = write!(
                    out,
                    "{{\"name\":{},\"cat\":\"event\",\"ph\":\"i\",\"ts\":{:.3},\
                     \"s\":\"t\",\"pid\":{},\"tid\":{}}}",
                    json_str(name),
                    *ts_ns as f64 / 1000.0,
                    pid,
                    thread
                );
            }
            Record::Count { name, ts_ns, value } => {
                sep(out, first);
                let _ = write!(
                    out,
                    "{{\"name\":{},\"cat\":\"counter\",\"ph\":\"C\",\"ts\":{:.3},\
                     \"pid\":0,\"tid\":0,\"args\":{{\"value\":{}}}}}",
                    json_str(name),
                    *ts_ns as f64 / 1000.0,
                    fmt_f64(*value)
                );
            }
            Record::Step {
                step,
                ts_ns,
                rank,
                thread,
            } => {
                let (pid, label) = pid_for(*rank);
                pids.entry(pid).or_insert(label);
                sep(out, first);
                let _ = write!(
                    out,
                    "{{\"name\":\"step\",\"cat\":\"event\",\"ph\":\"i\",\"ts\":{:.3},\
                     \"s\":\"t\",\"pid\":{},\"tid\":{},\"args\":{{\"step\":{}}}}}",
                    *ts_ns as f64 / 1000.0,
                    pid,
                    thread,
                    step
                );
            }
            // Flow endpoints only make sense once paired: the
            // exporter draws the matched arrows after the records.
            Record::Flow(_) => {}
        }
    }
}

/// Comma/newline separator between trace events.
fn sep(out: &mut String, first: &mut bool) {
    if !*first {
        out.push(',');
    }
    *first = false;
    out.push('\n');
}

/// Name the per-rank process rows so Perfetto's timeline reads "rank N"
/// instead of bare pids.
fn write_process_names(out: &mut String, first: &mut bool, pids: &BTreeMap<u32, &'static str>) {
    for (pid, label) in pids {
        sep(out, first);
        let name = if label.is_empty() {
            format!("rank {}", pid - 1)
        } else {
            label.to_string()
        };
        let _ = write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"tid\":0,\
             \"args\":{{\"name\":{}}}}}",
            pid,
            json_str(&name)
        );
    }
}

/// Rank → chrome pid. Rank r maps to pid r+1; records with no declared
/// rank (scheduler, cache fills, journal) collect under pid 0.
fn pid_for(rank: u32) -> (u32, &'static str) {
    if rank == NO_RANK {
        (0, "harness")
    } else {
        (rank + 1, "")
    }
}

/// Minimal JSON string encoder (names are controlled identifiers, but
/// escape defensively so the exporter can never emit invalid JSON).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON-safe float formatting (no NaN/inf literals).
fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanContext;

    fn span_rec(phase: Phase, start: u64, dur: u64, rank: u32, thread: u32) -> Record {
        Record::Span(SpanRecord {
            phase,
            start_ns: start,
            dur_ns: dur,
            rank,
            thread,
            bytes: 0,
        })
    }

    fn flow(dir: FlowDir, id: u64, ts: u64, rank: u32, thread: u32) -> Record {
        Record::Flow(FlowRecord {
            ctx: SpanContext {
                trace_id: 7,
                span_id: id,
            },
            dir,
            peer: 0,
            tag: 0x1000,
            ts_ns: ts,
            rank,
            thread,
            bytes: 64,
        })
    }

    fn step(ts: u64, thread: u32) -> Record {
        Record::Step {
            step: 0,
            ts_ns: ts,
            rank: 0,
            thread,
        }
    }

    /// Sender (rank 1, thread 1): Sim [0,400] then Send [400,600] with
    /// flow-out at 550. Receiver (rank 0, thread 0): Recv [100,700]
    /// matching at 650, Render [700,900], Composite [900,1000], step mark
    /// at 1000. The critical path must route through the sender.
    fn two_rank_trace() -> Trace {
        Trace {
            records: vec![
                span_rec(Phase::Sim, 0, 400, 1, 1),
                span_rec(Phase::Send, 400, 200, 1, 1),
                flow(FlowDir::Out, 42, 550, 1, 1),
                span_rec(Phase::Recv, 100, 600, 0, 0),
                flow(FlowDir::In, 42, 650, 0, 0),
                span_rec(Phase::Render, 700, 200, 0, 0),
                span_rec(Phase::Composite, 900, 100, 0, 0),
                step(1000, 0),
            ],
        }
    }

    #[test]
    fn flows_pair_with_true_peers_and_clamped_timestamps() {
        let m = MergedTrace::build(two_rank_trace());
        assert_eq!(m.matched.len(), 1);
        assert_eq!(m.dangling_out, 0);
        assert_eq!(m.dangling_in, 0);
        let f = &m.matched[0];
        assert_eq!(f.id, 42);
        assert_eq!((f.src.rank, f.dst.rank), (1, 0));
        assert!(f.dst.ts_ns >= f.src.ts_ns);
    }

    #[test]
    fn non_monotonic_flow_timestamps_are_clamped() {
        let t = Trace {
            records: vec![
                flow(FlowDir::Out, 9, 500, 1, 1),
                flow(FlowDir::In, 9, 450, 0, 0), // arrives "before" it left
            ],
        };
        let m = MergedTrace::build(t);
        assert_eq!(m.matched.len(), 1);
        assert_eq!(m.matched[0].dst.ts_ns, 500, "clamped up to the send");
    }

    #[test]
    fn dangling_flows_are_counted_not_drawn() {
        let t = Trace {
            records: vec![
                flow(FlowDir::Out, 1, 100, 0, 0), // dropped on the wire
                flow(FlowDir::Out, 2, 200, 0, 0),
                flow(FlowDir::In, 2, 300, 1, 1),
                flow(FlowDir::In, 3, 400, 1, 1), // orphan receive
            ],
        };
        let m = MergedTrace::build(t);
        assert_eq!(m.matched.len(), 1);
        assert_eq!(m.dangling_out, 1);
        assert_eq!(m.dangling_in, 1);
        let json = m.to_chrome_trace();
        let v = serde_json::parse_value_complete(&json).expect("valid JSON");
        let root = v.as_object().unwrap();
        let events = serde::field(root, "traceEvents").unwrap().as_array().unwrap();
        let arrows: Vec<&str> = events
            .iter()
            .filter_map(|e| {
                let f = e.as_object()?;
                let ph = serde::field(f, "ph")?.as_str()?;
                matches!(ph, "s" | "f").then_some(ph)
            })
            .collect();
        assert_eq!(arrows.iter().filter(|p| **p == "s").count(), 1);
        assert_eq!(arrows.iter().filter(|p| **p == "f").count(), 1);
    }

    #[test]
    fn critical_path_crosses_the_flow_edge_to_the_sender() {
        let m = MergedTrace::build(two_rank_trace());
        let cp = m.critical_path.expect("step mark present");
        assert_eq!(cp.steps, 1);
        assert!((cp.total_s - 1000e-9).abs() < 1e-15);
        let sec = |name: &str| {
            cp.phases
                .iter()
                .find(|p| p.phase == name)
                .map(|p| p.seconds)
                .unwrap_or(0.0)
        };
        // Backward from 1000: composite 100ns, render 200ns, recv from
        // the flow-out moment 550→700 = 150ns (wire latency included),
        // jump to sender at 550: send 400→550 = 150ns, sim 0→400 =
        // 400ns. The receiver's 100..550 wait is NOT on the path.
        assert!((sec("composite") - 100e-9).abs() < 1e-15);
        assert!((sec("render") - 200e-9).abs() < 1e-15);
        assert!((sec("recv") - 150e-9).abs() < 1e-15);
        assert!((sec("send") - 150e-9).abs() < 1e-15);
        assert!((sec("sim") - 400e-9).abs() < 1e-15);
        // Segments tile the whole 1000ns window: zero idle.
        assert!(cp.idle_s.abs() < 1e-15);
        assert!((cp.coverage - 1.0).abs() < 1e-9);
        assert!((cp.share_sum() - cp.coverage).abs() < 1e-9);
        // Sender bounded the step (550ns charged vs 450ns on rank 0).
        assert_eq!(cp.bounding_ranks[0].rank, 1);
        assert_eq!(cp.bounding_ranks[0].steps_bounded, 1);
    }

    #[test]
    fn unmatched_recv_does_not_jump_and_never_panics() {
        let t = Trace {
            records: vec![
                span_rec(Phase::Recv, 0, 800, 0, 0),
                flow(FlowDir::In, 99, 700, 0, 0), // no matching out
                span_rec(Phase::Composite, 800, 200, 0, 0),
                step(1000, 0),
            ],
        };
        let m = MergedTrace::build(t);
        let cp = m.critical_path.expect("step mark present");
        // No matched edge → whole recv span charged on this thread.
        let recv = cp.phases.iter().find(|p| p.phase == "recv").unwrap();
        assert!((recv.seconds - 800e-9).abs() < 1e-15);
        assert_eq!(cp.dangling_flows, 1);
    }

    /// The export format, byte for byte:
    /// `MergedTrace::build(two_rank_trace()).to_chrome_trace()`. Anything
    /// that changes these bytes changes what Perfetto and `trace-analyze`
    /// read.
    const TWO_RANK_EXPORT: &str = r#"{"traceEvents":[
{"name":"sim","cat":"phase","ph":"X","ts":0.000,"dur":0.400,"pid":2,"tid":1,"args":{"bytes":0}},
{"name":"send","cat":"phase","ph":"X","ts":0.400,"dur":0.200,"pid":2,"tid":1,"args":{"bytes":0}},
{"name":"recv","cat":"phase","ph":"X","ts":0.100,"dur":0.600,"pid":1,"tid":0,"args":{"bytes":0}},
{"name":"render","cat":"phase","ph":"X","ts":0.700,"dur":0.200,"pid":1,"tid":0,"args":{"bytes":0}},
{"name":"composite","cat":"phase","ph":"X","ts":0.900,"dur":0.100,"pid":1,"tid":0,"args":{"bytes":0}},
{"name":"step","cat":"event","ph":"i","ts":1.000,"s":"t","pid":1,"tid":0,"args":{"step":0}},
{"name":"msg","cat":"flow","ph":"s","id":42,"ts":0.550,"pid":2,"tid":1,"args":{"tag":4096,"bytes":64}},
{"name":"msg","cat":"flow","ph":"f","bp":"e","id":42,"ts":0.650,"pid":1,"tid":0,"args":{"tag":4096,"bytes":64}},
{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"rank 0"}},
{"name":"process_name","ph":"M","pid":2,"tid":0,"args":{"name":"rank 1"}}
],"displayTimeUnit":"ms","ethFlowStats":{"matched":1,"danglingOut":0,"danglingIn":0},"ethCriticalPath":{"steps":1,"total_s":0.0000010000000000000002,"phases":[{"phase":"sim","seconds":0.00000040000000000000003,"share":0.39999999999999997},{"phase":"render","seconds":0.00000020000000000000002,"share":0.19999999999999998},{"phase":"send","seconds":0.00000015000000000000002,"share":0.15},{"phase":"recv","seconds":0.00000015000000000000002,"share":0.15},{"phase":"composite","seconds":0.00000010000000000000001,"share":0.09999999999999999}],"idle_s":0,"coverage":1,"bounding_ranks":[{"rank":1,"steps_bounded":1,"seconds":0.00000055},{"rank":0,"steps_bounded":0,"seconds":0.00000045000000000000003}],"step_s":[0.0000010000000000000002],"dangling_flows":0}}
"#;

    #[test]
    fn stitched_export_is_byte_identical_to_the_recorded_golden() {
        let m = MergedTrace::build(two_rank_trace());
        assert_eq!(m.to_chrome_trace(), TWO_RANK_EXPORT);
    }

    #[test]
    fn self_send_on_one_thread_makes_progress() {
        // Flow where src and dst share a thread and recv encloses the
        // send moment — the walk must strictly decrease its cursor.
        let t = Trace {
            records: vec![
                span_rec(Phase::Send, 0, 100, 0, 0),
                flow(FlowDir::Out, 5, 50, 0, 0),
                span_rec(Phase::Recv, 200, 300, 0, 0),
                flow(FlowDir::In, 5, 400, 0, 0),
                step(500, 0),
            ],
        };
        let m = MergedTrace::build(t);
        let cp = m.critical_path.expect("computed");
        assert!(cp.total_s > 0.0);
        assert!(cp.coverage <= 1.0 + 1e-9);
    }
}
