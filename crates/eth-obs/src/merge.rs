//! Cross-rank trace stitching and critical-path attribution.
//!
//! A [`crate::Recorder`] already aggregates every thread's ring buffer
//! into one record stream, but the streams are causally disconnected: a
//! send that stalls on a slow receiver shows up as two unrelated gaps.
//! This module pairs the [`FlowRecord`]s the transports emit (one `Out`
//! inside each Send span, one `In` at the matching recv's match point)
//! into flow edges, exports one Perfetto-loadable trace with flow arrows
//! (`ph:"s"`/`ph:"f"`), and walks the per-step **critical path**: the
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
use crate::trace::{pid_for, sep, write_process_names, Trace};
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

    /// Export the stitched Perfetto view: every record the plain exporter
    /// writes (pid = rank + 1 preserved), plus one `ph:"s"` → `ph:"f"`
    /// flow arrow per matched send/recv pair, plus an `ethFlowStats` /
    /// `ethCriticalPath` summary block that `reproduce trace-analyze`
    /// (and the CI smoke) read back.
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::with_capacity(64 + self.trace.records.len() * 112);
        out.push_str("{\"traceEvents\":[");
        let mut first = true;
        let mut pids: BTreeMap<u32, &'static str> = BTreeMap::new();
        self.trace.write_chrome_events(&mut out, &mut first, &mut pids);
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

// ---------------------------------------------------------------------------
// Re-import: rebuild a Trace (+ summary) from an exported stitched JSON,
// so `reproduce trace-analyze` works on any trace file on disk.
// ---------------------------------------------------------------------------

/// Parse a Chrome trace-event JSON (plain or stitched) back into a
/// [`Trace`] plus the embedded critical-path summary, when present.
/// Span names that don't match a known [`Phase`] are skipped; flow `s`/`f`
/// events become paired flow records.
pub fn trace_from_chrome(
    v: &serde::Value,
) -> Result<(Trace, Option<CriticalPathSummary>), String> {
    let root = v.as_object().ok_or("trace root is not an object")?;
    let events = serde::field(root, "traceEvents")
        .and_then(|e| e.as_array())
        .ok_or("missing traceEvents array")?;
    let mut records = Vec::with_capacity(events.len());
    for e in events {
        let Some(fields) = e.as_object() else { continue };
        let ph = serde::field(fields, "ph").and_then(|p| p.as_str()).unwrap_or("");
        let num = |key: &str| -> Option<f64> {
            serde::field(fields, key).and_then(|v| match v {
                serde::Value::F64(f) => Some(*f),
                serde::Value::U64(n) => Some(*n as f64),
                serde::Value::I64(n) => Some(*n as f64),
                _ => None,
            })
        };
        let ts_ns = (num("ts").unwrap_or(0.0).max(0.0) * 1000.0).round() as u64;
        let pid = num("pid").unwrap_or(0.0) as u32;
        let rank = if pid == 0 { NO_RANK } else { pid - 1 };
        let thread = num("tid").unwrap_or(0.0) as u32;
        match ph {
            "X" => {
                let name = serde::field(fields, "name").and_then(|n| n.as_str()).unwrap_or("");
                let Some(phase) = Phase::from_name(name) else { continue };
                let dur_ns = (num("dur").unwrap_or(0.0).max(0.0) * 1000.0).round() as u64;
                let bytes = serde::field(fields, "args")
                    .and_then(|a| a.as_object())
                    .and_then(|a| serde::field(a, "bytes"))
                    .and_then(|b| match b {
                        serde::Value::U64(n) => Some(*n),
                        serde::Value::F64(f) if *f >= 0.0 => Some(*f as u64),
                        _ => None,
                    })
                    .unwrap_or(0);
                records.push(Record::Span(SpanRecord {
                    phase,
                    start_ns: ts_ns,
                    dur_ns,
                    rank,
                    thread,
                    bytes,
                }));
            }
            "i" => {
                let name = serde::field(fields, "name").and_then(|n| n.as_str()).unwrap_or("");
                if name == "step" {
                    let step = serde::field(fields, "args")
                        .and_then(|a| a.as_object())
                        .and_then(|a| serde::field(a, "step"))
                        .and_then(|s| match s {
                            serde::Value::U64(n) => Some(*n),
                            serde::Value::F64(f) if *f >= 0.0 => Some(*f as u64),
                            _ => None,
                        })
                        .unwrap_or(0);
                    records.push(Record::Step {
                        step,
                        ts_ns,
                        rank,
                        thread,
                    });
                }
            }
            "s" | "f" => {
                let id = num("id").unwrap_or(0.0) as u64;
                let args = serde::field(fields, "args").and_then(|a| a.as_object());
                let arg_u64 = |key: &str| -> u64 {
                    args.and_then(|a| serde::field(a, key))
                        .and_then(|v| match v {
                            serde::Value::U64(n) => Some(*n),
                            serde::Value::F64(f) if *f >= 0.0 => Some(*f as u64),
                            _ => None,
                        })
                        .unwrap_or(0)
                };
                records.push(Record::Flow(FlowRecord {
                    ctx: crate::span::SpanContext {
                        trace_id: 0,
                        span_id: id,
                    },
                    dir: if ph == "s" { FlowDir::Out } else { FlowDir::In },
                    peer: NO_RANK,
                    tag: arg_u64("tag") as u32,
                    ts_ns,
                    rank,
                    thread,
                    bytes: arg_u64("bytes"),
                }));
            }
            _ => {}
        }
    }
    let summary = serde::field(root, "ethCriticalPath")
        .filter(|v| !v.is_null())
        .and_then(|v| CriticalPathSummary::deserialize_value(v).ok());
    Ok((Trace { records }, summary))
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

    #[test]
    fn stitched_export_roundtrips_through_the_importer() {
        let m = MergedTrace::build(two_rank_trace());
        let json = m.to_chrome_trace();
        let v = serde_json::parse_value_complete(&json).expect("valid JSON");
        let (trace, summary) = trace_from_chrome(&v).expect("imports");
        let summary = summary.expect("summary embedded");
        assert_eq!(summary, m.critical_path.clone().unwrap());
        // Re-stitching the re-imported trace reproduces the same path
        // (timestamps quantized to µs precision in the export — the
        // synthetic ns-scale trace rounds, so only check structure).
        let m2 = MergedTrace::build(trace.clone());
        assert_eq!(m2.matched.len(), 1);

        // A trace written while the raycaster still had a progressive
        // path: its `progressive_pass` span names no phase now, so the
        // import skips it and keeps every other record.
        let old = json.replacen(
            "{\"traceEvents\":[",
            "{\"traceEvents\":[{\"name\":\"progressive_pass\",\"cat\":\"phase\",\"ph\":\"X\",\
             \"ts\":0.750,\"dur\":0.100,\"pid\":1,\"tid\":0,\"args\":{\"bytes\":0}},",
            1,
        );
        assert_ne!(old, json);
        let v = serde_json::parse_value_complete(&old).expect("valid JSON");
        let (old_trace, old_summary) = trace_from_chrome(&v).expect("imports");
        assert_eq!(old_trace.records, trace.records);
        assert_eq!(old_summary, Some(summary));
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
