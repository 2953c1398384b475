//! The collected record stream and its consumers: per-phase aggregation,
//! the Chrome trace-event exporter, and the well-formedness checker.

use crate::span::{Phase, Record, SpanRecord, NO_RANK};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

/// Everything a [`crate::Recorder`] drained: spans, instants, counts, in
/// flush order (per-thread close order within each drain).
#[derive(Debug, Clone, Default)]
pub struct Trace {
    pub records: Vec<Record>,
}

/// Per-phase aggregate over a trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseTotal {
    pub phase: Phase,
    pub spans: u64,
    pub busy_s: f64,
    pub bytes: u64,
}

impl Trace {
    pub fn new() -> Trace {
        Trace::default()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Append another trace's records (cross-recorder aggregation).
    pub fn merge(&mut self, mut other: Trace) {
        self.records.append(&mut other.records);
    }

    /// All closed spans, in record order.
    pub fn spans(&self) -> impl Iterator<Item = &SpanRecord> {
        self.records.iter().filter_map(|r| match r {
            Record::Span(s) => Some(s),
            _ => None,
        })
    }

    /// All flow endpoints, in record order.
    pub fn flows(&self) -> impl Iterator<Item = &crate::span::FlowRecord> {
        self.records.iter().filter_map(|r| match r {
            Record::Flow(f) => Some(f),
            _ => None,
        })
    }

    /// Named counter totals (sums over every `count()` call).
    pub fn counts(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for r in &self.records {
            if let Record::Count { name, value, .. } = r {
                *out.entry(*name).or_insert(0.0) += value;
            }
        }
        out
    }

    /// Busy time / span count / bytes per phase, sorted by phase.
    pub fn phase_totals(&self) -> Vec<PhaseTotal> {
        let mut map: BTreeMap<Phase, PhaseTotal> = BTreeMap::new();
        for s in self.spans() {
            let t = map.entry(s.phase).or_insert(PhaseTotal {
                phase: s.phase,
                spans: 0,
                busy_s: 0.0,
                bytes: 0,
            });
            t.spans += 1;
            t.busy_s += s.dur_ns as f64 * 1e-9;
            t.bytes += s.bytes;
        }
        map.into_values().collect()
    }

    /// Latest span end / event timestamp in the trace (ns).
    pub fn max_end_ns(&self) -> u64 {
        self.records
            .iter()
            .map(|r| match r {
                Record::Span(s) => s.end_ns(),
                Record::Instant { ts_ns, .. }
                | Record::Count { ts_ns, .. }
                | Record::Step { ts_ns, .. } => *ts_ns,
                Record::Flow(f) => f.ts_ns,
            })
            .max()
            .unwrap_or(0)
    }

    /// Verify the per-thread nesting invariant: on any one thread, two
    /// spans are either disjoint or properly nested. RAII construction
    /// guarantees this; the checker is the test oracle that the buffering
    /// and flushing machinery never corrupts it (e.g. by mixing records
    /// across threads under one thread id).
    pub fn check_well_formed(&self) -> Result<(), String> {
        let mut by_thread: HashMap<u32, Vec<&SpanRecord>> = HashMap::new();
        for s in self.spans() {
            by_thread.entry(s.thread).or_default().push(s);
        }
        for (thread, mut spans) in by_thread {
            // Outer spans first: earlier start, ties broken longer-first.
            spans.sort_by(|a, b| {
                a.start_ns
                    .cmp(&b.start_ns)
                    .then(b.dur_ns.cmp(&a.dur_ns))
            });
            let mut open_ends: Vec<u64> = Vec::new();
            for s in spans {
                while open_ends.last().is_some_and(|&end| end <= s.start_ns) {
                    open_ends.pop();
                }
                if let Some(&enclosing_end) = open_ends.last() {
                    if s.end_ns() > enclosing_end {
                        return Err(format!(
                            "thread {thread}: {} span [{}, {}] partially overlaps an \
                             enclosing span ending at {}",
                            s.phase.name(),
                            s.start_ns,
                            s.end_ns(),
                            enclosing_end
                        ));
                    }
                }
                open_ends.push(s.end_ns());
            }
        }
        Ok(())
    }

    /// Export as Chrome trace-event JSON (the `chrome://tracing` /
    /// Perfetto "JSON Array Format"). Spans become complete ("X") events
    /// with `pid` = rank and `tid` = recorder thread id, so a campaign
    /// renders as one timeline per rank; instants become "i", counts "C".
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::with_capacity(64 + self.records.len() * 96);
        out.push_str("{\"traceEvents\":[");
        let mut first = true;
        let mut pids: BTreeMap<u32, &'static str> = BTreeMap::new();
        self.write_chrome_events(&mut out, &mut first, &mut pids);
        write_process_names(&mut out, &mut first, &pids);
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }

    /// Write this trace's records as Chrome trace events (no envelope, no
    /// process metadata — the callers own those). Shared between the plain
    /// exporter above and the stitched exporter in [`crate::merge`].
    pub(crate) fn write_chrome_events(
        &self,
        out: &mut String,
        first: &mut bool,
        pids: &mut BTreeMap<u32, &'static str>,
    ) {
        for r in &self.records {
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
                // Flow endpoints only make sense once paired — the
                // stitched exporter (crate::merge) draws the arrows.
                Record::Flow(_) => {}
            }
        }
    }
}

/// Comma/newline separator between trace events.
pub(crate) fn sep(out: &mut String, first: &mut bool) {
    if !*first {
        out.push(',');
    }
    *first = false;
    out.push('\n');
}

/// Name the per-rank process rows so Perfetto's timeline reads "rank N"
/// instead of bare pids.
pub(crate) fn write_process_names(
    out: &mut String,
    first: &mut bool,
    pids: &BTreeMap<u32, &'static str>,
) {
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
pub(crate) fn pid_for(rank: u32) -> (u32, &'static str) {
    if rank == NO_RANK {
        (0, "harness")
    } else {
        (rank + 1, "")
    }
}

/// Minimal JSON string encoder (names are controlled identifiers, but
/// escape defensively so the exporter can never emit invalid JSON).
pub(crate) fn json_str(s: &str) -> String {
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
pub(crate) fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{count, instant, span_bytes, Recorder};

    fn span_record(phase: Phase, start: u64, dur: u64, thread: u32) -> Record {
        Record::Span(SpanRecord {
            phase,
            start_ns: start,
            dur_ns: dur,
            rank: 0,
            thread,
            bytes: 0,
        })
    }

    #[test]
    fn well_formed_accepts_nesting_and_disjoint_spans() {
        let t = Trace {
            records: vec![
                span_record(Phase::Render, 0, 100, 1),
                span_record(Phase::Encode, 10, 20, 1),
                span_record(Phase::Send, 30, 70, 1),
                span_record(Phase::Render, 200, 50, 1),
                // same window on another thread: fine
                span_record(Phase::Recv, 5, 500, 2),
            ],
        };
        t.check_well_formed().unwrap();
    }

    #[test]
    fn well_formed_rejects_partial_overlap_on_one_thread() {
        let t = Trace {
            records: vec![
                span_record(Phase::Render, 0, 100, 1),
                span_record(Phase::Encode, 50, 100, 1),
            ],
        };
        let err = t.check_well_formed().unwrap_err();
        assert!(err.contains("partially overlaps"), "{err}");
    }

    #[test]
    fn chrome_export_is_valid_json_with_expected_events() {
        let r = Recorder::new();
        {
            let _a = r.attach();
            crate::span::set_rank(1);
            let _s = span_bytes(Phase::Encode, 4096);
            instant("step_done");
            count("retries", 1.0);
        }
        let json = r.take().to_chrome_trace();
        let v = serde_json::parse_value_complete(&json).expect("valid JSON");
        let root = v.as_object().expect("root object");
        let events = root
            .iter()
            .find(|(k, _)| k == "traceEvents")
            .and_then(|(_, v)| v.as_array())
            .expect("traceEvents array");
        let phases: Vec<&str> = events
            .iter()
            .filter_map(|e| {
                e.as_object()?
                    .iter()
                    .find(|(k, _)| k == "ph")
                    .and_then(|(_, v)| v.as_str())
            })
            .collect();
        assert!(phases.contains(&"X"), "complete event present");
        assert!(phases.contains(&"i"), "instant present");
        assert!(phases.contains(&"C"), "counter present");
        assert!(phases.contains(&"M"), "process metadata present");
    }

    #[test]
    fn phase_totals_aggregate_busy_time_and_bytes() {
        let t = Trace {
            records: vec![
                Record::Span(SpanRecord {
                    phase: Phase::Encode,
                    start_ns: 0,
                    dur_ns: 1_000_000,
                    rank: 0,
                    thread: 0,
                    bytes: 100,
                }),
                Record::Span(SpanRecord {
                    phase: Phase::Encode,
                    start_ns: 2_000_000,
                    dur_ns: 3_000_000,
                    rank: 1,
                    thread: 1,
                    bytes: 200,
                }),
            ],
        };
        let totals = t.phase_totals();
        assert_eq!(totals.len(), 1);
        assert_eq!(totals[0].phase, Phase::Encode);
        assert_eq!(totals[0].spans, 2);
        assert_eq!(totals[0].bytes, 300);
        assert!((totals[0].busy_s - 0.004).abs() < 1e-12);
        assert_eq!(t.max_end_ns(), 5_000_000);
    }
}
