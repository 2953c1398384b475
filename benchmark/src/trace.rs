//! The benchmark's own in-memory span recorder.
//!
//! Spans are recorded around calls into each layer's public functions —
//! never inside the program — kept in memory, and written out once at
//! exit as Chrome-trace JSON (loads in Perfetto / `chrome://tracing`).

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// Work done inside the span, in the layer's own unit (elements,
    /// bytes, pixels …). Computed from sizes, not measured.
    pub work: f64,
}

/// Single-threaded recorder: every traced call is driven from the child's
/// main thread, so a stack of open spans gives each span its parent.
pub struct Recorder {
    origin: Instant,
    open: Vec<usize>,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `body` inside a span named `name` that accounts for `work`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        work: f64,
        body: impl FnOnce(&mut Recorder) -> T,
    ) -> T {
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            work,
        });
        self.open.push(index);
        let out = body(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotal {
    pub count: u64,
    pub busy_ns: u64,
    pub self_ns: u64,
    pub work: f64,
}

/// A span's self time: its duration minus the part of that interval its
/// direct children cover (overlapping children are counted once, and a
/// child is clipped to its parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let clipped = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            children[p].push(clipped);
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for (start, end) in kids {
                let start = start.max(cursor);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

pub fn layer_totals(spans: &[Span]) -> BTreeMap<&'static str, LayerTotal> {
    let mut totals: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let t = totals.entry(s.name).or_default();
        t.count += 1;
        t.busy_ns += s.end_ns - s.start_ns;
        t.self_ns += self_ns;
        t.work += s.work;
    }
    totals
}

/// Chrome-trace JSON ("X" complete events, microsecond timestamps). `pid`
/// is the workload's index, so traces of several workloads can be loaded
/// side by side; `args` carry the span id and its parent.
pub fn chrome_json(spans: &[Span], workload: &str, pid: usize) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    out.push_str(&format!(
        "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"name\":\"process_name\",\"args\":{{\"name\":\"{workload}\"}}}}"
    ));
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            ",\n{{\"ph\":\"X\",\"pid\":{pid},\"tid\":0,\"name\":\"{}\",\"cat\":\"{workload}\",\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{id},\"parent\":{parent},\"work\":{}}}}}",
            s.name,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.work,
        ));
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            work: 1.0,
        }
    }

    #[test]
    fn self_time_subtracts_child_covered_interval_once() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            // overlaps `a` on 30..40: that stretch must not be subtracted twice
            span("b", 30, 60, Some(0)),
            // grandchild: comes off `a`, not off the root
            span("a.inner", 15, 25, Some(1)),
            // runs past its parent's end: clipped to 100
            span("c", 90, 120, Some(0)),
        ];
        // root: 100 − (10..60 = 50) − (90..100 = 10) = 40
        assert_eq!(self_times(&spans), vec![40, 20, 30, 10, 30]);
    }

    #[test]
    fn totals_group_by_name() {
        let spans = vec![
            span("root", 0, 100, None),
            span("leaf", 0, 10, Some(0)),
            span("leaf", 50, 70, Some(0)),
        ];
        let totals = layer_totals(&spans);
        assert_eq!(
            totals["leaf"],
            LayerTotal {
                count: 2,
                busy_ns: 30,
                self_ns: 30,
                work: 2.0
            }
        );
        assert_eq!(totals["root"].self_ns, 70);
    }

    #[test]
    fn recorder_nests_and_exports_valid_json() {
        let mut rec = Recorder::new();
        rec.span("outer", 0.0, |rec| {
            rec.span("inner", 3.0, |_| ());
        });
        assert_eq!(rec.spans[0].parent, None);
        assert_eq!(rec.spans[1].parent, Some(0));
        assert!(rec.spans[0].end_ns >= rec.spans[1].end_ns);
        let json = chrome_json(&rec.spans, "w", 2);
        let value = serde_json::parse_value_complete(&json).expect("chrome trace parses as JSON");
        assert!(format!("{value:?}").contains("inner"));
    }
}
