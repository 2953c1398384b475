//! `benchmark compare A.json B.json`: the two-sets-agree check and the
//! tool for later ledger diffs.

use crate::stats::Summary;
use crate::{Results, END_TO_END};
use std::fmt::Write as _;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// All metrics are lower-is-better. `Unresolved` when either side's own
/// q1–q3 spread exceeds the bound: a difference that size cannot be told
/// from the run-to-run noise, so it is not reported as unchanged either.
pub fn verdict(a: &Summary, b: &Summary, bound: f64) -> Verdict {
    if a.spread() > bound || b.spread() > bound {
        Verdict::Unresolved
    } else if b.median > a.median * (1.0 + bound) {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// Any increase in the failed share of frames is a regression.
pub fn failed_verdict(a: (u64, u64), b: (u64, u64)) -> Verdict {
    let frac = |(failed, attempted): (u64, u64)| failed as f64 / attempted.max(1) as f64;
    if frac(b) > frac(a) {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// One row per (metric, workload); returns the table and whether any row
/// is `worse`.
pub fn compare(a: &Results, b: &Results) -> (String, bool) {
    let mut out = String::new();
    let mut any_worse = false;
    let _ = writeln!(
        out,
        "{:<12} {:<24} {:>12} {:>12} {:>14} {:>7}  verdict",
        "metric", "workload", "A median", "B median", "B/A (base A)", "bound"
    );
    for (workload, wa) in &a.workloads {
        let Some(wb) = b.workloads.get(workload) else {
            let _ = writeln!(out, "{:<12} {workload:<24} missing from B", "-");
            any_worse = true;
            continue;
        };
        for (metric, _unit, bound) in END_TO_END {
            let (Some(sa), Some(sb)) = (wa.metrics.get(*metric), wb.metrics.get(*metric)) else {
                continue;
            };
            let v = verdict(sa, sb, *bound);
            any_worse |= v == Verdict::Worse;
            let _ = writeln!(
                out,
                "{:<12} {:<24} {:>12.3} {:>12.3} {:>14.4} {:>6.0}%  {}",
                metric,
                workload,
                sa.median,
                sb.median,
                sb.median / sa.median,
                bound * 100.0,
                v.name()
            );
        }
        let v = failed_verdict((wa.failed, wa.attempted), (wb.failed, wb.attempted));
        any_worse |= v == Verdict::Worse;
        let _ = writeln!(
            out,
            "{:<12} {:<24} {:>12} {:>12} {:>14} {:>7}  {}",
            "failed_frac",
            workload,
            format!("{}/{}", wa.failed, wa.attempted),
            format!("{}/{}", wb.failed, wb.attempted),
            "-",
            "0%",
            v.name()
        );
    }
    (out, any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(median: f64, spread: f64) -> Summary {
        Summary {
            median,
            q1: median * (1.0 - spread / 2.0),
            q3: median * (1.0 + spread / 2.0),
            n: 18,
        }
    }

    #[test]
    fn verdicts() {
        let base = summary(100.0, 0.02);
        assert_eq!(verdict(&base, &summary(109.0, 0.02), 0.10), Verdict::Ok);
        assert_eq!(verdict(&base, &summary(80.0, 0.02), 0.10), Verdict::Ok);
        assert_eq!(verdict(&base, &summary(111.0, 0.02), 0.10), Verdict::Worse);
        // a noisy side hides the difference, whichever side it is
        assert_eq!(
            verdict(&base, &summary(150.0, 0.12), 0.10),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&summary(100.0, 0.12), &base, 0.10),
            Verdict::Unresolved
        );
    }

    #[test]
    fn any_failed_increase_is_worse() {
        assert_eq!(failed_verdict((0, 100), (0, 90)), Verdict::Ok);
        assert_eq!(failed_verdict((0, 100), (1, 1000)), Verdict::Worse);
        assert_eq!(failed_verdict((2, 100), (1, 100)), Verdict::Ok);
    }
}
