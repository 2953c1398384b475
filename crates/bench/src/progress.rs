//! Structured progress reporting for the `reproduce` CLI.
//!
//! Every progress notice is a *structured event first*: it lands in the
//! flight recorder as an [`eth_obs::instant`] (so a `--trace` export shows
//! where each artifact started and finished on the timeline) and is
//! printed to stderr second, gated by the verbosity the user picked.
//! Tables and reports — the actual artifacts — always go to stdout and
//! are not routed through here.

/// How chatty the CLI is on stderr. The flight-recorder events are
/// emitted at every level; verbosity only gates the human-readable echo.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verbosity {
    /// Artifacts only: no progress chatter at all.
    Quiet,
    /// Progress notices (campaign summaries, files written).
    Normal,
    /// Also per-artifact begin/end lines.
    Verbose,
}

impl Verbosity {
    /// Resolve the `--quiet` / `--verbose` flag pair (quiet wins).
    pub fn from_flags(quiet: bool, verbose: bool) -> Verbosity {
        if quiet {
            Verbosity::Quiet
        } else if verbose {
            Verbosity::Verbose
        } else {
            Verbosity::Normal
        }
    }
}

/// Progress reporter: structured events into the flight recorder,
/// verbosity-gated echo to stderr.
pub struct Progress {
    level: Verbosity,
}

impl Progress {
    pub fn new(level: Verbosity) -> Progress {
        Progress { level }
    }

    pub fn level(&self) -> Verbosity {
        self.level
    }

    /// An artifact (or phase) starts. `what` must be static so it can
    /// name the instant event on the trace timeline.
    pub fn begin(&self, what: &'static str) {
        eth_obs::instant(what);
        if self.level == Verbosity::Verbose {
            crate::say!("[reproduce] {what} ...");
        }
    }

    /// The matching completion notice (shares the event name with a
    /// `_done` suffix convention left to the caller's `what`).
    pub fn done(&self, what: &'static str, detail: &str) {
        eth_obs::instant(what);
        if self.level == Verbosity::Verbose {
            crate::say!("[reproduce] {what} {detail}");
        }
    }

    /// A progress notice worth seeing by default (campaign summaries,
    /// files written). Suppressed only by `--quiet`.
    pub fn note(&self, msg: &str) {
        eth_obs::instant("note");
        if self.level != Verbosity::Quiet {
            crate::say!("{msg}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_resolution() {
        assert_eq!(Verbosity::from_flags(false, false), Verbosity::Normal);
        assert_eq!(Verbosity::from_flags(false, true), Verbosity::Verbose);
        assert_eq!(Verbosity::from_flags(true, false), Verbosity::Quiet);
        // quiet wins over verbose
        assert_eq!(Verbosity::from_flags(true, true), Verbosity::Quiet);
    }

    #[test]
    fn events_reach_an_attached_recorder_at_every_level() {
        for level in [Verbosity::Quiet, Verbosity::Normal, Verbosity::Verbose] {
            let recorder = eth_obs::Recorder::new();
            let guard = recorder.attach();
            let p = Progress::new(level);
            p.begin("artifact");
            p.note("working");
            p.done("artifact", "ok");
            drop(guard);
            let trace = recorder.take();
            let instants = trace
                .records
                .iter()
                .filter(|r| matches!(r, eth_obs::Record::Instant { .. }))
                .count();
            assert_eq!(instants, 3, "level {level:?}");
        }
    }
}
