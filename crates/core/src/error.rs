//! Harness error type: unifies data-model and transport failures.

use eth_data::error::DataError;
use eth_transport::{RankFailure, TransportError};
use std::fmt;

/// Any failure the harness can produce.
#[derive(Debug)]
pub enum CoreError {
    /// Data-model / IO / rendering failure.
    Data(DataError),
    /// Transport / bootstrap failure.
    Transport(TransportError),
    /// Invalid experiment configuration.
    Config(String),
    /// A supervised rank panicked or overran its wall-clock budget.
    Rank(RankFailure),
    /// A campaign point exhausted its retry budget and was set aside so
    /// the rest of the sweep could proceed.
    Quarantined {
        /// Attempts consumed, including the first.
        attempts: u32,
        /// The failure observed on the final attempt.
        last_error: Box<CoreError>,
    },
    /// The campaign's cancellation token fired before this point ran: the
    /// point was abandoned unstarted (a drain or client disconnect). On
    /// resume it re-runs — cancellation never records a wrong result.
    Canceled,
    /// A campaign journal directory is already owned by a live process;
    /// a second opener would interleave WAL appends into the same file
    /// and corrupt both histories, so it is refused instead.
    JournalLocked {
        /// The locked campaign directory.
        dir: std::path::PathBuf,
        /// PID recorded in the lockfile (the live holder).
        holder: u32,
    },
    /// A durable write hit the disk quota (or a real `ENOSPC`). Classified
    /// as a transient resource fault: the point fails, retries, or
    /// quarantines under [`crate::Campaign::with_max_attempts`] instead of
    /// panicking mid-append.
    DiskFull {
        /// What was being written when the quota ran out.
        what: String,
        /// Bytes the write needed.
        needed: u64,
        /// Bytes already accounted against the quota.
        used: u64,
        /// The configured quota, 0 when the failure came from the OS.
        quota: u64,
    },
    /// A staged-block allocation failed against the memory budget (or was
    /// injected via `FaultPlan::alloc_fail_at_stage`). Retryable the same
    /// way [`CoreError::DiskFull`] is.
    OutOfMemory(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Data(e) => write!(f, "data error: {e}"),
            CoreError::Transport(e) => write!(f, "transport error: {e}"),
            CoreError::Config(m) => write!(f, "configuration error: {m}"),
            CoreError::Rank(e) => write!(f, "rank failure: {e}"),
            CoreError::Quarantined { attempts, last_error } => write!(
                f,
                "quarantined after {attempts} attempts; last error: {last_error}"
            ),
            CoreError::Canceled => write!(f, "canceled before the point ran"),
            CoreError::JournalLocked { dir, holder } => write!(
                f,
                "campaign journal {} is locked by live process {holder}",
                dir.display()
            ),
            CoreError::DiskFull { what, needed, used, quota } => write!(
                f,
                "disk full writing {what}: {needed} bytes needed, {used} used of quota {quota}"
            ),
            CoreError::OutOfMemory(m) => write!(f, "out of memory: {m}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Data(e) => Some(e),
            CoreError::Transport(e) => Some(e),
            CoreError::Config(_) => None,
            CoreError::Rank(e) => Some(e),
            CoreError::Quarantined { last_error, .. } => Some(last_error.as_ref()),
            CoreError::Canceled
            | CoreError::JournalLocked { .. }
            | CoreError::DiskFull { .. }
            | CoreError::OutOfMemory(_) => None,
        }
    }
}

impl From<RankFailure> for CoreError {
    fn from(e: RankFailure) -> Self {
        CoreError::Rank(e)
    }
}

impl From<DataError> for CoreError {
    fn from(e: DataError) -> Self {
        CoreError::Data(e)
    }
}

impl From<TransportError> for CoreError {
    fn from(e: TransportError) -> Self {
        CoreError::Transport(e)
    }
}

impl From<std::io::Error> for CoreError {
    fn from(e: std::io::Error) -> Self {
        CoreError::Data(DataError::Io(e))
    }
}

pub type Result<T> = std::result::Result<T, CoreError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let d: CoreError = DataError::MissingAttribute("t".into()).into();
        assert!(d.to_string().contains("data error"));
        let t: CoreError = TransportError::Disconnected { peer: 1 }.into();
        assert!(t.to_string().contains("transport error"));
        let c = CoreError::Config("bad".into());
        assert!(c.to_string().contains("bad"));
        let r: CoreError = RankFailure::Panic {
            rank: 2,
            message: "kaboom".into(),
        }
        .into();
        assert!(r.to_string().contains("kaboom"));
        use std::error::Error;
        assert!(d.source().is_some());
        assert!(c.source().is_none());
    }
}
