//! `eth serve` — a fault-contained campaign service.
//!
//! The paper frames ETH as a harness a *group* shares: many explorers,
//! one pool of compute, overlapping sweeps. This module is that sharing
//! layer as a long-running service: tenants POST campaign requests over
//! HTTP, the service multiplexes them onto the weighted-FIFO
//! [`Campaign`](crate::Campaign) scheduler, dedupes identical design
//! points across tenants, and streams progress back over SSE. The
//! robustness layer is the point:
//!
//! * **Admission control** — a [`ServicePolicy`] bounds total queued
//!   points and per-tenant in-flight campaigns; overload is shed with
//!   `429 + Retry-After` *before* any work is enqueued, so admitted
//!   campaigns keep their latency.
//! * **Deadlines** — every HTTP request carries a read deadline
//!   (`request_deadline_ms`); a stalled client gets `408` and never
//!   holds a connection thread hostage.
//! * **Slow-subscriber isolation** — SSE subscribers get bounded
//!   drop-oldest buffers; a slow reader loses old events, never blocks
//!   the scheduler or other tenants.
//! * **Panic containment** — each connection handler and each campaign
//!   worker runs under `catch_unwind`; a panic turns into a `500` (or a
//!   `Failed` campaign) and a counter, not a dead server.
//! * **Graceful drain** — [`Service::drain`] stops admission, cancels
//!   every running campaign's [`CancelToken`](crate::CancelToken)
//!   (in-flight points finish and journal; queued points are abandoned),
//!   and waits up to `drain_timeout_ms`; a worker only stops counting as
//!   running once its record, summary included, is on disk. Because every
//!   campaign runs through [`Campaign::execute`](crate::Campaign::execute)'s
//!   WAL, a restarted service resumes every tenant's campaign to
//!   **byte-identical** results via [`Service::resume_existing`].
//!
//! Everything is hand-rolled on `std` (TCP, HTTP/1.1, SSE, base64) —
//! the repo's no-new-dependencies rule applies to the service layer too.

mod http;
mod hub;
mod service;

pub use http::Server;
pub use hub::{Event, Next, Subscriber};
pub use service::{PointRunner, Service};

use crate::config::{Algorithm, Coupling, ExperimentSpec, ResourcePolicy};
use crate::error::{CoreError, Result};
use crate::journal;
use crate::sweep::Sweep;
use serde::{Deserialize, Serialize};
use std::fs;
use std::path::Path;
use std::time::Duration;

/// The one record per campaign inside `campaign-NNNN/`: tenant and
/// request from admission on; the terminal flag and the summary once the
/// campaign ends. `done: false` on restart means "resume me".
pub const SERVICE_FILE: &str = "service.json";
/// Stitched cross-rank Chrome trace written next to the journal when a
/// campaign that recorded spans ends (`GET /campaigns/{id}/trace`).
pub const TRACE_FILE: &str = "trace.json";
/// Directory-name prefix for campaign journal dirs under the root.
pub const CAMPAIGN_DIR_PREFIX: &str = "campaign-";

/// Maximum HTTP request head (request line + headers) the server reads.
const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Maximum HTTP request body the server reads.
const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;
/// SSE keepalive cadence; also the disconnect-detection latency bound.
const SSE_TICK: Duration = Duration::from_millis(200);

/// Robustness knobs of the campaign service. Serde-able so a deployment
/// (or a test) can sweep service policy like any other design axis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServicePolicy {
    /// Total unfinished design points the service will hold across all
    /// tenants; a submission that would exceed this is shed with 429.
    pub max_queued_points: usize,
    /// Running campaigns one tenant may hold; the next is shed with 429.
    pub per_tenant_inflight: usize,
    /// Per-request read deadline (ms): a client that stalls the request
    /// head or body longer than this gets 408.
    pub request_deadline_ms: u64,
    /// Upper bound (ms) [`Service::drain`] waits for canceled campaigns
    /// to journal their in-flight points and exit.
    pub drain_timeout_ms: u64,
    /// Bounded SSE subscriber queue length; the oldest event is dropped
    /// (and counted) when a slow client falls this far behind.
    pub subscriber_buffer: usize,
    /// Resource governance for the whole service: the disk quota bounds
    /// each campaign's journal, the memory budget's high watermark sheds
    /// new submissions (429 + Retry-After) while the service's own staged
    /// residency sits above it, and the same policy gates the campaign
    /// scheduler's admissions (see
    /// [`Campaign::with_resources`](crate::Campaign::with_resources)).
    /// `None` (the default, and what legacy service records deserialize
    /// to) disables all three.
    #[serde(default)]
    pub resources: Option<ResourcePolicy>,
}

impl Default for ServicePolicy {
    fn default() -> ServicePolicy {
        ServicePolicy {
            max_queued_points: 64,
            per_tenant_inflight: 2,
            request_deadline_ms: 10_000,
            drain_timeout_ms: 60_000,
            subscriber_buffer: 256,
            resources: None,
        }
    }
}

/// One tenant's campaign submission: a base spec plus optional sweep
/// axes (empty axes keep the base value, exactly like [`Sweep`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignRequest {
    /// Who is asking. Admission counts in-flight campaigns per tenant.
    pub tenant: String,
    /// The base design point the axes below are applied to.
    pub base: ExperimentSpec,
    #[serde(default)]
    pub algorithms: Vec<Algorithm>,
    #[serde(default)]
    pub couplings: Vec<Coupling>,
    #[serde(default)]
    pub sampling_ratios: Vec<f64>,
    #[serde(default)]
    pub rank_counts: Vec<usize>,
    /// Cancel the campaign when its last SSE subscriber disconnects
    /// (fire-and-forget tenants opt out; interactive ones opt in).
    #[serde(default)]
    pub cancel_on_disconnect: bool,
}

impl CampaignRequest {
    /// A single-point campaign (no sweep axes).
    pub fn single(tenant: &str, base: ExperimentSpec) -> CampaignRequest {
        CampaignRequest {
            tenant: tenant.to_string(),
            base,
            algorithms: Vec::new(),
            couplings: Vec::new(),
            sampling_ratios: Vec::new(),
            rank_counts: Vec::new(),
            cancel_on_disconnect: false,
        }
    }

    /// Materialize the request's design points (validates each).
    pub fn specs(&self) -> Result<Vec<ExperimentSpec>> {
        Sweep::over(self.base.clone())
            .algorithms(&self.algorithms)
            .couplings(&self.couplings)
            .sampling_ratios(&self.sampling_ratios)
            .rank_counts(&self.rank_counts)
            .specs()
    }
}

/// Why a submission was refused at the door.
#[derive(Debug)]
pub enum AdmissionError {
    /// The service is draining; nothing new is admitted (HTTP 503).
    Draining,
    /// Overload shed (HTTP 429): retry after `retry_after_s` seconds.
    Shed { retry_after_s: u64, reason: String },
    /// The request itself is malformed or fails validation (HTTP 400).
    Invalid(String),
    /// The service could not persist the admission record (HTTP 500).
    Io(CoreError),
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionError::Draining => write!(f, "service is draining"),
            AdmissionError::Shed {
                retry_after_s,
                reason,
            } => write!(f, "shed ({reason}); retry after {retry_after_s}s"),
            AdmissionError::Invalid(msg) => write!(f, "invalid request: {msg}"),
            AdmissionError::Io(e) => write!(f, "admission io error: {e}"),
        }
    }
}

/// Lifecycle of one admitted campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CampaignState {
    /// Points are queued or executing.
    Running,
    /// Every point ran (some may have failed); terminal.
    Done,
    /// Drain (or an SSE disconnect with `cancel_on_disconnect`) canceled
    /// queued points mid-run; finished points are journaled and a
    /// restarted service resumes the rest. Resumable, not terminal.
    Interrupted,
    /// A tenant explicitly canceled it (DELETE); terminal.
    Canceled,
    /// The worker hit a structural error (journal IO, panic); terminal.
    Failed,
}

impl CampaignState {
    pub fn name(&self) -> &'static str {
        match self {
            CampaignState::Running => "running",
            CampaignState::Done => "done",
            CampaignState::Interrupted => "interrupted",
            CampaignState::Canceled => "canceled",
            CampaignState::Failed => "failed",
        }
    }

    /// Terminal states are never resumed by a restarted service.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            CampaignState::Done | CampaignState::Canceled | CampaignState::Failed
        )
    }
}

/// Snapshot of one campaign, served as JSON and persisted as the summary
/// in its record ([`SERVICE_FILE`]).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct CampaignStatus {
    pub id: usize,
    pub tenant: String,
    /// [`CampaignState::name`] string form.
    pub state: String,
    pub points_total: usize,
    pub points_done: usize,
    pub points_failed: usize,
    /// Points restored from the journal instead of re-run (resume).
    pub points_restored: usize,
    /// SSE events dropped across this campaign's slow subscribers.
    pub dropped_events: usize,
    pub wall_s: f64,
    /// Flow-stitched critical-path attribution for the whole campaign
    /// (which phases bounded each step's latency); populated on the
    /// terminal `campaign-done` event when the campaign recorded spans.
    pub critical_path: Option<eth_obs::CriticalPathSummary>,
}

/// What [`Service::drain`] accomplished before the timeout.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DrainReport {
    pub campaigns_total: usize,
    /// Campaigns that finished every point (before or during drain).
    pub completed: usize,
    /// Campaigns interrupted mid-run (journaled; resumable on restart).
    pub interrupted: usize,
    pub canceled: usize,
    pub failed: usize,
    /// Workers still running when the drain timeout expired.
    pub still_running: usize,
    pub timed_out: bool,
    pub wall_s: f64,
}

/// The record persisted per campaign dir ([`SERVICE_FILE`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ServiceRecord {
    id: usize,
    request: CampaignRequest,
    /// True once the campaign reached a terminal state; `false` on disk
    /// at restart means "resume me".
    done: bool,
    /// The campaign's status when its worker ended; `None` while it runs
    /// (and in records written before the summary moved in here).
    #[serde(default)]
    summary: Option<CampaignStatus>,
}

impl ServiceRecord {
    /// Replace `dir`'s record in one atomic write ([`journal::write_atomic`]):
    /// a crash leaves the previous record or this one, never a torn file.
    fn write(&self, dir: &Path) -> Result<()> {
        fs::create_dir_all(dir)?;
        let text = serde_json::to_string_pretty(self)
            .map_err(|e| CoreError::Config(format!("serialize service record: {e}")))?;
        journal::write_atomic(&dir.join(SERVICE_FILE), text.as_bytes())?;
        Ok(())
    }
}

/// Standard base64 (RFC 4648, with padding) — hand-rolled; no crates.
pub fn base64(data: &[u8]) -> String {
    const ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
    let mut out = String::with_capacity(data.len().div_ceil(3) * 4);
    for chunk in data.chunks(3) {
        let b0 = chunk[0] as u32;
        let b1 = chunk.get(1).copied().unwrap_or(0) as u32;
        let b2 = chunk.get(2).copied().unwrap_or(0) as u32;
        let n = (b0 << 16) | (b1 << 8) | b2;
        out.push(ALPHABET[(n >> 18) as usize & 63] as char);
        out.push(ALPHABET[(n >> 12) as usize & 63] as char);
        out.push(if chunk.len() > 1 {
            ALPHABET[(n >> 6) as usize & 63] as char
        } else {
            '='
        });
        out.push(if chunk.len() > 2 {
            ALPHABET[n as usize & 63] as char
        } else {
            '='
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base64_matches_known_vectors() {
        assert_eq!(base64(b""), "");
        assert_eq!(base64(b"f"), "Zg==");
        assert_eq!(base64(b"fo"), "Zm8=");
        assert_eq!(base64(b"foo"), "Zm9v");
        assert_eq!(base64(b"foobar"), "Zm9vYmFy");
        assert_eq!(base64(&[0xFF, 0x00, 0xAB]), "/wCr");
    }

    #[test]
    fn service_policy_round_trips_through_json() {
        let policy = ServicePolicy::default();
        let text = serde_json::to_string(&policy).unwrap();
        let back: ServicePolicy = serde_json::from_str(&text).unwrap();
        assert_eq!(policy, back);
        assert_eq!(policy.max_queued_points, 64);
        assert_eq!(policy.per_tenant_inflight, 2);
    }

    #[test]
    fn campaign_request_defaults_optional_fields() {
        let spec = crate::config::ExperimentSpecBuilder::new("svc").build().unwrap();
        let body = format!(
            "{{\"tenant\":\"alice\",\"base\":{}}}",
            serde_json::to_string(&spec).unwrap()
        );
        let req: CampaignRequest = serde_json::from_str(&body).unwrap();
        assert_eq!(req.tenant, "alice");
        assert!(req.algorithms.is_empty());
        assert!(!req.cancel_on_disconnect);
        assert_eq!(req.specs().unwrap().len(), 1);
    }
}
