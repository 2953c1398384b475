//! `eth serve` — a fault-contained campaign service.
//!
//! The paper frames ETH as a harness a *group* shares: many explorers,
//! one pool of compute, overlapping sweeps. This module is that sharing
//! layer as a long-running service: tenants POST campaign requests over
//! HTTP, the service multiplexes them onto the weighted-FIFO
//! [`Campaign`] scheduler, dedupes identical design points across
//! tenants, and streams progress back over SSE. The robustness layer is
//! the point:
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
//!   every running campaign's [`CancelToken`] (in-flight points finish
//!   and journal; queued points are abandoned), and waits up to
//!   `drain_timeout_ms`; a worker only stops counting as running once its
//!   terminal record and summary are on disk. Because every campaign runs
//!   through [`Campaign::execute`]'s WAL, a restarted service resumes
//!   every tenant's campaign to **byte-identical** results via
//!   [`Service::resume_existing`].
//!
//! Everything is hand-rolled on `std` (TCP, HTTP/1.1, SSE, base64) —
//! the repo's no-new-dependencies rule applies to the service layer too.

use crate::config::{Algorithm, Coupling, ExperimentSpec, ResourcePolicy};
use crate::error::{CoreError, Result};
use crate::harness::{NativeOutcome, RunCaches};
use crate::journal;
use crate::sweep::{lock_recover, run_attempt, Campaign, CancelToken, PointResult, Sweep};
use crate::telemetry::counters_to_prometheus;
use eth_cluster::counters::CounterSet;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use std::fs;
use std::io::{self, Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// Per-campaign state file inside `campaign-NNNN/` (the admission
/// record: tenant + request + terminal flag). `done: false` on restart
/// means "resume me".
pub const SERVICE_FILE: &str = "service.json";
/// Terminal summary written next to the journal when a campaign ends.
pub const OUTCOME_FILE: &str = "outcome.json";
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

// ---------------------------------------------------------------------------
// Policy and request/response types
// ---------------------------------------------------------------------------

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
    /// scheduler's admissions (see [`Campaign::with_resources`]).
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

/// Snapshot of one campaign, served as JSON and persisted as the
/// terminal summary ([`OUTCOME_FILE`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Serialize, Deserialize)]
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

/// The admission record persisted per campaign dir ([`SERVICE_FILE`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ServiceRecord {
    id: usize,
    request: CampaignRequest,
    /// True once the campaign reached a terminal state; `false` on disk
    /// at restart means "resume me".
    done: bool,
}

// ---------------------------------------------------------------------------
// SSE event hub: bounded drop-oldest fan-out
// ---------------------------------------------------------------------------

/// One server-sent event: a name and a JSON data payload.
#[derive(Debug, Clone)]
pub struct Event {
    pub name: String,
    pub data: String,
}

/// What a subscriber sees on each poll.
pub enum Next {
    /// An event arrived.
    Event(Box<Event>),
    /// Nothing within the poll window (caller sends an SSE keepalive).
    Idle,
    /// The hub closed (campaign over) and the queue is drained.
    Closed,
}

/// A subscriber's bounded queue. Publishing never blocks: when the
/// queue is full the oldest event is dropped and counted, so a slow SSE
/// reader can only hurt itself.
pub struct Subscriber {
    queue: Mutex<SubscriberQueue>,
    cv: Condvar,
    dropped: AtomicUsize,
}

struct SubscriberQueue {
    events: VecDeque<Event>,
    closed: bool,
}

impl Subscriber {
    fn new() -> Subscriber {
        Subscriber {
            queue: Mutex::new(SubscriberQueue {
                events: VecDeque::new(),
                closed: false,
            }),
            cv: Condvar::new(),
            dropped: AtomicUsize::new(0),
        }
    }

    /// Pop the next event, waiting at most `timeout`.
    pub fn next(&self, timeout: Duration) -> Next {
        let mut q = lock_recover(&self.queue);
        if q.events.is_empty() && !q.closed {
            let (guard, _) = self
                .cv
                .wait_timeout(q, timeout)
                .unwrap_or_else(PoisonError::into_inner);
            q = guard;
        }
        match q.events.pop_front() {
            Some(ev) => Next::Event(Box::new(ev)),
            None if q.closed => Next::Closed,
            None => Next::Idle,
        }
    }

    /// Events this subscriber lost to the drop-oldest bound.
    pub fn dropped(&self) -> usize {
        self.dropped.load(Ordering::Relaxed)
    }
}

/// Per-campaign event fan-out.
struct EventHub {
    subscribers: Mutex<Vec<Arc<Subscriber>>>,
    capacity: usize,
    dropped_total: AtomicUsize,
}

impl EventHub {
    fn new(capacity: usize) -> EventHub {
        EventHub {
            subscribers: Mutex::new(Vec::new()),
            capacity: capacity.max(1),
            dropped_total: AtomicUsize::new(0),
        }
    }

    fn subscribe(&self) -> Arc<Subscriber> {
        let sub = Arc::new(Subscriber::new());
        lock_recover(&self.subscribers).push(sub.clone());
        sub
    }

    /// Remove `sub`; returns how many subscribers remain.
    fn unsubscribe(&self, sub: &Arc<Subscriber>) -> usize {
        let mut subs = lock_recover(&self.subscribers);
        subs.retain(|s| !Arc::ptr_eq(s, sub));
        subs.len()
    }

    fn publish(&self, name: &str, data: String) {
        let subs = lock_recover(&self.subscribers).clone();
        for sub in subs {
            let mut q = lock_recover(&sub.queue);
            if q.closed {
                continue;
            }
            if q.events.len() >= self.capacity {
                q.events.pop_front();
                sub.dropped.fetch_add(1, Ordering::Relaxed);
                self.dropped_total.fetch_add(1, Ordering::Relaxed);
            }
            q.events.push_back(Event {
                name: name.to_string(),
                data: data.clone(),
            });
            sub.cv.notify_all();
        }
    }

    /// [`EventHub::publish`] with `payload` serialized as the data.
    fn publish_json<T: Serialize>(&self, name: &str, payload: &T) {
        self.publish(name, serde_json::to_string(payload).unwrap_or_default());
    }

    /// Mark every subscriber closed (they drain their queues and end).
    fn close_all(&self) {
        let subs = lock_recover(&self.subscribers).clone();
        for sub in subs {
            lock_recover(&sub.queue).closed = true;
            sub.cv.notify_all();
        }
    }

    fn dropped_total(&self) -> usize {
        self.dropped_total.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// Service core
// ---------------------------------------------------------------------------

/// Per-attempt executor a test can install in place of
/// [`run_native_cached`] (gating points on flags makes shed/drain tests
/// deterministic instead of timing-dependent).
pub type PointRunner = dyn Fn(&ExperimentSpec, u32) -> PointResult + Send + Sync;

/// One admitted campaign: the specs, its cancel token, its event hub,
/// and progress counters.
struct CampaignEntry {
    id: usize,
    /// The request this campaign was admitted with (persisted verbatim in
    /// [`SERVICE_FILE`], so a terminal record keeps the tenant's axes).
    request: CampaignRequest,
    dir: PathBuf,
    specs: Vec<ExperimentSpec>,
    hashes: Vec<u64>,
    token: CancelToken,
    hub: EventHub,
    /// Points not yet executed or abandoned; reconciled into the global
    /// queue depth when the worker exits.
    outstanding: AtomicUsize,
    progress: Mutex<EntryProgress>,
    started: Instant,
}

struct EntryProgress {
    state: CampaignState,
    done: usize,
    failed: usize,
    restored: usize,
    wall_s: f64,
    user_canceled: bool,
    critical_path: Option<eth_obs::CriticalPathSummary>,
}

impl CampaignEntry {
    fn state(&self) -> CampaignState {
        lock_recover(&self.progress).state
    }

    fn status(&self) -> CampaignStatus {
        let p = lock_recover(&self.progress);
        CampaignStatus {
            id: self.id,
            tenant: self.request.tenant.clone(),
            state: p.state.name().to_string(),
            points_total: self.specs.len(),
            points_done: p.done,
            points_failed: p.failed,
            points_restored: p.restored,
            dropped_events: self.hub.dropped_total(),
            wall_s: if p.state == CampaignState::Running {
                self.started.elapsed().as_secs_f64()
            } else {
                p.wall_s
            },
            critical_path: p.critical_path.clone(),
        }
    }
}

struct ServiceState {
    entries: Vec<Arc<CampaignEntry>>,
    /// Unfinished points across all running campaigns (admission bound).
    queued_points: usize,
    /// Live campaign worker threads ([`Service::drain`] waits for 0).
    active: usize,
    next_id: usize,
}

impl ServiceState {
    /// Running campaigns `tenant` holds (the per-tenant admission count).
    fn tenant_inflight(&self, tenant: &str) -> usize {
        self.entries
            .iter()
            .filter(|e| e.request.tenant == tenant && e.state() == CampaignState::Running)
            .count()
    }
}

struct ServiceInner {
    root: PathBuf,
    policy: ServicePolicy,
    /// Process-lifetime anchor for the `/metrics` uptime gauge.
    started: Instant,
    /// Scheduler slots each campaign's [`Campaign`] runs with.
    slots: AtomicUsize,
    /// One cache set for the whole service: staging shared across
    /// campaigns *and* tenants.
    caches: RunCaches,
    /// Cross-tenant result memo keyed by [`journal::spec_hash`]. The
    /// per-key mutex makes the first requester compute while identical
    /// concurrent requesters block, then share the `Arc`'d outcome.
    #[allow(clippy::type_complexity)]
    memo: Mutex<HashMap<u64, Arc<Mutex<Option<Arc<NativeOutcome>>>>>>,
    state: Mutex<ServiceState>,
    /// Notified whenever a campaign worker exits (drain waits on this).
    wake: Condvar,
    metrics: Mutex<CounterSet>,
    /// Campaign telemetry merged across every finished campaign,
    /// exported under `eth_campaign_` from `/metrics`.
    campaign_metrics: Mutex<CounterSet>,
    draining: Arc<AtomicBool>,
    runner_override: Mutex<Option<Arc<PointRunner>>>,
}

/// The campaign service (cheap to clone; all clones share one state).
#[derive(Clone)]
pub struct Service {
    inner: Arc<ServiceInner>,
}

impl Service {
    /// Open (or create) a service rooted at `root`. Campaign journals
    /// live in `root/campaign-NNNN/`. Call [`Service::resume_existing`]
    /// to pick up campaigns a previous process left unfinished.
    pub fn new(root: &Path, policy: ServicePolicy) -> Result<Service> {
        fs::create_dir_all(root)?;
        let slots = thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
        Ok(Service {
            inner: Arc::new(ServiceInner {
                root: root.to_path_buf(),
                policy,
                started: Instant::now(),
                slots: AtomicUsize::new(slots),
                caches: RunCaches::new(),
                memo: Mutex::new(HashMap::new()),
                state: Mutex::new(ServiceState {
                    entries: Vec::new(),
                    queued_points: 0,
                    active: 0,
                    next_id: 0,
                }),
                wake: Condvar::new(),
                metrics: Mutex::new(CounterSet::new()),
                campaign_metrics: Mutex::new(CounterSet::new()),
                draining: Arc::new(AtomicBool::new(false)),
                runner_override: Mutex::new(None),
            }),
        })
    }

    /// Override the per-campaign scheduler slot budget (defaults to this
    /// host's available parallelism). Every clone of the service sees it;
    /// campaigns admitted afterwards run with it.
    pub fn with_slots(self, slots: usize) -> Service {
        self.inner.slots.store(slots.max(1), Ordering::SeqCst);
        self
    }

    pub fn policy(&self) -> &ServicePolicy {
        &self.inner.policy
    }

    pub fn is_draining(&self) -> bool {
        self.inner.draining.load(Ordering::SeqCst)
    }

    /// Unfinished points across all running campaigns.
    pub fn queue_depth(&self) -> usize {
        lock_recover(&self.inner.state).queued_points
    }

    /// Install a test executor in place of the real renderer. Test-only
    /// hook: lets shed/drain tests gate points on flags instead of
    /// timing.
    #[doc(hidden)]
    pub fn set_test_runner(&self, runner: Arc<PointRunner>) {
        *lock_recover(&self.inner.runner_override) = Some(runner);
    }

    /// The shared draining flag (test hook: lets a gated runner release
    /// points exactly when a drain begins, without polling the service
    /// through an `Arc` cycle).
    #[doc(hidden)]
    pub fn draining_flag(&self) -> Arc<AtomicBool> {
        self.inner.draining.clone()
    }

    /// Submit a campaign. Admission is all-or-nothing and synchronous:
    /// on `Ok` the campaign is journaled and its worker is running; on
    /// `Err` nothing was enqueued.
    pub fn submit(&self, req: &CampaignRequest) -> std::result::Result<CampaignStatus, AdmissionError> {
        if self.is_draining() {
            self.add_metric("draining_rejected_total", 1.0);
            return Err(AdmissionError::Draining);
        }
        if req.tenant.trim().is_empty() {
            return Err(AdmissionError::Invalid("tenant must be non-empty".into()));
        }
        // Memory-pressure shedding: above the high watermark the service
        // stops taking on staging work at all — clients get 429 with a
        // Retry-After hint instead of the process inching toward OOM.
        if let Some(high) = self
            .inner
            .policy
            .resources
            .as_ref()
            .and_then(|r| r.high_threshold_bytes())
        {
            let resident = self.inner.caches.accountant().resident_bytes();
            if resident >= high {
                self.add_metric("memory_pressure_shed_total", 1.0);
                return Err(self.shed(&format!(
                    "memory pressure: {resident} staged bytes resident, \
                     high watermark {high}"
                )));
            }
        }
        let specs = req
            .specs()
            .map_err(|e| AdmissionError::Invalid(e.to_string()))?;

        let entry = {
            let mut st = lock_recover(&self.inner.state);
            let inflight = st.tenant_inflight(&req.tenant);
            if inflight >= self.inner.policy.per_tenant_inflight {
                drop(st);
                return Err(self.shed(&format!(
                    "tenant {} already has {inflight} campaigns in flight",
                    req.tenant
                )));
            }
            if st.queued_points + specs.len() > self.inner.policy.max_queued_points {
                let queued = st.queued_points;
                drop(st);
                return Err(self.shed(&format!(
                    "queue holds {queued} points; {} more would exceed the bound of {}",
                    specs.len(),
                    self.inner.policy.max_queued_points
                )));
            }
            let id = st.next_id;
            st.next_id += 1;
            let dir = self.campaign_dir(id);
            if let Err(e) = self.write_record(&dir, id, req, false) {
                st.next_id = id; // roll the id back; nothing was admitted
                drop(st);
                return Err(AdmissionError::Io(e));
            }
            let entry = self.make_entry(id, req, specs, dir);
            self.admit(st, entry.clone(), "admitted_campaigns_total");
            entry
        };
        Ok(entry.status())
    }

    /// Scan the root for campaigns a previous process left unfinished
    /// and restart each one against its existing journal (finished
    /// points restore byte-identical; only the remainder re-runs).
    /// Returns the resumed campaign ids.
    pub fn resume_existing(&self) -> Result<Vec<usize>> {
        let mut dirs: Vec<PathBuf> = fs::read_dir(&self.inner.root)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| {
                p.is_dir()
                    && p.file_name()
                        .and_then(|n| n.to_str())
                        .is_some_and(|n| n.starts_with(CAMPAIGN_DIR_PREFIX))
            })
            .collect();
        dirs.sort();
        let mut resumed = Vec::new();
        for dir in dirs {
            let record_path = dir.join(SERVICE_FILE);
            let Ok(text) = fs::read_to_string(&record_path) else {
                continue; // crashed before the admission record: nothing to resume
            };
            let record: ServiceRecord = match serde_json::from_str(&text) {
                Ok(r) => r,
                Err(_) => {
                    self.add_metric("resume_skipped_total", 1.0);
                    continue;
                }
            };
            {
                let mut st = lock_recover(&self.inner.state);
                st.next_id = st.next_id.max(record.id + 1);
            }
            if record.done {
                // Terminal history: register so status endpoints still
                // answer for it, but do not re-run anything.
                if let Some(entry) = self.restore_terminal(&dir, &record) {
                    lock_recover(&self.inner.state).entries.push(entry);
                }
                continue;
            }
            let specs = record.request.specs()?;
            let entry = self.make_entry(record.id, &record.request, specs, dir);
            resumed.push(entry.id);
            let st = lock_recover(&self.inner.state);
            self.admit(st, entry, "resumed_campaigns_total");
        }
        Ok(resumed)
    }

    pub fn status(&self, id: usize) -> Option<CampaignStatus> {
        self.entry(id).map(|e| e.status())
    }

    pub fn list(&self) -> Vec<CampaignStatus> {
        let mut all: Vec<CampaignStatus> = lock_recover(&self.inner.state)
            .entries
            .iter()
            .map(|e| e.status())
            .collect();
        all.sort_by_key(|s| s.id);
        all
    }

    /// Tenant-initiated cancellation (terminal; not resumed on restart).
    pub fn cancel(&self, id: usize) -> bool {
        let Some(entry) = self.entry(id) else {
            return false;
        };
        {
            let mut p = lock_recover(&entry.progress);
            if p.state != CampaignState::Running {
                return false;
            }
            p.user_canceled = true;
        }
        entry.token.cancel();
        self.add_metric("canceled_campaigns_total", 1.0);
        true
    }

    /// Subscribe to a campaign's SSE event stream.
    pub fn subscribe(&self, id: usize) -> Option<Arc<Subscriber>> {
        let entry = self.entry(id)?;
        let sub = entry.hub.subscribe();
        // Seed the stream so a subscriber always sees current state
        // immediately, even if it arrived after the last point finished.
        let status = serde_json::to_string(&entry.status()).unwrap_or_default();
        {
            let mut q = lock_recover(&sub.queue);
            q.events.push_front(Event {
                name: "status".to_string(),
                data: status,
            });
            if entry.state() != CampaignState::Running {
                q.closed = true;
            }
        }
        sub.cv.notify_all();
        Some(sub)
    }

    /// Drop an SSE subscription; with `cancel_on_disconnect`, losing the
    /// last subscriber mid-run cancels the campaign (it stays resumable).
    pub fn unsubscribe(&self, id: usize, sub: &Arc<Subscriber>, disconnected: bool) {
        let Some(entry) = self.entry(id) else {
            return;
        };
        let remaining = entry.hub.unsubscribe(sub);
        if disconnected
            && entry.request.cancel_on_disconnect
            && remaining == 0
            && entry.state() == CampaignState::Running
        {
            entry.token.cancel();
            self.add_metric("disconnect_cancels_total", 1.0);
        }
    }

    /// PNG-encode the first finished image of point `index` (loads the
    /// journaled result, so it works during *and* after the campaign —
    /// and after a restart).
    pub fn point_png(&self, id: usize, index: usize) -> Option<Vec<u8>> {
        let entry = self.entry(id)?;
        let spec = entry.specs.get(index)?;
        let outcome = journal::load_result(&entry.dir, index, entry.hashes[index], spec).ok()?;
        outcome.images.first().map(|img| img.to_png())
    }

    /// Stop admission, cancel every running campaign (in-flight points
    /// finish and journal; queued points are abandoned), and wait up to
    /// `drain_timeout_ms` for workers to exit. Idempotent.
    pub fn drain(&self) -> DrainReport {
        let t0 = Instant::now();
        self.inner.draining.store(true, Ordering::SeqCst);
        let timeout = Duration::from_millis(self.inner.policy.drain_timeout_ms);
        {
            let st = lock_recover(&self.inner.state);
            for entry in &st.entries {
                if entry.state() == CampaignState::Running {
                    entry.token.cancel();
                }
            }
        }
        let mut st = lock_recover(&self.inner.state);
        let timed_out = loop {
            if st.active == 0 {
                break false;
            }
            let Some(left) = timeout.checked_sub(t0.elapsed()) else {
                break true;
            };
            let (guard, _) = self
                .inner
                .wake
                .wait_timeout(st, left)
                .unwrap_or_else(PoisonError::into_inner);
            st = guard;
        };
        let mut report = DrainReport {
            campaigns_total: st.entries.len(),
            completed: 0,
            interrupted: 0,
            canceled: 0,
            failed: 0,
            still_running: 0,
            timed_out,
            wall_s: t0.elapsed().as_secs_f64(),
        };
        for entry in &st.entries {
            match entry.state() {
                CampaignState::Done => report.completed += 1,
                CampaignState::Interrupted => report.interrupted += 1,
                CampaignState::Canceled => report.canceled += 1,
                CampaignState::Failed => report.failed += 1,
                CampaignState::Running => report.still_running += 1,
            }
        }
        drop(st);
        lock_recover(&self.inner.metrics).set("drains_total", 1.0);
        report
    }

    /// `/metrics` body: service counters under `eth_serve_`, merged
    /// campaign telemetry under `eth_campaign_`.
    pub fn metrics_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = counters_to_prometheus("eth_serve_", &lock_recover(&self.inner.metrics));
        out.push_str(&counters_to_prometheus(
            "eth_campaign_",
            &lock_recover(&self.inner.campaign_metrics),
        ));
        let _ = writeln!(
            out,
            "# HELP eth_serve_process_uptime_seconds Seconds since this service started.\n\
             # TYPE eth_serve_process_uptime_seconds gauge\n\
             eth_serve_process_uptime_seconds {:.3}",
            self.inner.started.elapsed().as_secs_f64()
        );
        let _ = writeln!(
            out,
            "# HELP eth_serve_build_info Build metadata as labels; value is always 1.\n\
             # TYPE eth_serve_build_info gauge\n\
             eth_serve_build_info{{version=\"{}\"}} 1",
            crate::telemetry::escape_label_value(env!("CARGO_PKG_VERSION"))
        );
        // Pressure gauges straight from the service's own staging byte
        // accountant (the number `submit` sheds on), so backpressure is
        // observable where operators already look.
        let staged = self.inner.caches.accountant();
        let _ = writeln!(
            out,
            "# HELP eth_serve_staging_resident_bytes Staged blocks resident in this service's caches.\n\
             # TYPE eth_serve_staging_resident_bytes gauge\n\
             eth_serve_staging_resident_bytes {}",
            staged.resident_bytes()
        );
        let _ = writeln!(
            out,
            "# HELP eth_serve_staging_spilled_bytes_total Staged bytes this service spilled to disk chunks.\n\
             # TYPE eth_serve_staging_spilled_bytes_total counter\n\
             eth_serve_staging_spilled_bytes_total {}",
            staged.spilled_bytes()
        );
        out
    }

    /// The stitched Chrome-trace JSON a finished campaign persisted, if
    /// its worker recorded any spans (`GET /campaigns/{id}/trace`).
    pub fn campaign_trace(&self, id: usize) -> Option<Vec<u8>> {
        let entry = self.entry(id)?;
        fs::read(entry.dir.join(TRACE_FILE)).ok()
    }

    // -- internals ----------------------------------------------------------

    fn entry(&self, id: usize) -> Option<Arc<CampaignEntry>> {
        lock_recover(&self.inner.state)
            .entries
            .iter()
            .find(|e| e.id == id)
            .cloned()
    }

    fn campaign_dir(&self, id: usize) -> PathBuf {
        self.inner.root.join(format!("{CAMPAIGN_DIR_PREFIX}{id:04}"))
    }

    fn shed(&self, reason: &str) -> AdmissionError {
        self.add_metric("shed_total", 1.0);
        // Crude but monotone: the deeper the queue, the longer the hint.
        let retry_after_s = 1 + (self.queue_depth() / self.slots()) as u64;
        AdmissionError::Shed {
            retry_after_s,
            reason: reason.to_string(),
        }
    }

    fn write_record(&self, dir: &Path, id: usize, req: &CampaignRequest, done: bool) -> Result<()> {
        fs::create_dir_all(dir)?;
        let record = ServiceRecord {
            id,
            request: req.clone(),
            done,
        };
        let text = serde_json::to_string_pretty(&record)
            .map_err(|e| CoreError::Config(format!("serialize service record: {e}")))?;
        fs::write(dir.join(SERVICE_FILE), text)?;
        Ok(())
    }

    fn make_entry(
        &self,
        id: usize,
        req: &CampaignRequest,
        specs: Vec<ExperimentSpec>,
        dir: PathBuf,
    ) -> Arc<CampaignEntry> {
        let hashes = specs.iter().map(journal::spec_hash).collect();
        let outstanding = AtomicUsize::new(specs.len());
        Arc::new(CampaignEntry {
            id,
            request: req.clone(),
            dir,
            specs,
            hashes,
            token: CancelToken::new(),
            hub: EventHub::new(self.inner.policy.subscriber_buffer),
            outstanding,
            progress: Mutex::new(EntryProgress {
                state: CampaignState::Running,
                done: 0,
                failed: 0,
                restored: 0,
                wall_s: 0.0,
                user_canceled: false,
                critical_path: None,
            }),
            started: Instant::now(),
        })
    }

    /// Rebuild a terminal entry from its persisted summary (restart).
    fn restore_terminal(&self, dir: &Path, record: &ServiceRecord) -> Option<Arc<CampaignEntry>> {
        let specs = record.request.specs().ok()?;
        let entry = self.make_entry(record.id, &record.request, specs, dir.to_path_buf());
        entry.outstanding.store(0, Ordering::SeqCst);
        let summary: Option<CampaignStatus> = fs::read_to_string(dir.join(OUTCOME_FILE))
            .ok()
            .and_then(|t| serde_json::from_str(&t).ok());
        {
            let mut p = lock_recover(&entry.progress);
            match summary {
                Some(s) => {
                    p.state = match s.state.as_str() {
                        "canceled" => CampaignState::Canceled,
                        "failed" => CampaignState::Failed,
                        _ => CampaignState::Done,
                    };
                    p.done = s.points_done;
                    p.failed = s.points_failed;
                    p.restored = s.points_restored;
                    p.wall_s = s.wall_s;
                    p.critical_path = s.critical_path;
                }
                None => p.state = CampaignState::Done,
            }
        }
        Some(entry)
    }

    /// Execute one point through the cross-tenant dedupe memo: the first
    /// requester of a spec hash computes (holding the per-key slot), and
    /// every identical concurrent or later request shares the outcome.
    fn run_point(&self, spec: &ExperimentSpec, attempt: u32, caches: &RunCaches) -> PointResult {
        let exec = || match lock_recover(&self.inner.runner_override).clone() {
            Some(runner) => runner(spec, attempt),
            None => run_attempt(spec, attempt, caches),
        };
        if attempt > 1 {
            // Retried attempts run a perturbed spec; never memoized.
            return exec();
        }
        let key = journal::spec_hash(spec);
        let slot = lock_recover(&self.inner.memo)
            .entry(key)
            .or_default()
            .clone();
        let mut guard = lock_recover(&slot);
        if let Some(hit) = guard.as_ref() {
            self.add_metric("dedupe_hits_total", 1.0);
            return Ok((**hit).clone());
        }
        self.add_metric("dedupe_misses_total", 1.0);
        let result = exec();
        if let Ok(outcome) = &result {
            *guard = Some(Arc::new(outcome.clone()));
        }
        result
    }

    fn slots(&self) -> usize {
        self.inner.slots.load(Ordering::SeqCst)
    }

    /// Admission bookkeeping, the one way a campaign starts counting:
    /// its points join the queue bound, it becomes a live worker, the
    /// gauges follow, and the worker starts. Takes the state guard so
    /// `submit` can check its bounds and admit atomically.
    fn admit(&self, mut st: MutexGuard<'_, ServiceState>, entry: Arc<CampaignEntry>, counter: &str) {
        st.queued_points += entry.specs.len();
        st.active += 1;
        st.entries.push(entry.clone());
        self.sync_gauges(&st, &entry.request.tenant);
        drop(st);
        self.add_metric(counter, 1.0);
        self.spawn_worker(entry);
    }

    /// The inverse of [`Service::admit`], run exactly once per admitted
    /// campaign when its worker is over, in an order that makes what
    /// observers see imply what is on disk: first the terminal record and
    /// summary become durable; only then does the entry's state leave
    /// `Running` (so a status poll that reads "done" can restart the
    /// service and find `done: true`); subscribers are told; and last the
    /// campaign stops counting as live and [`Service::drain`] is woken, so
    /// a drain that returns un-timed-out finds every epilogue on disk.
    fn retire(&self, entry: &CampaignEntry, state: CampaignState) {
        let mut status = entry.status();
        status.state = state.name().to_string();
        if state.is_terminal() {
            let _ = self.write_record(&entry.dir, entry.id, &entry.request, true);
        }
        if let Ok(text) = serde_json::to_string_pretty(&status) {
            let _ = fs::write(entry.dir.join(OUTCOME_FILE), text);
        }
        {
            let mut p = lock_recover(&entry.progress);
            p.wall_s = status.wall_s;
            p.state = state;
        }
        entry.hub.publish_json("campaign-done", &status);
        entry.hub.close_all();
        let mut st = lock_recover(&self.inner.state);
        // Points never executed (abandoned, or restored without running).
        st.queued_points = st.queued_points.saturating_sub(entry.outstanding.swap(0, Ordering::SeqCst));
        st.active = st.active.saturating_sub(1);
        self.sync_gauges(&st, &entry.request.tenant);
        drop(st);
        self.inner.wake.notify_all();
    }

    /// Publish the admission gauges from `st` (the caller holds the state
    /// lock, so a reader that saw the state change sees the gauges too).
    fn sync_gauges(&self, st: &ServiceState, tenant: &str) {
        let mut metrics = lock_recover(&self.inner.metrics);
        metrics.set("queue_depth_points", st.queued_points as f64);
        metrics.set("inflight_campaigns", st.active as f64);
        metrics.set(&format!("inflight_tenant_{tenant}"), st.tenant_inflight(tenant) as f64);
    }

    fn spawn_worker(&self, entry: Arc<CampaignEntry>) {
        let service = self.clone();
        let name = format!("eth-serve-campaign-{}", entry.id);
        let worker_entry = entry.clone();
        let spawn = thread::Builder::new().name(name).spawn(move || {
            let entry = worker_entry;
            let state = catch_unwind(AssertUnwindSafe(|| service.run_campaign(&entry)))
                .unwrap_or_else(|_| {
                    service.add_metric("worker_panics_total", 1.0);
                    CampaignState::Failed
                });
            service.retire(&entry, state);
        });
        if spawn.is_err() {
            // Could not start the worker: undo the admission bookkeeping
            // so drain and the queue bound don't wait on a ghost.
            self.add_metric("worker_spawn_failures_total", 1.0);
            self.retire(&entry, CampaignState::Failed);
        }
    }

    /// Run `entry`'s campaign to its end and return the state it ended in
    /// ([`Service::retire`] publishes it once it is durable).
    fn run_campaign(&self, entry: &CampaignEntry) -> CampaignState {
        entry.hub.publish_json("campaign-started", &entry.status());
        let mut campaign =
            Campaign::with_capacity(self.slots()).with_cancel_token(entry.token.clone());
        if let Some(resources) = &self.inner.policy.resources {
            campaign = campaign.with_resources(resources.clone());
        }
        let runner = |index: usize, spec: &ExperimentSpec, attempt: u32, caches: &RunCaches| {
            let event = |ok: bool, wall_s: f64| PointEvent {
                index,
                name: spec.name.clone(),
                ok,
                wall_s,
            };
            entry.hub.publish_json("point-started", &event(true, 0.0));
            let t0 = Instant::now();
            let point = self.run_point(spec, attempt, caches);
            // One fewer unfinished point, globally and for this entry.
            let _ = entry
                .outstanding
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1));
            {
                let mut st = lock_recover(&self.inner.state);
                st.queued_points = st.queued_points.saturating_sub(1);
                self.sync_gauges(&st, &entry.request.tenant);
            }
            let wall_s = t0.elapsed().as_secs_f64();
            self.observe_metric("point_s", wall_s);
            match &point {
                Ok(outcome) => {
                    lock_recover(&entry.progress).done += 1;
                    entry.hub.publish_json("point-finished", &event(true, wall_s));
                    if let Some(image) = outcome.images.first() {
                        let image = ImageEvent {
                            index,
                            width: image.width(),
                            height: image.height(),
                            png_base64: base64(&image.to_png()),
                        };
                        entry.hub.publish_json("image", &image);
                    }
                }
                Err(e) => {
                    if !matches!(e, CoreError::Canceled) {
                        lock_recover(&entry.progress).failed += 1;
                    }
                    entry.hub.publish_json("point-failed", &event(false, wall_s));
                }
            }
            point
        };
        let result =
            campaign.execute(&entry.specs, &self.inner.caches, Some(&entry.dir), Some(&runner));
        match result {
            Err(e) => {
                self.add_metric("failed_campaigns_total", 1.0);
                entry.hub.publish_json("error", &ErrorEvent { message: e.to_string() });
                CampaignState::Failed
            }
            Ok(outcome) => {
                let mut p = lock_recover(&entry.progress);
                let interrupted = outcome
                    .results
                    .iter()
                    .any(|r| matches!(r, Err(CoreError::Canceled)));
                let done = outcome.results.iter().filter(|r| r.is_ok()).count();
                let failed = outcome
                    .results
                    .iter()
                    .filter(|r| matches!(r, Err(e) if !matches!(e, CoreError::Canceled)))
                    .count();
                p.done = done;
                p.failed = failed;
                p.restored = outcome.restored.len();
                let state = if p.user_canceled {
                    CampaignState::Canceled
                } else if interrupted {
                    CampaignState::Interrupted
                } else {
                    CampaignState::Done
                };
                drop(p);
                if state == CampaignState::Interrupted {
                    self.add_metric("interrupted_campaigns_total", 1.0);
                } else if state == CampaignState::Done {
                    self.add_metric("completed_campaigns_total", 1.0);
                }
                lock_recover(&self.inner.campaign_metrics).merge(&outcome.telemetry.counters);
                entry.hub.publish_json("telemetry", &outcome.telemetry.counters);
                // Stitch the campaign's cross-rank trace: persist the
                // Perfetto view for `GET /campaigns/{id}/trace` and carry
                // the critical-path summary onto the terminal status.
                if !outcome.trace.records.is_empty() {
                    let merged = eth_obs::MergedTrace::build(outcome.trace);
                    let _ = fs::write(entry.dir.join(TRACE_FILE), merged.to_chrome_trace());
                    if let Some(cp) = merged.critical_path {
                        lock_recover(&entry.progress).critical_path = Some(cp);
                    }
                }
                state
            }
        }
    }

    fn add_metric(&self, name: &str, v: f64) {
        lock_recover(&self.inner.metrics).add(name, v);
    }

    fn observe_metric(&self, name: &str, v: f64) {
        lock_recover(&self.inner.metrics).observe(name, v);
    }
}

#[derive(Serialize)]
struct ErrorEvent {
    message: String,
}

#[derive(Serialize)]
struct PointEvent {
    index: usize,
    name: String,
    ok: bool,
    wall_s: f64,
}

#[derive(Serialize)]
struct ImageEvent {
    index: usize,
    width: usize,
    height: usize,
    png_base64: String,
}

// ---------------------------------------------------------------------------
// HTTP server (hand-rolled on std TCP)
// ---------------------------------------------------------------------------

/// The HTTP front of a [`Service`]: one accept thread, one thread per
/// connection, panic-contained handlers, per-request read deadlines.
pub struct Server {
    service: Service,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<thread::JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and start
    /// serving `service` in background threads.
    pub fn start(service: Service, addr: &str) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept = {
            let service = service.clone();
            let stop = stop.clone();
            thread::Builder::new()
                .name("eth-serve-accept".to_string())
                .spawn(move || accept_loop(listener, service, stop))?
        };
        Ok(Server {
            service,
            addr: local,
            stop,
            accept: Some(accept),
        })
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn service(&self) -> &Service {
        &self.service
    }

    /// Stop accepting connections (existing SSE streams run to their
    /// campaign's end on their own threads). Idempotent.
    pub fn shutdown(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, service: Service, stop: Arc<AtomicBool>) {
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = conn else { continue };
        let service = service.clone();
        let _ = thread::Builder::new()
            .name("eth-serve-conn".to_string())
            .spawn(move || handle_connection(service, stream));
    }
}

/// Panic containment boundary: a handler panic becomes a 500 and a
/// counter, never a dead server.
fn handle_connection(service: Service, stream: TcpStream) {
    let spare = stream.try_clone().ok();
    let outcome = catch_unwind(AssertUnwindSafe(|| handle_request(&service, stream)));
    if outcome.is_err() {
        service.add_metric("connection_panics_total", 1.0);
        if let Some(mut s) = spare {
            let _ = write_response(
                &mut s,
                &Response::error(500, "internal server error"),
            );
        }
    }
}

struct Request {
    method: String,
    path: String,
    body: Vec<u8>,
}

enum RequestError {
    /// The read deadline expired mid-request (408).
    Timeout,
    /// Head or body exceeded its bound (431/413).
    TooLarge,
    /// Unparseable request (400).
    Bad(&'static str),
    /// The client closed before sending anything; not an error.
    Closed,
}

struct Response {
    status: u16,
    content_type: &'static str,
    body: Vec<u8>,
    retry_after: Option<u64>,
}

impl Response {
    fn json(status: u16, body: &str) -> Response {
        Response {
            status,
            content_type: "application/json",
            body: body.as_bytes().to_vec(),
            retry_after: None,
        }
    }

    /// `{"error": message}` with `status`.
    fn error(status: u16, message: impl Into<String>) -> Response {
        #[derive(Serialize)]
        struct ErrorBody {
            error: String,
        }
        let body = ErrorBody { error: message.into() };
        Response::json(status, &serde_json::to_string(&body).unwrap_or_default())
    }

    fn text(status: u16, body: &str) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.as_bytes().to_vec(),
            retry_after: None,
        }
    }
}

fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "OK",
    }
}

fn write_response(stream: &mut TcpStream, resp: &Response) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
        resp.status,
        status_reason(resp.status),
        resp.content_type,
        resp.body.len()
    );
    if let Some(secs) = resp.retry_after {
        head.push_str(&format!("Retry-After: {secs}\r\n"));
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(&resp.body)?;
    stream.flush()
}

/// Read one HTTP/1.1 request (head ≤ 16 KiB, body ≤ 4 MiB) under a
/// wall-clock deadline enforced through socket read timeouts.
fn read_request(stream: &mut TcpStream, deadline: Duration) -> std::result::Result<Request, RequestError> {
    let t0 = Instant::now();
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 1024];
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf) {
            break pos;
        }
        if buf.len() > MAX_HEAD_BYTES {
            return Err(RequestError::TooLarge);
        }
        let Some(left) = deadline.checked_sub(t0.elapsed()) else {
            return Err(RequestError::Timeout);
        };
        let _ = stream.set_read_timeout(Some(left.max(Duration::from_millis(1))));
        match stream.read(&mut chunk) {
            Ok(0) => {
                return if buf.is_empty() {
                    Err(RequestError::Closed)
                } else {
                    Err(RequestError::Bad("truncated request head"))
                };
            }
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
                return Err(RequestError::Timeout);
            }
            Err(_) => return Err(RequestError::Closed),
        }
    };

    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| RequestError::Bad("non-utf8 head"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let method = parts.next().ok_or(RequestError::Bad("missing method"))?.to_string();
    let path = parts.next().ok_or(RequestError::Bad("missing path"))?.to_string();
    let mut content_length = 0usize;
    for line in lines {
        if let Some((k, v)) = line.split_once(':') {
            if k.trim().eq_ignore_ascii_case("content-length") {
                content_length = v.trim().parse().map_err(|_| RequestError::Bad("bad content-length"))?;
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(RequestError::TooLarge);
    }

    let mut body: Vec<u8> = buf[head_end + 4..].to_vec();
    while body.len() < content_length {
        let Some(left) = deadline.checked_sub(t0.elapsed()) else {
            return Err(RequestError::Timeout);
        };
        let _ = stream.set_read_timeout(Some(left.max(Duration::from_millis(1))));
        match stream.read(&mut chunk) {
            Ok(0) => return Err(RequestError::Bad("truncated body")),
            Ok(n) => body.extend_from_slice(&chunk[..n]),
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
                return Err(RequestError::Timeout);
            }
            Err(_) => return Err(RequestError::Closed),
        }
    }
    body.truncate(content_length);
    Ok(Request { method, path, body })
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn handle_request(service: &Service, mut stream: TcpStream) {
    let t0 = Instant::now();
    let deadline = Duration::from_millis(service.policy().request_deadline_ms.max(1));
    let request = match read_request(&mut stream, deadline) {
        Ok(r) => r,
        Err(RequestError::Closed) => return,
        Err(RequestError::Timeout) => {
            service.add_metric("deadline_expired_total", 1.0);
            let _ = write_response(&mut stream, &Response::error(408, "request deadline exceeded"));
            return;
        }
        Err(RequestError::TooLarge) => {
            let _ = write_response(&mut stream, &Response::error(413, "request too large"));
            return;
        }
        Err(RequestError::Bad(msg)) => {
            let _ = write_response(&mut stream, &Response::error(400, msg));
            return;
        }
    };
    service.add_metric("requests_total", 1.0);
    let path_only = request.path.split('?').next().unwrap_or("");
    let segments: Vec<&str> = path_only.split('/').filter(|s| !s.is_empty()).collect();

    // SSE is the one route that streams instead of returning a response.
    if request.method == "GET" && segments.len() == 3 && segments[0] == "campaigns" && segments[2] == "events" {
        if let Ok(id) = segments[1].parse::<usize>() {
            if service.entry(id).is_some() {
                handle_sse(service, id, stream);
                return;
            }
        }
        let _ = write_response(&mut stream, &Response::error(404, "no such campaign"));
        return;
    }

    let response = route(service, &request, &segments);
    service.observe_metric("request_s", t0.elapsed().as_secs_f64());
    let _ = write_response(&mut stream, &response);
}

fn route(service: &Service, request: &Request, segments: &[&str]) -> Response {
    match (request.method.as_str(), segments) {
        ("GET", ["healthz"]) => Response::text(200, "ok\n"),
        ("GET", ["readyz"]) => {
            if service.is_draining() {
                Response::text(503, "draining\n")
            } else {
                Response::text(200, "ready\n")
            }
        }
        ("GET", ["metrics"]) => Response::text(200, &service.metrics_text()),
        ("POST", ["campaigns"]) => {
            let body = match std::str::from_utf8(&request.body) {
                Ok(s) => s,
                Err(_) => return Response::error(400, "body is not utf-8"),
            };
            let req: CampaignRequest = match serde_json::from_str(body) {
                Ok(r) => r,
                Err(e) => return Response::error(400, format!("bad campaign request: {e}")),
            };
            match service.submit(&req) {
                Ok(status) => Response::json(
                    201,
                    &serde_json::to_string(&status).unwrap_or_else(|_| "{}".to_string()),
                ),
                Err(AdmissionError::Draining) => Response::error(503, "service is draining"),
                Err(AdmissionError::Shed { retry_after_s, reason }) => Response {
                    retry_after: Some(retry_after_s),
                    ..Response::error(429, reason)
                },
                Err(AdmissionError::Invalid(msg)) => Response::error(400, msg),
                Err(AdmissionError::Io(e)) => Response::error(500, e.to_string()),
            }
        }
        ("GET", ["campaigns"]) => Response::json(
            200,
            &serde_json::to_string(&service.list()).unwrap_or_else(|_| "[]".to_string()),
        ),
        ("GET", ["campaigns", id]) => match id.parse::<usize>().ok().and_then(|id| service.status(id)) {
            Some(status) => Response::json(
                200,
                &serde_json::to_string(&status).unwrap_or_else(|_| "{}".to_string()),
            ),
            None => Response::error(404, "no such campaign"),
        },
        ("DELETE", ["campaigns", id]) => match id.parse::<usize>() {
            Ok(id) if service.cancel(id) => Response::json(202, "{\"canceled\":true}"),
            Ok(id) if service.status(id).is_some() => {
                Response::error(409, "campaign is not running")
            }
            _ => Response::error(404, "no such campaign"),
        },
        ("GET", ["campaigns", id, "trace"]) => {
            match id.parse::<usize>().ok().and_then(|id| service.campaign_trace(id)) {
                Some(body) => Response {
                    status: 200,
                    content_type: "application/json",
                    body,
                    retry_after: None,
                },
                None => Response::error(404, "campaign has no stitched trace"),
            }
        }
        ("GET", ["campaigns", id, "points", index, "image"]) => {
            match (id.parse::<usize>(), index.parse::<usize>()) {
                (Ok(id), Ok(index)) => match service.point_png(id, index) {
                    Some(png) => Response {
                        status: 200,
                        content_type: "image/png",
                        body: png,
                        retry_after: None,
                    },
                    None => Response::error(404, "point has no finished image"),
                },
                _ => Response::error(404, "bad campaign or point id"),
            }
        }
        ("POST", ["drain"]) => {
            let report = service.drain();
            Response::json(
                200,
                &serde_json::to_string(&report).unwrap_or_else(|_| "{}".to_string()),
            )
        }
        _ => Response::error(404, "no such route"),
    }
}

/// Stream a campaign's events as SSE until the campaign ends or the
/// client disconnects. Writes go through a short write timeout so a
/// stalled client is detected within ~2 ticks; the subscriber's bounded
/// queue means the scheduler never waits on this socket.
fn handle_sse(service: &Service, id: usize, mut stream: TcpStream) {
    let Some(sub) = service.subscribe(id) else {
        let _ = write_response(&mut stream, &Response::error(404, "no such campaign"));
        return;
    };
    service.add_metric("sse_subscribers_total", 1.0);
    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
    let head = "HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\nCache-Control: no-cache\r\nConnection: close\r\n\r\n";
    let mut disconnected = stream.write_all(head.as_bytes()).is_err();
    while !disconnected {
        match sub.next(SSE_TICK) {
            Next::Event(ev) => {
                let frame = format!("event: {}\ndata: {}\n\n", ev.name, ev.data);
                disconnected = stream.write_all(frame.as_bytes()).is_err() || stream.flush().is_err();
            }
            Next::Idle => {
                disconnected = stream.write_all(b": keepalive\n\n").is_err() || stream.flush().is_err();
            }
            Next::Closed => break,
        }
    }
    if disconnected {
        service.add_metric("sse_disconnects_total", 1.0);
    }
    let dropped = sub.dropped();
    if dropped > 0 {
        service.add_metric("sse_dropped_events_total", dropped as f64);
    }
    service.unsubscribe(id, &sub, disconnected);
}

// ---------------------------------------------------------------------------
// Small codecs
// ---------------------------------------------------------------------------

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
    fn error_bodies_escape_through_the_one_serializer() {
        let body = Response::error(400, "a\"b\\c\n\u{1}").body;
        assert_eq!(body, br#"{"error":"a\"b\\c\n\u0001"}"#);
    }

    #[test]
    fn subscriber_buffer_drops_oldest_never_blocks() {
        let hub = EventHub::new(3);
        let sub = hub.subscribe();
        for i in 0..10 {
            hub.publish("tick", format!("{i}"));
        }
        // Publishing 10 into a 3-deep queue keeps only the newest 3.
        let mut seen = Vec::new();
        for _ in 0..3 {
            match sub.next(Duration::from_millis(10)) {
                Next::Event(ev) => seen.push(ev.data.clone()),
                _ => panic!("expected an event"),
            }
        }
        assert_eq!(seen, vec!["7", "8", "9"]);
        assert_eq!(sub.dropped(), 7);
        assert_eq!(hub.dropped_total(), 7);
        assert!(matches!(sub.next(Duration::from_millis(5)), Next::Idle));
        hub.close_all();
        assert!(matches!(sub.next(Duration::from_millis(5)), Next::Closed));
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

    #[test]
    fn memory_pressure_sheds_submissions_with_retry_after() {
        let root = std::env::temp_dir().join(format!(
            "eth-serve-pressure-{:x}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&root);
        // A 1-byte budget puts the high watermark at 0 bytes: any
        // residency (including the fresh service's none) is "over".
        let policy = ServicePolicy {
            resources: Some(ResourcePolicy::with_memory_budget(1)),
            ..ServicePolicy::default()
        };
        let svc = Service::new(&root, policy).unwrap();
        let spec = crate::config::ExperimentSpecBuilder::new("pressure")
            .build()
            .unwrap();
        match svc.submit(&CampaignRequest::single("alice", spec)) {
            Err(AdmissionError::Shed { retry_after_s, reason }) => {
                assert!(retry_after_s >= 1);
                assert!(reason.contains("memory pressure"), "{reason}");
            }
            Err(other) => panic!("expected memory-pressure shed, got {other:?}"),
            Ok(_) => panic!("expected memory-pressure shed, got admission"),
        }
        let metrics = svc.metrics_text();
        assert!(metrics.contains("eth_serve_staging_resident_bytes"));
        assert!(metrics.contains("eth_serve_staging_spilled_bytes_total"));
        assert!(metrics.contains("eth_serve_memory_pressure_shed_total 1"));
        // Legacy service policies (no resources key) still deserialize.
        let legacy: ServicePolicy = serde_json::from_str(
            "{\"max_queued_points\":8,\"per_tenant_inflight\":1,\
             \"request_deadline_ms\":5,\"drain_timeout_ms\":5,\
             \"subscriber_buffer\":4}",
        )
        .unwrap();
        assert_eq!(legacy.resources, None);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn find_head_end_locates_crlf_boundary() {
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n\r\nbody"), Some(14));
        assert_eq!(find_head_end(b"partial\r\n"), None);
    }
}

