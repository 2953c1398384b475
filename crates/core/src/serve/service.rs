//! The campaign lifecycle behind `eth serve`: admission, the per-campaign
//! worker, drain, and resume from the campaigns a previous process left.

use super::hub::{Event, EventHub, Subscriber};
use super::{
    base64, AdmissionError, CampaignRequest, CampaignState, CampaignStatus, DrainReport,
    ServicePolicy, ServiceRecord, CAMPAIGN_DIR_PREFIX, SERVICE_FILE, TRACE_FILE,
};
use crate::config::ExperimentSpec;
use crate::error::{CoreError, Result};
use crate::harness::{memoize, MemoSlot, NativeOutcome, RunCaches};
use crate::journal;
use crate::sweep::{lock_recover, run_attempt, Campaign, CancelToken, PointResult};
use crate::telemetry::counters_to_prometheus;
use eth_cluster::counters::CounterSet;
use serde::Serialize;
use std::collections::HashMap;
use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// Per-attempt executor a test can install in place of
/// [`run_native_cached`](crate::run_native_cached) (gating points on flags
/// makes shed/drain tests deterministic instead of timing-dependent).
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
    token: CancelToken,
    hub: EventHub,
    /// Points not yet executed or abandoned; the service's queue depth is
    /// the sum over its entries, and [`Service::retire`] zeroes it.
    outstanding: AtomicUsize,
    progress: Mutex<Progress>,
    started: Instant,
}

/// Where a campaign stands: its state, and its status as of the last
/// change ([`CampaignEntry::status`] fills in the live fields).
struct Progress {
    state: CampaignState,
    user_canceled: bool,
    status: CampaignStatus,
}

impl CampaignEntry {
    fn state(&self) -> CampaignState {
        lock_recover(&self.progress).state
    }

    fn status(&self) -> CampaignStatus {
        let p = lock_recover(&self.progress);
        let mut status = p.status.clone();
        status.state = p.state.name().to_string();
        status.dropped_events = self.hub.dropped_total();
        if p.state == CampaignState::Running {
            status.wall_s = self.started.elapsed().as_secs_f64();
        }
        status
    }
}

#[derive(Default)]
struct ServiceState {
    entries: Vec<Arc<CampaignEntry>>,
    /// Live campaign worker threads ([`Service::drain`] waits for 0).
    active: usize,
    next_id: usize,
}

impl ServiceState {
    /// Unfinished points across all running campaigns (admission bound).
    fn queue_depth(&self) -> usize {
        self.entries
            .iter()
            .map(|e| e.outstanding.load(Ordering::SeqCst))
            .sum()
    }

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
    /// Cross-tenant result memo keyed by [`journal::spec_hash`]: the first
    /// requester computes while identical concurrent requesters block,
    /// then share the `Arc`'d outcome ([`memoize`]).
    memo: Mutex<HashMap<u64, Arc<MemoSlot<NativeOutcome>>>>,
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
                state: Mutex::default(),
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
        lock_recover(&self.inner.state).queue_depth()
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
            let queued = st.queue_depth();
            if queued + specs.len() > self.inner.policy.max_queued_points {
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
            let record = ServiceRecord {
                id,
                request: req.clone(),
                done: false,
                summary: None,
            };
            if let Err(e) = record.write(&dir) {
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
            let Ok(text) = fs::read_to_string(dir.join(SERVICE_FILE)) else {
                continue; // crashed before the admission record: nothing to resume
            };
            let Ok(record) = serde_json::from_str::<ServiceRecord>(&text) else {
                self.add_metric("resume_skipped_total", 1.0);
                continue;
            };
            {
                let mut st = lock_recover(&self.inner.state);
                st.next_id = st.next_id.max(record.id + 1);
            }
            if record.done {
                // Terminal history: register so status endpoints still
                // answer for it, but do not re-run anything.
                if let Some(entry) = self.restore_terminal(&dir, record) {
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
        let outcome = journal::load_result(&entry.dir, index, journal::spec_hash(spec), spec).ok()?;
        outcome.images.first().map(|img| img.to_png())
    }

    /// Stop admission, cancel every running campaign (in-flight points
    /// finish and journal; queued points are abandoned), and wait up to
    /// `drain_timeout_ms` for workers to exit. Idempotent.
    pub fn drain(&self) -> DrainReport {
        let t0 = Instant::now();
        self.inner.draining.store(true, Ordering::SeqCst);
        let timeout = Duration::from_millis(self.inner.policy.drain_timeout_ms);
        let st = lock_recover(&self.inner.state);
        for entry in st.entries.iter().filter(|e| e.state() == CampaignState::Running) {
            entry.token.cancel();
        }
        let (st, wait) = self
            .inner
            .wake
            .wait_timeout_while(st, timeout, |st| st.active > 0)
            .unwrap_or_else(PoisonError::into_inner);
        let mut report = DrainReport {
            campaigns_total: st.entries.len(),
            timed_out: wait.timed_out(),
            wall_s: t0.elapsed().as_secs_f64(),
            ..DrainReport::default()
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

    fn make_entry(
        &self,
        id: usize,
        req: &CampaignRequest,
        specs: Vec<ExperimentSpec>,
        dir: PathBuf,
    ) -> Arc<CampaignEntry> {
        Arc::new(CampaignEntry {
            id,
            request: req.clone(),
            dir,
            token: CancelToken::new(),
            hub: EventHub::new(self.inner.policy.subscriber_buffer),
            outstanding: AtomicUsize::new(specs.len()),
            progress: Mutex::new(Progress {
                state: CampaignState::Running,
                user_canceled: false,
                status: CampaignStatus {
                    id,
                    tenant: req.tenant.clone(),
                    points_total: specs.len(),
                    ..CampaignStatus::default()
                },
            }),
            specs,
            started: Instant::now(),
        })
    }

    /// Rebuild a terminal entry from its record's summary (restart). A
    /// record without one restores as `done`.
    fn restore_terminal(&self, dir: &Path, record: ServiceRecord) -> Option<Arc<CampaignEntry>> {
        let specs = record.request.specs().ok()?;
        let entry = self.make_entry(record.id, &record.request, specs, dir.to_path_buf());
        entry.outstanding.store(0, Ordering::SeqCst);
        let mut p = lock_recover(&entry.progress);
        p.state = CampaignState::Done;
        if let Some(summary) = record.summary {
            p.state = match summary.state.as_str() {
                "canceled" => CampaignState::Canceled,
                "failed" => CampaignState::Failed,
                _ => CampaignState::Done,
            };
            p.status = summary;
        }
        drop(p);
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
        // a failed compute is a miss: it leaves the slot empty for the next
        let memo = memoize(&self.inner.memo, journal::spec_hash(spec), exec);
        let hit = matches!(memo, Ok((_, true)));
        self.add_metric(if hit { "dedupe_hits_total" } else { "dedupe_misses_total" }, 1.0);
        memo.map(|(outcome, _)| (*outcome).clone())
    }

    fn slots(&self) -> usize {
        self.inner.slots.load(Ordering::SeqCst)
    }

    /// Admission bookkeeping, the one way a campaign starts counting:
    /// its points join the queue bound, it becomes a live worker, the
    /// gauges follow, and the worker starts. Takes the state guard so
    /// `submit` can check its bounds and admit atomically.
    fn admit(&self, mut st: MutexGuard<'_, ServiceState>, entry: Arc<CampaignEntry>, counter: &str) {
        st.active += 1;
        st.entries.push(entry.clone());
        self.sync_gauges(&st, &entry.request.tenant);
        drop(st);
        self.add_metric(counter, 1.0);
        self.spawn_worker(entry);
    }

    /// The inverse of [`Service::admit`], run exactly once per admitted
    /// campaign when its worker is over, in an order that makes what
    /// observers see imply what is on disk: first the record, with its
    /// summary and `done` flag, replaces the admission record in one
    /// atomic write; only then does the entry's state leave `Running` (so
    /// a status poll that reads "done" can restart the service and find
    /// `done: true`); subscribers are told; and last the campaign stops
    /// counting as live and [`Service::drain`] is woken, so a drain that
    /// returns un-timed-out finds every epilogue on disk.
    fn retire(&self, entry: &CampaignEntry, state: CampaignState) {
        let mut status = entry.status();
        status.state = state.name().to_string();
        let record = ServiceRecord {
            id: entry.id,
            request: entry.request.clone(),
            done: state.is_terminal(),
            summary: Some(status.clone()),
        };
        let _ = record.write(&entry.dir);
        {
            let mut p = lock_recover(&entry.progress);
            p.status.wall_s = status.wall_s;
            p.state = state;
        }
        entry.hub.publish("campaign-done", &status);
        entry.hub.close_all();
        let mut st = lock_recover(&self.inner.state);
        // Points never executed (abandoned, or restored without running).
        entry.outstanding.store(0, Ordering::SeqCst);
        st.active = st.active.saturating_sub(1);
        self.sync_gauges(&st, &entry.request.tenant);
        drop(st);
        self.inner.wake.notify_all();
    }

    /// Publish the admission gauges from `st` (the caller holds the state
    /// lock, so a reader that saw the state change sees the gauges too).
    fn sync_gauges(&self, st: &ServiceState, tenant: &str) {
        let mut metrics = lock_recover(&self.inner.metrics);
        metrics.set("queue_depth_points", st.queue_depth() as f64);
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
        entry.hub.publish("campaign-started", &entry.status());
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
            entry.hub.publish("point-started", &event(true, 0.0));
            let t0 = Instant::now();
            let point = self.run_point(spec, attempt, caches);
            // One fewer unfinished point.
            let _ = entry
                .outstanding
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1));
            self.sync_gauges(&lock_recover(&self.inner.state), &entry.request.tenant);
            let wall_s = t0.elapsed().as_secs_f64();
            self.observe_metric("point_s", wall_s);
            match &point {
                Ok(outcome) => {
                    lock_recover(&entry.progress).status.points_done += 1;
                    entry.hub.publish("point-finished", &event(true, wall_s));
                    if let Some(image) = outcome.images.first() {
                        let image = ImageEvent {
                            index,
                            width: image.width(),
                            height: image.height(),
                            png_base64: base64(&image.to_png()),
                        };
                        entry.hub.publish("image", &image);
                    }
                }
                Err(e) => {
                    if !matches!(e, CoreError::Canceled) {
                        lock_recover(&entry.progress).status.points_failed += 1;
                    }
                    entry.hub.publish("point-failed", &event(false, wall_s));
                }
            }
            point
        };
        let result =
            campaign.execute(&entry.specs, &self.inner.caches, Some(&entry.dir), Some(&runner));
        match result {
            Err(e) => {
                self.add_metric("failed_campaigns_total", 1.0);
                entry.hub.publish("error", &ErrorEvent { message: e.to_string() });
                CampaignState::Failed
            }
            Ok(outcome) => {
                let mut p = lock_recover(&entry.progress);
                let mut interrupted = false;
                (p.status.points_done, p.status.points_failed) = (0, 0);
                for result in &outcome.results {
                    match result {
                        Ok(_) => p.status.points_done += 1,
                        Err(CoreError::Canceled) => interrupted = true,
                        Err(_) => p.status.points_failed += 1,
                    }
                }
                p.status.points_restored = outcome.restored.len();
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
                entry.hub.publish("telemetry", &outcome.telemetry.counters);
                // Stitch the campaign's cross-rank trace: persist the
                // Perfetto view for `GET /campaigns/{id}/trace` and carry
                // the critical-path summary onto the terminal status.
                if !outcome.trace.records.is_empty() {
                    let merged = eth_obs::MergedTrace::build(outcome.trace);
                    let _ = journal::write_atomic(
                        &entry.dir.join(TRACE_FILE),
                        merged.to_chrome_trace().as_bytes(),
                    );
                    if let Some(cp) = merged.critical_path {
                        lock_recover(&entry.progress).status.critical_path = Some(cp);
                    }
                }
                state
            }
        }
    }

    pub(super) fn add_metric(&self, name: &str, v: f64) {
        lock_recover(&self.inner.metrics).add(name, v);
    }

    pub(super) fn observe_metric(&self, name: &str, v: f64) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ResourcePolicy;

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

    /// The record the previous release's `reproduce serve` left when it was
    /// killed right after admitting a two-point sweep, whitespace removed:
    /// its spec still carries `render`, both watermarks, `max_rank_losses`
    /// and a `null` wire codec.
    const PARENT_RECORD: &str = r#"{"id":0,"request":{"tenant":"t","base":{"name":"resume","application":{"Hacc":{"particles":3000}},"algorithm":"GaussianSplat","coupling":"Intercore","ranks":2,"steps":1,"images_per_step":1,"width":24,"height":24,"sampling_ratio":1,"seed":42,"artifact_dir":null,"viz_ranks":null,"fault_plan":null,"recovery":{"heartbeat":{"interval_ms":25,"miss_budget":4},"max_rank_losses":1,"adopt":true},"migration":null,"render":{"tile":32,"progressive_stride":8},"resources":{"memory_budget_bytes":null,"disk_quota_bytes":null,"spill_dir":null,"low_watermark":0.5,"high_watermark":0.9},"wire_compression":null},"algorithms":[],"couplings":[],"sampling_ratios":[1,0.5],"rank_counts":[],"cancel_on_disconnect":false},"done":false,"summary":null}"#;

    #[test]
    fn a_record_the_parent_wrote_still_resumes() {
        let root = std::env::temp_dir().join(format!(
            "eth-serve-parent-record-{:x}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&root);
        let dir = root.join(format!("{CAMPAIGN_DIR_PREFIX}0000"));
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join(SERVICE_FILE), PARENT_RECORD).unwrap();
        let svc = Service::new(&root, ServicePolicy::default()).unwrap();
        assert_eq!(svc.resume_existing().unwrap(), vec![0]);
        let t0 = Instant::now();
        while svc.status(0).unwrap().state == "running" {
            assert!(t0.elapsed() < Duration::from_secs(60), "resume never ended");
            std::thread::sleep(Duration::from_millis(5));
        }
        let status = svc.status(0).unwrap();
        assert_eq!(status.state, "done");
        assert_eq!((status.points_done, status.points_failed), (2, 0));
        let _ = fs::remove_dir_all(&root);
    }
}
