//! Cartesian parameter sweeps over the design space, and the campaign
//! engine that executes them with high throughput.
//!
//! "Our experience … strongly indicate\[s\] the need for a light-weight
//! mechanism to quickly explore large parameter spaces" (Section VIII).
//! A [`Sweep`] takes a base experiment and axes to vary; iterating yields
//! one fully-validated [`ExperimentSpec`] per design point. A [`Campaign`]
//! takes the materialized points and runs them concurrently on a bounded
//! scheduler, sharing staged data between points that differ only on the
//! algorithm / sampling-ratio / coupling axes (see
//! [`crate::harness::RunCaches`]).

use crate::config::{Algorithm, Coupling, ExperimentSpec, ResourcePolicy};
use crate::error::{CoreError, Result};
use crate::harness::{run_native_cached, CacheStats, NativeOutcome, RunCaches};
use crate::journal::{self, Journal, JournalRecord, RecordedOutcome};
use crate::telemetry::CampaignTelemetry;
use eth_data::DataError;
use eth_transport::fault::BackoffShape;
use eth_transport::{RankFailure, TransportError};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// A sweep: the cartesian product of the provided axes applied to a base
/// spec. Empty axes keep the base value.
#[derive(Debug, Clone)]
pub struct Sweep {
    base: ExperimentSpec,
    algorithms: Vec<Algorithm>,
    couplings: Vec<Coupling>,
    sampling_ratios: Vec<f64>,
    rank_counts: Vec<usize>,
}

impl Sweep {
    pub fn over(base: ExperimentSpec) -> Sweep {
        Sweep {
            base,
            algorithms: Vec::new(),
            couplings: Vec::new(),
            sampling_ratios: Vec::new(),
            rank_counts: Vec::new(),
        }
    }

    pub fn algorithms(mut self, algorithms: &[Algorithm]) -> Sweep {
        self.algorithms = algorithms.to_vec();
        self
    }

    pub fn couplings(mut self, couplings: &[Coupling]) -> Sweep {
        self.couplings = couplings.to_vec();
        self
    }

    pub fn sampling_ratios(mut self, ratios: &[f64]) -> Sweep {
        self.sampling_ratios = ratios.to_vec();
        self
    }

    pub fn rank_counts(mut self, ranks: &[usize]) -> Sweep {
        self.rank_counts = ranks.to_vec();
        self
    }

    /// Number of design points.
    pub fn len(&self) -> usize {
        let f = |n: usize| n.max(1);
        f(self.algorithms.len())
            * f(self.couplings.len())
            * f(self.sampling_ratios.len())
            * f(self.rank_counts.len())
    }

    /// Always `false`: a sweep with no axes set still yields the base
    /// spec, and every set axis contributes at least one value to the
    /// product, so [`Sweep::specs`] never materializes zero points. (The
    /// previous `len() == 0` form was unreachable — `len()` floors every
    /// axis at 1 — and read as if empty sweeps existed.)
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Materialize every design point, validating each.
    pub fn specs(&self) -> Result<Vec<ExperimentSpec>> {
        let algorithms: Vec<Option<Algorithm>> = axis(&self.algorithms);
        let couplings: Vec<Option<Coupling>> = axis(&self.couplings);
        let ratios: Vec<Option<f64>> = axis(&self.sampling_ratios);
        let ranks: Vec<Option<usize>> = axis(&self.rank_counts);
        let mut out = Vec::with_capacity(self.len());
        for &alg in &algorithms {
            for &coupling in &couplings {
                for &ratio in &ratios {
                    for &rank_count in &ranks {
                        let mut spec = self.base.clone();
                        if let Some(a) = alg {
                            spec.algorithm = a;
                        }
                        if let Some(c) = coupling {
                            spec.coupling = c;
                        }
                        if let Some(r) = ratio {
                            spec.sampling_ratio = r;
                        }
                        if let Some(n) = rank_count {
                            spec.ranks = n;
                        }
                        spec.name = format!(
                            "{}-{}-{}-r{:.2}-n{}",
                            self.base.name,
                            spec.algorithm.name(),
                            spec.coupling.name(),
                            spec.sampling_ratio,
                            spec.ranks
                        );
                        spec.validate()?;
                        out.push(spec);
                    }
                }
            }
        }
        Ok(out)
    }
}

/// An axis: `None` means "keep the base value" (used when unset).
fn axis<T: Copy>(values: &[T]) -> Vec<Option<T>> {
    if values.is_empty() {
        vec![None]
    } else {
        values.iter().copied().map(Some).collect()
    }
}

/// Result of one design point inside a campaign: the native outcome, or
/// the failure that point produced (other points are unaffected).
pub type PointResult = std::result::Result<NativeOutcome, CoreError>;

/// The failure classes a [`RetryPolicy`] can cover. Failures outside
/// these classes (configuration errors, structural data errors) are
/// deterministic — retrying them would burn attempts for nothing, so
/// they always fail the point on the first attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RetryOn {
    /// Receive deadlines and rank wall-clock budget overruns.
    Timeout,
    /// Severed links: disconnects, socket IO failures, bootstrap races.
    Disconnect,
    /// A rank (or the point itself) panicked.
    Panic,
    /// A payload failed its integrity or decode check.
    Corrupt,
    /// Resource exhaustion: a durable write hit the disk quota (or a
    /// real `ENOSPC`), or a staged-block allocation failed against the
    /// memory budget. Worth retrying — pressure is transient: earlier
    /// points release quota and residency as they finish.
    Resource,
}

/// Per-point retry behaviour for a [`Campaign`]. Serde-able, so recovery
/// policy can be swept (and recorded) like any other experiment axis.
///
/// A failed attempt whose error class is in `retry_on` re-enters the
/// admission queue after a jittered exponential backoff; once
/// `max_attempts` attempts are spent the point is **quarantined** — its
/// result slot records [`CoreError::Quarantined`] and the campaign moves
/// on. Errors outside `retry_on` fail the point immediately, so the
/// default policy ([`RetryPolicy::none`]) reproduces single-shot
/// semantics exactly and never quarantines anything.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Total attempts per point, including the first (minimum 1).
    #[serde(default = "default_max_attempts")]
    pub max_attempts: u32,
    /// Shape of the between-attempt backoff (jitter is seeded per point).
    #[serde(default)]
    pub backoff: BackoffShape,
    /// Which failure classes are worth retrying.
    #[serde(default)]
    pub retry_on: Vec<RetryOn>,
}

fn default_max_attempts() -> u32 {
    1
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::none()
    }
}

impl RetryPolicy {
    /// No retries: every point gets exactly one attempt and plain errors.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            backoff: BackoffShape::default(),
            retry_on: Vec::new(),
        }
    }

    /// Retry every transient class up to `max_attempts` total attempts.
    pub fn standard(max_attempts: u32) -> RetryPolicy {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            backoff: BackoffShape::default(),
            retry_on: vec![
                RetryOn::Timeout,
                RetryOn::Disconnect,
                RetryOn::Panic,
                RetryOn::Corrupt,
                RetryOn::Resource,
            ],
        }
    }

    /// The failure class of `err`, when it has one.
    pub fn classify(err: &CoreError) -> Option<RetryOn> {
        match err {
            CoreError::Transport(TransportError::Timeout { .. })
            | CoreError::Rank(RankFailure::Hang { .. }) => Some(RetryOn::Timeout),
            CoreError::Transport(
                TransportError::Disconnected { .. }
                | TransportError::Io(_)
                | TransportError::Bootstrap(_),
            ) => Some(RetryOn::Disconnect),
            CoreError::Rank(RankFailure::Panic { .. }) => Some(RetryOn::Panic),
            CoreError::Transport(TransportError::Corrupt { .. } | TransportError::Decode(_))
            | CoreError::Data(DataError::Corrupt(_)) => Some(RetryOn::Corrupt),
            CoreError::DiskFull { .. } | CoreError::OutOfMemory(_) => Some(RetryOn::Resource),
            _ => None,
        }
    }

    /// Does this policy cover retrying `err`?
    fn covers(&self, err: &CoreError) -> bool {
        Self::classify(err).is_some_and(|class| self.retry_on.contains(&class))
    }
}

/// A cooperative cancellation token shared between a campaign and
/// whoever supervises it (the serve layer's drain path, a client
/// disconnect handler, a test). Cancelling is one-way and idempotent.
///
/// Semantics inside the scheduler: points that have not yet been admitted
/// when the token fires are abandoned with [`CoreError::Canceled`] — they
/// consume their FIFO ticket (order stays dense, nobody behind them
/// stalls) but zero slots and zero threads of real work. A point already
/// executing runs to completion and is journaled normally: cancellation
/// never tears a result, so a canceled journaled campaign resumes to
/// byte-identical images.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Fire the token. Idempotent; wakes scheduler threads parked in the
    /// admission queue within one poll interval.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    pub fn is_canceled(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// Why a completed design point counts as degraded in
/// [`CampaignOutcome::degraded`]: an involuntary rank loss recovered
/// in-run, or a voluntary (planned) partition migration — operators slice
/// campaign health on this distinction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DegradedReason {
    /// At least one rank died and its partition was adopted or dropped.
    RankLoss,
    /// At least one planned partition handoff committed, or degraded to
    /// "no migration happened" after losing its race with a death.
    PlannedMigration,
}

/// Result of a [`Campaign`] run.
pub struct CampaignOutcome {
    /// One entry per input spec, **in input order** regardless of the
    /// order points actually finished in.
    pub results: Vec<PointResult>,
    /// End-to-end wall time for the whole campaign.
    pub wall_s: f64,
    /// Counters of the [`RunCaches`] the campaign ran against, read when
    /// it finished (cumulative if the caches served earlier campaigns).
    pub cache: CacheStats,
    /// Attempts each point consumed (1 = succeeded or failed terminally
    /// on the first try; restored points keep their recorded count).
    pub attempts: Vec<u32>,
    /// Indices of points that exhausted their retry budget and were set
    /// aside as [`CoreError::Quarantined`].
    pub quarantined: Vec<usize>,
    /// Indices restored from a campaign journal instead of re-run
    /// (always empty without a journal directory).
    pub restored: Vec<usize>,
    /// Aggregate flight-recorder telemetry for the whole campaign (queue
    /// wait / cache / journal latency histograms, retry and degradation
    /// counters); export with [`CampaignTelemetry::to_prometheus`] or
    /// [`CampaignTelemetry::to_jsonl`].
    pub telemetry: CampaignTelemetry,
    /// The campaign's drained span trace, flow records included: build an
    /// [`eth_obs::MergedTrace`] from it for the stitched cross-rank
    /// Perfetto view and critical-path attribution (`eth serve` exposes
    /// exactly that at `GET /campaigns/{id}/trace`). Empty when the
    /// recorder was disabled for the whole campaign.
    pub trace: eth_obs::Trace,
}

impl CampaignOutcome {
    /// Number of points that failed.
    pub fn failures(&self) -> usize {
        self.results.iter().filter(|r| r.is_err()).count()
    }

    /// The successful outcomes, still in input order.
    pub fn outcomes(&self) -> impl Iterator<Item = &NativeOutcome> {
        self.results.iter().filter_map(|r| r.as_ref().ok())
    }

    /// Indices of points that completed *degraded*: the run finished (no
    /// retry, no quarantine) but either lost a rank and recovered in-run
    /// or rebalanced itself through planned partition handoffs. Disjoint
    /// from [`CampaignOutcome::quarantined`].
    pub fn degraded(&self) -> Vec<usize> {
        self.degraded_reasons().into_iter().map(|(i, _)| i).collect()
    }

    /// [`CampaignOutcome::degraded`] with *why* each point counts: a rank
    /// loss, a planned migration, or both. Indices stay in input order and
    /// appear once, so callers can separate involuntary degradation from
    /// elasticity the operator asked for.
    pub fn degraded_reasons(&self) -> Vec<(usize, Vec<DegradedReason>)> {
        self.results
            .iter()
            .enumerate()
            .filter_map(|(i, r)| {
                let out = r.as_ref().ok()?;
                let d = &out.degradation;
                let mut reasons = Vec::new();
                if d.rank_losses > 0 {
                    reasons.push(DegradedReason::RankLoss);
                }
                if d.migrations > 0 || d.migration_failures > 0 {
                    reasons.push(DegradedReason::PlannedMigration);
                }
                (!reasons.is_empty()).then_some((i, reasons))
            })
            .collect()
    }

    /// Throughput in design points per second (all points, even failed).
    pub fn points_per_sec(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.results.len() as f64 / self.wall_s
        } else {
            0.0
        }
    }
}

/// Executes independent design points concurrently on a bounded scheduler.
///
/// Admission accounts for each point's concurrency appetite: a native run
/// spawns one OS thread per rank (tight), two per rank (intercore: sim +
/// viz sides), or `ranks + viz_ranks` threads (internode), so an 8-rank
/// internode point takes 16 of the campaign's slots while a 1-rank tight
/// point takes one. Points are admitted strictly in input order (FIFO), so
/// a wide point cannot be starved by a stream of narrow ones; results are
/// returned in input order no matter when each point finishes.
///
/// Every way of running a campaign is [`Campaign::execute`]: it is handed
/// the [`RunCaches`] its points share (so points differing only on the
/// algorithm / ratio / coupling axes share a single staging pass, and the
/// scheduler reads *those caches'* resident bytes at its backpressure
/// gate), a journal directory that may be absent, and a point runner that
/// may be absent. Determinism: staged data and rendering are pure
/// functions of the spec, so a campaign's images are byte-identical to
/// running each spec alone, sequentially.
///
/// A failing point — including one whose supervised ranks panic or hang
/// (see [`RankFailure`]) — records its error in its result slot and the
/// campaign keeps going.
pub struct Campaign {
    capacity: usize,
    retry: RetryPolicy,
    cancel: Option<CancelToken>,
    resources: Option<ResourcePolicy>,
}

impl Default for Campaign {
    fn default() -> Self {
        Campaign::new()
    }
}

/// A per-attempt point runner, `(index, spec, attempt, caches)`. A
/// supplied runner *wraps* the real execution — inject a transient
/// failure, consult a memo, publish progress — and reaches it through
/// [`run_attempt`] with the campaign's own caches, so what it stages is
/// shared and counted like any other point's (`reproduce chaos-campaign`
/// and `eth serve` are the two callers). It MUST be a deterministic
/// function of `(spec, attempt)` for restored results to equal re-runs.
pub type PointRunner<'a> =
    dyn Fn(usize, &ExperimentSpec, u32, &RunCaches) -> PointResult + Sync + 'a;

/// One attempt of one point, the way a campaign runs it when no runner is
/// supplied: [`spec_for_attempt`] through [`run_native_cached`].
pub fn run_attempt(spec: &ExperimentSpec, attempt: u32, caches: &RunCaches) -> PointResult {
    run_native_cached(&spec_for_attempt(spec, attempt), caches)
}

impl Campaign {
    /// Scheduler sized to this host's available parallelism.
    pub fn new() -> Campaign {
        let slots = thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
        Campaign::with_capacity(slots)
    }

    /// Scheduler with an explicit slot budget (minimum 1). One slot
    /// roughly corresponds to one runnable rank thread.
    pub fn with_capacity(slots: usize) -> Campaign {
        Campaign {
            capacity: slots.max(1),
            retry: RetryPolicy::none(),
            cancel: None,
            resources: None,
        }
    }

    /// Attach a campaign-level [`ResourcePolicy`]. Its disk quota bounds
    /// the journal (WAL plus persisted results together), and its memory
    /// budget's watermarks gate admission: the scheduler stops admitting
    /// new points while the staged residency of *the caches this campaign
    /// runs against* sits above the high watermark and resumes once it
    /// drains below the low one. Stalls are bounded (a gauge that never
    /// drains cannot deadlock the campaign — the staging stores
    /// self-enforce their budgets regardless) and counted in the
    /// `backpressure_stalls` telemetry counter.
    pub fn with_resources(mut self, resources: ResourcePolicy) -> Campaign {
        self.resources = Some(resources);
        self
    }

    /// Attach a cancellation token (see [`CancelToken`] for semantics).
    pub fn with_cancel_token(mut self, token: CancelToken) -> Campaign {
        self.cancel = Some(token);
        self
    }

    /// Attach a retry policy (the default is [`RetryPolicy::none`]).
    pub fn with_retry_policy(mut self, policy: RetryPolicy) -> Campaign {
        self.retry = RetryPolicy {
            max_attempts: policy.max_attempts.max(1),
            ..policy
        };
        self
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Slots one design point occupies while running: its total rank
    /// thread count, clamped to the campaign capacity so an over-wide
    /// point still admits (alone) instead of deadlocking.
    pub fn point_cost(&self, spec: &ExperimentSpec) -> usize {
        let ranks = spec.ranks.max(1);
        let threads = match spec.coupling {
            Coupling::Tight => ranks,
            Coupling::Intercore => 2 * ranks,
            Coupling::Internode => ranks + spec.viz_ranks.unwrap_or(ranks),
        };
        threads.clamp(1, self.capacity)
    }

    /// [`Campaign::run_with`] over a fresh cache set.
    pub fn run(&self, specs: &[ExperimentSpec]) -> CampaignOutcome {
        self.run_with(specs, &RunCaches::new())
    }

    /// [`Campaign::execute`] with no journal and the default runner (pass
    /// the same `caches` to several campaigns to share staging between
    /// them).
    pub fn run_with(&self, specs: &[ExperimentSpec], caches: &RunCaches) -> CampaignOutcome {
        self.execute(specs, caches, None, None)
            .expect("a campaign without a journal directory has no fallible setup")
    }

    /// [`Campaign::execute`] with a crash-safe journal in `dir` and the
    /// default runner.
    pub fn run_journaled(
        &self,
        specs: &[ExperimentSpec],
        caches: &RunCaches,
        dir: &Path,
    ) -> Result<CampaignOutcome> {
        self.execute(specs, caches, Some(dir), None)
    }

    /// Run the campaign: the one body behind every entry point.
    ///
    /// With a `journal_dir` (see [`crate::journal`]) every attempt is
    /// logged write-ahead, every finished point's result is persisted and
    /// checksummed, and a journal left by an earlier (killed, drained,
    /// canceled) run restores its completed points instead of re-running
    /// them; a point whose spec hash changed since — or whose result file
    /// is missing or fails verification — is simply re-run, as are
    /// in-flight and failed points. Without one the log is empty and every
    /// durable step below is a no-op. `Err` is only ever a journal setup
    /// failure (unopenable or locked directory).
    ///
    /// `runner` defaults to [`run_attempt`]; see [`PointRunner`].
    ///
    /// Retry flow: a failed attempt covered by the retry policy releases
    /// its slots, is journaled as a failed attempt, sleeps its jittered
    /// backoff, then takes a *fresh* ticket and rejoins the FIFO queue —
    /// so retries cannot starve first attempts and admission stays
    /// strictly ordered. Once `max_attempts` are spent the point is
    /// quarantined and the campaign proceeds.
    pub fn execute(
        &self,
        specs: &[ExperimentSpec],
        caches: &RunCaches,
        journal_dir: Option<&Path>,
        runner: Option<&PointRunner<'_>>,
    ) -> Result<CampaignOutcome> {
        let t0 = Instant::now();
        let quota = self.resources.as_ref().and_then(|r| r.disk_quota_bytes);
        let (log, mut slots) = CampaignLog::open(journal_dir, specs, quota)?;
        let restored: Vec<usize> = (0..slots.len()).filter(|&i| slots[i].is_some()).collect();
        let runner = runner.unwrap_or(&|_, spec, attempt, caches| run_attempt(spec, attempt, caches));
        // Restored points take neither a ticket nor a thread: tickets are
        // dense over the points that actually run.
        let sem = WeightedSemaphore::new(self.capacity, specs.len() - restored.len());
        // Campaign flight recorder: every point thread stacks it on top
        // of whatever sinks the caller attached (e.g. the CLI's --trace
        // recorder), so the campaign sees its own spans and the caller
        // still sees everything.
        let recorder = eth_obs::Recorder::new();
        let obs = eth_obs::current_context();
        thread::scope(|s| {
            let live = specs
                .iter()
                .zip(slots.iter_mut())
                .enumerate()
                .filter(|(_, (_, slot))| slot.is_none());
            for (ticket, (index, (spec, slot))) in live.enumerate() {
                let (sem, log) = (&sem, log.point(index, spec));
                let (obs, recorder) = (obs.clone(), recorder.clone());
                s.spawn(move || {
                    let _ctx = obs.attach();
                    let _rec = recorder.attach();
                    *slot = Some(self.run_point(sem, ticket, spec, caches, runner, &log));
                });
            }
        });
        let trace = recorder.take();
        let (results, attempts): (Vec<PointResult>, Vec<u32>) = slots
            .into_iter()
            .map(|slot| slot.expect("every live point thread writes its slot before exiting"))
            .unzip();
        let quarantined: Vec<usize> = (0..results.len())
            .filter(|&i| matches!(results[i], Err(CoreError::Quarantined { .. })))
            .collect();
        let cache = caches.stats();
        let telemetry = CampaignTelemetry::from_campaign(
            &trace,
            &results,
            &attempts,
            &quarantined,
            &restored,
            &cache,
        );
        Ok(CampaignOutcome {
            results,
            wall_s: t0.elapsed().as_secs_f64(),
            cache,
            attempts,
            quarantined,
            restored,
            telemetry,
            trace,
        })
    }

    /// One point's life on its scheduler thread: gate, queue, attempt,
    /// log, and — while the retry policy covers the failure — again.
    /// Returns the final result and the attempts it consumed.
    fn run_point(
        &self,
        sem: &WeightedSemaphore,
        mut ticket: usize,
        spec: &ExperimentSpec,
        caches: &RunCaches,
        runner: &PointRunner<'_>,
        log: &PointLog<'_>,
    ) -> (PointResult, u32) {
        let policy = &self.retry;
        let index = log.index;
        let cost = self.point_cost(spec);
        let mut backoff = policy
            .backoff
            .instantiate(0x9E37_79B9_7F4A_7C15 ^ index as u64, policy.max_attempts);
        let mut attempt = 1u32;
        loop {
            self.hold_at_gate(caches);
            {
                // time spent waiting for slots = queue wait
                let _wait = eth_obs::span(eth_obs::Phase::QueueWait);
                if !sem.acquire(ticket, cost, self.cancel.as_ref()) {
                    // Canceled while queued: the ticket is consumed (the
                    // line stays dense) but the point never starts. No
                    // Finished record is journaled, so a resume re-runs it.
                    return (Err(CoreError::Canceled), attempt);
                }
            }
            log.started(attempt);
            let t = Instant::now();
            let result = catch_unwind(AssertUnwindSafe(|| runner(index, spec, attempt, caches)));
            sem.release(cost);
            let elapsed_s = t.elapsed().as_secs_f64();
            let result = result
                // A panic that escapes the harness (i.e. outside any rank
                // supervision) is contained here: it becomes this point's
                // failure instead of poisoning the campaign.
                .unwrap_or_else(|payload| {
                    Err(CoreError::Rank(RankFailure::Panic {
                        rank: index,
                        message: panic_message(payload),
                    }))
                })
                .and_then(|outcome| log.persist(outcome));
            let (result, retry) = match result {
                Err(err) if policy.covers(&err) => {
                    let budget_left = attempt < policy.max_attempts;
                    if budget_left && !self.canceled() {
                        (Err(err), true)
                    } else if budget_left {
                        // Retry budget remained, but the token fired: the
                        // point was abandoned, not quarantined — a resume
                        // retries it.
                        (Err(CoreError::Canceled), false)
                    } else {
                        let quarantine = CoreError::Quarantined {
                            attempts: attempt,
                            last_error: Box::new(err),
                        };
                        (Err(quarantine), false)
                    }
                }
                other => (other, false),
            };
            log.finished(attempt, elapsed_s, &result, !retry);
            if !retry {
                return (result, attempt);
            }
            attempt += 1;
            if let Some(delay) = backoff.next_delay() {
                let _bo = eth_obs::span(eth_obs::Phase::Backoff);
                thread::sleep(delay);
            }
            // fresh ticket, taken right before re-acquiring so the FIFO
            // line never waits on a sleeping retry
            ticket = sem.take_ticket();
        }
    }

    fn canceled(&self) -> bool {
        self.cancel.as_ref().is_some_and(|c| c.is_canceled())
    }

    /// Backpressure: hold a point at the gate while the campaign's caches
    /// sit above the resource policy's high watermark, until they drain
    /// below the low one. The wait is bounded — staging stores
    /// self-enforce their budgets, so a gauge that never drains degrades
    /// to normal admission instead of deadlocking.
    fn hold_at_gate(&self, caches: &RunCaches) {
        let Some((high, low)) = self
            .resources
            .as_ref()
            .and_then(|r| Some((r.high_threshold_bytes()?, r.low_threshold_bytes()?)))
        else {
            return;
        };
        let resident = || caches.accountant().resident_bytes();
        if resident() < high {
            return;
        }
        eth_obs::count("backpressure_stalls", 1.0);
        let gate = Instant::now();
        while resident() > low && gate.elapsed() < BACKPRESSURE_STALL_CAP && !self.canceled() {
            thread::sleep(Duration::from_millis(5));
        }
    }
}

/// The campaign's durable side: an open [`Journal`], or nothing. "No
/// journal" is the empty log — every [`PointLog`] method is a no-op
/// without a directory, so the scheduler never asks which one it has.
struct CampaignLog {
    journal: Option<Journal>,
    /// [`journal::spec_hash`] per input spec (empty without a journal).
    hashes: Vec<u64>,
}

/// One slot per input spec: `Some` once the point has its final result
/// and attempt count (restored from the journal, or run).
type Slots = Vec<Option<(PointResult, u32)>>;

impl CampaignLog {
    /// Open `dir`'s journal under `quota`, write the manifest and replay
    /// the WAL into pre-filled slots. The last Finished record per index
    /// wins, and only a successful one whose spec hash still matches *and*
    /// whose persisted result verifies is restored. Without a `dir`: the
    /// empty log and all-empty slots.
    fn open(dir: Option<&Path>, specs: &[ExperimentSpec], quota: Option<u64>) -> Result<(CampaignLog, Slots)> {
        let mut slots: Slots = (0..specs.len()).map(|_| None).collect();
        let Some(dir) = dir else {
            return Ok((CampaignLog { journal: None, hashes: Vec::new() }, slots));
        };
        let journal = Journal::open(dir)?.with_quota(quota);
        let hashes: Vec<u64> = specs.iter().map(journal::spec_hash).collect();
        journal::write_manifest(dir, specs, &hashes)?;
        let mut finished: HashMap<usize, (u64, u32, bool)> = HashMap::new();
        for record in journal::replay(dir)? {
            if let JournalRecord::Finished { index, spec_hash, attempt, outcome, .. } = record {
                finished.insert(index, (spec_hash, attempt, outcome == RecordedOutcome::Ok));
            }
        }
        for (index, spec) in specs.iter().enumerate() {
            match finished.get(&index) {
                Some(&(hash, attempt, true)) if hash == hashes[index] => {
                    if let Ok(outcome) = journal::load_result(dir, index, hash, spec) {
                        slots[index] = Some((Ok(outcome), attempt));
                    }
                }
                _ => {} // never finished, failed, or the spec changed: run it
            }
        }
        Ok((CampaignLog { journal: Some(journal), hashes }, slots))
    }

    fn point(&self, index: usize, spec: &ExperimentSpec) -> PointLog<'_> {
        PointLog {
            journal: self.journal.as_ref(),
            index,
            spec_hash: self.hashes.get(index).copied().unwrap_or(0),
            fail_at: spec.fault_plan.as_ref().and_then(|p| p.disk_full_at_append),
        }
    }
}

/// One point's view of the [`CampaignLog`].
struct PointLog<'a> {
    journal: Option<&'a Journal>,
    index: usize,
    spec_hash: u64,
    /// The point's injected disk-full ordinal, if its fault plan has one.
    fail_at: Option<u64>,
}

impl PointLog<'_> {
    /// Write-ahead append on this point's behalf. Losing an append costs
    /// a re-run on resume, never a wrong result, so appends are
    /// best-effort from the scheduler's side.
    fn append(&self, journal: &Journal, record: JournalRecord) {
        let _ = journal.append_for_point(Some(self.index), self.fail_at, &record);
    }

    fn started(&self, attempt: u32) {
        let Some(journal) = self.journal else { return };
        let record = JournalRecord::Started {
            index: self.index,
            spec_hash: self.spec_hash,
            attempt,
        };
        self.append(journal, record);
    }

    /// Persist a successful attempt's result. A success that cannot be
    /// persisted is not a success: a quota hit (or injected disk-full)
    /// while saving converts the point to a resource failure, so it rides
    /// the same retry/quarantine path as any other transient fault instead
    /// of silently dropping durability.
    fn persist(&self, outcome: NativeOutcome) -> PointResult {
        let Some(journal) = self.journal else { return Ok(outcome) };
        journal.save_result_governed(self.index, self.fail_at, self.spec_hash, &outcome)?;
        Ok(outcome)
    }

    /// Record how `attempt` ended; `last` marks the point's final attempt.
    fn finished(&self, attempt: u32, elapsed_s: f64, result: &PointResult, last: bool) {
        let Some(journal) = self.journal else { return };
        let record = JournalRecord::Finished {
            index: self.index,
            spec_hash: self.spec_hash,
            attempt,
            elapsed_s,
            outcome: match result {
                Ok(_) => RecordedOutcome::Ok,
                Err(err) => RecordedOutcome::Err {
                    error: err.to_string(),
                    quarantined: matches!(err, CoreError::Quarantined { .. }),
                },
            },
        };
        self.append(journal, record);
        if last {
            eth_obs::count("journal_quota_used", journal.quota_used() as f64);
        }
    }
}

/// Longest a single admission will stall at the backpressure gate. The
/// staging stores self-enforce their budgets, so admitting past a gauge
/// that refuses to drain (e.g. a long-lived cache pinning residency) is
/// safe — the gate trades a bounded delay for pacing, never correctness.
const BACKPRESSURE_STALL_CAP: Duration = Duration::from_secs(2);

/// The spec an attempt actually runs: attempt 1 is the input spec
/// bit-for-bit (so single-shot and campaign runs agree), while later
/// attempts mix the attempt number into the fault plan's seed — a retry
/// faces a *fresh* (but still deterministic) fault schedule instead of
/// deterministically re-losing the same messages forever.
pub fn spec_for_attempt(spec: &ExperimentSpec, attempt: u32) -> ExperimentSpec {
    if attempt <= 1 {
        return spec.clone();
    }
    let mut spec = spec.clone();
    if let Some(plan) = spec.fault_plan.as_mut() {
        plan.seed ^= (attempt as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
    spec
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "opaque panic payload".to_string())
}

/// Recover a mutex guard whether or not the lock is poisoned — for locks
/// whose holders restore their invariants before every unlock, so a
/// poisoned mutex only means some *other* holder panicked mid-section
/// (the campaign catches point panics *around* the scheduler lock, but a
/// panic between `acquire` and `release` — e.g. inside a journal append —
/// would poison it) and must not cascade `PoisonError` unwinds into every
/// other queued point or service request. See the
/// `poisoned_scheduler_lock_does_not_cascade` test.
pub(crate) fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Counting semaphore with weighted, strictly-FIFO admission. Tickets are
/// issued densely: the first `first_free_ticket` tickets belong to the
/// initial points (their input indices); retries draw fresh tickets from
/// [`WeightedSemaphore::take_ticket`], which keeps the line dense and
/// ordered — a retry rejoins at the back of the queue.
struct WeightedSemaphore {
    state: Mutex<SemState>,
    ready: Condvar,
    next_ticket: AtomicUsize,
}

struct SemState {
    available: usize,
    now_serving: usize,
}

impl WeightedSemaphore {
    fn new(capacity: usize, first_free_ticket: usize) -> WeightedSemaphore {
        WeightedSemaphore {
            state: Mutex::new(SemState {
                available: capacity,
                now_serving: 0,
            }),
            ready: Condvar::new(),
            next_ticket: AtomicUsize::new(first_free_ticket),
        }
    }

    /// Claim the next ticket in line. The caller MUST proceed to
    /// [`WeightedSemaphore::acquire`] with it promptly — an issued but
    /// never-acquired ticket would stall everyone behind it.
    fn take_ticket(&self) -> usize {
        self.next_ticket.fetch_add(1, Ordering::Relaxed)
    }

    /// Block until ticket `ticket` is at the head of the line **and**
    /// `cost` slots are free, or — with a cancel token attached — until
    /// the token fires and the ticket reaches the head. Tickets must be
    /// acquired exactly once each, numbered densely from 0 — the campaign
    /// uses the point index.
    ///
    /// Returns `true` when slots were actually taken; `false` when the
    /// acquire was canceled, in which case the ticket is still consumed
    /// (with zero cost, so the line behind it keeps moving) and the caller
    /// must NOT call [`WeightedSemaphore::release`].
    fn acquire(&self, ticket: usize, cost: usize, cancel: Option<&CancelToken>) -> bool {
        let mut st = lock_recover(&self.state);
        loop {
            let canceled = cancel.is_some_and(|c| c.is_canceled());
            if st.now_serving == ticket && (canceled || st.available >= cost) {
                if !canceled {
                    st.available -= cost;
                }
                st.now_serving += 1;
                self.ready.notify_all();
                return !canceled;
            }
            st = if cancel.is_some() {
                // Poll the token: cancellation has no hook into this
                // condvar, so bounded waits keep abandonment latency at
                // one interval without a wake-up channel.
                self.ready
                    .wait_timeout(st, Duration::from_millis(20))
                    .unwrap_or_else(PoisonError::into_inner)
                    .0
            } else {
                self.ready.wait(st).unwrap_or_else(PoisonError::into_inner)
            };
        }
    }

    fn release(&self, cost: usize) {
        let mut st = lock_recover(&self.state);
        st.available += cost;
        self.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Application;

    fn base() -> ExperimentSpec {
        ExperimentSpec::builder("sweep")
            .application(Application::Hacc { particles: 1_000 })
            .build()
            .unwrap()
    }

    #[test]
    fn empty_sweep_is_just_the_base() {
        let sweep = Sweep::over(base());
        let specs = sweep.specs().unwrap();
        assert_eq!(specs.len(), 1);
        assert_eq!(specs[0].algorithm, base().algorithm);
    }

    #[test]
    fn cartesian_product_size() {
        let sweep = Sweep::over(base())
            .algorithms(&Algorithm::particle_algorithms())
            .sampling_ratios(&[1.0, 0.5, 0.25])
            .couplings(&Coupling::all());
        assert_eq!(sweep.len(), 3 * 3 * 3);
        assert_eq!(sweep.specs().unwrap().len(), 27);
    }

    #[test]
    fn names_are_unique() {
        let specs = Sweep::over(base())
            .algorithms(&Algorithm::particle_algorithms())
            .rank_counts(&[1, 2, 4])
            .specs()
            .unwrap();
        let mut names: Vec<&str> = specs.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), specs.len());
    }

    #[test]
    fn invalid_points_are_rejected() {
        // grid algorithm against a particle base application
        let sweep = Sweep::over(base()).algorithms(&[Algorithm::VtkIsosurface]);
        assert!(sweep.specs().is_err());
    }

    #[test]
    fn is_empty_is_honest_and_len_matches_specs() {
        // A sweep is never empty: the base point always survives.
        let bare = Sweep::over(base());
        assert!(!bare.is_empty());
        assert_eq!(bare.len(), bare.specs().unwrap().len());
        // ...including when axes are explicitly set to empty slices
        // (which means "keep the base value", not "zero points").
        let degenerate = Sweep::over(base()).algorithms(&[]).sampling_ratios(&[]);
        assert!(!degenerate.is_empty());
        assert_eq!(degenerate.len(), 1);
        assert_eq!(degenerate.len(), degenerate.specs().unwrap().len());
        // and len() tracks specs() on real products too
        let product = Sweep::over(base())
            .algorithms(&Algorithm::particle_algorithms())
            .sampling_ratios(&[1.0, 0.5])
            .rank_counts(&[1, 2]);
        assert!(!product.is_empty());
        assert_eq!(product.len(), 12);
        assert_eq!(product.len(), product.specs().unwrap().len());
    }

    #[test]
    fn point_cost_accounts_for_coupling_threads() {
        let c = Campaign::with_capacity(16);
        let mut spec = base();
        spec.ranks = 4;
        spec.coupling = Coupling::Tight;
        assert_eq!(c.point_cost(&spec), 4);
        spec.coupling = Coupling::Intercore;
        assert_eq!(c.point_cost(&spec), 8);
        spec.coupling = Coupling::Internode;
        assert_eq!(c.point_cost(&spec), 8); // 4 sim + 4 paired viz
        spec.viz_ranks = Some(1);
        assert_eq!(c.point_cost(&spec), 5); // 4 sim + 1 viz
        // an over-wide point clamps to capacity instead of deadlocking
        let tiny = Campaign::with_capacity(2);
        spec.viz_ranks = None;
        assert_eq!(tiny.point_cost(&spec), 2);
    }

    #[test]
    fn retry_policy_roundtrips_through_serde() {
        let policy = RetryPolicy::standard(3);
        let text = serde_json::to_string(&policy).unwrap();
        let back: RetryPolicy = serde_json::from_str(&text).unwrap();
        assert_eq!(policy, back);
        // defaults reproduce the no-retry policy
        let empty: RetryPolicy = serde_json::from_str("{}").unwrap();
        assert_eq!(empty, RetryPolicy::none());
    }

    #[test]
    fn error_classification_covers_the_transient_classes() {
        use std::time::Duration;
        let timeout = CoreError::Transport(TransportError::Timeout {
            peer: 0,
            elapsed: Duration::from_millis(1),
        });
        assert_eq!(RetryPolicy::classify(&timeout), Some(RetryOn::Timeout));
        let hang = CoreError::Rank(RankFailure::Hang {
            rank: 0,
            waited: Duration::from_millis(1),
            last_step: None,
        });
        assert_eq!(RetryPolicy::classify(&hang), Some(RetryOn::Timeout));
        let gone = CoreError::Transport(TransportError::Disconnected { peer: 1 });
        assert_eq!(RetryPolicy::classify(&gone), Some(RetryOn::Disconnect));
        let boom = CoreError::Rank(RankFailure::Panic {
            rank: 0,
            message: "x".into(),
        });
        assert_eq!(RetryPolicy::classify(&boom), Some(RetryOn::Panic));
        let bad = CoreError::Transport(TransportError::Corrupt {
            peer: 0,
            detail: "checksum".into(),
        });
        assert_eq!(RetryPolicy::classify(&bad), Some(RetryOn::Corrupt));
        // deterministic failures are never retryable
        let cfg = CoreError::Config("bad ratio".into());
        assert_eq!(RetryPolicy::classify(&cfg), None);
        assert!(!RetryPolicy::standard(3).covers(&cfg));
        assert!(!RetryPolicy::none().covers(&timeout));
    }

    fn small_point() -> ExperimentSpec {
        let mut spec = base();
        spec.ranks = 1;
        spec.application = Application::Hacc { particles: 800 };
        spec.width = 24;
        spec.height = 24;
        spec
    }

    fn injected_timeout() -> CoreError {
        CoreError::Transport(TransportError::Timeout {
            peer: 0,
            elapsed: std::time::Duration::from_millis(1),
        })
    }

    /// The three points every table cell runs: one staging key, three
    /// sampling ratios. Index [`VICTIM`] is the one a scenario afflicts.
    fn table_points() -> Vec<ExperimentSpec> {
        [1.0, 0.5, 0.25]
            .iter()
            .enumerate()
            .map(|(i, &ratio)| {
                let mut s = small_point();
                s.sampling_ratio = ratio;
                s.name = format!("cell-{i}");
                s
            })
            .collect()
    }

    const VICTIM: usize = 1;

    fn table_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("eth-sweep-{tag}-{:x}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Journaled {
        No,
        Fresh,
        /// Point 0 already finished in an earlier run over the directory.
        Restorable,
    }

    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Runner {
        /// `runner: None`; the scenario is induced through the victim's spec.
        Default,
        /// A runner wrapping [`run_attempt`] induces the scenario.
        Wrapping,
    }

    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Scenario {
        Clean,
        TransientThenOk,
        Exhausted,
        NonRetryable,
        PanicInRunner,
        CancelWhileQueued,
        CancelDuringBackoff,
    }

    /// What a point's result slot must hold.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Want {
        Ok,
        Quarantined,
        Config,
        Panic,
        Canceled,
    }

    fn class_of(r: &PointResult) -> Want {
        match r {
            Ok(_) => Want::Ok,
            Err(CoreError::Quarantined { .. }) => Want::Quarantined,
            Err(CoreError::Config(_)) => Want::Config,
            Err(CoreError::Rank(RankFailure::Panic { .. })) => Want::Panic,
            Err(CoreError::Canceled) => Want::Canceled,
            Err(other) => panic!("unexpected failure class: {other}"),
        }
    }

    /// One cell's campaign and what it must produce, before restoration
    /// is accounted for (a restored point is `Ok`, 1 attempt, 0 runs).
    struct Cell {
        specs: Vec<ExperimentSpec>,
        retry: RetryPolicy,
        capacity: usize,
        want: [Want; 3],
        attempts: [u32; 3],
        /// Runner invocations per point (0 = abandoned while queued).
        runs: [u32; 3],
    }

    /// The cell for `(scenario, runner)`, or `None` where the default
    /// runner has no way to produce the behaviour: it cannot panic outside
    /// rank supervision or fire a token mid-attempt, and its only seeded
    /// transient that clears on retry is a torn journal write.
    fn cell(scenario: Scenario, runner: Runner, journaled: Journaled, token: &CancelToken) -> Option<Cell> {
        use Want::{Canceled, Config, Ok, Panic, Quarantined};
        let mut c = Cell {
            specs: table_points(),
            retry: RetryPolicy::standard(3),
            capacity: 4,
            want: [Ok; 3],
            attempts: [1; 3],
            runs: [1; 3],
        };
        let by_spec = runner == Runner::Default;
        match scenario {
            Scenario::Clean => {}
            Scenario::TransientThenOk => {
                if by_spec {
                    if journaled == Journaled::No {
                        return None;
                    }
                    // Ordinal 1 is attempt 1's result write (0 was its
                    // Started append): the save tears, the point classifies
                    // as a resource fault, and attempt 2's writes land.
                    c.specs[VICTIM].fault_plan = Some(
                        eth_transport::fault::FaultPlan::default().with_disk_full_at_append(1),
                    );
                }
                (c.attempts[VICTIM], c.runs[VICTIM]) = (2, 2);
            }
            Scenario::Exhausted => {
                if by_spec {
                    c.specs[VICTIM].fault_plan = Some(
                        eth_transport::fault::FaultPlan::default().with_alloc_fail_at_stage(0),
                    );
                }
                c.want[VICTIM] = Quarantined;
                (c.attempts[VICTIM], c.runs[VICTIM]) = (3, 3);
            }
            Scenario::NonRetryable => {
                if by_spec {
                    // fails validation inside run_native_cached
                    c.specs[VICTIM].sampling_ratio = 0.0;
                }
                c.want[VICTIM] = Config;
            }
            Scenario::PanicInRunner => {
                if by_spec {
                    return None;
                }
                c.retry = RetryPolicy::none();
                c.want[VICTIM] = Panic;
            }
            // Capacity 1 serializes the points in input order.
            Scenario::CancelWhileQueued => {
                c.capacity = 1;
                if by_spec {
                    token.cancel(); // fired before anything is admitted
                    (c.want, c.runs) = ([Canceled; 3], [0; 3]);
                } else {
                    // the victim fires it mid-run and still completes
                    (c.want[2], c.runs[2]) = (Canceled, 0);
                }
            }
            Scenario::CancelDuringBackoff => {
                if by_spec {
                    return None;
                }
                c.capacity = 1;
                c.retry = RetryPolicy::standard(5);
                (c.want[VICTIM], c.want[2], c.runs[2]) = (Canceled, Canceled, 0);
            }
        }
        Some(c)
    }

    /// Every way of running a campaign, as one table: {no journal, fresh
    /// journal, journal with a restorable point} × {default runner,
    /// wrapping runner} × the seven scheduler behaviours.
    #[test]
    fn campaign_table() {
        use Scenario::*;
        let reference = Campaign::with_capacity(2).run(&table_points());
        assert_eq!(reference.failures(), 0);
        let images = |out: &CampaignOutcome, i: usize| out.results[i].as_ref().unwrap().images.clone();
        let mut cells = 0;

        for scenario in [Clean, TransientThenOk, Exhausted, NonRetryable, PanicInRunner, CancelWhileQueued, CancelDuringBackoff] {
            for runner in [Runner::Default, Runner::Wrapping] {
                for journaled in [Journaled::No, Journaled::Fresh, Journaled::Restorable] {
                    let token = CancelToken::new();
                    let Some(cell) = cell(scenario, runner, journaled, &token) else { continue };
                    cells += 1;
                    let tag = format!("{scenario:?}-{runner:?}-{journaled:?}");
                    let dir = (journaled != Journaled::No).then(|| table_dir(&tag));
                    if journaled == Journaled::Restorable {
                        let earlier = Campaign::with_capacity(2)
                            .run_journaled(&cell.specs[..1], &RunCaches::new(), dir.as_ref().unwrap())
                            .unwrap();
                        assert_eq!(earlier.failures(), 0, "{tag}");
                    }
                    let restored: Vec<usize> = if journaled == Journaled::Restorable { vec![0] } else { vec![] };

                    let calls = Mutex::new(Vec::new());
                    let wrapper = |index: usize, spec: &ExperimentSpec, attempt: u32, caches: &RunCaches| {
                        calls.lock().unwrap().push(index);
                        let victim = index == VICTIM;
                        match scenario {
                            // attempt 1 does its staging work, then "fails"
                            TransientThenOk if victim && attempt == 1 => {
                                run_attempt(spec, attempt, caches)?;
                                Err(injected_timeout())
                            }
                            Exhausted if victim => Err(injected_timeout()),
                            NonRetryable if victim => Err(CoreError::Config("injected".into())),
                            PanicInRunner if victim => panic!("point panic must stay contained"),
                            CancelWhileQueued if victim => {
                                let out = run_attempt(spec, attempt, caches);
                                token.cancel();
                                out
                            }
                            CancelDuringBackoff if victim => {
                                token.cancel();
                                Err(injected_timeout())
                            }
                            _ => run_attempt(spec, attempt, caches),
                        }
                    };
                    let caches = RunCaches::new();
                    let out = Campaign::with_capacity(cell.capacity)
                        .with_retry_policy(cell.retry.clone())
                        .with_cancel_token(token.clone())
                        .execute(
                            &cell.specs,
                            &caches,
                            dir.as_deref(),
                            (runner == Runner::Wrapping).then_some(&wrapper as &PointRunner<'_>),
                        )
                        .unwrap();

                    // results / attempts / quarantined / restored, in input order
                    let is_restored = |i: usize| restored.contains(&i);
                    for i in 0..3 {
                        let (want, attempts) = if is_restored(i) {
                            (Want::Ok, 1)
                        } else {
                            (cell.want[i], cell.attempts[i])
                        };
                        assert_eq!(class_of(&out.results[i]), want, "{tag}: point {i}");
                        assert_eq!(out.attempts[i], attempts, "{tag}: point {i} attempts");
                    }
                    assert_eq!(out.restored, restored, "{tag}");
                    let quarantined: Vec<usize> =
                        (0..3).filter(|&i| cell.want[i] == Want::Quarantined).collect();
                    assert_eq!(out.quarantined, quarantined, "{tag}");
                    if let Err(CoreError::Quarantined { attempts, last_error }) = &out.results[VICTIM] {
                        assert_eq!(*attempts, 3, "{tag}");
                        let class = RetryPolicy::classify(last_error);
                        let want = if runner == Runner::Default { RetryOn::Resource } else { RetryOn::Timeout };
                        assert_eq!(class, Some(want), "{tag}: {last_error}");
                    }
                    assert_eq!(out.failures(), out.results.iter().filter(|r| r.is_err()).count());
                    assert!(out.wall_s > 0.0 && out.points_per_sec() > 0.0, "{tag}");
                    assert!(token.is_canceled() == matches!(scenario, CancelWhileQueued | CancelDuringBackoff));

                    // the runner ran exactly the attempts the scheduler admitted
                    let runs = |i: usize| if is_restored(i) { 0 } else { cell.runs[i] };
                    if runner == Runner::Wrapping {
                        let calls = calls.lock().unwrap();
                        for i in 0..3 {
                            let n = calls.iter().filter(|&&c| c == i).count() as u32;
                            assert_eq!(n, runs(i), "{tag}: point {i} runner calls");
                        }
                    }

                    // the engine holds the caches: stats are read, never spliced
                    assert_eq!(out.cache, caches.stats(), "{tag}");
                    assert_eq!(
                        out.telemetry.counters.get("cache_staging_hit_rate"),
                        out.cache.staging_hit_rate(),
                        "{tag}"
                    );
                    if scenario == Clean || (scenario, runner) == (TransientThenOk, Runner::Wrapping) {
                        // one staging key: one pass, every other lookup —
                        // a retry's included — is a hit
                        let lookups: u32 = (0..3).map(runs).sum();
                        assert_eq!(out.cache.staging_misses, 1, "{tag}");
                        assert_eq!(out.cache.staging_hits, lookups as u64 - 1, "{tag}");
                    }

                    // A second run over the journal restores every point
                    // that finished, byte-identically, and re-runs only
                    // the rest (abandoned, failed, quarantined).
                    let Some(dir) = dir else { continue };
                    let finished: Vec<usize> = (0..3).filter(|&i| out.results[i].is_ok()).collect();
                    let reran = Mutex::new(Vec::new());
                    let counting = |index: usize, spec: &ExperimentSpec, attempt: u32, caches: &RunCaches| {
                        reran.lock().unwrap().push(index);
                        run_attempt(spec, attempt, caches)
                    };
                    let again = Campaign::with_capacity(2)
                        .execute(&cell.specs, &RunCaches::new(), Some(&dir), Some(&counting))
                        .unwrap();
                    assert_eq!(again.restored, finished, "{tag}: second run");
                    let mut reran = reran.into_inner().unwrap();
                    reran.sort_unstable();
                    let unfinished: Vec<usize> = (0..3).filter(|i| !finished.contains(i)).collect();
                    assert_eq!(reran, unfinished, "{tag}: second run re-ran a finished point");
                    for i in 0..3 {
                        if finished.contains(&i) {
                            assert_eq!(images(&again, i), images(&out, i), "{tag}: point {i} restored");
                        }
                        // wherever the spec is the undisturbed one, the
                        // pixels are the undisturbed campaign's
                        if again.results[i].is_ok() && cell.specs[i].fault_plan.is_none() {
                            assert_eq!(images(&again, i), images(&reference, i), "{tag}: point {i}");
                        }
                    }
                    let _ = std::fs::remove_dir_all(&dir);
                }
            }
        }
        // 42 minus the seven cells `cell` documents as not constructible
        assert_eq!(cells, 35);
    }

    #[test]
    fn editing_a_spec_invalidates_exactly_that_journaled_point() {
        let dir = table_dir("spec-edit");
        let mut specs = table_points();
        let campaign = Campaign::with_capacity(4);
        let first = campaign.run_journaled(&specs, &RunCaches::new(), &dir).unwrap();
        assert_eq!(first.failures(), 0);
        assert!(first.restored.is_empty());
        specs[1].seed += 1;
        let second = campaign.run_journaled(&specs, &RunCaches::new(), &dir).unwrap();
        assert_eq!(second.restored, vec![0, 2]);
        assert_eq!(second.failures(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn poisoned_scheduler_lock_does_not_cascade() {
        // Regression: a panic while holding the semaphore's state lock
        // used to poison it, turning every later `.lock().unwrap()` into
        // a panic across unrelated points. The recovering guard must keep
        // the scheduler serviceable.
        let sem = std::sync::Arc::new(WeightedSemaphore::new(4, 2));
        let poisoner = sem.clone();
        let _ = thread::spawn(move || {
            let _guard = poisoner.state.lock().unwrap();
            panic!("poison the scheduler state lock");
        })
        .join();
        assert!(sem.state.is_poisoned(), "setup: lock must actually be poisoned");
        // acquire and release still work for everyone else
        assert!(sem.acquire(0, 2, None));
        sem.release(2);
        assert!(sem.acquire(1, 1, None));
        sem.release(1);
    }

    #[test]
    fn resource_errors_classify_and_standard_policy_covers_them() {
        let df = CoreError::DiskFull {
            what: "result write".into(),
            needed: 4096,
            used: 100,
            quota: 1000,
        };
        assert_eq!(RetryPolicy::classify(&df), Some(RetryOn::Resource));
        let oom = CoreError::OutOfMemory("staging block 3".into());
        assert_eq!(RetryPolicy::classify(&oom), Some(RetryOn::Resource));
        assert!(RetryPolicy::standard(3).covers(&df));
        assert!(RetryPolicy::standard(3).covers(&oom));
        assert!(!RetryPolicy::none().covers(&df));
    }

    #[test]
    fn journal_quota_exhaustion_quarantines_instead_of_panicking() {
        let dir = std::env::temp_dir().join(format!(
            "eth-sweep-quota-{:x}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        // A quota far below one result file: the WAL squeaks through but
        // every result write hits DiskFull, burns its retries, and the
        // point quarantines — the campaign never panics mid-append.
        let campaign = Campaign::with_capacity(2)
            .with_retry_policy(RetryPolicy::standard(2))
            .with_resources(ResourcePolicy::with_disk_quota(700));
        let out = campaign
            .run_journaled(&[small_point()], &RunCaches::new(), &dir)
            .unwrap();
        match &out.results[0] {
            Err(CoreError::Quarantined { last_error, .. }) => {
                assert!(
                    matches!(**last_error, CoreError::DiskFull { .. }),
                    "expected DiskFull, got {last_error}"
                );
            }
            other => panic!("expected quarantine, got {:?}", other.is_ok()),
        }
        assert_eq!(out.quarantined, vec![0]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn backpressure_gate_stalls_above_high_watermark_and_is_bounded() {
        // Pin the campaign's *own* caches above the watermark, as a
        // long-lived staging cache would: one earlier point left its
        // staged blocks resident. No other store in the process counts.
        let caches = RunCaches::new();
        run_attempt(&small_point(), 1, &caches).unwrap();
        let resident = caches.accountant().resident_bytes();
        assert!(resident > 0);
        let campaign = Campaign::with_capacity(2)
            .with_resources(ResourcePolicy::with_memory_budget(resident));
        let t = Instant::now();
        let out = campaign.run_with(&[small_point()], &caches);
        assert!(out.results[0].is_ok());
        // The gate held admission for the (bounded) stall cap, then let
        // the point through rather than deadlocking on a gauge that will
        // never drain.
        assert!(
            t.elapsed() >= BACKPRESSURE_STALL_CAP,
            "gate did not stall: {:?}",
            t.elapsed()
        );
        assert_eq!(out.telemetry.counters.get("backpressure_stalls"), 1.0);
        // ...and a campaign whose caches hold nothing never stalls, no
        // matter what the rest of the process has staged.
        let t = Instant::now();
        let out = campaign.run(&[small_point()]);
        assert!(out.results[0].is_ok());
        assert!(t.elapsed() < BACKPRESSURE_STALL_CAP, "stalled on someone else's bytes");
    }

    #[test]
    fn sweep_varies_the_right_fields() {
        let specs = Sweep::over(base())
            .sampling_ratios(&[0.75, 0.25])
            .specs()
            .unwrap();
        assert_eq!(specs.len(), 2);
        assert_eq!(specs[0].sampling_ratio, 0.75);
        assert_eq!(specs[1].sampling_ratio, 0.25);
        // unswept axes untouched
        assert_eq!(specs[0].ranks, base().ranks);
    }
}
