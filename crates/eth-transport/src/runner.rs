//! The `mpirun` equivalent: launch N ranks and join them.
//!
//! "In the first case, experiments are easily run using the standard batch
//! scheduler" (Section III-C) — in this harness the "batch scheduler" is
//! [`launch`]: one thread per [`Seat`], collected under a [`Supervision`]
//! that may be empty. Every coupling starts its ranks here — the in-process
//! fabric of tight and intercore, and the two "applications" of internode,
//! whose seats share no communicator. [`run_ranks`] is the convenience for
//! "N ranks on one [`LocalFabric`], no supervision".

use crate::comm::Communicator;
use crate::local::{LocalComm, LocalFabric};
use crossbeam::channel::{unbounded, RecvTimeoutError};
use serde::{Deserialize, Serialize};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// How a launch failed: a rank panicked, or a rank failed to finish within
/// its wall-clock budget or fell silent past the loss budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RankFailure {
    /// A rank's body panicked; `message` is the panic payload when it was
    /// a string.
    Panic { rank: usize, message: String },
    /// A rank did not finish within the budget. Under the global-deadline
    /// fallback the rank reported is one that had not completed when the
    /// budget expired and `last_step` is `None`; under heartbeat
    /// supervision it is the rank that *stopped beating*, with the last
    /// step it completed before going silent.
    Hang {
        rank: usize,
        waited: Duration,
        last_step: Option<usize>,
    },
}

impl std::fmt::Display for RankFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RankFailure::Panic { rank, message } => {
                write!(f, "rank {rank} panicked: {message}")
            }
            RankFailure::Hang {
                rank,
                waited,
                last_step: Some(step),
            } => write!(
                f,
                "rank {rank} stopped beating after completing step {step} \
                 (silent for {:.3}s)",
                waited.as_secs_f64()
            ),
            RankFailure::Hang {
                rank,
                waited,
                last_step: None,
            } => write!(
                f,
                "rank {rank} did not finish within {:.3}s",
                waited.as_secs_f64()
            ),
        }
    }
}

impl std::error::Error for RankFailure {}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One rank of a launch: the id its thread, its spans and (if the launch is
/// watched) its heartbeat-board slot carry, and the body it runs.
pub struct Seat<T> {
    pub rank: usize,
    pub body: Box<dyn FnOnce() -> T + Send>,
}

impl<T> Seat<T> {
    pub fn new(rank: usize, body: impl FnOnce() -> T + Send + 'static) -> Seat<T> {
        Seat {
            rank,
            body: Box::new(body),
        }
    }
}

/// Heartbeat supervision of a launch. The caller owns the board (the rank
/// bodies beat it and consult it) and decides who sits on it: a seat whose
/// rank is below `board.size()` is watched, any other seat is only waited
/// for. Tight and intercore put every rank on the board; internode puts
/// the simulation ranks there — the ranks a scripted kill can take down.
pub struct Watch {
    pub board: Arc<HeartbeatBoard>,
    pub policy: HeartbeatPolicy,
    /// Deaths the launch rides out; one more fails it.
    pub max_losses: usize,
}

/// What watches a launch. Both parts may be absent; the empty supervision
/// blocks until every rank has reported and never looks at a clock.
#[derive(Default)]
pub struct Supervision {
    /// Wall clock the whole launch may take before it fails with
    /// [`RankFailure::Hang`].
    pub budget: Option<Duration>,
    pub watch: Option<Watch>,
}

/// Run every seat's body on its own thread and collect the results, in
/// seat order. `None` marks a rank that was declared dead and never
/// reported (a dead rank that parks until its death is on the board and
/// then returns keeps its slot: that is its tombstone).
///
/// Rank threads inherit the launcher's flight-recorder sinks, tagged by
/// seat rank. A panic in a body becomes [`RankFailure::Panic`] — reported
/// once every other rank has been collected, and ahead of any hang it
/// caused. On the clean path every thread is joined. Threads are detached
/// (Rust threads cannot be cancelled; they run on until they finish or the
/// process exits, results discarded) only when the launch gives up: the
/// budget expired, more than `max_losses` ranks died, or a dead rank left
/// no tombstone within one more detection window.
///
/// Under a [`Watch`] the collector doubles as the supervisor: between
/// reports it scans the board every `policy.poll_interval()`, so a silent
/// rank is declared dead after `interval × miss_budget` — O(interval), not
/// O(run). A watched rank is marked done the moment its body returns; one
/// that panics just falls silent and is declared dead like any other.
pub fn launch<T: Send + 'static>(
    seats: Vec<Seat<T>>,
    supervision: &Supervision,
) -> std::result::Result<Vec<Option<T>>, RankFailure> {
    let size = seats.len();
    let watch = supervision.watch.as_ref();
    let watched = |rank: usize| watch.filter(|w| rank < w.board.size());
    let obs = eth_obs::current_context();
    let (tx, rx) = unbounded::<(usize, thread::Result<T>)>();
    let mut ranks = Vec::with_capacity(size);
    let mut handles = Vec::with_capacity(size);
    for (seat, Seat { rank, body }) in seats.into_iter().enumerate() {
        let (tx, obs) = (tx.clone(), obs.clone());
        let board = watched(rank).map(|w| w.board.clone());
        ranks.push(rank);
        let handle = thread::Builder::new()
            .name(format!("eth-rank-{rank}"))
            .spawn(move || {
                let _obs = obs.attach();
                eth_obs::set_rank(rank);
                if let Some(board) = &board {
                    board.beat(rank);
                }
                let result = catch_unwind(AssertUnwindSafe(body));
                if let (Ok(_), Some(board)) = (&result, &board) {
                    board.mark_done(rank);
                }
                let _ = tx.send((seat, result));
            })
            .expect("spawn rank thread");
        handles.push(Some(handle));
    }
    drop(tx);

    let budget = supervision
        .budget
        .map(|budget| (budget, Instant::now() + budget));
    if watch.is_some() || budget.is_some() {
        // the collect below wakes on a clock; the empty supervision never does
        eth_obs::count("supervised_launches", 1.0);
    }
    let mut slots: Vec<Option<T>> = (0..size).map(|_| None).collect();
    let mut outstanding = size;
    let mut panicked: Option<RankFailure> = None;
    // Once every live rank has reported, dead ranks get one more detection
    // window to deliver a parked tombstone before we give up on them.
    let mut tombstone_grace: Option<Instant> = None;
    while outstanding > 0 {
        let wake = match watch {
            Some(w) => Some(Instant::now() + w.policy.poll_interval()),
            None => budget.map(|(_, deadline)| deadline),
        };
        let report = match wake {
            None => rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
            Some(at) => rx.recv_deadline(at),
        };
        match report {
            Ok((seat, result)) => {
                outstanding -= 1;
                match result {
                    Ok(value) => slots[seat] = Some(value),
                    Err(payload) => {
                        panicked.get_or_insert(RankFailure::Panic {
                            rank: ranks[seat],
                            message: panic_message(payload.as_ref()),
                        });
                    }
                }
                // It has sent its result: all that is left is its exit. A
                // seat with no handle is a seat that has reported.
                if let Some(handle) = handles[seat].take() {
                    let _ = handle.join();
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            // every rank thread is gone and the queue is drained
            Err(RecvTimeoutError::Disconnected) => break,
        }
        if let Some(w) = watch {
            let detection = w.policy.detection_deadline();
            w.board.scan(detection);
            if let Some(death) = w.board.deaths().get(w.max_losses) {
                return Err(panicked.unwrap_or(RankFailure::Hang {
                    rank: death.rank,
                    waited: death.detection_latency(),
                    last_step: death.last_step,
                }));
            }
            let is_dead = |rank| watched(rank).is_some_and(|w| w.board.is_dead(rank));
            let only_the_dead_are_out = outstanding > 0
                && (0..size).all(|seat| handles[seat].is_none() || is_dead(ranks[seat]));
            if !only_the_dead_are_out {
                tombstone_grace = None;
            } else if tombstone_grace.get_or_insert_with(Instant::now).elapsed() > detection {
                break;
            }
        }
        let expired = |(_, deadline): &(Duration, Instant)| Instant::now() > *deadline;
        if let Some((budget, _)) = budget.filter(|b| outstanding > 0 && expired(b)) {
            // blame the stalest beacon when there is one to read
            let rank = watch
                .and_then(|w| w.board.stalest_alive())
                .or_else(|| Some(ranks[handles.iter().position(Option::is_some)?]))
                .expect("a rank is outstanding");
            return Err(panicked.unwrap_or(RankFailure::Hang {
                rank,
                waited: budget,
                last_step: watched(rank).and_then(|w| w.board.last_step(rank)),
            }));
        }
    }
    panicked.map_or(Ok(slots), Err)
}

/// Spawn `size` ranks over an in-process fabric, run `body` on each, and
/// join. Returns per-rank results (indexed by rank).
///
/// A panic in a rank is re-raised here (after all ranks are joined),
/// matching the fail-fast behaviour of `mpirun`.
pub fn run_ranks<T, F>(size: usize, body: F) -> Vec<T>
where
    T: Send + 'static,
    F: Fn(LocalComm) -> T + Send + Sync + Clone + 'static,
{
    let seats = LocalFabric::new(size)
        .into_iter()
        .map(|comm| {
            let body = body.clone();
            Seat::new(comm.rank(), move || body(comm))
        })
        .collect();
    match launch(seats, &Supervision::default()) {
        Ok(results) => results
            .into_iter()
            .map(|result| result.expect("an unwatched launch loses no rank"))
            .collect(),
        Err(failure) => panic!("{failure}"),
    }
}

/// Per-rank liveness beacons: how often a healthy rank must beat, and how
/// many missed intervals mark it dead. Replaces the single global hang
/// deadline for detection (the global budget stays as a backstop): a dead
/// rank is noticed in `interval_ms × miss_budget` milliseconds instead of
/// at the end of the whole run's wall-clock budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HeartbeatPolicy {
    /// Expected beacon interval, milliseconds.
    #[serde(default = "default_heartbeat_interval_ms")]
    pub interval_ms: u64,
    /// Consecutive missed intervals before a rank is declared dead.
    #[serde(default = "default_heartbeat_miss_budget")]
    pub miss_budget: u32,
}

fn default_heartbeat_interval_ms() -> u64 {
    25
}

fn default_heartbeat_miss_budget() -> u32 {
    4
}

impl Default for HeartbeatPolicy {
    fn default() -> HeartbeatPolicy {
        HeartbeatPolicy {
            interval_ms: default_heartbeat_interval_ms(),
            miss_budget: default_heartbeat_miss_budget(),
        }
    }
}

impl HeartbeatPolicy {
    /// Silence longer than this marks a rank dead.
    pub fn detection_deadline(&self) -> Duration {
        Duration::from_millis(self.interval_ms.max(1) * self.miss_budget.max(1) as u64)
    }

    /// How often the supervisor scans the board (half the beat interval,
    /// floored at 1 ms, so detection latency stays O(interval)).
    pub fn poll_interval(&self) -> Duration {
        Duration::from_millis((self.interval_ms / 2).max(1))
    }

    /// Sanity-check the policy, naming the offending field.
    pub fn validate(&self) -> std::result::Result<(), String> {
        if self.interval_ms == 0 {
            return Err("heartbeat interval_ms must be > 0".into());
        }
        if self.miss_budget == 0 {
            return Err("heartbeat miss_budget must be > 0".into());
        }
        Ok(())
    }
}

const RANK_ALIVE: u8 = 0;
const RANK_DONE: u8 = 1;
const RANK_DEAD: u8 = 2;

struct RankSlot {
    /// Nanoseconds since board origin of the last beacon.
    last_beat_ns: AtomicU64,
    /// Last *completed* step + 1 (0 = none completed yet).
    last_step: AtomicU64,
    state: AtomicU8,
}

/// One confirmed rank death, as recorded by the supervisor scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeathNotice {
    /// The rank that stopped beating.
    pub rank: usize,
    /// The last step it completed before going silent, if any.
    pub last_step: Option<usize>,
    /// Board-origin nanoseconds of its last beacon.
    pub last_beat_ns: u64,
    /// Board-origin nanoseconds when the supervisor declared it dead.
    pub detected_ns: u64,
}

impl DeathNotice {
    /// Silence between the last beacon and the declaration — the
    /// detection half of recovery latency.
    pub fn detection_latency(&self) -> Duration {
        Duration::from_nanos(self.detected_ns.saturating_sub(self.last_beat_ns))
    }
}

/// Shared liveness board: every rank posts beacons, a supervisor scans for
/// silence, and survivors consult it to learn who died (and at which step)
/// without ever messaging the dead peer. Lock-free on the beat path — one
/// atomic store per beacon.
pub struct HeartbeatBoard {
    origin: Instant,
    slots: Vec<RankSlot>,
    notices: Mutex<Vec<DeathNotice>>,
}

impl HeartbeatBoard {
    /// A board for `size` ranks; every rank starts alive with a beacon at
    /// the origin, so a rank that dies before its first beat is still
    /// detected one detection-deadline after the board is created.
    pub fn new(size: usize) -> Arc<HeartbeatBoard> {
        Arc::new(HeartbeatBoard {
            origin: Instant::now(),
            slots: (0..size)
                .map(|_| RankSlot {
                    last_beat_ns: AtomicU64::new(0),
                    last_step: AtomicU64::new(0),
                    state: AtomicU8::new(RANK_ALIVE),
                })
                .collect(),
            notices: Mutex::new(Vec::new()),
        })
    }

    pub fn size(&self) -> usize {
        self.slots.len()
    }

    /// Nanoseconds since the board's origin (the liveness clock).
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Post a liveness beacon for `rank`.
    pub fn beat(&self, rank: usize) {
        self.slots[rank].last_beat_ns.store(self.now_ns(), Ordering::Release);
    }

    /// Record that `rank` completed `step`, which doubles as a beacon.
    /// Monotonic: a late or reordered report of an earlier step never
    /// rewinds the attribution (fetch_max, not store), so concurrent
    /// reporters can race without corrupting `last_step`.
    pub fn step_done(&self, rank: usize, step: usize) {
        self.slots[rank]
            .last_step
            .fetch_max(step as u64 + 1, Ordering::AcqRel);
        self.beat(rank);
    }

    /// Mark `rank` cleanly finished: it stops beating and must not be
    /// declared dead. Keeps an existing DEAD state (a dead rank's
    /// tombstone return does not resurrect it).
    pub fn mark_done(&self, rank: usize) {
        let _ = self.slots[rank].state.compare_exchange(
            RANK_ALIVE,
            RANK_DONE,
            Ordering::AcqRel,
            Ordering::Acquire,
        );
    }

    pub fn is_dead(&self, rank: usize) -> bool {
        self.slots[rank].state.load(Ordering::Acquire) == RANK_DEAD
    }

    pub fn is_done(&self, rank: usize) -> bool {
        self.slots[rank].state.load(Ordering::Acquire) == RANK_DONE
    }

    /// The last step `rank` completed, if any.
    pub fn last_step(&self, rank: usize) -> Option<usize> {
        match self.slots[rank].last_step.load(Ordering::Acquire) {
            0 => None,
            s => Some(s as usize - 1),
        }
    }

    /// Board-origin nanoseconds of `rank`'s last beacon.
    pub fn last_beat_ns(&self, rank: usize) -> u64 {
        self.slots[rank].last_beat_ns.load(Ordering::Acquire)
    }

    /// Declare `rank` dead (idempotent). Returns the notice when this call
    /// made the transition.
    pub fn declare_dead(&self, rank: usize) -> Option<DeathNotice> {
        let flipped = self.slots[rank]
            .state
            .compare_exchange(RANK_ALIVE, RANK_DEAD, Ordering::AcqRel, Ordering::Acquire)
            .is_ok();
        if !flipped {
            return None;
        }
        let notice = DeathNotice {
            rank,
            last_step: self.last_step(rank),
            last_beat_ns: self.last_beat_ns(rank),
            detected_ns: self.now_ns(),
        };
        self.notices.lock().unwrap().push(notice);
        Some(notice)
    }

    /// One supervisor scan: declare dead every alive rank silent for
    /// longer than `detection`. Returns the *new* notices.
    pub fn scan(&self, detection: Duration) -> Vec<DeathNotice> {
        let now = self.now_ns();
        let limit = detection.as_nanos() as u64;
        let mut fresh = Vec::new();
        for rank in 0..self.slots.len() {
            if self.slots[rank].state.load(Ordering::Acquire) != RANK_ALIVE {
                continue;
            }
            if now.saturating_sub(self.last_beat_ns(rank)) > limit {
                if let Some(n) = self.declare_dead(rank) {
                    fresh.push(n);
                }
            }
        }
        fresh
    }

    /// All deaths declared so far, in declaration order.
    pub fn deaths(&self) -> Vec<DeathNotice> {
        self.notices.lock().unwrap().clone()
    }

    /// The first death declared for `rank`, if any.
    pub fn death_of(&self, rank: usize) -> Option<DeathNotice> {
        self.notices.lock().unwrap().iter().find(|n| n.rank == rank).copied()
    }

    /// The stalest still-alive rank — the best hang suspect when the
    /// global budget expires before any detection fires.
    pub fn stalest_alive(&self) -> Option<usize> {
        (0..self.slots.len())
            .filter(|&r| self.slots[r].state.load(Ordering::Acquire) == RANK_ALIVE)
            .min_by_key(|&r| self.last_beat_ns(r))
    }

    /// Block until `rank` is declared dead (the parked tombstone path a
    /// kill-injected rank takes: a dead node does not "finish early", it
    /// goes silent until the supervisor notices). Bounded by `budget`.
    pub fn await_death(&self, rank: usize, budget: Duration) -> Option<DeathNotice> {
        let deadline = Instant::now() + budget;
        while Instant::now() < deadline {
            if self.is_dead(rank) {
                return self.death_of(rank);
            }
            thread::sleep(Duration::from_millis(1));
        }
        self.death_of(rank)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collectives::gather;
    use bytes::Bytes;

    #[test]
    fn ranks_see_their_ids() {
        let ids = run_ranks(4, |c| (c.rank(), c.size()));
        assert_eq!(ids, vec![(0, 4), (1, 4), (2, 4), (3, 4)]);
    }

    #[test]
    fn results_indexed_by_rank() {
        let sq = run_ranks(5, |c| c.rank() * c.rank());
        assert_eq!(sq, vec![0, 1, 4, 9, 16]);
    }

    #[test]
    fn ring_pass_over_runner() {
        let sums = run_ranks(4, |c| {
            let next = (c.rank() + 1) % c.size();
            let prev = (c.rank() + c.size() - 1) % c.size();
            c.send(next, 0, Bytes::from(vec![c.rank() as u8])).unwrap();
            c.recv(prev, 0).unwrap()[0] as usize
        });
        assert_eq!(sums, vec![3, 0, 1, 2]);
    }

    #[test]
    fn the_gather_works_over_runner() {
        let gathered = run_ranks(6, |c| {
            let mine = Bytes::from(vec![c.rank() as u8]);
            gather(&c, 0..6, 0, mine, None).unwrap().map(|slots| slots.len())
        });
        assert_eq!(gathered, vec![Some(6), None, None, None, None, None]);
    }

    #[test]
    #[should_panic(expected = "rank 2 exploded")]
    fn rank_panic_propagates() {
        run_ranks(3, |c| {
            if c.rank() == 2 {
                panic!("rank 2 exploded");
            }
        });
    }

    fn fast_policy() -> HeartbeatPolicy {
        HeartbeatPolicy {
            interval_ms: 10,
            miss_budget: 3,
        }
    }

    #[test]
    fn heartbeat_policy_defaults_and_serde() {
        let p = HeartbeatPolicy::default();
        assert!(p.validate().is_ok());
        assert_eq!(
            p.detection_deadline(),
            Duration::from_millis(p.interval_ms * p.miss_budget as u64)
        );
        let empty: HeartbeatPolicy = serde_json::from_str("{}").unwrap();
        assert_eq!(empty, HeartbeatPolicy::default());
        let back: HeartbeatPolicy =
            serde_json::from_str(&serde_json::to_string(&fast_policy()).unwrap()).unwrap();
        assert_eq!(back, fast_policy());
        assert!(HeartbeatPolicy { interval_ms: 0, miss_budget: 3 }.validate().is_err());
        assert!(HeartbeatPolicy { interval_ms: 5, miss_budget: 0 }.validate().is_err());
    }

    /// What one rank of the launcher table does; the others run `Clean`.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Behaviour {
        /// Every rank reports step 4 (if watched) and returns `rank²`.
        Clean,
        /// Rank 1 panics.
        Panic,
        /// Rank 1 never finishes but (on a board) keeps beating.
        Hang,
        /// Rank 1 completes step 4, stops beating, parks until it is
        /// declared dead and leaves a tombstone; survivors wait to see the
        /// death. Needs a board.
        SilentWithinBudget,
        /// Rank 1 completes step 4 and goes silent for good. Needs a board.
        SilentForGood,
    }

    const TOMBSTONE: usize = usize::MAX;

    fn rank_body(
        behaviour: Behaviour,
        rank: usize,
        board: Option<Arc<HeartbeatBoard>>,
    ) -> impl FnOnce() -> usize + Send + 'static {
        move || {
            let victim = rank == 1 && behaviour != Behaviour::Clean;
            // the slot this rank beats, if it sits on the board at all
            let seat = board.clone().filter(|board| rank < board.size());
            let beat = || {
                if let Some(board) = &seat {
                    board.beat(rank);
                }
                thread::sleep(Duration::from_millis(2));
            };
            if let Some(board) = &seat {
                board.step_done(rank, 4);
            }
            match behaviour {
                Behaviour::Panic if victim => panic!("rank 1 exploded"),
                Behaviour::Hang if victim => {
                    let t = Instant::now();
                    while t.elapsed() < Duration::from_secs(5) {
                        beat();
                    }
                }
                Behaviour::SilentWithinBudget if victim => {
                    seat.unwrap().await_death(rank, Duration::from_secs(10));
                    return TOMBSTONE;
                }
                Behaviour::SilentForGood if victim => thread::sleep(Duration::from_secs(10)),
                Behaviour::SilentWithinBudget => {
                    // survivors must be able to observe the death
                    while !board.as_ref().unwrap().is_dead(1) {
                        beat();
                    }
                }
                _ => {}
            }
            rank * rank
        }
    }

    type TableRun = std::result::Result<Vec<Option<usize>>, RankFailure>;

    /// Ranks `order` seated in that order, under `budget` and — with
    /// `heartbeat = (board size, max losses)` — a watch at `fast_policy`.
    fn table_launch(
        order: &[usize],
        behaviour: Behaviour,
        budget: Option<Duration>,
        heartbeat: Option<(usize, usize)>,
    ) -> (TableRun, Option<Arc<HeartbeatBoard>>) {
        let board = heartbeat.map(|(board_size, _)| HeartbeatBoard::new(board_size));
        let seats = order
            .iter()
            .map(|&rank| Seat::new(rank, rank_body(behaviour, rank, board.clone())))
            .collect();
        let supervision = Supervision {
            budget,
            watch: heartbeat.zip(board.clone()).map(|((_, max_losses), board)| Watch {
                board,
                policy: fast_policy(),
                max_losses,
            }),
        };
        (launch(seats, &supervision), board)
    }

    /// One launcher, every supervision × every rank behaviour. Cells that
    /// are absent wait forever by design (a hang nothing bounds) or make no
    /// sense (falling silent with no board to be silent on).
    #[test]
    fn launcher_table() {
        use Behaviour::*;
        let detection = fast_policy().detection_deadline();
        let squares = vec![Some(0), Some(1), Some(4), Some(9)];
        let long = Some(Duration::from_secs(30));
        let short = Duration::from_millis(200);
        // (name, budget, watch as (board size, max losses))
        let supervisions = [
            ("empty", None, None),
            ("budget", long, None),
            ("heartbeat", None, Some(4)),
            ("heartbeat+budget", long, Some(4)),
        ];
        for (name, budget, board_size) in supervisions {
            let watch = |max_losses| board_size.map(|size| (size, max_losses));
            let start = Instant::now();

            let (run, board) = table_launch(&[0, 1, 2, 3], Clean, budget, watch(0));
            assert_eq!(run.unwrap(), squares, "{name} × clean");
            assert!(board.is_none_or(|b| b.deaths().is_empty()), "{name} × clean");

            let (run, _) = table_launch(&[0, 1, 2, 3], Panic, budget, watch(0));
            match run.unwrap_err() {
                RankFailure::Panic { rank, message } => {
                    assert_eq!(rank, 1, "{name} × panic");
                    assert!(message.contains("exploded"), "{name} × panic: {message}");
                }
                other => panic!("{name} × panic: expected Panic, got {other:?}"),
            }

            if budget.is_some() {
                // a rank that beats but never finishes: only the budget
                // can fire, and it must not wait out the hang
                let (run, _) = table_launch(&[0, 1, 2, 3], Hang, Some(short), watch(1));
                match run.unwrap_err() {
                    RankFailure::Hang { rank, last_step, waited } => {
                        assert_eq!(rank, 1, "{name} × hang");
                        assert_eq!(waited, short, "{name} × hang");
                        // the backstop keeps step attribution when it has a board
                        assert_eq!(last_step, board_size.map(|_| 4), "{name} × hang");
                    }
                    other => panic!("{name} × hang: expected Hang, got {other:?}"),
                }
            }

            if board_size.is_some() {
                let (run, board) = table_launch(&[0, 1, 2, 3], SilentWithinBudget, budget, watch(1));
                let mut want = squares.clone();
                want[1] = Some(TOMBSTONE);
                assert_eq!(run.unwrap(), want, "{name} × silent: tombstone must be kept");
                let deaths = board.unwrap().deaths();
                assert_eq!(deaths.len(), 1, "{name} × silent");
                assert_eq!((deaths[0].rank, deaths[0].last_step), (1, Some(4)));
                assert!(deaths[0].detection_latency() >= detection);

                // zero loss budget: fail in O(detection), far under the
                // 30 s budget, naming the rank and its last step
                let (run, _) = table_launch(&[0, 1, 2, 3], SilentForGood, budget, watch(0));
                let err = run.unwrap_err();
                match &err {
                    RankFailure::Hang { rank, last_step, waited } => {
                        assert_eq!((*rank, *last_step), (1, Some(4)), "{name} × one too many");
                        assert!(*waited >= detection);
                    }
                    other => panic!("{name} × one too many: expected Hang, got {other:?}"),
                }
                let msg = err.to_string();
                assert!(msg.contains("rank 1") && msg.contains("step 4"), "{msg}");
            }
            assert!(
                start.elapsed() < Duration::from_secs(5),
                "{name}: a cell waited out a hang ({:?})",
                start.elapsed()
            );
        }
    }

    #[test]
    fn seats_need_not_be_a_fabric_and_the_board_may_cover_a_subset() {
        // The internode shape: ranks 2 and 3 (the "visualization
        // application") are seated first and sit on no board; ranks 0 and 1
        // do. Rank 1 dies within the loss budget. The unwatched ranks never
        // beat, outlive several detection windows, and are still only
        // waited for — never declared dead, never scanned.
        let (run, board) = table_launch(
            &[2, 3, 0, 1],
            Behaviour::SilentWithinBudget,
            Some(Duration::from_secs(30)),
            Some((2, 1)),
        );
        // results come back in seat order
        assert_eq!(run.unwrap(), vec![Some(4), Some(9), Some(0), Some(TOMBSTONE)]);
        let board = board.unwrap();
        assert_eq!(board.deaths().len(), 1);
        assert!(board.is_dead(1) && board.is_done(0));

        // an unwatched rank that hangs is caught by the budget, by name
        let (run, _) = table_launch(
            &[1, 2, 0],
            Behaviour::Hang,
            Some(Duration::from_millis(200)),
            Some((1, 0)),
        );
        match run.unwrap_err() {
            RankFailure::Hang { rank, last_step, .. } => {
                assert_eq!((rank, last_step), (1, None));
            }
            other => panic!("expected Hang, got {other:?}"),
        }
    }

    #[test]
    fn empty_supervision_never_looks_at_a_clock() {
        let timed_waits = |supervision: Supervision| {
            let recorder = eth_obs::Recorder::new();
            let _obs = recorder.attach();
            let seats = (0..3).map(|rank| Seat::new(rank, move || rank)).collect();
            assert_eq!(launch(seats, &supervision).unwrap(), vec![Some(0), Some(1), Some(2)]);
            drop(_obs);
            recorder.take().counts().get("supervised_launches").copied()
        };
        assert_eq!(timed_waits(Supervision::default()), None);
        let budget = Supervision {
            budget: Some(Duration::from_secs(30)),
            watch: None,
        };
        assert_eq!(timed_waits(budget), Some(1.0));
    }

    #[test]
    fn board_state_machine_is_idempotent_and_monotonic() {
        let board = HeartbeatBoard::new(2);
        assert_eq!(board.last_step(0), None);
        board.step_done(0, 3);
        assert_eq!(board.last_step(0), Some(3));
        // first declaration yields a notice, the second does not
        assert!(board.declare_dead(0).is_some());
        assert!(board.declare_dead(0).is_none());
        assert!(board.is_dead(0));
        // a dead rank's tombstone return must not resurrect it
        board.mark_done(0);
        assert!(board.is_dead(0) && !board.is_done(0));
        // a done rank can never be declared dead
        board.mark_done(1);
        assert!(board.declare_dead(1).is_none());
        assert!(board.scan(Duration::from_nanos(0)).is_empty());
        assert_eq!(board.deaths().len(), 1);
        assert_eq!(board.death_of(0).unwrap().last_step, Some(3));
        assert!(board.death_of(1).is_none());
    }

    #[test]
    fn step_done_never_rewinds_attribution() {
        let board = HeartbeatBoard::new(1);
        board.step_done(0, 5);
        // a late report of an earlier step is absorbed, not a rewind
        board.step_done(0, 2);
        assert_eq!(board.last_step(0), Some(5));
        board.step_done(0, 7);
        assert_eq!(board.last_step(0), Some(7));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;
        use std::sync::atomic::AtomicBool;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// Step attribution is monotonic per rank no matter how
            /// reporters interleave: two writer threads race randomly
            /// ordered `step_done` calls while a reader samples, and the
            /// observed sequence never decreases; the final attribution is
            /// the maximum reported step.
            #[test]
            fn step_attribution_is_monotonic_under_interleavings(
                ops in prop::collection::vec((0usize..2, 0usize..40), 4..40),
            ) {
                let board = HeartbeatBoard::new(2);
                let split = ops.len() / 2;
                let halves = [ops[..split].to_vec(), ops[split..].to_vec()];
                let stop = Arc::new(AtomicBool::new(false));
                let reader = {
                    let board = board.clone();
                    let stop = stop.clone();
                    thread::spawn(move || {
                        let mut seen: [Vec<Option<usize>>; 2] = [Vec::new(), Vec::new()];
                        while !stop.load(Ordering::Acquire) {
                            for (rank, log) in seen.iter_mut().enumerate() {
                                log.push(board.last_step(rank));
                            }
                        }
                        seen
                    })
                };
                let writers: Vec<_> = halves
                    .into_iter()
                    .map(|half| {
                        let board = board.clone();
                        thread::spawn(move || {
                            for (rank, step) in half {
                                board.step_done(rank, step);
                            }
                        })
                    })
                    .collect();
                for w in writers {
                    w.join().unwrap();
                }
                stop.store(true, Ordering::Release);
                let seen = reader.join().unwrap();
                for (rank, seen_rank) in seen.iter().enumerate() {
                    for pair in seen_rank.windows(2) {
                        prop_assert!(
                            pair[1] >= pair[0],
                            "rank {} attribution rewound: {:?} -> {:?}",
                            rank, pair[0], pair[1]
                        );
                    }
                    let expect = ops
                        .iter()
                        .filter(|(r, _)| *r == rank)
                        .map(|&(_, s)| s)
                        .max();
                    prop_assert_eq!(board.last_step(rank), expect);
                }
            }

            /// Death notices never report negative silence: whatever the
            /// interleaving of beats, step reports, and declarations, every
            /// notice's detection timestamp is at or after the last beacon
            /// it blames, and each rank dies at most once.
            #[test]
            fn death_latency_is_non_negative_under_interleavings(
                ops in prop::collection::vec((0usize..3, 0u8..4, 0usize..16), 4..48),
            ) {
                let board = HeartbeatBoard::new(3);
                let split = ops.len() / 2;
                let halves = [ops[..split].to_vec(), ops[split..].to_vec()];
                let workers: Vec<_> = halves
                    .into_iter()
                    .map(|half| {
                        let board = board.clone();
                        thread::spawn(move || {
                            for (rank, op, step) in half {
                                match op {
                                    0 => board.beat(rank),
                                    1 => board.step_done(rank, step),
                                    2 => {
                                        board.declare_dead(rank);
                                    }
                                    _ => {
                                        board.scan(Duration::from_nanos(step as u64));
                                    }
                                }
                            }
                        })
                    })
                    .collect();
                for w in workers {
                    w.join().unwrap();
                }
                let deaths = board.deaths();
                for d in &deaths {
                    prop_assert!(
                        d.detected_ns >= d.last_beat_ns,
                        "rank {} declared dead {}ns before its last beacon",
                        d.rank,
                        d.last_beat_ns - d.detected_ns
                    );
                    prop_assert!(d.detection_latency() >= Duration::ZERO);
                }
                for rank in 0..3 {
                    prop_assert!(
                        deaths.iter().filter(|d| d.rank == rank).count() <= 1,
                        "rank {} died more than once", rank
                    );
                }
            }
        }
    }
}
