//! The `mpirun` equivalent: launch N ranks and join them.
//!
//! "In the first case, experiments are easily run using the standard batch
//! scheduler" (Section III-C) — in this harness the "batch scheduler" is
//! [`launch`]: one thread per [`Seat`], collected under an optional
//! wall-clock budget. Every coupling starts its ranks here — the in-process
//! fabric of tight and intercore, and the two "applications" of internode,
//! whose seats share no communicator. [`run_ranks`] is the convenience for
//! "N ranks on one [`LocalFabric`], no budget".

use crate::comm::Communicator;
use crate::local::{LocalComm, LocalFabric};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, RecvTimeoutError};
use std::thread;
use std::time::{Duration, Instant};

/// How a launch failed: a rank panicked, or a rank failed to finish within
/// the launch's wall-clock budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RankFailure {
    /// A rank's body panicked; `message` is the panic payload when it was
    /// a string.
    Panic { rank: usize, message: String },
    /// A rank had not finished when the budget expired: the first seat,
    /// in seat order, still outstanding.
    Hang { rank: usize, waited: Duration },
}

impl std::fmt::Display for RankFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RankFailure::Panic { rank, message } => {
                write!(f, "rank {rank} panicked: {message}")
            }
            RankFailure::Hang { rank, waited } => write!(
                f,
                "rank {rank} did not finish within {:.3}s",
                waited.as_secs_f64()
            ),
        }
    }
}

impl std::error::Error for RankFailure {}

/// The text a panic carried: its `&str` or `String` payload, or a stand-in
/// for any other payload type.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One rank of a launch: the id its thread and its spans carry, and the
/// body it runs.
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

/// Run every seat's body on its own thread and collect the results, in
/// seat order. Every rank reports, a dead one included: a rank that dies
/// by a scripted kill returns its tombstone.
///
/// Rank threads inherit the launcher's flight-recorder sinks, tagged by
/// seat rank. A panic in a body becomes [`RankFailure::Panic`] — reported
/// once every other rank has been collected, and ahead of any hang it
/// caused. Without a `budget` the collect blocks and never looks at a
/// clock; with one, a rank still outstanding when it expires fails the
/// launch with [`RankFailure::Hang`]. On the clean path every thread is
/// joined. Threads are detached (Rust threads cannot be cancelled; they
/// run on until they finish or the process exits, results discarded) only
/// when the budget expired.
pub fn launch<T: Send + 'static>(
    seats: Vec<Seat<T>>,
    budget: Option<Duration>,
) -> std::result::Result<Vec<T>, RankFailure> {
    let size = seats.len();
    let obs = eth_obs::current_context();
    let (tx, rx) = channel::<(usize, thread::Result<T>)>();
    let mut ranks = Vec::with_capacity(size);
    let mut handles = Vec::with_capacity(size);
    for (seat, Seat { rank, body }) in seats.into_iter().enumerate() {
        let (tx, obs) = (tx.clone(), obs.clone());
        ranks.push(rank);
        let handle = thread::Builder::new()
            .name(format!("eth-rank-{rank}"))
            .spawn(move || {
                let _obs = obs.attach();
                eth_obs::set_rank(rank);
                let _ = tx.send((seat, catch_unwind(AssertUnwindSafe(body))));
            })
            .expect("spawn rank thread");
        handles.push(Some(handle));
    }
    drop(tx);

    let deadline = budget.map(|budget| Instant::now() + budget);
    if budget.is_some() {
        // the collect below wakes on a clock; an unbudgeted one never does
        eth_obs::count("supervised_launches", 1.0);
    }
    let mut slots: Vec<Option<T>> = (0..size).map(|_| None).collect();
    let mut panicked: Option<RankFailure> = None;
    for _ in 0..size {
        let report = match deadline {
            None => rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
            Some(at) => rx.recv_timeout(at.saturating_duration_since(Instant::now())),
        };
        let (seat, result) = match report {
            Ok(report) => report,
            Err(RecvTimeoutError::Timeout) => {
                let outstanding = handles.iter().position(Option::is_some);
                return Err(panicked.unwrap_or(RankFailure::Hang {
                    rank: ranks[outstanding.expect("a rank is outstanding")],
                    waited: budget.expect("only a budget times out"),
                }));
            }
            // every rank thread sends before it exits
            Err(RecvTimeoutError::Disconnected) => unreachable!("a rank exited unreported"),
        };
        match result {
            Ok(value) => slots[seat] = Some(value),
            Err(payload) => {
                panicked.get_or_insert(RankFailure::Panic {
                    rank: ranks[seat],
                    message: panic_message(payload.as_ref()),
                });
            }
        }
        // It has sent its result: all that is left is its exit.
        if let Some(handle) = handles[seat].take() {
            let _ = handle.join();
        }
    }
    match panicked {
        Some(failure) => Err(failure),
        None => Ok(slots.into_iter().map(|slot| slot.expect("every rank reported")).collect()),
    }
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
    launch(seats, None).unwrap_or_else(|failure| panic!("{failure}"))
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
            gather(&c, 0..6, 0, mine).unwrap().map(|slots| slots.len())
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

    /// What one rank of the launcher table does; the others run `Clean`.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Behaviour {
        /// Every rank returns `rank²`.
        Clean,
        /// Rank 1 panics.
        Panic,
        /// Rank 1 never finishes.
        Hang,
    }

    fn rank_body(behaviour: Behaviour, rank: usize) -> impl FnOnce() -> usize + Send + 'static {
        move || {
            if rank == 1 {
                match behaviour {
                    Behaviour::Clean => {}
                    Behaviour::Panic => panic!("rank 1 exploded"),
                    Behaviour::Hang => thread::sleep(Duration::from_secs(5)),
                }
            }
            rank * rank
        }
    }

    /// Ranks `order` seated in that order, under `budget`.
    fn table_launch(
        order: &[usize],
        behaviour: Behaviour,
        budget: Option<Duration>,
    ) -> std::result::Result<Vec<usize>, RankFailure> {
        let seats = order
            .iter()
            .map(|&rank| Seat::new(rank, rank_body(behaviour, rank)))
            .collect();
        launch(seats, budget)
    }

    /// One launcher, both supervisions × every rank behaviour. The absent
    /// cell (a hang with no budget) waits forever by design.
    #[test]
    fn launcher_table() {
        use Behaviour::*;
        let long = Some(Duration::from_secs(30));
        let short = Duration::from_millis(200);
        for (name, budget) in [("empty", None), ("budget", long)] {
            let start = Instant::now();

            let run = table_launch(&[0, 1, 2, 3], Clean, budget);
            assert_eq!(run.unwrap(), vec![0, 1, 4, 9], "{name} × clean");

            match table_launch(&[0, 1, 2, 3], Panic, budget).unwrap_err() {
                RankFailure::Panic { rank, message } => {
                    assert_eq!(rank, 1, "{name} × panic");
                    assert!(message.contains("exploded"), "{name} × panic: {message}");
                }
                other => panic!("{name} × panic: expected Panic, got {other:?}"),
            }

            if budget.is_some() {
                // a rank that never finishes: the budget fires, and the
                // launch does not wait out the hang
                let err = table_launch(&[0, 1, 2, 3], Hang, Some(short)).unwrap_err();
                assert_eq!(err, RankFailure::Hang { rank: 1, waited: short }, "{name} × hang");
                assert!(err.to_string().contains("rank 1 did not finish"), "{err}");
            }
            assert!(
                start.elapsed() < Duration::from_secs(5),
                "{name}: a cell waited out a hang ({:?})",
                start.elapsed()
            );
        }
    }

    #[test]
    fn seats_need_not_be_a_fabric() {
        // The internode shape: ranks 2 and 3 (the "visualization
        // application") are seated in front of ranks 0 and 1; results come
        // back in seat order.
        assert_eq!(
            table_launch(&[2, 3, 0, 1], Behaviour::Clean, Some(Duration::from_secs(30))).unwrap(),
            vec![4, 9, 0, 1]
        );
        // a hang is named by its rank, whatever its seat
        match table_launch(&[2, 1, 0], Behaviour::Hang, Some(Duration::from_millis(200))) {
            Err(RankFailure::Hang { rank, .. }) => assert_eq!(rank, 1),
            other => panic!("expected Hang, got {other:?}"),
        }
    }

    #[test]
    fn an_unbudgeted_launch_never_looks_at_a_clock() {
        let timed_waits = |budget: Option<Duration>| {
            let recorder = eth_obs::Recorder::new();
            let _obs = recorder.attach();
            let seats = (0..3).map(|rank| Seat::new(rank, move || rank)).collect();
            assert_eq!(launch(seats, budget).unwrap(), vec![0, 1, 2]);
            drop(_obs);
            recorder.take().counts().get("supervised_launches").copied()
        };
        assert_eq!(timed_waits(None), None);
        assert_eq!(timed_waits(Some(Duration::from_secs(30))), Some(1.0));
    }
}
