//! Seating a run's ranks: the local fabric and the socket bootstrap.

use super::outcome::RankOutput;
use super::staging::StagedData;
use super::step::{sim_role, viz_role, RankCx, VizFabric, Wire};
use crate::config::{Coupling, ExperimentSpec, RecoveryPolicy};
use crate::error::Result;
use eth_data::io::pool::PayloadPool;
use eth_sim::SimulationProxy;
use eth_transport::comm::Communicator;
use eth_transport::layout::LayoutFile;
use eth_transport::link::FabricLink;
use eth_transport::local::LocalFabric;
use eth_transport::runner::{launch, Seat, Supervision, Watch};
use eth_transport::socket::{connect_leasing, listen_leasing, BOOTSTRAP_TIMEOUT};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// What a rank's thread does.
type Role = Box<dyn FnOnce(&RankCx) -> Result<RankOutput> + Send>;

impl RankCx {
    /// Start one thread per `(rank, role)` through the transport's launcher
    /// and collect them under the policy's supervision: none for the empty
    /// policy (a blocking collect), the plan's per-rank wall-clock budget
    /// if it sets one, and with a liveness part the heartbeat watch whose
    /// collector doubles as the supervisor. A hung or panicking rank, or
    /// one death too many, surfaces as [`CoreError::Rank`] instead of
    /// wedging or aborting the sweep; ranks that died within the loss
    /// budget leave tombstones (or, past the grace window, nothing). Every
    /// rank is collected before the first rank error is reported.
    fn launch(self: Arc<RankCx>, roles: Vec<(usize, Role)>) -> Result<Vec<RankOutput>> {
        let supervision = Supervision {
            budget: match &self.policy.liveness {
                Some(live) => Some(live.run_deadline),
                None => self.policy.plan.rank_timeout(),
            },
            watch: self.live().map(|(live, board)| Watch {
                board: board.clone(),
                policy: live.recovery.heartbeat,
                max_losses: RecoveryPolicy::MAX_RANK_LOSSES,
            }),
        };
        let seats = roles
            .into_iter()
            .map(|(rank, role)| {
                let cx = self.clone();
                Seat::new(rank, move || role(&cx))
            })
            .collect();
        launch(seats, &supervision)?.into_iter().flatten().collect()
    }
}

pub(super) fn run_coupled(
    spec: &ExperimentSpec,
    staged: &Arc<StagedData>,
    payloads: &PayloadPool,
) -> Result<Vec<RankOutput>> {
    let cx = RankCx::new(spec, staged, payloads);
    match spec.coupling {
        Coupling::Tight | Coupling::Intercore => launch_local(cx),
        Coupling::Internode => launch_sockets(cx),
    }
}

/// Tight and intercore: every rank is a thread on one in-process fabric.
/// Tight seats R ranks whose sim and viz share a call stack; intercore
/// seats 2R — simulation ranks `0..R` in front of their paired
/// visualization ranks `R..2R`, each pair's link a view of the fabric.
fn launch_local(run: Arc<RankCx>) -> Result<Vec<RankOutput>> {
    let r = run.spec.ranks;
    let base = if run.spec.coupling == Coupling::Intercore {
        r
    } else {
        0
    };
    let roles = LocalFabric::new(base + r)
        .into_iter()
        .enumerate()
        .map(|(rank, comm)| {
            let role: Role = Box::new(move |cx| local_role(cx, rank, base, &comm));
            (rank, role)
        })
        .collect();
    run.launch(roles)
}

/// One rank of a local fabric: fabric ranks below `base` simulate, the
/// rest visualize, each draining the simulation rank `base` below it (or,
/// tight, presenting its own block in-process).
pub(super) fn local_role(cx: &RankCx, rank: usize, base: usize, comm: &dyn Communicator) -> Result<RankOutput> {
    let link = |peer| cx.link(FabricLink::new(comm, peer));
    if rank < base {
        return sim_role(cx, rank, link(base + rank).as_ref());
    }
    let sim = rank - base;
    let wire = match base {
        0 => Wire::InProcess(SimulationProxy::new(cx.staged.series.clone(), sim)),
        _ => Wire::Link(link(sim)),
    };
    let fabric = VizFabric {
        comm,
        base,
        on_board: cx.board.is_some(),
    };
    viz_role(cx, fabric, vec![(sim, wire)])
}

/// The run's layout directory, removed however the launcher leaves — by
/// return or by error.
struct LayoutDir(std::path::PathBuf);

impl Drop for LayoutDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Internode: R simulation threads and V visualization threads in separate
/// "applications". Simulation ranks publish to the layout file, open their
/// sockets and wait; visualization ranks poll the file and connect (the
/// paper's Section III-C bootstrap), then composite among themselves over
/// a local fabric. With an asymmetric layout (`viz_ranks != ranks`) viz
/// rank `v` serves the sim ranks `{s : s % V == v}`; the fabric is sized to
/// [`ExperimentSpec::max_viz_count`], so a `Rescale` that grows the
/// application has fresh ranks ready (they hold no sockets until a handoff
/// gives them work) and one that shrinks leaves the retiring ranks
/// draining their wires with nothing to render.
///
/// Ranks claim ids on the run's modeled node layout: sim ranks `0..R` (the
/// board's slots under a liveness part), viz ranks `R..R+V`.
fn launch_sockets(run: Arc<RankCx>) -> Result<Vec<RankOutput>> {
    let r = run.spec.ranks;
    // Layout file in a fresh temp dir per run. The counter keeps dirs
    // distinct when a campaign runs same-named internode points
    // concurrently in one process.
    static LAYOUT_RUN: AtomicU64 = AtomicU64::new(0);
    let layout_dir = LayoutDir(std::env::temp_dir().join(format!(
        "eth-layout-{}-{:x}-{}",
        run.spec.name.replace('/', "_"),
        std::process::id(),
        LAYOUT_RUN.fetch_add(1, Ordering::Relaxed)
    )));
    let _ = std::fs::remove_dir_all(&layout_dir.0);
    let layout = LayoutFile::create(&layout_dir.0)?;

    // Visualization ranks spawn first so their bootstrap waits show up
    // inside covered connect_to spans instead of as unattributable
    // pre-spawn idle when the box is oversubscribed.
    let mut roles: Vec<(usize, Role)> = Vec::new();
    for (v, comm) in LocalFabric::new(run.spec.max_viz_count())
        .into_iter()
        .enumerate()
    {
        let layout = layout.clone();
        roles.push((
            r + v,
            Box::new(move |cx| {
                let mut wires = Vec::new();
                for sim in (0..r).filter(|&sim| cx.spec.initial_owner(sim) == v) {
                    // the viz rank announces its own rank on the pair link,
                    // so frames and errors on both ends carry true
                    // identities; its reader receives into the run's pool
                    let chan = connect_leasing(&layout, sim, v, BOOTSTRAP_TIMEOUT, &cx.payloads)?;
                    wires.push((sim, Wire::Link(cx.link(chan))));
                }
                let fabric = VizFabric {
                    comm: &comm,
                    base: 0,
                    on_board: false,
                };
                viz_role(cx, fabric, wires)
            }),
        ));
    }
    for rank in 0..r {
        let layout = layout.clone();
        roles.push((
            rank,
            Box::new(move |cx| {
                let link = cx.link(listen_leasing(&layout, rank, &cx.payloads)?);
                sim_role(cx, rank, link.as_ref())
            }),
        ));
    }
    run.launch(roles)
}

