//! The step policy and the two roles every coupling runs.

use super::outcome::{Degradation, RankOutput};
use super::staging::{pipeline_for_step, StagedData};
use crate::config::{Coupling, ExperimentSpec, Handoff, RecoveryPolicy};
use crate::error::{CoreError, Result};
use crate::pipeline::accumulate;
use bytes::Bytes;
use eth_data::io::pool::PayloadPool;
use eth_data::DataObject;
use eth_render::composite::{composite_parts, encode_contribution};
use eth_render::framebuffer::Framebuffer;
use eth_sim::SimulationProxy;
use eth_transport::chaos::ChaosLink;
use eth_transport::collectives::{
    gather, recv_adopt_notice, recv_migrate_ack, recv_migrate_offer, send_adopt_notice,
    send_migrate_ack, send_migrate_offer, AdoptNotice, MigrateAck, MigrateOffer, Survivors,
};
use eth_transport::comm::{Communicator, TransportError};
use eth_transport::fault::DATA_TAG_MIN;
use eth_transport::link::PairLink;
use eth_transport::{FaultPlan, HeartbeatBoard, HeartbeatPolicy};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Background liveness beacon for one rank: beats the board every half
/// heartbeat interval until dropped (the rank finished — or was killed,
/// which is exactly a beacon going silent). Beating from a helper thread
/// keeps detection latency independent of step duration; a genuinely
/// wedged rank is still caught by the global deadline backstop.
struct Beater {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Beater {
    fn spawn(board: &Arc<HeartbeatBoard>, rank: usize, policy: HeartbeatPolicy) -> Beater {
        eth_obs::count("liveness_threads", 1.0);
        let stop = Arc::new(AtomicBool::new(false));
        let board = board.clone();
        let flag = stop.clone();
        let interval = policy.poll_interval();
        let handle = std::thread::spawn(move || {
            while !flag.load(Ordering::Relaxed) {
                board.beat(rank);
                std::thread::sleep(interval);
            }
        });
        Beater {
            stop,
            handle: Some(handle),
        }
    }
}

impl Drop for Beater {
    /// Stops beating *now*: on the kill path the rank must have fallen
    /// silent before it parks awaiting its own death.
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Encode a block for a process boundary with the spec's wire codec, into
/// a buffer leased from the run's pool, which has it back once the far side
/// (or whatever dropped the message on the way) lets go of it. The block
/// costs one `Encode` span carrying the payload's bytes, and the raw and
/// on-wire byte counters let campaigns report what the codec bought.
pub(super) fn encode_block(spec: &ExperimentSpec, block: &DataObject, pool: &PayloadPool) -> Bytes {
    let mut span = eth_obs::span(eth_obs::Phase::Encode);
    let payload = spec.wire_compression.encode_in(block, pool);
    span.set_bytes(payload.len() as u64);
    let raw = eth_data::io::binary::encoded_len(block);
    eth_obs::count("wire_raw_bytes", raw as f64);
    eth_obs::count("wire_compressed_bytes", payload.len() as f64);
    payload
}

/// Inverse of [`encode_block`], in one `Decode` span carrying the payload's
/// bytes. `from` is the sending rank: a payload the codec rejects (a
/// checksum mismatch, a truncated or malformed block) is a
/// [`TransportError::Corrupt`] from the sender, so in-flight corruption is
/// detected by the codec, not taken from the chaos layer's bookkeeping.
fn decode_block(
    spec: &ExperimentSpec,
    from: usize,
    payload: Bytes,
) -> std::result::Result<DataObject, TransportError> {
    let _span = eth_obs::span_bytes(eth_obs::Phase::Decode, payload.len() as u64);
    spec.wire_compression
        .decode(payload)
        .map_err(|e| TransportError::Corrupt {
            peer: from,
            detail: e.to_string(),
        })
}

/// Budget for one block to arrive under liveness supervision when the
/// fault plan sets no receive deadline.
const DEFAULT_RECV_BUDGET: Duration = Duration::from_secs(2);
/// Wall-clock backstop of a heartbeat-supervised run when the fault plan
/// sets no per-rank budget (heartbeats, not this, are the primary detector).
const DEFAULT_RUN_DEADLINE: Duration = Duration::from_secs(120);

/// Everything a run's step loop does beyond "present, move, render,
/// composite", resolved once from the spec. The three couplings run the
/// same [`sim_role`] / [`viz_role`] step and differ only in the
/// [`PairLink`] a block crosses; fault tolerance and elasticity are parts
/// of this policy, and every part may be empty. The empty policy is the
/// plain run: it starts no heartbeat thread and no supervisor, and never
/// polls a receive.
pub(super) struct StepPolicy {
    /// Faults on the data path degrade a step instead of failing the run
    /// (the spec carries a fault plan or a recovery policy).
    tolerant: bool,
    /// The spec's fault plan, inert when it has none: scripted kills and
    /// the receive and run budgets are read from here. The pair links run
    /// behind it only when the spec really carries one ([`RankCx::link`]).
    pub(super) plan: FaultPlan,
    /// Heartbeats, liveness-sliced receives, adoption.
    pub(super) liveness: Option<Liveness>,
    /// Planned partition handoffs in control-plane order. Empty means
    /// static ownership.
    pub(super) handoffs: Vec<Handoff>,
}

/// The recovery part of a [`StepPolicy`].
pub(super) struct Liveness {
    pub(super) recovery: RecoveryPolicy,
    /// A missing block is either a lost message (one degraded step) or a
    /// death in progress. Receives run in slices a bit past the detection
    /// deadline, re-checking liveness between slices: a slow-but-alive
    /// pair gets the whole `recv_budget`, a confirmed death resolves in
    /// O(detection).
    recv_slice: Duration,
    recv_budget: Duration,
    /// Wall-clock backstop for composite gathers, handoff receives, a
    /// killed rank's wait for its own death notice, and the launcher.
    pub(super) run_deadline: Duration,
}

impl StepPolicy {
    fn new(spec: &ExperimentSpec) -> StepPolicy {
        let plan = spec.fault_plan.clone().unwrap_or_default();
        let liveness = spec.recovery.map(|recovery| {
            let recv_slice =
                recovery.heartbeat.detection_deadline() * 2 + Duration::from_millis(25);
            Liveness {
                recovery,
                recv_slice,
                recv_budget: plan
                    .deadline()
                    .unwrap_or(DEFAULT_RECV_BUDGET)
                    .max(recv_slice),
                run_deadline: plan.rank_timeout().unwrap_or(DEFAULT_RUN_DEADLINE),
            }
        });
        StepPolicy {
            tolerant: spec.fault_plan.is_some() || liveness.is_some(),
            plan,
            liveness,
            handoffs: spec.migration_handoffs(),
        }
    }
}

/// What every rank of a run shares: the spec, the staged data, the policy,
/// and — iff the policy has a liveness part — the board ranks beat on.
pub(super) struct RankCx {
    pub(super) spec: ExperimentSpec,
    pub(super) staged: Arc<StagedData>,
    pub(super) policy: StepPolicy,
    pub(super) board: Option<Arc<HeartbeatBoard>>,
    /// Where simulation ranks lease the buffers they encode into, and
    /// socket readers the buffers they receive into.
    pub(super) payloads: PayloadPool,
}

impl RankCx {
    pub(super) fn new(spec: &ExperimentSpec, staged: &Arc<StagedData>, payloads: &PayloadPool) -> Arc<RankCx> {
        let policy = StepPolicy::new(spec);
        // Who beats the board: every rank of a local fabric; under internode
        // the simulation ranks — the ones a scripted kill can take down (viz
        // ranks only consult it).
        let board = policy.liveness.as_ref().map(|_| {
            HeartbeatBoard::new(match spec.coupling {
                Coupling::Intercore => 2 * spec.ranks,
                Coupling::Tight | Coupling::Internode => spec.ranks,
            })
        });
        Arc::new(RankCx {
            spec: spec.clone(),
            staged: staged.clone(),
            policy,
            board,
            payloads: payloads.clone(),
        })
    }

    pub(super) fn live(&self) -> Option<(&Liveness, &Arc<HeartbeatBoard>)> {
        self.policy.liveness.as_ref().zip(self.board.as_ref())
    }

    fn is_dead(&self, rank: usize) -> bool {
        self.board.as_ref().is_some_and(|board| board.is_dead(rank))
    }

    fn beater(&self, slot: usize) -> Option<Beater> {
        self.live()
            .map(|(live, board)| Beater::spawn(board, slot, live.recovery.heartbeat))
    }

    /// The pair link a rank's blocks cross: `link` itself, behind the chaos
    /// wrapper iff the spec carries a fault plan. The wrapper never sees a
    /// communicator, so collectives and control messages are out of its
    /// reach, and an experiment without a plan pays nothing for it.
    pub(super) fn link<'l>(&self, link: impl PairLink + 'l) -> Box<dyn PairLink + 'l> {
        match &self.spec.fault_plan {
            Some(plan) => Box::new(ChaosLink::new(link, plan.clone())),
            None => Box::new(link),
        }
    }
}

/// How a visualization rank gets one simulation rank's block.
pub(super) enum Wire<'a> {
    /// Tight: sim and viz share the rank's call stack; the rank's proxy
    /// presents its block in-process, as the series' own handle. The load
    /// a real proxy would do is the series read under a memory budget.
    InProcess(SimulationProxy),
    Link(Box<dyn PairLink + 'a>),
}

/// The fabric visualization ranks composite over: its ranks `base..size`
/// are viz indices `0..V`, and viz index 0 is the root.
#[derive(Clone, Copy)]
pub(super) struct VizFabric<'a> {
    pub(super) comm: &'a dyn Communicator,
    /// Fabric rank of viz index 0: intercore seats the R simulation ranks
    /// in front (the gather leaves them out); tight and internode fabrics
    /// are all-viz.
    pub(super) base: usize,
    /// The fabric's ranks sit on the liveness board: they beat, may be
    /// declared dead, and composites must gather around the dead.
    pub(super) on_board: bool,
}

/// The simulation side of a step: the rank's proxy presents the block, the
/// rank encodes it and pushes it across the pair link. A block the proxy
/// skipped crosses as the empty payload, a hole the composite root counts.
pub(super) fn sim_role(cx: &RankCx, rank: usize, link: &dyn PairLink) -> Result<RankOutput> {
    let spec = &cx.spec;
    let mut proxy = SimulationProxy::new(cx.staged.series.clone(), rank);
    let mut beater = cx.beater(rank);
    let mut out = RankOutput::default();
    for step in 0..spec.steps {
        if let (true, Some((live, board))) = (cx.policy.plan.kills(rank, step), cx.live()) {
            // The scripted death: stop beating, wait to be declared dead
            // (so detection latency is measured against a real silence),
            // and leave a tombstone — the partition's story continues in
            // whoever drains this rank. Returning drops the link, so the
            // drainer sees it snap rather than stall.
            beater.take();
            board.await_death(rank, live.run_deadline);
            return Ok(RankOutput::default());
        }
        let t = Instant::now();
        let payload = match proxy.step(step)? {
            Some(block) => encode_block(spec, &block, &cx.payloads),
            None => Bytes::new(),
        };
        out.phases.sim_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        match link.send(DATA_TAG_MIN + step as u32, payload) {
            Ok(()) => {}
            // a dead viz link must not kill the simulation: note it and
            // keep stepping (the draining viz rank degrades)
            Err(e) if cx.policy.tolerant => out.degradation.count(&e),
            Err(e) => return Err(e.into()),
        }
        out.phases.transfer_s += t.elapsed().as_secs_f64();
        if let Some((_, board)) = cx.live() {
            board.step_done(rank, step);
        }
    }
    out.bytes_sent = link.bytes_sent();
    Ok(out)
}

/// Receive `sim`'s block for this step. Without a liveness part this is one
/// blocking receive (the chaos wrapper applies the plan's deadline, so a
/// dropped message costs one deadline, not the run). With one, the receive
/// is sliced against the board; `None` with `sim` dead means "adopt", any
/// other `None` is a lost block whose fault is counted in `deg`, or the
/// empty payload of a block the simulation rank's proxy skipped (either
/// way, the hole it leaves is the root's to count).
pub(super) fn drain(
    cx: &RankCx,
    link: &dyn PairLink,
    sim: usize,
    tag: u32,
    deg: &mut Degradation,
) -> Result<Option<DataObject>> {
    let received = match cx.live() {
        None => link.recv(tag, None),
        Some((live, board)) => {
            let deadline = Instant::now() + live.recv_budget;
            loop {
                // dead already, or died while we waited: the caller adopts
                if board.is_dead(sim) {
                    return Ok(None);
                }
                let now = Instant::now();
                if now >= deadline {
                    break Err(TransportError::Timeout {
                        peer: sim,
                        elapsed: live.recv_budget,
                    });
                }
                match link.recv(tag, Some(live.recv_slice.min(deadline - now))) {
                    Err(TransportError::Timeout { .. }) => continue,
                    // a link that snaps because its rank died is a death,
                    // not a fault
                    Err(_) if board.is_dead(sim) => return Ok(None),
                    other => break other,
                }
            }
        }
    };
    if received.as_ref().is_ok_and(Bytes::is_empty) {
        return Ok(None);
    }
    match received.and_then(|payload| decode_block(&cx.spec, sim, payload)) {
        Ok(block) => Ok(Some(block)),
        Err(e) if !cx.policy.tolerant => Err(e.into()),
        Err(e) => {
            deg.count(&e);
            Ok(None)
        }
    }
}

fn malformed_contribution() -> CoreError {
    CoreError::Config("malformed framebuffer contribution on the wire".into())
}

/// Run the handshakes scheduled for `step` that involve this viz rank: one
/// offer and one ack per handoff, both on the chaos-exempt control plane.
/// The target is the only decider. The source offers unconditionally; the
/// target commits iff the offer is the one its schedule names (handoff,
/// partition, step, source) and the partition's simulation rank is not
/// dead, and says so in the ack; the source hands the partition over iff
/// the ack says committed. The offer is all the target needs: from the
/// step on, its own proxy presents the partition from the series. Every
/// rank walks the handoff list in the same (index) order, so a rank that
/// sources one handoff and targets another can never cross-wait with a
/// peer. A refused handoff degrades to "no migration happened": the source
/// keeps rendering.
///
/// Death wins the migration-vs-death race deterministically: the board's
/// dead state is monotone, and the target reads it only after the offer
/// arrives, which the source sends after its intake. So the target refuses
/// every partition whose death the source saw. Both receives are bounded
/// by the run deadline alone, the composite gather's backstop, so how long
/// a peer takes to reach its handshake never changes the outcome; a
/// receive that fails fails the run.
pub(super) fn migrate_handshakes(
    cx: &RankCx,
    fabric: VizFabric,
    step: usize,
    owners: &mut [usize],
    deg: &mut Degradation,
    disruption: &mut Vec<f64>,
) -> Result<()> {
    let (policy, comm) = (&cx.policy, fabric.comm);
    let deadline = policy
        .liveness
        .as_ref()
        .map_or(DEFAULT_RUN_DEADLINE, |live| live.run_deadline);
    let me = comm.rank() - fabric.base;
    for (index, h) in policy.handoffs.iter().enumerate() {
        if h.step != step || (h.from != me && h.to != me) {
            continue;
        }
        let scheduled = MigrateOffer {
            handoff: index,
            partition: h.partition,
            source: fabric.base + h.from,
            step,
        };
        if h.from == me {
            let t = Instant::now();
            send_migrate_offer(comm, fabric.base + h.to, &scheduled)?;
            if recv_migrate_ack(comm, fabric.base + h.to, index, deadline)?.committed {
                owners[h.partition] = h.to;
                deg.migrations += 1;
                eth_obs::count("migrations", 1.0);
            } else {
                deg.migration_failures += 1;
                eth_obs::count("migration_failures", 1.0);
            }
            disruption.push(t.elapsed().as_secs_f64());
        } else {
            let offer = recv_migrate_offer(comm, fabric.base + h.from, index, deadline)?;
            let committed = offer == scheduled && !cx.is_dead(h.partition);
            let ack = MigrateAck {
                handoff: index,
                committed,
            };
            send_migrate_ack(comm, fabric.base + h.from, &ack)?;
            if committed {
                owners[h.partition] = h.to;
            }
        }
    }
    Ok(())
}

/// The visualization side of a step: drain the wires, run this step's
/// handshakes (intake first, so a death racing a migration is already on
/// the board), render the partitions this rank owns, and contribute them
/// to each frame's gather as one partition-framed payload; the root folds
/// the partition slots in ascending order, counts the empty ones, and
/// keeps the images.
///
/// `wires` are the `(simulation rank, wire)` pairs this rank drains,
/// ascending. Pairings are the *initial* layout's for the whole run — a
/// migrated partition's original feeder keeps draining its wire (identical
/// backpressure and fault accounting to a run without migration) while the
/// new owner presents the partition through a proxy of its own.
pub(super) fn viz_role(cx: &RankCx, fabric: VizFabric, mut wires: Vec<(usize, Wire)>) -> Result<RankOutput> {
    let (spec, policy, staged) = (&cx.spec, &cx.policy, &cx.staged);
    let comm = fabric.comm;
    let r = spec.ranks;
    let me = comm.rank() - fabric.base;
    let is_root = me == 0;
    let adopt = policy
        .liveness
        .as_ref()
        .is_some_and(|live| live.recovery.adopt);
    let _beater = fabric.on_board.then(|| cx.beater(comm.rank())).flatten();
    let mut owners: Vec<usize> = (0..r).map(|p| spec.initial_owner(p)).collect();
    // simulation ranks whose death this rank has accounted (exactly once,
    // by the drainer — the partition may live elsewhere by then)
    let mut lost = vec![false; r];
    let mut own_notices: Vec<AdoptNotice> = Vec::new();
    // proxies for the partitions this rank adopts or migrates in
    let mut inherited: Vec<Option<SimulationProxy>> = (0..r).map(|_| None).collect();
    let mut out = RankOutput::default();
    // On a fabric whose ranks can die mid-run the gather's root skips the
    // dead and bounds every other receive.
    let is_dead = |peer| cx.is_dead(peer);
    let survivors = cx.live().filter(|_| fabric.on_board).map(|(live, _)| Survivors {
        is_dead: &is_dead,
        timeout: live.run_deadline,
    });

    for step in 0..spec.steps {
        let mut deg = Degradation::default();

        // 1. Intake: drain every wire this rank holds, owner or not.
        let mut wire_blocks: Vec<Option<Arc<DataObject>>> = vec![None; r];
        for (sim, wire) in &mut wires {
            let sim = *sim;
            let t = Instant::now();
            let link = match wire {
                Wire::InProcess(proxy) => {
                    wire_blocks[sim] = proxy.step(step)?;
                    out.phases.sim_s += t.elapsed().as_secs_f64();
                    continue;
                }
                Wire::Link(link) => link,
            };
            let tag = DATA_TAG_MIN + step as u32;
            wire_blocks[sim] = drain(cx, link.as_ref(), sim, tag, &mut deg)?.map(Arc::new);
            if let Some((_, board)) = cx.live().filter(|_| wire_blocks[sim].is_none()) {
                if board.is_dead(sim) && !std::mem::replace(&mut lost[sim], true) {
                    let _span = eth_obs::span(eth_obs::Phase::Recovery);
                    deg.rank_losses += 1;
                    eth_obs::count("rank_losses", 1.0);
                    if adopt {
                        deg.adopted_partitions += 1;
                        eth_obs::count("adopted_partitions", 1.0);
                        // The dead rank may have run *past* this step (sim
                        // and viz ranks progress independently). That is
                        // fine — the adopter's own proxy presents the
                        // partition at the adopter's own step.
                        let notice = AdoptNotice {
                            dead_rank: sim,
                            adopted_at_step: step,
                            adopter: r + owners[sim],
                            latency_ns: board.death_of(sim).map_or(0, |death| {
                                board.now_ns().saturating_sub(death.last_beat_ns)
                            }),
                        };
                        if is_root {
                            // the root drained the dead rank itself; no
                            // wire round-trip
                            own_notices.push(notice);
                        } else {
                            send_adopt_notice(comm, fabric.base, &notice)?;
                        }
                    }
                }
            }
            out.phases.transfer_s += t.elapsed().as_secs_f64();
        }

        // 2. This step's handshakes (after intake: death wins the race).
        migrate_handshakes(
            cx,
            fabric,
            step,
            &mut owners,
            &mut deg,
            &mut out.migration_disruption_s,
        )?;

        // 3. Render the owned partitions in ascending order. Every rank
        //    colors through the step's global transfer-function range.
        let pipeline = pipeline_for_step(spec, staged, step);
        let t_viz = Instant::now();
        let mut rendered: Vec<(usize, Vec<Framebuffer>)> = Vec::new();
        for p in (0..r).filter(|&p| owners[p] == me) {
            let block = match wire_blocks[p].take() {
                Some(block) => block,
                // dead and not adopted: dark
                None if cx.is_dead(p) && !adopt => continue,
                // own wire, alive, but the message was lost: a hole
                None if !cx.is_dead(p) && wires.iter().any(|(sim, _)| *sim == p) => continue,
                // adopted or migrated-in: this rank's proxy presents the
                // partition, byte-identical to the wire block (a block it
                // skips is a hole)
                None => {
                    let proxy = inherited[p]
                        .get_or_insert_with(|| SimulationProxy::new(staged.series.clone(), p));
                    match proxy.step(step)? {
                        Some(block) => block,
                        None => continue,
                    }
                }
            };
            let pass = pipeline.execute_step(step, &block, &staged.bounds[step])?;
            out.stats = accumulate(out.stats, pass.stats);
            rendered.push((p, pass.frames));
        }
        // Classify the step: faults with nothing rendered = a dropped step,
        // faults with partial delivery = a degraded step. Either way the
        // rank presses on and joins every composite, so one sick link
        // never deadlocks the run.
        if deg.faults() > 0 {
            if rendered.is_empty() {
                deg.dropped_steps += 1;
            } else {
                deg.degraded_steps += 1;
            }
        }
        out.phases.viz_s += t_viz.elapsed().as_secs_f64();

        // 4. Contribute to each frame's gather over the viz ranks; the root
        //    composites.
        let t_comp = Instant::now();
        for image_index in 0..spec.images_per_step {
            let entries: Vec<(usize, &Framebuffer)> = rendered
                .iter()
                .filter_map(|(p, frames)| frames.get(image_index).map(|fb| (*p, fb)))
                .collect();
            let payload = Bytes::from(encode_contribution(&entries));
            let salt = (step * spec.images_per_step + image_index) as u32;
            let members = fabric.base..comm.size();
            if let Some(parts) = gather(comm, members, salt, payload, survivors)? {
                let received = parts.iter().flatten().map(|raw| &raw[..]);
                let (frame, stats) = composite_parts(r, spec.width, spec.height, received)
                    .ok_or_else(malformed_contribution)?;
                deg.missing_contributions += stats.missing_contributions;
                let image = frame.into_image();
                pipeline.write_artifact(step, image_index, &image)?;
                out.images.push(image);
            }
        }
        out.phases.composite_s += t_comp.elapsed().as_secs_f64();
        out.degradation.absorb(&deg);
        if is_root {
            // The composite root closing a step is the frame boundary the
            // critical-path walk in `eth_obs::merge` attributes backwards from.
            eth_obs::step_mark(step as u64);
        }
        if let Some(board) = cx.board.as_ref().filter(|_| fabric.on_board) {
            board.step_done(comm.rank(), step);
        }
    }

    // The root drains the control plane: one adoption notice per dead
    // simulation rank, from the rank that drained it, carries the measured
    // detection-to-adoption latency. A missing notice falls back to the
    // board's own estimate.
    if let Some((live, board)) = cx.live().filter(|_| is_root) {
        let patience = live.recovery.heartbeat.detection_deadline() * 4;
        for death in board.deaths().into_iter().filter(|death| death.rank < r) {
            let drainer = spec.initial_owner(death.rank);
            let notice = if drainer == me {
                own_notices
                    .iter()
                    .find(|n| n.dead_rank == death.rank)
                    .copied()
            } else if adopt {
                recv_adopt_notice(comm, fabric.base + drainer, death.rank, patience).ok()
            } else {
                None
            };
            let latency = notice
                .map(|n| n.latency_ns as f64 * 1e-9)
                .unwrap_or_else(|| death.detection_latency().as_secs_f64());
            out.recovery_latency_s.push(latency);
            eth_obs::count("adopt_notices", 1.0);
        }
    }

    // A visualization rank only receives on its wires, so the fabric's
    // counters and the links' never count one byte twice.
    out.bytes_sent = comm.traffic().bytes_sent
        + wires
            .iter()
            .map(|(_, wire)| match wire {
                Wire::InProcess(_) => 0,
                Wire::Link(link) => link.bytes_sent(),
            })
            .sum::<u64>();
    Ok(out)
}

