//! The step policy and the two roles every coupling runs.

use super::deaths::Deaths;
use super::outcome::{Degradation, RankOutput};
use super::staging::{pipeline_for_step, StagedData};
use crate::config::{ExperimentSpec, Handoff};
use crate::error::{CoreError, Result};
use crate::pipeline::{accumulate, VizPipeline};
use crate::sweep::lock_recover;
use bytes::Bytes;
use eth_data::io::pool::PayloadPool;
use eth_data::{DataObject, Fields};
use eth_render::composite::{composite_parts, encode_contribution};
use eth_render::framebuffer::Framebuffer;
use eth_render::scratch::{ScratchLease, ScratchPool};
use eth_sim::SimulationProxy;
use eth_transport::chaos::ChaosLink;
use eth_transport::collectives::{
    gather, recv_control, send_control, AdoptNotice, MigrateAck, MigrateOffer,
};
use eth_transport::comm::{Communicator, TransportError};
use eth_transport::fault::DATA_TAG_MIN;
use eth_transport::link::PairLink;
use eth_transport::FaultPlan;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Encode what the pipeline `reads` of a block — its geometry and the
/// field it colours by, never the attributes nothing downstream looks at —
/// for a process boundary with the spec's wire codec, into a buffer leased
/// from the run's pool, which has it back once the far side (or whatever
/// dropped the message on the way) lets go of it. The block costs one
/// `Encode` span carrying the payload's bytes, and the raw (lossless) and
/// on-wire byte counters of the same selection let campaigns report what
/// the codec bought.
pub(super) fn encode_block(
    spec: &ExperimentSpec,
    block: &DataObject,
    reads: Fields,
    pool: &PayloadPool,
) -> Bytes {
    let mut span = eth_obs::span(eth_obs::Phase::Encode);
    let payload = spec.wire_compression.encode_in(block, reads, pool);
    span.set_bytes(payload.len() as u64);
    let raw = eth_data::io::binary::selected_len(block, reads);
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

/// How often a drainer waiting on a block re-reads the death record. It
/// decides how soon a declared death is noticed, never what the drainer
/// concludes.
const DEATH_POLL: Duration = Duration::from_millis(5);
/// Wall-clock backstop of a run with a liveness part when the fault plan
/// sets no per-rank budget.
const DEFAULT_RUN_DEADLINE: Duration = Duration::from_secs(120);

/// Everything a run's step loop does beyond "present, move, render,
/// composite", resolved once from the spec. The three couplings run the
/// same [`sim_role`] / [`viz_role`] step and differ only in the
/// [`PairLink`] a block crosses; fault tolerance and elasticity are parts
/// of this policy, and every part may be empty. The empty policy is the
/// plain run: it never polls a receive and never looks at a clock.
pub(super) struct StepPolicy {
    /// Faults on the data path degrade a step instead of failing the run
    /// (the spec carries a fault plan or a migration plan).
    tolerant: bool,
    /// The spec's fault plan, inert when it has none: scripted kills and
    /// the receive and run budgets are read from here. The pair links run
    /// behind it only when the spec really carries one ([`RankCx::link`]).
    pub(super) plan: FaultPlan,
    /// Death-aware receives and adoption: present iff the spec scripts a
    /// rank kill or plans a migration, whose handshakes ride the same
    /// control plane.
    pub(super) liveness: Option<Liveness>,
    /// Planned partition handoffs in control-plane order. Empty means
    /// static ownership.
    pub(super) handoffs: Vec<Handoff>,
}

/// The recovery part of a [`StepPolicy`].
pub(super) struct Liveness {
    /// How long a drainer waits for a block its simulation rank is not dead
    /// at before counting it lost: the plan's receive deadline, or, when
    /// the plan sets none (nothing can lose a block but a death), the run
    /// deadline.
    recv_budget: Duration,
    /// Wall-clock backstop for handoff receives, adoption notices and the
    /// launcher.
    pub(super) run_deadline: Duration,
}

impl StepPolicy {
    fn new(spec: &ExperimentSpec) -> StepPolicy {
        let plan = spec.fault_plan.clone().unwrap_or_default();
        let wanted = plan.kill_rank_at_step.is_some() || spec.migration.is_some();
        let liveness = wanted.then(|| {
            let run_deadline = plan.rank_timeout().unwrap_or(DEFAULT_RUN_DEADLINE);
            Liveness {
                recv_budget: plan.deadline().unwrap_or(run_deadline),
                run_deadline,
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
/// and the record of its deaths.
pub(super) struct RankCx {
    pub(super) spec: ExperimentSpec,
    pub(super) staged: Arc<StagedData>,
    pub(super) policy: StepPolicy,
    /// Simulation ranks killed by the fault plan, each declared by the rank
    /// itself (empty without a scripted kill).
    pub(super) deaths: Deaths,
    /// Where simulation ranks lease the buffers they encode into, and
    /// socket readers the buffers they receive into.
    pub(super) payloads: PayloadPool,
    /// The set each visualization rank makes its frames in, by viz index,
    /// leased together when the run starts and returned together when it
    /// ends ([`ScratchPool::lease`]): viz rank `v` of the next run draws
    /// the set rank `v` sized, whichever rank thread starts first.
    scratch: Vec<Mutex<ScratchLease>>,
}

impl RankCx {
    pub(super) fn new(
        spec: &ExperimentSpec,
        staged: &Arc<StagedData>,
        payloads: &PayloadPool,
        scratch: &ScratchPool,
    ) -> Arc<RankCx> {
        Arc::new(RankCx {
            spec: spec.clone(),
            staged: staged.clone(),
            policy: StepPolicy::new(spec),
            deaths: Deaths::new(spec.ranks),
            payloads: payloads.clone(),
            scratch: RankCx::lease_sets(spec, scratch),
        })
    }

    fn lease_sets(spec: &ExperimentSpec, pool: &ScratchPool) -> Vec<Mutex<ScratchLease>> {
        let mut sets = pool.lease(spec.max_viz_count());
        // The colour planes of the images the composite root will return,
        // allocated on the thread that starts the run: the thread that
        // receives the images, and most likely the one to free them.
        let planes = (0..spec.steps * spec.images_per_step)
            .map(|_| Vec::with_capacity(spec.width * spec.height))
            .collect();
        if let Some(root) = sets.first_mut() {
            root.provide_image_planes(planes);
        }
        sets.into_iter().map(Mutex::new).collect()
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
}

/// The simulation side of a step: the rank's proxy presents the block, the
/// rank encodes what the visualization pipeline reads of it and pushes
/// that across the pair link. A block the proxy skipped crosses as the
/// empty payload, a hole the composite root counts.
pub(super) fn sim_role(cx: &RankCx, rank: usize, link: &dyn PairLink) -> Result<RankOutput> {
    let spec = &cx.spec;
    let reader = VizPipeline::new(spec);
    let mut proxy = SimulationProxy::new(cx.staged.series.clone(), rank);
    let mut out = RankOutput::default();
    for step in 0..spec.steps {
        if cx.policy.plan.kills(rank, step) {
            // The scripted death: declare it with the last step sent and
            // leave a tombstone — the partition's story continues in
            // whoever drains this rank. Returning drops the link.
            cx.deaths.declare(rank, step.checked_sub(1));
            return Ok(RankOutput::default());
        }
        let t = Instant::now();
        let block = {
            let _span = eth_obs::span(eth_obs::Phase::Sim);
            proxy.step(step)?
        };
        let payload = match block {
            Some(block) => encode_block(spec, &block, reader.reads(), &cx.payloads),
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
    }
    out.bytes_sent = link.bytes_sent();
    Ok(out)
}

/// Receive `sim`'s block for `step`. Without a liveness part this is one
/// blocking receive (the chaos wrapper applies the plan's deadline, so a
/// dropped message costs one deadline, not the run). With one, a block
/// `sim` sent is received as usual, and `None` with `sim` dead at `step`
/// means "adopt": the receive is polled against the death record until
/// the block arrives, the death is declared, or the budget runs out. Any
/// other `None` is a lost block whose fault is counted in `deg`, or the
/// empty payload of a block the simulation rank's proxy skipped (either
/// way, the hole it leaves is the root's to count).
pub(super) fn drain(
    cx: &RankCx,
    link: &dyn PairLink,
    sim: usize,
    step: usize,
    deg: &mut Degradation,
) -> Result<Option<DataObject>> {
    let tag = DATA_TAG_MIN + step as u32;
    let received = match &cx.policy.liveness {
        None => link.recv(tag, None),
        Some(live) => {
            let deadline = Instant::now() + live.recv_budget;
            loop {
                if cx.deaths.dead_at(sim, step) {
                    return Ok(None);
                }
                let now = Instant::now();
                if now >= deadline {
                    break Err(TransportError::Timeout {
                        peer: sim,
                        elapsed: live.recv_budget,
                    });
                }
                match link.recv(tag, Some(DEATH_POLL.min(deadline - now))) {
                    Err(TransportError::Timeout { .. }) => continue,
                    // a link that snaps because its rank died is a death,
                    // not a fault
                    Err(_) if cx.deaths.dead_at(sim, step) => return Ok(None),
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
/// Death wins the migration-vs-death race deterministically. The source
/// drains the partition's wire for this step before it offers, and that
/// drain returns only once the block arrived or the death was declared;
/// the target reads the death record only after the offer arrives. So the
/// target refuses exactly the partitions whose simulation rank is dead at
/// the handoff step. Both receives are bounded by the run deadline alone,
/// so how long a peer takes to reach its handshake never changes the
/// outcome; a receive that fails fails the run.
pub(super) fn migrate_handshakes(
    cx: &RankCx,
    fabric: VizFabric,
    step: usize,
    owners: &mut [usize],
    deg: &mut Degradation,
    disruption: &mut Vec<f64>,
) -> Result<()> {
    let (policy, comm) = (&cx.policy, fabric.comm);
    // a migration plan turns the liveness part on: without one there is
    // nothing to hand off
    let Some(live) = &policy.liveness else {
        return Ok(());
    };
    let deadline = live.run_deadline;
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
            send_control(comm, fabric.base + h.to, &scheduled)?;
            let ack: MigrateAck = recv_control(comm, fabric.base + h.to, index, deadline)?;
            if ack.committed {
                owners[h.partition] = h.to;
                deg.migrations += 1;
            } else {
                deg.migration_failures += 1;
            }
            disruption.push(t.elapsed().as_secs_f64());
        } else {
            let offer: MigrateOffer = recv_control(comm, fabric.base + h.from, index, deadline)?;
            let committed = offer == scheduled && !cx.deaths.dead_at(h.partition, step);
            let ack = MigrateAck {
                handoff: index,
                committed,
            };
            send_control(comm, fabric.base + h.from, &ack)?;
            if committed {
                owners[h.partition] = h.to;
            }
        }
    }
    Ok(())
}

/// The visualization side of a step: drain the wires, run this step's
/// handshakes (intake first, so a death racing a migration is already
/// declared), render the partitions this rank owns, and contribute them
/// to each frame's gather as one partition-framed payload; the root folds
/// the partition slots in ascending order, counts the empty ones, and
/// keeps the images. Every buffer the rank sizes by a block or an image
/// is in its scratch set ([`RankCx`]'s, at its viz index).
///
/// `wires` are the `(simulation rank, wire)` pairs this rank drains,
/// ascending. Pairings are the *initial* layout's for the whole run — a
/// migrated partition's original feeder keeps draining its wire (identical
/// backpressure and fault accounting to a run without migration) while the
/// new owner presents the partition through a proxy of its own, whatever
/// becomes of the simulation rank that feeds the old wire.
pub(super) fn viz_role(cx: &RankCx, fabric: VizFabric, mut wires: Vec<(usize, Wire)>) -> Result<RankOutput> {
    let (spec, policy, staged) = (&cx.spec, &cx.policy, &cx.staged);
    let comm = fabric.comm;
    let r = spec.ranks;
    let me = comm.rank() - fabric.base;
    let is_root = me == 0;
    let mut owners: Vec<usize> = (0..r).map(|p| spec.initial_owner(p)).collect();
    // simulation ranks whose death this rank has accounted (exactly once,
    // by the drainer — the partition may live elsewhere by then)
    let mut lost = vec![false; r];
    let mut own_notices: Vec<AdoptNotice> = Vec::new();
    // proxies for the partitions this rank adopts or migrates in
    let mut inherited: Vec<Option<SimulationProxy>> = (0..r).map(|_| None).collect();
    let mut scratch = lock_recover(&cx.scratch[me]);
    let mut out = RankOutput::default();

    for step in 0..spec.steps {
        let mut deg = Degradation::default();

        // 1. Intake: drain every wire this rank holds, owner or not.
        let mut wire_blocks: Vec<Option<Arc<DataObject>>> = vec![None; r];
        for (sim, wire) in &mut wires {
            let sim = *sim;
            let t = Instant::now();
            let link = match wire {
                Wire::InProcess(proxy) => {
                    let _span = eth_obs::span(eth_obs::Phase::Sim);
                    wire_blocks[sim] = proxy.step(step)?;
                    out.phases.sim_s += t.elapsed().as_secs_f64();
                    continue;
                }
                Wire::Link(link) => link,
            };
            wire_blocks[sim] = drain(cx, link.as_ref(), sim, step, &mut deg)?.map(Arc::new);
            if cx.deaths.dead_at(sim, step) && !std::mem::replace(&mut lost[sim], true) {
                let _span = eth_obs::span(eth_obs::Phase::Recovery);
                deg.rank_losses += 1;
                let declared = cx.deaths.deaths().find(|death| death.rank == sim);
                let notice = AdoptNotice {
                    dead_rank: sim,
                    adopted_at_step: step,
                    adopter: r + owners[sim],
                    latency_ns: declared
                        .map_or(0, |death| death.declared.elapsed().as_nanos() as u64),
                };
                if is_root {
                    // the root drained the dead rank itself; no wire
                    // round-trip
                    own_notices.push(notice);
                } else {
                    send_control(comm, fabric.base, &notice)?;
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
            let drains = wires.iter().any(|(sim, _)| *sim == p);
            let block = match wire_blocks[p].take() {
                Some(block) => block,
                // own wire, but the message was lost: a hole
                None if drains && !cx.deaths.dead_at(p, step) => continue,
                // adopted or migrated-in: this rank's proxy presents the
                // partition as the series' own handle, every field; the
                // pipeline reads of it what the wire block carries, so the
                // frame is byte-identical (a block it skips is a hole)
                None => {
                    let proxy = inherited[p]
                        .get_or_insert_with(|| SimulationProxy::new(staged.series.clone(), p));
                    let _span = eth_obs::span(eth_obs::Phase::Sim);
                    match proxy.step(step)? {
                        Some(block) => block,
                        None => continue,
                    }
                }
            };
            let pass = pipeline.execute_step(step, &block, &staged.bounds[step], &mut scratch)?;
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
            let payload = encode_contribution(&entries, scratch.contributions());
            let salt = (step * spec.images_per_step + image_index) as u32;
            let members = fabric.base..comm.size();
            if let Some(parts) = gather(comm, members, salt, payload)? {
                let received = parts.iter().map(|raw| &raw[..]);
                let (frame, stats) =
                    composite_parts(r, spec.width, spec.height, received, &mut scratch)
                        .ok_or_else(malformed_contribution)?;
                deg.missing_contributions += stats.missing_contributions;
                let image = scratch.into_image(frame);
                pipeline.write_artifact(step, image_index, &image)?;
                out.images.push(image);
            }
        }
        for fb in rendered.into_iter().flat_map(|(_, frames)| frames) {
            scratch.recycle(fb);
        }
        out.phases.composite_s += t_comp.elapsed().as_secs_f64();
        out.degradation.absorb(&deg);
        if is_root {
            // The composite root closing a step is the frame boundary the
            // critical-path walk in `eth_obs::merge` attributes backwards from.
            eth_obs::step_mark(step as u64);
        }
    }

    // The root drains the control plane: one adoption notice per declared
    // death, from the rank that drained it, carries the measured
    // declaration-to-adoption latency. Every death is declared by now: the
    // kill step is one the run reaches, and the last gather waited on the
    // drainer, whose intake waited on the declaration.
    if let Some(live) = policy.liveness.as_ref().filter(|_| is_root) {
        for death in cx.deaths.deaths() {
            let notice = match own_notices.iter().find(|n| n.dead_rank == death.rank) {
                Some(notice) => *notice,
                None => {
                    let drainer = fabric.base + spec.initial_owner(death.rank);
                    recv_control::<AdoptNotice>(comm, drainer, death.rank, live.run_deadline)?
                }
            };
            out.recovery_latency_s.push(notice.latency_ns as f64 * 1e-9);
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

