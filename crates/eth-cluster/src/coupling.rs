//! Coupling-strategy schedule builders (the paper's third axis).
//!
//! "We explore three work-distribution or sim-viz coupling strategies:
//! *intercore* — simulation and visualization processes are time-shared
//! and alternate on the same set of nodes; *internode* — the processes are
//! space-shared with the simulation process running on half the allocated
//! nodes and the visualization process on the remaining nodes; *tight* —
//! the visualization and simulation processes are merged to create a
//! single, unified process." (Section IV-B)
//!
//! Each builder compiles a [`Workload`] × [`AlgorithmClass`] into a
//! [`PhaseGraph`] the cluster machine executes:
//!
//! * **tight** — one merged process: the in-situ call stack is
//!   `simulate(step); render(step);`, strictly serial on all nodes, no
//!   copy across the interface.
//! * **intercore** — two processes time-sharing the same nodes. Because
//!   the proxy's staging is I/O-bound while rendering is compute-bound,
//!   the OS interleaves them: step *i+1*'s simulation overlaps step *i*'s
//!   rendering, at the price of an IPC handoff (one shared-memory copy).
//!   This overlap is the mechanism behind the paper's Finding 6
//!   ("proximity does not equate with optimality": intercore beats the
//!   merged process even though both live on the same nodes).
//! * **internode** — sim on the first half of the allocation, viz on the
//!   second half: each side has half the nodes (so double the per-node
//!   data), every step crosses the interconnect, and sim of step *i+1*
//!   pipelines with viz of step *i*.

use crate::costmodel::{AlgorithmClass, CostModel, Workload};
use crate::task::{NodeGroup, PhaseGraph, PhaseKind};
use serde::{Deserialize, Serialize};

/// The coupling axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Coupling {
    Tight,
    Intercore,
    Internode,
}

impl Coupling {
    pub fn name(self) -> &'static str {
        match self {
            Coupling::Tight => "tight",
            Coupling::Intercore => "intercore",
            Coupling::Internode => "internode",
        }
    }

    pub fn all() -> [Coupling; 3] {
        [Coupling::Tight, Coupling::Intercore, Coupling::Internode]
    }
}

/// Fraction of the staging cost charged as the intercore IPC handoff
/// (one extra shared-memory traversal of the payload).
const INTERCORE_IPC_FRACTION: f64 = 0.35;

/// Compile one experiment into a phase graph.
///
/// `total_nodes` is the full allocation; internode splits it in half.
pub fn build_schedule(
    model: &CostModel,
    strategy: Coupling,
    alg: AlgorithmClass,
    workload: &Workload,
    total_nodes: u32,
) -> PhaseGraph {
    assert!(total_nodes >= 1);
    let mut graph = PhaseGraph::new();
    match strategy {
        Coupling::Tight => {
            let group = NodeGroup::all(total_nodes);
            let sim = model.sim_phase(workload, total_nodes);
            let viz = model.viz_phase(alg, workload, total_nodes);
            let comp = model.composite_phase(alg, workload, total_nodes);
            for step in 0..workload.steps {
                // Same node group: the machine serializes these anyway, so
                // no explicit cross-step dependencies are needed.
                let s = graph.add(
                    format!("sim[{step}]"),
                    PhaseKind::Simulation,
                    group,
                    sim.seconds,
                    sim.utilization,
                    vec![],
                );
                let v = graph.add(
                    format!("viz[{step}]"),
                    PhaseKind::Visualization,
                    group,
                    viz.seconds,
                    viz.utilization,
                    vec![s],
                );
                graph.add(
                    format!("composite[{step}]"),
                    PhaseKind::Composite,
                    group,
                    comp.seconds,
                    comp.utilization,
                    vec![v],
                );
            }
        }
        Coupling::Intercore => {
            let group = NodeGroup::all(total_nodes);
            let sim = model.sim_phase(workload, total_nodes);
            let viz = model.viz_phase(alg, workload, total_nodes);
            let comp = model.composite_phase(alg, workload, total_nodes);
            // IPC cost is a copy of the *payload* (staging-shaped), not of
            // the simulation compute.
            let staging = {
                let mut replay = *workload;
                replay.sim_ops_per_element = 0.0;
                model.sim_phase(&replay, total_nodes)
            };
            let ipc_seconds = staging.seconds * INTERCORE_IPC_FRACTION;
            // Steady state: each step occupies the nodes for
            // max(sim, viz + composite) because the I/O-bound proxy for
            // step i+1 runs under the compute-bound renderer for step i.
            // The first step pays the un-overlapped sim latency.
            let render_side = viz.then(comp);
            let overlapped = sim.seconds.max(render_side.seconds);
            for step in 0..workload.steps {
                if step == 0 {
                    graph.add(
                        "sim[0] (cold)",
                        PhaseKind::Simulation,
                        group,
                        sim.seconds + ipc_seconds,
                        sim.utilization,
                        vec![],
                    );
                }
                // utilization: both processes active — sum of demands,
                // capped at 1 (time-sharing cannot exceed the node).
                let u = (sim.utilization * (sim.seconds / overlapped.max(1e-12))
                    + render_side.utilization)
                    .min(1.0);
                graph.add(
                    format!("sim||viz[{step}]"),
                    PhaseKind::Visualization,
                    group,
                    overlapped + ipc_seconds,
                    u,
                    vec![],
                );
            }
        }
        Coupling::Internode => {
            build_internode(&mut graph, model, alg, workload, total_nodes, 0.5);
        }
    }
    graph
}

/// Internode coupling with an arbitrary visualization share — the
/// "differing numbers of nodes for each" variant of the paper's Figure 2,
/// and the tool for testing the paper's own hypothesis that "a better way
/// to distribute work is to allocate a small number of nodes for
/// visualization and the remaining nodes for simulation" (Section VI-A,
/// after Finding 5).
///
/// `viz_fraction` in (0, 1): share of the allocation given to the
/// visualization proxy (0.5 = the paper's symmetric internode).
pub fn build_schedule_split(
    model: &CostModel,
    alg: AlgorithmClass,
    workload: &Workload,
    total_nodes: u32,
    viz_fraction: f64,
) -> PhaseGraph {
    assert!(total_nodes >= 2, "a split needs at least two nodes");
    assert!(
        viz_fraction > 0.0 && viz_fraction < 1.0,
        "viz_fraction must be in (0, 1), got {viz_fraction}"
    );
    let mut graph = PhaseGraph::new();
    build_internode(&mut graph, model, alg, workload, total_nodes, viz_fraction);
    graph
}

fn build_internode(
    graph: &mut PhaseGraph,
    model: &CostModel,
    alg: AlgorithmClass,
    workload: &Workload,
    total_nodes: u32,
    viz_fraction: f64,
) {
    {
        {
            let viz_nodes = ((total_nodes as f64 * viz_fraction).round() as u32)
                .clamp(1, total_nodes.saturating_sub(1).max(1));
            let sim_nodes = (total_nodes - viz_nodes).max(1);
            let sim_group = NodeGroup::new(0, sim_nodes);
            let viz_group = NodeGroup::new(sim_nodes, viz_nodes);
            let sim = model.sim_phase(workload, sim_nodes);
            let viz = model.viz_phase(alg, workload, viz_nodes);
            let comp = model.composite_phase(alg, workload, viz_nodes);
            let xfer = model.transfer_phase(workload, sim_nodes);
            let mut prev_viz: Option<usize> = None;
            for step in 0..workload.steps {
                // Sim nodes serialize on their own group automatically.
                let s = graph.add(
                    format!("sim[{step}]"),
                    PhaseKind::Simulation,
                    sim_group,
                    sim.seconds,
                    sim.utilization,
                    vec![],
                );
                // Transfer occupies the *sim* side (send) and gates the viz.
                let t = graph.add(
                    format!("xfer[{step}]"),
                    PhaseKind::Transfer,
                    sim_group,
                    xfer.seconds,
                    xfer.utilization,
                    vec![s],
                );
                let mut deps = vec![t];
                if let Some(pv) = prev_viz {
                    deps.push(pv);
                }
                let v = graph.add(
                    format!("viz[{step}]"),
                    PhaseKind::Visualization,
                    viz_group,
                    viz.seconds,
                    viz.utilization,
                    deps,
                );
                let c = graph.add(
                    format!("composite[{step}]"),
                    PhaseKind::Composite,
                    viz_group,
                    comp.seconds,
                    comp.utilization,
                    vec![v],
                );
                prev_viz = Some(c);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::costmodel::Calibration;
    use crate::machine::ClusterMachine;
    use crate::node::ClusterSpec;

    fn model(nodes: u32) -> CostModel {
        CostModel::new(Calibration::default(), ClusterSpec::hikari(nodes))
    }

    /// The Figure 11 configuration: a light simulation runs alongside, so
    /// the sim phase is comparable to the viz phase.
    fn hacc_coupled() -> Workload {
        Workload {
            global_elements: 1_000_000_000,
            image_pixels: 512 * 512,
            images_per_step: 500,
            steps: 4,
            bytes_per_element: 32,
            sampling_ratio: 1.0,
            planes: 0,
            sim_ops_per_element: 10_000.0,
        }
    }

    #[test]
    fn tight_graph_shape() {
        let m = model(400);
        let g = build_schedule(
            &m,
            Coupling::Tight,
            AlgorithmClass::VtkPoints,
            &hacc_coupled(),
            400,
        );
        assert_eq!(g.len(), 3 * 4); // sim, viz, composite per step
        assert!(g.phases().iter().all(|p| p.group.count == 400));
    }

    #[test]
    fn internode_splits_nodes_and_pipelines() {
        let m = model(400);
        let w = hacc_coupled();
        let g = build_schedule(
            &m,
            Coupling::Internode,
            AlgorithmClass::RaycastSpheres,
            &w,
            400,
        );
        for p in g.phases() {
            match p.kind {
                PhaseKind::Simulation | PhaseKind::Transfer => {
                    assert_eq!(p.group.first, 0);
                    assert_eq!(p.group.count, 200);
                }
                PhaseKind::Visualization | PhaseKind::Composite => {
                    assert_eq!(p.group.first, 200);
                    assert_eq!(p.group.count, 200);
                }
            }
        }
        let machine = ClusterMachine::new(m.cluster);
        let trace = machine.execute(&g);
        let serial: f64 = g.phases().iter().map(|p| p.duration_s).sum();
        assert!(trace.makespan < serial, "no pipelining happened");
    }

    #[test]
    fn finding6_intercore_wins_for_hacc() {
        // Figure 11 / Finding 6: intercore outperforms the other couplings
        // for HACC. Mechanism in this model: the I/O-bound proxy overlaps
        // the compute-bound renderer under time-sharing, while the merged
        // (tight) process is strictly serial and internode pays the
        // interconnect plus doubled per-node data on half the nodes.
        let total = 400u32;
        let w = hacc_coupled();
        let mut times = std::collections::HashMap::new();
        let mut energies = std::collections::HashMap::new();
        for strategy in Coupling::all() {
            let m = model(total);
            let machine = ClusterMachine::new(m.cluster);
            let g = build_schedule(&m, strategy, AlgorithmClass::RaycastSpheres, &w, total);
            let (trace, profile) = machine.run(&g);
            times.insert(strategy.name(), trace.makespan);
            energies.insert(strategy.name(), profile.energy_kj);
        }
        let t_tight = times["tight"];
        let t_intercore = times["intercore"];
        let t_internode = times["internode"];
        assert!(
            t_intercore < t_tight,
            "intercore {t_intercore} should beat tight {t_tight}"
        );
        assert!(
            t_intercore < t_internode,
            "intercore {t_intercore} should beat internode {t_internode}"
        );
        // and it wins on energy too (same allocation, shorter run)
        assert!(energies["intercore"] < energies["tight"]);
    }

    #[test]
    fn without_sim_compute_couplings_converge() {
        // Pure data replay (sim ~ free): the coupling choice barely
        // matters — which is why Figure 11's experiment must include real
        // simulation compute to be interesting.
        let total = 400u32;
        let mut w = hacc_coupled();
        w.sim_ops_per_element = 0.0;
        let m = model(total);
        let machine = ClusterMachine::new(m.cluster);
        let t = |s| {
            let g = build_schedule(&m, s, AlgorithmClass::RaycastSpheres, &w, total);
            machine.execute(&g).makespan
        };
        let t_tight = t(Coupling::Tight);
        let t_intercore = t(Coupling::Intercore);
        assert!((t_intercore / t_tight - 1.0).abs() < 0.1);
    }

    #[test]
    fn split_fractions_partition_the_allocation() {
        let m = model(400);
        let w = hacc_coupled();
        for (frac, want_viz) in [(0.125, 50u32), (0.25, 100), (0.5, 200), (0.75, 300)] {
            let g = build_schedule_split(&m, AlgorithmClass::RaycastSpheres, &w, 400, frac);
            let viz = g
                .phases()
                .iter()
                .find(|p| p.kind == PhaseKind::Visualization)
                .unwrap();
            assert_eq!(viz.group.count, want_viz, "fraction {frac}");
            assert_eq!(viz.group.first, 400 - want_viz);
        }
    }

    #[test]
    fn symmetric_split_matches_internode() {
        let m = model(400);
        let w = hacc_coupled();
        let a = build_schedule(&m, Coupling::Internode, AlgorithmClass::VtkPoints, &w, 400);
        let b = build_schedule_split(&m, AlgorithmClass::VtkPoints, &w, 400, 0.5);
        assert_eq!(a, b);
    }

    #[test]
    fn paper_hypothesis_small_viz_allocation_wins_when_sim_dominates() {
        // Section VI-A (after Finding 5): "a better way to distribute work
        // is to allocate a small number of nodes for visualization and the
        // remaining nodes for simulation". The hypothesis holds in the
        // production regime — a heavy simulation plus a sampled, ray-bound
        // visualization whose cost barely depends on its node share. (In
        // viz-dominated configurations the opposite allocation wins, which
        // is itself a design-space answer the harness can produce.)
        let m = model(400);
        let mut w = hacc_coupled();
        w.sim_ops_per_element = 1_000_000.0; // production-weight simulation
        w.sampling_ratio = 0.25; // viz renders the sampled subset
        let machine = ClusterMachine::new(m.cluster);
        let time_at = |frac: f64| {
            let g = build_schedule_split(&m, AlgorithmClass::RaycastSpheres, &w, 400, frac);
            machine.execute(&g).makespan
        };
        let small = time_at(0.125);
        let half = time_at(0.5);
        assert!(
            small < half * 0.75,
            "small viz share ({small}) should clearly beat the symmetric split ({half})"
        );
    }

    #[test]
    #[should_panic]
    fn split_rejects_degenerate_fraction() {
        let m = model(4);
        build_schedule_split(
            &m,
            AlgorithmClass::VtkPoints,
            &hacc_coupled(),
            4,
            1.0,
        );
    }

    #[test]
    fn single_node_internode_degenerates_gracefully() {
        let m = model(2);
        let g = build_schedule(
            &m,
            Coupling::Internode,
            AlgorithmClass::VtkPoints,
            &hacc_coupled(),
            2,
        );
        let machine = ClusterMachine::new(m.cluster);
        let trace = machine.execute(&g);
        assert!(trace.makespan.is_finite());
    }

    #[test]
    fn strategy_names() {
        assert_eq!(Coupling::Tight.name(), "tight");
        assert_eq!(Coupling::Intercore.name(), "intercore");
        assert_eq!(Coupling::Internode.name(), "internode");
        assert_eq!(Coupling::all().len(), 3);
    }
}
