//! The cluster machine: executes a phase graph on node groups.
//!
//! Greedy list scheduling in insertion order: a phase starts when all its
//! dependencies have finished *and* every node in its group is free.
//! Node groups that overlap therefore serialize (which is exactly how
//! intercore time-sharing behaves), while disjoint groups pipeline (the
//! internode case).

use crate::node::ClusterSpec;
use crate::power::{integrate, BusyInterval, PowerProfile};
use crate::task::{PhaseGraph, PhaseId, PhaseKind};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// One scheduled phase instance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScheduledPhase {
    pub phase: PhaseId,
    pub start: f64,
    pub end: f64,
}

/// The executed timeline of a phase graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExecutionTrace {
    pub schedule: Vec<ScheduledPhase>,
    pub makespan: f64,
    /// Busy node-seconds per phase kind.
    pub busy_by_kind: HashMap<String, f64>,
}

/// A cluster that can execute phase graphs.
#[derive(Debug, Clone, Copy)]
pub struct ClusterMachine {
    pub spec: ClusterSpec,
    /// Power sampler period in seconds (Apollo 8000: 5 s).
    pub sample_period_s: f64,
}

impl ClusterMachine {
    pub fn new(spec: ClusterSpec) -> ClusterMachine {
        ClusterMachine {
            spec,
            sample_period_s: 5.0,
        }
    }

    /// Execute a phase graph, producing the schedule.
    ///
    /// Scheduling is greedy in phase-insertion order, which is also a
    /// topological order (the graph builder enforces back-edges only).
    pub fn execute(&self, graph: &PhaseGraph) -> ExecutionTrace {
        let nodes = self.spec.nodes as usize;
        // Earliest free time per node.
        let mut node_free = vec![0.0f64; nodes];
        let mut finish = vec![0.0f64; graph.len()];
        let mut schedule = Vec::with_capacity(graph.len());
        let mut busy_by_kind: HashMap<String, f64> = HashMap::new();

        for (id, phase) in graph.phases().iter().enumerate() {
            assert!(
                (phase.group.end() as usize) <= nodes,
                "phase '{}' needs nodes up to {} but the cluster has {}",
                phase.name,
                phase.group.end(),
                nodes
            );
            let deps_ready = phase
                .deps
                .iter()
                .map(|&d| finish[d])
                .fold(0.0f64, f64::max);
            let group_range = phase.group.first as usize..phase.group.end() as usize;
            let nodes_ready = node_free[group_range.clone()]
                .iter()
                .cloned()
                .fold(0.0f64, f64::max);
            let start = deps_ready.max(nodes_ready);
            let end = start + phase.duration_s;
            assert!(end.max(0.0).is_finite(), "phase '{}' never ends", phase.name);
            for t in &mut node_free[group_range] {
                *t = end;
            }
            finish[id] = end;
            schedule.push(ScheduledPhase {
                phase: id,
                start,
                end,
            });
            *busy_by_kind.entry(kind_name(phase.kind).to_string()).or_default() +=
                phase.duration_s * phase.group.count as f64;
        }
        let makespan = schedule.iter().map(|s| s.end).fold(0.0f64, f64::max);
        ExecutionTrace {
            schedule,
            makespan,
            busy_by_kind,
        }
    }

    /// Execute and measure: returns the trace plus its power profile.
    pub fn run(&self, graph: &PhaseGraph) -> (ExecutionTrace, PowerProfile) {
        let trace = self.execute(graph);
        let intervals: Vec<BusyInterval> = trace
            .schedule
            .iter()
            .map(|s| {
                let p = graph.phase(s.phase);
                BusyInterval {
                    start: s.start,
                    end: s.end,
                    group: p.group,
                    utilization: p.utilization,
                }
            })
            .collect();
        let profile = integrate(&self.spec, &intervals, trace.makespan, self.sample_period_s);
        (trace, profile)
    }
}

fn kind_name(kind: PhaseKind) -> &'static str {
    match kind {
        PhaseKind::Simulation => "simulation",
        PhaseKind::Visualization => "visualization",
        PhaseKind::Transfer => "transfer",
        PhaseKind::Composite => "composite",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::NodeGroup;

    fn machine(nodes: u32) -> ClusterMachine {
        ClusterMachine::new(ClusterSpec::hikari(nodes))
    }

    #[test]
    fn serial_phases_on_same_nodes() {
        let mut g = PhaseGraph::new();
        g.add("a", PhaseKind::Simulation, NodeGroup::all(4), 2.0, 1.0, vec![]);
        g.add("b", PhaseKind::Visualization, NodeGroup::all(4), 3.0, 1.0, vec![]);
        let trace = machine(4).execute(&g);
        // no dependency, but same nodes: must serialize
        assert_eq!(trace.schedule[1].start, 2.0);
        assert_eq!(trace.makespan, 5.0);
    }

    #[test]
    fn disjoint_groups_run_in_parallel() {
        let mut g = PhaseGraph::new();
        g.add("a", PhaseKind::Simulation, NodeGroup::new(0, 2), 2.0, 1.0, vec![]);
        g.add("b", PhaseKind::Visualization, NodeGroup::new(2, 2), 3.0, 1.0, vec![]);
        let trace = machine(4).execute(&g);
        assert_eq!(trace.schedule[0].start, 0.0);
        assert_eq!(trace.schedule[1].start, 0.0);
        assert_eq!(trace.makespan, 3.0);
    }

    #[test]
    fn dependencies_respected_across_groups() {
        let mut g = PhaseGraph::new();
        let sim = g.add("sim", PhaseKind::Simulation, NodeGroup::new(0, 2), 2.0, 1.0, vec![]);
        let xfer = g.add(
            "xfer",
            PhaseKind::Transfer,
            NodeGroup::new(0, 2),
            0.5,
            0.2,
            vec![sim],
        );
        let viz = g.add(
            "viz",
            PhaseKind::Visualization,
            NodeGroup::new(2, 2),
            1.0,
            1.0,
            vec![xfer],
        );
        let trace = machine(4).execute(&g);
        assert_eq!(trace.schedule[viz].start, 2.5);
        assert_eq!(trace.makespan, 3.5);
    }

    #[test]
    fn pipelining_across_steps() {
        // Two steps of internode-style sim->viz: sim of step 2 overlaps viz
        // of step 1, so the makespan is less than the serial sum.
        let mut g = PhaseGraph::new();
        let sim_nodes = NodeGroup::new(0, 2);
        let viz_nodes = NodeGroup::new(2, 2);
        let mut prev_viz: Option<usize> = None;
        for _step in 0..2 {
            let sim = g.add("sim", PhaseKind::Simulation, sim_nodes, 2.0, 1.0, vec![]);
            let mut deps = vec![sim];
            if let Some(pv) = prev_viz {
                deps.push(pv);
            }
            let viz = g.add("viz", PhaseKind::Visualization, viz_nodes, 2.0, 1.0, deps);
            prev_viz = Some(viz);
        }
        let trace = machine(4).execute(&g);
        let serial = 2.0 * (2.0 + 2.0);
        assert!(trace.makespan < serial, "no pipelining: {}", trace.makespan);
        assert_eq!(trace.makespan, 6.0); // sim1 | sim2+viz1 | viz2
    }

    #[test]
    fn run_produces_power_profile() {
        let mut g = PhaseGraph::new();
        g.add("work", PhaseKind::Visualization, NodeGroup::all(400), 100.0, 1.0, vec![]);
        let (trace, profile) = machine(400).run(&g);
        assert_eq!(trace.makespan, 100.0);
        assert!((profile.avg_power_kw - 55.6).abs() < 0.2);
        assert!(profile.energy_kj > 5000.0);
    }

    #[test]
    fn half_idle_cluster_draws_less() {
        // Same work on 2 of 4 nodes vs 4 of 4: smaller busy group, lower
        // average power (the Figure 10 mechanism).
        let mut g_half = PhaseGraph::new();
        g_half.add("w", PhaseKind::Visualization, NodeGroup::new(0, 2), 10.0, 1.0, vec![]);
        let mut g_full = PhaseGraph::new();
        g_full.add("w", PhaseKind::Visualization, NodeGroup::all(4), 10.0, 1.0, vec![]);
        let (_, p_half) = machine(4).run(&g_half);
        let (_, p_full) = machine(4).run(&g_full);
        assert!(p_half.avg_power_kw < p_full.avg_power_kw);
    }

    #[test]
    fn busy_accounting_by_kind() {
        let mut g = PhaseGraph::new();
        g.add("s", PhaseKind::Simulation, NodeGroup::all(2), 1.0, 1.0, vec![]);
        g.add("v", PhaseKind::Visualization, NodeGroup::all(2), 2.0, 1.0, vec![]);
        let trace = machine(2).execute(&g);
        assert_eq!(trace.busy_by_kind["simulation"], 2.0);
        assert_eq!(trace.busy_by_kind["visualization"], 4.0);
    }

    #[test]
    #[should_panic]
    fn phase_outside_cluster_panics() {
        let mut g = PhaseGraph::new();
        g.add("w", PhaseKind::Simulation, NodeGroup::new(0, 8), 1.0, 1.0, vec![]);
        machine(4).execute(&g);
    }
}
