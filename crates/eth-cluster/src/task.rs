//! Phase graphs: the unit of work the cluster machine schedules.
//!
//! An experiment compiles to a DAG of phases. Each phase occupies a
//! contiguous group of nodes for a duration at some utilization; edges are
//! completion dependencies (a viz phase depends on its sim phase; a
//! transfer depends on the producer; a composite depends on the renders).

use serde::{Deserialize, Serialize};

/// A contiguous range of node indices `[first, first + count)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeGroup {
    pub first: u32,
    pub count: u32,
}

impl NodeGroup {
    pub fn new(first: u32, count: u32) -> NodeGroup {
        assert!(count > 0, "node group cannot be empty");
        NodeGroup { first, count }
    }

    /// All nodes `0..count`.
    pub fn all(count: u32) -> NodeGroup {
        NodeGroup::new(0, count)
    }

    pub fn end(&self) -> u32 {
        self.first + self.count
    }

    pub fn overlaps(&self, other: &NodeGroup) -> bool {
        self.first < other.end() && other.first < self.end()
    }
}

/// Phase identifier within one [`PhaseGraph`].
pub type PhaseId = usize;

/// What a phase models; drives counter attribution and reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PhaseKind {
    /// Simulation-proxy compute (data load / generation).
    Simulation,
    /// Rendering work.
    Visualization,
    /// Data movement between node groups.
    Transfer,
    /// Image compositing.
    Composite,
}

/// One schedulable phase.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Phase {
    pub name: String,
    pub kind: PhaseKind,
    pub group: NodeGroup,
    /// Busy time on every node of the group, seconds.
    pub duration_s: f64,
    /// Core utilization of busy nodes in `[0, 1]` (drives dynamic power).
    pub utilization: f64,
    /// Phases that must complete before this one starts.
    pub deps: Vec<PhaseId>,
}

/// A DAG of phases.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PhaseGraph {
    phases: Vec<Phase>,
}

impl PhaseGraph {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a phase; `deps` must reference already-added phases (ensuring
    /// the graph is acyclic by construction).
    pub fn add(
        &mut self,
        name: impl Into<String>,
        kind: PhaseKind,
        group: NodeGroup,
        duration_s: f64,
        utilization: f64,
        deps: Vec<PhaseId>,
    ) -> PhaseId {
        assert!(duration_s >= 0.0 && duration_s.is_finite());
        let id = self.phases.len();
        for &d in &deps {
            assert!(d < id, "dependency {d} not yet defined for phase {id}");
        }
        self.phases.push(Phase {
            name: name.into(),
            kind,
            group,
            duration_s,
            utilization: utilization.clamp(0.0, 1.0),
            deps,
        });
        id
    }

    pub fn len(&self) -> usize {
        self.phases.len()
    }

    pub fn is_empty(&self) -> bool {
        self.phases.is_empty()
    }

    pub fn phase(&self, id: PhaseId) -> &Phase {
        &self.phases[id]
    }

    pub fn phases(&self) -> &[Phase] {
        &self.phases
    }

    /// Critical-path length through the DAG (lower bound on makespan).
    pub fn critical_path_s(&self) -> f64 {
        let mut finish = vec![0.0f64; self.phases.len()];
        for (i, p) in self.phases.iter().enumerate() {
            let ready = p
                .deps
                .iter()
                .map(|&d| finish[d])
                .fold(0.0f64, f64::max);
            finish[i] = ready + p.duration_s;
        }
        finish.iter().cloned().fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_groups_overlap_logic() {
        let a = NodeGroup::new(0, 4);
        let b = NodeGroup::new(4, 4);
        let c = NodeGroup::new(2, 4);
        assert!(!a.overlaps(&b));
        assert!(a.overlaps(&c));
        assert!(c.overlaps(&b));
        assert!(a.overlaps(&a));
    }

    #[test]
    fn graph_builds_and_measures() {
        let mut g = PhaseGraph::new();
        let sim = g.add("sim", PhaseKind::Simulation, NodeGroup::all(4), 2.0, 1.0, vec![]);
        let viz = g.add(
            "viz",
            PhaseKind::Visualization,
            NodeGroup::all(4),
            3.0,
            0.8,
            vec![sim],
        );
        g.add(
            "comp",
            PhaseKind::Composite,
            NodeGroup::all(4),
            0.5,
            0.3,
            vec![viz],
        );
        assert_eq!(g.len(), 3);
        assert!((g.critical_path_s() - 5.5).abs() < 1e-12);
    }

    #[test]
    fn critical_path_takes_longest_branch() {
        let mut g = PhaseGraph::new();
        let a = g.add("a", PhaseKind::Simulation, NodeGroup::all(1), 1.0, 1.0, vec![]);
        let b = g.add("b", PhaseKind::Visualization, NodeGroup::all(1), 5.0, 1.0, vec![a]);
        let c = g.add("c", PhaseKind::Visualization, NodeGroup::all(1), 2.0, 1.0, vec![a]);
        g.add("d", PhaseKind::Composite, NodeGroup::all(1), 1.0, 1.0, vec![b, c]);
        assert!((g.critical_path_s() - 7.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn forward_dependencies_rejected() {
        let mut g = PhaseGraph::new();
        g.add("a", PhaseKind::Simulation, NodeGroup::all(1), 1.0, 1.0, vec![3]);
    }

    #[test]
    #[should_panic]
    fn empty_group_rejected() {
        NodeGroup::new(0, 0);
    }
}
