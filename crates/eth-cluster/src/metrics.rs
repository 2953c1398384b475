//! The paper's metrics of interest (Section V-C).
//!
//! * **Performance** — execution time (makespan),
//! * **Power** — average power over the run, from the sampled profile,
//! * **Energy** — average power × execution time,
//! * **Scalability** — ratio of execution time on N nodes to 1 node.

use crate::machine::ExecutionTrace;
use crate::power::PowerProfile;
use serde::{Deserialize, Serialize};

/// Metrics of one run, in the units the paper reports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunMetrics {
    pub nodes: u32,
    /// Execution time, seconds.
    pub exec_time_s: f64,
    /// Average power, kW (sampled, as the Apollo 8000 manager reports it).
    pub avg_power_kw: f64,
    /// Energy, kJ (avg power × execution time — the paper's method).
    pub energy_kj: f64,
    /// Average dynamic power above the idle floor, kW (the Figure 9b
    /// quantity).
    pub dynamic_power_kw: f64,
    /// Steps rendered from partial data in a fault-tolerant native run
    /// (always 0 for cluster-simulated runs).
    #[serde(default)]
    pub degraded_steps: u64,
    /// Steps whose data never arrived in a fault-tolerant native run
    /// (always 0 for cluster-simulated runs).
    #[serde(default)]
    pub dropped_steps: u64,
}

/// All-zero metrics: the "not measured" placeholder used when a journal
/// predates phase-attributed native power (`nodes == 0` marks it).
impl Default for RunMetrics {
    fn default() -> RunMetrics {
        RunMetrics {
            nodes: 0,
            exec_time_s: 0.0,
            avg_power_kw: 0.0,
            energy_kj: 0.0,
            dynamic_power_kw: 0.0,
            degraded_steps: 0,
            dropped_steps: 0,
        }
    }
}

impl RunMetrics {
    /// Assemble from a trace + power profile.
    pub fn from_run(nodes: u32, trace: &ExecutionTrace, profile: &PowerProfile) -> RunMetrics {
        RunMetrics {
            nodes,
            exec_time_s: trace.makespan,
            avg_power_kw: profile.sampled_avg_power_kw,
            // the paper multiplies reported average power by exec time
            energy_kj: profile.sampled_avg_power_kw * trace.makespan,
            dynamic_power_kw: profile.avg_dynamic_power_kw,
            degraded_steps: 0,
            dropped_steps: 0,
        }
    }

    /// The paper's scalability metric: `t(N) / t(1)` (lower is better;
    /// perfect strong scaling gives `1/N`).
    pub fn scalability(&self, single_node: &RunMetrics) -> f64 {
        self.exec_time_s / single_node.exec_time_s.max(1e-12)
    }

    /// Energy saved versus a baseline, as a fraction (Table II's
    /// "Energy Saved" column).
    pub fn energy_saved_vs(&self, baseline: &RunMetrics) -> f64 {
        if baseline.energy_kj <= 0.0 {
            return 0.0;
        }
        1.0 - self.energy_kj / baseline.energy_kj
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::ClusterMachine;
    use crate::node::ClusterSpec;
    use crate::task::{NodeGroup, PhaseGraph, PhaseKind};

    fn run(nodes: u32, seconds: f64, utilization: f64) -> RunMetrics {
        let machine = ClusterMachine::new(ClusterSpec::hikari(nodes));
        let mut g = PhaseGraph::new();
        g.add(
            "w",
            PhaseKind::Visualization,
            NodeGroup::all(nodes),
            seconds,
            utilization,
            vec![],
        );
        let (trace, profile) = machine.run(&g);
        RunMetrics::from_run(nodes, &trace, &profile)
    }

    #[test]
    fn metrics_assemble() {
        let m = run(400, 100.0, 1.0);
        assert_eq!(m.exec_time_s, 100.0);
        assert!((m.avg_power_kw - 55.6).abs() < 0.5);
        assert!((m.energy_kj - m.avg_power_kw * 100.0).abs() < 1e-9);
        assert!(m.dynamic_power_kw > 10.0);
    }

    #[test]
    fn scalability_is_time_over_single_node_time() {
        let one = run(1, 64.0, 1.0);
        let fast = run(8, 8.0, 1.0);
        assert!((fast.scalability(&one) - 0.125).abs() < 1e-9);
    }

    #[test]
    fn energy_saved_fraction() {
        let base = run(4, 100.0, 1.0);
        let better = run(4, 50.0, 1.0);
        let saved = better.energy_saved_vs(&base);
        assert!((saved - 0.5).abs() < 0.01, "saved {saved}");
        assert_eq!(better.energy_saved_vs(&RunMetrics {
            nodes: 4,
            exec_time_s: 0.0,
            avg_power_kw: 0.0,
            energy_kj: 0.0,
            dynamic_power_kw: 0.0,
            degraded_steps: 0,
            dropped_steps: 0,
        }), 0.0);
    }

    #[test]
    fn lower_utilization_lower_dynamic_power() {
        let busy = run(10, 10.0, 1.0);
        let lazy = run(10, 10.0, 0.4);
        assert!(lazy.dynamic_power_kw < busy.dynamic_power_kw);
        assert!(lazy.avg_power_kw < busy.avg_power_kw);
        // idle floor keeps total power from falling proportionally
        assert!(lazy.avg_power_kw > busy.avg_power_kw * 0.7);
    }
}
