//! Cluster-sim mode: one paper-scale design point, compiled to a phase
//! graph and executed on the calibrated Hikari model, producing the
//! execution time / power / energy numbers the tables and figures report.

use crate::costmodel::{AlgorithmClass, Calibration, CostModel, Workload};
use crate::coupling::{build_schedule, Coupling};
use crate::machine::ClusterMachine;
use crate::metrics::RunMetrics;
use crate::node::ClusterSpec;

/// A paper-scale design point for the cluster simulator.
#[derive(Debug, Clone, Copy)]
pub struct ClusterExperiment {
    pub algorithm: AlgorithmClass,
    pub coupling: Coupling,
    pub nodes: u32,
    pub workload: Workload,
    pub calibration: Calibration,
    /// Asymmetric internode split: share of the allocation given to the
    /// visualization proxy. `None` uses the coupling's canonical layout
    /// (internode = 0.5). Ignored for tight/intercore.
    pub viz_fraction: Option<f64>,
}

impl ClusterExperiment {
    /// HACC at paper scale: `particles` across `nodes` Hikari nodes,
    /// 500 images per step at 512².
    pub fn hacc(algorithm: AlgorithmClass, nodes: u32, particles: u64) -> ClusterExperiment {
        ClusterExperiment {
            algorithm,
            coupling: Coupling::Tight,
            nodes,
            workload: Workload {
                global_elements: particles,
                image_pixels: 512 * 512,
                images_per_step: 500,
                steps: 1,
                bytes_per_element: 32,
                sampling_ratio: 1.0,
                planes: 0,
                sim_ops_per_element: 0.0,
            },
            calibration: Calibration::default(),
            viz_fraction: None,
        }
    }

    /// xRAGE at paper scale: `dims` grid across `nodes`, 100 images/step.
    pub fn xrage(algorithm: AlgorithmClass, nodes: u32, dims: [u64; 3]) -> ClusterExperiment {
        ClusterExperiment {
            algorithm,
            coupling: Coupling::Tight,
            nodes,
            workload: Workload {
                global_elements: dims[0] * dims[1] * dims[2],
                image_pixels: 512 * 512,
                images_per_step: 100,
                steps: 1,
                bytes_per_element: 4,
                sampling_ratio: 1.0,
                planes: 2,
                sim_ops_per_element: 0.0,
            },
            calibration: Calibration::default(),
            viz_fraction: None,
        }
    }

    pub fn with_coupling(mut self, coupling: Coupling) -> Self {
        self.coupling = coupling;
        self
    }

    pub fn with_sampling(mut self, ratio: f64) -> Self {
        self.workload.sampling_ratio = ratio;
        self
    }

    pub fn with_steps(mut self, steps: u32) -> Self {
        self.workload.steps = steps;
        self
    }

    pub fn with_sim_ops(mut self, ops_per_element: f64) -> Self {
        self.workload.sim_ops_per_element = ops_per_element;
        self
    }

    pub fn with_calibration(mut self, cal: Calibration) -> Self {
        self.calibration = cal;
        self
    }

    /// Space-share with an asymmetric split (implies internode coupling).
    pub fn with_viz_fraction(mut self, fraction: f64) -> Self {
        self.coupling = Coupling::Internode;
        self.viz_fraction = Some(fraction);
        self
    }
}

/// Execute a paper-scale design point on the Hikari model.
pub fn run_cluster(exp: &ClusterExperiment) -> RunMetrics {
    let cluster = ClusterSpec::hikari(exp.nodes);
    let model = CostModel::new(exp.calibration, cluster);
    let graph = match (exp.coupling, exp.viz_fraction) {
        (Coupling::Internode, Some(fraction)) => {
            crate::coupling::build_schedule_split(
                &model,
                exp.algorithm,
                &exp.workload,
                exp.nodes,
                fraction,
            )
        }
        _ => build_schedule(&model, exp.coupling, exp.algorithm, &exp.workload, exp.nodes),
    };
    let machine = ClusterMachine::new(cluster);
    let (trace, profile) = machine.run(&graph);
    RunMetrics::from_run(exp.nodes, &trace, &profile)
}


#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_mode_produces_paper_scale_metrics() {
        let exp = ClusterExperiment::hacc(AlgorithmClass::RaycastSpheres, 400, 1_000_000_000);
        let m = run_cluster(&exp);
        assert_eq!(m.nodes, 400);
        assert!(m.exec_time_s > 1.0);
        assert!((40.0..60.0).contains(&m.avg_power_kw), "power {}", m.avg_power_kw);
        assert!(m.energy_kj > 0.0);
    }

    #[test]
    fn cluster_mode_coupling_builder() {
        let exp = ClusterExperiment::hacc(AlgorithmClass::VtkPoints, 64, 10_000_000)
            .with_coupling(Coupling::Internode)
            .with_sampling(0.5)
            .with_steps(3)
            .with_sim_ops(100.0);
        let m = run_cluster(&exp);
        assert!(m.exec_time_s.is_finite() && m.exec_time_s > 0.0);
    }
}
