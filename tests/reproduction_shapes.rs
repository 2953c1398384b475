//! Paper-shape integration tests: every finding of Section VI, asserted
//! against the cluster-sim reproduction (orderings and ratio windows, not
//! exact numbers).

use eth::cluster::costmodel::AlgorithmClass;
use eth::cluster::coupling::CouplingStrategy;
use eth::cluster::experiment::{run_cluster, ClusterExperiment};

const B: u64 = 1_000_000_000;
const XRAGE_LARGE: [u64; 3] = [1840, 1120, 960];

#[test]
fn finding1_splat_faster_than_points_faster_than_raycast() {
    let t = |alg| run_cluster(&ClusterExperiment::hacc(alg, 400, B)).exec_time_s;
    let splat = t(AlgorithmClass::GaussianSplat);
    let points = t(AlgorithmClass::VtkPoints);
    let ray = t(AlgorithmClass::RaycastSpheres);
    assert!(splat < points && points < ray);
    // paper ratios: 171.9 / 268.7 / 464.4
    assert!((0.5..0.8).contains(&(splat / points)), "{}", splat / points);
    assert!((1.4..2.2).contains(&(ray / points)), "{}", ray / points);
}

#[test]
fn finding2_power_nearly_constant_across_hacc_algorithms() {
    let p = |alg| run_cluster(&ClusterExperiment::hacc(alg, 400, B)).avg_power_kw;
    let powers = [
        p(AlgorithmClass::GaussianSplat),
        p(AlgorithmClass::VtkPoints),
        p(AlgorithmClass::RaycastSpheres),
    ];
    let max = powers.iter().cloned().fold(f64::MIN, f64::max);
    let min = powers.iter().cloned().fold(f64::MAX, f64::min);
    assert!(max - min < 2.0, "power spread {}", max - min);
    // and in the paper's absolute neighbourhood (55.2–55.7 kW)
    assert!((52.0..58.0).contains(&max));
}

#[test]
fn finding3_scaling_curves_differ_with_data_size() {
    let t = |alg, n| run_cluster(&ClusterExperiment::hacc(alg, 400, n)).exec_time_s;
    let growth = |alg| t(alg, B) / t(alg, B / 4);
    assert!(growth(AlgorithmClass::GaussianSplat) > 3.2);
    assert!(growth(AlgorithmClass::VtkPoints) > 3.2);
    assert!(growth(AlgorithmClass::RaycastSpheres) < 2.0);
}

#[test]
fn finding4_sampling_reduces_hacc_power() {
    let base = run_cluster(&ClusterExperiment::hacc(AlgorithmClass::VtkPoints, 400, B));
    let sampled = run_cluster(
        &ClusterExperiment::hacc(AlgorithmClass::VtkPoints, 400, B).with_sampling(0.25),
    );
    let total_drop = 1.0 - sampled.avg_power_kw / base.avg_power_kw;
    let dynamic_drop = 1.0 - sampled.dynamic_power_kw / base.dynamic_power_kw;
    // paper: ~11% total, ~39% dynamic
    assert!((0.05..0.18).contains(&total_drop), "total {total_drop}");
    assert!((0.28..0.5).contains(&dynamic_drop), "dynamic {dynamic_drop}");
}

#[test]
fn finding5_poor_strong_scaling_for_raycasting() {
    let t = |nodes| {
        run_cluster(&ClusterExperiment::hacc(AlgorithmClass::RaycastSpheres, nodes, B))
            .exec_time_s
    };
    let speedup = t(200) / t(400);
    assert!((1.0..1.5).contains(&speedup), "speedup {speedup}");
    // power halves, so the 200-node run wins on energy
    let m200 = run_cluster(&ClusterExperiment::hacc(AlgorithmClass::RaycastSpheres, 200, B));
    let m400 = run_cluster(&ClusterExperiment::hacc(AlgorithmClass::RaycastSpheres, 400, B));
    assert!(m200.energy_kj < m400.energy_kj);
}

#[test]
fn finding6_intercore_coupling_wins_for_hacc() {
    let run = |c| {
        run_cluster(
            &ClusterExperiment::hacc(AlgorithmClass::RaycastSpheres, 400, B)
                .with_coupling(c)
                .with_steps(4)
                .with_sim_ops(300_000.0),
        )
    };
    let tight = run(CouplingStrategy::Tight);
    let intercore = run(CouplingStrategy::Intercore);
    let internode = run(CouplingStrategy::Internode);
    assert!(intercore.exec_time_s < tight.exec_time_s);
    assert!(intercore.exec_time_s < internode.exec_time_s);
    assert!(intercore.energy_kj < tight.energy_kj);
}

#[test]
fn fig12_xrage_vtk_costs_more_time_and_energy() {
    let vtk = run_cluster(&ClusterExperiment::xrage(
        AlgorithmClass::VtkIsosurface,
        216,
        XRAGE_LARGE,
    ));
    let ray = run_cluster(&ClusterExperiment::xrage(
        AlgorithmClass::RaycastIsosurface,
        216,
        XRAGE_LARGE,
    ));
    assert!(vtk.exec_time_s > ray.exec_time_s);
    assert!(vtk.energy_kj > ray.energy_kj);
    let ratio = vtk.exec_time_s / ray.exec_time_s;
    assert!((1.1..3.2).contains(&ratio), "vtk/ray {ratio} (paper 1.28)");
}

#[test]
fn fig14_grid_sampling_saves_energy_but_not_power() {
    let base = run_cluster(&ClusterExperiment::xrage(
        AlgorithmClass::VtkIsosurface,
        216,
        XRAGE_LARGE,
    ));
    let sampled = run_cluster(
        &ClusterExperiment::xrage(AlgorithmClass::VtkIsosurface, 216, XRAGE_LARGE)
            .with_sampling(0.04),
    );
    let power_change = (base.avg_power_kw - sampled.avg_power_kw).abs() / base.avg_power_kw;
    assert!(power_change < 0.03, "power should stay flat: {power_change}");
    assert!(sampled.energy_kj < base.energy_kj, "energy should still fall");
}

#[test]
fn finding7_crossover_at_64_nodes_or_more() {
    let t = |alg, nodes| {
        run_cluster(&ClusterExperiment::xrage(alg, nodes, XRAGE_LARGE)).exec_time_s
    };
    // vtk wins small, raycast wins large, crossover in the paper's window
    assert!(t(AlgorithmClass::VtkIsosurface, 1) < t(AlgorithmClass::RaycastIsosurface, 1));
    assert!(t(AlgorithmClass::VtkIsosurface, 216) > t(AlgorithmClass::RaycastIsosurface, 216));
    let mut crossover = None;
    for nodes in [2u32, 4, 8, 16, 32, 64, 128, 216] {
        if t(AlgorithmClass::VtkIsosurface, nodes)
            > t(AlgorithmClass::RaycastIsosurface, nodes)
        {
            crossover = Some(nodes);
            break;
        }
    }
    let crossover = crossover.expect("raycast must eventually win");
    assert!(
        (32..=128).contains(&crossover),
        "crossover at {crossover} nodes (paper: 64 or more)"
    );
}

#[test]
fn fig15_vtk_degrades_beyond_its_peak() {
    let t = |nodes| {
        run_cluster(&ClusterExperiment::xrage(
            AlgorithmClass::VtkIsosurface,
            nodes,
            XRAGE_LARGE,
        ))
        .exec_time_s
    };
    let times: Vec<(u32, f64)> = [1u32, 4, 16, 64, 128, 216]
        .iter()
        .map(|&n| (n, t(n)))
        .collect();
    let (best_nodes, best_time) = times
        .iter()
        .cloned()
        .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
        .unwrap();
    let t216 = times.last().unwrap().1;
    assert!(
        best_nodes < 216,
        "vtk should peak before the largest allocation"
    );
    assert!(
        t216 > best_time * 1.05,
        "vtk at 216 nodes ({t216}) should be measurably past its best ({best_time})"
    );
}

#[test]
fn fig15_raycast_scales_nearly_linearly() {
    let t = |nodes| {
        run_cluster(&ClusterExperiment::xrage(
            AlgorithmClass::RaycastIsosurface,
            nodes,
            XRAGE_LARGE,
        ))
        .exec_time_s
    };
    let t1 = t(1);
    for nodes in [2u32, 4, 8, 16, 32, 64] {
        let speedup = t1 / t(nodes);
        let efficiency = speedup / nodes as f64;
        assert!(
            efficiency > 0.6,
            "raycast efficiency at {nodes} nodes: {efficiency}"
        );
    }
}
