//! One function per table/figure of the paper's evaluation.
//!
//! Paper-scale numbers come from the cluster model with its default
//! calibration (the constants fitted in `eth-cluster`, documented there);
//! image-quality numbers (Table II RMSE) come from *real renders* on this
//! machine. The expected shapes are listed in EXPERIMENTS.md next to the
//! recorded output of the `reproduce` binary.

use eth_cluster::costmodel::AlgorithmClass;
use eth_cluster::coupling::CouplingStrategy;
use eth_cluster::experiment::{run_cluster, ClusterExperiment};
use eth_cluster::metrics::RunMetrics;
use eth_core::config::{Algorithm, Application, Coupling, ExperimentSpec};
use eth_core::harness::RunCaches;
use eth_core::results::{fmt_kw, fmt_pct, fmt_s, ResultTable};
use eth_core::{Campaign, CampaignOutcome, CoreError, RecoveryPolicy, Result};
use eth_transport::{FaultPlan, HeartbeatPolicy};
use std::path::Path;

/// HACC paper-scale particle counts ("full" = 1B, then 750M/500M/250M).
pub const HACC_SIZES: [u64; 4] = [250_000_000, 500_000_000, 750_000_000, 1_000_000_000];

/// xRAGE paper problem sizes (small/medium/large grids).
pub const XRAGE_SMALL: [u64; 3] = [610, 375, 320];
pub const XRAGE_MEDIUM: [u64; 3] = [1280, 750, 640];
pub const XRAGE_LARGE: [u64; 3] = [1840, 1120, 960];

/// The three HACC algorithms in the paper's Table I row order.
pub const HACC_ALGS: [AlgorithmClass; 3] = [
    AlgorithmClass::RaycastSpheres,
    AlgorithmClass::GaussianSplat,
    AlgorithmClass::VtkPoints,
];

fn hacc_run(alg: AlgorithmClass, nodes: u32, particles: u64) -> RunMetrics {
    run_cluster(&ClusterExperiment::hacc(alg, nodes, particles))
}

/// **Table I** — HACC visualization algorithms: time and average power at
/// 1B particles on 400 nodes.
pub fn table1() -> ResultTable {
    let mut t = ResultTable::new(
        "Table I: Visualization Algorithm Results for HACC (1B particles, 400 nodes)",
        &["Algorithm", "Time (s)", "Power (kW)"],
    );
    for alg in HACC_ALGS {
        let m = hacc_run(alg, 400, 1_000_000_000);
        t.push_row(vec![
            alg.name().to_string(),
            fmt_s(m.exec_time_s),
            fmt_kw(m.avg_power_kw),
        ]);
    }
    t
}

/// Table II's (native algorithm, cluster-model class) pairs, row order.
const TABLE2_PAIRS: [(Algorithm, AlgorithmClass); 3] = [
    (Algorithm::RaycastSpheres, AlgorithmClass::RaycastSpheres),
    (Algorithm::GaussianSplat, AlgorithmClass::GaussianSplat),
    (Algorithm::VtkPoints, AlgorithmClass::VtkPoints),
];

/// Table II's sampled ratios (the 1.0 baseline is rendered separately).
const TABLE2_RATIOS: [f64; 3] = [0.75, 0.5, 0.25];

/// The native spec behind one Table II cell.
fn table2_spec(alg: Algorithm, ratio: f64) -> Result<ExperimentSpec> {
    ExperimentSpec::builder(&format!("t2-{}-{ratio}", alg.name()))
        .application(Application::Hacc { particles: 40_000 })
        .algorithm(alg)
        .ranks(2)
        .image_size(192, 192)
        .sampling_ratio(ratio)
        .build()
}

/// Assemble the Table II rows from the nine rendered point images (row
/// order: algorithm-major, then ratio as in [`TABLE2_RATIOS`]). With
/// `recovery`, the table grows a per-point recovery-summary column drawn
/// from the campaign outcome (losses survived, partitions adopted,
/// detection-to-adoption latency).
fn table2_from_images(
    caches: &RunCaches,
    images: &[eth_render::Image],
    recovery: Option<&CampaignOutcome>,
) -> Result<ResultTable> {
    let (title, mut columns) = (
        if recovery.is_some() {
            "Table II: Trade-off between accuracy and energy for HACC \
             (one seeded rank kill per point, recovered in-run)"
        } else {
            "Table II: Trade-off between accuracy and energy for HACC"
        },
        vec!["Algorithm", "Sampling Ratio", "RMSE", "Energy Saved"],
    );
    if recovery.is_some() {
        columns.push("Recovery");
    }
    let mut t = ResultTable::new(title, &columns);
    let mut point = images.iter();
    let mut index = 0usize;
    for (alg, class) in TABLE2_PAIRS {
        let baseline_img = caches.baseline_images(&table2_spec(alg, 1.0)?)?[0].clone();
        let baseline = hacc_run(class, 400, 1_000_000_000);
        for ratio in TABLE2_RATIOS {
            let img = point.next().expect("nine point images");
            let rmse = img.rmse(&baseline_img)?;
            let m = run_cluster(
                &ClusterExperiment::hacc(class, 400, 1_000_000_000).with_sampling(ratio),
            );
            let mut row = vec![
                alg.name().to_string(),
                format!("{ratio:.2}"),
                format!("{rmse:.3}"),
                fmt_pct(m.energy_saved_vs(&baseline)),
            ];
            if let Some(outcome) = recovery {
                row.push(recovery_summary(outcome, index));
            }
            t.push_row(row);
            index += 1;
        }
    }
    Ok(t)
}

/// One point's recovery summary for the `--recovery` column.
fn recovery_summary(outcome: &CampaignOutcome, index: usize) -> String {
    match outcome.results.get(index) {
        Some(Ok(native)) => {
            let d = &native.degradation;
            if d.rank_losses == 0 {
                "clean".to_string()
            } else {
                let latency = native
                    .recovery_latency_s
                    .first()
                    .map(|s| format!(", {:.0} ms", s * 1e3))
                    .unwrap_or_default();
                format!(
                    "{} lost / {} adopted{latency}",
                    d.rank_losses, d.adopted_partitions
                )
            }
        }
        Some(Err(e)) => format!("failed ({e})"),
        None => "-".to_string(),
    }
}

/// The nine Table II render points in row order (algorithm-major).
fn table2_specs() -> Result<Vec<ExperimentSpec>> {
    let mut specs = Vec::new();
    for (alg, _) in TABLE2_PAIRS {
        for ratio in TABLE2_RATIOS {
            specs.push(table2_spec(alg, ratio)?);
        }
    }
    Ok(specs)
}

/// Pull the nine point images out of a finished Table II campaign,
/// failing loudly if any point failed.
fn table2_images(
    specs: &[ExperimentSpec],
    outcome: &CampaignOutcome,
) -> Result<Vec<eth_render::Image>> {
    let mut images = Vec::new();
    for (i, result) in outcome.results.iter().enumerate() {
        match result {
            Ok(native) => images.push(native.images[0].clone()),
            Err(e) => {
                return Err(CoreError::Config(format!(
                    "table2 campaign point {i} ({}) failed: {e}",
                    specs[i].name
                )))
            }
        }
    }
    Ok(images)
}

/// Which edit [`table2_campaign`] applies to the nine Table II specs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Table2 {
    /// The specs as they are.
    Plain,
    /// Beyond RAM (`reproduce table2 --memory-budget 256M`): every point
    /// carries a staging memory budget of this many bytes, so datasets
    /// larger than it spill to compressed chunks and stream back — and the
    /// campaign scheduler itself runs under the same policy's backpressure
    /// watermarks. The RMSE column is identical to [`Table2::Plain`]'s:
    /// bounded memory costs spill traffic, not pixels.
    Budgeted(u64),
    /// Under fire (`reproduce table2 --recovery`): every point runs
    /// intercore-coupled with a [`RecoveryPolicy`] and a seeded
    /// `kill_rank_at_step` on one simulation rank, so each of the nine
    /// cells loses a rank mid-run and recovers by partition adoption, and
    /// the table grows a per-point recovery column. Because adoption
    /// re-renders the dead rank's partition from the shared staged data,
    /// the RMSE column is identical to [`Table2::Plain`]'s — which is
    /// exactly the demonstration: a rank loss costs detection latency and
    /// extra work on the adopter, not pixels.
    Recovery,
}

/// **Table II** as a campaign: the nine render points go through
/// [`Campaign::execute`] over one shared cache (HACC stages once, each
/// algorithm's full-fidelity baseline renders once), and the outcome
/// carries the campaign's flight-recorder telemetry for
/// `reproduce table2 --metrics`. With a `journal` directory the campaign
/// is durable: a run killed partway can be re-invoked with the same
/// directory and restores every completed point instead of re-rendering
/// it; the table itself is byte-identical either way.
pub fn table2_campaign(
    variant: Table2,
    journal: Option<&Path>,
) -> Result<(ResultTable, CampaignOutcome)> {
    let mut specs = table2_specs()?;
    let mut campaign = Campaign::new();
    match variant {
        Table2::Plain => {}
        Table2::Budgeted(budget) => {
            let policy = eth_core::config::ResourcePolicy::with_memory_budget(budget);
            for spec in &mut specs {
                spec.resources = Some(policy.clone());
            }
            campaign = campaign.with_resources(policy);
        }
        Table2::Recovery => {
            for (i, spec) in specs.iter_mut().enumerate() {
                spec.name = format!("{}-recovery", spec.name);
                spec.coupling = Coupling::Intercore;
                spec.recovery = Some(RecoveryPolicy {
                    heartbeat: HeartbeatPolicy {
                        interval_ms: 10,
                        miss_budget: 3,
                    },
                    adopt: true,
                });
                let victim = i % spec.ranks;
                let step = i % spec.steps;
                spec.fault_plan = Some(FaultPlan::seeded(0xE7).with_kill_rank_at_step(victim, step));
            }
        }
    }
    let caches = RunCaches::new();
    let outcome = campaign.execute(&specs, &caches, journal, None)?;
    let images = table2_images(&specs, &outcome)?;
    let recovery = (variant == Table2::Recovery).then_some(&outcome);
    let table = table2_from_images(&caches, &images, recovery)?;
    Ok((table, outcome))
}

/// **Table II** — accuracy (real rendered RMSE on this machine) vs energy
/// saved (cluster model) per sampling ratio and algorithm.
pub fn table2() -> Result<ResultTable> {
    Ok(table2_campaign(Table2::Plain, None)?.0)
}

/// **Figure 8** — normalized execution time vs data size (fixed 400
/// nodes); normalization is against each algorithm's smallest dataset.
pub fn fig8() -> ResultTable {
    let mut t = ResultTable::new(
        "Figure 8: normalized execution time vs data size (400 nodes)",
        &["Algorithm", "Particles", "Time (s)", "Normalized"],
    );
    for alg in HACC_ALGS {
        let t0 = hacc_run(alg, 400, HACC_SIZES[0]).exec_time_s;
        for particles in HACC_SIZES {
            let m = hacc_run(alg, 400, particles);
            t.push_row(vec![
                alg.name().to_string(),
                particles.to_string(),
                fmt_s(m.exec_time_s),
                format!("{:.2}", m.exec_time_s / t0),
            ]);
        }
    }
    t
}

/// **Figure 9** — performance, dynamic power, and energy vs sampling ratio
/// (HACC full, 400 nodes).
pub fn fig9() -> ResultTable {
    let mut t = ResultTable::new(
        "Figure 9: performance/power/energy vs spatial sampling (HACC, 400 nodes)",
        &[
            "Algorithm",
            "Sampling Ratio",
            "Time (s)",
            "Total Power (kW)",
            "Dynamic Power (kW)",
            "Energy (MJ)",
        ],
    );
    for alg in HACC_ALGS {
        for ratio in [1.0, 0.75, 0.5, 0.25] {
            let m = run_cluster(
                &ClusterExperiment::hacc(alg, 400, 1_000_000_000).with_sampling(ratio),
            );
            t.push_row(vec![
                alg.name().to_string(),
                format!("{ratio:.2}"),
                fmt_s(m.exec_time_s),
                fmt_kw(m.avg_power_kw),
                fmt_kw(m.dynamic_power_kw),
                format!("{:.3}", m.energy_kj / 1000.0),
            ]);
        }
    }
    t
}

/// **Figure 10** — strong scaling: 200 vs 400 nodes (HACC full).
pub fn fig10() -> ResultTable {
    let mut t = ResultTable::new(
        "Figure 10: strong scaling, 200 vs 400 nodes (HACC full)",
        &["Algorithm", "Nodes", "Time (s)", "Power (kW)", "Energy (MJ)"],
    );
    for alg in HACC_ALGS {
        for nodes in [200u32, 400] {
            let m = hacc_run(alg, nodes, 1_000_000_000);
            t.push_row(vec![
                alg.name().to_string(),
                nodes.to_string(),
                fmt_s(m.exec_time_s),
                fmt_kw(m.avg_power_kw),
                format!("{:.3}", m.energy_kj / 1000.0),
            ]);
        }
    }
    t
}

/// **Figure 11** — coupling strategies (HACC + light simulation compute,
/// 400 nodes).
pub fn fig11() -> ResultTable {
    let mut t = ResultTable::new(
        "Figure 11: coupling strategies (HACC 1B + light simulation, 400 nodes)",
        &["Coupling", "Time (s)", "Power (kW)", "Energy (MJ)"],
    );
    for strategy in CouplingStrategy::all() {
        let exp = ClusterExperiment::hacc(AlgorithmClass::RaycastSpheres, 400, 1_000_000_000)
            .with_coupling(strategy)
            .with_steps(4)
            .with_sim_ops(300_000.0);
        let m = run_cluster(&exp);
        t.push_row(vec![
            strategy.name().to_string(),
            fmt_s(m.exec_time_s),
            fmt_kw(m.avg_power_kw),
            format!("{:.3}", m.energy_kj / 1000.0),
        ]);
    }
    t
}

fn xrage_run(alg: AlgorithmClass, nodes: u32, dims: [u64; 3]) -> RunMetrics {
    run_cluster(&ClusterExperiment::xrage(alg, nodes, dims))
}

/// **Figure 12** — xRAGE isosurface: vtk vs raycasting (large problem,
/// 216 nodes).
pub fn fig12() -> ResultTable {
    let mut t = ResultTable::new(
        "Figure 12: xRAGE isosurface backends (large, 216 nodes)",
        &["Algorithm", "Time (s)", "Power (kW)", "Energy (MJ)"],
    );
    for alg in [AlgorithmClass::VtkIsosurface, AlgorithmClass::RaycastIsosurface] {
        let m = xrage_run(alg, 216, XRAGE_LARGE);
        t.push_row(vec![
            alg.name().to_string(),
            fmt_s(m.exec_time_s),
            fmt_kw(m.avg_power_kw),
            format!("{:.3}", m.energy_kj / 1000.0),
        ]);
    }
    t
}

/// **Figure 13** — execution time vs problem size (27× range). Measured at
/// 48 nodes, where extraction dominates (see EXPERIMENTS.md for why the
/// node count differs from Figure 12's).
pub fn fig13() -> ResultTable {
    let mut t = ResultTable::new(
        "Figure 13: xRAGE scalability with problem size (48 nodes)",
        &["Algorithm", "Problem", "Cells", "Time (s)", "Normalized"],
    );
    let problems = [
        ("small", XRAGE_SMALL),
        ("medium", XRAGE_MEDIUM),
        ("large", XRAGE_LARGE),
    ];
    for alg in [AlgorithmClass::VtkIsosurface, AlgorithmClass::RaycastIsosurface] {
        let t0 = xrage_run(alg, 48, XRAGE_SMALL).exec_time_s;
        for (name, dims) in problems {
            let m = xrage_run(alg, 48, dims);
            t.push_row(vec![
                alg.name().to_string(),
                name.to_string(),
                (dims[0] * dims[1] * dims[2]).to_string(),
                fmt_s(m.exec_time_s),
                format!("{:.2}", m.exec_time_s / t0),
            ]);
        }
    }
    t
}

/// **Figure 14** — xRAGE sampling: power stays flat, energy still falls.
pub fn fig14() -> ResultTable {
    let mut t = ResultTable::new(
        "Figure 14: xRAGE under spatial sampling (large, 216 nodes)",
        &[
            "Algorithm",
            "Sampling Ratio",
            "Time (s)",
            "Total Power (kW)",
            "Dynamic Power (kW)",
            "Energy (MJ)",
        ],
    );
    for alg in [AlgorithmClass::VtkIsosurface, AlgorithmClass::RaycastIsosurface] {
        for ratio in [1.0, 0.5, 0.25, 0.04] {
            let m = run_cluster(
                &ClusterExperiment::xrage(alg, 216, XRAGE_LARGE).with_sampling(ratio),
            );
            t.push_row(vec![
                alg.name().to_string(),
                format!("{ratio:.2}"),
                fmt_s(m.exec_time_s),
                fmt_kw(m.avg_power_kw),
                fmt_kw(m.dynamic_power_kw),
                format!("{:.3}", m.energy_kj / 1000.0),
            ]);
        }
    }
    t
}

/// **Figure 15** — xRAGE strong scaling, 1..216 nodes: raycasting scales
/// near-linearly, VTK plateaus then degrades; the crossover sits near the
/// paper's "64 or more".
pub fn fig15() -> ResultTable {
    let mut t = ResultTable::new(
        "Figure 15: xRAGE strong scaling (large problem)",
        &["Algorithm", "Nodes", "Time (s)", "Normalized Perf"],
    );
    let node_counts = [1u32, 2, 4, 8, 16, 32, 64, 128, 216];
    for alg in [AlgorithmClass::VtkIsosurface, AlgorithmClass::RaycastIsosurface] {
        let t1 = xrage_run(alg, 1, XRAGE_LARGE).exec_time_s;
        for nodes in node_counts {
            let m = xrage_run(alg, nodes, XRAGE_LARGE);
            t.push_row(vec![
                alg.name().to_string(),
                nodes.to_string(),
                fmt_s(m.exec_time_s),
                format!("{:.2}", t1 / m.exec_time_s),
            ]);
        }
    }
    t
}

/// **Extension: asymmetric internode splits** — the "differing numbers of
/// nodes for each" variant of the paper's Figure 2, testing the Section
/// VI-A hypothesis that "a better way to distribute work is to allocate a
/// small number of nodes for visualization and the remaining nodes for
/// simulation". Run in the production regime (heavy simulation, sampled
/// ray-bound visualization).
pub fn ext_split() -> ResultTable {
    let mut t = ResultTable::new(
        "Extension: internode viz-node share sweep \
         (HACC 1B + production simulation, sampling 0.25, 400 nodes)",
        &["Viz fraction", "Time (s)", "Power (kW)", "Energy (MJ)"],
    );
    for fraction in [0.0625, 0.125, 0.25, 0.5, 0.75] {
        let exp = ClusterExperiment::hacc(AlgorithmClass::RaycastSpheres, 400, 1_000_000_000)
            .with_steps(4)
            .with_sim_ops(1_000_000.0)
            .with_sampling(0.25)
            .with_viz_fraction(fraction);
        let m = run_cluster(&exp);
        t.push_row(vec![
            format!("{fraction:.4}"),
            fmt_s(m.exec_time_s),
            fmt_kw(m.avg_power_kw),
            format!("{:.3}", m.energy_kj / 1000.0),
        ]);
    }
    t
}

/// **Ablation** — sensitivity of the reproduction's headline shapes to the
/// two fitted model constants DESIGN.md calls out:
/// * the compositing-contention coefficient (drives Figure 15's VTK
///   degradation and the crossover location),
/// * the utilization exponent (drives Figure 9's dynamic-power drop).
///
/// Each row re-runs the relevant experiment with the constant scaled and
/// reports the observable the paper pins down.
pub fn ext_ablation() -> ResultTable {
    use eth_cluster::costmodel::Calibration;
    let mut t = ResultTable::new(
        "Ablation: fitted-constant sensitivity",
        &["Constant", "Scale", "Observable", "Value"],
    );

    // contention coefficient -> crossover node count + vtk/ray ratio @216
    for scale in [0.0, 0.5, 1.0, 2.0] {
        let cal = Calibration {
            geometry_contention_s_per_node: Calibration::default()
                .geometry_contention_s_per_node
                * scale,
            ..Default::default()
        };
        let t_at = |alg, nodes: u32| {
            run_cluster(
                &ClusterExperiment::xrage(alg, nodes, XRAGE_LARGE).with_calibration(cal),
            )
            .exec_time_s
        };
        let crossover = [2u32, 4, 8, 16, 32, 64, 128, 216]
            .iter()
            .find(|&&n| {
                t_at(AlgorithmClass::VtkIsosurface, n)
                    > t_at(AlgorithmClass::RaycastIsosurface, n)
            })
            .map(|n| n.to_string())
            .unwrap_or_else(|| ">216".to_string());
        t.push_row(vec![
            "contention".into(),
            format!("{scale:.1}x"),
            "vtk/raycast crossover (nodes)".into(),
            crossover,
        ]);
        let ratio = t_at(AlgorithmClass::VtkIsosurface, 216)
            / t_at(AlgorithmClass::RaycastIsosurface, 216);
        t.push_row(vec![
            "contention".into(),
            format!("{scale:.1}x"),
            "vtk/raycast time ratio @216".into(),
            format!("{ratio:.2}"),
        ]);
    }

    // utilization exponent -> dynamic power drop at sampling 0.25
    for exponent in [0.2, 0.36, 0.6] {
        let cal = Calibration {
            utilization_exponent: exponent,
            ..Default::default()
        };
        let base = run_cluster(
            &ClusterExperiment::hacc(AlgorithmClass::VtkPoints, 400, 1_000_000_000)
                .with_calibration(cal),
        );
        let sampled = run_cluster(
            &ClusterExperiment::hacc(AlgorithmClass::VtkPoints, 400, 1_000_000_000)
                .with_calibration(cal)
                .with_sampling(0.25),
        );
        let drop = 1.0 - sampled.dynamic_power_kw / base.dynamic_power_kw;
        t.push_row(vec![
            "util_exponent".into(),
            format!("{exponent}"),
            "dynamic power drop @ratio 0.25 (paper 0.39)".into(),
            format!("{drop:.2}"),
        ]);
    }
    t
}

/// Every artifact id, in paper order, plus extensions.
pub const ARTIFACT_IDS: [&str; 12] = [
    "table1",
    "table2",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "ext_split",
    "ext_ablation",
];

/// Compute one artifact by id (see [`ARTIFACT_IDS`]).
pub fn artifact(id: &str) -> Result<ResultTable> {
    match id {
        "table1" => Ok(table1()),
        "table2" => table2(),
        "fig8" => Ok(fig8()),
        "fig9" => Ok(fig9()),
        "fig10" => Ok(fig10()),
        "fig11" => Ok(fig11()),
        "fig12" => Ok(fig12()),
        "fig13" => Ok(fig13()),
        "fig14" => Ok(fig14()),
        "fig15" => Ok(fig15()),
        "ext_split" => Ok(ext_split()),
        "ext_ablation" => Ok(ext_ablation()),
        other => Err(CoreError::Config(format!("unknown artifact '{other}'"))),
    }
}

/// All tables/figures in paper order, plus extensions: `(id, table)`.
pub fn all() -> Result<Vec<(&'static str, ResultTable)>> {
    ARTIFACT_IDS
        .iter()
        .map(|&id| Ok((id, artifact(id)?)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(t: &ResultTable, row: usize, name: &str) -> f64 {
        t.cell_f64(row, name)
            .unwrap_or_else(|| panic!("row {row} col {name} in {}", t.title))
    }

    #[test]
    fn table1_shape() {
        let t = table1();
        // rows: raycast, splat, points
        let ray = col(&t, 0, "Time (s)");
        let splat = col(&t, 1, "Time (s)");
        let points = col(&t, 2, "Time (s)");
        assert!(splat < points && points < ray, "{splat} {points} {ray}");
        // power nearly equal (paper: 55.2-55.7)
        let powers: Vec<f64> = (0..3).map(|r| col(&t, r, "Power (kW)")).collect();
        let spread = powers.iter().cloned().fold(f64::MIN, f64::max)
            - powers.iter().cloned().fold(f64::MAX, f64::min);
        assert!(spread < 2.0, "power spread {spread}");
    }

    #[test]
    fn fig8_shape() {
        let t = fig8();
        // per algorithm 4 rows; last Normalized value is time(1B)/time(250M)
        let norm = |alg_row: usize| col(&t, alg_row * 4 + 3, "Normalized");
        let ray = norm(0);
        let splat = norm(1);
        let points = norm(2);
        assert!(ray < 2.0, "raycast sub-linear: {ray}");
        assert!((3.2..4.6).contains(&splat), "splat ~linear: {splat}");
        assert!((3.2..4.6).contains(&points), "points ~linear: {points}");
        assert!(ray < splat.min(points) * 0.6, "slopes must separate clearly");
    }

    #[test]
    fn fig9_shape() {
        let t = fig9();
        // for every algorithm: time and dynamic power fall with ratio
        for a in 0..3 {
            let time_full = col(&t, a * 4, "Time (s)");
            let time_q = col(&t, a * 4 + 3, "Time (s)");
            assert!(time_q < time_full);
            let dp_full = col(&t, a * 4, "Dynamic Power (kW)");
            let dp_q = col(&t, a * 4 + 3, "Dynamic Power (kW)");
            let drop = 1.0 - dp_q / dp_full;
            assert!((0.25..0.5).contains(&drop), "dynamic drop {drop} (paper 0.39)");
            // total power drop ~11%
            let p_full = col(&t, a * 4, "Total Power (kW)");
            let p_q = col(&t, a * 4 + 3, "Total Power (kW)");
            let total_drop = 1.0 - p_q / p_full;
            assert!((0.05..0.18).contains(&total_drop), "total drop {total_drop}");
        }
    }

    #[test]
    fn fig10_shape() {
        let t = fig10();
        // Row order follows HACC_ALGS: raycast, splat, points.
        // The paper's operative claims: the raycaster "improves only
        // slightly" going 200 -> 400 nodes, everything stays below ideal
        // 2x, and the 200-node power is ~half the 400-node power (so the
        // energy saving tracks the power saving).
        let ray_speedup = col(&t, 0, "Time (s)") / col(&t, 1, "Time (s)");
        assert!(
            (1.0..1.5).contains(&ray_speedup),
            "raycast should improve only slightly: {ray_speedup}"
        );
        for a in 0..3 {
            let speedup = col(&t, a * 2, "Time (s)") / col(&t, a * 2 + 1, "Time (s)");
            assert!(speedup < 2.0, "cannot beat ideal scaling: {speedup}");
            let p200 = col(&t, a * 2, "Power (kW)");
            let p400 = col(&t, a * 2 + 1, "Power (kW)");
            assert!(
                (0.4..0.6).contains(&(p200 / p400)),
                "200-node power should be ~half: {} vs {}",
                p200,
                p400
            );
        }
    }

    #[test]
    fn fig11_shape() {
        let t = fig11();
        let tight = col(&t, 0, "Time (s)");
        let intercore = col(&t, 1, "Time (s)");
        let internode = col(&t, 2, "Time (s)");
        assert!(intercore < tight && intercore < internode);
        let e_tight = col(&t, 0, "Energy (MJ)");
        let e_intercore = col(&t, 1, "Energy (MJ)");
        assert!(e_intercore < e_tight);
    }

    #[test]
    fn fig12_shape() {
        let t = fig12();
        let vtk = col(&t, 0, "Time (s)");
        let ray = col(&t, 1, "Time (s)");
        let ratio = vtk / ray;
        assert!((1.1..3.2).contains(&ratio), "vtk/ray {ratio} (paper 1.28)");
        // vtk's longer run costs more energy despite similar power
        assert!(col(&t, 0, "Energy (MJ)") > col(&t, 1, "Energy (MJ)"));
    }

    #[test]
    fn fig13_shape() {
        let t = fig13();
        let vtk_scale = col(&t, 2, "Normalized");
        let ray_scale = col(&t, 5, "Normalized");
        assert!(vtk_scale > ray_scale * 1.8, "vtk {vtk_scale} ray {ray_scale}");
        assert!((3.5..9.0).contains(&vtk_scale), "paper 5.8, got {vtk_scale}");
        assert!(ray_scale < 2.9, "paper 1.35, got {ray_scale}");
    }

    #[test]
    fn fig14_shape() {
        let t = fig14();
        for a in 0..2 {
            let p_full = col(&t, a * 4, "Total Power (kW)");
            let p_min = col(&t, a * 4 + 3, "Total Power (kW)");
            assert!(
                (p_full - p_min).abs() / p_full < 0.03,
                "xRAGE power should stay flat: {p_full} -> {p_min}"
            );
        }
        // …and for the vtk pipeline energy still falls with sampling
        let e_full = col(&t, 0, "Energy (MJ)");
        let e_min = col(&t, 3, "Energy (MJ)");
        assert!(e_min < e_full);
    }

    #[test]
    fn ext_split_shape() {
        let t = ext_split();
        // rows: 0.0625, 0.125, 0.25, 0.5, 0.75 — in the production regime
        // the small viz shares must beat the symmetric split, and the
        // symmetric split must beat giving viz the majority.
        let time = |row: usize| col(&t, row, "Time (s)");
        assert!(time(1) < time(3), "1/8 viz share should beat 1/2");
        assert!(time(3) < time(4), "1/2 should beat 3/4");
        // minimum is an interior small fraction, not an extreme
        let best = (0..5).min_by(|&a, &b| time(a).partial_cmp(&time(b)).unwrap()).unwrap();
        assert!((0..=2).contains(&best), "optimum at row {best}");
    }

    #[test]
    fn ablation_constants_do_what_they_claim() {
        let t = ext_ablation();
        // zero contention: no crossover by 216 nodes (vtk always wins)
        assert_eq!(t.cell(0, "Value"), Some(">216"));
        // default contention (scale 1.0x): crossover in the paper's window
        let default_crossover: u32 = t.cell(4, "Value").unwrap().parse().unwrap();
        assert!((32..=128).contains(&default_crossover));
        // steeper exponent -> bigger dynamic power drop
        let rows = t.len();
        let drop_02: f64 = t.cell_f64(rows - 3, "Value").unwrap();
        let drop_06: f64 = t.cell_f64(rows - 1, "Value").unwrap();
        assert!(drop_06 > drop_02);
    }

    #[test]
    fn fig15_shape() {
        let t = fig15();
        let rows_per_alg = 9;
        let perf = |alg: usize, row: usize| col(&t, alg * rows_per_alg + row, "Normalized Perf");
        // vtk (alg 0): wins at small scale, plateaus/degrades at large
        // raycast (alg 1): keeps improving through 216 nodes
        let ray216 = perf(1, 8);
        let ray64 = perf(1, 6);
        assert!(ray216 > ray64, "raycast should keep scaling");
        assert!(ray216 > 50.0, "raycast near-linear to 216: {ray216}");
        let vtk216 = perf(0, 8);
        let vtk_peak = (0..9).map(|r| perf(0, r)).fold(f64::MIN, f64::max);
        assert!(
            vtk216 < vtk_peak,
            "vtk must degrade from its peak: 216 gives {vtk216}, peak {vtk_peak}"
        );
        // crossover in the paper's neighbourhood: by 128 nodes raycast wins
        let t_vtk = |row: usize| col(&t, row, "Time (s)");
        let t_ray = |row: usize| col(&t, rows_per_alg + row, "Time (s)");
        assert!(t_vtk(0) < t_ray(0), "vtk wins at 1 node");
        assert!(t_vtk(7) > t_ray(7), "raycast wins at 128 nodes");
        assert!(t_vtk(8) > t_ray(8), "raycast wins at 216 nodes");
    }
}
