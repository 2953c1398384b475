//! Coupling-strategy exploration (Figure 11 / Finding 6 of the paper).
//!
//! Runs the same HACC design point under all three couplings — tight,
//! intercore, internode — first natively (real ranks, real sockets for
//! internode, via the layout-file bootstrap), then at paper scale on the
//! cluster model, where the Finding 6 surprise appears: proximity does not
//! equal optimality, intercore wins.
//!
//! ```text
//! cargo run --release --example coupling_sweep
//! ```

use eth::core::config::{Application, Coupling, ExperimentSpec};
use eth::cluster::experiment::{run_cluster, ClusterExperiment};
use eth::core::harness;
use eth::core::results::{fmt_s, ResultTable};
use eth::core::sweep::Sweep;
use eth::cluster::costmodel::AlgorithmClass;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- native sweep ---------------------------------------------------
    let base = ExperimentSpec::builder("coupling")
        .application(Application::Hacc { particles: 30_000 })
        .ranks(3)
        .steps(2)
        .image_size(128, 128)
        .build()?;
    let specs = Sweep::over(base).couplings(&Coupling::all()).specs()?;

    let mut native = ResultTable::new(
        "Coupling strategies (native, identical images required)",
        &["Coupling", "Wall (s)", "Transfer (s)", "Bytes moved", "RMSE vs tight"],
    );
    let mut reference = None;
    for spec in specs {
        let out = harness::run_native(&spec)?;
        let rmse = match &reference {
            None => {
                reference = Some(out.images[0].clone());
                0.0
            }
            Some(r) => out.images[0].rmse(r)?,
        };
        native.push_row(vec![
            spec.coupling.name().to_string(),
            format!("{:.3}", out.wall_s),
            format!("{:.4}", out.phases.transfer_s),
            out.bytes_moved.to_string(),
            format!("{rmse:.6}"),
        ]);
    }
    println!("{}", native.to_markdown());

    // --- paper scale (Figure 11) ----------------------------------------
    let mut fig11 = ResultTable::new(
        "Figure 11 shape: coupling strategies at paper scale \
         (HACC 1B + light simulation, 400 nodes)",
        &["Coupling", "Time (s)", "Energy (MJ)"],
    );
    for coupling in Coupling::all() {
        let exp = ClusterExperiment::hacc(AlgorithmClass::RaycastSpheres, 400, 1_000_000_000)
            .with_coupling(coupling)
            .with_steps(4)
            .with_sim_ops(300_000.0);
        let m = run_cluster(&exp);
        fig11.push_row(vec![
            coupling.name().to_string(),
            fmt_s(m.exec_time_s),
            format!("{:.2}", m.energy_kj / 1000.0),
        ]);
    }
    println!("{}", fig11.to_markdown());
    println!(
        "Finding 6: the intercore row should win both columns — proximity \
         (tight) is not optimal, and neither is spreading out (internode)."
    );
    Ok(())
}
