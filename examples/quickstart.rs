//! Quickstart: one in-situ experiment, end to end.
//!
//! Generates a HACC-like particle timestep, runs the tight-coupled
//! pipeline over 4 ranks with the raycasting backend, composites the ranks'
//! framebuffers, and writes a PPM artifact.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use eth::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let artifact_dir = std::env::temp_dir().join("eth-quickstart");

    // Describe one point in the design space.
    let spec = ExperimentSpec::builder("quickstart")
        .application(Application::Hacc { particles: 100_000 })
        .algorithm(Algorithm::RaycastSpheres)
        .coupling(Coupling::Tight)
        .ranks(4)
        .image_size(256, 256)
        .artifact_dir(artifact_dir.clone())
        .build()?;

    // Run it natively: real data, real renderers, real ranks.
    let outcome = harness::run_native(&spec)?;
    println!("{}", outcome.report());
    println!("artifacts in {}", artifact_dir.display());

    // And ask the cluster model what the same design point would cost at
    // paper scale (1B particles on 400 Hikari nodes).
    let at_scale = eth::cluster::experiment::ClusterExperiment::hacc(
        eth::cluster::costmodel::AlgorithmClass::RaycastSpheres,
        400,
        1_000_000_000,
    );
    let metrics = eth::cluster::experiment::run_cluster(&at_scale);
    println!(
        "at paper scale: {:.1} s, {:.1} kW, {:.0} kJ on {} nodes",
        metrics.exec_time_s, metrics.avg_power_kw, metrics.energy_kj, metrics.nodes
    );
    Ok(())
}
