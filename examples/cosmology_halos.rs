//! The HACC workflow (Section IV-A of the paper).
//!
//! 1. A "preliminary run": the halo-clustered particle generator writes
//!    per-timestep, per-rank blocks to disk — the recorded data a real
//!    simulation would have produced.
//! 2. The simulation proxy replays the recording into the in-situ
//!    interface, and all three particle algorithms render it.
//! 3. The same design points are evaluated at paper scale on the cluster
//!    model (Table I shape: splat < points < raycast, power ~flat).
//!
//! ```text
//! cargo run --release --example cosmology_halos
//! ```

use eth::core::config::{Algorithm, Application, ExperimentSpec};
use eth::cluster::experiment::{run_cluster, ClusterExperiment};
use eth::core::harness;
use eth::core::results::{fmt_kw, fmt_s, ResultTable};
use eth::data::partition::partition_points;
use eth::data::DataObject;
use eth::sim::interface::CountingSink;
use eth::sim::timeseries::TimeSeries;
use eth::sim::{HaccConfig, SimulationProxy};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let ranks = 4;
    let steps = 3;
    let particles = 60_000;

    // --- 1. preliminary run -------------------------------------------
    let recording = std::env::temp_dir().join("eth-cosmology-recording");
    let _ = std::fs::remove_dir_all(&recording);
    let hacc = HaccConfig::with_particles(particles);
    let writer = TimeSeries::create(&recording, "hacc-demo", ranks, steps)?;
    for step in 0..steps {
        let cloud = hacc.generate(step)?;
        for (rank, block) in partition_points(&cloud, ranks)?.into_iter().enumerate() {
            writer.insert(step, rank, DataObject::Points(block))?;
        }
    }
    let manifest = writer.close()?;
    println!(
        "recorded '{}': {} steps x {} ranks of {} data",
        manifest.name, manifest.num_steps, manifest.num_ranks, manifest.kind
    );

    // --- 2. replay through the proxy ----------------------------------
    let mut replay_elements = 0;
    for rank in 0..ranks {
        let mut proxy = SimulationProxy::from_disk(&recording, rank)?;
        let mut sink = CountingSink::default();
        proxy.run(&mut sink)?;
        replay_elements += sink.elements;
    }
    println!(
        "proxy replay presented {replay_elements} particles across {ranks} ranks"
    );

    // --- 3. render with all three particle algorithms -----------------
    let mut native = ResultTable::new(
        "HACC native renders (this machine)",
        &["Algorithm", "Viz time (s)", "Fragments", "Coverage"],
    );
    for alg in Algorithm::particle_algorithms() {
        let spec = ExperimentSpec::builder(&format!("halos-{}", alg.name()))
            .application(Application::Hacc { particles })
            .algorithm(alg)
            .ranks(ranks)
            .image_size(256, 256)
            .build()?;
        let out = harness::run_native(&spec)?;
        native.push_row(vec![
            alg.name().to_string(),
            format!("{:.3}", out.phases.viz_s),
            out.stats.fragments.to_string(),
            format!("{:.3}", out.images[0].coverage(0.02)),
        ]);
    }
    println!("\n{}", native.to_markdown());

    // --- 4. the same comparison at paper scale (Table I shape) --------
    let mut table1 = ResultTable::new(
        "HACC at paper scale (1B particles, 400 nodes) — Table I shape",
        &["Algorithm", "Time (s)", "Power (kW)"],
    );
    use eth::cluster::costmodel::AlgorithmClass;
    for alg in [
        AlgorithmClass::RaycastSpheres,
        AlgorithmClass::GaussianSplat,
        AlgorithmClass::VtkPoints,
    ] {
        let m = run_cluster(&ClusterExperiment::hacc(alg, 400, 1_000_000_000));
        table1.push_row(vec![
            alg.name().to_string(),
            fmt_s(m.exec_time_s),
            fmt_kw(m.avg_power_kw),
        ]);
    }
    println!("{}", table1.to_markdown());

    std::fs::remove_dir_all(&recording).ok();
    Ok(())
}
