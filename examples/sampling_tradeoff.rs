//! Sampling accuracy/energy trade-off (Table II / Figure 9 of the paper).
//!
//! Renders the same HACC data at sampling ratios {1.0, 0.75, 0.5, 0.25}
//! with all three particle algorithms, computes each sampled image's RMSE
//! against its own unsampled baseline (real pixels, the Table II metric),
//! and pairs it with the paper-scale energy saving from the cluster model.
//!
//! ```text
//! cargo run --release --example sampling_tradeoff
//! ```

use eth::core::config::{Algorithm, Application, ExperimentSpec};
use eth::cluster::experiment::{run_cluster, ClusterExperiment};
use eth::core::harness;
use eth::core::results::{fmt_pct, ResultTable};
use eth::render::Image;

fn render_at(alg: Algorithm, ratio: f64) -> Result<Image, Box<dyn std::error::Error>> {
    let spec = ExperimentSpec::builder(&format!("tradeoff-{}-{ratio}", alg.name()))
        .application(Application::Hacc { particles: 40_000 })
        .algorithm(alg)
        .ranks(2)
        .image_size(192, 192)
        .sampling_ratio(ratio)
        .build()?;
    Ok(harness::run_native(&spec)?.images.remove(0))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut table = ResultTable::new(
        "Table II shape: accuracy vs energy for HACC",
        &["Algorithm", "Sampling Ratio", "RMSE", "Energy Saved"],
    );
    use eth::cluster::costmodel::AlgorithmClass;
    let algs = [
        (Algorithm::RaycastSpheres, AlgorithmClass::RaycastSpheres),
        (Algorithm::GaussianSplat, AlgorithmClass::GaussianSplat),
        (Algorithm::VtkPoints, AlgorithmClass::VtkPoints),
    ];
    for (alg, class) in algs {
        let baseline_img = render_at(alg, 1.0)?;
        let baseline =
            run_cluster(&ClusterExperiment::hacc(class, 400, 1_000_000_000));
        for ratio in [0.75, 0.5, 0.25] {
            let img = render_at(alg, ratio)?;
            let rmse = img.rmse(&baseline_img)?;
            let m = run_cluster(
                &ClusterExperiment::hacc(class, 400, 1_000_000_000).with_sampling(ratio),
            );
            table.push_row(vec![
                alg.name().to_string(),
                format!("{ratio:.2}"),
                format!("{rmse:.3}"),
                fmt_pct(m.energy_saved_vs(&baseline)),
            ]);
        }
    }
    println!("{}", table.to_markdown());
    println!(
        "Expected shape (paper Table II): RMSE grows as the ratio falls, \
         energy saved grows with it, and the trade-off curves differ by \
         algorithm."
    );
    Ok(())
}
