//! Cross-crate integration tests: full native experiments through every
//! coupling and backend, the preliminary-run replay path, and artifacts.

use eth::core::config::{Algorithm, Application, Coupling, ExperimentSpec};
use eth::core::harness::run_native;
use eth::data::partition::partition_points;
use eth::data::DataObject;
use eth::sim::timeseries::TimeSeries;
use eth::sim::{HaccConfig, SimulationProxy};

fn hacc_spec(name: &str, alg: Algorithm, coupling: Coupling) -> ExperimentSpec {
    ExperimentSpec::builder(name)
        .application(Application::Hacc { particles: 4_000 })
        .algorithm(alg)
        .coupling(coupling)
        .ranks(2)
        .steps(2)
        .image_size(48, 48)
        .build()
        .unwrap()
}

fn xrage_spec(name: &str, alg: Algorithm, coupling: Coupling) -> ExperimentSpec {
    ExperimentSpec::builder(name)
        .application(Application::Xrage { dims: [18, 14, 12] })
        .algorithm(alg)
        .coupling(coupling)
        .ranks(2)
        .image_size(48, 48)
        .build()
        .unwrap()
}

#[test]
fn every_particle_backend_runs_under_every_coupling() {
    for alg in Algorithm::particle_algorithms() {
        let mut reference: Option<eth::render::Image> = None;
        for coupling in Coupling::all() {
            let spec = hacc_spec(
                &format!("e2e-{}-{}", alg.name(), coupling.name()),
                alg,
                coupling,
            );
            let out = run_native(&spec).unwrap();
            assert_eq!(out.images.len(), 2, "{} {}", alg.name(), coupling.name());
            assert!(
                out.images[0].coverage(0.01) > 0.001,
                "{} {} drew nothing",
                alg.name(),
                coupling.name()
            );
            // Couplings are execution strategies, not visual choices: the
            // images must be identical across couplings.
            match &reference {
                None => reference = Some(out.images[0].clone()),
                Some(r) => {
                    let rmse = out.images[0].rmse(r).unwrap();
                    assert!(
                        rmse < 1e-6,
                        "{} under {} changed the image: {rmse}",
                        alg.name(),
                        coupling.name()
                    );
                }
            }
        }
    }
}

#[test]
fn every_grid_backend_runs_under_every_coupling() {
    for alg in [
        Algorithm::VtkIsosurface,
        Algorithm::RaycastIsosurface,
        Algorithm::VtkSlice,
        Algorithm::RaycastSlice,
    ] {
        let mut reference: Option<eth::render::Image> = None;
        for coupling in Coupling::all() {
            let spec = xrage_spec(
                &format!("e2e-{}-{}", alg.name(), coupling.name()),
                alg,
                coupling,
            );
            let out = run_native(&spec).unwrap();
            assert_eq!(out.images.len(), 1);
            match &reference {
                None => reference = Some(out.images[0].clone()),
                Some(r) => {
                    let rmse = out.images[0].rmse(r).unwrap();
                    assert!(rmse < 1e-6, "{} under {}: {rmse}", alg.name(), coupling.name());
                }
            }
        }
    }
}

#[test]
fn isosurface_backends_agree_on_the_picture() {
    // The central comparability property of the harness: the two pipelines
    // draw the same surface.
    let vtk = run_native(&xrage_spec("agree-vtk", Algorithm::VtkIsosurface, Coupling::Tight))
        .unwrap();
    let ray = run_native(&xrage_spec(
        "agree-ray",
        Algorithm::RaycastIsosurface,
        Coupling::Tight,
    ))
    .unwrap();
    let rmse = vtk.images[0].rmse(&ray.images[0]).unwrap();
    assert!(rmse < 0.1, "backends disagree: rmse {rmse}");
}

#[test]
fn slice_backends_agree_on_the_picture() {
    let vtk = run_native(&xrage_spec("sagree-vtk", Algorithm::VtkSlice, Coupling::Tight))
        .unwrap();
    let ray = run_native(&xrage_spec(
        "sagree-ray",
        Algorithm::RaycastSlice,
        Coupling::Tight,
    ))
    .unwrap();
    let rmse = vtk.images[0].rmse(&ray.images[0]).unwrap();
    assert!(rmse < 0.12, "slice backends disagree: rmse {rmse}");
}

#[test]
fn preliminary_run_replay_reaches_the_same_particles() {
    let dir = std::env::temp_dir().join("eth-e2e-replay");
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = HaccConfig::with_particles(2_000);
    let ranks = 3;
    let steps = 2;
    let w = TimeSeries::create(&dir, "e2e", ranks, steps).unwrap();
    for step in 0..steps {
        let cloud = cfg.generate(step).unwrap();
        for (rank, part) in partition_points(&cloud, ranks).unwrap().into_iter().enumerate() {
            w.insert(step, rank, DataObject::Points(part)).unwrap();
        }
    }
    w.close().unwrap();
    let mut total = 0;
    for rank in 0..ranks {
        let mut proxy = SimulationProxy::from_disk(&dir, rank).unwrap();
        for step in 0..proxy.num_timesteps() {
            let block = proxy.step(step).unwrap().expect("every block was recorded");
            total += block.num_elements();
        }
    }
    assert_eq!(total, 2_000 * steps);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn artifacts_land_on_disk() {
    let dir = std::env::temp_dir().join("eth-e2e-artifacts");
    let _ = std::fs::remove_dir_all(&dir);
    let mut spec = hacc_spec("artifact", Algorithm::VtkPoints, Coupling::Tight);
    spec.artifact_dir = Some(dir.clone());
    let out = run_native(&spec).unwrap();
    assert_eq!(out.images.len(), 2);
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|f| f.unwrap().path())
        .collect();
    files.sort();
    let names: Vec<_> = files.iter().map(|p| p.file_name().unwrap().to_owned()).collect();
    assert_eq!(names, ["artifact_step000_img000.png", "artifact_step001_img000.png"]);
    // each artifact is the PNG encoding of its in-memory image, byte for byte
    for (path, image) in files.iter().zip(&out.images) {
        assert!(std::fs::read(path).unwrap() == image.to_png(), "{}", path.display());
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn more_ranks_same_image() {
    // Rank count is an execution detail; sort-last compositing must hide it.
    let r2 = run_native(&hacc_spec("ranks2", Algorithm::RaycastSpheres, Coupling::Tight))
        .unwrap();
    let mut spec4 = hacc_spec("ranks4", Algorithm::RaycastSpheres, Coupling::Tight);
    spec4.ranks = 4;
    let r4 = run_native(&spec4).unwrap();
    let rmse = r2.images[0].rmse(&r4.images[0]).unwrap();
    assert!(rmse < 0.02, "rank count changed the image: {rmse}");
}

#[test]
fn sampling_degrades_gracefully() {
    // RMSE vs the unsampled baseline grows monotonically as ratio falls.
    let baseline = run_native(&hacc_spec("samp-base", Algorithm::VtkPoints, Coupling::Tight))
        .unwrap();
    let mut last = 0.0;
    for ratio in [0.75, 0.5, 0.25] {
        let mut spec = hacc_spec("samp", Algorithm::VtkPoints, Coupling::Tight);
        spec.sampling_ratio = ratio;
        let out = run_native(&spec).unwrap();
        let rmse = out.images[0].rmse(&baseline.images[0]).unwrap();
        assert!(
            rmse >= last,
            "RMSE should not shrink as sampling gets more aggressive: \
             ratio {ratio} gave {rmse} after {last}"
        );
        last = rmse;
    }
    assert!(last > 0.0);
}
