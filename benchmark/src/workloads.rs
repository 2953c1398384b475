//! The four workloads, how one timed call runs, and the correctness gate.

use eth_core::config::{Algorithm, Application, Coupling, ExperimentSpec};
use eth_core::harness::{run_native_cached, NativeOutcome, RunCaches};
use eth_core::sweep::{Campaign, Sweep};
use eth_data::crc::crc32;
use eth_render::Image;
use std::path::Path;
use std::time::Instant;

/// `ranks = 2` everywhere: one rank thread per core of the 2-core host the
/// bounds were set on (paired couplings add their viz ranks by definition).
pub const RANKS: usize = 2;
const IMAGE_EDGE: usize = 512;
/// A frame with fewer lit pixels than this share is blank.
const BLANK_COVERAGE: f64 = 0.01;

pub struct Workload {
    pub name: &'static str,
    application: Application,
    algorithm: Algorithm,
    coupling: Coupling,
    /// Steps staged and rendered per design point. Kept short: staging,
    /// the cold call and the reference render are repeated by every child,
    /// so short step counts keep `setup_s` cheap enough to sample three
    /// times per run; the timed loop repeats the call instead, which
    /// measures the same per-frame work.
    steps: usize,
    /// Run as a 12-point `Sweep` through `Campaign::run_journaled`.
    campaign: bool,
}

pub fn all() -> [Workload; 4] {
    [
        // Render-bound: HLBVH build + packet traversal dominate the step
        // and nothing crosses a process boundary. eth-render gains show
        // here; codec and transport changes must show nothing.
        Workload {
            name: "hacc.raycast.tight",
            application: Application::Hacc {
                particles: 2_000_000,
            },
            algorithm: Algorithm::RaycastSpheres,
            coupling: Coupling::Tight,
            steps: 2,
            campaign: false,
        },
        // Movement-bound: ~76 MB encoded, sent over loopback sockets and
        // decoded per frame, then a cheap point raster. eth-data codec and
        // eth-transport gains show here, BVH changes must show nothing,
        // and it keeps the most copies of the data alive at once.
        Workload {
            name: "hacc.points.internode",
            application: Application::Hacc {
                particles: 2_000_000,
            },
            algorithm: Algorithm::VtkPoints,
            coupling: Coupling::Internode,
            steps: 2,
            campaign: false,
        },
        // The same layers used differently: dense 4-byte field blocks
        // through the codec, LocalComm instead of sockets, marching cubes
        // + triangle raster instead of BVH or point raster — so a
        // particle-path gain that costs the grid path is caught.
        Workload {
            name: "xrage.iso.intercore",
            application: Application::Xrage {
                dims: [192, 192, 192],
            },
            algorithm: Algorithm::VtkIsosurface,
            coupling: Coupling::Intercore,
            steps: 2,
            campaign: false,
        },
        // Many short runs: per-run fixed cost (thread spawn, socket
        // bootstrap, recorder drain, power attribution), the scheduler,
        // the staging cache, sampling and journal writes dominate; the
        // large-data layers do little. Harness, scheduler and journal
        // changes show here.
        Workload {
            name: "campaign.mixed",
            application: Application::Hacc { particles: 200_000 },
            algorithm: Algorithm::VtkPoints,
            coupling: Coupling::Tight,
            steps: 1,
            campaign: true,
        },
    ]
}

impl Workload {
    /// The design points one call runs: one spec, or the campaign's sweep
    /// of `particle_algorithms()` × {Tight, Internode} × {1.0, 0.25}.
    /// `quick` shrinks the data to a tenth for smoke runs.
    pub fn specs(&self, seed: u64, quick: bool) -> Result<Vec<ExperimentSpec>, String> {
        let application = match (&self.application, quick) {
            (Application::Hacc { particles }, true) => Application::Hacc {
                particles: particles / 10,
            },
            // a tenth of the vertices: edge × 10^(-1/3)
            (Application::Xrage { dims }, true) => Application::Xrage {
                dims: dims.map(|d| (d as f64 * 0.464).round() as usize),
            },
            (full, false) => full.clone(),
        };
        let base = ExperimentSpec::builder(self.name)
            .application(application)
            .algorithm(self.algorithm)
            .coupling(self.coupling)
            .ranks(RANKS)
            .steps(self.steps)
            .images_per_step(1)
            .image_size(IMAGE_EDGE, IMAGE_EDGE)
            .seed(seed)
            .build()
            .map_err(|e| e.to_string())?;
        if !self.campaign {
            return Ok(vec![base]);
        }
        Sweep::over(base)
            .algorithms(&Algorithm::particle_algorithms())
            .couplings(&[Coupling::Tight, Coupling::Internode])
            .sampling_ratios(&[1.0, 0.25])
            .specs()
            .map_err(|e| e.to_string())
    }

    /// One timed call into the public entry point. `scratch` receives the
    /// campaign's journal directory, fresh per call and removed after the
    /// clock stops.
    pub fn call(&self, specs: &[ExperimentSpec], caches: &RunCaches, scratch: &Path) -> Call {
        if !self.campaign {
            let t = Instant::now();
            let result = run_native_cached(&specs[0], caches);
            let wall_s = t.elapsed().as_secs_f64();
            return Call {
                wall_s,
                outcomes: vec![result.map_err(|e| e.to_string())],
            };
        }
        let dir = scratch.join(format!("journal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let t = Instant::now();
        let result = Campaign::new().run_journaled(specs, &RunCaches::new(), &dir);
        let wall_s = t.elapsed().as_secs_f64();
        let _ = std::fs::remove_dir_all(&dir);
        let outcomes = match result {
            Ok(campaign) => campaign
                .results
                .into_iter()
                .map(|r| r.map_err(|e| e.to_string()))
                .collect(),
            Err(e) => specs.iter().map(|_| Err(e.to_string())).collect(),
        };
        Call { wall_s, outcomes }
    }

    /// The cold first call plus the reference frames every later call is
    /// held to. A single-spec workload renders its spec once more under
    /// `Coupling::Tight`; a campaign's `Internode` points are held to
    /// their `Tight` siblings (same algorithm and ratio) of the cold call,
    /// and every later call to the cold call's frames.
    pub fn set_up(
        &self,
        specs: &[ExperimentSpec],
        caches: &RunCaches,
        scratch: &Path,
    ) -> (Call, Gate) {
        let cold = self.call(specs, caches, scratch);
        let expected = if self.campaign {
            specs
                .iter()
                .map(|s| {
                    let sibling = specs.iter().position(|t| {
                        t.coupling == Coupling::Tight
                            && t.algorithm == s.algorithm
                            && t.sampling_ratio == s.sampling_ratio
                    });
                    match sibling.map(|j| &cold.outcomes[j]) {
                        Some(Ok(reference)) => reference_frames(reference),
                        _ => Vec::new(),
                    }
                })
                .collect()
        } else {
            let mut tight = specs[0].clone();
            tight.coupling = Coupling::Tight;
            match run_native_cached(&tight, caches) {
                Ok(reference) => vec![reference_frames(&reference)],
                Err(_) => vec![Vec::new()],
            }
        };
        (cold, Gate { expected })
    }
}

/// Frames one call delivers: `steps × images_per_step`, summed over points.
pub fn frames_per_call(specs: &[ExperimentSpec]) -> u64 {
    specs
        .iter()
        .map(|s| (s.steps * s.images_per_step) as u64)
        .sum()
}

pub struct Call {
    pub wall_s: f64,
    /// One entry per spec, in spec order.
    pub outcomes: Vec<Result<NativeOutcome, String>>,
}

impl Call {
    pub fn frame_ms(&self, specs: &[ExperimentSpec]) -> f64 {
        self.wall_s * 1e3 / frames_per_call(specs) as f64
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReferenceFrame {
    pub crc: u32,
    pub blank: bool,
}

pub fn image_crc(image: &Image) -> u32 {
    let mut raw = Vec::with_capacity(image.pixels().len() * 12);
    for p in image.pixels() {
        raw.extend_from_slice(&p.x.to_le_bytes());
        raw.extend_from_slice(&p.y.to_le_bytes());
        raw.extend_from_slice(&p.z.to_le_bytes());
    }
    crc32(&raw)
}

fn reference_frames(reference: &NativeOutcome) -> Vec<ReferenceFrame> {
    reference
        .images
        .iter()
        .map(|image| ReferenceFrame {
            crc: image_crc(image),
            blank: image.coverage(0.0) < BLANK_COVERAGE,
        })
        .collect()
}

/// The correctness gate behind `failed`: per spec, the frames a call must
/// reproduce byte for byte.
pub struct Gate {
    pub expected: Vec<Vec<ReferenceFrame>>,
}

/// Frames checked and frames failed so far, with the first few reasons.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    pub fn fail(&mut self, frames: u64, why: String) {
        self.failed += frames;
        if self.notes.len() < 8 {
            self.notes.push(why);
        }
    }
}

impl Gate {
    /// A frame fails if its call returned `Err`, its run's `Degradation`
    /// is not clean, it is missing, its reference is blank, or its bytes
    /// differ from the reference.
    pub fn check(&self, specs: &[ExperimentSpec], call: &Call, tally: &mut Tally) {
        for ((spec, outcome), expected) in specs.iter().zip(&call.outcomes).zip(&self.expected) {
            let frames = (spec.steps * spec.images_per_step) as u64;
            tally.attempted += frames;
            let outcome = match outcome {
                Ok(outcome) => outcome,
                Err(e) => {
                    tally.fail(frames, format!("{}: {e}", spec.name));
                    continue;
                }
            };
            if !outcome.degradation.is_clean() {
                tally.fail(frames, format!("{}: {:?}", spec.name, outcome.degradation));
                continue;
            }
            for k in 0..frames as usize {
                let got = outcome.images.get(k).map(image_crc);
                match (got, expected.get(k)) {
                    (Some(crc), Some(want)) if crc == want.crc && !want.blank => {}
                    (Some(_), Some(want)) if want.blank => {
                        tally.fail(1, format!("{} frame {k}: blank reference", spec.name))
                    }
                    (Some(crc), Some(want)) => tally.fail(
                        1,
                        format!(
                            "{} frame {k}: crc {crc:08x} != reference {:08x}",
                            spec.name, want.crc
                        ),
                    ),
                    _ => tally.fail(1, format!("{} frame {k}: missing", spec.name)),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_is_twelve_points_and_singles_are_one() {
        for w in all() {
            let specs = w.specs(1, true).unwrap();
            assert_eq!(specs.len(), if w.campaign { 12 } else { 1 }, "{}", w.name);
            assert!(specs.iter().all(|s| s.ranks == RANKS && s.seed == 1));
        }
    }

    #[test]
    fn quick_is_a_tenth_of_the_data() {
        for w in all() {
            let full = w.specs(1, false).unwrap()[0].application.num_elements() as f64;
            let quick = w.specs(1, true).unwrap()[0].application.num_elements() as f64;
            assert!(
                (quick / full - 0.1).abs() < 0.01,
                "{}: {}",
                w.name,
                quick / full
            );
        }
    }
}
