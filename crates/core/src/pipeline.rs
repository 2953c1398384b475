//! The per-rank visualization pipeline.
//!
//! "ETH has easily configurable visualization operations … many operations
//! can be easily added to the pipelines tested" (Section III). A
//! [`VizPipeline`] is the operation chain one rank applies to each block of
//! data it receives across the in-situ interface: spatial sampling →
//! rendering → (the caller composites across ranks) → optional artifact.
//! The harness's step loop is its one driver: `viz_role` hands it each
//! block a simulation rank's `SimulationProxy::step` presented.

use crate::config::{orbit_camera, ExperimentSpec};
use crate::error::Result;
use eth_data::sampling::{sample_grid_field, sample_points};
use eth_data::{DataObject, Fields};
use eth_render::framebuffer::Framebuffer;
use eth_render::pipeline::{render_views, RenderOptions, RenderStats};
use eth_render::{Image, Scratch};
use std::borrow::Cow;
use std::path::PathBuf;

/// Per-step output of a pipeline.
#[derive(Debug, Clone)]
pub struct StepFrames {
    pub step: usize,
    /// One framebuffer per image of the step (rank-local; composite across
    /// ranks before viewing).
    pub frames: Vec<Framebuffer>,
    pub stats: RenderStats,
}

/// A configured visualization pipeline for one rank.
pub struct VizPipeline {
    spec: ExperimentSpec,
    options: RenderOptions,
}

impl VizPipeline {
    /// The pipeline every rank of `spec` runs: it colours by the
    /// application's field ([`crate::config::Application::default_scalar`]),
    /// so that field and the geometry are all it reads of a block
    /// ([`VizPipeline::reads`]) and all a block carries across the in-situ
    /// interface.
    pub fn new(spec: &ExperimentSpec) -> VizPipeline {
        let options = RenderOptions {
            scalar: Some(spec.application.default_scalar().to_string()),
            ..Default::default()
        };
        VizPipeline {
            spec: spec.clone(),
            options,
        }
    }

    /// Fix the transfer-function range (every rank of a step colours
    /// through the step's global range).
    pub fn with_range(mut self, range: Option<(f32, f32)>) -> VizPipeline {
        self.options.range = range;
        self
    }

    /// What this pipeline reads of a block: its geometry and the field it
    /// colours by ([`RenderOptions::reads`]). The harness encodes exactly
    /// this for a process boundary.
    pub fn reads(&self) -> Fields<'_> {
        self.options.reads()
    }

    /// Apply the sampling operator to a block. A sampled cloud carries
    /// only what the pipeline reads; which particles it keeps does not
    /// depend on that.
    pub fn sample(&self, data: &DataObject) -> Result<DataObject> {
        let sampling = self.spec.sampling()?;
        if sampling.is_identity() {
            return Ok(data.clone());
        }
        Ok(match data {
            DataObject::Points(cloud) => {
                DataObject::Points(sample_points(cloud, &sampling, self.reads())?)
            }
            DataObject::Grid(grid) => {
                let field = self.spec.application.default_scalar();
                DataObject::Grid(sample_grid_field(grid, field, &sampling, 0.0)?)
            }
        })
    }

    /// Run the full rank-local pipeline for one step: sample, then render
    /// every image of the step with the orbiting camera, in the buffers of
    /// the rank's `scratch` (the frames too, until the rank hands them back
    /// with [`Scratch::recycle`]).
    ///
    /// `global_bounds` must be the *global* data bounds so all ranks agree
    /// on the camera.
    pub fn execute_step(
        &self,
        step: usize,
        data: &DataObject,
        global_bounds: &eth_data::Aabb,
        scratch: &mut Scratch,
    ) -> Result<StepFrames> {
        // The identity sampling renders the block in place; only a real
        // reduction allocates.
        let sampled = if self.spec.sampling()?.is_identity() {
            Cow::Borrowed(data)
        } else {
            Cow::Owned(self.sample(data)?)
        };
        let algorithm = self
            .spec
            .algorithm
            .resolve(&self.spec.application, step, self.spec.seed);
        let cameras: Vec<_> = (0..self.spec.images_per_step)
            .map(|image_index| {
                orbit_camera(
                    global_bounds,
                    self.spec.width,
                    self.spec.height,
                    image_index,
                    self.spec.images_per_step,
                )
            })
            .collect();
        let mut opts = self.options.clone();
        // Fix the transfer-function range from the *unsampled* block so
        // sampling changes content, not color scale.
        if opts.range.is_none() {
            opts.range = scalar_range(data, opts.scalar.as_deref());
        }
        // one call for the step's images: what does not depend on the camera
        // (the raycaster's BVH) is built once per step
        let mut frames = Vec::with_capacity(cameras.len());
        let mut stats = RenderStats::default();
        for out in render_views(&sampled, &algorithm, &cameras, &opts, scratch)? {
            stats = accumulate(stats, out.stats);
            frames.push(out.framebuffer);
        }
        Ok(StepFrames {
            step,
            frames,
            stats,
        })
    }

    /// Write a composited image artifact (PNG, [`Image::to_png`]) for
    /// `(step, image)`.
    pub fn write_artifact(&self, step: usize, image_index: usize, image: &Image) -> Result<Option<PathBuf>> {
        let Some(dir) = &self.spec.artifact_dir else {
            return Ok(None);
        };
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!(
            "{}_step{:03}_img{:03}.png",
            self.spec.name, step, image_index
        ));
        std::fs::write(&path, image.to_png())?;
        Ok(Some(path))
    }
}

/// The finite min/max of a block's `scalar` field, if it has one with a
/// nonzero extent: the transfer-function range of a block (or, over a
/// step's whole dataset, of every rank's block).
pub(crate) fn scalar_range(data: &DataObject, scalar: Option<&str>) -> Option<(f32, f32)> {
    let name = scalar?;
    let values = match data {
        DataObject::Points(p) => p.scalar(name).ok()?,
        DataObject::Grid(g) => g.scalar(name).ok()?,
    };
    let mut lo = f32::INFINITY;
    let mut hi = f32::NEG_INFINITY;
    for &v in values {
        if v.is_finite() {
            lo = lo.min(v);
            hi = hi.max(v);
        }
    }
    (lo.is_finite() && hi > lo).then_some((lo, hi))
}

/// Sum two stats records (per-step accumulation).
pub fn accumulate(mut a: RenderStats, b: RenderStats) -> RenderStats {
    a.elements = a.elements.max(b.elements);
    a.build_ops += b.build_ops;
    a.triangles += b.triangles;
    a.rays += b.rays;
    a.ray_steps += b.ray_steps;
    a.fragments += b.fragments;
    a.tiles += b.tiles;
    a.build_time += b.build_time;
    a.render_time += b.render_time;
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Algorithm, Application, ExperimentSpec};

    fn spec() -> ExperimentSpec {
        ExperimentSpec::builder("pipe")
            .application(Application::Hacc { particles: 2_000 })
            .algorithm(Algorithm::GaussianSplat)
            .image_size(48, 48)
            .images_per_step(2)
            .build()
            .unwrap()
    }

    #[test]
    fn pipeline_renders_frames() {
        let s = spec();
        let pipe = VizPipeline::new(&s);
        let data = s.application.generate(0, s.seed).unwrap();
        let out = pipe
            .execute_step(0, &data, &data.bounds(), &mut Scratch::new())
            .unwrap();
        assert_eq!(out.frames.len(), 2);
        assert!(out.frames[0].fragments_landed() > 10);
        // orbiting camera: the two images differ
        assert_ne!(out.frames[0], out.frames[1]);
        assert!(out.stats.fragments > 0);
    }

    #[test]
    fn raycast_step_builds_its_bvh_once() {
        let s = ExperimentSpec::builder("bvh-once")
            .application(Application::Hacc { particles: 2_000 })
            .algorithm(Algorithm::RaycastSpheres)
            .image_size(48, 48)
            .images_per_step(3)
            .build()
            .unwrap();
        let pipe = VizPipeline::new(&s);
        let data = s.application.generate(0, s.seed).unwrap();
        let bounds = data.bounds();
        let out = pipe
            .execute_step(0, &data, &bounds, &mut Scratch::new())
            .unwrap();
        assert_eq!(out.frames.len(), 3);

        // each frame is the frame a render of its own makes; the step is
        // charged the build of one of them
        let algorithm = s.algorithm.resolve(&s.application, 0, s.seed);
        let mut opts = pipe.options.clone();
        opts.range = scalar_range(&data, opts.scalar.as_deref());
        for (image_index, frame) in out.frames.iter().enumerate() {
            let camera = orbit_camera(&bounds, 48, 48, image_index, 3);
            let alone = eth_render::pipeline::render(&data, &algorithm, &camera, &opts).unwrap();
            assert!(*frame == alone.framebuffer, "image {image_index} differs");
            assert!(alone.stats.build_ops > 0);
            assert_eq!(out.stats.build_ops, alone.stats.build_ops);
        }
    }

    #[test]
    fn sampling_reduces_content() {
        let mut s = spec();
        s.sampling_ratio = 0.25;
        let pipe = VizPipeline::new(&s);
        let data = s.application.generate(0, s.seed).unwrap();
        let sampled = pipe.sample(&data).unwrap();
        assert_eq!(sampled.num_elements(), 500);
        // a sampled cloud carries what the pipeline reads, nothing more
        let names: Vec<_> = sampled.as_points().unwrap().attributes().names().collect();
        assert_eq!(names, ["density"]);
    }

    #[test]
    fn grid_sampling_keeps_topology() {
        let s = ExperimentSpec::builder("grid")
            .application(Application::Xrage { dims: [12, 12, 12] })
            .algorithm(Algorithm::RaycastSlice)
            .sampling_ratio(0.5)
            .build()
            .unwrap();
        let pipe = VizPipeline::new(&s);
        let data = s.application.generate(0, s.seed).unwrap();
        let sampled = pipe.sample(&data).unwrap();
        assert_eq!(sampled.num_elements(), data.num_elements());
    }

    #[test]
    fn artifacts_written_when_dir_set() {
        let dir = std::env::temp_dir().join("eth-core-artifact-test");
        let _ = std::fs::remove_dir_all(&dir);
        let mut s = spec();
        s.artifact_dir = Some(dir.clone());
        let pipe = VizPipeline::new(&s);
        let img = Image::filled(8, 8, eth_data::Vec3::splat(0.5));
        let path = pipe.write_artifact(0, 1, &img).unwrap().unwrap();
        assert!(path.exists());
        let none_spec = spec();
        let none_pipe = VizPipeline::new(&none_spec);
        assert!(none_pipe.write_artifact(0, 0, &img).unwrap().is_none());
        std::fs::remove_dir_all(&dir).ok();
    }
}
