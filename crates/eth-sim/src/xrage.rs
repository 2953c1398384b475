//! xRAGE-like asteroid-impact volumetric data.
//!
//! The paper's grid workload is an xRAGE asteroid-impact run whose
//! visualized quantity is temperature near the strike (Section IV-A). We
//! cannot have xRAGE outputs; this generator produces a structurally
//! equivalent field (substitution documented in DESIGN.md):
//!
//! * a Sedov–Taylor-flavored expanding blast front — a hot shell whose
//!   radius grows as `t^0.4` with a hot interior and an ambient exterior,
//! * multiplicative turbulence built from incommensurate sine modes so
//!   slices and isosurfaces are not trivially smooth,
//! * generated through the AMR → structured downsampling path
//!   ([`crate::amr`]) the paper describes, so the structured grids carry
//!   realistic resampling structure.

use crate::amr::{AmrTree, RefinePolicy};
use eth_data::error::Result;
use eth_data::{Aabb, UniformGrid, Vec3};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Configuration for the xRAGE-like generator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct XrageConfig {
    /// Output structured-grid dimensions (the downsampled grid the paper
    /// hands to visualization; e.g. small 610x375x320 scaled down).
    pub dims: [usize; 3],
    /// Domain edge length.
    pub domain_size: f32,
    /// Impact point (defaults to slightly off-center, like an ocean strike).
    pub impact: Vec3,
    /// Ambient temperature.
    pub ambient: f32,
    /// Peak blast temperature at t=0 front.
    pub peak: f32,
    /// Blast expansion speed scale.
    pub expansion: f32,
    /// Turbulence amplitude in [0, 1].
    pub turbulence: f32,
    /// AMR refinement depth used before downsampling.
    pub amr_depth: u8,
    /// Seed folded into the turbulence phases.
    pub seed: u64,
}

impl Default for XrageConfig {
    fn default() -> Self {
        XrageConfig {
            dims: [64, 40, 32],
            domain_size: 2.0,
            impact: Vec3::new(0.9, 1.1, 0.6),
            ambient: 300.0,
            peak: 8000.0,
            expansion: 0.35,
            turbulence: 0.25,
            amr_depth: 6,
            seed: 42,
        }
    }
}

impl XrageConfig {
    /// Convenience: default config at the given grid dims.
    pub fn with_dims(dims: [usize; 3]) -> XrageConfig {
        XrageConfig {
            dims,
            ..Default::default()
        }
    }

    pub fn domain(&self) -> Aabb {
        Aabb::new(Vec3::ZERO, Vec3::splat(self.domain_size))
    }

    /// Analytic temperature field at simulation time `t` (arbitrary units;
    /// timestep i maps to `t = 0.2 + 0.1 i`).
    pub fn temperature(&self, p: Vec3, t: f32) -> f32 {
        let blast = self.blast(t);
        let modes = blast.mode_x(p.x) * blast.mode_y(p.y) * blast.mode_z(p.z);
        blast.at((p - self.impact).length_squared(), modes)
    }

    fn blast(&self, t: f32) -> Blast<'_> {
        // Sedov-Taylor-ish front radius and thickness
        let front = self.expansion * t.max(1e-3).powf(0.4);
        Blast {
            cfg: self,
            front,
            width: 0.12 * front + 0.02,
            // blast decays as it expands (energy conservation proxy)
            decay: 1.0 / (1.0 + 2.5 * t),
            phase: (self.seed % 1024) as f32 * 0.01,
        }
    }

    /// [`XrageConfig::temperature`] at every vertex of `grid`, one k-plane
    /// per work item. The factors that depend on one coordinate — the three
    /// turbulence modes and the squared offsets from the impact — are
    /// evaluated once per axis sample, and each vertex combines them in
    /// `temperature`'s own order, `(dx² + dy²) + dz²` and `(sx·cy)·sz`: a
    /// value is a pure function of `(i, j, k)`, bit-identical to
    /// `temperature(grid.vertex_position(i, j, k), t)` on any thread count.
    fn temperature_at_vertices(&self, grid: &UniformGrid, t: f32) -> Vec<f32> {
        let blast = self.blast(t);
        let [nx, ny, nz] = grid.dims();
        let (origin, spacing) = (grid.origin(), grid.spacing());
        let axis = |a: usize, n: usize, mode: &dyn Fn(f32) -> f32| -> Vec<(f32, f32)> {
            (0..n)
                .map(|i| {
                    // `vertex_position`'s coordinate on this axis
                    let c = origin[a] + i as f32 * spacing[a];
                    let d = c - self.impact[a];
                    (d * d, mode(c))
                })
                .collect()
        };
        let xs = axis(0, nx, &|x| blast.mode_x(x));
        let ys = axis(1, ny, &|y| blast.mode_y(y));
        let zs = axis(2, nz, &|z| blast.mode_z(z));
        let mut out = vec![0.0f32; grid.num_vertices()];
        out.par_chunks_mut(nx * ny)
            .zip(zs.into_par_iter())
            .for_each(|(plane, (dz2, sz))| {
                for (row, &(dy2, cy)) in plane.chunks_exact_mut(nx).zip(&ys) {
                    for (v, &(dx2, sx)) in row.iter_mut().zip(&xs) {
                        *v = blast.at(dx2 + dy2 + dz2, sx * cy * sz);
                    }
                }
            });
        out
    }

    /// Generate the structured temperature grid for `timestep`, through the
    /// AMR → downsample path.
    pub fn generate(&self, timestep: usize) -> Result<UniformGrid> {
        let t = 0.2 + 0.1 * timestep as f32;
        let field = move |p: Vec3| self.temperature(p, t);
        let tree = AmrTree::build(
            self.domain(),
            RefinePolicy::new(self.amr_depth, 0.05 * self.peak),
            &field,
        )?;
        let mut grid = tree.resample(self.dims, "temperature")?;
        // Also attach the analytic field evaluated directly at vertices as
        // "temperature_exact" — tests use it to bound resampling error. It
        // stays in the series (and in spills and files); a block crosses a
        // process boundary with only the field its pipeline reads, so this
        // one crosses only for a pipeline that colours by it.
        let exact = self.temperature_at_vertices(&grid, t);
        grid.set_attribute(
            "temperature_exact",
            eth_data::field::Attribute::Scalar(exact.into()),
        )?;
        Ok(grid)
    }

    /// Generate the *unstructured* intermediate representation for
    /// `timestep` — the paper's AMR → unstructured conversion stage
    /// (Section IV-A), exposed for the Section VII extension.
    pub fn generate_unstructured(
        &self,
        timestep: usize,
    ) -> Result<eth_data::UnstructuredGrid> {
        let t = 0.2 + 0.1 * timestep as f32;
        let field = move |p: Vec3| self.temperature(p, t);
        let tree = AmrTree::build(
            self.domain(),
            RefinePolicy::new(self.amr_depth, 0.05 * self.peak),
            &field,
        )?;
        tree.to_unstructured("temperature")
    }

    /// A sensible isovalue for the blast front at `timestep` — halfway up
    /// the shell peak. The paper's runs use "a varying isovalue".
    pub fn front_isovalue(&self, timestep: usize) -> f32 {
        let t = 0.2 + 0.1 * timestep as f32;
        let decay = 1.0 / (1.0 + 2.5 * t);
        self.ambient + 0.4 * self.peak * decay
    }
}

/// What [`XrageConfig::temperature`] holds fixed at one time `t`, and the
/// pieces it is built from.
struct Blast<'a> {
    cfg: &'a XrageConfig,
    front: f32,
    width: f32,
    decay: f32,
    /// The seed's phase shift of the turbulence modes.
    phase: f32,
}

impl Blast<'_> {
    // deterministic multi-mode turbulence, one mode per axis
    fn mode_x(&self, x: f32) -> f32 {
        (7.3 * x + self.phase).sin()
    }

    fn mode_y(&self, y: f32) -> f32 {
        (5.1 * y - 2.0 * self.phase).cos()
    }

    fn mode_z(&self, z: f32) -> f32 {
        (6.7 * z + 0.5 * self.phase).sin()
    }

    /// Temperature at squared distance `r2` from the impact, where the
    /// three turbulence modes multiply to `modes`.
    #[inline]
    fn at(&self, r2: f32, modes: f32) -> f32 {
        let r = r2.sqrt();
        // hot shell at the front + decaying hot core behind it
        let shell = (-((r - self.front) / self.width).powi(2)).exp();
        let core = if r < self.front {
            0.6 * (1.0 - r / self.front.max(1e-6))
        } else {
            0.0
        };
        let turb = 1.0 + self.cfg.turbulence * modes;
        self.cfg.ambient + self.cfg.peak * self.decay * (shell + core) * turb.max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eth_data::field::Attribute;
    use eth_data::stats::{Histogram, Summary};
    use proptest::prelude::*;

    /// `temperature` before its pieces were shared with the vertex kernel.
    fn reference_temperature(cfg: &XrageConfig, p: Vec3, t: f32) -> f32 {
        let r = (p - cfg.impact).length();
        let front = cfg.expansion * t.max(1e-3).powf(0.4);
        let width = 0.12 * front + 0.02;
        let shell = (-((r - front) / width).powi(2)).exp();
        let core = if r < front {
            0.6 * (1.0 - r / front.max(1e-6))
        } else {
            0.0
        };
        let s = (cfg.seed % 1024) as f32 * 0.01;
        let turb = 1.0
            + cfg.turbulence
                * ((7.3 * p.x + s).sin()
                    * (5.1 * p.y - 2.0 * s).cos()
                    * (6.7 * p.z + 0.5 * s).sin());
        let decay = 1.0 / (1.0 + 2.5 * t);
        cfg.ambient + cfg.peak * decay * (shell + core) * turb.max(0.0)
    }

    /// `generate` before the staging kernels: the AMR path through the
    /// reference resample, then the exact field vertex by vertex.
    fn reference_generate(cfg: &XrageConfig, timestep: usize) -> UniformGrid {
        let t = 0.2 + 0.1 * timestep as f32;
        let field = move |p: Vec3| reference_temperature(cfg, p, t);
        let tree = AmrTree::build(
            cfg.domain(),
            RefinePolicy::new(cfg.amr_depth, 0.05 * cfg.peak),
            &field,
        )
        .unwrap();
        let mut grid = tree.reference_resample(cfg.dims, "temperature").unwrap();
        let mut exact = Vec::with_capacity(grid.num_vertices());
        for idx in 0..grid.num_vertices() {
            let (i, j, k) = grid.vertex_coords(idx);
            exact.push(field(grid.vertex_position(i, j, k)));
        }
        grid.set_attribute("temperature_exact", Attribute::Scalar(exact.into()))
            .unwrap();
        grid
    }

    fn at_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
            .install(f)
    }

    /// Both fields of `generate(step)` against the reference, by bits, at
    /// one and two threads.
    fn assert_generate_matches(
        cfg: &XrageConfig,
        step: usize,
    ) -> std::result::Result<(), TestCaseError> {
        let want = reference_generate(cfg, step);
        for threads in [1, 2] {
            let got = at_threads(threads, || cfg.generate(step)).unwrap();
            prop_assert_eq!(
                (got.dims(), got.origin(), got.spacing()),
                (want.dims(), want.origin(), want.spacing())
            );
            for name in ["temperature", "temperature_exact"] {
                let bits = |g: &UniformGrid| -> Vec<u32> {
                    g.scalar(name)
                        .unwrap()
                        .iter()
                        .map(|v| v.to_bits())
                        .collect()
                };
                prop_assert!(
                    bits(&got) == bits(&want),
                    "{name} differs at {threads} threads for {cfg:?}, step {step}"
                );
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        #[test]
        fn generate_matches_reference_bit_for_bit(
            (nx, ny, nz) in (1usize..41, 1usize..41, 1usize..41),
            (seed, step, amr_depth, domain_size) in (0u64..5000, 0usize..12, 1u8..5, 0.5f32..4.0),
            (ix, iy, iz, turbulence) in (-0.5f32..2.5, -0.5f32..2.5, -0.5f32..2.5, 0.0f32..1.0),
        ) {
            let cfg = XrageConfig {
                dims: [nx, ny, nz],
                domain_size,
                impact: Vec3::new(ix, iy, iz),
                turbulence,
                amr_depth,
                seed,
                ..Default::default()
            };
            assert_generate_matches(&cfg, step)?;
        }

        #[test]
        fn temperature_matches_reference_bit_for_bit(
            (x, y, z) in (-1.0f32..3.0, -1.0f32..3.0, -1.0f32..3.0),
            (seed, t, turbulence) in (0u64..5000, 0.0f32..2.0, 0.0f32..1.0),
        ) {
            let cfg = XrageConfig { seed, turbulence, ..Default::default() };
            let p = Vec3::new(x, y, z);
            prop_assert_eq!(
                cfg.temperature(p, t).to_bits(),
                reference_temperature(&cfg, p, t).to_bits()
            );
        }
    }

    #[test]
    fn default_depth_generate_matches_reference() {
        // the AMR depth and a grid shape the proptest does not reach
        let cfg = XrageConfig::with_dims([40, 33, 27]);
        for step in [0, 1] {
            assert_generate_matches(&cfg, step).unwrap();
        }
    }

    #[test]
    fn grid_has_requested_shape() {
        let cfg = XrageConfig::with_dims([24, 20, 16]);
        let g = cfg.generate(0).unwrap();
        assert_eq!(g.dims(), [24, 20, 16]);
        assert!(g.scalar("temperature").is_ok());
        assert!(g.scalar("temperature_exact").is_ok());
    }

    #[test]
    fn field_is_hot_near_impact_and_ambient_far_away() {
        let cfg = XrageConfig::default();
        let t_impact = cfg.temperature(cfg.impact, 0.2);
        let far = Vec3::splat(0.01);
        let t_far = cfg.temperature(far, 0.2);
        assert!(t_impact > cfg.ambient * 3.0, "impact temp {t_impact}");
        assert!(
            (t_far - cfg.ambient).abs() < cfg.ambient,
            "far temp {t_far} should be near ambient"
        );
    }

    #[test]
    fn blast_front_expands_with_time() {
        let cfg = XrageConfig {
            turbulence: 0.0,
            ..Default::default()
        };
        // Find the hottest radius along a ray from the impact at two times.
        let probe = |t: f32| {
            let dir = Vec3::new(1.0, 0.0, 0.0);
            let mut best = (0.0f32, f32::MIN);
            for i in 1..200 {
                let r = i as f32 * 0.005;
                let v = cfg.temperature(cfg.impact + dir * r, t);
                if v > best.1 {
                    best = (r, v);
                }
            }
            best.0
        };
        let r_early = probe(0.2);
        let r_late = probe(1.0);
        assert!(
            r_late > r_early * 1.3,
            "front did not expand: {r_early} -> {r_late}"
        );
    }

    #[test]
    fn peak_temperature_decays() {
        let cfg = XrageConfig {
            turbulence: 0.0,
            ..Default::default()
        };
        let peak_at = |step: usize| {
            let g = cfg.generate(step).unwrap();
            Summary::of(g.scalar("temperature").unwrap()).unwrap().max
        };
        assert!(peak_at(8) < peak_at(0), "blast did not cool");
    }

    #[test]
    fn resampled_field_tracks_exact_field() {
        let cfg = XrageConfig {
            dims: [32, 32, 32],
            amr_depth: 7,
            ..Default::default()
        };
        let g = cfg.generate(2).unwrap();
        let amr = g.scalar("temperature").unwrap();
        let exact = g.scalar("temperature_exact").unwrap();
        // normalized RMS error of the AMR resampling path
        let range = Summary::of(exact).unwrap().range() as f64;
        let mut acc = 0.0f64;
        for (a, e) in amr.iter().zip(exact) {
            acc += ((a - e) as f64 / range).powi(2);
        }
        let rms = (acc / amr.len() as f64).sqrt();
        assert!(rms < 0.08, "AMR resampling error {rms}");
    }

    #[test]
    fn field_has_information_content() {
        // Guard against a trivially flat field ("simulated data does not
        // generally contain enough complexity", Section III).
        let cfg = XrageConfig::default();
        let g = cfg.generate(3).unwrap();
        let vals = g.scalar("temperature").unwrap();
        let s = Summary::of(vals).unwrap();
        let h = Histogram::build(vals, s.min, s.max + 1.0, 32);
        // A localized blast leaves most voxels ambient, so global entropy is
        // modest but must be clearly non-zero, and the hot region must cover
        // a visible fraction of the volume.
        assert!(h.entropy_bits() > 0.15, "entropy {}", h.entropy_bits());
        let hot = vals
            .iter()
            .filter(|&&v| v > cfg.ambient * 1.5)
            .count() as f64
            / vals.len() as f64;
        assert!(hot > 0.01, "hot fraction {hot}");
    }

    #[test]
    fn front_isovalue_brackets_field() {
        let cfg = XrageConfig::default();
        for step in [0, 4] {
            let g = cfg.generate(step).unwrap();
            let s = Summary::of(g.scalar("temperature").unwrap()).unwrap();
            let iso = cfg.front_isovalue(step);
            assert!(
                iso > s.min && iso < s.max,
                "iso {iso} outside [{}, {}] at step {step}",
                s.min,
                s.max
            );
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = XrageConfig::with_dims([16, 16, 16]);
        assert_eq!(cfg.generate(1).unwrap(), cfg.generate(1).unwrap());
        let other = XrageConfig {
            seed: 99,
            ..XrageConfig::with_dims([16, 16, 16])
        };
        assert_ne!(cfg.generate(1).unwrap(), other.generate(1).unwrap());
    }
}
