//! HACC-like cosmology particle data.
//!
//! The paper's particle workload is a HACC dark-sky run: up to 10⁹ dark
//! matter particles whose interesting science content is the *halo*
//! structure ("the visualization task here is to render the point-cloud
//! data in a manner that makes visual identification of halos easy",
//! Section IV-A). We cannot have HACC outputs, so this module generates
//! structurally equivalent data (substitution documented in DESIGN.md):
//!
//! * a configurable number of halos whose centers are drawn uniformly in
//!   the box and whose members follow an isotropic power-law-falloff radial
//!   profile (an NFW-flavored density cusp),
//! * a uniform background population,
//! * per-particle id, velocity (halo-infall plus dispersion), and a local
//!   density proxy scalar used for coloring,
//! * deterministic output given `(seed, timestep)`; successive timesteps
//!   contract halos slightly and drift the background, so time series are
//!   non-trivial.

use eth_data::error::Result;
use eth_data::field::Attribute;
use eth_data::{Aabb, PointCloud, Vec3};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

/// Configuration for the HACC-like generator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HaccConfig {
    /// Total particles to generate.
    pub particles: usize,
    /// Number of halos.
    pub halos: usize,
    /// Fraction of particles in the uniform background (rest go to halos).
    pub background_fraction: f64,
    /// Box edge length (box is `[0, box_size]^3`).
    pub box_size: f32,
    /// Typical halo core radius as a fraction of the box edge.
    pub halo_radius_fraction: f32,
    /// Velocity dispersion scale.
    pub velocity_dispersion: f32,
    /// RNG seed; the same seed reproduces the same universe.
    pub seed: u64,
}

impl Default for HaccConfig {
    fn default() -> Self {
        HaccConfig {
            particles: 100_000,
            halos: 32,
            background_fraction: 0.3,
            box_size: 1.0,
            halo_radius_fraction: 0.02,
            velocity_dispersion: 0.05,
            seed: 42,
        }
    }
}

impl HaccConfig {
    /// Convenience: a config with everything default except particle count.
    pub fn with_particles(particles: usize) -> HaccConfig {
        HaccConfig {
            particles,
            ..Default::default()
        }
    }

    /// The simulation domain.
    pub fn domain(&self) -> Aabb {
        Aabb::new(Vec3::ZERO, Vec3::splat(self.box_size))
    }

    /// Generate the particle state at `timestep`.
    ///
    /// Timestep 0 is the initial condition; later steps contract halo
    /// radii by 2%/step (structure formation proxy) and drift background
    /// particles along their velocities.
    pub fn generate(&self, timestep: usize) -> Result<PointCloud> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let n = self.particles;
        let n_background = ((n as f64) * self.background_fraction) as usize;
        let n_halo = n - n_background;

        // Halo centers/sizes are drawn first so they are stable across
        // timesteps (same rng stream prefix).
        let halos: Vec<(Vec3, f32, f32)> = (0..self.halos.max(1))
            .map(|_| {
                let c = Vec3::new(
                    rng.random_range(0.0..self.box_size),
                    rng.random_range(0.0..self.box_size),
                    rng.random_range(0.0..self.box_size),
                );
                // log-uniform halo mass -> radius and weight
                let u: f32 = rng.random_range(0.0f32..1.0);
                let radius = self.box_size * self.halo_radius_fraction * (0.5 + 1.5 * u);
                let weight = 0.2 + u * u * 2.0;
                (c, radius, weight)
            })
            .collect();
        let total_weight: f32 = halos.iter().map(|h| h.2).sum();

        let contraction = 0.98f32.powi(timestep as i32);
        let drift = 0.01 * timestep as f32;

        let mut positions = Vec::with_capacity(n);
        let mut velocities = Vec::with_capacity(n);
        let mut density = Vec::with_capacity(n);

        // Halo members.
        let mut remaining = n_halo;
        for (hi, &(center, radius, weight)) in halos.iter().enumerate() {
            let share = if hi + 1 == halos.len() {
                remaining
            } else {
                (((n_halo as f32) * weight / total_weight).round() as usize).min(remaining)
            };
            remaining -= share;
            let r_eff = radius * contraction;
            for _ in 0..share {
                // isotropic direction, power-law radius (rho ~ r^-2 cusp)
                let dir = random_unit(&mut rng);
                let u: f32 = rng.random_range(1e-4f32..1.0);
                // inverse-CDF of p(r) ~ r^0.5 on [0, r_eff] concentrates mass
                // toward the center like an NFW-ish profile
                let r = r_eff * u * u;
                let p = clamp_to_box(center + dir * r, self.box_size);
                // infall velocity toward the center + dispersion
                let infall = (center - p).normalized() * self.velocity_dispersion * 2.0;
                let v = infall + random_normal3(&mut rng) * self.velocity_dispersion;
                positions.push(p);
                velocities.push(v);
                // density proxy: higher near halo centers
                density.push(weight / (1.0 + (r / (0.1 * r_eff + 1e-6)).powi(2)));
            }
        }
        // Background.
        for _ in 0..n_background {
            let v = random_normal3(&mut rng) * self.velocity_dispersion;
            let p0 = Vec3::new(
                rng.random_range(0.0..self.box_size),
                rng.random_range(0.0..self.box_size),
                rng.random_range(0.0..self.box_size),
            );
            let p = clamp_to_box(p0 + v * drift, self.box_size);
            positions.push(p);
            velocities.push(v);
            density.push(0.05);
        }

        let count = positions.len();
        let mut cloud = PointCloud::from_positions(positions);
        cloud.set_attribute("id", Attribute::Id((0..count as u64).collect()))?;
        cloud.set_attribute("velocity", Attribute::Vector(velocities.into()))?;
        cloud.set_attribute("density", Attribute::Scalar(density.into()))?;
        Ok(cloud)
    }
}

fn clamp_to_box(p: Vec3, edge: f32) -> Vec3 {
    Vec3::new(
        p.x.clamp(0.0, edge),
        p.y.clamp(0.0, edge),
        p.z.clamp(0.0, edge),
    )
}

/// Uniform random unit vector (Marsaglia).
fn random_unit(rng: &mut StdRng) -> Vec3 {
    loop {
        let x: f32 = rng.random_range(-1.0f32..1.0);
        let y: f32 = rng.random_range(-1.0f32..1.0);
        let s = x * x + y * y;
        if s >= 1.0 || s == 0.0 {
            continue;
        }
        let f = 2.0 * (1.0 - s).sqrt();
        return Vec3::new(x * f, y * f, 1.0 - 2.0 * s);
    }
}

/// 3-vector of standard normals (Box–Muller; rand_distr is out of scope).
fn random_normal3(rng: &mut StdRng) -> Vec3 {
    let mut pair = || {
        let u1: f32 = rng.random_range(1e-7f32..1.0);
        let u2: f32 = rng.random_range(0.0f32..1.0);
        let r = (-2.0 * u1.ln()).sqrt();
        let th = 2.0 * std::f32::consts::PI * u2;
        (r * th.cos(), r * th.sin())
    };
    let (a, b) = pair();
    let (c, _) = pair();
    Vec3::new(a, b, c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eth_data::stats::{Histogram, Summary};

    #[test]
    fn generates_requested_count() {
        let cfg = HaccConfig::with_particles(10_000);
        let cloud = cfg.generate(0).unwrap();
        assert_eq!(cloud.len(), 10_000);
        assert_eq!(cloud.attribute("id").unwrap().len(), 10_000);
        assert_eq!(cloud.attribute("velocity").unwrap().len(), 10_000);
        assert_eq!(cloud.scalar("density").unwrap().len(), 10_000);
    }

    #[test]
    fn particles_stay_in_box() {
        let cfg = HaccConfig::with_particles(5_000);
        for step in [0, 3] {
            let cloud = cfg.generate(step).unwrap();
            let domain = cfg.domain();
            for &p in cloud.positions() {
                assert!(domain.contains(p), "particle {p:?} escaped at step {step}");
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = HaccConfig::with_particles(2_000);
        let a = cfg.generate(1).unwrap();
        let b = cfg.generate(1).unwrap();
        assert_eq!(a, b);
        let other = HaccConfig {
            seed: 7,
            ..HaccConfig::with_particles(2_000)
        };
        assert_ne!(a, other.generate(1).unwrap());
    }

    #[test]
    fn timesteps_differ() {
        let cfg = HaccConfig::with_particles(2_000);
        let t0 = cfg.generate(0).unwrap();
        let t5 = cfg.generate(5).unwrap();
        assert_ne!(t0, t5);
    }

    #[test]
    fn halos_create_clustering() {
        // Spatial histogram entropy of clustered data must be well below a
        // uniform distribution's (the "complexity" requirement of Sec. III).
        let clustered = HaccConfig {
            background_fraction: 0.1,
            ..HaccConfig::with_particles(20_000)
        }
        .generate(0)
        .unwrap();
        let uniform = HaccConfig {
            background_fraction: 1.0,
            ..HaccConfig::with_particles(20_000)
        }
        .generate(0)
        .unwrap();
        let cell_counts = |cloud: &PointCloud| {
            let g = 8usize;
            let mut counts = vec![0f32; g * g * g];
            for &p in cloud.positions() {
                let f = |v: f32| ((v * g as f32) as usize).min(g - 1);
                counts[(f(p.z) * g + f(p.y)) * g + f(p.x)] += 1.0;
            }
            counts
        };
        let hc = Histogram::build(&cell_counts(&clustered), 0.0, 600.0, 64);
        let hu = Histogram::build(&cell_counts(&uniform), 0.0, 600.0, 64);
        // clustered: most cells near-empty, a few huge -> lower entropy of
        // *occupancy histogram* is not monotone; instead compare std devs.
        let sc = Summary::of(&cell_counts(&clustered)).unwrap();
        let su = Summary::of(&cell_counts(&uniform)).unwrap();
        assert!(
            sc.std_dev > su.std_dev * 3.0,
            "clustered std {} vs uniform {}",
            sc.std_dev,
            su.std_dev
        );
        let _ = (hc, hu);
    }

    #[test]
    fn density_attribute_peaks_in_halos() {
        let cfg = HaccConfig::with_particles(5_000);
        let cloud = cfg.generate(0).unwrap();
        let s = Summary::of(cloud.scalar("density").unwrap()).unwrap();
        assert!((s.max as f64) > s.mean * 2.0, "density field has no contrast");
        assert!(s.min >= 0.0);
    }

    #[test]
    fn halo_contraction_over_time() {
        // Mean density proxy rises as halos contract (same particles,
        // tighter cores -> identical here since density depends on r/r_eff;
        // instead verify halo-member spread shrinks).
        let cfg = HaccConfig {
            background_fraction: 0.0,
            halos: 1,
            ..HaccConfig::with_particles(4_000)
        };
        let spread = |cloud: &PointCloud| {
            let c = cloud
                .positions()
                .iter()
                .fold(Vec3::ZERO, |a, &p| a + p)
                / cloud.len() as f32;
            cloud
                .positions()
                .iter()
                .map(|&p| (p - c).length())
                .sum::<f32>()
                / cloud.len() as f32
        };
        let s0 = spread(&cfg.generate(0).unwrap());
        let s10 = spread(&cfg.generate(10).unwrap());
        assert!(s10 < s0, "halo did not contract: {s0} -> {s10}");
    }

    #[test]
    fn zero_background_and_full_background_edge_cases() {
        let all_halo = HaccConfig {
            background_fraction: 0.0,
            ..HaccConfig::with_particles(1_000)
        };
        assert_eq!(all_halo.generate(0).unwrap().len(), 1_000);
        let all_bg = HaccConfig {
            background_fraction: 1.0,
            ..HaccConfig::with_particles(1_000)
        };
        assert_eq!(all_bg.generate(0).unwrap().len(), 1_000);
    }
}
