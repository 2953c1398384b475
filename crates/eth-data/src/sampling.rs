//! Spatial sampling — the down-sampling operator studied in the paper.
//!
//! "Spatial sampling is explored which operates by selecting a subset of
//! points (down sampling) from the original dataset based on some given
//! distribution. We vary the sampling ratio and study how the metrics
//! included in this study change." (Section IV-B)
//!
//! Two distributions are provided:
//! * [`SamplingMethod::Random`] — uniform Bernoulli-style selection with an
//!   exact target count (a deterministic partial Fisher–Yates draw),
//! * [`SamplingMethod::Stratified`] — the domain is divided into a coarse
//!   lattice and the per-cell budget is drawn per stratum, preserving the
//!   large-scale density structure (important for halo visibility).
//!
//! Grids are sampled by masking vertices to a background value — the grid
//! topology is preserved (which is why sampling does *not* reduce traversal
//! occupancy, reproducing the paper's Figure 14 power result).

use crate::error::{DataError, Result};
use crate::grid::UniformGrid;
use crate::points::PointCloud;
use crate::field::Attribute;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

/// Which spatial-sampling distribution to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SamplingMethod {
    /// Uniform random subset of exactly `ratio * N` points.
    Random,
    /// Per-stratum uniform sampling over a `strata^3` lattice.
    Stratified { strata: usize },
}

/// Validated sampling configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SamplingSpec {
    /// Fraction of points kept, in `(0, 1]`. 1.0 is the unsampled baseline.
    pub ratio: f64,
    pub method: SamplingMethod,
    /// RNG seed so experiments are reproducible run-to-run.
    pub seed: u64,
}

impl SamplingSpec {
    pub fn new(ratio: f64, method: SamplingMethod, seed: u64) -> Result<Self> {
        if !(ratio > 0.0 && ratio <= 1.0) {
            return Err(DataError::InvalidArgument(format!(
                "sampling ratio must be in (0, 1], got {ratio}"
            )));
        }
        Ok(SamplingSpec { ratio, method, seed })
    }

    /// The unsampled baseline (identity).
    pub fn full() -> Self {
        SamplingSpec {
            ratio: 1.0,
            method: SamplingMethod::Random,
            seed: 0,
        }
    }

    /// Is this the identity operator?
    pub fn is_identity(&self) -> bool {
        self.ratio >= 1.0
    }
}

/// Select `k` indices uniformly without replacement from `0..n`
/// (deterministic given the rng): partial Fisher–Yates.
fn draw_indices(n: usize, k: usize, rng: &mut StdRng) -> Vec<usize> {
    let k = k.min(n);
    let mut pool: Vec<usize> = (0..n).collect();
    for i in 0..k {
        let j = rng.random_range(i..n);
        pool.swap(i, j);
    }
    let mut picked = pool[..k].to_vec();
    picked.sort_unstable();
    picked
}

/// Apply spatial sampling to a point cloud, returning the sampled cloud.
///
/// The output is deterministic in `(spec.seed, cloud contents)` and the kept
/// indices are in ascending order, so attribute alignment is stable.
pub fn sample_points(cloud: &PointCloud, spec: &SamplingSpec) -> Result<PointCloud> {
    if spec.is_identity() {
        return Ok(cloud.clone());
    }
    let n = cloud.len();
    let target = ((n as f64) * spec.ratio).round() as usize;
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let indices = match spec.method {
        SamplingMethod::Random => draw_indices(n, target, &mut rng),
        SamplingMethod::Stratified { strata } => {
            if strata == 0 {
                return Err(DataError::InvalidArgument("strata must be > 0".into()));
            }
            stratified_indices(cloud, spec.ratio, strata, &mut rng)
        }
    };
    cloud.gather(&indices)
}

fn stratified_indices(
    cloud: &PointCloud,
    ratio: f64,
    strata: usize,
    rng: &mut StdRng,
) -> Vec<usize> {
    let bounds = cloud.bounds();
    if bounds.is_empty() {
        return Vec::new();
    }
    let ext = bounds.extent();
    let cell = |p: crate::vec3::Vec3| -> usize {
        let f = |v: f32, lo: f32, e: f32| -> usize {
            if e <= 0.0 {
                0
            } else {
                (((v - lo) / e * strata as f32) as usize).min(strata - 1)
            }
        };
        let i = f(p.x, bounds.min.x, ext.x);
        let j = f(p.y, bounds.min.y, ext.y);
        let k = f(p.z, bounds.min.z, ext.z);
        (k * strata + j) * strata + i
    };
    // Bucket point indices by stratum.
    let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); strata * strata * strata];
    for (i, &p) in cloud.positions().iter().enumerate() {
        buckets[cell(p)].push(i);
    }
    let mut kept = Vec::new();
    for bucket in buckets {
        if bucket.is_empty() {
            continue;
        }
        let want = ((bucket.len() as f64) * ratio).round() as usize;
        let picks = draw_indices(bucket.len(), want, rng);
        kept.extend(picks.into_iter().map(|local| bucket[local]));
    }
    kept.sort_unstable();
    kept
}

/// Apply spatial sampling to a grid scalar field by masking de-selected
/// vertices to `background`. Topology (and therefore traversal cost in the
/// renderers) is unchanged; only the information content drops.
pub fn sample_grid_field(
    grid: &UniformGrid,
    field: &str,
    spec: &SamplingSpec,
    background: f32,
) -> Result<UniformGrid> {
    if spec.is_identity() {
        return Ok(grid.clone());
    }
    let values = grid.scalar(field)?;
    let n = values.len();
    let target = ((n as f64) * spec.ratio).round() as usize;
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let keep = draw_indices(n, target, &mut rng);
    let mut mask = vec![false; n];
    for &i in &keep {
        mask[i] = true;
    }
    let sampled: Vec<f32> = values
        .iter()
        .zip(&mask)
        .map(|(&v, &m)| if m { v } else { background })
        .collect();
    let mut out = grid.clone();
    out.set_attribute(field, Attribute::Scalar(sampled.into()))?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vec3::Vec3;

    fn grid_cloud(n_side: usize) -> PointCloud {
        let mut pos = Vec::new();
        for k in 0..n_side {
            for j in 0..n_side {
                for i in 0..n_side {
                    pos.push(Vec3::new(i as f32, j as f32, k as f32));
                }
            }
        }
        let n = pos.len();
        let mut c = PointCloud::from_positions(pos);
        c.set_attribute("id", Attribute::Id((0..n as u64).collect()))
            .unwrap();
        c
    }

    #[test]
    fn ratio_validation() {
        assert!(SamplingSpec::new(0.0, SamplingMethod::Random, 1).is_err());
        assert!(SamplingSpec::new(1.5, SamplingMethod::Random, 1).is_err());
        assert!(SamplingSpec::new(1.0, SamplingMethod::Random, 1).is_ok());
    }

    #[test]
    fn identity_sampling_is_noop() {
        let c = grid_cloud(4);
        let s = sample_points(&c, &SamplingSpec::full()).unwrap();
        assert_eq!(s, c);
    }

    #[test]
    fn random_sampling_hits_exact_count() {
        let c = grid_cloud(8); // 512 points
        for ratio in [0.75, 0.5, 0.25] {
            let spec = SamplingSpec::new(ratio, SamplingMethod::Random, 42).unwrap();
            let s = sample_points(&c, &spec).unwrap();
            assert_eq!(s.len(), (512.0 * ratio).round() as usize);
        }
    }

    #[test]
    fn sampling_is_deterministic_and_a_subset() {
        let c = grid_cloud(6);
        let spec = SamplingSpec::new(0.5, SamplingMethod::Random, 9).unwrap();
        let a = sample_points(&c, &spec).unwrap();
        let b = sample_points(&c, &spec).unwrap();
        assert_eq!(a, b);
        // kept ids are a subset of the originals and strictly increasing
        let ids = a.attribute("id").unwrap().as_id().unwrap();
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
        assert!(ids.iter().all(|&id| (id as usize) < c.len()));
    }

    #[test]
    fn different_seeds_differ() {
        let c = grid_cloud(6);
        let s1 = sample_points(
            &c,
            &SamplingSpec::new(0.5, SamplingMethod::Random, 1).unwrap(),
        )
        .unwrap();
        let s2 = sample_points(
            &c,
            &SamplingSpec::new(0.5, SamplingMethod::Random, 2).unwrap(),
        )
        .unwrap();
        assert_ne!(s1, s2);
    }

    #[test]
    fn stratified_preserves_density_structure() {
        // Two clusters of very different density; stratified sampling must
        // keep their point-count ratio approximately intact.
        let mut pos = Vec::new();
        for i in 0..900 {
            let t = i as f32 * 0.001;
            pos.push(Vec3::new(t.sin() * 0.1, t.cos() * 0.1, (i % 10) as f32 * 0.01));
        }
        for i in 0..100 {
            let t = i as f32 * 0.01;
            pos.push(Vec3::new(5.0 + t.sin() * 0.1, 5.0 + t.cos() * 0.1, 5.0));
        }
        let n = pos.len();
        let mut c = PointCloud::from_positions(pos);
        c.set_attribute("id", Attribute::Id((0..n as u64).collect()))
            .unwrap();
        let spec =
            SamplingSpec::new(0.5, SamplingMethod::Stratified { strata: 4 }, 3).unwrap();
        let s = sample_points(&c, &spec).unwrap();
        // dense cluster near origin should hold ~90% of sampled points
        let near_origin = s
            .positions()
            .iter()
            .filter(|p| p.length() < 1.0)
            .count() as f64;
        let frac = near_origin / s.len() as f64;
        assert!((0.8..=0.98).contains(&frac), "dense fraction {frac}");
        assert!((s.len() as f64 - 500.0).abs() <= 5.0, "len {}", s.len());
    }

    #[test]
    fn grid_field_sampling_masks_but_keeps_topology() {
        let mut g = UniformGrid::new([4, 4, 4], Vec3::ZERO, Vec3::ONE).unwrap();
        g.set_attribute("t", Attribute::Scalar(vec![10.0; 64].into())).unwrap();
        let spec = SamplingSpec::new(0.25, SamplingMethod::Random, 5).unwrap();
        let s = sample_grid_field(&g, "t", &spec, 0.0).unwrap();
        assert_eq!(s.dims(), g.dims());
        let vals = s.scalar("t").unwrap();
        let kept = vals.iter().filter(|&&v| v == 10.0).count();
        assert_eq!(kept, 16);
        let masked = vals.iter().filter(|&&v| v == 0.0).count();
        assert_eq!(masked, 48);
    }

    #[test]
    fn draw_indices_edge_cases() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(draw_indices(0, 5, &mut rng).is_empty());
        assert_eq!(draw_indices(5, 0, &mut rng).len(), 0);
        let all = draw_indices(5, 5, &mut rng);
        assert_eq!(all, vec![0, 1, 2, 3, 4]);
        let over = draw_indices(3, 10, &mut rng);
        assert_eq!(over.len(), 3);
    }
}
