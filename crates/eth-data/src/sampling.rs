//! Spatial sampling — the down-sampling operator studied in the paper.
//!
//! "Spatial sampling is explored which operates by selecting a subset of
//! points (down sampling) from the original dataset based on some given
//! distribution. We vary the sampling ratio and study how the metrics
//! included in this study change." (Section IV-B)
//!
//! The distribution is uniform: a subset of exactly the target count,
//! drawn by a deterministic partial Fisher–Yates shuffle.
//!
//! Grids are sampled by masking vertices to a background value — the grid
//! topology is preserved (which is why sampling does *not* reduce traversal
//! occupancy, reproducing the paper's Figure 14 power result).

use crate::error::{DataError, Result};
use crate::grid::UniformGrid;
use crate::points::PointCloud;
use crate::field::{Attribute, Fields};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

/// Validated sampling configuration: a uniform random subset of exactly
/// `ratio * N` points.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SamplingSpec {
    /// Fraction of points kept, in `(0, 1]`. 1.0 is the unsampled baseline.
    pub ratio: f64,
    /// RNG seed so experiments are reproducible run-to-run.
    pub seed: u64,
}

impl SamplingSpec {
    pub fn new(ratio: f64, seed: u64) -> Result<Self> {
        if !(ratio > 0.0 && ratio <= 1.0) {
            return Err(DataError::InvalidArgument(format!(
                "sampling ratio must be in (0, 1], got {ratio}"
            )));
        }
        Ok(SamplingSpec { ratio, seed })
    }

    /// The unsampled baseline (identity).
    pub fn full() -> Self {
        SamplingSpec {
            ratio: 1.0,
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

/// Apply spatial sampling to a point cloud, returning the sampled cloud
/// with the attributes `fields` carries.
///
/// Which particles are kept depends only on their count and `spec`, never
/// on the positions, the attributes or `fields`; the kept indices are in
/// ascending order, so attribute alignment is stable.
pub fn sample_points(cloud: &PointCloud, spec: &SamplingSpec, fields: Fields) -> Result<PointCloud> {
    if spec.is_identity() {
        return Ok(cloud.select(fields));
    }
    let n = cloud.len();
    let target = ((n as f64) * spec.ratio).round() as usize;
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let indices = draw_indices(n, target, &mut rng);
    cloud.gather(&indices, fields)
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
        assert!(SamplingSpec::new(0.0, 1).is_err());
        assert!(SamplingSpec::new(1.5, 1).is_err());
        assert!(SamplingSpec::new(1.0, 1).is_ok());
    }

    #[test]
    fn identity_sampling_is_noop() {
        let c = grid_cloud(4);
        let s = sample_points(&c, &SamplingSpec::full(), Fields::All).unwrap();
        assert_eq!(s, c);
    }

    #[test]
    fn random_sampling_hits_exact_count() {
        let c = grid_cloud(8); // 512 points
        for ratio in [0.75, 0.5, 0.25] {
            let spec = SamplingSpec::new(ratio, 42).unwrap();
            let s = sample_points(&c, &spec, Fields::All).unwrap();
            assert_eq!(s.len(), (512.0 * ratio).round() as usize);
        }
    }

    #[test]
    fn sampling_is_deterministic_and_a_subset() {
        let c = grid_cloud(6);
        let spec = SamplingSpec::new(0.5, 9).unwrap();
        let a = sample_points(&c, &spec, Fields::All).unwrap();
        let b = sample_points(&c, &spec, Fields::All).unwrap();
        assert_eq!(a, b);
        // kept ids are a subset of the originals and strictly increasing
        let ids = a.attribute("id").unwrap().as_id().unwrap();
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
        assert!(ids.iter().all(|&id| (id as usize) < c.len()));
    }

    #[test]
    fn a_selection_keeps_the_same_particles() {
        // the kept set depends on the count and seed alone, so
        // sampling a selection is selecting a sample
        let mut c = grid_cloud(6);
        let n = c.len();
        c.set_attribute("d", Attribute::Scalar((0..n).map(|i| i as f32).collect()))
            .unwrap();
        for ratio in [1.0, 0.5, 0.25] {
            let spec = SamplingSpec::new(ratio, 11).unwrap();
            let all = sample_points(&c, &spec, Fields::All).unwrap();
            for fields in [Fields::Only(Some("d")), Fields::Only(None)] {
                let picked = sample_points(&c, &spec, fields).unwrap();
                assert_eq!(picked, all.select(fields), "at {ratio}, {fields:?}");
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let c = grid_cloud(6);
        let s1 = sample_points(&c, &SamplingSpec::new(0.5, 1).unwrap(), Fields::All).unwrap();
        let s2 = sample_points(&c, &SamplingSpec::new(0.5, 2).unwrap(), Fields::All).unwrap();
        assert_ne!(s1, s2);
    }

    #[test]
    fn grid_field_sampling_masks_but_keeps_topology() {
        let mut g = UniformGrid::new([4, 4, 4], Vec3::ZERO, Vec3::ONE).unwrap();
        g.set_attribute("t", Attribute::Scalar(vec![10.0; 64].into())).unwrap();
        let spec = SamplingSpec::new(0.25, 5).unwrap();
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
