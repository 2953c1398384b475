//! Point-cloud container — the particle-data class (HACC cosmology case).

use crate::array::Array;
use crate::bounds::Aabb;
use crate::error::{DataError, Result};
use crate::field::{Attribute, AttributeSet};
use crate::vec3::Vec3;
use serde::{Deserialize, Serialize};

/// A set of particles with positions and per-particle attributes.
///
/// This mirrors the HACC payload of the paper: each particle carries an id,
/// position, and velocity; the id and velocity live in [`PointCloud::attributes`].
/// A decoded cloud's positions view the payload ([`Array`]).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PointCloud {
    positions: Array<Vec3>,
    attributes: AttributeSet,
}

impl PointCloud {
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from positions (a `Vec` or an [`Array`]); attributes can be
    /// attached afterwards.
    pub fn from_positions(positions: impl Into<Array<Vec3>>) -> Self {
        PointCloud {
            positions: positions.into(),
            attributes: AttributeSet::new(),
        }
    }

    pub fn len(&self) -> usize {
        self.positions.len()
    }

    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    pub fn positions(&self) -> &[Vec3] {
        &self.positions
    }

    pub fn attributes(&self) -> &AttributeSet {
        &self.attributes
    }

    /// Attach (or replace) a per-particle attribute; its length must equal
    /// the particle count.
    pub fn set_attribute(&mut self, name: &str, attr: Attribute) -> Result<()> {
        self.attributes.insert(name, attr, self.positions.len())
    }

    pub fn attribute(&self, name: &str) -> Option<&Attribute> {
        self.attributes.get(name)
    }

    /// Scalar attribute view with a typed error.
    pub fn scalar(&self, name: &str) -> Result<&[f32]> {
        self.attributes.require_scalar(name)
    }

    /// Tight bounding box over all particles (empty box when no particles).
    pub fn bounds(&self) -> Aabb {
        Aabb::from_points(&self.positions)
    }

    /// New cloud containing only the particles at `indices`, with all
    /// attributes gathered consistently.
    pub fn gather(&self, indices: &[usize]) -> Result<PointCloud> {
        if let Some(&bad) = indices.iter().find(|&&i| i >= self.positions.len()) {
            return Err(DataError::InvalidArgument(format!(
                "gather index {bad} out of range for {} points",
                self.positions.len()
            )));
        }
        Ok(PointCloud {
            positions: indices.iter().map(|&i| self.positions[i]).collect(),
            attributes: self.attributes.gather(indices),
        })
    }

    /// Append all particles of `other`; attribute sets must match.
    pub fn append(&mut self, other: &PointCloud) -> Result<()> {
        // Validate before touching positions so a failure leaves self intact.
        if self.attributes.len() != other.attributes.len() {
            return Err(DataError::InvalidArgument(
                "point clouds carry different attribute sets".into(),
            ));
        }
        self.attributes.append(&other.attributes)?;
        self.positions.make_mut().extend_from_slice(&other.positions);
        Ok(())
    }

    /// Approximate in-memory footprint in bytes (positions + attributes).
    /// Drives the data-volume accounting of the coupling experiments.
    pub fn payload_bytes(&self) -> usize {
        let mut total = self.positions.len() * std::mem::size_of::<Vec3>();
        for (_, attr) in self.attributes.iter() {
            total += match attr {
                Attribute::Scalar(v) => v.len() * 4,
                Attribute::Vector(v) => v.len() * 12,
                Attribute::Id(v) => v.len() * 8,
            };
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cloud() -> PointCloud {
        let mut c = PointCloud::from_positions(vec![
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(0.0, 2.0, 0.0),
            Vec3::new(0.0, 0.0, 3.0),
        ]);
        c.set_attribute("mass", Attribute::Scalar(vec![1.0, 2.0, 3.0, 4.0].into()))
            .unwrap();
        c.set_attribute("id", Attribute::Id(vec![0, 1, 2, 3].into())).unwrap();
        c
    }

    #[test]
    fn bounds_cover_particles() {
        let c = cloud();
        let b = c.bounds();
        assert_eq!(b.min, Vec3::ZERO);
        assert_eq!(b.max, Vec3::new(1.0, 2.0, 3.0));
    }

    #[test]
    fn attribute_length_enforced() {
        let mut c = cloud();
        assert!(c.set_attribute("bad", Attribute::Scalar(vec![1.0].into())).is_err());
    }

    #[test]
    fn gather_keeps_attributes_aligned() {
        let c = cloud();
        let g = c.gather(&[3, 1]).unwrap();
        assert_eq!(g.len(), 2);
        assert_eq!(g.positions()[0], Vec3::new(0.0, 0.0, 3.0));
        assert_eq!(g.scalar("mass").unwrap(), &[4.0, 2.0]);
        assert_eq!(g.attribute("id").unwrap().as_id().unwrap(), &[3, 1]);
    }

    #[test]
    fn gather_rejects_out_of_range() {
        let c = cloud();
        assert!(c.gather(&[0, 99]).is_err());
    }

    #[test]
    fn append_merges_clouds() {
        let mut a = cloud();
        let b = cloud();
        a.append(&b).unwrap();
        assert_eq!(a.len(), 8);
        assert_eq!(a.scalar("mass").unwrap().len(), 8);
    }

    #[test]
    fn append_rejects_mismatched_attributes() {
        let mut a = cloud();
        let b = PointCloud::from_positions(vec![Vec3::ZERO]);
        assert!(a.append(&b).is_err());
        // failure left `a` untouched
        assert_eq!(a.len(), 4);
    }

    #[test]
    fn payload_bytes_counts_everything() {
        let c = cloud();
        // 4 positions * 12 + 4 scalars * 4 + 4 ids * 8 = 48 + 16 + 32
        assert_eq!(c.payload_bytes(), 96);
    }

    #[test]
    fn empty_cloud_has_empty_bounds() {
        let c = PointCloud::new();
        assert!(c.is_empty());
        assert!(c.bounds().is_empty());
        assert_eq!(c.payload_bytes(), 0);
    }
}
