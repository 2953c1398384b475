//! The polymorphic dataset handed across the in-situ interface.

use crate::bounds::Aabb;
use crate::field::Fields;
use crate::grid::UniformGrid;
use crate::points::PointCloud;
use serde::{Deserialize, Serialize};

/// Any dataset ETH can move through a pipeline.
///
/// The paper evaluates exactly two data classes — particle data (HACC) and
/// structured-grid data (xRAGE) — and notes unstructured grids as the main
/// extension point; adding a variant here is that extension point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DataObject {
    Points(PointCloud),
    Grid(UniformGrid),
}

impl DataObject {
    /// Number of fundamental elements (particles or grid vertices).
    pub fn num_elements(&self) -> usize {
        match self {
            DataObject::Points(p) => p.len(),
            DataObject::Grid(g) => g.num_vertices(),
        }
    }

    /// World-space bounds.
    pub fn bounds(&self) -> Aabb {
        match self {
            DataObject::Points(p) => p.bounds(),
            DataObject::Grid(g) => g.bounds(),
        }
    }

    /// Approximate payload size in bytes — what would move over the
    /// interconnect under internode coupling.
    pub fn payload_bytes(&self) -> usize {
        match self {
            DataObject::Points(p) => p.payload_bytes(),
            DataObject::Grid(g) => g.payload_bytes(),
        }
    }

    /// The block's geometry and the attributes `fields` carries: what an
    /// encoder given `fields` writes, and what its decoder gives back.
    pub fn select(&self, fields: Fields) -> DataObject {
        match self {
            DataObject::Points(p) => DataObject::Points(p.select(fields)),
            DataObject::Grid(g) => DataObject::Grid(g.select(fields)),
        }
    }

    /// Short human-readable kind tag for logs and results tables.
    pub fn kind(&self) -> &'static str {
        match self {
            DataObject::Points(_) => "points",
            DataObject::Grid(_) => "grid",
        }
    }

    pub fn as_points(&self) -> Option<&PointCloud> {
        match self {
            DataObject::Points(p) => Some(p),
            _ => None,
        }
    }

    pub fn as_grid(&self) -> Option<&UniformGrid> {
        match self {
            DataObject::Grid(g) => Some(g),
            _ => None,
        }
    }
}

impl From<PointCloud> for DataObject {
    fn from(p: PointCloud) -> Self {
        DataObject::Points(p)
    }
}

impl From<UniformGrid> for DataObject {
    fn from(g: UniformGrid) -> Self {
        DataObject::Grid(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vec3::Vec3;

    #[test]
    fn dispatch_over_variants() {
        let p: DataObject = PointCloud::from_positions(vec![Vec3::ZERO, Vec3::ONE]).into();
        assert_eq!(p.num_elements(), 2);
        assert_eq!(p.kind(), "points");
        assert!(p.as_points().is_some());
        assert!(p.as_grid().is_none());

        let g: DataObject = UniformGrid::new([2, 2, 2], Vec3::ZERO, Vec3::ONE)
            .unwrap()
            .into();
        assert_eq!(g.num_elements(), 8);
        assert_eq!(g.kind(), "grid");
        assert!(g.as_grid().is_some());
        assert_eq!(g.bounds().max, Vec3::ONE);
    }
}
