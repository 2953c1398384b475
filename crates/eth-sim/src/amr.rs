//! Octree AMR substrate.
//!
//! xRAGE "normally uses \[an\] adaptive mesh refinement (AMR) method; the AMR
//! data is typically converted to an unstructured grid data which is then
//! downsampled to a structured grid data before being handed off to the
//! visualization code" (Section IV-A). This module reproduces that path:
//! an analytic field is sampled onto an octree refined where the field
//! varies quickly, and the octree is then resampled onto a uniform grid.
//! The xRAGE generator goes through this route so the structured data the
//! harness visualizes carries realistic AMR resampling artifacts.

use eth_data::error::{DataError, Result};
use eth_data::field::Attribute;
use eth_data::{Aabb, UniformGrid, Vec3};
use rayon::prelude::*;

/// One octree node. Children are indices into the arena; leaves carry the
/// field value sampled at their center.
#[derive(Debug, Clone)]
struct OctNode {
    bounds: Aabb,
    /// `None` for leaves.
    children: Option<[u32; 8]>,
    /// Field value at the cell center (valid for leaves).
    value: f32,
    depth: u8,
}

/// An octree sampling of a scalar field.
#[derive(Debug, Clone)]
pub struct AmrTree {
    nodes: Vec<OctNode>,
}

/// Refinement policy: always refine to `min_depth`, then keep refining
/// while the value spread over a 3×3×3 probe lattice exceeds `threshold`,
/// up to `max_depth`. The forced minimum depth prevents compact interior
/// features (a thin blast shell) from being invisible to the probe at the
/// coarsest levels.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefinePolicy {
    pub min_depth: u8,
    pub max_depth: u8,
    pub threshold: f32,
}

impl RefinePolicy {
    /// Policy refining between depths `[3, max_depth]` at the given spread.
    pub fn new(max_depth: u8, threshold: f32) -> RefinePolicy {
        RefinePolicy {
            min_depth: 3.min(max_depth),
            max_depth,
            threshold,
        }
    }
}

impl AmrTree {
    /// Build by sampling `field` over `domain`, refining where it varies.
    pub fn build(
        domain: Aabb,
        policy: RefinePolicy,
        field: &dyn Fn(Vec3) -> f32,
    ) -> Result<AmrTree> {
        if domain.is_empty() {
            return Err(DataError::InvalidArgument("empty AMR domain".into()));
        }
        let mut tree = AmrTree { nodes: Vec::new() };
        tree.build_node(domain, 0, policy, field);
        Ok(tree)
    }

    fn build_node(
        &mut self,
        bounds: Aabb,
        depth: u8,
        policy: RefinePolicy,
        field: &dyn Fn(Vec3) -> f32,
    ) -> u32 {
        let index = self.nodes.len() as u32;
        let center_value = field(bounds.center());
        self.nodes.push(OctNode {
            bounds,
            children: None,
            value: center_value,
            depth,
        });
        if depth >= policy.max_depth {
            return index;
        }
        if depth >= policy.min_depth {
            // Value spread over a 3x3x3 probe lattice decides refinement.
            let mut lo = f32::INFINITY;
            let mut hi = f32::NEG_INFINITY;
            let e = bounds.extent();
            for ix in 0..3 {
                for iy in 0..3 {
                    for iz in 0..3 {
                        let p = bounds.min
                            + Vec3::new(
                                e.x * ix as f32 * 0.5,
                                e.y * iy as f32 * 0.5,
                                e.z * iz as f32 * 0.5,
                            );
                        let v = field(p);
                        lo = lo.min(v);
                        hi = hi.max(v);
                    }
                }
            }
            if hi - lo <= policy.threshold {
                return index;
            }
        }
        // Refine into octants.
        let c = bounds.center();
        let mut children = [0u32; 8];
        for (oct, child) in children.iter_mut().enumerate() {
            let min = Vec3::new(
                if oct & 1 == 0 { bounds.min.x } else { c.x },
                if oct & 2 == 0 { bounds.min.y } else { c.y },
                if oct & 4 == 0 { bounds.min.z } else { c.z },
            );
            let max = Vec3::new(
                if oct & 1 == 0 { c.x } else { bounds.max.x },
                if oct & 2 == 0 { c.y } else { bounds.max.y },
                if oct & 4 == 0 { c.z } else { bounds.max.z },
            );
            *child = self.build_node(Aabb::new(min, max), depth + 1, policy, field);
        }
        self.nodes[index as usize].children = Some(children);
        index
    }

    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    pub fn num_leaves(&self) -> usize {
        self.nodes.iter().filter(|n| n.children.is_none()).count()
    }

    pub fn max_depth(&self) -> u8 {
        self.nodes.iter().map(|n| n.depth).max().unwrap_or(0)
    }

    pub fn bounds(&self) -> Aabb {
        self.nodes[0].bounds
    }

    /// Value at point `p`: the leaf containing `p` (its center sample).
    /// Points outside the domain return `None`.
    pub fn sample(&self, p: Vec3) -> Option<f32> {
        self.leaf(p).map(|n| n.value)
    }

    /// The leaf containing `p`: a descent that goes to the upper child on
    /// each axis where `p` is at or past the node's center.
    fn leaf(&self, p: Vec3) -> Option<&OctNode> {
        if !self.nodes[0].bounds.contains(p) {
            return None;
        }
        let mut node = 0usize;
        loop {
            let n = &self.nodes[node];
            match n.children {
                None => return Some(n),
                Some(children) => {
                    let c = n.bounds.center();
                    let mut oct = 0usize;
                    if p.x >= c.x {
                        oct |= 1;
                    }
                    if p.y >= c.y {
                        oct |= 2;
                    }
                    if p.z >= c.z {
                        oct |= 4;
                    }
                    node = children[oct] as usize;
                }
            }
        }
    }

    /// Convert the octree to an unstructured tetrahedral mesh — the
    /// intermediate representation of the paper's xRAGE pipeline ("the AMR
    /// data is typically converted to an unstructured grid data",
    /// Section IV-A).
    ///
    /// Every leaf cube becomes 6 Freudenthal tetrahedra; vertices are
    /// deduplicated by quantized position, and each vertex's field value
    /// averages the values of the leaves sharing it (a simple conforming
    /// smoother; depth transitions keep T-junction vertices, which is fine
    /// for the downsampling consumer and documented for iso extraction).
    pub fn to_unstructured(&self, field_name: &str) -> Result<eth_data::UnstructuredGrid> {
        use std::collections::HashMap;
        const TETS: [[usize; 4]; 6] = [
            [0, 1, 3, 7],
            [0, 1, 5, 7],
            [0, 2, 3, 7],
            [0, 2, 6, 7],
            [0, 4, 5, 7],
            [0, 4, 6, 7],
        ];
        let root = self.bounds();
        let ext = root.extent();
        let quant = |p: Vec3| -> (u32, u32, u32) {
            let f = |v: f32, lo: f32, e: f32| (((v - lo) / e.max(1e-20)) * 1_000_000.0).round() as u32;
            (
                f(p.x, root.min.x, ext.x),
                f(p.y, root.min.y, ext.y),
                f(p.z, root.min.z, ext.z),
            )
        };
        let mut vertex_of: HashMap<(u32, u32, u32), u32> = HashMap::new();
        let mut points: Vec<Vec3> = Vec::new();
        let mut value_sum: Vec<f32> = Vec::new();
        let mut value_count: Vec<u32> = Vec::new();
        let mut tets: Vec<[u32; 4]> = Vec::new();

        for node in self.nodes.iter().filter(|n| n.children.is_none()) {
            let b = node.bounds;
            let corner = |oct: usize| {
                Vec3::new(
                    if oct & 1 == 0 { b.min.x } else { b.max.x },
                    if oct & 2 == 0 { b.min.y } else { b.max.y },
                    if oct & 4 == 0 { b.min.z } else { b.max.z },
                )
            };
            let mut ids = [0u32; 8];
            for (oct, id) in ids.iter_mut().enumerate() {
                let p = corner(oct);
                let key = quant(p);
                *id = *vertex_of.entry(key).or_insert_with(|| {
                    points.push(p);
                    value_sum.push(0.0);
                    value_count.push(0);
                    (points.len() - 1) as u32
                });
                value_sum[*id as usize] += node.value;
                value_count[*id as usize] += 1;
            }
            for tet in TETS {
                tets.push([ids[tet[0]], ids[tet[1]], ids[tet[2]], ids[tet[3]]]);
            }
        }
        let mut mesh = eth_data::UnstructuredGrid::new(points, tets)?;
        let values: Vec<f32> = value_sum
            .iter()
            .zip(&value_count)
            .map(|(&s, &c)| s / c.max(1) as f32)
            .collect();
        mesh.set_attribute(field_name, Attribute::Scalar(values.into()))?;
        Ok(mesh)
    }

    /// Resample onto a uniform grid (the paper's downsampling stage).
    /// Vertices outside every leaf (cannot happen inside the domain) get 0.
    ///
    /// One k-plane per work item. A vertex keeps the previous vertex's leaf
    /// while it lies in that leaf's half-open box: a leaf's faces are the
    /// centers its ancestors split at, so every comparison of the descent
    /// from the root would pick this leaf again. Each value is therefore
    /// `sample` at the vertex, on any thread count.
    pub fn resample(&self, dims: [usize; 3], field_name: &str) -> Result<UniformGrid> {
        let mut grid = UniformGrid::over_bounds(dims, self.bounds())?;
        let [nx, ny, _] = dims;
        let (origin, spacing) = (grid.origin(), grid.spacing());
        // Clamp vertices on the max faces inward so they land in a leaf.
        let bounds = self.bounds();
        let eps = bounds.extent() * 1e-6;
        let axis = |a: usize, n: usize| -> Vec<f32> {
            (0..n)
                .map(|i| (origin[a] + i as f32 * spacing[a]).min(bounds.max[a] - eps[a]))
                .collect()
        };
        let (xs, ys, zs) = (axis(0, nx), axis(1, ny), axis(2, dims[2]));
        let mut values = vec![0.0f32; grid.num_vertices()];
        values
            .par_chunks_mut(nx * ny)
            .zip(zs.into_par_iter())
            .for_each(|(plane, z)| {
                let mut last: Option<&OctNode> = None;
                for (row, &y) in plane.chunks_exact_mut(nx).zip(&ys) {
                    for (v, &x) in row.iter_mut().zip(&xs) {
                        let q = Vec3::new(x, y, z);
                        if !last.is_some_and(|n| n.bounds.contains_half_open(q)) {
                            last = self.leaf(q);
                        }
                        *v = last.map_or(0.0, |n| n.value);
                    }
                }
            });
        grid.set_attribute(field_name, Attribute::Scalar(values.into()))?;
        Ok(grid)
    }

    /// The resampling loop [`AmrTree::resample`] replaced: every vertex
    /// walks down from the root.
    #[cfg(test)]
    pub(crate) fn reference_resample(
        &self,
        dims: [usize; 3],
        field_name: &str,
    ) -> Result<UniformGrid> {
        let mut grid = UniformGrid::over_bounds(dims, self.bounds())?;
        let mut values = Vec::with_capacity(grid.num_vertices());
        for idx in 0..grid.num_vertices() {
            let (i, j, k) = grid.vertex_coords(idx);
            let p = grid.vertex_position(i, j, k);
            // Clamp vertices on the max faces inward so they land in a leaf.
            let eps = self.bounds().extent() * 1e-6;
            let q = Vec3::new(
                p.x.min(self.bounds().max.x - eps.x),
                p.y.min(self.bounds().max.y - eps.y),
                p.z.min(self.bounds().max.z - eps.z),
            );
            values.push(self.sample(q).unwrap_or(0.0));
        }
        grid.set_attribute(field_name, Attribute::Scalar(values.into()))?;
        Ok(grid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit() -> Aabb {
        Aabb::unit()
    }

    #[test]
    fn flat_field_stays_coarse() {
        let tree = AmrTree::build(
            unit(),
            RefinePolicy {
                min_depth: 0,
                max_depth: 6,
                threshold: 0.01,
            },
            &|_| 5.0,
        )
        .unwrap();
        assert_eq!(tree.num_nodes(), 1);
        assert_eq!(tree.num_leaves(), 1);
        assert_eq!(tree.max_depth(), 0);
        assert_eq!(tree.sample(Vec3::splat(0.5)), Some(5.0));
    }

    #[test]
    fn sharp_feature_refines_locally() {
        // Step function at x = 0.31: refinement should concentrate there.
        let field = |p: Vec3| if p.x < 0.31 { 0.0 } else { 1.0 };
        let tree = AmrTree::build(
            unit(),
            RefinePolicy {
                min_depth: 0,
                max_depth: 5,
                threshold: 0.5,
            },
            &field,
        )
        .unwrap();
        assert!(tree.max_depth() == 5);
        // far fewer leaves than a full depth-5 refinement (32^3 = 32768)
        assert!(tree.num_leaves() < 8_000, "leaves {}", tree.num_leaves());
        assert!(tree.num_leaves() > 8);
    }

    #[test]
    fn sample_walks_to_correct_leaf() {
        let field = |p: Vec3| p.x.floor() + if p.x < 0.5 { 0.0 } else { 1.0 };
        let tree = AmrTree::build(
            unit(),
            RefinePolicy {
                min_depth: 0,
                max_depth: 3,
                threshold: 0.1,
            },
            &|p| field(p),
        )
        .unwrap();
        // left half samples ~0, right half ~1
        assert_eq!(tree.sample(Vec3::new(0.1, 0.5, 0.5)), Some(0.0));
        assert_eq!(tree.sample(Vec3::new(0.9, 0.5, 0.5)), Some(1.0));
        assert!(tree.sample(Vec3::splat(2.0)).is_none());
    }

    #[test]
    fn resample_reproduces_smooth_field() {
        let field = |p: Vec3| p.x + 2.0 * p.y;
        let tree = AmrTree::build(
            unit(),
            RefinePolicy {
                min_depth: 0,
                max_depth: 6,
                threshold: 0.05,
            },
            &field,
        )
        .unwrap();
        let grid = tree.resample([9, 9, 9], "f").unwrap();
        let vals = grid.scalar("f").unwrap();
        let mut max_err = 0.0f32;
        for (idx, &v) in vals.iter().enumerate() {
            let (i, j, k) = grid.vertex_coords(idx);
            let p = grid.vertex_position(i, j, k);
            max_err = max_err.max((v - field(p)).abs());
        }
        // leaf-center sampling error bounded by leaf size * gradient
        assert!(max_err < 0.1, "max resample error {max_err}");
    }

    #[test]
    fn resample_covers_max_faces() {
        let tree = AmrTree::build(
            unit(),
            RefinePolicy {
                min_depth: 0,
                max_depth: 2,
                threshold: 0.01,
            },
            &|p| p.z,
        )
        .unwrap();
        let grid = tree.resample([5, 5, 5], "f").unwrap();
        let vals = grid.scalar("f").unwrap();
        // corner vertex at (1,1,1) must have sampled a real leaf (~1.0 area)
        let top = vals[grid.vertex_index(4, 4, 4)];
        assert!(top > 0.5, "top corner value {top}");
    }

    #[test]
    fn unstructured_conversion_covers_the_domain() {
        let field = |p: Vec3| if (p - Vec3::splat(0.5)).length() < 0.3 { 1.0 } else { 0.0 };
        let tree = AmrTree::build(
            unit(),
            RefinePolicy {
                min_depth: 2,
                max_depth: 4,
                threshold: 0.5,
            },
            &field,
        )
        .unwrap();
        let mesh = tree.to_unstructured("f").unwrap();
        assert_eq!(mesh.num_cells(), tree.num_leaves() * 6);
        // tet volumes tile the unit cube exactly
        assert!((mesh.total_volume() - 1.0).abs() < 1e-3, "{}", mesh.total_volume());
        // shared corners deduplicated: far fewer vertices than 8 per leaf
        assert!(mesh.num_points() < tree.num_leaves() * 8);
        assert!(mesh.scalar("f").is_ok());
    }

    #[test]
    fn unstructured_resample_matches_direct_resample() {
        // AMR -> unstructured -> structured must agree with the direct
        // AMR -> structured path (the values differ only by the conforming
        // vertex averaging).
        let field = |p: Vec3| p.x * 2.0 + p.y;
        let tree = AmrTree::build(
            unit(),
            RefinePolicy {
                min_depth: 2,
                max_depth: 3,
                threshold: 0.05,
            },
            &field,
        )
        .unwrap();
        let direct = tree.resample([7, 7, 7], "f").unwrap();
        let mesh = tree.to_unstructured("f").unwrap();
        let via_unstructured = mesh.resample("f", [7, 7, 7], 0.0).unwrap();
        let a = direct.scalar("f").unwrap();
        let b = via_unstructured.scalar("f").unwrap();
        let mut worst = 0.0f32;
        for (x, y) in a.iter().zip(b) {
            worst = worst.max((x - y).abs());
        }
        // both approximate the linear field; allow leaf-size error
        assert!(worst < 0.5, "paths diverge by {worst}");
    }

    #[test]
    fn empty_domain_rejected() {
        assert!(AmrTree::build(
            Aabb::empty(),
            RefinePolicy {
                min_depth: 0,
                max_depth: 2,
                threshold: 0.1
            },
            &|_| 0.0
        )
        .is_err());
    }
}
