//! Geometry extraction filters — the "generate intermediate geometry"
//! stage of the geometry-based pipeline (Section IV-C of the paper).

pub mod marching_cubes;
pub mod mesh;
#[cfg(test)]
mod reference;
pub mod slice;
pub mod unstructured;
mod zero_set;

pub use mesh::TriangleMesh;
pub use slice::Plane;
