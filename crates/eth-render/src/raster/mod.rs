//! The geometry-based (rasterization) pipeline — the VTK/OpenGL role.
//!
//! Three rasterizers:
//! * [`points`] — the paper's "VTK points": every particle becomes a fixed
//!   size screen-space block of fixed color,
//! * [`splat`] — the paper's "Gaussian splatter": one impostor per particle
//!   whose per-pixel normals model a sphere,
//! * [`triangle`] — a z-buffered, perspective-correct triangle rasterizer
//!   consuming the meshes produced by marching cubes / slicing.
//!
//! All three are front ends of one kernel (`scatter.rs`).

pub mod points;
mod scatter;
pub mod splat;
pub mod triangle;
