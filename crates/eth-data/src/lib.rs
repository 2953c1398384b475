//! # eth-data — data model substrate for the Exploration Test Harness
//!
//! This crate plays the role VTK's data model plays in the original ETH
//! implementation: a small, self-contained set of scientific data containers
//! that every other layer of the harness (simulation proxies, renderers,
//! transport, the harness itself) operates on.
//!
//! The containers are deliberately close to the two data classes the paper
//! evaluates:
//!
//! * [`points::PointCloud`] — particle data (the HACC cosmology case),
//! * [`grid::UniformGrid`] — structured volumetric data (the xRAGE case),
//!
//! both carrying named attribute arrays ([`field::AttributeSet`]) whose
//! storage ([`array::Array`]) is owned or, for a decoded block, a view of
//! the bytes it arrived in.
//!
//! On top of the containers the crate provides the pieces ETH needs to stand
//! up an in-situ experiment without a real simulation code:
//!
//! * [`partition`] — spatial decomposition of a dataset across ranks,
//! * [`sampling`] — the spatial down-sampling operator studied in the paper,
//! * [`io`] — a fast binary format, so a
//!   "preliminary run" can write per-rank, per-timestep files to disk and the
//!   simulation proxy can read them back (Figures 3 and 7 of the paper),
//! * [`stats`] — summary statistics used by tests and workload validation.

pub mod array;
pub mod bounds;
pub mod compress;
pub mod crc;
pub mod dataset;
pub mod error;
pub mod field;
pub mod grid;
pub mod io;
pub mod partition;
pub mod points;
pub mod sampling;
pub mod stats;
pub mod unstructured;
pub mod vec3;

pub use array::Array;
pub use bounds::Aabb;
pub use bytes::{BufMut, Bytes};
pub use dataset::DataObject;
pub use error::DataError;
pub use field::{Attribute, AttributeSet, Fields};
pub use grid::UniformGrid;
pub use points::PointCloud;
pub use unstructured::UnstructuredGrid;
pub use vec3::Vec3;
