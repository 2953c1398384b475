//! Dataset readers and writers.
//!
//! Two formats:
//! * [`binary`] — ETH's own length-prefixed little-endian binary format
//!   (`.ebd`, "ETH binary data"). This is the fast path used for the
//!   per-rank, per-timestep files of the preliminary run, and the wire
//!   format the transport layer ships across ranks.
//! * [`vtk_legacy`] — a reader/writer for the subset of the legacy VTK
//!   ASCII format covering `STRUCTURED_POINTS` and `POLYDATA` point sets,
//!   so users can move data between ETH and VTK-based tools
//!   ("the design requires that the data is exported as VTK data objects",
//!   Section III-B).
//!
//! [`le`] holds the bulk little-endian array copies `binary` and the
//! journal's result files share; [`pool`] owns the buffers a step loop
//! encodes into.

pub mod binary;
pub mod le;
pub mod pool;
pub mod vtk_legacy;
