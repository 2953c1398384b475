//! Dataset readers and writers.
//!
//! [`binary`] is ETH's own length-prefixed little-endian binary format
//! (`.ebd`, "ETH binary data"): the per-rank, per-timestep files of the
//! preliminary run, and the wire format the transport layer ships across
//! ranks.
//!
//! [`le`] holds the bulk little-endian array copies and views `binary` and
//! the journal's result files share; [`aligned`] is the buffer every
//! encoded block is written or read into; [`pool`] owns the buffers a step
//! loop encodes into.

pub mod aligned;
pub mod binary;
pub mod le;
pub mod pool;
