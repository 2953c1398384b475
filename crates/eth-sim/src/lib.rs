//! # eth-sim — simulation proxies and synthetic science data
//!
//! ETH "replace\[s\] the simulation with a proxy for the simulation; a task
//! that has access to the same raw data that the simulation produces
//! internally, but which is much easier to reconfigure for different
//! in-situ architectures" (Section I). This crate provides:
//!
//! * [`interface`] — the simulation↔analysis coupling interface (the thick
//!   black line of Figure 1),
//! * [`hacc`] — a deterministic halo-clustered particle generator standing
//!   in for HACC dark-sky outputs,
//! * [`xrage`] — an analytic blast-wave field generator standing in for
//!   xRAGE asteroid-impact outputs, produced through the same
//!   AMR → structured-grid downsampling path the paper describes,
//! * [`amr`] — the octree AMR substrate used by the xRAGE path,
//! * [`timeseries`] — the "preliminary run" as one time series of
//!   per-timestep, per-rank blocks (Figure 7): resident up to a memory
//!   budget, in per-block files past it, and the staging store every
//!   native run fills,
//! * [`proxy`] — the simulation proxy that presents one rank's blocks of
//!   such a series to the in-situ interface, skipping a corrupt or
//!   missing block instead of failing the rank.
//!
//! Both generators are substitutions for data we cannot have (documented in
//! DESIGN.md): they produce the same *structural* content the visualization
//! algorithms consume — halo-clustered particles, and a hot moving front in
//! a volumetric temperature field.

pub mod amr;
pub mod hacc;
pub mod interface;
pub mod proxy;
pub mod timeseries;
pub mod xrage;

pub use hacc::HaccConfig;
pub use interface::InSituSink;
pub use proxy::SimulationProxy;
pub use timeseries::TimeSeries;
pub use xrage::XrageConfig;
