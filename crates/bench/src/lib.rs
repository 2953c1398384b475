//! # eth-bench — reproduction harness for every table and figure
//!
//! [`runs`] contains one function per quantitative artifact of the paper's
//! evaluation (Table I, Table II, Figures 8–15). Each returns a
//! [`eth_core::ResultTable`] with the same rows/series the paper reports;
//! the `reproduce` binary prints them all (and writes CSVs), and the
//! criterion benches under `benches/` time the corresponding *native*
//! kernels on this machine.

pub mod campaign;
pub mod chaos;
pub mod cli;
pub mod migrate;
pub mod pressure;
pub mod progress;
pub mod render;
pub mod runs;
pub mod serve;
pub mod trace;
