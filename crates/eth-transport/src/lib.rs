//! # eth-transport — rank-based message passing for the harness
//!
//! The original ETH runs on MPI within a job and "communicating via the
//! socket layer" between the simulation- and visualization-proxy jobs
//! (Section III-C). This crate is that substrate, with one implementation
//! of each job:
//!
//! * [`comm`] — the [`comm::Communicator`] trait: rank-addressed, tagged,
//!   ordered point-to-point messaging with traffic counters,
//! * [`local`] — the communicator: in-process (threads +
//!   `std::sync::mpsc` channels), the intra-job MPI role, used by every
//!   coupling's compositing and by tests,
//! * [`link`] — the [`link::PairLink`] a block crosses between a
//!   simulation rank and the visualization rank that drains it: a view of
//!   a communicator inside one job, a socket between two,
//! * [`socket`] — the socket pair link with the paper's layout-file
//!   bootstrap: every simulation-proxy rank publishes `ip:port` to a
//!   globally visible layout file, opens its port and waits; visualization
//!   ranks poll the file and connect (Section III-C),
//! * [`layout`] — the layout file itself,
//! * [`collectives`] — the composite gather over a range of ranks and the
//!   control-plane messages,
//! * [`runner`] — the `mpirun` equivalent: one launcher that spawns a
//!   thread per rank and collects them under an optional wall-clock
//!   budget,
//! * [`fault`] — deterministic, serializable fault plans (drop / corrupt /
//!   disconnect as pure functions of a seed and the message key),
//! * [`chaos`] — the wrapper that enacts a fault plan on a pair link, at
//!   the sender.

pub mod chaos;
pub mod collectives;
pub mod comm;
pub mod fault;
pub mod layout;
pub mod link;
pub mod local;
pub mod message;
pub mod runner;
pub mod socket;

pub use chaos::ChaosLink;
pub use comm::{Communicator, TransportError};
pub use fault::{Backoff, FaultPlan, KillSpec};
pub use link::{FabricLink, PairLink};
pub use local::LocalFabric;
pub use runner::{launch, run_ranks, RankFailure, Seat};
