//! # ETH — Exploration Test Harness for in-situ scientific visualization
//!
//! Facade crate re-exporting the full harness. See the individual crates
//! for details:
//!
//! * [`data`] — datasets, partitioning, sampling, IO ([`eth_data`])
//! * [`sim`] — simulation proxies and synthetic science data ([`eth_sim`])
//! * [`render`] — geometry-based and raycasting pipelines ([`eth_render`])
//! * [`transport`] — rank communicators ([`eth_transport`])
//! * [`cluster`] — discrete-event cluster and power model ([`eth_cluster`])
//! * [`core`] — experiment specs, the harness, sweeps, results ([`eth_core`])
//!
//! ## Quickstart
//!
//! ```no_run
//! use eth::prelude::*;
//!
//! // Describe an experiment: HACC-like particles, raycast rendering,
//! // tight coupling, on 4 ranks.
//! let spec = ExperimentSpec::builder("quickstart")
//!     .application(Application::Hacc { particles: 100_000 })
//!     .algorithm(Algorithm::RaycastSpheres)
//!     .coupling(Coupling::Tight)
//!     .ranks(4)
//!     .image_size(256, 256)
//!     .build()
//!     .unwrap();
//!
//! // Run it natively (real data, real rendering, real ranks).
//! let outcome = eth::core::harness::run_native(&spec).unwrap();
//! println!("{}", outcome.report());
//! ```

pub use eth_cluster as cluster;
pub use eth_core as core;
pub use eth_data as data;
pub use eth_render as render;
pub use eth_sim as sim;
pub use eth_transport as transport;

/// Most-used items in one import.
pub mod prelude {
    pub use eth_cluster::metrics::RunMetrics;
    pub use eth_core::config::{
        Algorithm, Application, Coupling, ExperimentSpec, MigrationPattern, MigrationPlan,
    };
    pub use eth_core::harness;
    pub use eth_core::harness::{run_native, run_native_cached, RunCaches};
    pub use eth_core::results::ResultTable;
    pub use eth_core::sweep::{Campaign, CampaignOutcome, Sweep};
    pub use eth_data::{Aabb, DataObject, PointCloud, UniformGrid, Vec3};
    pub use eth_render::camera::Camera;
    pub use eth_render::image::Image;
    pub use eth_transport::fault::FaultPlan;
}
