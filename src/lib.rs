//! Umbrella crate: re-exports the full training stack so examples and
//! integration tests can reach every layer through one dependency.
//!
//! See `README.md` for the crate map and `ROADMAP.md` for direction.

#![forbid(unsafe_code)]

pub use dgnn_autograd as autograd;
pub use dgnn_core as core;
pub use dgnn_graph as graph;
pub use dgnn_models as models;
pub use dgnn_partition as partition;
pub use dgnn_serve as serve;
pub use dgnn_sim as sim;
pub use dgnn_stream as stream;
pub use dgnn_telemetry as telemetry;
pub use dgnn_tensor as tensor;
