//! # geoengine — differentiated geo-distributed graph analytics engine
//!
//! Implements the execution substrate the paper measures partitioners with:
//! the PowerLyra differentiated computation model (§III-B) over the three
//! evaluation algorithms (§VI-A.2):
//!
//! * **PageRank** — all vertices active every iteration;
//! * **SSSP** — frontier-driven activation (label-correcting, unit weights);
//! * **Subgraph Isomorphism** — pattern matching with candidate-list
//!   messages proportional to vertex degree (we compute directed-triangle
//!   counts as the concrete pattern).
//!
//! The engine runs the algorithm on the *logical* graph (so results are
//! verifiable) while attributing every inter-DC message to the DCs the
//! partitioning plan places masters, mirrors and edges in:
//!
//! * high-degree vertices follow GAS — mirrors send one aggregated
//!   `g_v`-byte message per gather, masters send `a_v` bytes per mirror in
//!   apply;
//! * low-degree vertices compute locally at their master (all in-edges are
//!   co-located by construction) and only pay apply-stage synchronization.
//!
//! The per-iteration [`geosim::StageLoads`] feed Eq 1–3 for time and Eq 5
//! for cost, producing an [`ExecutionReport`].

pub(crate) mod algorithm;
pub mod algorithms;
pub mod runner;

pub use algorithm::Algorithm;
pub use runner::{
    execute_edgecut, execute_plan, execute_plan_under_faults, ExecutionReport,
    FaultedExecutionReport,
};
