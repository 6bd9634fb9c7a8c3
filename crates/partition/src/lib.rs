//! # geopart — partitioning models and plan machinery
//!
//! Implements the three partitioning models the paper compares (§II-B) and
//! the state representation RLCut trains over (§IV-B):
//!
//! * **Hybrid-cut** ([`hybrid::HybridState`]) — the model RLCut adopts.
//!   The *state* is the vector of master locations `L_v`; edge placement is
//!   derived (in-edges of a low-degree vertex follow its master, in-edges of
//!   a high-degree vertex follow the source's master) and mirrors are
//!   created wherever a vertex's edges land. Supports **O(deg(v))
//!   incremental evaluation** of single-vertex moves — the workhorse of the
//!   RL score function (Eq 10) and the reason straggler mitigation
//!   schedules agents by degree (§V-B).
//! * **Vertex-cut** ([`vertexcut::VertexCutState`]) — explicit per-edge DC
//!   assignment, every vertex computed with full GAS (PowerGraph).
//! * **Edge-cut** ([`edgecut::EdgeCutState`]) — per-vertex DC assignment,
//!   Pregel-style combiner messages along cut edges (Spinner, Revolver).
//!
//! All models evaluate to an [`Objective`]: per-iteration inter-DC transfer
//! time (Eq 1–3) plus movement and runtime monetary cost (Eq 4–5), so
//! partitioners across models are compared on identical terms.
//!
//! Move evaluation runs through the one-sweep kernel in [`kernel`]:
//! `PlacementState::evaluate_moves` scores the destinations of a DC mask
//! — all `M` for scoring, one for a migration proposal — from a single
//! neighborhood sweep into a reusable [`MoveScratch`] arena, each slot
//! bit-identical whichever others the mask flags.

pub(crate) mod edgecut;
pub mod error;
pub mod hybrid;
pub mod kernel;
pub mod metrics;
pub mod plan_io;
pub mod profile;
pub mod snapshot;
pub mod state;
pub mod vertexcut;

pub use edgecut::EdgeCutState;
pub use error::PlanError;
pub use hybrid::{check_fault_report, reseed_stranded_masters, HybridState, MoveMarks};
pub use kernel::{LaneDeltas, MoveScratch, ScratchStats};
pub use profile::TrafficProfile;
pub use state::{DeltaApplyStats, Objective, PlacementState};

pub use geograph::{DcId, VertexId};
