//! # geoserve — the placement-serving daemon
//!
//! Long-running serving layer for the adaptive partitioner: analytics
//! frontends ask it *where a vertex's master lives*, millions of times a
//! second, while the trainer keeps re-partitioning underneath.
//!
//! Three pieces:
//!
//! * [`RoutingTable`] — an immutable, read-optimized snapshot of one
//!   committed placement: its master plane, one byte per vertex, looked
//!   up in batches ([`RoutingTable::lookup_many`]). A vertex's replicas
//!   and an edge's processing DC follow from the masters and the graph
//!   under the hybrid cut, so they are derived from the plan, not served.
//! * [`PlanBoard`] — the publication point. A plan flip swaps one
//!   `Arc` under a lock readers never wait on: each [`PlanReader`] holds
//!   the table it last pinned and moves to a newer one only when the
//!   lock is free, so a reader mid-batch keeps its table while the
//!   trainer commits the next window (see [`board`]).
//! * [`PlacementServer`] — the writer: boots the last committed plan
//!   straight out of a [`geodur::DurableStore`] (no retraining after a
//!   restart), attaches to a live [`rlcut::DurableAdaptive`] trainer as
//!   its commit hook, and evacuates dead DCs with the trainer's own
//!   reseed rule so service continues through a DC outage (one dead flag
//!   per DC).
//!
//! The consistency contract, end to end: **every response is served from
//! exactly one published epoch.** Readers racing a window commit or an
//! evacuation observe the previous table or the new one, never a blend
//! and never a torn read.

pub mod board;
pub mod server;
pub mod table;

pub use board::{PlanBoard, PlanReader};
pub use server::{PlacementServer, ServeError};
pub use table::RoutingTable;
