//! Typed plan-validation errors.
//!
//! [`HybridState::validate_plan`](crate::HybridState::validate_plan) and the
//! fault-aware checks return these instead of panicking, so recovery code
//! (a dead DC's re-seed, WAL replay) can react to a broken plan
//! rather than aborting the process.

use crate::{DcId, VertexId};

/// Why a placement plan failed validation.
#[derive(Clone, Debug, PartialEq)]
pub enum PlanError {
    /// An incremental count array no longer matches a fresh rebuild.
    CountDrift {
        /// Which array drifted (`"in_cnt"`, `"out_cnt"`).
        array: &'static str,
        /// First vertex whose row differs.
        vertex: VertexId,
        /// First DC column that differs.
        dc: DcId,
        /// Incrementally maintained value.
        incremental: u32,
        /// Value after a from-scratch rebuild.
        fresh: u32,
    },
    /// The per-DC edge balance no longer matches a fresh rebuild.
    EdgeBalanceDrift {
        /// First DC whose edge count differs.
        dc: DcId,
        incremental: u64,
        fresh: u64,
    },
    /// A load accumulator (units) or a DC's Eq 4 moved bytes differ from a
    /// fresh rebuild.
    LoadDrift {
        /// Which drifted (`"gather.up"`, `"apply.down"`, …, `"moved"`).
        stage: &'static str,
        dc: DcId,
        incremental: u64,
        fresh: u64,
    },
    /// The priced Eq 4 movement cost is not the rebuild's to the bit.
    MovementCostDrift { incremental: f64, fresh: f64 },
    /// A traffic-profile value is not a load ([`crate::TrafficProfile::units`]).
    ProfileOutOfRange { vertex: VertexId, bytes: f32 },
    /// A vertex's packed kernel metadata (occupancy mask or mirrored
    /// master copy) no longer matches the authoritative arrays.
    MetaDrift {
        /// Which field drifted (`"nnz"`, `"master"`).
        field: &'static str,
        /// First vertex whose record differs.
        vertex: VertexId,
        /// Incrementally maintained value (masks verbatim, masters widened).
        incremental: u64,
        /// Authoritative value.
        fresh: u64,
    },
    /// The batched one-sweep kernel disagreed with an independent
    /// single-destination evaluation (bit-level comparison).
    KernelDivergence { vertex: VertexId, dc: DcId },
    /// A vertex's master sits on a DC that is currently dark.
    MasterOnDeadDc { vertex: VertexId, dc: DcId },
    /// A vertex has a mirror on a DC that is currently dark.
    MirrorOnDeadDc { vertex: VertexId, dc: DcId },
    /// Every DC is dark — there is nowhere to evacuate to.
    NoLiveDc,
    /// An edge placement names a DC outside the environment.
    EdgeDcOutOfRange {
        src: VertexId,
        dst: VertexId,
        /// The out-of-range DC id the plan assigned the edge to.
        dc: DcId,
        num_dcs: usize,
    },
    /// An edge placement names a vertex outside the graph.
    VertexOutOfRange { vertex: VertexId, num_vertices: usize },
    /// A master assignment names a DC outside the environment.
    MasterOutOfRange { vertex: VertexId, dc: DcId, num_dcs: usize },
    /// The environment has more DCs than replica bitmasks can hold.
    TooManyDcs { num_dcs: usize, max: usize },
    /// A graph delta does not line up with the state it is applied to
    /// (wrong base vertex count, wrong successor graph, short profile).
    DeltaMismatch {
        /// Which quantity disagreed (`"old vertex count"`, …).
        what: &'static str,
        expected: usize,
        found: usize,
    },
    /// Two per-DC or per-vertex inputs that must be equally long are not
    /// (a fault report with the wrong number of DC flags, …).
    LengthMismatch {
        /// Which input was the wrong length (`"dead-DC flags"`, …).
        what: &'static str,
        expected: usize,
        found: usize,
    },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::CountDrift { array, vertex, dc, incremental, fresh } => write!(
                f,
                "{array}[v={vertex}, dc={dc}] diverged: incremental {incremental} vs fresh {fresh}"
            ),
            PlanError::EdgeBalanceDrift { dc, incremental, fresh } => write!(
                f,
                "edge balance at DC {dc} diverged: incremental {incremental} vs fresh {fresh}"
            ),
            PlanError::LoadDrift { stage, dc, incremental, fresh } => {
                write!(f, "{stage}[{dc}] diverged: incremental {incremental} vs fresh {fresh}")
            }
            PlanError::MovementCostDrift { incremental, fresh } => {
                write!(f, "movement cost diverged: incremental {incremental} vs fresh {fresh}")
            }
            PlanError::ProfileOutOfRange { vertex, bytes } => {
                write!(f, "traffic profile of v={vertex} is {bytes} B, not a load in range")
            }
            PlanError::MetaDrift { field, vertex, incremental, fresh } => write!(
                f,
                "kernel meta {field}[v={vertex}] diverged: incremental {incremental:#x} vs \
                 authoritative {fresh:#x}"
            ),
            PlanError::KernelDivergence { vertex, dc } => {
                write!(f, "batched vs sequential evaluation diverged at v={vertex} d={dc}")
            }
            PlanError::MasterOnDeadDc { vertex, dc } => {
                write!(f, "master of v={vertex} sits on dead DC {dc}")
            }
            PlanError::MirrorOnDeadDc { vertex, dc } => {
                write!(f, "mirror of v={vertex} sits on dead DC {dc}")
            }
            PlanError::NoLiveDc => write!(f, "every DC is dark: nowhere to evacuate to"),
            PlanError::EdgeDcOutOfRange { src, dst, dc, num_dcs } => write!(
                f,
                "edge {src}->{dst} placed at DC {dc}, but the environment has only {num_dcs} DCs"
            ),
            PlanError::VertexOutOfRange { vertex, num_vertices } => write!(
                f,
                "plan names vertex {vertex}, but the graph has only {num_vertices} vertices"
            ),
            PlanError::MasterOutOfRange { vertex, dc, num_dcs } => write!(
                f,
                "master of v={vertex} is DC {dc}, but the environment has only {num_dcs} DCs"
            ),
            PlanError::TooManyDcs { num_dcs, max } => write!(
                f,
                "environment has {num_dcs} DCs but replica sets are u64 bitmasks (max {max})"
            ),
            PlanError::DeltaMismatch { what, expected, found } => {
                write!(f, "delta mismatch: {what} expected {expected}, found {found}")
            }
            PlanError::LengthMismatch { what, expected, found } => {
                write!(f, "{what}: expected {expected} entries, found {found}")
            }
        }
    }
}

impl std::error::Error for PlanError {}
