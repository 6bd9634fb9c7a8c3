//! The trainer's in-memory restore point.
//!
//! A [`TrainerCheckpoint`] captures the trainer's *logical* state — the LA
//! probability vectors and UCB statistics, the master placement, the
//! migration RNG state, and the best-plan tracker — so
//! [`crate::TrainerSession::resume`] continues exactly where
//! [`crate::TrainerSession::checkpoint`] stopped instead of restarting.
//! Wall-clock-derived state (the Eq 14 sampling scheduler's per-step
//! timings) is deliberately excluded: it is not reproducible across runs,
//! and including it would break the "same seed ⇒ identical checkpoint"
//! guarantee. A restored session restarts its overhead measurements, which
//! only affects time-budgeted (`t_opt`) schedules.
//!
//! It is a plain value with no byte format: nothing persists it. The
//! durable pipeline (`geodur` snapshots + WAL) commits at window boundaries,
//! where every window starts fresh automata, so there is no trainer state
//! to write; [`crate::train_under_faults`] keeps its restore point in
//! memory.

use geograph::DcId;
use geopart::Objective;

/// The trainer's logical state at one step boundary.
#[derive(Clone, Debug, PartialEq)]
pub struct TrainerCheckpoint {
    /// Config seed the run was started with (sanity-checked on resume).
    pub seed: u64,
    /// Next training step index.
    pub step: u32,
    /// Hybrid-cut degree threshold θ.
    pub theta: u64,
    /// Number of DCs / actions.
    pub num_dcs: u32,
    /// Current master placement.
    pub masters: Vec<DcId>,
    /// LA action probabilities, `n × m` row-major.
    pub probs: Vec<f32>,
    /// UCB per-action play counts.
    pub plays: Vec<u32>,
    /// UCB mean realized rewards.
    pub mean_reward: Vec<f32>,
    /// UCB per-agent total plays.
    pub total_plays: Vec<u32>,
    /// Migration RNG (xoshiro256++) state.
    pub rng_state: [u64; 4],
    /// Incrementally tracked Eq 4 movement cost of `masters`.
    pub movement_cost: f64,
    /// Best masters seen so far.
    pub best_masters: Vec<DcId>,
    /// Objective of the best plan, as tracked when the checkpoint was taken.
    pub best_objective: Objective,
    /// Whether training had already converged.
    pub converged: bool,
}
