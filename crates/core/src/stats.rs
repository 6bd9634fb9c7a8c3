//! Training telemetry: what the paper plots in Fig 6/8/13/14 and reports
//! as "optimization overhead" in Tables III/IV.

use std::time::Duration;

use geopart::{HybridState, Objective};
use geosim::CloudEnv;

/// Per-training-step telemetry.
#[derive(Clone, Copy, Debug)]
pub struct StepStats {
    /// Wall-clock duration of the step.
    pub duration: Duration,
    /// Time spent proposing moves (steps 1-4 of Fig 5): the parallel
    /// score-function phase — the dominant cost per §V-B — plus the
    /// `O(M)`-per-agent LA update and UCB selection.
    pub score_duration: Duration,
    /// Time spent in the batched vertex-migration phase (step 5, §V-A).
    pub migrate_duration: Duration,
    /// Sampling rate used (fraction of agents trained).
    pub sample_rate: f64,
    /// Number of agents that trained.
    pub num_agents: usize,
    /// Accepted vertex migrations.
    pub migrations: usize,
    /// Migration proposals: trained agents whose selection leaves their
    /// master for a live DC.
    pub proposals: usize,
    /// Proposals judged after the step's first accepted move whose verdict
    /// was re-priced from the score phase's cached lane deltas.
    pub repriced: usize,
    /// Proposals judged after the step's first accepted move by a full
    /// move evaluation (no usable cached deltas).
    pub post_accept_evals: usize,
    /// Transfer time (Eq 1) after the step.
    pub transfer_time: f64,
    /// Total cost (Eq 4 + Eq 5) after the step.
    pub total_cost: f64,
}

/// The outcome of one RLCut training run.
pub struct RlCutResult<'g> {
    /// The trained plan.
    pub state: HybridState<'g>,
    /// Per-step telemetry.
    pub steps: Vec<StepStats>,
    /// Total wall-clock optimization overhead (what Table III reports).
    pub total_duration: Duration,
    /// Whether training stopped on convergence (vs exhausting steps or the
    /// time budget).
    pub converged: bool,
}

impl<'g> RlCutResult<'g> {
    /// Final objective of the trained plan.
    pub fn final_objective(&self, env: &CloudEnv) -> Objective {
        self.state.objective(env)
    }

    /// Total accepted migrations across steps.
    pub fn total_migrations(&self) -> usize {
        self.steps.iter().map(|s| s.migrations).sum()
    }

    /// The per-step `(sample_rate, seconds)` series of Fig 14.
    pub fn sampling_history(&self) -> Vec<(f64, f64)> {
        self.steps.iter().map(|s| (s.sample_rate, s.duration.as_secs_f64())).collect()
    }
}
