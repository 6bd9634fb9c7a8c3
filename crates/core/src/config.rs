//! RLCut configuration.

use std::time::Duration;

/// Which agents a sampling rate selects (§V-C).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SampleStrategy {
    /// The lowest-degree prefix — the paper's important-agents heuristic
    /// (Fig 9): high-degree vertices have replicas everywhere regardless
    /// of master placement, so their agents contribute little.
    #[default]
    LowestDegree,
    /// A seeded uniform shuffle — the strategy-agnostic baseline used by
    /// the Fig 8 overhead-linearity study and the sampling ablation.
    Random,
}

/// All tuning knobs of the RLCut trainer, with the paper's defaults.
#[derive(Clone, Debug)]
pub struct RlCutConfig {
    /// Budget `B` on total inter-DC communication cost (movement + runtime),
    /// dollars (Eq 7). The evaluation defaults this to 40 % of the cost of
    /// centralizing the graph (§VI-A.4).
    pub budget: f64,
    /// Hybrid-cut degree threshold θ. `None` derives it from the degree
    /// distribution so ~5 % of vertices classify high-degree.
    pub theta: Option<usize>,
    /// LA reward learning rate α (Eq 12).
    pub alpha: f64,
    /// LA penalty learning rate β (Eq 9) — only used with
    /// [`RlCutConfig::use_penalty`].
    pub beta: f64,
    /// Enable penalty-signal probability updates. Off by default: the
    /// paper shows reward-only converges ~30× faster at equal quality
    /// (Fig 6).
    pub use_penalty: bool,
    /// UCB exploration constant `c` (Eq 13).
    pub ucb_c: f64,
    /// Maximum number of training steps (the paper's default horizon is
    /// 10).
    pub max_steps: usize,
    /// Migration batch size (§V-A). The paper defaults to 48 (its core
    /// count); batch 1 means strictly sequential global optimization.
    pub batch_size: usize,
    /// Worker threads for the parallel phases. `None` = available
    /// parallelism.
    pub num_threads: Option<usize>,
    /// Disable the degree-aware straggler mitigation (§V-B) — ablation
    /// hook; agents are then assigned to threads round-robin.
    pub disable_straggler_mitigation: bool,
    /// Required optimization overhead `T_opt` (§V-C). `None` disables the
    /// adaptive sampler: every agent trains every step. The schedule opens
    /// at Eq 14's `SR_0`, `sampling::INITIAL_SAMPLE_RATE`.
    pub t_opt: Option<Duration>,
    /// Pin the sampling rate (both Exp#3 and Fig 9 fix it). Overrides the
    /// adaptive schedule and `t_opt`-based stopping.
    pub fixed_sample_rate: Option<f64>,
    /// Which agents a sampling rate selects.
    pub sample_strategy: SampleStrategy,
    /// Recency weight λ for the adaptive schedule's rate-per-second
    /// estimate (the paper's Fig 14b future-work improvement). `None`
    /// uses Eq 14 verbatim; `Some(0.5)` is a good starting point.
    pub sampling_recency: Option<f64>,
    /// Stop when a step migrates fewer than this fraction of its sampled
    /// agents.
    pub convergence_fraction: f64,
    pub seed: u64,
}

impl RlCutConfig {
    /// Paper defaults with the given budget.
    pub fn new(budget: f64) -> Self {
        RlCutConfig {
            budget,
            theta: None,
            alpha: 0.3,
            beta: 0.05,
            use_penalty: false,
            ucb_c: 0.5,
            max_steps: 10,
            batch_size: 48,
            num_threads: None,
            disable_straggler_mitigation: false,
            t_opt: None,
            fixed_sample_rate: None,
            sample_strategy: SampleStrategy::default(),
            sampling_recency: None,
            convergence_fraction: 0.001,
            seed: 42,
        }
    }

    /// Builder-style seed override.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style required-overhead override.
    pub fn with_t_opt(mut self, t_opt: Duration) -> Self {
        self.t_opt = Some(t_opt);
        self
    }

    /// Builder-style fixed sampling rate.
    pub fn with_fixed_sample_rate(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate));
        self.fixed_sample_rate = Some(rate);
        self
    }

    /// Builder-style thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads >= 1);
        self.num_threads = Some(threads);
        self
    }

    /// Builder-style batch size.
    pub fn with_batch_size(mut self, batch: usize) -> Self {
        assert!(batch >= 1);
        self.batch_size = batch;
        self
    }

    /// Builder-style step horizon.
    pub fn with_max_steps(mut self, steps: usize) -> Self {
        assert!(steps >= 1);
        self.max_steps = steps;
        self
    }

    /// Builder-style pinned high-degree threshold. Dynamic drivers pin it
    /// so carried windows and per-window rebuilds classify vertices
    /// identically (the default re-derives theta from each snapshot's
    /// degree distribution).
    pub fn with_theta(mut self, theta: usize) -> Self {
        self.theta = Some(theta);
        self
    }

    /// Effective worker-thread count.
    pub(crate) fn threads(&self) -> usize {
        self.num_threads
            .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = RlCutConfig::new(1.0);
        assert_eq!(c.max_steps, 10);
        assert_eq!(c.batch_size, 48);
        assert!(!c.use_penalty);
        assert_eq!(crate::sampling::INITIAL_SAMPLE_RATE, 0.01);
    }

    #[test]
    fn builders() {
        let c = RlCutConfig::new(1.0)
            .with_seed(9)
            .with_threads(2)
            .with_batch_size(4)
            .with_max_steps(3)
            .with_fixed_sample_rate(0.1);
        assert_eq!(c.seed, 9);
        assert_eq!(c.threads(), 2);
        assert_eq!(c.batch_size, 4);
        assert_eq!(c.max_steps, 3);
        assert_eq!(c.fixed_sample_rate, Some(0.1));
    }

    #[test]
    #[should_panic]
    fn invalid_rate_rejected() {
        RlCutConfig::new(1.0).with_fixed_sample_rate(1.5);
    }
}
