//! Per-agent learning automata: action probabilities (Eq 8/9/12) and UCB
//! statistics (Eq 13).
//!
//! State is stored in flat `agents × M` arrays (struct-of-arrays) — the
//! pool is touched for every sampled agent every step, and row-contiguous
//! layout keeps that pass cache-friendly. An agent is a slot, not a vertex
//! id: the trainer gives the vertex at position `i` of its sampling order
//! slot `i`, so the pool holds only the prefix a session samples.

use geograph::DcId;

use crate::config::RlCutConfig;

/// The pool of the sampled agents' LA state.
#[derive(Clone, Debug)]
pub(crate) struct AgentPool {
    num_actions: usize,
    /// Action probabilities, row per agent, initialized uniform (§IV-B).
    probs: Vec<f32>,
    /// Times each action was selected (UCB `N_n(a)`).
    plays: Vec<u32>,
    /// Per-agent total selections (the `n` in Eq 13).
    total_plays: Vec<u32>,
}

impl AgentPool {
    /// Uniform-initialized pool for `num_agents` agents over `num_actions`
    /// DCs.
    pub(crate) fn new(num_agents: usize, num_actions: usize) -> Self {
        assert!(num_actions >= 1);
        AgentPool {
            num_actions,
            probs: vec![1.0 / num_actions as f32; num_agents * num_actions],
            plays: vec![0; num_agents * num_actions],
            total_plays: vec![0; num_agents],
        }
    }

    /// Number of agents in the pool.
    pub(crate) fn num_agents(&self) -> usize {
        self.total_plays.len()
    }

    /// Grows the pool to `num_agents`: new agents start uniform, as every
    /// agent does, so a pool grown step by step decides exactly as one
    /// allocated at its final size.
    pub(crate) fn grow(&mut self, num_agents: usize) {
        let old = self.num_agents();
        if num_agents <= old {
            return;
        }
        self.probs.resize(num_agents * self.num_actions, 1.0 / self.num_actions as f32);
        self.plays.resize(num_agents * self.num_actions, 0);
        self.total_plays.resize(num_agents, 0);
    }

    /// Reward update (Eq 12 / Eq 8): boost `rewarded`, shrink the rest.
    pub(crate) fn reward(&mut self, agent: usize, rewarded: DcId, alpha: f64) {
        let base = agent * self.num_actions;
        let row = &mut self.probs[base..base + self.num_actions];
        for (j, p) in row.iter_mut().enumerate() {
            if j == rewarded as usize {
                *p += (alpha * (1.0 - *p as f64)) as f32;
            } else {
                *p *= (1.0 - alpha) as f32;
            }
        }
    }

    /// Penalty update (Eq 9) for one punished action: shrink it and
    /// redistribute β to the others. The paper disables this by default
    /// (Fig 6: ~30× slower convergence for the same final quality).
    pub(crate) fn penalize(&mut self, agent: usize, punished: DcId, beta: f64) {
        let m = self.num_actions;
        if m == 1 {
            return;
        }
        let base = agent * m;
        let row = &mut self.probs[base..base + m];
        for (j, p) in row.iter_mut().enumerate() {
            if j == punished as usize {
                *p *= (1.0 - beta) as f32;
            } else {
                *p = (*p as f64 * (1.0 - beta) + beta / (m - 1) as f64) as f32;
            }
        }
    }

    /// UCB action selection (Eq 13): the LA action probability plus a
    /// decaying exploration bonus, `P_v(a) + c·√(ln(n+1)/(N_n(a)+1))`.
    ///
    /// The probability vector learned by Eq 12 is the exploitation term —
    /// so reward/penalty dynamics (Fig 6) directly shape which actions get
    /// proposed — while the visit-count bonus restores the exploration the
    /// reward-only update sacrifices (§IV-C.4). The `+1` smoothing avoids
    /// the cold-start infinities of textbook UCB1, which would waste `M`
    /// of the paper's 10-step horizon on forced exploration.
    pub(crate) fn select_ucb(&self, agent: usize, c: f64) -> DcId {
        let m = self.num_actions;
        let base = agent * m;
        let n = self.total_plays[agent] as f64;
        let ln_n = (n + 1.0).ln();
        let mut best: (DcId, f64) = (0, f64::NEG_INFINITY);
        for a in 0..m {
            let plays = self.plays[base + a] as f64;
            let value = self.probs[base + a] as f64 + c * (ln_n / (plays + 1.0)).sqrt();
            if value > best.1 {
                best = (a as DcId, value);
            }
        }
        best.0
    }

    /// Records that agent `agent` selected `action` (the UCB counts).
    pub(crate) fn record_play(&mut self, agent: usize, action: DcId) {
        self.plays[agent * self.num_actions + action as usize] += 1;
        self.total_plays[agent] += 1;
    }

    /// Fig 5 phases 2–4 for one agent whose score-optimal DC is `best_dc`:
    /// reward it (and, with `use_penalty`, punish the rest), select by UCB
    /// and record the play. Returns the selected DC. Per-agent independent.
    pub(crate) fn learn_and_select(
        &mut self,
        agent: usize,
        best_dc: DcId,
        config: &RlCutConfig,
    ) -> DcId {
        self.reward(agent, best_dc, config.alpha);
        if config.use_penalty {
            for d in (0..self.num_actions as DcId).filter(|&d| d != best_dc) {
                self.penalize(agent, d, config.beta);
            }
        }
        let selected = self.select_ucb(agent, config.ucb_c);
        self.record_play(agent, selected);
        selected
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The probability row of agent `agent`.
    fn probabilities(pool: &AgentPool, agent: usize) -> &[f32] {
        let base = agent * pool.num_actions;
        &pool.probs[base..base + pool.num_actions]
    }

    #[test]
    fn uniform_initialization() {
        let pool = AgentPool::new(3, 4);
        for p in probabilities(&pool, 1) {
            assert!((p - 0.25).abs() < 1e-6);
        }
    }

    #[test]
    fn reward_concentrates_probability() {
        let mut pool = AgentPool::new(1, 4);
        for _ in 0..20 {
            pool.reward(0, 2, 0.3);
        }
        let row = probabilities(&pool, 0);
        assert!(row[2] > 0.99, "action 2 did not concentrate: {row:?}");
        let sum: f32 = row.iter().sum();
        assert!((sum - 1.0).abs() < 1e-3, "probabilities drifted: {sum}");
    }

    #[test]
    fn penalty_redistributes() {
        let mut pool = AgentPool::new(1, 4);
        pool.penalize(0, 0, 0.2);
        let row = probabilities(&pool, 0);
        assert!(row[0] < 0.25);
        assert!(row[1] > 0.25);
        let sum: f32 = row.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
    }

    #[test]
    fn exploration_bonus_rotates_unplayed_actions() {
        let mut pool = AgentPool::new(1, 3);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..3 {
            let a = pool.select_ucb(0, 1.0);
            seen.insert(a);
            pool.record_play(0, a);
        }
        assert_eq!(seen.len(), 3, "with uniform P the bonus must rotate actions");
    }

    #[test]
    fn concentrated_probability_dominates_selection() {
        let mut pool = AgentPool::new(1, 3);
        for _ in 0..10 {
            pool.reward(0, 2, 0.3);
        }
        // Even with a fresh (unplayed) alternative, the near-1.0
        // probability of action 2 wins under a modest bonus.
        pool.record_play(0, 2);
        assert_eq!(pool.select_ucb(0, 0.3), 2);
    }

    #[test]
    fn played_actions_lose_exploration_bonus() {
        let mut pool = AgentPool::new(1, 2);
        // Equal probabilities; action 0 played many times.
        for _ in 0..10 {
            pool.record_play(0, 0);
        }
        assert_eq!(pool.select_ucb(0, 1.0), 1);
    }

    #[test]
    fn grow_preserves_existing_state() {
        let mut pool = AgentPool::new(1, 2);
        pool.reward(0, 1, 0.5);
        let before = probabilities(&pool, 0).to_vec();
        pool.grow(3);
        assert_eq!(pool.num_agents(), 3);
        assert_eq!(probabilities(&pool, 0), &before[..]);
        assert!((probabilities(&pool, 2)[0] - 0.5).abs() < 1e-6);
    }
}
