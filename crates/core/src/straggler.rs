//! Straggler mitigation: degree-balanced agent→thread assignment (§V-B).
//!
//! The score-function computation dominates a training step and its cost
//! is proportional to the vertex degree (the `O(deg(v))` incremental
//! evaluator). Equal agent *counts* per thread therefore load-imbalances
//! badly on power-law graphs; the paper assigns agents to threads
//! minimizing the variance of per-thread degree sums with a greedy
//! longest-processing-time rule.

use geograph::{Graph, VertexId};

/// Assigns `agents` to `num_threads` groups balancing the per-group degree
/// sums (greedy LPT: heaviest agent first, to the lightest group). A group
/// holds positions into `agents`.
pub(crate) fn balanced_assignment(
    graph: &Graph,
    agents: &[VertexId],
    num_threads: usize,
) -> Vec<Vec<usize>> {
    assert!(num_threads >= 1);
    let mut by_weight: Vec<usize> = (0..agents.len()).collect();
    // Heaviest first; stable tie-break by id for determinism.
    by_weight.sort_by_key(|&i| (std::cmp::Reverse(graph.degree(agents[i])), agents[i]));
    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); num_threads];
    let mut loads = vec![0u64; num_threads];
    for i in by_weight {
        let lightest = loads.iter().enumerate().min_by_key(|&(_, &l)| l).map(|(g, _)| g).unwrap();
        // +1 so degree-0 agents still cost something (they run the loop).
        loads[lightest] += graph.degree(agents[i]) as u64 + 1;
        groups[lightest].push(i);
    }
    groups
}

/// The naive assignment of `num_agents` positions (round-robin) — the
/// ablation the paper's §V-B argues against.
pub(crate) fn round_robin_assignment(num_agents: usize, num_threads: usize) -> Vec<Vec<usize>> {
    assert!(num_threads >= 1);
    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); num_threads];
    for i in 0..num_agents {
        groups[i % num_threads].push(i);
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use geograph::generators::{rmat, RmatConfig};

    /// Max/mean ratio of per-group degree sums (groups of positions into
    /// `agents`) — 1.0 is perfect balance.
    fn load_imbalance(graph: &Graph, agents: &[VertexId], groups: &[Vec<usize>]) -> f64 {
        let loads: Vec<u64> = groups
            .iter()
            .map(|g| g.iter().map(|&i| graph.degree(agents[i]) as u64 + 1).sum())
            .collect();
        let total: u64 = loads.iter().sum();
        if total == 0 {
            return 1.0;
        }
        let mean = total as f64 / loads.len() as f64;
        *loads.iter().max().unwrap() as f64 / mean
    }

    #[test]
    fn covers_all_agents_once() {
        let g = rmat(&RmatConfig::social(512, 4096), 11);
        let agents: Vec<VertexId> = (0..512).collect();
        let groups = balanced_assignment(&g, &agents, 4);
        let mut all: Vec<VertexId> = groups.iter().flatten().map(|&i| agents[i]).collect();
        all.sort_unstable();
        assert_eq!(all, agents);
    }

    #[test]
    fn beats_round_robin_on_skewed_graphs() {
        let g = rmat(&RmatConfig::web(2048, 32768), 11);
        let agents: Vec<VertexId> = (0..2048).collect();
        let balanced = load_imbalance(&g, &agents, &balanced_assignment(&g, &agents, 8));
        let naive = load_imbalance(&g, &agents, &round_robin_assignment(agents.len(), 8));
        assert!(balanced <= naive, "LPT {balanced} should not lose to round-robin {naive}");
        assert!(balanced < 1.1, "LPT imbalance too high: {balanced}");
    }

    #[test]
    fn single_thread_degenerate() {
        let g = rmat(&RmatConfig::social(64, 256), 1);
        let agents: Vec<VertexId> = (0..64).collect();
        let groups = balanced_assignment(&g, &agents, 1);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].len(), 64);
        assert_eq!(load_imbalance(&g, &agents, &groups), 1.0);
    }

    #[test]
    fn more_threads_than_agents() {
        let g = rmat(&RmatConfig::social(64, 256), 2);
        let groups = balanced_assignment(&g, &[1, 2], 8);
        let non_empty = groups.iter().filter(|g| !g.is_empty()).count();
        assert_eq!(non_empty, 2);
    }

    #[test]
    fn deterministic() {
        let g = rmat(&RmatConfig::social(256, 2048), 3);
        let agents: Vec<VertexId> = (0..256).collect();
        assert_eq!(balanced_assignment(&g, &agents, 4), balanced_assignment(&g, &agents, 4));
    }
}
