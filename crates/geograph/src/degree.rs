//! Degree statistics and the hybrid-cut high/low-degree threshold θ.

use crate::csr::Graph;
use crate::VertexId;

/// Summary statistics over a graph's in-degree distribution.
///
/// Hybrid-cut (paper §III-B) splits vertices into high-degree (`in ≥ θ`) and
/// low-degree classes; everything downstream — partitioning rules, the
/// differentiated computation model, RLCut's degree-aware agent sampling —
/// keys off this classification.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DegreeStats {
    pub max_in: usize,
    pub max_out: usize,
    pub mean_in: f64,
    /// 99th-percentile in-degree.
    pub p99_in: usize,
    /// Fraction of edges pointing at the top 1 % of vertices by in-degree —
    /// a cheap skew indicator (≈0.01–0.05 for uniform graphs, ≫0.2 for
    /// power-law graphs).
    pub top1pct_edge_share: f64,
}

impl DegreeStats {
    /// Computes stats in one pass over the degree arrays. A graph without
    /// vertices has all-zero stats.
    pub fn compute(graph: &Graph) -> Self {
        let n = graph.num_vertices();
        if n == 0 {
            return DegreeStats {
                max_in: 0,
                max_out: 0,
                mean_in: 0.0,
                p99_in: 0,
                top1pct_edge_share: 0.0,
            };
        }
        let max_out = graph.vertices().map(|v| graph.out_degree(v)).max().unwrap_or(0);
        let in_degrees = sorted_in_degrees(graph);
        let total = graph.num_edges() as u64;
        let top_edges: u64 = in_degrees[n - n.div_ceil(100)..].iter().map(|&d| d as u64).sum();
        DegreeStats {
            max_in: in_degrees[n - 1] as usize,
            max_out,
            mean_in: total as f64 / n as f64,
            p99_in: in_degrees[((n - 1) as f64 * 0.99) as usize] as usize,
            top1pct_edge_share: if total == 0 { 0.0 } else { top_edges as f64 / total as f64 },
        }
    }
}

/// Every vertex's in-degree, ascending. `u32` entries: a degree is bounded
/// by the edge count, which a [`Graph`] keeps below 2^32.
fn sorted_in_degrees(graph: &Graph) -> Vec<u32> {
    let mut in_degrees: Vec<u32> = graph.vertices().map(|v| graph.in_degree(v) as u32).collect();
    in_degrees.sort_unstable();
    in_degrees
}

/// Suggests the hybrid-cut threshold θ so that roughly `high_fraction` of
/// vertices are classified high-degree.
///
/// PowerLyra's evaluation found thresholds around 100 work well for natural
/// graphs; scaled-down analogs need a proportionally lower θ, so the
/// reproduction picks it from the degree distribution instead of hardcoding.
pub fn suggest_theta(graph: &Graph, high_fraction: f64) -> usize {
    assert!((0.0..=1.0).contains(&high_fraction));
    let n = graph.num_vertices();
    if n == 0 {
        return 1;
    }
    let idx = (((n as f64) * (1.0 - high_fraction)) as usize).min(n - 1);
    (sorted_in_degrees(graph)[idx] as usize).max(1)
}

/// Classifies every vertex: `true` = high-degree (`in_degree >= theta`).
pub fn classify_high_degree(graph: &Graph, theta: usize) -> Vec<bool> {
    (0..graph.num_vertices() as VertexId).map(|v| graph.in_degree(v) >= theta).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{erdos_renyi, rmat, RmatConfig};

    #[test]
    fn stats_on_tiny_graph() {
        let g = Graph::from_edges(4, &[(0, 3), (1, 3), (2, 3)]);
        let s = DegreeStats::compute(&g);
        assert_eq!(s.max_in, 3);
        assert_eq!(s.max_out, 1);
        assert!((s.mean_in - 0.75).abs() < 1e-9);
    }

    #[test]
    fn skew_indicator_separates_models() {
        let uniform = erdos_renyi(2000, 20_000, 1);
        let skewed = rmat(&RmatConfig::web(2048, 20_480), 1);
        let su = DegreeStats::compute(&uniform);
        let ss = DegreeStats::compute(&skewed);
        assert!(
            ss.top1pct_edge_share > 2.0 * su.top1pct_edge_share,
            "rmat {:.3} vs er {:.3}",
            ss.top1pct_edge_share,
            su.top1pct_edge_share
        );
    }

    #[test]
    fn theta_controls_high_fraction() {
        let g = rmat(&RmatConfig::social(4096, 40_960), 2);
        let theta = suggest_theta(&g, 0.05);
        let high = classify_high_degree(&g, theta);
        let frac = high.iter().filter(|&&h| h).count() as f64 / g.num_vertices() as f64;
        assert!(frac > 0.005 && frac < 0.2, "high fraction {frac}");
    }

    #[test]
    fn theta_at_extremes() {
        let g = erdos_renyi(100, 500, 3);
        assert!(suggest_theta(&g, 0.0) >= 1);
        let all_high_theta = suggest_theta(&g, 1.0);
        let high = classify_high_degree(&g, all_high_theta);
        // θ from the min degree: most vertices classify as high.
        assert!(high.iter().filter(|&&h| h).count() > 50);
    }

    #[test]
    fn empty_graph_stats() {
        let g = Graph::empty(1);
        let s = DegreeStats::compute(&g);
        assert_eq!(s.max_in, 0);
        assert_eq!(s.top1pct_edge_share, 0.0);
    }

    #[test]
    fn vertex_free_graph_has_zero_stats() {
        let zero =
            DegreeStats { max_in: 0, max_out: 0, mean_in: 0.0, p99_in: 0, top1pct_edge_share: 0.0 };
        assert_eq!(DegreeStats::compute(&Graph::empty(0)), zero);
        assert_eq!(suggest_theta(&Graph::empty(0), 0.05), 1);
    }
}
