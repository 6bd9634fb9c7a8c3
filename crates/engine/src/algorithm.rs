//! The evaluation algorithms and their expected traffic profiles.

use geograph::{GeoGraph, VertexId};
use geopart::TrafficProfile;

/// Bytes of one vertex-value message (a rank, a distance, a match count).
pub(crate) const VALUE_BYTES: f32 = 8.0;

/// The three analytics workloads of the paper's evaluation (§VI-A.2).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Algorithm {
    /// PageRank: all vertices active every iteration, fixed-size messages.
    PageRank { iterations: usize, damping: f64 },
    /// Unit-weight SSSP: frontier-driven activation.
    Sssp { source: VertexId },
    /// Subgraph isomorphism (directed-triangle pattern): a few iterations
    /// with candidate-list messages proportional to vertex degree.
    SubgraphIso { iterations: usize },
}

impl Algorithm {
    /// Default PageRank: 10 iterations, 0.85 damping (the paper's default
    /// training horizon uses 10 steps as well).
    pub fn pagerank() -> Self {
        Algorithm::PageRank { iterations: 10, damping: 0.85 }
    }

    /// Default SSSP from the highest-out-degree vertex.
    pub fn sssp(geo: &GeoGraph) -> Self {
        Algorithm::Sssp { source: crate::algorithms::sssp::default_source(&geo.graph) }
    }

    /// Default subgraph isomorphism: 3 pruning rounds.
    pub fn subgraph_iso() -> Self {
        Algorithm::SubgraphIso { iterations: 3 }
    }

    /// The paper's shorthand for the algorithm.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::PageRank { .. } => "PR",
            Algorithm::Sssp { .. } => "SSSP",
            Algorithm::SubgraphIso { .. } => "SI",
        }
    }

    /// Expected per-vertex per-iteration message sizes — what the offline
    /// partitioner optimizes against (it cannot know exact runtime
    /// activity; see `geopart::TrafficProfile`).
    pub fn profile(&self, geo: &GeoGraph) -> TrafficProfile {
        let n = geo.num_vertices();
        match self {
            Algorithm::PageRank { .. } => TrafficProfile::uniform(n, VALUE_BYTES),
            // SSSP: every vertex changes roughly once over the whole run,
            // so with `expected_iterations() = 1` a uniform per-run profile
            // is the right expectation.
            Algorithm::Sssp { .. } => TrafficProfile::uniform(n, VALUE_BYTES),
            // SI: candidate lists scale with degree (capped — systems chunk
            // huge candidate sets).
            Algorithm::SubgraphIso { .. } => {
                let weights: Vec<f32> = (0..n as VertexId)
                    .map(|v| (geo.graph.degree(v).min(64) as f32).max(1.0))
                    .collect();
                TrafficProfile::weighted(&weights, VALUE_BYTES)
            }
        }
    }

    /// Number of iterations the partitioner's cost model charges for
    /// (Eq 7 sums runtime cost over iterations).
    pub fn expected_iterations(&self) -> f64 {
        match self {
            Algorithm::PageRank { iterations, .. } => *iterations as f64,
            Algorithm::Sssp { .. } => 1.0,
            Algorithm::SubgraphIso { iterations } => *iterations as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geograph::generators::erdos_renyi;
    use geograph::locality::LocalityConfig;

    fn geo() -> GeoGraph {
        GeoGraph::from_graph(erdos_renyi(100, 500, 1), &LocalityConfig::uniform(4, 1))
    }

    #[test]
    fn names() {
        let g = geo();
        assert_eq!(Algorithm::pagerank().name(), "PR");
        assert_eq!(Algorithm::sssp(&g).name(), "SSSP");
        assert_eq!(Algorithm::subgraph_iso().name(), "SI");
    }

    #[test]
    fn profiles_cover_all_vertices() {
        let g = geo();
        for algo in [Algorithm::pagerank(), Algorithm::sssp(&g), Algorithm::subgraph_iso()] {
            assert_eq!(algo.profile(&g).len(), g.num_vertices());
        }
    }

    #[test]
    fn si_profile_scales_with_degree() {
        let g = geo();
        let p = Algorithm::subgraph_iso().profile(&g);
        let (mut lo, mut hi) = (None, None);
        for v in 0..g.num_vertices() as VertexId {
            match g.graph.degree(v) {
                0 | 1 => lo = lo.or(Some(v)),
                d if d >= 8 => hi = hi.or(Some(v)),
                _ => {}
            }
        }
        if let (Some(lo), Some(hi)) = (lo, hi) {
            assert!(p.units(hi).unwrap().0 > p.units(lo).unwrap().0);
        }
    }

    #[test]
    fn expected_iterations() {
        let g = geo();
        assert_eq!(Algorithm::pagerank().expected_iterations(), 10.0);
        assert_eq!(Algorithm::sssp(&g).expected_iterations(), 1.0);
        assert_eq!(Algorithm::subgraph_iso().expected_iterations(), 3.0);
    }
}
