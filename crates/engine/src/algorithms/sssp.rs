//! Single-source shortest paths with unit edge weights (frontier-driven
//! label correcting — the activation pattern is what matters to the
//! traffic model).

use geograph::Graph;
use geograph::VertexId;

/// Distance assigned to unreachable vertices.
pub(crate) const UNREACHABLE: u32 = u32::MAX;

/// Result of a BFS/SSSP execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct BfsResult {
    /// Hop distance from the source (`UNREACHABLE` if not reachable).
    pub distances: Vec<u32>,
    /// The frontier of each round: `frontiers[i]` is the set of vertices
    /// whose distance settled at round `i` (round 0 = the source). These
    /// are the *changed* sets driving activation-based traffic.
    pub frontiers: Vec<Vec<VertexId>>,
}

/// Runs unit-weight SSSP from `source` along out-edges.
pub(crate) fn bfs_levels(graph: &Graph, source: VertexId) -> BfsResult {
    let n = graph.num_vertices();
    assert!((source as usize) < n, "source out of range");
    let mut distances = vec![UNREACHABLE; n];
    distances[source as usize] = 0;
    let mut frontiers = vec![vec![source]];
    loop {
        let current = frontiers.last().unwrap();
        let next_dist = frontiers.len() as u32;
        let mut next = Vec::new();
        for &u in current {
            for &v in graph.out_neighbors(u) {
                if distances[v as usize] == UNREACHABLE {
                    distances[v as usize] = next_dist;
                    next.push(v);
                }
            }
        }
        if next.is_empty() {
            break;
        }
        frontiers.push(next);
    }
    BfsResult { distances, frontiers }
}

/// Picks the paper-style default source: the vertex with the highest
/// out-degree (guarantees a non-trivial traversal on power-law graphs).
pub(crate) fn default_source(graph: &Graph) -> VertexId {
    (0..graph.num_vertices() as VertexId).max_by_key(|&v| graph.out_degree(v)).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_graph_distances() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let r = bfs_levels(&g, 0);
        assert_eq!(r.distances, vec![0, 1, 2, 3]);
        assert_eq!(r.frontiers.len(), 4);
    }

    #[test]
    fn unreachable_marked() {
        let g = Graph::from_edges(3, &[(0, 1)]);
        let r = bfs_levels(&g, 0);
        assert_eq!(r.distances[2], UNREACHABLE);
    }

    #[test]
    fn frontiers_partition_reachable_set() {
        let g = Graph::from_edges(6, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]);
        let r = bfs_levels(&g, 0);
        let total: usize = r.frontiers.iter().map(|f| f.len()).sum();
        let reachable = r.distances.iter().filter(|&&d| d != UNREACHABLE).count();
        assert_eq!(total, reachable);
        // Every frontier vertex's distance equals its round index.
        for (round, frontier) in r.frontiers.iter().enumerate() {
            for &v in frontier {
                assert_eq!(r.distances[v as usize], round as u32);
            }
        }
    }

    #[test]
    fn respects_edge_direction() {
        let g = Graph::from_edges(2, &[(1, 0)]);
        let r = bfs_levels(&g, 0);
        assert_eq!(r.distances[1], UNREACHABLE);
    }

    #[test]
    fn default_source_is_max_out_degree() {
        let g = Graph::from_edges(4, &[(2, 0), (2, 1), (2, 3), (0, 1)]);
        assert_eq!(default_source(&g), 2);
    }
}
