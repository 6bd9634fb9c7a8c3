//! Directed triangle counting — the concrete pattern behind the paper's
//! Subgraph Isomorphism workload (matching the 3-cycle `u→v→w→u`).

use geograph::Graph;
use geograph::VertexId;

/// Counts directed 3-cycles `u → v → w → u`. Each cycle is counted once
/// (anchored at its smallest vertex id).
pub(crate) fn triangle_count(graph: &Graph) -> u64 {
    let mut count = 0u64;
    for u in 0..graph.num_vertices() as VertexId {
        for &v in graph.out_neighbors(u) {
            if v <= u {
                continue; // anchor at the smallest id: require u < v, u < w
            }
            for &w in graph.out_neighbors(v) {
                if w > u && w != v && graph.has_edge(w, u) {
                    count += 1;
                }
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_cycle() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        assert_eq!(triangle_count(&g), 1);
    }

    #[test]
    fn no_cycle_in_dag() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        assert_eq!(triangle_count(&g), 0);
    }

    #[test]
    fn reverse_cycle_also_counts() {
        let g = Graph::from_edges(3, &[(0, 2), (2, 1), (1, 0)]);
        assert_eq!(triangle_count(&g), 1);
    }

    #[test]
    fn both_orientations_count_twice() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2), (2, 0), (0, 2), (2, 1), (1, 0)]);
        assert_eq!(triangle_count(&g), 2);
    }

    #[test]
    fn disjoint_cycles_sum() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]);
        assert_eq!(triangle_count(&g), 2);
    }

    #[test]
    fn two_cycle_is_not_a_triangle() {
        let g = Graph::from_edges(2, &[(0, 1), (1, 0)]);
        assert_eq!(triangle_count(&g), 0);
    }
}
