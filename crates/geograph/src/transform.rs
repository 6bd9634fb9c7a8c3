//! Structural graph transforms: induced subgraphs and weakly-connected-
//! component extraction — the usual preprocessing steps before
//! partitioning real datasets.

use crate::csr::Graph;
use crate::GraphBuilder;
use crate::VertexId;

/// The subgraph induced by `keep` (a boolean mask): kept vertices are
/// renumbered densely in id order; returns the subgraph and the mapping
/// `old id -> new id` (`None` for dropped vertices).
pub(crate) fn induced_subgraph(graph: &Graph, keep: &[bool]) -> (Graph, Vec<Option<VertexId>>) {
    assert_eq!(keep.len(), graph.num_vertices());
    let mut mapping: Vec<Option<VertexId>> = vec![None; keep.len()];
    let mut next = 0 as VertexId;
    for (v, &k) in keep.iter().enumerate() {
        if k {
            mapping[v] = Some(next);
            next += 1;
        }
    }
    let mut b = GraphBuilder::new(next as usize);
    for (u, v) in graph.edges() {
        if let (Some(nu), Some(nv)) = (mapping[u as usize], mapping[v as usize]) {
            b.add_edge(nu, nv);
        }
    }
    (b.build(), mapping)
}

/// Weakly-connected-component label of every vertex (labels are the
/// smallest vertex id in the component).
pub(crate) fn weakly_connected_components(graph: &Graph) -> Vec<VertexId> {
    let n = graph.num_vertices();
    let mut label: Vec<VertexId> = vec![VertexId::MAX; n];
    let mut stack = Vec::new();
    for root in 0..n as VertexId {
        if label[root as usize] != VertexId::MAX {
            continue;
        }
        label[root as usize] = root;
        stack.push(root);
        while let Some(v) = stack.pop() {
            for &u in graph.out_neighbors(v).iter().chain(graph.in_neighbors(v)) {
                if label[u as usize] == VertexId::MAX {
                    label[u as usize] = root;
                    stack.push(u);
                }
            }
        }
    }
    label
}

/// Extracts the largest weakly connected component as a dense subgraph,
/// returning it with the `old -> new` id mapping.
pub fn largest_wcc(graph: &Graph) -> (Graph, Vec<Option<VertexId>>) {
    let labels = weakly_connected_components(graph);
    let mut counts: std::collections::HashMap<VertexId, usize> = std::collections::HashMap::new();
    for &l in &labels {
        *counts.entry(l).or_insert(0) += 1;
    }
    let Some((&biggest, _)) = counts.iter().max_by_key(|&(&l, &c)| (c, std::cmp::Reverse(l)))
    else {
        return (Graph::empty(0), Vec::new());
    };
    let keep: Vec<bool> = labels.iter().map(|&l| l == biggest).collect();
    induced_subgraph(graph, &keep)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Graph {
        // Two components: {0,1,2} (path) and {3,4} (edge).
        Graph::from_edges(5, &[(0, 1), (1, 2), (3, 4)])
    }

    #[test]
    fn wcc_labels() {
        let labels = weakly_connected_components(&sample());
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[1], labels[2]);
        assert_eq!(labels[3], labels[4]);
        assert_ne!(labels[0], labels[3]);
    }

    #[test]
    fn wcc_ignores_direction() {
        // 0 -> 1 <- 2: weakly connected despite no directed path 0->2.
        let g = Graph::from_edges(3, &[(0, 1), (2, 1)]);
        let labels = weakly_connected_components(&g);
        assert!(labels.iter().all(|&l| l == labels[0]));
    }

    #[test]
    fn induced_subgraph_renumbers() {
        let g = sample();
        let keep = vec![true, true, false, true, true];
        let (sub, mapping) = induced_subgraph(&g, &keep);
        assert_eq!(sub.num_vertices(), 4);
        assert_eq!(mapping[2], None);
        assert_eq!(mapping[3], Some(2));
        // Edge (0,1) survives; (1,2) dropped; (3,4) -> (2,3).
        assert!(sub.has_edge(0, 1));
        assert!(sub.has_edge(2, 3));
        assert_eq!(sub.num_edges(), 2);
    }

    #[test]
    fn largest_wcc_extraction() {
        let (sub, mapping) = largest_wcc(&sample());
        assert_eq!(sub.num_vertices(), 3);
        assert_eq!(sub.num_edges(), 2);
        assert!(mapping[3].is_none() && mapping[4].is_none());
    }

    #[test]
    fn largest_wcc_of_empty_graph() {
        let (sub, _) = largest_wcc(&Graph::empty(0));
        assert_eq!(sub.num_vertices(), 0);
    }
}
