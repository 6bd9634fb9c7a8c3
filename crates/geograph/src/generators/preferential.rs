//! Preferential-attachment ("rich get richer") edge sequences.
//!
//! Unlike R-MAT, this generator has a natural *arrival order*: vertex `t`
//! joins at time `t` and wires to existing vertices proportionally to their
//! current degree. Dynamic-graph experiments (Fig 4, Exp#5) use it to
//! produce realistic insertion streams.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::VertexId;

/// Generates a preferential-attachment digraph: each new vertex adds
/// `edges_per_vertex` out-edges to targets sampled proportionally to
/// in-degree + 1. Returns the edges in arrival order (useful for streams)
/// along with the built graph.
pub fn preferential_attachment_edges(
    num_vertices: usize,
    edges_per_vertex: usize,
    seed: u64,
) -> Vec<(VertexId, VertexId)> {
    assert!(num_vertices >= 2);
    assert!(edges_per_vertex >= 1);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x2545_f491_4f6c_dd1d);
    // `targets` holds one entry per (in-degree + 1) unit, so uniform sampling
    // from it is degree-proportional sampling.
    let mut targets: Vec<VertexId> = vec![0, 1];
    let mut edges = Vec::with_capacity(num_vertices * edges_per_vertex);
    edges.push((0 as VertexId, 1 as VertexId));
    targets.push(1);
    for v in 2..num_vertices as VertexId {
        targets.push(v); // the +1 smoothing entry for the newcomer
        for _ in 0..edges_per_vertex {
            let t = targets[rng.gen_range(0..targets.len())];
            if t == v {
                continue;
            }
            edges.push((v, t));
            targets.push(t);
        }
    }
    edges
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    #[test]
    fn deterministic() {
        assert_eq!(
            preferential_attachment_edges(500, 3, 11),
            preferential_attachment_edges(500, 3, 11)
        );
    }

    #[test]
    fn arrival_order_is_by_source() {
        let edges = preferential_attachment_edges(200, 2, 1);
        let sources: Vec<_> = edges.iter().map(|&(u, _)| u).collect();
        let mut sorted = sources.clone();
        sorted.sort_unstable();
        assert_eq!(sources, sorted, "edges must arrive in vertex-join order");
    }

    #[test]
    fn targets_precede_sources() {
        for &(u, v) in &preferential_attachment_edges(300, 2, 2) {
            assert!(v < u || (u, v) == (0, 1), "edge ({u},{v}) targets a future vertex");
        }
    }

    #[test]
    fn produces_skew() {
        let mut b = GraphBuilder::new(2000);
        b.add_edges(preferential_attachment_edges(2000, 4, 3));
        let g = b.build();
        let max_in = g.vertices().map(|v| g.in_degree(v)).max().unwrap();
        let mean = g.num_edges() as f64 / g.num_vertices() as f64;
        assert!(max_in as f64 > 8.0 * mean, "max_in={max_in} mean={mean:.1}");
    }
}
