//! [`GeoGraph`]: a graph plus its geo-distribution facts.

use crate::csr::Graph;
use crate::locality::{assign_locations, LocalityConfig};
use crate::{DcId, VertexId};

/// A graph whose vertices live in geo-distributed data centers.
///
/// This is the input to every partitioner in the workspace: the structure
/// (`graph`), where each vertex's input data initially resides
/// (`locations`, the paper's `L_v`), and how big that input data is
/// (`data_sizes`, the paper's `d_v` — what moving a master costs, Eq 4).
#[derive(Clone, Debug)]
pub struct GeoGraph {
    pub graph: Graph,
    /// Initial (natural) location of each vertex's input data.
    pub locations: Vec<DcId>,
    /// Input data size per vertex, in bytes.
    pub data_sizes: Vec<u64>,
    /// Number of data centers.
    pub num_dcs: usize,
}

impl GeoGraph {
    /// Assembles a `GeoGraph` from parts, validating shapes.
    pub fn new(graph: Graph, locations: Vec<DcId>, data_sizes: Vec<u64>, num_dcs: usize) -> Self {
        assert_eq!(locations.len(), graph.num_vertices());
        assert_eq!(data_sizes.len(), graph.num_vertices());
        assert!(locations.iter().all(|&d| (d as usize) < num_dcs));
        GeoGraph { graph, locations, data_sizes, num_dcs }
    }

    /// Builds a `GeoGraph` by assigning locations with `config` and sizing
    /// each vertex's input data as `base + per_edge * out_degree` bytes —
    /// a vertex's input record plus its adjacency payload.
    ///
    /// The defaults (64 KiB + 256 B/edge — a user profile plus content per
    /// relationship) keep input data two-plus orders of magnitude heavier
    /// than a whole job's 8-byte-per-vertex messages, matching the paper's
    /// regime: even a 1 % movement budget covers runtime traffic, and the
    /// default 40 % budget affords relocating roughly a third of the
    /// vertices (§VI-A.4, Exp#2).
    pub fn from_graph(graph: Graph, config: &LocalityConfig) -> Self {
        Self::from_graph_with_sizes(graph, config, 65536, 256)
    }

    /// [`GeoGraph::from_graph`] with explicit data-size model parameters.
    pub(crate) fn from_graph_with_sizes(
        graph: Graph,
        config: &LocalityConfig,
        base_bytes: u64,
        per_edge_bytes: u64,
    ) -> Self {
        let locations = assign_locations(&graph, config);
        let data_sizes = (0..graph.num_vertices() as VertexId)
            .map(|v| base_bytes + per_edge_bytes * graph.out_degree(v) as u64)
            .collect();
        GeoGraph { num_dcs: config.num_dcs, locations, data_sizes, graph }
    }

    /// Heap bytes: the CSR plus the per-vertex location and data-size
    /// arrays.
    pub fn heap_bytes(&self) -> usize {
        self.graph.heap_bytes()
            + self.locations.capacity() * std::mem::size_of::<DcId>()
            + self.data_sizes.capacity() * std::mem::size_of::<u64>()
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.graph.num_edges()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::erdos_renyi;

    #[test]
    fn from_graph_shapes() {
        let g = erdos_renyi(500, 2500, 1);
        let gg = GeoGraph::from_graph(g, &LocalityConfig::uniform(4, 1));
        assert_eq!(gg.locations.len(), 500);
        assert_eq!(gg.data_sizes.len(), 500);
        assert_eq!(gg.num_dcs, 4);
    }

    #[test]
    fn data_size_model() {
        let g = Graph::from_edges(3, &[(0, 1), (0, 2)]);
        let gg = GeoGraph::from_graph_with_sizes(g, &LocalityConfig::uniform(2, 1), 100, 10);
        assert_eq!(gg.data_sizes[0], 120); // 100 + 2 out-edges * 10
        assert_eq!(gg.data_sizes[1], 100);
    }

    #[test]
    #[should_panic]
    fn mismatched_shapes_rejected() {
        let g = Graph::empty(3);
        GeoGraph::new(g, vec![0, 0], vec![1, 1, 1], 2);
    }
}
