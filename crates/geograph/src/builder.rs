//! Mutable edge accumulation with cleaning, producing [`Graph`] snapshots.

use crate::csr::Graph;
use crate::stream::{build_streamed, BuildError, StreamConfig};
use crate::VertexId;

/// Accumulates directed edges and builds CSR [`Graph`] snapshots.
///
/// The builder is the mutation point of the crate: generators, dataset
/// loaders and dynamic streams all funnel through it. It optionally removes
/// self-loops and duplicate edges at build time — real-world partitioning
/// papers (including RLCut's evaluation graphs) work on simple digraphs.
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    num_vertices: usize,
    edges: Vec<(VertexId, VertexId)>,
}

impl GraphBuilder {
    /// New builder for a graph with `n` vertices. Deduplication and
    /// self-loop removal are on by default.
    pub fn new(n: usize) -> Self {
        GraphBuilder { num_vertices: n, edges: Vec::new() }
    }

    /// Pre-allocates space for `m` edges.
    pub fn with_edge_capacity(mut self, m: usize) -> Self {
        self.edges.reserve(m);
        self
    }

    /// Adds a directed edge. Ids must be `< n`.
    #[inline]
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) {
        debug_assert!((u as usize) < self.num_vertices && (v as usize) < self.num_vertices);
        self.edges.push((u, v));
    }

    /// Adds many edges.
    pub fn add_edges<I: IntoIterator<Item = (VertexId, VertexId)>>(&mut self, iter: I) {
        self.edges.extend(iter);
    }

    /// Grows the vertex set (new vertices are isolated until edges arrive).
    /// Used by dynamic streams when inserted edges reference new vertices.
    pub(crate) fn grow_vertices(&mut self, n: usize) {
        if n > self.num_vertices {
            self.num_vertices = n;
        }
    }

    /// Number of vertices the built graph will have.
    pub(crate) fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Builds an immutable CSR snapshot, applying the configured cleaning.
    /// The builder keeps its edges, so further additions and rebuilds are
    /// possible (dynamic-graph windows rebuild per window). Panics on every
    /// condition [`GraphBuilder::finish`] reports.
    pub fn build(&self) -> Graph {
        self.try_build().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Non-panicking [`GraphBuilder::build`]: the accumulated list as a
    /// one-chunk, one-thread [`crate::stream::build_chunked`] — read in
    /// place, cleaned by the streamed core (self-loops dropped at emit,
    /// duplicates by run compaction), so the only copy of the edges beside
    /// the list is the CSR under construction. Out-of-range ids and offset
    /// overflow come back as typed [`BuildError`]s; release builds skip the
    /// `add_edge` debug range check, so this is the path that makes
    /// untrusted edge streams safe end to end.
    pub(crate) fn try_build(&self) -> Result<Graph, BuildError> {
        build_streamed(self.num_vertices, || self.edges.iter().copied(), StreamConfig::cleaned())
            .map(|(g, _)| g)
    }

    /// Non-panicking [`GraphBuilder::build`], consuming the builder: the
    /// edge list is freed as soon as the CSR exists.
    pub fn finish(self) -> Result<Graph, BuildError> {
        self.try_build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_and_self_loop_removal() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1);
        b.add_edge(0, 1);
        b.add_edge(1, 1);
        b.add_edge(1, 2);
        let g = b.build();
        assert_eq!(g.num_edges(), 2);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 2));
        assert!(!g.has_edge(1, 1));
    }

    #[test]
    fn grow_vertices_allows_new_ids() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1);
        b.grow_vertices(4);
        b.add_edge(3, 0);
        let g = b.build();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn rebuild_after_additions() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1);
        let g1 = b.build();
        b.add_edge(1, 2);
        let g2 = b.build();
        assert_eq!(g1.num_edges(), 1);
        assert_eq!(g2.num_edges(), 2);
    }

    #[test]
    fn finish_matches_build() {
        let mut b = GraphBuilder::new(4);
        b.add_edges([(0, 1), (0, 1), (2, 2), (3, 0), (1, 2)]);
        let built = b.build();
        assert_eq!(b.finish().unwrap(), built);
    }

    #[test]
    fn try_build_reports_out_of_range() {
        let mut b = GraphBuilder::new(2);
        b.edges.push((0, 9)); // bypasses the debug_assert in add_edge
        assert!(matches!(
            b.try_build(),
            Err(crate::stream::BuildError::EdgeOutOfRange { u: 0, v: 9, n: 2 })
        ));
    }

    #[test]
    fn grow_never_shrinks() {
        let mut b = GraphBuilder::new(5);
        b.grow_vertices(2);
        assert_eq!(b.num_vertices(), 5);
    }
}
