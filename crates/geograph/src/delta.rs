//! First-class graph deltas: the net effect of one window's edge events.
//!
//! The dynamic pipeline used to force every time window through a full
//! `GraphBuilder` replay into a fresh CSR, so window cost scaled with the
//! total graph instead of the update batch. A [`GraphDelta`] captures the
//! *net* mutation of a window — new vertices, inserted and deleted edges,
//! the deduped touched-vertex set, and per-endpoint degree changes — in a
//! canonical form that every downstream consumer (CSR overlay via
//! [`Graph::apply_delta_in_place`](crate::Graph::apply_delta_in_place),
//! incremental placement state, streaming baselines) can share.
//!
//! ## Contract
//!
//! A delta is always expressed **against a cleaned base graph** (deduped,
//! self-loop-free — [`crate::GraphBuilder`]'s default output) and is itself
//! cleaned the same way:
//!
//! * self-loop events are dropped,
//! * inserting an edge the base graph already has is a no-op,
//! * deleting an edge the base graph does not have is a no-op,
//! * within one window only the *last* event per edge key counts
//!   (insert-then-delete cancels out, delete-then-insert of an existing
//!   edge keeps it).
//!
//! Edge lists are sorted `(src, dst)` and duplicate-free; `touched` is the
//! sorted deduped set of endpoints whose adjacency actually changes. This
//! canonical form is what makes the incremental placement-state update
//! (geopart) bit-for-bit reproducible against a from-scratch rebuild.

use crate::csr::Graph;
use crate::dynamic::{EdgeEvent, EventKind};
use crate::fxhash::FxHashMap;
use crate::VertexId;

/// Net effect of a batch of edge events on a cleaned base graph.
///
/// Construct with [`GraphDelta::from_events`]; apply with
/// [`Graph::apply_delta_in_place`](crate::Graph::apply_delta_in_place)
/// (CSR overlay) or the incremental placement-state paths built on top of
/// it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GraphDelta {
    old_num_vertices: usize,
    new_num_vertices: usize,
    /// Net-inserted edges, sorted by `(src, dst)`, duplicate-free, none
    /// present in the base graph.
    inserted: Vec<(VertexId, VertexId)>,
    /// Net-deleted edges, sorted by `(src, dst)`, duplicate-free, all
    /// present in the base graph.
    deleted: Vec<(VertexId, VertexId)>,
    /// Sorted deduped endpoints of `inserted ∪ deleted` — every vertex
    /// whose adjacency changes. New vertices appear here only if they gain
    /// an edge.
    touched: Vec<VertexId>,
    /// Sparse per-endpoint in-degree changes, sorted by vertex. Hybrid-cut
    /// classifies by in-degree, so these are exactly the vertices whose
    /// degree class can flip.
    in_degree_changes: Vec<(VertexId, i64)>,
}

impl GraphDelta {
    /// Computes the net effect of `events` (in order) against `graph`.
    ///
    /// Events referencing ids `>= graph.num_vertices()` grow the vertex
    /// set; `new_num_vertices` covers the highest id seen even when the
    /// event carrying it nets out (the vertex arrival still happened).
    pub fn from_events(graph: &Graph, events: &[EdgeEvent]) -> GraphDelta {
        let old_n = graph.num_vertices();
        let mut new_n = old_n;
        // Last event per edge key wins; insertion order of first touch is
        // kept so the later sort is over unique keys only.
        let mut last: FxHashMap<(VertexId, VertexId), EventKind> = FxHashMap::default();
        for e in events {
            new_n = new_n.max(e.src.max(e.dst) as usize + 1);
            if e.src == e.dst {
                continue; // cleaned form: self-loops dropped
            }
            last.insert((e.src, e.dst), e.kind);
        }
        let mut inserted = Vec::new();
        let mut deleted = Vec::new();
        for (&(u, v), &kind) in &last {
            let exists = (u as usize) < old_n && (v as usize) < old_n && graph.has_edge(u, v);
            match kind {
                EventKind::Insert if !exists => inserted.push((u, v)),
                EventKind::Delete if exists => deleted.push((u, v)),
                _ => {} // insert-of-existing / delete-of-missing: no-ops
            }
        }
        inserted.sort_unstable();
        deleted.sort_unstable();
        Self::from_net_edges(old_n, new_n, inserted, deleted)
    }

    /// Assembles a delta from its *net* edge lists (sorted, duplicate-free,
    /// disjoint), deriving `touched` and the sparse degree changes exactly
    /// as [`from_events`](Self::from_events) would. This is the wire-decode
    /// path: the derived fields never travel, so they can't disagree.
    pub(crate) fn from_net_edges(
        old_n: usize,
        new_n: usize,
        inserted: Vec<(VertexId, VertexId)>,
        deleted: Vec<(VertexId, VertexId)>,
    ) -> GraphDelta {
        let mut touched: Vec<VertexId> = Vec::with_capacity(2 * (inserted.len() + deleted.len()));
        let mut degree_changes: FxHashMap<VertexId, i64> = FxHashMap::default();
        for &(u, v) in &inserted {
            touched.push(u);
            touched.push(v);
            *degree_changes.entry(v).or_default() += 1;
        }
        for &(u, v) in &deleted {
            touched.push(u);
            touched.push(v);
            *degree_changes.entry(v).or_default() -= 1;
        }
        touched.sort_unstable();
        touched.dedup();
        let mut in_degree_changes: Vec<(VertexId, i64)> =
            degree_changes.into_iter().filter(|&(_, din)| din != 0).collect();
        in_degree_changes.sort_unstable();

        GraphDelta {
            old_num_vertices: old_n,
            new_num_vertices: new_n,
            inserted,
            deleted,
            touched,
            in_degree_changes,
        }
    }

    /// Vertex count of the base graph this delta applies to.
    #[inline]
    pub fn old_num_vertices(&self) -> usize {
        self.old_num_vertices
    }

    /// Vertex count after applying the delta (graphs only grow).
    #[inline]
    pub fn new_num_vertices(&self) -> usize {
        self.new_num_vertices
    }

    /// Ids of vertices introduced by this delta (`old..new`, in order).
    pub fn new_vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.old_num_vertices as VertexId..self.new_num_vertices as VertexId
    }

    /// Net-inserted edges, sorted by `(src, dst)`.
    #[inline]
    pub fn inserted(&self) -> &[(VertexId, VertexId)] {
        &self.inserted
    }

    /// Net-deleted edges, sorted by `(src, dst)`; all exist in the base.
    #[inline]
    pub fn deleted(&self) -> &[(VertexId, VertexId)] {
        &self.deleted
    }

    /// Sorted deduped endpoints whose adjacency changes.
    #[inline]
    pub fn touched(&self) -> &[VertexId] {
        &self.touched
    }

    /// Sparse in-degree changes `(vertex, net change)`, sorted by vertex.
    #[inline]
    pub fn in_degree_changes(&self) -> &[(VertexId, i64)] {
        &self.in_degree_changes
    }

    /// True when the delta neither grows the graph nor changes any edge.
    pub fn is_empty(&self) -> bool {
        self.new_num_vertices == self.old_num_vertices
            && self.inserted.is_empty()
            && self.deleted.is_empty()
    }

    /// Number of net edge mutations (`inserted + deleted`).
    pub fn num_edge_changes(&self) -> usize {
        self.inserted.len() + self.deleted.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn ev(src: u32, dst: u32, ts: u64, kind: EventKind) -> EdgeEvent {
        EdgeEvent { src, dst, timestamp_ms: ts, kind }
    }

    fn base() -> Graph {
        let mut b = GraphBuilder::new(4);
        b.add_edges([(0u32, 1u32), (1, 2), (2, 3)]);
        b.build()
    }

    #[test]
    fn net_effect_semantics() {
        let g = base();
        let events = vec![
            ev(0, 1, 0, EventKind::Insert), // insert-of-existing: no-op
            ev(1, 2, 1, EventKind::Delete), // real delete
            ev(3, 0, 2, EventKind::Insert), // real insert
            ev(2, 3, 3, EventKind::Delete), // delete...
            ev(2, 3, 4, EventKind::Insert), // ...then re-insert: edge stays, no-op
            ev(0, 3, 5, EventKind::Delete), // delete-of-missing: no-op
            ev(1, 1, 6, EventKind::Insert), // self-loop: dropped
            ev(5, 0, 7, EventKind::Insert), // new vertex 5 (and 4 implicitly)
        ];
        let d = GraphDelta::from_events(&g, &events);
        assert_eq!(d.old_num_vertices(), 4);
        assert_eq!(d.new_num_vertices(), 6);
        assert_eq!(d.new_vertices().collect::<Vec<_>>(), vec![4, 5]);
        assert_eq!(d.inserted(), &[(3, 0), (5, 0)]);
        assert_eq!(d.deleted(), &[(1, 2)]);
        assert_eq!(d.touched(), &[0, 1, 2, 3, 5]);
    }

    #[test]
    fn insert_then_delete_cancels() {
        let g = base();
        let events = vec![ev(0, 3, 0, EventKind::Insert), ev(0, 3, 1, EventKind::Delete)];
        let d = GraphDelta::from_events(&g, &events);
        assert!(d.inserted().is_empty() && d.deleted().is_empty());
        assert!(d.is_empty());
        assert!(d.touched().is_empty());
    }

    #[test]
    fn vertex_arrival_survives_cancelled_edge() {
        let g = base();
        // The edge nets out but vertex 7 still arrived.
        let events = vec![ev(7, 0, 0, EventKind::Insert), ev(7, 0, 1, EventKind::Delete)];
        let d = GraphDelta::from_events(&g, &events);
        assert_eq!(d.new_num_vertices(), 8);
        assert!(d.inserted().is_empty());
        assert!(!d.is_empty());
    }

    #[test]
    fn degree_changes_are_sparse_and_net() {
        let g = base();
        let events = vec![
            ev(0, 2, 0, EventKind::Insert), // 0.out+1, 2.in+1
            ev(1, 2, 1, EventKind::Delete), // 1.out-1, 2.in-1
        ];
        let d = GraphDelta::from_events(&g, &events);
        // 2's in-degree nets to zero => absent from the sparse list.
        assert_eq!(d.in_degree_changes(), &[] as &[(VertexId, i64)]);
    }

    #[test]
    fn duplicate_inserts_collapse() {
        let g = base();
        let events = vec![
            ev(0, 2, 0, EventKind::Insert),
            ev(0, 2, 1, EventKind::Insert),
            ev(0, 2, 2, EventKind::Insert),
        ];
        let d = GraphDelta::from_events(&g, &events);
        assert_eq!(d.inserted(), &[(0, 2)]);
        assert_eq!(d.num_edge_changes(), 1);
    }
}
