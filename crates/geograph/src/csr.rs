//! Compressed-sparse-row graph with both adjacency directions.

use crate::delta::GraphDelta;
use crate::stream::{build_streamed, BuildError, StreamConfig};
use crate::VertexId;

/// A directed graph in CSR form, storing both out-edges (`v -> ?`) and
/// in-edges (`? -> v`).
///
/// The hybrid-cut model (PowerLyra, adopted by RLCut §III-B) places each
/// edge according to the *in*-degree class of its destination, so in-edge
/// iteration must be as cheap as out-edge iteration; we pay the memory to
/// store both directions.
///
/// Offsets are `u32`: a `Graph` holds fewer than 2^32 edges. Every place
/// one is born — the builder ([`crate::stream`]), the wire decoder
/// ([`crate::wire`]) and [`Graph::apply_delta_in_place`] — enforces that
/// through the one `edge_count` check below.
///
/// Construction is via [`Graph::from_edges`] or [`crate::GraphBuilder`];
/// after that the only mutation is a whole window's [`GraphDelta`]
/// ([`Graph::apply_delta_in_place`]), matching the paper's window-batched
/// update model (§VI-A, Exp#5).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Graph {
    n: usize,
    out_offsets: Vec<u32>,
    out_targets: Vec<VertexId>,
    in_offsets: Vec<u32>,
    in_sources: Vec<VertexId>,
}

/// The one edge-count check behind `u32` offsets: `edges` as an offset
/// value, or [`BuildError::TooManyEdges`] at 2^32 and beyond.
pub(crate) fn edge_count(edges: u64) -> Result<u32, BuildError> {
    u32::try_from(edges).map_err(|_| BuildError::TooManyEdges { edges })
}

/// Row `v` of one CSR direction.
#[inline]
fn row<'a>(offsets: &[u32], flat: &'a [VertexId], v: VertexId) -> &'a [VertexId] {
    &flat[offsets[v as usize] as usize..offsets[v as usize + 1] as usize]
}

impl Graph {
    /// Builds a graph with `n` vertices from a list of directed edges.
    ///
    /// Panics on every condition `Graph::try_from_edges` reports — here an
    /// out-of-range edge is a programming error, not a data error (callers
    /// validate input data in [`crate::io`]). Duplicate edges and self-loops
    /// are kept verbatim; use [`crate::GraphBuilder`] for cleaning.
    pub fn from_edges(n: usize, edges: &[(VertexId, VertexId)]) -> Self {
        Self::try_from_edges(n, edges).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Non-panicking [`Graph::from_edges`]: the slice as a one-chunk,
    /// one-thread [`crate::stream::build_chunked`], so every range and
    /// overflow condition is that builder's typed [`BuildError`]. At paper
    /// scale these are data errors a caller must be able to handle, not
    /// programming errors.
    pub(crate) fn try_from_edges(
        n: usize,
        edges: &[(VertexId, VertexId)],
    ) -> Result<Self, BuildError> {
        build_streamed(n, || edges.iter().copied(), StreamConfig::verbatim()).map(|(g, _)| g)
    }

    /// Assembles a graph directly from CSR arrays. Used by the streaming
    /// ingest path ([`crate::stream`]) and the wire decoder
    /// ([`crate::wire`]), which produce canonical (sorted-run) arrays
    /// without ever materializing an edge list.
    ///
    /// Invariants (checked in debug builds): offset arrays have `n + 1`
    /// monotone entries starting at 0 and ending at the flat length, both
    /// directions hold the same edge count, and every run is sorted.
    pub(crate) fn from_csr_parts(
        n: usize,
        out_offsets: Vec<u32>,
        out_targets: Vec<VertexId>,
        in_offsets: Vec<u32>,
        in_sources: Vec<VertexId>,
    ) -> Self {
        debug_assert_eq!(out_offsets.len(), n + 1);
        debug_assert_eq!(in_offsets.len(), n + 1);
        debug_assert_eq!(out_offsets[0], 0);
        debug_assert_eq!(in_offsets[0], 0);
        debug_assert_eq!(out_offsets[n] as usize, out_targets.len());
        debug_assert_eq!(in_offsets[n] as usize, in_sources.len());
        debug_assert_eq!(out_targets.len(), in_sources.len());
        #[cfg(debug_assertions)]
        for v in 0..n {
            debug_assert!(out_offsets[v] <= out_offsets[v + 1]);
            debug_assert!(in_offsets[v] <= in_offsets[v + 1]);
            debug_assert!(row(&out_offsets, &out_targets, v as VertexId).is_sorted());
            debug_assert!(row(&in_offsets, &in_sources, v as VertexId).is_sorted());
        }
        Graph { n, out_offsets, out_targets, in_offsets, in_sources }
    }

    /// Assembles a graph from its in-direction alone — what the wire
    /// decoder holds ([`crate::wire`] carries no out-direction). The
    /// out-direction is the [`transpose`] of the in-rows, so every out-run
    /// lands sorted with no per-run sort. Rows must be sorted for the result
    /// to be canonical (the decoder guarantees that).
    pub(crate) fn from_in_rows(n: usize, in_offsets: Vec<u32>, in_sources: Vec<VertexId>) -> Self {
        let (out_offsets, out_targets) = transpose(n, &in_offsets, &in_sources);
        Graph::from_csr_parts(n, out_offsets, out_targets, in_offsets, in_sources)
    }

    /// Heap bytes held by the CSR arrays (capacity, both directions).
    pub fn heap_bytes(&self) -> usize {
        (self.out_offsets.capacity() + self.in_offsets.capacity()) * std::mem::size_of::<u32>()
            + (self.out_targets.capacity() + self.in_sources.capacity())
                * std::mem::size_of::<VertexId>()
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of directed edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.out_targets.len()
    }

    /// Out-neighbors of `v` (sorted).
    #[inline]
    pub fn out_neighbors(&self, v: VertexId) -> &[VertexId] {
        row(&self.out_offsets, &self.out_targets, v)
    }

    /// In-neighbors of `v` (sorted). These are the sources of `v`'s
    /// in-edges — the edges hybrid-cut assigns by `v`'s degree class.
    #[inline]
    pub fn in_neighbors(&self, v: VertexId) -> &[VertexId] {
        row(&self.in_offsets, &self.in_sources, v)
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: VertexId) -> usize {
        (self.out_offsets[v as usize + 1] - self.out_offsets[v as usize]) as usize
    }

    /// In-degree of `v`. Hybrid-cut classifies `v` as high-degree when this
    /// is at least the threshold θ (paper §III-B).
    #[inline]
    pub fn in_degree(&self, v: VertexId) -> usize {
        (self.in_offsets[v as usize + 1] - self.in_offsets[v as usize]) as usize
    }

    /// Total degree (in + out) of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.in_degree(v) + self.out_degree(v)
    }

    /// Iterates all vertices `0..n`.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        0..self.n as VertexId
    }

    /// Iterates all directed edges `(src, dst)` in source order.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.vertices().flat_map(move |u| self.out_neighbors(u).iter().map(move |&v| (u, v)))
    }

    /// Offset of `v`'s first in-edge in the flat in-edge array. Together
    /// with [`Graph::in_neighbors`] this gives every in-edge `(v, k)` a
    /// stable flat index `in_edge_offset(v) + k`, which per-edge metadata
    /// (e.g. vertex-cut DC assignments) can be keyed by.
    #[inline]
    pub fn in_edge_offset(&self, v: VertexId) -> usize {
        self.in_offsets[v as usize] as usize
    }

    /// True if the directed edge `(u, v)` exists (binary search).
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.out_neighbors(u).binary_search(&v).is_ok()
    }

    /// An empty graph with `n` isolated vertices.
    pub fn empty(n: usize) -> Self {
        Graph::from_edges(n, &[])
    }

    /// The successor snapshot of this graph under `delta`: a clone advanced
    /// by [`Self::apply_delta_in_place`]. Callers that own the graph and no
    /// longer need the old snapshot should call that instead, which holds
    /// one CSR, not two.
    pub fn apply_delta(&self, delta: &GraphDelta) -> Graph {
        let mut next = self.clone();
        next.apply_delta_in_place(delta);
        next
    }

    /// Advances this graph to its successor under `delta`, in place. Each
    /// direction takes two passes over its flat array: deletions compact
    /// forward (every run moves left), then the array grows once and the
    /// insertions expand backward (every run moves right). Untouched runs
    /// move by one `copy_within`; only touched rows are merged entry by
    /// entry, so no edge list is re-sorted. The offsets are re-shifted in
    /// the same passes (O(n) scalar adds). What it allocates beyond the
    /// arrays' amortized growth is the delta re-sorted by destination.
    ///
    /// Panics if the successor would hold 2^32 edges or more, as
    /// [`Graph::from_edges`] does. `delta` must target this graph
    /// (`delta.old_num_vertices() == n`, checked) and honor the
    /// [`GraphDelta`] cleaning contract: deltas built by
    /// [`GraphDelta::from_events`] always do; hand-rolled deltas that insert
    /// existing edges or delete missing ones produce a corrupt snapshot
    /// (caught by `debug_assert` in debug builds).
    pub fn apply_delta_in_place(&mut self, delta: &GraphDelta) {
        assert_eq!(
            delta.old_num_vertices(),
            self.n,
            "delta targets a graph with {} vertices, this graph has {}",
            delta.old_num_vertices(),
            self.n
        );
        let n = delta.new_num_vertices();
        // The cleaning contract makes the successor's edge count exact:
        // every inserted edge is new, every deleted edge exists.
        let new_m = self.num_edges() + delta.inserted().len() - delta.deleted().len();
        edge_count(new_m as u64).unwrap_or_else(|e| panic!("{e}"));
        // `inserted`/`deleted` are sorted by (src, dst) — ready for the
        // out-direction. The in-direction needs (dst, src) order.
        overlay_in_place(
            n,
            &mut self.out_offsets,
            &mut self.out_targets,
            delta.inserted(),
            delta.deleted(),
        );
        let by_dst = |edges: &[(VertexId, VertexId)]| {
            let mut swapped: Vec<(VertexId, VertexId)> =
                edges.iter().map(|&(u, v)| (v, u)).collect();
            swapped.sort_unstable();
            swapped
        };
        let (ins_by_dst, del_by_dst) = (by_dst(delta.inserted()), by_dst(delta.deleted()));
        overlay_in_place(n, &mut self.in_offsets, &mut self.in_sources, &ins_by_dst, &del_by_dst);
        self.n = n;
    }
}

/// Overlays one adjacency direction in place: `ins`/`del` are
/// `(key, neighbor)` pairs sorted by `(key, neighbor)`. The caller has
/// checked the successor's edge count, so every offset fits `u32`.
fn overlay_in_place(
    new_n: usize,
    offsets: &mut Vec<u32>,
    flat: &mut Vec<VertexId>,
    ins: &[(VertexId, VertexId)],
    del: &[(VertexId, VertexId)],
) {
    let old_n = offsets.len() - 1;
    compact_deletions(offsets, flat, del);
    let len = offsets[old_n];
    offsets.resize(new_n + 1, len);
    flat.resize(len as usize + ins.len(), 0);
    expand_insertions(offsets, flat, ins);
}

/// Deletion pass, front to back. Entering row `v`, `offsets[..=v]` are
/// already final and `removed` entries have been dropped before it, so
/// the row's old run starts at `offsets[v] + removed`; every write lands
/// at or left of its read.
fn compact_deletions(offsets: &mut [u32], flat: &mut Vec<VertexId>, del: &[(VertexId, VertexId)]) {
    let n = offsets.len() - 1;
    let mut removed = 0u32;
    let mut done = 0usize;
    let mut di = 0usize;
    while done < n {
        let next = del.get(di).map_or(n, |&(v, _)| v as usize);
        if removed > 0 && next > done {
            // Untouched rows `done..next`: one move left by `removed`.
            let to = offsets[done] as usize;
            let from = to + removed as usize;
            flat.copy_within(from..offsets[next] as usize, to);
            offsets[done + 1..=next].iter_mut().for_each(|o| *o -= removed);
        }
        if next == n {
            break;
        }
        // Row `next`: keep every old entry the sorted deletions skip.
        let v = next;
        let mut write = offsets[v] as usize;
        let end = offsets[v + 1] as usize;
        for read in write + removed as usize..end {
            let u = flat[read];
            if del.get(di) == Some(&(v as VertexId, u)) {
                di += 1;
                removed += 1;
            } else {
                flat[write] = u;
                write += 1;
            }
        }
        // A deletion the row did not hold breaks the cleaning contract;
        // skip it rather than revisit the row.
        let row_end = di + del[di..].partition_point(|&(k, _)| k as usize == v);
        debug_assert_eq!(di, row_end, "delta deletes edges missing from vertex {v}");
        di = row_end;
        offsets[v + 1] = write as u32;
        done = v + 1;
    }
    flat.truncate(offsets[n] as usize);
}

/// Insertion pass, back to front, over an array already grown by
/// `ins.len()` slots. Leaving row `v`, `offsets[v..]` are final and the
/// `pending` insertions keyed below `v` are still to place, so every run
/// left of row `v` moves right by `pending`; every write lands at or right
/// of its read. Rows left of the first insertion key do not move.
fn expand_insertions(offsets: &mut [u32], flat: &mut [VertexId], ins: &[(VertexId, VertexId)]) {
    let n = offsets.len() - 1;
    let mut pending = ins.len();
    // `hi` is the lowest row already final; `hi_old` its pre-pass start.
    let mut hi = n;
    let mut hi_old = offsets[n] as usize;
    offsets[n] += pending as u32;
    while pending > 0 {
        let v = ins[pending - 1].0 as usize;
        let first = ins[..pending].partition_point(|&(k, _)| (k as usize) < v);
        let start = offsets[v] as usize;
        let end = if v + 1 < hi { offsets[v + 1] as usize } else { hi_old };
        // Untouched rows `v + 1..hi`: one move right by `pending`.
        flat.copy_within(end..hi_old, end + pending);
        offsets[v + 1..hi].iter_mut().for_each(|o| *o += pending as u32);
        // Row `v`: backward merge of its old run with `ins[first..pending]`.
        let mut write = end + pending;
        let mut read = end;
        for &(_, u) in ins[first..pending].iter().rev() {
            while read > start && flat[read - 1] > u {
                read -= 1;
                write -= 1;
                flat[write] = flat[read];
            }
            debug_assert!(
                read == start || flat[read - 1] != u,
                "delta inserts existing edge ({v}, {u})"
            );
            write -= 1;
            flat[write] = u;
        }
        pending = first;
        flat.copy_within(start..read, start + pending);
        offsets[v] += pending as u32;
        (hi, hi_old) = (v, start);
    }
}

/// Transposes one CSR direction: row `u` holding key `k` becomes row `k`
/// holding `u`. A counting scatter walked in ascending row order, so every
/// output run is **sorted** (equal entries adjacent) whatever the order
/// inside the input rows — the one place adjacency gets its canonical
/// order, with no comparison sort. Every key must be `< n` (checked by the
/// indexing).
///
/// The output offsets double as the scatter cursors — counted one slot to
/// the right, advanced while scattering, shifted back at the end — so the
/// transpose holds nothing beyond its result.
pub(crate) fn transpose(n: usize, offsets: &[u32], flat: &[VertexId]) -> (Vec<u32>, Vec<VertexId>) {
    debug_assert_eq!(offsets.len(), n + 1);
    debug_assert_eq!(offsets[n] as usize, flat.len());
    let mut t_offsets = vec![0u32; n + 1];
    for &k in flat {
        t_offsets[k as usize + 1] += 1;
    }
    // The counts sum to `flat.len()`, which `offsets[n]` holds as a `u32`.
    let mut acc = 0u32;
    for slot in &mut t_offsets {
        acc += *slot;
        *slot = acc;
    }
    // `t_offsets[k]` is now the start of run `k`; scattering advances it to
    // the run's end, which is the start of run `k + 1`.
    let mut t_flat = vec![0 as VertexId; flat.len()];
    for u in 0..n as VertexId {
        for &k in row(offsets, flat, u) {
            let slot = &mut t_offsets[k as usize];
            t_flat[*slot as usize] = u;
            *slot += 1;
        }
    }
    t_offsets.copy_within(0..n, 1);
    t_offsets[0] = 0;
    (t_offsets, t_flat)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Graph {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        Graph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn counts() {
        let g = diamond();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
    }

    #[test]
    fn adjacency_both_directions() {
        let g = diamond();
        assert_eq!(g.out_neighbors(0), &[1, 2]);
        assert_eq!(g.in_neighbors(3), &[1, 2]);
        assert_eq!(g.in_neighbors(0), &[] as &[VertexId]);
        assert_eq!(g.out_neighbors(3), &[] as &[VertexId]);
    }

    #[test]
    fn degrees() {
        let g = diamond();
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.in_degree(0), 0);
        assert_eq!(g.in_degree(3), 2);
        assert_eq!(g.degree(1), 2);
    }

    #[test]
    fn edges_iterator_round_trips() {
        let g = diamond();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 3), (2, 3)]);
        let g2 = Graph::from_edges(4, &edges);
        assert_eq!(g, g2);
    }

    #[test]
    fn neighbor_slices_sorted_regardless_of_input_order() {
        let g = Graph::from_edges(4, &[(0, 3), (0, 1), (0, 2)]);
        assert_eq!(g.out_neighbors(0), &[1, 2, 3]);
    }

    #[test]
    fn has_edge() {
        let g = diamond();
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(1, 0));
        assert!(!g.has_edge(0, 3));
    }

    #[test]
    fn empty_graph() {
        let g = Graph::empty(3);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.out_neighbors(2), &[] as &[VertexId]);
    }

    #[test]
    fn duplicate_edges_preserved() {
        let g = Graph::from_edges(2, &[(0, 1), (0, 1)]);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.in_degree(1), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        Graph::from_edges(2, &[(0, 2)]);
    }

    #[test]
    fn try_from_edges_matches_panicking_path() {
        let edges = [(0, 1), (0, 2), (1, 3), (2, 3)];
        assert_eq!(Graph::try_from_edges(4, &edges).unwrap(), Graph::from_edges(4, &edges));
    }

    #[test]
    fn try_from_edges_typed_errors() {
        assert_eq!(
            Graph::try_from_edges(2, &[(0, 2)]),
            Err(BuildError::EdgeOutOfRange { u: 0, v: 2, n: 2 })
        );
        assert_eq!(
            Graph::try_from_edges(u32::MAX as usize, &[]),
            Err(BuildError::TooManyVertices { n: u32::MAX as usize })
        );
    }

    #[test]
    fn heap_bytes_counts_all_four_arrays() {
        let g = diamond();
        // 2 offset arrays of (4+1) u32 entries + 2 flat arrays of 4 u32s,
        // at least — capacity may exceed length.
        assert!(g.heap_bytes() >= 2 * 5 * 4 + 2 * 4 * 4);
    }

    #[test]
    fn edge_count_boundary() {
        assert_eq!(edge_count(0), Ok(0));
        assert_eq!(edge_count(u32::MAX as u64), Ok(u32::MAX));
        let over = u32::MAX as u64 + 1;
        assert_eq!(edge_count(over), Err(BuildError::TooManyEdges { edges: over }));
    }

    mod overlay {
        use super::*;
        use crate::dynamic::{EdgeEvent, EventKind};
        use crate::GraphBuilder;

        fn ev(src: u32, dst: u32, kind: EventKind) -> EdgeEvent {
            EdgeEvent { src, dst, timestamp_ms: 0, kind }
        }

        fn clean(n: usize, edges: &[(VertexId, VertexId)]) -> Graph {
            let mut b = GraphBuilder::new(n);
            b.add_edges(edges.iter().copied());
            b.build()
        }

        #[test]
        fn overlay_matches_full_rebuild() {
            let g = clean(5, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]);
            let events = vec![
                ev(4, 0, EventKind::Insert),
                ev(0, 2, EventKind::Delete),
                ev(6, 3, EventKind::Insert), // grows to 7 vertices
                ev(1, 3, EventKind::Delete),
            ];
            let delta = GraphDelta::from_events(&g, &events);
            let overlaid = g.apply_delta(&delta);
            let rebuilt = clean(7, &[(0, 1), (2, 3), (3, 4), (4, 0), (6, 3)]);
            assert_eq!(overlaid, rebuilt);
        }

        #[test]
        fn empty_delta_is_identity() {
            let g = clean(4, &[(0, 1), (1, 2), (2, 3)]);
            let delta = GraphDelta::from_events(&g, &[]);
            assert_eq!(g.apply_delta(&delta), g);
        }

        #[test]
        fn overlay_only_grows_vertices() {
            let g = clean(2, &[(0, 1)]);
            let delta = GraphDelta::from_events(&g, &[ev(5, 5, EventKind::Insert)]);
            // The self-loop is dropped but vertex 5 still arrives, isolated.
            let next = g.apply_delta(&delta);
            assert_eq!(next.num_vertices(), 6);
            assert_eq!(next.num_edges(), 1);
            assert!(next.has_edge(0, 1));
        }

        #[test]
        fn deletions_shift_later_untouched_runs() {
            // Deleting early edges makes the bulk-copied tail runs land at
            // smaller offsets than in the source graph.
            let g = clean(6, &[(0, 1), (0, 2), (0, 3), (4, 5), (5, 4)]);
            let delta = GraphDelta::from_events(
                &g,
                &[ev(0, 1, EventKind::Delete), ev(0, 2, EventKind::Delete)],
            );
            let next = g.apply_delta(&delta);
            assert_eq!(next.out_neighbors(0), &[3]);
            assert_eq!(next.out_neighbors(4), &[5]);
            assert_eq!(next.in_neighbors(4), &[5]);
            assert_eq!(next.num_edges(), 3);
        }

        #[test]
        fn chained_overlays_match_replay() {
            // Three windows of random-ish mutations; each overlay must
            // equal the cleaned rebuild of the live edge set.
            let mut live: Vec<(VertexId, VertexId)> = vec![(0, 1), (1, 2), (2, 0)];
            let mut g = clean(3, &live);
            let windows: Vec<Vec<EdgeEvent>> = vec![
                vec![ev(2, 1, EventKind::Insert), ev(0, 1, EventKind::Delete)],
                vec![ev(3, 0, EventKind::Insert), ev(3, 2, EventKind::Insert)],
                vec![ev(3, 2, EventKind::Delete), ev(1, 0, EventKind::Insert)],
            ];
            for events in &windows {
                let delta = GraphDelta::from_events(&g, events);
                g.apply_delta_in_place(&delta);
                for e in events {
                    match e.kind {
                        EventKind::Insert => {
                            if !live.contains(&(e.src, e.dst)) {
                                live.push((e.src, e.dst));
                            }
                        }
                        EventKind::Delete => live.retain(|&x| x != (e.src, e.dst)),
                    }
                }
                assert_eq!(g, clean(g.num_vertices(), &live));
            }
        }
    }
}
