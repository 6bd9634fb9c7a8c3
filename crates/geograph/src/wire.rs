//! Stable wire encoding for graph types crossing a durability boundary.
//!
//! The WAL and snapshot machinery (`crates/durable`) persists
//! [`GraphDelta`]s and whole [`Graph`]s across process restarts, so their
//! byte layout must be explicit and version-stable rather than whatever
//! the in-memory structs happen to be. Everything here is little-endian,
//! decoded through a bounds-checked [`Reader`] that returns typed
//! [`WireError`]s — malformed input never panics and never silently
//! produces a half-valid value.
//!
//! ## What travels
//!
//! A [`GraphDelta`] is encoded as `(old_n, new_n, inserted, deleted)`
//! only: `touched` and the sparse degree changes are *derivations* of the
//! edge lists, so the decoder recomputes them through the same code path
//! [`GraphDelta::from_events`] uses. Derived state never travels, so a
//! decoded delta cannot disagree with itself.
//!
//! A [`Graph`] travels as its out-direction rows only: a magic tag,
//! `varint(n)`, `varint(m)`, then per vertex `varint(degree)` followed by
//! the row's sorted, duplicate-free targets as LEB128 varints — the first
//! absolute, the rest as gaps (≈1–2 bytes per edge instead of 4). There
//! is **no offset plane** — offsets are a prefix sum of the degrees — and
//! no in-direction, which `Graph::from_out_rows` rebuilds. A graph holding
//! duplicate edges has no gap encoding and is refused at encode time
//! ([`std::io::ErrorKind::InvalidInput`]). Mostly-constant per-vertex
//! planes (data sizes here, the traffic profile in `geopart::snapshot`)
//! travel as `(value, run)` pairs via [`put_runs`] / [`Reader::runs`].
//!
//! Encoders are generic over [`std::io::Write`], so the same code fills a
//! `Vec<u8>` or streams through a buffered file sink in O(buffer) memory.

use std::io::{self, Write};

use crate::csr::{edge_count, Graph};
use crate::delta::GraphDelta;
use crate::geo::GeoGraph;
use crate::{DcId, VertexId, MAX_DCS};

/// Leading `u64` of a graph blob (`b"graph_v3"`, little-endian).
const GRAPH_MAGIC: u64 = u64::from_le_bytes(*b"graph_v3");

/// Longest LEB128 encoding of a `u64`.
const MAX_VARINT_BYTES: usize = 10;

/// Why a wire blob failed to decode.
#[derive(Debug)]
pub enum WireError {
    /// The buffer ended before the declared payload did.
    Truncated,
    /// Decoding finished with unconsumed bytes (full-buffer decodes only).
    TrailingBytes,
    /// The bytes decoded but violate a structural invariant.
    Malformed(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "wire blob truncated"),
            WireError::TrailingBytes => write!(f, "wire blob has trailing bytes"),
            WireError::Malformed(what) => write!(f, "wire blob malformed: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Bounds-checked little-endian reader over a byte slice.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if n > self.remaining() {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub fn f32(&mut self) -> Result<f32, WireError> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// A `u64` length prefix sanity-checked against the bytes actually
    /// available (`width` = bytes per element), so a corrupted length
    /// cannot trigger a huge allocation before the read fails.
    pub fn len(&mut self, width: usize) -> Result<usize, WireError> {
        let n = self.u64()?;
        if (n as usize).checked_mul(width).is_none_or(|total| total > self.remaining()) {
            return Err(WireError::Truncated);
        }
        Ok(n as usize)
    }

    pub fn u32s(&mut self, n: usize) -> Result<Vec<u32>, WireError> {
        Ok(self
            .take(n * 4)?
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    pub fn f32s(&mut self, n: usize) -> Result<Vec<f32>, WireError> {
        Ok(self
            .take(n * 4)?
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    pub fn u64s(&mut self, n: usize) -> Result<Vec<u64>, WireError> {
        Ok(self
            .take(n * 8)?
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    /// `(u32, u32)` pairs — edge lists.
    pub fn pairs(&mut self, n: usize) -> Result<Vec<(VertexId, VertexId)>, WireError> {
        Ok(self
            .take(n * 8)?
            .chunks_exact(8)
            .map(|c| {
                (
                    u32::from_le_bytes(c[..4].try_into().unwrap()),
                    u32::from_le_bytes(c[4..].try_into().unwrap()),
                )
            })
            .collect())
    }

    /// One LEB128 varint. Short input is [`WireError::Truncated`]; an
    /// encoding that is not the shortest for its value, or that carries
    /// bits past the 64th, is [`WireError::Malformed`] — every value has
    /// exactly one accepted byte form.
    #[inline]
    pub fn varint(&mut self) -> Result<u64, WireError> {
        let mut x = 0u64;
        for i in 0..MAX_VARINT_BYTES {
            let b = *self.buf.get(self.pos + i).ok_or(WireError::Truncated)?;
            // The tenth byte holds bit 63 alone.
            if i == MAX_VARINT_BYTES - 1 && b > 1 {
                break;
            }
            x |= ((b & 0x7f) as u64) << (7 * i);
            if b & 0x80 == 0 {
                if b == 0 && i > 0 {
                    return Err(WireError::Malformed("overlong varint"));
                }
                self.pos += i + 1;
                return Ok(x);
            }
        }
        Err(WireError::Malformed("varint exceeds 64 bits"))
    }

    /// A varint that must fit `u32`.
    #[inline]
    pub fn varint_u32(&mut self) -> Result<u32, WireError> {
        u32::try_from(self.varint()?).map_err(|_| WireError::Malformed("varint exceeds u32"))
    }

    /// Inverse of [`put_runs`]: `n` values from `(value, run)` pairs, each
    /// value read by `value`. The runs must cover `n` exactly. The caller
    /// vouches for `n` (a vertex count it has already bounded by decoded
    /// bytes); the declared run count is bounded here by the bytes left.
    pub fn runs<T: Copy>(
        &mut self,
        n: usize,
        mut value: impl FnMut(&mut Self) -> Result<T, WireError>,
    ) -> Result<Vec<T>, WireError> {
        let runs = self.varint()?;
        if runs > (self.remaining() / 2) as u64 {
            return Err(WireError::Truncated);
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..runs {
            let v = value(self)?;
            let len = self.varint()?;
            if len == 0 || len > (n - out.len()) as u64 {
                return Err(WireError::Malformed("run lengths do not cover the vertex count"));
            }
            out.resize(out.len() + len as usize, v);
        }
        if out.len() != n {
            return Err(WireError::Malformed("run lengths do not cover the vertex count"));
        }
        Ok(out)
    }

    /// Requires every byte to have been consumed.
    pub fn finish(self) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(WireError::TrailingBytes);
        }
        Ok(())
    }
}

fn put_pairs(out: &mut Vec<u8>, pairs: &[(VertexId, VertexId)]) {
    out.extend_from_slice(&(pairs.len() as u64).to_le_bytes());
    for &(u, v) in pairs {
        out.extend_from_slice(&u.to_le_bytes());
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// `true` when `edges` is strictly increasing by `(src, dst)` (sorted and
/// duplicate-free) with every endpoint below `n` and no self-loops.
fn edges_canonical(edges: &[(VertexId, VertexId)], n: usize) -> bool {
    edges.windows(2).all(|w| w[0] < w[1])
        && edges.iter().all(|&(u, v)| (u as usize) < n && (v as usize) < n && u != v)
}

/// Appends the wire form of `delta` to `out`.
pub fn encode_delta(delta: &GraphDelta, out: &mut Vec<u8>) {
    out.extend_from_slice(&(delta.old_num_vertices() as u64).to_le_bytes());
    out.extend_from_slice(&(delta.new_num_vertices() as u64).to_le_bytes());
    put_pairs(out, delta.inserted());
    put_pairs(out, delta.deleted());
}

/// Decodes one delta from `r`, validating the canonical-form invariants
/// `from_events` guarantees and re-deriving `touched` / degree changes.
pub fn decode_delta(r: &mut Reader<'_>) -> Result<GraphDelta, WireError> {
    let old_n = r.u64()? as usize;
    let new_n = r.u64()? as usize;
    if new_n < old_n || new_n >= u32::MAX as usize {
        return Err(WireError::Malformed("delta vertex counts"));
    }
    let n_ins = r.len(8)?;
    let inserted = r.pairs(n_ins)?;
    let n_del = r.len(8)?;
    let deleted = r.pairs(n_del)?;
    if !edges_canonical(&inserted, new_n) {
        return Err(WireError::Malformed("inserted edges not canonical"));
    }
    // Deleted edges exist in the base graph, so both endpoints predate it.
    if !edges_canonical(&deleted, old_n) {
        return Err(WireError::Malformed("deleted edges not canonical"));
    }
    // One net event per edge key: the lists must be disjoint.
    let mut i = 0;
    for &e in &deleted {
        while i < inserted.len() && inserted[i] < e {
            i += 1;
        }
        if i < inserted.len() && inserted[i] == e {
            return Err(WireError::Malformed("edge both inserted and deleted"));
        }
    }
    Ok(GraphDelta::from_net_edges(old_n, new_n, inserted, deleted))
}

/// `delta` as a standalone byte blob.
pub fn delta_to_bytes(delta: &GraphDelta) -> Vec<u8> {
    let mut out = Vec::with_capacity(32 + 8 * delta.num_edge_changes());
    encode_delta(delta, &mut out);
    out
}

/// Decodes a standalone delta blob, requiring full consumption.
pub fn delta_from_bytes(bytes: &[u8]) -> Result<GraphDelta, WireError> {
    let mut r = Reader::new(bytes);
    let d = decode_delta(&mut r)?;
    r.finish()?;
    Ok(d)
}

/// Writes `x` as a LEB128 varint — the workspace's one varint encoder
/// ([`Reader::varint`] is its decoder).
#[inline]
pub fn put_varint<W: Write>(w: &mut W, mut x: u64) -> io::Result<()> {
    let mut buf = [0u8; MAX_VARINT_BYTES];
    let mut len = 0;
    loop {
        let byte = (x & 0x7f) as u8;
        x >>= 7;
        buf[len] = if x == 0 { byte } else { byte | 0x80 };
        len += 1;
        if x == 0 {
            return w.write_all(&buf[..len]);
        }
    }
}

/// Writes `values` run-length encoded: `varint(run count)`, then per run
/// the value (written by `put`) and `varint(run length)`. Two values share
/// a run iff their `bits` agree — floats compare by bit pattern, so `-0.0`
/// and NaN payloads survive.
pub fn put_runs<W: Write, T: Copy>(
    w: &mut W,
    values: &[T],
    bits: impl Fn(T) -> u64,
    put: impl Fn(&mut W, T) -> io::Result<()>,
) -> io::Result<()> {
    let runs = || values.chunk_by(|&a, &b| bits(a) == bits(b));
    put_varint(w, runs().count() as u64)?;
    runs().try_for_each(|run| {
        put(w, run[0])?;
        put_varint(w, run.len() as u64)
    })
}

/// [`put_runs`] over `f32`s compared by bit pattern — the traffic profile's
/// two planes, in a snapshot and in a WAL window start. [`Reader::runs`]
/// with [`Reader::f32`] reads it back.
pub fn put_f32_runs<W: Write>(w: &mut W, values: &[f32]) -> io::Result<()> {
    put_runs(w, values, |x| x.to_bits() as u64, |w, x| w.write_all(&x.to_le_bytes()))
}

/// Writes the wire form of `graph`: magic, `varint(n)`, `varint(m)`, then
/// per vertex `varint(degree)` and the row as first target + gaps. A
/// duplicate edge (gap 0) is [`io::ErrorKind::InvalidInput`].
pub fn encode_graph<W: Write>(graph: &Graph, w: &mut W) -> io::Result<()> {
    w.write_all(&GRAPH_MAGIC.to_le_bytes())?;
    put_varint(w, graph.num_vertices() as u64)?;
    put_varint(w, graph.num_edges() as u64)?;
    for v in graph.vertices() {
        let row = graph.out_neighbors(v);
        put_varint(w, row.len() as u64)?;
        let mut prev = None;
        for &t in row {
            if prev == Some(t) {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "graph holds duplicate edges; the wire form carries simple graphs only",
                ));
            }
            put_varint(w, (t - prev.unwrap_or(0)) as u64)?;
            prev = Some(t);
        }
    }
    Ok(())
}

/// Decodes one graph from `r`. Every structural invariant is validated as
/// the rows stream in — corrupted ids, degrees, or counts surface as typed
/// errors, not index panics or giant allocations.
pub fn decode_graph(r: &mut Reader<'_>) -> Result<Graph, WireError> {
    if r.u64()? != GRAPH_MAGIC {
        return Err(WireError::Malformed("graph magic"));
    }
    let (n, m) = (r.varint()?, r.varint()?);
    if n >= u32::MAX as u64 {
        return Err(WireError::Malformed("graph vertex count"));
    }
    // Every row costs at least its degree byte and every edge at least one
    // gap byte, so the bytes left bound both counts before any allocation.
    if n.checked_add(m).is_none_or(|total| total > r.remaining() as u64) {
        return Err(WireError::Truncated);
    }
    let m = edge_count(m).map_err(|_| WireError::Malformed("graph edge count"))? as usize;
    let mut out_offsets: Vec<u32> = Vec::with_capacity(n as usize + 1);
    let mut out_targets: Vec<VertexId> = Vec::with_capacity(m);
    out_offsets.push(0);
    for _ in 0..n {
        let degree = r.varint()?;
        if degree > (m - out_targets.len()) as u64 {
            return Err(WireError::Malformed("row degrees exceed the declared edge count"));
        }
        let mut prev = 0u64;
        for k in 0..degree {
            let gap = r.varint()?;
            if k > 0 && gap == 0 {
                return Err(WireError::Malformed("duplicate edge"));
            }
            // `gap < n` first, so the sum cannot overflow.
            if gap >= n || prev + gap >= n {
                return Err(WireError::Malformed("edge endpoint out of range"));
            }
            prev += gap;
            out_targets.push(prev as VertexId);
        }
        out_offsets.push(out_targets.len() as u32);
    }
    if out_targets.len() != m {
        return Err(WireError::Malformed("row degrees fall short of the declared edge count"));
    }
    Ok(Graph::from_out_rows(n as usize, out_offsets, out_targets))
}

/// Writes the wire form of `geo`: graph, DC count, raw locations, and the
/// data sizes as runs.
pub fn encode_geo<W: Write>(geo: &GeoGraph, w: &mut W) -> io::Result<()> {
    encode_graph(&geo.graph, w)?;
    put_varint(w, geo.num_dcs as u64)?;
    w.write_all(&geo.locations)?;
    put_runs(w, &geo.data_sizes, |s| s, |w, s| put_varint(w, s))
}

/// Decodes one geo-graph from `r`, validating shapes and DC bounds.
pub fn decode_geo(r: &mut Reader<'_>) -> Result<GeoGraph, WireError> {
    let graph = decode_graph(r)?;
    let n = graph.num_vertices();
    let num_dcs = r.varint()?;
    if num_dcs == 0 || num_dcs > MAX_DCS as u64 {
        return Err(WireError::Malformed("DC count out of range"));
    }
    let locations: Vec<DcId> = r.take(n)?.to_vec();
    if locations.iter().any(|&d| (d as u64) >= num_dcs) {
        return Err(WireError::Malformed("vertex location out of range"));
    }
    let data_sizes = r.runs(n, Reader::varint)?;
    Ok(GeoGraph { graph, locations, data_sizes, num_dcs: num_dcs as usize })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamic::{EdgeEvent, EventKind};
    use crate::{GraphBuilder, LocalityConfig};

    fn base() -> Graph {
        let mut b = GraphBuilder::new(6);
        b.add_edges([(0u32, 1u32), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        b.build()
    }

    fn ev(src: u32, dst: u32, ts: u64, kind: EventKind) -> EdgeEvent {
        EdgeEvent { src, dst, timestamp_ms: ts, kind }
    }

    #[test]
    fn delta_round_trips() {
        let g = base();
        let events = vec![
            ev(0, 3, 0, EventKind::Insert),
            ev(1, 2, 1, EventKind::Delete),
            ev(8, 0, 2, EventKind::Insert),
            ev(4, 5, 3, EventKind::Delete),
            ev(4, 5, 4, EventKind::Insert), // nets out
        ];
        let d = GraphDelta::from_events(&g, &events);
        let restored = delta_from_bytes(&delta_to_bytes(&d)).unwrap();
        assert_eq!(d, restored);
    }

    #[test]
    fn empty_delta_round_trips() {
        let d = GraphDelta::from_events(&base(), &[]);
        assert!(d.is_empty());
        assert_eq!(delta_from_bytes(&delta_to_bytes(&d)).unwrap(), d);
    }

    fn graph_bytes(g: &Graph) -> Vec<u8> {
        let mut out = Vec::new();
        encode_graph(g, &mut out).unwrap();
        out
    }

    fn decode_full(bytes: &[u8]) -> Result<Graph, WireError> {
        let mut r = Reader::new(bytes);
        let g = decode_graph(&mut r)?;
        r.finish()?;
        Ok(g)
    }

    #[test]
    fn graph_round_trips() {
        let g = base();
        let restored = decode_full(&graph_bytes(&g)).unwrap();
        assert_eq!(g, restored);
        // The empty graph and the vertex-free graph travel too.
        for g in [Graph::empty(7), Graph::empty(0)] {
            assert_eq!(decode_full(&graph_bytes(&g)).unwrap(), g);
        }
    }

    #[test]
    fn duplicates_are_refused_self_loops_and_isolated_tail_round_trip() {
        // Self-loops and isolated vertices travel; a duplicate has no gap.
        let g = Graph::from_edges(6, &[(0, 1), (2, 2), (1, 0), (1, 1)]);
        assert_eq!(decode_full(&graph_bytes(&g)).unwrap(), g);
        let dup = Graph::from_edges(6, &[(0, 1), (0, 1)]);
        let err = encode_graph(&dup, &mut Vec::new()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn geo_round_trips() {
        let mut geo = GeoGraph::from_graph(base(), &LocalityConfig::uniform(4, 7));
        geo.data_sizes = vec![64, 64, 64, 9, 1 << 40, 64];
        let mut out = Vec::new();
        encode_geo(&geo, &mut out).unwrap();
        let mut r = Reader::new(&out);
        let restored = decode_geo(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(geo.graph, restored.graph);
        assert_eq!(geo.locations, restored.locations);
        assert_eq!(geo.data_sizes, restored.data_sizes);
        assert_eq!(geo.num_dcs, restored.num_dcs);
    }

    #[test]
    fn truncation_never_panics() {
        let g = base();
        let d = GraphDelta::from_events(&g, &[ev(0, 3, 0, EventKind::Insert)]);
        let bytes = delta_to_bytes(&d);
        for len in 0..bytes.len() {
            assert!(delta_from_bytes(&bytes[..len]).is_err(), "len {len} decoded");
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let d = GraphDelta::from_events(&base(), &[]);
        let mut bytes = delta_to_bytes(&d);
        bytes.push(0);
        assert!(matches!(delta_from_bytes(&bytes), Err(WireError::TrailingBytes)));
    }

    #[test]
    fn malformed_deltas_rejected() {
        // Unsorted inserted list.
        let mut out = Vec::new();
        out.extend_from_slice(&4u64.to_le_bytes());
        out.extend_from_slice(&4u64.to_le_bytes());
        put_pairs(&mut out, &[(2, 3), (0, 1)]);
        put_pairs(&mut out, &[]);
        assert!(matches!(delta_from_bytes(&out), Err(WireError::Malformed(_))));

        // Shrinking vertex count.
        let mut out = Vec::new();
        out.extend_from_slice(&4u64.to_le_bytes());
        out.extend_from_slice(&2u64.to_le_bytes());
        put_pairs(&mut out, &[]);
        put_pairs(&mut out, &[]);
        assert!(matches!(delta_from_bytes(&out), Err(WireError::Malformed(_))));

        // Same edge inserted and deleted.
        let mut out = Vec::new();
        out.extend_from_slice(&4u64.to_le_bytes());
        out.extend_from_slice(&4u64.to_le_bytes());
        put_pairs(&mut out, &[(0, 1)]);
        put_pairs(&mut out, &[(0, 1)]);
        assert!(matches!(delta_from_bytes(&out), Err(WireError::Malformed(_))));
    }

    #[test]
    fn corrupt_length_prefix_is_truncation_not_alloc() {
        let d = GraphDelta::from_events(&base(), &[ev(0, 3, 0, EventKind::Insert)]);
        let mut bytes = delta_to_bytes(&d);
        // Blow up the inserted-list length prefix to a huge value.
        bytes[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(delta_from_bytes(&bytes), Err(WireError::Truncated)));
    }

    mod properties {
        use super::*;
        use proptest::collection::vec;
        use proptest::prelude::*;

        /// A random base graph plus a random raw event stream against it.
        /// Vertex ids run past the base count so streams exercise growth;
        /// kind 0 = insert, 1 = delete (of possibly-absent edges — the
        /// cleaner drops those, which is part of what's under test).
        fn build(n: usize, edges: &[(u32, u32)], raw: &[(u32, u32, u8)]) -> GraphDelta {
            let mut b = GraphBuilder::new(n);
            b.add_edges(edges.iter().map(|&(u, v)| (u % n as u32, v % n as u32)));
            let g = b.build();
            let events: Vec<EdgeEvent> = raw
                .iter()
                .enumerate()
                .map(|(t, &(src, dst, k))| EdgeEvent {
                    src,
                    dst,
                    timestamp_ms: t as u64,
                    kind: if k == 0 { EventKind::Insert } else { EventKind::Delete },
                })
                .collect();
            GraphDelta::from_events(&g, &events)
        }

        /// A duplicate-free graph over `n` vertices (self-loops kept);
        /// `hub`, when given, is adjacent to every vertex — a max-degree row.
        fn simple_graph(n: usize, edges: &[(u32, u32)], hub: Option<u32>) -> Graph {
            let n32 = n as u32;
            let mut edges: Vec<_> = edges.iter().map(|&(u, v)| (u % n32, v % n32)).collect();
            if let Some(h) = hub {
                edges.extend((0..n32).map(|v| (h % n32, v)));
            }
            edges.sort_unstable();
            edges.dedup();
            Graph::from_edges(n, &edges)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// encode → decode ≡ identity for the net-effect cleaned form
            /// of arbitrary insert/delete streams, including streams that
            /// net out to the empty delta.
            #[test]
            fn delta_wire_round_trip(
                n in 2usize..40,
                edges in vec((0u32..64, 0u32..64), 0..80),
                raw in vec((0u32..56, 0u32..56, 0u8..2), 0..120),
            ) {
                let d = build(n, &edges, &raw);
                let restored = delta_from_bytes(&delta_to_bytes(&d)).unwrap();
                prop_assert_eq!(&d, &restored);
                // Encoding the decoded delta is byte-identical too: the
                // derived fields (touched, degree changes) never travel,
                // so one round trip is a fixed point.
                prop_assert_eq!(delta_to_bytes(&d), delta_to_bytes(&restored));
            }

            /// Graph encode → decode ≡ identity for arbitrary simple
            /// graphs (self-loops, empty rows and a full row included),
            /// and re-encoding the decoded graph is a byte fixed point.
            #[test]
            fn graph_wire_round_trip(
                n in 1usize..40,
                edges in vec((0u32..64, 0u32..64), 0..120),
                hub in 0u32..64,
            ) {
                let g = simple_graph(n, &edges, Some(hub));
                let out = graph_bytes(&g);
                let restored = decode_full(&out).unwrap();
                prop_assert_eq!(&g, &restored);
                prop_assert_eq!(out, graph_bytes(&restored));
            }

            /// Every truncation of a random graph blob errors instead of
            /// decoding or panicking.
            #[test]
            fn graph_wire_truncations_all_error(
                n in 1usize..16,
                edges in vec((0u32..16, 0u32..16), 0..24),
            ) {
                let bytes = graph_bytes(&simple_graph(n, &edges, None));
                for len in 0..bytes.len() {
                    prop_assert!(decode_full(&bytes[..len]).is_err(), "len {} decoded", len);
                }
            }

            /// Every truncation of a random delta's encoding errors
            /// instead of decoding or panicking.
            #[test]
            fn delta_wire_truncations_all_error(
                n in 2usize..24,
                edges in vec((0u32..32, 0u32..32), 0..30),
                raw in vec((0u32..28, 0u32..28, 0u8..2), 1..40),
            ) {
                let bytes = delta_to_bytes(&build(n, &edges, &raw));
                for len in 0..bytes.len() {
                    prop_assert!(delta_from_bytes(&bytes[..len]).is_err(), "len {} decoded", len);
                }
            }
        }

        #[test]
        fn empty_stream_is_the_empty_delta() {
            let d = build(4, &[(0, 1)], &[]);
            assert!(d.is_empty());
            assert_eq!(delta_from_bytes(&delta_to_bytes(&d)).unwrap(), d);
        }
    }
}
