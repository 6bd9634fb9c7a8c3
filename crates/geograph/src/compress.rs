//! Delta-compressed adjacency for cold rows.
//!
//! A power-law graph's memory is dominated by its long tail: millions of
//! low-degree rows whose neighbor ids, once sorted, are small gaps apart.
//! [`CompressedGraph`] stores those rows as varint-encoded gap sequences
//! (≈1–2 bytes per edge endpoint instead of 4) while keeping hot
//! high-degree rows as raw `u32` slices — the rows the trainer's score
//! kernels scan hardest stay zero-copy and branch-free.
//!
//! The hot/cold choice is **per row at build time** and invisible through
//! the API: [`CompressedGraph::out_neighbors`] returns the same sorted
//! slice contents [`Graph::out_neighbors`] would, decoding cold rows into a
//! caller-owned scratch buffer. Because every row round-trips exactly
//! ([`CompressedGraph::to_graph`] reproduces the source `Graph`
//! bit-for-bit), any kernel computing over neighbors sees identical inputs
//! in either representation — compression changes bytes held, never
//! results.

use crate::csr::Graph;
use crate::offsets::Offsets;
use crate::wire::{put_varint, Reader};
use crate::VertexId;

/// When a row stays raw.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CompressPolicy {
    /// Rows with at least this many neighbors stay raw (`u32` slice).
    /// Below it, rows are varint-gap packed.
    pub hot_min_degree: usize,
}

impl CompressPolicy {
    /// Default threshold. 64 keeps the hub rows that dominate scan time
    /// raw; in an R-MAT/social tail almost all rows sit far below it, so
    /// the bulk of rows still compress.
    pub fn auto() -> Self {
        CompressPolicy { hot_min_degree: 64 }
    }

    /// Compress every row (for tests and maximum shrink).
    pub fn all_cold() -> Self {
        CompressPolicy { hot_min_degree: usize::MAX }
    }
}

impl Default for CompressPolicy {
    fn default() -> Self {
        CompressPolicy::auto()
    }
}

/// One adjacency direction: raw rows in a flat `u32` array, cold rows in a
/// flat varint byte array, each with its own n+1 offset array. A row lives
/// in exactly one of the two (its run in the other has zero length).
/// Offset arrays are width-adaptive ([`Offsets`]) — compressing a graph
/// must not *widen* its indexes, and the packed byte array is shorter than
/// the flat edge array it encodes, so both directions' offsets narrow to
/// `u32` whenever the source graph's did.
struct Direction {
    raw_offsets: Offsets,
    raw: Vec<VertexId>,
    packed_offsets: Offsets,
    packed: Vec<u8>,
}

impl Direction {
    fn compress(offsets: &[usize], flat: &[VertexId], policy: CompressPolicy) -> Direction {
        let n = offsets.len() - 1;
        let mut raw_offsets = Vec::with_capacity(n + 1);
        let mut packed_offsets = Vec::with_capacity(n + 1);
        let mut raw = Vec::new();
        let mut packed = Vec::new();
        raw_offsets.push(0);
        packed_offsets.push(0);
        for v in 0..n {
            let run = &flat[offsets[v]..offsets[v + 1]];
            if run.len() >= policy.hot_min_degree {
                raw.extend_from_slice(run);
            } else if !run.is_empty() {
                // Degree first, then the absolute first id, then gaps.
                // Gaps are >= 0 (sorted runs; 0 marks a duplicate edge).
                write_varint(&mut packed, run.len() as u32);
                write_varint(&mut packed, run[0]);
                for w in run.windows(2) {
                    write_varint(&mut packed, w[1] - w[0]);
                }
            }
            raw_offsets.push(raw.len());
            packed_offsets.push(packed.len());
        }
        raw.shrink_to_fit();
        packed.shrink_to_fit();
        Direction {
            raw_offsets: Offsets::from_usize(raw_offsets),
            raw,
            packed_offsets: Offsets::from_usize(packed_offsets),
            packed,
        }
    }

    #[inline]
    fn degree(&self, v: usize) -> usize {
        let (rs, re) = self.raw_offsets.run(v);
        if re > rs {
            return re - rs;
        }
        let (ps, pe) = self.packed_offsets.run(v);
        let bytes = &self.packed[ps..pe];
        if bytes.is_empty() {
            0
        } else {
            read_varint(bytes).0 as usize
        }
    }

    /// The row as a slice: raw rows zero-copy, cold rows decoded into
    /// `buf`.
    fn neighbors<'a>(&'a self, v: usize, buf: &'a mut Vec<VertexId>) -> &'a [VertexId] {
        let (rs, re) = self.raw_offsets.run(v);
        if re > rs {
            return &self.raw[rs..re];
        }
        buf.clear();
        let (ps, pe) = self.packed_offsets.run(v);
        let bytes = &self.packed[ps..pe];
        if bytes.is_empty() {
            return buf;
        }
        let (degree, mut rest) = read_varint(bytes);
        let mut prev = 0u32;
        for i in 0..degree {
            let (x, r) = read_varint(rest);
            rest = r;
            prev = if i == 0 { x } else { prev + x };
            buf.push(prev);
        }
        buf
    }

    fn iter(&self, v: usize) -> NeighborIter<'_> {
        let (rs, re) = self.raw_offsets.run(v);
        if re > rs {
            return NeighborIter::Raw(self.raw[rs..re].iter());
        }
        let (ps, pe) = self.packed_offsets.run(v);
        let bytes = &self.packed[ps..pe];
        if bytes.is_empty() {
            return NeighborIter::Packed { bytes: &[], remaining: 0, prev: 0, first: false };
        }
        let (degree, rest) = read_varint(bytes);
        NeighborIter::Packed { bytes: rest, remaining: degree as usize, prev: 0, first: true }
    }

    fn heap_bytes(&self) -> usize {
        self.raw_offsets.heap_bytes()
            + self.packed_offsets.heap_bytes()
            + self.raw.capacity() * std::mem::size_of::<VertexId>()
            + self.packed.capacity()
    }
}

/// Zero-allocation neighbor iterator over either representation.
pub enum NeighborIter<'a> {
    Raw(std::slice::Iter<'a, VertexId>),
    Packed { bytes: &'a [u8], remaining: usize, prev: u32, first: bool },
}

impl Iterator for NeighborIter<'_> {
    type Item = VertexId;

    #[inline]
    fn next(&mut self) -> Option<VertexId> {
        match self {
            NeighborIter::Raw(it) => it.next().copied(),
            NeighborIter::Packed { bytes, remaining, prev, first } => {
                if *remaining == 0 {
                    return None;
                }
                *remaining -= 1;
                let (x, rest) = read_varint(bytes);
                *bytes = rest;
                *prev = if *first { x } else { *prev + x };
                *first = false;
                Some(*prev)
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            NeighborIter::Raw(it) => it.size_hint(),
            NeighborIter::Packed { remaining, .. } => (*remaining, Some(*remaining)),
        }
    }
}

/// A [`Graph`] with cold adjacency rows varint-gap packed. Same logical
/// content, a fraction of the bytes; see the module docs for the layout.
pub struct CompressedGraph {
    n: usize,
    edges: usize,
    policy: CompressPolicy,
    out: Direction,
    inc: Direction,
}

impl CompressedGraph {
    /// Compresses `graph` under `policy`. The source can be dropped
    /// afterwards; [`CompressedGraph::to_graph`] reproduces it exactly.
    pub fn from_graph(graph: &Graph, policy: CompressPolicy) -> CompressedGraph {
        let n = graph.num_vertices();
        let mut out_offsets = Vec::with_capacity(n + 1);
        let mut in_offsets = Vec::with_capacity(n + 1);
        out_offsets.push(0);
        in_offsets.push(0);
        for v in 0..n {
            out_offsets.push(out_offsets[v] + graph.out_degree(v as VertexId));
            in_offsets.push(in_offsets[v] + graph.in_degree(v as VertexId));
        }
        // Flat views of the source CSR, via the public neighbor API.
        let out_flat: Vec<VertexId> =
            (0..n).flat_map(|v| graph.out_neighbors(v as VertexId).iter().copied()).collect();
        let in_flat: Vec<VertexId> =
            (0..n).flat_map(|v| graph.in_neighbors(v as VertexId).iter().copied()).collect();
        CompressedGraph {
            n,
            edges: graph.num_edges(),
            policy,
            out: Direction::compress(&out_offsets, &out_flat, policy),
            inc: Direction::compress(&in_offsets, &in_flat, policy),
        }
    }

    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges
    }

    pub fn policy(&self) -> CompressPolicy {
        self.policy
    }

    /// Out-neighbors of `v` (sorted) — identical contents to
    /// [`Graph::out_neighbors`]. Hot rows return a zero-copy slice; cold
    /// rows decode into `buf` (reuse one buffer across calls).
    #[inline]
    pub fn out_neighbors<'a>(&'a self, v: VertexId, buf: &'a mut Vec<VertexId>) -> &'a [VertexId] {
        self.out.neighbors(v as usize, buf)
    }

    /// In-neighbors of `v` (sorted) — identical contents to
    /// [`Graph::in_neighbors`].
    #[inline]
    pub fn in_neighbors<'a>(&'a self, v: VertexId, buf: &'a mut Vec<VertexId>) -> &'a [VertexId] {
        self.inc.neighbors(v as usize, buf)
    }

    /// Streaming out-neighbors without a scratch buffer.
    pub fn out_neighbors_iter(&self, v: VertexId) -> NeighborIter<'_> {
        self.out.iter(v as usize)
    }

    /// Streaming in-neighbors without a scratch buffer.
    pub fn in_neighbors_iter(&self, v: VertexId) -> NeighborIter<'_> {
        self.inc.iter(v as usize)
    }

    #[inline]
    pub fn out_degree(&self, v: VertexId) -> usize {
        self.out.degree(v as usize)
    }

    #[inline]
    pub fn in_degree(&self, v: VertexId) -> usize {
        self.inc.degree(v as usize)
    }

    /// Number of rows kept raw (out-direction).
    pub fn hot_rows(&self) -> usize {
        (0..self.n)
            .filter(|&v| {
                let (s, e) = self.out.raw_offsets.run(v);
                e > s
            })
            .count()
    }

    /// Decompresses back to the exact source [`Graph`] — bit-identical,
    /// which is what lets kernels validate against either representation.
    pub fn to_graph(&self) -> Graph {
        let mut out_offsets = Vec::with_capacity(self.n + 1);
        let mut in_offsets = Vec::with_capacity(self.n + 1);
        out_offsets.push(0usize);
        in_offsets.push(0usize);
        let mut out_flat = Vec::with_capacity(self.edges);
        let mut in_flat = Vec::with_capacity(self.edges);
        for v in 0..self.n {
            out_flat.extend(self.out.iter(v));
            in_flat.extend(self.inc.iter(v));
            out_offsets.push(out_flat.len());
            in_offsets.push(in_flat.len());
        }
        Graph::from_csr_parts(
            self.n,
            Offsets::from_usize(out_offsets),
            out_flat,
            Offsets::from_usize(in_offsets),
            in_flat,
        )
    }

    /// Heap bytes of the compressed structure.
    pub fn heap_bytes(&self) -> usize {
        self.out.heap_bytes() + self.inc.heap_bytes()
    }

    /// Heap bytes per directed edge (both directions included, like
    /// [`Graph::heap_bytes`]).
    pub fn bytes_per_edge(&self) -> f64 {
        if self.edges == 0 {
            return 0.0;
        }
        self.heap_bytes() as f64 / self.edges as f64
    }
}

/// Appends one varint through the shared codec ([`crate::wire`]).
#[inline]
fn write_varint(out: &mut Vec<u8>, x: u32) {
    put_varint(out, x as u64).expect("writing to a Vec cannot fail");
}

/// Reads one varint through the shared codec; returns `(value, rest)`.
/// Packed rows are written by [`Direction::compress`] and never leave this
/// module, so a decode failure is a bug here, not bad input.
#[inline]
fn read_varint(bytes: &[u8]) -> (u32, &[u8]) {
    let mut r = Reader::new(bytes);
    let x = r.varint_u32().expect("packed rows hold well-formed varints");
    (x, &bytes[bytes.len() - r.remaining()..])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{rmat, RmatConfig};

    fn check_equivalence(g: &Graph, policy: CompressPolicy) {
        let c = CompressedGraph::from_graph(g, policy);
        assert_eq!(c.num_vertices(), g.num_vertices());
        assert_eq!(c.num_edges(), g.num_edges());
        let mut buf = Vec::new();
        for v in g.vertices() {
            assert_eq!(c.out_neighbors(v, &mut buf), g.out_neighbors(v), "out row {v}");
            assert_eq!(c.in_neighbors(v, &mut buf), g.in_neighbors(v), "in row {v}");
            assert_eq!(c.out_degree(v), g.out_degree(v));
            assert_eq!(c.in_degree(v), g.in_degree(v));
            let it: Vec<VertexId> = c.out_neighbors_iter(v).collect();
            assert_eq!(it.as_slice(), g.out_neighbors(v));
        }
        assert_eq!(&c.to_graph(), g, "decompression must round-trip exactly");
    }

    #[test]
    fn equivalent_under_every_policy() {
        let g = rmat(&RmatConfig::social(1 << 9, 8 << 9), 5);
        for policy in [
            CompressPolicy::auto(),
            CompressPolicy::all_cold(),
            CompressPolicy { hot_min_degree: 4 },
        ] {
            check_equivalence(&g, policy);
        }
    }

    #[test]
    fn empty_rows_and_empty_graph() {
        check_equivalence(&Graph::empty(10), CompressPolicy::auto());
        check_equivalence(&Graph::from_edges(5, &[(0, 4)]), CompressPolicy::all_cold());
    }

    #[test]
    fn duplicate_edges_survive_gap_encoding() {
        // Zero gaps: duplicates kept verbatim by from_edges.
        let g = Graph::from_edges(3, &[(0, 1), (0, 1), (0, 2), (2, 2), (2, 2)]);
        check_equivalence(&g, CompressPolicy::all_cold());
    }

    #[test]
    fn max_degree_row() {
        // One vertex adjacent to everything — a max-degree row both raw
        // (auto keeps it hot) and packed (all_cold forces encoding).
        let n = 300usize;
        let edges: Vec<(VertexId, VertexId)> =
            (1..n as VertexId).map(|v| (0, v)).chain((1..n as VertexId).map(|v| (v, 0))).collect();
        let g = Graph::from_edges(n, &edges);
        check_equivalence(&g, CompressPolicy::auto());
        check_equivalence(&g, CompressPolicy::all_cold());
    }

    #[test]
    fn compresses_the_tail() {
        let g = rmat(&RmatConfig::social(1 << 11, 16 << 11), 5);
        let c = CompressedGraph::from_graph(&g, CompressPolicy::auto());
        assert!(
            c.heap_bytes() < g.heap_bytes(),
            "compressed {} >= raw {}",
            c.heap_bytes(),
            g.heap_bytes()
        );
        assert!(c.hot_rows() < g.num_vertices() / 10);
    }

    #[test]
    fn varint_round_trip() {
        // Ids and gaps on both sides of every varint length boundary
        // survive a packed row (the codec is tested in tests/snapshot_format.rs).
        let ids = [0u32, 1, 127, 128, 255, 16_383, 16_384, 32_768, 2_097_151, 2_097_152];
        let n = 2_097_153;
        let edges: Vec<(VertexId, VertexId)> = ids.iter().map(|&t| (0, t)).collect();
        check_equivalence(&Graph::from_edges(n, &edges), CompressPolicy::all_cold());
    }
}
