//! Property tests of the paper-scale graph substrate: the one CSR builder
//! must equal a naive oracle that shares no code with it, and streamed
//! chunked ingest must be bit-identical to the staged entry points at any
//! thread count and chunking. The substrate's byte budgets, and the
//! placement state's beside them, close the file.

use geograph::datasets::DEFAULT_CHUNK_EDGES;
use geograph::degree::suggest_theta;
use geograph::generators::{rmat_streamed, RmatConfig};
use geograph::{
    build_chunked, ChunkedEdges, Dataset, GeoGraph, Graph, GraphBuilder, LocalityConfig,
    ScopedPool, StreamConfig, VertexId,
};
use geopart::{HybridState, TrafficProfile};
use geosim::regions::ec2_eight_regions;
use proptest::prelude::*;

/// A deterministic in-memory chunk source over a pre-split edge list.
struct VecChunks {
    n: usize,
    chunks: Vec<Vec<(VertexId, VertexId)>>,
}

impl VecChunks {
    /// Splits `edges` into `num_chunks` contiguous runs.
    fn split(n: usize, edges: &[(VertexId, VertexId)], num_chunks: usize) -> VecChunks {
        let per = edges.len().div_ceil(num_chunks.max(1)).max(1);
        VecChunks { n, chunks: edges.chunks(per).map(<[_]>::to_vec).collect() }
    }
}

impl ChunkedEdges for VecChunks {
    fn num_vertices(&self) -> usize {
        self.n
    }
    fn num_chunks(&self) -> usize {
        self.chunks.len().max(1)
    }
    fn emit(&self, chunk: usize, sink: &mut dyn FnMut(VertexId, VertexId)) {
        if let Some(c) = self.chunks.get(chunk) {
            for &(u, v) in c {
                sink(u, v);
            }
        }
    }
}

/// `(n, edges)` with duplicate- and self-loop-heavy edge lists: endpoints
/// are drawn from a small range so collisions are the norm, not the
/// exception.
fn arb_edges() -> impl Strategy<Value = (usize, Vec<(VertexId, VertexId)>)> {
    (2usize..24).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n as VertexId, 0..n as VertexId), 0..120);
        (Just(n), edges)
    })
}

/// `(n, edges)` in the shapes a CSR builder gets wrong: `n` of 0 and 1, an
/// out-hub, an in-hub, a handful of vertices carrying every edge many times
/// over (self-loops included), and — in every shape but the first — a
/// trailing half of the vertex range that no edge touches.
fn arb_shaped() -> impl Strategy<Value = (usize, Vec<(VertexId, VertexId)>)> {
    let raw = proptest::collection::vec((0u32..1 << 16, 0u32..1 << 16), 0..160);
    (0usize..8, 0u8..5, raw).prop_map(|(size, shape, raw)| {
        let n = [0usize, 1, 2, 3, 7, 16, 33, 64][size];
        if n == 0 {
            return (0, Vec::new());
        }
        let live = if shape == 0 { n } else { n.div_ceil(2) } as VertexId;
        let edges = raw
            .into_iter()
            .map(|(a, b)| match shape {
                1 => (0, b % live),
                2 => (a % live, 0),
                3 => (a % live.min(3), b % live.min(3)),
                _ => (a % live, b % live),
            })
            .collect();
        (n, edges)
    })
}

/// The obviously-correct adjacency, sharing no code with `geograph`'s
/// builders: push every kept edge onto its endpoints' rows, sort each row,
/// and (cleaned) drop self-loops and repeats. Returns `(out, in)` rows.
fn naive_adjacency(
    n: usize,
    edges: &[(VertexId, VertexId)],
    cleaned: bool,
) -> (Vec<Vec<VertexId>>, Vec<Vec<VertexId>>) {
    let mut out = vec![Vec::new(); n];
    let mut inn = vec![Vec::new(); n];
    for &(u, v) in edges {
        if !(cleaned && u == v) {
            out[u as usize].push(v);
            inn[v as usize].push(u);
        }
    }
    for row in out.iter_mut().chain(inn.iter_mut()) {
        row.sort_unstable();
        if cleaned {
            row.dedup();
        }
    }
    (out, inn)
}

/// Row-by-row equality of a built graph with the naive adjacency.
fn assert_matches_naive(g: &Graph, out: &[Vec<VertexId>], inn: &[Vec<VertexId>], what: &str) {
    assert_eq!(g.num_vertices(), out.len(), "{what}: vertex count");
    assert_eq!(g.num_edges(), out.iter().map(Vec::len).sum::<usize>(), "{what}: edge count");
    for v in 0..out.len() {
        assert_eq!(g.out_neighbors(v as VertexId), &out[v][..], "{what}: out-row {v}");
        assert_eq!(g.in_neighbors(v as VertexId), &inn[v][..], "{what}: in-row {v}");
    }
}

proptest! {
    /// The builder against an oracle that is not the builder: every entry
    /// point is one core now, so "streamed ≡ staged" alone would compare it
    /// with itself. Cleaned and verbatim, 1–8 threads, 1–11 chunks, with the
    /// report's counts checked against the same naive rows.
    #[test]
    fn build_core_matches_naive_oracle((n, edges) in arb_shaped()) {
        let self_loops = edges.iter().filter(|&&(u, v)| u == v).count();
        for cleaned in [false, true] {
            let (out, inn) = naive_adjacency(n, &edges, cleaned);
            let kept: usize = out.iter().map(Vec::len).sum();
            let cfg = if cleaned { StreamConfig::cleaned() } else { StreamConfig::verbatim() };
            for num_chunks in [1usize, 2, 5, 11] {
                let src = VecChunks::split(n, &edges, num_chunks);
                for threads in [1usize, 2, 4, 8] {
                    let what = format!("cleaned={cleaned} chunks={num_chunks} threads={threads}");
                    let (g, report) = build_chunked(&src, cfg, &ScopedPool(threads)).expect(&what);
                    assert_matches_naive(&g, &out, &inn, &what);
                    prop_assert_eq!(report.raw_edges as usize, edges.len(), "{}", what);
                    prop_assert_eq!(report.edges, kept, "{}", what);
                    let dropped = if cleaned { self_loops } else { 0 };
                    prop_assert_eq!(report.self_loops_dropped as usize, dropped, "{}", what);
                    prop_assert_eq!(
                        report.duplicates_removed as usize,
                        edges.len() - dropped - kept,
                        "{}", what
                    );
                    prop_assert_eq!(report.csr_bytes, g.heap_bytes(), "{}", what);
                }
            }
        }
        // The staged entry points, against the same rows.
        let (out, inn) = naive_adjacency(n, &edges, false);
        assert_matches_naive(&Graph::from_edges(n, &edges), &out, &inn, "from_edges");
        let (out, inn) = naive_adjacency(n, &edges, true);
        let mut builder = GraphBuilder::new(n);
        builder.add_edges(edges.iter().copied());
        assert_matches_naive(&builder.build(), &out, &inn, "GraphBuilder::build");
        assert_matches_naive(&builder.finish().expect("finish"), &out, &inn, "GraphBuilder::finish");
    }

    /// The verify.sh-gated contract: for any edge list (duplicates and
    /// self-loops included), any chunking, and any thread count, the
    /// streamed two-pass build equals `Graph::from_edges` bit-for-bit in
    /// verbatim mode and `GraphBuilder::build` in cleaned mode.
    #[test]
    fn streamed_build_matches_staged((n, edges) in arb_edges()) {
        let staged = Graph::from_edges(n, &edges);
        let built = {
            let mut b = GraphBuilder::new(n);
            for &(u, v) in &edges {
                if u != v {
                    b.add_edge(u, v);
                }
            }
            b.build()
        };
        for num_chunks in [1usize, 3, 7] {
            let src = VecChunks::split(n, &edges, num_chunks);
            for threads in [1usize, 2, 4, 8] {
                let pool = ScopedPool(threads);
                let (verbatim, _) = build_chunked(&src, StreamConfig::verbatim(), &pool)
                    .expect("verbatim build");
                prop_assert_eq!(
                    &verbatim, &staged,
                    "verbatim diverged at {} chunks / {} threads", num_chunks, threads
                );
                let (cleaned, report) = build_chunked(&src, StreamConfig::cleaned(), &pool)
                    .expect("cleaned build");
                prop_assert_eq!(
                    &cleaned, &built,
                    "cleaned diverged at {} chunks / {} threads", num_chunks, threads
                );
                prop_assert_eq!(report.edges, cleaned.num_edges());
            }
        }
    }
}

#[test]
fn streamed_rmat_deterministic_across_thread_counts() {
    let config = RmatConfig::social(1 << 11, 1 << 14);
    let (reference, report) = rmat_streamed(&config, 9, 1 << 10, &ScopedPool(1)).unwrap();
    assert!(report.edges > 0);
    for threads in [2usize, 4, 8] {
        let (g, r) = rmat_streamed(&config, 9, 1 << 10, &ScopedPool(threads)).unwrap();
        assert_eq!(g, reference, "streamed R-MAT diverged at {threads} threads");
        assert_eq!(r.edges, report.edges);
    }
}

/// The substrate's byte budgets, on the LiveJournal analog at scale 0.002
/// (9.7 k vertices, ~14 edges per vertex — the density at which they
/// bind). Both are exact for a seed. CSR: at most 9.0 B per directed
/// edge (measured 8.62; `usize` offsets cost 9.25 and fail). Build: peak at
/// most 1.25 x the CSR it returns (measured 1.000; a staged edge list sits
/// at 2-3 x).
#[test]
fn lj_analog_ingest_stays_inside_its_byte_budgets() {
    let (config, seed) = Dataset::LiveJournal.rmat_setup(0.002, 42);
    let (_, report) = rmat_streamed(&config, seed, DEFAULT_CHUNK_EDGES, &ScopedPool(2)).unwrap();
    let per_edge = report.csr_bytes as f64 / report.edges as f64;
    assert!(per_edge <= 9.0, "CSR costs {per_edge:.3} B/edge");
    assert!(report.build_ratio() <= 1.25, "build peaked at {:.3} x the CSR", report.build_ratio());
}

/// The hybrid-cut placement state's byte budget on the same graph over
/// the paper's 8 DCs: at most 4.5 B per directed edge (`u16` count rows,
/// one 24-byte meta record and a master per vertex, 57 B; measured 4.42;
/// 98 B a vertex and 7.59 B/edge with `u32` rows and the profile and
/// degree classes copied beside the records). Exact for a seed.
#[test]
fn lj_analog_placement_state_stays_inside_its_byte_budget() {
    let (config, seed) = Dataset::LiveJournal.rmat_setup(0.002, 42);
    let (graph, report) =
        rmat_streamed(&config, seed, DEFAULT_CHUNK_EDGES, &ScopedPool(2)).unwrap();
    let geo = GeoGraph::from_graph(graph, &LocalityConfig::paper_default(seed));
    let theta = suggest_theta(&geo.graph, 0.05);
    let profile = TrafficProfile::uniform(geo.num_vertices(), 8.0);
    let state = HybridState::natural(&geo, &ec2_eight_regions(), theta, profile, 10.0);
    let per_edge = state.heap_bytes() as f64 / report.edges as f64;
    assert!(per_edge <= 4.5, "placement state costs {per_edge:.3} B/edge");
}

#[test]
fn empty_graph_streams() {
    let src = VecChunks::split(5, &[], 1);
    let (g, report) = build_chunked(&src, StreamConfig::cleaned(), &ScopedPool(4)).unwrap();
    assert_eq!(g, Graph::empty(5));
    assert_eq!(report.edges, 0);
}
