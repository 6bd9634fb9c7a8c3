//! The one CSR builder: a [`Graph`] from a re-emittable edge stream, without
//! ever staging or sorting a `Vec<(VertexId, VertexId)>`.
//!
//! [`build_chunked`] makes two passes over a [`ChunkedEdges`] source and two
//! sequential transposes over what they leave:
//!
//! 1. **Count** — chunk `c` goes to worker `c mod t` of the `t`-thread
//!    pool, on both passes, and each worker counts the out-degrees of the
//!    edges it emits into a `u32` plane of its own with plain increments:
//!    no read-modify-write is shared, so no edge waits on a fence or on
//!    another worker's cache line.
//! 2. **Scatter** — a checked prefix sum lays every run out as the workers'
//!    shares in worker order, and turns each worker's count plane into the
//!    ends of its shares beside a plane of cursors at their starts. The
//!    chunks are emitted again, and each edge's target is stored (relaxed,
//!    a plain store) into the next slot of its worker's share; the slot
//!    plane then becomes the plain `u32` run array in place. The order
//!    inside a run depends on the thread count; which targets a run holds
//!    does not. A share left short, or handed an edge past its end, means
//!    the two passes disagreed: [`BuildError::StreamMismatch`]. Optional
//!    cleaning happens here, in place: self-loops were dropped at emit
//!    time, and repeated targets are squeezed out of each run by a
//!    one-stamp-per-vertex filter that does not care about order.
//! 3. **Transpose** (`crate::csr::transpose`) — a counting scatter walked
//!    in ascending source order turns the racy out-runs into in-runs that
//!    are *sorted*, whatever order the scatter left.
//! 4. **Transpose** again — the sorted out-direction.
//!
//! No comparison sort runs anywhere, and the result is a pure function of
//! the edge multiset — identical at any thread count and chunking — because
//! a transposed run is filled in key order and equal keys carry equal
//! values. Cleaning here *is* [`crate::GraphBuilder`]'s semantics: dropping
//! the repeats of `v` inside `u`'s run drops exactly the repeated `(u, v)`
//! edges. [`Graph::from_edges`] and the `GraphBuilder` build methods are
//! one-chunk, one-thread calls of this function.
//!
//! The build holds the worker planes (8 bytes/vertex per worker during the
//! scatter) only while it holds one direction, and the two directions only
//! once duplicates are gone, so it peaks at the CSR it returns unless the
//! planes and the pre-dedup direction outgrow it — with many workers over
//! a sparse graph, or more than half the stream duplicates
//! ([`IngestReport::transient_bytes`]).
//!
//! The kept-edge count is capped at `u32` — that is what keeps the planes
//! at 4 bytes a vertex each, and what a [`Graph`]'s `u32` offsets require.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;

use crate::csr::{edge_count, transpose, Graph};
use crate::VertexId;

/// Typed failure of a graph build — overflow and range conditions that the
/// panicking [`Graph::from_edges`] entry treats as programming errors are
/// recoverable errors here, because at paper scale they are *data* errors
/// (a 2^31-edge stream is a real input, not a bug).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BuildError {
    /// The vertex count does not fit [`VertexId`] (ids are `u32`; the
    /// all-ones value is reserved).
    TooManyVertices { n: usize },
    /// The graph would hold ≥ 2^32 edges. A [`Graph`]'s offsets and the
    /// build's per-vertex degree planes are `u32` (4 bytes/vertex each);
    /// the exact total is tracked in 64 bits so the condition is detected,
    /// not wrapped.
    TooManyEdges { edges: u64 },
    /// An emitted edge references a vertex `>= n`.
    EdgeOutOfRange { u: VertexId, v: VertexId, n: usize },
    /// CSR offset accumulation overflowed `usize`.
    OffsetOverflow,
    /// The source broke the [`ChunkedEdges`] contract: its second pass did
    /// not repeat the first. `vertex` had `pass1` kept edges counted;
    /// `pass2` is how many the scatter was handed — exact when fewer,
    /// `pass1 + 1` when it was handed an edge the first pass never counted
    /// (the scatter refuses the first such edge and stops counting).
    StreamMismatch { vertex: VertexId, pass1: u32, pass2: u32 },
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::TooManyVertices { n } => {
                write!(f, "vertex count {n} exceeds VertexId range")
            }
            BuildError::TooManyEdges { edges } => {
                write!(f, "{edges} edges exceed the 2^32-1 a graph holds")
            }
            BuildError::EdgeOutOfRange { u, v, n } => {
                write!(f, "edge ({u},{v}) out of range for n={n}")
            }
            BuildError::OffsetOverflow => write!(f, "CSR offset accumulation overflowed usize"),
            BuildError::StreamMismatch { vertex, pass1, pass2 } => write!(
                f,
                "edge stream changed between passes: vertex {vertex} had {pass1} edges in pass 1, \
                 {pass2} in pass 2"
            ),
        }
    }
}

impl std::error::Error for BuildError {}

/// An edge source that can re-emit any chunk of its stream on demand.
///
/// The contract that makes two-pass ingest sound: **`emit(chunk, ·)` must
/// produce the identical edge sequence every time it is called** for a
/// given chunk. Generators satisfy this by deriving a fresh RNG from
/// `(seed, chunk)`; file loaders by re-reading a byte range. Chunks may be
/// emitted in any order, concurrently, on any thread.
pub trait ChunkedEdges: Sync {
    /// Number of vertices of the output graph.
    fn num_vertices(&self) -> usize;
    /// Number of chunks the stream is split into.
    fn num_chunks(&self) -> usize;
    /// Emits every edge of `chunk` (0-based) into `sink`, in a
    /// deterministic per-chunk order.
    fn emit(&self, chunk: usize, sink: &mut dyn FnMut(VertexId, VertexId));
    /// Optional total-edge hint (pre-cleaning), for progress reporting.
    fn edges_hint(&self) -> Option<u64> {
        None
    }
}

/// The workspace's one fan-out: `ScopedPool(n)` runs a job on `n` threads
/// (at least one) — the caller plus `n − 1` scoped threads spawned per
/// call and joined before it returns. Streamed builds run each sweep on
/// it, and the trainer's scoring phase each step (`rlcut::pool`).
#[derive(Clone, Copy, Debug)]
pub struct ScopedPool(pub usize);

impl ScopedPool {
    /// Number of workers [`Self::run`] invokes.
    pub(crate) fn threads(&self) -> usize {
        self.0.max(1)
    }

    /// Runs `job(i)` once for every `i in 0..threads()`, concurrently, and
    /// returns when all have finished.
    pub fn run(&self, job: &(dyn Fn(usize) + Sync)) {
        let t = self.threads();
        if t == 1 {
            job(0);
            return;
        }
        std::thread::scope(|s| {
            for i in 1..t {
                s.spawn(move || job(i));
            }
            job(0);
        });
    }
}

/// Cleaning option of a build: [`Self::cleaned`] or [`Self::verbatim`].
#[derive(Clone, Copy, Debug)]
pub struct StreamConfig {
    /// Drop `(v, v)` edges at emit time and remove duplicate `(u, v)` edges
    /// (in-place compaction of each run).
    clean: bool,
}

impl StreamConfig {
    /// Dedup + drop self-loops: what a default [`crate::GraphBuilder`]
    /// builds with.
    pub fn cleaned() -> Self {
        StreamConfig { clean: true }
    }

    /// Keep everything: what [`Graph::from_edges`] builds with.
    pub fn verbatim() -> Self {
        StreamConfig { clean: false }
    }
}

/// What a streamed build did and what it cost in memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IngestReport {
    /// Edges emitted by the source (pre-cleaning).
    pub raw_edges: u64,
    /// Edges in the built graph.
    pub edges: usize,
    /// Self-loops dropped at emit time.
    pub self_loops_dropped: u64,
    /// Duplicate edges removed by compaction.
    pub duplicates_removed: u64,
    /// Heap bytes of the final CSR (both directions, offsets + targets).
    pub csr_bytes: usize,
    /// Peak heap held *in addition to* the final CSR during the build.
    /// Measured at the scatter, the one point that can exceed the result:
    /// every worker's cursor and end planes plus one direction at pre-dedup
    /// length. Zero unless those outgrow the CSR (more than half the kept
    /// stream duplicates, or many workers over few edges a vertex) —
    /// afterwards the build holds only what it returns.
    pub transient_bytes: usize,
}

impl IngestReport {
    /// Peak accounted build footprint: final CSR plus transients.
    pub(crate) fn peak_bytes(&self) -> usize {
        self.csr_bytes + self.transient_bytes
    }

    /// Peak footprint as a multiple of the final CSR size; must stay under
    /// ~1.2× (a staged edge list would sit near 2–3×).
    pub fn build_ratio(&self) -> f64 {
        if self.csr_bytes == 0 {
            return 1.0;
        }
        self.peak_bytes() as f64 / self.csr_bytes as f64
    }
}

/// What one sweep over the source saw.
struct SweepTotals {
    raw_edges: u64,
    self_loops_dropped: u64,
}

/// One sweep over every chunk of `src`, spread over `pool`: validates each
/// edge against `n`, drops self-loops if `cfg` says so, and hands every kept
/// edge to `keep` with the plane of the worker that emitted it. Chunk `c`
/// goes to worker `c mod t` (`t = planes.len()`, the pool's thread count),
/// which emits its chunks in ascending order, so each worker's plane sees
/// the same edges in the same order on every sweep of a source that keeps
/// the [`ChunkedEdges`] contract. Both passes of the build are this sweep,
/// so both apply the same checks: an out-of-range edge or a stream at 2^32
/// kept edges is a typed error whichever pass meets it.
fn sweep<S: ChunkedEdges + ?Sized, P: Send>(
    src: &S,
    cfg: StreamConfig,
    pool: &ScopedPool,
    planes: &[Mutex<P>],
    keep: impl Fn(&mut P, VertexId, VertexId) + Sync,
) -> Result<SweepTotals, BuildError> {
    let n = src.num_vertices();
    let num_chunks = src.num_chunks();
    let t = planes.len();
    debug_assert_eq!(t, pool.threads());
    let raw_edges = AtomicU64::new(0);
    let loops_dropped = AtomicU64::new(0);
    // First out-of-range edge, packed (u << 32) | v; u64::MAX = none.
    let bad_edge = AtomicU64::new(u64::MAX);
    pool.run(&|worker| {
        // Worker `i` alone locks plane `i`, once a sweep.
        let mut plane = planes[worker].lock().expect("one worker per plane");
        let plane = &mut *plane;
        let mut local_raw = 0u64;
        let mut local_loops = 0u64;
        for c in (worker..num_chunks).step_by(t) {
            src.emit(c, &mut |u, v| {
                local_raw += 1;
                if (u as usize) >= n || (v as usize) >= n {
                    let packed = ((u as u64) << 32) | v as u64;
                    let _ = bad_edge.compare_exchange(
                        u64::MAX,
                        packed,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    );
                    return;
                }
                if cfg.clean && u == v {
                    local_loops += 1;
                    return;
                }
                keep(plane, u, v);
            });
        }
        raw_edges.fetch_add(local_raw, Ordering::Relaxed);
        loops_dropped.fetch_add(local_loops, Ordering::Relaxed);
    });

    let totals = SweepTotals {
        raw_edges: raw_edges.into_inner(),
        self_loops_dropped: loops_dropped.into_inner(),
    };
    let bad = bad_edge.into_inner();
    if bad != u64::MAX {
        return Err(BuildError::EdgeOutOfRange {
            u: (bad >> 32) as VertexId,
            v: bad as VertexId,
            n,
        });
    }
    // Degrees are counted in `u32`; below 2^32 kept edges no counter can
    // wrap, and the exact total is tracked in 64 bits so the >= 2^32 case
    // is this error, never a silent wrap.
    edge_count(totals.raw_edges - totals.self_loops_dropped)?;
    Ok(totals)
}

/// One `n`-entry plane per worker out of a `t · n` buffer, each behind the
/// lock its worker alone takes. One buffer holds every worker's plane of a
/// kind, so a build makes the same few allocations at any thread count.
fn worker_planes(buf: &mut [u32], t: usize, n: usize) -> Vec<Mutex<&mut [u32]>> {
    let mut rest = buf;
    (0..t)
        .map(|_| {
            let (plane, tail) = std::mem::take(&mut rest).split_at_mut(n);
            rest = tail;
            Mutex::new(plane)
        })
        .collect()
}

/// Pass 2's plane for one worker: per vertex, the next free slot of the
/// worker's share of the run and the end of that share.
struct Cursors<'a> {
    next: &'a mut [u32],
    end: &'a [u32],
}

/// Checked prefix sum of the workers' pass-1 degree counts (`counts`,
/// worker-major): run `u` of the flat array is `offsets[u]..offsets[u + 1]`,
/// and worker `w`'s share of it follows the shares of workers `0..w`.
/// Returns the offsets; `counts` becomes the ends of the shares and `next`
/// their starts, both worker-major. The sweep capped kept edges at `u32`,
/// so the sum fits.
fn layout_runs(
    counts: &mut [u32],
    next: &mut [u32],
    t: usize,
    n: usize,
) -> Result<Vec<u32>, BuildError> {
    let mut offsets = Vec::with_capacity(n + 1);
    let mut acc = 0u32;
    offsets.push(0);
    for u in 0..n {
        for w in 0..t {
            next[w * n + u] = acc;
            acc = acc.checked_add(counts[w * n + u]).ok_or(BuildError::OffsetOverflow)?;
            counts[w * n + u] = acc;
        }
        offsets.push(acc);
    }
    Ok(offsets)
}

/// The lowest vertex the scatter was handed an edge for that pass 1 never
/// counted (its run was already full), with the run's length.
struct Refused(AtomicU64);

impl Refused {
    fn new() -> Self {
        Refused(AtomicU64::new(u64::MAX))
    }

    /// Lowest vertex wins, so the reported vertex does not depend on thread
    /// interleaving.
    fn record(&self, vertex: VertexId, run_len: u32) {
        self.0.fetch_min(((vertex as u64) << 32) | run_len as u64, Ordering::Relaxed);
    }

    fn into_result(self) -> Result<(), BuildError> {
        match self.0.into_inner() {
            u64::MAX => Ok(()),
            packed => {
                let pass1 = packed as u32;
                Err(BuildError::StreamMismatch {
                    vertex: (packed >> 32) as VertexId,
                    pass1,
                    pass2: pass1.saturating_add(1),
                })
            }
        }
    }
}

/// The post-scatter check that, with [`Refused`], turns a lying source into
/// a typed error instead of a silently wrong graph: every worker's share of
/// every run is exactly full (`next`, `end`: the `t` workers' cursor and
/// end planes, worker-major).
fn check_runs_full(offsets: &[u32], next: &[u32], end: &[u32], t: usize) -> Result<(), BuildError> {
    let n = offsets.len() - 1;
    for u in 0..n {
        let left: u32 = (0..t).map(|w| end[w * n + u] - next[w * n + u]).sum();
        if left != 0 {
            let pass1 = offsets[u + 1] - offsets[u];
            return Err(BuildError::StreamMismatch {
                vertex: u as VertexId,
                pass1,
                pass2: pass1 - left,
            });
        }
    }
    Ok(())
}

/// Builds a [`Graph`] from a chunked edge stream in two passes, without a
/// staging edge list and without sorting. Deterministic — bit-identical
/// output for a fixed source and config — at any `pool.threads()`.
pub fn build_chunked<S: ChunkedEdges + ?Sized>(
    src: &S,
    cfg: StreamConfig,
    pool: &ScopedPool,
) -> Result<(Graph, IngestReport), BuildError> {
    let n = src.num_vertices();
    if n >= VertexId::MAX as usize {
        return Err(BuildError::TooManyVertices { n });
    }

    // ---- Pass 1: count out-degrees, one plane per worker. ----------------
    let t = pool.threads();
    let mut counts = vec![0u32; t * n];
    let totals = sweep(src, cfg, pool, &worker_planes(&mut counts, t, n), |counts, u, _v| {
        let c = &mut counts[u as usize];
        *c = c.wrapping_add(1);
    })?;
    let mut next = vec![0u32; t * n];
    let mut scattered_offsets = layout_runs(&mut counts, &mut next, t, n)?;
    let (end, slots_len) = (counts, scattered_offsets[n]);
    let slots: Vec<AtomicU32> = (0..slots_len).map(|_| AtomicU32::new(0)).collect();

    // ---- Pass 2: scatter targets into their worker's share of the run. ---
    let refused = Refused::new();
    let planes: Vec<Mutex<Cursors>> = worker_planes(&mut next, t, n)
        .into_iter()
        .enumerate()
        .map(|(w, next)| {
            let next = next.into_inner().expect("not yet shared");
            Mutex::new(Cursors { next, end: &end[w * n..(w + 1) * n] })
        })
        .collect();
    sweep(src, cfg, pool, &planes, |share, u, v| {
        let ui = u as usize;
        let slot = share.next[ui];
        if slot < share.end[ui] {
            slots[slot as usize].store(v, Ordering::Relaxed);
            share.next[ui] = slot + 1;
        } else {
            refused.record(u, scattered_offsets[ui + 1] - scattered_offsets[ui]);
        }
    })?;
    drop(planes);
    refused.into_result()?;
    check_runs_full(&scattered_offsets, &next, &end, t)?;
    // Same size and alignment, so std reuses the slot plane's allocation.
    let mut scattered: Vec<VertexId> = slots.into_iter().map(AtomicU32::into_inner).collect();
    // The build's peak beyond the CSR it returns, if any: from here on it
    // holds at most one equally sized plane in the cursors' place, then
    // exactly the two directions.
    let plane_words = next.capacity() + end.capacity();
    let scatter_bytes = (plane_words + scattered_offsets.capacity() + scattered.capacity())
        * std::mem::size_of::<u32>();
    drop((next, end));

    // ---- Optional dedup, once, before anything is copied. -----------------
    let scattered_edges = scattered.len();
    if cfg.clean {
        dedup_rows(&mut scattered_offsets, &mut scattered);
    }
    let duplicates_removed = (scattered_edges - scattered.len()) as u64;

    // ---- Transpose: sorted in-runs, whatever order the scatter left. ------
    let (in_offsets, in_sources) = transpose(n, &scattered_offsets, &scattered);
    drop(scattered);
    drop(scattered_offsets);

    // ---- Transpose back: the sorted out-direction. ------------------------
    let (out_offsets, out_targets) = transpose(n, &in_offsets, &in_sources);

    let graph = Graph::from_csr_parts(n, out_offsets, out_targets, in_offsets, in_sources);
    let csr_bytes = graph.heap_bytes();
    let report = IngestReport {
        raw_edges: totals.raw_edges,
        edges: graph.num_edges(),
        self_loops_dropped: totals.self_loops_dropped,
        duplicates_removed,
        csr_bytes,
        transient_bytes: scatter_bytes.saturating_sub(csr_bytes),
    };
    Ok((graph, report))
}

/// Removes repeated entries from every row, whatever order the rows are
/// in, shifting the flat array left and rewriting offsets in place, then
/// returns the slack to the allocator (at paper scale these are multi-MB
/// blocks, which glibc shrinks in place via mremap rather than copying).
/// One `u32` stamp per vertex remembers the last row that kept it; rows are
/// visited once each, so the row id is its own generation.
fn dedup_rows(offsets: &mut [u32], flat: &mut Vec<VertexId>) {
    let n = offsets.len() - 1;
    // No row is `VertexId::MAX` (`n < VertexId::MAX`), so nothing is seen yet.
    let mut seen_by = vec![VertexId::MAX; n];
    let mut w = 0usize;
    let mut run_start = 0usize;
    for u in 0..n {
        let run_end = offsets[u + 1] as usize;
        for i in run_start..run_end {
            // Branch-free (`w <= i`, so the store never clobbers an unread
            // entry): in a duplicate-heavy stream the test is a coin flip.
            let t = flat[i];
            let stamp = &mut seen_by[t as usize];
            flat[w] = t;
            w += usize::from(*stamp != u as VertexId);
            *stamp = u as VertexId;
        }
        run_start = run_end;
        offsets[u + 1] = w as u32;
    }
    flat.truncate(w);
    flat.shrink_to_fit();
}

/// Adapter: a re-creatable sequential iterator as a one-chunk stream. The
/// factory is called once per pass.
struct IterSource<F> {
    n: usize,
    make_iter: F,
}

impl<I, F> ChunkedEdges for IterSource<F>
where
    I: Iterator<Item = (VertexId, VertexId)>,
    F: Fn() -> I + Sync,
{
    fn num_vertices(&self) -> usize {
        self.n
    }

    fn num_chunks(&self) -> usize {
        1
    }

    fn emit(&self, _chunk: usize, sink: &mut dyn FnMut(VertexId, VertexId)) {
        for (u, v) in (self.make_iter)() {
            sink(u, v);
        }
    }
}

/// Builds a [`Graph`] from a sequential edge stream that can be replayed
/// from scratch (`make_iter` is called once per pass). For inherently
/// sequential sources — preferential attachment, arrival-ordered event
/// logs — where chunk-parallel emission is impossible but the staging copy
/// is still worth eliminating.
pub(crate) fn build_streamed<I, F>(
    n: usize,
    make_iter: F,
    cfg: StreamConfig,
) -> Result<(Graph, IngestReport), BuildError>
where
    I: Iterator<Item = (VertexId, VertexId)>,
    F: Fn() -> I + Sync,
{
    build_chunked(&IterSource { n, make_iter }, cfg, &ScopedPool(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;
    use std::sync::atomic::AtomicUsize;

    /// A fixed edge list exposed as a chunked stream.
    struct VecSource {
        n: usize,
        chunk: usize,
        edges: Vec<(VertexId, VertexId)>,
    }

    impl ChunkedEdges for VecSource {
        fn num_vertices(&self) -> usize {
            self.n
        }
        fn num_chunks(&self) -> usize {
            self.edges.len().div_ceil(self.chunk).max(1)
        }
        fn emit(&self, chunk: usize, sink: &mut dyn FnMut(VertexId, VertexId)) {
            let lo = chunk * self.chunk;
            let hi = (lo + self.chunk).min(self.edges.len());
            for &(u, v) in &self.edges[lo..hi] {
                sink(u, v);
            }
        }
    }

    /// A source that breaks the [`ChunkedEdges`] contract: one edge per
    /// chunk, and from the second sweep on it emits a different list.
    struct Liar {
        n: usize,
        passes: [Vec<(VertexId, VertexId)>; 2],
        emitted: AtomicUsize,
    }

    impl Liar {
        fn new(n: usize, pass1: &[(VertexId, VertexId)], pass2: &[(VertexId, VertexId)]) -> Self {
            Liar { n, passes: [pass1.to_vec(), pass2.to_vec()], emitted: AtomicUsize::new(0) }
        }
    }

    impl ChunkedEdges for Liar {
        fn num_vertices(&self) -> usize {
            self.n
        }
        fn num_chunks(&self) -> usize {
            self.passes[0].len().max(self.passes[1].len())
        }
        fn emit(&self, chunk: usize, sink: &mut dyn FnMut(VertexId, VertexId)) {
            // Every sweep emits every chunk exactly once.
            let pass = self.emitted.fetch_add(1, Ordering::Relaxed) / self.num_chunks();
            if let Some(&(u, v)) = self.passes[pass.min(1)].get(chunk) {
                sink(u, v);
            }
        }
    }

    fn messy_edges() -> Vec<(VertexId, VertexId)> {
        // Duplicates, self-loops, out-of-order, hub vertex 0.
        let mut e = vec![(3, 3), (1, 0), (0, 2), (0, 2), (2, 1), (0, 1), (4, 0), (0, 3)];
        for i in 0..50 {
            e.push((0, (i % 5) as VertexId));
            e.push(((i % 5) as VertexId, 0));
        }
        e
    }

    #[test]
    fn verbatim_matches_from_edges() {
        let edges = messy_edges();
        let staged = Graph::from_edges(5, &edges);
        for threads in [1, 2, 4] {
            for chunk in [1, 3, 1000] {
                let src = VecSource { n: 5, chunk, edges: edges.clone() };
                let (g, rep) =
                    build_chunked(&src, StreamConfig::verbatim(), &ScopedPool(threads)).unwrap();
                assert_eq!(g, staged, "threads={threads} chunk={chunk}");
                assert_eq!(rep.raw_edges as usize, edges.len());
                assert_eq!(rep.edges, edges.len());
            }
        }
    }

    #[test]
    fn cleaned_matches_graph_builder() {
        let edges = messy_edges();
        let mut b = GraphBuilder::new(5);
        b.add_edges(edges.iter().copied());
        let staged = b.build();
        for threads in [1, 3] {
            let src = VecSource { n: 5, chunk: 4, edges: edges.clone() };
            let (g, rep) =
                build_chunked(&src, StreamConfig::cleaned(), &ScopedPool(threads)).unwrap();
            assert_eq!(g, staged, "threads={threads}");
            // (3,3) plus the 20 (0,0) pairs from the hub loop.
            assert_eq!(rep.self_loops_dropped, 21);
            assert!(rep.duplicates_removed > 0);
            assert_eq!(rep.edges, staged.num_edges());
        }
    }

    #[test]
    fn empty_stream() {
        let src = VecSource { n: 3, chunk: 8, edges: vec![] };
        let (g, rep) = build_chunked(&src, StreamConfig::cleaned(), &ScopedPool(2)).unwrap();
        assert_eq!(g, Graph::empty(3));
        assert_eq!(rep.raw_edges, 0);
        // Offset arrays still exist, so the ratio is finite and >= 1.
        assert!(rep.build_ratio() >= 1.0);
    }

    #[test]
    fn out_of_range_is_typed_error() {
        let src = VecSource { n: 3, chunk: 8, edges: vec![(0, 1), (5, 1)] };
        let err = build_chunked(&src, StreamConfig::verbatim(), &ScopedPool(1)).unwrap_err();
        assert_eq!(err, BuildError::EdgeOutOfRange { u: 5, v: 1, n: 3 });
    }

    #[test]
    fn too_many_vertices_is_typed_error() {
        let src = VecSource { n: u32::MAX as usize, chunk: 8, edges: vec![] };
        let err = build_chunked(&src, StreamConfig::verbatim(), &ScopedPool(1)).unwrap_err();
        assert!(matches!(err, BuildError::TooManyVertices { .. }));
    }

    #[test]
    fn sequential_stream_matches_staged() {
        let edges = messy_edges();
        let staged = Graph::from_edges(5, &edges);
        let (g, _) = build_streamed(5, || edges.iter().copied(), StreamConfig::verbatim()).unwrap();
        assert_eq!(g, staged);
    }

    #[test]
    fn report_accounts_transients() {
        let src = VecSource { n: 5, chunk: 4, edges: messy_edges() };
        // Verbatim: the scatter (planes + one direction) is below the two
        // directions of the result, so nothing is held beyond the CSR.
        let (g, rep) = build_chunked(&src, StreamConfig::verbatim(), &ScopedPool(2)).unwrap();
        assert_eq!(rep.csr_bytes, g.heap_bytes());
        assert_eq!(rep.transient_bytes, 0);
        // Cleaned: 87 kept edges collapse to 9, so the scatter — two
        // workers' cursor and end planes of 5 vertices each, 6 offsets, 87
        // targets — is the peak.
        let (g, rep) = build_chunked(&src, StreamConfig::cleaned(), &ScopedPool(2)).unwrap();
        assert_eq!(rep.csr_bytes, g.heap_bytes());
        assert_eq!(rep.transient_bytes, (2 * 2 * 5 + 6 + 87) * 4 - rep.csr_bytes);
        assert!(rep.build_ratio() > 1.0);
    }

    #[test]
    fn a_second_pass_that_differs_is_a_typed_error() {
        for threads in [1, 2, 4] {
            let build = |pass1: &[_], pass2: &[_]| {
                let src = Liar::new(3, pass1, pass2);
                build_chunked(&src, StreamConfig::cleaned(), &ScopedPool(threads)).unwrap_err()
            };
            // Fewer: vertex 2's run would keep a slot nothing wrote.
            assert_eq!(
                build(&[(1, 2), (2, 1)], &[(1, 2)]),
                BuildError::StreamMismatch { vertex: 2, pass1: 1, pass2: 0 },
                "threads={threads}"
            );
            // More: (1, 0) has no slot to go to.
            assert_eq!(
                build(&[(1, 2)], &[(1, 2), (1, 0), (2, 1)]),
                BuildError::StreamMismatch { vertex: 1, pass1: 1, pass2: 2 },
                "threads={threads}"
            );
            // An edge pass 1 would have rejected is rejected in pass 2 as well.
            assert_eq!(
                build(&[(1, 2)], &[(1, 7)]),
                BuildError::EdgeOutOfRange { u: 1, v: 7, n: 3 },
                "threads={threads}"
            );
        }
    }

    #[test]
    fn display_messages() {
        assert!(BuildError::OffsetOverflow.to_string().contains("overflow"));
        assert!(BuildError::EdgeOutOfRange { u: 1, v: 2, n: 1 }.to_string().contains("(1,2)"));
    }
}
