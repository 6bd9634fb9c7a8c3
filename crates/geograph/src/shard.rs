//! Vertex-range shards over a CSR snapshot: the graph-substrate half of
//! the sharded trainer.
//!
//! A shard owns a **contiguous vertex range** of the graph plus a
//! read-only **ghost fringe**: the cross-shard in/out-neighbors of its
//! owned vertices. Contiguous ranges keep ownership tests O(1) arithmetic
//! and make the owned adjacency a pure slice of the global CSR; the fringe
//! is exactly the set of foreign vertices a shard-local hybrid-cut move
//! evaluation reads (the staged neighbors of `collect_deltas`), so a shard
//! holding bit-identical replicas of its owned ∪ fringe rows scores its
//! agents bit-identically to a global evaluator.
//!
//! Local ids are assigned in **ascending global-id order** over
//! owned ∪ fringe. The mapping is therefore order-isomorphic: sorting
//! staged neighbors by local id yields the same permutation as sorting by
//! global id, which is what keeps the kernel's sealed-merge and fp
//! accumulation order — and hence its results — bit-identical to the
//! single-address-space path.
//!
//! [`route_delta`] splits a [`GraphDelta`] by owning shard so a dynamic
//! window refreshes only the shards (and only the fringes) the delta
//! actually touches.
//!
//! **Shard-resident ingest** ([`ShardView::build_streamed`]) runs the
//! two-pass streamed build directly against a [`ChunkedEdges`] source,
//! keeping only the rows the shard owns plus its ghost fringe — a shard
//! worker never materializes the global CSR. The view's offset arrays are
//! `u32`, like a [`Graph`]'s: streamed ingest caps kept edges at `u32`
//! range globally ([`BuildError::TooManyEdges`]), and a shard's owned edges
//! are a subset of that.

use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};

use crate::csr::Graph;
use crate::delta::GraphDelta;
use crate::stream::{
    check_runs_full, claim, offsets_from_counts, sweep, BuildError, ChunkedEdges, IngestPool,
    Refused, SharedSlice, StreamConfig,
};
use crate::VertexId;

/// A contiguous partition of the vertex id space into shards.
///
/// Ranges are half-open `[start, end)`, cover `0..n` exactly, and may be
/// empty (shard counts exceeding the vertex count are legal; the excess
/// shards simply own nothing).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardSpec {
    ranges: Vec<(VertexId, VertexId)>,
}

impl ShardSpec {
    /// Splits `n` vertices into `num_shards` contiguous ranges of
    /// near-equal size (the first `n % num_shards` shards get one extra
    /// vertex). `num_shards` must be at least 1.
    pub fn contiguous(n: usize, num_shards: usize) -> ShardSpec {
        assert!(num_shards >= 1, "at least one shard required");
        let base = n / num_shards;
        let extra = n % num_shards;
        let mut ranges = Vec::with_capacity(num_shards);
        let mut start = 0usize;
        for s in 0..num_shards {
            let len = base + usize::from(s < extra);
            ranges.push((start as VertexId, (start + len) as VertexId));
            start += len;
        }
        debug_assert_eq!(start, n);
        ShardSpec { ranges }
    }

    /// Splits the vertex id space into `num_shards` contiguous ranges of
    /// near-equal **edge mass** (out-degree + in-degree): boundary `s` is
    /// placed where the cumulative degree crosses `s/num_shards` of the
    /// total. On skewed graphs whose hubs cluster in one id region —
    /// R-MAT concentrates them at low ids — an even vertex split leaves
    /// one shard holding most of the adjacency; the balanced split keeps
    /// every shard's resident footprint near `1/num_shards` of the CSR,
    /// which is the property the shard-resident ingest path exists for.
    pub fn balanced(graph: &Graph, num_shards: usize) -> ShardSpec {
        assert!(num_shards >= 1, "at least one shard required");
        let n = graph.num_vertices();
        let total: u64 = 2 * graph.num_edges() as u64;
        let mut ranges = Vec::with_capacity(num_shards);
        let mut cum = 0u64;
        let mut start = 0usize;
        let mut v = 0usize;
        for s in 0..num_shards {
            // Everything past `s`'s share belongs to later shards; the
            // last shard absorbs the remainder (and any trailing
            // zero-degree vertices).
            let target = total * (s as u64 + 1) / num_shards as u64;
            while v < n && (cum < target || s + 1 == num_shards) {
                cum += (graph.out_degree(v as VertexId) + graph.in_degree(v as VertexId)) as u64;
                v += 1;
            }
            ranges.push((start as VertexId, v as VertexId));
            start = v;
        }
        debug_assert_eq!(v, n);
        ShardSpec { ranges }
    }

    /// Number of shards (including empty ones).
    pub fn num_shards(&self) -> usize {
        self.ranges.len()
    }

    /// Total vertices covered.
    pub fn num_vertices(&self) -> usize {
        self.ranges.last().map_or(0, |&(_, e)| e as usize)
    }

    /// The half-open owned range of shard `s`.
    pub fn range(&self, s: usize) -> (VertexId, VertexId) {
        self.ranges[s]
    }

    /// The shard owning vertex `v`.
    pub fn owner_of(&self, v: VertexId) -> usize {
        debug_assert!((v as usize) < self.num_vertices());
        // Ranges are sorted and contiguous: the owner is the last shard
        // starting at or before `v` (empty ranges share a start with their
        // successor and own nothing, so partition_point lands past them).
        self.ranges.partition_point(|&(start, _)| start <= v).saturating_sub(1)
    }

    /// Grows the id space to `new_n` vertices by extending the **last**
    /// shard's range. Dynamic windows only append vertices; absorbing them
    /// into the tail shard keeps every existing boundary — and therefore
    /// every unaffected shard's view — stable across the window.
    pub fn grow(&mut self, new_n: usize) {
        let old_n = self.num_vertices();
        assert!(new_n >= old_n, "the vertex id space only grows");
        if let Some(last) = self.ranges.last_mut() {
            last.1 = new_n as VertexId;
        }
    }
}

/// One shard's materialized view of the graph: owned adjacency re-indexed
/// to local ids, plus the sorted ghost fringe.
///
/// The view copies its slices out of the global CSR, so it stays valid
/// after the snapshot that built it is dropped — dynamic drivers carry
/// unaffected views across windows verbatim.
///
/// Equality is structural over the local-id CSR, ghosts and range —
/// [`ShardView::build_streamed`] is pinned bit-identical to
/// [`ShardView::build`] through it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardView {
    shard: usize,
    start: VertexId,
    end: VertexId,
    /// Ghost fringe: every in/out-neighbor of an owned vertex outside
    /// `[start, end)`, ascending, deduplicated.
    ghosts: Vec<VertexId>,
    /// All local vertices (owned ∪ ghosts) in ascending global-id order;
    /// local id = index into this table.
    locals: Vec<VertexId>,
    /// CSR over the owned vertices only, targets/sources as local ids.
    out_offsets: Vec<u32>,
    out_targets: Vec<u32>,
    in_offsets: Vec<u32>,
    in_sources: Vec<u32>,
}

impl ShardView {
    /// Builds shard `shard`'s view of `graph` under `spec`: slices the
    /// owned rows out of the CSR and extracts the ghost fringe.
    pub fn build(graph: &Graph, spec: &ShardSpec, shard: usize) -> ShardView {
        let (start, end) = spec.range(shard);
        debug_assert!(end as usize <= graph.num_vertices());
        let owned = (end - start) as usize;

        let mut ghosts: Vec<VertexId> = Vec::new();
        for v in start..end {
            for &u in graph.in_neighbors(v) {
                if u < start || u >= end {
                    ghosts.push(u);
                }
            }
            for &w in graph.out_neighbors(v) {
                if w < start || w >= end {
                    ghosts.push(w);
                }
            }
        }
        ghosts.sort_unstable();
        ghosts.dedup();

        // Ascending merge of ghosts-below, owned range, ghosts-above.
        let below = ghosts.partition_point(|&g| g < start);
        let mut locals = Vec::with_capacity(owned + ghosts.len());
        locals.extend_from_slice(&ghosts[..below]);
        locals.extend(start..end);
        locals.extend_from_slice(&ghosts[below..]);
        debug_assert!(locals.windows(2).all(|w| w[0] < w[1]));

        let to_local = |v: VertexId| -> u32 {
            if v >= start && v < end {
                below as u32 + (v - start)
            } else if v < start {
                ghosts[..below].binary_search(&v).expect("fringe covers every neighbor") as u32
            } else {
                (below + owned + ghosts[below..].binary_search(&v).expect("fringe")) as u32
            }
        };

        let mut out_offsets = Vec::with_capacity(owned + 1);
        let mut in_offsets = Vec::with_capacity(owned + 1);
        let mut out_targets = Vec::new();
        let mut in_sources = Vec::new();
        out_offsets.push(0);
        in_offsets.push(0);
        for v in start..end {
            out_targets.extend(graph.out_neighbors(v).iter().map(|&w| to_local(w)));
            in_sources.extend(graph.in_neighbors(v).iter().map(|&u| to_local(u)));
            out_offsets.push(out_targets.len() as u32);
            in_offsets.push(in_sources.len() as u32);
        }

        ShardView {
            shard,
            start,
            end,
            ghosts,
            locals,
            out_offsets,
            out_targets,
            in_offsets,
            in_sources,
        }
    }

    /// Builds shard `shard`'s view straight from a chunked edge stream,
    /// without ever materializing the global CSR — the shard-resident
    /// footprint is the owned rows, the ghost fringe, and two transient
    /// planes (owned-range `u32` counters plus one ghost bit per global
    /// vertex).
    ///
    /// The result is **bit-identical** to
    /// `ShardView::build(&build_chunked(src, cfg, pool)?.0, spec, shard)`
    /// at any chunk count and thread count: pass 1 counts owned degrees
    /// and marks cross-range neighbors, pass 2 scatters local ids through
    /// those counters, pass 3 sorts each run (the local↔global mapping is
    /// monotone, so sorted-local equals mapped sorted-global), and the
    /// optional dedup compaction mirrors the full build's. Both directions
    /// are scattered and sorted here, where the full build transposes: a
    /// shard's in-rows are not the transpose of its out-rows. Error
    /// conditions are the full build's — an out-of-range edge or a stream
    /// at 2^32 kept edges fails here exactly as it fails there, even when
    /// the offending edge is owned by another shard, and a source whose
    /// second pass differs from its first around an owned vertex is a
    /// [`BuildError::StreamMismatch`].
    pub fn build_streamed<S: ChunkedEdges + ?Sized>(
        src: &S,
        cfg: StreamConfig,
        spec: &ShardSpec,
        shard: usize,
        pool: &dyn IngestPool,
    ) -> Result<(ShardView, ShardIngestReport), BuildError> {
        let n = src.num_vertices();
        if n >= VertexId::MAX as usize {
            return Err(BuildError::TooManyVertices { n });
        }
        assert_eq!(
            spec.num_vertices(),
            n,
            "shard spec covers {} vertices, stream has {}",
            spec.num_vertices(),
            n
        );
        let (start, end) = spec.range(shard);
        let owned = (end - start) as usize;

        // ---- Pass 1: count owned degrees, mark the ghost fringe. ---------
        let out_cnt: Vec<AtomicU32> = (0..owned).map(|_| AtomicU32::new(0)).collect();
        let in_cnt: Vec<AtomicU32> = (0..owned).map(|_| AtomicU32::new(0)).collect();
        // One bit per global vertex: set when it is a cross-range neighbor
        // of an owned vertex. n/8 bytes — bounded regardless of how many
        // per-thread ghost candidates a skewed stream produces.
        let ghost_bits: Vec<AtomicU64> = (0..n.div_ceil(64)).map(|_| AtomicU64::new(0)).collect();
        let totals = sweep(src, cfg, pool, |u, v| {
            let u_owned = u >= start && u < end;
            let v_owned = v >= start && v < end;
            if u_owned {
                out_cnt[(u - start) as usize].fetch_add(1, Ordering::Relaxed);
                if !v_owned {
                    ghost_bits[(v as usize) >> 6].fetch_or(1 << (v & 63), Ordering::Relaxed);
                }
            }
            if v_owned {
                in_cnt[(v - start) as usize].fetch_add(1, Ordering::Relaxed);
                if !u_owned {
                    ghost_bits[(u as usize) >> 6].fetch_or(1 << (u & 63), Ordering::Relaxed);
                }
            }
        })?;

        // ---- Ghost fringe and local-id table. ----------------------------
        // Only non-owned vertices ever get a bit, and the bitmap scan walks
        // ascending ids — the fringe comes out sorted and deduplicated.
        let mut ghosts: Vec<VertexId> = Vec::new();
        for (w, word) in ghost_bits.iter().enumerate() {
            let mut bits = word.load(Ordering::Relaxed);
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                ghosts.push((w * 64 + b) as VertexId);
                bits &= bits - 1;
            }
        }
        let ghost_words = ghost_bits.len();
        drop(ghost_bits);

        let below = ghosts.partition_point(|&g| g < start);
        let mut locals = Vec::with_capacity(owned + ghosts.len());
        locals.extend_from_slice(&ghosts[..below]);
        locals.extend(start..end);
        locals.extend_from_slice(&ghosts[below..]);
        debug_assert!(locals.windows(2).all(|w| w[0] < w[1]));

        // `None` for a vertex pass 1 never marked — only a source that emits
        // a different stream in pass 2 can ask for one.
        let ghosts_ref = &ghosts;
        let to_local = move |v: VertexId| -> Option<u32> {
            if v >= start && v < end {
                Some(below as u32 + (v - start))
            } else if v < start {
                ghosts_ref[..below].binary_search(&v).ok().map(|i| i as u32)
            } else {
                ghosts_ref[below..].binary_search(&v).ok().map(|i| (below + owned + i) as u32)
            }
        };

        // ---- Prefix sums and allocation. ----------------------------------
        let mut out_offsets = offsets_from_counts(&out_cnt)?;
        let mut in_offsets = offsets_from_counts(&in_cnt)?;
        let mut out_targets = vec![0u32; out_offsets[owned] as usize];
        let mut in_sources = vec![0u32; in_offsets[owned] as usize];

        // ---- Pass 2: scatter owned edges as local ids. -------------------
        // Each run is claimed through its pass-1 counter, counting back
        // down; an edge pass 1 never saw (run already full, or a neighbor
        // outside the fringe) is refused and reported.
        {
            let out_slots = SharedSlice(out_targets.as_mut_ptr());
            let in_slots = SharedSlice(in_sources.as_mut_ptr());
            let refused = Refused::new();
            let scatter = |owner: VertexId,
                           other: VertexId,
                           offsets: &[u32],
                           counters: &[AtomicU32],
                           slots: &SharedSlice<u32>| {
                let i = (owner - start) as usize;
                match to_local(other).and_then(|l| Some((claim(&counters[i])?, l))) {
                    // SAFETY: the counter started at the run's length and
                    // never passes zero, so the slot is inside run `i` and
                    // this claim is the only one to get it.
                    Some((slot, l)) => unsafe { slots.write((offsets[i] + slot) as usize, l) },
                    None => refused.record(owner, offsets[i + 1] - offsets[i]),
                }
            };
            sweep(src, cfg, pool, |u, v| {
                if u >= start && u < end {
                    scatter(u, v, &out_offsets, &out_cnt, &out_slots);
                }
                if v >= start && v < end {
                    scatter(v, u, &in_offsets, &in_cnt, &in_slots);
                }
            })?;
            refused.into_result()?;
            check_runs_full(start, &out_offsets, &out_cnt)?;
            check_runs_full(start, &in_offsets, &in_cnt)?;
        }

        // ---- Pass 3: canonicalize runs. ----------------------------------
        // The local↔global mapping is monotone, so sorting runs of local
        // ids yields exactly the mapped image of the global build's sorted
        // runs — this is what pins streamed ≡ staged per shard.
        {
            const BLOCK: usize = 4096;
            let num_blocks = owned.div_ceil(BLOCK);
            let out_ptr = SharedSlice(out_targets.as_mut_ptr());
            let in_ptr = SharedSlice(in_sources.as_mut_ptr());
            let out_offsets = &out_offsets;
            let in_offsets = &in_offsets;
            let next_block = AtomicUsize::new(0);
            pool.run(&|_worker| loop {
                let b = next_block.fetch_add(1, Ordering::Relaxed);
                if b >= num_blocks {
                    break;
                }
                let lo = b * BLOCK;
                let hi = (lo + BLOCK).min(owned);
                for v in lo..hi {
                    // SAFETY: runs are disjoint per vertex, and each vertex
                    // belongs to exactly one block.
                    unsafe {
                        let run = std::slice::from_raw_parts_mut(
                            out_ptr.base().add(out_offsets[v] as usize),
                            (out_offsets[v + 1] - out_offsets[v]) as usize,
                        );
                        run.sort_unstable();
                        let run = std::slice::from_raw_parts_mut(
                            in_ptr.base().add(in_offsets[v] as usize),
                            (in_offsets[v + 1] - in_offsets[v]) as usize,
                        );
                        run.sort_unstable();
                    }
                }
            });
            let _ = (out_ptr, in_ptr);
        }

        // ---- Optional dedup compaction. ----------------------------------
        // Mirrors the full build: duplicates of an owned edge sit adjacent
        // in its sorted local runs, so per-run compaction removes exactly
        // what GraphBuilder's global dedup would.
        let mut duplicates_removed = 0u64;
        if cfg.dedup {
            let before = out_targets.len() + in_sources.len();
            compact_runs(&mut out_offsets, &mut out_targets);
            compact_runs(&mut in_offsets, &mut in_sources);
            duplicates_removed = (before - out_targets.len() - in_sources.len()) as u64;
        }

        let transient_bytes =
            2 * owned * std::mem::size_of::<AtomicU32>() + ghost_words * std::mem::size_of::<u64>();
        drop(out_cnt);
        drop(in_cnt);

        let view = ShardView {
            shard,
            start,
            end,
            ghosts,
            locals,
            out_offsets,
            out_targets,
            in_offsets,
            in_sources,
        };
        let report = ShardIngestReport {
            raw_edges: totals.raw_edges,
            owned_out_edges: view.out_targets.len(),
            owned_in_edges: view.in_sources.len(),
            self_loops_dropped: totals.self_loops_dropped,
            duplicates_removed,
            view_bytes: view.heap_bytes(),
            transient_bytes,
        };
        Ok((view, report))
    }

    /// The shard this view belongs to.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// The half-open owned global-id range.
    pub fn owned_range(&self) -> (VertexId, VertexId) {
        (self.start, self.end)
    }

    /// Number of owned vertices.
    pub fn num_owned(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// Number of ghost-fringe vertices.
    pub fn num_ghosts(&self) -> usize {
        self.ghosts.len()
    }

    /// Owned plus ghost vertices — the size of the shard's working set.
    pub fn num_locals(&self) -> usize {
        self.locals.len()
    }

    /// The sorted ghost fringe (global ids).
    pub fn ghosts(&self) -> &[VertexId] {
        &self.ghosts
    }

    /// All local vertices in local-id order (ascending global ids).
    pub fn locals(&self) -> &[VertexId] {
        &self.locals
    }

    /// Whether this view owns global vertex `v`.
    pub fn owns(&self, v: VertexId) -> bool {
        v >= self.start && v < self.end
    }

    /// Local id of global vertex `v`, if `v` is owned or in the fringe.
    pub fn to_local(&self, v: VertexId) -> Option<u32> {
        if self.owns(v) {
            let below = self.locals.len() - self.num_owned() - self.ghosts_above();
            return Some(below as u32 + (v - self.start));
        }
        self.locals.binary_search(&v).ok().map(|i| i as u32)
    }

    fn ghosts_above(&self) -> usize {
        self.ghosts.len() - self.ghosts.partition_point(|&g| g < self.start)
    }

    /// Global id of local vertex `l`.
    pub fn to_global(&self, l: u32) -> VertexId {
        self.locals[l as usize]
    }

    /// Whether local id `l` is an owned vertex (vs a ghost).
    pub fn is_owned_local(&self, l: u32) -> bool {
        self.owns(self.locals[l as usize])
    }

    /// Out-neighbors (as local ids) of **owned** global vertex `v`, in the
    /// global CSR's adjacency order.
    pub fn out_neighbors_of(&self, v: VertexId) -> &[u32] {
        debug_assert!(self.owns(v));
        let i = (v - self.start) as usize;
        &self.out_targets[self.out_offsets[i] as usize..self.out_offsets[i + 1] as usize]
    }

    /// In-neighbors (as local ids) of **owned** global vertex `v`.
    pub fn in_neighbors_of(&self, v: VertexId) -> &[u32] {
        debug_assert!(self.owns(v));
        let i = (v - self.start) as usize;
        &self.in_sources[self.in_offsets[i] as usize..self.in_offsets[i + 1] as usize]
    }

    /// Heap bytes held by the view (capacity): ghost/local id tables plus
    /// the owned local-id CSR, all `u32` — the per-shard resident
    /// footprint the memory gates account.
    pub fn heap_bytes(&self) -> usize {
        (self.ghosts.capacity()
            + self.locals.capacity()
            + self.out_offsets.capacity()
            + self.out_targets.capacity()
            + self.in_offsets.capacity()
            + self.in_sources.capacity())
            * std::mem::size_of::<u32>()
    }
}

/// Removes adjacent duplicates from every sorted run, shifting the flat
/// array left and rewriting offsets in place, then returns the slack to the
/// allocator: `heap_bytes` charges capacity and the view lives for the
/// whole window.
fn compact_runs(offsets: &mut [u32], flat: &mut Vec<u32>) {
    let n = offsets.len() - 1;
    let mut w = 0usize;
    let mut run_start = offsets[0] as usize;
    for v in 0..n {
        let run_end = offsets[v + 1] as usize;
        let mut prev: Option<u32> = None;
        for i in run_start..run_end {
            let t = flat[i];
            if prev != Some(t) {
                flat[w] = t;
                w += 1;
                prev = Some(t);
            }
        }
        run_start = run_end;
        offsets[v + 1] = w as u32;
    }
    flat.truncate(w);
    flat.shrink_to_fit();
}

/// What a shard-resident streamed build did and what it cost in memory.
///
/// The full-stream totals (`raw_edges`, `self_loops_dropped`) are global —
/// every shard observes the whole stream even though it only keeps its
/// owned rows — while the edge and byte figures are this shard's alone.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardIngestReport {
    /// Edges emitted by the source (pre-cleaning, whole stream).
    pub raw_edges: u64,
    /// Out-edges of owned vertices kept in the view.
    pub owned_out_edges: usize,
    /// In-edges of owned vertices kept in the view.
    pub owned_in_edges: usize,
    /// Self-loops dropped at emit time (whole stream).
    pub self_loops_dropped: u64,
    /// Duplicate adjacency entries removed by compaction, summed over both
    /// owned directions.
    pub duplicates_removed: u64,
    /// Heap bytes of the finished view ([`ShardView::heap_bytes`]).
    pub view_bytes: usize,
    /// Peak transient heap held *in addition to* the view during the build:
    /// the owned-range counter/cursor planes plus the global ghost bitmap
    /// (one bit per vertex).
    pub transient_bytes: usize,
}

impl ShardIngestReport {
    /// Peak accounted build footprint: finished view plus transients. The
    /// number `tests/tests/streaming.rs` holds to half the full CSR at 4
    /// edge-balanced shards.
    pub fn peak_bytes(&self) -> usize {
        self.view_bytes + self.transient_bytes
    }
}

/// The slice of a [`GraphDelta`] relevant to one shard.
#[derive(Clone, Debug, Default)]
pub struct ShardDelta {
    /// Owned vertices whose adjacency the delta changed (sorted).
    pub touched_owned: Vec<VertexId>,
    /// Vertices appended to this shard's range by the window (only the
    /// last shard absorbs growth — see [`ShardSpec::grow`]).
    pub new_vertices: usize,
}

impl ShardDelta {
    /// Whether this shard's view must be refreshed: its owned adjacency
    /// (and therefore possibly its fringe) changed, or its range grew.
    pub fn affects_view(&self) -> bool {
        !self.touched_owned.is_empty() || self.new_vertices > 0
    }
}

/// Routes a [`GraphDelta`] to its owning shards: per shard, the owned
/// touched vertices plus (for the tail shard) the appended vertex count.
///
/// `spec` must already cover the delta's **new** vertex count (grow it
/// with [`ShardSpec::grow`] first). A shard whose slice is empty is
/// unaffected: none of its owned vertices' adjacency changed, so its view
/// — including its ghost fringe, which is a function of that adjacency —
/// is carried verbatim.
pub fn route_delta(delta: &GraphDelta, spec: &ShardSpec) -> Vec<ShardDelta> {
    assert_eq!(
        spec.num_vertices(),
        delta.new_num_vertices(),
        "spec must be grown to the delta's successor snapshot first"
    );
    let mut routed: Vec<ShardDelta> = vec![ShardDelta::default(); spec.num_shards()];
    // `touched()` is sorted; split it across the sorted ranges in one walk.
    let mut shard = 0usize;
    for &v in delta.touched() {
        while spec.range(shard).1 <= v {
            shard += 1;
        }
        routed[shard].touched_owned.push(v);
    }
    let appended = delta.new_num_vertices() - delta.old_num_vertices();
    if appended > 0 {
        let last = spec.num_shards() - 1;
        routed[last].new_vertices = appended;
    }
    routed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamic::{EdgeEvent, EventKind};
    use crate::stream::testing::{Liar, VecSource};
    use crate::stream::{build_chunked, ScopedPool};
    use crate::GraphBuilder;

    fn ev(src: u32, dst: u32, ts: u64, kind: EventKind) -> EdgeEvent {
        EdgeEvent { src, dst, timestamp_ms: ts, kind }
    }

    fn messy_edges() -> Vec<(VertexId, VertexId)> {
        // Duplicates, self-loops, out-of-order, hub vertex 0, cross-range
        // edges in both directions for any 2..=4-way contiguous split.
        let mut e = vec![(3, 3), (1, 0), (0, 2), (0, 2), (2, 1), (7, 0), (4, 7), (0, 3), (6, 5)];
        for i in 0..60 {
            e.push((0, (i % 8) as VertexId));
            e.push(((i % 8) as VertexId, (i % 3) as VertexId));
        }
        e
    }

    #[test]
    fn streamed_view_matches_staged_at_every_split() {
        let edges = messy_edges();
        for cfg in [StreamConfig::verbatim(), StreamConfig::cleaned()] {
            let pool = ScopedPool(2);
            let src = VecSource { n: 8, chunk: 7, edges: edges.clone() };
            let (global, _) = build_chunked(&src, cfg, &pool).unwrap();
            for num_shards in [1, 2, 3, 4, 8] {
                let spec = ShardSpec::contiguous(8, num_shards);
                for s in 0..num_shards {
                    let staged = ShardView::build(&global, &spec, s);
                    for threads in [1, 4] {
                        let (streamed, rep) =
                            ShardView::build_streamed(&src, cfg, &spec, s, &ScopedPool(threads))
                                .unwrap();
                        assert_eq!(
                            streamed, staged,
                            "shards={num_shards} shard={s} threads={threads} dedup={}",
                            cfg.dedup
                        );
                        assert_eq!(rep.raw_edges as usize, edges.len());
                        // Every vertex 0..8 has adjacency in messy_edges.
                        assert!(rep.owned_out_edges + rep.owned_in_edges > 0);
                        assert_eq!(rep.view_bytes, streamed.heap_bytes());
                    }
                }
            }
        }
    }

    #[test]
    fn streamed_view_report_mirrors_global_cleaning() {
        let edges = messy_edges();
        let mut b = GraphBuilder::new(8);
        b.add_edges(edges.iter().copied());
        let cleaned = b.build();
        let spec = ShardSpec::contiguous(8, 2);
        let src = VecSource { n: 8, chunk: 5, edges };
        let (view, rep) =
            ShardView::build_streamed(&src, StreamConfig::cleaned(), &spec, 0, &ScopedPool(2))
                .unwrap();
        assert_eq!(view, ShardView::build(&cleaned, &spec, 0));
        // Every kept owned out-edge of shard 0 is an edge of the cleaned
        // graph whose source lies in [0, 4).
        let expected: usize = (0..4u32).map(|v| cleaned.out_degree(v)).sum();
        assert_eq!(rep.owned_out_edges, expected);
        assert!(rep.self_loops_dropped > 0);
        assert!(rep.duplicates_removed > 0);
        assert!(rep.transient_bytes > 0);
        assert_eq!(rep.peak_bytes(), rep.view_bytes + rep.transient_bytes);
    }

    #[test]
    fn streamed_view_typed_errors_match_global_build() {
        // Out-of-range edges fail the shard build even when neither
        // endpoint is owned — error semantics match the global build.
        let src = VecSource { n: 4, chunk: 8, edges: vec![(0, 1), (9, 3)] };
        let spec = ShardSpec::contiguous(4, 2);
        let err =
            ShardView::build_streamed(&src, StreamConfig::verbatim(), &spec, 0, &ScopedPool(1))
                .unwrap_err();
        assert_eq!(err, BuildError::EdgeOutOfRange { u: 9, v: 3, n: 4 });
    }

    #[test]
    fn a_second_pass_that_differs_is_a_typed_error() {
        // Shard 0 owns [0, 2) of 4 vertices.
        let spec = ShardSpec::contiguous(4, 2);
        for threads in [1, 2] {
            let build = |pass1: &[_], pass2: &[_]| {
                let src = Liar::new(4, pass1, pass2);
                ShardView::build_streamed(
                    &src,
                    StreamConfig::cleaned(),
                    &spec,
                    0,
                    &ScopedPool(threads),
                )
                .unwrap_err()
            };
            // Fewer, out-direction and in-direction.
            assert_eq!(
                build(&[(1, 2), (0, 3)], &[(0, 3)]),
                BuildError::StreamMismatch { vertex: 1, pass1: 1, pass2: 0 },
                "threads={threads}"
            );
            assert_eq!(
                build(&[(2, 1), (3, 0)], &[(3, 0)]),
                BuildError::StreamMismatch { vertex: 1, pass1: 1, pass2: 0 },
                "threads={threads}"
            );
            // More: a second out-edge of 0, a second in-edge of 1.
            assert_eq!(
                build(&[(0, 3)], &[(0, 3), (0, 3)]),
                BuildError::StreamMismatch { vertex: 0, pass1: 1, pass2: 2 },
                "threads={threads}"
            );
            assert_eq!(
                build(&[(3, 1)], &[(3, 1), (3, 1)]),
                BuildError::StreamMismatch { vertex: 1, pass1: 1, pass2: 2 },
                "threads={threads}"
            );
            // Same counts, but a neighbor pass 1 never put in the fringe.
            assert_eq!(
                build(&[(0, 3)], &[(0, 2)]),
                BuildError::StreamMismatch { vertex: 0, pass1: 1, pass2: 2 },
                "threads={threads}"
            );
        }
    }

    #[test]
    fn empty_shard_view_streams() {
        // More shards than vertices: the tail shard owns nothing and its
        // streamed view is empty but well-formed.
        let src = VecSource { n: 3, chunk: 2, edges: vec![(0, 1), (1, 2), (2, 0)] };
        let spec = ShardSpec::contiguous(3, 5);
        let (global, _) = build_chunked(&src, StreamConfig::verbatim(), &ScopedPool(1)).unwrap();
        for s in 0..5 {
            let (streamed, _) =
                ShardView::build_streamed(&src, StreamConfig::verbatim(), &spec, s, &ScopedPool(2))
                    .unwrap();
            assert_eq!(streamed, ShardView::build(&global, &spec, s));
        }
    }

    #[test]
    fn contiguous_ranges_cover_exactly() {
        let spec = ShardSpec::contiguous(10, 3);
        assert_eq!(spec.range(0), (0, 4));
        assert_eq!(spec.range(1), (4, 7));
        assert_eq!(spec.range(2), (7, 10));
        assert_eq!(spec.num_vertices(), 10);
        for v in 0..10u32 {
            let s = spec.owner_of(v);
            let (a, b) = spec.range(s);
            assert!(a <= v && v < b, "vertex {v} routed to shard {s} [{a},{b})");
        }
    }

    #[test]
    fn balanced_ranges_equalize_edge_mass_on_skew() {
        // A hub-heavy graph: vertex 0 touches everyone, the tail is sparse.
        let mut edges = Vec::new();
        for v in 1..64u32 {
            edges.push((0, v));
        }
        edges.push((60, 61));
        let g = Graph::from_edges(64, &edges);
        let spec = ShardSpec::balanced(&g, 4);
        assert_eq!(spec.num_shards(), 4);
        assert_eq!(spec.num_vertices(), 64);
        let mass = |s: usize| -> u64 {
            let (a, b) = spec.range(s);
            (a..b).map(|v| (g.out_degree(v) + g.in_degree(v)) as u64).sum()
        };
        // The hub alone crosses shard 0's quarter-share, so it owns just
        // vertex 0 — an even split would hand shard 0 a quarter of the id
        // space *and* the whole hub adjacency.
        assert_eq!(spec.range(0), (0, 1));
        let total: u64 = (0..4).map(mass).sum();
        assert_eq!(total, 2 * g.num_edges() as u64);
        let even = ShardSpec::contiguous(64, 4);
        let even_mass = |s: usize| -> u64 {
            let (a, b) = even.range(s);
            (a..b).map(|v| (g.out_degree(v) + g.in_degree(v)) as u64).sum()
        };
        let max_balanced = (0..4).map(mass).max().unwrap();
        let max_even = (0..4).map(even_mass).max().unwrap();
        assert!(max_balanced < max_even, "balanced {max_balanced} vs even {max_even}");
        // Routing still works over the uneven boundaries.
        for v in 0..64u32 {
            let s = spec.owner_of(v);
            let (a, b) = spec.range(s);
            assert!(a <= v && v < b, "vertex {v} routed to shard {s} [{a},{b})");
        }
        // Views built under a balanced spec cover the graph exactly.
        let owned: usize = (0..4).map(|s| ShardView::build(&g, &spec, s).num_owned()).sum();
        assert_eq!(owned, 64);
    }

    #[test]
    fn balanced_spec_handles_empty_and_tiny_graphs() {
        let empty = Graph::empty(0);
        let spec = ShardSpec::balanced(&empty, 3);
        assert_eq!(spec.num_vertices(), 0);
        assert_eq!(spec.num_shards(), 3);
        let tiny = Graph::from_edges(2, &[(0, 1)]);
        let spec = ShardSpec::balanced(&tiny, 8);
        assert_eq!(spec.num_vertices(), 2);
        let owned: usize = (0..8).map(|s| (spec.range(s).1 - spec.range(s).0) as usize).sum();
        assert_eq!(owned, 2);
    }

    #[test]
    fn more_shards_than_vertices_leaves_empty_tails() {
        let spec = ShardSpec::contiguous(3, 8);
        assert_eq!(spec.num_shards(), 8);
        assert_eq!(spec.num_vertices(), 3);
        let owned: usize = (0..8).map(|s| (spec.range(s).1 - spec.range(s).0) as usize).sum();
        assert_eq!(owned, 3);
        for v in 0..3u32 {
            assert_eq!(spec.owner_of(v), v as usize, "1-vertex shards own their id");
        }
        for s in 3..8 {
            let (a, b) = spec.range(s);
            assert_eq!(a, b, "tail shard {s} must be empty");
        }
    }

    #[test]
    fn view_extracts_cross_shard_fringe() {
        // 0→2, 2→1, 3→0: shard 0 owns {0,1}, shard 1 owns {2,3}.
        let g = Graph::from_edges(4, &[(0, 2), (2, 1), (3, 0)]);
        let spec = ShardSpec::contiguous(4, 2);
        let v0 = ShardView::build(&g, &spec, 0);
        assert_eq!(v0.ghosts(), &[2, 3]);
        assert_eq!(v0.num_owned(), 2);
        assert_eq!(v0.num_locals(), 4);
        // Locals ascend: [0, 1, 2, 3] → local ids equal global ids here.
        assert_eq!(v0.locals(), &[0, 1, 2, 3]);
        assert_eq!(v0.out_neighbors_of(0), &[2]);
        assert_eq!(v0.in_neighbors_of(0), &[3]);
        assert_eq!(v0.in_neighbors_of(1), &[2]);

        let v1 = ShardView::build(&g, &spec, 1);
        assert_eq!(v1.ghosts(), &[0, 1]);
        // Locals [0, 1, 2, 3]; ghosts below the range keep ascending order.
        assert_eq!(v1.to_local(2), Some(2));
        assert_eq!(v1.to_local(0), Some(0));
        assert!(v1.is_owned_local(2));
        assert!(!v1.is_owned_local(0));
    }

    #[test]
    fn local_order_is_global_order() {
        // Ghosts both below and above the owned range.
        let g = Graph::from_edges(6, &[(0, 3), (5, 2), (2, 0), (3, 5)]);
        let spec = ShardSpec::contiguous(6, 3);
        let v = ShardView::build(&g, &spec, 1); // owns {2, 3}
        assert_eq!(v.ghosts(), &[0, 5]);
        assert_eq!(v.locals(), &[0, 2, 3, 5]);
        for (l, &gid) in v.locals().iter().enumerate() {
            assert_eq!(v.to_local(gid), Some(l as u32));
            assert_eq!(v.to_global(l as u32), gid);
        }
        assert_eq!(v.to_local(1), None);
        assert_eq!(v.to_local(4), None);
        // Mapping is monotone: sorted local ids ⇔ sorted global ids.
        let mapped: Vec<u32> = v.locals().iter().map(|&gid| v.to_local(gid).unwrap()).collect();
        assert!(mapped.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn ghost_only_adjacency_range() {
        // A star: hub 0 in shard 0, leaves in shard 1. Every edge of shard
        // 1's owned vertices crosses the boundary — its entire adjacency is
        // ghost-referenced.
        let g = Graph::from_edges(4, &[(0, 2), (0, 3), (2, 0)]);
        let spec = ShardSpec::contiguous(4, 2);
        let v1 = ShardView::build(&g, &spec, 1);
        assert_eq!(v1.ghosts(), &[0]);
        for v in 2..4u32 {
            for &l in v1.in_neighbors_of(v).iter().chain(v1.out_neighbors_of(v)) {
                assert!(!v1.is_owned_local(l), "every neighbor must be a ghost");
            }
        }
    }

    #[test]
    fn route_delta_splits_touched_by_owner() {
        let g = Graph::from_edges(6, &[(0, 1), (2, 3)]);
        let events = vec![
            ev(4, 5, 0, EventKind::Insert),
            ev(0, 1, 1, EventKind::Delete),
            ev(6, 2, 2, EventKind::Insert),
        ];
        let delta = GraphDelta::from_events(&g, &events);
        let mut spec = ShardSpec::contiguous(6, 3);
        spec.grow(delta.new_num_vertices());
        let routed = route_delta(&delta, &spec);
        assert_eq!(routed[0].touched_owned, vec![0, 1]);
        assert_eq!(routed[1].touched_owned, vec![2]);
        assert!(routed[2].touched_owned.contains(&4));
        assert!(routed[2].touched_owned.contains(&5));
        assert_eq!(routed[2].new_vertices, 1);
        assert!(routed[0].affects_view() && routed[1].affects_view() && routed[2].affects_view());
    }

    #[test]
    fn empty_delta_routes_nowhere() {
        let g = Graph::from_edges(4, &[(0, 1)]);
        let delta = GraphDelta::from_events(&g, &[]);
        assert!(delta.is_empty());
        let spec = ShardSpec::contiguous(4, 2);
        for slice in route_delta(&delta, &spec) {
            assert!(!slice.affects_view());
            assert_eq!(slice.touched_owned.len() + slice.new_vertices, 0);
        }
    }

    #[test]
    fn grow_extends_last_shard_only() {
        let mut spec = ShardSpec::contiguous(6, 3);
        let before: Vec<_> = (0..2).map(|s| spec.range(s)).collect();
        spec.grow(9);
        assert_eq!((0..2).map(|s| spec.range(s)).collect::<Vec<_>>(), before);
        assert_eq!(spec.range(2), (4, 9));
        assert_eq!(spec.owner_of(8), 2);
    }
}
