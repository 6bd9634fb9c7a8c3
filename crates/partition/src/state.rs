//! Shared placement state for the replica-based models (hybrid- and
//! vertex-cut): per-vertex edge-location counts, mirror sets, and the
//! per-DC load accumulators behind the Eq 1–5 objective.

use geograph::{Graph, MAX_DCS};
use geosim::{CloudEnv, StageLoads};

use crate::error::PlanError;
use crate::profile::TrafficProfile;
use crate::{DcId, VertexId};

/// The optimization objective of a partitioning plan (Eq 6–7).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Objective {
    /// Inter-DC data transfer time of one iteration, seconds (Eq 1).
    pub transfer_time: f64,
    /// One-time input-data movement cost, dollars (Eq 4).
    pub movement_cost: f64,
    /// Runtime upload cost over the whole job (all iterations), dollars
    /// (Eq 5 summed).
    pub runtime_cost: f64,
}

impl Objective {
    /// Total inter-DC communication cost, the left side of the budget
    /// constraint (Eq 7).
    pub fn total_cost(&self) -> f64 {
        self.movement_cost + self.runtime_cost
    }
}

/// Packed per-vertex metadata for the move-evaluation kernel's neighbor
/// sweeps. The kernel touches a handful of scalars per (randomly
/// scattered) neighbor — its occupancy mask, traffic bytes, master and
/// degree class. Kept in separate parallel arrays those reads cost up to
/// five cache misses per neighbor; packed into one 24-byte record they
/// cost one.
///
/// The record is the state's only copy of the traffic profile (`g`/`a`)
/// and of the degree class (`high`). `master` mirrors `masters[v]`, which
/// stays a plain slice for the callers that read the whole plan; every
/// site that moves a master re-writes both, and `validate_plan`
/// cross-checks them.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub(crate) struct VertexMeta {
    /// Occupancy bitmask over the vertex's count row: bit `d` set iff cell
    /// `(v, d)` holds any in- or out-count. Set where the counts are built
    /// ([`PlacementState::place_hybrid_edges`],
    /// [`PlacementState::from_edge_placement`]) and kept exact by every
    /// later count mutation ([`PlacementState::bump`]); `num_dcs <= 64` is
    /// enforced at construction, so one `u64` always suffices.
    pub(crate) nnz: u64,
    /// Expected gather bytes per iteration (`g_v`), in load units.
    pub(crate) g: u32,
    /// Expected apply bytes per iteration (`a_v`), in load units.
    pub(crate) a: u32,
    /// Master DC (mirror of `masters[v]`).
    pub(crate) master: DcId,
    /// High-degree class under the state's θ.
    pub(crate) high: bool,
    /// The count row has escaped to `u32` lanes (see
    /// [`PlacementState::counts`]).
    pub(crate) wide: bool,
}

/// One vertex's interleaved `[in, out]` count row at whichever width it
/// is stored: DC `d`'s pair at lanes `2 * d` and `2 * d + 1`.
#[derive(Clone, Copy, Debug)]
pub(crate) enum CountRow<'a> {
    Narrow(&'a [u16]),
    Wide(&'a [u32]),
}

impl CountRow<'_> {
    /// The `(in, out)` counts of DC `d`.
    #[inline]
    pub(crate) fn pair(self, d: usize) -> (u32, u32) {
        match self {
            CountRow::Narrow(row) => (row[2 * d] as u32, row[2 * d + 1] as u32),
            CountRow::Wide(row) => (row[2 * d], row[2 * d + 1]),
        }
    }
}

/// Vertex `v`'s count row out of the two lane arrays of a
/// [`PlacementState`] with rows `w` lanes wide; `is_wide` is
/// `meta[v].wide`. A free function so a caller can hold the row while it
/// writes the state's other fields.
#[inline]
fn count_row<'a>(
    counts: &'a [u16],
    wide: &'a [u32],
    w: usize,
    v: usize,
    is_wide: bool,
) -> CountRow<'a> {
    let narrow = &counts[v * w..(v + 1) * w];
    if is_wide {
        let base = wide_index(narrow) * w;
        CountRow::Wide(&wide[base..base + w])
    } else {
        CountRow::Narrow(narrow)
    }
}

/// The wide-row index an escaped narrow row holds in its lanes 0 and 1.
#[inline]
fn wide_index(narrow: &[u16]) -> usize {
    narrow[0] as usize | (narrow[1] as usize) << 16
}

/// The set bits of a mask in ascending order — the DCs of an occupancy
/// mask.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Bits(pub(crate) u64);

impl Iterator for Bits {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let d = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(d)
    }
}

/// Counts vertex `v`'s edges into its zeroed count row by the hybrid-cut
/// rule and returns the row's occupancy mask. `tag[x]` is `master(x) |
/// high(x) << 7`; the lane type must hold `v`'s in- and out-degree.
fn place_row<L>(graph: &Graph, tag: &[u8], v: VertexId, row: &mut [L]) -> u64
where
    L: Copy + From<u8> + TryFrom<usize> + std::ops::AddAssign,
{
    const MASTER: u8 = 0x7f;
    let own = tag[v as usize];
    let master = (own & MASTER) as usize;
    let mut nnz = 0u64;
    let sources = graph.in_neighbors(v);
    if own & !MASTER == 0 {
        if !sources.is_empty() {
            row[2 * master] = L::try_from(sources.len())
                .unwrap_or_else(|_| unreachable!("lane holds the degree"));
            nnz = 1 << master;
        }
    } else {
        for &u in sources {
            let d = (tag[u as usize] & MASTER) as usize;
            row[2 * d] += L::from(1);
            nnz |= 1 << d;
        }
    }
    for &w in graph.out_neighbors(v) {
        let t = tag[w as usize];
        let d = if t & !MASTER == 0 { (t & MASTER) as usize } else { master };
        row[2 * d + 1] += L::from(1);
        nnz |= 1 << d;
    }
    nnz
}

/// Work counters of one incremental delta application
/// ([`crate::HybridState::resume_from_parts`]) — the probe behind the "window
/// work is proportional to the delta, not the graph" contract. The dynamic
/// tests (`tests/tests/delta_properties.rs`, the adaptive-window unit
/// tests) assert on [`Self::work_items`] the same way the kernel tests
/// assert on `ScratchStats`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeltaApplyStats {
    /// Vertices appended by this window.
    pub new_vertices: usize,
    /// Net edge insertions placed.
    pub inserted_edges: usize,
    /// Net edge deletions unplaced.
    pub deleted_edges: usize,
    /// Old-range vertices whose in-degree crossed θ and changed class.
    pub class_flips: usize,
    /// Surviving edges re-placed because their destination changed class.
    pub replaced_edges: usize,
    /// Old-range vertices whose load contribution was re-accumulated.
    pub affected_vertices: usize,
}

impl DeltaApplyStats {
    /// Total state-touching work items — the quantity that must scale with
    /// the update batch, never with the full graph.
    pub fn work_items(&self) -> usize {
        self.new_vertices
            + self.inserted_edges
            + self.deleted_edges
            + self.replaced_edges
            + self.affected_vertices
    }
}

/// Prepared, placement-rule-agnostic description of one window's state
/// mutation. Built by [`crate::HybridState::resume_from_parts`] (which owns the
/// hybrid-cut placement rule); executed by [`PlacementState::apply_delta`]
/// (which owns the bookkeeping invariants).
#[derive(Clone, Debug, Default)]
pub(crate) struct PlacementDeltaOps {
    /// Masters for the appended vertices `old_n..new_n` (their natural DCs
    /// — Eq 4 charges nothing for them, so the tracked movement cost stays
    /// valid without recomputation).
    pub(crate) new_masters: Vec<DcId>,
    /// Degree class for the appended vertices.
    pub(crate) new_high: Vec<bool>,
    /// Traffic-profile entries `(g_v, a_v)` for the appended vertices, in
    /// load units.
    pub(crate) new_profile: Vec<(u32, u32)>,
    /// Old-range vertices whose degree class flips, with the new class.
    pub(crate) flips: Vec<(VertexId, bool)>,
    /// Edges to remove from their current DC: `(src, dst, dc)`. Every entry
    /// names a distinct edge currently placed at `dc`, so running all
    /// unplacements before any placement can never underflow a count lane.
    pub(crate) unplace: Vec<(VertexId, VertexId, DcId)>,
    /// Edges to place: `(src, dst, dc)`.
    pub(crate) place: Vec<(VertexId, VertexId, DcId)>,
    /// Sorted deduped old-range vertices whose counts, occupancy or class
    /// change — their load contributions are retired before mutation and
    /// re-accumulated after.
    pub(crate) affected: Vec<VertexId>,
}

/// Replica-based placement state shared by hybrid-cut and vertex-cut.
///
/// For every vertex `v` and DC `d` it tracks how many of `v`'s in-edges and
/// out-edges are placed at `d` (one interleaved count-plane pair, see
/// `Self::counts_row`). From those counts the model derives:
///
/// * **mirrors** — `v` is replicated at `d ≠ master(v)` iff any incident
///   edge lives at `d`;
/// * **gather traffic** — a high-degree `v` receives one aggregated message
///   of `g_v` bytes from every non-master DC holding ≥ 1 of its in-edges;
/// * **apply traffic** — every vertex's master sends `a_v` bytes to each
///   mirror (this is also how low-degree synchronization is modeled, per
///   the paper's unified representation §III-B).
///
/// The per-DC gather/apply [`StageLoads`] are maintained incrementally so a
/// candidate move is evaluated in `O(deg(v) + M)`. They and the Eq 4 moved
/// bytes are integers, so the state is a function of (graph, masters,
/// profile) alone, whatever order its moves and deltas were applied in.
///
/// Per vertex the state holds a `2 · M`-lane `u16` count row, a 24-byte
/// `VertexMeta` and its master: 57 bytes at M = 8.
#[derive(Clone, Debug)]
pub struct PlacementState {
    pub(crate) num_dcs: usize,
    pub(crate) masters: Vec<DcId>,
    /// Interleaved in/out count rows, `2 · M` `u16` lanes per vertex:
    /// `counts[(v * num_dcs + d) * 2]` = in-edges of `v` placed at `d`,
    /// `counts[(v * num_dcs + d) * 2 + 1]` = out-edges of `v` placed at `d`
    /// (half a 64-byte cache line at M = 8), so the kernel's per-neighbor
    /// `count_transitions` tests — which always probe the in *and* out
    /// count of the same `(v, d)` cell — read one contiguous run.
    ///
    /// A lane counts at most the vertex's in- or out-degree, so only a row
    /// of a vertex with more than `u16::MAX` in- or out-edges can overflow.
    /// Such a row *escapes*: its lanes move, widened, to a `2 · M`-lane row
    /// of [`Self::wide`], `meta[v].wide` is set, and lanes 0 and 1 of the
    /// narrow row hold the wide row's index (low and high 16 bits). A row
    /// escapes when a count would pass `u16::MAX` and never narrows again;
    /// equality of two states is over [`Self::counts_row`], not over the
    /// storage.
    pub(crate) counts: Vec<u16>,
    /// Escaped count rows, `2 · M` `u32` lanes each, in escape order.
    pub(crate) wide: Vec<u32>,
    /// Packed kernel-side metadata, one record per vertex — see
    /// [`VertexMeta`]. The occupancy mask lets the move-evaluation kernel
    /// skip whole neighbor rows in O(1) instead of scanning `2 · M` lanes.
    pub(crate) meta: Vec<VertexMeta>,
    /// Edges placed per DC (load-balance metric).
    pub(crate) edges_per_dc: Vec<u64>,
    pub(crate) gather: StageLoads,
    pub(crate) apply: StageLoads,
    /// Eq 4 before pricing: input bytes mastered away from home, by home
    /// DC. Inline: as a `Vec` it showed in the delta pipeline's peak RSS.
    pub(crate) moved: [u64; MAX_DCS],
    /// `moved` priced by the last [`Self::reprice`].
    pub(crate) movement_cost: f64,
    pub(crate) num_iterations: f64,
}

impl PlacementState {
    /// Builds state from an explicit per-edge placement — vertex-cut's
    /// constructor, whose placement is not a function of the masters
    /// (hybrid-cut derives its counts with `place_hybrid_edges`).
    ///
    /// `edges` yields `(src, dst, dc)` triples; `masters` and `is_high`
    /// define the computation model (vertex-cut passes all-high).
    /// `natural`/`data_sizes` come from the [`geograph::GeoGraph`] and give
    /// the movement cost baseline.
    ///
    /// Every triple is bounds-checked: plan files are external input, and
    /// an out-of-range DC or vertex id must surface as a typed
    /// [`PlanError`] naming the offending entry, not as a slice panic.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_edge_placement(
        env: &CloudEnv,
        num_vertices: usize,
        edges: impl Iterator<Item = (VertexId, VertexId, DcId)>,
        masters: Vec<DcId>,
        is_high: Vec<bool>,
        natural: &[DcId],
        data_sizes: &[u64],
        profile: TrafficProfile,
        num_iterations: f64,
    ) -> Result<Self, PlanError> {
        let m = env.num_dcs();
        if m > geograph::MAX_DCS {
            return Err(PlanError::TooManyDcs { num_dcs: m, max: geograph::MAX_DCS });
        }
        assert_eq!(masters.len(), num_vertices);
        assert_eq!(is_high.len(), num_vertices);
        assert_eq!(profile.len(), num_vertices);
        if let Some((vertex, &dc)) = masters.iter().enumerate().find(|&(_, &d)| d as usize >= m) {
            return Err(PlanError::MasterOutOfRange { vertex: vertex as VertexId, dc, num_dcs: m });
        }
        let units = (0..num_vertices as VertexId).map(|v| profile.units(v));
        let mut state = Self::unplaced(m, masters, is_high, units, num_iterations)?;
        for (u, v, d) in edges {
            if d as usize >= m {
                return Err(PlanError::EdgeDcOutOfRange { src: u, dst: v, dc: d, num_dcs: m });
            }
            if u as usize >= num_vertices || v as usize >= num_vertices {
                let vertex = if u as usize >= num_vertices { u } else { v };
                return Err(PlanError::VertexOutOfRange { vertex, num_vertices });
            }
            state.place_edge(u, v, d);
        }
        state.rebuild_loads();
        state.moved = geosim::cost::moved_bytes(natural, &state.masters, data_sizes);
        state.reprice(env);
        Ok(state)
    }

    /// A state over `num_dcs` DCs with its masters, degree classes and
    /// per-vertex `(g, a)` load units set and nothing placed: every count,
    /// occupancy mask, balance, load and moved byte is zero. Lengths must
    /// agree and masters must already be below `num_dcs`. The classes and
    /// the units are copied into the [`VertexMeta`] records; the first
    /// unit error is returned.
    pub(crate) fn unplaced(
        num_dcs: usize,
        masters: Vec<DcId>,
        is_high: Vec<bool>,
        units: impl Iterator<Item = Result<(u32, u32), PlanError>>,
        num_iterations: f64,
    ) -> Result<Self, PlanError> {
        let n = masters.len();
        // Sized up front: a collected `Result` iterator over-allocates.
        let mut meta = Vec::with_capacity(n);
        for (units, (&master, &high)) in units.zip(masters.iter().zip(&is_high)) {
            let (g, a) = units?;
            meta.push(VertexMeta { nnz: 0, g, a, master, high, wide: false });
        }
        assert_eq!(meta.len(), n);
        Ok(PlacementState {
            num_dcs,
            masters,
            counts: vec![0; n * num_dcs * 2],
            wide: Vec::new(),
            meta,
            edges_per_dc: vec![0; num_dcs],
            gather: StageLoads::new(num_dcs),
            apply: StageLoads::new(num_dcs),
            moved: [0; MAX_DCS],
            movement_cost: 0.0,
            num_iterations,
        })
    }

    /// Places every edge of `graph` by the hybrid-cut rule (§IV-B) under
    /// this state's masters and degree classes, filling the count rows,
    /// the occupancy masks and `edges_per_dc` of an [`Self::unplaced`]
    /// state. Loads and movement cost are left to the caller.
    ///
    /// Row-sequential: vertex `v`'s in-lanes come from its in-row (a
    /// low-degree `v` holds its whole in-degree at its own master, a
    /// high-degree `v` one per in-neighbor at that neighbor's master) and
    /// its out-lanes from its out-row, so every write lands in `v`'s own
    /// row. The only random reads go to an n-byte `master | high << 7`
    /// tag. A vertex with more than `u16::MAX` in- or out-edges is counted
    /// into a `u32` row and escapes. `HybridState::try_from_masters` and
    /// the snapshot decoder both build their counts here.
    pub(crate) fn place_hybrid_edges(&mut self, graph: &Graph) {
        const NARROW: usize = u16::MAX as usize;
        let m = self.num_dcs;
        assert_eq!(graph.num_vertices(), self.masters.len());
        debug_assert!(self.meta.iter().all(|meta| meta.nnz == 0 && !meta.wide));
        let tag: Vec<u8> =
            self.meta.iter().map(|meta| meta.master | (meta.high as u8) << 7).collect();
        let mut wide_row = vec![0u32; 2 * m];
        for v in 0..self.masters.len() {
            let base = v * 2 * m;
            let row = &mut self.counts[base..base + 2 * m];
            let vertex = v as VertexId;
            let nnz = if graph.in_degree(vertex) <= NARROW && graph.out_degree(vertex) <= NARROW {
                let nnz = place_row(graph, &tag, vertex, row);
                for d in Bits(nnz) {
                    self.edges_per_dc[d] += row[2 * d + 1] as u64;
                }
                nnz
            } else {
                wide_row.fill(0);
                let nnz = place_row(graph, &tag, vertex, &mut wide_row);
                for d in Bits(nnz) {
                    self.edges_per_dc[d] += wide_row[2 * d + 1] as u64;
                }
                self.store_wide(v, &wide_row);
                nnz
            };
            self.meta[v].nnz = nnz;
        }
    }

    /// Appends `lanes` as vertex `v`'s escaped row and points `v`'s narrow
    /// row at it.
    fn store_wide(&mut self, v: usize, lanes: &[u32]) {
        let w = 2 * self.num_dcs;
        let index = self.wide.len() / w;
        assert!(index <= u32::MAX as usize, "more escaped rows than a u32 index holds");
        self.wide.extend_from_slice(lanes);
        let row = &mut self.counts[v * w..(v + 1) * w];
        row.fill(0);
        row[0] = index as u16;
        row[1] = (index >> 16) as u16;
        self.meta[v].wide = true;
    }

    /// Start of escaped vertex `v`'s row in [`Self::wide`].
    #[inline]
    fn wide_base(&self, v: usize) -> usize {
        let w = 2 * self.num_dcs;
        wide_index(&self.counts[v * w..]) * w
    }

    /// Vertex `v`'s interleaved `[in, out]` count row: `2 · M` lanes, DC
    /// `d`'s pair at [`CountRow::pair`]`(d)`.
    #[inline]
    pub(crate) fn counts_row(&self, v: VertexId) -> CountRow<'_> {
        let v = v as usize;
        count_row(&self.counts, &self.wide, 2 * self.num_dcs, v, self.meta[v].wide)
    }

    /// Adds `delta` to lane `lane` (0 = in, 1 = out) of cell `(v, d)` and
    /// keeps `v`'s occupancy bit exact — the kernel trusts a clear bit to
    /// mean an all-zero cell. A narrow row whose count would pass
    /// `u16::MAX` escapes first. Every count mutation after a build goes
    /// through here.
    #[inline]
    pub(crate) fn bump(&mut self, v: usize, d: usize, lane: usize, delta: i64) {
        let cell = v * 2 * self.num_dcs + 2 * d;
        let occupied = if self.meta[v].wide {
            self.bump_wide(v, d, lane, delta)
        } else {
            let count = self.counts[cell + lane] as i64 + delta;
            debug_assert!(count >= 0, "count underflow at ({v}, {d})");
            if count > u16::MAX as i64 {
                self.escape(v);
                self.bump_wide(v, d, lane, delta)
            } else {
                self.counts[cell + lane] = count as u16;
                self.counts[cell] | self.counts[cell + 1] != 0
            }
        };
        if occupied {
            self.meta[v].nnz |= 1u64 << d;
        } else {
            self.meta[v].nnz &= !(1u64 << d);
        }
    }

    /// [`Self::bump`] on an escaped row; returns whether the cell is
    /// occupied afterwards.
    fn bump_wide(&mut self, v: usize, d: usize, lane: usize, delta: i64) -> bool {
        let cell = self.wide_base(v) + 2 * d;
        let count = self.wide[cell + lane] as i64 + delta;
        debug_assert!((0..=u32::MAX as i64).contains(&count), "count out of range at ({v}, {d})");
        self.wide[cell + lane] = count as u32;
        self.wide[cell] | self.wide[cell + 1] != 0
    }

    /// Moves narrow row `v` to `u32` lanes.
    #[cold]
    fn escape(&mut self, v: usize) {
        let w = 2 * self.num_dcs;
        let lanes: Vec<u32> = self.counts[v * w..(v + 1) * w].iter().map(|&c| c as u32).collect();
        self.store_wide(v, &lanes);
    }

    /// Every count row widened to `u32` lanes, vertex-major — the storage-
    /// independent form two states' counts are compared in.
    #[cfg(test)]
    pub(crate) fn count_lanes(&self) -> Vec<u32> {
        (0..self.masters.len() as VertexId)
            .flat_map(|v| {
                let row = self.counts_row(v);
                (0..self.num_dcs).flat_map(move |d| {
                    let (i, o) = row.pair(d);
                    [i, o]
                })
            })
            .collect()
    }

    /// Recomputes the gather/apply load accumulators from the count arrays.
    pub(crate) fn rebuild_loads(&mut self) {
        self.gather.clear();
        self.apply.clear();
        for v in 0..self.masters.len() as VertexId {
            self.add_vertex_loads(v);
        }
    }

    /// Adds vertex `v`'s traffic contribution into the live accumulators:
    /// a `g_v` gather message from every occupied in-cell off its master
    /// (high-degree `v` only) and an `a_v` apply message to every mirror.
    pub(crate) fn add_vertex_loads(&mut self, v: VertexId) {
        self.accumulate_vertex_loads(v, StageLoads::add_transfer);
    }

    /// Removes vertex `v`'s traffic contribution from the live accumulators.
    pub(crate) fn remove_vertex_loads(&mut self, v: VertexId) {
        self.accumulate_vertex_loads(v, StageLoads::remove_transfer);
    }

    /// Feeds each of vertex `v`'s messages to `op` (add or remove).
    fn accumulate_vertex_loads(&mut self, v: VertexId, op: fn(&mut StageLoads, DcId, DcId, u64)) {
        let meta = self.meta[v as usize];
        let master = meta.master;
        let row = count_row(&self.counts, &self.wide, 2 * self.num_dcs, v as usize, meta.wide);
        for d in Bits(meta.nnz & !(1u64 << master)) {
            let (in_c, out_c) = row.pair(d);
            if meta.high && in_c > 0 {
                op(&mut self.gather, d as DcId, master, meta.g as u64);
            }
            if in_c + out_c > 0 {
                op(&mut self.apply, master, d as DcId, meta.a as u64);
            }
        }
    }

    /// Places one directed edge at `d`: count lanes, occupancy bits and the
    /// per-DC balance. Part of the [`Self::apply_delta`] protocol — the
    /// endpoints' load contributions must be retired before and
    /// re-accumulated after the batch of edge mutations.
    pub(crate) fn place_edge(&mut self, u: VertexId, v: VertexId, d: DcId) {
        self.bump(u as usize, d as usize, 1, 1);
        self.bump(v as usize, d as usize, 0, 1);
        self.edges_per_dc[d as usize] += 1;
    }

    /// Removes one directed edge from `d`. Counterpart of
    /// [`Self::place_edge`].
    pub(crate) fn unplace_edge(&mut self, u: VertexId, v: VertexId, d: DcId) {
        debug_assert_ne!(u, v, "cleaned deltas carry no self-loops");
        self.bump(u as usize, d as usize, 1, -1);
        self.bump(v as usize, d as usize, 0, -1);
        self.edges_per_dc[d as usize] -= 1;
    }

    /// Executes a prepared window mutation in place, in work proportional
    /// to the ops — no array is rebuilt, the untouched prefix of every
    /// per-vertex structure is reused as-is (counts are row-major by
    /// vertex, so growth is a pure append).
    ///
    /// Order matters and is chosen so intermediate states stay legal:
    /// loads of affected vertices are retired while the *old* counts and
    /// classes are still intact; all unplacements run before any placement
    /// (each names a distinct currently-placed edge, so no lane can
    /// underflow); loads are re-accumulated once the new state is final.
    /// The Eq 4 moved bytes and their price are unchanged by construction:
    /// old masters stay put and appended masters sit at their natural DCs.
    pub(crate) fn apply_delta(&mut self, ops: &PlacementDeltaOps) {
        let old_n = self.masters.len();
        debug_assert!(ops.affected.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(ops.affected.last().is_none_or(|&v| (v as usize) < old_n));

        // 1. Retire stale load contributions against the old state.
        for &v in &ops.affected {
            self.remove_vertex_loads(v);
        }

        // 2. Grow the per-vertex arrays (appends only).
        let m = self.num_dcs;
        self.masters.extend_from_slice(&ops.new_masters);
        let new_n = self.masters.len();
        self.counts.resize(new_n * m * 2, 0);
        let appended = ops.new_masters.iter().zip(&ops.new_high).zip(&ops.new_profile);
        self.meta.extend(appended.map(|((&master, &high), &(g, a))| VertexMeta {
            nnz: 0,
            g,
            a,
            master,
            high,
            wide: false,
        }));

        // 3. Degree-class flips (their edge re-placements ride in the
        // unplace/place lists; the flipped vertices are in `affected`, so
        // the class change flows into the load re-accumulation below).
        for &(f, high) in &ops.flips {
            self.meta[f as usize].high = high;
        }

        // 4. Edge mutations: all removals, then all placements.
        for &(u, v, d) in &ops.unplace {
            self.unplace_edge(u, v, d);
        }
        for &(u, v, d) in &ops.place {
            self.place_edge(u, v, d);
        }

        // 5. Re-accumulate loads under the new state.
        for &v in &ops.affected {
            self.add_vertex_loads(v);
        }
        for v in old_n..new_n {
            self.add_vertex_loads(v as VertexId);
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.masters.len()
    }

    /// Number of data centers.
    pub fn num_dcs(&self) -> usize {
        self.num_dcs
    }

    /// Named heap components of this state, for memory reports. The count
    /// rows (`2·M` u16 lanes per vertex) and the 24-byte meta records
    /// dominate; escaped rows, masters and the per-DC accumulators are the
    /// rest.
    pub(crate) fn mem_components(&self) -> Vec<(&'static str, usize)> {
        vec![
            ("counts", self.counts.capacity() * std::mem::size_of::<u16>()),
            ("wide_counts", self.wide.capacity() * std::mem::size_of::<u32>()),
            ("vertex_meta", self.meta.capacity() * std::mem::size_of::<VertexMeta>()),
            ("masters", self.masters.capacity() * std::mem::size_of::<DcId>()),
            (
                "dc_accumulators",
                self.edges_per_dc.capacity() * std::mem::size_of::<u64>()
                    + 2 * 2 * self.num_dcs * std::mem::size_of::<u64>(),
            ),
        ]
    }

    /// Total heap bytes of this state (sum of [`Self::mem_components`]).
    pub(crate) fn heap_bytes(&self) -> usize {
        self.mem_components().iter().map(|(_, b)| b).sum()
    }

    /// Master location of every vertex — the RL *state* (§IV-B).
    pub fn masters(&self) -> &[DcId] {
        &self.masters
    }

    /// Master location of `v`.
    #[inline]
    pub fn master(&self, v: VertexId) -> DcId {
        self.masters[v as usize]
    }

    /// Whether `v` is high-degree under the hybrid-cut threshold.
    #[inline]
    pub fn is_high(&self, v: VertexId) -> bool {
        self.meta[v as usize].high
    }

    /// Number of in-edges of `v` placed at `d`.
    #[inline]
    pub fn in_count(&self, v: VertexId, d: DcId) -> u32 {
        self.counts_row(v).pair(d as usize).0
    }

    /// Number of out-edges of `v` placed at `d`.
    #[inline]
    pub fn out_count(&self, v: VertexId, d: DcId) -> u32 {
        self.counts_row(v).pair(d as usize).1
    }

    /// Bitmask of DCs where `v` has a mirror (master excluded).
    ///
    /// `num_dcs <= 64` is guaranteed at construction ([`CloudEnv::new`] and
    /// `Self::from_edge_placement` both enforce [`geograph::MAX_DCS`]), so
    /// the shift cannot wrap.
    pub fn mirror_mask(&self, v: VertexId) -> u64 {
        let meta = &self.meta[v as usize];
        meta.nnz & !(1u64 << meta.master)
    }

    /// Number of mirrors of `v`.
    pub(crate) fn num_mirrors(&self, v: VertexId) -> u32 {
        self.mirror_mask(v).count_ones()
    }

    /// Average number of replicas (master + mirrors) per vertex — the
    /// replication factor λ of Fig 2.
    pub fn replication_factor(&self) -> f64 {
        let n = self.num_vertices().max(1);
        let replicas: u64 = (0..n as VertexId).map(|v| 1 + self.num_mirrors(v) as u64).sum();
        replicas as f64 / n as f64
    }

    /// Edges placed per DC.
    pub fn edges_per_dc(&self) -> &[u64] {
        &self.edges_per_dc
    }

    /// Per-iteration WAN usage in bytes (total uploads of both stages) —
    /// the Fig 2 "WAN usage" metric.
    pub fn wan_bytes_per_iteration(&self) -> f64 {
        self.gather.total_up() + self.apply.total_up()
    }

    /// Gather-stage loads (Eq 2 numerators).
    pub fn gather_loads(&self) -> &StageLoads {
        &self.gather
    }

    /// Apply-stage loads (Eq 3 numerators).
    pub fn apply_loads(&self) -> &StageLoads {
        &self.apply
    }

    /// One-time movement cost of the current masters (Eq 4).
    pub fn movement_cost(&self) -> f64 {
        self.movement_cost
    }

    /// Eq 4 before pricing: input bytes mastered away from home, by home DC.
    pub fn moved_bytes(&self) -> &[u64] {
        &self.moved[..self.num_dcs]
    }

    /// Re-prices the moved bytes under `env` into the movement cost and
    /// returns it. Every master change does this; replay checks commits.
    pub fn reprice(&mut self, env: &CloudEnv) -> f64 {
        self.movement_cost = geosim::cost::price(env, self.moved_bytes());
        self.movement_cost
    }

    /// Moves `v`'s master to `to`, with the moved bytes of its `home` DC
    /// and input size and their price. Counts and loads are the caller's.
    pub(crate) fn set_master(&mut self, env: &CloudEnv, v: VertexId, to: DcId, home: (DcId, u64)) {
        let (natural, size) = home;
        let moved = &mut self.moved[natural as usize];
        if self.masters[v as usize] != natural {
            *moved -= size;
        }
        if to != natural {
            *moved += size;
        }
        self.masters[v as usize] = to;
        self.meta[v as usize].master = to;
        self.reprice(env);
    }

    /// A copy of the traffic profile the state is weighted with (the
    /// state itself keeps it only in its meta records, as load units that
    /// quantise back to themselves).
    pub fn traffic_profile(&self) -> TrafficProfile {
        let bytes = |units: u32| units as f32 * geosim::transfer::BYTES_PER_UNIT as f32;
        TrafficProfile {
            gather_bytes: self.meta.iter().map(|meta| bytes(meta.g)).collect(),
            apply_bytes: self.meta.iter().map(|meta| bytes(meta.a)).collect(),
        }
    }

    /// Evaluates the current plan under `env` (Eq 1 + Eq 4/5), by the
    /// reduction the move kernel projects with.
    pub fn objective(&self, env: &CloudEnv) -> Objective {
        let (g, a) = (&self.gather, &self.apply);
        let rows = [g.up(), g.down(), a.up(), a.down()];
        self.objective_from_rows(env, self.movement_cost, rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geosim::Datacenter;

    /// The uniform profile's 8 bytes in load units.
    const EIGHT_BYTES: u64 = 8 << geosim::transfer::LOAD_UNIT_SHIFT;

    fn env2() -> CloudEnv {
        CloudEnv::new(vec![
            Datacenter::from_gb_units("a", 1.0, 2.0, 0.10),
            Datacenter::from_gb_units("b", 1.0, 2.0, 0.10),
        ])
    }

    /// Two vertices, edge 0->1 placed at DC 1; vertex 0 mastered at DC 0.
    fn simple_state(env: &CloudEnv) -> PlacementState {
        PlacementState::from_edge_placement(
            env,
            2,
            [(0u32, 1u32, 1u8)].into_iter(),
            vec![0, 1],
            vec![false, true],
            &[0, 1],
            &[100, 100],
            TrafficProfile::uniform(2, 8.0),
            10.0,
        )
        .unwrap()
    }

    #[test]
    fn counts_and_mirrors() {
        let env = env2();
        let s = simple_state(&env);
        assert_eq!(s.out_count(0, 1), 1);
        assert_eq!(s.in_count(1, 1), 1);
        // Vertex 0's edge lives at DC 1 but its master is DC 0 => mirror at 1.
        assert_eq!(s.mirror_mask(0), 0b10);
        // Vertex 1's only edge is at its master DC => no mirrors.
        assert_eq!(s.mirror_mask(1), 0);
        assert!((s.replication_factor() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn apply_traffic_only_for_mirrored_vertex() {
        let env = env2();
        let s = simple_state(&env);
        // Vertex 0 master at DC0 sends 8 bytes to its mirror at DC1.
        assert_eq!(s.apply_loads().up()[0], EIGHT_BYTES);
        assert_eq!(s.apply_loads().down()[1], EIGHT_BYTES);
        // Vertex 1 is high-degree but its in-edge is at its master: no gather.
        assert_eq!(s.gather_loads().up()[0], 0);
        assert_eq!(s.gather_loads().up()[1], 0);
    }

    #[test]
    fn gather_traffic_for_remote_in_edges() {
        let env = env2();
        // Edge 0->1 placed at DC 0, vertex 1 (high) mastered at DC 1.
        let s = PlacementState::from_edge_placement(
            &env,
            2,
            [(0u32, 1u32, 0u8)].into_iter(),
            vec![0, 1],
            vec![false, true],
            &[0, 1],
            &[100, 100],
            TrafficProfile::uniform(2, 8.0),
            10.0,
        )
        .unwrap();
        assert_eq!(s.gather_loads().up()[0], EIGHT_BYTES);
        assert_eq!(s.gather_loads().down()[1], EIGHT_BYTES);
        // Vertex 1 also has a mirror at DC 0 (its in-edge lives there):
        assert_eq!(s.apply_loads().up()[1], EIGHT_BYTES);
        assert_eq!(s.apply_loads().down()[0], EIGHT_BYTES);
    }

    #[test]
    fn low_degree_vertex_has_no_gather() {
        let env = env2();
        let s = PlacementState::from_edge_placement(
            &env,
            2,
            [(0u32, 1u32, 0u8)].into_iter(),
            vec![0, 1],
            vec![false, false], // vertex 1 low-degree now
            &[0, 1],
            &[100, 100],
            TrafficProfile::uniform(2, 8.0),
            10.0,
        )
        .unwrap();
        assert_eq!(s.gather_loads().total_up(), 0.0);
        // Synchronization still happens at apply.
        assert_eq!(s.apply_loads().up()[1], EIGHT_BYTES);
    }

    #[test]
    fn objective_combines_time_and_cost() {
        let env = env2();
        let s = simple_state(&env);
        let obj = s.objective(&env);
        // 8 bytes over a 1 GB/s uplink.
        assert!((obj.transfer_time - 8.0e-9).abs() < 1e-15);
        assert_eq!(obj.movement_cost, 0.0);
        // 10 iterations * 8 bytes * $0.10/GB.
        assert!((obj.runtime_cost - 10.0 * 8.0 * 0.10e-9).abs() < 1e-18);
        assert!(obj.total_cost() > 0.0);
    }

    #[test]
    fn movement_cost_counts_displaced_masters() {
        let env = env2();
        let s = PlacementState::from_edge_placement(
            &env,
            2,
            std::iter::empty(),
            vec![1, 1], // vertex 0 displaced from natural DC 0
            vec![false, false],
            &[0, 1],
            &[1_000_000_000, 100],
            TrafficProfile::uniform(2, 8.0),
            1.0,
        )
        .unwrap();
        assert!((s.movement_cost() - 0.10).abs() < 1e-9);
        assert_eq!(s.moved_bytes(), &[1_000_000_000, 0]);
    }

    #[test]
    fn wan_bytes_matches_loads() {
        let env = env2();
        let s = simple_state(&env);
        assert_eq!(
            s.wan_bytes_per_iteration(),
            s.gather_loads().total_up() + s.apply_loads().total_up()
        );
    }

    #[test]
    fn edges_per_dc_tracked() {
        let env = env2();
        let s = simple_state(&env);
        assert_eq!(s.edges_per_dc(), &[0, 1]);
    }

    #[test]
    fn out_of_range_dc_is_typed_error() {
        let env = env2();
        let err = PlacementState::from_edge_placement(
            &env,
            2,
            [(0u32, 1u32, 5u8)].into_iter(),
            vec![0, 1],
            vec![false, true],
            &[0, 1],
            &[100, 100],
            TrafficProfile::uniform(2, 8.0),
            10.0,
        )
        .unwrap_err();
        assert_eq!(err, PlanError::EdgeDcOutOfRange { src: 0, dst: 1, dc: 5, num_dcs: 2 });
    }

    #[test]
    fn out_of_range_vertex_is_typed_error() {
        let env = env2();
        let err = PlacementState::from_edge_placement(
            &env,
            2,
            [(0u32, 7u32, 1u8)].into_iter(),
            vec![0, 1],
            vec![false, true],
            &[0, 1],
            &[100, 100],
            TrafficProfile::uniform(2, 8.0),
            10.0,
        )
        .unwrap_err();
        assert_eq!(err, PlanError::VertexOutOfRange { vertex: 7, num_vertices: 2 });
    }

    #[test]
    fn out_of_range_master_is_typed_error() {
        let env = env2();
        let err = PlacementState::from_edge_placement(
            &env,
            2,
            std::iter::empty(),
            vec![0, 9],
            vec![false, true],
            &[0, 1],
            &[100, 100],
            TrafficProfile::uniform(2, 8.0),
            10.0,
        )
        .unwrap_err();
        assert_eq!(err, PlanError::MasterOutOfRange { vertex: 1, dc: 9, num_dcs: 2 });
    }
}
