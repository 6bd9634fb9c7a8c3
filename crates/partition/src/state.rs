//! Shared placement state for the replica-based models (hybrid- and
//! vertex-cut): per-vertex edge-location counts, mirror sets, and the
//! per-DC load accumulators behind the Eq 1–5 objective.

use geograph::Graph;
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
/// `g`/`a`, `master` and `high` are *copies* of the authoritative
/// `TrafficProfile` / `masters` / `is_high` (all of which other code still
/// reads); every site that mutates a master re-writes the copy, and
/// `validate_plan` cross-checks the two.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub(crate) struct VertexMeta {
    /// Occupancy bitmask over the vertex's count row: bit `d` set iff cell
    /// `(v, d)` holds any in- or out-count. Set where the counts are built
    /// ([`PlacementState::place_hybrid_edges`],
    /// [`PlacementState::from_edge_placement`]) and kept exact by every
    /// later count mutation (the hybrid move path,
    /// [`PlacementState::place_edge`] / [`PlacementState::unplace_edge`]);
    /// `num_dcs <= 64` is enforced at construction, so one `u64` always
    /// suffices.
    pub(crate) nnz: u64,
    /// Expected gather bytes (`profile.gather_bytes[v]`).
    pub(crate) g: f32,
    /// Expected apply bytes (`profile.apply_bytes[v]`).
    pub(crate) a: f32,
    /// Master DC (mirror of `masters[v]`).
    pub(crate) master: DcId,
    /// High-degree class (mirror of `is_high[v]`).
    pub(crate) high: bool,
}

/// Work counters of one incremental delta application
/// ([`crate::HybridState::apply_delta`]) — the probe behind the "window
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
/// mutation. Built by [`crate::HybridState::apply_delta`] (which owns the
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
    /// Traffic-profile rows for the appended vertices.
    pub(crate) new_gather_bytes: Vec<f32>,
    pub(crate) new_apply_bytes: Vec<f32>,
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
/// [`Self::counts_row`]). From those counts the model derives:
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
/// candidate move is evaluated in `O(deg(v) + M)`.
#[derive(Clone, Debug)]
pub struct PlacementState {
    pub(crate) num_dcs: usize,
    pub(crate) masters: Vec<DcId>,
    pub(crate) is_high: Vec<bool>,
    /// Interleaved in/out count-plane pair:
    /// `counts[(v * num_dcs + d) * 2]` = in-edges of `v` placed at `d`,
    /// `counts[(v * num_dcs + d) * 2 + 1]` = out-edges of `v` placed at `d`.
    ///
    /// A vertex's whole row is `2 · M` contiguous `u32` lanes (exactly one
    /// 64-byte cache line at M = 8), so the kernel's per-neighbor
    /// `count_transitions` tests — which always probe the in *and* out
    /// count of the same `(v, d)` cell — stream one contiguous run instead
    /// of two parallel arrays.
    pub(crate) counts: Vec<u32>,
    /// Packed kernel-side metadata, one record per vertex — see
    /// [`VertexMeta`]. The occupancy mask lets the move-evaluation kernel
    /// skip whole neighbor rows in O(1) instead of scanning `2 · M` lanes.
    pub(crate) meta: Vec<VertexMeta>,
    /// Edges placed per DC (load-balance metric).
    pub(crate) edges_per_dc: Vec<u64>,
    pub(crate) gather: StageLoads,
    pub(crate) apply: StageLoads,
    pub(crate) movement_cost: f64,
    pub(crate) profile: TrafficProfile,
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
    pub fn from_edge_placement(
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
        let mut state = Self::unplaced(m, masters, is_high, profile, num_iterations);
        for (u, v, d) in edges {
            if d as usize >= m {
                return Err(PlanError::EdgeDcOutOfRange { src: u, dst: v, dc: d, num_dcs: m });
            }
            if u as usize >= num_vertices || v as usize >= num_vertices {
                let vertex = if u as usize >= num_vertices { u } else { v };
                return Err(PlanError::VertexOutOfRange { vertex, num_vertices });
            }
            state.counts[(u as usize * m + d as usize) * 2 + 1] += 1;
            state.counts[(v as usize * m + d as usize) * 2] += 1;
            state.meta[u as usize].nnz |= 1 << d;
            state.meta[v as usize].nnz |= 1 << d;
            state.edges_per_dc[d as usize] += 1;
        }
        state.rebuild_loads();
        state.movement_cost = geosim::cost::movement_cost(env, natural, &state.masters, data_sizes);
        Ok(state)
    }

    /// A state over `num_dcs` DCs with its masters, degree classes and
    /// profile set and nothing placed: every count, occupancy mask,
    /// balance and load accumulator is zero. Lengths must agree and
    /// masters must already be below `num_dcs`.
    pub(crate) fn unplaced(
        num_dcs: usize,
        masters: Vec<DcId>,
        is_high: Vec<bool>,
        profile: TrafficProfile,
        num_iterations: f64,
    ) -> Self {
        let n = masters.len();
        let meta = (0..n)
            .map(|i| VertexMeta {
                nnz: 0,
                g: profile.gather_bytes[i],
                a: profile.apply_bytes[i],
                master: masters[i],
                high: is_high[i],
            })
            .collect();
        PlacementState {
            num_dcs,
            masters,
            is_high,
            counts: vec![0; n * num_dcs * 2],
            meta,
            edges_per_dc: vec![0; num_dcs],
            gather: StageLoads::new(num_dcs),
            apply: StageLoads::new(num_dcs),
            movement_cost: 0.0,
            profile,
            num_iterations,
        }
    }

    /// Places every edge of `graph` by the hybrid-cut rule (§IV-B) under
    /// this state's masters and degree classes, filling the count plane,
    /// the occupancy masks and `edges_per_dc` of an [`Self::unplaced`]
    /// state. Loads and movement cost are left to the caller.
    ///
    /// Row-sequential: vertex `v`'s in-lanes come from its in-row (a
    /// low-degree `v` holds its whole in-degree at its own master, a
    /// high-degree `v` one per in-neighbor at that neighbor's master) and
    /// its out-lanes from its out-row, so every write lands in `v`'s own
    /// row. The only random reads go to an n-byte `master | high << 7`
    /// tag. `HybridState::try_from_masters` and the snapshot decoder both
    /// build their counts here.
    pub(crate) fn place_hybrid_edges(&mut self, graph: &Graph) {
        const MASTER: u8 = 0x7f;
        let m = self.num_dcs;
        assert_eq!(graph.num_vertices(), self.masters.len());
        debug_assert!(self.meta.iter().all(|meta| meta.nnz == 0));
        let tag: Vec<u8> =
            self.masters.iter().zip(&self.is_high).map(|(&d, &h)| d | (h as u8) << 7).collect();
        let rows = self.counts.chunks_exact_mut(2 * m).zip(&mut self.meta);
        for (v, (row, meta)) in rows.enumerate() {
            let v = v as VertexId;
            let own = tag[v as usize];
            let master = (own & MASTER) as usize;
            let mut nnz = 0u64;
            let sources = graph.in_neighbors(v);
            if own & !MASTER == 0 {
                if !sources.is_empty() {
                    row[2 * master] = sources.len() as u32;
                    nnz = 1 << master;
                }
            } else {
                for &u in sources {
                    let d = (tag[u as usize] & MASTER) as usize;
                    row[2 * d] += 1;
                    nnz |= 1 << d;
                }
            }
            for &w in graph.out_neighbors(v) {
                let t = tag[w as usize];
                let d = if t & !MASTER == 0 { (t & MASTER) as usize } else { master };
                row[2 * d + 1] += 1;
                nnz |= 1 << d;
            }
            meta.nnz = nnz;
            let mut bits = nnz;
            while bits != 0 {
                let d = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                self.edges_per_dc[d] += row[2 * d + 1] as u64;
            }
        }
    }

    /// Index of the in-count lane of cell `(v, d)`; the out-count lane is
    /// the next element.
    #[inline]
    pub(crate) fn cell(&self, v: usize, d: usize) -> usize {
        (v * self.num_dcs + d) * 2
    }

    /// Vertex `v`'s interleaved `[in, out]` count row: `2 · M` contiguous
    /// lanes, DC `d`'s pair at `row[2 * d]` / `row[2 * d + 1]`.
    #[inline]
    pub(crate) fn counts_row(&self, v: VertexId) -> &[u32] {
        let w = self.num_dcs * 2;
        let base = v as usize * w;
        &self.counts[base..base + w]
    }

    /// Recomputes the gather/apply load accumulators from the count arrays.
    pub(crate) fn rebuild_loads(&mut self) {
        self.gather.clear();
        self.apply.clear();
        for v in 0..self.masters.len() as VertexId {
            self.add_vertex_loads(v);
        }
    }

    /// Adds vertex `v`'s traffic contribution into the live accumulators.
    /// Iterates only `v`'s occupied cells — empty cells contribute
    /// nothing, so the skipped iterations leave the accumulated sums
    /// bit-identical to a full `0..m` scan.
    pub(crate) fn add_vertex_loads(&mut self, v: VertexId) {
        let meta = self.meta[v as usize];
        let master = meta.master as usize;
        let base = v as usize * self.num_dcs * 2;
        let g = meta.g as f64;
        let a = meta.a as f64;
        let mut bits = meta.nnz & !(1u64 << master);
        while bits != 0 {
            let d = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            if meta.high && self.counts[base + 2 * d] > 0 {
                self.gather.add_up(d as DcId, g);
                self.gather.add_down(master as DcId, g);
            }
            if self.counts[base + 2 * d] + self.counts[base + 2 * d + 1] > 0 {
                self.apply.add_up(master as DcId, a);
                self.apply.add_down(d as DcId, a);
            }
        }
    }

    /// Removes vertex `v`'s traffic contribution from the live accumulators.
    pub(crate) fn remove_vertex_loads(&mut self, v: VertexId) {
        let meta = self.meta[v as usize];
        let master = meta.master as usize;
        let base = v as usize * self.num_dcs * 2;
        let g = meta.g as f64;
        let a = meta.a as f64;
        let mut bits = meta.nnz & !(1u64 << master);
        while bits != 0 {
            let d = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            if meta.high && self.counts[base + 2 * d] > 0 {
                self.gather.add_up(d as DcId, -g);
                self.gather.add_down(master as DcId, -g);
            }
            if self.counts[base + 2 * d] + self.counts[base + 2 * d + 1] > 0 {
                self.apply.add_up(master as DcId, -a);
                self.apply.add_down(d as DcId, -a);
            }
        }
    }

    /// Places one directed edge at `d`: count lanes, occupancy bits and the
    /// per-DC balance. Part of the [`Self::apply_delta`] protocol — the
    /// endpoints' load contributions must be retired before and
    /// re-accumulated after the batch of edge mutations.
    pub(crate) fn place_edge(&mut self, u: VertexId, v: VertexId, d: DcId) {
        debug_assert_ne!(u, v, "cleaned deltas carry no self-loops");
        let cu = self.cell(u as usize, d as usize);
        self.counts[cu + 1] += 1;
        let cv = self.cell(v as usize, d as usize);
        self.counts[cv] += 1;
        self.meta[u as usize].nnz |= 1u64 << d;
        self.meta[v as usize].nnz |= 1u64 << d;
        self.edges_per_dc[d as usize] += 1;
    }

    /// Removes one directed edge from `d`, clearing an occupancy bit when
    /// its cell pair empties — the kernel trusts a clear bit to mean an
    /// all-zero cell. Counterpart of [`Self::place_edge`].
    pub(crate) fn unplace_edge(&mut self, u: VertexId, v: VertexId, d: DcId) {
        debug_assert_ne!(u, v, "cleaned deltas carry no self-loops");
        let cu = self.cell(u as usize, d as usize);
        self.counts[cu + 1] -= 1;
        if (self.counts[cu] | self.counts[cu + 1]) == 0 {
            self.meta[u as usize].nnz &= !(1u64 << d);
        }
        let cv = self.cell(v as usize, d as usize);
        self.counts[cv] -= 1;
        if (self.counts[cv] | self.counts[cv + 1]) == 0 {
            self.meta[v as usize].nnz &= !(1u64 << d);
        }
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
    /// The tracked Eq 4 movement cost is unchanged by construction: old
    /// masters stay put and appended masters sit at their natural DCs.
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
        self.is_high.extend_from_slice(&ops.new_high);
        let new_n = self.masters.len();
        self.counts.resize(new_n * m * 2, 0);
        self.profile.gather_bytes.extend_from_slice(&ops.new_gather_bytes);
        self.profile.apply_bytes.extend_from_slice(&ops.new_apply_bytes);
        for i in 0..ops.new_masters.len() {
            self.meta.push(VertexMeta {
                nnz: 0,
                g: ops.new_gather_bytes[i],
                a: ops.new_apply_bytes[i],
                master: ops.new_masters[i],
                high: ops.new_high[i],
            });
        }

        // 3. Degree-class flips (their edge re-placements ride in the
        // unplace/place lists; the flipped vertices are in `affected`, so
        // the class change flows into the load re-accumulation below).
        for &(f, high) in &ops.flips {
            self.is_high[f as usize] = high;
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
    /// planes (`2·M` u32 lanes per vertex) dominate; everything else is
    /// per-vertex scalars or per-DC accumulators.
    pub fn mem_components(&self) -> Vec<(&'static str, usize)> {
        vec![
            ("counts", self.counts.capacity() * std::mem::size_of::<u32>()),
            ("vertex_meta", self.meta.capacity() * std::mem::size_of::<VertexMeta>()),
            ("masters", self.masters.capacity() * std::mem::size_of::<DcId>()),
            ("is_high", self.is_high.capacity() * std::mem::size_of::<bool>()),
            (
                "traffic_profile",
                (self.profile.gather_bytes.capacity() + self.profile.apply_bytes.capacity())
                    * std::mem::size_of::<f32>(),
            ),
            (
                "dc_accumulators",
                self.edges_per_dc.capacity() * std::mem::size_of::<u64>()
                    + 2 * 2 * self.num_dcs * std::mem::size_of::<f64>(),
            ),
        ]
    }

    /// Total heap bytes of this state (sum of [`Self::mem_components`]).
    pub fn heap_bytes(&self) -> usize {
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
        self.is_high[v as usize]
    }

    /// Number of in-edges of `v` placed at `d`.
    #[inline]
    pub fn in_count(&self, v: VertexId, d: DcId) -> u32 {
        self.counts[self.cell(v as usize, d as usize)]
    }

    /// Number of out-edges of `v` placed at `d`.
    #[inline]
    pub fn out_count(&self, v: VertexId, d: DcId) -> u32 {
        self.counts[self.cell(v as usize, d as usize) + 1]
    }

    /// Bitmask of DCs where `v` has a mirror (master excluded).
    ///
    /// `num_dcs <= 64` is guaranteed at construction ([`CloudEnv::new`] and
    /// [`Self::from_edge_placement`] both enforce [`geograph::MAX_DCS`]), so
    /// the shift cannot wrap.
    pub fn mirror_mask(&self, v: VertexId) -> u64 {
        let meta = &self.meta[v as usize];
        meta.nnz & !(1u64 << meta.master)
    }

    /// Number of mirrors of `v`.
    pub fn num_mirrors(&self, v: VertexId) -> u32 {
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

    /// Overrides the tracked Eq 4 movement cost.
    ///
    /// WAL replay uses this: a state rebuilt from masters sums the
    /// movement cost in vertex order, while a live trainer accumulates it
    /// incrementally — the two agree only to fp tolerance. Pinning the
    /// committed bits keeps a recovered pipeline bit-exact with the
    /// uninterrupted one.
    pub fn override_movement_cost(&mut self, cost: f64) {
        self.movement_cost = cost;
    }

    /// Number of analytics iterations the cost model charges for.
    pub fn num_iterations(&self) -> f64 {
        self.num_iterations
    }

    /// The traffic profile the state is weighted with.
    pub fn profile(&self) -> &TrafficProfile {
        &self.profile
    }

    /// Evaluates the current plan under `env` (Eq 1 + Eq 4/5).
    pub fn objective(&self, env: &CloudEnv) -> Objective {
        debug_assert_eq!(env.num_dcs(), self.num_dcs);
        Objective {
            transfer_time: self.gather.transfer_time(env) + self.apply.transfer_time(env),
            movement_cost: self.movement_cost,
            runtime_cost: self.num_iterations
                * (self.gather.upload_cost(env) + self.apply.upload_cost(env)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geosim::Datacenter;

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
        assert_eq!(s.apply_loads().up(0), 8.0);
        assert_eq!(s.apply_loads().down(1), 8.0);
        // Vertex 1 is high-degree but its in-edge is at its master: no gather.
        assert_eq!(s.gather_loads().up(0), 0.0);
        assert_eq!(s.gather_loads().up(1), 0.0);
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
        assert_eq!(s.gather_loads().up(0), 8.0);
        assert_eq!(s.gather_loads().down(1), 8.0);
        // Vertex 1 also has a mirror at DC 0 (its in-edge lives there):
        assert_eq!(s.apply_loads().up(1), 8.0);
        assert_eq!(s.apply_loads().down(0), 8.0);
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
        assert_eq!(s.apply_loads().up(1), 8.0);
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
