//! Hybrid-cut placement: the model RLCut trains over (§III-B, §IV-B).
//!
//! The *state* is the master-location vector. Edge placement is fully
//! derived from it (paper §IV-B):
//!
//! * in-edges of a **low-degree** vertex `v` are placed at `v`'s master;
//! * each in-edge `(u, v)` of a **high-degree** `v` is placed at `u`'s
//!   master;
//! * mirrors exist wherever a vertex's incident edges land.
//!
//! [`HybridState::evaluate_moves`] stages a move of `v` once and projects
//! it onto the objective for every destination DC of a mask from a single
//! `O(deg(v))` neighborhood sweep (the one [`crate::kernel`] function).
//! Scoring asks for every destination but the master for every sampled
//! agent per training iteration and dominates RLCut's training cost,
//! which is why the paper's straggler mitigation (§V-B) schedules agents
//! by vertex degree; batched migration asks for a one-bit mask, whose slot
//! is the all-DC mask's bit-for-bit.

use geograph::fxhash::FxHashMap;
use geograph::{GeoGraph, GraphDelta};
use geosim::CloudEnv;

use crate::error::PlanError;
use crate::kernel::{CntDelta, LaneDeltas, MoveScratch};
use crate::profile::TrafficProfile;
use crate::state::{DeltaApplyStats, Objective, PlacementDeltaOps, PlacementState};
use crate::{DcId, VertexId};

/// Hybrid-cut placement state over a borrowed [`GeoGraph`].
#[derive(Clone, Debug)]
pub struct HybridState<'g> {
    geo: &'g GeoGraph,
    core: PlacementState,
    theta: usize,
}

impl<'g> HybridState<'g> {
    /// Builds hybrid-cut state from explicit master locations, panicking on
    /// an out-of-range master. Internal callers (trainer, baselines) whose
    /// masters are constructed in-range use this; external plan input goes
    /// through [`Self::try_from_masters`].
    pub fn from_masters(
        geo: &'g GeoGraph,
        env: &CloudEnv,
        masters: Vec<DcId>,
        theta: usize,
        profile: TrafficProfile,
        num_iterations: f64,
    ) -> Self {
        Self::try_from_masters(geo, env, masters, theta, profile, num_iterations)
            .unwrap_or_else(|e| panic!("invalid master assignment: {e}"))
    }

    /// Builds hybrid-cut state from explicit master locations, returning a
    /// typed [`PlanError`] when any master names a DC outside the
    /// environment or a profile value is not a load
    /// ([`TrafficProfile::units`]) — the entry point for plan files and
    /// other external input.
    pub fn try_from_masters(
        geo: &'g GeoGraph,
        env: &CloudEnv,
        masters: Vec<DcId>,
        theta: usize,
        profile: TrafficProfile,
        num_iterations: f64,
    ) -> Result<Self, PlanError> {
        assert_eq!(masters.len(), geo.num_vertices());
        assert_eq!(env.num_dcs(), geo.num_dcs);
        if let Some((vertex, &dc)) =
            masters.iter().enumerate().find(|&(_, &d)| d as usize >= env.num_dcs())
        {
            return Err(PlanError::MasterOutOfRange {
                vertex: vertex as VertexId,
                dc,
                num_dcs: env.num_dcs(),
            });
        }
        assert_eq!(profile.len(), geo.num_vertices());
        let is_high = geograph::degree::classify_high_degree(&geo.graph, theta);
        let units = (0..geo.num_vertices() as VertexId).map(|v| profile.units(v));
        let mut core =
            PlacementState::unplaced(env.num_dcs(), masters, is_high, units, num_iterations)?;
        core.place_hybrid_edges(&geo.graph);
        core.rebuild_loads();
        core.moved = geosim::cost::moved_bytes(&geo.locations, &core.masters, &geo.data_sizes);
        core.reprice(env);
        Ok(HybridState { geo, core, theta })
    }

    /// The *natural* partitioning: every master at its data's home DC —
    /// the paper's initial state before (re)partitioning (§II-B).
    pub fn natural(
        geo: &'g GeoGraph,
        env: &CloudEnv,
        theta: usize,
        profile: TrafficProfile,
        num_iterations: f64,
    ) -> Self {
        Self::from_masters(geo, env, geo.locations.clone(), theta, profile, num_iterations)
    }

    /// Splits the plan into its graph-independent parts: the owned
    /// [`PlacementState`] and the θ it was classified with. This is the
    /// cross-window carrier — a dynamic-graph driver keeps these between
    /// windows (the borrowed graph may be dropped) and rebinds them to the
    /// next snapshot with [`Self::resume_from_parts`].
    pub fn into_parts(self) -> (PlacementState, usize) {
        (self.core, self.theta)
    }

    /// The inverse of [`Self::into_parts`]: rebinds carried parts to the
    /// snapshot they describe *unchanged* — no per-vertex work. The caller
    /// asserts the parts were built over `geo` (a delta-advanced carrier
    /// goes through [`Self::resume_from_parts`] instead); misuse surfaces
    /// through [`Self::validate_plan`], which drivers use this view for.
    pub fn from_parts(core: PlacementState, theta: usize, geo: &GeoGraph) -> HybridState<'_> {
        assert_eq!(core.num_vertices(), geo.num_vertices());
        HybridState { geo, core, theta }
    }

    /// The checks [`Self::resume_from_parts`] makes before it consumes
    /// anything: `delta` must lead from `core`'s vertex count to
    /// `new_geo`'s, `new_profile` must cover `new_geo`, and its entries for
    /// the appended vertices must be loads ([`TrafficProfile::units`]). A
    /// caller runs them on its borrowed carrier, so a refused delta leaves
    /// it in place.
    pub fn check_resume(
        core: &PlacementState,
        new_geo: &GeoGraph,
        delta: &GraphDelta,
        new_profile: &TrafficProfile,
    ) -> Result<(), PlanError> {
        let new_n = new_geo.num_vertices();
        let mismatch = [
            ("old vertex count", delta.old_num_vertices(), core.num_vertices()),
            ("new vertex count", delta.new_num_vertices(), new_n),
            ("profile length", new_n, new_profile.len()),
        ];
        if let Some((what, expected, found)) = mismatch.into_iter().find(|m| m.1 != m.2) {
            return Err(PlanError::DeltaMismatch { what, expected, found });
        }
        (core.num_vertices()..new_n).try_for_each(|v| new_profile.units(v as VertexId).map(drop))
    }

    /// Advances a plan to the next dynamic-graph window: takes the
    /// placement state [`Self::into_parts`] extracted from the previous
    /// snapshot's plan and returns it rebound to `new_geo`, updated
    /// incrementally for exactly the vertices the delta touches — no count
    /// plane, meta record, load accumulator or profile row of an untouched
    /// vertex is rebuilt. The previous window's graph need not be alive:
    /// the flip repair walks the *new* graph's in-edges (survivors = new
    /// in-edges minus this window's inserts).
    ///
    /// Masters of existing vertices are preserved (they are the RL state
    /// carried across windows); appended vertices start at their natural
    /// DC, so the Eq 4 moved bytes and their price are unchanged. θ stays frozen
    /// at the value the state was built with; existing vertices whose
    /// in-degree crosses θ flip class and have their surviving in-edges
    /// re-placed under the new rule.
    ///
    /// Contract: `new_geo` must be the carried graph plus `delta` (same
    /// cleaned form), with locations and data sizes of existing vertices
    /// unchanged, and `new_profile` must cover `new_geo` and agree with the
    /// carried profile on existing vertices. Dimension mismatches surface
    /// as [`PlanError::DeltaMismatch`].
    pub fn resume_from_parts<'n>(
        core: PlacementState,
        theta: usize,
        new_geo: &'n GeoGraph,
        env: &CloudEnv,
        delta: &GraphDelta,
        new_profile: &TrafficProfile,
    ) -> Result<(HybridState<'n>, DeltaApplyStats), PlanError> {
        let old_n = core.num_vertices();
        let new_n = new_geo.num_vertices();
        assert_eq!(env.num_dcs(), new_geo.num_dcs);
        assert_eq!(env.num_dcs(), core.num_dcs());
        Self::check_resume(&core, new_geo, delta, new_profile)?;
        debug_assert!(
            core.meta
                .iter()
                .enumerate()
                .all(|(v, meta)| new_profile.units(v as VertexId) == Ok((meta.g, meta.a))),
            "carried traffic profile disagrees with new_profile on existing vertices"
        );
        let new_profile =
            (old_n..new_n).map(|v| new_profile.units(v as VertexId)).collect::<Result<_, _>>()?;

        // Appended vertices: natural masters, class from the new snapshot.
        let new_masters_tail: Vec<DcId> = new_geo.locations[old_n..].to_vec();
        let new_high_tail: Vec<bool> =
            (old_n..new_n).map(|v| new_geo.graph.in_degree(v as VertexId) >= theta).collect();

        // Degree class is keyed on in-degree, so the flip candidates are
        // exactly the delta's sparse in-degree changes (sorted ⇒ `flips`
        // is sorted and binary-searchable).
        let mut flips: Vec<(VertexId, bool)> = Vec::new();
        for &(v, _) in delta.in_degree_changes() {
            if (v as usize) < old_n {
                let high = new_geo.graph.in_degree(v) >= theta;
                if high != core.is_high(v) {
                    flips.push((v, high));
                }
            }
        }

        let master_of = |x: VertexId| -> DcId {
            if (x as usize) < old_n {
                core.master(x)
            } else {
                new_masters_tail[x as usize - old_n]
            }
        };
        let new_high_of = |x: VertexId| -> bool {
            if (x as usize) < old_n {
                match flips.binary_search_by_key(&x, |&(f, _)| f) {
                    Ok(i) => flips[i].1,
                    Err(_) => core.is_high(x),
                }
            } else {
                new_high_tail[x as usize - old_n]
            }
        };

        let mut unplace: Vec<(VertexId, VertexId, DcId)> =
            Vec::with_capacity(delta.deleted().len());
        let mut place: Vec<(VertexId, VertexId, DcId)> = Vec::with_capacity(delta.inserted().len());

        // Deleted edges leave the DC the *old* rule placed them at (both
        // endpoints exist in the base graph by the delta contract).
        for &(u, v) in delta.deleted() {
            let d = if core.is_high(v) { core.master(u) } else { core.master(v) };
            unplace.push((u, v, d));
        }

        // Flip repair: a surviving in-edge (u, f) of a flipped f moves from
        // the old rule's DC to the new rule's. Survivors are the new
        // graph's in-edges minus this window's inserts — deleted in-edges
        // were unplaced above, inserted ones are placed below.
        let mut replaced_edges = 0usize;
        for &(f, now_high) in &flips {
            for &u in new_geo.graph.in_neighbors(f) {
                if delta.inserted().binary_search(&(u, f)).is_ok() {
                    continue;
                }
                // f's old class is the negation of its new one.
                let old_dc = if now_high { core.master(f) } else { core.master(u) };
                let new_dc = if now_high { core.master(u) } else { core.master(f) };
                if old_dc != new_dc {
                    unplace.push((u, f, old_dc));
                    place.push((u, f, new_dc));
                    replaced_edges += 1;
                }
            }
        }

        // Inserted edges are placed under the *new* rule (post-flip
        // classes, appended vertices at their natural masters).
        for &(u, v) in delta.inserted() {
            let d = if new_high_of(v) { master_of(u) } else { master_of(v) };
            place.push((u, v, d));
        }

        // Load re-accumulation set: old-range endpoints of every edge op,
        // plus every flipped vertex (a flip changes gather semantics even
        // when no count moves).
        let mut affected: Vec<VertexId> =
            Vec::with_capacity(2 * (unplace.len() + place.len()) + flips.len());
        for &(u, v, _) in unplace.iter().chain(place.iter()) {
            if (u as usize) < old_n {
                affected.push(u);
            }
            if (v as usize) < old_n {
                affected.push(v);
            }
        }
        for &(f, _) in &flips {
            affected.push(f);
        }
        affected.sort_unstable();
        affected.dedup();

        let stats = DeltaApplyStats {
            new_vertices: new_n - old_n,
            inserted_edges: delta.inserted().len(),
            deleted_edges: delta.deleted().len(),
            class_flips: flips.len(),
            replaced_edges,
            affected_vertices: affected.len(),
        };
        let ops = PlacementDeltaOps {
            new_masters: new_masters_tail,
            new_high: new_high_tail,
            new_profile,
            flips,
            unplace,
            place,
            affected,
        };
        let mut core = core;
        core.apply_delta(&ops);
        Ok((HybridState { geo: new_geo, core, theta }, stats))
    }

    /// The underlying placement state (counts, loads, metrics).
    pub fn core(&self) -> &PlacementState {
        &self.core
    }

    /// Heap bytes of the owned placement state (the borrowed graph is the
    /// caller's to account).
    pub fn heap_bytes(&self) -> usize {
        self.core.heap_bytes()
    }

    /// The hybrid-cut degree threshold θ.
    pub fn theta(&self) -> usize {
        self.theta
    }

    /// Current master of `v`.
    #[inline]
    pub fn master(&self, v: VertexId) -> DcId {
        self.core.master(v)
    }

    /// Current objective (Eq 1 + Eq 4/5).
    pub fn objective(&self, env: &CloudEnv) -> Objective {
        self.core.objective(env)
    }

    /// Evaluates moving `v`'s master to every DC flagged in `dests` (bit
    /// `b` ⇔ DC `b`) from one neighborhood sweep, without mutating the
    /// state — see `PlacementState::evaluate_moves`. The returned slice
    /// lives in `scratch`, indexed by destination DC; only flagged slots
    /// are written, and a flagged current master holds the unchanged
    /// current objective. With `priced` false a caller that reads only
    /// `transfer_time` skips Eq 4/5: the other slots' cost fields are NaN.
    pub fn evaluate_moves<'s>(
        &self,
        env: &CloudEnv,
        v: VertexId,
        dests: u64,
        priced: bool,
        scratch: &'s mut MoveScratch,
    ) -> &'s [Objective] {
        self.collect_deltas_into(v, scratch);
        let (natural, size) = (self.geo.locations[v as usize], self.geo.data_sizes[v as usize]);
        self.core.evaluate_moves(env, v, dests, priced, natural, size, scratch)
    }

    /// Destination `b`'s slot of the last [`Self::evaluate_moves`] call on
    /// `scratch` (which flagged `b`, not `v`'s master) as lane deltas from
    /// the live rows, for [`Self::reprice`]; `None` where they do not fit
    /// the compact form.
    pub fn export_lanes(&self, b: DcId, scratch: &MoveScratch) -> Option<LaneDeltas> {
        self.core.export_lanes(b as usize, scratch)
    }

    /// The objective after moving `v` to `b`, from the live rows and the
    /// `lanes` [`Self::export_lanes`] took for that move. Bit-identical to
    /// `evaluate_moves(env, v, 1 << b, priced, ..)[b]` as long as
    /// [`Self::can_reprice`] holds for every move applied since the export.
    pub fn reprice(
        &self,
        env: &CloudEnv,
        v: VertexId,
        b: DcId,
        priced: bool,
        lanes: &LaneDeltas,
        scratch: &mut MoveScratch,
    ) -> Objective {
        let home =
            priced.then(|| (self.geo.locations[v as usize], self.geo.data_sizes[v as usize]));
        self.core.reprice_move(env, v, b as usize, home, lanes, scratch)
    }

    /// Whether `lanes`, exported for moving `v` to `b`, still hold after
    /// the moves `marks` recorded ([`Self::apply_move_marked`]): `v` is
    /// unmarked, and no neighbor a move of `v` stages has moved or crossed
    /// a count test at `v`'s master or at `b`. The staged neighbors are
    /// those [`Self::evaluate_moves`] stages: every in-neighbor of a
    /// low-degree `v` and every high-degree out-neighbor. Cost: two bit
    /// tests unless a neighbor of `v` is marked; then `v`'s two adjacency
    /// rows and one bit test per neighbor, a neighbor's cell mask and class
    /// read only where it is marked.
    pub fn can_reprice(&self, v: VertexId, b: DcId, lanes: &LaneDeltas, marks: &MoveMarks) -> bool {
        if marks.row_changed(v) {
            return false;
        }
        if !marks.near(v) {
            return true;
        }
        let (a, high) = lanes.mover();
        let cells = 1u64 << a | 1u64 << b;
        let stale = |x: VertexId| x != v && marks.cells(x) & cells != 0;
        let graph = &self.geo.graph;
        if !high && graph.in_neighbors(v).iter().any(|&u| stale(u)) {
            return false;
        }
        let meta = &self.core.meta;
        !graph.out_neighbors(v).iter().any(|&w| stale(w) && meta[w as usize].high)
    }

    /// The dense projection [`Self::evaluate_moves`] replaced, every lane
    /// of every flagged destination built and reduced: the sparse
    /// kernel's test oracle.
    #[cfg(test)]
    pub(crate) fn evaluate_moves_dense(
        &self,
        env: &CloudEnv,
        v: VertexId,
        dests: u64,
        scratch: &mut MoveScratch,
    ) -> Vec<Objective> {
        self.collect_deltas_into(v, scratch);
        let (natural, size) = (self.geo.locations[v as usize], self.geo.data_sizes[v as usize]);
        self.core.evaluate_moves_dense(env, v, dests, natural, size, scratch)
    }

    /// Moves `v`'s master to `to`, updating counts, loads, balance, moved
    /// bytes and cost incrementally through the caller's scratch arena. Cost:
    /// `O(deg(v) · M)` (moves are far rarer than evaluations — only
    /// accepted migrations pay this).
    pub fn apply_move_with(
        &mut self,
        env: &CloudEnv,
        v: VertexId,
        to: DcId,
        scratch: &mut MoveScratch,
    ) {
        self.apply_move(env, v, to, scratch, None);
    }

    /// [`Self::apply_move_with`] that also records in `marks` what the move
    /// changed at the grain a cached projection reads: `v` moved, the rows
    /// of `v` and of every staged neighbor changed, and which of those
    /// neighbors' cells crossed a count test of the marks' reach.
    pub fn apply_move_marked(
        &mut self,
        env: &CloudEnv,
        v: VertexId,
        to: DcId,
        scratch: &mut MoveScratch,
        marks: &mut MoveMarks,
    ) {
        self.apply_move(env, v, to, scratch, Some(marks));
    }

    fn apply_move(
        &mut self,
        env: &CloudEnv,
        v: VertexId,
        to: DcId,
        scratch: &mut MoveScratch,
        mut marks: Option<&mut MoveMarks>,
    ) {
        let a = self.core.master(v);
        if a == to {
            return;
        }
        self.collect_deltas_into(v, scratch);
        let self_delta = scratch.self_delta;

        // Remove the old contributions of every affected vertex.
        self.core.remove_vertex_loads(v);
        for &(x, _) in &scratch.neighbors {
            self.core.remove_vertex_loads(x);
        }

        // Mutate the count rows (lane 0 = in, lane 1 = out), keeping the
        // per-vertex occupancy masks exact.
        let (from, dest) = (a as usize, to as usize);
        let core = &mut self.core;
        let bump_row = |core: &mut PlacementState, x: usize, d: CntDelta| {
            for (dc, lane, delta) in
                [(from, 0, d.in_a), (dest, 0, d.in_b), (from, 1, d.out_a), (dest, 1, d.out_b)]
            {
                if delta != 0 {
                    core.bump(x, dc, lane, delta);
                }
            }
        };
        bump_row(core, v as usize, self_delta);
        // A vertex's first mark flags every vertex whose move may stage it,
        // so `can_reprice` reads the rows of those alone.
        let graph = &self.geo.graph;
        let flag_stagers = |marks: &mut MoveMarks, core: &PlacementState, x: VertexId| {
            graph.out_neighbors(x).iter().for_each(|&w| marks.note_near(w));
            if core.meta[x as usize].high {
                graph.in_neighbors(x).iter().for_each(|&u| marks.note_near(u));
            }
        };
        if let Some(marks) = marks.as_deref_mut() {
            if marks.note_mover(v) {
                flag_stagers(marks, core, v);
            }
        }
        for &(x, d) in &scratch.neighbors {
            let Some(marks) = marks.as_deref_mut() else {
                bump_row(core, x as usize, d);
                continue;
            };
            let cells = |core: &PlacementState| {
                let row = core.counts_row(x);
                [row.pair(from), row.pair(dest)]
            };
            let before = cells(core);
            bump_row(core, x as usize, d);
            let after = cells(core);
            let master = core.meta[x as usize].master as usize;
            marks.note_row(x);
            for (dc, old, new) in [(from, before[0], after[0]), (dest, before[1], after[1])] {
                if dc != master && marks.crosses(old, new) && marks.note_cell(x, dc) {
                    flag_stagers(marks, core, x);
                }
            }
        }

        // Moved edges change the per-DC balance. Every edge that moved is
        // one of v's in-edges (low v) or an out-edge to a high destination
        // (or a self-loop); `-self_delta.out_a - ...` counts them exactly
        // once via the out side for out-moves plus the in side for in-moves
        // of *other* sources. Count directly instead:
        let moved_edges = (-self_delta.in_a).max(0) as u64
            + scratch.neighbors.iter().map(|&(_, d)| (-d.in_a).max(0) as u64).sum::<u64>();
        self.core.edges_per_dc[a as usize] -= moved_edges;
        self.core.edges_per_dc[to as usize] += moved_edges;

        let home = (self.geo.locations[v as usize], self.geo.data_sizes[v as usize]);
        self.core.set_master(env, v, to, home);

        // Re-add contributions under the new placement.
        self.core.add_vertex_loads(v);
        for &(x, _) in &scratch.neighbors {
            self.core.add_vertex_loads(x);
        }
    }

    /// Stages into `scratch` the in/out count deltas a move of `v` away
    /// from its current master causes, for `v` itself and for each
    /// affected neighbor. Self-loops fold into the self delta. The deltas
    /// are destination-independent (any `b ≠ a` receives the same counts
    /// DC `a` loses), which is what makes batched evaluation possible.
    /// The two sorted CSR rows stage as the two ascending runs the seal
    /// merges.
    fn collect_deltas_into(&self, v: VertexId, scratch: &mut MoveScratch) {
        scratch.begin_stage();
        let mut self_delta = CntDelta::default();
        if !self.core.meta[v as usize].high {
            // All in-edges of v are placed at v's master and move with it.
            for &u in self.geo.graph.in_neighbors(v) {
                self_delta.in_a -= 1;
                self_delta.in_b += 1;
                if u == v {
                    self_delta.out_a -= 1;
                    self_delta.out_b += 1;
                } else {
                    scratch
                        .push_neighbor(u, CntDelta { out_a: -1, out_b: 1, ..CntDelta::default() });
                }
            }
        }
        // Out-edges (v, w) with high-degree w are placed at v's master and
        // move with it. (A self-loop on a high v is covered here.)
        for &w in self.geo.graph.out_neighbors(v) {
            if !self.core.meta[w as usize].high {
                continue;
            }
            self_delta.out_a -= 1;
            self_delta.out_b += 1;
            if w == v {
                self_delta.in_a -= 1;
                self_delta.in_b += 1;
            } else {
                scratch.push_second(w, CntDelta { in_a: -1, in_b: 1, ..CntDelta::default() });
            }
        }
        scratch.self_delta = self_delta;
        scratch.seal();
    }

    /// Rebuilds the state from scratch and checks the incremental
    /// bookkeeping matches, returning a typed error naming the first
    /// divergence instead of panicking.
    pub fn validate_plan(&self, env: &CloudEnv) -> Result<(), PlanError> {
        let fresh = HybridState::from_masters(
            self.geo,
            env,
            self.core.masters.clone(),
            self.theta,
            self.core.traffic_profile(),
            self.core.num_iterations,
        );
        let m = self.core.num_dcs;
        // Counts compare by value: a row that escaped to u32 lanes and later
        // shrank back is equal to a rebuilt narrow row.
        for v in 0..self.core.num_vertices() as VertexId {
            let (ours, theirs) = (self.core.counts_row(v), fresh.core.counts_row(v));
            for d in 0..m {
                let ((in_o, out_o), (in_t, out_t)) = (ours.pair(d), theirs.pair(d));
                if (in_o, out_o) != (in_t, out_t) {
                    let (array, incremental, fresh) = if in_o != in_t {
                        ("in_cnt", in_o, in_t)
                    } else {
                        ("out_cnt", out_o, out_t)
                    };
                    return Err(PlanError::CountDrift {
                        array,
                        vertex: v,
                        dc: d as DcId,
                        incremental,
                        fresh,
                    });
                }
            }
        }
        for (v, (ours, fresh)) in self.core.meta.iter().zip(&fresh.core.meta).enumerate() {
            if ours.nnz != fresh.nnz {
                return Err(PlanError::MetaDrift {
                    field: "nnz",
                    vertex: v as VertexId,
                    incremental: ours.nnz,
                    fresh: fresh.nnz,
                });
            }
            if ours.master != self.core.masters[v] {
                return Err(PlanError::MetaDrift {
                    field: "master",
                    vertex: v as VertexId,
                    incremental: ours.master as u64,
                    fresh: self.core.masters[v] as u64,
                });
            }
            // A decoded state carries its classes instead of deriving them
            // from θ: they must still be θ's.
            if ours.high != fresh.high {
                return Err(PlanError::MetaDrift {
                    field: "high",
                    vertex: v as VertexId,
                    incremental: !fresh.high as u64,
                    fresh: fresh.high as u64,
                });
            }
        }
        for d in 0..m {
            if self.core.edges_per_dc[d] != fresh.core.edges_per_dc[d] {
                return Err(PlanError::EdgeBalanceDrift {
                    dc: d as DcId,
                    incremental: self.core.edges_per_dc[d],
                    fresh: fresh.core.edges_per_dc[d],
                });
            }
        }
        // Loads and moved bytes are integers: they must equal the
        // rebuild's exactly, and so must the price of the moved bytes.
        let (ours, theirs) = (&self.core, &fresh.core);
        for (stage, ours, theirs) in [
            ("gather.up", ours.gather.up(), theirs.gather.up()),
            ("gather.down", ours.gather.down(), theirs.gather.down()),
            ("apply.up", ours.apply.up(), theirs.apply.up()),
            ("apply.down", ours.apply.down(), theirs.apply.down()),
            ("moved", ours.moved_bytes(), theirs.moved_bytes()),
        ] {
            if let Some(d) = (0..m).find(|&d| ours[d] != theirs[d]) {
                let (dc, incremental, fresh) = (d as DcId, ours[d], theirs[d]);
                return Err(PlanError::LoadDrift { stage, dc, incremental, fresh });
            }
        }
        let (ours, theirs) = (self.core.movement_cost, fresh.core.movement_cost);
        if ours.to_bits() != theirs.to_bits() {
            return Err(PlanError::MovementCostDrift { incremental: ours, fresh: theirs });
        }

        // The all-DC mask must agree with every one-bit mask bit-for-bit on
        // a deterministic sample of vertices.
        let n = self.core.num_vertices();
        let all = u64::MAX >> (64 - m);
        let mut batch = MoveScratch::new();
        let mut single = MoveScratch::new();
        for v in (0..n).step_by((n / 16).max(1)) {
            let v = v as VertexId;
            self.evaluate_moves(env, v, all, true, &mut batch);
            for d in 0..m as DcId {
                let b = batch.objectives()[d as usize];
                let s = self.evaluate_moves(env, v, 1 << d, true, &mut single)[d as usize];
                if b.transfer_time.to_bits() != s.transfer_time.to_bits()
                    || b.movement_cost.to_bits() != s.movement_cost.to_bits()
                    || b.runtime_cost.to_bits() != s.runtime_cost.to_bits()
                {
                    return Err(PlanError::KernelDivergence { vertex: v, dc: d });
                }
            }
        }
        Ok(())
    }

    /// Panicking wrapper over [`Self::validate_plan`] — a test/debug aid.
    pub fn check_consistency(&self, env: &CloudEnv) {
        if let Err(e) = self.validate_plan(env) {
            panic!("plan consistency check failed: {e}");
        }
    }

    /// Checks that the plan touches no dark DC: no master and no mirror on
    /// any DC with `dead[dc] == true`.
    pub fn validate_against_faults(&self, dead: &[bool]) -> Result<(), PlanError> {
        assert_eq!(dead.len(), self.core.num_dcs);
        let dead_mask =
            dead.iter().enumerate().fold(0u64, |m, (d, &x)| if x { m | (1u64 << d) } else { m });
        if dead_mask == 0 {
            return Ok(());
        }
        for v in 0..self.core.num_vertices() as VertexId {
            let master = self.core.master(v);
            if dead[master as usize] {
                return Err(PlanError::MasterOnDeadDc { vertex: v, dc: master });
            }
            let on_dead = self.core.mirror_mask(v) & dead_mask;
            if on_dead != 0 {
                return Err(PlanError::MirrorOnDeadDc {
                    vertex: v,
                    dc: on_dead.trailing_zeros() as DcId,
                });
            }
        }
        Ok(())
    }
}

/// What the moves applied since a score phase changed, at the grain its
/// exported [`LaneDeltas`] read ([`HybridState::apply_move_marked`],
/// [`HybridState::can_reprice`]):
/// - a vertex whose own count row changed, or that moved, can no longer
///   be re-priced (its presence masks are the projection's input);
/// - a neighbor cell is marked only when its count change crosses a test a
///   staged move can make on it, those of a count `c` against 0 and
///   against a loss of at most `reach` (in-edges, edges): the change from
///   `old` to `new` is marked when `min(old, new) <= reach`;
/// - a moved vertex is marked at every cell, since the projection
///   indexes lanes by its master.
///
/// Three bitsets over the vertices, and a cell mask per marked vertex
/// only: a step's marks take a few bits a vertex, not a word.
#[derive(Clone, Debug)]
pub struct MoveMarks {
    reach: [u32; 2],
    /// Bit `v`: `v` moved or its own row changed.
    rows: Vec<u64>,
    /// Bit `x`: `x` has an entry in `cells`.
    hot: Vec<u64>,
    /// Bit `v`: a move of `v` may stage a hot vertex (an out-neighbor of
    /// one, or an in-neighbor of a high-degree one). Clear means no
    /// staged neighbor of `v` is marked.
    near: Vec<u64>,
    /// The DCs whose cell crossed a test (all of them once the vertex
    /// moved).
    cells: FxHashMap<VertexId, u64>,
}

impl MoveMarks {
    /// No marks, over `n` vertices, for exported moves whose staged
    /// neighbors lose at most `reach` counts at one cell
    /// ([`MoveScratch::staged_reach`], maximised over the exports).
    pub fn new(n: usize, reach: [u32; 2]) -> Self {
        let words = n.div_ceil(64);
        let bits = || vec![0; words];
        MoveMarks { reach, rows: bits(), hot: bits(), near: bits(), cells: FxHashMap::default() }
    }

    /// Whether a cell's change from `old` to `new` (`(in, out)` counts)
    /// flips a count test of this reach.
    fn crosses(&self, old: (u32, u32), new: (u32, u32)) -> bool {
        let flips = |o: u32, n: u32, reach: u32| o != n && o.min(n) <= reach;
        flips(old.0, new.0, self.reach[0]) || flips(old.0 + old.1, new.0 + new.1, self.reach[1])
    }

    fn note_row(&mut self, x: VertexId) {
        self.rows[x as usize / 64] |= 1 << (x % 64);
    }

    /// Sets `x`'s hot bit; whether it was clear.
    fn note_hot(&mut self, x: VertexId) -> bool {
        let (word, bit) = (&mut self.hot[x as usize / 64], 1u64 << (x % 64));
        let fresh = *word & bit == 0;
        *word |= bit;
        fresh
    }

    /// Marks `x`'s cell at `dc`; whether `x` was not hot before.
    fn note_cell(&mut self, x: VertexId, dc: usize) -> bool {
        *self.cells.entry(x).or_default() |= 1 << dc;
        self.note_hot(x)
    }

    /// Marks `v` moved; whether it was not hot before.
    fn note_mover(&mut self, v: VertexId) -> bool {
        self.note_row(v);
        self.cells.insert(v, u64::MAX);
        self.note_hot(v)
    }

    fn note_near(&mut self, v: VertexId) {
        self.near[v as usize / 64] |= 1 << (v % 64);
    }

    fn near(&self, v: VertexId) -> bool {
        self.near[v as usize / 64] >> (v % 64) & 1 == 1
    }

    fn row_changed(&self, v: VertexId) -> bool {
        self.rows[v as usize / 64] >> (v % 64) & 1 == 1
    }

    /// `x`'s marked cells, read only when its hot bit is set.
    #[inline]
    fn cells(&self, x: VertexId) -> u64 {
        if self.hot[x as usize / 64] >> (x % 64) & 1 == 0 {
            return 0;
        }
        self.cells[&x]
    }
}

/// Checks a fault report: `dead` must hold exactly `num_dcs` flags
/// ([`PlanError::LengthMismatch`]), not all of them set
/// ([`PlanError::NoLiveDc`]). Returns the first live DC.
pub fn check_fault_report(dead: &[bool], num_dcs: usize) -> Result<DcId, PlanError> {
    if dead.len() != num_dcs {
        return Err(PlanError::LengthMismatch {
            what: "dead-DC flags",
            expected: num_dcs,
            found: dead.len(),
        });
    }
    Ok(dead.iter().position(|&d| !d).ok_or(PlanError::NoLiveDc)? as DcId)
}

/// The fault re-seed rule: every master stranded on a DC flagged in `dead`
/// returns to its vertex's home location (`homes[v]`) if that is alive,
/// else to the first live DC. The trainer's evacuation of a dead DC and
/// the serving layer's both re-seed through this one function, which is
/// what keeps a served plan the one the trainer goes on to train.
///
/// The flags are checked ([`check_fault_report`]) and `homes` must cover
/// `masters` before anything is written, so on `Err` `masters` is
/// untouched. Masters and homes must already name DCs below `num_dcs`, as
/// every placement and `GeoGraph` guarantees.
pub fn reseed_stranded_masters(
    masters: &mut [DcId],
    homes: &[DcId],
    dead: &[bool],
    num_dcs: usize,
) -> Result<(), PlanError> {
    let fallback = check_fault_report(dead, num_dcs)?;
    if homes.len() != masters.len() {
        return Err(PlanError::LengthMismatch {
            what: "home locations",
            expected: masters.len(),
            found: homes.len(),
        });
    }
    for (m, &home) in masters.iter_mut().zip(homes) {
        if dead[*m as usize] {
            *m = if dead[home as usize] { fallback } else { home };
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::Bits;
    use geograph::generators::{rmat, RmatConfig};
    use geograph::locality::LocalityConfig;
    use geosim::regions::ec2_eight_regions;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn setup(seed: u64) -> (GeoGraph, CloudEnv) {
        let g = rmat(&RmatConfig::social(512, 4096), seed);
        let geo = GeoGraph::from_graph(g, &LocalityConfig::paper_default(seed));
        (geo, ec2_eight_regions())
    }

    fn state<'g>(geo: &'g GeoGraph, env: &CloudEnv) -> HybridState<'g> {
        let theta = geograph::degree::suggest_theta(&geo.graph, 0.05);
        let profile = TrafficProfile::uniform(geo.num_vertices(), 8.0);
        HybridState::natural(geo, env, theta, profile, 10.0)
    }

    #[test]
    fn natural_state_is_consistent() {
        let (geo, env) = setup(1);
        state(&geo, &env).check_consistency(&env);
    }

    #[test]
    fn evaluate_move_matches_apply_move() {
        let (geo, env) = setup(2);
        let mut s = state(&geo, &env);
        let mut scratch = MoveScratch::new();
        let mut rng = SmallRng::seed_from_u64(9);
        for _ in 0..200 {
            let v = rng.gen_range(0..geo.num_vertices()) as VertexId;
            let to = rng.gen_range(0..geo.num_dcs) as DcId;
            let predicted = s.evaluate_moves(&env, v, 1 << to, true, &mut scratch)[to as usize];
            s.apply_move_with(&env, v, to, &mut scratch);
            assert_eq!(predicted, s.objective(&env), "v={v} to={to}");
        }
        s.check_consistency(&env);
    }

    #[test]
    fn incremental_stays_consistent_over_many_moves() {
        let (geo, env) = setup(3);
        let mut s = state(&geo, &env);
        let mut scratch = MoveScratch::new();
        let mut rng = SmallRng::seed_from_u64(4);
        for step in 0..500 {
            let v = rng.gen_range(0..geo.num_vertices()) as VertexId;
            let to = rng.gen_range(0..geo.num_dcs) as DcId;
            s.apply_move_with(&env, v, to, &mut scratch);
            if step % 100 == 99 {
                s.check_consistency(&env);
            }
        }
    }

    #[test]
    fn move_and_return_restores_objective() {
        let (geo, env) = setup(5);
        let mut s = state(&geo, &env);
        let mut scratch = MoveScratch::new();
        let before = s.objective(&env);
        let v = 7;
        let home = s.master(v);
        let to = (home + 1) % geo.num_dcs as DcId;
        s.apply_move_with(&env, v, to, &mut scratch);
        s.apply_move_with(&env, v, home, &mut scratch);
        assert_eq!(s.objective(&env), before);
    }

    #[test]
    fn noop_move_is_identity() {
        let (geo, env) = setup(6);
        let mut s = state(&geo, &env);
        let mut scratch = MoveScratch::new();
        let before = s.objective(&env);
        let v = 3;
        let home = s.master(v);
        assert_eq!(
            s.evaluate_moves(&env, v, 1 << home, true, &mut scratch)[home as usize].transfer_time,
            before.transfer_time
        );
        s.apply_move_with(&env, v, home, &mut scratch);
        assert_eq!(s.objective(&env).transfer_time, before.transfer_time);
    }

    #[test]
    fn natural_plan_has_zero_movement_cost() {
        let (geo, env) = setup(7);
        let s = state(&geo, &env);
        assert_eq!(s.objective(&env).movement_cost, 0.0);
    }

    #[test]
    fn moving_master_away_from_home_costs_money() {
        let (geo, env) = setup(8);
        let mut s = state(&geo, &env);
        let mut scratch = MoveScratch::new();
        let v = 11;
        let to = (s.master(v) + 1) % geo.num_dcs as DcId;
        s.apply_move_with(&env, v, to, &mut scratch);
        assert!(s.objective(&env).movement_cost > 0.0);
    }

    #[test]
    fn centralizing_all_masters_removes_runtime_traffic() {
        let (geo, env) = setup(9);
        let mut s = state(&geo, &env);
        let mut scratch = MoveScratch::new();
        for v in 0..geo.num_vertices() as VertexId {
            s.apply_move_with(&env, v, 0, &mut scratch);
        }
        // Everything co-located: no mirrors, no inter-DC traffic.
        let obj = s.objective(&env);
        assert_eq!(obj.transfer_time, 0.0);
        assert_eq!(obj.runtime_cost, 0.0);
        assert!((s.core().replication_factor() - 1.0).abs() < 1e-12);
        s.check_consistency(&env);
    }

    #[test]
    fn batched_matches_sequential_bitwise() {
        let (geo, env) = setup(11);
        let mut s = state(&geo, &env);
        let mut rng = SmallRng::seed_from_u64(12);
        let mut batch = MoveScratch::new();
        let mut single = MoveScratch::new();
        let mut scratch = MoveScratch::new();
        let all = u64::MAX >> (64 - geo.num_dcs);
        for step in 0..40 {
            // Interleave applied moves so the comparison covers evolving,
            // non-natural states too.
            let mv = rng.gen_range(0..geo.num_vertices()) as VertexId;
            s.apply_move_with(&env, mv, rng.gen_range(0..geo.num_dcs) as DcId, &mut scratch);
            let v = rng.gen_range(0..geo.num_vertices()) as VertexId;
            let objs: Vec<_> = s.evaluate_moves(&env, v, all, true, &mut batch).to_vec();
            for (d, b) in objs.iter().enumerate() {
                let sq = s.evaluate_moves(&env, v, 1 << d, true, &mut single)[d];
                assert_eq!(*b, sq, "step {step}: v={v} d={d}");
            }
        }
    }

    #[test]
    fn scratch_reused_across_env_widths_matches_fresh_bitwise() {
        // One shared MoveScratch cycled M=8 → M=4 → M=8: lanes seeded by
        // the wide environment must never leak into objectives computed
        // after the shrink-then-grow round-trip.
        let (geo8, env8) = setup(21);
        let g4 = rmat(&RmatConfig::social(512, 4096), 22);
        let geo4 = GeoGraph::from_graph(g4, &LocalityConfig::uniform(4, 22));
        let env4 = CloudEnv::new(env8.dcs()[..4].to_vec());

        let s8 = state(&geo8, &env8);
        let theta4 = geograph::degree::suggest_theta(&geo4.graph, 0.05);
        let profile4 = TrafficProfile::uniform(geo4.num_vertices(), 8.0);
        let s4 = HybridState::natural(&geo4, &env4, theta4, profile4, 10.0);

        let (all8, all4) = (u64::MAX >> (64 - 8), u64::MAX >> (64 - 4));
        let mut shared = MoveScratch::new();
        let mut rng = SmallRng::seed_from_u64(23);
        for _ in 0..25 {
            let v8 = rng.gen_range(0..geo8.num_vertices()) as VertexId;
            let v4 = rng.gen_range(0..geo4.num_vertices()) as VertexId;
            s8.evaluate_moves(&env8, v8, all8, true, &mut shared);
            s4.evaluate_moves(&env4, v4, all4, true, &mut shared);
            let reused: Vec<Objective> =
                s8.evaluate_moves(&env8, v8, all8, true, &mut shared).to_vec();
            let mut fresh = MoveScratch::new();
            let clean = s8.evaluate_moves(&env8, v8, all8, true, &mut fresh);
            assert_eq!(reused, clean, "v={v8}");
        }
    }

    /// An `m`-DC environment whose links and prices repeat with periods
    /// 5, 3 and 4, so lanes tie on bandwidth as well as on load; with
    /// `slow`, that DC's links are 100× slower, so its lanes decide both
    /// stage maxima.
    fn env_of(m: usize, slow: Option<usize>) -> CloudEnv {
        let mut dcs = if m == 8 {
            ec2_eight_regions().dcs().to_vec()
        } else {
            (0..m)
                .map(|d| {
                    let (up, down) = (0.5 + (d % 5) as f64 * 0.25, 1.0 + (d % 3) as f64 * 0.5);
                    let price = 0.02 + 0.01 * (d % 4) as f64;
                    geosim::Datacenter::from_gb_units(&format!("dc{d}"), up, down, price)
                })
                .collect()
        };
        if let Some(d) = slow {
            dcs[d].uplink_bps /= 100.0;
            dcs[d].downlink_bps /= 100.0;
        }
        CloudEnv::new(dcs)
    }

    /// Evaluates `v`'s moves under `dests` by the sparse kernel, priced and
    /// unpriced, and by the dense oracle, and asserts they agree bit for
    /// bit.
    fn assert_sparse_is_dense(
        s: &HybridState<'_>,
        env: &CloudEnv,
        v: VertexId,
        dests: u64,
        [sparse, dense]: [&mut MoveScratch; 2],
    ) {
        let bits = |o: &Objective| {
            (o.transfer_time.to_bits(), o.movement_cost.to_bits(), o.runtime_cost.to_bits())
        };
        let want = s.evaluate_moves_dense(env, v, dests, dense);
        let got = s.evaluate_moves(env, v, dests, true, sparse).to_vec();
        let time = s.evaluate_moves(env, v, dests, false, sparse);
        let m = env.num_dcs();
        for d in Bits(dests) {
            assert_eq!(bits(&got[d]), bits(&want[d]), "M={m} v={v} d={d} dests={dests:#x}");
            let t = time[d].transfer_time.to_bits();
            assert_eq!(t, want[d].transfer_time.to_bits(), "M={m} v={v} d={d} unpriced");
            let master = d == s.master(v) as usize;
            assert!(master || time[d].total_cost().is_nan(), "M={m}: an unpriced slot priced");
        }
    }

    #[test]
    fn repriced_verdicts_equal_full_evaluation() {
        // Every vertex exports the lane deltas of a move to some other DC;
        // then moves apply one at a time with marks, and after each one
        // every export the marks leave clean must re-price to the full
        // evaluation bit for bit, priced and unpriced, at M = 2, 3, 8 and
        // 64. Twice per M: on a cleaned graph, and on a verbatim multigraph
        // (every edge twice, a third of them thrice, some self-loops) where
        // a neighbor loses two or three counts in one cell, so a reach of
        // `[1, 2]` would leave stale exports clean.
        let bits = |o: &Objective| {
            (o.transfer_time.to_bits(), o.movement_cost.to_bits(), o.runtime_cost.to_bits())
        };
        for (m, seed) in [(2usize, 41u64), (3, 42), (8, 43), (64, 44)] {
            let env = env_of(m, None);
            let n = 120usize;
            let cleaned = rmat(&RmatConfig::social(n, n * 12), seed);
            let edges: Vec<(VertexId, VertexId)> = cleaned.edges().collect();
            let mut repeated = [edges.clone(), edges.clone()].concat();
            repeated.extend(edges.iter().step_by(3));
            repeated.extend((0..n as VertexId).step_by(7).map(|v| (v, v)));
            let multigraph = geograph::Graph::from_edges(n, &repeated);
            for (kind, graph) in [("cleaned", cleaned), ("multigraph", multigraph)] {
                let geo = GeoGraph::from_graph(graph, &LocalityConfig::uniform(m, seed));
                let weights: Vec<f32> = (0..n).map(|v| 1.0 + (v % 5) as f32).collect();
                // 2 B a message at most 5x, so nearly every move's deltas fit
                // `LaneDeltas`' i16 lanes; one that does not is not exported.
                let profile = TrafficProfile::weighted(&weights, 2.0);
                let mut rng = SmallRng::seed_from_u64(seed);
                let masters = (0..n).map(|_| rng.gen_range(0..m) as DcId).collect();
                let state = HybridState::from_masters(&geo, &env, masters, 6, profile, 10.0);
                for priced in [false, true] {
                    let mut s = state.clone();
                    let (mut scratch, mut mover) = (MoveScratch::new(), MoveScratch::new());
                    let (mut clean, mut stale) = (0usize, 0usize);
                    for _ in 0..4 {
                        let mut exports = Vec::new();
                        let mut reach = [0u32; 2];
                        for v in 0..n as VertexId {
                            let b = (s.master(v) as usize + rng.gen_range(1..m)) % m;
                            s.evaluate_moves(&env, v, 1 << b, priced, &mut scratch);
                            let Some(lanes) = s.export_lanes(b as DcId, &scratch) else { continue };
                            let [i, t] = scratch.staged_reach();
                            reach = [reach[0].max(i), reach[1].max(t)];
                            exports.push((v, b as DcId, lanes));
                        }
                        assert!(exports.len() * 2 > n, "{kind} M={m}: few exports fit");
                        let mut marks = MoveMarks::new(n, reach);
                        for _ in 0..6 {
                            let (w, to) = (rng.gen_range(0..n as VertexId), rng.gen_range(0..m));
                            s.apply_move_marked(&env, w, to as DcId, &mut mover, &mut marks);
                            for &(v, b, ref lanes) in &exports {
                                if !s.can_reprice(v, b, lanes, &marks) {
                                    stale += 1;
                                    continue;
                                }
                                clean += 1;
                                let got = s.reprice(&env, v, b, priced, lanes, &mut scratch);
                                let want = s.evaluate_moves(&env, v, 1 << b, priced, &mut scratch)
                                    [b as usize];
                                let what = format!("{kind} M={m} priced={priced} v={v} b={b}");
                                if priced {
                                    assert_eq!(bits(&got), bits(&want), "{what}");
                                } else {
                                    assert_eq!(
                                        got.transfer_time.to_bits(),
                                        want.transfer_time.to_bits(),
                                        "{what}"
                                    );
                                    assert!(
                                        got.total_cost().is_nan(),
                                        "{what}: an unpriced re-price priced"
                                    );
                                }
                            }
                        }
                    }
                    assert!(
                        clean > stale && stale > 0,
                        "{kind} M={m}: {clean} clean, {stale} stale"
                    );
                }
            }
        }
    }

    #[test]
    fn sparse_lanes_equal_the_dense_oracle() {
        // The sparse projection against the dense one, bit for bit, at
        // M = 2, 3, 8 and 64 (where `1 << m` mask arithmetic breaks
        // first): all-DC, random and one-bit masks, priced and unpriced.
        // Two graphs per M: every vertex of a small dense R-MAT graph,
        // whose few lanes each decide a max, and the hubs of a larger one
        // beside a star hub whose in-lane passes u16::MAX (a wide count
        // row). Moves apply in between, so the live ratio cache has to
        // follow the state.
        const STAR: u32 = u16::MAX as u32 + 2;
        for (m, seed) in [(2usize, 31u64), (3, 32), (8, 33), (64, 34)] {
            let env = env_of(m, None);
            // The same loads under a slow lane at either end and mid-way
            // (a state's loads do not depend on the environment).
            let slowed = [0, m / 2, m - 1].map(|d| env_of(m, Some(d)));
            let all = u64::MAX >> (64 - m);
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut scratch = [MoveScratch::new(), MoveScratch::new(), MoveScratch::new()];
            let [sparse, dense, mover] = &mut scratch;

            let small = rmat(&RmatConfig::social(96, 96 * 24), seed);
            let geo = GeoGraph::from_graph(small, &LocalityConfig::uniform(m, seed));
            let weights: Vec<f32> = (0..96).map(|v| 1.0 + (v % 5) as f32).collect();
            let profile = TrafficProfile::weighted(&weights, 8.0);
            let mut s = HybridState::natural(&geo, &env, 12, profile, 10.0);
            for _ in 0..6 {
                for v in 0..96u32 {
                    let one = 1u64 << rng.gen_range(0..m);
                    for dests in [all, rng.gen::<u64>() & all | one, one] {
                        for env in [&env].into_iter().chain(&slowed) {
                            assert_sparse_is_dense(&s, env, v, dests, [sparse, dense]);
                        }
                    }
                }
                for _ in 0..8 {
                    let (w, to) = (rng.gen_range(0..96u32), rng.gen_range(0..m) as DcId);
                    s.apply_move_with(&env, w, to, mover);
                }
            }
            s.check_consistency(&env);

            let n = STAR as usize + 1;
            let mut b = geograph::GraphBuilder::new(n);
            let skew = rmat(&RmatConfig::social(2048, 16 * 2048), seed);
            b.add_edges(skew.edges().map(|(u, w)| (u + 1, w + 1)));
            b.add_edges((1..=STAR).map(|u| (u, 0)));
            let g = b.build();
            // The star's sources share one home, so hub 0's in-edges (it is
            // high-degree) all count in one cell.
            let mut locations =
                geograph::locality::assign_locations(&g, &LocalityConfig::uniform(m, seed));
            locations[2049..].fill((m - 1) as DcId);
            let sizes = (0..n as u64).map(|v| 64 + v % 977).collect();
            let geo = GeoGraph::new(g, locations, sizes, m);
            let weights: Vec<f32> = (0..n).map(|v| 1.0 + (v % 7) as f32).collect();
            let profile = TrafficProfile::weighted(&weights, 8.0);
            let mut s = HybridState::natural(&geo, &env, 24, profile, 10.0);
            assert!(s.core.meta[0].wide && s.core.is_high(0), "M={m}: the star hub is wide");
            let mut hubs: Vec<VertexId> = (1..=2048).collect();
            hubs.sort_by_key(|&v| std::cmp::Reverse(geo.graph.degree(v)));
            for round in 0..8 {
                for v in [0, hubs[round], hubs[8 + round], rng.gen_range(2049..STAR + 1)] {
                    let one = 1u64 << rng.gen_range(0..m);
                    for dests in [all, rng.gen::<u64>() & all | one, one] {
                        assert_sparse_is_dense(&s, &env, v, dests, [sparse, dense]);
                    }
                }
                let (w, to) = (hubs[rng.gen_range(0..64usize)], rng.gen_range(0..m) as DcId);
                s.apply_move_with(&env, w, to, mover);
            }
            s.check_consistency(&env);
        }
    }

    #[test]
    fn row_sequential_build_equals_the_per_edge_placement() {
        // The kernel against the rule fed edge by edge through
        // from_edge_placement: same counts, masks and balance, and loads and
        // movement cost equal to the bit, at θ from all-high to all-low.
        let (geo, env) = setup(27);
        let masters: Vec<DcId> =
            geo.locations.iter().enumerate().map(|(v, &l)| (l + (v % 3) as DcId) % 8).collect();
        for theta in [0, 1, 4, 16, usize::MAX] {
            let profile = TrafficProfile::uniform(geo.num_vertices(), 8.0);
            let built = HybridState::from_masters(
                &geo,
                &env,
                masters.clone(),
                theta,
                profile.clone(),
                10.0,
            );
            let is_high = geograph::degree::classify_high_degree(&geo.graph, theta);
            let edges = geo.graph.edges().map(|(u, v)| {
                (u, v, if is_high[v as usize] { masters[u as usize] } else { masters[v as usize] })
            });
            let per_edge = PlacementState::from_edge_placement(
                &env,
                geo.num_vertices(),
                edges,
                masters.clone(),
                is_high.clone(),
                &geo.locations,
                &geo.data_sizes,
                profile,
                10.0,
            )
            .unwrap();
            let (a, b) = (&built.core, &per_edge);
            assert_eq!(a.count_lanes(), b.count_lanes(), "θ {theta}: counts");
            assert_eq!(a.meta, b.meta, "θ {theta}: meta");
            assert_eq!(a.edges_per_dc, b.edges_per_dc, "θ {theta}: balance");
            assert_eq!((&a.gather, &a.apply), (&b.gather, &b.apply), "θ {theta}: loads");
            assert_eq!(a.moved, b.moved, "θ {theta}: moved bytes");
            assert_eq!(a.movement_cost.to_bits(), b.movement_cost.to_bits());
        }
    }

    #[test]
    fn validate_plan_reports_a_class_that_is_not_thetas() {
        let (geo, env) = setup(28);
        let mut s = state(&geo, &env);
        let v = (0..geo.num_vertices()).find(|&v| !s.core.meta[v].high).unwrap();
        s.core.meta[v].high = true;
        match s.validate_plan(&env) {
            Err(PlanError::MetaDrift { field: "high", .. }) => {}
            other => panic!("expected a high-class drift, got {other:?}"),
        }
    }

    #[test]
    fn validate_plan_accepts_fresh_state() {
        let (geo, env) = setup(20);
        assert_eq!(state(&geo, &env).validate_plan(&env), Ok(()));
    }

    #[test]
    fn validate_plan_reports_count_drift() {
        let (geo, env) = setup(21);
        let mut s = state(&geo, &env);
        // Corrupt one count cell (an even index = an in-count lane);
        // validation must name the drift.
        s.core.counts[10] += 1;
        match s.validate_plan(&env) {
            Err(PlanError::CountDrift { array: "in_cnt", .. }) => {}
            other => panic!("expected in_cnt drift, got {other:?}"),
        }
    }

    #[test]
    fn try_from_masters_rejects_out_of_range_master() {
        let (geo, env) = setup(26);
        let mut masters = geo.locations.clone();
        masters[3] = 42;
        let profile = TrafficProfile::uniform(geo.num_vertices(), 8.0);
        match HybridState::try_from_masters(&geo, &env, masters, 16, profile, 10.0) {
            Err(PlanError::MasterOutOfRange { vertex: 3, dc: 42, num_dcs: 8 }) => {}
            other => panic!("expected master-out-of-range, got {other:?}"),
        }
    }

    #[test]
    fn profile_values_that_are_not_loads_are_typed_errors() {
        // NaN, a negative size and one past u32::MAX load units, at every
        // door a profile enters a state by.
        let (geo, env) = setup(29);
        let n = geo.num_vertices();
        for bad in [f32::NAN, -0.5, 2.0e7] {
            let expect = |what: &str, got: Result<(), PlanError>, vertex: VertexId| match got {
                Err(PlanError::ProfileOutOfRange { vertex: v, bytes })
                    if v == vertex && bytes.to_bits() == bad.to_bits() => {}
                other => panic!("{what} with {bad}: expected ProfileOutOfRange, got {other:?}"),
            };
            let mut profile = TrafficProfile::uniform(n, 8.0);
            profile.apply_bytes[5] = bad;
            let built = HybridState::try_from_masters(
                &geo,
                &env,
                geo.locations.clone(),
                16,
                profile.clone(),
                10.0,
            );
            expect("try_from_masters", built.map(drop), 5);
            let edges = geo.graph.edges().map(|(u, v)| (u, v, geo.locations[v as usize]));
            let placed = PlacementState::from_edge_placement(
                &env,
                n,
                edges,
                geo.locations.clone(),
                vec![true; n],
                &geo.locations,
                &geo.data_sizes,
                profile,
                10.0,
            );
            expect("from_edge_placement", placed.map(drop), 5);

            // A resume whose appended vertex carries the value is refused
            // by the check a caller runs on its borrowed carrier.
            let (core, theta) = state(&geo, &env).into_parts();
            let delta = GraphDelta::from_events(
                &geo.graph,
                &[geograph::dynamic::EdgeEvent {
                    src: n as VertexId,
                    dst: 0,
                    timestamp_ms: 0,
                    kind: geograph::dynamic::EventKind::Insert,
                }],
            );
            let grown = GeoGraph::new(
                geo.graph.apply_delta(&delta),
                [&geo.locations[..], &[0]].concat(),
                [&geo.data_sizes[..], &[64]].concat(),
                geo.num_dcs,
            );
            let mut grown_profile = TrafficProfile::uniform(n + 1, 8.0);
            grown_profile.gather_bytes[n] = bad;
            let check = HybridState::check_resume(&core, &grown, &delta, &grown_profile);
            expect("check_resume", check, n as VertexId);
            let resumed =
                HybridState::resume_from_parts(core, theta, &grown, &env, &delta, &grown_profile);
            expect("resume_from_parts", resumed.map(drop), n as VertexId);
        }
    }

    #[test]
    fn validate_against_faults_detects_resident_master() {
        let (geo, env) = setup(25);
        let s = state(&geo, &env);
        let dc = s.master(0);
        let mut dead = vec![false; 8];
        dead[dc as usize] = true;
        match s.validate_against_faults(&dead) {
            Err(PlanError::MasterOnDeadDc { .. }) => {}
            other => panic!("expected master-on-dead-DC, got {other:?}"),
        }
    }

    mod delta {
        use super::*;
        use crate::state::VertexMeta;
        use geograph::dynamic::{EdgeEvent, EventKind};
        use geograph::{Graph, GraphBuilder, GraphDelta};

        /// Degree-independent per-vertex data sizes: windows must not
        /// change an existing vertex's `d_v`, so sizes are keyed on id.
        fn sizes(n: usize) -> Vec<u64> {
            (0..n as u64).map(|v| 64 + 8 * v).collect()
        }

        fn locs(n: usize, m: usize) -> Vec<DcId> {
            (0..n).map(|v| ((v * 7 + 3) % m) as DcId).collect()
        }

        fn geo_at(g: Graph, m: usize) -> GeoGraph {
            let n = g.num_vertices();
            GeoGraph::new(g, locs(n, m), sizes(n), m)
        }

        /// Masters that differ from natural for every 5th vertex, so the
        /// carried state has nonzero movement cost and real mirrors.
        fn scrambled_masters(geo: &GeoGraph) -> Vec<DcId> {
            geo.locations
                .iter()
                .enumerate()
                .map(|(v, &l)| if v % 5 == 0 { (l + 1) % geo.num_dcs as DcId } else { l })
                .collect()
        }

        fn ev(src: u32, dst: u32, ts: u64, kind: EventKind) -> EdgeEvent {
            EdgeEvent { src, dst, timestamp_ms: ts, kind }
        }

        /// Asserts the state of two plans over the same graph is identical,
        /// and that the incremental one passes the full rebuild cross-check
        /// (loads, moved bytes and their price exactly, kernel bitwise).
        fn assert_state_matches_fresh(env: &CloudEnv, inc: &HybridState<'_>) {
            let fresh = HybridState::from_masters(
                inc.geo,
                env,
                inc.core.masters.clone(),
                inc.theta,
                inc.core.traffic_profile(),
                inc.core.num_iterations,
            );
            assert_eq!(inc.core.count_lanes(), fresh.core.count_lanes(), "count rows drifted");
            // A row that escaped and shrank back stays wide; the rebuild's
            // is narrow. Storage width is the one field allowed to differ.
            let narrow = |s: &HybridState<'_>| {
                s.core.meta.iter().map(|m| VertexMeta { wide: false, ..*m }).collect::<Vec<_>>()
            };
            assert_eq!(narrow(inc), narrow(&fresh), "packed meta drifted");
            assert_eq!(inc.core.edges_per_dc, fresh.core.edges_per_dc, "edge balance drifted");
            assert_eq!(inc.validate_plan(env), Ok(()));
        }

        #[test]
        fn apply_delta_matches_rebuild_with_flips_and_deletes() {
            let env = ec2_eight_regions();
            let m = env.num_dcs();
            let theta = 5usize;
            let g0 = geograph::generators::erdos_renyi(200, 800, 31);

            // Engineer both flip directions: push one vertex across θ from
            // below, and drop one high vertex below θ by deleting in-edges.
            let up = (0..200u32)
                .find(|&v| g0.in_degree(v) == theta - 2)
                .expect("seed yields a vertex 2 below theta");
            let down = (0..200u32)
                .find(|&v| v != up && g0.in_degree(v) == theta)
                .expect("seed yields a vertex exactly at theta");
            let mut events = vec![
                // Three new in-edges for `up`, two from brand-new vertices.
                ev(200, up, 0, EventKind::Insert),
                ev(201, up, 1, EventKind::Insert),
                ev((up + 1) % 200, up, 2, EventKind::Insert),
                // New vertex with no surviving edge (arrival still counts).
                ev(205, 0, 3, EventKind::Insert),
                ev(205, 0, 4, EventKind::Delete),
            ];
            let dsrc = g0.in_neighbors(down)[0];
            events.push(ev(dsrc, down, 5, EventKind::Delete));
            // A few more arbitrary deletes of existing edges.
            for (i, (u, v)) in g0.edges().step_by(97).take(5).enumerate() {
                events.push(ev(u, v, 6 + i as u64, EventKind::Delete));
            }

            let delta = GraphDelta::from_events(&g0, &events);
            assert!(!delta.deleted().is_empty() && !delta.inserted().is_empty());

            let geo0 = geo_at(g0.clone(), m);
            let profile0 = TrafficProfile::uniform(200, 8.0);
            let s0 = HybridState::from_masters(
                &geo0,
                &env,
                scrambled_masters(&geo0),
                theta,
                profile0,
                10.0,
            );
            let masters_before = s0.core.masters.clone();
            let movement_before = s0.core.movement_cost;

            let g1 = g0.apply_delta(&delta);
            let geo1 = geo_at(g1, m);
            let profile1 = TrafficProfile::uniform(geo1.num_vertices(), 8.0);
            let (core, th) = s0.into_parts();
            let (s1, stats) =
                HybridState::resume_from_parts(core, th, &geo1, &env, &delta, &profile1).unwrap();

            assert!(stats.class_flips >= 2, "expected both flip directions, got {stats:?}");
            assert_eq!(stats.new_vertices, geo1.num_vertices() - 200);
            // Existing masters are carried, new ones are natural.
            assert_eq!(&s1.core.masters[..200], &masters_before[..]);
            assert_eq!(&s1.core.masters[200..], &geo1.locations[200..]);
            // Nobody moved => the Eq 4 cost is untouched (bitwise).
            assert_eq!(s1.core.movement_cost.to_bits(), movement_before.to_bits());
            assert_state_matches_fresh(&env, &s1);
        }

        #[test]
        fn empty_delta_is_bitwise_identity() {
            let env = ec2_eight_regions();
            let g0 = geograph::generators::erdos_renyi(150, 600, 7);
            let delta = GraphDelta::from_events(&g0, &[]);
            let geo0 = geo_at(g0.clone(), env.num_dcs());
            let geo1 = geo_at(g0, env.num_dcs());
            let profile = TrafficProfile::uniform(150, 8.0);
            let s0 = HybridState::from_masters(
                &geo0,
                &env,
                scrambled_masters(&geo0),
                4,
                profile.clone(),
                10.0,
            );
            assert!(geo1.graph == geo0.graph.apply_delta(&delta), "not the delta successor");
            let before = s0.objective(&env);
            let counts_before = s0.core.count_lanes();
            let (core, th) = s0.into_parts();
            let (s1, stats) =
                HybridState::resume_from_parts(core, th, &geo1, &env, &delta, &profile).unwrap();
            assert_eq!(stats, crate::DeltaApplyStats::default());
            assert_eq!(stats.work_items(), 0);
            assert_eq!(s1.core.count_lanes(), counts_before);
            assert_eq!(s1.objective(&env), before);
        }

        #[test]
        fn chained_windows_match_rebuild() {
            let env = ec2_eight_regions();
            let m = env.num_dcs();
            let theta = 4usize;
            let mut g = geograph::generators::erdos_renyi(120, 500, 11);
            let geo = geo_at(g.clone(), m);
            let mut parts = {
                let s = HybridState::from_masters(
                    &geo,
                    &env,
                    scrambled_masters(&geo),
                    theta,
                    TrafficProfile::uniform(120, 8.0),
                    10.0,
                );
                s.into_parts()
            };
            let mut rng = SmallRng::seed_from_u64(13);
            for w in 0..4u64 {
                let n = g.num_vertices() as u32;
                let mut events = Vec::new();
                for i in 0..20 {
                    let grow = rng.gen_bool(0.2);
                    let src = if grow { n + rng.gen_range(0..4u32) } else { rng.gen_range(0..n) };
                    events.push(ev(src, rng.gen_range(0..n), 100 * w + i, EventKind::Insert));
                }
                let existing: Vec<_> = g.edges().step_by(37).take(6).collect();
                for (i, (u, v)) in existing.into_iter().enumerate() {
                    events.push(ev(u, v, 100 * w + 50 + i as u64, EventKind::Delete));
                }
                let delta = GraphDelta::from_events(&g, &events);
                g.apply_delta_in_place(&delta);
                let geo_w = geo_at(g.clone(), m);
                let profile_w = TrafficProfile::uniform(geo_w.num_vertices(), 8.0);
                let (core, th) = parts;
                let (s, _) =
                    HybridState::resume_from_parts(core, th, &geo_w, &env, &delta, &profile_w)
                        .unwrap();
                assert_state_matches_fresh(&env, &s);
                parts = s.into_parts();
            }
        }

        #[test]
        fn delta_work_is_proportional_to_the_batch() {
            let env = ec2_eight_regions();
            let m = env.num_dcs();
            let g0 = geograph::generators::erdos_renyi(2000, 8000, 5);
            let geo0 = geo_at(g0.clone(), m);
            let s0 = HybridState::from_masters(
                &geo0,
                &env,
                scrambled_masters(&geo0),
                6,
                TrafficProfile::uniform(2000, 8.0),
                10.0,
            );
            let (u0, v0) = g0.edges().next().unwrap();
            let events = vec![
                ev(2000, 17, 0, EventKind::Insert),
                ev(900, 901, 1, EventKind::Insert),
                ev(u0, v0, 2, EventKind::Delete),
            ];
            let delta = GraphDelta::from_events(&g0, &events);
            let g1 = g0.apply_delta(&delta);
            let geo1 = geo_at(g1, m);
            let profile1 = TrafficProfile::uniform(geo1.num_vertices(), 8.0);
            let (core, th) = s0.into_parts();
            let (_, stats) =
                HybridState::resume_from_parts(core, th, &geo1, &env, &delta, &profile1).unwrap();
            // 3 edge ops + 1 new vertex + possible class-flip repairs on
            // their endpoints: two orders of magnitude below n = 2000.
            assert!(stats.work_items() < 64, "delta work should track the batch, got {stats:?}");
        }

        #[test]
        fn dimension_mismatches_are_typed_errors() {
            let env = ec2_eight_regions();
            let m = env.num_dcs();
            let g_small = geograph::generators::erdos_renyi(40, 120, 3);
            let g_big = geograph::generators::erdos_renyi(60, 200, 3);
            let delta = GraphDelta::from_events(&g_small, &[]);
            let geo_small = geo_at(g_small, m);
            let geo_big = geo_at(g_big, m);
            let profile_small = TrafficProfile::uniform(40, 8.0);
            let profile_big = TrafficProfile::uniform(60, 8.0);

            // State over 60 vertices, delta against a 40-vertex base.
            let (core, th) = HybridState::from_masters(
                &geo_big,
                &env,
                geo_big.locations.clone(),
                4,
                profile_big.clone(),
                10.0,
            )
            .into_parts();
            match HybridState::resume_from_parts(core, th, &geo_small, &env, &delta, &profile_small)
            {
                Err(PlanError::DeltaMismatch {
                    what: "old vertex count",
                    expected: 40,
                    found: 60,
                }) => {}
                other => panic!("expected old-vertex-count mismatch, got {other:?}"),
            }

            // Right base, wrong successor graph.
            let (core, th) = HybridState::from_masters(
                &geo_small,
                &env,
                geo_small.locations.clone(),
                4,
                profile_small.clone(),
                10.0,
            )
            .into_parts();
            match HybridState::resume_from_parts(core, th, &geo_big, &env, &delta, &profile_big) {
                Err(PlanError::DeltaMismatch {
                    what: "new vertex count",
                    expected: 40,
                    found: 60,
                }) => {}
                other => panic!("expected new-vertex-count mismatch, got {other:?}"),
            }

            // Right graphs, short profile.
            let (core, th) = HybridState::from_masters(
                &geo_small,
                &env,
                geo_small.locations.clone(),
                4,
                profile_small.clone(),
                10.0,
            )
            .into_parts();
            match HybridState::resume_from_parts(
                core,
                th,
                &geo_small,
                &env,
                &delta,
                &TrafficProfile::uniform(10, 8.0),
            ) {
                Err(PlanError::DeltaMismatch {
                    what: "profile length",
                    expected: 40,
                    found: 10,
                }) => {}
                other => panic!("expected profile-length mismatch, got {other:?}"),
            }
        }

        #[test]
        fn training_moves_compose_with_window_deltas() {
            // Interleave RL-style master moves with window deltas and make
            // sure the incremental bookkeeping survives the combination.
            let env = ec2_eight_regions();
            let m = env.num_dcs();
            let theta = 4usize;
            let mut g = geograph::generators::erdos_renyi(100, 400, 23);
            let geo = geo_at(g.clone(), m);
            let s = HybridState::from_masters(
                &geo,
                &env,
                geo.locations.clone(),
                theta,
                TrafficProfile::uniform(100, 8.0),
                10.0,
            );
            let mut parts = s.into_parts();
            let mut rng = SmallRng::seed_from_u64(29);
            let mut scratch = MoveScratch::new();
            for w in 0..3u64 {
                let n = g.num_vertices() as u32;
                let events: Vec<_> = (0..15)
                    .map(|i| {
                        let src = if rng.gen_bool(0.25) {
                            n + rng.gen_range(0..3u32)
                        } else {
                            rng.gen_range(0..n)
                        };
                        ev(src, rng.gen_range(0..n), 10 * w + i, EventKind::Insert)
                    })
                    .collect();
                let delta = GraphDelta::from_events(&g, &events);
                g.apply_delta_in_place(&delta);
                let geo_w = geo_at(g.clone(), m);
                let profile_w = TrafficProfile::uniform(geo_w.num_vertices(), 8.0);
                let (core, th) = parts;
                let (mut s, _) =
                    HybridState::resume_from_parts(core, th, &geo_w, &env, &delta, &profile_w)
                        .unwrap();
                for _ in 0..30 {
                    let v = rng.gen_range(0..geo_w.num_vertices()) as VertexId;
                    let to = rng.gen_range(0..m) as DcId;
                    s.apply_move_with(&env, v, to, &mut scratch);
                }
                s.check_consistency(&env);
                parts = s.into_parts();
            }
        }

        #[test]
        fn rows_past_u16_escape_to_u32_lanes() {
            // A hub whose in-lane sits at exactly u16::MAX, every vertex
            // low-degree so all its in-edges count at its master; a delta
            // pushes the lane past u16::MAX, moves carry the wide row
            // across DCs, and deletes take it back below.
            const NARROW: u32 = u16::MAX as u32;
            let env = ec2_eight_regions();
            let m = env.num_dcs();
            let n = NARROW as usize + 4;
            let mut b = GraphBuilder::new(n);
            b.add_edges((1..=NARROW).map(|u| (u, 0)));
            b.add_edges([(0, 1), (NARROW + 3, 1)]);
            let g0 = b.build();
            let geo0 = geo_at(g0.clone(), m);
            let profile = TrafficProfile::uniform(n, 8.0);
            let s0 = HybridState::natural(&geo0, &env, usize::MAX, profile.clone(), 10.0);
            let home = s0.master(0);
            assert_eq!(s0.core.in_count(0, home), NARROW);
            assert!(!s0.core.meta[0].wide);

            let grow =
                [ev(NARROW + 1, 0, 0, EventKind::Insert), ev(NARROW + 2, 0, 1, EventKind::Insert)];
            let delta = GraphDelta::from_events(&g0, &grow);
            let g1 = g0.apply_delta(&delta);
            let geo1 = geo_at(g1.clone(), m);
            let (core, th) = s0.into_parts();
            let (mut s1, _) =
                HybridState::resume_from_parts(core, th, &geo1, &env, &delta, &profile).unwrap();
            assert!(s1.core.meta[0].wide, "the hub's row escaped");
            assert_eq!(s1.core.in_count(0, home), NARROW + 2);
            assert_eq!(s1.core.out_count(0, geo1.locations[1]), 1);
            assert_state_matches_fresh(&env, &s1);

            let away = (home + 1) % m as DcId;
            let mut scratch = MoveScratch::new();
            s1.apply_move_with(&env, 0, away, &mut scratch);
            assert_eq!((s1.core.in_count(0, home), s1.core.in_count(0, away)), (0, NARROW + 2));
            s1.apply_move_with(&env, 1, away, &mut scratch);
            s1.apply_move_with(&env, NARROW + 3, home, &mut scratch);
            assert_state_matches_fresh(&env, &s1);

            let shrink: Vec<_> =
                (1..=4).map(|u| ev(u, 0, 10 + u as u64, EventKind::Delete)).collect();
            let delta = GraphDelta::from_events(&g1, &shrink);
            let geo2 = geo_at(g1.apply_delta(&delta), m);
            let (core, th) = s1.into_parts();
            let (s2, _) =
                HybridState::resume_from_parts(core, th, &geo2, &env, &delta, &profile).unwrap();
            assert!(s2.core.meta[0].wide, "an escaped row stays wide");
            assert_eq!(s2.core.in_count(0, away), NARROW - 2);
            assert_state_matches_fresh(&env, &s2);
            let mut bytes = Vec::new();
            crate::snapshot::encode_placement(&s2.core, &mut bytes).unwrap();
            let decoded = crate::snapshot::placement_from_bytes(&bytes, &geo2).unwrap();
            assert!(!decoded.meta[0].wide, "a rebuilt row is as narrow as its counts allow");
            assert_eq!(decoded.count_lanes(), s2.core.count_lanes());
        }
    }

    #[test]
    fn hybrid_beats_all_high_on_replication() {
        // The Fig 2 claim: differentiated placement lowers λ versus treating
        // everything as high-degree (vertex-cut-like hashing).
        let (geo, env) = setup(10);
        let profile = TrafficProfile::uniform(geo.num_vertices(), 8.0);
        let theta = geograph::degree::suggest_theta(&geo.graph, 0.05);
        let hybrid = HybridState::from_masters(
            &geo,
            &env,
            geo.locations.clone(),
            theta,
            profile.clone(),
            10.0,
        );
        let all_high =
            HybridState::from_masters(&geo, &env, geo.locations.clone(), 1, profile, 10.0);
        assert!(
            hybrid.core().replication_factor() <= all_high.core().replication_factor(),
            "hybrid λ {} vs all-high λ {}",
            hybrid.core().replication_factor(),
            all_high.core().replication_factor()
        );
    }
}
