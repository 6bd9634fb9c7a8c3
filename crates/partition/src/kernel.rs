//! One-sweep batched move-evaluation kernel.
//!
//! Evaluating "move vertex `v` to DC `b`" is the innermost operation of
//! every partitioner in this workspace: the RL trainer scores all `M`
//! destinations for every sampled agent each iteration, and the greedy
//! baselines scan all `M` DCs per vertex. The naive form repeats an
//! `O(deg(v))` neighborhood sweep (plus a hash-map allocation) once per
//! destination, `M` times per vertex.
//!
//! The key observation: the count deltas a move causes are
//! **destination-independent** — moving `v` from its master `a` to *any*
//! `b ≠ a` removes the same `k` edges from `a` and adds them at `b`. So one
//! sweep suffices for all `M` candidates:
//!
//! 1. **Stage** (`O(deg v)`, model-specific): the owning model records
//!    `v`'s own count delta and one `CntDelta` per affected neighbor into
//!    a reusable [`MoveScratch`] arena — a flat `Vec`, sorted and
//!    duplicate-merged in place, replacing the per-call `FxHashMap`.
//! 2. **Mid** (`O(deg v + M)`): copy the live per-DC stage loads once,
//!    subtract `v`'s whole contribution and every neighbor's *source-side*
//!    (DC `a`) threshold transition. This intermediate is shared by all
//!    destinations.
//! 3. **Destination deltas** (`O(deg v)` defaults + sparse corrections):
//!    destination-side deltas are non-negative and candidate-independent,
//!    so an *empty* count cell's transition is a per-neighbor constant —
//!    aggregated by neighbor master into two `O(M)` default rows. The
//!    correction arenas only receive cells where a neighbor already holds
//!    counts, found by walking the occupancy bitmask in the neighbor's
//!    packed `VertexMeta` record — the common master-only neighbor costs
//!    one u64 test, no row read.
//! 4. **Project** (`O(M)` per destination): `row = mid + correction_row +
//!    defaults` (neighbors mastered at `b` exempt from row `b`), re-add
//!    `v` with master `b`, evaluate Eq 1–5.
//!
//! `PlacementState::evaluate_moves` is the one implementation: it takes
//! the destinations as a bit mask and walks only the flagged corrections
//! and rows. Its `f64` lanes hold whole load units, exact in any order, so
//! a slot is the objective the state reports after that move, and a
//! one-bit mask (a batched migration proposal, §V-A) equals that slot of
//! the all-DC sweep (scoring, Eq 10) **bit-for-bit** (enforced by
//! `HybridState::check_consistency` and the property suite).

use geosim::transfer::Units;
use geosim::CloudEnv;

use crate::state::{Objective, PlacementState};
use crate::{DcId, VertexId};

/// Count deltas a move applies to one vertex's rows at the move's source
/// DC (`*_a`) and destination DC (`*_b`). Destination-independent: the
/// same delta holds for every candidate destination.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct CntDelta {
    pub in_a: i64,
    pub in_b: i64,
    pub out_a: i64,
    pub out_b: i64,
}

impl CntDelta {
    #[inline]
    fn merge(&mut self, o: CntDelta) {
        self.in_a += o.in_a;
        self.in_b += o.in_b;
        self.out_a += o.out_a;
        self.out_b += o.out_b;
    }
}

/// Reusable arena for batched move evaluation. Create once per worker
/// thread and pass to every evaluation call; all buffers are retained
/// between calls so the steady state allocates nothing.
#[derive(Clone, Debug, Default)]
pub struct MoveScratch {
    m: usize,
    pub(crate) self_delta: CntDelta,
    /// Per-neighbor deltas; sorted by vertex id and duplicate-merged once
    /// [`seal`](Self::seal) runs.
    pub(crate) neighbors: Vec<(VertexId, CntDelta)>,
    sealed: bool,
    // Live load units minus v minus neighbor source-side transitions (len M).
    mid_gu: Vec<f64>,
    mid_gd: Vec<f64>,
    mid_au: Vec<f64>,
    mid_ad: Vec<f64>,
    // Neighbor destination-side corrections. A correction for destination
    // `b` lands in `b`'s own gather-upload and apply-download lanes (len M,
    // indexed by `b`) and in the neighbor master's lanes (destination-major
    // M×M). Invariant between calls: all-zero outside the destinations
    // flagged in `dest_dirty` (established by `ensure_m`, restored at the
    // top of the next `evaluate_moves`), so clean rows are never zeroed or
    // re-read.
    diag_gu: Vec<f64>,
    dest_gd: Vec<f64>,
    dest_au: Vec<f64>,
    diag_ad: Vec<f64>,
    // Bit `b` set iff destination `b` may hold nonzero corrections from the
    // most recent `evaluate_moves`.
    dest_dirty: u64,
    // Default (empty-cell) destination-side transition mass, aggregated by
    // neighbor master DC (len M). See `evaluate_moves`.
    def_g: Vec<f64>,
    def_a: Vec<f64>,
    // Projection workspace (len M).
    row_gu: Vec<f64>,
    row_gd: Vec<f64>,
    row_au: Vec<f64>,
    row_ad: Vec<f64>,
    // The state's Eq 4 moved bytes, v's home entry re-priced (len M).
    moved: Vec<u64>,
    objectives: Vec<Objective>,
}

impl MoveScratch {
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears the staged deltas for a new move. Models call this before
    /// re-staging; load buffers are reused as-is.
    pub(crate) fn begin_stage(&mut self) {
        self.self_delta = CntDelta::default();
        self.neighbors.clear();
        self.sealed = false;
    }

    /// Stages one (possibly repeated) neighbor delta.
    #[inline]
    pub(crate) fn push_neighbor(&mut self, x: VertexId, delta: CntDelta) {
        debug_assert!(!self.sealed);
        self.neighbors.push((x, delta));
    }

    /// Sorts the staged neighbor deltas by vertex id and merges duplicates
    /// in place. Merging is required for correctness: threshold transitions
    /// are non-linear in the delta, so a neighbor touched by several edges
    /// must be projected once with its summed delta.
    pub(crate) fn seal(&mut self) {
        if self.sealed {
            return;
        }
        self.sealed = true;
        self.neighbors.sort_unstable_by_key(|&(x, _)| x);
        let mut w = 0usize;
        for i in 0..self.neighbors.len() {
            if w > 0 && self.neighbors[w - 1].0 == self.neighbors[i].0 {
                let d = self.neighbors[i].1;
                self.neighbors[w - 1].1.merge(d);
            } else {
                self.neighbors.swap(w, i);
                w += 1;
            }
        }
        self.neighbors.truncate(w);
    }

    /// Resizes all projection buffers for `m` DCs (no-op when unchanged).
    fn ensure_m(&mut self, m: usize) {
        if self.m == m {
            return;
        }
        self.m = m;
        let zero_obj = Objective { transfer_time: 0.0, movement_cost: 0.0, runtime_cost: 0.0 };
        for buf in [
            &mut self.mid_gu,
            &mut self.mid_gd,
            &mut self.mid_au,
            &mut self.mid_ad,
            &mut self.row_gu,
            &mut self.row_gd,
            &mut self.row_au,
            &mut self.row_ad,
            &mut self.def_g,
            &mut self.def_a,
        ] {
            buf.resize(m, 0.0);
        }
        for (buf, len) in [
            (&mut self.diag_gu, m),
            (&mut self.dest_gd, m * m),
            (&mut self.dest_au, m * m),
            (&mut self.diag_ad, m),
        ] {
            buf.resize(len, 0.0);
            // The row stride changed, so the dirty-row bookkeeping no
            // longer maps; re-establish the all-zero invariant wholesale.
            buf.fill(0.0);
        }
        self.dest_dirty = 0;
        self.moved.resize(m, 0);
        self.objectives.resize(m, zero_obj);
    }

    /// The per-destination objectives of the last
    /// [`PlacementState::evaluate_moves`] call (index = destination DC;
    /// only the slots that call flagged are current).
    pub(crate) fn objectives(&self) -> &[Objective] {
        &self.objectives[..self.m]
    }

    /// Capacity snapshot of the arena's growable buffers. A long-lived
    /// scratch (e.g. one of the arenas a trainer session carries per
    /// thread) reaches a steady state after its first pass over the workload: the snapshot
    /// lets tests and telemetry assert that later passes cause no regrowth
    /// — i.e. the hot loop really is allocation-free.
    pub fn stats(&self) -> ScratchStats {
        ScratchStats {
            width: self.m,
            neighbor_capacity: self.neighbors.capacity(),
            dest_cells: self.dest_gd.len(),
        }
    }
}

/// Capacity snapshot of a [`MoveScratch`] (see [`MoveScratch::stats`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScratchStats {
    /// DC count the projection buffers are sized for (0 before first use).
    pub width: usize,
    /// Allocated capacity of the staged-neighbor arena — grows to the
    /// largest neighborhood evaluated so far, then stays put.
    pub neighbor_capacity: usize,
    /// Allocated cells of each destination-major M×M correction arena.
    pub dest_cells: usize,
}

/// Mirror-threshold transitions of one `(vertex, DC)` count cell whose
/// in/out counts change by `(d_in, d_out)`.
///
/// Returns `(gather, apply)` steps in `{-1.0, 0.0, +1.0}`: whether the
/// cell's aggregated gather message (in-edges present, high-degree only)
/// and its mirror's apply message (any edge present) appear (`+1`) or
/// disappear (`-1`). Callers must skip the vertex's master DC.
#[inline]
pub fn count_transitions(
    high: bool,
    in_old: i64,
    out_old: i64,
    d_in: i64,
    d_out: i64,
) -> (f64, f64) {
    let in_new = in_old + d_in;
    let tot_old = in_old + out_old;
    let tot_new = in_new + out_old + d_out;
    debug_assert!(in_new >= 0 && tot_new >= 0);
    let gather = if high { step(in_old > 0, in_new > 0) } else { 0.0 };
    let apply = step(tot_old > 0, tot_new > 0);
    (gather, apply)
}

#[inline]
fn step(old: bool, new: bool) -> f64 {
    match (old, new) {
        (true, false) => -1.0,
        (false, true) => 1.0,
        _ => 0.0,
    }
}

/// [`count_transitions`] of an **empty** `(0, 0)` count cell under a
/// destination-side delta. Destination-side deltas are non-negative (the
/// destination only gains edges, for *every* candidate DC alike), so this
/// is a per-neighbor constant: most neighbors have counts in only one or
/// two DCs, and every other destination row sees exactly this value.
#[inline]
fn default_transitions(high: bool, d_in: i64, d_out: i64) -> (f64, f64) {
    debug_assert!(d_in >= 0 && d_out >= 0);
    let gather = if high && d_in > 0 { 1.0 } else { 0.0 };
    let apply = if d_in + d_out > 0 { 1.0 } else { 0.0 };
    (gather, apply)
}

impl PlacementState {
    /// Evaluates moving `v`'s master to every DC flagged in `dests` (bit
    /// `b` ⇔ DC `b`) in one neighborhood sweep. `scratch` must hold the
    /// staged (sealed) count deltas of the move; the result slice lives in
    /// the scratch, indexed by destination, and only the slots of `dests`
    /// are written (`objectives[master(v)]`, if flagged, is the unchanged
    /// current objective). `natural` and `size` are `v`'s home DC and data
    /// bytes: Eq 4 is priced twice, for `v` at home and away from it.
    ///
    /// Cost: `O(deg(v) + M)` sweep + `O(deg(v))` count-row scans with
    /// sparse corrections + `O(M)` tiny-constant projection per flagged
    /// destination. Each slot's value does not depend on which other
    /// destinations are flagged: a one-bit mask is the single-destination
    /// evaluation, the slot of the all-DC sweep.
    pub(crate) fn evaluate_moves<'s>(
        &self,
        env: &CloudEnv,
        v: VertexId,
        dests: u64,
        natural: DcId,
        size: u64,
        scratch: &'s mut MoveScratch,
    ) -> &'s [Objective] {
        debug_assert_eq!(env.num_dcs(), self.num_dcs);
        let m = self.num_dcs;
        scratch.seal();
        scratch.ensure_m(m);
        let a = self.masters[v as usize] as usize;
        self.build_mid(v, a, scratch);

        // Moving to `a` changes nothing, so no destination-side correction
        // lands in its row.
        let live = dests & !(1u64 << a);
        if live.is_power_of_two() {
            self.build_dest::<true>(live, scratch);
        } else {
            self.build_dest::<false>(live, scratch);
        }

        let sd = scratch.self_delta;
        let MoveScratch {
            ref mid_gu,
            ref mid_gd,
            ref mid_au,
            ref mid_ad,
            ref diag_gu,
            ref dest_gd,
            ref dest_au,
            ref diag_ad,
            dest_dirty,
            ref mut row_gu,
            ref mut row_gd,
            ref mut row_au,
            ref mut row_ad,
            ref def_g,
            ref def_a,
            ref mut moved,
            ref mut objectives,
            ..
        } = *scratch;
        let mut tot_g = 0.0;
        let mut tot_a = 0.0;
        for d in 0..m {
            tot_g += def_g[d];
            tot_a += def_a[d];
        }

        // Eq 4 depends on the destination only through "home or not": price
        // both, with v's bytes taken out of its home entry and put back.
        let home = natural as usize;
        moved[..m].copy_from_slice(self.moved_bytes());
        moved[home] -= if a != home { size } else { 0 };
        let cost_home = geosim::cost::price(env, &moved[..m]);
        moved[home] += size;
        let cost_away = geosim::cost::price(env, &moved[..m]);

        // Project every flagged destination, ascending: row = mid +
        // correction row + defaults (neighbors mastered at `b` are exempt
        // from row `b`), then re-add v mastered at b (its counts at the old
        // master a adjusted).
        let mut todo = dests;
        while todo != 0 {
            let b = todo.trailing_zeros() as usize;
            todo &= todo - 1;
            if b == a {
                objectives[b] = self.objective(env);
                continue;
            }
            if dest_dirty & (1u64 << b) != 0 {
                let r = b * m;
                for d in 0..m {
                    row_gu[d] = mid_gu[d];
                    row_gd[d] = mid_gd[d] + dest_gd[r + d];
                    row_au[d] = mid_au[d] + dest_au[r + d];
                    row_ad[d] = mid_ad[d];
                }
                row_gu[b] += diag_gu[b];
                row_ad[b] += diag_ad[b];
            } else {
                // A clean row's corrections are all zero. Lane loops, not
                // `copy_from_slice`: four `memcpy` calls a destination read
                // ~12 % slower on a hub vertex's sweep at M = 8.
                for d in 0..m {
                    (row_gu[d], row_gd[d]) = (mid_gu[d], mid_gd[d]);
                    (row_au[d], row_ad[d]) = (mid_au[d], mid_ad[d]);
                }
            }
            row_gu[b] += tot_g - def_g[b];
            row_ad[b] += tot_a - def_a[b];
            for d in 0..b {
                row_gd[d] += def_g[d];
                row_au[d] += def_a[d];
            }
            for d in b + 1..m {
                row_gd[d] += def_g[d];
                row_au[d] += def_a[d];
            }
            self.project_vertex_into(
                v, b, a, sd.in_a, sd.out_a, 1.0, row_gu, row_gd, row_au, row_ad,
            );
            let movement_cost = if b == home { cost_home } else { cost_away };
            objectives[b] =
                self.objective_from_rows(env, movement_cost, [row_gu, row_gd, row_au, row_ad]);
        }
        &scratch.objectives[..m]
    }

    /// Fills `scratch`'s destination-side buffers for the destinations in
    /// `live` (flagged and not `v`'s master): the per-master default rows
    /// and the sparse corrections, with `dest_dirty` naming the
    /// destinations that hold any.
    ///
    /// A neighbor's counts at destination `b` gain (in_b, out_b); since
    /// those deltas are the same for every candidate, the transition of an
    /// *empty* cell is a per-neighbor constant ([`default_transitions`]).
    /// Defaults are aggregated by neighbor master (`def_*`, applied O(M)
    /// per row at projection time); the correction arenas only hold the
    /// sparse *corrections* at the few cells where a neighbor already has
    /// counts. This turns the hub case from O(deg·M) transition math into
    /// O(deg) defaults + O(deg) row scans + sparse fix-ups.
    ///
    /// `ONE` is the instance for a one-bit `live` (a migration proposal):
    /// the same operations on the same cells, with the destination known
    /// before the walk. It is kept out of line so the projection's working
    /// set does not crowd this loop's registers. Measured against the
    /// deleted single-destination copy on a 2-vCPU x86-64 host, a hub
    /// vertex's proposal read 5–16 % slower inlined or walking bits in its
    /// one-bit case, and a low-degree proposal 3–10 % slower with
    /// destination-major M×M arenas in place of the len-M `diag_*` lanes.
    #[inline(never)]
    fn build_dest<const ONE: bool>(&self, live: u64, scratch: &mut MoveScratch) {
        let m = self.num_dcs;
        let MoveScratch {
            ref neighbors,
            ref mut diag_gu,
            ref mut dest_gd,
            ref mut dest_au,
            ref mut diag_ad,
            ref mut dest_dirty,
            ref mut def_g,
            ref mut def_a,
            ..
        } = *scratch;
        // Restore the arena's all-zero invariant by clearing only the rows
        // the previous call dirtied; clean rows are already zero.
        let mut prev = *dest_dirty;
        while prev != 0 {
            let b = prev.trailing_zeros() as usize;
            prev &= prev - 1;
            let r = b * m;
            diag_gu[b] = 0.0;
            dest_gd[r..r + m].fill(0.0);
            dest_au[r..r + m].fill(0.0);
            diag_ad[b] = 0.0;
        }
        def_g[..m].fill(0.0);
        def_a[..m].fill(0.0);
        let only = live.trailing_zeros() as usize;
        let only_row = only * m;
        let mut dirty = 0u64;
        for &(x, delta) in neighbors {
            if delta.in_b == 0 && delta.out_b == 0 {
                continue;
            }
            let mx = self.meta[x as usize];
            let master_x = mx.master as usize;
            let high = mx.high;
            let (gt0, at0) = default_transitions(high, delta.in_b, delta.out_b);
            let g = mx.g as f64;
            let ab = mx.a as f64;
            def_g[master_x] += gt0 * g;
            def_a[master_x] += at0 * ab;
            // Only occupied cells of live destinations can deviate from the
            // default: walk the occupancy mask instead of scanning the row.
            // For the common neighbor whose only counts sit at its own
            // master this is a single masked-out u64 test — the row is
            // never touched.
            let mut bits = mx.nnz & live & !(1u64 << master_x);
            if bits == 0 {
                continue;
            }
            dirty |= bits;
            let xrow = self.counts_row(x);
            loop {
                let b = if ONE { only } else { bits.trailing_zeros() as usize };
                let (in_c, out_c) = xrow.pair(b);
                let (gt, at) =
                    count_transitions(high, in_c as i64, out_c as i64, delta.in_b, delta.out_b);
                let cg = (gt - gt0) * g;
                let ca = (at - at0) * ab;
                let row = if ONE { only_row } else { b * m };
                if cg != 0.0 {
                    diag_gu[b] += cg;
                    dest_gd[row + master_x] += cg;
                }
                if ca != 0.0 {
                    dest_au[row + master_x] += ca;
                    diag_ad[b] += ca;
                }
                bits &= bits - 1;
                if ONE || bits == 0 {
                    break;
                }
            }
        }
        *dest_dirty = dirty;
    }

    /// Fills `scratch`'s mid buffers: live loads minus `v`'s whole current
    /// contribution minus every staged neighbor's source-side (DC `a`)
    /// threshold transition. Shared by every candidate destination.
    fn build_mid(&self, v: VertexId, a: usize, scratch: &mut MoveScratch) {
        let m = self.num_dcs;
        let MoveScratch {
            ref neighbors,
            ref mut mid_gu,
            ref mut mid_gd,
            ref mut mid_au,
            ref mut mid_ad,
            ..
        } = *scratch;
        let (g, ap) = (&self.gather, &self.apply);
        for d in 0..m {
            (mid_gu[d], mid_gd[d]) = (g.up()[d] as f64, g.down()[d] as f64);
            (mid_au[d], mid_ad[d]) = (ap.up()[d] as f64, ap.down()[d] as f64);
        }
        self.project_vertex_into(v, a, a, 0, 0, -1.0, mid_gu, mid_gd, mid_au, mid_ad);
        for &(x, delta) in neighbors {
            if delta.in_a == 0 && delta.out_a == 0 {
                continue;
            }
            let mx = self.meta[x as usize];
            let master_x = mx.master as usize;
            if a == master_x {
                continue;
            }
            let (in_c, out_c) = self.counts_row(x).pair(a);
            let (gt, at) =
                count_transitions(mx.high, in_c as i64, out_c as i64, delta.in_a, delta.out_a);
            if gt != 0.0 {
                let g = mx.g as f64;
                mid_gu[a] += gt * g;
                mid_gd[master_x] += gt * g;
            }
            if at != 0.0 {
                let ab = mx.a as f64;
                mid_au[master_x] += at * ab;
                mid_ad[a] += at * ab;
            }
        }
    }

    /// Projects adding (`sign = 1`) or removing (`sign = -1`) vertex `v`'s
    /// full traffic contribution onto scratch rows, with its counts at DC
    /// `adj_dc` adjusted by `(d_in, d_out)` and its master at `master`.
    #[allow(clippy::too_many_arguments)]
    fn project_vertex_into(
        &self,
        v: VertexId,
        master: usize,
        adj_dc: usize,
        d_in: i64,
        d_out: i64,
        sign: f64,
        gu: &mut [f64],
        gd: &mut [f64],
        au: &mut [f64],
        ad: &mut [f64],
    ) {
        let vrow = self.counts_row(v);
        let mv = self.meta[v as usize];
        let g = mv.g as f64 * sign;
        let a_bytes = mv.a as f64 * sign;
        let high = mv.high;
        // Empty cells contribute nothing, so only the occupancy mask is
        // walked, with `adj_dc` forced in: its cell may be empty but gain
        // counts from the delta.
        let mut bits = (mv.nnz | (1u64 << adj_dc)) & !(1u64 << master);
        while bits != 0 {
            let d = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let (in_c, out_c) = vrow.pair(d);
            let (mut in_c, mut out_c) = (in_c as i64, out_c as i64);
            if d == adj_dc {
                in_c += d_in;
                out_c += d_out;
            }
            debug_assert!(in_c >= 0 && out_c >= 0);
            if high && in_c > 0 {
                gu[d] += g;
                gd[master] += g;
            }
            if in_c + out_c > 0 {
                au[master] += a_bytes;
                ad[d] += a_bytes;
            }
        }
    }

    /// Eq 1 + Eq 5 over rows of load units, beside an Eq 4 `movement_cost`:
    /// the move kernel's projection and [`PlacementState::objective`], over
    /// the shared [`geosim::transfer`] reductions.
    pub(crate) fn objective_from_rows<T: Units>(
        &self,
        env: &CloudEnv,
        movement_cost: f64,
        [gu, gd, au, ad]: [&[T]; 4],
    ) -> Objective {
        let m = self.num_dcs;
        let transfer_time = geosim::transfer::stage_time_rows(&gu[..m], &gd[..m], env)
            + geosim::transfer::stage_time_rows(&au[..m], &ad[..m], env);
        let upload_cost = geosim::transfer::upload_cost_row(&gu[..m], env)
            + geosim::transfer::upload_cost_row(&au[..m], env);
        Objective { transfer_time, movement_cost, runtime_cost: self.num_iterations * upload_cost }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_merges_duplicates_and_sorts() {
        let mut s = MoveScratch::new();
        s.begin_stage();
        s.push_neighbor(5, CntDelta { in_a: -1, in_b: 1, ..Default::default() });
        s.push_neighbor(2, CntDelta { out_a: -1, out_b: 1, ..Default::default() });
        s.push_neighbor(5, CntDelta { out_a: -1, out_b: 1, ..Default::default() });
        s.seal();
        assert_eq!(
            s.neighbors,
            vec![
                (2, CntDelta { out_a: -1, out_b: 1, ..Default::default() }),
                (5, CntDelta { in_a: -1, in_b: 1, out_a: -1, out_b: 1 }),
            ]
        );
        // Idempotent.
        s.seal();
        assert_eq!(s.neighbors.len(), 2);
    }

    #[test]
    fn transitions_cross_thresholds() {
        // 1 in-edge leaves: gather message and mirror both disappear.
        assert_eq!(count_transitions(true, 1, 0, -1, 0), (-1.0, -1.0));
        // First in-edge arrives at an empty cell.
        assert_eq!(count_transitions(true, 0, 0, 1, 0), (1.0, 1.0));
        // 3 -> 2 in-edges: nothing crosses.
        assert_eq!(count_transitions(true, 3, 0, -1, 0), (0.0, 0.0));
        // Low-degree vertices never gather.
        assert_eq!(count_transitions(false, 1, 0, -1, 0), (0.0, -1.0));
        // Out-edge appears while in-edges stay: mirror already present.
        assert_eq!(count_transitions(true, 2, 0, 0, 1), (0.0, 0.0));
        // Last out-edge leaves an out-only cell: mirror disappears.
        assert_eq!(count_transitions(true, 0, 1, 0, -1), (0.0, -1.0));
    }

    #[test]
    fn scratch_resizes_lazily() {
        let mut s = MoveScratch::new();
        s.ensure_m(4);
        assert_eq!(s.objectives().len(), 4);
        assert_eq!(s.dest_gd.len(), 16);
        s.ensure_m(8);
        assert_eq!(s.objectives().len(), 8);
        assert_eq!(s.dest_gd.len(), 64);
    }

    #[test]
    fn scratch_shrink_then_grow_repoisons_nothing_structural() {
        // M=8 → M=4 → M=8. `Vec::resize` truncates on shrink and zero-pads
        // on growth, so lanes written during the wide phase survive a
        // round-trip only below the shrink point — the evaluation kernels
        // therefore re-fill `[..m]` windows on every call rather than
        // trusting buffer contents. The dest arenas are the exception:
        // their all-zero-outside-dirty-rows invariant must hold across a
        // width change (the row stride shifts, invalidating the dirty
        // bookkeeping), so `ensure_m` re-zeroes them wholesale.
        let mut s = MoveScratch::new();
        s.ensure_m(8);
        for buf in [&mut s.mid_gu, &mut s.row_gu] {
            buf.fill(777.0);
        }
        s.dest_gd.fill(777.0);
        s.diag_gu.fill(777.0);
        s.dest_dirty = 0b1010_1010;

        s.ensure_m(4);
        assert_eq!(s.objectives().len(), 4);
        assert_eq!((s.mid_gu.len(), s.row_gu.len()), (4, 4));
        assert_eq!(s.dest_gd.len(), 16);

        s.ensure_m(8);
        assert_eq!(s.objectives().len(), 8);
        assert_eq!(s.dest_gd.len(), 64);
        // Stale poison survives below the shrink point in the len-M
        // buffers; the regrown region is zero. Both halves are overwritten
        // by the kernels' fills.
        assert!(s.mid_gu[..4].iter().all(|&x| x == 777.0));
        assert!(s.mid_gu[4..].iter().all(|&x| x == 0.0));
        // The dest arena came back fully zeroed with no dirty rows.
        assert!(s.dest_gd.iter().chain(&s.diag_gu).all(|&x| x == 0.0));
        assert_eq!(s.dest_dirty, 0);
    }
}
