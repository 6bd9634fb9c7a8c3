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
//!    a reusable [`MoveScratch`] arena — two ascending runs in flat `Vec`s,
//!    merged and duplicate-combined in one linear pass, replacing the
//!    per-call `FxHashMap`.
//! 2. **Mid** (`O(deg v + M)`): copy the live master-side stage loads
//!    once, take `v`'s contribution out at its master `a` and apply every
//!    neighbor's *source-side* (DC `a`) threshold transition. This base is
//!    shared by all destinations.
//! 3. **Destination deltas** (`O(deg v)` defaults + sparse corrections):
//!    destination-side deltas are non-negative and candidate-independent,
//!    so an *empty* count cell's transition is a per-neighbor constant —
//!    aggregated by neighbor master into two `O(M)` default rows. The
//!    correction arenas only receive cells where a neighbor already holds
//!    counts, found by walking the occupancy bitmask in the neighbor's
//!    packed `VertexMeta` record — the common master-only neighbor costs
//!    one u64 test, no row read.
//! 4. **Project** (`O(lanes changed)` per destination): `row = base +
//!    correction row + defaults` (neighbors mastered at `b` exempt from row
//!    `b`), `v` mastered at `b`, evaluate Eq 1–5. `v` changes lanes `a`
//!    and `b` only, and steps 2 and 3 record the other lanes they change;
//!    only those lanes are built and divided. Any other lane holds the
//!    live load to the bit, so its share of a stage's `max` comes from the
//!    live per-lane ratios, cached in the scratch with their descending
//!    order.
//!
//! `PlacementState::evaluate_moves` is the one implementation: it takes
//! the destinations as a bit mask and walks only the flagged corrections
//! and rows. Its `f64` lanes hold whole load units, exact in any order, so
//! a slot is the objective the state reports after that move, and a
//! one-bit mask (a batched migration proposal, §V-A) equals that slot of
//! the all-DC sweep (scoring, Eq 10) **bit-for-bit** (enforced by
//! `HybridState::check_consistency`, the property suite and
//! `sparse_lanes_equal_the_dense_oracle` against the test-only dense
//! projection at the end of this file).

use geosim::transfer::{upload_cost_row, Units, BYTES_PER_UNIT};
use geosim::CloudEnv;

use crate::state::{Bits, Objective, PlacementState};
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
    /// Per-neighbor deltas: the first ascending staged run, then, once
    /// [`seal`](Self::seal) merges `second` in, one entry per neighbor in
    /// ascending id order.
    pub(crate) neighbors: Vec<(VertexId, CntDelta)>,
    /// The second ascending staged run.
    second: Vec<(VertexId, CntDelta)>,
    sealed: bool,
    // The destination-independent part of the master-side rows (len M):
    // the live gather-download and apply-upload units with v's current
    // contribution taken out at `a`, every neighbor's source-side (DC `a`)
    // transition and the destination-side defaults applied.
    base_gd: Vec<f64>,
    base_au: Vec<f64>,
    // Lanes other than `a` where `base_*` differs from the live load:
    // [gather, apply], bit `d` ⇔ DC `d`.
    base_lanes: [u64; 2],
    // The destination-independent change of `a`'s gather-upload and
    // apply-download lanes: the neighbors' source-side transitions and v,
    // a mirror once it moves, re-added.
    at_a: [f64; 2],
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
    // Per destination (len M), the neighbor-master lanes its corrections
    // wrote in `dest_gd` / `dest_au`; zero outside `dest_dirty`.
    corr_g: Vec<u64>,
    corr_a: Vec<u64>,
    // Default (empty-cell) destination-side transition mass, aggregated by
    // neighbor master DC (len M). See `evaluate_moves`.
    def_g: Vec<f64>,
    def_a: Vec<f64>,
    // Lanes holding default mass: [gather (`def_g`), apply (`def_a`)].
    def_lanes: [u64; 2],
    // The upload rows a priced projection sums (len M).
    row_gu: Vec<f64>,
    row_au: Vec<f64>,
    // The state's Eq 4 moved bytes, v's home entry re-priced (len M).
    moved: Vec<u64>,
    objectives: Vec<Objective>,
    live: LiveLanes,
    /// The mover of the last `evaluate_moves` call, for
    /// [`PlacementState::export_lanes`].
    mover: Mover,
}

/// What the projection of the last evaluated move read about the mover
/// beside the scratch's buffers.
#[derive(Clone, Copy, Debug, Default)]
struct Mover {
    /// Its master.
    a: usize,
    /// Its presence masks before and after the move ([`PlacementState::presence`]).
    old: [u64; 2],
    new: [u64; 2],
    /// Its degree class.
    high: bool,
    /// Its gather and apply bytes.
    units: [f64; 2],
    /// The default mass of every live destination: [gather, apply].
    tot: [f64; 2],
}

/// How many lanes besides the mover's master and destination a
/// [`LaneDeltas`] holds.
const EXTRA_LANES: usize = 2;

/// One destination's projection (a move of `v` from its master `a` to
/// `b`) as whole-unit deltas from the live load rows, exported by
/// [`PlacementState::export_lanes`] and read back by
/// [`PlacementState::reprice_move`]. Lanes `a` and `b` change in all four rows.
/// Any other lane changes on its master side only (gather download, apply
/// upload): a neighbor's mirror appears or leaves at `a` or `b` alone.
///
/// Deltas are `i16`: a lane changes by a few messages of its neighbors,
/// each a vertex's gather or apply bytes in load units (2 048 for the
/// uniform 8 B profile), so 28 bytes hold almost every move; a larger one
/// is not exported.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LaneDeltas {
    /// Lanes `a` and `b`: gather up, gather down, apply up, apply down.
    ends: [[i16; 4]; 2],
    /// The mover's master `a` and degree class when exported, so neither
    /// a re-price nor its staleness check reads them from the state.
    a: DcId,
    high: bool,
    /// The other changed lanes, `u8::MAX` where unused.
    extra_dcs: [u8; EXTRA_LANES],
    /// Their gather-download and apply-upload deltas.
    extra: [[i16; 2]; EXTRA_LANES],
}

impl LaneDeltas {
    /// The mover's master and degree class when the deltas were taken.
    pub(crate) fn mover(&self) -> (DcId, bool) {
        (self.a, self.high)
    }
}

/// A stage's two largest live `(lane, ratio)` pairs outside one lane
/// (`usize::MAX` and 0 where there are fewer lanes).
#[derive(Clone, Copy, Debug)]
struct Runners([(usize, f64); 2]);

impl Runners {
    /// The largest ratio outside lane `b` as well.
    #[inline]
    fn skipping(self, b: usize) -> f64 {
        let [(first, ratio), (_, second)] = self.0;
        if first != b {
            ratio
        } else {
            second
        }
    }
}

/// The live per-lane stage ratios a projection reads its untouched lanes
/// from, with the load rows and link bandwidths they were computed from.
/// [`Self::sync`] compares those on every call and recomputes on any
/// difference, so the cache is never stale whatever mutated the state.
#[derive(Clone, Debug, Default)]
struct LiveLanes {
    /// The gather up/down and apply up/down unit rows (4·M).
    loads: Vec<u64>,
    /// The uplinks and downlinks (2·M).
    links: Vec<f64>,
    /// Per stage ([gather, apply]), per lane: `max(up/U, down/D)`.
    ratio: [Vec<f64>; 2],
    /// Per stage, the lanes by descending ratio.
    desc: [Vec<u8>; 2],
}

impl LiveLanes {
    /// Makes the ratios those of `rows` (gather up, gather down, apply up,
    /// apply down) under links `up` / `down`.
    fn sync(&mut self, rows: [&[u64]; 4], up: &[f64], down: &[f64]) {
        let m = up.len();
        let current = self.loads.len() == 4 * m
            && rows.iter().enumerate().all(|(i, r)| self.loads[i * m..(i + 1) * m] == **r)
            && self.links[..m] == *up
            && self.links[m..] == *down;
        if current {
            return;
        }
        self.loads.clear();
        rows.iter().for_each(|r| self.loads.extend_from_slice(r));
        self.links.clear();
        self.links.extend_from_slice(up);
        self.links.extend_from_slice(down);
        for s in 0..2 {
            let (u, d) = (rows[2 * s], rows[2 * s + 1]);
            let ratio = &mut self.ratio[s];
            ratio.clear();
            ratio.extend((0..m).map(|l| (u[l] as f64 / up[l]).max(d[l] as f64 / down[l])));
            let desc = &mut self.desc[s];
            desc.clear();
            desc.extend(0..m as u8);
            desc.sort_unstable_by(|&x, &y| ratio[y as usize].total_cmp(&ratio[x as usize]));
        }
    }

    /// Stage `s`'s two largest live ratios over the lanes other than
    /// `skip`.
    fn top_two(&self, s: usize, skip: usize) -> Runners {
        let mut top = self.desc[s].iter().map(|&d| d as usize).filter(|&d| d != skip);
        let mut next = || top.next().map_or((usize::MAX, 0.0), |d| (d, self.ratio[s][d]));
        Runners([next(), next()])
    }

    /// Stage `s`'s largest live ratio over the lanes not in `touched`;
    /// 0 when every lane is touched (the reduction's identity).
    #[inline]
    fn untouched_max(&self, s: usize, touched: u64) -> f64 {
        for &d in &self.desc[s] {
            if touched >> d & 1 == 0 {
                return self.ratio[s][d as usize];
            }
        }
        0.0
    }
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
        self.second.clear();
        self.sealed = false;
    }

    /// Stages one neighbor delta of the first run. Ids must not descend
    /// within a run; an id may repeat, and may appear in both runs.
    #[inline]
    pub(crate) fn push_neighbor(&mut self, x: VertexId, delta: CntDelta) {
        debug_assert!(!self.sealed);
        self.neighbors.push((x, delta));
    }

    /// Stages one neighbor delta of the second run (see
    /// [`Self::push_neighbor`]).
    #[inline]
    pub(crate) fn push_second(&mut self, x: VertexId, delta: CntDelta) {
        debug_assert!(!self.sealed);
        self.second.push((x, delta));
    }

    /// Merges the two staged runs into `neighbors` by vertex id and combines
    /// duplicates in place, in linear time. Combining is required for
    /// correctness: threshold transitions are non-linear in the delta, so a
    /// neighbor touched by several edges must be projected once with its
    /// summed delta.
    pub(crate) fn seal(&mut self) {
        if self.sealed {
            return;
        }
        self.sealed = true;
        debug_assert!(self.neighbors.is_sorted_by_key(|&(x, _)| x));
        debug_assert!(self.second.is_sorted_by_key(|&(x, _)| x));
        let (n1, n2) = (self.neighbors.len(), self.second.len());
        if n2 > 0 {
            // Merge from the back into the grown first run, so no entry is
            // read after it is overwritten.
            self.neighbors.resize(n1 + n2, (0, CntDelta::default()));
            let (mut i, mut j) = (n1, n2);
            for k in (0..n1 + n2).rev() {
                if j == 0 {
                    break;
                }
                if i > 0 && self.neighbors[i - 1].0 > self.second[j - 1].0 {
                    self.neighbors[k] = self.neighbors[i - 1];
                    i -= 1;
                } else {
                    self.neighbors[k] = self.second[j - 1];
                    j -= 1;
                }
            }
        }
        let mut w = 0usize;
        for i in 0..self.neighbors.len() {
            if w > 0 && self.neighbors[w - 1].0 == self.neighbors[i].0 {
                let d = self.neighbors[i].1;
                self.neighbors[w - 1].1.merge(d);
            } else {
                self.neighbors[w] = self.neighbors[i];
                w += 1;
            }
        }
        self.neighbors.truncate(w);
    }

    /// How far the staged move reaches into a neighbor's cell at the
    /// source DC: the largest count of in-edges and of edges any one
    /// neighbor loses there, `[in, in + out]`. A count test a projection
    /// of this move makes on a neighbor's cell compares the count with 0
    /// or with that loss, so a count change at or above the reach leaves
    /// every such test as it was. On a cleaned graph the reach is at most
    /// `[1, 2]`; a multigraph's repeated edges lose together.
    pub fn staged_reach(&self) -> [u32; 2] {
        debug_assert!(self.sealed);
        self.neighbors.iter().fold([0, 0], |[i, t], &(_, d)| {
            [i.max((-d.in_a) as u32), t.max((-(d.in_a + d.out_a)) as u32)]
        })
    }

    /// Resizes all projection buffers for `m` DCs (no-op when unchanged).
    fn ensure_m(&mut self, m: usize) {
        if self.m == m {
            return;
        }
        self.m = m;
        let zero_obj = Objective { transfer_time: 0.0, movement_cost: 0.0, runtime_cost: 0.0 };
        for buf in [
            &mut self.base_gd,
            &mut self.base_au,
            &mut self.row_gu,
            &mut self.row_au,
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
        for buf in [&mut self.corr_g, &mut self.corr_a] {
            buf.resize(m, 0);
            buf.fill(0);
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
    /// With `priced` false the cost fields of the other slots are NaN and
    /// neither Eq 4 nor Eq 5 is computed; `transfer_time` is the same
    /// either way.
    ///
    /// Cost: `O(deg(v) + M)` sweep + `O(deg(v))` count-row scans with
    /// sparse corrections + per flagged destination, a projection over the
    /// lanes whose load that destination changes (`O(M)` more when
    /// priced). Each slot's value does not depend on which other
    /// destinations are flagged: a one-bit mask is the single-destination
    /// evaluation, the slot of the all-DC sweep.
    ///
    /// Lanes: moving `v` from `a` to `b` changes its own traffic on lanes
    /// `a` and `b` only — a mirror at any other DC keeps its counts, so
    /// taking `v` out and putting it back cancels there exactly. The
    /// neighbors change the master-side lanes in `base_lanes`, the
    /// correction lanes of `b` and lane `b`. Every other lane holds the
    /// live load to the bit, so the stage maxima read their ratios from the
    /// live cache.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn evaluate_moves<'s>(
        &self,
        env: &CloudEnv,
        v: VertexId,
        dests: u64,
        priced: bool,
        natural: DcId,
        size: u64,
        scratch: &'s mut MoveScratch,
    ) -> &'s [Objective] {
        debug_assert_eq!(env.num_dcs(), self.num_dcs);
        let m = self.num_dcs;
        scratch.seal();
        scratch.ensure_m(m);
        let (up, down) = (env.uplinks(), env.downlinks());
        let (g, ap) = (&self.gather, &self.apply);
        scratch.live.sync([g.up(), g.down(), ap.up(), ap.down()], up, down);
        let a = self.masters[v as usize] as usize;
        let sd = scratch.self_delta;
        // Where v exchanges messages now, and once it is mastered away
        // from a (only its cell at a changes).
        let old = self.presence(v, a, 0, 0);
        let new = self.presence(v, a, sd.in_a, sd.out_a);
        let written = self.build_mid(v, a, old, new, scratch);

        // Moving to `a` changes nothing, so no destination-side correction
        // lands in its row.
        let live_dests = dests & !(1u64 << a);
        if live_dests.is_power_of_two() {
            self.build_dest::<true>(live_dests, scratch);
        } else {
            self.build_dest::<false>(live_dests, scratch);
        }

        let MoveScratch {
            ref mut base_gd,
            ref mut base_au,
            ref mut base_lanes,
            at_a,
            ref diag_gu,
            ref dest_gd,
            ref dest_au,
            ref diag_ad,
            ref corr_g,
            ref corr_a,
            ref def_g,
            ref def_a,
            def_lanes,
            ref mut row_gu,
            ref mut row_au,
            ref mut moved,
            ref mut objectives,
            ref live,
            ref mut mover,
            ..
        } = *scratch;
        let (gu, gd, au, ad) = (g.up(), g.down(), ap.up(), ap.down());
        for d in Bits(def_lanes[0]) {
            base_gd[d] += def_g[d];
        }
        for d in Bits(def_lanes[1]) {
            base_au[d] += def_a[d];
        }
        let not_a = !(1u64 << a);
        *base_lanes = [
            Bits((written[0] | def_lanes[0]) & not_a)
                .filter(|&d| base_gd[d] != gd[d] as f64)
                .fold(0, |mask, d| mask | 1u64 << d),
            Bits((written[1] | def_lanes[1]) & not_a)
                .filter(|&d| base_au[d] != au[d] as f64)
                .fold(0, |mask, d| mask | 1u64 << d),
        ];
        let tot_g: f64 = Bits(def_lanes[0]).map(|d| def_g[d]).sum();
        let tot_a: f64 = Bits(def_lanes[1]).map(|d| def_a[d]).sum();
        let mv = self.meta[v as usize];
        let (vg, va) = (mv.g as f64, mv.a as f64);
        *mover = Mover { a, old, new, high: mv.high, units: [vg, va], tot: [tot_g, tot_a] };

        // Eq 4 depends on the destination only through "home or not": price
        // both, with v's bytes taken out of its home entry and put back.
        let home = natural as usize;
        let (cost_home, cost_away) = if priced {
            moved[..m].copy_from_slice(self.moved_bytes());
            moved[home] -= if a != home { size } else { 0 };
            let cost_home = geosim::cost::price(env, &moved[..m]);
            moved[home] += size;
            (cost_home, geosim::cost::price(env, &moved[..m]))
        } else {
            (f64::NAN, f64::NAN)
        };

        // Lane a's mirror-side loads do not depend on the destination, and
        // its master-side loads only through a correction at lane a; the
        // live lanes other than a are ranked once.
        let (gu_a, ad_a) = (gu[a] as f64 + at_a[0], ad[a] as f64 + at_a[1]);
        let lane_a =
            [(gu_a / up[a]).max(base_gd[a] / down[a]), (base_au[a] / up[a]).max(ad_a / down[a])];
        let runners = [live.top_two(0, a), live.top_two(1, a)];

        // Project every flagged destination, ascending. Lane `a` and lane
        // `b` are built outright: the master-side base plus b's correction
        // row (neighbors mastered at `b` exempt from row `b`), the
        // mirror-side live load plus what moves there, v's old mirror at b
        // taken out and v mastered at b put in. Any other changed lane is a
        // base lane or a correction lane, whose mirror-side load is live.
        let mut todo = dests;
        while todo != 0 {
            let b = todo.trailing_zeros() as usize;
            todo &= todo - 1;
            if b == a {
                objectives[b] = self.objective(env);
                continue;
            }
            let (bit, r) = (1u64 << b, b * m);
            let gu_b =
                gu[b] as f64 + (diag_gu[b] + (tot_g - def_g[b])) - vg * (old[0] >> b & 1) as f64;
            let gd_b = base_gd[b] - def_g[b] + vg * (new[0] & !bit).count_ones() as f64;
            let au_b = base_au[b] - def_a[b] + va * (new[1] & !bit).count_ones() as f64;
            let ad_b =
                ad[b] as f64 + (diag_ad[b] + (tot_a - def_a[b])) - va * (old[1] >> b & 1) as f64;

            // Eq 2/3 per stage: the max over the changed lanes' projected
            // ratios and the other lanes' live ones — the same set of
            // values the full-row reduction takes the max of.
            let ends = 1u64 << a | bit;
            let extra_g = (base_lanes[0] | corr_g[b]) & !ends;
            let mut max_g = match extra_g {
                0 => runners[0].skipping(b),
                _ => live.untouched_max(0, extra_g | ends),
            };
            max_g = max_g.max(match corr_g[b] >> a & 1 {
                0 => lane_a[0],
                _ => (gu_a / up[a]).max((base_gd[a] + dest_gd[r + a]) / down[a]),
            });
            max_g = max_g.max(gu_b / up[b]).max(gd_b / down[b]);
            for d in Bits(extra_g) {
                max_g =
                    max_g.max(gu[d] as f64 / up[d]).max((base_gd[d] + dest_gd[r + d]) / down[d]);
            }
            let extra_a = (base_lanes[1] | corr_a[b]) & !ends;
            let mut max_a = match extra_a {
                0 => runners[1].skipping(b),
                _ => live.untouched_max(1, extra_a | ends),
            };
            max_a = max_a.max(match corr_a[b] >> a & 1 {
                0 => lane_a[1],
                _ => ((base_au[a] + dest_au[r + a]) / up[a]).max(ad_a / down[a]),
            });
            max_a = max_a.max(au_b / up[b]).max(ad_b / down[b]);
            for d in Bits(extra_a) {
                max_a =
                    max_a.max((base_au[d] + dest_au[r + d]) / up[d]).max(ad[d] as f64 / down[d]);
            }
            objectives[b] = if priced {
                // Eq 5 is a sum, so it reads the whole upload rows.
                for d in 0..m {
                    row_gu[d] = gu[d] as f64;
                    row_au[d] = base_au[d] + dest_au[r + d];
                }
                (row_gu[a], row_gu[b], row_au[b]) = (gu_a, gu_b, au_b);
                let movement_cost = if b == home { cost_home } else { cost_away };
                self.projected(
                    env,
                    [max_g, max_a],
                    Some((movement_cost, &row_gu[..m], &row_au[..m])),
                )
            } else {
                self.projected(env, [max_g, max_a], None)
            };
        }
        &scratch.objectives[..m]
    }

    /// Fills `scratch`'s destination-side buffers for the destinations in
    /// `live` (flagged and not `v`'s master): the per-master default rows
    /// and the sparse corrections, with `dest_dirty` naming the
    /// destinations that hold any, `corr_*` the lanes they hold them in and
    /// `def_lanes` the lanes the defaults wrote.
    ///
    /// A neighbor's counts at destination `b` gain (in_b, out_b); since
    /// those deltas are the same for every candidate, the transition of an
    /// *empty* cell is a per-neighbor constant ([`default_transitions`]).
    /// Defaults are aggregated by neighbor master (`def_*`, applied O(M)
    /// per row at projection time); the correction arenas only hold the
    /// sparse *corrections* at the few cells where a neighbor already has
    /// counts. A neighbor whose live cells are mostly occupied (a hub)
    /// takes no default; its gains go straight into the arenas at the few
    /// cells where it gains a message. Either way an arena row holds what
    /// its destination deviates from the defaults by, and the hub case
    /// costs O(deg) defaults + O(deg) mask tests + sparse fix-ups, not
    /// O(deg·M) transition math.
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
            ref mut corr_g,
            ref mut corr_a,
            ref mut def_g,
            ref mut def_a,
            ref mut def_lanes,
            ..
        } = *scratch;
        // Restore the arena's all-zero invariant by clearing only the cells
        // the previous call wrote; everything else is already zero.
        for b in Bits(*dest_dirty) {
            let r = b * m;
            diag_gu[b] = 0.0;
            diag_ad[b] = 0.0;
            Bits(corr_g[b]).for_each(|d| dest_gd[r + d] = 0.0);
            Bits(corr_a[b]).for_each(|d| dest_au[r + d] = 0.0);
            (corr_g[b], corr_a[b]) = (0, 0);
        }
        def_g[..m].fill(0.0);
        def_a[..m].fill(0.0);
        let mut lanes = [0u64; 2];
        let only = live.trailing_zeros() as usize;
        let only_row = only * m;
        let mut dirty = 0u64;
        for &(x, delta) in neighbors {
            if delta.in_b == 0 && delta.out_b == 0 {
                continue;
            }
            let mx = self.meta[x as usize];
            let master_x = mx.master as usize;
            let lane = 1u64 << master_x;
            let (gt0, at0) = default_transitions(mx.high, delta.in_b, delta.out_b);
            debug_assert_eq!(at0, 1.0);
            // x's cell at a live destination either is empty, where the
            // default holds, or already has a mirror, where the gained
            // edges add no apply message and, if x is high and gains
            // in-edges, no gather message either when the cell already
            // holds in-edges — what `count_transitions` returns for it.
            let occupied = mx.nnz & live & !lane;
            let empty = live & !mx.nnz & !lane;
            let gathers = gt0 != 0.0;
            let (g, ab) = (mx.g as f64, mx.a as f64);
            if occupied.count_ones() > empty.count_ones() {
                // Mostly occupied (a hub): add the gains where they land
                // instead of a default and a correction everywhere else.
                let xrow = self.counts_row(x);
                let gained = if gathers {
                    empty
                        | Bits(occupied).filter(|&b| xrow.pair(b).0 == 0).fold(0, |k, b| k | 1 << b)
                } else {
                    0
                };
                for b in Bits(empty) {
                    dest_au[b * m + master_x] += ab;
                    diag_ad[b] += ab;
                    corr_a[b] |= lane;
                }
                for b in Bits(gained) {
                    diag_gu[b] += g;
                    dest_gd[b * m + master_x] += g;
                    corr_g[b] |= lane;
                }
                dirty |= empty | gained;
                continue;
            }
            def_g[master_x] += gt0 * g;
            def_a[master_x] += ab;
            lanes[0] |= (gathers as u64) << master_x;
            lanes[1] |= lane;
            // Only occupied cells deviate from the default: walk the
            // occupancy mask instead of scanning the row. For the common
            // neighbor whose only counts sit at its own master this is a
            // single masked-out u64 test — the row is never touched.
            let mut bits = occupied;
            if bits == 0 {
                continue;
            }
            dirty |= bits;
            let xrow = self.counts_row(x);
            loop {
                let b = if ONE { only } else { bits.trailing_zeros() as usize };
                let row = if ONE { only_row } else { b * m };
                dest_au[row + master_x] -= ab;
                diag_ad[b] -= ab;
                corr_a[b] |= lane;
                if gathers && xrow.pair(b).0 > 0 {
                    diag_gu[b] -= g;
                    dest_gd[row + master_x] -= g;
                    corr_g[b] |= lane;
                }
                bits &= bits - 1;
                if ONE || bits == 0 {
                    break;
                }
            }
        }
        *dest_dirty = dirty;
        *def_lanes = lanes;
    }

    /// Fills `scratch`'s destination-independent buffers: `base_gd` /
    /// `base_au` hold the live master-side loads with `v`'s current
    /// contribution (present at `old`) taken out at `a` and every staged
    /// neighbor's source-side (DC `a`) threshold transition applied;
    /// `at_a` holds the change of `a`'s mirror-side lanes, those
    /// transitions plus `v` re-added as a mirror (present at `new`).
    /// Returns the lanes of `base_*` written: [gather, apply].
    fn build_mid(
        &self,
        v: VertexId,
        a: usize,
        old: [u64; 2],
        new: [u64; 2],
        scratch: &mut MoveScratch,
    ) -> [u64; 2] {
        let m = self.num_dcs;
        let MoveScratch { ref neighbors, ref mut base_gd, ref mut base_au, ref mut at_a, .. } =
            *scratch;
        let (gd, au) = (self.gather.down(), self.apply.up());
        for d in 0..m {
            (base_gd[d], base_au[d]) = (gd[d] as f64, au[d] as f64);
        }
        let mv = self.meta[v as usize];
        let (vg, va) = (mv.g as f64, mv.a as f64);
        let not_a = !(1u64 << a);
        base_gd[a] -= vg * (old[0] & not_a).count_ones() as f64;
        base_au[a] -= va * (old[1] & not_a).count_ones() as f64;
        let mut lanes = [1u64 << a; 2];
        *at_a = [vg * (new[0] >> a & 1) as f64, va * (new[1] >> a & 1) as f64];
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
                at_a[0] += gt * g;
                base_gd[master_x] += gt * g;
                lanes[0] |= 1u64 << master_x;
            }
            if at != 0.0 {
                let ab = mx.a as f64;
                base_au[master_x] += at * ab;
                at_a[1] += at * ab;
                lanes[1] |= 1u64 << master_x;
            }
        }
        lanes
    }

    /// The DCs vertex `v` exchanges messages with, its counts at DC
    /// `adj_dc` adjusted by `(d_in, d_out)`: `[gather, apply]` masks, bit
    /// `d` set iff `v`'s cell at `d` holds in-edges of a high-degree `v`
    /// (an aggregated gather message) or any edge (a mirror's apply
    /// message). The master's own bit is the caller's to ignore.
    fn presence(&self, v: VertexId, adj_dc: usize, d_in: i64, d_out: i64) -> [u64; 2] {
        let vrow = self.counts_row(v);
        let mv = self.meta[v as usize];
        let mut presence = [0u64; 2];
        // Empty cells hold no edges, so only the occupancy mask is walked,
        // with `adj_dc` forced in: its cell may be empty but gain counts
        // from the delta.
        for d in Bits(mv.nnz | 1u64 << adj_dc) {
            let (in_c, out_c) = vrow.pair(d);
            let (mut in_c, mut out_c) = (in_c as i64, out_c as i64);
            if d == adj_dc {
                in_c += d_in;
                out_c += d_out;
            }
            debug_assert!(in_c >= 0 && out_c >= 0);
            presence[0] |= ((mv.high && in_c > 0) as u64) << d;
            presence[1] |= ((in_c + out_c > 0) as u64) << d;
        }
        presence
    }

    /// The objective of a projection from its two stage maxima (`max`,
    /// load units over link speed: Eq 2/3's bottleneck lanes) and, when
    /// priced, its Eq 4 `movement_cost` and the Eq 5 upload rows of both
    /// stages. Both [`Self::evaluate_moves`] and [`Self::reprice_move`] end
    /// here, so a re-priced move is the kernel's slot bit for bit.
    #[inline]
    fn projected(
        &self,
        env: &CloudEnv,
        [max_g, max_a]: [f64; 2],
        priced: Option<(f64, &[f64], &[f64])>,
    ) -> Objective {
        let transfer_time = max_g * BYTES_PER_UNIT + max_a * BYTES_PER_UNIT;
        match priced {
            Some((movement_cost, gu, au)) => Objective {
                transfer_time,
                movement_cost,
                runtime_cost: self.num_iterations
                    * (upload_cost_row(gu, env) + upload_cost_row(au, env)),
            },
            None => Objective { transfer_time, movement_cost: f64::NAN, runtime_cost: f64::NAN },
        }
    }

    /// Destination `b`'s projection from the last [`Self::evaluate_moves`]
    /// call on `scratch`, which must have flagged `b` (not the mover's
    /// master) and run on this state, as deltas from the live load rows;
    /// `None` where they do not fit a [`LaneDeltas`] (more than
    /// [`EXTRA_LANES`] other lanes change, or a delta passes `i16`).
    ///
    /// The lane values are the projection's own expressions over the same
    /// buffers, so the deltas are exact whole load units.
    pub(crate) fn export_lanes(&self, b: usize, scratch: &MoveScratch) -> Option<LaneDeltas> {
        let m = self.num_dcs;
        let s = scratch;
        let Mover { a, old, new, high, units: [vg, va], tot: [tot_g, tot_a] } = s.mover;
        debug_assert!(b != a && b < m);
        let (g, ap) = (&self.gather, &self.apply);
        let (gu, gd, au, ad) = (g.up(), g.down(), ap.up(), ap.down());
        let (bit, r) = (1u64 << b, b * m);
        let post_a = [
            gu[a] as f64 + s.at_a[0],
            s.base_gd[a] + s.dest_gd[r + a],
            s.base_au[a] + s.dest_au[r + a],
            ad[a] as f64 + s.at_a[1],
        ];
        let post_b = [
            gu[b] as f64 + (s.diag_gu[b] + (tot_g - s.def_g[b])) - vg * (old[0] >> b & 1) as f64,
            s.base_gd[b] - s.def_g[b] + vg * (new[0] & !bit).count_ones() as f64,
            s.base_au[b] - s.def_a[b] + va * (new[1] & !bit).count_ones() as f64,
            ad[b] as f64 + (s.diag_ad[b] + (tot_a - s.def_a[b])) - va * (old[1] >> b & 1) as f64,
        ];
        let delta = |post: f64, live: u64| i16::try_from((post - live as f64) as i64).ok();
        let mut ends = [[0i16; 4]; 2];
        for (end, (d, post)) in ends.iter_mut().zip([(a, post_a), (b, post_b)]) {
            for (row, (&p, live)) in post.iter().zip([gu, gd, au, ad]).enumerate() {
                end[row] = delta(p, live[d])?;
            }
        }
        let mut out = LaneDeltas {
            ends,
            a: a as DcId,
            high,
            extra_dcs: [u8::MAX; EXTRA_LANES],
            extra: [[0; 2]; EXTRA_LANES],
        };
        let others =
            (s.base_lanes[0] | s.corr_g[b] | s.base_lanes[1] | s.corr_a[b]) & !(1u64 << a | bit);
        let mut k = 0;
        for d in Bits(others) {
            let pair = [
                delta(s.base_gd[d] + s.dest_gd[r + d], gd[d])?,
                delta(s.base_au[d] + s.dest_au[r + d], au[d])?,
            ];
            if pair == [0, 0] {
                continue;
            }
            if k == EXTRA_LANES {
                return None;
            }
            (out.extra_dcs[k], out.extra[k]) = (d as u8, pair);
            k += 1;
        }
        Some(out)
    }

    /// The objective after moving `v` (mastered at `a`) to `b`, from the
    /// live rows plus `lanes`, the deltas [`Self::export_lanes`] took
    /// while every input of that projection but the live loads was what it
    /// is now (the caller's staleness rule). Equal bit for bit to
    /// [`Self::evaluate_moves`]' slot `b`: lanes hold whole load units, a
    /// stage maximum does not depend on the order it is taken in, and the
    /// rest goes through the kernel's own [`Self::projected`]. `home` is
    /// `v`'s home DC and data bytes when the move is priced, `None` when
    /// not. Cost: `O(M)`, no neighborhood read.
    pub(crate) fn reprice_move(
        &self,
        env: &CloudEnv,
        v: VertexId,
        b: usize,
        home: Option<(DcId, u64)>,
        lanes: &LaneDeltas,
        scratch: &mut MoveScratch,
    ) -> Objective {
        let m = self.num_dcs;
        scratch.ensure_m(m);
        let (up, down) = (env.uplinks(), env.downlinks());
        let (g, ap) = (&self.gather, &self.apply);
        let rows = [g.up(), g.down(), ap.up(), ap.down()];
        scratch.live.sync(rows, up, down);
        debug_assert_eq!(self.masters[v as usize], lanes.a, "v moved since the export");
        let a = lanes.a as usize;
        let post = |row: usize, d: usize, delta: i16| rows[row][d] as f64 + delta as f64;
        let ratio = |d: usize, u: f64, w: f64| (u / up[d]).max(w / down[d]);
        let extras = || {
            lanes
                .extra_dcs
                .iter()
                .zip(&lanes.extra)
                .filter(|(&d, _)| d != u8::MAX)
                .map(|(&d, x)| (d as usize, x))
        };
        let touched = extras().fold(1u64 << a | 1u64 << b, |mask, (d, _)| mask | 1u64 << d);
        let mut max = [0.0f64; 2];
        for (s, max) in max.iter_mut().enumerate() {
            *max = scratch.live.untouched_max(s, touched);
            for (d, end) in [(a, &lanes.ends[0]), (b, &lanes.ends[1])] {
                let (r0, r1) = (2 * s, 2 * s + 1);
                *max = max.max(ratio(d, post(r0, d, end[r0]), post(r1, d, end[r1])));
            }
        }
        for (d, &[dgd, dau]) in extras() {
            max[0] = max[0].max(ratio(d, rows[0][d] as f64, post(1, d, dgd)));
            max[1] = max[1].max(ratio(d, post(2, d, dau), rows[3][d] as f64));
        }
        let Some((natural, size)) = home else {
            return self.projected(env, max, None);
        };
        // Eq 4 as the kernel prices it: v's bytes out of its home entry,
        // and back in unless `b` is home.
        let home = natural as usize;
        let MoveScratch { ref mut moved, ref mut row_gu, ref mut row_au, .. } = *scratch;
        moved[..m].copy_from_slice(self.moved_bytes());
        moved[home] -= if a != home { size } else { 0 };
        if b != home {
            moved[home] += size;
        }
        let movement_cost = geosim::cost::price(env, &moved[..m]);
        for d in 0..m {
            (row_gu[d], row_au[d]) = (rows[0][d] as f64, rows[2][d] as f64);
        }
        for (d, end) in [(a, &lanes.ends[0]), (b, &lanes.ends[1])] {
            (row_gu[d], row_au[d]) = (post(0, d, end[0]), post(2, d, end[2]));
        }
        for (d, &[_, dau]) in extras() {
            row_au[d] = post(2, d, dau);
        }
        self.projected(env, max, Some((movement_cost, &row_gu[..m], &row_au[..m])))
    }

    /// Eq 1 + Eq 5 over rows of load units, beside an Eq 4 `movement_cost`:
    /// [`PlacementState::objective`] over the shared [`geosim::transfer`]
    /// reductions.
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
impl PlacementState {
    /// The dense projection, kept as the sparse kernel's test oracle and
    /// written to share none of its buffers: for every flagged destination,
    /// a copy of the live loads with `v` taken out at its master, every
    /// staged neighbor's count transitions at the source and at the
    /// destination applied cell by cell, `v` put back mastered at the
    /// destination, and the full rows reduced.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn evaluate_moves_dense(
        &self,
        env: &CloudEnv,
        v: VertexId,
        dests: u64,
        natural: DcId,
        size: u64,
        scratch: &mut MoveScratch,
    ) -> Vec<Objective> {
        let m = self.num_dcs;
        scratch.seal();
        let a = self.masters[v as usize] as usize;
        let sd = scratch.self_delta;
        let (old, new) = (self.presence(v, a, 0, 0), self.presence(v, a, sd.in_a, sd.out_a));
        let mut moved = self.moved_bytes().to_vec();
        let home = natural as usize;
        moved[home] -= if a != home { size } else { 0 };
        let cost_home = geosim::cost::price(env, &moved);
        moved[home] += size;
        let cost_away = geosim::cost::price(env, &moved);

        let (g, ap) = (&self.gather, &self.apply);
        let live = |row: &[u64]| row.iter().map(|&x| x as f64).collect::<Vec<f64>>();
        let mut objectives = vec![self.objective(env); m];
        for b in Bits(dests & !(1u64 << a)) {
            let (mut gu, mut gd) = (live(g.up()), live(g.down()));
            let (mut au, mut ad) = (live(ap.up()), live(ap.down()));
            self.add_vertex(v, a, old, -1.0, &mut gu, &mut gd, &mut au, &mut ad);
            for &(x, delta) in &scratch.neighbors {
                let mx = self.meta[x as usize];
                let master_x = mx.master as usize;
                let (xg, xa) = (mx.g as f64, mx.a as f64);
                for (dc, d_in, d_out) in
                    [(a, delta.in_a, delta.out_a), (b, delta.in_b, delta.out_b)]
                {
                    if dc == master_x {
                        continue;
                    }
                    let (in_c, out_c) = self.counts_row(x).pair(dc);
                    let (gt, at) =
                        count_transitions(mx.high, in_c as i64, out_c as i64, d_in, d_out);
                    gu[dc] += gt * xg;
                    gd[master_x] += gt * xg;
                    au[master_x] += at * xa;
                    ad[dc] += at * xa;
                }
            }
            self.add_vertex(v, b, new, 1.0, &mut gu, &mut gd, &mut au, &mut ad);
            let movement_cost = if b == home { cost_home } else { cost_away };
            objectives[b] = self.objective_from_rows(env, movement_cost, [&gu, &gd, &au, &ad]);
        }
        objectives
    }

    /// Projects adding (`sign = 1`) or removing (`sign = -1`) vertex `v`'s
    /// full traffic contribution onto scratch rows, mastered at `master`
    /// and present at the DCs of `presence` ([`Self::presence`]).
    #[allow(clippy::too_many_arguments)]
    fn add_vertex(
        &self,
        v: VertexId,
        master: usize,
        presence: [u64; 2],
        sign: f64,
        gu: &mut [f64],
        gd: &mut [f64],
        au: &mut [f64],
        ad: &mut [f64],
    ) {
        let mv = self.meta[v as usize];
        let g = mv.g as f64 * sign;
        let a_bytes = mv.a as f64 * sign;
        let away = !(1u64 << master);
        for d in Bits(presence[0] & away) {
            gu[d] += g;
            gd[master] += g;
        }
        for d in Bits(presence[1] & away) {
            au[master] += a_bytes;
            ad[d] += a_bytes;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_merges_duplicates_and_sorts() {
        let mut s = MoveScratch::new();
        s.begin_stage();
        s.push_neighbor(2, CntDelta { out_a: -1, out_b: 1, ..Default::default() });
        s.push_neighbor(5, CntDelta { in_a: -1, in_b: 1, ..Default::default() });
        s.push_neighbor(5, CntDelta { in_a: -1, in_b: 1, ..Default::default() });
        s.push_second(1, CntDelta { in_a: -1, in_b: 1, ..Default::default() });
        s.push_second(5, CntDelta { out_a: -1, out_b: 1, ..Default::default() });
        s.push_second(9, CntDelta { out_a: -1, out_b: 1, ..Default::default() });
        s.seal();
        assert_eq!(
            s.neighbors,
            vec![
                (1, CntDelta { in_a: -1, in_b: 1, ..Default::default() }),
                (2, CntDelta { out_a: -1, out_b: 1, ..Default::default() }),
                (5, CntDelta { in_a: -2, in_b: 2, out_a: -1, out_b: 1 }),
                (9, CntDelta { out_a: -1, out_b: 1, ..Default::default() }),
            ]
        );
        // Idempotent.
        s.seal();
        assert_eq!(s.neighbors.len(), 4);
        // Either run alone.
        for second in [false, true] {
            s.begin_stage();
            for x in [3, 3, 4] {
                let delta = CntDelta { in_a: -1, in_b: 1, ..Default::default() };
                if second {
                    s.push_second(x, delta);
                } else {
                    s.push_neighbor(x, delta);
                }
            }
            s.seal();
            assert_eq!(
                s.neighbors.iter().map(|&(x, d)| (x, d.in_b)).collect::<Vec<_>>(),
                [(3, 2), (4, 1)]
            );
        }
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
    fn live_lanes_follow_the_rows_they_were_computed_from() {
        let (up, down) = ([1.0, 2.0, 4.0], [4.0, 2.0, 1.0]);
        let mut live = LiveLanes::default();
        let rows: [&[u64]; 4] = [&[4, 2, 4], &[4, 0, 1], &[0, 0, 0], &[8, 0, 0]];
        live.sync(rows, &up, &down);
        assert_eq!(live.ratio[0], [4.0, 1.0, 1.0]);
        assert_eq!(live.ratio[1], [2.0, 0.0, 0.0]);
        assert_eq!(live.untouched_max(0, 0), 4.0);
        assert_eq!(live.untouched_max(0, 0b001), 1.0);
        assert_eq!(live.untouched_max(0, 0b111), 0.0);
        assert_eq!(live.untouched_max(1, 0b110), 2.0);
        // The runners-up outside one lane, then outside a second one too.
        let runners = live.top_two(0, 0);
        let mut lanes = runners.0.map(|(d, _)| d);
        lanes.sort_unstable();
        assert_eq!(lanes, [1, 2]);
        assert_eq!((runners.skipping(0), runners.skipping(1)), (1.0, 1.0));
        assert_eq!(live.top_two(1, 0).skipping(3), 0.0);
        let lone = LiveLanes {
            ratio: [vec![5.0], vec![0.0]],
            desc: [vec![0], vec![0]],
            ..LiveLanes::default()
        };
        assert_eq!(lone.top_two(0, 0).0, [(usize::MAX, 0.0); 2]);
        assert_eq!(lone.top_two(0, 7).skipping(7), 5.0);
        // Any changed row re-syncs, whatever mutated it.
        let rows: [&[u64]; 4] = [&[4, 2, 4], &[4, 0, 1], &[0, 0, 0], &[8, 0, 12]];
        live.sync(rows, &up, &down);
        assert_eq!(live.ratio[1], [2.0, 0.0, 12.0]);
        assert_eq!(live.untouched_max(1, 0), 12.0);
        // So do other links.
        live.sync(rows, &up, &[4.0, 2.0, 12.0]);
        assert_eq!(live.untouched_max(1, 0), 2.0);
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
        for buf in [&mut s.base_gd, &mut s.row_gu] {
            buf.fill(777.0);
        }
        s.dest_gd.fill(777.0);
        s.diag_gu.fill(777.0);
        s.corr_g.fill(0b11);
        s.dest_dirty = 0b1010_1010;

        s.ensure_m(4);
        assert_eq!(s.objectives().len(), 4);
        assert_eq!((s.base_gd.len(), s.row_gu.len()), (4, 4));
        assert_eq!(s.dest_gd.len(), 16);

        s.ensure_m(8);
        assert_eq!(s.objectives().len(), 8);
        assert_eq!(s.dest_gd.len(), 64);
        // Stale poison survives below the shrink point in the len-M
        // buffers; the regrown region is zero. Both halves are overwritten
        // by the kernels' fills.
        assert!(s.base_gd[..4].iter().all(|&x| x == 777.0));
        assert!(s.base_gd[4..].iter().all(|&x| x == 0.0));
        // The dest arena came back fully zeroed with no dirty rows.
        assert!(s.dest_gd.iter().chain(&s.diag_gu).all(|&x| x == 0.0));
        assert!(s.corr_g.iter().all(|&x| x == 0));
        assert_eq!(s.dest_dirty, 0);
    }
}
