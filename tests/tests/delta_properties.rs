//! Property tests of the incremental dynamic-window pipeline: for random
//! event streams (inserts *and* deletes, 1–8 windows) the in-place CSR
//! overlay must equal a from-scratch build of the edited edge set, the
//! delta-resumed placement state, moved and re-seeded between windows,
//! must be indistinguishable from a from-scratch rebuild and from an
//! edge-by-edge oracle of the placement rule and of its integer loads,
//! before and after a snapshot round trip, and the full adaptive pipeline
//! must be bit-deterministic across thread counts.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

use geodur::{Snapshot, SnapshotRef};
use geograph::dynamic::{EdgeEvent, EventKind};
use geograph::{DcId, GeoGraph, Graph, GraphBuilder, GraphDelta, VertexId};
use geopart::{reseed_stranded_masters, HybridState, MoveScratch, PlacementState, TrafficProfile};
use geosim::regions::ec2_eight_regions;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rlcut::{AdaptiveRlCut, RlCutConfig};

/// One raw op of a window: `(a, b, kind)` with `kind == 1` a delete.
/// Inserts become the edge `(a, b)`; deletes pick the `a`-th edge (mod
/// count) of the graph at window start, so deletions genuinely hit live
/// edges instead of missing the sparse edge space.
type RawOp = (u32, u32, u32);

/// `(n, initial_edges, windows_of_raw_ops, seed)`.
type RawStream = (usize, Vec<(u32, u32)>, Vec<Vec<RawOp>>, u64);

fn arb_stream() -> impl Strategy<Value = RawStream> {
    (8usize..24, 0u64..1000).prop_flat_map(|(n, seed)| {
        let initial = proptest::collection::vec((0..n as u32, 0..n as u32), 4..80);
        // Endpoints may exceed the initial vertex count: windows grow the
        // vertex table too.
        let windows = proptest::collection::vec(
            proptest::collection::vec((0u32..(n as u32 + 6), 0u32..(n as u32 + 6), 0u32..2), 0..30),
            1..8,
        );
        (Just(n), initial, windows, Just(seed))
    })
}

/// Materializes one window's raw ops into timestamped edge events over the
/// graph at window start.
fn window_events(graph: &Graph, ops: &[RawOp]) -> Vec<EdgeEvent> {
    let live: Vec<(VertexId, VertexId)> = graph.edges().collect();
    let mut events = Vec::with_capacity(ops.len());
    for (t, &(a, b, is_delete)) in ops.iter().enumerate() {
        let is_delete = is_delete == 1;
        let (src, dst, kind) = if is_delete && !live.is_empty() {
            let (u, v) = live[a as usize % live.len()];
            (u, v, EventKind::Delete)
        } else {
            if a == b {
                continue; // the builder drops self-loops; never emit one
            }
            (a, b, EventKind::Insert)
        };
        events.push(EdgeEvent { src, dst, timestamp_ms: t as u64, kind });
    }
    events
}

fn geo_for(graph: &Graph, seed: u64, num_dcs: usize) -> GeoGraph {
    let locations: Vec<DcId> = (0..graph.num_vertices() as u64)
        .map(|v| (geograph::fxhash::mix64(v ^ seed) % num_dcs as u64) as DcId)
        .collect();
    let sizes = vec![2048u64; graph.num_vertices()];
    GeoGraph::new(graph.clone(), locations, sizes, num_dcs)
}

/// The graph `events` edit `graph` into, built from scratch: the edge set
/// as a `BTreeSet` with every event applied in order (so the last event per
/// key wins), self-loops dropped, and the vertex count grown to the highest
/// id named. Shares no code with `GraphDelta` or the overlay.
fn edited_from_scratch(graph: &Graph, events: &[EdgeEvent]) -> Graph {
    let mut edges: BTreeSet<(VertexId, VertexId)> = graph.edges().collect();
    let mut n = graph.num_vertices();
    for e in events {
        n = n.max(e.src.max(e.dst) as usize + 1);
        if e.src == e.dst {
            continue;
        }
        match e.kind {
            EventKind::Insert => edges.insert((e.src, e.dst)),
            EventKind::Delete => edges.remove(&(e.src, e.dst)),
        };
    }
    Graph::from_edges(n, &edges.into_iter().collect::<Vec<_>>())
}

/// Advances `graph` in place by the delta of `events` and holds it (and the
/// copying `apply_delta`) against [`edited_from_scratch`].
fn assert_overlay_matches_scratch(graph: &mut Graph, events: &[EdgeEvent], what: &str) {
    let expected = edited_from_scratch(graph, events);
    let delta = GraphDelta::from_events(graph, events);
    assert_eq!(graph.apply_delta(&delta), expected, "{what}: apply_delta");
    graph.apply_delta_in_place(&delta);
    assert_eq!(*graph, expected, "{what}: apply_delta_in_place");
}

fn ev(src: VertexId, dst: VertexId, kind: EventKind) -> EdgeEvent {
    EdgeEvent { src, dst, timestamp_ms: 0, kind }
}

/// The overlay's edge cases, each against the from-scratch oracle: an empty
/// delta, delete-only and insert-only deltas, new isolated vertices, a
/// deletion that empties a row, an insertion into the last row, and a
/// delete-then-insert of one key (within a window, and across two).
#[test]
fn in_place_overlay_edge_cases_match_a_scratch_build() {
    use EventKind::{Delete, Insert};
    let base = Graph::from_edges(6, &[(0, 1), (0, 2), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]);
    let cases: Vec<(&str, Vec<EdgeEvent>)> = vec![
        ("empty", vec![]),
        ("delete-only", vec![ev(0, 2, Delete), ev(4, 5, Delete), ev(2, 0, Delete)]),
        ("insert-only", vec![ev(1, 0, Insert), ev(0, 3, Insert), ev(4, 3, Insert)]),
        ("new isolated vertices", vec![ev(9, 9, Insert)]),
        ("new vertices with edges", vec![ev(7, 0, Insert), ev(2, 8, Insert)]),
        ("deletion empties a row", vec![ev(0, 1, Delete), ev(0, 2, Delete)]),
        ("insertion into the last row", vec![ev(5, 0, Insert), ev(5, 4, Insert)]),
        ("insert past the last old row", vec![ev(5, 1, Insert), ev(6, 5, Insert)]),
        ("delete then insert one key", vec![ev(1, 2, Delete), ev(1, 2, Insert)]),
        ("insert then delete one key", vec![ev(1, 5, Insert), ev(1, 5, Delete)]),
        ("every row touched", (0..6).map(|v| ev(v, (v + 3) % 6, Insert)).collect()),
        (
            "mixed in one row",
            vec![ev(0, 1, Delete), ev(0, 3, Insert), ev(0, 2, Delete), ev(0, 5, Insert)],
        ),
    ];
    for (what, events) in &cases {
        assert_overlay_matches_scratch(&mut base.clone(), events, what);
    }
    // Chained in place on one graph, so the arrays' spare capacity from an
    // earlier window is reused: delete a key, re-insert it, empty the graph.
    let mut graph = base.clone();
    assert_overlay_matches_scratch(&mut graph, &[ev(3, 4, Delete)], "window 1");
    assert_overlay_matches_scratch(&mut graph, &[ev(3, 4, Insert)], "window 2");
    let all: Vec<EdgeEvent> = graph.edges().map(|(u, v)| ev(u, v, Delete)).collect();
    assert_overlay_matches_scratch(&mut graph, &all, "window 3");
    assert_eq!(graph.num_edges(), 0);
    assert_overlay_matches_scratch(&mut graph, &[ev(5, 0, Insert), ev(0, 5, Insert)], "window 4");
}

/// `(in, out)` edge counts of every occupied `(vertex, dc)` cell.
type OracleCells = BTreeMap<(VertexId, DcId), (u32, u32)>;

/// The hybrid-cut rule (§IV-B) applied edge by edge, sharing no code with
/// `geopart`: an in-edge of a vertex whose in-degree is below θ sits at
/// that vertex's master, one of a vertex at or above θ at its source's
/// master. Returns the occupied cells and the number of edges at each DC.
fn oracle(graph: &Graph, masters: &[DcId], theta: usize) -> (OracleCells, BTreeMap<DcId, u64>) {
    let mut in_degree: BTreeMap<VertexId, usize> = BTreeMap::new();
    for (_, v) in graph.edges() {
        *in_degree.entry(v).or_default() += 1;
    }
    let mut cells = OracleCells::new();
    let mut per_dc: BTreeMap<DcId, u64> = BTreeMap::new();
    for (u, v) in graph.edges() {
        let d = if in_degree[&v] >= theta { masters[u as usize] } else { masters[v as usize] };
        cells.entry((u, d)).or_default().1 += 1;
        cells.entry((v, d)).or_default().0 += 1;
        *per_dc.entry(d).or_default() += 1;
    }
    (cells, per_dc)
}

/// A seeded traffic profile keyed on vertex id (so it agrees across
/// windows on every existing vertex) whose values are mostly not whole
/// load units (multiples of 1/256 B).
fn ragged_profile(n: usize, seed: u64) -> TrafficProfile {
    let bytes = |v: usize, salt: u64| {
        (geograph::fxhash::mix64(v as u64 ^ seed ^ salt) % 10_000) as f32 * 0.0137 + 0.3
    };
    TrafficProfile {
        gather_bytes: (0..n).map(|v| bytes(v, 1)).collect(),
        apply_bytes: (0..n).map(|v| bytes(v, 2)).collect(),
    }
}

/// `bytes` in 1/256 B units, rounded to nearest (written here, not taken
/// from `geopart`).
fn oracle_units(bytes: f32) -> u64 {
    (bytes as f64 * 256.0).round() as u64
}

/// Every `(v, d)` in/out count, every mirror mask and the per-DC balance of
/// `state` must be the oracle's for `geo` under `state`'s masters; and so,
/// compared with `==`, must its per-DC gather/apply load units and Eq 4
/// moved bytes, derived from the oracle's cells and `profile`: a high
/// vertex receives `g_v` from each non-master DC holding an in-edge, and
/// every vertex sends `a_v` to each mirror.
fn assert_matches_oracle(
    state: &PlacementState,
    geo: &GeoGraph,
    profile: &TrafficProfile,
    theta: usize,
    what: &str,
) {
    let graph = &geo.graph;
    let (cells, per_dc) = oracle(graph, state.masters(), theta);
    let m = state.num_dcs();
    let (mut gather, mut apply) = ((vec![0u64; m], vec![0u64; m]), (vec![0u64; m], vec![0u64; m]));
    for v in graph.vertices() {
        let master = state.master(v);
        let high = graph.in_degree(v) >= theta;
        let (g, a) = (
            oracle_units(profile.gather_bytes[v as usize]),
            oracle_units(profile.apply_bytes[v as usize]),
        );
        let mut mirrors = 0u64;
        for d in 0..m as DcId {
            let (inc, out) = cells.get(&(v, d)).copied().unwrap_or_default();
            let got = (state.in_count(v, d), state.out_count(v, d));
            assert_eq!(got, (inc, out), "{what}: (in, out) of cell ({v}, {d})");
            if inc + out > 0 && d != master {
                mirrors |= 1 << d;
                apply.0[master as usize] += a;
                apply.1[d as usize] += a;
                if high && inc > 0 {
                    gather.0[d as usize] += g;
                    gather.1[master as usize] += g;
                }
            }
        }
        assert_eq!(state.mirror_mask(v), mirrors, "{what}: mirror mask of {v}");
    }
    let balance: Vec<u64> = (0..m as DcId).map(|d| per_dc.get(&d).copied().unwrap_or(0)).collect();
    assert_eq!(state.edges_per_dc(), &balance[..], "{what}: edges per DC");
    let rows = |loads: &geosim::StageLoads| (loads.up().to_vec(), loads.down().to_vec());
    assert_eq!(rows(state.gather_loads()), gather, "{what}: gather units");
    assert_eq!(rows(state.apply_loads()), apply, "{what}: apply units");
    let mut moved = vec![0u64; m];
    for v in graph.vertices() {
        let home = geo.locations[v as usize];
        if state.master(v) != home {
            moved[home as usize] += geo.data_sizes[v as usize];
        }
    }
    assert_eq!(state.moved_bytes(), &moved[..], "{what}: moved bytes");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The in-place overlay, chained on one graph across every window of a
    /// stream, equals a from-scratch build of the edited edge set after
    /// each window (and so does the copying `apply_delta`).
    #[test]
    fn in_place_overlay_matches_a_scratch_build((n, initial, windows, _) in arb_stream()) {
        let mut graph = {
            let mut b = GraphBuilder::new(n);
            b.add_edges(initial);
            b.build()
        };
        for (i, ops) in windows.iter().enumerate() {
            let events = window_events(&graph, ops);
            assert_overlay_matches_scratch(&mut graph, &events, &format!("window {i}"));
        }
    }

    /// An empty `GraphDelta` is a strict no-op through every layer of the
    /// pipeline: `Graph::apply_delta` returns an equal graph, the
    /// placement-state delta apply performs zero work items and leaves the
    /// plan bit-identical, and `AdaptiveRlCut::on_window_delta` reports a
    /// zero-work window that preserves the carried masters.
    #[test]
    fn empty_delta_is_a_strict_noop((n, initial, _, seed) in arb_stream()) {
        let env = ec2_eight_regions();
        let graph = {
            let mut b = GraphBuilder::new(n);
            b.add_edges(initial);
            b.build()
        };
        let empty = GraphDelta::from_events(&graph, &[]);
        prop_assert!(empty.is_empty());
        prop_assert_eq!(empty.touched().len(), 0);
        prop_assert_eq!(empty.num_edge_changes(), 0);

        // Layer 1: the CSR overlay.
        let advanced = graph.apply_delta(&empty);
        prop_assert_eq!(&advanced, &graph);

        // Layer 2: the placement state. Zero work items, and the resumed
        // plan is bit-identical on integer state (masters, classes) and
        // survives the rebuild-and-compare.
        let geo = geo_for(&graph, seed, env.num_dcs());
        let theta = 3;
        let profile = TrafficProfile::uniform(geo.num_vertices(), 8.0);
        let state = HybridState::from_masters(
            &geo, &env, geo.locations.clone(), theta, profile.clone(), 10.0,
        );
        let masters_before = state.core().masters().to_vec();
        let (core, th) = state.into_parts();
        let (resumed, stats) =
            HybridState::resume_from_parts(core, th, &geo, &env, &empty, &profile)
                .expect("empty delta must resume");
        prop_assert_eq!(stats.work_items(), 0, "empty delta must do zero work");
        prop_assert_eq!(resumed.core().masters(), masters_before.as_slice());
        resumed.validate_plan(&env).expect("no-op resume diverged from rebuild");

        // Layer 3: the adaptive pipeline. A zero sample rate isolates the
        // delta path — with no training moves, an empty delta must leave
        // the carried masters untouched and report a zero-work window.
        let config = RlCutConfig::new(f64::INFINITY)
            .with_seed(seed)
            .with_theta(3)
            .with_fixed_sample_rate(0.0)
            .with_max_steps(2);
        let mut adaptive = AdaptiveRlCut::new(config, None);
        let t_opt = Duration::from_millis(100);
        adaptive
            .on_window(&geo, &env, profile.clone(), 10.0, t_opt)
            .expect("window 0");
        let carried = adaptive.masters().to_vec();
        let report = adaptive
            .on_window_delta(&geo, &env, &empty, profile, 10.0, t_opt)
            .expect("empty delta window");
        let stats = report.delta_stats.expect("delta path must be taken");
        prop_assert_eq!(stats.work_items(), 0, "empty window must report zero work items");
        prop_assert_eq!(report.migrations, 0);
        prop_assert_eq!(adaptive.masters(), carried.as_slice());
    }

    /// Pure state-level equivalence, exact: a placement state carried
    /// through `resume_from_parts` across every window, with random moves
    /// and one dead-DC re-seed applied between windows and a seeded
    /// profile whose values are mostly not whole load units, must equal a
    /// from-scratch `from_masters` rebuild with `==` — counts, loads, moved
    /// bytes, their price and the objective — which is what
    /// `validate_plan` checks. Because that rebuild and the snapshot
    /// decoder share one kernel, every count, mirror mask, per-DC balance,
    /// load unit and moved byte is also held against the edge-by-edge
    /// oracle, for the live, the rebuilt and the snapshot-decoded state.
    #[test]
    fn resumed_state_matches_rebuild((n, initial, windows, seed) in arb_stream()) {
        let env = ec2_eight_regions();
        let m = env.num_dcs();
        let theta = 3;
        let mut graph = {
            let mut b = GraphBuilder::new(n);
            b.add_edges(initial);
            b.build()
        };
        let geo0 = geo_for(&graph, seed, m);
        let profile0 = ragged_profile(geo0.num_vertices(), seed);
        let state0 = HybridState::from_masters(
            &geo0, &env, geo0.locations.clone(), theta, profile0.clone(), 10.0,
        );
        assert_matches_oracle(state0.core(), &geo0, &profile0, theta, "built");
        let mut carried = Some(state0.into_parts());
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut scratch = MoveScratch::new();

        for ops in &windows {
            let events = window_events(&graph, ops);
            let delta = GraphDelta::from_events(&graph, &events);
            graph.apply_delta_in_place(&delta);
            let geo = geo_for(&graph, seed, m);
            let profile = ragged_profile(geo.num_vertices(), seed);
            let (core, th) = carried.take().unwrap();
            let (mut state, stats) = HybridState::resume_from_parts(
                core, th, &geo, &env, &delta, &profile,
            ).expect("resume must accept its own successor snapshot");
            // Zero-rebuild probe: the resume's work scales with the delta.
            prop_assert!(
                stats.work_items()
                    <= 8 * (delta.num_edge_changes() + delta.touched().len()) + 8,
                "delta work {} vs delta size {}",
                stats.work_items(), delta.num_edge_changes()
            );
            state.validate_plan(&env).expect("resumed state diverged from rebuild");
            assert_matches_oracle(state.core(), &geo, &profile, theta, "resumed");

            // Moves in a random order, then a dead DC's re-seed applied as
            // the trainer applies it: one move per stranded master.
            for _ in 0..rng.gen_range(0..12usize) {
                let v = rng.gen_range(0..geo.num_vertices()) as VertexId;
                state.apply_move_with(&env, v, rng.gen_range(0..m) as DcId, &mut scratch);
            }
            let mut dead = vec![false; m];
            dead[rng.gen_range(0..m)] = true;
            let mut reseeded = state.core().masters().to_vec();
            reseed_stranded_masters(&mut reseeded, &geo.locations, &dead, m)
                .expect("one dead DC of eight");
            for (v, &d) in reseeded.iter().enumerate() {
                state.apply_move_with(&env, v as VertexId, d, &mut scratch);
            }

            state.validate_plan(&env).expect("moved state diverged from rebuild");
            assert_matches_oracle(state.core(), &geo, &profile, theta, "live");
            let rebuilt = HybridState::from_masters(
                &geo, &env, reseeded, theta, profile.clone(), 10.0,
            );
            assert_matches_oracle(rebuilt.core(), &geo, &profile, theta, "rebuilt");
            prop_assert_eq!(state.objective(&env), rebuilt.objective(&env));
            let snapshot = SnapshotRef {
                lsn: 0,
                window: 0,
                env_fp: 0,
                geo: &geo,
                placement: Some((state.core(), theta)),
                trainer: None,
            };
            let bytes = snapshot.to_bytes().expect("a cleaned graph encodes");
            let decoded = Snapshot::from_bytes(&bytes).expect("own snapshot decodes");
            let (restored, _) = decoded.placement.as_ref().expect("placement travels");
            assert_matches_oracle(restored, &geo, &profile, theta, "decoded");
            prop_assert_eq!(restored.objective(&env), state.objective(&env));
            carried = Some(state.into_parts());
        }
    }

    /// Full-pipeline determinism: the adaptive trainer driven over the
    /// same delta stream at 1 and 4 threads must produce bit-identical
    /// masters after every window, and its carried state must survive the
    /// rebuild-and-compare each time. A DC outage is noted halfway: every
    /// window still resumes the carried state, the re-seed must not depend
    /// on the thread count either, and from the fault window on no plan
    /// touches the dead DC.
    #[test]
    fn delta_pipeline_is_thread_deterministic((n, initial, windows, seed) in arb_stream()) {
        let env = ec2_eight_regions();
        let mut graph = {
            let mut b = GraphBuilder::new(n);
            b.add_edges(initial);
            b.build()
        };
        let config = RlCutConfig::new(f64::INFINITY)
            .with_seed(seed)
            .with_theta(3)
            .with_fixed_sample_rate(0.2)
            .with_max_steps(2);
        let mut one = AdaptiveRlCut::new(config.clone().with_threads(1), None);
        let mut four = AdaptiveRlCut::new(config.with_threads(4), None);
        let t_opt = Duration::from_millis(100);

        let geo0 = geo_for(&graph, seed, env.num_dcs());
        let p0 = TrafficProfile::uniform(geo0.num_vertices(), 8.0);
        one.on_window(&geo0, &env, p0.clone(), 10.0, t_opt).expect("1-thread window 0");
        four.on_window(&geo0, &env, p0, 10.0, t_opt).expect("4-thread window 0");
        prop_assert_eq!(one.masters(), four.masters());

        let fault_window = windows.len() / 2;
        let mut dead = vec![false; env.num_dcs()];
        dead[(seed % env.num_dcs() as u64) as usize] = true;
        for (i, ops) in windows.iter().enumerate() {
            let events = window_events(&graph, ops);
            let delta = GraphDelta::from_events(&graph, &events);
            graph.apply_delta_in_place(&delta);
            let geo = geo_for(&graph, seed, env.num_dcs());
            let profile = TrafficProfile::uniform(geo.num_vertices(), 8.0);
            if i == fault_window {
                one.note_fault(&dead).expect("well-formed fault report");
                four.note_fault(&dead).expect("well-formed fault report");
            }
            let r1 = one
                .on_window_delta(&geo, &env, &delta, profile.clone(), 10.0, t_opt)
                .unwrap_or_else(|e| panic!("1-thread window {i}: {e}"));
            let r4 = four
                .on_window_delta(&geo, &env, &delta, profile, 10.0, t_opt)
                .unwrap_or_else(|e| panic!("4-thread window {i}: {e}"));
            prop_assert!(r1.delta_stats.is_some(), "window {} must take the delta path", i);
            prop_assert_eq!(
                r1.delta_stats, r4.delta_stats,
                "window {}: delta work must not depend on threads", i
            );
            prop_assert_eq!(
                one.masters(), four.masters(),
                "window {}: trained plans diverged across thread counts", i
            );
            prop_assert!(
                one.validate_carried(&geo, &env).expect("carried state diverged"),
                "window {} must carry a state", i
            );
            if i >= fault_window {
                let (core, theta) = one.carried_parts().cloned().expect("carried");
                HybridState::from_parts(core, theta, &geo)
                    .validate_against_faults(&dead)
                    .unwrap_or_else(|e| panic!("window {i}'s plan touches the dead DC: {e}"));
            }
        }
    }
}
