//! Property-based tests of the cross-crate invariants the whole
//! reproduction rests on.

use geograph::generators::{rmat, RmatConfig};
use geograph::locality::LocalityConfig;
use geograph::{GeoGraph, Graph, GraphBuilder};
use geopart::{HybridState, MoveScratch, Objective, TrafficProfile};
use geosim::regions::ec2_eight_regions;
use proptest::prelude::*;

/// An arbitrary small digraph: vertex count 2..40, edges as index pairs.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (2usize..40).prop_flat_map(|n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..120).prop_map(move |edges| {
            let mut b = GraphBuilder::new(n);
            b.add_edges(edges);
            b.build()
        })
    })
}

fn arb_geo() -> impl Strategy<Value = (GeoGraph, u64)> {
    (arb_graph(), 0u64..1000)
        .prop_map(|(g, seed)| (GeoGraph::from_graph(g, &LocalityConfig::paper_default(seed)), seed))
}

/// A random skewed R-MAT graph (the regime the batched kernel targets:
/// power-law degrees with genuine hubs), 256..1024 vertices.
fn arb_rmat_geo() -> impl Strategy<Value = GeoGraph> {
    (8usize..32, 4usize..16, 0u64..1000).prop_map(|(n_scale, density, seed)| {
        let n = n_scale * 32;
        let g = rmat(&RmatConfig::social(n, n * density), seed);
        GeoGraph::from_graph(g, &LocalityConfig::paper_default(seed ^ 0xa5a5))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The incremental move evaluator must agree with applying the move —
    /// for arbitrary graphs, thresholds and move sequences.
    #[test]
    fn evaluate_matches_apply_on_arbitrary_graphs(
        (geo, seed) in arb_geo(),
        theta in 1usize..6,
        moves in proptest::collection::vec((0u32..40, 0u8..8), 1..30),
    ) {
        let env = ec2_eight_regions();
        let profile = TrafficProfile::uniform(geo.num_vertices(), 8.0);
        let mut state = HybridState::from_masters(
            &geo, &env, geo.locations.clone(), theta, profile, 10.0,
        );
        let _ = seed;
        let mut scratch = MoveScratch::new();
        for (v, to) in moves {
            let v = v % geo.num_vertices() as u32;
            let predicted = state.evaluate_moves(&env, v, 1 << to, true, &mut scratch)[to as usize];
            state.apply_move_with(&env, v, to, &mut scratch);
            let actual = state.objective(&env);
            prop_assert!(
                (predicted.transfer_time - actual.transfer_time).abs()
                    <= 1e-9 * actual.transfer_time.max(1e-12),
                "time mismatch: {} vs {}", predicted.transfer_time, actual.transfer_time
            );
            prop_assert!(
                (predicted.total_cost() - actual.total_cost()).abs()
                    <= 1e-9 * actual.total_cost().max(1e-12),
                "cost mismatch: {} vs {}", predicted.total_cost(), actual.total_cost()
            );
        }
        state.check_consistency(&env);
    }

    /// The batched one-sweep kernel must be **bit-for-bit** identical to M
    /// independent per-candidate evaluations — every destination, every
    /// Objective field, `f64::to_bits` equality — on random R-MAT graphs,
    /// interleaved with applied moves so the live counts keep changing.
    /// The kernel takes its destinations as a mask: a random non-empty
    /// subset must equal the full sweep's slots too. Masked and single
    /// calls run on one arena right after a full sweep of another vertex,
    /// so each starts by restoring the correction rows that sweep dirtied.
    #[test]
    fn batched_evaluation_is_bitwise_sequential(
        geo in arb_rmat_geo(),
        theta in 2usize..12,
        moves in proptest::collection::vec(
            (0u32..u32::MAX, 0u8..8, 1u64..256, 0u32..u32::MAX), 1..20,
        ),
    ) {
        let env = ec2_eight_regions();
        let n = geo.num_vertices() as u32;
        let profile = TrafficProfile::uniform(geo.num_vertices(), 8.0);
        let mut state = HybridState::from_masters(
            &geo, &env, geo.locations.clone(), theta, profile, 10.0,
        );
        let all = u64::MAX >> (64 - env.num_dcs());
        let mut batched = MoveScratch::new();
        let mut shared = MoveScratch::new();
        let bits = |o: &Objective| (
            o.transfer_time.to_bits(), o.movement_cost.to_bits(), o.runtime_cost.to_bits(),
        );
        for (v, to, dests, other) in moves {
            let (v, other) = (v % n, other % n);
            let objs = state.evaluate_moves(&env, v, all, true, &mut batched).to_vec();
            state.evaluate_moves(&env, other, all, true, &mut shared);
            let masked = state.evaluate_moves(&env, v, dests, true, &mut shared).to_vec();
            for (d, b) in objs.iter().enumerate() {
                if dests >> d & 1 == 1 {
                    prop_assert_eq!(
                        bits(b), bits(&masked[d]),
                        "masked slot differs at v={} d={} dests={:#010b}: {:?} vs {:?}",
                        v, d, dests, b, masked[d]
                    );
                }
                state.evaluate_moves(&env, other, all, true, &mut shared);
                let s = state.evaluate_moves(&env, v, 1 << d, true, &mut shared)[d];
                prop_assert_eq!(
                    bits(b), bits(&s),
                    "single slot differs at v={} d={}: {:?} vs {:?}", v, d, b, s
                );
            }
            state.apply_move_with(&env, v, to, &mut shared);
        }
        state.check_consistency(&env);
    }

    /// A scratch arena cycled across environment widths (8 DCs → 4 DCs →
    /// 8 DCs) must produce bit-identical objectives to a fresh arena: the
    /// shrink-then-grow round-trip leaves stale lanes in the buffers, and
    /// the kernels must never let them reach an objective.
    #[test]
    fn scratch_reuse_across_widths_is_bitwise_clean(
        geo8 in arb_rmat_geo(),
        seed4 in 0u64..1000,
        probes in proptest::collection::vec((0u32..u32::MAX, 0u32..u32::MAX), 1..12),
    ) {
        let env8 = ec2_eight_regions();
        let env4 = geosim::CloudEnv::new(env8.dcs()[..4].to_vec());
        let g4 = rmat(&RmatConfig::social(256, 2048), seed4);
        let geo4 = GeoGraph::from_graph(g4, &LocalityConfig::uniform(4, seed4));

        let profile8 = TrafficProfile::uniform(geo8.num_vertices(), 8.0);
        let s8 = HybridState::from_masters(
            &geo8, &env8, geo8.locations.clone(), 4, profile8, 10.0,
        );
        let profile4 = TrafficProfile::uniform(geo4.num_vertices(), 8.0);
        let s4 = HybridState::from_masters(
            &geo4, &env4, geo4.locations.clone(), 4, profile4, 10.0,
        );

        let (all8, all4) = (u64::MAX >> (64 - 8), u64::MAX >> (64 - 4));
        let mut shared = MoveScratch::new();
        for (p8, p4) in probes {
            let v8 = p8 % geo8.num_vertices() as u32;
            let v4 = p4 % geo4.num_vertices() as u32;
            s8.evaluate_moves(&env8, v8, all8, true, &mut shared);
            s4.evaluate_moves(&env4, v4, all4, true, &mut shared);
            let reused = s8.evaluate_moves(&env8, v8, all8, true, &mut shared).to_vec();
            let mut fresh = MoveScratch::new();
            let clean = s8.evaluate_moves(&env8, v8, all8, true, &mut fresh);
            for (d, (r, c)) in reused.iter().zip(clean).enumerate() {
                prop_assert_eq!(
                    r.transfer_time.to_bits(), c.transfer_time.to_bits(),
                    "transfer_time bits differ at v={} d={}", v8, d
                );
                prop_assert_eq!(
                    r.movement_cost.to_bits(), c.movement_cost.to_bits(),
                    "movement_cost bits differ at v={} d={}", v8, d
                );
                prop_assert_eq!(
                    r.runtime_cost.to_bits(), c.runtime_cost.to_bits(),
                    "runtime_cost bits differ at v={} d={}", v8, d
                );
            }
        }
    }

    /// Replication factor is always in [1, M] and exactly 1 when all
    /// masters share one DC.
    #[test]
    fn replication_factor_bounds((geo, _) in arb_geo(), theta in 1usize..6) {
        let env = ec2_eight_regions();
        let profile = TrafficProfile::uniform(geo.num_vertices(), 8.0);
        let natural = HybridState::from_masters(
            &geo, &env, geo.locations.clone(), theta, profile.clone(), 10.0,
        );
        let lambda = natural.core().replication_factor();
        prop_assert!((1.0..=8.0).contains(&lambda), "λ = {lambda}");

        let centralized = HybridState::from_masters(
            &geo, &env, vec![3; geo.num_vertices()], theta, profile, 10.0,
        );
        prop_assert!((centralized.core().replication_factor() - 1.0).abs() < 1e-12);
        prop_assert_eq!(centralized.objective(&env).transfer_time, 0.0);
    }

    /// Round-tripping a move always restores the objective exactly.
    #[test]
    fn move_round_trip_is_identity(
        (geo, _) in arb_geo(),
        v in 0u32..40,
        to in 0u8..8,
    ) {
        let env = ec2_eight_regions();
        let v = v % geo.num_vertices() as u32;
        let profile = TrafficProfile::uniform(geo.num_vertices(), 8.0);
        let mut state = HybridState::from_masters(
            &geo, &env, geo.locations.clone(), 3, profile, 10.0,
        );
        let before = state.objective(&env);
        let home = state.master(v);
        let mut scratch = MoveScratch::new();
        state.apply_move_with(&env, v, to, &mut scratch);
        state.apply_move_with(&env, v, home, &mut scratch);
        let after = state.objective(&env);
        prop_assert!((before.transfer_time - after.transfer_time).abs() < 1e-12);
        prop_assert!((before.total_cost() - after.total_cost()).abs() < 1e-12);
    }

    /// The engine's all-active PageRank traffic equals the static Eq 1
    /// model for arbitrary graphs and thresholds.
    #[test]
    fn engine_matches_static_model((geo, _) in arb_geo(), theta in 1usize..6) {
        let env = ec2_eight_regions();
        let algo = geoengine::Algorithm::PageRank { iterations: 3, damping: 0.85 };
        let profile = algo.profile(&geo);
        let state = HybridState::from_masters(
            &geo, &env, geo.locations.clone(), theta, profile, 3.0,
        );
        let report = geoengine::execute_plan(&geo, &env, state.core(), None, &algo);
        let static_time = state.objective(&env).transfer_time;
        for &t in &report.per_iteration_time {
            prop_assert!(
                (t - static_time).abs() <= 1e-9 * static_time.max(1e-12),
                "engine {t} vs static {static_time}"
            );
        }
    }

    /// Graph structural invariants survive building from arbitrary edges.
    #[test]
    fn csr_degree_sums_match_edge_count(g in arb_graph()) {
        let n = g.num_vertices() as u32;
        let out_sum: usize = (0..n).map(|v| g.out_degree(v)).sum();
        let in_sum: usize = (0..n).map(|v| g.in_degree(v)).sum();
        prop_assert_eq!(out_sum, g.num_edges());
        prop_assert_eq!(in_sum, g.num_edges());
        // Builder cleaning: no self loops, no duplicates.
        let mut seen = std::collections::HashSet::new();
        for (u, v) in g.edges() {
            prop_assert_ne!(u, v);
            prop_assert!(seen.insert((u, v)));
        }
    }
}
