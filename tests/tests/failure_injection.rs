//! Failure-injection and boundary tests: malformed inputs, degenerate
//! graphs, extreme configurations — the system must fail loudly (typed
//! errors or panics with clear messages), never silently corrupt a plan.

use geograph::locality::LocalityConfig;
use geograph::{GeoGraph, Graph};
use geopart::{HybridState, MoveScratch, TrafficProfile};
use geosim::regions::ec2_eight_regions;
use rlcut::RlCutConfig;
use std::io::Cursor;

#[test]
fn malformed_edge_lists_are_typed_errors() {
    for bad in ["1 two\n", "only_one_token\n", "1 2 extra is fine\nnonsense\n"] {
        let result = geograph::io::parse_edge_list(Cursor::new(bad));
        match result {
            Err(geograph::io::IoError::Parse { line, .. }) => assert!(line >= 1),
            Err(other) => panic!("wrong error type for {bad:?}: {other:?}"),
            Ok(g) => {
                // The third case: trailing tokens are allowed, the
                // "nonsense" line must error — so Ok is only fine if it
                // never reached it.
                panic!("accepted malformed input {bad:?} as {} edges", g.num_edges())
            }
        }
    }
}

#[test]
fn corrupt_plans_never_load() {
    let dir = std::env::temp_dir().join("rlcut_failure_tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("victim.plan");
    geopart::plan_io::save_assignment(&[0, 1, 2, 3, 4, 5, 6, 7], &path).unwrap();
    let original = std::fs::read_to_string(&path).unwrap();

    // Bit-flip every data line one at a time; every mutation must be caught.
    for (i, line) in original.lines().enumerate().skip(1) {
        let flipped = if line == "0" { "1" } else { "0" };
        let mutated: Vec<String> = original
            .lines()
            .enumerate()
            .map(|(j, l)| if j == i { flipped.to_string() } else { l.to_string() })
            .collect();
        std::fs::write(&path, mutated.join("\n")).unwrap();
        assert!(
            geopart::plan_io::load_assignment(&path).is_err(),
            "tampered line {i} loaded silently"
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn empty_and_singleton_graphs_survive_the_pipeline() {
    let env = ec2_eight_regions();
    for n in [1usize, 2] {
        let geo = GeoGraph::new(Graph::empty(n), vec![0; n], vec![65536; n], 8);
        let profile = TrafficProfile::uniform(n, 8.0);
        let state = HybridState::natural(&geo, &env, 8, profile.clone(), 10.0);
        let obj = state.objective(&env);
        assert_eq!(obj.transfer_time, 0.0);
        // Training on a traffic-free graph converges instantly.
        let config = RlCutConfig::new(1.0).with_seed(1).with_threads(2);
        let result = rlcut::partition(&geo, &env, profile, 10.0, &config);
        assert!(result.converged || result.steps.is_empty());
        assert_eq!(result.final_objective(&env).transfer_time, 0.0);
    }
}

#[test]
fn self_loop_heavy_input_is_cleaned_not_crashed() {
    // Builders drop self-loops; the partitioning stack must behave as if
    // they never existed.
    let mut b = geograph::GraphBuilder::new(16);
    for v in 0..16u32 {
        b.add_edge(v, v);
        b.add_edge(v, (v + 1) % 16);
    }
    let g = b.build();
    assert_eq!(g.num_edges(), 16, "self-loops must be dropped");
    let geo = GeoGraph::from_graph(g, &LocalityConfig::uniform(4, 1));
    let env = geosim::CloudEnv::new(
        (0..4)
            .map(|i| geosim::Datacenter::from_gb_units(&format!("d{i}"), 1.0, 2.0, 0.1))
            .collect(),
    );
    let profile = TrafficProfile::uniform(16, 8.0);
    let mut state = HybridState::natural(&geo, &env, 2, profile, 10.0);
    let mut scratch = MoveScratch::new();
    for v in 0..16u32 {
        state.apply_move_with(&env, v, (v % 4) as u8, &mut scratch);
    }
    state.check_consistency(&env);
}

#[test]
fn zero_budget_yields_natural_placement() {
    // With budget 0 every master move is infeasible: the best feasible
    // plan is the natural one (movement cost 0).
    let g = geograph::generators::erdos_renyi(500, 3000, 2);
    let geo = GeoGraph::from_graph(g, &LocalityConfig::paper_default(2));
    let env = ec2_eight_regions();
    let profile = TrafficProfile::uniform(geo.num_vertices(), 8.0);
    let natural = HybridState::natural(&geo, &env, 8, profile.clone(), 10.0).objective(&env);
    // Natural runtime cost is nonzero, so a 0 budget is unsatisfiable;
    // the trainer then returns the lowest-cost plan it saw, which must
    // cost no more than natural.
    let config = RlCutConfig::new(0.0).with_seed(2).with_threads(2);
    let result = rlcut::partition(&geo, &env, profile, 10.0, &config);
    assert!(result.final_objective(&env).total_cost() <= natural.total_cost() * (1.0 + 1e-9));
}

#[test]
fn single_dc_environment_degenerates_gracefully() {
    let g = geograph::generators::erdos_renyi(200, 1000, 3);
    let geo = GeoGraph::from_graph(g, &LocalityConfig::uniform(1, 3));
    let env = geosim::CloudEnv::new(vec![geosim::Datacenter::from_gb_units("solo", 1.0, 2.0, 0.1)]);
    let profile = TrafficProfile::uniform(geo.num_vertices(), 8.0);
    let state = HybridState::natural(&geo, &env, 4, profile.clone(), 10.0);
    assert_eq!(state.objective(&env).transfer_time, 0.0);
    let config = RlCutConfig::new(1.0).with_seed(3).with_threads(2);
    let result = rlcut::partition(&geo, &env, profile, 10.0, &config);
    assert_eq!(result.final_objective(&env).transfer_time, 0.0);
    assert_eq!(result.total_migrations(), 0);
}

#[test]
fn env_file_boundary_cases() {
    // Negative price rejected.
    assert!(geosim::env_io::parse_env(Cursor::new("a 1 1 -0.1\n")).is_err());
    // 65 DCs exceed the bitmask limit — the parser rejects them with a
    // typed error before the CloudEnv constructor's assert can trip.
    let many: String = (0..65).map(|i| format!("dc{i} 1 1 0.1\n")).collect();
    match geosim::env_io::parse_env(Cursor::new(many.as_bytes())) {
        Err(geosim::env_io::EnvIoError::TooManyDcs { count, max }) => {
            assert_eq!(count, 65);
            assert_eq!(max, geograph::MAX_DCS);
        }
        other => panic!("65-DC environment must be rejected with TooManyDcs, got {other:?}"),
    }
}
