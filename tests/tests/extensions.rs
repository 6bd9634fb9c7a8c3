//! Integration tests for the beyond-the-paper extensions: Leopard, plan/env
//! persistence across crates, and the recency-weighted sampler inside a full
//! training run.

use geograph::locality::LocalityConfig;
use geograph::{Dataset, GeoGraph};
use geopart::{HybridState, TrafficProfile};
use geosim::regions::ec2_eight_regions;
use rlcut::RlCutConfig;

fn setup() -> (GeoGraph, geosim::CloudEnv) {
    let geo = GeoGraph::from_graph(
        Dataset::LiveJournal.generate(0.0005, 21),
        &LocalityConfig::paper_default(21),
    );
    (geo, ec2_eight_regions())
}

#[test]
fn leopard_streams_and_evaluates() {
    let (geo, env) = setup();
    let profile = TrafficProfile::uniform(geo.num_vertices(), 8.0);
    let leopard = geobase::Leopard::new(
        geo.num_vertices(),
        &geo.locations,
        geo.num_dcs,
        geobase::leopard::LeopardConfig::default(),
    );
    let plan = leopard.state(&geo, &env, profile.clone(), 10.0);
    // Bounded replication by construction.
    assert!(plan.replication_factor() <= 3.0 + 1e-9);
    // Better than random vertex-cut, worse than (or equal to) RLCut.
    let random = geobase::randpg(&geo, &env, profile.clone(), 10.0, 21);
    assert!(plan.objective(&env).transfer_time < random.objective(&env).transfer_time);
}

#[test]
fn plan_and_env_persistence_compose_across_crates() {
    let (geo, env) = setup();
    let dir = std::env::temp_dir().join("rlcut_ext_tests");
    std::fs::create_dir_all(&dir).unwrap();

    // Save the environment, reload it, and verify objectives agree.
    let env_path = dir.join("ec2.env");
    geosim::env_io::write_env(&env, &env_path).unwrap();
    let env2 = geosim::env_io::read_env(&env_path).unwrap();

    let budget = geosim::cost::default_budget(&env, &geo.locations, &geo.data_sizes, 0.4);
    let profile = TrafficProfile::uniform(geo.num_vertices(), 8.0);
    let config = RlCutConfig::new(budget).with_seed(5).with_threads(2);
    let result = rlcut::partition(&geo, &env, profile.clone(), 10.0, &config);

    let plan_path = dir.join("trained.plan");
    geopart::plan_io::save_assignment(result.state.core().masters(), &plan_path).unwrap();
    let masters = geopart::plan_io::load_assignment(&plan_path).unwrap();

    let rebuilt =
        HybridState::from_masters(&geo, &env2, masters, result.state.theta(), profile, 10.0);
    let a = result.final_objective(&env);
    let b = rebuilt.objective(&env2);
    assert!((a.transfer_time - b.transfer_time).abs() < 1e-12 * a.transfer_time.max(1e-12));
    assert!((a.total_cost() - b.total_cost()).abs() < 1e-9 * a.total_cost().max(1e-12));
    std::fs::remove_file(&env_path).ok();
    std::fs::remove_file(&plan_path).ok();
}

#[test]
fn recency_weighted_sampler_stays_within_budget_and_overhead() {
    let (geo, env) = setup();
    let budget = geosim::cost::default_budget(&env, &geo.locations, &geo.data_sizes, 0.4);
    let profile = TrafficProfile::uniform(geo.num_vertices(), 8.0);
    let t_opt = std::time::Duration::from_millis(300);
    let mut config = RlCutConfig::new(budget).with_seed(6).with_threads(2).with_t_opt(t_opt);
    config.sampling_recency = Some(0.5);
    let result = rlcut::partition(&geo, &env, profile, 10.0, &config);
    assert!(result.final_objective(&env).total_cost() <= budget);
    let total: f64 = result.steps.iter().map(|s| s.duration.as_secs_f64()).sum();
    assert!(total < 3.0 * t_opt.as_secs_f64(), "overhead {total}");
}
