//! Dynamic-graph pipeline: windows of arriving edges, both adaptive
//! partitioners, budgets recomputed per window.

use std::time::Duration;

use geobase::spinner::{Spinner, SpinnerConfig};
use geograph::dynamic::{apply_events, DiurnalModel};
use geograph::locality::{assign_locations, LocalityConfig};
use geograph::{GeoGraph, GraphBuilder, VertexId};
use geopart::TrafficProfile;
use geosim::regions::ec2_eight_regions;
use rlcut::{AdaptiveRlCut, RlCutConfig};

fn snapshot(builder: &GraphBuilder, locality: &LocalityConfig) -> GeoGraph {
    let graph = builder.build();
    let locations = assign_locations(&graph, locality);
    let sizes: Vec<u64> = (0..graph.num_vertices() as VertexId)
        .map(|v| 65536 + 256 * graph.out_degree(v) as u64)
        .collect();
    GeoGraph::new(graph, locations, sizes, locality.num_dcs)
}

#[test]
fn rlcut_and_spinner_track_a_growing_graph() {
    let env = ec2_eight_regions();
    let model = DiurnalModel { mean_rate: 150.0, seed: 3, ..Default::default() };
    let (initial, stream) = model.generate_day_stream(600);
    let locality = LocalityConfig::paper_default(3);

    let mut builder = GraphBuilder::new(initial.num_vertices());
    builder.add_edges(initial.edges());

    // Rate and steps pinned, as in every windowed test: a wall-clock
    // `T_opt` makes the plan depend on how loaded the host is. Full rate,
    // which is what 150 ms bought on a graph this small: each window
    // doubles the graph, and winning the budget back takes every agent.
    let config = RlCutConfig::new(1.0)
        .with_seed(3)
        .with_threads(2)
        .with_fixed_sample_rate(1.0)
        .with_max_steps(10);
    let mut adaptive = AdaptiveRlCut::new(config, Some(0.4));
    let mut spinner: Option<Spinner> = None;
    let window = Duration::from_secs(60);
    let mut prev_vertices = 0;

    for events in stream.windows(6 * 3_600_000) {
        let applied = apply_events(&mut builder, events);
        let geo = snapshot(&builder, &locality);
        assert!(geo.num_vertices() >= prev_vertices);
        prev_vertices = geo.num_vertices();
        let profile = TrafficProfile::uniform(geo.num_vertices(), 8.0);

        let report = adaptive.on_window(&geo, &env, profile.clone(), 10.0, window).expect("window");
        assert_eq!(adaptive.masters().len(), geo.num_vertices());
        assert!(report.transfer_time.is_finite());
        // Budget recomputed per window must hold.
        let budget = geosim::cost::default_budget(&env, &geo.locations, &geo.data_sizes, 0.4);
        assert!(
            report.total_cost <= budget * (1.0 + 1e-9),
            "window cost {} vs budget {budget}",
            report.total_cost
        );

        match spinner.as_mut() {
            Some(s) => s.adapt(&geo, &applied.new_vertices),
            None => spinner = Some(Spinner::partition(&geo, SpinnerConfig::default())),
        }
        assert_eq!(spinner.as_ref().unwrap().assignment().len(), geo.num_vertices());
    }
}

#[test]
fn adaptive_window_improves_over_cold_natural_plan() {
    // Seeding from the previous window's plan should leave less work than
    // starting cold; after the same window budget the adaptive plan should
    // be at least as good as an untrained natural plan.
    let env = ec2_eight_regions();
    let model = DiurnalModel { mean_rate: 150.0, seed: 4, ..Default::default() };
    let (initial, stream) = model.generate_day_stream(600);
    let locality = LocalityConfig::paper_default(4);

    let mut builder = GraphBuilder::new(initial.num_vertices());
    builder.add_edges(initial.edges());
    let config = RlCutConfig::new(1.0)
        .with_seed(4)
        .with_threads(2)
        .with_fixed_sample_rate(1.0)
        .with_max_steps(10);
    let mut adaptive = AdaptiveRlCut::new(config, Some(0.4));
    let window = Duration::from_secs(60);

    let mut last = None;
    for events in stream.windows(12 * 3_600_000) {
        apply_events(&mut builder, events);
        let geo = snapshot(&builder, &locality);
        let profile = TrafficProfile::uniform(geo.num_vertices(), 8.0);
        let report = adaptive.on_window(&geo, &env, profile.clone(), 10.0, window).expect("window");

        let natural = geopart::HybridState::natural(&geo, &env, 8, profile, 10.0);
        assert!(
            report.transfer_time <= natural.objective(&env).transfer_time * (1.0 + 1e-9),
            "adaptive {} worse than natural {}",
            report.transfer_time,
            natural.objective(&env).transfer_time
        );
        last = Some(report);
    }
    assert!(last.is_some());
}
