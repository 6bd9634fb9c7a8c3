//! Transient-heap gate for a delta window.
//!
//! A window past the first allocates in proportion to its delta and its
//! sample, not to the graph: `DurableAdaptive::window` advances the live
//! CSR in place (`Graph::apply_delta_in_place`), and the trainer's agent
//! pool holds only the prefix of its sampling order that a step samples.
//! This binary installs the counting global allocator (`counting_alloc`),
//! drives a 60 k-vertex graph through window 0 and ten 400-insert delta
//! windows at rate 0.05 × 2 steps, and holds every window after the first
//! delta window to less than ⅛ of the CSR's bytes above its entry
//! watermark. (The first delta window is where the CSR's flat arrays make
//! their one amortized regrowth.) Measured: 0.38 MB a window, 0.087× the
//! 4.39 MB CSR, with the migration phase's move marks and the score
//! phase's lane deltas in it. A copying overlay (a second CSR beside the
//! live one) and a 100 B/vertex pool read 6.39 MB, 1.46× the CSR.

use std::time::Duration;

use geograph::dynamic::{EdgeEvent, EventKind};
use geograph::generators::preferential::preferential_attachment_edges;
use geograph::locality::LocalityConfig;
use geograph::{GeoGraph, GraphBuilder, GraphDelta};
use geopart::TrafficProfile;
use geosim::regions::ec2_eight_regions;
use rlcut::{DurableAdaptive, RlCutConfig};

mod counting_alloc;

#[test]
fn delta_window_allocates_neither_a_csr_nor_a_dense_pool() {
    const WINDOWS: usize = 10;
    const INSERTS: usize = 400;
    let n = 60_000;
    let edges = preferential_attachment_edges(n, 14, 31);
    let (base, held_out) = edges.split_at(edges.len() - WINDOWS * INSERTS);
    let mut b = GraphBuilder::new(n);
    b.add_edges(base.iter().copied());
    let geo = GeoGraph::from_graph(b.build(), &LocalityConfig::paper_default(31));
    let csr_bytes = geo.graph.heap_bytes();

    let env = ec2_eight_regions();
    let dir = std::env::temp_dir().join(format!("rlcut_window_heap_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = RlCutConfig::new(1.0)
        .with_seed(31)
        .with_threads(1)
        .with_theta(16)
        .with_fixed_sample_rate(0.05)
        .with_max_steps(2);
    let t_opt = Duration::from_secs(60);
    let mut durable = DurableAdaptive::create(&dir, config, Some(0.4), geo, &env, 0).unwrap();
    let profile = TrafficProfile::uniform(n, 8.0);
    durable.window(&env, None, &[], &[], profile, 10.0, t_opt).unwrap();

    let mut above_entry = Vec::with_capacity(WINDOWS);
    for (w, batch) in held_out.chunks(INSERTS).enumerate() {
        let events: Vec<EdgeEvent> = batch
            .iter()
            .map(|&(src, dst)| EdgeEvent {
                src,
                dst,
                timestamp_ms: w as u64,
                kind: EventKind::Insert,
            })
            .collect();
        let delta = GraphDelta::from_events(&durable.geo().graph, &events);
        assert!(delta.num_edge_changes() > INSERTS / 2, "window {w} inserts too little");
        let profile = TrafficProfile::uniform(delta.new_num_vertices(), 8.0);
        let entry = counting_alloc::enter();
        durable.window(&env, Some(&delta), &[], &[], profile, 10.0, t_opt).unwrap();
        above_entry.push(counting_alloc::peak() - entry);
    }
    let limit = csr_bytes / 8;
    for (w, &bytes) in above_entry.iter().enumerate().skip(1) {
        assert!(
            bytes < limit,
            "delta window {w} allocated {bytes} B above entry ({:.2}x the {csr_bytes} B CSR)",
            bytes as f64 / csr_bytes as f64
        );
    }
    drop(durable);
    let _ = std::fs::remove_dir_all(&dir);
}
