//! Transient-heap gate for snapshot cutting.
//!
//! `DurableAdaptive::snapshot_now` streams a borrowed view of the live
//! graph and placement through a fixed-size buffered sink, so what it
//! allocates is O(buffer) — not a clone of the state plus a staged blob
//! (more than twice the state, before the encoder borrowed). This binary
//! installs the counting global allocator (`counting_alloc`) and holds the
//! call to under 512 KiB above its entry watermark (65 666 B measured) on a
//! 60 k-vertex graph whose state is tens of megabytes.
//!
//! The same snapshot carries the on-disk size gate: at most 1.5 bytes per
//! graph edge at LiveJournal's 14 attachments per vertex (measured 1.481
//! here, exact for a seed; 2.130 with varint out-rows and byte-wide DC ids,
//! 2.81 while the count plane travelled, 15.8 in the dense pre-v3 layout).

use std::time::Duration;

use geograph::generators::preferential::preferential_attachment_edges;
use geograph::locality::LocalityConfig;
use geograph::{GeoGraph, GraphBuilder};
use geopart::TrafficProfile;
use geosim::regions::ec2_eight_regions;
use rlcut::{DurableAdaptive, RlCutConfig};

mod counting_alloc;

#[test]
fn snapshot_now_allocates_a_buffer_not_a_copy_of_the_state() {
    let n = 60_000;
    let mut b = GraphBuilder::new(n);
    b.add_edges(preferential_attachment_edges(n, 14, 29));
    let geo = GeoGraph::from_graph(b.build(), &LocalityConfig::paper_default(29));
    let state_bytes = geo.heap_bytes();
    let edges = geo.num_edges();
    assert!(state_bytes > 4 << 20, "graph too small to tell a copy from a buffer");

    let env = ec2_eight_regions();
    let dir = std::env::temp_dir().join(format!("rlcut_snapshot_heap_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = RlCutConfig::new(1.0)
        .with_seed(29)
        .with_threads(1)
        .with_theta(16)
        .with_fixed_sample_rate(0.02)
        .with_max_steps(1);
    let mut durable = DurableAdaptive::create(&dir, config, Some(0.4), geo, &env, 0).unwrap();
    // One committed window, so the snapshot carries a placement too.
    let profile = TrafficProfile::uniform(n, 8.0);
    durable.window(&env, None, &[], &[], profile, 10.0, Duration::from_secs(60)).unwrap();

    let entry = counting_alloc::enter();
    let written = durable.snapshot_now().unwrap();
    let transient = counting_alloc::peak() - entry;

    assert!(written > 1 << 19, "a {written}-byte snapshot would fit the limit staged whole");
    assert!(
        transient < 1 << 19,
        "snapshot_now allocated {transient} B above entry for a {written} B snapshot \
         of {state_bytes} B of graph"
    );
    let per_edge = written as f64 / edges as f64;
    assert!(per_edge <= 1.5, "snapshot costs {per_edge:.3} B/edge over {edges} edges");
    drop(durable);
    let _ = std::fs::remove_dir_all(&dir);
}
