//! Serving-layer integration: non-blocking routing under live
//! re-partitioning, evacuation races, and restart-without-retraining.
//!
//! The contract under test, end to end:
//!
//! * every lookup response is served from **exactly one** published
//!   epoch — never a blend of two tables, however hard the flip rate
//!   races the readers;
//! * a DC killed mid-traffic is evacuated with one flip: responses
//!   observe the pre-fault table or the post-evacuation table, and no
//!   post-evacuation response ever routes to the dead DC;
//! * the trainer's fault window after such an evacuation publishes a plan
//!   with no master and no replica on the dead DC;
//! * a server booted from the durable store serves bit-exactly the
//!   masters the live trainer's server was serving when the process
//!   died — no retraining, whether recovery replays the WAL or loads a
//!   snapshot.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use geograph::dynamic::{apply_events, split_for_dynamic};
use geograph::generators::preferential::preferential_attachment_edges;
use geograph::locality::{assign_locations, LocalityConfig};
use geograph::{DcId, GeoGraph, GraphBuilder, GraphDelta, VertexId};
use geopart::TrafficProfile;
use geoserve::{PlacementServer, RoutingTable};
use geosim::regions::ec2_eight_regions;
use rlcut::{DurableAdaptive, RlCutConfig};

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("rlcut_serve_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn pinned_config() -> RlCutConfig {
    RlCutConfig::new(1.0)
        .with_seed(13)
        .with_threads(2)
        .with_theta(8)
        .with_fixed_sample_rate(0.2)
        .with_max_steps(2)
}

struct Workload {
    geo0: GeoGraph,
    steps: Vec<(GraphDelta, Vec<DcId>, Vec<u64>)>,
}

fn workload() -> Workload {
    let n = 400;
    let edges = preferential_attachment_edges(n, 3, 23);
    let (initial, stream) = split_for_dynamic(&edges, n, 0.6, 10_000);
    let windows: Vec<_> = stream.windows(2_500).collect();
    assert!(windows.len() >= 3, "need several delta windows, got {}", windows.len());
    let full_graph = {
        let mut b = GraphBuilder::new(n);
        b.add_edges(initial.edges());
        apply_events(&mut b, stream.events());
        b.build()
    };
    let cfg = LocalityConfig::paper_default(23);
    let locations = assign_locations(&full_graph, &cfg);
    let sizes: Vec<u64> = (0..full_graph.num_vertices()).map(|_| 2048).collect();

    let mut graph = initial;
    let geo0 = GeoGraph::new(
        graph.clone(),
        locations[..graph.num_vertices()].to_vec(),
        sizes[..graph.num_vertices()].to_vec(),
        cfg.num_dcs,
    );
    let mut steps = Vec::new();
    for window in &windows {
        let delta = GraphDelta::from_events(&graph, window);
        let old_n = graph.num_vertices();
        graph.apply_delta_in_place(&delta);
        let new_n = graph.num_vertices();
        steps.push((delta, locations[old_n..new_n].to_vec(), sizes[old_n..new_n].to_vec()));
    }
    Workload { geo0, steps }
}

/// Four reader threads hammer the board across 100 plan flips; the
/// table published at epoch `e` routes every vertex `v` to
/// `(e - 1 + v) % num_dcs`, so each response can be checked against the
/// exact epoch that claims to have served it. Any torn read — half old
/// table, half new — fails the per-element assertion.
#[test]
fn every_response_matches_exactly_one_published_epoch() {
    const DCS: usize = 8;
    const N: u32 = 512;
    const FLIPS: u64 = 100;
    let table_for = |window: u64| {
        let homes: Vec<DcId> = (0..N as u64).map(|v| ((window + v) % DCS as u64) as DcId).collect();
        RoutingTable::from_homes(window, &homes, DCS)
    };
    // Epoch e serves window e - 1: epoch 1 is the initial table.
    let server = PlacementServer::new(table_for(0), vec![0; N as usize]);
    let board = server.board();

    let stop = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();
    for r in 0..4u64 {
        let mut reader = board.reader();
        let stop = Arc::clone(&stop);
        handles.push(std::thread::spawn(move || {
            let vs: Vec<VertexId> = (0..N).map(|i| (i * 7 + r as u32) % N).collect();
            let mut out = Vec::new();
            let mut batches = 0u64;
            let mut seen_epochs = std::collections::BTreeSet::new();
            while !stop.load(Ordering::Relaxed) {
                let epoch = reader.lookup_many(&vs, &mut out);
                let window = epoch - 1;
                for (i, &v) in vs.iter().enumerate() {
                    assert_eq!(
                        out[i] as u64,
                        (window + v as u64) % DCS as u64,
                        "reader {r}: response for vertex {v} does not match epoch {epoch}"
                    );
                }
                seen_epochs.insert(epoch);
                batches += 1;
            }
            (batches, seen_epochs.len())
        }));
    }

    for w in 1..=FLIPS {
        let epoch = board.publish(table_for(w));
        assert_eq!(epoch, w + 1, "publication epochs must be dense");
        // A little real work between flips so readers interleave.
        std::thread::sleep(Duration::from_micros(200));
    }
    stop.store(true, Ordering::Relaxed);
    let mut total_batches = 0;
    let mut max_epochs = 0;
    for h in handles {
        let (batches, epochs) = h.join().expect("reader panicked");
        total_batches += batches;
        max_epochs = max_epochs.max(epochs);
    }
    assert!(total_batches > 0, "readers never ran");
    assert!(max_epochs > 1, "no reader ever observed a flip");
    assert_eq!(board.flips(), FLIPS);
}

/// A DC dies mid-traffic. Until the evacuation flip lands, responses
/// come from the pre-fault table; from the evacuation epoch on, no
/// response may ever name the dead DC as a master. There is no third
/// state.
#[test]
fn evacuation_mid_traffic_never_serves_a_dead_master() {
    let w = workload();
    let env = ec2_eight_regions();
    let n = w.geo0.num_vertices();
    let state = geopart::HybridState::from_masters(
        &w.geo0,
        &env,
        w.geo0.locations.clone(),
        8,
        TrafficProfile::uniform(n, 8.0),
        10.0,
    );
    let pre_masters: Vec<DcId> = state.core().masters().to_vec();
    let mut server = PlacementServer::new(
        RoutingTable::from_placement(0, state.core()),
        w.geo0.locations.clone(),
    );
    let board = server.board();

    // The outage arrives as the daemon would be told of it: one dead flag
    // per DC.
    let dead_dc: DcId = 2;
    let mut dead = vec![false; env.num_dcs()];
    dead[dead_dc as usize] = true;
    assert!(pre_masters.contains(&dead_dc), "workload never used the doomed DC");

    let evac_epoch = Arc::new(AtomicU64::new(u64::MAX));
    let stop = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();
    for r in 0..4u32 {
        let mut reader = board.reader();
        let stop = Arc::clone(&stop);
        let evac_epoch = Arc::clone(&evac_epoch);
        let pre = pre_masters.clone();
        let dead = dead.clone();
        handles.push(std::thread::spawn(move || {
            let vs: Vec<VertexId> =
                (0..pre.len() as u32).map(|i| (i * 13 + r) % pre.len() as u32).collect();
            let mut out = Vec::new();
            let (mut pre_batches, mut post_batches) = (0u64, 0u64);
            while !stop.load(Ordering::Relaxed) {
                let epoch = reader.lookup_many(&vs, &mut out);
                // `evac_epoch` is set before the flip is published, so a
                // response at or past it must already be evacuated.
                if epoch >= evac_epoch.load(Ordering::SeqCst) {
                    for &m in &out {
                        assert!(
                            !dead[m as usize],
                            "reader {r}: dead master served at epoch {epoch}"
                        );
                    }
                    post_batches += 1;
                } else {
                    // Pre-fault responses are the trained placement, whole.
                    for (i, &v) in vs.iter().enumerate() {
                        assert_eq!(out[i], pre[v as usize], "reader {r}: torn pre-fault response");
                    }
                    pre_batches += 1;
                }
            }
            (pre_batches, post_batches)
        }));
    }

    // Let traffic flow on the pre-fault plan, then kill the DC.
    std::thread::sleep(Duration::from_millis(20));
    // The next publication epoch is the evacuation's; advertise it
    // first so the reader check covers the flip itself.
    evac_epoch.store(server.published_epoch() + 1, Ordering::SeqCst);
    let flipped = server.evacuate(&dead).expect("evacuation");
    assert_eq!(flipped, evac_epoch.load(Ordering::SeqCst));
    std::thread::sleep(Duration::from_millis(20));
    stop.store(true, Ordering::Relaxed);

    let (mut pre_total, mut post_total) = (0u64, 0u64);
    for h in handles {
        let (pre, post) = h.join().expect("reader panicked");
        pre_total += pre;
        post_total += post;
    }
    assert!(pre_total > 0, "no pre-fault traffic observed");
    assert!(post_total > 0, "no post-evacuation traffic observed");
}

/// A fault report the re-seed rule refuses — flags for the wrong number of
/// DCs, or every DC dead — comes back as the typed plan error
/// `geopart::check_fault_report` names, and publishes nothing: the epoch
/// and the served masters stay as they were.
#[test]
fn refused_fault_report_publishes_nothing() {
    const DCS: usize = 8;
    let homes: Vec<DcId> = (0..64u32).map(|v| (v % DCS as u32) as DcId).collect();
    let mut server = PlacementServer::new(RoutingTable::from_homes(0, &homes, DCS), homes.clone());
    let epoch = server.published_epoch();
    let mut reader = server.reader();
    match server.evacuate(&[false; DCS - 1]) {
        Err(geoserve::ServeError::Plan(geopart::PlanError::LengthMismatch {
            expected: DCS,
            found,
            ..
        })) if found == DCS - 1 => {}
        other => panic!("expected a LengthMismatch, got {other:?}"),
    }
    match server.evacuate(&[true; DCS]) {
        Err(geoserve::ServeError::Plan(geopart::PlanError::NoLiveDc)) => {}
        other => panic!("expected NoLiveDc, got {other:?}"),
    }
    assert_eq!(server.published_epoch(), epoch, "a refused evacuation published a table");
    assert_eq!(reader.pin().masters(), &homes[..]);
}

/// The trainer's side of an outage. The server evacuates the DC that holds
/// the most masters, the trainer is told of the fault, and the next window
/// trains every agent. What that window publishes must name no dead DC:
/// no master in the table, and no master or replica in the carried plan
/// (the table serves masters; replicas are derived from the plan).
#[test]
fn fault_window_after_evacuation_never_publishes_a_dead_master() {
    let w = workload();
    let env = ec2_eight_regions();
    let t_opt = Duration::from_secs(60);
    let dir = tmp_dir("fault_window");
    // Rate 1.0: at 0.2 no sampled agent happens to pick the dead DC.
    let config = pinned_config().with_fixed_sample_rate(1.0);
    let mut trainer =
        DurableAdaptive::create(&dir, config, Some(0.4), w.geo0.clone(), &env, 0).expect("create");
    let mut server = PlacementServer::new(
        RoutingTable::from_homes(0, &w.geo0.locations, env.num_dcs()),
        w.geo0.locations.clone(),
    );
    server.attach(&mut trainer);
    let p0 = TrafficProfile::uniform(w.geo0.num_vertices(), 8.0);
    trainer.window(&env, None, &[], &[], p0, 10.0, t_opt).expect("window 0");
    let (delta, locs, sizes) = &w.steps[0];
    let p = TrafficProfile::uniform(delta.new_num_vertices(), 8.0);
    trainer.window(&env, Some(delta), locs, sizes, p, 10.0, t_opt).expect("delta window");

    let mut per_dc = vec![0usize; env.num_dcs()];
    for &m in trainer.masters() {
        per_dc[m as usize] += 1;
    }
    let victim = (0..env.num_dcs()).max_by_key(|&d| per_dc[d]).expect("DCs exist");
    let mut dead = vec![false; env.num_dcs()];
    dead[victim] = true;
    server.evacuate(&dead).expect("evacuation");
    trainer.note_fault(&dead).expect("well-formed fault report");
    let (delta, locs, sizes) = &w.steps[1];
    let p = TrafficProfile::uniform(delta.new_num_vertices(), 8.0);
    trainer.window(&env, Some(delta), locs, sizes, p, 10.0, t_opt).expect("fault window");

    let mut reader = server.reader();
    let table = reader.pin();
    assert_eq!(table.window(), 3, "the fault window's commit is the table served");
    let on_dead = table.masters().iter().filter(|&&m| dead[m as usize]).count();
    let n = table.num_vertices();
    assert_eq!(on_dead, 0, "{on_dead} of {n} masters published on dead DC {victim}");
    let (core, theta) = trainer.inner().carried_parts().cloned().expect("carried");
    geopart::HybridState::from_parts(core, theta, trainer.geo())
        .validate_against_faults(&dead)
        .expect("the carried plan touches the dead DC");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The restart path: a trainer runs several windows with a serving
/// board attached, the process "dies", and a fresh server boots from
/// the durable store alone. It must serve bit-exactly the masters the
/// live server was serving — without retraining — both when recovery
/// replays the WAL and when it loads from a snapshot.
#[test]
fn boot_from_store_matches_the_live_server_bit_exactly() {
    let w = workload();
    let env = ec2_eight_regions();
    let t_opt = Duration::from_secs(60);
    let dir = tmp_dir("boot");

    let (live_masters, live_window, live_epoch) = {
        let mut trainer =
            DurableAdaptive::create(&dir, pinned_config(), Some(0.4), w.geo0.clone(), &env, 0)
                .expect("create");
        let server = PlacementServer::new(
            RoutingTable::from_homes(0, &w.geo0.locations, env.num_dcs()),
            w.geo0.locations.clone(),
        );
        server.attach(&mut trainer);
        let p0 = TrafficProfile::uniform(w.geo0.num_vertices(), 8.0);
        trainer.window(&env, None, &[], &[], p0, 10.0, t_opt).expect("window 0");
        for (delta, locs, sizes) in &w.steps {
            let p = TrafficProfile::uniform(delta.new_num_vertices(), 8.0);
            trainer.window(&env, Some(delta), locs, sizes, p, 10.0, t_opt).expect("delta window");
        }
        let mut reader = server.reader();
        let guard = reader.pin();
        assert_eq!(guard.window(), 1 + w.steps.len() as u64, "hook missed a commit");
        (guard.masters().to_vec(), guard.window(), server.published_epoch())
    }; // trainer + live server die here

    // Attached server saw genesis + one flip per committed window.
    assert_eq!(live_epoch, 2 + w.steps.len() as u64);

    // Restart 1: recovery replays the whole WAL (no snapshot was cut).
    let (restarted, report) = PlacementServer::boot_from_store(&dir, &env).expect("boot");
    assert_eq!(report.window, live_window);
    assert_eq!(report.replayed_windows, live_window);
    assert_eq!(report.masters_fnv, geodur::masters_fnv(&live_masters));
    let mut reader = restarted.reader();
    let guard = reader.pin();
    assert_eq!(guard.masters(), &live_masters[..], "restarted server diverged from live");
    assert_eq!(guard.epoch(), 1, "boot must be the first publication of the new process");

    // Restart 2: cut a snapshot at the same boundary, boot again — the
    // snapshot path must serve the identical table.
    {
        let (mut trainer, _) =
            DurableAdaptive::recover(&dir, pinned_config(), Some(0.4), &env, 0).expect("recover");
        trainer.snapshot_now().expect("snapshot");
    }
    let (from_snap, report) = PlacementServer::boot_from_store(&dir, &env).expect("boot from snap");
    assert_eq!(report.replayed_windows, 0, "snapshot should cover the whole log");
    let mut reader = from_snap.reader();
    assert_eq!(reader.pin().masters(), &live_masters[..], "snapshot boot diverged");

    // And the env-mismatch guard protects the serving path too.
    let other = geosim::CloudEnv::new(
        env.dcs()
            .iter()
            .map(|dc| geosim::Datacenter {
                name: dc.name.clone(),
                uplink_bps: dc.uplink_bps,
                downlink_bps: dc.downlink_bps * 0.5,
                upload_price_per_byte: dc.upload_price_per_byte,
            })
            .collect(),
    );
    match PlacementServer::boot_from_store(&dir, &other) {
        Err(geoserve::ServeError::Durable(geodur::DurableError::EnvMismatch { .. })) => {}
        other => panic!("expected EnvMismatch, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}
