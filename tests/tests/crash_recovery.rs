//! Kill-at-random-point crash-recovery harness — the headline durability
//! proof.
//!
//! One multi-window durable run (graph deltas, a mid-run DC outage and its
//! all-clear, snapshots mid-stream and inside the outage, each of which
//! rolls the log to a new segment) is
//! copied at every committed boundary; the harness then simulates a
//! process kill at 100+ seeded crash points — after every record boundary,
//! at seeded mid-record truncations, and between a snapshot's rename and
//! the roll behind it — by rebuilding the store as it stood at that moment
//! and recovering. Every recovery must land on a committed window
//! boundary with masters bit-identical to the uninterrupted run at that
//! boundary, the whole carried placement equal plane for plane (every
//! count, mirror mask and per-DC balance; movement cost and stage loads to
//! the last `f64` bit), the recovered dead-DC mask the live one, and the
//! recovered placement passing `validate_plan`.

use std::path::{Path, PathBuf};
use std::time::Duration;

use geograph::dynamic::{apply_events, split_for_dynamic};
use geograph::dynamic::{EdgeEvent, EventKind};
use geograph::generators::preferential::preferential_attachment_edges;
use geograph::locality::{assign_locations, LocalityConfig};
use geograph::{DcId, GeoGraph, GraphBuilder, GraphDelta, VertexId};
use geopart::{HybridState, PlacementState, TrafficProfile};
use geosim::regions::ec2_eight_regions;
use rand::prelude::*;
use rlcut::{DurableAdaptive, RlCutConfig};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rlcut_crash_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn copy_dir(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        let to = dst.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_dir(&entry.path(), &to);
        } else {
            std::fs::copy(entry.path(), &to).unwrap();
        }
    }
}

/// theta pinned and the sample rate fixed so the wall-clock scheduler
/// cannot make the reference and recovered runs diverge.
fn pinned_config() -> RlCutConfig {
    RlCutConfig::new(1.0)
        .with_seed(13)
        .with_threads(2)
        .with_theta(8)
        .with_fixed_sample_rate(0.2)
        .with_max_steps(3)
}

struct Workload {
    geo0: GeoGraph,
    steps: Vec<(GraphDelta, Vec<DcId>, Vec<u64>)>,
    /// Each step's edge events, which `steps[i].0` is the net effect of.
    events: Vec<Vec<EdgeEvent>>,
}

fn workload() -> Workload {
    let n = 400;
    let edges = preferential_attachment_edges(n, 3, 23);
    let (initial, stream) = split_for_dynamic(&edges, n, 0.6, 10_000);
    let windows: Vec<_> = stream.windows(1_000).collect();
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
    let events = windows.iter().map(|window| window.to_vec()).collect();
    Workload { geo0, steps, events }
}

/// `recovered` is `live` plane for plane: masters, every in/out count,
/// mirror mask and per-DC balance, the stage loads and the moved bytes
/// equal, and the movement cost equal to the last `f64` bit.
fn assert_same_placement(recovered: &PlacementState, live: &PlacementState, what: &str) {
    assert_eq!(recovered.masters(), live.masters(), "{what}: masters");
    for v in 0..live.num_vertices() as u32 {
        for d in 0..live.num_dcs() as DcId {
            assert_eq!(
                (recovered.in_count(v, d), recovered.out_count(v, d)),
                (live.in_count(v, d), live.out_count(v, d)),
                "{what}: (in, out) of cell ({v}, {d})"
            );
        }
        assert_eq!(recovered.mirror_mask(v), live.mirror_mask(v), "{what}: mirrors of {v}");
    }
    assert_eq!(recovered.edges_per_dc(), live.edges_per_dc(), "{what}: edges per DC");
    assert_eq!(
        recovered.movement_cost().to_bits(),
        live.movement_cost().to_bits(),
        "{what}: movement cost"
    );
    assert_eq!(recovered.gather_loads(), live.gather_loads(), "{what}: gather loads");
    assert_eq!(recovered.apply_loads(), live.apply_loads(), "{what}: apply loads");
    assert_eq!(recovered.moved_bytes(), live.moved_bytes(), "{what}: moved bytes");
}

#[test]
fn kill_at_every_record_boundary_and_mid_record() {
    // With a snapshot every 2 windows recovery starts from the latest
    // snapshot; with none it replays the whole log from genesis.
    for snapshot_every in [0, 2] {
        kill_at_every_crash_point(snapshot_every);
    }
}

fn kill_at_every_crash_point(snapshot_every: u64) {
    let w = workload();
    let env = ec2_eight_regions();
    let t_opt = Duration::from_secs(60);
    let base = tmp_dir("base");
    // DC 2 goes dark before window 2 and comes back before window 6, so
    // the log carries a fault window (its re-seed logged as moves), dead
    // windows after it, snapshots holding the mask and an all-clear.
    let mut dead = vec![false; env.num_dcs()];
    dead[2] = true;

    // The uninterrupted run, copied at every committed boundary:
    // images[j] is the store where `next_window == j` and expected[j] the
    // carried placement there (index 0 is genesis, which carries none —
    // its masters are the natural locations).
    let mut expected: Vec<Option<PlacementState>> = vec![None];
    let mut expected_dead: Vec<Option<Vec<bool>>> = vec![None];
    let mut durable = DurableAdaptive::create(
        &base,
        pinned_config(),
        Some(0.4),
        w.geo0.clone(),
        &env,
        snapshot_every,
    )
    .expect("create durable dir");
    let mut images = Vec::new();
    let keep_image = |images: &mut Vec<PathBuf>| {
        let image = tmp_dir(&format!("image{}_{}", snapshot_every, images.len()));
        copy_dir(&base, &image);
        images.push(image);
    };
    keep_image(&mut images);
    let p0 = TrafficProfile::uniform(w.geo0.num_vertices(), 8.0);
    durable.window(&env, None, &[], &[], p0, 10.0, t_opt).expect("window 0");
    let mut push_state = |d: &DurableAdaptive, out: &mut Vec<Option<PlacementState>>| {
        let (core, _) = d.inner().carried_parts().expect("committed window carries state");
        out.push(Some(core.clone()));
        expected_dead.push(d.inner().dead_dcs().map(<[bool]>::to_vec));
    };
    push_state(&durable, &mut expected);
    keep_image(&mut images);
    for (i, (delta, locs, sizes)) in w.steps.iter().enumerate() {
        let step = (i + 1) as u64;
        match step {
            2 => durable.note_fault(&dead).expect("well-formed fault report"),
            6 => durable.note_fault(&vec![false; env.num_dcs()]).expect("all-clear"),
            _ => {}
        }
        let p = TrafficProfile::uniform(delta.new_num_vertices(), 8.0);
        durable
            .window(&env, Some(delta), locs, sizes, p, 10.0, t_opt)
            .unwrap_or_else(|e| panic!("delta window {i}: {e}"));
        push_state(&durable, &mut expected);
        keep_image(&mut images);
    }
    // expected_dead[j] is the mask where `next_window == j`.
    assert!(expected_dead[3..7].iter().all(|mask| mask.as_deref() == Some(&dead[..])));
    assert_eq!(expected_dead[7], None, "the all-clear lifts the mask");
    drop(durable); // kill the "process"; committed state is on disk
    let (_, report) = geodur::wal::load(&base).expect("scan base log");
    assert_eq!(report.torn_tail_bytes, 0, "clean shutdown leaves no torn tail");

    // A crash during window j leaves images[j] with its tail segment — the
    // one window j appends to — cut somewhere in window j's records, or
    // whole with window j's snapshot renamed in but the log not yet rolled
    // behind it. Every later segment does not exist yet.
    let mut rng = SmallRng::seed_from_u64(0x6b31_6c6c); // "k1ll"
    let mut crashes: Vec<Crash> = Vec::new();
    let mut tails = Vec::new();
    for window in 0..images.len() - 1 {
        let (before, after) = (&images[window], &images[window + 1]);
        let (seq, written) = tail_segment(before, after);
        let start = std::fs::metadata(before.join("wal").join(segment_name(seq))).unwrap().len();
        tails.push(seq);
        let (records, _) = geodur::wal::load(after).expect("scan image");
        let mut prev_end = start;
        let mut crash = |cut| crashes.push(Crash { window, cut, snapshot: None });
        for r in records.iter().filter(|r| r.segment == seq && r.end_offset > start) {
            let len = r.end_offset - prev_end;
            crash(r.end_offset); // kill exactly at the record boundary
            crash(r.end_offset - 1); // one byte short: torn checksum
            for _ in 0..4 {
                crash(prev_end + rng.gen_range(1..len)); // seeded mid-record
            }
            prev_end = r.end_offset;
        }
        assert_eq!(prev_end, written.len() as u64, "window {window} left its tail unscanned");
        let old_snaps = snapshot_lsns(before);
        if let Some(lsn) = snapshot_lsns(after).into_iter().find(|lsn| !old_snaps.contains(lsn)) {
            let snapshot = Some(after.join(format!("snap/snap-{lsn:020}.snap")));
            crashes.push(Crash { window, cut: prev_end, snapshot });
        }
    }
    crashes.sort_by_key(|c| (c.window, c.cut, c.snapshot.is_some()));
    crashes.dedup_by_key(|c| (c.window, c.cut, c.snapshot.is_some()));
    tails.dedup();
    assert_eq!(
        tails.len() > 1,
        snapshot_every > 0,
        "the log rolls at every snapshot and only then: tails {tails:?}"
    );
    assert!(
        crashes.len() >= 100,
        "need at least 100 distinct crash points, got {} over {} windows",
        crashes.len(),
        images.len() - 1
    );

    for (k, Crash { window: j, cut, snapshot }) in crashes.iter().enumerate() {
        let (seq, written) = tail_segment(&images[*j], &images[j + 1]);
        let what = format!(
            "crash {k} in window {j}: segment {seq} cut at {cut}{}",
            if snapshot.is_some() { " after the snapshot, before the roll" } else { "" }
        );
        let scratch = tmp_dir(&format!("cut{k}"));
        copy_dir(&images[*j], &scratch);
        std::fs::write(scratch.join("wal").join(segment_name(seq)), &written[..*cut as usize])
            .unwrap_or_else(|e| panic!("{what}: {e}"));
        if let Some(snap) = snapshot {
            std::fs::copy(snap, scratch.join("snap").join(snap.file_name().unwrap())).unwrap();
        }

        let (recovered, summary) =
            DurableAdaptive::recover(&scratch, pinned_config(), Some(0.4), &env, snapshot_every)
                .unwrap_or_else(|e| panic!("{what}: recovery failed: {e}"));
        let b = summary.next_window as usize;
        assert!(b == *j || b == j + 1, "{what}: recovered to boundary {b}");
        if snapshot.is_some() {
            assert_eq!((b, summary.replayed_windows), (j + 1, 0), "{what}: not from the snapshot");
        }
        if snapshot_every == 0 {
            assert_eq!(
                summary.replayed_windows, summary.next_window,
                "{what}: a snapshot-free log replays every committed window"
            );
        }
        let exp_masters = expected[b].as_ref().map_or(&w.geo0.locations[..], |s| s.masters());
        assert_eq!(recovered.masters(), exp_masters, "{what}: masters diverged at boundary {b}");
        assert_eq!(
            recovered.inner().dead_dcs(),
            expected_dead[b].as_deref(),
            "{what}: dead-DC mask diverged at boundary {b}"
        );
        if let Some(live) = &expected[b] {
            let (core, _) = recovered.inner().carried_parts().expect("committed boundary");
            assert_same_placement(core, live, &format!("{what}, boundary {b}"));
            assert!(
                recovered
                    .inner()
                    .validate_carried(recovered.geo(), &env)
                    .unwrap_or_else(|e| panic!("{what}: validate_plan failed: {e}")),
                "{what}: nothing carried at boundary {b}"
            );
        }
        let _ = std::fs::remove_dir_all(&scratch);
    }
    for dir in images.iter().chain([&base]) {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// The window a DC is noted dead before in the dead-span test.
const K: u64 = 2;

/// A DC noted dead before window K stays dead until the all-clear: each of
/// windows K … K + 5 adds a vertex homed there, and none of them leaves a
/// master or a replica on it — also after a kill and recovery inside the
/// span, by replay past the pre-fault snapshot (boundary 3), by loading a
/// snapshot cut inside it (4) and by replay past that one (5). After the
/// all-clear a new vertex homed on the DC is placed there again.
#[test]
fn dead_dc_stays_dead_across_windows_and_recovery() {
    let w = workload();
    let env = ec2_eight_regions();
    let base = tmp_dir("dead_span");
    let mut durable =
        DurableAdaptive::create(&base, pinned_config(), Some(0.4), w.geo0.clone(), &env, 2)
            .expect("create durable dir");
    let p0 = TrafficProfile::uniform(w.geo0.num_vertices(), 8.0);
    durable.window(&env, None, &[], &[], p0, 10.0, Duration::from_secs(60)).expect("window 0");
    // The DC hosting the most masters of window 0's plan goes dark.
    let hosted = |d: DcId| durable.masters().iter().filter(|&&m| m == d).count();
    let victim = (0..env.num_dcs() as DcId).max_by_key(|&d| hosted(d)).expect("DCs exist");
    let mut images = Vec::new();
    run_dead_span(&mut durable, &w, victim, |d| {
        images.push(tmp_dir(&format!("dead_span_at{}", d.next_window())));
        copy_dir(&base, images.last().unwrap());
    });
    let final_masters = durable.masters().to_vec();
    drop(durable);

    for image in &images {
        let (mut recovered, summary) =
            DurableAdaptive::recover(image, pinned_config(), Some(0.4), &env, 2)
                .expect("recover inside the dead span");
        let at = summary.next_window;
        // Snapshots land on even boundaries: an odd one replays a window.
        assert_eq!(summary.replayed_windows, at % 2, "boundary {at}");
        let mask = recovered.inner().dead_dcs().expect("the mask survives recovery");
        assert!(mask[victim as usize], "boundary {at}: DC {victim} came back alive");
        run_dead_span(&mut recovered, &w, victim, |_| {});
        assert_eq!(recovered.masters(), &final_masters[..], "continued from boundary {at}");
        let _ = std::fs::remove_dir_all(image);
    }
    assert_eq!(images.len(), 5, "recovered at boundaries K + 1 … K + 5");
    let _ = std::fs::remove_dir_all(&base);
}

/// Runs `durable` on the workload's events from its next window through
/// window K + 6. DC `victim` is noted dead before window K, and each window
/// from K on also adds an isolated vertex homed on it. Windows K … K + 5
/// must leave no master and no replica there, and `at_boundary` sees the
/// pipeline after each of K … K + 4. The all-clear is noted before window
/// K + 6, whose new vertex must be placed on the DC.
fn run_dead_span(
    durable: &mut DurableAdaptive,
    w: &Workload,
    victim: DcId,
    mut at_boundary: impl FnMut(&DurableAdaptive),
) {
    let env = ec2_eight_regions();
    let mut dead = vec![false; env.num_dcs()];
    dead[victim as usize] = true;
    while durable.next_window() <= K + 6 {
        let j = durable.next_window();
        if j == K || j == K + 6 {
            let flags = if j == K { dead.clone() } else { vec![false; env.num_dcs()] };
            durable.note_fault(&flags).expect("well-formed fault report");
        }
        let homed = if j >= K { vec![victim] } else { Vec::new() };
        // A self-loop is dropped, but its id still grows the vertex set.
        let n = durable.geo().num_vertices() as VertexId;
        let arrival = EdgeEvent { src: n, dst: n, timestamp_ms: 0, kind: EventKind::Insert };
        let mut events = w.events[j as usize - 1].clone();
        events.extend(homed.iter().map(|_| arrival));
        let delta = GraphDelta::from_events(&durable.geo().graph, &events);
        let p = TrafficProfile::uniform(delta.new_num_vertices(), 8.0);
        let sizes = vec![2048; homed.len()];
        durable
            .window(&env, Some(&delta), &homed, &sizes, p, 10.0, Duration::from_secs(60))
            .unwrap_or_else(|e| panic!("window {j}: {e}"));
        if j == K + 6 {
            assert_eq!(durable.masters().last(), Some(&victim), "DC {victim} after the all-clear");
        } else if j >= K {
            let on_dead = durable.masters().iter().filter(|&&m| m == victim).count();
            assert_eq!(on_dead, 0, "window {j}: {on_dead} masters on dead DC {victim}");
            let (core, theta) = durable.inner().carried_parts().cloned().expect("carried");
            HybridState::from_parts(core, theta, durable.geo())
                .validate_against_faults(&dead)
                .unwrap_or_else(|e| panic!("window {j}: {e}"));
            if j < K + 5 {
                at_boundary(durable);
            }
        }
    }
}

/// A simulated kill during window `window`: the segment that window
/// appends to cut at byte `cut`, and, when `snapshot` is set, the snapshot
/// that window cut renamed into place before the log rolled.
struct Crash {
    window: usize,
    cut: u64,
    snapshot: Option<PathBuf>,
}

fn segment_name(seq: u64) -> String {
    format!("seg-{seq:08}.wal")
}

/// The segment a window appends to — the newest in the store image
/// `before` it — and its bytes in the image `after` it, which must extend
/// the ones `before` holds.
fn tail_segment(before: &Path, after: &Path) -> (u64, Vec<u8>) {
    let (seq, path) = geodur::wal::segment_paths(before).expect("segments").pop().unwrap();
    let written = std::fs::read(after.join("wal").join(segment_name(seq)))
        .expect("the tail segment outlives the window that appends to it");
    let held = std::fs::read(path).unwrap();
    assert_eq!(written[..held.len()], held[..], "segment {seq} was rewritten, not appended to");
    (seq, written)
}

/// LSNs of the snapshot files under a store directory.
fn snapshot_lsns(dir: &Path) -> Vec<u64> {
    let paths = geodur::snapshot::snapshot_paths(dir).expect("list snapshots");
    paths.into_iter().map(|(lsn, _)| lsn).collect()
}

/// A crash image whose WAL ends in an uncommitted window must recover to
/// the previous boundary and accept the re-fed window, converging with the
/// uninterrupted run — the retry path a driver takes after rollback.
#[test]
fn rolled_back_window_can_be_refed() {
    let w = workload();
    let env = ec2_eight_regions();
    let t_opt = Duration::from_secs(60);
    let base = tmp_dir("refeed");

    let mut durable =
        DurableAdaptive::create(&base, pinned_config(), Some(0.4), w.geo0.clone(), &env, 0)
            .expect("create durable dir");
    let p0 = TrafficProfile::uniform(w.geo0.num_vertices(), 8.0);
    durable.window(&env, None, &[], &[], p0, 10.0, t_opt).expect("window 0");
    let (delta, locs, sizes) = &w.steps[0];
    let p = TrafficProfile::uniform(delta.new_num_vertices(), 8.0);
    durable.window(&env, Some(delta), locs, sizes, p.clone(), 10.0, t_opt).expect("window 1");
    let (core, _) = durable.inner().carried_parts().expect("carried");
    let final_masters = core.masters().to_vec();
    let final_cost = core.movement_cost().to_bits();
    drop(durable);

    // Truncate the log into window 1: keep its WindowStart, drop the rest.
    let (records, _) = geodur::wal::load(&base).expect("scan");
    let start_w1 =
        records.iter().find(|r| r.kind == 1 && r.lsn > 0).expect("window 1 start record");
    let segments = geodur::wal::segment_paths(&base).expect("segments");
    std::fs::OpenOptions::new()
        .write(true)
        .open(&segments[0].1)
        .and_then(|f| f.set_len(start_w1.end_offset))
        .expect("truncate");

    let (mut recovered, summary) =
        DurableAdaptive::recover(&base, pinned_config(), Some(0.4), &env, 0).expect("recover");
    assert!(summary.rolled_back, "window 1 must roll back");
    assert_eq!(summary.next_window, 1);

    // Re-feed window 1; the retry must land where the first try landed.
    recovered.window(&env, Some(delta), locs, sizes, p, 10.0, t_opt).expect("re-fed window");
    let (core, _) = recovered.inner().carried_parts().expect("carried");
    assert_eq!(core.masters(), &final_masters[..], "re-fed window diverged");
    assert_eq!(core.movement_cost().to_bits(), final_cost);
    let _ = std::fs::remove_dir_all(&base);
}

/// Feeds `steps` to `durable` as delta windows, handing each report and
/// the driver to `after`.
fn run_windows(
    durable: &mut DurableAdaptive,
    steps: &[(GraphDelta, Vec<DcId>, Vec<u64>)],
    mut after: impl FnMut(&DurableAdaptive, rlcut::WindowReport),
) {
    let env = ec2_eight_regions();
    for (delta, locs, sizes) in steps {
        let p = TrafficProfile::uniform(delta.new_num_vertices(), 8.0);
        let window = durable.next_window();
        let report = durable
            .window(&env, Some(delta), locs, sizes, p, 10.0, Duration::from_secs(60))
            .unwrap_or_else(|e| panic!("window {window}: {e}"));
        after(durable, report);
    }
}

/// A window's sampling ring starts where the window index says, and the
/// index is not in the log: a recovered driver has to be handed it. Recover
/// at *every* committed boundary, run the rest of the stream, and land on
/// the uninterrupted run's final plan to the bit — on windows whose sample
/// is wider than their hot set, so each of them takes a ring slice.
#[test]
fn recovery_at_every_boundary_continues_the_ring_bit_exactly() {
    let w = workload();
    let env = ec2_eight_regions();
    let base = tmp_dir("ring_base");
    let snapshot_every = 2; // odd boundaries replay a window, even ones none

    let mut durable = DurableAdaptive::create(
        &base,
        pinned_config(),
        Some(0.4),
        w.geo0.clone(),
        &env,
        snapshot_every,
    )
    .expect("create durable dir");
    let p0 = TrafficProfile::uniform(w.geo0.num_vertices(), 8.0);
    durable.window(&env, None, &[], &[], p0, 10.0, Duration::from_secs(60)).expect("window 0");
    let mut images = vec![tmp_dir("ring_at1")];
    copy_dir(&base, &images[0]);
    run_windows(&mut durable, &w.steps, |d, report| {
        let geo = d.geo();
        let trainable = geo.graph.vertices().filter(|&v| geo.graph.degree(v) > 0).count();
        let sample = (trainable as f64 * 0.2).ceil() as usize;
        assert!(
            report.hot_agents > 0 && report.hot_agents < sample,
            "window {}: {} hot of a {sample}-agent sample leaves no ring slice",
            d.next_window() - 1,
            report.hot_agents
        );
        let image = tmp_dir(&format!("ring_at{}", d.next_window()));
        copy_dir(&base, &image);
        images.push(image);
    });
    let (core, _) = durable.inner().carried_parts().expect("carried");
    let (final_masters, final_cost) = (core.masters().to_vec(), core.movement_cost().to_bits());
    drop(durable);

    // images[j - 1] is the store as it stood when `next_window == j`.
    for (j, image) in images.iter().enumerate().map(|(i, image)| (i + 1, image)) {
        let (mut recovered, summary) =
            DurableAdaptive::recover(image, pinned_config(), Some(0.4), &env, snapshot_every)
                .unwrap_or_else(|e| panic!("boundary {j}: {e}"));
        assert_eq!(summary.next_window, j as u64);
        assert!(!summary.rolled_back);
        run_windows(&mut recovered, &w.steps[j - 1..], |_, _| {});
        let (core, _) = recovered.inner().carried_parts().expect("carried");
        assert_eq!(core.masters(), &final_masters[..], "continued from boundary {j}: masters");
        assert_eq!(core.movement_cost().to_bits(), final_cost, "continued from boundary {j}");
        let _ = std::fs::remove_dir_all(image);
    }
    let _ = std::fs::remove_dir_all(&base);
}

/// The snapshot cadence counts windows since the last snapshot, restarts
/// included: a pipeline that dies two windows past a snapshot cuts its next
/// one a window later, exactly where its uninterrupted twin does — not
/// `snapshot_every` windows after the restart, which a pipeline restarting
/// more often than that never reaches.
#[test]
fn recovery_keeps_the_snapshot_cadence() {
    let w = workload();
    assert!(w.steps.len() >= 8, "need windows on both sides of two snapshots");
    let env = ec2_eight_regions();
    let snapshot_names = |dir: &Path| -> Vec<u64> {
        let paths = geodur::snapshot::snapshot_paths(dir).expect("list snapshots");
        paths.into_iter().map(|(lsn, _)| lsn).collect()
    };
    let create = |dir: &Path| {
        let mut durable =
            DurableAdaptive::create(dir, pinned_config(), Some(0.4), w.geo0.clone(), &env, 3)
                .expect("create durable dir");
        let p0 = TrafficProfile::uniform(w.geo0.num_vertices(), 8.0);
        durable.window(&env, None, &[], &[], p0, 10.0, Duration::from_secs(60)).expect("window 0");
        durable
    };

    let (twin_dir, dir) = (tmp_dir("cadence_twin"), tmp_dir("cadence"));
    let mut twin = create(&twin_dir);
    let mut twin_names = Vec::new();
    run_windows(&mut twin, &w.steps, |d, _| twin_names.push(snapshot_names(d.store().dir())));

    // Windows 0–2 cut a snapshot; die after windows 3 and 4.
    let mut durable = create(&dir);
    run_windows(&mut durable, &w.steps[..4], |_, _| {});
    assert_eq!(snapshot_names(&dir), twin_names[3]);
    drop(durable);
    let (mut recovered, summary) =
        DurableAdaptive::recover(&dir, pinned_config(), Some(0.4), &env, 3).expect("recover");
    assert_eq!((summary.next_window, summary.replayed_windows), (5, 2));
    let mut boundary = 4;
    run_windows(&mut recovered, &w.steps[4..], |d, _| {
        assert_eq!(
            snapshot_names(d.store().dir()),
            twin_names[boundary],
            "snapshots on disk after window {}",
            boundary + 1
        );
        boundary += 1;
    });
    assert!(twin_names[3] != twin_names[4], "window 5 is where the twin cuts its next snapshot");
    for d in [&twin_dir, &dir] {
        let _ = std::fs::remove_dir_all(d);
    }
}

/// Logs window 0 of a fresh store over `geo` by hand, through the
/// `DurableStore` calls a durable pipeline makes, with `profile` as its suffixes
/// and `commit` built from the live state after `moves`; `corrupt` may edit
/// the commit before it is logged. Returns the store's directory.
fn log_window_zero(
    tag: &str,
    geo: &GeoGraph,
    profile: &TrafficProfile,
    moves: &[(VertexId, DcId)],
    corrupt: impl FnOnce(&mut geodur::Commit),
) -> PathBuf {
    let env = ec2_eight_regions();
    let dir = tmp_dir(tag);
    let mut store = geodur::DurableStore::create(&dir, geo, &env).expect("create");
    store
        .log_window_start(&geodur::WindowStart {
            window: 0,
            delta: None,
            loc_suffix: Vec::new(),
            size_suffix: Vec::new(),
            gather_suffix: profile.gather_bytes.clone(),
            apply_suffix: profile.apply_bytes.clone(),
            num_iterations: 10.0,
            dead: None,
            env_fp: geodur::env_fingerprint(&env),
        })
        .expect("log window start");
    // A profile that is not a load cannot build a state: commit the home
    // masters at zero cost, as a run that trusted the profile would have.
    let theta = 4;
    let (cost, masters) = match HybridState::try_from_masters(
        geo,
        &env,
        geo.locations.clone(),
        theta,
        profile.clone(),
        10.0,
    ) {
        Ok(mut live) => {
            let mut scratch = geopart::MoveScratch::new();
            for &(v, d) in moves {
                live.apply_move_with(&env, v, d, &mut scratch);
            }
            (live.core().movement_cost(), live.core().masters().to_vec())
        }
        Err(_) => (0.0, geo.locations.clone()),
    };
    store
        .log_batch(&geodur::Batch { window: 0, step: 0, moves: moves.to_vec() })
        .expect("log batch");
    let mut commit = geodur::Commit {
        window: 0,
        theta: theta as u64,
        movement_cost_bits: cost.to_bits(),
        masters_fnv: geodur::replay::masters_fnv(&masters),
    };
    corrupt(&mut commit);
    store.log_commit(&commit).expect("log commit");
    dir
}

/// Replay re-prices each window's moved bytes and compares them with the
/// commit's movement cost instead of adopting the logged bits: a commit
/// whose cost is one ulp off — in a frame the scanner accepts — is a
/// diverged replay, and the honest log recovers to the same masters.
#[test]
fn replay_verifies_the_committed_movement_cost() {
    let w = workload();
    let env = ec2_eight_regions();
    let profile = TrafficProfile::uniform(w.geo0.num_vertices(), 8.0);
    let away = |v: VertexId| (w.geo0.locations[v as usize] + 1) % 8;
    let moves = [(3, away(3)), (11, away(11))];

    let honest = log_window_zero("cost_honest", &w.geo0, &profile, &moves, |_| {});
    let (recovered, _) = DurableAdaptive::recover(&honest, pinned_config(), Some(0.4), &env, 0)
        .expect("an honest log recovers");
    let (core, _) = recovered.inner().carried_parts().expect("window 0 committed");
    assert!(core.movement_cost() > 0.0);
    let _ = std::fs::remove_dir_all(&honest);

    let forged = log_window_zero("cost_forged", &w.geo0, &profile, &moves, |commit| {
        commit.movement_cost_bits += 1;
    });
    match DurableAdaptive::recover(&forged, pinned_config(), Some(0.4), &env, 0) {
        Err(geodur::DurableError::ReplayDiverged { window: 0 }) => {}
        Err(other) => panic!("expected ReplayDiverged, got {other}"),
        Ok(_) => panic!("a commit with a forged movement cost recovered"),
    }
    let _ = std::fs::remove_dir_all(&forged);
}

/// A NaN in a logged profile suffix is decoded (the WAL stores `f32`s as
/// they are) but refused where replay quantises it, as a typed plan error
/// naming the vertex — never a recovered state with NaN loads.
#[test]
fn nan_profile_suffix_is_a_typed_replay_error() {
    let w = workload();
    let env = ec2_eight_regions();
    let mut profile = TrafficProfile::uniform(w.geo0.num_vertices(), 8.0);
    profile.gather_bytes[7] = f32::NAN;
    let dir = log_window_zero("nan_suffix", &w.geo0, &profile, &[], |_| {});
    match DurableAdaptive::recover(&dir, pinned_config(), Some(0.4), &env, 0) {
        Err(geodur::DurableError::Plan(geopart::PlanError::ProfileOutOfRange {
            vertex: 7,
            bytes,
        })) => assert!(bytes.is_nan()),
        Err(other) => panic!("expected ProfileOutOfRange, got {other}"),
        Ok(_) => panic!("a NaN profile suffix recovered"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}
