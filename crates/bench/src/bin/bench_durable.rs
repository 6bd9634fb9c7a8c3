//! Durability micro-bench: what crash-exact recovery costs.
//!
//! Drives a [`rlcut::DurableAdaptive`] pipeline over an LJ-analog growth
//! stream (same workload shape as `bench_adaptive`) and measures the three
//! durability overheads:
//!
//!   1. WAL bytes appended per window (start + batch + commit records),
//!   2. snapshot size, bytes per edge and write time at the configured
//!      cadence, and the load time (read + checksum + decode) recovery paid,
//!   3. recovery time — twice: from the latest snapshot plus the WAL tail
//!      (the normal path), and on a twin pipeline that never snapshots,
//!      so recovery replays the whole log from genesis (the worst case).
//!
//! Both recoveries are checked bit-exact against the live run: masters
//! must be identical and the movement-cost accumulator equal to the last
//! `f64` bit. Writes a machine-readable `BENCH_durable.json` (format
//! documented in `DESIGN.md` §3g).
//!
//! Usage:
//!   bench_durable [--scale f] [--seed n] [--windows n] [--threads n]
//!                 [--snapshot-every n] [--out path] [--assert-max-recovery-ms n]
//!                 [--assert-max-snapshot-bytes-per-edge x]
//!
//! `--assert-max-recovery-ms n` exits non-zero unless the snapshot-path
//! recovery finishes within `n` milliseconds, and
//! `--assert-max-snapshot-bytes-per-edge x` unless the last snapshot costs
//! at most `x` bytes per graph edge (both used by `scripts/verify.sh` as
//! smoke gates alongside the built-in bit-exactness asserts).

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use geograph::dynamic::split_for_dynamic;
use geograph::generators::preferential::preferential_attachment_edges;
use geograph::locality::{assign_locations, LocalityConfig};
use geograph::{Dataset, GeoGraph, GraphDelta};
use geopart::TrafficProfile;
use geosim::regions::ec2_eight_regions;
use rlcut::{DurableAdaptive, RlCutConfig};

struct Args {
    scale: f64,
    seed: u64,
    windows: u64,
    threads: usize,
    snapshot_every: u64,
    out: String,
    assert_max_recovery_ms: Option<u64>,
    assert_max_snapshot_bytes_per_edge: Option<f64>,
}

fn parse_args() -> Args {
    let mut args = Args {
        scale: 0.004,
        seed: 42,
        windows: 12,
        threads: 2,
        snapshot_every: 4,
        out: "BENCH_durable.json".to_string(),
        assert_max_recovery_ms: None,
        assert_max_snapshot_bytes_per_edge: None,
    };
    let argv: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i + 1 < argv.len() {
        let value = &argv[i + 1];
        match argv[i].as_str() {
            "--scale" => args.scale = value.parse().expect("--scale takes a float"),
            "--seed" => args.seed = value.parse().expect("--seed takes an integer"),
            "--windows" => {
                args.windows = value.parse().expect("--windows takes an integer");
                assert!(args.windows >= 4, "--windows must be >= 4");
            }
            "--threads" => args.threads = value.parse().expect("--threads takes an integer"),
            "--snapshot-every" => {
                args.snapshot_every = value.parse().expect("--snapshot-every takes an integer")
            }
            "--out" => args.out = value.clone(),
            "--assert-max-recovery-ms" => {
                args.assert_max_recovery_ms =
                    Some(value.parse().expect("--assert-max-recovery-ms takes an integer"))
            }
            "--assert-max-snapshot-bytes-per-edge" => {
                args.assert_max_snapshot_bytes_per_edge =
                    Some(value.parse().expect("--assert-max-snapshot-bytes-per-edge takes a float"))
            }
            other => panic!("unknown option {other}"),
        }
        i += 2;
    }
    args
}

struct WindowRecord {
    delta_edges: usize,
    wal_bytes: u64,
    overhead_secs: f64,
    snapshot_bytes: Option<u64>,
}

fn main() {
    let args = parse_args();
    let n = Dataset::LiveJournal.scaled_vertices(args.scale);
    let epv = (Dataset::LiveJournal.paper_edges() as f64
        / Dataset::LiveJournal.paper_vertices() as f64)
        .round() as usize;
    let edges = preferential_attachment_edges(n, epv, args.seed);
    let (initial, stream) = split_for_dynamic(&edges, n, 0.7, args.windows * 1_000);
    let windows: Vec<_> = stream.windows(1_000).collect();
    assert!(windows.len() >= 4, "need >= 4 delta windows, got {}", windows.len());

    let final_graph = {
        let mut g = initial.clone();
        for w in &windows {
            g = g.apply_delta(&GraphDelta::from_events(&g, w));
        }
        g
    };
    let cfg = LocalityConfig::paper_default(args.seed);
    let locations = assign_locations(&final_graph, &cfg);
    let sizes: Vec<u64> = (0..final_graph.num_vertices()).map(|_| 65536).collect();
    let env = ec2_eight_regions();
    let dir = std::env::temp_dir().join(format!("rlcut_bench_durable_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    eprintln!(
        "bench_durable: LJ-analog scale={} ({} vertices, {} -> {} edges), {} windows, snapshot every {}, dir {}",
        args.scale,
        n,
        initial.num_edges(),
        final_graph.num_edges(),
        windows.len(),
        args.snapshot_every,
        dir.display(),
    );

    // Pinned training work (fixed sample rate, fixed steps, pinned theta)
    // so recovered-vs-live comparisons are bit-exact by construction and
    // WAL volume is stable across machines.
    let config = RlCutConfig::new(1.0)
        .with_seed(args.seed)
        .with_threads(args.threads)
        .with_theta(geograph::degree::suggest_theta(&final_graph, 0.05))
        .with_fixed_sample_rate(0.05)
        .with_max_steps(2);
    let t_opt = Duration::from_secs(60);

    // Drives the whole workload against a fresh durable pipeline at
    // `run_dir`. `cadence == 0` disables snapshots entirely, leaving only
    // the genesis one — recovery then replays the full log.
    let drive = |run_dir: &std::path::Path, cadence: u64, verbose: bool| {
        let _ = std::fs::remove_dir_all(run_dir);
        let mut graph = initial.clone();
        let geo0 = GeoGraph::new(
            graph.clone(),
            locations[..graph.num_vertices()].to_vec(),
            sizes[..graph.num_vertices()].to_vec(),
            cfg.num_dcs,
        );
        let mut durable =
            DurableAdaptive::create(run_dir, config.clone(), Some(0.4), geo0, &env, 0)
                .expect("create durable dir");

        let mut records: Vec<WindowRecord> = Vec::new();
        // (encoded bytes, write time) per snapshot cut.
        let mut snapshots: Vec<(u64, Duration)> = Vec::new();
        let genesis_bytes = durable.store().appended_bytes();
        let mut bytes_before = genesis_bytes;
        let p0 = TrafficProfile::uniform(graph.num_vertices(), 8.0);
        let r0 = durable.window(&env, None, &[], &[], p0, 10.0, t_opt).expect("window 0");
        records.push(WindowRecord {
            delta_edges: 0,
            wal_bytes: durable.store().appended_bytes() - bytes_before,
            overhead_secs: r0.overhead.as_secs_f64(),
            snapshot_bytes: None,
        });
        bytes_before = durable.store().appended_bytes();

        for (i, window) in windows.iter().enumerate() {
            let delta = GraphDelta::from_events(&graph, window);
            let old_n = graph.num_vertices();
            graph = graph.apply_delta(&delta);
            let new_n = graph.num_vertices();
            let p = TrafficProfile::uniform(new_n, 8.0);
            let report = durable
                .window(
                    &env,
                    Some(&delta),
                    &locations[old_n..new_n],
                    &sizes[old_n..new_n],
                    p,
                    10.0,
                    t_opt,
                )
                .unwrap_or_else(|e| panic!("window {}: {e}", i + 1));
            // Explicit snapshots at the cadence (the automatic trigger is
            // off) so each one's byte size can be recorded.
            let snap_bytes = if cadence > 0 && (i as u64 + 1).is_multiple_of(cadence) {
                let start = Instant::now();
                let b = durable.snapshot_now().expect("snapshot");
                snapshots.push((b, start.elapsed()));
                Some(b)
            } else {
                None
            };
            records.push(WindowRecord {
                delta_edges: delta.num_edge_changes(),
                wal_bytes: durable.store().appended_bytes() - bytes_before,
                overhead_secs: report.overhead.as_secs_f64(),
                snapshot_bytes: snap_bytes,
            });
            bytes_before = durable.store().appended_bytes();
            if verbose {
                eprintln!(
                    "  window {:>2}: delta {:>6} edges | wal {:>8} B | overhead {:>8.3}ms{}",
                    i + 1,
                    records.last().unwrap().delta_edges,
                    records.last().unwrap().wal_bytes,
                    report.overhead.as_secs_f64() * 1e3,
                    snap_bytes.map(|b| format!(" | snapshot {b} B")).unwrap_or_default(),
                );
            }
        }

        let committed = durable.next_window();
        let (core, _) = durable.inner().carried_parts().expect("live run carries state");
        let masters = core.masters().to_vec();
        let cost_bits = core.movement_cost().to_bits();
        drop(durable); // the "crash": nothing survives but the directory
        (records, snapshots, genesis_bytes, committed, masters, cost_bits)
    };

    // Run with snapshots; the same deterministic workload later reruns
    // snapshot-free for the full-replay recovery measurement.
    let (records, snapshots, genesis_bytes, committed, live_masters, live_cost_bits) =
        drive(&dir, args.snapshot_every, true);

    // Recovery 1: normal path, latest snapshot + WAL tail.
    let start = Instant::now();
    let (recovered, summary) =
        DurableAdaptive::recover(&dir, config.clone(), Some(0.4), &env, args.snapshot_every)
            .expect("snapshot-path recovery");
    let recovery_snapshot = start.elapsed();
    assert_eq!(summary.next_window, committed, "recovery lost windows");
    assert_eq!(recovered.masters(), &live_masters[..], "recovered masters diverged");
    let (core, _) = recovered.inner().carried_parts().expect("recovered state");
    assert_eq!(core.movement_cost().to_bits(), live_cost_bits, "movement cost not bit-exact");
    let tail_windows = summary.replayed_windows;
    let snapshot_load = summary.report.snapshot_load;
    drop(recovered);

    // Recovery 2: worst case — the twin pipeline never snapshotted, so
    // only the genesis snapshot exists and the whole log is replayed.
    let full_dir = dir.join("full");
    let (_, _, _, full_committed, full_masters, full_cost_bits) = drive(&full_dir, 0, false);
    assert_eq!(full_committed, committed, "twin run diverged");
    assert_eq!(full_masters, live_masters, "deterministic twin produced different masters");
    assert_eq!(full_cost_bits, live_cost_bits);
    let start = Instant::now();
    let (recovered, summary) =
        DurableAdaptive::recover(&full_dir, config.clone(), Some(0.4), &env, 0)
            .expect("full-replay recovery");
    let recovery_full = start.elapsed();
    assert_eq!(summary.next_window, committed);
    assert_eq!(summary.replayed_windows, committed, "full replay must cover every window");
    assert_eq!(recovered.masters(), &live_masters[..], "full replay diverged");
    let (core, _) = recovered.inner().carried_parts().expect("recovered state");
    assert_eq!(core.movement_cost().to_bits(), live_cost_bits);
    drop(recovered);

    let wal_total: u64 = records.iter().map(|r| r.wal_bytes).sum();
    let wal_per_window = wal_total as f64 / records.len() as f64;
    let (snap_last, snapshot_write) = snapshots.last().copied().unwrap_or_default();
    // The last snapshot is cut after the last window, over the final graph.
    let snap_bytes_per_edge = snap_last as f64 / final_graph.num_edges() as f64;
    eprintln!(
        "  recovery: snapshot+tail {:.3}ms ({tail_windows} windows replayed) vs full replay {:.3}ms ({committed} windows); \
         wal {wal_total} B total ({wal_per_window:.0} B/window), last snapshot {snap_last} B \
         ({snap_bytes_per_edge:.3} B/edge, written in {:.3}ms, loaded in {:.3}ms); bit-exact OK",
        recovery_snapshot.as_secs_f64() * 1e3,
        recovery_full.as_secs_f64() * 1e3,
        snapshot_write.as_secs_f64() * 1e3,
        snapshot_load.as_secs_f64() * 1e3,
    );

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"durable_recovery\",");
    let _ = writeln!(json, "  \"dataset\": \"livejournal_analog\",");
    let _ = writeln!(json, "  \"scale\": {},", args.scale);
    let _ = writeln!(json, "  \"seed\": {},", args.seed);
    let _ = writeln!(json, "  \"vertices\": {n},");
    let _ = writeln!(json, "  \"final_edges\": {},", final_graph.num_edges());
    let _ = writeln!(json, "  \"threads\": {},", args.threads);
    let _ = writeln!(json, "  \"windows\": {committed},");
    let _ = writeln!(json, "  \"snapshot_every\": {},", args.snapshot_every);
    let _ = writeln!(json, "  \"genesis_bytes\": {genesis_bytes},");
    json.push_str("  \"per_window\": [\n");
    for (i, r) in records.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"window\": {i}, \"delta_edges\": {}, \"wal_bytes\": {}, \
             \"overhead_secs\": {:.6}, \"snapshot_bytes\": {}}}",
            r.delta_edges,
            r.wal_bytes,
            r.overhead_secs,
            r.snapshot_bytes.map(|b| b.to_string()).unwrap_or_else(|| "null".to_string()),
        );
        json.push_str(if i + 1 < records.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    let _ = writeln!(json, "  \"wal_bytes_total\": {wal_total},");
    let _ = writeln!(json, "  \"wal_bytes_per_window\": {wal_per_window:.1},");
    let _ = writeln!(json, "  \"snapshot_bytes_last\": {snap_last},");
    let _ = writeln!(json, "  \"snapshot_bytes_per_edge\": {snap_bytes_per_edge:.4},");
    let _ = writeln!(json, "  \"snapshot_write_ms\": {:.3},", snapshot_write.as_secs_f64() * 1e3);
    let _ = writeln!(json, "  \"snapshot_load_ms\": {:.3},", snapshot_load.as_secs_f64() * 1e3);
    let _ = writeln!(json, "  \"recovery_snapshot_secs\": {:.6},", recovery_snapshot.as_secs_f64());
    let _ = writeln!(json, "  \"recovery_snapshot_replayed_windows\": {tail_windows},");
    let _ = writeln!(json, "  \"recovery_full_secs\": {:.6},", recovery_full.as_secs_f64());
    let _ = writeln!(json, "  \"recovery_full_replayed_windows\": {committed},");
    let mut mem = geograph::MemReport::new(final_graph.num_edges() as u64);
    mem.add("final_graph_csr", final_graph.heap_bytes());
    json.push_str(&geobench::mem_json_field(&mem));
    let _ = writeln!(json, "  \"recovered_bit_exact\": true");
    json.push_str("}\n");
    std::fs::write(&args.out, &json)
        .unwrap_or_else(|e| panic!("could not write {}: {e}", args.out));
    eprintln!("  wrote {}", args.out);
    let _ = std::fs::remove_dir_all(&dir);

    if let Some(max_ms) = args.assert_max_recovery_ms {
        let got = recovery_snapshot.as_millis() as u64;
        assert!(got <= max_ms, "snapshot-path recovery took {got}ms (limit {max_ms}ms)");
    }
    if let Some(max) = args.assert_max_snapshot_bytes_per_edge {
        assert!(
            snap_bytes_per_edge <= max,
            "last snapshot costs {snap_bytes_per_edge:.3} B/edge (limit {max})"
        );
    }
}
