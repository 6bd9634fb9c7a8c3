//! Dynamic-window micro-bench: incremental delta absorption vs a rebuild
//! per window on an LJ-analog growth stream.
//!
//! Splits a preferential-attachment graph 70/30, spreads the held-out
//! edges over `--windows` one-second windows, and drives two
//! [`AdaptiveRlCut`] instances over the *identical* snapshot sequence:
//! one handed each window's [`GraphDelta`] and resuming its carried
//! placement state incrementally (`on_window_delta`), one handed only the
//! snapshot and so rebuilding `from_masters` every window (`on_window`).
//! Training work is pinned (fixed sample
//! rate, fixed step count, pinned theta), so the overhead gap isolates
//! state preparation: O(delta) resume vs O(E) rebuild.
//!
//! Each incremental window is verified two ways: `DeltaApplyStats` proves
//! the work was proportional to the delta (the zero-rebuild probe), and
//! `validate_carried` recomputes the carried state from scratch and
//! compares bit-for-bit (integer state; f64 aggregates within tolerance).
//!
//! Writes a machine-readable `BENCH_adaptive.json` (format documented in
//! `DESIGN.md` §3e).
//!
//! Usage:
//!   bench_adaptive [--scale f] [--seed n] [--windows n] [--threads n]
//!                  [--out path] [--assert-speedup f]
//!
//! `--assert-speedup f` exits non-zero unless the rebuild baseline's total
//! per-window overhead is at least `f`x the incremental path's (used by
//! `scripts/verify.sh` as a smoke gate).

use std::fmt::Write as _;
use std::time::Duration;

use geograph::dynamic::split_for_dynamic;
use geograph::generators::preferential::preferential_attachment_edges;
use geograph::locality::{assign_locations, LocalityConfig};
use geograph::{Dataset, GeoGraph, GraphDelta, VertexId};
use geopart::TrafficProfile;
use geosim::regions::ec2_eight_regions;
use rlcut::{AdaptiveRlCut, RlCutConfig, WindowReport};

struct Args {
    scale: f64,
    seed: u64,
    windows: u64,
    threads: usize,
    out: String,
    assert_speedup: Option<f64>,
}

fn parse_args() -> Args {
    let mut args = Args {
        scale: 0.008,
        seed: 42,
        windows: 20,
        threads: 2,
        out: "BENCH_adaptive.json".to_string(),
        assert_speedup: None,
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
                assert!(args.windows >= 10, "--windows must be >= 10");
            }
            "--threads" => args.threads = value.parse().expect("--threads takes an integer"),
            "--out" => args.out = value.clone(),
            "--assert-speedup" => {
                args.assert_speedup = Some(value.parse().expect("--assert-speedup takes a float"))
            }
            other => panic!("unknown option {other}"),
        }
        i += 2;
    }
    args
}

struct WindowRecord {
    delta_edges: usize,
    touched: usize,
    incremental: WindowReport,
    rebuild: WindowReport,
    work_items: usize,
}

fn main() {
    let args = parse_args();
    let n = Dataset::LiveJournal.scaled_vertices(args.scale);
    let epv = (Dataset::LiveJournal.paper_edges() as f64
        / Dataset::LiveJournal.paper_vertices() as f64)
        .round() as usize;
    let edges = preferential_attachment_edges(n, epv, args.seed);
    // One window per second of stream time: the held-out 30% arrives
    // uniformly over `windows` seconds.
    let (initial, stream) = split_for_dynamic(&edges, n, 0.7, args.windows * 1_000);
    let windows: Vec<_> = stream.windows(1_000).collect();
    assert!(windows.len() >= 10, "need >= 10 delta windows, got {}", windows.len());

    // Locations and sizes over the final snapshot (the vertex table is
    // allocated up front; growth is edge-only), shared by both paths.
    let final_graph = {
        let mut g = initial.clone();
        for w in &windows {
            g = g.apply_delta(&GraphDelta::from_events(&g, w));
        }
        g
    };
    let cfg = LocalityConfig::paper_default(args.seed);
    let locations = assign_locations(&final_graph, &cfg);
    let sizes: Vec<u64> =
        (0..n as VertexId).map(|v| 65536 + 256 * final_graph.out_degree(v) as u64).collect();
    let env = ec2_eight_regions();
    eprintln!(
        "bench_adaptive: LJ-analog scale={} ({} vertices, {} -> {} edges), {} DCs, {} windows",
        args.scale,
        n,
        initial.num_edges(),
        final_graph.num_edges(),
        env.num_dcs(),
        windows.len(),
    );

    // Pinned training work: fixed sample rate and step count make both
    // paths train the same number of agents per window, and the pinned
    // theta keeps the hybrid-cut threshold from drifting as the graph
    // grows — the overhead gap is state preparation only.
    let config = RlCutConfig::new(f64::INFINITY)
        .with_seed(args.seed)
        .with_threads(args.threads)
        .with_theta(geograph::degree::suggest_theta(&final_graph, 0.05))
        .with_fixed_sample_rate(0.005)
        .with_max_steps(1);
    let mut incremental = AdaptiveRlCut::new(config.clone(), None);
    let mut rebuild = AdaptiveRlCut::new(config, None);
    let t_opt = Duration::from_secs(1);

    let mut graph = initial;
    let geo0 = GeoGraph::new(graph.clone(), locations.clone(), sizes.clone(), cfg.num_dcs);
    let p0 = TrafficProfile::uniform(n, 8.0);
    incremental.on_window(&geo0, &env, p0.clone(), 10.0, t_opt).expect("inc window 0");
    rebuild.on_window(&geo0, &env, p0.clone(), 10.0, t_opt).expect("reb window 0");

    let mut records: Vec<WindowRecord> = Vec::new();
    for (i, window) in windows.iter().enumerate() {
        let delta = GraphDelta::from_events(&graph, window);
        graph = graph.apply_delta(&delta);
        let geo = GeoGraph::new(graph.clone(), locations.clone(), sizes.clone(), cfg.num_dcs);
        let ri = incremental
            .on_window_delta(&geo, &env, &delta, p0.clone(), 10.0, t_opt)
            .unwrap_or_else(|e| panic!("incremental window {i}: {e}"));
        let rr = rebuild
            .on_window(&geo, &env, p0.clone(), 10.0, t_opt)
            .unwrap_or_else(|e| panic!("rebuild window {i}: {e}"));
        // Zero-rebuild probe: the incremental path must report delta
        // stats, and its work must scale with the delta, not the graph.
        let stats = ri.delta_stats.expect("incremental path must be taken");
        assert!(rr.delta_stats.is_none(), "a window without a delta must rebuild");
        // Incremental ≡ rebuild gate: recompute the carried state from
        // scratch and compare (bit-for-bit on integer state).
        let validated = incremental
            .validate_carried(&geo, &env)
            .unwrap_or_else(|e| panic!("window {i}: carried state diverged from rebuild: {e}"));
        assert!(validated);
        eprintln!(
            "  window {i:>2}: delta {:>6} edges / {:>6} touched | prep inc {:>9.3}ms vs reb {:>9.3}ms | work {:>8}",
            delta.num_edge_changes(),
            delta.touched().len(),
            ri.delta_apply.as_secs_f64() * 1e3,
            rr.delta_apply.as_secs_f64() * 1e3,
            stats.work_items(),
        );
        records.push(WindowRecord {
            delta_edges: delta.num_edge_changes(),
            touched: delta.touched().len(),
            incremental: ri,
            rebuild: rr,
            work_items: stats.work_items(),
        });
    }

    let inc_overhead: f64 = records.iter().map(|r| r.incremental.overhead.as_secs_f64()).sum();
    let reb_overhead: f64 = records.iter().map(|r| r.rebuild.overhead.as_secs_f64()).sum();
    let inc_prep: f64 = records.iter().map(|r| r.incremental.delta_apply.as_secs_f64()).sum();
    let reb_prep: f64 = records.iter().map(|r| r.rebuild.delta_apply.as_secs_f64()).sum();
    let headline = reb_overhead / inc_overhead.max(1e-12);
    eprintln!(
        "  totals over {} windows: overhead inc {:.3}s vs reb {:.3}s ({headline:.2}x); \
         state prep inc {:.3}s vs reb {:.3}s ({:.2}x)",
        records.len(),
        inc_overhead,
        reb_overhead,
        inc_prep,
        reb_prep,
        reb_prep / inc_prep.max(1e-12),
    );
    let inc_time = records.last().map(|r| r.incremental.transfer_time).unwrap_or(f64::NAN);
    let reb_time = records.last().map(|r| r.rebuild.transfer_time).unwrap_or(f64::NAN);
    eprintln!("  final transfer time: inc {inc_time:.6} vs reb {reb_time:.6}");

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"adaptive_windows\",");
    let _ = writeln!(json, "  \"dataset\": \"livejournal_analog\",");
    let _ = writeln!(json, "  \"scale\": {},", args.scale);
    let _ = writeln!(json, "  \"seed\": {},", args.seed);
    let _ = writeln!(json, "  \"vertices\": {n},");
    let _ = writeln!(json, "  \"initial_edges\": {},", geo0.num_edges());
    let _ = writeln!(json, "  \"final_edges\": {},", final_graph.num_edges());
    let _ = writeln!(json, "  \"num_dcs\": {},", env.num_dcs());
    let _ = writeln!(json, "  \"threads\": {},", args.threads);
    let _ = writeln!(json, "  \"windows\": {},", records.len());
    json.push_str("  \"per_window\": [\n");
    for (i, r) in records.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"window\": {i}, \"delta_edges\": {}, \"touched\": {}, \"work_items\": {}, \
             \"incremental\": {{\"prep_secs\": {:.6}, \"train_secs\": {:.6}, \"overhead_secs\": {:.6}, \"transfer_time\": {:.6}}}, \
             \"rebuild\": {{\"prep_secs\": {:.6}, \"train_secs\": {:.6}, \"overhead_secs\": {:.6}, \"transfer_time\": {:.6}}}}}",
            r.delta_edges,
            r.touched,
            r.work_items,
            r.incremental.delta_apply.as_secs_f64(),
            r.incremental.train.as_secs_f64(),
            r.incremental.overhead.as_secs_f64(),
            r.incremental.transfer_time,
            r.rebuild.delta_apply.as_secs_f64(),
            r.rebuild.train.as_secs_f64(),
            r.rebuild.overhead.as_secs_f64(),
            r.rebuild.transfer_time,
        );
        json.push_str(if i + 1 < records.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    let _ = writeln!(json, "  \"incremental_overhead_secs\": {inc_overhead:.6},");
    let _ = writeln!(json, "  \"rebuild_overhead_secs\": {reb_overhead:.6},");
    let _ = writeln!(json, "  \"incremental_prep_secs\": {inc_prep:.6},");
    let _ = writeln!(json, "  \"rebuild_prep_secs\": {reb_prep:.6},");
    let _ = writeln!(json, "  \"rebuild_vs_incremental_overhead\": {headline:.4},");
    let mut mem = geograph::MemReport::new(final_graph.num_edges() as u64);
    mem.add("final_graph_csr", final_graph.heap_bytes());
    if let Some((state, _)) = incremental.carried_parts() {
        mem.add("carried_state", state.heap_bytes());
    }
    json.push_str(&geobench::mem_json_field(&mem));
    let _ = writeln!(json, "  \"validated_windows\": {}", records.len());
    json.push_str("}\n");
    std::fs::write(&args.out, &json)
        .unwrap_or_else(|e| panic!("could not write {}: {e}", args.out));
    eprintln!("  wrote {}", args.out);

    if let Some(required) = args.assert_speedup {
        assert!(
            headline >= required,
            "rebuild-per-window overhead is only {headline:.3}x the incremental path's \
             (required {required}x): state prep is not dominating at this scale"
        );
    }
}
