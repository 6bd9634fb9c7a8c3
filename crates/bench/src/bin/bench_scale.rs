//! Paper-scale substrate bench: streamed CSR ingest of the LiveJournal
//! analog at full Table II size, plus the memory-footprint gate.
//!
//! At `--scale 1.0` this builds the 4.8M-vertex / ~69M-edge LJ analog
//! through the two-pass streaming path (no staged edge list — peak build
//! memory must stay within `--assert-build-ratio` of the final CSR),
//! runs a short scan-capped training window over the result, and writes a
//! machine-readable `BENCH_scale.json` (format documented in `DESIGN.md`
//! §3i) with peak RSS, per-component bytes/edge, build edges/s and
//! training steps/s.
//!
//! Usage:
//!   bench_scale [--scale f] [--seed n] [--threads n] [--chunk-edges n]
//!               [--steps n] [--sample-rate f] [--max-scan n] [--out path]
//!               [--assert-max-bytes-per-edge f] [--assert-build-ratio f]
//!               [--shards n] [--assert-shard-peak-frac f]
//!
//! `--assert-max-bytes-per-edge f` exits non-zero unless the CSR costs at
//! most `f` bytes per directed edge; `--assert-build-ratio f` gates the
//! streamed build's peak-over-final memory ratio. `--shards n` replays
//! the same chunked source through the shard-resident ingest
//! ([`geograph::ShardView::build_streamed`]) — each shard's view is
//! cross-checked bit-identical against the staged build, and
//! `--assert-shard-peak-frac f` gates every shard's peak footprint
//! (view + transients) at `f` times the full CSR. All gates are used by
//! `scripts/verify.sh`.

use std::fmt::Write as _;
use std::time::Instant;

use geograph::datasets::DEFAULT_CHUNK_EDGES;
use geograph::generators::rmat_streamed;
use geograph::locality::LocalityConfig;
use geograph::{Dataset, GeoGraph, MemReport};
use geosim::regions::ec2_eight_regions;
use rlcut::{RlCutConfig, WorkerPool};

struct Args {
    scale: f64,
    seed: u64,
    threads: usize,
    chunk_edges: usize,
    steps: usize,
    sample_rate: f64,
    max_scan: usize,
    out: String,
    assert_max_bytes_per_edge: Option<f64>,
    assert_build_ratio: Option<f64>,
    shards: usize,
    assert_shard_peak_frac: Option<f64>,
}

fn parse_args() -> Args {
    let mut args = Args {
        scale: 1.0,
        seed: 42,
        threads: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4),
        chunk_edges: DEFAULT_CHUNK_EDGES,
        steps: 3,
        sample_rate: 0.05,
        max_scan: 100_000,
        out: "BENCH_scale.json".to_string(),
        assert_max_bytes_per_edge: None,
        assert_build_ratio: None,
        shards: 0,
        assert_shard_peak_frac: None,
    };
    let argv: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i + 1 < argv.len() {
        let value = &argv[i + 1];
        match argv[i].as_str() {
            "--scale" => args.scale = value.parse().expect("--scale takes a float"),
            "--seed" => args.seed = value.parse().expect("--seed takes an integer"),
            "--threads" => args.threads = value.parse().expect("--threads takes an integer"),
            "--chunk-edges" => {
                args.chunk_edges = value.parse().expect("--chunk-edges takes an integer")
            }
            "--steps" => args.steps = value.parse().expect("--steps takes an integer"),
            "--sample-rate" => {
                args.sample_rate = value.parse().expect("--sample-rate takes a float")
            }
            "--max-scan" => args.max_scan = value.parse().expect("--max-scan takes an integer"),
            "--out" => args.out = value.clone(),
            "--assert-max-bytes-per-edge" => {
                args.assert_max_bytes_per_edge =
                    Some(value.parse().expect("--assert-max-bytes-per-edge takes a float"))
            }
            "--assert-build-ratio" => {
                args.assert_build_ratio =
                    Some(value.parse().expect("--assert-build-ratio takes a float"))
            }
            "--shards" => args.shards = value.parse().expect("--shards takes an integer"),
            "--assert-shard-peak-frac" => {
                args.assert_shard_peak_frac =
                    Some(value.parse().expect("--assert-shard-peak-frac takes a float"))
            }
            other => panic!("unknown option {other}"),
        }
        i += 2;
    }
    args
}

fn main() {
    let args = parse_args();
    let dataset = Dataset::LiveJournal;
    let (rmat_config, derived_seed) = dataset.rmat_setup(args.scale, args.seed);
    let pool = WorkerPool::new(args.threads.max(1));
    eprintln!(
        "bench_scale: LJ-analog scale={} ({} vertices, {} edges target), chunk {} edges, {} threads",
        args.scale,
        dataset.scaled_vertices(args.scale),
        dataset.scaled_edges(args.scale),
        args.chunk_edges,
        args.threads,
    );

    // 1. Streamed two-pass build: the only O(E) arrays ever allocated are
    //    the final CSR and the 8n-byte degree/cursor counters.
    let build_start = Instant::now();
    let (graph, report) = rmat_streamed(&rmat_config, derived_seed, args.chunk_edges, &pool)
        .unwrap_or_else(|e| panic!("streamed build failed: {e}"));
    let build_secs = build_start.elapsed().as_secs_f64();
    let build_eps = report.edges as f64 / build_secs.max(1e-9);
    let csr_bpe = report.csr_bytes as f64 / report.edges.max(1) as f64;
    eprintln!(
        "  build: {} kept edges ({} raw) in {build_secs:.2}s ({:.2}M edges/s); \
         csr {} B ({csr_bpe:.2} B/edge), peak/final ratio {:.3}",
        report.edges,
        report.raw_edges,
        build_eps / 1e6,
        report.csr_bytes,
        report.build_ratio(),
    );

    // 2. Shard-resident ingest: replay the same chunked source into one
    //    view per shard without the global CSR. Each view is cross-checked
    //    bit-identical against the staged build, and the per-shard peak
    //    (view + transient planes) is what a shard node would actually
    //    resident — the quantity `--assert-shard-peak-frac` gates.
    let mut shard_rows: Vec<(usize, usize, usize, usize, f64)> = Vec::new();
    let mut shard_peak_frac_max = 0.0_f64;
    if args.shards > 0 {
        let shard_start = Instant::now();
        let src =
            geograph::generators::RmatChunks::new(rmat_config, derived_seed, args.chunk_edges);
        // Edge-balanced contiguous ranges: R-MAT piles its hubs into the
        // low id region, so an even vertex split would leave shard 0
        // holding most of the adjacency. (A pure shard-resident deployment
        // derives the same boundaries from a degree-counting pass.)
        let spec = geograph::ShardSpec::balanced(&graph, args.shards);
        for s in 0..args.shards {
            let (view, shard_report) = geograph::ShardView::build_streamed(
                &src,
                geograph::StreamConfig::cleaned(),
                &spec,
                s,
                &pool,
            )
            .unwrap_or_else(|e| panic!("shard {s} streamed build failed: {e}"));
            assert_eq!(
                view,
                geograph::ShardView::build(&graph, &spec, s),
                "shard {s}: streamed view diverged from the staged build"
            );
            let peak = shard_report.peak_bytes();
            let frac = peak as f64 / report.csr_bytes.max(1) as f64;
            shard_peak_frac_max = shard_peak_frac_max.max(frac);
            shard_rows.push((s, view.heap_bytes(), shard_report.transient_bytes, peak, frac));
        }
        eprintln!(
            "  shards: {} shard-resident ingests in {:.2}s; max peak {:.1}% of the full CSR",
            args.shards,
            shard_start.elapsed().as_secs_f64(),
            shard_peak_frac_max * 100.0,
        );
    }

    // 3. A short scan-capped training window over the freshly built graph.
    let geo = GeoGraph::from_graph(graph, &LocalityConfig::paper_default(args.seed));
    let env = ec2_eight_regions();
    let budget = geosim::cost::default_budget(&env, &geo.locations, &geo.data_sizes, 0.4);
    let config = RlCutConfig::new(budget)
        .with_seed(args.seed)
        .with_threads(args.threads.max(1))
        .with_fixed_sample_rate(args.sample_rate.clamp(0.0, 1.0))
        .with_max_scan(args.max_scan)
        .with_max_steps(args.steps);
    let profile = geopart::TrafficProfile::uniform(geo.num_vertices(), 8.0);
    let result = rlcut::partition(&geo, &env, profile, 10.0, &config);
    let train_secs = result.total_duration.as_secs_f64();
    let steps_per_sec = result.steps.len() as f64 / train_secs.max(1e-9);
    let agents_per_step = result.steps.iter().map(|s| s.num_agents).max().unwrap_or(0);
    eprintln!(
        "  window: {} steps in {train_secs:.2}s ({steps_per_sec:.2} steps/s), \
         <= {agents_per_step} agents/step (cap {}), {} migrations",
        result.steps.len(),
        args.max_scan,
        result.total_migrations(),
    );

    // 4. The footprint report. `geo_metadata` is the location/data-size
    //    overlay GeoGraph adds on top of the CSR.
    let mut mem = MemReport::new(report.edges as u64);
    mem.add("csr", geo.graph.heap_bytes());
    mem.add("geo_metadata", geo.heap_bytes() - geo.graph.heap_bytes());
    mem.add("build_transient", report.transient_bytes);
    mem.add("placement_state", result.state.heap_bytes());
    let peak = geograph::peak_rss_bytes();
    eprintln!(
        "  mem: accounted {:.2} B/edge over {} components; peak RSS {}",
        mem.bytes_per_edge(),
        mem.components().len(),
        peak.map(|b| format!("{:.1} MiB", b as f64 / (1 << 20) as f64))
            .unwrap_or_else(|| "n/a".to_string()),
    );

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"scale_substrate\",");
    let _ = writeln!(json, "  \"dataset\": \"livejournal_analog\",");
    let _ = writeln!(json, "  \"scale\": {},", args.scale);
    let _ = writeln!(json, "  \"seed\": {},", args.seed);
    let _ = writeln!(json, "  \"threads\": {},", args.threads);
    let _ = writeln!(json, "  \"chunk_edges\": {},", args.chunk_edges);
    let _ = writeln!(json, "  \"vertices\": {},", geo.num_vertices());
    let _ = writeln!(json, "  \"edges\": {},", report.edges);
    let _ = writeln!(json, "  \"raw_edges\": {},", report.raw_edges);
    let _ = writeln!(json, "  \"self_loops_dropped\": {},", report.self_loops_dropped);
    let _ = writeln!(json, "  \"duplicates_removed\": {},", report.duplicates_removed);
    let _ = writeln!(json, "  \"build_secs\": {build_secs:.6},");
    let _ = writeln!(json, "  \"build_edges_per_sec\": {build_eps:.1},");
    let _ = writeln!(json, "  \"build_peak_over_final_ratio\": {:.4},", report.build_ratio());
    let _ = writeln!(json, "  \"csr_bytes\": {},", report.csr_bytes);
    let _ = writeln!(json, "  \"csr_bytes_per_edge\": {csr_bpe:.3},");
    let _ = writeln!(json, "  \"train_steps\": {},", result.steps.len());
    let _ = writeln!(json, "  \"train_secs\": {train_secs:.6},");
    let _ = writeln!(json, "  \"train_steps_per_sec\": {steps_per_sec:.4},");
    let _ = writeln!(json, "  \"max_scan\": {},", args.max_scan);
    let _ = writeln!(json, "  \"agents_per_step\": {agents_per_step},");
    let _ = writeln!(json, "  \"migrations\": {},", result.total_migrations());
    let _ = writeln!(json, "  \"shards\": {},", args.shards);
    if !shard_rows.is_empty() {
        json.push_str("  \"shard_resident\": [\n");
        for (i, (s, view_bytes, transient_bytes, peak, frac)) in shard_rows.iter().enumerate() {
            let _ = writeln!(
                json,
                "    {{\"shard\": {s}, \"view_bytes\": {view_bytes}, \
                 \"transient_bytes\": {transient_bytes}, \"peak_bytes\": {peak}, \
                 \"peak_frac_of_csr\": {frac:.4}}}{}",
                if i + 1 < shard_rows.len() { "," } else { "" },
            );
        }
        json.push_str("  ],\n");
        let _ = writeln!(json, "  \"shard_peak_frac_max\": {shard_peak_frac_max:.4},");
    }
    json.push_str(&geobench::mem_json_field(&mem));
    let _ = writeln!(json, "  \"sample_rate\": {}", args.sample_rate);
    json.push_str("}\n");
    std::fs::write(&args.out, &json)
        .unwrap_or_else(|e| panic!("could not write {}: {e}", args.out));
    eprintln!("  wrote {}", args.out);

    if let Some(ceiling) = args.assert_max_bytes_per_edge {
        assert!(
            csr_bpe <= ceiling,
            "CSR costs {csr_bpe:.3} B/edge (ceiling {ceiling}): adjacency storage regressed"
        );
    }
    if let Some(ceiling) = args.assert_build_ratio {
        let ratio = report.build_ratio();
        assert!(
            ratio <= ceiling,
            "streamed build peaked at {ratio:.3}x the final CSR (ceiling {ceiling}x): \
             an O(E) staging copy crept back into the ingest path"
        );
    }
    if let Some(ceiling) = args.assert_shard_peak_frac {
        assert!(args.shards > 0, "--assert-shard-peak-frac requires --shards");
        assert!(
            shard_peak_frac_max <= ceiling,
            "a shard-resident ingest peaked at {:.3}x the full CSR (ceiling {ceiling}x): \
             the per-shard footprint is no longer a fraction of the graph",
            shard_peak_frac_max,
        );
    }
}
