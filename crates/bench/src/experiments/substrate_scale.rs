//! Substrate at paper scale (not a paper artifact): streamed CSR ingest
//! and a fixed-rate training window over the Table II LiveJournal analog
//! — the one measurement that fits neither a test nor `benchmark/`'s
//! 10-second budget. `--scale 1.0` builds all 4.8 M vertices / ~69 M
//! directed edges (≈ 1 min, ≈ 0.9 GiB peak RSS); that run is recorded in
//! `EXPERIMENTS-data/substrate_scale.txt`.
//!
//! The two byte budgets printed here — CSR ≤ 9.0 B/edge, build peak
//! ≤ 1.25 × the final CSR — are exact for a seed and gated at scale 0.002 by
//! `lj_analog_ingest_stays_inside_its_byte_budgets` in
//! `tests/tests/streaming.rs`.

use crate::{f3, secs, timed, ExpContext, Table};
use geograph::datasets::DEFAULT_CHUNK_EDGES;
use geograph::generators::rmat_streamed;
use geograph::locality::LocalityConfig;
use geograph::{Dataset, GeoGraph, ScopedPool};
use geosim::regions::ec2_eight_regions;
use rlcut::RlCutConfig;

/// The training window: two steps, each scoring the whole 5 % prefix.
const STEPS: usize = 2;
const SAMPLE_RATE: f64 = 0.05;

pub fn run(ctx: &ExpContext) {
    let dataset = Dataset::LiveJournal;
    let (rmat_config, derived_seed) = dataset.rmat_setup(ctx.scale, ctx.seed);
    let threads = ctx.threads.max(1);
    let mib = |bytes: usize| format!("{:.1}", bytes as f64 / (1u64 << 20) as f64);

    // 1. Streamed build: the only O(E) allocation is the CSR it returns.
    let (built, build_time) = timed(|| {
        rmat_streamed(&rmat_config, derived_seed, DEFAULT_CHUNK_EDGES, &ScopedPool(threads))
    });
    let (graph, report) = built.unwrap_or_else(|e| panic!("streamed build failed: {e}"));
    let (csr_bytes, edges) = (report.csr_bytes as f64, report.edges as f64);
    let mut t = Table::new(
        &format!(
            "Substrate scale — streamed CSR ingest (LJ-analog, scale {}, {threads} threads)",
            ctx.scale
        ),
        &[
            "Vertices",
            "Edges",
            "Raw edges",
            "Build (s)",
            "Medges/s",
            "CSR (MiB)",
            "CSR B/edge",
            "Peak/final",
        ],
    );
    t.row(vec![
        graph.num_vertices().to_string(),
        report.edges.to_string(),
        report.raw_edges.to_string(),
        secs(build_time),
        f3(edges / build_time.as_secs_f64() / 1e6),
        mib(report.csr_bytes),
        format!("{:.3}", csr_bytes / edges),
        format!("{:.3}", report.build_ratio()),
    ]);
    t.print();

    // 2. A short fixed-rate training window over the freshly built graph.
    let geo = GeoGraph::from_graph(graph, &LocalityConfig::paper_default(ctx.seed));
    let env = ec2_eight_regions();
    let budget = geosim::cost::default_budget(&env, &geo.locations, &geo.data_sizes, 0.4);
    let config = RlCutConfig::new(budget)
        .with_seed(ctx.seed)
        .with_threads(threads)
        .with_fixed_sample_rate(SAMPLE_RATE)
        .with_max_steps(STEPS);
    let profile = geopart::TrafficProfile::uniform(geo.num_vertices(), 8.0);
    let result = rlcut::partition(&geo, &env, profile, 10.0, &config);
    let mut t = Table::new(
        &format!(
            "Substrate scale — training window ({STEPS} steps, {:.0}% sample)",
            SAMPLE_RATE * 100.0
        ),
        &[
            "Steps",
            "Train (s)",
            "Steps/s",
            "Agents/step",
            "Migrations",
            "Geo metadata B/edge",
            "Placement B/edge",
            "Peak RSS (MiB)",
        ],
    );
    t.row(vec![
        result.steps.len().to_string(),
        secs(result.total_duration),
        f3(result.steps.len() as f64 / result.total_duration.as_secs_f64()),
        result.steps.iter().map(|s| s.num_agents).max().unwrap_or(0).to_string(),
        result.total_migrations().to_string(),
        format!("{:.3}", (geo.heap_bytes() - geo.graph.heap_bytes()) as f64 / edges),
        format!("{:.3}", result.state.heap_bytes() as f64 / edges),
        geograph::peak_rss_bytes().map_or("n/a".into(), |b| mib(b as usize)),
    ]);
    t.print();
}
