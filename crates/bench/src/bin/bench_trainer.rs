//! Trainer-throughput micro-bench: the training loop at several thread
//! counts on the 8-DC Twitter-analog preset.
//!
//! Sweeps thread counts over identical full-sampling training runs,
//! cross-checks that every thread count trains the 1-thread plan
//! bit-for-bit (the pool's determinism contract), and writes a
//! machine-readable `BENCH_trainer.json` with per-phase seconds.
//!
//! Usage:
//!   bench_trainer [--scale f] [--seed n] [--steps n] [--reps n]
//!                 [--threads-list 1,2,4,8] [--out path]

use std::fmt::Write as _;
use std::time::Duration;

use geograph::locality::LocalityConfig;
use geograph::{Dataset, GeoGraph};
use geosim::regions::ec2_eight_regions;
use rlcut::{RlCutConfig, RlCutResult};

struct Args {
    scale: f64,
    seed: u64,
    steps: usize,
    reps: usize,
    threads_list: Vec<usize>,
    out: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        scale: 0.0004,
        seed: 42,
        steps: 5,
        reps: 3,
        threads_list: vec![1, 2, 4, 8],
        out: "BENCH_trainer.json".to_string(),
    };
    let argv: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i + 1 < argv.len() {
        let value = &argv[i + 1];
        match argv[i].as_str() {
            "--scale" => args.scale = value.parse().expect("--scale takes a float"),
            "--seed" => args.seed = value.parse().expect("--seed takes an integer"),
            "--steps" => args.steps = value.parse().expect("--steps takes an integer"),
            "--reps" => args.reps = value.parse().expect("--reps takes an integer"),
            "--threads-list" => {
                args.threads_list = value
                    .split(',')
                    .map(|t| t.parse().expect("--threads-list takes comma-separated integers"))
                    .collect();
                assert!(!args.threads_list.is_empty());
            }
            "--out" => args.out = value.clone(),
            other => panic!("unknown option {other}"),
        }
        i += 2;
    }
    args
}

struct RunRecord {
    threads: usize,
    steps_run: usize,
    total: Duration,
    score: Duration,
    migrate: Duration,
    migrations: usize,
}

impl RunRecord {
    fn steps_per_sec(&self) -> f64 {
        self.steps_run as f64 / self.total.as_secs_f64()
    }
}

/// Best-of-`reps` timing of one thread count. Every rep trains the same
/// plan; the fastest rep is the least-noisy estimate.
fn run_cell(
    geo: &GeoGraph,
    env: &geosim::CloudEnv,
    base: &RlCutConfig,
    threads: usize,
    reps: usize,
) -> (RunRecord, Vec<geograph::DcId>, usize) {
    let config = base.clone().with_threads(threads);
    let profile = geopart::TrafficProfile::uniform(geo.num_vertices(), 8.0);
    let mut best: Option<(RunRecord, RlCutResult<'_>)> = None;
    for _ in 0..reps.max(1) {
        let result = rlcut::partition(geo, env, profile.clone(), 10.0, &config);
        let record = RunRecord {
            threads,
            steps_run: result.steps.len(),
            total: result.total_duration,
            score: result.steps.iter().map(|s| s.score_duration).sum(),
            migrate: result.steps.iter().map(|s| s.migrate_duration).sum(),
            migrations: result.total_migrations(),
        };
        if best.as_ref().is_none_or(|(b, _)| record.total < b.total) {
            best = Some((record, result));
        }
    }
    let (record, result) = best.expect("reps >= 1");
    let state_bytes = result.state.heap_bytes();
    (record, result.state.core().masters().to_vec(), state_bytes)
}

fn main() {
    let args = parse_args();
    let graph = Dataset::Twitter.generate(args.scale, args.seed);
    let geo = GeoGraph::from_graph(graph, &LocalityConfig::paper_default(args.seed));
    let env = ec2_eight_regions();
    let budget = geosim::cost::default_budget(&env, &geo.locations, &geo.data_sizes, 0.4);
    // Full sampling + the paper's batch size keeps both parallel phases
    // saturated every step.
    let base = RlCutConfig::new(budget)
        .with_seed(args.seed)
        .with_fixed_sample_rate(1.0)
        .with_max_steps(args.steps);
    eprintln!(
        "bench_trainer: TW-analog scale={} ({} vertices, {} edges), {} DCs, {} steps x {} reps",
        args.scale,
        geo.num_vertices(),
        geo.num_edges(),
        env.num_dcs(),
        args.steps,
        args.reps
    );

    let mut records: Vec<RunRecord> = Vec::new();
    let mut reference: Option<(Vec<geograph::DcId>, usize)> = None;
    let mut state_bytes = 0usize;
    for &threads in &args.threads_list {
        let (record, masters, sb) = run_cell(&geo, &env, &base, threads, args.reps);
        state_bytes = sb;
        eprintln!(
            "  threads={:<2} {:>7.2} steps/s  (score {:.3}s, migrate {:.3}s, {} migrations)",
            record.threads,
            record.steps_per_sec(),
            record.score.as_secs_f64(),
            record.migrate.as_secs_f64(),
            record.migrations,
        );
        // Determinism cross-check: every thread count must train the
        // bit-identical plan and apply the same number of moves.
        match &reference {
            None => reference = Some((masters, record.migrations)),
            Some((ref_masters, ref_migrations)) => {
                assert_eq!(*ref_masters, masters, "threads={threads} trained a different plan");
                assert_eq!(
                    *ref_migrations, record.migrations,
                    "threads={threads} applied a different move count"
                );
            }
        }
        records.push(record);
    }
    eprintln!("  determinism: all {} runs bit-identical", records.len());

    let max_threads = *args.threads_list.iter().max().unwrap();
    let host_cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"trainer_throughput\",");
    let _ = writeln!(json, "  \"dataset\": \"twitter_analog\",");
    let _ = writeln!(json, "  \"scale\": {},", args.scale);
    let _ = writeln!(json, "  \"seed\": {},", args.seed);
    let _ = writeln!(json, "  \"vertices\": {},", geo.num_vertices());
    let _ = writeln!(json, "  \"edges\": {},", geo.num_edges());
    let _ = writeln!(json, "  \"num_dcs\": {},", env.num_dcs());
    let _ = writeln!(json, "  \"steps\": {},", args.steps);
    let _ = writeln!(json, "  \"reps\": {},", args.reps);
    let _ = writeln!(json, "  \"host_cpus\": {host_cpus},");
    // Thread-count rows above `host_cpus` time oversubscription, not
    // parallel speed-up; this flag tells a reader which it is.
    let _ = writeln!(json, "  \"underprovisioned_host\": {},", host_cpus < 4);
    json.push_str("  \"runs\": [\n");
    for (i, r) in records.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"threads\": {}, \"steps_per_sec\": {:.4}, \"total_secs\": {:.6}, \"score_secs\": {:.6}, \"migrate_secs\": {:.6}, \"migrations\": {}}}",
            r.threads,
            r.steps_per_sec(),
            r.total.as_secs_f64(),
            r.score.as_secs_f64(),
            r.migrate.as_secs_f64(),
            r.migrations,
        );
        json.push_str(if i + 1 < records.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    let mut mem = geograph::MemReport::new(geo.num_edges() as u64);
    mem.add("geo_graph", geo.heap_bytes());
    mem.add("placement_state", state_bytes);
    json.push_str(&geobench::mem_json_field(&mem));
    let _ = writeln!(json, "  \"max_threads\": {max_threads}");
    json.push_str("}\n");
    std::fs::write(&args.out, &json)
        .unwrap_or_else(|e| panic!("could not write {}: {e}", args.out));
    eprintln!("  wrote {}", args.out);
}
