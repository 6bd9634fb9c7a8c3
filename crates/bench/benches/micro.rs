//! Micro-benchmarks of the hot paths: graph generation (and the R-MAT
//! sampler on its own), plan construction, the incremental move evaluator
//! (the score-function workhorse), a post-accept migration verdict re-priced
//! from cached lane deltas beside its full evaluation, move application, one
//! full RLCut
//! training step, and the serving layer's batched master lookup.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use geograph::generators::{rmat, RmatChunks, RmatConfig};
use geograph::locality::LocalityConfig;
use geograph::{ChunkedEdges, GeoGraph};
use geopart::{HybridState, MoveScratch, TrafficProfile};
use geoserve::{PlanBoard, RoutingTable};
use geosim::regions::ec2_eight_regions;
use rlcut::RlCutConfig;
use std::hint::black_box;

fn setup(n: usize) -> (GeoGraph, geosim::CloudEnv) {
    let g = rmat(&RmatConfig::social(n, n * 16), 42);
    (GeoGraph::from_graph(g, &LocalityConfig::paper_default(42)), ec2_eight_regions())
}

fn bench_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("generate");
    group.sample_size(10);
    for n in [1usize << 12, 1 << 14] {
        group.bench_with_input(BenchmarkId::new("rmat", n), &n, |b, &n| {
            b.iter(|| rmat(&RmatConfig::social(n, n * 16), black_box(7)))
        });
    }
    // The sampler alone: every chunk of the stream into a counting sink,
    // with no CSR build behind it.
    let n = 1usize << 14;
    group.bench_function(BenchmarkId::new("rmat_chunks_emit", n), |b| {
        b.iter(|| {
            let src = RmatChunks::new(RmatConfig::social(n, n * 16), black_box(7), 1 << 16);
            let (mut edges, mut ids) = (0usize, 0u64);
            for chunk in 0..src.num_chunks() {
                src.emit(chunk, &mut |u, v| {
                    edges += 1;
                    ids ^= u64::from(u) << 32 | u64::from(v);
                });
            }
            (edges, ids)
        })
    });
    group.finish();
}

fn bench_plan_construction(c: &mut Criterion) {
    let (geo, env) = setup(1 << 13);
    let profile = TrafficProfile::uniform(geo.num_vertices(), 8.0);
    c.bench_function("hybrid_state_build_8k_vertices", |b| {
        b.iter(|| HybridState::natural(&geo, &env, 16, profile.clone(), 10.0))
    });
}

fn bench_move_evaluation(c: &mut Criterion) {
    let (geo, env) = setup(1 << 13);
    let profile = TrafficProfile::uniform(geo.num_vertices(), 8.0);
    let state = HybridState::natural(&geo, &env, 16, profile, 10.0);
    let mut scratch = MoveScratch::new();
    c.bench_function("evaluate_move", |b| {
        let mut v = 0u32;
        b.iter(|| {
            v = (v + 1) % geo.num_vertices() as u32;
            let d = (v % 8) as usize;
            black_box(state.evaluate_moves(&env, v, 1 << d, true, &mut scratch)[d])
        })
    });
}

/// Batched one-sweep kernel vs M independent per-candidate evaluations, on
/// the 8-DC TW-analog (scaled Twitter-shaped R-MAT). Benchmarked both over
/// a round-robin vertex stream and pinned to the highest-degree vertex —
/// the regime the batching targets (acceptance: batched ≥ 1.5× there).
fn bench_batched_evaluation(c: &mut Criterion) {
    let g = geograph::datasets::Dataset::Twitter.generate(0.0004, 42);
    let geo = GeoGraph::from_graph(g, &LocalityConfig::paper_default(42));
    let env = ec2_eight_regions();
    let m = env.num_dcs();
    let all = u64::MAX >> (64 - m);
    let profile = TrafficProfile::uniform(geo.num_vertices(), 8.0);
    let state = HybridState::natural(&geo, &env, 16, profile, 10.0);
    let hub = (0..geo.num_vertices() as u32).max_by_key(|&v| geo.graph.degree(v)).unwrap();

    let mut group = c.benchmark_group("evaluate_all_moves_tw8dc");
    let mut scratch = MoveScratch::new();
    group.bench_function("batched_sweep", |b| {
        let mut v = 0u32;
        b.iter(|| {
            v = (v + 1) % geo.num_vertices() as u32;
            black_box(state.evaluate_moves(&env, v, all, true, &mut scratch).last().copied())
        })
    });
    group.bench_function("per_candidate_x8", |b| {
        let mut v = 0u32;
        b.iter(|| {
            v = (v + 1) % geo.num_vertices() as u32;
            let mut last = None;
            for d in 0..m {
                last = Some(state.evaluate_moves(&env, v, 1 << d, true, &mut scratch)[d]);
            }
            black_box(last)
        })
    });
    group.bench_function("batched_sweep_hub_vertex", |b| {
        b.iter(|| {
            black_box(state.evaluate_moves(&env, hub, all, true, &mut scratch).last().copied())
        })
    });
    group.bench_function("per_candidate_x8_hub_vertex", |b| {
        b.iter(|| {
            let mut last = None;
            for d in 0..m {
                last = Some(state.evaluate_moves(&env, hub, 1 << d, true, &mut scratch)[d]);
            }
            black_box(last)
        })
    });
    group.finish();
}

/// The trainer's score sweep over its usual sample, the lowest-degree
/// quarter of a preferential-attachment graph shaped like the benchmark's
/// (97 k vertices, 14 edges each) at home placement, four ways: every DC
/// priced (the full objective), every DC unpriced, the sweep the score
/// phase runs (the master's slot skipped, unpriced), and one unpriced
/// destination (a migration proposal). The variants run interleaved, one
/// pass over the sample each per round, and each reports its best round
/// per agent, so a slow stretch of the host reads on all of them alike.
fn bench_low_degree_sweep(_c: &mut Criterion) {
    const NAME: &str = "evaluate_all_moves_low_degree";
    const ROUNDS: usize = 15;
    let variants = ["all_priced", "all_unpriced", "score_sweep", "one_destination"];
    let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
    if filter.is_some_and(|f| !variants.iter().any(|v| format!("{NAME}/{v}").contains(&f))) {
        return;
    }
    let n = 97_000;
    let mut b = geograph::GraphBuilder::new(n);
    b.add_edges(geograph::generators::preferential::preferential_attachment_edges(n, 14, 42));
    let geo = GeoGraph::from_graph(b.build(), &LocalityConfig::paper_default(42));
    let env = ec2_eight_regions();
    let m = env.num_dcs() as u8;
    let all = u64::MAX >> (64 - m);
    let theta = geograph::degree::suggest_theta(&geo.graph, 0.05);
    let profile = TrafficProfile::uniform(n, 8.0);
    let state = HybridState::natural(&geo, &env, theta, profile, 10.0);
    let mut agents: Vec<u32> = geo.graph.vertices().filter(|&v| geo.graph.degree(v) > 0).collect();
    agents.sort_by_key(|&v| (geo.graph.degree(v), v));
    agents.truncate(agents.len() / 4);

    let mut scratch = MoveScratch::new();
    let mut best = [f64::INFINITY; 4];
    for _ in 0..ROUNDS {
        for (i, best) in best.iter_mut().enumerate() {
            let start = std::time::Instant::now();
            for &v in &agents {
                let master = state.master(v);
                let (dests, priced) = match i {
                    0 => (all, true),
                    1 => (all, false),
                    2 => (all & !(1u64 << master), false),
                    _ => (1u64 << ((master + 1) % m), false),
                };
                black_box(state.evaluate_moves(&env, v, dests, priced, &mut scratch).first());
            }
            *best = best.min(start.elapsed().as_nanos() as f64 / agents.len() as f64);
        }
    }
    for (variant, ns) in variants.iter().zip(best) {
        let id = format!("{NAME}/{variant}");
        println!("{id:<55} {ns:>11.1} ns/agent  (best of {ROUNDS}, {} agents)", agents.len());
    }
}

/// A migration phase after its first accepted move (§V-A): the low-degree
/// quarter of the `evaluate_all_moves_low_degree` graph exports the lane
/// deltas of a move to its lowest other DC (a zero-score tie's ρ), 200
/// random moves then apply with marks, and every proposal the marks leave
/// clean is judged two ways per round: `cached`, the staleness check plus
/// the re-price from its lane deltas, and `full`, a one-destination kernel
/// evaluation. Each reports its best round per proposal.
fn bench_post_accept(_c: &mut Criterion) {
    const NAME: &str = "migrate/post_accept";
    const ROUNDS: usize = 15;
    let variants = ["cached", "full"];
    let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
    if filter.is_some_and(|f| !variants.iter().any(|v| format!("{NAME}/{v}").contains(&f))) {
        return;
    }
    let n = 97_000;
    let mut b = geograph::GraphBuilder::new(n);
    b.add_edges(geograph::generators::preferential::preferential_attachment_edges(n, 14, 42));
    let geo = GeoGraph::from_graph(b.build(), &LocalityConfig::paper_default(42));
    let env = ec2_eight_regions();
    let m = env.num_dcs() as u8;
    let theta = geograph::degree::suggest_theta(&geo.graph, 0.05);
    let profile = TrafficProfile::uniform(n, 8.0);
    let mut state = HybridState::natural(&geo, &env, theta, profile, 10.0);
    let mut agents: Vec<u32> = geo.graph.vertices().filter(|&v| geo.graph.degree(v) > 0).collect();
    agents.sort_by_key(|&v| (geo.graph.degree(v), v));
    agents.truncate(agents.len() / 4);

    let mut scratch = MoveScratch::new();
    let (mut exports, mut reach) = (Vec::new(), [0u32; 2]);
    for &v in &agents {
        let to = u8::from(state.master(v) == 0);
        state.evaluate_moves(&env, v, 1 << to, false, &mut scratch);
        if let Some(lanes) = state.export_lanes(to, &scratch) {
            let [i, t] = scratch.staged_reach();
            reach = [reach[0].max(i), reach[1].max(t)];
            exports.push((v, to, lanes));
        }
    }
    let mut marks = geopart::MoveMarks::new(n, reach);
    let mut rng = 0x2545_f491_4f6c_dd1du64;
    for _ in 0..200 {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        let v = agents[(rng % agents.len() as u64) as usize];
        state.apply_move_marked(&env, v, (rng >> 32) as u8 % m, &mut scratch, &mut marks);
    }
    let exported = exports.len();
    exports.retain(|(v, to, lanes)| state.can_reprice(*v, *to, lanes, &marks));

    let mut best = [f64::INFINITY; 2];
    for _ in 0..ROUNDS {
        for (i, best) in best.iter_mut().enumerate() {
            let start = std::time::Instant::now();
            for &(v, to, ref lanes) in &exports {
                let objective = if i == 0 {
                    black_box(state.can_reprice(v, to, lanes, &marks));
                    state.reprice(&env, v, to, false, lanes, &mut scratch)
                } else {
                    state.evaluate_moves(&env, v, 1 << to, false, &mut scratch)[to as usize]
                };
                black_box(objective.transfer_time);
            }
            *best = best.min(start.elapsed().as_nanos() as f64 / exports.len() as f64);
        }
    }
    for (variant, ns) in variants.iter().zip(best) {
        let id = format!("{NAME}/{variant}");
        println!(
            "{id:<55} {ns:>11.1} ns/proposal  (best of {ROUNDS}, {} of {exported} exports clean)",
            exports.len()
        );
    }
}

fn bench_move_application(c: &mut Criterion) {
    let (geo, env) = setup(1 << 13);
    let profile = TrafficProfile::uniform(geo.num_vertices(), 8.0);
    let mut state = HybridState::natural(&geo, &env, 16, profile, 10.0);
    let mut scratch = MoveScratch::new();
    c.bench_function("apply_move", |b| {
        let mut v = 0u32;
        b.iter(|| {
            v = (v + 1) % geo.num_vertices() as u32;
            state.apply_move_with(&env, v, (v % 8) as u8, &mut scratch);
        })
    });
}

fn bench_training_step(c: &mut Criterion) {
    let (geo, env) = setup(1 << 12);
    let profile = TrafficProfile::uniform(geo.num_vertices(), 8.0);
    let budget = geosim::cost::default_budget(&env, &geo.locations, &geo.data_sizes, 0.4);
    let mut group = c.benchmark_group("train_one_step_4k_vertices");
    group.sample_size(10);
    for threads in [1usize, 8] {
        group.bench_with_input(
            BenchmarkId::new("full_sampling", threads),
            &threads,
            |b, &threads| {
                let config = RlCutConfig::new(budget).with_max_steps(1).with_threads(threads);
                b.iter(|| rlcut::partition(&geo, &env, profile.clone(), 10.0, &config))
            },
        );
    }
    group.finish();
}

fn bench_pagerank(c: &mut Criterion) {
    let (geo, _) = setup(1 << 13);
    c.bench_function("pagerank_10_iters_8k", |b| {
        b.iter(|| geoengine::algorithms::pagerank(&geo.graph, 10, 0.85))
    });
}

/// Batched vertex → master lookups of 256 keys on a 97 k-vertex table,
/// the serving benchmark's batch and table size: through a `PlanReader`,
/// as `rlcut serve` and the benchmark's reader threads call it, and on the
/// `RoutingTable` directly. One iteration is one pass over a 64-batch key
/// pool (16 384 lookups). The two shapes should cost the same; a reader
/// that runs slower reloads the table's plane inside the loop.
fn bench_lookup_many(c: &mut Criterion) {
    const N: u32 = 97_000;
    const BATCH: usize = 256;
    let homes: Vec<u8> = (0..N).map(|v| (v.wrapping_mul(0x9e37_79b9) >> 29) as u8).collect();
    let table = RoutingTable::from_homes(1, &homes, 8);
    // Uniform keys: a multiplicative scramble of 0, 1, 2, ... over the table.
    let keys: Vec<u32> =
        (0..64 * BATCH as u64).map(|i| (i * 2_654_435_761 % u64::from(N)) as u32).collect();
    let mut out = Vec::with_capacity(BATCH);

    let mut group = c.benchmark_group("serve/lookup_many");
    let mut reader = PlanBoard::new(table.clone()).reader();
    group.bench_function("reader", |b| {
        b.iter(|| {
            keys.chunks_exact(BATCH).map(|batch| reader.lookup_many(batch, &mut out)).sum::<u64>()
        })
    });
    group.bench_function("table", |b| {
        b.iter(|| {
            let served = |batch| {
                table.lookup_many(batch, &mut out);
                table.epoch()
            };
            keys.chunks_exact(BATCH).map(served).sum::<u64>()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_generation,
    bench_plan_construction,
    bench_move_evaluation,
    bench_batched_evaluation,
    bench_low_degree_sweep,
    bench_post_accept,
    bench_move_application,
    bench_training_step,
    bench_pagerank,
    bench_lookup_many
);
criterion_main!(benches);
