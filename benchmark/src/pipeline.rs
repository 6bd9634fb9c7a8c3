//! One round of the pipeline, driven through the crates' public functions:
//!
//! generate inputs -> streamed CSR ingest -> home locations -> initial
//! partition (+ PageRank over the plan) -> durable store, window 0 ->
//! delta windows, each made durable and published -> lookups ->
//! evacuation -> recover and reboot from the store -> output checks.
//!
//! The window phase has two compositions that do the same work. The
//! *production* one is `DurableAdaptive::window` with the server's commit
//! hook, timed with two clock reads per window; end-to-end metrics come
//! from it. The *unrolled* one makes the same public calls in the same
//! order from this file, with a span around each, and gives the
//! per-layer metrics.

use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use geodur::{env_fingerprint, masters_fnv, Batch, Commit, DurableStore, Snapshot, WindowStart};
use geoengine::{execute_plan, Algorithm};
use geograph::dynamic::EdgeEvent;
use geograph::locality::{assign_locations, LocalityConfig};
use geograph::stream::{build_chunked, ScopedPool, StreamConfig};
use geograph::{DcId, GeoGraph, Graph, GraphDelta, VertexId};
use geopart::{HybridState, TrafficProfile};
use geoserve::{PlacementServer, PlanBoard, PlanReader, RoutingTable};
use geosim::cost::default_budget;
use geosim::regions::ec2_eight_regions;
use geosim::CloudEnv;
use rlcut::{AdaptiveRlCut, DurableAdaptive, RlCutConfig};

use crate::stats::{median, quantile_or_zero, tail_quantile, P99, P999};
use crate::trace::{SpanId, Tracer, NO_WINDOW};
use crate::workload::{
    self, Inputs, Workload, BATCH, DATA_BYTES, INGEST_THREADS, KEY_POOL_BATCHES,
};

/// Never binding: every run is bounded by its fixed rate and step count,
/// so the Eq 14 sampler's clock reads cannot change the work done.
const T_OPT: Duration = Duration::from_secs(600);
/// WAN budget as a fraction of the centralization cost (paper default).
const BUDGET_FRACTION: f64 = 0.4;
/// Value bytes and iterations of the PageRank traffic profile.
const VALUE_BYTES: f32 = 8.0;
const ITERATIONS: f64 = 10.0;
/// Lookup batches served after the evacuation to check no key routes to
/// the dead DC.
const POST_EVACUATION_BATCHES: u64 = 1_000;
/// Lookup batches a production-composition reader times under one pair of
/// clock reads. A batch of 256 keys takes a few hundred nanoseconds and a
/// clock read some twenty, so per-batch timing would be a tenth of the
/// wall; an unrolled round times every batch, for the latency percentiles.
const BLOCK_BATCHES: usize = 64;
/// A reader with no batch count (it runs beside the trainer until told to
/// stop) that times every batch keeps every this-many-th sample; no reader
/// keeps more than [`MAX_SAMPLES`]. What it holds then does not follow how
/// fast the host let it run.
const OPEN_ENDED_SAMPLE_EVERY: u64 = 8;
/// Passes over the key pool an [`extra_reading`]'s reader makes: some
/// 15 ms of lookups.
const EXTRA_READ_PASSES: usize = 64;
const MAX_SAMPLES: u64 = 1 << 21;

/// Output checks and operations, counted.
#[derive(Default, Debug)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    /// First few failure descriptions, for the report.
    pub failures: Vec<String>,
}

impl Ops {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }

    /// Every lookup batch a reader served is an operation.
    fn count_batches(&mut self, reader: &ReaderOut) {
        self.attempted += reader.batches;
        if reader.bad_batches > 0 {
            self.failed += reader.bad_batches - 1;
            self.fail(format!("{} lookup batches held a bad DC", reader.bad_batches));
        }
    }
}

/// What one reader saw, raw.
#[derive(Default)]
struct ReaderOut {
    /// `lookup_many` time of the sampled blocks, nanoseconds, raw.
    block_ns: Vec<u32>,
    /// Latency of the first batch served from each newly seen epoch
    /// (kept only when a block is one batch).
    first_after_flip_ns: Vec<u32>,
    batches: u64,
    bad_batches: u64,
    /// Seconds inside the timed blocks.
    wall_s: f64,
    epochs_seen: u64,
    flip_retries: u64,
}

/// A round's reader, reduced to order statistics so that rounds do not
/// pile up raw samples (peak memory would grow with the round count).
/// The percentiles are over timed blocks: one batch each in an unrolled
/// round, [`BLOCK_BATCHES`] in a production one.
#[derive(Default)]
pub struct ReaderSummary {
    pub batches: u64,
    pub wall_s: f64,
    /// Seconds of the fastest pass over the key pool (see
    /// [`ReaderOut::fastest_pass_s`]); zero when no whole pass was timed.
    pub fastest_pass_s: f64,
    /// Raw samples behind the percentiles below.
    pub samples: usize,
    pub p50_ns: f64,
    /// p99 and p999, or the highest percentile the samples support.
    pub p99_ns: f64,
    pub p999_ns: f64,
    pub max_ns: f64,
    /// Median latency of the first batch served from a new epoch.
    pub first_after_flip_ns: f64,
    pub epochs_seen: u64,
    pub flip_retries: u64,
}

impl ReaderSummary {
    pub fn lookups(&self) -> u64 {
        self.batches * BATCH as u64
    }
}

impl ReaderOut {
    /// The reader cycles through [`KEY_POOL_BATCHES`] batches, so every
    /// pass over the pool is the same work, a millisecond or so of it. Of
    /// the thousands a reader makes, the fastest is the one the host's
    /// other tenants disturbed least, and it repeats from run to run when
    /// the mean over the reader's wall does not. Needs every block of
    /// `block` batches sampled, in order.
    fn fastest_pass_s(&self, block: usize) -> f64 {
        let per_pass = KEY_POOL_BATCHES / block;
        if !KEY_POOL_BATCHES.is_multiple_of(block) || per_pass == 0 {
            return 0.0;
        }
        let pass_ns = |blocks: &[u32]| blocks.iter().map(|&ns| ns as u64).sum::<u64>();
        self.block_ns.chunks_exact(per_pass).map(pass_ns).min().unwrap_or(0) as f64 / 1e9
    }

    fn summarize(mut self, block: usize) -> ReaderSummary {
        let every_block_sampled = self.block_ns.len() as u64 * block as u64 >= self.batches;
        let fastest_pass_s = if every_block_sampled { self.fastest_pass_s(block) } else { 0.0 };
        self.block_ns.sort_unstable();
        self.first_after_flip_ns.sort_unstable();
        let tail =
            |named| quantile_or_zero(&self.block_ns, tail_quantile(self.block_ns.len(), named).1);
        ReaderSummary {
            batches: self.batches,
            wall_s: self.wall_s,
            fastest_pass_s,
            samples: self.block_ns.len(),
            p50_ns: quantile_or_zero(&self.block_ns, 0.50),
            p99_ns: tail(P99),
            p999_ns: tail(P999),
            max_ns: quantile_or_zero(&self.block_ns, 1.0),
            first_after_flip_ns: quantile_or_zero(&self.first_after_flip_ns, 0.50),
            epochs_seen: self.epochs_seen,
            flip_retries: self.flip_retries,
        }
    }
}

/// Shared between a reader thread and the thread that flips tables.
#[derive(Default)]
struct ReaderControl {
    stop: AtomicBool,
    /// `epoch << 8 | dead DC` of the evacuated table (0 = none yet): one
    /// word, so a reader never pairs the epoch with a stale DC.
    evacuation: AtomicU64,
    /// Batches served from the evacuated table or a later one.
    post_evacuation: AtomicU64,
}

/// Closed-loop reader: the next batch is issued when the previous one
/// returns. Runs `max_batches`, or until `control.stop` when `None`.
/// `block` batches are timed under one pair of clock reads; the reader
/// checks their results after the second read, so its wall is the time
/// inside `lookup_many`.
fn read_loop(
    reader: &mut PlanReader,
    keys: &[VertexId],
    num_dcs: usize,
    control: &ReaderControl,
    max_batches: Option<u64>,
    block: usize,
) -> ReaderOut {
    let sample_every = match max_batches {
        Some(m) => m.div_ceil(block as u64).div_ceil(MAX_SAMPLES).max(1),
        None => OPEN_ENDED_SAMPLE_EVERY.div_ceil(block as u64),
    };
    let capacity = max_batches.map_or(MAX_SAMPLES, |m| m.div_ceil(block as u64 * sample_every));
    let mut out =
        ReaderOut { block_ns: Vec::with_capacity(capacity as usize), ..ReaderOut::default() };
    let mut results: Vec<Vec<DcId>> = vec![Vec::with_capacity(BATCH); block];
    let mut epochs = vec![0u64; block];
    let mut pool = keys.chunks_exact(BATCH).cycle();
    let (mut blocks, mut busy_ns, mut last_epoch) = (0u64, 0u64, 0u64);
    loop {
        let n = match max_batches {
            Some(m) => (m - out.batches).min(block as u64) as usize,
            None if control.stop.load(Ordering::Relaxed) => 0,
            None => block,
        };
        if n == 0 {
            break;
        }
        let t0 = Instant::now();
        for (result, epoch) in results[..n].iter_mut().zip(&mut epochs) {
            *epoch = reader.lookup_many(pool.next().expect("key pool is not empty"), result);
        }
        let ns = t0.elapsed().as_nanos() as u64;
        busy_ns += ns;
        let ns = ns.min(u32::MAX as u64) as u32;
        if blocks.is_multiple_of(sample_every) && out.block_ns.len() < out.block_ns.capacity() {
            out.block_ns.push(ns);
        }
        blocks += 1;

        let evacuation = control.evacuation.load(Ordering::Relaxed);
        let dead = (evacuation & 0xff) as DcId;
        for (result, &epoch) in results[..n].iter().zip(&epochs) {
            if epoch != last_epoch {
                out.epochs_seen += 1;
                if last_epoch != 0 && block == 1 {
                    out.first_after_flip_ns.push(ns);
                }
                last_epoch = epoch;
            }
            let after_evacuation = evacuation != 0 && epoch >= evacuation >> 8;
            let in_range = result.iter().copied().max().is_some_and(|m| (m as usize) < num_dcs);
            if !in_range || (after_evacuation && result.contains(&dead)) {
                out.bad_batches += 1;
            }
            if after_evacuation {
                control.post_evacuation.fetch_add(1, Ordering::Relaxed);
            }
        }
        out.batches += n as u64;
    }
    out.wall_s = busy_ns as f64 / 1e9;
    out.flip_retries = reader.flip_retries();
    out
}

/// Counts a program reports or this file measures that are not times.
/// With fixed work they repeat exactly for a seed.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Counters {
    pub raw_edges: u64,
    pub csr_edges: u64,
    pub csr_bytes: u64,
    pub ingest_peak_over_final: f64,
    pub state_bytes: u64,
    pub partition_agent_steps: u64,
    pub partition_migrations: u64,
    pub window_migrations: u64,
    pub edge_changes: u64,
    /// WAL bytes appended by the delta windows (window 0 left out).
    pub wal_bytes: u64,
    pub snapshot_bytes: u64,
    pub snapshots: u64,
    pub store_bytes: u64,
    pub replayed_windows: u64,
    pub table_bytes: u64,
    pub table_vertices: u64,
    pub plan_flips: u64,
    pub pagerank_transfer_s: f64,
    pub pagerank_wan_bytes: f64,
    pub plan_time_ratio: f64,
}

impl Counters {
    /// The counts that must repeat exactly from round to round, whichever
    /// composition drove the windows.
    pub fn exact(&self) -> [u64; 10] {
        [
            self.raw_edges,
            self.csr_edges,
            self.partition_agent_steps,
            self.partition_migrations,
            self.window_migrations,
            self.edge_changes,
            self.wal_bytes,
            self.store_bytes,
            self.plan_time_ratio.to_bits(),
            self.pagerank_transfer_s.to_bits(),
        ]
    }
}

/// Wall-clock readings of one round, seconds unless named otherwise.
#[derive(Default)]
pub struct Round {
    /// Everything before the first timed window or lookup except the
    /// initial partition, in four parts: input generation; one CSR build;
    /// locations and servers; store creation and window 0.
    pub setup_parts_s: [f64; 4],
    /// `VmHWM` at the end of the round.
    pub peak_rss_bytes: u64,
    pub ingest_s: f64,
    pub partition_s: f64,
    pub recover_s: f64,
    pub boot_s: f64,
    pub evacuate_s: f64,
    /// Delta windows only (window 0 is set-up), event batch in hand to
    /// plan durable and published.
    pub window_ns: Vec<u64>,
    /// `masters_fnv` after window 0 and after every delta window.
    pub fnv: Vec<u64>,
    pub reader: ReaderSummary,
    /// Seconds spent in measured stages (set-up and checks left out):
    /// what `--seconds` budgets.
    pub measured_s: f64,
    pub counters: Counters,
    /// Spans of the round (unrolled composition only).
    pub tracer: Option<Tracer>,
}

/// The plan a round rates and the budget it must respect.
#[derive(Default)]
struct Rating {
    plan_time: f64,
    home_time: f64,
    plan_cost: f64,
    budget: f64,
}

fn rate_plan(geo: &GeoGraph, env: &CloudEnv, masters: &[DcId], theta: usize) -> Rating {
    let profile = || TrafficProfile::uniform(geo.num_vertices(), VALUE_BYTES);
    let home =
        HybridState::from_masters(geo, env, geo.locations.clone(), theta, profile(), ITERATIONS);
    let plan = HybridState::from_masters(geo, env, masters.to_vec(), theta, profile(), ITERATIONS);
    let objective = plan.objective(env);
    Rating {
        plan_time: objective.transfer_time,
        home_time: home.objective(env).transfer_time,
        plan_cost: objective.total_cost(),
        budget: default_budget(env, &geo.locations, &geo.data_sizes, BUDGET_FRACTION),
    }
}

fn trainer_config(seed: u64, threads: usize, theta: usize, rate: f64, steps: usize) -> RlCutConfig {
    // The budget field is replaced per window by `BUDGET_FRACTION`.
    let mut config = RlCutConfig::new(1.0)
        .with_seed(seed)
        .with_threads(threads)
        .with_theta(theta)
        .with_fixed_sample_rate(rate)
        .with_max_steps(steps);
    // Fixed work: a full-rate run would otherwise stop at the first step
    // that moves under 0.1 % of its agents, after a seed-dependent number
    // of steps.
    config.convergence_fraction = 0.0;
    config
}

/// Per-window inputs shared by both compositions.
struct WindowFeed<'a> {
    env: &'a CloudEnv,
    events: &'a [Vec<EdgeEvent>],
    /// Homes and data sizes of every vertex the graph will ever hold.
    homes: &'a [DcId],
    sizes: &'a [u64],
}

/// What the window phase leaves behind.
#[derive(Default)]
struct WindowPhase {
    /// Store creation and window 0: set-up.
    setup_s: f64,
    window_ns: Vec<u64>,
    fnv: Vec<u64>,
    edge_changes: u64,
    migrations: u64,
    /// WAL bytes appended in all, and by window 0 alone.
    wal_bytes: u64,
    wal_bytes_window0: u64,
    snapshot_bytes: u64,
    snapshots: u64,
    table_bytes: u64,
    masters: Vec<DcId>,
    rating: Rating,
}

/// The production composition: `DurableAdaptive::window` with the
/// server's commit hook installed.
fn windows_production(
    w: &Workload,
    dir: &Path,
    geo0: GeoGraph,
    config: RlCutConfig,
    server: &PlacementServer,
    feed: &WindowFeed,
    ops: &mut Ops,
) -> WindowPhase {
    let theta = config.theta.expect("theta is pinned");
    let n0 = geo0.num_vertices();
    let mut phase = WindowPhase::default();

    let setup = Instant::now();
    let mut durable = DurableAdaptive::create(
        dir,
        config,
        Some(BUDGET_FRACTION),
        geo0,
        feed.env,
        w.snapshot_every,
    )
    .expect("create durable store");
    server.attach(&mut durable);
    let p0 = TrafficProfile::uniform(n0, VALUE_BYTES);
    let w0 = durable.window(feed.env, None, &[], &[], p0, ITERATIONS, T_OPT);
    ops.check(w0.is_ok(), || format!("window 0 failed: {}", w0.as_ref().unwrap_err()));
    phase.setup_s = setup.elapsed().as_secs_f64();
    phase.wal_bytes_window0 = durable.store().appended_bytes();
    phase.fnv.push(masters_fnv(durable.masters()));

    for (i, events) in feed.events.iter().enumerate() {
        let t0 = Instant::now();
        let delta = GraphDelta::from_events(&durable.geo().graph, events);
        let (old_n, new_n) = (delta.old_num_vertices(), delta.new_num_vertices());
        let profile = TrafficProfile::uniform(new_n, VALUE_BYTES);
        let report = durable.window(
            feed.env,
            Some(&delta),
            &feed.homes[old_n..new_n],
            &feed.sizes[old_n..new_n],
            profile,
            ITERATIONS,
            T_OPT,
        );
        phase.window_ns.push(t0.elapsed().as_nanos() as u64);
        ops.check(report.is_ok(), || {
            format!("window {} failed: {}", i + 1, report.as_ref().unwrap_err())
        });
        phase.edge_changes += delta.num_edge_changes() as u64;
        phase.migrations += report.map_or(0, |r| r.migrations as u64);
        phase.fnv.push(masters_fnv(durable.masters()));
    }
    phase.wal_bytes = durable.store().appended_bytes();
    phase.masters = durable.masters().to_vec();
    phase.rating = rate_plan(durable.geo(), feed.env, &phase.masters, theta);
    phase
}

/// The unrolled composition: the calls `DurableAdaptive::create` and
/// `DurableAdaptive::window` make, in their order, each under a span.
#[allow(clippy::too_many_arguments)]
fn windows_unrolled(
    w: &Workload,
    dir: &Path,
    geo0: GeoGraph,
    config: RlCutConfig,
    board: &Arc<PlanBoard>,
    feed: &WindowFeed,
    ops: &mut Ops,
    tracer: &mut Tracer,
    round: SpanId,
) -> WindowPhase {
    let theta = config.theta.expect("theta is pinned");
    let env = feed.env;
    let mut geo = geo0;
    let setup = Instant::now();
    let mut store = tracer
        .span("geodur.create", Some(round), NO_WINDOW, || DurableStore::create(dir, &geo, env))
        .expect("create durable store");
    let mut adaptive = AdaptiveRlCut::new(config, Some(BUDGET_FRACTION)).with_move_journal();
    let env_fp = env_fingerprint(env);
    let mut since_snapshot = 0u64;
    let mut phase = WindowPhase::default();

    // Window 0 has no events; delta windows follow.
    for window in 0..=feed.events.len() {
        let events = window.checked_sub(1).map(|i| &feed.events[i]);
        let id = window as u32;
        let root = tracer.open("window", Some(round), id);

        // 1. Evolve the graph.
        let delta = events.map(|ev| {
            tracer.span("geograph.delta.from_events", Some(root), id, || {
                GraphDelta::from_events(&geo.graph, ev)
            })
        });
        let old_n = geo.num_vertices();
        let new_n = delta.as_ref().map_or(old_n, GraphDelta::new_num_vertices);
        let profile = tracer.span("bench.profile_build", Some(root), id, || {
            TrafficProfile::uniform(new_n, VALUE_BYTES)
        });
        if let Some(d) = &delta {
            tracer.span("geograph.delta.apply", Some(root), id, || {
                let graph = geo.graph.apply_delta(d);
                let mut locations = std::mem::take(&mut geo.locations);
                let mut sizes = std::mem::take(&mut geo.data_sizes);
                locations.extend_from_slice(&feed.homes[old_n..new_n]);
                sizes.extend_from_slice(&feed.sizes[old_n..new_n]);
                geo = GeoGraph::new(graph, locations, sizes, geo.num_dcs);
            });
        }

        // 2. Log the window's inputs durably before training.
        let logged = tracer.span("geodur.wal.window_start", Some(root), id, || {
            let base = adaptive.masters().len();
            store.log_window_start(&WindowStart {
                window: window as u64,
                delta: delta.clone(),
                loc_suffix: feed.homes[old_n..new_n].to_vec(),
                size_suffix: feed.sizes[old_n..new_n].to_vec(),
                gather_suffix: profile.gather_bytes[base..].to_vec(),
                apply_suffix: profile.apply_bytes[base..].to_vec(),
                num_iterations: ITERATIONS,
                dead: None,
                env_fp,
            })
        });

        // 3. Train, journaling every applied move.
        let train = tracer.open("rlcut.window", Some(root), id);
        let report = match &delta {
            Some(d) => adaptive.on_window_delta(&geo, env, d, profile, ITERATIONS, T_OPT),
            None => adaptive.on_window(&geo, env, profile, ITERATIONS, T_OPT),
        };
        tracer.close(train);

        // 4. Seal it: batches and commit under one fsync, then publish.
        let journal = adaptive.take_window_journal();
        let batched = tracer.span("geodur.wal.batches", Some(root), id, || {
            journal.into_iter().try_for_each(|(step, moves)| {
                store.log_batch(&Batch { window: window as u64, step, moves }).map(|_| ())
            })
        });
        let (core, carried_theta) = adaptive.carried_parts().expect("window trained");
        let committed = tracer.span("geodur.wal.commit", Some(root), id, || {
            store.log_commit(&Commit {
                window: window as u64,
                theta: *carried_theta as u64,
                movement_cost_bits: core.movement_cost().to_bits(),
                masters_fnv: masters_fnv(core.masters()),
            })
        });
        let table = tracer.span("geoserve.table.build", Some(root), id, || {
            RoutingTable::from_placement(window as u64 + 1, core)
        });
        phase.table_bytes = table.heap_bytes() as u64;
        tracer.span("geoserve.board.publish", Some(root), id, || board.publish(table));

        // 5. Snapshot cadence.
        since_snapshot += 1;
        let mut snapshot = Ok(0);
        if w.snapshot_every > 0 && since_snapshot >= w.snapshot_every {
            snapshot = tracer.span("geodur.snapshot.write", Some(root), id, || {
                store.write_snapshot(&Snapshot {
                    lsn: store.next_lsn(),
                    window: window as u64 + 1,
                    env_fp,
                    geo: geo.clone(),
                    placement: adaptive.carried_parts().cloned(),
                    trainer: None,
                })
            });
            since_snapshot = 0;
            phase.snapshots += 1;
            phase.snapshot_bytes += *snapshot.as_ref().unwrap_or(&0);
        }
        let ns = tracer.close(root);

        // Children whose length the program reported itself.
        if let Ok(r) = &report {
            tracer.derived("geopart.state.apply_delta", train, r.delta_apply.as_nanos() as u64);
            tracer.derived("rlcut.window.train", train, r.train.as_nanos() as u64);
        }
        let ok = logged.is_ok()
            && report.is_ok()
            && batched.is_ok()
            && committed.is_ok()
            && snapshot.is_ok();
        ops.check(ok, || format!("unrolled window {window} failed"));
        match &delta {
            Some(d) => {
                phase.window_ns.push(ns);
                phase.edge_changes += d.num_edge_changes() as u64;
                phase.migrations += report.map_or(0, |r| r.migrations as u64);
            }
            None => {
                phase.setup_s = setup.elapsed().as_secs_f64();
                phase.wal_bytes_window0 = store.appended_bytes();
            }
        }
        phase.fnv.push(masters_fnv(adaptive.masters()));
    }
    phase.wal_bytes = store.appended_bytes();
    phase.masters = adaptive.masters().to_vec();
    phase.rating = rate_plan(&geo, env, &phase.masters, theta);
    phase
}

/// Bytes on disk under `dir`.
fn disk_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => disk_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Kills the DC holding the most of `masters` on `server`, tells the
/// reader which epoch and DC that was, and returns the call's seconds.
fn evacuate(
    server: &mut PlacementServer,
    masters: &[DcId],
    num_dcs: usize,
    control: &ReaderControl,
    ops: &mut Ops,
) -> f64 {
    let mut held = vec![0u64; num_dcs];
    masters.iter().for_each(|&m| held[m as usize] += 1);
    let victim = (0..num_dcs).max_by_key(|&d| held[d]).expect("at least one DC");
    let mut dead = vec![false; num_dcs];
    dead[victim] = true;
    let t0 = Instant::now();
    let epoch = server.evacuate(&dead);
    let secs = t0.elapsed().as_secs_f64();
    ops.check(epoch.is_ok(), || format!("evacuation refused: {}", epoch.as_ref().unwrap_err()));
    // A reader may serve the evacuated table before it sees this word and
    // so under-count, never mis-judge: the epoch it compares comes from
    // the table it pinned.
    control.evacuation.store(epoch.unwrap_or(1) << 8 | victim as u64, Ordering::Relaxed);
    secs
}

/// Where every vertex's data lives: the base graph with its home
/// locations, then the homes and data sizes of every vertex the graph will
/// ever hold, and the theta the trainers are pinned to.
fn locate(
    graph: Graph,
    arriving_homes: &[DcId],
    seed: u64,
    num_dcs: usize,
) -> (GeoGraph, Vec<DcId>, Vec<u64>, usize) {
    let mut homes = assign_locations(&graph, &LocalityConfig::paper_default(seed));
    let theta = geograph::degree::suggest_theta(&graph, 0.05);
    let sizes = vec![DATA_BYTES; graph.num_vertices()];
    let geo0 = GeoGraph::new(graph, homes.clone(), sizes, num_dcs);
    homes.extend_from_slice(arriving_homes);
    let sizes = vec![DATA_BYTES; homes.len()];
    (geo0, homes, sizes, theta)
}

/// One more reading of the two end-to-end metrics whose unit of work is
/// short enough to repeat, taken when a run's rounds are done.
pub struct ExtraReading {
    /// As [`Round::setup_parts_s`].
    pub setup_parts_s: [f64; 4],
    /// As [`ReaderSummary::fastest_pass_s`].
    pub fastest_pass_s: f64,
}

/// All of set-up once more, from the seed, with a store under `dir` -
/// generation, one CSR build, locations, server, store creation and window
/// 0 - then [`EXTRA_READ_PASSES`] passes of a reader over the table window
/// 0 published (a still table of the same size as the ones the rounds
/// read, and what a lookup costs does not depend on the plan a table
/// holds). Everything is dropped afterwards.
pub fn extra_reading(w: &Workload, seed: u64, dir: &Path, ops: &mut Ops) -> ExtraReading {
    let env = &ec2_eight_regions();
    let num_dcs = env.num_dcs();
    let mut lap = Instant::now();
    let mut lap_s = || std::mem::replace(&mut lap, Instant::now()).elapsed().as_secs_f64();
    let inputs = workload::generate(w, seed);
    let generate_s = lap_s();
    let (graph, _) =
        build_chunked(&inputs.base, StreamConfig::cleaned(), &ScopedPool(INGEST_THREADS))
            .expect("streamed ingest");
    let build_s = lap_s();
    let (geo0, homes, sizes, theta) = locate(graph, &inputs.arriving_homes, seed, num_dcs);
    let server =
        PlacementServer::new(RoutingTable::from_homes(0, &geo0.locations, num_dcs), homes.clone());
    let locate_s = lap_s();
    let feed = WindowFeed { env, events: &[], homes: &homes, sizes: &sizes };
    let config = trainer_config(seed, w.trainer_threads, theta, w.window_rate, w.window_steps);
    std::fs::create_dir_all(dir).expect("create the store directory");
    let phase = windows_production(w, dir, geo0, config, &server, &feed, ops);
    let _ = std::fs::remove_dir_all(dir);

    let batches = (EXTRA_READ_PASSES * KEY_POOL_BATCHES) as u64;
    let control = ReaderControl::default();
    let mut reader = server.board().reader();
    let read =
        read_loop(&mut reader, &inputs.keys, num_dcs, &control, Some(batches), BLOCK_BATCHES);
    ops.count_batches(&read);
    ExtraReading {
        setup_parts_s: [generate_s, build_s, locate_s, phase.setup_s],
        fastest_pass_s: read.fastest_pass_s(BLOCK_BATCHES),
    }
}

/// Runs one round of `w` with inputs made from `seed`, keeping its store
/// under `dir`. `traced` picks the unrolled window composition.
pub fn run_round(w: &Workload, seed: u64, dir: &Path, traced: bool, ops: &mut Ops) -> Round {
    let mut tracer = Tracer::new();
    let t = &mut tracer;
    let root = t.open("round", None, NO_WINDOW);
    let env = ec2_eight_regions();
    let num_dcs = env.num_dcs();
    let mut round = Round::default();
    let c = &mut round.counters;

    // ---- Set-up: inputs from the seed. ---------------------------------
    let setup = Instant::now();
    let inputs: Inputs =
        t.span("bench.generate", Some(root), NO_WINDOW, || workload::generate(w, seed));
    round.setup_parts_s[0] = setup.elapsed().as_secs_f64();

    // ---- Ingest. -------------------------------------------------------
    // Each build drops the one before it first.
    let mut ingest_s = Vec::with_capacity(w.stage_repeats);
    let mut built = None;
    for _ in 0..w.stage_repeats {
        drop(built.take());
        let ingest = t.open("geograph.stream.build", Some(root), NO_WINDOW);
        built = Some(
            build_chunked(&inputs.base, StreamConfig::cleaned(), &ScopedPool(INGEST_THREADS))
                .expect("streamed ingest"),
        );
        ingest_s.push(t.close(ingest) as f64 / 1e9);
    }
    let (graph, report) = built.expect("at least one build");
    round.ingest_s = median(&ingest_s);
    round.measured_s += ingest_s.iter().sum::<f64>();
    // One build is also part of set-up: the durable pipeline cannot start
    // without its graph, and work a change moves into the build must show
    // in a metric that has a bound.
    round.setup_parts_s[1] = ingest_s[0];
    c.raw_edges = report.raw_edges;
    c.csr_edges = report.edges as u64;
    c.csr_bytes = report.csr_bytes as u64;
    c.ingest_peak_over_final = report.build_ratio();

    // ---- Set-up: where every vertex's data lives. ----------------------
    let setup = Instant::now();
    let n0 = graph.num_vertices();
    let (geo0, homes, sizes, theta) = t.span("bench.locations", Some(root), NO_WINDOW, || {
        locate(graph, &inputs.arriving_homes, seed, num_dcs)
    });
    round.setup_parts_s[2] = setup.elapsed().as_secs_f64();

    // ---- Initial partition (Table III) and what it buys (Fig 10). ------
    let profile = || TrafficProfile::uniform(n0, VALUE_BYTES);
    let budget = default_budget(&env, &geo0.locations, &geo0.data_sizes, BUDGET_FRACTION);
    let home_state = t.span("geopart.state.from_masters", Some(root), NO_WINDOW, || {
        HybridState::from_masters(&geo0, &env, geo0.locations.clone(), theta, profile(), ITERATIONS)
    });
    let home_time = home_state.objective(&env).transfer_time;
    c.state_bytes = home_state.heap_bytes() as u64;
    drop(home_state);

    let mut part_config =
        trainer_config(seed, w.trainer_threads, theta, w.partition_rate, w.partition_steps);
    part_config.budget = budget;
    // The same plan every time: fixed work from a fixed seed.
    let mut partition_s = Vec::with_capacity(w.stage_repeats);
    let mut partitioned = None;
    for _ in 0..w.stage_repeats {
        drop(partitioned.take());
        let part = t.open("rlcut.partition", Some(root), NO_WINDOW);
        let result = rlcut::partition(&geo0, &env, profile(), ITERATIONS, &part_config);
        partition_s.push(t.close(part) as f64 / 1e9);
        let sum_ns = |f: fn(&rlcut::StepStats) -> Duration| {
            result.steps.iter().map(|s| f(s).as_nanos() as u64).sum::<u64>()
        };
        let steps = t.derived("rlcut.train.steps", part, sum_ns(|s| s.duration));
        t.derived("rlcut.train.score", steps, sum_ns(|s| s.score_duration));
        t.derived("rlcut.train.migrate", steps, sum_ns(|s| s.migrate_duration));
        partitioned = Some(result);
    }
    let result = partitioned.expect("at least one partition");
    round.partition_s = median(&partition_s);
    round.measured_s += partition_s.iter().sum::<f64>();
    c.partition_agent_steps = result.steps.iter().map(|s| s.num_agents as u64).sum();
    c.partition_migrations = result.total_migrations() as u64;
    let part_objective = result.final_objective(&env);
    ops.check(part_objective.total_cost() <= budget, || {
        format!("partition plan costs {} over budget {budget}", part_objective.total_cost())
    });

    let pagerank = t.span("geoengine.pagerank", Some(root), NO_WINDOW, || {
        execute_plan(&geo0, &env, result.state.core(), None, &Algorithm::pagerank())
    });
    let model = part_objective.transfer_time * pagerank.iterations as f64;
    ops.check((pagerank.transfer_time - model).abs() <= 1e-9 * model.abs(), || {
        format!("PageRank moved {} s, the Eq 1 model says {model}", pagerank.transfer_time)
    });
    c.pagerank_transfer_s = pagerank.transfer_time;
    c.pagerank_wan_bytes = pagerank.wan_bytes;
    drop(pagerank);

    // ---- Set-up: the server(s). ----------------------------------------
    let setup = Instant::now();
    let mut live_server =
        PlacementServer::new(RoutingTable::from_homes(0, &geo0.locations, num_dcs), homes.clone());
    // (server, masters it serves) when lookups use the partition's plan.
    let mut partition_server = w.serve_partition_plan.then(|| {
        let core = result.state.core();
        let table = RoutingTable::from_placement(0, core);
        (PlacementServer::new(table, geo0.locations.clone()), core.masters().to_vec())
    });
    drop(result);
    round.setup_parts_s[2] += setup.elapsed().as_secs_f64();

    // ---- Window 0 (set-up), then the delta windows. --------------------
    let feed = WindowFeed { env: &env, events: &inputs.windows, homes: &homes, sizes: &sizes };
    let win_config = trainer_config(seed, w.trainer_threads, theta, w.window_rate, w.window_steps);
    let control = ReaderControl::default();
    let board = live_server.board();
    let block = if traced { 1 } else { BLOCK_BATCHES };
    let mut reader_out = ReaderOut::default();
    let phase = std::thread::scope(|s| {
        let beside = w.reader_beside_trainer.then(|| {
            let mut reader = board.reader();
            let (keys, control) = (&inputs.keys[..], &control);
            s.spawn(move || read_loop(&mut reader, keys, num_dcs, control, None, block))
        });
        let phase = if traced {
            windows_unrolled(w, dir, geo0, win_config.clone(), &board, &feed, ops, t, root)
        } else {
            windows_production(w, dir, geo0, win_config.clone(), &live_server, &feed, ops)
        };
        c.plan_flips = board.flips();
        if let Some(handle) = beside {
            // Evacuate under the running reader, and stop it once it has
            // served enough batches from the evacuated table (a reader
            // that died will never get there).
            round.evacuate_s = evacuate(&mut live_server, &phase.masters, num_dcs, &control, ops);
            while control.post_evacuation.load(Ordering::Relaxed) < POST_EVACUATION_BATCHES
                && !handle.is_finished()
            {
                std::thread::yield_now();
            }
            control.stop.store(true, Ordering::Relaxed);
            match handle.join() {
                Ok(out) => reader_out = out,
                Err(_) => ops.check(false, || "the reader thread panicked".to_string()),
            }
        }
        phase
    });
    round.setup_parts_s[3] = phase.setup_s;

    // ---- Lookups on a table that no longer flips, then evacuation. -----
    if !w.reader_beside_trainer {
        let (server, masters) = match &mut partition_server {
            Some((server, masters)) => (server, &masters[..]),
            None => (&mut live_server, &phase.masters[..]),
        };
        let mut reader = server.board().reader();
        let lookups = t.open("geoserve.lookups", Some(root), NO_WINDOW);
        reader_out = read_loop(
            &mut reader,
            &inputs.keys,
            num_dcs,
            &control,
            Some(w.lookup_batches as u64),
            block,
        );
        t.close(lookups);
        round.measured_s += reader_out.wall_s;
        round.evacuate_s = evacuate(server, masters, num_dcs, &control, ops);
        let after = read_loop(
            &mut reader,
            &inputs.keys,
            num_dcs,
            &control,
            Some(POST_EVACUATION_BATCHES),
            block,
        );
        // Checked, not measured: the latency metrics are the still table's.
        ops.attempted += after.batches;
        reader_out.bad_batches += after.bad_batches;
    }
    ops.count_batches(&reader_out);
    round.reader = reader_out.summarize(block);

    // ---- The finished store: size, recovery, reboot. -------------------
    let committed = inputs.windows.len() as u64 + 1;
    let live_fnv = masters_fnv(&phase.masters);
    c.store_bytes = disk_bytes(dir);
    // Recovery reads the store and writes nothing, so it can be repeated;
    // each recovered pipeline closes before the next opens.
    let mut recover_s = Vec::with_capacity(w.stage_repeats);
    let mut recovered = None;
    for _ in 0..w.stage_repeats {
        drop(recovered.take());
        let recover = t.open("geodur.recover", Some(root), NO_WINDOW);
        recovered =
            Some(DurableAdaptive::recover(dir, win_config.clone(), Some(BUDGET_FRACTION), &env, 0));
        recover_s.push(t.close(recover) as f64 / 1e9);
    }
    let recovered = recovered.expect("at least one recovery");
    round.recover_s = median(&recover_s);
    round.measured_s += recover_s.iter().sum::<f64>();
    match &recovered {
        Ok((durable, summary)) => {
            c.replayed_windows = summary.replayed_windows;
            ops.check(
                durable.masters() == &phase.masters[..]
                    && masters_fnv(durable.masters()) == live_fnv
                    && summary.next_window == committed
                    && !summary.rolled_back,
                || "recovered masters differ from the live masters".to_string(),
            );
        }
        Err(e) => ops.check(false, || format!("recovery failed: {e}")),
    }
    drop(recovered);
    let boot = t.open("geoserve.boot", Some(root), NO_WINDOW);
    let rebooted = PlacementServer::boot_from_store(dir, &env);
    round.boot_s = t.close(boot) as f64 / 1e9;
    match &rebooted {
        Ok((server, report)) => ops.check(
            report.masters_fnv == live_fnv
                && report.window == committed
                && server.board().reader().pin().masters() == &phase.masters[..],
            || "rebooted server serves masters that differ from the live masters".to_string(),
        ),
        Err(e) => ops.check(false, || format!("reboot failed: {e}")),
    }
    drop(rebooted);

    // ---- Remaining output checks and counts. ---------------------------
    ops.check(phase.rating.plan_cost <= phase.rating.budget, || {
        format!("final plan costs {} over budget {}", phase.rating.plan_cost, phase.rating.budget)
    });
    ops.check(c.plan_flips == committed, || {
        format!("{} plan flips for {committed} committed windows", c.plan_flips)
    });
    c.plan_time_ratio = if w.serve_partition_plan {
        part_objective.transfer_time / home_time
    } else {
        phase.rating.plan_time / phase.rating.home_time
    };
    c.window_migrations = phase.migrations;
    c.edge_changes = phase.edge_changes;
    c.wal_bytes = phase.wal_bytes - phase.wal_bytes_window0;
    c.snapshot_bytes = phase.snapshot_bytes;
    c.snapshots = phase.snapshots;
    c.table_bytes = phase.table_bytes;
    c.table_vertices = phase.masters.len() as u64;
    round.measured_s += phase.window_ns.iter().sum::<u64>() as f64 / 1e9 + round.boot_s;
    round.window_ns = phase.window_ns;
    round.fnv = phase.fnv;
    tracer.close(root);

    round.peak_rss_bytes = geograph::peak_rss_bytes().unwrap_or(0);
    round.tracer = traced.then_some(tracer);
    round
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fastest_pass_is_the_smallest_sum_of_whole_passes() {
        // Two blocks a pass; the trailing odd block belongs to no whole pass.
        let block = KEY_POOL_BATCHES / 2;
        let out =
            ReaderOut { block_ns: vec![500, 700, 400, 600, 900, 300, 1], ..Default::default() };
        assert_eq!(out.fastest_pass_s(block), 1_000.0 / 1e9);
        // A block that does not divide the pool has no passes to compare.
        assert_eq!(out.fastest_pass_s(KEY_POOL_BATCHES - 1), 0.0);
        assert_eq!(ReaderOut::default().fastest_pass_s(block), 0.0);
    }
}
