//! The sharded scoring backend of [`TrainerSession`]: shard workers over
//! vertex-range CSR shards behind a transport-abstracted shuffle layer.
//!
//! ## Architecture
//!
//! * **Shards** ([`geograph::ShardView`] + [`geopart::ShardPlacement`] +
//!   a shard-local [`AgentPool`]) own disjoint contiguous vertex ranges.
//!   Each holds bit-identical replicas of the placement rows of its owned
//!   vertices and its ghost fringe, so it scores its own agents — and runs
//!   their LA updates — without touching any global structure.
//! * **Shuffle layer** ([`ShuffleTransport`]) carries every cross-shard
//!   byte as an explicit [`ShuffleMsg`]: score requests and replies, row
//!   and load synchronization after migrations. The provided
//!   [`InProcessShuffle`] backs the trait with in-process queues; a
//!   process/socket transport plugs in at the same boundary (all message
//!   payloads are plain old data with a [`ShuffleMsg::wire_bytes`]
//!   accounting of their serialized size).
//! * **Coordinator** — the [`TrainerSession`] itself. It owns the
//!   authoritative [`HybridState`] and the whole step loop (sampling,
//!   schedule, migration RNG, Fig 7 migration, best-plan tracker, journal,
//!   observer); the [`ShardRuntime`] it holds only answers "which moves do
//!   the sampled agents propose" ([`ShardRuntime::propose`]: route by
//!   owner, serve, reassemble in the global sampled order) and keeps the
//!   replicas current ([`ShardRuntime::sync`]).
//!
//! ## Determinism
//!
//! Trained masters are bit-identical to a single-process session at any
//! shard count because every divergence channel is closed: shard-local
//! scoring equals global scoring bit-for-bit (monotone local-id compaction
//! — see `geopart::shard`); LA updates are per-vertex independent, so
//! sharded pools evolve exactly like the global pool rows they partition;
//! proposal reassembly walks the global sampled order, so the proposal
//! vector — and hence the session's shuffle — is byte-identical; and
//! everything after the proposal vector is the same code.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

use geograph::shard::ShardDelta;
use geograph::{
    BuildError, ChunkedEdges, DcId, GeoGraph, Graph, GraphDelta, IngestPool, ShardIngestReport,
    ShardSpec, ShardView, StreamConfig, VertexId,
};
use geopart::shard::{export_row, RowSync, ShardPlacement};
use geopart::{HybridState, MoveScratch, Objective, TrafficProfile};
use geosim::{CloudEnv, StageLoads};
use parking_lot::Mutex;

use crate::agent::AgentPool;
use crate::config::RlCutConfig;
use crate::score::{best_destination, Weights};
use crate::stats::RlCutResult;
use crate::trainer::{Exec, SessionResources, TrainError, TrainerSession};

/// Why the sharded runtime failed.
#[derive(Debug)]
pub enum ShardError {
    /// A transport endpoint is gone (a process transport's peer died; the
    /// in-process transport never produces this).
    Disconnected {
        /// The unreachable shard.
        shard: usize,
    },
    /// A message violated the coordinator/shard protocol (wrong type,
    /// misrouted vertex, missing or misaligned score decision).
    Protocol {
        /// The shard involved.
        shard: usize,
        /// What went wrong.
        detail: String,
    },
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::Disconnected { shard } => write!(f, "shard {shard} is unreachable"),
            ShardError::Protocol { shard, detail } => {
                write!(f, "shuffle protocol violation at shard {shard}: {detail}")
            }
        }
    }
}

impl std::error::Error for ShardError {}

/// A message on the shuffle layer. Everything that crosses a shard
/// boundary — score reads, count/row updates, migration proposals — is one
/// of these; payloads are plain old data so a process transport can
/// serialize them without touching the runtime.
#[derive(Clone, Debug)]
pub enum ShuffleMsg {
    /// Coordinator → shard: score these owned agents (global ids, in
    /// global sampled order) against the frozen step objective.
    ScoreAgents {
        /// Sampled agents owned by the receiving shard.
        agents: Vec<VertexId>,
        /// Frozen step-start objective (Eq 10's reference point).
        step_obj: Objective,
        /// The step's score weights.
        weights: Weights,
    },
    /// Shard → coordinator: one decision per requested agent, aligned with
    /// the request order: `(vertex, selected DC, proposes-migration)`.
    ScoreReply {
        /// The replying shard.
        shard: usize,
        /// Per-agent `(vertex, selected, proposed)` decisions.
        decisions: Vec<(VertexId, DcId, bool)>,
    },
    /// Coordinator → shard: verbatim row copies for local vertices whose
    /// counts/master changed (bootstrap and post-migration sync).
    SyncRows {
        /// `(global vertex, row)` pairs; every vertex is local to the
        /// receiving shard.
        rows: Vec<(VertexId, RowSync)>,
    },
    /// Coordinator → shard: the global load accumulators and movement
    /// cost, which every applied migration changes for all shards.
    SyncLoads {
        /// Gather-stage per-DC loads.
        gather: StageLoads,
        /// Apply-stage per-DC loads.
        apply: StageLoads,
        /// Accumulated Eq 4 movement cost.
        movement_cost: f64,
    },
}

impl ShuffleMsg {
    /// Serialized size of this message on a byte-oriented transport — the
    /// shuffle-volume accounting the bench reports. (The in-process
    /// transport moves pointers, but counts these bytes so the numbers
    /// predict a real wire.)
    pub fn wire_bytes(&self) -> u64 {
        match self {
            ShuffleMsg::ScoreAgents { agents, .. } => (agents.len() * 4 + 24 + 16) as u64,
            ShuffleMsg::ScoreReply { decisions, .. } => (8 + decisions.len() * 6) as u64,
            ShuffleMsg::SyncRows { rows } => {
                rows.iter().map(|(_, r)| 4 + r.wire_bytes()).sum::<u64>()
            }
            ShuffleMsg::SyncLoads { gather, apply, .. } => {
                let loads = gather.up_slice().len()
                    + gather.down_slice().len()
                    + apply.up_slice().len()
                    + apply.down_slice().len();
                (loads * 8 + 8) as u64
            }
        }
    }
}

/// The transport boundary of the shuffle layer. The runtime only ever
/// moves [`ShuffleMsg`]s through this trait, so swapping the in-process
/// queues for a process or socket transport is a drop-in implementation —
/// no runtime change.
pub trait ShuffleTransport: Send + Sync {
    /// Enqueues `msg` for `shard`.
    fn send_to_shard(&self, shard: usize, msg: ShuffleMsg) -> Result<(), ShardError>;
    /// Dequeues the next message addressed to `shard`, if any.
    fn try_recv_for_shard(&self, shard: usize) -> Result<Option<ShuffleMsg>, ShardError>;
    /// Enqueues `msg` from shard `from` for the coordinator.
    fn send_to_coordinator(&self, from: usize, msg: ShuffleMsg) -> Result<(), ShardError>;
    /// Dequeues the next message addressed to the coordinator, if any.
    fn try_recv_at_coordinator(&self) -> Result<Option<ShuffleMsg>, ShardError>;
    /// Total bytes shuffled so far (both directions, wire accounting).
    fn bytes_shuffled(&self) -> u64;
}

/// In-process shuffle: one FIFO queue per shard plus one for the
/// coordinator, with wire-byte accounting. The reference transport — and
/// the fast path when shards share an address space.
pub struct InProcessShuffle {
    inboxes: Vec<Mutex<VecDeque<ShuffleMsg>>>,
    coordinator: Mutex<VecDeque<ShuffleMsg>>,
    bytes: AtomicU64,
}

impl InProcessShuffle {
    /// A transport connecting `num_shards` shards to one coordinator.
    pub fn new(num_shards: usize) -> InProcessShuffle {
        InProcessShuffle {
            inboxes: (0..num_shards).map(|_| Mutex::new(VecDeque::new())).collect(),
            coordinator: Mutex::new(VecDeque::new()),
            bytes: AtomicU64::new(0),
        }
    }
}

impl ShuffleTransport for InProcessShuffle {
    fn send_to_shard(&self, shard: usize, msg: ShuffleMsg) -> Result<(), ShardError> {
        let inbox = self.inboxes.get(shard).ok_or(ShardError::Disconnected { shard })?;
        self.bytes.fetch_add(msg.wire_bytes(), Ordering::Relaxed);
        inbox.lock().push_back(msg);
        Ok(())
    }

    fn try_recv_for_shard(&self, shard: usize) -> Result<Option<ShuffleMsg>, ShardError> {
        let inbox = self.inboxes.get(shard).ok_or(ShardError::Disconnected { shard })?;
        Ok(inbox.lock().pop_front())
    }

    fn send_to_coordinator(&self, _from: usize, msg: ShuffleMsg) -> Result<(), ShardError> {
        self.bytes.fetch_add(msg.wire_bytes(), Ordering::Relaxed);
        self.coordinator.lock().push_back(msg);
        Ok(())
    }

    fn try_recv_at_coordinator(&self) -> Result<Option<ShuffleMsg>, ShardError> {
        Ok(self.coordinator.lock().pop_front())
    }

    fn bytes_shuffled(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }
}

/// One shard worker: the view, the placement replica, and the shard-local
/// learning automata of its local vertices.
struct ShardNode {
    index: usize,
    view: ShardView,
    placement: ShardPlacement,
    agents: AgentPool,
}

impl ShardNode {
    /// Drains this shard's inbox: applies row/load syncs in arrival order
    /// and answers score requests.
    fn serve(
        &mut self,
        env: &CloudEnv,
        config: &RlCutConfig,
        transport: &dyn ShuffleTransport,
        scratch: &mut MoveScratch,
    ) -> Result<(), ShardError> {
        while let Some(msg) = transport.try_recv_for_shard(self.index)? {
            match msg {
                ShuffleMsg::SyncRows { rows } => {
                    for (v, row) in &rows {
                        let local = self.view.to_local(*v).ok_or_else(|| ShardError::Protocol {
                            shard: self.index,
                            detail: format!("sync for vertex {v} outside the local working set"),
                        })?;
                        self.placement.sync_row(local, row);
                    }
                }
                ShuffleMsg::SyncLoads { gather, apply, movement_cost } => {
                    self.placement.sync_loads(gather, apply, movement_cost);
                }
                ShuffleMsg::ScoreAgents { agents, step_obj, weights } => {
                    let decisions =
                        self.score_agents(env, config, &agents, &step_obj, weights, scratch)?;
                    transport.send_to_coordinator(
                        self.index,
                        ShuffleMsg::ScoreReply { shard: self.index, decisions },
                    )?;
                }
                ShuffleMsg::ScoreReply { .. } => {
                    return Err(ShardError::Protocol {
                        shard: self.index,
                        detail: "score reply routed to a shard".into(),
                    });
                }
            }
        }
        Ok(())
    }

    /// Fig 5 phases 1–4 for this shard's agents: score every requested
    /// agent against the frozen step objective (phase 1+2), then run its
    /// LA probability update and UCB selection (phase 3+4) on the
    /// shard-local automaton. Per-agent decisions are returned in request
    /// order for the coordinator to reassemble.
    fn score_agents(
        &mut self,
        env: &CloudEnv,
        config: &RlCutConfig,
        agents: &[VertexId],
        step_obj: &Objective,
        weights: Weights,
        scratch: &mut MoveScratch,
    ) -> Result<Vec<(VertexId, DcId, bool)>, ShardError> {
        let mut decisions = Vec::with_capacity(agents.len());
        for &v in agents {
            let lv = self.view.to_local(v).filter(|_| self.view.owns(v)).ok_or_else(|| {
                ShardError::Protocol {
                    shard: self.index,
                    detail: format!("asked to score vertex {v} it does not own"),
                }
            })?;
            let master = self.placement.master_local(lv);
            let objs = self.placement.evaluate_all_moves(env, &self.view, v, scratch);
            let best_dc = best_destination(step_obj, objs, master, weights);
            let selected = self.agents.learn_and_select(lv, best_dc, config);
            decisions.push((v, selected, selected != master));
        }
        Ok(decisions)
    }
}

/// Shard topology carried across dynamic windows: the range spec and the
/// built views. A finished sharded session hands it back through
/// [`SessionResources`]; [`refresh_views`] routes the next window's delta
/// into it, rebuilding only the affected views.
#[derive(Clone, Debug)]
pub struct ShardCarry {
    /// The contiguous range partition.
    pub spec: ShardSpec,
    /// One built view per shard, fringe included.
    pub views: Vec<ShardView>,
}

impl ShardCarry {
    /// `num_shards` contiguous vertex ranges over `graph`, every view
    /// built from the staged CSR.
    pub fn contiguous(graph: &Graph, num_shards: usize) -> ShardCarry {
        let spec = ShardSpec::contiguous(graph.num_vertices(), num_shards);
        let views = (0..num_shards).map(|s| ShardView::build(graph, &spec, s)).collect();
        ShardCarry { spec, views }
    }
}

/// Routes `delta` through `carry`, growing the spec to the new vertex
/// count and rebuilding **only** the views the delta touches (a shard is
/// affected iff an owned vertex's adjacency changed or its range absorbed
/// appended vertices — an untouched shard's fringe is a function of its
/// owned adjacency, so its view is carried verbatim). Returns the number
/// of views rebuilt.
pub fn refresh_views(carry: &mut ShardCarry, graph: &Graph, delta: &GraphDelta) -> usize {
    carry.spec.grow(delta.new_num_vertices());
    let routed: Vec<ShardDelta> = geograph::route_delta(delta, &carry.spec);
    let mut rebuilt = 0;
    for (s, slice) in routed.iter().enumerate() {
        if slice.affects_view() {
            carry.views[s] = ShardView::build(graph, &carry.spec, s);
            rebuilt += 1;
        }
    }
    rebuilt
}

/// Builds a [`ShardCarry`] straight from a chunked edge stream, one
/// shard-resident ingest per shard — the global CSR is never
/// materialized, so the peak footprint is a single shard's view plus its
/// transient planes rather than the whole graph. The resulting views are
/// bit-identical to `ShardView::build` over the staged graph (see
/// [`ShardView::build_streamed`]), so a session constructed from this
/// carry via [`TrainerSession::sharded`] trains the exact same masters.
/// Returns the per-shard ingest reports alongside the carry for footprint
/// accounting.
pub fn shard_carry_streamed<S: ChunkedEdges + ?Sized>(
    src: &S,
    cfg: StreamConfig,
    num_shards: usize,
    pool: &dyn IngestPool,
) -> Result<(ShardCarry, Vec<ShardIngestReport>), BuildError> {
    let spec = ShardSpec::contiguous(src.num_vertices(), num_shards);
    let mut views = Vec::with_capacity(num_shards);
    let mut reports = Vec::with_capacity(num_shards);
    for s in 0..num_shards {
        let (view, report) = ShardView::build_streamed(src, cfg, &spec, s, pool)?;
        views.push(view);
        reports.push(report);
    }
    Ok((ShardCarry { spec, views }, reports))
}

/// What a [`TrainerSession`] keeps of the shards: the topology, the shard
/// nodes and the transport to reach them. Everything else about a sharded
/// run — state, schedule, migration, bookkeeping — is the session's.
pub(crate) struct ShardRuntime {
    spec: ShardSpec,
    shards: Vec<Mutex<ShardNode>>,
    transport: Box<dyn ShuffleTransport>,
}

impl ShardRuntime {
    /// Fresh placement replicas and automata over `carry`'s views. The
    /// replicas are empty until the first full [`Self::sync`].
    pub(crate) fn new(
        carry: ShardCarry,
        transport: Box<dyn ShuffleTransport>,
        num_dcs: usize,
        num_iterations: f64,
    ) -> ShardRuntime {
        let ShardCarry { spec, views } = carry;
        assert_eq!(spec.num_shards(), views.len());
        let shards = views
            .into_iter()
            .enumerate()
            .map(|(index, view)| {
                let placement = ShardPlacement::new(num_dcs, view.num_locals(), num_iterations);
                let agents = AgentPool::new(view.num_locals(), num_dcs);
                Mutex::new(ShardNode { index, view, placement, agents })
            })
            .collect();
        ShardRuntime { spec, shards, transport }
    }

    pub(crate) fn total_ghosts(&self) -> usize {
        self.shards.iter().map(|n| n.lock().view.num_ghosts()).sum()
    }

    pub(crate) fn shuffle_bytes(&self) -> u64 {
        self.transport.bytes_shuffled()
    }

    pub(crate) fn into_carry(self) -> ShardCarry {
        let views = self.shards.into_iter().map(|node| node.into_inner().view).collect();
        ShardCarry { spec: self.spec, views }
    }

    /// Runs `serve` on every active shard: on the worker pool when one
    /// exists (shard `i` handled by worker `i % threads`, each on its
    /// warm resident scratch), inline on the caller's scratch otherwise.
    /// Both paths drain the same queues in the same per-shard order, so
    /// they are interchangeable bit-for-bit.
    fn dispatch(&self, active: &[bool], exec: &mut Exec<'_>) -> Result<(), TrainError> {
        let (env, config, transport) = (exec.env, exec.config, &*self.transport);
        let active_shards = || self.shards.iter().enumerate().filter(|(i, _)| active[*i]);
        let Some(pool) = exec.pool else {
            for (_, node) in active_shards() {
                node.lock().serve(env, config, transport, exec.scratch)?;
            }
            return Ok(());
        };
        let threads = pool.threads();
        let failure: Mutex<Option<ShardError>> = Mutex::new(None);
        pool.run_on_all(&|worker, scratch| {
            for (_, node) in active_shards().filter(|(i, _)| i % threads == worker) {
                if let Err(e) = node.lock().serve(env, config, transport, scratch) {
                    failure.lock().get_or_insert(e);
                }
            }
        })?;
        failure.into_inner().map_or(Ok(()), |e| Err(e.into()))
    }

    /// Fig 5 phases 1–4, sharded: routes each sampled agent to its owner
    /// (order-preserving within a shard), lets the shards score and run
    /// the LA updates, then reassembles the decisions in the global
    /// sampled order — the proposal vector comes out byte-identical to
    /// the single-process proposer's.
    pub(crate) fn propose(
        &self,
        sampled: &[VertexId],
        step_obj: &Objective,
        weights: Weights,
        exec: &mut Exec<'_>,
    ) -> Result<Vec<(VertexId, DcId)>, TrainError> {
        let num_shards = self.spec.num_shards();
        let mut per_shard: Vec<Vec<VertexId>> = vec![Vec::new(); num_shards];
        for &v in sampled {
            per_shard[self.spec.owner_of(v)].push(v);
        }
        let mut active = vec![false; num_shards];
        for (i, agents) in per_shard.into_iter().enumerate().filter(|(_, a)| !a.is_empty()) {
            active[i] = true;
            self.transport.send_to_shard(
                i,
                ShuffleMsg::ScoreAgents { agents, step_obj: *step_obj, weights },
            )?;
        }
        self.dispatch(&active, exec)?;
        let mut queues: Vec<VecDeque<(VertexId, DcId, bool)>> =
            (0..num_shards).map(|_| VecDeque::new()).collect();
        while let Some(msg) = self.transport.try_recv_at_coordinator()? {
            match msg {
                ShuffleMsg::ScoreReply { shard, decisions } => queues[shard].extend(decisions),
                other => {
                    return Err(ShardError::Protocol {
                        shard: usize::MAX,
                        detail: format!("unexpected coordinator message {other:?}"),
                    }
                    .into());
                }
            }
        }
        let mut proposals: Vec<(VertexId, DcId)> = Vec::new();
        for &v in sampled {
            let owner = self.spec.owner_of(v);
            let (rv, selected, proposed) =
                queues[owner].pop_front().ok_or_else(|| ShardError::Protocol {
                    shard: owner,
                    detail: format!("missing score decision for vertex {v}"),
                })?;
            if rv != v {
                return Err(ShardError::Protocol {
                    shard: owner,
                    detail: format!("decision for vertex {rv} where {v} was expected"),
                }
                .into());
            }
            if proposed {
                proposals.push((v, selected));
            }
        }
        Ok(proposals)
    }

    /// Brings the placement replicas up to date with the authoritative
    /// `state`: ships the rows dirtied by the `applied` moves — each moved
    /// vertex plus the neighbors whose counts its hybrid-cut staging
    /// touched — to every shard holding them (as owner or ghost), or every
    /// local row when `applied` is `None` (bootstrap), plus the global
    /// loads to every populated shard, then has the shards apply the sync.
    pub(crate) fn sync(
        &self,
        geo: &GeoGraph,
        state: &HybridState<'_>,
        applied: Option<&[(VertexId, DcId)]>,
        exec: &mut Exec<'_>,
    ) -> Result<(), TrainError> {
        let core = state.core();
        let dirty = applied.map(|applied| {
            let mut dirty: Vec<VertexId> = Vec::new();
            for &(v, _) in applied {
                dirty.push(v);
                if !core.is_high(v) {
                    dirty.extend_from_slice(geo.graph.in_neighbors(v));
                }
                dirty.extend(geo.graph.out_neighbors(v).iter().filter(|&&w| core.is_high(w)));
            }
            dirty.sort_unstable();
            dirty.dedup();
            dirty
        });
        let export = |v: VertexId| {
            (v, export_row(core, geo.locations[v as usize], geo.data_sizes[v as usize], v))
        };
        let mut active = vec![false; self.shards.len()];
        for (i, node) in self.shards.iter().enumerate() {
            let rows: Vec<(VertexId, RowSync)> = {
                let node = node.lock();
                if node.view.num_locals() == 0 {
                    continue;
                }
                match &dirty {
                    None => node.view.locals().iter().copied().map(export).collect(),
                    Some(dirty) => dirty
                        .iter()
                        .copied()
                        .filter(|&v| node.view.to_local(v).is_some())
                        .map(export)
                        .collect(),
                }
            };
            if !rows.is_empty() {
                self.transport.send_to_shard(i, ShuffleMsg::SyncRows { rows })?;
            }
            self.transport.send_to_shard(
                i,
                ShuffleMsg::SyncLoads {
                    gather: core.gather_loads().clone(),
                    apply: core.apply_loads().clone(),
                    movement_cost: core.movement_cost(),
                },
            )?;
            active[i] = true;
        }
        self.dispatch(&active, exec)
    }
}

/// [`crate::trainer::partition`] through the sharded runtime: natural
/// initial masters, derived θ, `num_shards` contiguous shards over the
/// in-process shuffle. Bit-identical masters to the single-process
/// trainer at any shard count.
pub fn partition_sharded<'g>(
    geo: &'g GeoGraph,
    env: &CloudEnv,
    profile: TrafficProfile,
    num_iterations: f64,
    config: &RlCutConfig,
    num_shards: usize,
) -> Result<RlCutResult<'g>, TrainError> {
    let theta = config.theta.unwrap_or_else(|| geograph::degree::suggest_theta(&geo.graph, 0.05));
    let state =
        HybridState::from_masters(geo, env, geo.locations.clone(), theta, profile, num_iterations);
    let mut session = TrainerSession::sharded(
        geo,
        env,
        state,
        config.clone(),
        SessionResources::default(),
        ShardCarry::contiguous(&geo.graph, num_shards),
        Box::new(InProcessShuffle::new(num_shards)),
    )?;
    session.run(env, &mut crate::observer::NoopObserver)?;
    Ok(session.finish(env))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::partition;
    use geograph::generators::{rmat, RmatConfig};
    use geograph::locality::LocalityConfig;
    use geosim::regions::ec2_eight_regions;

    fn setup(seed: u64) -> (GeoGraph, CloudEnv) {
        let g = rmat(&RmatConfig::social(512, 4096), seed);
        (GeoGraph::from_graph(g, &LocalityConfig::paper_default(seed)), ec2_eight_regions())
    }

    fn config(geo: &GeoGraph, env: &CloudEnv) -> RlCutConfig {
        let budget = geosim::cost::default_budget(env, &geo.locations, &geo.data_sizes, 0.4);
        RlCutConfig::new(budget).with_seed(1).with_threads(2).with_max_steps(4)
    }

    #[test]
    fn sharded_masters_match_trainer_at_1_2_4_8_shards() {
        let (geo, env) = setup(21);
        let profile = TrafficProfile::uniform(geo.num_vertices(), 8.0);
        let uncapped = config(&geo, &env);
        // Every agent is sampled every step (no `t_opt`), so a 100-agent
        // cap binds; with `convergence_fraction` 1.0 any full-scan step
        // would declare convergence, which a capped step never may.
        let mut capped = uncapped.clone().with_max_scan(100);
        capped.convergence_fraction = 1.0;
        for cfg in [uncapped, capped] {
            let baseline = partition(&geo, &env, profile.clone(), 10.0, &cfg);
            assert!(baseline.total_migrations() > 0, "vacuous without migrations");
            for shards in [1usize, 2, 4, 8] {
                let r = partition_sharded(&geo, &env, profile.clone(), 10.0, &cfg, shards)
                    .unwrap_or_else(|e| panic!("{shards} shards: {e}"));
                assert_eq!(
                    baseline.state.core().masters(),
                    r.state.core().masters(),
                    "{shards} shards diverged from the single-process trainer ({:?})",
                    cfg.max_scan
                );
                assert_eq!(baseline.total_migrations(), r.total_migrations());
                if cfg.max_scan.is_some() {
                    assert!(r.steps.iter().all(|s| s.num_agents == 100));
                    assert_eq!(r.steps.len(), cfg.max_steps, "a capped scan stopped early");
                    assert!(!r.converged, "a capped scan sees only a window — no convergence");
                }
            }
        }
    }

    #[test]
    fn sharded_runtime_deterministic_across_thread_counts() {
        let (geo, env) = setup(22);
        let profile = TrafficProfile::uniform(geo.num_vertices(), 8.0);
        let run = |threads: usize| {
            let cfg = config(&geo, &env).with_threads(threads);
            partition_sharded(&geo, &env, profile.clone(), 10.0, &cfg, 4).expect("sharded run")
        };
        let one = run(1);
        let four = run(4);
        assert_eq!(one.state.core().masters(), four.state.core().masters());
    }

    #[test]
    fn shuffle_bytes_are_accounted() {
        let (geo, env) = setup(23);
        let profile = TrafficProfile::uniform(geo.num_vertices(), 8.0);
        let cfg = config(&geo, &env);
        let theta = geograph::degree::suggest_theta(&geo.graph, 0.05);
        let state =
            HybridState::from_masters(&geo, &env, geo.locations.clone(), theta, profile, 10.0);
        let mut t = TrainerSession::sharded(
            &geo,
            &env,
            state,
            cfg,
            SessionResources::default(),
            ShardCarry::contiguous(&geo.graph, 4),
            Box::new(InProcessShuffle::new(4)),
        )
        .expect("build");
        let bootstrap = t.shuffle_bytes();
        assert!(bootstrap > 0, "bootstrap row distribution must be counted");
        t.run(&env, &mut crate::observer::NoopObserver).expect("run");
        assert!(t.shuffle_bytes() > bootstrap, "steps must add shuffle volume");
        assert!(t.total_ghosts() > 0, "rmat graph must produce cross-shard fringes");
    }

    #[test]
    fn more_shards_than_vertices_still_bit_identical() {
        // Edge case: 8-vertex path graph, 16 shards — half the ranges are
        // empty and every populated shard owns a single vertex whose whole
        // adjacency is ghost-referenced.
        let graph = Graph::from_edges(8, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)]);
        let geo = GeoGraph::from_graph(graph, &LocalityConfig::paper_default(31));
        let env = ec2_eight_regions();
        let profile = TrafficProfile::uniform(geo.num_vertices(), 8.0);
        let budget = geosim::cost::default_budget(&env, &geo.locations, &geo.data_sizes, 0.4);
        let cfg = RlCutConfig::new(budget)
            .with_seed(2)
            .with_threads(2)
            .with_fixed_sample_rate(1.0)
            .with_max_steps(3);
        let baseline = partition(&geo, &env, profile.clone(), 10.0, &cfg);
        let sharded = partition_sharded(&geo, &env, profile, 10.0, &cfg, 16)
            .expect("16 shards over 8 vertices");
        assert_eq!(baseline.state.core().masters(), sharded.state.core().masters());
    }

    #[test]
    fn shard_with_zero_proposals_stays_in_sync() {
        // A star graph trained at full sampling: leaves follow the hub
        // quickly, so later steps produce few or no proposals for most
        // shards — every shard must keep serving score requests (empty
        // reply queues are part of the protocol, not an error) and the
        // plan must still match the trainer.
        let mut edges = Vec::new();
        for v in 1..64u32 {
            edges.push((0, v));
        }
        let graph = Graph::from_edges(64, &edges);
        let geo = GeoGraph::from_graph(graph, &LocalityConfig::paper_default(33));
        let env = ec2_eight_regions();
        let profile = TrafficProfile::uniform(geo.num_vertices(), 8.0);
        let budget = geosim::cost::default_budget(&env, &geo.locations, &geo.data_sizes, 0.4);
        let cfg = RlCutConfig::new(budget)
            .with_seed(3)
            .with_threads(2)
            .with_fixed_sample_rate(1.0)
            .with_max_steps(5);
        let baseline = partition(&geo, &env, profile.clone(), 10.0, &cfg);
        let sharded = partition_sharded(&geo, &env, profile, 10.0, &cfg, 4).expect("sharded star");
        assert_eq!(baseline.state.core().masters(), sharded.state.core().masters());
        assert_eq!(baseline.total_migrations(), sharded.total_migrations());
    }

    #[test]
    fn refresh_views_rebuilds_only_affected_shards() {
        use geograph::dynamic::{EdgeEvent, EventKind};
        let graph = Graph::from_edges(16, &[(0, 1), (4, 5), (8, 9), (12, 13)]);
        let spec = ShardSpec::contiguous(16, 4);
        let views = (0..4).map(|s| ShardView::build(&graph, &spec, s)).collect::<Vec<_>>();
        let mut carry = ShardCarry { spec, views };
        // One insertion inside shard 1's range only.
        let events = vec![EdgeEvent { src: 5, dst: 6, timestamp_ms: 0, kind: EventKind::Insert }];
        let delta = GraphDelta::from_events(&graph, &events);
        let next = graph.apply_delta(&delta);
        let rebuilt = refresh_views(&mut carry, &next, &delta);
        assert_eq!(rebuilt, 1, "only the owning shard's view must refresh");
        assert_eq!(carry.views[1].out_neighbors_of(5).len(), 1);
    }

    /// Chunked replay of an in-memory edge list, for driving the
    /// shard-resident ingest path.
    struct VecSource {
        n: usize,
        chunk: usize,
        edges: Vec<(VertexId, VertexId)>,
    }

    impl geograph::ChunkedEdges for VecSource {
        fn num_vertices(&self) -> usize {
            self.n
        }

        fn num_chunks(&self) -> usize {
            self.edges.len().div_ceil(self.chunk).max(1)
        }

        fn emit(&self, chunk: usize, sink: &mut dyn FnMut(VertexId, VertexId)) {
            let lo = chunk * self.chunk;
            let hi = (lo + self.chunk).min(self.edges.len());
            for &(u, v) in &self.edges[lo..hi] {
                sink(u, v);
            }
        }
    }

    #[test]
    fn streamed_carry_trains_identical_masters_across_windows() {
        use geograph::dynamic::{EdgeEvent, EventKind};

        let (geo, env) = setup(37);
        let profile = TrafficProfile::uniform(geo.num_vertices(), 8.0);
        let cfg = config(&geo, &env);

        // Shard-resident ingest of the snapshot's edge multiset: the
        // global CSR is never rebuilt, yet every view must be bit-identical
        // to the staged build over `geo.graph`.
        let edges: Vec<(VertexId, VertexId)> = (0..geo.num_vertices() as VertexId)
            .flat_map(|u| geo.graph.out_neighbors(u).iter().map(move |&v| (u, v)))
            .collect();
        let src = VecSource { n: geo.num_vertices(), chunk: 97, edges };
        let (carry, reports) = shard_carry_streamed(
            &src,
            geograph::StreamConfig::verbatim(),
            4,
            &geograph::ScopedPool(2),
        )
        .expect("streamed carry");
        assert_eq!(reports.len(), 4);
        for (s, view) in carry.views.iter().enumerate() {
            assert_eq!(*view, ShardView::build(&geo.graph, &carry.spec, s), "shard {s} view");
            assert!(reports[s].peak_bytes() > 0);
        }

        let train = |geo: &GeoGraph, carry: ShardCarry| {
            let theta = geograph::degree::suggest_theta(&geo.graph, 0.05);
            let state = HybridState::from_masters(
                geo,
                &env,
                geo.locations.clone(),
                theta,
                profile.clone(),
                10.0,
            );
            let mut t = TrainerSession::sharded(
                geo,
                &env,
                state,
                cfg.clone(),
                SessionResources::default(),
                carry,
                Box::new(InProcessShuffle::new(4)),
            )
            .expect("trainer");
            t.run(&env, &mut crate::observer::NoopObserver).expect("run");
            let (result, resources) = t.finish_with_resources(&env);
            let carry = resources.shards.expect("a sharded session hands its topology back");
            (result.state.core().masters().to_vec(), result.total_migrations(), carry)
        };

        // Window 1: the streamed carry must train the exact masters the
        // staged pipeline trains.
        let staged = partition_sharded(&geo, &env, profile.clone(), 10.0, &cfg, 4).expect("staged");
        let (masters1, migrations1, mut carry) = train(&geo, carry);
        assert_eq!(staged.state.core().masters(), &masters1[..]);
        assert_eq!(staged.total_migrations(), migrations1);

        // Window 2: a delta refreshes only the affected views inside the
        // streamed-origin carry; retraining must still match a carry built
        // from scratch against the updated snapshot.
        let events = vec![
            EdgeEvent { src: 3, dst: 200, timestamp_ms: 0, kind: EventKind::Insert },
            EdgeEvent { src: 400, dst: 7, timestamp_ms: 0, kind: EventKind::Insert },
        ];
        let delta = GraphDelta::from_events(&geo.graph, &events);
        let next_graph = geo.graph.apply_delta(&delta);
        let next =
            GeoGraph::new(next_graph, geo.locations.clone(), geo.data_sizes.clone(), geo.num_dcs);
        refresh_views(&mut carry, &next.graph, &delta);
        let fresh_views =
            (0..4).map(|s| ShardView::build(&next.graph, &carry.spec, s)).collect::<Vec<_>>();
        let fresh = ShardCarry { spec: carry.spec.clone(), views: fresh_views };
        let (masters2, migrations2, _) = train(&next, carry);
        let (masters2_fresh, migrations2_fresh, _) = train(&next, fresh);
        assert_eq!(masters2_fresh, masters2, "window 2 diverged from a from-scratch carry");
        assert_eq!(migrations2_fresh, migrations2);
    }
}
