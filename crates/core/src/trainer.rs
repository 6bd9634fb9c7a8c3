//! The RLCut training loop (Fig 5) with batched global migration (Fig 7,
//! §V-A) and degree-balanced parallel scoring (§V-B).
//!
//! `TrainerSession` owns the one step loop: schedule (Eq 14 or a fixed
//! rate) → sample a prefix of the priority order → frozen objective and
//! weights → propose (Fig 5 phases 1–4: one `AgentPool` scored against the
//! session's state) → shuffle → migrate → best-plan and convergence
//! bookkeeping → journal.
//!
//! ## Parallel architecture
//!
//! The session owns its environment ([`HybridState`]) outright: scoring
//! reads it from the fan-out's workers while the caller waits for them,
//! and migration writes it on the caller, so no lock guards it. It also
//! owns one [`geopart::MoveScratch`] arena per thread, warm across steps
//! and carried across windows; arena 0 doubles as the arena of every
//! sequential path. Each step has two phases, the first of them parallel:
//!
//! * **Scoring** — sampled agents are spread over `threads` scoped workers
//!   (`crate::pool::fan_out`) by
//!   the straggler-mitigating LPT assignment; each worker scores every
//!   candidate move of an agent in **one** batched kernel sweep
//!   ([`HybridState::evaluate_moves`]) against the frozen step-start
//!   state (shared borrows only). LA probability/UCB updates then run serially
//!   (they are `O(M)` per agent — noise next to the `O(deg)` scoring).
//! * **Migration** — move proposals are shuffled (the paper batches
//!   randomly) and processed batch-by-batch on the caller thread: a batch's
//!   members are evaluated against the frozen batch-start state, then the
//!   accepted ones apply before the next batch. `batch_size = 1`
//!   degenerates to the strictly sequential global optimization of Fig 7.
//!
//! Everything is deterministic for a fixed seed, independent of thread
//! count: accept decisions depend only on frozen snapshots, the apply
//! order is the shuffled proposal order, and the proposal vector is
//! assembled in the sampled order.

use std::time::Instant;

use geograph::{DcId, GeoGraph, VertexId};
use geopart::{HybridState, LaneDeltas, MoveMarks, MoveScratch, Objective, TrafficProfile};
use geosim::CloudEnv;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::agent::AgentPool;
use crate::config::{RlCutConfig, SampleStrategy};
use crate::pool::{fan_out, PoolError};
use crate::sampling::{degree_ascending_order, sample_prefix, window_order, SampleScheduler};
use crate::score::{best_destination, score, Weights};
use crate::stats::{RlCutResult, StepStats};
use crate::straggler;

/// Partitions `geo` starting from its natural locations (the paper's
/// initial state): one `TrainerSession` run to its end.
///
/// A run has one failure, a [`PoolError`] — a worker of this program
/// panicked — and it is re-raised on the caller; drive a
/// `TrainerSession` to receive it as a value instead.
pub fn partition<'g>(
    geo: &'g GeoGraph,
    env: &CloudEnv,
    profile: TrafficProfile,
    num_iterations: f64,
    config: &RlCutConfig,
) -> RlCutResult<'g> {
    let theta = config.theta.unwrap_or_else(|| geograph::degree::suggest_theta(&geo.graph, 0.05));
    let state =
        HybridState::from_masters(geo, env, geo.locations.clone(), theta, profile, num_iterations);
    let mut session = TrainerSession::new(geo, env, state, config.clone());
    session.run(env).expect("a training worker panicked");
    session.finish(env).0
}

/// What a finished [`TrainerSession`] hands to the next window's session
/// ([`TrainerSession::finish`] →
/// [`TrainerSession::with_resources`]): the warm scoring arenas, one per
/// thread, so a window's first step does not grow them again; plus what
/// only rides *out* of a session, the move journal.
#[derive(Debug, Default)]
pub(crate) struct SessionResources {
    /// Carried arenas (a session resizes them to its thread count).
    pub(crate) arenas: Vec<MoveScratch>,
    /// Applied-move journal of the donor session (present only when the
    /// donor had [`TrainerSession::enable_move_journal`] on): one entry
    /// per step with accepted migrations, in exact apply order, plus the
    /// reconcile sweep under [`RECONCILE_STEP`]. Rides *out* of a session;
    /// incoming resources never seed a new session's journal.
    pub(crate) journal: Option<MoveJournal>,
}

/// Journal step index of the end-of-session reconcile sweep
/// (live plan → best plan) in [`SessionResources`]' move journal.
pub(crate) const RECONCILE_STEP: u32 = geodur::Batch::RECONCILE_STEP;

/// Journal step index of the re-seed that moves every master off a dead DC
/// before the first training step ([`TrainerSession::evacuate_dead_dcs`]).
pub(crate) const RESEED_STEP: u32 = u32::MAX - 1;

/// An applied-move journal: per step, the accepted migrations in exact
/// apply order.
pub(crate) type MoveJournal = Vec<(u32, Vec<(VertexId, DcId)>)>;

/// What a phase executes on, borrowed from the session for one step.
struct Exec<'a> {
    env: &'a CloudEnv,
    config: &'a RlCutConfig,
    /// One arena per thread; arena 0 also serves every sequential path
    /// (small-sample scoring, migration).
    arenas: &'a mut [MoveScratch],
}

/// A training run: the Fig 5 loop broken into externally driven steps.
///
/// [`partition`] is `new` → `run` → [`Self::finish`]; the dynamic-window
/// driver adds [`Self::focus_window`], [`Self::boost_sampling`] and the
/// resources `finish` hands back around the same loop, and tests advance
/// it one [`Self::step`] at a time.
pub(crate) struct TrainerSession<'g> {
    geo: &'g GeoGraph,
    config: RlCutConfig,
    /// Sampling priority order (degree-ascending or seeded shuffle),
    /// isolated vertices excluded; a dynamic window re-cuts it into hot /
    /// ring / rest ([`Self::focus_window`]).
    order: Vec<VertexId>,
    /// One learning automaton per sampled position of `order` (Fig 5
    /// phases 3–4): slot `i` is `order[i]`'s. Every step samples a prefix
    /// of `order`, so the pool grows to the longest prefix sampled, not to
    /// the graph.
    agents: AgentPool,
    scheduler: SampleScheduler,
    /// Migration-batch shuffle RNG.
    rng: SmallRng,
    state: HybridState<'g>,
    steps: Vec<StepStats>,
    /// Best plan seen: a feasible (within-budget) plan beats any infeasible
    /// one, then lower transfer time wins. Batched migration can regress
    /// individual steps (jointly-applied moves interact, §V-A), so the
    /// trainer returns the best plan rather than the last.
    best: (Vec<DcId>, Objective),
    step_index: usize,
    converged: bool,
    /// Whether the schedule/sampler declared the run finished (distinct
    /// from convergence; a time budget can run out mid-flight).
    exhausted: bool,
    started: Instant,
    /// One scoring arena per thread, warm across steps; arena 0 also
    /// serves every sequential path (small-sample scoring, migration,
    /// re-seed, reconcile).
    arenas: Vec<MoveScratch>,
    /// Applied-move journal: `Some` while a durable driver needs every
    /// accepted migration (in exact apply order) for its WAL.
    journal: Option<MoveJournal>,
    /// DCs a noted fault declared dead (bit `d` ⇔ DC `d`): no agent is
    /// scored toward one and no proposal names one, so a window never
    /// moves a master back onto a dark DC. 0 while every DC is live, which
    /// leaves every decision as it was.
    dead_dcs: u64,
    /// Bumped by every mutation of `state` (an applied move, a re-seed):
    /// verdicts scored at one generation hold only at that generation.
    generation: u64,
    /// The last step's verdicts, kept while they may still hold (see
    /// [`Carry`]).
    carry: Option<Carry>,
    /// LPT score groups of the sampled prefix, built once and reused by
    /// every step that samples a prefix of that length.
    groups: PrefixGroups,
}

/// LPT score groups keyed on the length of the sampled prefix they were
/// built for.
type PrefixGroups = Option<(usize, Vec<Vec<usize>>)>;

/// What a score phase decided, per sampled agent (aligned with the
/// sampled slice).
struct Verdicts {
    /// ρ_v, the score-optimal DC (Eq 10/11).
    rho: Vec<DcId>,
    /// Bit `d` set iff moving the agent to DC `d` scores `> 0` against the
    /// step objective: the migration phase's accept test, for as long as
    /// the state is the one scored.
    accept: Vec<u64>,
    /// The move to ρ_v as lane deltas, for the migration phase to re-price
    /// once the state has moved on.
    lanes: LaneCache,
}

/// The score phase's exported projections ([`HybridState::export_lanes`]):
/// one run per score group, and per sampled agent the index of its entry
/// across the runs, [`NO_LANES`] where its ρ is its master or its deltas do
/// not fit. The runs stay where the workers wrote them, so merging copies
/// no entry.
struct LaneCache {
    index: Vec<u32>,
    runs: Vec<Vec<LaneDeltas>>,
    /// The first index of each run.
    starts: Vec<u32>,
    /// [`MoveScratch::staged_reach`], maximised over every entry.
    reach: [u32; 2],
}

/// A sampled agent without exported lane deltas.
const NO_LANES: u32 = u32::MAX;

impl LaneCache {
    /// Entry `at` of the runs, `None` for [`NO_LANES`].
    fn get(&self, at: u32) -> Option<&LaneDeltas> {
        if at == NO_LANES {
            return None;
        }
        let run = self.starts.partition_point(|&s| s <= at) - 1;
        Some(&self.runs[run][(at - self.starts[run]) as usize])
    }
}

/// One score group's output: per agent `(ρ, accept mask, index into the
/// group's own lane run)`, the run, and its reach.
type Scored = (Vec<(DcId, u64, u32)>, Vec<LaneDeltas>, [u32; 2]);

/// A migration proposal: the agent, its selected DC, the score phase's
/// accept bit for it, and its lane deltas in the step's [`LaneCache`]
/// ([`NO_LANES`] unless the selection is ρ).
#[derive(Clone, Copy, Debug)]
struct Proposal {
    v: VertexId,
    to: DcId,
    accept: bool,
    lanes: u32,
}

/// What a migration phase did, counted where the work is done.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct MigrateWork {
    /// Verdicts after the first accept re-priced from cached lane deltas.
    repriced: usize,
    /// Verdicts after the first accept that re-ran the full evaluation.
    post_accept_evals: usize,
}

/// A no-move step's verdicts, carried to the next step when that step
/// would score the same agents against the same state under the same
/// weights and environment — so re-scoring would reproduce them bit for
/// bit. The dead set needs no key of its own: only
/// [`TrainerSession::evacuate_dead_dcs`] changes it, and that bumps the
/// generation.
struct Carry {
    generation: u64,
    agents: usize,
    weights: Weights,
    env: CloudEnv,
    verdicts: Verdicts,
}

impl<'g> TrainerSession<'g> {
    /// Sets up a fresh session over an existing state.
    pub(crate) fn new(
        geo: &'g GeoGraph,
        env: &CloudEnv,
        state: HybridState<'g>,
        config: RlCutConfig,
    ) -> Self {
        Self::with_resources(geo, env, state, config, SessionResources::default())
    }

    /// [`Self::new`] reusing the arenas of a previous session (the
    /// dynamic-window path), resized to this session's thread count.
    pub(crate) fn with_resources(
        geo: &'g GeoGraph,
        env: &CloudEnv,
        state: HybridState<'g>,
        config: RlCutConfig,
        resources: SessionResources,
    ) -> Self {
        let mut arenas = resources.arenas;
        arenas.resize_with(config.threads().max(1), MoveScratch::new);
        TrainerSession {
            geo,
            agents: AgentPool::new(0, env.num_dcs()),
            // Isolated vertices generate no traffic wherever their master
            // sits — training them wastes the sampled-agent budget, so
            // they are excluded (they keep their initial master).
            order: Self::build_order(geo, &config),
            scheduler: Self::build_scheduler(&config),
            rng: SmallRng::seed_from_u64(config.seed ^ 0x0ddb_1a5e_5bad_5eed),
            best: (state.core().masters().to_vec(), state.objective(env)),
            state,
            steps: Vec::new(),
            step_index: 0,
            converged: false,
            exhausted: false,
            started: Instant::now(),
            arenas,
            journal: None,
            dead_dcs: 0,
            generation: 0,
            carry: None,
            groups: None,
            config,
        }
    }

    /// Turns on the applied-move journal: from now on every accepted
    /// migration is recorded `(step, moves)` in exact apply order, and
    /// [`Self::finish`] hands the journal back through
    /// [`SessionResources`]. The durable driver feeds it to the WAL;
    /// replaying the journal through `apply_move_with` reproduces the
    /// placement state, which is a function of the masters it leads to.
    pub(crate) fn enable_move_journal(&mut self) {
        if self.journal.is_none() {
            self.journal = Some(Vec::new());
        }
    }

    fn build_order(geo: &GeoGraph, config: &RlCutConfig) -> Vec<VertexId> {
        let mut order = match config.sample_strategy {
            SampleStrategy::LowestDegree => degree_ascending_order(&geo.graph),
            SampleStrategy::Random => {
                let mut all: Vec<VertexId> = (0..geo.num_vertices() as VertexId).collect();
                all.shuffle(&mut SmallRng::seed_from_u64(config.seed ^ 0x5a17_a8e2));
                all
            }
        };
        order.retain(|&v| geo.graph.degree(v) > 0);
        order
    }

    fn build_scheduler(config: &RlCutConfig) -> SampleScheduler {
        let mut scheduler = SampleScheduler::new(
            config.t_opt.map(|d| d.as_secs_f64()),
            config.fixed_sample_rate,
            config.max_steps,
        );
        if let Some(lambda) = config.sampling_recency {
            scheduler = scheduler.with_recency(lambda);
        }
        scheduler
    }

    /// Number of trainable (non-isolated) agents.
    pub(crate) fn num_trainable(&self) -> usize {
        self.order.len()
    }

    /// Whether the run has stopped (converged, horizon, or time budget).
    pub(crate) fn is_done(&self) -> bool {
        self.converged || self.exhausted || self.step_index >= self.config.max_steps
    }

    /// Reorders the sampling priority for dynamic window `window_index`
    /// whose delta touched `touched` ([`window_order`]): hot, then a ring
    /// slice that rotates with the window index, then the high-degree
    /// rest. Hot is every touched endpoint plus the in/out neighbors of
    /// the touched endpoints that are *not* high-degree (the placement's
    /// own θ class). A hub's neighborhood is a large share of the graph —
    /// expanding it makes everything hot, which ranks nothing — while the
    /// hub itself, and any neighbor reached through a low-degree endpoint,
    /// is where the delta actually changed the objective.
    ///
    /// Half of the first step's sample (the schedule's opening rate, so
    /// raise the floor with [`Self::boost_sampling`] first) is the most
    /// the hot segment fronts. Out-of-range ids are ignored. Returns the
    /// hot segment's length. Call before the first step: the agents are
    /// indexed by position in the order this re-cuts.
    pub(crate) fn focus_window(&mut self, touched: &[VertexId], window_index: u64) -> usize {
        assert_eq!(self.agents.num_agents(), 0, "focus_window after a step re-slots live agents");
        let graph = &self.geo.graph;
        let core = self.state.core();
        let mut hot = vec![false; graph.num_vertices()];
        for &s in touched {
            let Some(flag) = hot.get_mut(s as usize) else { continue };
            *flag = true;
            if !core.is_high(s) {
                for &u in graph.out_neighbors(s).iter().chain(graph.in_neighbors(s)) {
                    hot[u as usize] = true;
                }
            }
        }
        let first_sample =
            self.scheduler.next_rate().map_or(0, |rate| sample_prefix(&self.order, rate).len());
        let (order, hot_len) = window_order(
            &self.order,
            |v| hot[v as usize],
            |v| core.is_high(v),
            first_sample,
            window_index,
        );
        self.order = order;
        hot_len
    }

    /// Masks the DCs flagged in `dead` for the rest of the session and
    /// moves every master on one by [`geopart::reseed_stranded_masters`]
    /// (the rule serving evacuates by) through `apply_move_with`, journaled
    /// under [`RESEED_STEP`]; the result is the starting best plan. Call
    /// before the first step. Returns the moved vertices, ascending.
    pub(crate) fn evacuate_dead_dcs(
        &mut self,
        env: &CloudEnv,
        dead: &[bool],
    ) -> Result<Vec<VertexId>, geopart::PlanError> {
        let mask = dead.iter().rev().fold(0u64, |mask, &d| mask << 1 | d as u64);
        let state = &mut self.state;
        let stranded: Vec<VertexId> =
            self.geo.graph.vertices().filter(|&v| mask >> state.master(v) & 1 == 1).collect();
        let mut to: Vec<DcId> = stranded.iter().map(|&v| state.master(v)).collect();
        let homes: Vec<DcId> = stranded.iter().map(|&v| self.geo.locations[v as usize]).collect();
        geopart::reseed_stranded_masters(&mut to, &homes, dead, self.geo.num_dcs)?;
        self.dead_dcs = mask;
        for (&v, &d) in stranded.iter().zip(&to) {
            state.apply_move_with(env, v, d, &mut self.arenas[0]);
        }
        self.generation += 1;
        if !stranded.is_empty() {
            self.best = (state.core().masters().to_vec(), state.objective(env));
            if let Some(journal) = self.journal.as_mut() {
                journal.push((RESEED_STEP, stranded.iter().copied().zip(to).collect()));
            }
        }
        Ok(stranded)
    }

    /// Raises the Eq 14 sample-rate floor (see
    /// [`SampleScheduler::set_min_rate`]): every step of this window
    /// samples at least `floor` of the agents, so a converged schedule
    /// cannot starve the region a delta or a re-seed touched.
    pub(crate) fn boost_sampling(&mut self, floor: f64) {
        self.scheduler.set_min_rate(floor.clamp(0.0, 1.0));
    }

    /// Executes one training step (Fig 5 phases 1–5) under `env` and
    /// returns its telemetry, or `None` if the run is over (converged,
    /// horizon reached, sampling budget exhausted). After an `Err` the
    /// session's placement is still a valid plan ([`Self::finish`] works),
    /// but the run can no longer be continued bit-identically.
    pub(crate) fn step(&mut self, env: &CloudEnv) -> Result<Option<StepStats>, PoolError> {
        if self.is_done() {
            return Ok(None);
        }
        let step = self.step_index;
        let Some(rate) = self.scheduler.next_rate() else {
            self.exhausted = true;
            return Ok(None);
        };
        let sampled = sample_prefix(&self.order, rate);
        if sampled.is_empty() {
            self.exhausted = true;
            return Ok(None);
        }
        let step_start = Instant::now();
        let step_obj = self.state.objective(env);
        if step_obj.transfer_time == 0.0 && step_obj.total_cost() <= self.config.budget {
            self.converged = true;
            return Ok(None);
        }
        self.agents.grow(sampled.len());
        let over_budget = step_obj.total_cost() > self.config.budget;
        let weights = Weights::at(step, self.config.max_steps, over_budget);
        let mut exec = Exec { env, config: &self.config, arenas: &mut self.arenas };

        // Phases 1–4 — score function & reinforcement signal (parallel),
        // probability update & UCB action selection. Proposals come out in
        // the sampled order. A predecessor that scored the same agents
        // against the same state, weights and environment hands its
        // verdicts over instead.
        let score_start = Instant::now();
        let dead = self.dead_dcs;
        let verdicts = match self.carry.take() {
            Some(c)
                if c.generation == self.generation
                    && c.agents == sampled.len()
                    && c.weights == weights
                    && c.env == *env =>
            {
                c.verdicts
            }
            _ => {
                let (state, geo, groups) = (&self.state, self.geo, &mut self.groups);
                score_phase(geo, state, sampled, &step_obj, weights, dead, groups, &mut exec)?
            }
        };
        let mut proposals: Vec<Proposal> = sampled
            .iter()
            .zip(&verdicts.rho)
            .zip(&verdicts.accept)
            .enumerate()
            .filter_map(|(i, ((&v, &best_dc), &accept))| {
                let selected = self.agents.learn_and_select(i, best_dc, &self.config);
                // UCB explores: a selection may name a dead DC even
                // though no score led there.
                (selected != self.state.master(v) && dead >> selected & 1 == 0).then(|| Proposal {
                    v,
                    to: selected,
                    accept: accept >> selected & 1 == 1,
                    lanes: if selected == best_dc { verdicts.lanes.index[i] } else { NO_LANES },
                })
            })
            .collect();
        let score_duration = score_start.elapsed();

        // Phase 5 — batched vertex migration with rollback (the paper
        // batches agents randomly, §V-A).
        proposals.shuffle(&mut self.rng);
        let migrate_start = Instant::now();
        let (applied, work) =
            migration_phase(&mut self.state, &proposals, &verdicts.lanes, weights, &mut exec);
        let migrate_duration = migrate_start.elapsed();
        let migrations = applied.len();
        if migrations > 0 {
            self.generation += 1;
        } else {
            let (generation, agents) = (self.generation, sampled.len());
            let env = env.clone();
            self.carry = Some(Carry { generation, agents, weights, env, verdicts });
        }
        if let Some(journal) = self.journal.as_mut().filter(|_| migrations > 0) {
            journal.push((step as u32, applied));
        }

        let duration = step_start.elapsed();
        self.scheduler.record(rate, duration.as_secs_f64());
        let obj = self.state.objective(env);
        if beats(&obj, &self.best.1, self.config.budget) {
            self.best = (self.state.core().masters().to_vec(), obj);
        }
        let stats = StepStats {
            duration,
            score_duration,
            migrate_duration,
            sample_rate: rate,
            num_agents: sampled.len(),
            migrations,
            proposals: proposals.len(),
            repriced: work.repriced,
            post_accept_evals: work.post_accept_evals,
            transfer_time: obj.transfer_time,
            total_cost: obj.total_cost(),
        };
        self.steps.push(stats);
        self.step_index += 1;
        // Convergence is only meaningful when (nearly) all agents took
        // part — a tiny early sample moving nothing says nothing about the
        // full solution space.
        if rate >= 0.999
            && (migrations as f64) < self.config.convergence_fraction * sampled.len() as f64
        {
            self.converged = true;
        }
        Ok(Some(stats))
    }

    /// Runs the loop to completion under a fixed environment.
    pub(crate) fn run(&mut self, env: &CloudEnv) -> Result<(), PoolError> {
        while self.step(env)?.is_some() {}
        Ok(())
    }

    /// Ends the run on the best plan seen: reconciles the live state to it
    /// by **applying the differing moves** — work proportional to the
    /// drift, not to the graph, journaled under [`RECONCILE_STEP`] when the
    /// journal is on — and
    /// hands the arenas and the journal back for the next
    /// window's session. (The state's loads and Eq 4 moved bytes are
    /// integers, so the reconciled state equals a rebuild from the best
    /// masters.)
    pub(crate) fn finish(mut self, env: &CloudEnv) -> (RlCutResult<'g>, SessionResources) {
        let total_duration = self.started.elapsed();
        let mut final_state = self.state;
        let best_masters = self.best.0;
        if final_state.core().masters() != best_masters.as_slice() {
            let diffs: Vec<(VertexId, DcId)> = final_state
                .core()
                .masters()
                .iter()
                .zip(&best_masters)
                .enumerate()
                .filter(|(_, (live, best))| live != best)
                .map(|(v, (_, &best))| (v as VertexId, best))
                .collect();
            for &(v, to) in &diffs {
                final_state.apply_move_with(env, v, to, &mut self.arenas[0]);
            }
            debug_assert_eq!(final_state.core().masters(), best_masters.as_slice());
            if let Some(journal) = self.journal.as_mut() {
                journal.push((RECONCILE_STEP, diffs));
            }
        }
        let resources = SessionResources { arenas: self.arenas, journal: self.journal };
        let result = RlCutResult {
            state: final_state,
            steps: self.steps,
            total_duration,
            converged: self.converged,
        };
        (result, resources)
    }
}

/// Whether `candidate` replaces `incumbent` as the best plan seen: a
/// feasible plan beats any infeasible one, then lower transfer time (or,
/// among infeasible plans, lower cost) wins.
fn beats(candidate: &Objective, incumbent: &Objective, budget: f64) -> bool {
    let cand_ok = candidate.total_cost() <= budget;
    let inc_ok = incumbent.total_cost() <= budget;
    match (cand_ok, inc_ok) {
        (true, false) => true,
        (false, true) => false,
        (true, true) => candidate.transfer_time < incumbent.transfer_time,
        (false, false) => candidate.total_cost() < incumbent.total_cost(),
    }
}

/// Minimum sampled-agent count before the score phase fans out; smaller
/// samples run sequentially on the caller thread.
///
/// Rationale: a fan-out has a fixed cost — spawning and joining
/// `threads − 1` scoped threads (≈ 45–55 µs at 2 threads on a 2-vCPU VM)
/// plus the LPT group build — that amortizes only once the sampled agents
/// carry enough `O(deg)` scoring work. An 8-DC agent scores in ≈ 2–3 µs,
/// so 64 agents are ≈ 150 µs of work, of which a second thread saves
/// about half: above the spawn cost. Tiny adaptive early-step samples
/// (1 % of agents) finish faster inline.
const PARALLEL_SCORE_MIN_AGENTS: usize = 64;

/// Scores every sampled agent: ρ_v (the score-optimal DC, Eq 10/11, never
/// one of the `dead` mask) and the accept mask of its destinations, both
/// aligned with `sampled`. An agent's sweep skips its master's slot and
/// the dead DCs, which [`best_destination`] never reads, and prices Eq 4/5
/// only when the weights read cost.
///
/// Sequential on the caller (arena 0) with one thread or below
/// [`PARALLEL_SCORE_MIN_AGENTS`]; otherwise worker `i` scores LPT group `i`
/// with arena `i`. Both produce bit-identical verdicts — a group's results
/// land on its own positions. The groups are those `cache` holds for a
/// sample of this length, built into it first if it holds none.
#[allow(clippy::too_many_arguments)]
fn score_phase(
    geo: &GeoGraph,
    state: &HybridState<'_>,
    sampled: &[VertexId],
    step_obj: &Objective,
    weights: Weights,
    dead: u64,
    cache: &mut PrefixGroups,
    exec: &mut Exec<'_>,
) -> Result<Verdicts, PoolError> {
    let env = exec.env;
    let live = (u64::MAX >> (64 - env.num_dcs())) & !dead;
    let priced = weights.cw > 0.0;
    // A group's agents in order, each scored by one batched kernel sweep
    // with its ρ exported; the per-worker scratch arena makes the hot loop
    // allocation-free.
    let score_group = |agents: &mut dyn ExactSizeIterator<Item = VertexId>,
                       scratch: &mut MoveScratch| {
        // Sized once: no regrowth leaves a freed copy behind in the heap.
        let (mut picks, mut lanes) =
            (Vec::with_capacity(agents.len()), Vec::with_capacity(agents.len()));
        let mut reach = [0u32; 2];
        for v in agents {
            let master = state.master(v);
            let dests = live & !(1u64 << master);
            let candidates = state.evaluate_moves(env, v, dests, priced, scratch);
            let (rho, accept) = best_destination(step_obj, candidates, master, weights, dead);
            let exported = (rho != master).then(|| state.export_lanes(rho, scratch)).flatten();
            let at = match exported {
                Some(entry) => {
                    let [i, t] = scratch.staged_reach();
                    reach = [reach[0].max(i), reach[1].max(t)];
                    lanes.push(entry);
                    lanes.len() as u32 - 1
                }
                None => NO_LANES,
            };
            picks.push((rho, accept, at));
        }
        (picks, lanes, reach)
    };

    let threads = exec.arenas.len();
    let n = sampled.len();
    let mut verdicts = Verdicts {
        rho: vec![0; n],
        accept: vec![0; n],
        lanes: LaneCache {
            index: vec![NO_LANES; n],
            runs: Vec::new(),
            starts: Vec::new(),
            reach: [0; 2],
        },
    };
    let mut merge = |positions: &mut dyn Iterator<Item = usize>,
                     (picks, mut run, reach): Scored| {
        run.shrink_to_fit();
        let cache = &mut verdicts.lanes;
        let start = cache.runs.iter().map(|r| r.len() as u32).sum();
        for (i, (rho, accept, at)) in positions.zip(picks) {
            (verdicts.rho[i], verdicts.accept[i]) = (rho, accept);
            cache.index[i] = if at == NO_LANES { NO_LANES } else { start + at };
        }
        cache.reach = [cache.reach[0].max(reach[0]), cache.reach[1].max(reach[1])];
        cache.starts.push(start);
        cache.runs.push(run);
    };
    if threads == 1 || n < PARALLEL_SCORE_MIN_AGENTS {
        let scored = score_group(&mut sampled.iter().copied(), &mut exec.arenas[0]);
        merge(&mut (0..n), scored);
        return Ok(verdicts);
    }

    if cache.as_ref().is_none_or(|(agents, _)| *agents != n) {
        let groups = if exec.config.disable_straggler_mitigation {
            straggler::round_robin_assignment(n, threads)
        } else {
            straggler::balanced_assignment(&geo.graph, sampled, threads)
        };
        *cache = Some((n, groups));
    }
    let groups = &cache.as_ref().expect("filled above").1;
    let by_group = fan_out(exec.arenas, &|worker, scratch| -> Scored {
        score_group(&mut groups[worker].iter().map(|&i| sampled[i]), scratch)
    })?;
    for (group, scored) in groups.iter().zip(by_group) {
        merge(&mut group.iter().copied(), scored);
    }
    Ok(verdicts)
}

/// Applies move proposals batch-by-batch (§V-A), on the caller thread: each
/// batch's members are evaluated against the frozen batch-start state and
/// accepted iff their Eq 10 score is positive; accepted moves apply before
/// the next batch. `batch_size = 1` is the strictly sequential Fig 7 flow
/// (the "frozen" state is simply the live state). Returns the applied
/// migrations in exact apply order (the journal's input) and the work
/// counts.
///
/// A proposal carries its score phase's accept test. Until the first move
/// applies, the batch-start state is the scored one and the weights are
/// the step's, so that verdict is the evaluation's result bit for bit, and
/// is taken instead. After it, a proposal whose lane deltas the score
/// phase exported is re-priced from them while
/// [`HybridState::can_reprice`] holds under the marks every applied move
/// left; any other proposal is evaluated in full.
fn migration_phase(
    st: &mut HybridState<'_>,
    proposals: &[Proposal],
    lanes: &LaneCache,
    weights: Weights,
    exec: &mut Exec<'_>,
) -> (Vec<(VertexId, DcId)>, MigrateWork) {
    let env = exec.env;
    let batch = exec.config.batch_size.max(1);
    let priced = weights.cw > 0.0;
    let scratch = &mut exec.arenas[0];
    let mut applied = Vec::new();
    let mut work = MigrateWork::default();
    let mut marks: Option<MoveMarks> = None;
    for chunk in proposals.chunks(batch) {
        let accepts: Vec<bool> = match &marks {
            None => chunk.iter().map(|p| p.accept).collect(),
            Some(marks) => {
                let obj = st.objective(env);
                let mut accept = |p: &Proposal| {
                    let cached =
                        lanes.get(p.lanes).filter(|&entry| st.can_reprice(p.v, p.to, entry, marks));
                    let candidate = match cached {
                        Some(entry) => {
                            work.repriced += 1;
                            let repriced = st.reprice(env, p.v, p.to, priced, entry, scratch);
                            debug_assert!({
                                let bits = |o: &Objective| {
                                    [o.transfer_time, o.movement_cost, o.runtime_cost]
                                        .map(f64::to_bits)
                                };
                                let full = st.evaluate_moves(env, p.v, 1 << p.to, priced, scratch);
                                bits(&repriced) == bits(&full[p.to as usize])
                            });
                            repriced
                        }
                        None => {
                            work.post_accept_evals += 1;
                            st.evaluate_moves(env, p.v, 1u64 << p.to, priced, scratch)
                                [p.to as usize]
                        }
                    };
                    score(&obj, &candidate, weights) > 0.0
                };
                chunk.iter().map(&mut accept).collect()
            }
        };
        for (p, ok) in chunk.iter().zip(accepts) {
            if ok {
                let n = st.core().num_vertices();
                let marks = marks.get_or_insert_with(|| MoveMarks::new(n, lanes.reach));
                st.apply_move_marked(env, p.v, p.to, scratch, marks);
                applied.push((p.v, p.to));
            }
        }
    }
    (applied, work)
}

#[cfg(test)]
mod tests {
    use super::*;
    use geograph::generators::{rmat, RmatConfig};
    use geograph::locality::LocalityConfig;
    use geosim::regions::ec2_eight_regions;
    use geosim::Heterogeneity;

    /// Capacity snapshot of the session's arenas, one per thread.
    /// Steady-state contract: after the first full-sample step the
    /// capacities stop changing — the hot loops allocate nothing.
    fn scratch_stats(session: &TrainerSession) -> Vec<geopart::ScratchStats> {
        session.arenas.iter().map(MoveScratch::stats).collect()
    }

    fn setup(seed: u64) -> (GeoGraph, CloudEnv) {
        let g = rmat(&RmatConfig::social(1024, 8192), seed);
        (GeoGraph::from_graph(g, &LocalityConfig::paper_default(seed)), ec2_eight_regions())
    }

    fn default_config(geo: &GeoGraph, env: &CloudEnv) -> RlCutConfig {
        let budget = geosim::cost::default_budget(env, &geo.locations, &geo.data_sizes, 0.4);
        RlCutConfig::new(budget).with_seed(1).with_threads(2)
    }

    #[test]
    fn improves_transfer_time_over_natural() {
        let (geo, env) = setup(1);
        let config = default_config(&geo, &env);
        let profile = TrafficProfile::uniform(geo.num_vertices(), 8.0);
        let natural = HybridState::natural(&geo, &env, 8, profile.clone(), 10.0).objective(&env);
        let result = partition(&geo, &env, profile, 10.0, &config);
        let trained = result.final_objective(&env);
        assert!(
            trained.transfer_time < natural.transfer_time * 0.9,
            "trained {} vs natural {}",
            trained.transfer_time,
            natural.transfer_time
        );
        assert!(result.total_migrations() > 0);
    }

    #[test]
    fn respects_budget() {
        let (geo, env) = setup(2);
        let config = default_config(&geo, &env);
        let profile = TrafficProfile::uniform(geo.num_vertices(), 8.0);
        let result = partition(&geo, &env, profile, 10.0, &config);
        assert!(
            result.final_objective(&env).total_cost() <= config.budget,
            "cost {} budget {}",
            result.final_objective(&env).total_cost(),
            config.budget
        );
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let (geo, env) = setup(3);
        let profile = TrafficProfile::uniform(geo.num_vertices(), 8.0);
        let c1 = default_config(&geo, &env).with_threads(1);
        let c4 = default_config(&geo, &env).with_threads(4);
        let r1 = partition(&geo, &env, profile.clone(), 10.0, &c1);
        let r4 = partition(&geo, &env, profile, 10.0, &c4);
        assert_eq!(r1.state.core().masters(), r4.state.core().masters());
    }

    #[test]
    fn migration_deterministic_across_thread_counts_1_2_4_8() {
        // Full sampling with the paper's batch size drives both pool
        // phases hard: every step proposes and batch-applies many moves,
        // so this is the migration-phase determinism contract (the
        // original test mostly exercises scoring).
        let (geo, env) = setup(12);
        let profile = TrafficProfile::uniform(geo.num_vertices(), 8.0);
        let run = |threads: usize| {
            let c = default_config(&geo, &env)
                .with_threads(threads)
                .with_fixed_sample_rate(1.0)
                .with_max_steps(4);
            partition(&geo, &env, profile.clone(), 10.0, &c)
        };
        let baseline = run(1);
        assert!(baseline.total_migrations() > 0, "nothing migrated; test is vacuous");
        for threads in [2usize, 4, 8] {
            let r = run(threads);
            assert_eq!(
                baseline.state.core().masters(),
                r.state.core().masters(),
                "thread count {threads} diverged"
            );
            assert_eq!(
                baseline.total_migrations(),
                r.total_migrations(),
                "applied-move count changed at {threads} threads"
            );
        }
    }

    #[test]
    fn step_counters_are_bit_stable_across_thread_counts() {
        // Proposals, re-priced verdicts and post-accept evaluations are
        // counted where the work is done, so they are exact: the same at 1
        // and 2 threads, step by step, under the default budget and under
        // one every plan exceeds (cw > 0 prices every verdict). Debug
        // builds also check each re-priced verdict against a full
        // evaluation as it is taken.
        let (geo, env) = setup(21);
        let profile = TrafficProfile::uniform(geo.num_vertices(), 8.0);
        let counters = |threads: usize, budget: Option<f64>| {
            let mut c = default_config(&geo, &env)
                .with_threads(threads)
                .with_fixed_sample_rate(1.0)
                .with_max_steps(6);
            if let Some(budget) = budget {
                c.budget = budget;
            }
            let r = partition(&geo, &env, profile.clone(), 10.0, &c);
            let rows = r.steps.iter().map(|s| (s.proposals, s.repriced, s.post_accept_evals));
            rows.zip(r.steps.iter().map(|s| s.migrations)).collect::<Vec<_>>()
        };
        for budget in [None, Some(0.0)] {
            let one = counters(1, budget);
            assert_eq!(one, counters(2, budget), "budget {budget:?}");
            let repriced: usize = one.iter().map(|((_, r, _), _)| r).sum();
            let evals: usize = one.iter().map(|((_, _, e), _)| e).sum();
            assert!(repriced > 0 && evals > 0, "budget {budget:?}: {repriced} / {evals}");
            for ((proposals, repriced, evals), migrations) in one {
                assert!(repriced + evals + migrations.min(1) <= proposals);
            }
        }
    }

    #[test]
    fn pool_arenas_stay_warm_across_steps() {
        // With full sampling the per-worker score groups are identical
        // every step (LPT over the same agents), so the arenas reach their
        // steady-state capacity during step 1 and must never regrow. Arena
        // 0 also migrates, but LPT hands it the heaviest agent first, so
        // no proposal stages a larger neighborhood than its group did.
        let (geo, env) = setup(14);
        let profile = TrafficProfile::uniform(geo.num_vertices(), 8.0);
        let config = default_config(&geo, &env)
            .with_threads(4)
            .with_fixed_sample_rate(1.0)
            .with_batch_size(1)
            .with_max_steps(5);
        let theta = geograph::degree::suggest_theta(&geo.graph, 0.05);
        let state =
            HybridState::from_masters(&geo, &env, geo.locations.clone(), theta, profile, 10.0);
        let mut session = TrainerSession::new(&geo, &env, state, config);
        assert!(session.step(&env).unwrap().is_some());
        let warm = scratch_stats(&session);
        assert_eq!(warm.len(), 4, "one arena per thread");
        assert!(warm.iter().all(|s| s.width == env.num_dcs()), "{warm:?}");
        assert!(warm.iter().all(|s| s.neighbor_capacity > 0), "{warm:?}");
        while session.step(&env).unwrap().is_some() {}
        let steady = scratch_stats(&session);
        assert_eq!(warm, steady, "arenas regrew after step 1");
    }

    /// A session on `threads` workers, seeded from `masters`, that adopts
    /// `resources` (two full-sample steps).
    fn carried_session<'a>(
        geo: &'a GeoGraph,
        env: &CloudEnv,
        masters: Vec<DcId>,
        threads: usize,
        resources: SessionResources,
    ) -> TrainerSession<'a> {
        let profile = TrafficProfile::uniform(geo.num_vertices(), 8.0);
        let theta = geograph::degree::suggest_theta(&geo.graph, 0.05);
        let state = HybridState::from_masters(geo, env, masters, theta, profile, 10.0);
        let config = default_config(geo, env)
            .with_threads(threads)
            .with_fixed_sample_rate(1.0)
            .with_max_steps(2);
        TrainerSession::with_resources(geo, env, state, config, resources)
    }

    #[test]
    fn resources_carry_the_pool_across_sessions() {
        // The dynamic-window contract: finish hands the warm per-worker
        // arenas to the next session, which adopts them as they are.
        let (geo, env) = setup(16);
        let mut s1 =
            carried_session(&geo, &env, geo.locations.clone(), 4, SessionResources::default());
        while s1.step(&env).unwrap().is_some() {}
        let warm = scratch_stats(&s1);
        assert_eq!(warm.len(), 4, "one arena per thread");
        assert!(warm.iter().all(|s| s.width == env.num_dcs()), "{warm:?}");
        assert!(warm.iter().all(|s| s.neighbor_capacity > 0), "{warm:?}");
        let (r1, resources) = s1.finish(&env);
        let s2 = carried_session(&geo, &env, r1.state.core().masters().to_vec(), 4, resources);
        assert_eq!(scratch_stats(&s2), warm, "same thread count: the arenas as they were");
    }

    #[test]
    fn mismatched_carried_pool_is_replaced() {
        // A carried arena set sized for another thread count is resized to
        // the new session's: kept in order when it shrinks, fresh arenas
        // appended when it grows.
        let (geo, env) = setup(17);
        let mut donor =
            carried_session(&geo, &env, geo.locations.clone(), 4, SessionResources::default());
        while donor.step(&env).unwrap().is_some() {}
        let warm = scratch_stats(&donor);
        assert!(warm.iter().all(|s| s.neighbor_capacity > 0), "{warm:?}");
        let (_, resources) = donor.finish(&env);
        let shrunk = carried_session(&geo, &env, geo.locations.clone(), 2, resources);
        assert_eq!(scratch_stats(&shrunk), warm[..2], "fewer threads: the first arenas kept");
        let (_, resources) = shrunk.finish(&env);
        let grown =
            scratch_stats(&carried_session(&geo, &env, geo.locations.clone(), 3, resources));
        assert_eq!(grown.len(), 3);
        assert_eq!(grown[..2], warm[..2]);
        assert_eq!(grown[2], MoveScratch::new().stats(), "a new thread starts a fresh arena");
    }

    #[test]
    fn best_before_last_partition_keeps_its_masters() {
        // The last step breaks the budget an earlier step kept, so the
        // session ends by moving the live state back to the best plan. The
        // masters are pinned to what the from-scratch rebuild this
        // reconcile replaced returned (FNV-1a, seed 1).
        let (geo, env) = setup(18);
        let profile = TrafficProfile::uniform(geo.num_vertices(), 8.0);
        let config = default_config(&geo, &env).with_max_steps(6);
        let result = partition(&geo, &env, profile, 10.0, &config);
        let feasible = |s: &StepStats| s.total_cost <= config.budget;
        let (last, earlier) = result.steps.split_last().expect("the run stepped");
        assert!(
            earlier
                .iter()
                .any(|s| feasible(s) && (!feasible(last) || s.transfer_time < last.transfer_time)),
            "the last step is the best one: nothing to reconcile"
        );
        let fnv = geodur::masters_fnv(result.state.core().masters());
        assert_eq!(fnv, BEST_BEFORE_LAST_MASTERS_FNV, "reconciled masters moved: {fnv:#018x}");
        result.state.check_consistency(&env);
    }

    const BEST_BEFORE_LAST_MASTERS_FNV: u64 = 0xd511_4150_2a2e_5704;

    /// A session over `setup(19)` at a fixed sample rate, theta as
    /// `partition` picks it.
    fn focus_session<'g>(geo: &'g GeoGraph, env: &CloudEnv, rate: f64) -> TrainerSession<'g> {
        let profile = TrafficProfile::uniform(geo.num_vertices(), 8.0);
        let theta = geograph::degree::suggest_theta(&geo.graph, 0.05);
        let state =
            HybridState::from_masters(geo, env, geo.locations.clone(), theta, profile, 10.0);
        let config = default_config(geo, env).with_fixed_sample_rate(rate).with_max_steps(2);
        TrainerSession::new(geo, env, state, config)
    }

    #[test]
    fn focus_on_fronts_touched_neighborhoods() {
        let (geo, env) = setup(19);
        let g = &geo.graph;
        let by_degree = |w: &[VertexId]| (g.degree(w[0]), w[0]) < (g.degree(w[1]), w[1]);
        let mut session = focus_session(&geo, &env, 1.0);
        let base = session.order.clone();
        let theta = geograph::degree::suggest_theta(g, 0.05);
        let is_high = |v: VertexId| g.in_degree(v) >= theta;
        // One hub and one ordinary vertex, as a preferential delta touches.
        let hub = g.vertices().max_by_key(|&v| g.in_degree(v)).unwrap();
        let low = g.vertices().find(|&v| !is_high(v) && (4..=8).contains(&g.degree(v))).unwrap();
        assert!(is_high(hub) && g.degree(hub) > 10 * g.degree(low), "{}", g.degree(hub));
        let mut hot: Vec<VertexId> = vec![hub, low];
        hot.extend_from_slice(g.out_neighbors(low));
        hot.extend_from_slice(g.in_neighbors(low));
        hot.sort_unstable();
        hot.dedup();
        let high: Vec<VertexId> =
            base.iter().copied().filter(|&v| is_high(v) && !hot.contains(&v)).collect();
        let ring_len = base.len() - hot.len() - high.len();

        // At rate 1.0 the half cap is far away: the hot segment is the
        // two endpoints and the low one's neighbors — the hub's own
        // neighborhood stays out — in degree order. Ids past the graph
        // are ignored.
        let window = 3;
        let hot_len = session.focus_window(&[hub, low, u32::MAX], window);
        assert_eq!(hot_len, hot.len());
        assert!(hot_len <= 2 + g.degree(low), "{hot_len} hot agents from one low endpoint");
        let order = session.order.clone();
        let mut front = order[..hot_len].to_vec();
        assert!(front.windows(2).all(by_degree), "hot segment lost its degree order");
        front.sort_unstable();
        assert_eq!(front, hot);
        // Then the ring — no high-degree vertex, degree order up to one
        // wrap, starting `window × first sample` along it — then the rest.
        let ring = &order[hot_len..hot_len + ring_len];
        assert!(ring.iter().all(|&v| !is_high(v)));
        assert_eq!(ring.windows(2).filter(|w| !by_degree(w)).count(), 1, "one wrap point");
        let start = (window as usize * base.len()) % ring_len;
        let unrotated: Vec<VertexId> =
            base.iter().copied().filter(|&v| !is_high(v) && !hot.contains(&v)).collect();
        assert_eq!(ring[0], unrotated[start]);
        assert_eq!(&order[hot_len + ring_len..], &high[..]);

        // A sample the hot set would fill: half of it goes to the
        // lowest-degree hot agents, the other half is the ring's.
        let mut small = focus_session(&geo, &env, 0.005);
        let sample = sample_prefix(&small.order, 0.005).len();
        assert!(sample >= 2 && sample.div_ceil(2) < hot.len(), "{sample} vs {}", hot.len());
        assert_eq!(small.focus_window(&[hub, low], window), sample.div_ceil(2));
        let fronted = &small.order[..sample.div_ceil(2)];
        assert!(fronted.iter().all(|v| hot.contains(v)) && fronted.windows(2).all(by_degree));
        assert!(small.order[sample.div_ceil(2)..sample].iter().all(|v| !hot.contains(v)));

        // No delta, index 0: nothing fronted, nothing rotated.
        let mut quiet = focus_session(&geo, &env, 1.0);
        assert_eq!(quiet.focus_window(&[], 0), 0);
        let (low_first, high_last): (Vec<VertexId>, Vec<VertexId>) =
            base.iter().partition(|&&v| !is_high(v));
        assert_eq!(quiet.order, [low_first, high_last].concat());
    }

    #[test]
    fn ring_covers_every_low_degree_agent_in_one_over_rate_windows() {
        // A pipeline nothing touches still trains everything that is worth
        // training: at rate r, ceil(1 / r) consecutive windows' first-step
        // samples cover every trainable vertex below theta.
        let (geo, env) = setup(20);
        let rate = 0.07;
        let windows = (1.0f64 / rate).ceil() as u64;
        let theta = geograph::degree::suggest_theta(&geo.graph, 0.05);
        let mut low = focus_session(&geo, &env, rate).order;
        low.retain(|&v| geo.graph.in_degree(v) < theta);
        let mut seen = vec![false; geo.num_vertices()];
        for window in 1..=windows {
            let mut session = focus_session(&geo, &env, rate);
            session.focus_window(&[], window);
            for &v in sample_prefix(&session.order, rate) {
                seen[v as usize] = true;
            }
        }
        let missed = low.iter().filter(|&&v| !seen[v as usize]).count();
        assert_eq!(missed, 0, "{missed} of {} low-degree agents never sampled", low.len());
    }

    #[test]
    fn clean_verdicts_equal_full_evaluation() {
        // Every accept bit the score phase hands the migration phase is the
        // test migration runs on the scored state: a priced one-destination
        // evaluation scored against the batch-start objective. Under budget
        // (cost unread, the sweep unpriced) and over it (cost read), with
        // a dead DC, at one and two threads.
        let (geo, env) = setup(21);
        let profile = TrafficProfile::uniform(geo.num_vertices(), 8.0);
        let theta = geograph::degree::suggest_theta(&geo.graph, 0.05);
        let masters = geo.locations.iter().enumerate();
        let masters = masters.map(|(v, &l)| if v % 3 == 0 { (l + 1) % 7 } else { l % 7 }).collect();
        let state = HybridState::from_masters(&geo, &env, masters, theta, profile, 10.0);
        let sampled = sample_prefix(&degree_ascending_order(&geo.graph), 0.5).to_vec();
        let step_obj = state.objective(&env);
        let dead = 1u64 << 7;
        let mut scratch = MoveScratch::new();
        let (mut accepted, mut rejected) = (0, 0);
        for threads in [1usize, 2] {
            let config = default_config(&geo, &env).with_threads(threads);
            let mut arenas = vec![MoveScratch::new(); threads];
            for weights in [Weights::at(3, 10, false), Weights::at(3, 10, true)] {
                let mut exec = Exec { env: &env, config: &config, arenas: &mut arenas };
                let verdicts = score_phase(
                    &geo, &state, &sampled, &step_obj, weights, dead, &mut None, &mut exec,
                )
                .unwrap();
                for (i, &v) in sampled.iter().enumerate() {
                    let master = state.master(v);
                    for d in (0..7).filter(|&d| d != master) {
                        let full =
                            state.evaluate_moves(&env, v, 1 << d, true, &mut scratch)[d as usize];
                        let accept = score(&step_obj, &full, weights) > 0.0;
                        assert_eq!(verdicts.accept[i] >> d & 1 == 1, accept, "v={v} d={d}");
                        (accepted, rejected) =
                            (accepted + accept as u32, rejected + !accept as u32);
                    }
                    assert_eq!(verdicts.accept[i] & (dead | 1 << master), 0, "v={v}");
                }
            }
        }
        assert!(accepted > 0 && rejected > 0, "{accepted} accepts, {rejected} rejects");
    }

    /// Steps `session` to its end, dropping the carried verdicts before
    /// every step unless `carry`; after `evacuate_after` steps, `dead` is
    /// evacuated. Returns each step's masters (FNV-1a) and migrations,
    /// and how many steps found verdicts carried to them.
    fn trajectory(
        mut session: TrainerSession<'_>,
        env: &CloudEnv,
        carry: bool,
        evacuate_after: usize,
        dead: &[bool],
    ) -> (Vec<(u64, usize)>, usize) {
        let (mut steps, mut carried) = (Vec::new(), 0);
        loop {
            if steps.len() == evacuate_after {
                let generation = session.generation;
                assert!(!session.evacuate_dead_dcs(env, dead).unwrap().is_empty());
                assert!(session.generation > generation, "an evacuation is a mutation");
                let stale =
                    session.carry.as_ref().is_some_and(|c| c.generation != session.generation);
                assert!(!carry || stale, "a carry from before the evacuation must not hold");
            }
            if !carry {
                session.carry = None;
            }
            carried +=
                session.carry.as_ref().is_some_and(|c| c.generation == session.generation) as usize;
            let Some(stats) = session.step(env).unwrap() else { break };
            let masters = geodur::masters_fnv(session.state.core().masters());
            steps.push((masters, stats.migrations));
        }
        (steps, carried)
    }

    #[test]
    fn no_move_carry_equals_rescoring() {
        // dynamic_churn's window-0 shape: a fixed quarter of the lowest-
        // degree agents, which stops accepting moves after a few steps.
        // Carrying a no-move step's verdicts to the next step trains the
        // trajectory re-scoring trains, step for step; an evacuation
        // between steps drops the carry, and the runs still agree.
        let (geo, env) = setup(22);
        let session = || {
            let profile = TrafficProfile::uniform(geo.num_vertices(), 8.0);
            let theta = geograph::degree::suggest_theta(&geo.graph, 0.05);
            let masters = geo.locations.clone();
            let state = HybridState::from_masters(&geo, &env, masters, theta, profile, 10.0);
            let config = default_config(&geo, &env).with_fixed_sample_rate(0.25).with_max_steps(12);
            TrainerSession::new(&geo, &env, state, config)
        };
        let mut dead = vec![false; env.num_dcs()];
        let (reused, carried) = trajectory(session(), &env, true, usize::MAX, &dead);
        let (rescored, _) = trajectory(session(), &env, false, usize::MAX, &dead);
        assert!(carried > 0, "no step found its predecessor's verdicts: test is vacuous");
        assert!(reused.iter().any(|s| s.1 > 0), "nothing migrated: test is vacuous");
        assert_eq!(reused, rescored);

        // Evacuate right after the first step that carried verdicts on.
        let first = reused.iter().position(|s| s.1 == 0).unwrap() + 1;
        dead[6] = true;
        let (reused, _) = trajectory(session(), &env, true, first, &dead);
        let (rescored, _) = trajectory(session(), &env, false, first, &dead);
        assert_eq!(reused, rescored);
    }

    #[test]
    fn lpt_groups_are_built_once_per_prefix() {
        let (geo, env) = setup(23);
        let profile = TrafficProfile::uniform(geo.num_vertices(), 8.0);
        let theta = geograph::degree::suggest_theta(&geo.graph, 0.05);
        let state =
            HybridState::from_masters(&geo, &env, geo.locations.clone(), theta, profile, 10.0);
        let config = default_config(&geo, &env).with_fixed_sample_rate(0.5).with_max_steps(4);
        let mut session = TrainerSession::new(&geo, &env, state, config);
        session.step(&env).unwrap().expect("the first step runs");
        let sample = sample_prefix(&session.order, 0.5).len();
        let built = session.groups.as_ref().map(|(n, g)| (*n, g[0].as_ptr()));
        assert_eq!(built.map(|b| b.0), Some(sample));
        let fresh = straggler::balanced_assignment(&geo.graph, &session.order[..sample], 2);
        assert_eq!(session.groups.as_ref().unwrap().1, fresh);
        while session.step(&env).unwrap().is_some() {}
        assert_eq!(session.groups.as_ref().map(|(n, g)| (*n, g[0].as_ptr())), built);
    }

    #[test]
    fn incremental_state_stays_consistent() {
        let (geo, env) = setup(4);
        let config = default_config(&geo, &env);
        let profile = TrafficProfile::uniform(geo.num_vertices(), 8.0);
        let result = partition(&geo, &env, profile, 10.0, &config);
        result.state.check_consistency(&env);
    }

    #[test]
    fn fixed_sample_rate_trains_prefix_only() {
        let (geo, env) = setup(5);
        let config = default_config(&geo, &env).with_fixed_sample_rate(0.1);
        let profile = TrafficProfile::uniform(geo.num_vertices(), 8.0);
        let result = partition(&geo, &env, profile, 10.0, &config);
        let trainable =
            (0..geo.num_vertices() as VertexId).filter(|&v| geo.graph.degree(v) > 0).count();
        for s in &result.steps {
            assert_eq!(s.num_agents, (trainable as f64 * 0.1).ceil() as usize);
        }
    }

    #[test]
    fn agent_pool_holds_the_sampled_prefix_not_the_graph() {
        let (geo, env) = setup(5);
        let mut session = focus_session(&geo, &env, 0.05);
        assert_eq!(session.agents.num_agents(), 0, "no agent before the first step");
        session.step(&env).unwrap().expect("the first step runs");
        let sampled = sample_prefix(&session.order, 0.05).len();
        assert_eq!(session.agents.num_agents(), sampled);
        assert!(sampled * 10 < geo.num_vertices(), "{sampled} agents for a 5 % sample");
    }

    #[test]
    fn more_agents_more_overhead() {
        // The Fig 8 mechanism: overhead grows with participating agents.
        let (geo, env) = setup(6);
        let profile = TrafficProfile::uniform(geo.num_vertices(), 8.0);
        let small = partition(
            &geo,
            &env,
            profile.clone(),
            10.0,
            &default_config(&geo, &env).with_fixed_sample_rate(0.05).with_threads(1),
        );
        let large = partition(
            &geo,
            &env,
            profile,
            10.0,
            &default_config(&geo, &env).with_fixed_sample_rate(1.0).with_threads(1),
        );
        let t_small: f64 = small.steps.iter().map(|s| s.duration.as_secs_f64()).sum();
        let t_large: f64 = large.steps.iter().map(|s| s.duration.as_secs_f64()).sum();
        let per_step_small = t_small / small.steps.len() as f64;
        let per_step_large = t_large / large.steps.len() as f64;
        assert!(
            per_step_large > 2.0 * per_step_small,
            "full sampling {per_step_large}s/step vs 5% {per_step_small}s/step"
        );
    }

    #[test]
    fn beats_natural_under_high_heterogeneity() {
        // The Fig 3 setting: more heterogeneity, more to win.
        let (geo, _) = setup(7);
        let env = Heterogeneity::High.ec2_environment();
        let config = {
            let budget = geosim::cost::default_budget(&env, &geo.locations, &geo.data_sizes, 0.4);
            RlCutConfig::new(budget).with_seed(7).with_threads(2)
        };
        let profile = TrafficProfile::uniform(geo.num_vertices(), 8.0);
        let natural = HybridState::natural(&geo, &env, 8, profile.clone(), 10.0).objective(&env);
        let result = partition(&geo, &env, profile, 10.0, &config);
        assert!(result.final_objective(&env).transfer_time < natural.transfer_time);
    }

    #[test]
    fn transfer_time_monotone_under_pure_performance_weights() {
        // While under budget every accepted move strictly improved the
        // frozen-state score; with batch_size 1 that means monotone
        // per-step transfer time.
        let (geo, env) = setup(8);
        let config = default_config(&geo, &env).with_batch_size(1).with_threads(1);
        let profile = TrafficProfile::uniform(geo.num_vertices(), 8.0);
        let result = partition(&geo, &env, profile, 10.0, &config);
        for w in result.steps.windows(2) {
            assert!(
                w[1].transfer_time <= w[0].transfer_time * (1.0 + 1e-9),
                "step regressed: {} -> {}",
                w[0].transfer_time,
                w[1].transfer_time
            );
        }
    }

    #[test]
    fn t_opt_bounds_overhead() {
        let (geo, env) = setup(9);
        let t_opt = std::time::Duration::from_millis(200);
        let config = default_config(&geo, &env).with_t_opt(t_opt);
        let profile = TrafficProfile::uniform(geo.num_vertices(), 8.0);
        let result = partition(&geo, &env, profile, 10.0, &config);
        // The schedule may overshoot by at most ~one step's duration.
        let total: f64 = result.steps.iter().map(|s| s.duration.as_secs_f64()).sum();
        assert!(total < 3.0 * t_opt.as_secs_f64(), "overhead {total}s vs T_opt 0.2s");
    }

    #[test]
    fn penalty_mode_runs_and_converges_slower_or_equal() {
        let (geo, env) = setup(10);
        let mut config = default_config(&geo, &env);
        config.use_penalty = true;
        let profile = TrafficProfile::uniform(geo.num_vertices(), 8.0);
        let with_penalty = partition(&geo, &env, profile.clone(), 10.0, &config);
        config.use_penalty = false;
        let without = partition(&geo, &env, profile, 10.0, &config);
        // Same 10-step horizon: no-penalty must do at least as well (Fig 6).
        assert!(
            without.final_objective(&env).transfer_time
                <= with_penalty.final_objective(&env).transfer_time * 1.05
        );
    }
}
