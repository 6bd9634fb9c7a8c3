//! Adaptive re-partitioning for dynamic graphs (§V-C, Exp#5).
//!
//! The paper's dynamic model: a base graph plus windows of inserted
//! vertices/edges; each window must be re-partitioned within the required
//! optimization overhead `T_opt` (60 s in Exp#5). [`AdaptiveRlCut`] keeps
//! the trained master vector across windows: new vertices start at their
//! natural location and the sampler decides how many agents the time
//! budget affords — *this* is what makes RLCut adaptive where Spinner is
//! best-effort (it converges regardless of `T_opt`, overshooting it under
//! fast updates and wasting effort under slow ones, Fig 15b).
//!
//! Which agents those are changes with the window. Window 0 is a cold
//! partition. Every later window's sample goes first to what its delta
//! made hot, capped at half, and then to this window's slice of a ring
//! over every other low-degree agent, which the window index rotates
//! (`crate::sampling::window_order`) — so a long-running pipeline keeps
//! approaching what a cold partition would reach instead of re-training
//! one lowest-degree prefix. The automata themselves are fresh each
//! window: carried LA vectors would be state recovery must reproduce.

use std::time::{Duration, Instant};

use geograph::{DcId, GeoGraph, GraphDelta};
use geopart::{DeltaApplyStats, HybridState, PlacementState, PlanError, TrafficProfile};
use geosim::CloudEnv;

use crate::config::RlCutConfig;
use crate::pool::PoolError;
use crate::trainer::{SessionResources, TrainerSession};

/// Why a window could not be partitioned.
#[derive(Debug)]
pub enum WindowError {
    /// The snapshot has fewer vertices than the carried master vector —
    /// the dynamic model only grows across windows (deletions arrive as
    /// edge events inside a delta, never as vertex removal).
    ShrunkGraph {
        /// Masters carried from the previous window.
        carried: usize,
        /// Vertices in the offending snapshot.
        snapshot: usize,
    },
    /// The placement layer rejected the window (e.g. a delta that does
    /// not line up with the carried state).
    Plan(PlanError),
    /// Training failed (a panicking scoring worker).
    Train(PoolError),
}

impl std::fmt::Display for WindowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WindowError::ShrunkGraph { carried, snapshot } => write!(
                f,
                "graphs only grow across windows: carried {carried} masters, \
                 snapshot has {snapshot} vertices"
            ),
            WindowError::Plan(e) => write!(f, "window rejected by the placement layer: {e}"),
            WindowError::Train(e) => write!(f, "window training failed: {e}"),
        }
    }
}

impl std::error::Error for WindowError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WindowError::Plan(e) => Some(e),
            WindowError::Train(e) => Some(e),
            WindowError::ShrunkGraph { .. } => None,
        }
    }
}

impl From<PlanError> for WindowError {
    fn from(e: PlanError) -> Self {
        WindowError::Plan(e)
    }
}

impl From<PoolError> for WindowError {
    fn from(e: PoolError) -> Self {
        WindowError::Train(e)
    }
}

/// Telemetry of one (re-)partitioning window.
#[derive(Clone, Copy, Debug)]
pub struct WindowReport {
    /// Wall-clock partitioning overhead of the window (state preparation
    /// plus training).
    pub overhead: Duration,
    /// State-preparation share of `overhead`: applying the graph delta to
    /// the carried placement state on the incremental path, or the
    /// from-scratch `from_masters` rebuild on the rebuild path.
    pub delta_apply: Duration,
    /// Training share of `overhead` (the Fig 5 loop).
    pub train: Duration,
    /// Transfer time (Eq 1) of the plan after the window.
    pub transfer_time: f64,
    /// Total cost of the plan after the window.
    pub total_cost: f64,
    /// Accepted migrations during the window.
    pub migrations: usize,
    /// Agents the window's sampling order fronted as hot — the
    /// degree-capped neighborhood of what the delta and a dead DC's
    /// re-seed touched (0 for window 0).
    pub hot_agents: usize,
    /// Work counters of the incremental delta apply (`None` when the
    /// window rebuilt from scratch). The zero-rebuild probe: `work_items()`
    /// scales with the delta, not the graph.
    pub delta_stats: Option<DeltaApplyStats>,
}

/// RLCut across a stream of graph-growth windows.
///
/// Two per-window paths:
///
/// * **Incremental** ([`Self::on_window_delta`] with carried state) — the
///   previous window's [`PlacementState`] absorbs the [`GraphDelta`] in
///   work proportional to the touched vertices
///   ([`HybridState::resume_from_parts`]), the trainer session adopts the
///   previous window's warm scoring arenas (`SessionResources`),
///   the delta's degree-capped neighborhood is fronted in the sampling
///   order (`TrainerSession::focus_window`), and the Eq 14 rate floor
///   is raised so a converged schedule cannot starve it. No full-graph
///   state rebuild happens anywhere in the window.
/// * **Rebuild** ([`Self::on_window`]) — `from_masters` over the whole
///   snapshot: the first window, and any window whose change did not
///   arrive as a delta.
///
/// A DC fault is no path of its own but carried state, applied by either
/// path as logged re-seed moves ([`Self::note_fault`]).
#[derive(Debug)]
pub struct AdaptiveRlCut {
    config: RlCutConfig,
    /// Recompute the budget each window as this fraction of the current
    /// graph's centralization cost (`None` keeps `config.budget` fixed).
    budget_fraction: Option<f64>,
    /// Dead-DC flags noted since the last window, already checked; the
    /// next window to complete makes them the carried mask.
    pub(crate) noted_fault: Option<Vec<bool>>,
    /// The carried dead-DC mask (`None` while every DC is live): held
    /// across windows until an all-clear is noted.
    pub(crate) dead: Option<Vec<bool>>,
    /// The previous window's placement state and theta, carried so the
    /// next delta resumes it instead of rebuilding (`None` before the
    /// first window and while a rebuild is in flight).
    carried: Option<(PlacementState, usize)>,
    /// The previous window's scoring arenas (and journal), carried so a
    /// window's first step does not grow them again.
    resources: Option<SessionResources>,
    /// Ask each window's session to journal its applied moves (the
    /// durable driver's WAL feed).
    journal_moves: bool,
    /// Index of the next window: how many have completed, counted from
    /// [`Self::new`] or from the index [`Self::with_carried`] was handed.
    /// The sampling ring's cursor is a function of it, so it is the one
    /// piece of trainer state a recovered pipeline must agree on — and the
    /// durable driver already knows it.
    window: u64,
}

impl AdaptiveRlCut {
    /// Creates the adapter. `budget_fraction = Some(0.4)` reproduces the
    /// paper's default budget policy as the graph grows.
    pub fn new(config: RlCutConfig, budget_fraction: Option<f64>) -> Self {
        AdaptiveRlCut {
            config,
            budget_fraction,
            noted_fault: None,
            dead: None,
            carried: None,
            resources: None,
            journal_moves: false,
            window: 0,
        }
    }

    /// [`Self::new`] resuming from recovered state: `carried` is the
    /// placement + theta of the last committed window (e.g. out of a
    /// durable-store replay), adopted bit-for-bit, and `next_window` is how
    /// many windows committed before it — the next delta window takes the
    /// incremental path and samples the ring slice exactly as if this
    /// process had trained every previous window itself.
    pub(crate) fn with_carried(
        config: RlCutConfig,
        budget_fraction: Option<f64>,
        carried: (PlacementState, usize),
        next_window: u64,
    ) -> Self {
        let mut adaptive = Self::new(config, budget_fraction);
        adaptive.carried = Some(carried);
        adaptive.window = next_window;
        adaptive
    }

    /// Journals every applied migration of each window's session, handed
    /// back through [`Self::take_window_journal`]. The durable driver's
    /// WAL feed.
    pub fn with_move_journal(mut self) -> Self {
        self.journal_moves = true;
        self
    }

    /// Takes the applied-move journal of the last window: `(step, moves)`
    /// entries in exact apply order — a dead DC's re-seed first (under
    /// `crate::trainer::RESEED_STEP`), the reconcile sweep last (under
    /// `crate::trainer::RECONCILE_STEP`). Empty when journaling is off
    /// or no window ran since the last take.
    pub fn take_window_journal(&mut self) -> Vec<(u32, Vec<(geograph::VertexId, DcId)>)> {
        self.resources.as_mut().and_then(|r| r.journal.take()).unwrap_or_default()
    }

    /// The carried placement + theta of the last window (`None` before
    /// the first window completes).
    pub fn carried_parts(&self) -> Option<&(PlacementState, usize)> {
        self.carried.as_ref()
    }

    /// The current master assignment (empty before the first window).
    pub fn masters(&self) -> &[DcId] {
        self.carried.as_ref().map_or(&[], |(core, _)| core.masters())
    }

    /// The carried dead-DC mask (`None` while every DC is live).
    pub fn dead_dcs(&self) -> Option<&[bool]> {
        self.dead.as_deref()
    }

    /// Validates the carried placement state against the snapshot it is
    /// supposed to describe: every aggregate (loads, mirror maps, degree
    /// tables, movement cost) is recomputed from scratch and compared. The
    /// incremental ≡ rebuild gate the tests run per window — `Ok(true)`
    /// means a full rebuild of the carried state would equal it (counts,
    /// load units and moved bytes exactly, the priced cost to the bit);
    /// `Ok(false)` means nothing is carried yet.
    pub fn validate_carried(&self, geo: &GeoGraph, env: &CloudEnv) -> Result<bool, PlanError> {
        match &self.carried {
            None => Ok(false),
            Some((core, theta)) => {
                let view = HybridState::from_parts(core.clone(), *theta, geo);
                view.validate_plan(env)?;
                Ok(true)
            }
        }
    }

    /// Notes the dead-DC flags of a WAN fault observed between windows.
    /// From the next window on it is a dynamicity spike (§V-C): before a
    /// window trains, every master on a dead DC — a new vertex homed there
    /// too — moves to a live one (`TrainerSession::evacuate_dead_dcs`),
    /// the moved vertices are its hot set, and no move names a dead DC,
    /// until a report with none set (the all-clear) lifts the flags. A
    /// report that is not one flag per DC of the carried plan (any, before
    /// the first window) or has every DC dead is refused, changing nothing.
    pub fn note_fault(&mut self, dead: &[bool]) -> Result<(), PlanError> {
        let num_dcs = self.carried.as_ref().map_or(0, |(core, _)| core.num_dcs());
        geopart::check_fault_report(dead, num_dcs)?;
        self.noted_fault = Some(dead.to_vec());
        Ok(())
    }

    /// Partitions the current snapshot within `t_opt`, seeding from the
    /// previous window's masters (new vertices start at their natural
    /// DC). Call with the initial graph first, then once per window.
    ///
    /// This is the rebuild path: the placement state is reconstructed from
    /// the masters over the whole snapshot. When the window's change
    /// arrives as a [`GraphDelta`], use [`Self::on_window_delta`] instead.
    pub fn on_window(
        &mut self,
        geo: &GeoGraph,
        env: &CloudEnv,
        profile: TrafficProfile,
        num_iterations: f64,
        t_opt: Duration,
    ) -> Result<WindowReport, WindowError> {
        self.window_inner(geo, env, None, profile, num_iterations, t_opt)
    }

    /// [`Self::on_window`] consuming the window's [`GraphDelta`]: resumes
    /// the carried placement state incrementally (work proportional to the
    /// delta), fronts what the delta made hot in the sampling order, and
    /// reuses the carried scoring arenas. Falls back to the rebuild path on
    /// the first window. A delta or profile that does not fit is
    /// [`PlanError::DeltaMismatch`], leaving the carried state in place.
    pub fn on_window_delta(
        &mut self,
        geo: &GeoGraph,
        env: &CloudEnv,
        delta: &GraphDelta,
        profile: TrafficProfile,
        num_iterations: f64,
        t_opt: Duration,
    ) -> Result<WindowReport, WindowError> {
        self.window_inner(geo, env, Some(delta), profile, num_iterations, t_opt)
    }

    fn window_inner(
        &mut self,
        geo: &GeoGraph,
        env: &CloudEnv,
        delta: Option<&GraphDelta>,
        profile: TrafficProfile,
        num_iterations: f64,
        t_opt: Duration,
    ) -> Result<WindowReport, WindowError> {
        if geo.num_vertices() < self.masters().len() {
            return Err(WindowError::ShrunkGraph {
                carried: self.masters().len(),
                snapshot: geo.num_vertices(),
            });
        }
        // A delta resumes the carried state, checked before it is consumed.
        if let (Some(delta), Some((core, _))) = (delta, &self.carried) {
            HybridState::check_resume(core, geo, delta, &profile)?;
        }
        let delta = delta.filter(|_| self.carried.is_some());
        let mut config = self.config.clone().with_t_opt(t_opt);
        if let Some(fraction) = self.budget_fraction {
            config.budget =
                geosim::cost::default_budget(env, &geo.locations, &geo.data_sizes, fraction);
        }

        let prep_start = Instant::now();
        let (state, delta_stats) = if let Some(delta) = delta {
            let (core, theta) = self.carried.take().expect("checked with the delta");
            let (state, stats) =
                HybridState::resume_from_parts(core, theta, geo, env, delta, &profile)?;
            // The state's meta records now hold the only copy it needs.
            drop(profile);
            (state, Some(stats))
        } else {
            // Rebuild path: from-scratch state over the whole snapshot,
            // seeded from the carried masters, which stay carried until the
            // profile has proven to be loads.
            let mut masters = self.masters().to_vec();
            masters.extend_from_slice(&geo.locations[masters.len()..]);
            let theta =
                config.theta.unwrap_or_else(|| geograph::degree::suggest_theta(&geo.graph, 0.05));
            let state =
                HybridState::try_from_masters(geo, env, masters, theta, profile, num_iterations)?;
            self.carried = None;
            (state, None)
        };
        let delta_apply = prep_start.elapsed();

        let resources = self.resources.take().unwrap_or_default();
        let mut session = TrainerSession::with_resources(geo, env, state, config, resources);
        if self.journal_moves {
            session.enable_move_journal();
        }
        // The flags noted since the last window replace the carried mask.
        let dead = self.noted_fault.as_ref().or(self.dead.as_ref()).filter(|d| d.contains(&true));
        let reseeded = dead.map_or(Ok(Vec::new()), |dead| session.evacuate_dead_dcs(env, dead))?;
        // What the delta or the re-seed touched is where quality degraded:
        // floor the Eq 14 rate so even a converged schedule revisits it.
        let mut touched = [delta.map_or(&[][..], GraphDelta::touched), &reseeded].concat();
        touched.sort_unstable();
        touched.dedup();
        let floor = (8.0 * touched.len() as f64 / session.num_trainable().max(1) as f64).min(1.0);
        session.boost_sampling(floor);
        // Window 0 is a cold partition and samples as `rlcut::partition`
        // does. Every later one fronts the touched hot set and spends the
        // rest of its sample on this window's slice of the ring.
        let hot_agents =
            if self.window > 0 { session.focus_window(&touched, self.window) } else { 0 };
        session.run(env)?;
        let (result, resources) = session.finish(env);
        self.resources = Some(resources);
        // Session wall-clock covers the training loop and the final
        // reconcile to the best plan.
        let train = result.total_duration;

        let objective = result.final_objective(env);
        let migrations = result.total_migrations();
        self.carried = Some(result.state.into_parts());
        if let Some(noted) = self.noted_fault.take() {
            self.dead = noted.contains(&true).then_some(noted);
        }
        self.window += 1;
        Ok(WindowReport {
            overhead: delta_apply + train,
            delta_apply,
            train,
            transfer_time: objective.transfer_time,
            total_cost: objective.total_cost(),
            migrations,
            hot_agents,
            delta_stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geograph::dynamic::{apply_events, split_for_dynamic};
    use geograph::generators::preferential::preferential_attachment_edges;
    use geograph::locality::{assign_locations, LocalityConfig};
    use geograph::{GeoGraph, GraphBuilder};
    use geopart::reseed_stranded_masters;
    use geosim::regions::ec2_eight_regions;

    /// Builds the Exp#5-style workload: 70 % of edges as the base graph,
    /// the rest arriving in one window.
    fn dynamic_workload() -> (GeoGraph, GeoGraph, Vec<geograph::VertexId>) {
        let n = 1000;
        let edges = preferential_attachment_edges(n, 4, 17);
        let (initial, stream) = split_for_dynamic(&edges, n, 0.7, 60_000);
        let full = {
            let mut b = GraphBuilder::new(n);
            b.add_edges(initial.edges());
            let applied = apply_events(&mut b, stream.events());
            (b.build(), applied.new_vertices)
        };
        let cfg = LocalityConfig::paper_default(17);
        let locations = assign_locations(&full.0, &cfg);
        let sizes: Vec<u64> = (0..n).map(|_| 2048).collect();
        let geo_initial = GeoGraph::new(initial, locations.clone(), sizes.clone(), cfg.num_dcs);
        let geo_full = GeoGraph::new(full.0, locations, sizes, cfg.num_dcs);
        (geo_initial, geo_full, full.1)
    }

    #[test]
    fn windows_carry_state_forward() {
        let (geo_initial, geo_full, _) = dynamic_workload();
        let env = ec2_eight_regions();
        let config = RlCutConfig::new(1.0).with_seed(3).with_threads(2);
        let mut adaptive = AdaptiveRlCut::new(config, Some(0.4));
        let t_opt = Duration::from_millis(500);

        let p0 = TrafficProfile::uniform(geo_initial.num_vertices(), 8.0);
        let w0 = adaptive.on_window(&geo_initial, &env, p0, 10.0, t_opt).expect("window 0");
        assert_eq!(adaptive.masters().len(), geo_initial.num_vertices());

        let p1 = TrafficProfile::uniform(geo_full.num_vertices(), 8.0);
        let w1 = adaptive.on_window(&geo_full, &env, p1, 10.0, t_opt).expect("window 1");
        assert_eq!(adaptive.masters().len(), geo_full.num_vertices());
        assert!(w0.overhead.as_nanos() > 0);
        assert!(w1.transfer_time > 0.0);
        // The rebuild path reports its from_masters build as state prep
        // and no delta stats.
        assert!(w1.delta_stats.is_none());
        assert!(w1.overhead >= w1.train);
    }

    #[test]
    fn window_overhead_respects_t_opt_roughly() {
        let (geo_initial, _, _) = dynamic_workload();
        let env = ec2_eight_regions();
        let config = RlCutConfig::new(1.0).with_seed(4).with_threads(2);
        let mut adaptive = AdaptiveRlCut::new(config, Some(0.4));
        let t_opt = Duration::from_millis(100);
        let p = TrafficProfile::uniform(geo_initial.num_vertices(), 8.0);
        let report = adaptive.on_window(&geo_initial, &env, p, 10.0, t_opt).expect("window");
        assert!(
            report.overhead < t_opt * 5,
            "window took {:?} against T_opt {:?}",
            report.overhead,
            t_opt
        );
    }

    #[test]
    fn noted_fault_reseeds_stranded_masters() {
        let (geo, _, _) = dynamic_workload();
        let env = ec2_eight_regions();
        // A pinned zero rate trains nothing: what moves is the re-seed.
        let config = RlCutConfig::new(1.0).with_seed(6).with_fixed_sample_rate(0.0);
        let mut adaptive = AdaptiveRlCut::new(config, Some(0.4)).with_move_journal();
        let p = TrafficProfile::uniform(geo.num_vertices(), 8.0);
        let t_opt = Duration::from_millis(200);
        // Before the first window nothing is placed, so no report fits.
        let err = adaptive.note_fault(&[false; 8]).expect_err("nothing placed yet");
        assert!(matches!(err, PlanError::LengthMismatch { expected: 0, found: 8, .. }), "{err}");
        adaptive.on_window(&geo, &env, p.clone(), 10.0, t_opt).expect("window 0");
        let before = adaptive.masters().to_vec();
        let victim = before[0];

        // A report with every DC dead, or with fewer flags than DCs, is a
        // typed error where it is noted, and changes nothing.
        assert_eq!(adaptive.note_fault(&[true; 8]), Err(PlanError::NoLiveDc));
        let err = adaptive.note_fault(&[true; 3]).expect_err("three flags for eight DCs");
        assert!(matches!(err, PlanError::LengthMismatch { expected: 8, found: 3, .. }), "{err}");
        assert_eq!((adaptive.masters(), &adaptive.noted_fault), (&before[..], &None));

        // Every window from the fault on resumes the carried state. The
        // first opens its journal with the re-seed by the one rule, and no
        // window puts a master back while the mask holds.
        let mut dead = vec![false; 8];
        dead[victim as usize] = true;
        adaptive.note_fault(&dead).expect("well-formed report");
        let mut reseeded = before.clone();
        reseed_stranded_masters(&mut reseeded, &geo.locations, &dead, 8).unwrap();
        adaptive.take_window_journal();
        let stationary = GraphDelta::from_events(&geo.graph, &[]);
        for window in 1..4 {
            let report = adaptive
                .on_window_delta(&geo, &env, &stationary, p.clone(), 10.0, t_opt)
                .unwrap_or_else(|e| panic!("window {window}: {e}"));
            assert!(report.delta_stats.is_some(), "window {window} must resume the carried state");
            let journal = adaptive.take_window_journal();
            if window == 1 {
                let (step, moves) = &journal[0];
                assert_eq!(*step, crate::trainer::RESEED_STEP);
                assert!(moves
                    .iter()
                    .all(|&(v, d)| before[v as usize] == victim && reseeded[v as usize] == d));
                assert_eq!(adaptive.masters(), &reseeded[..]);
            }
            assert!(!adaptive.masters().contains(&victim), "window {window} uses the dead DC");
            assert_eq!(adaptive.dead_dcs(), Some(&dead[..]), "the mask outlives its window");
        }
        // The all-clear lifts the mask with the window it is noted before.
        adaptive.note_fault(&[false; 8]).expect("all-clear");
        adaptive.on_window_delta(&geo, &env, &stationary, p, 10.0, t_opt).expect("window 4");
        assert_eq!((adaptive.dead_dcs(), &adaptive.noted_fault), (None, &None));
    }

    #[test]
    fn rejected_delta_keeps_the_carried_state() {
        let (geo, _, _) = dynamic_workload();
        let env = ec2_eight_regions();
        let config = RlCutConfig::new(1.0).with_seed(7).with_theta(8).with_max_steps(2);
        let mut adaptive = AdaptiveRlCut::new(config, Some(0.4));
        let (t_opt, p) = (Duration::from_millis(200), TrafficProfile::uniform(1000, 8.0));
        adaptive.on_window(&geo, &env, p.clone(), 10.0, t_opt).expect("window 0");
        let (core, theta) = adaptive.carried_parts().cloned().expect("carried");

        // A delta from another graph, and a profile short of the graph.
        let foreign = GraphDelta::from_events(&geograph::Graph::empty(10), &[]);
        let stationary = GraphDelta::from_events(&geo.graph, &[]);
        let short = TrafficProfile::uniform(999, 8.0);
        for (delta, profile) in [(&foreign, p.clone()), (&stationary, short)] {
            let err = adaptive
                .on_window_delta(&geo, &env, delta, profile, 10.0, t_opt)
                .expect_err("mismatched delta");
            assert!(matches!(err, WindowError::Plan(PlanError::DeltaMismatch { .. })), "{err}");
            let (kept, kept_theta) = adaptive.carried_parts().expect("the carried state stays");
            assert_eq!((adaptive.masters(), *kept_theta), (core.masters(), theta));
            assert_eq!(kept.movement_cost().to_bits(), core.movement_cost().to_bits());
        }
        // A rebuild window whose profile is not loads is refused the same way.
        let mut negative = p.clone();
        negative.gather_bytes[0] = -1.0;
        let err = adaptive.on_window(&geo, &env, negative, 10.0, t_opt).expect_err("not a load");
        assert!(matches!(err, WindowError::Plan(PlanError::ProfileOutOfRange { .. })), "{err}");
        assert_eq!(adaptive.masters(), core.masters(), "the carried state stays");
        let report =
            adaptive.on_window_delta(&geo, &env, &stationary, p, 10.0, t_opt).expect("valid delta");
        assert!(report.delta_stats.is_some(), "the next delta window resumes, not rebuilds");
    }

    #[test]
    fn shrinking_graph_rejected() {
        let (_, geo_full, _) = dynamic_workload();
        let env = ec2_eight_regions();
        let config = RlCutConfig::new(1.0).with_seed(5);
        let mut adaptive = AdaptiveRlCut::new(config, Some(0.4));
        let p1 = TrafficProfile::uniform(geo_full.num_vertices(), 8.0);
        adaptive.on_window(&geo_full, &env, p1, 10.0, Duration::from_millis(50)).expect("window");
        let carried = adaptive.masters().len();
        // A snapshot with fewer vertices must be rejected with a typed
        // error, leaving the carried state untouched.
        let small = GeoGraph::new(
            geograph::Graph::empty(10),
            vec![0; 10],
            vec![2048; 10],
            geo_full.num_dcs,
        );
        let p0 = TrafficProfile::uniform(10, 8.0);
        let err = adaptive
            .on_window(&small, &env, p0, 10.0, Duration::from_millis(50))
            .expect_err("shrunk snapshot must be rejected");
        // The legacy contract's wording ("graphs only grow across
        // windows") stays reachable through Display.
        assert!(format!("{err}").contains("grow"), "{err}");
        match err {
            WindowError::ShrunkGraph { carried: c, snapshot } => {
                assert_eq!(c, carried);
                assert_eq!(snapshot, 10);
            }
            other => panic!("expected ShrunkGraph, got {other}"),
        }
        assert_eq!(adaptive.masters().len(), carried, "carried masters must survive rejection");
    }

    #[test]
    fn delta_windows_reuse_the_scoring_arenas() {
        // The cross-window persistence gate (also run by scripts/verify.sh):
        // every window fans its scoring out over the arenas the windows
        // before it warmed, so as the graph grows an arena's capacity only
        // ever grows — a window that built fresh arenas would read back
        // only what its own sample needed.
        let (mut geo, windows) = stream_workload(400, 23, 2_500);
        assert!(windows.len() >= 3, "need several delta windows, got {}", windows.len());
        let env = ec2_eight_regions();
        let config = RlCutConfig::new(1.0)
            .with_seed(9)
            .with_threads(4)
            .with_fixed_sample_rate(0.5)
            .with_max_steps(2);
        let mut adaptive = AdaptiveRlCut::new(config, Some(0.4));
        let t_opt = Duration::from_secs(60);

        let p0 = TrafficProfile::uniform(geo.num_vertices(), 8.0);
        adaptive.on_window(&geo, &env, p0, 10.0, t_opt).expect("window 0");
        let arena_stats = |adaptive: &AdaptiveRlCut| -> Vec<geopart::ScratchStats> {
            let resources = adaptive.resources.as_ref().expect("a window ran");
            resources.arenas.iter().map(geopart::MoveScratch::stats).collect()
        };
        let mut warm = arena_stats(&adaptive);
        assert_eq!(warm.len(), 4);
        assert!(warm.iter().all(|s| s.width == env.num_dcs()), "window 0 fanned out: {warm:?}");

        for (i, window) in windows.iter().enumerate() {
            let delta = GraphDelta::from_events(&geo.graph, window);
            geo = grown(&geo, &delta);
            let profile = TrafficProfile::uniform(geo.num_vertices(), 8.0);
            let report = adaptive
                .on_window_delta(&geo, &env, &delta, profile, 10.0, t_opt)
                .unwrap_or_else(|e| panic!("delta window {i}: {e}"));
            // The incremental path ran: delta stats present, and the work
            // was proportional to the delta, not the graph.
            let stats = report.delta_stats.expect("delta path must report stats");
            assert!(
                stats.work_items() <= 8 * (delta.num_edge_changes() + delta.touched().len()) + 8,
                "window {i}: delta work {} vs delta size {}",
                stats.work_items(),
                delta.num_edge_changes()
            );
            let now = arena_stats(&adaptive);
            assert_eq!(now.len(), 4);
            for (was, is) in warm.iter().zip(&now) {
                assert_eq!((is.width, is.dest_cells), (was.width, was.dest_cells));
                assert!(is.neighbor_capacity >= was.neighbor_capacity, "window {i}: {now:?}");
            }
            warm = now;
        }
        assert_eq!(adaptive.masters().len(), geo.num_vertices());
    }

    /// An `n`-vertex preferential graph: 60 % of its edges as the base
    /// graph under the full graph's paper-default homes, the rest as event
    /// batches of `window_ms`.
    fn stream_workload(
        n: usize,
        seed: u64,
        window_ms: u64,
    ) -> (GeoGraph, Vec<Vec<geograph::dynamic::EdgeEvent>>) {
        let edges = preferential_attachment_edges(n, 3, seed);
        let (initial, stream) = split_for_dynamic(&edges, n, 0.6, 10_000);
        let mut full = GraphBuilder::new(n);
        full.add_edges(initial.edges());
        apply_events(&mut full, stream.events());
        let cfg = LocalityConfig::paper_default(seed);
        let locations = assign_locations(&full.build(), &cfg);
        let geo0 = GeoGraph::new(initial, locations, vec![2048; n], cfg.num_dcs);
        (geo0, stream.windows(window_ms).map(<[_]>::to_vec).collect())
    }

    /// A 1 000-vertex preferential graph under its paper-default homes.
    fn quiet_workload(seed: u64) -> GeoGraph {
        let n = 1000;
        let graph = geograph::Graph::from_edges(n, &preferential_attachment_edges(n, 4, seed));
        GeoGraph::from_graph(graph, &LocalityConfig::paper_default(seed))
    }

    fn insert(src: geograph::VertexId, dst: geograph::VertexId) -> geograph::dynamic::EdgeEvent {
        use geograph::dynamic::{EdgeEvent, EventKind};
        EdgeEvent { src, dst, timestamp_ms: 0, kind: EventKind::Insert }
    }

    fn grown(geo: &GeoGraph, delta: &GraphDelta) -> GeoGraph {
        let graph = geo.graph.apply_delta(delta);
        GeoGraph::new(graph, geo.locations.clone(), geo.data_sizes.clone(), geo.num_dcs)
    }

    #[test]
    fn hub_touching_delta_fronts_a_bounded_hot_set() {
        // One new edge into the graph's biggest hub. What is hot is the two
        // endpoints and the ordinary one's neighbors — a handful — where
        // expanding the hub as well fronts a fifth of the graph.
        let geo0 = quiet_workload(31);
        let env = ec2_eight_regions();
        // Rate 1.0: the half-sample cap is far above any of this.
        let config =
            RlCutConfig::new(1.0).with_seed(2).with_fixed_sample_rate(1.0).with_max_steps(1);
        let mut adaptive = AdaptiveRlCut::new(config, Some(0.4));
        let t_opt = Duration::from_secs(60);
        let p = TrafficProfile::uniform(geo0.num_vertices(), 8.0);
        let w0 = adaptive.on_window(&geo0, &env, p.clone(), 10.0, t_opt).expect("window 0");
        assert_eq!(w0.hot_agents, 0, "window 0 has no delta");

        let g = &geo0.graph;
        let hub = g.vertices().max_by_key(|&v| g.in_degree(v)).unwrap();
        let leaf = g
            .vertices()
            .find(|&v| g.in_degree(v) == 0 && !g.out_neighbors(v).contains(&hub))
            .unwrap();
        let delta = GraphDelta::from_events(g, &[insert(leaf, hub)]);
        assert_eq!(delta.touched(), &[hub.min(leaf), hub.max(leaf)]);
        let geo1 = grown(&geo0, &delta);
        let w1 = adaptive.on_window_delta(&geo1, &env, &delta, p, 10.0, t_opt).expect("window 1");

        let (core, _) = adaptive.carried_parts().expect("carried");
        assert!(core.is_high(hub) && !core.is_high(leaf));
        let bound = 2 + geo1.graph.degree(leaf);
        assert!(w1.hot_agents >= 2 && w1.hot_agents <= bound, "{} hot agents", w1.hot_agents);
        assert!(
            geo1.graph.degree(hub) > 10 * bound,
            "hub degree {} must dwarf the bound {bound} for this to test anything",
            geo1.graph.degree(hub)
        );
    }

    #[test]
    fn quiet_pipeline_keeps_converging() {
        // Ten windows at rate 0.1 × 2 steps, each delta a single edge: the
        // same 2 N agent-steps as one cold partition at rate 1.0 × 2. The
        // ring walks every low-degree agent through the sample once, so the
        // windows keep migrating after the first and end near the cold plan.
        let mut geo = quiet_workload(37);
        let env = ec2_eight_regions();
        let n = geo.num_vertices() as geograph::VertexId;
        let windowed =
            RlCutConfig::new(1.0).with_seed(5).with_theta(8).with_max_steps(2).with_threads(1);
        let cold_config = windowed.clone().with_fixed_sample_rate(1.0);
        let mut adaptive = AdaptiveRlCut::new(windowed.with_fixed_sample_rate(0.1), Some(0.4));
        let t_opt = Duration::from_secs(60);
        let p = TrafficProfile::uniform(geo.num_vertices(), 8.0);

        let mut migrations = Vec::new();
        let w0 = adaptive.on_window(&geo, &env, p.clone(), 10.0, t_opt).expect("window 0");
        migrations.push(w0.migrations);
        let mut last = w0;
        for i in 1..10u32 {
            let delta = GraphDelta::from_events(&geo.graph, &[insert(n - i, n - i - 100)]);
            geo = grown(&geo, &delta);
            last = adaptive
                .on_window_delta(&geo, &env, &delta, p.clone(), 10.0, t_opt)
                .unwrap_or_else(|e| panic!("window {i}: {e}"));
            migrations.push(last.migrations);
        }
        let busy = migrations[1..].iter().filter(|&&m| m > 0).count();
        assert!(busy >= 7, "windows after the first must keep migrating: {migrations:?}");

        let natural = HybridState::natural(&geo, &env, 8, p.clone(), 10.0).objective(&env);
        let mut cold = cold_config;
        cold.budget = geosim::cost::default_budget(&env, &geo.locations, &geo.data_sizes, 0.4);
        let cold = crate::trainer::partition(&geo, &env, p, 10.0, &cold).final_objective(&env);
        assert!(cold.transfer_time < 0.9 * natural.transfer_time);
        assert!(
            last.transfer_time <= 1.15 * cold.transfer_time,
            "ten quiet windows reach {} where a cold partition reaches {} (natural {})",
            last.transfer_time,
            cold.transfer_time,
            natural.transfer_time
        );
    }

    #[test]
    fn journaled_windows_replay_to_the_committed_state() {
        // What the durable driver rests on, with no WAL in the way: a
        // window's journal replays. The committed `(core, theta)` +
        // `resume_from_parts(delta)` + the journalled moves through
        // `apply_move_with`, in order (the RECONCILE_STEP sweep included),
        // is the live carried state — masters equal, movement cost equal
        // to the last f64 bit. With the journal off nothing is recorded.
        // theta pinned and the sample rate fixed so the wall-clock
        // scheduler cannot decide differently across runs.
        for journal in [false, true] {
            journaled_windows_case(journal);
        }
    }

    fn journaled_windows_case(journal: bool) {
        let (mut geo, mut batches) = stream_workload(400, 23, 2_500);
        assert!(batches.len() >= 3, "need several delta windows");
        // Last: a surgical one-edge delta.
        batches.push(vec![insert(100, 101)]);
        let env = ec2_eight_regions();
        let config = RlCutConfig::new(1.0)
            .with_seed(13)
            .with_threads(2)
            .with_theta(8)
            .with_fixed_sample_rate(0.2)
            .with_max_steps(2);
        let t_opt = Duration::from_secs(60);
        let mut adaptive = AdaptiveRlCut::new(config, Some(0.4));
        if journal {
            adaptive = adaptive.with_move_journal();
        }

        let p0 = TrafficProfile::uniform(geo.num_vertices(), 8.0);
        let w0 = adaptive.on_window(&geo, &env, p0, 10.0, t_opt).expect("window 0");
        assert_eq!(adaptive.take_window_journal().is_empty(), !journal || w0.migrations == 0);

        let mut journaled_moves = 0;
        for (i, batch) in batches.iter().enumerate() {
            let delta = GraphDelta::from_events(&geo.graph, batch);
            geo = grown(&geo, &delta);
            let profile = TrafficProfile::uniform(geo.num_vertices(), 8.0);
            let (core, theta) = adaptive.carried_parts().cloned().expect("window 0 carried");
            let report = adaptive
                .on_window_delta(&geo, &env, &delta, profile.clone(), 10.0, t_opt)
                .unwrap_or_else(|e| panic!("window {i}: {e}"));
            assert!(report.delta_stats.is_some(), "window {i} must take the incremental path");

            // Committed state + delta + moves in order = the new committed
            // state.
            let moves = adaptive.take_window_journal();
            assert_eq!(moves.is_empty(), !journal || report.migrations == 0);
            let (mut replayed, _) =
                HybridState::resume_from_parts(core, theta, &geo, &env, &delta, &profile)
                    .expect("replaying the delta");
            let mut scratch = geopart::MoveScratch::new();
            for &(v, to) in moves.iter().flat_map(|(_, step_moves)| step_moves) {
                replayed.apply_move_with(&env, v, to, &mut scratch);
                journaled_moves += 1;
            }
            if journal {
                let (live, _) = adaptive.carried_parts().expect("carried");
                assert_eq!(replayed.core().masters(), live.masters(), "window {i} replay");
                assert_eq!(
                    replayed.core().movement_cost().to_bits(),
                    live.movement_cost().to_bits(),
                    "window {i}: replayed movement cost is not bit-exact"
                );
            }
        }
        assert_eq!(journaled_moves > 0, journal, "the journal case must replay real moves");
    }

    #[test]
    fn rebuild_ablation_matches_incremental_masters() {
        // Incremental delta windows and rebuild windows (`on_window`: the
        // same snapshots, no delta) train over identical state (same
        // masters, same theta, same profile).
        let (mut geo, windows) = stream_workload(300, 29, 3_400);
        let env = ec2_eight_regions();
        // theta pinned: the delta path carries the first window's theta
        // forward, the rebuild path would otherwise re-derive it per
        // window from the grown degree distribution.
        let config = RlCutConfig::new(1.0)
            .with_seed(11)
            .with_threads(2)
            .with_theta(8)
            .with_fixed_sample_rate(0.1)
            .with_max_steps(2);
        let mut incremental = AdaptiveRlCut::new(config.clone(), Some(0.4));
        let mut rebuild = AdaptiveRlCut::new(config, Some(0.4));

        let t_opt = Duration::from_millis(200);
        let p0 = TrafficProfile::uniform(geo.num_vertices(), 8.0);
        incremental.on_window(&geo, &env, p0.clone(), 10.0, t_opt).expect("inc window 0");
        rebuild.on_window(&geo, &env, p0, 10.0, t_opt).expect("reb window 0");
        assert_eq!(incremental.masters(), rebuild.masters());

        for (i, window) in windows.iter().enumerate() {
            let delta = GraphDelta::from_events(&geo.graph, window);
            geo = grown(&geo, &delta);
            let profile = TrafficProfile::uniform(geo.num_vertices(), 8.0);
            let ri = incremental
                .on_window_delta(&geo, &env, &delta, profile.clone(), 10.0, t_opt)
                .unwrap_or_else(|e| panic!("inc window {i}: {e}"));
            let rr = rebuild
                .on_window(&geo, &env, profile, 10.0, t_opt)
                .unwrap_or_else(|e| panic!("reb window {i}: {e}"));
            assert!(ri.delta_stats.is_some(), "incremental path must be taken");
            assert!(rr.delta_stats.is_none(), "a window without a delta must rebuild");
        }
        // Both trained on the same snapshots from the same seeds; the
        // focused sampling order differs, so compare final plan quality
        // rather than bitwise masters: both must be valid, full-length
        // plans over the final graph.
        assert_eq!(incremental.masters().len(), geo.num_vertices());
        assert_eq!(rebuild.masters().len(), geo.num_vertices());
    }
}
