//! The durable dynamic-window driver: [`AdaptiveRlCut`] behind a WAL.
//!
//! [`DurableAdaptive`] owns the evolving [`GeoGraph`] and a
//! [`geodur::DurableStore`], and wraps every window in the durable
//! transaction protocol:
//!
//! 1. the window's inputs (delta, new-vertex suffixes, profile suffix,
//!    fault flags) are logged and fsynced **before** training starts;
//! 2. the window trains through the inner [`AdaptiveRlCut`] with move
//!    journaling on;
//! 3. the journal's batches (a dead DC's re-seed among them) and a commit
//!    record (carried theta, final movement-cost bits, masters hash) are
//!    appended and fsynced together — one group commit seals the window.
//!
//! While a DC is dead a snapshot carries the mask in its trainer slot.
//!
//! [`DurableAdaptive::recover`] is the other half: latest valid snapshot
//! plus WAL replay (see [`geodur::replay`]) reconstructs the pipeline
//! bit-exactly at the last committed window boundary and returns a driver
//! that continues as if the process had never died — the next window
//! resumes the recovered placement through the same incremental path,
//! with the same per-window config/RNG derivation, so the continued run's
//! masters match an uninterrupted run's bit for bit.

use std::path::Path;
use std::time::Duration;

use geodur::{
    env_fingerprint, masters_fnv, Batch, Commit, DurableError, DurableStore, RecoveryReport,
    SnapshotRef, WindowStart,
};
use geograph::{DcId, GeoGraph, GraphDelta, VertexId};
use geopart::{PlanError, TrafficProfile};
use geosim::CloudEnv;

use crate::adaptive::{AdaptiveRlCut, WindowError, WindowReport};
use crate::config::RlCutConfig;

/// Why a durable window or recovery failed.
#[derive(Debug)]
pub enum DurableWindowError {
    /// The training window itself failed.
    Window(WindowError),
    /// The durability layer failed (I/O, corruption, replay divergence).
    Durable(DurableError),
    /// The caller's window inputs are inconsistent (e.g. suffix lengths
    /// that do not match the delta's vertex growth).
    Input(&'static str),
}

impl std::fmt::Display for DurableWindowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurableWindowError::Window(e) => write!(f, "window failed: {e}"),
            DurableWindowError::Durable(e) => write!(f, "durability layer failed: {e}"),
            DurableWindowError::Input(what) => write!(f, "inconsistent window inputs: {what}"),
        }
    }
}

impl std::error::Error for DurableWindowError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DurableWindowError::Window(e) => Some(e),
            DurableWindowError::Durable(e) => Some(e),
            DurableWindowError::Input(_) => None,
        }
    }
}

impl From<WindowError> for DurableWindowError {
    fn from(e: WindowError) -> Self {
        DurableWindowError::Window(e)
    }
}

impl From<DurableError> for DurableWindowError {
    fn from(e: DurableError) -> Self {
        DurableWindowError::Durable(e)
    }
}

/// What [`DurableAdaptive::recover`] found and rebuilt.
#[derive(Clone, Copy, Debug)]
pub struct RecoverySummary {
    /// Low-level scan report (torn bytes, skipped snapshots).
    pub report: RecoveryReport,
    /// Next window the driver expects (also how many windows are
    /// committed in total).
    pub next_window: u64,
    /// Windows replayed from the WAL on top of the snapshot.
    pub replayed_windows: u64,
    /// `true` when an uncommitted window was found and rolled back — the
    /// caller must re-feed that window's events.
    pub rolled_back: bool,
}

/// Called after every committed window with the committed window index
/// and the sealed placement state — the serving layer's plan-publish
/// hook ([`geoserve`-style daemons] snapshot a routing table from it).
pub(crate) type CommitHook = Box<dyn FnMut(u64, &geopart::PlacementState) + Send>;

/// [`AdaptiveRlCut`] wrapped in WAL + snapshot durability.
pub struct DurableAdaptive {
    inner: AdaptiveRlCut,
    store: DurableStore,
    geo: GeoGraph,
    window: u64,
    /// Fingerprint of the environment the last window trained under
    /// (stamped into window starts and snapshots).
    env_fp: u64,
    /// Cut a snapshot every this many committed windows (0 = only on
    /// explicit [`Self::snapshot_now`]).
    snapshot_every: u64,
    windows_since_snapshot: u64,
    /// Plan-publish hook, run strictly *after* the commit fsync so a
    /// published plan is always a durable plan.
    on_commit: Option<CommitHook>,
}

impl std::fmt::Debug for DurableAdaptive {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableAdaptive")
            .field("window", &self.window)
            .field("snapshot_every", &self.snapshot_every)
            .field("has_commit_hook", &self.on_commit.is_some())
            .finish_non_exhaustive()
    }
}

impl DurableAdaptive {
    /// Initializes a fresh durable pipeline at `dir` starting from `geo`.
    /// The initial masters are the vertices' home locations (the paper's
    /// natural placement), which recovery re-derives from the logged
    /// geo — callers wanting a different seed placement train it in
    /// window 0.
    pub fn create(
        dir: &Path,
        config: RlCutConfig,
        budget_fraction: Option<f64>,
        geo: GeoGraph,
        env: &CloudEnv,
        snapshot_every: u64,
    ) -> Result<DurableAdaptive, DurableError> {
        let store = DurableStore::create(dir, &geo, env)?;
        let inner = AdaptiveRlCut::new(config, budget_fraction).with_move_journal();
        Ok(DurableAdaptive {
            inner,
            store,
            geo,
            window: 0,
            env_fp: env_fingerprint(env),
            snapshot_every,
            windows_since_snapshot: 0,
            on_commit: None,
        })
    }

    /// Recovers the pipeline from `dir` at its last committed window
    /// boundary. `config` and `budget_fraction` must match what the dead
    /// process ran with — they are the trainer's behavior, not logged
    /// state — and `env` must fingerprint-match the environment the store
    /// was written under.
    pub fn recover(
        dir: &Path,
        config: RlCutConfig,
        budget_fraction: Option<f64>,
        env: &CloudEnv,
        snapshot_every: u64,
    ) -> Result<(DurableAdaptive, RecoverySummary), DurableError> {
        let (recovered, report, store) = DurableStore::recover(dir, env)?;
        let summary = RecoverySummary {
            report,
            next_window: recovered.next_window,
            replayed_windows: recovered.replayed_windows,
            rolled_back: recovered.rolled_back,
        };
        let mut inner = match recovered.parts {
            Some(parts) => {
                AdaptiveRlCut::with_carried(config, budget_fraction, parts, recovered.next_window)
            }
            None => AdaptiveRlCut::new(config, budget_fraction),
        }
        .with_move_journal();
        inner.dead = recovered.dead;
        let durable = DurableAdaptive {
            inner,
            store,
            geo: recovered.geo,
            window: recovered.next_window,
            env_fp: env_fingerprint(env),
            snapshot_every,
            // The cadence counts from the snapshot recovery loaded, not
            // from the restart — or a pipeline that restarts more often
            // than it snapshots never cuts another one.
            windows_since_snapshot: recovered.replayed_windows,
            on_commit: None,
        };
        Ok((durable, summary))
    }

    /// Installs the plan-publish hook: called after every window's commit
    /// record is fsynced, with the committed window index and the sealed
    /// placement. Replaces any previous hook.
    pub fn set_commit_hook(&mut self, hook: CommitHook) {
        self.on_commit = Some(hook);
    }

    /// Notes a fault as [`AdaptiveRlCut::note_fault`] does; the next window
    /// logs the flags (an all-clear too). A refused report logs nothing.
    pub fn note_fault(&mut self, dead: &[bool]) -> Result<(), PlanError> {
        self.inner.note_fault(dead)
    }

    /// Runs one durable window. `delta` + the suffixes describe the graph
    /// growth since the previous window (all empty/`None` for a
    /// stationary window, and for window 0, whose full graph is already
    /// in the genesis snapshot); `profile` is the full traffic profile
    /// over the grown graph, as in [`AdaptiveRlCut::on_window_delta`].
    /// After window 0 every window resumes the carried state: a
    /// stationary one through an empty delta.
    #[allow(clippy::too_many_arguments)]
    pub fn window(
        &mut self,
        env: &CloudEnv,
        delta: Option<&GraphDelta>,
        loc_suffix: &[DcId],
        size_suffix: &[u64],
        profile: TrafficProfile,
        num_iterations: f64,
        t_opt: Duration,
    ) -> Result<WindowReport, DurableWindowError> {
        // 1. Evolve the owned geo-graph and validate the inputs line up.
        let old_n = self.geo.num_vertices();
        let new_n = match delta {
            Some(d) => {
                if d.old_num_vertices() != old_n {
                    return Err(DurableWindowError::Input("delta targets a different graph"));
                }
                d.new_num_vertices()
            }
            None => {
                if !loc_suffix.is_empty() || !size_suffix.is_empty() {
                    return Err(DurableWindowError::Input(
                        "vertex suffixes require a delta that grows the graph",
                    ));
                }
                old_n
            }
        };
        if old_n + loc_suffix.len() != new_n || old_n + size_suffix.len() != new_n {
            return Err(DurableWindowError::Input(
                "location/size suffixes do not cover the delta's new vertices",
            ));
        }
        if profile.len() != new_n {
            return Err(DurableWindowError::Input("profile does not cover the grown graph"));
        }
        if loc_suffix.iter().any(|&d| d as usize >= self.geo.num_dcs) {
            return Err(DurableWindowError::Input("a new vertex's location is not a DC"));
        }
        // The profile suffix starts where the committed placement's profile
        // ends (window 0's is the whole profile). A value in it that is not
        // a load is refused before the start is logged or the graph
        // advances: replay would refuse the record and strand the store.
        let profile_base = self.inner.masters().len();
        (profile_base..new_n)
            .try_for_each(|v| profile.units(v as VertexId).map(drop))
            .map_err(WindowError::Plan)?;
        // In place: the old snapshot is never needed again, so the graph
        // holds one CSR, not two, while it advances.
        if let Some(d) = delta {
            self.geo.graph.apply_delta_in_place(d);
            self.geo.locations.extend_from_slice(loc_suffix);
            self.geo.data_sizes.extend_from_slice(size_suffix);
        }

        // 2. Log the window's inputs durably BEFORE training touches them.
        let ws = WindowStart {
            window: self.window,
            delta: delta.cloned(),
            loc_suffix: loc_suffix.to_vec(),
            size_suffix: size_suffix.to_vec(),
            gather_suffix: profile.gather_bytes[profile_base..].to_vec(),
            apply_suffix: profile.apply_bytes[profile_base..].to_vec(),
            num_iterations,
            dead: self.inner.noted_fault.clone(),
            env_fp: env_fingerprint(env),
        };
        self.env_fp = ws.env_fp;
        self.store.log_window_start(&ws)?;

        // 3. Train the window (journaling every applied move).
        let stationary = GraphDelta::from_events(&self.geo.graph, &[]);
        let delta = delta.or(self.inner.carried_parts().map(|_| &stationary));
        let report = match delta {
            Some(d) => {
                self.inner.on_window_delta(&self.geo, env, d, profile, num_iterations, t_opt)?
            }
            None => self.inner.on_window(&self.geo, env, profile, num_iterations, t_opt)?,
        };

        // 4. Seal it: batches + commit under one fsync.
        for (step, moves) in self.inner.take_window_journal() {
            self.store.log_batch(&Batch { window: self.window, step, moves })?;
        }
        let (core, theta) = self.inner.carried_parts().expect("window completed, state is carried");
        self.store.log_commit(&Commit {
            window: self.window,
            theta: *theta as u64,
            movement_cost_bits: core.movement_cost().to_bits(),
            masters_fnv: masters_fnv(core.masters()),
        })?;
        if let Some(hook) = &mut self.on_commit {
            hook(self.window, core);
        }
        self.window += 1;

        // 5. Snapshot cadence: cut at the committed boundary, prune behind.
        self.windows_since_snapshot += 1;
        if self.snapshot_every > 0 && self.windows_since_snapshot >= self.snapshot_every {
            self.snapshot_now()?;
        }
        Ok(report)
    }

    /// Cuts a snapshot at the current committed boundary and prunes
    /// snapshots and WAL segments behind it. The live graph and placement
    /// are streamed to disk as they stand — nothing is cloned — and the
    /// carried dead-DC mask rides in the trainer slot while a DC is dead.
    /// Returns the snapshot's encoded size.
    pub fn snapshot_now(&mut self) -> Result<u64, DurableError> {
        let dead: Option<Vec<u8>> =
            self.inner.dead_dcs().map(|dead| dead.iter().map(|&d| d as u8).collect());
        let snap = SnapshotRef {
            lsn: self.store.next_lsn(),
            window: self.window,
            env_fp: self.env_fp,
            geo: &self.geo,
            placement: self.inner.carried_parts().map(|(state, theta)| (state, *theta)),
            trainer: dead.as_deref(),
        };
        let bytes = self.store.write_snapshot_ref(snap)?;
        self.windows_since_snapshot = 0;
        Ok(bytes)
    }

    /// The current master assignment (home locations before window 0).
    pub fn masters(&self) -> &[DcId] {
        self.inner.carried_parts().map_or(&self.geo.locations, |(core, _)| core.masters())
    }

    /// The geo-graph as of the last window.
    pub fn geo(&self) -> &GeoGraph {
        &self.geo
    }

    /// Index of the next window.
    pub fn next_window(&self) -> u64 {
        self.window
    }

    /// The underlying store (bench accounting: appended bytes, LSNs).
    pub fn store(&self) -> &DurableStore {
        &self.store
    }

    /// The inner adaptive trainer (read-only).
    pub fn inner(&self) -> &AdaptiveRlCut {
        &self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geograph::dynamic::{apply_events, split_for_dynamic};
    use geograph::generators::preferential::preferential_attachment_edges;
    use geograph::locality::{assign_locations, LocalityConfig};
    use geograph::GraphBuilder;
    use geosim::regions::ec2_eight_regions;
    use std::path::PathBuf;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rlcut_dur_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// theta pinned and the sample rate fixed so the wall-clock scheduler
    /// cannot decide differently across the reference and durable runs.
    fn pinned_config(seed: u64) -> RlCutConfig {
        RlCutConfig::new(1.0)
            .with_seed(seed)
            .with_threads(2)
            .with_theta(8)
            .with_fixed_sample_rate(0.2)
            .with_max_steps(2)
    }

    struct Workload {
        geo0: GeoGraph,
        /// Per delta window: the delta plus the new vertices' location and
        /// data-size suffixes.
        steps: Vec<(GraphDelta, Vec<DcId>, Vec<u64>)>,
    }

    fn workload() -> Workload {
        let n = 400;
        let edges = preferential_attachment_edges(n, 3, 23);
        let (initial, stream) = split_for_dynamic(&edges, n, 0.6, 10_000);
        let windows: Vec<_> = stream.windows(2_500).collect();
        assert!(windows.len() >= 3, "need several delta windows, got {}", windows.len());
        let full_graph = {
            let mut b = GraphBuilder::new(n);
            b.add_edges(initial.edges());
            apply_events(&mut b, stream.events());
            b.build()
        };
        let cfg = LocalityConfig::paper_default(23);
        let locations = assign_locations(&full_graph, &cfg);
        let sizes: Vec<u64> = (0..full_graph.num_vertices()).map(|_| 2048).collect();

        let mut graph = initial;
        let geo0 = GeoGraph::new(
            graph.clone(),
            locations[..graph.num_vertices()].to_vec(),
            sizes[..graph.num_vertices()].to_vec(),
            cfg.num_dcs,
        );
        let mut steps = Vec::new();
        for window in &windows {
            let delta = GraphDelta::from_events(&graph, window);
            let old_n = graph.num_vertices();
            graph.apply_delta_in_place(&delta);
            let new_n = graph.num_vertices();
            steps.push((delta, locations[old_n..new_n].to_vec(), sizes[old_n..new_n].to_vec()));
        }
        Workload { geo0, steps }
    }

    fn evolve(mut geo: GeoGraph, delta: &GraphDelta, locs: &[DcId], sizes: &[u64]) -> GeoGraph {
        geo.graph.apply_delta_in_place(delta);
        geo.locations.extend_from_slice(locs);
        geo.data_sizes.extend_from_slice(sizes);
        geo
    }

    /// DC 2 dark: the fault both runs note before window 2.
    fn dc2_dead() -> Vec<bool> {
        (0..8).map(|d| d == 2).collect()
    }

    /// The uninterrupted reference: a plain `AdaptiveRlCut` over window 0
    /// plus the first `upto` delta windows, with DC 2 noted dead before
    /// window 2.
    fn reference_after(w: &Workload, upto: usize, env: &CloudEnv) -> (Vec<DcId>, u64) {
        let mut adaptive = AdaptiveRlCut::new(pinned_config(13), Some(0.4));
        let t_opt = Duration::from_secs(60);
        let p0 = TrafficProfile::uniform(w.geo0.num_vertices(), 8.0);
        adaptive.on_window(&w.geo0, env, p0, 10.0, t_opt).expect("reference window 0");
        let mut geo = w.geo0.clone();
        for (i, (delta, locs, sizes)) in w.steps.iter().take(upto).enumerate() {
            if i + 1 == 2 {
                adaptive.note_fault(&dc2_dead()).expect("well-formed fault report");
            }
            geo = evolve(geo, delta, locs, sizes);
            let p = TrafficProfile::uniform(geo.num_vertices(), 8.0);
            adaptive
                .on_window_delta(&geo, env, delta, p, 10.0, t_opt)
                .unwrap_or_else(|e| panic!("reference delta window {i}: {e}"));
        }
        let (core, _) = adaptive.carried_parts().expect("reference carried");
        (core.masters().to_vec(), core.movement_cost().to_bits())
    }

    #[test]
    fn kill_between_windows_recovers_and_continues_bit_exactly() {
        let w = workload();
        let env = ec2_eight_regions();
        let t_opt = Duration::from_secs(60);
        let dir = tmp_dir("continue");
        // "Die" after window 0 + 2 delta windows, the second of them the
        // fault window: recovery must carry the dead-DC mask on.
        let split = 2;

        {
            let mut durable = DurableAdaptive::create(
                &dir,
                pinned_config(13),
                Some(0.4),
                w.geo0.clone(),
                &env,
                2,
            )
            .expect("create");
            let p0 = TrafficProfile::uniform(w.geo0.num_vertices(), 8.0);
            durable.window(&env, None, &[], &[], p0, 10.0, t_opt).expect("window 0");
            for (i, (delta, locs, sizes)) in w.steps.iter().take(split).enumerate() {
                if i + 1 == 2 {
                    durable.note_fault(&dc2_dead()).expect("well-formed fault report");
                }
                let p = TrafficProfile::uniform(delta.new_num_vertices(), 8.0);
                durable.window(&env, Some(delta), locs, sizes, p, 10.0, t_opt).expect("delta");
            }
        } // everything committed is synced; dropping the driver = process death

        let (mut recovered, summary) =
            DurableAdaptive::recover(&dir, pinned_config(13), Some(0.4), &env, 2).expect("recover");
        assert_eq!(summary.next_window, 1 + split as u64);
        assert!(!summary.rolled_back, "all windows were committed");

        // Recovered state is bit-identical to the uninterrupted run at
        // the kill point...
        let (mid_masters, mid_cost) = reference_after(&w, split, &env);
        assert_eq!(recovered.masters(), &mid_masters[..], "recovered masters diverged");
        let (core, _) = recovered.inner().carried_parts().expect("recovered carried");
        assert_eq!(core.movement_cost().to_bits(), mid_cost, "movement cost not bit-exact");

        // ...and the continuation lands exactly where the uninterrupted
        // run lands.
        for (delta, locs, sizes) in w.steps.iter().skip(split) {
            let p = TrafficProfile::uniform(delta.new_num_vertices(), 8.0);
            recovered.window(&env, Some(delta), locs, sizes, p, 10.0, t_opt).expect("continued");
        }
        assert_eq!(recovered.inner().dead_dcs(), Some(&dc2_dead()[..]));
        let (final_masters, final_cost) = reference_after(&w, w.steps.len(), &env);
        assert_eq!(recovered.masters(), &final_masters[..], "continuation diverged");
        let (core, _) = recovered.inner().carried_parts().expect("continued carried");
        assert_eq!(core.movement_cost().to_bits(), final_cost);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn inconsistent_window_inputs_are_typed_errors() {
        let w = workload();
        let env = ec2_eight_regions();
        let dir = tmp_dir("inputs");
        let mut durable =
            DurableAdaptive::create(&dir, pinned_config(13), Some(0.4), w.geo0.clone(), &env, 0)
                .expect("create");
        let t_opt = Duration::from_millis(50);
        let n = w.geo0.num_vertices();

        // Suffixes without a delta.
        let err = durable
            .window(&env, None, &[0], &[2048], TrafficProfile::uniform(n, 8.0), 10.0, t_opt)
            .expect_err("suffixes without delta");
        assert!(matches!(err, DurableWindowError::Input(_)), "{err}");

        // Profile over the wrong vertex count.
        let err = durable
            .window(&env, None, &[], &[], TrafficProfile::uniform(n + 1, 8.0), 10.0, t_opt)
            .expect_err("oversized profile");
        assert!(matches!(err, DurableWindowError::Input(_)), "{err}");

        // Suffixes that do not cover the delta's growth (one location too
        // many, whatever the actual growth is).
        let (delta, locs, sizes) = &w.steps[0];
        let mut long_locs = locs.clone();
        long_locs.push(0);
        let err = durable
            .window(
                &env,
                Some(delta),
                &long_locs,
                sizes,
                TrafficProfile::uniform(delta.new_num_vertices(), 8.0),
                10.0,
                t_opt,
            )
            .expect_err("mis-sized location suffix");
        assert!(matches!(err, DurableWindowError::Input(_)), "{err}");

        // A fault report with every DC dead, or with fewer flags than DCs,
        // is refused where it is noted, before anything is logged (replay
        // would reject the record and strand the store): the carried plan
        // is untouched and the window after it commits with no flags.
        durable
            .window(&env, None, &[], &[], TrafficProfile::uniform(n, 8.0), 10.0, t_opt)
            .expect("window 0");
        for (bad, want) in [
            (vec![true; env.num_dcs()], PlanError::NoLiveDc),
            (
                vec![true; 3],
                PlanError::LengthMismatch {
                    what: "dead-DC flags",
                    expected: env.num_dcs(),
                    found: 3,
                },
            ),
        ] {
            let lsn = durable.store().next_lsn();
            let masters = durable.masters().to_vec();
            assert_eq!(durable.note_fault(&bad), Err(want));
            assert_eq!(durable.store().next_lsn(), lsn, "a refused report logs nothing");
            assert_eq!(durable.masters(), &masters[..], "a refused report moves nothing");
            assert_eq!(durable.inner.noted_fault, None);
            let window = durable.next_window();
            durable
                .window(&env, None, &[], &[], TrafficProfile::uniform(n, 8.0), 10.0, t_opt)
                .expect("well-formed window after a rejected report");
            assert_eq!(durable.next_window(), window + 1);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn refused_profile_leaves_the_pipeline_usable() {
        // A profile value that is not a load — window 0's whole profile, a
        // delta window's suffix — is a typed plan error, refused before the
        // window start is logged or the owned graph advances: the same
        // window retried with a good profile commits, and recovery finds
        // every window committed.
        let w = workload();
        let env = ec2_eight_regions();
        let dir = tmp_dir("refused_profile");
        let t_opt = Duration::from_secs(60);
        let mut durable =
            DurableAdaptive::create(&dir, pinned_config(13), Some(0.4), w.geo0.clone(), &env, 0)
                .expect("create");
        let n = w.geo0.num_vertices();
        let refuse = |durable: &mut DurableAdaptive, delta: Option<&GraphDelta>, bad: f32| {
            let (lsn, vertices) = (durable.store().next_lsn(), durable.geo().num_vertices());
            let new_n = delta.map_or(vertices, GraphDelta::new_num_vertices);
            let mut profile = TrafficProfile::uniform(new_n, 8.0);
            profile.apply_bytes[new_n - 1] = bad;
            let grown = new_n - vertices;
            let err = durable
                .window(&env, delta, &vec![0; grown], &vec![2048; grown], profile, 10.0, t_opt)
                .expect_err("a profile value that is not a load");
            let DurableWindowError::Window(WindowError::Plan(refused)) = err else {
                panic!("expected a plan error, got {err}");
            };
            assert!(matches!(refused, PlanError::ProfileOutOfRange { .. }), "{refused}");
            assert_eq!(durable.store().next_lsn(), lsn, "a refused window logs nothing");
            assert_eq!(durable.geo().num_vertices(), vertices, "a refused window advances nothing");
        };

        refuse(&mut durable, None, -1.0);
        let good = TrafficProfile::uniform(n, 8.0);
        durable.window(&env, None, &[], &[], good, 10.0, t_opt).expect("window 0 retried");
        let masters = durable.masters().to_vec();

        let new_vertex = GraphDelta::from_events(&w.geo0.graph, &[insert(n as VertexId, 0)]);
        assert_eq!(new_vertex.new_num_vertices(), n + 1);
        refuse(&mut durable, Some(&new_vertex), f32::NAN);
        assert_eq!(durable.masters(), &masters[..], "a refused window moves nothing");
        let good = TrafficProfile::uniform(n + 1, 8.0);
        durable
            .window(&env, Some(&new_vertex), &[0], &[2048], good, 10.0, t_opt)
            .expect("delta window retried");
        durable
            .window(&env, None, &[], &[], TrafficProfile::uniform(n + 1, 8.0), 10.0, t_opt)
            .expect("stationary window");
        drop(durable);

        let (recovered, summary) =
            DurableAdaptive::recover(&dir, pinned_config(13), Some(0.4), &env, 0).expect("recover");
        assert_eq!(summary.next_window, 3);
        assert!(!summary.rolled_back, "every logged window committed");
        assert_eq!(recovered.geo().num_vertices(), n + 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn insert(src: VertexId, dst: VertexId) -> geograph::dynamic::EdgeEvent {
        use geograph::dynamic::{EdgeEvent, EventKind};
        EdgeEvent { src, dst, timestamp_ms: 0, kind: EventKind::Insert }
    }
}
