//! Self-healing training under WAN faults: the driver half of the recovery
//! policy.
//!
//! [`train_under_faults`] runs the Fig 5 loop against a time-indexed
//! [`FaultSchedule`], treating each wall-clock training step as one tick of
//! the schedule. When a fault fires:
//!
//! * **DC outage** is modeled as a coordinator crash — the live session is
//!   discarded and the run resumes from the last [`TrainerCheckpoint`] it
//!   took (LA probabilities, UCB statistics, RNG, placement; a value this
//!   driver holds in memory, never written anywhere) and then evacuates
//!   every master off the dark DC via the batched move-evaluation
//!   kernel. Training *continues* from the restored automata state rather
//!   than restarting cold: the learned probabilities already encode the
//!   score landscape, so only the evacuated vertices' neighborhoods need
//!   re-learning.
//! * **Bandwidth degradation / price surge / recovery** mutate the
//!   environment in place: the placement is re-priced under the new
//!   [`CloudEnv`] and the sampling scheduler restarts its measurements
//!   (a fault registers as a dynamicity spike for the Eq 14 schedule).
//!
//! The wall-step counter is decoupled from the session's internal step
//! index on purpose: a crash-restore rewinds the trainer's logical step
//! (weights schedule, Eq 6/7) to the checkpoint, but the fault schedule
//! keeps marching forward — otherwise the outage event would re-fire
//! against the rewound clock and the run would livelock on the same fault.

use geograph::{DcId, GeoGraph};
use geopart::HybridState;
use geosim::faults::FaultSchedule;
use geosim::CloudEnv;

use crate::config::RlCutConfig;
use crate::stats::RlCutResult;
use crate::trainer::{TrainError, TrainerSession};

/// What happened during a fault-injected training run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultTrainReport {
    /// Schedule steps at which at least one fault event fired.
    pub fault_events_handled: usize,
    /// Checkpoint restores triggered by DC outages.
    pub crash_recoveries: usize,
    /// Evacuations performed (one per step with ≥1 dark DC).
    pub evacuations: usize,
    /// Total masters moved off dark DCs across all evacuations.
    pub evacuated_vertices: usize,
    /// Checkpoints taken (including the initial one).
    pub checkpoints_taken: usize,
    /// Training steps actually executed (the schedule's clock).
    pub wall_steps: usize,
}

/// Trains `initial` under `base_env` while `schedule` injects faults,
/// checkpointing every `checkpoint_every` wall steps (0 ⇒ only the initial
/// checkpoint). Returns the usual training result plus a report of the
/// recovery actions taken.
///
/// Deterministic: the same seed, graph, and schedule produce bit-identical
/// placements, checkpoints, and reports.
pub fn train_under_faults<'g>(
    geo: &'g GeoGraph,
    base_env: &CloudEnv,
    initial: HybridState<'g>,
    config: &RlCutConfig,
    schedule: &FaultSchedule,
    checkpoint_every: usize,
) -> Result<(RlCutResult<'g>, FaultTrainReport), TrainError> {
    assert_eq!(
        schedule.num_dcs(),
        base_env.num_dcs(),
        "fault schedule covers {} DCs, environment has {}",
        schedule.num_dcs(),
        base_env.num_dcs()
    );
    let profile = initial.core().profile().clone();
    let num_iterations = initial.core().num_iterations();
    let mut report = FaultTrainReport::default();

    let mut view = schedule.view_at(base_env, 0);
    let mut session = TrainerSession::new(geo, view.env(), initial, config.clone());
    // A schedule can open with faults already active (step-0 events).
    if schedule.changes_at(0) {
        report.fault_events_handled += 1;
        if let Some(evac) = session.on_environment_change(&view)? {
            report.evacuations += 1;
            report.evacuated_vertices += evac.vertices_moved;
        }
    }
    let mut latest = session.checkpoint();
    report.checkpoints_taken += 1;

    let mut wall: u64 = 0;
    loop {
        if wall > 0 && schedule.changes_at(wall) {
            report.fault_events_handled += 1;
            let prev = view;
            view = schedule.view_at(base_env, wall);
            let newly_dead =
                (0..schedule.num_dcs() as DcId).any(|d| view.is_dead(d) && !prev.is_dead(d));
            if newly_dead {
                // Outage ⇒ crash: discard the live session, resume from
                // the last checkpoint under the degraded env.
                session = TrainerSession::resume(
                    geo,
                    view.env(),
                    &latest,
                    config.clone(),
                    profile.clone(),
                    num_iterations,
                );
                report.crash_recoveries += 1;
            }
            if let Some(evac) = session.on_environment_change(&view)? {
                report.evacuations += 1;
                report.evacuated_vertices += evac.vertices_moved;
            }
        }
        if session.step(view.env())?.is_none() {
            break;
        }
        report.wall_steps += 1;
        wall += 1;
        if checkpoint_every > 0 && report.wall_steps % checkpoint_every == 0 {
            latest = session.checkpoint();
            report.checkpoints_taken += 1;
        }
    }
    Ok((session.finish(view.env()), report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use geograph::generators::{rmat, RmatConfig};
    use geograph::locality::LocalityConfig;
    use geograph::GeoGraph;
    use geopart::TrafficProfile;
    use geosim::regions::ec2_eight_regions;

    fn small_setup() -> (GeoGraph, CloudEnv, f64) {
        let graph = rmat(&RmatConfig::social(256, 1500), 11);
        let geo = GeoGraph::from_graph(graph, &LocalityConfig::paper_default(11));
        let env = ec2_eight_regions();
        let budget = geosim::cost::default_budget(&env, &geo.locations, &geo.data_sizes, 0.4);
        (geo, env, budget)
    }

    fn initial_state<'g>(geo: &'g GeoGraph, env: &CloudEnv) -> HybridState<'g> {
        HybridState::natural(geo, env, 100, TrafficProfile::uniform(geo.num_vertices(), 8.0), 10.0)
    }

    #[test]
    fn quiet_schedule_matches_plain_training() {
        let (geo, env, budget) = small_setup();
        let config = RlCutConfig::new(budget).with_seed(5).with_max_steps(6);
        let schedule = FaultSchedule::quiet(env.num_dcs(), 64);
        let (faulted, report) =
            train_under_faults(&geo, &env, initial_state(&geo, &env), &config, &schedule, 2)
                .unwrap();
        let plain = crate::trainer::train(&geo, &env, initial_state(&geo, &env), &config);
        assert_eq!(report.crash_recoveries, 0);
        assert_eq!(report.evacuations, 0);
        assert_eq!(
            faulted.state.core().masters(),
            plain.state.core().masters(),
            "a quiet schedule must not perturb training"
        );
    }

    #[test]
    fn outage_triggers_recovery_and_evacuation() {
        let (geo, env, budget) = small_setup();
        let config = RlCutConfig::new(budget).with_seed(5).with_max_steps(8);
        let schedule = FaultSchedule::single_outage(env.num_dcs(), 64, 2, 3);
        let (result, report) =
            train_under_faults(&geo, &env, initial_state(&geo, &env), &config, &schedule, 2)
                .unwrap();
        assert_eq!(report.crash_recoveries, 1);
        assert_eq!(report.evacuations, 1);
        assert!(report.evacuated_vertices > 0, "DC 2 hosted masters to move");
        assert!(report.wall_steps > 3, "training continued past the fault");
        // single_outage never recovers within the horizon here (recovery at
        // step 3 + duration), so if it recovered the masters may return;
        // just assert the run produced a valid plan.
        assert_eq!(result.state.core().masters().len(), geo.num_vertices());
    }

    #[test]
    fn fault_training_deterministic_across_thread_counts() {
        // The crash-restore path rebuilds the session (and with it the
        // worker pool); the result must still be independent of how many
        // pool workers evaluate moves.
        let (geo, env, budget) = small_setup();
        let schedule = FaultSchedule::single_outage(env.num_dcs(), 64, 1, 2);
        let run = |threads: usize| {
            let config = RlCutConfig::new(budget)
                .with_seed(9)
                .with_max_steps(8)
                .with_fixed_sample_rate(1.0)
                .with_threads(threads);
            train_under_faults(&geo, &env, initial_state(&geo, &env), &config, &schedule, 3)
                .unwrap()
        };
        let (a, ra) = run(1);
        let (b, rb) = run(4);
        assert_eq!(ra, rb);
        assert_eq!(a.state.core().masters(), b.state.core().masters());
    }

    #[test]
    fn fault_recovery_does_not_leak_pool_workers() {
        // Every outage tears down a pooled session and resumes a new one;
        // repeated crash/restore cycles must join the old workers.
        let (geo, env, budget) = small_setup();
        let config = RlCutConfig::new(budget).with_seed(7).with_max_steps(10).with_threads(4);
        let schedule = FaultSchedule::single_outage(env.num_dcs(), 64, 2, 3);
        let before = crate::pool::live_os_threads();
        for _ in 0..3 {
            let (_, report) =
                train_under_faults(&geo, &env, initial_state(&geo, &env), &config, &schedule, 2)
                    .unwrap();
            assert_eq!(report.crash_recoveries, 1);
        }
        let after = crate::pool::settled_os_threads(before + 1);
        assert!(
            after <= before + 1,
            "pool workers leaked across fault recoveries: {before} -> {after}"
        );
    }

    #[test]
    fn fault_training_is_deterministic() {
        let (geo, env, budget) = small_setup();
        let config = RlCutConfig::new(budget).with_seed(9).with_max_steps(8);
        let schedule = FaultSchedule::single_outage(env.num_dcs(), 64, 1, 2);
        let run = || {
            train_under_faults(&geo, &env, initial_state(&geo, &env), &config, &schedule, 3)
                .unwrap()
        };
        let (a, ra) = run();
        let (b, rb) = run();
        assert_eq!(ra, rb);
        assert_eq!(a.state.core().masters(), b.state.core().masters());
    }
}
