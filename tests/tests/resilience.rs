//! Fault-injection and recovery invariants, cross-crate: evacuation
//! clears dark DCs without breaking plan validity, checkpoint restore is
//! bit-exact, recovery beats cold retraining, and everything is
//! deterministic per seed.

use geograph::generators::{rmat, RmatConfig};
use geograph::locality::LocalityConfig;
use geograph::{DcId, GeoGraph};
use geopart::{HybridState, MoveScratch, TrafficProfile};
use geosim::faults::{FaultModel, FaultSchedule};
use geosim::regions::ec2_eight_regions;
use geosim::CloudEnv;
use proptest::prelude::*;
use rlcut::{train_under_faults, RlCutConfig, TrainerCheckpoint, TrainerSession};

fn arb_rmat_geo() -> impl Strategy<Value = GeoGraph> {
    (8usize..24, 4usize..12, 0u64..1000).prop_map(|(n_scale, density, seed)| {
        let n = n_scale * 32;
        let g = rmat(&RmatConfig::social(n, n * density), seed);
        GeoGraph::from_graph(g, &LocalityConfig::paper_default(seed ^ 0xa5a5))
    })
}

/// A dead-DC mask over 8 DCs with at least one survivor.
fn arb_dead_mask() -> impl Strategy<Value = Vec<bool>> {
    (0u16..255).prop_map(|bits| (0..8).map(|i| bits & (1 << i) != 0).collect())
}

fn natural<'g>(geo: &'g GeoGraph, env: &CloudEnv, theta: usize) -> HybridState<'g> {
    HybridState::from_masters(
        geo,
        env,
        geo.locations.clone(),
        theta,
        TrafficProfile::uniform(geo.num_vertices(), 8.0),
        10.0,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// After `evacuate`, no master and no mirror remains on any dead DC,
    /// and the plan still passes the full rebuild-and-compare validation.
    #[test]
    fn evacuation_clears_dead_dcs_and_preserves_validity(
        geo in arb_rmat_geo(),
        theta in 2usize..12,
        dead in arb_dead_mask(),
    ) {
        let env = ec2_eight_regions();
        let mut state = natural(&geo, &env, theta);
        let mut scratch = MoveScratch::new();
        let report = state.evacuate(&env, &dead, &mut scratch).unwrap();

        let dead_mask: u64 =
            dead.iter().enumerate().filter(|(_, &d)| d).map(|(i, _)| 1u64 << i).sum();
        for v in 0..geo.num_vertices() as u32 {
            prop_assert!(
                !dead[state.master(v) as usize],
                "v{} master still on dead DC {}", v, state.master(v)
            );
            prop_assert_eq!(
                state.core().mirror_mask(v) & dead_mask, 0,
                "v{} keeps a mirror on a dead DC", v
            );
        }
        prop_assert!(state.validate_against_faults(&dead).is_ok());
        prop_assert!(state.validate_plan(&env).is_ok(), "evacuation corrupted the plan");
        // Moved exactly the masters that started on dead DCs.
        let expected =
            geo.locations.iter().filter(|&&m| dead[m as usize]).count();
        prop_assert_eq!(report.vertices_moved, expected);
    }

    /// Evacuation is deterministic: same state, same dead set ⇒ identical
    /// masters.
    #[test]
    fn evacuation_is_deterministic(
        geo in arb_rmat_geo(),
        dead in arb_dead_mask(),
    ) {
        let env = ec2_eight_regions();
        let mut a = natural(&geo, &env, 6);
        let mut b = natural(&geo, &env, 6);
        let mut scratch = MoveScratch::new();
        a.evacuate(&env, &dead, &mut scratch).unwrap();
        b.evacuate(&env, &dead, &mut scratch).unwrap();
        prop_assert_eq!(a.core().masters(), b.core().masters());
    }
}

fn test_setup(n: usize, seed: u64) -> (GeoGraph, CloudEnv, f64) {
    let g = rmat(&RmatConfig::social(n, n * 8), seed);
    let geo = GeoGraph::from_graph(g, &LocalityConfig::paper_default(seed));
    let env = ec2_eight_regions();
    let budget = geosim::cost::default_budget(&env, &geo.locations, &geo.data_sizes, 0.4);
    (geo, env, budget)
}

/// Every field of a checkpoint, floats as bit patterns, so that equality is
/// bit-identity (`-0.0` ≠ `0.0`, a NaN equals itself) and not float `==`.
fn bits(cp: TrainerCheckpoint) -> impl PartialEq + std::fmt::Debug {
    let f32s = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let best = cp.best_objective;
    (
        (cp.seed, cp.step, cp.theta, cp.num_dcs, cp.converged, cp.rng_state),
        (cp.masters, cp.best_masters, cp.plays, cp.total_plays),
        (f32s(&cp.probs), f32s(&cp.mean_reward)),
        [cp.movement_cost, best.transfer_time, best.movement_cost, best.runtime_cost]
            .map(f64::to_bits),
    )
}

/// checkpoint → restore → one step must be **bit-identical** to the
/// uninterrupted run: same masters, same next checkpoint, bit for bit.
/// (Uniform 8.0 profile keeps every load sum dyadic, so the from-masters
/// rebuild reproduces the incremental state exactly; the movement cost is
/// carried through the checkpoint.)
#[test]
fn restore_then_step_is_bit_identical_to_uninterrupted() {
    let (geo, env, budget) = test_setup(512, 21);
    let config =
        RlCutConfig::new(budget).with_seed(21).with_fixed_sample_rate(1.0).with_max_steps(12);
    let profile = TrafficProfile::uniform(geo.num_vertices(), 8.0);
    let state = HybridState::natural(&geo, &env, 80, profile.clone(), 10.0);

    let mut uninterrupted = TrainerSession::new(&geo, &env, state, config.clone());
    for _ in 0..5 {
        uninterrupted.step(&env).unwrap();
    }
    let restored_cp = uninterrupted.checkpoint();
    uninterrupted.step(&env).unwrap();

    let mut resumed = TrainerSession::resume(&geo, &env, &restored_cp, config, profile, 10.0);
    assert_eq!(resumed.step_index(), 5);
    assert_eq!(resumed.masters(), restored_cp.masters);
    resumed.step(&env).unwrap();

    assert_eq!(resumed.masters(), uninterrupted.masters(), "post-step masters diverged");
    assert_eq!(
        bits(resumed.checkpoint()),
        bits(uninterrupted.checkpoint()),
        "post-step checkpoints are not bit-identical"
    );
}

/// The headline robustness claim: after a DC outage, checkpoint-restore +
/// evacuation reaches within 5 % of the no-fault objective in at most half
/// the training steps a cold restart needs.
#[test]
fn recovery_beats_cold_restart_by_2x() {
    let (geo, env, budget) = test_setup(2048, 42);
    let max_steps = 30;
    let config = RlCutConfig::new(budget)
        .with_seed(42)
        .with_fixed_sample_rate(1.0)
        .with_max_steps(max_steps);
    let profile = TrafficProfile::uniform(geo.num_vertices(), 8.0);
    let theta = geograph::degree::suggest_theta(&geo.graph, 0.05);
    let initial = || HybridState::natural(&geo, &env, theta, profile.clone(), 10.0);

    let no_fault = rlcut::trainer::train(&geo, &env, initial(), &config);
    let target = no_fault.final_objective(&env).transfer_time * 1.05;

    // Kill the DC holding the most trained masters at step 10.
    let mut per_dc = [0usize; 8];
    for &m in no_fault.state.core().masters() {
        per_dc[m as usize] += 1;
    }
    let victim = (0..8).max_by_key(|&d| per_dc[d]).unwrap() as DcId;
    let fault_step = 10u64;
    let schedule = FaultSchedule::single_outage(env.num_dcs(), 200, victim, fault_step);

    let steps_to_reach = |steps: &[rlcut::StepStats], from: usize| -> usize {
        steps
            .iter()
            .enumerate()
            .skip(from)
            .find(|(_, s)| s.transfer_time <= target)
            .map(|(i, _)| i + 1 - from)
            .unwrap_or(max_steps)
    };

    let (healed, report) =
        train_under_faults(&geo, &env, initial(), &config, &schedule, 2).unwrap();
    assert_eq!(report.crash_recoveries, 1);
    assert!(report.evacuated_vertices > 0);
    let recovery_steps = steps_to_reach(&healed.steps, fault_step as usize);

    let view = schedule.view_at(&env, fault_step);
    let mut cold_state = initial();
    let mut scratch = MoveScratch::new();
    cold_state.evacuate(view.env(), view.dead_flags(), &mut scratch).unwrap();
    let cold = rlcut::trainer::train(&geo, view.env(), cold_state, &config);
    let cold_steps = steps_to_reach(&cold.steps, 0);

    assert!(
        2 * recovery_steps <= cold_steps,
        "recovery took {recovery_steps} post-fault steps, cold restart {cold_steps}; \
         expected at least a 2x win"
    );
    // And the healed run actually got back to the no-fault quality.
    assert!(
        healed.final_objective(view.env()).transfer_time <= target,
        "healed objective {} exceeds target {target}",
        healed.final_objective(view.env()).transfer_time
    );
}

/// Same seed ⇒ byte-identical fault schedule, evacuation result, and
/// checkpoint.
#[test]
fn fault_pipeline_is_deterministic_per_seed() {
    let (geo, env, budget) = test_setup(512, 7);

    let model = FaultModel::default();
    let s1 = FaultSchedule::generate(7, env.num_dcs(), 500, &model);
    let s2 = FaultSchedule::generate(7, env.num_dcs(), 500, &model);
    assert_eq!(s1.to_text(), s2.to_text(), "schedule generation is not deterministic");
    assert_ne!(
        s1.to_text(),
        FaultSchedule::generate(8, env.num_dcs(), 500, &model).to_text(),
        "different seeds should differ (vanishingly unlikely to collide)"
    );

    let profile = TrafficProfile::uniform(geo.num_vertices(), 8.0);
    let dead = {
        let mut d = vec![false; env.num_dcs()];
        d[2] = true;
        d
    };
    let evac = |_: ()| {
        let mut st = HybridState::natural(&geo, &env, 50, profile.clone(), 10.0);
        let mut scratch = MoveScratch::new();
        st.evacuate(&env, &dead, &mut scratch).unwrap();
        st.core().masters().to_vec()
    };
    assert_eq!(evac(()), evac(()));

    let config =
        RlCutConfig::new(budget).with_seed(7).with_fixed_sample_rate(1.0).with_max_steps(6);
    let cp = |_: ()| {
        let st = HybridState::natural(&geo, &env, 50, profile.clone(), 10.0);
        let mut s = TrainerSession::new(&geo, &env, st, config.clone());
        for _ in 0..4 {
            s.step(&env).unwrap();
        }
        s.checkpoint()
    };
    assert_eq!(bits(cp(())), bits(cp(())), "checkpoints are not bit-identical across runs");
}
