//! Exp#6 (robustness extension): a DC outage on the durable pipeline.
//!
//! Not a paper artifact — the paper assumes a static, healthy WAN. A DC
//! outage is one more dynamicity spike for the windowed trainer (§V-C):
//! the fault is noted, and the next window logs its flags, keeps the
//! carried plan and θ, moves the masters stranded on the dead DC as logged
//! re-seed moves, trains the re-seeded set as hot, and keeps that DC
//! masked. Two pipelines run the same calls, from different starting
//! plans — in both, window 0 commits, the process dies, and the pipeline
//! recovers from its store and runs the fault window on top:
//!
//! * **recovered** — window 0 trains the plan;
//! * **cold** — window 0 samples no agent and commits the natural
//!   placement.
//!
//! Each post-fault step budget is read against the plan of a no-fault
//! `rlcut::partition`: transfer time, cost against the budget, and the
//! masters left on the dead DC (which must be none). A second table runs
//! PageRank while the same DC goes dark mid-job, to show the
//! analytics-side failure mode: the job aborts at that round.

use std::path::Path;
use std::time::Duration;

use crate::{f3, ExpContext, Table};
use geoengine::Algorithm;
use geograph::{Dataset, DcId, GeoGraph};
use geopart::TrafficProfile;
use geosim::regions::ec2_eight_regions;
use geosim::CloudEnv;
use rlcut::{DurableAdaptive, RlCutConfig, WindowReport};

/// Steps of window 0, the plan the recovered pipeline starts from.
const WINDOW0_STEPS: usize = 10;

/// Post-fault step budgets.
const FAULT_STEPS: [usize; 5] = [1, 2, 5, 10, 20];

/// Wall-clock budget of a window, far past what any run here spends, so
/// every window stops on its step count and the table is exact.
const T_OPT: Duration = Duration::from_secs(3600);

/// One pipeline through its fault window: window 0 (trained when `warm`,
/// natural otherwise), dropped and recovered from the store, then
/// `note_fault(dead)` and a window of `steps` steps. Returns that window's
/// report and the masters it left on dead DCs.
fn fault_window(
    dir: &Path,
    geo: &GeoGraph,
    env: &CloudEnv,
    config: &RlCutConfig,
    dead: &[bool],
    warm: bool,
    steps: usize,
) -> (WindowReport, usize) {
    let _ = std::fs::remove_dir_all(dir);
    let profile = || TrafficProfile::uniform(geo.num_vertices(), 8.0);
    let window0 = match warm {
        true => config.clone().with_max_steps(WINDOW0_STEPS),
        false => config.clone().with_fixed_sample_rate(0.0),
    };
    let mut first =
        DurableAdaptive::create(dir, window0, None, geo.clone(), env, 0).expect("create");
    first.window(env, None, &[], &[], profile(), 10.0, T_OPT).expect("window 0");
    drop(first);
    let at = config.clone().with_max_steps(steps);
    let mut durable = DurableAdaptive::recover(dir, at, None, env, 0).expect("recover").0;
    durable.note_fault(dead).expect("a well-formed fault report");
    let report = durable.window(env, None, &[], &[], profile(), 10.0, T_OPT).expect("fault window");
    let on_dead = durable.masters().iter().filter(|&&m| dead[m as usize]).count();
    let _ = std::fs::remove_dir_all(dir);
    (report, on_dead)
}

pub fn run(ctx: &ExpContext) {
    let env = ec2_eight_regions();
    let geo = ctx.build_geo(Dataset::LiveJournal);
    let budget = geosim::cost::default_budget(&env, &geo.locations, &geo.data_sizes, 0.4);
    let config = RlCutConfig::new(budget)
        .with_seed(ctx.seed)
        .with_threads(ctx.threads)
        .with_fixed_sample_rate(1.0)
        .with_max_steps(WINDOW0_STEPS);

    // The no-fault reference is window 0's plan: the same cold partition.
    let profile = TrafficProfile::uniform(geo.num_vertices(), 8.0);
    let no_fault = rlcut::partition(&geo, &env, profile.clone(), 10.0, &config);
    let target = no_fault.final_objective(&env).transfer_time;

    // Kill the DC hosting the most masters of that plan, right after it.
    let mut per_dc = vec![0usize; env.num_dcs()];
    for &m in no_fault.state.core().masters() {
        per_dc[m as usize] += 1;
    }
    let victim = per_dc.iter().enumerate().max_by_key(|(_, &c)| c).map(|(d, _)| d as DcId).unwrap();
    let mut dead = vec![false; env.num_dcs()];
    dead[victim as usize] = true;

    let dir = std::env::temp_dir().join(format!("exp6_faults_{}", std::process::id()));
    let mut t = Table::new(
        &format!(
            "Exp#6 — DC {victim} outage after a {WINDOW0_STEPS}-step window 0 (LJ-analog, {} \
             vertices); transfer time relative to the no-fault partition",
            geo.num_vertices()
        ),
        &[
            "Post-fault steps",
            "Recovered transfer",
            "Recovered cost/B",
            "Recovered dead-DC masters",
            "Cold transfer",
            "Cold cost/B",
            "Cold dead-DC masters",
        ],
    );
    for steps in FAULT_STEPS {
        let mut row = vec![steps.to_string()];
        for warm in [true, false] {
            let (report, on_dead) = fault_window(&dir, &geo, &env, &config, &dead, warm, steps);
            row.push(f3(report.transfer_time / target));
            row.push(f3(report.total_cost / budget));
            row.push(on_dead.to_string());
        }
        t.row(row);
    }
    t.print();

    // Analytics through the same outage: the victim goes dark at round 5
    // of 10 and the job aborts there.
    let algo = Algorithm::pagerank();
    let plan = geopart::HybridState::natural(
        &geo,
        &env,
        geograph::degree::suggest_theta(&geo.graph, 0.05),
        profile,
        10.0,
    );
    let healthy = geoengine::execute_plan(&geo, &env, plan.core(), None, &algo);
    let faulted =
        geoengine::execute_plan_under_faults(&geo, &env, plan.core(), None, &algo, &dead, 5);
    let mut t2 = Table::new(
        "Exp#6b — PageRank execution under the same schedule",
        &["Run", "Rounds done", "Transfer time (s)", "Aborted at"],
    );
    t2.row(vec![
        "healthy".into(),
        healthy.iterations.to_string(),
        f3(healthy.transfer_time),
        "-".into(),
    ]);
    t2.row(vec![
        "under faults".into(),
        faulted.report.iterations.to_string(),
        f3(faulted.report.transfer_time),
        match faulted.aborted_at {
            Some((round, dc)) => format!("round {round} (DC {dc})"),
            None => "-".into(),
        },
    ]);
    t2.print();

    println!(
        "Both pipelines run the same calls (window 0, recovery, note_fault, then one window); \
         only the starting plan differs. The fault window keeps the carried plan and theta, \
         re-seeds stranded masters home (else to the first live DC) as logged moves, trains \
         them as hot and never trains one back onto the dead DC."
    );
    println!(
        "The aborted analytics run is the trigger for the fault window; after it the plan \
         re-runs to completion on the surviving DCs."
    );
}
