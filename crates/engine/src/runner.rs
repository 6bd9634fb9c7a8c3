//! Executes an algorithm over a partitioning plan, attributing every
//! inter-DC message to the DCs the plan chose.

use geograph::{DcId, GeoGraph, VertexId};
use geopart::state::PlacementState;
use geopart::EdgeCutState;
use geosim::transfer::iteration_time;
use geosim::{CloudEnv, StageLoads};

use crate::algorithm::Algorithm;
use crate::algorithms::{bfs_levels, pagerank, triangle_count};

/// The computed result of the analytics job (verifiable against a
/// single-machine reference — same code path, so trivially equal here, but
/// exposed so tests can check plan-independence).
#[derive(Clone, Debug, PartialEq)]
pub enum AlgoOutput {
    Ranks(Vec<f64>),
    Distances(Vec<u32>),
    Triangles(u64),
}

/// What one execution cost: the paper's runtime metrics (Eq 1 summed over
/// iterations, Eq 5 summed, WAN bytes) plus the algorithm output.
#[derive(Clone, Debug)]
pub struct ExecutionReport {
    pub iterations: usize,
    /// Σ_i T(i): total inter-DC transfer time, seconds.
    pub transfer_time: f64,
    /// Σ_i C_rt(i): runtime upload cost, dollars.
    pub runtime_cost: f64,
    /// Total bytes uploaded to the WAN.
    pub wan_bytes: f64,
    /// T(i) per iteration.
    pub per_iteration_time: Vec<f64>,
    pub output: AlgoOutput,
}

/// Per-round activation sets: `senders[r]` updated their value in round
/// `r-1` (drive gather traffic), `changed[r]` updated in round `r` (drive
/// apply traffic).
struct Rounds {
    senders: Vec<Vec<VertexId>>,
    changed: Vec<Vec<VertexId>>,
    output: AlgoOutput,
}

fn plan_rounds(geo: &GeoGraph, algo: &Algorithm) -> Rounds {
    let all: Vec<VertexId> = (0..geo.num_vertices() as VertexId).collect();
    match algo {
        Algorithm::PageRank { iterations, damping } => {
            let ranks = pagerank(&geo.graph, *iterations, *damping);
            Rounds {
                senders: vec![all.clone(); *iterations],
                changed: vec![all; *iterations],
                output: AlgoOutput::Ranks(ranks),
            }
        }
        Algorithm::Sssp { source } => {
            let bfs = bfs_levels(&geo.graph, *source);
            let rounds = bfs.frontiers.len();
            // Round r: the previous frontier's new distances propagate
            // (gather), this round's frontier settles and syncs (apply).
            let mut senders = Vec::with_capacity(rounds);
            let mut changed = Vec::with_capacity(rounds);
            for r in 0..rounds {
                senders.push(if r == 0 { Vec::new() } else { bfs.frontiers[r - 1].clone() });
                changed.push(bfs.frontiers[r].clone());
            }
            Rounds { senders, changed, output: AlgoOutput::Distances(bfs.distances) }
        }
        Algorithm::SubgraphIso { iterations } => {
            let triangles = triangle_count(&geo.graph);
            Rounds {
                senders: vec![all.clone(); *iterations],
                changed: vec![all; *iterations],
                output: AlgoOutput::Triangles(triangles),
            }
        }
    }
}

/// Per-round traffic accumulator for replica-based plans. Holds the
/// reusable scratch (sender flags, receiver stamps, DC dedup) across
/// rounds.
struct ReplicaTraffic<'a> {
    geo: &'a GeoGraph,
    plan: &'a PlacementState,
    in_edge_dcs: Option<&'a [DcId]>,
    profile: geopart::TrafficProfile,
    /// The plan's degree classes, one byte a vertex: the gather loop tests
    /// one per edge, and the plan keeps them inside its 24-byte meta
    /// records.
    is_high: Vec<bool>,
    gather: StageLoads,
    apply: StageLoads,
    is_sender: Vec<bool>,
    receiver_stamp: Vec<u32>,
    dc_seen: Vec<bool>,
}

impl<'a> ReplicaTraffic<'a> {
    fn new(
        geo: &'a GeoGraph,
        plan: &'a PlacementState,
        in_edge_dcs: Option<&'a [DcId]>,
        profile: geopart::TrafficProfile,
        num_dcs: usize,
    ) -> Self {
        let n = geo.num_vertices();
        ReplicaTraffic {
            geo,
            plan,
            in_edge_dcs,
            profile,
            is_high: (0..n as VertexId).map(|v| plan.is_high(v)).collect(),
            gather: StageLoads::new(num_dcs),
            apply: StageLoads::new(num_dcs),
            is_sender: vec![false; n],
            receiver_stamp: vec![u32::MAX; n],
            dc_seen: vec![false; num_dcs],
        }
    }

    /// Accumulates one round's gather/apply loads into `self.gather` /
    /// `self.apply` and returns them.
    fn round(
        &mut self,
        round: usize,
        senders: &[VertexId],
        changed: &[VertexId],
    ) -> (&StageLoads, &StageLoads) {
        let plan = self.plan;
        let geo = self.geo;
        self.gather.clear();
        self.apply.clear();
        for &u in senders {
            self.is_sender[u as usize] = true;
        }
        // Gather: every high-degree vertex with an updated in-neighbor
        // receives one aggregated message per remote DC holding such
        // in-edges.
        let round_stamp = round as u32;
        for &u in senders {
            for &v in geo.graph.out_neighbors(u) {
                if !self.is_high[v as usize] || self.receiver_stamp[v as usize] == round_stamp {
                    continue;
                }
                self.receiver_stamp[v as usize] = round_stamp;
                let master = plan.master(v);
                let (g, _) = self.profile.units(v).expect("an algorithm profile quantises");
                let base = geo.graph.in_edge_offset(v);
                for (k, &src) in geo.graph.in_neighbors(v).iter().enumerate() {
                    if !self.is_sender[src as usize] {
                        continue;
                    }
                    let d = match self.in_edge_dcs {
                        Some(dcs) => dcs[base + k],
                        None => plan.master(src), // hybrid rule for high-degree v
                    };
                    if d != master && !self.dc_seen[d as usize] {
                        self.dc_seen[d as usize] = true;
                        self.gather.add_transfer(d, master, g as u64);
                    }
                }
                self.dc_seen.iter_mut().for_each(|s| *s = false);
            }
        }
        // Apply: every changed vertex syncs its mirrors.
        for &v in changed {
            let master = plan.master(v);
            let (_, a) = self.profile.units(v).expect("an algorithm profile quantises");
            let mut mask = plan.mirror_mask(v);
            while mask != 0 {
                let d = mask.trailing_zeros() as DcId;
                mask &= mask - 1;
                self.apply.add_transfer(master, d, a as u64);
            }
        }
        for &u in senders {
            self.is_sender[u as usize] = false;
        }
        (&self.gather, &self.apply)
    }
}

/// Executes `algo` over a replica-based plan (hybrid-cut or vertex-cut).
///
/// `in_edge_dcs`: per-in-edge DC assignment aligned with the in-CSR layout
/// (see [`geopart::vertexcut::VertexCutState::in_edge_dcs`]); `None` means
/// the hybrid-cut placement rule is derived from the plan's masters.
pub fn execute_plan(
    geo: &GeoGraph,
    env: &CloudEnv,
    plan: &PlacementState,
    in_edge_dcs: Option<&[DcId]>,
    algo: &Algorithm,
) -> ExecutionReport {
    run_rounds(geo, env, plan, in_edge_dcs, algo, None).report
}

/// Outcome of executing a plan while some DCs go dark.
#[derive(Clone, Debug)]
pub struct FaultedExecutionReport {
    /// Metrics for the rounds that actually ran: all of [`execute_plan`]'s
    /// if the job completed, its first `round` if it aborted.
    pub report: ExecutionReport,
    /// `Some((round, dc))` if the job aborted because `dc` — which hosts
    /// replicas of this plan — went dark at `round`. The caller is expected
    /// to re-seed the plan off the dead DC (a fault window) and re-run.
    pub aborted_at: Option<(usize, DcId)>,
}

/// Executes `algo` over a replica-based plan whose `dead` DCs (one flag
/// per DC) go dark at round `at_round`.
///
/// The job aborts there only if the plan puts a master or a mirror on a
/// dead DC (the lowest such DC is reported); an outage elsewhere, or after
/// the last round, does not touch it. The rounds that ran are
/// [`execute_plan`]'s to the bit, so recovery experiments can measure the
/// wasted work.
pub fn execute_plan_under_faults(
    geo: &GeoGraph,
    env: &CloudEnv,
    plan: &PlacementState,
    in_edge_dcs: Option<&[DcId]>,
    algo: &Algorithm,
    dead: &[bool],
    at_round: usize,
) -> FaultedExecutionReport {
    assert_eq!(dead.len(), env.num_dcs());
    let used = (0..geo.num_vertices() as VertexId)
        .fold(0u64, |used, v| used | 1u64 << plan.master(v) | plan.mirror_mask(v));
    let hit = (0..env.num_dcs() as DcId).find(|&d| dead[d as usize] && used >> d & 1 == 1);
    run_rounds(geo, env, plan, in_edge_dcs, algo, hit.map(|dc| (at_round, dc)))
}

/// The one round loop of both replica-plan executors: Eq 1 and Eq 5 per
/// round, stopping before round `abort.0` when `abort` is set.
fn run_rounds(
    geo: &GeoGraph,
    env: &CloudEnv,
    plan: &PlacementState,
    in_edge_dcs: Option<&[DcId]>,
    algo: &Algorithm,
    abort: Option<(usize, DcId)>,
) -> FaultedExecutionReport {
    assert_eq!(plan.num_vertices(), geo.num_vertices());
    let rounds = plan_rounds(geo, algo);
    let mut traffic = ReplicaTraffic::new(geo, plan, in_edge_dcs, algo.profile(geo), env.num_dcs());

    let mut per_iteration_time = Vec::with_capacity(rounds.senders.len());
    let (mut total_time, mut total_cost, mut total_bytes) = (0.0, 0.0, 0.0);
    let mut aborted_at = None;

    for (round, (senders, changed)) in rounds.senders.iter().zip(&rounds.changed).enumerate() {
        if abort.is_some_and(|(at, _)| at == round) {
            aborted_at = abort;
            break;
        }
        let (gather, apply) = traffic.round(round, senders, changed);
        let t = iteration_time(gather, apply, env);
        per_iteration_time.push(t);
        total_time += t;
        total_cost += gather.upload_cost(env) + apply.upload_cost(env);
        total_bytes += gather.total_up() + apply.total_up();
    }

    FaultedExecutionReport {
        report: ExecutionReport {
            iterations: per_iteration_time.len(),
            transfer_time: total_time,
            runtime_cost: total_cost,
            wan_bytes: total_bytes,
            per_iteration_time,
            output: rounds.output,
        },
        aborted_at,
    }
}

/// Executes `algo` over an edge-cut plan: one Pregel superstep of combiner
/// messages per iteration, no replica synchronization.
pub fn execute_edgecut(
    geo: &GeoGraph,
    env: &CloudEnv,
    plan: &EdgeCutState,
    algo: &Algorithm,
) -> ExecutionReport {
    let rounds = plan_rounds(geo, algo);
    let profile = algo.profile(geo);
    let m = env.num_dcs();
    let n = geo.num_vertices();
    let assignment = plan.assignment();

    let mut loads = StageLoads::new(m);
    let mut is_sender = vec![false; n];
    let mut receiver_stamp = vec![u32::MAX; n];
    let mut dc_seen = vec![false; m];

    let mut per_iteration_time = Vec::with_capacity(rounds.senders.len());
    let (mut total_time, mut total_cost, mut total_bytes) = (0.0, 0.0, 0.0);

    for (round, senders) in rounds.senders.iter().enumerate() {
        loads.clear();
        for &u in senders {
            is_sender[u as usize] = true;
        }
        let stamp = round as u32;
        for &u in senders {
            for &v in geo.graph.out_neighbors(u) {
                if receiver_stamp[v as usize] == stamp {
                    continue;
                }
                receiver_stamp[v as usize] = stamp;
                let home = assignment[v as usize];
                let (g, _) = profile.units(v).expect("an algorithm profile quantises");
                for &src in geo.graph.in_neighbors(v) {
                    if !is_sender[src as usize] {
                        continue;
                    }
                    let d = assignment[src as usize];
                    if d != home && !dc_seen[d as usize] {
                        dc_seen[d as usize] = true;
                        loads.add_transfer(d, home, g as u64);
                    }
                }
                dc_seen.iter_mut().for_each(|s| *s = false);
            }
        }
        for &u in senders {
            is_sender[u as usize] = false;
        }
        let t = loads.transfer_time(env);
        per_iteration_time.push(t);
        total_time += t;
        total_cost += loads.upload_cost(env);
        total_bytes += loads.total_up();
    }

    ExecutionReport {
        iterations: per_iteration_time.len(),
        transfer_time: total_time,
        runtime_cost: total_cost,
        wan_bytes: total_bytes,
        per_iteration_time,
        output: rounds.output,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geograph::generators::{rmat, RmatConfig};
    use geograph::locality::LocalityConfig;
    use geopart::HybridState;
    use geosim::regions::ec2_eight_regions;

    fn setup() -> (GeoGraph, CloudEnv) {
        let g = rmat(&RmatConfig::social(512, 4096), 33);
        let geo = GeoGraph::from_graph(g, &LocalityConfig::paper_default(33));
        (geo, ec2_eight_regions())
    }

    fn hybrid<'g>(geo: &'g GeoGraph, env: &CloudEnv, algo: &Algorithm) -> HybridState<'g> {
        let theta = geograph::degree::suggest_theta(&geo.graph, 0.05);
        HybridState::natural(geo, env, theta, algo.profile(geo), algo.expected_iterations())
    }

    #[test]
    fn pagerank_traffic_matches_static_plan_loads() {
        // With every vertex active every round, the engine's per-round
        // traffic must equal the plan's static Eq 1 loads exactly.
        let (geo, env) = setup();
        let algo = Algorithm::pagerank();
        let plan = hybrid(&geo, &env, &algo);
        let report = execute_plan(&geo, &env, plan.core(), None, &algo);
        let static_time = plan.objective(&env).transfer_time;
        for (i, &t) in report.per_iteration_time.iter().enumerate() {
            assert!(
                (t - static_time).abs() < 1e-9 * static_time.max(1e-12),
                "round {i}: engine {t} vs static {static_time}"
            );
        }
        assert_eq!(report.iterations, 10);
        let static_cost = plan.objective(&env).runtime_cost;
        assert!((report.runtime_cost - static_cost).abs() < 1e-9 * static_cost.max(1e-12));
    }

    #[test]
    fn algorithm_output_is_plan_independent() {
        let (geo, env) = setup();
        let algo = Algorithm::pagerank();
        let natural = hybrid(&geo, &env, &algo);
        let centralized = HybridState::from_masters(
            &geo,
            &env,
            vec![0; geo.num_vertices()],
            natural.theta(),
            algo.profile(&geo),
            algo.expected_iterations(),
        );
        let r1 = execute_plan(&geo, &env, natural.core(), None, &algo);
        let r2 = execute_plan(&geo, &env, centralized.core(), None, &algo);
        assert_eq!(r1.output, r2.output);
        // But the centralized plan moves no runtime data.
        assert_eq!(r2.transfer_time, 0.0);
        assert!(r1.transfer_time > 0.0);
    }

    #[test]
    fn sssp_cheaper_than_pagerank() {
        // Frontier activation touches each vertex once; PR touches all ten
        // times. Same plan, same message size.
        let (geo, env) = setup();
        let pr = Algorithm::pagerank();
        let sssp = Algorithm::sssp(&geo);
        let plan = hybrid(&geo, &env, &pr);
        let r_pr = execute_plan(&geo, &env, plan.core(), None, &pr);
        let r_sssp = execute_plan(&geo, &env, plan.core(), None, &sssp);
        assert!(r_sssp.wan_bytes < r_pr.wan_bytes);
        let AlgoOutput::Distances(d) = &r_sssp.output else { panic!() };
        assert!(d.iter().any(|&x| x != crate::algorithms::sssp::UNREACHABLE));
    }

    #[test]
    fn si_reports_triangles() {
        let (geo, env) = setup();
        let algo = Algorithm::subgraph_iso();
        let plan = hybrid(&geo, &env, &algo);
        let report = execute_plan(&geo, &env, plan.core(), None, &algo);
        assert_eq!(report.iterations, 3);
        let AlgoOutput::Triangles(t) = report.output else { panic!() };
        assert_eq!(t, triangle_count(&geo.graph));
    }

    fn bits(times: &[f64]) -> Vec<u64> {
        times.iter().map(|t| t.to_bits()).collect()
    }

    #[test]
    fn no_dead_dc_execution_matches_plain() {
        let (geo, env) = setup();
        let algo = Algorithm::pagerank();
        let plan = hybrid(&geo, &env, &algo);
        let dead = vec![false; env.num_dcs()];
        let faulted = execute_plan_under_faults(&geo, &env, plan.core(), None, &algo, &dead, 0);
        let plain = execute_plan(&geo, &env, plan.core(), None, &algo);
        assert!(faulted.aborted_at.is_none());
        assert_eq!(bits(&faulted.report.per_iteration_time), bits(&plain.per_iteration_time));
        assert_eq!(faulted.report.transfer_time.to_bits(), plain.transfer_time.to_bits());
        assert_eq!(faulted.report.runtime_cost.to_bits(), plain.runtime_cost.to_bits());
        assert_eq!(faulted.report.wan_bytes.to_bits(), plain.wan_bytes.to_bits());
    }

    #[test]
    fn outage_of_hosting_dc_aborts_the_round() {
        let (geo, env) = setup();
        let algo = Algorithm::pagerank();
        let plan = hybrid(&geo, &env, &algo);
        let victim = plan.core().master(0);
        let mut dead = vec![false; env.num_dcs()];
        dead[victim as usize] = true;
        let faulted = execute_plan_under_faults(&geo, &env, plan.core(), None, &algo, &dead, 5);
        assert_eq!(faulted.aborted_at, Some((5, victim)));
        assert_eq!(faulted.report.iterations, 5, "only the pre-outage prefix ran");
        let plain = execute_plan(&geo, &env, plan.core(), None, &algo);
        assert_eq!(
            bits(&faulted.report.per_iteration_time),
            bits(&plain.per_iteration_time[..5]),
            "the prefix is the healthy run's first five rounds"
        );
    }

    #[test]
    fn outage_of_unused_dc_is_harmless() {
        let (geo, env) = setup();
        let algo = Algorithm::pagerank();
        // Centralize everything on DC 0, then kill DC 7.
        let plan = HybridState::from_masters(
            &geo,
            &env,
            vec![0; geo.num_vertices()],
            50,
            algo.profile(&geo),
            algo.expected_iterations(),
        );
        let mut dead = vec![false; env.num_dcs()];
        dead[7] = true;
        let faulted = execute_plan_under_faults(&geo, &env, plan.core(), None, &algo, &dead, 2);
        assert!(faulted.aborted_at.is_none(), "the job never touches DC 7");
        assert_eq!(faulted.report.iterations, 10);
    }

    #[test]
    fn edgecut_pagerank_matches_static_loads() {
        let (geo, env) = setup();
        let algo = Algorithm::pagerank();
        let profile = algo.profile(&geo);
        let plan = EdgeCutState::from_assignment(&geo, &env, geo.locations.clone(), &profile, 10.0);
        let report = execute_edgecut(&geo, &env, &plan, &algo);
        let static_time = plan.objective(&env).transfer_time;
        assert!((report.per_iteration_time[0] - static_time).abs() < 1e-9 * static_time.max(1e-12));
    }

    #[test]
    fn vertexcut_uses_explicit_edge_placement() {
        use geopart::vertexcut::{MasterRule, VertexCutState};
        let (geo, env) = setup();
        let algo = Algorithm::pagerank();
        let profile = algo.profile(&geo);
        let edge_dcs: Vec<DcId> =
            (0..geo.num_edges()).map(|i| (geograph::fxhash::mix64(i as u64) % 8) as DcId).collect();
        let plan = VertexCutState::from_edge_assignment(
            &geo,
            &env,
            &edge_dcs,
            MasterRule::PreferNatural,
            profile.clone(),
            10.0,
        );
        let in_dcs = plan.in_edge_dcs(&geo);
        let report = execute_plan(&geo, &env, plan.core(), Some(&in_dcs), &algo);
        // All vertices are "high" under vertex-cut, everything active:
        // engine traffic equals the static plan loads.
        let static_time = plan.objective(&env).transfer_time;
        assert!(
            (report.per_iteration_time[0] - static_time).abs() < 1e-9 * static_time.max(1e-12),
            "engine {} vs static {}",
            report.per_iteration_time[0],
            static_time
        );
    }
}
