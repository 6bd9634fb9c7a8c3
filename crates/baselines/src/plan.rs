//! [`PlanKind`]: one type unifying the three plan models so the experiment
//! harness can compare partitioners on identical terms.

use geoengine::{execute_edgecut, execute_plan, Algorithm, ExecutionReport};
use geograph::GeoGraph;
use geopart::state::Objective;
use geopart::vertexcut::VertexCutState;
use geopart::{EdgeCutState, HybridState};
use geosim::CloudEnv;

/// A partitioning plan of any model.
pub enum PlanKind<'g> {
    Hybrid(HybridState<'g>),
    Vertex(VertexCutState),
    Edge(EdgeCutState),
}

impl<'g> PlanKind<'g> {
    /// Static objective (expected per-iteration time + job cost).
    pub fn objective(&self, env: &CloudEnv) -> Objective {
        match self {
            PlanKind::Hybrid(s) => s.objective(env),
            PlanKind::Vertex(s) => s.objective(env),
            PlanKind::Edge(s) => s.objective(env),
        }
    }

    /// Replication factor λ (1.0 for edge-cut: vertices are not
    /// replicated, they message instead).
    pub fn replication_factor(&self) -> f64 {
        match self {
            PlanKind::Hybrid(s) => s.core().replication_factor(),
            PlanKind::Vertex(s) => s.replication_factor(),
            PlanKind::Edge(_) => 1.0,
        }
    }

    /// Executes `algo` over this plan with the `geoengine` runner,
    /// attributing traffic per the plan's model.
    pub fn execute(&self, geo: &GeoGraph, env: &CloudEnv, algo: &Algorithm) -> ExecutionReport {
        match self {
            PlanKind::Hybrid(s) => execute_plan(geo, env, s.core(), None, algo),
            PlanKind::Vertex(s) => {
                let in_dcs = s.in_edge_dcs(geo);
                execute_plan(geo, env, s.core(), Some(&in_dcs), algo)
            }
            PlanKind::Edge(s) => execute_edgecut(geo, env, s, algo),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geograph::generators::{rmat, RmatConfig};
    use geograph::locality::LocalityConfig;
    use geopart::TrafficProfile;
    use geosim::regions::ec2_eight_regions;

    #[test]
    fn dispatch_covers_all_models() {
        let g = rmat(&RmatConfig::social(256, 2048), 9);
        let geo = GeoGraph::from_graph(g, &LocalityConfig::paper_default(9));
        let env = ec2_eight_regions();
        let algo = Algorithm::pagerank();
        let profile: TrafficProfile = algo.profile(&geo);
        let theta = geograph::degree::suggest_theta(&geo.graph, 0.05);

        let plans = vec![
            PlanKind::Hybrid(crate::hashpl(&geo, &env, theta, profile.clone(), 10.0, 1)),
            PlanKind::Vertex(crate::randpg(&geo, &env, profile.clone(), 10.0, 1)),
            PlanKind::Edge(crate::revolver(
                &geo,
                &env,
                crate::revolver::RevolverConfig { iterations: 10, ..Default::default() },
                profile,
                10.0,
            )),
        ];
        for plan in &plans {
            let obj = plan.objective(&env);
            assert!(obj.transfer_time >= 0.0);
            let report = plan.execute(&geo, &env, &algo);
            assert_eq!(report.iterations, 10);
            assert!(plan.replication_factor() >= 1.0);
        }
    }
}
