//! Edge-cut placement: per-vertex DC assignment with Pregel-style combiner
//! messages (the model of Spinner and Revolver, §II-B).
//!
//! Every vertex lives wholly in one DC. Each iteration, for every vertex
//! `v` and every *other* DC hosting at least one of `v`'s in-neighbors, one
//! combined message of `g_v` bytes crosses the WAN (Pregel with combiners —
//! the strongest reasonable traffic model for these baselines). There is a
//! single communication stage per iteration.

use geograph::GeoGraph;
use geosim::{CloudEnv, StageLoads};

use crate::profile::TrafficProfile;
use crate::state::Objective;
use crate::{DcId, VertexId};

/// Edge-cut placement state.
#[derive(Clone, Debug)]
pub struct EdgeCutState {
    assignment: Vec<DcId>,
    loads: StageLoads,
    movement_cost: f64,
    num_iterations: f64,
    /// Vertices per DC (the balance objective of label-propagation
    /// partitioners).
    vertices_per_dc: Vec<u64>,
    /// Edges with both endpoints in the same DC.
    internal_edges: u64,
    total_edges: u64,
}

impl EdgeCutState {
    /// Builds edge-cut state from a per-vertex DC assignment, panicking on
    /// a profile value that is not a load ([`TrafficProfile::units`]).
    pub fn from_assignment(
        geo: &GeoGraph,
        env: &CloudEnv,
        assignment: Vec<DcId>,
        profile: &TrafficProfile,
        num_iterations: f64,
    ) -> Self {
        assert_eq!(assignment.len(), geo.num_vertices());
        let m = env.num_dcs();
        let mut loads = StageLoads::new(m);
        let mut internal_edges = 0u64;
        let mut seen_dcs = vec![false; m];
        for v in 0..geo.num_vertices() as VertexId {
            let home = assignment[v as usize];
            seen_dcs.iter_mut().for_each(|s| *s = false);
            for &u in geo.graph.in_neighbors(v) {
                let src = assignment[u as usize];
                if src == home {
                    internal_edges += 1;
                } else if !seen_dcs[src as usize] {
                    seen_dcs[src as usize] = true;
                    let (g, _) = profile.units(v).unwrap_or_else(|e| panic!("{e}"));
                    loads.add_transfer(src, home, g as u64);
                }
            }
        }
        let mut vertices_per_dc = vec![0u64; m];
        for &d in &assignment {
            vertices_per_dc[d as usize] += 1;
        }
        let movement_cost =
            geosim::cost::movement_cost(env, &geo.locations, &assignment, &geo.data_sizes);
        EdgeCutState {
            assignment,
            loads,
            movement_cost,
            num_iterations,
            vertices_per_dc,
            internal_edges,
            total_edges: geo.num_edges() as u64,
        }
    }

    /// The per-vertex assignment.
    pub fn assignment(&self) -> &[DcId] {
        &self.assignment
    }

    /// Vertices per DC.
    pub fn vertices_per_dc(&self) -> &[u64] {
        &self.vertices_per_dc
    }

    /// Fraction of edges fully inside one DC (the label-propagation
    /// locality objective).
    pub fn internal_edge_fraction(&self) -> f64 {
        if self.total_edges == 0 {
            return 1.0;
        }
        self.internal_edges as f64 / self.total_edges as f64
    }

    /// Objective under `env`: one communication stage per iteration.
    pub fn objective(&self, env: &CloudEnv) -> Objective {
        Objective {
            transfer_time: self.loads.transfer_time(env),
            movement_cost: self.movement_cost,
            runtime_cost: self.num_iterations * self.loads.upload_cost(env),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geograph::generators::erdos_renyi;
    use geograph::locality::LocalityConfig;
    use geosim::regions::ec2_eight_regions;

    /// Per-iteration WAN bytes.
    fn wan_bytes_per_iteration(s: &EdgeCutState) -> f64 {
        s.loads.total_up()
    }

    fn setup() -> (GeoGraph, CloudEnv) {
        let g = erdos_renyi(400, 3000, 13);
        let geo = GeoGraph::from_graph(g, &LocalityConfig::paper_default(13));
        (geo, ec2_eight_regions())
    }

    #[test]
    fn natural_assignment_counts() {
        let (geo, env) = setup();
        let profile = TrafficProfile::uniform(geo.num_vertices(), 8.0);
        let s = EdgeCutState::from_assignment(&geo, &env, geo.locations.clone(), &profile, 10.0);
        assert_eq!(s.vertices_per_dc().iter().sum::<u64>(), geo.num_vertices() as u64);
        assert_eq!(s.objective(&env).movement_cost, 0.0);
        assert!(s.internal_edge_fraction() > 0.0 && s.internal_edge_fraction() < 1.0);
    }

    #[test]
    fn single_dc_has_no_traffic() {
        let (geo, env) = setup();
        let profile = TrafficProfile::uniform(geo.num_vertices(), 8.0);
        let s =
            EdgeCutState::from_assignment(&geo, &env, vec![2; geo.num_vertices()], &profile, 10.0);
        assert_eq!(wan_bytes_per_iteration(&s), 0.0);
        assert_eq!(s.objective(&env).transfer_time, 0.0);
        assert!((s.internal_edge_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn combiner_semantics_bound_messages() {
        // With combiners, a vertex receives at most (M-1) messages per
        // iteration regardless of in-degree.
        let (geo, env) = setup();
        let profile = TrafficProfile::uniform(geo.num_vertices(), 8.0);
        let s = EdgeCutState::from_assignment(&geo, &env, geo.locations.clone(), &profile, 1.0);
        let max_bytes = geo.num_vertices() as f64 * 7.0 * 8.0;
        assert!(wan_bytes_per_iteration(&s) <= max_bytes);
    }

    #[test]
    fn better_locality_less_traffic() {
        let (geo, env) = setup();
        let profile = TrafficProfile::uniform(geo.num_vertices(), 8.0);
        let natural =
            EdgeCutState::from_assignment(&geo, &env, geo.locations.clone(), &profile, 10.0);
        // Two-DC split by id parity is worse than... actually compare with
        // an assignment that's strictly coarser: everyone in one DC.
        let single =
            EdgeCutState::from_assignment(&geo, &env, vec![0; geo.num_vertices()], &profile, 10.0);
        assert!(wan_bytes_per_iteration(&single) < wan_bytes_per_iteration(&natural));
    }
}
