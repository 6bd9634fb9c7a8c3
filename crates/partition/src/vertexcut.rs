//! Vertex-cut placement: explicit per-edge DC assignment, full-GAS
//! computation for every vertex (PowerGraph §II-B).

use geograph::GeoGraph;
use geosim::CloudEnv;

use crate::error::PlanError;
use crate::profile::TrafficProfile;
use crate::state::{Objective, PlacementState};
use crate::{DcId, VertexId};

/// How vertex-cut picks the master replica of each vertex.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MasterRule {
    /// The vertex's natural (home) DC if it hosts any of the vertex's
    /// edges, else the replica DC holding the most of them (lowest id
    /// breaks ties). Avoids charging movement cost when data never had
    /// to move.
    PreferNatural,
    /// Always the natural DC, even when it holds none of the vertex's
    /// edges (the vertex data simply never moves). Used by partitioners
    /// whose budget reasoning assumes immovable masters (Geo-Cut).
    Natural,
}

/// Vertex-cut placement state: a wrapper over [`PlacementState`] with every
/// vertex treated as high-degree (full GAS — gather from every edge-holding
/// DC, apply to every mirror).
#[derive(Clone, Debug)]
pub struct VertexCutState {
    core: PlacementState,
    /// DC of every edge, aligned with `graph.edges()` order.
    edge_dcs: Vec<DcId>,
}

impl VertexCutState {
    /// Builds vertex-cut state from a per-edge DC assignment aligned with
    /// `geo.graph.edges()` order, panicking on an out-of-range DC. External
    /// plan input goes through `Self::try_from_edge_assignment`.
    pub fn from_edge_assignment(
        geo: &GeoGraph,
        env: &CloudEnv,
        edge_dcs: &[DcId],
        master_rule: MasterRule,
        profile: TrafficProfile,
        num_iterations: f64,
    ) -> Self {
        Self::try_from_edge_assignment(geo, env, edge_dcs, master_rule, profile, num_iterations)
            .unwrap_or_else(|e| panic!("invalid edge assignment: {e}"))
    }

    /// Builds vertex-cut state from a per-edge DC assignment, returning a
    /// typed [`PlanError`] when any edge names a DC outside the environment.
    pub(crate) fn try_from_edge_assignment(
        geo: &GeoGraph,
        env: &CloudEnv,
        edge_dcs: &[DcId],
        master_rule: MasterRule,
        profile: TrafficProfile,
        num_iterations: f64,
    ) -> Result<Self, PlanError> {
        assert_eq!(edge_dcs.len(), geo.num_edges());
        let n = geo.num_vertices();
        let m = env.num_dcs();
        // First pass: per-vertex edge counts per DC, to derive masters.
        // Validates every DC id before any indexing happens.
        let mut incident = vec![0u32; n * m];
        for ((u, v), &d) in geo.graph.edges().zip(edge_dcs) {
            if d as usize >= m {
                return Err(PlanError::EdgeDcOutOfRange { src: u, dst: v, dc: d, num_dcs: m });
            }
            incident[u as usize * m + d as usize] += 1;
            incident[v as usize * m + d as usize] += 1;
        }
        let masters: Vec<DcId> = (0..n)
            .map(|v| {
                let row = &incident[v * m..(v + 1) * m];
                let natural = geo.locations[v];
                if master_rule == MasterRule::Natural || row[natural as usize] > 0 {
                    return natural;
                }
                let mut best = natural as usize; // isolated vertices stay home
                let mut best_cnt = 0u32;
                for (d, &c) in row.iter().enumerate() {
                    if c > best_cnt {
                        best = d;
                        best_cnt = c;
                    }
                }
                best as DcId
            })
            .collect();
        let core = PlacementState::from_edge_placement(
            env,
            n,
            geo.graph.edges().zip(edge_dcs).map(|((u, v), &d)| (u, v, d)),
            masters,
            vec![true; n], // every vertex runs full GAS under vertex-cut
            &geo.locations,
            &geo.data_sizes,
            profile,
            num_iterations,
        )?;
        Ok(VertexCutState { core, edge_dcs: edge_dcs.to_vec() })
    }

    /// The underlying placement state.
    pub fn core(&self) -> &PlacementState {
        &self.core
    }

    /// DC of every edge, aligned with `graph.edges()` order.
    pub fn edge_dcs(&self) -> &[DcId] {
        &self.edge_dcs
    }

    /// Per-in-edge DC assignment aligned with the in-CSR layout: entry
    /// `graph.in_edge_offset(v) + k` is the DC of the edge from
    /// `graph.in_neighbors(v)[k]` to `v`. Used by the analytics engine to
    /// attribute gather traffic to the DCs actually holding the in-edges.
    /// A `Graph` holds fewer than 2^32 edges, so the transient scatter
    /// cursors are `u32` (half the transient of a `usize` plane at paper
    /// scale).
    pub fn in_edge_dcs(&self, geo: &GeoGraph) -> Vec<DcId> {
        let mut out = vec![0 as DcId; geo.num_edges()];
        let mut cursor: Vec<u32> = (0..geo.num_vertices() as VertexId)
            .map(|v| geo.graph.in_edge_offset(v) as u32)
            .collect();
        for ((_, v), &d) in geo.graph.edges().zip(&self.edge_dcs) {
            out[cursor[v as usize] as usize] = d;
            cursor[v as usize] += 1;
        }
        out
    }

    /// Current objective.
    pub fn objective(&self, env: &CloudEnv) -> Objective {
        self.core.objective(env)
    }

    /// Replication factor λ (Fig 2).
    pub fn replication_factor(&self) -> f64 {
        self.core.replication_factor()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geograph::generators::{rmat, RmatConfig};
    use geograph::locality::LocalityConfig;
    use geosim::regions::ec2_eight_regions;

    fn setup() -> (GeoGraph, CloudEnv) {
        let g = rmat(&RmatConfig::social(512, 4096), 21);
        let geo = GeoGraph::from_graph(g, &LocalityConfig::paper_default(21));
        (geo, ec2_eight_regions())
    }

    #[test]
    fn random_assignment_builds() {
        let (geo, env) = setup();
        let edge_dcs: Vec<DcId> =
            (0..geo.num_edges()).map(|i| (geograph::fxhash::mix64(i as u64) % 8) as DcId).collect();
        let profile = TrafficProfile::uniform(geo.num_vertices(), 8.0);
        let s = VertexCutState::from_edge_assignment(
            &geo,
            &env,
            &edge_dcs,
            MasterRule::PreferNatural,
            profile,
            10.0,
        );
        assert!(s.replication_factor() >= 1.0);
        let obj = s.objective(&env);
        assert!(obj.transfer_time > 0.0);
    }

    #[test]
    fn single_dc_assignment_is_traffic_free() {
        let (geo, env) = setup();
        let edge_dcs = vec![0 as DcId; geo.num_edges()];
        let profile = TrafficProfile::uniform(geo.num_vertices(), 8.0);
        let s = VertexCutState::from_edge_assignment(
            &geo,
            &env,
            &edge_dcs,
            MasterRule::PreferNatural,
            profile,
            10.0,
        );
        assert_eq!(s.objective(&env).transfer_time, 0.0);
        assert!((s.replication_factor() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn out_of_range_edge_dc_is_typed_error() {
        let (geo, env) = setup();
        let mut edge_dcs = vec![0 as DcId; geo.num_edges()];
        edge_dcs[3] = 200;
        let profile = TrafficProfile::uniform(geo.num_vertices(), 8.0);
        let err = VertexCutState::try_from_edge_assignment(
            &geo,
            &env,
            &edge_dcs,
            MasterRule::PreferNatural,
            profile,
            10.0,
        )
        .map(|_| ())
        .unwrap_err();
        match err {
            PlanError::EdgeDcOutOfRange { dc: 200, num_dcs: 8, .. } => {}
            other => panic!("expected edge-DC-out-of-range, got {other:?}"),
        }
    }

    #[test]
    fn masters_are_replica_dcs() {
        let (geo, env) = setup();
        let edge_dcs: Vec<DcId> = (0..geo.num_edges())
            .map(|i| (geograph::fxhash::mix64(i as u64 ^ 9) % 8) as DcId)
            .collect();
        let profile = TrafficProfile::uniform(geo.num_vertices(), 8.0);
        let s = VertexCutState::from_edge_assignment(
            &geo,
            &env,
            &edge_dcs,
            MasterRule::PreferNatural,
            profile,
            10.0,
        );
        for v in 0..geo.num_vertices() as VertexId {
            if geo.graph.degree(v) > 0 {
                let m = s.core().master(v);
                assert!(
                    s.core().in_count(v, m) + s.core().out_count(v, m) > 0,
                    "master of {v} holds none of its edges"
                );
            }
        }
    }
}
