//! Leopard: lightweight edge-oriented partitioning and replication for
//! dynamic graphs (Huang & Abadi, VLDB '16 [26]) — an extra dynamic
//! baseline beyond the paper's Exp#5 comparison set.
//!
//! Leopard streams edges: each arriving edge is placed on a partition
//! already holding (a replica of) one of its endpoints, creating a replica
//! for the missing endpoint; a balance penalty keeps partitions even. The
//! assignment never revisits old edges, which is what makes it cheap — and
//! what RLCut's re-optimization beats on quality.

use geograph::{GeoGraph, GraphDelta, VertexId};
use geopart::vertexcut::{MasterRule, VertexCutState};
use geopart::{DcId, TrafficProfile};
use geosim::CloudEnv;

/// Tuning knobs for Leopard.
#[derive(Clone, Copy, Debug)]
pub struct LeopardConfig {
    /// Weight of the balance penalty relative to endpoint locality.
    pub balance_weight: f64,
    /// Maximum replicas per vertex (Leopard caps its replication).
    pub max_replicas: u32,
}

impl Default for LeopardConfig {
    fn default() -> Self {
        LeopardConfig { balance_weight: 0.5, max_replicas: 3 }
    }
}

/// A Leopard instance: streaming state that persists across windows.
#[derive(Clone, Debug)]
pub struct Leopard {
    config: LeopardConfig,
    num_dcs: usize,
    /// DCs holding a copy of each vertex (bitmask; bit of the home DC set
    /// at initialization).
    replicas: Vec<u64>,
    edges_per_dc: Vec<f64>,
    /// Placement of every edge processed so far, in arrival order.
    edge_dcs: Vec<DcId>,
    edges_seen: usize,
}

impl Leopard {
    /// Initializes from natural vertex locations.
    pub fn new(
        num_vertices: usize,
        locations: &[DcId],
        num_dcs: usize,
        config: LeopardConfig,
    ) -> Self {
        assert_eq!(locations.len(), num_vertices);
        Leopard {
            config,
            num_dcs,
            replicas: locations.iter().map(|&d| 1u64 << d).collect(),
            edges_per_dc: vec![0.0; num_dcs],
            edge_dcs: Vec::new(),
            edges_seen: 0,
        }
    }

    /// Streams one edge, returning its placement. New vertex ids grow the
    /// replica table with the given natural location.
    pub fn place_edge(
        &mut self,
        u: VertexId,
        v: VertexId,
        natural: impl Fn(VertexId) -> DcId,
    ) -> DcId {
        let needed = u.max(v) as usize + 1;
        while self.replicas.len() < needed {
            let id = self.replicas.len() as VertexId;
            self.replicas.push(1u64 << natural(id));
        }
        let avg = (self.edges_seen as f64 / self.num_dcs as f64).max(1.0);
        let mut best = (0usize, f64::NEG_INFINITY);
        for d in 0..self.num_dcs {
            let bit = 1u64 << d;
            let locality = (self.replicas[u as usize] & bit != 0) as u32 as f64
                + (self.replicas[v as usize] & bit != 0) as u32 as f64;
            let score = locality - self.config.balance_weight * self.edges_per_dc[d] / avg;
            if score > best.1 {
                best = (d, score);
            }
        }
        let d = best.0;
        let bit = 1u64 << d;
        // Replicate missing endpoints at the chosen DC, respecting the cap
        // (over-cap vertices simply have a remote copy serve the edge —
        // the cost shows up as runtime traffic, as in Leopard).
        for x in [u, v] {
            let mask = &mut self.replicas[x as usize];
            if *mask & bit == 0 && mask.count_ones() < self.config.max_replicas {
                *mask |= bit;
            }
        }
        self.edges_per_dc[d] += 1.0;
        self.edge_dcs.push(d as DcId);
        self.edges_seen += 1;
        d as DcId
    }

    /// Streams a window's [`GraphDelta`] — the same delta the incremental
    /// RLCut path consumes. Net-inserted edges are placed in sorted order
    /// through [`Self::place_edge`] (growing the replica table as new ids
    /// appear). Deleted edges are ignored: Leopard's streaming state never
    /// revisits old placements — its replica tables only accumulate — so
    /// deletions affect evaluation replay ([`Self::state`] re-places the
    /// surviving edge set of the new snapshot), not the streaming state.
    pub fn apply_delta(&mut self, delta: &GraphDelta, natural: impl Fn(VertexId) -> DcId) {
        // Vertices whose edges cancelled out still arrive.
        let needed = delta.new_num_vertices();
        while self.replicas.len() < needed {
            let id = self.replicas.len() as VertexId;
            self.replicas.push(1u64 << natural(id));
        }
        for &(u, v) in delta.inserted() {
            self.place_edge(u, v, &natural);
        }
    }

    /// Builds the evaluable vertex-cut plan for a graph whose
    /// `graph.edges()` order matches the streaming order.
    ///
    /// Streaming usually does *not* arrive in CSR order, so this re-places
    /// every edge of `geo` through the current replica tables (cheap:
    /// O(E · M)) — the replica state, which is what Leopard accumulates,
    /// drives the placement either way.
    pub fn state(
        &self,
        geo: &GeoGraph,
        env: &CloudEnv,
        profile: TrafficProfile,
        num_iterations: f64,
    ) -> VertexCutState {
        let mut shadow = self.clone();
        shadow.edge_dcs.clear();
        shadow.edges_per_dc.iter_mut().for_each(|c| *c = 0.0);
        shadow.edges_seen = 0;
        for (u, v) in geo.graph.edges() {
            shadow.place_edge(u, v, |id| geo.locations[id as usize]);
        }
        VertexCutState::from_edge_assignment(
            geo,
            env,
            &shadow.edge_dcs,
            MasterRule::PreferNatural,
            profile,
            num_iterations,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geograph::generators::{rmat, RmatConfig};
    use geograph::locality::LocalityConfig;
    use geosim::regions::ec2_eight_regions;

    fn setup() -> (GeoGraph, CloudEnv) {
        let g = rmat(&RmatConfig::social(512, 4096), 15);
        (GeoGraph::from_graph(g, &LocalityConfig::paper_default(15)), ec2_eight_regions())
    }

    #[test]
    fn respects_replica_cap() {
        let (geo, _env) = setup();
        let mut leopard =
            Leopard::new(geo.num_vertices(), &geo.locations, geo.num_dcs, LeopardConfig::default());
        for (u, v) in geo.graph.edges() {
            leopard.place_edge(u, v, |id| geo.locations[id as usize]);
        }
        for mask in &leopard.replicas {
            assert!(mask.count_ones() <= LeopardConfig::default().max_replicas);
        }
    }

    #[test]
    fn beats_random_vertex_cut_on_wan() {
        let (geo, env) = setup();
        let p = TrafficProfile::uniform(geo.num_vertices(), 8.0);
        let leopard =
            Leopard::new(geo.num_vertices(), &geo.locations, geo.num_dcs, LeopardConfig::default());
        let plan = leopard.state(&geo, &env, p.clone(), 10.0);
        let random = crate::randpg(&geo, &env, p, 10.0, 15);
        assert!(
            plan.core().wan_bytes_per_iteration() < random.core().wan_bytes_per_iteration(),
            "leopard {} vs random {}",
            plan.core().wan_bytes_per_iteration(),
            random.core().wan_bytes_per_iteration()
        );
    }

    #[test]
    fn balance_penalty_spreads_edges() {
        let (geo, env) = setup();
        let p = TrafficProfile::uniform(geo.num_vertices(), 8.0);
        let leopard =
            Leopard::new(geo.num_vertices(), &geo.locations, geo.num_dcs, LeopardConfig::default());
        let plan = leopard.state(&geo, &env, p, 10.0);
        let imbalance = geopart::metrics::imbalance(plan.core().edges_per_dc());
        assert!(imbalance < 3.0, "edges per DC too skewed: {imbalance}");
    }

    #[test]
    fn streaming_grows_vertex_table() {
        let mut leopard = Leopard::new(2, &[0, 1], 4, LeopardConfig::default());
        leopard.place_edge(0, 5, |_| 2);
        assert_eq!(leopard.replicas.len(), 6);
        assert!(leopard.replicas[5] & (1 << 2) != 0 || leopard.replicas[5].count_ones() >= 1);
    }

    #[test]
    fn apply_delta_streams_net_inserts_only() {
        use geograph::dynamic::{EdgeEvent, EventKind};
        use geograph::Graph;
        let base = Graph::from_edges(4, &[(0, 1), (1, 2)]);
        let mut leopard = Leopard::new(4, &[0, 1, 2, 3], 4, LeopardConfig::default());
        let ev = |src, dst, t, kind| EdgeEvent { src, dst, timestamp_ms: t, kind };
        let events = vec![
            ev(2, 3, 0, EventKind::Insert),
            ev(5, 0, 1, EventKind::Insert), // grows the vertex table
            ev(5, 0, 2, EventKind::Delete), // cancels: vertex 4..=5 still arrive
            ev(0, 1, 3, EventKind::Insert), // insert-of-existing: no-op
            ev(1, 2, 4, EventKind::Delete), // delete: ignored by streaming state
        ];
        let delta = GraphDelta::from_events(&base, &events);
        let before = leopard.edge_dcs.len();
        leopard.apply_delta(&delta, |_| 0);
        // Exactly the net-inserted edges streamed.
        assert_eq!(leopard.edge_dcs.len() - before, delta.inserted().len());
        assert_eq!(delta.inserted(), &[(2, 3)]);
        // The cancelled-edge vertices still grew the replica table.
        assert_eq!(leopard.replicas.len(), 6);
    }

    #[test]
    fn delta_stream_matches_monolithic_stream() {
        // Streaming a graph in one pass and streaming base + delta must
        // accumulate identical replica state when the arrival order of
        // inserted edges matches (both sorted here).
        let (geo, env) = setup();
        let all_edges: Vec<(geograph::VertexId, geograph::VertexId)> = {
            let mut e: Vec<_> = geo.graph.edges().collect();
            e.sort_unstable();
            e
        };
        let split = all_edges.len() * 7 / 10;
        let natural = |id: geograph::VertexId| geo.locations[id as usize];

        let mut monolithic =
            Leopard::new(geo.num_vertices(), &geo.locations, geo.num_dcs, LeopardConfig::default());
        for &(u, v) in &all_edges {
            monolithic.place_edge(u, v, natural);
        }

        let base = geograph::Graph::from_edges(geo.num_vertices(), &all_edges[..split]);
        use geograph::dynamic::{EdgeEvent, EventKind};
        let events: Vec<EdgeEvent> = all_edges[split..]
            .iter()
            .enumerate()
            .map(|(i, &(src, dst))| EdgeEvent {
                src,
                dst,
                timestamp_ms: i as u64,
                kind: EventKind::Insert,
            })
            .collect();
        let delta = GraphDelta::from_events(&base, &events);
        let mut windowed =
            Leopard::new(geo.num_vertices(), &geo.locations, geo.num_dcs, LeopardConfig::default());
        for &(u, v) in &all_edges[..split] {
            windowed.place_edge(u, v, natural);
        }
        windowed.apply_delta(&delta, natural);
        assert_eq!(monolithic.replicas, windowed.replicas);
        assert_eq!(monolithic.edge_dcs, windowed.edge_dcs);
        // Both evaluate to the same plan over the final graph.
        let p = TrafficProfile::uniform(geo.num_vertices(), 8.0);
        let a = monolithic.state(&geo, &env, p.clone(), 10.0);
        let b = windowed.state(&geo, &env, p, 10.0);
        assert_eq!(a.edge_dcs(), b.edge_dcs());
    }

    #[test]
    fn deterministic() {
        let (geo, env) = setup();
        let p = TrafficProfile::uniform(geo.num_vertices(), 8.0);
        let a =
            Leopard::new(geo.num_vertices(), &geo.locations, geo.num_dcs, LeopardConfig::default())
                .state(&geo, &env, p.clone(), 10.0);
        let b =
            Leopard::new(geo.num_vertices(), &geo.locations, geo.num_dcs, LeopardConfig::default())
                .state(&geo, &env, p, 10.0);
        assert_eq!(a.edge_dcs(), b.edge_dcs());
    }
}
