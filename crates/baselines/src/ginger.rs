//! Ginger: PowerLyra's Fennel-derived greedy hybrid-cut [6].
//!
//! Low-degree vertices stream (in a hash-shuffled order) and each picks the
//! DC maximizing in-neighbor co-location minus a Fennel-style balance
//! penalty; high-degree vertices are hashed. This is the strongest
//! single-DC-era baseline in the paper — and still loses to RLCut in
//! heterogeneous networks because its score knows nothing about bandwidths
//! or prices (Fig 3).

use geograph::fxhash::mix64;
use geograph::{GeoGraph, VertexId};
use geopart::{DcId, HybridState, TrafficProfile};
use geosim::CloudEnv;

/// Tuning knobs for Ginger.
#[derive(Clone, Copy, Debug)]
pub struct GingerConfig {
    /// Weight of the balance penalty relative to the locality score.
    pub balance_weight: f64,
    /// Degree threshold θ for the hybrid-cut classification.
    pub theta: usize,
    pub seed: u64,
}

impl GingerConfig {
    pub fn new(theta: usize, seed: u64) -> Self {
        GingerConfig { balance_weight: 1.0, theta, seed }
    }
}

/// Runs Ginger and returns the resulting hybrid-cut plan: one stream, so
/// every placement sees every earlier one.
pub fn ginger<'g>(
    geo: &'g GeoGraph,
    env: &CloudEnv,
    config: GingerConfig,
    profile: TrafficProfile,
    num_iterations: f64,
) -> HybridState<'g> {
    let n = geo.num_vertices();
    let m = env.num_dcs();
    let is_high = geograph::degree::classify_high_degree(&geo.graph, config.theta);
    let mut masters: Vec<Option<DcId>> = vec![None; n];

    // High-degree vertices: hashed placement (their in-edges follow their
    // sources anyway, so the master only anchors apply-stage fan-out).
    for v in 0..n as VertexId {
        if is_high[v as usize] {
            masters[v as usize] = Some((mix64(v as u64 ^ config.seed) % m as u64) as DcId);
        }
    }

    // Low-degree vertices stream in a hash-shuffled order.
    let mut order: Vec<VertexId> = (0..n as VertexId).filter(|&v| !is_high[v as usize]).collect();
    order.sort_unstable_by_key(|&v| mix64(v as u64 ^ config.seed.rotate_left(31)));

    // Balance bookkeeping: vertices and (low-degree) edges per DC.
    let mut vertices_per_dc = vec![0f64; m];
    let mut edges_per_dc = vec![0f64; m];
    let expected_vertices = n as f64 / m as f64;
    let expected_edges = geo.num_edges() as f64 / m as f64;

    let mut locality = vec![0f64; m];
    for &v in &order {
        // Locality of v at d: in-neighbors already mastered at d (their
        // data is local to v's in-edges if v lands at d) plus low
        // out-neighbors at d (v already needs a presence there). ONE
        // neighborhood sweep per vertex: O(deg + M), not O(deg · M).
        // Locality scores are integral sums of 1.0 — exact in f64.
        locality.fill(0.0);
        for &u in geo.graph.in_neighbors(v) {
            if let Some(d) = masters[u as usize] {
                locality[d as usize] += 1.0;
            }
        }
        for &w in geo.graph.out_neighbors(v) {
            if !is_high[w as usize] {
                if let Some(d) = masters[w as usize] {
                    locality[d as usize] += 1.0;
                }
            }
        }
        let mut best = (0usize, f64::NEG_INFINITY);
        for (d, &loc) in locality.iter().enumerate() {
            let balance = config.balance_weight
                * (vertices_per_dc[d] / expected_vertices + edges_per_dc[d] / expected_edges)
                / 2.0;
            let score = loc - balance;
            if score > best.1 {
                best = (d, score);
            }
        }
        masters[v as usize] = Some(best.0 as DcId);
        vertices_per_dc[best.0] += 1.0;
        edges_per_dc[best.0] += geo.graph.in_degree(v) as f64;
    }

    let masters: Vec<DcId> = masters.into_iter().map(|d| d.unwrap()).collect();
    HybridState::from_masters(geo, env, masters, config.theta, profile, num_iterations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use geograph::generators::{rmat, RmatConfig};
    use geograph::locality::LocalityConfig;
    use geosim::regions::ec2_eight_regions;

    fn setup() -> (GeoGraph, CloudEnv) {
        let g = rmat(&RmatConfig::social(1024, 8192), 4);
        (GeoGraph::from_graph(g, &LocalityConfig::paper_default(4)), ec2_eight_regions())
    }

    fn theta(geo: &GeoGraph) -> usize {
        geograph::degree::suggest_theta(&geo.graph, 0.05)
    }

    #[test]
    fn beats_hashpl_on_wan_usage() {
        // Greedy co-location must beat blind hashing on WAN bytes — the
        // reason Ginger is the strongest non-geo baseline in Fig 10.
        let (geo, env) = setup();
        let t = theta(&geo);
        let p = TrafficProfile::uniform(geo.num_vertices(), 8.0);
        let g = ginger(&geo, &env, GingerConfig::new(t, 1), p.clone(), 10.0);
        let h = crate::hashpl(&geo, &env, t, p, 10.0, 1);
        assert!(
            g.core().wan_bytes_per_iteration() < h.core().wan_bytes_per_iteration(),
            "ginger {} vs hashpl {}",
            g.core().wan_bytes_per_iteration(),
            h.core().wan_bytes_per_iteration()
        );
    }

    #[test]
    fn lower_replication_than_hashpl() {
        let (geo, env) = setup();
        let t = theta(&geo);
        let p = TrafficProfile::uniform(geo.num_vertices(), 8.0);
        let g = ginger(&geo, &env, GingerConfig::new(t, 1), p.clone(), 10.0);
        let h = crate::hashpl(&geo, &env, t, p, 10.0, 1);
        assert!(g.core().replication_factor() <= h.core().replication_factor());
    }

    #[test]
    fn balance_penalty_keeps_dcs_populated() {
        let (geo, env) = setup();
        let t = theta(&geo);
        let p = TrafficProfile::uniform(geo.num_vertices(), 8.0);
        let g = ginger(&geo, &env, GingerConfig::new(t, 1), p, 10.0);
        let mut per_dc = vec![0u64; env.num_dcs()];
        for &d in g.core().masters() {
            per_dc[d as usize] += 1;
        }
        assert!(per_dc.iter().all(|&c| c > 0), "some DC left empty: {per_dc:?}");
        assert!(geopart::metrics::imbalance(&per_dc) < 2.5, "{per_dc:?}");
    }

    #[test]
    fn deterministic() {
        let (geo, env) = setup();
        let t = theta(&geo);
        let p = TrafficProfile::uniform(geo.num_vertices(), 8.0);
        let a = ginger(&geo, &env, GingerConfig::new(t, 9), p.clone(), 10.0);
        let b = ginger(&geo, &env, GingerConfig::new(t, 9), p, 10.0);
        assert_eq!(a.core().masters(), b.core().masters());
    }
}
