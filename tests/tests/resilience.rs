//! Fault-injection invariants, cross-crate: the re-seed rule the trainer's
//! dead-DC re-seed and the serving layer's evacuation share clears dark DCs
//! without breaking plan validity, and a re-seeded plan is deterministic.

use geograph::generators::{rmat, RmatConfig};
use geograph::locality::LocalityConfig;
use geograph::{DcId, GeoGraph};
use geopart::{reseed_stranded_masters, HybridState, TrafficProfile};
use geosim::regions::ec2_eight_regions;
use geosim::CloudEnv;
use proptest::prelude::*;

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

/// A trained-looking plan: every third vertex away from home, so a
/// stranded master's home is live as often as it is dead.
fn moved_masters(geo: &GeoGraph) -> Vec<DcId> {
    let m = geo.num_dcs as DcId;
    geo.locations.iter().enumerate().map(|(v, &l)| (l + (v % 3) as DcId) % m).collect()
}

/// The re-seeded plan, rebuilt from its masters (the trainer moves there).
fn reseeded<'g>(geo: &'g GeoGraph, env: &CloudEnv, theta: usize, dead: &[bool]) -> HybridState<'g> {
    let mut masters = moved_masters(geo);
    reseed_stranded_masters(&mut masters, &geo.locations, dead, geo.num_dcs).unwrap();
    let profile = TrafficProfile::uniform(geo.num_vertices(), 8.0);
    HybridState::from_masters(geo, env, masters, theta, profile, 10.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// After the re-seed, no master and no mirror remains on any dead DC,
    /// the plan passes the full rebuild-and-compare validation, and exactly
    /// the stranded masters moved: home if it is live, else the first live
    /// DC.
    #[test]
    fn evacuation_clears_dead_dcs_and_preserves_validity(
        geo in arb_rmat_geo(),
        theta in 2usize..12,
        dead in arb_dead_mask(),
    ) {
        let env = ec2_eight_regions();
        let state = reseeded(&geo, &env, theta, &dead);
        prop_assert!(state.validate_against_faults(&dead).is_ok());
        prop_assert!(state.validate_plan(&env).is_ok(), "the re-seeded plan is inconsistent");
        let first_live = dead.iter().position(|&d| !d).unwrap() as DcId;
        for (v, &before) in moved_masters(&geo).iter().enumerate() {
            let home = geo.locations[v];
            let want = match (dead[before as usize], dead[home as usize]) {
                (false, _) => before,
                (true, false) => home,
                (true, true) => first_live,
            };
            prop_assert_eq!(state.master(v as u32), want, "v{} (was on {})", v, before);
        }
    }

    /// The re-seed is deterministic: same plan, same dead set ⇒ identical
    /// masters and the same movement cost to the bit.
    #[test]
    fn evacuation_is_deterministic(
        geo in arb_rmat_geo(),
        dead in arb_dead_mask(),
    ) {
        let env = ec2_eight_regions();
        let a = reseeded(&geo, &env, 6, &dead);
        let b = reseeded(&geo, &env, 6, &dead);
        prop_assert_eq!(a.core().masters(), b.core().masters());
        prop_assert_eq!(a.core().movement_cost().to_bits(), b.core().movement_cost().to_bits());
    }
}
