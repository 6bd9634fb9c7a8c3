//! Monetary-cost model: input-data movement (Eq 4) and budgets.
//!
//! Runtime upload cost (Eq 5) lives with [`crate::StageLoads::upload_cost`];
//! this module covers the one-time cost of moving vertex input data when a
//! partitioner places a master away from its natural location, and the
//! budget calibration used throughout the evaluation (the budget is a
//! fraction of the cost of centralizing the whole graph).

use geograph::MAX_DCS;

use crate::datacenter::CloudEnv;
use crate::DcId;

/// The input bytes an assignment masters away from home, bucketed by home
/// DC: `moved[r] = Σ_{v : L_v = r, M_v ≠ r} d_v` — Eq 4 before pricing.
pub fn moved_bytes(natural: &[DcId], masters: &[DcId], data_sizes: &[u64]) -> [u64; MAX_DCS] {
    debug_assert_eq!(natural.len(), masters.len());
    debug_assert_eq!(natural.len(), data_sizes.len());
    let mut moved = [0u64; MAX_DCS];
    for ((&l, &m), &d) in natural.iter().zip(masters).zip(data_sizes) {
        if l != m {
            moved[l as usize] += d;
        }
    }
    moved
}

/// Eq 4 priced: `Σ_r moved_r · P_r`, summed in DC order over `env`'s DCs
/// (uploads are charged at the home DC the data leaves).
#[inline]
pub fn price(env: &CloudEnv, moved: &[u64]) -> f64 {
    moved.iter().zip(env.prices()).fold(0.0, |cost, (&bytes, &p)| cost + bytes as f64 * p)
}

/// Total movement cost of a full assignment (Eq 4).
pub fn movement_cost(
    env: &CloudEnv,
    natural: &[DcId],
    masters: &[DcId],
    data_sizes: &[u64],
) -> f64 {
    price(env, &moved_bytes(natural, masters, data_sizes))
}

/// The cost of the *centralized* strategy: move every vertex's data into
/// the single DC that minimizes the total (§VI-A.4). Returns
/// `(best_dc, cost)`.
///
/// Only vertices outside the destination pay (uploads are charged at the
/// source), so the best destination is the one hosting the most expensive
/// data to move out of.
pub fn centralization_cost(env: &CloudEnv, natural: &[DcId], data_sizes: &[u64]) -> (DcId, f64) {
    let m = env.num_dcs();
    // upload_cost_from[r] = cost of uploading all of r's data to the WAN.
    let mut upload_cost_from = vec![0.0f64; m];
    for (&loc, &size) in natural.iter().zip(data_sizes) {
        upload_cost_from[loc as usize] += size as f64 * env.price(loc);
    }
    let total: f64 = upload_cost_from.iter().sum();
    let mut best = (0 as DcId, f64::INFINITY);
    #[allow(clippy::needless_range_loop)] // dest is a DC id, not just an index
    for dest in 0..m {
        let cost = total - upload_cost_from[dest];
        if cost < best.1 {
            best = (dest as DcId, cost);
        }
    }
    best
}

/// The paper's default budget: `fraction` (default 0.4) of the lowest
/// centralization cost.
pub fn default_budget(env: &CloudEnv, natural: &[DcId], data_sizes: &[u64], fraction: f64) -> f64 {
    centralization_cost(env, natural, data_sizes).1 * fraction
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datacenter::Datacenter;

    fn env() -> CloudEnv {
        CloudEnv::new(vec![
            Datacenter::from_gb_units("cheap", 1.0, 2.0, 0.01),
            Datacenter::from_gb_units("pricey", 1.0, 2.0, 1.00),
        ])
    }

    #[test]
    fn move_cost_zero_when_home() {
        assert_eq!(movement_cost(&env(), &[0, 1], &[0, 1], &[5, 7]), 0.0);
        // The moved bytes bucket by home DC, and price at the home's rate.
        let moved = moved_bytes(&[0, 0, 1], &[0, 1, 0], &[5, 7, 11]);
        assert_eq!(&moved[..3], &[7, 11, 0]);
        assert!(moved[3..].iter().all(|&b| b == 0));
        let e = env();
        assert_eq!(price(&e, &moved[..2]), 7.0 * e.price(0) + 11.0 * e.price(1));
    }

    #[test]
    fn movement_cost_sums() {
        let e = env();
        let natural = vec![0, 1, 1];
        let masters = vec![1, 1, 0];
        let sizes = vec![1_000_000_000, 1_000_000_000, 2_000_000_000];
        // v0: 1GB from DC0 at $0.01 = 0.01; v1 stays; v2: 2GB from DC1 at $1 = 2.0
        let c = movement_cost(&e, &natural, &masters, &sizes);
        assert!((c - 2.01).abs() < 1e-9, "{c}");
    }

    #[test]
    fn centralization_picks_data_gravity() {
        let e = env();
        // Most data (by upload cost) sits in the pricey DC, so centralizing
        // *into* the pricey DC is cheaper (its data never moves).
        let natural = vec![0, 1, 1, 1];
        let sizes = vec![1_000_000_000; 4];
        let (dest, cost) = centralization_cost(&e, &natural, &sizes);
        assert_eq!(dest, 1);
        assert!((cost - 0.01).abs() < 1e-9);
    }

    #[test]
    fn default_budget_fraction() {
        let e = env();
        let natural = vec![0, 1];
        let sizes = vec![1_000_000_000, 1_000_000_000];
        let full = centralization_cost(&e, &natural, &sizes).1;
        let b = default_budget(&e, &natural, &sizes, 0.4);
        assert!((b - 0.4 * full).abs() < 1e-12);
    }
}
