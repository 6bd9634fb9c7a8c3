//! The eight Amazon EC2 regions of the paper's Exp#1.
//!
//! Three regions (US East, AP Singapore, AP Sydney) come straight from the
//! paper's Table I measurements with cc2.8xlarge instances. The remaining
//! five are interpolated to plausible values consistent with the paper's
//! observations: downlinks several times uplinks, Asia-Pacific/South-America
//! uploads pricier than US/EU, bandwidth spread of roughly ±10 %.

use crate::datacenter::{CloudEnv, Datacenter};

/// Region ids in the order the paper lists them (§VI-A.4).
pub(crate) const REGION_NAMES: [&str; 8] = ["USE", "OR", "NC", "EU", "SIN", "TKY", "SYD", "SA"];

/// (uplink GB/s, downlink GB/s, $/GB upload) per region.
/// USE/SIN/SYD are Table I; the rest are interpolations (see module docs).
pub(crate) const REGION_SPECS: [(f64, f64, f64); 8] = [
    (0.52, 2.8, 0.09), // US East           — Table I
    (0.50, 2.6, 0.09), // US West Oregon
    (0.51, 2.7, 0.09), // US West N. California
    (0.53, 3.0, 0.09), // EU Ireland
    (0.55, 3.5, 0.12), // AP Singapore      — Table I
    (0.54, 3.2, 0.11), // AP Tokyo
    (0.48, 2.5, 0.14), // AP Sydney         — Table I
    (0.45, 2.2, 0.16), // South America
];

/// The full 8-region environment used by Exp#1 and all simulations.
pub fn ec2_eight_regions() -> CloudEnv {
    CloudEnv::new(
        REGION_NAMES
            .iter()
            .zip(REGION_SPECS)
            .map(|(name, (up, down, price))| Datacenter::from_gb_units(name, up, down, price))
            .collect(),
    )
}

/// The three Table I regions alone (used by the Table I reproduction).
pub fn table1_regions() -> CloudEnv {
    CloudEnv::new(vec![
        Datacenter::from_gb_units("US East", 0.52, 2.8, 0.09),
        Datacenter::from_gb_units("AP Singapore", 0.55, 3.5, 0.12),
        Datacenter::from_gb_units("AP Sydney", 0.48, 2.5, 0.14),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eight_regions() {
        let env = ec2_eight_regions();
        assert_eq!(env.num_dcs(), 8);
        assert_eq!(env.dcs()[0].name, "USE");
        assert_eq!(env.dcs()[7].name, "SA");
    }

    #[test]
    fn table1_values_match_paper() {
        let env = table1_regions();
        assert_eq!(env.uplinks()[0], 0.52e9);
        assert_eq!(env.downlinks()[1], 3.5e9);
        assert!((env.price(2) - 0.14e-9).abs() < 1e-15);
    }

    #[test]
    fn paper_observation_downlinks_exceed_uplinks() {
        // "the downlink bandwidths ... are several times higher than their
        // uplink bandwidths" (§II-A).
        let env = ec2_eight_regions();
        for dc in env.dcs() {
            assert!(dc.downlink_bps > 3.0 * dc.uplink_bps, "{}", dc.name);
        }
    }

    #[test]
    fn paper_observation_singapore_vs_sydney() {
        // Uplink +17 %, downlink +40 % for Singapore over Sydney (§II-A).
        let env = ec2_eight_regions();
        let (sin, syd) = (4, 6);
        let up_gain = env.uplinks()[sin] / env.uplinks()[syd];
        let down_gain = env.downlinks()[sin] / env.downlinks()[syd];
        assert!((up_gain - 1.17).abs() < 0.03, "uplink gain {up_gain}");
        assert!((down_gain - 1.40).abs() < 0.03, "downlink gain {down_gain}");
    }
}
