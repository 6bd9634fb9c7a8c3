//! The Low/Medium/High network-heterogeneity environments of Fig 3.
//!
//! The paper's motivation study simulates three environments: **Low** gives
//! every DC the same uplink/downlink (the mean of the measured values);
//! **Medium** is the measured EC2 environment; **High** halves the
//! bandwidths of half of the DCs.

use crate::datacenter::{CloudEnv, Datacenter};
use crate::regions::ec2_eight_regions;

/// Network-heterogeneity level (Fig 3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Heterogeneity {
    Low,
    Medium,
    High,
}

impl Heterogeneity {
    pub const ALL: [Heterogeneity; 3] =
        [Heterogeneity::Low, Heterogeneity::Medium, Heterogeneity::High];

    /// Derives the environment at this heterogeneity level from a base
    /// (measured) environment.
    pub(crate) fn apply(self, base: &CloudEnv) -> CloudEnv {
        match self {
            Heterogeneity::Low => {
                let up = base.mean_uplink();
                let down = base.mean_downlink();
                CloudEnv::new(
                    base.dcs()
                        .iter()
                        .map(|dc| Datacenter {
                            name: dc.name.clone(),
                            uplink_bps: up,
                            downlink_bps: down,
                            upload_price_per_byte: dc.upload_price_per_byte,
                        })
                        .collect(),
                )
            }
            Heterogeneity::Medium => base.clone(),
            Heterogeneity::High => CloudEnv::new(
                base.dcs()
                    .iter()
                    .enumerate()
                    .map(|(i, dc)| {
                        let factor = if i % 2 == 1 { 0.5 } else { 1.0 };
                        Datacenter {
                            name: dc.name.clone(),
                            uplink_bps: dc.uplink_bps * factor,
                            downlink_bps: dc.downlink_bps * factor,
                            upload_price_per_byte: dc.upload_price_per_byte,
                        }
                    })
                    .collect(),
            ),
        }
    }

    /// The Fig 3 environment: this level applied to the 8-region EC2 base.
    pub fn ec2_environment(self) -> CloudEnv {
        self.apply(&ec2_eight_regions())
    }
}

impl std::fmt::Display for Heterogeneity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Heterogeneity::Low => "Low",
            Heterogeneity::Medium => "Medium",
            Heterogeneity::High => "High",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Coefficient of variation of uplink bandwidths — a scalar heterogeneity
    /// measure.
    fn uplink_cv(env: &CloudEnv) -> f64 {
        let mean = env.mean_uplink();
        let var = env.dcs().iter().map(|d| (d.uplink_bps - mean).powi(2)).sum::<f64>()
            / env.num_dcs() as f64;
        var.sqrt() / mean
    }

    #[test]
    fn low_is_homogeneous() {
        let env = Heterogeneity::Low.ec2_environment();
        assert!(uplink_cv(&env) < 1e-12);
    }

    #[test]
    fn ordering_of_heterogeneity() {
        let low = uplink_cv(&Heterogeneity::Low.ec2_environment());
        let med = uplink_cv(&Heterogeneity::Medium.ec2_environment());
        let high = uplink_cv(&Heterogeneity::High.ec2_environment());
        assert!(low < med && med < high, "{low} {med} {high}");
    }

    #[test]
    fn high_halves_alternating_dcs() {
        let base = ec2_eight_regions();
        let high = Heterogeneity::High.apply(&base);
        assert_eq!(high.uplinks()[1], base.uplinks()[1] * 0.5);
        assert_eq!(high.uplinks()[0], base.uplinks()[0]);
    }

    #[test]
    fn medium_is_identity() {
        let base = ec2_eight_regions();
        assert_eq!(Heterogeneity::Medium.apply(&base), base);
    }

    #[test]
    fn prices_preserved_across_levels() {
        let base = ec2_eight_regions();
        for level in Heterogeneity::ALL {
            let env = level.apply(&base);
            for (a, b) in env.dcs().iter().zip(base.dcs()) {
                assert_eq!(a.upload_price_per_byte, b.upload_price_per_byte);
            }
        }
    }
}
