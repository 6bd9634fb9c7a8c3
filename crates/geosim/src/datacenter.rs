//! Data-center and cloud-environment descriptions.

use crate::{DcId, BYTES_PER_GB};

/// One data center: its WAN connectivity and upload pricing.
///
/// Bandwidths are stored in bytes/second and the price in dollars/byte;
/// constructors accept the GB-denominated units of the paper's Table I.
#[derive(Clone, Debug, PartialEq)]
pub struct Datacenter {
    pub name: String,
    /// Uplink bandwidth to the WAN, bytes/second.
    pub uplink_bps: f64,
    /// Downlink bandwidth from the WAN, bytes/second.
    pub downlink_bps: f64,
    /// Price of uploading one byte to the WAN, dollars.
    pub upload_price_per_byte: f64,
}

impl Datacenter {
    /// Builds a DC from Table-I-style units: GB/s bandwidths, $/GB price.
    pub fn from_gb_units(
        name: &str,
        uplink_gbps: f64,
        downlink_gbps: f64,
        price_per_gb: f64,
    ) -> Self {
        assert!(uplink_gbps > 0.0 && downlink_gbps > 0.0 && price_per_gb >= 0.0);
        Datacenter {
            name: name.to_string(),
            uplink_bps: uplink_gbps * BYTES_PER_GB,
            downlink_bps: downlink_gbps * BYTES_PER_GB,
            upload_price_per_byte: price_per_gb / BYTES_PER_GB,
        }
    }
}

/// The set of data centers an experiment runs across.
///
/// Besides the `Datacenter` records, the environment keeps the per-DC
/// bandwidths and prices in flat `f64` lanes so the Eq 2/3 max-of-ratios
/// reduction reads contiguous memory instead of hopping through
/// `Datacenter` structs (whose embedded name `String` wrecks locality on
/// the hot path).
#[derive(Clone, Debug, PartialEq)]
pub struct CloudEnv {
    dcs: Vec<Datacenter>,
    uplinks: Vec<f64>,
    downlinks: Vec<f64>,
    prices: Vec<f64>,
}

impl CloudEnv {
    /// Creates an environment. At least one DC; at most [`geograph::MAX_DCS`]
    /// (replica sets are 64-bit bitmasks downstream).
    pub fn new(dcs: Vec<Datacenter>) -> Self {
        assert!(!dcs.is_empty(), "CloudEnv needs at least one data center");
        assert!(
            dcs.len() <= geograph::MAX_DCS,
            "CloudEnv supports at most {} data centers (replica sets are u64 bitmasks), got {}",
            geograph::MAX_DCS,
            dcs.len()
        );
        CloudEnv {
            uplinks: dcs.iter().map(|d| d.uplink_bps).collect(),
            downlinks: dcs.iter().map(|d| d.downlink_bps).collect(),
            prices: dcs.iter().map(|d| d.upload_price_per_byte).collect(),
            dcs,
        }
    }

    /// Number of data centers.
    #[inline]
    pub fn num_dcs(&self) -> usize {
        self.dcs.len()
    }

    /// All DCs, in id order.
    pub fn dcs(&self) -> &[Datacenter] {
        &self.dcs
    }

    /// Upload price of `dc` ($/byte) — `P_r` in the paper.
    #[inline]
    pub fn price(&self, dc: DcId) -> f64 {
        self.prices[dc as usize]
    }

    /// Per-DC uplink bandwidths as one contiguous lane (bytes/s).
    #[inline]
    pub fn uplinks(&self) -> &[f64] {
        &self.uplinks
    }

    /// Per-DC downlink bandwidths as one contiguous lane (bytes/s).
    #[inline]
    pub fn downlinks(&self) -> &[f64] {
        &self.downlinks
    }

    /// Per-DC upload prices as one contiguous lane ($/byte).
    #[inline]
    pub(crate) fn prices(&self) -> &[f64] {
        &self.prices
    }

    /// Mean uplink across DCs (bytes/s).
    pub(crate) fn mean_uplink(&self) -> f64 {
        self.dcs.iter().map(|d| d.uplink_bps).sum::<f64>() / self.dcs.len() as f64
    }

    /// Mean downlink across DCs (bytes/s).
    pub(crate) fn mean_downlink(&self) -> f64 {
        self.dcs.iter().map(|d| d.downlink_bps).sum::<f64>() / self.dcs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gb_unit_conversion() {
        let dc = Datacenter::from_gb_units("USE", 0.52, 2.8, 0.09);
        assert!((dc.uplink_bps - 0.52e9).abs() < 1.0);
        assert!((dc.upload_price_per_byte - 0.09e-9).abs() < 1e-15);
    }

    #[test]
    fn accessors() {
        let env = CloudEnv::new(vec![
            Datacenter::from_gb_units("a", 1.0, 2.0, 0.10),
            Datacenter::from_gb_units("b", 0.5, 1.0, 0.05),
        ]);
        assert_eq!(env.num_dcs(), 2);
        assert_eq!(env.uplinks()[1], 0.5e9);
        assert_eq!(env.downlinks()[0], 2.0e9);
        assert!((env.mean_uplink() - 0.75e9).abs() < 1.0);
    }

    #[test]
    #[should_panic]
    fn empty_env_rejected() {
        CloudEnv::new(vec![]);
    }

    #[test]
    #[should_panic]
    fn zero_bandwidth_rejected() {
        Datacenter::from_gb_units("bad", 0.0, 1.0, 0.1);
    }
}
