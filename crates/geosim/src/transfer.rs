//! Per-stage inter-DC load accounting and the Eq 1–3 transfer-time model.
//!
//! A *stage* (gather or apply) produces, for every DC, a total number of
//! bytes it must upload to the WAN and download from it. Under the
//! congestion-free assumption the stage finishes when the slowest DC link
//! drains: `T_stage = max_r max(up_r/U_r, down_r/D_r)` (Eq 2–3). An
//! iteration's time is the sum over its stages because of the global
//! barrier between gather and apply (Eq 1).
//!
//! Loads count units of 2^-[`LOAD_UNIT_SHIFT`] bytes, so a per-DC sum is
//! exact in any order. The reductions read rows of units and scale to
//! bytes once, by a power of two, which commutes with rounding.

use crate::datacenter::CloudEnv;
use crate::DcId;

/// Loads count units of `2^-LOAD_UNIT_SHIFT` bytes (1/256 B).
pub const LOAD_UNIT_SHIFT: u32 = 8;
/// Bytes per load unit, `2^-LOAD_UNIT_SHIFT`.
pub const BYTES_PER_UNIT: f64 = 1.0 / (1u64 << LOAD_UNIT_SHIFT) as f64;

/// A lane of a load row: `u64` units, or an `f64` holding whole units (the
/// move kernels' scratch rows, exact below 2^53).
pub trait Units: Copy {
    fn get(self) -> f64;
}

impl Units for u64 {
    #[inline]
    fn get(self) -> f64 {
        self as f64
    }
}

impl Units for f64 {
    #[inline]
    fn get(self) -> f64 {
        self
    }
}

/// Lane width of the chunked reductions below. Portable SIMD by
/// construction: fixed-size array accumulators over `chunks_exact` compile
/// to `f64x4` vector code on stable without any nightly features.
const LANES: usize = 4;

/// `max_d a[d] / b[d]` over two equal-length rows, chunked [`LANES`] wide.
///
/// `max` is a selection, so reassociating the reduction is *exactly* equal
/// to the serial left fold — lane order never changes the result (all
/// loads are finite and ≥ 0, all bandwidths > 0). Each lane keeps the
/// `load / bandwidth` division of the serial model rather than a cached
/// reciprocal multiply: the latter shifts ratios by ~1 ulp, which is
/// enough to flip near-tied argmax decisions downstream.
#[inline]
fn max_ratio<T: Units>(a: &[T], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f64; LANES];
    let mut chunks = a.chunks_exact(LANES).zip(b.chunks_exact(LANES));
    for (ca, cb) in &mut chunks {
        for l in 0..LANES {
            acc[l] = acc[l].max(ca[l].get() / cb[l]);
        }
    }
    let tail = a.len() - a.len() % LANES;
    for (&xa, &xb) in a[tail..].iter().zip(&b[tail..]) {
        acc[0] = acc[0].max(xa.get() / xb);
    }
    acc.iter().fold(0.0f64, |w, &x| w.max(x))
}

/// `Σ_d a[d] * b[d]` over two equal-length rows, chunked [`LANES`] wide
/// (four independent accumulators, combined once at the end).
#[inline]
fn dot<T: Units>(a: &[T], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f64; LANES];
    let mut chunks = a.chunks_exact(LANES).zip(b.chunks_exact(LANES));
    for (ca, cb) in &mut chunks {
        for l in 0..LANES {
            acc[l] += ca[l].get() * cb[l];
        }
    }
    let tail = a.len() - a.len() % LANES;
    for (&xa, &xb) in a[tail..].iter().zip(&b[tail..]) {
        acc[0] += xa.get() * xb;
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3])
}

/// Stage completion time of explicit per-DC upload/download rows of load
/// units under `env` — the Eq 2/3 reduction `max_r max(up_r/U_r,
/// down_r/D_r)`, shared by [`StageLoads::transfer_time`] and the
/// incremental move-evaluation kernels that project candidate moves onto
/// scratch rows.
///
/// Bandwidth ratios divide against the environment's contiguous
/// uplink/downlink lanes so the reduction is a straight div+max sweep
/// over two pairs of flat rows.
#[inline]
pub fn stage_time_rows<T: Units>(up: &[T], down: &[T], env: &CloudEnv) -> f64 {
    debug_assert_eq!(up.len(), env.num_dcs());
    debug_assert_eq!(down.len(), env.num_dcs());
    max_ratio(up, env.uplinks()).max(max_ratio(down, env.downlinks())) * BYTES_PER_UNIT
}

/// Monetary cost of a per-DC upload row of load units under `env` ($) —
/// Eq 5's inner term `Σ_r up_r · P_r`; only uploads are charged. Shared
/// by [`StageLoads::upload_cost`] and the kernels' row projections.
#[inline]
pub fn upload_cost_row<T: Units>(up: &[T], env: &CloudEnv) -> f64 {
    debug_assert_eq!(up.len(), env.num_dcs());
    dot(up, env.prices()) * BYTES_PER_UNIT
}

/// Per-DC upload/download load units for one communication stage.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StageLoads {
    up: Vec<u64>,
    down: Vec<u64>,
}

impl StageLoads {
    /// Zero loads over `num_dcs` data centers.
    pub fn new(num_dcs: usize) -> Self {
        StageLoads { up: vec![0; num_dcs], down: vec![0; num_dcs] }
    }

    /// Records a WAN transfer of `units` from `src` to `dst`. Intra-DC
    /// transfers are free and ignored.
    #[inline]
    pub fn add_transfer(&mut self, src: DcId, dst: DcId, units: u64) {
        if src != dst {
            self.up[src as usize] += units;
            self.down[dst as usize] += units;
        }
    }

    /// Retires an [`Self::add_transfer`].
    #[inline]
    pub fn remove_transfer(&mut self, src: DcId, dst: DcId, units: u64) {
        if src != dst {
            self.up[src as usize] -= units;
            self.down[dst as usize] -= units;
        }
    }

    /// Total bytes crossing the WAN (sum of uploads).
    pub fn total_up(&self) -> f64 {
        self.up.iter().sum::<u64>() as f64 * BYTES_PER_UNIT
    }

    /// Stage completion time under `env` (Eq 2/3): the slowest DC link.
    pub fn transfer_time(&self, env: &CloudEnv) -> f64 {
        stage_time_rows(&self.up, &self.down, env)
    }

    /// Monetary cost of the stage's uploads under `env` ($), Eq 5's inner
    /// term: only uploads are charged.
    pub fn upload_cost(&self, env: &CloudEnv) -> f64 {
        upload_cost_row(&self.up, env)
    }

    /// Resets all loads to zero, keeping the allocation.
    pub fn clear(&mut self) {
        self.up.fill(0);
        self.down.fill(0);
    }

    /// Upload units per DC.
    pub fn up(&self) -> &[u64] {
        &self.up
    }

    /// Download units per DC.
    pub fn down(&self) -> &[u64] {
        &self.down
    }
}

/// Transfer time of a whole iteration (gather stage then apply stage with a
/// global barrier between them) — the paper's Eq 1.
pub fn iteration_time(gather: &StageLoads, apply: &StageLoads, env: &CloudEnv) -> f64 {
    gather.transfer_time(env) + apply.transfer_time(env)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datacenter::Datacenter;

    fn two_dc_env() -> CloudEnv {
        CloudEnv::new(vec![
            Datacenter::from_gb_units("fast", 1.0, 2.0, 0.10),
            Datacenter::from_gb_units("slow", 0.5, 1.0, 0.20),
        ])
    }

    /// `gb` gigabytes in load units.
    fn gb(gb: f64) -> u64 {
        (gb * 1.0e9) as u64 * (1 << LOAD_UNIT_SHIFT)
    }

    #[test]
    fn transfer_time_is_slowest_link() {
        let env = two_dc_env();
        let mut loads = StageLoads::new(2);
        loads.add_transfer(0, 1, gb(1.0)); // up at fast (1s/1GBps=1s), down at slow (1GB/1GBps=1s)
        assert!((loads.transfer_time(&env) - 1.0).abs() < 1e-9);
        loads.add_transfer(1, 0, gb(1.0)); // up at slow: 1GB/0.5GBps = 2s dominates
        assert!((loads.transfer_time(&env) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn intra_dc_transfers_free() {
        let env = two_dc_env();
        let mut loads = StageLoads::new(2);
        loads.add_transfer(0, 0, gb(5.0));
        assert_eq!(loads.transfer_time(&env), 0.0);
        assert_eq!(loads.upload_cost(&env), 0.0);
    }

    #[test]
    fn only_uploads_charged() {
        let env = two_dc_env();
        let mut loads = StageLoads::new(2);
        loads.add_transfer(0, 1, gb(1.0)); // 1 GB up at $0.10/GB
        assert!((loads.upload_cost(&env) - 0.10).abs() < 1e-9);
        loads.add_transfer(1, 0, gb(1.0)); // 1 GB up at $0.20/GB
        assert!((loads.upload_cost(&env) - 0.30).abs() < 1e-9);
    }

    #[test]
    fn iteration_time_sums_stages() {
        let env = two_dc_env();
        let mut gather = StageLoads::new(2);
        gather.add_transfer(0, 1, gb(1.0));
        let mut apply = StageLoads::new(2);
        apply.add_transfer(1, 0, gb(0.5));
        let t = iteration_time(&gather, &apply, &env);
        assert!((t - 2.0).abs() < 1e-9, "1s gather + 1s apply = {t}");
    }

    #[test]
    fn clear_keeps_shape() {
        let mut a = StageLoads::new(3);
        a.add_transfer(2, 0, 7);
        a.clear();
        assert_eq!(a.up().len(), 3);
        assert_eq!(a.total_up(), 0.0);
    }

    #[test]
    fn unit_rows_scale_to_the_byte_rows_bits() {
        // Whole-unit loads: the unit-row reductions return the bits the
        // same reductions over byte rows would (the scale is a power of two).
        let env = crate::regions::ec2_eight_regions();
        let bytes: Vec<f64> = (0..8).map(|d| 8.0 * (3 * d + 1) as f64 + 0.5).collect();
        let units: Vec<u64> = bytes.iter().map(|&b| (b * 256.0) as u64).collect();
        let (up, down) = (env.uplinks(), env.downlinks());
        let time = bytes
            .iter()
            .zip(up)
            .map(|(b, u)| b / u)
            .fold(0.0f64, f64::max)
            .max(bytes.iter().rev().zip(down).map(|(b, d)| b / d).fold(0.0f64, f64::max));
        let rev: Vec<u64> = units.iter().rev().copied().collect();
        assert_eq!(stage_time_rows(&units, &rev, &env).to_bits(), time.to_bits());
        let cost = dot(&bytes, env.prices());
        assert_eq!(upload_cost_row(&units, &env).to_bits(), cost.to_bits());
    }
}
