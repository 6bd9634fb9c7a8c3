//! Per-stage inter-DC load accounting and the Eq 1–3 transfer-time model.
//!
//! A *stage* (gather or apply) produces, for every DC, a total number of
//! bytes it must upload to the WAN and download from it. Under the
//! congestion-free assumption the stage finishes when the slowest DC link
//! drains: `T_stage = max_r max(up_r/U_r, down_r/D_r)` (Eq 2–3). An
//! iteration's time is the sum over its stages because of the global
//! barrier between gather and apply (Eq 1).

use crate::datacenter::CloudEnv;
use crate::DcId;

/// Lane width of the chunked reductions below. Portable SIMD by
/// construction: fixed-size array accumulators over `chunks_exact` compile
/// to `f64x4` vector code on stable without any nightly features.
const LANES: usize = 4;

/// `max_d a[d] / b[d]` over two equal-length rows, chunked [`LANES`] wide.
///
/// `max` is a selection, so reassociating the reduction is *exactly* equal
/// to the serial left fold — lane order never changes the result (all
/// loads are finite and ≥ 0, all bandwidths > 0). Each lane keeps the
/// `bytes / bandwidth` division of the serial model rather than a cached
/// reciprocal multiply: the latter shifts ratios by ~1 ulp, which is
/// enough to flip near-tied argmax decisions downstream.
#[inline]
fn max_ratio(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f64; LANES];
    let mut chunks = a.chunks_exact(LANES).zip(b.chunks_exact(LANES));
    for (ca, cb) in &mut chunks {
        for l in 0..LANES {
            acc[l] = acc[l].max(ca[l] / cb[l]);
        }
    }
    let tail = a.len() - a.len() % LANES;
    for (&xa, &xb) in a[tail..].iter().zip(&b[tail..]) {
        acc[0] = acc[0].max(xa / xb);
    }
    acc.iter().fold(0.0f64, |w, &x| w.max(x))
}

/// `Σ_d a[d] * b[d]` over two equal-length rows, chunked [`LANES`] wide
/// (four independent accumulators, combined once at the end).
#[inline]
fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f64; LANES];
    let mut chunks = a.chunks_exact(LANES).zip(b.chunks_exact(LANES));
    for (ca, cb) in &mut chunks {
        for l in 0..LANES {
            acc[l] += ca[l] * cb[l];
        }
    }
    let tail = a.len() - a.len() % LANES;
    for (&xa, &xb) in a[tail..].iter().zip(&b[tail..]) {
        acc[0] += xa * xb;
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3])
}

/// Stage completion time of explicit per-DC upload/download rows under
/// `env` — the Eq 2/3 reduction `max_r max(up_r/U_r, down_r/D_r)`, shared
/// by [`StageLoads::transfer_time`] and the incremental move-evaluation
/// kernels that project candidate moves onto scratch rows.
///
/// Bandwidth ratios divide against the environment's contiguous
/// uplink/downlink lanes so the reduction is a straight div+max sweep
/// over two pairs of flat rows.
#[inline]
pub fn stage_time_rows(up: &[f64], down: &[f64], env: &CloudEnv) -> f64 {
    debug_assert_eq!(up.len(), env.num_dcs());
    debug_assert_eq!(down.len(), env.num_dcs());
    max_ratio(up, env.uplinks()).max(max_ratio(down, env.downlinks()))
}

/// Monetary cost of a per-DC upload row under `env` ($) — Eq 5's inner
/// term `Σ_r up_r · P_r`; only uploads are charged. Shared by
/// [`StageLoads::upload_cost`] and the kernels' row projections.
#[inline]
pub fn upload_cost_row(up: &[f64], env: &CloudEnv) -> f64 {
    debug_assert_eq!(up.len(), env.num_dcs());
    dot(up, env.prices())
}

/// Per-DC upload/download byte totals for one communication stage.
#[derive(Clone, Debug, PartialEq)]
pub struct StageLoads {
    up: Vec<f64>,
    down: Vec<f64>,
}

impl StageLoads {
    /// Zero loads over `num_dcs` data centers.
    pub fn new(num_dcs: usize) -> Self {
        StageLoads { up: vec![0.0; num_dcs], down: vec![0.0; num_dcs] }
    }

    #[inline]
    pub fn num_dcs(&self) -> usize {
        self.up.len()
    }

    /// Adds `bytes` of upload at DC `dc`.
    #[inline]
    pub fn add_up(&mut self, dc: DcId, bytes: f64) {
        self.up[dc as usize] += bytes;
    }

    /// Adds `bytes` of download at DC `dc`.
    #[inline]
    pub fn add_down(&mut self, dc: DcId, bytes: f64) {
        self.down[dc as usize] += bytes;
    }

    /// Records a WAN transfer of `bytes` from `src` to `dst`. Intra-DC
    /// transfers are free and ignored.
    #[inline]
    pub fn add_transfer(&mut self, src: DcId, dst: DcId, bytes: f64) {
        if src != dst {
            self.up[src as usize] += bytes;
            self.down[dst as usize] += bytes;
        }
    }

    /// Upload bytes at `dc`.
    #[inline]
    pub fn up(&self, dc: DcId) -> f64 {
        self.up[dc as usize]
    }

    /// Download bytes at `dc`.
    #[inline]
    pub fn down(&self, dc: DcId) -> f64 {
        self.down[dc as usize]
    }

    /// Total bytes crossing the WAN (sum of uploads).
    pub fn total_up(&self) -> f64 {
        self.up.iter().sum()
    }

    /// Stage completion time under `env` (Eq 2/3): the slowest DC link.
    pub fn transfer_time(&self, env: &CloudEnv) -> f64 {
        debug_assert_eq!(self.num_dcs(), env.num_dcs());
        stage_time_rows(&self.up, &self.down, env)
    }

    /// Monetary cost of the stage's uploads under `env` ($), Eq 5's inner
    /// term: only uploads are charged.
    pub fn upload_cost(&self, env: &CloudEnv) -> f64 {
        debug_assert_eq!(self.num_dcs(), env.num_dcs());
        upload_cost_row(&self.up, env)
    }

    /// Resets all loads to zero, keeping the allocation.
    pub fn clear(&mut self) {
        self.up.iter_mut().for_each(|b| *b = 0.0);
        self.down.iter_mut().for_each(|b| *b = 0.0);
    }

    /// Upload loads per DC as a slice (used by incremental evaluators that
    /// project moves onto stack-allocated scratch copies).
    pub fn up_slice(&self) -> &[f64] {
        &self.up
    }

    /// Download loads per DC as a slice.
    pub fn down_slice(&self) -> &[f64] {
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

    #[test]
    fn transfer_time_is_slowest_link() {
        let env = two_dc_env();
        let mut loads = StageLoads::new(2);
        loads.add_transfer(0, 1, 1.0e9); // up at fast (1s/1GBps=1s), down at slow (1GB/1GBps=1s)
        assert!((loads.transfer_time(&env) - 1.0).abs() < 1e-9);
        loads.add_transfer(1, 0, 1.0e9); // up at slow: 1GB/0.5GBps = 2s dominates
        assert!((loads.transfer_time(&env) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn intra_dc_transfers_free() {
        let env = two_dc_env();
        let mut loads = StageLoads::new(2);
        loads.add_transfer(0, 0, 5.0e9);
        assert_eq!(loads.transfer_time(&env), 0.0);
        assert_eq!(loads.upload_cost(&env), 0.0);
    }

    #[test]
    fn only_uploads_charged() {
        let env = two_dc_env();
        let mut loads = StageLoads::new(2);
        loads.add_transfer(0, 1, 1.0e9); // 1 GB up at $0.10/GB
        assert!((loads.upload_cost(&env) - 0.10).abs() < 1e-9);
        loads.add_transfer(1, 0, 1.0e9); // 1 GB up at $0.20/GB
        assert!((loads.upload_cost(&env) - 0.30).abs() < 1e-9);
    }

    #[test]
    fn iteration_time_sums_stages() {
        let env = two_dc_env();
        let mut gather = StageLoads::new(2);
        gather.add_transfer(0, 1, 1.0e9);
        let mut apply = StageLoads::new(2);
        apply.add_transfer(1, 0, 0.5e9);
        let t = iteration_time(&gather, &apply, &env);
        assert!((t - 2.0).abs() < 1e-9, "1s gather + 1s apply = {t}");
    }

    #[test]
    fn clear_keeps_shape() {
        let mut a = StageLoads::new(3);
        a.add_up(2, 7.0);
        a.clear();
        assert_eq!(a.num_dcs(), 3);
        assert_eq!(a.total_up(), 0.0);
    }
}
