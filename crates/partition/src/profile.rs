//! Expected per-iteration traffic of the analytics job.

use geosim::transfer::BYTES_PER_UNIT;

use crate::error::PlanError;
use crate::VertexId;

/// Expected message sizes per vertex per iteration.
///
/// The paper's performance model (Eq 1–3) is parameterized by `g_v^r(i)`
/// (bytes a mirror DC sends the master in the gather stage) and `a_v(i)`
/// (bytes the master sends each mirror in the apply stage). When the
/// partitioner optimizes offline it cannot know the exact per-iteration
/// values, so it works from an *expected* profile: uniform for PageRank
/// (every vertex active every iteration), activity-weighted for SSSP/SI
/// (derived by `geoengine` from a reference execution).
#[derive(Clone, Debug, PartialEq)]
pub struct TrafficProfile {
    /// Expected gather bytes per mirror-DC per iteration (`g_v`).
    pub gather_bytes: Vec<f32>,
    /// Expected apply bytes per mirror per iteration (`a_v`).
    pub apply_bytes: Vec<f32>,
}

impl TrafficProfile {
    /// Uniform profile: every vertex exchanges `bytes` in both stages each
    /// iteration — the PageRank-style workload.
    pub fn uniform(num_vertices: usize, bytes: f32) -> Self {
        TrafficProfile {
            gather_bytes: vec![bytes; num_vertices],
            apply_bytes: vec![bytes; num_vertices],
        }
    }

    /// A profile from explicit per-vertex activity weights in `[0, 1]`
    /// scaled by a base message size (SSSP/SI-style workloads).
    pub fn weighted(weights: &[f32], bytes: f32) -> Self {
        TrafficProfile {
            gather_bytes: weights.iter().map(|w| w * bytes).collect(),
            apply_bytes: weights.iter().map(|w| w * bytes).collect(),
        }
    }

    /// Number of vertices the profile covers.
    pub fn len(&self) -> usize {
        self.gather_bytes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.gather_bytes.is_empty()
    }

    /// Vertex `v`'s `(g_v, a_v)` rounded to the nearest load unit — the one
    /// quantisation, where a profile enters a placement state or a load
    /// accumulator. NaN, a negative value or one past `u32::MAX` units is
    /// [`PlanError::ProfileOutOfRange`].
    pub fn units(&self, v: VertexId) -> Result<(u32, u32), PlanError> {
        let quantise = |bytes: f32| {
            let units = (bytes as f64 / BYTES_PER_UNIT).round();
            if bytes >= 0.0 && units <= u32::MAX as f64 {
                Ok(units as u32)
            } else {
                Err(PlanError::ProfileOutOfRange { vertex: v, bytes })
            }
        };
        let i = v as usize;
        Ok((quantise(self.gather_bytes[i])?, quantise(self.apply_bytes[i])?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform() {
        let p = TrafficProfile::uniform(3, 8.0);
        assert_eq!(p.len(), 3);
        assert_eq!(p.units(0), Ok((2048, 2048)));
        assert_eq!(p.units(2), Ok((2048, 2048)));
    }

    #[test]
    fn weighted() {
        let p = TrafficProfile::weighted(&[0.0, 0.5, 1.0], 8.0);
        assert_eq!(p.units(0), Ok((0, 0)));
        assert_eq!(p.units(1), Ok((1024, 1024)));
        assert_eq!(p.units(2), Ok((2048, 2048)));
    }

    #[test]
    fn units_round_to_nearest_and_round_trip() {
        let p = TrafficProfile {
            gather_bytes: vec![1.5e-3, -0.0, 1e6, 1.0e7],
            apply_bytes: vec![0.3, 2.0e-3, 65536.5, 7.0],
        };
        assert_eq!(p.units(0), Ok((0, 77)));
        assert_eq!(p.units(1), Ok((0, 1)));
        // Units in bytes (what a state's `traffic_profile` returns) quantise
        // back to the same units.
        let bytes = |u: u32| u as f32 * BYTES_PER_UNIT as f32;
        for v in 0..4 {
            let (g, a) = p.units(v).unwrap();
            let back = TrafficProfile { gather_bytes: vec![bytes(g)], apply_bytes: vec![bytes(a)] };
            assert_eq!(back.units(0), Ok((g, a)), "v {v}");
        }
    }

    #[test]
    fn out_of_range_bytes_are_typed_errors() {
        for bad in [f32::NAN, -1.0, f32::INFINITY, 2.0e7] {
            let p = TrafficProfile { gather_bytes: vec![8.0, 8.0], apply_bytes: vec![8.0, bad] };
            assert_eq!(p.units(0), Ok((2048, 2048)));
            match p.units(1) {
                Err(PlanError::ProfileOutOfRange { vertex: 1, bytes }) => {
                    assert_eq!(bytes.to_bits(), bad.to_bits())
                }
                other => panic!("{bad}: expected ProfileOutOfRange, got {other:?}"),
            }
        }
    }
}
