//! Wire encoding of a **hybrid-cut** [`PlacementState`] for durable
//! snapshots. A vertex-cut state cannot travel this way: its edge
//! placement is not a function of the masters.
//!
//! Crash-exact recovery needs the restored state to be **bit-identical**
//! to the live one. Every accumulator but one is an integer function of
//! the graph, the masters and the profile, so it is rebuilt rather than
//! stored: the stage loads (in load units) and the Eq 4 moved bytes sum
//! to the same integers in any order. What travels as raw `f64` bits is
//! `num_iterations` and the priced `movement_cost`, because the decoder
//! has no environment to price the moved bytes with.
//!
//! What else travels is what the hybrid-cut rule (§IV-B) reads: the
//! masters as a `⌈log2 M⌉`-bit DC-id plane, `is_high` as a bitmap (so
//! decoding does not depend on how θ classifies) and the near-constant
//! traffic profile as `(units, run)` varint pairs. The `n × M × 2` count
//! plane, the occupancy masks and the per-DC edge balance are that rule's
//! output over the snapshot's graph, so [`decode_placement`] rebuilds them
//! with the same row-sequential kernel `HybridState::from_masters` uses
//! (`PlacementState::place_hybrid_edges`) and a snapshot cannot carry an
//! inconsistent plane. Malformed bytes surface as typed [`WireError`]s —
//! never panics, never a half-valid state.

use std::io::{self, Write};

use geograph::wire::{
    put_dcs, put_runs, put_varint, read_dcs, BitReader, BitWriter, Reader, WireError,
};
use geograph::{GeoGraph, MAX_DCS};

use crate::state::PlacementState;

/// Writes one profile plane of load units as `(units, run)` varint pairs.
fn put_unit_runs<W: Write>(w: &mut W, units: impl Iterator<Item = u32> + Clone) -> io::Result<()> {
    put_runs(w, units, u64::from, |w, x| put_varint(w, x.into()))
}

/// Writes the wire form of the hybrid-cut `state` to `w`: everything but
/// the count plane and what is derived from it.
pub fn encode_placement<W: Write>(state: &PlacementState, w: &mut W) -> io::Result<()> {
    let m = state.num_dcs;
    put_varint(w, state.masters.len() as u64)?;
    put_varint(w, m as u64)?;
    w.write_all(&state.num_iterations.to_bits().to_le_bytes())?;
    w.write_all(&state.movement_cost.to_bits().to_le_bytes())?;
    put_dcs(w, &state.masters, m)?;
    let mut bitmap = BitWriter::new(w);
    state.meta.iter().try_for_each(|meta| bitmap.bits(meta.high as u64, 1))?;
    bitmap.finish()?;
    put_unit_runs(w, state.meta.iter().map(|meta| meta.g))?;
    put_unit_runs(w, state.meta.iter().map(|meta| meta.a))
}

/// Decodes one hybrid-cut placement state over `geo` from `r`, rebuilding
/// the count plane, occupancy masks, per-DC balance, stage loads and moved
/// bytes from `geo`. A state whose vertex or DC count is not `geo`'s is
/// refused before anything is derived.
pub fn decode_placement(r: &mut Reader<'_>, geo: &GeoGraph) -> Result<PlacementState, WireError> {
    let (n, m) = (r.varint()?, r.varint()?);
    if m == 0 || m > MAX_DCS as u64 {
        return Err(WireError::Malformed("DC count out of range"));
    }
    // A vertex costs at least its `is_high` bit; bound n by that before any
    // sized allocation so a corrupt count fails as Truncated, not OOM.
    if n > 8 * r.remaining() as u64 {
        return Err(WireError::Truncated);
    }
    if n != geo.num_vertices() as u64 || m != geo.num_dcs as u64 {
        return Err(WireError::Malformed("placement does not match geo"));
    }
    let (n, m) = (n as usize, m as usize);
    let num_iterations = r.f64()?;
    let movement_cost = r.f64()?;
    let masters = read_dcs(r, n, m, "master out of range")?;
    let mut bitmap = BitReader::new(r);
    let is_high = (0..n).map(|_| Ok(bitmap.bits(1)? == 1)).collect::<Result<Vec<_>, _>>()?;
    bitmap.finish()?;
    let g = r.runs(n, Reader::varint_u32)?;
    let a = r.runs(n, Reader::varint_u32)?;

    let units = g.into_iter().zip(a).map(Ok);
    let mut state = PlacementState::unplaced(m, masters, is_high, units, num_iterations)
        .expect("decoded units are loads");
    state.place_hybrid_edges(&geo.graph);
    state.rebuild_loads();
    state.moved = geosim::cost::moved_bytes(&geo.locations, &state.masters, &geo.data_sizes);
    state.movement_cost = movement_cost;
    Ok(state)
}

/// Decodes a standalone placement blob over `geo`, requiring full
/// consumption.
pub fn placement_from_bytes(bytes: &[u8], geo: &GeoGraph) -> Result<PlacementState, WireError> {
    let mut r = Reader::new(bytes);
    let state = decode_placement(&mut r, geo)?;
    r.finish()?;
    Ok(state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hybrid::HybridState;
    use crate::profile::TrafficProfile;
    use geograph::{GraphBuilder, LocalityConfig};
    use geosim::CloudEnv;

    /// `state` as a standalone byte blob.
    fn placement_to_bytes(state: &PlacementState) -> Vec<u8> {
        let mut out = Vec::new();
        encode_placement(state, &mut out).expect("writing to a Vec cannot fail");
        out
    }

    /// A placement over five DCs, so a master takes 3 bits and the values
    /// 5–7 are spellable but out of range.
    fn build() -> (GeoGraph, CloudEnv, PlacementState, usize) {
        let mut b = GraphBuilder::new(32);
        for i in 0..31u32 {
            b.add_edges([(i, i + 1), (i, (i * 7 + 3) % 32)]);
        }
        let geo = GeoGraph::from_graph(b.build(), &LocalityConfig::uniform(5, 11));
        let env = CloudEnv::new(geosim::regions::ec2_eight_regions().dcs()[..5].to_vec());
        let profile = TrafficProfile::uniform(geo.num_vertices(), 8.0);
        let hybrid =
            HybridState::try_from_masters(&geo, &env, geo.locations.clone(), 3, profile, 10.0)
                .unwrap();
        let (state, theta) = hybrid.into_parts();
        (geo, env, state, theta)
    }

    fn assert_identical(a: &PlacementState, b: &PlacementState) {
        assert_eq!(a.num_dcs, b.num_dcs);
        assert_eq!(a.masters, b.masters);
        assert_eq!(a.count_lanes(), b.count_lanes());
        assert_eq!(a.meta, b.meta);
        assert_eq!(a.edges_per_dc, b.edges_per_dc);
        assert_eq!((&a.gather, &a.apply), (&b.gather, &b.apply));
        assert_eq!(a.moved, b.moved);
        assert_eq!(a.movement_cost.to_bits(), b.movement_cost.to_bits());
        assert_eq!(a.num_iterations.to_bits(), b.num_iterations.to_bits());
    }

    #[test]
    fn round_trip_is_bit_identical() {
        let (geo, _, state, _) = build();
        let restored = placement_from_bytes(&placement_to_bytes(&state), &geo).unwrap();
        assert_identical(&state, &restored);
    }

    #[test]
    fn round_trip_survives_validate_plan() {
        let (geo, env, state, theta) = build();
        let restored = placement_from_bytes(&placement_to_bytes(&state), &geo).unwrap();
        let hybrid = HybridState::from_parts(restored, theta, &geo);
        hybrid.validate_plan(&env).unwrap();
    }

    #[test]
    fn truncation_never_panics() {
        let (geo, _, state, _) = build();
        let bytes = placement_to_bytes(&state);
        for len in 0..bytes.len() {
            assert!(placement_from_bytes(&bytes[..len], &geo).is_err(), "len {len} decoded");
        }
    }

    #[test]
    fn malformed_master_rejected() {
        let (geo, _, state, _) = build();
        let mut bytes = placement_to_bytes(&state);
        // First master: the low 3 bits past varint(n), varint(M) and the
        // two f64 accumulators.
        bytes[18] |= 0b111;
        assert!(matches!(
            placement_from_bytes(&bytes, &geo),
            Err(WireError::Malformed("master out of range"))
        ));
    }

    mod properties {
        use super::*;
        use proptest::collection::vec;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Random graphs (empty rows, a hub row, n = 0) × random
            /// placements and profiles round-trip with every field —
            /// derived ones included — identical, and re-encode to the
            /// same bytes.
            #[test]
            fn placement_wire_round_trip(
                n in 0usize..48,
                edges in vec((0u32..64, 0u32..64), 0..160),
                masters in vec(0u8..8, 48..49),
                profile in vec((0u8..3, 0u8..3), 48..49),
                theta in 1usize..6,
            ) {
                let mut b = GraphBuilder::new(n);
                if n > 0 {
                    b.add_edges(edges.iter().map(|&(u, v)| (u % n as u32, v % n as u32)));
                    b.add_edges((1..n as u32).map(|v| (v, 0)));
                }
                let geo = GeoGraph::from_graph(b.build(), &LocalityConfig::uniform(8, 5));
                let env = geosim::regions::ec2_eight_regions();
                let value = |k: u8| [8.0f32, -0.0, 1.5e-3][k as usize];
                let profile = TrafficProfile {
                    gather_bytes: profile[..n].iter().map(|&(g, _)| value(g)).collect(),
                    apply_bytes: profile[..n].iter().map(|&(_, a)| value(a)).collect(),
                };
                let hybrid = HybridState::try_from_masters(
                    &geo, &env, masters[..n].to_vec(), theta, profile, 10.0,
                ).unwrap();
                let (state, _) = hybrid.into_parts();
                let bytes = placement_to_bytes(&state);
                let restored = placement_from_bytes(&bytes, &geo).unwrap();
                assert_identical(&state, &restored);
                prop_assert_eq!(bytes, placement_to_bytes(&restored));
            }
        }
    }
}
