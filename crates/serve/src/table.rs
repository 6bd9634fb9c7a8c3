//! The immutable routing table: a read-optimized snapshot of one
//! committed placement.
//!
//! A [`RoutingTable`] answers the question analytics frontends ask the
//! placement layer: **vertex → master DC**, where a vertex's
//! authoritative replica lives (writes, scatter targets). It holds one
//! plane, the plan's master vector. Under the hybrid cut a plan *is* its
//! masters: a vertex's mirrors and each edge's processing DC follow from
//! the masters and the graph (DESIGN §3h), so they are derived from the
//! plan where they are needed, not served.
//!
//! Tables are *immutable* once built — every field is plain owned data,
//! so a `&RoutingTable` is safely shared across any number of threads
//! with no interior locking. Live re-partitioning never mutates a
//! table; it builds a new one and flips it in through the
//! [`crate::board::PlanBoard`].

use geograph::{DcId, VertexId};
use geopart::PlacementState;

/// A read-only snapshot of one published placement.
#[derive(Clone, Debug, PartialEq)]
pub struct RoutingTable {
    /// Unique publication sequence number, assigned by the board at
    /// publish time (0 = never published).
    pub(crate) epoch: u64,
    /// Committed trainer window this table was snapshotted from (the
    /// table's *provenance*; evacuations re-publish the same window).
    window: u64,
    num_dcs: u8,
    /// Master DC per vertex.
    masters: Vec<DcId>,
}

impl RoutingTable {
    /// Snapshots a routing table from a sealed placement state: a copy of
    /// its master plane into an exactly sized buffer.
    pub fn from_placement(window: u64, core: &PlacementState) -> RoutingTable {
        RoutingTable::from_homes(window, core.masters(), core.num_dcs())
    }

    /// A table for a pipeline with no committed placement yet: every
    /// vertex is served from its home location.
    pub fn from_homes(window: u64, homes: &[DcId], num_dcs: usize) -> RoutingTable {
        RoutingTable { epoch: 0, window, num_dcs: num_dcs as u8, masters: homes.to_vec() }
    }

    /// Publication sequence number (unique per published table).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Committed trainer window this table reflects.
    pub fn window(&self) -> u64 {
        self.window
    }

    /// Number of routable vertices.
    pub fn num_vertices(&self) -> usize {
        self.masters.len()
    }

    /// Number of data centers.
    pub(crate) fn num_dcs(&self) -> usize {
        self.num_dcs as usize
    }

    /// Master DC of every vertex.
    pub fn masters(&self) -> &[DcId] {
        &self.masters
    }

    /// Batched vertex → master lookup: clears `out` and fills it with
    /// the master of every vertex in `vs`. One bounds-checked pass, no
    /// per-lookup allocation. Inlined, so the loop lands in the caller's
    /// batch loop and is unrolled there.
    #[inline]
    pub fn lookup_many(&self, vs: &[VertexId], out: &mut Vec<DcId>) {
        // The plane as a local slice. Inlined behind a reader's `Arc`, LLVM
        // cannot prove that a store into `out` leaves `self.masters` alone,
        // so indexing through `self` reloads the plane's pointer and length
        // after every store; a local keeps both in registers (DESIGN §3h).
        let masters: &[DcId] = &self.masters;
        out.clear();
        out.reserve(vs.len());
        out.extend(vs.iter().map(|&v| masters[v as usize]));
    }

    /// Resident heap bytes of this table: its one per-vertex plane, a
    /// master `DcId` each. This is what one published epoch pins while
    /// readers hold it — the serving daemon's steady-state footprint is
    /// `heap_bytes` times the number of epochs still referenced.
    pub fn heap_bytes(&self) -> usize {
        self.masters.capacity() * std::mem::size_of::<DcId>()
    }

    /// The table this one becomes when the DCs flagged in `dead` fail:
    /// every vertex mastered on a dead DC is re-routed by the trainer's
    /// own re-seed rule ([`geopart::reseed_stranded_masters`]: its home
    /// location if alive, else the first live DC), so the evacuated table
    /// matches the moves the next trained window applies to its carried
    /// plan.
    ///
    /// # Panics
    /// If `dead` does not cover the DC count, `homes` does not cover the
    /// vertices, or every DC is dead.
    pub(crate) fn evacuated(&self, dead: &[bool], homes: &[DcId]) -> RoutingTable {
        let mut out = self.clone();
        geopart::reseed_stranded_masters(&mut out.masters, homes, dead, self.num_dcs as usize)
            .unwrap_or_else(|e| panic!("evacuation refused: {e}"));
        out.epoch = 0; // re-assigned at publish
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geograph::{EdgeEvent, EventKind, GeoGraph, GraphBuilder, GraphDelta, LocalityConfig};
    use geopart::{HybridState, TrafficProfile};
    use geosim::regions::ec2_eight_regions;

    fn small_geo() -> GeoGraph {
        let n = 60;
        let mut b = GraphBuilder::new(n);
        for i in 0..n as u32 {
            b.add_edges([(i, 0), (i, (i + 1) % n as u32)]);
        }
        GeoGraph::from_graph(b.build(), &LocalityConfig::uniform(8, 5))
    }

    /// Asserts `t` routes every vertex of `core` the way the partitioner
    /// placed it, through its master plane and the batched lookup.
    fn assert_mirrors(t: &RoutingTable, core: &PlacementState) {
        let n = core.num_vertices();
        assert_eq!(t.num_vertices(), n);
        assert_eq!(t.masters(), core.masters());
        // One byte per vertex: the master plane is the whole table.
        assert_eq!(t.heap_bytes(), n);
        let vs: Vec<VertexId> = (0..n as VertexId).rev().collect();
        let mut out = Vec::new();
        t.lookup_many(&vs, &mut out);
        assert_eq!(out.len(), n);
        for (i, &v) in vs.iter().enumerate() {
            assert_eq!(out[i], t.masters()[v as usize]);
        }
    }

    #[test]
    fn table_mirrors_the_placement_it_snapshots() {
        let geo = small_geo();
        let env = ec2_eight_regions();
        let n = geo.num_vertices();
        let state = HybridState::from_masters(
            &geo,
            &env,
            geo.locations.clone(),
            3,
            TrafficProfile::uniform(n, 8.0),
            10.0,
        );
        let t = RoutingTable::from_placement(7, state.core());
        assert_eq!(t.window(), 7);
        assert_mirrors(&t, state.core());

        // A state grown by a delta that appends vertices: every plane of
        // the next table covers them.
        let old_n = n as VertexId;
        let events: Vec<EdgeEvent> = [(old_n, 0), (old_n + 1, 3), (3, old_n + 2), (old_n + 2, 0)]
            .into_iter()
            .zip(0..)
            .map(|((src, dst), timestamp_ms)| EdgeEvent {
                src,
                dst,
                timestamp_ms,
                kind: EventKind::Insert,
            })
            .collect();
        let delta = GraphDelta::from_events(&geo.graph, &events);
        let grown_n = delta.new_num_vertices();
        assert_eq!(grown_n, n + 3);
        let mut locations = geo.locations.clone();
        locations.extend([1, 4, 6]);
        let mut sizes = geo.data_sizes.clone();
        sizes.resize(grown_n, 1_000);
        let grown_geo = GeoGraph::new(geo.graph.apply_delta(&delta), locations, sizes, geo.num_dcs);
        let (core, theta) = state.into_parts();
        let profile = TrafficProfile::uniform(grown_n, 8.0);
        let (grown, _) =
            HybridState::resume_from_parts(core, theta, &grown_geo, &env, &delta, &profile)
                .unwrap();
        let t = RoutingTable::from_placement(8, grown.core());
        assert_eq!(t.masters()[n..], [1, 4, 6]);
        assert_mirrors(&t, grown.core());
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn lookup_many_panics_on_a_key_past_the_table() {
        let t = RoutingTable::from_homes(0, &[0, 1, 2, 3], 4);
        t.lookup_many(&[0, 3, 4], &mut Vec::new());
    }

    #[test]
    fn evacuation_reroutes_exactly_like_the_trainer_reseed() {
        let geo = small_geo();
        let t = RoutingTable::from_homes(0, &geo.locations, geo.num_dcs);
        let mut dead = vec![false; geo.num_dcs];
        dead[2] = true;
        dead[5] = true;
        let evac = t.evacuated(&dead, &geo.locations);
        for v in 0..t.num_vertices() as VertexId {
            let m = evac.masters()[v as usize];
            assert!(!dead[m as usize], "vertex {v} still mastered on a dead DC");
            // Home was dead, so the fallback is the first live DC (0).
            let home = geo.locations[v as usize];
            let expect = if dead[home as usize] { 0 } else { home };
            assert_eq!(m, expect);
        }
        // A healthy evacuation is the identity on masters.
        let all_live = vec![false; geo.num_dcs];
        let noop = t.evacuated(&all_live, &geo.locations);
        assert_eq!(noop.masters(), t.masters());
    }
}
