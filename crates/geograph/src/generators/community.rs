//! Community-structured graphs (a stochastic-block-model / LFR-lite
//! generator) with power-law degrees.
//!
//! Real geo-distributed graphs cluster: users in one region follow each
//! other more. R-MAT gives degree skew but no controllable communities;
//! this generator gives both, and its ground-truth community labels can
//! seed geo-locality directly (each community homed in one DC), producing
//! workloads where locality-aware partitioning has real structure to find.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use super::rmat::chunk_seed;
use crate::csr::Graph;
use crate::stream::{build_chunked, BuildError, ChunkedEdges, IngestReport, ScopedPool};
use crate::GraphBuilder;
use crate::VertexId;

/// Parameters of the community model.
#[derive(Clone, Debug)]
pub struct CommunityConfig {
    pub num_vertices: usize,
    pub num_edges: usize,
    /// Number of communities.
    pub num_communities: usize,
    /// Probability that an edge stays inside its source's community.
    pub intra_probability: f64,
    /// Zipf exponent for community sizes (0 = equal sizes).
    pub size_skew: f64,
    /// Power for degree-proportional endpoint sampling inside a community
    /// (1.0 = preferential-attachment-like skew, 0.0 = uniform).
    pub degree_skew: f64,
    pub seed: u64,
}

impl Default for CommunityConfig {
    fn default() -> Self {
        CommunityConfig {
            num_vertices: 10_000,
            num_edges: 80_000,
            num_communities: 8,
            intra_probability: 0.7,
            size_skew: 0.8,
            degree_skew: 0.8,
            seed: 42,
        }
    }
}

/// A generated community graph: the structure plus ground-truth labels.
#[derive(Clone, Debug)]
pub struct CommunityGraph {
    pub graph: Graph,
    /// Community id per vertex.
    pub communities: Vec<u32>,
}

/// Deterministic (RNG-free) community layout: per-vertex labels plus
/// `(start, len)` boundaries per community. Shared by the staged and
/// streamed generators so both see identical community structure.
fn community_layout(config: &CommunityConfig) -> (Vec<u32>, Vec<(usize, usize)>) {
    assert!(config.num_vertices >= config.num_communities);
    assert!(config.num_communities >= 1);
    assert!((0.0..=1.0).contains(&config.intra_probability));
    let n = config.num_vertices;
    let k = config.num_communities;

    // Zipf-ish community sizes, then assign vertices contiguously.
    let weights: Vec<f64> = (1..=k).map(|i| 1.0 / (i as f64).powf(config.size_skew)).collect();
    let total: f64 = weights.iter().sum();
    let mut sizes: Vec<usize> =
        weights.iter().map(|w| ((w / total) * n as f64).max(1.0) as usize).collect();
    // Fix rounding drift onto the largest community.
    let assigned: usize = sizes.iter().sum();
    if assigned < n {
        sizes[0] += n - assigned;
    } else {
        let mut extra = assigned - n;
        for s in sizes.iter_mut() {
            let take = extra.min(s.saturating_sub(1));
            *s -= take;
            extra -= take;
            if extra == 0 {
                break;
            }
        }
    }
    let mut communities = Vec::with_capacity(n);
    let mut boundaries = Vec::with_capacity(k); // (start, len) per community
    let mut cursor = 0usize;
    for (c, &size) in sizes.iter().enumerate() {
        boundaries.push((cursor, size));
        communities.extend(std::iter::repeat_n(c as u32, size));
        cursor += size;
    }
    debug_assert_eq!(communities.len(), n);
    (communities, boundaries)
}

/// Skewed member sampling: index ~ floor(size * u^(1+skew)) biases small
/// indices, giving each community internal hubs.
#[inline]
fn pick(rng: &mut SmallRng, start: usize, len: usize, skew: f64) -> VertexId {
    let u: f64 = rng.gen();
    (start + ((len as f64) * u.powf(1.0 + skew)) as usize).min(start + len - 1) as VertexId
}

/// One community edge draw. Draw order (source community, source pick,
/// intra roll, [other community], destination pick) is part of the pinned
/// output contract for both the staged and chunked paths.
#[inline]
fn sample_edge(
    config: &CommunityConfig,
    boundaries: &[(usize, usize)],
    rng: &mut SmallRng,
) -> (VertexId, VertexId) {
    let k = config.num_communities;
    let c_src = rng.gen_range(0..k);
    let (s_start, s_len) = boundaries[c_src];
    let u = pick(rng, s_start, s_len, config.degree_skew);
    let c_dst = if rng.gen::<f64>() < config.intra_probability {
        c_src
    } else {
        // Uniform over the other communities.
        let mut other = rng.gen_range(0..k - 1);
        if other >= c_src {
            other += 1;
        }
        other
    };
    let (d_start, d_len) = boundaries[c_dst];
    let v = pick(rng, d_start, d_len, config.degree_skew);
    (u, v)
}

/// Generates a community-structured digraph. Deterministic per config.
pub fn community_graph(config: &CommunityConfig) -> CommunityGraph {
    let (communities, boundaries) = community_layout(config);
    let mut rng = SmallRng::seed_from_u64(config.seed ^ 0xe07a_b367_11cd_4021);
    let mut builder = GraphBuilder::new(config.num_vertices).with_edge_capacity(config.num_edges);
    for _ in 0..config.num_edges {
        let (u, v) = sample_edge(config, &boundaries, &mut rng);
        builder.add_edge(u, v);
    }
    CommunityGraph { graph: builder.build(), communities }
}

/// The community model as a re-emittable chunked stream (edges are i.i.d.
/// given the layout, so any chunk regenerates independently from its own
/// `(seed, chunk)` RNG). Deterministic for a fixed
/// `(config, chunk_edges)`; a distinct stream from [`community_graph`]'s.
pub struct CommunityChunks {
    config: CommunityConfig,
    boundaries: Vec<(usize, usize)>,
    chunk_edges: usize,
}

impl CommunityChunks {
    pub fn new(config: CommunityConfig, chunk_edges: usize) -> Self {
        assert!(chunk_edges >= 1, "chunk_edges must be positive");
        let (_, boundaries) = community_layout(&config);
        CommunityChunks { config, boundaries, chunk_edges }
    }
}

impl ChunkedEdges for CommunityChunks {
    fn num_vertices(&self) -> usize {
        self.config.num_vertices
    }

    fn num_chunks(&self) -> usize {
        self.config.num_edges.div_ceil(self.chunk_edges)
    }

    fn edges_hint(&self) -> Option<u64> {
        Some(self.config.num_edges as u64)
    }

    fn emit(&self, chunk: usize, sink: &mut dyn FnMut(VertexId, VertexId)) {
        let lo = chunk * self.chunk_edges;
        let hi = (lo + self.chunk_edges).min(self.config.num_edges);
        let mut rng = SmallRng::seed_from_u64(chunk_seed(
            self.config.seed ^ 0xe07a_b367_11cd_4021,
            chunk as u64,
        ));
        for _ in lo..hi {
            let (u, v) = sample_edge(&self.config, &self.boundaries, &mut rng);
            sink(u, v);
        }
    }
}

/// Generates a community graph through the streaming two-pass ingest — no
/// staged edge list, same cleaning as [`community_graph`]. Bit-identical
/// for a fixed `(config, chunk_edges)` at any `pool.threads()`.
pub fn community_graph_streamed(
    config: &CommunityConfig,
    chunk_edges: usize,
    pool: &ScopedPool,
) -> Result<(CommunityGraph, IngestReport), BuildError> {
    let (communities, _) = community_layout(config);
    let src = CommunityChunks::new(config.clone(), chunk_edges);
    let (graph, report) = build_chunked(&src, crate::stream::StreamConfig::cleaned(), pool)?;
    Ok((CommunityGraph { graph, communities }, report))
}

/// Fraction of edges internal to their ground-truth community.
pub fn intra_community_fraction(cg: &CommunityGraph) -> f64 {
    let m = cg.graph.num_edges();
    if m == 0 {
        return 1.0;
    }
    let intra = cg
        .graph
        .edges()
        .filter(|&(u, v)| cg.communities[u as usize] == cg.communities[v as usize])
        .count();
    intra as f64 / m as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> CommunityConfig {
        CommunityConfig { num_vertices: 2000, num_edges: 16_000, ..Default::default() }
    }

    #[test]
    fn deterministic() {
        let a = community_graph(&cfg());
        let b = community_graph(&cfg());
        assert_eq!(a.graph, b.graph);
        assert_eq!(a.communities, b.communities);
    }

    #[test]
    fn covers_all_vertices_with_labels() {
        let cg = community_graph(&cfg());
        assert_eq!(cg.communities.len(), 2000);
        let max = *cg.communities.iter().max().unwrap();
        assert_eq!(max as usize, cfg().num_communities - 1);
    }

    #[test]
    fn intra_probability_controls_community_strength() {
        let strong = community_graph(&CommunityConfig { intra_probability: 0.9, ..cfg() });
        let weak = community_graph(&CommunityConfig { intra_probability: 0.2, ..cfg() });
        let fs = intra_community_fraction(&strong);
        let fw = intra_community_fraction(&weak);
        assert!(fs > 0.8, "strong {fs}");
        assert!(fw < 0.4, "weak {fw}");
    }

    #[test]
    fn size_skew_makes_unequal_communities() {
        let cg = community_graph(&CommunityConfig { size_skew: 1.2, ..cfg() });
        let mut counts = vec![0usize; cfg().num_communities];
        for &c in &cg.communities {
            counts[c as usize] += 1;
        }
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        assert!(max > 3 * min, "sizes too even: {counts:?}");
    }

    #[test]
    fn degree_skew_creates_hubs() {
        let cg = community_graph(&CommunityConfig { degree_skew: 1.5, ..cfg() });
        let stats = crate::degree::DegreeStats::compute(&cg.graph);
        assert!(
            stats.max_in as f64 > 8.0 * stats.mean_in,
            "max {} mean {}",
            stats.max_in,
            stats.mean_in
        );
    }

    #[test]
    fn legacy_stream_unchanged_by_sampler_extraction() {
        // The edge loop exactly as it stood before `sample_edge` was
        // factored out; the staged generator must reproduce it draw for
        // draw (seeded community graphs feed the locality experiments).
        let config = cfg();
        let (communities, boundaries) = community_layout(&config);
        let mut rng = SmallRng::seed_from_u64(config.seed ^ 0xe07a_b367_11cd_4021);
        let k = config.num_communities;
        let pick = |rng: &mut SmallRng, start: usize, len: usize, skew: f64| -> VertexId {
            let u: f64 = rng.gen();
            (start + ((len as f64) * u.powf(1.0 + skew)) as usize).min(start + len - 1) as VertexId
        };
        let mut builder = GraphBuilder::new(config.num_vertices);
        for _ in 0..config.num_edges {
            let c_src = rng.gen_range(0..k);
            let (s_start, s_len) = boundaries[c_src];
            let u = pick(&mut rng, s_start, s_len, config.degree_skew);
            let c_dst = if rng.gen::<f64>() < config.intra_probability {
                c_src
            } else {
                let mut other = rng.gen_range(0..k - 1);
                if other >= c_src {
                    other += 1;
                }
                other
            };
            let (d_start, d_len) = boundaries[c_dst];
            let v = pick(&mut rng, d_start, d_len, config.degree_skew);
            builder.add_edge(u, v);
        }
        let expected = CommunityGraph { graph: builder.build(), communities };
        let got = community_graph(&config);
        assert_eq!(got.graph, expected.graph);
        assert_eq!(got.communities, expected.communities);
    }

    #[test]
    fn streamed_deterministic_and_structured() {
        let (a, _) = community_graph_streamed(&cfg(), 1024, &ScopedPool(1)).unwrap();
        let (b, rep) = community_graph_streamed(&cfg(), 1024, &ScopedPool(4)).unwrap();
        assert_eq!(a.graph, b.graph);
        assert_eq!(a.communities, b.communities);
        assert_eq!(rep.raw_edges, 16_000);
        // Community structure survives the chunked RNG: intra fraction
        // still tracks intra_probability (0.7 default).
        let f = intra_community_fraction(&a);
        assert!(f > 0.5, "intra fraction {f}");
    }

    #[test]
    fn community_labels_make_good_geo_locations() {
        // The point of the generator: community = home DC gives a
        // realistic mostly-but-not-fully local edge distribution.
        let cg = community_graph(&cfg());
        let locations: Vec<crate::DcId> =
            cg.communities.iter().map(|&c| c as crate::DcId).collect();
        let frac = crate::locality::inter_dc_edge_fraction(&cg.graph, &locations);
        assert!(frac > 0.1 && frac < 0.5, "inter-DC fraction {frac}");
    }
}
