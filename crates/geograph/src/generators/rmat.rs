//! R-MAT (recursive matrix) power-law graph generator.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::csr::Graph;
use crate::stream::{build_chunked, BuildError, ChunkedEdges, IngestReport, ScopedPool};
use crate::GraphBuilder;
use crate::VertexId;

/// Parameters of the R-MAT model.
///
/// The four quadrant probabilities `(a, b, c, d)` must sum to 1. Larger `a`
/// concentrates edges among low-id vertices, producing heavier degree skew —
/// web graphs (uk-2005, it-2004) use a more skewed preset than social graphs
/// (LiveJournal, Orkut) in [`crate::datasets`].
#[derive(Clone, Copy, Debug)]
pub struct RmatConfig {
    /// Number of vertices in the output graph (not required to be a power
    /// of two; generation runs on the next power of two and folds ids back).
    pub num_vertices: usize,
    /// Number of edges to *attempt*; self-loops and duplicates are removed,
    /// so the output has at most this many.
    pub num_edges: usize,
    /// Quadrant probabilities.
    pub a: f64,
    pub b: f64,
    pub c: f64,
    /// Per-level noise added to the quadrant probabilities, which avoids the
    /// unrealistically regular structure of noiseless R-MAT.
    pub noise: f64,
}

impl RmatConfig {
    /// A social-network-like preset (moderate skew).
    pub fn social(num_vertices: usize, num_edges: usize) -> Self {
        RmatConfig { num_vertices, num_edges, a: 0.57, b: 0.19, c: 0.19, noise: 0.1 }
    }

    /// A web-graph-like preset (heavy skew).
    pub fn web(num_vertices: usize, num_edges: usize) -> Self {
        RmatConfig { num_vertices, num_edges, a: 0.65, b: 0.15, c: 0.15, noise: 0.1 }
    }

    fn d(&self) -> f64 {
        1.0 - self.a - self.b - self.c
    }
}

/// One R-MAT edge draw: descend `levels` quadrant choices with per-level
/// jitter. The RNG draw order (4 jitters, then 1 roll, per level) is part
/// of the output contract — [`rmat`] and [`RmatChunks`] both go through
/// here, so refactors must not reorder draws.
///
/// A level derives its two bits from comparisons, not from an
/// `if roll < pa … else if` chain whose ≈ .57/.19/.19/.05 outcomes no branch
/// predictor learns. The output is bit-identical to that chain's: `keep` and
/// `spread` are the subterms Rust already evaluated first in
/// `1 − noise + 2·noise·r`, and `ab`, `abc` are its `pa + pb`, `pa + pb + pc`,
/// so every f64 operation is unchanged. Each weight is floored to 1e-9 and is
/// never NaN, so `pa ≤ ab ≤ abc`, and the four outcomes of the comparisons
/// against them map one-to-one onto the chain's four branches.
#[inline]
fn sample_edge(
    config: &RmatConfig,
    d: f64,
    levels: usize,
    n: usize,
    rng: &mut SmallRng,
) -> (VertexId, VertexId) {
    let (keep, spread) = (1.0 - config.noise, 2.0 * config.noise);
    let (mut u, mut v) = (0usize, 0usize);
    for _ in 0..levels {
        // Perturb the quadrant probabilities a little per level.
        let mut jitter = |p: f64| (p * (keep + spread * rng.gen::<f64>())).max(1e-9);
        let (pa, pb, pc, pd) = (jitter(config.a), jitter(config.b), jitter(config.c), jitter(d));
        let (ab, abc) = (pa + pb, pa + pb + pc);
        let roll = rng.gen::<f64>() * (abc + pd);
        u = u << 1 | (roll >= ab) as usize;
        v = v << 1 | ((roll >= pa) & (roll < ab)) as usize | (roll >= abc) as usize;
    }
    // Fold ids generated on the 2^levels grid back into [0, n).
    ((u % n) as VertexId, (v % n) as VertexId)
}

fn check_config(config: &RmatConfig) -> (f64, usize) {
    assert!(config.num_vertices >= 2, "R-MAT needs at least 2 vertices");
    let d = config.d();
    // NaN fails `>= 0`, and an infinite a, b or c is negative or makes d
    // −inf or NaN, so this also refuses every non-finite weight.
    assert!(
        [config.a, config.b, config.c, d].iter().all(|&p| p >= 0.0) && config.a > 0.0,
        "quadrant probabilities must be non-negative and sum to 1"
    );
    assert!((0.0..=1.0).contains(&config.noise), "noise must lie in [0, 1]");
    let levels = (usize::BITS - (config.num_vertices - 1).leading_zeros()) as usize;
    (d, levels)
}

/// Generates an R-MAT graph. Deterministic for a fixed `(config, seed)`.
pub fn rmat(config: &RmatConfig, seed: u64) -> Graph {
    let (d, levels) = check_config(config);
    let n = config.num_vertices;
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut builder = GraphBuilder::new(n).with_edge_capacity(config.num_edges);
    for _ in 0..config.num_edges {
        let (u, v) = sample_edge(config, d, levels, n, &mut rng);
        builder.add_edge(u, v);
    }
    builder.build()
}

/// SplitMix64 finalizer over `(seed, chunk)` — decorrelates the per-chunk
/// RNG streams so chunk boundaries don't imprint structure on the graph.
pub(crate) fn chunk_seed(seed: u64, chunk: u64) -> u64 {
    let mut z = seed ^ chunk.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// R-MAT as a re-emittable chunked stream: chunk `c` covers edge indices
/// `[c·chunk_edges, …)` and draws them from its own RNG seeded by
/// `(seed, c)`, so any chunk can be regenerated independently, in any
/// order, on any thread. Output is deterministic for a fixed
/// `(config, seed, chunk_edges)` — and *differs* from [`rmat`]'s sequential
/// stream, which is a separate, equally pinned contract.
pub struct RmatChunks {
    config: RmatConfig,
    seed: u64,
    chunk_edges: usize,
    d: f64,
    levels: usize,
}

impl RmatChunks {
    pub fn new(config: RmatConfig, seed: u64, chunk_edges: usize) -> Self {
        assert!(chunk_edges >= 1, "chunk_edges must be positive");
        let (d, levels) = check_config(&config);
        RmatChunks { config, seed, chunk_edges, d, levels }
    }
}

impl ChunkedEdges for RmatChunks {
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
        let mut rng = SmallRng::seed_from_u64(chunk_seed(self.seed, chunk as u64));
        let n = self.config.num_vertices;
        for _ in lo..hi {
            let (u, v) = sample_edge(&self.config, self.d, self.levels, n, &mut rng);
            sink(u, v);
        }
    }
}

/// Generates an R-MAT graph through the streaming two-pass ingest — no
/// staged edge list, cleaned exactly like [`rmat`] (dedup + self-loop
/// drop). Bit-identical for a fixed `(config, seed, chunk_edges)` at any
/// `pool.threads()`.
pub fn rmat_streamed(
    config: &RmatConfig,
    seed: u64,
    chunk_edges: usize,
    pool: &ScopedPool,
) -> Result<(Graph, IngestReport), BuildError> {
    let src = RmatChunks::new(*config, seed, chunk_edges);
    build_chunked(&src, crate::stream::StreamConfig::cleaned(), pool)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let cfg = RmatConfig::social(1 << 10, 8 << 10);
        assert_eq!(rmat(&cfg, 7), rmat(&cfg, 7));
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = RmatConfig::social(1 << 10, 8 << 10);
        assert_ne!(rmat(&cfg, 7), rmat(&cfg, 8));
    }

    #[test]
    fn respects_vertex_bound_for_non_power_of_two() {
        let cfg = RmatConfig::social(1000, 5000);
        let g = rmat(&cfg, 1);
        assert_eq!(g.num_vertices(), 1000);
        assert!(g.num_edges() > 0);
        assert!(g.num_edges() <= 5000);
    }

    #[test]
    fn produces_skewed_degrees() {
        let cfg = RmatConfig::web(1 << 12, 32 << 12);
        let g = rmat(&cfg, 42);
        let max_in = g.vertices().map(|v| g.in_degree(v)).max().unwrap();
        let mean = g.num_edges() as f64 / g.num_vertices() as f64;
        assert!(max_in as f64 > 10.0 * mean, "expected heavy skew: max_in={max_in} mean={mean:.1}");
    }

    #[test]
    fn no_self_loops_or_duplicates() {
        let cfg = RmatConfig::social(256, 2048);
        let g = rmat(&cfg, 3);
        let mut seen = std::collections::HashSet::new();
        for (u, v) in g.edges() {
            assert_ne!(u, v);
            assert!(seen.insert((u, v)));
        }
    }

    #[test]
    fn streamed_deterministic_across_thread_counts() {
        let cfg = RmatConfig::social(1 << 10, 8 << 10);
        let (g1, _) = rmat_streamed(&cfg, 7, 1024, &ScopedPool(1)).unwrap();
        for threads in [2, 4, 8] {
            let (g, rep) = rmat_streamed(&cfg, 7, 1024, &ScopedPool(threads)).unwrap();
            assert_eq!(g, g1, "threads={threads}");
            assert_eq!(rep.raw_edges, 8 << 10);
        }
    }

    #[test]
    fn streamed_chunk_size_is_part_of_the_contract() {
        let cfg = RmatConfig::social(1 << 10, 8 << 10);
        let (a, _) = rmat_streamed(&cfg, 7, 512, &ScopedPool(2)).unwrap();
        let (b, _) = rmat_streamed(&cfg, 7, 2048, &ScopedPool(2)).unwrap();
        assert_ne!(a, b, "different chunk sizes are different pinned streams");
    }

    #[test]
    fn streamed_has_rmat_shape() {
        let cfg = RmatConfig::web(1 << 12, 32 << 12);
        let (g, rep) = rmat_streamed(&cfg, 42, 4096, &ScopedPool(2)).unwrap();
        assert_eq!(g.num_vertices(), 1 << 12);
        let max_in = g.vertices().map(|v| g.in_degree(v)).max().unwrap();
        let mean = g.num_edges() as f64 / g.num_vertices() as f64;
        assert!(max_in as f64 > 10.0 * mean, "expected heavy skew: max_in={max_in} mean={mean:.1}");
        // Streamed ingest must not stage the edge list: the build never
        // holds more than the CSR it returns.
        assert_eq!(rep.transient_bytes, 0);
        assert!(rep.build_ratio() < 1.2, "ratio {}", rep.build_ratio());
    }

    #[test]
    fn legacy_rmat_unchanged_by_sampler_extraction() {
        // The exact edge-sampling loop as it stood before `sample_edge` was
        // factored out. The legacy sequential stream is a pinned contract
        // (seeded graphs feed every bench baseline), so the refactored path
        // must reproduce it draw for draw.
        let config = RmatConfig::social(1 << 9, 4 << 9);
        let seed = 12345u64;
        let d = config.d();
        let levels = (usize::BITS - (config.num_vertices - 1).leading_zeros()) as usize;
        let n = config.num_vertices;
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
        let mut builder = GraphBuilder::new(n).with_edge_capacity(config.num_edges);
        for _ in 0..config.num_edges {
            let (mut u, mut v) = (0usize, 0usize);
            for _ in 0..levels {
                let jitter = |p: f64, r: &mut SmallRng| {
                    (p * (1.0 - config.noise + 2.0 * config.noise * r.gen::<f64>())).max(1e-9)
                };
                let (pa, pb, pc, pd) = (
                    jitter(config.a, &mut rng),
                    jitter(config.b, &mut rng),
                    jitter(config.c, &mut rng),
                    jitter(d, &mut rng),
                );
                let total = pa + pb + pc + pd;
                let roll = rng.gen::<f64>() * total;
                u <<= 1;
                v <<= 1;
                if roll < pa {
                } else if roll < pa + pb {
                    v |= 1;
                } else if roll < pa + pb + pc {
                    u |= 1;
                } else {
                    u |= 1;
                    v |= 1;
                }
            }
            builder.add_edge((u % n) as VertexId, (v % n) as VertexId);
        }
        assert_eq!(builder.build(), rmat(&config, seed));
    }

    /// One chunk of [`RmatChunks`] by the branchy level loop `sample_edge`
    /// replaced, verbatim: the oracle the branch-free sampler must equal.
    fn legacy_chunk(
        config: &RmatConfig,
        seed: u64,
        chunk_edges: usize,
        chunk: usize,
    ) -> Vec<(VertexId, VertexId)> {
        let d = config.d();
        let levels = (usize::BITS - (config.num_vertices - 1).leading_zeros()) as usize;
        let n = config.num_vertices;
        let lo = chunk * chunk_edges;
        let hi = (lo + chunk_edges).min(config.num_edges);
        let mut rng = SmallRng::seed_from_u64(chunk_seed(seed, chunk as u64));
        let mut out = Vec::with_capacity(hi - lo);
        for _ in lo..hi {
            let (mut u, mut v) = (0usize, 0usize);
            for _ in 0..levels {
                let jitter = |p: f64, r: &mut SmallRng| {
                    (p * (1.0 - config.noise + 2.0 * config.noise * r.gen::<f64>())).max(1e-9)
                };
                let (pa, pb, pc, pd) = (
                    jitter(config.a, &mut rng),
                    jitter(config.b, &mut rng),
                    jitter(config.c, &mut rng),
                    jitter(d, &mut rng),
                );
                let total = pa + pb + pc + pd;
                let roll = rng.gen::<f64>() * total;
                u <<= 1;
                v <<= 1;
                if roll < pa {
                } else if roll < pa + pb {
                    v |= 1;
                } else if roll < pa + pb + pc {
                    u |= 1;
                } else {
                    u |= 1;
                    v |= 1;
                }
            }
            out.push(((u % n) as VertexId, (v % n) as VertexId));
        }
        out
    }

    #[test]
    fn rmat_chunks_match_the_branchy_sampler() {
        // d = 0 exactly: every level floors d's jitter to 1e-9.
        let no_d = RmatConfig { a: 0.5, b: 0.25, c: 0.25, ..RmatConfig::social(1 << 9, 3000) };
        assert_eq!(no_d.d(), 0.0);
        let configs = [
            // Non-power-of-two n (ids fold), 5000 = 6 × 768 + 392: a ragged last chunk.
            (RmatConfig::social(1000, 5000), 768),
            (RmatConfig::web(1 << 10, 8 << 10), 1024),
            (no_d, 500),
            (RmatConfig { noise: 0.0, ..RmatConfig::social(1 << 10, 4 << 10) }, 1000),
        ];
        for (config, chunk_edges) in configs {
            for seed in [7u64, 42] {
                let src = RmatChunks::new(config, seed, chunk_edges);
                let mut emitted = 0;
                for chunk in 0..src.num_chunks() {
                    let mut got = Vec::new();
                    src.emit(chunk, &mut |u, v| got.push((u, v)));
                    assert_eq!(
                        got,
                        legacy_chunk(&config, seed, chunk_edges, chunk),
                        "{config:?} chunk {chunk}"
                    );
                    emitted += got.len();
                }
                assert_eq!(emitted, config.num_edges);
            }
        }
    }

    #[test]
    #[should_panic(expected = "quadrant probabilities must be non-negative and sum to 1")]
    fn negative_quadrant_weight_is_rejected() {
        // Sums to 1, but the negative b would be floored to 1e-9 in silence.
        let config = RmatConfig { b: -0.1, c: 0.3, ..RmatConfig::social(1 << 8, 1 << 10) };
        RmatChunks::new(config, 7, 256);
    }

    #[test]
    #[should_panic(expected = "quadrant probabilities must be non-negative and sum to 1")]
    fn non_finite_quadrant_weight_is_rejected() {
        // d = 1 − a − b − c would be +inf, which `d >= 0` alone let through.
        rmat(&RmatConfig { c: f64::NEG_INFINITY, ..RmatConfig::social(1 << 8, 1 << 10) }, 7);
    }

    #[test]
    #[should_panic(expected = "noise must lie in [0, 1]")]
    fn nan_noise_is_rejected() {
        // f64::max(NaN, 1e-9) would make every weight 1e-9: a uniform graph.
        rmat(&RmatConfig { noise: f64::NAN, ..RmatConfig::social(1 << 8, 1 << 10) }, 7);
    }

    #[test]
    #[should_panic(expected = "noise must lie in [0, 1]")]
    fn noise_outside_the_unit_interval_is_rejected() {
        // noise > 1 makes 1 − noise + 2·noise·r negative for small r.
        RmatChunks::new(RmatConfig { noise: 1.5, ..RmatConfig::web(1 << 8, 1 << 10) }, 7, 256);
    }
}
