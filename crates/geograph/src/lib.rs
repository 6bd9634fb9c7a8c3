//! # geograph — graph substrate for RLCut
//!
//! This crate provides everything the RLCut partitioner and its baselines
//! need from a graph library:
//!
//! * [`Graph`] — an immutable, cache-friendly CSR representation with both
//!   out- and in-adjacency (hybrid-cut reasons about *in*-edges, analytics
//!   engines about *out*-edges).
//! * [`GraphBuilder`] — edge-list accumulation with deduplication and
//!   self-loop removal.
//! * [`generators`] — deterministic R-MAT, Erdős–Rényi and preferential
//!   attachment generators used to synthesize scaled analogs of the paper's
//!   datasets (LiveJournal, Orkut, uk-2005, it-2004, Twitter — Table II).
//! * [`datasets`] — those named presets, with per-dataset skew parameters.
//! * [`locality`] — geo-location assignment: every vertex gets a *home DC*
//!   drawn from a skewed regional distribution with tunable homophily,
//!   reproducing the paper's observation (Fig 1) that >75 % of Twitter's
//!   edges cross data centers.
//! * [`dynamic`] — timestamped edge streams and time-window iteration for
//!   dynamic-graph experiments (Fig 4, Exp#5).
//! * [`delta`] — first-class net-effect graph deltas ([`GraphDelta`]) and
//!   the in-place CSR overlay ([`Graph::apply_delta_in_place`]) that
//!   advances a snapshot in work proportional to the update batch.
//! * [`io`] — plain edge-list reading/writing.
//! * [`transform`] — transpose, symmetrization, induced subgraphs, WCC
//!   extraction.
//! * [`fxhash`] — a small Fx-style hasher for hot integer-keyed maps.
//!
//! All generators take explicit seeds; given the same seed they are
//! bit-for-bit reproducible.

pub mod builder;
pub mod csr;
pub mod datasets;
pub mod degree;
pub mod delta;
pub mod dynamic;
pub mod fxhash;
pub mod generators;
pub mod geo;
pub mod io;
pub mod locality;
pub mod mem;
pub mod stream;
pub mod transform;
pub mod wire;

pub use builder::GraphBuilder;
pub use csr::Graph;
pub use datasets::Dataset;
pub use degree::DegreeStats;
pub use delta::GraphDelta;
pub use dynamic::{EdgeEvent, EventKind, Windows};
pub use geo::GeoGraph;
pub use locality::LocalityConfig;
pub use mem::peak_rss_bytes;
pub use stream::{build_chunked, ChunkedEdges, ScopedPool, StreamConfig};

/// Identifier of a vertex. Graphs are limited to `u32::MAX - 1` vertices,
/// which keeps adjacency arrays at half the size of `usize` ids and is far
/// beyond what a single simulation host holds.
pub type VertexId = u32;

/// Identifier of a data center (a partition). The RLCut plan machinery
/// stores replica sets as `u64` bitmasks, so at most 64 DCs are supported —
/// the paper uses 8.
pub type DcId = u8;

/// Maximum number of data centers supported by the bitmask replica sets.
pub const MAX_DCS: usize = 64;
