//! The three evaluation algorithms, as pure computations on the logical
//! graph. Traffic attribution happens in [`crate::runner`].

pub mod pagerank;
pub mod sssp;
pub(crate) mod triangles;

pub use pagerank::pagerank;
pub(crate) use sssp::bfs_levels;
pub(crate) use triangles::triangle_count;
