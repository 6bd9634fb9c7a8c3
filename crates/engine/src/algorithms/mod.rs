//! The three evaluation algorithms, as pure computations on the logical
//! graph. Traffic attribution happens in [`crate::runner`].

pub mod pagerank;
pub mod sssp;
pub mod triangles;
pub mod wcc;

pub use pagerank::pagerank;
pub use sssp::{bfs_levels, BfsResult};
pub use triangles::triangle_count;
pub use wcc::{wcc, WccResult};
