//! Heap gate for the streamed CSR build, measured rather than accounted.
//!
//! `IngestReport::build_ratio` is the build's own accounting of its peak:
//! the counter plane and one direction at the scatter, the two directions
//! after it. This binary installs the counting global allocator
//! (`counting_alloc`) and holds `build_chunked`'s measured peak on the
//! LiveJournal analog at scale 0.002 to at most 1.25x the CSR it returns,
//! the same at one and at two threads. It reads 1 078 984 B, 1.000x at
//! both, as the accounting does: the two workers' count and cursor planes
//! sit beside one direction only, below the two the build returns, and the
//! dedup pass's `shrink_to_fit` counts as the shrink it is (the allocator
//! forwards `realloc`).

use geograph::datasets::DEFAULT_CHUNK_EDGES;
use geograph::generators::rmat_streamed;
use geograph::{Dataset, ScopedPool};

mod counting_alloc;

#[test]
fn streamed_build_peak_heap_stays_inside_its_budget() {
    let (config, seed) = Dataset::LiveJournal.rmat_setup(0.002, 42);
    // The counter is process-wide, so an allocation another thread of the
    // test binary (the harness) makes while a build runs lands in that
    // build's interval. It only ever adds, so the least of three builds is
    // the build's own peak; every build is held to the bound.
    let peaks = [1, 2].map(|threads| {
        let builds = (0..3).map(|_| {
            let entry = counting_alloc::enter();
            let (graph, report) =
                rmat_streamed(&config, seed, DEFAULT_CHUNK_EDGES, &ScopedPool(threads)).unwrap();
            let peak = counting_alloc::peak() - entry;
            let ratio = peak as f64 / report.csr_bytes as f64;
            assert!(
                ratio <= 1.25,
                "{threads} threads: the build peaked at {peak} B, {ratio:.3}x its {} B CSR",
                report.csr_bytes
            );
            drop(graph);
            peak
        });
        builds.min().unwrap()
    });
    assert_eq!(peaks[0], peaks[1], "the build's peak heap depends on the thread count");
}
