//! Scaled analogs of the paper's evaluation datasets (Table II).
//!
//! The real datasets (LiveJournal, Orkut, uk-2005, it-2004, Twitter) total
//! several billion edges and cannot ship with the repository. Each preset
//! here records the paper's true vertex/edge counts and generates an R-MAT
//! analog with the **same edge density** (edges per vertex) and a skew
//! preset appropriate to the graph family (social vs web). Experiment
//! binaries take `--scale` so the analog can approach paper sizes when the
//! host allows.

use crate::csr::Graph;
use crate::generators::{rmat, RmatConfig};

/// Default edges-per-chunk for streamed dataset generation. 2^20 edges
/// keeps per-chunk RNG setup amortized while giving hundreds of chunks at
/// paper scale for the ingest pool to balance.
pub const DEFAULT_CHUNK_EDGES: usize = 1 << 20;

/// The five evaluation graphs of the paper (Table II).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Dataset {
    LiveJournal,
    Orkut,
    Uk2005,
    It2004,
    Twitter,
}

impl Dataset {
    /// All datasets, in the paper's Table II order.
    pub const ALL: [Dataset; 5] =
        [Dataset::LiveJournal, Dataset::Orkut, Dataset::Uk2005, Dataset::It2004, Dataset::Twitter];

    /// The paper's two-letter notation.
    pub fn notation(self) -> &'static str {
        match self {
            Dataset::LiveJournal => "LJ",
            Dataset::Orkut => "OT",
            Dataset::Uk2005 => "UK",
            Dataset::It2004 => "IT",
            Dataset::Twitter => "TW",
        }
    }

    /// Vertex count of the real dataset (Table II).
    pub fn paper_vertices(self) -> u64 {
        match self {
            Dataset::LiveJournal => 4_847_571,
            Dataset::Orkut => 3_072_441,
            Dataset::Uk2005 => 39_454_746,
            Dataset::It2004 => 41_290_682,
            Dataset::Twitter => 41_652_230,
        }
    }

    /// Edge count of the real dataset (Table II).
    pub fn paper_edges(self) -> u64 {
        match self {
            Dataset::LiveJournal => 68_993_773,
            Dataset::Orkut => 117_185_083,
            Dataset::Uk2005 => 936_364_282,
            Dataset::It2004 => 1_150_725_436,
            Dataset::Twitter => 1_468_365_182,
        }
    }

    /// Whether the graph is a web crawl (heavier skew) or a social network.
    pub(crate) fn is_web_graph(self) -> bool {
        matches!(self, Dataset::Uk2005 | Dataset::It2004)
    }

    /// Vertex count of the analog at `scale` (fraction of the paper size),
    /// floored at 1 024 so tiny scales still exercise real structure.
    pub fn scaled_vertices(self, scale: f64) -> usize {
        ((self.paper_vertices() as f64 * scale) as usize).max(1024)
    }

    /// Edge count of the analog at `scale`, preserving the paper density.
    pub(crate) fn scaled_edges(self, scale: f64) -> usize {
        let density = self.paper_edges() as f64 / self.paper_vertices() as f64;
        (self.scaled_vertices(scale) as f64 * density) as usize
    }

    /// Generates the R-MAT analog at `scale` with a deterministic seed
    /// derived from the dataset identity and the caller's seed.
    pub fn generate(self, scale: f64, seed: u64) -> Graph {
        let n = self.scaled_vertices(scale);
        let m = self.scaled_edges(scale);
        let config =
            if self.is_web_graph() { RmatConfig::web(n, m) } else { RmatConfig::social(n, m) };
        rmat(&config, seed ^ (self as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// The R-MAT config and derived seed [`Dataset::generate`] would use at
    /// this scale — exposed so streaming callers build the same analog.
    pub fn rmat_setup(self, scale: f64, seed: u64) -> (RmatConfig, u64) {
        let n = self.scaled_vertices(scale);
        let m = self.scaled_edges(scale);
        let config =
            if self.is_web_graph() { RmatConfig::web(n, m) } else { RmatConfig::social(n, m) };
        (config, seed ^ (self as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }
}

impl std::fmt::Display for Dataset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.notation())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn density_preserved_at_scale() {
        for ds in Dataset::ALL {
            let paper_density = ds.paper_edges() as f64 / ds.paper_vertices() as f64;
            let scaled_density = ds.scaled_edges(0.001) as f64 / ds.scaled_vertices(0.001) as f64;
            assert!(
                (paper_density - scaled_density).abs() / paper_density < 0.01,
                "{ds}: paper {paper_density:.2} scaled {scaled_density:.2}"
            );
        }
    }

    #[test]
    fn tiny_scale_floors_at_1024() {
        assert_eq!(Dataset::Orkut.scaled_vertices(1e-9), 1024);
    }

    #[test]
    fn generation_is_deterministic_and_distinct_per_dataset() {
        let lj = Dataset::LiveJournal.generate(0.0002, 1);
        let lj2 = Dataset::LiveJournal.generate(0.0002, 1);
        let ot = Dataset::Orkut.generate(0.0002, 1);
        assert_eq!(lj, lj2);
        assert_ne!(lj, ot);
    }

    #[test]
    fn table_ii_ordering_by_size() {
        // The paper orders Table II by increasing edge count.
        let edges: Vec<u64> = Dataset::ALL.iter().map(|d| d.paper_edges()).collect();
        let mut sorted = edges.clone();
        sorted.sort_unstable();
        assert_eq!(edges, sorted);
    }

    #[test]
    fn web_graphs_skewier_than_social() {
        use crate::degree::DegreeStats;
        let social = Dataset::Orkut.generate(0.002, 3);
        let web = Dataset::Uk2005.generate(0.0002, 3);
        let ss = DegreeStats::compute(&social);
        let sw = DegreeStats::compute(&web);
        assert!(sw.top1pct_edge_share > ss.top1pct_edge_share);
    }
}
