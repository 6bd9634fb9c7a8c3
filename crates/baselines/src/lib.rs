//! # geobase — baseline geo-distributed graph partitioners
//!
//! The six comparison methods of the paper's evaluation (§VI-A.3), one
//! module each, plus Leopard for dynamic streams:
//!
//! | Method | Model | Strategy |
//! |---|---|---|
//! | [`randpg`] | vertex-cut | random balanced p-way edge assignment (PowerGraph) |
//! | [`geocut`] | vertex-cut | heterogeneity-aware heuristic under a WAN budget (Zhou et al., ICDCS '17) |
//! | [`hashpl`] | hybrid-cut | hash-based master placement (PowerLyra) |
//! | [`ginger`] | hybrid-cut | Fennel-derived greedy placement (PowerLyra) |
//! | [`revolver`] | edge-cut | learning-automata vertex assignment (Mofrad et al.) |
//! | [`spinner`] | edge-cut | label propagation with capacity, incremental (Martella et al.) |
//! | [`leopard`] | vertex-cut | streaming edge placement with bounded replication, dynamic (Huang & Abadi) |
//!
//! All partitioners are deterministic for a fixed seed and return one of the
//! three `geopart` plan states; [`plan::PlanKind`] unifies them for the
//! experiment harness.

pub mod geocut;
pub mod ginger;
pub mod hashpl;
pub mod leopard;
pub mod plan;
pub mod randpg;
pub mod revolver;
pub mod spinner;

pub use geocut::geocut;
pub use ginger::ginger;
pub use hashpl::hashpl;
pub use leopard::Leopard;
pub use plan::PlanKind;
pub use randpg::randpg;
pub use revolver::revolver;
pub use spinner::Spinner;
