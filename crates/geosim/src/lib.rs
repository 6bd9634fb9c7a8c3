//! # geosim — geo-distributed cloud simulator
//!
//! Models the WAN environment of the RLCut paper (§II-A, §III-A):
//!
//! * Each data center has an **uplink** and a **downlink** bandwidth to the
//!   WAN, and a **price per uploaded byte** (downloads and intra-DC traffic
//!   are free, matching EC2/Azure pricing).
//! * The WAN core is congestion-free — the only bottlenecks are DC
//!   uplinks/downlinks (paper assumption 3, after B4-style private WANs).
//! * Inter-DC transfer time of a communication stage is therefore
//!   `max_r max(upload_r / U_r, download_r / D_r)` (Eq 1–3).
//! * Monetary cost is `Σ_r uploaded_r · P_r` plus input-data movement
//!   (Eq 4–5).
//!
//! [`regions`] provides the eight Amazon EC2 regions of the paper's Exp#1
//! anchored to the measured Table I numbers, and [`heterogeneity`] the
//! Low/Medium/High variants of the Fig 3 motivation study. The environment
//! is static and healthy, as the paper assumes; a DC outage is carried
//! beside it, as one dead flag per DC.

pub mod cost;
pub(crate) mod datacenter;
pub mod env_io;
pub mod heterogeneity;
pub mod regions;
pub mod transfer;

pub use datacenter::{CloudEnv, Datacenter};
pub use heterogeneity::Heterogeneity;
pub use transfer::StageLoads;

/// Re-exported DC identifier (defined next to the graph types so both
/// crates agree on the representation).
pub use geograph::DcId;

/// Bytes per gigabyte, used to convert Table I prices ($/GB) into $/byte.
pub const BYTES_PER_GB: f64 = 1_000_000_000.0;
