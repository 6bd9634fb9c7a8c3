//! Deterministic synthetic graph generators.
//!
//! The paper evaluates on five real graphs (Table II). Those datasets are
//! multi-GB downloads we cannot ship, so the reproduction generates scaled
//! analogs with matching density and degree skew (see `DESIGN.md` §2). Three
//! families cover the space:
//!
//! * [`rmat`] — recursive-matrix graphs; the standard model for power-law
//!   web/social graphs, parameterized per dataset in [`crate::datasets`].
//! * `erdos` — uniform random digraphs, the no-skew control.
//! * [`preferential`] — Barabási–Albert-style preferential attachment,
//!   used by dynamic experiments where edges must *arrive over time* with
//!   a realistic rich-get-richer pattern.

pub(crate) mod erdos;
pub mod preferential;
pub mod rmat;

pub use erdos::erdos_renyi;
pub use rmat::{rmat, rmat_streamed, RmatChunks, RmatConfig};
