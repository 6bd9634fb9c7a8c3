//! # geodur — durable state for the adaptive-partitioning pipeline
//!
//! Makes the dynamic-window trainer survive process death *bit-exactly*:
//!
//! * [`wal`] — append-only log of everything that mutates pipeline state:
//!   window openings (graph deltas, placement/profile suffixes, fault
//!   flags), per-step accepted migration batches, and window commits.
//!   Length-prefixed, checksum-per-record, atomically-rotated segments.
//! * [`snapshot`] — periodic compact snapshots of `(GeoGraph,
//!   PlacementState, trainer blob)`, streamed from a borrowed view of the
//!   live state, so recovery replays a bounded log suffix instead of
//!   history from genesis.
//! * [`records`] — the typed WAL record kinds and their wire codecs.
//! * [`replay`] — crash recovery: latest valid snapshot + WAL replay
//!   through the *same* placement mutation paths the live trainer uses
//!   (`resume_from_parts` / `apply_move_with`), so the recovered integer
//!   state and each commit's priced movement cost match the live run.
//! * [`store`] — the [`store::DurableStore`] facade tying the pieces
//!   together: create/open a durable directory, append window
//!   transactions, cut snapshots, prune the log.
//!
//! ## Window-transactional semantics
//!
//! Each dynamic window is one WAL transaction: `WindowStart` is logged and
//! synced *before* training (the paper's pipeline decides placement before
//! the window's jobs run, so the inputs are known up front), then the
//! accepted migration batches and a `Commit` are appended and synced
//! together after the window. Recovery rolls back any window whose start
//! lacks a commit — the driver re-feeds that window's events, exactly as a
//! database client retries an uncommitted transaction.

pub mod error;
pub mod records;
pub mod replay;
pub mod snapshot;
pub mod store;
pub mod wal;

pub use error::{env_fingerprint, DurableError};
pub use records::{Batch, Commit, Record, WindowStart};
pub use replay::{masters_fnv, replay};
pub use snapshot::{Snapshot, SnapshotRef};
pub use store::{DurableStore, RecoveryReport};
pub use wal::{Wal, WalReport};
