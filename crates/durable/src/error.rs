//! Typed failures of the durability layer.
//!
//! Every malformed byte stream — truncated, bit-flipped, zero-length,
//! out-of-sequence — must surface as a [`DurableError`] variant, never as
//! a panic and never as a silently half-loaded state. The only tolerated
//! anomaly is a *torn tail*: the final record of the final WAL segment cut
//! short by a crash mid-append, which recovery drops and reports.

use geograph::wire::{fnv1a, WireError};
use geopart::PlanError;
use geosim::CloudEnv;

/// Why a durable load, append, or replay failed.
#[derive(Debug)]
pub enum DurableError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A WAL segment is missing its header, carries the wrong magic, or
    /// its header checksum does not match. Segment headers are created
    /// atomically (tmp + rename), so a legitimate crash cannot produce
    /// one — this is corruption or foreign data.
    BadSegmentHeader { segment: u64, reason: &'static str },
    /// The segment format version is not supported.
    UnsupportedVersion { segment: u64, version: u32 },
    /// A fully-present record's checksum does not match its payload — a
    /// bit flip, not a torn append (torn tails are shorter than their
    /// length prefix declares and are dropped, not errored).
    CorruptRecord { segment: u64, lsn: u64 },
    /// A non-final segment ended mid-record. Only the final segment may
    /// carry a torn tail; an interior one was truncated after the fact.
    TruncatedSegment { segment: u64 },
    /// Segment sequence numbers or first-LSNs do not chain: a segment in
    /// the middle of the log is missing.
    LsnGap { segment: u64, expected_lsn: u64, found_lsn: u64 },
    /// No snapshot file in the directory decoded cleanly. The store
    /// writes a genesis snapshot on creation, so an empty or all-corrupt
    /// snapshot set means the directory is not a usable store.
    NoValidSnapshot { tried: usize },
    /// A record or snapshot payload failed to decode.
    Wire(WireError),
    /// The placement layer rejected replayed state (e.g. a logged delta
    /// that does not line up with the snapshot).
    Plan(PlanError),
    /// Replayed records do not form well-formed window transactions
    /// (e.g. a batch without a window start, or a window index jump).
    RecordSequence { lsn: u64, reason: &'static str },
    /// A record kind byte this version does not know.
    UnknownRecordKind { lsn: u64, kind: u8 },
    /// Replay finished a window with state that contradicts what the
    /// commit record pinned (masters hash mismatch) — the log and the
    /// apply paths disagree, so the recovered state cannot be trusted.
    ReplayDiverged { window: u64 },
    /// The environment offered at recovery is not the environment the
    /// store was written under (snapshot or window-start fingerprint
    /// mismatch). Replay is computationally environment-independent, but
    /// *continuing* against a different environment silently re-prices
    /// every objective — so a mismatch is refused, not replayed onto.
    EnvMismatch { stored: u64, offered: u64, at: &'static str },
}

impl std::fmt::Display for DurableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurableError::Io(e) => write!(f, "durable I/O error: {e}"),
            DurableError::BadSegmentHeader { segment, reason } => {
                write!(f, "WAL segment {segment}: bad header ({reason})")
            }
            DurableError::UnsupportedVersion { segment, version } => {
                write!(f, "WAL segment {segment}: unsupported format version {version}")
            }
            DurableError::CorruptRecord { segment, lsn } => {
                write!(f, "WAL segment {segment}: record {lsn} failed its checksum")
            }
            DurableError::TruncatedSegment { segment } => {
                write!(f, "WAL segment {segment}: truncated mid-record (not the final segment)")
            }
            DurableError::LsnGap { segment, expected_lsn, found_lsn } => write!(
                f,
                "WAL segment {segment}: starts at record {found_lsn}, expected {expected_lsn} \
                 — a segment is missing"
            ),
            DurableError::NoValidSnapshot { tried } => {
                write!(f, "no valid snapshot found ({tried} candidate files tried)")
            }
            DurableError::Wire(e) => write!(f, "durable payload malformed: {e}"),
            DurableError::Plan(e) => write!(f, "replayed state rejected: {e}"),
            DurableError::RecordSequence { lsn, reason } => {
                write!(f, "WAL record {lsn}: broken window transaction ({reason})")
            }
            DurableError::UnknownRecordKind { lsn, kind } => {
                write!(f, "WAL record {lsn}: unknown record kind {kind:#x}")
            }
            DurableError::ReplayDiverged { window } => write!(
                f,
                "replay of window {window} produced masters that contradict the commit record"
            ),
            DurableError::EnvMismatch { stored, offered, at } => write!(
                f,
                "environment mismatch at {at}: store written under fingerprint {stored:#018x}, \
                 recovery offered {offered:#018x} — pass the environment the store was created with"
            ),
        }
    }
}

impl std::error::Error for DurableError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DurableError::Io(e) => Some(e),
            DurableError::Wire(e) => Some(e),
            DurableError::Plan(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for DurableError {
    fn from(e: std::io::Error) -> Self {
        DurableError::Io(e)
    }
}

impl From<WireError> for DurableError {
    fn from(e: WireError) -> Self {
        DurableError::Wire(e)
    }
}

impl From<PlanError> for DurableError {
    fn from(e: PlanError) -> Self {
        DurableError::Plan(e)
    }
}

/// Identity fingerprint of a cloud environment: FNV-1a over the DC count
/// and every DC's name, uplink/downlink bits, and price bits. Stamped
/// into snapshots and window-start records so recovery can refuse to
/// replay a store against an environment it was not written under
/// ([`DurableError::EnvMismatch`]).
pub fn env_fingerprint(env: &CloudEnv) -> u64 {
    let mut bytes = Vec::with_capacity(8 + env.num_dcs() * 40);
    bytes.extend_from_slice(&(env.num_dcs() as u64).to_le_bytes());
    for dc in env.dcs() {
        bytes.extend_from_slice(&(dc.name.len() as u64).to_le_bytes());
        bytes.extend_from_slice(dc.name.as_bytes());
        bytes.extend_from_slice(&dc.uplink_bps.to_bits().to_le_bytes());
        bytes.extend_from_slice(&dc.downlink_bps.to_bits().to_le_bytes());
        bytes.extend_from_slice(&dc.upload_price_per_byte.to_bits().to_le_bytes());
    }
    fnv1a(&bytes)
}
