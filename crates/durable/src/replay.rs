//! Crash recovery: snapshot + WAL replay through the live mutation paths.
//!
//! Replay reconstructs the pipeline state a crashed process held at its
//! last *committed* window boundary, **bit-exactly**. Three properties
//! make that possible:
//!
//! 1. **Same code paths.** Windows are re-derived through the identical
//!    calls the live trainer made — [`HybridState::from_masters`] over the
//!    home locations for the genesis window,
//!    [`HybridState::resume_from_parts`] (an empty delta for a stationary
//!    window) for every later one — and every logged move, a dead DC's
//!    re-seed included, is re-applied through
//!    [`HybridState::apply_move_with`] in the order the live run applied
//!    it. The placement state is integers (counts, load units, moved
//!    bytes), a function of the graph, the masters and the profile.
//! 2. **The environment, checked twice.** Snapshots and window starts
//!    carry an [`env_fingerprint`] and replay refuses a mismatch with
//!    [`DurableError::EnvMismatch`] instead of guessing; and each window's
//!    movement cost is re-priced under the offered environment and must
//!    equal the commit's bits.
//! 3. **Window transactions.** A window missing its commit record is
//!    rolled back entirely — the driver re-feeds those events — so replay
//!    never has to reproduce a half-trained window.
//!
//! Every committed window's master vector is cross-checked against the
//! FNV-1a hash its commit record pinned, and its movement cost against
//! the pinned bits; disagreement is [`DurableError::ReplayDiverged`], not
//! silently-wrong state. A logged profile value that is not a load is a
//! typed [`DurableError::Plan`].
//!
//! The dead-DC mask starts as the snapshot's trainer slot (one 0/1 byte
//! per DC) and each replayed window start's flags replace it.

use geograph::wire::{fnv1a, WireError};
use geograph::{GeoGraph, GraphDelta};
use geopart::{HybridState, MoveScratch, PlacementState, TrafficProfile};
use geosim::CloudEnv;

use crate::error::{env_fingerprint, DurableError};
use crate::records::{Commit, Record, WindowStart, KIND_WINDOW_START};
use crate::snapshot::Snapshot;
use crate::wal::LoadedRecord;

/// Pipeline state reconstructed at the last committed window boundary.
#[derive(Debug)]
pub struct RecoveredPipeline {
    /// Geo-graph after all committed windows.
    pub geo: GeoGraph,
    /// Carried placement + theta; `None` only when no window ever
    /// committed (recovering a store that crashed before window 0 sealed).
    pub parts: Option<(PlacementState, usize)>,
    /// Index of the next window the driver should feed.
    pub next_window: u64,
    /// WAL position just past the last committed record.
    pub next_lsn: u64,
    /// Windows re-applied from the log (not counting those already folded
    /// into the snapshot).
    pub replayed_windows: u64,
    /// `true` when an uncommitted window start (and its batches) was
    /// found past the last commit and rolled back.
    pub rolled_back: bool,
    /// Records dropped by the rollback.
    pub dropped_records: u64,
    /// The dead-DC mask at the recovery point, one flag per DC (`None`
    /// while every DC is live).
    pub dead: Option<Vec<bool>>,
}

/// One fully-committed window transaction parsed out of the log.
struct WindowTxn {
    start: WindowStart,
    batches: Vec<(u64, crate::records::Batch)>,
    commit: Commit,
    commit_lsn: u64,
}

/// FNV-1a over a master vector (the hash commit records pin).
pub fn masters_fnv(masters: &[geograph::DcId]) -> u64 {
    fnv1a(masters)
}

/// Replays `records` on top of `snapshot`, returning the pipeline state
/// at the last committed window boundary. `env` must be the environment
/// the store was written under — its fingerprint is checked against the
/// snapshot and every window-start record.
pub fn replay(
    snapshot: Snapshot,
    records: &[LoadedRecord],
    env: &CloudEnv,
) -> Result<RecoveredPipeline, DurableError> {
    let offered_fp = env_fingerprint(env);
    if snapshot.env_fp != offered_fp {
        return Err(DurableError::EnvMismatch {
            stored: snapshot.env_fp,
            offered: offered_fp,
            at: "snapshot",
        });
    }

    // Position the log at the snapshot's resume point.
    let start = records.partition_point(|r| r.lsn < snapshot.lsn);
    if let Some(first) = records.get(start) {
        if first.lsn != snapshot.lsn {
            return Err(DurableError::RecordSequence {
                lsn: first.lsn,
                reason: "log starts past the snapshot's resume point",
            });
        }
    }
    let records = &records[start..];

    let mut geo = snapshot.geo;
    let mut parts = snapshot.placement;
    let mut profile = match &parts {
        Some((core, _)) => core.traffic_profile(),
        None => TrafficProfile::uniform(0, 0.0),
    };
    let mut dead = match snapshot.trainer {
        None => None,
        Some(slot) => slot
            .iter()
            .map(|&b| (b <= 1).then_some(b == 1))
            .collect::<Option<Vec<bool>>>()
            .and_then(|flags| mask_after(flags, geo.num_dcs))
            .ok_or(WireError::Malformed("trainer slot is not a dead-DC mask"))?,
    };
    let mut next_window = snapshot.window;
    let mut next_lsn = snapshot.lsn;
    let mut replayed_windows = 0u64;
    let mut scratch = MoveScratch::new();

    let mut pos = 0usize;
    let mut rolled_back = false;
    let mut dropped_records = 0u64;
    while pos < records.len() {
        match parse_window_txn(&records[pos..], geo.num_vertices())? {
            ParsedTxn::Committed { txn, consumed } => {
                if let Some(flags) = &txn.start.dead {
                    let (lsn, reason) = (txn.commit_lsn, "dead-DC flags malformed");
                    dead = mask_after(flags.clone(), geo.num_dcs)
                        .ok_or(DurableError::RecordSequence { lsn, reason })?;
                }
                apply_window(
                    &txn,
                    &mut geo,
                    &mut parts,
                    &mut profile,
                    env,
                    next_window,
                    &mut scratch,
                )?;
                next_window += 1;
                next_lsn = txn.commit_lsn + 1;
                replayed_windows += 1;
                pos += consumed;
            }
            ParsedTxn::Uncommitted { consumed } => {
                rolled_back = true;
                dropped_records = consumed as u64;
                break;
            }
        }
    }

    Ok(RecoveredPipeline {
        geo,
        parts,
        next_window,
        next_lsn,
        replayed_windows,
        rolled_back,
        dropped_records,
        dead,
    })
}

/// The dead-DC mask after a fault report (`Some(None)` for an all-clear),
/// or `None` for a report that is not one flag per DC with one live.
fn mask_after(flags: Vec<bool>, num_dcs: usize) -> Option<Option<Vec<bool>>> {
    geopart::check_fault_report(&flags, num_dcs).ok()?;
    Some(flags.contains(&true).then_some(flags))
}

enum ParsedTxn {
    // Boxed: a WindowTxn carries a whole window's delta + batches.
    Committed { txn: Box<WindowTxn>, consumed: usize },
    Uncommitted { consumed: usize },
}

/// Parses one window transaction from the front of `records`. The whole
/// transaction is parsed before anything is applied, so a window whose
/// records are malformed is rejected atomically. `base_vertices` is the
/// replayed graph's size so far ([`Record::from_payload`]'s bound).
fn parse_window_txn(
    records: &[LoadedRecord],
    base_vertices: usize,
) -> Result<ParsedTxn, DurableError> {
    let first = &records[0];
    if first.kind != KIND_WINDOW_START {
        return Err(DurableError::RecordSequence {
            lsn: first.lsn,
            reason: "expected a window-start record",
        });
    }
    let start = match Record::from_payload(first.kind, &first.payload, first.lsn, base_vertices)? {
        Record::WindowStart(ws) => ws,
        _ => unreachable!("kind dispatch"),
    };
    let mut batches = Vec::new();
    for (i, rec) in records.iter().enumerate().skip(1) {
        match Record::from_payload(rec.kind, &rec.payload, rec.lsn, base_vertices)? {
            Record::WindowStart(_) => {
                return Err(DurableError::RecordSequence {
                    lsn: rec.lsn,
                    reason: "window started before the previous one committed",
                });
            }
            Record::Batch(b) => {
                if b.window != start.window {
                    return Err(DurableError::RecordSequence {
                        lsn: rec.lsn,
                        reason: "batch belongs to a different window",
                    });
                }
                batches.push((rec.lsn, b));
            }
            Record::Commit(c) => {
                if c.window != start.window {
                    return Err(DurableError::RecordSequence {
                        lsn: rec.lsn,
                        reason: "commit belongs to a different window",
                    });
                }
                return Ok(ParsedTxn::Committed {
                    txn: Box::new(WindowTxn { start, batches, commit: c, commit_lsn: rec.lsn }),
                    consumed: i + 1,
                });
            }
        }
    }
    // Log ended inside the transaction: the window never committed.
    Ok(ParsedTxn::Uncommitted { consumed: records.len() })
}

/// Applies one committed window to `(geo, parts, profile)` through the
/// live mutation paths.
#[allow(clippy::too_many_arguments)]
fn apply_window(
    txn: &WindowTxn,
    geo: &mut GeoGraph,
    parts: &mut Option<(PlacementState, usize)>,
    profile: &mut TrafficProfile,
    env: &CloudEnv,
    expected_window: u64,
    scratch: &mut MoveScratch,
) -> Result<(), DurableError> {
    let ws = &txn.start;
    if ws.window != expected_window {
        return Err(DurableError::RecordSequence {
            lsn: txn.commit_lsn,
            reason: "window index does not follow the previous commit",
        });
    }
    let offered_fp = env_fingerprint(env);
    if ws.env_fp != offered_fp {
        return Err(DurableError::EnvMismatch {
            stored: ws.env_fp,
            offered: offered_fp,
            at: "window-start",
        });
    }

    // 1. Evolve the geo-graph in place: delta on the structure, suffixes
    //    on the per-vertex arrays (prefixes are invariant across windows).
    //    The shape checks run before anything moves.
    let old_n = geo.num_vertices();
    let new_n = match &ws.delta {
        Some(delta) if delta.old_num_vertices() != old_n => {
            return Err(DurableError::RecordSequence {
                lsn: txn.commit_lsn,
                reason: "logged delta does not target the current graph",
            });
        }
        Some(delta) => delta.new_num_vertices(),
        None => old_n,
    };
    if old_n + ws.loc_suffix.len() != new_n
        || old_n + ws.size_suffix.len() != new_n
        || ws.loc_suffix.iter().any(|&d| (d as usize) >= geo.num_dcs)
    {
        return Err(DurableError::RecordSequence {
            lsn: txn.commit_lsn,
            reason: "location/size suffixes do not match the window's vertex count",
        });
    }
    if profile.len() + ws.gather_suffix.len() != new_n
        || profile.len() + ws.apply_suffix.len() != new_n
    {
        return Err(DurableError::RecordSequence {
            lsn: txn.commit_lsn,
            reason: "profile suffixes do not match the window's vertex count",
        });
    }
    if let Some(delta) = &ws.delta {
        geo.graph.apply_delta_in_place(delta);
    }
    geo.locations.extend_from_slice(&ws.loc_suffix);
    geo.data_sizes.extend_from_slice(&ws.size_suffix);
    profile.gather_bytes.extend_from_slice(&ws.gather_suffix);
    profile.apply_bytes.extend_from_slice(&ws.apply_suffix);
    let geo: &GeoGraph = geo;

    // 2. Re-derive the window's starting state as the live trainer did:
    //    genesis places every vertex at home, every later window resumes
    //    the carried state (a stationary one by an empty delta).
    let mut hybrid = match parts.take() {
        None => HybridState::try_from_masters(
            geo,
            env,
            geo.locations.clone(),
            txn.commit.theta as usize,
            profile.clone(),
            ws.num_iterations,
        )?,
        Some((core, theta)) => {
            if theta as u64 != txn.commit.theta {
                return Err(DurableError::ReplayDiverged { window: ws.window });
            }
            let stationary = GraphDelta::from_events(&geo.graph, &[]);
            let delta = ws.delta.as_ref().unwrap_or(&stationary);
            HybridState::resume_from_parts(core, theta, geo, env, delta, profile)?.0
        }
    };

    // 3. Re-apply every logged move in logged order.
    for (lsn, batch) in &txn.batches {
        for &(v, d) in &batch.moves {
            if (v as usize) >= new_n || (d as usize) >= geo.num_dcs {
                return Err(DurableError::RecordSequence {
                    lsn: *lsn,
                    reason: "logged move out of range",
                });
            }
            hybrid.apply_move_with(env, v, d, scratch);
        }
    }

    // 4. Verify the result against what the commit pinned.
    let (mut core, theta) = hybrid.into_parts();
    if core.reprice(env).to_bits() != txn.commit.movement_cost_bits
        || fnv1a(core.masters()) != txn.commit.masters_fnv
    {
        return Err(DurableError::ReplayDiverged { window: ws.window });
    }

    *parts = Some((core, theta));
    Ok(())
}
