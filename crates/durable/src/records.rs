//! Typed WAL records and their wire codecs.
//!
//! One dynamic window is one WAL transaction, written as:
//!
//! 1. [`WindowStart`] — everything the window consumes that is not already
//!    implied by prior state: the graph delta, the location / data-size /
//!    traffic-profile *suffixes* for new vertices (prefixes are invariant
//!    across windows, so logging them again would be redundant and would
//!    let the log contradict itself), the iteration count, and the
//!    dead-DC flags noted since the previous window, if any.
//!    Logged and synced *before* training starts.
//! 2. Zero or more [`Batch`] records — the accepted migration moves of one
//!    training step, in exact apply order. A dead DC's re-seed is the
//!    first batch and the end-of-session reconcile sweep (live → best
//!    plan) the last, with `step ==` [`Batch::RECONCILE_STEP`].
//! 3. [`Commit`] — pins the window's outputs: carried theta, the final
//!    `movement_cost` (the Eq 4 moved bytes priced under the environment;
//!    replay re-prices them and compares) and an FNV-1a hash of the master
//!    vector, so replay divergence is detected rather than trusted.
//!
//! Payloads are deliberately environment-free: replaying batches through
//! [`geopart::HybridState::apply_move_with`] yields the same integer
//! placement state (counts, load units, moved bytes) under *any*
//! environment, because each depends only on the graph, the profile and
//! the masters.

use geograph::wire::{self, Reader, WireError};
use geograph::{DcId, GraphDelta, VertexId, MAX_DCS};

use crate::error::DurableError;

/// Record kind byte for [`WindowStart`].
pub(crate) const KIND_WINDOW_START: u8 = 1;
/// Record kind byte for [`Batch`].
pub(crate) const KIND_BATCH: u8 = 2;
/// Record kind byte for [`Commit`].
pub(crate) const KIND_COMMIT: u8 = 3;

/// Opens window `window`: the inputs of one dynamic-window transaction.
#[derive(Clone, Debug, PartialEq)]
pub struct WindowStart {
    pub window: u64,
    /// Graph change entering this window; `None` for the genesis window
    /// (full graph lives in the snapshot) and for a stationary window,
    /// which resumes the carried state by an empty delta.
    pub delta: Option<GraphDelta>,
    /// Master locations of vertices new in this window
    /// (`geo.locations[old_n..]`).
    pub loc_suffix: Vec<DcId>,
    /// Data sizes of new vertices (`geo.data_sizes[old_n..]`).
    pub size_suffix: Vec<u64>,
    /// Traffic-profile gather bytes of new vertices.
    pub gather_suffix: Vec<f32>,
    /// Traffic-profile apply bytes of new vertices.
    pub apply_suffix: Vec<f32>,
    /// Analytics iteration count the window amortizes movement over.
    pub num_iterations: f64,
    /// Per-DC outage flags noted since the previous window (an all-clear
    /// has none set); `None` when nothing was noted.
    pub dead: Option<Vec<bool>>,
    /// [`crate::error::env_fingerprint`] of the environment this window
    /// trained under; replay refuses a store offered a different one.
    pub env_fp: u64,
}

/// Accepted migration moves of one training step, in exact apply order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Batch {
    pub window: u64,
    /// Training step index, or [`Self::RECONCILE_STEP`] for the
    /// end-of-session reconcile sweep onto the best plan.
    pub step: u32,
    pub moves: Vec<(VertexId, DcId)>,
}

impl Batch {
    /// Sentinel step index for the reconcile sweep that moves the live
    /// state onto the best-seen plan after the last training step.
    pub const RECONCILE_STEP: u32 = u32::MAX;
}

/// Seals window `window`: after these outputs the window is durable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Commit {
    pub window: u64,
    /// High-degree threshold carried out of the window.
    pub theta: u64,
    /// Final `movement_cost` bits. Replay re-prices the replayed state's
    /// moved bytes under the offered environment and must land on these
    /// bits.
    pub movement_cost_bits: u64,
    /// FNV-1a over the final master vector; replay cross-checks it.
    pub masters_fnv: u64,
}

/// A decoded WAL record.
///
/// The variant sizes are inherently lopsided — a `WindowStart` carries
/// the window's whole `GraphDelta` while a `Commit` is four words — and
/// records are transient framing values, never held in bulk.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug, PartialEq)]
pub enum Record {
    WindowStart(WindowStart),
    Batch(Batch),
    Commit(Commit),
}

impl Record {
    /// Kind byte stored in the WAL frame.
    pub(crate) fn kind(&self) -> u8 {
        match self {
            Record::WindowStart(_) => KIND_WINDOW_START,
            Record::Batch(_) => KIND_BATCH,
            Record::Commit(_) => KIND_COMMIT,
        }
    }

    /// Serializes the record payload (kind byte travels in the frame).
    pub(crate) fn to_payload(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Record::WindowStart(ws) => {
                out.extend_from_slice(&ws.window.to_le_bytes());
                match &ws.delta {
                    Some(d) => {
                        out.push(1);
                        wire::encode_delta(d, &mut out).expect("writing into a Vec cannot fail");
                    }
                    None => out.push(0),
                }
                out.extend_from_slice(&(ws.loc_suffix.len() as u64).to_le_bytes());
                out.extend_from_slice(&ws.loc_suffix);
                out.extend_from_slice(&(ws.size_suffix.len() as u64).to_le_bytes());
                for &s in &ws.size_suffix {
                    out.extend_from_slice(&s.to_le_bytes());
                }
                put_profile_suffix(&mut out, &ws.gather_suffix);
                put_profile_suffix(&mut out, &ws.apply_suffix);
                out.extend_from_slice(&ws.num_iterations.to_bits().to_le_bytes());
                match &ws.dead {
                    Some(dead) => {
                        out.push(1);
                        out.extend_from_slice(&(dead.len() as u64).to_le_bytes());
                        out.extend(dead.iter().map(|&d| d as u8));
                    }
                    None => out.push(0),
                }
                out.extend_from_slice(&ws.env_fp.to_le_bytes());
            }
            Record::Batch(b) => {
                out.extend_from_slice(&b.window.to_le_bytes());
                out.extend_from_slice(&b.step.to_le_bytes());
                out.extend_from_slice(&(b.moves.len() as u64).to_le_bytes());
                for &(v, d) in &b.moves {
                    out.extend_from_slice(&v.to_le_bytes());
                    out.push(d);
                }
            }
            Record::Commit(c) => {
                out.extend_from_slice(&c.window.to_le_bytes());
                out.extend_from_slice(&c.theta.to_le_bytes());
                out.extend_from_slice(&c.movement_cost_bits.to_le_bytes());
                out.extend_from_slice(&c.masters_fnv.to_le_bytes());
            }
        }
        out
    }

    /// Decodes a record payload. `lsn` only labels errors. `base_vertices`
    /// is how many vertices the pipeline held before this record, as the
    /// caller has decoded them (the snapshot's graph plus every replayed
    /// suffix): a window start's run-coded profile suffixes are not bounded
    /// by the bytes they occupy, so their declared lengths are checked
    /// against it — plus the record's own new vertices — before a value is
    /// expanded.
    pub(crate) fn from_payload(
        kind: u8,
        payload: &[u8],
        lsn: u64,
        base_vertices: usize,
    ) -> Result<Record, DurableError> {
        let mut r = Reader::new(payload);
        let rec = match kind {
            KIND_WINDOW_START => {
                let window = r.u64()?;
                let delta = match r.u8()? {
                    0 => None,
                    1 => Some(wire::decode_delta(&mut r)?),
                    _ => return Err(WireError::Malformed("delta presence flag").into()),
                };
                let n_loc = r.len(1)?;
                let loc_suffix = r.take(n_loc)?.to_vec();
                if loc_suffix.iter().any(|&d| (d as usize) >= MAX_DCS) {
                    return Err(WireError::Malformed("location suffix out of range").into());
                }
                let n_size = r.len(8)?;
                let size_suffix = r.u64s(n_size)?;
                // The suffix of a window that resumes a placement covers
                // its new vertices; window 0's covers the whole graph.
                let longest = base_vertices.saturating_add(n_loc);
                let gather_suffix = profile_suffix(&mut r, longest)?;
                let apply_suffix = profile_suffix(&mut r, longest)?;
                let num_iterations = r.f64()?;
                let dead = match r.u8()? {
                    0 => None,
                    1 => {
                        let n = r.len(1)?;
                        let flags = r.take(n)?;
                        if flags.iter().any(|&b| b > 1) {
                            return Err(WireError::Malformed("dead flag byte").into());
                        }
                        Some(flags.iter().map(|&b| b == 1).collect())
                    }
                    _ => return Err(WireError::Malformed("dead presence flag").into()),
                };
                let env_fp = r.u64()?;
                Record::WindowStart(WindowStart {
                    window,
                    delta,
                    loc_suffix,
                    size_suffix,
                    gather_suffix,
                    apply_suffix,
                    num_iterations,
                    dead,
                    env_fp,
                })
            }
            KIND_BATCH => {
                let window = r.u64()?;
                let step = r.u32()?;
                let n = r.len(5)?;
                let mut moves = Vec::with_capacity(n);
                for _ in 0..n {
                    let v = r.u32()?;
                    let d = r.u8()?;
                    if (d as usize) >= MAX_DCS {
                        return Err(WireError::Malformed("move destination out of range").into());
                    }
                    moves.push((v, d));
                }
                Record::Batch(Batch { window, step, moves })
            }
            KIND_COMMIT => {
                let window = r.u64()?;
                let theta = r.u64()?;
                let movement_cost_bits = r.u64()?;
                let masters_fnv = r.u64()?;
                Record::Commit(Commit { window, theta, movement_cost_bits, masters_fnv })
            }
            kind => return Err(DurableError::UnknownRecordKind { lsn, kind }),
        };
        r.finish()?;
        Ok(rec)
    }
}

/// A profile suffix as `varint(len)` + `(value, run)` pairs: a uniform
/// profile — window 0 logs the whole one — is a single run.
fn put_profile_suffix(out: &mut Vec<u8>, xs: &[f32]) {
    wire::put_varint(out, xs.len() as u64)
        .and_then(|()| wire::put_f32_runs(out, xs.iter().copied()))
        .expect("writing into a Vec cannot fail");
}

/// Inverse of [`put_profile_suffix`], refusing a declared length past
/// `longest` before [`Reader::runs`] allocates it.
fn profile_suffix(r: &mut Reader<'_>, longest: usize) -> Result<Vec<f32>, WireError> {
    let n = r.varint()?;
    if n > longest as u64 {
        return Err(WireError::Malformed("profile suffix longer than the graph it covers"));
    }
    r.runs(n as usize, Reader::f32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use geograph::dynamic::{EdgeEvent, EventKind};
    use geograph::GraphBuilder;

    fn sample_delta() -> GraphDelta {
        let mut b = GraphBuilder::new(6);
        b.add_edges([(0u32, 1u32), (1, 2), (2, 3)]);
        let g = b.build();
        let events = vec![
            EdgeEvent { src: 0, dst: 4, timestamp_ms: 0, kind: EventKind::Insert },
            EdgeEvent { src: 1, dst: 2, timestamp_ms: 1, kind: EventKind::Delete },
            EdgeEvent { src: 7, dst: 3, timestamp_ms: 2, kind: EventKind::Insert },
        ];
        GraphDelta::from_events(&g, &events)
    }

    /// Decodes against a pipeline that held no vertex before the record,
    /// so a suffix may be no longer than the record's own new vertices.
    fn round_trip(rec: &Record) -> Record {
        Record::from_payload(rec.kind(), &rec.to_payload(), 0, 0).unwrap()
    }

    /// Window 0 of a pipeline over `n` vertices under a uniform profile:
    /// no delta, no new vertices, the whole profile as its suffix.
    fn window_zero(gather: Vec<f32>, apply: Vec<f32>) -> Record {
        Record::WindowStart(WindowStart {
            window: 0,
            delta: None,
            loc_suffix: Vec::new(),
            size_suffix: Vec::new(),
            gather_suffix: gather,
            apply_suffix: apply,
            num_iterations: 10.0,
            dead: None,
            env_fp: 0xfeed,
        })
    }

    #[test]
    fn window_start_round_trips() {
        let rec = Record::WindowStart(WindowStart {
            window: 3,
            delta: Some(sample_delta()),
            loc_suffix: vec![2, 0],
            size_suffix: vec![100, 250],
            gather_suffix: vec![8.0, 1.5],
            apply_suffix: vec![4.0, 0.25],
            num_iterations: 10.0,
            dead: Some(vec![false, true, false, false]),
            env_fp: 0x0123_4567_89ab_cdef,
        });
        assert_eq!(round_trip(&rec), rec);
    }

    #[test]
    fn minimal_window_start_round_trips() {
        let rec = Record::WindowStart(WindowStart {
            window: 0,
            delta: None,
            loc_suffix: Vec::new(),
            size_suffix: Vec::new(),
            gather_suffix: Vec::new(),
            apply_suffix: Vec::new(),
            num_iterations: 1.0,
            dead: None,
            env_fp: 7,
        });
        assert_eq!(round_trip(&rec), rec);
    }

    #[test]
    fn profile_suffixes_round_trip_bit_for_bit() {
        // Mixed runs, a sign-of-zero boundary inside what `==` would call
        // one run, a NaN payload, and the two lengths differing.
        let gather = vec![8.0, 8.0, 8.0, 0.0, -0.0, -0.0, 1.5, f32::from_bits(0x7fc0_0001), 8.0];
        let apply = vec![4.0; 5];
        let rec = window_zero(gather.clone(), apply);
        let back = Record::from_payload(rec.kind(), &rec.to_payload(), 0, gather.len()).unwrap();
        let (Record::WindowStart(a), Record::WindowStart(b)) = (&rec, &back) else {
            panic!("kind changed in flight");
        };
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a.gather_suffix), bits(&b.gather_suffix));
        assert_eq!(bits(&a.apply_suffix), bits(&b.apply_suffix));
        // One value longer than the graph the caller vouches for is refused.
        assert!(Record::from_payload(rec.kind(), &rec.to_payload(), 0, gather.len() - 1).is_err());
    }

    #[test]
    fn uniform_window_zero_costs_bytes_not_megabytes() {
        let n = 97_000;
        let rec = window_zero(vec![8.0; n], vec![8.0; n]);
        let payload = rec.to_payload();
        assert!(payload.len() < 100, "a uniform profile is one run, got {} B", payload.len());
        assert_eq!(Record::from_payload(rec.kind(), &payload, 0, n).unwrap(), rec);
        // Cut anywhere, a real window-0 record is a typed error.
        for len in 0..payload.len() {
            assert!(
                Record::from_payload(rec.kind(), &payload[..len], 0, n).is_err(),
                "truncated to {len} decoded"
            );
        }
    }

    #[test]
    fn oversized_run_is_refused_before_it_is_expanded() {
        // One run declaring 2^40 values: 4 TiB if it were allocated. The
        // declared length is past anything the caller's graph justifies.
        let mut payload = 0u64.to_le_bytes().to_vec(); // window
        payload.push(0); // no delta
        payload.extend_from_slice(&0u64.to_le_bytes()); // no new locations
        payload.extend_from_slice(&0u64.to_le_bytes()); // no new sizes
        wire::put_varint(&mut payload, 1 << 40).unwrap();
        wire::put_varint(&mut payload, 1).unwrap();
        payload.extend_from_slice(&8.0f32.to_le_bytes());
        wire::put_varint(&mut payload, 1 << 40).unwrap();
        match Record::from_payload(KIND_WINDOW_START, &payload, 0, 97_000) {
            Err(DurableError::Wire(WireError::Malformed(what))) => {
                assert!(what.contains("profile suffix"), "{what}")
            }
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn batch_round_trips() {
        let rec = Record::Batch(Batch {
            window: 7,
            step: Batch::RECONCILE_STEP,
            moves: vec![(0, 3), (41, 0), (2, 7)],
        });
        assert_eq!(round_trip(&rec), rec);
    }

    #[test]
    fn commit_round_trips() {
        let rec = Record::Commit(Commit {
            window: 9,
            theta: 12,
            movement_cost_bits: 4.75f64.to_bits(),
            masters_fnv: 0xdead_beef,
        });
        assert_eq!(round_trip(&rec), rec);
    }

    #[test]
    fn truncation_never_panics() {
        for rec in [
            Record::WindowStart(WindowStart {
                window: 1,
                delta: Some(sample_delta()),
                loc_suffix: vec![1],
                size_suffix: vec![5],
                gather_suffix: vec![2.0],
                apply_suffix: vec![1.0],
                num_iterations: 5.0,
                dead: Some(vec![true; 4]),
                env_fp: 0xfeed,
            }),
            Record::Batch(Batch { window: 1, step: 0, moves: vec![(3, 1)] }),
            Record::Commit(Commit { window: 1, theta: 8, movement_cost_bits: 0, masters_fnv: 1 }),
        ] {
            let payload = rec.to_payload();
            for len in 0..payload.len() {
                assert!(
                    Record::from_payload(rec.kind(), &payload[..len], 0, 0).is_err(),
                    "kind {} truncated to {len} decoded",
                    rec.kind()
                );
            }
            let mut long = payload.clone();
            long.push(0);
            assert!(Record::from_payload(rec.kind(), &long, 0, 0).is_err());
        }
    }

    #[test]
    fn unknown_kind_rejected() {
        match Record::from_payload(9, &[], 42, 0) {
            Err(DurableError::UnknownRecordKind { lsn: 42, kind: 9 }) => {}
            other => panic!("expected UnknownRecordKind, got {other:?}"),
        }
    }

    #[test]
    fn bad_flag_bytes_rejected() {
        // Dead flag byte outside {0, 1}.
        let rec = Record::WindowStart(WindowStart {
            window: 0,
            delta: None,
            loc_suffix: Vec::new(),
            size_suffix: Vec::new(),
            gather_suffix: Vec::new(),
            apply_suffix: Vec::new(),
            num_iterations: 1.0,
            dead: Some(vec![true]),
            env_fp: 0,
        });
        let mut payload = rec.to_payload();
        // The dead-flag byte sits just before the trailing 8-byte env_fp.
        let flag_at = payload.len() - 9;
        payload[flag_at] = 2;
        assert!(Record::from_payload(KIND_WINDOW_START, &payload, 0, 0).is_err());
    }
}
