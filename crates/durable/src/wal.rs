//! Append-only write-ahead log: length-prefixed, checksummed records in
//! atomically-rotated segments.
//!
//! ## Layout
//!
//! The log lives under `<store>/wal/` as numbered segment files
//! `seg-<seq>.wal`. Each segment opens with a 32-byte header written
//! **atomically** (tmp + rename + directory fsync), so a legitimate crash
//! can never leave a header-less or half-headed segment behind — any
//! segment that fails header validation is corruption, not a crash
//! artifact:
//!
//! ```text
//! magic      4 B   "RLWL"
//! version    u32   3
//! seq        u64   segment sequence number (must match the file name)
//! first_lsn  u64   LSN of the first record in this segment
//! checksum   u64   FNV-1a over the 24 bytes above
//! ```
//!
//! Records follow back to back:
//!
//! ```text
//! len        u32   payload length
//! kind       u8    record kind tag (opaque to this module)
//! payload    len B
//! checksum   u64   FNV-1a over kind + payload
//! ```
//!
//! ## Torn-tail policy
//!
//! A crash mid-append leaves the *final* record of the *final* segment
//! shorter than its length prefix declares. Recovery drops those bytes
//! and reports them ([`WalReport::torn_tail_bytes`]) — that record was
//! never acknowledged as durable. Everything else is strict: a
//! short record in a non-final segment is [`DurableError::TruncatedSegment`],
//! a fully-present record with a bad checksum is
//! [`DurableError::CorruptRecord`], and segments whose sequence numbers or
//! first-LSNs do not chain are [`DurableError::LsnGap`]. Reopening always
//! rotates to a fresh segment, so new appends never extend a file whose
//! tail was dropped.
//!
//! ## Fsync discipline
//!
//! `Wal::append` buffers in the OS; `Wal::sync` is the durability
//! point (`fdatasync`). Callers group-commit: sync once after the records
//! that must become durable together. Rotation syncs the outgoing segment
//! before the new one is linked in.

use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use geograph::wire::{fnv1a, Reader, WireError};

use crate::error::DurableError;

/// Magic bytes opening every WAL segment.
pub(crate) const MAGIC: [u8; 4] = *b"RLWL";
/// Current segment format version. A segment of any other version is
/// [`DurableError::UnsupportedVersion`]: version 2 wrote a window start's
/// delta as raw edge pairs, version 1 its profile suffixes as raw `f32`s.
pub(crate) const VERSION: u32 = 3;
/// Segment header size in bytes.
pub(crate) const HEADER_BYTES: u64 = 32;
/// Per-record framing overhead (length prefix + kind + checksum).
pub(crate) const RECORD_OVERHEAD: u64 = 13;
/// Default rotation threshold.
pub(crate) const DEFAULT_SEGMENT_BYTES: u64 = 4 << 20;

/// One record scanned out of the log.
#[derive(Clone, Debug)]
pub struct LoadedRecord {
    /// Log sequence number (global record index, monotone across segments).
    pub lsn: u64,
    /// Kind tag, opaque at this layer.
    pub kind: u8,
    pub payload: Vec<u8>,
    /// Segment the record lives in.
    pub segment: u64,
    /// Byte offset just past this record within its segment file — the
    /// crash harness truncates here to simulate a kill at a record
    /// boundary.
    pub end_offset: u64,
}

/// What a log scan found.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalReport {
    /// Segment files scanned.
    pub segments: usize,
    /// Complete, checksum-verified records.
    pub records: usize,
    /// Bytes of a torn final record dropped from the final segment.
    pub torn_tail_bytes: u64,
    /// Total bytes across all segment files.
    pub total_bytes: u64,
}

fn wal_dir(store_dir: &Path) -> PathBuf {
    store_dir.join("wal")
}

fn segment_name(seq: u64) -> String {
    format!("seg-{seq:08}.wal")
}

/// Sorted segment files of the store at `store_dir` (oldest first).
pub fn segment_paths(store_dir: &Path) -> Result<Vec<(u64, PathBuf)>, DurableError> {
    let dir = wal_dir(store_dir);
    let mut out = Vec::new();
    if !dir.exists() {
        return Ok(out);
    }
    for entry in std::fs::read_dir(&dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if let Some(seq) = name
            .strip_prefix("seg-")
            .and_then(|s| s.strip_suffix(".wal"))
            .and_then(|s| s.parse::<u64>().ok())
        {
            out.push((seq, entry.path()));
        }
    }
    out.sort_unstable_by_key(|&(seq, _)| seq);
    Ok(out)
}

fn header_bytes(seq: u64, first_lsn: u64) -> [u8; HEADER_BYTES as usize] {
    let mut h = [0u8; HEADER_BYTES as usize];
    h[..4].copy_from_slice(&MAGIC);
    h[4..8].copy_from_slice(&VERSION.to_le_bytes());
    h[8..16].copy_from_slice(&seq.to_le_bytes());
    h[16..24].copy_from_slice(&first_lsn.to_le_bytes());
    let sum = fnv1a(&h[..24]);
    h[24..].copy_from_slice(&sum.to_le_bytes());
    h
}

fn fsync_dir(dir: &Path) -> Result<(), DurableError> {
    File::open(dir)?.sync_all()?;
    Ok(())
}

/// The appender half of the log.
#[derive(Debug)]
pub struct Wal {
    dir: PathBuf,
    file: File,
    seq: u64,
    next_lsn: u64,
    /// Bytes written into the current segment (header included).
    written: u64,
    /// Rotation threshold.
    segment_bytes: u64,
    /// Record bytes appended through this handle (bench accounting).
    appended_bytes: u64,
}

impl Wal {
    /// Creates a fresh log under `store_dir` (no segments may exist yet).
    pub(crate) fn create(store_dir: &Path) -> Result<Wal, DurableError> {
        let dir = wal_dir(store_dir);
        std::fs::create_dir_all(&dir)?;
        if !segment_paths(store_dir)?.is_empty() {
            return Err(DurableError::Io(std::io::Error::new(
                std::io::ErrorKind::AlreadyExists,
                "WAL directory already holds segments",
            )));
        }
        let file = start_segment(&dir, 0, 0)?;
        Ok(Wal {
            dir,
            file,
            seq: 0,
            next_lsn: 0,
            written: HEADER_BYTES,
            segment_bytes: DEFAULT_SEGMENT_BYTES,
            appended_bytes: 0,
        })
    }

    /// Scans the existing log and returns an appender positioned after it.
    /// Always rotates to a fresh segment, so a dropped torn tail is never
    /// extended.
    pub(crate) fn open(
        store_dir: &Path,
    ) -> Result<(Vec<LoadedRecord>, WalReport, Wal), DurableError> {
        let (records, report) = load(store_dir)?;
        let dir = wal_dir(store_dir);
        std::fs::create_dir_all(&dir)?;
        let last_seq = segment_paths(store_dir)?.last().map(|&(seq, _)| seq);
        let seq = last_seq.map_or(0, |s| s + 1);
        let next_lsn = records.last().map_or(0, |r| r.lsn + 1);
        let file = start_segment(&dir, seq, next_lsn)?;
        let wal = Wal {
            dir,
            file,
            seq,
            next_lsn,
            written: HEADER_BYTES,
            segment_bytes: DEFAULT_SEGMENT_BYTES,
            appended_bytes: 0,
        };
        Ok((records, report, wal))
    }

    /// LSN the next appended record will get.
    pub(crate) fn next_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// Record bytes appended through this handle (framing included).
    pub(crate) fn appended_bytes(&self) -> u64 {
        self.appended_bytes
    }

    /// Appends one record, rotating first if the current segment is full.
    /// Returns the record's LSN. Not yet durable — call [`Self::sync`].
    pub(crate) fn append(&mut self, kind: u8, payload: &[u8]) -> Result<u64, DurableError> {
        if self.written >= self.segment_bytes {
            self.rotate()?;
        }
        let mut buf = Vec::with_capacity(payload.len() + RECORD_OVERHEAD as usize);
        buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        buf.push(kind);
        buf.extend_from_slice(payload);
        let sum = fnv1a(&buf[4..]);
        buf.extend_from_slice(&sum.to_le_bytes());
        self.file.write_all(&buf)?;
        self.written += buf.len() as u64;
        self.appended_bytes += buf.len() as u64;
        let lsn = self.next_lsn;
        self.next_lsn += 1;
        Ok(lsn)
    }

    /// Makes every appended record durable (`fdatasync`).
    pub(crate) fn sync(&mut self) -> Result<(), DurableError> {
        self.file.sync_data()?;
        Ok(())
    }

    /// Starts a fresh segment at the next LSN unless the current one holds
    /// no record, so the log behind a snapshot is whole prunable segments.
    pub(crate) fn roll(&mut self) -> Result<(), DurableError> {
        if self.written > HEADER_BYTES {
            self.rotate()?;
        }
        Ok(())
    }

    fn rotate(&mut self) -> Result<(), DurableError> {
        self.file.sync_data()?;
        self.seq += 1;
        self.file = start_segment(&self.dir, self.seq, self.next_lsn)?;
        self.written = HEADER_BYTES;
        Ok(())
    }

    /// Deletes whole segments whose records all predate `lsn` (oldest
    /// first, so a crash mid-prune leaves a contiguous suffix). Returns
    /// the number of segments removed. The segment containing `lsn` — and
    /// everything after it — stays.
    pub(crate) fn prune_below(
        &mut self,
        store_dir: &Path,
        lsn: u64,
    ) -> Result<usize, DurableError> {
        let paths = segment_paths(store_dir)?;
        // A segment is disposable iff its successor starts at or before
        // `lsn`: then every record it holds is < lsn.
        let mut first_lsns = Vec::with_capacity(paths.len());
        for &(seq, ref path) in &paths {
            // The header alone — a full segment is megabytes.
            let mut header = Vec::with_capacity(HEADER_BYTES as usize);
            File::open(path)?.take(HEADER_BYTES).read_to_end(&mut header)?;
            first_lsns.push(parse_header(seq, &mut Reader::new(&header))?);
        }
        let mut removed = 0;
        for i in 0..paths.len().saturating_sub(1) {
            if first_lsns[i + 1] <= lsn {
                std::fs::remove_file(&paths[i].1)?;
                removed += 1;
            } else {
                break;
            }
        }
        if removed > 0 {
            fsync_dir(&self.dir)?;
        }
        Ok(removed)
    }
}

/// Creates segment `seq` atomically and returns it opened for append.
fn start_segment(dir: &Path, seq: u64, first_lsn: u64) -> Result<File, DurableError> {
    let tmp = dir.join(format!("seg-{seq:08}.tmp"));
    {
        let mut f = File::create(&tmp)?;
        f.write_all(&header_bytes(seq, first_lsn))?;
        f.sync_all()?;
    }
    let path = dir.join(segment_name(seq));
    std::fs::rename(&tmp, &path)?;
    fsync_dir(dir)?;
    Ok(OpenOptions::new().append(true).open(&path)?)
}

/// Validates a segment header read from the front of `r`, returning its
/// `first_lsn` and leaving `r` at the first record.
fn parse_header(seq: u64, r: &mut Reader<'_>) -> Result<u64, DurableError> {
    let bad = |reason| DurableError::BadSegmentHeader { segment: seq, reason };
    if r.remaining() == 0 {
        return Err(bad("zero-length file"));
    }
    let short = |_| bad("short header");
    let fields = r.take(HEADER_BYTES as usize - 8).map_err(short)?;
    let stored = r.u64().map_err(short)?;
    let mut f = Reader::new(fields);
    if f.take(MAGIC.len()).map_err(short)? != MAGIC {
        return Err(bad("bad magic"));
    }
    if stored != fnv1a(fields) {
        return Err(bad("header checksum"));
    }
    let version = f.u32().map_err(short)?;
    if version != VERSION {
        return Err(DurableError::UnsupportedVersion { segment: seq, version });
    }
    if f.u64().map_err(short)? != seq {
        return Err(bad("sequence mismatch"));
    }
    f.u64().map_err(short)
}

/// One record frame off the front of `r`: its kind, its payload and whether
/// the stored checksum matches them. `Err` when the bytes end before the
/// frame its length prefix declares does.
fn read_frame<'a>(r: &mut Reader<'a>) -> Result<(u8, &'a [u8], bool), WireError> {
    let len = r.u32()? as usize;
    let body = r.take(1 + len)?;
    let intact = r.u64()? == fnv1a(body);
    let mut body_reader = Reader::new(body);
    Ok((body_reader.u8()?, body_reader.take(len)?, intact))
}

/// Read-only scan of the whole log under `store_dir`.
pub fn load(store_dir: &Path) -> Result<(Vec<LoadedRecord>, WalReport), DurableError> {
    let paths = segment_paths(store_dir)?;
    let mut records = Vec::new();
    let mut report = WalReport { segments: paths.len(), ..WalReport::default() };
    let mut next_lsn: Option<u64> = None;
    for (i, &(seq, ref path)) in paths.iter().enumerate() {
        let last = i + 1 == paths.len();
        let bytes = std::fs::read(path)?;
        report.total_bytes += bytes.len() as u64;
        let mut r = Reader::new(&bytes);
        let first_lsn = parse_header(seq, &mut r)?;
        if let Some(expected) = next_lsn {
            if first_lsn != expected {
                return Err(DurableError::LsnGap {
                    segment: seq,
                    expected_lsn: expected,
                    found_lsn: first_lsn,
                });
            }
        }
        let mut lsn = first_lsn;
        while r.remaining() > 0 {
            let remaining = r.remaining();
            let Ok((kind, payload, intact)) = read_frame(&mut r) else {
                // Shorter than the frame declares: a torn append — only
                // legitimate at the very end of the log.
                if last {
                    report.torn_tail_bytes = remaining as u64;
                    break;
                }
                return Err(DurableError::TruncatedSegment { segment: seq });
            };
            if !intact {
                return Err(DurableError::CorruptRecord { segment: seq, lsn });
            }
            records.push(LoadedRecord {
                lsn,
                kind,
                payload: payload.to_vec(),
                segment: seq,
                end_offset: (bytes.len() - r.remaining()) as u64,
            });
            lsn += 1;
        }
        next_lsn = Some(lsn);
        report.records = records.len();
    }
    Ok((records, report))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Overrides the rotation threshold: tiny segments exercise rotation.
    fn with_segment_bytes(mut wal: Wal, bytes: u64) -> Wal {
        wal.segment_bytes = bytes.max(HEADER_BYTES + RECORD_OVERHEAD);
        wal
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rlcut_wal_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn append_load_round_trip() {
        let dir = tmp_dir("round_trip");
        let mut wal = Wal::create(&dir).unwrap();
        for i in 0..10u8 {
            let lsn = wal.append(i % 3, &[i; 5]).unwrap();
            assert_eq!(lsn, i as u64);
        }
        wal.sync().unwrap();
        let (records, report) = load(&dir).unwrap();
        assert_eq!(records.len(), 10);
        assert_eq!(report.records, 10);
        assert_eq!(report.torn_tail_bytes, 0);
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.lsn, i as u64);
            assert_eq!(r.kind, (i % 3) as u8);
            assert_eq!(r.payload, vec![i as u8; 5]);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rotation_chains_segments() {
        let dir = tmp_dir("rotation");
        let mut wal = with_segment_bytes(Wal::create(&dir).unwrap(), 64);
        for i in 0..20u8 {
            wal.append(1, &[i; 16]).unwrap();
        }
        wal.sync().unwrap();
        let paths = segment_paths(&dir).unwrap();
        assert!(paths.len() > 1, "64-byte segments must rotate");
        let (records, _) = load(&dir).unwrap();
        assert_eq!(records.len(), 20);
        assert_eq!(records.last().unwrap().lsn, 19);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopen_continues_lsns_in_fresh_segment() {
        let dir = tmp_dir("reopen");
        let mut wal = Wal::create(&dir).unwrap();
        wal.append(1, b"a").unwrap();
        wal.append(1, b"b").unwrap();
        wal.sync().unwrap();
        drop(wal);
        let (records, _, mut wal) = Wal::open(&dir).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(wal.next_lsn(), 2);
        assert_eq!(wal.append(2, b"c").unwrap(), 2);
        wal.sync().unwrap();
        let (records, _) = load(&dir).unwrap();
        assert_eq!(records.len(), 3);
        assert!(records[2].segment > records[1].segment, "reopen must rotate");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_dropped_and_reported() {
        let dir = tmp_dir("torn");
        let mut wal = Wal::create(&dir).unwrap();
        wal.append(1, &[1; 32]).unwrap();
        wal.append(1, &[2; 32]).unwrap();
        wal.sync().unwrap();
        let (_, path) = segment_paths(&dir).unwrap().pop().unwrap();
        let full = std::fs::read(&path).unwrap();
        // Cut the last record short at every possible point.
        let first_end = HEADER_BYTES as usize + 32 + RECORD_OVERHEAD as usize;
        for cut in first_end..full.len() - 1 {
            std::fs::write(&path, &full[..cut]).unwrap();
            let (records, report) = load(&dir).unwrap();
            assert_eq!(records.len(), 1, "cut at {cut}");
            assert_eq!(report.torn_tail_bytes, (cut - first_end) as u64);
        }
        std::fs::write(&path, &full).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bit_flips_are_caught() {
        let dir = tmp_dir("flips");
        let mut wal = Wal::create(&dir).unwrap();
        wal.append(1, &[7; 16]).unwrap();
        wal.sync().unwrap();
        let (_, path) = segment_paths(&dir).unwrap().pop().unwrap();
        let full = std::fs::read(&path).unwrap();
        for i in 0..full.len() {
            let mut bad = full.clone();
            bad[i] ^= 0x40;
            std::fs::write(&path, &bad).unwrap();
            // A flip in the length prefix can mimic a torn tail; any
            // other flip must surface as a typed error.
            if let Ok((records, report)) = load(&dir) {
                assert!(
                    (HEADER_BYTES as usize..HEADER_BYTES as usize + 4).contains(&i),
                    "flip at byte {i} loaded silently"
                );
                assert_eq!(records.len(), 0);
                assert!(report.torn_tail_bytes > 0);
            }
        }
        std::fs::write(&path, &full).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn zero_length_segment_rejected() {
        let dir = tmp_dir("zero");
        let mut wal = Wal::create(&dir).unwrap();
        wal.append(1, b"x").unwrap();
        wal.sync().unwrap();
        let (_, path) = segment_paths(&dir).unwrap().pop().unwrap();
        std::fs::write(&path, b"").unwrap();
        match load(&dir) {
            Err(DurableError::BadSegmentHeader { reason, .. }) => {
                assert_eq!(reason, "zero-length file")
            }
            other => panic!("zero-length segment must be rejected, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_header_fault_keeps_its_reason() {
        let dir = tmp_dir("header");
        let mut wal = Wal::create(&dir).unwrap();
        wal.append(1, b"x").unwrap();
        wal.sync().unwrap();
        let (_, path) = segment_paths(&dir).unwrap().pop().unwrap();
        let good = std::fs::read(&path).unwrap();
        let restamp = |bytes: &mut Vec<u8>| {
            let sum = fnv1a(&bytes[..24]);
            bytes[24..32].copy_from_slice(&sum.to_le_bytes());
        };
        let mut magic = good.clone();
        magic[0] ^= 1;
        restamp(&mut magic);
        let mut checksum = good.clone();
        checksum[20] ^= 1;
        let mut seq = good.clone();
        seq[8] = 7;
        restamp(&mut seq);
        for (bytes, expected) in [
            (good[..1].to_vec(), "short header"),
            (good[..31].to_vec(), "short header"),
            (magic, "bad magic"),
            (checksum, "header checksum"),
            (seq, "sequence mismatch"),
        ] {
            std::fs::write(&path, &bytes).unwrap();
            match load(&dir) {
                Err(DurableError::BadSegmentHeader { segment: 0, reason }) => {
                    assert_eq!(reason, expected)
                }
                other => panic!("{expected}: got {other:?}"),
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn older_format_version_is_a_typed_error() {
        let dir = tmp_dir("v1");
        let mut wal = Wal::create(&dir).unwrap();
        wal.append(1, b"x").unwrap();
        wal.sync().unwrap();
        let (_, path) = segment_paths(&dir).unwrap().pop().unwrap();
        let current = std::fs::read(&path).unwrap();
        for old in [1u32, 2] {
            // The same segment as an older writer stamped it: version
            // field rewritten, header checksum recomputed.
            let mut bytes = current.clone();
            bytes[4..8].copy_from_slice(&old.to_le_bytes());
            let sum = fnv1a(&bytes[..24]);
            bytes[24..32].copy_from_slice(&sum.to_le_bytes());
            std::fs::write(&path, &bytes).unwrap();
            match load(&dir) {
                Err(DurableError::UnsupportedVersion { segment: 0, version }) => {
                    assert_eq!(version, old)
                }
                other => panic!("a v{old} segment must be refused by version, got {other:?}"),
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_interior_segment_is_a_gap() {
        let dir = tmp_dir("gap");
        let mut wal = with_segment_bytes(Wal::create(&dir).unwrap(), 64);
        for i in 0..30u8 {
            wal.append(1, &[i; 16]).unwrap();
        }
        wal.sync().unwrap();
        let paths = segment_paths(&dir).unwrap();
        assert!(paths.len() >= 3);
        std::fs::remove_file(&paths[1].1).unwrap();
        assert!(matches!(load(&dir), Err(DurableError::LsnGap { .. })));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_interior_segment_rejected() {
        let dir = tmp_dir("interior");
        let mut wal = with_segment_bytes(Wal::create(&dir).unwrap(), 64);
        for i in 0..30u8 {
            wal.append(1, &[i; 16]).unwrap();
        }
        wal.sync().unwrap();
        let paths = segment_paths(&dir).unwrap();
        assert!(paths.len() >= 2);
        let first = std::fs::read(&paths[0].1).unwrap();
        std::fs::write(&paths[0].1, &first[..first.len() - 5]).unwrap();
        assert!(matches!(load(&dir), Err(DurableError::TruncatedSegment { .. })));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn prune_keeps_live_suffix() {
        let dir = tmp_dir("prune");
        let mut wal = with_segment_bytes(Wal::create(&dir).unwrap(), 64);
        for i in 0..30u8 {
            wal.append(1, &[i; 16]).unwrap();
        }
        wal.sync().unwrap();
        let before = segment_paths(&dir).unwrap().len();
        assert!(before >= 3);
        let removed = wal.prune_below(&dir, 15).unwrap();
        assert!(removed > 0);
        let (records, _) = load(&dir).unwrap();
        // Every record from 15 on must survive (earlier ones may too —
        // pruning is whole-segment).
        assert!(records.iter().any(|r| r.lsn == 15));
        assert_eq!(records.last().unwrap().lsn, 29);
        assert!(records[0].lsn <= 15);
        std::fs::remove_dir_all(&dir).ok();
    }
}
