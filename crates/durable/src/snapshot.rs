//! Compact pipeline snapshots: `(GeoGraph, PlacementState, trainer blob)`
//! at a WAL position.
//!
//! A snapshot pins everything replay would otherwise have to reconstruct
//! from genesis: the graph as of some committed window (Rice-coded in-rows
//! and bit-packed locations, [`geograph::wire`]), the carried hybrid-cut
//! placement and its theta ([`geopart::snapshot`]: bit-packed masters, the
//! `is_high` bitmap, the profile as load-unit runs and the priced movement
//! cost as raw `f64` bits; the count plane, the loads and the moved bytes
//! are not stored but rebuilt from the decoded graph), and optionally an opaque caller
//! blob (this layer stores the bytes and gives them no meaning; the
//! pipeline writes none). The placement section carries hybrid-cut parts
//! only (`HybridState::into_parts`), which is all the pipeline puts in a
//! [`SnapshotRef`]: any other state would decode to the hybrid-cut plane
//! of its masters.
//! Recovery = newest decodable snapshot + WAL replay from its
//! [`Snapshot::lsn`].
//!
//! There is one encoder, and it borrows: a [`SnapshotRef`] views the live
//! state and [`write`] streams it through a buffered file sink that folds
//! the FNV-1a trailer in block by block — cutting a snapshot costs
//! O(buffer) transient heap. The owned [`Snapshot`] is the decoded form.
//!
//! Files are `snap-<lsn>.snap` under `<store>/snap/`, written atomically
//! (tmp + rename + directory fsync). [`load_latest`] walks candidates
//! newest-first and *skips* undecodable ones (reporting how many) — a
//! torn, bit-flipped or older-format snapshot costs replay time, never
//! correctness. The store writes a genesis snapshot (window 0, no
//! placement) at creation, so an empty snapshot directory is always
//! [`DurableError::NoValidSnapshot`]: not a new store, a destroyed one.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use geograph::wire::{self, fnv1a, fnv1a_fold, put_varint, Reader, WireError, FNV_OFFSET};
use geograph::GeoGraph;
use geopart::snapshot::{decode_placement, encode_placement};
use geopart::PlacementState;

use crate::error::DurableError;

/// Magic bytes opening every snapshot file.
pub(crate) const MAGIC: [u8; 4] = *b"RLSN";
/// The one snapshot format version; any other (5 stored the four stage-load
/// vectors and the profile as `f32` runs, 4 wrote varint out-rows and
/// byte-wide DC ids) is [`DurableError::UnsupportedVersion`].
pub(crate) const VERSION: u32 = 6;
/// File-sink buffer: the whole transient heap of cutting a snapshot.
const SINK_BUFFER_BYTES: usize = 64 << 10;

/// Pipeline state at a WAL position, owned — what a snapshot decodes to.
#[derive(Debug)]
pub struct Snapshot {
    /// First WAL record NOT reflected in this snapshot — replay resumes
    /// here.
    pub lsn: u64,
    /// Next window index (windows `0..window` are folded in).
    pub window: u64,
    /// [`crate::error::env_fingerprint`] of the environment the pipeline
    /// ran under; recovery cross-checks it against the offered one.
    pub env_fp: u64,
    /// The geo-graph as of `window` windows applied.
    pub geo: GeoGraph,
    /// Carried placement + theta; `None` at genesis (no window committed
    /// yet — the first `WindowStart` builds placement from scratch).
    pub placement: Option<(PlacementState, usize)>,
    /// Opaque caller bytes; the pipeline writes `None` (every window
    /// starts fresh automata, so a commit boundary has no trainer state).
    pub trainer: Option<Vec<u8>>,
}

/// A borrowed view of the same six fields — what gets encoded, so cutting
/// a snapshot of live state clones nothing.
#[derive(Clone, Copy, Debug)]
pub struct SnapshotRef<'a> {
    pub lsn: u64,
    pub window: u64,
    pub env_fp: u64,
    pub geo: &'a GeoGraph,
    pub placement: Option<(&'a PlacementState, usize)>,
    pub trainer: Option<&'a [u8]>,
}

fn snap_dir(store_dir: &Path) -> PathBuf {
    store_dir.join("snap")
}

fn snap_name(lsn: u64) -> String {
    format!("snap-{lsn:020}.snap")
}

impl SnapshotRef<'_> {
    /// Streams the payload (everything but the checksum trailer) to `w`.
    fn encode<W: Write>(&self, w: &mut W) -> io::Result<()> {
        w.write_all(&MAGIC)?;
        w.write_all(&VERSION.to_le_bytes())?;
        w.write_all(&self.lsn.to_le_bytes())?;
        w.write_all(&self.window.to_le_bytes())?;
        w.write_all(&self.env_fp.to_le_bytes())?;
        wire::encode_geo(self.geo, w)?;
        match self.placement {
            Some((state, theta)) => {
                w.write_all(&[1])?;
                put_varint(w, theta as u64)?;
                encode_placement(state, w)?;
            }
            None => w.write_all(&[0])?,
        }
        match self.trainer {
            Some(blob) => {
                w.write_all(&[1])?;
                put_varint(w, blob.len() as u64)?;
                w.write_all(blob)
            }
            None => w.write_all(&[0]),
        }
    }

    /// The snapshot with its checksum trailer — the bytes [`write`] streams
    /// out. Fails only on a graph the wire cannot carry (duplicate edges).
    pub fn to_bytes(&self) -> io::Result<Vec<u8>> {
        let mut out = Vec::new();
        self.encode(&mut out)?;
        let sum = fnv1a(&out);
        out.extend_from_slice(&sum.to_le_bytes());
        Ok(out)
    }
}

impl Snapshot {
    /// The borrowed view of this snapshot.
    pub fn as_ref(&self) -> SnapshotRef<'_> {
        SnapshotRef {
            lsn: self.lsn,
            window: self.window,
            env_fp: self.env_fp,
            geo: &self.geo,
            placement: self.placement.as_ref().map(|(state, theta)| (state, *theta)),
            trainer: self.trainer.as_deref(),
        }
    }

    /// Decodes and validates a snapshot blob (checksum first, then
    /// structure, then cross-field consistency).
    pub fn from_bytes(bytes: &[u8]) -> Result<Snapshot, DurableError> {
        if bytes.len() < MAGIC.len() + 12 {
            return Err(WireError::Truncated.into());
        }
        let (payload, trailer) = bytes.split_at(bytes.len() - 8);
        let stored = u64::from_le_bytes(trailer.try_into().unwrap());
        if stored != fnv1a(payload) {
            return Err(WireError::Malformed("snapshot checksum mismatch").into());
        }
        let mut r = Reader::new(payload);
        if r.take(4)? != MAGIC {
            return Err(WireError::Malformed("snapshot magic").into());
        }
        let version = r.u32()?;
        if version != VERSION {
            return Err(DurableError::UnsupportedVersion { segment: 0, version });
        }
        let lsn = r.u64()?;
        let window = r.u64()?;
        let env_fp = r.u64()?;
        let geo = wire::decode_geo(&mut r)?;
        let placement = match r.u8()? {
            0 => None,
            1 => {
                let theta = r.varint()? as usize;
                Some((decode_placement(&mut r, &geo)?, theta))
            }
            _ => return Err(WireError::Malformed("placement presence flag").into()),
        };
        let trainer = match r.u8()? {
            0 => None,
            1 => {
                let n = r.varint()?;
                Some(r.take(usize::try_from(n).map_err(|_| WireError::Truncated)?)?.to_vec())
            }
            _ => return Err(WireError::Malformed("trainer presence flag").into()),
        };
        r.finish()?;
        Ok(Snapshot { lsn, window, env_fp, geo, placement, trainer })
    }
}

/// The sink under [`write`]'s `BufWriter`: folds each flushed block into a
/// running FNV-1a and counts it on its way to the file.
struct ChecksumSink {
    file: File,
    hash: u64,
    bytes: u64,
}

impl Write for ChecksumSink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.file.write(buf)?;
        self.hash = fnv1a_fold(self.hash, &buf[..n]);
        self.bytes += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.file.flush()
    }
}

/// Streams `snapshot` atomically under `store_dir` and returns its path
/// and encoded size. A failed write removes its temp file.
pub fn write(store_dir: &Path, snapshot: SnapshotRef<'_>) -> Result<(PathBuf, u64), DurableError> {
    let dir = snap_dir(store_dir);
    std::fs::create_dir_all(&dir)?;
    let tmp = dir.join(format!("{}.tmp", snap_name(snapshot.lsn)));
    let stream = || -> io::Result<u64> {
        let sink = ChecksumSink { file: File::create(&tmp)?, hash: FNV_OFFSET, bytes: 0 };
        let mut w = BufWriter::with_capacity(SINK_BUFFER_BYTES, sink);
        snapshot.encode(&mut w)?;
        let mut sink = w.into_inner().map_err(|e| e.into_error())?;
        sink.file.write_all(&sink.hash.to_le_bytes())?;
        sink.file.sync_all()?;
        Ok(sink.bytes + 8)
    };
    let bytes = stream().inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })?;
    let path = dir.join(snap_name(snapshot.lsn));
    std::fs::rename(&tmp, &path)?;
    File::open(&dir)?.sync_all()?;
    Ok((path, bytes))
}

/// Sorted snapshot files (oldest first) keyed by their LSN. A `*.tmp` left
/// by a crash mid-write never qualifies (recovery sweeps those).
pub fn snapshot_paths(store_dir: &Path) -> Result<Vec<(u64, PathBuf)>, DurableError> {
    let dir = snap_dir(store_dir);
    let mut out = Vec::new();
    if !dir.exists() {
        return Ok(out);
    }
    for entry in std::fs::read_dir(&dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if let Some(lsn) = name
            .strip_prefix("snap-")
            .and_then(|s| s.strip_suffix(".snap"))
            .and_then(|s| s.parse::<u64>().ok())
        {
            out.push((lsn, entry.path()));
        }
    }
    out.sort_unstable_by_key(|&(lsn, _)| lsn);
    Ok(out)
}

/// What [`load_latest`] did to find its snapshot.
#[derive(Clone, Copy, Debug, Default)]
pub struct LoadStats {
    /// Undecodable candidates skipped before one decoded.
    pub skipped: usize,
    /// Size of the file that decoded.
    pub bytes: u64,
    /// Read + checksum + decode time of the file that decoded.
    pub load: Duration,
}

/// Loads the newest decodable snapshot, skipping corrupt candidates.
pub fn load_latest(store_dir: &Path) -> Result<(Snapshot, LoadStats), DurableError> {
    let paths = snapshot_paths(store_dir)?;
    let tried = paths.len();
    for (skipped, (_, path)) in paths.into_iter().rev().enumerate() {
        let start = Instant::now();
        // An unreadable file fails the decode like any other bad candidate.
        let bytes = std::fs::read(&path).unwrap_or_default();
        if let Ok(snap) = Snapshot::from_bytes(&bytes) {
            let stats = LoadStats { skipped, bytes: bytes.len() as u64, load: start.elapsed() };
            return Ok((snap, stats));
        }
    }
    Err(DurableError::NoValidSnapshot { tried })
}

/// Deletes all snapshots except the newest `keep` (by LSN). Returns how
/// many were removed.
pub(crate) fn prune(store_dir: &Path, keep: usize) -> Result<usize, DurableError> {
    let paths = snapshot_paths(store_dir)?;
    let mut removed = 0;
    if paths.len() > keep {
        for (_, path) in &paths[..paths.len() - keep] {
            std::fs::remove_file(path)?;
            removed += 1;
        }
        File::open(snap_dir(store_dir))?.sync_all()?;
    }
    Ok(removed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use geograph::{GraphBuilder, LocalityConfig};
    use geopart::{HybridState, TrafficProfile};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rlcut_snap_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample() -> Snapshot {
        let mut b = GraphBuilder::new(24);
        for i in 0..23u32 {
            b.add_edges([(i, i + 1), (i, (i * 5 + 2) % 24)]);
        }
        let geo = GeoGraph::from_graph(b.build(), &LocalityConfig::uniform(8, 13));
        let env = geosim::regions::ec2_eight_regions();
        let profile = TrafficProfile::uniform(geo.num_vertices(), 8.0);
        let hybrid =
            HybridState::try_from_masters(&geo, &env, geo.locations.clone(), 3, profile, 10.0)
                .unwrap();
        let (state, theta) = hybrid.into_parts();
        Snapshot {
            lsn: 17,
            window: 4,
            env_fp: crate::error::env_fingerprint(&env),
            geo,
            placement: Some((state, theta)),
            trainer: Some(vec![1, 2, 3, 4, 5]),
        }
    }

    fn bytes_of(snap: &Snapshot) -> Vec<u8> {
        snap.as_ref().to_bytes().unwrap()
    }

    #[test]
    fn round_trips_bit_exactly() {
        let snap = sample();
        let restored = Snapshot::from_bytes(&bytes_of(&snap)).unwrap();
        assert_eq!(restored.lsn, snap.lsn);
        assert_eq!(restored.window, snap.window);
        assert_eq!(restored.env_fp, snap.env_fp);
        assert_eq!(restored.geo.locations, snap.geo.locations);
        assert_eq!(restored.trainer, snap.trainer);
        let (a, ta) = snap.placement.as_ref().unwrap();
        let (b, tb) = restored.placement.as_ref().unwrap();
        assert_eq!(ta, tb);
        assert_eq!(a.masters(), b.masters());
        assert_eq!(a.movement_cost().to_bits(), b.movement_cost().to_bits());
        // A byte fixed point — which pins the graph and every plane too.
        assert_eq!(bytes_of(&restored), bytes_of(&snap));
    }

    #[test]
    fn genesis_round_trips() {
        let mut snap = sample();
        snap.placement = None;
        snap.trainer = None;
        snap.lsn = 0;
        snap.window = 0;
        let restored = Snapshot::from_bytes(&bytes_of(&snap)).unwrap();
        assert!(restored.placement.is_none());
        assert_eq!(restored.window, 0);
    }

    #[test]
    fn every_truncation_and_bit_flip_is_rejected() {
        let bytes = bytes_of(&sample());
        for len in 0..bytes.len() {
            assert!(Snapshot::from_bytes(&bytes[..len]).is_err(), "len {len} decoded");
        }
        for i in (0..bytes.len()).step_by(7) {
            let mut bad = bytes.clone();
            bad[i] ^= 0x10;
            assert!(Snapshot::from_bytes(&bad).is_err(), "flip at {i} decoded");
        }
    }

    #[test]
    fn load_latest_skips_corrupt_and_falls_back() {
        let dir = tmp_dir("fallback");
        let mut old = sample();
        old.lsn = 5;
        let (_, old_size) = write(&dir, old.as_ref()).unwrap();
        let mut newer = sample();
        newer.lsn = 11;
        let (path, _) = write(&dir, newer.as_ref()).unwrap();
        // Corrupt the newest file; recovery must fall back to lsn 5.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let (snap, stats) = load_latest(&dir).unwrap();
        assert_eq!(snap.lsn, 5);
        assert_eq!((stats.skipped, stats.bytes), (1, old_size));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_dir_is_no_valid_snapshot() {
        let dir = tmp_dir("empty");
        assert!(matches!(load_latest(&dir), Err(DurableError::NoValidSnapshot { tried: 0 })));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn prune_keeps_newest() {
        let dir = tmp_dir("prune");
        for lsn in [3, 9, 20] {
            let mut s = sample();
            s.lsn = lsn;
            write(&dir, s.as_ref()).unwrap();
        }
        assert_eq!(prune(&dir, 1).unwrap(), 2);
        let (snap, _) = load_latest(&dir).unwrap();
        assert_eq!(snap.lsn, 20);
        std::fs::remove_dir_all(&dir).ok();
    }
}
