//! The durable-store facade: one directory holding a WAL and snapshots,
//! with the fsync discipline of the window-transaction protocol baked in.
//!
//! ```text
//! <dir>/wal/seg-*.wal     append-only record log
//! <dir>/snap/snap-*.snap  compact pipeline snapshots
//! ```
//!
//! Per window the driver calls [`DurableStore::log_window_start`]
//! (append **and sync** — the window's inputs must be durable before any
//! training work they gate), then [`DurableStore::log_batch`] per
//! training step (append only), then [`DurableStore::log_commit`]
//! (append and sync — one group commit makes the batches and the seal
//! durable together). Periodically [`DurableStore::write_snapshot`] cuts
//! a snapshot at the committed boundary, rolls the log to a fresh segment
//! and deletes the segments no retained snapshot needs.

use std::path::{Path, PathBuf};
use std::time::Duration;

use geograph::GeoGraph;
use geosim::CloudEnv;

use crate::error::{env_fingerprint, DurableError};
use crate::records::{Batch, Commit, Record, WindowStart};
use crate::replay::{replay, RecoveredPipeline};
use crate::snapshot::{self, Snapshot, SnapshotRef};
use crate::wal::{Wal, WalReport};

/// How many snapshots [`DurableStore::write_snapshot`] retains. Two, so
/// a snapshot torn by a crash mid-write always leaves a decodable
/// predecessor (plus the log suffix back to it).
pub(crate) const SNAPSHOTS_KEPT: usize = 2;

/// What [`DurableStore::recover`] found on disk.
#[derive(Clone, Copy, Debug, Default)]
pub struct RecoveryReport {
    pub wal: WalReport,
    /// Corrupt snapshot candidates skipped before one decoded.
    pub snapshots_skipped: usize,
    /// Size of the snapshot recovery started from.
    pub snapshot_bytes: u64,
    /// Time to read, checksum and decode that snapshot.
    pub snapshot_load: Duration,
    /// `*.tmp` files — snapshots or WAL segments a crash cut off between
    /// create and rename — deleted before the scan.
    pub tmp_swept: usize,
}

/// Deletes every `*.tmp` under the store's `wal/` and `snap/`. Nothing
/// reads those names (the writers rename them into place), so one a crash
/// orphaned would otherwise hold disk forever.
fn sweep_tmp(dir: &Path) -> Result<usize, DurableError> {
    let mut swept = 0;
    for sub in ["wal", "snap"].map(|s| dir.join(s)) {
        if !sub.is_dir() {
            continue;
        }
        let before = swept;
        for entry in std::fs::read_dir(&sub)? {
            let entry = entry?;
            if entry.file_name().to_string_lossy().ends_with(".tmp") {
                std::fs::remove_file(entry.path())?;
                swept += 1;
            }
        }
        if swept > before {
            std::fs::File::open(&sub)?.sync_all()?;
        }
    }
    Ok(swept)
}

/// An open durable directory: the appender half plus snapshot plumbing.
#[derive(Debug)]
pub struct DurableStore {
    dir: PathBuf,
    wal: Wal,
}

impl DurableStore {
    /// Initializes `dir` as a durable store for a pipeline starting from
    /// `geo` under `env`: fresh WAL plus a genesis snapshot (window 0, no
    /// placement) stamped with the environment fingerprint, so recovery
    /// always finds *some* valid snapshot and an empty snapshot directory
    /// is unambiguously an error.
    pub fn create(
        dir: &Path,
        geo: &GeoGraph,
        env: &CloudEnv,
    ) -> Result<DurableStore, DurableError> {
        std::fs::create_dir_all(dir)?;
        let wal = Wal::create(dir)?;
        let genesis = SnapshotRef {
            lsn: 0,
            window: 0,
            env_fp: env_fingerprint(env),
            geo,
            placement: None,
            trainer: None,
        };
        snapshot::write(dir, genesis)?;
        Ok(DurableStore { dir: dir.to_path_buf(), wal })
    }

    /// Recovers the pipeline state from `dir` (latest valid snapshot +
    /// WAL replay) and returns the store positioned for new appends.
    /// `env` must fingerprint-match the environment the store was written
    /// under ([`DurableError::EnvMismatch`] otherwise).
    pub fn recover(
        dir: &Path,
        env: &CloudEnv,
    ) -> Result<(RecoveredPipeline, RecoveryReport, DurableStore), DurableError> {
        let tmp_swept = sweep_tmp(dir)?;
        let (snap, loaded) = snapshot::load_latest(dir)?;
        let (records, wal_report, wal) = Wal::open(dir)?;
        let recovered = replay(snap, &records, env)?;
        let report = RecoveryReport {
            wal: wal_report,
            snapshots_skipped: loaded.skipped,
            snapshot_bytes: loaded.bytes,
            snapshot_load: loaded.load,
            tmp_swept,
        };
        Ok((recovered, report, DurableStore { dir: dir.to_path_buf(), wal }))
    }

    /// Appends and **syncs** a window-start record. Returns its LSN.
    pub fn log_window_start(&mut self, ws: &WindowStart) -> Result<u64, DurableError> {
        let rec = Record::WindowStart(ws.clone());
        let lsn = self.wal.append(rec.kind(), &rec.to_payload())?;
        self.wal.sync()?;
        Ok(lsn)
    }

    /// Appends a migration batch (no sync — covered by the commit's).
    pub fn log_batch(&mut self, batch: &Batch) -> Result<u64, DurableError> {
        let rec = Record::Batch(batch.clone());
        self.wal.append(rec.kind(), &rec.to_payload())
    }

    /// Appends and syncs a commit record: the group commit that makes the
    /// window's batches and seal durable together.
    pub fn log_commit(&mut self, commit: &Commit) -> Result<u64, DurableError> {
        let rec = Record::Commit(*commit);
        let lsn = self.wal.append(rec.kind(), &rec.to_payload())?;
        self.wal.sync()?;
        Ok(lsn)
    }

    /// [`Self::write_snapshot_ref`] for an owned [`Snapshot`].
    pub fn write_snapshot(&mut self, snap: &Snapshot) -> Result<u64, DurableError> {
        self.write_snapshot_ref(snap.as_ref())
    }

    /// Streams a snapshot of the borrowed state at the current committed
    /// boundary, rolls the WAL so the snapshot's LSN opens a segment,
    /// prunes older snapshots (keeping `SNAPSHOTS_KEPT`) and WAL segments
    /// wholly behind the *retained* snapshots. Returns the snapshot's size.
    pub fn write_snapshot_ref(&mut self, snap: SnapshotRef<'_>) -> Result<u64, DurableError> {
        let (_, bytes) = snapshot::write(&self.dir, snap)?;
        // A crash before the roll leaves a segment straddling the snapshot:
        // replay starts at its LSN either way, and a later prune drops it.
        self.wal.roll()?;
        snapshot::prune(&self.dir, SNAPSHOTS_KEPT)?;
        // The oldest retained snapshot bounds how far back replay may
        // need to reach.
        if let Some(&(oldest_lsn, _)) = snapshot::snapshot_paths(&self.dir)?.first() {
            self.wal.prune_below(&self.dir, oldest_lsn)?;
        }
        Ok(bytes)
    }

    /// LSN the next appended record will get.
    pub fn next_lsn(&self) -> u64 {
        self.wal.next_lsn()
    }

    /// Record bytes appended through this handle (framing included).
    pub fn appended_bytes(&self) -> u64 {
        self.wal.appended_bytes()
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::masters_fnv;
    use geograph::dynamic::{EdgeEvent, EventKind};
    use geograph::{GraphBuilder, GraphDelta, LocalityConfig};
    use geopart::{HybridState, MoveScratch, TrafficProfile};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rlcut_store_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn build_geo(n: usize) -> GeoGraph {
        let mut b = GraphBuilder::new(n);
        for i in 0..n as u32 - 1 {
            b.add_edges([(i, i + 1), (i, (i * 7 + 3) % n as u32)]);
        }
        GeoGraph::from_graph(b.build(), &LocalityConfig::uniform(8, 17))
    }

    fn assert_parts_bit_identical(
        a: &(geopart::PlacementState, usize),
        b: &(geopart::PlacementState, usize),
    ) {
        assert_eq!(a.1, b.1, "theta");
        assert_eq!(a.0.masters(), b.0.masters());
        assert_eq!(a.0.movement_cost().to_bits(), b.0.movement_cost().to_bits());
        assert_eq!(a.0.gather_loads(), b.0.gather_loads());
        assert_eq!(a.0.apply_loads(), b.0.apply_loads());
        assert_eq!(a.0.moved_bytes(), b.0.moved_bytes());
    }

    /// Drives two "live" windows by hand — a genesis rebuild and an
    /// incremental delta window, each with real `apply_move_with` calls —
    /// logging exactly what the trainer hooks log, then recovers and
    /// demands bit-identical placement state.
    #[test]
    fn two_window_log_recovers_bit_exactly() {
        let dir = tmp_dir("two_window");
        let env = geosim::regions::ec2_eight_regions();
        let geo0 = build_geo(40);
        let n0 = geo0.num_vertices();
        let mut store = DurableStore::create(&dir, &geo0, &env).unwrap();
        let mut scratch = MoveScratch::new();

        // Window 0: rebuild from home locations, three accepted moves.
        let profile0 = TrafficProfile::uniform(n0, 8.0);
        store
            .log_window_start(&WindowStart {
                window: 0,
                delta: None,
                loc_suffix: Vec::new(),
                size_suffix: Vec::new(),
                gather_suffix: profile0.gather_bytes.clone(),
                apply_suffix: profile0.apply_bytes.clone(),
                num_iterations: 10.0,
                dead: None,
                env_fp: env_fingerprint(&env),
            })
            .unwrap();
        let theta0 = 4usize;
        let mut live = HybridState::from_masters(
            &geo0,
            &env,
            geo0.locations.clone(),
            theta0,
            profile0.clone(),
            10.0,
        );
        let moves0 = vec![(3u32, 5u8), (17, 0), (3, 2)];
        for &(v, d) in &moves0 {
            live.apply_move_with(&env, v, d, &mut scratch);
        }
        store.log_batch(&Batch { window: 0, step: 0, moves: moves0 }).unwrap();
        store
            .log_commit(&Commit {
                window: 0,
                theta: theta0 as u64,
                movement_cost_bits: live.core().movement_cost().to_bits(),
                masters_fnv: masters_fnv(live.core().masters()),
            })
            .unwrap();
        let parts0 = live.into_parts();

        // Window 1: delta adds two vertices and some edges; incremental.
        let events = vec![
            EdgeEvent { src: 2, dst: 41, timestamp_ms: 0, kind: EventKind::Insert },
            EdgeEvent { src: 41, dst: 7, timestamp_ms: 1, kind: EventKind::Insert },
            EdgeEvent { src: 0, dst: 1, timestamp_ms: 2, kind: EventKind::Delete },
            EdgeEvent { src: 40, dst: 3, timestamp_ms: 3, kind: EventKind::Insert },
        ];
        let delta = GraphDelta::from_events(&geo0.graph, &events);
        let graph1 = geo0.graph.apply_delta(&delta);
        let n1 = graph1.num_vertices();
        let mut locations = geo0.locations.clone();
        let mut sizes = geo0.data_sizes.clone();
        let loc_suffix: Vec<u8> = vec![1, 6];
        let size_suffix: Vec<u64> = vec![64, 96];
        locations.extend_from_slice(&loc_suffix);
        sizes.extend_from_slice(&size_suffix);
        let geo1 = GeoGraph::new(graph1, locations, sizes, geo0.num_dcs);
        let mut profile1 = profile0.clone();
        profile1.gather_bytes.extend_from_slice(&[3.0, 5.0]);
        profile1.apply_bytes.extend_from_slice(&[1.0, 2.0]);

        store
            .log_window_start(&WindowStart {
                window: 1,
                delta: Some(delta.clone()),
                loc_suffix,
                size_suffix,
                gather_suffix: vec![3.0, 5.0],
                apply_suffix: vec![1.0, 2.0],
                num_iterations: 10.0,
                dead: None,
                env_fp: env_fingerprint(&env),
            })
            .unwrap();
        let (core0, th0) = parts0;
        let (mut live, _) =
            HybridState::resume_from_parts(core0, th0, &geo1, &env, &delta, &profile1).unwrap();
        let moves1 = vec![(41u32, 2u8), (5, 3), (41, 4), (2, 2)];
        for &(v, d) in &moves1 {
            live.apply_move_with(&env, v, d, &mut scratch);
        }
        store.log_batch(&Batch { window: 1, step: 0, moves: moves1[..2].to_vec() }).unwrap();
        store
            .log_batch(&Batch {
                window: 1,
                step: Batch::RECONCILE_STEP,
                moves: moves1[2..].to_vec(),
            })
            .unwrap();
        store
            .log_commit(&Commit {
                window: 1,
                theta: th0 as u64,
                movement_cost_bits: live.core().movement_cost().to_bits(),
                masters_fnv: masters_fnv(live.core().masters()),
            })
            .unwrap();
        let live_parts = live.into_parts();
        drop(store);

        let (recovered, report, _store) = DurableStore::recover(&dir, &env).unwrap();
        assert_eq!(report.wal.torn_tail_bytes, 0);
        assert_eq!(recovered.next_window, 2);
        assert_eq!(recovered.replayed_windows, 2);
        assert!(!recovered.rolled_back);
        assert_eq!(recovered.geo.num_vertices(), n1);
        assert_parts_bit_identical(recovered.parts.as_ref().unwrap(), &live_parts);

        // And the recovered plan is internally consistent.
        let (core, theta) = recovered.parts.unwrap();
        HybridState::from_parts(core, theta, &recovered.geo).validate_plan(&env).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn uncommitted_window_rolls_back() {
        let dir = tmp_dir("rollback");
        let env = geosim::regions::ec2_eight_regions();
        let geo = build_geo(24);
        let mut store = DurableStore::create(&dir, &geo, &env).unwrap();
        store
            .log_window_start(&WindowStart {
                window: 0,
                delta: None,
                loc_suffix: Vec::new(),
                size_suffix: Vec::new(),
                gather_suffix: vec![8.0; 24],
                apply_suffix: vec![8.0; 24],
                num_iterations: 5.0,
                dead: None,
                env_fp: env_fingerprint(&env),
            })
            .unwrap();
        store.log_batch(&Batch { window: 0, step: 0, moves: vec![(1, 2)] }).unwrap();
        // Crash before commit.
        drop(store);
        let (recovered, _, store) = DurableStore::recover(&dir, &env).unwrap();
        assert!(recovered.rolled_back);
        assert_eq!(recovered.dropped_records, 2);
        assert_eq!(recovered.next_window, 0);
        assert!(recovered.parts.is_none());
        // The store is positioned past the dead records; the driver
        // re-feeds window 0 and the log stays well-formed.
        assert!(store.next_lsn() >= 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_bounds_replay_and_prunes_log() {
        let dir = tmp_dir("snapshot");
        let env = geosim::regions::ec2_eight_regions();
        let geo = build_geo(32);
        let mut store = DurableStore::create(&dir, &geo, &env).unwrap();
        let profile = TrafficProfile::uniform(32, 8.0);
        store
            .log_window_start(&WindowStart {
                window: 0,
                delta: None,
                loc_suffix: Vec::new(),
                size_suffix: Vec::new(),
                gather_suffix: profile.gather_bytes.clone(),
                apply_suffix: profile.apply_bytes.clone(),
                num_iterations: 10.0,
                dead: None,
                env_fp: env_fingerprint(&env),
            })
            .unwrap();
        let mut scratch = MoveScratch::new();
        let mut live =
            HybridState::from_masters(&geo, &env, geo.locations.clone(), 3, profile.clone(), 10.0);
        live.apply_move_with(&env, 9, 1, &mut scratch);
        store.log_batch(&Batch { window: 0, step: 0, moves: vec![(9, 1)] }).unwrap();
        store
            .log_commit(&Commit {
                window: 0,
                theta: 3,
                movement_cost_bits: live.core().movement_cost().to_bits(),
                masters_fnv: masters_fnv(live.core().masters()),
            })
            .unwrap();
        let (core, theta) = live.into_parts();
        let snap = Snapshot {
            lsn: store.next_lsn(),
            window: 1,
            env_fp: env_fingerprint(&env),
            geo: geo.clone(),
            placement: Some((core, theta)),
            // DC 2 is dead at the snapshot's boundary.
            trainer: Some(vec![0, 0, 1, 0, 0, 0, 0, 0]),
        };
        store.write_snapshot(&snap).unwrap();
        drop(store);

        let (recovered, _, _) = DurableStore::recover(&dir, &env).unwrap();
        // Nothing to replay: the snapshot already covers the whole log.
        assert_eq!(recovered.replayed_windows, 0);
        assert_eq!(recovered.next_window, 1);
        let dead: Vec<bool> = (0..8).map(|d| d == 2).collect();
        assert_eq!(recovered.dead, Some(dead));
        assert!(recovered.parts.is_some());
        // A slot that is not one 0/1 byte per DC, one of them live, is typed.
        let bytes = snap.as_ref().to_bytes().unwrap();
        for slot in [vec![9; 8], vec![1; 8], vec![0; 3]] {
            let mut bad = Snapshot::from_bytes(&bytes).unwrap();
            bad.trainer = Some(slot);
            assert!(matches!(replay(bad, &[], &env), Err(DurableError::Wire(_))));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The log rolls at every snapshot, so the prune behind the older
    /// retained snapshot deletes whole segments: after the third snapshot
    /// no segment on disk holds only records replay can no longer reach.
    #[test]
    fn snapshots_roll_the_log_so_the_prune_frees_it() {
        let dir = tmp_dir("roll");
        let env = geosim::regions::ec2_eight_regions();
        let geo = build_geo(16);
        let mut store = DurableStore::create(&dir, &geo, &env).unwrap();
        for window in 0..3 {
            for step in 0..4 {
                store.log_batch(&Batch { window, step, moves: vec![(1, 2)] }).unwrap();
            }
            let lsn = store.next_lsn();
            let env_fp = env_fingerprint(&env);
            let snap =
                SnapshotRef { lsn, window, env_fp, geo: &geo, placement: None, trainer: None };
            store.write_snapshot_ref(snap).unwrap();
        }
        let oldest = snapshot::snapshot_paths(&dir).unwrap()[0].0;
        assert_eq!(oldest, 8, "genesis and the first snapshot are pruned");
        let (records, _) = crate::wal::load(&dir).unwrap();
        for (seq, _) in crate::wal::segment_paths(&dir).unwrap() {
            let last = records.iter().filter(|r| r.segment == seq).map(|r| r.lsn).max();
            assert!(last.is_none_or(|lsn| lsn >= oldest), "segment {seq} ends at {last:?}");
        }
        // What is left is the log from the older retained snapshot on.
        assert_eq!(records.first().map(|r| r.lsn), Some(oldest));
        assert_eq!(records.len(), 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A crash between `File::create(tmp)` and `rename` orphans a
    /// `*.tmp`; recovery deletes them — whole or truncated, snapshot or
    /// segment — and never reads one as a candidate.
    #[test]
    fn orphaned_tmp_files_are_swept_not_loaded() {
        let dir = tmp_dir("tmp_sweep");
        let env = geosim::regions::ec2_eight_regions();
        let geo = build_geo(24);
        drop(DurableStore::create(&dir, &geo, &env).unwrap());
        let genesis = snapshot::snapshot_paths(&dir).unwrap().remove(0).1;
        let bytes = std::fs::read(&genesis).unwrap();
        // A complete snapshot under a tmp name with a *newer* LSN: were it
        // a candidate, recovery would start from it (and find no log).
        let whole = dir.join("snap/snap-00000000000000000007.snap.tmp");
        let torn = dir.join("snap/snap-00000000000000000009.snap.tmp");
        let segment = dir.join("wal/seg-00000001.tmp");
        std::fs::write(&whole, &bytes).unwrap();
        std::fs::write(&torn, &bytes[..bytes.len() / 2]).unwrap();
        std::fs::write(&segment, b"RLWL").unwrap();

        let (recovered, report, store) = DurableStore::recover(&dir, &env).unwrap();
        assert_eq!(report.tmp_swept, 3);
        assert_eq!(report.snapshots_skipped, 0);
        assert_eq!(report.snapshot_bytes, bytes.len() as u64);
        assert_eq!(recovered.next_window, 0);
        for planted in [&whole, &torn, &segment] {
            assert!(!planted.exists(), "{} survived recovery", planted.display());
        }
        // Nothing left to sweep the second time.
        drop(store);
        assert_eq!(DurableStore::recover(&dir, &env).unwrap().1.tmp_swept, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Recovering a store against a different environment must be the
    /// typed [`DurableError::EnvMismatch`], not a silently re-priced
    /// replay — caught at the genesis snapshot and, when the snapshot is
    /// somehow current, at the first window-start record.
    #[test]
    fn recovering_with_a_different_env_is_a_typed_error() {
        let dir = tmp_dir("env_mismatch");
        let env = geosim::regions::ec2_eight_regions();
        let geo = build_geo(24);
        let mut store = DurableStore::create(&dir, &geo, &env).unwrap();
        let profile = TrafficProfile::uniform(24, 8.0);
        store
            .log_window_start(&WindowStart {
                window: 0,
                delta: None,
                loc_suffix: Vec::new(),
                size_suffix: Vec::new(),
                gather_suffix: profile.gather_bytes.clone(),
                apply_suffix: profile.apply_bytes.clone(),
                num_iterations: 5.0,
                dead: None,
                env_fp: env_fingerprint(&env),
            })
            .unwrap();
        let mut live =
            HybridState::from_masters(&geo, &env, geo.locations.clone(), 3, profile, 5.0);
        let mut scratch = MoveScratch::new();
        live.apply_move_with(&env, 4, 2, &mut scratch);
        store.log_batch(&Batch { window: 0, step: 0, moves: vec![(4, 2)] }).unwrap();
        store
            .log_commit(&Commit {
                window: 0,
                theta: 3,
                movement_cost_bits: live.core().movement_cost().to_bits(),
                masters_fnv: masters_fnv(live.core().masters()),
            })
            .unwrap();
        drop(store);

        // Same DC count, different bandwidths/prices: the DC-count checks
        // alone would let this through, the fingerprint must not.
        let other = CloudEnv::new(
            env.dcs()
                .iter()
                .map(|dc| geosim::Datacenter {
                    name: dc.name.clone(),
                    uplink_bps: dc.uplink_bps * 2.0,
                    downlink_bps: dc.downlink_bps,
                    upload_price_per_byte: dc.upload_price_per_byte,
                })
                .collect(),
        );
        match DurableStore::recover(&dir, &other) {
            Err(DurableError::EnvMismatch { stored, offered, at: "snapshot" }) => {
                assert_eq!(stored, env_fingerprint(&env));
                assert_eq!(offered, env_fingerprint(&other));
            }
            other => panic!("expected EnvMismatch at the snapshot, got {other:?}"),
        }
        // The right environment still recovers cleanly.
        let (recovered, _, _) = DurableStore::recover(&dir, &env).unwrap();
        assert_eq!(recovered.replayed_windows, 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
