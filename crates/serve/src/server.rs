//! The placement server: boots a routing table from a durable store or a
//! live trainer, publishes every committed plan, and evacuates dead DCs.
//!
//! A [`PlacementServer`] is the writer side of the serving daemon; the
//! read side is any number of [`PlanReader`]s handed out by
//! [`PlacementServer::reader`]. Three ways a table gets published:
//!
//! * **Boot** — [`PlacementServer::boot_from_store`] recovers the last
//!   committed placement from a [`geodur::DurableStore`] (snapshot + WAL
//!   replay, bit-exact) and serves it immediately, *without retraining*.
//!   A restarted server answers with the same masters the dead one did.
//! * **Live re-partitioning** — [`PlacementServer::attach`] installs a
//!   commit hook on a [`DurableAdaptive`] trainer: each committed window
//!   flips a fresh table in. The hook runs after the commit fsync, so a
//!   published plan is always a durable plan.
//! * **Evacuation** — [`PlacementServer::evacuate`] re-routes every
//!   vertex off the DCs a fault killed (same reseed rule as the
//!   trainer's fault window) and flips the evacuated table in. Readers
//!   observe the pre-fault table or the post-evacuation table, never an
//!   in-between state.

use std::path::Path;
use std::sync::Arc;

use geodur::{DurableError, DurableStore, RecoveryReport};
use geograph::DcId;
use geopart::PlanError;
use geosim::CloudEnv;
use rlcut::DurableAdaptive;

use crate::board::{PlanBoard, PlanReader};
use crate::table::RoutingTable;

/// Why the serving layer refused to boot or evacuate.
#[derive(Debug)]
pub enum ServeError {
    /// The durable store could not be recovered (including the typed
    /// [`DurableError::EnvMismatch`] when the wrong environment is
    /// offered).
    Durable(DurableError),
    /// An evacuation's fault report was refused
    /// ([`geopart::check_fault_report`]): its flags do not cover the
    /// served plan's DCs, or they leave no live DC to route to.
    Plan(PlanError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Durable(e) => write!(f, "serving boot failed: {e}"),
            ServeError::Plan(e) => write!(f, "evacuation refused: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Durable(e) => Some(e),
            ServeError::Plan(e) => Some(e),
        }
    }
}

impl From<DurableError> for ServeError {
    fn from(e: DurableError) -> Self {
        ServeError::Durable(e)
    }
}

impl From<PlanError> for ServeError {
    fn from(e: PlanError) -> Self {
        ServeError::Plan(e)
    }
}

/// What a boot found in the durable store.
#[derive(Clone, Copy, Debug)]
pub struct BootReport {
    /// Committed windows the served table reflects.
    pub window: u64,
    /// Windows replayed from the WAL on top of the snapshot.
    pub replayed_windows: u64,
    /// An uncommitted window tail was found and ignored (the serving
    /// layer only ever publishes committed plans).
    pub rolled_back: bool,
    /// FNV-1a of the served master vector — comparable across restarts
    /// and against the trainer's commit records.
    pub masters_fnv: u64,
    /// What the store scan found: snapshot size and load time, skipped
    /// candidates, torn WAL tail.
    pub recovery: RecoveryReport,
}

/// The writer half of the serving daemon. Cheap to share: readers hold
/// the board, not the server.
pub struct PlacementServer {
    board: Arc<PlanBoard>,
    /// Vertex home locations, the evacuation reseed target.
    homes: Vec<DcId>,
    num_dcs: usize,
}

impl PlacementServer {
    /// Serves `table` directly (publication epoch 1). `homes` are the
    /// vertex home locations evacuations re-route to.
    pub fn new(table: RoutingTable, homes: Vec<DcId>) -> PlacementServer {
        let num_dcs = table.num_dcs();
        PlacementServer { board: PlanBoard::new(table), homes, num_dcs }
    }

    /// Boots from the durable store at `dir`: latest snapshot + WAL
    /// replay, then serves the recovered placement as epoch 1. No
    /// training happens — a restart serves exactly the masters the
    /// previous process committed. `env` must fingerprint-match the
    /// store ([`DurableError::EnvMismatch`] otherwise).
    pub fn boot_from_store(
        dir: &Path,
        env: &CloudEnv,
    ) -> Result<(PlacementServer, BootReport), ServeError> {
        let (recovered, recovery, _store) = DurableStore::recover(dir, env)?;
        let window = recovered.next_window;
        let table = match &recovered.parts {
            Some((core, _theta)) => RoutingTable::from_placement(window, core),
            // Nothing ever committed: serve the home placement.
            None => RoutingTable::from_homes(window, &recovered.geo.locations, env.num_dcs()),
        };
        let report = BootReport {
            window,
            replayed_windows: recovered.replayed_windows,
            rolled_back: recovered.rolled_back,
            masters_fnv: geodur::masters_fnv(table.masters()),
            recovery,
        };
        let server = PlacementServer::new(table, recovered.geo.locations);
        Ok((server, report))
    }

    /// Installs this server as `trainer`'s plan sink: every committed
    /// window is snapshotted into a routing table and flipped in. The
    /// hook only publishes: the home locations stay the ones given to
    /// [`Self::new`] or recovered by [`Self::boot_from_store`], so a
    /// vertex the trainer adds later has none, and [`Self::evacuate`]
    /// sends it to the first live DC if its master is stranded.
    pub fn attach(&self, trainer: &mut DurableAdaptive) {
        let board = Arc::clone(&self.board);
        trainer.set_commit_hook(Box::new(move |window, core| {
            board.publish(RoutingTable::from_placement(window + 1, core));
        }));
    }

    /// Re-routes every vertex off the DCs flagged `dead` and publishes
    /// the evacuated table; returns its publication epoch. Uses the same
    /// reseed rule as the trainer's dead-DC re-seed, so the next trained
    /// plan continues from what is being served. A stranded vertex
    /// beyond the home locations fixed at [`Self::new`] or
    /// [`Self::boot_from_store`] goes to the first live DC. Readers
    /// racing this call see the pre-fault or the post-evacuation table,
    /// whole. A refused fault report publishes nothing.
    pub fn evacuate(&mut self, dead: &[bool]) -> Result<u64, ServeError> {
        // Served vertices beyond the recorded homes (graph growth since
        // new / boot) fall back to the first live DC.
        let fallback = geopart::check_fault_report(dead, self.num_dcs)?;
        // A fresh reader holds the current table.
        let mut reader = self.board.reader();
        let evacuated = {
            let current = reader.pin();
            let mut homes = self.homes.clone();
            homes.resize(current.num_vertices(), fallback);
            current.evacuated(dead, &homes)
        };
        drop(reader);
        Ok(self.board.publish(evacuated))
    }

    /// Registers a reader against the served plan.
    pub fn reader(&self) -> PlanReader {
        self.board.reader()
    }

    /// The shared publication board (bench harnesses hand this to
    /// reader threads directly).
    pub fn board(&self) -> Arc<PlanBoard> {
        Arc::clone(&self.board)
    }

    /// Epoch of the most recently published table.
    pub fn published_epoch(&self) -> u64 {
        self.board.published_epoch()
    }
}

impl std::fmt::Debug for PlacementServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlacementServer")
            .field("num_dcs", &self.num_dcs)
            .field("board", &self.board)
            .finish_non_exhaustive()
    }
}
