//! Versioned, checksummed trainer checkpoints.
//!
//! A checkpoint captures the trainer's *logical* state — the LA probability
//! vectors and UCB statistics, the master placement, the migration RNG
//! state, and the best-plan tracker — so training resumes exactly where it
//! stopped instead of restarting. Wall-clock-derived state (the Eq 14
//! sampling scheduler's per-step timings) is deliberately excluded: it is
//! not reproducible across runs, and including it would break the
//! "same seed ⇒ byte-identical checkpoint" guarantee. A restored session
//! restarts its overhead measurements, which only affects time-budgeted
//! (`t_opt`) schedules.
//!
//! ## Binary layout (version 1, all integers little-endian)
//!
//! ```text
//! magic    4 B   "RLCP"
//! version  u32   1
//! seed     u64   config seed the run was started with
//! step     u32   next training step index
//! theta    u64   hybrid-cut degree threshold
//! n        u64   number of vertices / agents
//! m        u32   number of DCs / actions
//! masters  n × u8
//! probs    n·m × f32     LA action probabilities (Eq 12)
//! plays    n·m × u32     UCB per-action play counts
//! mean_rw  n·m × f32     UCB mean realized rewards
//! total    n × u32       UCB per-agent total plays
//! rng      4 × u64       xoshiro256++ state of the migration RNG
//! mv_cost  f64           incrementally tracked Eq 4 movement cost
//! best     n × u8        best masters seen
//! best_obj 3 × f64       best objective (time, movement, runtime)
//! converged u8
//! checksum u64           FNV-1a over everything above
//! ```

use geograph::DcId;
use geopart::Objective;

/// Magic bytes identifying a checkpoint file.
pub const MAGIC: [u8; 4] = *b"RLCP";
/// Current format version.
pub const VERSION: u32 = 1;

/// Why a checkpoint could not be taken or loaded.
#[derive(Debug)]
pub enum CheckpointError {
    /// The session is sharded: its automata live on the shards, outside
    /// the checkpoint format (checkpoint/resume is single-process-only).
    ShardedSession,
    /// The blob does not start with the `RLCP` magic.
    BadMagic,
    /// The format version is not supported.
    UnsupportedVersion(u32),
    /// The trailing FNV-1a checksum does not match the payload.
    ChecksumMismatch { stored: u64, computed: u64 },
    /// The blob ended before the declared arrays did.
    Truncated,
    /// Underlying I/O failure.
    Io(std::io::Error),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::ShardedSession => {
                write!(f, "a sharded session cannot be checkpointed")
            }
            CheckpointError::BadMagic => write!(f, "not a trainer checkpoint (bad magic)"),
            CheckpointError::UnsupportedVersion(v) => {
                write!(f, "unsupported checkpoint version {v} (expected {VERSION})")
            }
            CheckpointError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checkpoint corrupted: stored checksum {stored:#x} vs computed {computed:#x}"
            ),
            CheckpointError::Truncated => write!(f, "checkpoint truncated"),
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// The trainer's persisted logical state.
#[derive(Clone, Debug, PartialEq)]
pub struct TrainerCheckpoint {
    /// Config seed the run was started with (sanity-checked on resume).
    pub seed: u64,
    /// Next training step index.
    pub step: u32,
    /// Hybrid-cut degree threshold θ.
    pub theta: u64,
    /// Number of DCs / actions.
    pub num_dcs: u32,
    /// Current master placement.
    pub masters: Vec<DcId>,
    /// LA action probabilities, `n × m` row-major.
    pub probs: Vec<f32>,
    /// UCB per-action play counts.
    pub plays: Vec<u32>,
    /// UCB mean realized rewards.
    pub mean_reward: Vec<f32>,
    /// UCB per-agent total plays.
    pub total_plays: Vec<u32>,
    /// Migration RNG (xoshiro256++) state.
    pub rng_state: [u64; 4],
    /// Incrementally tracked Eq 4 movement cost of `masters`.
    pub movement_cost: f64,
    /// Best masters seen so far.
    pub best_masters: Vec<DcId>,
    /// Objective of the best plan, as tracked at save time.
    pub best_objective: Objective,
    /// Whether training had already converged.
    pub converged: bool,
}

/// FNV-1a 64-bit over a byte slice — dependency-free integrity check.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        // Checked: a crafted length field must surface as a typed error,
        // never an arithmetic panic.
        let end = self.pos.checked_add(n).ok_or(CheckpointError::Truncated)?;
        if end > self.buf.len() {
            return Err(CheckpointError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn u32s(&mut self, n: usize) -> Result<Vec<u32>, CheckpointError> {
        self.take(n.checked_mul(4).ok_or(CheckpointError::Truncated)?)?
            .chunks_exact(4)
            .map(|c| Ok(u32::from_le_bytes(c.try_into().unwrap())))
            .collect()
    }

    fn f32s(&mut self, n: usize) -> Result<Vec<f32>, CheckpointError> {
        self.take(n.checked_mul(4).ok_or(CheckpointError::Truncated)?)?
            .chunks_exact(4)
            .map(|c| Ok(f32::from_le_bytes(c.try_into().unwrap())))
            .collect()
    }
}

impl TrainerCheckpoint {
    /// Serializes into the version-1 binary layout.
    pub fn to_bytes(&self) -> Vec<u8> {
        let n = self.masters.len();
        let m = self.num_dcs as usize;
        assert_eq!(self.probs.len(), n * m);
        assert_eq!(self.plays.len(), n * m);
        assert_eq!(self.mean_reward.len(), n * m);
        assert_eq!(self.total_plays.len(), n);
        assert_eq!(self.best_masters.len(), n);
        let mut out = Vec::with_capacity(64 + n * (2 + 4 + m * 12));
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&self.seed.to_le_bytes());
        out.extend_from_slice(&self.step.to_le_bytes());
        out.extend_from_slice(&self.theta.to_le_bytes());
        out.extend_from_slice(&(n as u64).to_le_bytes());
        out.extend_from_slice(&self.num_dcs.to_le_bytes());
        out.extend_from_slice(&self.masters);
        for p in &self.probs {
            out.extend_from_slice(&p.to_le_bytes());
        }
        for p in &self.plays {
            out.extend_from_slice(&p.to_le_bytes());
        }
        for r in &self.mean_reward {
            out.extend_from_slice(&r.to_le_bytes());
        }
        for t in &self.total_plays {
            out.extend_from_slice(&t.to_le_bytes());
        }
        for s in self.rng_state {
            out.extend_from_slice(&s.to_le_bytes());
        }
        out.extend_from_slice(&self.movement_cost.to_bits().to_le_bytes());
        out.extend_from_slice(&self.best_masters);
        for x in [
            self.best_objective.transfer_time,
            self.best_objective.movement_cost,
            self.best_objective.runtime_cost,
        ] {
            out.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        out.push(self.converged as u8);
        let checksum = fnv1a(&out);
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }

    /// Deserializes and verifies a version-1 blob.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        if bytes.len() < 8 {
            return Err(CheckpointError::Truncated);
        }
        let (payload, tail) = bytes.split_at(bytes.len() - 8);
        if payload.len() < 4 || payload[..4] != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let stored = u64::from_le_bytes(tail.try_into().unwrap());
        let computed = fnv1a(payload);
        if stored != computed {
            return Err(CheckpointError::ChecksumMismatch { stored, computed });
        }
        let mut r = Reader { buf: payload, pos: 4 };
        let version = r.u32()?;
        if version != VERSION {
            return Err(CheckpointError::UnsupportedVersion(version));
        }
        let seed = r.u64()?;
        let step = r.u32()?;
        let theta = r.u64()?;
        let n = r.u64()? as usize;
        let m = r.u32()?;
        let per_agent = n.checked_mul(m as usize).ok_or(CheckpointError::Truncated)?;
        let masters = r.take(n)?.to_vec();
        let probs = r.f32s(per_agent)?;
        let plays = r.u32s(per_agent)?;
        let mean_reward = r.f32s(per_agent)?;
        let total_plays = r.u32s(n)?;
        let rng_state = [r.u64()?, r.u64()?, r.u64()?, r.u64()?];
        let movement_cost = r.f64()?;
        let best_masters = r.take(n)?.to_vec();
        let best_objective =
            Objective { transfer_time: r.f64()?, movement_cost: r.f64()?, runtime_cost: r.f64()? };
        let converged = r.u8()? != 0;
        if r.pos != payload.len() {
            return Err(CheckpointError::Truncated); // trailing garbage
        }
        Ok(TrainerCheckpoint {
            seed,
            step,
            theta,
            num_dcs: m,
            masters,
            probs,
            plays,
            mean_reward,
            total_plays,
            rng_state,
            movement_cost,
            best_masters,
            best_objective,
            converged,
        })
    }

    /// Writes the checkpoint to `path` (atomic rename from a temp file, so
    /// a crash mid-write never leaves a half-written checkpoint behind).
    pub fn save(&self, path: &std::path::Path) -> Result<(), CheckpointError> {
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, self.to_bytes())?;
        std::fs::rename(&tmp, path)?;
        Ok(())
    }

    /// Reads and verifies a checkpoint from `path`.
    pub fn load(path: &std::path::Path) -> Result<Self, CheckpointError> {
        Self::from_bytes(&std::fs::read(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TrainerCheckpoint {
        let n = 5;
        let m = 3u32;
        TrainerCheckpoint {
            seed: 42,
            step: 7,
            theta: 12,
            num_dcs: m,
            masters: vec![0, 1, 2, 0, 1],
            probs: (0..n * m as usize).map(|i| i as f32 * 0.01).collect(),
            plays: (0..n * m as usize).map(|i| i as u32).collect(),
            mean_reward: (0..n * m as usize).map(|i| 1.0 - i as f32 * 0.02).collect(),
            total_plays: vec![3; n],
            rng_state: [1, 2, 3, u64::MAX],
            movement_cost: 0.125,
            best_masters: vec![2, 2, 2, 0, 1],
            best_objective: Objective {
                transfer_time: 1.5,
                movement_cost: 0.25,
                runtime_cost: 0.5,
            },
            converged: false,
        }
    }

    #[test]
    fn round_trip_is_identity() {
        let cp = sample();
        let restored = TrainerCheckpoint::from_bytes(&cp.to_bytes()).unwrap();
        assert_eq!(cp, restored);
    }

    #[test]
    fn serialization_is_deterministic() {
        assert_eq!(sample().to_bytes(), sample().to_bytes());
    }

    #[test]
    fn every_flipped_byte_is_caught() {
        let bytes = sample().to_bytes();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0xff;
            assert!(
                TrainerCheckpoint::from_bytes(&bad).is_err(),
                "flip at byte {i} loaded silently"
            );
        }
    }

    #[test]
    fn truncation_is_caught() {
        let bytes = sample().to_bytes();
        for len in [0, 3, 7, 20, bytes.len() - 9, bytes.len() - 1] {
            assert!(TrainerCheckpoint::from_bytes(&bytes[..len]).is_err(), "len {len} loaded");
        }
    }

    #[test]
    fn wrong_version_rejected() {
        let mut bytes = sample().to_bytes();
        bytes[4] = 99; // version field
                       // Recompute the checksum so only the version is wrong.
        let n = bytes.len();
        let checksum = super::fnv1a(&bytes[..n - 8]);
        bytes[n - 8..].copy_from_slice(&checksum.to_le_bytes());
        match TrainerCheckpoint::from_bytes(&bytes) {
            Err(CheckpointError::UnsupportedVersion(99)) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn crafted_huge_lengths_error_instead_of_panicking() {
        // A checksum-valid blob whose length fields claim u64::MAX agents:
        // the reader's checked arithmetic must surface Truncated, never an
        // overflow panic or a giant allocation.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&7u64.to_le_bytes()); // seed
        bytes.extend_from_slice(&0u32.to_le_bytes()); // step
        bytes.extend_from_slice(&8u64.to_le_bytes()); // theta
        bytes.extend_from_slice(&u64::MAX.to_le_bytes()); // n
        bytes.extend_from_slice(&u32::MAX.to_le_bytes()); // m
        let checksum = super::fnv1a(&bytes);
        bytes.extend_from_slice(&checksum.to_le_bytes());
        match TrainerCheckpoint::from_bytes(&bytes) {
            Err(CheckpointError::Truncated) => {}
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("rlcut_checkpoint_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trainer.ckpt");
        let cp = sample();
        cp.save(&path).unwrap();
        assert_eq!(TrainerCheckpoint::load(&path).unwrap(), cp);
        std::fs::remove_file(&path).ok();
    }
}
