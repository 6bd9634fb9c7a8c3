//! Persistent training worker pool with step-resident scratch arenas.
//!
//! Both phases of every RLCut training step fan work out over `threads`
//! workers, and on the small per-step work items of a converging trainer
//! a per-dispatch spawn/join and cold [`MoveScratch`] arenas would
//! dominate. A [`WorkerPool`] is spawned once per multi-threaded
//! [`crate::TrainerSession`] and reused for every subsequent dispatch:
//!
//! * **Workers are pinned and persistent** — `threads` OS threads parked
//!   on a condvar between dispatches, so a dispatch is one mutex/condvar
//!   round-trip.
//! * **Scratch arenas are step-resident** — each worker owns one
//!   [`MoveScratch`] for its whole life. The arena warms up during the
//!   first pass over the workload and later passes run allocation-free
//!   ([`WorkerPool::scratch_stats`] exposes the capacities so tests can
//!   assert no regrowth).
//! * **Panics surface as typed errors** — a worker catches its job's
//!   panic, the pool reports [`PoolError::WorkerPanicked`] from
//!   [`WorkerPool::run_on_all`], and the pool stays usable. Workers never
//!   die with the job.
//!
//! ## Dispatch protocol
//!
//! `run_on_all(job)` publishes one type-erased job pointer under the state
//! mutex, bumps the epoch, and wakes all workers. Every worker runs the
//! *same* closure exactly once with its worker index (and its resident
//! scratch), then decrements the outstanding count; the last one out wakes
//! the dispatcher. `run_on_all` returns only after **all** workers
//! finished the epoch — that blocking wait is what makes the lifetime
//! erasure sound: the job borrows caller-stack state (the trainer's
//! `HybridState`, the sampled agents, …) and the caller cannot
//! touch or drop that state while `run_on_all` has not returned.
//!
//! Determinism: the pool adds no scheduling freedom — work assignment is
//! decided by the caller (LPT groups), workers only
//! compute into disjoint slots, and reductions happen on the caller thread
//! in caller-chosen order.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::JoinHandle;

use geopart::{MoveScratch, ScratchStats};
use parking_lot::{Condvar, Mutex};

/// Typed failure of a pool dispatch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PoolError {
    /// A worker's job panicked. The offending epoch still ran to
    /// completion on every other worker and the pool remains usable.
    WorkerPanicked {
        /// Index of the first worker (by index order) that panicked.
        worker: usize,
        /// Panic payload rendered to a string (`"<non-string panic>"` when
        /// the payload was neither `&str` nor `String`).
        message: String,
    },
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::WorkerPanicked { worker, message } => {
                write!(f, "pool worker {worker} panicked: {message}")
            }
        }
    }
}

impl std::error::Error for PoolError {}

/// A job as workers see it: shared closure called with (worker index,
/// resident scratch).
type JobRef<'a> = &'a (dyn Fn(usize, &mut MoveScratch) + Sync);

/// Type-erased job pointer published to the workers. Soundness: the
/// pointee lives on the dispatcher's stack and `run_on_all` blocks until
/// every worker has finished with it.
#[derive(Clone, Copy)]
struct Job(*const (dyn Fn(usize, &mut MoveScratch) + Sync));

// SAFETY: the pointee is `Sync` (shared `&`-calls from many threads are
// fine) and outlives every dereference per the dispatch protocol above.
unsafe impl Send for Job {}

#[derive(Default)]
struct Dispatch {
    /// Bumped once per dispatch; workers run each epoch exactly once.
    epoch: u64,
    job: Option<Job>,
    /// Workers still running the current epoch.
    remaining: usize,
    /// Panics collected during the current epoch, by worker index.
    panics: Vec<(usize, String)>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<Dispatch>,
    /// Workers park here between epochs.
    work: Condvar,
    /// The dispatcher parks here until `remaining` drains to zero.
    done: Condvar,
}

/// Long-lived worker pool; see the module docs for the protocol.
pub struct WorkerPool {
    shared: Arc<Shared>,
    /// Serializes dispatchers: `run_on_all` takes `&self`, so two callers
    /// could otherwise interleave epochs.
    dispatch_gate: Mutex<()>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool").field("threads", &self.workers.len()).finish()
    }
}

impl WorkerPool {
    /// Spawns `threads` persistent workers, each owning a fresh
    /// [`MoveScratch`] that lives until the pool is dropped.
    pub fn new(threads: usize) -> Self {
        assert!(threads >= 1, "a pool needs at least one worker");
        let shared = Arc::new(Shared {
            state: Mutex::new(Dispatch::default()),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let workers = (0..threads)
            .map(|index| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("rlcut-pool-{index}"))
                    .spawn(move || worker_main(index, &shared))
                    .expect("spawning pool worker")
            })
            .collect();
        WorkerPool { shared, dispatch_gate: Mutex::new(()), workers }
    }

    /// Number of workers (== the trainer's effective thread count).
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Runs `job` once on **every** worker (with its worker index and its
    /// resident scratch) and blocks until all of them finished.
    ///
    /// Returns [`PoolError::WorkerPanicked`] if any job invocation
    /// panicked; the remaining workers still complete the epoch, so the
    /// pool is immediately reusable. Jobs that synchronize among
    /// themselves (e.g. via a [`std::sync::Barrier`] sized
    /// [`Self::threads`]) must not panic between barrier points — a
    /// deserter would strand its peers.
    pub fn run_on_all(&self, job: JobRef<'_>) -> Result<(), PoolError> {
        let _gate = self.dispatch_gate.lock();
        // Erase the borrow lifetime; the completion wait below re-proves
        // it. (`Job` documents the contract.)
        let erased = Job(unsafe {
            std::mem::transmute::<
                *const (dyn Fn(usize, &mut MoveScratch) + Sync + '_),
                *const (dyn Fn(usize, &mut MoveScratch) + Sync + 'static),
            >(job as *const _)
        });
        let mut state = self.shared.state.lock();
        debug_assert_eq!(state.remaining, 0, "dispatch gate must serialize epochs");
        state.epoch += 1;
        state.job = Some(erased);
        state.remaining = self.workers.len();
        state.panics.clear();
        self.shared.work.notify_all();
        state = self.shared.done.wait_while(state, |s| s.remaining > 0);
        state.job = None;
        if let Some((worker, message)) = state.panics.first().cloned() {
            return Err(PoolError::WorkerPanicked { worker, message });
        }
        Ok(())
    }

    /// OS-thread identities of the workers, by worker index — the probe
    /// behind the "one pool for the whole dynamic run" contract: a driver
    /// that silently rebuilds its pool between windows shows fresh ids
    /// here, while genuine reuse keeps them stable.
    pub fn thread_ids(&self) -> Vec<std::thread::ThreadId> {
        let slots: Vec<Mutex<Option<std::thread::ThreadId>>> =
            (0..self.threads()).map(|_| Mutex::new(None)).collect();
        self.run_on_all(&|worker, _| {
            *slots[worker].lock() = Some(std::thread::current().id());
        })
        .expect("thread_ids job cannot panic");
        slots.into_iter().map(|slot| slot.into_inner().expect("every worker reports")).collect()
    }

    /// Capacity snapshot of every worker's resident scratch, by worker
    /// index — the probe behind the "arenas stay warm across steps"
    /// contract.
    pub fn scratch_stats(&self) -> Vec<ScratchStats> {
        let slots: Vec<Mutex<Option<ScratchStats>>> =
            (0..self.threads()).map(|_| Mutex::new(None)).collect();
        self.run_on_all(&|worker, scratch| {
            *slots[worker].lock() = Some(scratch.stats());
        })
        .expect("scratch_stats job cannot panic");
        slots.into_iter().map(|slot| slot.into_inner().expect("every worker reports")).collect()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock();
            state.shutdown = true;
            self.shared.work.notify_all();
        }
        for handle in self.workers.drain(..) {
            // Workers catch job panics, so join only fails if the pool
            // machinery itself panicked — propagating is correct there.
            handle.join().expect("pool worker exited cleanly");
        }
    }
}

fn worker_main(index: usize, shared: &Shared) {
    let mut scratch = MoveScratch::new();
    let mut seen_epoch = 0u64;
    loop {
        let job = {
            let mut state = shared.state.lock();
            state = shared
                .work
                .wait_while(state, |s| !s.shutdown && (s.epoch == seen_epoch || s.job.is_none()));
            if state.shutdown {
                return;
            }
            seen_epoch = state.epoch;
            state.job.expect("non-shutdown wakeup carries a job")
        };
        // SAFETY: the dispatcher blocks in `run_on_all` until this worker
        // (and all others) decrement `remaining`, so the pointee is alive
        // for the whole call.
        let result = catch_unwind(AssertUnwindSafe(|| unsafe { (*job.0)(index, &mut scratch) }));
        let mut state = shared.state.lock();
        if let Err(payload) = result {
            let message = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "<non-string panic>".to_string());
            state.panics.push((index, message));
            state.panics.sort_by_key(|&(w, _)| w);
        }
        state.remaining -= 1;
        if state.remaining == 0 {
            shared.done.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    /// Thread count of this process via /proc (Linux); falls back to 0 so
    /// leak assertions degenerate harmlessly elsewhere.
    fn live_os_threads() -> usize {
        std::fs::read_to_string("/proc/self/status")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("Threads:"))
                    .and_then(|l| l.split_whitespace().nth(1).map(str::to_string))
            })
            .and_then(|n| n.parse().ok())
            .unwrap_or(0)
    }

    /// [`live_os_threads`] for the "nothing leaked" side of a leak assertion.
    /// The suite runs tests on parallel threads, so a neighbour's pool can be
    /// alive at any one reading; a leak is permanent, a neighbour's pool is
    /// not. Re-reads for up to 5 s until the count is at most `limit`.
    fn settled_os_threads(limit: usize) -> usize {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        loop {
            let live = live_os_threads();
            if live <= limit || std::time::Instant::now() >= deadline {
                return live;
            }
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
    }

    #[test]
    fn every_worker_runs_each_dispatch_exactly_once() {
        let pool = WorkerPool::new(4);
        let hits: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
        for _ in 0..10 {
            pool.run_on_all(&|w, _| {
                hits[w].fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
        }
        for h in &hits {
            assert_eq!(h.load(Ordering::Relaxed), 10);
        }
    }

    #[test]
    fn jobs_can_coordinate_through_a_barrier() {
        let pool = WorkerPool::new(3);
        let barrier = Barrier::new(3);
        let counter = AtomicUsize::new(0);
        pool.run_on_all(&|_, _| {
            counter.fetch_add(1, Ordering::SeqCst);
            barrier.wait();
            // Everyone observes the full pre-barrier count.
            assert_eq!(counter.load(Ordering::SeqCst), 3);
        })
        .unwrap();
    }

    #[test]
    fn panic_surfaces_as_typed_error_and_pool_survives() {
        let pool = WorkerPool::new(4);
        let err = pool
            .run_on_all(&|w, _| {
                if w == 2 {
                    panic!("boom on worker {w}");
                }
            })
            .unwrap_err();
        assert_eq!(
            err,
            PoolError::WorkerPanicked { worker: 2, message: "boom on worker 2".to_string() }
        );
        assert!(err.to_string().contains("worker 2 panicked"));
        // The pool dispatches fine afterwards.
        let ran = AtomicUsize::new(0);
        pool.run_on_all(&|_, _| {
            ran.fetch_add(1, Ordering::Relaxed);
        })
        .unwrap();
        assert_eq!(ran.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn earliest_worker_index_wins_on_multi_panic() {
        let pool = WorkerPool::new(4);
        let err = pool
            .run_on_all(&|w, _| {
                if w >= 1 {
                    panic!("w{w}");
                }
            })
            .unwrap_err();
        let PoolError::WorkerPanicked { worker, .. } = err;
        assert_eq!(worker, 1);
    }

    #[test]
    fn scratch_is_resident_across_dispatches() {
        let pool = WorkerPool::new(2);
        // Warm the arenas through the public seal path: capacity grows on
        // first use, then a smaller second dispatch must not shrink or
        // move it.
        pool.run_on_all(&|_, scratch| {
            scratch.reserve_neighbors(64);
        })
        .unwrap();
        let warm = pool.scratch_stats();
        assert!(warm.iter().all(|s| s.neighbor_capacity >= 64), "{warm:?}");
        pool.run_on_all(&|_, scratch| {
            scratch.reserve_neighbors(8);
        })
        .unwrap();
        assert_eq!(pool.scratch_stats(), warm, "smaller job must not shrink warm arenas");
    }

    #[test]
    fn thread_ids_are_stable_and_distinct() {
        let pool = WorkerPool::new(4);
        let first = pool.thread_ids();
        assert_eq!(first.len(), 4);
        let unique: std::collections::HashSet<_> = first.iter().copied().collect();
        assert_eq!(unique.len(), 4, "workers must be distinct OS threads");
        pool.run_on_all(&|_, _| {}).unwrap();
        assert_eq!(pool.thread_ids(), first, "ids must be stable across dispatches");
        assert_ne!(WorkerPool::new(4).thread_ids(), first, "a fresh pool has fresh ids");
    }

    #[test]
    fn drop_joins_all_workers() {
        let before = live_os_threads();
        {
            let pool = WorkerPool::new(8);
            pool.run_on_all(&|_, _| {}).unwrap();
            assert!(live_os_threads() >= before);
        }
        // All eight workers joined on drop; allow unrelated runtime threads
        // some slack in either direction.
        let after = settled_os_threads(before + 1);
        assert!(
            after <= before + 1,
            "worker threads leaked: {before} before pool, {after} after drop"
        );
    }
}
