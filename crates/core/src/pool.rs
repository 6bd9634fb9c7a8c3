//! The trainer's fan-out: one job per worker on [`geograph::ScopedPool`],
//! each worker with its own [`MoveScratch`] arena.
//!
//! `fan_out` runs `job(i, &mut arenas[i])` for every worker `i` — worker
//! 0 on the caller, the others on scoped threads spawned for the call and
//! joined before it returns — and hands the results back by worker index.
//! The arenas belong to the caller (the trainer session carries one per
//! thread across steps and windows), so they stay warm across dispatches
//! without a thread outliving one.
//!
//! A worker catches its job's panic: the dispatch reports
//! [`PoolError::WorkerPanicked`] for the lowest panicking index, every
//! other worker still finishes, and a panicked worker's arena is replaced
//! by a fresh one, so the next dispatch on the same arenas runs clean.
//!
//! Determinism: the fan-out adds no scheduling freedom — the caller decides
//! the work assignment (LPT groups), workers compute into their own slots,
//! and the caller reduces them in worker order.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

use geograph::ScopedPool;
use geopart::MoveScratch;

/// Typed failure of a fan-out.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PoolError {
    /// A worker's job panicked. Every other worker still ran its job to
    /// completion, and the arenas remain usable.
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

/// Runs `job(i, &mut arenas[i])` once for every `i in 0..arenas.len()`,
/// concurrently, and returns the results by worker index (see the module
/// docs for panics).
pub(crate) fn fan_out<T: Send>(
    arenas: &mut [MoveScratch],
    job: &(dyn Fn(usize, &mut MoveScratch) -> T + Sync),
) -> Result<Vec<T>, PoolError> {
    assert!(!arenas.is_empty(), "a fan-out needs at least one arena");
    type Slot<'a, T> = (&'a mut MoveScratch, Option<std::thread::Result<T>>);
    let slots: Vec<Mutex<Slot<'_, T>>> = arenas.iter_mut().map(|a| Mutex::new((a, None))).collect();
    ScopedPool(slots.len()).run(&|worker| {
        // Worker `i` is the only one to lock slot `i`, and the job's panic
        // is caught while the guard is held, so the lock never poisons.
        let mut slot = slots[worker].lock().expect("one worker per slot");
        let (arena, out) = &mut *slot;
        *out = Some(catch_unwind(AssertUnwindSafe(|| job(worker, arena))));
    });
    let outs: Vec<std::thread::Result<T>> = slots
        .into_iter()
        .map(|slot| {
            let (arena, out) = slot.into_inner().expect("one worker per slot");
            let out = out.expect("ScopedPool runs every worker");
            if out.is_err() {
                // The job may have stopped mid-sweep with rows half-written.
                *arena = MoveScratch::new();
            }
            out
        })
        .collect();
    outs.into_iter()
        .enumerate()
        .map(|(worker, out)| {
            out.map_err(|payload| PoolError::WorkerPanicked { worker, message: message(payload) })
        })
        .collect()
}

fn message(payload: Box<dyn Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "<non-string panic>".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    fn arenas(threads: usize) -> Vec<MoveScratch> {
        (0..threads).map(|_| MoveScratch::new()).collect()
    }

    #[test]
    fn every_worker_runs_each_dispatch_exactly_once() {
        let mut arenas = arenas(4);
        let hits: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
        for _ in 0..10 {
            let out = fan_out(&mut arenas, &|w, _| {
                hits[w].fetch_add(1, Ordering::Relaxed);
                w
            });
            assert_eq!(out, Ok(vec![0, 1, 2, 3]), "results come back by worker index");
        }
        for h in &hits {
            assert_eq!(h.load(Ordering::Relaxed), 10);
        }
    }

    #[test]
    fn jobs_can_coordinate_through_a_barrier() {
        // Every worker runs at once: none finishes before all have started.
        let barrier = Barrier::new(3);
        let counter = AtomicUsize::new(0);
        fan_out(&mut arenas(3), &|_, _| {
            counter.fetch_add(1, Ordering::SeqCst);
            barrier.wait();
            assert_eq!(counter.load(Ordering::SeqCst), 3);
        })
        .unwrap();
    }

    #[test]
    fn scratch_is_resident_across_dispatches() {
        // Worker i scores with arena i, every dispatch.
        let mut arenas = arenas(3);
        let addresses: Vec<usize> = arenas.iter().map(|a| a as *const _ as usize).collect();
        for _ in 0..2 {
            let seen = fan_out(&mut arenas, &|_, a| a as *const _ as usize).unwrap();
            assert_eq!(seen, addresses);
        }
    }

    /// A dispatch on `threads` arenas whose workers in `panicking` panic
    /// reports the lowest of them, and the next dispatch on the same arenas
    /// runs every worker.
    fn panic_case(threads: usize, panicking: std::ops::Range<usize>) {
        let mut arenas = arenas(threads);
        let err = fan_out(&mut arenas, &|w, _| {
            if panicking.contains(&w) {
                panic!("boom on worker {w}");
            }
        })
        .unwrap_err();
        let first = panicking.start;
        let message = format!("boom on worker {first}");
        assert_eq!(err, PoolError::WorkerPanicked { worker: first, message });
        assert!(err.to_string().contains(&format!("worker {first} panicked")), "{err}");
        let ran = AtomicUsize::new(0);
        fan_out(&mut arenas, &|_, _| ran.fetch_add(1, Ordering::Relaxed)).unwrap();
        assert_eq!(ran.load(Ordering::Relaxed), threads);
    }

    #[test]
    fn panic_surfaces_as_typed_error_and_pool_survives() {
        panic_case(2, 1..2);
    }

    #[test]
    fn earliest_worker_index_wins_on_multi_panic() {
        panic_case(4, 1..4);
    }
}
