//! Lock-free plan publication: single-writer atomic flips, wait-free
//! reader pins, hazard-pointer reclamation.
//!
//! The serving daemon's core constraint is that a lookup must never
//! block on the trainer committing a new window. A `RwLock<Arc<Table>>`
//! violates that the moment the writer grabs the write half; the usual
//! answer is the `arc-swap` crate, which is not available here, so the
//! board hand-rolls the same guarantee from `std` atomics:
//!
//! * the current table lives behind one [`AtomicPtr`]; a **flip** is a
//!   single `swap` — readers racing the flip see the old table or the
//!   new one, never a mix and never a lock;
//! * each reader owns a registered **hazard slot**. Pinning a table is
//!   two atomic ops (read pointer, publish it as a hazard) plus one
//!   validating re-read; the retry loop only spins when a flip lands
//!   between those instructions, so reads are wait-free in practice
//!   (flips are per training window, reads are per query batch);
//! * the writer retires the old table on flip and frees retired tables
//!   only when no hazard slot holds them — a reader mid-batch keeps its
//!   table alive, readers that pinned after the flip keep the new one.
//!
//! Safety rests on the classic hazard-pointer argument: a reader
//! publishes the pointer *before* re-validating it against `current`,
//! and the writer collects hazards *after* swapping `current`, so any
//! reader the writer's scan misses must have pinned the post-swap table.
//! Total ordering of the four operations is guaranteed by `SeqCst`.

use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::table::RoutingTable;

/// One reader's hazard slot: the table pointer it is currently using
/// (null = idle). Slots are recycled when a [`PlanReader`] drops.
struct Slot {
    hazard: AtomicPtr<RoutingTable>,
    claimed: AtomicBool,
}

/// The publication point: one current [`RoutingTable`] plus the
/// machinery to flip it without ever making a reader wait.
pub struct PlanBoard {
    current: AtomicPtr<RoutingTable>,
    slots: Mutex<Vec<Arc<Slot>>>,
    /// Tables unlinked from `current` but possibly still pinned.
    retired: Mutex<Vec<*mut RoutingTable>>,
    /// Publication sequence; the next published table gets `+ 1`.
    epoch: AtomicU64,
    flips: AtomicU64,
}

// Raw pointers make these !Send/!Sync by default; the hazard protocol
// (module docs) is what actually guarantees cross-thread safety.
unsafe impl Send for PlanBoard {}
unsafe impl Sync for PlanBoard {}

impl PlanBoard {
    /// Creates a board serving `initial` as publication epoch 1.
    pub fn new(mut initial: RoutingTable) -> Arc<PlanBoard> {
        initial.epoch = 1;
        Arc::new(PlanBoard {
            current: AtomicPtr::new(Box::into_raw(Box::new(initial))),
            slots: Mutex::new(Vec::new()),
            retired: Mutex::new(Vec::new()),
            epoch: AtomicU64::new(1),
            flips: AtomicU64::new(0),
        })
    }

    /// Publishes `table` as the new current plan and returns its
    /// publication epoch. Readers flip atomically: every response is
    /// served entirely from the old table or entirely from this one.
    ///
    /// Single-writer by design (the trainer's commit hook); concurrent
    /// publishers are memory-safe but their epoch order is unspecified.
    pub fn publish(self: &Arc<Self>, mut table: RoutingTable) -> u64 {
        let epoch = self.epoch.fetch_add(1, Ordering::SeqCst) + 1;
        table.epoch = epoch;
        let fresh = Box::into_raw(Box::new(table));
        let old = self.current.swap(fresh, Ordering::SeqCst);
        self.flips.fetch_add(1, Ordering::Relaxed);

        // Retire the unlinked table and reclaim whatever is unpinned.
        let mut retired = self.retired.lock().expect("retired list poisoned");
        retired.push(old);
        let hazards: Vec<*mut RoutingTable> = {
            let slots = self.slots.lock().expect("slot list poisoned");
            slots.iter().map(|s| s.hazard.load(Ordering::SeqCst)).collect()
        };
        retired.retain(|&p| {
            if hazards.contains(&p) {
                true
            } else {
                // SAFETY: `p` is unlinked from `current` (only ever
                // retired once, by the swap above or an earlier one) and
                // no hazard slot holds it. A reader that read `p` from
                // `current` but has not yet published its hazard will
                // fail its re-validation — `current` no longer equals
                // `p` — and retry on the new table.
                unsafe { drop(Box::from_raw(p)) };
                false
            }
        });
        epoch
    }

    /// Registers a reader. Each reader owns a hazard slot; slots are
    /// recycled across reader lifetimes, so the slot list stays bounded
    /// by the peak number of concurrent readers.
    pub fn reader(self: &Arc<Self>) -> PlanReader {
        let mut slots = self.slots.lock().expect("slot list poisoned");
        for slot in slots.iter() {
            if !slot.claimed.swap(true, Ordering::SeqCst) {
                return PlanReader { board: Arc::clone(self), slot: Arc::clone(slot), retries: 0 };
            }
        }
        let slot = Arc::new(Slot {
            hazard: AtomicPtr::new(std::ptr::null_mut()),
            claimed: AtomicBool::new(true),
        });
        slots.push(Arc::clone(&slot));
        PlanReader { board: Arc::clone(self), slot, retries: 0 }
    }

    /// Epoch of the most recently published table.
    pub fn published_epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// How many plan flips have been published.
    pub fn flips(&self) -> u64 {
        self.flips.load(Ordering::Relaxed)
    }
}

impl Drop for PlanBoard {
    fn drop(&mut self) {
        // No PlanReader can outlive the board (each holds an Arc), so
        // nothing is pinned; free the current and any retired tables.
        let current = *self.current.get_mut();
        // SAFETY: exclusive access (drop), pointer came from Box::into_raw.
        unsafe { drop(Box::from_raw(current)) };
        for &p in self.retired.get_mut().expect("retired list poisoned").iter() {
            // SAFETY: retired tables are unlinked and unpinned here.
            unsafe { drop(Box::from_raw(p)) };
        }
    }
}

impl std::fmt::Debug for PlanBoard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanBoard")
            .field("published_epoch", &self.published_epoch())
            .field("flips", &self.flips())
            .finish_non_exhaustive()
    }
}

/// A registered reader: pins the current table for the duration of a
/// query batch. Cheap to move across threads, not shareable (one hazard
/// slot cannot protect two concurrent pins).
pub struct PlanReader {
    board: Arc<PlanBoard>,
    slot: Arc<Slot>,
    retries: u64,
}

impl PlanReader {
    /// Pins the current table and returns a guard dereferencing to it.
    /// The table cannot be freed while the guard lives; a flip during
    /// the batch leaves this reader on the table it pinned.
    pub fn pin(&mut self) -> TableGuard<'_> {
        loop {
            let p = self.board.current.load(Ordering::SeqCst);
            self.slot.hazard.store(p, Ordering::SeqCst);
            if self.board.current.load(Ordering::SeqCst) == p {
                return TableGuard { table: p, slot: &self.slot };
            }
            // A flip landed between the read and the hazard publish; the
            // pointer we hold may already be reclaimed-in-flight. Retry
            // against the new current.
            self.retries += 1;
        }
    }

    /// Batched vertex → master lookup against one consistent table;
    /// returns the epoch that served the batch.
    pub fn lookup_many(&mut self, vs: &[geograph::VertexId], out: &mut Vec<geograph::DcId>) -> u64 {
        let table = self.pin();
        table.lookup_many(vs, out);
        table.epoch()
    }

    /// How many pin attempts raced a flip and retried — the reader-side
    /// "flip stall" (each retry is two atomic ops, not a lock wait).
    pub fn flip_retries(&self) -> u64 {
        self.retries
    }
}

impl Drop for PlanReader {
    fn drop(&mut self) {
        self.slot.hazard.store(std::ptr::null_mut(), Ordering::SeqCst);
        self.slot.claimed.store(false, Ordering::SeqCst);
    }
}

impl std::fmt::Debug for PlanReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanReader").field("retries", &self.retries).finish_non_exhaustive()
    }
}

/// A pinned table: dereferences to the [`RoutingTable`] that was current
/// at pin time. Dropping the guard releases the pin.
pub struct TableGuard<'r> {
    table: *mut RoutingTable,
    slot: &'r Slot,
}

impl std::ops::Deref for TableGuard<'_> {
    type Target = RoutingTable;
    fn deref(&self) -> &RoutingTable {
        // SAFETY: the hazard slot holds `table`, so the writer's
        // reclamation pass keeps it retired-but-alive until the guard
        // drops and clears the slot.
        unsafe { &*self.table }
    }
}

impl Drop for TableGuard<'_> {
    fn drop(&mut self) {
        self.slot.hazard.store(std::ptr::null_mut(), Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geograph::DcId;

    fn homes_table(window: u64, homes: &[DcId]) -> RoutingTable {
        RoutingTable::from_homes(window, homes, 4)
    }

    #[test]
    fn publish_flips_epoch_and_reclaims_unpinned_tables() {
        let board = PlanBoard::new(homes_table(0, &[0, 1, 2, 3]));
        assert_eq!(board.published_epoch(), 1);
        let mut reader = board.reader();
        assert_eq!(reader.pin().master(2), 2);

        let e2 = board.publish(homes_table(1, &[3, 3, 3, 3]));
        assert_eq!(e2, 2);
        assert_eq!(board.flips(), 1);
        let guard = reader.pin();
        assert_eq!(guard.epoch(), 2);
        assert_eq!(guard.master(0), 3);
        drop(guard);

        // Many flips with an idle reader: retired list must not leak
        // (every unpinned table is reclaimed on the next publish).
        for i in 0..100 {
            board.publish(homes_table(i + 2, &[0, 0, 0, 0]));
        }
        assert!(board.retired.lock().unwrap().len() <= 1, "retired tables leaked");
    }

    #[test]
    fn a_pinned_table_survives_the_flip_that_retires_it() {
        let board = PlanBoard::new(homes_table(0, &[1, 1, 1, 1]));
        let mut reader = board.reader();
        let guard = reader.pin();
        let pinned_epoch = guard.epoch();
        board.publish(homes_table(1, &[2, 2, 2, 2]));
        board.publish(homes_table(2, &[3, 3, 3, 3]));
        // The guard still reads the table it pinned, untouched.
        assert_eq!(guard.epoch(), pinned_epoch);
        assert_eq!(guard.master(0), 1);
        drop(guard);
        assert_eq!(reader.pin().master(0), 3);
    }

    #[test]
    fn reader_slots_are_recycled() {
        let board = PlanBoard::new(homes_table(0, &[0; 4]));
        for _ in 0..64 {
            let mut r = board.reader();
            let _ = r.pin();
        }
        assert_eq!(board.slots.lock().unwrap().len(), 1, "slots not recycled");
        let _r1 = board.reader();
        let _r2 = board.reader();
        assert_eq!(board.slots.lock().unwrap().len(), 2);
    }

    #[test]
    fn concurrent_readers_each_see_exactly_one_published_epoch() {
        use std::sync::atomic::AtomicBool;
        let board = PlanBoard::new(homes_table(0, &[0, 0, 0, 0]));
        // Published history: epoch e serves master e % 4 everywhere.
        let stop = Arc::new(AtomicBool::new(false));
        // Batches served by all readers together: the publisher waits for it
        // to move between flips, so lookups and flips interleave on any host
        // instead of the 99 flips finishing before a reader is scheduled.
        let served = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let mut reader = board.reader();
            let stop = Arc::clone(&stop);
            let served = Arc::clone(&served);
            handles.push(std::thread::spawn(move || {
                let vs: Vec<u32> = (0..4).collect();
                let mut out = Vec::new();
                let mut batches = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let epoch = reader.lookup_many(&vs, &mut out);
                    for &m in &out {
                        assert_eq!(m as u64, (epoch - 1) % 4, "lookup mixed tables across a flip");
                    }
                    batches += 1;
                    served.fetch_add(1, Ordering::Relaxed);
                }
                batches
            }));
        }
        for e in 1..100u64 {
            let m = (e % 4) as DcId;
            board.publish(homes_table(e, &[m, m, m, m]));
            let before = served.load(Ordering::Relaxed);
            // (A reader that failed its assertion has finished: fall through
            // to the join below rather than wait for it.)
            while served.load(Ordering::Relaxed) == before
                && !handles.iter().all(|h| h.is_finished())
            {
                std::thread::yield_now();
            }
        }
        stop.store(true, Ordering::Relaxed);
        let total: u64 = handles.into_iter().map(|h| h.join().expect("reader panicked")).sum();
        assert!(total > 0, "readers never ran");
        assert_eq!(board.flips(), 99);
    }
}
