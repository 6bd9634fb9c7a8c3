//! Plan publication: a lookup never blocks on the trainer committing a
//! new window, and the board keeps that promise with `std` types alone.
//!
//! * the current table is a `Mutex<Arc<RoutingTable>>` beside an
//!   [`AtomicU64`] copy of its epoch. A **flip** numbers the new table,
//!   swaps it in and stores the epoch under the lock, so epochs are
//!   monotone in swap order even with concurrent publishers;
//! * each [`PlanReader`] owns an `Arc` of the table it last pinned. A pin
//!   is one `Acquire` load compared with that table's epoch; only after a
//!   flip does the reader `try_lock` the board and clone the new `Arc`.
//!   If the writer holds the lock, the reader serves the table it holds,
//!   a whole published epoch, and counts one flip retry;
//! * a displaced table is freed when its last holder lets go: the board
//!   at the flip, a reader at its next successful pin. At most the
//!   current table plus one per live reader is alive; an idle reader
//!   keeps the last table it pinned.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, TryLockError};

use crate::table::RoutingTable;

/// The publication point: one current [`RoutingTable`] that readers pin
/// without ever waiting on its writer.
pub struct PlanBoard {
    current: Mutex<Arc<RoutingTable>>,
    /// Epoch of `current`, stored under the lock after the swap (`Release`):
    /// a reader's `Acquire` load that sees it finds that table behind the lock.
    epoch: AtomicU64,
}

impl PlanBoard {
    /// Creates a board serving `initial` as publication epoch 1.
    pub fn new(mut initial: RoutingTable) -> Arc<PlanBoard> {
        initial.epoch = 1;
        Arc::new(PlanBoard { current: Mutex::new(Arc::new(initial)), epoch: AtomicU64::new(1) })
    }

    /// Publishes `table` as the new current plan and returns its
    /// publication epoch. Readers flip atomically: every response is
    /// served entirely from the old table or entirely from this one.
    /// Concurrent publishers are numbered in the order their swaps land.
    pub fn publish(self: &Arc<Self>, table: RoutingTable) -> u64 {
        let mut fresh = Arc::new(table);
        // The only panic under the lock comes before the swap, so a
        // poisoned lock still guards a whole, numbered table.
        let mut current = self.current.lock().unwrap_or_else(PoisonError::into_inner);
        let epoch = current.epoch + 1;
        Arc::get_mut(&mut fresh).expect("a table not yet published is unshared").epoch = epoch;
        let _displaced = std::mem::replace(&mut *current, fresh);
        self.epoch.store(epoch, Ordering::Release);
        // Unlock before the displaced table is freed on return.
        drop(current);
        epoch
    }

    /// Registers a reader, holding the current table.
    pub fn reader(self: &Arc<Self>) -> PlanReader {
        let table = Arc::clone(&self.current.lock().unwrap_or_else(PoisonError::into_inner));
        PlanReader { board: Arc::clone(self), table, retries: 0 }
    }

    /// Epoch of the most recently published table.
    pub(crate) fn published_epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// How many plan flips have been published.
    pub fn flips(&self) -> u64 {
        self.published_epoch() - 1
    }
}

impl std::fmt::Debug for PlanBoard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanBoard")
            .field("published_epoch", &self.published_epoch())
            .finish_non_exhaustive()
    }
}

/// A registered reader: serves each batch from the table it holds and
/// moves to the current one at its next pin after a flip.
pub struct PlanReader {
    board: Arc<PlanBoard>,
    table: Arc<RoutingTable>,
    retries: u64,
}

impl PlanReader {
    /// Pins the current table. The table stays alive as long as this
    /// reader holds it, however many flips land meanwhile.
    pub fn pin(&mut self) -> &RoutingTable {
        if self.board.epoch.load(Ordering::Acquire) != self.table.epoch {
            let fresh = match self.board.current.try_lock() {
                Ok(current) => Arc::clone(&current),
                Err(TryLockError::Poisoned(current)) => Arc::clone(&current.into_inner()),
                Err(TryLockError::WouldBlock) => {
                    self.retries += 1;
                    return &self.table;
                }
            };
            // Drops the displaced table outside the lock.
            self.table = fresh;
        }
        &self.table
    }

    /// Batched vertex → master lookup against one consistent table;
    /// returns the epoch that served the batch.
    pub fn lookup_many(&mut self, vs: &[geograph::VertexId], out: &mut Vec<geograph::DcId>) -> u64 {
        let table = self.pin();
        table.lookup_many(vs, out);
        table.epoch()
    }

    /// Pins that found a newer epoch while the writer held the lock and
    /// served this reader's table, a whole earlier epoch, instead of waiting.
    pub fn flip_retries(&self) -> u64 {
        self.retries
    }
}

impl std::fmt::Debug for PlanReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanReader").field("retries", &self.retries).finish_non_exhaustive()
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
        assert_eq!(reader.pin().masters()[2], 2);

        let e2 = board.publish(homes_table(1, &[3, 3, 3, 3]));
        assert_eq!(e2, 2);
        assert_eq!(board.flips(), 1);
        let table = reader.pin();
        assert_eq!(table.epoch(), 2);
        assert_eq!(table.masters()[0], 3);

        // Many flips with an idle reader: every table it does not hold is
        // freed by the flip that displaces it.
        let mut unpinned = Vec::new();
        for i in 0..100 {
            unpinned.push(Arc::downgrade(&board.current.lock().unwrap()));
            board.publish(homes_table(i + 2, &[0, 0, 0, 0]));
        }
        assert!(unpinned[0].upgrade().is_some(), "the idle reader's table was freed under it");
        assert!(unpinned[1..].iter().all(|t| t.upgrade().is_none()), "displaced tables leaked");
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
        assert_eq!(guard.masters()[0], 1);
        assert_eq!(reader.pin().masters()[0], 3);
    }

    #[test]
    fn a_pin_never_waits_for_the_publisher() {
        let board = PlanBoard::new(homes_table(0, &[1, 1, 1, 1]));
        let mut reader = board.reader();
        assert_eq!(board.publish(homes_table(1, &[2, 2, 2, 2])), 2);
        {
            // The publisher's critical section, frozen: the reader serves
            // the whole epoch it holds and counts the retry.
            let _held = board.current.lock().unwrap();
            let table = reader.pin();
            assert_eq!((table.epoch(), table.masters()[0]), (1, 1));
            assert_eq!(reader.flip_retries(), 1);
        }
        let table = reader.pin();
        assert_eq!((table.epoch(), table.masters()[0]), (2, 2));
        assert_eq!(reader.flip_retries(), 1);
    }

    #[test]
    fn a_displaced_table_is_freed_at_its_last_readers_next_pin() {
        let board = PlanBoard::new(homes_table(0, &[1, 1, 1, 1]));
        let mut reader = board.reader();
        let first = Arc::downgrade(&reader.table);
        board.publish(homes_table(1, &[2, 2, 2, 2]));
        board.publish(homes_table(2, &[3, 3, 3, 3]));
        assert!(first.upgrade().is_some(), "the reader's table was freed under it");
        assert_eq!(reader.pin().epoch(), 3);
        assert!(first.upgrade().is_none(), "a displaced table outlived its last reader");
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn reader_lookup_panics_on_a_key_past_the_table() {
        let board = PlanBoard::new(homes_table(0, &[0, 1, 2, 3]));
        board.reader().lookup_many(&[0, 3, 4], &mut Vec::new());
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
