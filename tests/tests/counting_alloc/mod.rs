//! A counting global allocator for the heap-gate test binaries: every
//! allocation, free and resize is forwarded to `System`, and the live byte
//! count and its high-water mark are kept beside it. A binary that declares `mod
//! counting_alloc;` installs it for the whole binary, so each gate is a
//! binary of its own with one test, and no neighbouring test's allocations
//! land in the measured interval.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};

/// Live heap bytes, and their high-water mark since the last reset.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations are `System::alloc`'s own.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            PEAK.fetch_max(LIVE.fetch_add(layout.size(), SeqCst) + layout.size(), SeqCst);
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), SeqCst);
        // SAFETY: `p` came from `alloc` above with this `layout`.
        unsafe { System.dealloc(p, layout) }
    }

    /// Forwarded, so a block that grows or shrinks counts by its change in
    /// size, not (as `GlobalAlloc`'s default would have it) as a second
    /// block live beside the first.
    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller's obligations are `System::realloc`'s own.
        let q = unsafe { System.realloc(p, layout, new_size) };
        if !q.is_null() {
            let old_size = layout.size();
            if new_size >= old_size {
                let grown = new_size - old_size;
                PEAK.fetch_max(LIVE.fetch_add(grown, SeqCst) + grown, SeqCst);
            } else {
                LIVE.fetch_sub(old_size - new_size, SeqCst);
            }
        }
        q
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Starts a measured interval: the high-water mark drops to the live bytes
/// now, which are returned as the interval's entry watermark.
pub fn enter() -> usize {
    let entry = LIVE.load(SeqCst);
    PEAK.store(entry, SeqCst);
    entry
}

/// The high-water mark of live heap bytes since the last [`enter`].
pub fn peak() -> usize {
    PEAK.load(SeqCst)
}
