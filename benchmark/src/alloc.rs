//! Counting global allocator behind a runtime switch.
//!
//! Off (the default, and during every timed rep) it costs one relaxed
//! load per call. On, it counts allocations and tracks live and peak
//! live bytes. Frees are only subtracted while counting, so the live
//! figure is relative to the moment counting started: memory that was
//! resident before (the `store` workload's input logs) never shows,
//! and memory allocated before but freed during a counted region
//! saturates at zero instead of wrapping.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

pub struct Counting;

// Statistics only: no other data is published through these, so
// relaxed ordering is enough.
static ON: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn grew(bytes: usize) {
    ALLOCS.fetch_add(1, Relaxed);
    let live = LIVE.fetch_add(bytes as u64, Relaxed) + bytes as u64;
    PEAK.fetch_max(live, Relaxed);
}

fn shrank(bytes: usize) {
    let _ = LIVE.fetch_update(Relaxed, Relaxed, |l| Some(l.saturating_sub(bytes as u64)));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters never touch the returned
// memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ON.load(Relaxed) {
            grew(layout.size());
        }
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ON.load(Relaxed) {
            grew(layout.size());
        }
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ON.load(Relaxed) {
            shrank(layout.size());
        }
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ON.load(Relaxed) {
            shrank(layout.size());
            grew(new_size);
        }
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// What one counted region allocated.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counted {
    pub allocs: u64,
    pub peak_bytes: u64,
}

/// Resets the counters and switches counting on.
pub fn start() {
    ALLOCS.store(0, Relaxed);
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    ON.store(true, Relaxed);
}

/// Switches counting off and returns what the region allocated.
pub fn stop() -> Counted {
    ON.store(false, Relaxed);
    Counted {
        allocs: ALLOCS.load(Relaxed),
        peak_bytes: PEAK.load(Relaxed),
    }
}
