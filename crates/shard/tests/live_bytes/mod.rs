//! A `#[global_allocator]` that tracks live heap bytes and their high-water
//! mark, for the tests that bound what a build or an update holds in passing.
//! A file that uses it holds exactly one test, so no concurrent test can
//! perturb the counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

struct LiveBytes;

// SAFETY: delegates every operation to `System` unchanged; the counters are
// a side effect only.
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        grow(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: LiveBytes = LiveBytes;

/// Runs `work` and returns its result with the live bytes it left allocated
/// and the most it had allocated at any one time, both above where it
/// started. The result is still alive when the first is read.
pub(crate) fn measured<T>(work: impl FnOnce() -> T) -> (T, usize, usize) {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let out = work();
    let (peak, after) = (PEAK.load(Ordering::Relaxed), LIVE.load(Ordering::Relaxed));
    (out, after - before, peak - before)
}
