//! A counting allocator, so `store.bytes_per_tuple` is an exact count of
//! heap bytes rather than a resident-set difference. Each thread counts
//! its own live bytes in a thread-local cell: no shared cache line, so the
//! threaded runs pay one uncontended add per allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

pub struct Counting;

thread_local! {
    /// Bytes allocated minus bytes freed by this thread (may go negative
    /// when a thread frees what another allocated, hence signed).
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn add(delta: i64) {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down, when the cell is gone.
    let _ = LIVE.try_with(|c| c.set(c.get() + delta));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter touches no allocator state and does
// not allocate (a `const` thread-local `Cell<i64>` has no lazy init and no
// destructor).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        add(layout.size() as i64);
        // SAFETY: the caller's obligations are passed on unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        add(layout.size() as i64);
        // SAFETY: the caller's obligations are passed on unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add(-(layout.size() as i64));
        // SAFETY: `ptr` was returned by `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        add(new_size as i64 - layout.size() as i64);
        // SAFETY: as for `dealloc`; `new_size` is the caller's to vouch for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Heap bytes `f` leaves allocated on this thread, with its result.
pub fn live_bytes_of<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = LIVE.with(Cell::get);
    let out = f();
    let after = LIVE.with(Cell::get);
    (out, (after - before).max(0) as u64)
}
