//! Counting global allocator with **per-thread** counters.
//!
//! `alloc_bytes_per_op` must not perturb what it measures: a shared
//! atomic counter would add one contended cache line to every allocation
//! on both rank threads. Each thread instead bumps its own thread-local
//! cell; a rank reads its own total before and after the timed reps and
//! the child sums the per-rank deltas. Bytes are attributed to the
//! thread that allocates (a boxed task counts on the sender), frees are
//! not subtracted — the metric is allocation traffic, not live heap.
//!
//! Every block comes from `System` exactly as the program asked for it,
//! so the workloads run on the heap layout a user of the library gets.
//! The one exception is a measurement of that layout itself: `malloc`
//! promises 16-byte alignment, and which fields of a fabric's endpoint
//! array share a cache line depends on where in a line the array starts.
//! Inside [`with_endpoints_at`] — and nowhere else — a 2-rank endpoint
//! array starts at a chosen offset from a line boundary, which puts the
//! four placements `malloc` can produce side by side on the ledger
//! (`net.fabric.placement_worst_x`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};

thread_local! {
    // Const-initialised and without a destructor, so touching it from
    // inside the allocator can neither allocate nor register a dtor.
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// The ledger's global allocator: `System` plus the per-thread count.
pub struct Counting;

const CACHE_LINE: usize = 64;
/// What `malloc` guarantees, and so the granularity of its placements.
const MALLOC_ALIGN: usize = 16;
/// Size of the one block a placement window moves: the endpoint array of
/// a 2-rank fabric (`Box<[Endpoint]>`).
const ENDPOINTS_BYTES: usize = 2 * std::mem::size_of::<rupcxx_net::Endpoint>();

/// 0 while no placement window is open, else the window's skew + 1.
static WINDOW: AtomicUsize = AtomicUsize::new(0);
/// Live blocks of [`ENDPOINTS_BYTES`]. A window opens and closes only
/// while this is 0, so every such block is freed the way it was obtained.
static LIVE_ENDPOINTS: AtomicIsize = AtomicIsize::new(0);

/// Run `body` with every 2-rank endpoint array it allocates starting
/// `skew` bytes past a cache-line boundary — one of the four placements
/// `malloc` could have produced. `body` must drop every fabric it builds.
///
/// # Safety
/// No other thread may allocate or free while the window opens or closes
/// (threads that `body` itself starts and joins are fine).
pub unsafe fn with_endpoints_at<R>(skew: usize, body: impl FnOnce() -> R) -> R {
    assert!(
        skew < CACHE_LINE && skew.is_multiple_of(MALLOC_ALIGN),
        "skew {skew}"
    );
    assert_eq!(
        LIVE_ENDPOINTS.load(Ordering::SeqCst),
        0,
        "an endpoint array from outside the window is still alive"
    );
    WINDOW.store(skew + 1, Ordering::SeqCst);
    let out = body();
    if LIVE_ENDPOINTS.load(Ordering::SeqCst) != 0 {
        // A placed block freed after the window would go back to `System`
        // under the wrong pointer; there is no safe way on from here.
        eprintln!("ledger: an endpoint array outlived its placement window");
        std::process::abort();
    }
    WINDOW.store(0, Ordering::SeqCst);
    out
}

/// Whether `layout` is the block a placement window moves.
#[inline]
fn is_endpoints(layout: Layout) -> bool {
    layout.size() == ENDPOINTS_BYTES && layout.align() <= MALLOC_ALIGN
}

/// The layout a placed block is obtained with: line-aligned, with a line
/// of slack so the block can start anywhere in the first line.
fn padded(layout: Layout) -> Layout {
    Layout::from_size_align(layout.size() + CACHE_LINE, CACHE_LINE).expect("valid padded layout")
}

#[inline]
fn add(bytes: usize) {
    // `try_with`: allocations made while the thread's TLS is being torn
    // down are simply not counted.
    let _ = BYTES.try_with(|b| b.set(b.get() + bytes as u64));
}

/// Allocate an endpoint array: from `System` as asked, or, inside a
/// placement window, at the window's offset into a line.
///
/// # Safety
/// `layout` must satisfy [`is_endpoints`] (so its size is non-zero).
#[cold]
unsafe fn obtain_endpoints(layout: Layout, zeroed: bool) -> *mut u8 {
    LIVE_ENDPOINTS.fetch_add(1, Ordering::SeqCst);
    let window = WINDOW.load(Ordering::SeqCst);
    let request = if window == 0 { layout } else { padded(layout) };
    // SAFETY: `request` has non-zero size because `layout` has.
    let base = unsafe {
        if zeroed {
            System.alloc_zeroed(request)
        } else {
            System.alloc(request)
        }
    };
    if base.is_null() || window == 0 {
        return base;
    }
    // SAFETY: the skew is below one line and the padded block is one line
    // longer than `layout`, so the offset block lies inside it; a multiple
    // of 16 keeps every alignment `is_endpoints` admits.
    unsafe { base.add(window - 1) }
}

/// Return a block obtained with [`obtain_endpoints`].
///
/// # Safety
/// `ptr` must come from `obtain_endpoints(layout, _)`, not have been
/// released, and `WINDOW` must not have changed in between (which
/// `with_endpoints_at` guarantees through `LIVE_ENDPOINTS`).
#[cold]
unsafe fn release_endpoints(ptr: *mut u8, layout: Layout) {
    if WINDOW.load(Ordering::SeqCst) == 0 {
        // SAFETY: outside a window the block came from `System` as is.
        unsafe { System.dealloc(ptr, layout) }
    } else {
        // SAFETY: the block came from `System` line-aligned and was offset
        // by less than a line, so rounding down recovers its base;
        // `padded(layout)` is the layout it was allocated with.
        unsafe { System.dealloc(ptr.sub(ptr as usize % CACHE_LINE), padded(layout)) }
    }
    LIVE_ENDPOINTS.fetch_sub(1, Ordering::SeqCst);
}

// SAFETY: every block comes from `System` with the caller's layout and
// goes back with it, except endpoint arrays, which go through
// `obtain_endpoints` / `release_endpoints`; see those for why pointer and
// layout handed to `System` match the allocation.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        add(layout.size());
        // SAFETY: the caller's contract (non-zero size) carries over.
        unsafe {
            if is_endpoints(layout) {
                obtain_endpoints(layout, false)
            } else {
                System.alloc(layout)
            }
        }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        add(layout.size());
        // SAFETY: the caller's contract (non-zero size) carries over.
        unsafe {
            if is_endpoints(layout) {
                obtain_endpoints(layout, true)
            } else {
                System.alloc_zeroed(layout)
            }
        }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by this allocator with `layout`.
        unsafe {
            if is_endpoints(layout) {
                release_endpoints(ptr, layout)
            } else {
                System.dealloc(ptr, layout)
            }
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        add(new_size);
        // SAFETY: the caller guarantees `new_size`, rounded up to
        // `layout.align()`, does not overflow `isize`.
        let new_layout = unsafe { Layout::from_size_align_unchecked(new_size, layout.align()) };
        if !is_endpoints(layout) && !is_endpoints(new_layout) {
            // SAFETY: the block came from `System` with `layout`.
            return unsafe { System.realloc(ptr, layout, new_size) };
        }
        // A block growing into or out of the endpoint-array size may not
        // start where `System` thinks it does: move it by hand, through
        // the two paths above (uncounted: `add` ran already).
        // SAFETY: `new_layout` has non-zero size; the copy stays within
        // both blocks; `ptr` goes back with the layout it came with.
        unsafe {
            let moved = if is_endpoints(new_layout) {
                obtain_endpoints(new_layout, false)
            } else {
                System.alloc(new_layout)
            };
            if !moved.is_null() {
                std::ptr::copy_nonoverlapping(ptr, moved, layout.size().min(new_size));
                if is_endpoints(layout) {
                    release_endpoints(ptr, layout);
                } else {
                    System.dealloc(ptr, layout);
                }
            }
            moved
        }
    }
}

/// Bytes allocated so far by the calling thread.
pub fn thread_bytes() -> u64 {
    BYTES.with(Cell::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_per_thread_and_places_only_inside_a_window() {
        // The test binary runs under this allocator too; no other test
        // allocates a block of exactly `ENDPOINTS_BYTES`.
        let before = thread_bytes();
        let plain: Vec<u8> = Vec::with_capacity(ENDPOINTS_BYTES);
        assert_eq!(thread_bytes() - before, ENDPOINTS_BYTES as u64);
        let elsewhere = std::thread::spawn(thread_bytes).join().unwrap();
        assert!(
            elsewhere < ENDPOINTS_BYTES as u64,
            "counters are per thread"
        );
        drop(plain);
        for skew in [0usize, 16, 32, 48] {
            // SAFETY: other test threads may allocate, but none allocates
            // or frees a block of this size, the only kind a window moves.
            unsafe {
                with_endpoints_at(skew, || {
                    let mut v: Vec<u8> = Vec::with_capacity(ENDPOINTS_BYTES);
                    assert_eq!(v.as_ptr() as usize % CACHE_LINE, skew);
                    v.extend((0..ENDPOINTS_BYTES).map(|i| i as u8));
                    // Grow out of the placed size and shrink back into it:
                    // contents must follow through both moves.
                    v.reserve_exact(ENDPOINTS_BYTES);
                    assert_ne!(v.capacity(), ENDPOINTS_BYTES);
                    v.shrink_to_fit();
                    assert_eq!(v.as_ptr() as usize % CACHE_LINE, skew);
                    assert!(v.iter().enumerate().all(|(i, b)| *b == i as u8));
                    // Other sizes are never moved.
                    let other: Vec<u8> = Vec::with_capacity(ENDPOINTS_BYTES + 16);
                    assert_eq!(other.as_ptr() as usize % MALLOC_ALIGN, 0);
                });
            }
        }
        assert_eq!(LIVE_ENDPOINTS.load(Ordering::SeqCst), 0);
    }
}
