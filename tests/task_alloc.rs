//! What the closure-task path allocates, to the byte. A task carries its
//! captures in its message (`rupcxx_net::TaskFn`), so a `finish` spawn
//! allocates nothing, an `async_on` round trip only its future, and a
//! closure too large or too aligned for the message one box of its own
//! size. Two contexts of one job are driven from the test's thread, so
//! every byte is counted on it; each measurement is the third of three
//! identical rounds, after the inbox's queues and the `finish` tables have
//! grown to what the round needs.

use rupcxx::async_on;
use rupcxx_net::FabricConfig;
use rupcxx_runtime::{Ctx, HandlerRegistry, Shared};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

thread_local! {
    // Const-initialised and without a destructor, so touching it from
    // inside the allocator can neither allocate nor register a dtor.
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// `System`, plus a count of the bytes each thread asks for (frees are not
/// subtracted: the count is allocation traffic, as the ledger's is).
struct Counting;

// SAFETY: every block comes from `System` with the caller's layout and
// goes back to it with the same.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = BYTES.try_with(|b| b.set(b.get() + layout.size() as u64));
        // SAFETY: the caller's contract (non-zero size) carries over.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn thread_bytes() -> u64 {
    BYTES.with(Cell::get)
}

/// Two contexts of one job with every optional layer off.
fn ctxs() -> Vec<Ctx> {
    let config = FabricConfig {
        ranks: 2,
        segment_bytes: 4096,
        ..FabricConfig::default()
    };
    let sh = Shared::new_full(config, HandlerRegistry::new());
    (0..2).map(|r| Ctx::new(r, sh.clone())).collect()
}

/// Bytes the third of three runs of `round` allocates on this thread.
fn steady(mut round: impl FnMut() -> u64) -> u64 {
    round();
    round();
    round()
}

static RAN: AtomicU64 = AtomicU64::new(0);

#[test]
fn a_pass_of_finish_spawns_allocates_its_ack_and_nothing_else() {
    let c = ctxs();
    let bytes = steady(|| {
        c[0].finish(|fs| {
            let before = thread_bytes();
            // Each task is 16 bytes: the scope's origin and token.
            for _ in 0..1024 {
                fs.spawn(1, |_| {});
            }
            assert_eq!(c[1].advance(), 1024);
            thread_bytes() - before
        })
    });
    // The pass's one `finish_ack`: 16 bytes of arguments behind an
    // `Arc<[u8]>`'s two counts. The parent boxed every task: 16 B each.
    assert_eq!(bytes, 32);
}

#[test]
fn an_async_on_round_trip_allocates_its_future_and_nothing_else() {
    let c = ctxs();
    let bytes = steady(|| {
        let before = thread_bytes();
        let i = 41u64;
        // 24 bytes out (origin, setter, `i`), 16 back (setter, value).
        let future = async_on(&c[0], 1, move |_| i + 1);
        assert_eq!(c[1].advance(), 1);
        assert_eq!(future.get(&c[0]), 42);
        thread_bytes() - before
    });
    // `Arc<FutureCore<u64>>`: two counts (16), the value's lock and
    // `Option<u64>` and the ready flag (32). The parent also boxed the
    // task (24) and the reply (16): 88.
    assert_eq!(bytes, 48);
}

#[test]
fn a_closure_too_large_or_too_aligned_for_the_message_is_one_box() {
    #[repr(align(16))]
    struct Aligned(u64);
    let c = ctxs();
    let large = steady(|| {
        let before = thread_bytes();
        let words = [1u64, 2, 3, 4, 5];
        let task = move || {
            RAN.fetch_add(words.iter().sum::<u64>(), Ordering::SeqCst);
        };
        assert_eq!(size_of_val(&task), 40);
        c[0].send_task(1, task);
        let bytes = thread_bytes() - before;
        assert_eq!(c[1].advance(), 1);
        bytes
    });
    assert_eq!(large, 40);
    let aligned = steady(|| {
        let before = thread_bytes();
        let three = Aligned(3);
        let task = move || {
            // A whole-value use: `three.0` alone would capture only the
            // (8-aligned) field.
            let whole = three;
            RAN.fetch_add(whole.0, Ordering::SeqCst);
        };
        assert_eq!((size_of_val(&task), align_of_val(&task)), (16, 16));
        c[0].send_task(1, task);
        let bytes = thread_bytes() - before;
        assert_eq!(c[1].advance(), 1);
        bytes
    });
    assert_eq!(aligned, 16);
    assert_eq!(RAN.load(Ordering::SeqCst), 3 * 15 + 3 * 3);
}
