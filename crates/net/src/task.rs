//! Closure tasks as active-message payloads: a function pointer and the
//! closure's captures, carried in the message itself.
//!
//! The paper's `async` "packs the task function pointer and its arguments
//! into a contiguous buffer" (§IV). A [`TaskFn`] is that buffer for a Rust
//! closure: a pointer to a table of two functions generated for the
//! closure's type — run it, or drop it unrun — and [`INLINE`] bytes that
//! hold the captures. A closure that does not fit (larger than [`INLINE`]
//! bytes, or aligned above 8) is boxed and the box — one thin pointer,
//! itself a closure that fits — is stored instead, under the same scheme.
//! So there is one representation and one constructor, and a task
//! allocates only when its captures outgrow the message.
//!
//! **Why 24 bytes.** A task is a table pointer and [`INLINE`] bytes: 32
//! bytes, the size of the handler arguments' [`Bytes`](rupcxx_util::Bytes)
//! beside it in `AmPayload`, so the payload is 40 bytes (one word tells
//! the variants apart) and an `AmMessage` 56 — an inbox slot's sequence
//! word and the whole message share one 64-byte line
//! (`layout_costs_no_payload_byte` pins all three). Three words hold every
//! closure of the task path: a `finish` spawn is 16 bytes (`origin`,
//! `token`) plus up to 8 of the user's captures; an `async_on` task 24
//! (`origin`, the future's setter, and up to 8 bytes of captures — a
//! `u64` argument); its reply 16 (the setter and a `u64` value); a
//! `spawn_with_result` task 24 and its reply 24 (the setter, the scope's
//! origin and token in one word, and up to 8 bytes of captures or a `u64`
//! value).
//! What is larger — an MPI eager send, a closure that captures more than
//! a word of its own beside those — is boxed. A fourth word would put
//! every message on a second line for captures the task path does not
//! have.

use std::any::Any;
use std::marker::PhantomData;
use std::mem::{align_of, size_of, ManuallyDrop, MaybeUninit};

/// Bytes of captures a task carries in its message.
const INLINE: usize = 24;

/// Where a task's closure (or the box holding it) is stored.
#[repr(C, align(8))]
struct Slot(MaybeUninit<[u8; INLINE]>);

/// What can be done with the closure in a [`Slot`], for one closure type.
struct Table {
    /// Move the closure out of the slot and call it.
    run: unsafe fn(*mut Slot, &dyn Any),
    /// Drop the closure in the slot, unrun.
    drop: unsafe fn(*mut Slot),
}

/// A closure task: run once by whoever executes it, which passes its own
/// execution context — the runtime's per-rank `Ctx`, which this crate
/// cannot name — so a task that needs the target rank's context borrows it
/// for the call instead of carrying (and reference-counting) shared state
/// of its own. Captures of up to 24 bytes ride in the task itself; see the
/// module docs.
///
/// A task that is never run — lost on a dead link, parked by the
/// scheduler, left in an inbox at teardown — drops its captures when it is
/// dropped.
pub struct TaskFn {
    /// The table of the type `slot` holds.
    table: &'static Table,
    slot: Slot,
    /// Opts out of the auto traits: the slot is plain bytes to the
    /// compiler, which would make any closure `Send` and `Sync`.
    _captures: PhantomData<*mut ()>,
}

// SAFETY: `slot` holds a closure that `TaskFn::new` required to be `Send`
// (or a `Box` of one), and `table` is a `&'static` of function pointers;
// moving the task to another thread moves exactly those. It is not `Sync`
// (no method takes `&self`, and the closure need not be `Sync`).
unsafe impl Send for TaskFn {}

impl TaskFn {
    /// Package `f` as a task: in the message when its captures fit in 24
    /// bytes aligned to at most 8, else in a box whose pointer does.
    #[inline]
    pub fn new<F: FnOnce(&dyn Any) + Send + 'static>(f: F) -> Self {
        if fits::<F>() {
            Self::store(f)
        } else {
            Self::store(Box::new(f))
        }
    }

    /// Store `f` in the slot, with the table for its type.
    #[inline]
    fn store<F: FnOnce(&dyn Any) + Send + 'static>(f: F) -> Self {
        // Folded to nothing: `new` only stores types that fit.
        assert!(fits::<F>(), "a task's captures must fit its slot");
        let mut slot = Slot(MaybeUninit::uninit());
        // SAFETY: `fits` — the slot is large and aligned enough for an `F`,
        // and nothing is in it yet.
        unsafe { (&raw mut slot).cast::<F>().write(f) };
        TaskFn {
            table: const {
                &Table {
                    run: run_slot::<F>,
                    drop: drop_slot::<F>,
                }
            },
            slot,
            _captures: PhantomData,
        }
    }

    /// Run the task, handing it `executor`.
    #[inline]
    pub fn run(self, executor: &dyn Any) {
        // The task counts as consumed before the call: `run_slot` moves the
        // closure out, so a closure that panics has its captures dropped by
        // the unwinding — once — and never again by `Drop`.
        let mut task = ManuallyDrop::new(self);
        // SAFETY: the slot holds the closure `table` was made for, put
        // there by `store` and neither run nor dropped since (`run` takes
        // the task by value, and `task` is not used or dropped again).
        unsafe { (task.table.run)(&raw mut task.slot, executor) }
    }
}

impl Drop for TaskFn {
    fn drop(&mut self) {
        // SAFETY: as in `run` — an unrun task's slot holds the closure its
        // table was made for; `run` bypasses this drop.
        unsafe { (self.table.drop)(&raw mut self.slot) }
    }
}

/// Whether an `F` fits a [`Slot`] in size and alignment.
const fn fits<F>() -> bool {
    size_of::<F>() <= size_of::<Slot>() && align_of::<F>() <= align_of::<Slot>()
}

/// [`Table::run`] for closures of type `F`.
///
/// # Safety
/// `slot` must hold an `F`, which the caller must not use or drop again.
unsafe fn run_slot<F: FnOnce(&dyn Any)>(slot: *mut Slot, executor: &dyn Any) {
    // SAFETY: the caller's contract: an `F` is there and is ours to move.
    let f = unsafe { slot.cast::<F>().read() };
    f(executor);
}

/// [`Table::drop`] for closures of type `F`.
///
/// # Safety
/// `slot` must hold an `F`, which the caller must not use or drop again.
unsafe fn drop_slot<F>(slot: *mut Slot) {
    // SAFETY: the caller's contract: an `F` is there and is ours to drop.
    unsafe { slot.cast::<F>().drop_in_place() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::{AmMessage, AmPayload};
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;
    use std::collections::VecDeque;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    thread_local! {
        static BYTES: Cell<usize> = const { Cell::new(0) };
    }

    /// `System`, counting what each thread allocates: how these tests see
    /// which path a closure took.
    struct Counting;

    // SAFETY: every block comes from `System` with the caller's layout and
    // goes back to it with the same.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let _ = BYTES.try_with(|b| b.set(b.get() + layout.size()));
            // SAFETY: the caller's contract (non-zero size) carries over.
            unsafe { System.alloc(layout) }
        }

        // Forwarded, not left to the default (`alloc` + a memset): a
        // segment's zeroed words must stay untouched pages in this binary
        // too (`segment::tests::a_segment_costs_the_pages_it_touches`).
        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            let _ = BYTES.try_with(|b| b.set(b.get() + layout.size()));
            // SAFETY: as for `alloc`.
            unsafe { System.alloc_zeroed(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: `ptr` came from `System` with `layout`.
            unsafe { System.dealloc(ptr, layout) }
        }
    }

    #[global_allocator]
    static COUNTING: Counting = Counting;

    /// `TaskFn::new(f)` and the bytes that allocated on this thread.
    fn counted<F: FnOnce(&dyn Any) + Send + 'static>(f: F) -> (TaskFn, usize) {
        let before = BYTES.with(Cell::get);
        let task = TaskFn::new(f);
        (task, BYTES.with(Cell::get) - before)
    }

    #[test]
    fn layout_costs_no_payload_byte() {
        assert_eq!(size_of::<TaskFn>(), 32);
        assert_eq!(size_of::<AmPayload>(), 40);
        assert_eq!(size_of::<AmMessage>(), 56);
    }

    #[test]
    fn an_unrun_task_drops_its_captures_inline_and_boxed() {
        let capture = Arc::new(7u64);
        let c = capture.clone();
        let (inline, bytes) = counted(move |_: &dyn Any| assert_eq!(*c, 7));
        assert_eq!(bytes, 0);
        assert_eq!(Arc::strong_count(&capture), 2);
        drop(inline);
        assert_eq!(Arc::strong_count(&capture), 1);

        let (c, pad) = (capture.clone(), [1u64; 4]);
        let (boxed, bytes) = counted(move |_: &dyn Any| assert_eq!(*c + pad[3], 8));
        assert_eq!(bytes, 40);
        assert_eq!(Arc::strong_count(&capture), 2);
        drop(boxed);
        assert_eq!(Arc::strong_count(&capture), 1);
    }

    /// Counts its drops: a double drop reads 2.
    struct Noisy(Arc<AtomicUsize>);

    impl Drop for Noisy {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn a_task_that_panics_drops_its_captures_once() {
        let drops = Arc::new(AtomicUsize::new(0));
        let noisy = Noisy(drops.clone());
        let (inline, bytes) = counted(move |_| {
            let _keep = &noisy;
            panic!("task panics");
        });
        assert_eq!(bytes, 0);
        assert!(catch_unwind(AssertUnwindSafe(|| inline.run(&()))).is_err());
        assert_eq!(drops.load(Ordering::SeqCst), 1);

        let (noisy, pad) = (Noisy(drops.clone()), [0u64; 4]);
        let (boxed, bytes) = counted(move |_| {
            let _keep = (&noisy, pad);
            panic!("task panics");
        });
        assert_eq!(bytes, 40);
        assert!(catch_unwind(AssertUnwindSafe(|| boxed.run(&()))).is_err());
        assert_eq!(drops.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn a_zero_sized_closure_runs() {
        static RAN: AtomicUsize = AtomicUsize::new(0);
        fn bump(_: &dyn Any) {
            RAN.fetch_add(1, Ordering::SeqCst);
        }
        assert_eq!(size_of_val(&bump), 0);
        let (task, bytes) = counted(bump);
        assert_eq!(bytes, 0);
        task.run(&());
        assert_eq!(RAN.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn an_over_aligned_or_25_byte_closure_is_boxed_and_runs() {
        static SUM: AtomicUsize = AtomicUsize::new(0);
        #[repr(align(16))]
        struct Aligned(u64);

        let aligned = Aligned(3);
        let closure = move |_: &dyn Any| {
            // A whole-value use: `aligned.0` alone would capture only the
            // (8-aligned) field.
            let whole = aligned;
            SUM.fetch_add(whole.0 as usize, Ordering::SeqCst);
        };
        assert_eq!((size_of_val(&closure), align_of_val(&closure)), (16, 16));
        let (task, bytes) = counted(closure);
        assert_eq!(bytes, 16);
        task.run(&());

        let fives = [5u8; 25];
        let closure = move |_: &dyn Any| {
            SUM.fetch_add(fives.iter().map(|&b| b as usize).sum(), Ordering::SeqCst);
        };
        assert_eq!(size_of_val(&closure), 25);
        let (task, bytes) = counted(closure);
        assert_eq!(bytes, 25);
        task.run(&());

        // 24 bytes aligned to 8: the largest closure that rides inline.
        let words = [1u64, 2, 3];
        let closure = move |_: &dyn Any| {
            SUM.fetch_add(words.iter().sum::<u64>() as usize, Ordering::SeqCst);
        };
        assert_eq!(size_of_val(&closure), 24);
        let (task, bytes) = counted(closure);
        assert_eq!(bytes, 0);
        task.run(&());
        assert_eq!(SUM.load(Ordering::SeqCst), 3 + 125 + 6);
    }

    #[test]
    fn a_task_moved_through_a_queue_runs_on_another_thread_with_its_captures() {
        let seen = Arc::new(AtomicUsize::new(0));
        let mut queue = VecDeque::new();
        for i in 0..64u64 {
            let (s, word) = (seen.clone(), 3 * i);
            queue.push_back(TaskFn::new(move |executor| {
                let base = executor.downcast_ref::<u64>().expect("a u64 executor");
                s.fetch_add((base + word) as usize, Ordering::SeqCst);
            }));
            // Grow the deque under the queued tasks now and then: they move.
            if i % 8 == 0 {
                queue.reserve(queue.capacity() + 1);
            }
        }
        std::thread::spawn(move || queue.into_iter().for_each(|task| task.run(&1u64)))
            .join()
            .expect("the thread that runs the tasks");
        assert_eq!(seen.load(Ordering::SeqCst), 64 + 3 * (63 * 64 / 2));
        assert_eq!(Arc::strong_count(&seen), 1);
    }
}
