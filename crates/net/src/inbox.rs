//! AM inbox: a ring of message slots every producer claims one of, an
//! overflow lane for when the ring is full, and an owner-side block the
//! consumer pops from.
//!
//! **One handoff per message.** A push claims the ring position at `tail`
//! by one CAS, writes the message into that position's slot and publishes
//! it by storing the slot's sequence word; a pop checks the word of the
//! slot at `head`, reads the message out in place and hands the slot to
//! the producers of the next lap with one more store (Vyukov's bounded
//! MPMC queue). Neither side takes a lock or touches a shared length.
//!
//! **One line per message.** A slot is its sequence word and one
//! message side by side — 8 + 56 bytes for an `AmMessage`, whose checker
//! and profiler annotations ride behind one pointer (`AmHeader`) — so the
//! word and the whole message fill the slot's first 64-byte line and one
//! line transfer hands both over. The slot is aligned to the 128-byte
//! blocks [`CachePadded`] uses (x86-64 prefetches lines in adjacent
//! pairs), its second line padding: the producer writing slot `i + 1`
//! takes no line away from the consumer reading slot `i`. A message past
//! 56 bytes would spill onto that second line, and a handoff would move
//! both (the asserts below and beside `AmMessage` refuse to build it).
//! A 64-byte slot, two to a prefetched pair, ran the `tasks` workload at
//! 0.93× and `runtime.barrier_ns` at 1.23× (EXPERIMENTS.md "One line per
//! message"), so the slot keeps its block.
//!
//! **Who writes which block.** Producers write their block (`tail`) and
//! the slots they fill; the consuming rank writes its own block (`head`,
//! and the batch it took over from the overflow, under the consumer lock)
//! and the slots it empties. The overflow lane has a third block, written
//! only while the ring is full or a takeover is due, so the overflow's
//! length — which every push and every empty poll reads — sits clean in
//! both sides' caches. The ring's address is kept in the producers' and
//! the consumer's block alike, so neither side reads the other's block to
//! find it. A message thus moves one slot's block from producer to
//! consumer and back, and nothing else.
//!
//! **Overflow.** The ring is a fixed size and the inbox is unbounded: a
//! producer that finds the ring full pushes to the overflow lane under
//! its lock, and every producer keeps pushing there while the lane is
//! non-empty. When the ring is empty and nobody holds a slot of it
//! claimed, the consumer takes the whole lane over by one `mem::swap`
//! into its batch, serves the batch, then returns to the ring.
//!
//! **Why the consumer's state lives in the inbox** and not on the stack
//! of the `advance` that pops: a task may block in `wait_until`, which
//! runs a nested `advance`, and a `progress_thread` consumer pops
//! alongside the rank's own thread. All of them continue the one FIFO —
//! the rest of a taken-over batch before anything newer — by popping
//! under the one consumer lock.
//!
//! **Order.** Pops are serialized by the consumer lock and serve the
//! ring in position order and a taken-over batch in lane order. Pushes
//! ordered by happens-before — one producer's, per-(src,dst) FIFO being
//! the fabric's ordering guarantee, and all pushes of a single-threaded or
//! `RUPCXX_SCHEDULE`-controlled run — are delivered in that order (replay,
//! chaos and conformance stay deterministic): a ring message is claimed
//! at a position below every later one; a message that went to the
//! overflow is followed there by every later push until the lane is taken
//! over, and the takeover waits for the ring to be empty up to `tail`, so
//! the ring messages pushed before it are gone and the ones pushed after
//! it (at or beyond that `tail`) are served after the batch. Concurrent
//! producers are ordered by who claimed first.
//!
//! **Counting.** [`Inbox::len`] may overcount and never misses a message
//! whose push has returned: the ring counts from a slot's claim (`tail`)
//! to its pop (`head`, read first), and the overflow's length is read
//! before the taken-over batch's, the direction a takeover moves
//! messages, which publishes the batch's length before it zeroes the
//! overflow's. Quiescence waits rely on that one-sided error.
//!
//! **Slot count.** [`SLOTS`] is a constant, not a knob: a round trip uses
//! one slot each way, a flood fills the ring and runs on through the
//! overflow at the old lane's cost, and every slot a job has cycled
//! through is resident memory. 256 is the smallest ring that kept the
//! `tasks` workload's gain: 128 lost to it in 4 of 4 pairs, and 512 and
//! 1024 ran no faster for 32 and 96 KiB more a rank (EXPERIMENTS.md "One
//! handoff per message").

use rupcxx_util::sync::{CachePadded, SpinMutex};
use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Number of ring slots (a power of two): 32 KiB of slots for an
/// `AmMessage` inbox. See the module docs.
const SLOTS: usize = 256;

/// The first position of the lap `pos` is on: what the slot of `pos`
/// holds in its sequence word while it is free for that position; one
/// more while it holds that position's message.
#[inline]
fn lap(pos: usize) -> usize {
    pos & !(SLOTS - 1)
}

/// A ring slot: the sequence word and the message it guards in the first
/// line of one 128-byte block (see the module docs).
///
/// The word starts at 0, so a fresh ring is a zeroed allocation whose
/// pages become resident as the ring is first cycled through.
#[repr(C, align(128))]
struct Slot<T> {
    seq: AtomicUsize,
    value: UnsafeCell<MaybeUninit<T>>,
}

// The word and an `AmMessage` share the slot's first line.
const _: () = assert!(
    std::mem::offset_of!(Slot<crate::fabric::AmMessage>, value)
        + std::mem::size_of::<crate::fabric::AmMessage>()
        <= 64
);

/// A locked deque with its length mirrored outside the lock: the shape of
/// the overflow lane and of the consumer's taken-over batch alike (which
/// is what lets a takeover swap one for the other).
struct Lane<T> {
    q: SpinMutex<VecDeque<T>>,
    /// Mirror of `q.len()`, stored under the lock and read without it, so
    /// an empty poll and `len()` are plain loads.
    len: AtomicUsize,
}

impl<T> Default for Lane<T> {
    fn default() -> Self {
        Lane {
            q: SpinMutex::new(VecDeque::new()),
            len: AtomicUsize::new(0),
        }
    }
}

/// The ring's address. The producers' and the consumer's block each hold
/// a copy; the inbox owns the slots (see its `Drop`).
struct Ring<T>(*const Slot<T>);

impl<T> Ring<T> {
    /// The slot of ring position `pos`.
    #[inline]
    fn slot(&self, pos: usize) -> &Slot<T> {
        // SAFETY: the pointer is to `SLOTS` slots that live as long as the
        // inbox, and `self` is a field of the inbox.
        unsafe { &*self.0.add(pos & (SLOTS - 1)) }
    }
}

/// The block the consuming rank writes.
struct Consumer<T> {
    ring: Ring<T>,
    /// Next ring position to pop; stored under `taken`'s lock, read
    /// without it by `len()` and an empty poll.
    head: AtomicUsize,
    /// The batch taken over from the overflow; its lock is the consumer
    /// lock every pop takes.
    taken: Lane<T>,
}

/// The block every producer writes on every push.
struct Producers<T> {
    ring: Ring<T>,
    /// Next ring position to claim.
    tail: AtomicUsize,
}

/// An unbounded MPMC FIFO: a ring of message slots with an overflow lane,
/// drained through an owner-side block (see module docs).
///
/// The consumer's block, the producers' block and the overflow's are 128
/// bytes each, so a producer claiming a slot takes no line away from the
/// consumer popping one, and neither side's empty check of the overflow
/// reads a line the other keeps writing; the slots are a separate
/// allocation of one block each.
#[repr(C)]
pub struct Inbox<T> {
    consumer: CachePadded<Consumer<T>>,
    producers: CachePadded<Producers<T>>,
    /// Where pushes go while the ring is full, and after that until the
    /// consumer takes the lane over. Written only then, so the length
    /// every push and every empty poll reads stays in both sides' caches.
    overflow: CachePadded<Lane<T>>,
}

// SAFETY: the two `Ring` copies point to slots the inbox alone owns and
// frees once, in `Drop`. A slot's message is written only by the producer
// whose CAS on `tail` claimed it and read only by the consumer holding the
// consumer lock, each after the other's Release store of the sequence word
// (Acquire loads on both sides); `head` and `tail` are atomics, and the
// lanes are `SpinMutex`es. Messages are moved across threads, never
// shared, so `T: Send` is what both need.
unsafe impl<T: Send> Send for Inbox<T> {}
unsafe impl<T: Send> Sync for Inbox<T> {}

impl<T> Default for Inbox<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> std::fmt::Debug for Inbox<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Inbox")
            .field("lanes", &self.lane_lens())
            .finish_non_exhaustive()
    }
}

impl<T> Inbox<T> {
    /// An empty inbox.
    #[must_use]
    pub fn new() -> Self {
        // SAFETY: an all-zero `Slot` is a free slot of lap 0: a zero
        // sequence word and an uninitialized message.
        let ring = unsafe { Box::<[Slot<T>]>::new_zeroed_slice(SLOTS).assume_init() };
        let ring: *const Slot<T> = Box::into_raw(ring).cast();
        Inbox {
            consumer: CachePadded(Consumer {
                ring: Ring(ring),
                head: AtomicUsize::new(0),
                taken: Lane::default(),
            }),
            producers: CachePadded(Producers {
                ring: Ring(ring),
                tail: AtomicUsize::new(0),
            }),
            overflow: CachePadded::default(),
        }
    }

    /// Enqueue behind everything pushed so far: into the next ring slot,
    /// or into the overflow while the ring is full or the overflow is not
    /// yet empty.
    pub fn push(&self, value: T) {
        let p = &*self.producers;
        if self.overflow.len.load(Ordering::Acquire) == 0 {
            let mut pos = p.tail.load(Ordering::Relaxed);
            loop {
                let slot = p.ring.slot(pos);
                let seq = slot.seq.load(Ordering::Acquire);
                let ahead = seq.wrapping_sub(lap(pos)) as isize;
                if ahead == 0 {
                    // Free for `pos`: claim it. Relaxed: `tail` publishes
                    // nothing; the slot's word below hands the message over.
                    match p.tail.compare_exchange_weak(
                        pos,
                        pos + 1,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => {
                            // SAFETY: the CAS made this producer the only
                            // writer of `pos`'s slot, and the consumer
                            // reads it only after the store below.
                            unsafe { (*slot.value.get()).write(value) };
                            slot.seq.store(lap(pos) + 1, Ordering::Release);
                            return;
                        }
                        Err(now) => pos = now,
                    }
                } else if ahead < 0 {
                    // Still the previous lap's: the ring is full.
                    break;
                } else {
                    // Another producer claimed `pos`; catch up.
                    pos = p.tail.load(Ordering::Relaxed);
                }
            }
        }
        let mut q = self.overflow.q.lock();
        q.push_back(value);
        self.overflow.len.store(q.len(), Ordering::Release);
    }

    /// Dequeue the oldest message: the front of the taken-over batch,
    /// else the ring's slot at `head`, else — the ring empty — the
    /// overflow, taken over whole. An empty poll is four loads and takes
    /// no lock. `None` can also mean that a producer has claimed the next
    /// slot and not yet written it, or, with a second consumer popping
    /// alongside, that the other consumer holds the lock on what is left;
    /// `len()` counts those messages.
    pub fn pop(&self) -> Option<T> {
        let (c, p) = (&*self.consumer, &*self.producers);
        if c.taken.len.load(Ordering::Acquire) == 0 {
            // A hint: a second consumer may move `head` on before the lock.
            let head = c.head.load(Ordering::Relaxed);
            if c.ring.slot(head).seq.load(Ordering::Acquire) != lap(head) + 1
                && self.overflow.len.load(Ordering::Acquire) == 0
            {
                return None;
            }
        }
        let mut taken = c.taken.q.lock();
        if let Some(value) = taken.pop_front() {
            c.taken.len.store(taken.len(), Ordering::Release);
            return Some(value);
        }
        // `head` is stored under the consumer lock only.
        let head = c.head.load(Ordering::Relaxed);
        let slot = c.ring.slot(head);
        if slot.seq.load(Ordering::Acquire) == lap(head) + 1 {
            // SAFETY: the sequence word says the slot holds `head`'s
            // message, and the consumer lock makes this its only reader.
            let value = unsafe { (*slot.value.get()).assume_init_read() };
            // Free for the next lap's producer, whose Acquire load of the
            // word orders its write after the read above.
            slot.seq.store(lap(head) + SLOTS, Ordering::Release);
            c.head.store(head + 1, Ordering::Release);
            return Some(value);
        }
        if self.overflow.len.load(Ordering::Acquire) == 0 {
            return None;
        }
        // Take the overflow over — lock order is consumer, then overflow;
        // producers hold only the latter — but only once every claimed
        // slot has been popped: a producer's ring message claimed before
        // its overflow push must be served first (module docs, "Order").
        let mut overflow = self.overflow.q.lock();
        if p.tail.load(Ordering::Acquire) != head {
            return None;
        }
        // The lane gets the batch's spent buffer back, so the two trade
        // allocations instead of making new ones. Publish before zeroing
        // (see `len`): a message is counted as taken over before it stops
        // being counted in the overflow.
        std::mem::swap(&mut *taken, &mut *overflow);
        c.taken.len.store(taken.len(), Ordering::Release);
        self.overflow.len.store(0, Ordering::Release);
        drop(overflow);
        let value = taken.pop_front();
        c.taken.len.store(taken.len(), Ordering::Release);
        value
    }

    /// Number of queued items: pushed and not yet popped, whether in the
    /// ring, in the overflow or in the taken-over batch.
    ///
    /// A racy sample with a one-sided error: a message may be counted
    /// twice while a takeover moves the overflow into the batch, and a
    /// ring slot is counted from its claim, before its message is written;
    /// but one whose `push` has returned and that no `pop`/`drain` has
    /// taken yet is never missed. The overflow is read before the batch,
    /// the direction messages move in, and the takeover publishes the
    /// batch's length before it zeroes the overflow's; the ring's `head`
    /// is read before its `tail`, and a position is behind `tail` from its
    /// claim until it is behind `head`. Quiescence waits (`agg_fence`,
    /// teardown, the deadlock checker) rely on that.
    #[must_use]
    pub fn len(&self) -> usize {
        let (queued, taken) = self.lane_lens();
        queued + taken
    }

    /// [`Inbox::len`] by stage, `(queued, taken over)`: still in the ring
    /// or the overflow where producers put them, and taken over from the
    /// overflow by the consumer but not yet popped. What a test prints
    /// when a message seems to be in no queue.
    #[must_use]
    pub fn lane_lens(&self) -> (usize, usize) {
        let (c, p) = (&*self.consumer, &*self.producers);
        let overflow = self.overflow.len.load(Ordering::Acquire);
        let taken = c.taken.len.load(Ordering::Acquire);
        let head = c.head.load(Ordering::Acquire);
        let ring = p.tail.load(Ordering::Acquire).wrapping_sub(head);
        (ring + overflow, taken)
    }

    /// True when nothing is queued; errs like [`Inbox::len`] (it may say
    /// `false` a moment too long, never `true` too early).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Take every queued item in one critical section (the consumer lock,
    /// then the overflow's): the taken-over batch first, then the ring up
    /// to the `tail` read under both locks, then the overflow — the order
    /// `pop` would serve them in. The snapshot is consistent: a
    /// concurrent push is all-in (a slot claimed below that `tail`, which
    /// this waits to see written) or all-after.
    pub fn drain(&self) -> Vec<T> {
        let (c, p) = (&*self.consumer, &*self.producers);
        let mut taken = c.taken.q.lock();
        let mut overflow = self.overflow.q.lock();
        let head = c.head.load(Ordering::Relaxed);
        let tail = p.tail.load(Ordering::Acquire);
        let mut all = Vec::with_capacity(taken.len() + (tail - head) + overflow.len());
        all.extend(taken.drain(..));
        for pos in head..tail {
            let slot = c.ring.slot(pos);
            // Its producer is between the claim and the store: a few
            // instructions, unless it was preempted.
            while slot.seq.load(Ordering::Acquire) != lap(pos) + 1 {
                std::thread::yield_now();
            }
            // SAFETY: as in `pop`.
            all.push(unsafe { (*slot.value.get()).assume_init_read() });
            slot.seq.store(lap(pos) + SLOTS, Ordering::Release);
        }
        c.head.store(tail, Ordering::Release);
        all.extend(overflow.drain(..));
        c.taken.len.store(0, Ordering::Release);
        self.overflow.len.store(0, Ordering::Release);
        all
    }
}

impl<T> Drop for Inbox<T> {
    fn drop(&mut self) {
        let ring = self.producers.ring.0.cast_mut();
        let (head, tail) = (
            *self.consumer.head.get_mut(),
            *self.producers.tail.get_mut(),
        );
        for pos in head..tail {
            // SAFETY: with `&mut self` no producer is mid-push, so every
            // position in `head..tail` holds a message nobody popped.
            unsafe {
                (*ring.add(pos & (SLOTS - 1)))
                    .value
                    .get_mut()
                    .assume_init_drop()
            };
        }
        // SAFETY: `ring` came from `Box::into_raw` of `SLOTS` slots in
        // `new`; the slots' messages are dropped above, and freeing a
        // `Slot` drops none.
        drop(unsafe { Box::from_raw(std::ptr::slice_from_raw_parts_mut(ring, SLOTS)) });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicU64};
    use std::sync::{Arc, Barrier};

    #[test]
    fn fifo_single_thread() {
        let q = Inbox::new();
        assert!(q.is_empty());
        for i in 0..10 {
            q.push(i);
        }
        assert_eq!(q.len(), 10);
        for i in 0..10 {
            assert_eq!(q.pop(), Some(i));
            assert_eq!(q.len(), 9 - i, "run-queue items still count");
        }
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn each_lane_fills_a_block() {
        use crate::fabric::AmMessage;
        use std::mem::{align_of, size_of};
        assert_eq!(align_of::<Inbox<u64>>(), 128);
        assert_eq!(size_of::<Inbox<u64>>(), 3 * 128);
        // The consumer's, the producers' and the overflow's block each
        // start a block and fill it, wherever the compiler places the
        // fields.
        assert_eq!(align_of::<CachePadded<Consumer<AmMessage>>>(), 128);
        assert_eq!(size_of::<CachePadded<Consumer<AmMessage>>>(), 128);
        assert_eq!(align_of::<CachePadded<Producers<AmMessage>>>(), 128);
        assert_eq!(size_of::<CachePadded<Producers<AmMessage>>>(), 128);
        assert_eq!(align_of::<CachePadded<Lane<AmMessage>>>(), 128);
        assert_eq!(size_of::<CachePadded<Lane<AmMessage>>>(), 128);
        // One block per slot: the sequence word and the message together,
        // in its first line.
        assert_eq!(std::mem::offset_of!(Slot<AmMessage>, value), 8);
        assert_eq!(size_of::<AmMessage>(), 56);
        assert_eq!(align_of::<Slot<AmMessage>>(), 128);
        assert_eq!(size_of::<Slot<AmMessage>>(), 128);
        assert_eq!(size_of::<Slot<u64>>(), 128);
    }

    #[test]
    fn delivery_order_is_push_order_through_pop_and_through_drain() {
        // Whichever thread pushes — this one, or three of four times a
        // thread of its own: the order is that of the pushes.
        let push_twelve = |q: &Arc<Inbox<u64>>, from: u64| {
            for v in from..from + 12 {
                if v % 4 == 0 {
                    q.push(v);
                } else {
                    let q = q.clone();
                    std::thread::spawn(move || q.push(v)).join().unwrap();
                }
            }
        };
        let q = Arc::new(Inbox::new());
        push_twelve(&q, 0);
        let got: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(got, (0..12).collect::<Vec<_>>());
        // One pop takes one slot; eleven stay in the ring, ahead of the
        // twelve pushed behind them.
        push_twelve(&q, 12);
        assert_eq!(q.pop(), Some(12));
        assert_eq!(q.lane_lens(), (11, 0));
        push_twelve(&q, 24);
        assert_eq!(q.lane_lens(), (23, 0));
        assert_eq!(q.drain(), (13..36).collect::<Vec<_>>());
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        assert_eq!(q.drain(), Vec::<u64>::new());
    }

    #[test]
    fn concurrent_producers_lose_nothing_and_keep_per_producer_order() {
        let q = Arc::new(Inbox::new());
        let producers = 8;
        let per = 500;
        let handles: Vec<_> = (0..producers)
            .map(|t| {
                let q = q.clone();
                std::thread::spawn(move || {
                    for i in 0..per {
                        q.push((t, i));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(q.len(), producers * per);
        let mut last = vec![-1i64; producers];
        let mut count = 0;
        while let Some((t, i)) = q.pop() {
            assert!(
                (i as i64) > last[t],
                "producer {t} delivered {i} after {}",
                last[t]
            );
            last[t] = i as i64;
            count += 1;
        }
        assert_eq!(count, producers * per);
    }

    #[test]
    fn fifo_across_many_refills_with_a_producer_pushing_throughout() {
        const N: u64 = 200_000;
        let q = Arc::new(Inbox::new());
        let start = Arc::new(Barrier::new(2));
        let producer = {
            let (q, start) = (q.clone(), start.clone());
            std::thread::spawn(move || {
                start.wait();
                for i in 0..N {
                    q.push(i);
                }
            })
        };
        start.wait();
        // The consumer keeps up with the producer, so the ring runs empty
        // and refills many times, and laps the ring many times over.
        let mut next = 0;
        while next < N {
            match q.pop() {
                Some(v) => {
                    assert_eq!(v, next, "out of order after {next} pops");
                    next += 1;
                }
                None => std::thread::yield_now(),
            }
        }
        producer.join().unwrap();
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn two_consumers_lose_and_duplicate_nothing_and_keep_per_producer_order() {
        const PRODUCERS: usize = 3;
        const PER: usize = 20_000;
        let q = Arc::new(Inbox::new());
        let start = Arc::new(Barrier::new(PRODUCERS + 2));
        let live = Arc::new(AtomicUsize::new(PRODUCERS));
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|t| {
                let (q, start, live) = (q.clone(), start.clone(), live.clone());
                std::thread::spawn(move || {
                    start.wait();
                    for i in 0..PER {
                        q.push((t, i));
                    }
                    live.fetch_sub(1, Ordering::Release);
                })
            })
            .collect();
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let (q, start, live) = (q.clone(), start.clone(), live.clone());
                std::thread::spawn(move || {
                    start.wait();
                    let mut got = Vec::new();
                    loop {
                        // Read "producers done" before the pop that finds
                        // nothing: only then is nothing a final answer.
                        let done = live.load(Ordering::Acquire) == 0;
                        match q.pop() {
                            Some(v) => got.push(v),
                            None if done && q.is_empty() => return got,
                            None => std::thread::yield_now(),
                        }
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        let mut seen = vec![vec![false; PER]; PRODUCERS];
        for c in consumers {
            let got = c.join().unwrap();
            // Pops are serialized by the consumer lock, so each
            // consumer sees a subsequence of every producer's order.
            let mut last = [None; PRODUCERS];
            for (t, i) in got {
                assert!(last[t] < Some(i), "producer {t}: {i} after {:?}", last[t]);
                last[t] = Some(i);
                assert!(!seen[t][i], "({t}, {i}) delivered twice");
                seen[t][i] = true;
            }
        }
        assert!(seen.iter().flatten().all(|&s| s), "a message was lost");
    }

    #[test]
    fn len_never_undercounts_across_a_handoff() {
        // Two messages a round: the producer pushes both and waits until
        // the consumer has popped both. The consumer pops the first and
        // announces `second = k` before it asks for the second. From
        // `pushed = k` until `second = k` the round's second message is
        // queued in the ring, so an observer that brackets a `len()`
        // call inside that window must never read 0. Every `HOLD`th round
        // the consumer holds the window open after its first pop until the
        // observer has sampled that round, so some samples land inside a
        // window however the threads are scheduled (one core included).
        const ROUNDS: u64 = 100_000;
        const HOLD: u64 = 64;
        let q = Arc::new(Inbox::new());
        let pushed = Arc::new(AtomicU64::new(0));
        let second = Arc::new(AtomicU64::new(0));
        let popped = Arc::new(AtomicU64::new(0));
        let sampled = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let producer = {
            let (q, pushed, popped) = (q.clone(), pushed.clone(), popped.clone());
            std::thread::spawn(move || {
                for k in 1..=ROUNDS {
                    q.push(2 * k - 1);
                    q.push(2 * k);
                    pushed.store(k, Ordering::SeqCst);
                    while popped.load(Ordering::SeqCst) < k {
                        std::thread::yield_now();
                    }
                }
            })
        };
        let consumer = {
            let (q, pushed, second, popped, sampled) = (
                q.clone(),
                pushed.clone(),
                second.clone(),
                popped.clone(),
                sampled.clone(),
            );
            std::thread::spawn(move || {
                for k in 1..=ROUNDS {
                    while pushed.load(Ordering::SeqCst) < k {
                        std::thread::yield_now();
                    }
                    assert_eq!(q.pop(), Some(2 * k - 1));
                    if k % HOLD == 0 {
                        while sampled.load(Ordering::SeqCst) < k {
                            std::thread::yield_now();
                        }
                    }
                    second.store(k, Ordering::SeqCst);
                    assert_eq!(q.pop(), Some(2 * k));
                    popped.store(k, Ordering::SeqCst);
                }
            })
        };
        let observer = {
            let (q, pushed, second, sampled, stop) = (
                q.clone(),
                pushed.clone(),
                second.clone(),
                sampled.clone(),
                stop.clone(),
            );
            std::thread::spawn(move || {
                let mut windows = 0u64;
                while !stop.load(Ordering::SeqCst) {
                    let k = pushed.load(Ordering::SeqCst);
                    let len = q.len();
                    let empty = q.is_empty();
                    if second.load(Ordering::SeqCst) < k {
                        // Message 2k was queued for the whole of both reads.
                        assert!(len >= 1, "len() == 0 in round {k}");
                        assert!(!empty, "is_empty() in round {k}");
                        windows += 1;
                    }
                    // Round `k` has been sampled: a held round may close.
                    sampled.store(k, Ordering::SeqCst);
                    // On one core, let the round the observer is watching
                    // get on with it.
                    std::thread::yield_now();
                }
                windows
            })
        };
        producer.join().unwrap();
        consumer.join().unwrap();
        stop.store(true, Ordering::SeqCst);
        let windows = observer.join().unwrap();
        assert!(q.is_empty());
        // Not a correctness condition, but a run where the observer never
        // caught a queued message has checked nothing. Every held round
        // gives at least one.
        assert!(windows > 0, "observer never sampled inside a window");
    }

    #[test]
    fn ring_overflow_and_back_keeps_per_producer_order() {
        // Stalled consumer: the first `SLOTS` pushes fill the ring, the
        // rest queue in the overflow.
        let q = Inbox::new();
        let mut pushed = 0..;
        for _ in 0..3 * SLOTS {
            q.push(pushed.next().unwrap());
        }
        assert_eq!(q.lane_lens(), (3 * SLOTS, 0));
        assert_eq!(q.overflow.len.load(Ordering::Relaxed), 2 * SLOTS);
        // Interleaved: every push goes to the overflow while it is
        // non-empty; the ring is served first, then the overflow taken
        // over, then the ring again once the overflow has emptied.
        let mut next = 0;
        let mut took_over = false;
        let mut back_in_ring = false;
        for round in 0..8 * SLOTS {
            assert_eq!(q.pop(), Some(next), "round {round}");
            next += 1;
            took_over |= q.consumer.taken.len.load(Ordering::Relaxed) > 0;
            q.push(pushed.next().unwrap());
            back_in_ring |= took_over && q.overflow.len.load(Ordering::Relaxed) == 0;
        }
        assert!(took_over && back_in_ring);
        while let Some(v) = q.pop() {
            assert_eq!(v, next);
            next += 1;
        }
        assert_eq!(Some(next), pushed.next());
        assert!(q.is_empty());

        // Two producers and two consumers across overflow takeovers: every
        // message arrives once, and each consumer sees each producer's
        // messages in push order.
        const PER: usize = 12 * SLOTS;
        let q = Arc::new(Inbox::new());
        for t in 0..2 {
            for i in 0..3 * SLOTS / 2 {
                q.push((t, i));
            }
        }
        assert!(q.overflow.len.load(Ordering::Relaxed) > 0);
        let start = Arc::new(Barrier::new(4));
        let live = Arc::new(AtomicUsize::new(2));
        let producers: Vec<_> = (0..2)
            .map(|t| {
                let (q, start, live) = (q.clone(), start.clone(), live.clone());
                std::thread::spawn(move || {
                    start.wait();
                    for i in 3 * SLOTS / 2..PER {
                        q.push((t, i));
                    }
                    live.fetch_sub(1, Ordering::Release);
                })
            })
            .collect();
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let (q, start, live) = (q.clone(), start.clone(), live.clone());
                std::thread::spawn(move || {
                    start.wait();
                    let mut got = Vec::new();
                    loop {
                        let done = live.load(Ordering::Acquire) == 0;
                        match q.pop() {
                            Some(v) => got.push(v),
                            None if done && q.is_empty() => return got,
                            None => std::thread::yield_now(),
                        }
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        let mut seen = vec![vec![false; PER]; 2];
        for c in consumers {
            let mut last = [None; 2];
            for (t, i) in c.join().unwrap() {
                assert!(last[t] < Some(i), "producer {t}: {i} after {:?}", last[t]);
                last[t] = Some(i);
                assert!(!seen[t][i], "({t}, {i}) delivered twice");
                seen[t][i] = true;
            }
        }
        assert!(seen.iter().flatten().all(|&s| s), "a message was lost");
    }

    #[test]
    fn queued_messages_are_dropped_once() {
        /// Counts its drops.
        struct Counted(Arc<AtomicUsize>);
        impl Drop for Counted {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        let q = Inbox::new();
        // A full ring, SLOTS / 2 in the overflow; popping the ring empty
        // and one more takes the overflow over, and the next pushes wait
        // in the overflow behind it.
        for _ in 0..SLOTS + SLOTS / 2 {
            q.push(Counted(drops.clone()));
        }
        for _ in 0..SLOTS + 1 {
            drop(q.pop());
        }
        assert_eq!(drops.load(Ordering::Relaxed), SLOTS + 1);
        assert_eq!(q.lane_lens(), (0, SLOTS / 2 - 1));
        // Drain the batch and move the ring's head off a lap boundary;
        // later pushes land in the ring, wrapping past its end.
        for _ in 0..SLOTS / 2 - 1 {
            drop(q.pop());
        }
        for _ in 0..5 {
            q.push(Counted(drops.clone()));
            drop(q.pop());
        }
        for _ in 0..SLOTS + 3 {
            q.push(Counted(drops.clone()));
        }
        assert_eq!(q.lane_lens(), (SLOTS + 3, 0));
        assert_eq!(q.overflow.len.load(Ordering::Relaxed), 3);
        for _ in 0..7 {
            drop(q.pop());
        }
        assert_eq!(drops.load(Ordering::Relaxed), SLOTS + SLOTS / 2 + 12);
        // Left: SLOTS - 7 in the ring, 3 in the overflow.
        drop(q);
        assert_eq!(drops.load(Ordering::Relaxed), 2 * SLOTS + SLOTS / 2 + 8);
    }
}
