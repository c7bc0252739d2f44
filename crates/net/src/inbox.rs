//! Sharded AM inbox: per-thread injection shards, a global sequence
//! stamp, and an owner-side run queue that takes the shards over a batch
//! at a time.
//!
//! **Who writes which block.** Producers write the stamp and their own
//! shard (thread → shard by a cheap thread-id hash), one 128-byte block
//! each, so concurrent producers touch disjoint locks. The consuming rank
//! writes the *run queue*, a block of its own: `pop` serves from it and
//! only when it is empty takes over what the producers queued — one
//! `mem::swap` of the deque when a single shard holds messages (two ranks,
//! scheduled runs), an append per shard and a sort by stamp otherwise. The
//! peer's core and the owner's core therefore meet on a shard's line once
//! per batch instead of once per message, and the lock they meet on guards
//! a push or a swap, so it spins ([`SpinMutex`]) rather than parks.
//!
//! **Why the run queue lives in the inbox** and not on the stack of the
//! `advance` that filled it: a task may block in `wait_until`, which runs
//! a nested `advance`, and a `progress_thread` consumer pops alongside the
//! rank's own thread. Both must continue the one FIFO — the rest of the
//! batch before anything newer — which they do by popping the same queue
//! under the same lock.
//!
//! **Order.** Delivery order is what the min-stamp sweep over the shards
//! gave, wherever that was defined:
//!
//! - A single producer's pushes get increasing stamps into one shard and
//!   a takeover moves a shard whole, so per-(src,dst) FIFO — the fabric's
//!   ordering guarantee — is preserved exactly.
//! - In single-threaded and `RUPCXX_SCHEDULE`-controlled runs all pushes
//!   come from one thread at a time, so stamps equal arrival order; a
//!   takeover collects everything pushed before it (every stamp below any
//!   later push) in stamp order, so pops reproduce the single-queue FIFO
//!   bit-for-bit (replay, chaos and conformance stay deterministic).
//! - Under genuinely concurrent injection the cross-producer order was
//!   lock-arrival nondeterminism; a takeover's stamp order is one valid
//!   linearization of the same race.

use rupcxx_util::sync::{CachePadded, SpinMutex};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Number of injection shards per inbox (power of two; the thread hash is
/// masked). Eight covers the "8 threads per rank" injection target while
/// keeping the consumer's sweep short.
pub const INBOX_SHARDS: usize = 8;

static NEXT_THREAD_ID: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Dense per-thread id, assigned on first use; masked into a shard
    /// index so long-lived producer threads spread across shards.
    static THREAD_SHARD: usize =
        NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed) & (INBOX_SHARDS - 1);
}

/// The calling thread's home shard index.
#[inline]
#[must_use]
pub fn thread_shard() -> usize {
    THREAD_SHARD.with(|s| *s)
}

/// A locked deque of stamped messages with its length mirrored outside
/// the lock: the shape of a producer shard and of the run queue alike
/// (the same element type is what lets a takeover swap one for the other).
#[derive(Debug)]
struct Lane<T> {
    q: SpinMutex<VecDeque<(u64, T)>>,
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

/// An unbounded MPMC FIFO sharded by injecting thread, drained through an
/// owner-side run queue (see module docs).
///
/// The run queue, the stamp and each shard get a block of their own: a
/// producer locking its shard takes no line away from the consumer
/// popping the run queue, from the consumer's sweep over the other
/// shards' `len`, or from a producer on the next shard.
#[derive(Debug)]
pub struct ShardedInbox<T> {
    /// Written by the consuming rank only.
    run: CachePadded<Lane<T>>,
    next_seq: CachePadded<AtomicU64>,
    shards: [CachePadded<Lane<T>>; INBOX_SHARDS],
}

impl<T> Default for ShardedInbox<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> ShardedInbox<T> {
    /// An empty inbox with [`INBOX_SHARDS`] shards.
    #[must_use]
    pub fn new() -> Self {
        ShardedInbox {
            run: CachePadded::default(),
            next_seq: CachePadded::default(),
            shards: std::array::from_fn(|_| CachePadded::default()),
        }
    }

    /// Enqueue on the calling thread's shard, stamped with the next global
    /// sequence number. Producers on different shards contend only on the
    /// stamp's `fetch_add`, not on a queue lock.
    pub fn push(&self, value: T) {
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let shard = &self.shards[thread_shard()];
        let mut q = shard.q.lock();
        q.push_back((seq, value));
        shard.len.store(q.len(), Ordering::Release);
    }

    /// Dequeue the oldest message: the front of the run queue, refilled
    /// from the shards when it runs dry. An empty poll is one sweep of
    /// loads and takes no lock. With a second consumer popping alongside,
    /// `None` can also mean "the other consumer holds the lock on what is
    /// left"; `len()` still counts those messages.
    pub fn pop(&self) -> Option<T> {
        // Run queue first: while a batch lasts, the shards' lines (which
        // producers keep writing) are not touched at all.
        if self.run.len.load(Ordering::Acquire) == 0 && self.shards_empty() {
            return None;
        }
        let mut run = self.run.q.lock();
        if run.is_empty() {
            self.take_over(&mut run);
        }
        let (_, value) = run.pop_front()?;
        self.run.len.store(run.len(), Ordering::Release);
        Some(value)
    }

    /// Move everything the producers have queued into the (empty) run
    /// queue, in stamp order. Lock order is run queue, then one shard at a
    /// time; producers hold exactly one shard lock, so there is no cycle.
    fn take_over(&self, run: &mut VecDeque<(u64, T)>) {
        let mut taken = 0;
        for shard in &self.shards {
            if shard.len.load(Ordering::Acquire) == 0 {
                continue;
            }
            let mut q = shard.q.lock();
            if run.is_empty() {
                // The shard gets the run queue's spent buffer back, so the
                // two trade allocations instead of making new ones.
                std::mem::swap(run, &mut *q);
            } else {
                run.append(&mut q);
            }
            // Publish before zeroing (see `len`): a message is counted in
            // the run queue before it stops being counted in its shard.
            self.run.len.store(run.len(), Ordering::Release);
            shard.len.store(0, Ordering::Release);
            taken += 1;
        }
        if taken > 1 {
            // Stamps are unique, so an unstable sort is deterministic.
            run.make_contiguous().sort_unstable_by_key(|(seq, _)| *seq);
        }
    }

    fn shards_empty(&self) -> bool {
        self.shards
            .iter()
            .all(|s| s.len.load(Ordering::Acquire) == 0)
    }

    /// Number of queued items: pushed and not yet popped, whether still on
    /// a shard or already in the run queue.
    ///
    /// A racy sample with a one-sided error: while a takeover is moving a
    /// shard into the run queue a message may be counted twice, but one
    /// whose `push` has returned and that no `pop`/`drain` has taken yet is
    /// never missed — the shards are read before the run queue, the
    /// direction messages move in, and the takeover publishes the run
    /// queue's length before it zeroes the shard's. Quiescence waits
    /// (`agg_fence`, teardown, the deadlock checker) rely on that.
    #[must_use]
    pub fn len(&self) -> usize {
        let shards: usize = self
            .shards
            .iter()
            .map(|s| s.len.load(Ordering::Acquire))
            .sum();
        shards + self.run.len.load(Ordering::Acquire)
    }

    /// True when nothing is queued; errs like [`ShardedInbox::len`] (it
    /// may say `false` a moment too long, never `true` too early).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.shards_empty() && self.run.len.load(Ordering::Acquire) == 0
    }

    /// Take every queued item in one critical section (the run queue's
    /// lock, then all shard locks in index order): the run queue's items
    /// first — they were taken over earlier — then the shards' merged into
    /// stamp order. The snapshot is consistent: concurrent pushes are
    /// all-in or all-after.
    pub fn drain(&self) -> Vec<T> {
        let mut run = self.run.q.lock();
        let mut guards: Vec<_> = self.shards.iter().map(|s| s.q.lock()).collect();
        let queued: usize = guards.iter().map(|g| g.len()).sum();
        let mut stamped = Vec::with_capacity(run.len() + queued);
        stamped.extend(run.drain(..));
        let taken_over = stamped.len();
        for (g, shard) in guards.iter_mut().zip(self.shards.iter()) {
            stamped.extend(g.drain(..));
            shard.len.store(0, Ordering::Release);
        }
        self.run.len.store(0, Ordering::Release);
        stamped[taken_over..].sort_unstable_by_key(|(seq, _)| *seq);
        stamped.into_iter().map(|(_, v)| v).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::{Arc, Barrier};

    /// Push `value` from a fresh thread, which lands on that thread's
    /// shard (consecutive fresh threads take consecutive shards).
    fn push_from_new_thread(q: &Arc<ShardedInbox<u64>>, value: u64) {
        let q = q.clone();
        std::thread::spawn(move || q.push(value)).join().unwrap();
    }

    #[test]
    fn fifo_single_thread() {
        let q = ShardedInbox::new();
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
    fn run_queue_stamp_and_shards_fill_a_block_each() {
        use std::mem::{align_of, size_of};
        assert_eq!(align_of::<ShardedInbox<u64>>(), 128);
        assert_eq!(size_of::<ShardedInbox<u64>>(), (2 + INBOX_SHARDS) * 128);
        // The owner-written run queue starts a block and fills it, so it
        // is a block of its own wherever the compiler places the field.
        assert_eq!(align_of::<CachePadded<Lane<u64>>>(), 128);
        assert_eq!(size_of::<CachePadded<Lane<u64>>>(), 128);
    }

    #[test]
    fn drain_merges_in_stamp_order() {
        let q = ShardedInbox::new();
        for i in 0..7 {
            q.push(i);
        }
        assert_eq!(q.drain(), (0..7).collect::<Vec<_>>());
        assert!(q.is_empty());
        assert_eq!(q.drain(), Vec::<i32>::new());
    }

    #[test]
    fn drain_returns_run_queue_items_ahead_of_shard_items() {
        let q = Arc::new(ShardedInbox::new());
        for v in 0..4 {
            q.push(v);
        }
        // One pop takes all four over; three stay in the run queue.
        assert_eq!(q.pop(), Some(0));
        // Newer messages on two other shards, pushed in stamp order.
        push_from_new_thread(&q, 10);
        push_from_new_thread(&q, 11);
        q.push(12);
        assert_eq!(q.len(), 6);
        assert_eq!(q.drain(), vec![1, 2, 3, 10, 11, 12]);
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn concurrent_producers_lose_nothing_and_keep_per_producer_order() {
        let q = Arc::new(ShardedInbox::new());
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
    fn pop_takes_globally_oldest_across_shards() {
        // Fresh threads land on different shards; stamps interleave the
        // shards (0 and 2 on one, 1 and 3 on the next two, ...), so only a
        // stamp-ordered takeover gets this right.
        let q = Arc::new(ShardedInbox::new());
        for round in 0..3 {
            q.push(round * 4);
            for v in 1..4 {
                push_from_new_thread(&q, round * 4 + v);
            }
        }
        let got: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(got, (0..12).collect::<Vec<_>>());
    }

    #[test]
    fn fifo_across_many_refills_with_a_producer_pushing_throughout() {
        const N: u64 = 200_000;
        let q = Arc::new(ShardedInbox::new());
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
        // Each empty→non-empty transition of the run queue is a refill;
        // the consumer keeps up with the producer, so there are many.
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
        let q = Arc::new(ShardedInbox::new());
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
            // Pops are serialized by the run queue's lock, so each
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
        // the consumer has popped both. The consumer's first pop takes
        // both over (shard → run queue) and announces `second = k` before
        // it asks for the second. From `pushed = k` until `second = k`
        // the round's second message is queued — on the shard, in the run
        // queue, or mid-takeover — so an observer that brackets a `len()`
        // call inside that window must never read 0.
        const ROUNDS: u64 = 100_000;
        let q = Arc::new(ShardedInbox::new());
        let pushed = Arc::new(AtomicU64::new(0));
        let second = Arc::new(AtomicU64::new(0));
        let popped = Arc::new(AtomicU64::new(0));
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
            let (q, pushed, second, popped) =
                (q.clone(), pushed.clone(), second.clone(), popped.clone());
            std::thread::spawn(move || {
                for k in 1..=ROUNDS {
                    while pushed.load(Ordering::SeqCst) < k {
                        std::thread::yield_now();
                    }
                    assert_eq!(q.pop(), Some(2 * k - 1));
                    second.store(k, Ordering::SeqCst);
                    assert_eq!(q.pop(), Some(2 * k));
                    popped.store(k, Ordering::SeqCst);
                }
            })
        };
        let observer = {
            let (q, pushed, second, stop) =
                (q.clone(), pushed.clone(), second.clone(), stop.clone());
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
        // caught a queued message has checked nothing.
        assert!(windows > 0, "observer never sampled inside a window");
    }
}
