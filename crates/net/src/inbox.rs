//! AM inbox: one lane every producer pushes to, and an owner-side run
//! queue that takes it over a batch at a time.
//!
//! **Who writes which block.** Producers write `arrivals`, under its
//! lock; the consuming rank writes the *run queue*, a 128-byte block of
//! its own: `pop` serves from it and only when it is empty takes over
//! what the producers queued, by one `mem::swap` of the two deques. The
//! peer's core and the owner's core therefore meet on the arrivals' line
//! once per batch instead of once per message, and the lock they meet on
//! guards a push or a swap, so it spins ([`SpinMutex`]) rather than parks.
//!
//! **Why one lane** (the paper's runtime has *a* task queue per rank,
//! §IV): no workload has two threads pushing into one inbox at once.
//! EXPERIMENTS.md "One lane" says what would bring per-producer lanes back.
//!
//! **Why the run queue lives in the inbox** and not on the stack of the
//! `advance` that filled it: a task may block in `wait_until`, which runs
//! a nested `advance`, and a `progress_thread` consumer pops alongside the
//! rank's own thread. Both must continue the one FIFO — the rest of the
//! batch before anything newer — which they do by popping the same queue
//! under the same lock.
//!
//! **Order.** Delivery order is the order in which pushes took the
//! arrivals lock: a takeover moves the lane whole, behind everything
//! taken over before it. One producer's pushes — per-(src,dst) FIFO, the
//! fabric's ordering guarantee — and all pushes of a single-threaded or
//! `RUPCXX_SCHEDULE`-controlled run are delivered in program order
//! (replay, chaos and conformance stay deterministic); concurrent
//! producers are ordered by who got the lock.

use rupcxx_util::sync::{CachePadded, SpinMutex};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A locked deque with its length mirrored outside the lock: the shape of
/// the arrivals lane and of the run queue alike (which is what lets a
/// takeover swap one for the other).
#[derive(Debug)]
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

/// An unbounded MPMC FIFO drained through an owner-side run queue (see
/// module docs).
///
/// Each lane gets a block of its own: a producer locking `arrivals` takes
/// no line away from the consumer popping the run queue.
#[derive(Debug)]
pub struct Inbox<T> {
    /// Written by the consuming rank only.
    run: CachePadded<Lane<T>>,
    /// Written by every producer.
    arrivals: CachePadded<Lane<T>>,
}

impl<T> Default for Inbox<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Inbox<T> {
    /// An empty inbox.
    #[must_use]
    pub fn new() -> Self {
        Inbox {
            run: CachePadded::default(),
            arrivals: CachePadded::default(),
        }
    }

    /// Enqueue behind everything pushed so far.
    pub fn push(&self, value: T) {
        let mut q = self.arrivals.q.lock();
        q.push_back(value);
        self.arrivals.len.store(q.len(), Ordering::Release);
    }

    /// Dequeue the oldest message: the front of the run queue, refilled
    /// from the arrivals when it runs dry. An empty poll is two loads and
    /// takes no lock. With a second consumer popping alongside, `None`
    /// can also mean "the other consumer holds the lock on what is left";
    /// `len()` still counts those messages.
    pub fn pop(&self) -> Option<T> {
        // Run queue first: while a batch lasts, the arrivals' line (which
        // producers keep writing) is not touched at all.
        if self.run.len.load(Ordering::Acquire) == 0
            && self.arrivals.len.load(Ordering::Acquire) == 0
        {
            return None;
        }
        let mut run = self.run.q.lock();
        if run.is_empty() {
            // Take over everything the producers have queued. Lock order
            // is run queue, then arrivals; producers hold only the
            // latter, so there is no cycle. The lane gets the run queue's
            // spent buffer back, so the two trade allocations instead of
            // making new ones.
            let mut arrivals = self.arrivals.q.lock();
            std::mem::swap(&mut *run, &mut *arrivals);
            // Publish before zeroing (see `len`): a message is counted in
            // the run queue before it stops being counted as an arrival.
            self.run.len.store(run.len(), Ordering::Release);
            self.arrivals.len.store(0, Ordering::Release);
        }
        let value = run.pop_front()?;
        self.run.len.store(run.len(), Ordering::Release);
        Some(value)
    }

    /// Number of queued items: pushed and not yet popped, whether still an
    /// arrival or already in the run queue.
    ///
    /// A racy sample with a one-sided error: while a takeover is moving
    /// the arrivals into the run queue a message may be counted twice, but
    /// one whose `push` has returned and that no `pop`/`drain` has taken
    /// yet is never missed — the arrivals are read before the run queue,
    /// the direction messages move in, and the takeover publishes the run
    /// queue's length before it zeroes the arrivals'. Quiescence waits
    /// (`agg_fence`, teardown, the deadlock checker) rely on that.
    #[must_use]
    pub fn len(&self) -> usize {
        let (arrivals, run) = self.lane_lens();
        arrivals + run
    }

    /// [`Inbox::len`] by lane, `(arrivals, run queue)`, read in that
    /// order: what a test prints when a message seems to be in no queue.
    #[must_use]
    pub fn lane_lens(&self) -> (usize, usize) {
        let arrivals = self.arrivals.len.load(Ordering::Acquire);
        (arrivals, self.run.len.load(Ordering::Acquire))
    }

    /// True when nothing is queued; errs like [`Inbox::len`] (it may say
    /// `false` a moment too long, never `true` too early).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Take every queued item in one critical section (the run queue's
    /// lock, then the arrivals'): the run queue's items first — they were
    /// taken over earlier. The snapshot is consistent: concurrent pushes
    /// are all-in or all-after.
    pub fn drain(&self) -> Vec<T> {
        let mut run = self.run.q.lock();
        let mut arrivals = self.arrivals.q.lock();
        let mut all = Vec::with_capacity(run.len() + arrivals.len());
        all.extend(run.drain(..));
        all.extend(arrivals.drain(..));
        self.run.len.store(0, Ordering::Release);
        self.arrivals.len.store(0, Ordering::Release);
        all
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
        use std::mem::{align_of, size_of};
        assert_eq!(align_of::<Inbox<u64>>(), 128);
        assert_eq!(size_of::<Inbox<u64>>(), 2 * 128);
        // The owner-written run queue starts a block and fills it, so it
        // is a block of its own wherever the compiler places the field.
        assert_eq!(align_of::<CachePadded<Lane<u64>>>(), 128);
        assert_eq!(size_of::<CachePadded<Lane<u64>>>(), 128);
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
        // One pop takes all twelve over; eleven stay in the run queue,
        // ahead of the twelve pushed behind them.
        push_twelve(&q, 12);
        assert_eq!(q.pop(), Some(12));
        assert_eq!(q.lane_lens(), (0, 11));
        push_twelve(&q, 24);
        assert_eq!(q.lane_lens(), (12, 11));
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
        // both over (arrivals → run queue) and announces `second = k` before
        // it asks for the second. From `pushed = k` until `second = k`
        // the round's second message is queued — an arrival, in the run
        // queue, or mid-takeover — so an observer that brackets a `len()`
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
}
