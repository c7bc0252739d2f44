//! A small fixed-size thread pool with dynamic (work-queue) scheduling.
//!
//! The paper's Embree port uses "OpenMP with dynamic scheduling to balance
//! the evaluation of the tiles" *within* each UPC++ rank (§V-D). This pool is
//! the Rust stand-in: a shared index counter hands out work items to worker
//! threads on demand, which is exactly `schedule(dynamic)` behaviour.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A fixed-size pool of worker threads executing dynamically scheduled
/// parallel-for loops.
pub struct ThreadPool {
    nthreads: usize,
}

impl ThreadPool {
    /// Create a pool that will use `nthreads` workers per parallel region
    /// (including the calling thread). `nthreads == 0` is clamped to 1.
    pub fn new(nthreads: usize) -> Self {
        ThreadPool {
            nthreads: nthreads.max(1),
        }
    }

    /// Execute `body(i)` for every `i in 0..n`, distributing iterations
    /// dynamically over the pool's workers. Blocks until all iterations are
    /// complete. `body` runs concurrently from several threads.
    pub fn parallel_for<F>(&self, n: usize, body: F)
    where
        F: Fn(usize) + Sync,
    {
        if n == 0 {
            return;
        }
        if self.nthreads == 1 || n == 1 {
            for i in 0..n {
                body(i);
            }
            return;
        }
        let next = AtomicUsize::new(0);
        let nworkers = self.nthreads.min(n);
        std::thread::scope(|scope| {
            let worker = || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                body(i);
            };
            for _ in 1..nworkers {
                scope.spawn(worker);
            }
            worker();
        });
    }
}

/// A shared atomic work counter for cross-rank dynamic scheduling
/// experiments (work stealing over shared memory).
#[derive(Clone, Debug, Default)]
pub struct WorkCounter(Arc<AtomicUsize>);

impl WorkCounter {
    /// New counter starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Claim the next work index; returns `None` once `limit` is reached.
    pub fn claim(&self, limit: usize) -> Option<usize> {
        let i = self.0.fetch_add(1, Ordering::Relaxed);
        (i < limit).then_some(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn parallel_for_visits_every_index_once() {
        let pool = ThreadPool::new(4);
        let n = 1000;
        let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        pool.parallel_for(n, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        for h in &hits {
            assert_eq!(h.load(Ordering::Relaxed), 1);
        }
    }

    #[test]
    fn parallel_for_zero_and_one() {
        let pool = ThreadPool::new(3);
        pool.parallel_for(0, |_| panic!("must not run"));
        let ran = AtomicUsize::new(0);
        pool.parallel_for(1, |_| {
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ran.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn work_counter_hands_out_each_index_once() {
        let c = WorkCounter::new();
        let mut got = vec![];
        while let Some(i) = c.claim(5) {
            got.push(i);
        }
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
        assert!(c.claim(5).is_none());
    }

    #[test]
    fn single_thread_pool_is_sequential() {
        let pool = ThreadPool::new(1);
        let order = std::sync::Mutex::new(Vec::new());
        // With one worker the body runs on the calling thread in order.
        pool.parallel_for(5, |i| order.lock().unwrap().push(i));
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3, 4]);
    }
}
