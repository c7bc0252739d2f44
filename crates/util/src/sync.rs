//! Thin synchronization wrappers over `std::sync`.
//!
//! The workspace builds in fully offline environments, so instead of
//! `parking_lot` / `crossbeam` we keep a small local layer with the same
//! ergonomics: `lock()` returns the guard directly (a poisoned lock —
//! possible only after a rank panic, at which point the job is already
//! failing — just hands out the inner state), and [`SegQueue`] provides
//! the unbounded MPMC queue the fabric uses for AM inboxes.

use std::collections::VecDeque;
use std::sync::Mutex as StdMutex;
use std::sync::RwLock as StdRwLock;
use std::sync::{MutexGuard, RwLockReadGuard, RwLockWriteGuard};

/// A mutex whose `lock()` returns the guard directly (parking_lot-style).
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized> {
    inner: StdMutex<T>,
}

impl<T> Mutex<T> {
    /// Wrap `value` in a mutex.
    pub const fn new(value: T) -> Self {
        Mutex {
            inner: StdMutex::new(value),
        }
    }

    /// Consume the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, blocking the calling thread.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Try to acquire the lock without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(g) => Some(g),
            Err(std::sync::TryLockError::Poisoned(e)) => Some(e.into_inner()),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

/// A reader-writer lock with guard-returning `read()`/`write()`.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized> {
    inner: StdRwLock<T>,
}

impl<T> RwLock<T> {
    /// Wrap `value` in a reader-writer lock.
    pub fn new(value: T) -> Self {
        RwLock {
            inner: StdRwLock::new(value),
        }
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquire a shared read guard.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.inner.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Acquire an exclusive write guard.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.inner.write().unwrap_or_else(|e| e.into_inner())
    }
}

/// Pads and aligns a value to 128 bytes so that it shares no cache line
/// with its neighbours — in an array (one slot per rank), or as the first
/// field of a group inside a `#[repr(C)]` struct, where it also starts the
/// fields after it on a fresh line. 128 rather than 64 because x86-64
/// prefetches lines in adjacent pairs, so two writers 64 bytes apart
/// still take each other's line away.
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct CachePadded<T>(pub T);

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> std::ops::DerefMut for CachePadded<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

/// A test-and-test-and-set spinlock for tiny, almost-always-uncontended
/// critical sections on hot paths (e.g. a per-thread aggregation shard's
/// frame buffer: the owning thread is effectively the only locker, and
/// hold times are a few dozen nanoseconds). The uncontended lock/unlock
/// pair is one CAS plus one release store — roughly half the cost of the
/// futex-based `std::sync::Mutex` round trip. Do NOT use it where a
/// holder can block or the lock is regularly contended: waiters burn CPU.
#[derive(Default)]
pub struct SpinMutex<T: ?Sized> {
    locked: std::sync::atomic::AtomicBool,
    value: std::cell::UnsafeCell<T>,
}

// SAFETY: the lock provides the needed mutual exclusion; like `Mutex`,
// sharing requires the inner value to be `Send` (the guard hands out
// `&mut T` across threads).
unsafe impl<T: ?Sized + Send> Send for SpinMutex<T> {}
unsafe impl<T: ?Sized + Send> Sync for SpinMutex<T> {}

impl<T> SpinMutex<T> {
    /// Wrap `value` in a spinlock.
    pub const fn new(value: T) -> Self {
        SpinMutex {
            locked: std::sync::atomic::AtomicBool::new(false),
            value: std::cell::UnsafeCell::new(value),
        }
    }

    /// Consume the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.value.into_inner()
    }
}

impl<T: ?Sized> SpinMutex<T> {
    /// Acquire the lock, spinning until it is free.
    #[inline]
    pub fn lock(&self) -> SpinGuard<'_, T> {
        use std::sync::atomic::Ordering;
        loop {
            if self
                .locked
                .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
            {
                return SpinGuard { lock: self };
            }
            // Test-and-test-and-set: spin on a plain load so waiting
            // threads don't bounce the cache line with failed CASes.
            while self.locked.load(Ordering::Relaxed) {
                std::hint::spin_loop();
            }
        }
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        self.value.get_mut()
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for SpinMutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpinMutex").finish_non_exhaustive()
    }
}

/// Guard returned by [`SpinMutex::lock`]; releases on drop.
pub struct SpinGuard<'a, T: ?Sized> {
    lock: &'a SpinMutex<T>,
}

impl<T: ?Sized> std::ops::Deref for SpinGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        // SAFETY: the guard holds the lock.
        unsafe { &*self.lock.value.get() }
    }
}

impl<T: ?Sized> std::ops::DerefMut for SpinGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: the guard holds the lock exclusively.
        unsafe { &mut *self.lock.value.get() }
    }
}

impl<T: ?Sized> Drop for SpinGuard<'_, T> {
    #[inline]
    fn drop(&mut self) {
        self.lock
            .locked
            .store(false, std::sync::atomic::Ordering::Release);
    }
}

/// An unbounded MPMC FIFO queue (the AM-inbox shape of
/// `crossbeam::queue::SegQueue`). A mutexed `VecDeque` is plenty for the
/// fabric's contention profile: at most one producer rank pushing while
/// the owner rank's progress engine pops.
#[derive(Debug)]
pub struct SegQueue<T> {
    inner: Mutex<VecDeque<T>>,
}

impl<T> Default for SegQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> SegQueue<T> {
    /// An empty queue.
    pub const fn new() -> Self {
        SegQueue {
            inner: Mutex::new(VecDeque::new()),
        }
    }

    /// Enqueue at the tail.
    pub fn push(&self, value: T) {
        self.inner.lock().push_back(value);
    }

    /// Dequeue from the head.
    pub fn pop(&self) -> Option<T> {
        self.inner.lock().pop_front()
    }

    /// Number of queued items.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().is_empty()
    }

    /// Take every queued item in one critical section, in FIFO order.
    ///
    /// Unlike a `pop()` loop interleaved with `len()` calls, the snapshot
    /// is consistent: items pushed concurrently are either all-in or
    /// all-after, never observed half-drained. Tests asserting on inbox
    /// contents use this to avoid racy observations.
    ///
    /// The output is reserved to the exact queue length inside the
    /// critical section, so draining a large inbox is one allocation and
    /// one pass — no grow-and-move reallocation, and (unlike a
    /// `VecDeque → Vec` conversion) no in-place rotation of a wrapped
    /// ring buffer.
    pub fn drain(&self) -> Vec<T> {
        let mut q = self.inner.lock();
        let mut out = Vec::with_capacity(q.len());
        out.extend(q.drain(..));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_lock_and_try_lock() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        let g = m.lock();
        assert!(m.try_lock().is_none());
        drop(g);
        assert_eq!(m.try_lock().map(|g| *g), Some(2));
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn spin_mutex_excludes_and_releases() {
        let m = SpinMutex::new(0u64);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 1);
        assert_eq!(m.into_inner(), 1);

        let shared = Arc::new(SpinMutex::new(0u64));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let s = shared.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        *s.lock() += 1;
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*shared.lock(), 4000);
    }

    #[test]
    fn cache_padded_fills_whole_blocks() {
        use std::mem::{align_of, size_of};
        assert_eq!(align_of::<CachePadded<u8>>(), 128);
        assert_eq!(size_of::<CachePadded<u8>>(), 128);
        assert_eq!(size_of::<CachePadded<[u64; 17]>>(), 256);
        let slots = [CachePadded(1u64), CachePadded(2)];
        let gap = std::ptr::from_ref(&slots[1]) as usize - std::ptr::from_ref(&slots[0]) as usize;
        assert_eq!(gap, 128, "array neighbours sit a block apart");
        assert_eq!(*slots[0] + *slots[1], 3);
    }

    #[test]
    fn rwlock_readers_and_writer() {
        let l = RwLock::new(vec![1, 2]);
        {
            let r1 = l.read();
            let r2 = l.read();
            assert_eq!(*r1, *r2);
        }
        l.write().push(3);
        assert_eq!(l.read().len(), 3);
    }

    #[test]
    fn segqueue_fifo_and_len() {
        let q = SegQueue::new();
        assert!(q.is_empty());
        q.push(1);
        q.push(2);
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn segqueue_drain_takes_all_fifo() {
        let q = SegQueue::new();
        for i in 0..5 {
            q.push(i);
        }
        assert_eq!(q.drain(), vec![0, 1, 2, 3, 4]);
        assert!(q.is_empty());
        assert_eq!(q.drain(), Vec::<i32>::new());
        q.push(9);
        assert_eq!(q.drain(), vec![9]);
    }

    #[test]
    fn segqueue_concurrent_producers() {
        let q = Arc::new(SegQueue::new());
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let q = q.clone();
                std::thread::spawn(move || {
                    for i in 0..100 {
                        q.push(t * 100 + i);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let mut got = vec![];
        while let Some(v) = q.pop() {
            got.push(v);
        }
        got.sort_unstable();
        assert_eq!(got, (0..400).collect::<Vec<_>>());
    }
}
