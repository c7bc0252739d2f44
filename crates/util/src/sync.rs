//! Thin synchronization wrappers over `std::sync`.
//!
//! The workspace builds in fully offline environments, so instead of
//! `parking_lot` / `crossbeam` we keep a small local layer with the same
//! ergonomics: `lock()` returns the guard directly (a poisoned lock —
//! possible only after a rank panic, at which point the job is already
//! failing — just hands out the inner state), [`CachePadded`] keeps
//! writers off each other's cache lines, and [`SpinMutex`] guards the
//! few-instruction critical sections of the AM inbox and the aggregation
//! buffers.

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

/// Looks a [`SpinMutex`] waiter takes at a held lock before it starts
/// yielding between looks: a few hundred nanoseconds, many times the
/// longest critical section the lock is meant for.
const SPIN_PROBES: u32 = 64;

/// A test-and-test-and-set spinlock for critical sections of a few
/// instructions on hot paths: a lane of the inbox (a push, or the swap
/// that hands the arrivals to their consumer — a lock two ranks really do
/// contend) and a destination's aggregation buffer (a frame packed; once
/// a slab, the batch handed to its link under the same hold, which is
/// what keeps two threads' batches in the order they were cut — a lock
/// only threads of one rank packing for one destination meet on). The
/// uncontended lock/unlock pair is one CAS plus one release store —
/// roughly half the cost of the futex-based `std::sync::Mutex` round
/// trip — and a waiter that finds the lock held spins instead of parking
/// in the kernel, because the holder is a handful of instructions from
/// releasing it.
///
/// The spin is bounded: after `SPIN_PROBES` looks a waiter calls
/// `yield_now` between probes, so a holder that was preempted inside its
/// critical section (ranks oversubscribing the cores) — or that is
/// handing a batch to a slow link — gets the core back instead of costing
/// every waiter a timeslice. Holders must still never wait under the lock
/// for anything a waiter on it would have to do.
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
    /// Acquire the lock: spin while it is held, yielding the core between
    /// probes once the spin has run `SPIN_PROBES` long.
    #[inline]
    pub fn lock(&self) -> SpinGuard<'_, T> {
        use std::sync::atomic::Ordering;
        let mut probes = 0u32;
        loop {
            if self
                .locked
                .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
            {
                return SpinGuard { lock: self };
            }
            // Test-and-test-and-set: wait on a plain load so waiting
            // threads don't bounce the cache line with failed CASes.
            while self.locked.load(Ordering::Relaxed) {
                if probes < SPIN_PROBES {
                    probes += 1;
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
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
    fn spin_mutex_waiters_outlast_a_sleeping_holder() {
        // The holder sleeps inside its critical section — far past
        // `SPIN_PROBES` — while two waiters queue behind it: they must
        // fall back to yielding and still get the lock, one at a time.
        let lock = Arc::new(SpinMutex::new(Vec::new()));
        let held = Arc::new(std::sync::Barrier::new(3));
        let waiters: Vec<_> = (1..=2)
            .map(|id| {
                let (lock, held) = (lock.clone(), held.clone());
                std::thread::spawn(move || {
                    held.wait();
                    lock.lock().push(id);
                })
            })
            .collect();
        {
            let mut guard = lock.lock();
            held.wait();
            std::thread::sleep(std::time::Duration::from_millis(30));
            guard.push(0);
        }
        for w in waiters {
            w.join().unwrap();
        }
        let mut order = lock.lock().clone();
        assert_eq!(order[0], 0, "a waiter got in while the lock was held");
        order.sort_unstable();
        assert_eq!(order, [0, 1, 2]);
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
}
