//! A cheaply clonable, immutable byte buffer (the subset of the `bytes`
//! crate's `Bytes` the workspace uses, kept local so offline builds work),
//! plus the [`SlabPool`] arena that backs zero-copy frame packing.
//!
//! Active-message payloads are packed once at the sender and read once at
//! the receiver; cloning shares the allocation instead of copying. Two
//! additions serve the aggregation hot path:
//!
//! - [`Bytes::pooled`] wraps a `Vec<u8>` taken from a [`SlabPool`] without
//!   copying or shrinking it; when the last clone drops, the slab's
//!   capacity returns to the pool for the next batch. (Plain
//!   `Bytes::from(Vec)` shrinks via `into_boxed_slice`, which *reallocates
//!   and copies* whenever capacity exceeds length — fatal for buffers
//!   deliberately reserved ahead of use.)
//! - [`Bytes::slice_ref`] re-windows a shared buffer around one of its own
//!   subslices, so a receiver can hand out per-frame views of a batch
//!   without per-frame copies.

use crate::sync::Mutex;
use std::ops::Deref;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Weak};

/// A recycling arena of byte slabs for batch packing. `take` hands out a
/// cleared `Vec<u8>` with at least the requested capacity (reusing a
/// previously returned slab when one is available); slabs wrapped with
/// [`Bytes::pooled`] come back automatically when the last reader drops.
///
/// The pool also counts the slabs it has handed out and not got back
/// ([`SlabPool::out`]). A slab that travels as pooled [`Bytes`] stays
/// counted until its last reader drops it, so the count is what the
/// owner has in flight — the aggregation layer uses it as its credit
/// window: a taker that keeps `out()` at or under `max_idle` never makes
/// the pool free a returned slab, and so never makes it allocate one.
#[derive(Debug)]
pub struct SlabPool {
    slabs: Mutex<Vec<Vec<u8>>>,
    /// Retain at most this many idle slabs (excess capacity is freed).
    max_idle: usize,
    /// Slabs taken and not yet returned. A plain count that publishes no
    /// data (a slab's bytes change hands under `slabs`' lock or inside an
    /// `Arc`), so every access is `Relaxed`.
    out: AtomicUsize,
}

impl SlabPool {
    /// A pool retaining up to `max_idle` idle slabs.
    #[must_use]
    pub fn new(max_idle: usize) -> Arc<Self> {
        Arc::new(SlabPool {
            slabs: Mutex::new(Vec::new()),
            max_idle,
            out: AtomicUsize::new(0),
        })
    }

    /// Take a cleared slab with `capacity` bytes reserved. Steady state is
    /// allocation-free: the slab comes from a previous batch and already
    /// owns the capacity.
    #[must_use]
    pub fn take(&self, capacity: usize) -> Vec<u8> {
        self.out.fetch_add(1, Ordering::Relaxed);
        let recycled = self.slabs.lock().pop();
        match recycled {
            Some(mut v) => {
                v.clear();
                v.reserve(capacity);
                v
            }
            None => Vec::with_capacity(capacity),
        }
    }

    /// Return a slab obtained from [`SlabPool::take`] (its capacity is
    /// freed if the pool is full; either way it no longer counts as out).
    pub fn put(&self, mut slab: Vec<u8>) {
        slab.clear();
        {
            let mut slabs = self.slabs.lock();
            if slabs.len() < self.max_idle {
                slabs.push(slab);
            }
        }
        // Counted back only once it is idle (the lock above orders the
        // two for any taker), so a credit seen is a slab found, not an
        // allocation. Saturating, so a slab the pool never handed out
        // cannot wrap the count and wedge whoever waits on it.
        let _ = self
            .out
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                Some(n.saturating_sub(1))
            });
    }

    /// Number of idle slabs currently held.
    #[must_use]
    pub fn idle(&self) -> usize {
        self.slabs.lock().len()
    }

    /// Slabs taken and not yet returned — by [`SlabPool::put`] or by the
    /// drop of the last clone of a [`Bytes::pooled`] buffer. A slab that
    /// is dropped any other way stays counted.
    #[inline]
    #[must_use]
    pub fn out(&self) -> usize {
        self.out.load(Ordering::Relaxed)
    }

    /// The retain cap this pool was built with.
    #[inline]
    #[must_use]
    pub fn max_idle(&self) -> usize {
        self.max_idle
    }
}

/// A pooled buffer: the bytes plus a weak link back to the pool they
/// recycle into. Held behind `Arc` by [`Bytes::pooled`]; the `Drop` of the
/// last reference returns the slab's capacity to the pool.
#[derive(Debug)]
pub struct PooledBuf {
    data: Vec<u8>,
    pool: Weak<SlabPool>,
}

impl Drop for PooledBuf {
    fn drop(&mut self) {
        if let Some(pool) = self.pool.upgrade() {
            pool.put(std::mem::take(&mut self.data));
        }
    }
}

#[derive(Clone, Debug)]
enum Repr {
    /// Borrowed from static storage (zero allocation).
    Static(&'static [u8]),
    /// Shared heap allocation.
    Shared(Arc<[u8]>),
    /// Shared slab on loan from a [`SlabPool`].
    Pooled(Arc<PooledBuf>),
}

/// An immutable, reference-counted byte buffer with a cheap subslice
/// window (`off..off+len` into the backing storage).
#[derive(Clone, Debug)]
pub struct Bytes {
    repr: Repr,
    off: usize,
    len: usize,
}

impl Bytes {
    /// An empty buffer.
    #[must_use]
    pub const fn new() -> Self {
        Bytes {
            repr: Repr::Static(&[]),
            off: 0,
            len: 0,
        }
    }

    /// Wrap a static slice without allocating.
    #[must_use]
    pub const fn from_static(data: &'static [u8]) -> Self {
        Bytes {
            repr: Repr::Static(data),
            off: 0,
            len: data.len(),
        }
    }

    /// Copy `data` into a new shared buffer.
    #[must_use]
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes {
            len: data.len(),
            repr: Repr::Shared(Arc::from(data)),
            off: 0,
        }
    }

    /// Wrap a slab taken from `pool` without copying or reallocating; the
    /// slab (with its reserved capacity) returns to the pool when the last
    /// clone of the returned buffer drops.
    #[must_use]
    pub fn pooled(data: Vec<u8>, pool: &Arc<SlabPool>) -> Self {
        Bytes {
            len: data.len(),
            repr: Repr::Pooled(Arc::new(PooledBuf {
                data,
                pool: Arc::downgrade(pool),
            })),
            off: 0,
        }
    }

    /// Length in bytes.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the buffer is empty.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// View as a slice.
    #[inline]
    #[must_use]
    pub fn as_slice(&self) -> &[u8] {
        let backing: &[u8] = match &self.repr {
            Repr::Static(s) => s,
            Repr::Shared(a) => a,
            Repr::Pooled(p) => &p.data,
        };
        &backing[self.off..self.off + self.len]
    }

    /// Re-window this buffer around `sub`, which must be a subslice of
    /// `self.as_slice()` (checked by pointer range). The result shares the
    /// backing storage — no copy, no allocation beyond the handle — which
    /// is how batch receivers hand out per-frame argument views.
    #[must_use]
    pub fn slice_ref(&self, sub: &[u8]) -> Self {
        let base = self.as_slice().as_ptr() as usize;
        let sp = sub.as_ptr() as usize;
        assert!(
            sp >= base && sp + sub.len() <= base + self.len,
            "slice_ref argument is not a subslice of this buffer"
        );
        Bytes {
            repr: self.repr.clone(),
            off: self.off + (sp - base),
            len: sub.len(),
        }
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Bytes {
            len: v.len(),
            repr: Repr::Shared(Arc::from(v.into_boxed_slice())),
            off: 0,
        }
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(s: &'static [u8]) -> Self {
        Bytes::from_static(s)
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for Bytes {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_len() {
        assert!(Bytes::new().is_empty());
        let s = Bytes::from_static(&[1, 2, 3]);
        assert_eq!(s.len(), 3);
        let c = Bytes::copy_from_slice(&[4, 5]);
        assert_eq!(&c[..], &[4, 5]);
        let v = Bytes::from(vec![6]);
        assert_eq!(v.as_ref(), &[6]);
    }

    #[test]
    fn clone_shares_and_compares() {
        let a = Bytes::from(vec![1, 2, 3]);
        let b = a.clone();
        assert_eq!(a, b);
        assert_eq!(b.to_vec(), vec![1, 2, 3]);
    }

    #[test]
    fn slice_ref_shares_backing() {
        let a = Bytes::from(vec![0, 1, 2, 3, 4, 5]);
        let mid = a.slice_ref(&a.as_slice()[2..5]);
        assert_eq!(&mid[..], &[2, 3, 4]);
        // Window of a window.
        let inner = mid.slice_ref(&mid.as_slice()[1..2]);
        assert_eq!(&inner[..], &[3]);
    }

    #[test]
    #[should_panic(expected = "not a subslice")]
    fn slice_ref_rejects_foreign_slices() {
        let a = Bytes::from(vec![1, 2, 3]);
        let other = [9u8; 3];
        let _ = a.slice_ref(&other);
    }

    #[test]
    fn pool_recycles_capacity_through_bytes_drop() {
        let pool = SlabPool::new(4);
        let mut slab = pool.take(1024);
        assert!(slab.capacity() >= 1024);
        slab.extend_from_slice(&[7u8; 100]);
        let cap = slab.capacity();
        let b = Bytes::pooled(slab, &pool);
        assert_eq!(b.len(), 100);
        assert_eq!(pool.idle(), 0);
        let c = b.clone();
        drop(b);
        assert_eq!(pool.idle(), 0, "clone still alive");
        drop(c);
        assert_eq!(pool.idle(), 1, "last drop returns the slab");
        // Next take reuses the same capacity without allocating.
        let again = pool.take(64);
        assert!(again.capacity() >= cap.min(1024));
        assert!(again.is_empty());
    }

    #[test]
    fn pool_caps_idle_slabs() {
        let pool = SlabPool::new(2);
        for _ in 0..5 {
            pool.put(Vec::with_capacity(16));
        }
        assert_eq!(pool.idle(), 2);
    }

    #[test]
    fn out_count_follows_every_way_a_slab_leaves_and_returns() {
        let pool = SlabPool::new(2);
        let slabs: Vec<Vec<u8>> = (0..4).map(|_| pool.take(16)).collect();
        assert_eq!((pool.out(), pool.idle()), (4, 0));
        // Returned by hand; the third and fourth find the pool full and
        // are freed, which returns them all the same.
        let mut slabs = slabs.into_iter();
        pool.put(slabs.next().unwrap());
        pool.put(slabs.next().unwrap());
        assert_eq!((pool.out(), pool.idle()), (2, 2));
        pool.put(slabs.next().unwrap());
        assert_eq!((pool.out(), pool.idle()), (1, 2));
        // Returned by the last reader of a pooled buffer, however many
        // clones and windows it went through.
        let b = Bytes::pooled(slabs.next().unwrap(), &pool);
        let window = b.slice_ref(&b.as_slice()[..0]);
        drop(b);
        assert_eq!(pool.out(), 1, "a window keeps the slab out");
        drop(window);
        assert_eq!((pool.out(), pool.idle()), (0, 2));
        // A recycled slab counts again; a slab the pool never handed out
        // does not take the count below zero.
        let again = pool.take(16);
        assert_eq!((pool.out(), pool.idle()), (1, 1));
        pool.put(again);
        pool.put(Vec::new());
        assert_eq!(pool.out(), 0);
        // A buffer that outlives its pool has nowhere to report to.
        let orphan = Bytes::pooled(pool.take(8), &pool);
        assert_eq!(pool.out(), 1);
        drop(pool);
        drop(orphan);
    }

    #[test]
    fn pooled_bytes_survive_pool_drop() {
        let pool = SlabPool::new(2);
        let mut slab = pool.take(8);
        slab.extend_from_slice(&[1, 2, 3]);
        let b = Bytes::pooled(slab, &pool);
        drop(pool);
        assert_eq!(&b[..], &[1, 2, 3]); // weak upgrade fails on drop; bytes stay valid
    }
}
