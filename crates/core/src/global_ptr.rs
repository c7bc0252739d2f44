//! Typed global pointers (paper §III-B).
//!
//! A [`GlobalPtr<T>`] encapsulates the owning rank and the address of a
//! shared object — the UPC++ `global_ptr<T>`. As in the paper (and unlike
//! UPC), global pointers carry **no block offset/phase**: pointer
//! arithmetic works exactly like ordinary pointer arithmetic, advancing in
//! units of `size_of::<T>()` within the owner's segment.

use rupcxx_net::{pod, GlobalAddr, Pod, Rank};
use rupcxx_runtime::Ctx;
use std::marker::PhantomData;

/// A typed pointer into the global address space.
///
/// `GlobalPtr<T>` is `Copy` and meaningful on every rank (it can be sent
/// through broadcasts, stored in directories, etc.). Dereferencing requires
/// a [`Ctx`], which supplies the initiating rank for the underlying
/// communication.
pub struct GlobalPtr<T: Pod> {
    addr: GlobalAddr,
    _elem: PhantomData<fn() -> T>,
}

impl<T: Pod> Clone for GlobalPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T: Pod> Copy for GlobalPtr<T> {}

// SAFETY: a `GlobalPtr` is a `GlobalAddr` (one packed u64 — no padding, all
// bit patterns valid) plus a ZST marker, so it can itself live in the global
// address space — which is what makes directory-of-pointers structures
// (paper §III-E) expressible.
unsafe impl<T: Pod> Pod for GlobalPtr<T> {}

impl<T: Pod> PartialEq for GlobalPtr<T> {
    fn eq(&self, other: &Self) -> bool {
        self.addr == other.addr
    }
}
impl<T: Pod> Eq for GlobalPtr<T> {}

impl<T: Pod> std::fmt::Debug for GlobalPtr<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "GlobalPtr<{}>(rank {}, offset {})",
            std::any::type_name::<T>(),
            self.addr.rank(),
            self.addr.offset()
        )
    }
}

impl<T: Pod> GlobalPtr<T> {
    /// Wrap a raw global address. The address must be 8-byte aligned and
    /// point at storage of (at least) `size_of::<T>()` bytes.
    #[inline]
    #[must_use]
    pub fn from_addr(addr: GlobalAddr) -> Self {
        GlobalPtr {
            addr,
            _elem: PhantomData,
        }
    }

    /// The underlying untyped address.
    #[inline]
    #[must_use]
    pub fn addr(&self) -> GlobalAddr {
        self.addr
    }

    /// The rank owning the referenced object — the paper's `where()`.
    #[inline]
    #[must_use]
    pub fn where_(&self) -> Rank {
        self.addr.rank()
    }

    /// True when the referenced object has affinity to the calling rank.
    #[inline]
    #[must_use]
    pub fn is_local(&self, ctx: &Ctx) -> bool {
        self.addr.rank() == ctx.rank()
    }

    /// Pointer arithmetic: advance by `count` elements (like `p + count`
    /// on a C++ `global_ptr` — no phase, paper §III-B).
    #[inline]
    #[must_use]
    pub fn offset(&self, count: usize) -> Self {
        GlobalPtr::from_addr(self.addr.add(count * std::mem::size_of::<T>()))
    }

    /// One-sided read of the referenced value (UPC++ rvalue use of a
    /// shared object).
    #[must_use]
    pub fn rget(&self, ctx: &Ctx) -> T {
        let size = std::mem::size_of::<T>();
        if size == 8 && self.addr.offset().is_multiple_of(8) {
            // The word route (u64/f64/usize…): where the read cache's
            // word hit lives.
            let w = ctx.fabric().get_u64(ctx.rank(), self.addr);
            return T::read_from(&w.to_le_bytes());
        }
        let mut value = T::zeroed();
        let buf = pod::bytes_of_mut(std::slice::from_mut(&mut value));
        ctx.fabric().get(ctx.rank(), self.addr, buf);
        value
    }

    /// One-sided write of the referenced value (UPC++ lvalue use).
    pub fn rput(&self, ctx: &Ctx, value: T) {
        let buf = pod::bytes_of(std::slice::from_ref(&value));
        ctx.fabric().put(ctx.rank(), self.addr, buf);
    }

    /// Like [`GlobalPtr::rput`], but eligible for per-destination
    /// aggregation: with aggregation configured (`RUPCXX_AGG` /
    /// `RuntimeConfig::with_agg`) the write is coalesced into the owner's
    /// batch buffer and lands at the next flush point — call
    /// `ctx.agg_fence()` (or `barrier()` on a fault-free fabric) before
    /// reading it back remotely. Without aggregation this is exactly
    /// `rput`. Values larger than the fabric's small-put cutoff fall
    /// through to the direct path.
    ///
    /// With aggregation on, the call that sends a batch also runs one
    /// receive-only progress pass, and blocks while the rank's window of
    /// in-flight batches is full (`Ctx::agg_sent`): incoming handlers may
    /// run inside it.
    pub fn rput_agg(&self, ctx: &Ctx, value: T) {
        debug_assert!(
            std::mem::size_of::<T>() <= 1024,
            "rput_agg is for small values"
        );
        let buf = pod::bytes_of(std::slice::from_ref(&value));
        ctx.agg_sent(ctx.fabric().put_buffered(ctx.rank(), self.addr, buf));
    }

    /// Bulk one-sided read of `out.len()` consecutive elements starting at
    /// this pointer, straight into `out`: the fabric writes the caller's
    /// slice through its byte view (`rupcxx_net::pod`), no staging copy.
    pub fn rget_slice(&self, ctx: &Ctx, out: &mut [T]) {
        ctx.fabric()
            .get(ctx.rank(), self.addr, pod::bytes_of_mut(out));
    }

    /// Bulk one-sided write of `values` to consecutive elements starting
    /// at this pointer, straight out of the caller's slice.
    pub fn rput_slice(&self, ctx: &Ctx, values: &[T]) {
        ctx.fabric()
            .put(ctx.rank(), self.addr, pod::bytes_of(values));
    }

    /// Reinterpret as a pointer to another Pod type (the paper's
    /// `global_ptr<void>` casting facility).
    #[inline]
    #[must_use]
    pub fn cast<U: Pod>(&self) -> GlobalPtr<U> {
        GlobalPtr::from_addr(self.addr)
    }

    /// Validate this pointer for privatized access to `count` elements
    /// and resolve it to a raw word pointer. Panics unless the target has
    /// local affinity, `T` is an 8-byte word type, the address is
    /// word-aligned and the range is in bounds — the same validate-once
    /// constraints as `LocalGrid`.
    fn privatize(&self, ctx: &Ctx, count: usize) -> *mut u64 {
        assert_eq!(
            self.addr.rank(),
            ctx.rank(),
            "privatization requires local affinity (owner rank {}, calling rank {})",
            self.addr.rank(),
            ctx.rank()
        );
        assert_eq!(
            std::mem::size_of::<T>(),
            8,
            "privatization needs word elements"
        );
        ctx.fabric()
            .endpoint(ctx.rank())
            .segment
            .privatize_ptr(self.addr.offset(), count * 8)
    }

    /// Privatize a locally owned object: the paper's "downcast a
    /// `global_ptr` with local affinity to a raw `T*`" (§III-B), which is
    /// how UPC++ programs privatize the local portion of shared data.
    /// Validates affinity/alignment once and returns a direct reference;
    /// reads through it compile to plain loads — no fabric dispatch, no
    /// stats, no per-access bounds check, and no read-cache lookup.
    ///
    /// The reference aliases globally addressable memory. Holding it
    /// across an access by another rank to the same element is an
    /// unsynchronized conflicting access under the paper's relaxed memory
    /// model — keep privatized use inside a phase delimited by
    /// `barrier()`/`fence()`. (The race checker does not observe
    /// privatized accesses; it sees only the sync points around them.)
    pub fn local_ref<'a>(&self, ctx: &'a Ctx) -> &'a T {
        &self.local_slice(ctx, 1)[0]
    }

    /// Privatize `count` consecutive locally owned elements as a slice
    /// (see [`GlobalPtr::local_ref`] for the synchronization contract).
    pub fn local_slice<'a>(&self, ctx: &'a Ctx, count: usize) -> &'a [T] {
        let p = self.privatize(ctx, count);
        // SAFETY: `privatize` checked affinity, element size, alignment
        // and bounds; `T: Pod` accepts any bit pattern, and the segment
        // (owned by `ctx`'s shared state) outlives `'a`. Freedom from
        // concurrent writers is the caller's contract, per the PGAS
        // ownership discipline documented above.
        unsafe { std::slice::from_raw_parts(p as *const T, count) }
    }

    /// Privatize `count` consecutive locally owned elements for mutation.
    /// In addition to the [`GlobalPtr::local_ref`] contract, the caller
    /// must be the *only* accessor of the range while the slice is live —
    /// the owner-computes phase of GUPS/stencil-style kernels, with
    /// barriers on both sides.
    #[allow(clippy::mut_from_ref)]
    pub fn local_slice_mut<'a>(&self, ctx: &'a Ctx, count: usize) -> &'a mut [T] {
        let p = self.privatize(ctx, count);
        // SAFETY: as in `local_slice`, plus the documented exclusivity
        // contract (sole accessor between two sync points).
        unsafe { std::slice::from_raw_parts_mut(p as *mut T, count) }
    }
}

impl GlobalPtr<u64> {
    /// Remote atomic xor (used by the GUPS benchmark's update loop when
    /// run in atomic mode). Returns the previous value.
    pub fn rxor(&self, ctx: &Ctx, value: u64) -> u64 {
        ctx.fabric().xor_u64(ctx.rank(), self.addr, value)
    }

    /// Remote atomic add; returns the previous value.
    pub fn radd(&self, ctx: &Ctx, value: u64) -> u64 {
        ctx.fabric().add_u64(ctx.rank(), self.addr, value)
    }

    /// Non-fetching remote xor, eligible for per-destination aggregation
    /// (the GUPS update loop in aggregated mode). Applied at the next
    /// flush point; the previous value is not returned — a fetching
    /// atomic cannot be batched. A progress point when it sends a batch,
    /// like [`GlobalPtr::rput_agg`].
    pub fn rxor_agg(&self, ctx: &Ctx, value: u64) {
        ctx.agg_sent(ctx.fabric().xor_u64_buffered(ctx.rank(), self.addr, value));
    }

    /// Non-fetching remote add, eligible for aggregation (see
    /// [`GlobalPtr::rxor_agg`]).
    pub fn radd_agg(&self, ctx: &Ctx, value: u64) {
        ctx.agg_sent(ctx.fabric().add_u64_buffered(ctx.rank(), self.addr, value));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::{allocate, deallocate};
    use rupcxx_runtime::{spmd, RuntimeConfig};

    fn cfg(n: usize) -> RuntimeConfig {
        RuntimeConfig::new(n).segment_bytes(1 << 16)
    }

    #[test]
    fn rget_rput_roundtrip_remote() {
        spmd(cfg(2), |ctx| {
            let p: GlobalPtr<u64> = if ctx.rank() == 0 {
                let p = allocate::<u64>(ctx, 1, 4).expect("alloc");
                ctx.broadcast(0, [p.addr().rank() as u64, p.addr().offset() as u64]);
                p
            } else {
                let a = ctx.broadcast(0, [0u64; 2]);
                GlobalPtr::from_addr(GlobalAddr::new(a[0] as usize, a[1] as usize))
            };
            if ctx.rank() == 0 {
                for i in 0..4 {
                    p.offset(i).rput(ctx, (i * 11) as u64);
                }
            }
            ctx.barrier();
            let vals: Vec<u64> = (0..4).map(|i| p.offset(i).rget(ctx)).collect();
            assert_eq!(vals, vec![0, 11, 22, 33]);
            ctx.barrier();
            if ctx.rank() == 0 {
                deallocate(ctx, p);
            }
        });
    }

    #[test]
    fn slice_transfer() {
        spmd(cfg(2), |ctx| {
            let p = allocate::<f64>(ctx, ctx.rank(), 8).expect("alloc");
            let data: Vec<f64> = (0..8).map(|i| i as f64 * 0.5).collect();
            p.rput_slice(ctx, &data);
            let mut out = vec![0.0f64; 8];
            p.rget_slice(ctx, &mut out);
            assert_eq!(out, data);
            deallocate(ctx, p);
        });
    }

    #[test]
    fn where_and_locality() {
        spmd(cfg(2), |ctx| {
            let p = allocate::<u64>(ctx, 1, 1).expect("alloc");
            assert_eq!(p.where_(), 1);
            assert_eq!(p.is_local(ctx), ctx.rank() == 1);
            ctx.barrier();
            if ctx.rank() == 0 {
                deallocate(ctx, p);
            }
        });
        // Note: both ranks allocate in the test above; rank 0 frees its own
        // allocation and rank 1's stays until the job ends — acceptable in
        // a test, segments die with the job.
    }

    #[test]
    fn pointer_arithmetic_matches_element_size() {
        let p: GlobalPtr<u32> = GlobalPtr::from_addr(GlobalAddr::new(0, 64));
        assert_eq!(p.offset(3).addr().offset(), 64 + 12);
        let q: GlobalPtr<f64> = GlobalPtr::from_addr(GlobalAddr::new(2, 0));
        assert_eq!(q.offset(5).addr().offset(), 40);
        assert_eq!(q.offset(5).where_(), 2);
    }

    #[test]
    fn cast_preserves_address() {
        let p: GlobalPtr<u64> = GlobalPtr::from_addr(GlobalAddr::new(1, 16));
        let v: GlobalPtr<u8> = p.cast();
        assert_eq!(v.addr(), p.addr());
    }

    #[test]
    fn atomics_on_u64() {
        spmd(cfg(1), |ctx| {
            let p = allocate::<u64>(ctx, 0, 1).expect("alloc");
            p.rput(ctx, 0b1100);
            assert_eq!(p.rxor(ctx, 0b0110), 0b1100);
            assert_eq!(p.rget(ctx), 0b1010);
            assert_eq!(p.radd(ctx, 6), 0b1010);
            assert_eq!(p.rget(ctx), 16);
            deallocate(ctx, p);
        });
    }

    #[test]
    fn aggregated_ops_apply_at_fence() {
        use rupcxx_net::AggConfig;
        // Three frames fill no slab: nothing flushes until agg_fence.
        let cfg = cfg(2).with_agg(AggConfig::new());
        spmd(cfg, |ctx| {
            let p: GlobalPtr<u64> = if ctx.rank() == 0 {
                let p = allocate::<u64>(ctx, 0, 3).expect("alloc");
                for i in 0..3 {
                    p.offset(i).rput(ctx, 100);
                }
                ctx.broadcast(0, [p.addr().offset() as u64]);
                p
            } else {
                let a = ctx.broadcast(0, [0u64; 1]);
                GlobalPtr::from_addr(GlobalAddr::new(0, a[0] as usize))
            };
            ctx.barrier();
            if ctx.rank() == 1 {
                p.offset(0).rput_agg(ctx, 7);
                p.offset(1).rxor_agg(ctx, 0b0110);
                p.offset(2).radd_agg(ctx, 5);
            }
            ctx.agg_fence();
            assert_eq!(p.offset(0).rget(ctx), 7);
            assert_eq!(p.offset(1).rget(ctx), 100 ^ 0b0110);
            assert_eq!(p.offset(2).rget(ctx), 105);
            ctx.barrier();
        });
    }

    #[test]
    fn aggregated_ops_fall_through_when_disabled() {
        spmd(cfg(2), |ctx| {
            let p = allocate::<u64>(ctx, ctx.rank(), 1).expect("alloc");
            p.rput(ctx, 1);
            // No aggregation configured: applied immediately, no fence.
            p.rxor_agg(ctx, 0b11);
            p.radd_agg(ctx, 4);
            p.rput_agg(ctx, 9);
            assert_eq!(p.rget(ctx), 9);
            deallocate(ctx, p);
        });
    }

    #[test]
    fn privatized_slice_agrees_with_fabric_path() {
        spmd(cfg(2), |ctx| {
            let p = allocate::<u64>(ctx, ctx.rank(), 16).expect("alloc");
            let data: Vec<u64> = (0..16).map(|i| i as u64 * 7 + ctx.rank() as u64).collect();
            p.rput_slice(ctx, &data);
            assert_eq!(p.local_slice(ctx, 16), &data[..]);
            assert_eq!(*p.offset(3).local_ref(ctx), data[3]);
            // Mutate privately, read back through the fabric.
            p.local_slice_mut(ctx, 16)[5] = 4242;
            assert_eq!(p.offset(5).rget(ctx), 4242);
            ctx.barrier();
            deallocate(ctx, p);
        });
    }

    #[test]
    #[should_panic(expected = "local affinity")]
    fn privatizing_a_remote_pointer_panics() {
        spmd(cfg(2), |ctx| {
            let p = allocate::<u64>(ctx, 1 - ctx.rank(), 4).expect("alloc");
            let _ = p.local_slice(ctx, 4);
        });
    }

    #[test]
    #[should_panic(expected = "word elements")]
    fn privatizing_non_word_elements_panics() {
        spmd(cfg(1), |ctx| {
            let p = allocate::<u16>(ctx, 0, 4).expect("alloc");
            let _ = p.local_slice(ctx, 4);
        });
    }

    #[test]
    fn non_word_sized_elements() {
        spmd(cfg(1), |ctx| {
            let p = allocate::<u16>(ctx, 0, 3).expect("alloc");
            p.offset(0).rput(ctx, 0xAAAA);
            p.offset(1).rput(ctx, 0xBBBB);
            p.offset(2).rput(ctx, 0xCCCC);
            assert_eq!(p.offset(1).rget(ctx), 0xBBBB);
            assert_eq!(p.offset(0).rget(ctx), 0xAAAA);
            assert_eq!(p.offset(2).rget(ctx), 0xCCCC);
            deallocate(ctx, p);
        });
    }
}
