//! Bulk data transfer (paper §III-D): `copy`, `async_copy`, events and
//! `async_copy_fence`.
//!
//! `copy(src, dst, count)` moves `count` contiguous elements between any
//! two places in the global address space, one-sided (`Fabric::copy`).
//! When both ends live in this process — whoever owns them — and the two
//! ranges are disjoint and sit equally in their 8-byte words (any two
//! arrays of a word-sized `T`), the bytes move **once**, word loads of one
//! segment to word stores of the other. Every other copy stages through
//! the initiator, a get then a put as UPC++/GASNet do for third-party
//! copies, in a buffer the thread keeps from copy to copy: an end in
//! another process of a conduit job, a remote source under the read cache
//! (the copy reads what a get reads), unequally aligned ranges, and
//! overlapping ranges of one rank (`memmove`'s result). Either way a copy
//! allocates nothing once that buffer has grown, and to the counters, the
//! fault plan, the race checker and the trace it is what it always was:
//! one get of the source plus one put to the destination,
//! `count * size_of::<T>()` bytes each.
//!
//! The non-blocking variant [`async_copy`] signals an [`Event`] on
//! completion; [`async_copy_fence`] waits for all outstanding async copies
//! issued by the calling rank. The fabric's RMA is synchronous (host
//! memory), so "non-blocking" completes eagerly — the API, event plumbing
//! and traffic accounting match the paper, while the *overlap* benefit at
//! scale is captured by the performance model rather than by wall-clock.

use crate::global_ptr::GlobalPtr;
use rupcxx_net::Pod;
use rupcxx_runtime::{Ctx, Event};

/// Blocking one-sided copy of `count` elements from `src` to `dst`
/// (the paper's `copy<T>(src, dst, count)`, UPC's `upc_memcpy`).
pub fn copy<T: Pod>(ctx: &Ctx, src: GlobalPtr<T>, dst: GlobalPtr<T>, count: usize) {
    let bytes = std::mem::size_of::<T>() * count;
    ctx.fabric().copy(ctx.rank(), src.addr(), dst.addr(), bytes);
}

/// Non-blocking copy. If `event` is provided it is registered before the
/// transfer and signaled at completion, so callers can wait on individual
/// operations (the paper's `async_copy(src, dst, count, event)`).
pub fn async_copy<T: Pod>(
    ctx: &Ctx,
    src: GlobalPtr<T>,
    dst: GlobalPtr<T>,
    count: usize,
    event: Option<&Event>,
) {
    if let Some(e) = event {
        e.register();
    }
    copy(ctx, src, dst, count);
    if let Some(e) = event {
        e.signal();
    }
}

/// Wait for completion of all `async_copy`s issued by this rank
/// ("handle-less" synchronization, §V-E). Also drives progress once, like
/// a fence — which includes force-flushing any per-destination
/// aggregation buffers, so buffered fine-grained ops are injected here
/// too.
pub fn async_copy_fence(ctx: &Ctx) {
    ctx.fence();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::{allocate, deallocate};
    use rupcxx_net::GlobalAddr;
    use rupcxx_runtime::{spmd, RuntimeConfig};

    fn cfg(n: usize) -> RuntimeConfig {
        RuntimeConfig::new(n).segment_bytes(1 << 18)
    }

    #[test]
    fn copy_local_to_remote_and_back() {
        spmd(cfg(2), |ctx| {
            let src = allocate::<u64>(ctx, ctx.rank(), 16).expect("alloc");
            if ctx.rank() == 0 {
                let data: Vec<u64> = (0..16).map(|i| i * 3).collect();
                src.rput_slice(ctx, &data);
                // Copy into rank 1's segment.
                let remote = allocate::<u64>(ctx, 1, 16).expect("alloc");
                copy(ctx, src, remote, 16);
                let mut out = vec![0u64; 16];
                remote.rget_slice(ctx, &mut out);
                assert_eq!(out, data);
                deallocate(ctx, remote);
            }
            ctx.barrier();
            deallocate(ctx, src);
        });
    }

    #[test]
    fn third_party_copy() {
        // Rank 0 copies between rank 1 and rank 2 without owning either.
        spmd(cfg(3), |ctx| {
            let a = allocate::<u64>(ctx, ctx.rank(), 4).expect("alloc");
            let all: Vec<u64> = ctx.allgatherv(&[a.addr().rank() as u64, a.addr().offset() as u64]);
            let ptrs: Vec<GlobalPtr<u64>> = all
                .chunks_exact(2)
                .map(|c| GlobalPtr::from_addr(GlobalAddr::new(c[0] as usize, c[1] as usize)))
                .collect();
            if ctx.rank() == 1 {
                a.rput_slice(ctx, &[5, 6, 7, 8]);
            }
            ctx.barrier();
            if ctx.rank() == 0 {
                copy(ctx, ptrs[1], ptrs[2], 4);
            }
            ctx.barrier();
            if ctx.rank() == 2 {
                let mut out = [0u64; 4];
                a.rget_slice(ctx, &mut out);
                assert_eq!(out, [5, 6, 7, 8]);
            }
            ctx.barrier();
            deallocate(ctx, a);
        });
    }

    #[test]
    fn async_copy_signals_event() {
        spmd(cfg(2), |ctx| {
            if ctx.rank() == 0 {
                let src = allocate::<u64>(ctx, 0, 8).expect("alloc");
                let dst = allocate::<u64>(ctx, 1, 8).expect("alloc");
                src.rput_slice(ctx, &[9; 8]);
                let e = Event::new();
                async_copy(ctx, src, dst, 8, Some(&e));
                e.wait(ctx);
                assert_eq!(dst.offset(7).rget(ctx), 9);
                async_copy_fence(ctx);
                deallocate(ctx, src);
                deallocate(ctx, dst);
            }
            ctx.barrier();
        });
    }

    #[test]
    fn zero_count_copy_is_noop() {
        spmd(cfg(1), |ctx| {
            let p = allocate::<u64>(ctx, 0, 1).expect("alloc");
            copy(ctx, p, p, 0);
            deallocate(ctx, p);
        });
    }
}
