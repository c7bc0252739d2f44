//! Block-cyclically distributed shared arrays (paper §III-A).
//!
//! A [`SharedArray<T>`] distributes `size` elements over all ranks in a
//! one-dimensional block-cyclic layout with block size `bs` — UPC's
//! `shared [BS] T A[size]`, UPC++'s `shared_array<T, BS>`. The default
//! block size 1 is the cyclic layout, as in UPC.
//!
//! Construction is collective and mirrors `sa.init(...)`/`upc_all_alloc`:
//! every rank allocates its local portion and the base addresses are
//! all-gathered into a replicated directory.

use crate::global_ptr::GlobalPtr;
use rupcxx_net::{GlobalAddr, Pod, Rank};
use rupcxx_runtime::Ctx;
use std::sync::Arc;

/// A 1-D block-cyclic shared array.
#[derive(Clone, Debug)]
pub struct SharedArray<T: Pod> {
    size: usize,
    block: usize,
    ranks: usize,
    /// Directory of per-rank local-portion base pointers (replicated).
    bases: Arc<[GlobalAddr]>,
    _elem: std::marker::PhantomData<fn() -> T>,
}

impl<T: Pod> SharedArray<T> {
    /// Collectively create a shared array of `size` elements with block
    /// size `block` (1 = cyclic). All ranks must call with equal arguments.
    pub fn new(ctx: &Ctx, size: usize, block: usize) -> Self {
        assert!(block > 0, "block size must be positive");
        let n = ctx.ranks();
        let elem = std::mem::size_of::<T>();
        // Local capacity: every rank reserves the same number of whole
        // blocks, enough for the worst-placed rank.
        let nblocks_total = size.div_ceil(block);
        let blocks_per_rank = nblocks_total.div_ceil(n).max(1);
        let local_elems = blocks_per_rank * block;
        let mine = ctx
            .alloc_on(ctx.rank(), local_elems.max(1) * elem.max(1))
            .expect("segment memory for SharedArray");
        let gathered = ctx.allgatherv(&[mine.rank() as u64, mine.offset() as u64]);
        let bases: Vec<GlobalAddr> = gathered
            .chunks_exact(2)
            .map(|c| GlobalAddr::new(c[0] as usize, c[1] as usize))
            .collect();
        debug_assert_eq!(bases.len(), n);
        SharedArray {
            size,
            block,
            ranks: n,
            bases: bases.into(),
            _elem: std::marker::PhantomData,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.size
    }

    /// True when the array has zero elements.
    pub fn is_empty(&self) -> bool {
        self.size == 0
    }

    /// The block size of the layout.
    pub fn block_size(&self) -> usize {
        self.block
    }

    /// The rank that owns element `i` (UPC's affinity).
    #[inline]
    pub fn owner(&self, i: usize) -> Rank {
        (i / self.block) % self.ranks
    }

    /// Global pointer to element `i` — the layout computation
    /// `block-cyclic index → (rank, local slot)`.
    #[inline]
    pub fn ptr(&self, i: usize) -> GlobalPtr<T> {
        assert!(
            i < self.size,
            "SharedArray index {i} out of bounds {}",
            self.size
        );
        let blk = i / self.block;
        let rank = blk % self.ranks;
        let local_slot = (blk / self.ranks) * self.block + (i % self.block);
        GlobalPtr::from_addr(self.bases[rank].add(local_slot * std::mem::size_of::<T>()))
    }

    /// Read element `i` (the paper's `cout << sa[0]`).
    #[inline]
    pub fn read(&self, ctx: &Ctx, i: usize) -> T {
        self.ptr(i).rget(ctx)
    }

    /// Write element `i` (the paper's `sa[0] = 1`).
    #[inline]
    pub fn write(&self, ctx: &Ctx, i: usize, value: T) {
        self.ptr(i).rput(ctx, value)
    }

    /// Indices of the elements owned by the calling rank, in increasing
    /// order — the loop bound rewrite of `upc_forall(...; affinity)`.
    pub fn my_indices<'a>(&'a self, ctx: &Ctx) -> impl Iterator<Item = usize> + 'a {
        let me = ctx.rank();
        let (block, ranks, size) = (self.block, self.ranks, self.size);
        (me * block..size)
            .step_by(block * ranks)
            .flat_map(move |start| start..(start + block).min(size))
    }

    /// Base pointer of `rank`'s local portion (for bulk operations).
    pub fn base_of(&self, rank: Rank) -> GlobalPtr<T> {
        GlobalPtr::from_addr(self.bases[rank])
    }

    /// Number of elements owned by `rank`. The owned elements occupy
    /// `rank`'s local portion contiguously (local slots `0..owned`): each
    /// owned block packs `block` consecutive slots, and only the array's
    /// final block can be partial.
    fn owned_len(&self, rank: Rank) -> usize {
        let nblocks = self.size.div_ceil(self.block.max(1));
        (rank..nblocks)
            .step_by(self.ranks)
            .map(|b| self.block.min(self.size - b * self.block))
            .sum()
    }

    /// Privatize the calling rank's local portion as a slice — the
    /// owner-computes fast path of `upc_forall`-style loops. Element `j`
    /// of the slice is the `j`-th element this rank owns, i.e. the same
    /// sequence [`SharedArray::my_indices`] walks. Validates affinity and
    /// element width once; see [`GlobalPtr::local_ref`] for the
    /// synchronization contract.
    pub fn local_slice<'a>(&self, ctx: &'a Ctx) -> &'a [T] {
        self.base_of(ctx.rank())
            .local_slice(ctx, self.owned_len(ctx.rank()))
    }

    /// Privatize the calling rank's local portion for mutation (sole
    /// accessor between two sync points — see
    /// [`GlobalPtr::local_slice_mut`]).
    pub fn local_slice_mut<'a>(&self, ctx: &'a Ctx) -> &'a mut [T] {
        self.base_of(ctx.rank())
            .local_slice_mut(ctx, self.owned_len(ctx.rank()))
    }

    /// Collectively destroy the array, freeing every rank's portion.
    pub fn destroy(self, ctx: &Ctx) {
        ctx.barrier();
        ctx.free(self.bases[ctx.rank()]);
        ctx.barrier();
    }
}

impl SharedArray<u64> {
    /// Remote atomic xor into element `i`; the GUPS update.
    #[inline]
    pub fn xor(&self, ctx: &Ctx, i: usize, value: u64) {
        self.ptr(i).rxor(ctx, value);
    }

    /// Non-fetching xor into element `i`, eligible for per-destination
    /// aggregation — the GUPS update in aggregated mode. Applied at the
    /// next flush point; call `ctx.agg_fence()` before depending on the
    /// result. Identical to [`SharedArray::xor`] when aggregation is off.
    #[inline]
    pub fn xor_agg(&self, ctx: &Ctx, i: usize, value: u64) {
        self.ptr(i).rxor_agg(ctx, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rupcxx_runtime::{spmd, RuntimeConfig};

    fn cfg(n: usize) -> RuntimeConfig {
        RuntimeConfig::new(n).segment_bytes(1 << 18)
    }

    #[test]
    fn cyclic_layout_owner() {
        spmd(cfg(4), |ctx| {
            let a = SharedArray::<u64>::new(ctx, 16, 1);
            for i in 0..16 {
                assert_eq!(a.owner(i), i % 4);
            }
            a.destroy(ctx);
        });
    }

    #[test]
    fn block_layout_owner() {
        spmd(cfg(3), |ctx| {
            let a = SharedArray::<u64>::new(ctx, 20, 4);
            // blocks: [0..4)->r0, [4..8)->r1, [8..12)->r2, [12..16)->r0, ...
            assert_eq!(a.owner(0), 0);
            assert_eq!(a.owner(3), 0);
            assert_eq!(a.owner(4), 1);
            assert_eq!(a.owner(11), 2);
            assert_eq!(a.owner(12), 0);
            assert_eq!(a.owner(19), 1);
            a.destroy(ctx);
        });
    }

    #[test]
    fn write_read_every_element() {
        spmd(cfg(4), |ctx| {
            let a = SharedArray::<u64>::new(ctx, 64, 3);
            // Each rank writes its owned elements.
            for i in a.my_indices(ctx).collect::<Vec<_>>() {
                assert_eq!(a.owner(i), ctx.rank());
                a.write(ctx, i, (i * i) as u64);
            }
            ctx.barrier();
            for i in 0..64 {
                assert_eq!(a.read(ctx, i), (i * i) as u64, "element {i}");
            }
            a.destroy(ctx);
        });
    }

    #[test]
    fn my_indices_partition_the_array() {
        spmd(cfg(3), |ctx| {
            let a = SharedArray::<u64>::new(ctx, 25, 2);
            let mine: Vec<usize> = a.my_indices(ctx).collect();
            let counts = ctx.allreduce(mine.len() as u64, |x, y| x + y);
            assert_eq!(counts, 25);
            for &i in &mine {
                assert_eq!(a.owner(i), ctx.rank());
            }
            a.destroy(ctx);
        });
    }

    #[test]
    fn xor_updates() {
        spmd(cfg(2), |ctx| {
            let a = SharedArray::<u64>::new(ctx, 8, 1);
            ctx.barrier();
            if ctx.rank() == 0 {
                a.xor(ctx, 5, 0xFF);
                a.xor(ctx, 5, 0x0F);
            }
            ctx.barrier();
            assert_eq!(a.read(ctx, 5), 0xF0);
            a.destroy(ctx);
        });
    }

    #[test]
    fn xor_agg_matches_xor_after_fence() {
        use rupcxx_net::AggConfig;
        spmd(cfg(2).with_agg(AggConfig::new()), |ctx| {
            let a = SharedArray::<u64>::new(ctx, 8, 1);
            ctx.barrier();
            // Both ranks hammer every element; xor is commutative, so the
            // result is order-independent.
            for i in 0..8 {
                a.xor_agg(ctx, i, 1 << ctx.rank());
            }
            ctx.agg_fence();
            for i in 0..8 {
                assert_eq!(a.read(ctx, i), 0b11, "element {i}");
            }
            a.destroy(ctx);
        });
    }

    #[test]
    fn local_slice_matches_my_indices() {
        spmd(cfg(3), |ctx| {
            let a = SharedArray::<u64>::new(ctx, 25, 2);
            for i in a.my_indices(ctx).collect::<Vec<_>>() {
                a.write(ctx, i, 1000 + i as u64);
            }
            ctx.barrier();
            let mine: Vec<usize> = a.my_indices(ctx).collect();
            assert_eq!(a.owned_len(ctx.rank()), mine.len());
            let total: usize = (0..3).map(|r| a.owned_len(r)).sum();
            assert_eq!(total, 25);
            let local = a.local_slice(ctx);
            for (j, &i) in mine.iter().enumerate() {
                assert_eq!(local[j], 1000 + i as u64, "slot {j} = element {i}");
            }
            // Owner-computes mutation, visible through the fabric path.
            ctx.barrier();
            let lm = a.local_slice_mut(ctx);
            for v in lm.iter_mut() {
                *v += 1;
            }
            ctx.barrier();
            for i in 0..25 {
                assert_eq!(a.read(ctx, i), 1001 + i as u64, "element {i}");
            }
            a.destroy(ctx);
        });
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_panics() {
        spmd(cfg(1), |ctx| {
            let a = SharedArray::<u64>::new(ctx, 4, 1);
            let _ = a.read(ctx, 4);
        });
    }

    #[test]
    fn f64_elements() {
        spmd(cfg(2), |ctx| {
            let a = SharedArray::<f64>::new(ctx, 10, 1);
            if ctx.rank() == 0 {
                for i in 0..10 {
                    a.write(ctx, i, i as f64 + 0.25);
                }
            }
            ctx.barrier();
            assert_eq!(a.read(ctx, 9), 9.25);
            a.destroy(ctx);
        });
    }
}
