//! Fast local access to rank-resident grids — the "compiled" indexing path.
//!
//! The paper's Stencil port (§V-B) gets Titanium-level performance by
//! (a) declaring arrays with matching logical and physical stride
//! (`unstrided`), bypassing stride divisions, and (b) indexing one
//! dimension at a time so the compiler lifts indexing logic out of inner
//! loops. [`LocalGrid`] is the same optimization for `rupcxx`: it
//! pre-resolves the segment and base offset once, so an access pays no
//! fabric dispatch, no stats and no division.
//!
//! It has two grains. [`LocalGrid::at`]/[`LocalGrid::put`] (and the
//! point-indexed `get`/`set`) recompute the three-term index on every
//! call and go through the segment's atomic word accessors, bounds-checked.
//! That is right for scattered accesses. An inner loop over `k` privatizes
//! the whole block instead (paper §III-B: a `global_ptr` with local
//! affinity downcast to a raw `T*`): [`LocalGrid::view`] checks the block
//! against the segment once and hands it out as a plain `&[T]`
//! ([`LocalGrid::view_mut`]: `&mut [T]`), positioned by
//! [`LocalGrid::offset`] and [`LocalGrid::strides`]. A row is then a
//! subslice, and the loop over it is slice arithmetic the compiler can
//! vectorize. The price is `GlobalPtr::local_slice`'s contract: no other
//! rank writes the block while a view is live (no other rank touches it
//! at all while a mutable one is), which the program guarantees with the
//! barriers around its compute phase.
//!
//! The generic [`NdArray::get`]/[`NdArray::set`] path (used in benchmarks
//! as the "library/generic" variant) pays those costs per access; the
//! difference between the two is exactly the ablation the paper discusses.

use crate::array::NdArray;
use crate::point::Point;
use rupcxx_net::{Pod, Segment};
use rupcxx_runtime::Ctx;
use std::marker::PhantomData;

/// A word-element local accessor over an [`NdArray`] owned by the calling
/// rank. Element type must be 8 bytes (`f64`/`u64`/`i64`).
pub struct LocalGrid<'a, T: Pod, const N: usize> {
    seg: &'a Segment,
    /// Base byte offset of the mapping origin in the segment.
    base: usize,
    map_lo: Point<N>,
    phys: Point<N>,
    lo: Point<N>,
    hi: Point<N>,
    _elem: PhantomData<fn() -> T>,
}

impl<'a, T: Pod, const N: usize> LocalGrid<'a, T, N> {
    /// Build the fast accessor. Panics unless the array is owned by the
    /// calling rank, unstrided, and has 8-byte elements.
    pub fn new(ctx: &'a Ctx, arr: &NdArray<T, N>) -> Self {
        assert_eq!(
            arr.owner(),
            ctx.rank(),
            "LocalGrid requires a rank-local array"
        );
        assert!(
            arr.is_unstrided(),
            "LocalGrid requires matching logical and physical stride"
        );
        assert_eq!(std::mem::size_of::<T>(), 8, "LocalGrid needs word elements");
        LocalGrid {
            seg: &ctx.fabric().endpoint(ctx.rank()).segment,
            base: arr.base.offset(),
            map_lo: arr.map_lo,
            phys: arr.phys,
            lo: arr.domain().lo(),
            hi: arr.domain().hi(),
            _elem: PhantomData,
        }
    }

    /// Lower bound of the accessible domain.
    pub fn lo(&self) -> Point<N> {
        self.lo
    }

    /// Exclusive upper bound of the accessible domain.
    pub fn hi(&self) -> Point<N> {
        self.hi
    }

    #[inline(always)]
    fn byte_offset(&self, p: Point<N>) -> usize {
        let mut idx = 0i64;
        for d in 0..N {
            debug_assert!(p[d] >= self.lo[d] && p[d] < self.hi[d]);
            idx += (p[d] - self.map_lo[d]) * self.phys[d];
        }
        self.base + idx as usize * 8
    }

    /// Read the element at `p`.
    #[inline(always)]
    pub fn get(&self, p: Point<N>) -> T {
        T::read_from(&self.seg.load_u64(self.byte_offset(p)).to_le_bytes())
    }

    /// Write the element at `p`.
    #[inline(always)]
    pub fn set(&self, p: Point<N>, value: T) {
        let mut w = [0u8; 8];
        value.write_to(&mut w);
        self.seg
            .store_u64(self.byte_offset(p), u64::from_le_bytes(w));
    }
}

impl<'a, T: Pod> LocalGrid<'a, T, 3> {
    /// Word index of `(i, j, k)` from the mapping origin, which assumes
    /// `phys[2] == 1`. The domain and that stride are checked in debug
    /// builds only, as [`LocalGrid::get`] checks the domain; in release an
    /// out-of-domain point reads whatever the segment holds there (the
    /// segment's own bounds still hold).
    #[inline(always)]
    fn index(&self, i: i64, j: i64, k: i64) -> usize {
        debug_assert!(
            i >= self.lo[0]
                && i < self.hi[0]
                && j >= self.lo[1]
                && j < self.hi[1]
                && k >= self.lo[2]
                && k < self.hi[2],
            "LocalGrid ({i}, {j}, {k}) outside the domain {:?}..{:?}",
            self.lo,
            self.hi
        );
        debug_assert_eq!(
            self.phys[2], 1,
            "LocalGrid::at needs a contiguous k dimension"
        );
        let idx = (i - self.map_lo[0]) * self.phys[0]
            + (j - self.map_lo[1]) * self.phys[1]
            + (k - self.map_lo[2]);
        idx as usize
    }

    /// 3-D accessor with per-dimension indexing — the paper's
    /// `B[i][j][k]` style. Precomputed strides; inner dimension advances
    /// by one word. An inner loop over `k` should privatize the block
    /// ([`LocalGrid::view`]).
    #[inline(always)]
    pub fn at(&self, i: i64, j: i64, k: i64) -> T {
        let off = self.base + self.index(i, j, k) * 8;
        T::read_from(&self.seg.load_u64(off).to_le_bytes())
    }

    /// 3-D per-dimension store.
    #[inline(always)]
    pub fn put(&self, i: i64, j: i64, k: i64, value: T) {
        let off = self.base + self.index(i, j, k) * 8;
        let mut w = [0u8; 8];
        value.write_to(&mut w);
        self.seg.store_u64(off, u64::from_le_bytes(w));
    }

    /// `(i, j)` strides in words: `view()[offset(i, j, k) + strides().0]`
    /// is the point `(i + 1, j, k)`.
    pub fn strides(&self) -> (usize, usize) {
        (self.phys[0] as usize, self.phys[1] as usize)
    }

    /// Position of `(i, j, k)` in [`LocalGrid::view`]. The domain is
    /// checked in debug builds only, as [`LocalGrid::at`] checks it.
    #[inline(always)]
    pub fn offset(&self, i: i64, j: i64, k: i64) -> usize {
        self.index(i, j, k) - self.index(self.lo[0], self.lo[1], self.lo[2])
    }

    /// Words from the domain's first point to its last, privatized
    /// (paper §III-B: a `global_ptr` with local affinity downcast to a
    /// raw `T*`). Panics unless `k` is the contiguous dimension (a
    /// permuted view may not be). Position a point with
    /// [`LocalGrid::offset`] and [`LocalGrid::strides`].
    ///
    /// The contract is `GlobalPtr::local_slice`'s: while the slice is
    /// live, no other rank may write the range (bound the phase with
    /// `barrier()`s). Reads are plain loads the compiler can vectorize;
    /// the race checker sees only the sync points around them.
    pub fn view(&self) -> &'a [T] {
        let (p, len) = self.privatize();
        // SAFETY: `privatize` checked alignment and bounds, `new` the
        // element size; `T: Pod` accepts any bit pattern, and the segment
        // outlives `'a`. No concurrent writer is the caller's contract.
        unsafe { std::slice::from_raw_parts(p as *const T, len) }
    }

    /// [`LocalGrid::view`] for mutation. The caller must in addition be
    /// the range's *only* accessor while the slice is live, and hold no
    /// other view of the same block.
    #[allow(clippy::mut_from_ref)]
    pub fn view_mut(&self) -> &'a mut [T] {
        let (p, len) = self.privatize();
        // SAFETY: as in `view`, plus the documented exclusivity contract.
        unsafe { std::slice::from_raw_parts_mut(p as *mut T, len) }
    }

    fn privatize(&self) -> (*mut u64, usize) {
        assert_eq!(
            self.phys[2], 1,
            "LocalGrid::view needs a contiguous k dimension"
        );
        if (0..3).any(|d| self.hi[d] <= self.lo[d]) {
            return (std::ptr::NonNull::dangling().as_ptr(), 0);
        }
        let first = self.index(self.lo[0], self.lo[1], self.lo[2]);
        let len = self.index(self.hi[0] - 1, self.hi[1] - 1, self.hi[2] - 1) + 1 - first;
        (self.seg.privatize_ptr(self.base + first * 8, len * 8), len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{pt, rd};
    use rupcxx_runtime::{spmd, RuntimeConfig};

    fn cfg() -> RuntimeConfig {
        RuntimeConfig::new(1).segment_bytes(1 << 20)
    }

    #[test]
    fn local_grid_agrees_with_generic_path() {
        spmd(cfg(), |ctx| {
            let a = NdArray::<f64, 3>::new(ctx, rd!([-1, -1, -1]..[5, 5, 5]));
            a.fill_with(ctx, |p| (p[0] * 36 + p[1] * 6 + p[2]) as f64);
            let g = LocalGrid::new(ctx, &a);
            a.domain().for_each(|p| {
                assert_eq!(g.get(p), a.get(ctx, p));
                assert_eq!(g.at(p[0], p[1], p[2]), a.get(ctx, p));
            });
            g.set(pt![0, 0, 0], 777.0);
            assert_eq!(a.get(ctx, pt![0, 0, 0]), 777.0);
            g.put(1, 1, 1, -3.5);
            assert_eq!(a.get(ctx, pt![1, 1, 1]), -3.5);
            a.destroy(ctx);
        });
    }

    /// `view()[offset(i, j, k)] == at(i, j, k)`, which the generic path
    /// reads too, at every point of `view`'s domain; each stride steps to
    /// the next point in its dimension.
    fn view_agrees_with_at(ctx: &Ctx, view: &NdArray<f64, 3>) {
        let g = LocalGrid::new(ctx, view);
        let (lo, hi) = (g.lo(), g.hi());
        let (v, (si, sj)) = (g.view(), g.strides());
        assert_eq!(v.len(), g.offset(hi[0] - 1, hi[1] - 1, hi[2] - 1) + 1);
        for i in lo[0]..hi[0] {
            for j in lo[1]..hi[1] {
                for k in lo[2]..hi[2] {
                    let o = g.offset(i, j, k);
                    let at = |i, j, k| g.at(i, j, k).to_bits();
                    assert_eq!(v[o].to_bits(), at(i, j, k), "({i}, {j}, {k})");
                    assert_eq!(at(i, j, k), view.get(ctx, pt![i, j, k]).to_bits());
                    if i + 1 < hi[0] {
                        assert_eq!(v[o + si].to_bits(), at(i + 1, j, k), "i of ({i}, {j}, {k})");
                    }
                    if j + 1 < hi[1] {
                        assert_eq!(v[o + sj].to_bits(), at(i, j + 1, k), "j of ({i}, {j}, {k})");
                    }
                }
            }
        }
    }

    #[test]
    fn view_agrees_with_at_on_every_view() {
        spmd(cfg(), |ctx| {
            let a = NdArray::<f64, 3>::new(ctx, rd!([-1, -1, -1]..[5, 6, 7]));
            a.fill_with(ctx, |p| (p[0] * 100 + p[1] * 10 + p[2]) as f64);
            view_agrees_with_at(ctx, &a);
            view_agrees_with_at(ctx, &a.restrict(rd!([0, 1, 2]..[4, 4, 5])));
            view_agrees_with_at(ctx, &a.translate(pt![10, -3, 4]));
            // A translated view reads the source's point `p - t`.
            let t = LocalGrid::new(ctx, &a.translate(pt![10, -3, 4]));
            assert_eq!(t.view()[t.offset(12, -2, 5)], a.get(ctx, pt![2, 1, 1]));
            let empty = LocalGrid::new(ctx, &a.restrict(rd!([1, 1, 1]..[1, 3, 3])));
            assert!(empty.view().is_empty());
            a.destroy(ctx);
        });
    }

    #[test]
    fn view_writes_are_seen_by_get_and_the_generic_path() {
        spmd(cfg(), |ctx| {
            let a = NdArray::<f64, 3>::new(ctx, rd!([-1, -1, -1]..[5, 5, 5]));
            a.fill(ctx, 0.0);
            let g = LocalGrid::new(ctx, &a.restrict(rd!([0, 1, -1]..[4, 5, 5])));
            let (v, o, (si, sj)) = (g.view_mut(), g.offset(2, 3, -1), g.strides());
            for (k, x) in v[o..o + 6].iter_mut().enumerate() {
                *x = k as f64 * 1.5 - 1.5;
            }
            (v[o + si], v[o + sj]) = (9.0, 7.0);
            for k in -1..5 {
                assert_eq!(g.at(2, 3, k), k as f64 * 1.5);
                assert_eq!(a.get(ctx, pt![2, 3, k]), k as f64 * 1.5);
            }
            assert_eq!(a.get(ctx, pt![3, 3, -1]), 9.0);
            assert_eq!(a.get(ctx, pt![2, 4, -1]), 7.0);
            // The rest of the neighbouring rows is untouched.
            assert_eq!(a.get(ctx, pt![2, 2, 4]), 0.0);
            assert_eq!(a.get(ctx, pt![2, 4, 0]), 0.0);
            a.destroy(ctx);
        });
    }

    #[test]
    #[should_panic(expected = "contiguous k dimension")]
    fn view_refuses_a_permuted_view() {
        spmd(cfg(), |ctx| {
            let a = NdArray::<f64, 3>::new(ctx, rd!([0, 0, 0]..[2, 3, 4]));
            let _ = LocalGrid::new(ctx, &a.permute([2, 1, 0])).view();
        });
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "outside the domain")]
    fn at_outside_the_domain_panics_in_debug() {
        spmd(cfg(), |ctx| {
            let a = NdArray::<f64, 3>::new(ctx, rd!([0, 0, 0]..[4, 4, 4]));
            let g = LocalGrid::new(ctx, &a.restrict(rd!([1, 1, 1]..[3, 3, 3])));
            let _ = g.at(1, 1, 0);
        });
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "outside the domain")]
    fn put_outside_the_domain_panics_in_debug() {
        spmd(cfg(), |ctx| {
            let a = NdArray::<f64, 3>::new(ctx, rd!([0, 0, 0]..[4, 4, 4]));
            let g = LocalGrid::new(ctx, &a.restrict(rd!([1, 1, 1]..[3, 3, 3])));
            g.put(3, 1, 1, 1.0);
        });
    }

    #[test]
    #[should_panic(expected = "rank-local")]
    fn remote_array_rejected() {
        spmd(RuntimeConfig::new(2).segment_bytes(1 << 16), |ctx| {
            let a = NdArray::<f64, 3>::new(ctx, rd!([0, 0, 0]..[2, 2, 2]));
            let dirs: Vec<NdArray<f64, 3>> = ctx.allgatherv(&[a]);
            let other = dirs[1 - ctx.rank()];
            let _ = LocalGrid::new(ctx, &other).view();
        });
    }

    #[test]
    #[should_panic(expected = "matching logical and physical stride")]
    fn strided_array_rejected() {
        spmd(cfg(), |ctx| {
            let a = NdArray::<f64, 2>::new(ctx, rd!([0, 0] .. [8, 8]; [2, 2]));
            let _ = LocalGrid::new(ctx, &a);
        });
    }
}
