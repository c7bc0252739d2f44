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
//! call and check it against the segment twice (the segment's bounds
//! assert, then the word slice's index). That is right for scattered
//! accesses. An inner loop over `k` takes a [`Row`] instead:
//! [`LocalGrid::row`] checks `(i, j)` against the domain and resolves the
//! row's whole `k` extent once, after which an element access is a slice
//! index plus a relaxed atomic load or store — the lifted indexing the
//! paper describes, in safe code, with §III-F's "a racing read sees some
//! written value" unchanged.
//!
//! The generic [`NdArray::get`]/[`NdArray::set`] path (used in benchmarks
//! as the "library/generic" variant) pays those costs per access; the
//! difference between the two is exactly the ablation the paper discusses.

use crate::array::NdArray;
use crate::point::Point;
use rupcxx_net::{Pod, Segment};
use rupcxx_runtime::Ctx;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};

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
    /// by one word. An inner loop over `k` should take a [`Row`].
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

    /// The row `(i, j, ·)` over the domain's whole `k` extent. Panics
    /// unless `(i, j)` lies in the domain and `k` is the contiguous
    /// dimension (a permuted view may not be); the row's words are resolved
    /// and bounds-checked here, once, so [`Row::get`]/[`Row::set`] cost a
    /// slice index plus a relaxed atomic.
    #[inline(always)]
    pub fn row(&self, i: i64, j: i64) -> Row<'a, T> {
        assert!(
            i >= self.lo[0] && i < self.hi[0] && j >= self.lo[1] && j < self.hi[1],
            "LocalGrid::row({i}, {j}) outside the domain {:?}..{:?}",
            self.lo,
            self.hi
        );
        assert_eq!(
            self.phys[2], 1,
            "LocalGrid::row needs a contiguous k dimension"
        );
        let first = (i - self.map_lo[0]) * self.phys[0]
            + (j - self.map_lo[1]) * self.phys[1]
            + (self.lo[2] - self.map_lo[2]);
        let n = (self.hi[2] - self.lo[2]) as usize;
        Row {
            words: self.seg.words(self.base + first as usize * 8, n),
            k_lo: self.lo[2],
            _elem: PhantomData,
        }
    }
}

/// One `k` row of a 3-D [`LocalGrid`], indexed in global `k`: from
/// [`LocalGrid::row`]. An access is a slice index (the row's one bound)
/// plus a relaxed atomic load or store.
pub struct Row<'a, T: Pod> {
    words: &'a [AtomicU64],
    /// Global `k` of `words[0]`.
    k_lo: i64,
    _elem: PhantomData<fn() -> T>,
}

impl<T: Pod> Row<'_, T> {
    /// Read the element at global `k`. Panics outside the row.
    #[inline(always)]
    pub fn get(&self, k: i64) -> T {
        let w = self.words[(k - self.k_lo) as usize].load(Ordering::Relaxed);
        T::read_from(&w.to_le_bytes())
    }

    /// Write the element at global `k`. Panics outside the row.
    #[inline(always)]
    pub fn set(&self, k: i64, value: T) {
        let mut w = [0u8; 8];
        value.write_to(&mut w);
        self.words[(k - self.k_lo) as usize].store(u64::from_le_bytes(w), Ordering::Relaxed);
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

    /// `row(i, j).get(k) == at(i, j, k)` at every point of `view`'s domain.
    fn rows_agree_with_at(ctx: &Ctx, view: &NdArray<f64, 3>) {
        let g = LocalGrid::new(ctx, view);
        let (lo, hi) = (g.lo(), g.hi());
        for i in lo[0]..hi[0] {
            for j in lo[1]..hi[1] {
                let row = g.row(i, j);
                for k in lo[2]..hi[2] {
                    assert_eq!(
                        row.get(k).to_bits(),
                        g.at(i, j, k).to_bits(),
                        "({i}, {j}, {k})"
                    );
                }
            }
        }
    }

    #[test]
    fn row_agrees_with_at_on_every_view() {
        spmd(cfg(), |ctx| {
            let a = NdArray::<f64, 3>::new(ctx, rd!([-1, -1, -1]..[5, 6, 7]));
            a.fill_with(ctx, |p| (p[0] * 100 + p[1] * 10 + p[2]) as f64);
            rows_agree_with_at(ctx, &a);
            rows_agree_with_at(ctx, &a.restrict(rd!([0, 1, 2]..[4, 4, 5])));
            rows_agree_with_at(ctx, &a.translate(pt![10, -3, 4]));
            // A translated view reads the source's point `p - t`.
            let t = LocalGrid::new(ctx, &a.translate(pt![10, -3, 4]));
            assert_eq!(t.row(12, -2).get(5), a.get(ctx, pt![2, 1, 1]));
            a.destroy(ctx);
        });
    }

    #[test]
    fn row_writes_are_seen_by_get_and_the_generic_path() {
        spmd(cfg(), |ctx| {
            let a = NdArray::<f64, 3>::new(ctx, rd!([-1, -1, -1]..[5, 5, 5]));
            a.fill(ctx, 0.0);
            let g = LocalGrid::new(ctx, &a);
            let row = g.row(2, 3);
            for k in -1..5 {
                row.set(k, k as f64 * 1.5);
            }
            for k in -1..5 {
                assert_eq!(row.get(k), k as f64 * 1.5);
                assert_eq!(g.at(2, 3, k), k as f64 * 1.5);
                assert_eq!(a.get(ctx, pt![2, 3, k]), k as f64 * 1.5);
            }
            // The neighbouring rows are untouched.
            assert_eq!(a.get(ctx, pt![2, 2, 4]), 0.0);
            assert_eq!(a.get(ctx, pt![2, 4, -1]), 0.0);
            a.destroy(ctx);
        });
    }

    #[test]
    #[should_panic(expected = "outside the domain")]
    fn row_outside_the_domain_panics() {
        spmd(cfg(), |ctx| {
            let a = NdArray::<f64, 3>::new(ctx, rd!([0, 0, 0]..[4, 4, 4]));
            let g = LocalGrid::new(ctx, &a.restrict(rd!([1, 1, 1]..[3, 3, 3])));
            let _ = g.row(1, 3);
        });
    }

    #[test]
    #[should_panic(expected = "contiguous k dimension")]
    fn row_refuses_a_permuted_view() {
        spmd(cfg(), |ctx| {
            let a = NdArray::<f64, 3>::new(ctx, rd!([0, 0, 0]..[2, 3, 4]));
            let g = LocalGrid::new(ctx, &a.permute([2, 1, 0]));
            let _ = g.row(0, 0);
        });
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn row_get_outside_the_row_panics() {
        spmd(cfg(), |ctx| {
            let a = NdArray::<f64, 3>::new(ctx, rd!([0, 0, 0]..[4, 4, 4]));
            let g = LocalGrid::new(ctx, &a.restrict(rd!([1, 1, 1]..[3, 3, 3])));
            let _ = g.row(1, 1).get(3);
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
            let a = NdArray::<f64, 2>::new(ctx, rd!([0, 0]..[2, 2]));
            let dirs: Vec<NdArray<f64, 2>> = ctx.allgatherv(&[a]);
            let other = dirs[1 - ctx.rank()];
            let _ = LocalGrid::new(ctx, &other);
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
