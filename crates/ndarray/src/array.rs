//! Multidimensional global arrays over rectangular domains (paper §III-E).
//!
//! An [`NdArray<T, N>`] is a descriptor: owning rank + storage base +
//! index-space mapping + current view domain. The elements live on a single
//! rank (possibly remote); *views* — [`restrict`](NdArray::restrict),
//! [`slice`](NdArray::slice), [`translate`](NdArray::translate),
//! [`permute`](NdArray::permute) — reinterpret the same storage without
//! copying, exactly as in Titanium/UPC++.
//!
//! The descriptor is itself [`Pod`], so arrays compose with
//! `rupcxx::SharedArray` to build the paper's directory of per-rank grids:
//! `shared_array<ndarray<int,3>> dir(THREADS)` (§III-E) works verbatim as
//! `SharedArray::<NdArray<f64, 3>>::new(ctx, ranks, 1)`.

use crate::copy::with_pack;
use crate::domain::RectDomain;
use crate::point::Point;
use rupcxx::GlobalPtr;
use rupcxx_net::pod::{bytes_of, bytes_of_mut};
use rupcxx_net::{GlobalAddr, Pod, Rank};
use rupcxx_runtime::Ctx;
use std::marker::PhantomData;

/// A (possibly remote) N-dimensional array over a rectangular domain.
pub struct NdArray<T: Pod, const N: usize> {
    /// Storage base: element at the mapping origin.
    pub(crate) base: GlobalAddr,
    /// Logical coordinate mapped to physical index 0.
    pub(crate) map_lo: Point<N>,
    /// Lattice stride of the storage mapping (a "matching logical and
    /// physical stride" array — the paper's `unstrided` — has all ones).
    pub(crate) map_stride: Point<N>,
    /// Physical element stride per dimension (row-major at creation).
    pub(crate) phys: Point<N>,
    /// Current view domain.
    pub(crate) domain: RectDomain<N>,
    pub(crate) _elem: PhantomData<fn() -> T>,
}

impl<T: Pod, const N: usize> Clone for NdArray<T, N> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T: Pod, const N: usize> Copy for NdArray<T, N> {}

// SAFETY: all fields are `GlobalAddr` (two usize) / `Point` ([i64; N]) —
// 8-byte aligned, no padding, every bit pattern valid; PhantomData is a ZST.
unsafe impl<T: Pod, const N: usize> Pod for NdArray<T, N> {}

impl<T: Pod, const N: usize> NdArray<T, N> {
    /// Allocate a fresh array over `domain` in the calling rank's segment
    /// (the paper's `ARRAY(T, (...))`). Contents are unspecified until
    /// written; see [`NdArray::fill`].
    pub fn new(ctx: &Ctx, domain: RectDomain<N>) -> Self {
        let elems = domain.size().max(1);
        let bytes = elems * std::mem::size_of::<T>();
        let base = ctx
            .alloc_on(ctx.rank(), bytes)
            .expect("segment memory for NdArray");
        // Row-major physical strides from the domain extents.
        let mut phys = Point::<N>::zero();
        let mut acc = 1i64;
        for d in (0..N).rev() {
            phys[d] = acc;
            acc *= domain.extent(d) as i64;
        }
        NdArray {
            base,
            map_lo: domain.lo(),
            map_stride: domain.stride(),
            phys,
            domain,
            _elem: PhantomData,
        }
    }

    /// The view's domain.
    pub fn domain(&self) -> RectDomain<N> {
        self.domain
    }

    /// The rank owning the storage.
    pub fn owner(&self) -> Rank {
        self.base.rank()
    }

    /// True when the storage mapping has matching logical and physical
    /// stride (no division needed to index) — the paper's `unstrided`
    /// template specialization.
    pub fn is_unstrided(&self) -> bool {
        self.map_stride == Point::ones()
    }

    /// Physical element index of logical point `p` (no bounds check).
    #[inline]
    pub(crate) fn phys_index(&self, p: Point<N>) -> i64 {
        let mut idx = 0i64;
        if self.is_unstrided() {
            for d in 0..N {
                idx += (p[d] - self.map_lo[d]) * self.phys[d];
            }
        } else {
            for d in 0..N {
                idx += ((p[d] - self.map_lo[d]) / self.map_stride[d]) * self.phys[d];
            }
        }
        idx
    }

    /// Global pointer to the element at `p` (bounds-checked against the
    /// view domain).
    fn addr_of(&self, p: Point<N>) -> GlobalPtr<T> {
        assert!(
            self.domain.contains(p),
            "NdArray index {p} outside domain {}",
            self.domain
        );
        let idx = self.phys_index(p);
        debug_assert!(idx >= 0);
        GlobalPtr::from_addr(self.base.add(idx as usize * std::mem::size_of::<T>()))
    }

    /// Read the element at `p` (one-sided if remote) — `array[pt]`.
    pub fn get(&self, ctx: &Ctx, p: Point<N>) -> T {
        self.addr_of(p).rget(ctx)
    }

    /// Write the element at `p` (one-sided if remote).
    pub fn set(&self, ctx: &Ctx, p: Point<N>, value: T) {
        self.addr_of(p).rput(ctx, value)
    }

    /// Restrict the view to `dom ∩ domain` (the paper's
    /// `A.constrict(ghost_domain)`): same storage, smaller index space.
    pub fn restrict(&self, dom: RectDomain<N>) -> Self {
        let mut out = *self;
        out.domain = self.domain.intersect(&dom);
        out
    }

    /// Shift the view's index space by `t`: point `p + t` of the result
    /// refers to point `p` of `self`.
    pub fn translate(&self, t: Point<N>) -> Self {
        let mut out = *self;
        out.domain = self.domain.translate(t);
        out.map_lo = self.map_lo + t;
        out
    }

    /// Reorder dimensions: point `q` of the result refers to point
    /// `q.permute(perm)`... precisely, result dimension `d` is source
    /// dimension `perm[d]`.
    pub fn permute(&self, perm: [usize; N]) -> Self {
        NdArray {
            base: self.base,
            map_lo: self.map_lo.permute(perm),
            map_stride: self.map_stride.permute(perm),
            phys: self.phys.permute(perm),
            domain: self.domain.permute(perm),
            _elem: PhantomData,
        }
    }

    /// Fill the entire view with `value` (local or one-sided).
    pub fn fill(&self, ctx: &Ctx, value: T) {
        self.fill_with(ctx, |_| value);
    }

    /// Initialize each element from `f(p)`: the values are packed in
    /// lexicographic point order, then written with one strided put per
    /// run of the view (local or one-sided). `f` sees the view as it was
    /// before the call.
    pub fn fill_with(&self, ctx: &Ctx, mut f: impl FnMut(Point<N>) -> T) {
        with_pack(|pack| {
            pack.clear();
            pack.reserve(self.domain.size() * std::mem::size_of::<T>());
            self.domain
                .for_each(|p| pack.extend_from_slice(bytes_of(&[f(p)])));
            self.put_packed(ctx, pack);
        });
    }

    /// Read the view out in lexicographic point order: one strided get
    /// per run of the view.
    pub fn to_vec(&self, ctx: &Ctx) -> Vec<T> {
        let mut out = vec![T::zeroed(); self.domain.size()];
        self.get_packed(ctx, bytes_of_mut(&mut out));
        out
    }

    /// Free the storage. Call exactly once per *allocation* (not per view),
    /// from any rank.
    pub fn destroy(self, ctx: &Ctx) {
        ctx.free(self.base);
    }
}

macro_rules! impl_slice {
    ($n:literal => $m:literal) => {
        impl<T: Pod> NdArray<T, $n> {
            /// Slice at `coord` along `dim`, producing a view one
            /// dimension lower (the paper's `(N-1)`-dimensional view of an
            /// N-dimensional array).
            pub fn slice(&self, dim: usize, coord: i64) -> NdArray<T, $m> {
                assert!(
                    coord >= self.domain.lo()[dim] && coord < self.domain.hi()[dim],
                    "slice coordinate {coord} outside domain {} in dim {dim}",
                    self.domain
                );
                let steps = (coord - self.map_lo[dim]) / self.map_stride[dim];
                let base = self
                    .base
                    .add((steps * self.phys[dim]) as usize * std::mem::size_of::<T>());
                NdArray {
                    base,
                    map_lo: self.map_lo.drop_dim::<$m>(dim),
                    map_stride: self.map_stride.drop_dim::<$m>(dim),
                    phys: self.phys.drop_dim::<$m>(dim),
                    domain: RectDomain::strided(
                        self.domain.lo().drop_dim::<$m>(dim),
                        self.domain.hi().drop_dim::<$m>(dim),
                        self.domain.stride().drop_dim::<$m>(dim),
                    ),
                    _elem: PhantomData,
                }
            }
        }
    };
}

impl_slice!(2 => 1);
impl_slice!(3 => 2);
impl_slice!(4 => 3);

impl<T: Pod, const N: usize> std::fmt::Debug for NdArray<T, N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "NdArray<{}, {N}>(rank {}, domain {})",
            std::any::type_name::<T>(),
            self.base.rank(),
            self.domain
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{pt, rd};
    use rupcxx_runtime::{spmd, RuntimeConfig};

    fn cfg(n: usize) -> RuntimeConfig {
        RuntimeConfig::new(n).segment_bytes(1 << 20)
    }

    #[test]
    fn fill_and_read_back_2d() {
        spmd(cfg(1), |ctx| {
            let a = NdArray::<f64, 2>::new(ctx, rd!([0, 0]..[4, 5]));
            a.fill_with(ctx, |p| (p[0] * 10 + p[1]) as f64);
            assert_eq!(a.get(ctx, pt![0, 0]), 0.0);
            assert_eq!(a.get(ctx, pt![3, 4]), 34.0);
            assert_eq!(a.get(ctx, pt![2, 1]), 21.0);
            a.destroy(ctx);
        });
    }

    #[test]
    fn negative_bounds_domains() {
        spmd(cfg(1), |ctx| {
            let a = NdArray::<i64, 2>::new(ctx, rd!([-2, -2]..[2, 2]));
            a.fill_with(ctx, |p| p[0] * 100 + p[1]);
            assert_eq!(a.get(ctx, pt![-2, -2]), -202);
            assert_eq!(a.get(ctx, pt![1, -1]), 99);
            a.destroy(ctx);
        });
    }

    #[test]
    fn strided_array_indexing() {
        spmd(cfg(1), |ctx| {
            // Paper's array literal: domain [(1,2) .. (9,9) : (1,3)].
            let dom = rd!([1, 2] .. [9, 9]; [1, 3]);
            let a = NdArray::<i64, 2>::new(ctx, dom);
            assert!(!a.is_unstrided());
            a.fill_with(ctx, |p| p[0] * 1000 + p[1]);
            assert_eq!(a.get(ctx, pt![1, 2]), 1002);
            assert_eq!(a.get(ctx, pt![8, 8]), 8008);
            assert_eq!(a.get(ctx, pt![5, 5]), 5005);
            a.destroy(ctx);
        });
    }

    #[test]
    #[should_panic(expected = "outside domain")]
    fn out_of_domain_panics() {
        spmd(cfg(1), |ctx| {
            let a = NdArray::<f64, 2>::new(ctx, rd!([0, 0]..[2, 2]));
            let _ = a.get(ctx, pt![2, 0]);
        });
    }

    #[test]
    fn restrict_shares_storage() {
        spmd(cfg(1), |ctx| {
            let a = NdArray::<f64, 2>::new(ctx, rd!([0, 0]..[6, 6]));
            a.fill(ctx, 1.0);
            let interior = a.restrict(a.domain().shrink(1));
            assert_eq!(interior.domain(), rd!([1, 1]..[5, 5]));
            interior.fill(ctx, 2.0);
            // Boundary untouched, interior updated — same storage.
            assert_eq!(a.get(ctx, pt![0, 0]), 1.0);
            assert_eq!(a.get(ctx, pt![1, 1]), 2.0);
            assert_eq!(a.get(ctx, pt![4, 4]), 2.0);
            assert_eq!(a.get(ctx, pt![5, 5]), 1.0);
            a.destroy(ctx);
        });
    }

    #[test]
    fn translate_view() {
        spmd(cfg(1), |ctx| {
            let a = NdArray::<i64, 1>::new(ctx, rd!([0]..[4]));
            a.fill_with(ctx, |p| p[0] * 2);
            let t = a.translate(pt![10]);
            assert_eq!(t.domain(), rd!([10]..[14]));
            assert_eq!(t.get(ctx, pt![10]), 0);
            assert_eq!(t.get(ctx, pt![13]), 6);
            a.destroy(ctx);
        });
    }

    #[test]
    fn slice_3d_to_2d() {
        spmd(cfg(1), |ctx| {
            let a = NdArray::<i64, 3>::new(ctx, rd!([0, 0, 0]..[3, 4, 5]));
            a.fill_with(ctx, |p| p[0] * 100 + p[1] * 10 + p[2]);
            // Slice plane i = 1.
            let s = a.slice(0, 1);
            assert_eq!(s.domain(), rd!([0, 0]..[4, 5]));
            assert_eq!(s.get(ctx, pt![2, 3]), 123);
            // Slice along the middle dim: j = 2.
            let m = a.slice(1, 2);
            assert_eq!(m.get(ctx, pt![1, 4]), 124);
            // Writing through a slice hits the parent.
            s.set(ctx, pt![0, 0], -7);
            assert_eq!(a.get(ctx, pt![1, 0, 0]), -7);
            a.destroy(ctx);
        });
    }

    #[test]
    fn permute_swaps_axes() {
        spmd(cfg(1), |ctx| {
            let a = NdArray::<i64, 2>::new(ctx, rd!([0, 0]..[2, 3]));
            a.fill_with(ctx, |p| p[0] * 10 + p[1]);
            let t = a.permute([1, 0]); // transpose
            assert_eq!(t.domain(), rd!([0, 0]..[3, 2]));
            assert_eq!(t.get(ctx, pt![2, 1]), 12);
            assert_eq!(t.get(ctx, pt![0, 1]), 10);
            a.destroy(ctx);
        });
    }

    #[test]
    fn remote_array_access_via_descriptor() {
        spmd(cfg(2), |ctx| {
            // Rank 1 creates a grid; rank 0 reads it through the broadcast
            // descriptor (the directory pattern).
            let desc = if ctx.rank() == 1 {
                let a = NdArray::<f64, 2>::new(ctx, rd!([0, 0]..[3, 3]));
                a.fill_with(ctx, |p| (p[0] + p[1]) as f64);
                ctx.broadcast(1, a)
            } else {
                ctx.broadcast(
                    1,
                    NdArray::<f64, 2>::read_from(&vec![
                        0u8;
                        std::mem::size_of::<NdArray<f64, 2>>()
                    ]),
                )
            };
            assert_eq!(desc.owner(), 1);
            let v = desc.get(ctx, pt![2, 1]);
            assert_eq!(v, 3.0);
            ctx.barrier();
            if ctx.rank() == 1 {
                desc.destroy(ctx);
            }
        });
    }

    /// A distinct value per point.
    fn code(p: Point<3>) -> i64 {
        p[0] * 10_000 + p[1] * 100 + p[2]
    }

    /// Write `-1` everywhere in `a` and `twin` point by point, then fill
    /// `view(a)` with `fill_with(code)` and `view(twin)` with per-point
    /// `set`s: both arrays must then hold the same values everywhere.
    fn fill_with_matches_per_point_set(
        ctx: &Ctx,
        a: NdArray<i64, 3>,
        twin: NdArray<i64, 3>,
        view: impl Fn(NdArray<i64, 3>) -> NdArray<i64, 3>,
    ) {
        let all = a.domain();
        all.for_each(|p| a.set(ctx, p, -1));
        all.for_each(|p| twin.set(ctx, p, -1));
        let v = view(twin);
        view(a).fill_with(ctx, code);
        v.domain().for_each(|q| v.set(ctx, q, code(q)));
        all.for_each(|p| assert_eq!(a.get(ctx, p), twin.get(ctx, p), "{p}"));
    }

    #[test]
    fn fill_with_writes_exactly_a_restricted_view() {
        spmd(cfg(1), |ctx| {
            let dom = rd!([0, 0, 0]..[5, 6, 7]);
            let (a, twin) = (NdArray::new(ctx, dom), NdArray::new(ctx, dom));
            fill_with_matches_per_point_set(ctx, a, twin, |x| {
                x.restrict(rd!([1, 2, 1]..[4, 5, 6]))
            });
            // A one-point-thick slab, a single row and a single point.
            for slab in [
                rd!([2, 0, 0]..[3, 6, 7]),
                rd!([0, 0, 3]..[5, 6, 4]),
                rd!([1, 1, 0]..[2, 2, 7]),
                rd!([4, 5, 6]..[5, 6, 7]),
            ] {
                fill_with_matches_per_point_set(ctx, a, twin, |x| x.restrict(slab));
            }
            a.destroy(ctx);
            twin.destroy(ctx);
        });
    }

    #[test]
    fn fill_with_writes_exactly_a_permuted_view() {
        spmd(cfg(1), |ctx| {
            // Dimension 2 of the view is dimension 0 of the storage: its
            // innermost points lie a plane apart.
            let dom = rd!([0, 0, 0]..[4, 5, 6]);
            let (a, twin) = (NdArray::new(ctx, dom), NdArray::new(ctx, dom));
            fill_with_matches_per_point_set(ctx, a, twin, |x| {
                x.permute([1, 2, 0]).restrict(rd!([1, 1, 1]..[4, 5, 3]))
            });
            a.destroy(ctx);
            twin.destroy(ctx);
        });
    }

    #[test]
    fn fill_with_writes_exactly_a_remote_view() {
        spmd(cfg(2), |ctx| {
            // Each rank fills its neighbour's arrays: every put is remote.
            let dom = rd!([0, 0, 0]..[4, 4, 4]);
            let mine = [NdArray::<i64, 3>::new(ctx, dom), NdArray::new(ctx, dom)];
            let dirs: Vec<[NdArray<i64, 3>; 2]> = ctx.allgatherv(&[mine]);
            ctx.barrier();
            let [a, twin] = dirs[1 - ctx.rank()];
            fill_with_matches_per_point_set(ctx, a, twin, |x| {
                x.restrict(rd!([1, 0, 1]..[3, 4, 3]))
            });
            ctx.barrier();
            for x in mine {
                x.destroy(ctx);
            }
        });
    }

    #[test]
    fn fill_with_puts_one_strided_op_per_run() {
        spmd(cfg(2), |ctx| {
            // The 16³ interior of an 18³ block: rows of 16 words, 16 to a
            // run, one run per plane.
            let block = NdArray::<f64, 3>::new(ctx, rd!([-1, -1, -1]..[17, 17, 17]));
            let dirs: Vec<NdArray<f64, 3>> = ctx.allgatherv(&[block]);
            ctx.barrier();
            if ctx.rank() == 0 {
                let remote = dirs[1].restrict(rd!([0, 0, 0]..[16, 16, 16]));
                let before = ctx.fabric().endpoint(0).stats.snapshot();
                remote.fill_with(ctx, |p| code(p) as f64);
                let counts = ctx.fabric().endpoint(0).stats.snapshot().since(&before);
                assert_eq!(counts.puts, 16, "one strided put per run");
                assert_eq!(counts.put_bytes, 16 * 16 * 16 * 8);
                let before = ctx.fabric().endpoint(0).stats.snapshot();
                let back = remote.to_vec(ctx);
                let counts = ctx.fabric().endpoint(0).stats.snapshot().since(&before);
                assert_eq!(counts.gets, 16, "one strided get per run");
                let mut want = Vec::new();
                remote.domain().for_each(|p| want.push(code(p) as f64));
                assert_eq!(back, want);
            }
            ctx.barrier();
            block.destroy(ctx);
        });
    }

    #[test]
    fn fill_with_whose_closure_copies() {
        spmd(cfg(1), |ctx| {
            // The closure runs a copy, which packs too, before each value
            // it returns: the fill still writes the per-point values, and
            // no pack is borrowed twice.
            let a = NdArray::<i64, 3>::new(ctx, rd!([0, 0, 0]..[3, 4, 5]));
            let src = NdArray::<i64, 2>::new(ctx, rd!([0, 0]..[6, 6]));
            let dst = NdArray::<i64, 2>::new(ctx, rd!([0, 0]..[6, 6]));
            src.fill_with(ctx, |p| p[0] * 6 + p[1]);
            a.fill(ctx, -1);
            let inner = rd!([1, 0, 1]..[3, 4, 4]);
            a.restrict(inner).fill_with(ctx, |p| {
                dst.fill(ctx, 0);
                dst.copy_from(ctx, &src);
                code(p)
            });
            a.domain().for_each(|p| {
                let want = if inner.contains(p) { code(p) } else { -1 };
                assert_eq!(a.get(ctx, p), want, "{p}");
            });
            assert_eq!(dst.to_vec(ctx), src.to_vec(ctx));
            for x in [src, dst] {
                x.destroy(ctx);
            }
            a.destroy(ctx);
        });
    }

    #[test]
    fn to_vec_of_a_strided_view() {
        spmd(cfg(1), |ctx| {
            // A permuted view (storage-strided innermost dimension) and a
            // stride-2 view of a unit-stride array.
            let a = NdArray::<i64, 3>::new(ctx, rd!([0, 0, 0]..[4, 5, 6]));
            a.fill_with(ctx, code);
            let views = [
                a.permute([2, 0, 1]).restrict(rd!([1, 0, 2]..[5, 3, 5])),
                NdArray {
                    domain: rd!([0, 1, 0] .. [4, 5, 6]; [2, 1, 3]),
                    ..a
                },
            ];
            for v in views {
                let mut want = Vec::new();
                v.domain().for_each(|q| want.push(v.get(ctx, q)));
                assert_eq!(v.to_vec(ctx), want, "{v:?}");
            }
            a.destroy(ctx);
        });
    }

    #[test]
    fn to_vec_lexicographic() {
        spmd(cfg(1), |ctx| {
            let a = NdArray::<i64, 2>::new(ctx, rd!([0, 0]..[2, 2]));
            a.fill_with(ctx, |p| p[0] * 2 + p[1]);
            assert_eq!(a.to_vec(ctx), vec![0, 1, 2, 3]);
            a.destroy(ctx);
        });
    }
}
