//! One-sided array copy with automatic domain intersection (paper §III-E).
//!
//! `A.copy(B)` in UPC++ "computes the intersection of their domains,
//! obtains the subset of the source array restricted to that intersection,
//! packs elements if necessary, sends the data to the processor that owns
//! the destination, and copies the data to the destination array,
//! unpacking if necessary. The entire operation is one-sided."
//!
//! [`NdArray::copy_from`] reproduces that: the initiating rank gathers the
//! intersection from the source owner's segment (one-sided gets), then
//! scatters into the destination owner's segment (one-sided puts). A
//! [`CopyPlan`] resolves each side once into runs of evenly spaced blocks,
//! one strided (vector) RMA operation per run — the iovec capability of
//! RDMA NICs. A ghost face of an `e`-edge 3-D block is one run a side when
//! normal to dimension 0 or 1, `e` runs when normal to dimension 2.
//!
//! Whole-view writes and reads are the two halves of a copy:
//! [`NdArray::fill_with`] packs its values and scatters the pack, and
//! [`NdArray::to_vec`] gathers the view, one strided op per run either way.

use crate::array::NdArray;
use crate::domain::RectDomain;
use rupcxx_net::{GlobalAddr, Pod};
use rupcxx_runtime::Ctx;
use std::cell::Cell;

/// `count` blocks of `block` bytes, `stride` bytes apart, from byte `off`
/// of an array's storage: one strided RMA operation.
#[derive(Clone, Copy)]
struct Run {
    off: usize,
    stride: usize,
    block: usize,
    count: usize,
}

/// A copy resolved into runs: gather `src`'s runs into the pack in
/// order, then scatter the pack through `dst`'s. Both sides cover the
/// same `bytes`, in the intersection's lexicographic order.
pub(crate) struct CopyPlan {
    src: GlobalAddr,
    dst: GlobalAddr,
    bytes: usize,
    gather: Vec<Run>,
    scatter: Vec<Run>,
}

thread_local! {
    /// The pack between gather and scatter. SPMD ranks are distinct
    /// threads, so it is private to its rank, and steady-state ghost
    /// exchanges and fills reuse its capacity instead of allocating per
    /// call.
    static PACK: Cell<Vec<u8>> = const { Cell::new(Vec::new()) };
}

/// Run `body` on the rank's pack, taken out of its cell for the call and
/// put back after: a fill whose closure copies finds the cell empty
/// instead of borrowed.
pub(crate) fn with_pack<R>(body: impl FnOnce(&mut Vec<u8>) -> R) -> R {
    let mut pack = PACK.take();
    let out = body(&mut pack);
    PACK.set(pack);
    out
}

/// One strided get per run at `base` into `pack`, in order.
fn gather(ctx: &Ctx, base: GlobalAddr, runs: impl IntoIterator<Item = Run>, pack: &mut [u8]) {
    let (me, fabric, mut at) = (ctx.rank(), ctx.fabric(), 0);
    for r in runs {
        let buf = &mut pack[at..][..r.block * r.count];
        fabric.get_strided(me, base.add(r.off), r.stride, buf, r.block, r.count);
        at += buf.len();
    }
}

/// One strided put per run at `base` from `pack`, in order.
fn scatter(ctx: &Ctx, base: GlobalAddr, runs: impl IntoIterator<Item = Run>, pack: &[u8]) {
    let (me, fabric, mut at) = (ctx.rank(), ctx.fabric(), 0);
    for r in runs {
        let buf = &pack[at..][..r.block * r.count];
        fabric.put_strided(me, base.add(r.off), r.stride, buf, r.block, r.count);
        at += buf.len();
    }
}

/// `arr`'s storage under `inter` as runs, in the intersection's
/// lexicographic order. Innermost dimensions contiguous in storage widen
/// the block (to a row, a plane…; to one element in a physically strided
/// view), the next one is the run, lengthened by outer dimensions that
/// continue its stride, and each point of the dimensions left starts a run.
fn runs<T: Pod, const N: usize>(
    arr: &NdArray<T, N>,
    inter: &RectDomain<N>,
) -> impl Iterator<Item = Run> {
    let elem = std::mem::size_of::<T>();
    // The dimensions that move, outermost first: (extent, byte step).
    let mut dims = [(0, 0); N];
    let mut len = 0;
    for d in (0..N).filter(|&d| inter.extent(d) > 1) {
        let step = arr.phys[d] * inter.stride()[d] / arr.map_stride[d];
        dims[len] = (inter.extent(d), step as usize * elem);
        len += 1;
    }
    let mut block = elem;
    while len > 0 && dims[len - 1].1 == block {
        len -= 1;
        block *= dims[len].0;
    }
    let (mut count, mut stride) = (1, block);
    if len > 0 {
        len -= 1;
        (count, stride) = dims[len];
        while len > 0 && dims[len - 1].1 == stride * count {
            len -= 1;
            count *= dims[len].0;
        }
    }
    // Run `k` starts at point `k` (lexicographic) of the dimensions left.
    let first = arr.phys_index(inter.lo()) as usize * elem;
    let runs = dims[..len].iter().map(|&(n, _)| n).product();
    (0..runs).map(move |mut k: usize| {
        let mut off = first;
        for &(n, step) in dims[..len].iter().rev() {
            off += k % n * step;
            k /= n;
        }
        Run {
            off,
            stride,
            block,
            count,
        }
    })
}

impl CopyPlan {
    /// Plan `dst.copy_from(src)`: `None` when the domains do not meet.
    pub(crate) fn new<T: Pod, const N: usize>(
        dst: &NdArray<T, N>,
        src: &NdArray<T, N>,
    ) -> Option<Self> {
        let inter = dst.domain().intersect(&src.domain());
        if inter.is_empty() {
            return None;
        }
        Some(CopyPlan {
            src: src.base,
            dst: dst.base,
            bytes: inter.size() * std::mem::size_of::<T>(),
            gather: runs(src, &inter).collect(),
            scatter: runs(dst, &inter).collect(),
        })
    }

    /// Move the data: one strided get per gather run into the rank's
    /// pack, then one strided put per scatter run. One-sided.
    pub(crate) fn run(&self, ctx: &Ctx) {
        with_pack(|pack| {
            if pack.len() < self.bytes {
                pack.resize(self.bytes, 0);
            }
            gather(ctx, self.src, self.gather.iter().copied(), pack);
            scatter(ctx, self.dst, self.scatter.iter().copied(), pack);
        });
    }
}

impl<T: Pod, const N: usize> NdArray<T, N> {
    /// Write `pack`, the view's points in lexicographic order, into the
    /// view: the scatter half of a copy.
    pub(crate) fn put_packed(&self, ctx: &Ctx, pack: &[u8]) {
        if !self.domain.is_empty() {
            scatter(ctx, self.base, runs(self, &self.domain), pack);
        }
    }

    /// Read the view's points into `pack` in lexicographic order: the
    /// gather half of a copy.
    pub(crate) fn get_packed(&self, ctx: &Ctx, pack: &mut [u8]) {
        if !self.domain.is_empty() {
            gather(ctx, self.base, runs(self, &self.domain), pack);
        }
    }

    /// Copy from `src` into `self` over the intersection of their domains
    /// — the paper's `A.copy(B)` / ghost exchange
    /// `A.constrict(ghost_domain).copy(B)`.
    ///
    /// One-sided: only the *calling* rank's CPU does work; the owners of
    /// `src` and `self` are not involved unless they are the caller.
    pub fn copy_from(&self, ctx: &Ctx, src: &NdArray<T, N>) {
        if let Some(plan) = CopyPlan::new(self, src) {
            plan.run(ctx);
        }
    }

    /// Ghost-zone helper: copy the slab of `self` lying `side` of `dim`
    /// *outside* `interior` (the ghost cells) from the neighbour's array
    /// view `src`. Equivalent to
    /// `self.restrict(interior.exterior_face(dim, side, width)).copy_from(ctx, src)`.
    pub fn copy_ghost_from(
        &self,
        ctx: &Ctx,
        src: &NdArray<T, N>,
        interior: RectDomain<N>,
        dim: usize,
        side: i8,
        width: i64,
    ) {
        let ghost = interior.exterior_face(dim, side, width);
        self.restrict(ghost).copy_from(ctx, src);
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
    fn copy_full_overlap_local() {
        spmd(cfg(1), |ctx| {
            let a = NdArray::<f64, 2>::new(ctx, rd!([0, 0]..[4, 4]));
            let b = NdArray::<f64, 2>::new(ctx, rd!([0, 0]..[4, 4]));
            b.fill_with(ctx, |p| (p[0] * 4 + p[1]) as f64);
            a.fill(ctx, -1.0);
            a.copy_from(ctx, &b);
            assert_eq!(a.to_vec(ctx), b.to_vec(ctx));
            a.destroy(ctx);
            b.destroy(ctx);
        });
    }

    #[test]
    fn copy_partial_overlap() {
        spmd(cfg(1), |ctx| {
            let a = NdArray::<i64, 2>::new(ctx, rd!([0, 0]..[4, 4]));
            let b = NdArray::<i64, 2>::new(ctx, rd!([2, 2]..[6, 6]));
            a.fill(ctx, 0);
            b.fill(ctx, 9);
            a.copy_from(ctx, &b);
            // Only the [2,2)..[4,4) corner changed.
            assert_eq!(a.get(ctx, pt![1, 1]), 0);
            assert_eq!(a.get(ctx, pt![2, 2]), 9);
            assert_eq!(a.get(ctx, pt![3, 3]), 9);
            assert_eq!(a.get(ctx, pt![3, 1]), 0);
            a.destroy(ctx);
            b.destroy(ctx);
        });
    }

    #[test]
    fn copy_disjoint_is_noop() {
        spmd(cfg(1), |ctx| {
            let a = NdArray::<i64, 1>::new(ctx, rd!([0]..[4]));
            let b = NdArray::<i64, 1>::new(ctx, rd!([10]..[14]));
            a.fill(ctx, 1);
            b.fill(ctx, 2);
            a.copy_from(ctx, &b);
            assert_eq!(a.to_vec(ctx), vec![1; 4]);
            a.destroy(ctx);
            b.destroy(ctx);
        });
    }

    #[test]
    fn ghost_exchange_between_ranks_3d() {
        // Two ranks side by side along dim 0; exchange one-plane ghosts.
        spmd(cfg(2), |ctx| {
            let me = ctx.rank() as i64;
            // Rank r owns interior [4r..4r+4) × [0..4) × [0..4), with a
            // one-cell ghost shell along dim 0.
            let interior = rd!([4 * me, 0, 0]..[4 * me + 4, 4, 4]);
            let with_ghosts = rd!([4 * me - 1, 0, 0]..[4 * me + 5, 4, 4]);
            let grid = NdArray::<f64, 3>::new(ctx, with_ghosts);
            grid.fill(ctx, -1.0);
            grid.restrict(interior)
                .fill_with(ctx, |p| (p[0] * 100 + p[1] * 10 + p[2]) as f64);
            // Publish descriptors.
            let dirs: Vec<NdArray<f64, 3>> = ctx.allgatherv(&[grid]);
            ctx.barrier();
            // Pull my ghost plane from my neighbour's interior (one-sided).
            if me == 0 {
                grid.copy_ghost_from(ctx, &dirs[1], interior, 0, 1, 1);
                // Ghost plane x=4 now holds neighbour values 4??.
                assert_eq!(grid.get(ctx, pt![4, 0, 0]), 400.0);
                assert_eq!(grid.get(ctx, pt![4, 3, 2]), 432.0);
                // Interior untouched.
                assert_eq!(grid.get(ctx, pt![3, 3, 3]), 333.0);
            } else {
                grid.copy_ghost_from(ctx, &dirs[0], interior, 0, -1, 1);
                assert_eq!(grid.get(ctx, pt![3, 0, 0]), 300.0);
                assert_eq!(grid.get(ctx, pt![3, 2, 1]), 321.0);
            }
            ctx.barrier();
            grid.destroy(ctx);
        });
    }

    #[test]
    fn copy_counts_one_strided_op_per_side_for_planes() {
        spmd(cfg(2), |ctx| {
            let me = ctx.rank() as i64;
            let dom = rd!([0, 0, 4 * me]..[4, 4, 4 * me + 4]);
            let grid = NdArray::<f64, 3>::new(ctx, dom);
            grid.fill(ctx, me as f64);
            let dirs: Vec<NdArray<f64, 3>> = ctx.allgatherv(&[grid]);
            ctx.barrier();
            if me == 0 {
                let before = ctx.fabric().endpoint(0).stats.snapshot();
                // Copy a face of the neighbour's grid (normal to dim 0:
                // rows run along dim 2, heads vary along dim 1 with
                // uniform spacing in the source storage).
                let face = rd!([1, 0, 4]..[2, 4, 8]);
                let dst = grid.translate(pt![0, 0, 4]); // view over neighbour's coords
                dst.restrict(face).copy_from(ctx, &dirs[1]);
                let counts = ctx.fabric().endpoint(0).stats.snapshot().since(&before);
                // One strided get from the remote source; puts into the
                // local destination count as local ops.
                assert_eq!(counts.gets, 1, "gather collapsed to one vector op");
                assert_eq!(counts.get_bytes, 4 * 4 * 8);
            }
            ctx.barrier();
            grid.destroy(ctx);
        });
    }

    #[test]
    fn copy_counts_one_strided_get_per_row_of_a_k_face() {
        spmd(cfg(2), |ctx| {
            // Blocks with a ghost shell, side by side along dim 2: a face
            // normal to the last dimension is one element per (i, j),
            // `e` runs of `e` words (one per i), not `e²` one-word ops.
            let (me, e) = (ctx.rank() as i64, 4i64);
            let interior = rd!([0, 0, e * me]..[e, e, e * me + e]);
            let grid = NdArray::<f64, 3>::new(ctx, interior.shrink(-1));
            grid.fill_with(ctx, |p| (p[0] * 100 + p[1] * 10 + p[2]) as f64);
            let dirs: Vec<NdArray<f64, 3>> = ctx.allgatherv(&[grid]);
            ctx.barrier();
            if me == 0 {
                let before = ctx.fabric().endpoint(0).stats.snapshot();
                grid.copy_ghost_from(ctx, &dirs[1], interior, 2, 1, 1);
                let counts = ctx.fabric().endpoint(0).stats.snapshot().since(&before);
                assert_eq!(counts.gets, e as u64, "one strided get per row of the face");
                assert_eq!(counts.get_bytes, (e * e * 8) as u64);
                interior.exterior_face(2, 1, 1).for_each(|p| {
                    assert_eq!(grid.get(ctx, p), (p[0] * 100 + p[1] * 10 + p[2]) as f64);
                });
            }
            ctx.barrier();
            grid.destroy(ctx);
        });
    }

    #[test]
    fn single_row_copy_is_one_vector_op_per_side() {
        spmd(cfg(2), |ctx| {
            // A 1-D contiguous intersection is a single row: the
            // single-row bail-out must still collapse the remote gather
            // to one vector op, with no offset table built.
            let me = ctx.rank() as i64;
            let arr = NdArray::<i64, 1>::new(ctx, rd!([16 * me]..[16 * me + 16]));
            arr.fill_with(ctx, |p| p[0] * 3 + 1);
            let dirs: Vec<NdArray<i64, 1>> = ctx.allgatherv(&[arr]);
            ctx.barrier();
            if me == 0 {
                let before = ctx.fabric().endpoint(0).stats.snapshot();
                // View my storage over the neighbour's coordinates so the
                // intersection is the neighbour's whole (single) row.
                let dst = arr.translate(pt![16]);
                dst.copy_from(ctx, &dirs[1]);
                let counts = ctx.fabric().endpoint(0).stats.snapshot().since(&before);
                assert_eq!(counts.gets, 1, "gather collapsed to one vector op");
                assert_eq!(counts.get_bytes, 16 * 8);
                for i in 0..16i64 {
                    assert_eq!(arr.get(ctx, pt![i]), (i + 16) * 3 + 1);
                }
            }
            ctx.barrier();
            arr.destroy(ctx);
        });
    }

    #[test]
    fn repeated_copies_reuse_scratch() {
        spmd(cfg(1), |ctx| {
            // Steady-state ghost-exchange pattern: the same copy repeated.
            // Correctness must hold across scratch reuse (stale pack
            // contents, shrinking and growing intersections).
            let a = NdArray::<i64, 2>::new(ctx, rd!([0, 0]..[6, 6]));
            let big = NdArray::<i64, 2>::new(ctx, rd!([0, 0]..[6, 6]));
            let small = NdArray::<i64, 2>::new(ctx, rd!([2, 2]..[4, 4]));
            big.fill_with(ctx, |p| p[0] * 10 + p[1]);
            small.fill(ctx, -7);
            for _ in 0..3 {
                a.fill(ctx, 0);
                a.copy_from(ctx, &big); // large pack
                a.copy_from(ctx, &small); // smaller pack reusing the arena
                assert_eq!(a.get(ctx, pt![0, 5]), 5);
                assert_eq!(a.get(ctx, pt![3, 3]), -7);
                assert_eq!(a.get(ctx, pt![5, 1]), 51);
            }
            a.destroy(ctx);
            big.destroy(ctx);
            small.destroy(ctx);
        });
    }

    #[test]
    fn strided_view_copy_is_one_run_per_side() {
        spmd(cfg(1), |ctx| {
            // `copy_into_strided_view`'s copy: the stride-2 destination is
            // contiguous on its lattice, the stride-2 view of a unit-stride
            // source is one run of elements two apart.
            let a = NdArray::<i64, 1>::new(ctx, rd!([0] .. [8]; [2]));
            let b = NdArray::<i64, 1>::new(ctx, rd!([0]..[8]));
            b.fill_with(ctx, |p| p[0] + 1);
            let b_view = NdArray::<i64, 1> {
                domain: rd!([0] .. [8]; [2]),
                ..b
            };
            let before = ctx.fabric().endpoint(0).stats.snapshot();
            a.copy_from(ctx, &b_view);
            let counts = ctx.fabric().endpoint(0).stats.snapshot().since(&before);
            assert_eq!(counts.local_ops, 2, "one gather run, one scatter run");
            assert_eq!(a.to_vec(ctx), [1, 3, 5, 7]);
            a.destroy(ctx);
            b.destroy(ctx);
        });
    }

    #[test]
    fn copy_into_strided_view() {
        spmd(cfg(1), |ctx| {
            // Destination is a stride-2 view: scattered layout path.
            let a = NdArray::<i64, 1>::new(ctx, rd!([0] .. [8]; [2]));
            let b = NdArray::<i64, 1>::new(ctx, rd!([0]..[8]));
            a.fill(ctx, 0);
            b.fill_with(ctx, |p| p[0] + 1);
            // Intersection on a's lattice requires equal strides, so
            // restrict b to the same stride first.
            let b_view = NdArray::<i64, 1> {
                domain: rd!([0] .. [8]; [2]),
                ..b
            };
            a.copy_from(ctx, &b_view);
            assert_eq!(a.get(ctx, pt![0]), 1);
            assert_eq!(a.get(ctx, pt![2]), 3);
            assert_eq!(a.get(ctx, pt![6]), 7);
            a.destroy(ctx);
            b.destroy(ctx);
        });
    }
}
