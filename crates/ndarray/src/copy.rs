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
//! scatters into the destination owner's segment (one-sided puts). When
//! the rows of the intersection are uniformly spaced in an array's
//! storage, the transfer on that side collapses to a *single* strided
//! (vector) RMA operation — the iovec capability of RDMA NICs that makes
//! ghost-zone copies one network operation per side.

use crate::array::NdArray;
use crate::domain::RectDomain;
use crate::point::Point;
use rupcxx_net::Pod;
use rupcxx_runtime::Ctx;
use std::cell::RefCell;

/// Description of how an intersection lays out in one array's storage.
/// Offset tables for the non-uniform cases live in the caller's
/// [`Scratch`], not in the enum, so classifying a layout never allocates.
enum RowLayout {
    /// Rows are contiguous and uniformly spaced: (first byte offset,
    /// byte stride between rows). One strided RMA op moves everything.
    Uniform { first: usize, row_stride: usize },
    /// General case: per-row byte offsets (in `Scratch::offs`).
    PerRow,
    /// Rows are not even contiguous along the last dimension
    /// (physically strided view): per-element offsets (in `Scratch::offs`).
    Scattered,
}

/// Reusable buffers for [`NdArray::copy_from`]. SPMD ranks are distinct
/// threads, so a thread-local arena is private to its rank; steady-state
/// ghost exchanges reuse the same capacity every iteration instead of
/// paying an allocation per call.
#[derive(Default)]
struct Scratch {
    pack: Vec<u8>,
    offs: Vec<usize>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

fn layout<T: Pod, const N: usize>(
    arr: &NdArray<T, N>,
    inter: &RectDomain<N>,
    rows: &[(Point<N>, usize)],
    offs: &mut Vec<usize>,
) -> RowLayout {
    let elem = std::mem::size_of::<T>();
    offs.clear();
    // A row is contiguous iff stepping the last dim by the domain stride
    // advances storage by exactly one element.
    let contiguous = arr.phys[N - 1] * inter.stride()[N - 1] / arr.map_stride[N - 1] == 1
        && inter.stride()[N - 1] == arr.map_stride[N - 1];
    if !contiguous {
        offs.reserve(inter.size());
        inter.for_each(|p| offs.push(arr.phys_index(p) as usize * elem));
        return RowLayout::Scattered;
    }
    // A single contiguous row is trivially uniform: bail out before
    // building any offset table at all.
    if let [(head, _)] = rows {
        return RowLayout::Uniform {
            first: arr.phys_index(*head) as usize * elem,
            row_stride: 0,
        };
    }
    offs.extend(
        rows.iter()
            .map(|&(head, _)| arr.phys_index(head) as usize * elem),
    );
    if offs.len() > 1 {
        let d = offs[1].wrapping_sub(offs[0]);
        if offs.windows(2).all(|w| w[1].wrapping_sub(w[0]) == d) && offs[1] > offs[0] {
            return RowLayout::Uniform {
                first: offs[0],
                row_stride: d,
            };
        }
    }
    RowLayout::PerRow
}

impl<T: Pod, const N: usize> NdArray<T, N> {
    /// Copy from `src` into `self` over the intersection of their domains
    /// — the paper's `A.copy(B)` / ghost exchange
    /// `A.constrict(ghost_domain).copy(B)`.
    ///
    /// One-sided: only the *calling* rank's CPU does work; the owners of
    /// `src` and `self` are not involved unless they are the caller.
    pub fn copy_from(&self, ctx: &Ctx, src: &NdArray<T, N>) {
        let inter = self.domain().intersect(&src.domain());
        if inter.is_empty() {
            return;
        }
        let elem = std::mem::size_of::<T>();
        let total_bytes = inter.size() * elem;
        let rows = inter.rows();
        let row_bytes = rows.first().map_or(0, |&(_, len)| len * elem);
        let me = ctx.rank();
        let fabric = ctx.fabric();
        SCRATCH.with(|cell| {
            let s = &mut *cell.borrow_mut();
            s.pack.clear();
            s.pack.resize(total_bytes, 0);
            let pack = &mut s.pack;
            let offs = &mut s.offs;

            // Gather phase (pack at source).
            match layout(src, &inter, &rows, offs) {
                RowLayout::Uniform { first, row_stride } => {
                    fabric.get_strided(
                        me,
                        src.base.add(first),
                        row_stride.max(row_bytes),
                        pack,
                        row_bytes,
                        rows.len(),
                    );
                }
                RowLayout::PerRow => {
                    for (r, off) in offs.iter().enumerate() {
                        fabric.get(
                            me,
                            src.base.add(*off),
                            &mut pack[r * row_bytes..(r + 1) * row_bytes],
                        );
                    }
                }
                RowLayout::Scattered => {
                    for (i, off) in offs.iter().enumerate() {
                        fabric.get(me, src.base.add(*off), &mut pack[i * elem..(i + 1) * elem]);
                    }
                }
            }

            // Scatter phase (unpack at destination).
            match layout(self, &inter, &rows, offs) {
                RowLayout::Uniform { first, row_stride } => {
                    fabric.put_strided(
                        me,
                        self.base.add(first),
                        row_stride.max(row_bytes),
                        pack,
                        row_bytes,
                        rows.len(),
                    );
                }
                RowLayout::PerRow => {
                    for (r, off) in offs.iter().enumerate() {
                        fabric.put(
                            me,
                            self.base.add(*off),
                            &pack[r * row_bytes..(r + 1) * row_bytes],
                        );
                    }
                }
                RowLayout::Scattered => {
                    for (i, off) in offs.iter().enumerate() {
                        fabric.put(me, self.base.add(*off), &pack[i * elem..(i + 1) * elem]);
                    }
                }
            }
        });
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

/// Free function mirroring the paper's spelling: `copy(dst, src)` over the
/// domain intersection.
pub fn array_copy<T: Pod, const N: usize>(ctx: &Ctx, dst: &NdArray<T, N>, src: &NdArray<T, N>) {
    dst.copy_from(ctx, src);
}

#[allow(unused)]
fn _assert_point_usable(_: Point<2>) {}

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
