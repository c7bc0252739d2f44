//! Distributed multidimensional arrays — the paper's declared future
//! work, built exactly as §III-E anticipates: "multidimensional arrays can
//! be composed with shared arrays to build such a directory … In the
//! future, we plan to take further advantage of this capability by
//! building true distributed multidimensional arrays on top of the
//! current non-distributed library."
//!
//! A [`DistArray<T, N>`] block-partitions a global rectangular domain over
//! an N-dimensional process grid. Each rank owns one block (stored as an
//! [`NdArray`] with an optional ghost shell); a replicated directory of
//! descriptors makes any element reachable one-sided from any rank.
//!
//! The halo exchange is planned once: the constructor resolves each ghost
//! face, clipped to the neighbour's interior, into a [`CopyPlan`] that
//! [`DistArray::exchange_ghosts`] replays. An array is periodic or not for
//! its whole life. The replay is fabric strided gets and puts like any
//! copy, so the race checker sees every exchange.

use crate::array::NdArray;
use crate::copy::CopyPlan;
use crate::domain::RectDomain;
use crate::point::Point;
use rupcxx_net::{Pod, Rank};
use rupcxx_runtime::Ctx;

/// A block-distributed N-dimensional array over all ranks.
pub struct DistArray<T: Pod, const N: usize> {
    global: RectDomain<N>,
    pgrid: [usize; N],
    ghost: i64,
    /// The calling rank, which owns `parts[rank]`.
    rank: Rank,
    /// Directory of every rank's block (domain = interior ∪ ghosts).
    parts: Vec<NdArray<T, N>>,
    /// This rank's interior (ghost-free) domain.
    interior: RectDomain<N>,
    /// The ghost-face copies [`DistArray::exchange_ghosts`] replays.
    faces: Vec<CopyPlan>,
}

/// Partition `extent` points over `parts` blocks: block `i` covers
/// `[i*extent/parts, (i+1)*extent/parts)`.
fn block_bounds(extent: i64, parts: usize, i: usize) -> (i64, i64) {
    let p = parts as i64;
    ((i as i64 * extent) / p, ((i as i64 + 1) * extent) / p)
}

/// Index of the block containing offset `x` under [`block_bounds`].
fn block_index(x: i64, extent: i64, parts: usize) -> usize {
    let p = parts as i64;
    let mut i = ((x * p) / extent).clamp(0, p - 1);
    loop {
        let (lo, hi) = block_bounds(extent, parts, i as usize);
        if x < lo {
            i -= 1;
        } else if x >= hi {
            i += 1;
        } else {
            return i as usize;
        }
    }
}

impl<T: Pod, const N: usize> DistArray<T, N> {
    /// Collectively create a distributed array over `global` (unit
    /// stride), block-partitioned over `pgrid` (must multiply to the rank
    /// count), with `ghost ≥ 0` ghost layers around each block. All ranks
    /// must pass identical arguments.
    pub fn new(ctx: &Ctx, global: RectDomain<N>, pgrid: [usize; N], ghost: i64) -> Self {
        Self::build(ctx, global, pgrid, ghost, false)
    }

    /// [`DistArray::new`] over a global domain that wraps around in every
    /// dimension: [`DistArray::exchange_ghosts`] fills a ghost slab past
    /// the domain's edge from the block at the other edge.
    ///
    /// ```
    /// use rupcxx_ndarray::{pt, rd, DistArray};
    /// rupcxx_runtime::spmd(rupcxx_runtime::RuntimeConfig::new(2), |ctx| {
    ///     let a = DistArray::<i64, 1>::periodic(ctx, rd!([0]..[8]), [2], 1);
    ///     a.fill_interior_with(ctx, |p| p[0]);
    ///     ctx.barrier();
    ///     a.exchange_ghosts(ctx);
    ///     ctx.barrier();
    ///     // Rank 0 owns [0, 4): its low ghost holds global point 7.
    ///     assert!(ctx.rank() != 0 || a.local().get(ctx, pt![-1]) == 7);
    ///     a.destroy(ctx);
    /// });
    /// ```
    pub fn periodic(ctx: &Ctx, global: RectDomain<N>, pgrid: [usize; N], ghost: i64) -> Self {
        Self::build(ctx, global, pgrid, ghost, true)
    }

    fn build(ctx: &Ctx, global: RectDomain<N>, pgrid: [usize; N], ghost: i64, wrap: bool) -> Self {
        assert_eq!(
            pgrid.iter().product::<usize>(),
            ctx.ranks(),
            "process grid must cover all ranks"
        );
        assert_eq!(
            global.stride(),
            Point::ones(),
            "unit-stride global domains only"
        );
        assert!(ghost >= 0);
        let my_coords = Self::coords_of(ctx.rank(), &pgrid);
        let mut lo = global.lo();
        let mut hi = global.hi();
        for d in 0..N {
            let extent = global.hi()[d] - global.lo()[d];
            assert!(
                extent as usize >= pgrid[d],
                "dimension {d} has fewer points than process-grid slots"
            );
            let (b_lo, b_hi) = block_bounds(extent, pgrid[d], my_coords[d]);
            lo[d] = global.lo()[d] + b_lo;
            hi[d] = global.lo()[d] + b_hi;
        }
        let interior = RectDomain::new(lo, hi);
        let halo = RectDomain::new(lo - Point::splat(ghost), hi + Point::splat(ghost));
        let mine = NdArray::<T, N>::new(ctx, halo);
        let parts: Vec<NdArray<T, N>> = ctx.allgatherv(&[mine]);
        let mut array = DistArray {
            global,
            pgrid,
            ghost,
            rank: ctx.rank(),
            parts,
            interior,
            faces: Vec::new(),
        };
        array.faces = array.plan_faces(my_coords, wrap);
        array
    }

    /// One plan per ghost face with a neighbour across it. Across the
    /// global domain's edge, if `wrap`, the neighbour is the block at the
    /// other edge, translated a whole extent to lie next to this one.
    fn plan_faces(&self, my_coords: [usize; N], wrap: bool) -> Vec<CopyPlan> {
        let mine = self.local();
        let mut faces = Vec::new();
        for d in 0..N {
            for side in [-1i8, 1] {
                let (slots, next) = (self.pgrid[d] as i64, my_coords[d] as i64 + side as i64);
                let mut shift = Point::zero();
                if !(0..slots).contains(&next) {
                    if !wrap {
                        continue; // physical boundary
                    }
                    shift[d] = side as i64 * (self.global.hi()[d] - self.global.lo()[d]);
                }
                let mut nc = my_coords;
                nc[d] = next.rem_euclid(slots) as usize;
                let src = self.parts[self.rank_of_coords(nc)].translate(shift);
                let ghost = self.interior.exterior_face(d, side, self.ghost);
                let clipped = ghost.intersect(&src.domain().shrink(self.ghost));
                faces.extend(CopyPlan::new(&mine.restrict(clipped), &src));
            }
        }
        faces
    }

    /// Process-grid coordinates of `rank` (dim 0 fastest).
    fn coords_of(rank: Rank, pgrid: &[usize; N]) -> [usize; N] {
        let mut c = [0usize; N];
        let mut r = rank;
        for d in 0..N {
            c[d] = r % pgrid[d];
            r /= pgrid[d];
        }
        c
    }

    fn rank_of_coords(&self, coords: [usize; N]) -> Rank {
        let mut r = 0;
        let mut stride = 1;
        for d in 0..N {
            r += coords[d] * stride;
            stride *= self.pgrid[d];
        }
        r
    }

    /// This rank's ghost-free block.
    pub fn interior(&self) -> RectDomain<N> {
        self.interior
    }

    /// This rank's block as an array view (interior plus ghost shell) —
    /// use for fast local computation ([`crate::LocalGrid`] works on it).
    pub fn local(&self) -> NdArray<T, N> {
        self.parts[self.rank]
    }

    /// The rank owning global point `p`.
    fn owner_of(&self, p: Point<N>) -> Rank {
        assert!(self.global.contains(p), "point {p} outside {}", self.global);
        let mut coords = [0usize; N];
        for d in 0..N {
            let extent = self.global.hi()[d] - self.global.lo()[d];
            coords[d] = block_index(p[d] - self.global.lo()[d], extent, self.pgrid[d]);
        }
        self.rank_of_coords(coords)
    }

    /// One-sided global read of element `p` (any rank may call).
    pub fn get(&self, ctx: &Ctx, p: Point<N>) -> T {
        self.parts[self.owner_of(p)].get(ctx, p)
    }

    /// One-sided global write of element `p` (any rank may call).
    pub fn set(&self, ctx: &Ctx, p: Point<N>, value: T) {
        self.parts[self.owner_of(p)].set(ctx, p, value)
    }

    /// Initialize this rank's interior from `f` (collective-style use:
    /// every rank initializes its own block).
    pub fn fill_interior_with(&self, ctx: &Ctx, f: impl FnMut(Point<N>) -> T) {
        self.local().restrict(self.interior).fill_with(ctx, f);
    }

    /// Pull every ghost face of this rank's block from its neighbours,
    /// one-sided, by replaying the constructor's plans (the halo exchange;
    /// faces only). Requires `ghost > 0`.
    ///
    /// The pull reads only the neighbours' interiors and writes only this
    /// rank's ghosts. So a double-buffered exchange-then-compute loop
    /// needs one barrier a step, after the compute and the swap: while a
    /// rank computes, peers only read its source block's interior, and
    /// nobody writes that block before all have passed the barrier. A
    /// barrier must still order the writes that fill an interior before
    /// the first pull of it.
    pub fn exchange_ghosts(&self, ctx: &Ctx) {
        assert!(self.ghost > 0, "array created without ghost layers");
        for face in &self.faces {
            face.run(ctx);
        }
    }

    /// Collectively destroy the array (every rank frees its block).
    pub fn destroy(self, ctx: &Ctx) {
        ctx.barrier();
        self.parts[self.rank].destroy(ctx);
        ctx.barrier();
    }
}

impl<T: Pod, const N: usize> std::fmt::Debug for DistArray<T, N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "DistArray<{}, {N}>(global {}, pgrid {:?}, ghost {})",
            std::any::type_name::<T>(),
            self.global,
            self.pgrid,
            self.ghost
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{pt, rd};
    use rupcxx_runtime::{spmd, RuntimeConfig};

    /// Read the whole global array in lexicographic order, one element
    /// at a time.
    fn global_vec<T: Pod, const N: usize>(a: &DistArray<T, N>, ctx: &Ctx) -> Vec<T> {
        let mut out = Vec::with_capacity(a.global.size());
        a.global.for_each(|p| out.push(a.get(ctx, p)));
        out
    }

    fn cfg(n: usize) -> RuntimeConfig {
        RuntimeConfig::new(n).segment_mib(2)
    }

    #[test]
    fn block_bounds_partition_exactly() {
        for extent in [1i64, 5, 16, 17, 100] {
            for parts in [1usize, 2, 3, 7] {
                if (extent as usize) < parts {
                    continue;
                }
                let mut covered = 0;
                for i in 0..parts {
                    let (lo, hi) = block_bounds(extent, parts, i);
                    assert!(lo <= hi);
                    covered += hi - lo;
                    for x in lo..hi {
                        assert_eq!(block_index(x, extent, parts), i, "x={x}");
                    }
                }
                assert_eq!(covered, extent);
            }
        }
    }

    #[test]
    fn global_set_get_roundtrip_2d() {
        spmd(cfg(4), |ctx| {
            let a = DistArray::<i64, 2>::new(ctx, rd!([0, 0]..[10, 7]), [2, 2], 0);
            // Each rank writes its own interior.
            a.fill_interior_with(ctx, |p| p[0] * 100 + p[1]);
            ctx.barrier();
            // Every rank reads every element.
            a.global.for_each(|p| {
                assert_eq!(a.get(ctx, p), p[0] * 100 + p[1], "{p}");
            });
            ctx.barrier();
            a.destroy(ctx);
        });
    }

    #[test]
    fn remote_writes_land_on_owner() {
        spmd(cfg(2), |ctx| {
            let a = DistArray::<u64, 1>::new(ctx, rd!([0]..[10]), [2], 0);
            ctx.barrier();
            if ctx.rank() == 0 {
                // Write the *other* rank's half.
                for x in 5..10 {
                    a.set(ctx, pt![x], x as u64 * 7);
                }
            }
            ctx.barrier();
            if ctx.rank() == 1 {
                assert_eq!(a.owner_of(pt![7]), 1);
                for x in 5..10i64 {
                    assert_eq!(a.local().get(ctx, pt![x]), x as u64 * 7);
                }
            }
            ctx.barrier();
            a.destroy(ctx);
        });
    }

    #[test]
    fn ghost_exchange_matches_neighbours_3d() {
        spmd(cfg(8), |ctx| {
            let a = DistArray::<f64, 3>::new(ctx, rd!([0, 0, 0]..[8, 8, 8]), [2, 2, 2], 1);
            a.fill_interior_with(ctx, |p| (p[0] * 64 + p[1] * 8 + p[2]) as f64);
            ctx.barrier();
            a.exchange_ghosts(ctx);
            ctx.barrier();
            // Every face-adjacent ghost cell of my block holds the global
            // value (corner/edge ghosts are out of scope for face passes).
            let mine = a.local();
            let interior = a.interior();
            for d in 0..3usize {
                for side in [-1i8, 1] {
                    let ghost = interior.exterior_face(d, side, 1);
                    let clipped = ghost.intersect(&a.global);
                    clipped.for_each(|p| {
                        assert_eq!(
                            mine.get(ctx, p),
                            (p[0] * 64 + p[1] * 8 + p[2]) as f64,
                            "ghost {p} dim {d} side {side}"
                        );
                    });
                }
            }
            ctx.barrier();
            a.destroy(ctx);
        });
    }

    #[test]
    fn middle_of_a_line_pulls_both_neighbours_edges() {
        let out = spmd(cfg(3), |ctx| {
            let a = DistArray::<i64, 2>::new(ctx, rd!([0, 0]..[9, 4]), [3, 1], 1);
            a.local().fill(ctx, -1);
            a.fill_interior_with(ctx, |p| p[0] * 10 + p[1]);
            ctx.barrier();
            a.exchange_ghosts(ctx);
            ctx.barrier();
            // Rank 1's interior is x in [3, 6): its ghost planes x = 2 and
            // x = 6 are rank 0's and rank 2's edges.
            let ghosts = a.local().restrict(rd!([2, 0]..[3, 4])).to_vec(ctx);
            let ghosts = [ghosts, a.local().restrict(rd!([6, 0]..[7, 4])).to_vec(ctx)];
            let interior = a.interior();
            a.destroy(ctx);
            (interior, ghosts)
        });
        assert_eq!(out[1].0, rd!([3, 0]..[6, 4]));
        assert_eq!(out[1].1, [[20, 21, 22, 23], [60, 61, 62, 63]]);
    }

    #[test]
    fn uneven_partition_1d() {
        spmd(cfg(3), |ctx| {
            // 10 points over 3 ranks: blocks of 3/3/4 (block_bounds math).
            let a = DistArray::<u64, 1>::new(ctx, rd!([0]..[10]), [3], 0);
            let sizes = ctx.allgatherv(&[a.interior().size() as u64]);
            assert_eq!(sizes.iter().sum::<u64>(), 10);
            assert!(sizes.iter().all(|&s| s >= 3));
            a.fill_interior_with(ctx, |p| p[0] as u64 + 1);
            ctx.barrier();
            let all = global_vec(&a, ctx);
            assert_eq!(all, (1..=10).collect::<Vec<u64>>());
            ctx.barrier();
            a.destroy(ctx);
        });
    }

    #[test]
    fn distributed_stencil_smoke_test() {
        // One Jacobi sweep through DistArray equals the serial sweep.
        let expected = {
            // Serial: 6x6 grid, average of 4 neighbours (zero boundary).
            let n = 6usize;
            let at = |v: &Vec<f64>, i: i64, j: i64| {
                if i < 0 || j < 0 || i >= n as i64 || j >= n as i64 {
                    0.0
                } else {
                    v[(i as usize) * n + j as usize]
                }
            };
            let init: Vec<f64> = (0..n * n).map(|k| k as f64).collect();
            let mut out = vec![0.0; n * n];
            for i in 0..n as i64 {
                for j in 0..n as i64 {
                    out[(i as usize) * n + j as usize] = 0.25
                        * (at(&init, i + 1, j)
                            + at(&init, i - 1, j)
                            + at(&init, i, j + 1)
                            + at(&init, i, j - 1));
                }
            }
            out
        };
        let out = spmd(cfg(4), |ctx| {
            let a = DistArray::<f64, 2>::new(ctx, rd!([0, 0]..[6, 6]), [2, 2], 1);
            let b = DistArray::<f64, 2>::new(ctx, rd!([0, 0]..[6, 6]), [2, 2], 0);
            // Zero ghosts everywhere first (boundary condition), then the
            // interior values.
            a.local().fill(ctx, 0.0);
            a.fill_interior_with(ctx, |p| (p[0] * 6 + p[1]) as f64);
            ctx.barrier();
            a.exchange_ghosts(ctx);
            ctx.barrier();
            let src = a.local();
            let dst = b.local();
            a.interior().for_each(|p| {
                let v = 0.25
                    * (src.get(ctx, p + pt![1, 0])
                        + src.get(ctx, p - pt![1, 0])
                        + src.get(ctx, p + pt![0, 1])
                        + src.get(ctx, p - pt![0, 1]));
                dst.set(ctx, p, v);
            });
            ctx.barrier();
            let result = global_vec(&b, ctx);
            ctx.barrier();
            a.destroy(ctx);
            b.destroy(ctx);
            result
        });
        for r in out {
            assert_eq!(r.len(), expected.len());
            for (got, want) in r.iter().zip(&expected) {
                assert!((got - want).abs() < 1e-12, "{got} vs {want}");
            }
        }
    }

    /// A distinct value per global point.
    fn code<const N: usize>(p: Point<N>) -> i64 {
        p.coords().iter().fold(0, |acc, &x| acc * 100 + x)
    }

    /// Build a periodic array, fill every interior with [`code`], exchange,
    /// and check that every face ghost of every block holds the value of
    /// its point wrapped into the global domain.
    fn periodic_faces_wrap<const N: usize>(
        ranks: usize,
        global: RectDomain<N>,
        pgrid: [usize; N],
        ghost: i64,
    ) {
        spmd(cfg(ranks), move |ctx| {
            let a = DistArray::<i64, N>::periodic(ctx, global, pgrid, ghost);
            a.local().fill(ctx, -1);
            a.fill_interior_with(ctx, code);
            ctx.barrier();
            a.exchange_ghosts(ctx);
            ctx.barrier();
            let (lo, hi) = (global.lo(), global.hi());
            for d in 0..N {
                for side in [-1i8, 1] {
                    a.interior().exterior_face(d, side, ghost).for_each(|p| {
                        let mut q = p;
                        q[d] = lo[d] + (p[d] - lo[d]).rem_euclid(hi[d] - lo[d]);
                        assert_eq!(
                            a.local().get(ctx, p),
                            code(q),
                            "ghost {p} dim {d} side {side}"
                        );
                    });
                }
            }
            a.destroy(ctx);
        });
    }

    #[test]
    fn periodic_single_rank_wraps_to_itself_3d() {
        periodic_faces_wrap(1, rd!([0, 0, 0]..[4, 5, 6]), [1, 1, 1], 1);
    }

    #[test]
    fn periodic_eight_ranks_3d() {
        periodic_faces_wrap(8, rd!([0, 0, 0]..[8, 8, 8]), [2, 2, 2], 1);
    }

    #[test]
    fn periodic_uneven_three_ranks_1d() {
        // Blocks of 3/3/4, two ghost layers.
        periodic_faces_wrap(3, rd!([0]..[10]), [3], 2);
    }

    #[test]
    fn periodic_uneven_three_ranks_2d() {
        // Blocks of 3/4/4 along dim 0; dim 1 wraps each block to itself.
        periodic_faces_wrap(3, rd!([-2, 0]..[9, 4]), [3, 1], 1);
    }

    #[test]
    #[should_panic(expected = "process grid must cover")]
    fn wrong_pgrid_rejected() {
        spmd(cfg(3), |ctx| {
            let _ = DistArray::<u64, 2>::new(ctx, rd!([0, 0]..[4, 4]), [2, 2], 0);
        });
    }
}
