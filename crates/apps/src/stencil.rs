//! Stencil — paper §V-B.
//!
//! A 7-point nearest-neighbour Jacobi iteration over a regular 3-D grid
//! distributed in all three dimensions: each rank owns a cubic portion
//! plus one layer of ghost cells. Ghost planes are copied one-sided with
//! the multidimensional array library (`A.constrict(d).copy(B)` — here
//! [`NdArray::copy_ghost_from`]); the local computation is
//!
//! ```text
//! B[i][j][k] = c·A[i][j][k] + A[i±1][j][k] + A[i][j±1][k] + A[i][j][k±1]
//! ```
//!
//! Two compute paths reproduce the paper's Titanium-vs-UPC++ comparison:
//! * [`Variant::Generic`] — point-indexed `NdArray::get`/`set` through the
//!   full library path;
//! * [`Variant::Optimized`] — `LocalGrid` rows over arrays with matching
//!   logical/physical stride, the paper's own porting strategy ("declare
//!   the grid arrays unstrided, index one dimension at a time"): each
//!   `(i, j)` resolves its five source rows and one destination row once,
//!   and the `k` loop is a slice index plus a relaxed atomic per access.

use rupcxx::prelude::*;
use rupcxx_ndarray::{pt, LocalGrid, NdArray, Point, RectDomain};
use rupcxx_util::Timer;

/// Compute-path variant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Variant {
    /// Fully generic library indexing (tolerates any view).
    Generic,
    /// Unstrided local accessor, one row at a time (the
    /// Titanium-equivalent fast path).
    Optimized,
}

/// Benchmark parameters.
#[derive(Clone, Copy, Debug)]
pub struct StencilConfig {
    /// Interior points per rank in each dimension (paper: 256).
    pub local_edge: usize,
    /// Process grid (px, py, pz); must multiply to the rank count.
    pub grid: (usize, usize, usize),
    /// Jacobi iterations.
    pub iters: usize,
    /// Compute path.
    pub variant: Variant,
    /// Central coefficient `c`.
    pub c: f64,
}

/// Result of a stencil run.
#[derive(Clone, Copy, Debug)]
pub struct StencilResult {
    /// Wall seconds (max over ranks).
    pub seconds: f64,
    /// Aggregate GFLOP/s (8 flops per point update).
    pub gflops: f64,
    /// Sum of all interior values after the last iteration (global):
    /// the correctness checksum.
    pub checksum: f64,
}

/// Rank → 3-D process-grid coordinates (x fastest).
fn coords(rank: usize, grid: (usize, usize, usize)) -> (usize, usize, usize) {
    let (px, py, _pz) = grid;
    (rank % px, (rank / px) % py, rank / (px * py))
}

fn rank_of(c: (i64, i64, i64), grid: (usize, usize, usize)) -> Option<usize> {
    let (px, py, pz) = (grid.0 as i64, grid.1 as i64, grid.2 as i64);
    if c.0 < 0 || c.0 >= px || c.1 < 0 || c.1 >= py || c.2 < 0 || c.2 >= pz {
        None
    } else {
        Some((c.0 + c.1 * px + c.2 * px * py) as usize)
    }
}

/// The initial condition: a smooth product field, so any indexing bug
/// shows up in the checksum.
fn init_value(p: Point<3>) -> f64 {
    let (x, y, z) = (p[0] as f64, p[1] as f64, p[2] as f64);
    (x * 0.37).sin() + (y * 0.23).cos() + (z * 0.11).sin() * 0.5
}

/// Run the stencil collectively. Every rank passes identical `cfg`.
pub fn run(ctx: &Ctx, cfg: &StencilConfig) -> StencilResult {
    let (px, py, pz) = cfg.grid;
    assert_eq!(px * py * pz, ctx.ranks(), "process grid must cover ranks");
    let e = cfg.local_edge as i64;
    let (cx, cy, cz) = coords(ctx.rank(), cfg.grid);
    let lo = pt![cx as i64 * e, cy as i64 * e, cz as i64 * e];
    let interior = RectDomain::new(lo, lo + pt![e, e, e]);
    let with_ghosts = RectDomain::new(lo - pt![1, 1, 1], lo + pt![e + 1, e + 1, e + 1]);

    // Double buffering: A (read, with ghosts) and B (write).
    let a = NdArray::<f64, 3>::new(ctx, with_ghosts);
    let b = NdArray::<f64, 3>::new(ctx, with_ghosts);
    a.fill(ctx, 0.0);
    b.fill(ctx, 0.0);
    a.restrict(interior).fill_with(ctx, init_value);

    // Directory of both buffers for the one-sided ghost pulls.
    let dir_a: Vec<NdArray<f64, 3>> = ctx.allgatherv(&[a]);
    let dir_b: Vec<NdArray<f64, 3>> = ctx.allgatherv(&[b]);

    // Physical-boundary ghost planes stay zero (Dirichlet condition).
    let neighbors: Vec<(usize, i8, Option<usize>)> = (0..3usize)
        .flat_map(|dim| [(dim, -1i8), (dim, 1i8)])
        .map(|(dim, side)| {
            let mut c = (cx as i64, cy as i64, cz as i64);
            match dim {
                0 => c.0 += side as i64,
                1 => c.1 += side as i64,
                _ => c.2 += side as i64,
            }
            (dim, side, rank_of(c, cfg.grid))
        })
        .collect();

    ctx.barrier();
    let t = Timer::start();
    let mut cur = a;
    let mut nxt = b;
    let mut dir_cur = dir_a.clone();
    let mut dir_nxt = dir_b.clone();
    for _ in 0..cfg.iters {
        // Ghost exchange: pull each face from the neighbour's interior.
        for &(dim, side, nb) in &neighbors {
            if let Some(nb) = nb {
                cur.copy_ghost_from(ctx, &dir_cur[nb], interior, dim, side, 1);
            }
        }
        async_copy_fence(ctx);
        ctx.barrier();
        // Local computation.
        match cfg.variant {
            Variant::Optimized => {
                let src = LocalGrid::new(ctx, &cur);
                let dst = LocalGrid::new(ctx, &nxt);
                for i in lo[0]..lo[0] + e {
                    for j in lo[1]..lo[1] + e {
                        let a = src.row(i, j);
                        let (jp, jm) = (src.row(i, j + 1), src.row(i, j - 1));
                        let (ip, im) = (src.row(i + 1, j), src.row(i - 1, j));
                        let b = dst.row(i, j);
                        for k in lo[2]..lo[2] + e {
                            let v = cfg.c * a.get(k)
                                + a.get(k + 1)
                                + a.get(k - 1)
                                + jp.get(k)
                                + jm.get(k)
                                + ip.get(k)
                                + im.get(k);
                            b.set(k, v);
                        }
                    }
                }
            }
            Variant::Generic => {
                interior.for_each(|p| {
                    let v = cfg.c * cur.get(ctx, p)
                        + cur.get(ctx, p + Point::unit(2))
                        + cur.get(ctx, p - Point::unit(2))
                        + cur.get(ctx, p + Point::unit(1))
                        + cur.get(ctx, p - Point::unit(1))
                        + cur.get(ctx, p + Point::unit(0))
                        + cur.get(ctx, p - Point::unit(0));
                    nxt.set(ctx, p, v);
                });
            }
        }
        std::mem::swap(&mut cur, &mut nxt);
        std::mem::swap(&mut dir_cur, &mut dir_nxt);
        ctx.barrier();
    }
    let seconds = ctx.allreduce(t.seconds(), f64::max);

    // Checksum over the interior, through the privatized local accessor
    // (the final barrier of the iteration loop is the acquiring sync).
    let g = LocalGrid::new(ctx, &cur);
    let mut local_sum = 0.0;
    interior.for_each(|p| local_sum += g.at(p[0], p[1], p[2]));
    let checksum = ctx.allreduce(local_sum, |x, y| x + y);

    let pts = (cfg.local_edge.pow(3) * ctx.ranks()) as f64;
    let gflops = 8.0 * pts * cfg.iters as f64 / seconds / 1e9;

    ctx.barrier();
    a.destroy(ctx);
    b.destroy(ctx);
    StencilResult {
        seconds,
        gflops,
        checksum,
    }
}

/// Sequential reference implementation over the full global grid
/// (for correctness tests): returns the checksum after `iters` steps.
pub fn serial_reference(global: (usize, usize, usize), iters: usize, c: f64) -> f64 {
    let (nx, ny, nz) = global;
    let idx = move |i: usize, j: usize, k: usize| (i * (ny + 2) + j) * (nz + 2) + k;
    // Grid with a zero ghost shell, indices shifted by +1.
    let mut a = vec![0.0f64; (nx + 2) * (ny + 2) * (nz + 2)];
    let mut b = a.clone();
    for i in 0..nx {
        for j in 0..ny {
            for k in 0..nz {
                a[idx(i + 1, j + 1, k + 1)] = init_value(pt![i as i64, j as i64, k as i64]);
            }
        }
    }
    for _ in 0..iters {
        for i in 1..=nx {
            for j in 1..=ny {
                for k in 1..=nz {
                    b[idx(i, j, k)] = c * a[idx(i, j, k)]
                        + a[idx(i, j, k + 1)]
                        + a[idx(i, j, k - 1)]
                        + a[idx(i, j + 1, k)]
                        + a[idx(i, j - 1, k)]
                        + a[idx(i + 1, j, k)]
                        + a[idx(i - 1, j, k)];
                }
            }
        }
        std::mem::swap(&mut a, &mut b);
    }
    let mut sum = 0.0;
    for i in 1..=nx {
        for j in 1..=ny {
            for k in 1..=nz {
                sum += a[idx(i, j, k)];
            }
        }
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;
    use rupcxx_runtime::{spmd, RuntimeConfig};

    fn cfg_rt(n: usize) -> RuntimeConfig {
        RuntimeConfig::new(n).segment_mib(8)
    }

    fn stencil_cfg(edge: usize, grid: (usize, usize, usize), variant: Variant) -> StencilConfig {
        StencilConfig {
            local_edge: edge,
            grid,
            iters: 3,
            variant,
            c: 0.1,
        }
    }

    #[test]
    fn optimized_matches_serial_reference_2x1x1() {
        let reference = serial_reference((16, 8, 8), 3, 0.1);
        let out = spmd(cfg_rt(2), move |ctx| {
            run(ctx, &stencil_cfg(8, (2, 1, 1), Variant::Optimized))
        });
        for r in out {
            assert!(
                (r.checksum - reference).abs() < 1e-9 * reference.abs().max(1.0),
                "{} vs {reference}",
                r.checksum
            );
        }
    }

    #[test]
    fn generic_matches_serial_reference_2x2x1() {
        let reference = serial_reference((8, 8, 4), 3, 0.1);
        let out = spmd(cfg_rt(4), move |ctx| {
            run(ctx, &stencil_cfg(4, (2, 2, 1), Variant::Generic))
        });
        for r in out {
            assert!((r.checksum - reference).abs() < 1e-9 * reference.abs().max(1.0));
        }
    }

    #[test]
    fn variants_agree_exactly() {
        let a = spmd(cfg_rt(8), |ctx| {
            run(ctx, &stencil_cfg(4, (2, 2, 2), Variant::Optimized))
        });
        let b = spmd(cfg_rt(8), |ctx| {
            run(ctx, &stencil_cfg(4, (2, 2, 2), Variant::Generic))
        });
        assert_eq!(a[0].checksum, b[0].checksum, "identical arithmetic order");
        assert!(a[0].gflops > 0.0 && b[0].gflops > 0.0);
    }

    #[test]
    fn single_rank_matches_reference() {
        let reference = serial_reference((6, 6, 6), 3, 0.1);
        let out = spmd(cfg_rt(1), move |ctx| {
            run(ctx, &stencil_cfg(6, (1, 1, 1), Variant::Optimized))
        });
        assert!((out[0].checksum - reference).abs() < 1e-9 * reference.abs().max(1.0));
    }

    #[test]
    fn coords_roundtrip() {
        let grid = (2, 3, 4);
        for r in 0..24 {
            let c = coords(r, grid);
            assert_eq!(rank_of((c.0 as i64, c.1 as i64, c.2 as i64), grid), Some(r));
        }
        assert_eq!(rank_of((-1, 0, 0), grid), None);
        assert_eq!(rank_of((0, 3, 0), grid), None);
    }
}
