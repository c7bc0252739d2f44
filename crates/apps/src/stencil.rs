//! Stencil — paper §V-B.
//!
//! A 7-point nearest-neighbour Jacobi iteration over a regular 3-D grid
//! distributed in all three dimensions: both buffers are [`DistArray`]s,
//! so each rank owns a cubic block plus one layer of ghost cells. Ghost
//! planes are copied one-sided with the multidimensional array library
//! (`A.constrict(d).copy(B)` — here [`DistArray::exchange_ghosts`]); the
//! local computation is
//!
//! ```text
//! B[i][j][k] = c·A[i][j][k] + A[i±1][j][k] + A[i][j±1][k] + A[i][j][k±1]
//! ```
//!
//! Two compute paths reproduce the paper's Titanium-vs-UPC++ comparison:
//! * [`Variant::Generic`] — point-indexed `NdArray::get`/`set` through the
//!   full library path;
//! * [`Variant::Optimized`] — the paper's own porting strategy ("declare
//!   the grid arrays unstrided, index one dimension at a time") on
//!   privatized blocks (§III-B): each iteration takes a plain slice view
//!   of the source and destination blocks once ([`LocalGrid::view`]), each
//!   `(i, j)` cuts seven length-`n` windows out of them, and the `k` loop
//!   is slice arithmetic the compiler vectorizes. The views rest on the
//!   privatization contract: while a rank computes, peers may only *read*
//!   `cur`'s faces (read/read), and `nxt` is the rank's alone until the
//!   step barrier.

use rupcxx::prelude::*;
use rupcxx_ndarray::{pt, DistArray, LocalGrid, Point, RectDomain};
use rupcxx_util::Timer;

/// Compute-path variant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Variant {
    /// Fully generic library indexing (tolerates any view).
    Generic,
    /// Privatized unstrided blocks, one `k` row at a time (the
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

/// The initial condition: a smooth product field, so any indexing bug
/// shows up in the checksum.
fn init_value(p: Point<3>) -> f64 {
    let (x, y, z) = (p[0] as f64, p[1] as f64, p[2] as f64);
    (x * 0.37).sin() + (y * 0.23).cos() + (z * 0.11).sin() * 0.5
}

/// Run the stencil collectively. Every rank passes identical `cfg`.
pub fn run(ctx: &Ctx, cfg: &StencilConfig) -> StencilResult {
    let (px, py, pz) = cfg.grid;
    let e = cfg.local_edge as i64;
    let global = RectDomain::new(
        Point::zero(),
        pt![px as i64 * e, py as i64 * e, pz as i64 * e],
    );

    // Double buffering: A (read) and B (write), each block with one
    // ghost layer. Physical-boundary ghost planes stay zero (Dirichlet
    // condition).
    let a = DistArray::<f64, 3>::new(ctx, global, [px, py, pz], 1);
    let b = DistArray::<f64, 3>::new(ctx, global, [px, py, pz], 1);
    a.local().fill(ctx, 0.0);
    b.local().fill(ctx, 0.0);
    a.fill_interior_with(ctx, init_value);
    let interior = a.interior();
    let lo = interior.lo();

    ctx.barrier();
    let t = Timer::start();
    let (mut cur, mut nxt) = (&a, &b);
    // One barrier a step: exchange → fence → compute → swap → barrier.
    // A rank pulls only its neighbours' `cur` interiors, and writes only
    // its own `nxt` and, through its own pulls, its own `cur` ghosts:
    // nobody writes `cur` during the step. A peer pulls `cur` in step t
    // only after passing barrier t−1, which no rank reaches before its
    // step t−1 compute that wrote `cur` is done. The owner writes that
    // buffer again, as `nxt`, only in step t+1, after barrier t, which no
    // peer passes before its step-t pulls are done. So the step barrier
    // orders both hazards, and the fence needs no barrier behind it.
    for _ in 0..cfg.iters {
        // Ghost exchange: pull each face from the neighbour's interior.
        cur.exchange_ghosts(ctx);
        async_copy_fence(ctx);
        // Local computation.
        let (src, dst) = (cur.local(), nxt.local());
        match cfg.variant {
            Variant::Optimized => {
                // Peers only read `cur`'s interior faces during the step,
                // and nobody touches `nxt` before the step barrier:
                // privatize both.
                let (src, dst) = (LocalGrid::new(ctx, &src), LocalGrid::new(ctx, &dst));
                let (a, b, (si, sj)) = (src.view(), dst.view_mut(), src.strides());
                let n = e as usize;
                for i in lo[0]..lo[0] + e {
                    for j in lo[1]..lo[1] + e {
                        let c = src.offset(i, j, lo[2]);
                        let (ac, kp, km) = (&a[c..c + n], &a[c + 1..][..n], &a[c - 1..][..n]);
                        let (jp, jm) = (&a[c + sj..][..n], &a[c - sj..][..n]);
                        let (ip, im) = (&a[c + si..][..n], &a[c - si..][..n]);
                        let o = dst.offset(i, j, lo[2]);
                        for (k, out) in b[o..o + n].iter_mut().enumerate() {
                            *out = cfg.c * ac[k] + kp[k] + km[k] + jp[k] + jm[k] + ip[k] + im[k];
                        }
                    }
                }
            }
            Variant::Generic => {
                interior.for_each(|p| {
                    let v = cfg.c * src.get(ctx, p)
                        + src.get(ctx, p + Point::unit(2))
                        + src.get(ctx, p - Point::unit(2))
                        + src.get(ctx, p + Point::unit(1))
                        + src.get(ctx, p - Point::unit(1))
                        + src.get(ctx, p + Point::unit(0))
                        + src.get(ctx, p - Point::unit(0));
                    dst.set(ctx, p, v);
                });
            }
        }
        std::mem::swap(&mut cur, &mut nxt);
        ctx.barrier();
    }
    let seconds = ctx.allreduce(t.seconds(), f64::max);

    // Checksum over the interior, through the privatized local accessor
    // (the final barrier of the iteration loop is the acquiring sync).
    let g = LocalGrid::new(ctx, &cur.local());
    let mut local_sum = 0.0;
    interior.for_each(|p| local_sum += g.at(p[0], p[1], p[2]));
    let checksum = ctx.allreduce(local_sum, |x, y| x + y);

    let pts = (cfg.local_edge.pow(3) * ctx.ranks()) as f64;
    let gflops = 8.0 * pts * cfg.iters as f64 / seconds / 1e9;

    // One barrier, then each rank frees its own blocks.
    ctx.barrier();
    a.local().destroy(ctx);
    b.local().destroy(ctx);
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
    fn both_variants_match_serial_reference_3x1x1() {
        // The middle rank has a neighbour on both sides of dimension 0.
        let reference = serial_reference((12, 4, 4), 3, 0.1);
        for variant in [Variant::Generic, Variant::Optimized] {
            let out = spmd(cfg_rt(3), move |ctx| {
                run(ctx, &stencil_cfg(4, (3, 1, 1), variant))
            });
            for r in out {
                assert!(
                    (r.checksum - reference).abs() < 1e-9 * reference.abs().max(1.0),
                    "{variant:?}: {} vs {reference}",
                    r.checksum
                );
            }
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
}
