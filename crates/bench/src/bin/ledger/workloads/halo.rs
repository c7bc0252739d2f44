//! `halo`: the paper's stencil (§V-B) at a size where the ~3 µs barrier
//! and the strided ghost copy are about a third of an iteration.

use super::{Mode, RepFn, Workload, RANKS};
use crate::span;
use rupcxx::prelude::*;
use rupcxx_apps::stencil::{self, StencilConfig, Variant};
use rupcxx_ndarray::{pt, LocalGrid, NdArray, Point, RectDomain};

/// Interior points per rank and dimension.
pub const EDGE: usize = 16;
/// Jacobi iterations per rep, split into `RUNS` calls of `stencil::run`:
/// the 7-point sum grows every value ~6x per iteration, so one 2000-step
/// run overflows f64 (after ~390 steps) and its checksum could not be
/// compared with anything. 250 steps stay below 1e200.
pub const ITERS: usize = 2000;
const RUNS: usize = 8;
const ITERS_PER_RUN: usize = ITERS / RUNS;
const C: f64 = 0.1;

pub struct Halo;

fn config() -> StencilConfig {
    StencilConfig {
        local_edge: EDGE,
        grid: (RANKS, 1, 1),
        iters: ITERS_PER_RUN,
        variant: Variant::Optimized,
        c: C,
    }
}

/// The tolerance `tests/integration_apps.rs` uses against the reference.
fn close(got: f64, reference: f64) -> bool {
    (got - reference).abs() < 1e-9 * reference.abs().max(1.0)
}

impl Workload for Halo {
    fn config(&self) -> RuntimeConfig {
        RuntimeConfig::new(RANKS).segment_mib(16)
    }

    fn ops_per_rep(&self) -> u64 {
        (EDGE * EDGE * EDGE * ITERS * RANKS) as u64
    }

    fn rank_body(&self, ctx: &Ctx, drive: &mut dyn FnMut(&mut RepFn<'_>)) {
        let reference = stencil::serial_reference((EDGE * RANKS, EDGE, EDGE), ITERS_PER_RUN, C);
        drive(&mut |mode| {
            if mode == Mode::Prepare {
                return true;
            }
            (0..RUNS).all(|_| {
                let checksum = match mode {
                    Mode::Staged => staged_run(ctx),
                    _ => stencil::run(ctx, &config()).checksum,
                };
                close(checksum, reference)
            })
        });
    }
}

/// The stencil's initial condition (`stencil::init_value` is private; the
/// reference checksum would expose any drift between the two).
fn init_value(p: Point<3>) -> f64 {
    let (x, y, z) = (p[0] as f64, p[1] as f64, p[2] as f64);
    (x * 0.37).sin() + (y * 0.23).cos() + (z * 0.11).sin() * 0.5
}

/// `stencil::run` (grid `(2,1,1)`, `Variant::Optimized`) replayed with
/// one span per stage of every iteration. Returns the global checksum.
fn staged_run(ctx: &Ctx) -> f64 {
    let e = EDGE as i64;
    let me = ctx.rank();
    let peer = 1 - me;
    // The peer's interior lies on the +x side of rank 0, the -x side of rank 1.
    let side: i8 = if me == 0 { 1 } else { -1 };
    let lo = pt![me as i64 * e, 0, 0];
    let interior = RectDomain::new(lo, lo + pt![e, e, e]);
    let with_ghosts = RectDomain::new(lo - pt![1, 1, 1], lo + pt![e + 1, e + 1, e + 1]);

    let (a, b, mut dir_cur, mut dir_nxt) = span::scope("ndarray", "setup", 1, || {
        let a = NdArray::<f64, 3>::new(ctx, with_ghosts);
        let b = NdArray::<f64, 3>::new(ctx, with_ghosts);
        a.fill(ctx, 0.0);
        b.fill(ctx, 0.0);
        a.restrict(interior).fill_with(ctx, init_value);
        let dir_a: Vec<NdArray<f64, 3>> = ctx.allgatherv(&[a]);
        let dir_b: Vec<NdArray<f64, 3>> = ctx.allgatherv(&[b]);
        ctx.barrier();
        (a, b, dir_a, dir_b)
    });
    let (mut cur, mut nxt) = (a, b);
    let cells = (EDGE * EDGE * EDGE) as u64;
    let face = (EDGE * EDGE) as u64;
    for _ in 0..ITERS_PER_RUN {
        span::scope("ndarray", "copy_face", face, || {
            cur.copy_ghost_from(ctx, &dir_cur[peer], interior, 0, side, 1);
        });
        span::scope("core", "async_copy_fence", 1, || async_copy_fence(ctx));
        span::scope("runtime", "barrier", 1, || ctx.barrier());
        span::scope("apps", "stencil_cell", cells, || {
            let src = LocalGrid::new(ctx, &cur);
            let dst = LocalGrid::new(ctx, &nxt);
            for i in lo[0]..lo[0] + e {
                for j in lo[1]..lo[1] + e {
                    for k in lo[2]..lo[2] + e {
                        let v = C * src.at(i, j, k)
                            + src.at(i, j, k + 1)
                            + src.at(i, j, k - 1)
                            + src.at(i, j + 1, k)
                            + src.at(i, j - 1, k)
                            + src.at(i + 1, j, k)
                            + src.at(i - 1, j, k);
                        dst.put(i, j, k, v);
                    }
                }
            }
        });
        std::mem::swap(&mut cur, &mut nxt);
        std::mem::swap(&mut dir_cur, &mut dir_nxt);
        span::scope("runtime", "barrier", 1, || ctx.barrier());
    }
    span::scope("ndarray", "teardown", 1, || {
        let _ = ctx.allreduce(0.0f64, f64::max);
        let g = LocalGrid::new(ctx, &cur);
        let mut local_sum = 0.0;
        interior.for_each(|p| local_sum += g.at(p[0], p[1], p[2]));
        let checksum = ctx.allreduce(local_sum, |x, y| x + y);
        ctx.barrier();
        a.destroy(ctx);
        b.destroy(ctx);
        checksum
    })
}
