//! Heat diffusion on a distributed 3-D grid using the multidimensional
//! array library (paper §III-E / §V-B): the grid is a `DistArray`, so
//! each rank holds one block with a ghost shell, and
//! `DistArray::exchange_ghosts` moves the ghost planes with the
//! one-sided, domain-intersecting array copy
//! (`A.constrict(ghost_domain).copy(B)`).
//!
//! Run with: `cargo run --example heat_equation`

use rupcxx::prelude::*;
use rupcxx_ndarray::{pt, DistArray, Point, RectDomain};

fn main() {
    // 2×1×1 process grid, 16³ points per rank, hot plate at one face.
    let (px, py, pz) = (2usize, 1usize, 1usize);
    let edge = 16i64;
    let steps = 50;
    let alpha = 0.1;

    let results = spmd(
        RuntimeConfig::new(px * py * pz).segment_mib(16),
        move |ctx| {
            let global = RectDomain::new(
                Point::zero(),
                pt![px as i64 * edge, py as i64 * edge, pz as i64 * edge],
            );
            let a = DistArray::<f64, 3>::new(ctx, global, [px, py, pz], 1);
            let b = DistArray::<f64, 3>::new(ctx, global, [px, py, pz], 1);
            let interior = a.interior();
            let lo = interior.lo();
            for block in [a.local(), b.local()] {
                block.fill(ctx, 0.0);
                // Hot plate: global x = 0 plane fixed at 100 degrees.
                if lo[0] == 0 {
                    block
                        .restrict(interior.interior_face(0, -1, 1))
                        .fill(ctx, 100.0);
                }
            }

            let (mut cur, mut nxt) = (&a, &b);
            // One barrier a step, after the swap: peers only read `cur`'s
            // interior while a rank computes, and nobody touches `nxt`
            // before the barrier (see `DistArray::exchange_ghosts`).
            ctx.barrier();
            for _ in 0..steps {
                // Pull 6 ghost faces one-sided from the neighbours.
                cur.exchange_ghosts(ctx);
                // Explicit Euler diffusion step on the interior (skipping
                // the fixed hot plate).
                let (src, dst) = (cur.local(), nxt.local());
                interior.for_each(|p| {
                    if p[0] == 0 {
                        return; // Dirichlet hot plate
                    }
                    let c = src.get(ctx, p);
                    let lap = src.get(ctx, p + Point::unit(0))
                        + src.get(ctx, p - Point::unit(0))
                        + src.get(ctx, p + Point::unit(1))
                        + src.get(ctx, p - Point::unit(1))
                        + src.get(ctx, p + Point::unit(2))
                        + src.get(ctx, p - Point::unit(2))
                        - 6.0 * c;
                    dst.set(ctx, p, c + alpha * lap);
                });
                std::mem::swap(&mut cur, &mut nxt);
                ctx.barrier();
            }

            // Mean temperature along global x, this rank's share.
            let mut profile = vec![0.0f64; edge as usize];
            interior.for_each(|p| {
                profile[(p[0] - lo[0]) as usize] += cur.local().get(ctx, p);
            });
            a.destroy(ctx);
            b.destroy(ctx);
            (lo[0], profile)
        },
    );

    // Stitch the global x-profile and sanity-check monotone decay.
    let mut global = vec![0.0; (px as i64 * edge) as usize];
    for (x0, profile) in &results {
        for (i, v) in profile.iter().enumerate() {
            global[*x0 as usize + i] += v / (edge * edge) as f64;
        }
    }
    println!("mean temperature along x after 50 steps:");
    for (i, v) in global.iter().enumerate().step_by(4) {
        println!("  x={i:2}  T={v:7.3}");
    }
    assert!((global[0] - 100.0).abs() < 1e-9, "hot plate stays fixed");
    assert!(
        global.windows(2).all(|w| w[1] <= w[0] + 1e-9),
        "heat decays monotonically away from the plate"
    );
    assert!(global[4] > 0.01, "heat has diffused into the domain");
    println!("heat equation example passed");
}
