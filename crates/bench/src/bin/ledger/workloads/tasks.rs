//! `tasks`: the closure-task / inbox / progress-engine / reply-AM chain,
//! with no RMA at all. Each rep is 2^16 `finish`-scoped spawns onto the
//! peer followed by 2^13 blocking `async_on` round trips.
//!
//! The spawns go out as 64 `finish` scopes of 1024 rather than one scope
//! of 65536: with everything outstanding at once the peer's inbox grows
//! to whatever depth the two ranks' relative timing allows, and each new
//! maximum reallocates the queue — `alloc_bytes_per_op` then swings ±10 %
//! from run to run on timing alone. A 1024-task window reaches its
//! maximum depth in the warm-up rep and allocates per task, not per
//! accident, ever after; the 63 extra scope waits are ~0.2 % of a rep.

use super::{Mode, RepFn, Workload, RANKS};
use crate::span;
use rupcxx::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

/// Fire-and-forget spawns per rank per rep.
pub const SPAWNS: u64 = 1 << 16;
/// Blocking round trips per rank per rep.
pub const ROUND_TRIPS: u64 = 1 << 13;
/// Spawns per `finish` scope; also the round trips per span batch of the
/// staged replay.
const WINDOW: u64 = 1024;

/// A counter on a cache line of its own: each rank bumps only its slot,
/// and a neighbouring slot on the same line would add a line transfer to
/// every task of the very chain this workload measures.
#[repr(align(64))]
struct Hits(AtomicU64);

/// Per-rank counters the spawned tasks bump on the rank they run on.
static HITS: [Hits; RANKS] = [Hits(AtomicU64::new(0)), Hits(AtomicU64::new(0))];

pub struct Tasks;

impl Workload for Tasks {
    fn config(&self) -> RuntimeConfig {
        RuntimeConfig::new(RANKS).segment_mib(16)
    }

    fn ops_per_rep(&self) -> u64 {
        (SPAWNS + ROUND_TRIPS) * RANKS as u64
    }

    fn rank_body(&self, ctx: &Ctx, drive: &mut dyn FnMut(&mut RepFn<'_>)) {
        let me = ctx.rank();
        let peer = 1 - me;
        let mut reps_done = 0u64;
        drive(&mut |mode| {
            if mode == Mode::Prepare {
                return true;
            }
            // Phase 1: finish scopes of spawns; every task of a scope
            // has run on the peer (and its completion reply here) when
            // the scope returns. Staged, the sends and the wait for the
            // replies (inbox → advance → reply) are separate stages: the
            // wait is the scope span's self time.
            for _ in 0..SPAWNS / WINDOW {
                let _scope = span::enter("runtime", "finish", WINDOW);
                ctx.finish(|fs| {
                    let _sends = span::enter("runtime", "finish_spawn_send", WINDOW);
                    for _ in 0..WINDOW {
                        fs.spawn(peer, |t| {
                            HITS[t.rank()].0.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
            }
            // The peer's finish has returned only after this barrier, so
            // only then are all of its tasks guaranteed to have run here.
            span::scope("runtime", "barrier", 1, || ctx.barrier());
            reps_done += 1;
            let mut ok = HITS[me].0.load(Ordering::Relaxed) == reps_done * SPAWNS;

            // Phase 2: blocking round trips, each future checked.
            let mut round_trips = |n: u64, base: u64| {
                for i in base..base + n {
                    ok &= async_on(ctx, peer, move |_| i + 1).get(ctx) == i + 1;
                }
            };
            for b in 0..ROUND_TRIPS / WINDOW {
                span::scope("core", "rpc_rtt", WINDOW, || {
                    round_trips(WINDOW, b * WINDOW);
                });
            }
            ok
        });
    }
}
