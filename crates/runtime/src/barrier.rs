//! Barrier and memory fence (paper Table I: `barrier()` & `fence()`).
//!
//! `barrier()` is [`crate::Team::barrier`] on the rank's world team: the
//! dissemination algorithm, with its aggregation flush before the first
//! signal and its read-cache invalidation on exit, lives with the other
//! collectives in `collectives.rs`.

use crate::ctx::Ctx;

impl Ctx {
    /// Synchronize all ranks — no rank leaves before every rank arrived.
    pub fn barrier(&self) {
        self.world().barrier(self)
    }

    /// Memory fence: orders this rank's prior global-memory operations
    /// before subsequent ones, and drives one round of progress. With the
    /// fabric's synchronous RMA this is a hardware fence plus a poll —
    /// matching UPC's `upc_fence` strength.
    pub fn fence(&self) {
        // Buffered aggregation ops are "prior operations" too: inject
        // them before ordering memory (advance() would flush as well,
        // but only after the hardware fence).
        self.agg_flush();
        std::sync::atomic::fence(std::sync::atomic::Ordering::SeqCst);
        // The fence also acts as an acquire point for the software read
        // cache: later gets must not return lines filled before it.
        self.shared().fabric.cache_invalidate_sync(self.rank());
        self.advance();
    }
}

#[cfg(test)]
mod tests {
    use crate::spmd::spmd;
    use crate::RuntimeConfig;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn barrier_separates_phases() {
        // Every rank increments a counter before the barrier; after the
        // barrier every rank must observe the full count.
        for n in [1, 2, 3, 4, 8] {
            let counter = Arc::new(AtomicUsize::new(0));
            let c2 = counter.clone();
            let seen = spmd(RuntimeConfig::new(n).segment_bytes(4096), move |ctx| {
                c2.fetch_add(1, Ordering::SeqCst);
                ctx.barrier();
                c2.load(Ordering::SeqCst)
            });
            assert!(seen.iter().all(|&s| s == n), "n={n}: {seen:?}");
        }
    }

    #[test]
    fn fence_is_callable() {
        spmd(RuntimeConfig::new(2).segment_bytes(4096), |ctx| {
            ctx.fence();
        });
    }

    #[test]
    #[should_panic(expected = "unreachable")]
    fn barrier_over_dead_link_reports_failure() {
        // The 0->1 link drops every attempt: rank 0's barrier signal can
        // never reach rank 1, so the job must surface `PeerUnreachable`
        // (through the wait_until funnel) rather than spin forever.
        use rupcxx_net::{FaultPlan, LinkRule};
        let dead = LinkRule {
            drop_ppm: 1_000_000,
            ..Default::default()
        };
        let plan = FaultPlan::new(11).link(0, 1, dead).max_attempts(4);
        spmd(
            RuntimeConfig::new(2).segment_bytes(4096).with_faults(plan),
            |ctx| ctx.barrier(),
        );
    }
}
