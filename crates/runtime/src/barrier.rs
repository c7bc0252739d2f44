//! Barrier and memory fence (paper Table I: `barrier()` & `fence()`).
//!
//! The barrier is a dissemination barrier over active messages:
//! ⌈log₂ N⌉ rounds, in round k each rank signals rank `(me + 2^k) mod N`
//! and waits for the signal from `(me − 2^k) mod N`. This is the standard
//! scalable algorithm used by PGAS runtimes, and its message count
//! (N·⌈log₂N⌉ per episode) is what the perf model charges.

use crate::collectives::{collect, deposit, WORLD_DOMAIN};
use crate::ctx::Ctx;
use rupcxx_trace::{EventKind, WaitConstruct};

impl Ctx {
    /// Synchronize all ranks — no rank leaves before every rank arrived.
    pub fn barrier(&self) {
        let n = self.ranks();
        // Push out buffered aggregation batches before the first signal.
        // A target's final barrier signal transitively depends on every
        // rank's arrival, i.e. it lands in the target's single FIFO inbox
        // after our batch did — so the target executes the batch before
        // it can leave the barrier. Under fault injection retransmission
        // can delay a batch past this ordering — use `agg_fence` for an
        // applied-at-target guarantee there.
        self.agg_flush();
        if let Some(ck) = self.shared().fabric.checker() {
            ck.barrier_enter(self.rank());
        }
        if n == 1 {
            if let Some(ck) = self.shared().fabric.checker() {
                ck.barrier_exit(self.rank());
            }
            self.shared().fabric.cache_invalidate_sync(self.rank());
            return;
        }
        let seq = self.shared().next_coll_seq(self.rank());
        // The recorder wraps the whole episode: every barrier records a
        // wait (even a short one), so barrier wall time is attributed to
        // a named state in full — the report's headline accuracy number.
        let episode_ns = self.blocked(WaitConstruct::Barrier, || {
            let mut round = 0u64;
            let mut dist = 1usize;
            while dist < n {
                let dst = (self.rank() + dist) % n;
                let key = seq * 1024 + round;
                deposit(self, WORLD_DOMAIN, dst, key, Vec::new());
                let _ = collect(self, WORLD_DOMAIN, key, 1);
                round += 1;
                dist <<= 1;
            }
        });
        self.trace()
            .instant(EventKind::BarrierExit, -1, episode_ns, 0);
        if let Some(ck) = self.shared().fabric.checker() {
            ck.barrier_exit(self.rank());
        }
        // A barrier is a full synchronization point: peers' pre-barrier
        // writes become observable, so locally cached remote lines must
        // be refetched.
        self.shared().fabric.cache_invalidate_sync(self.rank());
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
    fn repeated_barriers_do_not_interfere() {
        let out = spmd(RuntimeConfig::new(4).segment_bytes(4096), |ctx| {
            for _ in 0..50 {
                ctx.barrier();
            }
            ctx.rank()
        });
        assert_eq!(out, vec![0, 1, 2, 3]);
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
