//! Global (inter-rank) locks, the UPC++ equivalent of `upc_lock_t`.
//!
//! A lock is one word in its owner rank's segment, acquired with remote
//! compare-and-swap — the way PGAS runtimes implement locks over RDMA
//! atomics. Waiters drive progress while spinning, so a lock holder that
//! is itself waiting on incoming AMs cannot deadlock the job.

use crate::ctx::Ctx;
use rupcxx_check::WaitInfo;
use rupcxx_net::GlobalAddr;

const UNLOCKED: u64 = 0;

/// A lock resident in the global address space. Copyable: the value is
/// just the lock's global address, so it can be broadcast to all ranks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GlobalLock {
    addr: GlobalAddr,
}

impl GlobalLock {
    /// Allocate a lock in `owner`'s segment (collectively usable by all
    /// ranks once they learn the address, e.g. via broadcast).
    pub fn new(ctx: &Ctx, owner: rupcxx_net::Rank) -> Self {
        let addr = ctx
            .alloc_on(owner, 8)
            .expect("segment memory for GlobalLock");
        ctx.fabric().put_u64(ctx.rank(), addr, UNLOCKED);
        GlobalLock { addr }
    }

    /// The lock word's global address (for broadcasting to other ranks).
    pub fn addr(&self) -> GlobalAddr {
        self.addr
    }

    /// Rebuild a lock handle from a broadcast address.
    pub fn from_addr(addr: GlobalAddr) -> Self {
        GlobalLock { addr }
    }

    /// Checker identity: the global word the lock lives in. Stable across
    /// ranks (unlike host pointers), so reports are deterministic.
    fn check_key(&self) -> (usize, usize) {
        (self.addr.rank(), self.addr.offset())
    }

    /// Try to acquire; true on success.
    #[must_use = "ignoring the result means not knowing whether the lock is held"]
    pub fn try_acquire(&self, ctx: &Ctx) -> bool {
        let tag = ctx.rank() as u64 + 1;
        let got = ctx
            .fabric()
            .cas_u64(ctx.rank(), self.addr, UNLOCKED, tag)
            .is_ok();
        if got {
            if let Some(ck) = ctx.shared().fabric.checker() {
                ck.lock_acquired(ctx.rank(), self.check_key());
            }
        }
        got
    }

    /// Acquire, driving progress while waiting.
    pub fn acquire(&self, ctx: &Ctx) {
        let lock = self.check_key();
        ctx.wait_on(WaitInfo::Lock { lock }, || self.try_acquire(ctx));
    }

    /// Release. Panics if this rank does not hold the lock.
    pub fn release(&self, ctx: &Ctx) {
        // The release stamp must be published *before* the word is freed:
        // once the CAS lands, another rank's acquire may succeed
        // immediately and must find this critical section's clock waiting.
        if let Some(ck) = ctx.shared().fabric.checker() {
            ck.lock_release(ctx.rank(), self.check_key());
        }
        let tag = ctx.rank() as u64 + 1;
        let res = ctx.fabric().cas_u64(ctx.rank(), self.addr, tag, UNLOCKED);
        assert!(
            res.is_ok(),
            "GlobalLock::release: rank {} does not hold the lock (word={:?})",
            ctx.rank(),
            res
        );
    }

    /// Run `body` under the lock.
    pub fn with<R>(&self, ctx: &Ctx, body: impl FnOnce() -> R) -> R {
        self.acquire(ctx);
        let out = body();
        self.release(ctx);
        out
    }

    /// Free the lock's segment memory (call once, after all ranks are done
    /// with it).
    pub fn destroy(self, ctx: &Ctx) {
        if let Some(ck) = ctx.shared().fabric.checker() {
            ck.lock_destroyed(self.check_key());
        }
        ctx.free(self.addr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spmd::spmd;
    use crate::RuntimeConfig;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn mutual_exclusion_across_ranks() {
        let inside = Arc::new(AtomicU64::new(0));
        let max_seen = Arc::new(AtomicU64::new(0));
        let (i2, m2) = (inside.clone(), max_seen.clone());
        let total = Arc::new(AtomicU64::new(0));
        let t2 = total.clone();
        spmd(RuntimeConfig::new(4).segment_bytes(4096), move |ctx| {
            // Rank 0 creates the lock and broadcasts its address.
            let lock = if ctx.rank() == 0 {
                let l = GlobalLock::new(ctx, 0);
                ctx.broadcast(0, [l.addr().rank() as u64, l.addr().offset() as u64]);
                l
            } else {
                let a = ctx.broadcast(0, [0u64, 0u64]);
                GlobalLock::from_addr(GlobalAddr::new(a[0] as usize, a[1] as usize))
            };
            for _ in 0..200 {
                lock.with(ctx, || {
                    let now = i2.fetch_add(1, Ordering::SeqCst) + 1;
                    m2.fetch_max(now, Ordering::SeqCst);
                    t2.fetch_add(1, Ordering::SeqCst);
                    i2.fetch_sub(1, Ordering::SeqCst);
                });
            }
            ctx.barrier();
            if ctx.rank() == 0 {
                lock.destroy(ctx);
            }
        });
        assert_eq!(max_seen.load(Ordering::SeqCst), 1, "lock was not exclusive");
        assert_eq!(total.load(Ordering::SeqCst), 800);
    }

    #[test]
    fn try_acquire_fails_when_held() {
        spmd(RuntimeConfig::new(1).segment_bytes(4096), |ctx| {
            let lock = GlobalLock::new(ctx, 0);
            assert!(lock.try_acquire(ctx));
            assert!(!lock.try_acquire(ctx));
            lock.release(ctx);
            assert!(lock.try_acquire(ctx));
            lock.release(ctx);
            lock.destroy(ctx);
        });
    }

    #[test]
    #[should_panic(expected = "does not hold the lock")]
    fn release_unheld_panics() {
        spmd(RuntimeConfig::new(1).segment_bytes(4096), |ctx| {
            let lock = GlobalLock::new(ctx, 0);
            lock.release(ctx);
        });
    }

    // ---- checker edge cases (these double as the deadlock corpus) -------

    #[test]
    #[should_panic(expected = "self-deadlock")]
    fn reacquire_by_same_rank_is_flagged_as_self_deadlock() {
        // The lock is not reentrant: a second acquire by the holder spins
        // forever. The deadlock pass must turn that hang into a report.
        spmd(
            RuntimeConfig::new(1)
                .segment_bytes(4096)
                .with_check(rupcxx_net::CheckConfig::deadlock()),
            |ctx| {
                let lock = GlobalLock::new(ctx, 0);
                lock.acquire(ctx);
                lock.acquire(ctx);
            },
        );
    }

    #[test]
    fn critical_sections_hand_off_happens_before() {
        // Lock-ordered read-modify-write of one global word from every
        // rank: the release->acquire hand-off edge must totally order the
        // critical sections, so the race pass stays silent and no
        // increment is lost.
        use rupcxx_net::GlobalAddr;
        let sink = rupcxx_check::new_sink();
        let s2 = sink.clone();
        let out = spmd(
            RuntimeConfig::new(4)
                .segment_bytes(4096)
                .with_check(rupcxx_net::CheckConfig::all().with_sink(s2)),
            |ctx| {
                let (lock, word) = if ctx.rank() == 0 {
                    let l = GlobalLock::new(ctx, 0);
                    let w = ctx.alloc_on(0, 8).expect("counter word");
                    ctx.fabric().put_u64(0, w, 0);
                    ctx.broadcast(
                        0,
                        [
                            l.addr().rank() as u64,
                            l.addr().offset() as u64,
                            w.rank() as u64,
                            w.offset() as u64,
                        ],
                    );
                    (l, w)
                } else {
                    let v = ctx.broadcast(0, [0u64; 4]);
                    (
                        GlobalLock::from_addr(GlobalAddr::new(v[0] as usize, v[1] as usize)),
                        GlobalAddr::new(v[2] as usize, v[3] as usize),
                    )
                };
                for _ in 0..25 {
                    lock.with(ctx, || {
                        let v = ctx.fabric().get_u64(ctx.rank(), word);
                        ctx.fabric().put_u64(ctx.rank(), word, v + 1);
                    });
                }
                ctx.barrier();
                ctx.fabric().get_u64(ctx.rank(), word)
            },
        );
        assert!(out.iter().all(|&v| v == 100), "lost updates: {out:?}");
        let findings = sink.lock();
        assert!(
            findings.is_empty(),
            "lock hand-off should order the critical sections:\n{}",
            findings
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }

    #[test]
    #[should_panic(expected = "does not hold the lock")]
    fn release_without_acquire_panics_with_checker_installed() {
        // The checker's release hook runs before the CAS; it must not
        // swallow or alter the runtime's own misuse panic.
        spmd(
            RuntimeConfig::new(1)
                .segment_bytes(4096)
                .with_check(rupcxx_net::CheckConfig::all()),
            |ctx| {
                let lock = GlobalLock::new(ctx, 0);
                lock.release(ctx);
            },
        );
    }
}
