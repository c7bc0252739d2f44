//! The `finish` construct (paper §III-G): a scope that blocks at its end
//! until every async spawned *in its dynamic extent* has completed.
//!
//! The paper implements `finish` with a macro expanding to a RAII object
//! whose destructor waits. In Rust the idiom is a closure-scoped guard:
//!
//! ```ignore
//! ctx.finish(|fs| {
//!     fs.spawn(p1, |_| task1());
//!     fs.spawn(p2, |_| task2());
//! }); // blocks here until task1 and task2 completed
//! ```
//!
//! As in UPC++ (and unlike X10), only asyncs spawned in the scope itself
//! are awaited — not those transitively spawned by the tasks, because
//! distributed termination detection is expensive (paper §III-G).

use crate::ctx::Ctx;
use crate::event::{FutureSetter, RtFuture};
use rupcxx_check::WaitInfo;
use rupcxx_net::Rank;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Tracks asyncs spawned within one `finish` scope.
#[must_use = "a FinishScope that is dropped unused awaits nothing"]
pub struct FinishScope<'a> {
    ctx: &'a Ctx,
    outstanding: Arc<AtomicUsize>,
}

impl<'a> FinishScope<'a> {
    fn new(ctx: &'a Ctx) -> Self {
        FinishScope {
            ctx,
            outstanding: Arc::new(AtomicUsize::new(0)),
        }
    }

    /// Spawn `task` on rank `place`; the scope will not close until the
    /// task has run and its completion reply has been processed here.
    pub fn spawn(&self, place: Rank, task: impl FnOnce(&Ctx) + Send + 'static) {
        self.outstanding.fetch_add(1, Ordering::AcqRel);
        let origin = self.ctx.rank();
        let counter = self.outstanding.clone();
        self.ctx.send_task_with_ctx(place, move |target_ctx| {
            task(target_ctx);
            // Completion reply: decrement on the origin's progress engine,
            // mirroring the paper's reply active message.
            target_ctx.send_task(origin, move || {
                counter.fetch_sub(1, Ordering::AcqRel);
            });
        });
    }

    /// Spawn a value-returning task; the returned future resolves when the
    /// reply arrives (and the scope also waits for it).
    pub fn spawn_with_result<T: Send + 'static>(
        &self,
        place: Rank,
        task: impl FnOnce(&Ctx) -> T + Send + 'static,
    ) -> RtFuture<T> {
        let (future, setter) = RtFuture::pending();
        self.spawn_with_setter(place, setter, task);
        future
    }

    fn spawn_with_setter<T: Send + 'static>(
        &self,
        place: Rank,
        setter: FutureSetter<T>,
        task: impl FnOnce(&Ctx) -> T + Send + 'static,
    ) {
        self.outstanding.fetch_add(1, Ordering::AcqRel);
        let origin = self.ctx.rank();
        let counter = self.outstanding.clone();
        self.ctx.send_task_with_ctx(place, move |target_ctx| {
            let value = task(target_ctx);
            target_ctx.send_task(origin, move || {
                setter.set(value);
                counter.fetch_sub(1, Ordering::AcqRel);
            });
        });
    }

    /// Number of asyncs not yet completed.
    pub fn outstanding(&self) -> usize {
        self.outstanding.load(Ordering::Acquire)
    }

    fn wait(&self) {
        self.ctx.wait_on(WaitInfo::Finish, || {
            self.outstanding.load(Ordering::Acquire) == 0
        });
    }
}

impl Ctx {
    /// Run `body` inside a `finish` scope: returns only after every async
    /// spawned through the provided [`FinishScope`] has completed.
    pub fn finish<R>(&self, body: impl FnOnce(&FinishScope) -> R) -> R {
        let fs = FinishScope::new(self);
        let out = body(&fs);
        fs.wait();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shared::{HandlerRegistry, Shared};
    use crate::spmd::spmd;
    use crate::RuntimeConfig;

    #[test]
    fn finish_waits_for_local_spawn() {
        let sh = Shared::new(1, 4096, HandlerRegistry::new());
        let ctx = Ctx::new(0, sh);
        let hits = Arc::new(AtomicUsize::new(0));
        let h = hits.clone();
        ctx.finish(|fs| {
            fs.spawn(0, move |_| {
                h.fetch_add(1, Ordering::SeqCst);
            });
        });
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn finish_waits_for_remote_spawns() {
        let results = spmd(RuntimeConfig::new(4).segment_bytes(4096), |ctx| {
            let hits = Arc::new(AtomicUsize::new(0));
            if ctx.rank() == 0 {
                ctx.finish(|fs| {
                    for r in 0..ctx.ranks() {
                        let h = hits.clone();
                        fs.spawn(r, move |tctx| {
                            assert_eq!(tctx.rank(), r);
                            h.fetch_add(1, Ordering::SeqCst);
                        });
                    }
                    // Outstanding count is visible while tasks are pending.
                    let _ = fs.outstanding();
                });
                hits.load(Ordering::SeqCst)
            } else {
                // Other ranks serve progress via the post-closure drain.
                0
            }
        });
        assert_eq!(results[0], 4);
    }

    #[test]
    #[should_panic(expected = "unreachable")]
    fn finish_over_dead_link_reports_failure() {
        // The spawn AM can never reach rank 1 (every attempt on the 0->1
        // link is dropped), so the enclosing finish must panic with the
        // `PeerUnreachable` report once retransmission gives up, rather
        // than wait forever for a completion signal.
        use rupcxx_net::{FaultPlan, LinkRule};
        let dead = LinkRule {
            drop_ppm: 1_000_000,
            ..Default::default()
        };
        let plan = FaultPlan::new(31).link(0, 1, dead).max_attempts(4);
        spmd(
            RuntimeConfig::new(2).segment_bytes(4096).with_faults(plan),
            |ctx| {
                if ctx.rank() == 0 {
                    ctx.finish(|fs| {
                        fs.spawn(1, |_| {});
                    });
                }
            },
        );
    }

    #[test]
    fn spawn_with_result_resolves_future() {
        let results = spmd(RuntimeConfig::new(2).segment_bytes(4096), |ctx| {
            if ctx.rank() == 0 {
                ctx.finish(|fs| {
                    let f = fs.spawn_with_result(1, |tctx| tctx.rank() * 10);
                    f.get(ctx)
                })
            } else {
                0
            }
        });
        assert_eq!(results[0], 10);
    }
}
