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
//!
//! # Completion is a count, acknowledged per progress pass
//!
//! A scope only has to know *that* its tasks have run, so a finished task
//! is not answered with a message of its own. Each rank keeps a
//! [`FinishState`] with the two halves of the protocol:
//!
//! - **Origin.** Opening a scope registers a token in the rank's table of
//!   open scopes; [`FinishScope::spawn`] ships `(origin, token)` with the
//!   task. The table is what makes a late or stray acknowledgement
//!   harmless: a scope whose body unwound deregisters in `Drop`, and an
//!   ack for a token that is gone is ignored.
//! - **Executing rank.** When a task returns, the rank that ran it adds
//!   one to what it owes `(origin, token)`. What it owes leaves as **one**
//!   registered-handler AM `finish_ack{token: u64, n: u64}` per (origin,
//!   scope), sent (a) at the end of every progress pass that ran at least
//!   one message and (b) on entry to every wait loop. A task spawned onto
//!   its own rank takes its count off directly, with no message.
//!
//! **The contract:** an acknowledgement leaves no later than the end of
//! the pass that ran its task, or the first wait a later task of that pass
//! enters — whichever comes first — so it never sits behind a task that
//! blocks. Everything a task did is ordered before the ack that covers it
//! (the count is taken after the task returns and the ack is sent after
//! the count), which is all the checker's AM edge needs.
//!
//! The rule is fixed: no threshold, no timer. An idle `advance()` pays
//! nothing for it (the pass must have run something before the table is
//! even looked at), and a wait's entry pays one relaxed load. The table is
//! per rank, not per thread: a `progress_thread` worker and the rank's own
//! thread owe into the same one, and whichever ends a pass or enters a
//! wait first sends what is there.
//!
//! [`FinishScope::spawn_with_result`] keeps one reply per task — the reply
//! carries the value — and takes its count off on the origin as the reply
//! runs.

use crate::ctx::Ctx;
use crate::event::{FutureSetter, RtFuture};
use rupcxx_check::WaitInfo;
use rupcxx_net::Rank;
use rupcxx_util::sync::{Mutex, SpinMutex};
use rupcxx_util::Bytes;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// The open scopes of one rank: token → the scope's outstanding count.
#[derive(Default)]
struct Scopes {
    next_token: u64,
    open: HashMap<u64, Arc<AtomicUsize>>,
}

/// Completions of `n` tasks this rank ran for scope `token` of `origin`,
/// not yet acknowledged.
struct Owed {
    origin: Rank,
    token: u64,
    n: u64,
}

/// One rank's `finish` bookkeeping, both halves (see the module docs).
#[derive(Default)]
pub(crate) struct FinishState {
    /// Origin half: the scopes this rank has open.
    scopes: Mutex<Scopes>,
    /// Executing half: what this rank owes other ranks' scopes. A handful
    /// of entries at most (one per scope with a task in the current pass),
    /// so a scan finds the entry; its capacity is kept across flushes.
    owed: SpinMutex<Vec<Owed>>,
    /// Mirror of `!owed.is_empty()`, stored under the lock and read
    /// without it: the one load a flush point costs when nothing is owed.
    /// `Relaxed` throughout — it publishes nothing (the entries change
    /// hands under the lock), and the thread whose flush point matters is
    /// the one that stored it.
    any_owed: AtomicBool,
}

impl FinishState {
    /// Open a scope: a fresh token and the count acknowledgements of it
    /// come off.
    fn open(&self) -> (u64, Arc<AtomicUsize>) {
        let outstanding = Arc::new(AtomicUsize::new(0));
        let mut scopes = self.scopes.lock();
        let token = scopes.next_token;
        scopes.next_token += 1;
        scopes.open.insert(token, outstanding.clone());
        (token, outstanding)
    }

    fn close(&self, token: u64) {
        self.scopes.lock().open.remove(&token);
    }

    /// `n` tasks of scope `token` have completed. A token that is not in
    /// the table belongs to a scope that unwound: nothing waits for it.
    fn complete(&self, token: u64, n: usize) {
        // (The lock is released before the assertion can fire.)
        let prev = match self.scopes.lock().open.get(&token) {
            Some(outstanding) => outstanding.fetch_sub(n, Ordering::AcqRel),
            None => return,
        };
        assert!(
            prev >= n,
            "finish ack without a matching spawn: {n} completion(s) for a scope with {prev} outstanding"
        );
    }

    /// This rank ran one task of `origin`'s scope `token`.
    fn owe(&self, origin: Rank, token: u64) {
        let mut owed = self.owed.lock();
        match owed
            .iter_mut()
            .find(|o| o.origin == origin && o.token == token)
        {
            Some(entry) => entry.n += 1,
            None => {
                owed.push(Owed {
                    origin,
                    token,
                    n: 1,
                });
                self.any_owed.store(true, Ordering::Relaxed);
            }
        }
    }

    /// Take one entry out of the owed table (a send must not happen under
    /// its lock).
    fn take_owed(&self) -> Option<Owed> {
        let mut owed = self.owed.lock();
        let entry = owed.pop();
        if owed.is_empty() {
            self.any_owed.store(false, Ordering::Relaxed);
        }
        entry
    }
}

/// The arguments of a `finish_ack`: token u64 LE + n u64 LE.
fn ack_args(token: u64, n: u64) -> Bytes {
    let mut args = [0u8; 16];
    args[..8].copy_from_slice(&token.to_le_bytes());
    args[8..].copy_from_slice(&n.to_le_bytes());
    Bytes::copy_from_slice(&args)
}

/// The `finish_ack` handler, registered in every job (`Shared::new_full`).
/// Args shorter than [`ack_args`] makes them are a frame that lost its
/// tail — dropped, like any other frame that does not decode.
pub(crate) fn ack_handler(ctx: &Ctx, _src: Rank, args: Bytes) {
    let (Some(token), Some(n)) = (args.get(..8), args.get(8..16)) else {
        return;
    };
    let word = |b: &[u8]| u64::from_le_bytes(b.try_into().expect("8 bytes"));
    let Ok(n) = usize::try_from(word(n)) else {
        return;
    };
    ctx.finish_state().complete(word(token), n);
}

/// Tracks asyncs spawned within one `finish` scope.
#[must_use = "a FinishScope that is dropped unused awaits nothing"]
pub struct FinishScope<'a> {
    ctx: &'a Ctx,
    /// This scope's entry in the origin's table of open scopes.
    token: u64,
    outstanding: Arc<AtomicUsize>,
}

impl<'a> FinishScope<'a> {
    fn new(ctx: &'a Ctx) -> Self {
        let (token, outstanding) = ctx.finish_state().open();
        FinishScope {
            ctx,
            token,
            outstanding,
        }
    }

    /// Spawn `task` on rank `place`; the scope will not close until the
    /// task has run and the acknowledgement that covers it has been
    /// processed here.
    pub fn spawn(&self, place: Rank, task: impl FnOnce(&Ctx) + Send + 'static) {
        self.outstanding.fetch_add(1, Ordering::AcqRel);
        let (origin, token) = (self.ctx.rank(), self.token);
        self.ctx.send_task_with_ctx(place, move |target_ctx| {
            task(target_ctx);
            let state = target_ctx.finish_state();
            if target_ctx.rank() == origin {
                state.complete(token, 1);
            } else {
                state.owe(origin, token);
            }
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
        let (origin, token) = (self.ctx.rank(), self.token);
        self.ctx.send_task_with_ctx(place, move |target_ctx| {
            let value = task(target_ctx);
            // The reply carries the value, so it stays one per task and
            // completes its task as it runs on the origin.
            target_ctx.send_task_with_ctx(origin, move |origin_ctx| {
                setter.set(value);
                origin_ctx.finish_state().complete(token, 1);
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

impl Drop for FinishScope<'_> {
    /// Closes the scope's table entry — also when the body or the wait
    /// unwound with tasks outstanding, whose acknowledgements then find
    /// no token and are ignored.
    fn drop(&mut self) {
        self.ctx.finish_state().close(self.token);
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

    #[inline]
    fn finish_state(&self) -> &FinishState {
        &self.shared().own[self.rank()].finish
    }

    /// A flush point of the `finish` acknowledgements (module docs): send
    /// what this rank owes, one AM per (origin, scope). One relaxed load
    /// when it owes nothing.
    #[inline]
    pub(crate) fn flush_finish_acks(&self) {
        if self.finish_state().any_owed.load(Ordering::Relaxed) {
            self.send_finish_acks();
        }
    }

    #[cold]
    fn send_finish_acks(&self) {
        let ack = self.shared().finish_ack;
        while let Some(Owed { origin, token, n }) = self.finish_state().take_owed() {
            self.send_handler(origin, ack, ack_args(token, n));
        }
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

    /// `n` contexts of one job, all driven from the calling thread.
    fn ctxs(n: usize) -> Vec<Ctx> {
        let sh = Shared::new(n, 4096, HandlerRegistry::new());
        (0..n).map(|r| Ctx::new(r, sh.clone())).collect()
    }

    fn ams_sent(ctx: &Ctx) -> u64 {
        ctx.fabric().endpoint(ctx.rank()).stats.snapshot().ams_sent
    }

    #[test]
    fn a_thousand_tasks_run_in_one_pass_are_one_ack() {
        let c = ctxs(2);
        let hits = Arc::new(AtomicUsize::new(0));
        let fs = FinishScope::new(&c[0]);
        for _ in 0..1000 {
            let h = hits.clone();
            fs.spawn(1, move |_| {
                h.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(fs.outstanding(), 1000);
        let before = ams_sent(&c[1]);
        assert_eq!(c[1].advance(), 1000);
        assert_eq!(hits.load(Ordering::Relaxed), 1000);
        assert_eq!(ams_sent(&c[1]) - before, 1, "one finish_ack for the pass");
        // The tasks have run; the scope learns it when the ack does.
        assert_eq!(fs.outstanding(), 1000);
        assert_eq!(c[0].advance(), 1);
        assert_eq!(fs.outstanding(), 0);
        // Nothing is left owed: an idle pass sends nothing.
        assert_eq!(c[1].advance(), 0);
        assert_eq!(ams_sent(&c[1]) - before, 1);
    }

    #[test]
    fn interleaved_scopes_of_two_origins_are_two_acks() {
        let c = ctxs(3);
        let (a, b) = (FinishScope::new(&c[0]), FinishScope::new(&c[1]));
        for _ in 0..10 {
            a.spawn(2, |_| {});
            b.spawn(2, |_| {});
            b.spawn(2, |_| {});
        }
        assert_eq!(c[2].advance(), 30);
        assert_eq!(ams_sent(&c[2]), 2);
        assert_eq!((c[0].advance(), c[1].advance()), (1, 1));
        assert_eq!((a.outstanding(), b.outstanding()), (0, 0));
    }

    #[test]
    fn two_scopes_of_one_origin_are_acknowledged_apart() {
        let c = ctxs(2);
        let (a, b) = (FinishScope::new(&c[0]), FinishScope::new(&c[0]));
        a.spawn(1, |_| {});
        b.spawn(1, |_| {});
        b.spawn(1, |_| {});
        a.spawn(1, |_| {});
        a.spawn(1, |_| {});
        assert_eq!(c[1].advance(), 5);
        assert_eq!(ams_sent(&c[1]), 2);
        assert_eq!(c[0].advance(), 2);
        assert_eq!((a.outstanding(), b.outstanding()), (0, 0));
    }

    #[test]
    fn a_self_spawn_sends_no_ack() {
        let c = ctxs(2);
        let fs = FinishScope::new(&c[0]);
        fs.spawn(0, |_| {});
        assert_eq!(ams_sent(&c[0]), 1, "the spawn itself");
        assert_eq!(c[0].advance(), 1);
        assert_eq!(fs.outstanding(), 0);
        assert_eq!(ams_sent(&c[0]), 1);
        assert_eq!(c[0].advance(), 0);
    }

    #[test]
    fn a_task_that_waits_sends_the_acks_run_up_before_it() {
        // Rank 1's pass runs the scope's task and then a task that waits
        // for the scope to close: the ack must leave when the wait
        // begins, not when the pass ends.
        let c = ctxs(2);
        let fs = FinishScope::new(&c[0]);
        fs.spawn(1, |_| {});
        let (left, origin) = (fs.outstanding.clone(), c[0].clone());
        c[0].send_task_with_ctx(1, move |c1| {
            let mut polls = 0;
            c1.wait_until(|| {
                polls += 1;
                assert!(polls < 1000, "the ack is stuck behind the waiting task");
                // Stands in for rank 0's thread: serve its engine.
                origin.advance();
                left.load(Ordering::Acquire) == 0
            });
        });
        assert_eq!(c[1].advance(), 2);
        assert_eq!(fs.outstanding(), 0);
    }

    #[test]
    #[should_panic(expected = "finish ack without a matching spawn")]
    fn a_duplicate_ack_trips_the_assertion() {
        let c = ctxs(2);
        let fs = FinishScope::new(&c[0]);
        fs.spawn(1, |_| {});
        let id = c[1].shared().finish_ack;
        c[1].send_handler(0, id, ack_args(fs.token, 1));
        c[1].send_handler(0, id, ack_args(fs.token, 1));
        c[0].advance();
    }

    #[test]
    fn a_late_or_short_ack_is_ignored() {
        let c = ctxs(2);
        let id = c[1].shared().finish_ack;
        let token = {
            // The body "unwound" with a task outstanding: the scope
            // deregisters as it drops.
            let fs = FinishScope::new(&c[0]);
            fs.spawn(1, |_| {});
            fs.token
        };
        assert_eq!(c[1].advance(), 1);
        // Behind the late ack that pass sent: one for a token never
        // issued, and two frames that lost their tail.
        c[1].send_handler(0, id, ack_args(token + 7, 1));
        c[1].send_handler(0, id, Bytes::from_static(&[1, 2, 3]));
        c[1].send_handler(0, id, Bytes::new());
        assert_eq!(c[0].advance(), 4);
        assert!(c[0].finish_state().scopes.lock().open.is_empty());
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
