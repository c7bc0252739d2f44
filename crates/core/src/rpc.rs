//! Asynchronous remote function invocation (paper §III-G).
//!
//! The paper's `async(place)(function, args...)` becomes [`async_on`]:
//! ship a closure to a rank, get back a future for its return value.
//! [`async_with_event`] registers completion on an [`Event`];
//! [`async_after`] defers the launch until an event fires — together these
//! express the event-driven task DAGs of Listing 1 / Fig. 1. The
//! `finish` construct lives on [`Ctx::finish`] (see `rupcxx-runtime`).
//!
//! As in UPC++ (and unlike X10), only the explicit closure and its
//! captures travel — there is no automatic serialization of the reachable
//! object graph.

use rupcxx_net::Rank;
use rupcxx_runtime::{Ctx, Event, RtFuture};

/// Launch `task` asynchronously on rank `place`; returns a future for the
/// result — `future<T> f = async(place)(function, args...)`.
///
/// The task runs when `place` next drives progress (its `advance()`, any
/// blocking wait, or the post-SPMD drain). The reply resolving the future
/// is itself an active message processed by the *caller's* progress engine.
pub fn async_on<T: Send + 'static>(
    ctx: &Ctx,
    place: Rank,
    task: impl FnOnce(&Ctx) -> T + Send + 'static,
) -> RtFuture<T> {
    let (future, setter) = RtFuture::pending();
    let origin = ctx.rank();
    ctx.send_task_with_ctx(place, move |target_ctx| {
        let value = task(target_ctx);
        target_ctx.send_task(origin, move || setter.set(value));
    });
    future
}

/// Launch `task` on `place`, signaling `event` when it completes
/// (`async(place, event)(task, args...)`).
pub fn async_with_event(
    ctx: &Ctx,
    place: Rank,
    event: &Event,
    task: impl FnOnce(&Ctx) + Send + 'static,
) {
    event.register();
    let done = event.clone();
    let origin = ctx.rank();
    ctx.send_task_with_ctx(place, move |target_ctx| {
        task(target_ctx);
        // Signal on the origin's progress engine, like the paper's reply AM.
        target_ctx.send_task(origin, move || done.signal());
    });
}

/// Launch `task` on `place` after `after` fires, optionally signaling
/// `signal` on completion (`async_after(place, &after, &signal)(task)`).
pub fn async_after(
    ctx: &Ctx,
    place: Rank,
    after: &Event,
    signal: Option<&Event>,
    task: impl FnOnce(&Ctx) + Send + 'static,
) {
    if let Some(s) = signal {
        s.register();
    }
    let signal = signal.cloned();
    let origin = ctx.rank();
    // The thunk fires on whichever thread performs the final signal —
    // possibly outside any progress engine, with no context to borrow —
    // so the launch (alone among the task paths) carries its own.
    let launcher_ctx = ctx.clone();
    after.on_fire(move || {
        launcher_ctx.send_task_with_ctx(place, move |target_ctx| {
            task(target_ctx);
            if let Some(done) = signal {
                target_ctx.send_task(origin, move || done.signal());
            }
        });
    });
}

/// Launch `task` on every rank (the "group of threads" form of `place`);
/// returns one future per rank, in rank order.
pub fn async_on_all<T: Send + 'static>(
    ctx: &Ctx,
    task: impl Fn(&Ctx) -> T + Clone + Send + 'static,
) -> Vec<RtFuture<T>> {
    (0..ctx.ranks())
        .map(|r| {
            let t = task.clone();
            async_on(ctx, r, move |c| t(c))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rupcxx_runtime::{spmd, RuntimeConfig};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn cfg(n: usize) -> RuntimeConfig {
        RuntimeConfig::new(n).segment_bytes(1 << 16)
    }

    #[test]
    fn async_on_returns_value() {
        let out = spmd(cfg(3), |ctx| {
            if ctx.rank() == 0 {
                let f = async_on(ctx, 2, |tctx| {
                    assert_eq!(tctx.rank(), 2);
                    tctx.rank() as u64 * 100
                });
                f.get(ctx)
            } else {
                0
            }
        });
        assert_eq!(out[0], 200);
    }

    #[test]
    fn async_lambda_with_argument() {
        // The paper's example: async(2)([](int n){ printf("n: %d", n); }, 5).
        let seen = Arc::new(AtomicUsize::new(0));
        let s2 = seen.clone();
        spmd(cfg(3), move |ctx| {
            if ctx.rank() == 0 {
                let n = 5usize;
                let s3 = s2.clone();
                let f = async_on(ctx, 2, move |_| {
                    s3.store(n, Ordering::SeqCst);
                });
                f.get(ctx);
            }
            ctx.barrier();
        });
        assert_eq!(seen.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn event_signaled_after_remote_completion() {
        spmd(cfg(2), |ctx| {
            if ctx.rank() == 0 {
                let e = Event::new();
                let hit = Arc::new(AtomicUsize::new(0));
                let h = hit.clone();
                async_with_event(ctx, 1, &e, move |_| {
                    h.fetch_add(1, Ordering::SeqCst);
                });
                e.wait(ctx);
                assert_eq!(hit.load(Ordering::SeqCst), 1);
            }
            ctx.barrier();
        });
    }

    #[test]
    fn listing1_task_dependency_graph() {
        // Reproduces Listing 1 / Fig. 1: six tasks, three events.
        //   t1,t2 -> e1;  t3 = after e1, signals e2; t4 -> e2;
        //   t5,t6 = after e2, signal e3;  wait e3.
        let order: Arc<rupcxx_util::sync::Mutex<Vec<&'static str>>> = Arc::default();
        let o = order.clone();
        spmd(cfg(4), move |ctx| {
            if ctx.rank() == 0 {
                let (e1, e2, e3) = (Event::new(), Event::new(), Event::new());
                let push =
                    |name: &'static str, o: &Arc<rupcxx_util::sync::Mutex<Vec<&'static str>>>| {
                        let o = o.clone();
                        move |_: &Ctx| {
                            o.lock().push(name);
                        }
                    };
                async_with_event(ctx, 1, &e1, push("t1", &o));
                async_with_event(ctx, 2, &e1, push("t2", &o));
                async_after(ctx, 3, &e1, Some(&e2), push("t3", &o));
                async_with_event(ctx, 1, &e2, push("t4", &o));
                async_after(ctx, 2, &e2, Some(&e3), push("t5", &o));
                async_after(ctx, 3, &e2, Some(&e3), push("t6", &o));
                e3.wait(ctx);
            }
            ctx.barrier();
        });
        let seq = order.lock().clone();
        assert_eq!(seq.len(), 6, "all six tasks ran: {seq:?}");
        let pos = |n: &str| seq.iter().position(|&x| x == n).unwrap();
        // Dependency edges from Fig. 1.
        assert!(pos("t3") > pos("t1") && pos("t3") > pos("t2"));
        assert!(pos("t5") > pos("t3") && pos("t5") > pos("t4"));
        assert!(pos("t6") > pos("t3") && pos("t6") > pos("t4"));
    }

    #[test]
    fn task_paths_leave_the_shared_refcount_alone() {
        // Every task borrows the executing rank's `Ctx`; none clones the
        // job's `Arc<Shared>`. So the count sampled inside tasks running
        // on the peer equals the count before and after, however many
        // tasks are in flight at that moment.
        let out = spmd(cfg(2), |ctx| {
            // Past this barrier every rank thread holds its context.
            ctx.barrier();
            let before = Arc::strong_count(ctx.shared());
            let mut during = Vec::new();
            if ctx.rank() == 0 {
                let lo = Arc::new(AtomicUsize::new(usize::MAX));
                let hi = Arc::new(AtomicUsize::new(0));
                ctx.finish(|fs| {
                    for _ in 0..1024 {
                        let (lo, hi) = (lo.clone(), hi.clone());
                        fs.spawn(1, move |t| {
                            let count = Arc::strong_count(t.shared());
                            lo.fetch_min(count, Ordering::Relaxed);
                            hi.fetch_max(count, Ordering::Relaxed);
                        });
                    }
                });
                during.push(lo.load(Ordering::Relaxed));
                during.push(hi.load(Ordering::Relaxed));
                for _ in 0..64 {
                    during.push(async_on(ctx, 1, |t| Arc::strong_count(t.shared())).get(ctx));
                }
            }
            ctx.barrier();
            (before, during, Arc::strong_count(ctx.shared()))
        });
        let (before, during, after) = &out[0];
        assert_eq!(during.len(), 66);
        assert!(during.iter().all(|c| c == before), "{before} → {during:?}");
        assert_eq!(after, before);
    }

    #[test]
    fn async_on_all_reaches_every_rank() {
        let out = spmd(cfg(4), |ctx| {
            if ctx.rank() == 0 {
                let fs = async_on_all(ctx, |tctx| tctx.rank());
                fs.into_iter().map(|f| f.get(ctx)).collect::<Vec<_>>()
            } else {
                vec![]
            }
        });
        assert_eq!(out[0], vec![0, 1, 2, 3]);
    }

    #[test]
    fn self_async_executes_locally() {
        let out = spmd(cfg(1), |ctx| {
            let f = async_on(ctx, 0, |_| 7u32);
            f.get(ctx)
        });
        assert_eq!(out[0], 7);
    }
}
