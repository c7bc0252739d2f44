//! Events and futures for asynchronous task graphs (paper §III-G).
//!
//! An [`Event`] counts outstanding operations: each registered operation
//! signals the event on completion, and when the count reaches zero the
//! event *fires*, releasing any dependents registered with
//! [`Event::on_fire`] (the mechanism under `async_after`). A fired event
//! with no registrations is *ready*, so dependents attached to a ready
//! event launch immediately — matching Phalanx/UPC++ semantics.
//!
//! An [`RtFuture`] carries the return value of a remote function invocation
//! back to the caller, as `async(place)(...)` returning `future<T>` does in
//! the paper.

use crate::ctx::Ctx;
use rupcxx_check::WaitInfo;
use rupcxx_util::sync::Mutex;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;

#[derive(Default)]
struct EventCore {
    outstanding: AtomicI64,
    deferred: Mutex<Vec<Box<dyn FnOnce() + Send>>>,
}

impl EventCore {
    fn fire(&self) {
        // Drain-and-run loop: running a dependent may register more work.
        loop {
            let thunks: Vec<_> = std::mem::take(&mut *self.deferred.lock());
            if thunks.is_empty() {
                return;
            }
            for t in thunks {
                t();
            }
            if self.outstanding.load(Ordering::Acquire) != 0 {
                return;
            }
        }
    }
}

/// A completion event, cloneable and usable from any rank thread.
#[derive(Clone, Default)]
#[must_use = "an Event that is dropped unused can never be waited on"]
pub struct Event {
    core: Arc<EventCore>,
}

impl Event {
    /// A new event with no outstanding operations (i.e. ready).
    pub fn new() -> Self {
        Self::default()
    }

    /// Checker identity for this event: the core allocation's address.
    /// Reuse of a freed address can only *add* happens-before edges
    /// (never remove them), so it cannot manufacture a false race.
    fn check_key(&self) -> usize {
        Arc::as_ptr(&self.core) as usize
    }

    /// Register one more outstanding operation.
    pub fn register(&self) {
        self.core.outstanding.fetch_add(1, Ordering::AcqRel);
    }

    /// Signal completion of one registered operation. Fires dependents when
    /// the outstanding count reaches zero.
    pub fn signal(&self) {
        // Publish the signaling thread's clock to the event *before* the
        // count drops: a waiter released by this signal must inherit
        // everything that happened before it. `signal` has no ctx
        // parameter, so the checker is reached through thread-locals.
        rupcxx_check::with_current(|ck, rank| ck.event_signal(rank, self.check_key()));
        let prev = self.core.outstanding.fetch_sub(1, Ordering::AcqRel);
        assert!(prev > 0, "Event::signal without matching register");
        if prev == 1 {
            self.core.fire();
        }
    }

    /// True when no registered operation is outstanding.
    pub fn is_ready(&self) -> bool {
        self.core.outstanding.load(Ordering::Acquire) == 0
    }

    /// Run `thunk` when the event fires. If the event is already ready the
    /// thunk runs immediately on the calling thread.
    pub fn on_fire(&self, thunk: impl FnOnce() + Send + 'static) {
        {
            let mut d = self.core.deferred.lock();
            if !self.is_ready() {
                d.push(Box::new(thunk));
                drop(d);
                // Re-check: a concurrent final signal may have drained
                // before our push landed.
                if self.is_ready() {
                    self.core.fire();
                }
                return;
            }
        }
        thunk();
    }

    /// Block (driving progress) until the event fires — `event.wait()` in
    /// the paper.
    pub fn wait(&self, ctx: &Ctx) {
        let key = self.check_key();
        ctx.wait_on(WaitInfo::Event { key }, || self.is_ready());
    }
}

impl std::fmt::Debug for Event {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Event")
            .field(
                "outstanding",
                &self.core.outstanding.load(Ordering::Relaxed),
            )
            .finish()
    }
}

struct FutureCore<T> {
    slot: Mutex<Option<T>>,
    done: AtomicBool,
}

/// The runtime's future: carries the return value of an async remote call.
///
/// Named `RtFuture` to avoid clashing with `std::future::Future`; the
/// `rupcxx` crate re-exports it under the paper-flavoured name.
#[must_use = "an async result that is never taken hides remote failures"]
pub struct RtFuture<T> {
    core: Arc<FutureCore<T>>,
}

impl<T> Clone for RtFuture<T> {
    fn clone(&self) -> Self {
        RtFuture {
            core: self.core.clone(),
        }
    }
}

impl<T: Send + 'static> RtFuture<T> {
    /// Create an unresolved future and its setter half.
    pub fn pending() -> (Self, FutureSetter<T>) {
        let core = Arc::new(FutureCore {
            slot: Mutex::new(None),
            done: AtomicBool::new(false),
        });
        (RtFuture { core: core.clone() }, FutureSetter { core })
    }

    /// A future already resolved with `value`.
    pub fn ready(value: T) -> Self {
        let (f, s) = Self::pending();
        s.set(value);
        f
    }

    /// True when the value has arrived.
    pub fn is_ready(&self) -> bool {
        self.core.done.load(Ordering::Acquire)
    }

    /// Take the value if it has arrived. Returns `None` if pending or if
    /// the value was already taken.
    pub fn try_take(&self) -> Option<T> {
        if self.is_ready() {
            self.core.slot.lock().take()
        } else {
            None
        }
    }

    /// Block (driving progress) until the value arrives, then take it —
    /// the paper's `future.get()`. Panics if the value was already taken.
    pub fn get(&self, ctx: &Ctx) -> T {
        ctx.wait_on(WaitInfo::Future, || self.is_ready());
        self.core
            .slot
            .lock()
            .take()
            .expect("RtFuture::get called twice on the same future")
    }
}

impl<T> std::fmt::Debug for RtFuture<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RtFuture")
            .field("ready", &self.core.done.load(Ordering::Relaxed))
            .finish()
    }
}

/// Write-half of an [`RtFuture`], sent to the executing rank.
pub struct FutureSetter<T> {
    core: Arc<FutureCore<T>>,
}

impl<T: Send + 'static> FutureSetter<T> {
    /// Resolve the future.
    pub fn set(self, value: T) {
        *self.core.slot.lock() = Some(value);
        self.core.done.store(true, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn fresh_event_is_ready() {
        let e = Event::new();
        assert!(e.is_ready());
    }

    #[test]
    fn register_signal_cycle() {
        let e = Event::new();
        e.register();
        e.register();
        assert!(!e.is_ready());
        e.signal();
        assert!(!e.is_ready());
        e.signal();
        assert!(e.is_ready());
    }

    #[test]
    #[should_panic(expected = "without matching register")]
    fn unbalanced_signal_panics() {
        Event::new().signal();
    }

    #[test]
    fn on_fire_ready_runs_immediately() {
        let e = Event::new();
        let hit = Arc::new(AtomicUsize::new(0));
        let h = hit.clone();
        e.on_fire(move || {
            h.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hit.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn on_fire_deferred_runs_at_zero() {
        let e = Event::new();
        e.register();
        let hit = Arc::new(AtomicUsize::new(0));
        let h = hit.clone();
        e.on_fire(move || {
            h.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hit.load(Ordering::SeqCst), 0);
        e.signal();
        assert_eq!(hit.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn chained_dependents_fire_in_cascade() {
        // e1 fires -> registers on e2 which is already ready -> runs.
        let e1 = Event::new();
        e1.register();
        let e2 = Event::new();
        let hit = Arc::new(AtomicUsize::new(0));
        let h = hit.clone();
        let e2c = e2.clone();
        e1.on_fire(move || {
            e2c.on_fire(move || {
                h.fetch_add(1, Ordering::SeqCst);
            });
        });
        e1.signal();
        assert_eq!(hit.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn future_set_and_take() {
        let (f, s) = RtFuture::<u32>::pending();
        assert!(!f.is_ready());
        assert!(f.try_take().is_none());
        s.set(99);
        assert!(f.is_ready());
        assert_eq!(f.try_take(), Some(99));
        assert_eq!(f.try_take(), None);
    }

    #[test]
    fn ready_future() {
        let f = RtFuture::ready("hi");
        assert!(f.is_ready());
        assert_eq!(f.try_take(), Some("hi"));
    }

    #[test]
    #[should_panic(expected = "unreachable")]
    fn event_wait_over_dead_link_reports_failure() {
        // Rank 0 waits on an event whose signal rides a task sent over a
        // link that drops every attempt. `Event::wait` funnels through
        // wait_until, so the retransmit timeout must surface as a panic
        // carrying the `PeerUnreachable` report instead of a hang.
        use crate::spmd::spmd;
        use crate::RuntimeConfig;
        use rupcxx_net::{FaultPlan, LinkRule};
        let dead = LinkRule {
            drop_ppm: 1_000_000,
            ..Default::default()
        };
        let plan = FaultPlan::new(23).link(0, 1, dead).max_attempts(4);
        spmd(
            RuntimeConfig::new(2).segment_bytes(4096).with_faults(plan),
            |ctx| {
                if ctx.rank() == 0 {
                    let ev = Event::new();
                    ev.register();
                    let ev2 = ev.clone();
                    // This task can never arrive at rank 1.
                    ctx.send_task(1, move || ev2.signal());
                    ev.wait(ctx);
                }
            },
        );
    }

    #[test]
    fn concurrent_signal_and_on_fire_never_lose_thunks() {
        for _ in 0..200 {
            let e = Event::new();
            e.register();
            let hits = Arc::new(AtomicUsize::new(0));
            let e2 = e.clone();
            let h2 = hits.clone();
            let t1 = std::thread::spawn(move || e2.signal());
            let h3 = hits.clone();
            let t2 = std::thread::spawn(move || {
                e.on_fire(move || {
                    h3.fetch_add(1, Ordering::SeqCst);
                });
            });
            t1.join().unwrap();
            t2.join().unwrap();
            assert_eq!(h2.load(Ordering::SeqCst), 1);
        }
    }
}
