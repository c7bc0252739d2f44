//! The exploration corpus: the eight planted-bug patterns from
//! `tests/check_corpus.rs` rebuilt as closed [`Program`]s, plus one
//! genuinely *schedule-dependent* bug (`order_sensitive_event`) that the
//! canonical delivery order never exposes — only reordering does.
//!
//! Every entry is a factory (`fn() -> Program`) rather than a program:
//! each exploration run gets a fresh closure with fresh captured state
//! (events, atomics), so repeated runs and concurrently exploring tests
//! cannot bleed into each other through statics.

use crate::{ExploreConfig, Program};
use rupcxx_check::FindingKind;
use rupcxx_net::GlobalAddr;
use rupcxx_runtime::{Event, GlobalLock};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// One corpus pattern: how to run it and what the checker must report.
pub struct CorpusEntry {
    /// Stable name; also the stem of the committed `.sched` regression
    /// file.
    pub name: &'static str,
    /// SPMD ranks the pattern needs.
    pub ranks: usize,
    /// Run with aggregation on, for the batched-put pattern.
    pub agg: bool,
    /// The finding kind exploration must surface.
    pub expect: FindingKind,
    /// False when the bug manifests on the canonical baseline schedule
    /// already (the PR-4 corpus is deliberately schedule-independent);
    /// true when only a reordered schedule exposes it.
    pub schedule_dependent: bool,
    /// Build a fresh program instance.
    pub make: fn() -> Program,
}

/// The full corpus, schedule-independent PR-4 patterns first.
pub const ENTRIES: &[CorpusEntry] = &[
    CorpusEntry {
        name: "race_put_vs_read",
        ranks: 2,
        agg: false,
        expect: FindingKind::DataRace,
        schedule_dependent: false,
        make: race_put_vs_read,
    },
    CorpusEntry {
        name: "race_write_write",
        ranks: 2,
        agg: false,
        expect: FindingKind::DataRace,
        schedule_dependent: false,
        make: race_write_write,
    },
    CorpusEntry {
        name: "race_agg_put",
        ranks: 2,
        agg: true,
        expect: FindingKind::DataRace,
        schedule_dependent: false,
        make: race_agg_put,
    },
    CorpusEntry {
        name: "lock_across_barrier",
        ranks: 2,
        agg: false,
        expect: FindingKind::LockAcrossBarrier,
        schedule_dependent: false,
        make: lock_across_barrier,
    },
    CorpusEntry {
        name: "deadlock_abba",
        ranks: 2,
        agg: false,
        expect: FindingKind::LockCycle,
        schedule_dependent: false,
        make: deadlock_abba,
    },
    CorpusEntry {
        name: "deadlock_self_reacquire",
        ranks: 1,
        agg: false,
        expect: FindingKind::LockCycle,
        schedule_dependent: false,
        make: deadlock_self_reacquire,
    },
    CorpusEntry {
        name: "event_never_signaled",
        ranks: 1,
        agg: false,
        expect: FindingKind::EventNeverSignaled,
        schedule_dependent: false,
        make: event_never_signaled,
    },
    CorpusEntry {
        name: "barrier_mismatch",
        ranks: 2,
        agg: false,
        expect: FindingKind::BarrierMismatch,
        schedule_dependent: false,
        make: barrier_mismatch,
    },
    CorpusEntry {
        name: "order_sensitive_event",
        ranks: 3,
        agg: false,
        expect: FindingKind::EventNeverSignaled,
        schedule_dependent: true,
        make: order_sensitive_event,
    },
];

/// Look up an entry by name.
pub fn find(name: &str) -> &'static CorpusEntry {
    ENTRIES
        .iter()
        .find(|e| e.name == name)
        .unwrap_or_else(|| panic!("no corpus entry named {name:?}"))
}

/// The exploration config an entry needs (ranks, aggregation).
pub fn config_for(entry: &CorpusEntry) -> ExploreConfig {
    let mut cfg = ExploreConfig::new(entry.ranks);
    cfg.agg = entry.agg;
    cfg
}

// ---- the PR-4 patterns, as closed programs ------------------------------

/// A remote put racing an unsynchronized read of the same word.
fn race_put_vs_read() -> Program {
    Box::new(|ctx| {
        if ctx.rank() == 0 {
            ctx.fabric().put_u64(0, GlobalAddr::new(1, 256), 42);
            0
        } else {
            ctx.fabric().get_u64(1, GlobalAddr::new(1, 256))
        }
    })
}

/// Two ranks writing the same remote word with no ordering.
fn race_write_write() -> Program {
    Box::new(|ctx| {
        ctx.fabric()
            .put_u64(ctx.rank(), GlobalAddr::new(0, 128), ctx.rank() as u64);
        0
    })
}

/// A batched put applied at the barrier's flush, racing a pre-barrier
/// read at the target.
fn race_agg_put() -> Program {
    Box::new(|ctx| {
        let r = if ctx.rank() == 0 {
            ctx.fabric()
                .put_buffered(0, GlobalAddr::new(1, 512), &7u64.to_le_bytes());
            0
        } else {
            ctx.fabric().get_u64(1, GlobalAddr::new(1, 512))
        };
        ctx.barrier();
        r
    })
}

/// A `GlobalLock` held across `barrier()` (flagged, not aborted).
fn lock_across_barrier() -> Program {
    Box::new(|ctx| {
        let lock = if ctx.rank() == 0 {
            let l = GlobalLock::new(ctx, 0);
            ctx.broadcast(0, [l.addr().rank() as u64, l.addr().offset() as u64]);
            l
        } else {
            let a = ctx.broadcast(0, [0u64, 0u64]);
            GlobalLock::from_addr(GlobalAddr::new(a[0] as usize, a[1] as usize))
        };
        if ctx.rank() == 0 {
            lock.acquire(ctx);
        }
        ctx.barrier();
        if ctx.rank() == 0 {
            lock.release(ctx);
        }
        ctx.barrier();
        if ctx.rank() == 0 {
            lock.destroy(ctx);
        }
        0
    })
}

/// The classic ABBA two-lock cycle across two ranks (aborts).
fn deadlock_abba() -> Program {
    Box::new(|ctx| {
        let (la, lb) = if ctx.rank() == 0 {
            let a = GlobalLock::new(ctx, 0);
            let b = GlobalLock::new(ctx, 1);
            ctx.broadcast(
                0,
                [
                    a.addr().rank() as u64,
                    a.addr().offset() as u64,
                    b.addr().rank() as u64,
                    b.addr().offset() as u64,
                ],
            );
            (a, b)
        } else {
            let v = ctx.broadcast(0, [0u64; 4]);
            (
                GlobalLock::from_addr(GlobalAddr::new(v[0] as usize, v[1] as usize)),
                GlobalLock::from_addr(GlobalAddr::new(v[2] as usize, v[3] as usize)),
            )
        };
        if ctx.rank() == 0 {
            la.acquire(ctx);
        } else {
            lb.acquire(ctx);
        }
        ctx.barrier();
        if ctx.rank() == 0 {
            lb.acquire(ctx); // never returns
        } else {
            la.acquire(ctx); // never returns
        }
        0
    })
}

/// A rank re-acquiring the non-reentrant lock it holds (aborts).
fn deadlock_self_reacquire() -> Program {
    Box::new(|ctx| {
        let lock = GlobalLock::new(ctx, 0);
        lock.acquire(ctx);
        lock.acquire(ctx); // never returns
        0
    })
}

/// Waiting on an event nobody will ever signal (aborts).
fn event_never_signaled() -> Program {
    let ev = Event::new();
    ev.register();
    Box::new(move |ctx| {
        ev.wait(ctx); // no signal is ever sent
        0
    })
}

/// Mismatched barrier arrival: rank 1 returns without arriving (aborts).
fn barrier_mismatch() -> Program {
    Box::new(|ctx| {
        if ctx.rank() == 0 {
            ctx.barrier(); // rank 1 never arrives
        }
        0
    })
}

// ---- the schedule-dependent showcase ------------------------------------

/// The lost-signal race the canonical order can never expose. Ranks 1
/// and 2 both race a task to rank 0; whichever lands first claims
/// `first`, but only rank 1's task signals the event rank 0 waits on.
/// Rank 2's send is delayed past rank 1's, so every run under the
/// canonical (and every merely-stalled) schedule is clean — rank 1 wins,
/// signals, everyone terminates. Only a schedule that delivers rank 2's
/// task first strands rank 0 on the event: the checker's
/// `EventNeverSignaled` pass then aborts the job. Exploration finds the
/// exposing order by swapping the two concurrent same-destination
/// deliveries; ddmin shrinks it to the picks that force the inversion.
fn order_sensitive_event() -> Program {
    let ev = Event::new();
    ev.register();
    let first = Arc::new(AtomicUsize::new(0));
    Box::new(move |ctx| {
        if ctx.rank() == 0 {
            ctx.barrier();
            ev.wait(ctx);
            1
        } else {
            ctx.barrier();
            if ctx.rank() == 2 {
                // Keep the baseline deterministic: rank 1's task is
                // always the first arrival unless a schedule reorders it.
                std::thread::sleep(Duration::from_millis(10));
            }
            let me = ctx.rank();
            let first = first.clone();
            let ev = ev.clone();
            ctx.send_task(0, move || {
                if first.compare_exchange(0, me, Ordering::AcqRel, Ordering::Acquire) == Ok(0)
                    && me == 1
                {
                    ev.signal();
                }
            });
            0
        }
    })
}
