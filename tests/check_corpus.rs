//! The seeded racy corpus: programs with deliberately planted PGAS bugs
//! that `rupcxx-check` must flag deterministically — every pattern is
//! constructed so the finding does not depend on thread scheduling (both
//! conflicting accesses always reach the shadow, or the stuck state is
//! reached on every run). The clean twins live in `check_clean.rs`.

use rupcxx::prelude::*;
use rupcxx_check::{new_sink, CheckConfig, FindingKind, FindingSink};
use rupcxx_mpi::MpiWorld;
use rupcxx_net::AggConfig;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::Duration;

fn cfg(n: usize, check: CheckConfig) -> RuntimeConfig {
    RuntimeConfig::new(n)
        .segment_bytes(1 << 16)
        .with_check(check)
}

fn kinds(sink: &FindingSink) -> Vec<FindingKind> {
    sink.lock().iter().map(|f| f.kind).collect()
}

fn messages(sink: &FindingSink) -> String {
    sink.lock()
        .iter()
        .map(|f| f.to_string())
        .collect::<Vec<_>>()
        .join("\n")
}

/// Run a job expected to be aborted by the deadlock pass; returns the
/// panic text.
fn expect_abort(n: usize, sink: FindingSink, body: impl Fn(&Ctx) + Send + Sync) -> String {
    let err = catch_unwind(AssertUnwindSafe(|| {
        spmd(cfg(n, CheckConfig::all().with_sink(sink)), body);
    }))
    .expect_err("the checker should have aborted this job");
    err.downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

/// [`expect_abort`] under a watchdog: the job runs on a thread of its own
/// and has 30 s to be aborted, so a deadlock the scan cannot see fails the
/// test instead of hanging the suite.
fn expect_abort_in_time(
    n: usize,
    sink: FindingSink,
    body: impl Fn(&Ctx) + Send + Sync + 'static,
) -> String {
    let (done, aborted) = mpsc::channel();
    std::thread::spawn(move || done.send(expect_abort(n, sink, body)));
    aborted
        .recv_timeout(Duration::from_secs(30))
        .expect("the job is still hung: the deadlock scan does not see a blocked rank")
}

// ---- data races ---------------------------------------------------------

/// Pattern 1: a remote put racing an unsynchronized local read of the
/// same word (the canonical PGAS bug: consuming data before the barrier).
#[test]
fn race_put_vs_unsynchronized_read() {
    let sink = new_sink();
    spmd(cfg(2, CheckConfig::race().with_sink(sink.clone())), |ctx| {
        if ctx.rank() == 0 {
            ctx.fabric().put_u64(0, GlobalAddr::new(1, 256), 42);
        } else {
            let _ = ctx.fabric().get_u64(1, GlobalAddr::new(1, 256));
        }
    });
    assert!(
        kinds(&sink).contains(&FindingKind::DataRace),
        "expected a data race, got:\n{}",
        messages(&sink)
    );
    let msgs = messages(&sink);
    assert!(msgs.contains("put") && msgs.contains("get"), "{msgs}");
}

/// Pattern 2: two ranks writing the same remote word with no ordering.
#[test]
fn race_write_write_same_word() {
    let sink = new_sink();
    spmd(cfg(2, CheckConfig::race().with_sink(sink.clone())), |ctx| {
        ctx.fabric()
            .put_u64(ctx.rank(), GlobalAddr::new(0, 128), ctx.rank() as u64);
    });
    assert!(
        kinds(&sink).contains(&FindingKind::DataRace),
        "expected a write-write race, got:\n{}",
        messages(&sink)
    );
}

/// Pattern 3: an aggregated (batched) put applied at the target races a
/// read the target performed before the flush was ordered — the frame is
/// recorded with the *sender's flush-time clock*, so batching cannot hide
/// the race.
#[test]
fn race_aggregated_put_vs_unfenced_read() {
    let sink = new_sink();
    spmd(
        cfg(2, CheckConfig::race().with_sink(sink.clone())).with_agg(AggConfig::new()),
        |ctx| {
            if ctx.rank() == 0 {
                // Stays buffered until the barrier's flush.
                ctx.fabric()
                    .put_buffered(0, GlobalAddr::new(1, 512), &7u64.to_le_bytes());
            } else {
                let _ = ctx.fabric().get_u64(1, GlobalAddr::new(1, 512));
            }
            // The barrier flushes and delivers the batch; the pre-barrier
            // read has no happens-before edge to it.
            ctx.barrier();
        },
    );
    let msgs = messages(&sink);
    assert!(
        kinds(&sink).contains(&FindingKind::DataRace),
        "expected an agg-apply race, got:\n{msgs}"
    );
    assert!(msgs.contains("agg-put"), "{msgs}");
}

/// Pattern 3b: a bulk `copy` into a range another rank `rput`s to with no
/// synchronization. `copy` moves the bytes segment to segment, but to the
/// checker it is still one get of the source plus one put to the
/// destination: the findings are, message for message, those of the same
/// program staging the copy by hand through a buffer.
#[test]
fn race_copy_vs_unsynchronized_rput_is_flagged_like_the_staged_copy() {
    const WORDS: usize = 8;
    let src = GlobalPtr::<u64>::from_addr(GlobalAddr::new(0, 1024));
    let dst = GlobalPtr::<u64>::from_addr(GlobalAddr::new(1, 2048));
    let findings = |staged: bool| {
        let sink = new_sink();
        spmd(
            cfg(2, CheckConfig::race().with_sink(sink.clone())),
            move |ctx| {
                if ctx.rank() == 1 {
                    dst.offset(2).rput(ctx, 7);
                } else if staged {
                    let mut buf = [0u8; WORDS * 8];
                    ctx.fabric().get(0, src.addr(), &mut buf);
                    ctx.fabric().put(0, dst.addr(), &buf);
                } else {
                    copy(ctx, src, dst, WORDS);
                }
            },
        );
        assert!(
            kinds(&sink).contains(&FindingKind::DataRace),
            "expected a copy-vs-rput race (staged: {staged}), got:\n{}",
            messages(&sink)
        );
        let mut found: Vec<String> = sink.lock().iter().map(|f| f.to_string()).collect();
        found.sort();
        found
    };
    let direct = findings(false);
    assert_eq!(direct, findings(true));
    let msgs = direct.join("\n");
    assert!(
        msgs.contains("[0x810..0x818)")
            && msgs.contains("write `put` by rank 0")
            && msgs.contains("write `put` by rank 1"),
        "{msgs}"
    );
}

// ---- lock misuse --------------------------------------------------------

/// Pattern 4: holding a `GlobalLock` across `barrier()` — legal-looking
/// code that deadlocks as soon as a peer acquires inside the episode.
#[test]
fn lock_held_across_barrier_is_flagged() {
    let sink = new_sink();
    spmd(cfg(2, CheckConfig::all().with_sink(sink.clone())), |ctx| {
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
    });
    assert!(
        kinds(&sink).contains(&FindingKind::LockAcrossBarrier),
        "expected lock-across-barrier, got:\n{}",
        messages(&sink)
    );
}

/// Pattern 5: the classic ABBA two-lock cycle across two ranks.
#[test]
fn deadlock_two_lock_cycle_aborts() {
    let sink = new_sink();
    let msg = expect_abort(2, sink.clone(), |ctx| {
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
        // Rank 0 holds A and wants B; rank 1 holds B and wants A.
        if ctx.rank() == 0 {
            la.acquire(ctx);
        } else {
            lb.acquire(ctx);
        }
        ctx.barrier();
        if ctx.rank() == 0 {
            lb.acquire(ctx);
        } else {
            la.acquire(ctx);
        }
    });
    assert!(msg.contains("rupcxx-check"), "panic was: {msg}");
    assert!(
        kinds(&sink).contains(&FindingKind::LockCycle),
        "expected a lock cycle, got:\n{}",
        messages(&sink)
    );
    assert!(
        messages(&sink).contains("lock cycle"),
        "{}",
        messages(&sink)
    );
}

/// Pattern 6: a rank re-acquiring the (non-reentrant) lock it holds.
#[test]
fn deadlock_self_reacquire_aborts() {
    let sink = new_sink();
    let msg = expect_abort(1, sink.clone(), |ctx| {
        let lock = GlobalLock::new(ctx, 0);
        lock.acquire(ctx);
        lock.acquire(ctx); // never returns
    });
    assert!(msg.contains("rupcxx-check"), "panic was: {msg}");
    assert!(
        messages(&sink).contains("self-deadlock"),
        "expected a self-deadlock, got:\n{}",
        messages(&sink)
    );
}

// ---- lost signals and mismatched collectives ----------------------------

/// Pattern 7: waiting on an event nobody will ever signal.
#[test]
fn deadlock_event_never_signaled_aborts() {
    let sink = new_sink();
    let msg = expect_abort(1, sink.clone(), |ctx| {
        let ev = Event::new();
        ev.register();
        ev.wait(ctx); // no signal is ever sent
    });
    assert!(msg.contains("rupcxx-check"), "panic was: {msg}");
    assert!(
        kinds(&sink).contains(&FindingKind::EventNeverSignaled),
        "expected event-never-signaled, got:\n{}",
        messages(&sink)
    );
}

/// Pattern 8: mismatched barrier arrival — one rank calls `barrier()`,
/// its peer returns without ever arriving.
#[test]
fn deadlock_mismatched_barrier_aborts() {
    let sink = new_sink();
    let msg = expect_abort(2, sink.clone(), |ctx| {
        if ctx.rank() == 0 {
            ctx.barrier(); // rank 1 never arrives
        }
    });
    assert!(msg.contains("rupcxx-check"), "panic was: {msg}");
    assert!(
        kinds(&sink).contains(&FindingKind::BarrierMismatch),
        "expected a barrier mismatch, got:\n{}",
        messages(&sink)
    );
}

/// Pattern 9: a mismatched collective — rank 0 waits at the root of a
/// `reduce` its peer never joins. Every blocked rank is in the scan's wait
/// table, whatever it blocks in; a wait with no pattern of its own is the
/// generic deadlock, its table naming the construct.
#[test]
fn deadlock_mismatched_collective_aborts() {
    let sink = new_sink();
    let msg = expect_abort_in_time(2, sink.clone(), |ctx| {
        if ctx.rank() == 0 {
            let _ = ctx.reduce(0, 1u64, |a, b| a + b); // rank 1 never contributes
        }
    });
    assert!(msg.contains("rupcxx-check"), "panic was: {msg}");
    assert!(
        kinds(&sink).contains(&FindingKind::Deadlock),
        "expected a deadlock, got:\n{}",
        messages(&sink)
    );
    assert!(
        messages(&sink).contains("rank 0: collective (domain 0, key "),
        "{}",
        messages(&sink)
    );
}

/// Pattern 10: a two-sided receive nobody sends to (the MPI baseline
/// blocks through the same `wait_on`).
#[test]
fn deadlock_unmatched_mpi_recv_aborts() {
    let sink = new_sink();
    let world = MpiWorld::new(2);
    let msg = expect_abort_in_time(2, sink.clone(), move |ctx| {
        if ctx.rank() == 0 {
            let _ = world.comm(ctx).recv(1, 7); // rank 1 never sends
        }
    });
    assert!(msg.contains("rupcxx-check"), "panic was: {msg}");
    assert!(
        kinds(&sink).contains(&FindingKind::Deadlock),
        "expected a deadlock, got:\n{}",
        messages(&sink)
    );
    assert!(
        messages(&sink).contains("rank 0: two-sided request"),
        "{}",
        messages(&sink)
    );
}

// ---- determinism --------------------------------------------------------

/// The same racy program produces the identical finding set on repeated
/// runs — reports are keyed on global addresses and rank ids, never on
/// host pointers or arrival order.
#[test]
fn findings_are_deterministic_across_runs() {
    let run = || {
        let sink = new_sink();
        spmd(cfg(2, CheckConfig::race().with_sink(sink.clone())), |ctx| {
            ctx.fabric()
                .put_u64(ctx.rank(), GlobalAddr::new(0, 128), ctx.rank() as u64);
        });
        messages(&sink)
    };
    let first = run();
    for _ in 0..4 {
        assert_eq!(run(), first);
    }
}
