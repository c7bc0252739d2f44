//! The seeded racy corpus: programs with deliberately planted PGAS bugs
//! that `rupcxx-check` must flag deterministically — every pattern is
//! constructed so the finding does not depend on thread scheduling (both
//! conflicting accesses always reach the shadow, or the stuck state is
//! reached on every run). Patterns 1–8 are the exploration corpus's
//! programs (`rupcxx_explore::corpus`), run here under plain `spmd`; the
//! clean twins live in `check_clean.rs`.

use rupcxx::prelude::*;
use rupcxx_check::{new_sink, CheckConfig, FindingKind, FindingSink};
use rupcxx_explore::corpus;
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
fn expect_abort<R: Send>(
    n: usize,
    sink: FindingSink,
    body: impl Fn(&Ctx) -> R + Send + Sync,
) -> String {
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

/// Run the exploration corpus's planted bug `name` to completion under
/// plain `spmd` with checker `check` (aggregation on where the entry asks
/// for it); returns its findings.
fn planted(name: &str, check: CheckConfig) -> FindingSink {
    let entry = corpus::find(name);
    let sink = new_sink();
    let config = cfg(entry.ranks, check.with_sink(sink.clone()));
    let config = if entry.agg {
        config.with_agg(AggConfig::new())
    } else {
        config
    };
    spmd(config, (entry.make)());
    sink
}

/// Run planted bug `name` with every pass on, expecting the deadlock pass
/// to abort it; returns the panic text and the findings.
fn planted_deadlock(name: &str) -> (String, FindingSink) {
    let entry = corpus::find(name);
    let sink = new_sink();
    (
        expect_abort(entry.ranks, sink.clone(), (entry.make)()),
        sink,
    )
}

// ---- data races ---------------------------------------------------------

/// Pattern 1: a remote put racing an unsynchronized local read of the
/// same word (the canonical PGAS bug: consuming data before the barrier).
#[test]
fn race_put_vs_unsynchronized_read() {
    let sink = planted("race_put_vs_read", CheckConfig::race());
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
    let sink = planted("race_write_write", CheckConfig::race());
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
    let sink = planted("race_agg_put", CheckConfig::race());
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
    let sink = planted("lock_across_barrier", CheckConfig::all());
    assert!(
        kinds(&sink).contains(&FindingKind::LockAcrossBarrier),
        "expected lock-across-barrier, got:\n{}",
        messages(&sink)
    );
}

/// Pattern 5: the classic ABBA two-lock cycle across two ranks.
#[test]
fn deadlock_two_lock_cycle_aborts() {
    let (msg, sink) = planted_deadlock("deadlock_abba");
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
    let (msg, sink) = planted_deadlock("deadlock_self_reacquire");
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
    let (msg, sink) = planted_deadlock("event_never_signaled");
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
    let (msg, sink) = planted_deadlock("barrier_mismatch");
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
