//! `finish` acknowledgements under real threads: an ack never waits
//! behind a task that blocks, and however the passes fall — four ranks
//! flooding one, nested scopes, a lossy wire — every completion is counted
//! exactly once and in far fewer messages than tasks. Every job runs on a
//! thread of its own under a watchdog, so a scope that never closes fails
//! its test instead of hanging the suite.

use rupcxx_net::FaultPlan;
use rupcxx_runtime::{spmd, RuntimeConfig};
use rupcxx_trace::TraceConfig;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::Duration;

const RANKS: usize = 4;
/// Scopes each rank of the flood opens, one after the other.
const SCOPES: u64 = 64;
/// Spawns per scope.
const SPAWNS: u64 = 1024;

fn rt(ranks: usize) -> RuntimeConfig {
    let mut rt = RuntimeConfig::new(ranks).segment_bytes(1 << 16);
    // Pin the configuration regardless of the ambient RUPCXX_* env.
    rt.agg = None;
    rt.faults = None;
    rt.trace = TraceConfig::off();
    rt
}

/// Run `job` on its own thread and give it 30 s.
fn in_time<T: Send + 'static>(job: impl FnOnce() -> T + Send + 'static) -> T {
    let (done, result) = mpsc::channel();
    std::thread::spawn(move || done.send(job()));
    match result.recv_timeout(Duration::from_secs(30)) {
        Ok(value) => value,
        Err(RecvTimeoutError::Timeout) => {
            panic!("still running after 30 s: a finish scope is waiting for an ack that never left")
        }
        Err(RecvTimeoutError::Disconnected) => panic!("the job panicked"),
    }
}

/// Rank 0 queues, behind a gate that holds rank 1's engine until all of
/// it is there, eight tasks of a scope and then a task that waits for a
/// flag rank 0 sets only *after* its `finish` has returned. The eight
/// acknowledgements are owed by the very pass the waiting task blocks:
/// they must leave before it spins.
fn ack_is_not_stuck_behind_a_task_that_waits(rt: RuntimeConfig) {
    in_time(move || {
        let queued = Arc::new(AtomicBool::new(false));
        let closed = Arc::new(AtomicBool::new(false));
        let ran = Arc::new(AtomicU64::new(0));
        let hits = ran.clone();
        spmd(rt, move |ctx| {
            if ctx.rank() == 0 {
                let gate = queued.clone();
                ctx.send_task(1, move || {
                    while !gate.load(Ordering::Acquire) {
                        std::hint::spin_loop();
                    }
                });
                ctx.finish(|fs| {
                    for _ in 0..8 {
                        let hits = hits.clone();
                        fs.spawn(1, move |_| {
                            hits.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                    let closed = closed.clone();
                    ctx.send_task_with_ctx(1, move |c1| {
                        c1.wait_until(|| closed.load(Ordering::Acquire));
                    });
                    queued.store(true, Ordering::Release);
                });
                closed.store(true, Ordering::Release);
            }
            ctx.barrier();
        });
        assert_eq!(ran.load(Ordering::Relaxed), 8);
    });
}

#[test]
fn ack_leaves_before_a_later_task_of_the_pass_waits() {
    ack_is_not_stuck_behind_a_task_that_waits(rt(2));
}

#[test]
fn ack_leaves_before_a_later_task_waits_on_the_progress_thread() {
    ack_is_not_stuck_behind_a_task_that_waits(rt(2).with_progress_thread());
}

/// Every rank (rank 0 too: those are the self-spawns, which take no ack)
/// runs `SCOPES` scopes of `SPAWNS` tasks onto rank 0; the first task of
/// each scope opens a scope of its own back onto its origin, so rank 0
/// blocks in a nested `finish` in the middle of a pass, up to one level
/// per origin. Returns the job's `ams_sent` over the flood (and the two
/// barriers around it).
fn flood_rank_zero(rt: RuntimeConfig) -> u64 {
    let sent = in_time(move || {
        let landed: Arc<[AtomicU64; RANKS]> = Arc::default();
        let nested: Arc<[AtomicU64; RANKS]> = Arc::default();
        let (landed_seen, nested_seen) = (landed.clone(), nested.clone());
        let sent: Vec<u64> = spmd(rt, move |ctx| {
            let me = ctx.rank();
            let ams_sent = || ctx.fabric().endpoint(me).stats.snapshot().ams_sent;
            ctx.barrier();
            let before = ams_sent();
            for scope in 1..=SCOPES {
                ctx.finish(|fs| {
                    for i in 0..SPAWNS {
                        let (landed, nested) = (landed.clone(), nested.clone());
                        fs.spawn(0, move |c0| {
                            landed[me].fetch_add(1, Ordering::Relaxed);
                            if i == 0 {
                                c0.finish(|inner| {
                                    inner.spawn(me, move |_| {
                                        nested[me].fetch_add(1, Ordering::Relaxed);
                                    });
                                });
                            }
                        });
                    }
                });
                // A scope that has closed has seen all of its tasks run,
                // the nested one included.
                assert_eq!(
                    (
                        landed[me].load(Ordering::Relaxed),
                        nested[me].load(Ordering::Relaxed)
                    ),
                    (scope * SPAWNS, scope),
                    "rank {me}: a scope closed early"
                );
            }
            // Rank 0 owes acks until the last scope anywhere has closed:
            // count after the barrier (whose own few messages ride along).
            ctx.barrier();
            ams_sent() - before
        });
        for rank in 0..RANKS {
            assert_eq!(
                landed_seen[rank].load(Ordering::Relaxed),
                SCOPES * SPAWNS,
                "rank {rank}'s tasks"
            );
            assert_eq!(
                nested_seen[rank].load(Ordering::Relaxed),
                SCOPES,
                "rank {rank}'s nested tasks"
            );
        }
        sent
    });
    sent.iter().sum()
}

/// Tasks of one flood, the nested ones included.
const FLOOD_SPAWNS: u64 = RANKS as u64 * SCOPES * (SPAWNS + 1);

fn assert_coalesced(sent: u64) {
    // One message a spawn, plus the acks. A reply per task — what `finish`
    // did before — is 2 × the spawns less rank 0's own quarter.
    assert!(
        sent >= FLOOD_SPAWNS,
        "{sent} messages for {FLOOD_SPAWNS} spawns"
    );
    assert!(
        sent * 4 <= FLOOD_SPAWNS * 5,
        "{sent} messages for {FLOOD_SPAWNS} spawns: over 1.25 a spawn, acks are not coalescing"
    );
}

#[test]
fn four_ranks_flooding_one_count_every_completion_once() {
    assert_coalesced(flood_rank_zero(rt(RANKS)));
}

#[test]
fn four_ranks_flooding_one_over_a_lossy_wire() {
    let lossy = FaultPlan::new(7).drop(0.05).dup(0.05);
    assert_coalesced(flood_rank_zero(rt(RANKS).with_faults(lossy)));
}

#[test]
fn four_ranks_flooding_one_with_progress_threads() {
    // Two consumers pop rank 0's inbox and owe into one table; the
    // message bound is not asserted — a worker that keeps pace with the
    // flood ends its passes early and often.
    let sent = flood_rank_zero(rt(RANKS).with_progress_thread());
    assert!(sent >= FLOOD_SPAWNS);
}
