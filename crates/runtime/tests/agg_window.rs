//! The aggregation window: in-flight batches are bounded and the bound
//! cannot deadlock. Every job here runs on a thread of its own under a
//! watchdog, so a rank stuck in the window fails its test instead of
//! hanging the suite.
//!
//! The buffered updates go through `Ctx::agg_sent`, exactly as
//! `GlobalPtr::radd_agg` makes them (this crate sits below the one that
//! defines `GlobalPtr`).

use rupcxx_net::{AggConfig, Fabric, FaultPlan, GlobalAddr};
use rupcxx_runtime::{spmd, spmd_with_handlers, Ctx, HandlerRegistry, RuntimeConfig};
use rupcxx_trace::TraceConfig;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Words of each rank's segment the updates land on.
const WORDS: usize = 64;
/// Word-update frames (17 bytes) to a batch: a full 4096-byte slab.
const BATCH: usize = 241;
/// Batches each sender pushes, in windows: far more than can be out.
const WINDOWS: usize = 64;

fn aggregating() -> RuntimeConfig {
    let mut rt = RuntimeConfig::new(2)
        .segment_bytes(1 << 16)
        .with_agg(AggConfig::new());
    // Pin the configuration regardless of the ambient RUPCXX_* env.
    rt.faults = None;
    rt.trace = TraceConfig::off();
    rt
}

fn lossy() -> FaultPlan {
    FaultPlan::new(7).drop(0.05).dup(0.05)
}

/// Run `job` on its own thread and give it a minute.
fn within_a_minute<T: Send + 'static>(job: impl FnOnce() -> T + Send + 'static) -> T {
    let (done, result) = mpsc::channel();
    std::thread::spawn(move || done.send(job()));
    match result.recv_timeout(Duration::from_secs(60)) {
        Ok(value) => value,
        Err(RecvTimeoutError::Timeout) => {
            panic!("still running after 60 s: a rank is stuck in the aggregation window")
        }
        Err(RecvTimeoutError::Disconnected) => panic!("the job panicked"),
    }
}

/// One buffered remote add through the runtime's hook.
fn add_agg(ctx: &Ctx, dst: GlobalAddr, value: u64) {
    ctx.agg_sent(ctx.fabric().add_u64_buffered(ctx.rank(), dst, value));
}

/// `count` adds of 1 spread over `peer`'s words; returns the most slabs
/// this rank saw out after any of its calls.
fn pack(ctx: &Ctx, peer: usize, count: usize) -> usize {
    let me = ctx.rank();
    let mut most_out = 0;
    for i in 0..count {
        add_agg(ctx, GlobalAddr::new(peer, (i % WORDS) * 8), 1);
        most_out = most_out.max(ctx.fabric().agg_slabs_out(me));
    }
    most_out
}

/// Sum of this rank's landing words: the adds applied here.
fn applied(ctx: &Ctx) -> u64 {
    let segment = &ctx.fabric().endpoint(ctx.rank()).segment;
    (0..WORDS).map(|w| segment.load_u64(w * 8)).sum()
}

/// (a) Both ranks pack `WINDOWS` windows of batches at each other at
/// once: neither ever has more than a window out, both finish, and every
/// update lands.
fn flood_both_ways(rt: RuntimeConfig) {
    let out = within_a_minute(move || {
        spmd(rt, move |ctx| {
            let me = ctx.rank();
            let window = ctx.fabric().agg_window(me).expect("aggregation is on");
            let updates = WINDOWS * window * BATCH;
            ctx.barrier();
            let most_out = pack(ctx, 1 - me, updates);
            ctx.agg_fence();
            (applied(ctx), updates as u64, most_out, window)
        })
    });
    for (rank, (applied, updates, most_out, window)) in out.into_iter().enumerate() {
        assert_eq!(applied, updates, "rank {rank}: updates lost or doubled");
        assert!(
            most_out <= window,
            "rank {rank} had {most_out} slabs out of a window of {window}"
        );
    }
}

#[test]
fn flood_both_ways_full_slabs() {
    flood_both_ways(aggregating());
}

#[test]
fn flood_both_ways_over_a_lossy_wire() {
    flood_both_ways(aggregating().with_faults(lossy()));
}

#[test]
fn flood_both_ways_with_progress_threads() {
    flood_both_ways(aggregating().with_progress_thread());
}

/// (b) Rank 0 packs `WINDOWS` windows of batches at a rank 1 that makes
/// no progress call until the sender's window is full and has stayed full
/// for 50 ms, while an observer thread samples the sender's slabs-out
/// count from outside the job: it is never above the window, and every
/// update is applied after `agg_fence`. Before the window existed the
/// count grew with the loop (1536 slabs here).
///
/// `fills`: whether rank 1 insists on seeing the window full first (which
/// is then also the proof that the bound was reached, not just respected)
/// — not when a progress thread applies rank 0's batches on its behalf.
fn late_receiver(rt: RuntimeConfig, fills: bool) {
    let (publish, published) = mpsc::channel::<Arc<Fabric>>();
    let finished = Arc::new(AtomicBool::new(false));
    let observer = {
        let finished = finished.clone();
        std::thread::spawn(move || {
            let fabric = published.recv().expect("rank 0 publishes the fabric");
            let mut most_out = 0;
            while !finished.load(Ordering::Acquire) {
                most_out = most_out.max(fabric.agg_slabs_out(0));
                std::thread::yield_now();
            }
            most_out
        })
    };
    let out = within_a_minute(move || {
        spmd(rt, move |ctx| {
            let me = ctx.rank();
            let window = ctx.fabric().agg_window(0).expect("aggregation is on");
            let updates = WINDOWS * window * BATCH;
            if me == 0 {
                publish
                    .send(ctx.shared().fabric.clone())
                    .expect("the observer is listening");
            }
            ctx.barrier();
            let most_out = if me == 0 {
                pack(ctx, 1, updates)
            } else {
                // No runtime call from here to the fence: reading the
                // sender's counters drives nothing.
                let began = Instant::now();
                while fills && !ctx.fabric().agg_window_full(0) {
                    // Seen 3 times in 310 runs with nothing in either
                    // inbox and rank 0 still in the barrier above (ROADMAP
                    // item 6): say where its signal could be.
                    assert!(
                        began.elapsed() < Duration::from_secs(20),
                        "the sender never filled its window: {} slabs out, inboxes hold \
                         (arrivals, run queue) {:?} and {:?}; rank 0: {}; rank 1: {}",
                        ctx.fabric().agg_slabs_out(0),
                        ctx.fabric().endpoint(0).pending_lanes(),
                        ctx.fabric().endpoint(1).pending_lanes(),
                        ctx.shared().own[0].collectives_debug(),
                        ctx.shared().own[1].collectives_debug()
                    );
                    std::thread::yield_now();
                }
                std::thread::sleep(Duration::from_millis(50));
                0
            };
            ctx.agg_fence();
            (applied(ctx), updates as u64, most_out, window)
        })
    });
    finished.store(true, Ordering::Release);
    let observed = observer.join().expect("observer thread");
    let (_, updates, most_out, window) = out[0];
    assert_eq!(out[1].0, updates, "updates lost or doubled");
    assert_eq!(out[0].0, 0, "nothing was sent to rank 0");
    assert!(
        most_out <= window && observed <= window,
        "window {window}: sender saw {most_out} slabs out, observer {observed}"
    );
}

#[test]
fn late_receiver_never_sees_more_than_a_window() {
    late_receiver(aggregating(), true);
}

#[test]
fn late_receiver_over_a_lossy_wire() {
    late_receiver(aggregating().with_faults(lossy()), true);
}

#[test]
fn late_receiver_with_progress_threads() {
    late_receiver(aggregating().with_progress_thread(), false);
}

/// (d) Handlers now run inside buffered calls, and a handler may make
/// buffered calls of its own: every ping is answered by a pong through
/// the layer, both ranks flooding at once. The pongs add up and the job
/// ends — a handler applying a peer's batch holds that peer's slab, so it
/// must never be made to wait for one of its own.
fn ping_pong(rt: RuntimeConfig) {
    let got: Arc<[[AtomicU64; 2]; 2]> = Arc::default();
    let mut handlers = HandlerRegistry::new();
    let seen = got.clone();
    let pong = handlers.register(move |ctx, _src, args| {
        let value = u64::from_le_bytes(args[..].try_into().expect("8 bytes"));
        seen[ctx.rank()][0].fetch_add(1, Ordering::Relaxed);
        seen[ctx.rank()][1].fetch_add(value, Ordering::Relaxed);
    });
    let ping = handlers.register(move |ctx, src, args| ctx.send_handler_agg(src, pong, &args));
    let pings = within_a_minute(move || {
        spmd_with_handlers(rt, handlers, move |ctx| {
            let me = ctx.rank();
            let window = ctx.fabric().agg_window(me).expect("aggregation is on");
            let pings = (WINDOWS * window * BATCH) as u64;
            ctx.barrier();
            for i in 0..pings {
                ctx.send_handler_agg(1 - me, ping, &i.to_le_bytes());
            }
            // Pongs still owed sit in the peer's partial buffer until it
            // flushes, as any wait but the window's does.
            ctx.wait_until(|| got[me][0].load(Ordering::Relaxed) == pings);
            ctx.barrier();
            (pings, got[me][1].load(Ordering::Relaxed))
        })
    });
    for (rank, (pings, sum)) in pings.into_iter().enumerate() {
        assert_eq!(
            sum,
            pings * (pings - 1) / 2,
            "rank {rank}: a pong's payload"
        );
    }
}

#[test]
fn handlers_that_reply_through_the_layer_terminate() {
    ping_pong(aggregating());
}

#[test]
fn handlers_that_reply_over_a_lossy_wire_terminate() {
    ping_pong(aggregating().with_faults(lossy()));
}

#[test]
fn handlers_that_reply_with_progress_threads_terminate() {
    ping_pong(aggregating().with_progress_thread());
}

/// (e) A progress thread serves the receive half and leaves the buffers
/// its rank is packing alone — but a pong packed by a handler has nobody
/// else to send it, whether the worker ran the handler or rank 1's own
/// thread did on its way out of the barrier: from there on that thread
/// makes no runtime call until rank 0 has the pong in hand.
#[test]
fn progress_thread_sends_what_its_own_handlers_buffered() {
    let got = Arc::new(AtomicBool::new(false));
    let mut handlers = HandlerRegistry::new();
    let seen = got.clone();
    let pong = handlers.register(move |_, _, _| seen.store(true, Ordering::Release));
    let ping = handlers.register(move |ctx, src, args| ctx.send_handler_agg(src, pong, &args));
    // One pong comes nowhere near filling a slab.
    let rt = aggregating().with_progress_thread();
    within_a_minute(move || {
        spmd_with_handlers(rt, handlers, move |ctx| {
            ctx.barrier();
            if ctx.rank() == 0 {
                ctx.send_handler_agg(1, ping, &[]);
                ctx.wait_until(|| got.load(Ordering::Acquire));
            } else {
                while !got.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
            }
            ctx.barrier();
        })
    });
}

/// (f) A fence is a fence while a progress worker holds a batch. Rank 0
/// sends rank 1 one batch — a handler frame that spins until released,
/// and an add behind it — and both ranks stay out of the runtime until
/// the handler is running, so it is rank 1's worker that popped the
/// batch: rank 1's inbox is empty and its links are quiet while the add
/// has not been applied. `agg_fence` must wait for the worker's pass all
/// the same (it used to return at once, the word still 0).
#[test]
fn fence_waits_for_a_batch_a_progress_worker_is_applying() {
    let started = Arc::new(AtomicBool::new(false));
    let release = Arc::new(AtomicBool::new(false));
    let mut handlers = HandlerRegistry::new();
    let (running, go) = (started.clone(), release.clone());
    let hold = handlers.register(move |_, _, _| {
        running.store(true, Ordering::Release);
        while !go.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
    });
    let rt = aggregating().with_progress_thread();
    let seen = within_a_minute(move || {
        spmd_with_handlers(rt, handlers, move |ctx| {
            let word = GlobalAddr::new(1, 0);
            ctx.barrier();
            if ctx.rank() == 0 {
                ctx.send_handler_agg(1, hold, &[]);
                add_agg(ctx, word, 1);
                ctx.agg_flush();
            }
            while !started.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            if ctx.rank() == 0 {
                let release = release.clone();
                std::thread::spawn(move || {
                    std::thread::sleep(Duration::from_millis(200));
                    release.store(true, Ordering::Release);
                });
            }
            ctx.agg_fence();
            ctx.fabric().endpoint(1).segment.load_u64(word.offset())
        })
    });
    assert_eq!(
        seen,
        [1, 1],
        "the fence returned before the add was applied"
    );
}
