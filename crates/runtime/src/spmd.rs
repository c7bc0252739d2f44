//! The SPMD launcher.
//!
//! [`spmd`] runs one closure on every rank (each rank is an OS thread) and
//! returns the per-rank results in rank order. After a rank's closure
//! returns, the rank keeps serving incoming active messages until *all*
//! ranks have returned — without this drain phase, a fast rank could exit
//! while a slow rank still needs its barrier partner's progress engine.

use crate::config::RuntimeConfig;
use crate::ctx::Ctx;
use crate::shared::{HandlerRegistry, Shared};
use rupcxx_net::Fabric;
use rupcxx_trace::{critpath, RankStream, SummaryRow, TraceMode, WaitState};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// Launch an SPMD job: run `body` on `config.ranks` ranks, returning each
/// rank's result in rank order.
///
/// ```
/// use rupcxx_runtime::{spmd, RuntimeConfig};
/// let squares = spmd(RuntimeConfig::new(4).segment_bytes(4096), |ctx| {
///     ctx.rank() * ctx.rank()
/// });
/// assert_eq!(squares, vec![0, 1, 4, 9]);
/// ```
pub fn spmd<R, F>(config: RuntimeConfig, body: F) -> Vec<R>
where
    R: Send,
    F: Fn(&Ctx) -> R + Send + Sync,
{
    spmd_with_handlers(config, HandlerRegistry::new(), body)
}

/// Like [`spmd`], with a pre-registered active-message handler table
/// (shared identically by all ranks, as the paper assumes for function
/// entry points).
pub fn spmd_with_handlers<R, F>(config: RuntimeConfig, handlers: HandlerRegistry, body: F) -> Vec<R>
where
    R: Send,
    F: Fn(&Ctx) -> R + Send + Sync,
{
    assert!(config.ranks > 0, "spmd needs at least one rank");
    let shared = Shared::new_full(config.fabric_config(None), handlers);
    run_hosted(&config, shared, body)
}

/// Run `body` on every rank of `shared`'s job that this process hosts —
/// all of them, or the one rank of a multi-process job — a thread each,
/// and return their results in rank order; then export the job's views
/// and the checker's report for those ranks.
pub(crate) fn run_hosted<R, F>(config: &RuntimeConfig, shared: Arc<Shared>, body: F) -> Vec<R>
where
    R: Send,
    F: Fn(&Ctx) -> R + Send + Sync,
{
    let hosted = shared.fabric.hosted_ranks();
    let body = &body;
    let progress_stop = &AtomicBool::new(false);
    // Pin (checker, rank) in the calling thread's TLS, so hooks without a
    // ctx parameter (Event::signal) can reach the checker.
    let enter = |rank| {
        if let Some(ck) = shared.fabric.checker() {
            rupcxx_check::set_current(ck.clone(), rank);
        }
        Ctx::new(rank, shared.clone())
    };
    let enter = &enter;
    let results = std::thread::scope(|scope| {
        // Concurrent mode (paper §IV): one progress worker per rank keeps
        // serving incoming active messages even while the rank computes.
        if config.progress_thread {
            for rank in hosted.clone() {
                std::thread::Builder::new()
                    .name(format!("rupcxx-progress-{rank}"))
                    .spawn_scoped(scope, move || {
                        let ctx = enter(rank);
                        while !progress_stop.load(Ordering::Acquire) {
                            if ctx.serve() == 0 {
                                std::thread::yield_now();
                            }
                        }
                    })
                    .expect("failed to spawn progress thread");
            }
        }
        let spawn_rank = |rank| {
            std::thread::Builder::new()
                .name(format!("rupcxx-rank-{rank}"))
                .stack_size(8 << 20)
                .spawn_scoped(scope, move || {
                    let ctx = enter(rank);
                    let result = catch_unwind(AssertUnwindSafe(|| body(&ctx)));
                    // Threads of one process share the completion count:
                    // a rank must publish completion even on panic, or
                    // the survivors would drain forever. A panicking
                    // process rank skips the drain instead: its peers see
                    // the dead link as the conduit's Closed event, not a
                    // FIN.
                    if result.is_ok() || !ctx.fabric().is_remote() {
                        ctx.mark_complete();
                        ctx.drain_until_all_complete();
                    }
                    result.unwrap_or_else(|payload| resume_unwind(payload))
                })
                .expect("failed to spawn rank thread")
        };
        let handles: Vec<_> = hosted.clone().map(spawn_rank).collect();
        let joined: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
        progress_stop.store(true, Ordering::Release);
        joined
            .into_iter()
            .map(|r| r.unwrap_or_else(|payload| resume_unwind(payload)))
            .collect()
    });
    export_views(config, &shared);
    export_check(&shared);
    results
}

/// Jobs of this process that have written a view to each base path: a
/// later job writing to the same one gets a numeric suffix.
static VIEW_JOBS: Mutex<BTreeMap<String, u64>> = Mutex::new(BTreeMap::new());

/// Where this job's view based at `base` goes — one naming rule for
/// every view: numbered per base path, tagged `.r<rank>` when this
/// process hosts one rank of a multi-process job.
fn next_view_path(base: &str, fabric: &Fabric) -> String {
    let mut jobs = VIEW_JOBS.lock().expect("view-path table poisoned");
    let job = jobs.entry(base.to_string()).or_insert(0);
    let rank = fabric.is_remote().then(|| fabric.hosted_ranks().start);
    let path = rupcxx_trace::view_path(base, *job, rank);
    *job += 1;
    path
}

/// Job-teardown export of every view the job was configured for, over
/// the ranks this process hosts: the summary table (any `RUPCXX_TRACE`
/// mode), the Chrome `trace_event` JSON (`events`) and the critical-path
/// report (`RUPCXX_PROF`). All ranks have joined by now, so the rings and
/// histograms are quiescent.
fn export_views(config: &RuntimeConfig, shared: &Shared) {
    let fabric = &shared.fabric;
    let hosted = fabric.hosted_ranks();
    let trace_of = |r| &fabric.endpoint(r).trace;
    let ranks = hosted.len();
    if trace_of(hosted.start).ops_enabled() {
        let rows: Vec<SummaryRow> = hosted
            .clone()
            .map(|rank| {
                let c = fabric.endpoint(rank).stats.snapshot();
                let ring = trace_of(rank).ring();
                SummaryRow {
                    rank,
                    metrics: trace_of(rank).metrics.snapshot(),
                    retransmits: c.retransmits,
                    wire_drops: c.wire_drops,
                    dup_arrivals: c.dup_arrivals,
                    cache_hits: c.cache_hits,
                    cache_misses: c.cache_misses,
                    ring_pushed: ring.map_or(0, |r| r.pushed()),
                    ring_lost: ring.map_or(0, |r| r.lost()),
                }
            })
            .collect();
        println!("\n== rupcxx trace summary ({ranks} ranks) ==");
        print!("{}", rupcxx_trace::summary_table(&rows).render());
    }
    if trace_of(hosted.start).ring().is_none() {
        return;
    }
    let streams: Vec<RankStream> = hosted.clone().map(|r| trace_of(r).stream()).collect();
    if config.trace.mode == TraceMode::Events {
        let total: usize = streams.iter().map(|s| s.events.len()).sum();
        let rings = hosted.filter_map(|r| trace_of(r).ring());
        let (pushed, dropped) = rings.fold((0, 0), |(p, d), ring| {
            (p + ring.pushed(), d + ring.dropped())
        });
        let mut notes = String::new();
        if pushed > total as u64 + dropped {
            // The ring wrapped: older events were overwritten.
            let _ = write!(notes, ", newest of {pushed} (raise RUPCXX_TRACE_BUF)");
        }
        if dropped > 0 {
            let _ = write!(notes, ", {dropped} dropped");
        }
        let path = next_view_path(config.trace.path(), fabric);
        match std::fs::write(&path, rupcxx_trace::chrome_trace_json(&streams)) {
            Ok(()) => println!("[trace written {path}: {total} events{notes}]"),
            Err(e) => eprintln!("(could not write trace {path}: {e})"),
        }
    }
    let Some(prof_cfg) = &config.prof else { return };
    let report = critpath::analyze(&streams);
    println!("\n== rupcxx profiler ({ranks} ranks) ==");
    print!("{}", report.table().render());
    println!(
        "critical path: {:.3} ms over {} barrier interval(s), critical rank(s) {:?}",
        report.critical_path_ns as f64 / 1e6,
        report.intervals,
        report.critical_ranks
    );
    println!(
        "barrier attribution: {:.1}% of {:.3} ms barrier wall time carries a named wait state",
        report.attributed_fraction() * 100.0,
        report.barrier_total_ns as f64 / 1e6
    );
    let retx_ns: u64 = streams
        .iter()
        .map(|s| s.waits.state_ns(WaitState::RetransmitStall))
        .sum();
    if retx_ns > 0 {
        println!(
            "retransmit stalls: {:.3} ms of wait time spent waiting out packet loss",
            retx_ns as f64 / 1e6
        );
    }
    let path = next_view_path(prof_cfg.path(), fabric);
    match std::fs::write(&path, report.to_json()) {
        Ok(()) => println!("[profile written {path}]"),
        Err(e) => eprintln!("(could not write profile {path}: {e})"),
    }
}

/// Job-teardown checker export: write the report file (when configured)
/// and print a one-line summary when anything was found.
fn export_check(shared: &Shared) {
    if let Some(ck) = shared.fabric.checker() {
        let n = ck.export();
        if n > 0 {
            eprintln!("(rupcxx-check: {n} finding(s); see report above)");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn cfg(n: usize) -> RuntimeConfig {
        RuntimeConfig::new(n).segment_bytes(8192)
    }

    #[test]
    fn results_in_rank_order() {
        let out = spmd(cfg(8), |ctx| ctx.rank() * 2);
        assert_eq!(out, vec![0, 2, 4, 6, 8, 10, 12, 14]);
    }

    #[test]
    fn single_rank_job() {
        let out = spmd(cfg(1), |ctx| {
            assert_eq!(ctx.ranks(), 1);
            ctx.barrier();
            "done"
        });
        assert_eq!(out, vec!["done"]);
    }

    #[test]
    fn cross_rank_rma_visible_after_barrier() {
        use rupcxx_net::GlobalAddr;
        let out = spmd(cfg(4), |ctx| {
            // Every rank writes its id into rank 0's segment, offset 8*rank.
            ctx.fabric().put_u64(
                ctx.rank(),
                GlobalAddr::new(0, 8 * ctx.rank()),
                ctx.rank() as u64 + 100,
            );
            ctx.barrier();
            // Every rank reads all four slots back.
            (0..4)
                .map(|r| ctx.fabric().get_u64(ctx.rank(), GlobalAddr::new(0, 8 * r)))
                .collect::<Vec<_>>()
        });
        for v in out {
            assert_eq!(v, vec![100, 101, 102, 103]);
        }
    }

    #[test]
    fn post_closure_drain_serves_stragglers() {
        // Rank 0 returns immediately; rank 1 then asks rank 0 to run a task
        // (via finish), which only works if rank 0 keeps draining.
        let hits = Arc::new(AtomicUsize::new(0));
        let h = hits.clone();
        spmd(cfg(2), move |ctx| {
            if ctx.rank() == 1 {
                // Give rank 0 a head start to return from its closure.
                std::thread::sleep(std::time::Duration::from_millis(20));
                let h = h.clone();
                ctx.finish(|fs| {
                    fs.spawn(0, move |_| {
                        h.fetch_add(1, Ordering::SeqCst);
                    });
                });
            }
        });
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    #[should_panic(expected = "deliberate rank failure")]
    fn rank_panic_propagates_without_hanging() {
        spmd(cfg(3), |ctx| {
            ctx.barrier();
            if ctx.rank() == 1 {
                panic!("deliberate rank failure");
            }
        });
    }

    #[test]
    fn concurrent_mode_progresses_without_target_cooperation() {
        // Rank 1 spins on a plain flag without ever driving progress; the
        // flag is set by an incoming task. Deadlock in serialized mode —
        // the progress worker of concurrent mode makes it complete.
        let out = spmd(cfg(2).with_progress_thread(), |ctx| {
            let flag = Arc::new(AtomicUsize::new(0));
            if ctx.rank() == 0 {
                ctx.barrier();
                0
            } else {
                let f = flag.clone();
                // Ask rank 0 to send us a task that sets our local flag.
                let my_flag = flag.clone();
                ctx.send_task_with_ctx(0, move |c0| {
                    c0.send_task(1, move || {
                        my_flag.store(7, Ordering::SeqCst);
                    });
                });
                // Busy-wait WITHOUT advance(): only the progress thread
                // can execute the incoming task.
                while f.load(Ordering::SeqCst) == 0 {
                    std::hint::spin_loop();
                }
                ctx.barrier();
                f.load(Ordering::SeqCst)
            }
        });
        assert_eq!(out[1], 7);
    }

    #[test]
    fn concurrent_mode_runs_regular_workloads() {
        let out = spmd(cfg(4).with_progress_thread(), |ctx| {
            ctx.barrier();
            ctx.allreduce(ctx.rank() as u64, |a, b| a + b)
        });
        assert!(out.iter().all(|&v| v == 6));
    }

    /// Rank 0 queues a gate task and then tasks 0..=5 on rank 1; the gate
    /// holds rank 1's engine until all six are queued, so they are taken
    /// over as one batch. Task 2 sends rank 1 a *newer* task (9) and blocks
    /// in `wait_until` for it: the nested `advance` must run the rest of
    /// the batch (3, 4, 5) before the newer task, i.e. continue the one
    /// FIFO. Returns the order the tasks ran in on rank 1.
    fn order_seen_by_a_task_waiting_mid_batch(progress_thread: bool) -> Vec<u32> {
        use std::sync::atomic::AtomicBool;
        type Log = Arc<rupcxx_util::sync::Mutex<Vec<u32>>>;
        let log = Log::default();
        let queued = Arc::new(AtomicBool::new(false));
        let done = Arc::new(AtomicBool::new(false));
        let config = if progress_thread {
            cfg(2).with_progress_thread()
        } else {
            cfg(2)
        };
        let seen = log.clone();
        spmd(config, move |ctx| {
            if ctx.rank() == 0 {
                let gate = queued.clone();
                ctx.send_task(1, move || {
                    while !gate.load(Ordering::Acquire) {
                        std::hint::spin_loop();
                    }
                });
                for id in 0..=5u32 {
                    let (log, done) = (log.clone(), done.clone());
                    ctx.send_task_with_ctx(1, move |c1| {
                        log.lock().push(id);
                        if id == 2 {
                            let newer = Arc::new(AtomicBool::new(false));
                            let (log, ran) = (log.clone(), newer.clone());
                            c1.send_task(1, move || {
                                log.lock().push(9);
                                ran.store(true, Ordering::Release);
                            });
                            c1.wait_until(|| newer.load(Ordering::Acquire));
                            done.store(true, Ordering::Release);
                        }
                    });
                }
                queued.store(true, Ordering::Release);
            } else if progress_thread {
                // Leave the inbox to the progress thread alone: with two
                // consumers running tasks at once the log's order would
                // say nothing about the queue's.
                while !done.load(Ordering::Acquire) {
                    std::hint::spin_loop();
                }
            } else {
                ctx.wait_until(|| done.load(Ordering::Acquire));
            }
            ctx.barrier();
        });
        let seen = seen.lock().clone();
        seen
    }

    #[test]
    fn task_waiting_mid_batch_sees_the_rest_of_the_batch_first() {
        assert_eq!(
            order_seen_by_a_task_waiting_mid_batch(false),
            [0, 1, 2, 3, 4, 5, 9]
        );
    }

    #[test]
    fn task_waiting_mid_batch_on_the_progress_thread_sees_the_rest_first() {
        assert_eq!(
            order_seen_by_a_task_waiting_mid_batch(true),
            [0, 1, 2, 3, 4, 5, 9]
        );
    }

    #[test]
    fn oversubscription_many_ranks() {
        // Far more ranks than cores: progress engines must still make
        // the barrier complete.
        let out = spmd(cfg(32), |ctx| {
            ctx.barrier();
            ctx.allreduce(1u64, |a, b| a + b)
        });
        assert!(out.iter().all(|&v| v == 32));
    }
}
