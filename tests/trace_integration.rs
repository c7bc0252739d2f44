//! Integration tests for the `rupcxx-trace` event stream: a multi-rank
//! GUPS-style workload recorded end to end under every combination of
//! layers that reports to the recorder, checking that the one stream
//! agrees with `CommStats` kind by kind, that receipts join the sends
//! they came from, that waits add up to the wait-state histograms, that
//! the Chrome-trace view is written at job teardown, and that a job with
//! both configs off records — and allocates — nothing.

use rupcxx_mpi::MpiWorld;
use rupcxx_net::{
    AggConfig, CacheConfig, CommCounts, Endpoint, Fabric, FaultPlan, GlobalAddr, ProfConfig,
};
use rupcxx_runtime::{spmd, Ctx, RuntimeConfig};
use rupcxx_trace::waitstate::{unpack_wait, CONSTRUCTS};
use rupcxx_trace::{Event, EventKind, TraceConfig, WaitConstruct};
use rupcxx_util::sync::Mutex;
use rupcxx_util::GupsRng;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const RANKS: usize = 4;
const UPDATES: usize = 500;
/// Buffered adds rank 0 packs at rank 1 in the throttled row, 241 to a
/// batch: three times the 40 slabs of a four-rank window.
const THROTTLED_ADDS: usize = 3 * 40 * 241;

fn tmp_path(tag: &str) -> String {
    std::env::temp_dir()
        .join(format!("rupcxx_trace_it_{tag}_{}.json", std::process::id()))
        .to_str()
        .unwrap()
        .to_string()
}

/// Run an SPMD job and capture its fabric, so streams and counters can
/// be read after every rank has drained to quiescence.
fn spmd_capturing(cfg: RuntimeConfig, body: impl Fn(&Ctx) + Send + Sync) -> Arc<Fabric> {
    let fabric: Mutex<Option<Arc<Fabric>>> = Mutex::new(None);
    spmd(cfg, |ctx| {
        if ctx.rank() == 0 {
            *fabric.lock() = Some(ctx.shared().fabric.clone());
        }
        body(ctx)
    });
    let fabric = fabric.lock().take();
    fabric.expect("rank 0 captured the fabric")
}

/// What a row runs on top of the common workload, so that the construct
/// only it blocks in is in the stream.
enum Extra {
    None,
    /// World and team collectives. A non-root's contribution to an
    /// allreduce goes out before the result can come back and nothing
    /// drives its progress in between, so its wait for the result blocks
    /// on every run.
    Collectives,
    /// Eager two-sided ping-pong in pairs: the even rank's receive of
    /// the reply blocks on every run, for the same reason.
    Mpi(Arc<MpiWorld>),
    /// Rank 0 packs windows of batches at rank 1 through the runtime's
    /// hook, once rank 1 says (the flag) that it has left the runtime;
    /// rank 1 makes no progress call until it has seen rank 0's window
    /// full, so rank 0's wait for a slab blocks on every run.
    Throttled(AtomicBool),
}

impl Extra {
    fn run(&self, ctx: &Ctx) {
        let me = ctx.rank();
        match self {
            Extra::None => {}
            Extra::Collectives => {
                let half = ctx.team_world().split(ctx, (me % 2) as u64, me as u64);
                for i in 0..8u64 {
                    assert_eq!(ctx.allreduce(me as u64 + i, u64::max), 3 + i);
                    assert_eq!(ctx.broadcast(i as usize % RANKS, i), i);
                    let _ = ctx.exchange(vec![vec![me as u8; 8]; RANKS]);
                    assert_eq!(half.allreduce(ctx, 1u64, |a, b| a + b), 2);
                    half.barrier(ctx);
                }
            }
            Extra::Throttled(receiver_left) => {
                if me == 0 {
                    // A rank 1 still on its way out of the last barrier
                    // would apply the batches as they arrive.
                    while !receiver_left.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                    for i in 0..THROTTLED_ADDS {
                        let word = GlobalAddr::new(1, 2048 + (i % 8) * 8);
                        ctx.agg_sent(ctx.fabric().add_u64_buffered(0, word, 1));
                    }
                } else if me == 1 {
                    receiver_left.store(true, Ordering::Release);
                    let began = std::time::Instant::now();
                    while !ctx.fabric().agg_window_full(0) {
                        assert!(began.elapsed().as_secs() < 20, "rank 0 was never throttled");
                        std::thread::yield_now();
                    }
                }
                ctx.agg_fence();
            }
            Extra::Mpi(world) => {
                let comm = world.comm(ctx);
                for tag in 0..8 {
                    if me.is_multiple_of(2) {
                        comm.send(me + 1, tag, &[me as u8; 64]);
                        assert_eq!(comm.recv(me + 1, tag).1, [me as u8 + 1; 64]);
                    } else {
                        assert_eq!(comm.recv(me - 1, tag).1, [me as u8 - 1; 64]);
                        comm.send(me - 1, tag, &[me as u8; 64]);
                    }
                }
            }
        }
    }

    /// The construct this row must have blocked in, and on which ranks.
    fn blocks_in(&self, rank: usize) -> Option<WaitConstruct> {
        match self {
            Extra::None => None,
            Extra::Collectives => (rank != 0).then_some(WaitConstruct::Collective),
            Extra::Mpi(_) => rank.is_multiple_of(2).then_some(WaitConstruct::Request),
            Extra::Throttled(_) => (rank == 0).then_some(WaitConstruct::AggWindow),
        }
    }

    /// Buffered ops the row adds to `rank`'s own.
    fn packs(&self, rank: usize) -> u64 {
        match self {
            Extra::Throttled(_) if rank == 0 => THROTTLED_ADDS as u64,
            _ => 0,
        }
    }
}

/// GUPS-style phase: random remote xor updates (buffered when the job
/// aggregates) plus verifying gets that re-read one line, always to
/// another rank so every op counts as remote. Raw segment addresses: the
/// modeled AM pair of `alloc_on` is counted without being sent.
fn workload(ctx: &Ctx, buffered: bool, extra: &Extra) {
    let me = ctx.rank();
    ctx.barrier();
    let mut rng = GupsRng::new();
    for _ in 0..UPDATES {
        let peer = (me + 1 + (rng.next_u64() as usize % (RANKS - 1))) % RANKS;
        let slot = GlobalAddr::new(peer, (rng.next_u64() % 64) as usize * 8);
        if buffered {
            ctx.fabric().xor_u64_buffered(me, slot, rng.next_u64());
        } else {
            ctx.fabric().xor_u64(me, slot, rng.next_u64());
        }
    }
    ctx.agg_fence();
    extra.run(ctx);
    for i in 0..UPDATES / 4 {
        let word = GlobalAddr::new((me + 1) % RANKS, 1024 + (i % 8) * 8);
        let _ = ctx.fabric().get_u64(me, word);
    }
    ctx.finish(|fs| fs.spawn((me + 1) % RANKS, |_| {}));
    ctx.barrier();
}

fn count(events: &[Event], kind: EventKind) -> u64 {
    events.iter().filter(|e| e.kind == kind).count() as u64
}

#[test]
fn gups_trace_events_match_comm_stats() {
    let chaos = FaultPlan::new(101)
        .drop(0.10)
        .dup(0.05)
        .reorder(0.10)
        .delay(0.05);
    let base = || RuntimeConfig::new(RANKS).segment_bytes(1 << 16);
    let prof = |tag| ProfConfig::on().with_path(tmp_path(&format!("{tag}_prof")));
    let table: [(&str, RuntimeConfig, Extra); 8] = [
        ("events", base(), Extra::None),
        ("prof", base().with_prof(prof("prof")), Extra::None),
        (
            "faults",
            base().with_prof(prof("faults")).with_faults(chaos),
            Extra::None,
        ),
        (
            "agg",
            base().with_prof(prof("agg")).with_agg(AggConfig::new()),
            Extra::None,
        ),
        (
            "throttled",
            base()
                .with_prof(prof("throttled"))
                .with_agg(AggConfig::new()),
            Extra::Throttled(AtomicBool::new(false)),
        ),
        ("cache", base().with_cache(CacheConfig::new()), Extra::None),
        (
            "collectives",
            base().with_prof(prof("collectives")),
            Extra::Collectives,
        ),
        ("mpi", base(), Extra::Mpi(MpiWorld::new(RANKS))),
    ];
    for (tag, cfg, extra) in table {
        let trace_path = tmp_path(tag);
        let (causal, buffered, faulty) = (cfg.prof.is_some(), cfg.agg.is_some(), tag == "faults");
        let fabric = spmd_capturing(
            cfg.with_trace(TraceConfig::events().with_path(&trace_path)),
            |ctx| workload(ctx, buffered, &extra),
        );
        let streams: Vec<Vec<Event>> = (0..RANKS)
            .map(|r| fabric.endpoint(r).trace.events())
            .collect();
        let mut received: Vec<&Event> = Vec::new();
        for (rank, events) in streams.iter().enumerate() {
            let trace = &fabric.endpoint(rank).trace;
            assert_eq!(trace.ring().unwrap().lost(), 0, "{tag}: ring too small");
            // The acceptance property: per-kind event counts equal the
            // CommStats counters for the same run.
            let c: CommCounts = fabric.endpoint(rank).stats.snapshot();
            for (kind, counter) in [
                (EventKind::Put, c.puts),
                (EventKind::Get, c.gets),
                (EventKind::AmSend, c.ams_sent),
                (EventKind::Retransmit, c.retransmits),
                (EventKind::WireDrop, c.wire_drops),
                (EventKind::AmDup, c.dup_arrivals),
                (EventKind::Flush, c.agg_batches),
                (EventKind::CacheFill, c.cache_misses),
                (EventKind::CacheHit, c.cache_hits),
            ] {
                assert_eq!(count(events, kind), counter, "{tag}: rank {rank}: {kind:?}");
            }
            // The workload shape itself, so equal-because-zero cannot pass.
            let updates = if buffered { c.agg_ops } else { c.puts };
            let expected = UPDATES as u64 + extra.packs(rank);
            assert_eq!(updates, expected, "{tag}: rank {rank} updates");
            assert_eq!(c.cache_hits + c.gets, (UPDATES / 4) as u64, "{tag}: gets");
            assert_eq!(tag == "cache", c.cache_hits > 0, "{tag}: rank {rank}");
            assert_eq!(buffered, c.agg_batches > 0, "{tag}: rank {rank}");
            // Summed `Wait` durations per construct equal `WaitStats`.
            let waits = trace.waits.snapshot();
            for &construct in &CONSTRUCTS {
                let summed: u64 = events
                    .iter()
                    .filter(|e| e.kind == EventKind::Wait)
                    .filter(|e| unpack_wait(e.a).map(|(c, _)| c) == Some(construct))
                    .map(|e| e.dur_ns)
                    .sum();
                assert_eq!(
                    summed,
                    waits.construct_ns(construct),
                    "{tag}: rank {rank}: {construct:?}"
                );
            }
            assert!(waits.total_ns() > 0, "{tag}: rank {rank} never waited");
            if let Some(construct) = extra.blocks_in(rank) {
                let blocked = waits.construct_ns(construct);
                assert!(blocked > 0, "{tag}: rank {rank}: no {construct:?} wait");
            }
            received.extend(events.iter().filter(|e| e.kind == EventKind::AmRecv));
        }
        if faulty {
            let total = fabric.total_counts();
            assert!(total.retransmits > 0 && total.dup_arrivals > 0, "{total:?}");
        }
        // Every receipt joins exactly one send, recorded on the origin.
        assert_eq!(causal, !received.is_empty(), "{tag}: spans ride iff prof");
        for recv in &received {
            let origin = (recv.span >> 48) as usize;
            assert_eq!(recv.peer, origin as i32, "{tag}: {recv:?}");
            let sends = streams[origin]
                .iter()
                .filter(|e| e.kind == EventKind::AmSend && e.span == recv.span);
            assert_eq!(sends.count(), 1, "{tag}: {recv:?}");
        }
        if causal {
            // … and, at quiescence, every send was received exactly once.
            let sent: u64 = streams.iter().map(|s| count(s, EventKind::AmSend)).sum();
            assert_eq!(received.len() as u64, sent, "{tag}");
            let mut ids: Vec<u64> = received.iter().map(|e| e.span).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), received.len(), "{tag}: a span joined twice");
        }

        // Teardown must have written a structurally valid Chrome trace.
        let json = std::fs::read_to_string(&trace_path).expect("trace file written at teardown");
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"am_send\""));
        assert!(json.contains("\"name\":\"barrier\""));
        assert!(json.contains("\"name\":\"finish_wait\""));
        if let Some(construct) = extra.blocks_in(RANKS - 2) {
            let name = format!("\"name\":\"{}\"", construct.name());
            assert!(json.contains(&name), "{tag}: no {name} in the trace");
        }
        assert!(json.contains("\"ph\":\"X\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        // One timeline row per rank.
        for r in 0..RANKS {
            assert!(
                json.contains(&format!("\"tid\":{r},")),
                "{tag}: missing rank {r} events"
            );
        }
        let _ = std::fs::remove_file(&trace_path);
        let _ = std::fs::remove_file(tmp_path(&format!("{tag}_prof")));
    }
}

#[test]
fn disabled_trace_records_no_events_or_metrics() {
    let obs = spmd(
        RuntimeConfig::new(2)
            .segment_bytes(1 << 16)
            .with_trace(TraceConfig::off()),
        |ctx| {
            let me = ctx.rank();
            ctx.fabric()
                .put_u64(me, GlobalAddr::new((me + 1) % 2, 0), 7);
            ctx.barrier();
            let trace = ctx.trace();
            let m = trace.metrics.snapshot();
            (
                trace.enabled() || trace.ring().is_some(),
                trace.events().len(),
                m.put_ns.count + m.get_ns.count + m.msg_bytes.count,
                m.advance_polls + trace.waits.snapshot().total_ns(),
            )
        },
    );
    for (enabled, events, hist_count, polls) in obs {
        assert!(!enabled, "both configs off: nothing on, no ring allocated");
        assert_eq!(events, 0);
        assert_eq!(hist_count, 0);
        assert_eq!(polls, 0);
    }
    // One recorder is no bigger than the two stores it replaced: the
    // endpoint was 20992 bytes with a trace ring, a profiler ring and the
    // shadow counters side by side.
    assert!(std::mem::size_of::<Endpoint>() <= 20992);
}

#[test]
fn metrics_mode_populates_histograms_without_ring() {
    let obs = spmd(
        RuntimeConfig::new(2)
            .segment_bytes(1 << 16)
            .with_trace(TraceConfig::metrics()),
        |ctx| {
            let me = ctx.rank();
            for i in 0..32u64 {
                ctx.fabric()
                    .put_u64(me, GlobalAddr::new((me + 1) % 2, (i % 8) as usize * 8), i);
            }
            ctx.barrier();
            let trace = ctx.trace();
            let m = trace.metrics.snapshot();
            let barriers: u64 = trace.waits.snapshot().hist[0].iter().map(|h| h.count).sum();
            (
                trace.ring().is_some(),
                m.put_ns.count,
                m.advance_polls,
                barriers,
            )
        },
    );
    for (ring, puts, polls, barriers) in obs {
        assert!(!ring, "metrics mode must not allocate a ring");
        assert_eq!(puts, 32);
        assert!(polls > 0, "advance() polls must be counted");
        assert_eq!(barriers, 1);
    }
}
