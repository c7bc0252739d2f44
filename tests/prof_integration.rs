//! Integration tests for the profile and flight-recorder views of the
//! event stream (`RUPCXX_PROF`): wait-state attribution on real paper
//! workloads, the offline critical-path analysis, the postmortem flight
//! recorder on a planted dead link, per-destination exact op accounting,
//! and the zero-cost guarantee that a profiled run moves exactly the
//! same wire traffic as an unprofiled one.

use rupcxx_apps::{gups, stencil};
use rupcxx_net::{
    AggConfig, CacheConfig, CommCounts, Fabric, FabricConfig, FaultPlan, GlobalAddr, LinkRule,
    ProfConfig,
};
use rupcxx_runtime::{spmd, Ctx, RuntimeConfig};
use rupcxx_trace::{critpath, flight, RankStream};
use rupcxx_util::sync::Mutex;
use std::sync::Arc;

/// A per-test profile output path (tests in one binary run concurrently).
fn prof_path(tag: &str) -> String {
    std::env::temp_dir()
        .join(format!(
            "rupcxx_prof_it_{}_{}.json",
            tag,
            std::process::id()
        ))
        .to_str()
        .unwrap()
        .to_string()
}

/// Run an SPMD job and capture its fabric, so profiler state can be read
/// after every rank has drained to quiescence.
fn spmd_capturing<R: Send>(
    cfg: RuntimeConfig,
    body: impl Fn(&Ctx) -> R + Send + Sync,
) -> (Vec<R>, Arc<Fabric>) {
    let fabric: Mutex<Option<Arc<Fabric>>> = Mutex::new(None);
    let out = spmd(cfg, |ctx| {
        if ctx.rank() == 0 {
            *fabric.lock() = Some(ctx.shared().fabric.clone());
        }
        body(ctx)
    });
    let fabric = fabric.lock().take().expect("rank 0 captured the fabric");
    (out, fabric)
}

/// Gather every rank's stream, as the teardown exporter does.
fn gather(fabric: &Fabric, ranks: usize) -> Vec<RankStream> {
    (0..ranks)
        .map(|r| fabric.endpoint(r).trace.stream())
        .collect()
}

fn run_gups(prof: Option<ProfConfig>) -> (Vec<gups::GupsResult>, Arc<Fabric>) {
    let mut cfg = RuntimeConfig::new(4).segment_mib(4);
    if let Some(p) = prof {
        cfg = cfg.with_prof(p);
    }
    spmd_capturing(cfg, |ctx| {
        gups::run(
            ctx,
            &gups::GupsConfig {
                table_size: 1 << 10,
                updates_per_rank: 2_000,
                variant: gups::Variant::Upcxx,
                verify: true,
            },
        )
    })
}

#[test]
fn profiled_stencil_attributes_barrier_wall_time() {
    // The acceptance criterion: on a 2-rank stencil, at least 90% of
    // barrier wall time must be attributed to a named wait state. The
    // barrier instrumentation wraps the whole episode, so attribution is
    // complete by construction — this test pins that down end to end.
    let path = prof_path("stencil");
    let (results, fabric) = spmd_capturing(
        RuntimeConfig::new(2)
            .segment_mib(4)
            .with_prof(ProfConfig::on().with_path(&path)),
        |ctx| {
            stencil::run(
                ctx,
                &stencil::StencilConfig {
                    local_edge: 8,
                    grid: (2, 1, 1),
                    iters: 4,
                    variant: stencil::Variant::Generic,
                    c: 0.5,
                },
            )
        },
    );
    assert!(
        (results[0].checksum - results[1].checksum).abs() < 1e-9,
        "profiling must not perturb the computation"
    );

    let report = critpath::analyze(&gather(&fabric, 2));
    assert!(report.intervals >= 1, "stencil barriers delimit intervals");
    assert_eq!(report.critical_ranks.len(), report.intervals);
    assert!(
        report.attributed_fraction() >= 0.9,
        "only {:.1}% of barrier wall time attributed",
        report.attributed_fraction() * 100.0
    );
    // Every rank blocked at least once (ghost exchange + barriers), so
    // the per-construct histograms are non-empty on both ranks.
    for r in &report.ranks {
        assert!(
            r.state_ns.iter().sum::<u64>() > 0,
            "rank {} recorded no attributed waits",
            r.rank
        );
    }
    let json = report.to_json();
    assert!(json.contains("\"barrier_attribution\""));
    assert!(json.contains("\"late_sender\""));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn profiled_gups_yields_nonempty_critical_path_and_writes_json() {
    let path = prof_path("gups");
    let (results, fabric) = run_gups(Some(ProfConfig::on().with_path(&path)));
    assert!(results.iter().all(|r| r.verified));

    let report = critpath::analyze(&gather(&fabric, 4));
    assert!(report.intervals >= 1, "GUPS phases are barrier-delimited");
    assert!(
        report.critical_path_ns > 0,
        "the update phase is real work, so the critical path is non-empty"
    );
    assert_eq!(report.ranks.len(), 4);

    // The teardown exporter wrote the machine-readable report.
    let on_disk = std::fs::read_to_string(&path).expect("profile JSON written at teardown");
    assert!(on_disk.contains("\"critical_path_ns\""));
    assert!(on_disk.contains("\"ranks\""));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn dead_link_dumps_flight_recorder_with_final_retransmits() {
    // A 0->1 link that drops every attempt: the barrier can never
    // complete, retransmission gives up after 4 attempts, and the
    // `PeerUnreachable` panic must be preceded by a flight-recorder dump
    // whose tail shows the doomed frame — rank 0's aggregation batch,
    // flushed by the barrier — and then its retransmit attempts.
    let _ = flight::take_dumps();
    let path = prof_path("flight");
    let dead = LinkRule {
        drop_ppm: 1_000_000,
        ..Default::default()
    };
    let plan = FaultPlan::new(43).link(0, 1, dead).max_attempts(4);
    let cfg = RuntimeConfig::new(2)
        .segment_bytes(4096)
        .with_faults(plan)
        .with_agg(AggConfig::new())
        .with_prof(ProfConfig::on().with_path(&path));
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        spmd(cfg, |ctx| {
            if ctx.rank() == 0 {
                for k in 0..3 {
                    let word = GlobalAddr::new(1, k * 8);
                    ctx.fabric().xor_u64_buffered(0, word, 0xfeed);
                }
            }
            ctx.barrier()
        });
    }));
    assert!(outcome.is_err(), "the dead link must surface as a panic");

    let dumps = flight::take_dumps();
    assert!(!dumps.is_empty(), "no flight-recorder dump was captured");
    let text = dumps.join("\n");
    assert!(
        text.contains("flight recorder"),
        "dump header missing:\n{text}"
    );
    assert!(
        text.contains("retransmit"),
        "dump must show the final retransmits:\n{text}"
    );
    assert!(
        text.contains("attempt="),
        "retransmit lines carry attempt numbers:\n{text}"
    );
    let flush = text.find("flush        peer=1 frames=3");
    assert!(
        flush.is_some_and(|at| at < text.rfind("attempt=").unwrap()),
        "the batch's flush must precede its final retransmits:\n{text}"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn profiler_off_and_on_move_identical_wire_traffic() {
    // Zero-cost contract, observable half: enabling the profiler changes
    // no communication — same results, same frame counts, bit for bit.
    let path = prof_path("invariance");
    let (off, off_fabric) = run_gups(None);
    let (on, on_fabric) = run_gups(Some(ProfConfig::on().with_path(&path)));
    for (a, b) in off.iter().zip(on.iter()) {
        assert_eq!(a.checksum, b.checksum, "profiling perturbed the result");
        assert!(a.verified && b.verified);
    }
    let c_off: CommCounts = off_fabric.total_counts();
    let c_on: CommCounts = on_fabric.total_counts();
    assert_eq!(
        c_off, c_on,
        "profiler on/off must move identical wire traffic"
    );
    let off_trace = &off_fabric.endpoint(0).trace;
    assert!(
        !off_trace.enabled() && off_trace.ring().is_none(),
        "profiler off allocates nothing"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn since_spans_cache_and_agg_counters() {
    // Phase measurement — a baseline snapshot and `CommCounts::since` —
    // over a fabric with the cache, aggregation and profiler layers all
    // enabled: each delta isolates exactly its own phase's traffic.
    const WORDS: usize = 1024;
    let f = Fabric::new(FabricConfig {
        ranks: 2,
        segment_bytes: WORDS * 8,
        agg: Some(AggConfig::new()),
        cache: Some(CacheConfig::default()),
        prof: Some(ProfConfig::on()),
        ..FabricConfig::default()
    });
    let hot = GlobalAddr::new(1, 0); // cached read target
    let cold = GlobalAddr::new(1, (WORDS - 1) * 8); // uncached write target

    // Phase 1: fill the line, warm the counters.
    for _ in 0..8 {
        let _ = f.get_u64(0, hot);
    }
    let stats = &f.endpoint(0).stats;
    let base = stats.snapshot();

    // Phase 2: cache hits only, plus buffered ops coalesced to one frame.
    for _ in 0..8 {
        let _ = f.get_u64(0, hot);
    }
    for k in 0..4 {
        f.xor_u64_buffered(0, GlobalAddr::new(1, (512 + k) * 8), 0xfeed);
    }
    f.flush_agg(0);
    let base2 = stats.snapshot();
    let d = base2.since(&base);
    assert_eq!(d.cache_hits, 8, "phase 2 is all hits");
    assert_eq!(d.gets, 0, "no fabric get crossed the wire in phase 2");
    assert_eq!(d.agg_ops, 4);
    assert_eq!(d.agg_batches, 1, "four buffered ops became one frame");
    assert_eq!(d.ams_sent, 1, "the batch is one wire message");

    // Phase 3, from a fresh baseline.
    for _ in 0..3 {
        let _ = f.get_u64(0, hot); // still cached: hits, no fabric ops
    }
    f.put_u64(0, cold, 7);
    let d2 = stats.snapshot().since(&base2);
    assert_eq!(d2.cache_hits, 3);
    assert_eq!((d2.puts, d2.put_bytes), (1, 8));
    assert_eq!((d2.gets, d2.agg_ops, d2.ams_sent), (0, 0, 0));
}
