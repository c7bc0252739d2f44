//! Integration tests of per-destination aggregation end to end: GUPS in
//! aggregated mode must coalesce its fine-grained updates into at least
//! 8× fewer wire frames than logical updates (the `CommStats::agg_*`
//! counters), while producing a bit-for-bit identical table; where its
//! batches are cut must depend on the update stream alone, however the
//! per-flush polls and the window's waits fall; with aggregation disabled
//! — or enabled but unused — fabric op counts must be unchanged.

use rupcxx_apps::gups::{self, GupsConfig, Variant};
use rupcxx_net::{AggConfig, CommCounts};
use rupcxx_runtime::{spmd, RuntimeConfig};
use rupcxx_trace::TraceConfig;
use rupcxx_util::GupsRng;

const RANKS: usize = 4;

fn gups_cfg(variant: Variant) -> GupsConfig {
    GupsConfig {
        table_size: 1 << 12,
        updates_per_rank: 4000,
        variant,
        verify: true,
    }
}

/// Run GUPS and return each rank's result plus its own endpoint's
/// initiator-side counters (snapshotted after the final collective, so
/// this rank initiates nothing afterwards and the counts are exact).
fn run(rt: RuntimeConfig, variant: Variant) -> Vec<(gups::GupsResult, CommCounts)> {
    spmd(rt, move |ctx| {
        let r = gups::run(ctx, &gups_cfg(variant));
        ctx.barrier();
        let counts = ctx.fabric().endpoint(ctx.rank()).stats.snapshot();
        (r, counts)
    })
}

/// Replay `rank`'s GUPS index stream and count updates whose cyclic
/// owner is remote, doubled for the verify pass (which replays the same
/// stream). Note the fraction is far from `(RANKS-1)/RANKS`: the HPCC
/// LFSR shifts left, so its low bits — the cyclic owner under block
/// size 1 — are biased toward zero, and rank 0 owns over half the
/// indices of every stream.
fn expected_remote_updates(rank: usize) -> u64 {
    let cfg = gups_cfg(Variant::UpcxxAgg);
    let mask = cfg.table_size - 1;
    let mut rng = GupsRng::starting_at((rank * cfg.updates_per_rank) as i64);
    let remote = (0..cfg.updates_per_rank)
        .filter(|_| (rng.next_u64() as usize & mask) % RANKS != rank)
        .count();
    2 * remote as u64
}

fn rt() -> RuntimeConfig {
    let mut rt = RuntimeConfig::new(RANKS).segment_mib(1);
    // Pin the configuration regardless of the ambient RUPCXX_* env.
    rt.agg = None;
    rt.faults = None;
    rt.trace = TraceConfig::off();
    rt
}

#[test]
fn aggregated_gups_coalesces_8x_with_identical_results() {
    let plain = run(rt(), Variant::Upcxx);
    let agg = run(rt().with_agg(AggConfig::new()), Variant::UpcxxAgg);

    // Bit-for-bit identical table: xor is commutative/associative, so
    // delivery order cannot change the checksum — and the involution
    // verify pass must restore Table[i] = i on every rank.
    assert!(agg.iter().all(|(r, _)| r.verified));
    assert!(plain.iter().all(|(r, _)| r.verified));
    assert_eq!(plain[0].0.checksum, agg[0].0.checksum);

    for (rank, (_, c)) in agg.iter().enumerate() {
        assert!(c.agg_batches > 0, "rank {rank} never batched: {c:?}");
        // The tentpole claim: >= 8x fewer wire frames than logical
        // updates (a default batch is a full slab, 241 word frames; at
        // 4000 updates a rank the fence's partial batches pull the mean
        // well below that).
        assert!(
            c.agg_ops >= 8 * c.agg_batches,
            "rank {rank}: {} logical ops in {} batches is under 8x",
            c.agg_ops,
            c.agg_batches
        );
        // Every remote update — and nothing else — went through the
        // aggregation layer: agg_ops must equal the remote-index count
        // of this rank's deterministic update stream, replayed twice
        // (timed pass + involution verify pass).
        assert_eq!(
            c.agg_ops,
            expected_remote_updates(rank),
            "rank {rank}: {c:?}"
        );
    }
    // Per-op GUPS never touches the aggregation layer.
    for (_, c) in &plain {
        assert_eq!((c.agg_ops, c.agg_batches), (0, 0));
    }
}

#[test]
fn batch_counts_are_a_function_of_the_update_stream() {
    // Long enough that every rank sends some thousands of batches, polls
    // once for each and is throttled by the window now and then. None of
    // that may move a batch boundary: the poll and the window's wait are
    // receive-only, so a buffer is cut by its slab filling or by the
    // fence, never because the rank happened to be waiting. (A hook that
    // polled or blocked through `advance()` would flush the *other*
    // destinations' partial buffers each time, a different number of
    // times each run.)
    let cfg = GupsConfig {
        table_size: 1 << 12,
        updates_per_rank: 400_000,
        variant: Variant::UpcxxAgg,
        verify: false,
    };
    let batches = |_| -> Vec<(u64, u64)> {
        spmd(rt().with_agg(AggConfig::new()), move |ctx| {
            gups::run(ctx, &cfg);
            ctx.barrier();
            let c = ctx.fabric().endpoint(ctx.rank()).stats.snapshot();
            (c.agg_ops, c.agg_batches)
        })
    };
    let runs: Vec<_> = (0..5).map(batches).collect();
    for run in &runs[1..] {
        assert_eq!(run, &runs[0], "batch counts moved between runs");
    }
    for (rank, &(ops, batches)) in runs[0].iter().enumerate() {
        assert!(
            ops >= 200 * batches,
            "rank {rank}: {ops} updates in {batches} batches: slabs leave under-filled"
        );
    }
}

#[test]
fn progress_threads_leave_the_packing_ranks_buffers_alone() {
    // Concurrent mode: a worker per rank serves the inbox while the rank
    // packs. It serves the receive half — a worker that force-flushed its
    // rank's partial buffers on every pass (`advance()`) cut them a few
    // frames long whenever it ran beside the pack loop. Now where a batch
    // is cut is the update stream's business with a worker as without.
    let cfg = GupsConfig {
        table_size: 1 << 12,
        updates_per_rank: 400_000,
        variant: Variant::UpcxxAgg,
        verify: true,
    };
    let batches = |rt: RuntimeConfig| -> Vec<(u64, u64)> {
        spmd(rt.with_agg(AggConfig::new()), move |ctx| {
            let r = gups::run(ctx, &cfg);
            assert!(r.verified, "rank {}: updates lost or doubled", ctx.rank());
            ctx.barrier();
            let c = ctx.fabric().endpoint(ctx.rank()).stats.snapshot();
            (c.agg_ops, c.agg_batches)
        })
    };
    let with_workers = batches(rt().with_progress_thread());
    assert_eq!(
        with_workers,
        batches(rt()),
        "a worker moved a batch boundary"
    );
    for (rank, &(ops, batches)) in with_workers.iter().enumerate() {
        assert!(
            ops >= 200 * batches,
            "rank {rank}: {ops} updates in {batches} batches: the worker cuts them short"
        );
    }
}

#[test]
fn enabled_but_unused_aggregation_leaves_op_counts_unchanged() {
    // The per-op variant on an aggregation-enabled fabric must generate
    // exactly the traffic of the plain fabric: buffers stay empty, every
    // flush hook is a single untaken branch.
    let plain = run(rt(), Variant::Upcxx);
    let agg_on = run(rt().with_agg(AggConfig::new()), Variant::Upcxx);
    assert_eq!(plain[0].0.checksum, agg_on[0].0.checksum);
    for ((_, p), (_, a)) in plain.iter().zip(&agg_on) {
        assert_eq!((a.agg_ops, a.agg_batches), (0, 0));
        // Initiator-side counters are deterministic per rank; receiver
        // counters (ams_handled) can race the post-run snapshot.
        assert_eq!(p.puts, a.puts);
        assert_eq!(p.put_bytes, a.put_bytes);
        assert_eq!(p.gets, a.gets);
        assert_eq!(p.get_bytes, a.get_bytes);
        assert_eq!(p.ams_sent, a.ams_sent);
        assert_eq!(p.am_bytes, a.am_bytes);
        assert_eq!(p.local_ops, a.local_ops);
    }
}

#[test]
fn agg_variant_without_agg_config_falls_through() {
    // UpcxxAgg on an unaggregated fabric: every buffered entry point
    // degenerates to the direct op; results stay correct and nothing is
    // counted as batched.
    let out = run(rt(), Variant::UpcxxAgg);
    assert!(out.iter().all(|(r, _)| r.verified));
    for (_, c) in &out {
        assert_eq!((c.agg_ops, c.agg_batches), (0, 0));
    }
    let plain = run(rt(), Variant::Upcxx);
    assert_eq!(plain[0].0.checksum, out[0].0.checksum);
}

#[test]
fn batch_occupancy_metrics_match_stats() {
    // In metrics mode every flushed batch records its frame count: the
    // histogram's sample count must equal the endpoint's batch counter,
    // and the mean occupancy must reflect the >= 8x coalescing.
    let rt = rt()
        .with_agg(AggConfig::new())
        .with_trace(TraceConfig::metrics());
    let out = spmd(rt, |ctx| {
        let r = gups::run(ctx, &gups_cfg(Variant::UpcxxAgg));
        ctx.barrier();
        let stats = ctx.fabric().endpoint(ctx.rank()).stats.snapshot();
        let metrics = ctx.trace().metrics.snapshot();
        (r, stats, metrics)
    });
    for (rank, (r, stats, metrics)) in out.iter().enumerate() {
        assert!(r.verified);
        assert_eq!(
            metrics.batch_frames.count, stats.agg_batches,
            "rank {rank}: histogram samples != batches sent"
        );
        assert_eq!(
            metrics.batch_frames.sum, stats.agg_ops,
            "rank {rank}: histogram mass != logical ops"
        );
        assert!(metrics.batch_frames.mean() >= 8.0, "rank {rank}");
    }
}
