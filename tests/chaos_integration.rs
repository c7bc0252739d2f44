//! Chaos integration: paper benchmarks under deterministic fault
//! injection. A seeded `FaultPlan` drops, duplicates, reorders and
//! delays wire traffic while GUPS and sample sort run; the reliable
//! delivery layer must make the results bit-for-bit identical to a
//! fault-free run, and the fault counters must be reproducible for the
//! same seed. A split-team program does the same for collectives whose
//! deposits travel in sub-team mailbox domains.
//!
//! The seed comes from `RUPCXX_CHAOS_SEED` (the `make chaos` target
//! loops over several pinned seeds); unset, a fixed default applies.

use rupcxx_apps::{gups, sample_sort};
use rupcxx_net::{CommCounts, Fabric, FaultPlan};
use rupcxx_runtime::{spmd, Ctx, RuntimeConfig};
use rupcxx_util::sync::Mutex;
use std::sync::Arc;

fn chaos_seed() -> u64 {
    std::env::var("RUPCXX_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(101)
}

/// The standard chaos mix: 10% drop, 5% dup, 10% reorder, 5% delay on
/// every link.
fn chaos_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .drop(0.10)
        .dup(0.05)
        .reorder(0.10)
        .delay(0.05)
}

/// Run an SPMD job and capture its fabric, so the job-wide fault
/// counters can be read after every rank has drained to quiescence.
fn spmd_capturing<R: Send>(
    cfg: RuntimeConfig,
    body: impl Fn(&Ctx) -> R + Send + Sync,
) -> (Vec<R>, CommCounts) {
    let fabric: Mutex<Option<Arc<Fabric>>> = Mutex::new(None);
    let out = spmd(cfg, |ctx| {
        if ctx.rank() == 0 {
            *fabric.lock() = Some(ctx.shared().fabric.clone());
        }
        body(ctx)
    });
    let fabric = fabric.lock().take().expect("rank 0 captured the fabric");
    (out, fabric.total_counts())
}

fn run_gups(faults: Option<FaultPlan>) -> (Vec<gups::GupsResult>, CommCounts) {
    let mut cfg = RuntimeConfig::new(4).segment_mib(4);
    if let Some(plan) = faults {
        cfg = cfg.with_faults(plan);
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

fn run_sort(faults: Option<FaultPlan>) -> (Vec<sample_sort::SortResult>, CommCounts) {
    let mut cfg = RuntimeConfig::new(6).segment_mib(4);
    if let Some(plan) = faults {
        cfg = cfg.with_faults(plan);
    }
    spmd_capturing(cfg, |ctx| {
        sample_sort::run(
            ctx,
            &sample_sort::SortConfig {
                keys_per_rank: 2_000,
                oversample: 32,
                variant: sample_sort::Variant::Upcxx,
                seed: 7,
            },
        )
    })
}

/// Six ranks split by parity; each half runs `ROUNDS` rounds of barrier,
/// broadcast, allreduce and allgatherv. Per rank, every value it got.
fn run_teams(faults: Option<FaultPlan>) -> (Vec<Vec<u64>>, CommCounts) {
    const ROUNDS: u64 = 40;
    let mut cfg = RuntimeConfig::new(6).segment_bytes(4096);
    if let Some(plan) = faults {
        cfg = cfg.with_faults(plan);
    }
    spmd_capturing(cfg, |ctx| {
        let me = ctx.rank() as u64;
        let half = ctx.team_world().split(ctx, me % 2, me);
        let mut got = Vec::new();
        for i in 0..ROUNDS {
            half.barrier(ctx);
            got.push(half.broadcast(ctx, i as usize % half.size(), me * 1000 + i));
            got.push(half.allreduce(ctx, me + i, |a, b| a + b));
            got.extend(half.allgatherv(ctx, &[me, i]));
        }
        got
    })
}

#[test]
fn gups_under_chaos_matches_fault_free_run() {
    let seed = chaos_seed();
    let (clean, clean_counts) = run_gups(None);
    let (chaos, chaos_counts) = run_gups(Some(chaos_plan(seed)));

    assert!(clean.iter().all(|r| r.verified));
    assert_eq!(clean_counts.retransmits, 0, "fault-free run never retries");
    assert_eq!(clean_counts.wire_drops, 0);
    assert_eq!(clean_counts.dup_arrivals, 0);

    assert!(
        chaos.iter().all(|r| r.verified),
        "GUPS must verify under chaos (seed {seed})"
    );
    for (c, f) in clean.iter().zip(&chaos) {
        assert_eq!(c.updates, f.updates, "same work under faults (seed {seed})");
    }
    assert!(
        chaos_counts.retransmits > 0,
        "a 10% drop plan must force retransmissions (seed {seed})"
    );
    assert_eq!(
        chaos_counts.retransmits, chaos_counts.wire_drops,
        "at quiescence every dropped frame was retried exactly once (seed {seed})"
    );
}

#[test]
fn sample_sort_under_chaos_matches_fault_free_run() {
    let seed = chaos_seed();
    let (clean, clean_counts) = run_sort(None);
    let (chaos, chaos_counts) = run_sort(Some(chaos_plan(seed)));

    assert!(clean.iter().all(|r| r.verified));
    assert_eq!(clean_counts.wire_drops, 0);

    assert!(
        chaos.iter().all(|r| r.verified),
        "sort must verify under chaos (seed {seed})"
    );
    // Bit-for-bit agreement with the clean run: same global checksum and
    // the same key count landing on every rank.
    for (c, f) in clean.iter().zip(&chaos) {
        assert_eq!(c.checksum, f.checksum, "seed {seed}");
        assert_eq!(c.my_keys, f.my_keys, "seed {seed}");
    }
    assert!(
        chaos_counts.retransmits > 0,
        "a 10% drop plan must force retransmissions (seed {seed})"
    );
    assert_eq!(
        chaos_counts.retransmits, chaos_counts.wire_drops,
        "seed {seed}"
    );
}

#[test]
fn split_team_collectives_under_chaos_match_fault_free_run() {
    let seed = chaos_seed();
    let (clean, clean_counts) = run_teams(None);
    assert_eq!(clean_counts.wire_drops, 0);
    // Round 1 as rank 2 of the even half {0, 2, 4} sees it: the root is
    // member 1 (rank 2 itself), the sum adds each member's rank + 1, and
    // the gather holds every member's `[rank, round]`.
    assert_eq!(clean[2][8..16], [2001, 9, 0, 1, 2, 1, 4, 1]);
    let fingerprint = || {
        let (chaos, counts) = run_teams(Some(chaos_plan(seed)));
        assert_eq!(chaos, clean, "same values under faults (seed {seed})");
        (counts.wire_drops, counts.retransmits, counts.dup_arrivals)
    };
    let (drops, retransmits, dups) = fingerprint();
    assert!(
        retransmits > 0,
        "a 10% drop plan must force retransmissions (seed {seed})"
    );
    assert_eq!(retransmits, drops, "seed {seed}");
    assert_eq!(
        fingerprint(),
        (drops, retransmits, dups),
        "same seed ({seed}), same fault counts"
    );
}

#[test]
fn fault_counts_reproduce_for_the_same_seed() {
    // Determinism of the *counts*, not just the results: the fate of
    // every transmission is a pure function of (seed, link, seq,
    // attempt), so two identical jobs see identical drop/retry/dup
    // totals. (`reorders` is deliberately excluded — whether a held
    // frame is actually overtaken depends on pump timing.)
    let seed = chaos_seed();
    let fingerprint = || {
        let (out, counts) = run_gups(Some(chaos_plan(seed)));
        assert!(out.iter().all(|r| r.verified));
        (counts.wire_drops, counts.retransmits, counts.dup_arrivals)
    };
    assert_eq!(
        fingerprint(),
        fingerprint(),
        "same seed ({seed}), same fault counts"
    );
}

#[test]
fn different_seeds_give_different_schedules() {
    let (_, a) = run_gups(Some(chaos_plan(1)));
    let (_, b) = run_gups(Some(chaos_plan(2)));
    assert_ne!(
        (a.wire_drops, a.dup_arrivals),
        (b.wire_drops, b.dup_arrivals),
        "distinct seeds must draw distinct fault schedules"
    );
}
