//! Clean-benchmark validation of `rupcxx-check`: the paper benchmarks
//! are correctly synchronized, so the checker must report *zero* findings
//! on them — with and without aggregation, and under chaos (fault
//! injection), where retransmission delays must not manufacture false
//! happens-before violations or false deadlocks.

use rupcxx::prelude::*;
use rupcxx_apps::{gups, lulesh, sample_sort, stencil};
use rupcxx_check::{new_sink, CheckConfig, FindingKind, FindingSink};
use rupcxx_net::{AggConfig, CacheConfig, FaultPlan};

fn assert_clean(sink: &FindingSink, what: &str) {
    let findings = sink.lock();
    assert!(
        findings.is_empty(),
        "{what}: expected zero findings, got:\n{}",
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

fn checked(n: usize, sink: &FindingSink) -> RuntimeConfig {
    RuntimeConfig::new(n)
        .segment_mib(8)
        .with_check(CheckConfig::all().with_sink(sink.clone()))
}

#[test]
fn gups_plain_is_clean() {
    let sink = new_sink();
    let out = spmd(checked(4, &sink), |ctx| {
        gups::run(
            ctx,
            &gups::GupsConfig {
                table_size: 1 << 10,
                updates_per_rank: 1_000,
                variant: gups::Variant::Upcxx,
                verify: true,
            },
        )
    });
    assert!(out.iter().all(|r| r.verified));
    assert_clean(&sink, "gups plain");
}

#[test]
fn gups_aggregated_is_clean() {
    let sink = new_sink();
    let out = spmd(checked(4, &sink).with_agg(AggConfig::new()), |ctx| {
        gups::run(
            ctx,
            &gups::GupsConfig {
                table_size: 1 << 10,
                updates_per_rank: 1_000,
                variant: gups::Variant::UpcxxAgg,
                verify: true,
            },
        )
    });
    assert!(out.iter().all(|r| r.verified));
    assert_clean(&sink, "gups aggregated");
}

#[test]
fn stencil_is_clean() {
    let sink = new_sink();
    let reference = stencil::serial_reference((8, 8, 4), 2, 0.1);
    let out = spmd(checked(4, &sink), |ctx| {
        stencil::run(
            ctx,
            &stencil::StencilConfig {
                local_edge: 4,
                grid: (2, 2, 1),
                iters: 2,
                variant: stencil::Variant::Optimized,
                c: 0.1,
            },
        )
    });
    assert!((out[0].checksum - reference).abs() < 1e-9);
    assert_clean(&sink, "stencil");
}

/// The one-barrier step with its compute in view: `Generic` reads and
/// writes every point through the fabric, so the checker sees the
/// neighbours' face pulls race (or not) with the compute, which
/// `Optimized` privatizes.
#[test]
fn stencil_generic_is_clean() {
    let sink = new_sink();
    let reference = stencil::serial_reference((8, 8, 4), 6, 0.1);
    let out = spmd(checked(4, &sink), |ctx| {
        stencil::run(
            ctx,
            &stencil::StencilConfig {
                local_edge: 4,
                grid: (2, 2, 1),
                iters: 6,
                variant: stencil::Variant::Generic,
                c: 0.1,
            },
        )
    });
    assert!((out[0].checksum - reference).abs() < 1e-9 * reference.abs().max(1.0));
    assert_clean(&sink, "stencil generic");
}

#[test]
fn lulesh_is_clean() {
    // All three transports: two-sided sends, one-sided puts into landing
    // buffers, and face copies into global arrays whose blocks the kernel
    // reads and writes privatized. Same physics bits as unchecked.
    for transport in [
        lulesh::Transport::OneSided,
        lulesh::Transport::TwoSided,
        lulesh::Transport::PgasArrays,
    ] {
        let sink = new_sink();
        let world =
            (transport == lulesh::Transport::TwoSided).then(|| rupcxx_mpi::MpiWorld::new(8));
        let out = spmd(checked(8, &sink), move |ctx| {
            let cfg = lulesh::LuleshConfig {
                edge: 4,
                q: 2,
                steps: 3,
                transport,
            };
            lulesh::run(ctx, &cfg, world.as_ref())
        });
        assert_eq!(
            out[0].total_energy.to_bits(),
            0x3fef_e6c5_beb7_1194,
            "{transport:?}"
        );
        assert_eq!(
            out[0].max_speed.to_bits(),
            0x3f9e_b27b_51a0_c436,
            "{transport:?}"
        );
        assert_clean(&sink, &format!("lulesh {transport:?}"));
    }
}

#[test]
fn sample_sort_is_clean() {
    let sink = new_sink();
    let out = spmd(checked(4, &sink).with_agg(AggConfig::new()), |ctx| {
        sample_sort::run(
            ctx,
            &sample_sort::SortConfig {
                keys_per_rank: 2_000,
                oversample: 32,
                variant: sample_sort::Variant::UpcxxAgg,
                seed: 7,
            },
        )
    });
    assert!(out.iter().all(|r| r.verified));
    assert_clean(&sink, "sample sort");
}

/// Read cache + checker: the cache invalidates at every sync point, so
/// correctly synchronized benchmarks must stay clean with it enabled —
/// hits must not manufacture races, and line fills must not claim bytes
/// the program never read (false sharing with the owner's writes).
#[test]
fn gups_cached_is_clean() {
    let sink = new_sink();
    let out = spmd(
        checked(4, &sink).with_cache(CacheConfig::default()),
        |ctx| {
            gups::run(
                ctx,
                &gups::GupsConfig {
                    table_size: 1 << 10,
                    updates_per_rank: 1_000,
                    variant: gups::Variant::Upcxx,
                    verify: true,
                },
            )
        },
    );
    assert!(out.iter().all(|r| r.verified));
    assert_clean(&sink, "gups cached");
}

#[test]
fn stencil_cached_is_clean() {
    let sink = new_sink();
    let reference = stencil::serial_reference((8, 8, 4), 2, 0.1);
    let out = spmd(
        checked(4, &sink).with_cache(CacheConfig::default()),
        |ctx| {
            stencil::run(
                ctx,
                &stencil::StencilConfig {
                    local_edge: 4,
                    grid: (2, 2, 1),
                    iters: 2,
                    variant: stencil::Variant::Optimized,
                    c: 0.1,
                },
            )
        },
    );
    assert!((out[0].checksum - reference).abs() < 1e-9);
    assert_clean(&sink, "stencil cached");
}

/// `finish` as a synchronization point: every rank has tasks on every
/// other rank write words there, and reads them back once its scope has
/// closed. What closes the scope is one coalesced acknowledgement per
/// progress pass, not a reply per task, so the edge the reads depend on
/// is that ack's send stamp — taken after every task it covers.
#[test]
fn reads_after_finish_see_the_tasks_writes_without_a_race() {
    const PER_TARGET: usize = 24;
    let sink = new_sink();
    spmd(checked(4, &sink), |ctx| {
        let (me, n) = (ctx.rank(), ctx.ranks());
        // Cyclic: element `i` lives on rank `i % n`; `slot` is the k-th
        // word on `target` that `me`'s tasks write.
        let a = SharedArray::<u64>::new(ctx, n * n * PER_TARGET, 1);
        let slot = move |target: usize, k: usize| target + n * (me * PER_TARGET + k);
        let value = |target: usize, k: usize| (1 + me * n + target) as u64 * 1000 + k as u64;
        ctx.finish(|fs| {
            for k in 0..PER_TARGET {
                for target in (0..n).filter(|&t| t != me) {
                    let (a, index, v) = (a.clone(), slot(target, k), value(target, k));
                    fs.spawn(target, move |t| a.write(t, index, v));
                }
            }
        });
        for target in (0..n).filter(|&t| t != me) {
            for k in 0..PER_TARGET {
                assert_eq!(a.read(ctx, slot(target, k)), value(target, k));
            }
        }
        ctx.barrier();
        a.destroy(ctx);
    });
    assert_clean(&sink, "reads after finish");
}

/// Sensitivity: a planted stale read must be caught. The bypass knob
/// defeats the sync-point invalidation, so after the writer updates a
/// word *with* proper barrier synchronization, the reader's next access
/// hits the old line — exactly the coherence violation
/// `StaleCachedRead` exists to flag.
#[test]
fn planted_stale_cached_read_is_caught() {
    let sink = new_sink();
    let cfg = RuntimeConfig::new(2)
        .segment_mib(1)
        .with_check(CheckConfig::all().with_sink(sink.clone()))
        .with_cache(CacheConfig::default());
    spmd(cfg, |ctx| {
        ctx.fabric()
            .endpoint(ctx.rank())
            .cache()
            .expect("cache installed")
            .set_bypass_sync_invalidation(true);
        let a = SharedArray::<u64>::new(ctx, 4, 1);
        if ctx.rank() == 1 {
            a.write(ctx, 1, 5);
        }
        ctx.barrier();
        if ctx.rank() == 0 {
            assert_eq!(a.read(ctx, 1), 5, "line fill");
        }
        ctx.barrier(); // orders the fill before the write...
        if ctx.rank() == 1 {
            a.write(ctx, 1, 9);
        }
        ctx.barrier(); // ...and the write before the re-read
        if ctx.rank() == 0 {
            // The bypassed invalidation leaves the old line in place.
            assert_eq!(a.read(ctx, 1), 5, "stale by construction");
        }
        ctx.barrier();
        a.destroy(ctx);
    });
    let findings = sink.lock();
    assert!(
        findings
            .iter()
            .any(|f| f.kind == FindingKind::StaleCachedRead),
        "no stale-cached-read reported, got: {:?}",
        findings.iter().map(|f| f.to_string()).collect::<Vec<_>>()
    );
}

/// Chaos + checker: recoverable fault injection (drops, dups, delays)
/// perturbs delivery timing but not the happens-before relation — clock
/// snapshots ride retransmitted frames, so a correctly synchronized run
/// must stay clean, and in-flight retransmissions must never be
/// mistaken for a deadlock.
#[test]
fn chaos_runs_are_clean() {
    for seed in [101u64, 202, 303] {
        let sink = new_sink();
        let plan = FaultPlan::new(seed).drop(0.05).dup(0.03).reorder(0.05);
        let out = spmd(checked(4, &sink).with_faults(plan), |ctx| {
            let r = gups::run(
                ctx,
                &gups::GupsConfig {
                    table_size: 1 << 10,
                    updates_per_rank: 500,
                    variant: gups::Variant::Upcxx,
                    verify: true,
                },
            );
            ctx.barrier();
            r
        });
        assert!(out.iter().all(|r| r.verified), "seed {seed}");
        assert_clean(&sink, &format!("chaos seed {seed}"));
    }
}
