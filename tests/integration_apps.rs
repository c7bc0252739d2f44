//! End-to-end integration of the five paper benchmarks at host scale,
//! including cross-variant agreement (the properties the paper's
//! comparisons rely on).

use rupcxx::prelude::*;
use rupcxx_apps::{gups, lulesh, ray, sample_sort, stencil};

fn cfg(n: usize) -> RuntimeConfig {
    RuntimeConfig::new(n).segment_mib(16)
}

#[test]
fn gups_both_variants_verify_and_count_updates() {
    for variant in [gups::Variant::Upcxx, gups::Variant::UpcDirect] {
        let out = spmd(cfg(4), move |ctx| {
            gups::run(
                ctx,
                &gups::GupsConfig {
                    table_size: 1 << 12,
                    updates_per_rank: 5_000,
                    variant,
                    verify: true,
                },
            )
        });
        assert!(out.iter().all(|r| r.verified), "{variant:?}");
    }
}

#[test]
fn stencil_2x2x2_both_variants_match_reference() {
    let reference = stencil::serial_reference((8, 8, 8), 2, 0.1);
    for variant in [stencil::Variant::Generic, stencil::Variant::Optimized] {
        let out = spmd(cfg(8), move |ctx| {
            stencil::run(
                ctx,
                &stencil::StencilConfig {
                    local_edge: 4,
                    grid: (2, 2, 2),
                    iters: 2,
                    variant,
                    c: 0.1,
                },
            )
        });
        let got = out[0].checksum;
        assert!(
            (got - reference).abs() < 1e-9 * reference.abs().max(1.0),
            "{variant:?}: {got} vs {reference}"
        );
    }
}

/// At the ledger's `halo` size the two compute paths give the same bits,
/// and those bits are the ones the point-at-a-time loop gave: the row
/// loop keeps the summation order.
#[test]
fn stencil_variants_agree_bit_for_bit_at_the_halo_size() {
    let reference = stencil::serial_reference((32, 16, 16), 250, 0.1);
    let checksum = |variant| {
        let out = spmd(cfg(2), move |ctx| {
            stencil::run(
                ctx,
                &stencil::StencilConfig {
                    local_edge: 16,
                    grid: (2, 1, 1),
                    iters: 250,
                    variant,
                    c: 0.1,
                },
            )
        });
        out[0].checksum
    };
    let optimized = checksum(stencil::Variant::Optimized);
    let generic = checksum(stencil::Variant::Generic);
    assert_eq!(optimized.to_bits(), generic.to_bits());
    assert_eq!(optimized.to_bits(), 0x691072d2dfcfa642);
    assert!((optimized - reference).abs() < 1e-9 * reference.abs().max(1.0));
}

#[test]
fn sample_sort_scales_of_ranks_and_seeds() {
    for ranks in [2usize, 4] {
        for seed in [1u64, 99] {
            let out = spmd(cfg(ranks), move |ctx| {
                sample_sort::run(
                    ctx,
                    &sample_sort::SortConfig {
                        keys_per_rank: 4_000,
                        oversample: 32,
                        variant: sample_sort::Variant::Upcxx,
                        seed,
                    },
                )
            });
            assert!(out.iter().all(|r| r.verified), "ranks={ranks} seed={seed}");
        }
    }
}

#[test]
fn ray_image_decomposition_invariance_and_ppm_range() {
    let cfg_ray = ray::RayConfig {
        width: 32,
        height: 24,
        spp: 2,
        tile: 8,
        threads_per_rank: 2,
        nspheres: 5,
        seed: 77,
    };
    let c = cfg_ray.clone();
    let a = spmd(cfg(1), move |ctx| ray::run(ctx, &c))[0].clone();
    let c = cfg_ray.clone();
    let b = spmd(cfg(4), move |ctx| ray::run(ctx, &c))[0].clone();
    assert_eq!(a.checksum, b.checksum);
    let img = a.image.expect("root image");
    assert!(img.iter().all(|&v| v.is_finite() && v >= 0.0));
    assert!(img.iter().any(|&v| v > 0.05), "image has content");
}

#[test]
fn lulesh_transports_agree_at_8_ranks() {
    let one = spmd(cfg(8), |ctx| {
        lulesh::run(
            ctx,
            &lulesh::LuleshConfig {
                edge: 4,
                q: 2,
                steps: 3,
                transport: lulesh::Transport::OneSided,
            },
            None,
        )
    });
    let world = rupcxx_mpi::MpiWorld::new(8);
    let two = spmd(cfg(8), move |ctx| {
        lulesh::run(
            ctx,
            &lulesh::LuleshConfig {
                edge: 4,
                q: 2,
                steps: 3,
                transport: lulesh::Transport::TwoSided,
            },
            Some(&world),
        )
    });
    assert_eq!(one[0].total_energy, two[0].total_energy);
    assert_eq!(one[0].max_speed, two[0].max_speed);
    assert!(one[0].fom_zps > 0.0 && two[0].fom_zps > 0.0);
}

#[test]
fn lulesh_rendezvous_eager_thresholds_agree() {
    // Two-sided physics must not depend on the eager/rendezvous switch.
    let run_with = |eager_limit: usize| {
        let world = rupcxx_mpi::MpiWorld::with_eager_limit(8, eager_limit);
        spmd(cfg(8), move |ctx| {
            lulesh::run(
                ctx,
                &lulesh::LuleshConfig {
                    edge: 4,
                    q: 2,
                    steps: 3,
                    transport: lulesh::Transport::TwoSided,
                },
                Some(&world),
            )
        })[0]
            .total_energy
    };
    assert_eq!(run_with(usize::MAX), run_with(0));
}
