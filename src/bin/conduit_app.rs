//! Conformance workload driver for the transport conduits.
//!
//! Runs one of the paper's benchmarks under `spmd_procs`, so the same
//! invocation works in-process (no `RUPCXX_CONDUIT`), as the launcher
//! parent (conduit set, forks itself N times), or as one rank of a
//! multi-process job (`RUPCXX_PROC_RANK` set by the launcher).
//!
//! Usage: `conduit_app <gups|gups-agg|sort|stencil|copy|spin> <ranks> [k=v...]`
//!
//! Every rank prints a deterministic `RESULT rank=R checksum=X` line;
//! the conformance suite compares these bit-for-bit across conduits.
//! Keys: `updates`, `table` (gups), `keys`, `seed` (sort), `edge`,
//! `iters`, `grid=XxYxZ` (stencil), `iters`, `sleep_ms` (spin),
//! `segment_mib` (all); `copy` takes none.

use rupcxx::{allocate, copy, GlobalPtr};
use rupcxx_apps::{gups, sample_sort, stencil};
use rupcxx_net::AggConfig;
use rupcxx_runtime::{spmd_procs, Ctx, HandlerRegistry, ProcOutcome, RuntimeConfig};
use std::collections::HashMap;

fn usage() -> ! {
    eprintln!("usage: conduit_app <gups|gups-agg|sort|stencil|copy|spin> <ranks> [k=v...]");
    std::process::exit(2);
}

fn parse_kv(args: &[String]) -> HashMap<String, String> {
    let mut kv = HashMap::new();
    for a in args {
        match a.split_once('=') {
            Some((k, v)) => {
                kv.insert(k.to_string(), v.to_string());
            }
            None => {
                eprintln!("bad parameter {a:?} (want k=v)");
                usage();
            }
        }
    }
    kv
}

fn get(kv: &HashMap<String, String>, key: &str, default: usize) -> usize {
    kv.get(key).map_or(default, |v| {
        v.parse()
            .unwrap_or_else(|_| panic!("{key}={v}: not a number"))
    })
}

/// The three kinds of bulk `copy`, every rank playing every role once
/// (needs ≥ 3 ranks): its own bytes to the next rank (local → remote), the
/// previous rank's to itself (remote → local), and the next rank's to the
/// previous one (third party) — at odd byte offsets and lengths (the
/// third equally aligned at both ends: in one process that one goes word
/// to word, the other two staged), into three windows of the target's
/// upper half that no two copies share.
/// Returns a hash of the rank's whole arena afterwards.
fn copy_workload(ctx: &Ctx) -> u64 {
    const ARENA: usize = 4096;
    const HALF: usize = ARENA / 2;
    let (me, n) = (ctx.rank(), ctx.ranks());
    assert!(
        n >= 3,
        "copy needs a third party: run it on at least 3 ranks"
    );
    let (next, prev) = ((me + 1) % n, (me + n - 1) % n);
    let image = |rank: usize| -> Vec<u8> {
        let byte = |i: usize| (i * 7 + i / 256 + rank * 31) as u8;
        (0..ARENA)
            .map(|i| if i < HALF { byte(i) } else { 0 })
            .collect()
    };
    let arena = allocate::<u8>(ctx, me, ARENA).expect("arena");
    arena.rput_slice(ctx, &image(me));
    let dir: Vec<GlobalPtr<u8>> = ctx.allgatherv(&[arena]);
    ctx.barrier();
    // (source rank, its offset, target rank, offset in its upper half, bytes)
    let moves = [
        (me, 3, next, 5, 500),
        (prev, 601, me, 602, 400),
        (next, 1100, prev, 1108, 333),
    ];
    for (from, at, to, into, len) in moves {
        copy(ctx, dir[from].offset(at), dir[to].offset(HALF + into), len);
    }
    ctx.barrier();
    // What the three copies aimed at this rank must have left here: the
    // previous rank's push, this rank's own pull, and the next rank's
    // third-party copy out of the rank after it.
    let mut want = image(me);
    for (from, at, into, len) in [
        (prev, 3, 5, 500),
        (prev, 601, 602, 400),
        ((me + 2) % n, 1100, 1108, 333),
    ] {
        want[HALF + into..][..len].copy_from_slice(&image(from)[at..at + len]);
    }
    let mut got = vec![0u8; ARENA];
    arena.rget_slice(ctx, &mut got);
    assert!(got == want, "rank {me}: copied bytes differ from the model");
    ctx.barrier();
    // FNV-1a.
    got.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Checksum of one rank's run: every workload reduces to a u64 that is
/// identical across ranks and (the conformance property) across conduits.
fn run_workload(ctx: &Ctx, mode: &str, kv: &HashMap<String, String>) -> u64 {
    match mode {
        "gups" | "gups-agg" => {
            let cfg = gups::GupsConfig {
                table_size: get(kv, "table", 1 << 12),
                updates_per_rank: get(kv, "updates", 2000),
                variant: if mode == "gups-agg" {
                    gups::Variant::UpcxxAgg
                } else {
                    gups::Variant::Upcxx
                },
                verify: true,
            };
            let r = gups::run(ctx, &cfg);
            assert!(r.verified, "gups verification failed");
            r.checksum
        }
        "sort" => {
            let cfg = sample_sort::SortConfig {
                keys_per_rank: get(kv, "keys", 2000),
                oversample: 32,
                variant: sample_sort::Variant::Upcxx,
                seed: get(kv, "seed", 42) as u64,
            };
            let r = sample_sort::run(ctx, &cfg);
            assert!(r.verified, "sort verification failed");
            r.checksum
        }
        "stencil" => {
            let grid = kv.get("grid").map_or((ctx.ranks(), 1, 1), |g| {
                let d: Vec<usize> = g.split('x').map(|s| s.parse().unwrap()).collect();
                assert_eq!(d.len(), 3, "grid=XxYxZ");
                (d[0], d[1], d[2])
            });
            let cfg = stencil::StencilConfig {
                local_edge: get(kv, "edge", 16),
                grid,
                iters: get(kv, "iters", 4),
                variant: stencil::Variant::Optimized,
                c: 0.5,
            };
            // Bit-for-bit: the f64 checksum is compared by its bits.
            stencil::run(ctx, &cfg).checksum.to_bits()
        }
        "copy" => copy_workload(ctx),
        "spin" => {
            // Kill-test workload: barrier rounds with real wall time in
            // between, so a launcher (or test) can kill one OS process
            // mid-job and the survivors' barriers must surface
            // PeerUnreachable instead of spinning forever.
            let iters = get(kv, "iters", 2000);
            let sleep_ms = get(kv, "sleep_ms", 5);
            for _ in 0..iters {
                std::thread::sleep(std::time::Duration::from_millis(sleep_ms as u64));
                ctx.barrier();
            }
            0
        }
        other => {
            eprintln!("unknown mode {other:?}");
            usage();
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() < 2 {
        usage();
    }
    let mode = args[0].clone();
    let ranks: usize = args[1].parse().unwrap_or_else(|_| usage());
    let kv = parse_kv(&args[2..]);
    let mut config = RuntimeConfig::new(ranks).segment_mib(get(&kv, "segment_mib", 4));
    if mode == "gups-agg" && config.agg.is_none() {
        config = config.with_agg(AggConfig::new());
    }
    let outcome = spmd_procs(config, HandlerRegistry::new(), |ctx| {
        let sum = run_workload(ctx, &mode, &kv);
        (ctx.rank(), sum)
    });
    match outcome {
        ProcOutcome::InProcess(results) => {
            for (rank, sum) in results {
                println!("RESULT rank={rank} checksum={sum:016x}");
            }
        }
        ProcOutcome::Rank(_, (rank, sum)) => {
            println!("RESULT rank={rank} checksum={sum:016x}");
        }
        ProcOutcome::Launcher(statuses) => {
            for (rank, s) in statuses.iter().enumerate() {
                if !s.success() {
                    eprintln!("rank {rank} failed: {s}");
                }
            }
            if !statuses.iter().all(|s| s.success()) {
                std::process::exit(1);
            }
        }
    }
}
