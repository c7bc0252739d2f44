//! Conformance workload driver for the transport conduits.
//!
//! Runs one of the paper's benchmarks under `spmd_procs`, so the same
//! invocation works in-process (no `RUPCXX_CONDUIT`), as the launcher
//! parent (conduit set, forks itself N times), or as one rank of a
//! multi-process job (`RUPCXX_PROC_RANK` set by the launcher).
//!
//! Usage: `conduit_app <gups|gups-agg|sort|stencil|lulesh|lulesh-arrays|copy|teams|spin> <ranks> [k=v...]`
//!
//! Every rank prints a deterministic `RESULT rank=R checksum=X` line;
//! the conformance suite compares these bit-for-bit across conduits.
//! Keys: `updates`, `table` (gups), `keys`, `seed` (sort), `edge`,
//! `iters`, `grid=XxYxZ` (stencil), `edge`, `steps` (lulesh, on a
//! perfect cube of ranks), `iters` (teams), `iters`, `sleep_ms`, `die`,
//! `die_after_ms` (spin), `segment_mib` (all); `copy` takes none.
//!
//! `lulesh` is MiniLulesh's one-sided transport, `lulesh-arrays` its
//! multidimensional-array one. The two-sided transport runs on threads
//! only: its eager sends are closure tasks, which cannot cross an
//! address space.

use rupcxx::{allocate, copy, GlobalPtr};
use rupcxx_apps::{gups, lulesh, sample_sort, stencil};
use rupcxx_net::AggConfig;
use rupcxx_runtime::{spmd_procs, Ctx, HandlerRegistry, ProcOutcome, RuntimeConfig};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// The workloads `run_workload` knows, in usage order.
const MODES: [&str; 9] = [
    "gups",
    "gups-agg",
    "sort",
    "stencil",
    "lulesh",
    "lulesh-arrays",
    "copy",
    "teams",
    "spin",
];

fn usage() -> ! {
    eprintln!(
        "usage: conduit_app <{}> <ranks> [k=v...]\n(MiniLulesh's two-sided transport runs on \
         threads only: its eager sends are closure tasks)",
        MODES.join("|")
    );
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
    fnv1a(got)
}

/// Sub-team collectives: the world split by rank parity, each half
/// running a barrier, a broadcast, an allreduce and an allgatherv in its
/// own mailbox domain, `iters` times, every result checked against a
/// model in the app. Returns a hash of the half's results.
fn teams_workload(ctx: &Ctx, iters: u64) -> u64 {
    let me = ctx.rank() as u64;
    let half = ctx.team_world().split(ctx, me % 2, me);
    let members: Vec<u64> = (me % 2..ctx.ranks() as u64).step_by(2).collect();
    let in_team: Vec<u64> = half.members().iter().map(|&m| m as u64).collect();
    assert_eq!(in_team, members, "rank {me}: split by parity");
    // Member `m`'s allgatherv contribution in round `i`: 1 to 3 words.
    let words = |m: u64, i: u64| (0..=(m + i) % 3).map(move |j| m << 8 | j);
    let mut seen = Vec::new();
    for i in 0..iters {
        half.barrier(ctx);
        let root = i as usize % half.size();
        let word = half.broadcast(ctx, root, me * 1000 + i);
        assert_eq!(word, members[root] * 1000 + i, "rank {me}: broadcast");
        let sum = half.allreduce(ctx, me + i, |a, b| a + b);
        assert_eq!(sum, members.iter().map(|m| m + i).sum(), "rank {me}");
        let all = half.allgatherv(ctx, &words(me, i).collect::<Vec<_>>());
        let want: Vec<u64> = members.iter().flat_map(|&m| words(m, i)).collect();
        assert_eq!(all, want, "rank {me}: allgatherv");
        seen.extend([word, sum]);
        seen.extend(all);
    }
    half.barrier(ctx);
    fnv1a(seen.iter().flat_map(|w| w.to_le_bytes()))
}

/// FNV-1a of a byte stream.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xCBF2_9CE4_8422_2325, |h, b| {
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
        "lulesh" | "lulesh-arrays" => {
            // `lulesh::run` rejects a rank count that is not a cube.
            let n = ctx.ranks();
            let q = (1..=n).find(|q| q * q * q >= n).expect("n³ ≥ n");
            let cfg = lulesh::LuleshConfig {
                edge: get(kv, "edge", 4),
                q,
                steps: get(kv, "steps", 3),
                transport: if mode == "lulesh" {
                    lulesh::Transport::OneSided
                } else {
                    lulesh::Transport::PgasArrays
                },
            };
            let r = lulesh::run(ctx, &cfg, None);
            fnv1a(
                [r.total_energy, r.max_speed]
                    .iter()
                    .flat_map(|x| x.to_bits().to_le_bytes()),
            )
        }
        "copy" => copy_workload(ctx),
        "teams" => teams_workload(ctx, get(kv, "iters", 4) as u64),
        "spin" => {
            // Kill-test workload: barrier rounds with real wall time in
            // between. With `die=R`, rank R's process aborts
            // `die_after_ms` into the job, and the survivors' barriers
            // must surface PeerUnreachable instead of spinning forever.
            let iters = get(kv, "iters", 2000);
            let sleep_ms = get(kv, "sleep_ms", 5);
            let dies = get(kv, "die", usize::MAX) == ctx.rank();
            let die_after = Duration::from_millis(get(kv, "die_after_ms", 0) as u64);
            let start = Instant::now();
            for _ in 0..iters {
                if dies && start.elapsed() >= die_after {
                    std::process::abort();
                }
                std::thread::sleep(Duration::from_millis(sleep_ms as u64));
                ctx.barrier();
            }
            0
        }
        other => unreachable!("mode {other:?} passed the check in main"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() < 2 {
        usage();
    }
    let mode = args[0].clone();
    if !MODES.contains(&mode.as_str()) {
        eprintln!("unknown mode {mode:?}");
        usage();
    }
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
