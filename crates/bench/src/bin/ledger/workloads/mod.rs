//! The seven end-to-end workloads and the child process that runs one.
//!
//! Every workload is a 2-rank closed loop: each rank issues its next op
//! when the previous one returns. A child process runs exactly one
//! workload: set-up, one untimed warm-up rep, then timed reps from
//! barrier to barrier, and prints one JSON line. The parent
//! (`launch.rs`) only waits for it.

mod get;
mod gups;
mod halo;
mod sort;
mod tasks;

use crate::json::Value;
use crate::span::Span;
use crate::{counting, pin, span};
use rupcxx::prelude::*;
use rupcxx_bench::calibrate::Calibration;
use rupcxx_util::SplitMix64;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant, SystemTime};

/// Ranks of every workload — the core count of the reference host.
pub const RANKS: usize = 2;

/// Name and reason of each workload, in launch order.
pub const WORKLOADS: [(&str, &str); 7] = [
    (
        "gups_word",
        "fine-grained remote atomic writes through the SharedArray proxy onto the xor_u64 word fast path",
    ),
    (
        "gups_agg",
        "same update stream through pack, batch AM, inbox, advance and apply_frame; bypasses the word path",
    ),
    (
        "get_word",
        "blocking remote word reads at seeded-random indices, cache off: the get side of the word path",
    ),
    (
        "get_cached",
        "sequential remote sweeps through the read cache: hit path, line fill and sync-point invalidation",
    ),
    (
        "tasks",
        "finish/spawn and blocking async_on round trips: closure task, inbox, progress engine, reply AM; no RMA",
    ),
    (
        "halo",
        "3-D stencil ghost exchange: ndarray strided face copy, async_copy fence and barrier per iteration",
    ),
    (
        "sort",
        "sample sort: collectives and bulk contiguous copy around a dominant local sort; should stay flat",
    ),
];

/// What the driver asks a workload's rep closure to do.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Untimed per-rep preparation, called before every other mode: a
    /// workload whose inputs change from rep to rep works out the
    /// expected output here. The return value is ignored.
    Prepare,
    /// The untimed first rep (GUPS also runs its involution check here).
    Warmup,
    /// A timed rep.
    Timed,
    /// The same rep replayed stage by stage under spans (`chain.*`).
    Staged,
}

/// The rep closure a workload hands to the driver; returns whether the
/// rep's outputs checked out.
pub type RepFn<'a> = dyn FnMut(Mode) -> bool + 'a;

/// One workload. `rank_body` runs on every rank: it sets the workload up,
/// passes its rep closure to `drive` (which runs warm-up and reps), and
/// tears down.
pub trait Workload: Sync {
    fn config(&self) -> RuntimeConfig;
    /// Native ops of one rep, both ranks together.
    fn ops_per_rep(&self) -> u64;
    fn rank_body(&self, ctx: &Ctx, drive: &mut dyn FnMut(&mut RepFn<'_>));
}

/// Build workload `name` for `seed`. `launch` tells the children of one
/// run apart, for workloads that vary their inputs from rep to rep.
pub fn by_name(name: &str, seed: u64, launch: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "gups_word" => Box::new(gups::Gups::word()),
        "gups_agg" => Box::new(gups::Gups::agg()),
        "get_word" => Box::new(get::GetWord::new(seed)),
        "get_cached" => Box::new(get::GetCached),
        "tasks" => Box::new(tasks::Tasks),
        "halo" => Box::new(halo::Halo),
        "sort" => Box::new(sort::Sort::new(seed, launch)),
        _ => return None,
    })
}

/// A stream seed derived from the run seed and a per-use salt.
pub fn derive_seed(seed: u64, salt: u64) -> u64 {
    SplitMix64::new(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

/// Value stored at index `i` of the `get_*` tables; any index stream then
/// has a closed-form expected fold.
#[inline]
pub fn table_value(i: usize) -> u64 {
    (i as u64 ^ 0xA5A5).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// How many timed reps a child runs: at least `min`, and on until
/// `budget_ms` milliseconds since process start have passed (a budget of
/// 0 therefore means exactly `min`).
#[derive(Clone, Copy, Debug)]
pub struct RepPlan {
    pub min: usize,
    pub budget_ms: u64,
}

impl RepPlan {
    /// Exactly `n` reps.
    pub fn fixed(n: usize) -> Self {
        RepPlan {
            min: n,
            budget_ms: 0,
        }
    }
}

/// What a child is asked to do after its warm-up.
#[derive(Clone, Copy, Debug)]
pub struct ChildPlan {
    pub reps: RepPlan,
    /// Staged reps to run with spans off and then with spans on (0 for
    /// `ledger run`, which never traces).
    pub staged: usize,
}

/// Bytes charged per active message on top of its payload. A closure
/// task has no payload the counters can see (`am_bytes` stays 0), so
/// without an envelope `tasks` would move no bytes at all — and would
/// appear to start moving some the day closures become fn-id + packed
/// arguments. 64 is what the fabric's own wire model (`send_am`) charges
/// an opaque task AM.
const AM_ENVELOPE_BYTES: u64 = 64;

/// Hard cap on budgeted reps, so a mis-set clock cannot spin forever.
const MAX_BUDGET_REPS: usize = 1000;
/// Calibration drift beyond which a child's numbers are marked noisy.
pub const NOISY_DRIFT_PCT: f64 = 10.0;

/// One-way hand-off time under which the two ranks' CPUs share a core.
/// The reference host is a 2-vCPU guest whose vCPUs are threads of the
/// machine underneath: most of the time they sit on two cores of one
/// socket (a line takes 55–130 ns to cross), but for a second or a minute
/// at a time they are hyperthreads of one core (10–23 ns) — every
/// cross-rank line then moves through a shared L1, `tasks` runs 4× as
/// fast and compute-bound reps slower. That is another machine, not noise
/// around this one, so reps measured on it are kept out of the timings
/// (see `run::summarize`), the way a noisy child is.
pub const COLOCATED_LINK_NS: f64 = 35.0;

/// Round trips of one [`core_link_ns`] probe, timed in four chunks.
const LINK_ROUND_TRIPS: u64 = 1024;

/// The line the two ranks bounce; values only ever grow.
#[repr(align(64))]
struct Ball(AtomicU64);
static BALL: Ball = Ball(AtomicU64::new(0));

/// How long one cache line takes from one rank's CPU to the other's, in
/// ns: both ranks bounce a line `LINK_ROUND_TRIPS` times (≈0.2 ms), rank 0
/// times it and returns the fastest chunk's one-way time; rank 1 returns
/// 0. `probes` counts this rank's calls, so both ranks agree on the values
/// of a probe without reading the line first.
fn core_link_ns(ctx: &Ctx, probes: &mut u64) -> f64 {
    let wait_for = |want: u64| {
        let mut spins = 0u32;
        while BALL.0.load(Ordering::Acquire) != want {
            spins += 1;
            // Ranks that share one CPU (an undersized host) must let
            // each other run.
            if spins > 1 << 14 {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    };
    let base = *probes * 2 * LINK_ROUND_TRIPS;
    *probes += 1;
    let chunk = LINK_ROUND_TRIPS / 4;
    let mut best = f64::INFINITY;
    ctx.barrier();
    for c in 0..4 {
        let t = Instant::now();
        for i in c * chunk..(c + 1) * chunk {
            let ball = base + 2 * i;
            if ctx.rank() == 0 {
                BALL.0.store(ball + 1, Ordering::Release);
                wait_for(ball + 2);
            } else {
                wait_for(ball + 1);
                BALL.0.store(ball + 2, Ordering::Release);
            }
        }
        best = best.min(t.elapsed().as_nanos() as f64 / (2 * chunk) as f64);
    }
    if ctx.rank() == 0 {
        best
    } else {
        0.0
    }
}

struct RankOut {
    warm_ok: bool,
    setup_end: SystemTime,
    rep_s: Vec<f64>,
    rep_ok: Vec<bool>,
    staged_off_s: Vec<f64>,
    staged_on_s: Vec<f64>,
    staged_ok: bool,
    /// Per timed rep, the shorter of the core-link probes before and
    /// after it (rank 0 only).
    rep_link_ns: Vec<f64>,
    /// The same for the warm-up rep, which is part of `setup_s`.
    setup_link_ns: f64,
    /// Bytes this rank allocated in each timed rep.
    rep_alloc_bytes: Vec<f64>,
    wire_msgs: u64,
    wire_bytes: u64,
    calib_before: f64,
    calib_after: f64,
}

fn vm_hwm_kib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|v| v.parse().ok()))
        })
        .unwrap_or(0.0)
}

/// Per rep, the slowest rank's time.
fn max_over_ranks(outs: &[RankOut], series: fn(&RankOut) -> &Vec<f64>) -> Vec<f64> {
    let n = outs.iter().map(|o| series(o).len()).min().unwrap_or(0);
    (0..n)
        .map(|i| outs.iter().map(|o| series(o)[i]).fold(0.0, f64::max))
        .collect()
}

/// Run `workload` in this process and return the child's result object
/// (printed by the caller as one line). `t0` is the wall-clock instant
/// the parent spawned us, so `setup_s` includes process start-up;
/// `started` is this process's own start, the base of a rep budget.
pub fn run_child(
    name: &'static str,
    workload: &dyn Workload,
    plan: ChildPlan,
    t0: SystemTime,
    started: Instant,
) -> (Value, Vec<Span>) {
    let root = span::enter("bench", "workload", 0);
    let root_id = span::current();
    // Plain reps run with the ledger's own recorder off as well; only the
    // traced half of the staged reps turns it on.
    span::set_enabled(false);
    let outs = spmd(workload.config(), |ctx| {
        let pinned = pin::pin_to_slot(ctx.rank(), RANKS);
        span::adopt(name, root_id);
        let mut out: Option<RankOut> = None;
        workload.rank_body(ctx, &mut |rep: &mut RepFn<'_>| {
            out = Some(drive_rank(ctx, rep, plan, started));
        });
        span::flush();
        // Where in a cache line the allocator put the fabric's endpoint
        // array: which of its fields share a line, and with it the cost
        // of the two-rank word path, follows from this
        // (`net.fabric.placement_worst_x`). On record so that a change
        // that merely moves the array shows as that.
        let line_offset = std::ptr::from_ref(ctx.fabric().endpoint(0)) as usize % 64;
        (
            out.expect("workload never called its driver"),
            pinned,
            line_offset,
        )
    });
    let pinned = outs.iter().all(|(_, p, _)| *p);
    let line_offset = outs[0].2;
    let outs: Vec<RankOut> = outs.into_iter().map(|(o, ..)| o).collect();
    drop(root);

    let rep_s = max_over_ranks(&outs, |o| &o.rep_s);
    let staged_off_s = max_over_ranks(&outs, |o| &o.staged_off_s);
    let staged_on_s = max_over_ranks(&outs, |o| &o.staged_on_s);
    // Per rep, what both ranks allocated.
    let rep_alloc_bytes: Vec<f64> = (0..rep_s.len())
        .map(|i| outs.iter().map(|o| o.rep_alloc_bytes[i]).sum())
        .collect();
    let rep_ok: Vec<bool> = (0..rep_s.len())
        .map(|i| outs.iter().all(|o| o.rep_ok[i]))
        .collect();
    let setup_s = outs[0]
        .setup_end
        .duration_since(t0)
        .unwrap_or(Duration::ZERO)
        .as_secs_f64();
    // Both rank threads calibrate at once, one per core; the slower of
    // the two is what a rep (max over ranks) would feel.
    let calib = |f: fn(&RankOut) -> f64| outs.iter().map(f).fold(f64::INFINITY, f64::min);
    let (before, after) = (calib(|o| o.calib_before), calib(|o| o.calib_after));
    let drift_pct = (after - before).abs() / before * 100.0;
    let result = Value::obj([
        ("workload", Value::Str(name.into())),
        ("ops_per_rep", Value::Num(workload.ops_per_rep() as f64)),
        ("warm_ok", Value::Bool(outs.iter().all(|o| o.warm_ok))),
        ("setup_s", Value::Num(setup_s)),
        ("rep_s", Value::nums(&rep_s)),
        (
            "rep_ok",
            Value::Arr(rep_ok.into_iter().map(Value::Bool).collect()),
        ),
        ("staged_off_s", Value::nums(&staged_off_s)),
        ("staged_on_s", Value::nums(&staged_on_s)),
        ("staged_ok", Value::Bool(outs.iter().all(|o| o.staged_ok))),
        ("wire_msgs", Value::Num(outs[0].wire_msgs as f64)),
        ("wire_bytes", Value::Num(outs[0].wire_bytes as f64)),
        ("rep_link_ns", Value::nums(&outs[0].rep_link_ns)),
        ("setup_link_ns", Value::Num(outs[0].setup_link_ns)),
        ("rep_alloc_bytes", Value::nums(&rep_alloc_bytes)),
        ("peak_rss_kib", Value::Num(vm_hwm_kib())),
        ("calib_before_flops", Value::Num(before)),
        ("calib_after_flops", Value::Num(after)),
        ("calib_drift_pct", Value::Num(drift_pct)),
        ("noisy", Value::Bool(drift_pct > NOISY_DRIFT_PCT)),
        ("pinned", Value::Bool(pinned)),
        ("endpoints_line_offset", Value::Num(line_offset as f64)),
    ]);
    // A chain child also reconciles its stage spans with its plain reps.
    let spans = span::take_all();
    let Value::Obj(mut pairs) = result else {
        unreachable!("built as an object above")
    };
    let ops_per_rank = workload.ops_per_rep() as f64 / RANKS as f64;
    pairs.extend(crate::layers::chain_members(
        &spans,
        ops_per_rank,
        &rep_s,
        (&staged_off_s, &staged_on_s),
    ));
    (Value::Obj(pairs), spans)
}

/// One rank's share of a child: warm-up, calibration, timed reps,
/// optional staged reps, calibration.
fn drive_rank(ctx: &Ctx, rep: &mut RepFn<'_>, plan: ChildPlan, started: Instant) -> RankOut {
    let mut probes = 0u64;
    rep(Mode::Prepare);
    let link_before_warmup = core_link_ns(ctx, &mut probes);
    ctx.barrier();
    let warm_ok = rep(Mode::Warmup);
    ctx.barrier();
    let setup_end = SystemTime::now();
    let calib_before = Calibration::measure().host_flops;

    // Counter snapshots are taken by rank 0 between two barriers, so no
    // rank is mid-op while the per-endpoint counters are summed.
    ctx.barrier();
    let counts0 = ctx.fabric().total_counts();
    ctx.barrier();

    let mut rep_s = Vec::new();
    let mut rep_ok = Vec::new();
    let mut rep_alloc_bytes = Vec::new();
    // `links[i]` is probed before timed rep `i`, `links[i + 1]` after it.
    let mut links = Vec::new();
    loop {
        rep(Mode::Prepare);
        links.push(core_link_ns(ctx, &mut probes));
        ctx.barrier();
        let alloc0 = counting::thread_bytes();
        let t = Instant::now();
        let ok = rep(Mode::Timed);
        ctx.barrier();
        rep_s.push(t.elapsed().as_secs_f64());
        rep_ok.push(ok);
        rep_alloc_bytes.push((counting::thread_bytes() - alloc0) as f64);
        let RepPlan { min, budget_ms } = plan.reps;
        let more = rep_s.len() < min
            || (budget_ms > 0 && {
                let mine = started.elapsed() < Duration::from_millis(budget_ms)
                    && rep_s.len() < MAX_BUDGET_REPS;
                // Rank 0 decides, so both ranks stop after the same rep.
                ctx.broadcast(0, u64::from(mine)) == 1
            });
        if !more {
            break;
        }
    }

    links.push(core_link_ns(ctx, &mut probes));
    ctx.barrier();
    let counts = ctx.fabric().total_counts().since(&counts0);
    ctx.barrier();

    // Staged reps: first with the recorder off (what staging alone
    // costs), then on (what recording costs on top).
    let mut staged = |on: bool| -> (Vec<f64>, bool) {
        let mut secs = Vec::new();
        let mut all_ok = true;
        for _ in 0..plan.staged {
            rep(Mode::Prepare);
            ctx.barrier();
            if ctx.rank() == 0 {
                span::set_enabled(on);
            }
            ctx.barrier();
            let _rep_span = span::enter("bench", "staged_rep", 0);
            let t = Instant::now();
            all_ok &= rep(Mode::Staged);
            ctx.barrier();
            secs.push(t.elapsed().as_secs_f64());
        }
        (secs, all_ok)
    };
    let (staged_off_s, ok_off) = staged(false);
    let (staged_on_s, ok_on) = staged(true);
    ctx.barrier();
    if ctx.rank() == 0 {
        span::set_enabled(false);
    }
    ctx.barrier();

    let calib_after = Calibration::measure().host_flops;
    RankOut {
        warm_ok,
        setup_end,
        rep_s,
        rep_ok,
        staged_off_s,
        staged_on_s,
        staged_ok: ok_off && ok_on,
        rep_link_ns: links.windows(2).map(|w| w[0].min(w[1])).collect(),
        setup_link_ns: link_before_warmup.min(links[0]),
        rep_alloc_bytes,
        wire_msgs: counts.remote_ops(),
        wire_bytes: counts.total_bytes() + AM_ENVELOPE_BYTES * counts.ams_sent,
        calib_before,
        calib_after,
    }
}
