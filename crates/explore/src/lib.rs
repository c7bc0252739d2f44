//! rupcxx-explore: a schedule-exploration model checker for rupcxx
//! programs.
//!
//! The controlled scheduler (`rupcxx_net::schedule`) makes AM delivery
//! order an explicit, replayable input — and on this fabric delivery
//! order is the *only* source of nondeterminism a closed SPMD program
//! observes (one-sided RMA is synchronous). That reduces "is this program
//! correct under every interleaving?" to a finite search this crate
//! drives:
//!
//! 1. [`run_schedule`] executes one program under one [`Schedule`] with
//!    the race/deadlock checker installed, returning the checker's
//!    [verdict] plus the full delivery record —
//!    which, replayed as explicit picks, reproduces the run bit-for-bit.
//! 2. [`explore`] enumerates schedules from the bug-agnostic canonical
//!    start: a DPOR-style breadth-first search over adjacent swaps of
//!    *dependent* deliveries (same destination, happens-before-concurrent
//!    by the checker's own vector clocks — independent or HB-forced pairs
//!    commute and are pruned), exhaustive up to a reorder bound with a
//!    prefix sleep set deduplicating revisited orders, plus optional
//!    seeded-random schedules beyond the bound.
//! 3. Every found bug is [`minimize`]d with `rupcxx_util::prop`'s ddmin
//!    shrinker to a 1-minimal pick list, serializable via
//!    [`Schedule::to_text`] and replayable as an ordinary `cargo test`
//!    (`RUPCXX_SCHEDULE=path`).
//!
//! Programs are built fresh for every run by a factory closure, so
//! captured state (events, atomics) cannot leak between schedules.

pub mod corpus;

use rupcxx_check::{new_sink, verdict, CheckConfig, Finding, FindingKind};
use rupcxx_net::{
    new_recorder, AggConfig, DeliveryRecord, Rank, SchedCounts, Schedule, ScheduleConfig,
};
use rupcxx_runtime::{spmd, Ctx, RuntimeConfig};
use rupcxx_util::prop::shrink_vec;
use std::collections::{HashSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

/// One closed SPMD program instance: runs on every rank, returns a
/// per-rank result fingerprint (compared bit-for-bit by the
/// schedule-independence oracle).
pub type Program = Box<dyn Fn(&Ctx) -> u64 + Send + Sync>;

/// Exploration parameters.
#[derive(Clone, Debug)]
pub struct ExploreConfig {
    /// SPMD ranks per run.
    pub ranks: usize,
    /// Segment bytes per rank.
    pub segment_bytes: usize,
    /// Run with per-destination aggregation on (the aggregated corpus
    /// pattern needs its put to stay buffered).
    pub agg: bool,
    /// Exhaustive-phase depth: maximum number of adjacent dependent swaps
    /// from the canonical order.
    pub reorder_bound: usize,
    /// Hard cap on executed schedules (exhaustive + random).
    pub max_schedules: usize,
    /// Seeded-random schedules run after the exhaustive phase.
    pub random_schedules: usize,
    /// Seed for the random phase (schedule k uses `random_seed + k`).
    pub random_seed: u64,
    /// Stale-pick tolerance per run; exploration keeps this low because
    /// ddmin probes legitimately contain unsatisfiable picks.
    pub stall_skip: Duration,
}

impl ExploreConfig {
    /// Defaults scaled for corpus-sized programs.
    pub fn new(ranks: usize) -> Self {
        ExploreConfig {
            ranks,
            segment_bytes: 1 << 16,
            agg: false,
            reorder_bound: 2,
            max_schedules: 64,
            random_schedules: 0,
            random_seed: 1,
            stall_skip: Duration::from_millis(250),
        }
    }

    /// Set the exhaustive-phase reorder bound.
    pub fn reorder_bound(mut self, bound: usize) -> Self {
        self.reorder_bound = bound;
        self
    }

    /// Cap the number of executed schedules.
    pub fn max_schedules(mut self, cap: usize) -> Self {
        self.max_schedules = cap;
        self
    }

    /// Run `n` seeded-random schedules beyond the exhaustive bound.
    pub fn random_schedules(mut self, n: usize) -> Self {
        self.random_schedules = n;
        self
    }
}

/// The observable outcome of one scheduled run.
#[derive(Debug)]
pub struct RunOutcome {
    /// Distinct finding kinds, sorted — the schedule-independent verdict.
    pub verdict: Vec<FindingKind>,
    /// Every finding, in the order recorded.
    pub findings: Vec<Finding>,
    /// Every delivery the scheduler performed, in order. Replaying
    /// [`RunOutcome::picks`] reproduces this run.
    pub record: Vec<DeliveryRecord>,
    /// Scheduler pump accounting.
    pub counts: SchedCounts,
    /// Per-rank program results; `None` when the job aborted (the
    /// deadlock checker panics the stuck rank).
    pub results: Option<Vec<u64>>,
}

impl RunOutcome {
    /// The delivery record as a replayable pick list.
    pub fn picks(&self) -> Vec<(Rank, Rank)> {
        self.record.iter().map(|d| (d.src, d.dst)).collect()
    }
}

/// Run one program instance under `schedule` with the checker installed.
pub fn run_schedule(
    cfg: &ExploreConfig,
    schedule: Schedule,
    make: &dyn Fn() -> Program,
) -> RunOutcome {
    let sink = new_sink();
    let rec = new_recorder();
    let mut rt = RuntimeConfig::new(cfg.ranks)
        .segment_bytes(cfg.segment_bytes)
        .with_check(CheckConfig::all().with_sink(sink.clone()))
        .with_schedule(
            ScheduleConfig::new(schedule)
                .with_recorder(rec.clone())
                .with_stall_skip(cfg.stall_skip),
        );
    // The schedule replaces the fault plan as the source of delivery
    // nondeterminism, and aggregation comes from the exploration config —
    // ambient RUPCXX_FAULTS/RUPCXX_AGG must not perturb the search space.
    rt.faults = None;
    rt.agg = cfg.agg.then(AggConfig::new);
    let program = make();
    let results = catch_unwind(AssertUnwindSafe(|| spmd(rt, |ctx| program(ctx)))).ok();
    let findings = sink.lock().clone();
    let (record, counts) = {
        let log = rec.lock();
        (log.deliveries.clone(), log.counts)
    };
    RunOutcome {
        verdict: verdict(&findings),
        findings,
        record,
        counts,
        results,
    }
}

/// A bug exposed by exploration. Bugs are deduplicated by verdict: two
/// schedules exposing the same finding kinds are the same bug.
#[derive(Clone, Debug)]
pub struct FoundBug {
    /// The exposing run's verdict (sorted distinct finding kinds).
    pub verdict: Vec<FindingKind>,
    /// The exposing run's findings.
    pub findings: Vec<Finding>,
    /// The exposing run's full delivery record as picks — replaying them
    /// reproduces the run.
    pub picks: Vec<(Rank, Rank)>,
    /// The ddmin-shrunk pick list (every pick necessary for the verdict).
    pub minimized: Vec<(Rank, Rank)>,
}

impl FoundBug {
    /// The minimized schedule, ready for [`Schedule::to_text`].
    pub fn minimized_schedule(&self) -> Schedule {
        Schedule::with_picks(self.minimized.clone())
    }
}

/// What an [`explore`] call did: bugs found plus coverage accounting.
#[derive(Debug, Default)]
pub struct Exploration {
    /// Bugs found, deduplicated by verdict, each with a minimized
    /// schedule.
    pub bugs: Vec<FoundBug>,
    /// Schedules actually executed.
    pub explored: usize,
    /// Candidate swaps dropped because the resulting order was already
    /// covered by an executed run (prefix sleep set).
    pub pruned_sleep: usize,
    /// Adjacent pairs not swapped because they are ordered — same-link
    /// FIFO or happens-before by the piggybacked vector clocks.
    pub pruned_hb: usize,
    /// Adjacent pairs not swapped because they commute (different
    /// destination inboxes — a closed program cannot observe the order).
    pub pruned_independent: usize,
    /// Candidate swaps beyond the reorder bound.
    pub pruned_bound: usize,
    /// True when `max_schedules` cut the search short.
    pub truncated: bool,
}

impl Exploration {
    /// The found bug whose verdict contains `kind`, if any.
    pub fn bug_with(&self, kind: FindingKind) -> Option<&FoundBug> {
        self.bugs.iter().find(|b| b.verdict.contains(&kind))
    }
}

/// Enumerate delivery schedules for the program from the bug-agnostic
/// canonical start; see the crate docs for the search structure. Every
/// returned bug carries a minimized replayable schedule.
pub fn explore(cfg: &ExploreConfig, make: &dyn Fn() -> Program) -> Exploration {
    let mut ex = Exploration::default();
    // The sleep set: every delivery-order prefix an executed run has
    // realized, plus every queued candidate. A candidate swap landing on
    // a member would re-explore a covered order.
    let mut visited: HashSet<Vec<(Rank, Rank)>> = HashSet::new();
    let mut queue: VecDeque<(Vec<(Rank, Rank)>, usize)> = VecDeque::new();
    visited.insert(Vec::new());
    queue.push_back((Vec::new(), 0));
    while let Some((picks, depth)) = queue.pop_front() {
        if ex.explored >= cfg.max_schedules {
            ex.truncated = true;
            break;
        }
        let out = run_schedule(cfg, Schedule::with_picks(picks), make);
        ex.explored += 1;
        let run_picks = out.picks();
        for i in 0..=run_picks.len() {
            visited.insert(run_picks[..i].to_vec());
        }
        if !out.verdict.is_empty() && !ex.bugs.iter().any(|b| b.verdict == out.verdict) {
            ex.bugs.push(FoundBug {
                verdict: out.verdict.clone(),
                findings: out.findings.clone(),
                picks: run_picks.clone(),
                minimized: Vec::new(),
            });
        }
        for i in 0..run_picks.len().saturating_sub(1) {
            let (a, b) = (&out.record[i], &out.record[i + 1]);
            if a.src == b.src && a.dst == b.dst {
                // Same link: per-link FIFO makes the order a program
                // invariant, not a schedule choice.
                ex.pruned_hb += 1;
                continue;
            }
            if a.dst != b.dst {
                // Different inboxes commute: no rank observes the order.
                ex.pruned_independent += 1;
                continue;
            }
            if let (Some(ca), Some(cb)) = (&a.clock, &b.clock) {
                if !ca.concurrent_with(cb) {
                    // The sends are happens-before ordered: any schedule
                    // satisfying the program delivers them this way.
                    ex.pruned_hb += 1;
                    continue;
                }
            }
            if depth + 1 > cfg.reorder_bound {
                ex.pruned_bound += 1;
                continue;
            }
            let mut child: Vec<(Rank, Rank)> = run_picks[..i].to_vec();
            child.push((b.src, b.dst));
            child.push((a.src, a.dst));
            if !visited.insert(child.clone()) {
                ex.pruned_sleep += 1;
                continue;
            }
            queue.push_back((child, depth + 1));
        }
    }
    for k in 0..cfg.random_schedules {
        if ex.explored >= cfg.max_schedules {
            ex.truncated = true;
            break;
        }
        let seed = cfg.random_seed.wrapping_add(k as u64);
        let out = run_schedule(cfg, Schedule::random(seed), make);
        ex.explored += 1;
        let run_picks = out.picks();
        for i in 0..=run_picks.len() {
            visited.insert(run_picks[..i].to_vec());
        }
        if !out.verdict.is_empty() && !ex.bugs.iter().any(|b| b.verdict == out.verdict) {
            ex.bugs.push(FoundBug {
                verdict: out.verdict.clone(),
                findings: out.findings.clone(),
                picks: run_picks.clone(),
                minimized: Vec::new(),
            });
        }
    }
    for bug in &mut ex.bugs {
        bug.minimized = minimize(cfg, make, bug.picks.clone(), &bug.verdict);
    }
    ex
}

/// Shrink an exposing pick list to a 1-minimal one that still produces
/// every finding kind in `target` (ddmin over runs; deterministic).
/// Falls back to the input when the full replay itself no longer exposes
/// the bug (possible when the exposing record was truncated mid-abort).
pub fn minimize(
    cfg: &ExploreConfig,
    make: &dyn Fn() -> Program,
    picks: Vec<(Rank, Rank)>,
    target: &[FindingKind],
) -> Vec<(Rank, Rank)> {
    let exposes = |cand: &[(Rank, Rank)]| {
        let v = run_schedule(cfg, Schedule::with_picks(cand.to_vec()), make).verdict;
        target.iter().all(|k| v.contains(k))
    };
    if !exposes(&picks) {
        return picks;
    }
    if exposes(&[]) {
        // The canonical order already exposes the bug — the program is
        // schedule-independent and the minimal schedule is empty.
        return Vec::new();
    }
    shrink_vec(picks, exposes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// 2 ranks, 3 messages, all on the single link 0->1.
    fn chain_program() -> Program {
        let hits = Arc::new(AtomicUsize::new(0));
        Box::new(move |ctx| {
            if ctx.rank() == 0 {
                for _ in 0..3 {
                    let h = hits.clone();
                    ctx.send_task(1, move || {
                        h.fetch_add(1, Ordering::SeqCst);
                    });
                }
            } else {
                let h = hits.clone();
                ctx.wait_until(|| h.load(Ordering::SeqCst) == 3);
            }
            0
        })
    }

    /// 3 ranks, one concurrent same-destination pair: 1->0 and 2->0.
    fn pair_program() -> Program {
        let hits = Arc::new(AtomicUsize::new(0));
        Box::new(move |ctx| {
            if ctx.rank() == 0 {
                let h = hits.clone();
                ctx.wait_until(|| h.load(Ordering::SeqCst) == 2);
            } else {
                let h = hits.clone();
                ctx.send_task(0, move || {
                    h.fetch_add(1, Ordering::SeqCst);
                });
            }
            0
        })
    }

    /// Coverage accounting, pinned: a 2-rank, 3-message program has no
    /// schedule choices at all — one canonical run, both adjacent pairs
    /// FIFO-forced on the same link.
    #[test]
    fn counts_pinned_single_link_chain() {
        let ex = explore(&ExploreConfig::new(2), &chain_program);
        assert!(ex.bugs.is_empty(), "clean program, found {:?}", ex.bugs);
        assert_eq!(ex.explored, 1);
        assert_eq!(ex.pruned_hb, 2);
        assert_eq!(ex.pruned_sleep, 0);
        assert_eq!(ex.pruned_independent, 0);
        assert_eq!(ex.pruned_bound, 0);
        assert!(!ex.truncated);
    }

    /// Coverage accounting, pinned: one concurrent pair gives exactly two
    /// orders; the second run's only swap re-proposes the first order,
    /// which the prefix sleep set rejects.
    #[test]
    fn counts_pinned_concurrent_pair() {
        let ex = explore(&ExploreConfig::new(3), &pair_program);
        assert!(ex.bugs.is_empty(), "clean program, found {:?}", ex.bugs);
        assert_eq!(ex.explored, 2);
        assert_eq!(ex.pruned_sleep, 1);
        assert_eq!(ex.pruned_hb, 0);
        assert_eq!(ex.pruned_independent, 0);
        assert_eq!(ex.pruned_bound, 0);
        assert!(!ex.truncated);
    }

    /// `max_schedules` truncates the search and says so.
    #[test]
    fn truncation_is_reported() {
        let ex = explore(&ExploreConfig::new(3).max_schedules(1), &pair_program);
        assert_eq!(ex.explored, 1);
        assert!(ex.truncated);
    }

    /// The random phase executes and counts its runs; on a single-link
    /// program every random schedule degenerates to the same FIFO order.
    #[test]
    fn random_phase_counts_runs() {
        let ex = explore(&ExploreConfig::new(2).random_schedules(2), &chain_program);
        assert!(ex.bugs.is_empty());
        assert_eq!(ex.explored, 3);
    }

    /// A run's delivery record replays bit-for-bit: same picks, same
    /// record, same (empty) verdict.
    #[test]
    fn record_replays_itself() {
        let cfg = ExploreConfig::new(2);
        let base = run_schedule(&cfg, Schedule::canonical(), &chain_program);
        assert!(base.verdict.is_empty());
        let replay = run_schedule(&cfg, Schedule::with_picks(base.picks()), &chain_program);
        assert_eq!(base.picks(), replay.picks());
        assert_eq!(replay.counts.scheduled, 3);
        assert_eq!(replay.results, Some(vec![0, 0]));
    }
}
