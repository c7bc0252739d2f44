//! Checker findings and the end-of-job report.
//!
//! A job's findings live in one list, its [`FindingSink`]. The list is
//! sorted by `(kind, key)` and holds at most one finding per key, so it
//! reads the same whichever rank thread reported first: two replays of
//! one schedule compare equal.

use rupcxx_util::sync::Mutex;
use std::sync::Arc;

/// Classification of a checker finding.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FindingKind {
    /// Two concurrent conflicting global-memory accesses.
    DataRace,
    /// A cycle in the lock wait-for graph (including a rank re-acquiring
    /// a lock it already holds).
    LockCycle,
    /// A rank entered `barrier()` while holding a `GlobalLock`.
    LockAcrossBarrier,
    /// A rank blocked on an `Event` (or future) that can never be
    /// signaled — every other rank is finished or equally stuck.
    EventNeverSignaled,
    /// Ranks disagree on the number of `barrier()` episodes: a blocked
    /// barrier whose missing participant already exited the job.
    BarrierMismatch,
    /// A software-cache hit returned data whose line was filled *before* a
    /// write that is ordered before the read — the reader synchronized
    /// with the writer without an intervening cache invalidation
    /// (`barrier()`/`fence()`), so it observed a stale value a coherent
    /// memory could never return.
    StaleCachedRead,
    /// A confirmed global deadlock that matches no more specific pattern.
    Deadlock,
}

impl std::fmt::Display for FindingKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FindingKind::DataRace => "data-race",
            FindingKind::LockCycle => "lock-cycle",
            FindingKind::LockAcrossBarrier => "lock-across-barrier",
            FindingKind::EventNeverSignaled => "event-never-signaled",
            FindingKind::BarrierMismatch => "barrier-mismatch",
            FindingKind::StaleCachedRead => "stale-cached-read",
            FindingKind::Deadlock => "deadlock",
        })
    }
}

/// One checker finding: a kind plus a deterministic human-readable
/// description carrying both operations' context (ranks, address range,
/// op labels, clock snapshots).
#[derive(Clone, Debug)]
pub struct Finding {
    /// What class of bug this is.
    pub kind: FindingKind,
    /// Deterministic description (no timestamps, no pointers).
    pub message: String,
    /// The dedup key: one finding per `(kind, key)`, and the sink's sort
    /// order after the kind. Not part of the printed finding.
    pub key: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.kind, self.message)
    }
}

/// A job's one findings list, sorted by `(kind, key)` and unique per key.
/// Tests install their own through `CheckConfig::with_sink` to assert on
/// the outcome even when the job aborts (a deadlock conviction fails the
/// job); otherwise the checker makes its own.
pub type FindingSink = Arc<Mutex<Vec<Finding>>>;

/// The schedule-independent verdict of a run: the distinct finding kinds
/// observed, sorted. Exploration dedups bugs by this (two schedules that
/// expose the same kind are the same bug), while full messages are
/// compared only across replays of the *same* schedule — they embed clock
/// snapshots that legitimately differ between delivery orders.
pub fn verdict(findings: &[Finding]) -> Vec<FindingKind> {
    let mut kinds: Vec<FindingKind> = findings.iter().map(|f| f.kind).collect();
    kinds.sort();
    kinds.dedup();
    kinds
}

/// Render the end-of-job report body.
pub fn render_report(findings: &[Finding]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "rupcxx-check report: {} finding(s)\n",
        findings.len()
    ));
    for f in findings {
        out.push_str(&format!("{f}\n"));
    }
    out
}
