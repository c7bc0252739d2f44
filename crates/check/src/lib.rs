//! rupcxx-check: an online happens-before race and deadlock checker for
//! rupcxx PGAS programs.
//!
//! The checker maintains one vector clock per rank, advanced by every
//! synchronization edge the runtime executes — barriers, fences, event
//! signal/wait, lock hand-offs, finish scopes, and (crucially) every
//! active-message delivery, which is the substrate all the collectives
//! and completion replies are built on. Every global-memory access is
//! recorded against the target segment's shadow memory as
//! `(initiator, byte range, read|write|atomic, clock)`; two overlapping,
//! conflicting, mutually-unordered accesses are reported as a data race
//! with both operations' context. A wait-for-graph pass run from the idle
//! loop flags lock cycles, locks held across `barrier()`, waits on events
//! that can never be signaled, and mismatched barrier arrival counts.
//!
//! Enable with `RUPCXX_CHECK=race|deadlock|all[,<report-path>]` (or
//! programmatically via [`CheckConfig`]). When disabled the runtime pays
//! one untaken branch per hook and nothing else.

mod checker;
mod clock;
mod findings;
mod shadow;

pub use checker::{Checker, LockKey, WaitInfo};
pub use clock::{Stamp, VClock};
pub use findings::{render_report, verdict, Finding, FindingKind, FindingSink};
pub use shadow::{AccessKind, AccessRecord, Shadow, SHADOW_PRUNE_THRESHOLD};

use rupcxx_util::sync::Mutex;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Checker configuration, normally parsed from `RUPCXX_CHECK`.
#[derive(Clone, Default)]
pub struct CheckConfig {
    /// Run the happens-before data-race pass.
    pub race: bool,
    /// Run the wait-for-graph deadlock/misuse pass.
    pub deadlock: bool,
    /// Optional path the end-of-job report is written to.
    pub report_path: Option<String>,
    /// Optional list for the checker to keep its findings in (tests pass
    /// one to observe findings across an aborting job).
    pub sink: Option<FindingSink>,
}

impl std::fmt::Debug for CheckConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CheckConfig")
            .field("race", &self.race)
            .field("deadlock", &self.deadlock)
            .field("report_path", &self.report_path)
            .field("sink", &self.sink.as_ref().map(|_| "FindingSink"))
            .finish()
    }
}

impl CheckConfig {
    /// Both passes on.
    pub fn all() -> Self {
        CheckConfig {
            race: true,
            deadlock: true,
            ..CheckConfig::default()
        }
    }

    /// Race pass only.
    pub fn race() -> Self {
        CheckConfig {
            race: true,
            ..CheckConfig::default()
        }
    }

    /// Deadlock pass only.
    pub fn deadlock() -> Self {
        CheckConfig {
            deadlock: true,
            ..CheckConfig::default()
        }
    }

    /// Keep the findings in `sink`.
    pub fn with_sink(mut self, sink: FindingSink) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Parse a `RUPCXX_CHECK` value. `Ok(None)` means explicitly off;
    /// `Err` carries a description of what was wrong.
    pub fn parse(raw: &str) -> Result<Option<Self>, String> {
        let raw = raw.trim();
        let (mode, path) = match raw.split_once(',') {
            Some((m, p)) => (m.trim(), Some(p.trim())),
            None => (raw, None),
        };
        if let Some(p) = path {
            if p.is_empty() {
                return Err("empty report path after ','".to_string());
            }
        }
        let mut cfg = match mode {
            "" | "off" | "0" | "none" => {
                if path.is_some() {
                    return Err("report path given but checking is off".to_string());
                }
                return Ok(None);
            }
            "race" => CheckConfig::race(),
            "deadlock" => CheckConfig::deadlock(),
            "all" | "on" | "1" => CheckConfig::all(),
            other => return Err(format!("unknown mode {other:?}")),
        };
        cfg.report_path = path.map(str::to_string);
        Ok(Some(cfg))
    }

    /// Read `RUPCXX_CHECK` from the environment; malformed values abort
    /// with a clear message.
    pub fn from_env() -> Option<Self> {
        rupcxx_util::env::parse_env(
            "RUPCXX_CHECK",
            "race|deadlock|all[,<report-path>]",
            CheckConfig::parse,
        )
    }
}

// ---- thread-local current checker ---------------------------------------
//
// `Event::signal` has no ctx parameter, so it cannot reach the fabric's
// checker directly. The SPMD launcher instead pins `(checker, rank)` in
// thread-local storage for every rank and progress thread of a checked
// job. `ANY_ACTIVE` is the global fast gate: until some checked job has
// run in this process, the hook is one relaxed load and an untaken branch.

static ANY_ACTIVE: AtomicBool = AtomicBool::new(false);

thread_local! {
    static CURRENT: RefCell<Option<(Arc<Checker>, usize)>> = const { RefCell::new(None) };
}

/// Pin `checker` as the current thread's checker, acting as `rank`.
/// Called by the SPMD launcher at rank/progress thread startup.
pub fn set_current(checker: Arc<Checker>, rank: usize) {
    ANY_ACTIVE.store(true, Ordering::Release);
    CURRENT.with(|c| *c.borrow_mut() = Some((checker, rank)));
}

/// Run `f` with the current thread's checker, if one is pinned.
#[inline]
pub fn with_current(f: impl FnOnce(&Arc<Checker>, usize)) {
    if !ANY_ACTIVE.load(Ordering::Relaxed) {
        return;
    }
    CURRENT.with(|c| {
        if let Some((checker, rank)) = c.borrow().as_ref() {
            f(checker, *rank);
        }
    });
}

/// Shared registry keyed by job so all ranks of one [`CheckConfig`] use
/// one [`Checker`]. The fabric owns the instance; this helper just wraps
/// construction so `crates/net` does not need the config details.
pub fn build(ranks: usize, cfg: &CheckConfig) -> Arc<Checker> {
    Arc::new(Checker::new(ranks, cfg.clone()))
}

/// A fresh empty findings list.
pub fn new_sink() -> FindingSink {
    Arc::new(Mutex::new(Vec::new()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_modes() {
        assert!(CheckConfig::parse("off").unwrap().is_none());
        assert!(CheckConfig::parse("").unwrap().is_none());
        let r = CheckConfig::parse("race").unwrap().unwrap();
        assert!(r.race && !r.deadlock);
        let d = CheckConfig::parse("deadlock").unwrap().unwrap();
        assert!(!d.race && d.deadlock);
        let a = CheckConfig::parse("all,/tmp/report.txt").unwrap().unwrap();
        assert!(a.race && a.deadlock);
        assert_eq!(a.report_path.as_deref(), Some("/tmp/report.txt"));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(CheckConfig::parse("racy").is_err());
        assert!(CheckConfig::parse("all,").is_err());
        assert!(CheckConfig::parse("off,/tmp/x").is_err());
    }
}
