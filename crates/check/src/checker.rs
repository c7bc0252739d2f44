//! The online checker: per-rank vector clocks, shadow memory, lock/event
//! bookkeeping and the wait-for deadlock scan.
//!
//! One [`Checker`] is shared by every rank of a job (the fabric holds it
//! the way it holds the fault plan). All hooks are cheap mutex-guarded
//! updates; the runtime only calls them when the checker is installed, so
//! the unchecked path never pays more than one untaken branch.

use crate::clock::{Stamp, VClock};
use crate::findings::{render_report, Finding, FindingKind};
use crate::shadow::{AccessKind, AccessRecord, Shadow};
use crate::CheckConfig;
use rupcxx_util::sync::{CachePadded, Mutex};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// A lock's identity: the (rank, offset) of its word in the global
/// address space — stable and deterministic, unlike host pointers.
pub type LockKey = (usize, usize);

/// What a blocked rank is waiting for: the one descriptor every blocking
/// construct hands to the runtime's `Ctx::wait_on`, which brackets the
/// wait with [`Checker::wait_begin`] and [`Checker::wait_end`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WaitInfo {
    /// Blocked inside a barrier episode of the team whose mailbox domain
    /// is `domain` (0 = the world's `barrier()`), the `seq`-th collective
    /// of that team on this rank.
    Barrier { domain: u64, seq: u64 },
    /// Blocked in a collective of the team `domain`, waiting for arrivals
    /// under the mailbox key `key`.
    Collective { domain: u64, key: u64 },
    /// Blocked in `agg_fence`'s quiescence wait.
    Fence,
    /// Throttled inside a buffered call: all `window` of the rank's
    /// aggregation slabs are out, and it waits for a peer to apply a
    /// batch and send one home. A full window means batches in flight,
    /// and the scan convicts nobody while anything is.
    AggWindow { window: usize },
    /// Blocked acquiring a `GlobalLock`.
    Lock {
        /// The lock's global word.
        lock: LockKey,
    },
    /// Blocked in `Event::wait` on the event `key` (its core's address).
    Event { key: usize },
    /// Blocked in `RtFuture::get`.
    Future,
    /// Blocked at the end of a `finish` scope.
    Finish,
    /// Blocked on a two-sided request of the MPI baseline.
    Request,
}

impl std::fmt::Display for WaitInfo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WaitInfo::Barrier { domain, seq } => {
                write!(f, "barrier (domain {domain}, seq {seq})")
            }
            WaitInfo::Collective { domain, key } => {
                write!(f, "collective (domain {domain}, key {key})")
            }
            WaitInfo::Fence => f.write_str("aggregation fence"),
            WaitInfo::AggWindow { window } => {
                write!(f, "aggregation window ({window} slabs out)")
            }
            WaitInfo::Lock { lock } => write!(f, "lock ({}, 0x{:x})", lock.0, lock.1),
            WaitInfo::Event { .. } => f.write_str("event wait"),
            WaitInfo::Future => f.write_str("future get"),
            WaitInfo::Finish => f.write_str("finish scope"),
            WaitInfo::Request => f.write_str("two-sided request"),
        }
    }
}

#[derive(Default)]
struct LockState {
    owner: Option<usize>,
    /// Clock of the most recent release — joined by the next acquirer,
    /// which is what orders two critical sections on the same lock.
    release: Option<Stamp>,
}

#[derive(Default)]
struct ScanState {
    /// The first stuck sighting of the current wait-table epoch, with
    /// every rank's poll tick at that moment. A deadlock is only reported
    /// when a later scan sees the identical epoch (no wait registered or
    /// cleared in between — nothing moved) *and* every waiting rank has
    /// polled its condition since: a rank that was merely descheduled
    /// between the scans may be satisfiable already.
    first_stuck: Option<(u64, Vec<u64>)>,
}

/// The shared checker instance for one SPMD job.
pub struct Checker {
    cfg: CheckConfig,
    ranks: usize,
    clocks: Box<[Mutex<VClock>]>,
    shadows: Box<[Mutex<Shadow>]>,
    /// Per rank, the fill stamp of the oldest line its read cache may
    /// still hold. A cached hit is checked against its line's *fill*, so
    /// the prune frontier must not pass a live fill: see `min_clock`.
    cache_floors: Box<[Mutex<Option<Stamp>>]>,
    /// Per-event accumulated signal clocks, keyed by the event core's
    /// address. (An address can be reused after an event is dropped; the
    /// stale join that could produce is an extra HB edge — it can mask a
    /// race, never invent one.)
    event_clocks: Mutex<HashMap<usize, VClock>>,
    locks: Mutex<HashMap<LockKey, LockState>>,
    /// Per rank, the waits it is blocked in, innermost last: a task that
    /// blocks while its rank spins in a barrier nests inside the barrier.
    waits: Box<[Mutex<Vec<WaitInfo>>]>,
    /// Bumped on every wait begin/end and rank completion; the deadlock
    /// scan's notion of "something moved".
    wait_epoch: AtomicU64,
    /// Per rank, how often its blocked wait has evaluated its condition
    /// (see [`Checker::wait_polled`]). Every waiting rank bumps its own
    /// on each poll, so each has a block to itself.
    poll_ticks: Box<[CachePadded<AtomicU64>]>,
    barrier_entries: Box<[AtomicU64]>,
    completed: Box<[AtomicBool]>,
    scan: Mutex<ScanState>,
    findings: Mutex<Vec<Finding>>,
    reported: Mutex<HashSet<(FindingKind, String)>>,
    aborted: AtomicBool,
    abort_msg: Mutex<Option<String>>,
}

impl Checker {
    /// Build a checker for a job of `ranks` ranks.
    pub fn new(ranks: usize, cfg: CheckConfig) -> Self {
        Checker {
            cfg,
            ranks,
            clocks: (0..ranks).map(|_| Mutex::new(VClock::new(ranks))).collect(),
            shadows: (0..ranks).map(|_| Mutex::new(Shadow::default())).collect(),
            cache_floors: (0..ranks).map(|_| Mutex::new(None)).collect(),
            event_clocks: Mutex::new(HashMap::new()),
            locks: Mutex::new(HashMap::new()),
            waits: (0..ranks).map(|_| Mutex::default()).collect(),
            wait_epoch: AtomicU64::new(0),
            poll_ticks: (0..ranks).map(|_| CachePadded::default()).collect(),
            barrier_entries: (0..ranks).map(|_| AtomicU64::new(0)).collect(),
            completed: (0..ranks).map(|_| AtomicBool::new(false)).collect(),
            scan: Mutex::new(ScanState::default()),
            findings: Mutex::new(Vec::new()),
            reported: Mutex::new(HashSet::new()),
            aborted: AtomicBool::new(false),
            abort_msg: Mutex::new(None),
        }
    }

    /// Number of ranks.
    pub fn ranks(&self) -> usize {
        self.ranks
    }

    /// True when the happens-before race pass is on.
    #[inline]
    pub fn race_on(&self) -> bool {
        self.cfg.race
    }

    /// True when the deadlock/misuse pass is on.
    #[inline]
    pub fn deadlock_on(&self) -> bool {
        self.cfg.deadlock
    }

    // ---- clock plumbing -------------------------------------------------

    /// Snapshot `rank`'s clock for an outgoing message (ticking first, so
    /// the sender's later events are *not* ordered under the receiver's).
    pub fn send_stamp(&self, rank: usize) -> Stamp {
        let mut c = self.clocks[rank].lock();
        c.tick(rank);
        c.stamp()
    }

    /// Join a received message's snapshot into `rank`'s clock (called by
    /// the progress engine before the payload runs).
    pub fn join(&self, rank: usize, stamp: &Stamp) {
        let mut c = self.clocks[rank].lock();
        c.join(stamp);
        c.tick(rank);
    }

    /// Advance `rank`'s clock by one local event (finish entry/exit and
    /// other sync points without a partner snapshot).
    pub fn tick(&self, rank: usize) {
        self.clocks[rank].lock().tick(rank);
    }

    /// Elementwise minimum over all ranks' current clocks and the fills
    /// of their cached lines: the prune frontier — every record at or
    /// under it is in the past of every access still to be checked. (A
    /// frontier of the clocks alone forgot the write a stale cached line
    /// is convicted by as soon as reader and writer had both passed the
    /// next barrier; whether the stale hit was reported then depended on
    /// it running before the writer's barrier-exit prune.)
    fn min_clock(&self) -> Stamp {
        let mut min = vec![u64::MAX; self.ranks];
        let mut lower = |stamp: &[u64]| {
            for (lo, v) in min.iter_mut().zip(stamp) {
                *lo = (*lo).min(*v);
            }
        };
        for m in self.clocks.iter() {
            lower(m.lock().components());
        }
        for floor in self.cache_floors.iter() {
            if let Some(fill) = &*floor.lock() {
                lower(&fill.0);
            }
        }
        Stamp(min.into_boxed_slice())
    }

    /// Stamp a line fill of `rank`'s read cache (a [`Checker::send_stamp`]
    /// that also holds the prune frontier back while the line may live).
    pub fn cache_fill(&self, rank: usize) -> Stamp {
        let stamp = self.send_stamp(rank);
        // A rank's stamps only grow: the first since a flush is the oldest.
        self.cache_floors[rank]
            .lock()
            .get_or_insert_with(|| stamp.clone());
        stamp
    }

    /// `rank`'s read cache holds no line any more.
    pub fn cache_flushed(&self, rank: usize) {
        *self.cache_floors[rank].lock() = None;
    }

    // ---- access recording ----------------------------------------------

    /// Record a direct access by `initiator` to `target`'s segment.
    pub fn access(
        &self,
        initiator: usize,
        target: usize,
        offset: usize,
        len: usize,
        kind: AccessKind,
        op: &'static str,
    ) {
        if !self.cfg.race || len == 0 {
            return;
        }
        let clock = {
            let mut c = self.clocks[initiator].lock();
            c.tick(initiator);
            c.stamp()
        };
        self.record(
            AccessRecord {
                initiator,
                start: offset,
                len,
                kind,
                clock,
                op,
            },
            target,
        );
    }

    /// Record an aggregated-frame access applied on `target`, attributed
    /// to the frame's sender with the clock the batch carried — the
    /// sender's snapshot at flush time, which is exactly when the
    /// buffered op was injected.
    #[allow(clippy::too_many_arguments)]
    pub fn frame_access(
        &self,
        src: usize,
        target: usize,
        offset: usize,
        len: usize,
        kind: AccessKind,
        stamp: &Stamp,
        op: &'static str,
    ) {
        if !self.cfg.race || len == 0 {
            return;
        }
        self.record(
            AccessRecord {
                initiator: src,
                start: offset,
                len,
                kind,
                clock: stamp.clone(),
                op,
            },
            target,
        );
    }

    fn record(&self, rec: AccessRecord, target: usize) {
        let races = self.shadows[target]
            .lock()
            .insert(rec.clone(), || self.min_clock());
        for race in races {
            let (a, b) = order_pair(&race.prior, &rec);
            let end = rec.start + rec.len;
            let key = format!(
                "{target}:{}:{}:{}:{}:{}:{}",
                rec.start, a.initiator, a.op, b.initiator, b.op, end
            );
            let message = format!(
                "data race on rank {target}'s segment [0x{:x}..0x{:x}): \
                 {} `{}` by rank {} at {} vs {} `{}` by rank {} at {} \
                 — no happens-before edge between them",
                a.start.max(b.start),
                (a.start + a.len).min(b.start + b.len),
                a.kind,
                a.op,
                a.initiator,
                a.clock,
                b.kind,
                b.op,
                b.initiator,
                b.clock,
            );
            self.report(FindingKind::DataRace, key, message);
        }
    }

    /// A software-cache hit: `initiator` read `[offset, offset+len)` of
    /// `target`'s segment from a line filled at `fill`. The fabric records
    /// the hit as an ordinary read at the current clock separately (for
    /// plain race detection); this hook adds the staleness check: a write
    /// ordered strictly *after* the fill cannot be reflected in the cached
    /// data, so finding one proves the hit returned a stale value. Clean
    /// programs never trigger this: synchronizing with a writer through
    /// `barrier()`/`fence()` invalidates the cache first, so the next read
    /// is a fresh fill ordered after the write.
    pub fn cache_read(
        &self,
        initiator: usize,
        target: usize,
        offset: usize,
        len: usize,
        fill: &Stamp,
    ) {
        if !self.cfg.race || len == 0 {
            return;
        }
        let stale = self.shadows[target].lock().stale_writes(offset, len, fill);
        for w in stale {
            let key = format!(
                "stale:{target}:{offset}:{len}:{initiator}:{}:{}",
                w.initiator, w.op
            );
            let message = format!(
                "stale cached read of rank {target}'s segment \
                 [0x{offset:x}..0x{:x}) by rank {initiator}: the line was \
                 filled at {fill} but the {} `{}` by rank {} at {} is \
                 ordered after the fill — the reader synchronized with the \
                 writer without a barrier()/fence() to invalidate the cache",
                offset + len,
                w.kind,
                w.op,
                w.initiator,
                w.clock,
            );
            self.report(FindingKind::StaleCachedRead, key, message);
        }
    }

    // ---- blocking waits ------------------------------------------------

    /// `rank` is about to block on `info`. A barrier first flags every
    /// lock the rank holds across it, and a world barrier is one more
    /// arrival for [`FindingKind::BarrierMismatch`] to compare (a team
    /// barrier is not: non-members never call it).
    pub fn wait_begin(&self, rank: usize, info: WaitInfo) {
        if let WaitInfo::Barrier { domain, .. } = info {
            for (lock, st) in self.locks.lock().iter() {
                if st.owner == Some(rank) {
                    self.report(
                        FindingKind::LockAcrossBarrier,
                        format!("lab:{rank}:{}:{}", lock.0, lock.1),
                        format!(
                            "rank {rank} entered barrier() while holding lock \
                             ({}, 0x{:x}) — a peer acquiring it inside the same \
                             barrier episode deadlocks",
                            lock.0, lock.1
                        ),
                    );
                }
            }
            if domain == 0 {
                self.barrier_entries[rank].fetch_add(1, Ordering::AcqRel);
            }
        }
        if self.cfg.deadlock {
            self.waits[rank].lock().push(info);
            self.wait_epoch.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// The wait `rank` began on `info` is over: the enclosing wait, if
    /// any, is what the rank is blocked in again, and the construct's
    /// ordering takes effect. A barrier ticks the clock and prunes the
    /// rank's shadow (the natural prune point — the global min-clock moves
    /// past everything pre-barrier once all ranks have gone through); an
    /// event wait joins the accumulated signal clocks, so accesses after
    /// it are ordered after every signaler; a `finish` ticks. Futures,
    /// collectives and requests ride their reply AMs' clocks, and a lock's
    /// hand-off edge is [`Checker::lock_acquired`]'s.
    pub fn wait_end(&self, rank: usize, info: WaitInfo) {
        if self.cfg.deadlock {
            let mut waits = self.waits[rank].lock();
            if let Some(i) = waits.iter().rposition(|w| *w == info) {
                waits.remove(i);
            }
            self.wait_epoch.fetch_add(1, Ordering::SeqCst);
        }
        match info {
            WaitInfo::Barrier { .. } => {
                self.tick(rank);
                if self.cfg.race {
                    let min = self.min_clock();
                    self.shadows[rank].lock().prune(&min);
                }
            }
            WaitInfo::Event { key } => {
                let stamp = self.event_clocks.lock().get(&key).map(|c| c.stamp());
                if let Some(stamp) = stamp {
                    self.join(rank, &stamp);
                }
            }
            WaitInfo::Finish => self.tick(rank),
            _ => {}
        }
    }

    /// `Event::signal` on `rank`: accumulate the signaler's clock under
    /// the event's key so waiters can join it.
    pub fn event_signal(&self, rank: usize, key: usize) {
        let stamp = self.send_stamp(rank);
        self.event_clocks
            .lock()
            .entry(key)
            .or_insert_with(|| VClock::new(self.ranks))
            .join(&stamp);
    }

    // ---- lock hooks ------------------------------------------------------

    /// A successful `GlobalLock` CAS acquire: record ownership and join
    /// the previous holder's release clock (the lock hand-off edge).
    pub fn lock_acquired(&self, rank: usize, lock: LockKey) {
        let release = {
            let mut locks = self.locks.lock();
            let st = locks.entry(lock).or_default();
            st.owner = Some(rank);
            st.release.clone()
        };
        if let Some(stamp) = &release {
            self.join(rank, stamp);
        } else {
            self.tick(rank);
        }
    }

    /// About to release a `GlobalLock` (called *before* the CAS makes the
    /// lock available, so the next acquirer always finds the clock).
    pub fn lock_release(&self, rank: usize, lock: LockKey) {
        let stamp = self.send_stamp(rank);
        let mut locks = self.locks.lock();
        let st = locks.entry(lock).or_default();
        st.owner = None;
        st.release = Some(stamp);
    }

    /// The lock's word was freed; forget its state.
    pub fn lock_destroyed(&self, lock: LockKey) {
        self.locks.lock().remove(&lock);
    }

    // ---- completion and the deadlock scan -------------------------------

    /// The rank's SPMD closure returned (it still serves progress, so it
    /// can never be "stuck").
    pub fn rank_completed(&self, rank: usize) {
        self.completed[rank].store(true, Ordering::SeqCst);
        self.wait_epoch.fetch_add(1, Ordering::SeqCst);
    }

    /// True once the deadlock pass declared the job wedged; blocking
    /// waits turn this into a panic (like `Fabric::has_failed`).
    #[inline]
    pub fn is_aborted(&self) -> bool {
        self.aborted.load(Ordering::Acquire)
    }

    /// The abort report, for the panic message.
    pub fn abort_message(&self) -> Option<String> {
        self.abort_msg.lock().clone()
    }

    /// `rank`'s blocked wait is about to evaluate its condition again.
    /// The deadlock scan convicts a rank only once it has completed a
    /// look since the first stuck sighting and still waits.
    #[inline]
    pub fn wait_polled(&self, rank: usize) {
        self.poll_ticks[rank].fetch_add(1, Ordering::Relaxed);
    }

    /// Periodic idle-time scan from a blocked rank's `wait_until`.
    /// `quiet` must be the caller's observation that no message anywhere
    /// is queued or in flight. A deadlock is reported only when two scans
    /// observe the identical stuck wait table with no register/clear in
    /// between and every waiting rank has re-evaluated its condition
    /// after the first — transient states never confirm.
    pub fn maybe_scan(&self, quiet: bool) {
        if !self.cfg.deadlock || self.is_aborted() {
            return;
        }
        let mut scan = self.scan.lock();
        if !quiet {
            scan.first_stuck = None;
            return;
        }
        let epoch = self.wait_epoch.load(Ordering::SeqCst);
        let mut waiting: Vec<(usize, WaitInfo)> = Vec::new();
        for r in 0..self.ranks {
            if self.completed[r].load(Ordering::SeqCst) {
                continue;
            }
            match self.waits[r].lock().last() {
                Some(&info) => waiting.push((r, info)),
                None => {
                    // Somebody is computing: not stuck.
                    scan.first_stuck = None;
                    return;
                }
            }
        }
        if waiting.is_empty() || self.wait_epoch.load(Ordering::SeqCst) != epoch {
            scan.first_stuck = None;
            return;
        }
        let ticks = |r: usize| self.poll_ticks[r].load(Ordering::Relaxed);
        match &scan.first_stuck {
            // A tick is bumped *before* the look it announces, so one
            // look begun and finished after the sighting shows as +2.
            Some((e, seen)) if *e == epoch => {
                if waiting.iter().all(|&(r, _)| ticks(r) >= seen[r] + 2) {
                    self.confirm_deadlock(&waiting);
                }
            }
            _ => scan.first_stuck = Some((epoch, (0..self.ranks).map(ticks).collect())),
        }
    }

    /// Two scans agreed: classify the stuck state and abort the job.
    fn confirm_deadlock(&self, waiting: &[(usize, WaitInfo)]) {
        if self.aborted.swap(true, Ordering::AcqRel) {
            return;
        }
        let before = self.findings.lock().len();
        self.classify_stuck(waiting);
        let findings = self.findings.lock();
        let msg = findings
            .get(before)
            .or_else(|| findings.last())
            .map(|f| f.to_string())
            .unwrap_or_else(|| "deadlock detected".to_string());
        *self.abort_msg.lock() = Some(format!("rupcxx-check: {msg}"));
    }

    fn classify_stuck(&self, waiting: &[(usize, WaitInfo)]) {
        let owners: HashMap<LockKey, Option<usize>> = self
            .locks
            .lock()
            .iter()
            .map(|(k, st)| (*k, st.owner))
            .collect();
        let waits_on_lock: HashMap<usize, LockKey> = waiting
            .iter()
            .filter_map(|(r, w)| match w {
                WaitInfo::Lock { lock } => Some((*r, *lock)),
                _ => None,
            })
            .collect();
        let mut specific = false;
        for &(rank, info) in waiting {
            match info {
                WaitInfo::Lock { lock } => {
                    specific = true;
                    self.classify_lock_wait(rank, lock, &owners, &waits_on_lock);
                }
                WaitInfo::Event { .. } | WaitInfo::Future => {
                    specific = true;
                    let what = if info != WaitInfo::Future {
                        "an event that is never signaled"
                    } else {
                        "a future that never resolves"
                    };
                    self.report(
                        FindingKind::EventNeverSignaled,
                        format!("ev:{rank}"),
                        format!(
                            "rank {rank} blocked waiting on {what}: every \
                             other rank has completed or is equally blocked"
                        ),
                    );
                }
                WaitInfo::Barrier { domain: 0, .. } => {
                    let entries = |r: usize| self.barrier_entries[r].load(Ordering::SeqCst);
                    let nth = entries(rank);
                    let short = (0..self.ranks)
                        .find(|&c| self.completed[c].load(Ordering::SeqCst) && entries(c) < nth);
                    if let Some(c) = short {
                        specific = true;
                        self.report(
                            FindingKind::BarrierMismatch,
                            format!("bar:{rank}:{nth}"),
                            format!(
                                "mismatched barrier arrival: rank {rank} \
                                 blocked in barrier #{nth} but rank {c} \
                                 completed after only {} barrier(s)",
                                entries(c)
                            ),
                        );
                    }
                }
                // No pattern of their own (team barrier, collective, fence,
                // aggregation window, finish, request): the generic table
                // names them.
                _ => {}
            }
        }
        if !specific {
            let table: Vec<String> = waiting
                .iter()
                .map(|(r, w)| format!("rank {r}: {w}"))
                .collect();
            self.report(
                FindingKind::Deadlock,
                "generic".to_string(),
                format!(
                    "global deadlock: no rank can make progress ({})",
                    table.join("; ")
                ),
            );
        }
    }

    fn classify_lock_wait(
        &self,
        rank: usize,
        lock: LockKey,
        owners: &HashMap<LockKey, Option<usize>>,
        waits_on_lock: &HashMap<usize, LockKey>,
    ) {
        let owner = owners.get(&lock).copied().flatten();
        let Some(owner) = owner else {
            // Lock is free yet the rank is "stuck" acquiring it — a
            // transient the epoch check should have filtered; stay quiet.
            return;
        };
        if owner == rank {
            self.report(
                FindingKind::LockCycle,
                format!("self:{rank}:{}:{}", lock.0, lock.1),
                format!(
                    "self-deadlock: rank {rank} re-acquires lock \
                     ({}, 0x{:x}) it already holds",
                    lock.0, lock.1
                ),
            );
            return;
        }
        // Follow waiter -> held-lock -> owner edges looking for a cycle
        // back to `rank`.
        let mut chain = vec![(rank, lock)];
        let mut cur = owner;
        while let Some(&next_lock) = waits_on_lock.get(&cur) {
            chain.push((cur, next_lock));
            let Some(next_owner) = owners.get(&next_lock).copied().flatten() else {
                break;
            };
            if next_owner == rank {
                let path: Vec<String> = chain
                    .iter()
                    .map(|(r, l)| format!("rank {r} waits for lock ({}, 0x{:x})", l.0, l.1))
                    .collect();
                // One canonical report per cycle: keyed on the smallest
                // participating rank so each cycle is reported once.
                let min_rank = chain.iter().map(|(r, _)| *r).min().unwrap_or(rank);
                self.report(
                    FindingKind::LockCycle,
                    format!("cycle:{min_rank}"),
                    format!("lock cycle: {}", path.join("; ")),
                );
                return;
            }
            if chain.iter().any(|(r, _)| *r == next_owner) {
                return; // a cycle not through `rank`; its members report it
            }
            cur = next_owner;
        }
        self.report(
            FindingKind::Deadlock,
            format!("lockstuck:{rank}"),
            format!(
                "rank {rank} blocked acquiring lock ({}, 0x{:x}) held by \
                 rank {owner}, which cannot make progress",
                lock.0, lock.1
            ),
        );
    }

    // ---- findings -------------------------------------------------------

    fn report(&self, kind: FindingKind, dedup_key: String, message: String) {
        if !self.reported.lock().insert((kind, dedup_key)) {
            return;
        }
        let finding = Finding { kind, message };
        eprintln!("(rupcxx-check) {finding}");
        if let Some(sink) = &self.cfg.sink {
            sink.lock().push(finding.clone());
        }
        self.findings.lock().push(finding);
    }

    /// Snapshot all findings recorded so far.
    pub fn findings(&self) -> Vec<Finding> {
        self.findings.lock().clone()
    }

    /// End-of-job export: write the report file when a path was
    /// configured, and return the number of findings.
    pub fn export(&self) -> usize {
        let findings = self.findings.lock();
        if let Some(path) = &self.cfg.report_path {
            if let Err(e) = std::fs::write(path, render_report(&findings)) {
                eprintln!("(rupcxx-check: could not write report {path}: {e})");
            }
        }
        findings.len()
    }
}

/// Order a race's two sides deterministically (by initiator, then op),
/// so the report text does not depend on which access was recorded first.
fn order_pair<'a>(
    a: &'a AccessRecord,
    b: &'a AccessRecord,
) -> (&'a AccessRecord, &'a AccessRecord) {
    if (a.initiator, a.op) <= (b.initiator, b.op) {
        (a, b)
    } else {
        (b, a)
    }
}

impl std::fmt::Debug for Checker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Checker")
            .field("ranks", &self.ranks)
            .field("race", &self.cfg.race)
            .field("deadlock", &self.cfg.deadlock)
            .field("findings", &self.findings.lock().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EVENT: WaitInfo = WaitInfo::Event { key: 7 };

    #[test]
    fn scan_convicts_only_ranks_that_polled_again_and_still_wait() {
        let ck = Checker::new(2, CheckConfig::deadlock());
        ck.wait_begin(0, EVENT);
        ck.wait_begin(1, WaitInfo::Future);
        let look = |rank| (0..2).for_each(|_| ck.wait_polled(rank));
        ck.maybe_scan(true); // first sighting
        look(0);
        // The identical table again, but rank 1 has not run since: it may
        // be satisfiable already and merely descheduled.
        ck.maybe_scan(true);
        ck.maybe_scan(true);
        assert!(!ck.is_aborted(), "{:?}", ck.findings());
        // Rank 1 looked again and still waits: now it is a deadlock.
        look(1);
        ck.maybe_scan(true);
        assert!(ck.is_aborted());
        let found = ck.findings();
        assert_eq!(found.len(), 2, "{found:?}");
        assert!(found
            .iter()
            .all(|f| f.kind == FindingKind::EventNeverSignaled));
    }

    #[test]
    fn a_throttled_rank_is_named_in_the_generic_table() {
        // A stuck aggregation window has no pattern of its own (with
        // batches in flight the runtime never reports `quiet`, so only a
        // peer that stopped serving progress can leave it stuck): the
        // generic deadlock names it, and no new finding kind is needed.
        let ck = Checker::new(2, CheckConfig::deadlock());
        ck.wait_begin(0, WaitInfo::AggWindow { window: 24 });
        ck.wait_begin(1, WaitInfo::Fence);
        ck.maybe_scan(true);
        (0..2).for_each(|rank| (0..2).for_each(|_| ck.wait_polled(rank)));
        ck.maybe_scan(true);
        let found = ck.findings();
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].kind, FindingKind::Deadlock);
        let table = "rank 0: aggregation window (24 slabs out); rank 1: aggregation fence";
        assert!(found[0].to_string().contains(table), "{}", found[0]);
    }

    #[test]
    fn a_wait_that_moves_restarts_the_sighting() {
        let ck = Checker::new(1, CheckConfig::deadlock());
        ck.wait_begin(0, EVENT);
        ck.maybe_scan(true);
        (0..2).for_each(|_| ck.wait_polled(0));
        // The wait ended and another began: a new table, a new sighting.
        ck.wait_end(0, EVENT);
        ck.wait_begin(0, EVENT);
        ck.maybe_scan(true);
        assert!(!ck.is_aborted());
    }

    #[test]
    fn a_nested_wait_ends_back_in_the_enclosing_one() {
        // A task that blocks in a future and returns while its rank spins
        // in a barrier must leave the rank registered in the barrier.
        let ck = Checker::new(1, CheckConfig::deadlock());
        let barrier = WaitInfo::Barrier { domain: 0, seq: 3 };
        let blocked_in = || ck.waits[0].lock().last().copied();
        ck.wait_begin(0, barrier);
        ck.wait_begin(0, WaitInfo::Future);
        assert_eq!(blocked_in(), Some(WaitInfo::Future));
        ck.wait_end(0, WaitInfo::Future);
        assert_eq!(blocked_in(), Some(barrier));
        ck.wait_end(0, barrier);
        assert_eq!(blocked_in(), None);
    }

    #[test]
    fn only_world_barriers_count_towards_barrier_mismatch() {
        // Rank 0 is stuck in its first world barrier after a team barrier
        // rank 1 was no member of; rank 1 completed without any barrier.
        let ck = Checker::new(2, CheckConfig::deadlock());
        let team = WaitInfo::Barrier { domain: 9, seq: 0 };
        ck.wait_begin(0, team);
        ck.wait_end(0, team);
        ck.wait_begin(0, WaitInfo::Barrier { domain: 0, seq: 0 });
        ck.rank_completed(1);
        ck.maybe_scan(true);
        (0..2).for_each(|_| ck.wait_polled(0));
        ck.maybe_scan(true);
        let found = ck.findings();
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].kind, FindingKind::BarrierMismatch);
        assert!(
            found[0].message.contains("barrier #1") && found[0].message.contains("only 0"),
            "{found:?}"
        );
    }
}
