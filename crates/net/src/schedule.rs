//! Controlled delivery scheduling: an explicit, replayable AM delivery
//! order instead of the fault plan's fate hash.
//!
//! With a [`ScheduleConfig`] installed, the fabric's delivery stage is
//! `Scheduled` and `send_am` no longer pushes remote frames straight into
//! the destination inbox. Frames are *parked* in a per-link pending
//! queue, and one global pump — [`Fabric::pump_incoming`], which every
//! rank's `advance()` calls — releases them one at a time in the order a
//! [`Schedule`] dictates:
//!
//! * while explicit picks remain, the next pick names the link whose head
//!   frame is delivered next — the pump *blocks* (delivers nothing) until
//!   that link has a pending frame, so a recorded schedule replays the
//!   exact delivery order it was recorded from;
//! * past the last pick, delivery falls back to a deterministic tail
//!   policy: canonical order (lowest `(src, dst)` link first) or, with
//!   [`Schedule::random`], a seeded pseudo-random choice among non-empty
//!   links.
//!
//! Per-link FIFO is preserved by construction (picks name links, not
//! frames), so a schedule is exactly a linearization of the deliveries a
//! real run could produce. With a recorder attached, every delivery is
//! appended to its [`RecordLog`] — link, per-link sequence number, and
//! the frame's happens-before stamp when the checker is on — which is
//! what `rupcxx-explore` enumerates and shrinks over.
//!
//! `Fabric::new` builds one delivery stage — direct, reliable or
//! scheduled — so the schedule and a fault plan cannot both be installed:
//! the controlled scheduler *replaces* the fate hash as the source of
//! delivery-order nondeterminism. One-sided RMA is synchronous on this
//! fabric and is not scheduled; AM delivery order is the only
//! nondeterminism to control.
//!
//! Two safety valves keep a stale or shrunk schedule from hanging a run:
//! a pick that stays unsatisfiable for [`STALL_SKIP`] while frames are
//! pending elsewhere is skipped (counted in
//! [`SchedCounts::skipped_picks`]), and teardown switches the pump into
//! drain mode ([`Fabric::sched_finish`]) once every rank's closure has
//! returned, releasing leftovers in canonical order.

use crate::fabric::{AmMessage, Delivery, Fabric};
use crate::Rank;
use rupcxx_check::Stamp;
use rupcxx_util::rng::SplitMix64;
use rupcxx_util::sync::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long the pump tolerates an unsatisfiable pick (frames pending on
/// other links, the picked link empty) before skipping it. Generous: a
/// legitimate block only lasts until the named sender's next send, so
/// anything near this bound is a stale entry from a shrunk schedule.
pub const STALL_SKIP: Duration = Duration::from_secs(2);

/// A replayable delivery schedule: explicit link picks consumed in order,
/// then a deterministic tail policy.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Schedule {
    /// Explicit delivery decisions: each entry names the `(src, dst)`
    /// link whose head frame is delivered next.
    pub picks: Vec<(Rank, Rank)>,
    /// Tail policy once `picks` is exhausted: `None` = canonical order
    /// (lowest link first), `Some(seed)` = seeded pseudo-random choice.
    pub random_seed: Option<u64>,
}

impl Schedule {
    /// The bug-agnostic starting schedule: no explicit picks, canonical
    /// tail. Installing it still serializes delivery through the pump.
    pub fn canonical() -> Self {
        Schedule::default()
    }

    /// A schedule that replays `picks` then falls back to canonical order.
    pub fn with_picks(picks: Vec<(Rank, Rank)>) -> Self {
        Schedule {
            picks,
            random_seed: None,
        }
    }

    /// A fully random (but seeded, hence reproducible) schedule.
    pub fn random(seed: u64) -> Self {
        Schedule {
            picks: Vec::new(),
            random_seed: Some(seed),
        }
    }

    /// Parse the serialized form (see [`Schedule::to_text`]): one
    /// `SRC->DST` pick per line, optional `random=SEED`, `#` comments.
    pub fn parse(text: &str) -> Result<Schedule, String> {
        let mut sched = Schedule::canonical();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(seed) = line.strip_prefix("random=") {
                if sched.random_seed.is_some() {
                    return Err(format!("line {}: duplicate random= line", lineno + 1));
                }
                sched.random_seed = Some(
                    seed.trim()
                        .parse::<u64>()
                        .map_err(|e| format!("line {}: bad seed: {e}", lineno + 1))?,
                );
                continue;
            }
            let (src, dst) = line
                .split_once("->")
                .ok_or_else(|| format!("line {}: expected SRC->DST, got {line:?}", lineno + 1))?;
            let parse_rank = |s: &str| {
                s.trim()
                    .parse::<Rank>()
                    .map_err(|e| format!("line {}: bad rank {s:?}: {e}", lineno + 1))
            };
            sched.picks.push((parse_rank(src)?, parse_rank(dst)?));
        }
        Ok(sched)
    }

    /// Serialize to the replay format parsed by [`Schedule::parse`] —
    /// suitable for committing as a regression test input
    /// (`RUPCXX_SCHEDULE=<path>`).
    pub fn to_text(&self) -> String {
        let mut out = String::from("# rupcxx schedule v1\n");
        if let Some(seed) = self.random_seed {
            out.push_str(&format!("random={seed}\n"));
        }
        for (src, dst) in &self.picks {
            out.push_str(&format!("{src}->{dst}\n"));
        }
        out
    }
}

/// One delivery the pump performed, in order.
#[derive(Clone, Debug)]
pub struct DeliveryRecord {
    /// Sending rank.
    pub src: Rank,
    /// Destination rank.
    pub dst: Rank,
    /// Per-link delivery index (FIFO position on `src -> dst`).
    pub seq: u64,
    /// The frame's happens-before stamp at send time (present when the
    /// checker is on) — the independence oracle exploration prunes with.
    pub clock: Option<Stamp>,
}

/// Pump accounting, exposed for coverage reporting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedCounts {
    /// Total frames delivered through the pump.
    pub delivered: u64,
    /// Deliveries decided by an explicit pick.
    pub scheduled: u64,
    /// Deliveries decided by the tail policy (canonical or random).
    pub fallback: u64,
    /// Stale picks skipped after [`STALL_SKIP`] without progress.
    pub skipped_picks: u64,
}

/// The delivery record of one run: every delivery in order plus the pump
/// counters. Shared out through a [`ScheduleRecorder`] so the exploration
/// driver can read it after the job (even an aborted one) tears down.
#[derive(Debug, Default)]
pub struct RecordLog {
    /// Deliveries in pump order.
    pub deliveries: Vec<DeliveryRecord>,
    /// Pump accounting.
    pub counts: SchedCounts,
}

impl RecordLog {
    /// The recorded delivery order as a pick list — replaying these picks
    /// under [`Schedule::with_picks`] reproduces this run's order.
    pub fn picks(&self) -> Vec<(Rank, Rank)> {
        self.deliveries.iter().map(|d| (d.src, d.dst)).collect()
    }
}

/// Shared handle to a run's [`RecordLog`] (the `FindingSink` pattern:
/// the caller keeps a clone and reads it after the job ends).
pub type ScheduleRecorder = Arc<Mutex<RecordLog>>;

/// A fresh, empty recorder.
pub fn new_recorder() -> ScheduleRecorder {
    Arc::new(Mutex::new(RecordLog::default()))
}

/// Controlled-scheduler configuration for a fabric, normally built by
/// `rupcxx-explore` or parsed from `RUPCXX_SCHEDULE`.
#[derive(Clone)]
pub struct ScheduleConfig {
    /// The delivery order to impose.
    pub schedule: Schedule,
    /// Optional recorder of the deliveries; when absent nothing is
    /// recorded (a `RUPCXX_SCHEDULE` replay imposes the order only).
    pub recorder: Option<ScheduleRecorder>,
    /// Stale-pick tolerance (defaults to [`STALL_SKIP`]). Exploration's
    /// shrinking probes lower it: a ddmin candidate can legitimately
    /// contain picks the shrunk program never satisfies.
    pub stall_skip: Duration,
}

impl ScheduleConfig {
    /// Wrap a schedule with no external recorder.
    pub fn new(schedule: Schedule) -> Self {
        ScheduleConfig {
            schedule,
            recorder: None,
            stall_skip: STALL_SKIP,
        }
    }

    /// Attach a recorder the caller can read after the job tears down.
    pub fn with_recorder(mut self, recorder: ScheduleRecorder) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Override the stale-pick tolerance.
    pub fn with_stall_skip(mut self, d: Duration) -> Self {
        self.stall_skip = d;
        self
    }

    /// Read `RUPCXX_SCHEDULE` from the environment: a path to a schedule
    /// file (see [`Schedule::to_text`]) or `inline:<text>` with `;` for
    /// newlines. Malformed values abort with a clear message.
    pub fn from_env() -> Option<Self> {
        rupcxx_util::env::parse_env(
            "RUPCXX_SCHEDULE",
            "<schedule-file-path>|inline:<text, ';' = newline>|off",
            |raw| {
                let raw = raw.trim();
                if raw.is_empty() || raw == "off" {
                    return Ok(None);
                }
                let text = match raw.strip_prefix("inline:") {
                    Some(inline) => inline.replace(';', "\n"),
                    None => std::fs::read_to_string(raw)
                        .map_err(|e| format!("cannot read schedule file: {e}"))?,
                };
                Schedule::parse(&text).map(|s| Some(ScheduleConfig::new(s)))
            },
        )
    }
}

impl std::fmt::Debug for ScheduleConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScheduleConfig")
            .field("picks", &self.schedule.picks.len())
            .field("random_seed", &self.schedule.random_seed)
            .field(
                "recorder",
                &self.recorder.as_ref().map(|_| "ScheduleRecorder"),
            )
            .field("stall_skip", &self.stall_skip)
            .finish()
    }
}

/// The scheduled delivery stage's state.
pub(crate) struct SchedState {
    /// Global count of parked frames — the lock-free quiescence probe.
    pending_count: AtomicUsize,
    inner: Mutex<SchedInner>,
}

struct SchedInner {
    picks: Vec<(Rank, Rank)>,
    cursor: usize,
    random_seed: Option<u64>,
    /// Tail-policy decision counter (the random stream index).
    decisions: u64,
    /// Parked frames per link, indexed `src * ranks + dst`.
    pending: Vec<VecDeque<AmMessage>>,
    /// Per-link delivery counters feeding [`DeliveryRecord::seq`].
    link_seq: Vec<u64>,
    /// When the current pick first became unsatisfiable, for stale-pick
    /// skipping; cleared by any delivery.
    stalled_since: Option<Instant>,
    /// Teardown drain mode: ignore remaining picks, deliver canonically.
    drain_all: bool,
    /// Stale-pick tolerance (from [`ScheduleConfig::stall_skip`]).
    stall_skip: Duration,
    log: Option<ScheduleRecorder>,
}

impl SchedState {
    pub(crate) fn new(ranks: usize, cfg: &ScheduleConfig) -> Self {
        for &(src, dst) in &cfg.schedule.picks {
            assert!(
                src < ranks && dst < ranks && src != dst,
                "schedule pick {src}->{dst} names an invalid link for {ranks} ranks"
            );
        }
        SchedState {
            pending_count: AtomicUsize::new(0),
            inner: Mutex::new(SchedInner {
                picks: cfg.schedule.picks.clone(),
                cursor: 0,
                random_seed: cfg.schedule.random_seed,
                decisions: 0,
                pending: (0..ranks * ranks).map(|_| VecDeque::new()).collect(),
                link_seq: vec![0; ranks * ranks],
                stalled_since: None,
                drain_all: false,
                stall_skip: cfg.stall_skip,
                log: cfg.recorder.clone(),
            }),
        }
    }

    /// Number of frames parked fabric-wide.
    #[inline]
    pub(crate) fn pending(&self) -> usize {
        self.pending_count.load(Ordering::Acquire)
    }
}

impl SchedInner {
    /// The link index of the next delivery, or `None` if the pump must
    /// wait. Counts a stale explicit pick as skipped after [`STALL_SKIP`].
    fn next_link(&mut self, ranks: usize) -> Option<(usize, bool)> {
        while !self.drain_all && self.cursor < self.picks.len() {
            let (src, dst) = self.picks[self.cursor];
            let li = src * ranks + dst;
            if !self.pending[li].is_empty() {
                self.cursor += 1;
                return Some((li, true));
            }
            // The picked link is empty but frames are pending elsewhere:
            // block (replay fidelity) unless the pick has been stale for
            // `stall_skip`, in which case it is from a shrunk/stale
            // schedule and is dropped so the run cannot hang.
            match self.stalled_since {
                None => {
                    self.stalled_since = Some(Instant::now());
                    return None;
                }
                Some(t0) if t0.elapsed() < self.stall_skip => return None,
                Some(_) => {
                    self.stalled_since = None;
                    self.cursor += 1;
                    if let Some(log) = &self.log {
                        log.lock().counts.skipped_picks += 1;
                    }
                }
            }
        }
        // Tail policy over the non-empty links.
        let nonempty: Vec<usize> = (0..self.pending.len())
            .filter(|&li| !self.pending[li].is_empty())
            .collect();
        debug_assert!(!nonempty.is_empty(), "tail policy with nothing pending");
        let li = match self.random_seed {
            None => nonempty[0],
            Some(seed) => {
                let mut rng = SplitMix64::new(seed ^ self.decisions.wrapping_mul(0x9E37_79B9));
                nonempty[rng.next_below(nonempty.len() as u64) as usize]
            }
        };
        self.decisions += 1;
        Some((li, false))
    }
}

impl Fabric {
    /// Park a remote AM in the scheduler's pending queue (`src != dst`),
    /// then pump — delivery happens inline when the schedule already
    /// allows it.
    pub(crate) fn sched_park(&self, s: &SchedState, src: Rank, dst: Rank, msg: AmMessage) {
        {
            let mut inner = s.inner.lock();
            let li = src * self.endpoints.len() + dst;
            inner.pending[li].push_back(msg);
        }
        s.pending_count.fetch_add(1, Ordering::Release);
        self.pump_schedule(s);
    }

    /// Drive the controlled scheduler: deliver every frame the schedule
    /// currently allows, in order, into destination inboxes. Any rank's
    /// progress engine drives the whole (global) schedule — delivery is
    /// just an inbox push; execution stays with the destination. Returns
    /// the number of frames delivered.
    pub(crate) fn pump_schedule(&self, s: &SchedState) -> usize {
        if s.pending() == 0 {
            return 0;
        }
        let ranks = self.endpoints.len();
        let mut inner = s.inner.lock();
        let mut delivered = 0;
        while s.pending() > 0 {
            let Some((li, scheduled)) = inner.next_link(ranks) else {
                break;
            };
            let msg = inner.pending[li].pop_front().expect("picked link empty");
            s.pending_count.fetch_sub(1, Ordering::Release);
            inner.stalled_since = None;
            let (src, dst) = (li / ranks, li % ranks);
            let seq = inner.link_seq[li];
            inner.link_seq[li] += 1;
            if let Some(log) = &inner.log {
                let mut log = log.lock();
                log.deliveries.push(DeliveryRecord {
                    src,
                    dst,
                    seq,
                    clock: msg.clock().cloned(),
                });
                log.counts.delivered += 1;
                if scheduled {
                    log.counts.scheduled += 1;
                } else {
                    log.counts.fallback += 1;
                }
            }
            self.endpoints[dst].inbox.push(msg);
            delivered += 1;
        }
        delivered
    }

    /// Switch the pump into teardown drain mode: every rank's closure has
    /// returned, so picks still unconsumed name frames that will never be
    /// sent — ignore them and release leftovers in canonical order. This
    /// is what makes teardown quiescence schedule-agnostic. No-op without
    /// a schedule.
    pub fn sched_finish(&self) {
        if let Delivery::Scheduled(s) = &self.delivery {
            s.inner.lock().drain_all = true;
            self.pump_schedule(s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::{AmPayload, FabricConfig};
    use rupcxx_util::Bytes;

    fn sched_fabric(ranks: usize, schedule: Schedule) -> (Arc<Fabric>, ScheduleRecorder) {
        let rec = new_recorder();
        let f = Fabric::new(FabricConfig {
            ranks,
            segment_bytes: 4096,
            schedule: Some(ScheduleConfig::new(schedule).with_recorder(rec.clone())),
            ..FabricConfig::default()
        });
        (f, rec)
    }

    fn send(f: &Fabric, src: Rank, dst: Rank, id: u16) {
        f.send_am(
            src,
            dst,
            AmPayload::Handler {
                id,
                args: Bytes::new(),
            },
        );
    }

    fn recv_ids(f: &Fabric, me: Rank) -> Vec<(Rank, u16)> {
        let mut got = Vec::new();
        while let Some(m) = f.endpoint(me).try_recv() {
            if let AmPayload::Handler { id, .. } = m.payload {
                got.push((m.src, id));
            }
        }
        got
    }

    #[test]
    fn canonical_schedule_delivers_in_link_order() {
        let (f, rec) = sched_fabric(3, Schedule::canonical());
        // Parked frames deliver inline (the park pumps), so interleave
        // sends from two sources: each delivery happens at park time.
        send(&f, 2, 0, 20);
        send(&f, 1, 0, 10);
        assert_eq!(recv_ids(&f, 0), vec![(2, 20), (1, 10)]);
        let log = rec.lock();
        assert_eq!(log.picks(), vec![(2, 0), (1, 0)]);
        assert_eq!(log.counts.delivered, 2);
        assert_eq!(log.counts.fallback, 2);
        assert_eq!(log.counts.scheduled, 0);
    }

    #[test]
    fn explicit_picks_block_until_satisfiable() {
        let (f, rec) = sched_fabric(3, Schedule::with_picks(vec![(2, 0), (1, 0)]));
        // The schedule demands 2->0 first: a 1->0 frame parks undelivered.
        send(&f, 1, 0, 10);
        assert_eq!(f.endpoint(0).pending(), 0, "blocked on pick 2->0");
        let Delivery::Scheduled(s) = &f.delivery else {
            panic!("a schedule installs the scheduled stage");
        };
        assert_eq!(s.pending(), 1);
        assert!(!f.links_quiescent(0), "parked frame counts as in flight");
        // Once 2->0 arrives, both deliveries release in pick order.
        send(&f, 2, 0, 20);
        assert_eq!(recv_ids(&f, 0), vec![(2, 20), (1, 10)]);
        assert!(f.links_quiescent(0));
        let log = rec.lock();
        assert_eq!(log.picks(), vec![(2, 0), (1, 0)]);
        assert_eq!(log.counts.scheduled, 2);
        assert_eq!(log.counts.fallback, 0);
    }

    #[test]
    fn per_link_fifo_is_preserved() {
        let (f, _rec) = sched_fabric(2, Schedule::canonical());
        for id in 0..10u16 {
            send(&f, 0, 1, id);
        }
        let got: Vec<u16> = recv_ids(&f, 1).into_iter().map(|(_, id)| id).collect();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn local_sends_bypass_the_scheduler() {
        let (f, rec) = sched_fabric(2, Schedule::with_picks(vec![(0, 1)]));
        send(&f, 0, 0, 1);
        assert_eq!(recv_ids(&f, 0), vec![(0, 1)]);
        assert_eq!(rec.lock().counts.delivered, 0);
    }

    #[test]
    fn sched_finish_releases_stale_picks() {
        // A pick for a frame that will never be sent: drain mode releases
        // the parked frames canonically instead of hanging teardown.
        let (f, rec) = sched_fabric(3, Schedule::with_picks(vec![(2, 0)]));
        send(&f, 1, 0, 10);
        assert_eq!(f.endpoint(0).pending(), 0);
        f.sched_finish();
        assert_eq!(recv_ids(&f, 0), vec![(1, 10)]);
        assert_eq!(rec.lock().counts.fallback, 1);
        assert!(f.links_quiescent(0));
    }

    #[test]
    fn random_schedule_is_reproducible_and_can_differ() {
        // A random schedule has no picks, so each park delivers inline and
        // the seeded choice only matters with 2+ links pending; what this
        // pins down is that identical runs record identical orders.
        let order = |seed: u64| {
            let (f, rec) = sched_fabric(3, Schedule::random(seed));
            send(&f, 1, 0, 10);
            send(&f, 2, 0, 20);
            send(&f, 1, 0, 11);
            let _ = recv_ids(&f, 0);
            let picks = rec.lock().picks();
            picks
        };
        assert_eq!(order(7), order(7), "same seed, same order");
    }

    #[test]
    fn schedule_text_roundtrip() {
        let s = Schedule {
            picks: vec![(0, 1), (2, 0)],
            random_seed: Some(99),
        };
        let text = s.to_text();
        assert_eq!(Schedule::parse(&text).unwrap(), s);
        // Comments and blank lines are tolerated.
        let parsed = Schedule::parse("# hi\n\n 1 -> 2 \nrandom=5\n").unwrap();
        assert_eq!(parsed.picks, vec![(1, 2)]);
        assert_eq!(parsed.random_seed, Some(5));
    }

    #[test]
    fn schedule_parse_rejects_garbage() {
        assert!(Schedule::parse("0=>1").is_err());
        assert!(Schedule::parse("a->b").is_err());
        assert!(Schedule::parse("random=x").is_err());
        assert!(Schedule::parse("random=1\nrandom=2").is_err());
    }

    #[test]
    #[should_panic(expected = "invalid link")]
    fn out_of_range_pick_is_rejected_at_construction() {
        let _ = sched_fabric(2, Schedule::with_picks(vec![(0, 5)]));
    }

    #[test]
    #[should_panic(expected = "mutually exclusive")]
    fn schedule_and_faults_are_mutually_exclusive() {
        let _ = Fabric::new(FabricConfig {
            ranks: 2,
            segment_bytes: 4096,
            faults: Some(crate::faults::FaultPlan::new(1).drop(0.1)),
            schedule: Some(ScheduleConfig::new(Schedule::canonical())),
            ..FabricConfig::default()
        });
    }
}
