//! Reliable active-message delivery over a faulty wire.
//!
//! A fault plan that can fault makes [`Reliable`] the fabric's delivery
//! stage (`Fabric::new` decides, once): `send_am` no longer pushes
//! straight into the destination inbox. Every frame on a link gets a
//! per-link sequence number, and the link's receiver-side state
//! ([`LinkIn`]) enforces **exactly-once, in-order** delivery:
//!
//! * **drop** — the frame is parked in the link's `lost` queue and
//!   re-offered (retransmitted) by the *destination's* progress engine
//!   ([`Fabric::pump_incoming`], which `advance()` calls) with exponential
//!   backoff in pump ticks; after `max_attempts` total attempts the peer
//!   is declared [`PeerUnreachable`] and the job fails instead of hanging;
//! * **duplicate** — the second copy is routed through the dedup window
//!   (everything at or behind `next_expected`, plus the reorder buffer and
//!   limbo) and discarded, counted as a `dup_arrival`;
//! * **reorder / delay** — the frame sits in `limbo` for a deterministic
//!   number of pump ticks; frames that overtake it wait in the
//!   out-of-order buffer and are released in sequence order.
//!
//! Because the fate of every transmission is a pure function of
//! `(seed, src, dst, seq, attempt)` — see `crate::faults::decide` — the
//! retransmit / wire-drop / dup counts of a run are reproducible: they
//! depend on the (deterministic, program-ordered) send sequence, never on
//! thread scheduling. The `reorders` count is the one scheduling-dependent
//! statistic (whether a successor overtakes a held frame depends on when
//! the receiver pumps), so determinism assertions stick to the first
//! three.
//!
//! One-sided RMA meets the same stage in `Fabric::rma`'s prologue, which
//! sends every remote op through [`Reliable`]'s gate: puts, gets and
//! remote atomics are synchronous in this fabric, so a dropped attempt is
//! simply retried inline, without dup/reorder modes — duplicating a
//! `fetch_add` would change the result, and a real NIC's RDMA engine
//! retries lost packets below the atomicity layer for exactly that
//! reason.
//!
//! A dead peer is one of the three [`JobFailure`]s, beside a deadlock
//! conviction and a rank's panic: [`Fabric::fail`] keeps a job's first,
//! and every blocking wait of the job panics with it.

use crate::fabric::{AmMessage, Fabric};
use crate::faults::{decide, Fate, FaultPlan};
use crate::stats::Counter;
use crate::Rank;
use rupcxx_trace::EventKind;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use rupcxx_util::sync::Mutex;

/// High bit distinguishing RMA sequence numbers from AM sequence numbers,
/// so the two ops streams draw independent fates on the same link.
const RMA_SEQ_TAG: u64 = 1 << 63;

/// A peer was declared dead: one frame exhausted its transmission-attempt
/// budget, or a conduit link closed or carried bytes this rank refused.
/// Reported as [`JobFailure::Unreachable`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PeerUnreachable {
    /// Sending rank of the abandoned frame.
    pub src: Rank,
    /// Destination rank that could not be reached.
    pub dst: Rank,
    /// Link sequence number of the abandoned frame.
    pub seq: u64,
    /// Transmission attempts made before giving up.
    pub attempts: u32,
}

impl std::fmt::Display for PeerUnreachable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "peer {} unreachable from rank {}: frame seq={} abandoned after {} transmission attempts",
            self.dst,
            self.src,
            self.seq & !RMA_SEQ_TAG,
            self.attempts
        )
    }
}

impl std::error::Error for PeerUnreachable {}

/// Why a job failed: one per job ([`Fabric::fail`] keeps the first), and
/// every blocking wait panics with it ([`Fabric::failure`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobFailure {
    /// A peer was declared dead.
    Unreachable(PeerUnreachable),
    /// The deadlock checker's `rupcxx-check: …` report line.
    Deadlock(String),
    /// A rank's program panicked.
    Panicked(Rank),
}

impl std::fmt::Display for JobFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobFailure::Unreachable(e) => e.fmt(f),
            JobFailure::Deadlock(report) => f.write_str(report),
            JobFailure::Panicked(rank) => write!(f, "rank {rank} panicked"),
        }
    }
}

/// A delivered frame being held back by a reorder/delay fate.
struct LimboFrame {
    seq: u64,
    msg: AmMessage,
    /// Pump tick at which the frame is released to the dedup window.
    release_tick: u64,
}

/// A dropped frame awaiting retransmission.
struct LostFrame {
    seq: u64,
    msg: AmMessage,
    /// Attempt number of the *next* transmission.
    attempt: u32,
    /// Pump tick at which the retransmission happens (exponential
    /// backoff: `1 << attempt` ticks after the drop).
    due_tick: u64,
}

/// Receiver-side state of one directed link (`src -> owner`). The same
/// mutex also serializes the sender's sequence assignment, which keeps
/// per-link seq numbers in program order — the root of fate determinism.
#[derive(Default)]
pub(crate) struct LinkIn {
    /// Next sequence number the sender will stamp on this link.
    next_seq: u64,
    /// Next in-order sequence number the receiver will release.
    next_expected: u64,
    /// Progress-engine pump counter for this link.
    tick: u64,
    /// Frames that arrived ahead of a missing predecessor.
    ooo: BTreeMap<u64, AmMessage>,
    /// Frames held back by a reorder/delay fate.
    limbo: Vec<LimboFrame>,
    /// Dropped frames awaiting retransmission.
    lost: Vec<LostFrame>,
}

impl LinkIn {
    fn is_quiescent(&self) -> bool {
        self.ooo.is_empty() && self.limbo.is_empty() && self.lost.is_empty()
    }

    /// True when `seq` has already been seen (delivered, buffered or in
    /// flight through limbo/lost) — the dedup window.
    fn already_seen(&self, seq: u64) -> bool {
        seq < self.next_expected
            || self.ooo.contains_key(&seq)
            || self.limbo.iter().any(|f| f.seq == seq)
            || self.lost.iter().any(|f| f.seq == seq)
    }
}

/// The reliable delivery stage: the fault plan and the state of every
/// directed link, both indexed `src * ranks + dst`.
pub(crate) struct Reliable {
    plan: FaultPlan,
    ranks: usize,
    /// Receiver-side state of each link.
    links: Box<[Mutex<LinkIn>]>,
    /// RMA sequence counters of each link (initiator to target).
    rma_seq: Box<[AtomicU64]>,
}

impl Reliable {
    pub(crate) fn new(plan: FaultPlan, ranks: usize) -> Self {
        Reliable {
            plan,
            ranks,
            links: (0..ranks * ranks)
                .map(|_| Mutex::new(LinkIn::default()))
                .collect(),
            rma_seq: (0..ranks * ranks).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn link(&self, src: Rank, dst: Rank) -> &Mutex<LinkIn> {
        &self.links[src * self.ranks + dst]
    }

    /// True when no frame bound for `me` is buffered, held or awaiting
    /// retransmission.
    pub(crate) fn quiescent(&self, me: Rank) -> bool {
        (0..self.ranks).all(|src| self.link(src, me).lock().is_quiescent())
    }
}

impl Fabric {
    /// Reliable AM send path (`src != dst`): stamp a per-link sequence
    /// number and offer the frame to the wire. The whole [`AmMessage`]
    /// (clock snapshot included) rides through limbo/lost/retransmit, so
    /// redelivered frames keep their original happens-before stamp.
    pub(crate) fn am_transmit(&self, rel: &Reliable, src: Rank, dst: Rank, msg: AmMessage) {
        debug_assert_eq!(msg.src, src);
        let mut link = rel.link(src, dst).lock();
        let seq = link.next_seq;
        link.next_seq += 1;
        self.offer(&mut link, &rel.plan, dst, seq, msg, 0);
    }

    /// One transmission attempt of `seq` on `msg.src -> dst`, dispatching
    /// on its (pure, replayable) fate.
    fn offer(
        &self,
        link: &mut LinkIn,
        plan: &FaultPlan,
        dst: Rank,
        seq: u64,
        msg: AmMessage,
        attempt: u32,
    ) {
        let src = msg.src;
        match decide(plan, src, dst, seq, attempt) {
            Fate::Drop => {
                self.endpoints[src].stats.add(Counter::WireDrops, 1);
                self.endpoints[src]
                    .trace
                    .instant(EventKind::WireDrop, dst as i32, 0, 0);
                if attempt + 1 >= plan.max_attempts {
                    // Budget exhausted: abandon the frame and fail the
                    // job visibly rather than retrying forever.
                    self.mark_unreachable(PeerUnreachable {
                        src,
                        dst,
                        seq,
                        attempts: attempt + 1,
                    });
                } else {
                    let due_tick = link.tick + (1u64 << attempt.min(10));
                    link.lost.push(LostFrame {
                        seq,
                        msg,
                        attempt: attempt + 1,
                        due_tick,
                    });
                }
            }
            Fate::Deliver {
                duplicate,
                hold_ticks,
            } => {
                if hold_ticks > 0 {
                    link.limbo.push(LimboFrame {
                        seq,
                        msg,
                        release_tick: link.tick + hold_ticks as u64,
                    });
                } else {
                    self.link_accept(link, src, dst, seq, Some(msg));
                }
                if duplicate {
                    // The wire also produced a second copy; it trails the
                    // original, so the dedup window always catches it.
                    self.link_accept(link, src, dst, seq, None);
                }
            }
        }
    }

    /// Receiver-side arrival of `seq`: dedup, then in-order release into
    /// the inbox (buffering out-of-order frames). `msg == None` is a
    /// duplicate wire copy, carried without payload because fates are
    /// decided synchronously — it must land in the dedup window.
    fn link_accept(
        &self,
        link: &mut LinkIn,
        src: Rank,
        dst: Rank,
        seq: u64,
        msg: Option<AmMessage>,
    ) {
        if link.already_seen(seq) {
            self.endpoints[dst].stats.add(Counter::DupArrivals, 1);
            self.endpoints[dst]
                .trace
                .instant(EventKind::AmDup, src as i32, 0, 0);
            return;
        }
        let msg = msg.expect("duplicate wire copy escaped the dedup window");
        if seq == link.next_expected {
            self.endpoints[dst].inbox.push(msg);
            link.next_expected += 1;
            // Release the in-order run the arrival may have completed.
            while let Some(m) = link.ooo.remove(&link.next_expected) {
                self.endpoints[dst].inbox.push(m);
                link.next_expected += 1;
            }
        } else {
            // A predecessor is still in limbo or lost: park in order.
            self.endpoints[dst].stats.add(Counter::Reorders, 1);
            link.ooo.insert(seq, msg);
        }
    }

    /// Drive the reliable layer for rank `me`'s incoming links: advance
    /// each link's tick, release limbo frames whose hold expired, and
    /// retransmit lost frames whose backoff elapsed. Returns the number
    /// of frames acted on.
    pub(crate) fn pump_reliable(&self, rel: &Reliable, me: Rank) -> usize {
        let mut work = 0;
        for src in 0..rel.ranks {
            if src == me {
                continue;
            }
            let mut link = rel.link(src, me).lock();
            if link.limbo.is_empty() && link.lost.is_empty() {
                continue;
            }
            link.tick += 1;
            let now = link.tick;
            let (mut due, keep): (Vec<_>, Vec<_>) = std::mem::take(&mut link.limbo)
                .into_iter()
                .partition(|f| f.release_tick <= now);
            link.limbo = keep;
            // Seq order within a tick, so simultaneous releases can't
            // invert each other.
            due.sort_by_key(|f| f.seq);
            for f in due {
                self.link_accept(&mut link, src, me, f.seq, Some(f.msg));
                work += 1;
            }
            let (mut due, keep): (Vec<_>, Vec<_>) = std::mem::take(&mut link.lost)
                .into_iter()
                .partition(|f| f.due_tick <= now);
            link.lost = keep;
            due.sort_by_key(|f| f.seq);
            for f in due {
                self.endpoints[src].stats.add(Counter::Retransmits, 1);
                // The frame's span rides its message, tying the
                // retransmit back to the original injection.
                self.endpoints[src].trace.instant(
                    EventKind::Retransmit,
                    me as i32,
                    f.attempt as u64,
                    f.msg.prof().map_or(0, |s| s.id),
                );
                self.offer(&mut link, &rel.plan, me, f.seq, f.msg, f.attempt);
                work += 1;
            }
        }
        work
    }

    /// Why the job failed, if it has: what every blocking wait checks.
    #[inline]
    pub fn failure(&self) -> Option<&JobFailure> {
        self.failed.get()
    }

    /// Record that the job failed. The first failure wins, and only it
    /// dumps the flight recorder; a later one changes nothing.
    #[cold]
    pub fn fail(&self, why: JobFailure) {
        let reason = why.to_string();
        if self.failed.set(why).is_ok() {
            self.dump_flight(&reason);
        }
    }

    pub(crate) fn mark_unreachable(&self, e: PeerUnreachable) {
        // Record the death on the initiator's stream first, so the
        // flight-recorder dump shows it.
        self.endpoints[e.src].trace.instant(
            EventKind::Unreachable,
            e.dst as i32,
            e.attempts as u64,
            0,
        );
        self.fail(JobFailure::Unreachable(e));
    }

    /// Fault gate for one-sided RMA (`initiator != target`): draw a fate
    /// per attempt and retry drops inline until delivery or the attempt
    /// budget dies.
    ///
    /// # Panics
    /// Panics with the [`PeerUnreachable`] message once `max_attempts`
    /// transmissions of the same op have been dropped (after failing the
    /// job with it).
    #[cold]
    pub(crate) fn rma_gate_slow(&self, rel: &Reliable, initiator: Rank, target: Rank) {
        let plan = &rel.plan;
        let seq = rel.rma_seq[initiator * rel.ranks + target].fetch_add(1, Ordering::Relaxed)
            | RMA_SEQ_TAG;
        let mut attempt = 0u32;
        loop {
            match decide(plan, initiator, target, seq, attempt) {
                // Dup/reorder don't apply to one-sided RMA — replaying a
                // remote atomic would change its result. Loss is the only
                // modeled failure; anything delivered is done.
                Fate::Deliver { .. } => return,
                Fate::Drop => {
                    let stats = &self.endpoints[initiator].stats;
                    stats.add(Counter::WireDrops, 1);
                    self.endpoints[initiator].trace.instant(
                        EventKind::WireDrop,
                        target as i32,
                        0,
                        0,
                    );
                    attempt += 1;
                    if attempt >= plan.max_attempts {
                        let e = PeerUnreachable {
                            src: initiator,
                            dst: target,
                            seq,
                            attempts: attempt,
                        };
                        self.mark_unreachable(e);
                        panic!("{e}");
                    }
                    stats.add(Counter::Retransmits, 1);
                    // RMA ops carry no wire span (they are synchronous);
                    // span 0 marks an initiator-side inline retry.
                    self.endpoints[initiator].trace.instant(
                        EventKind::Retransmit,
                        target as i32,
                        attempt as u64,
                        0,
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::{AmPayload, FabricConfig};
    use crate::faults::LinkRule;
    use crate::GlobalAddr;
    use rupcxx_util::Bytes;
    use std::sync::Arc;

    fn faulty_fabric(ranks: usize, plan: FaultPlan) -> Arc<Fabric> {
        Fabric::new(FabricConfig {
            ranks,
            segment_bytes: 4096,
            faults: Some(plan),
            ..FabricConfig::default()
        })
    }

    fn send_handler(f: &Fabric, src: Rank, dst: Rank, id: u16) {
        f.send_am(
            src,
            dst,
            AmPayload::Handler {
                id,
                args: Bytes::new(),
            },
        );
    }

    /// Pump + drain until the link is quiescent, returning delivered ids.
    fn pump_to_quiescence(f: &Fabric, me: Rank) -> Vec<u16> {
        let mut got = Vec::new();
        for _ in 0..10_000 {
            f.pump_incoming(me);
            while let Some(m) = f.endpoint(me).try_recv() {
                if let AmPayload::Handler { id, .. } = m.payload {
                    got.push(id);
                }
            }
            if f.links_quiescent(me) && f.endpoint(me).pending() == 0 {
                return got;
            }
        }
        panic!("link did not quiesce");
    }

    #[test]
    fn lossy_link_delivers_exactly_once_in_order() {
        let f = faulty_fabric(2, FaultPlan::new(42).drop(0.3).dup(0.2).reorder(0.3));
        for id in 0..100u16 {
            send_handler(&f, 0, 1, id);
        }
        let got = pump_to_quiescence(&f, 1);
        assert_eq!(got, (0..100).collect::<Vec<_>>());
        let src = f.endpoint(0).stats.snapshot();
        let dst = f.endpoint(1).stats.snapshot();
        assert!(src.wire_drops > 0, "30% drop plan must drop something");
        assert_eq!(
            src.retransmits, src.wire_drops,
            "every drop is retried exactly once at quiescence"
        );
        assert!(
            dst.dup_arrivals > 0,
            "20% dup plan must duplicate something"
        );
        assert_eq!(dst.ams_handled, 100);
    }

    #[test]
    fn fault_counts_identical_across_runs() {
        let run = || {
            let f = faulty_fabric(2, FaultPlan::new(7).drop(0.25).dup(0.1).delay(0.2));
            for id in 0..200u16 {
                send_handler(&f, 0, 1, id);
            }
            let got = pump_to_quiescence(&f, 1);
            assert_eq!(got.len(), 200);
            let c = f.total_counts();
            (c.wire_drops, c.retransmits, c.dup_arrivals)
        };
        assert_eq!(run(), run(), "same seed, same fault counts");
    }

    #[test]
    fn different_seeds_differ() {
        let drops = |seed| {
            let f = faulty_fabric(2, FaultPlan::new(seed).drop(0.3));
            for id in 0..100u16 {
                send_handler(&f, 0, 1, id);
            }
            pump_to_quiescence(&f, 1);
            f.total_counts().wire_drops
        };
        assert_ne!(drops(1), drops(2));
    }

    #[test]
    fn dead_link_reports_peer_unreachable() {
        let f = faulty_fabric(
            2,
            FaultPlan::new(1)
                .link(
                    0,
                    1,
                    LinkRule {
                        drop_ppm: 1_000_000,
                        ..Default::default()
                    },
                )
                .max_attempts(4),
        );
        assert!(f.failure().is_none());
        send_handler(&f, 0, 1, 0);
        // Drive the receiver until the attempt budget is exhausted.
        for _ in 0..100 {
            f.pump_incoming(1);
            if f.failure().is_some() {
                break;
            }
        }
        let Some(JobFailure::Unreachable(e)) = f.failure() else {
            panic!("dead link must be reported, not {:?}", f.failure());
        };
        assert_eq!((e.src, e.dst), (0, 1));
        assert_eq!(e.attempts, 4);
        assert!(e.to_string().contains("unreachable"));
        assert!(f.links_quiescent(1), "abandoned frame leaves no residue");
        assert_eq!(f.endpoint(0).stats.snapshot().wire_drops, 4);
    }

    #[test]
    fn the_first_failure_is_kept_and_dumped_once() {
        let f = Fabric::new(FabricConfig {
            ranks: 2,
            segment_bytes: 4096,
            trace: rupcxx_trace::TraceConfig::events(),
            ..FabricConfig::default()
        });
        let first = JobFailure::Deadlock("rupcxx-check: planted verdict".to_string());
        f.fail(first.clone());
        f.fail(JobFailure::Panicked(1));
        let dead = PeerUnreachable {
            src: 1,
            dst: 0,
            seq: 0,
            attempts: 77,
        };
        f.mark_unreachable(dead);
        assert_eq!(f.failure(), Some(&first));
        let ours = [
            first,
            JobFailure::Panicked(1),
            JobFailure::Unreachable(dead),
        ]
        .map(|why| format!("flight recorder: {why} ==="));
        let dumps = rupcxx_trace::flight::take_dumps();
        let dumped: Vec<_> = ours
            .iter()
            .map(|header| dumps.iter().filter(|d| d.contains(header)).count())
            .collect();
        assert_eq!(dumped, [1, 0, 0]);
    }

    #[test]
    fn reverse_direction_unaffected_by_dead_link() {
        let f = faulty_fabric(
            2,
            FaultPlan::new(3)
                .link(
                    0,
                    1,
                    LinkRule {
                        drop_ppm: 1_000_000,
                        ..Default::default()
                    },
                )
                .max_attempts(2),
        );
        for id in 0..10u16 {
            send_handler(&f, 1, 0, id);
        }
        assert_eq!(pump_to_quiescence(&f, 0), (0..10).collect::<Vec<_>>());
        assert!(f.failure().is_none());
    }

    #[test]
    fn rma_retries_through_drops_and_completes() {
        let f = faulty_fabric(2, FaultPlan::new(9).drop(0.4));
        for i in 0..100u64 {
            f.put_u64(0, GlobalAddr::new(1, (i % 64) as usize * 8), i);
            let _ = f.get_u64(0, GlobalAddr::new(1, (i % 64) as usize * 8));
        }
        let c = f.endpoint(0).stats.snapshot();
        assert_eq!(c.puts, 100);
        assert_eq!(c.gets, 100);
        assert!(c.wire_drops > 0, "40% drop plan must hit RMA");
        assert_eq!(c.retransmits, c.wire_drops);
        // The data still landed despite the drops (i=99 -> slot 99 % 64).
        assert_eq!(f.get_u64(1, GlobalAddr::new(1, 35 * 8)), 99);
    }

    #[test]
    #[should_panic(expected = "unreachable")]
    fn rma_dead_link_panics_with_report() {
        let f = faulty_fabric(
            2,
            FaultPlan::new(5)
                .link(
                    0,
                    1,
                    LinkRule {
                        drop_ppm: 1_000_000,
                        ..Default::default()
                    },
                )
                .max_attempts(3),
        );
        f.put_u64(0, GlobalAddr::new(1, 0), 1);
    }

    #[test]
    fn local_traffic_never_faulted() {
        let f = faulty_fabric(2, FaultPlan::new(2).drop(1.0).max_attempts(1));
        // Local RMA and local AMs bypass the wire entirely.
        f.put_u64(0, GlobalAddr::new(0, 0), 7);
        assert_eq!(f.get_u64(0, GlobalAddr::new(0, 0)), 7);
        send_handler(&f, 0, 0, 1);
        assert!(f.endpoint(0).try_recv().is_some());
        assert!(f.failure().is_none());
        assert_eq!(f.total_counts().wire_drops, 0);
    }

    #[test]
    fn clean_plan_with_channel_is_transparent() {
        // A plan that faults only 0->1 leaves 1->0 on the reliable path
        // but fault-free: frames flow through seq/dedup with no drops.
        let f = faulty_fabric(
            2,
            FaultPlan::new(8).link(
                0,
                1,
                LinkRule {
                    drop_ppm: 500_000,
                    ..Default::default()
                },
            ),
        );
        for id in 0..20u16 {
            send_handler(&f, 1, 0, id);
        }
        // No pump needed: clean deliveries release immediately.
        let mut got = Vec::new();
        while let Some(m) = f.endpoint(0).try_recv() {
            if let AmPayload::Handler { id, .. } = m.payload {
                got.push(id);
            }
        }
        assert_eq!(got, (0..20).collect::<Vec<_>>());
    }
}
