//! Reliable active-message delivery over a faulty wire.
//!
//! With a [`FaultPlan`](crate::faults::FaultPlan) installed, `send_am` no
//! longer pushes straight into the destination inbox. Every frame on a
//! link gets a per-link sequence number, and the link's receiver-side
//! state ([`LinkIn`]) enforces **exactly-once, in-order** delivery:
//!
//! * **drop** — the frame is parked in the link's `lost` queue and
//!   re-offered (retransmitted) by the *destination's* progress engine
//!   ([`Fabric::pump_incoming`], called from `advance()`) with exponential
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
//! One-sided RMA takes a different path (`Fabric::rma_gate_slow`): puts,
//! gets and remote atomics are synchronous in this fabric, so a dropped
//! attempt is simply retried inline (re-charging the synthetic wire),
//! without dup/reorder modes — duplicating a `fetch_add` would change the
//! result, and a real NIC's RDMA engine retries lost packets below the
//! atomicity layer for exactly that reason.

use crate::fabric::{AmMessage, Fabric};
use crate::faults::{decide, Fate, FaultPlan};
use crate::Rank;
use rupcxx_trace::EventKind;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use rupcxx_util::sync::Mutex;

/// High bit distinguishing RMA sequence numbers from AM sequence numbers,
/// so the two ops streams draw independent fates on the same link.
const RMA_SEQ_TAG: u64 = 1 << 63;

/// A peer was declared dead: one frame exhausted its transmission-attempt
/// budget. Reported by [`Fabric::failure`] and surfaced by the runtime's
/// blocking waits instead of spinning forever.
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
    fn new() -> Self {
        LinkIn {
            next_seq: 0,
            next_expected: 0,
            tick: 0,
            ooo: BTreeMap::new(),
            limbo: Vec::new(),
            lost: Vec::new(),
        }
    }

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

/// Per-endpoint reliable-delivery state, allocated only when a fault plan
/// is installed (the faults-off hot path never touches it).
pub(crate) struct AmChannel {
    /// Incoming-link state, indexed by source rank.
    links: Box<[Mutex<LinkIn>]>,
    /// Outgoing RMA sequence counters, indexed by target rank.
    rma_seq: Box<[AtomicU64]>,
}

impl AmChannel {
    pub(crate) fn new(ranks: usize) -> Self {
        AmChannel {
            links: (0..ranks).map(|_| Mutex::new(LinkIn::new())).collect(),
            rma_seq: (0..ranks).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

impl Fabric {
    /// Reliable AM send path (faults installed, `src != dst`): stamp a
    /// per-link sequence number and offer the frame to the wire. The
    /// whole [`AmMessage`] (clock snapshot included) rides through
    /// limbo/lost/retransmit, so redelivered frames keep their original
    /// happens-before stamp.
    pub(crate) fn am_transmit(&self, src: Rank, dst: Rank, msg: AmMessage) {
        debug_assert_eq!(msg.src, src);
        let plan = self.faults.as_ref().expect("am_transmit without faults");
        let ch = self.endpoints[dst]
            .reliable
            .as_ref()
            .expect("faulty fabric without AmChannel");
        let mut link = ch.links[src].lock();
        let seq = link.next_seq;
        link.next_seq += 1;
        self.offer(&mut link, plan, dst, seq, msg, 0);
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
                self.endpoints[src]
                    .stats
                    .wire_drops
                    .fetch_add(1, Ordering::Relaxed);
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
            self.endpoints[dst]
                .stats
                .dup_arrivals
                .fetch_add(1, Ordering::Relaxed);
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
            self.endpoints[dst]
                .stats
                .reorders
                .fetch_add(1, Ordering::Relaxed);
            link.ooo.insert(seq, msg);
        }
    }

    /// Drive the reliable layer for rank `me`'s incoming links: advance
    /// each link's tick, release limbo frames whose hold expired, and
    /// retransmit lost frames whose backoff elapsed. Called from the
    /// runtime's `advance()`; returns the number of frames acted on so
    /// the progress engine can report work.
    pub fn pump_incoming(&self, me: Rank) -> usize {
        let Some(plan) = &self.faults else { return 0 };
        let ch = self.endpoints[me]
            .reliable
            .as_ref()
            .expect("faulty fabric without AmChannel");
        let mut work = 0;
        for src in 0..self.endpoints.len() {
            if src == me {
                continue;
            }
            let mut link = ch.links[src].lock();
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
                self.endpoints[src]
                    .stats
                    .retransmits
                    .fetch_add(1, Ordering::Relaxed);
                // The frame's span rides its message, tying the
                // retransmit back to the original injection.
                self.endpoints[src].trace.instant(
                    EventKind::Retransmit,
                    me as i32,
                    f.attempt as u64,
                    f.msg.prof.map_or(0, |s| s.id),
                );
                self.offer(&mut link, plan, me, f.seq, f.msg, f.attempt);
                work += 1;
            }
        }
        work
    }

    /// True when no frame destined for `me` is still buffered, held or
    /// awaiting retransmission — by the reliable layer *or* the
    /// controlled scheduler. Teardown drains until this holds, so
    /// end-of-job counter snapshots are stable. The scheduler's parked
    /// frames are counted fabric-wide (a sound superset): quiescence is
    /// only ever asserted globally (deadlock scan's quiet check,
    /// teardown), so the coarser probe never reports quiet too early.
    pub fn links_quiescent(&self, me: Rank) -> bool {
        if self.sched_pending() != 0 {
            return false;
        }
        match &self.endpoints[me].reliable {
            None => true,
            Some(ch) => ch.links.iter().all(|l| l.lock().is_quiescent()),
        }
    }

    /// Cheap check used by blocking waits: has any link failed?
    #[inline]
    pub fn has_failed(&self) -> bool {
        self.failed.load(Ordering::Relaxed)
    }

    /// The first [`PeerUnreachable`] failure, if any link died.
    pub fn failure(&self) -> Option<PeerUnreachable> {
        if !self.failed.load(Ordering::Acquire) {
            return None;
        }
        *self.failure_detail.lock()
    }

    pub(crate) fn mark_unreachable(&self, e: PeerUnreachable) {
        let mut detail = self.failure_detail.lock();
        if detail.is_none() {
            *detail = Some(e);
        }
        drop(detail);
        self.failed.store(true, Ordering::Release);
        // Postmortem: record the death on the initiator's stream and
        // dump every rank's flight-recorder tail (once per job).
        self.endpoints[e.src].trace.instant(
            EventKind::Unreachable,
            e.dst as i32,
            e.attempts as u64,
            0,
        );
        self.dump_flight(&e.to_string());
    }

    /// Fault gate for one-sided RMA (`initiator != target`, plan
    /// installed): draw a fate per attempt and retry drops inline,
    /// re-charging the synthetic wire each time, until delivery or the
    /// attempt budget dies.
    ///
    /// # Panics
    /// Panics with the [`PeerUnreachable`] message once `max_attempts`
    /// transmissions of the same op have been dropped (after recording
    /// the failure for [`Fabric::failure`]).
    #[cold]
    pub(crate) fn rma_gate_slow(&self, initiator: Rank, target: Rank, bytes: usize) {
        let plan = self.faults.as_ref().expect("rma_gate without faults");
        let ch = self.endpoints[initiator]
            .reliable
            .as_ref()
            .expect("faulty fabric without AmChannel");
        let seq = ch.rma_seq[target].fetch_add(1, Ordering::Relaxed) | RMA_SEQ_TAG;
        let mut attempt = 0u32;
        loop {
            match decide(plan, initiator, target, seq, attempt) {
                // Dup/reorder don't apply to one-sided RMA — replaying a
                // remote atomic would change its result. Loss is the only
                // modeled failure; anything delivered is done.
                Fate::Deliver { .. } => return,
                Fate::Drop => {
                    let stats = &self.endpoints[initiator].stats;
                    stats.wire_drops.fetch_add(1, Ordering::Relaxed);
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
                    stats.retransmits.fetch_add(1, Ordering::Relaxed);
                    // RMA ops carry no wire span (they are synchronous);
                    // span 0 marks an initiator-side inline retry.
                    self.endpoints[initiator].trace.instant(
                        EventKind::Retransmit,
                        target as i32,
                        attempt as u64,
                        0,
                    );
                    // The retry traverses the wire again.
                    self.wire(initiator, target, bytes);
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
    use rupcxx_trace::TraceConfig;
    use rupcxx_util::Bytes;
    use std::sync::Arc;

    fn faulty_fabric(ranks: usize, plan: FaultPlan) -> Arc<Fabric> {
        Fabric::new(FabricConfig {
            ranks,
            segment_bytes: 4096,
            simnet: None,
            trace: TraceConfig::off(),
            faults: Some(plan),
            agg: None,
            check: None,
            cache: None,
            prof: None,
            schedule: None,
            remote: None,
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
            if f.has_failed() {
                break;
            }
        }
        let e = f.failure().expect("dead link must be reported");
        assert_eq!((e.src, e.dst), (0, 1));
        assert_eq!(e.attempts, 4);
        assert!(e.to_string().contains("unreachable"));
        assert!(f.links_quiescent(1), "abandoned frame leaves no residue");
        assert_eq!(f.endpoint(0).stats.snapshot().wire_drops, 4);
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
        assert!(!f.has_failed());
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
        assert!(!f.has_failed());
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
