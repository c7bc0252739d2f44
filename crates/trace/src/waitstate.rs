//! Wait-state attribution: *why* did a blocking construct block?
//!
//! Scalasca-style classification. Each blocking construct (barrier,
//! collective, fence, event/future wait, finish quiescence, lock acquire,
//! two-sided request, aggregation window) waits through the runtime's one
//! `Ctx::wait_on`;
//! when the wait ends, what the fabric did while we were blocked picks
//! exactly one state:
//!
//! * [`WaitState::RetransmitStall`] — the reliable layer retransmitted
//!   frames anywhere in the fabric during the wait: we were waiting out
//!   packet loss, not the peer.
//! * [`WaitState::LateReceiver`] — a lock acquire spun on a holder who
//!   had not released yet (the classic one-sided late-receiver), or a
//!   buffered call waited for a peer to apply the batches it was sent.
//! * [`WaitState::LateSender`] — messages joined during the wait and the
//!   newest of them was injected *after* we started waiting: the peer
//!   simply had not sent yet.
//! * [`WaitState::ProgressStarved`] — everything we absorbed was already
//!   in flight before we blocked (or nothing arrived at all): the data
//!   was there, the progress engine just had not run.
//!
//! Every blocked wait gets exactly one state for its full duration, so
//! attribution is total by construction; the per-construct × per-state
//! histograms are the input a knob that sets itself would need (the
//! ROADMAP's "fewer knobs rather than tuned knobs").

use crate::histogram::{HistogramSnapshot, Log2Histogram};

/// Which blocking construct waited.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum WaitConstruct {
    /// `barrier()` episode (dissemination rounds included).
    Barrier,
    /// `agg_fence()` / fence quiescence wait.
    Fence,
    /// `Event::wait`.
    EventWait,
    /// `RtFuture::get` reply wait.
    FutureWait,
    /// `finish` scope quiescence wait.
    FinishWait,
    /// `GlobalLock::acquire` spin.
    LockAcquire,
    /// Arrivals of a collective (broadcast, reduce, gather, exchange —
    /// world or team) outside a barrier.
    Collective,
    /// A two-sided request of the MPI baseline (`wait_send`/`wait_recv`).
    Request,
    /// A buffered call throttled by the aggregation window: every slab is
    /// out and a peer has yet to apply a batch.
    AggWindow,
}

/// All constructs, in discriminant order (for iteration and reports).
pub const CONSTRUCTS: [WaitConstruct; 9] = [
    WaitConstruct::Barrier,
    WaitConstruct::Fence,
    WaitConstruct::EventWait,
    WaitConstruct::FutureWait,
    WaitConstruct::FinishWait,
    WaitConstruct::LockAcquire,
    WaitConstruct::Collective,
    WaitConstruct::Request,
    WaitConstruct::AggWindow,
];

impl WaitConstruct {
    /// Stable name used by reports.
    pub fn name(self) -> &'static str {
        match self {
            WaitConstruct::Barrier => "barrier",
            WaitConstruct::Fence => "fence",
            WaitConstruct::EventWait => "event_wait",
            WaitConstruct::FutureWait => "future_wait",
            WaitConstruct::FinishWait => "finish_wait",
            WaitConstruct::LockAcquire => "lock_acquire",
            WaitConstruct::Collective => "collective",
            WaitConstruct::Request => "request",
            WaitConstruct::AggWindow => "agg_window",
        }
    }
}

/// Why the construct blocked.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum WaitState {
    /// The awaited message was injected after we started waiting.
    LateSender,
    /// The peer had not consumed/released what we needed (locks, the
    /// aggregation window).
    LateReceiver,
    /// Data was already in flight before the wait; progress lagged.
    ProgressStarved,
    /// The fabric was retransmitting lost frames during the wait.
    RetransmitStall,
}

/// All states, in discriminant order.
pub const STATES: [WaitState; 4] = [
    WaitState::LateSender,
    WaitState::LateReceiver,
    WaitState::ProgressStarved,
    WaitState::RetransmitStall,
];

impl WaitState {
    /// Stable name used by reports.
    pub fn name(self) -> &'static str {
        match self {
            WaitState::LateSender => "late_sender",
            WaitState::LateReceiver => "late_receiver",
            WaitState::ProgressStarved => "progress_starved",
            WaitState::RetransmitStall => "retransmit_stall",
        }
    }
}

/// Pack a construct + state into the `a` word of a `Wait` event.
pub fn pack_wait(construct: WaitConstruct, state: WaitState) -> u64 {
    ((construct as u64) << 8) | state as u64
}

/// Unpack a [`pack_wait`] word (None for a corrupt encoding).
pub fn unpack_wait(a: u64) -> Option<(WaitConstruct, WaitState)> {
    let c = *CONSTRUCTS.get((a >> 8) as usize)?;
    let s = *STATES.get((a & 0xff) as usize)?;
    Some((c, s))
}

/// Pick the single state for a finished wait.
///
/// `retx_delta` is the fabric-wide retransmit delta over the wait,
/// `joined_delta` the number of spans this rank joined during it, and
/// `last_inject_ns` the injection watermark after the wait (compare
/// against `wait_start_ns`).
pub fn classify(
    construct: WaitConstruct,
    retx_delta: u64,
    joined_delta: u64,
    last_inject_ns: u64,
    wait_start_ns: u64,
) -> WaitState {
    if retx_delta > 0 {
        WaitState::RetransmitStall
    } else if matches!(
        construct,
        WaitConstruct::LockAcquire | WaitConstruct::AggWindow
    ) {
        WaitState::LateReceiver
    } else if joined_delta > 0 && last_inject_ns >= wait_start_ns {
        WaitState::LateSender
    } else {
        WaitState::ProgressStarved
    }
}

/// Live per-construct × per-state wait-time histograms (ns). Boxed: the
/// table is 17 KiB that only a recording rank touches, and the recorder
/// sits inline in the fabric's per-rank `Endpoint`.
#[derive(Debug, Default)]
pub struct WaitStats {
    hist: Box<[[Log2Histogram; STATES.len()]; CONSTRUCTS.len()]>,
}

impl WaitStats {
    /// Record one classified wait.
    pub fn record(&self, construct: WaitConstruct, state: WaitState, dur_ns: u64) {
        self.hist[construct as usize][state as usize].record(dur_ns);
    }

    /// Point-in-time copy.
    pub fn snapshot(&self) -> WaitStatsSnapshot {
        WaitStatsSnapshot {
            hist: std::array::from_fn(|c| std::array::from_fn(|s| self.hist[c][s].snapshot())),
        }
    }
}

/// A point-in-time copy of [`WaitStats`].
#[derive(Clone, Copy, Debug, Default)]
pub struct WaitStatsSnapshot {
    /// `hist[construct][state]`.
    pub hist: [[HistogramSnapshot; STATES.len()]; CONSTRUCTS.len()],
}

impl WaitStatsSnapshot {
    /// One construct × state cell.
    pub fn cell(&self, c: WaitConstruct, s: WaitState) -> &HistogramSnapshot {
        &self.hist[c as usize][s as usize]
    }

    /// Total wait ns attributed to `state` across all constructs.
    pub fn state_ns(&self, s: WaitState) -> u64 {
        CONSTRUCTS.iter().map(|&c| self.cell(c, s).sum).sum()
    }

    /// Total wait ns recorded for `construct` across all states.
    pub fn construct_ns(&self, c: WaitConstruct) -> u64 {
        STATES.iter().map(|&s| self.cell(c, s).sum).sum()
    }

    /// Total attributed wait ns across everything.
    pub fn total_ns(&self) -> u64 {
        CONSTRUCTS.iter().map(|&c| self.construct_ns(c)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_roundtrips() {
        for &c in &CONSTRUCTS {
            for &s in &STATES {
                assert_eq!(unpack_wait(pack_wait(c, s)), Some((c, s)));
            }
        }
        assert_eq!(unpack_wait(0xffff), None);
    }

    #[test]
    fn classification_priorities() {
        use WaitConstruct::*;
        use WaitState::*;
        // Retransmits trump everything: the wire was the problem.
        assert_eq!(classify(Barrier, 3, 5, 100, 50), RetransmitStall);
        assert_eq!(classify(LockAcquire, 1, 0, 0, 50), RetransmitStall);
        // Lock spins are late-receiver by construction.
        assert_eq!(classify(LockAcquire, 0, 2, 100, 50), LateReceiver);
        // So is a sender throttled until its batches are applied.
        assert_eq!(classify(AggWindow, 0, 2, 100, 50), LateReceiver);
        // A message injected after we blocked = late sender.
        assert_eq!(classify(EventWait, 0, 1, 100, 50), LateSender);
        // Injected before we blocked = the progress engine was behind.
        assert_eq!(classify(EventWait, 0, 1, 40, 50), ProgressStarved);
        // Nothing arrived at all: also starved, not a named peer.
        assert_eq!(classify(Barrier, 0, 0, 0, 50), ProgressStarved);
    }

    #[test]
    fn stats_record_and_total() {
        let w = WaitStats::default();
        w.record(WaitConstruct::Barrier, WaitState::LateSender, 1000);
        w.record(WaitConstruct::Barrier, WaitState::RetransmitStall, 500);
        w.record(WaitConstruct::LockAcquire, WaitState::LateReceiver, 200);
        let s = w.snapshot();
        assert_eq!(s.construct_ns(WaitConstruct::Barrier), 1500);
        assert_eq!(s.state_ns(WaitState::LateSender), 1000);
        assert_eq!(s.state_ns(WaitState::LateReceiver), 200);
        assert_eq!(s.total_ns(), 1700);
        assert_eq!(
            s.cell(WaitConstruct::Barrier, WaitState::LateSender).count,
            1
        );
    }
}
