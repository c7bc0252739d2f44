//! The per-rank event ring: the one store every view reads.
//!
//! One ring per rank. The common case is a single writer (the rank
//! thread), but concurrent mode adds a progress worker with the same rank
//! id, so writes must be thread-safe: a writer claims a slot with a
//! global `fetch_add` (which doubles as the event's monotonic sequence
//! number), flips the slot's version counter odd→even around the write
//! (a seqlock), and *drops* the event — counting it — if it collides with
//! a writer that lags a full ring behind. Readers only run at export time
//! and retry torn slots, so the hot path never blocks.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, Ordering};

/// What happened. Spans carry a duration; instants have `dur_ns == 0`.
/// `a` is the kind's one extra word.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum EventKind {
    /// One-sided remote write (span; `a` = payload bytes).
    Put,
    /// One-sided remote read (span; `a` = payload bytes).
    Get,
    /// Active message injected (instant; `a` = packed-argument bytes,
    /// `peer` = destination, `span` = the causal id riding the message,
    /// 0 when spans are not on the wire).
    AmSend,
    /// Message received and joined to its span (instant; `peer` = origin,
    /// `a` = the injection timestamp, `span` = the id `AmSend` recorded).
    AmRecv,
    /// Active message executed by the progress engine (span).
    AmHandle,
    /// Async task enqueued towards `peer` (instant).
    TaskSpawn,
    /// One `advance()` call that did work (span; `a` = messages run).
    Advance,
    /// A blocking construct waited (span; `a` packs construct and state —
    /// see [`crate::waitstate::pack_wait`]).
    Wait,
    /// A barrier episode completed (instant; `a` = episode ns).
    BarrierExit,
    /// The reliable layer retransmitted a frame (instant; `a` = attempt
    /// number, `span` = the frame's causal id, 0 for an inline RMA retry).
    Retransmit,
    /// Transmission attempt lost on the wire by the fault plan (instant).
    WireDrop,
    /// Duplicate arrival discarded by the dedup window (instant).
    AmDup,
    /// Aggregation buffer flushed as one batch AM (instant; `a` = logical
    /// frames in the batch, `peer` = destination).
    Flush,
    /// Software read-cache miss filled a line through the fabric
    /// (instant; `a` = line fill size, `peer` = owning rank).
    CacheFill,
    /// Remote get served from the software read cache (instant; `a` =
    /// bytes returned, `peer` = owning rank).
    CacheHit,
    /// A peer was declared unreachable (instant; `peer` = the dead
    /// destination, `a` = attempts made).
    Unreachable,
}

impl EventKind {
    /// Stable name used by every view.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Put => "put",
            EventKind::Get => "get",
            EventKind::AmSend => "am_send",
            EventKind::AmRecv => "am_recv",
            EventKind::AmHandle => "am_handle",
            EventKind::TaskSpawn => "task_spawn",
            EventKind::Advance => "advance",
            EventKind::Wait => "wait",
            EventKind::BarrierExit => "barrier_exit",
            EventKind::Retransmit => "retransmit",
            EventKind::WireDrop => "wire_drop",
            EventKind::AmDup => "am_dup",
            EventKind::Flush => "flush",
            EventKind::CacheFill => "cache_fill",
            EventKind::CacheHit => "cache_hit",
            EventKind::Unreachable => "unreachable",
        }
    }

    /// Chrome trace `cat` field.
    pub fn category(self) -> &'static str {
        match self {
            EventKind::Put | EventKind::Get => "rma",
            EventKind::AmSend
            | EventKind::AmRecv
            | EventKind::AmHandle
            | EventKind::TaskSpawn
            | EventKind::Flush => "am",
            EventKind::Advance => "progress",
            EventKind::Wait | EventKind::BarrierExit => "sync",
            EventKind::Retransmit
            | EventKind::WireDrop
            | EventKind::AmDup
            | EventKind::Unreachable => "fault",
            EventKind::CacheFill | EventKind::CacheHit => "cache",
        }
    }

    /// True for duration events, false for instants.
    pub fn is_span(self) -> bool {
        matches!(
            self,
            EventKind::Put
                | EventKind::Get
                | EventKind::AmHandle
                | EventKind::Advance
                | EventKind::Wait
        )
    }

    /// True for the message- and wait-level facts the causal views
    /// (critical path, flight recorder) are built from. These are
    /// recorded whenever the ring exists; the rest are per-operation
    /// detail, recorded only in a `RUPCXX_TRACE` mode.
    pub fn is_causal(self) -> bool {
        matches!(
            self,
            EventKind::AmSend
                | EventKind::AmRecv
                | EventKind::Wait
                | EventKind::BarrierExit
                | EventKind::Retransmit
                | EventKind::Flush
                | EventKind::Unreachable
        )
    }
}

/// One recorded event. `peer` is the other rank involved (-1 = none).
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// Monotonic per-rank sequence number (ring claim index).
    pub seq: u64,
    /// Start timestamp, ns since the trace epoch.
    pub ts_ns: u64,
    /// Duration in ns (0 for instants).
    pub dur_ns: u64,
    /// Kind-dependent extra word (bytes, messages, wait packing, …).
    pub a: u64,
    /// Causal span id involved (0 = none).
    pub span: u64,
    /// Peer rank, -1 when not applicable.
    pub peer: i32,
    /// Event kind.
    pub kind: EventKind,
}

impl Event {
    const ZERO: Event = Event {
        seq: 0,
        ts_ns: 0,
        dur_ns: 0,
        a: 0,
        span: 0,
        peer: -1,
        kind: EventKind::Put,
    };
}

struct Slot {
    /// Seqlock version: odd while a writer owns the slot; `version / 2`
    /// is the number of completed writes.
    version: AtomicU64,
    event: UnsafeCell<Event>,
}

/// The per-rank ring buffer.
pub struct EventRing {
    slots: Box<[Slot]>,
    claim: AtomicU64,
    dropped: AtomicU64,
}

// Slots are published via the per-slot seqlock protocol.
unsafe impl Sync for EventRing {}

impl EventRing {
    /// A ring holding up to `capacity` events (rounded up to at least 2).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(2);
        EventRing {
            slots: (0..capacity)
                .map(|_| Slot {
                    version: AtomicU64::new(0),
                    event: UnsafeCell::new(Event::ZERO),
                })
                .collect(),
            claim: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Capacity in events.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total events ever pushed (successfully claimed).
    pub fn pushed(&self) -> u64 {
        self.claim.load(Ordering::Relaxed)
    }

    /// Events dropped due to writer collision on a wrapped slot.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Events no longer retrievable: writer-collision drops plus events
    /// overwritten by wraparound once `pushed` exceeds the capacity.
    pub fn lost(&self) -> u64 {
        self.dropped() + self.pushed().saturating_sub(self.capacity() as u64)
    }

    /// Record an event, stamping its sequence number. Lock-free.
    #[inline]
    pub fn push(&self, mut ev: Event) {
        let seq = self.claim.fetch_add(1, Ordering::Relaxed);
        ev.seq = seq;
        let slot = &self.slots[(seq % self.slots.len() as u64) as usize];
        let v = slot.version.load(Ordering::Acquire);
        if v & 1 == 1
            || slot
                .version
                .compare_exchange(v, v + 1, Ordering::Acquire, Ordering::Relaxed)
                .is_err()
        {
            // Another writer owns this slot (it lapped us or we lapped
            // it); losing one event beats blocking the hot path.
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        unsafe { *slot.event.get() = ev };
        slot.version.store(v + 2, Ordering::Release);
    }

    /// Copy out the surviving events, oldest first. Torn slots (a writer
    /// was mid-flight) are skipped. Intended for export at quiescence.
    pub fn snapshot(&self) -> Vec<Event> {
        let mut out = Vec::new();
        for slot in self.slots.iter() {
            let v0 = slot.version.load(Ordering::Acquire);
            if v0 == 0 || v0 & 1 == 1 {
                continue; // never written, or write in flight
            }
            let ev = unsafe { *slot.event.get() };
            if slot.version.load(Ordering::Acquire) != v0 {
                continue; // torn read
            }
            out.push(ev);
        }
        out.sort_unstable_by_key(|e| e.seq);
        out
    }
}

impl std::fmt::Debug for EventRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventRing")
            .field("capacity", &self.capacity())
            .field("pushed", &self.pushed())
            .field("dropped", &self.dropped())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: EventKind, a: u64) -> Event {
        Event {
            seq: 0,
            ts_ns: crate::now_ns(),
            dur_ns: 1,
            a,
            span: 0,
            peer: 1,
            kind,
        }
    }

    #[test]
    fn push_and_snapshot_in_order() {
        let r = EventRing::new(16);
        for i in 0..10 {
            r.push(ev(EventKind::Put, i));
        }
        let s = r.snapshot();
        assert_eq!(s.len(), 10);
        assert_eq!(
            s.iter().map(|e| e.a).collect::<Vec<_>>(),
            (0..10).collect::<Vec<_>>()
        );
        assert!(s.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn wraparound_keeps_newest_capacity_events() {
        let cap = 8;
        let r = EventRing::new(cap);
        for i in 0..(3 * cap as u64) {
            r.push(ev(EventKind::Get, i));
        }
        assert_eq!(r.pushed(), 3 * cap as u64);
        let s = r.snapshot();
        assert_eq!(s.len(), cap);
        // Oldest surviving event is exactly `pushed - cap`.
        let words: Vec<u64> = s.iter().map(|e| e.a).collect();
        assert_eq!(words, (2 * cap as u64..3 * cap as u64).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_writers_never_corrupt() {
        let r = std::sync::Arc::new(EventRing::new(64));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let r = r.clone();
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        r.push(ev(EventKind::AmHandle, t * 1_000_000 + i));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(r.pushed(), 40_000);
        let s = r.snapshot();
        // Every surviving event is one of the written payloads, intact.
        for e in &s {
            let t = e.a / 1_000_000;
            let i = e.a % 1_000_000;
            assert!(t < 4 && i < 10_000, "corrupt event {e:?}");
            assert_eq!(e.kind, EventKind::AmHandle);
        }
        assert!(s.len() <= 64);
        assert!(r.dropped() < 40_000);
    }

    #[test]
    fn kind_names_and_categories_are_stable() {
        assert_eq!(EventKind::Put.name(), "put");
        assert_eq!(EventKind::Put.category(), "rma");
        assert!(EventKind::Put.is_span() && EventKind::Wait.is_span());
        assert!(!EventKind::AmSend.is_span());
        assert_eq!(EventKind::Advance.category(), "progress");
        assert_eq!(EventKind::Retransmit.name(), "retransmit");
        assert_eq!(EventKind::WireDrop.category(), "fault");
        assert!(!EventKind::AmDup.is_span());
        assert_eq!(EventKind::CacheFill.name(), "cache_fill");
        assert_eq!(EventKind::CacheHit.category(), "cache");
        assert!(!EventKind::CacheFill.is_span() && !EventKind::CacheHit.is_span());
        // The causal subset is what a `RUPCXX_PROF`-only job records.
        assert!(EventKind::AmSend.is_causal() && EventKind::Flush.is_causal());
        assert!(!EventKind::Put.is_causal() && !EventKind::CacheHit.is_causal());
    }
}
