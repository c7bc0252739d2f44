//! Per-endpoint communication counters.
//!
//! Every fabric operation is counted at the initiating endpoint. The
//! reproduction harnesses read these counts to (a) sanity-check benchmark
//! communication volumes and (b) feed the `rupcxx-perfmodel` projections
//! (message counts × modeled per-message cost at paper-scale machines).

use std::sync::atomic::{AtomicU64, Ordering};

/// Live, thread-safe counters for one endpoint.
#[derive(Debug, Default)]
pub struct CommStats {
    /// Remote puts initiated.
    pub puts: AtomicU64,
    /// Bytes written by remote puts.
    pub put_bytes: AtomicU64,
    /// Remote gets initiated.
    pub gets: AtomicU64,
    /// Bytes read by remote gets.
    pub get_bytes: AtomicU64,
    /// Active messages sent.
    pub ams_sent: AtomicU64,
    /// Payload bytes in active messages sent.
    pub am_bytes: AtomicU64,
    /// Active messages executed locally (received + handled).
    pub ams_handled: AtomicU64,
    /// Operations that resolved to local memory (no communication).
    pub local_ops: AtomicU64,
    /// Frames retransmitted by the reliable AM layer (initiator side).
    /// Nonzero only under fault injection (`RUPCXX_FAULTS`).
    pub retransmits: AtomicU64,
    /// Transmission attempts lost on the wire by the fault plan
    /// (initiator side). Every wire drop costs one retransmit, so at
    /// quiescence `retransmits == wire_drops` unless a peer was declared
    /// unreachable.
    pub wire_drops: AtomicU64,
    /// Duplicate frame arrivals discarded by the dedup window (receiver
    /// side).
    pub dup_arrivals: AtomicU64,
    /// Frames that arrived ahead of a predecessor and were parked in the
    /// receiver's reorder buffer before in-order release (receiver side).
    pub reorders: AtomicU64,
    /// Logical fine-grained operations absorbed by the per-destination
    /// aggregation layer (initiator side). Nonzero only when aggregation
    /// is enabled (`RUPCXX_AGG`) *and* the op was remote.
    pub agg_ops: AtomicU64,
    /// Wire frames (batches) the aggregation layer actually injected;
    /// each batch is one active message carrying `agg_ops / agg_batches`
    /// logical operations on average (initiator side).
    pub agg_batches: AtomicU64,
    /// Remote gets served from this rank's software read cache without
    /// touching the fabric. Nonzero only with `RUPCXX_CACHE` enabled.
    pub cache_hits: AtomicU64,
    /// Remote gets that missed the read cache and filled a whole line
    /// through one fabric get.
    pub cache_misses: AtomicU64,
    /// Cached lines dropped by write-through or sync-point invalidation.
    pub cache_invalidations: AtomicU64,
}

impl CommStats {
    /// Snapshot the counters. A phase is measured as the difference of
    /// two snapshots ([`CommCounts::since`]); the counters only ever grow.
    pub fn snapshot(&self) -> CommCounts {
        CommCounts {
            puts: self.puts.load(Ordering::Relaxed),
            put_bytes: self.put_bytes.load(Ordering::Relaxed),
            gets: self.gets.load(Ordering::Relaxed),
            get_bytes: self.get_bytes.load(Ordering::Relaxed),
            ams_sent: self.ams_sent.load(Ordering::Relaxed),
            am_bytes: self.am_bytes.load(Ordering::Relaxed),
            ams_handled: self.ams_handled.load(Ordering::Relaxed),
            local_ops: self.local_ops.load(Ordering::Relaxed),
            retransmits: self.retransmits.load(Ordering::Relaxed),
            wire_drops: self.wire_drops.load(Ordering::Relaxed),
            dup_arrivals: self.dup_arrivals.load(Ordering::Relaxed),
            reorders: self.reorders.load(Ordering::Relaxed),
            agg_ops: self.agg_ops.load(Ordering::Relaxed),
            agg_batches: self.agg_batches.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            cache_invalidations: self.cache_invalidations.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of [`CommStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CommCounts {
    /// Remote puts initiated.
    pub puts: u64,
    /// Bytes written by remote puts.
    pub put_bytes: u64,
    /// Remote gets initiated.
    pub gets: u64,
    /// Bytes read by remote gets.
    pub get_bytes: u64,
    /// Active messages sent.
    pub ams_sent: u64,
    /// Payload bytes in active messages sent.
    pub am_bytes: u64,
    /// Active messages executed locally.
    pub ams_handled: u64,
    /// Operations resolved locally.
    pub local_ops: u64,
    /// Frames retransmitted by the reliable AM layer.
    pub retransmits: u64,
    /// Transmission attempts lost on the wire by the fault plan.
    pub wire_drops: u64,
    /// Duplicate arrivals discarded by the dedup window.
    pub dup_arrivals: u64,
    /// Out-of-order arrivals parked before in-order release.
    pub reorders: u64,
    /// Logical fine-grained operations absorbed by the aggregation layer.
    pub agg_ops: u64,
    /// Wire frames (batches) the aggregation layer injected for them.
    pub agg_batches: u64,
    /// Remote gets served from the software read cache.
    pub cache_hits: u64,
    /// Remote gets that missed the read cache and filled a line.
    pub cache_misses: u64,
    /// Cached lines dropped by write-through or sync-point invalidation.
    pub cache_invalidations: u64,
}

impl CommCounts {
    /// Total remote operations initiated (puts + gets + AMs).
    pub fn remote_ops(&self) -> u64 {
        self.puts + self.gets + self.ams_sent
    }

    /// Total bytes moved by this endpoint's initiated operations.
    pub fn total_bytes(&self) -> u64 {
        self.put_bytes + self.get_bytes + self.am_bytes
    }

    /// Element-wise difference (`self - earlier`), for measuring a phase:
    /// `earlier` is a snapshot of the same endpoint(s) taken before.
    pub fn since(&self, earlier: &CommCounts) -> CommCounts {
        CommCounts {
            puts: self.puts - earlier.puts,
            put_bytes: self.put_bytes - earlier.put_bytes,
            gets: self.gets - earlier.gets,
            get_bytes: self.get_bytes - earlier.get_bytes,
            ams_sent: self.ams_sent - earlier.ams_sent,
            am_bytes: self.am_bytes - earlier.am_bytes,
            ams_handled: self.ams_handled - earlier.ams_handled,
            local_ops: self.local_ops - earlier.local_ops,
            retransmits: self.retransmits - earlier.retransmits,
            wire_drops: self.wire_drops - earlier.wire_drops,
            dup_arrivals: self.dup_arrivals - earlier.dup_arrivals,
            reorders: self.reorders - earlier.reorders,
            agg_ops: self.agg_ops - earlier.agg_ops,
            agg_batches: self.agg_batches - earlier.agg_batches,
            cache_hits: self.cache_hits - earlier.cache_hits,
            cache_misses: self.cache_misses - earlier.cache_misses,
            cache_invalidations: self.cache_invalidations - earlier.cache_invalidations,
        }
    }

    /// Element-wise sum, for aggregating over ranks.
    pub fn merged(&self, other: &CommCounts) -> CommCounts {
        CommCounts {
            puts: self.puts + other.puts,
            put_bytes: self.put_bytes + other.put_bytes,
            gets: self.gets + other.gets,
            get_bytes: self.get_bytes + other.get_bytes,
            ams_sent: self.ams_sent + other.ams_sent,
            am_bytes: self.am_bytes + other.am_bytes,
            ams_handled: self.ams_handled + other.ams_handled,
            local_ops: self.local_ops + other.local_ops,
            retransmits: self.retransmits + other.retransmits,
            wire_drops: self.wire_drops + other.wire_drops,
            dup_arrivals: self.dup_arrivals + other.dup_arrivals,
            reorders: self.reorders + other.reorders,
            agg_ops: self.agg_ops + other.agg_ops,
            agg_batches: self.agg_batches + other.agg_batches,
            cache_hits: self.cache_hits + other.cache_hits,
            cache_misses: self.cache_misses + other.cache_misses,
            cache_invalidations: self.cache_invalidations + other.cache_invalidations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_copies_every_counter() {
        let s = CommStats::default();
        assert_eq!(s.snapshot(), CommCounts::default());
        s.puts.fetch_add(3, Ordering::Relaxed);
        s.put_bytes.fetch_add(24, Ordering::Relaxed);
        s.retransmits.fetch_add(5, Ordering::Relaxed);
        s.wire_drops.fetch_add(5, Ordering::Relaxed);
        s.dup_arrivals.fetch_add(2, Ordering::Relaxed);
        s.reorders.fetch_add(1, Ordering::Relaxed);
        s.agg_ops.fetch_add(128, Ordering::Relaxed);
        s.agg_batches.fetch_add(2, Ordering::Relaxed);
        s.cache_hits.fetch_add(90, Ordering::Relaxed);
        s.cache_misses.fetch_add(10, Ordering::Relaxed);
        s.cache_invalidations.fetch_add(4, Ordering::Relaxed);
        let want = CommCounts {
            puts: 3,
            put_bytes: 24,
            retransmits: 5,
            wire_drops: 5,
            dup_arrivals: 2,
            reorders: 1,
            agg_ops: 128,
            agg_batches: 2,
            cache_hits: 90,
            cache_misses: 10,
            cache_invalidations: 4,
            ..Default::default()
        };
        let base = s.snapshot();
        assert_eq!(base, want);
        // A phase is the difference of two snapshots.
        s.wire_drops.fetch_add(2, Ordering::Relaxed);
        s.agg_ops.fetch_add(64, Ordering::Relaxed);
        s.cache_hits.fetch_add(10, Ordering::Relaxed);
        let phase = CommCounts {
            wire_drops: 2,
            agg_ops: 64,
            cache_hits: 10,
            ..Default::default()
        };
        assert_eq!(s.snapshot().since(&base), phase);
    }

    #[test]
    fn every_counter_takes_part_in_equality() {
        // Same traffic with a different drop count, a different number of
        // wire frames or a different hit pattern must not compare equal.
        for one in [
            CommCounts {
                wire_drops: 1,
                ..Default::default()
            },
            CommCounts {
                agg_batches: 1,
                ..Default::default()
            },
            CommCounts {
                cache_hits: 1,
                ..Default::default()
            },
        ] {
            assert_ne!(one, CommCounts::default());
        }
    }

    #[test]
    fn fault_counters_in_since_and_merged() {
        let a = CommCounts {
            retransmits: 7,
            wire_drops: 7,
            dup_arrivals: 3,
            reorders: 2,
            ..Default::default()
        };
        let b = CommCounts {
            retransmits: 2,
            wire_drops: 2,
            dup_arrivals: 1,
            reorders: 2,
            ..Default::default()
        };
        let d = a.since(&b);
        assert_eq!(d.retransmits, 5);
        assert_eq!(d.wire_drops, 5);
        assert_eq!(d.dup_arrivals, 2);
        assert_eq!(d.reorders, 0);
        let m = a.merged(&b);
        assert_eq!(m.retransmits, 9);
        assert_eq!(m.wire_drops, 9);
        assert_eq!(m.dup_arrivals, 4);
        assert_eq!(m.reorders, 4);
    }

    #[test]
    fn since_and_merged() {
        let a = CommCounts {
            puts: 5,
            put_bytes: 40,
            agg_ops: 192,
            cache_misses: 10,
            ..Default::default()
        };
        let b = CommCounts {
            puts: 2,
            put_bytes: 16,
            agg_ops: 128,
            cache_misses: 10,
            ..Default::default()
        };
        let d = a.since(&b);
        assert_eq!(d.puts, 3);
        assert_eq!(d.put_bytes, 24);
        assert_eq!((d.agg_ops, d.cache_misses), (64, 0));
        let m = a.merged(&b);
        assert_eq!(m.puts, 7);
        assert_eq!((m.agg_ops, m.cache_misses), (320, 20));
        assert_eq!(m.total_bytes(), 56);
        assert_eq!(m.remote_ops(), 7);
    }
}
