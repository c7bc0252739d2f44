//! Per-endpoint communication counters.
//!
//! Every fabric operation is counted at the initiating endpoint. The
//! reproduction harnesses read these counts to (a) sanity-check benchmark
//! communication volumes and (b) feed the `rupcxx-perfmodel` projections
//! (message counts × modeled per-message cost at paper-scale machines).

use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};

/// One counter of [`CommStats`]; each names the [`CommCounts`] field it
/// feeds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Counter {
    /// Remote puts initiated.
    Puts,
    /// Bytes written by remote puts.
    PutBytes,
    /// Remote gets initiated.
    Gets,
    /// Bytes read by remote gets.
    GetBytes,
    /// Active messages sent.
    AmsSent,
    /// Payload bytes in active messages sent.
    AmBytes,
    /// Active messages executed locally (received + handled).
    AmsHandled,
    /// Operations that resolved to local memory (no communication).
    LocalOps,
    /// Frames retransmitted by the reliable AM layer (initiator side).
    /// Nonzero only under fault injection (`RUPCXX_FAULTS`).
    Retransmits,
    /// Transmission attempts lost on the wire by the fault plan
    /// (initiator side). Every wire drop costs one retransmit, so at
    /// quiescence `retransmits == wire_drops` unless a peer was declared
    /// unreachable.
    WireDrops,
    /// Duplicate frame arrivals discarded by the dedup window (receiver
    /// side).
    DupArrivals,
    /// Frames that arrived ahead of a predecessor and were parked in the
    /// receiver's reorder buffer before in-order release (receiver side).
    Reorders,
    /// Logical fine-grained operations absorbed by the per-destination
    /// aggregation layer (initiator side). Nonzero only when aggregation
    /// is enabled (`RUPCXX_AGG`) *and* the op was remote.
    AggOps,
    /// Wire frames (batches) the aggregation layer actually injected;
    /// each batch is one active message carrying `agg_ops / agg_batches`
    /// logical operations on average (initiator side).
    AggBatches,
    /// Remote gets served from this rank's software read cache without
    /// touching the fabric. Nonzero only with `RUPCXX_CACHE` enabled.
    CacheHits,
    /// Remote gets that missed the read cache and filled a whole line
    /// through one fabric get.
    CacheMisses,
    /// Cached lines dropped by write-through or sync-point invalidation.
    CacheInvalidations,
}

const COUNTERS: usize = Counter::CacheInvalidations as usize + 1;

/// One value per [`Counter`].
type Block = [AtomicU64; COUNTERS];

/// The owner word of a block no thread has claimed: no thread's tag.
const UNCLAIMED: u64 = u64::MAX;

/// Tags handed out by [`CommStats::claim`]; 0 is no thread's.
static NEXT_TAG: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// This thread's tag: 0 until its first claim, then unique in the
    /// process for good.
    static TAG: Cell<u64> = const { Cell::new(0) };
}

/// Live counters for one endpoint, exact under any number of writer
/// threads.
///
/// The thread that [claims](CommStats::claim) the block — a rank's own
/// thread, for the length of the SPMD body — counts into `own`, which no
/// other thread writes, with a plain load and store. Every other thread
/// (a progress worker, a test driving several ranks, a sender bumping the
/// receiver's reliable-stage counters) adds to `shared` atomically. A
/// snapshot sums the two. A block nobody claims, such as that of a fabric
/// driven outside `spmd`, is counted in `shared` alone.
#[derive(Debug)]
#[repr(C)]
pub struct CommStats {
    /// The claiming thread's tag, or [`UNCLAIMED`].
    owner: AtomicU64,
    /// Written by the claiming thread alone.
    own: Block,
    /// Written by every other thread, with `fetch_add`.
    shared: Block,
}

impl Default for CommStats {
    fn default() -> Self {
        CommStats {
            owner: AtomicU64::new(UNCLAIMED),
            own: Default::default(),
            shared: Default::default(),
        }
    }
}

/// The calling thread's hold on a [`CommStats`] block, from
/// [`CommStats::claim`]; dropping it hands the block back. It cannot
/// leave the thread: the owner word names the thread, not the guard.
#[must_use = "the block is released when the claim drops"]
pub struct Claim<'a> {
    stats: &'a CommStats,
    thread_bound: PhantomData<*const ()>,
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        // Release: the next claimer's `Acquire` sees every plain store.
        self.stats.owner.store(UNCLAIMED, Ordering::Release);
    }
}

impl CommStats {
    /// Make the calling thread the block's owner until the returned guard
    /// drops: its [`CommStats::add`]s become plain stores. `None` when
    /// another thread (or this one, further up) holds the block already;
    /// this thread then keeps adding atomically, and the counts stay exact
    /// either way.
    pub fn claim(&self) -> Option<Claim<'_>> {
        let tag = TAG.with(|tag| {
            if tag.get() == 0 {
                tag.set(NEXT_TAG.fetch_add(1, Ordering::Relaxed));
            }
            tag.get()
        });
        self.owner
            .compare_exchange(UNCLAIMED, tag, Ordering::Acquire, Ordering::Relaxed)
            .ok()
            .map(|_| Claim {
                stats: self,
                thread_bound: PhantomData,
            })
    }

    /// Count `n` more of `counter`. A thread that reads its own tag in the
    /// owner word is the one writer of `own` and needs no locked add. The
    /// load may be `Relaxed`: only this thread puts its tag there (`claim`)
    /// and takes it out (the guard's drop), and a thread always reads its
    /// own latest store.
    #[inline]
    pub fn add(&self, counter: Counter, n: u64) {
        let i = counter as usize;
        if self.owner.load(Ordering::Relaxed) == TAG.with(Cell::get) {
            let own = &self.own[i];
            own.store(own.load(Ordering::Relaxed) + n, Ordering::Relaxed);
        } else {
            self.shared[i].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// The current value of one counter.
    #[inline]
    pub(crate) fn count(&self, counter: Counter) -> u64 {
        let i = counter as usize;
        self.own[i].load(Ordering::Relaxed) + self.shared[i].load(Ordering::Relaxed)
    }

    /// Snapshot the counters. A phase is measured as the difference of
    /// two snapshots ([`CommCounts::since`]); the counters only ever grow.
    pub fn snapshot(&self) -> CommCounts {
        use Counter::*;
        CommCounts {
            puts: self.count(Puts),
            put_bytes: self.count(PutBytes),
            gets: self.count(Gets),
            get_bytes: self.count(GetBytes),
            ams_sent: self.count(AmsSent),
            am_bytes: self.count(AmBytes),
            ams_handled: self.count(AmsHandled),
            local_ops: self.count(LocalOps),
            retransmits: self.count(Retransmits),
            wire_drops: self.count(WireDrops),
            dup_arrivals: self.count(DupArrivals),
            reorders: self.count(Reorders),
            agg_ops: self.count(AggOps),
            agg_batches: self.count(AggBatches),
            cache_hits: self.count(CacheHits),
            cache_misses: self.count(CacheMisses),
            cache_invalidations: self.count(CacheInvalidations),
        }
    }

    /// `(offset, size)` of the owner word and of the two blocks, for the
    /// endpoint layout test.
    #[cfg(test)]
    pub(crate) fn parts() -> [(usize, usize); 3] {
        use std::mem::{offset_of, size_of};
        [
            (offset_of!(CommStats, owner), size_of::<AtomicU64>()),
            (offset_of!(CommStats, own), size_of::<Block>()),
            (offset_of!(CommStats, shared), size_of::<Block>()),
        ]
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
        use Counter::*;
        let s = CommStats::default();
        assert_eq!(s.snapshot(), CommCounts::default());
        for (counter, n) in [
            (Puts, 3),
            (PutBytes, 24),
            (Retransmits, 5),
            (WireDrops, 5),
            (DupArrivals, 2),
            (Reorders, 1),
            (AggOps, 128),
            (AggBatches, 2),
            (CacheHits, 90),
            (CacheMisses, 10),
            (CacheInvalidations, 4),
        ] {
            s.add(counter, n);
        }
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
        // A phase is the difference of two snapshots, whichever thread
        // counted: the claimed block and the shared one sum.
        let claim = s.claim().expect("an unclaimed block");
        s.add(WireDrops, 2);
        s.add(AggOps, 64);
        drop(claim);
        s.add(CacheHits, 10);
        let phase = CommCounts {
            wire_drops: 2,
            agg_ops: 64,
            cache_hits: 10,
            ..Default::default()
        };
        assert_eq!(s.snapshot().since(&base), phase);
    }

    #[test]
    fn one_thread_at_a_time_claims_a_block() {
        let s = CommStats::default();
        let claim = s.claim().expect("an unclaimed block");
        assert!(s.claim().is_none(), "this thread holds it already");
        std::thread::scope(|scope| {
            scope.spawn(|| assert!(s.claim().is_none(), "another thread holds it"));
        });
        drop(claim);
        std::thread::scope(|scope| {
            scope.spawn(|| assert!(s.claim().is_some(), "handed back"));
        });
    }

    #[test]
    fn counts_stay_exact_with_concurrent_writers() {
        // One thread claims the block and counts with plain stores; three
        // others add to the same counters at the same time. A thread
        // taking the plain store without owning the block loses updates.
        const N: u64 = 1 << 20;
        let s = CommStats::default();
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for claims in [true, false, false, false] {
                let (s, start) = (&s, &start);
                scope.spawn(move || {
                    let claim = claims.then(|| s.claim().expect("an unclaimed block"));
                    start.wait();
                    for _ in 0..N {
                        s.add(Counter::Puts, 1);
                        s.add(Counter::PutBytes, 8);
                    }
                    drop(claim);
                });
            }
        });
        let c = s.snapshot();
        assert_eq!((c.puts, c.put_bytes), (4 * N, 4 * N * 8));
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
