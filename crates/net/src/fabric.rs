//! The fabric: N endpoints with one-sided RMA and active messages.
//!
//! A [`Fabric`] is shared (via `Arc`) by all rank threads. Operations name
//! the *initiating* rank explicitly so the fabric can attribute traffic to
//! the right endpoint's counters and distinguish local from remote accesses.
//!
//! One-sided RMA (`put*`/`get*`) writes directly into the target segment —
//! the target CPU is never involved, mirroring RDMA hardware. Active
//! messages are enqueued on the destination endpoint's inbox and executed by
//! the destination's progress engine (`rupcxx-runtime`'s `advance()`), which
//! mirrors GASNet's AM + polling model.

use crate::aggregate::{AggConfig, AggState};
use crate::cache::{CacheConfig, CacheState};
use crate::conduit::RemoteConfig;
use crate::faults::FaultPlan;
use crate::inbox::Inbox;
use crate::reliable::{AmChannel, PeerUnreachable};
use crate::remote::RemoteFabric;
use crate::rma::{Access, RmaOp, RmwOp};
use crate::schedule::{SchedState, ScheduleConfig};
use crate::segment::Segment;
use crate::stats::{CommCounts, CommStats};
use crate::Rank;
use rupcxx_check::{AccessKind, CheckConfig, Checker, Stamp};
use rupcxx_trace::{EventKind, ProfConfig, ProfSpan, RankTrace, TraceConfig};
use rupcxx_util::sync::{CachePadded, Mutex};
use rupcxx_util::Bytes;
use std::any::Any;
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

thread_local! {
    /// Where a read-cache miss fetches its line (or run of lines) before
    /// installing it, kept by the thread from miss to miss. Taken out
    /// while in use: a miss nested inside the fetch (a handler run while
    /// waiting for the reply) gets its own.
    static LINE: Cell<Vec<u8>> = const { Cell::new(Vec::new()) };
    /// Where a [`Fabric::copy`] that cannot go segment to segment holds
    /// its bytes between the get and the put. Taken out while in use,
    /// like `LINE` — which that get may need, hence a buffer of its own.
    static STAGE: Cell<Vec<u8>> = const { Cell::new(Vec::new()) };
}

/// An address in the global address space: a rank plus a byte offset into
/// that rank's segment, packed into one 64-bit word — rank in the high
/// [`GlobalAddr::RANK_BITS`], offset in the low [`GlobalAddr::OFFSET_BITS`]
/// (the hardware-address-mapping layout: owner extraction is one shift,
/// offset extraction one mask, no branches). `rupcxx::GlobalPtr<T>` wraps
/// this with a type.
///
/// Capacity limits of the packing: at most [`GlobalAddr::MAX_RANKS`] ranks
/// (65 536) and segments up to [`GlobalAddr::MAX_OFFSET`] bytes
/// (256 TiB − 1), both debug-checked at construction. The derived `Ord` on
/// the packed word is identical to the old two-field struct's
/// rank-then-offset lexicographic order because rank occupies the high
/// bits.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GlobalAddr(u64);

impl GlobalAddr {
    /// Bits reserved for the owning rank (high bits of the word).
    pub const RANK_BITS: u32 = 16;
    /// Bits reserved for the byte offset (low bits of the word).
    pub const OFFSET_BITS: u32 = 64 - Self::RANK_BITS;
    /// Exclusive upper bound on rank ids representable in the packing.
    pub const MAX_RANKS: usize = 1 << Self::RANK_BITS;
    /// Inclusive upper bound on byte offsets (256 TiB − 1).
    pub const MAX_OFFSET: usize = (1 << Self::OFFSET_BITS) - 1;

    /// Construct an address. Debug-asserts that `rank` and `offset` fit
    /// the bitfield; release builds truncate neither (the packing is a
    /// plain shift-or, so out-of-range inputs would corrupt the word —
    /// keep ranks under [`Self::MAX_RANKS`] and segments under
    /// [`Self::MAX_OFFSET`]).
    #[inline]
    #[must_use]
    pub fn new(rank: Rank, offset: usize) -> Self {
        debug_assert!(
            rank < Self::MAX_RANKS,
            "rank {rank} exceeds the {}-bit rank field",
            Self::RANK_BITS
        );
        debug_assert!(
            offset <= Self::MAX_OFFSET,
            "offset {offset} exceeds the {}-bit offset field",
            Self::OFFSET_BITS
        );
        GlobalAddr(((rank as u64) << Self::OFFSET_BITS) | offset as u64)
    }

    /// The owning rank (branch-free: one shift).
    #[inline]
    #[must_use]
    pub fn rank(self) -> Rank {
        (self.0 >> Self::OFFSET_BITS) as Rank
    }

    /// Byte offset into the owning rank's segment (branch-free: one mask).
    #[inline]
    #[must_use]
    pub fn offset(self) -> usize {
        (self.0 & Self::MAX_OFFSET as u64) as usize
    }

    /// The raw packed word (for wire frames and hash keys).
    #[inline]
    #[must_use]
    pub fn packed(self) -> u64 {
        self.0
    }

    /// Reconstruct from a packed word produced by [`Self::packed`].
    #[inline]
    #[must_use]
    pub fn from_packed(word: u64) -> Self {
        GlobalAddr(word)
    }

    /// Address advanced by `bytes`. Debug-asserts the result stays inside
    /// the offset field instead of silently wrapping into the rank bits.
    // Deliberately named like pointer arithmetic; not an `Add` impl
    // because the operand is a byte count, not another address.
    #[allow(clippy::should_implement_trait)]
    #[inline]
    #[must_use]
    pub fn add(self, bytes: usize) -> Self {
        debug_assert!(
            self.offset() + bytes <= Self::MAX_OFFSET,
            "offset {} + {bytes} overflows the {}-bit offset field",
            self.offset(),
            Self::OFFSET_BITS
        );
        GlobalAddr(self.0 + bytes as u64)
    }
}

impl std::fmt::Debug for GlobalAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GlobalAddr")
            .field("rank", &self.rank())
            .field("offset", &self.offset())
            .finish()
    }
}

/// A boxed closure task. Whoever executes it passes its own execution
/// context (the runtime's per-rank `Ctx`, which this crate cannot name), so
/// a task that needs the target rank's context borrows it for the call
/// instead of carrying — and reference-counting — shared state of its own.
pub type TaskFn = Box<dyn FnOnce(&dyn Any) + Send + 'static>;

/// Payload of an active message.
pub enum AmPayload {
    /// A registered-handler invocation: handler id + packed argument bytes.
    /// This is the paper's "pack the task function pointer and its arguments
    /// into a contiguous buffer" path (§IV).
    Handler {
        /// Registered handler id (identical on all ranks).
        id: u16,
        /// Packed arguments.
        args: Bytes,
    },
    /// An opaque boxed task — the in-process shortcut for closure `async`s.
    Task(TaskFn),
    /// A coalesced batch of fine-grained operations from the
    /// per-destination aggregation layer (see [`crate::aggregate`]): one
    /// wire message carrying `count` packed frames, unpacked in order by
    /// the destination in a single inbox pop. The reliable layer treats
    /// it as one sequenced frame, so a retransmit redelivers the whole
    /// batch exactly once.
    Batch {
        /// Packed frames (decode with [`crate::aggregate::BatchReader`]).
        frames: Bytes,
        /// Number of frames packed into `frames`.
        count: u32,
    },
}

impl std::fmt::Debug for AmPayload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AmPayload::Handler { id, args } => f
                .debug_struct("Handler")
                .field("id", id)
                .field("args_len", &args.len())
                .finish(),
            AmPayload::Task(_) => f.write_str("Task(..)"),
            AmPayload::Batch { frames, count } => f
                .debug_struct("Batch")
                .field("count", count)
                .field("bytes", &frames.len())
                .finish(),
        }
    }
}

/// An active message as delivered to the destination.
#[derive(Debug)]
pub struct AmMessage {
    /// Sending rank.
    pub src: Rank,
    /// Payload.
    pub payload: AmPayload,
    /// Sender's vector-clock snapshot at send time, present only when the
    /// happens-before checker is installed. The receiver's progress engine
    /// joins it before running the payload — AM delivery is the
    /// synchronization edge every collective and completion reply is built
    /// on, so this one field gives the checker the whole HB relation.
    pub clock: Option<Stamp>,
    /// Causal span id, present only with `RUPCXX_PROF` on. It rides the
    /// message the same way `clock` does — surviving retransmits and
    /// aggregation — so the receiver can join the delivery to the
    /// injecting operation on the sending rank.
    pub prof: Option<ProfSpan>,
}

/// One per-rank endpoint: segment + AM inbox + counters.
///
/// The endpoints of a fabric sit in one array and every rank's thread
/// reaches into every element, so the fields are laid out by **who
/// writes them** (`repr(C)` keeps the order; a [`CachePadded`] field
/// starts a 128-byte block, occupies whole blocks, and so starts the
/// fields behind it on a fresh block too):
///
/// 1. read by every rank, written by none once built;
/// 2. written by this rank's own threads on every operation;
/// 3. written by peers when they send to this rank.
///
/// A peer resolving an address in `segment` therefore never waits for a
/// line this rank's counters keep dirtying, and neither of them for the
/// inbox. `endpoint_groups_share_no_block` holds the layout to that.
#[repr(C)]
pub struct Endpoint {
    // -- 1. immutable after construction, read by everybody --
    /// This rank's globally addressable memory.
    pub segment: Segment,
    /// Precomputed at construction: every feature that could touch a
    /// word-RMA issued by this rank (simnet, faults, checker, conduit,
    /// trace, read cache) is off, so `put_u64`/`get_u64`/atomics take the
    /// branch-collapsed fast path — one flag load instead of six
    /// scattered `Option` probes.
    pub(crate) rma_fast: bool,
    // -- 2. written by the owning rank --
    /// Traffic counters for operations initiated by this rank.
    pub stats: CachePadded<CommStats>,
    /// This rank's recorder: the one event stream every instrumented
    /// site reports to (off by default).
    pub trace: RankTrace,
    /// Per-destination aggregation buffers for operations *initiated* by
    /// this rank; allocated only when the fabric has an [`AggConfig`].
    pub(crate) agg: Option<AggState>,
    /// Software read cache for *remote* gets initiated by this rank;
    /// allocated only when the fabric has a [`CacheConfig`].
    pub(crate) cache: Option<CacheState>,
    // -- 3. written by peers -- (the inbox is `CachePadded` inside)
    pub(crate) inbox: Inbox<AmMessage>,
    /// Reliable-delivery state for this rank's incoming links; allocated
    /// only when the fabric has a fault plan.
    pub(crate) reliable: Option<AmChannel>,
}

impl Endpoint {
    fn new(
        ranks: usize,
        segment_bytes: usize,
        trace: RankTrace,
        faulty: bool,
        agg: bool,
        cache: Option<CacheState>,
        rma_fast: bool,
    ) -> Self {
        Endpoint {
            segment: Segment::new(segment_bytes),
            rma_fast,
            stats: CachePadded(CommStats::default()),
            trace,
            agg: agg.then(|| AggState::new(ranks)),
            cache,
            inbox: Inbox::new(),
            reliable: faulty.then(|| AmChannel::new(ranks)),
        }
    }

    /// This rank's software read cache, if one is installed (tests use it
    /// to reach the bypass knob; apps never need it).
    pub fn cache(&self) -> Option<&CacheState> {
        self.cache.as_ref()
    }

    /// Dequeue the next pending active message, if any. Called by the
    /// owner rank's progress engine.
    pub fn try_recv(&self) -> Option<AmMessage> {
        let msg = self.inbox.pop();
        if msg.is_some() {
            self.stats.ams_handled.fetch_add(1, Ordering::Relaxed);
        }
        msg
    }

    /// Number of active messages delivered here and not yet taken by
    /// [`Endpoint::try_recv`]/[`Endpoint::drain`].
    ///
    /// This is a racy sample: a concurrent sender or the progress engine
    /// can change the queue between this call and the next. Its error is
    /// one-sided, though ([`Inbox::len`]): while the progress
    /// engine moves a batch from the arrivals to its run queue a
    /// message may be counted twice, never zero times — `pending() == 0`
    /// is what `agg_fence`, the teardown drain and the deadlock checker's
    /// `quiet` take as "nothing is waiting here". Tests that need a
    /// consistent observation should use [`Endpoint::drain`].
    pub fn pending(&self) -> usize {
        self.inbox.len()
    }

    /// [`Endpoint::pending`] by queue, `(arrivals, run queue)`: still
    /// where senders pushed them, and taken over by the progress engine
    /// but not yet run. For a test's failure message.
    pub fn pending_lanes(&self) -> (usize, usize) {
        self.inbox.lane_lens()
    }

    /// Dequeue *every* pending active message in one consistent snapshot
    /// (single critical section), counting them as handled.
    ///
    /// Unlike a `try_recv`/`pending` loop — which samples the queue
    /// length without a snapshot and can interleave with concurrent
    /// pushes — the returned batch is exactly the queue contents at one
    /// instant, in FIFO order. Intended for tests asserting on delivery
    /// order/content under reordering; the runtime's progress engine
    /// keeps using `try_recv` one message at a time.
    pub fn drain(&self) -> Vec<AmMessage> {
        let msgs = self.inbox.drain();
        if !msgs.is_empty() {
            self.stats
                .ams_handled
                .fetch_add(msgs.len() as u64, Ordering::Relaxed);
        }
        msgs
    }
}

impl std::fmt::Debug for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Endpoint")
            .field("segment", &self.segment)
            .field("pending", &self.inbox.len())
            .finish()
    }
}

/// Synthetic network timing injected into remote operations — turns the
/// host's instantaneous shared memory into a latency/bandwidth-limited
/// "wire", so *measured* runs exhibit the latency-bound behaviour of a
/// real interconnect (complementing the analytic projections of
/// `rupcxx-perfmodel`). The initiating thread busy-waits for the modeled
/// duration, exactly like a blocking RDMA verb.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SimNet {
    /// One-way latency charged to every remote operation, in nanoseconds.
    pub latency_ns: u64,
    /// Wire bandwidth in bytes/µs (0 = infinite). 8000 = 8 GB/s.
    pub bytes_per_us: u64,
}

impl SimNet {
    /// A profile resembling a modern HPC NIC (1.3 µs, 8 GB/s).
    pub fn hpc_nic() -> Self {
        SimNet {
            latency_ns: 1300,
            bytes_per_us: 8000,
        }
    }

    #[inline]
    fn charge(&self, bytes: usize) {
        let mut ns = self.latency_ns;
        ns += (bytes as u64 * 1000)
            .checked_div(self.bytes_per_us)
            .unwrap_or(0);
        if ns == 0 {
            return;
        }
        let start = std::time::Instant::now();
        let dur = std::time::Duration::from_nanos(ns);
        while start.elapsed() < dur {
            std::hint::spin_loop();
        }
    }
}

/// Fabric construction parameters.
#[derive(Clone, Debug)]
pub struct FabricConfig {
    /// Number of ranks (endpoints).
    pub ranks: usize,
    /// Segment size per rank, in bytes.
    pub segment_bytes: usize,
    /// Optional synthetic wire timing for remote operations.
    pub simnet: Option<SimNet>,
    /// Tracing/metrics configuration applied to every endpoint.
    pub trace: TraceConfig,
    /// Optional deterministic fault-injection plan (`RUPCXX_FAULTS`).
    /// None (the default) keeps the exact fault-free fast path: AMs go
    /// straight to the destination inbox, RMA never draws a fate.
    pub faults: Option<FaultPlan>,
    /// Optional per-destination aggregation thresholds (`RUPCXX_AGG`).
    /// None (the default) keeps every buffered entry point on the direct
    /// path after one untaken branch, with no buffers allocated.
    pub agg: Option<AggConfig>,
    /// Optional online race/deadlock checker (`RUPCXX_CHECK`). None (the
    /// default) keeps every hook at one untaken branch; with a config the
    /// fabric owns the job's shared [`Checker`] instance.
    pub check: Option<CheckConfig>,
    /// Optional software read cache for remote gets (`RUPCXX_CACHE`).
    /// None (the default) keeps every get on the direct path after one
    /// untaken branch, with no cache allocated.
    pub cache: Option<CacheConfig>,
    /// Optional profile view (`RUPCXX_PROF`): causal spans ride every
    /// AM and the critical-path report is written at teardown. None (the
    /// default) puts no spans on the wire.
    pub prof: Option<ProfConfig>,
    /// Optional controlled delivery schedule (`RUPCXX_SCHEDULE`, see
    /// [`crate::schedule`]). None (the default) keeps the AM delivery
    /// path at one untaken branch with wire traffic bit-for-bit
    /// unchanged. Mutually exclusive with `faults`: the schedule replaces
    /// the fate hash as the source of delivery-order nondeterminism.
    pub schedule: Option<ScheduleConfig>,
    /// Multi-process mode (`RUPCXX_CONDUIT`): this OS process hosts one
    /// rank and reaches the others through a conduit. None (the default)
    /// keeps the in-process fabric — all ranks in one address space, AMs
    /// delivered by direct inbox push (the "loopback conduit").
    pub remote: Option<RemoteConfig>,
}

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig {
            ranks: 4,
            segment_bytes: 16 << 20,
            simnet: None,
            trace: TraceConfig::off(),
            faults: None,
            agg: None,
            check: None,
            cache: None,
            prof: None,
            schedule: None,
            remote: None,
        }
    }
}

/// The communication fabric: all endpoints of an SPMD job.
pub struct Fabric {
    pub(crate) endpoints: Box<[Endpoint]>,
    simnet: Option<SimNet>,
    /// Fault-injection plan; None disables the reliable layer entirely.
    pub(crate) faults: Option<FaultPlan>,
    /// Set once a peer is declared unreachable (checked by blocking
    /// waits via [`Fabric::has_failed`]).
    pub(crate) failed: AtomicBool,
    /// Set once the flight recorder has dumped (one postmortem per job).
    pub(crate) flight_dumped: AtomicBool,
    /// First failure's detail, for [`Fabric::failure`].
    pub(crate) failure_detail: Mutex<Option<PeerUnreachable>>,
    /// The job's shared race/deadlock checker; None disables every hook.
    pub(crate) check: Option<Arc<Checker>>,
    /// Controlled delivery scheduler; None keeps the direct AM path.
    pub(crate) sched: Option<SchedState>,
    /// Conduit transport to out-of-process peers; None = in-process.
    pub(crate) remote: Option<RemoteFabric>,
    /// Segment size every rank was configured with. Equal to
    /// `endpoints[r].segment.len()` in-process; in remote mode the stub
    /// endpoints have zero-sized segments, so remote bounds checks (and
    /// the read cache's line clamping) use this instead.
    pub(crate) seg_bytes: usize,
}

impl Fabric {
    /// Build a fabric per `config`.
    pub fn new(config: FabricConfig) -> Arc<Self> {
        assert!(config.ranks > 0, "fabric needs at least one rank");
        let faults = config.faults.filter(|p| !p.is_noop());
        assert!(
            faults.is_none() || config.schedule.is_none(),
            "fault injection and controlled scheduling are mutually exclusive: \
             both decide AM delivery order"
        );
        assert!(
            config.remote.is_none() || config.schedule.is_none(),
            "the controlled schedule needs every rank's pending queues in one \
             address space: run RUPCXX_SCHEDULE jobs on the loopback conduit"
        );
        let sched = config
            .schedule
            .as_ref()
            .map(|cfg| SchedState::new(config.ranks, cfg));
        // Building the conduit blocks until the whole mesh is up, so by
        // the time any rank's fabric exists its peers are reachable.
        let remote = config
            .remote
            .as_ref()
            .map(|rc| RemoteFabric::new(rc, config.ranks));
        let endpoints = (0..config.ranks)
            .map(|rank| {
                // In remote mode only the hosted rank gets real memory;
                // peers are zero-sized stubs, so any accidental direct
                // access to "their" segment panics out-of-bounds — a
                // built-in detector for layers bypassing the conduit.
                let seg = match &config.remote {
                    Some(rc) if rank != rc.my_rank => 0,
                    _ => config.segment_bytes,
                };
                // Word-RMA fast path: legal only when nothing can observe
                // or reroute the access (see `Endpoint::rma_fast`).
                let rma_fast = config.simnet.is_none()
                    && faults.is_none()
                    && config.check.is_none()
                    && config.remote.is_none()
                    && !config.trace.is_enabled()
                    && config.cache.is_none();
                // Only a rank this process hosts records anything: a
                // stub's stream would never be exported.
                let causal = config.prof.is_some();
                let trace = match &config.remote {
                    Some(rc) if rank != rc.my_rank => RankTrace::disabled(),
                    _ => RankTrace::new(rank, &config.trace, causal),
                };
                Endpoint::new(
                    config.ranks,
                    seg,
                    trace,
                    faults.is_some(),
                    config.agg.is_some(),
                    // Bounded by the configured size: the segments it
                    // caches are the peers', in remote mode not `seg`.
                    config
                        .cache
                        .as_ref()
                        .map(|cfg| CacheState::new(cfg.clone(), config.segment_bytes)),
                    rma_fast,
                )
            })
            .collect();
        let check = config
            .check
            .as_ref()
            .map(|cfg| rupcxx_check::build(config.ranks, cfg));
        Arc::new(Fabric {
            endpoints,
            simnet: config.simnet,
            faults,
            failed: AtomicBool::new(false),
            flight_dumped: AtomicBool::new(false),
            failure_detail: Mutex::new(None),
            check,
            sched,
            remote,
            seg_bytes: config.segment_bytes,
        })
    }

    /// The installed checker, if any (the runtime joins message clocks,
    /// registers waits and exports findings through this).
    #[inline]
    pub fn checker(&self) -> Option<&Arc<Checker>> {
        self.check.as_ref()
    }

    /// True when a fault plan is installed (the reliable layer is live).
    pub fn has_faults(&self) -> bool {
        self.faults.is_some()
    }

    /// Number of ranks.
    pub fn ranks(&self) -> usize {
        self.endpoints.len()
    }

    /// Access an endpoint (its segment, inbox, counters).
    pub fn endpoint(&self, rank: Rank) -> &Endpoint {
        &self.endpoints[rank]
    }

    /// Charge the synthetic wire for a remote transfer (no-op without a
    /// [`SimNet`] or for rank-local operations).
    #[inline]
    pub(crate) fn wire(&self, initiator: Rank, target: Rank, bytes: usize) {
        if initiator != target {
            if let Some(sim) = &self.simnet {
                sim.charge(bytes);
            }
        }
    }

    /// Count one RMA op of `bytes` against the initiator: a local op, or
    /// a remote get / put (atomics count as puts).
    #[inline]
    fn tally(&self, initiator: Rank, target: Rank, bytes: usize, get: bool) {
        let stats = &self.endpoints[initiator].stats;
        if initiator == target {
            stats.local_ops.fetch_add(1, Ordering::Relaxed);
        } else {
            let (ops, total) = if get {
                (&stats.gets, &stats.get_bytes)
            } else {
                (&stats.puts, &stats.put_bytes)
            };
            ops.fetch_add(1, Ordering::Relaxed);
            total.fetch_add(bytes as u64, Ordering::Relaxed);
        }
    }

    /// Write-through invalidation: drop the initiator's own cached lines
    /// covering a span it is about to overwrite, so a rank always reads
    /// its own writes. One untaken branch when the cache is off; local
    /// writes skip it too (local lines are never cached).
    #[inline]
    pub(crate) fn invalidate_own(&self, initiator: Rank, dst: GlobalAddr, len: usize) {
        if let Some(cache) = &self.endpoints[initiator].cache {
            if dst.rank() != initiator {
                self.count_invalidations(initiator, cache.invalidate_span(dst, len));
            }
        }
    }

    /// Drop every line of `rank`'s read cache at a synchronization point
    /// (`barrier()`/`fence()` and the fences built on them). One untaken
    /// branch when the cache is off.
    pub fn cache_invalidate_sync(&self, rank: Rank) {
        if let Some(cache) = &self.endpoints[rank].cache {
            self.count_invalidations(rank, cache.invalidate_sync());
            if let Some(ck) = self.check.as_ref().filter(|_| cache.is_empty()) {
                ck.cache_flushed(rank);
            }
        }
    }

    #[inline]
    fn count_invalidations(&self, rank: Rank, lines: u64) {
        if lines != 0 {
            let stats = &self.endpoints[rank].stats;
            stats
                .cache_invalidations
                .fetch_add(lines, Ordering::Relaxed);
        }
    }

    /// Every one-sided operation: one prologue, one hop, one trace span.
    ///
    /// The prologue ([`Fabric::rma_begin`]) is inlined so each
    /// switched-off feature costs one branch. The hop is the op's memory
    /// touch: on the target's segment when it lives in this process,
    /// through the conduit when it does not. Only *remote* ops close a
    /// trace span ([`Fabric::rma_end`]), as `CommStats` counts only those.
    ///
    /// `asked` narrows the checker record to the `(offset, len)` the
    /// program requested when the op fetches more (a read-cache line
    /// fill): claiming the line's padding would invent false-sharing
    /// races with ranks legitimately writing adjacent bytes.
    #[inline(always)] // see the note in `rma.rs`
    pub(crate) fn rma(
        &self,
        initiator: Rank,
        op: &RmaOp<'_>,
        out: &mut [u8],
        asked: Option<(usize, usize)>,
    ) -> (bool, u64) {
        let access = op.access();
        let t0 = self.rma_begin(initiator, &access, asked);
        if matches!(op, RmaOp::Rmw { .. }) {
            // An atomic is a round trip on real hardware: charged twice.
            self.wire(initiator, access.addr.rank(), access.bytes());
        }
        let result = match self.remote_to(access.addr.rank()) {
            Some(r) => self.round_trip(r, op, out),
            None => op.apply(&self.endpoints[access.addr.rank()].segment, out),
        };
        self.rma_end(initiator, &access, t0);
        result
    }

    /// The prologue of one side of a transfer, before any memory is
    /// touched: trace clock (returned, for [`Fabric::rma_end`]), checker
    /// record per touched block (or of `asked` alone, see [`Fabric::rma`]),
    /// fault gate, counters, synthetic wire charge and write-through
    /// invalidation.
    #[inline(always)]
    fn rma_begin(&self, initiator: Rank, access: &Access, asked: Option<(usize, usize)>) -> u64 {
        let (addr, bytes) = (access.addr, access.bytes());
        let target = addr.rank();
        let t0 = self.endpoints[initiator].trace.start();
        if let Some(ck) = &self.check {
            let record = |(offset, len)| {
                ck.access(initiator, target, offset, len, access.kind, access.label)
            };
            match asked {
                Some(span) => record(span),
                None => access.spans().for_each(record),
            }
        }
        // The fault gate: with no plan installed, one untaken branch; with
        // one, remote ops draw a fate and retry drops inline.
        if self.faults.is_some() && initiator != target {
            self.rma_gate_slow(initiator, target, bytes);
        }
        self.tally(initiator, target, bytes, access.is_get());
        self.wire(initiator, target, bytes);
        if !access.is_get() {
            // Over the covering span: dropping the lines of a strided
            // put's gaps too is safe (it only costs a refill).
            self.invalidate_own(initiator, addr, access.cover());
        }
        t0
    }

    /// Close the trace span of a *remote* side begun at `t0`.
    #[inline(always)]
    fn rma_end(&self, initiator: Rank, access: &Access, t0: u64) {
        let target = access.addr.rank();
        if initiator != target {
            let kind = if access.is_get() {
                EventKind::Get
            } else {
                EventKind::Put
            };
            self.endpoints[initiator]
                .trace
                .span(kind, target as i32, access.bytes() as u64, t0);
        }
    }

    /// One-sided contiguous copy of `len` bytes from `src` to `dst`, any
    /// two places in the global address space (paper §III-D `copy`).
    ///
    /// To every tool it is exactly one get of `src` plus one put to `dst`
    /// by `initiator`: the counts, fault draws, checker records and trace
    /// spans of the two separate calls. Where words of the source can be
    /// stored as words of the destination — both segments in this process,
    /// the ranges equally aligned and disjoint, the read not one the read
    /// cache serves — both prologues run, get first, and the bytes move
    /// once, segment to segment ([`Segment::copy_from`]). Every other copy
    /// *is* the two calls, through a buffer the thread keeps from copy to
    /// copy: a side in another process of a conduit job, a remote source
    /// with the cache on (it reads what [`Fabric::get`] reads), unequal
    /// alignment, and overlapping ranges of one rank (read out in full
    /// first: `memmove`'s result).
    pub fn copy(&self, initiator: Rank, src: GlobalAddr, dst: GlobalAddr, len: usize) {
        if len == 0 {
            return;
        }
        let in_process = self
            .remote_to(src.rank())
            .or(self.remote_to(dst.rank()))
            .is_none();
        let cached = self.endpoints[initiator].cache.is_some() && src.rank() != initiator;
        let overlap = src.rank() == dst.rank()
            && src.offset() < dst.offset().saturating_add(len)
            && dst.offset() < src.offset().saturating_add(len);
        if !in_process || cached || overlap || src.offset() % 8 != dst.offset() % 8 {
            let mut stage = STAGE.take();
            stage.resize(len, 0);
            self.get(initiator, src, &mut stage);
            self.put(initiator, dst, &stage);
            return STAGE.set(stage);
        }
        let get = Access::contiguous(src, len, AccessKind::Read);
        let put = Access::contiguous(dst, len, AccessKind::Write);
        let t_get = self.rma_begin(initiator, &get, None);
        let t_put = self.rma_begin(initiator, &put, None);
        let (from, to) = (&self.endpoints[src.rank()], &self.endpoints[dst.rank()]);
        to.segment
            .copy_from(dst.offset(), &from.segment, src.offset(), len);
        self.rma_end(initiator, &get, t_get);
        self.rma_end(initiator, &put, t_put);
    }

    /// One-sided put: write `data` at `dst`.
    pub fn put(&self, initiator: Rank, dst: GlobalAddr, data: &[u8]) {
        self.rma(initiator, &RmaOp::Put { addr: dst, data }, &mut [], None);
    }

    /// One-sided get: read `buf.len()` bytes from `src`. With a read
    /// cache installed, remote gets are served from the cache, filling
    /// whole lines through the fabric on a miss. (Empty and out-of-bounds
    /// gets skip it: same behaviour and panic either way.)
    pub fn get(&self, initiator: Rank, src: GlobalAddr, buf: &mut [u8]) {
        let len = buf.len();
        // Every rank's segment has the configured size; in remote mode
        // the peer's stub segment here is empty, so ask the config.
        if self.endpoints[initiator].cache.is_some()
            && src.rank() != initiator
            && len != 0
            && src.offset() + len <= self.seg_bytes
        {
            return self.get_cached(initiator, src, buf);
        }
        self.rma(initiator, &RmaOp::Get { addr: src, len }, buf, None);
    }

    /// Serve a remote, in-bounds, non-empty get from the initiator's read
    /// cache, one line-sized chunk at a time: a chunk its line holds is a
    /// hit, and each run of consecutive chunks whose lines are missing is
    /// fetched whole ([`Fabric::cache_miss_run`]) — a bulk get over cold
    /// lines costs one message, not one per line. The checker observes
    /// only the bytes the call requested (at the fill for misses, at the
    /// current clock for hits), never the line padding.
    fn get_cached(&self, initiator: Rank, src: GlobalAddr, buf: &mut [u8]) {
        let cache = self.endpoints[initiator].cache.as_ref().unwrap();
        // `buf[missing..at]` is the run of misses not yet fetched.
        let (mut missing, mut at) = (0, 0);
        while at < buf.len() {
            let here = src.add(at);
            let start = here.offset() - cache.line_base_addr(here).offset();
            // The get ends inside the segment, so a short last line
            // never cuts a chunk shorter than this.
            let take = (cache.line_bytes() - start).min(buf.len() - at);
            if cache.lookup(here, &mut buf[at..at + take]) {
                // Accounted before the run ahead of it is installed: that
                // may evict this line, and its fill stamp with it.
                self.cache_hit(initiator, cache, here, take);
                self.cache_miss_run(initiator, cache, src.add(missing), &mut buf[missing..at]);
                missing = at + take;
            }
            at += take;
        }
        self.cache_miss_run(initiator, cache, src.add(missing), &mut buf[missing..at]);
    }

    /// Serve `chunk` — possibly empty, else bytes of consecutive lines
    /// none of which `initiator`'s `cache` holds — from `at`, in pieces of
    /// at most a cache-full of lines (more would evict each other, and the
    /// thread's fetch buffer stays no larger than the cache): per piece
    /// one fabric get from the first line's base to the last line's end,
    /// seen by the checker as a read of the requested bytes, then one
    /// install per line. The fetch runs before the cache's lock is taken,
    /// into a buffer the thread keeps from miss to miss. A word miss
    /// ([`Fabric::get_u64`]) is a run of one line.
    fn cache_miss_run(
        &self,
        initiator: Rank,
        cache: &CacheState,
        mut at: GlobalAddr,
        mut chunk: &mut [u8],
    ) {
        let ep = &self.endpoints[initiator];
        while !chunk.is_empty() {
            let base = cache.line_base_addr(at);
            let start = at.offset() - base.offset();
            let (piece, rest) = chunk.split_at_mut(chunk.len().min(cache.capacity() - start));
            let last = cache.line_base_addr(at.add(piece.len() - 1));
            let mut lines = LINE.take();
            lines.resize(last.offset() - base.offset() + cache.line_len(last), 0);
            let (addr, len) = (base, lines.len());
            let asked = Some((at.offset(), piece.len()));
            self.rma(initiator, &RmaOp::Get { addr, len }, &mut lines, asked);
            piece.copy_from_slice(&lines[start..start + piece.len()]);
            let stamp = self.check.as_ref().map(|ck| ck.cache_fill(initiator));
            let misses = lines.len().div_ceil(cache.line_bytes()) as u64;
            ep.stats.cache_misses.fetch_add(misses, Ordering::Relaxed);
            for (i, line) in lines.chunks(cache.line_bytes()).enumerate() {
                cache.fill(base.add(i * cache.line_bytes()), line, stamp.clone());
                ep.trace
                    .instant(EventKind::CacheFill, at.rank() as i32, line.len() as u64, 0);
            }
            LINE.set(lines);
            at = at.add(piece.len());
            chunk = rest;
        }
    }

    /// Account for `len` bytes at `addr` served from `initiator`'s `cache`.
    #[inline]
    fn cache_hit(&self, initiator: Rank, cache: &CacheState, addr: GlobalAddr, len: usize) {
        let ep = &self.endpoints[initiator];
        ep.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
        ep.trace
            .instant(EventKind::CacheHit, addr.rank() as i32, len as u64, 0);
        if let Some(ck) = &self.check {
            // A hit is still a read the program performs now: record it
            // at the current clock (writes *racing* with the hit are
            // plain data races), then check that no synchronized-after-
            // fill write has made the cached bytes stale.
            let (target, offset) = (addr.rank(), addr.offset());
            ck.access(initiator, target, offset, len, AccessKind::Read, "get");
            if let Some(fill) = cache.fill_stamp(addr) {
                ck.cache_read(initiator, target, offset, len, &fill);
            }
        }
    }

    /// Aligned 8-byte put (fast path used by shared scalars/arrays).
    #[inline]
    pub fn put_u64(&self, initiator: Rank, dst: GlobalAddr, value: u64) {
        if self.endpoints[initiator].rma_fast {
            self.tally(initiator, dst.rank(), 8, false);
            return self.endpoints[dst.rank()]
                .segment
                .store_u64(dst.offset(), value);
        }
        let data = &value.to_le_bytes();
        self.rma(initiator, &RmaOp::Put { addr: dst, data }, &mut [], None);
    }

    /// Aligned 8-byte get (fast path). Like [`Fabric::get`], remote reads
    /// go through the read cache when one is installed.
    #[inline]
    pub fn get_u64(&self, initiator: Rank, src: GlobalAddr) -> u64 {
        if self.endpoints[initiator].rma_fast {
            self.tally(initiator, src.rank(), 8, true);
            return self.endpoints[src.rank()].segment.load_u64(src.offset());
        }
        let mut buf = [0u8; 8];
        match &self.endpoints[initiator].cache {
            // As in `get`: remote and in bounds, or not through the cache.
            Some(cache) if src.rank() != initiator && src.offset() + 8 <= self.seg_bytes => {
                // The word hit: two compares and a load.
                if let Some(word) = cache.lookup_u64(src) {
                    self.cache_hit(initiator, cache, src, 8);
                    return word;
                }
                self.cache_miss_run(initiator, cache, src, &mut buf);
            }
            _ => {
                self.rma(initiator, &RmaOp::Get { addr: src, len: 8 }, &mut buf, None);
            }
        }
        u64::from_le_bytes(buf)
    }

    /// A word atomic off the `rma_fast` path.
    #[inline]
    fn rmw(&self, initiator: Rank, addr: GlobalAddr, op: RmwOp, a: u64, b: u64) -> (bool, u64) {
        self.rma(initiator, &RmaOp::rmw(addr, op, a, b), &mut [], None)
    }

    /// Remote atomic xor on an aligned u64; returns the previous value.
    #[inline]
    pub fn xor_u64(&self, initiator: Rank, dst: GlobalAddr, value: u64) -> u64 {
        if self.endpoints[initiator].rma_fast {
            self.tally(initiator, dst.rank(), 8, false);
            return self.endpoints[dst.rank()]
                .segment
                .fetch_xor_u64(dst.offset(), value);
        }
        self.rmw(initiator, dst, RmwOp::Xor, value, 0).1
    }

    /// Remote atomic add on an aligned u64; returns the previous value.
    #[inline]
    pub fn add_u64(&self, initiator: Rank, dst: GlobalAddr, value: u64) -> u64 {
        if self.endpoints[initiator].rma_fast {
            self.tally(initiator, dst.rank(), 8, false);
            return self.endpoints[dst.rank()]
                .segment
                .fetch_add_u64(dst.offset(), value);
        }
        self.rmw(initiator, dst, RmwOp::Add, value, 0).1
    }

    /// Remote CAS on an aligned u64.
    #[inline]
    pub fn cas_u64(
        &self,
        initiator: Rank,
        dst: GlobalAddr,
        current: u64,
        new: u64,
    ) -> Result<u64, u64> {
        if self.endpoints[initiator].rma_fast {
            self.tally(initiator, dst.rank(), 8, false);
            return self.endpoints[dst.rank()]
                .segment
                .cas_u64(dst.offset(), current, new);
        }
        match self.rmw(initiator, dst, RmwOp::Cas, current, new) {
            (true, prev) => Ok(prev),
            (false, prev) => Err(prev),
        }
    }

    /// Strided (vector) put: write `nblocks` blocks of `block` bytes from
    /// `src` (contiguous) to `dst`, advancing the destination by
    /// `dst_stride` bytes between blocks. One network operation: real RDMA
    /// NICs offer the same "iovec" capability, and the paper's ghost-zone
    /// copies rely on it being one-sided.
    pub fn put_strided(
        &self,
        initiator: Rank,
        dst: GlobalAddr,
        dst_stride: usize,
        src: &[u8],
        block: usize,
        nblocks: usize,
    ) {
        assert_eq!(
            src.len(),
            block * nblocks,
            "put_strided: source size mismatch"
        );
        let op = RmaOp::PutStrided {
            addr: dst,
            stride: dst_stride,
            block,
            nblocks,
            data: src,
        };
        self.rma(initiator, &op, &mut [], None);
    }

    /// Strided (vector) get: the mirror of [`Fabric::put_strided`].
    pub fn get_strided(
        &self,
        initiator: Rank,
        src: GlobalAddr,
        src_stride: usize,
        buf: &mut [u8],
        block: usize,
        nblocks: usize,
    ) {
        assert_eq!(
            buf.len(),
            block * nblocks,
            "get_strided: buffer size mismatch"
        );
        let op = RmaOp::GetStrided {
            addr: src,
            stride: src_stride,
            block,
            nblocks,
        };
        self.rma(initiator, &op, buf, None);
    }

    /// Send an active message to `dst`. FIFO order is preserved per
    /// (source, destination) pair — with a fault plan installed the
    /// reliable layer re-establishes it through sequence numbers,
    /// retransmission and receiver-side reordering; otherwise the push
    /// below is FIFO by construction.
    pub fn send_am(&self, initiator: Rank, dst: Rank, payload: AmPayload) {
        let am_bytes = match &payload {
            AmPayload::Handler { args, .. } => args.len(),
            AmPayload::Task(_) => 64, // headers of an opaque task AM
            AmPayload::Batch { frames, .. } => frames.len(),
        };
        // Per-link FIFO across the aggregation layer: frames already
        // buffered for `dst` must reach the wire before this message
        // (one untaken branch when aggregation is off; batches themselves
        // are produced by the flush and must not recurse into it).
        if self.endpoints[initiator].agg.is_some() && !matches!(payload, AmPayload::Batch { .. }) {
            self.flush_agg_to(initiator, dst);
        }
        self.wire(initiator, dst, am_bytes);
        let stats = &self.endpoints[initiator].stats;
        stats.ams_sent.fetch_add(1, Ordering::Relaxed);
        if !matches!(payload, AmPayload::Task(_)) {
            stats.am_bytes.fetch_add(am_bytes as u64, Ordering::Relaxed);
        }
        // The causal span (None unless `RUPCXX_PROF` is on) survives
        // retransmits because the whole message rides the limbo and lost
        // queues, and aggregation because a batch is one frame.
        let prof = self.endpoints[initiator]
            .trace
            .am_send(dst as i32, am_bytes as u64);
        // The sender's clock snapshot rides the message (None when the
        // checker is off): the receiver joins it before executing the
        // payload, giving the checker the AM happens-before edge — and,
        // for a batch, the flush-time clock its frames are recorded with.
        let clock = self.check.as_ref().map(|ck| ck.send_stamp(initiator));
        let msg = AmMessage {
            src: initiator,
            payload,
            clock,
            prof,
        };
        // Out-of-process destination: the fully-built message (clock and
        // span attached) goes on the wire; the receiving process runs
        // the same delivery tail, fate draw included.
        if let Some(r) = self.remote_to(dst) {
            return self.remote_send_am(r, dst, msg);
        }
        self.deliver_arrival(initiator, dst, msg);
    }

    /// Fabric-wide retransmit total. Wait-state classification samples
    /// this around a blocking wait: a nonzero delta means the wait rode
    /// out packet loss (a retransmit stall), whichever rank's frames were
    /// being repaired.
    pub fn total_retransmits(&self) -> u64 {
        self.endpoints
            .iter()
            .map(|e| e.stats.retransmits.load(Ordering::Relaxed))
            .sum()
    }

    /// Dump the flight recorder: the causal tail of every hosted rank's
    /// event stream, to stderr and the test-visible capture buffer. One
    /// dump per job (first failure wins); no-op when no ring records.
    pub fn dump_flight(&self, reason: &str) {
        let mut recording = self
            .hosted_ranks()
            .map(|r| &self.endpoints[r].trace)
            .filter(|t| t.ring().is_some())
            .peekable();
        if recording.peek().is_none() || self.flight_dumped.swap(true, Ordering::SeqCst) {
            return;
        }
        let per_rank: Vec<_> = recording.map(RankTrace::stream).collect();
        rupcxx_trace::flight::record_dump(rupcxx_trace::flight::format_flight(reason, &per_rank));
    }

    /// Aggregate traffic snapshot over all endpoints.
    pub fn total_counts(&self) -> CommCounts {
        self.endpoints
            .iter()
            .map(|e| e.stats.snapshot())
            .fold(CommCounts::default(), |acc, c| acc.merged(&c))
    }
}

impl std::fmt::Debug for Fabric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fabric")
            .field("ranks", &self.ranks())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fabric(ranks: usize) -> Arc<Fabric> {
        Fabric::new(FabricConfig {
            ranks,
            segment_bytes: 4096,
            simnet: None,
            trace: TraceConfig::off(),
            faults: None,
            agg: None,
            check: None,
            cache: None,
            prof: None,
            schedule: None,
            remote: None,
        })
    }

    fn cached_fabric(ranks: usize, line: usize) -> Arc<Fabric> {
        Fabric::new(FabricConfig {
            ranks,
            segment_bytes: 4096,
            cache: Some(CacheConfig::new().capacity_bytes(1024).line_bytes(line)),
            ..FabricConfig::default()
        })
    }

    #[test]
    fn put_get_roundtrip_remote() {
        let f = fabric(2);
        let addr = GlobalAddr::new(1, 16);
        f.put(0, addr, &[1, 2, 3, 4]);
        let mut out = [0u8; 4];
        f.get(0, addr, &mut out);
        assert_eq!(out, [1, 2, 3, 4]);
        let c = f.endpoint(0).stats.snapshot();
        assert_eq!(c.puts, 1);
        assert_eq!(c.gets, 1);
        assert_eq!(c.put_bytes, 4);
        assert_eq!(c.get_bytes, 4);
    }

    #[test]
    fn local_ops_counted_separately() {
        let f = fabric(2);
        f.put_u64(1, GlobalAddr::new(1, 0), 42);
        let c = f.endpoint(1).stats.snapshot();
        assert_eq!(c.puts, 0);
        assert_eq!(c.local_ops, 1);
        assert_eq!(f.get_u64(1, GlobalAddr::new(1, 0)), 42);
    }

    #[test]
    fn word_sized_put_get_fast_path_matches_slice_path() {
        let f = fabric(2);
        // Aligned 8-byte slice ops take the direct-word path; they must
        // be indistinguishable from the byte path, counts included.
        let v = 0x0102_0304_0506_0708u64;
        f.put(0, GlobalAddr::new(1, 16), &v.to_le_bytes());
        assert_eq!(f.get_u64(0, GlobalAddr::new(1, 16)), v);
        let mut out = [0u8; 8];
        f.get(0, GlobalAddr::new(1, 16), &mut out);
        assert_eq!(out, v.to_le_bytes());
        // Unaligned 8-byte ops still go through the partial-word path.
        f.put(0, GlobalAddr::new(1, 3), &v.to_le_bytes());
        let mut out = [0u8; 8];
        f.get(0, GlobalAddr::new(1, 3), &mut out);
        assert_eq!(out, v.to_le_bytes());
        let c = f.endpoint(0).stats.snapshot();
        assert_eq!((c.puts, c.gets), (2, 3));
        assert_eq!((c.put_bytes, c.get_bytes), (16, 24));
    }

    #[test]
    fn xor_add_cas() {
        let f = fabric(2);
        let a = GlobalAddr::new(1, 8);
        f.put_u64(0, a, 0xF0);
        assert_eq!(f.xor_u64(0, a, 0x0F), 0xF0);
        assert_eq!(f.get_u64(0, a), 0xFF);
        assert_eq!(f.add_u64(0, a, 1), 0xFF);
        assert_eq!(f.cas_u64(0, a, 0x100, 7), Ok(0x100));
        assert_eq!(f.get_u64(0, a), 7);
    }

    #[test]
    fn strided_roundtrip() {
        let f = fabric(2);
        let base = GlobalAddr::new(1, 0);
        // 3 blocks of 8 bytes with stride 24 on the remote side.
        let src: Vec<u8> = (0..24).collect();
        f.put_strided(0, base, 24, &src, 8, 3);
        let mut buf = vec![0u8; 24];
        f.get_strided(0, base, 24, &mut buf, 8, 3);
        assert_eq!(buf, src);
        // Gap bytes untouched.
        let mut gap = [0u8; 8];
        f.get(0, base.add(8), &mut gap);
        assert_eq!(gap, [0u8; 8]);
    }

    #[test]
    fn am_fifo_per_pair() {
        let f = fabric(2);
        for i in 0..10u16 {
            f.send_am(
                0,
                1,
                AmPayload::Handler {
                    id: i,
                    args: Bytes::new(),
                },
            );
        }
        let mut got = vec![];
        while let Some(m) = f.endpoint(1).try_recv() {
            assert_eq!(m.src, 0);
            if let AmPayload::Handler { id, .. } = m.payload {
                got.push(id);
            }
        }
        assert_eq!(got, (0..10).collect::<Vec<_>>());
        assert_eq!(f.endpoint(0).stats.snapshot().ams_sent, 10);
        assert_eq!(f.endpoint(1).stats.snapshot().ams_handled, 10);
    }

    #[test]
    fn am_task_payload_executes() {
        let f = fabric(2);
        let flag = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let flag2 = flag.clone();
        f.send_am(
            0,
            1,
            AmPayload::Task(Box::new(move |_| {
                flag2.store(true, Ordering::SeqCst);
            })),
        );
        let msg = f.endpoint(1).try_recv().unwrap();
        match msg.payload {
            AmPayload::Task(task) => task(&()),
            other => panic!("unexpected payload {other:?}"),
        }
        assert!(flag.load(Ordering::SeqCst));
    }

    #[test]
    fn simnet_charges_remote_ops_only() {
        let f = Fabric::new(FabricConfig {
            ranks: 2,
            segment_bytes: 4096,
            simnet: Some(SimNet {
                latency_ns: 200_000, // 200 µs — far above host noise
                bytes_per_us: 0,
            }),
            trace: TraceConfig::off(),
            faults: None,
            agg: None,
            check: None,
            cache: None,
            prof: None,
            schedule: None,
            remote: None,
        });
        // Remote word put takes at least the injected latency.
        let t = std::time::Instant::now();
        f.put_u64(0, GlobalAddr::new(1, 0), 1);
        assert!(t.elapsed() >= std::time::Duration::from_micros(200));
        // Local word put is unaffected (well under the injected latency).
        let t = std::time::Instant::now();
        f.put_u64(1, GlobalAddr::new(1, 8), 1);
        assert!(t.elapsed() < std::time::Duration::from_micros(200));
        // Remote atomics charge a round trip (two traversals).
        let t = std::time::Instant::now();
        f.xor_u64(0, GlobalAddr::new(1, 0), 1);
        assert!(t.elapsed() >= std::time::Duration::from_micros(400));
    }

    #[test]
    fn simnet_bandwidth_term() {
        let f = Fabric::new(FabricConfig {
            ranks: 2,
            segment_bytes: 1 << 20,
            simnet: Some(SimNet {
                latency_ns: 0,
                bytes_per_us: 100, // 100 MB/s: 512 KiB ≈ 5.2 ms
            }),
            trace: TraceConfig::off(),
            faults: None,
            agg: None,
            check: None,
            cache: None,
            prof: None,
            schedule: None,
            remote: None,
        });
        let data = vec![0u8; 512 << 10];
        let t = std::time::Instant::now();
        f.put(0, GlobalAddr::new(1, 0), &data);
        assert!(t.elapsed() >= std::time::Duration::from_millis(5));
    }

    #[test]
    fn global_addr_arithmetic() {
        let a = GlobalAddr::new(3, 100);
        assert_eq!(a.add(28), GlobalAddr::new(3, 128));
    }

    #[test]
    fn endpoint_drain_is_consistent_and_counts_handled() {
        let f = fabric(2);
        for i in 0..6u16 {
            f.send_am(
                0,
                1,
                AmPayload::Handler {
                    id: i,
                    args: Bytes::new(),
                },
            );
        }
        let batch = f.endpoint(1).drain();
        assert_eq!(batch.len(), 6);
        let ids: Vec<u16> = batch
            .iter()
            .map(|m| match &m.payload {
                AmPayload::Handler { id, .. } => *id,
                other => panic!("unexpected payload {other:?}"),
            })
            .collect();
        assert_eq!(ids, (0..6).collect::<Vec<_>>());
        assert_eq!(f.endpoint(1).pending(), 0);
        assert_eq!(f.endpoint(1).stats.snapshot().ams_handled, 6);
        // Draining an empty inbox is a no-op, not a count.
        assert!(f.endpoint(1).drain().is_empty());
        assert_eq!(f.endpoint(1).stats.snapshot().ams_handled, 6);
    }

    #[test]
    fn noop_fault_plan_skips_reliable_layer() {
        let f = Fabric::new(FabricConfig {
            ranks: 2,
            segment_bytes: 4096,
            simnet: None,
            trace: TraceConfig::off(),
            faults: Some(crate::faults::FaultPlan::new(1)),
            agg: None,
            check: None,
            cache: None,
            prof: None,
            schedule: None,
            remote: None,
        });
        assert!(!f.has_faults(), "a no-op plan must not slow the fabric");
        f.send_am(
            0,
            1,
            AmPayload::Handler {
                id: 0,
                args: Bytes::new(),
            },
        );
        assert_eq!(f.endpoint(1).pending(), 1);
    }

    #[test]
    fn cached_gets_fill_once_then_hit() {
        let f = cached_fabric(2, 64);
        for i in 0..8 {
            f.put_u64(1, GlobalAddr::new(1, 64 + i * 8), 100 + i as u64);
        }
        // Eight word gets inside one line: one fabric get, seven hits.
        for i in 0..8 {
            assert_eq!(f.get_u64(0, GlobalAddr::new(1, 64 + i * 8)), 100 + i as u64);
        }
        let c = f.endpoint(0).stats.snapshot();
        assert_eq!(c.gets, 1, "one line fill on the fabric");
        assert_eq!(c.get_bytes, 64, "the whole line was fetched");
        assert_eq!(c.cache_misses, 1);
        assert_eq!(c.cache_hits, 7);
    }

    #[test]
    fn cached_get_spanning_lines_and_odd_offsets_is_bit_exact() {
        let f = cached_fabric(2, 64);
        let data: Vec<u8> = (0..200u8).collect();
        f.put(1, GlobalAddr::new(1, 30), &data);
        let mut out = vec![0u8; 200];
        f.get(0, GlobalAddr::new(1, 30), &mut out);
        assert_eq!(out, data, "multi-line cached read");
        let mut again = vec![0u8; 200];
        f.get(0, GlobalAddr::new(1, 30), &mut again);
        assert_eq!(again, data, "all-hit re-read");
        let c = f.endpoint(0).stats.snapshot();
        // [30, 230) covers lines 0,64,128,192: 4 fills, then 4 hits.
        assert_eq!(c.cache_misses, 4);
        assert_eq!(c.cache_hits, 4);
        assert_eq!((c.gets, c.get_bytes), (1, 256), "one get for the run");
    }

    #[test]
    fn a_run_of_missing_lines_is_one_get() {
        let f = cached_fabric(2, 64);
        let image: Vec<u8> = (0..1024u32).map(|i| (i * 13 + i / 256) as u8).collect();
        f.put(1, GlobalAddr::new(1, 0), &image);
        let counts = || f.endpoint(0).stats.snapshot();
        let read = |offset: usize, len: usize| {
            let mut out = vec![0u8; len];
            f.get(0, GlobalAddr::new(1, offset), &mut out);
            assert_eq!(out, image[offset..offset + len], "{len} bytes at {offset}");
        };
        // All-miss, k = 5 lines (64..384), asked from mid-line to mid-line.
        read(70, 300);
        let c = counts();
        assert_eq!((c.gets, c.get_bytes), (1, 320), "whole lines, one message");
        assert_eq!(
            (c.cache_misses, c.cache_hits),
            (5, 0),
            "five lines installed"
        );
        // The same request again: five hits, nothing on the fabric.
        read(70, 300);
        let c = counts().since(&c);
        assert_eq!((c.gets, c.cache_misses, c.cache_hits), (0, 0, 5));
        // Straddling: lines 0 and 384..512 are cold, 64..384 cached, and
        // line 192 is dropped in the middle — three runs around two
        // stretches of hits.
        let cache = f.endpoint(0).cache().expect("cache installed");
        assert_eq!(cache.invalidate_span(GlobalAddr::new(1, 200), 1), 1);
        let before = counts();
        read(3, 500);
        let c = counts().since(&before);
        assert_eq!((c.gets, c.get_bytes), (3, 64 + 64 + 128));
        assert_eq!((c.cache_misses, c.cache_hits), (4, 4));
        read(0, 512);
        assert_eq!(
            counts().since(&before).gets,
            3,
            "all eight lines cached now"
        );
    }

    #[test]
    fn a_run_longer_than_the_cache_is_fetched_a_cache_full_at_a_time() {
        // 16 slots of 64 bytes; 40 cold lines asked from mid-line.
        let f = cached_fabric(2, 64);
        let image: Vec<u8> = (0..4096u32).map(|i| (i * 31 + i / 256) as u8).collect();
        f.put(1, GlobalAddr::new(1, 0), &image);
        let mut out = vec![0u8; 2500];
        f.get(0, GlobalAddr::new(1, 70), &mut out);
        assert_eq!(out, image[70..2570]);
        let c = f.endpoint(0).stats.snapshot();
        // Lines 64..2624: 16 + 16 + 8 of them.
        assert_eq!((c.gets, c.get_bytes), (3, 2560));
        assert_eq!((c.cache_misses, c.cache_hits), (40, 0));
        // What stayed is the last cache-full, lines 1600..2624.
        let before = f.endpoint(0).stats.snapshot();
        f.get(0, GlobalAddr::new(1, 1600), &mut out[..1008]);
        assert_eq!(out[..1008], image[1600..2608]);
        let c = f.endpoint(0).stats.snapshot().since(&before);
        assert_eq!((c.gets, c.cache_misses, c.cache_hits), (0, 0, 16));
    }

    #[test]
    fn copy_counts_as_one_get_plus_one_put_and_moves_memmove_style() {
        let f = fabric(3);
        let image: Vec<u8> = (0..200u8).collect();
        f.put(1, GlobalAddr::new(1, 5), &image);
        let read = |rank: Rank, offset: usize, len: usize| {
            let mut out = vec![0u8; len];
            f.endpoint(rank).segment.read_bytes(offset, &mut out);
            out
        };
        // Word to word (45 sits in its word as 5 does) and staged (43
        // does not): the same bytes and the same counts.
        for to in [45usize, 43] {
            // Third party: rank 0 moves rank 1's bytes to rank 2.
            let before = f.total_counts();
            f.copy(0, GlobalAddr::new(1, 5), GlobalAddr::new(2, to), 200);
            assert_eq!(read(2, to, 200), image);
            let want = CommCounts {
                gets: 1,
                get_bytes: 200,
                puts: 1,
                put_bytes: 200,
                ..CommCounts::default()
            };
            assert_eq!(f.total_counts().since(&before), want, "to {to}");
            // One side local: a local op, the other side a remote one.
            let before = f.total_counts();
            f.copy(1, GlobalAddr::new(1, 5), GlobalAddr::new(0, to), 200);
            let c = f.total_counts().since(&before);
            assert_eq!((c.local_ops, c.gets, c.puts, c.put_bytes), (1, 0, 1, 200));
            assert_eq!(read(0, to, 200), image);
        }
        // Overlapping ranges of one rank, both directions.
        for (from, to) in [(5usize, 37usize), (37, 5), (5, 13), (13, 5)] {
            let mut want = read(1, 0, 300);
            want.copy_within(from..from + 200, to);
            f.copy(1, GlobalAddr::new(1, from), GlobalAddr::new(1, to), 200);
            assert_eq!(read(1, 0, 300), want, "{from} -> {to}");
        }
        // Nothing to move: nothing counted.
        let before = f.total_counts();
        f.copy(0, GlobalAddr::new(1, 0), GlobalAddr::new(2, 0), 0);
        assert_eq!(f.total_counts().since(&before), CommCounts::default());
    }

    #[test]
    fn copy_reads_what_get_reads_with_the_cache_on_and_writes_through_it() {
        let f = cached_fabric(2, 64);
        let (a, b) = (GlobalAddr::new(1, 64), GlobalAddr::new(1, 256));
        f.put_u64(1, a, 5);
        assert_eq!(f.get_u64(0, a), 5, "line of `a` cached");
        assert_eq!(f.get_u64(0, b), 0, "line of `b` cached");
        // The owner moves on; rank 0's cached line of `a` is stale until
        // its next synchronization point — for `copy` as for `get`.
        f.put_u64(1, a, 9);
        assert_eq!(f.get_u64(0, a), 5);
        let before = f.endpoint(0).stats.snapshot();
        f.copy(0, a, b, 8);
        let c = f.endpoint(0).stats.snapshot().since(&before);
        assert_eq!((c.gets, c.cache_hits), (0, 1), "the get side is a hit");
        assert_eq!((c.puts, c.put_bytes), (1, 8));
        assert_eq!(c.cache_invalidations, 1, "the written line was dropped");
        assert_eq!(f.get_u64(0, b), 5, "what `get` read, read back fresh");
        // A source of the initiator's own is never cached: segment to
        // segment, counted as the local get and the remote put it is.
        let before = f.endpoint(1).stats.snapshot();
        f.copy(1, a, GlobalAddr::new(0, 8), 8);
        let c = f.endpoint(1).stats.snapshot().since(&before);
        assert_eq!((c.local_ops, c.puts, c.put_bytes), (1, 1, 8));
        assert_eq!(c.cache_hits + c.cache_misses, 0);
        assert_eq!(f.endpoint(0).segment.load_u64(8), 9);
    }

    #[test]
    fn own_put_invalidates_cached_line() {
        let f = cached_fabric(2, 64);
        let a = GlobalAddr::new(1, 64);
        f.put_u64(0, a, 1);
        assert_eq!(f.get_u64(0, a), 1);
        // Write-through: the initiator's next read sees its own write.
        f.put_u64(0, a, 2);
        assert_eq!(f.get_u64(0, a), 2, "read-your-own-writes");
        let c = f.endpoint(0).stats.snapshot();
        assert_eq!(c.cache_invalidations, 1, "second put dropped the line");
        assert_eq!(c.cache_misses, 2, "the line was refilled");
        // Atomics write through as well.
        f.xor_u64(0, a, 0xF0);
        assert_eq!(f.get_u64(0, a), 2 ^ 0xF0);
    }

    #[test]
    fn sync_invalidation_refetches_remote_writes() {
        let f = cached_fabric(2, 64);
        let a = GlobalAddr::new(1, 0);
        f.put_u64(1, a, 5);
        assert_eq!(f.get_u64(0, a), 5);
        // Rank 1 (the owner) updates its own word: rank 0's cache cannot
        // see it until a sync point drops the line.
        f.put_u64(1, a, 9);
        assert_eq!(f.get_u64(0, a), 5, "stale until synchronization");
        f.cache_invalidate_sync(0);
        assert_eq!(f.get_u64(0, a), 9, "fresh after sync invalidation");
        assert_eq!(f.endpoint(0).stats.snapshot().cache_invalidations, 1);
    }

    #[test]
    fn local_gets_bypass_the_cache() {
        let f = cached_fabric(2, 64);
        f.put_u64(1, GlobalAddr::new(1, 0), 3);
        assert_eq!(f.get_u64(1, GlobalAddr::new(1, 0)), 3);
        let c = f.endpoint(1).stats.snapshot();
        assert_eq!(c.cache_hits + c.cache_misses, 0, "local reads never cached");
        assert_eq!(c.local_ops, 2);
    }

    #[test]
    fn short_line_at_segment_end_is_cached_correctly() {
        // 4096-byte segment, 64-byte lines: the last line is full, so use
        // an offset near the end with a line size that does not divide the
        // segment? 4096 % 64 == 0 — craft a short line via a small segment.
        let f = Fabric::new(FabricConfig {
            ranks: 2,
            segment_bytes: 100, // last 64-byte line holds 36 bytes
            cache: Some(CacheConfig::new().capacity_bytes(1024).line_bytes(64)),
            ..FabricConfig::default()
        });
        f.put(1, GlobalAddr::new(1, 90), &[7; 10]);
        let mut out = [0u8; 10];
        f.get(0, GlobalAddr::new(1, 90), &mut out);
        assert_eq!(out, [7; 10]);
        let c = f.endpoint(0).stats.snapshot();
        assert_eq!(c.cache_misses, 1);
        assert_eq!(c.get_bytes, 36, "short line fetch stops at segment end");
        f.get(0, GlobalAddr::new(1, 90), &mut out);
        assert_eq!(out, [7; 10]);
        assert_eq!(f.endpoint(0).stats.snapshot().cache_hits, 1);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn cached_out_of_bounds_get_panics_like_uncached() {
        let f = cached_fabric(2, 64);
        let mut buf = [0u8; 16];
        f.get(0, GlobalAddr::new(1, 4090), &mut buf);
    }

    #[test]
    fn sweeps_of_exactly_the_capacity_miss_once_per_line() {
        // 1 KiB of 64-byte lines: 16 slots, swept as 128 words starting
        // mid-segment. Only the first sweep may miss.
        let f = cached_fabric(2, 64);
        for _ in 0..4 {
            for w in 0..128 {
                f.get_u64(0, GlobalAddr::new(1, 1472 + w * 8));
            }
        }
        let c = f.endpoint(0).stats.snapshot();
        assert_eq!(c.cache_misses, 16);
        assert_eq!(c.cache_hits, 4 * 128 - 16);
        f.cache_invalidate_sync(0);
        assert_eq!(f.endpoint(0).stats.snapshot().cache_invalidations, 16);
    }

    #[test]
    fn concurrent_same_rank_gets_never_tear_or_misattribute() {
        // Two threads read as rank 0 through a cache of four lines, so
        // they keep evicting what the other is reading, while a third
        // invalidates under both. The segment never changes, so every
        // byte anyone is handed must be the one its address defines.
        const SEG: usize = 4096;
        const ROUNDS: u64 = 60_000;
        let byte_at = |off: usize| (off as u32).wrapping_mul(0x9E37_79B9).to_le_bytes()[3];
        let f = Fabric::new(FabricConfig {
            ranks: 2,
            segment_bytes: SEG,
            cache: Some(CacheConfig::new().capacity_bytes(512).line_bytes(256)),
            ..FabricConfig::default()
        });
        let image: Vec<u8> = (0..SEG).map(byte_at).collect();
        f.put(1, GlobalAddr::new(1, 0), &image);
        let start = std::sync::Barrier::new(3);
        std::thread::scope(|s| {
            for t in 0..2u64 {
                let (f, start, image) = (&f, &start, &image);
                s.spawn(move || {
                    let mut rng = rupcxx_util::SplitMix64::new(0xCAC4E + t);
                    let mut buf = [0u8; 600];
                    start.wait();
                    for _ in 0..ROUNDS {
                        let r = rng.next_u64() as usize;
                        if r & 1 == 0 {
                            let off = (r >> 8) % (SEG / 8) * 8;
                            let word = f.get_u64(0, GlobalAddr::new(1, off));
                            assert_eq!(word.to_le_bytes(), image[off..off + 8], "word at {off}");
                        } else {
                            let len = 1 + (r >> 8) % buf.len();
                            let off = (r >> 24) % (SEG - len);
                            f.get(0, GlobalAddr::new(1, off), &mut buf[..len]);
                            assert_eq!(buf[..len], image[off..off + len], "{len} bytes at {off}");
                        }
                    }
                });
            }
            let (f, start) = (&f, &start);
            s.spawn(move || {
                let cache = f.endpoint(0).cache().expect("cache installed");
                let mut rng = rupcxx_util::SplitMix64::new(0x1A7E);
                start.wait();
                for round in 0..ROUNDS {
                    if round % 4 == 0 {
                        // Often enough for the 6-bit epoch to wrap.
                        f.cache_invalidate_sync(0);
                    } else {
                        let off = rng.next_u64() as usize % (SEG - 600);
                        cache.invalidate_span(GlobalAddr::new(1, off), 600);
                    }
                }
            });
        });
        let c = f.endpoint(0).stats.snapshot();
        assert!(c.cache_hits > 0 && c.cache_misses > 0, "{c:?}");
    }

    #[test]
    fn stale_hit_is_reported_however_late_it_runs() {
        // Rank 0 keeps a line across two barriers it should have dropped
        // it at; rank 1 writes the word in between. Both ranks have run
        // their barrier-exit prune before the stale hit.
        let sink = rupcxx_check::new_sink();
        let f = Fabric::new(FabricConfig {
            ranks: 2,
            segment_bytes: 4096,
            check: Some(CheckConfig::all().with_sink(sink.clone())),
            cache: Some(CacheConfig::new()),
            ..FabricConfig::default()
        });
        let ck = f.checker().expect("checker installed");
        let barrier = || {
            let (s0, s1) = (ck.send_stamp(0), ck.send_stamp(1));
            ck.join(0, &s1);
            ck.join(1, &s0);
            for rank in 0..2 {
                ck.wait_end(rank, rupcxx_check::WaitInfo::Barrier { domain: 0, seq: 0 });
                f.cache_invalidate_sync(rank);
            }
        };
        let cache = f.endpoint(0).cache().expect("cache installed");
        cache.set_bypass_sync_invalidation(true);
        let a = GlobalAddr::new(1, 64);
        f.put_u64(1, a, 5);
        barrier();
        assert_eq!(f.get_u64(0, a), 5, "line fill");
        barrier();
        f.put_u64(1, a, 9);
        barrier();
        assert_eq!(f.get_u64(0, a), 5, "stale by construction");
        let stale = |sink: &rupcxx_check::FindingSink| {
            let found = sink.lock();
            found
                .iter()
                .filter(|f| f.kind == rupcxx_check::FindingKind::StaleCachedRead)
                .count()
        };
        assert_eq!(stale(&sink), 1);
        // With the line dropped, the floor goes and a fresh read is clean.
        cache.set_bypass_sync_invalidation(false);
        barrier();
        assert_eq!(f.get_u64(0, a), 9);
        assert_eq!(stale(&sink), 1);
    }

    #[test]
    fn endpoint_groups_share_no_block() {
        use std::mem::{align_of, offset_of, size_of};
        const BLOCK: usize = 128;
        /// First and last block a group of `(offset, size)` fields touches.
        fn blocks(fields: &[(usize, usize)]) -> (usize, usize) {
            let first = fields.iter().map(|&(at, _)| at / BLOCK).min().unwrap();
            let last = fields.iter().map(|&(at, size)| (at + size - 1) / BLOCK);
            (first, last.max().unwrap())
        }
        macro_rules! field {
            ($name:ident: $ty:ty) => {
                (offset_of!(Endpoint, $name), size_of::<$ty>())
            };
        }
        let shared = blocks(&[field!(segment: Segment), field!(rma_fast: bool)]);
        let owner = blocks(&[
            field!(stats: CachePadded<CommStats>),
            field!(trace: RankTrace),
            field!(agg: Option<AggState>),
            field!(cache: Option<CacheState>),
        ]);
        let peers = blocks(&[
            field!(inbox: Inbox<AmMessage>),
            field!(reliable: Option<AmChannel>),
        ]);
        assert!(
            shared.1 < owner.0 && owner.1 < peers.0,
            "read-only {shared:?}, owner-written {owner:?}, peer-written {peers:?}"
        );
        // In an array the next endpoint's read-only block follows this
        // one's peer-written blocks: it must start a block as well.
        assert_eq!(align_of::<Endpoint>(), BLOCK);
        assert_eq!(size_of::<Endpoint>() % BLOCK, 0);
        assert_eq!(peers.1, size_of::<Endpoint>() / BLOCK - 1);
    }

    #[test]
    fn total_counts_aggregates() {
        let f = fabric(3);
        f.put_u64(0, GlobalAddr::new(1, 0), 1);
        f.put_u64(1, GlobalAddr::new(2, 0), 1);
        f.get_u64(2, GlobalAddr::new(0, 0));
        let t = f.total_counts();
        assert_eq!(t.puts, 2);
        assert_eq!(t.gets, 1);
        assert_eq!(f.total_counts().since(&t), CommCounts::default());
    }
}
