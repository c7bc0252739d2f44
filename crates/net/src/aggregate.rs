//! Per-destination message aggregation (a software "conveyor").
//!
//! Fine-grained PGAS traffic — 8-byte remote updates, small RPCs — pays a
//! full `send_am`/RMA cost per operation on this fabric: an allocation, a
//! queue push, stats, trace and (under faults) reliable-layer bookkeeping
//! for every few bytes moved. UPC++ amortizes that per-message injection
//! overhead by packing handler + args into contiguous buffers (paper §IV);
//! DASH/DART report per-destination coalescing as the single largest win
//! for irregular workloads. This module is that layer:
//!
//! * each rank keeps one small coalescing buffer **per destination** into
//!   which buffered operations are packed as compact frames
//!   ([`Frame`]: handler RPCs, and `xor`/`add` word updates and small
//!   puts as [`RmaOp`]s in the op's own wire encoding);
//! * **flush rule:** a buffer leaves as **one** [`AmPayload::Batch`]
//!   active message when the frame just packed fills its slab (4096
//!   bytes: 241 word updates); when a direct message to the same
//!   destination must not overtake it ([`Fabric::send_am`]); and when
//!   the runtime force-flushes at a completion point (`advance()`,
//!   `fence()`, `barrier()`, `async_copy_fence`, `agg_fence()`, and every
//!   blocking wait but the window's own);
//! * the receiver pops the batch from its inbox **once** and dispatches
//!   the frames in order, so queue, allocation, stats and trace costs are
//!   paid per batch, not per operation;
//! * the reliable/fault layer sees the batch as a single sequenced frame:
//!   a retransmit redelivers the whole batch exactly once, and per-link
//!   FIFO order is preserved.
//!
//! **Back-pressure: the slab is the credit.** A batch that has left and
//! has not been applied is memory the sender still owns: its slab comes
//! home to the sender's [`SlabPool`] only when the receiver (or the
//! reliable layer's retransmit queue) drops it. The pool counts the slabs
//! that are out, and the *window* is the pool's retain cap,
//! `8 * ranks + 8` slabs. A rank has one partial buffer per peer, at most
//! `ranks − 1` of them, so a rank that finds the window full always has
//! at least `7 * ranks + 9` batches in flight for somebody to apply. Two
//! things follow, neither of them a message or a setting:
//!
//! * *who polls* — every buffered call made through the runtime
//!   (`GlobalPtr::{rput_agg, rxor_agg, radd_agg}`, `Ctx::send_handler_agg`)
//!   that sent a batch runs one **receive-only** progress pass before it
//!   returns, so a rank in a pack loop applies its peers' batches at the
//!   rate it produces its own (GASNet's rule: injection polls). The pass
//!   never force-flushes, so where a batch is cut depends on the stream
//!   of operations alone, never on timing. **Handlers may therefore run
//!   inside a buffered call**, as they may inside any blocking call;
//! * *who waits* — a buffered call that starts a slab while the window
//!   is full blocks, serving progress the same receive-only way, until a
//!   slab has come home. In-flight memory is a constant, not the length
//!   of the update loop;
//! * *who does neither* — a thread in the middle of applying a batch,
//!   i.e. a handler frame that makes buffered calls of its own. It holds
//!   its sender's slab until the batch's last frame has run; made to wait
//!   for one of its own, two ranks answering each other's requests would
//!   each hold what the other waits for. So a handler may reply, never
//!   wait to (GASNet's rule again): its frames are packed past the window
//!   if need be — what can arrive to be answered is bounded by the peers'
//!   windows — and since it does not poll either, the frames of a batch
//!   run in the order they were packed.
//!
//! The fabric-level calls in this module ([`Fabric::xor_u64_buffered`]
//! and its siblings, [`Fabric::flush_agg`]) never poll and never block;
//! they *report* — `true` = "the caller should now drive progress" — and
//! the runtime's one hook acts on it. Over a conduit the slab returns as
//! soon as the batch is encoded for the wire, so there the window does
//! not bind (the per-flush pass still drains the conduit's receive
//! queue); a credit frame between processes is future work.
//!
//! Without an [`AggConfig`] installed the layer is zero-cost: every
//! buffered entry point falls through to the direct operation after one
//! untaken branch, and no buffers are allocated.
//!
//! **Consistency:** buffered operations complete at the *next flush
//! point*, not at the call. Mixing buffered updates with direct RMA on
//! the same location without an intervening flush (`fence`/`barrier`)
//! is unordered, exactly like unsynchronized conflicting accesses under
//! the paper's relaxed memory model (§III-F).

use crate::conduit::wire::{self, Cursor, WireError};
use crate::fabric::{AmPayload, Fabric, GlobalAddr};
use crate::rma::{RmaOp, RmwOp, Site};
use crate::Rank;
use rupcxx_trace::EventKind;
use rupcxx_util::sync::SpinMutex;
use rupcxx_util::{Bytes, SlabPool};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Switches the aggregation layer on (`RUPCXX_AGG=on`). It carries no
/// setting: a batch is a full slab, and the sweeps that once set the
/// thresholds said they are not levers (EXPERIMENTS.md "Back-pressure").
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AggConfig;

impl AggConfig {
    /// Aggregation on.
    pub fn new() -> Self {
        AggConfig
    }

    /// Read a config from the `RUPCXX_AGG` environment variable.
    ///
    /// * unset, empty, `off` or `0` — aggregation disabled (`None`);
    /// * `on` or `1` — enabled.
    ///
    /// A malformed value aborts with a clear message, mirroring
    /// `RUPCXX_FAULTS`/`RUPCXX_TRACE`/`RUPCXX_CHECK`.
    pub fn from_env() -> Option<Self> {
        rupcxx_util::env::parse_env("RUPCXX_AGG", "on | off", Self::parse)
    }

    /// Parse an `RUPCXX_AGG` value (see [`AggConfig::from_env`]).
    pub fn parse(raw: &str) -> Result<Option<Self>, String> {
        match raw.trim() {
            "" | "off" | "0" => Ok(None),
            "on" | "1" => Ok(Some(AggConfig)),
            _ => Err("expected on | off (the BYTES,COUNT thresholds are gone: \
                      a batch is a full slab)"
                .into()),
        }
    }
}

/// Largest `data` accepted by [`Fabric::put_buffered`] as a frame; larger
/// puts are not "fine-grained" and go out directly.
pub const AGG_MAX_PUT: usize = 1024;

/// Packed bytes at which a buffer leaves as a batch: one slab, 241 word
/// updates of 17 bytes. A batch costs its receiver an inbox pop, a
/// reference count and a trip through the slab pool's lock whatever it
/// carries, and since the sender polls once per batch it sends, every
/// batch crosses between the cores while it is hot: a full slab amortises
/// that, a quarter-full one does not (EXPERIMENTS.md "Back-pressure").
const SLAB_BYTES: usize = 4096;

/// Headroom reserved beyond [`SLAB_BYTES`] so the flush test (which runs
/// *after* the frame is packed) never forces a slab to grow: the largest
/// frame is a [`AGG_MAX_PUT`]-byte put plus its header.
const AGG_SLACK: usize = AGG_MAX_PUT + 64;

/// One destination's coalescing buffer. `bytes` is a slab on loan
/// from the endpoint's [`SlabPool`], taken lazily on first use and
/// pre-reserved to `SLAB_BYTES + AGG_SLACK` so packing a frame is a pure
/// `extend_from_slice` — no reallocation, ever, on the word-frame path.
#[derive(Default)]
struct AggBuf {
    /// Frames currently packed in `bytes`.
    count: u32,
    /// Packed frames (see [`BatchReader`]).
    bytes: Vec<u8>,
}

/// Per-endpoint aggregation state: one buffer per destination + the slab
/// pool that recycles flushed batch buffers. Allocated only when the
/// fabric has an [`AggConfig`] (the slabs stay unallocated until a
/// destination is first used).
pub(crate) struct AggState {
    /// Every thread of the rank that packs for a destination — the rank's
    /// own, a progress worker replying on its behalf — packs into the one
    /// buffer. Its lock is held for a handful of nanoseconds by (almost
    /// always) a single thread, hence a [`SpinMutex`]: uncontended, about
    /// half a futex mutex's round trip on the per-operation pack path.
    bufs: Box<[SpinMutex<AggBuf>]>,
    /// Set when any destination may hold frames — the cheap gate that
    /// keeps `flush_agg` in the progress engine's hot loop at one relaxed
    /// load when nothing is pending.
    dirty: AtomicBool,
    /// Recycles batch slabs: a flushed buffer travels to the receiver as
    /// pooled [`Bytes`] and its capacity returns here when the last
    /// reader drops — steady state packs and ships without allocating.
    /// Its retain cap is the credit window (see the module doc): with no
    /// more slabs out than the pool keeps, none is ever freed or
    /// allocated after warm-up.
    pool: Arc<SlabPool>,
}

impl AggState {
    pub(crate) fn new(ranks: usize) -> Self {
        AggState {
            bufs: (0..ranks)
                .map(|_| SpinMutex::new(AggBuf::default()))
                .collect(),
            dirty: AtomicBool::new(false),
            // The window (module doc, "Back-pressure").
            pool: SlabPool::new(8 * ranks + 8),
        }
    }

    /// True when no credit is left: as many slabs are out — in partial
    /// buffers, in flight, parked in a peer's inbox — as the window holds.
    #[inline]
    fn window_full(&self) -> bool {
        self.pool.out() >= self.pool.max_idle()
    }
}

/// Tag of a handler frame in a batch; every other tag is an [`RmaOp`]
/// op code (which start at 1).
const TAG_HANDLER: u8 = 0;

/// One unpacked frame of an [`AmPayload::Batch`].
#[derive(Debug, PartialEq, Eq)]
pub enum Frame<'a> {
    /// A registered-handler RPC (dispatched through the runtime's
    /// handler table, like a direct `AmPayload::Handler`).
    Handler {
        /// Registered handler id.
        id: u16,
        /// Packed arguments.
        args: &'a [u8],
    },
    /// A one-sided update of the destination's segment (the buffered
    /// entry points pack xor/add word updates and small puts).
    Rma(RmaOp<'a>),
}

impl Frame<'_> {
    /// Append the frame's packed form (what [`BatchReader`] reads back).
    #[inline(always)]
    fn encode(&self, buf: &mut Vec<u8>) {
        match *self {
            Frame::Handler { id, args } => {
                buf.push(TAG_HANDLER);
                buf.extend_from_slice(&id.to_le_bytes());
                wire::put_bytes(buf, args);
            }
            Frame::Rma(op) => op.encode(buf),
        }
    }
}

/// In-order iterator over the frames packed in a batch payload.
///
/// A batch built in this process is well-formed by construction, so the
/// iterator panics on a malformed one; a batch that arrived over a
/// conduit has been through [`validate_batch`] first.
pub struct BatchReader<'a> {
    cur: Cursor<'a>,
}

impl<'a> BatchReader<'a> {
    /// Iterate the frames of `frames` (an [`AmPayload::Batch`] body).
    pub fn new(frames: &'a [u8]) -> Self {
        BatchReader {
            cur: Cursor::new(frames),
        }
    }

    #[inline]
    fn try_next(&mut self) -> Result<Option<Frame<'a>>, WireError> {
        if self.cur.is_empty() {
            return Ok(None);
        }
        Ok(Some(match self.cur.u8()? {
            TAG_HANDLER => Frame::Handler {
                id: self.cur.u16()?,
                args: self.cur.bytes()?,
            },
            code => Frame::Rma(RmaOp::decode(code, &mut self.cur)?),
        }))
    }
}

impl<'a> Iterator for BatchReader<'a> {
    type Item = Frame<'a>;

    #[inline]
    fn next(&mut self) -> Option<Frame<'a>> {
        self.try_next().expect("malformed batch payload")
    }
}

/// Check a batch that arrived from another process before it is queued
/// for `me`'s progress engine: every frame decodes, and every RMA frame
/// is an update (a get has no way to reply) that fits `me`'s segment.
pub(crate) fn validate_batch(frames: &[u8], me: Rank, seg_bytes: usize) -> Result<(), WireError> {
    let mut reader = BatchReader::new(frames);
    while let Some(frame) = reader.try_next()? {
        if let Frame::Rma(op) = frame {
            op.validate(me, seg_bytes)?;
            if op.is_get() {
                return Err(WireError::OutOfRange);
            }
        }
    }
    Ok(())
}

/// The first handler frame of a batch whose id is not below `registered`
/// (the receiver's handler count), if any: the check [`validate_batch`]
/// cannot make, which the runtime makes before it applies a batch that
/// came off a socket. It lives here because a second user of
/// [`BatchReader`] in the runtime's crate costs the apply loop there its
/// inlining (`gups_agg` −24 %).
pub fn unregistered_handler(frames: &[u8], registered: usize) -> Option<u16> {
    BatchReader::new(frames).find_map(|frame| match frame {
        Frame::Handler { id, .. } if id as usize >= registered => Some(id),
        _ => None,
    })
}

impl Fabric {
    /// Slabs `initiator`'s aggregation layer has out: taken for a partial
    /// buffer or sent as a batch, and not yet dropped by whoever holds
    /// them (0 without aggregation).
    pub fn agg_slabs_out(&self, initiator: Rank) -> usize {
        let agg = &self.endpoints[initiator].agg;
        agg.as_ref().map_or(0, |agg| agg.pool.out())
    }

    /// The most slabs `initiator` may have out before a buffered call made
    /// through the runtime blocks (`None` without aggregation). A constant
    /// of the job: `8 * ranks + 8`.
    pub fn agg_window(&self, initiator: Rank) -> Option<usize> {
        let agg = &self.endpoints[initiator].agg;
        agg.as_ref().map(|agg| agg.pool.max_idle())
    }

    /// True while `initiator` has as many slabs out as its window holds
    /// (never, without aggregation): what a throttled buffered call waits
    /// to see turn false.
    pub fn agg_window_full(&self, initiator: Rank) -> bool {
        let agg = &self.endpoints[initiator].agg;
        agg.as_ref().is_some_and(AggState::window_full)
    }

    /// Pack one frame into `dst`'s buffer, flushing it once it holds a
    /// full slab. Caller guarantees aggregation is on and `dst !=
    /// initiator`. True when the caller should now drive progress: the
    /// call sent a batch, or started a slab with the window full.
    ///
    /// Hot-path cost: one uncontended buffer lock, the
    /// `extend_from_slice` of the frame, and (rarely) a dirty-flag store —
    /// per-op stats are accounted at flush time, batched per batch.
    #[inline(always)] // with `rma_buffered` and `encode`: see `rma.rs`
    fn agg_push(&self, initiator: Rank, dst: Rank, frame: Frame<'_>) -> bool {
        let ep = &self.endpoints[initiator];
        let agg = ep.agg.as_ref().expect("agg_push without aggregation");
        let mut buf = agg.bufs[dst].lock();
        let mut full = false;
        if buf.bytes.capacity() == 0 {
            buf.bytes = agg.pool.take(SLAB_BYTES + AGG_SLACK);
            // The one place the count of slabs out grows, so the one
            // place the window is checked — whoever emptied this
            // buffer (a full slab, `advance()`, a progress thread).
            full = agg.window_full();
        }
        frame.encode(&mut buf.bytes);
        buf.count += 1;
        if buf.count == 1 {
            agg.dirty.store(true, Ordering::Release);
        }
        let flush = buf.bytes.len() >= SLAB_BYTES;
        if flush {
            self.send_batch(initiator, dst, agg, &mut buf);
        }
        flush || full
    }

    /// Send what `buf` — `initiator`'s buffer for `dst`, not empty — holds
    /// as a single [`AmPayload::Batch`]. The slab leaves as pooled
    /// [`Bytes`] — no copy, no shrink — and its capacity returns to the
    /// pool when the last reader (receiver, or the reliable layer's
    /// retransmit copy) drops.
    ///
    /// The caller holds the buffer's lock until the batch is on its link:
    /// of two threads of a rank flushing one destination, the one whose
    /// batch was cut first also sends first, so each thread's frames — and
    /// a direct AM it sends behind them — arrive in the order it made
    /// them. Nothing on the send path packs or flushes.
    fn send_batch(&self, initiator: Rank, dst: Rank, agg: &AggState, buf: &mut AggBuf) {
        let ep = &self.endpoints[initiator];
        let count = std::mem::take(&mut buf.count);
        let frames = Bytes::pooled(std::mem::take(&mut buf.bytes), &agg.pool);
        ep.stats.agg_ops.fetch_add(count as u64, Ordering::Relaxed);
        ep.stats.agg_batches.fetch_add(1, Ordering::Relaxed);
        ep.trace
            .instant(EventKind::Flush, dst as i32, count as u64, 0);
        self.send_am(initiator, dst, AmPayload::Batch { count, frames });
    }

    /// Flush the initiator's buffer for one destination as an
    /// [`AmPayload::Batch`]. Returns whether anything was sent.
    pub fn flush_agg_to(&self, initiator: Rank, dst: Rank) -> bool {
        let ep = &self.endpoints[initiator];
        let Some(agg) = &ep.agg else { return false };
        let mut buf = agg.bufs[dst].lock();
        let pending = buf.count > 0;
        if pending {
            self.send_batch(initiator, dst, agg, &mut buf);
        }
        pending
    }

    /// Force-flush every destination buffer of `initiator`; returns the
    /// number of batches sent. With aggregation off — or nothing buffered
    /// — this is one branch plus one relaxed load.
    pub fn flush_agg(&self, initiator: Rank) -> usize {
        let ep = &self.endpoints[initiator];
        let Some(agg) = &ep.agg else { return 0 };
        if !agg.dirty.load(Ordering::Acquire) {
            return 0;
        }
        // Clear the flag before sweeping: a racing push re-marks it and
        // is picked up by the next advance() at the latest.
        agg.dirty.store(false, Ordering::Release);
        (0..self.endpoints.len())
            .filter(|&dst| self.flush_agg_to(initiator, dst))
            .count()
    }

    /// Buffered registered-handler RPC: packed as a frame when
    /// aggregation is on and `dst` is remote, otherwise a direct
    /// [`Fabric::send_am`].
    ///
    /// Like every buffered call of the fabric this neither polls nor
    /// blocks; it returns whether the caller should now drive progress
    /// (see [`Fabric::xor_u64_buffered`]).
    pub fn am_buffered(&self, initiator: Rank, dst: Rank, id: u16, args: &[u8]) -> bool {
        if self.endpoints[initiator].agg.is_some() && dst != initiator {
            return self.agg_push(initiator, dst, Frame::Handler { id, args });
        }
        self.send_am(
            initiator,
            dst,
            AmPayload::Handler {
                id,
                args: Bytes::copy_from_slice(args),
            },
        );
        false
    }

    /// Pack `op` for its target when the initiator aggregates, the target
    /// is remote and the op is fine-grained — write-through invalidation
    /// happens now, the update at delivery, and the verdict is
    /// [`Fabric::agg_push`]'s — else issue it now through [`Fabric::rma`]
    /// (false). The one body of the three buffered entry points.
    #[inline(always)]
    fn rma_buffered(&self, initiator: Rank, op: &RmaOp<'_>) -> bool {
        let dst = op.addr();
        let buffer = self.endpoints[initiator].agg.is_some()
            && dst.rank() != initiator
            && op.bytes() <= AGG_MAX_PUT;
        if !buffer {
            self.rma(initiator, op, &mut [], None);
            return false;
        }
        self.invalidate_own(initiator, dst, op.cover());
        self.agg_push(initiator, dst.rank(), Frame::Rma(*op))
    }

    /// Buffered remote xor (no fetched result — the update is applied by
    /// the destination's progress engine at delivery).
    ///
    /// Returns true when the caller should now drive progress — the call
    /// sent a batch, or started a slab with the window full (module doc,
    /// "Back-pressure") — which the runtime's buffered entry points hand
    /// to `Ctx::agg_sent`. A caller that packs through the fabric directly
    /// and ignores it gets the unthrottled layer: nothing polls, nothing
    /// blocks, every batch waits in its slab for the next flush point's
    /// drain. False whenever the op went out directly.
    pub fn xor_u64_buffered(&self, initiator: Rank, dst: GlobalAddr, value: u64) -> bool {
        self.rma_buffered(initiator, &RmaOp::rmw(dst, RmwOp::Xor, value, 0))
    }

    /// Buffered remote add (no fetched result); returns as
    /// [`Fabric::xor_u64_buffered`] does.
    pub fn add_u64_buffered(&self, initiator: Rank, dst: GlobalAddr, value: u64) -> bool {
        self.rma_buffered(initiator, &RmaOp::rmw(dst, RmwOp::Add, value, 0))
    }

    /// Buffered small put. Payloads over [`AGG_MAX_PUT`] bytes (or local
    /// / unaggregated ones) go out as a direct one-sided put. Returns as
    /// [`Fabric::xor_u64_buffered`] does.
    pub fn put_buffered(&self, initiator: Rank, dst: GlobalAddr, data: &[u8]) -> bool {
        self.rma_buffered(initiator, &RmaOp::Put { addr: dst, data })
    }

    /// Apply one segment-level frame on `me`'s own segment (the receiver
    /// side of batch dispatch). Returns `false` for [`Frame::Handler`],
    /// which the caller must route through its handler registry.
    ///
    /// `src`/`clock` identify the batch the frame arrived in: the checker
    /// records each applied frame as an access *by the sender* with the
    /// batch's flush-time clock (see [`Fabric::rma_arrived`]).
    pub fn apply_frame(
        &self,
        me: Rank,
        src: Rank,
        clock: Option<&rupcxx_check::Stamp>,
        frame: &Frame<'_>,
    ) -> bool {
        let Frame::Rma(op) = frame else { return false };
        // The packed rank bits assert end-to-end that the frame was packed
        // for this rank's segment.
        debug_assert_eq!(op.addr().rank(), me, "frame for another rank");
        self.rma_arrived(me, src, clock, op, Site::Batch, &mut []);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::{AmMessage, FabricConfig};
    use std::sync::Arc;

    /// Word-update frames (17 bytes) that fill a slab.
    const SLAB_FRAMES: usize = 241;

    fn agg_fabric(ranks: usize) -> Arc<Fabric> {
        Fabric::new(FabricConfig {
            ranks,
            segment_bytes: 4096,
            agg: Some(AggConfig::new()),
            ..FabricConfig::default()
        })
    }

    /// Receiver-side dispatch for tests: pop everything, apply segment
    /// frames, return handler ids in arrival order.
    fn dispatch_all(f: &Fabric, me: Rank) -> Vec<u16> {
        let mut ids = Vec::new();
        for AmMessage {
            src,
            payload,
            clock,
            ..
        } in f.endpoint(me).drain()
        {
            match payload {
                AmPayload::Handler { id, .. } => ids.push(id),
                AmPayload::Batch { frames, count } => {
                    let mut seen = 0;
                    for frame in BatchReader::new(&frames) {
                        seen += 1;
                        if let Frame::Handler { id, .. } = frame {
                            ids.push(id);
                        } else {
                            assert!(f.apply_frame(me, src, clock.as_ref(), &frame));
                        }
                    }
                    assert_eq!(seen, count, "batch count must match its frames");
                }
                AmPayload::Task(_) => panic!("unexpected task payload"),
            }
        }
        ids
    }

    #[test]
    fn parse_env_forms() {
        assert_eq!(AggConfig::parse("off"), Ok(None));
        assert_eq!(AggConfig::parse("0"), Ok(None));
        assert_eq!(AggConfig::parse(""), Ok(None));
        assert_eq!(AggConfig::parse(" on "), Ok(Some(AggConfig::new())));
        assert_eq!(AggConfig::parse("1"), Ok(Some(AggConfig::new())));
        // The thresholds are gone, and the error says what is left.
        for gone in ["4096,64", " 8192 , 32 ", "8192", "many"] {
            let err = AggConfig::parse(gone).expect_err(gone);
            assert!(err.contains("on | off"), "{gone}: {err}");
        }
    }

    #[test]
    fn frames_round_trip_in_order() {
        let xor = RmaOp::rmw(GlobalAddr::new(1, 40), RmwOp::Xor, 0xDEAD, 0);
        let add = RmaOp::rmw(GlobalAddr::new(1, 48), RmwOp::Add, 5, 0);
        let put = RmaOp::Put {
            addr: GlobalAddr::new(1, 64),
            data: &[9; 16],
        };
        let mut buf = Vec::new();
        Frame::Handler {
            id: 7,
            args: &[1, 2, 3],
        }
        .encode(&mut buf);
        xor.encode(&mut buf);
        assert_eq!(buf.len(), 10 + 17, "a word update packs into 17 bytes");
        add.encode(&mut buf);
        put.encode(&mut buf);
        Frame::Handler { id: 8, args: &[] }.encode(&mut buf);
        let got: Vec<Frame<'_>> = BatchReader::new(&buf).collect();
        assert_eq!(
            got,
            vec![
                Frame::Handler {
                    id: 7,
                    args: &[1, 2, 3]
                },
                Frame::Rma(xor),
                Frame::Rma(add),
                Frame::Rma(put),
                Frame::Handler { id: 8, args: &[] },
            ]
        );
        assert_eq!(validate_batch(&buf, 1, 4096), Ok(()));
        assert_eq!(
            validate_batch(&buf, 0, 4096),
            Err(WireError::OutOfRange),
            "packed for rank 1, not rank 0"
        );
        assert_eq!(
            validate_batch(&buf, 1, 72),
            Err(WireError::OutOfRange),
            "the put ends past a 72-byte segment"
        );
        assert_eq!(
            validate_batch(&buf[..buf.len() - 1], 1, 4096),
            Err(WireError::Truncated)
        );
        // A get has nowhere to send its data from inside a batch.
        let mut get = Vec::new();
        RmaOp::Get {
            addr: GlobalAddr::new(1, 0),
            len: 8,
        }
        .encode(&mut get);
        assert_eq!(validate_batch(&get, 1, 4096), Err(WireError::OutOfRange));
    }

    #[test]
    fn default_batch_is_a_full_slab() {
        // 17-byte word frames: the 241st takes the buffer past 4096 bytes,
        // and nothing cuts it shorter.
        let f = agg_fabric(2);
        let sent: Vec<bool> = (0..SLAB_FRAMES)
            .map(|i| f.xor_u64_buffered(0, GlobalAddr::new(1, 8 * (i % 64)), 1 << (i % 64)))
            .collect();
        assert_eq!(sent.iter().filter(|&&s| s).count(), 1);
        assert!(sent[240], "the frame that fills the slab reports it");
        // Exactly one wire message, applied in one dispatch.
        let c = f.endpoint(0).stats.snapshot();
        assert_eq!((c.agg_ops, c.agg_batches, c.ams_sent), (241, 1, 1));
        assert_eq!(f.endpoint(1).pending(), 1);
        assert!(dispatch_all(&f, 1).is_empty());
        for word in 0..64 {
            let hits = (SLAB_FRAMES - word).div_ceil(64);
            let want = if hits % 2 == 1 { 1 << word } else { 0 };
            assert_eq!(f.endpoint(1).segment.load_u64(8 * word), want);
        }
    }

    #[test]
    fn a_slab_of_puts_is_cut_by_bytes_not_frames() {
        // The largest buffered put: the fourth takes the buffer past a
        // slab, and the slack holds it without growing.
        let f = agg_fabric(2);
        let data = [7u8; AGG_MAX_PUT];
        let sent: Vec<bool> = (0..4)
            .map(|_| f.put_buffered(0, GlobalAddr::new(1, 0), &data))
            .collect();
        assert_eq!(sent, [false, false, false, true]);
        let AmPayload::Batch { frames, count } = &f.endpoint(1).drain()[0].payload else {
            panic!("not a batch");
        };
        assert_eq!(*count, 4);
        assert!(frames.len() > SLAB_BYTES && frames.len() <= SLAB_BYTES + AGG_SLACK);
    }

    #[test]
    fn buffered_calls_report_a_sent_batch_and_a_full_window() {
        // The fabric-level calls never poll and never block: they say when
        // a caller should. Nobody drains rank 1 here, so every slab rank 0
        // takes stays out.
        let f = agg_fabric(2);
        let window = f.agg_window(0).expect("aggregation is on");
        assert_eq!(window, 24, "8 * ranks + 8");
        let push = || f.add_u64_buffered(0, GlobalAddr::new(1, 0), 1);
        // Two frames to a batch, cut by an explicit flush point (the frame
        // that fills a slab reports it: `default_batch_is_a_full_slab`).
        for batch in 0..window - 1 {
            assert!(!push() && !push(), "batch {batch}: under the window");
            assert_eq!(f.flush_agg(0), 1);
            assert_eq!(f.agg_slabs_out(0), batch + 1);
            assert!(!f.agg_window_full(0));
        }
        // The window's last slab: taking it is reported at once, while the
        // buffer holds a single frame.
        assert!(push(), "started a slab with the window full");
        assert!(f.agg_window_full(0));
        assert_eq!(f.agg_slabs_out(0), window);
        // A caller that carries on regardless is not stopped (the pinned
        // ledger packs this way) — it is told with every slab it starts.
        assert!(!push() && f.flush_agg(0) == 1);
        assert!(push() && f.agg_slabs_out(0) == window + 1);
        // Applying the batches sends the slabs home: all but the partial
        // buffer's.
        assert!(dispatch_all(&f, 1).is_empty());
        assert_eq!(f.endpoint(1).segment.load_u64(0), 2 * window as u64);
        assert_eq!(f.agg_slabs_out(0), 1);
        assert!(!f.agg_window_full(0));
        assert!(
            !push(),
            "the partial buffer fills on, well under the window"
        );
        // Without aggregation there is no window and nothing to report.
        let plain = Fabric::new(FabricConfig {
            ranks: 2,
            segment_bytes: 4096,
            ..FabricConfig::default()
        });
        assert!(!plain.add_u64_buffered(0, GlobalAddr::new(1, 0), 1));
        assert_eq!((plain.agg_window(0), plain.agg_slabs_out(0)), (None, 0));
        assert!(!plain.agg_window_full(0));
    }

    #[test]
    fn flush_agg_sends_one_batch_for_each_destination() {
        let f = agg_fabric(3);
        f.xor_u64_buffered(0, GlobalAddr::new(1, 0), 3);
        f.add_u64_buffered(0, GlobalAddr::new(2, 8), 4);
        f.put_buffered(0, GlobalAddr::new(2, 16), &[0xAB; 8]);
        assert_eq!(f.endpoint(1).pending(), 0, "short of a slab: nothing sent");
        assert_eq!(f.flush_agg(0), 2, "one batch per buffered destination");
        assert_eq!(f.flush_agg(0), 0, "idempotent once empty");
        assert!(dispatch_all(&f, 1).is_empty());
        assert!(dispatch_all(&f, 2).is_empty());
        assert_eq!(f.endpoint(1).segment.load_u64(0), 3);
        assert_eq!(f.endpoint(2).segment.load_u64(8), 4);
        let mut got = [0u8; 8];
        f.endpoint(2).segment.read_bytes(16, &mut got);
        assert_eq!(got, [0xAB; 8]);
        let c = f.endpoint(0).stats.snapshot();
        assert_eq!((c.agg_ops, c.agg_batches), (3, 2));
    }

    #[test]
    fn two_threads_of_a_rank_share_a_destinations_buffer() {
        // Rank 0's own thread and a second one (a progress worker replying
        // on its behalf) pack for rank 1 at once: thread `t` adds 1, 2, …
        // to word `t`, so the frames show the order they were packed in
        // and the word shows how often they were applied.
        const PER: u64 = 20 * SLAB_FRAMES as u64 + 7;
        let f = agg_fabric(2);
        let start = Arc::new(std::sync::Barrier::new(2));
        let packers: Vec<_> = (0..2)
            .map(|t| {
                let (f, start) = (f.clone(), start.clone());
                std::thread::spawn(move || {
                    start.wait();
                    for i in 1..=PER {
                        f.add_u64_buffered(0, GlobalAddr::new(1, 8 * t), i);
                    }
                })
            })
            .collect();
        for p in packers {
            p.join().unwrap();
        }
        f.flush_agg(0);
        let mut last = [0u64; 2];
        let mut batches = 0;
        for msg in f.endpoint(1).drain() {
            let AmPayload::Batch { frames, .. } = &msg.payload else {
                panic!("not a batch");
            };
            batches += 1;
            for frame in BatchReader::new(frames) {
                let Frame::Rma(RmaOp::Rmw { addr, a, .. }) = frame else {
                    panic!("not a word update: {frame:?}");
                };
                let t = addr.offset() / 8;
                assert_eq!(a, last[t] + 1, "thread {t}'s frames out of order");
                last[t] = a;
                assert!(f.apply_frame(1, msg.src, msg.clock.as_ref(), &frame));
            }
        }
        // Every update exactly once.
        let sums = [0, 8].map(|word| f.endpoint(1).segment.load_u64(word));
        assert_eq!((last, sums), ([PER; 2], [PER * (PER + 1) / 2; 2]));
        // One buffer: every batch but the last is a full slab, where a
        // buffer per thread would leave two partial ones (42 batches).
        let c = f.endpoint(0).stats.snapshot();
        assert_eq!((c.agg_ops, c.agg_batches), (2 * PER, batches));
        assert_eq!(batches, (2 * PER).div_ceil(SLAB_FRAMES as u64));
    }

    #[test]
    fn local_ops_and_oversize_puts_fall_through() {
        let f = agg_fabric(2);
        // Local buffered ops never buffer (they are already "delivered").
        f.xor_u64_buffered(0, GlobalAddr::new(0, 0), 7);
        assert_eq!(f.endpoint(0).segment.load_u64(0), 7);
        // A put over AGG_MAX_PUT is not fine-grained: direct one-sided.
        let big = vec![1u8; AGG_MAX_PUT + 1];
        f.put_buffered(0, GlobalAddr::new(1, 0), &big);
        let c = f.endpoint(0).stats.snapshot();
        assert_eq!(c.agg_ops, 0);
        assert_eq!(c.local_ops, 1);
        assert_eq!(c.puts, 1);
        assert_eq!(c.put_bytes, big.len() as u64);
    }

    #[test]
    fn disabled_layer_falls_through_with_identical_counts() {
        let plain = Fabric::new(FabricConfig {
            ranks: 2,
            segment_bytes: 4096,
            ..FabricConfig::default()
        });
        assert!(plain.endpoint(0).agg.is_none());
        plain.xor_u64_buffered(0, GlobalAddr::new(1, 0), 9);
        plain.add_u64_buffered(0, GlobalAddr::new(1, 8), 2);
        plain.put_buffered(0, GlobalAddr::new(1, 16), &[1, 2, 3]);
        plain.am_buffered(0, 1, 3, &[4, 5]);
        assert_eq!(plain.flush_agg(0), 0);
        let c = plain.endpoint(0).stats.snapshot();
        // Exactly the direct-path counts: 2 word updates + 1 put + 1 AM.
        assert_eq!((c.agg_ops, c.agg_batches), (0, 0));
        assert_eq!(c.puts, 3);
        assert_eq!(c.ams_sent, 1);
        assert_eq!(plain.endpoint(1).segment.load_u64(0), 9);
        assert_eq!(plain.endpoint(1).segment.load_u64(8), 2);
    }

    #[test]
    fn direct_am_flushes_destination_buffer_first() {
        // Per-link FIFO across the layers: frames buffered before a
        // direct AM must be delivered before it.
        let f = agg_fabric(2);
        f.am_buffered(0, 1, 10, &[]);
        f.am_buffered(0, 1, 11, &[]);
        f.send_am(
            0,
            1,
            AmPayload::Handler {
                id: 12,
                args: Bytes::new(),
            },
        );
        assert_eq!(dispatch_all(&f, 1), vec![10, 11, 12]);
        let c = f.endpoint(0).stats.snapshot();
        assert_eq!(c.agg_batches, 1, "the direct send forced the flush");
        assert_eq!(c.ams_sent, 2, "one batch + one direct AM");
    }

    #[test]
    fn batch_is_one_reliable_frame_under_total_duplication() {
        // Every wire frame is duplicated: the dedup window must discard
        // the duplicate *batch* so its updates apply exactly once.
        let f = Fabric::new(FabricConfig {
            ranks: 2,
            segment_bytes: 4096,
            faults: Some(crate::faults::FaultPlan::new(3).dup(1.0)),
            agg: Some(AggConfig::new()),
            ..FabricConfig::default()
        });
        for _ in 0..8 {
            f.add_u64_buffered(0, GlobalAddr::new(1, 0), 1);
        }
        assert_eq!(f.flush_agg(0), 1);
        for _ in 0..1000 {
            f.pump_incoming(1);
            assert!(dispatch_all(&f, 1).is_empty());
            if f.links_quiescent(1) && f.endpoint(1).pending() == 0 {
                break;
            }
        }
        assert_eq!(f.endpoint(1).segment.load_u64(0), 8, "exactly once");
        let c = f.total_counts();
        assert_eq!(c.agg_batches, 1);
        assert_eq!(c.dup_arrivals, 1, "one duplicate of the one batch");
    }
}
