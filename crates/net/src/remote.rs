//! Multi-process fabric: the glue between the in-process [`Fabric`] API
//! and a [`Conduit`](crate::conduit::Conduit).
//!
//! With `FabricConfig::remote` set, this OS process hosts exactly one
//! rank; the other endpoints are zero-sized stubs (any accidental direct
//! access to a stub segment panics — a built-in detector for layering
//! violations). Only the last hop of an operation differs from the
//! in-process fabric — "touch the peer's memory / push to the peer's
//! inbox" becomes wire frames (see [`crate::conduit::wire`]):
//!
//! * every one-sided op is one synchronous token-matched `Rma`/`Resp`
//!   round trip ([`Fabric::round_trip`], the out-of-process arm of
//!   [`Fabric::rma`]'s hop), preserving the blocking RMA semantics;
//! * AMs are re-assembled on the receiving side and then fed through
//!   *exactly* the same delivery tail as a local send — including the
//!   reliable layer's fate draw (`am_transmit`), so fault injection and
//!   retransmission wrap any conduit unchanged;
//! * teardown quiescence is an explicit FIN/ack handshake per link,
//!   carrying the sender's data-frame count (per-link FIFO makes the
//!   count checkable on arrival).
//!
//! A [`ConduitEvent::Closed`] for a peer that has not completed its FIN
//! handshake is a genuine failure domain, and so is a frame that does
//! not decode or does not fit this rank's segment (the bytes come from
//! another process and are not trusted): both are classified through
//! the same `mark_unreachable` funnel the reliable layer uses, so a
//! killed or corrupted peer surfaces as a [`PeerUnreachable`] panic with
//! a flight-recorder dump instead of a hang or an abort of this rank.

use crate::aggregate::validate_batch;
use crate::conduit::wire::{self, WireError, WireFrame};
use crate::conduit::{self, Conduit, ConduitEvent, RemoteConfig};
use crate::fabric::{AmMessage, AmPayload, Fabric};
use crate::reliable::PeerUnreachable;
use crate::rma::{RmaOp, Site};
use crate::Rank;
use rupcxx_util::sync::Mutex;
use rupcxx_util::Bytes;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Abandon a blocked reply wait after this long with no conduit progress
/// (backstop against protocol bugs; genuine peer death is classified via
/// `Closed` events or the reliable layer long before this fires).
const REPLY_STALL_TIMEOUT: Duration = Duration::from_secs(120);

/// A `Resp` frame — (ok, val, data) — held for the request waiting on its
/// token.
type Reply = (bool, u64, Vec<u8>);

/// Per-process state for a conduit-backed fabric.
pub(crate) struct RemoteFabric {
    pub(crate) conduit: Box<dyn Conduit>,
    /// The one rank this process hosts.
    pub(crate) me: Rank,
    next_token: AtomicU64,
    replies: Mutex<HashMap<u64, Reply>>,
    /// Per-destination encode scratch: reused across frames so the
    /// steady-state send path performs no allocation.
    scratch: Box<[Mutex<Vec<u8>>]>,
    /// Data frames sent per link (carried by our FIN).
    data_sent: Box<[AtomicU64]>,
    /// Data frames received per link (checked against the peer's FIN).
    data_recvd: Box<[AtomicU64]>,
    fin_recvd: Box<[AtomicBool]>,
    fin_acked: Box<[AtomicBool]>,
    /// Serializes frame dispatch: per-link FIFO must survive the rank
    /// thread and a progress thread pumping concurrently.
    pump_lock: Mutex<()>,
}

impl RemoteFabric {
    pub(crate) fn new(cfg: &RemoteConfig, ranks: usize) -> RemoteFabric {
        let conduit = conduit::build(&cfg.conduit, cfg.my_rank, ranks);
        RemoteFabric {
            conduit,
            me: cfg.my_rank,
            next_token: AtomicU64::new(1),
            replies: Mutex::new(HashMap::new()),
            scratch: (0..ranks).map(|_| Mutex::new(Vec::new())).collect(),
            data_sent: (0..ranks).map(|_| AtomicU64::new(0)).collect(),
            data_recvd: (0..ranks).map(|_| AtomicU64::new(0)).collect(),
            fin_recvd: (0..ranks).map(|_| AtomicBool::new(false)).collect(),
            fin_acked: (0..ranks).map(|_| AtomicBool::new(false)).collect(),
            pump_lock: Mutex::new(()),
        }
    }

    /// Encode one frame into the link's scratch buffer and send it.
    fn send_encoded(&self, dst: Rank, enc: impl FnOnce(&mut Vec<u8>)) {
        let mut buf = self.scratch[dst].lock();
        enc(&mut buf);
        if wire::is_data_frame(&buf) {
            self.data_sent[dst].fetch_add(1, Ordering::Relaxed);
        }
        self.conduit.send(dst, &buf);
    }
}

impl Fabric {
    /// True when this fabric reaches its peers through a conduit (one
    /// rank per OS process) rather than in-process endpoints.
    pub fn is_remote(&self) -> bool {
        self.remote.is_some()
    }

    /// The ranks whose memory and event stream live in this process: all
    /// of them in-process, the one hosted rank over a conduit.
    pub fn hosted_ranks(&self) -> std::ops::Range<Rank> {
        match &self.remote {
            Some(r) => r.me..r.me + 1,
            None => 0..self.endpoints.len(),
        }
    }

    /// The conduit backend name, if a conduit is installed.
    pub fn conduit_name(&self) -> Option<&'static str> {
        self.remote.as_ref().map(|r| r.conduit.name())
    }

    /// The remote state when `target` lives in another process.
    #[inline]
    pub(crate) fn remote_to(&self, target: Rank) -> Option<&RemoteFabric> {
        match &self.remote {
            Some(r) if r.me != target => Some(r),
            _ => None,
        }
    }

    /// Block until `peer`'s reply for `token` arrives and copy its data
    /// to `out`, serving incoming conduit traffic while spinning (two
    /// ranks mid-RMA into each other must each answer the other's
    /// request). A reply whose data is not `out.len()` long fails the link.
    fn wait_reply(&self, r: &RemoteFabric, peer: Rank, token: u64, out: &mut [u8]) -> (bool, u64) {
        let mut last_progress = Instant::now();
        let mut spins = 0u32;
        loop {
            let reply = r.replies.lock().remove(&token);
            match reply {
                Some((ok, val, data)) if data.len() == out.len() => {
                    out.copy_from_slice(&data);
                    return (ok, val);
                }
                Some(_) => self.link_failed(r, peer, &WireError::OutOfRange),
                None => {}
            }
            if self.pump_conduit(r.me) > 0 {
                last_progress = Instant::now();
                continue;
            }
            if self.has_failed() {
                let detail = self.failure().expect("failed without detail");
                panic!("{detail}");
            }
            assert!(
                last_progress.elapsed() < REPLY_STALL_TIMEOUT,
                "conduit reply stalled: rank {} waiting on token {token}",
                r.me
            );
            spins += 1;
            if spins >= 64 {
                spins = 0;
                std::thread::yield_now();
            }
        }
    }

    /// The out-of-process hop of [`Fabric::rma`] (prologue already ran):
    /// one `Rma` frame carrying the op and the initiator's clock stamp —
    /// so the target can run the same `frame_access` race check it runs
    /// for batched frames — then the matching `Resp`.
    pub(crate) fn round_trip(
        &self,
        r: &RemoteFabric,
        op: &RmaOp<'_>,
        out: &mut [u8],
    ) -> (bool, u64) {
        let (addr, cover) = (op.addr(), op.cover());
        // Mirror the segment's own panic for local ops: the initiator
        // should fail, not the (innocent) target process.
        assert!(
            addr.offset() + cover <= self.seg_bytes,
            "{}: out of bounds: offset {} + len {cover} > segment {}",
            op.label(Site::Initiator),
            addr.offset(),
            self.seg_bytes
        );
        let token = r.next_token.fetch_add(1, Ordering::Relaxed);
        let stamp = self.check.as_ref().map(|ck| ck.send_stamp(r.me));
        r.send_encoded(addr.rank(), |b| {
            wire::encode_rma(b, stamp.as_ref(), token, op)
        });
        self.wait_reply(r, addr.rank(), token, out)
    }

    /// Remote AM tail (all of `send_am`'s prologue — aggregation
    /// pre-flush, counters, trace, clock/span attach — already ran).
    pub(crate) fn remote_send_am(&self, r: &RemoteFabric, dst: Rank, msg: AmMessage) {
        let (clock, prof) = (msg.clock.as_ref(), msg.prof.as_ref());
        match &msg.payload {
            AmPayload::Handler { id, args } => {
                r.send_encoded(dst, |b| wire::encode_am_handler(b, clock, prof, *id, args))
            }
            AmPayload::Batch { frames, count } => r.send_encoded(dst, |b| {
                wire::encode_am_batch(b, clock, prof, *count, frames)
            }),
            AmPayload::Task(_) => panic!(
                "closure AMs cannot cross process boundaries: register a handler \
                 (send_handler) instead of sending a boxed task to rank {dst}"
            ),
        }
    }

    /// Drain and dispatch pending conduit events. Returns the number of
    /// events processed (0 without a conduit, or when another thread is
    /// already pumping — dispatch is serialized to keep per-link FIFO).
    pub fn pump_conduit(&self, me: Rank) -> usize {
        let Some(r) = &self.remote else { return 0 };
        debug_assert_eq!(me, r.me, "pump_conduit from a stub rank");
        let Some(_guard) = r.pump_lock.try_lock() else {
            return 0;
        };
        let mut work = 0;
        while let Some(ev) = r.conduit.try_recv() {
            work += 1;
            match ev {
                ConduitEvent::Frame(src, frame) => {
                    if let Err(e) = self.dispatch_frame(r, src, &frame) {
                        self.link_failed(r, src, &e);
                    }
                }
                // A closure after the peer's FIN is a clean goodbye;
                // before it, the peer died mid-job. Either way it can no
                // longer ack our FIN.
                ConduitEvent::Closed(src) if r.fin_recvd[src].load(Ordering::Acquire) => {
                    r.fin_acked[src].store(true, Ordering::Release);
                }
                ConduitEvent::Closed(src) => self.link_failed(r, src, &"closed before FIN"),
            }
        }
        work
    }

    /// Classify the link to `peer` as failed — it closed mid-job, or
    /// delivered bytes this rank will not act on — through the reliable
    /// layer's funnel: blocked waits panic with the report.
    fn link_failed(&self, r: &RemoteFabric, peer: Rank, why: &dyn std::fmt::Display) {
        let me = r.me;
        eprintln!("rupcxx: rank {me}: conduit link to rank {peer} failed: {why}");
        self.mark_unreachable(PeerUnreachable {
            src: r.me,
            dst: peer,
            seq: 0,
            attempts: 0,
        });
        r.fin_acked[peer].store(true, Ordering::Release);
    }

    /// Refuse a message `me` received from `src`: it decoded, but names
    /// something `me` does not have (a handler id, a reply token) or its
    /// arguments do not unpack. From another process that is a failed
    /// link like any frame that does not decode, and the caller drops the
    /// message; from a rank of this process it is a program bug.
    ///
    /// # Panics
    /// Panics when `src` lives in this process.
    pub fn refuse_message(&self, me: Rank, src: Rank, why: &dyn std::fmt::Display) {
        match self.remote_to(src) {
            Some(r) => self.link_failed(r, src, why),
            None => panic!("rank {me}: message from rank {src} refused: {why}"),
        }
    }

    /// Decode and execute one frame from `src`. Nothing in it is trusted
    /// until checked against this rank's own state; an `Err` leaves the
    /// segment and the inbox as they were.
    fn dispatch_frame(&self, r: &RemoteFabric, src: Rank, frame: &[u8]) -> Result<(), WireError> {
        let me = r.me;
        if wire::is_data_frame(frame) {
            r.data_recvd[src].fetch_add(1, Ordering::Relaxed);
        }
        let seg_bytes = self.endpoints[me].segment.len();
        let deliver = |clock, prof, payload| {
            let msg = AmMessage {
                src,
                payload,
                clock,
                prof,
            };
            self.deliver_arrival(src, me, msg)
        };
        match wire::decode(frame)? {
            WireFrame::AmHandler {
                clock,
                prof,
                id,
                args,
            } => {
                let args = Bytes::from(args.to_vec());
                deliver(clock, prof, AmPayload::Handler { id, args })
            }
            WireFrame::AmBatch {
                clock,
                prof,
                count,
                frames,
            } => {
                validate_batch(frames, me, seg_bytes)?;
                let frames = Bytes::from(frames.to_vec());
                deliver(clock, prof, AmPayload::Batch { frames, count })
            }
            WireFrame::Rma { stamp, token, op } => {
                op.validate(me, seg_bytes)?;
                let mut data = vec![0u8; if op.is_get() { op.bytes() } else { 0 }];
                let (ok, val) =
                    self.rma_arrived(me, src, stamp.as_ref(), &op, Site::Wire, &mut data);
                r.send_encoded(src, |b| wire::encode_resp(b, token, ok, val, &data));
            }
            WireFrame::Resp {
                token,
                ok,
                val,
                data,
            } => {
                r.replies.lock().insert(token, (ok, val, data.to_vec()));
            }
            WireFrame::Fin { frames } => {
                // Per-link FIFO makes the count checkable on arrival.
                if r.data_recvd[src].load(Ordering::Relaxed) != frames {
                    return Err(WireError::FinCount);
                }
                r.fin_recvd[src].store(true, Ordering::Release);
                r.send_encoded(src, wire::encode_fin_ack);
            }
            WireFrame::FinAck => {
                r.fin_acked[src].store(true, Ordering::Release);
            }
        }
        Ok(())
    }

    /// The delivery tail shared by local sends and conduit arrivals: the
    /// reliable layer's fate draw, the controlled scheduler, or a direct
    /// inbox push. Feeding decoded arrivals through `am_transmit` is what
    /// lets simulated faults wrap a *real* transport unchanged — per-link
    /// FIFO on the conduit means arrival order equals send order, so the
    /// deterministic fate sequence matches the loopback run exactly.
    pub(crate) fn deliver_arrival(&self, src: Rank, me: Rank, msg: AmMessage) {
        if self.faults.is_some() && src != me {
            self.am_transmit(src, me, msg);
        } else if self.sched.is_some() && src != me {
            self.sched_park(src, me, msg);
        } else {
            self.endpoints[me].inbox.push(msg);
        }
    }

    /// Conduit-level teardown handshake (the out-of-process replacement
    /// for "peek at every peer's queue depth"): flush each link, announce
    /// our per-link data-frame count with a FIN, serve incoming traffic
    /// until every peer has both FIN'd us and acked our FIN, then shut
    /// the transport down. Call only after global completion (all
    /// application sends done and links quiescent).
    pub fn conduit_teardown(&self, me: Rank) {
        let Some(r) = &self.remote else { return };
        debug_assert_eq!(me, r.me);
        for dst in 0..self.ranks() {
            if dst == me {
                continue;
            }
            r.conduit.flush(dst);
            let sent = r.data_sent[dst].load(Ordering::Relaxed);
            r.send_encoded(dst, |b| wire::encode_fin(b, sent));
        }
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            self.pump_conduit(me);
            let done = (0..self.ranks()).filter(|&p| p != me).all(|p| {
                r.fin_recvd[p].load(Ordering::Acquire) && r.fin_acked[p].load(Ordering::Acquire)
            });
            if done || self.has_failed() {
                break;
            }
            if Instant::now() > deadline {
                eprintln!("rupcxx: conduit teardown timed out waiting for FIN handshake");
                break;
            }
            std::thread::yield_now();
        }
        r.conduit.shutdown();
    }
}
