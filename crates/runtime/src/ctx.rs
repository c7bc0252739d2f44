//! The per-rank execution context and progress engine.

use crate::alloc::OutOfSegmentMemory;
use crate::shared::Shared;
use rupcxx_check::WaitInfo;
use rupcxx_net::{AmMessage, AmPayload, Counter, Fabric, GlobalAddr, Rank, TaskFn};
use rupcxx_trace::{EventKind, RankTrace, WaitConstruct};
use rupcxx_util::Bytes;
use std::any::Any;
use std::cell::Cell;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Empty polls [`Ctx::wait_until`] makes before its first `yield_now`:
/// about one loopback round trip (~2 µs at ~20 ns an idle poll plus the
/// `spin_loop` hint), so a rank waiting for a reply meets it in user space
/// instead of inside `sched_yield`.
const SPIN_POLLS: u32 = 64;

/// Consecutive fruitless yields between two deadlock scans of a blocked
/// [`Ctx::wait_until`] (checker's deadlock pass only). Counted in yields,
/// not polls, so the scan's cadence in wall time does not depend on how
/// long the wait spins first.
const SCAN_YIELDS: u32 = 2048;

thread_local! {
    /// Batches this thread is in the middle of applying (more than one
    /// when a handler frame blocks and its wait applies another): each is
    /// a peer's aggregation slab that cannot go home before its last
    /// frame has run. While it is nonzero [`Ctx::agg_sent`] drives nothing —
    /// a thread that holds a peer's credit must never wait for one of its
    /// own, or two ranks answering each other's floods each end up
    /// holding what the other waits for (GASNet's rule: a handler may
    /// reply, it may not wait to).
    static APPLYING: Cell<u32> = const { Cell::new(0) };
}

thread_local! {
    /// Whether this thread is running an incoming message's task or
    /// handler ([`Ctx::execute`]). A buffered call made from there is a
    /// *reply*: nothing says the thread that packed it will reach a flush
    /// point of its own — it may be a progress worker, or the rank's own
    /// thread on its way out of its last wait — so [`Ctx::agg_sent`]
    /// leaves word for the worker (`RankState::replies_buffered`).
    static SERVING: Cell<bool> = const { Cell::new(false) };
}

/// Marks the calling thread as applying a batch until dropped.
struct Applying;

impl Applying {
    fn begin() -> Self {
        APPLYING.with(|n| n.set(n.get() + 1));
        Applying
    }
}

impl Drop for Applying {
    fn drop(&mut self) {
        APPLYING.with(|n| n.set(n.get() - 1));
    }
}

/// The recorder's construct for a wait (the checker takes the descriptor
/// as it is).
fn construct(wait: WaitInfo) -> WaitConstruct {
    match wait {
        WaitInfo::Barrier { .. } => WaitConstruct::Barrier,
        WaitInfo::Collective { .. } => WaitConstruct::Collective,
        WaitInfo::Fence => WaitConstruct::Fence,
        WaitInfo::Event { .. } => WaitConstruct::EventWait,
        WaitInfo::Future => WaitConstruct::FutureWait,
        WaitInfo::Finish => WaitConstruct::FinishWait,
        WaitInfo::Lock { .. } => WaitConstruct::LockAcquire,
        WaitInfo::Request => WaitConstruct::Request,
        WaitInfo::AggWindow { .. } => WaitConstruct::AggWindow,
    }
}

/// The SPMD context handed to each rank's closure: identifies the rank and
/// gives access to communication, progress, memory and synchronization.
///
/// `Ctx` is cheap to clone (a rank id plus an `Arc`).
#[derive(Clone)]
pub struct Ctx {
    rank: Rank,
    shared: Arc<Shared>,
}

impl Ctx {
    /// Build a context for `rank` (used by the launcher and by incoming-task
    /// trampolines).
    pub fn new(rank: Rank, shared: Arc<Shared>) -> Self {
        assert!(rank < shared.ranks(), "rank {rank} out of range");
        Ctx { rank, shared }
    }

    /// This rank's id — the paper's `MYTHREAD` / `myrank()`.
    #[inline]
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// Total number of ranks — the paper's `THREADS` / `ranks()`.
    #[inline]
    pub fn ranks(&self) -> usize {
        self.shared.ranks()
    }

    /// The communication fabric.
    #[inline]
    pub fn fabric(&self) -> &Fabric {
        &self.shared.fabric
    }

    /// The job-wide shared state.
    #[inline]
    pub fn shared(&self) -> &Arc<Shared> {
        &self.shared
    }

    /// This rank's recorder (disabled unless the job was launched with
    /// `RUPCXX_TRACE` or `RUPCXX_PROF` configured — see `rupcxx-trace`).
    #[inline]
    pub fn trace(&self) -> &RankTrace {
        &self.shared.fabric.endpoint(self.rank).trace
    }

    /// Drive the progress engine: drain this rank's active-message inbox,
    /// executing each incoming task/handler. Returns the number of messages
    /// processed. This is the paper's `advance()` (§IV).
    ///
    /// First it asks the fabric to move along what is on its way here
    /// ([`rupcxx_net::Fabric::pump_incoming`]: conduit frames, held and
    /// lost frames under fault injection, what a schedule allows); that
    /// work counts toward the return value so spinning waiters see
    /// progress.
    pub fn advance(&self) -> usize {
        // Force out any partially filled aggregation buffers first (a
        // single relaxed load when nothing is buffered), so a rank that
        // blocks in `wait_until` cannot strand ops a peer is waiting on.
        let flushed = self.shared.fabric.flush_agg(self.rank);
        self.poll() + flushed
    }

    /// The receive half of [`Ctx::advance`]: pump what is on its way to
    /// this rank and run what has arrived. It sends nothing of this
    /// rank's own — in particular it leaves partial aggregation buffers
    /// alone — which is what lets the aggregation hook
    /// ([`Ctx::agg_sent`]) run it between two buffered calls without
    /// changing where the next batch is cut.
    ///
    /// A pass that ran something ends by sending the `finish`
    /// acknowledgements it ran up (`finish.rs`); an idle one does not look.
    #[inline(always)] // `advance()` is this plus the flush, not a call more
    fn poll(&self) -> usize {
        let pumped = self.shared.fabric.pump_incoming(self.rank);
        let ep = self.shared.fabric.endpoint(self.rank);
        // A traced run samples the inbox depth, wraps each message in an
        // `am_handle` span and the whole working drain in an `advance`
        // span (`bytes` = messages processed); untraced, `start` and
        // `span` are one untaken branch each.
        let trace = &ep.trace;
        let traced = trace.ops_enabled();
        let depth = if traced { ep.pending() as u64 } else { 0 };
        let t0 = trace.start();
        let mut ran = 0usize;
        while let Some(msg) = ep.try_recv() {
            let src = msg.src;
            let h0 = trace.start();
            self.execute(msg);
            trace.span(EventKind::AmHandle, src as i32, 0, h0);
            ran += 1;
        }
        if ran > 0 {
            trace.span(EventKind::Advance, -1, ran as u64, t0);
            self.flush_finish_acks();
        }
        if traced {
            trace.poll(depth, ran as u64);
        }
        ran + pumped
    }

    /// One pass of a `progress_thread` worker (concurrent mode, paper
    /// §IV): the receive half, like [`Ctx::agg_sent`]'s. The worker runs
    /// beside its rank's own thread, so it must not do what
    /// [`Ctx::advance`] does first — force-flush the rank's partial
    /// aggregation buffers — or a buffer the rank is packing is cut a few
    /// frames long every time the two run side by side. It flushes only
    /// when a pass ran nothing, and only if a task or handler of this rank
    /// — run by the worker or by the rank's own thread — has made a
    /// buffered call since the last such flush: that reply has nobody
    /// else to send it (the rank may be computing, or spinning outside the
    /// runtime), while what the rank's own code buffers leaves at the
    /// rank's own flush points, as it does without a worker.
    pub(crate) fn serve(&self) -> usize {
        // Marked before the pass pops anything, cleared once everything it
        // popped has run: what `Ctx::quiet` reads after the queues.
        let in_pass = &self.shared.own[self.rank].worker_in_pass;
        in_pass.store(true, Ordering::Relaxed);
        let n = self.poll();
        in_pass.store(false, Ordering::Release);
        let replies = &self.shared.own[self.rank].replies_buffered;
        // The swap (an idle pass that finds no mark pays only the load)
        // takes the mark it clears: acquiring it orders the flush after
        // the packing of every reply marked so far, and a reply marked
        // later leaves the mark set for the next idle pass.
        if n == 0 && replies.load(Ordering::Relaxed) && replies.swap(false, Ordering::AcqRel) {
            return self.agg_flush();
        }
        n
    }

    /// True when nothing is on its way to `rank`: its inbox is empty, its
    /// incoming links hold nothing, and no progress worker of its is in
    /// the middle of a pass — a message a worker has popped and is still
    /// running is in neither queue. What `agg_fence`, the teardown drain
    /// and the deadlock scan take as "everything sent here has run".
    ///
    /// The order matters: the queues first, the worker's mark last. A
    /// worker marks, then pops (the inbox publishes its length with
    /// Release, `pending()` reads it with Acquire), so a reader that finds
    /// the queue empty *because* a pass emptied it also finds the mark, or
    /// finds it cleared after the pass ran what it took. Read the other
    /// way round, a worker that marks and pops between the two reads
    /// slips through.
    pub(crate) fn quiet(&self, rank: Rank) -> bool {
        let fabric = &self.shared.fabric;
        fabric.endpoint(rank).pending() == 0
            && fabric.links_quiescent(rank)
            && !self.shared.own[rank].worker_in_pass.load(Ordering::Acquire)
    }

    /// Run one incoming active message.
    #[inline]
    fn execute(&self, msg: AmMessage) {
        let AmMessage {
            src,
            payload,
            clock,
            prof,
        } = msg;
        // The checker's AM happens-before edge: everything this rank does
        // from here on is ordered after the sender's send-time snapshot.
        // Barriers, collectives, finish acknowledgements and async
        // completions are all AMs, so this one join covers them all.
        if let (Some(ck), Some(stamp)) = (self.shared.fabric.checker(), &clock) {
            ck.join(self.rank, stamp);
        }
        // The causal join: this delivery is tied to the span's injection
        // on the sending rank (a batch joins once per batch — the batch
        // is the wire-level causal unit).
        if let Some(span) = prof {
            let origin = span.origin() as i32;
            self.trace()
                .instant(EventKind::AmRecv, origin, span.inject_ns, span.id);
        }
        let nested = SERVING.with(|s| s.replace(true));
        match payload {
            // `self` is the target rank's context: the task borrows it
            // rather than building (and reference-counting) one of its own.
            AmPayload::Task(task) => task.run(self),
            AmPayload::Handler { id, args } => match self.shared.handlers.get(id) {
                Some(handler) => handler(self, src, args),
                None => self.unknown_handler(src, id),
            },
            // Frames off a socket: every handler id is looked up before the
            // first frame is applied, so a batch that is refused leaves the
            // segment as it was.
            AmPayload::Batch { frames, .. }
                if self.shared.fabric.is_remote() && self.names_unknown_handler(src, &frames) => {}
            AmPayload::Batch { frames, .. } => {
                // One inbox pop carries many logical ops, run in the order
                // the sender buffered them.
                let _holding_the_senders_slab = Applying::begin();
                let fabric = &self.shared.fabric;
                fabric.apply_batch(
                    self.rank,
                    src,
                    clock.as_ref(),
                    &frames,
                    |id, args| match self.shared.handlers.get(id) {
                        Some(handler) => handler(self, src, args),
                        None => self.unknown_handler(src, id),
                    },
                );
            }
        }
        SERVING.with(|s| s.set(nested));
    }

    /// A message from `src` names a handler nobody registered. Between
    /// processes those are bytes off a socket: the link to `src` is
    /// classified failed, as for a frame that does not decode, and the
    /// caller drops the message; within one process it is a bug of this
    /// program and panics (`Fabric::refuse_message`).
    #[cold]
    fn unknown_handler(&self, src: Rank, id: crate::HandlerId) {
        let registered = self.shared.handlers.len();
        let why = format_args!("handler id {id} of {registered}");
        self.shared.fabric.refuse_message(self.rank, src, &why);
    }

    /// Whether a batch from `src` holds a handler frame for an id nobody
    /// registered — refused here, if so.
    #[cold]
    fn names_unknown_handler(&self, src: Rank, frames: &[u8]) -> bool {
        let registered = self.shared.handlers.len();
        let unknown = rupcxx_net::aggregate::unregistered_handler(frames, registered);
        unknown
            .inspect(|&id| self.unknown_handler(src, id))
            .is_some()
    }

    /// Spin on `cond`, driving progress while waiting. All blocking
    /// operations in the runtime funnel through here so that a waiting rank
    /// keeps serving incoming active messages (required for deadlock
    /// freedom, as in GASNet polling mode).
    ///
    /// Every blocking construct — barriers, events, futures, `finish` —
    /// waits through this loop, so this is also where a fabric failure
    /// surfaces: if fault injection declares a peer unreachable, the wait
    /// panics with the `PeerUnreachable` report instead of spinning on a
    /// condition that can never become true.
    ///
    /// # Panics
    /// Panics when the fabric has recorded a delivery failure (fault
    /// injection only; see `rupcxx_net::PeerUnreachable`).
    /// It is also where the deadlock checker acts: deeply idle waits
    /// trigger its wait-for scan, and a confirmed deadlock panics the
    /// blocked rank with the finding (mirroring `PeerUnreachable`).
    pub fn wait_until(&self, cond: impl FnMut() -> bool) {
        self.wait_loop(true, cond);
    }

    /// [`Ctx::wait_until`]'s loop. `flush` = drive progress with
    /// [`Ctx::advance`], which force-flushes this rank's partial
    /// aggregation buffers on every pass — what every wait wants but the
    /// aggregation window's, which serves the receive half alone
    /// ([`Ctx::poll`]).
    #[inline]
    fn wait_loop(&self, flush: bool, mut cond: impl FnMut() -> bool) {
        // The caller may be a task in the middle of a progress pass: what
        // the pass has run up in `finish` acknowledgements leaves before
        // this wait spins, not after it (one relaxed load otherwise).
        self.flush_finish_acks();
        let mut idle_polls = 0u32;
        let mut yields = 0u32;
        loop {
            if self.shared.fabric.has_failed() {
                // Dump the flight recorder before dying (a no-op if
                // `mark_unreachable` already dumped, or nothing records).
                self.shared.fabric.dump_flight("peer unreachable");
                match self.shared.fabric.failure() {
                    Some(e) => panic!("{e}"),
                    None => panic!("fabric failed: peer unreachable"),
                }
            }
            if let Some(ck) = self.shared.fabric.checker() {
                if ck.is_aborted() {
                    let m = ck
                        .abort_message()
                        .unwrap_or_else(|| "rupcxx-check: deadlock detected".to_string());
                    self.shared.fabric.dump_flight(&m);
                    panic!("{m}");
                }
                // The deadlock scan convicts only ranks that have looked
                // at their condition again since it first saw them wait.
                ck.wait_polled(self.rank);
            }
            if cond() {
                return;
            }
            let progressed = if flush { self.advance() } else { self.poll() };
            if progressed > 0 {
                idle_polls = 0;
                yields = 0;
                continue;
            }
            // Nothing arrived. What a rank waits for is most often a reply
            // one round trip away, so poll for about that long before
            // giving the core up; a wait that outlasts it yields on every
            // empty poll, so ranks that share a core still take turns.
            if idle_polls < SPIN_POLLS {
                idle_polls += 1;
                std::hint::spin_loop();
                continue;
            }
            std::thread::yield_now();
            yields += 1;
            // Deep idle with the deadlock pass on: run the wait-for scan,
            // told whether nothing is queued, in flight or being run
            // anywhere — a scan while traffic exists confirms nothing.
            if yields.is_multiple_of(SCAN_YIELDS) {
                if let Some(ck) = self.shared.fabric.checker() {
                    if ck.deadlock_on() {
                        ck.maybe_scan((0..self.ranks()).all(|r| self.quiet(r)));
                    }
                }
            }
        }
    }

    /// Block until `cond` holds — the one way the runtime blocks. `wait`
    /// says what is awaited: with a checker installed it is registered in
    /// the deadlock scan's wait table while the rank spins and, once over,
    /// withdrawn with the construct's ordering applied (event-clock join,
    /// tick, barrier prune; a wait nested in a task ends back in the
    /// enclosing one — see `Checker::wait_end`); with the recorder on, a
    /// wait that blocks is the one `Wait` event of its construct, its state
    /// classified as `rupcxx_trace::waitstate` describes. With neither,
    /// this is [`Ctx::wait_until`]'s loop behind three untaken branches.
    ///
    /// `cond` may advance state of its own as it is polled (a barrier's
    /// rounds do); once it has returned true it is not called again.
    pub fn wait_on(&self, wait: WaitInfo, mut cond: impl FnMut() -> bool) {
        let (fabric, trace) = (&self.shared.fabric, self.trace());
        if let Some(ck) = fabric.checker() {
            ck.wait_begin(self.rank, wait);
        }
        let barrier = matches!(wait, WaitInfo::Barrier { .. });
        // A rank throttled by the aggregation window sends nothing while
        // it waits: flushing its partial buffers would cut batches by
        // timing, and short.
        let flush = !matches!(wait, WaitInfo::AggWindow { .. });
        if !trace.enabled() {
            self.wait_loop(flush, cond);
        } else if barrier || !cond() {
            // A wait satisfied at first look neither spins nor is
            // recorded. A barrier always is: its exit splits every rank's
            // critical-path intervals, and its wall time is attributed to
            // a named state in full — the report's headline accuracy
            // number.
            let (begun, retx0) = (trace.wait_begin(), fabric.total_retransmits());
            self.wait_loop(flush, cond);
            let retx = fabric.total_retransmits() - retx0;
            let ns = trace.wait_end(construct(wait), begun, retx);
            if barrier {
                trace.instant(EventKind::BarrierExit, -1, ns, 0);
            }
        }
        if let Some(ck) = fabric.checker() {
            ck.wait_end(self.rank, wait);
        }
    }

    /// Send a task to run on rank `dst` the next time it drives progress;
    /// the task is handed `dst`'s own [`Ctx`] — the one whose progress
    /// engine executes it. The low-level building block under
    /// `rupcxx::async_on` and `finish`: replies go out through that
    /// borrowed context, so no task clones the job's `Arc<Shared>` and its
    /// reference count is a line nobody writes after launch.
    pub fn send_task_with_ctx(&self, dst: Rank, task: impl FnOnce(&Ctx) + Send + 'static) {
        self.trace().instant(EventKind::TaskSpawn, dst as i32, 0, 0);
        let task = move |executor: &dyn Any| {
            let ctx = executor
                .downcast_ref::<Ctx>()
                .expect("task payloads are executed by a Ctx's progress engine");
            task(ctx);
        };
        self.shared
            .fabric
            .send_am(self.rank, dst, AmPayload::Task(TaskFn::new(task)));
    }

    /// [`Ctx::send_task_with_ctx`] for a task that needs no context.
    pub fn send_task(&self, dst: Rank, task: impl FnOnce() + Send + 'static) {
        self.send_task_with_ctx(dst, move |_| task());
    }

    /// Send a registered-handler active message with packed `args`.
    pub fn send_handler(&self, dst: Rank, id: crate::HandlerId, args: Bytes) {
        debug_assert!(
            (id as usize) < self.shared.handlers.len(),
            "unknown handler {id}"
        );
        self.shared
            .fabric
            .send_am(self.rank, dst, AmPayload::Handler { id, args });
    }

    /// Like [`Ctx::send_handler`], but eligible for per-destination
    /// aggregation: when the job was launched with `RuntimeConfig::agg`
    /// (or `RUPCXX_AGG`), the message is coalesced into `dst`'s batch
    /// buffer and delivered at the next flush point (a full slab,
    /// [`Ctx::advance`], [`Ctx::barrier`] or [`Ctx::agg_fence`]).
    /// Without aggregation this is exactly `send_handler`.
    ///
    /// Like every buffered call it is a progress point when it sends a
    /// batch ([`Ctx::agg_sent`]): incoming handlers may run before it
    /// returns — unless the caller is itself a handler running out of a
    /// batch, whose reply is packed and nothing more.
    pub fn send_handler_agg(&self, dst: Rank, id: crate::HandlerId, args: &[u8]) {
        debug_assert!(
            (id as usize) < self.shared.handlers.len(),
            "unknown handler {id}"
        );
        self.agg_sent(self.shared.fabric.am_buffered(self.rank, dst, id, args));
    }

    /// The aggregation layer's back-pressure hook, behind every buffered
    /// entry point of the runtime (`GlobalPtr::{rput_agg, rxor_agg,
    /// radd_agg}`, [`Ctx::send_handler_agg`]): hand it what the fabric's
    /// buffered call returned. `true` — the call sent a batch or started a
    /// slab with the window full (`rupcxx_net::aggregate`, "Back-pressure")
    /// — makes this call do two things:
    ///
    /// 1. run one receive-only progress pass, so a rank in a pack loop
    ///    applies its peers' batches as fast as it sends its own and
    ///    their slabs go home;
    /// 2. while the window is still full, block — as a wait like any
    ///    other, visible to the deadlock scan and the recorder as
    ///    `WaitInfo::AggWindow` — until a peer has applied a batch.
    ///
    /// Neither force-flushes this rank's partial buffers. Neither happens
    /// on a thread that is in the middle of applying a batch (the caller
    /// is one of its handler frames): that thread holds the sender's slab,
    /// and waiting for a slab while holding one is how two ranks that
    /// answer each other's requests deadlock. Its reply is packed, past
    /// the window if need be, and the batch's remaining frames run next,
    /// in order. `false` (always, without aggregation) is one untaken
    /// branch.
    #[inline]
    pub fn agg_sent(&self, drive: bool) {
        if SERVING.with(Cell::get) {
            // Release, after the frame is packed: pairs with the swap in
            // `Ctx::serve`.
            self.shared.own[self.rank]
                .replies_buffered
                .store(true, Ordering::Release);
        }
        if drive {
            self.agg_throttle();
        }
    }

    #[inline(never)]
    fn agg_throttle(&self) {
        if APPLYING.with(Cell::get) > 0 {
            return;
        }
        self.poll();
        let (fabric, me) = (&self.shared.fabric, self.rank);
        if fabric.agg_window_full(me) {
            let wait = WaitInfo::AggWindow {
                window: fabric.agg_window(me).unwrap_or(0),
            };
            self.wait_on(wait, || !fabric.agg_window_full(me));
        }
    }

    /// Flush this rank's aggregation buffers: every buffered op is sent
    /// now as one batch per destination. Returns the number of batches
    /// sent (0 when aggregation is off or nothing is buffered).
    pub fn agg_flush(&self) -> usize {
        self.shared.fabric.flush_agg(self.rank)
    }

    /// Completion fence for buffered operations: after this call every
    /// op this rank buffered has been *applied* at its target, on every
    /// fabric (fault-injected ones included).
    ///
    /// Flush, then a barrier (so all ranks have pushed their batches),
    /// then wait until nothing is on its way to this rank any more
    /// ([`Ctx::quiet`]: links, inbox, and a progress worker's hands), then
    /// a closing barrier (so no rank proceeds before all batches
    /// everywhere have executed).
    pub fn agg_fence(&self) {
        self.agg_flush();
        self.barrier();
        self.wait_on(WaitInfo::Fence, || self.quiet(self.rank));
        self.barrier();
    }

    /// Allocate `bytes` bytes of globally addressable memory on `rank`
    /// (local or remote — remote allocation is the UPC++ feature absent
    /// from UPC and MPI, §III-C). Returns the global address.
    pub fn alloc_on(&self, rank: Rank, bytes: usize) -> Result<GlobalAddr, OutOfSegmentMemory> {
        if rank != self.rank {
            // In a multi-process job the peer's allocator lives in the
            // peer's address space; the local `allocators` entry is a
            // stub whose book-keeping the owner would never see.
            assert!(
                !self.shared.fabric.is_remote(),
                "alloc_on(rank {rank}) from rank {me}: remote allocation is not \
                 supported over a transport conduit — allocate symmetrically \
                 (every rank allocates its own segment in the same order)",
                me = self.rank,
            );
            // Remote allocation is mediated by the owner in the paper (an
            // AM round trip); account for that message pair.
            let stats = &self.shared.fabric.endpoint(self.rank).stats;
            stats.add(Counter::AmsSent, 2);
        }
        let offset = self.shared.allocators[rank].lock().alloc(bytes)?;
        Ok(GlobalAddr::new(rank, offset))
    }

    /// Free memory previously obtained from [`Ctx::alloc_on`]. Callable
    /// from any rank, as in the paper's `deallocate`.
    pub fn free(&self, addr: GlobalAddr) {
        if addr.rank() != self.rank {
            assert!(
                !self.shared.fabric.is_remote(),
                "free on rank {} from rank {}: remote allocation is not \
                 supported over a transport conduit",
                addr.rank(),
                self.rank,
            );
            let stats = &self.shared.fabric.endpoint(self.rank).stats;
            stats.add(Counter::AmsSent, 2);
        }
        self.shared.allocators[addr.rank()]
            .lock()
            .free(addr.offset());
    }

    /// Bytes currently allocated in `rank`'s segment.
    pub fn segment_in_use(&self, rank: Rank) -> usize {
        self.shared.allocators[rank].lock().in_use()
    }

    /// Mark this rank's SPMD closure complete (used by the launcher).
    pub(crate) fn mark_complete(&self) {
        if let Some(ck) = self.shared.fabric.checker() {
            ck.rank_completed(self.rank);
        }
        self.shared.completed.fetch_add(1, Ordering::AcqRel);
        // The ranks this process hosts share its `completed` counter; every
        // other rank is told, so each process's drain loop sees all N.
        let hosted = self.shared.fabric.hosted_ranks();
        for dst in (0..self.ranks()).filter(|dst| !hosted.contains(dst)) {
            self.send_handler(dst, self.shared.builtins.complete, Bytes::new());
        }
    }

    /// Serve progress until every rank has completed its SPMD closure —
    /// and, under fault injection or controlled scheduling, until no
    /// frame destined for this rank is still lost/held/buffered/parked.
    /// A rank exiting a barrier does *not* imply its peers stopped
    /// transmitting, so without the quiescence wait, end-of-job
    /// retransmit counts would be racy.
    pub(crate) fn drain_until_all_complete(&self) {
        let n = self.ranks();
        self.wait_until(|| self.shared.completed.load(Ordering::Acquire) >= n);
        // Every closure has returned: no further sends will satisfy an
        // unconsumed schedule pick, so switch the controlled scheduler
        // into drain mode before waiting for quiescence — this is what
        // makes teardown schedule-agnostic (a stale pick can't hang it).
        // No-op without a schedule.
        self.shared.fabric.sched_finish();
        self.wait_until(|| self.quiet(self.rank));
        // One final drain: tasks may have been enqueued concurrently with
        // the last completion.
        self.advance();
        // Multi-process jobs: run the conduit FIN/FIN_ACK handshake —
        // every peer confirms it received all our data frames and we
        // confirm theirs — then tear the transport down. No-op on the
        // in-process fabric.
        self.shared.fabric.conduit_teardown(self.rank);
    }
}

impl std::fmt::Debug for Ctx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ctx")
            .field("rank", &self.rank)
            .field("ranks", &self.ranks())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shared::HandlerRegistry;
    use std::sync::atomic::AtomicUsize;

    fn two_rank_shared() -> Arc<Shared> {
        Shared::new(2, 1 << 16, HandlerRegistry::new())
    }

    #[test]
    fn send_task_executes_on_advance() {
        let sh = two_rank_shared();
        let c0 = Ctx::new(0, sh.clone());
        let c1 = Ctx::new(1, sh);
        let hits = Arc::new(AtomicUsize::new(0));
        let h = hits.clone();
        c0.send_task(1, move || {
            h.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 0);
        assert_eq!(c1.advance(), 1);
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn handler_messages_dispatch() {
        let mut reg = HandlerRegistry::new();
        type Seen = rupcxx_util::sync::Mutex<Vec<(Rank, Vec<u8>)>>;
        let seen: Arc<Seen> = Arc::default();
        let s2 = seen.clone();
        reg.register(move |ctx, src, args| {
            assert_eq!(ctx.rank(), 1);
            s2.lock().push((src, args.to_vec()));
        });
        let sh = Shared::new(2, 4096, reg);
        let c0 = Ctx::new(0, sh.clone());
        let c1 = Ctx::new(1, sh);
        c0.send_handler(1, 0, Bytes::from_static(&[9, 8]));
        c1.advance();
        assert_eq!(*seen.lock(), vec![(0usize, vec![9, 8])]);
    }

    #[test]
    fn alloc_local_and_remote() {
        let sh = two_rank_shared();
        let c0 = Ctx::new(0, sh);
        let local = c0.alloc_on(0, 64).unwrap();
        let remote = c0.alloc_on(1, 64).unwrap();
        assert_eq!(local.rank(), 0);
        assert_eq!(remote.rank(), 1);
        assert_eq!(c0.segment_in_use(1), 64);
        c0.free(remote);
        assert_eq!(c0.segment_in_use(1), 0);
        c0.free(local);
    }

    #[test]
    fn wait_until_serves_progress() {
        let sh = two_rank_shared();
        let c0 = Ctx::new(0, sh.clone());
        let flag = Arc::new(AtomicUsize::new(0));
        // Rank 1 sends a task to rank 0; rank 0's wait_until must execute it.
        let c1 = Ctx::new(1, sh);
        let f2 = flag.clone();
        c1.send_task(0, move || {
            f2.store(1, Ordering::SeqCst);
        });
        let f3 = flag.clone();
        c0.wait_until(move || f3.load(Ordering::SeqCst) == 1);
        assert_eq!(flag.load(Ordering::SeqCst), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_rank_panics() {
        let sh = two_rank_shared();
        let _ = Ctx::new(5, sh);
    }
}
