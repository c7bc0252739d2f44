//! Process-wide state shared by all rank threads of one SPMD job.

use crate::alloc::SegAllocator;
use crate::finish::FinishState;
use crate::team::Team;
use rupcxx_net::{Fabric, FabricConfig, Rank};
use rupcxx_trace::TraceConfig;
use rupcxx_util::sync::{CachePadded, Mutex};
use rupcxx_util::Bytes;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Id of a registered active-message handler.
pub type HandlerId = u16;

/// A registered active-message handler. Receives the executing rank's
/// context, the sending rank, and the packed argument bytes.
pub type HandlerFn = Arc<dyn Fn(&crate::Ctx, Rank, Bytes) + Send + Sync>;

/// A pending-reply continuation: handed the executing context, the
/// replying rank and the reply message of a registered-handler RPC, it
/// unpacks the return value and resolves the caller's future.
pub type ReplyCont = Box<dyn FnOnce(&crate::Ctx, Rank, Bytes) + Send>;

/// Table of AM handlers, identical on every rank (the paper assumes
/// "function entry points on all processes are either all identical or have
/// an offset collected at load time"; a shared table is the same idea).
#[derive(Clone, Default)]
pub struct HandlerRegistry {
    handlers: Vec<HandlerFn>,
}

impl HandlerRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a handler; returns its id. Must be called before launch
    /// (the registry is frozen into the job's shared state).
    pub fn register(
        &mut self,
        f: impl Fn(&crate::Ctx, Rank, Bytes) + Send + Sync + 'static,
    ) -> HandlerId {
        let id = self.handlers.len();
        assert!(id <= u16::MAX as usize, "too many AM handlers");
        self.handlers.push(Arc::new(f));
        id as HandlerId
    }

    /// Look up a handler (`None`: nobody registered `id`).
    pub fn get(&self, id: HandlerId) -> Option<&HandlerFn> {
        self.handlers.get(id as usize)
    }

    /// Number of registered handlers.
    pub fn len(&self) -> usize {
        self.handlers.len()
    }

    /// True when no handlers are registered.
    pub fn is_empty(&self) -> bool {
        self.handlers.is_empty()
    }
}

impl std::fmt::Debug for HandlerRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HandlerRegistry")
            .field("handlers", &self.handlers.len())
            .finish()
    }
}

/// Per-rank mailbox used by barrier and collectives: contributions keyed
/// by `(domain, sequence)` — the domain isolates independent key spaces
/// (0 = the world team; each sub-team gets its own) — deposited by AM
/// tasks and collected by the owner.
/// Contributions per `(domain, key)`: the sending rank and its payload.
type Slots = HashMap<(u64, u64), Vec<(Rank, Vec<u8>)>>;

#[derive(Debug, Default)]
pub(crate) struct Mailbox {
    pub(crate) slots: Mutex<Slots>,
}

impl Mailbox {
    pub(crate) fn deposit(&self, domain: u64, key: u64, src: Rank, bytes: Vec<u8>) {
        self.slots
            .lock()
            .entry((domain, key))
            .or_default()
            .push((src, bytes));
    }

    pub(crate) fn arrived(&self, domain: u64, key: u64) -> usize {
        self.slots.lock().get(&(domain, key)).map_or(0, |v| v.len())
    }

    pub(crate) fn take(&self, domain: u64, key: u64) -> Vec<(Rank, Vec<u8>)> {
        self.slots.lock().remove(&(domain, key)).unwrap_or_default()
    }
}

/// Handler ids of the runtime's own AMs, registered in every job after
/// every user handler (so user ids are unchanged), in this order. A job
/// of threads and a job of processes send the same messages with the same
/// ids: user count + 0, + 1, + 2.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Builtins {
    /// Mailbox deposit (barrier / collectives): args = domain u64 LE +
    /// key u64 LE + payload bytes.
    pub(crate) deposit: HandlerId,
    /// Closure-completion announcement (empty args): the sender's SPMD
    /// closure returned, so bump the local completion count. Sent only to
    /// ranks another process hosts.
    pub(crate) complete: HandlerId,
    /// The `finish` acknowledgement (`finish.rs`).
    pub(crate) finish_ack: HandlerId,
}

/// The part of [`Shared`] that belongs to one rank and that only that
/// rank's own threads write (deposits and replies arrive as AMs and run
/// on the rank they are addressed to).
pub struct RankState {
    /// Collective mailbox.
    pub(crate) mailbox: Mailbox,
    /// This rank's world team, the one `Ctx`'s collectives run over. Its
    /// sequence counter numbers them (SPMD programs call collectives in
    /// the same order on every rank, so equal counts match up).
    pub(crate) world: Team,
    /// Pending reply continuations for registered-handler RPC: a reply
    /// message carries a token; the continuation stored under it consumes
    /// the message (resolving a future).
    pub pending_replies: Mutex<HashMap<u64, ReplyCont>>,
    /// Token counter for [`RankState::pending_replies`].
    pub reply_tokens: AtomicU64,
    /// `finish` bookkeeping: the scopes this rank has open, and the
    /// completions it owes other ranks' scopes (see `finish.rs`).
    pub(crate) finish: FinishState,
    /// Set when a task or handler this rank ran made a buffered
    /// (aggregated) call; a `progress_thread` worker that finds it set on
    /// an idle pass clears it and flushes (`Ctx::serve`).
    pub(crate) replies_buffered: AtomicBool,
    /// True while a `progress_thread` worker of this rank is inside a
    /// pass (`Ctx::serve`, its only writer): a message the pass has popped
    /// is in no queue any more and may not have run yet (`Ctx::quiet`).
    pub(crate) worker_in_pass: AtomicBool,
}

impl RankState {
    /// For a failure message about a rank that will not leave a barrier:
    /// how many collectives its world team has started (the last one's
    /// mailbox keys are `1024 * (that - 1) + round`) and the arrivals
    /// waiting in its mailbox, `(domain, key, count)` in key order.
    pub fn collectives_debug(&self) -> String {
        let slots = self.mailbox.slots.lock();
        let mut waiting: Vec<_> = slots.iter().map(|(&(d, k), v)| (d, k, v.len())).collect();
        waiting.sort_unstable();
        let started = self.world.seq.load(Ordering::Relaxed);
        format!("{started} collectives started, mailbox holds {waiting:?}")
    }
}

/// State shared by every rank of the job. The per-rank arrays are
/// [`CachePadded`]: a rank bumping its counters or locking its tables
/// takes no line away from its neighbours in the array.
pub struct Shared {
    /// The communication fabric.
    pub fabric: Arc<Fabric>,
    /// Per-rank segment allocators (locked: remote allocation is allowed,
    /// standing in for the paper's AM-mediated remote `allocate`).
    pub(crate) allocators: Vec<CachePadded<Mutex<SegAllocator>>>,
    /// Per-rank state written by that rank alone.
    pub own: Vec<CachePadded<RankState>>,
    /// Frozen AM handler table.
    pub handlers: HandlerRegistry,
    /// Ranks that have finished the user's SPMD closure.
    pub(crate) completed: AtomicUsize,
    /// The runtime's own handler ids, after the user's.
    pub(crate) builtins: Builtins,
}

impl Shared {
    /// Build shared state for `ranks` ranks with `segment_bytes` segments
    /// and every optional layer off. Tracing is taken from the
    /// `RUPCXX_TRACE` environment (see `rupcxx-trace`).
    pub fn new(ranks: usize, segment_bytes: usize, handlers: HandlerRegistry) -> Arc<Self> {
        Self::new_full(
            FabricConfig {
                ranks,
                segment_bytes,
                trace: TraceConfig::from_env(),
                ..FabricConfig::default()
            },
            handlers,
        )
    }

    /// The full constructor: shared state around a fabric built from
    /// `config` (the SPMD launchers fill it from `RuntimeConfig`). When
    /// `config.remote` is set this process is ONE rank of a multi-process
    /// job wired up by a transport conduit. In every job the runtime's
    /// own handlers ([`Builtins`]) are appended to the registry after all
    /// user handlers, so user ids are stable and the runtime's ids are
    /// the same in a job of threads as in a job of processes.
    pub fn new_full(config: FabricConfig, mut handlers: HandlerRegistry) -> Arc<Self> {
        let (ranks, segment_bytes) = (config.ranks, config.segment_bytes);
        // Fields are evaluated, so registered, in the order written.
        let builtins = Builtins {
            deposit: handlers.register(|ctx, src, args| {
                let (Some(domain), Some(key)) = (args.get(..8), args.get(8..16)) else {
                    let why = format_args!("deposit of {} bytes", args.len());
                    return ctx.fabric().refuse_message(ctx.rank(), src, &why);
                };
                let word = |b: &[u8]| u64::from_le_bytes(b.try_into().expect("8 bytes"));
                let mailbox = &ctx.shared().own[ctx.rank()].mailbox;
                mailbox.deposit(word(domain), word(key), src, args[16..].to_vec());
            }),
            complete: handlers.register(|ctx, _src, _args| {
                ctx.shared().completed.fetch_add(1, Ordering::AcqRel);
            }),
            finish_ack: handlers.register(crate::finish::ack_handler),
        };
        let fabric = Fabric::new(config);
        // Each rank's world team: every rank in rank order (one list for
        // the job), mailbox domain 0.
        let all: Arc<[Rank]> = (0..ranks).collect();
        let rank_state = |rank| RankState {
            mailbox: Mailbox::default(),
            world: Team::new(all.clone(), rank, 0),
            pending_replies: Mutex::default(),
            reply_tokens: AtomicU64::new(0),
            finish: FinishState::default(),
            replies_buffered: AtomicBool::new(false),
            worker_in_pass: AtomicBool::new(false),
        };
        Arc::new(Shared {
            fabric,
            allocators: (0..ranks)
                .map(|_| CachePadded(Mutex::new(SegAllocator::new(segment_bytes))))
                .collect(),
            own: (0..ranks).map(|r| CachePadded(rank_state(r))).collect(),
            handlers,
            completed: AtomicUsize::new(0),
            builtins,
        })
    }

    /// Number of ranks.
    pub fn ranks(&self) -> usize {
        self.fabric.ranks()
    }
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared")
            .field("ranks", &self.ranks())
            .field("handlers", &self.handlers.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mailbox_deposit_and_take() {
        let mb = Mailbox::default();
        assert_eq!(mb.arrived(0, 7), 0);
        mb.deposit(0, 7, 1, vec![1, 2]);
        mb.deposit(0, 7, 2, vec![3]);
        // Same key in another domain is independent.
        mb.deposit(9, 7, 1, vec![4]);
        assert_eq!(mb.arrived(0, 7), 2);
        assert_eq!(mb.arrived(9, 7), 1);
        let got = mb.take(0, 7);
        assert_eq!(got.len(), 2);
        assert_eq!(mb.arrived(0, 7), 0);
        assert_eq!(mb.arrived(9, 7), 1);
    }

    #[test]
    fn registry_register_and_get() {
        let mut reg = HandlerRegistry::new();
        assert!(reg.is_empty());
        let id = reg.register(|_, _, _| {});
        assert_eq!(id, 0);
        assert_eq!(reg.len(), 1);
        assert!(reg.get(id).is_some() && reg.get(id + 1).is_none());
    }

    #[test]
    fn the_runtimes_handlers_follow_the_users_in_every_job() {
        // The ids a job of processes has (`conduit_conformance` pins them
        // for one): user handlers 0 and 1, then deposit, complete and the
        // finish ack.
        let mut reg = HandlerRegistry::new();
        reg.register(|_, _, _| {});
        reg.register(|_, _, _| {});
        let sh = Shared::new(2, 4096, reg);
        let b = sh.builtins;
        assert_eq!((b.deposit, b.complete, b.finish_ack), (2, 3, 4));
        assert_eq!(sh.handlers.len(), 5);
        // A deposit AM lands in the target's mailbox under its domain and
        // key, from its sender.
        let (c0, c1) = (
            crate::Ctx::new(0, sh.clone()),
            crate::Ctx::new(1, sh.clone()),
        );
        let args = [5u64.to_le_bytes(), 7u64.to_le_bytes(), [9; 8]].concat();
        c1.send_handler(0, b.deposit, Bytes::from(args));
        assert_eq!(c0.advance(), 1);
        assert_eq!(sh.own[0].mailbox.take(5, 7), [(1, vec![9; 8])]);
    }

    #[test]
    #[should_panic(expected = "message from rank 1 refused: deposit of 3 bytes")]
    fn a_short_deposit_is_refused() {
        let sh = Shared::new(2, 4096, HandlerRegistry::new());
        let (c0, c1) = (
            crate::Ctx::new(0, sh.clone()),
            crate::Ctx::new(1, sh.clone()),
        );
        c1.send_handler(0, sh.builtins.deposit, Bytes::from_static(&[1, 2, 3]));
        c0.advance();
    }

    #[test]
    fn per_rank_slots_fill_whole_blocks() {
        // Every element of either per-rank array starts a 128-byte block
        // and ends on one: nothing a rank writes shares a block with its
        // neighbour's slot.
        fn whole_blocks<T>(slots: &[T]) {
            assert_eq!(std::mem::size_of::<T>() % 128, 0);
            for slot in slots {
                assert_eq!(std::ptr::from_ref(slot) as usize % 128, 0);
            }
        }
        let sh = Shared::new(3, 4096, HandlerRegistry::new());
        whole_blocks(&sh.own);
        whole_blocks(&sh.allocators);
    }
}
