//! The communicator: two-sided sends/receives over the fabric.

use crate::matching::{Incoming, MatchEngine, ANY};
use crate::requests::{RecvReq, RecvState, SendReq};
use rupcxx_net::{pod, GlobalAddr, Pod, Rank};
use rupcxx_runtime::{Ctx, WaitInfo};
use rupcxx_util::sync::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Receive from any source (`MPI_ANY_SOURCE`).
pub const ANY_SOURCE: Rank = ANY;

/// Default eager/rendezvous switch-over, in bytes (typical MPI default).
pub const DEFAULT_EAGER_LIMIT: usize = 8192;

struct StagedSend {
    staged: GlobalAddr,
    done: Arc<AtomicBool>,
}

/// Job-wide two-sided state: one matching engine per rank. Create before
/// `spmd` and capture in the rank closure.
pub struct MpiWorld {
    engines: Vec<Mutex<MatchEngine>>,
    staged: Vec<Mutex<HashMap<u64, StagedSend>>>,
    tokens: Vec<AtomicU64>,
    eager_limit: usize,
}

impl MpiWorld {
    /// A world for `ranks` ranks with the default eager limit.
    pub fn new(ranks: usize) -> Arc<Self> {
        Self::with_eager_limit(ranks, DEFAULT_EAGER_LIMIT)
    }

    /// A world with a custom eager/rendezvous threshold (0 forces
    /// rendezvous for everything — the ablation knob).
    pub fn with_eager_limit(ranks: usize, eager_limit: usize) -> Arc<Self> {
        Arc::new(MpiWorld {
            engines: (0..ranks)
                .map(|_| Mutex::new(MatchEngine::default()))
                .collect(),
            staged: (0..ranks).map(|_| Mutex::new(HashMap::new())).collect(),
            tokens: (0..ranks).map(|_| AtomicU64::new(0)).collect(),
            eager_limit,
        })
    }

    /// The per-rank communicator handle.
    pub fn comm<'a>(self: &Arc<Self>, ctx: &'a Ctx) -> Comm<'a> {
        assert_eq!(
            self.engines.len(),
            ctx.ranks(),
            "MpiWorld size does not match the SPMD job"
        );
        Comm {
            world: self.clone(),
            ctx,
        }
    }
}

/// A rank's handle to the two-sided layer.
pub struct Comm<'a> {
    world: Arc<MpiWorld>,
    ctx: &'a Ctx,
}

/// Finish an already-matched incoming message on the receiving rank,
/// whose context `ctx` is.
fn complete_match(
    world: &Arc<MpiWorld>,
    ctx: &Ctx,
    src: Rank,
    state: Arc<RecvState>,
    body: Incoming,
) {
    match body {
        Incoming::Eager(payload) => state.complete(src, payload),
        Incoming::Rendezvous { staged, len, token } => {
            // Pull the staged payload one-sided, then notify the sender so
            // it can release the staging buffer and complete its request.
            let mut buf = vec![0u8; len];
            ctx.fabric().get(ctx.rank(), staged, &mut buf);
            state.complete(src, buf);
            let world = world.clone();
            ctx.send_task_with_ctx(src, move |sender_ctx| {
                let entry = world.staged[src]
                    .lock()
                    .remove(&token)
                    .expect("rendezvous token");
                sender_ctx.free(entry.staged);
                entry.done.store(true, Ordering::Release);
            });
        }
    }
}

impl<'a> Comm<'a> {
    /// This rank's id.
    pub fn rank(&self) -> Rank {
        self.ctx.rank()
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.ctx.ranks()
    }

    /// The underlying SPMD context.
    pub fn ctx(&self) -> &Ctx {
        self.ctx
    }

    /// Non-blocking send (`MPI_Isend`). Eager messages complete
    /// immediately (buffered); rendezvous messages complete once the
    /// receiver has pulled the data.
    pub fn isend(&self, dst: Rank, tag: u64, data: &[u8]) -> SendReq {
        let me = self.ctx.rank();
        let world = self.world.clone();
        if data.len() <= self.world.eager_limit {
            let payload = data.to_vec();
            self.ctx.send_task_with_ctx(dst, move |dst_ctx| {
                let matched = world.engines[dst]
                    .lock()
                    .deliver(me, tag, Incoming::Eager(payload));
                if let Some((state, body)) = matched {
                    complete_match(&world, dst_ctx, me, state, body);
                }
            });
            return SendReq::completed();
        }
        // Rendezvous: stage in my segment, send the header.
        let staged = self
            .ctx
            .alloc_on(me, data.len())
            .expect("segment memory for rendezvous staging");
        self.ctx.fabric().put(me, staged, data);
        let token = self.world.tokens[me].fetch_add(1, Ordering::Relaxed);
        let req = SendReq::pending();
        self.world.staged[me].lock().insert(
            token,
            StagedSend {
                staged,
                done: req.done.clone(),
            },
        );
        let len = data.len();
        self.ctx.send_task_with_ctx(dst, move |dst_ctx| {
            let matched = world.engines[dst].lock().deliver(
                me,
                tag,
                Incoming::Rendezvous { staged, len, token },
            );
            if let Some((state, body)) = matched {
                complete_match(&world, dst_ctx, me, state, body);
            }
        });
        req
    }

    /// Non-blocking receive (`MPI_Irecv`). `src` may be [`ANY_SOURCE`].
    /// The payload length is carried by the message (no buffer pre-sizing).
    pub fn irecv(&self, src: Rank, tag: u64) -> RecvReq {
        let me = self.ctx.rank();
        let state = RecvState::new();
        let req = RecvReq {
            state: state.clone(),
        };
        let matched = self.world.engines[me].lock().post(src, tag, state.clone());
        if let Some((actual_src, body)) = matched {
            complete_match(&self.world, self.ctx, actual_src, state, body);
        }
        req
    }

    /// Wait for a send to complete (buffer reusable).
    pub fn wait_send(&self, req: &SendReq) {
        self.ctx.wait_on(WaitInfo::Request, || req.is_complete());
    }

    /// Wait for a receive; returns `(source, payload)`.
    pub fn wait_recv(&self, req: &RecvReq) -> (Rank, Vec<u8>) {
        self.ctx.wait_on(WaitInfo::Request, || req.is_complete());
        req.take()
    }

    /// Wait for all given sends.
    pub fn waitall_sends(&self, reqs: &[SendReq]) {
        self.ctx
            .wait_on(WaitInfo::Request, || reqs.iter().all(|r| r.is_complete()));
    }

    /// Wait for all given receives; payloads in request order.
    pub fn waitall_recvs(&self, reqs: &[RecvReq]) -> Vec<(Rank, Vec<u8>)> {
        self.ctx
            .wait_on(WaitInfo::Request, || reqs.iter().all(|r| r.is_complete()));
        reqs.iter().map(|r| r.take()).collect()
    }

    /// Blocking send.
    pub fn send(&self, dst: Rank, tag: u64, data: &[u8]) {
        let req = self.isend(dst, tag, data);
        self.wait_send(&req);
    }

    /// Blocking receive.
    pub fn recv(&self, src: Rank, tag: u64) -> (Rank, Vec<u8>) {
        let req = self.irecv(src, tag);
        self.wait_recv(&req)
    }

    /// Typed non-blocking send of a Pod slice.
    pub fn isend_slice<T: Pod>(&self, dst: Rank, tag: u64, data: &[T]) -> SendReq {
        self.isend(dst, tag, pod::bytes_of(data))
    }

    /// Barrier (delegates to the runtime's dissemination barrier, as MPI
    /// and PGAS barriers share implementations in practice — paper §III-F).
    pub fn barrier(&self) {
        self.ctx.barrier();
    }

    /// Allreduce (delegates to the runtime's binomial trees).
    pub fn allreduce<T: Pod>(&self, value: T, op: impl Fn(T, T) -> T) -> T {
        self.ctx.allreduce(value, op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rupcxx_runtime::{spmd, RuntimeConfig};

    fn cfg(n: usize) -> RuntimeConfig {
        RuntimeConfig::new(n).segment_bytes(1 << 20)
    }

    #[test]
    fn eager_send_recv_roundtrip() {
        let world = MpiWorld::new(2);
        spmd(cfg(2), move |ctx| {
            let comm = world.comm(ctx);
            if ctx.rank() == 0 {
                comm.send(1, 42, &[1, 2, 3]);
            } else {
                let (src, data) = comm.recv(0, 42);
                assert_eq!(src, 0);
                assert_eq!(data, vec![1, 2, 3]);
            }
        });
    }

    #[test]
    fn rendezvous_send_recv_roundtrip() {
        let world = MpiWorld::with_eager_limit(2, 16);
        spmd(cfg(2), move |ctx| {
            let comm = world.comm(ctx);
            let big: Vec<u8> = (0..1000).map(|i| (i % 251) as u8).collect();
            if ctx.rank() == 0 {
                let req = comm.isend(1, 7, &big);
                comm.wait_send(&req);
                // Staging buffer must have been released.
                assert_eq!(ctx.segment_in_use(0), 0);
            } else {
                let (_, data) = comm.recv(0, 7);
                assert_eq!(data, big);
            }
        });
    }

    #[test]
    fn irecv_before_send_and_after() {
        let world = MpiWorld::new(2);
        spmd(cfg(2), move |ctx| {
            let comm = world.comm(ctx);
            if ctx.rank() == 1 {
                // Posted-first path.
                let pre = comm.irecv(0, 1);
                ctx.barrier();
                let (_, a) = comm.wait_recv(&pre);
                assert_eq!(a, vec![11]);
                // Unexpected-first path.
                ctx.barrier();
                std::thread::sleep(std::time::Duration::from_millis(10));
                let (_, b) = comm.recv(0, 2);
                assert_eq!(b, vec![22]);
            } else {
                ctx.barrier();
                comm.send(1, 1, &[11]);
                comm.send(1, 2, &[22]);
                ctx.barrier();
            }
        });
    }

    #[test]
    fn any_source_receives() {
        let world = MpiWorld::new(3);
        spmd(cfg(3), move |ctx| {
            let comm = world.comm(ctx);
            if ctx.rank() == 0 {
                let mut got = vec![];
                for _ in 0..2 {
                    let (src, data) = comm.recv(ANY_SOURCE, 5);
                    assert_eq!(data, vec![src as u8]);
                    got.push(src);
                }
                got.sort_unstable();
                assert_eq!(got, vec![1, 2]);
            } else {
                comm.send(0, 5, &[ctx.rank() as u8]);
            }
        });
    }

    #[test]
    fn message_order_preserved_per_pair() {
        let world = MpiWorld::new(2);
        spmd(cfg(2), move |ctx| {
            let comm = world.comm(ctx);
            if ctx.rank() == 0 {
                for i in 0..20u8 {
                    comm.send(1, 9, &[i]);
                }
            } else {
                for i in 0..20u8 {
                    let (_, d) = comm.recv(0, 9);
                    assert_eq!(d, vec![i], "non-overtaking order");
                }
            }
        });
    }

    #[test]
    fn typed_slices() {
        let world = MpiWorld::new(2);
        spmd(cfg(2), move |ctx| {
            let comm = world.comm(ctx);
            if ctx.rank() == 0 {
                let data: Vec<f64> = (0..100).map(|i| i as f64 * 0.5).collect();
                let r = comm.isend_slice(1, 3, &data);
                comm.wait_send(&r);
            } else {
                let data: Vec<f64> = pod::unpack_slice(&comm.recv(0, 3).1);
                assert_eq!(data.len(), 100);
                assert_eq!(data[99], 49.5);
            }
        });
    }

    #[test]
    fn nonblocking_exchange_pattern() {
        // The LULESH pattern: post all irecvs, all isends, waitall.
        let world = MpiWorld::new(4);
        spmd(cfg(4), move |ctx| {
            let comm = world.comm(ctx);
            let me = ctx.rank();
            let n = ctx.ranks();
            let recvs: Vec<RecvReq> = (0..n)
                .filter(|&r| r != me)
                .map(|r| comm.irecv(r, 1))
                .collect();
            let payload = vec![me as u8; 32];
            let sends: Vec<SendReq> = (0..n)
                .filter(|&r| r != me)
                .map(|r| comm.isend(r, 1, &payload))
                .collect();
            comm.waitall_sends(&sends);
            let got = comm.waitall_recvs(&recvs);
            assert_eq!(got.len(), n - 1);
            for (src, data) in got {
                assert_eq!(data, vec![src as u8; 32]);
            }
        });
    }
}
