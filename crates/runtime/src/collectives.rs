//! Collective operations over active messages.
//!
//! The runtime implements the collectives the paper's benchmarks need:
//! dissemination barrier, binomial-tree broadcast and reduce (MPICH-style
//! algorithms), allreduce, rooted gather(v), and all-to-all exchange. All
//! are built on a single primitive — *deposit* a byte payload into the
//! destination rank's mailbox under a sequence key — which maps one-to-one
//! onto AM traffic, so the perf model sees realistic message counts.
//!
//! Each algorithm is written once, as a method of [`Team`]: as in
//! DART-MPI every collective takes a team, and the world's
//! (`Ctx::barrier`, `Ctx::broadcast`, …) are those of the rank's world
//! team — all ranks in rank order, mailbox domain 0, built at launch.
//!
//! SPMD discipline: every member must call the same collectives in the
//! same order (the usual MPI rule); sequence numbers are per-rank counters
//! that therefore agree across members.

use crate::ctx::Ctx;
use crate::team::Team;
use rupcxx_check::WaitInfo;
use rupcxx_net::{pod, Pod, Rank};
use std::sync::atomic::Ordering;

/// Compose a mailbox key from the collective sequence number and a
/// sub-round tag (binomial round / barrier round).
fn coll_key(seq: u64, sub: u64) -> u64 {
    debug_assert!(sub < 1024);
    seq * 1024 + sub
}

impl Team {
    fn next_seq(&self) -> u64 {
        self.seq.fetch_add(1, Ordering::Relaxed)
    }

    /// Index of the member whose world rank is `rank`.
    fn index_of(&self, rank: Rank) -> usize {
        // In the world team every member sits at its own rank: no search.
        if self.members.get(rank) == Some(&rank) {
            return rank;
        }
        let index = self.members.iter().position(|&m| m == rank);
        index.expect("sender is a member")
    }

    /// Deposit `bytes` into member `i`'s mailbox under `key`: directly
    /// when it is this rank, else as the `deposit` handler AM, the same
    /// message in a job of threads as in a job of processes.
    fn deposit(&self, ctx: &Ctx, i: usize, key: u64, bytes: Vec<u8>) {
        let (me, dst, domain) = (ctx.rank(), self.members[i], self.domain);
        if dst == me {
            ctx.shared().own[me].mailbox.deposit(domain, key, me, bytes);
            return;
        }
        let args = [&domain.to_le_bytes()[..], &key.to_le_bytes(), &bytes].concat();
        let deposit = ctx.shared().builtins.deposit;
        ctx.send_handler(dst, deposit, rupcxx_util::Bytes::from(args));
    }

    /// Wait for `count` arrivals under `key` in this rank's mailbox, then
    /// remove and return them.
    fn collect(&self, ctx: &Ctx, key: u64, count: usize) -> Vec<(Rank, Vec<u8>)> {
        let domain = self.domain;
        let mailbox = &ctx.shared().own[ctx.rank()].mailbox;
        ctx.wait_on(WaitInfo::Collective { domain, key }, || {
            mailbox.arrived(domain, key) >= count
        });
        mailbox.take(domain, key)
    }

    /// The payloads of `arrivals`, one per member, in member order.
    fn in_member_order(&self, mut arrivals: Vec<(Rank, Vec<u8>)>) -> Vec<Vec<u8>> {
        arrivals.sort_by_key(|&(src, _)| self.index_of(src));
        arrivals.into_iter().map(|(_, b)| b).collect()
    }

    /// Team barrier — and, on the world team, [`Ctx::barrier`]. A
    /// dissemination barrier: ⌈log₂ N⌉ rounds, in round k each member
    /// signals member `(me + 2^k) mod N` and waits for the signal from
    /// `(me − 2^k) mod N` — the standard scalable algorithm of PGAS
    /// runtimes; its message count (N·⌈log₂N⌉ per episode) is what the
    /// perf model charges. All rounds run inside one wait.
    pub fn barrier(&self, ctx: &Ctx) {
        let (n, domain) = (self.size(), self.domain);
        // Push out buffered aggregation batches before the first signal.
        // A target's final barrier signal transitively depends on every
        // member's arrival, i.e. it lands in the target's single FIFO
        // inbox after our batch did — so the target executes the batch
        // before it can leave the barrier. Under fault injection
        // retransmission can delay a batch past this ordering — use
        // `agg_fence` for an applied-at-target guarantee there.
        ctx.agg_flush();
        let seq = self.next_seq();
        let mailbox = &ctx.shared().own[ctx.rank()].mailbox;
        // `dist` spans the round being waited for; `sent`, the last one
        // whose signal is out.
        let (mut dist, mut sent) = (1usize, 0usize);
        ctx.wait_on(WaitInfo::Barrier { domain, seq }, || {
            while dist < n {
                let key = coll_key(seq, dist.trailing_zeros() as u64);
                if sent < dist {
                    self.deposit(ctx, (self.my_index + dist) % n, key, Vec::new());
                    sent = dist;
                }
                if mailbox.arrived(domain, key) == 0 {
                    return false;
                }
                mailbox.take(domain, key);
                dist <<= 1;
            }
            true
        });
        // A barrier is a full synchronization point: peers' pre-barrier
        // writes become observable, so locally cached remote lines must
        // be refetched.
        ctx.shared().fabric.cache_invalidate_sync(ctx.rank());
    }

    /// Binomial-tree broadcast of a byte payload from member `root`.
    pub(crate) fn broadcast_bytes(&self, ctx: &Ctx, root: usize, value: Vec<u8>) -> Vec<u8> {
        let (n, seq) = (self.size(), self.next_seq());
        let rel = (self.my_index + n - root) % n;
        let mut payload = value;
        // Receive phase: wait for the message from the parent.
        let mut mask = 1usize;
        while mask < n {
            if rel & mask != 0 {
                let key = coll_key(seq, mask.trailing_zeros() as u64);
                let mut arrivals = self.collect(ctx, key, 1);
                payload = arrivals.pop().expect("broadcast arrival").1;
                break;
            }
            mask <<= 1;
        }
        // Send phase: forward to children at decreasing masks.
        mask >>= 1;
        while mask > 0 {
            if rel & mask == 0 && rel + mask < n {
                let key = coll_key(seq, mask.trailing_zeros() as u64);
                self.deposit(ctx, (rel + mask + root) % n, key, payload.clone());
            }
            mask >>= 1;
        }
        payload
    }

    /// Team broadcast from team-relative `root` (binomial tree).
    pub fn broadcast<T: Pod>(&self, ctx: &Ctx, root: usize, value: T) -> T {
        T::read_from(&self.broadcast_bytes(ctx, root, value.to_bytes()))
    }

    /// Team reduction to team-relative `root` (binomial tree); `Some` at
    /// the root. `op` must be associative and commutative.
    pub fn reduce<T: Pod>(
        &self,
        ctx: &Ctx,
        root: usize,
        value: T,
        op: impl Fn(T, T) -> T,
    ) -> Option<T> {
        let (n, seq) = (self.size(), self.next_seq());
        let rel = (self.my_index + n - root) % n;
        let mut acc = value;
        let mut mask = 1usize;
        while mask < n {
            let key = coll_key(seq, mask.trailing_zeros() as u64);
            if rel & mask != 0 {
                // Send accumulated value to the parent and stop.
                self.deposit(ctx, (rel - mask + root) % n, key, acc.to_bytes());
                return None;
            }
            if rel + mask < n {
                // Receive the child's contribution and fold it in.
                let mut arrivals = self.collect(ctx, key, 1);
                let contrib = T::read_from(&arrivals.pop().expect("reduce arrival").1);
                acc = op(acc, contrib);
            }
            mask <<= 1;
        }
        Some(acc)
    }

    /// Team allreduce: binomial reduce to member 0, then binomial
    /// broadcast.
    pub fn allreduce<T: Pod>(&self, ctx: &Ctx, value: T, op: impl Fn(T, T) -> T) -> T {
        let reduced = self.reduce(ctx, 0, value, op);
        // Non-roots pass a placeholder; broadcast overwrites it.
        self.broadcast(ctx, 0, reduced.unwrap_or(value))
    }

    /// Gather one byte payload per member at `root`, in member order.
    pub(crate) fn gatherv(&self, ctx: &Ctx, root: usize, bytes: Vec<u8>) -> Option<Vec<Vec<u8>>> {
        let key = coll_key(self.next_seq(), 0);
        self.deposit(ctx, root, key, bytes);
        (self.my_index == root).then(|| self.in_member_order(self.collect(ctx, key, self.size())))
    }

    /// All-to-all: `input[d]` goes to member `d`; returns `output[s]` =
    /// the payload from member `s`.
    pub(crate) fn exchange(&self, ctx: &Ctx, input: Vec<Vec<u8>>) -> Vec<Vec<u8>> {
        let n = self.size();
        assert_eq!(input.len(), n, "exchange needs one payload per rank");
        let key = coll_key(self.next_seq(), 0);
        for (dst, payload) in input.into_iter().enumerate() {
            self.deposit(ctx, dst, key, payload);
        }
        self.in_member_order(self.collect(ctx, key, n))
    }

    /// Team all-gather of a Pod slice, concatenated in team order.
    pub fn allgatherv<T: Pod>(&self, ctx: &Ctx, values: &[T]) -> Vec<T> {
        // One payload per destination, each a copy of the byte view; the
        // result is sized once, from what arrived.
        let payloads = vec![pod::bytes_of(values).to_vec(); self.size()];
        let arrivals = self.exchange(ctx, payloads);
        let total: usize = arrivals.iter().map(Vec::len).sum();
        let mut all = Vec::with_capacity(total / std::mem::size_of::<T>().max(1));
        for arrival in &arrivals {
            pod::extend_from_bytes(&mut all, arrival);
        }
        all
    }
}

impl Ctx {
    /// This rank's world team: what the collectives below run over.
    pub(crate) fn world(&self) -> &Team {
        &self.shared().own[self.rank()].world
    }

    /// Binomial-tree broadcast of a Pod value from `root` to all ranks.
    pub fn broadcast<T: Pod>(&self, root: Rank, value: T) -> T {
        self.world().broadcast(self, root, value)
    }

    /// Broadcast a byte payload from `root` (binomial tree).
    pub fn broadcast_bytes(&self, root: Rank, value: Vec<u8>) -> Vec<u8> {
        self.world().broadcast_bytes(self, root, value)
    }

    /// Binomial-tree reduction of a Pod value to `root`. Returns
    /// `Some(result)` at the root and `None` elsewhere. `op` must be
    /// associative and commutative.
    pub fn reduce<T: Pod>(&self, root: Rank, value: T, op: impl Fn(T, T) -> T) -> Option<T> {
        self.world().reduce(self, root, value, op)
    }

    /// Allreduce: binomial reduce to rank 0, then binomial broadcast.
    pub fn allreduce<T: Pod>(&self, value: T, op: impl Fn(T, T) -> T) -> T {
        self.world().allreduce(self, value, op)
    }

    /// Gather variable-size byte payloads at `root`. Returns
    /// `Some(payloads_by_rank)` at the root, `None` elsewhere — the paper's
    /// `gatherv` (used by the Embree benchmark's final image gather).
    pub fn gatherv(&self, root: Rank, bytes: Vec<u8>) -> Option<Vec<Vec<u8>>> {
        self.world().gatherv(self, root, bytes)
    }

    /// Gather one Pod value per rank at `root`.
    pub fn gather<T: Pod>(&self, root: Rank, value: T) -> Option<Vec<T>> {
        self.gatherv(root, value.to_bytes())
            .map(|vs| vs.iter().map(|b| T::read_from(b)).collect())
    }

    /// All-to-all exchange of variable-size byte payloads:
    /// `input[d]` is sent to rank `d`; returns `output[s]` = payload from
    /// rank `s`. (Sample sort's splitter/count exchange.)
    pub fn exchange(&self, input: Vec<Vec<u8>>) -> Vec<Vec<u8>> {
        self.world().exchange(self, input)
    }

    /// All-gather a slice of Pod values: every rank contributes `values`,
    /// every rank receives all contributions concatenated in rank order.
    pub fn allgatherv<T: Pod>(&self, values: &[T]) -> Vec<T> {
        self.world().allgatherv(self, values)
    }
}

#[cfg(test)]
mod tests {
    use crate::spmd::spmd;
    use crate::{Ctx, RuntimeConfig, Team};
    use rupcxx_net::{CacheConfig, GlobalAddr, Pod, Rank};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn cfg(n: usize) -> RuntimeConfig {
        RuntimeConfig::new(n).segment_bytes(4096)
    }

    /// The faces one collective engine is reached through: the world's
    /// ranks through `Ctx`, the same ranks through `team_world()`, and
    /// the even and odd halves of a `split`.
    #[derive(Clone, Copy, Debug)]
    enum Over {
        Ctx,
        TeamWorld,
        Split,
    }
    const OVER: [Over; 3] = [Over::Ctx, Over::TeamWorld, Over::Split];

    /// One rank's handle on its group, whichever face it is reached
    /// through, so that a test of an algorithm is written once.
    struct Face<'a> {
        ctx: &'a Ctx,
        team: Option<Team>,
    }

    impl<'a> Face<'a> {
        fn new(ctx: &'a Ctx, over: Over) -> Self {
            let me = ctx.rank();
            let team = match over {
                Over::Ctx => None,
                Over::TeamWorld => Some(ctx.team_world()),
                Over::Split => Some(ctx.team_world().split(ctx, (me % 2) as u64, me as u64)),
            };
            let face = Face { ctx, team };
            let expect: Vec<Rank> = match over {
                Over::Split => (me % 2..ctx.ranks()).step_by(2).collect(),
                _ => (0..ctx.ranks()).collect(),
            };
            assert_eq!(face.members(), expect, "{over:?}");
            assert_eq!(face.members()[face.me()], me, "{over:?}");
            face
        }

        fn members(&self) -> Vec<Rank> {
            match &self.team {
                None => (0..self.ctx.ranks()).collect(),
                Some(t) => t.members().to_vec(),
            }
        }

        fn me(&self) -> usize {
            self.team.as_ref().map_or(self.ctx.rank(), Team::my_index)
        }

        fn barrier(&self) {
            match &self.team {
                None => self.ctx.barrier(),
                Some(t) => t.barrier(self.ctx),
            }
        }

        fn broadcast<T: Pod>(&self, root: usize, value: T) -> T {
            match &self.team {
                None => self.ctx.broadcast(root, value),
                Some(t) => t.broadcast(self.ctx, root, value),
            }
        }

        fn reduce<T: Pod>(&self, root: usize, value: T, op: impl Fn(T, T) -> T) -> Option<T> {
            match &self.team {
                None => self.ctx.reduce(root, value, op),
                Some(t) => t.reduce(self.ctx, root, value, op),
            }
        }

        fn allreduce<T: Pod>(&self, value: T, op: impl Fn(T, T) -> T) -> T {
            match &self.team {
                None => self.ctx.allreduce(value, op),
                Some(t) => t.allreduce(self.ctx, value, op),
            }
        }

        fn allgatherv<T: Pod>(&self, values: &[T]) -> Vec<T> {
            match &self.team {
                None => self.ctx.allgatherv(values),
                Some(t) => t.allgatherv(self.ctx, values),
            }
        }
    }

    /// Run `body` on every rank of an `n`-rank job, once per face; the
    /// body asserts for itself (a rank's panic fails the job).
    fn over_every_face(n: usize, body: impl Fn(&Face, Over) + Send + Sync) {
        for over in OVER {
            spmd(cfg(n), |ctx| body(&Face::new(ctx, over), over));
        }
    }

    /// Three roots, by member index: first, last, middle.
    fn roots(size: usize) -> [usize; 3] {
        [0, size - 1, size / 2]
    }

    #[test]
    fn broadcast_from_every_root() {
        for n in [1, 2, 3, 4, 6, 7, 8] {
            over_every_face(n, |g, over| {
                for root in roots(g.members().len()) {
                    let v = if g.me() == root { 4242u64 } else { 0 };
                    assert_eq!(g.broadcast(root, v), 4242, "{over:?} n={n} root={root}");
                }
            });
        }
    }

    #[test]
    fn reduce_sum_to_each_root() {
        for n in [1, 2, 5, 6, 8] {
            over_every_face(n, |g, over| {
                let members = g.members();
                let sum: u64 = members.iter().map(|&r| r as u64 + 1).sum();
                for root in roots(members.len()) {
                    let got = g.reduce(root, g.ctx.rank() as u64 + 1, |a, b| a + b);
                    let expect = (g.me() == root).then_some(sum);
                    assert_eq!(got, expect, "{over:?} n={n} root={root}");
                }
            });
        }
    }

    #[test]
    fn allreduce_min_max_and_f64_sum() {
        over_every_face(6, |g, over| {
            let (members, me) = (g.members(), g.ctx.rank() as i64);
            let (first, last) = (members[0] as i64, *members.last().unwrap() as i64);
            assert_eq!(g.allreduce(me, i64::min), first, "{over:?}");
            assert_eq!(g.allreduce(me, i64::max), last, "{over:?}");
            let halves = g.allreduce(0.5f64, |a, b| a + b);
            assert!(
                (halves - members.len() as f64 / 2.0).abs() < 1e-12,
                "{over:?}"
            );
        });
    }

    #[test]
    fn allgatherv_concatenates_in_member_order() {
        for n in [1, 3, 6] {
            over_every_face(n, |g, over| {
                let all = g.allgatherv(&[g.ctx.rank() as u64; 2]);
                let expect: Vec<u64> = g.members().iter().flat_map(|&r| [r as u64; 2]).collect();
                assert_eq!(all, expect, "{over:?} n={n}");
            });
        }
    }

    #[test]
    fn repeated_barriers_separate_phases() {
        // Every member bumps its group's counter before each barrier; after
        // it, every member must observe the whole group's bumps. Groups are
        // told apart by their first member.
        let arrived: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
        over_every_face(4, |g, over| {
            let members = g.members();
            let counter = &arrived[members[0]];
            let before = counter.load(Ordering::SeqCst);
            g.barrier();
            for round in 1..=50 {
                counter.fetch_add(1, Ordering::SeqCst);
                g.barrier();
                let seen = counter.load(Ordering::SeqCst) - before;
                assert!(seen >= round * members.len(), "{over:?} round {round}");
                g.barrier();
            }
        });
    }

    #[test]
    fn every_barrier_is_an_acquire_point_of_the_read_cache() {
        // The owner writes 7, sync, the peer reads (filling a cache line),
        // sync, the owner writes 8, sync, the peer reads again: a barrier
        // that does not invalidate the peer's cache serves it the old 7.
        for over in OVER {
            let config = RuntimeConfig::new(4)
                .segment_bytes(1 << 16)
                .with_cache(CacheConfig::new());
            let out = spmd(config, |ctx| {
                let g = Face::new(ctx, over);
                // The last member of each group owns the word; the first reads.
                let owner = *g.members().last().unwrap();
                let word = GlobalAddr::new(owner, 512);
                let mut reads = [0u64; 2];
                for (i, value) in [7u64, 8].into_iter().enumerate() {
                    if ctx.rank() == owner {
                        ctx.fabric().put_u64(owner, word, value);
                    }
                    g.barrier();
                    if g.me() == 0 {
                        reads[i] = ctx.fabric().get_u64(ctx.rank(), word);
                    }
                    g.barrier();
                }
                (g.me() == 0).then_some(reads)
            });
            for reads in out.into_iter().flatten() {
                assert_eq!(reads, [7, 8], "{over:?}");
            }
        }
    }

    #[test]
    fn gatherv_collects_in_rank_order() {
        let out = spmd(cfg(4), |ctx| {
            let payload = vec![ctx.rank() as u8; ctx.rank() + 1];
            ctx.gatherv(2, payload)
        });
        for (r, res) in out.iter().enumerate() {
            if r == 2 {
                let v = res.as_ref().unwrap();
                assert_eq!(v.len(), 4);
                for (src, b) in v.iter().enumerate() {
                    assert_eq!(b.len(), src + 1);
                    assert!(b.iter().all(|&x| x == src as u8));
                }
            } else {
                assert!(res.is_none());
            }
        }
    }

    #[test]
    fn gather_typed() {
        let out = spmd(cfg(3), |ctx| ctx.gather(0, (ctx.rank() * 7) as u64));
        assert_eq!(out[0].as_ref().unwrap(), &vec![0u64, 7, 14]);
        assert!(out[1].is_none());
    }

    #[test]
    fn exchange_routes_payloads() {
        let out = spmd(cfg(4), |ctx| {
            let me = ctx.rank() as u8;
            let input: Vec<Vec<u8>> = (0..4).map(|d| vec![me, d as u8]).collect();
            ctx.exchange(input)
        });
        for (me, received) in out.iter().enumerate() {
            for (src, payload) in received.iter().enumerate() {
                assert_eq!(payload, &vec![src as u8, me as u8]);
            }
        }
    }
}
