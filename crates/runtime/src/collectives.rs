//! Collective operations over active messages.
//!
//! The runtime implements the collectives the paper's benchmarks need:
//! binomial-tree broadcast and reduce (MPICH-style algorithms), allreduce,
//! rooted gather(v), and all-to-all exchange. All are built on a single
//! primitive — *deposit* a byte payload into the destination rank's
//! mailbox under a sequence key — which maps one-to-one onto AM traffic,
//! so the perf model sees realistic message counts.
//!
//! SPMD discipline: every rank must call the same collectives in the same
//! order (the usual MPI rule); sequence numbers are per-rank counters that
//! therefore agree across ranks.

use crate::ctx::Ctx;
use rupcxx_net::{pod, Pod, Rank};

/// Compose a mailbox key from the collective sequence number and a
/// sub-round tag (binomial round / barrier round).
fn coll_key(seq: u64, sub: u64) -> u64 {
    debug_assert!(sub < 1024);
    seq * 1024 + sub
}

/// The world team's mailbox domain.
pub(crate) const WORLD_DOMAIN: u64 = 0;

/// Deposit `bytes` into `dst`'s mailbox under `(domain, key)` (AM when
/// remote).
pub(crate) fn deposit(ctx: &Ctx, domain: u64, dst: Rank, key: u64, bytes: Vec<u8>) {
    let me = ctx.rank();
    if dst == me {
        ctx.shared().own[me].mailbox.deposit(domain, key, me, bytes);
        return;
    }
    // Multi-process jobs cannot ship a boxed closure: use the registered
    // builtin deposit handler, whose id + packed args cross the wire.
    if let Some(b) = ctx.shared().builtins {
        let mut args = Vec::with_capacity(16 + bytes.len());
        args.extend_from_slice(&domain.to_le_bytes());
        args.extend_from_slice(&key.to_le_bytes());
        args.extend_from_slice(&bytes);
        ctx.send_handler(dst, b.deposit, rupcxx_util::Bytes::from(args));
        return;
    }
    ctx.send_task_with_ctx(dst, move |target| {
        target.shared().own[dst]
            .mailbox
            .deposit(domain, key, me, bytes);
    });
}

/// Wait for `count` arrivals under `(domain, key)` in this rank's
/// mailbox, then remove and return them.
pub(crate) fn collect(ctx: &Ctx, domain: u64, key: u64, count: usize) -> Vec<(Rank, Vec<u8>)> {
    let me = ctx.rank();
    ctx.wait_until(|| ctx.shared().own[me].mailbox.arrived(domain, key) >= count);
    ctx.shared().own[me].mailbox.take(domain, key)
}

impl Ctx {
    /// Binomial-tree broadcast of a Pod value from `root` to all ranks.
    pub fn broadcast<T: Pod>(&self, root: Rank, value: T) -> T {
        let bytes = self.broadcast_bytes(root, value.to_bytes());
        T::read_from(&bytes)
    }

    /// Broadcast a byte payload from `root` (binomial tree).
    pub fn broadcast_bytes(&self, root: Rank, value: Vec<u8>) -> Vec<u8> {
        let n = self.ranks();
        let seq = self.shared().next_coll_seq(self.rank());
        if n == 1 {
            return value;
        }
        let rel = (self.rank() + n - root) % n;
        let mut payload = value;
        // Receive phase: wait for the message from the parent.
        let mut mask = 1usize;
        while mask < n {
            if rel & mask != 0 {
                let key = coll_key(seq, mask.trailing_zeros() as u64);
                let mut arrivals = collect(self, WORLD_DOMAIN, key, 1);
                payload = arrivals.pop().expect("broadcast arrival").1;
                break;
            }
            mask <<= 1;
        }
        // Send phase: forward to children at decreasing masks.
        mask >>= 1;
        while mask > 0 {
            if rel & mask == 0 && rel + mask < n {
                let dst = (rel + mask + root) % n;
                let key = coll_key(seq, mask.trailing_zeros() as u64);
                deposit(self, WORLD_DOMAIN, dst, key, payload.clone());
            }
            mask >>= 1;
        }
        payload
    }

    /// Binomial-tree reduction of a Pod value to `root`. Returns
    /// `Some(result)` at the root and `None` elsewhere. `op` must be
    /// associative and commutative.
    pub fn reduce<T: Pod>(&self, root: Rank, value: T, op: impl Fn(T, T) -> T) -> Option<T> {
        let n = self.ranks();
        let seq = self.shared().next_coll_seq(self.rank());
        if n == 1 {
            return Some(value);
        }
        let rel = (self.rank() + n - root) % n;
        let mut acc = value;
        let mut mask = 1usize;
        while mask < n {
            if rel & mask != 0 {
                // Send accumulated value to the parent and stop.
                let dst = (rel - mask + root) % n;
                let key = coll_key(seq, mask.trailing_zeros() as u64);
                deposit(self, WORLD_DOMAIN, dst, key, acc.to_bytes());
                return None;
            }
            if rel + mask < n {
                // Receive the child's contribution and fold it in.
                let key = coll_key(seq, mask.trailing_zeros() as u64);
                let mut arrivals = collect(self, WORLD_DOMAIN, key, 1);
                let contrib = T::read_from(&arrivals.pop().expect("reduce arrival").1);
                acc = op(acc, contrib);
            }
            mask <<= 1;
        }
        Some(acc)
    }

    /// Allreduce: binomial reduce to rank 0, then binomial broadcast.
    pub fn allreduce<T: Pod>(&self, value: T, op: impl Fn(T, T) -> T) -> T {
        let reduced = self.reduce(0, value, op);
        // Non-roots pass a placeholder; broadcast overwrites it.
        self.broadcast(0, reduced.unwrap_or(value))
    }

    /// Gather variable-size byte payloads at `root`. Returns
    /// `Some(payloads_by_rank)` at the root, `None` elsewhere — the paper's
    /// `gatherv` (used by the Embree benchmark's final image gather).
    pub fn gatherv(&self, root: Rank, bytes: Vec<u8>) -> Option<Vec<Vec<u8>>> {
        let n = self.ranks();
        let seq = self.shared().next_coll_seq(self.rank());
        let key = coll_key(seq, 0);
        deposit(self, WORLD_DOMAIN, root, key, bytes);
        if self.rank() != root {
            return None;
        }
        let mut arrivals = collect(self, WORLD_DOMAIN, key, n);
        arrivals.sort_by_key(|&(src, _)| src);
        Some(arrivals.into_iter().map(|(_, b)| b).collect())
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
        let n = self.ranks();
        assert_eq!(input.len(), n, "exchange needs one payload per rank");
        let seq = self.shared().next_coll_seq(self.rank());
        let key = coll_key(seq, 0);
        for (dst, payload) in input.into_iter().enumerate() {
            deposit(self, WORLD_DOMAIN, dst, key, payload);
        }
        let mut arrivals = collect(self, WORLD_DOMAIN, key, n);
        arrivals.sort_by_key(|&(src, _)| src);
        arrivals.into_iter().map(|(_, b)| b).collect()
    }

    /// All-gather a slice of Pod values: every rank contributes `values`,
    /// every rank receives all contributions concatenated in rank order.
    pub fn allgatherv<T: Pod>(&self, values: &[T]) -> Vec<T> {
        let n = self.ranks();
        let payload = pod::pack_slice(values);
        let input = vec![payload; n];
        let out = self.exchange(input);
        let mut all = Vec::new();
        for b in out {
            all.extend(pod::unpack_slice::<T>(&b));
        }
        all
    }
}

#[cfg(test)]
mod tests {
    use crate::spmd::spmd;
    use crate::RuntimeConfig;

    fn cfg(n: usize) -> RuntimeConfig {
        RuntimeConfig::new(n).segment_bytes(4096)
    }

    #[test]
    fn broadcast_from_every_root() {
        for n in [1, 2, 3, 4, 7, 8] {
            for root in [0, n - 1, n / 2] {
                let out = spmd(cfg(n), move |ctx| {
                    let v = if ctx.rank() == root { 4242u64 } else { 0 };
                    ctx.broadcast(root, v)
                });
                assert!(out.iter().all(|&v| v == 4242), "n={n} root={root}");
            }
        }
    }

    #[test]
    fn reduce_sum_to_each_root() {
        for n in [1, 2, 5, 8] {
            for root in [0, n - 1] {
                let out = spmd(cfg(n), move |ctx| {
                    ctx.reduce(root, ctx.rank() as u64 + 1, |a, b| a + b)
                });
                let expect = (n * (n + 1) / 2) as u64;
                for (r, v) in out.iter().enumerate() {
                    if r == root {
                        assert_eq!(*v, Some(expect), "n={n} root={root}");
                    } else {
                        assert_eq!(*v, None);
                    }
                }
            }
        }
    }

    #[test]
    fn allreduce_min_and_max() {
        let out = spmd(cfg(6), |ctx| {
            let lo = ctx.allreduce(ctx.rank() as i64, i64::min);
            let hi = ctx.allreduce(ctx.rank() as i64, i64::max);
            (lo, hi)
        });
        assert!(out.iter().all(|&(lo, hi)| lo == 0 && hi == 5));
    }

    #[test]
    fn allreduce_f64_sum() {
        let out = spmd(cfg(4), |ctx| ctx.allreduce(0.5f64, |a, b| a + b));
        assert!(out.iter().all(|&v| (v - 2.0).abs() < 1e-12));
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

    #[test]
    fn allgatherv_concatenates() {
        let out = spmd(cfg(3), |ctx| {
            let vals = vec![ctx.rank() as u64; 2];
            ctx.allgatherv(&vals)
        });
        for v in out {
            assert_eq!(v, vec![0, 0, 1, 1, 2, 2]);
        }
    }
}
