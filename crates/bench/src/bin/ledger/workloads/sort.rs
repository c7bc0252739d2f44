//! `sort`: the paper's sample sort (§V-C) — the only workload dominated
//! by collectives and bulk contiguous copies, around a local sort that is
//! most of the time. Runtime-only changes should leave it flat.

use super::{derive_seed, Mode, RepFn, Workload, RANKS};
use crate::span;
use rupcxx::prelude::*;
use rupcxx_apps::sample_sort::{self, SortConfig, Variant};
use rupcxx_util::Mt19937_64;

/// Keys generated per rank per rep.
pub const KEYS: usize = 1 << 21;
/// Splitter candidates per rank boundary. The issue's probe used 32, but
/// with two ranks the one splitter is then the median of 64 samples and
/// lands ±6 % off centre, seed by seed: rep time is the max over ranks,
/// so `ops_per_s` would swing ~9 % between seeds — the whole regression
/// bound. 2048 narrows the imbalance to under 1 %; the extra 4032
/// sampling reads are 0.1 % of a rep's ops.
pub const OVERSAMPLE: usize = 2048;

/// Every rep sorts a fresh key set (seeded by run seed, launch and rep
/// index). About half of each rank's 2048 sampling reads land on the
/// peer — a binomial count that moves `wire_msgs_per_op` by ±1.5 % from
/// key set to key set, against a 2 % bound. Spread over the dozens of key
/// sets of a run it averages out; pinned to one key set per seed it
/// would not.
pub struct Sort {
    seed: u64,
    launch: u64,
}

impl Sort {
    pub fn new(seed: u64, launch: u64) -> Self {
        Sort { seed, launch }
    }

    /// Key seed of this child's `rep`-th rep (warm-up included).
    fn key_seed(&self, rep: u64) -> u64 {
        derive_seed(self.seed, 0x50B7_0000 + self.launch * 4096 + rep)
    }
}

fn cfg(key_seed: u64) -> SortConfig {
    SortConfig {
        keys_per_rank: KEYS,
        oversample: OVERSAMPLE,
        variant: Variant::Upcxx,
        seed: key_seed,
    }
}

/// The generator `sample_sort::run` seeds for `rank`'s key block.
fn key_gen(key_seed: u64, rank: usize) -> Mt19937_64 {
    Mt19937_64::new(key_seed ^ (rank as u64).wrapping_mul(0x9E37_79B9))
}

impl Workload for Sort {
    fn config(&self) -> RuntimeConfig {
        RuntimeConfig::new(RANKS).segment_mib(64)
    }

    fn ops_per_rep(&self) -> u64 {
        (KEYS * RANKS) as u64
    }

    fn rank_body(&self, ctx: &Ctx, drive: &mut dyn FnMut(&mut RepFn<'_>)) {
        let mut rep = 0u64;
        let mut key_seed = 0u64;
        let mut input_checksum = 0u64;
        drive(&mut |mode| match mode {
            Mode::Prepare => {
                key_seed = self.key_seed(rep);
                rep += 1;
                // Input checksum from the key generators alone (each rank
                // sums its own block), never from the sorted data.
                let mut gen = key_gen(key_seed, ctx.rank());
                let mine = (0..KEYS).fold(0u64, |a, _| a.wrapping_add(gen.next_u64()));
                input_checksum = ctx.allreduce(mine, u64::wrapping_add);
                true
            }
            Mode::Staged => staged(ctx, key_seed) == Some(input_checksum),
            Mode::Warmup | Mode::Timed => {
                let r = sample_sort::run(ctx, &cfg(key_seed));
                r.verified && r.checksum == input_checksum
            }
        });
    }
}

/// `sample_sort::run` (`Variant::Upcxx`) replayed phase by phase under
/// spans. Returns the output checksum when the result verified.
fn staged(ctx: &Ctx, key_seed: u64) -> Option<u64> {
    let n = ctx.ranks();
    let me = ctx.rank();
    let key_count = KEYS * n;
    let keys_u = KEYS as u64;

    let keys = span::scope("core", "sa_new", 1, || {
        SharedArray::<u64>::new(ctx, key_count, KEYS)
    });
    let my_block: Vec<u64> = span::scope("apps", "sort_keygen", keys_u, || {
        let mut gen = key_gen(key_seed, me);
        (0..KEYS).map(|_| gen.next_u64()).collect()
    });
    span::scope("core", "rput_slice", keys_u, || {
        keys.base_of(me).rput_slice(ctx, &my_block)
    });
    let input_checksum = span::scope("runtime", "collectives", 2, || {
        let local = my_block.iter().fold(0u64, |a, &k| a.wrapping_add(k));
        let sum = ctx.allreduce(local, u64::wrapping_add);
        ctx.barrier();
        sum
    });

    // Phase 1: sample through the proxy, gather, pick the splitter.
    let samples = (OVERSAMPLE * n).div_ceil(n);
    let candidates: Vec<u64> = span::scope("core", "sa_read", samples as u64, || {
        let mut sampler = Mt19937_64::new(key_seed ^ 0xABCD ^ me as u64);
        (0..samples)
            .map(|_| keys.read(ctx, sampler.next_below(key_count as u64) as usize))
            .collect()
    });
    let splitters: Vec<u64> = span::scope("runtime", "collectives", 1, || {
        let mut all = ctx.allgatherv(&candidates);
        all.sort_unstable();
        (1..n).map(|r| all[r * all.len() / n]).collect()
    });

    // Phase 2: partition, announce sizes and offsets, redistribute.
    let buckets: Vec<Vec<u64>> = span::scope("apps", "sort_partition", keys_u, || {
        let mut buckets: Vec<Vec<u64>> = vec![Vec::new(); n];
        for &k in &my_block {
            buckets[splitters.partition_point(|&s| s <= k)].push(k);
        }
        buckets
    });
    let le = |v: u64| v.to_le_bytes().to_vec();
    let from_le = |b: Vec<u8>| u64::from_le_bytes(b.try_into().expect("8 bytes"));
    let (landing, landing_dir, my_offsets, my_recv_total) =
        span::scope("runtime", "collectives", 3, || {
            let incoming: Vec<u64> = ctx
                .exchange(buckets.iter().map(|b| le(b.len() as u64)).collect())
                .into_iter()
                .map(from_le)
                .collect();
            let total = incoming.iter().sum::<u64>() as usize;
            let landing = allocate::<u64>(ctx, me, total.max(1)).expect("landing zone");
            let dir: Vec<GlobalPtr<u64>> = ctx.allgatherv(&[landing]);
            let mut acc = 0u64;
            let prefix: Vec<Vec<u8>> = incoming
                .iter()
                .map(|&c| {
                    let off = acc;
                    acc += c;
                    le(off)
                })
                .collect();
            let offsets: Vec<u64> = ctx.exchange(prefix).into_iter().map(from_le).collect();
            (landing, dir, offsets, total)
        });
    span::scope("core", "rput_slice", keys_u, || {
        let done = Event::new();
        for (dst, bucket) in buckets.iter().enumerate() {
            if bucket.is_empty() {
                continue;
            }
            done.register();
            landing_dir[dst]
                .offset(my_offsets[dst] as usize)
                .rput_slice(ctx, bucket);
            done.signal();
        }
        done.wait(ctx);
        async_copy_fence(ctx);
    });
    span::scope("runtime", "barrier", 1, || ctx.barrier());

    // Phase 3: local sort out of the landing zone.
    let mine = span::scope("apps", "sort_local", my_recv_total as u64, || {
        let mut mine = landing.local_slice(ctx, my_recv_total).to_vec();
        mine.sort_unstable();
        mine
    });
    span::scope("runtime", "barrier", 1, || ctx.barrier());

    // Verification, as `run` does it.
    let verified = span::scope("apps", "sort_verify", keys_u, || {
        let _ = ctx.allreduce(0.0f64, f64::max);
        let locally_sorted = mine.windows(2).all(|w| w[0] <= w[1]);
        let my_min = mine.first().copied().unwrap_or(u64::MAX);
        let my_max = mine.last().copied().unwrap_or(0);
        let maxes = ctx.allgatherv(&[my_max, u64::from(!mine.is_empty())]);
        let mins = ctx.allgatherv(&[my_min]);
        let mut boundaries_ok = true;
        let mut prev_max: Option<u64> = None;
        for r in 0..n {
            if maxes[2 * r + 1] != 1 {
                continue;
            }
            if let Some(pm) = prev_max {
                boundaries_ok &= pm <= mins[r];
            }
            prev_max = Some(maxes[2 * r]);
        }
        let out_local = mine.iter().fold(0u64, |a, &k| a.wrapping_add(k));
        let out_checksum = ctx.allreduce(out_local, u64::wrapping_add);
        let total_out = ctx.allreduce(mine.len() as u64, |a, b| a + b);
        let ordered = ctx.allreduce(
            u64::from(locally_sorted) & u64::from(boundaries_ok),
            |a, b| a & b,
        ) == 1;
        (ordered && out_checksum == input_checksum && total_out == key_count as u64)
            .then_some(out_checksum)
    });
    span::scope("core", "sa_destroy", 1, || {
        ctx.barrier();
        deallocate(ctx, landing);
        keys.destroy(ctx);
    });
    verified
}
