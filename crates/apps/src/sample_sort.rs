//! Sample Sort — paper §V-C.
//!
//! Sorts a distributed array of 64-bit keys generated by the Mersenne
//! Twister: sample the key space to find splitters, redistribute keys by
//! splitter range with non-blocking one-sided puts, then local-sort.
//!
//! The paper's sampling loop reads random elements of the shared key
//! array through the PGAS abstraction:
//!
//! ```c
//! for (i = 0; i < candidate_count; i++) {
//!     uint64_t s = genrand_uint64() % key_count;
//!     candidates[i] = keys[s]; // global accesses
//! }
//! ```
//!
//! [`Variant::Upcxx`] performs exactly those `SharedArray` reads;
//! [`Variant::UpcDirect`] uses the direct pre-resolved path (the UPC
//! baseline). The redistribution and local sort are identical, so — as in
//! the paper — the two curves nearly coincide.
//!
//! # A key is written three times
//! 1. **Generated into the shared array.** The rank's own block is
//!    privatized (`local_slice_mut`) from the array's creation to the
//!    barrier that opens sampling: nobody else knows the array yet, and
//!    the barrier publishes the keys to the sampling reads.
//! 2. **Scattered into one partition buffer**, sized exactly: a counting
//!    pass finds every destination's share, a second pass places each key
//!    in its destination's sub-slice. The block is read through
//!    `local_slice` here — sampling only reads, so there is no writer.
//! 3. **Put into the destination's landing zone**, each sub-slice handed
//!    to `rput_slice` (or key by key to `rput_agg`) as it lies; the
//!    fabric moves the caller's bytes, no staging copy.
//!
//! The landing zone is then sorted **in place**, privatized between the
//! barrier that closes the redistribution (every put has landed) and the
//! one that ends the timed region (nobody reads a neighbour's zone before
//! it). Verification reads it through a shared `local_slice` afterwards.

use rupcxx::prelude::*;
use rupcxx_util::{Mt19937_64, Timer};

/// Sampling access path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Variant {
    /// `SharedArray` proxy accesses (UPC++ curve).
    Upcxx,
    /// Proxy sampling plus a fine-grained key exchange: redistribution
    /// sends each key as an individual 8-byte put eligible for
    /// per-destination aggregation (`RuntimeConfig::with_agg` /
    /// `RUPCXX_AGG`), closed by an aggregation fence. Without aggregation
    /// this degenerates to one put per key — the traffic pattern the
    /// batching layer exists to fix.
    UpcxxAgg,
    /// Direct path (UPC curve): pre-resolved per-rank base pointers with
    /// inlined block arithmetic, no proxy or bounds check.
    UpcDirect,
}

/// Benchmark parameters.
#[derive(Clone, Copy, Debug)]
pub struct SortConfig {
    /// Keys generated per rank.
    pub keys_per_rank: usize,
    /// Splitter candidates sampled per rank boundary (oversampling
    /// factor; 32–128 gives good balance).
    pub oversample: usize,
    /// Sampling access path.
    pub variant: Variant,
    /// RNG seed.
    pub seed: u64,
}

/// Result of a sort run.
#[derive(Clone, Debug)]
pub struct SortResult {
    /// Wall seconds (max over ranks).
    pub seconds: f64,
    /// Aggregate sorted terabytes per minute.
    pub tb_per_min: f64,
    /// Whether the distributed output is globally sorted and a
    /// permutation of the input.
    pub verified: bool,
    /// Number of keys this rank holds after redistribution.
    pub my_keys: usize,
    /// Global wrapping sum of the output keys — equal across ranks and
    /// equal to the input checksum when the sort is correct. Exposed so
    /// chaos tests can compare faulty runs bit-for-bit against clean ones.
    pub checksum: u64,
}

/// Run sample sort collectively.
pub fn run(ctx: &Ctx, cfg: &SortConfig) -> SortResult {
    let n = ctx.ranks();
    let me = ctx.rank();
    let key_count = cfg.keys_per_rank * n;

    // Generate this rank's block of keys straight into the shared array:
    // privatized until the barrier below publishes it.
    let keys = SharedArray::<u64>::new(ctx, key_count, cfg.keys_per_rank);
    let mut gen = Mt19937_64::new(cfg.seed ^ (me as u64).wrapping_mul(0x9E37_79B9));
    let base = keys.base_of(me);
    let my_block = base.local_slice_mut(ctx, cfg.keys_per_rank);
    my_block.fill_with(|| gen.next_u64());
    let input_checksum_local = my_block.iter().fold(0u64, |a, &k| a.wrapping_add(k));
    let input_checksum = ctx.allreduce(input_checksum_local, u64::wrapping_add);
    // Pre-resolved base pointers for the UPC-direct sampling path: one
    // whole block per rank, so element i lives at bases[i / bs] + i % bs.
    let bases: Vec<GlobalPtr<u64>> = (0..n).map(|r| keys.base_of(r)).collect();
    let bs = cfg.keys_per_rank;
    ctx.barrier();
    let t = Timer::start();

    // --- Phase 1: sample the key space to find the splitters. ---
    let candidate_count = cfg.oversample * n;
    let mut sampler = Mt19937_64::new(cfg.seed ^ 0xABCD ^ me as u64);
    let mut candidates = Vec::with_capacity(candidate_count / n + 1);
    // Each rank samples its share of the candidates via global accesses.
    for _ in 0..candidate_count.div_ceil(n) {
        let s = sampler.next_below(key_count as u64) as usize;
        let v = match cfg.variant {
            Variant::Upcxx | Variant::UpcxxAgg => keys.read(ctx, s),
            Variant::UpcDirect => bases[s / bs].offset(s % bs).rget(ctx),
        };
        candidates.push(v);
    }
    // Gather all candidates everywhere, sort, pick n-1 splitters.
    let mut all_candidates = ctx.allgatherv(&candidates);
    all_candidates.sort_unstable();
    let splitters: Vec<u64> = (1..n)
        .map(|r| all_candidates[r * all_candidates.len() / n])
        .collect();

    // --- Phase 2: partition and redistribute (one-sided). ---
    // Count, then scatter: `partitioned[starts[d]..starts[d + 1]]` holds
    // the keys bound for rank `d`, in block order.
    let my_block = base.local_slice(ctx, cfg.keys_per_rank);
    let dst_of = |k: u64| splitters.partition_point(|&s| s <= k);
    let mut counts = vec![0u64; n];
    for &k in my_block {
        counts[dst_of(k)] += 1;
    }
    let mut starts = Vec::with_capacity(n + 1);
    starts.push(0usize);
    for &c in &counts {
        starts.push(starts[starts.len() - 1] + c as usize);
    }
    let mut partitioned = vec![0u64; my_block.len()];
    let mut next = starts.clone();
    for &k in my_block {
        let dst = dst_of(k);
        partitioned[next[dst]] = k;
        next[dst] += 1;
    }
    let bucket = |dst: usize| &partitioned[starts[dst]..starts[dst + 1]];
    // Announce bucket sizes: counts[src][dst] via all-to-all.
    let counts_in: Vec<Vec<u64>> = ctx
        .exchange(counts.iter().map(|&c| c.to_le_bytes().to_vec()).collect())
        .into_iter()
        .map(|b| vec![u64::from_le_bytes(b.try_into().expect("8 bytes"))])
        .collect();
    let incoming: Vec<u64> = counts_in.into_iter().map(|v| v[0]).collect();
    let my_recv_total: usize = incoming.iter().sum::<u64>() as usize;

    // Landing zone sized for the incoming keys; publish base pointers.
    let landing = allocate::<u64>(ctx, me, my_recv_total.max(1)).expect("landing zone");
    let landing_dir: Vec<GlobalPtr<u64>> = ctx.allgatherv(&[landing]).into_iter().collect();
    // Offsets: receiver r stores src s's keys at sum of incoming[<s]).
    // Each sender needs its write offset at every receiver: exchange the
    // per-source prefix offsets.
    let my_prefix: Vec<u64> = {
        let mut acc = 0u64;
        incoming
            .iter()
            .map(|&c| {
                let off = acc;
                acc += c;
                off
            })
            .collect()
    };
    // Send to each src its offset at me.
    let offsets_out: Vec<Vec<u8>> = my_prefix
        .iter()
        .map(|&o| o.to_le_bytes().to_vec())
        .collect();
    let my_offsets: Vec<u64> = ctx
        .exchange(offsets_out)
        .into_iter()
        .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
        .collect();

    if cfg.variant == Variant::UpcxxAgg {
        // Fine-grained exchange: one 8-byte put per key, coalesced per
        // destination by the aggregation layer; the fence guarantees
        // every key landed before the local-sort phase reads them.
        for dst in 0..n {
            let target = landing_dir[dst].offset(my_offsets[dst] as usize);
            for (j, &k) in bucket(dst).iter().enumerate() {
                target.offset(j).rput_agg(ctx, k);
            }
        }
        ctx.agg_fence();
    } else {
        // Non-blocking one-sided puts of each bucket into its destination.
        let done = Event::new();
        for dst in 0..n {
            if bucket(dst).is_empty() {
                continue;
            }
            let target = landing_dir[dst].offset(my_offsets[dst] as usize);
            done.register();
            target.rput_slice(ctx, bucket(dst));
            done.signal();
        }
        done.wait(ctx);
        async_copy_fence(ctx);
    }
    ctx.barrier();

    // --- Phase 3: local sort. ---
    // The barrier above made every delivered key visible; privatize the
    // landing zone and sort it where it lies, until the barrier below.
    landing.local_slice_mut(ctx, my_recv_total).sort_unstable();
    ctx.barrier();
    let seconds = ctx.allreduce(t.seconds(), f64::max);
    let mine = landing.local_slice(ctx, my_recv_total);

    // --- Verification ---
    let locally_sorted = mine.windows(2).all(|w| w[0] <= w[1]);
    let my_min = mine.first().copied().unwrap_or(u64::MAX);
    let my_max = mine.last().copied().unwrap_or(0);
    // Boundary order: max of rank r ≤ min of rank r+1 (empty ranks skip).
    let maxes = ctx.allgatherv(&[my_max, u64::from(!mine.is_empty())]);
    let mins = ctx.allgatherv(&[my_min]);
    let mut boundaries_ok = true;
    let mut prev_max: Option<u64> = None;
    for r in 0..n {
        let nonempty = maxes[2 * r + 1] == 1;
        if !nonempty {
            continue;
        }
        if let Some(pm) = prev_max {
            boundaries_ok &= pm <= mins[r];
        }
        prev_max = Some(maxes[2 * r]);
    }
    let out_checksum_local = mine.iter().fold(0u64, |a, &k| a.wrapping_add(k));
    let out_checksum = ctx.allreduce(out_checksum_local, u64::wrapping_add);
    let total_out = ctx.allreduce(mine.len() as u64, |a, b| a + b);
    let verified = ctx.allreduce(
        u64::from(locally_sorted) & u64::from(boundaries_ok),
        |a, b| a & b,
    ) == 1
        && out_checksum == input_checksum
        && total_out == key_count as u64;

    let total_bytes = (key_count * 8) as f64;
    let tb_per_min = total_bytes / seconds / 1e12 * 60.0;

    ctx.barrier();
    deallocate(ctx, landing);
    keys.destroy(ctx);
    SortResult {
        seconds,
        tb_per_min,
        verified,
        my_keys: my_recv_total,
        checksum: out_checksum,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rupcxx_runtime::{spmd, RuntimeConfig};

    fn cfg_rt(n: usize) -> RuntimeConfig {
        RuntimeConfig::new(n).segment_mib(4)
    }

    #[test]
    fn sorts_correctly_upcxx_4_ranks() {
        let out = spmd(cfg_rt(4), |ctx| {
            run(
                ctx,
                &SortConfig {
                    keys_per_rank: 5000,
                    oversample: 32,
                    variant: Variant::Upcxx,
                    seed: 42,
                },
            )
        });
        assert!(out.iter().all(|r| r.verified), "{out:?}");
        let total: usize = out.iter().map(|r| r.my_keys).sum();
        assert_eq!(total, 20000);
        // Oversampled splitters keep imbalance moderate.
        let max = out.iter().map(|r| r.my_keys).max().unwrap();
        assert!(max < 3 * 5000, "imbalance too high: {max}");
    }

    #[test]
    fn sorts_correctly_direct_2_ranks() {
        let out = spmd(cfg_rt(2), |ctx| {
            run(
                ctx,
                &SortConfig {
                    keys_per_rank: 2000,
                    oversample: 16,
                    variant: Variant::UpcDirect,
                    seed: 7,
                },
            )
        });
        assert!(out.iter().all(|r| r.verified));
    }

    #[test]
    fn aggregated_key_exchange_matches_bulk_path() {
        use rupcxx_net::AggConfig;
        let sort_cfg = SortConfig {
            keys_per_rank: 2000,
            oversample: 16,
            variant: Variant::Upcxx,
            seed: 42,
        };
        let bulk = spmd(cfg_rt(3), move |ctx| run(ctx, &sort_cfg));
        let agg_sort = SortConfig {
            variant: Variant::UpcxxAgg,
            ..sort_cfg
        };
        let agg = spmd(cfg_rt(3).with_agg(AggConfig::new()), move |ctx| {
            run(ctx, &agg_sort)
        });
        assert!(agg.iter().all(|r| r.verified), "{agg:?}");
        // Same seed + same splitter sampling → identical distribution.
        assert_eq!(bulk[0].checksum, agg[0].checksum);
        for (b, a) in bulk.iter().zip(&agg) {
            assert_eq!(b.my_keys, a.my_keys);
        }
    }

    #[test]
    fn single_rank_sort() {
        let out = spmd(cfg_rt(1), |ctx| {
            run(
                ctx,
                &SortConfig {
                    keys_per_rank: 1000,
                    oversample: 8,
                    variant: Variant::Upcxx,
                    seed: 1,
                },
            )
        });
        assert!(out[0].verified);
        assert_eq!(out[0].my_keys, 1000);
    }

    #[test]
    fn non_pow2_ranks_upcxx_path() {
        let out = spmd(cfg_rt(3), |ctx| {
            run(
                ctx,
                &SortConfig {
                    keys_per_rank: 3000,
                    oversample: 16,
                    variant: Variant::Upcxx,
                    seed: 99,
                },
            )
        });
        assert!(out.iter().all(|r| r.verified));
    }
}
