//! `get_word` and `get_cached`: the read side. `get_word` is the mirror
//! of `gups_word` (blocking remote word reads, cache off), so a put-path
//! gain that taxes gets shows here; `get_cached` is the only workload
//! that runs through the software read cache.

use super::{derive_seed, table_value, Mode, RepFn, Workload, RANKS};
use crate::span;
use rupcxx::prelude::*;
use rupcxx_net::CacheConfig;
use rupcxx_util::SplitMix64;

/// Reads per rank per rep, both workloads.
pub const READS: usize = 1 << 21;
/// Reads per span batch of the staged replays.
const STAGE_BATCH: usize = 1024;

/// Build a blocked table of `block` words per rank holding
/// [`table_value`] everywhere.
fn blocked_table(ctx: &Ctx, block: usize) -> SharedArray<u64> {
    let table = SharedArray::<u64>::new(ctx, block * RANKS, block);
    for (slot, i) in table
        .local_slice_mut(ctx)
        .iter_mut()
        .zip(table.my_indices(ctx))
    {
        *slot = table_value(i);
    }
    ctx.barrier();
    table
}

/// Blocking `read`s at seeded-random indices of the peer's block.
pub struct GetWord {
    seed: u64,
}

/// Words per rank (2^16 in total, the `gups_word` table).
const WORD_BLOCK: usize = 1 << 15;

impl GetWord {
    pub fn new(seed: u64) -> Self {
        GetWord { seed }
    }

    /// This rank's index stream: uniform over the peer's block.
    fn stream(&self, rank: usize) -> impl FnMut() -> usize {
        let mut rng = SplitMix64::new(derive_seed(self.seed, 0x6E7 + rank as u64));
        let base = (1 - rank) * WORD_BLOCK;
        move || base + (rng.next_u64() as usize & (WORD_BLOCK - 1))
    }
}

impl Workload for GetWord {
    fn config(&self) -> RuntimeConfig {
        RuntimeConfig::new(RANKS).segment_mib(16)
    }

    fn ops_per_rep(&self) -> u64 {
        (READS * RANKS) as u64
    }

    fn rank_body(&self, ctx: &Ctx, drive: &mut dyn FnMut(&mut RepFn<'_>)) {
        let me = ctx.rank();
        let table = blocked_table(ctx, WORD_BLOCK);
        // Closed form of the index stream: replay it without the table.
        let expected = {
            let mut next = self.stream(me);
            (0..READS).fold(0u64, |a, _| a.wrapping_add(table_value(next())))
        };
        drive(&mut |mode| {
            if mode == Mode::Prepare {
                return true;
            }
            let mut next = self.stream(me);
            let mut fold = 0u64;
            if mode == Mode::Staged {
                let mut idx = vec![0usize; STAGE_BATCH];
                let mut ptrs = vec![table.ptr(0); STAGE_BATCH];
                let batch = STAGE_BATCH as u64;
                for _ in 0..READS / STAGE_BATCH {
                    span::scope("apps", "index_rng", batch, || {
                        idx.iter_mut().for_each(|i| *i = next());
                    });
                    span::scope("core", "sa_ptr", batch, || {
                        for (p, &i) in ptrs.iter_mut().zip(&idx) {
                            *p = table.ptr(i);
                        }
                    });
                    span::scope("net.fabric", "get_u64", batch, || {
                        for p in &ptrs {
                            fold = fold.wrapping_add(ctx.fabric().get_u64(me, p.addr()));
                        }
                    });
                }
            } else {
                for _ in 0..READS {
                    fold = fold.wrapping_add(table.read(ctx, next()));
                }
            }
            fold == expected
        });
        table.destroy(ctx);
    }
}

/// Sequential sweeps of the peer's block through the read cache, with a
/// barrier (sync-point invalidation) every fourth sweep.
pub struct GetCached;

/// Words per rank: 1 MiB, exactly the default cache capacity.
const CACHED_BLOCK: usize = 1 << 17;
const SWEEPS: usize = READS / CACHED_BLOCK;
const SWEEPS_PER_SYNC: usize = 4;

impl Workload for GetCached {
    fn config(&self) -> RuntimeConfig {
        RuntimeConfig::new(RANKS)
            .segment_mib(16)
            .with_cache(CacheConfig::new())
    }

    fn ops_per_rep(&self) -> u64 {
        (READS * RANKS) as u64
    }

    fn rank_body(&self, ctx: &Ctx, drive: &mut dyn FnMut(&mut RepFn<'_>)) {
        let me = ctx.rank();
        let table = blocked_table(ctx, CACHED_BLOCK);
        let peer_block = (1 - me) * CACHED_BLOCK..(2 - me) * CACHED_BLOCK;
        let one_sweep = peer_block
            .clone()
            .fold(0u64, |a, i| a.wrapping_add(table_value(i)));
        let expected = one_sweep.wrapping_mul(SWEEPS as u64);
        drive(&mut |mode| {
            if mode == Mode::Prepare {
                return true;
            }
            let mut fold = 0u64;
            for sweep in 0..SWEEPS {
                if sweep > 0 && sweep % SWEEPS_PER_SYNC == 0 {
                    span::scope("runtime", "barrier", 1, || ctx.barrier());
                }
                if mode == Mode::Staged {
                    // The first sweep after a sync point misses once per
                    // line and hits for the rest of it; later sweeps only
                    // hit. The span name says which.
                    let name = if sweep % SWEEPS_PER_SYNC == 0 {
                        "fill_sweep"
                    } else {
                        "hit_sweep"
                    };
                    let mut ptrs = vec![table.ptr(0); STAGE_BATCH];
                    for chunk in peer_block.clone().step_by(STAGE_BATCH) {
                        span::scope("core", "sa_ptr", STAGE_BATCH as u64, || {
                            for (k, p) in ptrs.iter_mut().enumerate() {
                                *p = table.ptr(chunk + k);
                            }
                        });
                        span::scope("net.cache", name, STAGE_BATCH as u64, || {
                            for p in &ptrs {
                                fold = fold.wrapping_add(ctx.fabric().get_u64(me, p.addr()));
                            }
                        });
                    }
                } else {
                    for i in peer_block.clone() {
                        fold = fold.wrapping_add(table.read(ctx, i));
                    }
                }
            }
            fold == expected
        });
        table.destroy(ctx);
    }
}
