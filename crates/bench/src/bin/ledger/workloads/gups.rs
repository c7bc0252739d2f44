//! `gups_word` / `gups_agg`: the paper's headline app (§V-A) on a table
//! that fits one core's L2, so the software path — not DRAM — dominates.

use super::{Mode, RepFn, Workload, RANKS};
use crate::span;
use rupcxx::prelude::*;
use rupcxx_apps::gups::{self, GupsConfig, Variant};
use rupcxx_net::AggConfig;
use rupcxx_util::GupsRng;

/// Table words (512 KiB: inside one core's 2 MiB L2).
pub const TABLE_WORDS: usize = 1 << 16;
/// Updates per rank per rep.
pub const UPDATES: usize = 1 << 21;
/// Updates per span batch of the staged replay.
const STAGE_BATCH: usize = 1024;

pub struct Gups {
    variant: Variant,
}

impl Gups {
    pub fn word() -> Self {
        Gups {
            variant: Variant::Upcxx,
        }
    }

    pub fn agg() -> Self {
        Gups {
            variant: Variant::UpcxxAgg,
        }
    }

    fn cfg(&self, verify: bool) -> GupsConfig {
        GupsConfig {
            table_size: TABLE_WORDS,
            updates_per_rank: UPDATES,
            variant: self.variant,
            verify,
        }
    }
}

/// Table checksum after every rank's stream, from a serial replay that
/// never touches the runtime. GUPS uses the fixed HPCC stream, so this is
/// the one workload whose inputs do not depend on the seed.
pub fn serial_checksum(table_words: usize, updates_per_rank: usize, ranks: usize) -> u64 {
    let mut table: Vec<u64> = (0..table_words as u64).collect();
    let mask = table_words - 1;
    for rank in 0..ranks {
        let mut rng = GupsRng::starting_at((rank * updates_per_rank) as i64);
        for _ in 0..updates_per_rank {
            let ran = rng.next_u64();
            table[ran as usize & mask] ^= ran;
        }
    }
    table.iter().fold(0u64, |a, &v| a.wrapping_add(v))
}

impl Workload for Gups {
    fn config(&self) -> RuntimeConfig {
        let cfg = RuntimeConfig::new(RANKS).segment_mib(16);
        match self.variant {
            Variant::UpcxxAgg => cfg.with_agg(AggConfig::new()),
            _ => cfg,
        }
    }

    fn ops_per_rep(&self) -> u64 {
        (UPDATES * RANKS) as u64
    }

    fn rank_body(&self, ctx: &Ctx, drive: &mut dyn FnMut(&mut RepFn<'_>)) {
        let expected = serial_checksum(TABLE_WORDS, UPDATES, RANKS);
        drive(&mut |mode| match mode {
            Mode::Prepare => true,
            Mode::Warmup => {
                let r = gups::run(ctx, &self.cfg(true));
                r.verified && r.checksum == expected
            }
            Mode::Timed => gups::run(ctx, &self.cfg(false)).checksum == expected,
            Mode::Staged => self.staged(ctx) == expected,
        });
    }
}

impl Gups {
    /// `gups::run` replayed stage by stage: the same table, stream and
    /// calls, but each stage of the per-update chain runs over a batch
    /// of updates under its own span. Returns the table checksum.
    fn staged(&self, ctx: &Ctx) -> u64 {
        let me = ctx.rank();
        let mask = TABLE_WORDS - 1;
        let table = span::scope("core", "sa_new", 1, || {
            SharedArray::<u64>::new(ctx, TABLE_WORDS, 1)
        });
        span::scope("apps", "gups_init", 1, || {
            for (slot, i) in table
                .local_slice_mut(ctx)
                .iter_mut()
                .zip(table.my_indices(ctx))
            {
                *slot = i as u64;
            }
        });
        span::scope("runtime", "barrier", 1, || ctx.barrier());

        let mut rng = GupsRng::starting_at((me * UPDATES) as i64);
        let mut rans = vec![0u64; STAGE_BATCH];
        let mut ptrs = vec![table.ptr(0); STAGE_BATCH];
        let batch = STAGE_BATCH as u64;
        for _ in 0..UPDATES / STAGE_BATCH {
            span::scope("apps", "gups_rng", batch, || {
                for r in rans.iter_mut() {
                    *r = rng.next_u64();
                }
            });
            span::scope("core", "sa_ptr", batch, || {
                for (p, &r) in ptrs.iter_mut().zip(&rans) {
                    *p = table.ptr(r as usize & mask);
                }
            });
            match self.variant {
                Variant::UpcxxAgg => span::scope("net.aggregate", "pack", batch, || {
                    for (p, &r) in ptrs.iter().zip(&rans) {
                        ctx.fabric().xor_u64_buffered(me, p.addr(), r);
                    }
                }),
                _ => span::scope("net.fabric", "xor_u64", batch, || {
                    for (p, &r) in ptrs.iter().zip(&rans) {
                        ctx.fabric().xor_u64(me, p.addr(), r);
                    }
                }),
            }
        }
        if self.variant == Variant::UpcxxAgg {
            // `agg_fence` taken apart. Nobody drives progress during the
            // pack loop, so the peer's batches sit in this rank's inbox
            // until the fence's first barrier drains them (inbox pop →
            // advance → apply_frame): that barrier plus the quiescence
            // wait *is* the delivery stage.
            span::scope("net.aggregate", "flush", 1, || ctx.agg_flush());
            span::scope("net.aggregate", "deliver", UPDATES as u64, || {
                ctx.barrier();
                ctx.wait_until(|| {
                    ctx.fabric().links_quiescent(me) && ctx.fabric().endpoint(me).pending() == 0
                })
            });
            span::scope("runtime", "barrier", 1, || ctx.barrier());
        }
        span::scope("runtime", "barrier", 1, || ctx.barrier());

        let checksum = span::scope("runtime", "allreduce", 2, || {
            // `run` reduces the slowest rank's time, then the checksum.
            let _ = ctx.allreduce(0.0f64, f64::max);
            let local = table
                .local_slice(ctx)
                .iter()
                .fold(0u64, |a, &v| a.wrapping_add(v));
            ctx.allreduce(local, u64::wrapping_add)
        });
        span::scope("core", "sa_destroy", 1, || table.destroy(ctx));
        checksum
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_checksum_is_an_involution_fixpoint() {
        // Applying every stream twice restores Table[i] = i.
        let words = 1 << 8;
        let once = serial_checksum(words, 500, 2);
        let identity: u64 = (0..words as u64).sum();
        assert_ne!(once, identity);
        let mut table: Vec<u64> = (0..words as u64).collect();
        for _ in 0..2 {
            for rank in 0..2 {
                let mut rng = GupsRng::starting_at(rank * 500);
                for _ in 0..500 {
                    let ran = rng.next_u64();
                    table[ran as usize & (words - 1)] ^= ran;
                }
            }
        }
        assert_eq!(table.iter().sum::<u64>(), identity);
    }
}
