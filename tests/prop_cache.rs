//! Property tests of the software read cache (proptest): for an
//! arbitrary schedule of remote puts, owner writes, remote atomics and
//! remote gets in which every read of data dirtied by another rank is
//! preceded by a synchronization point (the invalidation contract of
//! `barrier()`/`fence()`, modeled by `cache_invalidate_sync`), a cached
//! fabric returns bit-for-bit the same values and leaves bit-for-bit the
//! same segments as an uncached one — including with a deliberately tiny
//! cache (evictions), byte-granular gets spanning line boundaries, and
//! under drop/dup fault injection. Failing schedules are shrunk with
//! `shrink_vec` to a 1-minimal counterexample.

use rupcxx_net::{CacheConfig, Fabric, FabricConfig, FaultPlan, GlobalAddr};
use rupcxx_util::prop as proptest;
use rupcxx_util::prop::prelude::*;
use std::collections::HashSet;
use std::sync::Arc;

/// Words of segment state the schedule may touch, per rank.
const WORDS: usize = 32;

/// One schedule entry: `who` selects the acting rank, `kind` the
/// operation, `x`/`y` parameterize it.
type Op = (bool, u8, u16, u16);

fn fabric(cache: Option<CacheConfig>, faults: Option<FaultPlan>) -> Arc<Fabric> {
    Fabric::new(FabricConfig {
        ranks: 2,
        segment_bytes: WORDS * 8,
        faults,
        cache,
        ..FabricConfig::default()
    })
}

/// A cache small enough that the schedule forces evictions (8 slots of
/// 64-byte lines over a 256-byte remote segment).
fn tiny_cache() -> CacheConfig {
    CacheConfig {
        capacity_bytes: 512,
        line_bytes: 64,
    }
}

/// Run `sched` on `f`, inserting a sync-point invalidation before any
/// read of a word some *other* rank wrote since the reader's last sync
/// (the legality discipline of a barrier-synchronized program — computed
/// from the schedule alone, so both fabrics take identical paths).
/// Returns every value read plus both segments' final word contents.
fn run(f: &Fabric, sched: &[Op]) -> (Vec<u64>, Vec<u64>, Vec<u64>) {
    let mut dirty: [HashSet<(usize, usize)>; 2] = [HashSet::new(), HashSet::new()];
    let sync = |f: &Fabric, me: usize, dirty: &mut [HashSet<(usize, usize)>; 2]| {
        f.cache_invalidate_sync(me);
        dirty[me].clear();
    };
    let mut reads = Vec::new();
    for &(who, kind, x, y) in sched {
        let me = who as usize;
        let other = 1 - me;
        let w = x as usize % WORDS;
        let value = y as u64 + 1;
        match kind % 5 {
            0 => {
                // Remote put: write-through drops the writer's own line;
                // the other rank's copy goes stale until it syncs.
                f.put_u64(me, GlobalAddr::new(other, w * 8), value);
                dirty[other].insert((other, w));
            }
            1 => {
                // Owner write to its own segment (never cached locally).
                f.put_u64(me, GlobalAddr::new(me, w * 8), value);
                dirty[other].insert((me, w));
            }
            2 => {
                // Remote atomic (write-through like a put).
                f.xor_u64(me, GlobalAddr::new(other, w * 8), value | 1);
                dirty[other].insert((other, w));
            }
            3 => {
                // Remote word get through the cache.
                if dirty[me].contains(&(other, w)) {
                    sync(f, me, &mut dirty);
                }
                reads.push(f.get_u64(me, GlobalAddr::new(other, w * 8)));
            }
            _ => {
                // Byte-granular remote get spanning word/line boundaries.
                let off = (x as usize * 3) % (WORDS * 8 - 48);
                let len = 1 + (y as usize % 48);
                let span = off / 8..=(off + len - 1) / 8;
                if span.into_iter().any(|w| dirty[me].contains(&(other, w))) {
                    sync(f, me, &mut dirty);
                }
                let mut buf = vec![0u8; len];
                f.get(me, GlobalAddr::new(other, off), &mut buf);
                reads.extend(buf.into_iter().map(u64::from));
            }
        }
    }
    let words = |rank: usize| -> Vec<u64> {
        (0..WORDS)
            .map(|w| f.get_u64(rank, GlobalAddr::new(rank, w * 8)))
            .collect()
    };
    (reads, words(0), words(1))
}

/// The property: a cached fabric is observationally identical to an
/// uncached one on any legally synchronized schedule — and the uncached
/// reference never touches a cache: every remote read it issues is one
/// fabric get, none a hit or a miss.
fn cache_is_transparent(cache: &CacheConfig, faults: Option<&FaultPlan>, sched: &[Op]) -> bool {
    let plain = fabric(None, faults.cloned());
    let cached = fabric(Some(cache.clone()), faults.cloned());
    let reference = run(&plain, sched);
    let c = plain.total_counts();
    let remote_reads = sched.iter().filter(|op| op.1 % 5 >= 3).count() as u64;
    assert_eq!(
        (c.gets, c.cache_hits, c.cache_misses),
        (remote_reads, 0, 0),
        "the cache-off path is not untouched: {sched:?}"
    );
    reference == run(&cached, sched)
}

/// Check the property; on failure, shrink the schedule to a 1-minimal
/// counterexample and panic with a reproducible report.
fn check_or_shrink(cache: CacheConfig, faults: Option<FaultPlan>, sched: Vec<Op>) {
    if cache_is_transparent(&cache, faults.as_ref(), &sched) {
        return;
    }
    let original_len = sched.len();
    let minimal =
        proptest::shrink_vec(sched, |s| !cache_is_transparent(&cache, faults.as_ref(), s));
    panic!(
        "cached reads diverged under {cache:?} / {faults:?}; \
         minimal failing schedule ({} of {} ops): {minimal:?}",
        minimal.len(),
        original_len,
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn cached_reads_equal_uncached_tiny_cache(
        sched in proptest::collection::vec(
            (any::<bool>(), any::<u8>(), 0u16..512, 0u16..512), 1..100),
    ) {
        check_or_shrink(tiny_cache(), None, sched);
    }

    #[test]
    fn cached_reads_equal_uncached_default_cache(
        sched in proptest::collection::vec(
            (any::<bool>(), any::<u8>(), 0u16..512, 0u16..512), 1..100),
    ) {
        check_or_shrink(CacheConfig::default(), None, sched);
    }

    #[test]
    fn cached_reads_equal_uncached_under_faults(
        seed in 0u64..1_000_000,
        drop_ppm in 0u32..300_000,
        dup_ppm in 0u32..200_000,
        sched in proptest::collection::vec(
            (any::<bool>(), any::<u8>(), 0u16..512, 0u16..512), 1..60),
    ) {
        let plan = FaultPlan::new(seed)
            .drop(drop_ppm as f64 / 1e6)
            .dup(dup_ppm as f64 / 1e6);
        check_or_shrink(tiny_cache(), Some(plan), sched);
    }
}

/// Guard against a property that silently never exercises the cache: a
/// read-heavy schedule must pass while actually hitting, and the tiny
/// cache must have evicted (more misses than its slot count).
#[test]
fn caching_actually_caches_and_evicts() {
    let sched: Vec<Op> = (0..200)
        .map(|i| {
            let kind = if i % 10 == 0 { 0u8 } else { 3 + (i % 2) as u8 };
            (i % 3 == 0, kind, (i * 7) as u16, (i * 13) as u16)
        })
        .collect();
    assert!(cache_is_transparent(&tiny_cache(), None, &sched));
    let f = fabric(Some(tiny_cache()), None);
    let _ = run(&f, &sched);
    let c0 = f.endpoint(0).stats.snapshot();
    let c1 = f.endpoint(1).stats.snapshot();
    let (hits, misses) = (
        c0.cache_hits + c1.cache_hits,
        c0.cache_misses + c1.cache_misses,
    );
    assert!(hits > 0, "schedule never hit the cache");
    assert!(
        misses > 8,
        "schedule never evicted (only {misses} misses for 8 slots)"
    );
}
