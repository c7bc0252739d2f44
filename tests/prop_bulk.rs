//! Property tests of the contiguous bulk path: `rput_slice`, `rget_slice`,
//! `rput`/`rget` of a whole value and `copy`.
//!
//! Those paths hand the caller's memory to the fabric through the byte
//! views of `rupcxx_net::pod` and move segment to segment; they used to
//! pack element by element into a staging buffer first. The old packing is
//! kept here, as the reference ([`Reference`], independent of `Pod`'s own
//! methods): for every
//! element type, at odd byte offsets and lengths down to zero, locally and
//! remotely, what lands in a segment and what comes back must be byte for
//! byte what the per-element packing produced. `copy` is checked against
//! `slice::copy_within` on overlapping ranges of one rank, between three
//! ranks, and for its traffic counts: one get plus one put of `len` bytes,
//! what the staged get-then-put counted.
//!
//! The counting allocator (as in `prop_wire.rs`) carries the claim the
//! change was made for: the bulk calls allocate nothing, and a sample sort
//! allocates its one partition buffer — 8 bytes a key — and little else.
//!
//! `make ci` runs this file a second time under `RUPCXX_CACHE=on`, the only
//! configuration in which a remote slice read goes through the read cache.

use rupcxx::prelude::*;
use rupcxx_apps::sample_sort::{self, SortConfig, Variant};
use rupcxx_net::CommCounts;
use rupcxx_util::prop as proptest;
use rupcxx_util::prop::prelude::*;
use rupcxx_util::SplitMix64;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, plus a per-thread count of bytes requested (the
/// harness runs tests, and `spmd` ranks, on threads of their own; each
/// measures only itself).
struct Counting;

thread_local! {
    static REQUESTED: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged. The only addition is a `Cell<usize>` bump in a thread-local
// that is const-initialized and has no destructor, so touching it neither
// allocates nor runs code during thread teardown (`try_with` covers a
// thread that is already past it). `realloc` and `alloc_zeroed` are the
// defaults, which call `alloc` and so are counted.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = REQUESTED.try_with(|n| n.set(n.get() + layout.size()));
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

fn requested() -> usize {
    REQUESTED.with(Cell::get)
}

/// Bytes of scratch every rank exposes; transfers start in the lower half
/// and `copy` lands in the upper.
const ARENA: usize = 4096;
const HALF: usize = ARENA / 2;

fn cfg(ranks: usize) -> RuntimeConfig {
    RuntimeConfig::new(ranks).segment_bytes(1 << 16)
}

/// The reference: the per-element packing the bulk paths performed before
/// they took byte views — written without `Pod::write_to`/`read_from`,
/// which now sit on the views under test: native-endian bytes of each
/// primitive, an array field by field.
trait Reference: Pod {
    fn pack(&self, out: &mut Vec<u8>);
    fn unpack(bytes: &[u8]) -> Self;
}

macro_rules! reference_primitive {
    ($($t:ty),*) => {$(
        impl Reference for $t {
            fn pack(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_ne_bytes());
            }
            fn unpack(bytes: &[u8]) -> Self {
                <$t>::from_ne_bytes(bytes.try_into().expect("one element's bytes"))
            }
        }
    )*};
}
reference_primitive!(u8, u16, u32, u64, f64);

impl Reference for [u32; 3] {
    fn pack(&self, out: &mut Vec<u8>) {
        self.iter().for_each(|field| field.pack(out));
    }
    fn unpack(bytes: &[u8]) -> Self {
        std::array::from_fn(|i| u32::unpack(&bytes[i * 4..(i + 1) * 4]))
    }
}

fn ref_pack<T: Reference>(values: &[T]) -> Vec<u8> {
    let mut out = Vec::new();
    values.iter().for_each(|v| v.pack(&mut out));
    out
}

fn ref_unpack<T: Reference>(bytes: &[u8]) -> Vec<T> {
    bytes
        .chunks_exact(std::mem::size_of::<T>())
        .map(T::unpack)
        .collect()
}

fn random_bytes(seed: u64, len: usize) -> Vec<u8> {
    let mut rng = SplitMix64::new(seed);
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

/// Every rank allocates an arena; returns all of them, by rank.
fn arenas(ctx: &Ctx) -> Vec<GlobalPtr<u8>> {
    let mine = allocate::<u8>(ctx, ctx.rank(), ARENA).expect("arena");
    let all = ctx.allgatherv(&[mine]);
    ctx.barrier();
    all
}

/// `len` bytes at `at`, read from the owner's segment directly — not
/// through any path under test (ranks are threads of this process).
fn segment_bytes(ctx: &Ctx, at: GlobalPtr<u8>, len: usize) -> Vec<u8> {
    let mut out = vec![0u8; len];
    let addr = at.addr();
    let segment = &ctx.fabric().endpoint(addr.rank()).segment;
    segment.read_bytes(addr.offset(), &mut out);
    out
}

/// One transfer: byte offset into the arena, element count, value seed,
/// and whether rank 0 aims at rank 1's arena or its own.
type Case = (usize, usize, u64, bool);

fn cases() -> impl Strategy<Value = Vec<Case>> {
    let case = (0usize..67, 0usize..150, any::<u64>(), any::<bool>());
    proptest::collection::vec(case, 1..16)
}

/// Rank 0 runs `cases` for element type `T`: `rput_slice`, `rget_slice`,
/// `rput`/`rget` of one value, then `copy` to either rank.
fn round_trips<T: Reference>(cases: Vec<Case>) {
    let elem = std::mem::size_of::<T>();
    spmd(cfg(2), move |ctx| {
        let dir = arenas(ctx);
        // Rank 1 only lends its arena.
        let cases = if ctx.rank() == 0 { &cases[..] } else { &[] };
        for &(offset, count, seed, remote) in cases {
            // Room for the largest offset in front, in either half.
            let count = count.min((HALF - 67) / elem);
            let bytes = random_bytes(seed, count * elem);
            let values: Vec<T> = ref_unpack(&bytes);
            assert_eq!(ref_pack(&values), bytes);
            let at = dir[remote as usize].offset(offset);
            let typed: GlobalPtr<T> = at.cast();
            let what = format!(
                "{count} x {} at byte {offset}, remote: {remote}",
                std::any::type_name::<T>()
            );

            typed.rput_slice(ctx, &values);
            assert_eq!(segment_bytes(ctx, at, bytes.len()), bytes, "put of {what}");
            let mut back = vec![T::zeroed(); count];
            typed.rget_slice(ctx, &mut back);
            assert_eq!(ref_pack(&back), bytes, "get of {what}");

            if let Some(&last) = values.last() {
                // One value, through `rput`/`rget`, over the first slot.
                typed.rput(ctx, last);
                assert_eq!(ref_pack(&[typed.rget(ctx)]), ref_pack(&[last]), "{what}");
                typed.rput(ctx, values[0]);
            }

            for (to_rank, arena) in dir.iter().enumerate() {
                let to = arena.offset(HALF + (offset * 3 + 1) % 61);
                copy(ctx, typed, to.cast::<T>(), count);
                assert_eq!(
                    segment_bytes(ctx, to, bytes.len()),
                    bytes,
                    "copy of {what} to rank {to_rank}"
                );
            }
        }
        ctx.barrier();
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn u8_round_trips(cases in cases()) {
        round_trips::<u8>(cases);
    }

    #[test]
    fn u16_round_trips(cases in cases()) {
        round_trips::<u16>(cases);
    }

    #[test]
    fn u32_round_trips(cases in cases()) {
        round_trips::<u32>(cases);
    }

    #[test]
    fn u64_round_trips(cases in cases()) {
        round_trips::<u64>(cases);
    }

    #[test]
    fn f64_round_trips(cases in cases()) {
        round_trips::<f64>(cases);
    }

    #[test]
    fn u32x3_round_trips(cases in cases()) {
        round_trips::<[u32; 3]>(cases);
    }

    #[test]
    fn overlapping_copy_within_one_rank_is_copy_within(
        moves in proptest::collection::vec((0usize..700, 0usize..700, 0usize..1300), 1..12),
        remote in any::<bool>(),
    ) {
        spmd(cfg(2), move |ctx| {
            let dir = arenas(ctx);
            if ctx.rank() == 0 {
                // Rank 0 shuffles an arena — rank 1's or its own — in place.
                let arena = dir[remote as usize];
                let mut model = random_bytes(moves.len() as u64, ARENA);
                arena.rput_slice(ctx, &model);
                for &(from, to, len) in &moves {
                    copy(ctx, arena.offset(from), arena.offset(to), len);
                    model.copy_within(from..from + len, to);
                    assert_eq!(
                        segment_bytes(ctx, arena, ARENA),
                        model,
                        "{len} bytes from {from} to {to}, remote: {remote}"
                    );
                }
            }
            ctx.barrier();
        });
    }
}

/// The deterministic twin of the overlap property: both directions, a
/// distance shorter than a word, and equally and unequally aligned ranges.
#[test]
fn forward_and_backward_overlap_match_copy_within() {
    spmd(cfg(2), |ctx| {
        let dir = arenas(ctx);
        if ctx.rank() == 0 {
            for arena in [dir[0], dir[1]] {
                let mut model = random_bytes(7, ARENA);
                arena.rput_slice(ctx, &model);
                for (from, to, len) in [
                    (0, 8, 1000),
                    (8, 0, 1000),
                    (3, 5, 777),
                    (5, 3, 777),
                    (16, 1040, 1024),
                    (1041, 17, 1025),
                    (100, 100, 64),
                    (9, 600, 0),
                ] {
                    copy(ctx, arena.offset(from), arena.offset(to), len);
                    model.copy_within(from..from + len, to);
                    assert_eq!(segment_bytes(ctx, arena, ARENA), model, "{from} -> {to}");
                }
            }
        }
        ctx.barrier();
    });
}

/// What rank 0's counters must show for one `copy` of `len` bytes: one
/// get (if the source is remote) plus one put (if the destination is),
/// `len` bytes each, and a local op per local side — what the staged
/// `Fabric::get` into a buffer plus `Fabric::put` out of it counted.
fn copy_counts(src_remote: bool, dst_remote: bool, len: u64) -> CommCounts {
    CommCounts {
        gets: src_remote as u64,
        get_bytes: if src_remote { len } else { 0 },
        puts: dst_remote as u64,
        put_bytes: if dst_remote { len } else { 0 },
        local_ops: !src_remote as u64 + !dst_remote as u64,
        ..CommCounts::default()
    }
}

#[test]
fn third_party_copy_moves_the_bytes_and_counts_one_get_one_put() {
    spmd(cfg(3), |ctx| {
        let dir = arenas(ctx);
        let image = random_bytes(ctx.rank() as u64, HALF);
        dir[ctx.rank()].rput_slice(ctx, &image);
        ctx.barrier();
        if ctx.rank() == 0 {
            let stats = &ctx.fabric().endpoint(0).stats;
            for (from, to, len) in [(0, 0, 8), (1, 2, 333), (8, 16, 1024), (5, 13, 0), (7, 7, 1)] {
                for (src, dst) in [(1, 2), (0, 1), (2, 0), (0, 0)] {
                    let before = stats.snapshot();
                    let target = dir[dst].offset(HALF + to);
                    copy(ctx, dir[src].offset(from), target, len);
                    let want = match len {
                        0 => CommCounts::default(),
                        _ => copy_counts(src != 0, dst != 0, len as u64),
                    };
                    let what = format!("{len} bytes, rank {src} -> rank {dst}");
                    let got = stats.snapshot().since(&before);
                    if ctx.fabric().endpoint(0).cache().is_some() {
                        // A remote read is the read cache's then — lines
                        // or hits, as for `rget_slice` — so only the put
                        // side and the local ops are the copy's own.
                        let own = |c: &CommCounts| (c.puts, c.put_bytes, c.local_ops);
                        assert_eq!(own(&got), own(&want), "{what}");
                    } else {
                        assert_eq!(got, want, "{what}");
                    }
                    let source = random_bytes(src as u64, HALF);
                    let landed = segment_bytes(ctx, target, len);
                    assert_eq!(landed, source[from..from + len], "{what}");
                }
            }
        }
        ctx.barrier();
    });
}

#[test]
fn bulk_calls_allocate_nothing() {
    spmd(cfg(2), |ctx| {
        let dir = arenas(ctx);
        if ctx.rank() == 0 {
            let values: Vec<u64> = (0..200).collect();
            let mut back = vec![0u64; 200];
            let forty = [1.5f64, -2.0, 3.25, 4.0, f64::MAX];
            for (near, far) in [(dir[0], dir[1]), (dir[1], dir[0])] {
                // Word-aligned and not; the 40-byte value at an odd byte.
                for shift in [0, 3] {
                    let slice: GlobalPtr<u64> = near.offset(8 + shift).cast();
                    let value: GlobalPtr<[f64; 5]> = near.offset(HALF - 41).cast();
                    let mut calls = || {
                        slice.rput_slice(ctx, &values);
                        slice.rget_slice(ctx, &mut back);
                        copy(ctx, slice, far.offset(HALF).cast(), 200);
                        copy(ctx, far.offset(HALF).cast(), slice, 200);
                        copy(ctx, slice, near.offset(HALF + shift).cast(), 150);
                        value.rput(ctx, forty);
                        value.rget(ctx)
                    };
                    // Once to warm what a thread sizes on first use (under
                    // `RUPCXX_CACHE=on`, the read cache's line buffer).
                    calls();
                    let before = requested();
                    let got = calls();
                    assert_eq!(requested() - before, 0, "shift {shift}");
                    assert_eq!(got, forty);
                    assert_eq!(back, values);
                }
            }
        }
        ctx.barrier();
    });
}

#[test]
fn sample_sort_allocates_at_most_nine_bytes_a_key() {
    const KEYS: usize = 1 << 16;
    let allocated = spmd(RuntimeConfig::new(2).segment_mib(4), |ctx| {
        let before = requested();
        let result = sample_sort::run(
            ctx,
            &SortConfig {
                keys_per_rank: KEYS,
                oversample: 32,
                variant: Variant::Upcxx,
                seed: 42,
            },
        );
        assert!(result.verified);
        requested() - before
    });
    for (rank, bytes) in allocated.into_iter().enumerate() {
        let per_key = bytes as f64 / KEYS as f64;
        assert!(per_key <= 9.0, "rank {rank}: {per_key:.3} B a key");
        assert!(per_key >= 8.0, "rank {rank}: the partition buffer is gone?");
    }
}
