//! The per-layer microbenchmarks of `ledger layers`.
//!
//! Each number is the p50 over span batches of calls into one layer's
//! **public** functions, recorded by the ledger's own span recorder —
//! nothing inside the library is instrumented. A batch holds enough
//! calls that the two clock reads are under 1 % of the span (1024 calls
//! of a sub-microsecond op; fewer of a slow one). The functions called
//! here are the seams later changes must keep, or precede with a
//! benchmark change of their own; `README.md` lists them per metric.

use crate::run::Row;
use crate::span::{self, Span};
use crate::{counting, host, pin, stats};
use rupcxx::prelude::*;
use rupcxx::remote_fn::FnRegistry;
use rupcxx_apps::{gups, sample_sort, stencil};
use rupcxx_mpi::MpiWorld;
use rupcxx_ndarray::{pt, rd, NdArray};
use rupcxx_net::conduit::wire;
use rupcxx_net::{
    AggConfig, AmPayload, BatchReader, CacheConfig, CheckConfig, Conduit, ConduitEvent, Fabric,
    FabricConfig, FaultPlan, LoopbackConduit, ProfConfig, ShardedInbox, ShmConduit, SocketConduit,
};
use rupcxx_runtime::shared::{HandlerRegistry, Shared};
use rupcxx_trace::TraceConfig;
use rupcxx_util::{Bytes, GupsRng, SplitMix64};
use std::collections::HashMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

/// Words of the 512 KiB tables (the `gups_word` size).
const WORDS: usize = 1 << 16;
/// Words of the big-table GUPS runs: 32 MiB, 16x one core's 2 MiB L2.
const BIG_WORDS: usize = 1 << 22;

/// What a microbenchmark pass needs to know.
#[derive(Clone, Copy)]
pub struct Pass {
    pub seed: u64,
    /// Span batches per metric (31 for a full pass, 7 for a quick one).
    pub batches: usize,
}

/// Counts and ratios that are not timings (hit rates, batch occupancy…),
/// by metric name.
type Facts = HashMap<&'static str, f64>;

/// Record `batches` spans named `(layer, name)`, each covering `calls`
/// calls of `op` and `ops_per_call * calls` ops. One short untimed batch
/// comes first, so lazy set-up is not on the first span.
fn timed(
    pass: Pass,
    layer: &'static str,
    name: &'static str,
    calls: usize,
    ops_per_call: u64,
    mut op: impl FnMut(usize),
) {
    for i in 0..calls.min(64) {
        op(i);
    }
    for b in 0..pass.batches {
        let _g = span::enter(layer, name, calls as u64 * ops_per_call);
        for i in 0..calls {
            op(b * calls + i);
        }
    }
}

fn fabric(ranks: usize, segment_bytes: usize, edit: impl FnOnce(&mut FabricConfig)) -> Arc<Fabric> {
    let mut cfg = FabricConfig {
        ranks,
        segment_bytes,
        ..Default::default()
    };
    edit(&mut cfg);
    Fabric::new(cfg)
}

fn runtime(ranks: usize, mib: usize) -> RuntimeConfig {
    RuntimeConfig::new(ranks).segment_mib(mib)
}

/// Run `body` on `ranks` pinned ranks whose spans hang off the caller's
/// current span.
fn spmd_spans<R: Send>(cfg: RuntimeConfig, body: impl Fn(&Ctx) -> R + Send + Sync) -> Vec<R> {
    let parent = span::current();
    let ranks = cfg.ranks;
    spmd(cfg, |ctx| {
        pin::pin_to_slot(ctx.rank(), ranks);
        span::adopt("-", parent);
        let out = body(ctx);
        span::flush();
        out
    })
}

// --- core + runtime (2 ranks; rank 1 idles in a barrier, serving progress) ---

fn core_and_runtime(pass: Pass) {
    spmd_spans(runtime(2, 16), |ctx| {
        let me = ctx.rank();
        let table = SharedArray::<u64>::new(ctx, WORDS, 1);
        for (slot, i) in table
            .local_slice_mut(ctx)
            .iter_mut()
            .zip(table.my_indices(ctx))
        {
            *slot = i as u64;
        }
        ctx.barrier();
        if me == 0 {
            let mut rng = SplitMix64::new(pass.seed ^ 0xC0DE);
            let mut sink = 0u64;
            let peer_words = WORDS / 2;
            let peer = table.base_of(1);
            timed(pass, "core", "sa_ptr", 1024, 1, |_| {
                black_box(table.ptr(rng.next_u64() as usize & (WORDS - 1)));
            });
            timed(pass, "core", "gptr_get", 1024, 1, |_| {
                sink ^= peer
                    .offset(rng.next_u64() as usize & (peer_words - 1))
                    .rget(ctx);
            });
            timed(pass, "core", "gptr_put", 1024, 1, |i| {
                peer.offset(rng.next_u64() as usize & (peer_words - 1))
                    .rput(ctx, i as u64);
            });
            let local = allocate::<u64>(ctx, 0, 8192).expect("64 KiB staging");
            timed(pass, "core", "copy_64k", 16, 65_536, |_| {
                copy(ctx, peer, local, 8192)
            });
            timed(pass, "core", "async_copy_fence", 64, 1, |_| {
                for k in 0..8 {
                    async_copy(ctx, peer.offset(k * 512), local.offset(k * 512), 512, None);
                }
                async_copy_fence(ctx);
            });
            deallocate(ctx, local);
            timed(pass, "core", "rpc_rtt", 64, 1, |i| {
                sink ^= async_on(ctx, 1, move |_| i as u64 + 1).get(ctx);
            });
            let lock = GlobalLock::new(ctx, 1);
            timed(pass, "runtime", "lock", 256, 1, |_| {
                lock.acquire(ctx);
                lock.release(ctx);
            });
            lock.destroy(ctx);
            timed(pass, "runtime", "alloc_remote", 256, 1, |_| {
                let p = allocate::<u64>(ctx, 1, 64).expect("remote block");
                deallocate(ctx, p);
            });
            timed(pass, "runtime", "event", 1024, 1, |_| {
                let e = Event::new();
                e.register();
                e.signal();
                e.wait(ctx);
            });
            timed(pass, "runtime", "advance_idle", 1024, 1, |_| {
                black_box(ctx.advance());
            });
            timed(pass, "runtime", "finish_spawn", 1, 1024, |_| {
                ctx.finish(|fs| {
                    for _ in 0..1024 {
                        fs.spawn(1, |_| {});
                    }
                });
            });
            black_box(sink);
        }
        ctx.barrier();
        // Collectives: both ranks take part and both record.
        timed(pass, "runtime", "barrier", 256, 1, |_| ctx.barrier());
        let mut acc = me as u64;
        timed(pass, "runtime", "allreduce", 256, 1, |_| {
            acc = ctx.allreduce(acc, u64::wrapping_add);
        });
        black_box(acc);
        timed(pass, "runtime", "exchange", 64, 1, |i| {
            black_box(ctx.exchange(vec![(i as u64).to_le_bytes().to_vec(); 2]));
        });
        table.destroy(ctx);
    });

    // The registry-based typed RPC (the path ROADMAP item 2 wants to make
    // the only one).
    let mut reg = FnRegistry::new();
    let double = reg.register(|_: &Ctx, x: u64| x * 2);
    let parent = span::current();
    rupcxx::spmd_registered(runtime(2, 16), reg, move |ctx| {
        pin::pin_to_slot(ctx.rank(), 2);
        span::adopt("-", parent);
        if ctx.rank() == 0 {
            timed(pass, "core", "remote_fn_rtt", 64, 1, |i| {
                black_box(double.call_blocking(ctx, 1, i as u64));
            });
        }
        ctx.barrier();
        span::flush();
    });

    // MPI-style two-sided ping-pong over the same fabric.
    let world = MpiWorld::new(2);
    spmd_spans(runtime(2, 16), |ctx| {
        let comm = world.comm(ctx);
        let payload = [7u8; 8];
        if ctx.rank() == 0 {
            timed(pass, "mpi", "pingpong", 64, 1, |_| {
                let r = comm.irecv(1, 2);
                let s = comm.isend(1, 1, &payload);
                comm.wait_send(&s);
                black_box(comm.wait_recv(&r));
            });
        } else {
            // One echo per ping, warm-up calls included.
            for _ in 0..64 + pass.batches * 64 {
                let r = comm.irecv(0, 1);
                let (_, data) = comm.wait_recv(&r);
                let s = comm.isend(0, 2, &data);
                comm.wait_send(&s);
            }
        }
        ctx.barrier();
    });

    // One rank, everything local: the proxy path against the UPC-direct
    // path (their ratio is the Fig. 4 gap).
    spmd_spans(runtime(1, 16), |ctx| {
        let table = SharedArray::<u64>::new(ctx, WORDS, 1);
        let direct = UpcDirectTable::new(ctx, &table).expect("1 rank is a power of two");
        let mut rng = GupsRng::new();
        timed(pass, "core", "sa_xor_local", 1024, 1, |_| {
            let r = rng.next_u64();
            table.xor(ctx, r as usize & (WORDS - 1), r);
        });
        timed(pass, "core", "upc_direct_xor_local", 1024, 1, |_| {
            let r = rng.next_u64();
            direct.xor(ctx, r as usize & (WORDS - 1), r);
        });
        table.destroy(ctx);
    });

    timed(pass, "runtime", "spmd_launch", 1, 1, |_| {
        spmd(runtime(2, 16), |_| ());
    });
}

// --- net.fabric ---------------------------------------------------------

fn net_fabric(pass: Pass) {
    let f = fabric(2, WORDS * 8, |_| {});
    let mut rng = SplitMix64::new(pass.seed ^ 0xFAB);
    let mut word = move || GlobalAddr::new(1, (rng.next_u64() as usize & (WORDS - 1)) * 8);
    for w in 0..WORDS {
        f.put_u64(0, GlobalAddr::new(1, w * 8), w as u64);
    }
    let mut sink = 0u64;
    timed(pass, "net.fabric", "put_u64", 1024, 1, |i| {
        f.put_u64(0, word(), i as u64)
    });
    timed(pass, "net.fabric", "get_u64", 1024, 1, |_| {
        sink ^= f.get_u64(0, word())
    });
    timed(pass, "net.fabric", "xor_u64", 1024, 1, |i| {
        sink ^= f.xor_u64(0, word(), i as u64 | 1);
    });
    let mut buf = vec![0x5Au8; 4096];
    let mut rng = SplitMix64::new(pass.seed ^ 0x4B);
    let mut page =
        move || GlobalAddr::new(1, (rng.next_u64() as usize % (WORDS * 8 / 4096)) * 4096);
    timed(pass, "net.fabric", "put_4k", 64, 4096, |_| {
        f.put(0, page(), &buf)
    });
    timed(pass, "net.fabric", "get_4k", 64, 4096, |_| {
        f.get(0, page(), &mut buf)
    });
    // A 16x16 face of f64 inside an 18^3 block: 16 rows of 128 bytes,
    // 144 bytes apart — the halo workload's ghost plane.
    let face = vec![1u8; 16 * 128];
    timed(pass, "net.fabric", "put_strided_elem", 64, 256, |_| {
        f.put_strided(0, GlobalAddr::new(1, 4096), 144, &face, 128, 16);
    });
    // Send and drain are the two halves of one batch: 1024 sends of a
    // 16-byte handler payload, then one `drain` of the peer's inbox.
    for i in 0..pass.batches + 1 {
        let timed_batch = i > 0;
        span::set_enabled(timed_batch);
        span::scope("net.fabric", "am_send", 1024, || {
            for _ in 0..1024 {
                let args = Bytes::copy_from_slice(&[0u8; 16]);
                f.send_am(0, 1, AmPayload::Handler { id: 0, args });
            }
        });
        span::scope("net.fabric", "am_drain", 1024, || {
            black_box(f.endpoint(1).drain());
        });
    }
    span::set_enabled(true);
    black_box(sink);

    // Both ranks' threads xor into each other's table at once: what the
    // two cores' line transfers add to the uncontended figure.
    let start = Barrier::new(2);
    let parent = span::current();
    std::thread::scope(|s| {
        for t in 0..2usize {
            let (f, start) = (&f, &start);
            s.spawn(move || {
                pin::pin_to_slot(t, 2);
                span::adopt("-", parent);
                let mut rng = SplitMix64::new(pass.seed ^ (0xC0 + t as u64));
                start.wait();
                timed(pass, "net.fabric", "xor_u64_contended", 1024, 1, |i| {
                    let a = GlobalAddr::new(1 - t, (rng.next_u64() as usize & (WORDS - 1)) * 8);
                    black_box(f.xor_u64(t, a, i as u64 | 1));
                });
                span::flush();
            });
        }
    });
}

/// The span names of the placement runs, by skew / 16.
const PLACEMENT_SPANS: [&str; 4] = [
    "get_u64_2r_skew0",
    "get_u64_2r_skew16",
    "get_u64_2r_skew32",
    "get_u64_2r_skew48",
];

/// Both ranks' threads *read* each other's table. No read writes a line
/// the other thread needs — only each endpoint's own counters are
/// written — so anything above the one-initiator `get_u64` figure is
/// false sharing inside `Fabric`. Which fields share a line depends on
/// where the endpoint array starts: first the fabric is built where the
/// allocator puts it (`get_u64_2r`, the placement the workloads run at),
/// then once at each of the four placements `malloc` could produce.
fn net_fabric_placement(pass: Pass) {
    let measure = |name: &'static str| {
        let f = fabric(2, WORDS * 8, |_| {});
        for w in 0..WORDS {
            f.put_u64(0, GlobalAddr::new(0, w * 8), w as u64);
            f.put_u64(1, GlobalAddr::new(1, w * 8), w as u64);
        }
        let start = Barrier::new(2);
        let parent = span::current();
        std::thread::scope(|s| {
            for t in 0..2usize {
                let (f, start) = (&f, &start);
                s.spawn(move || {
                    pin::pin_to_slot(t, 2);
                    span::adopt("-", parent);
                    let mut rng = SplitMix64::new(pass.seed ^ (0x9E7 + t as u64));
                    let mut sink = 0u64;
                    start.wait();
                    timed(pass, "net.fabric", name, 1024, 1, |_| {
                        let w = rng.next_u64() as usize & (WORDS - 1);
                        sink ^= f.get_u64(t, GlobalAddr::new(1 - t, w * 8));
                    });
                    black_box(sink);
                    span::flush();
                });
            }
        });
    };
    measure("get_u64_2r");
    for (k, name) in PLACEMENT_SPANS.into_iter().enumerate() {
        // SAFETY: this is the only live thread of the microbenchmark
        // child between its measurements; `measure` joins what it spawns.
        unsafe { counting::with_endpoints_at(16 * k, || measure(name)) };
    }
}

// --- net.aggregate, net.inbox -------------------------------------------

/// Deliver everything queued at rank 1, applying batched RMA frames.
fn drain_batches(f: &Fabric) {
    while {
        f.pump_incoming(1);
        for m in f.endpoint(1).drain() {
            let src = m.src;
            if let AmPayload::Batch { frames, .. } = m.payload {
                for frame in BatchReader::new(&frames) {
                    f.apply_frame(1, src, None, &frame);
                }
            }
        }
        !f.links_quiescent(1) || f.endpoint(1).pending() != 0
    } {}
}

fn net_aggregate_and_inbox(pass: Pass, facts: &mut Facts) {
    let f = fabric(2, WORDS * 8, |c| c.agg = Some(AggConfig::new()));
    let mut rng = SplitMix64::new(pass.seed ^ 0xA66);
    // 1000 ops a cycle: 15 threshold flushes inside `pack`, and a partial
    // batch of 40 left for `flush` to send.
    const CYCLE: u64 = 1000;
    let mut cycle = |record: bool| {
        span::set_enabled(record);
        span::scope("net.aggregate", "pack", CYCLE, || {
            for i in 0..CYCLE {
                let a = GlobalAddr::new(1, (rng.next_u64() as usize & (WORDS - 1)) * 8);
                f.xor_u64_buffered(0, a, i | 1);
            }
        });
        span::scope("net.aggregate", "flush", 1, || {
            black_box(f.flush_agg(0));
        });
        span::scope("net.aggregate", "deliver", CYCLE, || drain_batches(&f));
    };
    cycle(false);
    cycle(false);
    let before = f.total_counts();
    let alloc0 = counting::thread_bytes();
    for _ in 0..pass.batches {
        cycle(true);
    }
    span::set_enabled(true);
    let alloc = counting::thread_bytes() - alloc0;
    let counts = f.total_counts().since(&before);
    facts.insert(
        "net.aggregate.ops_per_batch",
        counts.agg_ops as f64 / counts.agg_batches.max(1) as f64,
    );
    facts.insert(
        "net.aggregate.alloc_bytes_per_op",
        alloc as f64 / (pass.batches as u64 * CYCLE) as f64,
    );

    let inbox = ShardedInbox::<u64>::new();
    timed(pass, "net.inbox", "push_pop", 1, 1024, |_| {
        for i in 0..1024 {
            inbox.push(i);
        }
        while let Some(v) = inbox.pop() {
            black_box(v);
        }
    });
    // Two producers pushing at once; the consumer empties the inbox
    // between batches, outside the spans.
    let gate = Barrier::new(2);
    let parent = span::current();
    std::thread::scope(|s| {
        for t in 0..2usize {
            let (inbox, gate) = (&inbox, &gate);
            s.spawn(move || {
                pin::pin_to_slot(t, 2);
                span::adopt("-", parent);
                for b in 0..pass.batches + 1 {
                    gate.wait();
                    span::set_enabled(b > 0);
                    gate.wait();
                    span::scope("net.inbox", "push_2p", 2048, || {
                        for i in 0..2048 {
                            inbox.push(i);
                        }
                    });
                    gate.wait();
                    if t == 0 {
                        black_box(inbox.drain());
                    }
                }
                span::flush();
            });
        }
    });
    span::set_enabled(true);
}

// --- net.cache ------------------------------------------------------------

fn net_cache(pass: Pass, facts: &mut Facts) {
    const CAPACITY_WORDS: usize = 1 << 17; // the 1 MiB default cache
    let cfg = CacheConfig::new();
    let line_words = cfg.line_bytes / 8;
    let f = fabric(2, 4 * CAPACITY_WORDS * 8, |c| c.cache = Some(cfg));
    for w in 0..4 * CAPACITY_WORDS {
        f.put_u64(1, GlobalAddr::new(1, w * 8), w as u64);
    }
    let mut sink = 0u64;
    let lines = CAPACITY_WORDS / line_words;
    let misses = |f: &Fabric| f.endpoint(0).stats.snapshot().cache_misses;
    // The cache is direct-mapped on a hash, so even a resident megabyte
    // has lines evicting each other. The hit path is timed on a 16-line
    // window chosen so that none of its lines share a slot: a second
    // pass over it must not miss.
    const WINDOW_WORDS: usize = 512;
    let window = (0..CAPACITY_WORDS / WINDOW_WORDS)
        .map(|k| k * WINDOW_WORDS)
        .find(|&base| {
            let pass = |sink: &mut u64| {
                for w in base..base + WINDOW_WORDS {
                    *sink ^= f.get_u64(0, GlobalAddr::new(1, w * 8));
                }
            };
            pass(&mut sink);
            let before = misses(&f);
            pass(&mut sink);
            misses(&f) == before
        })
        .expect("a conflict-free window of cache lines");
    // One pass = fill every line (one miss each), make the window
    // resident, hit inside it, then drop everything at a sync point.
    let mut rng = SplitMix64::new(pass.seed ^ 0xCAC4E);
    let mut hit_misses = 0;
    for b in 0..pass.batches + 1 {
        span::set_enabled(b > 0);
        span::scope("net.cache", "fill", lines as u64, || {
            for l in 0..lines {
                sink ^= f.get_u64(0, GlobalAddr::new(1, l * line_words * 8));
            }
        });
        for w in window..window + WINDOW_WORDS {
            sink ^= f.get_u64(0, GlobalAddr::new(1, w * 8));
        }
        let before = misses(&f);
        span::scope("net.cache", "hit", 1024, || {
            for _ in 0..1024 {
                let w = window + (rng.next_u64() as usize & (WINDOW_WORDS - 1));
                sink ^= f.get_u64(0, GlobalAddr::new(1, w * 8));
            }
        });
        hit_misses += misses(&f) - before;
        span::scope("net.cache", "invalidate_all", 1, || {
            f.cache_invalidate_sync(0)
        });
    }
    span::set_enabled(true);
    assert_eq!(hit_misses, 0, "the timed hit path missed");
    // The `get_cached` pattern: four sequential sweeps per sync point.
    let before = f.total_counts();
    for _ in 0..4 {
        for w in 0..CAPACITY_WORDS {
            sink ^= f.get_u64(0, GlobalAddr::new(1, w * 8));
        }
    }
    f.cache_invalidate_sync(0);
    let seq = f.total_counts().since(&before);
    facts.insert(
        "net.cache.hit_rate_seq",
        seq.cache_hits as f64 / (seq.cache_hits + seq.cache_misses).max(1) as f64,
    );
    // Random reads over four times the capacity: the guard against a
    // hit-path gain that is paid for by misses.
    let before = f.total_counts();
    timed(pass, "net.cache", "thrash", 1024, 1, |_| {
        let w = rng.next_u64() as usize & (4 * CAPACITY_WORDS - 1);
        sink ^= f.get_u64(0, GlobalAddr::new(1, w * 8));
    });
    let rand = f.total_counts().since(&before);
    facts.insert(
        "net.cache.hit_rate_rand4x",
        rand.cache_hits as f64 / (rand.cache_hits + rand.cache_misses).max(1) as f64,
    );
    black_box(sink);
}

// --- net.reliable -----------------------------------------------------------

fn net_reliable(pass: Pass, facts: &mut Facts) {
    const MSGS: usize = 256;
    let run = |f: &Fabric, name: &'static str| {
        timed(pass, "net.reliable", name, 1, MSGS as u64, |_| {
            for _ in 0..MSGS {
                let args = Bytes::copy_from_slice(&[0u8; 16]);
                f.send_am(0, 1, AmPayload::Handler { id: 0, args });
            }
            let mut delivered = 0;
            while delivered < MSGS {
                f.pump_incoming(1);
                delivered += f.endpoint(1).drain().len();
            }
        });
    };
    let clean = fabric(2, 4096, |_| {});
    run(&clean, "am_clean");
    let faulty = fabric(2, 4096, |c| {
        c.faults = Some(FaultPlan::new(pass.seed).drop(0.01));
    });
    run(&faulty, "am_drop1pct");
    let counts = faulty.total_counts();
    facts.insert(
        "net.reliable.retx_per_kmsg",
        counts.retransmits as f64 / (counts.ams_sent as f64 / 1000.0),
    );
}

// --- net.conduit --------------------------------------------------------------

/// A scratch directory under the ledger's output directory, removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new() -> Self {
        let dir = host::out_dir().join(format!("tmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
        ScratchDir(dir)
    }

    fn path(&self, name: &str) -> String {
        self.0.join(name).display().to_string()
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Two consecutive loopback TCP ports that are free right now.
fn free_port_pair() -> u16 {
    let pid = std::process::id() as u16;
    (0..200u16)
        .map(|k| 20_000 + (pid.wrapping_mul(7).wrapping_add(k * 2)) % 20_000)
        .find(|&base| (0..2).all(|r| std::net::TcpListener::bind(("127.0.0.1", base + r)).is_ok()))
        .expect("no free TCP port pair on loopback")
}

fn mesh(backend: &'static str, tmp: &ScratchDir) -> Vec<Box<dyn Conduit>> {
    fn boxed<C: Conduit + 'static>(c: C) -> Box<dyn Conduit> {
        Box::new(c)
    }
    if backend == "loopback" {
        return LoopbackConduit::mesh(2).into_iter().map(boxed).collect();
    }
    let port = free_port_pair();
    // Each rank's attach blocks until its peer is up: build them in parallel.
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|r| {
                s.spawn(move || match backend {
                    "shm" => boxed(ShmConduit::attach(&tmp.path("shm.seg"), r, 2)),
                    "uds" => boxed(SocketConduit::uds(&tmp.path("uds"), r, 2)),
                    "tcp" => boxed(SocketConduit::tcp("127.0.0.1", port, r, 2)),
                    other => unreachable!("backend {other}"),
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("conduit attach"))
            .collect()
    })
}

fn recv_frame(c: &dyn Conduit) -> Vec<u8> {
    loop {
        match c.try_recv() {
            Some(ConduitEvent::Frame(_, f)) => return f,
            Some(ConduitEvent::Closed(src)) => panic!("conduit link to {src} closed mid-benchmark"),
            None => std::thread::yield_now(),
        }
    }
}

fn net_conduit(pass: Pass) {
    let payload = [0x11u8; 16];
    let mut scratch = Vec::new();
    timed(pass, "net.conduit", "wire_encode", 1024, 1, |i| {
        wire::encode_am_handler(&mut scratch, None, None, (i % 7) as u16, &payload);
        black_box(scratch.len());
    });
    timed(pass, "net.conduit", "wire_decode", 1024, 1, |_| {
        black_box(wire::decode(&scratch));
    });

    let tmp = ScratchDir::new();
    const NAMES: [(&str, &str, &str); 4] = [
        ("loopback", "loopback_rtt", "loopback_send_1k"),
        ("shm", "shm_rtt", "shm_send_1k"),
        ("uds", "uds_rtt", "uds_send_1k"),
        ("tcp", "tcp_rtt", "tcp_send_1k"),
    ];
    for (backend, rtt_name, send_name) in NAMES {
        let m = mesh(backend, &tmp);
        // In-process queues are ~100x quicker than sockets: size batches
        // so every span is tens of microseconds at least.
        let (rtt_calls, send_calls) = if backend == "loopback" || backend == "shm" {
            (256, 256)
        } else {
            (32, 64)
        };
        let stop = AtomicBool::new(false);
        let sent_1k = pass.batches * send_calls + send_calls.min(64);
        std::thread::scope(|s| {
            let (responder, stop) = (&m[1], &stop);
            s.spawn(move || {
                pin::pin_to_slot(1, 2);
                // Echo small frames (round trips); swallow 1 KiB ones.
                let mut swallowed = 0;
                while !(stop.load(Ordering::Acquire) && swallowed >= sent_1k) {
                    match responder.try_recv() {
                        Some(ConduitEvent::Frame(src, f)) if f.len() == 8 => {
                            responder.send(src, &f)
                        }
                        Some(ConduitEvent::Frame(..)) => swallowed += 1,
                        Some(ConduitEvent::Closed(_)) => break,
                        None => std::thread::yield_now(),
                    }
                }
            });
            pin::pin_to_slot(0, 2);
            let ping = [0x5Au8; 8];
            timed(pass, "net.conduit", rtt_name, rtt_calls, 1, |_| {
                m[0].send(1, &ping);
                black_box(recv_frame(m[0].as_ref()));
            });
            let frame = [0xC3u8; 1024];
            timed(pass, "net.conduit", send_name, send_calls, 1, |_| {
                m[0].send(1, &frame)
            });
            m[0].flush(1);
            stop.store(true, Ordering::Release);
            pin::unpin();
        });
        for c in &m {
            c.shutdown();
        }
    }
}

// --- ndarray, apps --------------------------------------------------------------

fn ndarray_paths(pass: Pass) {
    let shared = Shared::new(1, 16 << 20, HandlerRegistry::new());
    let ctx = Ctx::new(0, shared);
    let e = 16i64;
    let with_ghosts = rd!([-1, -1, -1]..[e + 1, e + 1, e + 1]);
    let src = NdArray::<f64, 3>::new(&ctx, with_ghosts);
    let dst = NdArray::<f64, 3>::new(&ctx, with_ghosts);
    src.fill(&ctx, 1.0);
    dst.fill(&ctx, 0.0);
    // The halo workload's ghost plane: 16 rows of 16, strided.
    let face = rd!([0, 0, 0]..[1, e, e]);
    timed(pass, "ndarray", "copy_face_elem", 64, 256, |_| {
        dst.restrict(face).copy_from(&ctx, &src)
    });
    // A whole x-slab, ghosts included: 324 elements, contiguous.
    let slab = rd!([0, -1, -1]..[1, e + 1, e + 1]);
    timed(pass, "ndarray", "copy_contig_elem", 64, 324, |_| {
        dst.restrict(slab).copy_from(&ctx, &src)
    });
    let interior = rd!([0, 0, 0]..[e, e, e]);
    timed(pass, "ndarray", "foreach_pt", 4, 4096, |_| {
        let mut acc = 0i64;
        interior.for_each(|p| acc += p[0] ^ p[1] ^ p[2]);
        black_box(acc);
    });
    black_box(pt![0, 0, 0]);
}

fn apps_alone(pass: Pass) {
    // One rank, no communication: what the compute alone costs.
    spmd_spans(runtime(1, 16), |ctx| {
        let cfg = stencil::StencilConfig {
            local_edge: 16,
            grid: (1, 1, 1),
            iters: 100,
            variant: stencil::Variant::Optimized,
            c: 0.1,
        };
        timed(pass, "apps", "stencil_cell", 1, 4096 * 100, |_| {
            black_box(stencil::run(ctx, &cfg).checksum);
        });
        let keys = 1 << 17;
        let cfg = sample_sort::SortConfig {
            keys_per_rank: keys,
            oversample: 32,
            variant: sample_sort::Variant::Upcxx,
            seed: pass.seed,
        };
        timed(pass, "apps", "sort_local_key", 1, keys as u64, |_| {
            assert!(sample_sort::run(ctx, &cfg).verified);
        });
    });
    let mut rng = GupsRng::new();
    timed(pass, "apps", "gups_rng", 8192, 1, |_| {
        black_box(rng.next_u64());
    });

    // Two ranks on a table 16x one core's L2: how far DRAM dilutes
    // whatever the software path gains.
    let big = runtime(2, 64).with_agg(AggConfig::new());
    spmd_spans(big, |ctx| {
        let table = SharedArray::<u64>::new(ctx, BIG_WORDS, 1);
        for (slot, i) in table
            .local_slice_mut(ctx)
            .iter_mut()
            .zip(table.my_indices(ctx))
        {
            *slot = i as u64;
        }
        ctx.barrier();
        let mut rng = GupsRng::starting_at((ctx.rank() * (1 << 24)) as i64);
        timed(pass, "apps", "gups_word_big", 2048, 1, |_| {
            let r = rng.next_u64();
            table.xor(ctx, r as usize & (BIG_WORDS - 1), r);
        });
        ctx.barrier();
        timed(pass, "apps", "gups_agg_big", 1, 8192, |_| {
            for _ in 0..8192 {
                let r = rng.next_u64();
                table.xor_agg(ctx, r as usize & (BIG_WORDS - 1), r);
            }
            ctx.agg_fence();
        });
        table.destroy(ctx);
    });
}

// --- trace, check: what looking costs --------------------------------------------

fn observers(pass: Pass, tmp: &ScratchDir) {
    // GUPS reps (the `gups_word` shape, 1/16 of its updates) under each
    // tracing mode; 11 reps a mode in a full pass.
    let reps = pass.batches.min(11);
    let gups_reps = |cfg: RuntimeConfig, name: &'static str, updates: usize, reps: usize| {
        spmd_spans(cfg, |ctx| {
            let cfg = gups::GupsConfig {
                table_size: WORDS,
                updates_per_rank: updates,
                variant: gups::Variant::Upcxx,
                verify: false,
            };
            let small = Pass {
                batches: reps,
                ..pass
            };
            timed(small, "trace", name, 1, updates as u64, |_| {
                black_box(gups::run(ctx, &cfg).checksum);
            });
        });
    };
    let updates = 1 << 17;
    gups_reps(runtime(2, 16), "gups_off", updates, reps);
    gups_reps(
        runtime(2, 16).with_trace(TraceConfig::metrics()),
        "gups_metrics",
        updates,
        reps,
    );
    gups_reps(
        runtime(2, 16).with_trace(TraceConfig::events().with_path(tmp.path("trace.json"))),
        "gups_events",
        updates,
        reps,
    );
    // The race checker costs orders of magnitude, so fewer updates.
    let updates = 1 << 12;
    gups_reps(runtime(2, 16), "gups_check_off", updates, reps.min(5));
    gups_reps(
        runtime(2, 16).with_check(CheckConfig::race()),
        "gups_check_race",
        updates,
        reps.min(5),
    );
    for (prof, name) in [(false, "prof_off"), (true, "prof_on")] {
        let mut cfg = runtime(2, 16);
        if prof {
            cfg = cfg.with_prof(ProfConfig::on().with_path(tmp.path("prof.json")));
        }
        spmd_spans(cfg, |ctx| {
            timed(pass, "trace", name, 256, 1, |_| ctx.barrier());
        });
    }
}

// --- the pass ----------------------------------------------------------------------

/// Every microbenchmark, then the rows derived from the recorded spans.
pub fn run_all(pass: Pass) -> (Vec<Row>, Vec<Span>) {
    let mut facts = Facts::new();
    {
        let _root = span::enter("bench", "micro", 0);
        span::adopt("-", 0);
        core_and_runtime(pass);
        net_fabric(pass);
        net_fabric_placement(pass);
        net_aggregate_and_inbox(pass, &mut facts);
        net_cache(pass, &mut facts);
        net_reliable(pass, &mut facts);
        net_conduit(pass);
        ndarray_paths(pass);
        apps_alone(pass);
        observers(pass, &ScratchDir::new());
    }
    let spans = span::take_all();
    (rows_from(&spans, &facts), spans)
}

/// How the p50 per-op time of a metric's spans becomes its value; the
/// unit doubles as the metric's name suffix.
#[derive(Clone, Copy)]
enum Derive {
    /// Nanoseconds per op, as recorded.
    Ns,
    /// Ops are bytes: GB/s.
    Gbps,
    /// Milliseconds per op.
    Ms,
    /// Ops per microsecond, times the two producers.
    Mops,
}
use Derive::{Gbps, Mops, Ms, Ns};

impl Derive {
    fn suffix_and_unit(self) -> (&'static str, &'static str) {
        match self {
            Ns => ("ns", "ns"),
            Gbps => ("gbps", "GB/s"),
            Ms => ("ms", "ms"),
            Mops => ("mops", "Mops/s"),
        }
    }

    fn value(self, ns_per_op: f64) -> f64 {
        match self {
            Ns => ns_per_op,
            Gbps => 1.0 / ns_per_op,
            Ms => ns_per_op / 1e6,
            Mops => 2.0 * 1e3 / ns_per_op,
        }
    }
}

/// The span-timed metrics: `(layer, span name, derivation)`. The metric
/// is called `<layer>.<span name>_<suffix>`.
const TIMED: &[(&str, &str, Derive)] = &[
    ("core", "sa_ptr", Ns),
    ("core", "sa_xor_local", Ns),
    ("core", "upc_direct_xor_local", Ns),
    ("core", "gptr_get", Ns),
    ("core", "gptr_put", Ns),
    ("core", "copy_64k", Gbps),
    ("core", "async_copy_fence", Ns),
    ("core", "rpc_rtt", Ns),
    ("core", "remote_fn_rtt", Ns),
    ("net.fabric", "put_u64", Ns),
    ("net.fabric", "get_u64", Ns),
    ("net.fabric", "xor_u64", Ns),
    ("net.fabric", "xor_u64_contended", Ns),
    ("net.fabric", "get_u64_2r", Ns),
    ("net.fabric", "put_4k", Gbps),
    ("net.fabric", "get_4k", Gbps),
    ("net.fabric", "put_strided_elem", Ns),
    ("net.fabric", "am_send", Ns),
    ("net.fabric", "am_drain", Ns),
    ("net.aggregate", "pack", Ns),
    ("net.aggregate", "deliver", Ns),
    ("net.aggregate", "flush", Ns),
    ("net.inbox", "push_pop", Ns),
    ("net.inbox", "push_2p", Mops),
    ("net.cache", "hit", Ns),
    ("net.cache", "fill", Ns),
    ("net.cache", "invalidate_all", Ns),
    ("net.cache", "thrash", Ns),
    ("net.conduit", "wire_encode", Ns),
    ("net.conduit", "wire_decode", Ns),
    ("net.conduit", "loopback_rtt", Ns),
    ("net.conduit", "shm_rtt", Ns),
    ("net.conduit", "uds_rtt", Ns),
    ("net.conduit", "tcp_rtt", Ns),
    ("net.conduit", "loopback_send_1k", Ns),
    ("net.conduit", "shm_send_1k", Ns),
    ("net.conduit", "uds_send_1k", Ns),
    ("net.conduit", "tcp_send_1k", Ns),
    ("runtime", "barrier", Ns),
    ("runtime", "allreduce", Ns),
    ("runtime", "exchange", Ns),
    ("runtime", "advance_idle", Ns),
    ("runtime", "finish_spawn", Ns),
    ("runtime", "event", Ns),
    ("runtime", "lock", Ns),
    ("runtime", "alloc_remote", Ns),
    ("runtime", "spmd_launch", Ms),
    ("ndarray", "copy_face_elem", Ns),
    ("ndarray", "copy_contig_elem", Ns),
    ("ndarray", "foreach_pt", Ns),
    ("apps", "stencil_cell", Ns),
    ("apps", "sort_local_key", Ns),
    ("apps", "gups_rng", Ns),
    ("apps", "gups_word_big", Ns),
    ("apps", "gups_agg_big", Ns),
    ("mpi", "pingpong", Ns),
];

/// Counts and ratios, recorded under their metric name in [`Facts`].
const COUNTED: &[(&str, &str)] = &[
    ("net.aggregate.ops_per_batch", "ops"),
    ("net.aggregate.alloc_bytes_per_op", "B/op"),
    ("net.cache.hit_rate_seq", "ratio"),
    ("net.cache.hit_rate_rand4x", "ratio"),
    ("net.reliable.retx_per_kmsg", "1/kmsg"),
];

/// What an observer costs relative to running without it: `(metric,
/// unit, span with it on, span with it off)`; `%` reports the excess, `x`
/// the ratio.
const OVERHEADS: &[(&str, &str, &str, &str)] = &[
    (
        "trace.metrics_overhead_pct",
        "%",
        "gups_metrics",
        "gups_off",
    ),
    ("trace.events_overhead_pct", "%", "gups_events", "gups_off"),
    (
        "trace.prof_barrier_overhead_pct",
        "%",
        "prof_on",
        "prof_off",
    ),
    (
        "check.race_overhead_x",
        "x",
        "gups_check_race",
        "gups_check_off",
    ),
];

/// Metrics computed from several span sets in [`rows_from`].
const DERIVED: &[(&str, &str)] = &[
    ("net.fabric.placement_worst_x", "x"),
    ("net.reliable.am_ns_drop1pct", "ns"),
    ("net.reliable.goodput_ratio", "ratio"),
];

/// Every microbenchmark metric with its unit, in reporting order.
pub fn metric_units() -> Vec<(String, &'static str)> {
    let timed = TIMED.iter().map(|(layer, name, derive)| {
        let (suffix, unit) = derive.suffix_and_unit();
        (format!("{layer}.{name}_{suffix}"), unit)
    });
    let fixed = COUNTED
        .iter()
        .copied()
        .chain(DERIVED.iter().copied())
        .chain(OVERHEADS.iter().map(|(m, u, ..)| (*m, *u)))
        .map(|(m, u)| (m.to_string(), u));
    timed.chain(fixed).collect()
}

fn rows_from(spans: &[Span], facts: &Facts) -> Vec<Row> {
    let p50 = |layer: &str, name: &str| {
        let per_op = span::per_op_ns(spans, layer, name);
        (
            stats::median(&per_op),
            stats::iqr_pct(&per_op),
            per_op.len(),
        )
    };
    let mut values: HashMap<String, (f64, f64, usize)> = HashMap::new();
    for (layer, name, derive) in TIMED {
        let (ns, spread, n) = p50(layer, name);
        let metric = format!("{layer}.{name}_{}", derive.suffix_and_unit().0);
        values.insert(metric, (derive.value(ns), spread, n));
    }
    for (metric, _) in COUNTED {
        values.insert(metric.to_string(), (facts[metric], 0.0, 1));
    }
    for (metric, unit, on, off) in OVERHEADS {
        let (on_ns, spread, n) = p50("trace", on);
        let ratio = on_ns / p50("trace", off).0;
        let value = if *unit == "%" {
            (ratio - 1.0) * 100.0
        } else {
            ratio
        };
        values.insert(metric.to_string(), (value, spread, n));
    }
    // Slowest over fastest placement of the endpoint array: 1.0 once no
    // hot counter shares a line with a field the peer reads.
    let placements = PLACEMENT_SPANS.map(|name| p50("net.fabric", name).0);
    let fastest = placements.iter().copied().fold(f64::INFINITY, f64::min);
    let slowest = placements.iter().copied().fold(0.0, f64::max);
    values.insert(
        "net.fabric.placement_worst_x".into(),
        (slowest / fastest, 0.0, placements.len()),
    );
    let (faulty, spread, n) = p50("net.reliable", "am_drop1pct");
    values.insert("net.reliable.am_ns_drop1pct".into(), (faulty, spread, n));
    let clean = p50("net.reliable", "am_clean").0;
    values.insert(
        "net.reliable.goodput_ratio".into(),
        (clean / faulty, spread, n),
    );
    metric_units()
        .into_iter()
        .map(|(metric, unit)| {
            let (value, spread_pct, n) = values[&metric];
            Row {
                metric,
                workload: "-".into(),
                value,
                unit: unit.into(),
                spread_pct,
                n,
            }
        })
        .collect()
}

/// Remove anything a crashed earlier pass left in the scratch area.
pub fn clean_stale_scratch(dir: &Path) {
    if let Ok(entries) = std::fs::read_dir(dir) {
        for e in entries.flatten() {
            if e.file_name().to_string_lossy().starts_with("tmp-") {
                let _ = std::fs::remove_dir_all(e.path());
            }
        }
    }
}
