//! Transport-conduit microbenchmarks: per-link round-trip latency and
//! injection throughput for the three backends (in-process loopback,
//! mmap'd shared-memory rings, Unix-domain sockets) at 8 B and 1 KiB
//! frames, plus the allocation delta of the reusable wire-encode scratch
//! buffer (the conduit send path encodes into a per-link buffer instead
//! of a fresh `Vec` per frame). Results land in
//! `results/BENCH_conduit.json`; `RUPCXX_BENCH_SMOKE=1` shrinks the
//! counts and keeps only the deterministic assertions.
//!
//! The loopback/shm/uds meshes here are driven from threads of this one
//! process — that holds the workload identical across backends, so the
//! measured spread is the transport cost alone (queue push vs ring copy
//! + drain thread vs socket write + reader thread).

use rupcxx_bench::report;
use rupcxx_net::conduit::wire;
use rupcxx_net::{
    Conduit, ConduitEvent, GlobalAddr, LoopbackConduit, RmaOp, ShmConduit, SocketConduit,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Counting allocator: measures bytes allocated by the encode paths.
struct CountingAlloc;

static ALLOCATED: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocated() -> u64 {
    ALLOCATED.load(Ordering::Relaxed)
}

fn smoke() -> bool {
    std::env::var_os("RUPCXX_BENCH_SMOKE").is_some_and(|v| v != "0")
}

fn scratch_path(tag: &str) -> String {
    format!(
        "{}/rupcxx-bench-{tag}-{}",
        std::env::temp_dir().display(),
        std::process::id()
    )
}

/// Build a 2-rank mesh of the named backend.
fn mesh(backend: &str) -> Vec<Box<dyn Conduit>> {
    match backend {
        "loopback" => LoopbackConduit::mesh(2)
            .into_iter()
            .map(|c| Box::new(c) as Box<dyn Conduit>)
            .collect(),
        "shm" => {
            let seg = scratch_path("conduit-shm.seg");
            let _ = std::fs::remove_file(&seg);
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..2)
                    .map(|r| {
                        let seg = seg.clone();
                        s.spawn(move || {
                            Box::new(ShmConduit::attach(&seg, r, 2)) as Box<dyn Conduit>
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            })
        }
        "uds" => {
            let dir = scratch_path("conduit-uds");
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..2)
                    .map(|r| {
                        let dir = dir.clone();
                        s.spawn(move || {
                            Box::new(SocketConduit::uds(&dir, r, 2)) as Box<dyn Conduit>
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            })
        }
        other => panic!("unknown backend {other}"),
    }
}

fn cleanup(backend: &str) {
    match backend {
        "shm" => {
            let _ = std::fs::remove_file(scratch_path("conduit-shm.seg"));
        }
        "uds" => {
            let _ = std::fs::remove_dir_all(scratch_path("conduit-uds"));
        }
        _ => {}
    }
}

fn recv_frame(c: &dyn Conduit) -> Vec<u8> {
    loop {
        match c.try_recv() {
            Some(ConduitEvent::Frame(_, f)) => return f,
            Some(ConduitEvent::Closed(src)) => panic!("unexpected Closed({src})"),
            None => std::thread::yield_now(),
        }
    }
}

/// Ping-pong round-trip: rank 0 sends `frame`, rank 1 echoes it back;
/// returns mean ns per round trip.
fn rtt(mesh: &[Box<dyn Conduit>], frame_bytes: usize, rounds: usize) -> f64 {
    let frame = vec![0x5Au8; frame_bytes];
    let stop = AtomicBool::new(false);
    let echo_stop = &stop;
    std::thread::scope(|s| {
        let responder = &mesh[1];
        let echo = s.spawn(move || {
            let mut served = 0usize;
            while !echo_stop.load(Ordering::Acquire) {
                match responder.try_recv() {
                    Some(ConduitEvent::Frame(src, f)) => {
                        responder.send(src, &f);
                        served += 1;
                    }
                    Some(ConduitEvent::Closed(_)) => break,
                    None => std::thread::yield_now(),
                }
            }
            served
        });
        // Warmup round so connection setup is not measured.
        mesh[0].send(1, &frame);
        let _ = recv_frame(mesh[0].as_ref());
        let t = Instant::now();
        for _ in 0..rounds {
            mesh[0].send(1, &frame);
            let back = recv_frame(mesh[0].as_ref());
            assert_eq!(back.len(), frame_bytes);
        }
        let ns = t.elapsed().as_nanos() as f64 / rounds as f64;
        echo_stop.store(true, Ordering::Release);
        let served = echo.join().unwrap();
        assert!(served >= rounds, "echo thread served {served}/{rounds}");
        ns
    })
}

/// One-way injection: rank 0 pushes `count` frames; the receiver thread
/// drains them all. Returns (send-side ns/frame, end-to-end Mframes/s).
fn inject(mesh: &[Box<dyn Conduit>], frame_bytes: usize, count: usize) -> (f64, f64) {
    let frame = vec![0xC3u8; frame_bytes];
    std::thread::scope(|s| {
        let receiver = &mesh[1];
        let rx = s.spawn(move || {
            for _ in 0..count {
                let f = recv_frame(receiver.as_ref());
                assert_eq!(f.len(), frame_bytes);
            }
        });
        let t = Instant::now();
        for _ in 0..count {
            mesh[0].send(1, &frame);
        }
        let send_ns = t.elapsed().as_nanos() as f64 / count as f64;
        mesh[0].flush(1);
        rx.join().unwrap();
        let total = t.elapsed().as_secs_f64();
        (send_ns, count as f64 / total / 1e6)
    })
}

/// The satellite's allocation delta: encoding `frames` put-frames into a
/// reused scratch buffer vs a fresh `Vec` each time. Returns bytes
/// allocated per frame on each path (scratch settles to ~0 after the
/// first growth).
fn encode_alloc_delta(frames: usize, payload: usize) -> (f64, f64) {
    let data = vec![7u8; payload];
    let put = RmaOp::Put {
        addr: GlobalAddr::new(1, 0),
        data: &data,
    };
    let mut scratch = Vec::new();
    wire::encode_rma(&mut scratch, None, 0, &put); // pre-grow once
    let a0 = allocated();
    for i in 0..frames {
        wire::encode_rma(&mut scratch, None, i as u64, &put);
        std::hint::black_box(scratch.len());
    }
    let scratch_bytes = (allocated() - a0) as f64 / frames as f64;
    let a1 = allocated();
    for i in 0..frames {
        let mut fresh = Vec::new();
        wire::encode_rma(&mut fresh, None, i as u64, &put);
        std::hint::black_box(fresh.len());
    }
    let fresh_bytes = (allocated() - a1) as f64 / frames as f64;
    (scratch_bytes, fresh_bytes)
}

struct Row {
    backend: &'static str,
    frame_bytes: usize,
    rtt_ns: f64,
    send_ns: f64,
    mframes_s: f64,
}

fn main() {
    // Land results/ at the workspace root regardless of cargo's bench
    // CWD (the package directory).
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let _ = std::env::set_current_dir(root);

    let (rounds, count) = if smoke() {
        (200, 2_000)
    } else {
        (5_000, 100_000)
    };
    let mut rows = Vec::new();
    for backend in ["loopback", "shm", "uds"] {
        for frame_bytes in [8usize, 1024] {
            let m = mesh(backend);
            let rtt_ns = rtt(&m, frame_bytes, rounds);
            let (send_ns, mframes_s) = inject(&m, frame_bytes, count);
            for c in &m {
                c.shutdown();
            }
            drop(m);
            cleanup(backend);
            println!(
                "{backend:>8} {frame_bytes:>5}B: rtt {rtt_ns:>9.0} ns  send {send_ns:>7.0} ns/frame  {mframes_s:>7.2} Mframes/s"
            );
            rows.push(Row {
                backend,
                frame_bytes,
                rtt_ns,
                send_ns,
                mframes_s,
            });
        }
    }

    let alloc_frames = if smoke() { 10_000 } else { 200_000 };
    let (scratch_bpf, fresh_bpf) = encode_alloc_delta(alloc_frames, 256);
    println!(
        "encode alloc: {scratch_bpf:.1} B/frame reused scratch vs {fresh_bpf:.1} B/frame fresh Vec"
    );

    let mut out = String::from("{\n  \"links\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"backend\": \"{}\", \"frame_bytes\": {}, \"rtt_ns\": {:.0}, \"send_ns_per_frame\": {:.0}, \"mframes_per_s\": {:.3}}}{}",
            r.backend,
            r.frame_bytes,
            r.rtt_ns,
            r.send_ns,
            r.mframes_s,
            if i + 1 < rows.len() { "," } else { "" }
        );
    }
    out.push_str("  ],\n");
    let _ = writeln!(out, "  \"alloc_frames\": {alloc_frames},");
    let _ = writeln!(
        out,
        "  \"scratch_alloc_bytes_per_frame\": {scratch_bpf:.2},"
    );
    let _ = writeln!(out, "  \"fresh_alloc_bytes_per_frame\": {fresh_bpf:.2},");
    let _ = writeln!(out, "  \"smoke\": {}", smoke());
    out.push_str("}\n");
    let path = format!("{}/BENCH_conduit.json", report::RESULTS_DIR);
    if let Err(e) =
        std::fs::create_dir_all(report::RESULTS_DIR).and_then(|_| std::fs::write(&path, &out))
    {
        eprintln!("(could not write {path}: {e})");
    } else {
        println!("[written {path}]");
    }

    // Deterministic gates: the reused scratch path must allocate
    // essentially nothing per frame (a fresh Vec allocates at least the
    // frame), and every backend must have moved every frame (asserted in
    // rtt/inject); loopback should be the latency floor.
    assert!(
        fresh_bpf >= 256.0,
        "fresh-Vec path allocated {fresh_bpf} B/frame, expected >= payload"
    );
    assert!(
        scratch_bpf * 100.0 < fresh_bpf,
        "scratch path not allocation-free: {scratch_bpf} vs {fresh_bpf} B/frame"
    );
    let floor = rows
        .iter()
        .filter(|r| r.backend == "loopback" && r.frame_bytes == 8)
        .map(|r| r.rtt_ns)
        .next()
        .unwrap();
    assert!(floor > 0.0);
}
