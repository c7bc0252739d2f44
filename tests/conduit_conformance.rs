//! Cross-conduit conformance suite.
//!
//! The layering claim of the conduit subsystem is that everything above
//! the transport — reliable delivery, fault injection, aggregation,
//! caching, the checker, the profiler — behaves identically whether
//! ranks are threads of one process (loopback) or OS processes over
//! shm/tcp/uds. These tests launch the `conduit_app` workload binary as
//! real processes and compare its deterministic `RESULT` lines
//! bit-for-bit against the in-process run.
//!
//! The `smoke_` tests are the CI gate (`make conduit-smoke`).

use std::collections::BTreeMap;
use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const APP: &str = env!("CARGO_BIN_EXE_conduit_app");

/// Unique-enough scratch name: pid + a per-process counter.
fn scratch(tag: &str) -> String {
    use std::sync::atomic::{AtomicU64, Ordering};
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    format!(
        "{}/rupcxx-conf-{tag}-{}-{n}",
        std::env::temp_dir().display(),
        std::process::id()
    )
}

struct Run {
    status: std::process::ExitStatus,
    stdout: String,
    stderr: String,
}

/// Run a command to completion with a hard timeout (kills on expiry),
/// capturing both streams without deadlocking on full pipes.
fn run_with_timeout(cmd: &mut Command, timeout: Duration) -> Run {
    let mut child = cmd
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn");
    let mut out_pipe = child.stdout.take().unwrap();
    let mut err_pipe = child.stderr.take().unwrap();
    let out_thread = std::thread::spawn(move || {
        let mut s = String::new();
        let _ = out_pipe.read_to_string(&mut s);
        s
    });
    let err_thread = std::thread::spawn(move || {
        let mut s = String::new();
        let _ = err_pipe.read_to_string(&mut s);
        s
    });
    let deadline = Instant::now() + timeout;
    let status = loop {
        match child.try_wait().expect("wait") {
            Some(s) => break s,
            None if Instant::now() > deadline => {
                let _ = child.kill();
                let s = child.wait().expect("wait after kill");
                let stdout = out_thread.join().unwrap();
                let stderr = err_thread.join().unwrap();
                panic!(
                    "timed out after {timeout:?}\n--- stdout\n{stdout}\n--- stderr\n{stderr}\n{s}"
                );
            }
            None => std::thread::sleep(Duration::from_millis(5)),
        }
    };
    Run {
        status,
        stdout: out_thread.join().unwrap(),
        stderr: err_thread.join().unwrap(),
    }
}

/// Launch `conduit_app mode ranks args...` over `conduit` (None =
/// in-process loopback) and return its rank→checksum map.
fn checksums(
    conduit: Option<&str>,
    mode: &str,
    ranks: usize,
    args: &[&str],
    extra_env: &[(&str, &str)],
) -> BTreeMap<usize, String> {
    let mut cmd = Command::new(APP);
    cmd.arg(mode).arg(ranks.to_string()).args(args);
    // The test runner's environment must not leak a conduit or fault
    // plan into the jobs this suite parameterizes itself.
    cmd.env_remove("RUPCXX_CONDUIT")
        .env_remove("RUPCXX_PROC_RANK");
    if let Some(sel) = conduit {
        cmd.env("RUPCXX_CONDUIT", sel);
    }
    for (k, v) in extra_env {
        cmd.env(k, v);
    }
    let run = run_with_timeout(&mut cmd, Duration::from_secs(120));
    assert!(
        run.status.success(),
        "conduit_app {mode} over {conduit:?} failed: {}\n--- stdout\n{}\n--- stderr\n{}",
        run.status,
        run.stdout,
        run.stderr
    );
    let mut sums = BTreeMap::new();
    for line in run.stdout.lines() {
        if let Some(rest) = line.strip_prefix("RESULT rank=") {
            let (rank, sum) = rest.split_once(" checksum=").expect("RESULT line");
            sums.insert(rank.parse().unwrap(), sum.to_string());
        }
    }
    assert_eq!(
        sums.len(),
        ranks,
        "expected one RESULT per rank over {conduit:?}:\n{}",
        run.stdout
    );
    sums
}

fn assert_same_as_loopback(mode: &str, ranks: usize, args: &[&str], conduit: &str) {
    let reference = checksums(None, mode, ranks, args, &[]);
    let got = checksums(Some(conduit), mode, ranks, args, &[]);
    assert_eq!(
        reference, got,
        "{mode} over {conduit} diverged from loopback"
    );
}

// ---- CI smoke gate (fast; `make conduit-smoke` filters on `smoke_`) ----

#[test]
fn smoke_shm_gups_2proc() {
    let seg = scratch("shm-smoke");
    assert_same_as_loopback(
        "gups",
        2,
        &["updates=300", "table=1024"],
        &format!("shm:{seg}.seg"),
    );
    let _ = std::fs::remove_file(format!("{seg}.seg"));
}

#[test]
fn smoke_uds_gups_2proc() {
    let dir = scratch("uds-smoke");
    std::fs::create_dir_all(&dir).unwrap();
    assert_same_as_loopback(
        "gups",
        2,
        &["updates=300", "table=1024"],
        &format!("uds:{dir}"),
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---- Full conformance ----

#[test]
fn uds_sample_sort_matches_loopback_4proc() {
    let dir = scratch("uds-sort");
    std::fs::create_dir_all(&dir).unwrap();
    assert_same_as_loopback("sort", 4, &["keys=800", "seed=9"], &format!("uds:{dir}"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn uds_teams_match_loopback_4proc() {
    // Each parity half runs its own collectives: deposits in a sub-team's
    // mailbox domain, not the world's 0, cross the conduit.
    let dir = scratch("uds-teams");
    std::fs::create_dir_all(&dir).unwrap();
    assert_same_as_loopback("teams", 4, &["iters=6"], &format!("uds:{dir}"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn uds_copy_matches_loopback_3proc() {
    // Each process copies local → remote, remote → local and third
    // party, at odd offsets and lengths: a get and a put over the
    // conduit here, segment to segment or staged in the loopback run.
    let dir = scratch("uds-copy");
    std::fs::create_dir_all(&dir).unwrap();
    assert_same_as_loopback("copy", 3, &[], &format!("uds:{dir}"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tcp_gups_matches_loopback() {
    // Derive the port from the pid so parallel test runs don't collide.
    let port = 20000 + (std::process::id() % 20000) as u16;
    assert_same_as_loopback(
        "gups",
        2,
        &["updates=300", "table=1024"],
        &format!("tcp:127.0.0.1:{port}"),
    );
}

#[test]
fn shm_stencil_4proc_matches_loopback() {
    let seg = scratch("shm-stencil");
    assert_same_as_loopback(
        "stencil",
        4,
        &["edge=8", "iters=3", "grid=2x2x1"],
        &format!("shm:{seg}.seg"),
    );
    let _ = std::fs::remove_file(format!("{seg}.seg"));
}

#[test]
fn shm_aggregated_gups_matches_loopback() {
    // The aggregation layer sits above the conduit: coalesced batches
    // cross the wire as one frame and unpack identically.
    let seg = scratch("shm-agg");
    assert_same_as_loopback(
        "gups-agg",
        2,
        &["updates=400", "table=1024"],
        &format!("shm:{seg}.seg"),
    );
    let _ = std::fs::remove_file(format!("{seg}.seg"));
}

#[test]
fn chaos_seed_reproducible_over_shm() {
    // Fault injection rides above the conduit: the same seed produces
    // the same retransmission history and the same final answer, in
    // processes exactly as in threads.
    let faults = ("RUPCXX_FAULTS", "seed=7,drop=0.05,dup=0.02,delay=0.05");
    let reference = checksums(None, "gups", 2, &["updates=200", "table=1024"], &[faults]);
    for round in 0..2 {
        let seg = scratch(&format!("shm-chaos-{round}"));
        let got = checksums(
            Some(&format!("shm:{seg}.seg")),
            "gups",
            2,
            &["updates=200", "table=1024"],
            &[faults],
        );
        assert_eq!(reference, got, "chaos round {round} diverged");
        let _ = std::fs::remove_file(format!("{seg}.seg"));
    }
}

#[test]
fn killing_a_process_yields_peer_unreachable() {
    // A real OS process dies mid-job (rank 1 aborts itself): the
    // survivors must die with a classified PeerUnreachable through the
    // wait_until panic funnel — flight recorder dumped — rather than
    // hanging in the barrier.
    let dir = scratch("uds-kill");
    std::fs::create_dir_all(&dir).unwrap();
    let mut cmd = Command::new(APP);
    cmd.args([
        "spin",
        "3",
        "iters=100000",
        "sleep_ms=5",
        "die=1",
        "die_after_ms=300",
    ]);
    cmd.env("RUPCXX_PROF", "1")
        .env("RUPCXX_CONDUIT", format!("uds:{dir}"))
        .env_remove("RUPCXX_PROC_RANK");
    let run = run_with_timeout(&mut cmd, Duration::from_secs(90));
    assert!(
        !run.status.success(),
        "launcher must report the killed job as failed"
    );
    let all = format!("{}\n{}", run.stdout, run.stderr);
    assert!(
        all.contains("unreachable"),
        "survivors must classify the dead peer:\n{all}"
    );
    assert!(
        all.contains("rupcxx flight recorder"),
        "profiler must dump the flight recorder on the failure:\n{all}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn each_rank_process_writes_its_own_views() {
    // Every rank process is handed the same `RUPCXX_TRACE`/`RUPCXX_PROF`
    // paths: each must write files of its own, holding its own rank only,
    // instead of the last process to exit winning.
    let dir = scratch("shm-views");
    std::fs::create_dir_all(&dir).unwrap();
    checksums(
        Some(&format!("shm:{dir}/job.seg")),
        "gups",
        2,
        &["updates=200", "table=1024"],
        &[
            ("RUPCXX_TRACE", &format!("events,{dir}/t.json")),
            ("RUPCXX_PROF", &format!("on,{dir}/p.json")),
        ],
    );
    let mut written: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|name| name.ends_with(".json"))
        .collect();
    written.sort();
    assert_eq!(
        written,
        ["p.r0.json", "p.r1.json", "t.r0.json", "t.r1.json"]
    );
    for (me, peer) in [(0, 1), (1, 0)] {
        let trace = std::fs::read_to_string(format!("{dir}/t.r{me}.json")).unwrap();
        assert!(trace.contains(&format!("\"tid\":{me},\"ts\"")), "rank {me}");
        assert!(!trace.contains(&format!("\"tid\":{peer},")), "rank {me}");
        let prof = std::fs::read_to_string(format!("{dir}/p.r{me}.json")).unwrap();
        assert!(prof.contains(&format!("\"rank\":{me},")), "rank {me}");
        assert!(!prof.contains(&format!("\"rank\":{peer},")), "rank {me}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn garbage_frames_yield_peer_unreachable_not_an_abort() {
    // A peer that writes nonsense on the socket is a failed link, not a
    // reason for this rank to die: rank 0 is a real conduit-backed
    // fabric, "rank 1" is this test holding the other end of the uds
    // mesh and writing frames by hand.
    use rupcxx_net::conduit::wire::{self, WireFrame};
    use rupcxx_net::{
        Conduit, ConduitEvent, ConduitSel, Fabric, FabricConfig, GlobalAddr, RemoteConfig, RmaOp,
        SocketConduit,
    };

    const SEG: usize = 4096;
    let put = |offset, data| RmaOp::Put {
        addr: GlobalAddr::new(0, offset),
        data,
    };
    let encoded = |token, op: &RmaOp<'_>| {
        let mut frame = Vec::new();
        wire::encode_rma(&mut frame, None, token, op);
        frame
    };
    let good = encoded(7, &put(64, &[0xAB; 8]));
    let mut flipped = good.clone();
    flipped[0] ^= 0x40; // the tag byte: no such frame
    let mut forged_len = encoded(8, &put(64, &[1, 2, 3]));
    let at = forged_len.len() - 7;
    forged_len[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes()); // payload length
    let mut unasked = Vec::new();
    wire::encode_resp(&mut unasked, 99, true, 0, &[]);
    let cases: [(&str, Vec<u8>); 6] = [
        ("truncated", good[..good.len() - 3].to_vec()),
        ("bit-flipped", flipped),
        ("forged payload length", forged_len),
        ("out of range", encoded(9, &put(SEG - 4, &[0xCD; 8]))),
        ("reply nobody asked for", unasked),
        (
            "4 GiB get",
            encoded(
                10,
                &RmaOp::Get {
                    addr: GlobalAddr::new(0, 0),
                    len: u32::MAX as usize,
                },
            ),
        ),
    ];
    for (what, garbage) in cases {
        let dir = scratch("uds-garbage");
        std::fs::create_dir_all(&dir).unwrap();
        let (fabric, peer) = std::thread::scope(|s| {
            let hosted = s.spawn(|| {
                Fabric::new(FabricConfig {
                    ranks: 2,
                    segment_bytes: SEG,
                    remote: Some(RemoteConfig {
                        my_rank: 0,
                        conduit: ConduitSel::Uds(dir.clone()),
                    }),
                    ..FabricConfig::default()
                })
            });
            let peer = SocketConduit::uds(&dir, 1, 2);
            (hosted.join().unwrap(), peer)
        });
        let pump_until = |done: &dyn Fn() -> bool| {
            let deadline = Instant::now() + Duration::from_secs(30);
            while !done() {
                fabric.pump_incoming(0);
                assert!(Instant::now() < deadline, "{what}: stalled");
                std::thread::yield_now();
            }
        };
        // The link works: a well-formed put lands and is answered.
        peer.send(0, &good);
        let reply = std::cell::RefCell::new(None);
        pump_until(&|| {
            if let Some(ConduitEvent::Frame(0, frame)) = peer.try_recv() {
                *reply.borrow_mut() = Some(frame);
            }
            reply.borrow().is_some()
        });
        match wire::decode(reply.borrow().as_ref().unwrap()) {
            Ok(WireFrame::Resp {
                token: 7, ok: true, ..
            }) => {}
            other => panic!("{what}: unexpected reply {other:?}"),
        }
        let segment = &fabric.endpoint(0).segment;
        assert_eq!(segment.load_u64(64), u64::from_le_bytes([0xAB; 8]));
        assert!(fabric.failure().is_none());
        // The garbage: refused, the link classified, nothing applied.
        peer.send(0, &garbage);
        pump_until(&|| fabric.has_failed());
        let failure = fabric.failure().expect("a classified failure");
        assert_eq!((failure.src, failure.dst), (0, 1), "{what}");
        assert!(failure.to_string().contains("unreachable"), "{failure}");
        assert_eq!(segment.load_u64(64), u64::from_le_bytes([0xAB; 8]));
        assert_eq!(segment.load_u64(SEG - 8), 0, "{what}: partial apply");
        fabric.conduit_teardown(0);
        peer.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn hostile_handler_frames_yield_peer_unreachable_not_an_abort() {
    // The runtime-level half of the test above: frames that decode, and
    // then name a handler, a reply token or arguments this rank does not
    // have. Rank 0 is a `Ctx` driving `advance()` over a conduit-backed
    // `Shared`; "rank 1" is this test on the other end of the uds mesh.
    use rupcxx::remote_fn::FnRegistry;
    use rupcxx_net::conduit::wire::{self, WireFrame};
    use rupcxx_net::{
        AggConfig, AmPayload, Conduit, ConduitEvent, ConduitSel, Fabric, FabricConfig, GlobalAddr,
        RemoteConfig, SocketConduit,
    };
    use rupcxx_runtime::shared::Shared;
    use rupcxx_runtime::Ctx;

    const SEG: usize = 4096;
    const NOBODY: u16 = 999;
    let am = |id: u16, args: &[u8]| {
        let mut frame = Vec::new();
        wire::encode_am_handler(&mut frame, None, None, id, args);
        frame
    };
    let rpc = |token: u64, value: &[u8]| [&token.to_le_bytes()[..], value].concat();
    // A batch packed for rank 0 by a real aggregation layer: a put that
    // would land, and behind it a handler frame for nobody.
    let hostile_batch = {
        let packer = Fabric::new(FabricConfig {
            ranks: 2,
            segment_bytes: SEG,
            agg: Some(AggConfig::new()),
            ..FabricConfig::default()
        });
        packer.put_buffered(1, GlobalAddr::new(0, 128), &[0xCD; 8]);
        packer.am_buffered(1, 0, NOBODY, &[]);
        assert_eq!(packer.flush_agg(1), 1);
        let AmPayload::Batch { frames, count } = &packer.endpoint(0).drain()[0].payload else {
            panic!("not a batch");
        };
        let mut frame = Vec::new();
        wire::encode_am_batch(&mut frame, None, None, *count, frames);
        frame
    };
    // Handlers 0 and 1 are `FnRegistry`'s reply router and `inc`; the
    // runtime's builtins follow (the mailbox deposit, then `complete`),
    // and after them the `finish` acknowledgement.
    let (reply_router, inc, deposit, finish_ack) = (0, 1, 2, 4);
    // Sent while rank 0 sits in its first `finish` scope (token 0), which
    // has spawned nothing.
    const UNSPAWNED: &str = "finish ack for a task the open scope never spawned";
    let ack = |token: u64, n: u64| [token.to_le_bytes(), n.to_le_bytes()].concat();
    let cases: [(&str, Vec<u8>); 8] = [
        ("unknown handler id", am(NOBODY, &[])),
        ("unknown handler id inside a valid batch", hostile_batch),
        ("3-byte deposit", am(deposit, &[1, 2, 3])),
        (
            "reply with an unknown token",
            am(reply_router, &rpc(77, &[0; 8])),
        ),
        ("reply shorter than a token", am(reply_router, &[1, 2, 3])),
        ("call with short args", am(inc, &rpc(5, &[1, 2, 3]))),
        ("3-byte finish ack", am(finish_ack, &[1, 2, 3])),
        (UNSPAWNED, am(finish_ack, &ack(0, 1))),
    ];
    for (what, hostile) in cases {
        let dir = scratch("uds-hostile");
        std::fs::create_dir_all(&dir).unwrap();
        let (shared, peer) = std::thread::scope(|s| {
            let hosted = s.spawn(|| {
                let mut registry = FnRegistry::new();
                let registered = registry.register(|_: &Ctx, x: u64| x + 1);
                assert_eq!(registered.id(), inc);
                let config = FabricConfig {
                    ranks: 2,
                    segment_bytes: SEG,
                    remote: Some(RemoteConfig {
                        my_rank: 0,
                        conduit: ConduitSel::Uds(dir.clone()),
                    }),
                    ..FabricConfig::default()
                };
                Shared::new_full(config, registry.into_handlers())
            });
            let peer = SocketConduit::uds(&dir, 1, 2);
            (hosted.join().unwrap(), peer)
        });
        let (ctx, fabric) = (Ctx::new(0, shared.clone()), &shared.fabric);
        let advance_until = |done: &dyn Fn() -> bool| {
            let deadline = Instant::now() + Duration::from_secs(30);
            while !done() {
                ctx.advance();
                assert!(Instant::now() < deadline, "{what}: stalled");
                std::thread::yield_now();
            }
        };
        // The link and the dispatch work: a well-formed call is answered.
        peer.send(0, &am(inc, &rpc(5, &41u64.to_le_bytes())));
        let reply = std::cell::RefCell::new(None);
        advance_until(&|| {
            if let Some(ConduitEvent::Frame(0, frame)) = peer.try_recv() {
                *reply.borrow_mut() = Some(frame);
            }
            reply.borrow().is_some()
        });
        match wire::decode(reply.borrow().as_ref().unwrap()) {
            Ok(WireFrame::AmHandler { id, args, .. }) => {
                assert_eq!(
                    (id, args),
                    (reply_router, &rpc(5, &42u64.to_le_bytes())[..])
                );
            }
            other => panic!("{what}: unexpected reply {other:?}"),
        }
        assert!(fabric.failure().is_none());
        // The hostile frame: refused, the link classified, nothing applied.
        let refuse = || {
            peer.send(0, &hostile);
            advance_until(&|| fabric.has_failed());
        };
        if what == UNSPAWNED {
            // The scope's wait is where the failed link surfaces.
            let waited =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| ctx.finish(|_| refuse())));
            let panic = waited.expect_err("the scope's wait reports the failed link");
            let msg = panic.downcast_ref::<String>().expect("a formatted message");
            assert!(msg.contains("unreachable"), "{what}: {msg}");
        } else {
            refuse();
        }
        let failure = fabric.failure().expect("a classified failure");
        assert_eq!((failure.src, failure.dst), (0, 1), "{what}");
        assert!(failure.to_string().contains("unreachable"), "{failure}");
        let segment = &fabric.endpoint(0).segment;
        assert!(
            (0..SEG / 8).all(|w| segment.load_u64(w * 8) == 0),
            "{what}: segment touched"
        );
        fabric.conduit_teardown(0);
        peer.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ---- Trait-level contract, all three backends in-process ----

#[test]
fn trait_contract_exactly_once_in_order() {
    use rupcxx_net::{Conduit, ConduitEvent, LoopbackConduit, ShmConduit, SocketConduit};

    fn exercise(mesh: Vec<Box<dyn Conduit>>, name: &str) {
        let n = mesh.len();
        // Every rank sends 50 sequenced frames to every other rank.
        for (src, c) in mesh.iter().enumerate() {
            for dst in 0..n {
                if dst == src {
                    continue;
                }
                for seq in 0..50u32 {
                    let mut frame = vec![src as u8, dst as u8];
                    frame.extend_from_slice(&seq.to_le_bytes());
                    c.send(dst, &frame);
                }
            }
        }
        for c in &mesh {
            for dst in 0..n {
                if dst != c.my_rank() {
                    c.flush(dst);
                }
            }
        }
        // Each receiver sees exactly 50 frames per source, in order.
        for (me, c) in mesh.iter().enumerate() {
            let mut next = vec![0u32; n];
            let mut got = 0;
            let deadline = Instant::now() + Duration::from_secs(30);
            while got < 50 * (n - 1) {
                match c.try_recv() {
                    Some(ConduitEvent::Frame(src, frame)) => {
                        assert_eq!(frame[0] as usize, src, "{name}: src tag");
                        assert_eq!(frame[1] as usize, me, "{name}: dst tag");
                        let seq = u32::from_le_bytes(frame[2..6].try_into().unwrap());
                        assert_eq!(seq, next[src], "{name}: out of order from {src}");
                        next[src] += 1;
                        got += 1;
                    }
                    Some(ConduitEvent::Closed(src)) => {
                        panic!("{name}: premature Closed({src})")
                    }
                    None => {
                        assert!(Instant::now() < deadline, "{name}: stalled at {got}");
                        std::thread::yield_now();
                    }
                }
            }
            assert!(c.try_recv().is_none(), "{name}: extra delivery");
        }
        for c in &mesh {
            c.shutdown();
        }
    }

    exercise(
        LoopbackConduit::mesh(3)
            .into_iter()
            .map(|c| Box::new(c) as Box<dyn Conduit>)
            .collect(),
        "loopback",
    );

    let seg = format!("{}.seg", scratch("trait-shm"));
    let shm: Vec<Box<dyn Conduit>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..3)
            .map(|r| {
                let seg = seg.clone();
                s.spawn(move || Box::new(ShmConduit::attach(&seg, r, 3)) as Box<dyn Conduit>)
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    exercise(shm, "shm");
    let _ = std::fs::remove_file(&seg);

    let dir = scratch("trait-uds");
    std::fs::create_dir_all(&dir).unwrap();
    let uds: Vec<Box<dyn Conduit>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..3)
            .map(|r| {
                let dir = dir.clone();
                s.spawn(move || Box::new(SocketConduit::uds(&dir, r, 3)) as Box<dyn Conduit>)
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    exercise(uds, "uds");
    let _ = std::fs::remove_dir_all(&dir);
}
