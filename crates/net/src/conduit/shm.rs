//! Shared-memory conduit for co-located OS processes.
//!
//! All ranks mmap one segment file. The file starts with a bootstrap
//! header (magic, rank count, ring size, per-rank ready flags) followed
//! by an `n × n` matrix of SPSC byte rings, one per directed link. A
//! frame on the ring is a `u32` length prefix plus payload, wrapping
//! around the ring end byte-wise. Each ring has exactly one producer
//! process (serialized in-process by a per-link mutex) and one consumer
//! thread, so `head`/`tail` are a classic single-producer single-consumer
//! pair: monotonic byte counters with release/acquire pairing and no CAS
//! on the data path.
//!
//! Bootstrap: the first process to `create_new` the file wins, sizes it,
//! writes the geometry, and publishes the magic word *last* (release).
//! Everyone else polls for the magic, then all ranks set their ready
//! flag and wait for the full roster — rank count and ids are exchanged
//! purely through the segment header. Once the roster is full the
//! creator unlinks the file (every rank has mapped it, and a mapping
//! outlives its name), so the next job on the same path starts afresh.
//!
//! The crate links no FFI bindings, so `mmap`/`munmap` are invoked as
//! raw Linux syscalls (x86-64). A dead peer cannot be *detected* here
//! (nobody closes a ring); process-death classification is the socket
//! conduits' job — see the conduit matrix in the README.

use super::{Conduit, ConduitEvent, Inbound};
use crate::Rank;
use rupcxx_util::sync::Mutex;
use std::fs::OpenOptions;
use std::io::ErrorKind;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const MAGIC: u64 = 0x7275_7063_7878_3031; // "rupcxx01"
const HEADER_BYTES: usize = 4096;
const RING_HEADER_BYTES: usize = 64;
/// Per-link ring capacity. A frame (4-byte length prefix + payload) must
/// fit in one ring; the fabric's aggregation flush thresholds sit far
/// below this.
pub const RING_BYTES: usize = 1 << 20;

const BOOTSTRAP_TIMEOUT: Duration = Duration::from_secs(60);
const DRAIN_TIMEOUT: Duration = Duration::from_secs(30);

// --- raw mmap/munmap (no FFI bindings in the workspace) ----------------

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
unsafe fn sys_mmap(len: usize, fd: i32) -> *mut u8 {
    const SYS_MMAP: isize = 9;
    const PROT_READ_WRITE: usize = 0x3;
    const MAP_SHARED: usize = 0x1;
    let ret: isize;
    std::arch::asm!(
        "syscall",
        inlateout("rax") SYS_MMAP => ret,
        in("rdi") 0usize,
        in("rsi") len,
        in("rdx") PROT_READ_WRITE,
        in("r10") MAP_SHARED,
        in("r8") fd as isize,
        in("r9") 0usize,
        lateout("rcx") _,
        lateout("r11") _,
        options(nostack)
    );
    assert!(
        !(-4095..0).contains(&ret),
        "shm conduit: mmap failed (errno {})",
        -ret
    );
    ret as *mut u8
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
unsafe fn sys_munmap(ptr: *mut u8, len: usize) {
    const SYS_MUNMAP: isize = 11;
    let ret: isize;
    std::arch::asm!(
        "syscall",
        inlateout("rax") SYS_MUNMAP => ret,
        in("rdi") ptr,
        in("rsi") len,
        lateout("rcx") _,
        lateout("r11") _,
        options(nostack)
    );
    debug_assert_eq!(ret, 0, "shm conduit: munmap failed (errno {})", -ret);
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
unsafe fn sys_mmap(_len: usize, _fd: i32) -> *mut u8 {
    panic!("shm conduit requires x86-64 Linux (raw mmap syscall)")
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
unsafe fn sys_munmap(_ptr: *mut u8, _len: usize) {}

/// An mmap'd region; unmapped on drop.
struct Map {
    base: *mut u8,
    len: usize,
}

// The mapping is plain shared memory; all mutation goes through atomics
// or producer/consumer-exclusive ranges.
unsafe impl Send for Map {}
unsafe impl Sync for Map {}

impl Drop for Map {
    fn drop(&mut self) {
        unsafe { sys_munmap(self.base, self.len) };
    }
}

impl Map {
    /// The `AtomicU64` at byte offset `off`.
    fn word(&self, off: usize) -> &AtomicU64 {
        assert!(off + 8 <= self.len && off.is_multiple_of(8));
        unsafe { &*(self.base.add(off) as *const AtomicU64) }
    }
}

// --- ring geometry -----------------------------------------------------

fn file_len(n: usize, ring_bytes: usize) -> usize {
    HEADER_BYTES + n * n * (RING_HEADER_BYTES + ring_bytes)
}

fn ring_off(n: usize, src: Rank, dst: Rank, ring_bytes: usize) -> usize {
    HEADER_BYTES + (src * n + dst) * (RING_HEADER_BYTES + ring_bytes)
}

fn ready_off(rank: Rank) -> usize {
    24 + rank * 8
}

/// One directed SPSC byte ring inside the mapping.
///
/// `head`/`tail` are monotonic byte counters (they never wrap); the byte
/// at logical position `p` lives at `data[p % cap]`.
struct Ring<'m> {
    map: &'m Map,
    /// Byte offset of the ring header inside the mapping.
    off: usize,
    cap: usize,
}

impl<'m> Ring<'m> {
    fn new(map: &'m Map, n: usize, src: Rank, dst: Rank, cap: usize) -> Ring<'m> {
        Ring {
            map,
            off: ring_off(n, src, dst, cap),
            cap,
        }
    }

    fn head(&self) -> &AtomicU64 {
        self.map.word(self.off)
    }

    fn tail(&self) -> &AtomicU64 {
        self.map.word(self.off + 8)
    }

    fn copy_in(&self, pos: u64, bytes: &[u8]) {
        let idx = (pos % self.cap as u64) as usize;
        let first = bytes.len().min(self.cap - idx);
        let data = unsafe { self.map.base.add(self.off + RING_HEADER_BYTES) };
        unsafe {
            std::ptr::copy_nonoverlapping(bytes.as_ptr(), data.add(idx), first);
            std::ptr::copy_nonoverlapping(bytes.as_ptr().add(first), data, bytes.len() - first);
        }
    }

    fn copy_out(&self, pos: u64, out: &mut [u8]) {
        let idx = (pos % self.cap as u64) as usize;
        let first = out.len().min(self.cap - idx);
        let data = unsafe { self.map.base.add(self.off + RING_HEADER_BYTES) };
        unsafe {
            std::ptr::copy_nonoverlapping(data.add(idx), out.as_mut_ptr(), first);
            std::ptr::copy_nonoverlapping(data, out.as_mut_ptr().add(first), out.len() - first);
        }
    }

    /// Producer side (caller must serialize producers of one ring).
    fn push(&self, frame: &[u8]) {
        let need = 4 + frame.len() as u64;
        assert!(
            need <= self.cap as u64,
            "shm conduit: frame of {} bytes exceeds ring capacity {}",
            frame.len(),
            self.cap
        );
        let head = self.head().load(Ordering::Relaxed);
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        loop {
            let tail = self.tail().load(Ordering::Acquire);
            if self.cap as u64 - (head - tail) >= need {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "shm conduit: peer not draining (ring full for {DRAIN_TIMEOUT:?})"
            );
            std::thread::yield_now();
        }
        self.copy_in(head, &(frame.len() as u32).to_le_bytes());
        self.copy_in(head + 4, frame);
        self.head().store(head + need, Ordering::Release);
    }

    /// Consumer side (single drain thread per ring).
    fn pop(&self) -> Option<Vec<u8>> {
        let tail = self.tail().load(Ordering::Relaxed);
        let head = self.head().load(Ordering::Acquire);
        if head == tail {
            return None;
        }
        let mut len_bytes = [0u8; 4];
        self.copy_out(tail, &mut len_bytes);
        let len = u32::from_le_bytes(len_bytes) as usize;
        debug_assert!(head - tail >= 4 + len as u64, "shm ring: torn frame");
        let mut frame = vec![0u8; len];
        self.copy_out(tail + 4, &mut frame);
        self.tail().store(tail + 4 + len as u64, Ordering::Release);
        Some(frame)
    }
}

// --- the conduit -------------------------------------------------------

/// Shared-memory conduit: one attach point per co-located OS process.
pub struct ShmConduit {
    me: Rank,
    n: usize,
    ring_bytes: usize,
    map: Arc<Map>,
    /// Serializes in-process senders per outgoing link (the ring itself
    /// is strictly single-producer).
    out_locks: Vec<Mutex<()>>,
    inbound: Arc<Inbound>,
    stop: Arc<AtomicBool>,
    rx: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl ShmConduit {
    /// Attach rank `me` of `n` to the segment file at `path`, creating
    /// it if this process gets there first. Blocks until all `n` ranks
    /// have attached (bootstrap roster in the header).
    pub fn attach(path: &str, me: Rank, n: usize) -> ShmConduit {
        assert!(me < n, "rank {me} out of range for {n} ranks");
        let total = file_len(n, RING_BYTES);
        let deadline = Instant::now() + BOOTSTRAP_TIMEOUT;

        let (file, created) = loop {
            match OpenOptions::new()
                .read(true)
                .write(true)
                .create_new(true)
                .open(path)
            {
                Ok(f) => break (f, true),
                Err(e) if e.kind() == ErrorKind::AlreadyExists => {
                    match OpenOptions::new().read(true).write(true).open(path) {
                        Ok(f) => break (f, false),
                        // The creator may remove a stale file and
                        // recreate it; retry the whole dance.
                        Err(e) if e.kind() == ErrorKind::NotFound => {}
                        Err(e) => panic!("shm conduit: cannot open {path}: {e}"),
                    }
                }
                Err(e) => panic!("shm conduit: cannot create {path}: {e}"),
            }
            assert!(
                Instant::now() < deadline,
                "shm conduit: bootstrap timed out opening {path}"
            );
            std::thread::sleep(Duration::from_millis(1));
        };

        if created {
            file.set_len(total as u64)
                .unwrap_or_else(|e| panic!("shm conduit: cannot size {path}: {e}"));
        } else {
            // Wait for the creator to finish sizing before mapping.
            loop {
                let len = file
                    .metadata()
                    .unwrap_or_else(|e| panic!("shm conduit: stat {path}: {e}"))
                    .len();
                if len == total as u64 {
                    break;
                }
                assert!(
                    len == 0,
                    "shm conduit: {path} has size {len}, expected {total} — \
                     stale segment from a different job? remove it first"
                );
                assert!(
                    Instant::now() < deadline,
                    "shm conduit: bootstrap timed out waiting for {path} to be sized"
                );
                std::thread::sleep(Duration::from_millis(1));
            }
        }

        use std::os::fd::AsRawFd;
        let map = Map {
            base: unsafe { sys_mmap(total, file.as_raw_fd()) },
            len: total,
        };
        drop(file); // The mapping outlives the descriptor.

        if created {
            map.word(8).store(n as u64, Ordering::Relaxed);
            map.word(16).store(RING_BYTES as u64, Ordering::Relaxed);
            // Publish geometry before the magic: attachers acquire the
            // magic, so they see the fields above.
            map.word(0).store(MAGIC, Ordering::Release);
        } else {
            while map.word(0).load(Ordering::Acquire) != MAGIC {
                assert!(
                    Instant::now() < deadline,
                    "shm conduit: bootstrap timed out waiting for segment magic"
                );
                std::thread::yield_now();
            }
            let seg_ranks = map.word(8).load(Ordering::Relaxed) as usize;
            assert_eq!(
                seg_ranks, n,
                "shm conduit: segment {path} was created for {seg_ranks} ranks, not {n}"
            );
            assert_eq!(
                map.word(16).load(Ordering::Relaxed) as usize,
                RING_BYTES,
                "shm conduit: ring geometry mismatch in {path}"
            );
        }

        // Roster: announce ourselves, then wait for the full rank set.
        let prev = map.word(ready_off(me)).swap(1, Ordering::AcqRel);
        assert_eq!(prev, 0, "shm conduit: rank {me} attached twice to {path}");
        'roster: loop {
            for r in 0..n {
                if map.word(ready_off(r)).load(Ordering::Acquire) == 0 {
                    assert!(
                        Instant::now() < deadline,
                        "shm conduit: bootstrap timed out waiting for rank {r}"
                    );
                    std::thread::sleep(Duration::from_micros(100));
                    continue 'roster;
                }
            }
            break;
        }
        // Every rank mapped the file before it set its flag. Only the
        // creator unlinks: a slow peer of this job must not remove the
        // file the next job on this path has already created.
        if created {
            let _ = std::fs::remove_file(path);
        }

        let map = Arc::new(map);
        let inbound = Arc::new(Inbound::default());
        let stop = Arc::new(AtomicBool::new(false));
        let rx = {
            let map = Arc::clone(&map);
            let inbound = Arc::clone(&inbound);
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name(format!("rupcxx-shm-rx-{me}"))
                .spawn(move || drain_loop(&map, me, n, RING_BYTES, &inbound, &stop))
                .expect("spawn shm rx thread")
        };

        ShmConduit {
            me,
            n,
            ring_bytes: RING_BYTES,
            map,
            out_locks: (0..n).map(|_| Mutex::new(())).collect(),
            inbound,
            stop,
            rx: Mutex::new(Some(rx)),
        }
    }
}

/// Consumer thread: drain every inbound ring into the event queue.
fn drain_loop(
    map: &Map,
    me: Rank,
    n: usize,
    ring_bytes: usize,
    inbound: &Inbound,
    stop: &AtomicBool,
) {
    let rings: Vec<Ring<'_>> = (0..n)
        .map(|src| Ring::new(map, n, src, me, ring_bytes))
        .collect();
    let mut idle = 0u32;
    while !stop.load(Ordering::Acquire) {
        let mut moved = false;
        for (src, ring) in rings.iter().enumerate() {
            if src == me {
                continue;
            }
            while let Some(frame) = ring.pop() {
                inbound.lock().push_back(ConduitEvent::Frame(src, frame));
                moved = true;
            }
        }
        if moved {
            idle = 0;
        } else {
            idle += 1;
            if idle < 64 {
                std::thread::yield_now();
            } else {
                std::thread::sleep(Duration::from_micros(50));
            }
        }
    }
}

impl Conduit for ShmConduit {
    fn ranks(&self) -> usize {
        self.n
    }

    fn my_rank(&self) -> Rank {
        self.me
    }

    fn send(&self, dst: Rank, frame: &[u8]) {
        assert_ne!(dst, self.me, "shm conduit: self-send");
        let _guard = self.out_locks[dst].lock();
        Ring::new(&self.map, self.n, self.me, dst, self.ring_bytes).push(frame);
    }

    fn try_recv(&self) -> Option<ConduitEvent> {
        self.inbound.lock().pop_front()
    }

    fn flush(&self, _dst: Rank) {
        // `send` returns only after the frame is in the shared ring —
        // already out of this process.
    }

    fn shutdown(&self) {
        self.stop.store(true, Ordering::Release);
        if let Some(rx) = self.rx.lock().take() {
            let _ = rx.join();
        }
    }
}

impl Drop for ShmConduit {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_path(tag: &str) -> String {
        format!(
            "{}/rupcxx-shm-test-{}-{tag}.seg",
            std::env::temp_dir().display(),
            std::process::id()
        )
    }

    /// Attach all ranks of an in-process mesh (attach blocks on the
    /// roster, so each attach runs on its own thread).
    fn mesh(path: &str, n: usize) -> Vec<ShmConduit> {
        let handles: Vec<_> = (0..n)
            .map(|r| {
                let path = path.to_string();
                std::thread::spawn(move || ShmConduit::attach(&path, r, n))
            })
            .collect();
        let mut v: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        v.sort_by_key(|c| c.my_rank());
        v
    }

    #[test]
    fn two_ranks_exchange_frames_in_order() {
        let path = tmp_path("pair");
        let _ = std::fs::remove_file(&path);
        let mesh = mesh(&path, 2);
        for i in 0..100u32 {
            mesh[0].send(1, &i.to_le_bytes());
        }
        let mut got = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(10);
        while got.len() < 100 {
            if let Some(ConduitEvent::Frame(src, f)) = mesh[1].try_recv() {
                assert_eq!(src, 0);
                got.push(u32::from_le_bytes(f.try_into().unwrap()));
            } else {
                assert!(Instant::now() < deadline, "frames lost");
                std::thread::yield_now();
            }
        }
        assert_eq!(got, (0..100).collect::<Vec<u32>>());
        for c in &mesh {
            c.shutdown();
        }
    }

    #[test]
    fn ring_wraps_and_backpressures() {
        let path = tmp_path("wrap");
        let _ = std::fs::remove_file(&path);
        let mesh = mesh(&path, 2);
        // Push far more bytes than one ring holds; the consumer thread
        // drains concurrently, exercising wrap-around and backpressure.
        let frame = vec![0xABu8; 64 << 10];
        let total = 4 * RING_BYTES / frame.len();
        let sender = {
            let frame = frame.clone();
            let c0 = &mesh[0];
            std::thread::scope(|s| {
                s.spawn(|| {
                    for _ in 0..total {
                        c0.send(1, &frame);
                    }
                });
                let mut got = 0;
                let deadline = Instant::now() + Duration::from_secs(30);
                while got < total {
                    if let Some(ConduitEvent::Frame(_, f)) = mesh[1].try_recv() {
                        assert_eq!(f.len(), frame.len());
                        assert!(f.iter().all(|&b| b == 0xAB), "payload corrupted on wrap");
                        got += 1;
                    } else {
                        assert!(Instant::now() < deadline, "stalled at {got}/{total}");
                        std::thread::yield_now();
                    }
                }
                got
            })
        };
        assert_eq!(sender, total);
        for c in &mesh {
            c.shutdown();
        }
    }

    #[test]
    fn a_second_mesh_attaches_on_the_same_path() {
        let path = tmp_path("again");
        let _ = std::fs::remove_file(&path);
        for _ in 0..2 {
            let mesh = mesh(&path, 2);
            mesh[0].send(1, b"hi");
            let deadline = Instant::now() + Duration::from_secs(10);
            loop {
                if let Some(ConduitEvent::Frame(0, f)) = mesh[1].try_recv() {
                    assert_eq!(f, b"hi");
                    break;
                }
                assert!(Instant::now() < deadline, "frame lost");
                std::thread::yield_now();
            }
            for c in &mesh {
                c.shutdown();
            }
        }
        assert!(!std::path::Path::new(&path).exists(), "segment file left");
    }

    #[test]
    fn stale_segment_of_wrong_size_is_rejected() {
        let path = tmp_path("stale");
        std::fs::write(&path, b"not a segment").unwrap();
        let err = match std::panic::catch_unwind(|| drop(ShmConduit::attach(&path, 0, 2))) {
            Err(e) => e,
            Ok(()) => panic!("stale segment was accepted"),
        };
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("stale segment"), "got: {msg}");
        let _ = std::fs::remove_file(&path);
    }
}
