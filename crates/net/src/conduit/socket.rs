//! Socket conduit: TCP or Unix-domain stream sockets.
//!
//! Rank *r* listens (TCP: `base_port + r`; UDS: `DIR/rupcxx-r.sock`) and
//! dials one outbound connection per peer, so each directed link is its
//! own stream — per-link FIFO comes from the stream, exactly-once from
//! never resending. Frames are `u32`-length-prefixed byte blobs. A hello
//! word (magic + rank) identifies the dialing rank on accept.
//!
//! Send path: `send` copies the frame into a pooled buffer and hands it
//! to the link's writer thread; buffers cycle through a free pool so the
//! steady state allocates nothing. A failed write surfaces as a
//! [`ConduitEvent::Closed`] for that peer — this is the genuine failure
//! domain the chaos suite kills: a dead process resets its streams and
//! the fabric classifies the closure as `PeerUnreachable`.

use super::{Conduit, ConduitEvent, Inbound};
use crate::Rank;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

const HELLO_MAGIC: u32 = 0x5255_5043; // "RUPC"
const CONNECT_TIMEOUT: Duration = Duration::from_secs(30);
/// Pooled send buffers above this size are dropped instead of recycled.
const POOL_BUF_MAX: usize = 1 << 20;

enum Listener {
    Tcp(TcpListener),
    Uds(UnixListener),
}

enum Conn {
    Tcp(TcpStream),
    Uds(UnixStream),
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            Conn::Uds(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            Conn::Uds(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            Conn::Uds(s) => s.flush(),
        }
    }
}

/// Outbound queue feeding one link's writer thread.
struct OutState {
    queue: VecDeque<Vec<u8>>,
    /// Recycled buffers (length-prefix + frame layout).
    pool: Vec<Vec<u8>>,
    /// The buffer currently being written, if any.
    in_flight: bool,
    closed: bool,
}

struct OutQueue {
    state: Mutex<OutState>,
    cv: Condvar,
}

impl OutQueue {
    fn new() -> OutQueue {
        OutQueue {
            state: Mutex::new(OutState {
                queue: VecDeque::new(),
                pool: Vec::new(),
                in_flight: false,
                closed: false,
            }),
            cv: Condvar::new(),
        }
    }

    /// Enqueue a length-prefixed copy of `frame` in a pooled buffer.
    fn push(&self, frame: &[u8]) {
        let mut st = self.state.lock().unwrap();
        if st.closed {
            // The peer is gone and a Closed event is already queued;
            // later sends are black-holed, mirroring a dead NIC.
            return;
        }
        let mut buf = st.pool.pop().unwrap_or_default();
        buf.clear();
        buf.extend_from_slice(&(frame.len() as u32).to_le_bytes());
        buf.extend_from_slice(frame);
        st.queue.push_back(buf);
        drop(st);
        self.cv.notify_all();
    }

    /// Block until the writer drained everything enqueued so far (or the
    /// link died).
    fn wait_empty(&self) {
        let mut st = self.state.lock().unwrap();
        while !st.closed && (st.in_flight || !st.queue.is_empty()) {
            st = self.cv.wait(st).unwrap();
        }
    }

    fn close(&self) {
        let mut st = self.state.lock().unwrap();
        st.closed = true;
        st.queue.clear();
        drop(st);
        self.cv.notify_all();
    }
}

struct LinkOut {
    q: Arc<OutQueue>,
    writer: Mutex<Option<std::thread::JoinHandle<()>>>,
}

/// Writer thread: pop buffers, `write_all`, recycle into the pool.
fn writer_loop(q: &OutQueue, mut conn: Conn, dst: Rank, inbound: &Inbound) {
    loop {
        let buf = {
            let mut st = q.state.lock().unwrap();
            loop {
                if let Some(buf) = st.queue.pop_front() {
                    st.in_flight = true;
                    break buf;
                }
                if st.closed {
                    return;
                }
                st = q.cv.wait(st).unwrap();
            }
        };
        let result = conn.write_all(&buf);
        let mut st = q.state.lock().unwrap();
        st.in_flight = false;
        if result.is_err() {
            st.closed = true;
            st.queue.clear();
            drop(st);
            q.cv.notify_all();
            inbound.lock().push_back(ConduitEvent::Closed(dst));
            return;
        }
        if buf.capacity() <= POOL_BUF_MAX {
            st.pool.push(buf);
        }
        drop(st);
        q.cv.notify_all();
    }
}

/// Reader thread: length-prefixed frames from one accepted peer.
fn reader_loop(mut conn: Conn, src: Rank, inbound: &Inbound) {
    loop {
        let mut len_bytes = [0u8; 4];
        if conn.read_exact(&mut len_bytes).is_err() {
            inbound.lock().push_back(ConduitEvent::Closed(src));
            return;
        }
        let len = u32::from_le_bytes(len_bytes) as usize;
        let mut frame = vec![0u8; len];
        if conn.read_exact(&mut frame).is_err() {
            inbound.lock().push_back(ConduitEvent::Closed(src));
            return;
        }
        inbound.lock().push_back(ConduitEvent::Frame(src, frame));
    }
}

/// TCP / Unix-domain-socket conduit for one rank of an SPMD job.
pub struct SocketConduit {
    me: Rank,
    n: usize,
    kind: &'static str,
    links: Vec<Option<LinkOut>>,
    inbound: Arc<Inbound>,
    accept_stop: Arc<AtomicBool>,
    accept_thread: Mutex<Option<std::thread::JoinHandle<()>>>,
    down: AtomicBool,
}

impl SocketConduit {
    /// TCP mesh: rank `r` listens on `base_port + r` at `host`.
    pub fn tcp(host: &str, base_port: u16, me: Rank, n: usize) -> SocketConduit {
        let addr = |r: Rank| format!("{host}:{}", base_port + r as u16);
        let listener = Listener::Tcp(
            TcpListener::bind(addr(me))
                .unwrap_or_else(|e| panic!("tcp conduit: bind {}: {e}", addr(me))),
        );
        let dial = move |r: Rank| TcpStream::connect(addr(r)).map(Conn::Tcp);
        SocketConduit::mesh("tcp", listener, &dial, me, n)
    }

    /// UDS mesh: rank `r` listens on `dir/rupcxx-r.sock`. The directory
    /// is created if missing (like the shm backend's segment file), so
    /// `RUPCXX_CONDUIT=uds:/tmp/job` works without prior setup.
    pub fn uds(dir: &str, me: Rank, n: usize) -> SocketConduit {
        std::fs::create_dir_all(dir)
            .unwrap_or_else(|e| panic!("uds conduit: create dir {dir}: {e}"));
        let sock = |r: Rank| format!("{dir}/rupcxx-{r}.sock");
        let my_sock = sock(me);
        let _ = std::fs::remove_file(&my_sock);
        let listener = Listener::Uds(
            UnixListener::bind(&my_sock)
                .unwrap_or_else(|e| panic!("uds conduit: bind {my_sock}: {e}")),
        );
        let dial = move |r: Rank| UnixStream::connect(sock(r)).map(Conn::Uds);
        SocketConduit::mesh("uds", listener, &dial, me, n)
    }

    fn mesh(
        kind: &'static str,
        listener: Listener,
        dial: &dyn Fn(Rank) -> std::io::Result<Conn>,
        me: Rank,
        n: usize,
    ) -> SocketConduit {
        assert!(me < n, "rank {me} out of range for {n} ranks");
        let inbound = Arc::new(Inbound::default());
        let accept_stop = Arc::new(AtomicBool::new(false));

        // Accept inbound links in the background while we dial out (the
        // mesh comes up in arbitrary order across processes).
        let accept_thread = {
            let inbound = Arc::clone(&inbound);
            let stop = Arc::clone(&accept_stop);
            match &listener {
                Listener::Tcp(l) => l.set_nonblocking(true).expect("nonblocking listener"),
                Listener::Uds(l) => l.set_nonblocking(true).expect("nonblocking listener"),
            }
            std::thread::Builder::new()
                .name(format!("rupcxx-{kind}-accept-{me}"))
                .spawn(move || accept_loop(listener, n, &inbound, &stop))
                .expect("spawn accept thread")
        };

        // Dial every peer; retry while their listener comes up.
        let mut links: Vec<Option<LinkOut>> = Vec::with_capacity(n);
        for dst in 0..n {
            if dst == me {
                links.push(None);
                continue;
            }
            let deadline = Instant::now() + CONNECT_TIMEOUT;
            let mut conn = loop {
                match dial(dst) {
                    Ok(c) => break c,
                    Err(e) => {
                        assert!(
                            Instant::now() < deadline,
                            "{kind} conduit: rank {me} cannot reach rank {dst}: {e}"
                        );
                        std::thread::sleep(Duration::from_millis(2));
                    }
                }
            };
            if let Conn::Tcp(s) = &conn {
                let _ = s.set_nodelay(true);
            }
            let mut hello = [0u8; 8];
            hello[..4].copy_from_slice(&HELLO_MAGIC.to_le_bytes());
            hello[4..].copy_from_slice(&(me as u32).to_le_bytes());
            conn.write_all(&hello)
                .unwrap_or_else(|e| panic!("{kind} conduit: hello to rank {dst}: {e}"));

            let q = Arc::new(OutQueue::new());
            let writer = {
                let q = Arc::clone(&q);
                let inbound = Arc::clone(&inbound);
                std::thread::Builder::new()
                    .name(format!("rupcxx-{kind}-tx-{me}-{dst}"))
                    .spawn(move || writer_loop(&q, conn, dst, &inbound))
                    .expect("spawn writer thread")
            };
            links.push(Some(LinkOut {
                q,
                writer: Mutex::new(Some(writer)),
            }));
        }

        SocketConduit {
            me,
            n,
            kind,
            links,
            inbound,
            accept_stop,
            accept_thread: Mutex::new(Some(accept_thread)),
            down: AtomicBool::new(false),
        }
    }
}

fn accept_loop(listener: Listener, n: usize, inbound: &Arc<Inbound>, stop: &AtomicBool) {
    let mut accepted = 0usize;
    while !stop.load(Ordering::Acquire) && accepted < n {
        let conn = match &listener {
            Listener::Tcp(l) => match l.accept() {
                Ok((s, _)) => {
                    let _ = s.set_nodelay(true);
                    Some(Conn::Tcp(s))
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => None,
                Err(_) => None,
            },
            Listener::Uds(l) => match l.accept() {
                Ok((s, _)) => Some(Conn::Uds(s)),
                Err(e) if e.kind() == ErrorKind::WouldBlock => None,
                Err(_) => None,
            },
        };
        let Some(mut conn) = conn else {
            std::thread::sleep(Duration::from_millis(1));
            continue;
        };
        accepted += 1;
        // Blocking from here on: the reader thread owns this stream.
        match &conn {
            Conn::Tcp(s) => s.set_nonblocking(false).expect("blocking stream"),
            Conn::Uds(s) => s.set_nonblocking(false).expect("blocking stream"),
        }
        let mut hello = [0u8; 8];
        if conn.read_exact(&mut hello).is_err() {
            continue;
        }
        let magic = u32::from_le_bytes(hello[..4].try_into().unwrap());
        let src = u32::from_le_bytes(hello[4..].try_into().unwrap()) as Rank;
        if magic != HELLO_MAGIC || src >= n {
            continue; // Not one of ours; drop it.
        }
        let inbound = Arc::clone(inbound);
        let _ = std::thread::Builder::new()
            .name(format!("rupcxx-rx-{src}"))
            .spawn(move || reader_loop(conn, src, &inbound));
    }
}

impl Conduit for SocketConduit {
    fn ranks(&self) -> usize {
        self.n
    }

    fn my_rank(&self) -> Rank {
        self.me
    }

    fn name(&self) -> &'static str {
        self.kind
    }

    fn send(&self, dst: Rank, frame: &[u8]) {
        let link = self.links[dst]
            .as_ref()
            .unwrap_or_else(|| panic!("{} conduit: self-send", self.kind));
        link.q.push(frame);
    }

    fn try_recv(&self) -> Option<ConduitEvent> {
        self.inbound.lock().pop_front()
    }

    fn flush(&self, dst: Rank) {
        if let Some(link) = self.links[dst].as_ref() {
            link.q.wait_empty();
        }
    }

    fn shutdown(&self) {
        if self.down.swap(true, Ordering::AcqRel) {
            return;
        }
        for link in self.links.iter().flatten() {
            link.q.wait_empty();
            link.q.close();
            if let Some(w) = link.writer.lock().unwrap().take() {
                let _ = w.join();
            }
        }
        self.accept_stop.store(true, Ordering::Release);
        if let Some(a) = self.accept_thread.lock().unwrap().take() {
            let _ = a.join();
        }
        // Reader threads exit on peer EOF as the mesh tears down.
    }
}

impl Drop for SocketConduit {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uds_dir(tag: &str) -> String {
        let dir = format!(
            "{}/rupcxx-uds-test-{}-{tag}",
            std::env::temp_dir().display(),
            std::process::id()
        );
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn mesh_uds(dir: &str, n: usize) -> Vec<SocketConduit> {
        let handles: Vec<_> = (0..n)
            .map(|r| {
                let dir = dir.to_string();
                std::thread::spawn(move || SocketConduit::uds(&dir, r, n))
            })
            .collect();
        let mut v: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        v.sort_by_key(|c| c.my_rank());
        v
    }

    #[test]
    fn uds_mesh_delivers_in_order() {
        let dir = uds_dir("order");
        let mesh = mesh_uds(&dir, 3);
        for i in 0..50u32 {
            mesh[0].send(2, &i.to_le_bytes());
            mesh[1].send(2, &(1000 + i).to_le_bytes());
        }
        mesh[0].flush(2);
        mesh[1].flush(2);
        let mut from0 = Vec::new();
        let mut from1 = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(10);
        while from0.len() + from1.len() < 100 {
            match mesh[2].try_recv() {
                Some(ConduitEvent::Frame(0, f)) => {
                    from0.push(u32::from_le_bytes(f.try_into().unwrap()))
                }
                Some(ConduitEvent::Frame(1, f)) => {
                    from1.push(u32::from_le_bytes(f.try_into().unwrap()))
                }
                Some(other) => panic!("unexpected {other:?}"),
                None => {
                    assert!(Instant::now() < deadline, "frames lost");
                    std::thread::yield_now();
                }
            }
        }
        assert_eq!(from0, (0..50).collect::<Vec<u32>>());
        assert_eq!(from1, (1000..1050).collect::<Vec<u32>>());
        for c in &mesh {
            c.shutdown();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn peer_shutdown_surfaces_closed_event() {
        let dir = uds_dir("closed");
        let mesh = mesh_uds(&dir, 2);
        mesh[1].send(0, b"bye");
        mesh[1].flush(0);
        // Tearing rank 1 down closes its dialed stream into rank 0; rank
        // 0's reader sees EOF and reports the link down.
        mesh[1].shutdown();
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut saw_frame = false;
        loop {
            match mesh[0].try_recv() {
                Some(ConduitEvent::Frame(1, f)) => {
                    assert_eq!(&f, b"bye");
                    saw_frame = true;
                }
                Some(ConduitEvent::Closed(1)) => break,
                Some(other) => panic!("unexpected {other:?}"),
                None => {
                    assert!(Instant::now() < deadline, "no Closed event");
                    std::thread::yield_now();
                }
            }
        }
        assert!(saw_frame, "frame must precede Closed");
        mesh[0].shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
