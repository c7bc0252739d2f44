//! Pluggable transport conduits (the role GASNet's conduit layer plays
//! under UPC++, paper Fig. 2).
//!
//! A [`Conduit`] moves **sequenced byte frames** between ranks: delivery
//! is reliable and FIFO per directed `(src, dst)` link, and a frame
//! arrives exactly once. Everything above the conduit boundary — the
//! reliable layer's *simulated* faults, aggregation, the read cache, the
//! checker, the profiler — is transport-agnostic: it manipulates
//! [`AmMessage`](crate::AmMessage)s and segment bytes, never a socket or
//! a ring. The fabric encodes those into wire frames (see [`wire`]) only
//! when a conduit is installed.
//!
//! Three implementations:
//!
//! * [`LoopbackConduit`] — conduit #0: per-link in-process queues. The
//!   default fabric does not even construct it (all ranks share one
//!   address space, AMs go straight to the destination inbox), but the
//!   type exists so conformance tests and benches can drive the same
//!   trait surface the out-of-process backends implement.
//! * [`ShmConduit`] — co-located OS processes over an `mmap`'d segment
//!   file: one lock-free SPSC byte ring per directed link, bootstrap via
//!   the segment header.
//! * [`SocketConduit`] — TCP or Unix-domain sockets: length-prefixed
//!   frames, a connect/accept mesh at startup, one writer thread per
//!   link.
//!
//! Selection threads through `RUPCXX_CONDUIT` (see [`ConduitSel`]) and
//! `FabricConfig::remote` / `RuntimeConfig::conduit`.

pub mod loopback;
pub mod shm;
pub mod socket;
pub mod wire;

pub use loopback::LoopbackConduit;
pub use shm::ShmConduit;
pub use socket::SocketConduit;

use crate::Rank;

/// Something a conduit hands to the receiving process.
#[derive(Debug)]
pub enum ConduitEvent {
    /// A data frame from `src`, in per-link FIFO order.
    Frame(Rank, Vec<u8>),
    /// The link to/from `src` is down: the peer's process closed its end
    /// or a write failed. The fabric classifies this as a genuine
    /// failure domain (`PeerUnreachable`) unless the peer already
    /// completed the FIN handshake.
    Closed(Rank),
}

/// A frame transport between the ranks of one SPMD job.
///
/// Contract:
/// * [`Conduit::send`] delivers `frame` to `dst` reliably, exactly once,
///   in FIFO order per directed link. It may block on backpressure.
/// * [`Conduit::try_recv`] is non-blocking and may be called from any
///   thread of the process; events for one `src` come out in send order.
/// * [`Conduit::flush`] is the link-quiescence probe: it returns once
///   every frame previously handed to `send(dst, ..)` has left this
///   process (on the wire or in the shared ring).
/// * [`Conduit::shutdown`] tears the transport down; idempotent.
pub trait Conduit: Send + Sync {
    /// Total ranks in the job.
    fn ranks(&self) -> usize;
    /// The rank this process hosts.
    fn my_rank(&self) -> Rank;
    /// Backend name for diagnostics ("loopback" | "shm" | "tcp" | "uds").
    fn name(&self) -> &'static str;
    /// Send one frame to `dst` (FIFO per link, reliable, exactly once).
    fn send(&self, dst: Rank, frame: &[u8]);
    /// Poll for the next inbound event.
    fn try_recv(&self) -> Option<ConduitEvent>;
    /// Block until everything sent to `dst` has left this process.
    fn flush(&self, dst: Rank);
    /// Tear down the transport (flushes outbound links first).
    fn shutdown(&self);
}

/// A backend's inbound event queue: link readers (or senders, for
/// loopback) push at the back, [`Conduit::try_recv`] pops the front.
pub(crate) type Inbound = rupcxx_util::sync::Mutex<std::collections::VecDeque<ConduitEvent>>;

/// Which conduit a job uses — parsed from `RUPCXX_CONDUIT`.
///
/// Syntax: `loopback` | `shm:PATH` | `tcp:HOST:BASE_PORT` | `uds:DIR`.
/// TCP rank *r* listens on `BASE_PORT + r` at `HOST`; UDS rank *r*
/// listens on `DIR/rupcxx-r.sock`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConduitSel {
    /// All ranks in one process (the default fabric; no wire frames).
    Loopback,
    /// Shared-memory segment file at this path.
    Shm(String),
    /// TCP mesh: (host, base port).
    Tcp(String, u16),
    /// Unix-domain-socket mesh rooted at this directory.
    Uds(String),
}

/// The `RUPCXX_CONDUIT` syntax string (error messages, docs).
pub const CONDUIT_SYNTAX: &str = "loopback|shm:PATH|tcp:HOST:BASE_PORT|uds:DIR";

impl ConduitSel {
    /// Parse a `RUPCXX_CONDUIT` value. An empty value is `Ok(None)`, as
    /// if unset; `loopback` is returned as a value, so a launcher can
    /// tell "explicitly loopback" from "unset" (both run the in-process
    /// fabric).
    pub fn parse(raw: &str) -> Result<Option<ConduitSel>, String> {
        if raw.is_empty() {
            return Ok(None);
        }
        if raw == "loopback" {
            return Ok(Some(ConduitSel::Loopback));
        }
        if let Some(path) = raw.strip_prefix("shm:") {
            if path.is_empty() {
                return Err("shm conduit needs a segment file path".into());
            }
            return Ok(Some(ConduitSel::Shm(path.to_string())));
        }
        if let Some(rest) = raw.strip_prefix("tcp:") {
            let (host, port) = rest
                .rsplit_once(':')
                .ok_or_else(|| "tcp conduit needs HOST:BASE_PORT".to_string())?;
            if host.is_empty() {
                return Err("tcp conduit needs a host".into());
            }
            let port: u16 = port
                .parse()
                .map_err(|_| format!("bad base port {port:?}"))?;
            return Ok(Some(ConduitSel::Tcp(host.to_string(), port)));
        }
        if let Some(dir) = raw.strip_prefix("uds:") {
            if dir.is_empty() {
                return Err("uds conduit needs a socket directory".into());
            }
            return Ok(Some(ConduitSel::Uds(dir.to_string())));
        }
        Err(format!("unknown conduit {raw:?}"))
    }

    /// Read `RUPCXX_CONDUIT` (aborts on a malformed value).
    pub fn from_env() -> Option<ConduitSel> {
        rupcxx_util::env::parse_env("RUPCXX_CONDUIT", CONDUIT_SYNTAX, ConduitSel::parse)
    }

    /// Backend name ("loopback" | "shm" | "tcp" | "uds").
    pub fn kind(&self) -> &'static str {
        match self {
            ConduitSel::Loopback => "loopback",
            ConduitSel::Shm(_) => "shm",
            ConduitSel::Tcp(..) => "tcp",
            ConduitSel::Uds(_) => "uds",
        }
    }
}

impl std::fmt::Display for ConduitSel {
    /// Round-trips through [`ConduitSel::parse`] — launchers re-export
    /// the selection to child processes via `RUPCXX_CONDUIT`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConduitSel::Loopback => write!(f, "loopback"),
            ConduitSel::Shm(path) => write!(f, "shm:{path}"),
            ConduitSel::Tcp(host, port) => write!(f, "tcp:{host}:{port}"),
            ConduitSel::Uds(dir) => write!(f, "uds:{dir}"),
        }
    }
}

/// Multi-process fabric parameters: this process hosts `my_rank` and
/// reaches the other ranks through `conduit`.
#[derive(Clone, Debug)]
pub struct RemoteConfig {
    /// The single rank this OS process hosts.
    pub my_rank: Rank,
    /// The transport to the other processes.
    pub conduit: ConduitSel,
}

/// Build the selected conduit for `my_rank` of `ranks`, blocking until
/// the mesh is up (all peers attached / connected).
///
/// # Panics
/// Panics for [`ConduitSel::Loopback`]: the loopback "conduit" is the
/// in-process fabric itself (`FabricConfig::remote = None`), not a
/// boxed transport.
pub fn build(sel: &ConduitSel, my_rank: Rank, ranks: usize) -> Box<dyn Conduit> {
    match sel {
        ConduitSel::Loopback => {
            panic!("loopback is the in-process fabric, not a remote conduit")
        }
        ConduitSel::Shm(path) => Box::new(ShmConduit::attach(path, my_rank, ranks)),
        ConduitSel::Tcp(host, base) => Box::new(SocketConduit::tcp(host, *base, my_rank, ranks)),
        ConduitSel::Uds(dir) => Box::new(SocketConduit::uds(dir, my_rank, ranks)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selector_parses_and_displays() {
        assert_eq!(ConduitSel::parse("").unwrap(), None);
        assert_eq!(
            ConduitSel::parse("loopback").unwrap(),
            Some(ConduitSel::Loopback)
        );
        assert_eq!(
            ConduitSel::parse("shm:/tmp/seg").unwrap(),
            Some(ConduitSel::Shm("/tmp/seg".into()))
        );
        assert_eq!(
            ConduitSel::parse("tcp:127.0.0.1:9200").unwrap(),
            Some(ConduitSel::Tcp("127.0.0.1".into(), 9200))
        );
        assert_eq!(
            ConduitSel::parse("uds:/tmp/socks").unwrap(),
            Some(ConduitSel::Uds("/tmp/socks".into()))
        );
        for s in ["shm:/a/b", "tcp:h:1", "uds:/d", "loopback"] {
            let sel = ConduitSel::parse(s).unwrap().unwrap();
            assert_eq!(
                ConduitSel::parse(&sel.to_string()).unwrap().unwrap(),
                sel,
                "display round-trip"
            );
        }
    }

    #[test]
    fn selector_rejects_malformed() {
        assert!(ConduitSel::parse("bogus").is_err());
        assert!(ConduitSel::parse("shm:").is_err());
        assert!(ConduitSel::parse("tcp:hostonly").is_err());
        assert!(ConduitSel::parse("tcp::9").is_err());
        assert!(ConduitSel::parse("tcp:h:notaport").is_err());
        assert!(ConduitSel::parse("uds:").is_err());
    }
}
