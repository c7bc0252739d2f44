//! One RMA operation, described once.
//!
//! Every one-sided access — contiguous or strided put/get, word atomics —
//! is an [`RmaOp`]. The descriptor alone knows the op's byte count, its
//! checker access kind and per-block spans, the span it covers, its wire
//! encoding (shared by conduit `Rma` frames and aggregated batch frames)
//! and its single memory touch, [`RmaOp::apply`]: nothing else in this
//! crate reads or writes a segment on behalf of an RMA op.
//! [`Fabric::rma`] is the initiator's side, [`Fabric::rma_arrived`] the
//! receiver's when the op travelled as bytes.
//!
//! `Fabric::rma`, `apply` and `encode` are `#[inline(always)]`: every
//! caller builds one op shape, and inlining folds the descriptor's
//! matches down to it — the compiler writes the per-method bodies.

use crate::conduit::wire::{self, Cursor, WireError};
use crate::fabric::{Fabric, GlobalAddr};
use crate::segment::Segment;
use crate::Rank;
use rupcxx_check::{AccessKind, Stamp};

/// Read-modify-write opcodes of [`RmaOp::Rmw`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RmwOp {
    /// `fetch_xor(a)` — returns the previous value.
    Xor,
    /// `fetch_add(a)` — returns the previous value.
    Add,
    /// `compare_exchange(a, b)` — returns (ok, previous value).
    Cas,
}

/// A one-sided operation on the segment of `addr`'s rank. Payload slices
/// borrow from the caller (initiator) or from the received frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RmaOp<'a> {
    /// Write `data` at `addr`.
    Put {
        /// First byte written.
        addr: GlobalAddr,
        /// Bytes to write.
        data: &'a [u8],
    },
    /// Write `nblocks` blocks of `block` bytes taken contiguously from
    /// `data`, `stride` bytes apart starting at `addr`.
    PutStrided {
        /// First byte of block 0.
        addr: GlobalAddr,
        /// Byte distance between consecutive block starts.
        stride: usize,
        /// Bytes per block.
        block: usize,
        /// Number of blocks.
        nblocks: usize,
        /// Packed block data (`block * nblocks` bytes).
        data: &'a [u8],
    },
    /// Read `len` bytes at `addr`.
    Get {
        /// First byte read.
        addr: GlobalAddr,
        /// Bytes wanted.
        len: usize,
    },
    /// Read `nblocks` blocks of `block` bytes, `stride` apart.
    GetStrided {
        /// First byte of block 0.
        addr: GlobalAddr,
        /// Byte distance between consecutive block starts.
        stride: usize,
        /// Bytes per block.
        block: usize,
        /// Number of blocks.
        nblocks: usize,
    },
    /// Atomic read-modify-write of the aligned word at `addr`.
    Rmw {
        /// The word (8-byte aligned).
        addr: GlobalAddr,
        /// Opcode.
        op: RmwOp,
        /// Xor/add operand, or the value CAS expects.
        a: u64,
        /// The value CAS installs (unused by xor/add).
        b: u64,
    },
}

/// Where an op is being recorded; picks the checker's report label.
#[derive(Clone, Copy)]
pub(crate) enum Site {
    /// On the initiating rank, by [`Fabric::rma`].
    Initiator,
    /// On the target process, from a conduit `Rma` frame.
    Wire,
    /// On the target rank, from an aggregated batch frame.
    Batch,
}

/// One side of a transfer as its initiator accounts for it — everything
/// [`Fabric::rma_begin`] and [`Fabric::rma_end`] read: which bytes are
/// touched (a strided shape; contiguous is one block), as what kind of
/// access, under which name in checker reports. Every [`RmaOp`] has one
/// ([`RmaOp::access`]); [`Fabric::copy`] builds its two sides directly,
/// because a segment-to-segment copy has no payload slice to make a
/// `Put` of.
#[derive(Clone, Copy)]
pub(crate) struct Access {
    /// First byte touched (its rank is the target).
    pub(crate) addr: GlobalAddr,
    stride: usize,
    block: usize,
    nblocks: usize,
    pub(crate) kind: AccessKind,
    pub(crate) label: &'static str,
}

impl Access {
    /// A contiguous get (`Read`) or put (`Write`) of `len` bytes at `addr`.
    #[inline]
    pub(crate) fn contiguous(addr: GlobalAddr, len: usize, kind: AccessKind) -> Self {
        let label = if kind == AccessKind::Read {
            "get"
        } else {
            "put"
        };
        Access {
            addr,
            stride: 0,
            block: len,
            nblocks: 1,
            kind,
            label,
        }
    }

    /// Payload bytes moved (what counters, the wire model and trace
    /// spans are charged). Saturates, like [`Access::cover`], so that a
    /// forged shape fails [`RmaOp::validate`] instead of wrapping.
    #[inline]
    pub(crate) fn bytes(&self) -> usize {
        self.block.saturating_mul(self.nblocks)
    }

    /// Length of the span from the first to the last byte touched, gaps
    /// included (write-through invalidation and bounds checks).
    #[inline]
    pub(crate) fn cover(&self) -> usize {
        match self.nblocks {
            0 => 0,
            n => (n - 1)
                .saturating_mul(self.stride)
                .saturating_add(self.block),
        }
    }

    /// The `(offset, len)` spans actually touched, one per block. The
    /// checker records these, never the covering range: the gaps are not
    /// accessed, and claiming them would invent races with neighbours
    /// that legitimately own the gap bytes.
    #[inline]
    pub(crate) fn spans(&self) -> impl Iterator<Item = (usize, usize)> {
        let (stride, block) = (self.stride, self.block);
        let offset = self.addr.offset();
        (0..self.nblocks).map(move |b| (offset + b * stride, block))
    }

    /// True for a get: the op's result is data read from the segment.
    #[inline]
    pub(crate) fn is_get(&self) -> bool {
        self.kind == AccessKind::Read
    }
}

// Op codes on the wire. 0 is the batch codec's handler frame.
const OP_XOR: u8 = 1;
const OP_ADD: u8 = 2;
const OP_PUT: u8 = 3;
const OP_CAS: u8 = 4;
const OP_PUT_STRIDED: u8 = 5;
const OP_GET: u8 = 6;
const OP_GET_STRIDED: u8 = 7;

/// Bytes of a packed xor/add frame: op code, address word, operand.
const WORD_FRAME: usize = 17;

impl<'a> RmaOp<'a> {
    #[inline]
    pub(crate) fn rmw(addr: GlobalAddr, op: RmwOp, a: u64, b: u64) -> Self {
        RmaOp::Rmw { addr, op, a, b }
    }

    /// The first byte the op touches (its rank is the target).
    #[inline]
    pub fn addr(&self) -> GlobalAddr {
        match *self {
            RmaOp::Put { addr, .. }
            | RmaOp::PutStrided { addr, .. }
            | RmaOp::Get { addr, .. }
            | RmaOp::GetStrided { addr, .. }
            | RmaOp::Rmw { addr, .. } => addr,
        }
    }

    /// Every op as a strided access: `(stride, block, nblocks)`.
    #[inline]
    fn shape(&self) -> (usize, usize, usize) {
        match *self {
            RmaOp::Put { data, .. } => (0, data.len(), 1),
            RmaOp::Get { len, .. } => (0, len, 1),
            RmaOp::Rmw { .. } => (0, 8, 1),
            RmaOp::PutStrided {
                stride,
                block,
                nblocks,
                ..
            }
            | RmaOp::GetStrided {
                stride,
                block,
                nblocks,
                ..
            } => (stride, block, nblocks),
        }
    }

    /// The op as its initiator accounts for it.
    #[inline]
    pub(crate) fn access(&self) -> Access {
        let (stride, block, nblocks) = self.shape();
        Access {
            addr: self.addr(),
            stride,
            block,
            nblocks,
            kind: self.kind(),
            label: self.label(Site::Initiator),
        }
    }

    /// [`Access::bytes`] of the op.
    #[inline]
    pub(crate) fn bytes(&self) -> usize {
        self.access().bytes()
    }

    /// [`Access::cover`] of the op.
    #[inline]
    pub(crate) fn cover(&self) -> usize {
        self.access().cover()
    }

    /// [`Access::spans`] of the op.
    #[inline]
    pub(crate) fn spans(&self) -> impl Iterator<Item = (usize, usize)> {
        self.access().spans()
    }

    /// True for the ops whose result is data read from the segment:
    /// [`RmaOp::apply`] writes `bytes()` of it to `out`.
    #[inline]
    pub(crate) fn is_get(&self) -> bool {
        self.kind() == AccessKind::Read
    }

    #[inline]
    pub(crate) fn kind(&self) -> AccessKind {
        match self {
            RmaOp::Put { .. } | RmaOp::PutStrided { .. } => AccessKind::Write,
            RmaOp::Get { .. } | RmaOp::GetStrided { .. } => AccessKind::Read,
            RmaOp::Rmw { .. } => AccessKind::Atomic,
        }
    }

    /// The label checker reports show for this op recorded at `site`.
    #[inline]
    pub(crate) fn label(&self, site: Site) -> &'static str {
        match (self, site) {
            (RmaOp::Put { .. }, Site::Batch) => "agg-put",
            (RmaOp::Put { .. }, _) => "put",
            (RmaOp::PutStrided { .. }, _) => "put-strided",
            (RmaOp::Get { .. }, _) => "get",
            (RmaOp::GetStrided { .. }, _) => "get-strided",
            (RmaOp::Rmw { .. }, Site::Wire) => "rmw",
            (RmaOp::Rmw { op: RmwOp::Xor, .. }, Site::Batch) => "agg-xor",
            (RmaOp::Rmw { op: RmwOp::Add, .. }, Site::Batch) => "agg-add",
            (RmaOp::Rmw { op: RmwOp::Xor, .. }, _) => "xor",
            (RmaOp::Rmw { op: RmwOp::Add, .. }, _) => "add",
            (RmaOp::Rmw { op: RmwOp::Cas, .. }, _) => "cas",
        }
    }

    /// The op's one memory touch. Gets fill `out` (`bytes()` long);
    /// atomics return `(cas succeeded, previous value)`, a contiguous get
    /// of one aligned word `(true, the word)`, everything else `(true, 0)`.
    ///
    /// An aligned 8-byte block — the dominant size for shared scalars and
    /// word-typed arrays — skips the byte-slice machinery (partial-word
    /// CAS handling, per-word copies) and moves the word directly. A word
    /// get hands it back in a register too, so that [`Fabric::get_u64`]
    /// never reads it back out of memory.
    #[inline(always)]
    pub(crate) fn apply(&self, seg: &Segment, out: &mut [u8]) -> (bool, u64) {
        match *self {
            RmaOp::Get { addr, len: 8 } if addr.offset().is_multiple_of(8) => {
                let word = seg.load_u64(addr.offset());
                out[..8].copy_from_slice(&word.to_le_bytes());
                return (true, word);
            }
            RmaOp::Put { data, .. } | RmaOp::PutStrided { data, .. } => {
                for (b, (offset, len)) in self.spans().enumerate() {
                    let block = &data[b * len..][..len];
                    match <[u8; 8]>::try_from(block) {
                        Ok(word) if offset.is_multiple_of(8) => {
                            seg.store_u64(offset, u64::from_le_bytes(word))
                        }
                        _ => seg.write_bytes(offset, block),
                    }
                }
            }
            RmaOp::Get { .. } | RmaOp::GetStrided { .. } => {
                for (b, (offset, len)) in self.spans().enumerate() {
                    let block = &mut out[b * len..][..len];
                    if len == 8 && offset.is_multiple_of(8) {
                        block.copy_from_slice(&seg.load_u64(offset).to_le_bytes());
                    } else {
                        seg.read_bytes(offset, block);
                    }
                }
            }
            RmaOp::Rmw { addr, op, a, b } => {
                return match op {
                    RmwOp::Xor => (true, seg.fetch_xor_u64(addr.offset(), a)),
                    RmwOp::Add => (true, seg.fetch_add_u64(addr.offset(), a)),
                    RmwOp::Cas => match seg.cas_u64(addr.offset(), a, b) {
                        Ok(prev) => (true, prev),
                        Err(prev) => (false, prev),
                    },
                }
            }
        }
        (true, 0)
    }

    /// Append the op's wire form to `buf`: an op-code byte, the packed
    /// address word, then the operands or the shape and payload. The rank
    /// bits of the address travel along, so the receiver can tell a frame
    /// that was packed for someone else.
    #[inline(always)]
    pub(crate) fn encode(&self, buf: &mut Vec<u8>) {
        let addr = self.addr().packed();
        let (stride, block, nblocks) = self.shape();
        let u32_of = |n: usize| u32::try_from(n).expect("RMA shape field exceeds 32 bits");
        let code = match *self {
            RmaOp::Rmw { op, a, b, .. } => {
                // Assembled on the stack and appended with ONE
                // `extend_from_slice`: a single capacity check, and the
                // copy lowers to two unaligned 8-byte stores plus a byte
                // (the aggregation layer's per-update pack cost).
                let mut frame = [0u8; WORD_FRAME];
                frame[0] = match op {
                    RmwOp::Xor => OP_XOR,
                    RmwOp::Add => OP_ADD,
                    RmwOp::Cas => OP_CAS,
                };
                frame[1..9].copy_from_slice(&addr.to_le_bytes());
                frame[9..].copy_from_slice(&a.to_le_bytes());
                buf.extend_from_slice(&frame);
                if op == RmwOp::Cas {
                    wire::put_u64(buf, b);
                }
                return;
            }
            RmaOp::Put { .. } => OP_PUT,
            RmaOp::Get { .. } => OP_GET,
            RmaOp::PutStrided { .. } => OP_PUT_STRIDED,
            RmaOp::GetStrided { .. } => OP_GET_STRIDED,
        };
        buf.push(code);
        wire::put_u64(buf, addr);
        if matches!(code, OP_PUT_STRIDED | OP_GET_STRIDED) {
            wire::put_u64(buf, stride as u64);
            wire::put_u32(buf, u32_of(block));
            wire::put_u32(buf, u32_of(nblocks));
        }
        match *self {
            RmaOp::Put { data, .. } | RmaOp::PutStrided { data, .. } => wire::put_bytes(buf, data),
            RmaOp::Get { len, .. } => wire::put_u32(buf, u32_of(len)),
            _ => {}
        }
    }

    /// Decode the op whose op-code byte `code` was just read from `c`.
    /// The result is well-formed, not yet trusted: see
    /// [`RmaOp::validate`].
    #[inline]
    pub(crate) fn decode(code: u8, c: &mut Cursor<'a>) -> Result<RmaOp<'a>, WireError> {
        let addr = GlobalAddr::from_packed(c.u64()?);
        let rmw = |op, c: &mut Cursor<'a>| -> Result<RmaOp<'a>, WireError> {
            let a = c.u64()?;
            Ok(RmaOp::rmw(
                addr,
                op,
                a,
                if op == RmwOp::Cas { c.u64()? } else { 0 },
            ))
        };
        match code {
            OP_XOR => rmw(RmwOp::Xor, c),
            OP_ADD => rmw(RmwOp::Add, c),
            OP_CAS => rmw(RmwOp::Cas, c),
            OP_PUT => Ok(RmaOp::Put {
                addr,
                data: c.bytes()?,
            }),
            OP_GET => Ok(RmaOp::Get {
                addr,
                len: c.u32()? as usize,
            }),
            OP_PUT_STRIDED | OP_GET_STRIDED => {
                let stride = usize::try_from(c.u64()?).map_err(|_| WireError::OutOfRange)?;
                let (block, nblocks) = (c.u32()? as usize, c.u32()? as usize);
                Ok(if code == OP_GET_STRIDED {
                    RmaOp::GetStrided {
                        addr,
                        stride,
                        block,
                        nblocks,
                    }
                } else {
                    RmaOp::PutStrided {
                        addr,
                        stride,
                        block,
                        nblocks,
                        data: c.bytes()?,
                    }
                })
            }
            other => Err(WireError::UnknownTag(other)),
        }
    }

    /// The xor/add word update packed whole at the head of `bytes`, as
    /// `(op, target, operand, the bytes after it)`; `None` for any other
    /// op code or a frame cut short, which [`RmaOp::decode`] reads (or
    /// refuses). The batch apply loop's straight path: no `Result`, no
    /// descriptor, three loads.
    #[inline(always)]
    pub(crate) fn split_word(bytes: &[u8]) -> Option<(RmwOp, GlobalAddr, u64, &[u8])> {
        let (frame, rest) = bytes.split_first_chunk::<WORD_FRAME>()?;
        let op = match frame[0] {
            OP_XOR => RmwOp::Xor,
            OP_ADD => RmwOp::Add,
            _ => return None,
        };
        let word = |at: usize| u64::from_le_bytes(frame[at..at + 8].try_into().expect("8 bytes"));
        Some((op, GlobalAddr::from_packed(word(1)), word(9), rest))
    }

    /// Check an op that arrived as bytes against the receiver's own
    /// segment before it is applied: addressed to `me`, every touched
    /// byte inside `seg_bytes`, atomics aligned, strided payload sized
    /// `block * nblocks`, and a get's reply no larger than the segment
    /// (so a forged length cannot make the receiver allocate gigabytes).
    pub(crate) fn validate(&self, me: Rank, seg_bytes: usize) -> Result<(), WireError> {
        let addr = self.addr();
        let sized = match *self {
            RmaOp::PutStrided { data, .. } => self.bytes() == data.len(),
            RmaOp::Rmw { .. } => addr.offset().is_multiple_of(8),
            _ => self.bytes() <= seg_bytes,
        };
        if addr.rank() == me && sized && addr.offset().saturating_add(self.cover()) <= seg_bytes {
            Ok(())
        } else {
            Err(WireError::OutOfRange)
        }
    }
}

impl Fabric {
    /// The receiving half of an op that travelled as bytes — a conduit
    /// `Rma` frame or an aggregated batch frame — on `me`'s own segment.
    ///
    /// `src`/`stamp` identify the sender: the checker records the op as
    /// an access *by the sender* at the clock it was sent (for a batch,
    /// flushed) with — not the receiving rank's current clock, which
    /// would order the op under everything the receiver has done and
    /// hide races with the receiver's own unfenced accesses.
    #[inline]
    pub(crate) fn rma_arrived(
        &self,
        me: Rank,
        src: Rank,
        stamp: Option<&Stamp>,
        op: &RmaOp<'_>,
        site: Site,
        out: &mut [u8],
    ) -> (bool, u64) {
        if let (Some(ck), Some(stamp)) = (&self.check, stamp) {
            for (offset, len) in op.spans() {
                ck.frame_access(src, me, offset, len, op.kind(), stamp, op.label(site));
            }
        }
        op.apply(&self.endpoints[me].segment, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::{AggConfig, BatchReader, Frame};
    use crate::fabric::{AmPayload, FabricConfig};
    use crate::faults::{FaultPlan, LinkRule};
    use crate::stats::CommCounts;
    use rupcxx_check::{CheckConfig, FindingSink};
    use std::sync::Arc;

    const SEG: usize = 256;
    const SEED: u64 = 0x1111_2222_3333_4444;
    static DATA: [u8; 24] = [
        1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24,
    ];

    /// The paths an op can take to rank 1's segment.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Path {
        /// Rank 1 itself, through `Fabric::rma`.
        Local,
        /// Rank 0 of the same process, through `Fabric::rma`.
        Remote,
        /// `Remote` on a fabric with no layer installed: the branch of
        /// `Fabric::rma` every op of a bare fabric takes.
        Bare,
        /// `Remote` under a fault plan on the link 0 -> 1: the reliable
        /// stage's gate in `Fabric::rma`'s prologue, whose seed drops the
        /// op's first two attempts.
        Faulty,
        /// Rank 0 of another process: wire encode → decode → validate →
        /// `rma_arrived`, the receiver's half of a conduit round trip.
        Wire,
        /// Rank 0 through the aggregation layer: buffered entry point →
        /// batch AM → `Fabric::apply_batch`, the loop the runtime runs.
        Batch,
        /// `Batch` with no checker: `apply_batch`'s straight decode of
        /// word frames onto the segment's atomics.
        BareBatch,
    }

    /// One row: an op on rank 1, and what the checker must see of it.
    struct Row {
        name: &'static str,
        op: RmaOp<'static>,
        kind: &'static str,
        spans: &'static [(usize, usize)],
        /// Labels at `Site::Initiator`, `Site::Wire` and `Site::Batch`
        /// ("" where the aggregation layer has no entry point for the op).
        labels: [&'static str; 3],
    }

    fn table() -> Vec<Row> {
        let at = |offset| GlobalAddr::new(1, offset);
        vec![
            Row {
                name: "put, unaligned",
                op: RmaOp::Put {
                    addr: at(3),
                    data: &DATA[..5],
                },
                kind: "write",
                spans: &[(3, 5)],
                labels: ["put", "put", "agg-put"],
            },
            Row {
                name: "put, aligned word",
                op: RmaOp::Put {
                    addr: at(16),
                    data: &DATA[..8],
                },
                kind: "write",
                spans: &[(16, 8)],
                labels: ["put", "put", "agg-put"],
            },
            Row {
                name: "put, strided",
                op: RmaOp::PutStrided {
                    addr: at(32),
                    stride: 24,
                    block: 8,
                    nblocks: 3,
                    data: &DATA,
                },
                kind: "write",
                spans: &[(32, 8), (56, 8), (80, 8)],
                labels: ["put-strided", "put-strided", ""],
            },
            Row {
                name: "get, unaligned",
                op: RmaOp::Get {
                    addr: at(3),
                    len: 5,
                },
                kind: "read",
                spans: &[(3, 5)],
                labels: ["get", "get", ""],
            },
            Row {
                name: "get, aligned word",
                op: RmaOp::Get {
                    addr: at(16),
                    len: 8,
                },
                kind: "read",
                spans: &[(16, 8)],
                labels: ["get", "get", ""],
            },
            Row {
                name: "get, strided",
                op: RmaOp::GetStrided {
                    addr: at(32),
                    stride: 24,
                    block: 8,
                    nblocks: 3,
                },
                kind: "read",
                spans: &[(32, 8), (56, 8), (80, 8)],
                labels: ["get-strided", "get-strided", ""],
            },
            Row {
                name: "xor",
                op: RmaOp::rmw(at(8), RmwOp::Xor, 0xF0F0, 0),
                kind: "atomic",
                spans: &[(8, 8)],
                labels: ["xor", "rmw", "agg-xor"],
            },
            Row {
                name: "add",
                op: RmaOp::rmw(at(8), RmwOp::Add, 7, 0),
                kind: "atomic",
                spans: &[(8, 8)],
                labels: ["add", "rmw", "agg-add"],
            },
            Row {
                name: "cas, succeeds",
                op: RmaOp::rmw(at(8), RmwOp::Cas, SEED, 99),
                kind: "atomic",
                spans: &[(8, 8)],
                labels: ["cas", "rmw", ""],
            },
            Row {
                name: "cas, fails",
                op: RmaOp::rmw(at(8), RmwOp::Cas, SEED + 1, 99),
                kind: "atomic",
                spans: &[(8, 8)],
                labels: ["cas", "rmw", ""],
            },
        ]
    }

    /// What one run of one op over one path left behind.
    #[derive(Debug, PartialEq)]
    struct Outcome {
        segment: Vec<u8>,
        result: (bool, u64),
        out: Vec<u8>,
    }

    /// Three ranks with the race checker on (off for `Bare` and
    /// `BareBatch`). Rank 2
    /// exists to write all of rank 1's segment, unsynchronized, before the
    /// op runs: every span the op then records races with that write, so
    /// the checker's findings list exactly the access records the op
    /// produced.
    fn fabric(path: Path) -> (Arc<Fabric>, FindingSink, CommCounts) {
        let sink = rupcxx_check::new_sink();
        let lossy = LinkRule {
            drop_ppm: 500_000,
            ..LinkRule::default()
        };
        let bare = matches!(path, Path::Bare | Path::BareBatch);
        let f = Fabric::new(FabricConfig {
            ranks: 3,
            segment_bytes: SEG,
            check: (!bare).then(|| CheckConfig::race().with_sink(sink.clone())),
            agg: matches!(path, Path::Batch | Path::BareBatch).then(AggConfig::new),
            faults: (path == Path::Faulty).then(|| FaultPlan::new(2).link(0, 1, lossy)),
            ..FabricConfig::default()
        });
        assert_eq!(f.endpoint(0).rma_fast, bare, "{path:?}");
        f.put(2, GlobalAddr::new(1, 0), &[0u8; SEG]);
        let seg = &f.endpoint(1).segment;
        for word in 0..SEG / 8 {
            seg.store_u64(word * 8, SEED.wrapping_add(word as u64));
        }
        let seeded = f.total_counts();
        (f, sink, seeded)
    }

    fn run(row: &Row, path: Path) -> (Outcome, CommCounts, Vec<String>) {
        let (f, sink, seeded) = fabric(path);
        let op = &row.op;
        let mut out = vec![0u8; if op.is_get() { op.bytes() } else { 0 }];
        let result = match path {
            Path::Local => f.rma(1, op, &mut out, None),
            Path::Remote | Path::Bare | Path::Faulty => f.rma(0, op, &mut out, None),
            Path::Wire => {
                let stamp = f.checker().map(|ck| ck.send_stamp(0));
                let mut frame = Vec::new();
                wire::encode_rma(&mut frame, stamp.as_ref(), 42, op);
                let Ok(wire::WireFrame::Rma { stamp, token, op }) = wire::decode(&frame) else {
                    panic!("{}: not an Rma frame", row.name);
                };
                assert_eq!((token, &op), (42, &row.op), "{}: codec", row.name);
                op.validate(1, SEG).expect(row.name);
                f.rma_arrived(1, 0, stamp.as_ref(), &op, Site::Wire, &mut out)
            }
            Path::Batch | Path::BareBatch => {
                let sent = match *op {
                    RmaOp::Put { addr, data } => f.put_buffered(0, addr, data),
                    RmaOp::Rmw {
                        addr,
                        op: RmwOp::Xor,
                        a,
                        ..
                    } => f.xor_u64_buffered(0, addr, a),
                    RmaOp::Rmw { addr, a, .. } => f.add_u64_buffered(0, addr, a),
                    _ => unreachable!("{}: no buffered entry point", row.name),
                };
                assert!(!sent, "{}: one frame fills no slab", row.name);
                assert_eq!(f.flush_agg(0), 1);
                let msg = f.endpoint(1).try_recv().expect("the batch");
                let AmPayload::Batch { frames, count: 1 } = &msg.payload else {
                    panic!("{}: not a one-frame batch", row.name);
                };
                let decoded: Vec<Frame<'_>> = BatchReader::new(frames).collect();
                assert_eq!(decoded, [Frame::Rma(*op)], "{}: batch codec", row.name);
                f.apply_batch(1, msg.src, msg.clock(), frames, |id, _| {
                    panic!("{}: handler frame {id}", row.name)
                });
                (true, 0)
            }
        };
        let mut segment = vec![0u8; SEG];
        f.endpoint(1).segment.read_bytes(0, &mut segment);
        let findings = sink.lock().iter().map(|f| f.message.clone()).collect();
        let outcome = Outcome {
            segment,
            result,
            out,
        };
        (outcome, f.total_counts().since(&seeded), findings)
    }

    #[test]
    fn every_op_shape_is_equivalent_over_every_path() {
        let mut drops = 0;
        for row in table() {
            let (reference, counts, _) = run(&row, Path::Local);
            let local = CommCounts {
                local_ops: 1,
                ..CommCounts::default()
            };
            assert_eq!(counts, local, "{}: local counts", row.name);
            let bytes = row.op.bytes() as u64;
            for (path, site, initiator) in [
                (Path::Local, 0, 1),
                (Path::Remote, 0, 0),
                (Path::Bare, 0, 0),
                (Path::Faulty, 0, 0),
                (Path::Wire, 1, 0),
                (Path::Batch, 2, 0),
                (Path::BareBatch, 2, 0),
            ] {
                let label = row.labels[site];
                if label.is_empty() {
                    continue;
                }
                let (mut outcome, counts, findings) = run(&row, path);
                if matches!(path, Path::Batch | Path::BareBatch) {
                    // A buffered update returns nothing to the caller.
                    outcome.result = reference.result;
                }
                assert_eq!(outcome, reference, "{} over {path:?}", row.name);
                // Only the fault plan drops, and each dropped attempt is
                // retried once, inline.
                let lost = if path == Path::Faulty {
                    counts.wire_drops
                } else {
                    0
                };
                drops += lost;
                let want = match path {
                    Path::Local => local,
                    // The initiator of a cross-process op runs the same
                    // `Fabric::rma` prologue, so it counts like `Remote`;
                    // the receiving half counts nothing.
                    Path::Wire => CommCounts::default(),
                    Path::Remote | Path::Bare | Path::Faulty if row.op.is_get() => CommCounts {
                        gets: 1,
                        get_bytes: bytes,
                        wire_drops: lost,
                        retransmits: lost,
                        ..CommCounts::default()
                    },
                    Path::Remote | Path::Bare | Path::Faulty => CommCounts {
                        puts: 1,
                        put_bytes: bytes,
                        wire_drops: lost,
                        retransmits: lost,
                        ..CommCounts::default()
                    },
                    Path::Batch | Path::BareBatch => CommCounts {
                        agg_ops: 1,
                        agg_batches: 1,
                        ams_sent: 1,
                        ams_handled: 1,
                        am_bytes: counts.am_bytes,
                        ..CommCounts::default()
                    },
                };
                assert_eq!(counts, want, "{} over {path:?}: counts", row.name);
                if matches!(path, Path::Bare | Path::BareBatch) {
                    assert!(findings.is_empty(), "{}: {findings:#?}", row.name);
                    continue;
                }
                // One access record per span: kind, offset, len, label.
                assert_eq!(
                    findings.len(),
                    row.spans.len(),
                    "{} over {path:?}: {findings:#?}",
                    row.name
                );
                for (offset, len) in row.spans {
                    let range = format!("[0x{offset:x}..0x{:x})", offset + len);
                    let access = format!("{} `{label}` by rank {initiator} at", row.kind);
                    assert!(
                        findings
                            .iter()
                            .any(|m| m.contains(&range) && m.contains(&access)),
                        "{} over {path:?}: no `{access}` on {range} in {findings:#?}",
                        row.name
                    );
                }
            }
            // The word updates pack into the 17 bytes the ledger's
            // `wire_bytes_per_op` has always counted for them.
            if let RmaOp::Rmw { op, .. } = row.op {
                let mut buf = Vec::new();
                row.op.encode(&mut buf);
                assert_eq!(buf.len(), if op == RmwOp::Cas { 25 } else { 17 });
            }
        }
        assert!(drops > 0, "the fault plan must drop an op of the table");
    }

    #[test]
    fn validate_refuses_what_the_segment_cannot_hold() {
        let at = |rank, offset| GlobalAddr::new(rank, offset);
        let ok = |op: RmaOp<'_>| op.validate(1, SEG).is_ok();
        assert!(ok(RmaOp::Put {
            addr: at(1, SEG - 5),
            data: &DATA[..5]
        }));
        assert!(!ok(RmaOp::Put {
            addr: at(1, SEG - 4),
            data: &DATA[..5]
        }));
        assert!(!ok(RmaOp::Put {
            addr: at(0, 0),
            data: &DATA[..5]
        }));
        assert!(!ok(RmaOp::Get {
            addr: at(1, 0),
            len: u32::MAX as usize
        }));
        assert!(ok(RmaOp::rmw(at(1, SEG - 8), RmwOp::Add, 1, 0)));
        assert!(!ok(RmaOp::rmw(at(1, SEG - 7), RmwOp::Add, 1, 0)));
        assert!(!ok(RmaOp::rmw(at(1, 12), RmwOp::Add, 1, 0)));
        let strided = |stride, block, nblocks, data: &'static [u8]| RmaOp::PutStrided {
            addr: at(1, 0),
            stride,
            block,
            nblocks,
            data,
        };
        assert!(ok(strided(24, 8, 3, &DATA)));
        assert!(!ok(strided(24, 8, 2, &DATA)), "payload is 24 bytes, not 16");
        assert!(!ok(strided(usize::MAX, 8, 3, &DATA)), "cover overflows");
        assert!(ok(strided(0, 0, 0, &[])), "nothing touched");
        // Overlapping blocks are legal on a put; on a get they must not
        // let 16 bytes of request ask for terabytes of reply.
        assert!(!ok(RmaOp::GetStrided {
            addr: at(1, 0),
            stride: 0,
            block: 1 << 20,
            nblocks: u32::MAX as usize,
        }));
    }
}
