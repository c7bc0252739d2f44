//! Wire format for conduit frames.
//!
//! Every cross-process interaction — AM delivery, one-sided RMA, the
//! FIN/ack teardown handshake — is one of the frames below, encoded
//! little-endian into a conduit byte frame. The format is deliberately
//! dumb: a tag byte, then fixed-width fields, then length-prefixed
//! payloads. Encoders write into a caller-supplied scratch `Vec` (the
//! fabric keeps one per link, so steady-state sends allocate nothing);
//! the decoder borrows from the received frame.
//!
//! One-sided RMA is two frames: an [`WireFrame::Rma`] request carrying
//! an [`RmaOp`] in the op's own encoding, answered by one
//! [`WireFrame::Resp`] matched by token. AM frames carry the optional
//! checker clock stamp and profiler span so the happens-before checker
//! and the causal profiler work unchanged across process boundaries;
//! `Rma` frames carry the initiator's stamp so the receiver can run the
//! same `frame_access` race check it runs for aggregated frames.
//!
//! The bytes come from another process: [`decode`] never panics and
//! never allocates more than the frame's own length, whatever it is fed.

use crate::rma::RmaOp;
use rupcxx_check::Stamp;
use rupcxx_trace::ProfSpan;

const TAG_AM_HANDLER: u8 = 1;
const TAG_AM_BATCH: u8 = 2;
const TAG_RMA: u8 = 3;
const TAG_RESP: u8 = 4;
const TAG_FIN: u8 = 5;
const TAG_FIN_ACK: u8 = 6;

/// Why a received frame was refused. Any of these classifies the link
/// it arrived on as failed (`PeerUnreachable`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The frame ends before a field it announces.
    Truncated,
    /// Bytes remain after the last field.
    Trailing,
    /// No frame or RMA op has this tag.
    UnknownTag(u8),
    /// A well-formed op or reply that does not fit this rank's segment,
    /// its own payload, or the buffer waiting for it.
    OutOfRange,
    /// The peer's FIN announces a data-frame count other than the
    /// number received: the link lost or invented frames.
    FinCount,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => f.write_str("truncated frame"),
            WireError::Trailing => f.write_str("trailing bytes in frame"),
            WireError::UnknownTag(t) => write!(f, "unknown frame tag {t}"),
            WireError::OutOfRange => f.write_str("operation out of range"),
            WireError::FinCount => f.write_str("FIN count differs from the data frames received"),
        }
    }
}

impl std::error::Error for WireError {}

/// A decoded conduit frame; payload slices borrow from the raw frame.
#[derive(Debug)]
pub enum WireFrame<'a> {
    /// Registered-handler AM: id + argument bytes.
    AmHandler {
        /// Checker clock stamp, if the checker is on.
        clock: Option<Stamp>,
        /// Profiler span, if the profiler is on.
        prof: Option<ProfSpan>,
        /// Handler registry id.
        id: u16,
        /// Argument bytes.
        args: &'a [u8],
    },
    /// Aggregated batch AM: `count` frames in `aggregate` encoding.
    AmBatch {
        /// Checker clock stamp, if the checker is on.
        clock: Option<Stamp>,
        /// Profiler span, if the profiler is on.
        prof: Option<ProfSpan>,
        /// Number of aggregated frames.
        count: u32,
        /// The packed frames.
        frames: &'a [u8],
    },
    /// A one-sided operation on the receiver's segment; answered with
    /// one [`WireFrame::Resp`].
    Rma {
        /// Initiator's clock stamp for the receiver-side race check.
        stamp: Option<Stamp>,
        /// Reply-matching token.
        token: u64,
        /// The operation.
        op: RmaOp<'a>,
    },
    /// Completion of the [`WireFrame::Rma`] with the same token.
    Resp {
        /// Token of the request this answers.
        token: u64,
        /// CAS success flag (true for everything else).
        ok: bool,
        /// Previous value of an atomic's target word (0 otherwise).
        val: u64,
        /// The bytes a get fetched (empty otherwise).
        data: &'a [u8],
    },
    /// Link teardown: "I sent you exactly `frames` data frames; I will
    /// send no more." FIFO ordering makes the count checkable on arrival.
    Fin {
        /// Data frames (everything except FIN/FIN_ACK) sent on this link.
        frames: u64,
    },
    /// Acknowledges a FIN; after this the sender may drop the link.
    FinAck,
}

// --- primitive writers -------------------------------------------------

fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_bytes(buf: &mut Vec<u8>, b: &[u8]) {
    put_u32(buf, u32::try_from(b.len()).expect("frame payload > 4 GiB"));
    buf.extend_from_slice(b);
}

fn put_stamp(buf: &mut Vec<u8>, stamp: Option<&Stamp>) {
    let Some(Stamp(words)) = stamp else {
        return put_u16(buf, 0);
    };
    assert!(!words.is_empty(), "empty clock stamp on the wire");
    let count = u16::try_from(words.len()).expect("stamp > 65535 ranks");
    put_u16(buf, count);
    words.iter().for_each(|w| put_u64(buf, *w));
}

fn put_prof(buf: &mut Vec<u8>, prof: Option<&ProfSpan>) {
    match prof {
        None => buf.push(0),
        Some(p) => {
            buf.push(1);
            put_u64(buf, p.id);
            put_u64(buf, p.inject_ns);
        }
    }
}

// --- encoders (into a reusable scratch buffer) -------------------------

/// Encode a handler AM. Clears `buf` first.
pub fn encode_am_handler(
    buf: &mut Vec<u8>,
    clock: Option<&Stamp>,
    prof: Option<&ProfSpan>,
    id: u16,
    args: &[u8],
) {
    buf.clear();
    buf.push(TAG_AM_HANDLER);
    put_stamp(buf, clock);
    put_prof(buf, prof);
    put_u16(buf, id);
    put_bytes(buf, args);
}

/// Encode a batch AM. Clears `buf` first.
pub fn encode_am_batch(
    buf: &mut Vec<u8>,
    clock: Option<&Stamp>,
    prof: Option<&ProfSpan>,
    count: u32,
    frames: &[u8],
) {
    buf.clear();
    buf.push(TAG_AM_BATCH);
    put_stamp(buf, clock);
    put_prof(buf, prof);
    put_u32(buf, count);
    put_bytes(buf, frames);
}

/// Encode a one-sided request. Clears `buf` first.
pub fn encode_rma(buf: &mut Vec<u8>, stamp: Option<&Stamp>, token: u64, op: &RmaOp<'_>) {
    buf.clear();
    buf.push(TAG_RMA);
    put_stamp(buf, stamp);
    put_u64(buf, token);
    op.encode(buf);
}

/// Encode the reply to a one-sided request. Clears `buf` first.
pub fn encode_resp(buf: &mut Vec<u8>, token: u64, ok: bool, val: u64, data: &[u8]) {
    buf.clear();
    buf.push(TAG_RESP);
    put_u64(buf, token);
    buf.push(ok as u8);
    put_u64(buf, val);
    put_bytes(buf, data);
}

/// Encode a link FIN carrying the data-frame count. Clears `buf` first.
pub fn encode_fin(buf: &mut Vec<u8>, frames: u64) {
    buf.clear();
    buf.push(TAG_FIN);
    put_u64(buf, frames);
}

/// Encode a FIN ack. Clears `buf` first.
pub fn encode_fin_ack(buf: &mut Vec<u8>) {
    buf.clear();
    buf.push(TAG_FIN_ACK);
}

/// True for frames counted by the FIN handshake (everything except the
/// handshake itself).
pub fn is_data_frame(frame: &[u8]) -> bool {
    !matches!(frame.first(), Some(&TAG_FIN) | Some(&TAG_FIN_ACK))
}

// --- decoder -----------------------------------------------------------

/// A bounds-checked reader over received bytes (conduit frames here,
/// batch payloads in [`crate::aggregate`]).
pub(crate) struct Cursor<'a> {
    buf: &'a [u8],
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Cursor { buf }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let (head, rest) = self.buf.split_at_checked(n).ok_or(WireError::Truncated)?;
        self.buf = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        Ok(self.take(N)?.try_into().expect("take returned N bytes"))
    }

    pub(crate) fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.array::<1>()?[0])
    }

    pub(crate) fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    pub(crate) fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// A `u32`-length-prefixed byte string.
    pub(crate) fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    fn stamp(&mut self) -> Result<Option<Stamp>, WireError> {
        let words = self.u16()? as usize;
        if words == 0 {
            return Ok(None);
        }
        // Take the words before allocating for them: a forged count
        // fails here instead of reserving memory the frame cannot fill.
        let raw = self.take(words * 8)?;
        let clock = raw
            .chunks_exact(8)
            .map(|w| u64::from_le_bytes(w.try_into().expect("chunks_exact(8)")))
            .collect();
        Ok(Some(Stamp(clock)))
    }

    fn span(&mut self) -> Result<Option<ProfSpan>, WireError> {
        if self.u8()? == 0 {
            return Ok(None);
        }
        Ok(Some(ProfSpan {
            id: self.u64()?,
            inject_ns: self.u64()?,
        }))
    }
}

/// Decode one conduit frame.
///
/// # Errors
/// A frame that is truncated, carries an unknown tag or op code, or has
/// bytes left over is refused with the reason. An `Ok` frame is
/// well-formed, not yet trusted: the receiver still checks an op against
/// its segment ([`RmaOp`]'s `validate`) before applying it.
pub fn decode(frame: &[u8]) -> Result<WireFrame<'_>, WireError> {
    let mut c = Cursor::new(frame);
    let out = match c.u8()? {
        TAG_AM_HANDLER => WireFrame::AmHandler {
            clock: c.stamp()?,
            prof: c.span()?,
            id: c.u16()?,
            args: c.bytes()?,
        },
        TAG_AM_BATCH => WireFrame::AmBatch {
            clock: c.stamp()?,
            prof: c.span()?,
            count: c.u32()?,
            frames: c.bytes()?,
        },
        TAG_RMA => WireFrame::Rma {
            stamp: c.stamp()?,
            token: c.u64()?,
            op: {
                let code = c.u8()?;
                RmaOp::decode(code, &mut c)?
            },
        },
        TAG_RESP => WireFrame::Resp {
            token: c.u64()?,
            ok: c.u8()? != 0,
            val: c.u64()?,
            data: c.bytes()?,
        },
        TAG_FIN => WireFrame::Fin { frames: c.u64()? },
        TAG_FIN_ACK => WireFrame::FinAck,
        other => return Err(WireError::UnknownTag(other)),
    };
    if c.is_empty() {
        Ok(out)
    } else {
        Err(WireError::Trailing)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rma::RmwOp;
    use crate::GlobalAddr;

    fn stamp(words: &[u64]) -> Stamp {
        Stamp(words.to_vec().into_boxed_slice())
    }

    #[test]
    fn am_handler_roundtrip() {
        let mut buf = Vec::new();
        let ck = stamp(&[3, 1, 4, 1]);
        let span = ProfSpan {
            id: 0xdead_beef,
            inject_ns: 777,
        };
        encode_am_handler(&mut buf, Some(&ck), Some(&span), 42, b"payload");
        match decode(&buf).unwrap() {
            WireFrame::AmHandler {
                clock,
                prof,
                id,
                args,
            } => {
                assert_eq!(&*clock.unwrap().0, &[3, 1, 4, 1]);
                let p = prof.unwrap();
                assert_eq!(p.id, 0xdead_beef);
                assert_eq!(p.inject_ns, 777);
                assert_eq!(id, 42);
                assert_eq!(args, b"payload");
            }
            other => panic!("wrong frame {other:?}"),
        }
    }

    #[test]
    fn am_handler_without_meta() {
        let mut buf = Vec::new();
        encode_am_handler(&mut buf, None, None, 7, b"");
        match decode(&buf).unwrap() {
            WireFrame::AmHandler {
                clock,
                prof,
                id,
                args,
            } => {
                assert!(clock.is_none());
                assert!(prof.is_none());
                assert_eq!(id, 7);
                assert!(args.is_empty());
            }
            other => panic!("wrong frame {other:?}"),
        }
    }

    #[test]
    fn batch_roundtrip() {
        let mut buf = Vec::new();
        encode_am_batch(&mut buf, None, None, 9, &[1, 2, 3, 4]);
        match decode(&buf).unwrap() {
            WireFrame::AmBatch { count, frames, .. } => {
                assert_eq!(count, 9);
                assert_eq!(frames, &[1, 2, 3, 4]);
            }
            other => panic!("wrong frame {other:?}"),
        }
    }

    #[test]
    fn rma_request_carries_stamp_token_and_op() {
        // Every op shape round-trips in `rma.rs`'s table test and in
        // tests/prop_wire.rs; this pins the envelope around it.
        let mut buf = Vec::new();
        let ck = stamp(&[9, 9]);
        let op = RmaOp::rmw(GlobalAddr::new(1, 8), RmwOp::Cas, 100, 200);
        encode_rma(&mut buf, Some(&ck), 15, &op);
        match decode(&buf) {
            Ok(WireFrame::Rma {
                stamp,
                token,
                op: got,
            }) => {
                assert_eq!(&*stamp.unwrap().0, &[9, 9]);
                assert_eq!(token, 15);
                assert_eq!(got, op);
            }
            other => panic!("wrong frame {other:?}"),
        }
    }

    #[test]
    fn reply_and_teardown_roundtrips() {
        let mut buf = Vec::new();

        encode_resp(&mut buf, 21, true, 0, b"hello");
        match decode(&buf) {
            Ok(WireFrame::Resp {
                token,
                ok,
                val,
                data,
            }) => {
                assert_eq!((token, ok, val), (21, true, 0));
                assert_eq!(data, b"hello");
            }
            other => panic!("wrong frame {other:?}"),
        }

        encode_resp(&mut buf, 22, false, u64::MAX, &[]);
        match decode(&buf) {
            Ok(WireFrame::Resp {
                token,
                ok,
                val,
                data,
            }) => {
                assert_eq!((token, ok, val), (22, false, u64::MAX));
                assert!(data.is_empty());
            }
            other => panic!("wrong frame {other:?}"),
        }
        assert!(is_data_frame(&buf));

        encode_fin(&mut buf, 9001);
        assert!(matches!(decode(&buf), Ok(WireFrame::Fin { frames: 9001 })));
        assert!(!is_data_frame(&buf));

        encode_fin_ack(&mut buf);
        assert!(matches!(decode(&buf), Ok(WireFrame::FinAck)));
        assert!(!is_data_frame(&buf));
    }

    /// Encode a 64-byte put request.
    fn put64(buf: &mut Vec<u8>, token: u64, fill: u8) {
        let (addr, data) = (GlobalAddr::new(1, 0), &[fill; 64]);
        encode_rma(buf, None, token, &RmaOp::Put { addr, data });
    }

    #[test]
    fn scratch_buffer_is_reused_not_grown() {
        let mut buf = Vec::with_capacity(256);
        put64(&mut buf, 1, 0);
        let cap = buf.capacity();
        let ptr = buf.as_ptr();
        for t in 0..100 {
            put64(&mut buf, t, 0);
        }
        assert_eq!(buf.capacity(), cap, "encode must not grow a warm scratch");
        assert_eq!(buf.as_ptr(), ptr, "encode must not reallocate");
    }

    #[test]
    fn malformed_frames_are_errors_not_panics() {
        let mut buf = Vec::new();
        put64(&mut buf, 1, 7);
        assert!(decode(&buf).is_ok());
        for cut in 0..buf.len() {
            assert_eq!(
                decode(&buf[..cut]).err(),
                Some(WireError::Truncated),
                "cut at {cut}"
            );
        }
        buf.push(0);
        assert_eq!(decode(&buf).err(), Some(WireError::Trailing));
        assert_eq!(decode(&[0xFF]).err(), Some(WireError::UnknownTag(0xFF)));
        // An `Rma` envelope around an op code nobody defines.
        let bad_op = [
            TAG_RMA, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0, 0xEE, 0, 0, 0, 0, 0, 0, 0, 0,
        ];
        assert_eq!(decode(&bad_op).err(), Some(WireError::UnknownTag(0xEE)));
    }

    #[test]
    fn forged_stamp_count_allocates_nothing() {
        // 65535 clock words announced, none present: refused before any
        // buffer is sized from the count.
        assert_eq!(
            decode(&[TAG_AM_HANDLER, 0xFF, 0xFF, 1, 2, 3]).err(),
            Some(WireError::Truncated)
        );
    }
}
