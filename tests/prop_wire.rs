//! Property tests of the conduit wire codec (`rupcxx_net::conduit::wire`).
//!
//! The bytes a rank decodes come from another process, so the codec has
//! two contracts:
//!
//! * **round trip** — every frame the encoders can produce (each
//!   [`RmaOp`] shape, both AM shapes, replies, the teardown pair; with
//!   and without the checker's clock stamp and the profiler's span)
//!   decodes to the values that went in, and re-encodes to the same
//!   bytes;
//! * **hostile input** — whatever else arrives (arbitrary byte strings,
//!   and valid frames truncated or with a bit flipped) makes `decode`
//!   return `Ok` or `Err`: it never panics, and never allocates more
//!   than the frame's own length (a forged count or length field must
//!   not size a buffer).
//!
//! A violation is shrunk with the ddmin shrinker to a 1-minimal byte
//! string before it is reported.
//!
//! The counting allocator those contracts need also carries the two
//! allocation claims of the send paths (their timings are the ledger's
//! `net.conduit.wire_encode_ns` and `net.aggregate.*` rows): encoding
//! into a reused scratch buffer allocates nothing per frame, and
//! steady-state packing recycles its slabs.

use rupcxx_check::Stamp;
use rupcxx_net::conduit::wire::{self, WireError, WireFrame};
use rupcxx_net::rma::RmwOp;
use rupcxx_net::{AggConfig, AmPayload, BatchReader, Fabric, FabricConfig, GlobalAddr, RmaOp};
use rupcxx_trace::ProfSpan;
use rupcxx_util::prop::collection::vec;
use rupcxx_util::prop::prelude::*;
use rupcxx_util::prop::shrink_vec;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The system allocator, plus a per-thread count of bytes requested (the
/// harness runs tests on parallel threads; each measures only itself).
struct Counting;

thread_local! {
    static REQUESTED: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged. The only addition is a `Cell<usize>` bump in a thread-local
// that is const-initialized and has no destructor, so touching it neither
// allocates nor runs code during thread teardown (`try_with` covers a
// thread that is already past it). `realloc` is the default, which calls
// `alloc` and so is counted.
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

/// Everything needed to build one frame, owned (an [`RmaOp`] borrows).
#[derive(Clone, Debug)]
struct Spec {
    shape: u8,
    addr: u64,
    stride: u32,
    block: u8,
    nblocks: u8,
    a: u64,
    b: u64,
    token: u64,
    payload: Vec<u8>,
    clock: Vec<u64>,
    prof: Option<(u64, u64)>,
}

fn spec() -> impl Strategy<Value = Spec> {
    let meta = (
        vec(any::<u64>(), 0..5),
        any::<bool>(),
        any::<u64>(),
        any::<u64>(),
    );
    let shape = (0u8..11, any::<u64>(), any::<u32>(), 0u8..9, 0u8..5);
    let operands = (any::<u64>(), any::<u64>(), any::<u64>());
    (shape, operands, vec(any::<u8>(), 0..64), meta).prop_map(
        |((shape, addr, stride, block, nblocks), (a, b, token), payload, (clock, p, id, ns))| {
            Spec {
                shape,
                addr,
                stride,
                block,
                nblocks,
                a,
                b,
                token,
                payload,
                clock,
                prof: p.then_some((id, ns)),
            }
        },
    )
}

impl Spec {
    fn stamp(&self) -> Option<Stamp> {
        (!self.clock.is_empty()).then(|| Stamp(self.clock.clone().into_boxed_slice()))
    }

    fn span(&self) -> Option<ProfSpan> {
        self.prof.map(|(id, inject_ns)| ProfSpan { id, inject_ns })
    }

    /// Shapes 0..7: the one-sided op this spec describes.
    fn op(&self) -> RmaOp<'_> {
        let addr = GlobalAddr::from_packed(self.addr);
        let (stride, block, nblocks) = (
            self.stride as usize,
            self.block as usize,
            self.nblocks as usize,
        );
        let rmw = |op| RmaOp::Rmw {
            addr,
            op,
            a: self.a,
            // Xor and add carry one operand; the other is not on the wire.
            b: if op == RmwOp::Cas { self.b } else { 0 },
        };
        match self.shape {
            0 => RmaOp::Put {
                addr,
                data: &self.payload,
            },
            1 => RmaOp::PutStrided {
                addr,
                stride,
                block,
                nblocks,
                data: &self.payload,
            },
            2 => RmaOp::Get {
                addr,
                len: self.stride as usize,
            },
            3 => RmaOp::GetStrided {
                addr,
                stride,
                block,
                nblocks,
            },
            4 => rmw(RmwOp::Xor),
            5 => rmw(RmwOp::Add),
            _ => rmw(RmwOp::Cas),
        }
    }

    /// The frame this spec describes, encoded.
    fn frame(&self) -> Vec<u8> {
        let (stamp, span) = (self.stamp(), self.span());
        let mut buf = vec![0xEE; 3]; // encoders clear the scratch first
        match self.shape {
            0..=6 => wire::encode_rma(&mut buf, stamp.as_ref(), self.token, &self.op()),
            7 => wire::encode_am_handler(
                &mut buf,
                stamp.as_ref(),
                span.as_ref(),
                self.a as u16,
                &self.payload,
            ),
            8 => wire::encode_am_batch(
                &mut buf,
                stamp.as_ref(),
                span.as_ref(),
                self.a as u32,
                &self.payload,
            ),
            9 => wire::encode_resp(&mut buf, self.token, self.a & 1 == 1, self.b, &self.payload),
            _ if self.a & 1 == 1 => wire::encode_fin(&mut buf, self.b),
            _ => wire::encode_fin_ack(&mut buf),
        }
        buf
    }
}

fn reencode(frame: &WireFrame<'_>) -> Vec<u8> {
    let mut buf = Vec::new();
    match frame {
        WireFrame::AmHandler {
            clock,
            prof,
            id,
            args,
        } => wire::encode_am_handler(&mut buf, clock.as_ref(), prof.as_ref(), *id, args),
        WireFrame::AmBatch {
            clock,
            prof,
            count,
            frames,
        } => wire::encode_am_batch(&mut buf, clock.as_ref(), prof.as_ref(), *count, frames),
        WireFrame::Rma { stamp, token, op } => {
            wire::encode_rma(&mut buf, stamp.as_ref(), *token, op)
        }
        WireFrame::Resp {
            token,
            ok,
            val,
            data,
        } => wire::encode_resp(&mut buf, *token, *ok, *val, data),
        WireFrame::Fin { frames } => wire::encode_fin(&mut buf, *frames),
        WireFrame::FinAck => wire::encode_fin_ack(&mut buf),
    }
    buf
}

/// Decode `bytes` the way a receiver would; `Err` describes a contract
/// violation (not a refused frame, which is a fine outcome).
fn hostile_contract(bytes: &[u8]) -> Result<Option<WireError>, String> {
    let before = requested();
    let outcome = catch_unwind(AssertUnwindSafe(|| wire::decode(bytes).err()))
        .map_err(|_| "decode panicked".to_string())?;
    let asked = requested() - before;
    if asked > bytes.len() {
        return Err(format!(
            "decode requested {asked} bytes for a {}-byte frame",
            bytes.len()
        ));
    }
    Ok(outcome)
}

/// Assert the hostile-input contract, reporting a 1-minimal violation.
fn assert_hostile_contract(bytes: Vec<u8>) -> Option<WireError> {
    match hostile_contract(&bytes) {
        Ok(outcome) => outcome,
        Err(_) => {
            let min = shrink_vec(bytes, |b| hostile_contract(b).is_err());
            panic!("{}: {min:?}", hostile_contract(&min).unwrap_err());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4000))]

    #[test]
    fn every_frame_round_trips_bit_exactly(s in spec()) {
        let bytes = s.frame();
        let frame = wire::decode(&bytes).expect("an encoder's output decodes");
        prop_assert_eq!(reencode(&frame), bytes, "{:?}", s);
        match (s.shape, &frame) {
            (0..=6, WireFrame::Rma { stamp, token, op }) => {
                prop_assert_eq!(op, &s.op());
                prop_assert_eq!((stamp, *token), (&s.stamp(), s.token));
            }
            (7, WireFrame::AmHandler { clock, prof, id, args }) => {
                prop_assert_eq!((clock, prof), (&s.stamp(), &s.span()));
                prop_assert_eq!((*id, *args), (s.a as u16, &s.payload[..]));
            }
            (8, WireFrame::AmBatch { clock, prof, count, frames }) => {
                prop_assert_eq!((clock, prof), (&s.stamp(), &s.span()));
                prop_assert_eq!((*count, *frames), (s.a as u32, &s.payload[..]));
            }
            (9, WireFrame::Resp { token, ok, val, data }) => {
                prop_assert_eq!((*token, *ok, *val), (s.token, s.a & 1 == 1, s.b));
                prop_assert_eq!(*data, &s.payload[..]);
            }
            (10, WireFrame::Fin { frames }) => prop_assert_eq!(*frames, s.b),
            (10, WireFrame::FinAck) => {}
            other => panic!("spec {s:?} decoded as {other:?}"),
        }
    }

    #[test]
    fn damaged_frames_are_refused_or_decoded_never_fatal(
        s in spec(),
        cut in any::<usize>(),
        flip in any::<usize>(),
    ) {
        let bytes = s.frame();
        // Every strict prefix of a valid frame is short of a field.
        let cut = cut % bytes.len();
        prop_assert_eq!(
            assert_hostile_contract(bytes[..cut].to_vec()),
            Some(WireError::Truncated),
            "{:?} cut at {}", s, cut
        );
        // A flipped bit may still decode (to something else) or not.
        let mut flipped = bytes;
        let bit = flip % (flipped.len() * 8);
        flipped[bit / 8] ^= 1 << (bit % 8);
        assert_hostile_contract(flipped);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12000))]

    #[test]
    fn arbitrary_bytes_never_panic_or_overallocate(
        tag in 0u8..16,
        rest in vec(any::<u8>(), 0..96),
    ) {
        // Uniform bytes would spend 250 cases in 256 on "unknown tag";
        // half the cases start with a tag the decoder knows (1..=6), so
        // the field readers behind each of them see arbitrary input too.
        let mut bytes = rest;
        if tag < 8 {
            bytes.insert(0, tag);
        }
        assert_hostile_contract(bytes);
    }
}

#[test]
fn reused_scratch_encode_allocates_nothing_per_frame() {
    const FRAMES: usize = 10_000;
    let data = [7u8; 256];
    let put = RmaOp::Put {
        addr: GlobalAddr::new(1, 0),
        data: &data,
    };
    // What a link does: one scratch buffer, grown by its first frame.
    let mut scratch = Vec::new();
    wire::encode_rma(&mut scratch, None, 0, &put);
    let before = requested();
    for token in 0..FRAMES {
        wire::encode_rma(&mut scratch, None, token as u64, &put);
        std::hint::black_box(scratch.len());
    }
    assert_eq!(requested() - before, 0, "the reused buffer grew again");
    // What it replaced: a buffer per frame, at least the payload each.
    let before = requested();
    for token in 0..FRAMES {
        let mut fresh = Vec::new();
        wire::encode_rma(&mut fresh, None, token as u64, &put);
        std::hint::black_box(fresh.len());
    }
    assert!(requested() - before >= FRAMES * data.len());
}

#[test]
fn steady_state_packing_recycles_its_slabs() {
    const WORDS: usize = 1024;
    const OPS: usize = 1000; // four full slabs and a partial one a cycle
    let f = Fabric::new(FabricConfig {
        ranks: 2,
        segment_bytes: WORDS * 8,
        agg: Some(AggConfig::new()),
        ..FabricConfig::default()
    });
    // Pack, flush, then deliver at rank 1: the applied batches' slabs go
    // home to rank 0's pool.
    let cycle = |round: usize| {
        for i in 0..OPS {
            let word = (round * OPS + i) * 7 % WORDS;
            f.xor_u64_buffered(0, GlobalAddr::new(1, word * 8), i as u64 | 1);
        }
        f.flush_agg(0);
        for msg in f.endpoint(1).drain() {
            let AmPayload::Batch { frames, .. } = msg.payload else {
                panic!("only batches were sent");
            };
            for frame in BatchReader::new(&frames) {
                assert!(f.apply_frame(1, msg.src, None, &frame));
            }
        }
    };
    (0..2).for_each(cycle); // warm-up: slabs and queue capacity
    let before = requested();
    (2..102).for_each(cycle);
    let per_op = (requested() - before) as f64 / (100 * OPS) as f64;
    // The per-batch envelope only; a fresh buffer per frame was >= 24 B/op.
    assert!(per_op < 24.0, "packing allocates {per_op:.1} B/op");
}
