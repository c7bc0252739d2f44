//! Property tests of the per-destination aggregation layer (proptest):
//! for an arbitrary bidirectional schedule mixing buffered fine-grained
//! ops (handler AMs, xor/add words, puts of 8 to `AGG_MAX_PUT` bytes)
//! with the layer's flush points (direct active messages, explicit
//! flushes, and slabs that fill), an aggregated fabric delivers exactly
//! the same handler sequence per rank and ends with exactly the same
//! segment contents as an unaggregated fabric — including under drop/dup
//! fault injection, where each batch is one sequenced reliable frame.
//! Failing schedules are shrunk with `shrink_vec` to a 1-minimal
//! counterexample.

use rupcxx_net::aggregate::AGG_MAX_PUT;
use rupcxx_net::{
    AggConfig, AmPayload, BatchReader, Fabric, FabricConfig, FaultPlan, Frame, GlobalAddr,
};
use rupcxx_trace::TraceConfig;
use rupcxx_util::prop as proptest;
use rupcxx_util::prop::prelude::*;
use rupcxx_util::Bytes;
use std::sync::Arc;

/// Words of segment state an op may start at, per rank; the segment
/// runs on for the longest put behind the last of them.
const WORDS: usize = 32;
const SEGMENT_WORDS: usize = WORDS + AGG_MAX_PUT / 8;

/// One schedule entry: `reverse` selects the 1→0 direction, `kind`
/// selects the operation (see [`issue`]), `x`/`y` parameterize it.
type Op = (bool, u8, u16, u16);

/// `kind`s of [`issue`], by name where the tests build schedules by hand.
const LONG_PUT: u8 = 8;

fn fabric(agg: bool, faults: Option<FaultPlan>) -> Arc<Fabric> {
    Fabric::new(FabricConfig {
        ranks: 2,
        segment_bytes: SEGMENT_WORDS * 8,
        simnet: None,
        trace: TraceConfig::off(),
        faults,
        agg: agg.then(AggConfig::new),
        check: None,
        cache: None,
        prof: None,
        schedule: None,
        remote: None,
    })
}

/// Issue one schedule entry on `f`.
fn issue(f: &Fabric, &(reverse, kind, x, y): &Op) {
    let (src, dst) = if reverse { (1, 0) } else { (0, 1) };
    let addr = GlobalAddr::new(dst, (x as usize % WORDS) * 8);
    let value = y as u64 + 1;
    // The fabric-level calls only report when a caller should drive
    // progress; this harness drains on its own terms.
    let _ = match kind % 16 {
        0 | 1 => f.am_buffered(src, dst, x, &y.to_le_bytes()),
        2 | 3 => f.xor_u64_buffered(src, addr, value),
        4 | 5 => f.add_u64_buffered(src, addr, value),
        6 | 7 => f.put_buffered(src, addr, &value.to_le_bytes()),
        // A put of 776 to `AGG_MAX_PUT` bytes: four or five of them fill
        // a slab, which then leaves without any flush point.
        LONG_PUT..=13 => {
            let len = AGG_MAX_PUT - (y as usize % 32) * 8;
            let data: Vec<u8> = (0..len).map(|i| (i as u16 ^ x ^ y) as u8).collect();
            f.put_buffered(src, addr, &data)
        }
        // An explicit flush point (nothing to do on the plain fabric).
        14 => f.flush_agg(src) > 0,
        // Direct AM interleaved with buffered traffic: must flush the
        // destination's buffer first to preserve per-link order.
        _ => {
            f.send_am(
                src,
                dst,
                AmPayload::Handler {
                    id: x,
                    args: Bytes::copy_from_slice(&y.to_le_bytes()),
                },
            );
            false
        }
    };
}

/// Pump + drain `me` until quiescent, recording handler ids in delivery
/// order (batched handler frames unpacked in place, RMA frames applied).
/// `None` on a hang or a fabric failure.
fn drain_rank(f: &Fabric, me: usize) -> Option<Vec<u16>> {
    let mut got = Vec::new();
    for _ in 0..100_000 {
        f.pump_incoming(me);
        for m in f.endpoint(me).drain() {
            let (src, clock) = (m.src, m.clock);
            match m.payload {
                AmPayload::Handler { id, .. } => got.push(id),
                AmPayload::Batch { frames, .. } => {
                    for frame in BatchReader::new(&frames) {
                        if let Frame::Handler { id, .. } = frame {
                            got.push(id);
                        } else {
                            f.apply_frame(me, src, clock.as_ref(), &frame);
                        }
                    }
                }
                AmPayload::Task(_) => unreachable!("no tasks in this schedule"),
            }
        }
        if f.has_failed() {
            return None;
        }
        if f.links_quiescent(me) && f.endpoint(me).pending() == 0 {
            return Some(got);
        }
    }
    None
}

/// Run `sched` on `f`: issue every op, flush, drain both ranks. Returns
/// the per-rank handler sequences and both segments' word contents.
#[allow(clippy::type_complexity)]
fn run(f: &Fabric, sched: &[Op]) -> Option<([Vec<u16>; 2], [Vec<u64>; 2])> {
    for op in sched {
        issue(f, op);
    }
    f.flush_agg(0);
    f.flush_agg(1);
    let (got0, got1) = (drain_rank(f, 0)?, drain_rank(f, 1)?);
    let words = |rank: usize| -> Vec<u64> {
        (0..SEGMENT_WORDS)
            .map(|w| f.get_u64(rank, GlobalAddr::new(rank, w * 8)))
            .collect()
    };
    Some(([got0, got1], [words(0), words(1)]))
}

/// The property: the aggregated fabric delivers the same handler
/// sequences and produces the same segment state as the unaggregated
/// one, wherever the schedule's flush points and full slabs cut its
/// batches.
fn aggregation_is_transparent(faults: Option<&FaultPlan>, sched: &[Op]) -> bool {
    let plain = fabric(false, faults.cloned());
    let batched = fabric(true, faults.cloned());
    let (Some(p), Some(b)) = (run(&plain, sched), run(&batched, sched)) else {
        return false;
    };
    p == b
}

/// Check the property; on failure, shrink the schedule to a 1-minimal
/// counterexample and panic with a reproducible report.
fn check_or_shrink(faults: Option<FaultPlan>, sched: Vec<Op>) {
    if aggregation_is_transparent(faults.as_ref(), &sched) {
        return;
    }
    let original_len = sched.len();
    let minimal = proptest::shrink_vec(sched, |s| !aggregation_is_transparent(faults.as_ref(), s));
    panic!(
        "aggregated delivery diverged under {faults:?}; \
         minimal failing schedule ({} of {} ops): {minimal:?}",
        minimal.len(),
        original_len,
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn aggregated_delivery_equals_unaggregated(
        sched in proptest::collection::vec(
            (any::<bool>(), any::<u8>(), 0u16..512, 0u16..512), 1..80),
    ) {
        check_or_shrink(None, sched);
    }

    #[test]
    fn aggregated_delivery_survives_drop_and_dup(
        seed in 0u64..1_000_000,
        drop_ppm in 0u32..300_000,
        dup_ppm in 0u32..200_000,
        sched in proptest::collection::vec(
            (any::<bool>(), any::<u8>(), 0u16..512, 0u16..512), 1..60),
    ) {
        let plan = FaultPlan::new(seed)
            .drop(drop_ppm as f64 / 1e6)
            .dup(dup_ppm as f64 / 1e6);
        check_or_shrink(Some(plan), sched);
    }
}

/// Guard against a property that silently never fails: a healthy
/// all-buffered schedule must pass, and the batched fabric must have
/// coalesced it into strictly fewer wire frames than logical ops — one
/// batch cut by a slab that filled, the rest by flush points.
#[test]
fn batching_actually_batches() {
    // 0→1: four puts of `AGG_MAX_PUT` bytes fill a slab; then 64 small
    // buffered ops both ways, which only a flush point sends.
    let long_puts = (0..4).map(|i| (false, LONG_PUT, i, 0));
    let small = (0..64).map(|i| (i % 3 == 0, (i % 8) as u8, i, i * 7));
    let sched: Vec<Op> = long_puts.chain(small).collect();
    assert!(aggregation_is_transparent(None, &sched));
    let f = fabric(true, None);
    for op in &sched[..4] {
        issue(&f, op);
    }
    let c = f.total_counts();
    assert_eq!((c.agg_ops, c.agg_batches), (4, 1), "cut by the full slab");
    assert_eq!(f.endpoint(1).pending(), 1, "and sent with no flush point");
    let _ = run(&f, &sched[4..]).expect("clean run");
    let c = f.total_counts();
    assert_eq!(c.agg_batches, 3, "one more each way, cut by the flush");
    assert_eq!(c.agg_ops, 68, "every op in this schedule is buffered");
}
