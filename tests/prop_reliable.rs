//! Property tests of the reliable delivery layer (proptest): for an
//! arbitrary seeded fault schedule and an arbitrary bidirectional
//! message schedule, every active message is delivered exactly once and
//! in per-link FIFO order, and the fault accounting balances
//! (`retransmits == wire_drops` at quiescence). When a property fails,
//! the failing schedule is shrunk with `shrink_vec` to a 1-minimal
//! counterexample before reporting.

use rupcxx_net::{AmPayload, Fabric, FabricConfig, FaultPlan, LinkRule};
use rupcxx_util::prop as proptest;
use rupcxx_util::prop::prelude::*;
use rupcxx_util::Bytes;
use std::sync::Arc;

/// One schedule entry: `reverse` selects the 1→0 direction, `id` is the
/// payload identity checked on arrival.
type Op = (bool, u16);

fn faulty_fabric(plan: FaultPlan) -> Arc<Fabric> {
    Fabric::new(FabricConfig {
        ranks: 2,
        segment_bytes: 4096,
        faults: Some(plan),
        ..FabricConfig::default()
    })
}

/// Pump + drain `me` until its links are quiescent; `None` if the pump
/// budget runs out (a hang) or the fabric reported a failure.
fn drain_rank(f: &Fabric, me: usize) -> Option<Vec<u16>> {
    let mut got = Vec::new();
    for _ in 0..100_000 {
        f.pump_incoming(me);
        // `drain()` takes the whole inbox in one consistent snapshot
        // (the racy alternative is a try_recv/pending read pair).
        for m in f.endpoint(me).drain() {
            if let AmPayload::Handler { id, .. } = m.payload {
                got.push(id);
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

/// The property: run `sched` through a 2-rank fabric under `plan`; true
/// when both directions deliver exactly once, in order, with balanced
/// retransmit accounting.
fn delivers_exactly_once(plan: &FaultPlan, sched: &[Op]) -> bool {
    let f = faulty_fabric(plan.clone());
    let mut expect = [Vec::new(), Vec::new()];
    for &(reverse, id) in sched {
        let (src, dst) = if reverse { (1, 0) } else { (0, 1) };
        expect[dst].push(id);
        f.send_am(
            src,
            dst,
            AmPayload::Handler {
                id,
                args: Bytes::new(),
            },
        );
    }
    // Each rank drives retransmission for its own incoming links, so
    // the two drains are independent and can run in sequence.
    let (Some(got0), Some(got1)) = (drain_rank(&f, 0), drain_rank(&f, 1)) else {
        return false;
    };
    let c = f.total_counts();
    got0 == expect[0] && got1 == expect[1] && c.retransmits == c.wire_drops
}

/// Check the property; on failure, shrink the schedule to a 1-minimal
/// counterexample and panic with a reproducible report.
fn check_or_shrink(plan: FaultPlan, sched: Vec<Op>) {
    if delivers_exactly_once(&plan, &sched) {
        return;
    }
    let original_len = sched.len();
    let minimal = proptest::shrink_vec(sched, |s| !delivers_exactly_once(&plan, s));
    panic!(
        "reliable delivery violated under {plan:?}; \
         minimal failing schedule ({} of {} ops): {minimal:?}",
        minimal.len(),
        original_len,
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn arbitrary_fault_schedules_deliver_exactly_once_in_order(
        seed in 0u64..1_000_000,
        drop_ppm in 0u32..400_000,
        dup_ppm in 0u32..200_000,
        reorder_ppm in 0u32..300_000,
        delay_ppm in 0u32..200_000,
        sched in proptest::collection::vec((any::<bool>(), 0u16..512), 1..80),
    ) {
        let plan = FaultPlan::new(seed)
            .drop(drop_ppm as f64 / 1e6)
            .dup(dup_ppm as f64 / 1e6)
            .reorder(reorder_ppm as f64 / 1e6)
            .delay(delay_ppm as f64 / 1e6);
        check_or_shrink(plan, sched);
    }

    #[test]
    fn asymmetric_link_rules_keep_both_directions_correct(
        seed in 0u64..1_000_000,
        drop_ppm in 100_000u32..500_000,
        sched in proptest::collection::vec((any::<bool>(), 0u16..512), 1..60),
    ) {
        // Faults only on 0->1; the clean reverse direction must be
        // unaffected and the lossy one still exactly-once.
        let plan = FaultPlan::new(seed).link(
            0,
            1,
            LinkRule { drop_ppm, dup_ppm: 100_000, ..Default::default() },
        );
        check_or_shrink(plan, sched);
    }

    #[test]
    fn dead_link_reports_failure_instead_of_hanging(
        seed in 0u64..1_000_000,
        n in 1usize..20,
    ) {
        // Every attempt on 0->1 is dropped: the receiver's pump must
        // give up after `max_attempts` and record `PeerUnreachable` —
        // never spin forever, never deliver.
        let plan = FaultPlan::new(seed)
            .link(0, 1, LinkRule { drop_ppm: 1_000_000, ..Default::default() })
            .max_attempts(4);
        let f = faulty_fabric(plan);
        for id in 0..n as u16 {
            f.send_am(0, 1, AmPayload::Handler { id, args: Bytes::new() });
        }
        prop_assert!(drain_rank(&f, 1).is_none(), "dead link cannot quiesce cleanly");
        let e = f.failure().expect("failure must carry a report");
        prop_assert_eq!((e.src, e.dst), (0, 1));
        prop_assert!(e.to_string().contains("unreachable"));
    }
}

/// The shrinker itself must reject a healthy schedule (guard against a
/// property that silently never fails: `shrink_vec` asserts the input
/// fails).
#[test]
fn clean_plan_never_triggers_shrinking() {
    let plan = FaultPlan::new(9); // all probabilities zero
    let sched: Vec<Op> = (0..50).map(|i| (i % 3 == 0, i as u16)).collect();
    assert!(delivers_exactly_once(&plan, &sched));
}
