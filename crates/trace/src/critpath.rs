//! The critical-path view: offline analysis over the per-rank event streams.
//!
//! Barrier exits delimit causal intervals: between two consecutive
//! barriers every rank's elapsed time splits into *work* (computing or
//! driving the fabric) and *attributed waiting* (the [`crate::waitstate`]
//! events recorded inside the interval). Within each interval the rank
//! with the most work is the one every other rank ultimately waited for —
//! the interval's critical rank — and the critical path through the run
//! is the chain of those per-interval maxima. The report breaks time down
//! per rank and per wait state, and computes the fraction of total
//! barrier wall time attributed to named wait states (the profiler's
//! headline accuracy number).

use crate::ring::{Event, EventKind};
use crate::waitstate::{WaitConstruct, WaitState, STATES};
use crate::RankStream;
use rupcxx_util::Table;
use std::fmt::Write as _;

/// Per-rank breakdown in the report.
#[derive(Clone, Copy, Debug, Default)]
pub struct RankBreakdown {
    /// The rank.
    pub rank: usize,
    /// Work time summed over the aligned intervals, ns.
    pub work_ns: u64,
    /// Attributed wait time summed over the aligned intervals, ns.
    pub wait_ns: u64,
    /// Attributed wait ns per state (indexed like [`STATES`]).
    pub state_ns: [u64; STATES.len()],
    /// Barrier wall time on this rank, ns.
    pub barrier_ns: u64,
    /// Intervals in which this rank was the critical one.
    pub crit_intervals: usize,
}

/// The analysis result.
#[derive(Clone, Debug, Default)]
pub struct CritPathReport {
    /// Barrier-aligned intervals analysed (min across ranks).
    pub intervals: usize,
    /// Length of the critical path: per-interval max work, summed, ns.
    pub critical_path_ns: u64,
    /// The critical rank of each interval.
    pub critical_ranks: Vec<usize>,
    /// Per-rank time breakdown.
    pub ranks: Vec<RankBreakdown>,
    /// Total barrier wall time across ranks, ns.
    pub barrier_total_ns: u64,
    /// Barrier wall time attributed to a named wait state, ns.
    pub barrier_attributed_ns: u64,
}

impl CritPathReport {
    /// Fraction of barrier wall time attributed to named wait states
    /// (1.0 when there was no barrier time at all).
    pub fn attributed_fraction(&self) -> f64 {
        if self.barrier_total_ns == 0 {
            1.0
        } else {
            self.barrier_attributed_ns as f64 / self.barrier_total_ns as f64
        }
    }

    /// Render as a JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        let _ = write!(
            out,
            "\"intervals\":{},\"critical_path_ns\":{},\"critical_ranks\":{:?},",
            self.intervals, self.critical_path_ns, self.critical_ranks
        );
        let _ = write!(
            out,
            "\"barrier_attribution\":{{\"total_ns\":{},\"attributed_ns\":{},\"fraction\":{:.4}}},",
            self.barrier_total_ns,
            self.barrier_attributed_ns,
            self.attributed_fraction()
        );
        out.push_str("\"ranks\":[");
        for (i, r) in self.ranks.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"rank\":{},\"work_ns\":{},\"wait_ns\":{},\"barrier_ns\":{},\"crit_intervals\":{},\"wait_states\":{{",
                r.rank, r.work_ns, r.wait_ns, r.barrier_ns, r.crit_intervals
            );
            for (j, &s) in STATES.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{}\":{}", s.name(), r.state_ns[j]);
            }
            out.push_str("}}");
        }
        out.push_str("]}\n");
        out
    }

    /// Render the per-rank breakdown as a table (times in ms).
    pub fn table(&self) -> Table {
        let ms = |ns: u64| format!("{:.3}", ns as f64 / 1e6);
        let mut t = Table::new([
            "rank",
            "work ms",
            "wait ms",
            "late_send ms",
            "late_recv ms",
            "starved ms",
            "retx_stall ms",
            "barrier ms",
            "crit ints",
        ]);
        for r in &self.ranks {
            t.row([
                r.rank.to_string(),
                ms(r.work_ns),
                ms(r.wait_ns),
                ms(r.state_ns[WaitState::LateSender as usize]),
                ms(r.state_ns[WaitState::LateReceiver as usize]),
                ms(r.state_ns[WaitState::ProgressStarved as usize]),
                ms(r.state_ns[WaitState::RetransmitStall as usize]),
                ms(r.barrier_ns),
                r.crit_intervals.to_string(),
            ]);
        }
        t
    }
}

/// Per-rank, per-interval (len, wait) pairs delimited by barrier exits.
fn rank_intervals(events: &[Event]) -> Vec<(u64, u64)> {
    let exits: Vec<u64> = events
        .iter()
        .filter(|e| e.kind == EventKind::BarrierExit)
        .map(|e| e.ts_ns)
        .collect();
    if exits.is_empty() {
        return Vec::new();
    }
    let first_ts = events.first().map(|e| e.ts_ns).unwrap_or(0);
    let mut out = Vec::with_capacity(exits.len());
    let mut start = first_ts;
    for &end in &exits {
        let len = end.saturating_sub(start);
        // A wait belongs to the interval its *end* falls into.
        let wait: u64 = events
            .iter()
            .filter(|e| e.kind == EventKind::Wait)
            .map(|e| (e.ts_ns + e.dur_ns, e.dur_ns))
            .filter(|&(wend, _)| wend > start && wend <= end)
            .map(|(_, d)| d)
            .sum();
        out.push((len, wait.min(len)));
        start = end;
    }
    out
}

/// Run the analysis over every rank's gathered stream.
pub fn analyze(per_rank: &[RankStream]) -> CritPathReport {
    let intervals_by_rank: Vec<Vec<(u64, u64)>> =
        per_rank.iter().map(|r| rank_intervals(&r.events)).collect();
    let intervals = intervals_by_rank.iter().map(|v| v.len()).min().unwrap_or(0);

    let mut critical_ranks = Vec::with_capacity(intervals);
    let mut critical_path_ns = 0u64;
    let mut crit_count = vec![0usize; per_rank.len()];
    for k in 0..intervals {
        let (ci, work) = intervals_by_rank
            .iter()
            .enumerate()
            .map(|(i, v)| (i, v[k].0.saturating_sub(v[k].1)))
            .max_by_key(|&(_, w)| w)
            .unwrap();
        critical_path_ns += work;
        critical_ranks.push(per_rank[ci].rank);
        crit_count[ci] += 1;
    }

    let mut barrier_total_ns = 0u64;
    let mut barrier_attributed_ns = 0u64;
    let ranks = per_rank
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let (len, wait) = intervals_by_rank[i][..intervals]
                .iter()
                .fold((0u64, 0u64), |(l, w), &(il, iw)| (l + il, w + iw));
            let mut state_ns = [0u64; STATES.len()];
            for (j, &s) in STATES.iter().enumerate() {
                state_ns[j] = r.waits.state_ns(s);
            }
            barrier_total_ns += r.barrier_total_ns;
            barrier_attributed_ns += r.waits.construct_ns(WaitConstruct::Barrier);
            RankBreakdown {
                rank: r.rank,
                work_ns: len.saturating_sub(wait),
                wait_ns: wait,
                state_ns,
                barrier_ns: r.barrier_total_ns,
                crit_intervals: crit_count[i],
            }
        })
        .collect();

    CritPathReport {
        intervals,
        critical_path_ns,
        critical_ranks,
        ranks,
        barrier_total_ns,
        barrier_attributed_ns: barrier_attributed_ns.min(barrier_total_ns),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::waitstate::{pack_wait, WaitStats};

    fn ev(kind: EventKind, ts: u64, dur: u64, a: u64) -> Event {
        Event {
            seq: ts,
            ts_ns: ts,
            dur_ns: dur,
            a,
            span: 0,
            peer: -1,
            kind,
        }
    }

    fn wait_ev(ts: u64, dur: u64) -> Event {
        ev(
            EventKind::Wait,
            ts,
            dur,
            pack_wait(WaitConstruct::Barrier, WaitState::LateSender),
        )
    }

    #[test]
    fn intervals_split_on_barrier_exits() {
        // Stream: start 0, wait [10,40), exit @100; wait [110,120), exit @200.
        let evs = vec![
            ev(EventKind::AmSend, 0, 0, 0),
            wait_ev(10, 30),
            ev(EventKind::BarrierExit, 100, 0, 0),
            wait_ev(110, 10),
            ev(EventKind::BarrierExit, 200, 0, 1),
        ];
        let iv = rank_intervals(&evs);
        assert_eq!(iv, vec![(100, 30), (100, 10)]);
    }

    #[test]
    fn critical_rank_is_max_work() {
        // Rank 0: interval len 100, waits 80 → work 20.
        // Rank 1: interval len 100, waits 10 → work 90. Critical = rank 1.
        let w0 = WaitStats::default();
        w0.record(WaitConstruct::Barrier, WaitState::LateSender, 80);
        let r0 = RankStream {
            rank: 0,
            events: vec![
                ev(EventKind::AmSend, 0, 0, 0),
                wait_ev(10, 80),
                ev(EventKind::BarrierExit, 100, 0, 0),
            ],
            waits: w0.snapshot(),
            barrier_total_ns: 80,
        };
        let w1 = WaitStats::default();
        w1.record(WaitConstruct::Barrier, WaitState::LateSender, 10);
        let r1 = RankStream {
            rank: 1,
            events: vec![
                ev(EventKind::AmSend, 0, 0, 0),
                wait_ev(80, 10),
                ev(EventKind::BarrierExit, 100, 0, 0),
            ],
            waits: w1.snapshot(),
            barrier_total_ns: 10,
        };
        let rep = analyze(&[r0, r1]);
        assert_eq!(rep.intervals, 1);
        assert_eq!(rep.critical_ranks, vec![1]);
        assert_eq!(rep.critical_path_ns, 90);
        assert_eq!(rep.ranks[0].work_ns, 20);
        assert_eq!(rep.ranks[1].work_ns, 90);
        // Full attribution: every barrier ns carries a named state.
        assert!((rep.attributed_fraction() - 1.0).abs() < 1e-9);
        let json = rep.to_json();
        assert!(json.contains("\"critical_ranks\":[1]"));
        assert!(json.contains("\"late_sender\":80"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        let table = rep.table().render();
        assert!(table.contains("late_send ms"));
    }

    #[test]
    fn empty_input_is_empty_report() {
        let rep = analyze(&[]);
        assert_eq!(rep.intervals, 0);
        assert_eq!(rep.critical_path_ns, 0);
        assert!((rep.attributed_fraction() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn no_barriers_means_no_intervals() {
        let r = RankStream {
            rank: 0,
            events: vec![ev(EventKind::AmSend, 5, 0, 0)],
            ..Default::default()
        };
        let rep = analyze(&[r]);
        assert_eq!(rep.intervals, 0);
        assert_eq!(rep.ranks[0].work_ns, 0);
    }
}
