//! The Chrome `trace_event` JSON view and the per-rank summary table.
//!
//! The JSON output loads directly into `chrome://tracing` or
//! <https://ui.perfetto.dev>: one timeline row per rank (`tid` = rank),
//! spans as complete (`"ph":"X"`) events — a wait under its construct's
//! name, its state in `args` — sends/spawns as instants. The table
//! summary renders with `rupcxx-util`'s [`Table`] like every other
//! reproduction artifact.

use crate::metrics::MetricsSnapshot;
use crate::ring::EventKind;
use crate::waitstate::unpack_wait;
use crate::RankStream;
use rupcxx_util::table::fnum;
use rupcxx_util::Table;
use std::fmt::Write as _;

/// Render per-rank event streams as a Chrome trace JSON document.
///
/// Besides the events themselves, the document carries `process_name` /
/// `thread_name` metadata records so Perfetto labels each timeline row
/// with its rank instead of a bare thread id.
pub fn chrome_trace_json(per_rank: &[RankStream]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    if !per_rank.is_empty() {
        let _ = write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"args\":{{\"name\":\"rupcxx\"}}}}"
        );
        first = false;
        for RankStream { rank, .. } in per_rank {
            let _ = write!(
                out,
                ",\n{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{rank},\"args\":{{\"name\":\"rank {rank}\"}}}}"
            );
        }
    }
    for RankStream { rank, events, .. } in per_rank {
        for e in events {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            // A wait shows under the construct that waited.
            let wait = (e.kind == EventKind::Wait)
                .then(|| unpack_wait(e.a))
                .flatten();
            let name = wait.map_or(e.kind.name(), |(c, _)| c.name());
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"pid\":0,\"tid\":{rank},\"ts\":{:.3},",
                name,
                e.kind.category(),
                e.ts_ns as f64 / 1000.0
            );
            if e.kind.is_span() {
                let dur_us = (e.dur_ns as f64 / 1000.0).max(0.001);
                let _ = write!(out, "\"ph\":\"X\",\"dur\":{dur_us:.3},");
            } else {
                out.push_str("\"ph\":\"i\",\"s\":\"t\",");
            }
            let _ = write!(out, "\"args\":{{\"peer\":{},\"seq\":{}", e.peer, e.seq);
            match wait {
                Some((_, state)) => {
                    let _ = write!(out, ",\"state\":\"{}\"", state.name());
                }
                None => {
                    let _ = write!(out, ",\"a\":{}", e.a);
                }
            }
            if e.span != 0 {
                let _ = write!(out, ",\"span\":\"{:#x}\"", e.span);
            }
            out.push_str("}}");
        }
    }
    out.push_str("\n],\"displayTimeUnit\":\"ns\"}\n");
    out
}

/// One rank's line of the summary table: its histograms plus the five
/// fault and cache counters, which the caller copies from the
/// `CommCounts` the fabric already keeps (this crate sits below it).
#[derive(Clone, Copy, Debug, Default)]
pub struct SummaryRow {
    /// The rank.
    pub rank: usize,
    /// Its histograms and progress counters.
    pub metrics: MetricsSnapshot,
    /// Frames retransmitted by the reliable AM layer.
    pub retransmits: u64,
    /// Transmission attempts lost on the wire by the fault plan.
    pub wire_drops: u64,
    /// Duplicate arrivals discarded by the dedup window.
    pub dup_arrivals: u64,
    /// Remote gets served from the software read cache.
    pub cache_hits: u64,
    /// Remote gets that missed the read cache and filled a line.
    pub cache_misses: u64,
    /// Events ever pushed to the rank's ring (0 without one).
    pub ring_pushed: u64,
    /// Ring events lost to wraparound or writer collision: a truncated
    /// trace must never be mistaken for a complete one.
    pub ring_lost: u64,
}

/// Build the per-rank summary table (plus an `all` aggregate row when
/// more than one rank is given). Latencies are histogram-bound
/// percentiles in microseconds.
pub fn summary_table(rows: &[SummaryRow]) -> Table {
    let mut t = Table::new([
        "rank",
        "puts",
        "put p50us",
        "put p99us",
        "gets",
        "get p50us",
        "ams",
        "am p50us",
        "polls",
        "work%",
        "qdepth p99",
        "bytes p50",
        "retx",
        "drops",
        "dups",
        "batches",
        "occ p50",
        "cfills",
        "hit%",
        "events",
        "evlost",
    ]);
    let mut add_row = |label: String, r: &SummaryRow| {
        let m = &r.metrics;
        let gets = (r.cache_hits + r.cache_misses).max(1);
        t.row([
            label,
            m.put_ns.count.to_string(),
            fnum(m.put_ns.p50() as f64 / 1000.0),
            fnum(m.put_ns.p99() as f64 / 1000.0),
            m.get_ns.count.to_string(),
            fnum(m.get_ns.p50() as f64 / 1000.0),
            m.am_handle_ns.count.to_string(),
            fnum(m.am_handle_ns.p50() as f64 / 1000.0),
            m.advance_polls.to_string(),
            format!("{:.1}", m.poll_work_ratio() * 100.0),
            m.queue_depth.p99().to_string(),
            m.msg_bytes.p50().to_string(),
            r.retransmits.to_string(),
            r.wire_drops.to_string(),
            r.dup_arrivals.to_string(),
            m.batch_frames.count.to_string(),
            m.batch_frames.p50().to_string(),
            m.cache_fill_bytes.count.to_string(),
            format!("{:.1}", r.cache_hits as f64 * 100.0 / gets as f64),
            r.ring_pushed.to_string(),
            r.ring_lost.to_string(),
        ]);
    };
    let mut total = SummaryRow::default();
    for r in rows {
        add_row(r.rank.to_string(), r);
        total = SummaryRow {
            rank: 0,
            metrics: total.metrics.merged(&r.metrics),
            retransmits: total.retransmits + r.retransmits,
            wire_drops: total.wire_drops + r.wire_drops,
            dup_arrivals: total.dup_arrivals + r.dup_arrivals,
            cache_hits: total.cache_hits + r.cache_hits,
            cache_misses: total.cache_misses + r.cache_misses,
            ring_pushed: total.ring_pushed + r.ring_pushed,
            ring_lost: total.ring_lost + r.ring_lost,
        };
    }
    if rows.len() > 1 {
        add_row("all".to_string(), &total);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::Event;

    fn stream(rank: usize, events: Vec<Event>) -> RankStream {
        RankStream {
            rank,
            events,
            ..Default::default()
        }
    }

    fn sample_events() -> Vec<Event> {
        let ev = |seq, kind, a, dur_ns| Event {
            seq,
            ts_ns: 1000 * (seq + 1),
            dur_ns,
            a,
            span: 0,
            peer: 1,
            kind,
        };
        vec![
            ev(0, EventKind::Put, 8, 500),
            ev(1, EventKind::AmSend, 16, 0),
        ]
    }

    #[test]
    fn chrome_json_shape() {
        let json = chrome_trace_json(&[stream(0, sample_events())]);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"put\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"tid\":0"));
        // Balanced braces/brackets — a cheap structural validity check.
        assert_eq!(json.matches('{').count(), json.matches('}').count(),);
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn chrome_json_names_a_wait_after_its_construct() {
        use crate::waitstate::{pack_wait, WaitConstruct, WaitState};
        let wait = Event {
            a: pack_wait(WaitConstruct::FinishWait, WaitState::LateSender),
            span: 0x2a,
            kind: EventKind::Wait,
            ..sample_events()[0]
        };
        let json = chrome_trace_json(&[stream(0, vec![wait])]);
        assert!(json.contains("\"name\":\"finish_wait\""), "{json}");
        assert!(json.contains("\"cat\":\"sync\""));
        assert!(json.contains("\"state\":\"late_sender\""));
        assert!(json.contains("\"span\":\"0x2a\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn empty_trace_is_valid() {
        let json = chrome_trace_json(&[]);
        assert!(json.contains("\"traceEvents\":[\n\n]"));
    }

    #[test]
    fn chrome_json_labels_ranks_with_metadata() {
        let json = chrome_trace_json(&[stream(0, sample_events()), stream(3, vec![])]);
        assert!(json.contains("\"name\":\"process_name\""));
        assert!(json.contains("\"name\":\"rupcxx\""));
        assert!(json.contains("\"name\":\"thread_name\""));
        assert!(json.contains("\"name\":\"rank 0\""));
        assert!(json.contains("\"name\":\"rank 3\""));
        assert!(json.contains("\"ph\":\"M\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn summary_surfaces_ring_overflow() {
        // An overflowed ring must show its loss in the summary so a
        // truncated trace is never mistaken for a complete one.
        let cfg = crate::TraceConfig::events().with_ring_capacity(4);
        let t = crate::RankTrace::new(0, &cfg, false);
        for _ in 0..10 {
            t.am_send(1, 8);
        }
        let ring = t.ring().unwrap();
        let row = SummaryRow {
            ring_pushed: ring.pushed(),
            ring_lost: ring.lost(),
            ..Default::default()
        };
        let rendered = summary_table(&[row]).render();
        assert!(rendered.contains("events"));
        assert!(rendered.contains("evlost"));
        let row = rendered.lines().last().unwrap();
        assert!(row.contains("10"), "events column: {row}");
        assert!(row.contains('6'), "evlost column: {row}");
    }

    #[test]
    fn summary_includes_aggregate_row() {
        let row = SummaryRow {
            metrics: MetricsSnapshot {
                advance_polls: 10,
                advance_work: 5,
                ..Default::default()
            },
            retransmits: 3,
            wire_drops: 4,
            dup_arrivals: 2,
            ..Default::default()
        };
        let t = summary_table(&[row, SummaryRow { rank: 1, ..row }]);
        assert_eq!(t.len(), 3); // rank 0, rank 1, all
        let rendered = t.render();
        assert!(rendered.contains("all"));
        assert!(rendered.contains("50.0"));
        // Fault columns present, with the aggregate row summing them.
        assert!(rendered.contains("retx"));
        assert!(rendered.contains("drops"));
        assert!(rendered.contains('8'), "aggregate wire_drops 4+4");
        // Aggregation occupancy columns are always present (zero when
        // the feature is off).
        assert!(rendered.contains("batches"));
        assert!(rendered.contains("occ p50"));
        // Read-cache columns are always present (zero when off).
        assert!(rendered.contains("cfills"));
        assert!(rendered.contains("hit%"));
    }

    #[test]
    fn summary_reports_cache_hit_rate() {
        let live = crate::metrics::Metrics::default();
        live.cache_fill_bytes.record(256);
        let row = SummaryRow {
            metrics: live.snapshot(),
            cache_hits: 3,
            cache_misses: 1,
            ..Default::default()
        };
        let rendered = summary_table(&[row]).render();
        let row = rendered.lines().last().unwrap();
        assert!(row.contains("75.0"), "hit%% column: {row}");
    }

    #[test]
    fn summary_reports_batch_occupancy() {
        let live = crate::metrics::Metrics::default();
        for frames in [4u64, 16, 64] {
            live.batch_frames.record(frames);
        }
        let row = SummaryRow {
            metrics: live.snapshot(),
            ..Default::default()
        };
        let rendered = summary_table(&[row]).render();
        assert!(rendered.contains("batches"));
        // 3 batches flushed; the p50 bound of {4,16,64} is the upper
        // bound of 16's bucket, 32.
        let row = rendered.lines().last().unwrap();
        assert!(row.contains('3'), "batch count column: {row}");
        assert!(row.contains("32"), "occupancy p50 column: {row}");
    }
}
