//! The postmortem flight recorder.
//!
//! When a job dies — a peer declared unreachable, the deadlock/race
//! checker aborting a wait — the tail of every rank's causal events
//! ([`EventKind::is_causal`]: per-operation detail would crowd out the
//! story) is formatted into a human-readable dump: the last retransmit
//! attempts, the last frames in flight, the last flushes, the last waits
//! and their states. The dump goes to stderr *and* into a process-global
//! capture buffer so the chaos suite can assert on postmortem contents
//! after catching the panic.

use crate::ring::{Event, EventKind};
use crate::waitstate::unpack_wait;
use crate::RankStream;
use std::fmt::Write as _;
use std::sync::Mutex;

/// How many trailing events per rank a dump includes.
pub const FLIGHT_EVENTS: usize = 64;

static DUMPS: Mutex<Vec<String>> = Mutex::new(Vec::new());

/// Format one event as a flight-recorder line.
fn format_event(rank: usize, e: &Event) -> String {
    let mut line = format!(
        "  r{rank} +{:>12.3}us {:<12}",
        e.ts_ns as f64 / 1000.0,
        e.kind.name()
    );
    if e.peer >= 0 {
        let _ = write!(line, " peer={}", e.peer);
    }
    if e.span != 0 {
        let _ = write!(line, " span={:#x}", e.span);
    }
    match e.kind {
        EventKind::Wait => {
            let _ = write!(line, " dur={:.3}us", e.dur_ns as f64 / 1000.0);
            if let Some((c, s)) = unpack_wait(e.a) {
                let _ = write!(line, " {}={}", c.name(), s.name());
            }
        }
        EventKind::Retransmit => {
            let _ = write!(line, " attempt={}", e.a);
        }
        EventKind::BarrierExit => {
            let _ = write!(line, " episode={:.3}us", e.a as f64 / 1000.0);
        }
        EventKind::Flush => {
            let _ = write!(line, " frames={}", e.a);
        }
        _ => {}
    }
    line
}

/// Format the causal tail of every rank's event stream as one dump
/// document.
pub fn format_flight(reason: &str, per_rank: &[RankStream]) -> String {
    let mut out = format!("=== rupcxx flight recorder: {reason} ===\n");
    for RankStream { rank, events, .. } in per_rank {
        let causal: Vec<&Event> = events.iter().filter(|e| e.kind.is_causal()).collect();
        let tail = &causal[causal.len().saturating_sub(FLIGHT_EVENTS)..];
        let _ = writeln!(
            out,
            "-- rank {rank}: last {} of {} events --",
            tail.len(),
            causal.len()
        );
        for e in tail {
            out.push_str(&format_event(*rank, e));
            out.push('\n');
        }
    }
    out.push_str("=== end flight recorder ===\n");
    out
}

/// Emit a dump: stderr for humans, the capture buffer for tests.
pub fn record_dump(dump: String) {
    eprintln!("{dump}");
    DUMPS.lock().unwrap().push(dump);
}

/// Drain the capture buffer (test isolation).
pub fn take_dumps() -> Vec<String> {
    std::mem::take(&mut *DUMPS.lock().unwrap())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::waitstate::{pack_wait, WaitConstruct, WaitState};

    fn ev(kind: EventKind, ts: u64, peer: i32, a: u64) -> Event {
        Event {
            seq: ts,
            ts_ns: ts * 1000,
            dur_ns: 500,
            a,
            span: if kind == EventKind::AmSend { 0xdead } else { 0 },
            peer,
            kind,
        }
    }

    fn stream(events: Vec<Event>) -> RankStream {
        RankStream {
            events,
            ..Default::default()
        }
    }

    #[test]
    fn dump_formats_tail_with_kinds() {
        let events = vec![
            ev(EventKind::AmSend, 1, 1, 0),
            ev(EventKind::Retransmit, 2, 1, 3),
            ev(
                EventKind::Wait,
                3,
                -1,
                pack_wait(WaitConstruct::Barrier, WaitState::RetransmitStall),
            ),
            ev(EventKind::Unreachable, 4, 1, 0),
        ];
        let dump = format_flight("peer 1 unreachable", &[stream(events)]);
        assert!(dump.contains("flight recorder: peer 1 unreachable"));
        assert!(dump.contains("retransmit"));
        assert!(dump.contains("attempt=3"));
        assert!(dump.contains("barrier=retransmit_stall"));
        assert!(dump.contains("unreachable"));
        assert!(dump.contains("span=0xdead"));
    }

    #[test]
    fn dump_truncates_to_flight_window() {
        let mut events: Vec<Event> = (0..200).map(|i| ev(EventKind::AmSend, i, 1, 0)).collect();
        // Per-operation detail after them must not push them out.
        events.extend((200..300).map(|i| ev(EventKind::Put, i, 1, 8)));
        let dump = format_flight("x", &[stream(events)]);
        assert!(dump.contains(&format!("last {FLIGHT_EVENTS} of 200 events")));
        assert_eq!(dump.matches("send").count(), FLIGHT_EVENTS);
    }

    #[test]
    fn capture_buffer_records_dumps() {
        take_dumps();
        record_dump("=== test dump ===".to_string());
        assert!(take_dumps().iter().any(|s| s.contains("test dump")));
        assert!(take_dumps().is_empty());
    }
}
