//! `rupcxx-trace` — the one per-rank event stream of the PGAS stack.
//!
//! The paper's evaluation (Figs. 4–8) depends on knowing exactly what
//! communication each construct generates. Every instrumented site in the
//! fabric and the runtime reports a fact once, to its rank's
//! [`RankTrace`]: one lock-free ring of timestamped [`Event`]s
//! ([`EventRing`]), with the log₂ histograms ([`Metrics`]), the
//! wait-state histograms ([`WaitStats`]) and the causal watermarks
//! beside it. Four views read that stream:
//!
//! * the Chrome `trace_event` JSON ([`export::chrome_trace_json`]);
//! * the per-rank summary table ([`export::summary_table`]);
//! * the critical-path report ([`critpath::analyze`]);
//! * the postmortem flight recorder ([`flight::format_flight`]).
//!
//! `RUPCXX_TRACE=metrics|events[,path]` and `RUPCXX_PROF=on[,path]`
//! select which views are written and whether causal spans ride the
//! wire; there is one recorder either way. With both unset every
//! recording entry point is an inlined `if off { return }` on an
//! immutable field, and no ring is allocated.

pub mod clock;
pub mod critpath;
pub mod export;
pub mod flight;
pub mod histogram;
pub mod metrics;
pub mod ring;
pub mod span;
pub mod waitstate;

pub use clock::now_ns;
pub use critpath::CritPathReport;
pub use export::{chrome_trace_json, summary_table, SummaryRow};
pub use histogram::{HistogramSnapshot, Log2Histogram};
pub use metrics::{Metrics, MetricsSnapshot};
pub use ring::{Event, EventKind, EventRing};
pub use span::{ProfConfig, ProfSpan};
pub use waitstate::{WaitConstruct, WaitState, WaitStats, WaitStatsSnapshot};

use std::sync::atomic::{AtomicU64, Ordering};

/// What the trace layer records.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TraceMode {
    /// Nothing (the zero-cost default).
    #[default]
    Off,
    /// Histograms and counters only — no event ring.
    Metrics,
    /// Metrics plus the per-rank event ring.
    Events,
}

/// Default per-rank ring capacity (events). ~14 MiB per rank when active;
/// override with `RUPCXX_TRACE_BUF` or [`TraceConfig::ring_capacity`].
pub const DEFAULT_RING_CAPACITY: usize = 1 << 18;

/// Default Chrome-trace output path for the first traced job in a
/// process; later jobs get a numeric suffix.
pub const DEFAULT_TRACE_PATH: &str = "rupcxx_trace.json";

/// Trace configuration, usually parsed from `RUPCXX_TRACE`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceConfig {
    /// What to record.
    pub mode: TraceMode,
    /// Chrome-trace output path (None = [`DEFAULT_TRACE_PATH`]).
    pub path: Option<String>,
    /// Per-rank event-ring capacity (None = [`DEFAULT_RING_CAPACITY`]).
    pub ring_capacity: Option<usize>,
}

impl TraceConfig {
    /// Tracing disabled.
    pub fn off() -> Self {
        TraceConfig::default()
    }

    /// Metrics histograms only.
    pub fn metrics() -> Self {
        TraceConfig {
            mode: TraceMode::Metrics,
            ..Default::default()
        }
    }

    /// Full event tracing plus metrics.
    pub fn events() -> Self {
        TraceConfig {
            mode: TraceMode::Events,
            ..Default::default()
        }
    }

    /// Set the Chrome-trace output path.
    pub fn with_path(mut self, path: impl Into<String>) -> Self {
        self.path = Some(path.into());
        self
    }

    /// Set the per-rank ring capacity.
    pub fn with_ring_capacity(mut self, capacity: usize) -> Self {
        self.ring_capacity = Some(capacity);
        self
    }

    /// True unless the mode is [`TraceMode::Off`].
    pub fn is_enabled(&self) -> bool {
        self.mode != TraceMode::Off
    }

    /// The Chrome-trace output path to use.
    pub fn path(&self) -> &str {
        self.path.as_deref().unwrap_or(DEFAULT_TRACE_PATH)
    }

    /// Parse a `RUPCXX_TRACE` value: `events[,path]` / `metrics` / `off`.
    /// `Ok(None)` means explicitly off; malformed values are `Err`.
    pub fn parse(raw: &str) -> Result<Option<Self>, String> {
        let Some((mode, path)) = mode_and_path(raw)? else {
            return Ok(None);
        };
        let mode = match mode {
            "events" | "1" | "on" | "true" => TraceMode::Events,
            "metrics" => TraceMode::Metrics,
            other => return Err(format!("unknown mode {other:?}")),
        };
        Ok(Some(TraceConfig {
            mode,
            path,
            ring_capacity: None,
        }))
    }

    /// Read `RUPCXX_TRACE` (and `RUPCXX_TRACE_BUF` for the ring size)
    /// from the environment. Unset means disabled; malformed values
    /// abort with a clear message.
    pub fn from_env() -> Self {
        let mut cfg = rupcxx_util::env::parse_env(
            "RUPCXX_TRACE",
            "metrics|events[,<path>]",
            TraceConfig::parse,
        )
        .unwrap_or_default();
        if let Ok(raw) = std::env::var("RUPCXX_TRACE_BUF") {
            match raw.trim().parse::<usize>() {
                Ok(n) if n > 0 => cfg.ring_capacity = Some(n),
                _ => rupcxx_util::env::invalid(
                    "RUPCXX_TRACE_BUF",
                    &raw,
                    "not a positive integer",
                    "<events-per-rank>",
                ),
            }
        }
        cfg
    }
}

/// Split the `mode[,path]` value of `RUPCXX_TRACE` / `RUPCXX_PROF`;
/// `Ok(None)` when the mode says off.
pub(crate) fn mode_and_path(raw: &str) -> Result<Option<(&str, Option<String>)>, String> {
    let (mode, path) = match raw.split_once(',') {
        Some((mode, path)) => (mode.trim(), Some(path.trim())),
        None => (raw.trim(), None),
    };
    if matches!(mode, "" | "0" | "off" | "false" | "none") {
        return match path {
            Some(_) => Err("output path given but the mode is off".to_string()),
            None => Ok(None),
        };
    }
    if path == Some("") {
        return Err("empty output path after ','".to_string());
    }
    Ok(Some((mode, path.map(String::from))))
}

/// The file a view of this process's `job`-th job writing to `base` goes
/// to: `base` itself for the first, a numeric suffix before the extension
/// for later ones, plus `.r<rank>` when the process hosts one rank of a
/// multi-process job (every rank process is handed the same `base`).
pub fn view_path(base: &str, job: u64, rank: Option<usize>) -> String {
    let mut tag = String::new();
    if job > 0 {
        tag.push_str(&format!(".{job}"));
    }
    if let Some(r) = rank {
        tag.push_str(&format!(".r{r}"));
    }
    match base.rsplit_once('.') {
        Some((stem, ext)) if !tag.is_empty() => format!("{stem}{tag}.{ext}"),
        _ => format!("{base}{tag}"),
    }
}

/// One rank's stream as gathered at teardown or postmortem — what the
/// Chrome trace, the critical-path analysis and the flight recorder read.
#[derive(Clone, Debug, Default)]
pub struct RankStream {
    /// The rank.
    pub rank: usize,
    /// Its events, oldest first.
    pub events: Vec<Event>,
    /// Its wait-state histograms.
    pub waits: WaitStatsSnapshot,
    /// Total barrier episode time, ns (the attribution denominator).
    pub barrier_total_ns: u64,
}

/// The per-rank recorder: one event ring with the histograms, wait-state
/// statistics and causal watermarks beside it. Owned by the fabric's
/// `Endpoint`, shared with the runtime through it.
///
/// Two switches decide what a fact costs. [`TraceMode`] other than `Off`
/// turns on per-operation timing (put/get/handler/advance spans, polls,
/// the histograms); `causal` (`RUPCXX_PROF`) puts span ids on the wire.
/// The ring exists in events mode or when causal; with a ring and no
/// trace mode only the [`EventKind::is_causal`] facts are recorded.
#[derive(Debug)]
pub struct RankTrace {
    mode: TraceMode,
    causal: bool,
    /// `mode != Off || causal`: the one test every message- and
    /// wait-level site makes.
    on: bool,
    rank: usize,
    ring: Option<EventRing>,
    /// Histograms and progress counters for this rank.
    pub metrics: Metrics,
    /// Wait-time histograms, per construct and per state.
    pub waits: WaitStats,
    /// Next span counter (combined with the rank for the wire id).
    next_span: AtomicU64,
    /// Injection timestamp of the newest remote span joined here.
    last_inject_ns: AtomicU64,
    /// Remote spans joined on this rank (messages absorbed).
    msgs_joined: AtomicU64,
    /// Total barrier episode time, ns (the attribution denominator).
    barrier_total_ns: AtomicU64,
}

impl RankTrace {
    /// A disabled recorder: every recording call is a single-branch no-op.
    pub fn disabled() -> Self {
        Self::new(0, &TraceConfig::off(), false)
    }

    /// The recorder of `rank` per `config`; `causal` = spans ride the
    /// wire (`RUPCXX_PROF`). The ring is allocated in events mode or
    /// when causal, and never otherwise.
    pub fn new(rank: usize, config: &TraceConfig, causal: bool) -> Self {
        let ring = (config.mode == TraceMode::Events || causal).then(|| {
            clock::init_epoch();
            EventRing::new(config.ring_capacity.unwrap_or(DEFAULT_RING_CAPACITY))
        });
        RankTrace {
            mode: config.mode,
            causal,
            on: config.mode != TraceMode::Off || causal,
            rank,
            ring,
            metrics: Metrics::default(),
            waits: WaitStats::default(),
            next_span: AtomicU64::new(1),
            last_inject_ns: AtomicU64::new(0),
            msgs_joined: AtomicU64::new(0),
            barrier_total_ns: AtomicU64::new(0),
        }
    }

    /// True when anything is being recorded.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.on
    }

    /// True when per-operation timing is on (a `RUPCXX_TRACE` mode).
    #[inline]
    pub fn ops_enabled(&self) -> bool {
        self.mode != TraceMode::Off
    }

    /// The event ring, when one is recording.
    pub fn ring(&self) -> Option<&EventRing> {
        self.ring.as_ref()
    }

    fn push(&self, kind: EventKind, ts_ns: u64, dur_ns: u64, peer: i32, a: u64, span: u64) {
        if let Some(ring) = &self.ring {
            ring.push(Event {
                seq: 0,
                ts_ns,
                dur_ns,
                a,
                span,
                peer,
                kind,
            });
        }
    }

    /// Operation start timestamp — 0 (no clock read) without a trace mode.
    #[inline]
    pub fn start(&self) -> u64 {
        if self.mode == TraceMode::Off {
            0
        } else {
            now_ns()
        }
    }

    /// Record a completed operation (`Put`, `Get`, `AmHandle`, `Advance`)
    /// that started at `start_ns` (from [`RankTrace::start`]). No-op
    /// without a trace mode.
    #[inline]
    pub fn span(&self, kind: EventKind, peer: i32, a: u64, start_ns: u64) {
        if self.mode == TraceMode::Off {
            return;
        }
        self.span_slow(kind, peer, a, start_ns);
    }

    #[cold]
    fn span_slow(&self, kind: EventKind, peer: i32, a: u64, start_ns: u64) {
        let dur = now_ns().saturating_sub(start_ns);
        match kind {
            EventKind::Put => {
                self.metrics.put_ns.record(dur);
                self.metrics.msg_bytes.record(a);
            }
            EventKind::Get => {
                self.metrics.get_ns.record(dur);
                self.metrics.msg_bytes.record(a);
            }
            EventKind::AmHandle => self.metrics.am_handle_ns.record(dur),
            EventKind::Advance => self.metrics.advance_ns.record(dur),
            _ => {}
        }
        self.push(kind, start_ns, dur, peer, a, 0);
    }

    /// Record an instantaneous fact; `span` is the causal id it concerns
    /// (0 = none). No-op when disabled.
    #[inline]
    pub fn instant(&self, kind: EventKind, peer: i32, a: u64, span: u64) {
        if !self.on {
            return;
        }
        self.instant_slow(kind, peer, a, span);
    }

    #[cold]
    fn instant_slow(&self, kind: EventKind, peer: i32, a: u64, span: u64) {
        let ops = self.mode != TraceMode::Off;
        if !ops && !kind.is_causal() {
            return;
        }
        match kind {
            // Joining an arriving span (`a` = its injection time) ties
            // this rank's next wait to the injection on the origin.
            EventKind::AmRecv => {
                self.last_inject_ns.fetch_max(a, Ordering::Relaxed);
                self.msgs_joined.fetch_add(1, Ordering::Relaxed);
            }
            EventKind::BarrierExit => {
                self.barrier_total_ns.fetch_add(a, Ordering::Relaxed);
            }
            EventKind::Flush if ops => self.metrics.batch_frames.record(a),
            EventKind::CacheFill if ops => self.metrics.cache_fill_bytes.record(a),
            _ => {}
        }
        self.push(kind, now_ns(), 0, peer, a, span);
    }

    /// Record the injection of an active message of `bytes` towards
    /// `dst` and return the span to attach to it (None unless causal).
    #[inline]
    pub fn am_send(&self, dst: i32, bytes: u64) -> Option<ProfSpan> {
        if !self.on {
            return None;
        }
        self.am_send_slow(dst, bytes)
    }

    #[cold]
    fn am_send_slow(&self, dst: i32, bytes: u64) -> Option<ProfSpan> {
        let inject_ns = now_ns();
        if self.mode != TraceMode::Off {
            self.metrics.msg_bytes.record(bytes);
        }
        let span = self.causal.then(|| {
            let n = self.next_span.fetch_add(1, Ordering::Relaxed);
            ProfSpan {
                id: ((self.rank as u64) << 48) | (n & ((1u64 << 48) - 1)),
                inject_ns,
            }
        });
        self.push(
            EventKind::AmSend,
            inject_ns,
            0,
            dst,
            bytes,
            span.map_or(0, |s| s.id),
        );
        span
    }

    /// Record one `advance()` poll of the traced progress engine: inbox
    /// depth before draining and how many messages were processed.
    pub fn poll(&self, depth: u64, msgs: u64) {
        self.metrics.queue_depth.record(depth);
        self.metrics.advance_polls.fetch_add(1, Ordering::Relaxed);
        if msgs > 0 {
            self.metrics.advance_work.fetch_add(1, Ordering::Relaxed);
            self.metrics.advance_msgs.fetch_add(msgs, Ordering::Relaxed);
        }
    }

    /// A blocking construct starts to wait: its start timestamp and the
    /// spans joined so far, for [`RankTrace::wait_end`].
    pub fn wait_begin(&self) -> (u64, u64) {
        (now_ns(), self.msgs_joined.load(Ordering::Relaxed))
    }

    /// The wait that `begun` ([`RankTrace::wait_begin`]) started is over:
    /// classify it (`retx_delta` = frames the fabric retransmitted
    /// meanwhile), add it to [`RankTrace::waits`] and record the one
    /// `Wait` event. Returns its duration, ns.
    pub fn wait_end(&self, construct: WaitConstruct, begun: (u64, u64), retx_delta: u64) -> u64 {
        let (t0, joined0) = begun;
        let dur = now_ns().saturating_sub(t0);
        let state = waitstate::classify(
            construct,
            retx_delta,
            self.msgs_joined.load(Ordering::Relaxed) - joined0,
            self.last_inject_ns.load(Ordering::Relaxed),
            t0,
        );
        self.waits.record(construct, state, dur);
        let a = waitstate::pack_wait(construct, state);
        self.push(EventKind::Wait, t0, dur, -1, a, 0);
        dur
    }

    /// Copy out the ring (empty when there is none).
    pub fn events(&self) -> Vec<Event> {
        self.ring.as_ref().map(|r| r.snapshot()).unwrap_or_default()
    }

    /// Gather this rank's stream for the views.
    pub fn stream(&self) -> RankStream {
        RankStream {
            rank: self.rank,
            events: self.events(),
            waits: self.waits.snapshot(),
            barrier_total_ns: self.barrier_total_ns.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn events_trace(capacity: usize, causal: bool) -> RankTrace {
        let cfg = TraceConfig::events().with_ring_capacity(capacity);
        RankTrace::new(3, &cfg, causal)
    }

    #[test]
    fn disabled_trace_records_nothing_and_allocates_no_ring() {
        let t = RankTrace::disabled();
        assert!(!t.enabled() && !t.ops_enabled());
        assert!(t.ring().is_none());
        let s = t.start();
        assert_eq!(s, 0);
        t.span(EventKind::Put, 1, 8, s);
        t.instant(EventKind::Flush, 1, 8, 0);
        assert_eq!(t.am_send(1, 8), None);
        assert!(t.events().is_empty());
        let m = t.metrics.snapshot();
        assert_eq!(m.put_ns.count, 0);
        assert_eq!(m.msg_bytes.count, 0);
    }

    #[test]
    fn metrics_mode_has_no_ring() {
        let t = RankTrace::new(0, &TraceConfig::metrics(), false);
        assert!(t.enabled() && t.ops_enabled());
        assert!(t.ring().is_none());
        let s = t.start();
        t.span(EventKind::Get, 2, 64, s);
        assert_eq!(t.am_send(1, 8), None, "no spans on the wire");
        assert!(t.events().is_empty());
        let m = t.metrics.snapshot();
        assert_eq!(m.get_ns.count, 1);
        assert_eq!(m.msg_bytes.count, 2);
    }

    #[test]
    fn events_mode_records_spans_and_instants() {
        let t = events_trace(64, false);
        let s = t.start();
        assert!(s > 0);
        t.span(EventKind::Put, 1, 8, s);
        t.instant(EventKind::TaskSpawn, 2, 0, 0);
        t.poll(1, 1);
        t.instant(EventKind::Retransmit, 1, 2, 0);
        t.instant(EventKind::WireDrop, 1, 0, 0);
        t.instant(EventKind::AmDup, 1, 0, 0);
        let evs = t.events();
        let kinds: Vec<EventKind> = evs.iter().map(|e| e.kind).collect();
        use EventKind::*;
        assert_eq!(kinds, [Put, TaskSpawn, Retransmit, WireDrop, AmDup]);
        assert_eq!((evs[0].peer, evs[0].a), (1, 8));
        assert_eq!(evs[2].a, 2, "retransmit carries its attempt");
        assert_eq!(t.metrics.snapshot().advance_polls, 1);
    }

    #[test]
    fn flush_and_cache_instants_feed_their_histograms() {
        let t = events_trace(16, false);
        t.instant(EventKind::Flush, 1, 48, 0);
        t.instant(EventKind::Flush, 2, 64, 0);
        t.instant(EventKind::CacheFill, 1, 256, 0);
        t.instant(EventKind::CacheHit, 1, 8, 0);
        let m = t.metrics.snapshot();
        assert_eq!((m.batch_frames.count, m.batch_frames.max), (2, 64));
        assert_eq!((m.cache_fill_bytes.count, m.cache_fill_bytes.max), (1, 256));
        let evs = t.events();
        assert_eq!(evs.len(), 4);
        assert_eq!(
            (evs[0].kind, evs[0].a, evs[0].peer),
            (EventKind::Flush, 48, 1)
        );
    }

    #[test]
    fn causal_only_records_the_causal_kinds_and_no_histograms() {
        let t = RankTrace::new(3, &TraceConfig::off(), true);
        assert!(t.enabled() && !t.ops_enabled());
        assert_eq!(t.start(), 0, "no per-operation clock reads");
        t.span(EventKind::Put, 1, 8, 0);
        t.instant(EventKind::CacheHit, 1, 8, 0);
        t.instant(EventKind::TaskSpawn, 1, 0, 0);
        t.instant(EventKind::Flush, 1, 5, 0);
        let a = t.am_send(1, 8).expect("spans ride the wire");
        let b = t.am_send(1, 8).unwrap();
        assert_eq!((a.origin(), b.origin()), (3, 3));
        assert_ne!(a.id, b.id);
        assert!(a.inject_ns > 0);
        let kinds: Vec<EventKind> = t.events().iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            [EventKind::Flush, EventKind::AmSend, EventKind::AmSend]
        );
        assert_eq!(t.events()[1].span, a.id);
        let m = t.metrics.snapshot();
        assert_eq!(m.batch_frames.count + m.msg_bytes.count, 0);
    }

    #[test]
    fn recv_joins_the_span_and_classifies_the_next_wait() {
        let (a, b) = (events_trace(16, true), events_trace(16, true));
        let begun = b.wait_begin();
        let span = a.am_send(1, 0).unwrap();
        b.instant(
            EventKind::AmRecv,
            span.origin() as i32,
            span.inject_ns,
            span.id,
        );
        // Injected after the wait began and joined during it: late sender.
        let dur = b.wait_end(WaitConstruct::EventWait, begun, 0);
        let w = b.waits.snapshot();
        assert_eq!(
            w.cell(WaitConstruct::EventWait, WaitState::LateSender)
                .count,
            1
        );
        assert_eq!(w.total_ns(), dur);
        let evs = b.events();
        assert_eq!(
            (evs[0].kind, evs[0].span, evs[0].peer),
            (EventKind::AmRecv, span.id, 3)
        );
        assert_eq!((evs[1].kind, evs[1].dur_ns), (EventKind::Wait, dur));
        assert_eq!(
            waitstate::unpack_wait(evs[1].a),
            Some((WaitConstruct::EventWait, WaitState::LateSender))
        );
        // Nothing joined, something retransmitted: a stall.
        b.wait_end(WaitConstruct::Barrier, b.wait_begin(), 2);
        let w = b.waits.snapshot();
        assert_eq!(
            w.cell(WaitConstruct::Barrier, WaitState::RetransmitStall)
                .count,
            1
        );
    }

    #[test]
    fn barrier_exits_add_up() {
        let t = RankTrace::new(0, &TraceConfig::off(), true);
        t.instant(EventKind::BarrierExit, -1, 100, 0);
        t.instant(EventKind::BarrierExit, -1, 50, 0);
        assert_eq!(t.stream().barrier_total_ns, 150);
        assert_eq!(t.events().len(), 2);
    }

    #[test]
    fn config_parsing_variants() {
        // from_env reads process-global env; exercise the parser via the
        // pure pieces instead of mutating the environment in tests.
        assert!(!TraceConfig::off().is_enabled());
        assert!(TraceConfig::metrics().is_enabled());
        let c = TraceConfig::events()
            .with_path("x.json")
            .with_ring_capacity(99);
        assert_eq!(c.mode, TraceMode::Events);
        assert_eq!(c.path(), "x.json");
        assert_eq!(TraceConfig::events().path(), DEFAULT_TRACE_PATH);
    }

    #[test]
    fn view_paths_number_jobs_and_tag_ranks() {
        assert_eq!(view_path("x.json", 0, None), "x.json");
        assert_eq!(view_path("x.json", 2, None), "x.2.json");
        assert_eq!(view_path("x.json", 0, Some(1)), "x.r1.json");
        assert_eq!(view_path("x.json", 2, Some(1)), "x.2.r1.json");
        assert_eq!(view_path("trace", 1, Some(0)), "trace.1.r0");
    }

    #[test]
    fn pure_parser_accepts_and_rejects() {
        assert!(TraceConfig::parse("off").unwrap().is_none());
        assert!(TraceConfig::parse("").unwrap().is_none());
        let e = TraceConfig::parse("events,t.json").unwrap().unwrap();
        assert_eq!(e.mode, TraceMode::Events);
        assert_eq!(e.path.as_deref(), Some("t.json"));
        let m = TraceConfig::parse("metrics").unwrap().unwrap();
        assert_eq!(m.mode, TraceMode::Metrics);
        assert!(TraceConfig::parse("eventz").is_err());
        assert!(TraceConfig::parse("events,").is_err());
        assert!(TraceConfig::parse("off,x.json").is_err());
    }
}
