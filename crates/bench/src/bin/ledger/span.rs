//! The benchmark's own span recorder.
//!
//! Spans are recorded from the ledger's files, around the calls into each
//! layer's public functions — nothing inside the library is instrumented.
//! Each thread appends to its own preallocated `Vec` (no shared cache
//! line on the recording path); a thread hands its spans to the global
//! sink with [`flush`] when its work is done, and the process writes them
//! out once, at exit, as Chrome-trace JSON.
//!
//! Nesting is workload → rep → layer batch. A span's parent is the
//! innermost span open on the same thread, or — for a rank thread's
//! outermost spans — the span adopted with [`adopt`] from the thread that
//! launched the job. A span's *self time* is its duration minus the part
//! of that interval its children cover ([`self_times`]).

use rupcxx_trace::clock::now_ns;
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Mutex;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Unique within the process (thread index in the high bits).
    pub id: u32,
    /// Enclosing span, 0 for a root.
    pub parent: u32,
    pub workload: &'static str,
    /// Module the timed calls belong to (`net.fabric`, `runtime`, …).
    pub layer: &'static str,
    pub name: &'static str,
    /// On the trace layer's process-wide clock (`rupcxx_trace::clock`), so
    /// the spans line up with the library's own Chrome traces.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Calls (or native ops) the interval covers.
    pub ops: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The recording thread's index (the high bits of `id`).
    pub fn thread(&self) -> u32 {
        self.id >> LOCAL_BITS
    }

    /// Nanoseconds per op of this span.
    pub fn per_op_ns(&self) -> f64 {
        self.dur_ns() as f64 / self.ops.max(1) as f64
    }
}

/// Spans a thread can record before its buffer has to grow.
const THREAD_CAPACITY: usize = 4096;
/// Bits of a span id that count spans within one thread.
const LOCAL_BITS: u32 = 20;

struct Local {
    tid: u32,
    count: u32,
    spans: Vec<Span>,
    /// Indices into `spans` of the spans currently open, innermost last.
    open: Vec<usize>,
    workload: &'static str,
    /// Parent of this thread's outermost spans (see [`adopt`]).
    root: u32,
}

static ENABLED: AtomicBool = AtomicBool::new(true);
static NEXT_TID: AtomicU32 = AtomicU32::new(1);
static SINK: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static LOCAL: RefCell<Option<Local>> = const { RefCell::new(None) };
}

/// Turn recording on or off for the whole process. Off, [`enter`] costs
/// one relaxed load and reads no clock — the "untraced" side of
/// `bench.span_overhead_pct`.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

fn with_local<R>(f: impl FnOnce(&mut Local) -> R) -> R {
    LOCAL.with(|cell| {
        let mut slot = cell.borrow_mut();
        let local = slot.get_or_insert_with(|| Local {
            tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
            count: 0,
            spans: Vec::with_capacity(THREAD_CAPACITY),
            open: Vec::with_capacity(8),
            workload: "-",
            root: 0,
        });
        f(local)
    })
}

/// Make `parent` (a span open on another thread) the parent of this
/// thread's outermost spans, and label them with `workload`.
pub fn adopt(workload: &'static str, parent: u32) {
    with_local(|l| {
        l.workload = workload;
        l.root = parent;
    });
}

/// Id of the innermost span open on this thread (0 if none).
pub fn current() -> u32 {
    with_local(|l| l.open.last().map_or(l.root, |&i| l.spans[i].id))
}

/// An open span; closes (stamps `end_ns`) on drop.
#[must_use = "a span closes when its guard drops"]
pub struct Guard {
    /// Index into the thread's span buffer; `None` when recording is off.
    idx: Option<usize>,
}

/// Open a span on this thread.
#[inline]
pub fn enter(layer: &'static str, name: &'static str, ops: u64) -> Guard {
    if !ENABLED.load(Ordering::Relaxed) {
        return Guard { idx: None };
    }
    let idx = with_local(|l| {
        l.count += 1;
        debug_assert!(
            l.count < 1 << LOCAL_BITS,
            "span ids of one thread exhausted"
        );
        let parent = l.open.last().map_or(l.root, |&i| l.spans[i].id);
        let idx = l.spans.len();
        l.spans.push(Span {
            id: (l.tid << LOCAL_BITS) | l.count,
            parent,
            workload: l.workload,
            layer,
            name,
            start_ns: 0,
            end_ns: 0,
            ops,
        });
        l.open.push(idx);
        idx
    });
    // Clock read last, so the bookkeeping above is outside the interval.
    let t = now_ns();
    with_local(|l| l.spans[idx].start_ns = t);
    Guard { idx: Some(idx) }
}

impl Drop for Guard {
    #[inline]
    fn drop(&mut self) {
        let Some(idx) = self.idx else { return };
        let t = now_ns();
        with_local(|l| {
            l.spans[idx].end_ns = t;
            let top = l.open.pop();
            debug_assert_eq!(top, Some(idx), "spans must close innermost first");
        });
    }
}

/// Run `f` inside a span.
#[inline]
pub fn scope<R>(layer: &'static str, name: &'static str, ops: u64, f: impl FnOnce() -> R) -> R {
    let _g = enter(layer, name, ops);
    f()
}

/// Hand this thread's closed spans to the global sink. Call at the end of
/// a rank closure (threads of an SPMD job end with it) and before
/// [`take_all`] on the main thread.
pub fn flush() {
    let spans = with_local(|l| {
        debug_assert!(l.open.is_empty(), "flush with spans still open");
        std::mem::replace(&mut l.spans, Vec::with_capacity(THREAD_CAPACITY))
    });
    if !spans.is_empty() {
        SINK.lock().expect("span sink poisoned").extend(spans);
    }
}

/// Flush the calling thread and take everything recorded so far.
pub fn take_all() -> Vec<Span> {
    flush();
    std::mem::take(&mut *SINK.lock().expect("span sink poisoned"))
}

/// Self time of every span: its duration minus the union of the
/// intervals its direct children cover (clipped to the span itself, so
/// overlapping children on different threads are not counted twice).
pub fn self_times(spans: &[Span]) -> HashMap<u32, u64> {
    let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cursor = s.start_ns;
                for &(a, b) in kids.iter() {
                    let a = a.clamp(cursor, s.end_ns);
                    let b = b.clamp(cursor, s.end_ns);
                    covered += b - a;
                    cursor = cursor.max(b);
                }
            }
            (s.id, s.dur_ns() - covered)
        })
        .collect()
}

/// Per-op nanoseconds of every span named `(layer, name)`, in recording
/// order per thread.
pub fn per_op_ns(spans: &[Span], layer: &str, name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.layer == layer && s.name == name)
        .map(Span::per_op_ns)
        .collect()
}

/// Chrome `trace_event` lines (one complete-event object per span, no
/// enclosing array) for process `pid`. Parent, workload, ops and self
/// time ride in `args`.
pub fn chrome_events(spans: &[Span], pid: u32) -> Vec<String> {
    let selfs = self_times(spans);
    spans
        .iter()
        .map(|s| {
            let mut line = String::new();
            let _ = write!(
                line,
                "{{\"name\":\"{}.{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":{pid},\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\
                 \"workload\":\"{}\",\"ops\":{},\"self_ns\":{}}}}}",
                s.layer,
                s.name,
                s.layer,
                s.thread(),
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.id,
                s.parent,
                s.workload,
                s.ops,
                selfs[&s.id],
            );
            line
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            workload: "t",
            layer: "l",
            name: "n",
            start_ns,
            end_ns,
            ops: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span(1, 0, 0, 100),   // root
            span(2, 1, 10, 30),   // child, 20
            span(3, 1, 50, 90),   // child, 40
            span(4, 3, 60, 70),   // grandchild, 10
            span(5, 0, 200, 250), // second root, no children
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 100 - 20 - 40);
        assert_eq!(st[&2], 20);
        assert_eq!(st[&3], 40 - 10);
        assert_eq!(st[&4], 10);
        assert_eq!(st[&5], 50);
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped() {
        // Two rank threads' spans under one rep overlap in time; a child
        // may also stick out of its parent by a clock read.
        let spans = [
            span(1, 0, 100, 200),
            span(2, 1, 110, 160),
            span(3, 1, 140, 190), // overlaps span 2 by 20
            span(4, 1, 195, 230), // sticks out past the parent's end
        ];
        let st = self_times(&spans);
        // Covered: [110,190) = 80, plus [195,200) = 5.
        assert_eq!(st[&1], 100 - 85);
    }

    #[test]
    fn recording_nests_under_the_adopted_root() {
        // Runs on its own thread: the recorder is thread-local, and other
        // tests in this binary may record concurrently into the sink.
        std::thread::spawn(|| {
            adopt("unit", 77);
            let outer_id;
            {
                let _outer = enter("layer.a", "outer", 2);
                outer_id = current();
                scope("layer.b", "inner", 5, || std::hint::black_box(1 + 1));
            }
            let mine: Vec<Span> = with_local(|l| l.spans.clone());
            assert_eq!(mine.len(), 2);
            assert_eq!(
                mine[0].parent, 77,
                "outermost span hangs off the adopted root"
            );
            assert_eq!(mine[0].id, outer_id);
            assert_eq!(mine[1].parent, outer_id);
            assert_eq!(mine[1].workload, "unit");
            assert!(mine[0].start_ns <= mine[1].start_ns && mine[1].end_ns <= mine[0].end_ns);
            assert_eq!(per_op_ns(&mine, "layer.b", "inner").len(), 1);
            let events = chrome_events(&mine, 3);
            assert!(events[1].contains("\"name\":\"layer.b.inner\""));
            assert!(events[1].contains(&format!("\"parent\":{outer_id}")));
            with_local(|l| l.spans.clear());
        })
        .join()
        .unwrap();
    }
}
