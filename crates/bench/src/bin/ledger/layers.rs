//! `ledger layers`: the traced pass.
//!
//! One child runs every per-layer microbenchmark (`micro.rs`); then one
//! child per workload measures plain reps, replays the rep stage by
//! stage with the recorder off and on, and reconciles the stage spans
//! with the end-to-end figure (`chain.*`). Every number here is derived
//! from recorded spans; all spans of the pass end up in one Chrome-trace
//! file, `<target>/ledger/spans.json`.

use crate::host;
use crate::json::Value;
use crate::launch::{self, Exit};
use crate::micro;
use crate::run::{self, Row};
use crate::span::{self, Span};
use crate::stats;
use crate::workloads::{ChildPlan, RepPlan, WORKLOADS};
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Span batches per microbenchmark, plain reps and staged reps (each
/// of: recorder off, recorder on) per chain child.
struct Size {
    batches: usize,
    reps: usize,
    staged: usize,
}

const FULL: Size = Size {
    batches: 31,
    reps: 9,
    staged: 3,
};
const QUICK: Size = Size {
    batches: 7,
    reps: 3,
    staged: 1,
};

impl Size {
    /// The pass the driver's `--trace 1` run gets for `--seconds`: the
    /// full pass (some 30 s of wall time) from 20 s up, the quick one at
    /// 3 s, in between in step.
    fn for_seconds(seconds: u64) -> Size {
        let scale = |quick: usize, full: usize| {
            let s = seconds.clamp(3, 20) as usize - 3;
            quick + (full - quick) * s / 17
        };
        Size {
            batches: scale(QUICK.batches, FULL.batches),
            reps: scale(QUICK.reps, FULL.reps),
            staged: scale(QUICK.staged, FULL.staged),
        }
    }
}

/// The microbenchmark child gets longer than a workload child: it runs
/// some sixty measurements and four conduit meshes.
const MICRO_TIMEOUT: Duration = Duration::from_secs(150);

/// Where the stage spans of one staged rep went, per native op.
#[derive(Debug, PartialEq)]
pub struct Chain {
    /// Sum of the stage spans of a staged rep (slowest rank), median
    /// over the traced reps, nanoseconds per op of one rank.
    pub sum_ns: f64,
    /// Self time per stage (`layer.name`), mean over ranks and reps,
    /// nanoseconds per op of one rank; largest first.
    pub stages: Vec<(String, f64)>,
}

/// Reconcile the spans of a chain child. `None` when no staged rep was
/// recorded.
pub fn chain_of(spans: &[Span], ops_per_rank: f64) -> Option<Chain> {
    let is_rep = |s: &Span| s.layer == "bench" && s.name == "staged_rep";
    let parent_of: HashMap<u32, u32> = spans.iter().map(|s| (s.id, s.parent)).collect();
    let rep_ids: HashSet<u32> = spans.iter().filter(|s| is_rep(s)).map(|s| s.id).collect();
    if rep_ids.is_empty() {
        return None;
    }
    // Stage time directly under each rep, per recording thread in order.
    let mut direct: HashMap<u32, f64> = HashMap::new();
    for s in spans {
        if rep_ids.contains(&s.parent) {
            *direct.entry(s.parent).or_default() += s.dur_ns() as f64;
        }
    }
    let mut per_thread: HashMap<u32, Vec<f64>> = HashMap::new();
    for s in spans.iter().filter(|s| is_rep(s)) {
        per_thread
            .entry(s.thread())
            .or_default()
            .push(direct.get(&s.id).copied().unwrap_or(0.0));
    }
    let reps = per_thread.values().map(Vec::len).min().unwrap_or(0);
    let slowest: Vec<f64> = (0..reps)
        .map(|k| per_thread.values().map(|v| v[k]).fold(0.0, f64::max))
        .collect();

    // Self time of every span below a rep, by stage.
    let selfs = span::self_times(spans);
    let under_rep = |mut id: u32| {
        while let Some(&p) = parent_of.get(&id) {
            if rep_ids.contains(&p) {
                return true;
            }
            id = p;
        }
        false
    };
    let mut by_stage: HashMap<String, f64> = HashMap::new();
    for s in spans.iter().filter(|s| under_rep(s.id)) {
        *by_stage
            .entry(format!("{}.{}", s.layer, s.name))
            .or_default() += selfs[&s.id] as f64;
    }
    let rep_count = rep_ids.len() as f64;
    let mut stages: Vec<(String, f64)> = by_stage
        .into_iter()
        .map(|(k, ns)| (k, ns / rep_count / ops_per_rank))
        .collect();
    stages.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    Some(Chain {
        sum_ns: stats::median(&slowest) / ops_per_rank,
        stages,
    })
}

/// The `chain.*` members a chain child adds to its result line, from its
/// spans, its plain rep times and its staged rep times with the recorder
/// (off, on).
pub fn chain_members(
    spans: &[Span],
    ops_per_rank: f64,
    rep_s: &[f64],
    staged_s: (&[f64], &[f64]),
) -> Vec<(String, Value)> {
    let Some(chain) = chain_of(spans, ops_per_rank) else {
        return Vec::new();
    };
    let e2e_ns = stats::median(rep_s) * 1e9 / ops_per_rank;
    let (off, on) = (stats::median(staged_s.0), stats::median(staged_s.1));
    vec![
        ("chain_sum_ns".into(), Value::Num(chain.sum_ns)),
        ("chain_e2e_ns".into(), Value::Num(e2e_ns)),
        (
            "chain_residual_pct".into(),
            Value::Num((e2e_ns - chain.sum_ns) / e2e_ns * 100.0),
        ),
        (
            "span_overhead_pct".into(),
            Value::Num((on - off) / off * 100.0),
        ),
        (
            "stages".into(),
            Value::Arr(
                chain
                    .stages
                    .into_iter()
                    .map(|(name, ns)| {
                        Value::obj([("stage", Value::Str(name)), ("ns_per_op", Value::Num(ns))])
                    })
                    .collect(),
            ),
        ),
    ]
}

/// Where span part `i` of the running pass goes until the parent
/// stitches the parts together.
pub fn span_part_path(i: usize) -> PathBuf {
    host::out_dir().join(format!("spans.part{i}"))
}

/// Write a child's spans as Chrome-trace event lines (one JSON object
/// per line); the parent stitches the parts into one file.
pub fn write_span_part(path: &Path, spans: &[Span]) {
    let pid = std::process::id();
    let text = span::chrome_events(spans, pid).join("\n");
    if let Err(e) = std::fs::write(path, text) {
        eprintln!("ledger: cannot write {}: {e}", path.display());
    }
}

/// Stitch the children's span parts into `spans.json` and remove them.
fn merge_span_parts(parts: &[PathBuf], out: &Path) {
    let mut events: Vec<String> = Vec::new();
    for part in parts {
        if let Ok(text) = std::fs::read_to_string(part) {
            events.extend(text.lines().map(str::to_string));
        }
        let _ = std::fs::remove_file(part);
    }
    let doc = format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"));
    match std::fs::write(out, doc) {
        Ok(()) => println!("[written {} ({} spans)]", out.display(), events.len()),
        Err(e) => eprintln!("ledger: cannot write {}: {e}", out.display()),
    }
}

/// `ledger child-micro …`: run the microbenchmarks in this process
/// (internal; spawned by [`pass`]).
pub fn child_micro(seed: u64, batches: usize, spans_part: Option<&Path>) {
    let (rows, spans) = micro::run_all(micro::Pass { seed, batches });
    if let Some(path) = spans_part {
        write_span_part(path, &spans);
    }
    let line = Value::obj([("rows", Value::Arr(rows.iter().map(Row::to_json).collect()))]);
    println!("{}", line.to_line());
}

/// A row the microbenchmark child sent over its pipe.
fn row_from_json(r: &Value) -> Row {
    Row {
        metric: r.str_or_empty("metric").into(),
        workload: r.str_or_empty("workload").into(),
        value: r.num_or("value", f64::NAN),
        unit: r.str_or_empty("unit").into(),
        spread_pct: r.num_or("spread_pct", 0.0),
        n: r.num_or("n", 0.0) as usize,
    }
}

/// Everything one traced pass produced.
struct PassOut {
    rows: Vec<Row>,
    children: Vec<Value>,
}

fn pass(seed: u64, size: &Size) -> PassOut {
    let dir = host::out_dir();
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
    micro::clean_stale_scratch(&dir);
    let mut parts = vec![span_part_path(0)];
    let mut rows = Vec::new();
    let mut children = Vec::new();

    eprintln!("[layers] microbenchmarks");
    let args = [
        "child-micro".to_string(),
        "--seed".into(),
        seed.to_string(),
        "--batches".into(),
        size.batches.to_string(),
        "--spans".into(),
        span_part_path(0).display().to_string(),
    ];
    let sent = match launch::spawn_and_wait(&args, MICRO_TIMEOUT) {
        Exit::Done {
            success: true,
            stdout,
        } => launch::result_line(&stdout),
        _ => None,
    };
    match sent
        .as_ref()
        .and_then(|v| v.get("rows"))
        .and_then(Value::as_arr)
    {
        Some(sent) => rows.extend(sent.iter().map(row_from_json)),
        None => {
            eprintln!("ledger layers: the microbenchmark child died; its metrics are missing");
            // On record as a run that failed, so the pass cannot pass.
            children.push(Value::obj([
                ("workload", Value::Str("microbenchmarks".into())),
                ("status", Value::Str("crashed".into())),
                ("forfeited_ops", Value::Num(1.0)),
            ]));
        }
    }

    let plan = ChildPlan {
        reps: RepPlan::fixed(size.reps),
        staged: size.staged,
    };
    for (i, (name, _)) in WORKLOADS.iter().enumerate() {
        eprintln!("[layers] chain {name}");
        parts.push(span_part_path(i + 1));
        let runs = run::launch_guarded(name, seed, 0, plan, Some(i + 1));
        let last = runs.last().expect("at least one run");
        let chain_row = |metric: String, key: &str, unit: &str| Row {
            metric,
            workload: name.to_string(),
            value: last.num_or(key, f64::NAN),
            unit: unit.into(),
            spread_pct: 0.0,
            n: size.staged,
        };
        rows.push(chain_row(
            format!("chain.{name}.sum_ns"),
            "chain_sum_ns",
            "ns",
        ));
        rows.push(chain_row(
            format!("chain.{name}.residual_pct"),
            "chain_residual_pct",
            "%",
        ));
        rows.extend(run::rep_diagnostics(name, &runs));
        rows.push(chain_row(
            "bench.span_overhead_pct".into(),
            "span_overhead_pct",
            "%",
        ));
        children.extend(runs);
    }
    merge_span_parts(&parts, &dir.join("spans.json"));
    PassOut { rows, children }
}

/// Every per-layer metric of `BENCHMARK.json`, with its unit: the
/// microbenchmarks, the chain of every workload, and the harness
/// diagnostics (reported for the workload a driver run was asked for).
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut all = micro::metric_units();
    for (workload, _) in WORKLOADS {
        all.push((format!("chain.{workload}.sum_ns"), "ns"));
        all.push((format!("chain.{workload}.residual_pct"), "%"));
    }
    all.extend(
        [
            ("bench.rep_ms_p50", "ms"),
            ("bench.rep_ms_p75", "ms"),
            ("bench.rep_iqr_pct", "%"),
            ("bench.calib_drift_pct", "%"),
            ("bench.core_link_ns", "ns"),
            ("bench.colocated_rep_pct", "%"),
            ("bench.span_overhead_pct", "%"),
        ]
        .map(|(m, u)| (m.to_string(), u)),
    );
    all
}

fn print_stages(children: &[Value]) {
    for c in children.iter().filter(|c| c.get("superseded").is_none()) {
        let workload = c.str_or_empty("workload");
        for s in c.get("stages").and_then(Value::as_arr).unwrap_or(&[]) {
            println!(
                "chain.stage.{} {workload} {} ns",
                s.str_or_empty("stage"),
                s.num_or("ns_per_op", 0.0)
            );
        }
    }
}

/// `ledger layers [--seed N] [--quick] [--out PATH]`.
pub fn layers(seed: u64, quick: bool, out: Option<PathBuf>) -> i32 {
    let out_pass = pass(seed, if quick { &QUICK } else { &FULL });
    out_pass.rows.iter().for_each(Row::print);
    print_stages(&out_pass.children);
    let (_, failed) = run::failure_counts(&out_pass.children);
    let doc = run::result_doc("layers", seed, quick, &out_pass.rows, out_pass.children);
    run::write_result(&out.unwrap_or_else(|| run::default_out("layers")), &doc);
    i32::from(failed > 0)
}

/// The driver's `--trace 1` run: the whole traced pass (the per-layer
/// numbers do not depend on the workload), reporting the `bench.*`
/// diagnostics of `workload`. Sized by `seconds`.
pub fn driver_run(workload: &str, seed: u64, seconds: u64) -> (Vec<Row>, Vec<Value>, u64, u64) {
    let out = pass(seed, &Size::for_seconds(seconds));
    print_stages(&out.children);
    let (attempted, failed) = run::failure_counts(&out.children);
    let rows = out
        .rows
        .into_iter()
        .filter(|r| !r.metric.starts_with("bench.") || r.workload == workload)
        .collect();
    (rows, out.children, attempted, failed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, layer: &'static str, name: &'static str, t: (u64, u64)) -> Span {
        Span {
            id,
            parent,
            workload: "w",
            layer,
            name,
            start_ns: t.0,
            end_ns: t.1,
            ops: 1,
        }
    }

    #[test]
    fn chain_sums_stage_spans_of_the_slowest_rank() {
        let t1 = 1 << 20; // thread 1 ids
        let t2 = 2 << 20;
        let spans = [
            // Thread 1, one staged rep of 1000 ns: stages 300 + 500.
            span(t1 + 1, 0, "bench", "staged_rep", (0, 1000)),
            span(t1 + 2, t1 + 1, "apps", "rng", (0, 300)),
            span(t1 + 3, t1 + 1, "net.fabric", "xor_u64", (400, 900)),
            // Thread 2: stages 200 + 700, one of them with a nested span.
            span(t2 + 1, 0, "bench", "staged_rep", (0, 1000)),
            span(t2 + 2, t2 + 1, "apps", "rng", (0, 200)),
            span(t2 + 3, t2 + 1, "runtime", "finish", (250, 950)),
            span(t2 + 4, t2 + 3, "runtime", "send", (300, 400)),
            // A plain rep and its span do not count.
            span(t1 + 9, 0, "bench", "rep", (2000, 3000)),
            span(t1 + 10, t1 + 9, "runtime", "barrier", (2000, 2100)),
        ];
        let chain = chain_of(&spans, 100.0).unwrap();
        // Slowest rank: 200 + 700 = 900 ns over 100 ops.
        assert_eq!(chain.sum_ns, 9.0);
        let stage = |name: &str| chain.stages.iter().find(|(n, _)| n == name).unwrap().1;
        // Mean over the two reps (one per rank): (300 + 200) / 2 / 100.
        assert_eq!(stage("apps.rng"), 2.5);
        assert_eq!(stage("net.fabric.xor_u64"), 2.5);
        // Self time: the nested send is split out of finish.
        assert_eq!(stage("runtime.finish"), 3.0);
        assert_eq!(stage("runtime.send"), 0.5);
        assert!(!chain.stages.iter().any(|(n, _)| n == "runtime.barrier"));
        assert_eq!(chain.stages[0].0, "runtime.finish", "largest first");
        assert_eq!(chain_of(&spans[7..], 100.0), None);
    }

    #[test]
    fn per_layer_metric_table_is_within_the_driver_limits() {
        let all = per_layer_metrics();
        assert!(all.len() <= 128, "{} per-layer metrics", all.len());
        let mut names: Vec<_> = all.iter().map(|(m, _)| m.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "duplicate metric name");
        for (name, unit) in &all {
            assert!(name.len() <= 64 && unit.len() <= 16, "{name} {unit}");
        }
        // The names the issue fixed, spot-checked against the derivation.
        for name in [
            "core.upc_direct_xor_local_ns",
            "net.fabric.put_4k_gbps",
            "net.inbox.push_2p_mops",
            "net.reliable.am_ns_drop1pct",
            "net.conduit.tcp_send_1k_ns",
            "runtime.spmd_launch_ms",
            "ndarray.copy_face_elem_ns",
            "trace.prof_barrier_overhead_pct",
            "check.race_overhead_x",
            "chain.get_cached.residual_pct",
        ] {
            assert!(names.contains(&name), "{name} missing");
        }
    }
}
