//! `ledger run`: the end-to-end pass, with every tracing feature off —
//! and the benchmark driver's `--trace 0` run, which is the same
//! measurement for one workload sized by `--seconds`.

use crate::host;
use crate::json::Value;
use crate::launch;
use crate::metrics::END_TO_END;
use crate::stats;
use crate::workloads::{ChildPlan, RepPlan, COLOCATED_LINK_NS, WORKLOADS};
use std::path::{Path, PathBuf};

/// Rounds × timed reps per child of a full and a quick run. A workload's
/// launches differ from one another by more than the reps within one do
/// (physical pages, address-space layout, how the two ranks' loops lock
/// step), so the 45 reps of a full run are spread over 9 launches.
const FULL: (usize, usize) = (9, 5);
const QUICK: (usize, usize) = (1, 5);
/// Child launches of one driver run; `setup_s` is their median.
const DRIVER_LAUNCHES: usize = 10;
/// Noise re-runs allowed within one driver run.
const DRIVER_MAX_RERUNS: usize = 2;
/// A budgeted child runs at least this many timed reps.
const DRIVER_MIN_REPS: usize = 3;
/// Timings come from the reps (launches, for `setup_s`) whose ranks sat on
/// cores of their own when at least this many did; a run that spent
/// nearly all its time with both ranks on one core reports all of them.
const MIN_APART_REPS: usize = 5;
const MIN_APART_LAUNCHES: usize = 3;

/// Whether a core-link probe found the two ranks on cores of their own.
/// 0 stands for "not probed" (rank 1's side, or a file from before the
/// probe) and passes.
fn apart(link_ns: f64) -> bool {
    link_ns == 0.0 || link_ns >= COLOCATED_LINK_NS
}

/// One reported number.
#[derive(Clone, Debug)]
pub struct Row {
    pub metric: String,
    pub workload: String,
    pub value: f64,
    pub unit: String,
    /// Estimated run-to-run spread of `value`, as a percentage of it
    /// (see `timing_spread_pct`; for counts, the range of the per-launch
    /// values over the square root of the number of launches). `compare`
    /// calls a row unresolved when this exceeds the metric's bound.
    pub spread_pct: f64,
    /// Samples behind `value`.
    pub n: usize,
}

impl Row {
    pub fn to_json(&self) -> Value {
        Value::obj([
            ("metric", Value::Str(self.metric.clone())),
            ("workload", Value::Str(self.workload.clone())),
            ("value", Value::Num(self.value)),
            ("unit", Value::Str(self.unit.clone())),
            ("spread_pct", Value::Num(self.spread_pct)),
            ("n", Value::Num(self.n as f64)),
        ])
    }

    /// `name workload value unit`, the one line per metric every
    /// subcommand prints.
    pub fn print(&self) {
        println!(
            "{} {} {} {}",
            self.metric, self.workload, self.value, self.unit
        );
    }
}

/// Launch one child; if its calibration drifted (a noisy neighbour), run
/// it once more. Returns every run made, the superseded one marked.
pub fn launch_guarded(
    workload: &str,
    seed: u64,
    launch: u64,
    plan: ChildPlan,
    spans: Option<usize>,
) -> Vec<Value> {
    let first = launch::run_workload(workload, seed, launch, plan, spans);
    if first.str_or_empty("status") != "noisy" {
        return vec![first];
    }
    // The re-run gets inputs of its own (launch numbers of first runs
    // stay below 1000).
    let second = launch::run_workload(workload, seed, launch + 1000, plan, spans);
    let first = if second.str_or_empty("status") == "ok" {
        // The clean re-run replaces the noisy run in every median; the
        // noisy one stays in the file as a run that was made.
        let Value::Obj(mut pairs) = first else {
            unreachable!("child results are objects")
        };
        pairs.push(("superseded".into(), Value::Bool(true)));
        Value::Obj(pairs)
    } else {
        first
    };
    vec![first, second]
}

/// Ops attempted and failed across `children` (every run made counts).
pub fn failure_counts(children: &[Value]) -> (u64, u64) {
    let (mut attempted, mut failed) = (0u64, 0u64);
    for c in children {
        let forfeited = c.num_or("forfeited_ops", 0.0) as u64;
        if forfeited > 0 {
            attempted += forfeited;
            failed += forfeited;
            continue;
        }
        let ops = c.num_or("ops_per_rep", 0.0) as u64;
        let flag = |key: &str| c.get(key).and_then(Value::as_bool).unwrap_or(false);
        let rep_ok = c.get("rep_ok").and_then(Value::as_arr).unwrap_or(&[]);
        // Staged reps are checked as a group.
        let staged = (c.nums_of("staged_off_s").len() + c.nums_of("staged_on_s").len()) as u64;
        attempted += ops * (1 + rep_ok.len() as u64 + staged);
        failed += ops * u64::from(!flag("warm_ok"));
        failed += ops * rep_ok.iter().filter(|v| v.as_bool() != Some(true)).count() as u64;
        failed += ops * staged * u64::from(!flag("staged_ok"));
    }
    (attempted, failed)
}

/// Estimated run-to-run spread, as a percentage, of the median of the
/// per-launch values `xs` (in launch order). Two things move a run's
/// median: launches differ from one another, which averages out as
/// IQR / sqrt(launches); and the shared host drifts over minutes, which
/// does not average out at all — the gap between the medians of the
/// run's own first and second half of launches stands in for that.
fn timing_spread_pct(xs: &[f64]) -> f64 {
    let (first, second) = xs.split_at(xs.len() / 2);
    let all = stats::median(xs);
    let drift = if first.is_empty() || all == 0.0 {
        0.0
    } else {
        (stats::median(first) - stats::median(second)).abs() / all * 100.0
    };
    (stats::iqr_pct(xs) / (xs.len().max(1) as f64).sqrt()).max(drift)
}

/// The end-to-end rows of one workload from all of its child runs.
pub fn summarize(workload: &str, children: &[Value]) -> Vec<Row> {
    // Children that delivered numbers and were not replaced by a re-run.
    let counted: Vec<&Value> = children
        .iter()
        .filter(|c| matches!(c.str_or_empty("status"), "ok" | "noisy"))
        .filter(|c| c.get("superseded").is_none())
        .collect();
    // Timed samples twice over: every good one, and the ones taken with
    // the ranks on cores of their own (see `COLOCATED_LINK_NS`).
    let (mut rep_s, mut rep_s_apart) = (Vec::new(), Vec::new());
    let (mut launch_median_s, mut launch_median_s_apart) = (Vec::new(), Vec::new());
    let (mut setup, mut setup_apart) = (Vec::new(), Vec::new());
    let (mut rep_alloc, mut launch_alloc) = (Vec::new(), Vec::new());
    let (mut msgs, mut bytes) = (Vec::new(), Vec::new());
    let mut rss = Vec::new();
    let mut ops_per_rep = 0.0;
    for c in &counted {
        ops_per_rep = c.num_or("ops_per_rep", 0.0);
        let secs = c.nums_of("rep_s");
        let oks = c.get("rep_ok").and_then(Value::as_arr).unwrap_or(&[]);
        let links = c.nums_of("rep_link_ns");
        // A rep whose output check failed is a failed op, not a sample.
        let good: Vec<(f64, bool)> = secs
            .iter()
            .zip(oks)
            .enumerate()
            .filter(|(_, (_, ok))| ok.as_bool() == Some(true))
            .map(|(i, (s, _))| (*s, apart(links.get(i).copied().unwrap_or(0.0))))
            .collect();
        let all: Vec<f64> = good.iter().map(|(s, _)| *s).collect();
        let on_own_cores: Vec<f64> = good.iter().filter(|(_, a)| *a).map(|(s, _)| *s).collect();
        if !on_own_cores.is_empty() {
            launch_median_s_apart.push(stats::median(&on_own_cores));
        }
        launch_median_s.push(stats::median(&all));
        rep_s_apart.extend(on_own_cores);
        rep_s.extend(all);
        let per_op: Vec<f64> = c
            .nums_of("rep_alloc_bytes")
            .iter()
            .map(|b| b / ops_per_rep)
            .collect();
        launch_alloc.push(stats::median(&per_op));
        rep_alloc.extend(per_op);
        let child_ops = ops_per_rep * secs.len() as f64;
        msgs.push(c.num_or("wire_msgs", 0.0) / child_ops);
        bytes.push(c.num_or("wire_bytes", 0.0) / child_ops);
        setup.push(c.num_or("setup_s", 0.0));
        if apart(c.num_or("setup_link_ns", 0.0)) {
            setup_apart.push(c.num_or("setup_s", 0.0));
        }
        rss.push(c.num_or("peak_rss_kib", 0.0) / 1024.0);
    }
    if rep_s_apart.len() >= MIN_APART_REPS {
        (rep_s, launch_median_s) = (rep_s_apart, launch_median_s_apart);
    }
    if setup_apart.len() >= MIN_APART_LAUNCHES {
        setup = setup_apart;
    }
    let (attempted, failed) = failure_counts(children);
    // A count pooled over k launches moves about 1/sqrt(k) as much from
    // run to run as a single launch does from launch to launch.
    let launches = (counted.len().max(1) as f64).sqrt();
    let count_spread = |xs: &[f64]| stats::range_pct(xs) / launches;
    let values = [
        (
            ops_per_rep / stats::median(&rep_s),
            if launch_median_s.len() >= 2 {
                timing_spread_pct(&launch_median_s)
            } else {
                // One launch (`--quick`): its reps have to stand in.
                stats::iqr_pct(&rep_s) / (rep_s.len().max(1) as f64).sqrt()
            },
            rep_s.len(),
        ),
        (
            stats::median(&setup),
            timing_spread_pct(&setup),
            setup.len(),
        ),
        (stats::median(&msgs), count_spread(&msgs), msgs.len()),
        (stats::median(&bytes), count_spread(&bytes), bytes.len()),
        // The median rep, not the mean: one stray reallocation in one
        // rep is not what the workload allocates per op.
        (
            stats::median(&rep_alloc),
            count_spread(&launch_alloc),
            rep_alloc.len(),
        ),
        // The median launch, not the largest: the largest of n launches
        // creeps up with n, and a driver run has twice a full run's.
        (stats::median(&rss), count_spread(&rss), rss.len()),
        (failed as f64 / attempted.max(1) as f64, 0.0, children.len()),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(def, (value, spread_pct, n))| Row {
            metric: def.name.into(),
            workload: workload.to_string(),
            value: if value.is_finite() { value } else { 0.0 },
            unit: def.unit.into(),
            spread_pct,
            n,
        })
        .collect()
}

/// Harness diagnostics of one workload (`bench.*`) from its child runs.
pub fn rep_diagnostics(workload: &str, children: &[Value]) -> Vec<Row> {
    let rep_ms: Vec<f64> = children
        .iter()
        .filter(|c| c.get("superseded").is_none())
        .flat_map(|c| c.nums_of("rep_s"))
        .map(|s| s * 1e3)
        .collect();
    let drift = children
        .iter()
        .map(|c| c.num_or("calib_drift_pct", 0.0))
        .fold(0.0, f64::max);
    let link_ns: Vec<f64> = children
        .iter()
        .filter(|c| c.get("superseded").is_none())
        .flat_map(|c| c.nums_of("rep_link_ns"))
        .collect();
    let colocated = link_ns.iter().filter(|l| !apart(**l)).count();
    let row = |metric: &str, value, unit: &str| Row {
        metric: metric.into(),
        workload: workload.to_string(),
        value,
        unit: unit.into(),
        spread_pct: 0.0,
        n: rep_ms.len(),
    };
    vec![
        row("bench.rep_ms_p50", stats::median(&rep_ms), "ms"),
        row("bench.rep_ms_p75", stats::percentile(&rep_ms, 75.0), "ms"),
        row("bench.rep_iqr_pct", stats::iqr_pct(&rep_ms), "%"),
        row("bench.calib_drift_pct", drift, "%"),
        row("bench.core_link_ns", stats::median(&link_ns), "ns"),
        row(
            "bench.colocated_rep_pct",
            colocated as f64 / link_ns.len().max(1) as f64 * 100.0,
            "%",
        ),
    ]
}

/// Where a result file goes unless `--out` says otherwise.
pub fn default_out(stem: &str) -> PathBuf {
    host::out_dir().join(format!("{stem}.json"))
}

/// Write `doc` to `path`, creating the directory.
pub fn write_result(path: &Path, doc: &Value) {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
    }
    std::fs::write(path, doc.to_pretty())
        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("[written {}]", path.display());
}

/// The result document shared by `run` and `layers`.
pub fn result_doc(kind: &str, seed: u64, quick: bool, rows: &[Row], children: Vec<Value>) -> Value {
    // Ranks sharing a core run a different experiment (no line ever
    // crosses cores), so whether every child pinned its ranks is part of
    // what a file measured; `compare` refuses files that differ in it.
    let pinned = children
        .iter()
        .filter_map(|c| c.get("pinned"))
        .all(|p| p.as_bool() == Some(true));
    Value::obj([
        ("ledger", Value::Str(kind.into())),
        ("seed", Value::Num(seed as f64)),
        ("quick", Value::Bool(quick)),
        ("pinned", Value::Bool(pinned)),
        ("host", host::describe()),
        ("rows", Value::Arr(rows.iter().map(Row::to_json).collect())),
        ("children", Value::Arr(children)),
    ])
}

/// `ledger run [--seed N] [--quick] [--out PATH]`. Returns the exit code:
/// non-zero when any op failed anywhere.
pub fn run(seed: u64, quick: bool, out: Option<PathBuf>) -> i32 {
    let (rounds, reps) = if quick { QUICK } else { FULL };
    let plan = ChildPlan {
        reps: RepPlan::fixed(reps),
        staged: 0,
    };
    let mut children: Vec<Vec<Value>> = vec![Vec::new(); WORKLOADS.len()];
    // Rounds interleave the workloads, so a multi-second noise burst on a
    // shared host cannot sit on one workload's whole sample.
    for round in 0..rounds {
        for (slot, (name, _)) in children.iter_mut().zip(WORKLOADS) {
            eprintln!("[round {}/{rounds}] {name}", round + 1);
            slot.extend(launch_guarded(name, seed, round as u64, plan, None));
        }
    }
    let mut rows = Vec::new();
    for (runs, (name, _)) in children.iter().zip(WORKLOADS) {
        rows.extend(summarize(name, runs));
        rows.extend(rep_diagnostics(name, runs));
    }
    rows.iter().for_each(Row::print);
    if stats::highest_supported_percentile(rounds * reps).is_none_or(|p| p < 75.0) {
        eprintln!(
            "note: {} reps per workload leave fewer than ten samples beyond bench.rep_ms_p75",
            rounds * reps
        );
    }
    let failed = rows
        .iter()
        .any(|r| r.metric == "failed_ops" && r.value > 0.0);
    let doc = result_doc(
        "run",
        seed,
        quick,
        &rows,
        children.into_iter().flatten().collect(),
    );
    write_result(&out.unwrap_or_else(|| default_out("run")), &doc);
    if failed {
        eprintln!("ledger run: failed_ops > 0");
    }
    i32::from(failed)
}

/// The driver's `--trace 0` run of one workload: `DRIVER_LAUNCHES` child
/// launches sharing `seconds` of measuring, medians over all of their
/// reps. Returns the rows, every child run made, and ops attempted/failed.
pub fn driver_run(workload: &str, seed: u64, seconds: u64) -> (Vec<Row>, Vec<Value>, u64, u64) {
    let plan = ChildPlan {
        reps: RepPlan {
            min: DRIVER_MIN_REPS,
            budget_ms: seconds * 1000 / DRIVER_LAUNCHES as u64,
        },
        staged: 0,
    };
    let mut children: Vec<Value> = Vec::new();
    for launch in 0..DRIVER_LAUNCHES as u64 {
        // The driver caps a run's wall time, so noise re-runs are capped
        // too: past the cap a noisy child simply counts.
        let reruns = children.len() - launch as usize;
        if reruns < DRIVER_MAX_RERUNS {
            children.extend(launch_guarded(workload, seed, launch, plan, None));
        } else {
            children.push(launch::run_workload(workload, seed, launch, plan, None));
        }
    }
    let rows = summarize(workload, &children);
    let (attempted, failed) = failure_counts(&children);
    (rows, children, attempted, failed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_spread_is_the_wider_of_launch_scatter_and_drift() {
        // Launches that scatter around one level: IQR / sqrt(launches).
        // statistics.quantiles([100, 104, 96, 102, 98, 100, 104, 96, 100], n=4)
        // is [97.0, 100.0, 103.0], so 6 % over sqrt(9), and the two halves
        // (median 99 and 100) sit 1 % apart.
        let steady = [100.0, 104.0, 96.0, 102.0, 98.0, 100.0, 104.0, 96.0, 100.0];
        assert!((timing_spread_pct(&steady) - 2.0).abs() < 1e-9);
        // A host that changed level half way: every launch agrees with its
        // neighbours, but the run's halves sit 30 % apart.
        let drifting = [100.0, 101.0, 100.0, 100.0, 130.0, 131.0, 130.0, 130.0];
        let spread = timing_spread_pct(&drifting);
        assert!((spread - 30.0 / 115.5 * 100.0).abs() < 1e-9, "{spread}");
        assert_eq!(timing_spread_pct(&[1.0]), 0.0);
        assert_eq!(timing_spread_pct(&[]), 0.0);
    }

    /// A child of `reps` good reps of one op each, and its link probes.
    fn child(rep_s: &[f64], rep_link_ns: &[f64], setup: (f64, f64)) -> Value {
        Value::obj([
            ("status", Value::Str("ok".into())),
            ("ops_per_rep", Value::Num(1.0)),
            ("warm_ok", Value::Bool(true)),
            ("rep_s", Value::nums(rep_s)),
            (
                "rep_ok",
                Value::Arr(rep_s.iter().map(|_| Value::Bool(true)).collect()),
            ),
            ("rep_link_ns", Value::nums(rep_link_ns)),
            ("setup_s", Value::Num(setup.0)),
            ("setup_link_ns", Value::Num(setup.1)),
        ])
    }

    #[test]
    fn timings_leave_out_reps_with_both_ranks_on_one_core() {
        let value =
            |rows: &[Row], metric: &str| rows.iter().find(|r| r.metric == metric).unwrap().value;
        // Three launches; the second ran with the ranks' CPUs sharing a
        // core (a 12 ns link) and four times as fast.
        let apart = [90.0, 80.0, 70.0];
        let children = [
            child(&[4.0, 4.0, 4.0], &apart, (2.0, 85.0)),
            child(
                &[1.0, 1.0, 1.0, 1.0],
                &[12.0, 12.0, 12.0, 12.0],
                (0.5, 12.0),
            ),
            child(&[4.0, 4.0, 4.0], &apart, (2.0, 85.0)),
            child(&[4.0, 4.0], &apart[..2], (2.0, 85.0)),
        ];
        let rows = summarize("tasks", &children);
        assert_eq!(value(&rows, "ops_per_s"), 0.25);
        assert_eq!(value(&rows, "setup_s"), 2.0);
        assert_eq!(rows[0].n, 8, "the four shared-core reps are not samples");
        let diag = rep_diagnostics("tasks", &children);
        assert_eq!(value(&diag, "bench.core_link_ns"), 75.0);
        assert_eq!(value(&diag, "bench.colocated_rep_pct"), 4.0 / 12.0 * 100.0);
        // With too few reps apart to stand on, every rep counts; so does
        // every rep of a file written before there was a probe.
        let rows = summarize("tasks", &children[..2]);
        assert_eq!(value(&rows, "ops_per_s"), 1.0);
        assert_eq!(value(&rows, "setup_s"), 1.25);
        let unprobed = child(&[1.0, 1.0, 1.0, 1.0, 1.0, 3.0], &[], (1.0, 0.0));
        assert_eq!(summarize("tasks", &[unprobed])[0].n, 6);
    }
}
