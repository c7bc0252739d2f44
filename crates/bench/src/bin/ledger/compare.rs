//! `ledger compare A.json B.json`: do two result files agree?
//!
//! One row per (end-to-end metric, workload), judged against the bounds
//! in `metrics.rs`: `same`, `worse`, `better`, or `unresolved` when the
//! run-to-run spread is wider than the bound (a difference inside that
//! spread proves nothing either way). Files from hosts or settings that
//! differ — cores, CPU model, seed, `quick`, whether ranks were pinned —
//! are refused outright instead of passing vacuously.

use crate::json::{self, Value};
use crate::metrics::{self, MetricDef};
use std::path::Path;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Worse,
    Better,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge `candidate` against `baseline`. `spread_pct` is the wider of the
/// two files' run-to-run spreads for this row, as a percentage of the
/// value.
pub fn verdict(def: &MetricDef, baseline: f64, candidate: f64, spread_pct: f64) -> Verdict {
    let allowance = def.allowance(baseline);
    if spread_pct / 100.0 * baseline.abs() > allowance {
        return Verdict::Unresolved;
    }
    let worsening = def.worsening(baseline, candidate);
    if worsening > allowance {
        Verdict::Worse
    } else if worsening < -allowance {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// Why these two files must not gate each other, if they must not.
pub fn refusal(a: &Value, b: &Value) -> Option<String> {
    let host = |doc: &Value, key: &str| -> Value {
        doc.get("host")
            .and_then(|h| h.get(key))
            .cloned()
            .unwrap_or(Value::Null)
    };
    for doc in [a, b] {
        if host(doc, "undersized") != Value::Bool(false) {
            return Some(
                "a file comes from a host with fewer than 2 cores (undersized): it never gates"
                    .into(),
            );
        }
    }
    for key in ["nproc", "cpu_model"] {
        let (x, y) = (host(a, key), host(b, key));
        if x != y {
            return Some(format!(
                "host {key} differs: {} vs {}",
                x.to_line(),
                y.to_line()
            ));
        }
    }
    for key in ["ledger", "seed", "quick", "pinned"] {
        let (x, y) = (a.get(key), b.get(key));
        if x.is_none() || x != y {
            return Some(format!(
                "{key} differs: {} vs {}",
                x.map_or("missing".into(), Value::to_line),
                y.map_or("missing".into(), Value::to_line)
            ));
        }
    }
    None
}

struct Cell {
    value: f64,
    spread_pct: f64,
}

fn cell(doc: &Value, metric: &str, workload: &str) -> Option<Cell> {
    doc.get("rows")?.as_arr()?.iter().find_map(|r| {
        (r.str_or_empty("metric") == metric && r.str_or_empty("workload") == workload).then(|| {
            Cell {
                value: r.num_or("value", f64::NAN),
                spread_pct: r.num_or("spread_pct", 0.0),
            }
        })
    })
}

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Compare two `ledger run` result files; `a` is the baseline. Exit code
/// 0 = every row same or better, 1 = some row worse or unresolved,
/// 2 = refused (or unreadable).
pub fn compare_files(a: &Path, b: &Path) -> i32 {
    let (a, b) = match (load(a), load(b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("ledger compare: {e}");
            return 2;
        }
    };
    if let Some(why) = refusal(&a, &b) {
        eprintln!("ledger compare: refusing to gate: {why}");
        return 2;
    }
    let mut bad = 0;
    println!("verdict metric workload baseline candidate change_pct allowed_pct");
    for (workload, _) in crate::workloads::WORKLOADS {
        for def in &metrics::END_TO_END {
            let (Some(x), Some(y)) = (cell(&a, def.name, workload), cell(&b, def.name, workload))
            else {
                println!("unresolved {} {workload} missing missing - -", def.name);
                bad += 1;
                continue;
            };
            let v = verdict(def, x.value, y.value, x.spread_pct.max(y.spread_pct));
            bad += i32::from(matches!(v, Verdict::Worse | Verdict::Unresolved));
            let pct = |d: f64| {
                if x.value == 0.0 {
                    0.0
                } else {
                    d / x.value.abs() * 100.0
                }
            };
            println!(
                "{} {} {workload} {} {} {:+.2} {:.2}",
                v.label(),
                def.name,
                x.value,
                y.value,
                pct(y.value - x.value),
                pct(def.allowance(x.value)),
            );
        }
    }
    i32::from(bad > 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::end_to_end;

    #[test]
    fn verdicts_follow_direction_and_bound() {
        let ops = end_to_end("ops_per_s").unwrap(); // higher is better, 25 %
        assert_eq!(verdict(ops, 100.0, 90.0, 5.0), Verdict::Same);
        assert_eq!(verdict(ops, 100.0, 74.0, 5.0), Verdict::Worse);
        assert_eq!(verdict(ops, 100.0, 126.0, 5.0), Verdict::Better);
        assert_eq!(verdict(ops, 100.0, 110.0, 5.0), Verdict::Same);
        // Spread wider than the bound: nothing can be concluded.
        assert_eq!(verdict(ops, 100.0, 50.0, 30.0), Verdict::Unresolved);
        assert_eq!(verdict(ops, 100.0, 100.0, 25.5), Verdict::Unresolved);

        let setup = end_to_end("setup_s").unwrap(); // lower is better, 25 %
        assert_eq!(verdict(setup, 1.0, 1.24, 5.0), Verdict::Same);
        assert_eq!(verdict(setup, 1.0, 1.26, 5.0), Verdict::Worse);
        assert_eq!(verdict(setup, 1.0, 0.7, 5.0), Verdict::Better);

        let rss = end_to_end("peak_rss_mib").unwrap(); // lower is better, 10 %
        assert_eq!(verdict(rss, 100.0, 109.0, 2.0), Verdict::Same);
        assert_eq!(verdict(rss, 100.0, 111.0, 2.0), Verdict::Worse);
        assert_eq!(verdict(rss, 100.0, 111.0, 10.5), Verdict::Unresolved);
    }

    #[test]
    fn absolute_allowance_and_zero_bound() {
        // 5 % + 0.5 B: near-zero allocation may not flap on a few bytes.
        let alloc = end_to_end("alloc_bytes_per_op").unwrap();
        assert_eq!(verdict(alloc, 0.001, 0.4, 50.0), Verdict::Same);
        assert_eq!(verdict(alloc, 0.001, 0.6, 0.0), Verdict::Worse);
        assert_eq!(verdict(alloc, 100.0, 105.4, 0.0), Verdict::Same);
        assert_eq!(verdict(alloc, 100.0, 105.6, 0.0), Verdict::Worse);
        // failed_ops has bound 0: any failure is worse.
        let failed = end_to_end("failed_ops").unwrap();
        assert_eq!(verdict(failed, 0.0, 0.0, 0.0), Verdict::Same);
        assert_eq!(verdict(failed, 0.0, 1e-9, 0.0), Verdict::Worse);
    }

    fn doc(nproc: f64, cpu: &str, seed: f64, quick: bool) -> Value {
        Value::obj([
            ("ledger", Value::Str("run".into())),
            ("seed", Value::Num(seed)),
            ("quick", Value::Bool(quick)),
            ("pinned", Value::Bool(true)),
            (
                "host",
                Value::obj([
                    ("nproc", Value::Num(nproc)),
                    ("cpu_model", Value::Str(cpu.into())),
                    ("undersized", Value::Bool(nproc < 2.0)),
                ]),
            ),
        ])
    }

    #[test]
    fn refuses_to_gate_across_hosts_seeds_and_modes() {
        let base = doc(2.0, "Xeon", 1.0, false);
        assert_eq!(refusal(&base, &doc(2.0, "Xeon", 1.0, false)), None);
        assert!(refusal(&base, &doc(4.0, "Xeon", 1.0, false))
            .unwrap()
            .contains("nproc"));
        assert!(refusal(&base, &doc(2.0, "EPYC", 1.0, false))
            .unwrap()
            .contains("cpu_model"));
        assert!(refusal(&base, &doc(2.0, "Xeon", 2.0, false))
            .unwrap()
            .contains("seed"));
        assert!(refusal(&base, &doc(2.0, "Xeon", 1.0, true))
            .unwrap()
            .contains("quick"));
        // Unpinned ranks may share a core: a different experiment.
        let Value::Obj(mut unpinned) = base.clone() else {
            unreachable!()
        };
        unpinned.retain(|(k, _)| k != "pinned");
        unpinned.push(("pinned".into(), Value::Bool(false)));
        assert!(refusal(&base, &Value::Obj(unpinned))
            .unwrap()
            .contains("pinned"));
        let tiny = doc(1.0, "Xeon", 1.0, false);
        assert!(refusal(&tiny, &tiny).unwrap().contains("undersized"));
        // A file without provenance never gates either.
        assert!(refusal(&base, &Value::obj([("seed", Value::Num(1.0))])).is_some());
    }
}
