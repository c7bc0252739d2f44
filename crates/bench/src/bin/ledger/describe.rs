//! `ledger describe`: print `BENCHMARK.json` from the tables in the code,
//! so the file the benchmark driver reads cannot drift from what the
//! ledger reports (a unit test compares the committed file with this).

use crate::json::Value;
use crate::layers;
use crate::metrics::{Better, END_TO_END};
use crate::workloads::WORKLOADS;

/// How the driver invokes the ledger, from the root of a checkout.
const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "crates/bench/src/bin/ledger/Cargo.toml",
    "--",
];
/// The one directory that holds the benchmark.
const PATH: &str = "crates/bench/src/bin/ledger";
/// Seconds one driver run measures (`--seconds`). A run takes about 3 s
/// more (process launches, noise re-runs), so the driver's 4 + 22 x 7 runs
/// and two builds stay inside its 3420 s.
const RUN_SECONDS: f64 = 15.0;

/// Which way a per-layer metric is better, from its name and unit.
fn per_layer_better(name: &str, unit: &str) -> Better {
    let higher = matches!(unit, "GB/s" | "Mops/s")
        || ["hit_rate", "goodput_ratio", "ops_per_batch"]
            .iter()
            .any(|k| name.contains(k));
    if higher {
        Better::Higher
    } else {
        Better::Lower
    }
}

/// The content of `BENCHMARK.json`.
pub fn benchmark_json() -> Value {
    let strings = |xs: &[&str]| Value::Arr(xs.iter().map(|s| Value::Str((*s).into())).collect());
    Value::obj([
        ("command", strings(&COMMAND)),
        ("paths", strings(&[PATH])),
        ("run_seconds", Value::Num(RUN_SECONDS)),
        (
            "workloads",
            Value::Arr(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| {
                        Value::obj([
                            ("name", Value::Str((*name).into())),
                            ("why", Value::Str((*why).into())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .filter(|m| m.in_benchmark_json)
                    .map(|m| {
                        Value::obj([
                            ("name", Value::Str(m.name.into())),
                            ("unit", Value::Str(m.unit.into())),
                            ("better", Value::Str(m.better.as_str().into())),
                            ("bound", Value::Num(m.rel_bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                layers::per_layer_metrics()
                    .into_iter()
                    .map(|(name, unit)| {
                        let better = per_layer_better(&name, unit).as_str();
                        Value::obj([
                            ("name", Value::Str(name)),
                            ("unit", Value::Str(unit.into())),
                            ("better", Value::Str(better.into())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    /// The repository root: the directory with `BENCHMARK.json`, some
    /// levels above whichever manifest this file is built under
    /// (`crates/bench` in one build, this directory in the other).
    fn repo_root() -> std::path::PathBuf {
        let mut dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        while !dir.join("BENCHMARK.json").exists() {
            assert!(dir.pop(), "no BENCHMARK.json above the manifest directory");
        }
        dir
    }

    #[test]
    fn committed_benchmark_json_is_what_describe_prints() {
        let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).unwrap();
        let committed = json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `ledger describe > BENCHMARK.json`"
        );
    }

    /// The lines of `[section]` in a manifest, comments and blanks dropped.
    fn section(manifest: &str, section: &str) -> Vec<String> {
        manifest
            .lines()
            .map(str::trim)
            .skip_while(|l| *l != section)
            .skip(1)
            .take_while(|l| !l.starts_with('['))
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(str::to_string)
            .collect()
    }

    #[test]
    fn nested_package_builds_what_the_workspace_bin_builds() {
        // This directory is the `ledger` bin of `rupcxx-bench` and a
        // package of its own; the two manifests must agree.
        let root = repo_root();
        let read = |rel: &str| {
            std::fs::read_to_string(root.join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
        };
        let nested = read(&format!("{PATH}/Cargo.toml"));
        let bench = read("crates/bench/Cargo.toml");
        let workspace = read("Cargo.toml");
        let names = |lines: Vec<String>| -> Vec<String> {
            lines
                .iter()
                .filter_map(|l| l.split(['.', ' ', '=']).next())
                .map(str::to_string)
                .collect()
        };
        let bench_deps = names(section(&bench, "[dependencies]"));
        for dep in names(section(&nested, "[dependencies]")) {
            assert!(
                dep == "rupcxx-bench" || bench_deps.contains(&dep),
                "{dep} is a dependency of the nested package only"
            );
        }
        assert_eq!(
            section(&nested, "[profile.release]"),
            section(&workspace, "[profile.release]"),
            "release profiles differ"
        );
    }

    #[test]
    fn contract_limits_hold() {
        let doc = benchmark_json();
        let len = |key: &str| {
            doc.get(key)
                .and_then(Value::as_arr)
                .map_or(0, <[Value]>::len)
        };
        assert_eq!(len("workloads"), 7);
        assert_eq!(len("end_to_end"), 6);
        assert!((1..=128).contains(&len("per_layer")));
        assert!(doc.to_pretty().len() < 64 << 10);
        let ok_name = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names = Vec::new();
        for key in ["workloads", "end_to_end", "per_layer"] {
            for item in doc.get(key).and_then(Value::as_arr).unwrap() {
                let name = item.str_or_empty("name");
                assert!(ok_name(name), "{name:?}");
                names.push(name.to_string());
                if key == "workloads" {
                    let why = item.str_or_empty("why");
                    assert!(
                        !why.is_empty() && why.len() <= 200 && !why.contains('\n'),
                        "{why:?}"
                    );
                } else {
                    assert!(ok_unit(item.str_or_empty("unit")), "{name}");
                }
                if key == "end_to_end" {
                    let bound = item.num_or("bound", -1.0);
                    assert!((0.0..=0.25).contains(&bound), "{name} bound {bound}");
                }
            }
        }
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        // Set-up time is on the list and carries the largest bound.
        let e2e = doc.get("end_to_end").and_then(Value::as_arr).unwrap();
        let setup = e2e
            .iter()
            .find(|m| m.str_or_empty("name") == "setup_s")
            .unwrap();
        assert_eq!(setup.str_or_empty("unit"), "s");
        assert_eq!(setup.str_or_empty("better"), "lower");
        let largest = e2e
            .iter()
            .map(|m| m.num_or("bound", 0.0))
            .fold(0.0, f64::max);
        assert_eq!(setup.num_or("bound", 0.0), largest);
        for s in doc.get("command").and_then(Value::as_arr).unwrap() {
            let s = s.as_str().unwrap();
            assert!(
                s.len() <= 200 && !s.starts_with('/') && !s.contains(".."),
                "{s:?}"
            );
        }
    }
}
