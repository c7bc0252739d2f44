//! `ledger` — the repo's one benchmark.
//!
//! * `ledger run` measures the end-to-end metrics of the seven SPMD
//!   workloads with every tracing feature off;
//! * `ledger layers` is the traced pass: it times calls into each
//!   layer's public functions under the benchmark's own span recorder and
//!   reconciles them with the end-to-end figures (`chain.*`);
//! * `ledger compare A.json B.json` decides whether two result files
//!   agree within the regression bounds;
//! * `ledger --workload W --seed N --seconds S --trace 0|1` is the
//!   benchmark driver's entry point (see `BENCHMARK.json`): one workload,
//!   one JSON object as the last line of stdout.
//!
//! It claims no gain: it is the yardstick later changes name their metric
//! and workload from. See `README.md` beside this file.

mod compare;
mod counting;
mod describe;
mod host;
mod json;
mod launch;
mod layers;
mod metrics;
mod micro;
mod pin;
mod run;
mod span;
mod stats;
mod workloads;

use json::Value;
use std::path::PathBuf;
use std::time::{Duration, Instant, UNIX_EPOCH};
use workloads::{ChildPlan, RepPlan, WORKLOADS};

#[global_allocator]
static ALLOC: counting::Counting = counting::Counting;

const USAGE: &str = "usage:
  ledger run     [--seed N] [--quick] [--out PATH]
  ledger layers  [--seed N] [--quick] [--out PATH]
  ledger compare A.json B.json
  ledger describe                      (prints BENCHMARK.json)
  ledger --workload NAME --seed N --seconds S --trace 0|1";

/// Command-line arguments after the subcommand: `--key value` pairs and
/// bare `--flags`, plus positionals.
struct Args(Vec<String>);

impl Args {
    fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    fn opt(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
    }

    /// `--name N` as a number; exits with the usage text when malformed.
    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        match self.opt(name) {
            None => default,
            Some(raw) => raw
                .parse()
                .unwrap_or_else(|_| die(&format!("bad value {raw:?} for {name}"))),
        }
    }

    fn positionals(&self) -> Vec<&str> {
        self.0
            .iter()
            .filter(|a| !a.starts_with("--"))
            .map(String::as_str)
            .collect()
    }
}

fn die(msg: &str) -> ! {
    eprintln!("ledger: {msg}\n{USAGE}");
    std::process::exit(2);
}

/// The `&'static str` name of a known workload (spans keep static names).
fn static_name(name: &str) -> &'static str {
    WORKLOADS
        .iter()
        .map(|(n, _)| *n)
        .find(|n| *n == name)
        .unwrap_or_else(|| die(&format!("unknown workload {name:?}")))
}

/// `ledger child …`: run one workload in this process (internal; spawned
/// by `launch::run_workload`).
fn child(args: &Args, started: Instant) {
    let name = static_name(args.opt("--workload").unwrap_or(""));
    let seed: u64 = args.num("--seed", 1);
    let staged: usize = args.num("--staged", 0);
    let reps = RepPlan {
        min: args.num("--min-reps", 1),
        budget_ms: args.num("--budget-ms", 0),
    };
    let t0 = UNIX_EPOCH + Duration::from_nanos(args.num::<u64>("--t0-ns", 0));
    let workload = workloads::by_name(name, seed, args.num("--launch", 0)).expect("known workload");
    let (result, spans) =
        workloads::run_child(name, &*workload, ChildPlan { reps, staged }, t0, started);
    if let Some(part) = args.num::<usize>("--spans-part", 0).checked_sub(1) {
        layers::write_span_part(&layers::span_part_path(part), &spans);
    }
    println!("{}", result.to_line());
}

/// The benchmark driver's entry point.
fn driver(args: &Args) -> i32 {
    let workload = static_name(args.opt("--workload").unwrap_or(""));
    let seed: u64 = args.num("--seed", 1);
    let seconds: u64 = args.num("--seconds", 10);
    let trace: u8 = args.num("--trace", 0);
    let (rows, children, attempted, failed) = match trace {
        0 => run::driver_run(workload, seed, seconds),
        1 => layers::driver_run(workload, seed, seconds),
        other => die(&format!("--trace must be 0 or 1, not {other}")),
    };
    rows.iter().for_each(run::Row::print);
    // Every child run made, re-runs included, stays on record.
    let doc = run::result_doc("driver", seed, false, &rows, children);
    run::write_result(
        &run::default_out(&format!("driver-{workload}-trace{trace}")),
        &doc,
    );
    let metrics = Value::Obj(
        rows.iter()
            // `failed_ops` travels as `failed` / `attempted` below.
            .filter(|r| metrics::end_to_end(&r.metric).is_none_or(|m| m.in_benchmark_json))
            .map(|r| {
                (
                    r.metric.clone(),
                    Value::obj([
                        // A dead child leaves NaN; the line must stay
                        // numeric, `correct: false` carries the news.
                        (
                            "value",
                            Value::Num(if r.value.is_finite() { r.value } else { 0.0 }),
                        ),
                        ("unit", Value::Str(r.unit.clone())),
                    ]),
                )
            })
            .collect(),
    );
    let line = Value::obj([
        ("correct", Value::Bool(failed == 0)),
        ("attempted", Value::Num(attempted.max(1) as f64)),
        ("failed", Value::Num(failed as f64)),
        ("metrics", metrics),
    ]);
    println!("{}", line.to_line());
    0
}

fn main() {
    let started = Instant::now();
    pin::remember_process_cpus();
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let command = match argv.first() {
        Some(first) if !first.starts_with("--") => argv.remove(0),
        Some(_) => "driver".to_string(),
        None => die("no command given"),
    };
    let args = Args(argv);
    let out = args.opt("--out").map(PathBuf::from);
    let code = match command.as_str() {
        "run" => run::run(args.num("--seed", 1), args.flag("--quick"), out),
        "layers" => layers::layers(args.num("--seed", 1), args.flag("--quick"), out),
        "compare" => match args.positionals()[..] {
            [a, b] => compare::compare_files(a.as_ref(), b.as_ref()),
            _ => die("compare takes two result files"),
        },
        "child" => {
            child(&args, started);
            0
        }
        "child-micro" => {
            layers::child_micro(
                args.num("--seed", 1),
                args.num("--batches", 1),
                args.opt("--spans").map(std::path::Path::new),
            );
            0
        }
        "driver" => driver(&args),
        "describe" => {
            print!("{}", describe::benchmark_json().to_pretty());
            0
        }
        other => die(&format!("unknown command {other:?}")),
    };
    std::process::exit(code);
}
