//! Parent side of a child run: spawn this binary again with a scrubbed
//! environment, wait for it (with a timeout), and turn whatever happened
//! into one result object. The parent does no work while a child runs.

use crate::json::{self, Value};
use crate::workloads::{self, ChildPlan};
use std::ffi::OsString;
use std::io::Read;
use std::os::unix::process::CommandExt;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// A child that has not finished by then is killed and its planned ops
/// count as failed.
pub const CHILD_TIMEOUT: Duration = Duration::from_secs(60);

/// The environment a child gets: the parent's, minus every `RUPCXX_*`
/// variable — `RuntimeConfig::new` seeds tracing, faults, aggregation,
/// checking, caching, profiling, scheduling and the conduit from those,
/// and a benchmark must not silently measure a stray setting.
pub fn scrubbed_env(vars: impl Iterator<Item = (OsString, OsString)>) -> Vec<(OsString, OsString)> {
    vars.filter(|(k, _)| !k.to_string_lossy().starts_with("RUPCXX_"))
        .collect()
}

/// How a child ended.
pub enum Exit {
    /// Exited by itself with this status and stdout.
    Done {
        success: bool,
        stdout: String,
    },
    TimedOut,
}

/// Run `ledger <args>` as a child and wait for it.
pub fn spawn_and_wait(args: &[String], timeout: Duration) -> Exit {
    let exe = std::env::current_exe().expect("path of the running ledger binary");
    let mut child = Command::new(exe)
        // Where a child's heap blocks land follows from every allocation
        // made before them, `argv` strings included; the path of the
        // binary differs from checkout to checkout, so the child is not
        // told it (numbers go out at fixed width for the same reason).
        .arg0("ledger")
        .args(args)
        .env_clear()
        .envs(scrubbed_env(std::env::vars_os()))
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn ledger child");
    // Drain stdout on a helper so a chatty child can never fill the pipe
    // and block while we wait for it.
    let mut pipe = child.stdout.take().expect("piped stdout");
    let reader = std::thread::spawn(move || {
        let mut out = String::new();
        let _ = pipe.read_to_string(&mut out);
        out
    });
    let deadline = Instant::now() + timeout;
    let status = loop {
        match child.try_wait().expect("wait for ledger child") {
            Some(status) => break Some(status),
            None if Instant::now() >= deadline => {
                let _ = child.kill();
                let _ = child.wait();
                break None;
            }
            None => std::thread::sleep(Duration::from_millis(5)),
        }
    };
    let stdout = reader.join().expect("stdout reader");
    match status {
        Some(status) => Exit::Done {
            success: status.success(),
            stdout,
        },
        None => Exit::TimedOut,
    }
}

/// The last stdout line that parses as a JSON object — a child's result.
pub fn result_line(stdout: &str) -> Option<Value> {
    stdout
        .lines()
        .rev()
        .filter(|l| l.starts_with('{'))
        .find_map(|l| json::parse(l).ok())
}

fn unix_ns() -> u128 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos())
}

/// Launch one child for `workload` and return its result object with a
/// `status` member added: `ok`, `noisy`, `crashed` or `timeout`. A dead
/// child still yields an object, carrying the ops it forfeited.
pub fn run_workload(
    workload: &str,
    seed: u64,
    launch: u64,
    plan: ChildPlan,
    spans_part: Option<usize>,
) -> Value {
    // Every child of every pass gets this one argument list, each number
    // at fixed width: a child's heap layout follows from its `argv`, and
    // the two-rank word path from its heap layout (see `counting.rs`), so
    // `run`, `layers` and the driver entry must not differ here.
    let numbers: [(&str, u128); 7] = [
        ("--seed", seed.into()),
        ("--launch", launch.into()),
        ("--staged", plan.staged as u128),
        ("--t0-ns", unix_ns()),
        ("--min-reps", plan.reps.min as u128),
        ("--budget-ms", plan.reps.budget_ms.into()),
        // 0 = keep no spans, n = write them to span part n - 1.
        ("--spans-part", spans_part.map_or(0, |n| n as u128 + 1)),
    ];
    let mut args: Vec<String> = vec!["child".into(), "--workload".into(), workload.into()];
    for (name, n) in numbers {
        args.extend([name.to_string(), format!("{n:020}")]);
    }
    let started = Instant::now();
    let exit = spawn_and_wait(&args, CHILD_TIMEOUT);
    let wall_s = started.elapsed().as_secs_f64();
    let (status, body) = match exit {
        Exit::Done {
            success: true,
            stdout,
        } => match result_line(&stdout) {
            Some(v) if v.get("noisy").and_then(Value::as_bool) == Some(true) => ("noisy", Some(v)),
            Some(v) => ("ok", Some(v)),
            None => ("crashed", None),
        },
        Exit::Done { success: false, .. } => ("crashed", None),
        Exit::TimedOut => ("timeout", None),
    };
    let mut pairs = match body {
        Some(Value::Obj(pairs)) => pairs,
        _ => {
            let ops_per_rep =
                workloads::by_name(workload, seed, launch).map_or(0, |w| w.ops_per_rep());
            vec![
                ("workload".into(), Value::Str(workload.into())),
                ("ops_per_rep".into(), Value::Num(ops_per_rep as f64)),
                (
                    "forfeited_ops".into(),
                    // The warm-up rep is checked too, so it is forfeited too.
                    Value::Num((ops_per_rep * (plan.reps.min as u64 + 1)) as f64),
                ),
            ]
        }
    };
    pairs.push(("status".into(), Value::Str(status.into())));
    pairs.push(("wall_s".into(), Value::Num(wall_s)));
    Value::Obj(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_scrub_drops_every_rupcxx_variable_and_nothing_else() {
        let env = [
            ("PATH", "/usr/bin"),
            ("RUPCXX_TRACE", "metrics"),
            ("RUPCXX_AGG", "on"),
            ("RUPCXX_CONDUIT", "shm:/tmp/x"),
            ("RUPCXX_FUTURE_KNOB", "1"),
            ("CARGO_TARGET_DIR", ".bench_build"),
            ("MY_RUPCXX_LOOKALIKE", "kept"),
            ("rupcxx_lowercase", "kept"),
        ]
        .into_iter()
        .map(|(k, v)| (OsString::from(k), OsString::from(v)));
        let kept: Vec<String> = scrubbed_env(env)
            .into_iter()
            .map(|(k, _)| k.to_string_lossy().into_owned())
            .collect();
        assert_eq!(
            kept,
            [
                "PATH",
                "CARGO_TARGET_DIR",
                "MY_RUPCXX_LOOKALIKE",
                "rupcxx_lowercase"
            ]
        );
    }

    #[test]
    fn result_line_takes_the_last_json_object() {
        let out = "== rupcxx trace ==\n{\"a\": 1}\nnoise\n{\"a\": 2}\ntrailing text\n";
        assert_eq!(result_line(out).unwrap().num_or("a", 0.0), 2.0);
        assert!(result_line("no json here\n{broken\n").is_none());
    }
}
