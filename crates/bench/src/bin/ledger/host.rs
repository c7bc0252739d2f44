//! Where a result came from: every result file carries these, and
//! `ledger compare` refuses to gate across hosts that differ.

use crate::json::Value;
use std::path::PathBuf;
use std::process::Command;

/// Logical cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// `YYYY-MM-DD` (UTC) from the system clock, without a date crate.
fn today() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    // Civil-from-days (Howard Hinnant's algorithm).
    let z = (secs / 86_400) as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = yoe + era * 400 + i64::from(m <= 2);
    format!("{y:04}-{m:02}-{d:02}")
}

/// The provenance block of a result file.
pub fn describe() -> Value {
    let cores = nproc();
    Value::obj([
        (
            "git_sha",
            Value::Str(command_line("git", &["rev-parse", "--short", "HEAD"])),
        ),
        ("nproc", Value::Num(cores as f64)),
        ("cpu_model", Value::Str(cpu_model())),
        ("rustc", Value::Str(command_line("rustc", &["--version"]))),
        ("date", Value::Str(today())),
        // Two closed-loop ranks need two cores; fewer measures the
        // scheduler, so such a host never gates.
        ("undersized", Value::Bool(cores < 2)),
    ])
}

/// Directory for everything the ledger writes (result files, span dumps,
/// conduit segment files and sockets): `<target dir>/ledger`, relative to
/// the current directory unless `CARGO_TARGET_DIR` says otherwise.
pub fn out_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    target.join("ledger")
}

#[cfg(test)]
mod tests {
    #[test]
    fn today_is_a_plausible_iso_date() {
        let d = super::today();
        assert_eq!(d.len(), 10);
        assert!(d.starts_with("20"), "{d}");
        let month: u32 = d[5..7].parse().unwrap();
        let day: u32 = d[8..10].parse().unwrap();
        assert!((1..=12).contains(&month) && (1..=31).contains(&day), "{d}");
    }
}
