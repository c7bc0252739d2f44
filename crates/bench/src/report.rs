//! Report helpers: print a measured/modeled table and mirror it to CSV
//! under `results/` so EXPERIMENTS.md can reference stable artifacts.

use rupcxx_perfmodel::bench_models::SeriesPoint;
use rupcxx_util::{table::fnum, Table};

/// Where harness CSVs land (relative to the workspace root).
pub const RESULTS_DIR: &str = "results";

/// Print a titled table and write it as CSV to `results/<name>.csv`.
pub fn emit(name: &str, title: &str, table: &Table) {
    println!("\n== {title} ==");
    print!("{}", table.render());
    if let Err(e) = std::fs::create_dir_all(RESULTS_DIR)
        .and_then(|_| std::fs::write(format!("{RESULTS_DIR}/{name}.csv"), table.to_csv()))
    {
        eprintln!("(could not write {RESULTS_DIR}/{name}.csv: {e})");
    } else {
        println!("[written {RESULTS_DIR}/{name}.csv]");
    }
}

/// Build a two-series comparison table from model outputs.
pub fn two_series_table(
    cores_header: &str,
    a_name: &str,
    a: &[SeriesPoint],
    b_name: &str,
    b: &[SeriesPoint],
) -> Table {
    assert_eq!(a.len(), b.len());
    let mut t = Table::new([cores_header, a_name, b_name, "ratio"]);
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.cores, y.cores);
        t.row([
            x.cores.to_string(),
            fnum(x.value),
            fnum(y.value),
            format!("{:.3}", x.value / y.value),
        ]);
    }
    t
}

/// Build a single-series table from model output.
pub fn one_series_table(cores_header: &str, name: &str, s: &[SeriesPoint]) -> Table {
    let mut t = Table::new([cores_header, name]);
    for p in s {
        t.row([p.cores.to_string(), fnum(p.value)]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_build() {
        let s = vec![
            SeriesPoint {
                cores: 1,
                value: 1.0,
            },
            SeriesPoint {
                cores: 2,
                value: 2.0,
            },
        ];
        let t = two_series_table("cores", "a", &s, "b", &s);
        assert_eq!(t.len(), 2);
        let u = one_series_table("cores", "x", &s);
        assert_eq!(u.len(), 2);
    }
}
