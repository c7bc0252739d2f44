//! The end-to-end metric definitions: name, unit, direction and the bound
//! by which a metric may worsen before it counts as a regression.
//!
//! There is one table: `BENCHMARK.json` is printed from it (`ledger
//! describe`) and `ledger compare` judges with it, so the benchmark driver
//! and `compare` apply the same gate. The file's schema has room for the
//! relative bound only; the absolute allowance of `alloc_bytes_per_op`
//! (which keeps a near-zero value from flapping on a few bytes) is
//! `compare`'s alone.
//!
//! The two timings carry 25 %, the widest bound the benchmark contract
//! admits, where the issue that specified the ledger asked for 10 % and
//! 20 %. On the shared 2-vCPU reference host ten unchanged 15-second runs
//! of one workload spread (IQR over median) by 3–21 % in `ops_per_s` —
//! above 10 % for one to three of the seven workloads in every session
//! measured — their median moves by up to 18 % within the hour, and a
//! benchmark whose own spread exceeds its bound is refused. The counts repeat almost exactly and keep the issue's bounds.
//! On a steadier host, tighten the two numbers here and nowhere else.

/// Which way is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// One end-to-end metric, reported per workload.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Allowed worsening as a share of the baseline value.
    pub rel_bound: f64,
    /// Additional absolute allowance, in the metric's unit.
    pub abs_bound: f64,
    /// Whether `BENCHMARK.json` lists the metric. `failed_ops` is not
    /// listed: it travels as the driver's own `failed` / `attempted`
    /// counts, and a metric in that file must never be 0.
    pub in_benchmark_json: bool,
}

pub const END_TO_END: [MetricDef; 7] = [
    MetricDef {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        rel_bound: 0.25,
        abs_bound: 0.0,
        in_benchmark_json: true,
    },
    MetricDef {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        rel_bound: 0.25,
        abs_bound: 0.0,
        in_benchmark_json: true,
    },
    MetricDef {
        name: "wire_msgs_per_op",
        unit: "msg/op",
        better: Better::Lower,
        rel_bound: 0.02,
        abs_bound: 0.0,
        in_benchmark_json: true,
    },
    MetricDef {
        name: "wire_bytes_per_op",
        unit: "B/op",
        better: Better::Lower,
        rel_bound: 0.02,
        abs_bound: 0.0,
        in_benchmark_json: true,
    },
    MetricDef {
        name: "alloc_bytes_per_op",
        unit: "B/op",
        better: Better::Lower,
        rel_bound: 0.05,
        abs_bound: 0.5,
        in_benchmark_json: true,
    },
    MetricDef {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        rel_bound: 0.10,
        abs_bound: 0.0,
        in_benchmark_json: true,
    },
    MetricDef {
        name: "failed_ops",
        unit: "ratio",
        better: Better::Lower,
        rel_bound: 0.0,
        abs_bound: 0.0,
        in_benchmark_json: false,
    },
];

/// Look an end-to-end metric up by name.
pub fn end_to_end(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().find(|m| m.name == name)
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

impl MetricDef {
    /// How much worse than `baseline` a value may be and still pass.
    pub fn allowance(&self, baseline: f64) -> f64 {
        baseline.abs() * self.rel_bound + self.abs_bound
    }

    /// `candidate − baseline`, signed so that positive means worse.
    pub fn worsening(&self, baseline: f64, candidate: f64) -> f64 {
        match self.better {
            Better::Higher => baseline - candidate,
            Better::Lower => candidate - baseline,
        }
    }
}
