//! `rupcxx-bench` — harness library for the paper-reproduction binaries.
//!
//! The `repro-fig4` … `repro-fig8` binaries each regenerate one evaluation
//! artifact of the paper. Every harness follows the same recipe
//! (documented in DESIGN.md):
//!
//! 1. run the real benchmark at host scale (1–8 ranks on this machine)
//!    and print the **measured** series;
//! 2. calibrate the per-operation *software* costs of the compared code
//!    paths from those runs;
//! 3. feed the calibrated costs into `rupcxx-perfmodel` and print the
//!    **modeled** series at the paper's scales on the paper's machine.
//!
//! Performance numbers come from one place only: the ledger under
//! `src/bin/ledger/` (`BENCHMARK.json`). This crate has no `benches/`.

pub mod calibrate;
pub mod report;

pub use calibrate::Calibration;
